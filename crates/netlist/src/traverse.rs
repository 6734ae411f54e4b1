//! Topological traversal, levelization, and backward reachability.

use crate::cell::CellKind;
use crate::graph::{GateId, Netlist};
use std::collections::VecDeque;

/// Topological order over the *combinational* edges (register D-pin edges
/// are cut; registers, inputs, and constants are sources).
///
/// The returned order contains every gate exactly once and guarantees that
/// each combinational gate appears after all of its fan-ins (registers
/// appear wherever convenient since their output is available "at time 0").
pub fn topo_order(netlist: &Netlist) -> Vec<GateId> {
    let n = netlist.gate_count();
    let mut indeg = vec![0usize; n];
    for (i, g) in netlist.iter() {
        if !g.kind.is_sequential() {
            indeg[i.index()] = g.fanin.len();
        }
    }
    let mut queue: VecDeque<GateId> = netlist.ids().filter(|g| indeg[g.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in netlist.fanout(u) {
            if netlist.gate(v).kind.is_sequential() {
                continue;
            }
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                queue.push_back(v);
            }
        }
    }
    assert_eq!(order.len(), n, "netlist must be acyclic");
    order
}

/// Logic level of each gate: sources (inputs, registers, constants) are
/// level 0; a combinational gate is 1 + max(fan-in levels).
pub fn levels(netlist: &Netlist) -> Vec<usize> {
    let order = topo_order(netlist);
    let mut level = vec![0usize; netlist.gate_count()];
    for id in order {
        let g = netlist.gate(id);
        if g.kind.is_sequential() || g.kind == CellKind::Input || g.fanin.is_empty() {
            level[id.index()] = 0;
        } else {
            level[id.index()] = 1 + g.fanin.iter().map(|f| level[f.index()]).max().unwrap_or(0);
        }
    }
    level
}

/// Maximum combinational depth of the design.
pub fn logic_depth(netlist: &Netlist) -> usize {
    levels(netlist).into_iter().max().unwrap_or(0)
}

/// Gates reachable backwards from `from` through combinational gates only,
/// stopping (but including) at registers, primary inputs, and constants.
/// `from` itself is included.
pub fn backward_cone(netlist: &Netlist, from: GateId) -> Vec<GateId> {
    let mut seen = vec![false; netlist.gate_count()];
    let mut stack = vec![from];
    let mut out = Vec::new();
    seen[from.index()] = true;
    while let Some(u) = stack.pop() {
        out.push(u);
        let g = netlist.gate(u);
        // Do not cross *through* sequential boundaries (unless u is the
        // starting register whose D-cone we are tracing).
        if u != from && (g.kind.is_sequential() || g.kind == CellKind::Input) {
            continue;
        }
        for &f in &g.fanin {
            if !seen[f.index()] {
                seen[f.index()] = true;
                stack.push(f);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    /// Builds: a,b inputs; U1=AND(a,b); U2=INV(U1); R=DFF(U2); U3=INV(R); y=OUT(U3)
    fn chain() -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let u1 = n.add_gate("U1", CellKind::And2, vec![a, b]);
        let u2 = n.add_gate("U2", CellKind::Inv, vec![u1]);
        let r = n.add_gate("R", CellKind::Dff, vec![u2]);
        let u3 = n.add_gate("U3", CellKind::Inv, vec![r]);
        n.add_gate("y", CellKind::Output, vec![u3]);
        n.validate().expect("valid")
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = chain();
        let order = topo_order(&n);
        assert_eq!(order.len(), n.gate_count());
        let pos = |name: &str| {
            let id = n.find(name).expect("exists");
            order.iter().position(|&g| g == id).expect("in order")
        };
        assert!(pos("U1") > pos("a"));
        assert!(pos("U2") > pos("U1"));
        assert!(pos("U3") < n.gate_count()); // register output usable anywhere
        assert!(pos("y") > pos("U3"));
    }

    #[test]
    fn levels_count_combinational_depth() {
        let n = chain();
        let lv = levels(&n);
        let at = |name: &str| lv[n.find(name).expect("exists").index()];
        assert_eq!(at("a"), 0);
        assert_eq!(at("U1"), 1);
        assert_eq!(at("U2"), 2);
        assert_eq!(at("R"), 0); // register restarts timing
        assert_eq!(at("U3"), 1);
        assert_eq!(logic_depth(&n), 2);
    }

    #[test]
    fn backward_cone_stops_at_registers() {
        let n = chain();
        let y = n.find("y").expect("exists");
        let cone = backward_cone(&n, y);
        let names: Vec<&str> = cone.iter().map(|&g| n.gate(g).name.as_str()).collect();
        assert!(names.contains(&"U3"));
        assert!(names.contains(&"R"));
        // Stops at R: the logic before the register is not in the cone.
        assert!(!names.contains(&"U1"));
    }

    #[test]
    fn register_cone_traces_through_its_own_d_pin() {
        let n = chain();
        let r = n.find("R").expect("exists");
        let cone = backward_cone(&n, r);
        let names: Vec<&str> = cone.iter().map(|&g| n.gate(g).name.as_str()).collect();
        assert!(names.contains(&"U2"));
        assert!(names.contains(&"U1"));
        assert!(names.contains(&"a"));
    }
}
