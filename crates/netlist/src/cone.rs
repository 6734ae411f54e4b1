//! Register-cone chunking (paper Sec. II-B, "Chunking sequential circuit
//! into register cones").
//!
//! For each register we backtrace through all driving combinational logic
//! up to other registers or primary inputs, producing a subcircuit that
//! captures the register's complete state-transition function. Chunking is
//! what lets NetTAG scale to large sequential designs and what defines the
//! functionally-equivalent units aligned across RTL / netlist / layout.

use crate::cell::CellKind;
use crate::graph::{GateId, Netlist, NetlistError};
use crate::traverse::{backward_cone, topo_order};

/// A register cone: the combinational fan-in of one register's D pin.
#[derive(Debug, Clone)]
pub struct Cone {
    /// The register this cone drives.
    pub root: GateId,
    /// All member gates (root register + combinational logic + frontier),
    /// in the parent netlist's topological order ([`topo_order`]) as
    /// [`chunk_into_cones`] stores them, so [`cone_to_netlist`] adds every
    /// gate after its fan-ins by walking this list.
    pub gates: Vec<GateId>,
    /// Frontier gates: registers and primary inputs whose *outputs* feed
    /// the cone (treated as free variables of the transition function),
    /// in backtrace order.
    pub frontier: Vec<GateId>,
}

/// Extracts the register cone rooted at `reg`, its gates in backtrace
/// order ([`chunk_into_cones`] sorts them).
///
/// # Panics
///
/// Panics if `reg` is not a sequential gate.
fn register_cone(netlist: &Netlist, reg: GateId) -> Cone {
    assert!(
        netlist.gate(reg).kind.is_sequential(),
        "register_cone root must be sequential"
    );
    let gates = backward_cone(netlist, reg);
    let mut frontier: Vec<GateId> = gates
        .iter()
        .copied()
        .filter(|&g| {
            let k = netlist.gate(g).kind;
            (k.is_sequential() && g != reg) || k == CellKind::Input
        })
        .collect();
    // A register can feed its own next-state logic (e.g. a toggle flop);
    // its previous-cycle output is then a free variable of the transition
    // function, so the root joins the frontier too.
    let root_feeds_logic = gates
        .iter()
        .filter(|&&g| g != reg)
        .any(|&g| netlist.gate(g).fanin.contains(&reg));
    if root_feeds_logic {
        frontier.push(reg);
    }
    Cone {
        root: reg,
        gates,
        frontier,
    }
}

/// Chunks a sequential netlist into one cone per register, in
/// [`Netlist::registers`] order.
///
/// Combinational designs (no registers) yield a single pseudo-cone per
/// primary output instead, so downstream code can treat both uniformly.
/// The netlist is sorted topologically once, and every cone lists its
/// gates in that order.
pub fn chunk_into_cones(netlist: &Netlist) -> Vec<Cone> {
    let order = topo_order(netlist);
    let mut rank = vec![0u32; order.len()];
    for (i, id) in order.iter().enumerate() {
        rank[id.index()] = i as u32;
    }
    // Sorting the members' plain ranks and reading the gates back from
    // `order` beats sorting the gates by a looked-up key.
    let sorted = |mut cone: Cone| {
        let mut ranks: Vec<u32> = cone.gates.iter().map(|g| rank[g.index()]).collect();
        ranks.sort_unstable();
        cone.gates = ranks.into_iter().map(|r| order[r as usize]).collect();
        cone
    };
    let regs = netlist.registers();
    // Each cone's backtrace only reads the netlist, so the per-register
    // (or per-output) sweep parallelizes across worker threads.
    if regs.is_empty() {
        let outs = netlist.outputs();
        return nettag_par::map_slice(&outs, |&out| {
            let gates = backward_cone(netlist, out);
            let frontier = gates
                .iter()
                .copied()
                .filter(|&g| netlist.gate(g).kind == CellKind::Input)
                .collect();
            sorted(Cone {
                root: out,
                gates,
                frontier,
            })
        });
    }
    nettag_par::map_slice(&regs, |&r| sorted(register_cone(netlist, r)))
}

/// Materializes a cone as a standalone combinational netlist: frontier
/// gates become primary inputs, the root's captured value becomes the
/// primary output. Gate names are preserved so symbolic expressions match
/// across the parent netlist and the extracted cone.
///
/// # Panics
///
/// Panics if `cone.gates` lists a gate before one of its fan-ins (cones
/// from [`chunk_into_cones`] are in topological order), or if the
/// output's name `{root}_next` is already a member's name.
pub fn cone_to_netlist(netlist: &Netlist, cone: &Cone) -> Netlist {
    // Members (less the root, unless it is also an input) plus the
    // output, allocated exactly once: extracted cones often outlive their
    // parent (queued for serving, kept as samples).
    let root_is_input = cone.frontier.contains(&cone.root);
    let mut out = Netlist::with_capacity(
        format!("{}__cone_{}", netlist.name(), netlist.gate(cone.root).name),
        cone.gates.len() + usize::from(root_is_input),
    );
    // Parent gate id -> cone gate id.
    let mut map: Vec<Option<GateId>> = vec![None; netlist.gate_count()];
    // Frontier first, as inputs (this may include the root register itself
    // when it feeds its own next-state logic).
    for &f in &cone.frontier {
        let new = out.add_gate(netlist.gate(f).name.clone(), CellKind::Input, vec![]);
        map[f.index()] = Some(new);
    }
    // Interior combinational gates in the parent's topological order, so
    // fan-ins are mapped before sinks.
    for &id in &cone.gates {
        if map[id.index()].is_some() || id == cone.root {
            continue;
        }
        let g = netlist.gate(id);
        let fanin: Vec<GateId> = g
            .fanin
            .iter()
            .map(|f| map[f.index()].expect("cone gates in topological order"))
            .collect();
        map[id.index()] = Some(out.add_gate(g.name.clone(), g.kind, fanin));
    }
    // The root register's D input becomes the primary output. Its name is
    // the only one the parent did not check: every other gate, pin and
    // edge comes from the valid parent, in its topological order, so the
    // cone is well-formed and acyclic by construction.
    let root_gate = netlist.gate(cone.root);
    if let Some(driver) = root_gate.fanin.first().and_then(|d| map[d.index()]) {
        let name = format!("{}_next", root_gate.name);
        if out.iter().any(|(_, g)| g.name == name.as_str()) {
            let clash = NetlistError::DuplicateName(name);
            panic!("cone extraction preserves acyclicity: {clash:?}");
        }
        out.add_gate(name, CellKind::Output, vec![driver]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    /// Two registers with cross-coupled next-state logic:
    /// R1' = R1 ^ in, R2' = R1 & R2.
    fn two_regs() -> Netlist {
        let mut n = Netlist::new("two_regs");
        let inp = n.add_gate("in", CellKind::Input, vec![]);
        let r1 = GateId(1);
        let r2 = GateId(2);
        let x = GateId(3);
        let a = GateId(4);
        n.add_gate("R1", CellKind::Dff, vec![x]);
        n.add_gate("R2", CellKind::Dff, vec![a]);
        n.add_gate("X", CellKind::Xor2, vec![r1, inp]);
        n.add_gate("A", CellKind::And2, vec![r1, r2]);
        n.validate().expect("valid")
    }

    /// The chunked cone rooted at `root`.
    fn cone_at(n: &Netlist, root: GateId) -> Cone {
        chunk_into_cones(n)
            .into_iter()
            .find(|c| c.root == root)
            .expect("every register roots a cone")
    }

    #[test]
    fn chunking_yields_one_cone_per_register() {
        let n = two_regs();
        let cones = chunk_into_cones(&n);
        assert_eq!(cones.len(), 2);
    }

    #[test]
    fn cone_frontier_contains_other_registers_and_inputs() {
        let n = two_regs();
        let r1 = n.find("R1").expect("exists");
        let cone = cone_at(&n, r1);
        let names: Vec<&str> = cone
            .frontier
            .iter()
            .map(|&g| n.gate(g).name.as_str())
            .collect();
        // R1' = R1 ^ in: the cone reads both the input and R1's own
        // previous value, so R1 joins its own frontier.
        assert!(names.contains(&"in"));
        assert!(names.contains(&"R1"));
    }

    #[test]
    fn cone_to_netlist_is_selfcontained_combinational() {
        let n = two_regs();
        let r2 = n.find("R2").expect("exists");
        let cone = cone_at(&n, r2);
        let sub = cone_to_netlist(&n, &cone);
        assert!(
            sub.registers().is_empty(),
            "cone netlists are combinational"
        );
        // Frontier registers became inputs named like the originals.
        assert!(sub.find("R1").is_some());
        let r1_in = sub.find("R1").expect("exists");
        assert_eq!(sub.gate(r1_in).kind, CellKind::Input);
        // And the output exists.
        assert!(sub.find("R2_next").is_some());
        assert_eq!(sub.outputs().len(), 1);
    }

    #[test]
    fn cone_gates_follow_the_parent_topological_order() {
        let n = two_regs();
        for cone in chunk_into_cones(&n) {
            for (i, &id) in cone.gates.iter().enumerate() {
                if n.gate(id).kind.is_sequential() {
                    continue;
                }
                for f in &n.gate(id).fanin {
                    let at = cone.gates.iter().position(|g| g == f).expect("member");
                    assert!(at < i, "fan-in listed after its sink");
                }
            }
        }
    }

    #[test]
    fn combinational_design_chunks_per_output() {
        let mut n = Netlist::new("comb");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("U1", CellKind::Or2, vec![a, b]);
        n.add_gate("y1", CellKind::Output, vec![g]);
        n.add_gate("y2", CellKind::Output, vec![a]);
        let n = n.validate().expect("valid");
        let cones = chunk_into_cones(&n);
        assert_eq!(cones.len(), 2);
    }

    #[test]
    fn self_loop_register_includes_itself_in_logic() {
        // R' = !R (toggle flop).
        let mut n = Netlist::new("toggle");
        let r = GateId(0);
        let inv = GateId(1);
        n.add_gate("R", CellKind::Dff, vec![inv]);
        n.add_gate("N", CellKind::Inv, vec![r]);
        let n = n.validate().expect("valid");
        let cone = cone_at(&n, r);
        assert!(cone.gates.contains(&r));
        assert!(cone.gates.contains(&inv));
    }
}
