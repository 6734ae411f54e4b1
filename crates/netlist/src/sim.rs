//! Cycle-accurate gate-level simulation.
//!
//! Used to prove that synthesis (RTL → gates) and optimization passes
//! preserve function, and by the physical substrate to seed switching
//! activity.

use crate::cell::CellKind;
use crate::graph::{GateId, Netlist};
use crate::traverse::topo_order;
use std::collections::HashMap;

/// Evaluates all combinational logic for one cycle.
///
/// `sources` provides the values of primary inputs and register outputs
/// (missing sources default to `false`). Returns the value on every gate
/// output; register entries hold their *current* (source) value — use
/// [`next_register_values`] for the D-pin capture.
pub fn simulate_comb(netlist: &Netlist, sources: &HashMap<GateId, bool>) -> Vec<bool> {
    let mut values = vec![false; netlist.gate_count()];
    for &id in &topo_order(netlist) {
        let g = netlist.gate(id);
        values[id.index()] = match g.kind {
            CellKind::Input => sources.get(&id).copied().unwrap_or(false),
            k if k.is_sequential() => sources.get(&id).copied().unwrap_or(false),
            CellKind::Const0 => false,
            CellKind::Const1 => true,
            CellKind::Output | CellKind::Buf => values[g.fanin[0].index()],
            kind => {
                let row = g
                    .fanin
                    .iter()
                    .enumerate()
                    .fold(0, |row, (j, f)| row | usize::from(values[f.index()]) << j);
                kind.eval_row(row)
            }
        };
    }
    values
}

/// The value each register captures at the next clock edge, given the
/// combinational values from [`simulate_comb`].
pub fn next_register_values(netlist: &Netlist, values: &[bool]) -> HashMap<GateId, bool> {
    let mut next = HashMap::new();
    for r in netlist.registers() {
        let g = netlist.gate(r);
        let d = values[g.fanin[0].index()];
        let v = match g.kind {
            CellKind::Dff => d,
            // Enable low holds the current value.
            CellKind::DffE => {
                let en = values[g.fanin[1].index()];
                if en {
                    d
                } else {
                    values[r.index()]
                }
            }
            // Synchronous reset clears.
            CellKind::DffR => {
                let rst = values[g.fanin[1].index()];
                !rst && d
            }
            _ => unreachable!("registers() returns sequential gates"),
        };
        next.insert(r, v);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn combinational_evaluation() {
        let mut n = Netlist::new("sim");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let x = n.add_gate("X", CellKind::Xor2, vec![a, b]);
        let m = n.add_gate("M", CellKind::Mux2, vec![x, a, b]);
        n.add_gate("y", CellKind::Output, vec![m]);
        let n = n.validate().expect("valid");
        let mut src = HashMap::new();
        src.insert(a, true);
        src.insert(b, false);
        let v = simulate_comb(&n, &src);
        assert!(v[x.index()]); // 1 ^ 0
        assert!(v[m.index()]); // sel=1 -> a = 1
    }

    #[test]
    fn dffe_holds_when_disabled() {
        let mut n = Netlist::new("en");
        let d = n.add_gate("d", CellKind::Input, vec![]);
        let en = n.add_gate("en", CellKind::Input, vec![]);
        let r = n.add_gate("R", CellKind::DffE, vec![d, en]);
        n.add_gate("y", CellKind::Output, vec![r]);
        let n = n.validate().expect("valid");
        let mut src = HashMap::new();
        src.insert(d, true);
        src.insert(en, false);
        src.insert(r, false);
        let v = simulate_comb(&n, &src);
        let next = next_register_values(&n, &v);
        assert!(!next[&r], "hold");
        src.insert(en, true);
        let v = simulate_comb(&n, &src);
        let next = next_register_values(&n, &v);
        assert!(next[&r], "load");
    }

    #[test]
    fn dffr_clears_on_reset() {
        let mut n = Netlist::new("rst");
        let d = n.add_gate("d", CellKind::Input, vec![]);
        let rst = n.add_gate("rst", CellKind::Input, vec![]);
        let r = n.add_gate("R", CellKind::DffR, vec![d, rst]);
        n.add_gate("y", CellKind::Output, vec![r]);
        let n = n.validate().expect("valid");
        let mut src = HashMap::new();
        src.insert(d, true);
        src.insert(rst, true);
        let v = simulate_comb(&n, &src);
        assert!(!next_register_values(&n, &v)[&r]);
    }
}
