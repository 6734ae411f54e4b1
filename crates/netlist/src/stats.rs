//! Netlist statistics: gate-type histograms (the `y_size` labels of
//! pre-training objective #2.3), node/edge counts, and depth summaries
//! (Table II's dataset statistics).

use crate::cell::{CellKind, ALL_CELL_KINDS};
use crate::graph::Netlist;
use crate::traverse::logic_depth;

/// Summary statistics of one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Total node count (including pseudo-cells).
    pub nodes: usize,
    /// Total directed edge count.
    pub edges: usize,
    /// Mapped combinational gate count.
    pub combinational: usize,
    /// Sequential element count.
    pub registers: usize,
    /// Primary input / output counts.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Maximum combinational depth.
    pub depth: usize,
    /// Per-cell-kind counts indexed by [`CellKind::index`].
    pub kind_counts: Vec<u32>,
}

impl NetlistStats {
    /// Computes statistics for a validated netlist.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let mut kind_counts = vec![0u32; ALL_CELL_KINDS.len()];
        let mut edges = 0usize;
        let mut combinational = 0usize;
        let mut registers = 0usize;
        let mut inputs = 0usize;
        let mut outputs = 0usize;
        for (_, g) in netlist.iter() {
            kind_counts[g.kind.index()] += 1;
            edges += g.fanin.len();
            if g.kind.is_combinational() {
                combinational += 1;
            }
            if g.kind.is_sequential() {
                registers += 1;
            }
            match g.kind {
                CellKind::Input => inputs += 1,
                CellKind::Output => outputs += 1,
                _ => {}
            }
        }
        NetlistStats {
            nodes: netlist.gate_count(),
            edges,
            combinational,
            registers,
            inputs,
            outputs,
            depth: logic_depth(netlist),
            kind_counts,
        }
    }

    /// Count of one cell kind.
    pub fn count(&self, kind: CellKind) -> u32 {
        self.kind_counts[kind.index()]
    }

    /// The gate-count target vector for graph-size prediction (objective
    /// #2.3), as f32 for the regression head.
    pub fn size_targets(&self) -> Vec<f32> {
        self.kind_counts.iter().map(|&c| c as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;

    #[test]
    fn stats_count_kinds_and_edges() {
        let mut n = Netlist::new("s");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g1 = n.add_gate("U1", CellKind::Nand2, vec![a, b]);
        let g2 = n.add_gate("U2", CellKind::Inv, vec![g1]);
        let r = n.add_gate("R", CellKind::Dff, vec![g2]);
        n.add_gate("y", CellKind::Output, vec![r]);
        let n = n.validate().expect("valid");
        let s = NetlistStats::of(&n);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 5);
        assert_eq!(s.count(CellKind::Nand2), 1);
        assert_eq!(s.count(CellKind::Inv), 1);
        assert_eq!(s.registers, 1);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.combinational, 2);
        assert_eq!(s.depth, 2);
        let t = s.size_targets();
        assert_eq!(t.len(), ALL_CELL_KINDS.len());
        assert_eq!(t[CellKind::Nand2.index()], 1.0);
    }
}
