//! Layout connectivity graph — the layout modality.
//!
//! Paper Sec. II-B: "layout data is represented as connectivity graphs
//! annotated with physical characteristics ... nodes in the layout graphs
//! are annotated with capacitance, resistance, and delay values extracted
//! from the SPEF file." This module assembles exactly that graph from the
//! placed/extracted/timed design, for consumption by the auxiliary layout
//! encoder during cross-stage alignment.

use crate::parasitics::Parasitics;
use crate::placement::Placement;
use crate::timing::TimingReport;
use nettag_netlist::Netlist;

/// One layout graph node (a placed cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutNode {
    /// Wire capacitance (fF) of the driven net.
    pub capacitance: f64,
    /// Wire resistance (kOhm) of the driven net.
    pub resistance: f64,
    /// Cell propagation delay (ns).
    pub delay: f64,
    /// Placed x (um).
    pub x: f64,
    /// Placed y (um).
    pub y: f64,
}

/// The layout modality graph.
#[derive(Debug, Clone)]
pub struct LayoutGraph {
    /// Design name.
    pub name: String,
    /// Nodes indexed like the source netlist's gate ids.
    pub nodes: Vec<LayoutNode>,
    /// Directed connectivity `(driver, sink)`.
    pub edges: Vec<(u32, u32)>,
}

impl LayoutGraph {
    /// Assembles the layout graph from flow artifacts.
    pub fn assemble(
        netlist: &Netlist,
        placement: &Placement,
        parasitics: &Parasitics,
        timing: &TimingReport,
    ) -> LayoutGraph {
        let mut nodes = Vec::with_capacity(netlist.gate_count());
        for (id, _) in netlist.iter() {
            let p = parasitics.net(id);
            let (x, y) = placement.coords[id.index()];
            nodes.push(LayoutNode {
                capacitance: p.capacitance,
                resistance: p.resistance,
                delay: timing.gate_delay[id.index()],
                x,
                y,
            });
        }
        let mut edges = Vec::new();
        for (id, g) in netlist.iter() {
            for &f in &g.fanin {
                edges.push((f.0, id.0));
            }
        }
        LayoutGraph {
            name: netlist.name().to_string(),
            nodes,
            edges,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Per-node feature vector for the layout encoder: log-compressed
    /// cap/res/delay plus die-normalized coordinates.
    pub fn feature_vector(&self, i: usize, die: f64) -> [f32; 5] {
        let n = &self.nodes[i];
        [
            (n.capacitance.max(0.0)).ln_1p() as f32,
            (n.resistance.max(0.0)).ln_1p() as f32,
            (n.delay.max(0.0)).ln_1p() as f32,
            (n.x / die.max(1e-9)) as f32,
            (n.y / die.max(1e-9)) as f32,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parasitics::extract;
    use crate::placement::{place, PlaceConfig};
    use crate::timing::{analyze_timing, TimingConfig};
    use nettag_netlist::{CellKind, Library, Netlist};

    #[test]
    fn layout_graph_mirrors_netlist_shape() {
        let mut n = Netlist::new("lg");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("G", CellKind::Nand2, vec![a, b]);
        n.add_gate("y", CellKind::Output, vec![g]);
        let n = n.validate().expect("valid");
        let lib = Library::default();
        let p = place(&n, &lib, &PlaceConfig::default());
        let x = extract(&n, &lib, &p);
        let t = analyze_timing(&n, &lib, &x, &TimingConfig::default());
        let lg = LayoutGraph::assemble(&n, &p, &x, &t);
        assert_eq!(lg.len(), n.gate_count());
        assert_eq!(lg.edges.len(), 3);
        let f = lg.feature_vector(g.index(), p.die);
        assert!(f.iter().all(|v| v.is_finite()));
        assert!(lg.nodes[g.index()].delay > 0.0);
    }
}
