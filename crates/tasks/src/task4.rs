//! Task 4: overall circuit power/area prediction (Table V).
//!
//! Predicts final layout power and area from the netlist stage, in two
//! scenarios: "w/o opt" (layout without physical optimization) and
//! "w/ opt" (after sizing/buffering). Compared: the synthesis "EDA tool"
//! estimate (library sums + static activity — blind to clock-tree and
//! optimization effects), a PowPrediCT-adapted GNN, and NetTAG circuit
//! embeddings (sum of register-cone `[CLS]` embeddings) with a GBDT head.

use crate::gnn::{structural_features, GnnConfig, GnnGraph, GnnGraphModel};
use crate::metrics::{regression_metrics, Regression};
use nettag_core::{NetTag, RegressorHead};
use nettag_netlist::{synthesis_phys_estimates, Library};
use nettag_physical::{run_flow, FlowConfig};
use nettag_synth::Design;

/// The four regression targets of Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PpaTarget {
    /// Area without physical optimization.
    AreaNoOpt,
    /// Area with physical optimization.
    AreaOpt,
    /// Power without physical optimization.
    PowerNoOpt,
    /// Power with physical optimization.
    PowerOpt,
}

impl PpaTarget {
    /// All targets in Table V order.
    pub const ALL: [PpaTarget; 4] = [
        PpaTarget::AreaNoOpt,
        PpaTarget::AreaOpt,
        PpaTarget::PowerNoOpt,
        PpaTarget::PowerOpt,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PpaTarget::AreaNoOpt => "Area  w/o opt",
            PpaTarget::AreaOpt => "Area  w/ opt",
            PpaTarget::PowerNoOpt => "Power w/o opt",
            PpaTarget::PowerOpt => "Power w/ opt",
        }
    }
}

/// Per-design Task 4 data.
pub struct PpaSamples {
    /// NetTAG circuit embeddings.
    pub features: Vec<Vec<f32>>,
    /// Whole-netlist graphs for the GNN.
    pub graphs: Vec<GnnGraph>,
    /// Synthesis-tool estimates: (area, power) per design.
    pub tool_estimates: Vec<(f64, f64)>,
    /// Labels per design per target.
    pub labels: Vec<[f64; 4]>,
    /// Design names.
    pub names: Vec<String>,
}

/// Collects circuit-level samples and sign-off labels for all designs.
pub fn ppa_samples(model: &NetTag, designs: &[Design], lib: &Library) -> PpaSamples {
    let mut out = PpaSamples {
        features: Vec::new(),
        graphs: Vec::new(),
        tool_estimates: Vec::new(),
        labels: Vec::new(),
        names: Vec::new(),
    };
    for d in designs {
        out.features
            .push(model.embed_circuit(&d.netlist, lib, None).data.clone());
        out.graphs.push(GnnGraph {
            features: structural_features(&d.netlist, lib),
            edges: d
                .netlist
                .iter()
                .flat_map(|(id, g)| g.fanin.iter().map(move |f| (f.0, id.0)).collect::<Vec<_>>())
                .collect(),
            node_labels: vec![],
        });
        // Synthesis "EDA tool" estimate: library-sum area, static power.
        let est_area = nettag_physical::total_area(&d.netlist, lib);
        let est_power: f64 = synthesis_phys_estimates(&d.netlist, lib)
            .iter()
            .map(|p| p.power)
            .sum();
        out.tool_estimates.push((est_area, est_power));
        // Sign-off labels.
        let base = run_flow(&d.netlist, lib, &FlowConfig::default());
        let opt = run_flow(
            &d.netlist,
            lib,
            &FlowConfig {
                optimize: true,
                ..FlowConfig::default()
            },
        );
        out.labels
            .push([base.area, opt.area, base.power.total, opt.power.total]);
        out.names.push(d.netlist.name().to_string());
    }
    out
}

/// One Table V row (one target, three methods).
#[derive(Debug, Clone)]
pub struct Task4Row {
    /// Which target.
    pub target: PpaTarget,
    /// Synthesis-tool estimate quality.
    pub tool: Regression,
    /// PowPrediCT-adapted GNN.
    pub gnn: Regression,
    /// NetTAG.
    pub nettag: Regression,
}

/// Full Task 4 report.
#[derive(Debug, Clone)]
pub struct Task4Report {
    /// One row per target.
    pub rows: Vec<Task4Row>,
}

/// Runs Task 4 with a deterministic train/test split (2/3 train).
pub fn run_task4(samples: &PpaSamples, gnn: &GnnConfig) -> Task4Report {
    let n = samples.labels.len();
    assert!(n >= 6, "need at least 6 designs for a meaningful split");
    let test_idx: Vec<usize> = (0..n).filter(|i| i % 3 == 2).collect();
    let train_idx: Vec<usize> = (0..n).filter(|i| i % 3 != 2).collect();
    let mut rows = Vec::new();
    for (t, target) in PpaTarget::ALL.into_iter().enumerate() {
        let truth: Vec<f64> = test_idx.iter().map(|&i| samples.labels[i][t]).collect();
        // EDA tool: direct estimate, no training.
        let tool_pred: Vec<f64> = test_idx
            .iter()
            .map(|&i| match target {
                PpaTarget::AreaNoOpt | PpaTarget::AreaOpt => samples.tool_estimates[i].0,
                PpaTarget::PowerNoOpt | PpaTarget::PowerOpt => samples.tool_estimates[i].1,
            })
            .collect();
        let tool = regression_metrics(&tool_pred, &truth);
        // NetTAG head.
        let train_x: Vec<Vec<f32>> = train_idx
            .iter()
            .map(|&i| samples.features[i].clone())
            .collect();
        let train_y: Vec<f32> = train_idx
            .iter()
            .map(|&i| samples.labels[i][t] as f32)
            .collect();
        let head = RegressorHead::train(&train_x, &train_y);
        let test_x: Vec<Vec<f32>> = test_idx
            .iter()
            .map(|&i| samples.features[i].clone())
            .collect();
        let nettag_pred: Vec<f64> = head.predict(&test_x).into_iter().map(f64::from).collect();
        let nettag = regression_metrics(&nettag_pred, &truth);
        // GNN baseline.
        let train_graphs: Vec<GnnGraph> = train_idx
            .iter()
            .map(|&i| GnnGraph {
                features: samples.graphs[i].features.clone(),
                edges: samples.graphs[i].edges.clone(),
                node_labels: vec![],
            })
            .collect();
        let gnn_model = GnnGraphModel::train_regression(&train_graphs, &train_y, gnn);
        let test_graphs: Vec<GnnGraph> = test_idx
            .iter()
            .map(|&i| GnnGraph {
                features: samples.graphs[i].features.clone(),
                edges: samples.graphs[i].edges.clone(),
                node_labels: vec![],
            })
            .collect();
        let gnn_pred: Vec<f64> = gnn_model
            .predict_regression(&test_graphs)
            .into_iter()
            .map(f64::from)
            .collect();
        let gnn_m = regression_metrics(&gnn_pred, &truth);
        rows.push(Task4Row {
            target,
            tool,
            gnn: gnn_m,
            nettag,
        });
    }
    Task4Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_core::NetTagConfig;
    use nettag_synth::{generate_design, Family, GenerateConfig};

    #[test]
    fn ppa_labels_reflect_optimization() {
        let lib = Library::default();
        let model = NetTag::new(NetTagConfig::tiny());
        let gen = GenerateConfig {
            scale: 0.4,
            ..GenerateConfig::default()
        };
        let designs: Vec<Design> = (0..2)
            .map(|i| generate_design(Family::OpenCores, i, 3, &gen))
            .collect();
        let s = ppa_samples(&model, &designs, &lib);
        assert_eq!(s.labels.len(), 2);
        for l in &s.labels {
            assert!(l.iter().all(|v| *v > 0.0));
            // Optimization changes area (sizing/buffers).
            assert!((l[0] - l[1]).abs() > 1e-12);
        }
        // Tool power estimate is biased low (no clock tree / wire caps).
        for (i, (_, est_p)) in s.tool_estimates.iter().enumerate() {
            assert!(*est_p < s.labels[i][2], "tool underestimates power");
        }
    }
}
