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
use nettag_nn::GbdtConfig;
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

/// Per-design Task 4 data that does not depend on the model: computed
/// once per suite and scored against any number of models' features
/// ([`ppa_features`]).
pub struct PpaSamples {
    /// Whole-netlist graphs for the GNN.
    pub graphs: Vec<GnnGraph>,
    /// Synthesis-tool estimates: (area, power) per design.
    pub tool_estimates: Vec<(f64, f64)>,
    /// Labels per design per target.
    pub labels: Vec<[f64; 4]>,
    /// Design names.
    pub names: Vec<String>,
}

/// NetTAG circuit embeddings, one per design: the per-model half of Task 4.
pub fn ppa_features(model: &NetTag, designs: &[Design], lib: &Library) -> Vec<Vec<f32>> {
    designs
        .iter()
        .map(|d| model.embed_circuit(&d.netlist, lib, None).data)
        .collect()
}

/// Collects the GNN graphs, tool estimates and sign-off labels (two
/// physical flows per design) for all designs.
pub fn ppa_samples(designs: &[Design], lib: &Library) -> PpaSamples {
    let mut out = PpaSamples {
        graphs: Vec::new(),
        tool_estimates: Vec::new(),
        labels: Vec::new(),
        names: Vec::new(),
    };
    for d in designs {
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

/// The deterministic Task 4 split: every third design is held out.
///
/// # Panics
///
/// Panics when fewer designs train than the GBDT head's
/// `min_samples_split`: its root could not split, so it would score a
/// constant predictor.
fn split(n: usize) -> (Vec<usize>, Vec<usize>) {
    let train: Vec<usize> = (0..n).filter(|i| i % 3 != 2).collect();
    let min = GbdtConfig::default().min_samples_split;
    assert!(
        train.len() >= min,
        "Task 4 trains on {} designs; its GBDT head needs at least {min} \
         (min_samples_split) or it predicts a constant",
        train.len()
    );
    (train, (0..n).filter(|i| i % 3 == 2).collect())
}

fn truth(samples: &PpaSamples, idx: &[usize], t: usize) -> Vec<f64> {
    idx.iter().map(|&i| samples.labels[i][t]).collect()
}

fn graphs(samples: &PpaSamples, idx: &[usize]) -> Vec<GnnGraph> {
    idx.iter()
        .map(|&i| GnnGraph {
            features: samples.graphs[i].features.clone(),
            edges: samples.graphs[i].edges.clone(),
            node_labels: vec![],
        })
        .collect()
}

/// NetTAG's Task 4 metrics from one model's [`ppa_features`], one per
/// target in [`PpaTarget::ALL`] order.
///
/// # Panics
///
/// Panics when the split trains on fewer designs than the GBDT head can
/// split (see [`run_task4`]), or when `features` has no row per design.
pub fn nettag_task4(samples: &PpaSamples, features: &[Vec<f32>]) -> Vec<Regression> {
    assert_eq!(
        features.len(),
        samples.labels.len(),
        "one feature row per design"
    );
    let (train_idx, test_idx) = split(samples.labels.len());
    let features =
        |idx: &[usize]| -> Vec<Vec<f32>> { idx.iter().map(|&i| features[i].clone()).collect() };
    (0..PpaTarget::ALL.len())
        .map(|t| {
            let train_y: Vec<f32> = truth(samples, &train_idx, t)
                .into_iter()
                .map(|v| v as f32)
                .collect();
            let head = RegressorHead::train(&features(&train_idx), &train_y);
            let pred: Vec<f64> = head
                .predict(&features(&test_idx))
                .into_iter()
                .map(f64::from)
                .collect();
            regression_metrics(&pred, &truth(samples, &test_idx, t))
        })
        .collect()
}

/// Runs Task 4 with a deterministic train/test split (2/3 train).
///
/// # Panics
///
/// Panics when fewer designs train than `GbdtConfig::default()`'s
/// `min_samples_split` (8, so at least 12 designs): the NetTAG head
/// would predict a constant.
pub fn run_task4(samples: &PpaSamples, features: &[Vec<f32>], gnn: &GnnConfig) -> Task4Report {
    let (train_idx, test_idx) = split(samples.labels.len());
    let nettag = nettag_task4(samples, features);
    let mut rows = Vec::new();
    for (t, (target, nettag)) in PpaTarget::ALL.into_iter().zip(nettag).enumerate() {
        let truth = truth(samples, &test_idx, t);
        // EDA tool: direct estimate, no training.
        let tool_pred: Vec<f64> = test_idx
            .iter()
            .map(|&i| match target {
                PpaTarget::AreaNoOpt | PpaTarget::AreaOpt => samples.tool_estimates[i].0,
                PpaTarget::PowerNoOpt | PpaTarget::PowerOpt => samples.tool_estimates[i].1,
            })
            .collect();
        let tool = regression_metrics(&tool_pred, &truth);
        // GNN baseline.
        let train_y: Vec<f32> = train_idx
            .iter()
            .map(|&i| samples.labels[i][t] as f32)
            .collect();
        let gnn_model =
            GnnGraphModel::train_regression(&graphs(samples, &train_idx), &train_y, gnn);
        let gnn_pred: Vec<f64> = gnn_model
            .predict_regression(&graphs(samples, &test_idx))
            .into_iter()
            .map(f64::from)
            .collect();
        rows.push(Task4Row {
            target,
            tool,
            gnn: regression_metrics(&gnn_pred, &truth),
            nettag,
        });
    }
    Task4Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_synth::{generate_design, Family, GenerateConfig};

    #[test]
    fn ppa_labels_reflect_optimization() {
        let lib = Library::default();
        let gen = GenerateConfig {
            scale: 0.4,
            ..GenerateConfig::default()
        };
        let designs: Vec<Design> = (0..2)
            .map(|i| generate_design(Family::OpenCores, i, 3, &gen))
            .collect();
        let s = ppa_samples(&designs, &lib);
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

    #[test]
    #[should_panic(expected = "needs at least 8")]
    fn task4_rejects_a_split_its_head_cannot_split() {
        // Eight designs train six rows: below `min_samples_split`.
        let features: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32]).collect();
        let samples = PpaSamples {
            graphs: (0..8)
                .map(|_| GnnGraph {
                    features: nettag_nn::Tensor::zeros(1, 1),
                    edges: vec![],
                    node_labels: vec![],
                })
                .collect(),
            tool_estimates: vec![(1.0, 1.0); 8],
            labels: (0..8).map(|i| [1.0 + i as f64; 4]).collect(),
            names: (0..8).map(|i| format!("d{i}")).collect(),
        };
        run_task4(&samples, &features, &GnnConfig::default());
    }
}
