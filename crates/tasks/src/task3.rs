//! Task 3: endpoint register slack prediction (Table IV right).
//!
//! Sign-off slack labels come from the *optimized* physical flow (the
//! paper stresses that physical-design optimization changes graph
//! topology, which is what makes netlist-stage prediction hard); models
//! see only the synthesis-stage netlist. NetTAG regresses from cone
//! embeddings; the baseline is the netlist-adapted timing GNN of \[2\].

use crate::gnn::{GnnConfig, GnnGraph, GnnGraphModel};
use crate::metrics::{regression_metrics, Regression};
use crate::task2::cone_graph;
use crate::{held_out, register_cones};
use nettag_core::{NetTag, RegressorHead};
use nettag_netlist::{cone_to_netlist, Library, Tag};
use nettag_physical::{run_flow, FlowConfig};
use nettag_synth::Design;

/// Per-register slack samples of one design.
pub struct SlackSamples {
    /// NetTAG cone embeddings.
    pub features: Vec<Vec<f32>>,
    /// Cone graphs for the GNN baseline.
    pub graphs: Vec<GnnGraph>,
    /// Sign-off endpoint slack (ns) per register.
    pub targets: Vec<f32>,
}

/// Extracts slack-labeled register cones (labels from the optimized flow).
pub fn slack_samples(
    model: &NetTag,
    design: &Design,
    lib: &Library,
    flow: &FlowConfig,
) -> SlackSamples {
    let mut optimized = flow.clone();
    optimized.optimize = true;
    let outcome = run_flow(&design.netlist, lib, &optimized);
    let mut tags = Vec::new();
    let mut graphs = Vec::new();
    let mut targets = Vec::new();
    for cone in register_cones(&design.netlist) {
        let name = &design.netlist.gate(cone.root).name;
        let Some(slack) = outcome.register_slack(name) else {
            continue;
        };
        let sub = cone_to_netlist(&design.netlist, &cone);
        if sub.gate_count() < 2 {
            continue;
        }
        tags.push(Tag::from_netlist(&sub, lib, &model.tag_options()));
        graphs.push(cone_graph(&sub, lib));
        targets.push(slack as f32);
    }
    SlackSamples {
        features: model
            .embed_tags(&tags.iter().collect::<Vec<_>>())
            .iter()
            .map(|e| e.pooled())
            .collect(),
        graphs,
        targets,
    }
}

/// One Table IV (right) row.
#[derive(Debug, Clone)]
pub struct Task3Row {
    /// Design name.
    pub design: String,
    /// Timing-GNN baseline.
    pub gnn: Regression,
    /// NetTAG.
    pub nettag: Regression,
}

/// Full Task 3 report.
#[derive(Debug, Clone)]
pub struct Task3Report {
    /// Per-design rows.
    pub rows: Vec<Task3Row>,
    /// Averages.
    pub avg_gnn: Regression,
    /// Averages.
    pub avg_nettag: Regression,
}

/// NetTAG's Task 3 metrics, leave-one-design-out, for each design with at
/// least three slack-labeled registers (in design order).
pub fn nettag_task3(samples: &[SlackSamples]) -> Vec<Regression> {
    scored(samples)
        .map(|test| {
            let train_x: Vec<Vec<f32>> = held_out(samples, test)
                .flat_map(|s| s.features.iter().cloned())
                .collect();
            let train_y: Vec<f32> = held_out(samples, test)
                .flat_map(|s| s.targets.iter().copied())
                .collect();
            let head = RegressorHead::train(&train_x, &train_y);
            let pred: Vec<f64> = head
                .predict(&samples[test].features)
                .into_iter()
                .map(f64::from)
                .collect();
            regression_metrics(&pred, &truth(&samples[test]))
        })
        .collect()
}

/// Indices of the designs with enough labeled registers to score.
fn scored(samples: &[SlackSamples]) -> impl Iterator<Item = usize> + '_ {
    (0..samples.len()).filter(|&i| samples[i].targets.len() >= 3)
}

fn truth(s: &SlackSamples) -> Vec<f64> {
    s.targets.iter().map(|&t| f64::from(t)).collect()
}

/// Runs Task 3 leave-one-design-out.
pub fn run_task3(
    model: &NetTag,
    designs: &[(String, Design)],
    lib: &Library,
    gnn: &GnnConfig,
    flow: &FlowConfig,
) -> Task3Report {
    let samples: Vec<SlackSamples> = designs
        .iter()
        .map(|(_, d)| slack_samples(model, d, lib, flow))
        .collect();
    let nettag = nettag_task3(&samples);
    let mut rows = Vec::new();
    for (test, nettag_m) in scored(&samples).zip(nettag) {
        let mut train_graphs = Vec::new();
        let mut train_targets = Vec::new();
        for s in held_out(&samples, test) {
            for (g, &t) in s.graphs.iter().zip(s.targets.iter()) {
                train_graphs.push(GnnGraph {
                    features: g.features.clone(),
                    edges: g.edges.clone(),
                    node_labels: vec![],
                });
                train_targets.push(t);
            }
        }
        let gnn_model = GnnGraphModel::train_regression(&train_graphs, &train_targets, gnn);
        let gpred: Vec<f64> = gnn_model
            .predict_regression(&samples[test].graphs)
            .into_iter()
            .map(f64::from)
            .collect();
        let gnn_m = regression_metrics(&gpred, &truth(&samples[test]));
        rows.push(Task3Row {
            design: designs[test].0.clone(),
            gnn: gnn_m,
            nettag: nettag_m,
        });
    }
    let n = rows.len().max(1) as f64;
    let fold = |f: &dyn Fn(&Task3Row) -> Regression| Regression {
        r: rows.iter().map(|r| f(r).r).sum::<f64>() / n,
        mape: rows.iter().map(|r| f(r).mape).sum::<f64>() / n,
    };
    Task3Report {
        avg_gnn: fold(&|r| r.gnn),
        avg_nettag: fold(&|r| r.nettag),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_core::NetTagConfig;
    use nettag_synth::{generate_design, Family, GenerateConfig};

    #[test]
    fn slack_samples_are_labeled() {
        let lib = Library::default();
        let model = NetTag::new(NetTagConfig::tiny());
        let d = generate_design(Family::VexRiscv, 0, 3, &GenerateConfig::default());
        let s = slack_samples(&model, &d, &lib, &FlowConfig::default());
        assert!(!s.targets.is_empty());
        assert!(s.targets.iter().all(|t| t.is_finite()));
        assert_eq!(s.features.len(), s.targets.len());
    }

    #[test]
    fn task3_runs_on_two_designs() {
        let lib = Library::default();
        let model = NetTag::new(NetTagConfig::tiny());
        let gen = GenerateConfig {
            scale: 0.5,
            ..GenerateConfig::default()
        };
        let designs = vec![
            (
                "a".to_string(),
                generate_design(Family::VexRiscv, 0, 3, &gen),
            ),
            (
                "b".to_string(),
                generate_design(Family::Chipyard, 0, 3, &gen),
            ),
        ];
        let gnn = GnnConfig {
            epochs: 5,
            ..GnnConfig::default()
        };
        let report = run_task3(&model, &designs, &lib, &gnn, &FlowConfig::default());
        assert!(!report.rows.is_empty());
        for r in &report.rows {
            assert!(r.nettag.mape.is_finite());
            assert!(r.gnn.mape.is_finite());
        }
    }
}
