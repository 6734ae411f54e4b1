//! Task 2: sequential state/data register identification (Table IV left).
//!
//! ReIGNN's problem: distinguish FSM/control *state* registers from
//! datapath registers. NetTAG classifies register-cone embeddings; the
//! ReIGNN baseline is a supervised GNN over the same cone graphs with
//! structural features. Metrics: sensitivity (state-register TPR) and
//! balanced accuracy, evaluated leave-one-design-out.

use crate::gnn::{structural_features, GnnConfig, GnnGraph, GnnGraphModel};
use crate::metrics::{sensitivity_metrics, BinarySensitivity};
use crate::{held_out, register_cones};
use nettag_core::{ClassifierHead, FinetuneConfig, NetTag};
use nettag_netlist::{cone_to_netlist, Library, Netlist, Tag};
use nettag_synth::Design;

/// Register cone samples of one design.
pub struct RegisterSamples {
    /// NetTAG cone embeddings.
    pub features: Vec<Vec<f32>>,
    /// Cone graphs for the GNN baseline.
    pub graphs: Vec<GnnGraph>,
    /// `true` = state register.
    pub labels: Vec<bool>,
    /// Register names (reporting).
    pub names: Vec<String>,
}

/// Extracts per-register samples from a design.
pub fn register_samples(model: &NetTag, design: &Design, lib: &Library) -> RegisterSamples {
    let mut tags = Vec::new();
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    let mut names = Vec::new();
    for cone in register_cones(&design.netlist) {
        let reg = cone.root;
        let Some(is_state) = design.label(reg).is_state_reg else {
            continue;
        };
        let sub = cone_to_netlist(&design.netlist, &cone);
        if sub.gate_count() < 2 {
            continue;
        }
        tags.push(Tag::from_netlist(&sub, lib, &model.tag_options()));
        graphs.push(cone_graph(&sub, lib));
        labels.push(is_state);
        names.push(design.netlist.gate(reg).name.to_string());
    }
    RegisterSamples {
        features: model
            .embed_tags(&tags.iter().collect::<Vec<_>>())
            .iter()
            .map(|e| e.pooled())
            .collect(),
        graphs,
        labels,
        names,
    }
}

/// Builds the GNN view of a cone netlist.
pub fn cone_graph(sub: &Netlist, lib: &Library) -> GnnGraph {
    GnnGraph {
        features: structural_features(sub, lib),
        edges: sub
            .iter()
            .flat_map(|(id, g)| g.fanin.iter().map(move |f| (f.0, id.0)).collect::<Vec<_>>())
            .collect(),
        node_labels: vec![],
    }
}

/// One Table IV (left) row.
#[derive(Debug, Clone)]
pub struct Task2Row {
    /// Design name.
    pub design: String,
    /// ReIGNN baseline.
    pub reignn: BinarySensitivity,
    /// NetTAG.
    pub nettag: BinarySensitivity,
}

/// Full Task 2 report.
#[derive(Debug, Clone)]
pub struct Task2Report {
    /// Per-design rows.
    pub rows: Vec<Task2Row>,
    /// Averages.
    pub avg_reignn: BinarySensitivity,
    /// Averages.
    pub avg_nettag: BinarySensitivity,
}

/// NetTAG's Task 2 metrics, leave-one-design-out, for each design that
/// has labeled registers (in design order).
pub fn nettag_task2(
    samples: &[RegisterSamples],
    finetune: &FinetuneConfig,
) -> Vec<BinarySensitivity> {
    labeled(samples)
        .map(|test| {
            let train_x: Vec<Vec<f32>> = held_out(samples, test)
                .flat_map(|s| s.features.iter().cloned())
                .collect();
            let train_y: Vec<usize> = held_out(samples, test)
                .flat_map(|s| s.labels.iter().map(|&b| usize::from(b)))
                .collect();
            let head = ClassifierHead::train(&train_x, &train_y, 2, finetune);
            let pred: Vec<bool> = head
                .predict(&samples[test].features)
                .into_iter()
                .map(|c| c == 1)
                .collect();
            sensitivity_metrics(&pred, &samples[test].labels)
        })
        .collect()
}

/// Indices of the designs with at least one labeled register.
fn labeled(samples: &[RegisterSamples]) -> impl Iterator<Item = usize> + '_ {
    (0..samples.len()).filter(|&i| !samples[i].labels.is_empty())
}

/// Runs Task 2 leave-one-design-out.
pub fn run_task2(
    model: &NetTag,
    designs: &[(String, Design)],
    lib: &Library,
    finetune: &FinetuneConfig,
    gnn: &GnnConfig,
) -> Task2Report {
    let samples: Vec<RegisterSamples> = designs
        .iter()
        .map(|(_, d)| register_samples(model, d, lib))
        .collect();
    let nettag = nettag_task2(&samples, finetune);
    let mut rows = Vec::new();
    for (test, nettag_m) in labeled(&samples).zip(nettag) {
        // ReIGNN baseline: graph-level GNN classifier over cones.
        let mut train_graphs = Vec::new();
        let mut train_graph_labels = Vec::new();
        for s in held_out(&samples, test) {
            for (g, &l) in s.graphs.iter().zip(s.labels.iter()) {
                train_graphs.push(GnnGraph {
                    features: g.features.clone(),
                    edges: g.edges.clone(),
                    node_labels: vec![],
                });
                train_graph_labels.push(usize::from(l));
            }
        }
        let gnn_model =
            GnnGraphModel::train_classification(&train_graphs, &train_graph_labels, 2, gnn);
        let gpred: Vec<bool> = gnn_model
            .predict_classification(&samples[test].graphs)
            .into_iter()
            .map(|c| c == 1)
            .collect();
        let gnn_m = sensitivity_metrics(&gpred, &samples[test].labels);
        rows.push(Task2Row {
            design: designs[test].0.clone(),
            reignn: gnn_m,
            nettag: nettag_m,
        });
    }
    let n = rows.len().max(1) as f64;
    let fold = |f: &dyn Fn(&Task2Row) -> BinarySensitivity| BinarySensitivity {
        sensitivity: rows.iter().map(|r| f(r).sensitivity).sum::<f64>() / n,
        balanced_accuracy: rows.iter().map(|r| f(r).balanced_accuracy).sum::<f64>() / n,
    };
    Task2Report {
        avg_reignn: fold(&|r| r.reignn),
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
    fn register_samples_have_both_classes_somewhere() {
        let lib = Library::default();
        let model = NetTag::new(NetTagConfig::tiny());
        let d = generate_design(Family::VexRiscv, 0, 3, &GenerateConfig::default());
        let s = register_samples(&model, &d, &lib);
        assert!(!s.labels.is_empty());
        assert_eq!(s.features.len(), s.labels.len());
        assert_eq!(s.graphs.len(), s.labels.len());
    }

    #[test]
    fn task2_runs_on_two_designs() {
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
            ("b".to_string(), generate_design(Family::Itc99, 0, 3, &gen)),
        ];
        let ft = FinetuneConfig {
            epochs: 20,
            ..FinetuneConfig::default()
        };
        let gnn = GnnConfig {
            epochs: 5,
            ..GnnConfig::default()
        };
        let report = run_task2(&model, &designs, &lib, &ft, &gnn);
        assert!(!report.rows.is_empty());
        for r in &report.rows {
            assert!(r.nettag.balanced_accuracy >= 0.0 && r.nettag.balanced_accuracy <= 1.0);
        }
    }
}
