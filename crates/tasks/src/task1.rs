//! Task 1: combinational gate function identification (paper Table III).
//!
//! Each gate of a multi-block combinational design is classified into its
//! source functional block (adder, multiplier, comparator, control,
//! logic, shift) — the GNN-RE problem. Evaluation is leave-one-design-out
//! over the 9-design suite, reporting per-design accuracy / precision /
//! recall / F1 exactly like the paper's table.

use crate::gnn::{structural_features, GnnConfig, GnnGraph, GnnNodeClassifier};
use crate::held_out;
use crate::metrics::{classification_metrics, mean_classification, Classification};
use nettag_core::{ClassifierHead, FinetuneConfig, NetTag};
use nettag_netlist::{Library, Tag};
use nettag_synth::{Design, ALL_BLOCK_LABELS};

/// One Table III row.
#[derive(Debug, Clone)]
pub struct Task1Row {
    /// Design name.
    pub design: String,
    /// GNN-RE baseline metrics.
    pub gnnre: Classification,
    /// NetTAG metrics.
    pub nettag: Classification,
}

/// Full Task 1 report.
#[derive(Debug, Clone)]
pub struct Task1Report {
    /// Per-design rows.
    pub rows: Vec<Task1Row>,
    /// Averages over designs.
    pub avg_gnnre: Classification,
    /// Averages over designs.
    pub avg_nettag: Classification,
}

/// Per-design labeled samples: `(features per labeled gate, labels)`.
pub struct DesignSamples {
    /// One feature vector per labeled gate.
    pub features: Vec<Vec<f32>>,
    /// Block-label indices aligned with `features`.
    pub labels: Vec<usize>,
}

/// Extracts NetTAG per-gate features for the labeled gates of a design:
/// the TAGFormer node embedding `N_i`, the input feature `(T_i, x_phys_i)`,
/// and a one-hop neighborhood mean of the inputs (deterministic context
/// smoothing — TAGFormer is pre-trained on register cones, so on large
/// flat combinational designs the raw text grain plus local context keeps
/// the semantic signal that a paper-scale 768-d encoder would carry).
pub fn nettag_gate_samples(model: &NetTag, design: &Design, lib: &Library) -> DesignSamples {
    let tag = Tag::from_netlist(&design.netlist, lib, &model.tag_options());
    let inputs = model.node_features(&tag);
    let adj = nettag_nn::SparseMatrix::normalized_adjacency(tag.len(), &tag.edges);
    let context = adj.matmul(&inputs);
    let context2 = adj.matmul(&context);
    let (nodes, _) = model.tagformer.encode(&inputs, &tag.edges);
    collect_labeled(design, |i| {
        let mut f = nodes.row_slice(i).to_vec();
        f.extend_from_slice(inputs.row_slice(i));
        f.extend_from_slice(context.row_slice(i));
        f.extend_from_slice(context2.row_slice(i));
        f
    })
}

fn collect_labeled(design: &Design, feature_of: impl Fn(usize) -> Vec<f32>) -> DesignSamples {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for (id, _) in design.netlist.iter() {
        if let Some(block) = design.labels[id.index()].block {
            features.push(feature_of(id.index()));
            labels.push(block.index());
        }
    }
    DesignSamples { features, labels }
}

/// Builds the structural GNN graph (GNN-RE view) of a design.
pub fn gnnre_graph(design: &Design, lib: &Library) -> GnnGraph {
    let features = structural_features(&design.netlist, lib);
    let edges: Vec<(u32, u32)> = design
        .netlist
        .iter()
        .flat_map(|(id, g)| g.fanin.iter().map(move |f| (f.0, id.0)).collect::<Vec<_>>())
        .collect();
    let node_labels: Vec<usize> = design
        .labels
        .iter()
        .map(|l| l.block.map(|b| b.index()).unwrap_or(usize::MAX))
        .collect();
    GnnGraph {
        features,
        edges,
        node_labels,
    }
}

/// Leave-one-design-out classification: for each design, a head trained
/// on every other design's samples scores the held-out one.
pub fn loo_classify(
    samples: &[DesignSamples],
    classes: usize,
    finetune: &FinetuneConfig,
) -> Vec<Classification> {
    (0..samples.len())
        .map(|test| {
            let train_x: Vec<Vec<f32>> = held_out(samples, test)
                .flat_map(|s| s.features.iter().cloned())
                .collect();
            let train_y: Vec<usize> = held_out(samples, test)
                .flat_map(|s| s.labels.iter().copied())
                .collect();
            let head = ClassifierHead::train(&train_x, &train_y, classes, finetune);
            let pred = head.predict(&samples[test].features);
            classification_metrics(&pred, &samples[test].labels, classes)
        })
        .collect()
}

/// NetTAG's Task 1 metrics per design, leave-one-design-out.
pub fn nettag_task1(
    model: &NetTag,
    designs: &[Design],
    lib: &Library,
    finetune: &FinetuneConfig,
) -> Vec<Classification> {
    let samples: Vec<DesignSamples> = designs
        .iter()
        .map(|d| nettag_gate_samples(model, d, lib))
        .collect();
    loo_classify(&samples, ALL_BLOCK_LABELS.len(), finetune)
}

/// Runs the full Task 1 comparison with leave-one-design-out evaluation.
pub fn run_task1(
    model: &NetTag,
    designs: &[Design],
    lib: &Library,
    finetune: &FinetuneConfig,
    gnn: &GnnConfig,
) -> Task1Report {
    let classes = ALL_BLOCK_LABELS.len();
    let nettag = nettag_task1(model, designs, lib, finetune);
    let gnn_graphs: Vec<GnnGraph> = designs.iter().map(|d| gnnre_graph(d, lib)).collect();
    let mut rows = Vec::new();
    for (test, nettag_m) in nettag.into_iter().enumerate() {
        // GNN-RE: supervised GNN on the other designs' graphs.
        let train_graphs: Vec<GnnGraph> = held_out(&gnn_graphs, test)
            .map(|g| GnnGraph {
                features: g.features.clone(),
                edges: g.edges.clone(),
                node_labels: g.node_labels.clone(),
            })
            .collect();
        let gnn_model = GnnNodeClassifier::train(&train_graphs, classes, gnn);
        let node_pred = gnn_model.predict(&gnn_graphs[test]);
        let (gp, gt): (Vec<usize>, Vec<usize>) = gnn_graphs[test]
            .node_labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l != usize::MAX)
            .map(|(i, &l)| (node_pred[i], l))
            .unzip();
        let gnn_m = classification_metrics(&gp, &gt, classes);
        rows.push(Task1Row {
            design: designs[test].netlist.name().to_string(),
            gnnre: gnn_m,
            nettag: nettag_m,
        });
    }
    let avg = |f: fn(&Task1Row) -> Classification| {
        mean_classification(&rows.iter().map(f).collect::<Vec<_>>())
    };
    Task1Report {
        avg_gnnre: avg(|r| r.gnnre),
        avg_nettag: avg(|r| r.nettag),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_core::NetTagConfig;
    use nettag_synth::generate_gnnre_design;

    #[test]
    fn task1_pipeline_produces_rows() {
        let lib = Library::default();
        let designs: Vec<Design> = (0..3).map(|i| generate_gnnre_design(i, 9, 3)).collect();
        let model = NetTag::new(NetTagConfig::tiny());
        let ft = FinetuneConfig {
            epochs: 30,
            ..FinetuneConfig::default()
        };
        let gnn = GnnConfig {
            epochs: 10,
            ..GnnConfig::default()
        };
        let report = run_task1(&model, &designs, &lib, &ft, &gnn);
        assert_eq!(report.rows.len(), 3);
        for r in &report.rows {
            assert!(r.nettag.accuracy >= 0.0 && r.nettag.accuracy <= 1.0);
            assert!(r.gnnre.accuracy >= 0.0 && r.gnnre.accuracy <= 1.0);
        }
        assert!(report.avg_nettag.f1 >= 0.0);
    }

    #[test]
    fn samples_only_cover_labeled_gates() {
        let lib = Library::default();
        let d = generate_gnnre_design(0, 9, 3);
        let model = NetTag::new(NetTagConfig::tiny());
        let s = nettag_gate_samples(&model, &d, &lib);
        let labeled = d.labels.iter().filter(|l| l.block.is_some()).count();
        assert_eq!(s.features.len(), labeled);
        assert_eq!(s.features.len(), s.labels.len());
    }
}
