//! The task-specific GNN baseline family.
//!
//! One message-passing encoder, configured per task, stands in for the
//! supervised baselines the paper compares against: GNN-RE (Task 1),
//! ReIGNN (Task 2), the netlist-adapted timing GNN of \[2\] (Task 3), and
//! the PowPrediCT-adapted GNN (Task 4). As in those works, node features
//! are *structural* (cell-type one-hot, degrees, depth) plus per-cell
//! library characteristics — no symbolic expressions and no text, which
//! is exactly the representational gap NetTAG closes.

use nettag_netlist::{Library, Netlist, ALL_CELL_KINDS};
use nettag_nn::{
    data_parallel, weighted_sum, Adam, GradStore, Graph, Layer, Linear, Mlp, NodeId, Param,
    SampleTape, SparseMatrix, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Structural node-feature width: one-hot kind + fan-in/out degree +
/// depth fraction + area + input cap + intrinsic delay.
pub const STRUCT_FEATS: usize = ALL_CELL_KINDS.len() + 6;

/// Structural per-gate features for baseline GNNs.
pub fn structural_features(netlist: &Netlist, lib: &Library) -> Tensor {
    let levels = nettag_netlist::levels(netlist);
    let max_level = levels.iter().copied().max().unwrap_or(1).max(1) as f32;
    let mut t = Tensor::zeros(netlist.gate_count(), STRUCT_FEATS);
    for (id, g) in netlist.iter() {
        let r = id.index();
        let base = r * STRUCT_FEATS;
        t.data[base + g.kind.index()] = 1.0;
        let p = lib.params(g.kind);
        let o = ALL_CELL_KINDS.len();
        t.data[base + o] = (g.fanin.len() as f32).ln_1p();
        t.data[base + o + 1] = (netlist.fanout(id).len() as f32).ln_1p();
        t.data[base + o + 2] = levels[r] as f32 / max_level;
        t.data[base + o + 3] = p.area as f32;
        t.data[base + o + 4] = p.input_cap as f32;
        t.data[base + o + 5] = p.intrinsic_delay as f32 * 10.0;
    }
    t
}

/// GNN hyperparameters.
#[derive(Debug, Clone)]
pub struct GnnConfig {
    /// Hidden width.
    pub dim: usize,
    /// Message-passing rounds.
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            dim: 32,
            layers: 3,
            epochs: 60,
            lr: 5e-3,
            seed: 0x6A1,
        }
    }
}

/// A GCN-style message-passing encoder.
#[derive(Debug, Clone)]
pub struct GnnEncoder {
    input: Linear,
    convs: Vec<Linear>,
    /// Hidden width.
    pub dim: usize,
}

impl GnnEncoder {
    /// Builds the encoder for a feature width.
    pub fn new(input_dim: usize, config: &GnnConfig) -> GnnEncoder {
        let mut rng = StdRng::seed_from_u64(config.seed);
        GnnEncoder {
            input: Linear::new(input_dim, config.dim, &mut rng),
            convs: (0..config.layers)
                .map(|_| Linear::new(config.dim, config.dim, &mut rng))
                .collect(),
            dim: config.dim,
        }
    }

    /// Differentiable forward: returns (node embeddings, mean-pooled graph
    /// embedding).
    pub fn forward(
        &self,
        g: &mut Graph,
        features: NodeId,
        adj: &Arc<SparseMatrix>,
    ) -> (NodeId, NodeId) {
        let mut x = self.input.forward(g, features);
        x = g.relu(x);
        for conv in &self.convs {
            let p = g.spmm(adj.clone(), x);
            let h = conv.forward(g, p);
            let h = g.relu(h);
            x = g.add(x, h); // residual keeps gradients healthy
        }
        let pooled = g.mean_rows(x);
        (x, pooled)
    }
}

impl Layer for GnnEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.input.params_mut();
        for c in &mut self.convs {
            p.extend(c.params_mut());
        }
        p
    }
}

/// A supervised node-classification GNN (GNN-RE / ReIGNN shape).
pub struct GnnNodeClassifier {
    encoder: GnnEncoder,
    head: Mlp,
}

/// One training/evaluation graph for baseline GNNs.
pub struct GnnGraph {
    /// Node features (n×f).
    pub features: Tensor,
    /// Directed edges.
    pub edges: Vec<(u32, u32)>,
    /// Optional supervised node labels (class index per node; `usize::MAX`
    /// marks unlabeled nodes that are skipped by the loss).
    pub node_labels: Vec<usize>,
}

impl GnnGraph {
    fn adj(&self) -> Arc<SparseMatrix> {
        Arc::new(SparseMatrix::normalized_adjacency(
            self.features.rows,
            &self.edges,
        ))
    }
}

/// Epoch-invariant per-graph training state: graph index, labeled node
/// ids, their class targets, and the normalized adjacency.
type PreparedGraph = (usize, Arc<Vec<u32>>, Arc<Vec<usize>>, Arc<SparseMatrix>);

impl GnnNodeClassifier {
    /// Trains on labeled graphs.
    pub fn train(graphs: &[GnnGraph], classes: usize, config: &GnnConfig) -> GnnNodeClassifier {
        let input_dim = graphs[0].features.cols;
        let mut encoder = GnnEncoder::new(input_dim, config);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC1A);
        let mut head = Mlp::new(&[config.dim, config.dim, classes], &mut rng);
        let mut opt = Adam::new(config.lr);
        let mut store = GradStore::new();
        // Labeled-node index sets and adjacencies are epoch-invariant.
        let prepared: Vec<PreparedGraph> = graphs
            .iter()
            .enumerate()
            .filter_map(|(gi, gr)| {
                let labeled: Vec<u32> = gr
                    .node_labels
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| l != usize::MAX)
                    .map(|(i, _)| i as u32)
                    .collect();
                if labeled.is_empty() {
                    return None;
                }
                let targets: Vec<usize> = labeled
                    .iter()
                    .map(|&i| gr.node_labels[i as usize])
                    .collect();
                Some((gi, Arc::new(labeled), Arc::new(targets), gr.adj()))
            })
            .collect();
        if !prepared.is_empty() {
            for _ in 0..config.epochs {
                // One data-parallel step per epoch: each labeled graph is
                // a sample (its own tape); the combine averages the
                // per-graph cross-entropies.
                let enc_ref = &encoder;
                let head_ref = &head;
                data_parallel::step(
                    prepared.len(),
                    |i| {
                        let (gi, labeled, targets, adj) = &prepared[i];
                        let gr = &graphs[*gi];
                        let mut g = Graph::new();
                        let f = g.constant(gr.features.clone());
                        let (nodes, _) = enc_ref.forward(&mut g, f, adj);
                        let picked = g.gather_rows(nodes, labeled.clone());
                        let logits = head_ref.forward(&mut g, picked);
                        let loss = g.cross_entropy(logits, targets.clone());
                        SampleTape {
                            graph: g,
                            outputs: vec![loss],
                        }
                    },
                    |g, leaves| {
                        let w = 1.0 / leaves.len() as f32;
                        let weighted: Vec<(NodeId, f32)> =
                            leaves.iter().map(|l| (l[0], w)).collect();
                        weighted_sum(g, &weighted)
                    },
                    &mut store,
                );
                let mut params = encoder.params_mut();
                params.extend(head.params_mut());
                opt.step(&mut params, &store);
            }
        }
        GnnNodeClassifier { encoder, head }
    }

    /// Predicts a class per node.
    pub fn predict(&self, graph: &GnnGraph) -> Vec<usize> {
        let mut g = Graph::no_grad();
        let f = g.constant(graph.features.clone());
        let (nodes, _) = self.encoder.forward(&mut g, f, &graph.adj());
        let logits = self.head.forward(&mut g, nodes);
        let lv = g.value(logits);
        (0..lv.rows)
            .map(|r| {
                lv.row_slice(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// A supervised graph-level GNN regressor/classifier (timing GNN /
/// PowPrediCT / ReIGNN-cone shape): encodes whole graphs to pooled
/// embeddings with a task head.
pub struct GnnGraphModel {
    encoder: GnnEncoder,
    head: Mlp,
    /// Output width (1 = regression, k = classification logits).
    pub outputs: usize,
    mean: f32,
    std: f32,
}

impl GnnGraphModel {
    /// Trains a graph-level regressor (`targets` one value per graph).
    pub fn train_regression(
        graphs: &[GnnGraph],
        targets: &[f32],
        config: &GnnConfig,
    ) -> GnnGraphModel {
        let mean = targets.iter().sum::<f32>() / targets.len().max(1) as f32;
        let var = targets.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>()
            / targets.len().max(1) as f32;
        let std = var.sqrt().max(1e-6);
        let input_dim = graphs[0].features.cols;
        let mut encoder = GnnEncoder::new(input_dim, config);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9E6);
        let mut head = Mlp::new(&[config.dim, config.dim, 1], &mut rng);
        let mut opt = Adam::new(config.lr);
        let mut store = GradStore::new();
        let adjs: Vec<Arc<SparseMatrix>> = graphs.iter().map(|gr| gr.adj()).collect();
        let y = Tensor::from_vec(
            targets.len(),
            1,
            targets.iter().map(|t| (t - mean) / std).collect(),
        );
        for _ in 0..config.epochs {
            // Per-graph encoder tapes in parallel; the shared head runs
            // on the central tape over the stacked pooled embeddings.
            let enc_ref = &encoder;
            let head_ref = &head;
            data_parallel::step(
                graphs.len(),
                |i| {
                    let mut g = Graph::new();
                    let f = g.constant(graphs[i].features.clone());
                    let (_, pooled) = enc_ref.forward(&mut g, f, &adjs[i]);
                    SampleTape {
                        graph: g,
                        outputs: vec![pooled],
                    }
                },
                |g, leaves| {
                    let rows: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
                    let batch = g.stack_rows(&rows);
                    let pred = head_ref.forward(g, batch);
                    g.mse(pred, y.clone())
                },
                &mut store,
            );
            let mut params = encoder.params_mut();
            params.extend(head.params_mut());
            opt.step(&mut params, &store);
        }
        GnnGraphModel {
            encoder,
            head,
            outputs: 1,
            mean,
            std,
        }
    }

    /// Trains a graph-level classifier (`labels` one class per graph).
    pub fn train_classification(
        graphs: &[GnnGraph],
        labels: &[usize],
        classes: usize,
        config: &GnnConfig,
    ) -> GnnGraphModel {
        let input_dim = graphs[0].features.cols;
        let mut encoder = GnnEncoder::new(input_dim, config);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9E7);
        let mut head = Mlp::new(&[config.dim, config.dim, classes], &mut rng);
        let mut opt = Adam::new(config.lr);
        let mut store = GradStore::new();
        let targets = Arc::new(labels.to_vec());
        let adjs: Vec<Arc<SparseMatrix>> = graphs.iter().map(|gr| gr.adj()).collect();
        for _ in 0..config.epochs {
            let enc_ref = &encoder;
            let head_ref = &head;
            data_parallel::step(
                graphs.len(),
                |i| {
                    let mut g = Graph::new();
                    let f = g.constant(graphs[i].features.clone());
                    let (_, pooled) = enc_ref.forward(&mut g, f, &adjs[i]);
                    SampleTape {
                        graph: g,
                        outputs: vec![pooled],
                    }
                },
                |g, leaves| {
                    let rows: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
                    let batch = g.stack_rows(&rows);
                    let logits = head_ref.forward(g, batch);
                    g.cross_entropy(logits, targets.clone())
                },
                &mut store,
            );
            let mut params = encoder.params_mut();
            params.extend(head.params_mut());
            opt.step(&mut params, &store);
        }
        GnnGraphModel {
            encoder,
            head,
            outputs: classes,
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Predicts regression values (denormalized) for graphs.
    pub fn predict_regression(&self, graphs: &[GnnGraph]) -> Vec<f32> {
        graphs
            .iter()
            .map(|gr| {
                let mut g = Graph::no_grad();
                let f = g.constant(gr.features.clone());
                let (_, pooled) = self.encoder.forward(&mut g, f, &gr.adj());
                let pred = self.head.forward(&mut g, pooled);
                g.value(pred).item() * self.std + self.mean
            })
            .collect()
    }

    /// Predicts class indices for graphs.
    pub fn predict_classification(&self, graphs: &[GnnGraph]) -> Vec<usize> {
        graphs
            .iter()
            .map(|gr| {
                let mut g = Graph::no_grad();
                let f = g.constant(gr.features.clone());
                let (_, pooled) = self.encoder.forward(&mut g, f, &gr.adj());
                let logits = self.head.forward(&mut g, pooled);
                g.value(logits)
                    .data
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::CellKind;

    fn toy_graph(label_flip: bool) -> GnnGraph {
        // Two "communities": class by structural position.
        let mut n = Netlist::new("g");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let x1 = n.add_gate("x1", CellKind::Inv, vec![a]);
        let x2 = n.add_gate("x2", CellKind::And2, vec![a, x1]);
        n.add_gate("y", CellKind::Output, vec![x2]);
        let n = n.validate().expect("valid");
        let lib = Library::default();
        let features = structural_features(&n, &lib);
        let edges: Vec<(u32, u32)> = n
            .iter()
            .flat_map(|(id, g)| g.fanin.iter().map(move |f| (f.0, id.0)).collect::<Vec<_>>())
            .collect();
        let mut node_labels = vec![usize::MAX; n.gate_count()];
        node_labels[x1.index()] = usize::from(label_flip);
        node_labels[x2.index()] = usize::from(!label_flip);
        GnnGraph {
            features,
            edges,
            node_labels,
        }
    }

    #[test]
    fn structural_features_have_expected_width() {
        let g = toy_graph(false);
        assert_eq!(g.features.cols, STRUCT_FEATS);
    }

    #[test]
    fn node_classifier_learns_kind_separable_labels() {
        let graphs = vec![toy_graph(false)];
        let cfg = GnnConfig {
            epochs: 80,
            ..GnnConfig::default()
        };
        let model = GnnNodeClassifier::train(&graphs, 2, &cfg);
        let pred = model.predict(&graphs[0]);
        // INV node labeled 0, AND node labeled 1 — trivially separable by
        // the one-hot kind feature.
        let g = &graphs[0];
        for (i, &l) in g.node_labels.iter().enumerate() {
            if l != usize::MAX {
                assert_eq!(pred[i], l, "node {i}");
            }
        }
    }

    #[test]
    fn graph_regressor_fits_node_count() {
        // Graphs of different sizes; target = size. Mean-pooled GCN can
        // separate via degree/depth features.
        let mut graphs = Vec::new();
        let mut targets = Vec::new();
        for k in 2..6u32 {
            let mut n = Netlist::new("g");
            let a = n.add_gate("a", CellKind::Input, vec![]);
            let mut prev = a;
            for i in 0..k {
                prev = n.add_gate(format!("x{i}"), CellKind::Inv, vec![prev]);
            }
            n.add_gate("y", CellKind::Output, vec![prev]);
            let n = n.validate().expect("valid");
            let lib = Library::default();
            graphs.push(GnnGraph {
                features: structural_features(&n, &lib),
                edges: n
                    .iter()
                    .flat_map(|(id, g)| {
                        g.fanin.iter().map(move |f| (f.0, id.0)).collect::<Vec<_>>()
                    })
                    .collect(),
                node_labels: vec![],
            });
            targets.push(k as f32);
        }
        let cfg = GnnConfig {
            epochs: 120,
            ..GnnConfig::default()
        };
        let model = GnnGraphModel::train_regression(&graphs, &targets, &cfg);
        let preds = model.predict_regression(&graphs);
        let mae: f32 = preds
            .iter()
            .zip(targets.iter())
            .map(|(p, t)| (p - t).abs())
            .sum::<f32>()
            / targets.len() as f32;
        assert!(mae < 1.0, "mae {mae}: {preds:?} vs {targets:?}");
    }
}
