//! TAGFormer — the graph transformer that fuses gate semantics with the
//! global netlist structure (paper Sec. II-C, eq. 2).
//!
//! Following SGFormer (Wu et al., NeurIPS 2023), each layer combines one
//! simple *global attention* pass with a GCN-style propagation over the
//! normalized adjacency. The global pass is SGFormer's single
//! softmax-free head ([`Graph::linear_attention`]): with `N` nodes (the
//! gates plus a virtual `[CLS]` node connected to everything),
//! `Q̃ = Q/‖Q‖_F`, `K̃ = K/‖K‖_F` and
//! `out_i = (N·V_i + Q̃_i(K̃ᵀV)) / (N + Q̃_i·(K̃ᵀ1))`. Every node still
//! reads every other node, at O(N·d²) rather than softmax's O(N²·d).
//! Input node features are the concatenation of frozen ExprLLM text
//! embeddings with the 8-dim physical characteristics vector `x_phys` —
//! exactly `n_i = (T_i, x_phys_i)` from eq. (2).

use crate::config::NetTagConfig;
use nettag_nn::{Graph, Layer, LayerNorm, Linear, Mlp, NodeId, Param, SparseMatrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One TAGFormer layer: linear global attention + graph propagation,
/// pre-norm.
#[derive(Debug, Clone)]
pub struct TagFormerLayer {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    prop: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ffn: Mlp,
}

impl TagFormerLayer {
    fn new(dim: usize, rng: &mut StdRng) -> TagFormerLayer {
        TagFormerLayer {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            prop: Linear::new(dim, dim, rng),
            ln1: LayerNorm::new(dim),
            ln2: LayerNorm::new(dim),
            ffn: Mlp::new(&[dim, dim * 2, dim], rng),
        }
    }

    fn forward(&self, g: &mut Graph, x: NodeId, adj: &Arc<SparseMatrix>) -> NodeId {
        let h = self.ln1.forward(g, x);
        let q = self.wq.forward(g, h);
        let k = self.wk.forward(g, h);
        let v = self.wv.forward(g, h);
        let a = g.linear_attention(q, k, v);
        let p0 = g.spmm(adj.clone(), h);
        let p = self.prop.forward(g, p0);
        let sum = g.add(a, p);
        let x1 = g.add(x, sum);
        let h2 = self.ln2.forward(g, x1);
        let f = self.ffn.forward(g, h2);
        g.add(x1, f)
    }
}

/// The graph transformer over text-attributed netlist graphs.
#[derive(Debug, Clone)]
pub struct TagFormer {
    /// Projects `(T_i, x_phys_i)` into the graph width.
    pub input_proj: Linear,
    /// Learned `[CLS]` seed vector.
    pub cls_seed: Param,
    /// Learned `[MASK]` node feature (objective #2.1 masking).
    pub mask_seed: Param,
    /// Transformer layers.
    pub layers: Vec<TagFormerLayer>,
    /// Output norm.
    pub ln: LayerNorm,
    /// Projection into the shared embedding space.
    pub proj: Linear,
    input_dim: usize,
}

/// TAGFormer outputs: per-gate embeddings and the graph-level `[CLS]`.
pub struct TagFormerOutput {
    /// n×embed_dim node embeddings (N_1..N_m).
    pub nodes: NodeId,
    /// 1×embed_dim graph embedding (N_cls).
    pub cls: NodeId,
}

impl TagFormer {
    /// Builds TAGFormer. `input_dim` is the text-embedding width plus the
    /// physical feature width (8).
    pub fn new(input_dim: usize, config: &NetTagConfig) -> TagFormer {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7A6F);
        TagFormer {
            input_proj: Linear::new(input_dim, config.graph_dim, &mut rng),
            cls_seed: Param::xavier(1, config.graph_dim, &mut rng),
            mask_seed: Param::xavier(1, input_dim, &mut rng),
            layers: (0..config.graph_layers)
                .map(|_| TagFormerLayer::new(config.graph_dim, &mut rng))
                .collect(),
            ln: LayerNorm::new(config.graph_dim),
            proj: Linear::new(config.graph_dim, config.embed_dim, &mut rng),
            input_dim,
        }
    }

    /// Expected input feature width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Builds the CLS-augmented normalized adjacency for an n-node graph:
    /// original edges plus bidirectional edges from every node to the CLS
    /// node at index n.
    pub fn cls_adjacency(n: usize, edges: &[(u32, u32)]) -> SparseMatrix {
        let cls = n as u32;
        let mut all: Vec<(u32, u32)> = edges.to_vec();
        for i in 0..n as u32 {
            all.push((i, cls));
        }
        SparseMatrix::normalized_adjacency(n + 1, &all)
    }

    /// Differentiable forward over node features (n×input_dim, as a graph
    /// node) and the raw directed edge list. `masked` marks node indices
    /// whose features are replaced by the learned `[MASK]` vector.
    pub fn forward(
        &self,
        g: &mut Graph,
        features: NodeId,
        edges: &[(u32, u32)],
        masked: &[usize],
    ) -> TagFormerOutput {
        let n = g.value(features).rows;
        let feats = if masked.is_empty() {
            features
        } else {
            // Zero the masked rows and put the mask seed there instead:
            // `features ⊙ keep + (0 + mask_seed) ⊙ inv`, `inv = 1 − keep`.
            let cols = g.value(features).cols;
            let mut keep = Tensor::from_vec(n, cols, vec![1.0; n * cols]);
            let mut inv = Tensor::zeros(n, cols);
            for &m in masked {
                keep.data[m * cols..(m + 1) * cols].fill(0.0);
                inv.data[m * cols..(m + 1) * cols].fill(1.0);
            }
            let keep = g.constant(keep);
            let kept = g.mul(features, keep);
            let mask_row = self.mask_seed.bind(g);
            let inv = g.constant(inv);
            let zeros = g.constant(Tensor::zeros(n, cols));
            let mask_mat = g.add_row(zeros, mask_row);
            let mask_part = g.mul(mask_mat, inv);
            g.add(kept, mask_part)
        };
        let projected = self.input_proj.forward(g, feats);
        let cls = self.cls_seed.bind(g);
        let x = g.concat_rows(&[projected, cls]);
        let adj = Arc::new(Self::cls_adjacency(n, edges));
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(g, h, &adj);
        }
        let h = self.ln.forward(g, h);
        let out = self.proj.forward(g, h);
        let cls_out = g.select_row(out, n);
        // Node embeddings: rows 0..n.
        let ids: Vec<u32> = (0..n as u32).collect();
        let nodes = g.gather_rows(out, Arc::new(ids));
        TagFormerOutput {
            nodes,
            cls: cls_out,
        }
    }

    /// Inference-only encoding: returns (node embeddings, graph
    /// embedding) from [`Self::forward`] on a [`Graph::no_grad`] graph —
    /// the tape pass's bits with no backward state kept.
    pub fn encode(&self, features: &Tensor, edges: &[(u32, u32)]) -> (Tensor, Tensor) {
        let mut g = Graph::no_grad();
        let f = g.constant(features.clone());
        let out = self.forward(&mut g, f, edges, &[]);
        (g.take_value(out.nodes), g.take_value(out.cls))
    }
}

impl Layer for TagFormer {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.input_proj.params_mut();
        p.push(&mut self.cls_seed);
        p.push(&mut self.mask_seed);
        for l in &mut self.layers {
            p.extend(l.wq.params_mut());
            p.extend(l.wk.params_mut());
            p.extend(l.wv.params_mut());
            p.extend(l.prop.params_mut());
            p.extend(l.ln1.params_mut());
            p.extend(l.ln2.params_mut());
            p.extend(l.ffn.params_mut());
        }
        p.extend(self.ln.params_mut());
        p.extend(self.proj.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn setup() -> (TagFormer, NetTagConfig) {
        let config = NetTagConfig::tiny();
        let tf = TagFormer::new(config.embed_dim + 8, &config);
        (tf, config)
    }

    fn line_graph(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32 - 1).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn encode_shapes() {
        let (tf, config) = setup();
        let features = Tensor::zeros(5, config.embed_dim + 8);
        let (nodes, cls) = tf.encode(&features, &line_graph(5));
        assert_eq!((nodes.rows, nodes.cols), (5, config.embed_dim));
        assert_eq!((cls.rows, cls.cols), (1, config.embed_dim));
    }

    #[test]
    fn structure_changes_change_embeddings() {
        let (tf, config) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let features = Tensor::xavier(6, config.embed_dim + 8, &mut rng);
        let (_, cls_line) = tf.encode(&features, &line_graph(6));
        let star: Vec<(u32, u32)> = (1..6u32).map(|i| (0, i)).collect();
        let (_, cls_star) = tf.encode(&features, &star);
        let diff: f32 = cls_line
            .data
            .iter()
            .zip(cls_star.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "graph structure must influence the embedding");
    }

    #[test]
    fn masking_changes_masked_node_embedding() {
        let (tf, config) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let features = Tensor::xavier(4, config.embed_dim + 8, &mut rng);
        let edges = line_graph(4);
        let mut g1 = Graph::new();
        let f1 = g1.constant(features.clone());
        let out1 = tf.forward(&mut g1, f1, &edges, &[]);
        let mut g2 = Graph::new();
        let f2 = g2.constant(features);
        let out2 = tf.forward(&mut g2, f2, &edges, &[1]);
        let n1 = g1.value(out1.nodes);
        let n2 = g2.value(out2.nodes);
        let diff: f32 = n1
            .row_slice(1)
            .iter()
            .zip(n2.row_slice(1).iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-5);
    }

    #[test]
    fn encode_matches_tape_forward_bitwise() {
        let (tf, config) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let features = Tensor::xavier(6, config.embed_dim + 8, &mut rng);
        let edges = line_graph(6);
        let mut g = Graph::new();
        let f = g.constant(features.clone());
        let out = tf.forward(&mut g, f, &edges, &[]);
        let (nodes, cls) = tf.encode(&features, &edges);
        assert_eq!(g.value(out.nodes).data, nodes.data);
        assert_eq!(g.value(out.cls).data, cls.data);
    }

    /// With zero `wq`/`wk` projections both Frobenius norms are 0: the
    /// guarded global pass returns `V`, and outputs and every gradient
    /// stay finite.
    #[test]
    fn zero_query_key_projections_stay_finite() {
        let (mut tf, config) = setup();
        for l in &mut tf.layers {
            for p in l.wq.params_mut().into_iter().chain(l.wk.params_mut()) {
                p.value = Tensor::zeros(p.value.rows, p.value.cols);
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let features = Tensor::xavier(5, config.embed_dim + 8, &mut rng);
        let mut g = Graph::new();
        let f = g.constant(features);
        let out = tf.forward(&mut g, f, &line_graph(5), &[2]);
        assert!(g.value(out.nodes).data.iter().all(|v| v.is_finite()));
        let loss = g.mse(out.cls, Tensor::zeros(1, config.embed_dim));
        let grads = g.backward(loss);
        let pg = g.param_grads(&grads);
        assert!(pg.iter().all(|(_, t)| t.data.iter().all(|v| v.is_finite())));
        assert!(pg.iter().any(|(_, t)| t.norm() > 0.0));
    }

    /// Relabelling a cone's nodes permutes its node embeddings and leaves
    /// `[CLS]` unchanged (up to float summation order).
    #[test]
    fn relabelling_nodes_permutes_embeddings_and_keeps_cls() {
        use rand::seq::SliceRandom;
        let (tf, config) = setup();
        let n = 12;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let features = Tensor::xavier(n, config.embed_dim + 8, &mut rng);
            let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (rng.gen_range(0..i), i)).collect();
            // Node i is relabelled perm[i].
            let mut perm: Vec<usize> = (0..n).collect();
            perm.shuffle(&mut rng);
            let mut moved = Tensor::zeros(n, features.cols);
            for (i, &p) in perm.iter().enumerate() {
                moved.data[p * features.cols..(p + 1) * features.cols]
                    .copy_from_slice(features.row_slice(i));
            }
            let moved_edges: Vec<(u32, u32)> = edges
                .iter()
                .map(|&(a, b)| (perm[a as usize] as u32, perm[b as usize] as u32))
                .collect();
            let (nodes, cls) = tf.encode(&features, &edges);
            let (moved_nodes, moved_cls) = tf.encode(&moved, &moved_edges);
            let close = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-5);
            assert!(
                close(&cls.data, &moved_cls.data),
                "seed {seed}: [CLS] moved"
            );
            for (i, &p) in perm.iter().enumerate() {
                assert!(
                    close(nodes.row_slice(i), moved_nodes.row_slice(p)),
                    "seed {seed}: node {i} is not row {p} after relabelling"
                );
            }
        }
    }

    #[test]
    fn cls_adjacency_connects_everything() {
        let adj = TagFormer::cls_adjacency(3, &[(0, 1)]);
        assert_eq!(adj.n, 4);
        // CLS row (index 3) reaches all nodes.
        assert!(adj.row_len(3) >= 3);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let (mut tf, config) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let features = Tensor::xavier(4, config.embed_dim + 8, &mut rng);
        let mut g = Graph::new();
        let f = g.constant(features);
        let out = tf.forward(&mut g, f, &line_graph(4), &[0]);
        let loss = g.mse(out.cls, Tensor::zeros(1, config.embed_dim));
        let grads = g.backward(loss);
        let pg = g.param_grads(&grads);
        // At least the projection and CLS seed receive gradient.
        let keys: std::collections::HashSet<usize> = pg.iter().map(|(k, _)| *k).collect();
        assert!(keys.contains(&tf.cls_seed.key));
        let nonzero = pg.iter().filter(|(_, g)| g.norm() > 0.0).count();
        assert!(nonzero > 4, "gradient should reach many parameters");
        assert!(tf.param_count() > 500);
    }
}
