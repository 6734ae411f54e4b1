//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every forward operation as a node with enough saved
//! state to replay its adjoint; [`Graph::backward`] walks the tape in
//! reverse, accumulating gradients. Parameters are leaves tagged with a
//! key so optimizers can collect their gradients after the pass.
//!
//! ## No-grad mode
//!
//! [`Graph::no_grad`] builds a graph that runs the same forward kernels
//! but records no backward state: ops push values and no tape records,
//! parameter operands (`&Param`) are read in place instead of
//! being copied onto the tape, LayerNorm keeps no `xhat`/`1/std`, and an
//! attention head (softmax or linear) keeps only its output, not its
//! scores (m×n for m query rows; ExprLLM's last block asks for one row,
//! so its scores are 1×n in both modes). Inference
//! entry points (the encoders' `encode`) are thin wrappers that run the
//! training `forward` on such a graph, so served outputs are bitwise
//! equal to the tape's by construction. `backward*` on a no-grad graph
//! panics.
//!
//! ## Backward-pass memory discipline
//!
//! The backward pass allocates no per-op adjoint temporaries: every op
//! accumulates directly into its inputs' gradient buffers (dense products
//! via the `*_into` accumulate kernels in [`crate::tensor`], elementwise
//! ops via fused loops). Adjoint buffers themselves are allocated lazily
//! — only nodes actually reachable from the loss get one — and the rare
//! op that needs true scratch (the fused linear+ReLU, for its masked
//! upstream gradient; linear attention, for its N×d intermediate
//! adjoints) borrows buffers from a small [`Workspace`] pool that
//! recycles across ops and across repeated `backward` calls on the same
//! graph.

use crate::grad::GradStore;
use crate::layers::Param;
use crate::tensor::{parallel_worthwhile, run_row_blocks, SparseMatrix, Tensor};
use std::sync::{Arc, Mutex};

/// Index of a node in the tape.
pub type NodeId = usize;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// Serial cost of one layer-norm element in matmul multiply-adds, for the
/// shared [`parallel_worthwhile`] gate, which therefore opens at 64k
/// elements — where the row-parallel branch first beat the inline one
/// on a 2-core x86-64 host (a 20×16 norm costs ~0.6 µs inline, ~3 µs
/// through the pool).
const LN_FLOPS_PER_ELEM: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    MatMulBt(NodeId, NodeId),
    SpMm(Arc<SparseMatrix>, NodeId),
    /// Fused `x @ w + b` (+ ReLU when `relu`), one tape node instead of
    /// three; the kernel reuses B panels across the row block.
    Linear {
        x: NodeId,
        w: NodeId,
        b: NodeId,
        relu: bool,
    },
    Add(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    Relu(NodeId),
    Gelu(NodeId),
    ConcatCols(Vec<NodeId>),
    GatherRows(NodeId, Arc<Vec<u32>>),
    LayerNorm {
        x: NodeId,
        gain: NodeId,
        bias: NodeId,
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    MeanRows(NodeId),
    SelectRow(NodeId, usize),
    StackRows(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    NormalizeRows {
        x: NodeId,
        norms: Vec<f32>,
    },
    SoftmaxRows(NodeId),
    LinearAttention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        saved: Box<LinearAttentionSaved>,
    },
    CrossEntropy {
        logits: NodeId,
        probs: Tensor,
        targets: Arc<Vec<usize>>,
    },
    Mse {
        pred: NodeId,
        target: Tensor,
    },
}

/// The forward state [`Graph::linear_attention`]'s backward replays.
#[derive(Debug, Clone)]
struct LinearAttentionSaved {
    /// `q̃ = q/‖q‖_F` (zero when `‖q‖_F` is 0).
    q_unit: Tensor,
    /// `k̃ = k/‖k‖_F` (zero when `‖k‖_F` is 0).
    k_unit: Tensor,
    q_norm: f32,
    k_norm: f32,
    /// `k̃ᵀv`, d×d.
    kv: Tensor,
    /// `k̃ᵀ1`, the column sums of `k̃`.
    k_sum: Vec<f32>,
    /// Per-row denominators `N + q̃_i·(k̃ᵀ1)`.
    den: Vec<f32>,
}

/// A node's tape record: how it was computed, and its parameter key.
struct Node {
    op: Op,
    param_key: Option<usize>,
}

/// A recycling pool of flat f32 buffers for backward-pass scratch.
#[derive(Default)]
struct Workspace {
    free: Vec<Vec<f32>>,
}

impl Workspace {
    /// Borrows a buffer of exactly `len` zeroed-or-overwritten slots (the
    /// caller must fully overwrite it before reading).
    fn take(&mut self, len: usize) -> Vec<f32> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(len);
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    fn give(&mut self, buf: Vec<f32>) {
        if self.free.len() < 8 {
            self.free.push(buf);
        }
    }
}

/// The autograd tape.
#[derive(Default)]
pub struct Graph {
    /// Every node's value, indexed by [`NodeId`].
    values: Vec<Tensor>,
    /// Every node's tape record, in the same order; empty when `no_grad`.
    nodes: Vec<Node>,
    scratch: Mutex<Workspace>,
    /// Set by [`Graph::no_grad`]: ops keep values only.
    no_grad: bool,
}

/// Lazily materializes the adjoint buffer for a node.
fn ensure(slot: &mut Option<Tensor>, rows: usize, cols: usize) -> &mut Tensor {
    slot.get_or_insert_with(|| Tensor::zeros(rows, cols))
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Creates a graph that records no backward state (see the module
    /// docs): the same forward bits as [`Graph::new`], for inference.
    pub fn no_grad() -> Graph {
        Graph {
            // Room for a tiny-config ExprLLM pass (25 values) without
            // regrowing: the per-sequence serving path is that short.
            values: Vec::with_capacity(32),
            no_grad: true,
            ..Graph::default()
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        if !self.no_grad {
            self.nodes.push(Node {
                op,
                param_key: None,
            });
        }
        self.values.push(value);
        self.values.len() - 1
    }

    /// Inserts a constant leaf (no parameter gradient collected).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf)
    }

    /// Inserts a parameter leaf tagged with `key`.
    pub fn param(&mut self, key: usize, t: Tensor) -> NodeId {
        let id = self.push(t, Op::Leaf);
        if let Some(node) = self.nodes.get_mut(id) {
            node.param_key = Some(key);
        }
        id
    }

    /// The value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.values[id]
    }

    /// Moves a node's value out of the graph, leaving an empty 0×0
    /// tensor behind: how inference wrappers return their outputs
    /// without a copy. Later ops reading the node see it empty.
    pub fn take_value(&mut self, id: NodeId) -> Tensor {
        std::mem::replace(&mut self.values[id], Tensor::zeros(0, 0))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a].matmul(&self.values[b]);
        self.push(v, Op::MatMul(a, b))
    }

    /// `a @ b^T` — similarity matrices for contrastive losses.
    pub fn matmul_bt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a].matmul_bt(&self.values[b]);
        self.push(v, Op::MatMulBt(a, b))
    }

    /// Sparse adjacency propagation `adj @ x`.
    pub fn spmm(&mut self, adj: Arc<SparseMatrix>, x: NodeId) -> NodeId {
        let v = adj.matmul(&self.values[x]);
        self.push(v, Op::SpMm(adj, x))
    }

    /// Fused affine map `x @ w + b` (`b` is 1×n, broadcast over rows):
    /// one tape node, one kernel pass. The parameters are bound onto the
    /// tape (no-grad mode reads them in place).
    pub fn linear(&mut self, x: NodeId, w: &Param, b: &Param) -> NodeId {
        self.linear_op(x, w, b, false)
    }

    /// Fused `relu(x @ w + b)`; the activation is applied in the same
    /// output buffer the product landed in.
    pub fn linear_relu(&mut self, x: NodeId, w: &Param, b: &Param) -> NodeId {
        self.linear_op(x, w, b, true)
    }

    fn linear_op(&mut self, x: NodeId, w: &Param, b: &Param, relu: bool) -> NodeId {
        let mut v = self.values[x].matmul_bias(&w.value, &b.value);
        if relu {
            for o in v.data.iter_mut() {
                *o = o.max(0.0);
            }
        }
        if self.no_grad {
            return self.push(v, Op::Leaf);
        }
        let (w, b) = (w.bind(self), b.bind(self));
        self.push(v, Op::Linear { x, w, b, relu })
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.values[a].clone();
        v.add_assign(&self.values[b]);
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast row add: `(n×c) + (1×c)`.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let (av, rv) = (&self.values[a], &self.values[row]);
        assert_eq!(rv.rows, 1, "add_row rhs must be 1×c");
        assert_eq!(av.cols, rv.cols, "add_row width");
        let mut v = av.clone();
        let kn = crate::simd::kernels();
        for out_row in v.data.chunks_exact_mut(rv.cols) {
            (kn.add_assign)(out_row, &rv.data);
        }
        self.push(v, Op::AddRow(a, row))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.values[a].zip(&self.values[b], |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar scale.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.values[a].map(|x| x * c);
        self.push(v, Op::Scale(a, c))
    }

    /// ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a].map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// GELU (tanh approximation).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let v = self.values[a].map(gelu);
        self.push(v, Op::Gelu(a))
    }

    /// Concatenates tensors with equal row counts along columns.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = self.values[parts[0]].rows;
        let total: usize = parts.iter().map(|&p| self.values[p].cols).sum();
        let mut v = Tensor::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let t = &self.values[p];
            assert_eq!(t.rows, rows, "concat rows");
            for r in 0..rows {
                let dst = &mut v.data[r * total + off..r * total + off + t.cols];
                dst.copy_from_slice(t.row_slice(r));
            }
            off += t.cols;
        }
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Selects `ids` rows of `table`.
    pub fn gather_rows(&mut self, table: NodeId, ids: Arc<Vec<u32>>) -> NodeId {
        let v = gather(&self.values[table], &ids);
        self.push(v, Op::GatherRows(table, ids))
    }

    /// Embedding lookup: selects `ids` rows of a parameter table, bound
    /// onto the tape (no-grad mode reads the table in place).
    pub fn gather_param_rows(&mut self, table: &Param, ids: &[u32]) -> NodeId {
        if self.no_grad {
            let v = gather(&table.value, ids);
            return self.push(v, Op::Leaf);
        }
        let t = table.bind(self);
        self.gather_rows(t, Arc::new(ids.to_vec()))
    }

    /// Row-wise layer normalization with learned 1×c gain/bias, bound
    /// onto the tape (no-grad mode reads them in place and keeps no
    /// saved statistics).
    pub fn layer_norm(&mut self, x: NodeId, gain: &Param, bias: &Param) -> NodeId {
        let xv = &self.values[x];
        if self.no_grad {
            let out = layer_norm_rows(xv, &gain.value, &bias.value, None);
            return self.push(out, Op::Leaf);
        }
        let mut xhat = Tensor::zeros(xv.rows, xv.cols);
        let mut inv_std = vec![0.0f32; xv.rows];
        let out = layer_norm_rows(
            xv,
            &gain.value,
            &bias.value,
            Some((&mut xhat.data, &mut inv_std)),
        );
        let (gain, bias) = (gain.bind(self), bias.bind(self));
        self.push(
            out,
            Op::LayerNorm {
                x,
                gain,
                bias,
                xhat,
                inv_std,
            },
        )
    }

    /// One attention head, `softmax(q kᵀ · scale) v`, with the kernels in
    /// that order. Tape mode records the four ops (`matmul_bt`, `scale`,
    /// `softmax_rows_op`, `matmul`); no-grad mode keeps only the head
    /// output, not the m×n score matrices (m rows of `q`, n of `k`).
    pub fn attention(&mut self, q: NodeId, k: NodeId, v: NodeId, scale: f32) -> NodeId {
        if !self.no_grad {
            let scores = self.matmul_bt(q, k);
            let scaled = self.scale(scores, scale);
            let attn = self.softmax_rows_op(scaled);
            return self.matmul(attn, v);
        }
        let mut scores = self.values[q].matmul_bt(&self.values[k]);
        for s in scores.data.iter_mut() {
            *s *= scale;
        }
        let out = scores.softmax_rows().matmul(&self.values[v]);
        self.push(out, Op::Leaf)
    }

    /// SGFormer's simple global attention (Wu et al., NeurIPS 2023): one
    /// softmax-free head over all N rows,
    /// `out_i = (N·v_i + q̃_i(k̃ᵀv)) / (N + q̃_i·(k̃ᵀ1))` with
    /// `q̃ = q/‖q‖_F` and `k̃ = k/‖k‖_F`. A zero norm makes its `q̃` or
    /// `k̃` zero, so the output is `v`. It costs O(N·d²): the widest
    /// intermediate is the d×d `k̃ᵀv`, and the backward builds no N×N
    /// matrix either. Both modes run the same forward kernels; no-grad
    /// mode keeps only the output.
    ///
    /// # Panics
    ///
    /// Panics unless `q` and `k` share a shape and `v` has their rows.
    pub fn linear_attention(&mut self, q: NodeId, k: NodeId, v: NodeId) -> NodeId {
        let (out, saved) =
            linear_attention_forward(&self.values[q], &self.values[k], &self.values[v]);
        if self.no_grad {
            return self.push(out, Op::Leaf);
        }
        let saved = Box::new(saved);
        self.push(out, Op::LinearAttention { q, k, v, saved })
    }

    /// Mean over rows: `(n×c) -> (1×c)`.
    pub fn mean_rows(&mut self, x: NodeId) -> NodeId {
        let xv = &self.values[x];
        let mut v = Tensor::zeros(1, xv.cols);
        for r in 0..xv.rows {
            for c in 0..xv.cols {
                v.data[c] += xv.at(r, c);
            }
        }
        let n = xv.rows.max(1) as f32;
        for c in v.data.iter_mut() {
            *c /= n;
        }
        self.push(v, Op::MeanRows(x))
    }

    /// Selects one row: `(n×c) -> (1×c)` (CLS pooling).
    pub fn select_row(&mut self, x: NodeId, r: usize) -> NodeId {
        let xv = &self.values[x];
        let v = Tensor::row(xv.row_slice(r).to_vec());
        self.push(v, Op::SelectRow(x, r))
    }

    /// Stacks 1×c rows into an n×c matrix.
    pub fn stack_rows(&mut self, rows: &[NodeId]) -> NodeId {
        assert!(!rows.is_empty(), "stack of nothing");
        let cols = self.values[rows[0]].cols;
        let mut v = Tensor::zeros(rows.len(), cols);
        for (r, &id) in rows.iter().enumerate() {
            let t = &self.values[id];
            assert_eq!(t.rows, 1, "stack_rows expects 1×c rows");
            assert_eq!(t.cols, cols, "stack_rows widths");
            v.data[r * cols..(r + 1) * cols].copy_from_slice(&t.data);
        }
        self.push(v, Op::StackRows(rows.to_vec()))
    }

    /// Concatenates matrices with equal column counts along rows
    /// (vertical stacking, e.g. appending a CLS node to node features).
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of nothing");
        let cols = self.values[parts[0]].cols;
        let total: usize = parts.iter().map(|&p| self.values[p].rows).sum();
        let mut v = Tensor::zeros(total, cols);
        let mut off = 0;
        for &p in parts {
            let t = &self.values[p];
            assert_eq!(t.cols, cols, "concat_rows widths");
            v.data[off * cols..(off + t.rows) * cols].copy_from_slice(&t.data);
            off += t.rows;
        }
        self.push(v, Op::ConcatRows(parts.to_vec()))
    }

    /// L2-normalizes each row (contrastive embeddings).
    pub fn normalize_rows(&mut self, x: NodeId) -> NodeId {
        let xv = &self.values[x];
        let mut norms = vec![0.0f32; xv.rows];
        let mut v = xv.clone();
        #[allow(clippy::needless_range_loop)]
        for r in 0..xv.rows {
            let n = xv
                .row_slice(r)
                .iter()
                .map(|a| a * a)
                .sum::<f32>()
                .sqrt()
                .max(1e-9);
            norms[r] = n;
            for c in 0..xv.cols {
                *v.at_mut(r, c) /= n;
            }
        }
        self.push(v, Op::NormalizeRows { x, norms })
    }

    /// Row-wise softmax (attention weights).
    pub fn softmax_rows_op(&mut self, x: NodeId) -> NodeId {
        let v = self.values[x].softmax_rows();
        self.push(v, Op::SoftmaxRows(x))
    }

    /// Mean cross-entropy of row-wise logits against integer targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the logits row count.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: Arc<Vec<usize>>) -> NodeId {
        let lv = &self.values[logits];
        assert_eq!(lv.rows, targets.len(), "one target per row");
        let probs = lv.softmax_rows();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.at(r, t).max(1e-12).ln();
        }
        loss /= targets.len().max(1) as f32;
        self.push(
            Tensor::scalar(loss),
            Op::CrossEntropy {
                logits,
                probs,
                targets,
            },
        )
    }

    /// Mean squared error against a constant target.
    pub fn mse(&mut self, pred: NodeId, target: Tensor) -> NodeId {
        let pv = &self.values[pred];
        assert_eq!((pv.rows, pv.cols), (target.rows, target.cols), "mse shapes");
        let n = pv.data.len().max(1) as f32;
        let loss = pv
            .data
            .iter()
            .zip(target.data.iter())
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum::<f32>()
            / n;
        self.push(Tensor::scalar(loss), Op::Mse { pred, target })
    }

    /// Core reverse sweep: adjoints are injected at `seeds` (accumulated
    /// if a node is seeded twice), then propagated down the tape. Returns
    /// the sparse adjoint table — `None` for nodes unreachable from any
    /// seed.
    pub(crate) fn backward_sparse(&self, seeds: &[(NodeId, &Tensor)]) -> Vec<Option<Tensor>> {
        assert!(
            !self.no_grad,
            "backward on a no-grad Graph: it records no tape; build it with Graph::new() to train"
        );
        let mut grads: Vec<Option<Tensor>> = self.nodes.iter().map(|_| None).collect();
        for &(id, seed) in seeds {
            let v = &self.values[id];
            assert_eq!(
                (v.rows, v.cols),
                (seed.rows, seed.cols),
                "seed shape must match the seeded node"
            );
            ensure(&mut grads[id], v.rows, v.cols).add_assign(seed);
        }
        for id in (0..self.nodes.len()).rev() {
            if grads[id].is_none() {
                continue;
            }
            // Inputs always precede their consumer on the tape, so the
            // split hands out `g_out` (at `id`) read-only while input
            // adjoints (all `< id`) stay writable.
            let (inputs, tail) = grads.split_at_mut(id);
            let g_out = tail[0].as_ref().expect("checked above");
            self.accumulate_op(id, g_out, inputs);
        }
        grads
    }

    /// Drains parameter adjoints out of a sparse adjoint table into a
    /// [`GradStore`], moving buffers (no clones). Walks the tape in node
    /// order, so store entry order is deterministic. Parameters
    /// unreachable from the seeds contribute nothing (the optimizer
    /// leaves them untouched).
    pub(crate) fn drain_params_into(&self, grads: &mut [Option<Tensor>], store: &mut GradStore) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(key) = node.param_key {
                if let Some(g) = grads[i].take() {
                    store.accumulate_owned(key, g);
                }
            }
        }
    }

    /// Runs the backward pass from a scalar loss node; returns per-node
    /// gradients (use [`Graph::param_grads`] to collect parameter grads).
    /// Nodes unreachable from the loss report zero gradients.
    ///
    /// # Panics
    ///
    /// Panics on a [`Graph::no_grad`] graph, as do
    /// [`Graph::backward_into`] and [`Graph::backward_seeded_into`].
    pub fn backward(&self, loss: NodeId) -> Vec<Tensor> {
        let one = Tensor::scalar(1.0);
        self.backward_sparse(&[(loss, &one)])
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                g.unwrap_or_else(|| {
                    let v = &self.values[i];
                    Tensor::zeros(v.rows, v.cols)
                })
            })
            .collect()
    }

    /// Backward pass from a scalar loss straight into a [`GradStore`]:
    /// parameter adjoints are moved into the store (accumulating with
    /// whatever it already holds) without the dense per-node gradient
    /// vector or any per-parameter clone.
    pub fn backward_into(&self, loss: NodeId, store: &mut GradStore) {
        let one = Tensor::scalar(1.0);
        let mut grads = self.backward_sparse(&[(loss, &one)]);
        self.drain_params_into(&mut grads, store);
    }

    /// Backward pass from externally supplied output adjoints — the
    /// data-parallel driver's per-sample phase, where each sample tape is
    /// seeded with the central combine tape's gradient for its outputs.
    /// Seeds for the same node accumulate. Parameter gradients land in
    /// `store` as in [`Graph::backward_into`].
    pub fn backward_seeded_into(&self, seeds: &[(NodeId, &Tensor)], store: &mut GradStore) {
        let mut grads = self.backward_sparse(seeds);
        self.drain_params_into(&mut grads, store);
    }

    /// Propagates one node's adjoint into its inputs, accumulating in
    /// place (no adjoint temporaries are allocated).
    fn accumulate_op(&self, id: NodeId, g_out: &Tensor, inputs: &mut [Option<Tensor>]) {
        let shape = |n: NodeId| {
            let v = &self.values[n];
            (v.rows, v.cols)
        };
        match &self.nodes[id].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (av, bv) = (&self.values[*a], &self.values[*b]);
                {
                    let (r, c) = shape(*a);
                    g_out.matmul_bt_into(bv, ensure(&mut inputs[*a], r, c), true);
                }
                {
                    let (r, c) = shape(*b);
                    av.matmul_at_into(g_out, ensure(&mut inputs[*b], r, c), true);
                }
            }
            Op::MatMulBt(a, b) => {
                let (av, bv) = (&self.values[*a], &self.values[*b]);
                {
                    let (r, c) = shape(*a);
                    g_out.matmul_into(bv, ensure(&mut inputs[*a], r, c), true);
                }
                {
                    let (r, c) = shape(*b);
                    g_out.matmul_at_into(av, ensure(&mut inputs[*b], r, c), true);
                }
            }
            Op::SpMm(adj, x) => {
                let (r, c) = shape(*x);
                adj.matmul_t_into(g_out, ensure(&mut inputs[*x], r, c), true);
            }
            Op::Linear { x, w, b, relu } => {
                let (xv, wv) = (&self.values[*x], &self.values[*w]);
                // Upstream gradient w.r.t. the pre-bias product; with the
                // fused ReLU the mask comes from the output's sign, using
                // a workspace buffer rather than a fresh tensor.
                let mut scratch = None;
                let gpre: &Tensor = if *relu {
                    let y = &self.values[id];
                    let mut buf = self
                        .scratch
                        .lock()
                        .expect("scratch pool poisoned")
                        .take(g_out.data.len());
                    buf.extend(g_out.data.iter().zip(y.data.iter()).map(|(&g, &yv)| {
                        if yv > 0.0 {
                            g
                        } else {
                            0.0
                        }
                    }));
                    scratch = Some(Tensor::from_vec(g_out.rows, g_out.cols, buf));
                    scratch.as_ref().expect("just set")
                } else {
                    g_out
                };
                {
                    let (r, c) = shape(*x);
                    gpre.matmul_bt_into(wv, ensure(&mut inputs[*x], r, c), true);
                }
                {
                    let (r, c) = shape(*w);
                    xv.matmul_at_into(gpre, ensure(&mut inputs[*w], r, c), true);
                }
                {
                    let (r, c) = shape(*b);
                    let gb = ensure(&mut inputs[*b], r, c);
                    let kn = crate::simd::kernels();
                    for row in gpre.data.chunks_exact(gpre.cols) {
                        (kn.add_assign)(&mut gb.data, row);
                    }
                }
                if let Some(t) = scratch {
                    self.recycle(t);
                }
            }
            Op::Add(a, b) => {
                for &n in [a, b] {
                    let (r, c) = shape(n);
                    ensure(&mut inputs[n], r, c).add_assign(g_out);
                }
            }
            Op::AddRow(a, row) => {
                {
                    let (r, c) = shape(*a);
                    ensure(&mut inputs[*a], r, c).add_assign(g_out);
                }
                let (r, c) = shape(*row);
                let gr = ensure(&mut inputs[*row], r, c);
                let kn = crate::simd::kernels();
                for grow in g_out.data.chunks_exact(g_out.cols) {
                    (kn.add_assign)(&mut gr.data, grow);
                }
            }
            Op::Mul(a, b) => {
                {
                    let bv = &self.values[*b];
                    let (r, c) = shape(*a);
                    let ga = ensure(&mut inputs[*a], r, c);
                    for ((o, &g), &y) in ga
                        .data
                        .iter_mut()
                        .zip(g_out.data.iter())
                        .zip(bv.data.iter())
                    {
                        *o += g * y;
                    }
                }
                {
                    let av = &self.values[*a];
                    let (r, c) = shape(*b);
                    let gb = ensure(&mut inputs[*b], r, c);
                    for ((o, &g), &x) in gb
                        .data
                        .iter_mut()
                        .zip(g_out.data.iter())
                        .zip(av.data.iter())
                    {
                        *o += g * x;
                    }
                }
            }
            Op::Scale(a, cst) => {
                let (r, c) = shape(*a);
                let ga = ensure(&mut inputs[*a], r, c);
                // g*cst == cst*g bitwise, so the shared axpy kernel applies.
                (crate::simd::kernels().axpy)(&mut ga.data, *cst, &g_out.data);
            }
            Op::Relu(a) => {
                let av = &self.values[*a];
                let (r, c) = shape(*a);
                let ga = ensure(&mut inputs[*a], r, c);
                for ((o, &g), &x) in ga
                    .data
                    .iter_mut()
                    .zip(g_out.data.iter())
                    .zip(av.data.iter())
                {
                    *o += if x > 0.0 { g } else { 0.0 };
                }
            }
            Op::Gelu(a) => {
                let av = &self.values[*a];
                let (r, c) = shape(*a);
                let ga = ensure(&mut inputs[*a], r, c);
                for ((o, &g), &x) in ga
                    .data
                    .iter_mut()
                    .zip(g_out.data.iter())
                    .zip(av.data.iter())
                {
                    *o += g * gelu_grad(x);
                }
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let (rows, cols) = shape(p);
                    let gp = ensure(&mut inputs[p], rows, cols);
                    for r in 0..g_out.rows {
                        let src = &g_out.data[r * g_out.cols + off..r * g_out.cols + off + cols];
                        for (o, &g) in gp.data[r * cols..(r + 1) * cols].iter_mut().zip(src.iter())
                        {
                            *o += g;
                        }
                    }
                    off += cols;
                }
            }
            Op::GatherRows(table, ids) => {
                let cols = g_out.cols;
                let (r, c) = shape(*table);
                let gt = ensure(&mut inputs[*table], r, c);
                for (row, &rid) in ids.iter().enumerate() {
                    let dst = &mut gt.data[rid as usize * cols..(rid as usize + 1) * cols];
                    let src = &g_out.data[row * cols..(row + 1) * cols];
                    for (o, &g) in dst.iter_mut().zip(src.iter()) {
                        *o += g;
                    }
                }
            }
            Op::LayerNorm {
                x,
                gain,
                bias,
                xhat,
                inv_std,
            } => {
                let gv = &self.values[*gain];
                let cols = g_out.cols as f32;
                {
                    let (r, c) = shape(*gain);
                    let dgain = ensure(&mut inputs[*gain], r, c);
                    for row in 0..g_out.rows {
                        for c in 0..g_out.cols {
                            dgain.data[c] += g_out.at(row, c) * xhat.at(row, c);
                        }
                    }
                }
                {
                    let (r, c) = shape(*bias);
                    let dbias = ensure(&mut inputs[*bias], r, c);
                    for row in g_out.data.chunks_exact(g_out.cols) {
                        for (o, &g) in dbias.data.iter_mut().zip(row.iter()) {
                            *o += g;
                        }
                    }
                }
                let (r, c) = shape(*x);
                let dx = ensure(&mut inputs[*x], r, c);
                // Like the forward pass, every row's adjoint only reads
                // that row's saved statistics — row-parallel, each row
                // reduced in ascending column order by one thread.
                let width = g_out.cols;
                let kn = crate::simd::kernels();
                let flops = LN_FLOPS_PER_ELEM * g_out.data.len();
                run_row_blocks(&mut dx.data, width, flops, |first_row, dx_rows| {
                    for (i, dx_row) in dx_rows.chunks_exact_mut(width).enumerate() {
                        let row = first_row + i;
                        let g_row = g_out.row_slice(row);
                        let xhat_row = xhat.row_slice(row);
                        let mut sum_gdy = 0.0f32;
                        let mut sum_gdy_xhat = 0.0f32;
                        for c in 0..width {
                            let gdy = g_row[c] * gv.data[c];
                            sum_gdy += gdy;
                            sum_gdy_xhat += gdy * xhat_row[c];
                        }
                        (kn.ln_bwd_row)(
                            dx_row,
                            g_row,
                            &gv.data,
                            xhat_row,
                            &crate::simd::LnBwdStats {
                                istd: inv_std[row],
                                sum_gdy,
                                sum_gdy_xhat,
                                cols,
                            },
                        );
                    }
                });
            }
            Op::MeanRows(x) => {
                let n = self.values[*x].rows.max(1) as f32;
                let (r, c) = shape(*x);
                let dx = ensure(&mut inputs[*x], r, c);
                for row in dx.data.chunks_exact_mut(g_out.cols) {
                    for (o, &g) in row.iter_mut().zip(g_out.data.iter()) {
                        *o += g / n;
                    }
                }
            }
            Op::SelectRow(x, sel) => {
                let (r, c) = shape(*x);
                let dx = ensure(&mut inputs[*x], r, c);
                let dst = &mut dx.data[sel * g_out.cols..(sel + 1) * g_out.cols];
                for (o, &g) in dst.iter_mut().zip(g_out.data.iter()) {
                    *o += g;
                }
            }
            Op::StackRows(rows) => {
                for (r, &rid) in rows.iter().enumerate() {
                    let (rr, rc) = shape(rid);
                    let dr = ensure(&mut inputs[rid], rr, rc);
                    let src = &g_out.data[r * g_out.cols..(r + 1) * g_out.cols];
                    for (o, &g) in dr.data.iter_mut().zip(src.iter()) {
                        *o += g;
                    }
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let (rows, cols) = shape(p);
                    let dp = ensure(&mut inputs[p], rows, cols);
                    let src = &g_out.data[off * cols..(off + rows) * cols];
                    for (o, &g) in dp.data.iter_mut().zip(src.iter()) {
                        *o += g;
                    }
                    off += rows;
                }
            }
            Op::SoftmaxRows(x) => {
                // dx = y ⊙ (dy − (dy·y)) per row.
                let y = &self.values[id];
                let (r, c) = shape(*x);
                let dx = ensure(&mut inputs[*x], r, c);
                for row in 0..y.rows {
                    let dot: f32 = (0..y.cols).map(|c| g_out.at(row, c) * y.at(row, c)).sum();
                    for c in 0..y.cols {
                        dx.data[row * y.cols + c] += y.at(row, c) * (g_out.at(row, c) - dot);
                    }
                }
            }
            Op::LinearAttention { q, k, v, saved } => {
                let s = &**saved;
                let y = &self.values[id];
                let vv = &self.values[*v];
                let (rows, v_cols, qk_cols) = (y.rows, y.cols, s.q_unit.cols);
                let kn = crate::simd::kernels();
                // out_i = num_i / den_i: num's adjoint is A = G/den, and
                // den's is b_i = −(G_i·out_i)/den_i.
                let mut a = self.scratch_tensor(rows, v_cols);
                let mut b = vec![0.0f32; rows];
                for (i, a_row) in a.data.chunks_exact_mut(v_cols).enumerate() {
                    let (g_row, den) = (g_out.row_slice(i), s.den[i]);
                    b[i] = -(kn.dot)(g_row, y.row_slice(i)) / den;
                    for (o, &g) in a_row.iter_mut().zip(g_row) {
                        *o = g / den;
                    }
                }
                // num = N·v + q̃(k̃ᵀv), den = N + q̃(k̃ᵀ1).
                let mut dq_unit = self.scratch_tensor(rows, qk_cols);
                a.matmul_bt_into(&s.kv, &mut dq_unit, false);
                for (row, &bi) in dq_unit.data.chunks_exact_mut(qk_cols).zip(&b) {
                    (kn.axpy)(row, bi, &s.k_sum);
                }
                let dkv = s.q_unit.matmul_at(&a);
                let mut dk_sum = vec![0.0f32; qk_cols];
                for (row, &bi) in s.q_unit.data.chunks_exact(qk_cols).zip(&b) {
                    (kn.axpy)(&mut dk_sum, bi, row);
                }
                let mut dk_unit = self.scratch_tensor(rows, qk_cols);
                vv.matmul_bt_into(&dkv, &mut dk_unit, false);
                for row in dk_unit.data.chunks_exact_mut(qk_cols) {
                    (kn.add_assign)(row, &dk_sum);
                }
                {
                    let gv = ensure(&mut inputs[*v], rows, v_cols);
                    (kn.axpy)(&mut gv.data, rows as f32, &a.data);
                    s.k_unit.matmul_into(&dkv, gv, true);
                }
                for (x, unit, norm, d_unit) in [
                    (*q, &s.q_unit, s.q_norm, &dq_unit),
                    (*k, &s.k_unit, s.k_norm, &dk_unit),
                ] {
                    let gx = ensure(&mut inputs[x], rows, qk_cols);
                    unit_norm_backward(unit, norm, d_unit, gx);
                }
                for t in [a, dq_unit, dk_unit] {
                    self.recycle(t);
                }
            }
            Op::NormalizeRows { x, norms } => {
                let y = &self.values[id];
                let (r, c) = shape(*x);
                let dx = ensure(&mut inputs[*x], r, c);
                #[allow(clippy::needless_range_loop)]
                for row in 0..y.rows {
                    let dot: f32 = (0..y.cols).map(|c| g_out.at(row, c) * y.at(row, c)).sum();
                    for c in 0..y.cols {
                        dx.data[row * y.cols + c] +=
                            (g_out.at(row, c) - y.at(row, c) * dot) / norms[row];
                    }
                }
            }
            Op::CrossEntropy {
                logits,
                probs,
                targets,
            } => {
                let scale = g_out.item() / targets.len().max(1) as f32;
                let (r, c) = shape(*logits);
                let dl = ensure(&mut inputs[*logits], r, c);
                for (row, &t) in targets.iter().enumerate() {
                    for c in 0..probs.cols {
                        let onehot = if c == t { 1.0 } else { 0.0 };
                        dl.data[row * probs.cols + c] += (probs.at(row, c) - onehot) * scale;
                    }
                }
            }
            Op::Mse { pred, target } => {
                let n = target.data.len().max(1) as f32;
                let scale = 2.0 * g_out.item() / n;
                let pv = &self.values[*pred];
                let (r, c) = shape(*pred);
                let dp = ensure(&mut inputs[*pred], r, c);
                for ((o, &p), &t) in dp
                    .data
                    .iter_mut()
                    .zip(pv.data.iter())
                    .zip(target.data.iter())
                {
                    *o += (p - t) * scale;
                }
            }
        }
    }

    /// Borrows a zeroed `rows×cols` scratch tensor from the workspace pool.
    fn scratch_tensor(&self, rows: usize, cols: usize) -> Tensor {
        let mut buf = self
            .scratch
            .lock()
            .expect("scratch pool poisoned")
            .take(rows * cols);
        buf.resize(rows * cols, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// Returns a [`Self::scratch_tensor`] buffer to the pool.
    fn recycle(&self, t: Tensor) {
        self.scratch
            .lock()
            .expect("scratch pool poisoned")
            .give(t.data);
    }

    /// Collects `(param_key, grad)` pairs after [`Graph::backward`].
    pub fn param_grads(&self, grads: &[Tensor]) -> Vec<(usize, Tensor)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.param_key.map(|k| (k, grads[i].clone())))
            .collect()
    }
}

/// Copies `ids` rows of `table` into a new tensor.
fn gather(table: &Tensor, ids: &[u32]) -> Tensor {
    let mut v = Tensor::zeros(ids.len(), table.cols);
    for (r, &id) in ids.iter().enumerate() {
        let dst = &mut v.data[r * table.cols..(r + 1) * table.cols];
        dst.copy_from_slice(table.row_slice(id as usize));
    }
    v
}

/// `x/‖x‖_F` and `‖x‖_F`; a zero norm gives a zero tensor (a NaN one
/// propagates).
fn unit_norm(x: &Tensor) -> (Tensor, f32) {
    let norm = (crate::simd::kernels().dot)(&x.data, &x.data).sqrt();
    let unit = if norm == 0.0 {
        Tensor::zeros(x.rows, x.cols)
    } else {
        x.map(|v| v / norm)
    };
    (unit, norm)
}

/// Accumulates the adjoint of [`unit_norm`] into `gx`:
/// `(d_unit − unit·⟨unit, d_unit⟩) / norm`. Where the forward guarded a
/// zero norm, its constant zero output passes no gradient.
fn unit_norm_backward(unit: &Tensor, norm: f32, d_unit: &Tensor, gx: &mut Tensor) {
    if norm != 0.0 {
        let kn = crate::simd::kernels();
        let along = (kn.dot)(&unit.data, &d_unit.data);
        (kn.axpy)(&mut gx.data, 1.0 / norm, &d_unit.data);
        (kn.axpy)(&mut gx.data, -along / norm, &unit.data);
    }
}

/// The forward kernel of [`Graph::linear_attention`] in both graph
/// modes: every reduction runs in a fixed order through the SIMD table
/// (`dot` for norms and denominators, `matmul_at` for `k̃ᵀv`,
/// `add_assign` for `k̃ᵀ1`, the blocked `matmul` for `q̃(k̃ᵀv)`), so the
/// bits match across tiers and thread counts.
fn linear_attention_forward(q: &Tensor, k: &Tensor, v: &Tensor) -> (Tensor, LinearAttentionSaved) {
    assert_eq!(
        (q.rows, q.cols),
        (k.rows, k.cols),
        "linear_attention q/k shapes"
    );
    assert_eq!(k.rows, v.rows, "linear_attention k/v rows");
    let kn = crate::simd::kernels();
    let n = q.rows as f32;
    let (q_unit, q_norm) = unit_norm(q);
    let (k_unit, k_norm) = unit_norm(k);
    let kv = k_unit.matmul_at(v);
    let mut k_sum = vec![0.0f32; k.cols];
    for row in k_unit.data.chunks_exact(k.cols) {
        (kn.add_assign)(&mut k_sum, row);
    }
    let mut out = q_unit.matmul(&kv);
    let mut den = Vec::with_capacity(q.rows);
    for (i, out_row) in out.data.chunks_exact_mut(v.cols).enumerate() {
        (kn.axpy)(out_row, n, v.row_slice(i));
        let d = n + (kn.dot)(q_unit.row_slice(i), &k_sum);
        for o in out_row.iter_mut() {
            *o /= d;
        }
        den.push(d);
    }
    let saved = LinearAttentionSaved {
        q_unit,
        k_unit,
        q_norm,
        k_norm,
        kv,
        k_sum,
        den,
    };
    (out, saved)
}

/// The layer-norm forward kernel of both graph modes. `saved` receives
/// `xhat` and per-row `1/std` for the backward pass; without it each row
/// block normalizes through one scratch `xhat` row. Rows normalize
/// independently, each reduced in ascending column order on exactly one
/// thread, and row blocks run in parallel only above the
/// [`parallel_worthwhile`] gate — bitwise identical at any thread count.
/// The dispatch table is resolved here so pool workers inherit any
/// `simd::with_tier` override from the calling thread.
fn layer_norm_rows(
    x: &Tensor,
    gain: &Tensor,
    bias: &Tensor,
    saved: Option<(&mut [f32], &mut [f32])>,
) -> Tensor {
    const EPS: f32 = 1e-5;
    let cols = x.cols;
    let mut out = Tensor::zeros(x.rows, cols);
    let kn = crate::simd::kernels();
    let norm_row = |r: usize, out_row: &mut [f32], xhat_row: &mut [f32]| -> f32 {
        let row = x.row_slice(r);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        (kn.ln_fwd_row)(out_row, xhat_row, row, &gain.data, &bias.data, mean, istd);
        istd
    };
    let flops = LN_FLOPS_PER_ELEM * x.data.len();
    match saved {
        Some((xhat, inv_std)) => {
            let block =
                |first_row: usize, out_rows: &mut [f32], xhats: &mut [f32], istds: &mut [f32]| {
                    for (r, ((out_row, xhat_row), istd)) in out_rows
                        .chunks_exact_mut(cols)
                        .zip(xhats.chunks_exact_mut(cols))
                        .zip(istds.iter_mut())
                        .enumerate()
                    {
                        *istd = norm_row(first_row + r, out_row, xhat_row);
                    }
                };
            if parallel_worthwhile(flops) {
                nettag_par::for_each_zip3_mut(&mut out.data, cols, xhat, cols, inv_std, 1, block);
            } else {
                block(0, &mut out.data, xhat, inv_std);
            }
        }
        None => run_row_blocks(&mut out.data, cols, flops, |first_row, out_rows| {
            let mut xhat = vec![0.0f32; cols];
            for (r, out_row) in out_rows.chunks_exact_mut(cols).enumerate() {
                norm_row(first_row + r, out_row, &mut xhat);
            }
        }),
    }
    out
}

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

fn gelu_grad(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check helper: builds a scalar loss from a
    /// single input tensor via `f` and compares autograd to numeric grads.
    fn grad_check(input: Tensor, f: impl Fn(&mut Graph, NodeId) -> NodeId) {
        let mut g = Graph::new();
        let x = g.param(0, input.clone());
        let loss = f(&mut g, x);
        assert_eq!(g.value(loss).data.len(), 1, "loss must be scalar");
        let grads = g.backward(loss);
        let analytic = &grads[x];
        let eps = 3e-3f32;
        for i in 0..input.data.len() {
            let mut plus = input.clone();
            plus.data[i] += eps;
            let mut minus = input.clone();
            minus.data[i] -= eps;
            let lp = {
                let mut g = Graph::new();
                let x = g.param(0, plus);
                let l = f(&mut g, x);
                g.value(l).item()
            };
            let lm = {
                let mut g = Graph::new();
                let x = g.param(0, minus);
                let l = f(&mut g, x);
                g.value(l).item()
            };
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.data[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn rngt(r: usize, c: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::xavier(r, c, &mut rng)
    }

    #[test]
    fn grad_matmul_chain() {
        let w = rngt(3, 2, 11);
        grad_check(rngt(2, 3, 1), move |g, x| {
            let wn = g.constant(w.clone());
            let y = g.matmul(x, wn);
            let t = Tensor::zeros(2, 2);
            g.mse(y, t)
        });
    }

    #[test]
    fn grad_matmul_bt_and_normalize() {
        let other = rngt(4, 3, 7);
        grad_check(rngt(4, 3, 2), move |g, x| {
            let xn = g.normalize_rows(x);
            let o = g.constant(other.clone());
            let sim = g.matmul_bt(xn, o);
            g.cross_entropy(sim, Arc::new(vec![0, 1, 2, 3]))
        });
    }

    #[test]
    fn grad_activations() {
        grad_check(rngt(2, 4, 3), |g, x| {
            let a = g.gelu(x);
            let b = g.relu(a);
            g.mse(b, Tensor::zeros(2, 4))
        });
    }

    #[test]
    fn grad_layer_norm() {
        let gain = rngt(1, 4, 21).map(|v| 1.0 + 0.1 * v);
        let bias = rngt(1, 4, 22).map(|v| 0.1 * v);
        grad_check(rngt(3, 4, 4), move |g, x| {
            let y = g.layer_norm(x, &Param::new(gain.clone()), &Param::new(bias.clone()));
            g.mse(y, Tensor::zeros(3, 4))
        });
    }

    #[test]
    fn grad_spmm_and_pooling() {
        let adj = Arc::new(SparseMatrix::normalized_adjacency(3, &[(0, 1), (1, 2)]));
        grad_check(rngt(3, 3, 5), move |g, x| {
            let p = g.spmm(adj.clone(), x);
            let m = g.mean_rows(p);
            g.mse(m, Tensor::zeros(1, 3))
        });
    }

    #[test]
    fn grad_concat_select_gather() {
        grad_check(rngt(4, 3, 6), |g, x| {
            let picked = g.gather_rows(x, Arc::new(vec![0, 2, 2]));
            let r0 = g.select_row(picked, 0);
            let r1 = g.select_row(picked, 2);
            let cat = g.concat_cols(&[r0, r1]);
            g.mse(cat, Tensor::zeros(1, 6))
        });
    }

    #[test]
    fn grad_add_row_mul_scale() {
        let row = rngt(1, 3, 31);
        grad_check(rngt(2, 3, 8), move |g, x| {
            let r = g.constant(row.clone());
            let a = g.add_row(x, r);
            let b = g.mul(a, a);
            let c = g.scale(b, 0.5);
            g.mse(c, Tensor::zeros(2, 3))
        });
    }

    #[test]
    fn grad_stack_rows() {
        grad_check(rngt(3, 4, 9), |g, x| {
            let r0 = g.select_row(x, 0);
            let r2 = g.select_row(x, 2);
            let s = g.stack_rows(&[r0, r2]);
            g.mse(s, Tensor::zeros(2, 4))
        });
    }

    #[test]
    fn grad_fused_linear() {
        let w = rngt(3, 4, 41);
        let b = rngt(1, 4, 42);
        grad_check(rngt(5, 3, 40), move |g, x| {
            let y = g.linear(x, &Param::new(w.clone()), &Param::new(b.clone()));
            g.mse(y, Tensor::zeros(5, 4))
        });
    }

    #[test]
    fn grad_fused_linear_relu() {
        let w = rngt(3, 4, 51);
        let b = rngt(1, 4, 52);
        grad_check(rngt(5, 3, 50), move |g, x| {
            let y = g.linear_relu(x, &Param::new(w.clone()), &Param::new(b.clone()));
            g.mse(y, Tensor::zeros(5, 4))
        });
    }

    #[test]
    fn fused_linear_matches_composed_ops() {
        // Forward values and parameter gradients of the fused op must
        // match matmul→add_row→relu composed from primitive ops.
        let x = rngt(6, 5, 61);
        let w = rngt(5, 4, 62);
        let b = rngt(1, 4, 63);
        let (wp, bp) = (Param::new(w), Param::new(b));
        let run = |fused: bool| -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
            let mut g = Graph::new();
            let xn = g.param(1, x.clone());
            let y = if fused {
                g.linear_relu(xn, &wp, &bp)
            } else {
                let wn = wp.bind(&mut g);
                let bn = bp.bind(&mut g);
                let mm = g.matmul(xn, wn);
                let aff = g.add_row(mm, bn);
                g.relu(aff)
            };
            let loss = g.mse(y, Tensor::zeros(6, 4));
            let grads = g.backward(loss);
            let pg = g.param_grads(&grads);
            let of = |key: usize| pg.iter().find(|(k, _)| *k == key).expect("bound").1.clone();
            (
                g.value(y).data.clone(),
                grads[xn].data.clone(),
                of(wp.key).data,
                of(bp.key).data,
            )
        };
        let (yf, gxf, gwf, gbf) = run(true);
        let (yc, gxc, gwc, gbc) = run(false);
        assert_eq!(yf, yc, "fused forward must match composed forward");
        for (label, a, b) in [("dx", &gxf, &gxc), ("dw", &gwf, &gwc), ("db", &gbf, &gbc)] {
            for (u, v) in a.iter().zip(b.iter()) {
                assert!(
                    (u - v).abs() <= 1e-6 * (1.0 + v.abs()),
                    "{label}: {u} vs {v}"
                );
            }
        }
    }

    #[test]
    fn unreachable_nodes_report_zero_gradients() {
        let mut g = Graph::new();
        let used = g.param(1, Tensor::scalar(2.0));
        let unused = g.param(2, Tensor::from_vec(2, 2, vec![1.0; 4]));
        let loss = g.mse(used, Tensor::scalar(0.0));
        let grads = g.backward(loss);
        assert!(grads[used].item() != 0.0);
        assert_eq!((grads[unused].rows, grads[unused].cols), (2, 2));
        assert!(grads[unused].data.iter().all(|&v| v == 0.0));
    }

    /// Zero queries and keys (zero Frobenius norms) take the guarded
    /// branch: the output is `v`, and the gradients are finite, with none
    /// reaching the constant-zero `q̃`/`k̃` operands.
    #[test]
    fn linear_attention_with_zero_norms_returns_v() {
        let v = rngt(5, 3, 80);
        let mut g = Graph::new();
        let q = g.param(0, Tensor::zeros(5, 4));
        let k = g.param(1, Tensor::zeros(5, 4));
        let vn = g.param(2, v.clone());
        let out = g.linear_attention(q, k, vn);
        for (o, x) in g.value(out).data.iter().zip(&v.data) {
            assert!((o - x).abs() <= 1e-6 * x.abs(), "{o} vs {x}");
        }
        let loss = g.mse(out, Tensor::zeros(5, 3));
        let grads = g.backward(loss);
        assert!(grads[q]
            .data
            .iter()
            .chain(&grads[k].data)
            .all(|&d| d == 0.0));
        assert!(grads[vn].data.iter().all(|d| d.is_finite()));
        assert!(grads[vn].norm() > 0.0);
    }

    /// A no-grad graph with a scalar "loss" built from a parameter.
    fn no_grad_loss() -> (Graph, NodeId) {
        let mut g = Graph::no_grad();
        let w = Param::new(rngt(3, 2, 70));
        let b = Param::zeros(1, 2);
        let x = g.constant(rngt(4, 3, 71));
        let y = g.linear(x, &w, &b);
        let loss = g.mse(y, Tensor::zeros(4, 2));
        (g, loss)
    }

    #[test]
    #[should_panic(expected = "backward on a no-grad Graph")]
    fn backward_on_no_grad_graph_panics() {
        let (g, loss) = no_grad_loss();
        g.backward(loss);
    }

    #[test]
    #[should_panic(expected = "backward on a no-grad Graph")]
    fn backward_into_on_no_grad_graph_panics() {
        let (g, loss) = no_grad_loss();
        g.backward_into(loss, &mut GradStore::new());
    }

    #[test]
    #[should_panic(expected = "backward on a no-grad Graph")]
    fn backward_seeded_into_on_no_grad_graph_panics() {
        let (g, loss) = no_grad_loss();
        g.backward_seeded_into(&[(loss, &Tensor::scalar(1.0))], &mut GradStore::new());
    }

    #[test]
    fn cross_entropy_decreases_under_gradient_step() {
        // One step of gradient descent on logits must reduce CE.
        let logits = rngt(4, 3, 10);
        let targets = Arc::new(vec![0usize, 1, 2, 0]);
        let mut g = Graph::new();
        let x = g.param(0, logits.clone());
        let loss = g.cross_entropy(x, targets.clone());
        let l0 = g.value(loss).item();
        let grads = g.backward(loss);
        let stepped = logits.zip(&grads[x], |v, d| v - 0.5 * d);
        let mut g2 = Graph::new();
        let x2 = g2.param(0, stepped);
        let loss2 = g2.cross_entropy(x2, targets);
        assert!(g2.value(loss2).item() < l0);
    }

    #[test]
    fn param_grads_are_collected_by_key() {
        let mut g = Graph::new();
        let a = g.param(7, Tensor::scalar(2.0));
        let b = g.param(9, Tensor::scalar(3.0));
        let p = g.mul(a, b);
        let loss = g.mse(p, Tensor::scalar(0.0));
        let grads = g.backward(loss);
        let pg = g.param_grads(&grads);
        assert_eq!(pg.len(), 2);
        let d_a = pg.iter().find(|(k, _)| *k == 7).expect("key 7").1.item();
        // d/da (ab)^2 = 2ab * b = 2*6*3 = 36.
        assert!((d_a - 36.0).abs() < 1e-4);
    }
}
