//! Neural layers: parameters, linear/embedding/attention/transformer
//! blocks, built on the autograd [`Graph`].

use crate::graph::{Graph, NodeId};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_PARAM_KEY: AtomicUsize = AtomicUsize::new(1);

/// A trainable parameter with Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    /// Key unique within this process, assigned at construction. Keys are
    /// never stored: a checkpoint load builds fresh params, so a loaded
    /// model gets fresh keys.
    pub key: usize,
    /// Current value.
    pub value: Tensor,
    /// Adam first moment.
    pub m: Tensor,
    /// Adam second moment.
    pub v: Tensor,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(value: Tensor) -> Param {
        Param {
            key: NEXT_PARAM_KEY.fetch_add(1, Ordering::Relaxed),
            m: Tensor::zeros(value.rows, value.cols),
            v: Tensor::zeros(value.rows, value.cols),
            value,
        }
    }

    /// Xavier-initialized parameter.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Param {
        Param::new(Tensor::xavier(rows, cols, rng))
    }

    /// Zero-initialized parameter.
    pub fn zeros(rows: usize, cols: usize) -> Param {
        Param::new(Tensor::zeros(rows, cols))
    }

    /// Ones-initialized parameter (LayerNorm gains).
    pub fn ones(rows: usize, cols: usize) -> Param {
        Param::new(Tensor::from_vec(rows, cols, vec![1.0; rows * cols]))
    }

    /// Binds the parameter into a graph as a tagged leaf.
    pub fn bind(&self, g: &mut Graph) -> NodeId {
        g.param(self.key, self.value.clone())
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.data.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.data.is_empty()
    }
}

/// Anything holding trainable parameters.
pub trait Layer {
    /// Mutable access to all parameters (optimizer hook).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Total scalar parameter count.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

/// Fully-connected layer `x @ W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight (in×out).
    pub w: Param,
    /// Bias (1×out).
    pub b: Param,
}

impl Linear {
    /// New Xavier-initialized linear layer.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Linear {
        Linear {
            w: Param::xavier(input, output, rng),
            b: Param::zeros(1, output),
        }
    }

    /// Forward pass (fused `x @ W + b` kernel, one tape node).
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        g.linear(x, &self.w, &self.b)
    }

    /// Forward pass with fused ReLU (`relu(x @ W + b)`), used by MLP
    /// hidden layers to avoid a separate activation tape node.
    pub fn forward_relu(&self, g: &mut Graph, x: NodeId) -> NodeId {
        g.linear_relu(x, &self.w, &self.b)
    }
}

impl Layer for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Token embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Table (vocab×dim).
    pub table: Param,
}

impl Embedding {
    /// New embedding with Xavier init.
    pub fn new(vocab: usize, dim: usize, rng: &mut StdRng) -> Embedding {
        Embedding {
            table: Param::xavier(vocab, dim, rng),
        }
    }

    /// Looks up a sequence of token ids.
    pub fn forward(&self, g: &mut Graph, ids: &[u32]) -> NodeId {
        g.gather_param_rows(&self.table, ids)
    }
}

impl Layer for Embedding {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }
}

/// Layer normalization with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Gain (1×d).
    pub gain: Param,
    /// Bias (1×d).
    pub bias: Param,
}

impl LayerNorm {
    /// New identity-initialized LayerNorm.
    pub fn new(dim: usize) -> LayerNorm {
        LayerNorm {
            gain: Param::ones(1, dim),
            bias: Param::zeros(1, dim),
        }
    }

    /// Forward pass.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        g.layer_norm(x, &self.gain, &self.bias)
    }
}

impl Layer for LayerNorm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gain, &mut self.bias]
    }
}

/// The rows of a sequence that attention computes outputs for.
///
/// A block's output row i depends on the other input rows only through
/// the keys and values, so an encoder that reads one pooled row (`[CLS]`,
/// row 0) of its last block needs the others there only as keys and
/// values. Every kernel reduces each output element in an order that
/// does not depend on the row count, so row 0 comes out with the same
/// bits either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRows {
    /// Every row: an n×d input gives an n×d output.
    All,
    /// Row 0 only: an n×d input gives a 1×d output.
    First,
}

impl QueryRows {
    /// `x` itself, or its row 0.
    fn select(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            QueryRows::All => x,
            QueryRows::First => g.select_row(x, 0),
        }
    }
}

/// Multi-head bidirectional (full) self-attention.
///
/// NetTAG adapts a decoder LLM into an encoder by "converting causal
/// attention to bidirectional attention" (Sec. II-C, following LLM2Vec);
/// this layer is natively bidirectional — every position attends to every
/// other.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Per-head query projections (d → dk).
    pub wq: Vec<Linear>,
    /// Per-head key projections.
    pub wk: Vec<Linear>,
    /// Per-head value projections.
    pub wv: Vec<Linear>,
    /// Output projection (h·dk → d).
    pub wo: Linear,
    /// Per-head dimension.
    pub head_dim: usize,
}

impl MultiHeadAttention {
    /// New attention layer with `heads` heads over model width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim % heads != 0`.
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> MultiHeadAttention {
        assert_eq!(dim % heads, 0, "dim must divide into heads");
        let head_dim = dim / heads;
        MultiHeadAttention {
            wq: (0..heads)
                .map(|_| Linear::new(dim, head_dim, rng))
                .collect(),
            wk: (0..heads)
                .map(|_| Linear::new(dim, head_dim, rng))
                .collect(),
            wv: (0..heads)
                .map(|_| Linear::new(dim, head_dim, rng))
                .collect(),
            wo: Linear::new(dim, dim, rng),
            head_dim,
        }
    }

    /// Full (unmasked) self-attention over an n×d sequence: every row is
    /// a key and a value, and `rows` picks the query rows, so the output
    /// is n×d or 1×d. With `First`, each head selects its own query row
    /// right before its `wq`, which keeps the backward's order of adds
    /// into `x`.
    pub fn forward(&self, g: &mut Graph, x: NodeId, rows: QueryRows) -> NodeId {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut heads = Vec::with_capacity(self.wq.len());
        for h in 0..self.wq.len() {
            let qx = rows.select(g, x);
            let q = self.wq[h].forward(g, qx);
            let k = self.wk[h].forward(g, x);
            let v = self.wv[h].forward(g, x);
            heads.push(g.attention(q, k, v, scale));
        }
        let cat = g.concat_cols(&heads);
        self.wo.forward(g, cat)
    }
}

/// Position-wise feed-forward (two linear layers with GELU).
#[derive(Debug, Clone)]
pub struct FeedForward {
    /// Expansion layer.
    pub lin1: Linear,
    /// Projection layer.
    pub lin2: Linear,
}

impl FeedForward {
    /// New FFN with `mult`× expansion.
    pub fn new(dim: usize, mult: usize, rng: &mut StdRng) -> FeedForward {
        FeedForward {
            lin1: Linear::new(dim, dim * mult, rng),
            lin2: Linear::new(dim * mult, dim, rng),
        }
    }

    /// Forward pass.
    pub fn forward(&self, g: &mut Graph, x: NodeId) -> NodeId {
        let h = self.lin1.forward(g, x);
        let a = g.gelu(h);
        self.lin2.forward(g, a)
    }
}

impl Layer for FeedForward {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.lin1.params_mut();
        p.extend(self.lin2.params_mut());
        p
    }
}

/// A pre-norm transformer encoder block.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    /// Attention sub-layer.
    pub attn: MultiHeadAttention,
    /// FFN sub-layer.
    pub ffn: FeedForward,
    /// Pre-attention norm.
    pub ln1: LayerNorm,
    /// Pre-FFN norm.
    pub ln2: LayerNorm,
}

impl TransformerBlock {
    /// New block.
    pub fn new(dim: usize, heads: usize, ff_mult: usize, rng: &mut StdRng) -> TransformerBlock {
        TransformerBlock {
            attn: MultiHeadAttention::new(dim, heads, rng),
            ffn: FeedForward::new(dim, ff_mult, rng),
            ln1: LayerNorm::new(dim),
            ln2: LayerNorm::new(dim),
        }
    }

    /// Forward pass with residual connections over the query `rows`:
    /// LN1 and the keys and values see every row of `x`; the residual,
    /// LN2 and the FFN see only the query rows.
    pub fn forward(&self, g: &mut Graph, x: NodeId, rows: QueryRows) -> NodeId {
        let n1 = self.ln1.forward(g, x);
        let a = self.attn.forward(g, n1, rows);
        let x = rows.select(g, x);
        let x1 = g.add(x, a);
        let n2 = self.ln2.forward(g, x1);
        let f = self.ffn.forward(g, n2);
        g.add(x1, f)
    }
}

impl Layer for TransformerBlock {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        for l in &mut self.attn.wq {
            p.extend(l.params_mut());
        }
        for l in &mut self.attn.wk {
            p.extend(l.params_mut());
        }
        for l in &mut self.attn.wv {
            p.extend(l.params_mut());
        }
        p.extend(self.attn.wo.params_mut());
        p.extend(self.ffn.params_mut());
        p.extend(self.ln1.params_mut());
        p.extend(self.ln2.params_mut());
        p
    }
}

/// A small MLP (Linear → ReLU → … → Linear), the paper's fine-tuning head
/// shape ("each MLP contains three layers").
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The stacked layers.
    pub layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[768, 256, 6]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], rng: &mut StdRng) -> Mlp {
        assert!(widths.len() >= 2, "need input and output widths");
        Mlp {
            layers: widths
                .windows(2)
                .map(|w| Linear::new(w[0], w[1], rng))
                .collect(),
        }
    }

    /// Forward pass (ReLU between layers, none after the last; hidden
    /// layers use the fused linear+ReLU kernel).
    pub fn forward(&self, g: &mut Graph, mut x: NodeId) -> NodeId {
        for (i, l) in self.layers.iter().enumerate() {
            x = if i + 1 != self.layers.len() {
                l.forward_relu(g, x)
            } else {
                l.forward(g, x)
            };
        }
        x
    }
}

impl Layer for Mlp {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn linear_shapes() {
        let mut r = rng();
        let l = Linear::new(4, 3, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(5, 4));
        let y = l.forward(&mut g, x);
        assert_eq!((g.value(y).rows, g.value(y).cols), (5, 3));
    }

    #[test]
    fn embedding_lookup_shapes_and_grads() {
        let mut r = rng();
        let e = Embedding::new(10, 4, &mut r);
        let mut g = Graph::new();
        let y = e.forward(&mut g, &[1, 1, 3]);
        assert_eq!((g.value(y).rows, g.value(y).cols), (3, 4));
        let loss = g.mse(y, Tensor::zeros(3, 4));
        let grads = g.backward(loss);
        let pg = g.param_grads(&grads);
        assert_eq!(pg.len(), 1);
        // Row 1 used twice accumulates; row 0 untouched.
        let dt = &pg[0].1;
        assert!(dt.row_slice(1).iter().any(|&v| v != 0.0));
        assert!(dt.row_slice(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn attention_is_permutation_sensitive_but_shape_stable() {
        let mut r = rng();
        let attn = MultiHeadAttention::new(8, 2, &mut r);
        let mut g = Graph::new();
        let x = g.constant(Tensor::xavier(5, 8, &mut r));
        let y = attn.forward(&mut g, x, QueryRows::All);
        assert_eq!((g.value(y).rows, g.value(y).cols), (5, 8));
    }

    #[test]
    fn transformer_block_trains_toward_target() {
        let mut r = rng();
        let mut block = TransformerBlock::new(8, 2, 2, &mut r);
        let input = Tensor::xavier(4, 8, &mut r);
        let target = Tensor::xavier(4, 8, &mut r);
        let mut opt = crate::optim::Adam::new(0.01);
        let mut store = crate::grad::GradStore::new();
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..30 {
            let mut g = Graph::new();
            let x = g.constant(input.clone());
            let y = block.forward(&mut g, x, QueryRows::All);
            let loss = g.mse(y, target.clone());
            let lv = g.value(loss).item();
            if step == 0 {
                first = lv;
            }
            last = lv;
            store.clear();
            g.backward_into(loss, &mut store);
            opt.step(&mut block.params_mut(), &store);
        }
        assert!(last < first * 0.7, "loss {first} -> {last} should shrink");
    }

    #[test]
    fn mlp_trains_xor() {
        // Classic sanity check: a 2-layer MLP can fit XOR.
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 8, 2], &mut r);
        let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let targets = std::sync::Arc::new(vec![0usize, 1, 1, 0]);
        let mut opt = crate::optim::Adam::new(0.05);
        let mut store = crate::grad::GradStore::new();
        let mut last = f32::NAN;
        for _ in 0..200 {
            let mut g = Graph::new();
            let xn = g.constant(x.clone());
            let logits = mlp.forward(&mut g, xn);
            let loss = g.cross_entropy(logits, targets.clone());
            last = g.value(loss).item();
            store.clear();
            g.backward_into(loss, &mut store);
            opt.step(&mut mlp.params_mut(), &store);
        }
        assert!(last < 0.1, "XOR should be learnable, loss {last}");
    }

    /// Every op whose no-grad branch differs from tape mode — param
    /// linear and linear+ReLU, LayerNorm (below and above the parallel
    /// gate), the param-row gather, the softmax attention head and linear
    /// attention — produces the tape's bits on a no-grad graph.
    #[test]
    fn no_grad_matches_tape_bitwise() {
        let mut r = rng();
        let emb = Embedding::new(10, 16, &mut r);
        let block = TransformerBlock::new(16, 4, 2, &mut r);
        let mlp = Mlp::new(&[16, 24, 24, 6], &mut r);
        let mut wide = LayerNorm::new(80);
        wide.gain.value = Tensor::xavier(1, 80, &mut r);
        wide.bias.value = Tensor::xavier(1, 80, &mut r);
        let big = Tensor::xavier(1024, 80, &mut r);
        let run = |mut g: Graph| -> Vec<Tensor> {
            let x = emb.forward(&mut g, &[3, 1, 4, 1, 5, 9, 2]);
            let y = block.forward(&mut g, x, QueryRows::All);
            let m = mlp.forward(&mut g, y);
            let b = g.constant(big.clone());
            let n = wide.forward(&mut g, b);
            let l = g.linear_attention(y, x, m);
            [x, y, m, n, l].map(|id| g.take_value(id)).to_vec()
        };
        let tape = run(Graph::new());
        let no_grad = run(Graph::no_grad());
        for (t, n) in tape.iter().zip(&no_grad) {
            assert_eq!((t.rows, t.cols), (n.rows, n.cols));
            let bits = |v: &Tensor| v.data.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(t), bits(n), "no-grad must be bit-identical");
        }
    }

    #[test]
    fn param_keys_are_unique() {
        let mut r = rng();
        let a = Param::xavier(2, 2, &mut r);
        let b = Param::xavier(2, 2, &mut r);
        assert_ne!(a.key, b.key);
    }
}
