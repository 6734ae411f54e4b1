//! Property-based gradient checks: autograd gradients must match central
//! finite differences for randomly composed computation graphs.

use nettag_nn::{
    GradStore, Graph, Layer, NodeId, Param, QueryRows, SparseMatrix, Tensor, TransformerBlock,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-1.5f32..1.5, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// Numerically checks d(loss)/d(input) at every coordinate.
fn check(input: Tensor, f: impl Fn(&mut Graph, NodeId) -> NodeId) -> Result<(), TestCaseError> {
    let run = |t: Tensor| -> f32 {
        let mut g = Graph::new();
        let x = g.param(0, t);
        let l = f(&mut g, x);
        g.value(l).item()
    };
    let mut g = Graph::new();
    let x = g.param(0, input.clone());
    let loss = f(&mut g, x);
    let grads = g.backward(loss);
    let analytic = &grads[x];
    let eps = 4e-3f32;
    for i in 0..input.data.len() {
        let mut plus = input.clone();
        plus.data[i] += eps;
        let mut minus = input.clone();
        minus.data[i] -= eps;
        let numeric = (run(plus) - run(minus)) / (2.0 * eps);
        let a = analytic.data[i];
        prop_assert!(
            (a - numeric).abs() < 4e-2 * (1.0 + numeric.abs()),
            "coord {i}: analytic {a} vs numeric {numeric}"
        );
    }
    Ok(())
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Tape bits, no-grad bits, and `(key, bits)` per gradient.
type RowZeroRun = (Vec<u32>, Vec<u32>, Vec<(usize, Vec<u32>)>);

/// Row 0 of `block` over `input` through `rows`: its bits on a tape and
/// on a no-grad graph, then the bits of every gradient (the input's under
/// key 0, each parameter's under its key) of an MSE loss on that row.
fn row_zero_run(
    block: &TransformerBlock,
    input: &Tensor,
    target: &Tensor,
    rows: QueryRows,
) -> RowZeroRun {
    let forward = |g: &mut Graph, x: NodeId| {
        let y = block.forward(g, x, rows);
        match rows {
            QueryRows::All => g.select_row(y, 0),
            QueryRows::First => y,
        }
    };
    let mut no_grad = Graph::no_grad();
    let x = no_grad.constant(input.clone());
    let y = forward(&mut no_grad, x);
    let no_grad_bits = bits(no_grad.value(y));
    let mut g = Graph::new();
    let x = g.param(0, input.clone());
    let y = forward(&mut g, x);
    let tape_bits = bits(g.value(y));
    let loss = g.mse(y, target.clone());
    let mut store = GradStore::new();
    g.backward_into(loss, &mut store);
    let mut grads: Vec<(usize, Vec<u32>)> = store.iter().map(|(k, t)| (k, bits(t))).collect();
    grads.sort();
    (tape_bits, no_grad_bits, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A block that computes only row 0 (ExprLLM's last block) gives row
    /// 0 of the full block bit for bit, forward and backward.
    #[test]
    fn first_row_block_matches_row_zero_of_full_block(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for heads in [1, 2] {
            for n in [1, 2, 3, 4, 5, 17, 48] {
                let mut block = TransformerBlock::new(16, heads, 2, &mut rng);
                for ln in [&mut block.ln1, &mut block.ln2] {
                    ln.gain.value = Tensor::xavier(1, 16, &mut rng);
                    ln.bias.value = Tensor::xavier(1, 16, &mut rng);
                }
                let input = Tensor::xavier(n, 16, &mut rng);
                let target = Tensor::xavier(1, 16, &mut rng);
                let full = row_zero_run(&block, &input, &target, QueryRows::All);
                let first = row_zero_run(&block, &input, &target, QueryRows::First);
                prop_assert_eq!(&full.0, &full.1, "full block: tape vs no-grad, n {}", n);
                prop_assert_eq!(&full, &first, "n {}, {} heads", n, heads);
                prop_assert_eq!(full.2.len(), block.params_mut().len() + 1);
            }
        }
    }

    #[test]
    fn gradcheck_linear_gelu_layernorm(x in arb_tensor(3, 4), w in arb_tensor(4, 3)) {
        // A fixed ramp keeps per-row variance away from zero, where
        // LayerNorm's finite-difference check is ill-conditioned.
        let ramp = Tensor::from_vec(
            3,
            4,
            (0..12).map(|i| (i % 4) as f32 * 0.8).collect(),
        );
        check(x, move |g, xn| {
            let rn = g.constant(ramp.clone());
            let xr = g.add(xn, rn);
            let wn = g.constant(w.clone());
            let h = g.matmul(xr, wn);
            let a = g.gelu(h);
            let gain = Param::new(Tensor::row(vec![1.0, 0.9, 1.1]));
            let bias = Param::new(Tensor::row(vec![0.0, 0.1, -0.1]));
            let n = g.layer_norm(a, &gain, &bias);
            g.mse(n, Tensor::zeros(3, 3))
        })?;
    }

    #[test]
    fn gradcheck_softmax_attention_core(x in arb_tensor(3, 4)) {
        check(x, |g, xn| {
            let scores = g.matmul_bt(xn, xn);
            let scaled = g.scale(scores, 0.5);
            let attn = g.softmax_rows_op(scaled);
            let out = g.matmul(attn, xn);
            g.mse(out, Tensor::zeros(3, 4))
        })?;
    }

    #[test]
    fn gradcheck_contrastive_path(x in arb_tensor(4, 3)) {
        check(x, |g, xn| {
            let normed = g.normalize_rows(xn);
            let sim = g.matmul_bt(normed, normed);
            let logits = g.scale(sim, 4.0);
            g.cross_entropy(logits, Arc::new(vec![0, 1, 2, 3]))
        })?;
    }

    #[test]
    fn gradcheck_graph_propagation(x in arb_tensor(4, 3)) {
        let adj = Arc::new(SparseMatrix::normalized_adjacency(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
        ));
        check(x, move |g, xn| {
            let p = g.spmm(adj.clone(), xn);
            let r = g.relu(p);
            let m = g.mean_rows(r);
            g.mse(m, Tensor::zeros(1, 3))
        })?;
    }

    #[test]
    fn gradcheck_concat_gather_stack(x in arb_tensor(4, 3)) {
        check(x, |g, xn| {
            let picked = g.gather_rows(xn, Arc::new(vec![1, 1, 3]));
            let r0 = g.select_row(picked, 0);
            let r1 = g.select_row(picked, 2);
            let stacked = g.stack_rows(&[r0, r1]);
            let cat = g.concat_rows(&[stacked, picked]);
            g.mse(cat, Tensor::zeros(5, 3))
        })?;
    }

    /// Linear attention's gradient through its query, key and value
    /// operands (three projections of one input, so every path and the
    /// aliasing of their adjoints is checked).
    #[test]
    fn gradcheck_linear_attention(
        x in arb_tensor(5, 4),
        wq in arb_tensor(4, 4),
        wk in arb_tensor(4, 4),
        wv in arb_tensor(4, 3),
    ) {
        check(x, move |g, xn| {
            let (wq, wk, wv) = (g.constant(wq.clone()), g.constant(wk.clone()), g.constant(wv.clone()));
            let q = g.matmul(xn, wq);
            let k = g.matmul(xn, wk);
            let v = g.matmul(xn, wv);
            let out = g.linear_attention(q, k, v);
            g.mse(out, Tensor::zeros(5, 3))
        })?;
    }

    /// Linear attention equals its quadratic definition, built through
    /// the N×N matrix `q̃k̃ᵀ` it never forms:
    /// `out_i = (N·v_i + Σ_j (q̃_i·k̃_j) v_j) / (N + Σ_j q̃_i·k̃_j)`.
    #[test]
    fn linear_attention_matches_its_quadratic_form(
        q in arb_tensor(6, 4),
        k in arb_tensor(6, 4),
        v in arb_tensor(6, 3),
    ) {
        let mut g = Graph::no_grad();
        let (qn, kn, vn) = (g.constant(q.clone()), g.constant(k.clone()), g.constant(v.clone()));
        let out = g.linear_attention(qn, kn, vn);
        let unit = |t: &Tensor| t.map(|x| x / t.norm());
        let scores = unit(&q).matmul_bt(&unit(&k));
        let n = 6.0f32;
        for i in 0..6 {
            let den = n + scores.row_slice(i).iter().sum::<f32>();
            for c in 0..3 {
                let num = n * v.at(i, c)
                    + (0..6).map(|j| scores.at(i, j) * v.at(j, c)).sum::<f32>();
                let got = g.value(out).at(i, c);
                prop_assert!((got - num / den).abs() < 1e-5 * (1.0 + got.abs()), "{got} vs {}", num / den);
            }
        }
    }

    /// Softmax rows always sum to one and are within (0, 1).
    #[test]
    fn softmax_is_a_distribution(x in arb_tensor(3, 5)) {
        let s = x.softmax_rows();
        for r in 0..3 {
            let row = s.row_slice(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&v| v > 0.0 && v < 1.0 + 1e-6));
        }
    }

    /// The symmetrically-normalized adjacency (with self loops) has
    /// spectral radius ≤ 1: propagation never grows the L2 norm.
    #[test]
    fn normalized_propagation_is_l2_nonexpansive(
        edges in prop::collection::vec((0u32..6, 0u32..6), 1..10),
        x in arb_tensor(6, 2),
    ) {
        let adj = SparseMatrix::normalized_adjacency(6, &edges);
        let out = adj.matmul(&x);
        prop_assert!(out.norm() <= x.norm() * (1.0 + 1e-4), "{} > {}", out.norm(), x.norm());
    }
}
