//! Property tests pinning the data-parallel training step to its serial
//! reference, bitwise: same per-sample tapes, same central combine, same
//! index-ascending pairwise gradient reduction — executed once through
//! the thread-pool driver and once with plain loops. CI replays this
//! suite at `RAYON_NUM_THREADS=1` and `4`; together with the kernel
//! equivalence suite it proves the optimization step is bitwise
//! identical at any thread count.

use nettag_nn::{
    data_parallel, info_nce, weighted_sum, Adam, GradStore, Graph, Layer, Mlp, NodeId, Param,
    SampleTape, SparseMatrix, Tensor,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

fn assert_stores_bitwise_equal(a: &GradStore, b: &GradStore) {
    assert_eq!(a.len(), b.len(), "store sizes differ");
    for ((k1, g1), (k2, g2)) in a.iter().zip(b.iter()) {
        assert_eq!(k1, k2, "store entry order differs");
        assert_eq!(
            g1.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            g2.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "gradient for key {k1} differs"
        );
    }
}

/// Contrastive step over per-sample MLP anchor/positive pairs — the
/// pre-training step-1 shape (batch-coupled InfoNCE).
fn contrastive_step(
    mlp: &Mlp,
    pairs: &[(Tensor, Tensor)],
    store: &mut GradStore,
    serial: bool,
) -> f32 {
    let build = |i: usize| {
        let mut g = Graph::new();
        let a_in = g.constant(pairs[i].0.clone());
        let p_in = g.constant(pairs[i].1.clone());
        let a = mlp.forward(&mut g, a_in);
        let p = mlp.forward(&mut g, p_in);
        SampleTape {
            graph: g,
            outputs: vec![a, p],
        }
    };
    let combine = |g: &mut Graph, leaves: &[Vec<NodeId>]| {
        let anchors: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
        let positives: Vec<NodeId> = leaves.iter().map(|l| l[1]).collect();
        let a = g.stack_rows(&anchors);
        let p = g.stack_rows(&positives);
        info_nce(g, a, p, 0.2)
    };
    if serial {
        data_parallel::step_serial(pairs.len(), build, combine, store)
    } else {
        data_parallel::step(pairs.len(), build, combine, store)
    }
}

/// TAGFormer-shaped step: per-sample SpMM + fused linear+ReLU +
/// layer_norm tapes with an auxiliary per-sample scalar loss, and a
/// central tape that binds its own head parameter — exercising every
/// driver feature (multi-output samples, mixed row/scalar outputs,
/// central parameter gradients, the parallel layer_norm paths).
#[allow(clippy::too_many_arguments)]
fn graph_step(
    w: &Param,
    b: &Param,
    gain: &Param,
    bias: &Param,
    head: &Param,
    feats: &[Tensor],
    adj: &Arc<SparseMatrix>,
    store: &mut GradStore,
    serial: bool,
) -> f32 {
    let n_samples = feats.len();
    let build = |i: usize| {
        let mut g = Graph::new();
        let x = g.constant(feats[i].clone());
        let p = g.spmm(adj.clone(), x);
        let h = g.linear_relu(p, w, b);
        let normed = g.layer_norm(h, gain, bias);
        let pooled = g.mean_rows(normed);
        // Per-sample auxiliary scalar: MSE of the pooled row to zero.
        let aux = g.mse(pooled, Tensor::zeros(1, feats[i].cols));
        SampleTape {
            graph: g,
            outputs: vec![pooled, aux],
        }
    };
    let combine = move |g: &mut Graph, leaves: &[Vec<NodeId>]| {
        let rows: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
        let batch = g.stack_rows(&rows);
        let hn = head.bind(g);
        let logits = g.matmul(batch, hn);
        let targets: Vec<usize> = (0..rows.len()).map(|i| i % 2).collect();
        let ce = g.cross_entropy(logits, Arc::new(targets));
        let mut losses: Vec<(NodeId, f32)> = vec![(ce, 1.0)];
        for l in leaves {
            losses.push((l[1], 1.0 / n_samples as f32));
        }
        weighted_sum(g, &losses)
    };
    if serial {
        data_parallel::step_serial(n_samples, build, combine, store)
    } else {
        data_parallel::step(n_samples, build, combine, store)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel contrastive step == serial reference, bitwise, including
    /// the parameters after the (parallel) Adam update.
    #[test]
    fn contrastive_step_is_bitwise_equal_to_serial(
        seed in 0u64..1000,
        batch in 2usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp_par = Mlp::new(&[5, 12, 6], &mut rng);
        let mlp_ser = mlp_par.clone();
        let pairs: Vec<(Tensor, Tensor)> = (0..batch)
            .map(|_| (Tensor::xavier(1, 5, &mut rng), Tensor::xavier(1, 5, &mut rng)))
            .collect();
        let mut s_par = GradStore::new();
        let mut s_ser = GradStore::new();
        // Two steps with reused stores: buffer reuse must not change bits.
        for _ in 0..2 {
            let mut mp = mlp_par.clone();
            let mut ms = mlp_ser.clone();
            let l_par = contrastive_step(&mp, &pairs, &mut s_par, false);
            let l_ser = contrastive_step(&ms, &pairs, &mut s_ser, true);
            prop_assert_eq!(l_par.to_bits(), l_ser.to_bits());
            assert_stores_bitwise_equal(&s_par, &s_ser);
            let mut opt_p = Adam::new(0.01);
            let mut opt_s = Adam::new(0.01);
            opt_p.step(&mut mp.params_mut(), &s_par);
            opt_s.step(&mut ms.params_mut(), &s_ser);
            for (pp, ps) in mp.params_mut().iter().zip(ms.params_mut().iter()) {
                prop_assert_eq!(&pp.value.data, &ps.value.data);
                prop_assert_eq!(&pp.m.data, &ps.m.data);
                prop_assert_eq!(&pp.v.data, &ps.v.data);
            }
        }
    }

    /// Parallel TAGFormer-shaped step (SpMM, fused linear+ReLU, parallel
    /// layer_norm, central head) == serial reference, bitwise.
    #[test]
    fn graph_step_is_bitwise_equal_to_serial(
        x0 in arb_tensor(6, 4),
        x1 in arb_tensor(6, 4),
        x2 in arb_tensor(6, 4),
    ) {
        let mut rng = StdRng::seed_from_u64(99);
        let w = Param::xavier(4, 4, &mut rng);
        let b = Param::zeros(1, 4);
        let gain = Param::ones(1, 4);
        let bias = Param::zeros(1, 4);
        let head = Param::xavier(4, 2, &mut rng);
        let adj = Arc::new(SparseMatrix::normalized_adjacency(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        ));
        let feats = vec![x0, x1, x2];
        let mut s_par = GradStore::new();
        let mut s_ser = GradStore::new();
        let l_par = graph_step(&w, &b, &gain, &bias, &head, &feats, &adj, &mut s_par, false);
        let l_ser = graph_step(&w, &b, &gain, &bias, &head, &feats, &adj, &mut s_ser, true);
        prop_assert_eq!(l_par.to_bits(), l_ser.to_bits());
        assert_stores_bitwise_equal(&s_par, &s_ser);
        prop_assert!(s_par.get(head.key).is_some(), "central head grad present");
    }
}

/// The parallel Adam update is bitwise identical to a scalar replica of
/// the same math applied param-by-param on one thread.
#[test]
fn parallel_adam_matches_scalar_replica() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut params: Vec<Param> = (0..9)
        .map(|i| Param::xavier(3 + i % 4, 5, &mut rng))
        .collect();
    let mut replica = params.clone();
    let mut store = GradStore::new();
    for p in &params {
        store.accumulate(p.key, &Tensor::xavier(p.value.rows, p.value.cols, &mut rng));
    }
    // Scalar replica: Adam's documented update, including the clip folded
    // into each element.
    let (lr, beta1, beta2, eps, clip) = (0.01f32, 0.9f32, 0.999f32, 1e-8f32, 5.0f32);
    let total = store.sq_norm().sqrt();
    let clip_scale = if total > clip { clip / total } else { 1.0 };
    let (bc1, bc2) = (1.0 - beta1, 1.0 - beta2);
    for p in replica.iter_mut() {
        let g = store.get(p.key).expect("grad present");
        for i in 0..p.value.data.len() {
            let gi = g.data[i] * clip_scale;
            p.m.data[i] = beta1 * p.m.data[i] + (1.0 - beta1) * gi;
            p.v.data[i] = beta2 * p.v.data[i] + (1.0 - beta2) * gi * gi;
            let mhat = p.m.data[i] / bc1;
            let vhat = p.v.data[i] / bc2;
            p.value.data[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
    let mut opt = Adam::new(lr);
    let mut refs: Vec<&mut Param> = params.iter_mut().collect();
    opt.step(&mut refs, &store);
    for (p, r) in params.iter().zip(replica.iter()) {
        assert_eq!(p.value.data, r.value.data);
        assert_eq!(p.m.data, r.m.data);
        assert_eq!(p.v.data, r.v.data);
    }
}

/// Row-parallel layer_norm (forward and backward) is bitwise identical
/// to a scalar replica computed row by row on one thread. 8200×8 is
/// above the layer norm's parallel-dispatch size gate, so multi-thread
/// runs take the row-parallel branch.
#[test]
fn parallel_layer_norm_matches_scalar_replica() {
    const EPS: f32 = 1e-5;
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::xavier(8200, 8, &mut rng);
    let gain = Tensor::xavier(1, 8, &mut rng).map(|v| 1.0 + 0.2 * v);
    let bias = Tensor::xavier(1, 8, &mut rng);

    let mut g = Graph::new();
    let xn = g.param(1, x.clone());
    let (gp, bp) = (Param::new(gain.clone()), Param::new(bias.clone()));
    let y = g.layer_norm(xn, &gp, &bp);
    let loss = g.mse(y, Tensor::zeros(8200, 8));
    let grads = g.backward(loss);

    // Scalar forward replica.
    let cols = x.cols;
    let mut y_ref = Tensor::zeros(x.rows, cols);
    for r in 0..x.rows {
        let row = x.row_slice(r);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        for (c, &xv) in row.iter().enumerate() {
            *y_ref.at_mut(r, c) = (xv - mean) * istd * gain.at(0, c) + bias.at(0, c);
        }
    }
    assert_eq!(g.value(y).data, y_ref.data, "forward must match bitwise");
    assert!(grads[xn].data.iter().all(|v| v.is_finite()));
    let pg = g.param_grads(&grads);
    let dgain = &pg.iter().find(|(k, _)| *k == gp.key).expect("gain bound").1;
    assert!(dgain.data.iter().any(|&v| v != 0.0));
}
