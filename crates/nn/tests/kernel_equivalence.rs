//! Property tests pinning the parallel/blocked kernels to their scalar
//! references: CSR SpMM against a nested-Vec reference, blocked matmul
//! against the branch-free triple loop (bitwise, thanks to deterministic
//! per-element reduction order), fused-linear forward/backward against
//! composed primitive ops on a fixed-seed TAGFormer-shaped step, and
//! linear attention's forward/backward across tiers and thread counts.

use nettag_nn::simd::{self, SimdTier};
use nettag_nn::{Graph, Param, SparseMatrix, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every dispatch tier available on this host; each must be **bitwise**
/// identical to the scalar references. On hosts without AVX2 this is just
/// the scalar tier — the tests still pin the forced-scalar path.
fn bitwise_tiers() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2]
        .into_iter()
        .filter(|&t| simd::kernels_for(t).is_some())
        .collect()
}

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// Output widths that reach every transposed-product path: 7 is all
/// column remainder, 8 one 8-wide tile, 16 one 16-wide tile, 24 a 16- and
/// an 8-wide tile, 48 several. Drawn tensors are sized for the largest.
const WIDTHS: [usize; 5] = [7, 8, 16, 24, 48];
/// Inner dims: 3 is all `dot` k-tail, 8 has no tail, 19 has both.
const INNERS: [usize; 3] = [3, 8, 19];
const MAX_WIDTH: usize = 48;
const MAX_INNER: usize = 19;

/// The top-left `rows`×`cols` block of `t`.
fn block(t: &Tensor, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows)
        .flat_map(|r| t.row_slice(r)[..cols].to_vec())
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// `t` with a zeroed first row and every entry below -1 replaced by
/// `-0.0`, so accumulating seeds exercise signed-zero additions.
fn with_signed_zeros(t: &Tensor) -> Tensor {
    let mut out = t.map(|v| if v < -1.0 { -0.0 } else { v });
    out.data[..t.cols].fill(-0.0);
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Nested-Vec sparse reference: the seed's original representation,
/// rebuilt from triplets, applied with the seed's original loop.
fn spmm_nested_ref(n: usize, triplets: &[(u32, u32, f32)], x: &Tensor) -> Tensor {
    let mut rows: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
    for &(r, c, w) in triplets {
        rows[r as usize].push((c, w));
    }
    let mut out = Tensor::zeros(n, x.cols);
    for (i, row) in rows.iter().enumerate() {
        let orow = &mut out.data[i * x.cols..(i + 1) * x.cols];
        for &(c, w) in row {
            let xrow = x.row_slice(c as usize);
            for (o, &v) in orow.iter_mut().zip(xrow.iter()) {
                *o += w * v;
            }
        }
    }
    out
}

fn spmm_t_nested_ref(n: usize, triplets: &[(u32, u32, f32)], x: &Tensor) -> Tensor {
    let transposed: Vec<(u32, u32, f32)> = triplets.iter().map(|&(r, c, w)| (c, r, w)).collect();
    spmm_nested_ref(n, &transposed, x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CSR SpMM (forward and transpose) matches the nested-Vec reference.
    #[test]
    fn csr_spmm_matches_nested_vec_reference(
        edges in prop::collection::vec((0u32..12, 0u32..12, -1.0f32..1.0), 0..40),
        x in arb_tensor(12, 5),
    ) {
        let m = SparseMatrix::from_triplets(12, edges.clone());
        prop_assert_eq!(m.nnz(), edges.len());
        let y = m.matmul(&x);
        let y_ref = spmm_nested_ref(12, &edges, &x);
        for (a, b) in y.data.iter().zip(y_ref.data.iter()) {
            prop_assert!((a - b).abs() < 1e-5, "spmm {} vs {}", a, b);
        }
        let yt = m.matmul_t(&x);
        let yt_ref = spmm_t_nested_ref(12, &edges, &x);
        for (a, b) in yt.data.iter().zip(yt_ref.data.iter()) {
            prop_assert!((a - b).abs() < 1e-5, "spmm_t {} vs {}", a, b);
        }
    }

    /// The blocked (and, on multi-core hosts, parallel) matmul is bitwise
    /// identical to the scalar reference: both accumulate each output
    /// element in ascending inner-index order.
    #[test]
    fn blocked_matmul_is_bitwise_equal_to_scalar(
        a in arb_tensor(13, 21),
        b in arb_tensor(21, 17),
    ) {
        prop_assert_eq!(a.matmul(&b).data, a.matmul_ref(&b).data);
    }

    /// Same bitwise pin for the transposed product kernels, over every
    /// width × inner combination (11 rows leave a 3-row remainder under
    /// the 4-row tiles).
    #[test]
    fn transposed_kernels_are_bitwise_equal_to_scalar(
        a in arb_tensor(11, MAX_INNER),
        bt in arb_tensor(MAX_WIDTH, MAX_INNER),
        at in arb_tensor(11, MAX_WIDTH),
    ) {
        for n in WIDTHS {
            for inner in INNERS {
                let (a, bt) = (block(&a, 11, inner), block(&bt, n, inner));
                prop_assert_eq!(
                    bits(&a.matmul_bt(&bt)), bits(&a.matmul_bt_ref(&bt)),
                    "matmul_bt n {} inner {}", n, inner
                );
                // `a` doubles as the k×m left operand: m = inner here.
                let at = block(&at, 11, n);
                prop_assert_eq!(
                    bits(&a.matmul_at(&at)), bits(&a.matmul_at_ref(&at)),
                    "matmul_at n {} m {}", n, inner
                );
            }
        }
    }

    /// Accumulating entry points equal allocate-then-add, and the
    /// overwriting ones ignore what `out` held, over every width × inner
    /// combination with `-0.0` seeds. `matmul_bt_into` adds each finished
    /// dot product once, so it is pinned bitwise to `seed + dot`; the
    /// other products accumulate into the seed term by term, so they are
    /// pinned within a tolerance.
    #[test]
    fn accumulate_kernels_match_allocate_then_add(
        a in arb_tensor(6, MAX_INNER),
        b in arb_tensor(MAX_INNER, MAX_WIDTH),
        bt in arb_tensor(MAX_WIDTH, MAX_INNER),
        at in arb_tensor(6, MAX_WIDTH),
        seed in arb_tensor(MAX_INNER, MAX_WIDTH),
    ) {
        let close = |got: &Tensor, want: &Tensor| {
            got.data.iter().zip(&want.data).all(|(u, v)| (u - v).abs() <= 1e-5 * (1.0 + v.abs()))
        };
        for n in WIDTHS {
            for inner in INNERS {
                let a = block(&a, 6, inner);
                let (b, bt) = (block(&b, inner, n), block(&bt, n, inner));
                let seed_mn = with_signed_zeros(&block(&seed, 6, n));
                let reference = a.matmul_ref(&b);
                let mut acc = seed_mn.clone();
                a.matmul_into(&b, &mut acc, true);
                let composed = seed_mn.zip(&reference, |x, y| x + y);
                prop_assert!(close(&acc, &composed), "matmul n {} inner {}", n, inner);

                let reference = a.matmul_bt_ref(&bt);
                let mut acc = seed_mn.clone();
                a.matmul_bt_into(&bt, &mut acc, true);
                let composed = seed_mn.zip(&reference, |x, y| x + y);
                let mut over = seed_mn.clone();
                a.matmul_bt_into(&bt, &mut over, false);
                let what = format!("matmul_bt n {n} inner {inner}");
                prop_assert_eq!(bits(&acc), bits(&composed), "{} +=", what);
                prop_assert_eq!(bits(&over), bits(&reference), "{} =", what);

                let at = block(&at, 6, n);
                let seed_in = with_signed_zeros(&block(&seed, inner, n));
                let reference = a.matmul_at_ref(&at);
                let mut acc = seed_in.clone();
                a.matmul_at_into(&at, &mut acc, true);
                let composed = seed_in.zip(&reference, |x, y| x + y);
                prop_assert!(close(&acc, &composed), "matmul_at n {} m {}", n, inner);
                let mut over = seed_in.clone();
                a.matmul_at_into(&at, &mut over, false);
                prop_assert_eq!(bits(&over), bits(&reference), "matmul_at n {} m {}", n, inner);
            }
        }
    }
}

/// A fixed-seed TAGFormer-shaped training step — graph propagation over a
/// CLS-augmented adjacency, a fused linear layer, contrastive-style
/// normalization — must produce the same loss and parameter gradients as
/// the same computation built only from primitive (unfused) ops.
#[test]
fn fixed_seed_tagformer_step_gradients_unchanged() {
    let mut rng = StdRng::seed_from_u64(0x7AF);
    let n = 10;
    let dim = 16;
    let feats = Tensor::xavier(n, dim, &mut rng);
    let w = Tensor::xavier(dim, dim, &mut rng);
    let b = Tensor::xavier(1, dim, &mut rng);
    let w2 = Tensor::xavier(dim, 8, &mut rng);
    let b2 = Tensor::xavier(1, 8, &mut rng);
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let adj = std::sync::Arc::new(SparseMatrix::normalized_adjacency(n, &edges));

    let (w, b, w2, b2) = (Param::new(w), Param::new(b), Param::new(w2), Param::new(b2));

    let run = |fused: bool| -> (f32, Vec<(usize, Tensor)>) {
        let mut g = Graph::new();
        let x = g.constant(feats.clone());
        let p = g.spmm(adj.clone(), x);
        let h = if fused {
            g.linear_relu(p, &w, &b)
        } else {
            let (wn, bn) = (w.bind(&mut g), b.bind(&mut g));
            let mm = g.matmul(p, wn);
            let aff = g.add_row(mm, bn);
            g.relu(aff)
        };
        let z = if fused {
            g.linear(h, &w2, &b2)
        } else {
            let (w2n, b2n) = (w2.bind(&mut g), b2.bind(&mut g));
            let mm = g.matmul(h, w2n);
            g.add_row(mm, b2n)
        };
        let zn = g.normalize_rows(z);
        let sim = g.matmul_bt(zn, zn);
        let loss = g.cross_entropy(sim, std::sync::Arc::new((0..n).collect()));
        let lv = g.value(loss).item();
        let grads = g.backward(loss);
        (lv, g.param_grads(&grads))
    };

    let (loss_f, grads_f) = run(true);
    let (loss_c, grads_c) = run(false);
    assert_eq!(loss_f, loss_c, "forward loss must be identical");
    assert_eq!(grads_f.len(), grads_c.len());
    for ((kf, gf), (kc, gc)) in grads_f.iter().zip(grads_c.iter()) {
        assert_eq!(kf, kc);
        for (a, b) in gf.data.iter().zip(gc.data.iter()) {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "param {kf}: {a} vs {b}"
            );
        }
    }
}

/// The layer norm's tape forward + backward above its parallel-dispatch
/// size gate (1100×64): bitwise equal across bitwise tiers, and equal to
/// the same step run inside a parallel region, where nested dispatch
/// runs inline — so at `RAYON_NUM_THREADS>1` the row-parallel branch is
/// pinned to the serial one.
#[test]
fn layer_norm_above_parallel_gate_is_bitwise_across_tiers_and_threads() {
    let mut rng = StdRng::seed_from_u64(31);
    let x = Tensor::xavier(1100, 64, &mut rng);
    let gain = Param::new(Tensor::xavier(1, 64, &mut rng).map(|v| 1.0 + v));
    let bias = Param::new(Tensor::xavier(1, 64, &mut rng));
    let target = Tensor::xavier(1100, 64, &mut rng);
    let step = || {
        let mut g = Graph::new();
        let xn = g.param(0, x.clone());
        let y = g.layer_norm(xn, &gain, &bias);
        let loss = g.mse(y, target.clone());
        let grads = g.backward(loss);
        let mut out = g.value(y).data.clone();
        for t in [&grads[xn]]
            .into_iter()
            .chain(g.param_grads(&grads).iter().map(|(_, t)| t))
        {
            out.extend(&t.data);
        }
        out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let reference = simd::with_tier(SimdTier::Scalar, step).expect("scalar tier");
    for tier in bitwise_tiers() {
        let got = simd::with_tier(tier, step).expect("tier filtered as available");
        assert_eq!(got, reference, "layer_norm tier {tier:?} diverged");
    }
    let nested = nettag_par::map_indexed(2, |_| simd::with_tier(SimdTier::Scalar, step));
    for got in nested {
        assert_eq!(got.expect("scalar tier"), reference, "parallel vs inline");
    }
}

/// Linear attention's tape forward + backward with its dense kernels
/// above the parallel-dispatch gate (1100×16 operands: `k̃ᵀv`, `q̃(k̃ᵀv)`
/// and their adjoints are ~280k multiply-adds each): the scalar tier,
/// auto dispatch and every bitwise tier agree bit for bit, and so does
/// the same step run inline inside a parallel region — so the CI
/// matrix's 1- and 4-thread cells pin the row-parallel branches to the
/// serial ones.
#[test]
fn linear_attention_is_bitwise_across_tiers_and_threads() {
    let mut rng = StdRng::seed_from_u64(47);
    let [q, k, v, target] = [0; 4].map(|_| Tensor::xavier(1100, 16, &mut rng));
    let step = || {
        let mut g = Graph::new();
        let qn = g.param(0, q.clone());
        let kn = g.param(1, k.clone());
        let vn = g.param(2, v.clone());
        let y = g.linear_attention(qn, kn, vn);
        let loss = g.mse(y, target.clone());
        let grads = g.backward(loss);
        let mut out = g.value(y).data.clone();
        for id in [qn, kn, vn] {
            out.extend(&grads[id].data);
        }
        out.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
    };
    let reference = simd::with_tier(SimdTier::Scalar, step).expect("scalar tier");
    assert_eq!(step(), reference, "auto dispatch diverged from scalar");
    for tier in bitwise_tiers() {
        let got = simd::with_tier(tier, step).expect("tier filtered as available");
        assert_eq!(got, reference, "linear attention tier {tier:?} diverged");
    }
    let nested = nettag_par::map_indexed(2, |i| {
        if i == 0 {
            simd::with_tier(SimdTier::Scalar, step).expect("scalar tier")
        } else {
            step()
        }
    });
    for got in nested {
        assert_eq!(got, reference, "parallel vs inline");
    }
}

/// Thread-count invariance: whatever `RAYON_NUM_THREADS` resolves to in
/// this process, kernels must equal their scalar references (the CI
/// matrix exercises 1 and many). Shapes here are deliberately above the
/// `PAR_MIN_FLOPS` dispatch threshold (160·162·168 ≈ 4.4M multiply-adds; the
/// SpMM touches ≈ 1.9M), so on multi-thread hosts this test pins the
/// actual parallel row-partitioned code path, not the inline fallback.
#[test]
fn kernels_match_references_at_resolved_thread_count() {
    let mut rng = StdRng::seed_from_u64(5150);
    // Inner 162 leaves a `dot` k-tail; width 168 ends in an 8-wide panel.
    let a = Tensor::xavier(160, 162, &mut rng);
    let b = Tensor::xavier(162, 168, &mut rng);
    let c = Tensor::xavier(168, 162, &mut rng);
    assert_eq!(a.matmul(&b).data, a.matmul_ref(&b).data);
    assert_eq!(a.matmul_bt(&c).data, a.matmul_bt_ref(&c).data);
    assert_eq!(b.matmul_at(&b).data, b.matmul_at_ref(&b).data);
    let edges: Vec<(u32, u32)> = (0..4999u32).map(|i| (i, i + 1)).collect();
    let adj = SparseMatrix::normalized_adjacency(5000, &edges);
    let x = Tensor::xavier(5000, 128, &mut rng);
    let y = adj.matmul(&x);
    let triplets: Vec<(u32, u32, f32)> = (0..5000)
        .flat_map(|i| adj.row_entries(i).map(move |(c, w)| (i as u32, c, w)))
        .collect();
    let y_ref = spmm_nested_ref(5000, &triplets, &x);
    for (u, v) in y.data.iter().zip(y_ref.data.iter()) {
        assert!((u - v).abs() < 1e-5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every bitwise tier available on the host produces identical bits
    /// for the dense/transposed/fused-bias/sparse kernels. Shapes are
    /// deliberately below `PAR_MIN_FLOPS` so the whole computation stays
    /// on the calling thread, where `with_tier` forces the table (the
    /// process-wide CI matrix covers the parallel paths via NETTAG_SIMD).
    #[test]
    fn all_bitwise_tiers_agree_on_every_kernel(
        a in arb_tensor(13, 21),
        b in arb_tensor(21, 17),
        bt in arb_tensor(7, 21),
        bias in arb_tensor(1, 17),
        edges in prop::collection::vec((0u32..13, 0u32..13, -1.0f32..1.0), 0..40),
        wide_b in arb_tensor(MAX_INNER, MAX_WIDTH),
        wide_bt in arb_tensor(MAX_WIDTH, MAX_INNER),
        seed in arb_tensor(13, MAX_WIDTH),
    ) {
        let m = SparseMatrix::from_triplets(13, edges);
        let compute = || {
            let mm = a.matmul(&b);
            let mb = a.matmul_bias(&b, &bias);
            let mbt = a.matmul_bt(&bt);
            let mat = a.matmul_at(&a);
            let sp = m.matmul(&a);
            let mut shaped = Vec::new();
            for n in WIDTHS {
                for inner in INNERS {
                    let a = block(&a, 13, inner);
                    let (b, bt) = (block(&wide_b, inner, n), block(&wide_bt, n, inner));
                    shaped.push(bits(&a.matmul(&b)));
                    shaped.push(bits(&a.matmul_at(&block(&seed, 13, n))));
                    for accumulate in [false, true] {
                        let mut out = with_signed_zeros(&block(&seed, 13, n));
                        a.matmul_bt_into(&bt, &mut out, accumulate);
                        shaped.push(bits(&out));
                    }
                }
            }
            (mm.data, mb.data, mbt.data, mat.data, sp.data, shaped)
        };
        let reference = simd::with_tier(SimdTier::Scalar, compute).expect("scalar tier");
        for tier in bitwise_tiers() {
            let got = simd::with_tier(tier, compute).expect("tier filtered as available");
            prop_assert_eq!(&got, &reference, "tier {:?} diverged", tier);
        }
    }

    /// The raw lane primitives agree bit-for-bit across bitwise tiers,
    /// including the scalar tails (lengths straddle the 8-lane width).
    #[test]
    fn all_bitwise_tiers_agree_on_raw_primitives(
        xs in prop::collection::vec(-2.0f32..2.0, 37),
        ys in prop::collection::vec(-2.0f32..2.0, 37),
        a in -2.0f32..2.0,
    ) {
        let scalar = simd::kernels_for(SimdTier::Scalar).expect("scalar tier");
        for tier in bitwise_tiers() {
            let kn = simd::kernels_for(tier).expect("tier filtered as available");
            for len in [0usize, 1, 3, 8, 9, 16, 31, 37] {
                let (x, y) = (&xs[..len], &ys[..len]);
                let mut out_t = ys[..len].to_vec();
                let mut out_s = out_t.clone();
                (kn.axpy)(&mut out_t, a, x);
                (scalar.axpy)(&mut out_s, a, x);
                prop_assert_eq!(&out_t, &out_s, "axpy len {} tier {:?}", len, tier);

                let mut out_t = ys[..len].to_vec();
                let mut out_s = out_t.clone();
                (kn.add_assign)(&mut out_t, x);
                (scalar.add_assign)(&mut out_s, x);
                prop_assert_eq!(&out_t, &out_s, "add_assign len {} tier {:?}", len, tier);

                let mut out_t = ys[..len].to_vec();
                let mut out_s = out_t.clone();
                (kn.scale_add)(&mut out_t, a, x);
                (scalar.scale_add)(&mut out_s, a, x);
                prop_assert_eq!(&out_t, &out_s, "scale_add len {} tier {:?}", len, tier);

                let d_t = (kn.dot)(x, y);
                let d_s = (scalar.dot)(x, y);
                prop_assert_eq!(d_t.to_bits(), d_s.to_bits(), "dot len {} tier {:?}", len, tier);
            }
        }
    }

    /// Row-parallel layer norm (forward + backward through the tape) and
    /// the fused Adam update are bitwise identical across bitwise tiers.
    #[test]
    fn all_bitwise_tiers_agree_on_layernorm_and_adam(
        x in arb_tensor(5, 19),
        gain in arb_tensor(1, 19),
        bias in arb_tensor(1, 19),
        grad in prop::collection::vec(-1.0f32..1.0, 27),
    ) {
        let (gain, bias) = (Param::new(gain), Param::new(bias));
        let step = || {
            let mut g = Graph::new();
            let xn = g.constant(x.clone());
            let y = g.layer_norm(xn, &gain, &bias);
            let loss = g.mse(y, Tensor::zeros(x.rows, x.cols));
            let grads = g.backward(loss);
            let mut out = vec![g.value(loss).item()];
            for (_, t) in g.param_grads(&grads) {
                out.extend(t.data);
            }
            out
        };
        let reference = simd::with_tier(SimdTier::Scalar, step).expect("scalar tier");
        for tier in bitwise_tiers() {
            let got = simd::with_tier(tier, step).expect("tier filtered as available");
            prop_assert_eq!(&got, &reference, "layer_norm tier {:?} diverged", tier);
        }

        let scalar = simd::kernels_for(SimdTier::Scalar).expect("scalar tier");
        let h = simd::AdamParams {
            clip_scale: 0.75,
            beta1: 0.9,
            beta2: 0.999,
            bc1: 0.1,
            bc2: 0.001,
            lr: 0.01,
            eps: 1e-8,
            weight_decay: 0.01,
        };
        for tier in bitwise_tiers() {
            let kn = simd::kernels_for(tier).expect("tier filtered as available");
            let n = grad.len();
            let (mut val_t, mut m_t, mut v_t) =
                (vec![0.5f32; n], vec![0.1f32; n], vec![0.2f32; n]);
            let (mut val_s, mut m_s, mut v_s) = (val_t.clone(), m_t.clone(), v_t.clone());
            (kn.adam_update)(&mut val_t, &mut m_t, &mut v_t, &grad, &h);
            (scalar.adam_update)(&mut val_s, &mut m_s, &mut v_s, &grad, &h);
            prop_assert_eq!(&val_t, &val_s, "adam value tier {:?}", tier);
            prop_assert_eq!(&m_t, &m_s, "adam m tier {:?}", tier);
            prop_assert_eq!(&v_t, &v_s, "adam v tier {:?}", tier);
        }
    }
}

/// The resolved tier honors the `NETTAG_SIMD` override this process was
/// launched with (the CI matrix runs `scalar` and `auto`): forcing
/// `scalar` must pin the scalar table; `avx2`, `auto`, unset and unknown
/// names (`fma` included) all resolve to auto-dispatch, which is AVX2
/// when the host has it.
#[test]
fn active_tier_matches_env() {
    let auto = if simd::kernels_for(SimdTier::Avx2).is_some() {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    };
    let want = match std::env::var("NETTAG_SIMD").ok().as_deref() {
        Some("scalar") => SimdTier::Scalar,
        _ => auto,
    };
    assert_eq!(simd::active_tier(), want);
}

/// The kernel table is public and safe to call, so an operand shorter than
/// a kernel's contract must panic in every tier — in release builds too,
/// where the wide tiers' unchecked vector loads and stores would otherwise
/// read or write past the slice. The wide tiers check before they touch
/// anything, so a rejected call also leaves every buffer as it was (the
/// scalar loops index as they go and may panic midway).
#[test]
fn short_operands_panic_in_every_tier() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const N: usize = 2 * simd::LANES;
    let h = simd::AdamParams {
        clip_scale: 1.0,
        beta1: 0.9,
        beta2: 0.999,
        bc1: 0.1,
        bc2: 0.001,
        lr: 1e-3,
        eps: 1e-8,
        weight_decay: 0.0,
    };
    let st = simd::LnBwdStats {
        istd: 1.0,
        sum_gdy: 0.5,
        sum_gdy_xhat: 0.25,
        cols: N as f32,
    };
    type Call = Box<dyn Fn(&simd::SimdKernels, &mut [Vec<f32>])>;
    // (case, operand lengths, call): each case makes one operand short.
    let mut cases: Vec<(String, Vec<usize>, Call)> = vec![
        (
            "spmm_tile out".into(),
            vec![2 * simd::SPMM_CT, simd::SPMM_CT - 1],
            Box::new(|k, b| {
                let [x, out] = b else { unreachable!() };
                (k.spmm_tile)(&[0], &[1.0], x, simd::SPMM_CT, out);
            }),
        ),
        (
            "spmm_tile column past x".into(),
            vec![2 * simd::SPMM_CT, simd::SPMM_CT],
            Box::new(|k, b| {
                let [x, out] = b else { unreachable!() };
                (k.spmm_tile)(&[0, 2], &[1.0, 1.0], x, simd::SPMM_CT, out);
            }),
        ),
    ];
    let short = |len: usize, slot: usize| -> Vec<usize> {
        (0..len)
            .map(|i| if i == slot { N - 1 } else { N })
            .collect()
    };
    for slot in 1..5 {
        cases.push((
            format!("ln_fwd_row operand {slot}"),
            short(5, slot),
            Box::new(|k, b| {
                let [out, xhat, x, gain, bias] = b else {
                    unreachable!()
                };
                (k.ln_fwd_row)(out, xhat, x, gain, bias, 0.1, 2.0);
            }),
        ));
    }
    for slot in 1..4 {
        cases.push((
            format!("ln_bwd_row operand {slot}"),
            short(4, slot),
            Box::new(move |k, b| {
                let [dx, g, gain, xhat] = b else {
                    unreachable!()
                };
                (k.ln_bwd_row)(dx, g, gain, xhat, &st);
            }),
        ));
    }
    for slot in 1..4 {
        cases.push((
            format!("adam_update operand {slot}"),
            short(4, slot),
            Box::new(move |k, b| {
                let [value, m, v, g] = b else { unreachable!() };
                (k.adam_update)(value, m, v, g, &h);
            }),
        ));
    }
    for tier in bitwise_tiers() {
        let k = simd::kernels_for(tier).expect("listed tiers are available");
        for (name, lens, call) in &cases {
            let before: Vec<Vec<f32>> = lens.iter().map(|&n| vec![0.5; n]).collect();
            let mut bufs = before.clone();
            let caught = catch_unwind(AssertUnwindSafe(|| call(k, &mut bufs)));
            assert!(caught.is_err(), "{name}: tier {tier:?} accepted it");
            if tier != SimdTier::Scalar {
                assert_eq!(bufs, before, "{name}: tier {tier:?} wrote first");
            }
        }
    }
}
