//! Tolerance tests for the opt-in FMA tier (`NETTAG_SIMD=fma`).
//!
//! The FMA tier fuses each multiply-add into one rounding, so its results
//! are NOT bitwise identical to the scalar references — that is the whole
//! point of keeping it opt-in. These tests bound the divergence instead:
//! elementwise kernels must stay within a few ulps of the scalar result,
//! and reductions (dot, matmul) within a relative bound scaled by the
//! magnitude of the terms. Every test self-skips on hosts without
//! avx2+fma, so the suite is safe to run unconditionally in CI.

use nettag_nn::simd::{self, AdamParams, LnBwdStats, SimdTier};
use nettag_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FMA table, or `None` (skip) when the host lacks it.
fn fma() -> Option<&'static simd::SimdKernels> {
    simd::kernels_for(SimdTier::Fma)
}

fn scalar() -> &'static simd::SimdKernels {
    simd::kernels_for(SimdTier::Scalar).expect("scalar tier always available")
}

/// Ulp distance between two finite f32s.
fn ulps(a: f32, b: f32) -> u32 {
    assert!(a.is_finite() && b.is_finite(), "non-finite: {a} vs {b}");
    let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
    // Map the sign-magnitude bit pattern onto a monotone integer line.
    let fix = |i: i64| {
        if i < 0x8000_0000 {
            i
        } else {
            0x8000_0000 - (i - 0x8000_0000)
        }
    };
    fix(ia).abs_diff(fix(ib)).min(u32::MAX as u64) as u32
}

fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Bound for one fused-vs-unfused mul-add `a*b + c`: fusing removes the
/// rounding of the product, so the divergence is at most one ulp **of the
/// product's magnitude** — when `a*b` and `c` cancel, that can be many
/// ulps of the (tiny) result, so bounds must scale with the terms, not
/// the result.
fn madd_close(got: f32, want: f32, term_scale: f32, what: &str) {
    assert!(
        (got - want).abs() <= 1e-6 * (1.0 + term_scale),
        "{what}: {got} vs {want} (terms ~{term_scale})"
    );
}

#[test]
fn fma_axpy_and_scale_add_within_ulp_bounds() {
    let Some(kf) = fma() else {
        eprintln!("host lacks avx2+fma — skipping");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0xF3A);
    for len in [1usize, 7, 8, 9, 31, 64, 127] {
        let x = rand_vec(&mut rng, len);
        let base = rand_vec(&mut rng, len);
        let a = rng.gen_range(-2.0f32..2.0);

        let mut got = base.clone();
        let mut want = base.clone();
        (kf.axpy)(&mut got, a, &x);
        (scalar().axpy)(&mut want, a, &x);
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            let scale = (a * x[i]).abs() + base[i].abs();
            madd_close(*g, *w, scale, &format!("axpy len {len} elem {i}"));
        }

        let mut got = base.clone();
        let mut want = base.clone();
        (kf.scale_add)(&mut got, a, &x);
        (scalar().scale_add)(&mut want, a, &x);
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            let scale = (a * base[i]).abs() + x[i].abs();
            madd_close(*g, *w, scale, &format!("scale_add len {len} elem {i}"));
        }

        // add_assign has no multiply to fuse — it must stay bitwise.
        let mut got = base.clone();
        let mut want = base.clone();
        (kf.add_assign)(&mut got, &x);
        (scalar().add_assign)(&mut want, &x);
        assert_eq!(got, want, "add_assign must be exact even in the FMA tier");
    }
}

#[test]
fn fma_dot_and_matmul_within_scaled_relative_bounds() {
    let Some(_) = fma() else {
        eprintln!("host lacks avx2+fma — skipping");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0xD07);
    for len in [4usize, 16, 63, 256, 1000] {
        let a = rand_vec(&mut rng, len);
        let b = rand_vec(&mut rng, len);
        let got = simd::with_tier(SimdTier::Fma, || {
            let t = Tensor::row(a.clone());
            let u = Tensor::row(b.clone());
            t.matmul_bt(&u).data[0]
        })
        .expect("fma available");
        let want = simd::with_tier(SimdTier::Scalar, || {
            let t = Tensor::row(a.clone());
            let u = Tensor::row(b.clone());
            t.matmul_bt(&u).data[0]
        })
        .expect("scalar available");
        // Relative to the magnitude of the summed terms, not the (possibly
        // cancelling) result.
        let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(
            (got - want).abs() <= 1e-5 * (1.0 + scale),
            "dot len {len}: {got} vs {want} (scale {scale})"
        );
    }

    // Whole matmul + fused-bias path under the forced FMA tier.
    let a = Tensor::from_vec(13, 40, rand_vec(&mut rng, 13 * 40));
    let w = Tensor::from_vec(40, 17, rand_vec(&mut rng, 40 * 17));
    let bias = Tensor::from_vec(1, 17, rand_vec(&mut rng, 17));
    let got = simd::with_tier(SimdTier::Fma, || a.matmul_bias(&w, &bias)).expect("fma available");
    let want =
        simd::with_tier(SimdTier::Scalar, || a.matmul_bias(&w, &bias)).expect("scalar available");
    for (i, (g, s)) in got.data.iter().zip(want.data.iter()).enumerate() {
        // Inner dim 40, |terms| ≤ 4 ⇒ |sum of |terms|| ≤ 160.
        assert!(
            (g - s).abs() <= 1e-5 * (1.0 + 160.0),
            "matmul_bias elem {i}: {g} vs {s}"
        );
    }
}

/// The fused `mm_bt_tile` and the 8-wide `mm_tile` panel, raw and
/// through `matmul_bt`/`matmul_at`: every element within a relative bound
/// scaled by the sum of its terms' magnitudes (inner dims 3, 8 and 19
/// reach the `dot` k-tail, no tail, and both).
#[test]
fn fma_transposed_and_narrow_tiles_within_scaled_bounds() {
    let Some(kf) = fma() else {
        eprintln!("host lacks avx2+fma — skipping");
        return;
    };
    let (rt, lanes) = (simd::MM_RT, simd::LANES);
    let mut rng = StdRng::seed_from_u64(0x7B7);
    for inner in [3usize, 8, 19] {
        let a = Tensor::from_vec(rt, inner, rand_vec(&mut rng, rt * inner));
        let arows: [&[f32]; 4] = std::array::from_fn(|r| a.row_slice(r));
        // Packed Bᵀ / B panel: inner × 8, row stride 8.
        let b = rand_vec(&mut rng, inner * lanes);
        let seed = rand_vec(&mut rng, rt * lanes);
        let scale = |r: usize, c: usize| -> f32 {
            (0..inner)
                .map(|k| (a.at(r, k) * b[k * lanes + c]).abs())
                .sum::<f32>()
                + seed[r * lanes + c].abs()
        };
        for accumulate in [false, true] {
            let (mut got, mut want) = (seed.clone(), seed.clone());
            (kf.mm_bt_tile)(&arows, &b, lanes, &mut got, lanes, accumulate);
            (scalar().mm_bt_tile)(&arows, &b, lanes, &mut want, lanes, accumulate);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let what = format!("mm_bt_tile inner {inner} acc {accumulate} elem {i}");
                madd_close(*g, *w, 10.0 * scale(i / lanes, i % lanes), &what);
            }
        }
        let (mut got, mut want) = (seed.clone(), seed.clone());
        (kf.mm_tile)(&arows, &b, lanes, &mut got, lanes, lanes);
        (scalar().mm_tile)(&arows, &b, lanes, &mut want, lanes, lanes);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let what = format!("mm_tile width 8 inner {inner} elem {i}");
            madd_close(*g, *w, 10.0 * scale(i / lanes, i % lanes), &what);
        }

        for n in [8usize, 16, 24, 48] {
            let x = Tensor::from_vec(11, inner, rand_vec(&mut rng, 11 * inner));
            let y = Tensor::from_vec(n, inner, rand_vec(&mut rng, n * inner));
            let z = Tensor::from_vec(11, n, rand_vec(&mut rng, 11 * n));
            let run =
                |tier| simd::with_tier(tier, || (x.matmul_bt(&y), x.matmul_at(&z))).expect("tier");
            let ((bt_f, at_f), (bt_s, at_s)) = (run(SimdTier::Fma), run(SimdTier::Scalar));
            // |terms| ≤ 4, at most 19 (bt) or 11 (at) of them per element.
            for (i, (g, s)) in bt_f.data.iter().zip(&bt_s.data).enumerate() {
                let what = format!("matmul_bt n {n} inner {inner} elem {i}");
                madd_close(*g, *s, 10.0 * 4.0 * inner as f32, &what);
            }
            for (i, (g, s)) in at_f.data.iter().zip(&at_s.data).enumerate() {
                madd_close(
                    *g,
                    *s,
                    10.0 * 44.0,
                    &format!("matmul_at n {n} m {inner} elem {i}"),
                );
            }
        }
    }
}

#[test]
fn fma_layernorm_rows_within_ulp_bounds() {
    let Some(kf) = fma() else {
        eprintln!("host lacks avx2+fma — skipping");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0x11F);
    for cols in [5usize, 8, 19, 64] {
        let x = rand_vec(&mut rng, cols);
        let gain = rand_vec(&mut rng, cols);
        let bias = rand_vec(&mut rng, cols);
        let mean = x.iter().sum::<f32>() / cols as f32;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + 1e-5).sqrt();

        let (mut out_f, mut xhat_f) = (vec![0.0f32; cols], vec![0.0f32; cols]);
        let (mut out_s, mut xhat_s) = (vec![0.0f32; cols], vec![0.0f32; cols]);
        (kf.ln_fwd_row)(&mut out_f, &mut xhat_f, &x, &gain, &bias, mean, istd);
        (scalar().ln_fwd_row)(&mut out_s, &mut xhat_s, &x, &gain, &bias, mean, istd);
        // xhat has no fusable mul-add — exact; out fuses one madd.
        assert_eq!(xhat_f, xhat_s, "xhat must be exact");
        for (i, (g, w)) in out_f.iter().zip(out_s.iter()).enumerate() {
            let scale = (xhat_s[i] * gain[i]).abs() + bias[i].abs();
            madd_close(*g, *w, scale, &format!("ln_fwd cols {cols} elem {i}"));
        }

        let g_row = rand_vec(&mut rng, cols);
        let st = LnBwdStats {
            istd,
            sum_gdy: g_row.iter().zip(&gain).map(|(g, gn)| g * gn).sum(),
            sum_gdy_xhat: g_row
                .iter()
                .zip(&gain)
                .zip(&xhat_s)
                .map(|((g, gn), xh)| g * gn * xh)
                .sum(),
            cols: cols as f32,
        };
        let mut dx_f = vec![0.1f32; cols];
        let mut dx_s = vec![0.1f32; cols];
        (kf.ln_bwd_row)(&mut dx_f, &g_row, &gain, &xhat_s, &st);
        (scalar().ln_bwd_row)(&mut dx_s, &g_row, &gain, &xhat_s, &st);
        for (i, (g, w)) in dx_f.iter().zip(dx_s.iter()).enumerate() {
            // The fused op is `dx += istd*(t-u)`; the scalar result's own
            // delta bounds that product's magnitude.
            let scale = (dx_s[i] - 0.1).abs() + 0.1;
            madd_close(*g, *w, scale, &format!("ln_bwd cols {cols} elem {i}"));
        }
    }
}

#[test]
fn fma_adam_update_within_ulp_bounds() {
    let Some(kf) = fma() else {
        eprintln!("host lacks avx2+fma — skipping");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0xADA);
    for (wd, n) in [(0.0f32, 27), (0.01, 27), (0.01, 8), (0.0, 3)] {
        let h = AdamParams {
            clip_scale: 0.9,
            beta1: 0.9,
            beta2: 0.999,
            bc1: 0.1,
            bc2: 0.001,
            lr: 0.01,
            eps: 1e-8,
            weight_decay: wd,
        };
        let g = rand_vec(&mut rng, n);
        let (mut val_f, mut m_f, mut v_f) = (
            rand_vec(&mut rng, n),
            rand_vec(&mut rng, n),
            (0..n)
                .map(|_| rng.gen_range(0.0f32..1.0))
                .collect::<Vec<_>>(),
        );
        let (mut val_s, mut m_s, mut v_s) = (val_f.clone(), m_f.clone(), v_f.clone());
        (kf.adam_update)(&mut val_f, &mut m_f, &mut v_f, &g, &h);
        (scalar().adam_update)(&mut val_s, &mut m_s, &mut v_s, &g, &h);
        for i in 0..n {
            assert!(
                ulps(m_f[i], m_s[i]) <= 8,
                "m[{i}]: {} vs {}",
                m_f[i],
                m_s[i]
            );
            assert!(
                ulps(v_f[i], v_s[i]) <= 8,
                "v[{i}]: {} vs {}",
                v_f[i],
                v_s[i]
            );
            assert!(
                ulps(val_f[i], val_s[i]) <= 16,
                "value[{i}] (wd {wd}): {} vs {}",
                val_f[i],
                val_s[i]
            );
        }
    }
}

/// FMA must never be reachable without the explicit opt-in: auto dispatch
/// and the scalar/avx2 forces resolve to non-fusing tiers.
#[test]
fn fma_tier_is_opt_in_only() {
    if std::env::var("NETTAG_SIMD").ok().as_deref() != Some("fma") {
        assert_ne!(
            simd::active_tier(),
            SimdTier::Fma,
            "FMA selected without NETTAG_SIMD=fma"
        );
    }
}
