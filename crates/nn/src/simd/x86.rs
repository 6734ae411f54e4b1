//! The workspace's `std::arch::x86_64` instantiation of the lane-kernel
//! table — one of its two `unsafe` sites (the other is the lifetime-erasing
//! `transmute` in `nettag-par`'s `pool.rs`).
//!
//! Safety architecture:
//!
//! * The table is only handed out by [`avx2_kernels`] after
//!   `is_x86_feature_detected!` confirms AVX2, so the `#[target_feature]`
//!   implementations can never run on a host that lacks the instructions.
//! * Every pointer-width memory access goes through the `load`/`store`
//!   helpers (debug bounds asserts). The table is public, so each kernel
//!   asserts each operand length in release too: no access leaves a slice.
//! * `#![deny(unsafe_op_in_unsafe_fn)]` keeps each unsafe operation
//!   inside an explicit block with its own SAFETY justification.
//!
//! Every kernel composes unfused `mul`+`add`, so each output element
//! repeats the scalar tier's ascending-`k` sequence exactly (bitwise
//! equal).

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use super::SimdKernels;

/// The AVX2 table when the host supports it.
pub(super) fn avx2_kernels() -> Option<&'static SimdKernels> {
    if is_x86_feature_detected!("avx2") {
        Some(&avx2::KERNELS)
    } else {
        None
    }
}

mod avx2 {
    use crate::simd::{
        scalar, AdamParams, LnBwdStats, SimdKernels, SimdTier, LANES, MM_CT, MM_RT, SPMM_CT,
    };
    use core::arch::x86_64::*;

    pub(in crate::simd) static KERNELS: SimdKernels = SimdKernels {
        tier: SimdTier::Avx2,
        axpy,
        add_assign,
        scale_add,
        dot,
        mm_tile,
        mm_bt_tile,
        spmm_tile,
        ln_fwd_row,
        ln_bwd_row,
        adam_update,
    };

    // ---- lane helpers ------------------------------------------------

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(x: &[f32], i: usize) -> __m256 {
        debug_assert!(i + LANES <= x.len(), "simd load out of bounds");
        // SAFETY: in-bounds by the assert above; release callers'
        // loop limits guarantee the same range.
        unsafe { _mm256_loadu_ps(x.as_ptr().add(i)) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(x: &mut [f32], i: usize, v: __m256) {
        debug_assert!(i + LANES <= x.len(), "simd store out of bounds");
        // SAFETY: in-bounds by the assert above; release callers'
        // loop limits guarantee the same range.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr().add(i), v) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load4(x: &[f32], i: usize) -> __m128 {
        debug_assert!(i + 4 <= x.len(), "simd load4 out of bounds");
        // SAFETY: in-bounds by the assert above.
        unsafe { _mm_loadu_ps(x.as_ptr().add(i)) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store4(x: &mut [f32; 4], v: __m128) {
        // SAFETY: the array type guarantees exactly 4 floats.
        unsafe { _mm_storeu_ps(x.as_mut_ptr(), v) }
    }

    /// `c + a*b`, unfused: bitwise equal to the scalar `acc += a*b`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn madd(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_add_ps(c, _mm256_mul_ps(a, b))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn madd4(a: __m128, b: __m128, c: __m128) -> __m128 {
        _mm_add_ps(c, _mm_mul_ps(a, b))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(v: f32) -> __m256 {
        _mm256_set1_ps(v)
    }

    // ---- kernels -----------------------------------------------------
    //
    // Each safe wrapper is the fn-pointer entry; the SAFETY
    // argument is identical for all of them: this module's table
    // is only reachable through the feature-detected constructors
    // above, so the target features are known present.

    fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { axpy_impl(out, a, x) }
    }

    #[target_feature(enable = "avx2")]
    fn axpy_impl(out: &mut [f32], a: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let av = splat(a);
        let mut i = 0;
        while i + LANES <= n {
            store(out, i, madd(av, load(x, i), load(out, i)));
            i += LANES;
        }
        while i < n {
            out[i] += a * x[i];
            i += 1;
        }
    }

    fn add_assign(out: &mut [f32], x: &[f32]) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { add_assign_impl(out, x) }
    }

    #[target_feature(enable = "avx2")]
    fn add_assign_impl(out: &mut [f32], x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        while i + LANES <= n {
            store(out, i, _mm256_add_ps(load(out, i), load(x, i)));
            i += LANES;
        }
        while i < n {
            out[i] += x[i];
            i += 1;
        }
    }

    fn scale_add(out: &mut [f32], s: f32, x: &[f32]) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { scale_add_impl(out, s, x) }
    }

    #[target_feature(enable = "avx2")]
    fn scale_add_impl(out: &mut [f32], s: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let sv = splat(s);
        let mut i = 0;
        while i + LANES <= n {
            // out*s + x == x + out*s bitwise (IEEE add commutes).
            store(out, i, madd(load(out, i), sv, load(x, i)));
            i += LANES;
        }
        while i < n {
            out[i] = out[i] * s + x[i];
            i += 1;
        }
    }

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { dot_impl(a, b) }
    }

    /// 4-wide on purpose: the crate's pinned reduction order is
    /// four partial lanes combined `((l0+l1)+(l2+l3))+tail`, and a
    /// `__m128` accumulator reproduces it exactly. An 8-wide dot
    /// would change the reduction tree and break bitwise parity.
    #[target_feature(enable = "avx2")]
    fn dot_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dot operands must be equal length");
        let n = a.len().min(b.len());
        let mut lanes = _mm_setzero_ps();
        let mut i = 0;
        while i + 4 <= n {
            lanes = madd4(load4(a, i), load4(b, i), lanes);
            i += 4;
        }
        let mut l = [0.0f32; 4];
        store4(&mut l, lanes);
        let mut tail = 0.0f32;
        while i < n {
            tail += a[i] * b[i];
            i += 1;
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + tail
    }

    fn mm_tile(
        arows: &[&[f32]; MM_RT],
        b: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
        width: usize,
    ) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe {
            match width {
                MM_CT => mm_tile_impl::<2>(arows, b, bstride, out, ostride),
                LANES => mm_tile_impl::<1>(arows, b, bstride, out, ostride),
                _ => panic!("mm_tile width {width} (expected {MM_CT} or {LANES})"),
            }
        }
    }

    /// One `MM_RT`×`V·LANES` tile: `V` vector registers per row.
    #[target_feature(enable = "avx2")]
    fn mm_tile_impl<const V: usize>(
        arows: &[&[f32]; MM_RT],
        b: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
    ) {
        let inner = arows[0].len();
        let width = V * LANES;
        // Checked in release too: the table is public, so these
        // bounds are all that keep a safe caller's slices in range
        // of the unchecked loads and stores below.
        assert!(
            (MM_RT - 1) * ostride + width <= out.len(),
            "mm_tile out slice too short"
        );
        assert!(
            inner == 0 || (inner - 1) * bstride + width <= b.len(),
            "mm_tile b slice too short"
        );
        let mut acc = [[_mm256_setzero_ps(); V]; MM_RT];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, a) in row.iter_mut().enumerate() {
                *a = load(out, r * ostride + v * LANES);
            }
        }
        for k in 0..inner {
            let mut bk = [_mm256_setzero_ps(); V];
            for (v, bv) in bk.iter_mut().enumerate() {
                *bv = load(b, k * bstride + v * LANES);
            }
            for (row, arow) in acc.iter_mut().zip(arows.iter()) {
                let av = splat(arow[k]);
                for (a, &bv) in row.iter_mut().zip(bk.iter()) {
                    *a = madd(av, bv, *a);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &a) in row.iter().enumerate() {
                store(out, r * ostride + v * LANES, a);
            }
        }
    }

    fn mm_bt_tile(
        arows: &[&[f32]; MM_RT],
        bt: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
        accumulate: bool,
    ) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { mm_bt_tile_impl(arows, bt, bstride, out, ostride, accumulate) }
    }

    /// Lane `l` of every output column sums `k ≡ l (mod 4)` below
    /// the last full 4-chunk, in ascending `k` — the same partials
    /// as `dot_impl`'s `__m128` lanes, vectorized across 8 output
    /// columns instead. The lanes run as two pairs so the live set
    /// (a pair's 2×`MM_RT` accumulators, the first pair's `MM_RT`
    /// sums and three operands) fits the 16 vector registers.
    #[target_feature(enable = "avx2")]
    fn mm_bt_tile_impl(
        arows: &[&[f32]; MM_RT],
        bt: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
        accumulate: bool,
    ) {
        let inner = arows[0].len();
        // Checked in release too, as in `mm_tile_impl`.
        assert!(
            (MM_RT - 1) * ostride + LANES <= out.len(),
            "mm_bt_tile out slice too short"
        );
        assert!(
            inner == 0 || (inner - 1) * bstride + LANES <= bt.len(),
            "mm_bt_tile bt slice too short"
        );
        let k4 = inner - inner % 4;
        // pair_sum[p][r] = l(2p) + l(2p+1) for tile row r.
        let mut pair_sum = [[_mm256_setzero_ps(); MM_RT]; 2];
        for (p, sum) in pair_sum.iter_mut().enumerate() {
            let mut lo = [_mm256_setzero_ps(); MM_RT];
            let mut hi = [_mm256_setzero_ps(); MM_RT];
            let mut k = 2 * p;
            while k < k4 {
                let b0 = load(bt, k * bstride);
                let b1 = load(bt, (k + 1) * bstride);
                for r in 0..MM_RT {
                    lo[r] = madd(splat(arows[r][k]), b0, lo[r]);
                    hi[r] = madd(splat(arows[r][k + 1]), b1, hi[r]);
                }
                k += 4;
            }
            for r in 0..MM_RT {
                sum[r] = _mm256_add_ps(lo[r], hi[r]);
            }
        }
        let mut tail = [_mm256_setzero_ps(); MM_RT];
        for k in k4..inner {
            let bk = load(bt, k * bstride);
            for (t, arow) in tail.iter_mut().zip(arows) {
                *t = madd(splat(arow[k]), bk, *t);
            }
        }
        for r in 0..MM_RT {
            let s = _mm256_add_ps(_mm256_add_ps(pair_sum[0][r], pair_sum[1][r]), tail[r]);
            let s = if accumulate {
                _mm256_add_ps(load(out, r * ostride), s)
            } else {
                s
            };
            store(out, r * ostride, s);
        }
    }

    fn spmm_tile(cols: &[u32], ws: &[f32], x: &[f32], stride: usize, out: &mut [f32]) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { spmm_tile_impl(cols, ws, x, stride, out) }
    }

    #[target_feature(enable = "avx2")]
    fn spmm_tile_impl(cols: &[u32], ws: &[f32], x: &[f32], stride: usize, out: &mut [f32]) {
        // Checked in release too; a wrapped `base` passes only inside `x`.
        assert!(SPMM_CT <= out.len(), "spmm_tile out slice too short");
        let last = x.len().checked_sub(SPMM_CT);
        let mut a0 = load(out, 0);
        let mut a1 = load(out, LANES);
        for (&c, &wt) in cols.iter().zip(ws.iter()) {
            let base = c as usize * stride;
            assert!(last.is_some_and(|l| base <= l), "spmm_tile x too short");
            let wv = splat(wt);
            a0 = madd(wv, load(x, base), a0);
            a1 = madd(wv, load(x, base + LANES), a1);
        }
        store(out, 0, a0);
        store(out, LANES, a1);
    }

    fn ln_fwd_row(
        out: &mut [f32],
        xhat: &mut [f32],
        x: &[f32],
        gain: &[f32],
        bias: &[f32],
        mean: f32,
        istd: f32,
    ) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { ln_fwd_row_impl(out, xhat, x, gain, bias, mean, istd) }
    }

    #[target_feature(enable = "avx2")]
    fn ln_fwd_row_impl(
        out: &mut [f32],
        xhat: &mut [f32],
        x: &[f32],
        gain: &[f32],
        bias: &[f32],
        mean: f32,
        istd: f32,
    ) {
        let n = out.len();
        assert!(
            xhat.len() >= n && x.len() >= n && gain.len() >= n && bias.len() >= n,
            "ln_fwd_row operand too short"
        );
        let mv = splat(mean);
        let sv = splat(istd);
        let mut i = 0;
        while i + LANES <= n {
            let xh = _mm256_mul_ps(_mm256_sub_ps(load(x, i), mv), sv);
            store(xhat, i, xh);
            // xh*gain + bias == bias + xh*gain bitwise.
            store(out, i, madd(xh, load(gain, i), load(bias, i)));
            i += LANES;
        }
        while i < n {
            let xh = (x[i] - mean) * istd;
            xhat[i] = xh;
            out[i] = xh * gain[i] + bias[i];
            i += 1;
        }
    }

    fn ln_bwd_row(dx: &mut [f32], g: &[f32], gain: &[f32], xhat: &[f32], st: &LnBwdStats) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { ln_bwd_row_impl(dx, g, gain, xhat, st) }
    }

    #[target_feature(enable = "avx2")]
    fn ln_bwd_row_impl(dx: &mut [f32], g: &[f32], gain: &[f32], xhat: &[f32], st: &LnBwdStats) {
        let n = dx.len();
        assert!(
            g.len() >= n && gain.len() >= n && xhat.len() >= n,
            "ln_bwd_row operand too short"
        );
        // sum_gdy/cols is loop-invariant, so hoisting the division
        // keeps the exact per-element bits; xhat*s2/cols must stay
        // per-element mul-then-div.
        let s1 = st.sum_gdy / st.cols;
        let s1v = splat(s1);
        let s2v = splat(st.sum_gdy_xhat);
        let cv = splat(st.cols);
        let iv = splat(st.istd);
        let mut i = 0;
        while i + LANES <= n {
            let t = _mm256_sub_ps(_mm256_mul_ps(load(g, i), load(gain, i)), s1v);
            let u = _mm256_div_ps(_mm256_mul_ps(load(xhat, i), s2v), cv);
            store(dx, i, madd(iv, _mm256_sub_ps(t, u), load(dx, i)));
            i += LANES;
        }
        while i < n {
            let gdy = g[i] * gain[i];
            dx[i] += st.istd * (gdy - s1 - xhat[i] * st.sum_gdy_xhat / st.cols);
            i += 1;
        }
    }

    fn adam_update(value: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], h: &AdamParams) {
        // SAFETY: features runtime-detected (see module docs).
        unsafe { adam_update_impl(value, m, v, g, h) }
    }

    #[target_feature(enable = "avx2")]
    fn adam_update_impl(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        h: &AdamParams,
    ) {
        let n = value.len();
        assert!(
            m.len() >= n && v.len() >= n && g.len() >= n,
            "adam_update operand too short"
        );
        let clip = splat(h.clip_scale);
        let b1 = splat(h.beta1);
        let ob1 = splat(1.0 - h.beta1);
        let b2 = splat(h.beta2);
        let ob2 = splat(1.0 - h.beta2);
        let bc1 = splat(h.bc1);
        let bc2 = splat(h.bc2);
        let lrv = splat(h.lr);
        let epsv = splat(h.eps);
        // lr*wd is loop-invariant ((lr * wd) * value matches the
        // scalar parse); the branch must stay a branch — an
        // unconditional `+ 0.0` would flip -0.0 parameter signs.
        let wdv = splat(h.lr * h.weight_decay);
        let decay = h.weight_decay > 0.0;
        let mut i = 0;
        while i + LANES <= n {
            let gi = _mm256_mul_ps(load(g, i), clip);
            // beta1*m + (1-beta1)*gi, the two products combined by
            // one add (commutes bitwise with the scalar order).
            let mi = madd(b1, load(m, i), _mm256_mul_ps(ob1, gi));
            store(m, i, mi);
            let vi = madd(b2, load(v, i), _mm256_mul_ps(_mm256_mul_ps(ob2, gi), gi));
            store(v, i, vi);
            let mhat = _mm256_div_ps(mi, bc1);
            let vhat = _mm256_div_ps(vi, bc2);
            let mut upd = _mm256_div_ps(
                _mm256_mul_ps(lrv, mhat),
                _mm256_add_ps(_mm256_sqrt_ps(vhat), epsv),
            );
            if decay {
                upd = madd(wdv, load(value, i), upd);
            }
            store(value, i, _mm256_sub_ps(load(value, i), upd));
            i += LANES;
        }
        scalar::adam_update(&mut value[i..], &mut m[i..], &mut v[i..], &g[i..], h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdTier;

    #[test]
    fn detection_is_consistent() {
        if let Some(k) = avx2_kernels() {
            assert_eq!(k.tier, SimdTier::Avx2);
        }
    }
}
