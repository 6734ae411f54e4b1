//! Runtime-dispatched f32 lane kernels — the micro-kernel layer under the
//! whole numeric core.
//!
//! Every hot loop in the crate (the `matmul`/`matmul_at`/`matmul_bias`
//! register tiles ([`SimdKernels::mm_tile`]), the `matmul_bt` register
//! tiles ([`SimdKernels::mm_bt_tile`]), the CSR SpMM register tiles,
//! `layer_norm` forward/backward rows, `Adam::step` elementwise updates,
//! gradient accumulation) dispatches through the fn-pointer table
//! returned by [`kernels`]. Two tiers implement the table:
//!
//! | tier | selected | reduction contract |
//! |------|----------|--------------------|
//! | [`SimdTier::Scalar`] | always available; the fallback | the reference loops, verbatim |
//! | [`SimdTier::Avx2`] | auto, when the host has AVX2 | **bitwise identical** to scalar |
//!
//! The AVX2 tier vectorizes **across output columns** (lane-parallel)
//! while keeping each output element's ascending-`k` mul-then-add
//! sequence, so per-lane IEEE ops make it bit-for-bit equal to the scalar
//! tier — the `kernel_equivalence` property tests pin every tier the host
//! supports against the scalar references. No tier fuses multiply-adds:
//! a fused tier would change rounding, and outputs must stay bitwise
//! equal whichever tier runs.
//!
//! ## Dispatch
//!
//! The active tier is resolved exactly once (in a `OnceLock`) from the
//! `NETTAG_SIMD` environment variable:
//!
//! * unset / `auto` — AVX2 when detected, else scalar,
//! * `scalar` | `avx2` — force a tier; forcing a tier the host lacks (or
//!   an unknown name) warns on stderr and falls back to auto.
//!
//! Tests and benches can pin a tier in-process with [`with_tier`], which
//! overrides the resolved table for the current thread; kernel entry
//! points resolve the table once on the calling thread and carry it into
//! their parallel regions, so row-parallel kernels started under
//! [`with_tier`] are covered too.
//!
//! ## Unsafe policy
//!
//! The workspace denies `unsafe` except at two sites. This crate's one is
//! [`x86`](self) (`simd/x86.rs`), which holds the `std::arch::x86_64`
//! intrinsic instantiations behind `is_x86_feature_detected!`, compiles
//! with `#![deny(unsafe_op_in_unsafe_fn)]`, and bounds-checks every
//! pointer access with asserts. The other is the lifetime-erasing
//! `transmute` in `nettag-par`'s `pool.rs`. Everything else in the crate
//! stays `#![deny(unsafe_code)]`-clean.

use std::cell::Cell;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Register-tile height of the dense matmul micro-kernel (output rows
/// held live across the `k` sweep).
pub const MM_RT: usize = 4;
/// Register-tile width in floats of the dense matmul micro-kernel (two
/// 8-wide vector registers). Panels narrower than this but at least
/// [`LANES`] wide run the same kernel at width [`LANES`].
pub const MM_CT: usize = 16;
/// Feature-dim register-tile width of the CSR SpMM row kernel.
pub const SPMM_CT: usize = 16;
/// Vector width (f32 lanes) of the wide tiers.
pub const LANES: usize = 8;

/// One dispatch tier of the lane-kernel table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Portable hand-unrolled scalar loops — the reference behavior.
    Scalar,
    /// AVX2 intrinsics, bitwise identical to [`SimdTier::Scalar`].
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name (the `NETTAG_SIMD` spelling).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// Per-row statistics feeding [`SimdKernels::ln_bwd_row`].
#[derive(Debug, Clone, Copy)]
pub struct LnBwdStats {
    /// Saved `1 / sqrt(var + eps)` for the row.
    pub istd: f32,
    /// `Σ_c g[c] · gain[c]` reduced in ascending-column order.
    pub sum_gdy: f32,
    /// `Σ_c g[c] · gain[c] · xhat[c]` reduced in ascending-column order.
    pub sum_gdy_xhat: f32,
    /// Row width as f32 (the normalization denominator).
    pub cols: f32,
}

/// Hyper-parameter bundle for [`SimdKernels::adam_update`], precomputed
/// once per optimizer step.
#[derive(Debug, Clone, Copy)]
pub struct AdamParams {
    /// Global-norm clip factor folded into every gradient element.
    pub clip_scale: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// First-moment bias correction `1 - beta1^t`.
    pub bc1: f32,
    /// Second-moment bias correction `1 - beta2^t`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled weight decay (0 disables — and must stay branched: an
    /// unconditional `+ 0.0` would flip `-0.0` parameter signs).
    pub weight_decay: f32,
}

/// Signature of [`SimdKernels::mm_tile`].
pub type MmTileFn = fn(
    arows: &[&[f32]; MM_RT],
    b: &[f32],
    bstride: usize,
    out: &mut [f32],
    ostride: usize,
    width: usize,
);

/// Signature of [`SimdKernels::mm_bt_tile`].
pub type MmBtTileFn = fn(
    arows: &[&[f32]; MM_RT],
    bt: &[f32],
    bstride: usize,
    out: &mut [f32],
    ostride: usize,
    accumulate: bool,
);

/// Signature of [`SimdKernels::spmm_tile`].
pub type SpmmTileFn = fn(cols: &[u32], ws: &[f32], x: &[f32], stride: usize, out: &mut [f32]);

/// Signature of [`SimdKernels::ln_fwd_row`].
pub type LnFwdRowFn = fn(
    out: &mut [f32],
    xhat: &mut [f32],
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    mean: f32,
    istd: f32,
);

/// Signature of [`SimdKernels::ln_bwd_row`].
pub type LnBwdRowFn = fn(dx: &mut [f32], g: &[f32], gain: &[f32], xhat: &[f32], stats: &LnBwdStats);

/// Signature of [`SimdKernels::adam_update`].
pub type AdamUpdateFn =
    fn(value: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], h: &AdamParams);

/// The lane-kernel dispatch table. One static instance exists per tier;
/// [`kernels`] returns the active one. All function pointers share the
/// scalar tier's per-element semantics (see each field).
#[derive(Debug)]
pub struct SimdKernels {
    /// Which tier this table implements.
    pub tier: SimdTier,
    /// `out[i] += a * x[i]` over `min(out.len(), x.len())` elements.
    pub axpy: fn(out: &mut [f32], a: f32, x: &[f32]),
    /// `out[i] += x[i]` (gradient accumulation, bias adds, residuals).
    pub add_assign: fn(out: &mut [f32], x: &[f32]),
    /// `out[i] = out[i] * s + x[i]` (scale-accumulate).
    pub scale_add: fn(out: &mut [f32], s: f32, x: &[f32]),
    /// Dot product with the crate's fixed reduction order: four partial
    /// lanes over ascending 4-chunks, combined `((l0+l1)+(l2+l3))+tail`.
    pub dot: fn(a: &[f32], b: &[f32]) -> f32,
    /// Dense matmul micro-kernel: one [`MM_RT`]×`width` output tile
    /// accumulated across the whole `k` sweep, `width` being [`MM_CT`]
    /// or [`LANES`].
    /// `out[r*ostride + c] += Σ_k arows[r][k] * b[k*bstride + c]`,
    /// ascending `k` per element. `out` must cover
    /// `(MM_RT-1)*ostride + width` floats, `b` must cover
    /// `(inner-1)*bstride + width` where `inner = arows[0].len()`.
    pub mm_tile: MmTileFn,
    /// Transposed-product micro-kernel: one [`MM_RT`]×[`LANES`] tile of
    /// `A·Bᵀ` from a packed `bt` (`bt[k*bstride + c] = B[c][k]`). Each
    /// output element is [`SimdKernels::dot`] of its row and column —
    /// four lane accumulators over ascending 4-chunks of `k`, combined
    /// `((l0+l1)+(l2+l3))+tail` — then stored (`out = s`) or added
    /// (`out += s`) per `accumulate`. `out` must cover
    /// `(MM_RT-1)*ostride + LANES` floats, `bt` must cover
    /// `(inner-1)*bstride + LANES`.
    pub mm_bt_tile: MmBtTileFn,
    /// CSR SpMM micro-kernel: one [`SPMM_CT`]-wide feature tile of an
    /// output row accumulated across the whole entry sweep.
    /// `out[c] += Σ_e ws[e] * x[cols[e]*stride + c]`, ascending entry
    /// order per element. `out` holds exactly [`SPMM_CT`] floats.
    pub spmm_tile: SpmmTileFn,
    /// Layer-norm forward row: `xhat[c] = (x[c] - mean) * istd;`
    /// `out[c] = xhat[c] * gain[c] + bias[c]` (statistics are reduced by
    /// the caller in ascending-column order).
    pub ln_fwd_row: LnFwdRowFn,
    /// Layer-norm backward row:
    /// `dx[c] += istd * ((g[c]*gain[c] - sum_gdy/cols) - (xhat[c]*sum_gdy_xhat)/cols)`.
    pub ln_bwd_row: LnBwdRowFn,
    /// Fused Adam update for one parameter buffer (value/m/v updated in
    /// place from the gradient), exactly the scalar step's op sequence.
    pub adam_update: AdamUpdateFn,
}

/// Portable scalar tier: the pre-SIMD loops, verbatim. These double as
/// the reference implementations every wider tier is pinned against, and
/// as the shared helpers the scalar reference kernels in
/// [`crate::tensor`] call directly.
pub(crate) mod scalar {
    use super::{AdamParams, LnBwdStats, LANES, MM_CT, MM_RT, SPMM_CT};

    pub(crate) fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
        for (o, &xv) in out.iter_mut().zip(x.iter()) {
            *o += a * xv;
        }
    }

    pub(crate) fn add_assign(out: &mut [f32], x: &[f32]) {
        for (o, &xv) in out.iter_mut().zip(x.iter()) {
            *o += xv;
        }
    }

    pub(crate) fn scale_add(out: &mut [f32], s: f32, x: &[f32]) {
        for (o, &xv) in out.iter_mut().zip(x.iter()) {
            *o = *o * s + xv;
        }
    }

    /// Dot product with a fixed reduction order (4 partial lanes combined
    /// in index order), shared by the parallel and reference `matmul_bt`
    /// paths.
    pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 4];
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            for l in 0..4 {
                lanes[l] += ca[l] * cb[l];
            }
        }
        let mut tail = 0.0f32;
        for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += x * y;
        }
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
    }

    pub(crate) fn mm_tile(
        arows: &[&[f32]; MM_RT],
        b: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
        width: usize,
    ) {
        match width {
            MM_CT => mm_tile_w::<MM_CT>(arows, b, bstride, out, ostride),
            LANES => mm_tile_w::<LANES>(arows, b, bstride, out, ostride),
            _ => panic!("mm_tile width {width} (expected {MM_CT} or {LANES})"),
        }
    }

    fn mm_tile_w<const W: usize>(
        arows: &[&[f32]; MM_RT],
        b: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
    ) {
        let inner = arows[0].len();
        let mut acc = [[0.0f32; W]; MM_RT];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&out[r * ostride..r * ostride + W]);
        }
        for k in 0..inner {
            let bt: &[f32; W] = b[k * bstride..k * bstride + W]
                .try_into()
                .expect("tile width");
            for (row, arow) in acc.iter_mut().zip(arows.iter()) {
                let av = arow[k];
                for (o, &bv) in row.iter_mut().zip(bt.iter()) {
                    *o += av * bv;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            out[r * ostride..r * ostride + W].copy_from_slice(row);
        }
    }

    /// [`dot`] per output element, with the lane accumulators laid out
    /// across the tile's columns.
    pub(crate) fn mm_bt_tile(
        arows: &[&[f32]; MM_RT],
        bt: &[f32],
        bstride: usize,
        out: &mut [f32],
        ostride: usize,
        accumulate: bool,
    ) {
        let inner = arows[0].len();
        let k4 = inner - inner % 4;
        for (r, arow) in arows.iter().enumerate() {
            let mut lanes = [[0.0f32; LANES]; 4];
            let mut tail = [0.0f32; LANES];
            for (k, &av) in arow.iter().enumerate() {
                let acc = if k < k4 { &mut lanes[k % 4] } else { &mut tail };
                for (o, &bv) in acc.iter_mut().zip(&bt[k * bstride..k * bstride + LANES]) {
                    *o += av * bv;
                }
            }
            for (c, o) in out[r * ostride..r * ostride + LANES].iter_mut().enumerate() {
                let s = ((lanes[0][c] + lanes[1][c]) + (lanes[2][c] + lanes[3][c])) + tail[c];
                if accumulate {
                    *o += s;
                } else {
                    *o = s;
                }
            }
        }
    }

    pub(crate) fn spmm_tile(cols: &[u32], ws: &[f32], x: &[f32], stride: usize, out: &mut [f32]) {
        let mut acc = [0.0f32; SPMM_CT];
        acc.copy_from_slice(&out[..SPMM_CT]);
        for (&c, &wt) in cols.iter().zip(ws.iter()) {
            let base = c as usize * stride;
            let xt: &[f32; SPMM_CT] = x[base..base + SPMM_CT].try_into().expect("tile width");
            for (o, &v) in acc.iter_mut().zip(xt.iter()) {
                *o += wt * v;
            }
        }
        out[..SPMM_CT].copy_from_slice(&acc);
    }

    pub(crate) fn ln_fwd_row(
        out: &mut [f32],
        xhat: &mut [f32],
        x: &[f32],
        gain: &[f32],
        bias: &[f32],
        mean: f32,
        istd: f32,
    ) {
        for c in 0..out.len() {
            let xh = (x[c] - mean) * istd;
            xhat[c] = xh;
            out[c] = xh * gain[c] + bias[c];
        }
    }

    pub(crate) fn ln_bwd_row(
        dx: &mut [f32],
        g: &[f32],
        gain: &[f32],
        xhat: &[f32],
        st: &LnBwdStats,
    ) {
        let s1 = st.sum_gdy / st.cols;
        for (c, slot) in dx.iter_mut().enumerate() {
            let gdy = g[c] * gain[c];
            *slot += st.istd * (gdy - s1 - xhat[c] * st.sum_gdy_xhat / st.cols);
        }
    }

    pub(crate) fn adam_update(
        value: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        h: &AdamParams,
    ) {
        for i in 0..value.len() {
            let gi = g[i] * h.clip_scale;
            m[i] = h.beta1 * m[i] + (1.0 - h.beta1) * gi;
            v[i] = h.beta2 * v[i] + (1.0 - h.beta2) * gi * gi;
            let mhat = m[i] / h.bc1;
            let vhat = v[i] / h.bc2;
            let mut upd = h.lr * mhat / (vhat.sqrt() + h.eps);
            if h.weight_decay > 0.0 {
                upd += h.lr * h.weight_decay * value[i];
            }
            value[i] -= upd;
        }
    }
}

/// The scalar-tier table (always available).
static SCALAR: SimdKernels = SimdKernels {
    tier: SimdTier::Scalar,
    axpy: scalar::axpy,
    add_assign: scalar::add_assign,
    scale_add: scalar::scale_add,
    dot: scalar::dot,
    mm_tile: scalar::mm_tile,
    mm_bt_tile: scalar::mm_bt_tile,
    spmm_tile: scalar::spmm_tile,
    ln_fwd_row: scalar::ln_fwd_row,
    ln_bwd_row: scalar::ln_bwd_row,
    adam_update: scalar::adam_update,
};

/// The table for `tier`, or `None` when the host cannot run it. Scalar is
/// always `Some`; AVX2 requires runtime CPU support (and an `x86_64`
/// build). Tests use this to pin every available tier.
pub fn kernels_for(tier: SimdTier) -> Option<&'static SimdKernels> {
    match tier {
        SimdTier::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => x86::avx2_kernels(),
        #[cfg(not(target_arch = "x86_64"))]
        _ => None,
    }
}

/// Best auto-dispatch tier: AVX2 when the host supports it, else scalar.
fn best_supported() -> &'static SimdKernels {
    kernels_for(SimdTier::Avx2).unwrap_or(&SCALAR)
}

/// Resolves the `NETTAG_SIMD` override once.
fn resolve() -> &'static SimdKernels {
    match std::env::var("NETTAG_SIMD").ok().as_deref() {
        None | Some("") | Some("auto") => best_supported(),
        Some(name @ ("scalar" | "avx2")) => {
            let tier = if name == "scalar" {
                SimdTier::Scalar
            } else {
                SimdTier::Avx2
            };
            kernels_for(tier).unwrap_or_else(|| {
                eprintln!("NETTAG_SIMD={name}: tier not supported on this host, using auto");
                best_supported()
            })
        }
        Some(other) => {
            eprintln!("NETTAG_SIMD={other}: unknown tier (expected scalar|avx2|auto), using auto");
            best_supported()
        }
    }
}

static ACTIVE: OnceLock<&'static SimdKernels> = OnceLock::new();

thread_local! {
    static FORCED: Cell<Option<&'static SimdKernels>> = const { Cell::new(None) };
}

/// The active kernel table: the current thread's [`with_tier`] override
/// if one is in scope, else the process-wide table resolved once from
/// `NETTAG_SIMD` (see the module docs for the policy).
pub fn kernels() -> &'static SimdKernels {
    if let Some(k) = FORCED.with(|c| c.get()) {
        return k;
    }
    ACTIVE.get_or_init(resolve)
}

/// The tier [`kernels`] dispatches to right now.
pub fn active_tier() -> SimdTier {
    kernels().tier
}

/// Runs `f` with `tier` forced for kernels dispatched from the current
/// thread; returns `None` (without running `f`) when the host lacks the
/// tier. Kernel entry points resolve the table once on the calling thread
/// and hand it to their worker closures, so row-parallel kernels invoked
/// inside `f` honor the override; work *originated* on pool workers
/// (e.g. tapes built by `data_parallel::step`) does not — force those
/// process-wide with `NETTAG_SIMD` instead. Nested calls restore the
/// previous override on exit, including on panic.
pub fn with_tier<R>(tier: SimdTier, f: impl FnOnce() -> R) -> Option<R> {
    let k = kernels_for(tier)?;
    struct Restore(Option<&'static SimdKernels>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(FORCED.with(|c| c.replace(Some(k))));
    Some(f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tier_is_always_available() {
        let k = kernels_for(SimdTier::Scalar).expect("scalar tier");
        assert_eq!(k.tier, SimdTier::Scalar);
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let before = active_tier();
        let seen = with_tier(SimdTier::Scalar, active_tier).expect("scalar always available");
        assert_eq!(seen, SimdTier::Scalar);
        assert_eq!(active_tier(), before, "override must not leak");
    }

    #[test]
    fn with_tier_reports_unsupported_tiers() {
        // On hosts without AVX2 this must be None rather than a crash; on
        // hosts with it, the closure must see the forced tier.
        if let Some(t) = with_tier(SimdTier::Avx2, active_tier) {
            assert_eq!(t, SimdTier::Avx2);
        } else {
            assert!(kernels_for(SimdTier::Avx2).is_none());
        }
    }

    #[test]
    fn tier_names_round_trip() {
        for t in [SimdTier::Scalar, SimdTier::Avx2] {
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn scalar_primitives_match_plain_loops() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let mut out: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        let mut expect = out.clone();
        scalar::axpy(&mut out, 0.7, &x);
        for (e, &xv) in expect.iter_mut().zip(x.iter()) {
            *e += 0.7 * xv;
        }
        assert_eq!(out, expect);
        let d = scalar::dot(&x, &expect);
        assert!(d.is_finite());
    }
}
