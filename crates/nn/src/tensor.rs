//! Dense 2-D f32 tensors and the kernels the autograd graph dispatches to.
//!
//! Everything in the reproduction's models is expressible with 2-D
//! tensors (a sequence or node set is `rows`, features are `cols`), which
//! keeps the from-scratch engine small and the shapes auditable.
//!
//! ## Kernel design
//!
//! The dense products (`matmul`, `matmul_bt`, `matmul_at`) and the sparse
//! propagation ([`SparseMatrix::matmul`]) are the training hot paths, so
//! they run through blocked, row-parallel kernels:
//!
//! * **Row-parallel owner-computes**: output rows are partitioned into
//!   contiguous blocks, one per worker thread
//!   ([`nettag_par::for_each_row_block_mut`]); every output element is
//!   written by exactly one thread.
//! * **Register tiling**: `matmul` computes full `RT`×`CT` (or, for
//!   narrow panels, `RT`×`LANES`) output tiles in registers across the
//!   whole `k` sweep, so output-memory traffic drops to one load and one
//!   store per element. `matmul_at` packs `Aᵀ` once and runs the same
//!   tiles; `matmul_bt` packs `Bᵀ` once and runs `RT`×`LANES` tiles that
//!   keep `dot`'s four lane accumulators per output column.
//! * **Deterministic reduction order**: within each output element the
//!   accumulation order over the inner dimension is fixed in every code
//!   path — ascending `k` for `matmul`/`matmul_at`, `dot`'s lane order
//!   for `matmul_bt` — so the parallel kernels are *bitwise identical* to
//!   the scalar reference kernels (`matmul_ref` etc.) that the
//!   equivalence property tests replay.
//!
//! The sparse side stores the adjacency in flat CSR (`indptr`/`indices`/
//! `weights`) with a prebuilt transpose so the backward pass is a plain
//! replay on contiguous memory.

use crate::simd::{self, scalar::dot, SimdKernels, LANES, MM_CT as CT, MM_RT as RT, SPMM_CT};
use rand::rngs::StdRng;
use rand::Rng;

/// Minimum number of inner-loop multiply-adds before a product is worth
/// spreading across threads; below this the kernel runs on the caller's
/// thread (same code path, one row block). Since `nettag-par` moved to a
/// persistent worker pool, a parallel region costs a lock + condvar wake
/// (single-digit microseconds) instead of scoped-thread spawns, so
/// products down to ~256k multiply-adds — some tens of microseconds of
/// serial work — amortize the fan-out. Serving-sized batches clear this
/// bar; per-gate toy shapes still run inline. Raised from 1<<17 when the
/// kernels moved to dispatched SIMD tiles: roughly 2× faster serial
/// kernels double the serial work a pool wake must buy back, so the
/// break-even product size doubles with them (see PERF.md).
const PAR_MIN_FLOPS: usize = 1 << 18;

/// A dense row-major 2-D tensor of f32.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// A 1×n row tensor.
    pub fn row(data: Vec<f32>) -> Tensor {
        Tensor {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// A 1×1 scalar tensor.
    pub fn scalar(v: f32) -> Tensor {
        Tensor {
            rows: 1,
            cols: 1,
            data: vec![v],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Tensor { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a 1×1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 1×1.
    pub fn item(&self) -> f32 {
        assert_eq!((self.rows, self.cols), (1, 1), "item() needs a scalar");
        self.data[0]
    }

    /// `self @ other` (matrix product), blocked and row-parallel.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out, false);
        out
    }

    /// `self @ other` accumulated into `out` (`out += self @ other` when
    /// `accumulate`, else `out = self @ other`). This is the allocation-
    /// free entry point the autograd backward pass uses.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor, accumulate: bool) {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul out shape"
        );
        let inner = self.cols;
        let n = other.cols;
        // Resolve the dispatch table once on the calling thread: the
        // closure runs on pool workers, and capturing the table here keeps
        // a `simd::with_tier` override in force across the fan-out.
        let kn = simd::kernels();
        run_row_blocks(
            &mut out.data,
            n,
            self.rows * inner * n,
            |first_row, chunk| {
                mm_block(
                    kn,
                    &self.data[first_row * inner..],
                    inner,
                    &other.data,
                    n,
                    chunk,
                    accumulate,
                );
            },
        );
    }

    /// Scalar reference for [`Tensor::matmul`]: branch-free naive i-k-j
    /// loops with the same per-element accumulation order as the blocked
    /// kernel (ascending `k`), so results are bitwise comparable.
    pub fn matmul_ref(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        let mut out = Tensor::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let brow = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Fused `self @ w + bias` (bias is 1×n, broadcast over rows). The
    /// product lands first, then the bias row is added in the same hot
    /// row block — identical FP order to `matmul` followed by a row add.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_bias(&self, w: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(self.cols, w.rows, "matmul inner dims");
        assert_eq!((bias.rows, bias.cols), (1, w.cols), "bias must be 1×n");
        let inner = self.cols;
        let n = w.cols;
        let mut out = Tensor::zeros(self.rows, n);
        let kn = simd::kernels();
        run_row_blocks(
            &mut out.data,
            n,
            self.rows * inner * n,
            |first_row, chunk| {
                mm_block(
                    kn,
                    &self.data[first_row * inner..],
                    inner,
                    &w.data,
                    n,
                    chunk,
                    false,
                );
                for row in chunk.chunks_exact_mut(n) {
                    (kn.add_assign)(row, &bias.data);
                }
            },
        );
        out
    }

    /// `self @ other^T`, row-parallel: `other^T` is packed once, then
    /// [`RT`]×[`LANES`] register tiles ([`SimdKernels::mm_bt_tile`]) each
    /// reduce every output element in [`SimdKernels::dot`]'s order.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_bt_into(other, &mut out, false);
        out
    }

    /// `self @ other^T` accumulated into `out`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_bt_into(&self, other: &Tensor, out: &mut Tensor, accumulate: bool) {
        assert_eq!(self.cols, other.cols, "matmul_bt inner dims");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_bt out shape"
        );
        let inner = self.cols;
        let n = other.rows;
        let kn = simd::kernels();
        // Columns covered by full tiles; the packing only pays when a
        // tile can run at all.
        let tiled = if self.rows >= RT && inner > 0 {
            n - n % LANES
        } else {
            0
        };
        let bt = if tiled > 0 {
            other.transpose()
        } else {
            Tensor::zeros(0, 0)
        };
        run_row_blocks(
            &mut out.data,
            n,
            self.rows * inner * n,
            |first_row, chunk| {
                let a = &self.data[first_row * inner..];
                let rows_here = chunk.len() / n;
                let tiled_rows = if tiled > 0 {
                    rows_here - rows_here % RT
                } else {
                    0
                };
                for i in (0..tiled_rows).step_by(RT) {
                    let arows = tile_rows(a, inner, i);
                    for j in (0..tiled).step_by(LANES) {
                        (kn.mm_bt_tile)(
                            &arows,
                            &bt.data[j..],
                            n,
                            &mut chunk[i * n + j..(i + RT - 1) * n + j + LANES],
                            n,
                            accumulate,
                        );
                    }
                }
                // Remainders — the columns right of the tiles and the rows
                // below them — take one `dot` per element.
                for (i, out_row) in chunk.chunks_exact_mut(n).enumerate() {
                    let from = if i < tiled_rows { tiled } else { 0 };
                    let arow = &a[i * inner..(i + 1) * inner];
                    for (j, o) in out_row.iter_mut().enumerate().skip(from) {
                        let s = (kn.dot)(arow, other.row_slice(j));
                        if accumulate {
                            *o += s;
                        } else {
                            *o = s;
                        }
                    }
                }
            },
        );
    }

    /// Scalar reference for [`Tensor::matmul_bt`] (same dot-product
    /// reduction order as the parallel kernel).
    pub fn matmul_bt_ref(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_bt inner dims");
        let mut out = Tensor::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row_slice(i);
            for j in 0..other.rows {
                out.data[i * other.rows + j] = dot(arow, other.row_slice(j));
            }
        }
        out
    }

    /// `self^T @ other`, parallel over output rows.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_at_into(other, &mut out, false);
        out
    }

    /// `self^T @ other` accumulated into `out`: `self^T` is packed once
    /// and multiplied by the [`Tensor::matmul_into`] kernel, whose
    /// ascending-`k` tiles are exactly the per-row axpy order of
    /// [`Tensor::matmul_at_ref`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_at_into(&self, other: &Tensor, out: &mut Tensor, accumulate: bool) {
        assert_eq!(self.rows, other.rows, "matmul_at inner dims");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_at out shape"
        );
        self.transpose().matmul_into(other, out, accumulate);
    }

    /// Scalar reference for [`Tensor::matmul_at`] (branch-free, ascending
    /// `k` accumulation).
    pub fn matmul_at_ref(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_at inner dims");
        let mut out = Tensor::zeros(self.cols, other.cols);
        let n = other.cols;
        for k in 0..self.rows {
            let arow = self.row_slice(k);
            let brow = other.row_slice(k);
            #[allow(clippy::needless_range_loop)]
            for i in 0..self.cols {
                let a = arow[i];
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.at_mut(c, r) = self.at(r, c);
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise binary zip.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip shapes"
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place accumulate: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "add shapes"
        );
        (simd::kernels().add_assign)(&mut self.data, &other.data);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum.max(1e-20);
            }
        }
        out
    }

    /// Mean over all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }
}

/// Whether a kernel of `flops` serial multiply-adds is worth a parallel
/// region (the [`PAR_MIN_FLOPS`] gate every row-parallel kernel shares).
pub(crate) fn parallel_worthwhile(flops: usize) -> bool {
    flops >= PAR_MIN_FLOPS && nettag_par::num_threads() > 1
}

/// Dispatches a row-partitioned kernel: parallel across threads when the
/// work is large enough, otherwise inline on the caller's thread with
/// the identical per-row code path.
pub(crate) fn run_row_blocks<F>(out: &mut [f32], width: usize, flops: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || width == 0 {
        return;
    }
    if parallel_worthwhile(flops) {
        nettag_par::for_each_row_block_mut(out, width, f);
    } else {
        f(0, out);
    }
}

/// The [`RT`] rows of `a` (row stride `inner`) starting at row `i`.
fn tile_rows(a: &[f32], inner: usize, i: usize) -> [&[f32]; RT] {
    std::array::from_fn(|r| &a[(i + r) * inner..(i + r + 1) * inner])
}

/// Blocked multiply kernel for one contiguous block of output rows:
/// `chunk (+)= A_block @ B` where `a` starts at the block's first row.
/// Loop order is (row-block, column-panel, k, row): full [`RT`]×[`CT`]
/// register tiles, then one [`RT`]×[`LANES`] tile for a narrower panel,
/// go through the dispatched [`SimdKernels::mm_tile`] micro-kernel (the
/// output tile lives in registers across the whole `k` sweep, one
/// load+store per element), and every output element still accumulates
/// in ascending-`k` order — bitwise identical to the scalar reference on
/// the scalar and AVX2 tiers.
#[allow(clippy::too_many_arguments)]
fn mm_block(
    kn: &SimdKernels,
    a: &[f32],
    inner: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    accumulate: bool,
) {
    if !accumulate {
        chunk.fill(0.0);
    }
    if inner == 0 {
        return;
    }
    let rows_here = chunk.len() / n;
    let mut i = 0;
    while i + RT <= rows_here {
        let arows = tile_rows(a, inner, i);
        let mut j = 0;
        for width in [CT, LANES] {
            while j + width <= n {
                (kn.mm_tile)(
                    &arows,
                    &b[j..],
                    n,
                    &mut chunk[i * n + j..(i + RT - 1) * n + j + width],
                    n,
                    width,
                );
                j += width;
            }
        }
        if j < n {
            axpy_rows(kn, a, inner, b, n, chunk, i, i + RT, j);
        }
        i += RT;
    }
    if i < rows_here {
        axpy_rows(kn, a, inner, b, n, chunk, i, rows_here, 0);
    }
}

/// Remainder path: plain ascending-k axpy over `cols_from..n` for rows
/// `[row_lo, row_hi)` of the chunk — the same per-element order as the
/// register-tiled fast path and the scalar reference.
#[allow(clippy::too_many_arguments)]
fn axpy_rows(
    kn: &SimdKernels,
    a: &[f32],
    inner: usize,
    b: &[f32],
    n: usize,
    chunk: &mut [f32],
    row_lo: usize,
    row_hi: usize,
    cols_from: usize,
) {
    for i in row_lo..row_hi {
        let out_row = &mut chunk[i * n + cols_from..(i + 1) * n];
        for k in 0..inner {
            let av = a[i * inner + k];
            (kn.axpy)(out_row, av, &b[k * n + cols_from..(k + 1) * n]);
        }
    }
}

/// A sparse matrix in CSR (compressed sparse row) layout, used for graph
/// propagation (normalized adjacency). Both the forward and transposed
/// orientations are stored flat, so SpMM and its backward replay walk
/// contiguous memory, and rows parallelize without synchronization.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Number of rows (= cols; adjacency is square here).
    pub n: usize,
    fwd: Csr,
    bwd: Csr,
}

/// One CSR orientation: row `i` owns `indices[indptr[i]..indptr[i+1]]`
/// (column ids) and the matching `weights` span.
#[derive(Debug, Clone)]
struct Csr {
    indptr: Vec<u32>,
    indices: Vec<u32>,
    weights: Vec<f32>,
}

impl Csr {
    /// Builds CSR from triplets via stable counting sort on `key`, so
    /// within-row entry order matches triplet order.
    fn build(n: usize, triplets: &[(u32, u32, f32)], transpose: bool) -> Csr {
        let mut counts = vec![0u32; n + 1];
        for &(r, c, _) in triplets {
            let key = if transpose { c } else { r };
            counts[key as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let nnz = triplets.len();
        let mut indices = vec![0u32; nnz];
        let mut weights = vec![0.0f32; nnz];
        for &(r, c, w) in triplets {
            let (key, other) = if transpose { (c, r) } else { (r, c) };
            let slot = cursor[key as usize] as usize;
            cursor[key as usize] += 1;
            indices[slot] = other;
            weights[slot] = w;
        }
        Csr {
            indptr,
            indices,
            weights,
        }
    }

    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let lo = self.indptr[i] as usize;
        let hi = self.indptr[i + 1] as usize;
        (&self.indices[lo..hi], &self.weights[lo..hi])
    }
}

impl SparseMatrix {
    /// Builds from `(row, col, weight)` triplets.
    pub fn from_triplets(
        n: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> SparseMatrix {
        let triplets: Vec<(u32, u32, f32)> = triplets.into_iter().collect();
        SparseMatrix {
            n,
            fwd: Csr::build(n, &triplets, false),
            bwd: Csr::build(n, &triplets, true),
        }
    }

    /// Symmetrically-normalized adjacency with self loops (GCN-style):
    /// `D^-1/2 (A + I) D^-1/2` over undirected edges.
    pub fn normalized_adjacency(n: usize, edges: &[(u32, u32)]) -> SparseMatrix {
        let mut deg = vec![1.0f32; n]; // self loop
        let mut und: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2 + n);
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            und.push((a, b));
            und.push((b, a));
            deg[a as usize] += 1.0;
            deg[b as usize] += 1.0;
        }
        let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(und.len() + n);
        for i in 0..n as u32 {
            triplets.push((i, i, 1.0 / deg[i as usize]));
        }
        for (a, b) in und {
            let w = 1.0 / (deg[a as usize].sqrt() * deg[b as usize].sqrt());
            triplets.push((a, b, w));
        }
        SparseMatrix::from_triplets(n, triplets)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.fwd.indices.len()
    }

    /// Entries of forward row `i` as `(col, weight)` pairs (in insertion
    /// order of the originating triplets).
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let (cols, ws) = self.fwd.row(i);
        cols.iter().copied().zip(ws.iter().copied())
    }

    /// Number of entries in forward row `i`.
    pub fn row_len(&self, i: usize) -> usize {
        self.fwd.row(i).0.len()
    }

    /// `self @ x` (dense rhs), row-parallel over the CSR rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows != self.n`.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.n, x.cols);
        self.spmm_into(&self.fwd, x, &mut out, false);
        out
    }

    /// `self^T @ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows != self.n`.
    pub fn matmul_t(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.n, x.cols);
        self.spmm_into(&self.bwd, x, &mut out, false);
        out
    }

    /// `out (+)= self @ x` without allocating (autograd backward entry).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_into(&self, x: &Tensor, out: &mut Tensor, accumulate: bool) {
        self.spmm_into(&self.fwd, x, out, accumulate);
    }

    /// `out (+)= self^T @ x` without allocating.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_t_into(&self, x: &Tensor, out: &mut Tensor, accumulate: bool) {
        self.spmm_into(&self.bwd, x, out, accumulate);
    }

    fn spmm_into(&self, csr: &Csr, x: &Tensor, out: &mut Tensor, accumulate: bool) {
        assert_eq!(x.rows, self.n, "spmm shape");
        assert_eq!((out.rows, out.cols), (self.n, x.cols), "spmm out shape");
        let w = x.cols;
        let kn = simd::kernels();
        run_row_blocks(
            &mut out.data,
            w,
            csr.indices.len() * w,
            |first_row, chunk| {
                for (bi, orow) in chunk.chunks_exact_mut(w).enumerate() {
                    let (cols, ws) = csr.row(first_row + bi);
                    spmm_row(kn, cols, ws, x, orow, accumulate);
                }
            },
        );
    }
}

/// One CSR output row: `orow (+)= Σ_e weight_e · x[col_e, :]`.
///
/// Wide feature matrices run through [`SPMM_CT`]-wide column blocks held
/// in registers across the whole entry sweep (the dispatched
/// [`SimdKernels::spmm_tile`] micro-kernel), so output traffic drops from
/// one load+store per (entry, column) to exactly one store per column —
/// the seed-style full-width axpy re-walked the output row once per
/// entry. Every output element still accumulates in **ascending entry
/// order** (the per-block sweep replays the same entries in the same
/// order), so results are bitwise identical to the untiled loop and the
/// nested-Vec seed reference on the scalar and AVX2 tiers.
fn spmm_row(
    kn: &SimdKernels,
    cols: &[u32],
    ws: &[f32],
    x: &Tensor,
    orow: &mut [f32],
    accumulate: bool,
) {
    let w = orow.len();
    let mut j = 0;
    while j + SPMM_CT <= w {
        let tile = &mut orow[j..j + SPMM_CT];
        if !accumulate {
            // Accumulating into zeros is bitwise identical to a fresh tile.
            tile.fill(0.0);
        }
        (kn.spmm_tile)(cols, ws, &x.data[j..], w, tile);
        j += SPMM_CT;
    }
    if j < w {
        // Remainder columns: plain ascending-entry axpy on the tail.
        let tail = &mut orow[j..];
        if !accumulate {
            tail.fill(0.0);
        }
        for (&c, &wt) in cols.iter().zip(ws.iter()) {
            (kn.axpy)(tail, wt, &x.data[c as usize * w + j..(c as usize + 1) * w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_bt_and_at_agree_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::xavier(3, 4, &mut rng);
        let b = Tensor::xavier(5, 4, &mut rng);
        let direct = a.matmul_bt(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in direct.data.iter().zip(explicit.data.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Tensor::xavier(3, 6, &mut rng);
        let direct = a.matmul_at(&c);
        let explicit = a.transpose().matmul(&c);
        for (x, y) in direct.data.iter().zip(explicit.data.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn blocked_kernels_match_references_bitwise() {
        let mut rng = StdRng::seed_from_u64(99);
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (64, 48, 80),
            (130, 70, 66),
        ] {
            let a = Tensor::xavier(m, k, &mut rng);
            let b = Tensor::xavier(k, n, &mut rng);
            assert_eq!(
                a.matmul(&b).data,
                a.matmul_ref(&b).data,
                "matmul {m}x{k}x{n}"
            );
            let bt = Tensor::xavier(n, k, &mut rng);
            assert_eq!(
                a.matmul_bt(&bt).data,
                a.matmul_bt_ref(&bt).data,
                "matmul_bt {m}x{k}x{n}"
            );
            let at = Tensor::xavier(m, n, &mut rng);
            assert_eq!(
                a.matmul_at(&at).data,
                a.matmul_at_ref(&at).data,
                "matmul_at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_into_accumulates() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Tensor::xavier(4, 6, &mut rng);
        let b = Tensor::xavier(6, 5, &mut rng);
        let base = Tensor::xavier(4, 5, &mut rng);
        let mut out = base.clone();
        a.matmul_into(&b, &mut out, true);
        let expect = base.zip(&a.matmul_ref(&b), |x, y| x + y);
        for (o, e) in out.data.iter().zip(expect.data.iter()) {
            assert!((o - e).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_bias_matches_separate_ops_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::xavier(9, 13, &mut rng);
        let w = Tensor::xavier(13, 11, &mut rng);
        let b = Tensor::xavier(1, 11, &mut rng);
        let fused = x.matmul_bias(&w, &b);
        let mut composed = x.matmul(&w);
        for r in 0..composed.rows {
            for c in 0..composed.cols {
                *composed.at_mut(r, c) += b.data[c];
            }
        }
        assert_eq!(fused.data, composed.data);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logits get larger probabilities.
        assert!(s.at(0, 2) > s.at(0, 1));
    }

    #[test]
    fn sparse_normalized_adjacency_is_stochastic_like() {
        // Triangle graph 0-1-2.
        let adj = SparseMatrix::normalized_adjacency(3, &[(0, 1), (1, 2), (0, 2)]);
        let x = Tensor::from_vec(3, 1, vec![1., 1., 1.]);
        let y = adj.matmul(&x);
        // Symmetric normalization of a regular graph preserves the constant
        // vector exactly.
        for v in y.data {
            assert!((v - 1.0).abs() < 1e-5, "{v}");
        }
    }

    #[test]
    fn sparse_transpose_matches_dense() {
        let adj = SparseMatrix::normalized_adjacency(4, &[(0, 1), (1, 2), (2, 3)]);
        let x = Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 0.5, 0.25]);
        let y1 = adj.matmul_t(&x);
        // Dense reference.
        let mut dense = Tensor::zeros(4, 4);
        for i in 0..adj.n {
            for (c, w) in adj.row_entries(i) {
                *dense.at_mut(i, c as usize) = w;
            }
        }
        let y2 = dense.transpose().matmul(&x);
        for (a, b) in y1.data.iter().zip(y2.data.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn csr_rows_preserve_triplet_order_and_duplicates() {
        let m = SparseMatrix::from_triplets(
            3,
            vec![(0, 2, 1.0), (0, 1, 2.0), (0, 2, 3.0), (2, 0, 4.0)],
        );
        let row0: Vec<(u32, f32)> = m.row_entries(0).collect();
        assert_eq!(row0, vec![(2, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(m.row_len(1), 0);
        assert_eq!(m.nnz(), 4);
        // Transpose replay: column 2 received rows 0 (twice).
        let x = Tensor::from_vec(3, 1, vec![1., 1., 1.]);
        let yt = m.matmul_t(&x);
        assert_eq!(yt.data, vec![4.0, 2.0, 4.0]);
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = Tensor::xavier(4, 4, &mut r1);
        let b = Tensor::xavier(4, 4, &mut r2);
        assert_eq!(a, b);
        let bound = (6.0 / 8.0f32).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= bound));
    }
}
