//! Kernel micro-benchmarks with a JSON baseline.
//!
//! Measures the rewritten numeric core against seed-replica kernels kept
//! inline here (naive zero-skip matmul, nested-Vec SpMM):
//!
//! * 512×512 dense matmul (blocked row-parallel vs seed naive)
//! * SpMM on a 10k-node / 40k-edge normalized adjacency (CSR vs nested)
//! * autograd backward pass on an MLP step (in-place accumulation)
//! * one TAGFormer-style fused forward+backward step
//! * the `train_step` group: full data-parallel optimization steps
//!   (per-sample tapes + deterministic reduction) against their serial
//!   single-thread references, at step-1 and step-2 batch shapes —
//!   for these entries `seed_seconds` records the serial reference, so
//!   `speedup` is the data-parallel term directly
//! * the `simd` group: the same dispatch-table code path timed under a
//!   forced-scalar tier and under runtime dispatch (axpy/dot at 1k and
//!   64k elements, matmul_512, spmm_powerlaw, and the pre-training
//!   shapes of the tiny model: `matmul_bt` at 86×16·(16×16)ᵀ and
//!   48×8·(48×8)ᵀ, `matmul_at` at (86×16)ᵀ·86×16, `matmul` at
//!   48×48·48×8) — `scalar_seconds` is the pinned-scalar leg, so
//!   `speedup` isolates the lane-vectorization term; set `NETTAG_SIMD`
//!   to probe a specific tier
//!
//! Run with `cargo bench -p nettag-bench --bench kernels`. Thread count
//! follows `RAYON_NUM_THREADS` / `NETTAG_NUM_THREADS`. Results (and the
//! per-kernel speedup over the seed replicas) are printed and written to
//! `BENCH_kernels.json` in the working directory so future performance
//! PRs have a trajectory to beat.

use nettag_bench::time_it;
use nettag_nn::simd::{self, SimdTier};
use nettag_nn::{
    data_parallel, info_nce, weighted_sum, GradStore, Graph, Mlp, NodeId, Param, SampleTape,
    SparseMatrix, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// Seed-replica dense matmul: i-k-j loops with the original zero-skip
/// branch, kept verbatim so speedups are measured against the real seed
/// kernel.
fn seed_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let av = a.at(i, k);
            if av == 0.0 {
                continue;
            }
            let orow = &b.data[k * b.cols..(k + 1) * b.cols];
            let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (o, &bv) in out_row.iter_mut().zip(orow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Seed-replica sparse layout and SpMM: per-row `Vec<(u32, f32)>`.
struct SeedSparse {
    rows: Vec<Vec<(u32, f32)>>,
}

impl SeedSparse {
    fn from_csr(m: &SparseMatrix) -> SeedSparse {
        SeedSparse {
            rows: (0..m.n).map(|i| m.row_entries(i).collect()).collect(),
        }
    }

    fn matmul(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows.len(), x.cols);
        for (i, row) in self.rows.iter().enumerate() {
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
}

struct Entry {
    name: &'static str,
    seconds: f64,
    seed_seconds: Option<f64>,
}

/// Times the same closure twice: once pinned to the portable scalar
/// lane tier, once under the process's runtime-dispatched tier. The
/// whole timing loop runs inside one `with_tier` scope so neither leg
/// pays per-iteration override overhead; `speedup` is scalar/dispatched
/// (1.0x by construction when dispatch resolves to scalar).
fn simd_pair(f: &mut impl FnMut()) -> (f64, f64) {
    let scalar = simd::with_tier(SimdTier::Scalar, || time_it(&mut *f))
        .expect("scalar tier always available");
    let dispatched = time_it(&mut *f);
    (scalar, dispatched)
}

fn main() {
    let threads = nettag_par::num_threads();
    let mut entries: Vec<Entry> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xBE7C);

    // --- dense matmul 512x512 ---------------------------------------
    let a = Tensor::xavier(512, 512, &mut rng);
    let b = Tensor::xavier(512, 512, &mut rng);
    assert_eq!(a.matmul(&b).data, a.matmul_ref(&b).data);
    let t_new = time_it(|| a.matmul(&b));
    let t_seed = time_it(|| seed_matmul(&a, &b));
    entries.push(Entry {
        name: "matmul_512",
        seconds: t_new,
        seed_seconds: Some(t_seed),
    });

    // --- SpMM: 10k nodes / 40k edges --------------------------------
    let n = 10_000;
    let edges: Vec<(u32, u32)> = (0..40_000)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    let adj = SparseMatrix::normalized_adjacency(n, &edges);
    let x = Tensor::xavier(n, 64, &mut rng);
    let seed_adj = SeedSparse::from_csr(&adj);
    let t_new = time_it(|| adj.matmul(&x));
    let t_seed = time_it(|| seed_adj.matmul(&x));
    entries.push(Entry {
        name: "spmm_10k_40k",
        seconds: t_new,
        seed_seconds: Some(t_seed),
    });

    // --- SpMM: degree-skewed (power-law) 10k nodes / ~40k edges ------
    // Uniform shapes hide the row imbalance real netlists have: clock and
    // reset nets fan out to thousands of sinks while most gates drive a
    // handful. Sources follow an approximate Zipf draw so a few hub rows
    // carry most of the entries, stressing dynamic task claiming and the
    // per-row column-blocked kernel.
    let hub_edges: Vec<(u32, u32)> = (0..40_000)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-9..1.0f64);
            // Inverse-CDF of an (unnormalized) power law p(r) ~ r^-0.9:
            // rank in [0, n), heavily concentrated near 0.
            let rank = ((n as f64).powf(1.0 - 0.9) * u).powf(1.0 / (1.0 - 0.9));
            let src = (rank as u32).min(n as u32 - 1);
            (src, rng.gen_range(0..n as u32))
        })
        .collect();
    let hub_adj = SparseMatrix::normalized_adjacency(n, &hub_edges);
    let hub_x = Tensor::xavier(n, 64, &mut rng);
    let seed_hub = SeedSparse::from_csr(&hub_adj);
    let t_new = time_it(|| hub_adj.matmul(&hub_x));
    let t_seed = time_it(|| seed_hub.matmul(&hub_x));
    entries.push(Entry {
        name: "spmm_powerlaw_10k_40k",
        seconds: t_new,
        seed_seconds: Some(t_seed),
    });

    // --- autograd backward on an MLP step ---------------------------
    let mut mlp_rng = StdRng::seed_from_u64(7);
    let mlp = Mlp::new(&[128, 256, 256, 64], &mut mlp_rng);
    let input = Tensor::xavier(64, 128, &mut mlp_rng);
    let target = Tensor::zeros(64, 64);
    let t_bwd = time_it(|| {
        let mut g = Graph::new();
        let x = g.constant(input.clone());
        let y = mlp.forward(&mut g, x);
        let loss = g.mse(y, target.clone());
        let grads = g.backward(loss);
        g.param_grads(&grads).len()
    });
    entries.push(Entry {
        name: "mlp_forward_backward",
        seconds: t_bwd,
        seed_seconds: None,
    });

    // --- TAGFormer-style propagation step ---------------------------
    let gn = 256;
    let gd = 64;
    let gedges: Vec<(u32, u32)> = (0..gn as u32 - 1).map(|i| (i, i + 1)).collect();
    let gadj = std::sync::Arc::new(SparseMatrix::normalized_adjacency(gn, &gedges));
    let feats = Tensor::xavier(gn, gd, &mut rng);
    let w = Param::xavier(gd, gd, &mut rng);
    let bias = Param::xavier(1, gd, &mut rng);
    let t_step = time_it(|| {
        let mut g = Graph::new();
        let xn = g.constant(feats.clone());
        let p = g.spmm(gadj.clone(), xn);
        let h = g.linear_relu(p, &w, &bias);
        let m = g.mean_rows(h);
        let loss = g.mse(m, Tensor::zeros(1, gd));
        let grads = g.backward(loss);
        g.param_grads(&grads).len()
    });
    entries.push(Entry {
        name: "graph_propagation_step",
        seconds: t_step,
        seed_seconds: None,
    });

    // --- train_step group: data-parallel vs serial single-thread ------
    // Step-1 shape: a contrastive batch of anchor/positive encoder pairs
    // joined by InfoNCE. `seed_seconds` here is the serial reference
    // (identical tapes and reduction, plain loops), so `speedup` is the
    // data-parallel term directly.
    let s1_batch = 8;
    let enc = Mlp::new(&[96, 192, 192, 64], &mut rng);
    let s1_pairs: Vec<(Tensor, Tensor)> = (0..s1_batch)
        .map(|_| {
            (
                Tensor::xavier(24, 96, &mut rng),
                Tensor::xavier(24, 96, &mut rng),
            )
        })
        .collect();
    let step1 = |serial: bool, store: &mut GradStore| {
        let build = |i: usize| {
            let mut g = Graph::new();
            let a_in = g.constant(s1_pairs[i].0.clone());
            let p_in = g.constant(s1_pairs[i].1.clone());
            let a_seq = enc.forward(&mut g, a_in);
            let p_seq = enc.forward(&mut g, p_in);
            let a = g.mean_rows(a_seq);
            let p = g.mean_rows(p_seq);
            SampleTape {
                graph: g,
                outputs: vec![a, p],
            }
        };
        let combine = |g: &mut Graph, leaves: &[Vec<NodeId>]| {
            let a_rows: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
            let p_rows: Vec<NodeId> = leaves.iter().map(|l| l[1]).collect();
            let a = g.stack_rows(&a_rows);
            let p = g.stack_rows(&p_rows);
            info_nce(g, a, p, 0.1)
        };
        if serial {
            data_parallel::step_serial(s1_batch, build, combine, store)
        } else {
            data_parallel::step(s1_batch, build, combine, store)
        }
    };
    let mut store = GradStore::new();
    let t_par = time_it(|| step1(false, &mut store));
    let t_ser = time_it(|| step1(true, &mut store));
    entries.push(Entry {
        name: "train_step_contrastive_b8",
        seconds: t_par,
        seed_seconds: Some(t_ser),
    });

    // Step-2 shape: per-sample graph tapes (SpMM + fused linear+ReLU +
    // layer_norm) with an auxiliary scalar, combined through a central
    // head + InfoNCE-style CE.
    let s2_batch = 6;
    let (gn2, gd2) = (192usize, 64usize);
    let g_edges: Vec<(u32, u32)> = (0..gn2 as u32 - 1)
        .map(|i| (i, (i * 7 + 1) % gn2 as u32))
        .collect();
    let g_adj = Arc::new(SparseMatrix::normalized_adjacency(gn2, &g_edges));
    let g_feats: Vec<Tensor> = (0..s2_batch)
        .map(|_| Tensor::xavier(gn2, gd2, &mut rng))
        .collect();
    let gw = Param::xavier(gd2, gd2, &mut rng);
    let gb = Param::zeros(1, gd2);
    let ggain = Param::ones(1, gd2);
    let gbias = Param::zeros(1, gd2);
    let ghead = Param::xavier(gd2, 4, &mut rng);
    let step2 = |serial: bool, store: &mut GradStore| {
        let build = |i: usize| {
            let mut g = Graph::new();
            let x = g.constant(g_feats[i].clone());
            let p = g.spmm(g_adj.clone(), x);
            let h = g.linear_relu(p, &gw, &gb);
            let normed = g.layer_norm(h, &ggain, &gbias);
            let pooled = g.mean_rows(normed);
            let aux = g.mse(pooled, Tensor::zeros(1, gd2));
            SampleTape {
                graph: g,
                outputs: vec![pooled, aux],
            }
        };
        let combine = |g: &mut Graph, leaves: &[Vec<NodeId>]| {
            let rows: Vec<NodeId> = leaves.iter().map(|l| l[0]).collect();
            let batch = g.stack_rows(&rows);
            let hn = ghead.bind(g);
            let logits = g.matmul(batch, hn);
            let targets: Vec<usize> = (0..rows.len()).map(|i| i % 4).collect();
            let ce = g.cross_entropy(logits, Arc::new(targets));
            let mut losses: Vec<(NodeId, f32)> = vec![(ce, 1.0)];
            for l in leaves {
                losses.push((l[1], 1.0 / s2_batch as f32));
            }
            weighted_sum(g, &losses)
        };
        if serial {
            data_parallel::step_serial(s2_batch, build, combine, store)
        } else {
            data_parallel::step(s2_batch, build, combine, store)
        }
    };
    let t_par2 = time_it(|| step2(false, &mut store));
    let t_ser2 = time_it(|| step2(true, &mut store));
    entries.push(Entry {
        name: "train_step_graph_b6",
        seconds: t_par2,
        seed_seconds: Some(t_ser2),
    });

    // --- simd group: forced-scalar vs runtime-dispatched lanes --------
    // Each scenario drives the SAME dispatch-table code path twice (see
    // `simd_pair`), so the speedup isolates the lane tier itself rather
    // than comparing different kernels. The dispatched leg follows
    // `NETTAG_SIMD` (auto on CI: AVX2 where detected, scalar elsewhere).
    let simd_tier = simd::active_tier();
    let mut simd_entries: Vec<(&'static str, f64, f64)> = Vec::new();
    let rand_pair = |n: usize, rng: &mut StdRng| -> (Vec<f32>, Vec<f32>) {
        (
            (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
    };
    for (name, len) in [("axpy_1k", 1_000usize), ("axpy_64k", 65_536)] {
        let (x, mut out) = rand_pair(len, &mut rng);
        // Small coefficient keeps the accumulating output bounded (no
        // infinities or subnormals) across millions of timed iterations.
        let mut f = || (simd::kernels().axpy)(&mut out, 1e-5, &x);
        let (scalar_s, disp_s) = simd_pair(&mut f);
        simd_entries.push((name, scalar_s, disp_s));
    }
    for (name, len) in [("dot_1k", 1_000usize), ("dot_64k", 65_536)] {
        let (x, y) = rand_pair(len, &mut rng);
        let mut f = || {
            black_box((simd::kernels().dot)(&x, &y));
        };
        let (scalar_s, disp_s) = simd_pair(&mut f);
        simd_entries.push((name, scalar_s, disp_s));
    }
    {
        let mut f = || {
            black_box(a.matmul(&b));
        };
        let (scalar_s, disp_s) = simd_pair(&mut f);
        simd_entries.push(("matmul_512", scalar_s, disp_s));
    }
    {
        let mut f = || {
            black_box(hub_adj.matmul(&hub_x));
        };
        let (scalar_s, disp_s) = simd_pair(&mut f);
        simd_entries.push(("spmm_powerlaw", scalar_s, disp_s));
    }
    // Training shapes of the tiny model (d = 16, head dim 8): a linear
    // layer's input gradient over an 86-row batch, one head's 48-token
    // attention scores, the same layer's weight gradient, and a head's
    // `attn·V`.
    let [x86, g86] = [0; 2].map(|_| Tensor::xavier(86, 16, &mut rng));
    let [q48, k48, v48] = [0; 3].map(|_| Tensor::xavier(48, 8, &mut rng));
    let w16 = Tensor::xavier(16, 16, &mut rng);
    let attn = Tensor::xavier(48, 48, &mut rng);
    let shapes: [(&'static str, &dyn Fn() -> Tensor); 4] = [
        ("matmul_bt_86x16_16x16", &|| x86.matmul_bt(&w16)),
        ("matmul_bt_48x8_48x8", &|| q48.matmul_bt(&k48)),
        ("matmul_at_86x16_86x16", &|| x86.matmul_at(&g86)),
        ("matmul_48x48_48x8", &|| attn.matmul(&v48)),
    ];
    for (name, op) in shapes {
        let mut f = || {
            black_box(op());
        };
        let (scalar_s, disp_s) = simd_pair(&mut f);
        simd_entries.push((name, scalar_s, disp_s));
    }

    // --- report ------------------------------------------------------
    println!("kernel benches ({threads} thread(s)):");
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    if host_cpus == 1 {
        json.push_str(
            "  \"note\": \"single-core host: only the cache/register-tiling term is \
             measured; the row-parallel and data-parallel train_step terms need a \
             multi-core re-record\",\n",
        );
    }
    json.push_str("  \"kernels\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let speedup = e.seed_seconds.map(|s| s / e.seconds);
        match (e.seed_seconds, speedup) {
            (Some(seed), Some(sp)) => println!(
                "  {:<24} {:>10.3} ms   (seed {:>10.3} ms, speedup {:.2}x)",
                e.name,
                e.seconds * 1e3,
                seed * 1e3,
                sp
            ),
            _ => println!("  {:<24} {:>10.3} ms", e.name, e.seconds * 1e3),
        }
        json.push_str(&format!(
            "    \"{}\": {{\"seconds\": {:.6e}{}}}{}\n",
            e.name,
            e.seconds,
            match (e.seed_seconds, speedup) {
                (Some(s), Some(sp)) => format!(", \"seed_seconds\": {s:.6e}, \"speedup\": {sp:.3}"),
                _ => String::new(),
            },
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    println!("simd dispatch (tier {}):", simd_tier.name());
    json.push_str(&format!(
        "  \"simd\": {{\n    \"tier\": \"{}\",\n",
        simd_tier.name()
    ));
    for (i, (name, scalar_s, disp_s)) in simd_entries.iter().enumerate() {
        let sp = scalar_s / disp_s;
        println!(
            "  {:<24} {:>10.3} ms   (scalar {:>10.3} ms, speedup {:.2}x)",
            name,
            disp_s * 1e3,
            scalar_s * 1e3,
            sp
        );
        json.push_str(&format!(
            "    \"{name}\": {{\"scalar_seconds\": {scalar_s:.6e}, \"seconds\": {disp_s:.6e}, \
             \"speedup\": {sp:.3}}}{}\n",
            if i + 1 == simd_entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  }\n}\n");
    // Land the baseline at the workspace root regardless of bench cwd;
    // `NETTAG_BENCH_OUT` overrides the destination (CI diffs a fresh run
    // against the committed baseline without touching it).
    let path = match std::env::var("NETTAG_BENCH_OUT") {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_kernels.json"),
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}
