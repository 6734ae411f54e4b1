//! Layout-geometry fusion bench with a JSON baseline.
//!
//! Three sections land in `BENCH_geom.json`:
//!
//! * **Fine-tune scenarios** (Table-V style) — pre-route wirelength and
//!   congestion regression plus per-register slack prediction, each
//!   scored from the fused (geometry × topology) embedding *and* from
//!   the plain TAGFormer cone embedding, with the last design held out.
//!   The fused-vs-plain gap is the geometry modality's contribution.
//!   These metrics are deterministic given the seeds (the fusion trains
//!   through the bitwise-deterministic data-parallel driver), so the
//!   regression check diffs them exactly.
//! * **Extraction throughput** — deterministic placement flow + spatial
//!   feature extraction (`cone_geometry`) per register cone.
//! * **Fused serving** — `embed_cone_fused` through the engine, cold
//!   (every structure new) and warm (every request a salted-cache hit).
//!
//! Run with `cargo bench -p nettag-bench --bench geom`. Thread count
//! follows `RAYON_NUM_THREADS` / `NETTAG_NUM_THREADS`. Set
//! `NETTAG_BENCH_SMOKE=1` for a CI run with a smaller serving section;
//! the task section always runs at full size (its metrics are
//! deterministic and ~1s, so smoke runs reproduce the committed
//! baseline exactly). Smoke runs skip the JSON write unless
//! `NETTAG_BENCH_OUT` names an output path. Results land in
//! `BENCH_geom.json` at the workspace root, or at `NETTAG_BENCH_OUT`
//! when set.

use nettag_core::{NetTag, NetTagConfig};
use nettag_geom::{cone_geometry, FusionModel, FusionTrainConfig};
use nettag_netlist::{
    cone_to_netlist, register_cone, synthesis_phys_estimates, CellKind, Library, Netlist,
};
use nettag_serve::{Engine, ServeConfig};
use nettag_synth::{generate_design, Design, Family, GenerateConfig};
use nettag_tasks::{run_geom_tasks, GeomScenario, GeomTaskReport};
use std::sync::Arc;
use std::time::Instant;

/// The `i`-th of 128 structurally distinct cones (same decomposition as
/// the serve bench: first gate kind × inverter depth × joining kind).
fn bench_cone(i: usize) -> Netlist {
    const FIRST: [CellKind; 4] = [
        CellKind::Xor2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xnor2,
    ];
    const JOIN: [CellKind; 4] = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Aoi21,
        CellKind::Mux2,
    ];
    let mut n = Netlist::new("bench_cone");
    let a = n.add_gate("a", CellKind::Input, vec![]);
    let b = n.add_gate("b", CellKind::Input, vec![]);
    let c = n.add_gate("c", CellKind::Input, vec![]);
    let mut prev = n.add_gate("g0", FIRST[i % 4], vec![a, b]);
    for d in 0..(i / 4) % 8 {
        prev = n.add_gate(format!("inv{d}"), CellKind::Inv, vec![prev]);
    }
    let join = JOIN[(i / 32) % 4];
    let fanin = match join {
        CellKind::Aoi21 | CellKind::Mux2 => vec![prev, c, a],
        _ => vec![prev, c],
    };
    let j = n.add_gate("join", join, fanin);
    n.add_gate("y", CellKind::Output, vec![j]);
    n.validate().expect("valid bench cone")
}

fn scenario_json(name: &str, s: &GeomScenario, last: bool) -> String {
    format!(
        "    \"{name}\": {{\"fused_r\": {:.4}, \"fused_mape\": {:.4}, \
         \"plain_r\": {:.4}, \"plain_mape\": {:.4}}}{}\n",
        s.fused.r,
        s.fused.mape,
        s.plain.r,
        s.plain.mape,
        if last { "" } else { "," }
    )
}

fn main() {
    let smoke = std::env::var("NETTAG_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let threads = nettag_par::num_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lib = Library::default();
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));

    // Fine-tune scenarios: last design held out, fusion trained on the
    // rest (wirelength-grounded), every target regressed fused vs plain.
    // The task section runs at full size even under NETTAG_BENCH_SMOKE
    // (it takes ~1s): the metrics are deterministic given the seeds, so
    // a smoke run reproduces the committed baseline exactly and the CI
    // regression check stays quiet unless the math actually changed.
    let n_designs = 3;
    let designs: Vec<(String, Design)> = (0..n_designs)
        .map(|i| {
            // ITC'99-family designs carry ~20 register cones each at
            // laptop scale; OpenCores blocks are nearly cone-free.
            let d = generate_design(Family::Itc99, i, 0x9E0, &GenerateConfig::default());
            (format!("itc{i}"), d)
        })
        .collect();
    let mut fusion = FusionModel::new(model.config.embed_dim, 2, 0x9E0);
    let train_cfg = FusionTrainConfig {
        steps: 30,
        batch: 8,
        ..FusionTrainConfig::default()
    };
    let t0 = Instant::now();
    let report: GeomTaskReport = run_geom_tasks(&model, &mut fusion, &designs, &lib, &train_cfg);
    let tasks_seconds = t0.elapsed().as_secs_f64();
    for (name, s) in [
        ("wirelength", &report.wirelength),
        ("congestion", &report.congestion),
        ("slack", &report.slack),
    ] {
        println!(
            "  {name:<11} fused r {:>6.3} mape {:>7.2}%  |  plain r {:>6.3} mape {:>7.2}%",
            s.fused.r, s.fused.mape, s.plain.r, s.plain.mape
        );
    }
    println!(
        "  {} train / {} test cones in {tasks_seconds:.1}s",
        report.train_cones, report.test_cones
    );

    // Extraction throughput: deterministic flow + feature matrix per
    // register cone of the first design.
    let netlist = &designs[0].1.netlist;
    let cones: Vec<Netlist> = netlist
        .registers()
        .into_iter()
        .map(|r| cone_to_netlist(netlist, &register_cone(netlist, r)))
        .filter(|c| c.gate_count() >= 2)
        .collect();
    let t0 = Instant::now();
    for c in &cones {
        let props = synthesis_phys_estimates(c, &lib);
        std::hint::black_box(cone_geometry(c, &props, &lib));
    }
    let extract_wall = t0.elapsed().as_secs_f64();
    let cones_per_s = cones.len() as f64 / extract_wall;
    println!(
        "  extraction: {} cones, {cones_per_s:.1} cones/s",
        cones.len()
    );

    // Fused serving: cold pass over distinct structures, then the same
    // requests warm (salted-cache hits).
    let engine = Engine::with_fusion(Arc::clone(&model), fusion, ServeConfig::default());
    let client = engine.client();
    let serve_total = if smoke { 8 } else { 64 };
    let t0 = Instant::now();
    for i in 0..serve_total {
        client.embed_cone_fused(bench_cone(i), None).expect("cold");
    }
    let cold_per_s = serve_total as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for i in 0..serve_total {
        client.embed_cone_fused(bench_cone(i), None).expect("warm");
    }
    let warm_per_s = serve_total as f64 / t0.elapsed().as_secs_f64();
    let warm_speedup = warm_per_s / cold_per_s;
    engine.shutdown();
    println!(
        "  fused serve: cold {cold_per_s:.1} req/s, warm {warm_per_s:.1} req/s \
         ({warm_speedup:.2}x)"
    );

    let out_override = std::env::var("NETTAG_BENCH_OUT").ok();
    if smoke && out_override.is_none() {
        println!("smoke run: skipping BENCH_geom.json");
        return;
    }
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"model\": \"tiny\",\n");
    json.push_str(&format!("  \"designs\": {n_designs},\n"));
    json.push_str(&format!("  \"train_cones\": {},\n", report.train_cones));
    json.push_str(&format!("  \"test_cones\": {},\n", report.test_cones));
    json.push_str("  \"tasks\": {\n");
    json.push_str(&scenario_json("wirelength", &report.wirelength, false));
    json.push_str(&scenario_json("congestion", &report.congestion, false));
    json.push_str(&scenario_json("slack", &report.slack, true));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"extraction\": {{\"cones\": {}, \"cones_per_s\": {cones_per_s:.3}}},\n",
        cones.len()
    ));
    if host_cpus == 1 {
        json.push_str(
            "  \"note\": \"single-core host: serving throughput lacks the pool-parallel \
             batched-encode term; re-record on multi-core\",\n",
        );
    }
    json.push_str(&format!(
        "  \"serve\": {{\"requests\": {serve_total}, \"cold_per_s\": {cold_per_s:.3}, \
         \"warm_per_s\": {warm_per_s:.3}, \"warm_speedup\": {warm_speedup:.3}}}\n"
    ));
    json.push_str("}\n");
    let path = match &out_override {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_geom.json"),
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}
