//! Serving-engine throughput/latency bench with a JSON baseline.
//!
//! Drives the `nettag-serve` engine with 1, 8, and 64 concurrent
//! blocking clients, cold (every request a structure the engine has
//! never seen) and warm (every request a cache hit), and compares
//! against the *sequential offline baseline*: the same request set
//! answered one-by-one through `NetTag::embed_tag` with no engine, no
//! batching, and no cache — exactly what a caller without the serving
//! layer would run.
//!
//! Reported per scenario: p50/p99 request latency (measured at the
//! client, so it includes queueing behind the batch in flight) and
//! requests/second.
//! A full run makes seven passes over every timed scenario and reports
//! each of these, and each headline, as the median over the passes; a
//! headline is a ratio within one pass first, so both of its legs see
//! the same stretch of host load. Derived headlines:
//!
//! * `batched_vs_single_request_c8` — cold 8-client throughput over
//!   cold single-client (single-request serving) throughput: the
//!   dynamic-batching term (must be > 1).
//! * `warm_speedup_c8` — warm over cold 8-client throughput: the
//!   structural-hash cache term.
//! * `batched_vs_sequential_offline_c8` — cold 8-client throughput
//!   over the no-engine offline loop. On a single-core host this can
//!   sit below 1 (batching cannot parallelize serial compute, and the
//!   engine pays IPC per request); on multi-core hosts the batched
//!   ExprLLM pass fans out across the worker pool.
//! * `socket_vs_inprocess_c8` — cold 8-client throughput through the
//!   loopback TCP front-end over the same load in-process: the framing +
//!   syscall overhead of the wire (expected ≤ 1; the gap is the
//!   transport tax, since both paths share the batcher lanes).
//! * `resilience_off_speedup` — warm 8-client throughput with the
//!   deadline machinery engaged (`warm_c8_deadline`: a generous
//!   per-request budget nothing trips, fault injection disarmed) over
//!   plain `warm_c8`: the steady-state price of the fault-tolerance
//!   layer. Must sit at ~1.0 — deadlines are one `Instant` comparison
//!   per request, panic isolation one `catch_unwind` per batch, and the
//!   disarmed fault harness a single `Option` branch.
//!
//! An overload scenario floods a deliberately tiny bounded queue
//! (`lanes=1, queue_depth=2, max_batch=1`) through one pipelined socket
//! connection and records the shed rate — the fraction of the flood
//! refused with a typed `Overloaded` instead of queueing unboundedly.
//!
//! The layout-geometry path gets two more sections: `extraction`, the
//! deterministic placement flow plus spatial feature extraction
//! (`cone_geometry`) per register cone of an ITC'99-family design, and
//! `fused_serve`, `embed_cone_fused` (`[CLS] ‖ mean geometry`), cold
//! (every structure new: a `[CLS]` pass plus a placement flow per
//! request) and warm (every request a salted-cache hit). Geometry
//! *quality* lives in the quality recorder.
//!
//! Run with `cargo bench -p nettag-bench --bench serve`. Thread count
//! follows `RAYON_NUM_THREADS` / `NETTAG_NUM_THREADS`. Set
//! `NETTAG_BENCH_SMOKE=1` for a one-request-per-client smoke run (CI
//! uses this); smoke runs skip the JSON write unless `NETTAG_BENCH_OUT`
//! names an output path. Results land in `BENCH_serve.json` at the
//! workspace root, or at `NETTAG_BENCH_OUT` when set.

use nettag_core::{cone_geometry, NetTag, NetTagConfig};
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, synthesis_phys_estimates, CellKind, Library, Netlist, Tag,
};
use nettag_serve::{Engine, NetClient, NetServer, ServeConfig, ServeError};
use nettag_synth::{generate_design, Family, GenerateConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Builds the `i`-th of 128 structurally distinct cone netlists: the
/// first gate kind, an inverter-chain depth, and the combining gate kind
/// decompose `i` base 4×8×4, so no two indices collide structurally.
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

/// Latency percentiles (ms) over one scenario's samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx] * 1e3
}

struct Scenario {
    name: String,
    clients: usize,
    requests: usize,
    reqs_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Runs `clients` blocking client threads, each embedding its slice of
/// `structures` (by index), and gathers per-request latencies.
fn drive(
    engine: &Engine,
    clients: usize,
    per_client: usize,
    structure_of: impl Fn(usize, usize) -> usize + Sync,
) -> (f64, Vec<f64>) {
    let latencies = Mutex::new(Vec::with_capacity(clients * per_client));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let client = engine.client();
            let latencies = &latencies;
            let structure_of = &structure_of;
            s.spawn(move || {
                let mut mine = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let netlist = bench_cone(structure_of(c, r));
                    let t = Instant::now();
                    client.embed_cone(netlist, None).expect("serve");
                    mine.push(t.elapsed().as_secs_f64());
                }
                latencies
                    .lock()
                    .expect("latency sink poisoned")
                    .extend(mine);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut all = latencies.into_inner().expect("latency sink poisoned");
    all.sort_by(f64::total_cmp);
    (wall, all)
}

fn run_scenario(
    model: &Arc<NetTag>,
    name: String,
    clients: usize,
    per_client: usize,
    warm: bool,
    request_timeout: Option<Duration>,
) -> Scenario {
    // A clone per engine: each scenario starts with an empty text cache.
    let engine = Engine::new(
        Arc::new(NetTag::clone(model)),
        ServeConfig {
            request_timeout,
            ..ServeConfig::default()
        },
    );
    let total = clients * per_client;
    if warm {
        // Pre-embed every structure once so the measured pass is all hits.
        let warmer = engine.client();
        for i in 0..total {
            warmer.embed_cone(bench_cone(i), None).expect("warm");
        }
    }
    let before = engine.stats();
    // Cold: structure unique per (client, request) — no aliasing anywhere.
    // Warm: the same indices, now resident.
    let (wall, lat) = drive(&engine, clients, per_client, |c, r| c * per_client + r);
    let after = engine.stats();
    let s = Scenario {
        name,
        clients,
        requests: total,
        reqs_per_s: total as f64 / wall,
        p50_ms: percentile(&lat, 50.0),
        p99_ms: percentile(&lat, 99.0),
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
    };
    engine.shutdown();
    s
}

/// Like [`run_scenario`] but through the loopback TCP front-end: each
/// client thread drives its own connection with blocking round-trips, so
/// per-request latency includes framing, syscalls, and queueing behind
/// the batch in flight.
fn run_socket_scenario(
    model: &Arc<NetTag>,
    name: String,
    clients: usize,
    per_client: usize,
    warm: bool,
) -> Scenario {
    let engine = Engine::new(Arc::new(NetTag::clone(model)), ServeConfig::default());
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let total = clients * per_client;
    if warm {
        let mut warmer = NetClient::connect(addr).expect("connect");
        for i in 0..total {
            warmer.embed_cone(&bench_cone(i), None).expect("warm");
        }
    }
    let before = engine.stats();
    let latencies = Mutex::new(Vec::with_capacity(total));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let latencies = &latencies;
            s.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut mine = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let netlist = bench_cone(c * per_client + r);
                    let t = Instant::now();
                    client.embed_cone(&netlist, None).expect("serve");
                    mine.push(t.elapsed().as_secs_f64());
                }
                latencies
                    .lock()
                    .expect("latency sink poisoned")
                    .extend(mine);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut all = latencies.into_inner().expect("latency sink poisoned");
    all.sort_by(f64::total_cmp);
    let after = engine.stats();
    let s = Scenario {
        name,
        clients,
        requests: total,
        reqs_per_s: total as f64 / wall,
        p50_ms: percentile(&all, 50.0),
        p99_ms: percentile(&all, 99.0),
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
    };
    server.shutdown();
    engine.shutdown();
    s
}

/// Floods a tiny bounded queue through one pipelined connection and
/// reports `(flood size, sheds)` — how much load the engine refused with
/// a typed `Overloaded` while staying responsive.
fn run_overload_scenario(model: &Arc<NetTag>, flood: usize) -> (usize, usize) {
    let engine = Engine::new(
        Arc::new(NetTag::clone(model)),
        ServeConfig {
            lanes: 1,
            queue_depth: 2,
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let burst: Vec<Netlist> = (0..flood).map(bench_cone).collect();
    let results = client.embed_cones(&burst).expect("pipeline");
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();
    assert!(
        results
            .iter()
            .all(|r| matches!(r, Ok(_) | Err(ServeError::Overloaded))),
        "every flooded request answers: served or typed Overloaded"
    );
    // The engine must keep serving after shedding.
    client.embed_cone(&bench_cone(0), None).expect("post-flood");
    server.shutdown();
    engine.shutdown();
    (flood, shed)
}

/// Timed passes per full run. One scenario is 64–128 requests, well
/// under a second, so a single pass moves with whatever else the host
/// runs; every metric and headline is the median over these passes
/// (smoke runs make one).
const REPEATS: usize = 7;

/// One pass over every timed scenario.
struct Round {
    seq_rps: f64,
    seq_p50_ms: f64,
    seq_p99_ms: f64,
    scenarios: Vec<Scenario>,
    extraction_per_s: f64,
    fused_cold: f64,
    fused_warm: f64,
}

impl Round {
    fn rps(&self, name: &str) -> f64 {
        self.scenarios
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.reqs_per_s)
    }

    /// The derived headlines, in report order.
    fn headlines(&self) -> [(&'static str, f64); 5] {
        [
            (
                "batched_vs_single_request_c8",
                self.rps("cold_c8") / self.rps("cold_c1"),
            ),
            (
                "batched_vs_sequential_offline_c8",
                self.rps("cold_c8") / self.seq_rps,
            ),
            (
                "socket_vs_inprocess_c8",
                self.rps("socket_cold_c8") / self.rps("cold_c8"),
            ),
            (
                "resilience_off_speedup",
                self.rps("warm_c8_deadline") / self.rps("warm_c8"),
            ),
            ("warm_speedup_c8", self.rps("warm_c8") / self.rps("cold_c8")),
        ]
    }
}

/// The median of `values` (the upper one for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Runs every timed scenario once: the sequential offline baseline, the
/// in-process and socket engine scenarios, geometry extraction and fused
/// serving.
fn round(model: &Arc<NetTag>, lib: &Library, cones: &[Netlist], smoke: bool) -> Round {
    // Sequential offline baseline over the 8-client request set: one
    // embed_tag per request, no engine. Each request runs on its own
    // clone of the model, whose gate-text cache starts empty, so no
    // request reuses another's work. The clone is not timed: throughput
    // is the request count over the summed per-request times.
    let seq_total = if smoke { 8 } else { 128 };
    let mut seq_lat = Vec::with_capacity(seq_total);
    for i in 0..seq_total {
        let (n, fresh) = (bench_cone(i), NetTag::clone(model));
        let t = Instant::now();
        let tag = Tag::from_netlist(&n, lib, &fresh.tag_options());
        std::hint::black_box(fresh.embed_tag(&tag).cls);
        seq_lat.push(t.elapsed().as_secs_f64());
    }
    let seq_wall: f64 = seq_lat.iter().sum();
    seq_lat.sort_by(f64::total_cmp);

    // Engine scenarios: total request count held near the baseline's so
    // throughputs compare like for like.
    let plan: &[(usize, usize)] = if smoke {
        &[(1, 1), (8, 1), (64, 1)]
    } else {
        &[(1, 64), (8, 16), (64, 2)]
    };
    let mut scenarios = Vec::new();
    for &(clients, per_client) in plan {
        for warm in [false, true] {
            let label = format!("{}_c{clients}", if warm { "warm" } else { "cold" });
            scenarios.push(run_scenario(model, label, clients, per_client, warm, None));
        }
    }

    // Resilience-off overhead: the warm c8 scenario again, but with the
    // deadline machinery engaged (a generous per-request budget nothing
    // trips) while fault injection stays disarmed. The panic-isolation
    // `catch_unwind` wraps every batch in both runs, so the headline
    // `resilience_off_speedup` prices the whole fault-tolerance layer's
    // steady-state cost — it must sit at ~1.0x.
    let (clients, per_client) = if smoke { (8, 1) } else { (8, 16) };
    scenarios.push(run_scenario(
        model,
        "warm_c8_deadline".into(),
        clients,
        per_client,
        true,
        Some(Duration::from_secs(30)),
    ));

    // Socket scenarios: the same c8 load through the loopback TCP
    // front-end, so the in-process/socket gap isolates the transport.
    for warm in [false, true] {
        let label = format!("socket_{}_c{clients}", if warm { "warm" } else { "cold" });
        scenarios.push(run_socket_scenario(model, label, clients, per_client, warm));
    }

    // Extraction throughput: deterministic flow + feature matrix per
    // register cone.
    let t0 = Instant::now();
    for c in cones {
        let props = synthesis_phys_estimates(c, lib);
        std::hint::black_box(cone_geometry(c, &props, lib));
    }
    let extraction_per_s = cones.len() as f64 / t0.elapsed().as_secs_f64();

    // Fused serving: cold pass over distinct structures, then the same
    // requests warm (salted-cache hits). The model clone starts with an
    // empty text cache.
    let engine = Engine::new(Arc::new(NetTag::clone(model)), ServeConfig::default());
    let client = engine.client();
    let fused_total = if smoke { 8 } else { 64 };
    let fused_pass = |what: &str| {
        let t0 = Instant::now();
        for i in 0..fused_total {
            client.embed_cone_fused(bench_cone(i), None).expect(what);
        }
        fused_total as f64 / t0.elapsed().as_secs_f64()
    };
    let fused_cold = fused_pass("cold");
    let fused_warm = fused_pass("warm");
    engine.shutdown();

    Round {
        seq_rps: seq_total as f64 / seq_wall,
        seq_p50_ms: percentile(&seq_lat, 50.0),
        seq_p99_ms: percentile(&seq_lat, 99.0),
        scenarios,
        extraction_per_s,
        fused_cold,
        fused_warm,
    }
}

fn main() {
    let smoke = std::env::var("NETTAG_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let threads = nettag_par::num_threads();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let lib = Library::default();
    // The extraction scenario's register cones, from one ITC'99-family
    // design.
    let design = generate_design(Family::Itc99, 0, 0x9E0, &GenerateConfig::default());
    let netlist = &design.netlist;
    let cones: Vec<Netlist> = chunk_into_cones(netlist)
        .iter()
        .map(|c| cone_to_netlist(netlist, c))
        .filter(|c| c.gate_count() >= 2)
        .collect();

    let repeats = if smoke { 1 } else { REPEATS };
    let rounds: Vec<Round> = (0..repeats)
        .map(|r| {
            let round = round(&model, &lib, &cones, smoke);
            let line: Vec<String> = round
                .headlines()
                .iter()
                .map(|(name, v)| format!("{name} {v:.2}"))
                .collect();
            println!("pass {}/{repeats}: {}", r + 1, line.join(", "));
            round
        })
        .collect();
    let med = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());

    let seq_total = if smoke { 8 } else { 128 };
    let seq_rps = med(&|r| r.seq_rps);
    let (seq_p50, seq_p99) = (med(&|r| r.seq_p50_ms), med(&|r| r.seq_p99_ms));
    println!(
        "sequential baseline: {seq_total} reqs, {seq_rps:.1} req/s, p50 {seq_p50:.3} ms, \
         p99 {seq_p99:.3} ms"
    );
    let scenarios: Vec<Scenario> = (0..rounds[0].scenarios.len())
        .map(|i| {
            let first = &rounds[0].scenarios[i];
            Scenario {
                name: first.name.clone(),
                clients: first.clients,
                requests: first.requests,
                reqs_per_s: med(&|r| r.scenarios[i].reqs_per_s),
                p50_ms: med(&|r| r.scenarios[i].p50_ms),
                p99_ms: med(&|r| r.scenarios[i].p99_ms),
                cache_hits: first.cache_hits,
                cache_misses: first.cache_misses,
            }
        })
        .collect();
    for s in &scenarios {
        println!(
            "  {:<16} {:>3} client(s) × {:<3} reqs: {:>8.1} req/s, p50 {:>8.3} ms, \
             p99 {:>8.3} ms ({} hits / {} misses)",
            s.name,
            s.clients,
            s.requests / s.clients,
            s.reqs_per_s,
            s.p50_ms,
            s.p99_ms,
            s.cache_hits,
            s.cache_misses,
        );
    }

    // Overload: flood a tiny bounded queue, record how much load sheds.
    let (flood, shed) = run_overload_scenario(&model, if smoke { 16 } else { 64 });
    let shed_rate = shed as f64 / flood as f64;
    println!(
        "  overload: {shed}/{flood} flooded requests shed ({:.0}%)",
        shed_rate * 100.0
    );

    let cones_per_s = med(&|r| r.extraction_per_s);
    println!(
        "  extraction: {} cones, {cones_per_s:.1} cones/s",
        cones.len()
    );
    let fused_total = if smoke { 8 } else { 64 };
    let (fused_cold, fused_warm) = (med(&|r| r.fused_cold), med(&|r| r.fused_warm));
    let fused_speedup = med(&|r| r.fused_warm / r.fused_cold);
    println!(
        "  fused serve: cold {fused_cold:.1} req/s, warm {fused_warm:.1} req/s ({fused_speedup:.2}x)"
    );

    // Each headline is a ratio within one pass, then the median over
    // passes, so a slow stretch of the host moves both of its legs.
    let headlines: Vec<(&str, f64)> = rounds[0]
        .headlines()
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, med(&|r| r.headlines()[i].1)))
        .collect();
    for (name, v) in &headlines {
        println!("{name}: {v:.2}x");
    }

    // Smoke runs write JSON only when CI (or a user) names an explicit
    // output path for a freshness diff against the committed baseline.
    let out_override = std::env::var("NETTAG_BENCH_OUT").ok();
    if smoke && out_override.is_none() {
        println!("smoke run: skipping BENCH_serve.json");
        return;
    }
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str("  \"model\": \"tiny\",\n");
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!(
        "  \"sequential_baseline\": {{\"requests\": {seq_total}, \"reqs_per_s\": {seq_rps:.3}, \
         \"p50_ms\": {seq_p50:.4}, \"p99_ms\": {seq_p99:.4}}},\n",
    ));
    json.push_str("  \"scenarios\": {\n");
    for (i, s) in scenarios.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"clients\": {}, \"requests\": {}, \"reqs_per_s\": {:.3}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"cache_hits\": {}, \"cache_misses\": {}}}{}\n",
            s.name,
            s.clients,
            s.requests,
            s.reqs_per_s,
            s.p50_ms,
            s.p99_ms,
            s.cache_hits,
            s.cache_misses,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"extraction\": {{\"cones\": {}, \"cones_per_s\": {cones_per_s:.3}}},\n",
        cones.len()
    ));
    json.push_str(&format!(
        "  \"fused_serve\": {{\"requests\": {fused_total}, \"cold_per_s\": {fused_cold:.3}, \
         \"warm_per_s\": {fused_warm:.3}, \"warm_speedup\": {fused_speedup:.3}}},\n",
    ));
    json.push_str(&format!(
        "  \"overload\": {{\"flood\": {flood}, \"shed\": {shed}, \"shed_rate\": {shed_rate:.3}}},\n"
    ));
    for (i, (name, v)) in headlines.iter().enumerate() {
        let sep = if i + 1 == headlines.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {v:.3}{sep}\n"));
    }
    json.push_str("}\n");
    let path = match &out_override {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_serve.json"),
    };
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}
