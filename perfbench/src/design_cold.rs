//! `design_cold`: generated RTL to served embeddings, closed loop.
//!
//! One caller on one connection. It takes the next design of the seeded
//! stream (round-robin over the four families at scale 0.5), chunks it
//! into register cones, sends every cone of 2 to 220 gates as one
//! pipelined burst, and waits for the replies. Most of the work lands in
//! ExprLLM, TAGFormer and TAG building; structural repeats across designs
//! hit the cone cache and repeats within a burst dedup in the batcher.
//!
//! A speed probe runs before each design, while the server is idle, and
//! each design's time is scaled by the probes around it (see
//! [`Speed`]): the timed figures read as at the reference speed.

use crate::common::{
    cache_get_us, fail, median_setup, node_features, peak_rss_mb, process_cpu_s, proto_layers,
    reference_cls, reset_peak_rss, rtt_layers, same_bits, serve_layers, stats_delta, timed, Report,
    Res, Scratch, Speed, Stack, Stage,
};
use crate::stats::{summarize, SplitMix};
use nettag_core::data::DataConfig;
use nettag_core::{load_checkpoint, NetTag};
use nettag_expr::token::TokenId;
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, structural_hash_with_phys, synthesis_phys_estimates,
    Library, Netlist, Tag,
};
use nettag_serve::NetClient;
use nettag_synth::{generate_design, Design, GenerateConfig, ALL_FAMILIES};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 9;
/// One served cone in this many is checked against the offline model.
const CHECK_EVERY: u64 = 16;
/// Most sampled cones checked per run.
const MAX_CHECKS: usize = 64;
/// Designs the traced replay walks through (the first of the stream).
const REPLAY_DESIGNS: usize = 48;
/// Entries of the replay's stand-in for the engine's cone cache.
const REPLAY_CACHE: usize = 1024;

/// Design `k` of the stream for `seed`.
pub fn design(seed: u64, k: usize) -> Design {
    let gen = GenerateConfig {
        scale: 0.5,
        ..GenerateConfig::default()
    };
    generate_design(
        ALL_FAMILIES[k % ALL_FAMILIES.len()],
        k / ALL_FAMILIES.len(),
        seed,
        &gen,
    )
}

/// The cones of a design a flow sends: every register cone of at least two
/// gates and at most the pre-training corpus's largest. TAGFormer attends
/// over all of a cone's gates, so the few larger cones (up to ~1000 gates
/// at scale 0.5) would set most of a run's cost and make it hinge on
/// which of them the seed draws.
pub fn cones(design: &Design) -> Vec<Netlist> {
    let max = DataConfig::default().max_cone_gates;
    chunk_into_cones(&design.netlist)
        .iter()
        .map(|c| cone_to_netlist(&design.netlist, c))
        .filter(|n| (2..=max).contains(&n.gate_count()))
        .collect()
}

fn sampled(seed: u64, k: usize, j: usize) -> bool {
    SplitMix::new(seed ^ ((k as u64) << 24) ^ j as u64)
        .next_u64()
        .is_multiple_of(CHECK_EVERY)
}

/// One design's trip through the flow.
struct Trip {
    /// Generation to last reply, in milliseconds.
    ms: f64,
    /// Gates over all the cones sent.
    cone_gates: usize,
}

/// Probes before and after a design that set its scale: a design takes
/// tens of milliseconds, and the host's speed can flip within a second.
const SPEED_SPAN: usize = 1;

/// What the caller saw.
struct CallerLog {
    trips: Vec<Trip>,
    /// Probe `k` was taken just before design `k`, plus one after the last.
    speed: Speed,
    /// Sampled `(design, cone, netlist, served embedding)`.
    samples: Vec<(usize, usize, Netlist, Vec<f32>)>,
    sent: u64,
    answered: u64,
    errors: Vec<String>,
    wall: Duration,
}

fn caller(addr: SocketAddr, seed: u64, seconds: f64) -> Res<CallerLog> {
    let mut client = NetClient::connect(addr).map_err(fail("connect"))?;
    let mut log = CallerLog {
        trips: Vec::new(),
        speed: Speed::new(SPEED_SPAN),
        samples: Vec::new(),
        sent: 0,
        answered: 0,
        errors: Vec::new(),
        wall: Duration::ZERO,
    };
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut k = 0;
    while Instant::now() < stop {
        log.speed.probe();
        let t0 = Instant::now();
        let d = design(seed, k);
        let burst = cones(&d);
        let replies = if burst.is_empty() {
            Vec::new()
        } else {
            client.embed_cones(&burst).map_err(fail("embed burst"))?
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let cone_gates = burst.iter().map(Netlist::gate_count).sum();
        log.sent += burst.len() as u64;
        for (j, (cone, reply)) in burst.into_iter().zip(replies).enumerate() {
            match reply {
                Ok(emb) => {
                    log.answered += 1;
                    if sampled(seed, k, j) {
                        log.samples.push((k, j, cone, emb));
                    }
                }
                Err(e) => log.errors.push(format!("design {k} cone {j}: {e}")),
            }
        }
        log.trips.push(Trip { ms, cone_gates });
        k += 1;
    }
    log.speed.probe();
    log.wall = start.elapsed();
    Ok(log)
}

/// Runs the workload; `trace` adds the per-layer replay.
pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Scratch) -> Res<Report> {
    let mut report = Report::default();
    let reps = if trace { 1 } else { SETUP_REPS };
    let paths = scratch.checkpoints(seed, reps)?;
    let (stack, first_setup) = timed(|| Stack::load(&paths[0]))?;
    reset_peak_rss()?;
    let before = stack.engine.stats();
    let cpu0 = process_cpu_s()?;
    let addr = stack.addr();
    let mut log = caller(addr, seed, seconds)?;
    let peak_rss = peak_rss_mb()?;
    let cpu_s = process_cpu_s()? - cpu0;
    let delta = stats_delta(before, stack.engine.stats());
    for e in log.errors.drain(..) {
        report.mismatch(e);
    }

    let designs = log.trips.len();
    let raw: Vec<f64> = log.trips.iter().map(|t| t.ms).collect();
    let scaled: Vec<f64> = (0..designs).map(|k| raw[k] * log.speed.factor(k)).collect();
    let per_kgate: Vec<f64> = log
        .trips
        .iter()
        .zip(&scaled)
        .map(|(t, ms)| ms * 1e3 / t.cone_gates.max(1) as f64)
        .collect();
    let lat = summarize(&scaled, 0.9).ok_or("no design completed")?;
    let norm = summarize(&per_kgate, 0.9).ok_or("no design completed")?;
    let (sent, answered) = (log.sent, log.answered);
    let cones_per_s = answered as f64 * 1e3 / scaled.iter().sum::<f64>();
    let raw_cones_per_s = answered as f64 / log.wall.as_secs_f64();
    report.attempted = sent;

    // Correctness gate, outside the timed section.
    let mut samples = std::mem::take(&mut log.samples);
    samples.truncate(MAX_CHECKS);
    let model = load_checkpoint(&paths[0]).map_err(fail("reload checkpoint"))?;
    let aliased = check(&mut report, &model, seed, designs, &samples);

    report.e2e("peak_rss_mb", peak_rss, "MB");
    report.e2e("throughput_per_s", cones_per_s, "1/s");
    report.e2e("p50_ms", norm.p50, "ms");
    report.e2e("tail_ms", norm.tail, "ms");
    report.named(
        "cones_per_s",
        cones_per_s,
        "1/s",
        format!("{answered} cones, at the reference speed"),
    );
    report.named(
        "cones_per_s_unscaled",
        raw_cones_per_s,
        "1/s",
        format!("{answered} cones over {:.1} s", log.wall.as_secs_f64()),
    );
    report.named(
        "design_p50_ms",
        lat.p50,
        "ms",
        format!("n={designs}; at the reference speed"),
    );
    report.named(
        &format!("design_p{:.0}_ms", lat.tail_q * 100.0),
        lat.tail,
        "ms",
        format!("n={designs}, {} beyond", lat.tail_beyond),
    );
    report.named(
        "design_p50_ms_per_kgate",
        norm.p50,
        "ms",
        format!("n={designs}; per 1000 gates sent, at the reference speed"),
    );
    report.named(
        &format!("design_p{:.0}_ms_per_kgate", norm.tail_q * 100.0),
        norm.tail,
        "ms",
        format!("n={designs}, {} beyond", norm.tail_beyond),
    );
    report.named(
        "probe_us",
        log.speed.median_us(),
        "us",
        format!("median of {} speed probes", log.speed.len()),
    );
    report.named(
        "cache_aliased_checks",
        aliased as f64,
        "count",
        format!(
            "of {} checked replies were another same-digest cone's embedding",
            samples.len()
        ),
    );
    report.meta("designs", designs.to_string());
    report.meta("cpu_s", cpu_s.to_string());
    report.meta("callers", "1".to_string());
    for (key, s) in [("design_latency", lat), ("design_latency_per_kgate", norm)] {
        report.meta(
            key,
            format!(
                "{{\"n\": {}, \"tail_q\": {}, \"tail_beyond\": {}}}",
                s.n, s.tail_q, s.tail_beyond
            ),
        );
    }
    report.meta("checked_samples", samples.len().to_string());

    if trace {
        serve_layers(&mut report, delta);
        report.layer("loadgen.sent", sent as f64, "count");
        report.layer("loadgen.answered", answered as f64, "count");
        let hot = samples.first().map(|s| s.2.clone());
        let hot = hot.or_else(|| cones(&design(seed, 0)).into_iter().next());
        rtt_layers(&mut report, addr, &hot.ok_or("no cone to re-query")?)?;
        replay(&mut report, &model, seed, designs.min(REPLAY_DESIGNS))?;
    }
    drop(stack);
    let setup_s = median_setup(first_setup, reps, |i| Stack::load(&paths[i]))?;
    report.e2e("setup_s", setup_s, "s");
    Ok(report)
}

/// The correctness gate. Each sampled reply must be, bit for bit, the
/// offline `[CLS]` embedding of its own cone, or else of another cone the
/// run sent under the same structural digest: the cone cache keys by
/// `structural_hash_with_phys`, which at present equates some cones whose
/// TAGs differ, and a hit answers with the embedding of whichever cone
/// filled the entry. Those replies are counted and returned, not failed;
/// a reply matching no cone of its digest is a mismatch.
fn check(
    report: &mut Report,
    model: &NetTag,
    seed: u64,
    designs: usize,
    samples: &[(usize, usize, Netlist, Vec<f32>)],
) -> usize {
    let lib = Library::default();
    let digest = |n: &Netlist| structural_hash_with_phys(n, &synthesis_phys_estimates(n, &lib));
    let keys: Vec<u128> = samples.iter().map(|s| digest(&s.2)).collect();
    let wanted: HashSet<u128> = keys.iter().copied().collect();
    let mut peers: HashMap<u128, Vec<Netlist>> = HashMap::new();
    for k in 0..designs {
        for cone in cones(&design(seed, k)) {
            let key = digest(&cone);
            if wanted.contains(&key) {
                peers.entry(key).or_default().push(cone);
            }
        }
    }
    let mut aliased = 0;
    for ((k, j, cone, served), key) in samples.iter().zip(&keys) {
        if same_bits(served, &reference_cls(model, &lib, cone)) {
            continue;
        }
        let same_digest = peers.get(key).map_or(&[][..], Vec::as_slice);
        if same_digest
            .iter()
            .any(|p| same_bits(served, &reference_cls(model, &lib, p)))
        {
            aliased += 1;
        } else {
            report.mismatch(format!(
                "design {k} cone {j}: served embedding matches no cone of its digest"
            ));
        }
    }
    aliased
}

/// The traced replay: the first `count` designs of the stream pass
/// in-process through each layer's public functions, mirroring the
/// engine's batch (digest, cache check, in-burst dedup, one ExprLLM pass
/// per burst, then one TAGFormer pass per computed cone), with a timer
/// around every call.
fn replay(report: &mut Report, model: &NetTag, seed: u64, count: usize) -> Res<()> {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let opts = model.tag_options();
    let [mut gen, mut chunk, mut digest, mut tag_build, mut tokenize, mut exprllm, mut scatter, mut tagformer] =
        [Stage::default(); 8];
    let mut cached: HashSet<u128> = HashSet::new();
    let mut fifo: VecDeque<u128> = VecDeque::new();
    let mut bursts: Vec<Vec<Vec<TokenId>>> = Vec::new();
    let mut all: Vec<(Netlist, u128)> = Vec::new();
    let mut computed: Vec<Vec<f32>> = Vec::new();
    let t_wall = Instant::now();
    for k in 0..count {
        let d = gen.time(1, || design(seed, k));
        let burst = chunk.time(1, || cones(&d));
        let mut union: Vec<Vec<TokenId>> = Vec::new();
        let mut compute: Vec<(Tag, usize)> = Vec::new();
        let mut scheduled: HashSet<u128> = HashSet::new();
        for cone in burst {
            let (props, key) = digest.time(1, || {
                let props = synthesis_phys_estimates(&cone, &lib);
                let key = structural_hash_with_phys(&cone, &props);
                (props, key)
            });
            if !cached.contains(&key) && scheduled.insert(key) {
                let tag = tag_build.time(1, || Tag::from_netlist_with_phys(&cone, &props, &opts));
                let offset = union.len();
                tokenize.time(tag.len() as u64, || {
                    for i in 0..tag.len() {
                        union.push(tag.node_tokens(&vocab, i, model.config.max_tokens, false));
                    }
                });
                compute.push((tag, offset));
            }
            all.push((cone, key));
        }
        if !union.is_empty() {
            let text = exprllm.time(1, || model.exprllm.encode_batch(&union));
            for (tag, offset) in compute {
                let feats = scatter.time(1, || node_features(model, &tag, &text, offset));
                let (_, cls) = tagformer.time(1, || model.tagformer.encode(&feats, &tag.edges));
                computed.push(cls.data);
            }
            bursts.push(union);
        }
        for &key in &scheduled {
            cached.insert(key);
            fifo.push_back(key);
            if fifo.len() > REPLAY_CACHE {
                if let Some(old) = fifo.pop_front() {
                    cached.remove(&old);
                }
            }
        }
    }
    let wall = t_wall.elapsed();
    let stages = [
        gen, chunk, digest, tag_build, tokenize, exprllm, scatter, tagformer,
    ];
    let busy: Duration = stages.iter().map(|s| s.busy).sum();
    let rows: usize = bursts.iter().map(Vec::len).sum();
    let unique: usize = bursts
        .iter()
        .map(|b| b.iter().collect::<HashSet<_>>().len())
        .sum();
    report.layer("synth.generate_ms", gen.per_unit_ms(), "ms");
    report.layer("netlist.chunk_ms", chunk.per_unit_ms(), "ms");
    report.layer("netlist.digest_us", digest.per_unit_us(), "us");
    report.layer("netlist.tag_build_us", tag_build.per_unit_us(), "us");
    report.layer("expr.tokenize_us", tokenize.per_unit_us(), "us");
    report.layer("core.exprllm_ms", exprllm.per_unit_ms(), "ms");
    report.layer("core.exprllm_rows", rows as f64, "count");
    report.layer(
        "core.exprllm_unique_ratio",
        unique as f64 / rows.max(1) as f64,
        "ratio",
    );
    report.layer("core.scatter_us", scatter.per_unit_us(), "us");
    report.layer("core.tagformer_us", tagformer.per_unit_us(), "us");
    report.layer(
        "trace.coverage",
        busy.as_secs_f64() / wall.as_secs_f64(),
        "ratio",
    );
    report.meta("replay_designs", count.to_string());

    let netlists: Vec<&Netlist> = all.iter().map(|(n, _)| n).collect();
    proto_layers(report, &netlists, &computed)?;
    let mut fill = Vec::new();
    let mut seen = HashSet::new();
    for (_, key) in &all {
        if fill.len() < REPLAY_CACHE && seen.insert(*key) {
            fill.push(*key);
        }
    }
    let lookups: Vec<u128> = all.iter().map(|(_, k)| *k).collect();
    report.layer("serve.cache_get_us", cache_get_us(&fill, &lookups), "us");
    Ok(())
}
