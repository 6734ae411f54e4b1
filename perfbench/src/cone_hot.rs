//! `cone_hot`: interactive re-queries of known cones, open loop.
//!
//! The working set is 512 structurally distinct cones (half the default
//! 1024-entry cone cache, so every shard fits), drawn from a design
//! stream disjoint from `design_cold`'s; set-up warms the cache with all
//! of them. One sender thread writes request frames on a fixed schedule
//! over one connection, picking cones by Zipf(1); one receiver thread
//! reads replies, and each is timed from its *due* time. No forward pass
//! runs: the net, proto, digest, cache and batcher layers do all the work.

use crate::common::{
    cache_get_us, fail, median_setup, node_features, peak_rss_mb, process_cpu_s, proto_layers,
    reference_cls, reset_peak_rss, rtt_layers, same_bits, serve_layers, stats_delta, timed, Report,
    Res, Scratch, Stack, Stage,
};
use crate::design_cold;
use crate::stats::{summarize, Ledger, LedgerReport, SplitMix, Summary, Zipf};
use nettag_core::{load_checkpoint, NetTag};
use nettag_expr::token::TokenId;
use nettag_netlist::{structural_hash_with_phys, synthesis_phys_estimates, Library, Netlist, Tag};
use nettag_serve::proto::{self, Request, RequestBody, ResponseBody};
use nettag_serve::NetClient;
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// Distinct cones re-queried.
const WORKING_SET: usize = 512;
const _: () = assert!(WORKING_SET.is_power_of_two());
/// Set-ups timed per run (each includes a cold cache warm-up).
const SETUP_REPS: usize = 3;
/// Cones per pipelined warm-up burst (well under the lane queues).
const WARM_BURST: usize = 128;
/// The latency limit a rate must meet at its tail percentile.
const LIMIT_MS: f64 = 5.0;
/// Tail percentile the limit applies to.
const TAIL_Q: f64 = 0.99;
/// Outstanding requests past which a probe counts as a growing backlog
/// and stops sending (before any lane queue could shed).
const MAX_OUTSTANDING: u64 = 128;
/// The rate ladder is `BASE_RATE * 2^k` up to `TOP_RATE`.
const BASE_RATE: f64 = 1000.0;
const TOP_RATE: f64 = 64_000.0;
/// A probe: at `BASE_RATE`, a saturation probe, the doubling rungs of the
/// ladder, or one bisection step after them.
#[derive(Clone, Copy)]
enum Step {
    Light,
    Capacity,
    Ladder,
    Bisect,
}

/// The probes of a run, in order. The light-load and saturation probes
/// are spread between the ladder's phases, so a slow spell of a few
/// seconds on a shared host spoils few of them.
const SCHEDULE: [Step; 10] = [
    Step::Light,
    Step::Capacity,
    Step::Light,
    Step::Ladder,
    Step::Light,
    Step::Capacity,
    Step::Bisect,
    Step::Light,
    Step::Capacity,
    Step::Light,
];
/// Every probe lasts one unit of `--seconds / UNITS` (the ladder takes
/// about three).
const UNITS: f64 = 12.0;
/// Requests the saturation probe keeps in flight (well under the lane
/// queues, so nothing is shed).
const CAPACITY_WINDOW: u64 = 64;
/// Upper bound on the saturation probe's rate, for sizing its plan.
const CAPACITY_CEILING: f64 = 50_000.0;
/// Working-set cones checked against the offline model.
const MAX_CHECKS: usize = 32;
/// Makes this workload's design stream disjoint from `design_cold`'s.
const STREAM_SALT: u64 = 0x5eed_c0e5_0000_0000;
/// Zipf exponent of cone popularity.
const ZIPF_S: f64 = 1.0;

/// The distinct cones and how popularity ranks map onto them.
struct WorkingSet {
    cones: Vec<Netlist>,
    keys: Vec<u128>,
    /// `by_rank[r]` is the cone at Zipf rank `r`.
    by_rank: Vec<usize>,
    designs: usize,
}

/// Collects the first `WORKING_SET` distinct cones of the stream,
/// timing generation, chunking and digests into `stages`.
fn working_set(seed: u64, stages: &mut [Stage; 3]) -> WorkingSet {
    let [gen, chunk, digest] = stages;
    let lib = Library::default();
    let mut seen = HashSet::new();
    let (mut cones, mut keys) = (Vec::new(), Vec::new());
    let mut designs = 0;
    while cones.len() < WORKING_SET {
        let d = gen.time(1, || design_cold::design(seed ^ STREAM_SALT, designs));
        let burst = chunk.time(1, || design_cold::cones(&d));
        for cone in burst {
            let key = digest.time(1, || {
                structural_hash_with_phys(&cone, &synthesis_phys_estimates(&cone, &lib))
            });
            if cones.len() < WORKING_SET && seen.insert(key) {
                cones.push(cone);
                keys.push(key);
            }
        }
        designs += 1;
    }
    // A request's decode and digest cost grows with its cone's size, so
    // popularity follows a fixed size profile rather than the seed: rank
    // `r` takes the free cone closest in log-size to a target that sweeps
    // the log-uniform range [8, 512] in bit-reversed order (rank 0 aims
    // at 64 gates, rank 1 at 8, rank 2 at 181, ...). Popular ranks pick
    // first, so the sizes that carry the traffic barely move with the seed.
    let bits = WORKING_SET.trailing_zeros();
    let mut free: Vec<usize> = (0..WORKING_SET).collect();
    let by_rank = (0..WORKING_SET)
        .map(|r| {
            let reversed = (r.reverse_bits() >> (usize::BITS - bits)) ^ (WORKING_SET / 2);
            let u = (reversed as f64 + 0.5) / WORKING_SET as f64;
            let target = (8.0f64).ln() + u * (64.0f64).ln();
            let gap = |i: &usize| ((cones[*i].gate_count() as f64).ln() - target).abs();
            let pick = (0..free.len())
                .min_by(|&a, &b| gap(&free[a]).total_cmp(&gap(&free[b])).then(a.cmp(&b)))
                .expect("a free cone per rank");
            free.swap_remove(pick)
        })
        .collect();
    WorkingSet {
        cones,
        keys,
        by_rank,
        designs,
    }
}

/// Embeds the whole working set in pipelined bursts, returning the
/// served embeddings in working-set order.
fn warm(addr: SocketAddr, cones: &[Netlist]) -> Res<Vec<Vec<f32>>> {
    let mut client = NetClient::connect(addr).map_err(fail("connect"))?;
    let mut out = Vec::with_capacity(cones.len());
    for burst in cones.chunks(WARM_BURST) {
        for reply in client.embed_cones(burst).map_err(fail("warm burst"))? {
            out.push(reply.map_err(fail("warm reply"))?);
        }
    }
    Ok(out)
}

/// One fixed-rate probe's outcome.
struct Probe {
    rate: f64,
    ledger: LedgerReport,
    /// Error replies, wrong embeddings, and requests never answered.
    failures: u64,
    /// Stopped early on a growing backlog.
    aborted: bool,
    latency: Option<Summary>,
    late: Option<Summary>,
    /// Answers per second over the probe.
    throughput: f64,
}

impl Probe {
    fn pass(&self) -> bool {
        !self.aborted
            && self.failures == 0
            && self.ledger.duplicates == 0
            && self.ledger.strays == 0
            && self.latency.is_some_and(|s| s.tail <= LIMIT_MS)
    }
}

/// Sleeps until shortly before `due`, then yields until it passes.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(250) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The sending half of the load generator's connection.
struct Sender<'a> {
    stream: TcpStream,
    templates: Vec<Request>,
    answered: &'a AtomicU64,
    replies: Receiver<(u64, Instant, ResponseBody)>,
    next_id: u64,
    buf: Vec<u8>,
}

impl Sender<'_> {
    /// Writes one request frame for working-set cone `cone`.
    fn send(&mut self, cone: usize, id: u64) -> bool {
        let req = &mut self.templates[cone];
        req.id = id;
        self.buf.clear();
        proto::write_request(&mut self.buf, req)
            .and_then(|()| self.stream.write_all(&self.buf))
            .is_ok()
    }

    /// Requests in flight since `answered0` was read, given `sent`.
    fn outstanding(&self, answered0: u64, sent: u64) -> u64 {
        sent.saturating_sub(self.answered.load(Ordering::Acquire) - answered0)
    }

    /// Waits up to three seconds for every sent request to be answered,
    /// then books each queued reply into `ledger` (ids relative to
    /// `base`) and returns the number of wrong or error replies.
    fn collect(
        &mut self,
        ledger: &mut Ledger,
        plan: &[usize],
        (base, answered0, sent): (u64, u64, u64),
        start: Instant,
        expected: &[Vec<f32>],
    ) -> u64 {
        let drain_until = Instant::now() + Duration::from_secs(3);
        while self.outstanding(answered0, sent) > 0 && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut wrong = 0;
        while let Ok((id, at, body)) = self.replies.try_recv() {
            let i = id.checked_sub(base).map_or(usize::MAX, |i| i as usize);
            ledger.answered(i, at.saturating_duration_since(start));
            let right = match (&body, plan.get(i)) {
                (ResponseBody::Embedding(e), Some(&c)) => same_bits(e, &expected[c]),
                _ => false,
            };
            wrong += u64::from(!right);
        }
        wrong
    }

    /// Sends `plan` (cone per request) at `rate` and collects the replies.
    fn probe(&mut self, plan: &[usize], rate: f64, expected: &[Vec<f32>]) -> Probe {
        let mut ledger = Ledger::new(plan.len(), Duration::from_secs_f64(1.0 / rate));
        let base = self.next_id;
        self.next_id += plan.len() as u64;
        let answered0 = self.answered.load(Ordering::Acquire);
        let (mut sent, mut aborted, mut failures) = (0u64, false, 0u64);
        let start = Instant::now() + Duration::from_millis(1);
        for (i, &cone) in plan.iter().enumerate() {
            wait_until(start + ledger.due(i));
            if self.outstanding(answered0, sent) > MAX_OUTSTANDING {
                aborted = true;
                break;
            }
            if !self.send(cone, base + i as u64) {
                failures += 1;
                break;
            }
            ledger.sent(i, start.elapsed());
            sent += 1;
        }
        failures += self.collect(&mut ledger, plan, (base, answered0, sent), start, expected);
        let ledger = ledger.report();
        failures += (ledger.sent - ledger.answered) as u64;
        Probe {
            rate,
            latency: summarize(&ledger.latency_ms, TAIL_Q),
            late: summarize(&ledger.late_ms, TAIL_Q),
            throughput: ledger.answered as f64 / ledger.span.as_secs_f64().max(1e-9),
            ledger,
            failures,
            aborted,
        }
    }

    /// Closed-loop saturation for `seconds`: refills the connection to
    /// `CAPACITY_WINDOW` requests in flight whenever half have answered.
    fn saturate(&mut self, plan: &[usize], seconds: f64, expected: &[Vec<f32>]) -> Res<Capacity> {
        let cpu0 = process_cpu_s()?;
        let mut ledger = Ledger::new(plan.len(), Duration::ZERO);
        let base = self.next_id;
        self.next_id += plan.len() as u64;
        let answered0 = self.answered.load(Ordering::Acquire);
        let (mut sent, mut failures) = (0u64, 0u64);
        let start = Instant::now();
        let stop = start + Duration::from_secs_f64(seconds);
        for (i, &cone) in plan.iter().enumerate() {
            if self.outstanding(answered0, sent) >= CAPACITY_WINDOW {
                while self.outstanding(answered0, sent) > CAPACITY_WINDOW / 2 {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            if Instant::now() >= stop {
                break;
            }
            if !self.send(cone, base + i as u64) {
                failures += 1;
                break;
            }
            ledger.sent(i, start.elapsed());
            sent += 1;
        }
        failures += self.collect(&mut ledger, plan, (base, answered0, sent), start, expected);
        let ledger = ledger.report();
        failures += (ledger.sent - ledger.answered + ledger.duplicates) as u64;
        Ok(Capacity {
            per_s: ledger.answered as f64 / ledger.span.as_secs_f64().max(1e-9),
            cpu_us_per_req: (process_cpu_s()? - cpu0) * 1e6 / ledger.answered.max(1) as f64,
            sent: ledger.sent,
            answered: ledger.answered,
            failures,
        })
    }
}

/// What the saturation probe measured.
struct Capacity {
    /// Answers per second with the window kept full.
    per_s: f64,
    /// Process CPU time (client and server) per answer.
    cpu_us_per_req: f64,
    sent: usize,
    answered: usize,
    failures: u64,
}

/// Everything one connection measured.
struct Ladder {
    /// The `BASE_RATE` probes.
    light: Vec<Probe>,
    /// The doubling rungs above it, then the bisection probes.
    rungs: Vec<Probe>,
    /// The saturation probes.
    capacity: Vec<Capacity>,
}

/// Runs the `SCHEDULE` over one connection. The ladder doubles from
/// `BASE_RATE` until a rung misses the limit; a bisection step then probes
/// halfway between the last rung that met it and the first that did not.
fn ladder(
    addr: SocketAddr,
    ws: &WorkingSet,
    expected: &[Vec<f32>],
    seed: u64,
    unit_s: f64,
) -> Res<Ladder> {
    let stream = TcpStream::connect(addr).map_err(fail("connect"))?;
    stream.set_nodelay(true).map_err(fail("nodelay"))?;
    let mut write = stream.try_clone().map_err(fail("clone stream"))?;
    proto::write_hello(&mut write).map_err(fail("hello"))?;
    let mut read = BufReader::new(stream);
    proto::read_hello(&mut read).map_err(fail("hello"))?;
    let answered = AtomicU64::new(0);
    let (tx, rx) = channel();
    let zipf = Zipf::new(WORKING_SET, ZIPF_S);
    let mut rng = SplitMix::new(seed ^ 0x21ff);
    let mut plan = |n: f64| -> Vec<usize> {
        (0..n.ceil() as usize)
            .map(|_| ws.by_rank[zipf.sample(&mut rng)])
            .collect()
    };
    std::thread::scope(|s| {
        let answered = &answered;
        s.spawn(move || {
            while let Ok(Some(resp)) = proto::read_response(&mut read) {
                let at = Instant::now();
                if tx.send((resp.id, at, resp.body)).is_err() {
                    break;
                }
                answered.fetch_add(1, Ordering::Release);
            }
        });
        let mut sender = Sender {
            stream: write,
            templates: ws
                .cones
                .iter()
                .map(|c| Request {
                    id: 0,
                    deadline_ms: 0,
                    body: RequestBody::EmbedCone {
                        netlist: c.clone(),
                        phys: None,
                    },
                })
                .collect(),
            answered,
            replies: rx,
            next_id: 0,
            buf: Vec::new(),
        };
        let mut light: Vec<Probe> = Vec::new();
        let mut capacity: Vec<Capacity> = Vec::new();
        let mut rungs: Vec<Probe> = Vec::new();
        let (mut lo, mut hi) = (BASE_RATE, None);
        for step in SCHEDULE {
            std::thread::sleep(Duration::from_millis(20));
            match step {
                Step::Light => {
                    light.push(sender.probe(&plan(BASE_RATE * unit_s), BASE_RATE, expected));
                }
                Step::Capacity => {
                    let p = plan(CAPACITY_CEILING * unit_s);
                    capacity.push(sender.saturate(&p, unit_s, expected)?);
                }
                Step::Ladder => {
                    let mut rate = 2.0 * BASE_RATE;
                    while hi.is_none() && rate <= TOP_RATE {
                        let p = sender.probe(&plan(rate * unit_s), rate, expected);
                        if p.pass() {
                            lo = rate;
                        } else {
                            hi = Some(rate);
                        }
                        rungs.push(p);
                        rate *= 2.0;
                    }
                }
                Step::Bisect => {
                    if let Some(top) = hi {
                        let mid = (lo + top) / 2.0;
                        let p = sender.probe(&plan(mid * unit_s), mid, expected);
                        if p.pass() {
                            lo = mid;
                        } else {
                            hi = Some(mid);
                        }
                        rungs.push(p);
                    }
                }
            }
        }
        let _ = sender.stream.shutdown(Shutdown::Both);
        Ok(Ladder {
            light,
            rungs,
            capacity,
        })
    })
}

/// Runs the workload; `trace` adds the per-layer replay.
pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Scratch) -> Res<Report> {
    let mut report = Report::default();
    let ws = working_set(seed, &mut [Stage::default(); 3]);
    let reps = if trace { 1 } else { SETUP_REPS };
    let paths = scratch.checkpoints(seed, reps)?;
    let setup = |i: usize| -> Res<(Stack, Vec<Vec<f32>>)> {
        let stack = Stack::load(&paths[i])?;
        let served = warm(stack.addr(), &ws.cones)?;
        Ok((stack, served))
    };
    let ((stack, served), first_setup) = timed(|| setup(0))?;
    reset_peak_rss()?;
    let before = stack.engine.stats();
    let unit_s = seconds / UNITS;
    let lad = ladder(stack.addr(), &ws, &served, seed, unit_s)?;
    let peak_rss = peak_rss_mb()?;
    let delta = stats_delta(before, stack.engine.stats());

    let probes: Vec<&Probe> = lad.light.iter().chain(&lad.rungs).collect();
    for p in &probes {
        report.attempted += p.ledger.sent as u64;
        report.failed += p.failures + p.ledger.duplicates as u64;
    }
    for c in &lad.capacity {
        report.attempted += c.sent as u64;
        report.failed += c.failures;
    }
    let best = probes
        .iter()
        .filter(|p| p.pass())
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    let max_rate = best.map_or(0.0, |p| p.throughput);
    let light: Vec<Summary> = lad.light.iter().filter_map(|p| p.latency).collect();
    if light.len() < lad.light.len() {
        return Err("a light-load probe got no answers".into());
    }
    // Each figure is the best of the probes spread through the run: CPU
    // steal on a shared host comes in bursts of seconds that can cover
    // most of a run, and the best probe is the one it spared. The gated
    // tail is p90, as on the other workloads; a light probe's p99 moves
    // with every scheduling stall.
    let best_of = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
    let light_p50 = best_of(&mut light.iter().map(|s| s.p50));
    let light_tail = best_of(&mut light.iter().map(|s| s.tail));
    let light_p90: Vec<Summary> = lad
        .light
        .iter()
        .filter_map(|p| summarize(&p.ledger.latency_ms, 0.9))
        .collect();
    let light_gated = best_of(&mut light_p90.iter().map(|s| s.tail));
    let capacity = -best_of(&mut lad.capacity.iter().map(|c| -c.per_s));

    // Correctness gate, outside the timed section: a seeded sample of the
    // served working set against the offline model. Every ladder reply
    // was already compared with these bits.
    let model = load_checkpoint(&paths[0]).map_err(fail("reload checkpoint"))?;
    let lib = Library::default();
    let mut rng = SplitMix::new(seed ^ 0xc4ec);
    for _ in 0..MAX_CHECKS {
        let i = (rng.next_u64() % WORKING_SET as u64) as usize;
        if !same_bits(&served[i], &reference_cls(&model, &lib, &ws.cones[i])) {
            report.mismatch(format!("working-set cone {i}: served embedding differs"));
        }
    }

    report.e2e("peak_rss_mb", peak_rss, "MB");
    report.e2e("throughput_per_s", capacity, "1/s");
    report.e2e("p50_ms", light_p50, "ms");
    report.e2e("tail_ms", light_gated, "ms");
    let window = |s: &Summary| format!("n={} per probe, {} beyond", s.n, s.tail_beyond);
    report.named(
        "p50_ms_r1000",
        light_p50,
        "ms",
        format!("best of {} probes, {}", light.len(), window(&light[0])),
    );
    report.named(
        &format!("p{:.0}_ms_r1000", light_p90[0].tail_q * 100.0),
        light_gated,
        "ms",
        format!("best of {} probes, {}", light.len(), window(&light_p90[0])),
    );
    report.named(
        &format!("p{:.0}_ms_r1000", light[0].tail_q * 100.0),
        light_tail,
        "ms",
        format!("best of {} probes, {}", light.len(), window(&light[0])),
    );
    if let Some(s) = lad
        .rungs
        .iter()
        .find(|p| p.rate == 4.0 * BASE_RATE)
        .and_then(|p| p.latency)
    {
        report.named("p50_ms_r4000", s.p50, "ms", window(&s));
        report.named(
            &format!("p{:.0}_ms_r4000", s.tail_q * 100.0),
            s.tail,
            "ms",
            window(&s),
        );
    }
    report.named(
        "capacity_per_s",
        capacity,
        "1/s",
        format!(
            "answered/s with {CAPACITY_WINDOW} in flight, best of {} probes",
            lad.capacity.len()
        ),
    );
    report.named(
        "max_rate_per_s",
        max_rate,
        "1/s",
        format!(
            "answered/s at the highest offered rate meeting p99 <= {LIMIT_MS} ms ({})",
            best.map_or(0.0, |p| p.rate)
        ),
    );
    let ladder_json: Vec<String> = probes
        .iter()
        .map(|p| {
            let s = p.latency.unwrap_or(Summary {
                n: 0,
                p50: 0.0,
                tail: 0.0,
                tail_q: 0.0,
                tail_beyond: 0,
            });
            format!(
                "{{\"rate\": {}, \"pass\": {}, \"aborted\": {}, \"sent\": {}, \"answered\": {}, \
                 \"p50_ms\": {}, \"tail_ms\": {}, \"tail_q\": {}, \"tail_beyond\": {}, \
                 \"late_ms_p99\": {}, \"answered_per_s\": {}}}",
                p.rate,
                p.pass(),
                p.aborted,
                p.ledger.sent,
                p.ledger.answered,
                s.p50,
                s.tail,
                s.tail_q,
                s.tail_beyond,
                p.late.map_or(0.0, |l| l.tail),
                p.throughput
            )
        })
        .collect();
    report.meta("rate_ladder", format!("[{}]", ladder_json.join(", ")));
    report.meta("probe_unit_seconds", unit_s.to_string());
    report.meta("working_set_designs", ws.designs.to_string());
    let caps: Vec<String> = lad
        .capacity
        .iter()
        .map(|c| {
            format!(
                "{{\"answered_per_s\": {}, \"cpu_us_per_req\": {}}}",
                c.per_s, c.cpu_us_per_req
            )
        })
        .collect();
    report.meta("capacity", format!("[{}]", caps.join(", ")));

    if trace {
        serve_layers(&mut report, delta);
        let sent: usize = probes.iter().map(|p| p.ledger.sent).sum::<usize>()
            + lad.capacity.iter().map(|c| c.sent).sum::<usize>();
        let answered: usize = probes.iter().map(|p| p.ledger.answered).sum::<usize>()
            + lad.capacity.iter().map(|c| c.answered).sum::<usize>();
        report.layer("loadgen.sent", sent as f64, "count");
        report.layer("loadgen.answered", answered as f64, "count");
        report.layer(
            "loadgen.late_ms_p99",
            best.and_then(|p| p.late).map_or(0.0, |l| l.tail),
            "ms",
        );
        rtt_layers(&mut report, stack.addr(), &ws.cones[ws.by_rank[0]])?;
        replay(&mut report, &model, seed, &served)?;
    }
    drop(stack);
    report.e2e("setup_s", median_setup(first_setup, reps, setup)?, "s");
    Ok(report)
}

/// The traced replay: the working-set build and the cold warm-up pass
/// in-process through each layer's public functions (warm-up batches of
/// `max_batch` cones, one ExprLLM pass each), then the hit path's frames
/// and cache lookups over the request stream.
fn replay(report: &mut Report, model: &NetTag, seed: u64, served: &[Vec<f32>]) -> Res<()> {
    let lib = Library::default();
    let vocab = NetTag::vocab();
    let opts = model.tag_options();
    let max_batch = nettag_serve::ServeConfig::default().max_batch;
    let mut front = [Stage::default(); 3];
    let [mut tag_build, mut tokenize, mut exprllm, mut scatter, mut tagformer] =
        [Stage::default(); 5];
    let (mut rows, mut unique) = (0usize, 0usize);
    let t_wall = Instant::now();
    let ws = working_set(seed, &mut front);
    let mut digest = front[2];
    for batch in ws.cones.chunks(max_batch) {
        let mut union: Vec<Vec<TokenId>> = Vec::new();
        let mut tags = Vec::with_capacity(batch.len());
        for cone in batch {
            let props = digest.time(1, || {
                let props = synthesis_phys_estimates(cone, &lib);
                std::hint::black_box(structural_hash_with_phys(cone, &props));
                props
            });
            let tag = tag_build.time(1, || Tag::from_netlist_with_phys(cone, &props, &opts));
            let offset = union.len();
            tokenize.time(tag.len() as u64, || {
                for i in 0..tag.len() {
                    union.push(tag.node_tokens(&vocab, i, model.config.max_tokens, false));
                }
            });
            tags.push((tag, offset));
        }
        rows += union.len();
        unique += union.iter().collect::<HashSet<_>>().len();
        let text = exprllm.time(1, || model.exprllm.encode_batch(&union));
        for (tag, offset) in tags {
            let feats = scatter.time(1, || node_features(model, &tag, &text, offset));
            tagformer.time(1, || model.tagformer.encode(&feats, &tag.edges));
        }
    }
    let wall = t_wall.elapsed();
    let [gen, chunk, _] = front;
    let stages = [
        gen, chunk, digest, tag_build, tokenize, exprllm, scatter, tagformer,
    ];
    let busy: Duration = stages.iter().map(|s| s.busy).sum();
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

    // The hit path's frames and lookups, over a Zipf request stream.
    let zipf = Zipf::new(WORKING_SET, ZIPF_S);
    let mut rng = SplitMix::new(seed ^ 0x21ff);
    let stream: Vec<usize> = (0..4096)
        .map(|_| ws.by_rank[zipf.sample(&mut rng)])
        .collect();
    let netlists: Vec<&Netlist> = stream.iter().map(|&c| &ws.cones[c]).collect();
    let replies: Vec<Vec<f32>> = stream.iter().map(|&c| served[c].clone()).collect();
    proto_layers(report, &netlists, &replies)?;
    let lookups: Vec<u128> = stream.iter().map(|&c| ws.keys[c]).collect();
    report.layer("serve.cache_get_us", cache_get_us(&ws.keys, &lookups), "us");
    Ok(())
}
