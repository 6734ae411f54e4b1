//! Set-up, correctness and per-layer helpers shared by the workloads.

use crate::stats::{median, Metric};
use nettag_core::{save_checkpoint, NetTag, NetTagConfig};
use nettag_netlist::{Library, Netlist, Tag};
use nettag_nn::Tensor;
use nettag_serve::proto::{self, Request, RequestBody, Response, ResponseBody};
use nettag_serve::{ConeCache, Engine, NetClient, NetServer, ServeConfig, ServeStats};
use std::hint::black_box;
use std::io::Cursor;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fallible step of a run; the message explains what broke.
pub type Res<T> = Result<T, String>;

/// Formats any error as a run failure.
pub fn fail<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured section.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Correctness-gate failures, one message each.
    pub mismatches: Vec<String>,
    /// End-to-end metrics (tracing off).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced replay).
    pub layers: Vec<Metric>,
    /// Workload-specific end-to-end figures, printed by name for people.
    pub named: Vec<(String, f64, &'static str, String)>,
    /// Run metadata as `(key, JSON value)`.
    pub meta: Vec<(String, String)>,
}

impl Report {
    /// Records a correctness-gate failure; it also counts as a failed
    /// operation.
    pub fn mismatch(&mut self, msg: String) {
        self.failed += 1;
        self.mismatches.push(msg);
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    /// Adds a workload-specific figure with a note (sample counts).
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.named.push((name.to_string(), value, unit, note));
    }

    /// Adds a metadata entry whose value is already JSON.
    pub fn meta(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }
}

/// A per-run scratch directory inside the build directory, removed on
/// drop. Checkpoints are written here so every load reads a real file.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<CARGO_TARGET_DIR or .bench_build>/perfbench-scratch-<pid>`.
    pub fn create() -> Res<Scratch> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let dir = base.join(format!("perfbench-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(fail("create scratch dir"))?;
        Ok(Scratch { dir })
    }

    /// Writes `copies` checkpoints of the seeded tiny model, each under a
    /// path of its own: the shared loader dedups by path through a `Weak`
    /// registry, so only a path nothing holds is a real disk load.
    pub fn checkpoints(&self, seed: u64, copies: usize) -> Res<Vec<PathBuf>> {
        let model = NetTag::new(NetTagConfig {
            seed,
            ..NetTagConfig::tiny()
        });
        (0..copies)
            .map(|i| {
                let path = self.dir.join(format!("model-{i}.json"));
                save_checkpoint(&model, &path).map_err(fail("save checkpoint"))?;
                Ok(path)
            })
            .collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Times one set-up: its result and the seconds it took, scaled to the
/// reference speed by a probe taken just before it (see [`probe_us`]).
pub fn timed<T>(setup: impl FnOnce() -> Res<T>) -> Res<(T, f64)> {
    let probe = probe_us();
    let t0 = Instant::now();
    let out = setup()?;
    Ok((out, t0.elapsed().as_secs_f64() * PROBE_REF_US / probe))
}

/// The median of `first` and the times of set-ups `1..reps`, each torn
/// down before the next. A workload runs its measured section on set-up
/// 0 and repeats the rest afterwards, so their memory and threads never
/// overlap the measurement.
pub fn median_setup<T>(
    first: f64,
    reps: usize,
    mut setup: impl FnMut(usize) -> Res<T>,
) -> Res<f64> {
    let mut times = vec![first];
    for i in 1..reps {
        times.push(timed(|| setup(i))?.1);
    }
    Ok(median(&times))
}

/// A served model: the loopback server and the engine behind it. Fields
/// drop in order, so the server stops before its engine.
pub struct Stack {
    /// The network edge.
    pub server: NetServer,
    /// The serving engine.
    pub engine: Engine,
}

impl Stack {
    /// Loads `checkpoint` and binds a loopback server over it, all with
    /// production defaults.
    pub fn load(checkpoint: &Path) -> Res<Stack> {
        let engine = Engine::from_checkpoint(checkpoint, ServeConfig::default())
            .map_err(fail("load checkpoint"))?;
        let server =
            NetServer::bind(engine.client(), "127.0.0.1:0").map_err(fail("bind loopback"))?;
        Ok(Stack { server, engine })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// The offline reference for one served cone embedding.
pub fn reference_cls(model: &NetTag, lib: &Library, netlist: &Netlist) -> Vec<f32> {
    let tag = Tag::from_netlist(netlist, lib, &model.tag_options());
    model.embed_tag(&tag).cls.data
}

/// TAGFormer input for `tag`, as the serving engine assembles it: each
/// node's ExprLLM row (from `text`, starting at row `offset`) times the
/// model's `text_scale`, then the node's physical feature vector.
pub fn node_features(model: &NetTag, tag: &Tag, text: &Tensor, offset: usize) -> Tensor {
    let dim = model.config.embed_dim;
    let mut feats = Tensor::zeros(tag.len(), dim + 8);
    for (i, row) in feats.data.chunks_exact_mut(dim + 8).enumerate() {
        for (o, v) in row.iter_mut().zip(text.row_slice(offset + i)) {
            *o = v * model.text_scale;
        }
        row[dim..].copy_from_slice(&tag.nodes[i].phys.feature_vector());
    }
    feats
}

/// Bitwise equality of two embeddings.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Restarts this process's peak-RSS count from its current RSS, so the
/// next [`peak_rss_mb`] covers the measured section rather than set-up
/// transients (memory set-up leaves live is still counted).
pub fn reset_peak_rss() -> Res<()> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(fail("reset peak RSS"))
}

/// CPU time this process has used, all threads, user plus system, in
/// seconds (`/proc/self/stat`, clock ticks of 10 ms).
pub fn process_cpu_s() -> Res<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(fail("read stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    if ticks.len() != 2 {
        return Err("malformed /proc/self/stat".into());
    }
    Ok((ticks[0] + ticks[1]) / 100.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail("read status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Side of the probe kernel's square matrix.
const PROBE_N: usize = 64;
/// Matrix-vector products in one probe task: a few microseconds.
const TASK_REPS: usize = 6;
/// Tasks in one probe region.
const REGION_TASKS: usize = 8;
/// Regions in one probe.
const PROBE_REGIONS: usize = 32;
/// What a probe is taken to last at the reference speed, in microseconds.
pub const PROBE_REF_US: f64 = 1000.0;

/// One parallel region of a probe: tasks claimed through a shared cursor.
struct Region {
    next: AtomicUsize,
    pending: AtomicUsize,
}

/// The benchmark's own yardstick for the host's speed.
///
/// On a shared host the same code runs up to twice as slow for seconds at
/// a time, and thread CPU time inflates with wall time, so neither shows
/// the program's own speed. The slowdown has two faces: each core
/// computes slower, and a parked thread takes longer to wake, which
/// costs the program's worker pool its parallel speed-up. A probe runs a
/// fixed f32 kernel written here, so no change to the program can move
/// it, as short parallel regions shaped like the pool's: parked helpers
/// (one per further core) are woken for each region and claim tasks
/// alongside the caller, and the caller spins until every task is done.
/// Probes taken between units of work, while the program is idle, track
/// the drift, and [`Speed`] scales each unit by it.
pub struct Prober {
    matrix: Arc<Vec<f32>>,
    senders: Vec<mpsc::Sender<Arc<Region>>>,
    helpers: Vec<JoinHandle<()>>,
}

impl Prober {
    /// Starts the helpers and runs one untimed probe, so they are parked
    /// before the first timed one.
    pub fn new() -> Prober {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let matrix: Arc<Vec<f32>> = Arc::new(
            (0..PROBE_N * PROBE_N)
                .map(|i| ((i * 7919) % 101) as f32 * 1e-3)
                .collect(),
        );
        let (mut senders, mut helpers) = (Vec::new(), Vec::new());
        for _ in 1..cores {
            let (tx, rx) = mpsc::channel::<Arc<Region>>();
            let m = Arc::clone(&matrix);
            helpers.push(std::thread::spawn(move || {
                while let Ok(region) = rx.recv() {
                    run_tasks(&region, &m);
                }
            }));
            senders.push(tx);
        }
        let prober = Prober {
            matrix,
            senders,
            helpers,
        };
        prober.probe_us();
        prober
    }

    /// Times one probe in microseconds.
    pub fn probe_us(&self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..PROBE_REGIONS {
            let region = Arc::new(Region {
                next: AtomicUsize::new(0),
                pending: AtomicUsize::new(REGION_TASKS),
            });
            for tx in &self.senders {
                // A helper that has gone is simply not woken.
                let _ = tx.send(Arc::clone(&region));
            }
            run_tasks(&region, &self.matrix);
            while region.pending.load(Ordering::Acquire) > 0 {
                std::hint::spin_loop();
            }
        }
        t0.elapsed().as_secs_f64() * 1e6
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        self.senders.clear();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claims and runs tasks of `region` until none are left.
fn run_tasks(region: &Region, a: &[f32]) {
    while region.next.fetch_add(1, Ordering::Relaxed) < REGION_TASKS {
        let mut y = [0f32; PROBE_N];
        for _ in 0..TASK_REPS {
            let a = black_box(a);
            for (j, col) in a.chunks_exact(PROBE_N).enumerate() {
                let xj = (j % 13) as f32 * 1e-2;
                for (yi, &aij) in y.iter_mut().zip(col) {
                    *yi += aij * xj;
                }
            }
        }
        black_box(&y);
        // Pairs with the caller's Acquire load, which waits for this.
        region.pending.fetch_sub(1, Ordering::Release);
    }
}

/// Times one probe on a fresh [`Prober`].
pub fn probe_us() -> f64 {
    Prober::new().probe_us()
}

/// Probes taken around consecutive units of work: probe `i` just before
/// unit `i`, and one more after the last unit.
pub struct Speed {
    prober: Prober,
    probes: Vec<f64>,
    span: usize,
}

impl Speed {
    /// A track whose unit `i` is scaled by the `span` probes before it and
    /// the `span` after it (`span >= 1`).
    pub fn new(span: usize) -> Speed {
        Speed {
            prober: Prober::new(),
            probes: Vec::new(),
            span: span.max(1),
        }
    }

    /// Takes the next probe.
    pub fn probe(&mut self) {
        self.probes.push(self.prober.probe_us());
    }

    /// The factor that scales unit `i`'s time to the reference speed:
    /// [`PROBE_REF_US`] over the median of the probes from `span` before
    /// unit `i` to `span` after it (the mean of the middle two for an
    /// even count).
    pub fn factor(&self, i: usize) -> f64 {
        let lo = (i + 1).saturating_sub(self.span);
        let hi = (i + 1 + self.span).min(self.probes.len());
        let mut near = self.probes.get(lo..hi).unwrap_or_default().to_vec();
        if near.is_empty() {
            return 1.0;
        }
        near.sort_by(f64::total_cmp);
        let mid = near.len() / 2;
        let typical = if near.len() % 2 == 0 {
            (near[mid - 1] + near[mid]) / 2.0
        } else {
            near[mid]
        };
        PROBE_REF_US / typical
    }

    /// The median probe in microseconds.
    pub fn median_us(&self) -> f64 {
        median(&self.probes)
    }

    /// Probes taken.
    pub fn len(&self) -> usize {
        self.probes.len()
    }
}

/// Accumulated busy time and call count of one layer in a traced replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stage {
    /// Time inside the layer.
    pub busy: Duration,
    /// Units of work (calls, cones, gates…) the time is divided by.
    pub units: u64,
}

impl Stage {
    /// Runs `f`, charging its time and `units` units to this stage.
    pub fn time<R>(&mut self, units: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.busy += t0.elapsed();
        self.units += units;
        out
    }

    /// Busy time per unit in microseconds (0 for an unused stage).
    pub fn per_unit_us(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() * 1e6 / self.units as f64
        }
    }

    /// Busy time per unit in milliseconds.
    pub fn per_unit_ms(&self) -> f64 {
        self.per_unit_us() / 1e3
    }
}

/// Counter movement over a measured section.
pub fn stats_delta(before: ServeStats, after: ServeStats) -> ServeStats {
    ServeStats {
        requests: after.requests - before.requests,
        batches: after.batches - before.batches,
        max_batch: after.max_batch,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        shed: after.shed - before.shed,
        deadline_expired: after.deadline_expired - before.deadline_expired,
        timeouts: after.timeouts - before.timeouts,
        panics_recovered: after.panics_recovered - before.panics_recovered,
    }
}

/// The serving counters as per-layer metrics.
pub fn serve_layers(report: &mut Report, d: ServeStats) {
    let cones = (d.cache_hits + d.cache_misses + d.dedup_hits).max(1) as f64;
    report.layer(
        "serve.cache_hit_ratio",
        d.cache_hits as f64 / cones,
        "ratio",
    );
    report.layer("serve.dedup_hits", d.dedup_hits as f64, "count");
    report.layer(
        "serve.mean_batch",
        d.requests as f64 / d.batches.max(1) as f64,
        "count",
    );
    report.layer("serve.batches", d.batches as f64, "count");
    report.layer("serve.shed", d.shed as f64, "count");
    report.layer("serve.deadline_expired", d.deadline_expired as f64, "count");
}

/// Round-trips request frames for `cones` and response frames for
/// `embeddings` through an in-memory buffer: per-frame encode and decode
/// times in microseconds and mean frame bytes, over both directions.
pub fn proto_layers(report: &mut Report, cones: &[&Netlist], embeddings: &[Vec<f32>]) -> Res<()> {
    let requests: Vec<Request> = cones
        .iter()
        .enumerate()
        .map(|(i, n)| Request {
            id: i as u64,
            deadline_ms: 0,
            body: RequestBody::EmbedCone {
                netlist: (*n).clone(),
                phys: None,
            },
        })
        .collect();
    let responses: Vec<Response> = embeddings
        .iter()
        .enumerate()
        .map(|(i, e)| Response {
            id: i as u64,
            body: ResponseBody::Embedding(e.clone()),
        })
        .collect();
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    let encode = Instant::now();
    for r in &requests {
        proto::write_request(&mut req_buf, r).map_err(fail("encode request"))?;
    }
    for r in &responses {
        proto::write_response(&mut resp_buf, r).map_err(fail("encode response"))?;
    }
    let encode = encode.elapsed();
    let decode = Instant::now();
    let mut reqs = Cursor::new(&req_buf);
    while let Some(r) = proto::read_request(&mut reqs).map_err(fail("decode request"))? {
        black_box(r);
    }
    let mut resps = Cursor::new(&resp_buf);
    while let Some(r) = proto::read_response(&mut resps).map_err(fail("decode response"))? {
        black_box(r);
    }
    let decode = decode.elapsed();
    let frames = (requests.len() + responses.len()).max(1) as f64;
    report.layer(
        "serve.proto_encode_us",
        encode.as_secs_f64() * 1e6 / frames,
        "us",
    );
    report.layer(
        "serve.proto_decode_us",
        decode.as_secs_f64() * 1e6 / frames,
        "us",
    );
    report.layer(
        "serve.frame_bytes",
        (req_buf.len() + resp_buf.len()) as f64 / frames,
        "bytes",
    );
    Ok(())
}

/// `ConeCache::get` on a standalone default-capacity cache holding
/// `fill`, over the lookup sequence `lookups` (repeated until at least
/// 100k gets): microseconds per get.
pub fn cache_get_us(fill: &[u128], lookups: &[u128]) -> f64 {
    let cache = ConeCache::new(ServeConfig::default().cache_capacity);
    let value = Arc::new(Tensor::row(vec![0.0; 16]));
    for &k in fill {
        cache.insert(k, Arc::clone(&value), 0);
    }
    let passes = 100_000usize.div_ceil(lookups.len().max(1));
    let t0 = Instant::now();
    for _ in 0..passes {
        for &k in lookups {
            black_box(cache.get(black_box(k), 0));
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (passes * lookups.len()).max(1) as f64
}

/// Serial round trips on a fresh connection: the median `ping` RTT, and
/// the median cache-hit `embed_cone` RTT minus it (both microseconds).
/// One untimed request first makes sure `hot` is cached.
pub fn rtt_layers(report: &mut Report, addr: SocketAddr, hot: &Netlist) -> Res<()> {
    const REPS: usize = 300;
    let mut client = NetClient::connect(addr).map_err(fail("connect"))?;
    client.embed_cone(hot, None).map_err(fail("warm"))?;
    let mut pings = Vec::with_capacity(REPS);
    let mut hits = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        client.ping().map_err(fail("ping"))?;
        pings.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        client.embed_cone(hot, None).map_err(fail("hit"))?;
        hits.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let ping = median(&pings);
    report.layer("net.ping_rtt_us", ping, "us");
    report.layer("serve.hit_floor_us", median(&hits) - ping, "us");
    Ok(())
}
