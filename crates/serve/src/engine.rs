//! The serving engine: multi-lane dynamic batchers over the frozen
//! NetTAG stack.
//!
//! Concurrent clients submit embed/predict requests; submission makes
//! only the cheap checks on the *caller's* thread (phys length, classifier
//! present), so a socket reader only decodes and routes. It routes the
//! request to one of several **lanes** by a name-blind structural key
//! ([`lane_key`]; expressions by text hash), so multi-core boxes don't
//! serialize on a single batch queue and identical structures always
//! meet in the same lane (within-batch dedup and cache locality are
//! preserved). Each lane is a bounded
//! [`nettag_par::queue::BoundedQueue`] drained by its own batcher thread:
//! when a lane is full the submit **sheds load** with a typed
//! [`ServeError::Overloaded`] instead of queueing unboundedly. The batcher
//! validates each cone and resolves its physical attributes and
//! structural digest, or parses each expression, as it pops the request,
//! so that work overlaps the submitter's next requests; a request that
//! fails these checks answers [`ServeError::Invalid`], whichever way it
//! arrived.
//!
//! A batcher blocks for its first request, then takes whatever else is
//! already queued (up to `max_batch`): requests that arrive while a batch
//! computes form the next one, so batch size follows load with no timer.
//! It answers the batch in three steps: plan (prune expired requests,
//! answer cache hits, dedup identical structures), compute, reply. Every
//! missing cone goes through the model's one embedding pipeline,
//! [`NetTag::embed_tags`], and standalone expression requests through the
//! same [`nettag_core::ExprLlm::encode_texts`]. Both read
//! gate-text rows from ExprLLM's own cache, which lives with the weights
//! (engines sharing one [`load_checkpoint_shared`] model share it): a gate
//! text is encoded once per served model, and every later batch reuses
//! its row. Each cone then takes one no-grad TAGFormer pass; both passes
//! fan out across the persistent `nettag-par` worker pool. Responses are
//! bitwise independent of batch composition and lane assignment: a
//! request answers with the same bits whether it ran alone, coalesced
//! with strangers, or hit the cache (pinned by the `serve` integration
//! tests).
//!
//! **Fault tolerance.** Batch execution runs inside `catch_unwind`: a
//! panic anywhere in planning or compute resolves
//! [`ServeError::Internal`] for the batch's unanswered waiters while the
//! lane thread survives and keeps draining — one poisoned request never
//! strands the queue behind it. Every lock the serving path shares with
//! a potentially panicking batch recovers the guard
//! (`unwrap_or_else(|e| e.into_inner())`) instead of propagating the
//! poison: the guarded states (weights pointer + generation, the model's
//! text rows, cache shards, counters) are valid after any partial batch.
//! Requests carry an optional **deadline**: one still queued when it
//! lapses is pruned from its batch without being encoded and resolves
//! [`ServeError::DeadlineExceeded`].
//!
//! The model itself can be **hot-swapped** ([`Engine::swap_checkpoint`] /
//! [`Engine::swap_model`]): the swap atomically installs the new weights
//! and bumps the cone-cache generation, so embeddings computed under the
//! old checkpoint are never served afterwards (stale cones are evicted
//! lazily on touch). Text rows need no step of their own: they travel
//! with the `Arc<NetTag>` that computed them. In-flight batches that
//! already snapshotted the old model finish under it — their responses
//! raced the swap either way.

use crate::cache::ConeCache;
use crate::faults::{FaultKind, FaultState};
use crate::{ServeConfig, ServeError};
use nettag_core::{
    cone_geometry, fnv1a, fuse_geometry, load_checkpoint_shared, reload_checkpoint_shared,
    ClassifierHead, NetTag,
};
use nettag_expr::token::{tokenize_expr, TokenId};
use nettag_expr::{parse_expr, Expr};
use nettag_netlist::{
    structural_hash_with_phys, synthesis_phys_estimates, Library, Netlist, PhysProps, Tag,
};
use nettag_nn::Tensor;
use nettag_par::queue::{BoundedQueue, Pop, TryPushError};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A point-in-time snapshot of serving counters. All counters are
/// monotone and updated **coherently**: the engine accumulates per batch
/// and commits under one lock, and [`Engine::stats`] reads the whole
/// struct under that lock — a snapshot never mixes counter values from
/// two moments (e.g. a shed already counted whose request total isn't).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into a lane queue.
    pub requests: u64,
    /// Batches processed (requests / batches = mean coalescing factor).
    pub batches: u64,
    /// Largest batch coalesced so far (any lane).
    pub max_batch: u64,
    /// Cone requests answered from the cache.
    pub cache_hits: u64,
    /// Cone requests that computed a fresh embedding.
    pub cache_misses: u64,
    /// Cone requests answered by another request *in the same batch*
    /// computing the identical structure (within-batch dedup).
    pub dedup_hits: u64,
    /// Requests refused with [`ServeError::Overloaded`] because their
    /// lane queue was full (backpressure / load shedding).
    pub shed: u64,
    /// Requests pruned from a batch because their deadline lapsed
    /// before encoding ([`ServeError::DeadlineExceeded`]).
    pub deadline_expired: u64,
    /// In-process [`Client`] calls that stopped waiting when their
    /// deadline lapsed (the batch may still have computed the value —
    /// it stays cached either way).
    pub timeouts: u64,
    /// Batch executions (or a popped request's validation, phys
    /// estimates and digest) that panicked and were isolated: the
    /// waiters resolved [`ServeError::Internal`] and the lane kept
    /// draining.
    pub panics_recovered: u64,
}

/// A request as the caller states it. Its lane checks it when it pops it
/// ([`resolve`]).
pub(crate) enum RawRequest {
    /// Embed, classify or fuse a cone netlist.
    Cone {
        /// The cone.
        netlist: Netlist,
        /// Optional per-gate sign-off attributes.
        phys: Option<Vec<PhysProps>>,
        /// What the request answers with.
        out: ConeOut,
    },
    /// Embed a standalone symbolic gate expression.
    Expr {
        /// Expression source text.
        text: String,
    },
}

/// What a cone request answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConeOut {
    /// The `[CLS]` embedding ([`Client::embed_cone`]).
    Embed,
    /// The classifier head's class ([`Client::predict`]).
    Predict,
    /// `[CLS]` fused with the layout geometry
    /// ([`Client::embed_cone_fused`]).
    Fused,
}

/// Salt XORed into a cone's structural digest to key its *fused*
/// embedding, the 1×(d + `GEOM_DIM`) row of
/// [`nettag_core::fuse_geometry`]: the fused result is a different value
/// computed from the same inputs, so it must share the digest (dedup
/// against the plain compute) but never alias the plain cache entry. A
/// fused hit saves the cone's placement flow.
const FUSED_SALT: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;

/// A popped request, ready to plan: a cone carries its physical
/// attributes and its digest, the cache key.
enum Job {
    Cone {
        netlist: Netlist,
        props: Vec<PhysProps>,
        key: u128,
        out: ConeOut,
    },
    Expr {
        expr: Expr,
    },
}

/// What the engine answers with.
pub(crate) enum Response {
    /// A `1 × embed_dim` embedding.
    Embedding(Arc<Tensor>),
    /// A class index from the classifier head.
    Class(usize),
    /// A ping answer carrying the current model generation. Produced
    /// only by the network front-end's reader (pings never enter a
    /// lane), never by batch execution.
    Pong(u64),
}

/// Where a request's answer goes: an in-process oneshot channel, or a
/// tagged per-connection channel for the socket front-end (responses may
/// complete out of submission order across lanes; the id pairs them back
/// up on the wire).
pub(crate) enum ReplyTo {
    /// In-process `Client::call` reply slot.
    Oneshot(Sender<Result<Response, ServeError>>),
    /// Socket front-end reply slot: `(request id, result)`.
    Tagged {
        /// Wire request id, echoed in the response frame.
        id: u64,
        /// The connection's shared writer channel.
        tx: Sender<(u64, Result<Response, ServeError>)>,
    },
}

impl ReplyTo {
    pub(crate) fn send(self, result: Result<Response, ServeError>) {
        match self {
            // A dropped receiver just discards the reply.
            ReplyTo::Oneshot(tx) => drop(tx.send(result)),
            ReplyTo::Tagged { id, tx } => drop(tx.send((id, result))),
        }
    }
}

struct Request {
    kind: RawRequest,
    /// Answer-by time; a request still queued past it is pruned.
    deadline: Option<Instant>,
    reply: ReplyTo,
}

/// The swappable part of the engine: the frozen weights (which carry their
/// gate-text rows) and the cone-cache generation they define. Written only
/// by [`Engine::swap_model`]; a batch snapshots both under one read lock,
/// so it never mixes one model's weights with another's cache entries.
struct ModelState {
    model: Arc<NetTag>,
    generation: u64,
}

struct Shared {
    state: RwLock<ModelState>,
    head: Option<ClassifierHead>,
    lib: Library,
    cache: ConeCache,
    stats: Mutex<ServeStats>,
    faults: Option<Arc<FaultState>>,
    cfg: ServeConfig,
}

impl Shared {
    fn new(model: Arc<NetTag>, head: Option<ClassifierHead>, cfg: ServeConfig) -> Shared {
        Shared {
            state: RwLock::new(ModelState {
                model,
                generation: 0,
            }),
            head,
            lib: Library::default(),
            cache: ConeCache::new(cfg.cache_capacity),
            stats: Mutex::new(ServeStats::default()),
            // Engines with an empty plan carry no fault state at all: the
            // injection sites reduce to one `is_some` branch.
            faults: cfg
                .faults
                .enabled()
                .then(|| Arc::new(FaultState::new(cfg.faults))),
            cfg,
        }
    }

    /// The served model and its generation, recovered through poison: a
    /// swap writes both whole.
    fn state(&self) -> RwLockReadGuard<'_, ModelState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The one coherent counter snapshot, recovered through poison: the
    /// counters are valid after any partial batch.
    fn stats(&self) -> MutexGuard<'_, ServeStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }
}

type Lanes = Arc<[Arc<BoundedQueue<Request>>]>;

/// The embedding-serving engine. Owns one batcher thread per lane; hand
/// out [`Client`]s (cheaply cloneable) to callers on any thread.
pub struct Engine {
    shared: Arc<Shared>,
    lanes: Lanes,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A handle for submitting requests to an [`Engine`]. Cloning is cheap;
/// every clone feeds the same lane queues, so concurrent clients
/// coalesce.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    lanes: Lanes,
    /// Per-request deadline budget; `None` waits indefinitely.
    timeout: Option<Duration>,
}

impl Engine {
    /// Starts an engine over a (frozen) model with no prediction head.
    pub fn new(model: Arc<NetTag>, cfg: ServeConfig) -> Engine {
        Engine::build(model, None, cfg)
    }

    /// Starts an engine that also serves `predict` requests through a
    /// fine-tuned classifier head (input: the cone `[CLS]` embedding).
    pub fn with_classifier(model: Arc<NetTag>, head: ClassifierHead, cfg: ServeConfig) -> Engine {
        Engine::build(model, Some(head), cfg)
    }

    /// Starts an engine from a checkpoint on disk. Loading goes through
    /// [`load_checkpoint_shared`], so N engines (or an engine plus other
    /// readers) pointed at one file share a single weight buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Checkpoint`] when the file is missing or
    /// malformed.
    pub fn from_checkpoint(path: impl AsRef<Path>, cfg: ServeConfig) -> Result<Engine, ServeError> {
        let model = load_checkpoint_shared(path)?;
        Ok(Engine::new(model, cfg))
    }

    fn build(model: Arc<NetTag>, head: Option<ClassifierHead>, cfg: ServeConfig) -> Engine {
        let lane_count = if cfg.lanes == 0 {
            nettag_par::num_threads()
        } else {
            cfg.lanes
        };
        let shared = Arc::new(Shared::new(model, head, cfg));
        let lanes: Lanes = (0..lane_count)
            .map(|_| Arc::new(BoundedQueue::new(cfg.queue_depth)))
            .collect::<Vec<_>>()
            .into();
        let workers = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let shared = Arc::clone(&shared);
                let lane = Arc::clone(lane);
                std::thread::Builder::new()
                    .name(format!("nettag-serve-lane-{i}"))
                    .spawn(move || batcher(&shared, &lane))
                    .expect("spawn batcher lane thread")
            })
            .collect();
        Engine {
            shared,
            lanes,
            workers: Mutex::new(workers),
        }
    }

    /// A new client handle. Clients created after [`Engine::shutdown`]
    /// receive [`ServeError::Closed`] from every call.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            lanes: Arc::clone(&self.lanes),
            timeout: self.shared.cfg.request_timeout,
        }
    }

    /// Snapshot of the serving counters (one coherent struct read).
    pub fn stats(&self) -> ServeStats {
        *self.shared.stats()
    }

    /// Number of cone embeddings currently cached (stale generations
    /// included until lazily evicted).
    pub fn cached_embeddings(&self) -> usize {
        self.shared.cache.len()
    }

    /// Number of batcher lanes this engine runs.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Current model generation (bumped by every hot swap).
    pub fn generation(&self) -> u64 {
        self.shared.state().generation
    }

    /// Hot-swaps the serving weights for `model` and bumps the cone-cache
    /// generation: embeddings computed under the previous weights are
    /// never served again (stale cone entries are evicted lazily on
    /// touch), and text rows are `model`'s own. In-flight batches
    /// that snapshotted the old model finish under it — those requests
    /// raced the swap. A configured classifier head is kept; swapping in a
    /// model with a different embedding dimension while serving `predict`
    /// is a caller error.
    pub fn swap_model(&self, model: Arc<NetTag>) {
        let mut st = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
        st.model = model;
        st.generation += 1;
    }

    /// Hot-swaps the serving weights from a checkpoint file, re-reading
    /// it unconditionally through
    /// [`reload_checkpoint_shared`] (the dedup registry is
    /// updated, so other shared loaders of the same path see the new
    /// weights too). On error the engine keeps serving the old model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Checkpoint`] when the file is missing or
    /// malformed.
    pub fn swap_checkpoint(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let model = reload_checkpoint_shared(path)?;
        self.swap_model(model);
        Ok(())
    }

    /// Stops accepting requests, drains every lane's queued requests, and
    /// joins the batcher threads. Requests sent afterwards fail with
    /// [`ServeError::Closed`]. Idempotent.
    pub fn shutdown(&self) {
        for lane in self.lanes.iter() {
            lane.close();
        }
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("lanes", &self.lanes.len())
            .field("stats", &self.stats())
            .field("cached_embeddings", &self.cached_embeddings())
            .finish()
    }
}

impl Client {
    /// Returns a client whose calls carry a per-request deadline of
    /// `timeout` from submission (`None` waits indefinitely). Calls
    /// unanswered at the deadline resolve
    /// [`ServeError::DeadlineExceeded`]; calls still queued at the
    /// deadline are additionally pruned server-side without being
    /// encoded.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Client {
        self.timeout = timeout;
        self
    }

    /// Current model generation — what a wire `ping` answers with.
    pub(crate) fn generation(&self) -> u64 {
        self.shared.state().generation
    }

    /// The engine's armed fault state, for the network front-end's
    /// frame-level injection sites. `None` when faults are off.
    pub(crate) fn fault_state(&self) -> Option<Arc<FaultState>> {
        self.shared.faults.clone()
    }

    /// Embeds a netlist (typically one register cone extracted with
    /// [`nettag_netlist::cone_to_netlist`]) into its graph-level `[CLS]`
    /// embedding — `1 × embed_dim`, bitwise identical to
    /// [`NetTag::embed_tag`] on the same netlist, whatever the cache
    /// holds: a cache hit or an in-batch dedup only ever answers with
    /// the embedding of a cone that differs from this one at most in
    /// gate names.
    ///
    /// `phys` optionally supplies one sign-off [`PhysProps`] per gate
    /// (indexed by [`nettag_netlist::GateId`]); otherwise synthesis
    /// estimates are used. The physical attributes participate in the
    /// cache key, so the same structure under different corners never
    /// aliases.
    ///
    /// The netlist need not be validated first: its lane validates it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] when `phys` has the wrong length or the
    /// netlist fails [`Netlist::validate`];
    /// [`ServeError::Overloaded`] when the request's lane queue is full;
    /// [`ServeError::DeadlineExceeded`] when a configured timeout lapses
    /// first; [`ServeError::Internal`] when the request's batch
    /// panicked; [`ServeError::Closed`] when the engine has shut down.
    pub fn embed_cone(
        &self,
        netlist: Netlist,
        phys: Option<Vec<PhysProps>>,
    ) -> Result<Arc<Tensor>, ServeError> {
        match self.call(RawRequest::Cone {
            netlist,
            phys,
            out: ConeOut::Embed,
        })? {
            Response::Embedding(e) => Ok(e),
            _ => unreachable!("embed request answered with a non-embedding"),
        }
    }

    /// Embeds a netlist and fuses the embedding with the cone's layout
    /// geometry — `1 × (embed_dim + GEOM_DIM)`: the `[CLS]` row that
    /// [`Client::embed_cone`] returns, followed by the column means of
    /// the cone's spatial features. Bitwise identical to running
    /// [`nettag_core::cone_geometry`] + [`nettag_core::fuse_geometry`] on
    /// the offline `[CLS]` embedding (the engine calls exactly those
    /// functions).
    ///
    /// Rides the same batcher lanes as [`Client::embed_cone`]: a fused
    /// request coalesces, dedups against plain requests for the same
    /// structure (the underlying `[CLS]` pass is shared), and caches.
    /// The cache needs no extra key material for geometry — the spatial
    /// features are a deterministic (seeded-flow) function of the cone
    /// netlist and its physical attributes, which is precisely what
    /// [`nettag_netlist::structural_hash_with_phys`] already digests;
    /// fused entries store under that digest XOR a private salt so they
    /// never alias plain embeddings, and a cached fused row saves the
    /// cone's placement flow.
    ///
    /// # Errors
    ///
    /// As [`Client::embed_cone`].
    pub fn embed_cone_fused(
        &self,
        netlist: Netlist,
        phys: Option<Vec<PhysProps>>,
    ) -> Result<Arc<Tensor>, ServeError> {
        match self.call(RawRequest::Cone {
            netlist,
            phys,
            out: ConeOut::Fused,
        })? {
            Response::Embedding(e) => Ok(e),
            _ => unreachable!("embed request answered with a non-embedding"),
        }
    }

    /// Embeds a standalone symbolic gate expression (e.g.
    /// `"!((R1 ^ R2) | !R2)"`) through ExprLLM — `1 × embed_dim`,
    /// bitwise identical to [`nettag_core::ExprLlm::encode`] on the
    /// tokenized expression.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] when the expression does not parse;
    /// otherwise as [`Client::embed_cone`].
    pub fn embed_expr(&self, expr: &str) -> Result<Arc<Tensor>, ServeError> {
        match self.call(RawRequest::Expr {
            text: expr.to_string(),
        })? {
            Response::Embedding(e) => Ok(e),
            _ => unreachable!("embed request answered with a non-embedding"),
        }
    }

    /// Embeds a netlist and classifies it through the engine's head.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoClassifier`] when the engine was built without a
    /// head; otherwise as [`Client::embed_cone`].
    pub fn predict(
        &self,
        netlist: Netlist,
        phys: Option<Vec<PhysProps>>,
    ) -> Result<usize, ServeError> {
        match self.call(RawRequest::Cone {
            netlist,
            phys,
            out: ConeOut::Predict,
        })? {
            Response::Class(c) => Ok(c),
            _ => unreachable!("predict request answered with a non-class"),
        }
    }

    /// Checks a raw request and picks its lane, on the caller's thread.
    /// Only the cheap checks run here (phys length, classifier present); a
    /// cone's lane comes from [`lane_key`], one pass over its gates, an
    /// expression's from its text hash. Validation, the phys estimates,
    /// the digest and expression parsing wait for the batcher, which runs
    /// them as it pops the request, so a socket reader decodes the next
    /// frame meanwhile.
    fn route(&self, raw: &RawRequest) -> Result<usize, ServeError> {
        let key = match raw {
            RawRequest::Cone { netlist, phys, out } => {
                if *out == ConeOut::Predict && self.shared.head.is_none() {
                    return Err(ServeError::NoClassifier);
                }
                if let Some(p) = phys.as_ref().filter(|p| p.len() != netlist.gate_count()) {
                    return Err(ServeError::Invalid(format!(
                        "phys length {} != gate count {}",
                        p.len(),
                        netlist.gate_count()
                    )));
                }
                lane_key(netlist)
            }
            RawRequest::Expr { text } => fnv1a(text.as_bytes()),
        };
        Ok((key % self.lanes.len() as u64) as usize)
    }

    /// Routes and enqueues a request. On failure the reply slot is handed
    /// back with the error, so the socket front-end can answer the frame
    /// itself.
    pub(crate) fn submit(
        &self,
        raw: RawRequest,
        deadline: Option<Instant>,
        reply: ReplyTo,
    ) -> Result<(), (ReplyTo, ServeError)> {
        let lane = match self.route(&raw) {
            Ok(lane) => lane,
            Err(e) => return Err((reply, e)),
        };
        self.lanes[lane]
            .try_push(Request {
                kind: raw,
                deadline,
                reply,
            })
            .map_err(|e| match e {
                TryPushError::Full(req) => {
                    self.shared.stats().shed += 1;
                    (req.reply, ServeError::Overloaded)
                }
                TryPushError::Closed(req) => (req.reply, ServeError::Closed),
            })
    }

    fn call(&self, raw: RawRequest) -> Result<Response, ServeError> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let (reply, rx) = channel();
        match self.submit(raw, deadline, ReplyTo::Oneshot(reply)) {
            Ok(()) => match deadline {
                // If the batcher exits before answering, the queued
                // request (and with it our reply sender) is dropped and
                // recv reports Closed.
                None => rx.recv().map_err(|_| ServeError::Closed)?,
                Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                    Ok(result) => result,
                    Err(RecvTimeoutError::Timeout) => {
                        self.shared.stats().timeouts += 1;
                        Err(ServeError::DeadlineExceeded)
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
                },
            },
            Err((_reply, e)) => Err(e),
        }
    }
}

/// The lane of a cone: its gate count plus the sum over gates of a mixed
/// `(kind, fan-in count)`, mixed once more. Names play no part and the sum
/// does not depend on gate order, so cones with equal digests meet in one
/// lane, and so do fused and plain requests for one cone (they share the
/// `[CLS]` compute). One pass over the gates, where a digest needs the
/// phys estimates first.
fn lane_key(netlist: &Netlist) -> u64 {
    let sum = netlist
        .iter()
        .fold(netlist.gate_count() as u64, |acc, (_, g)| {
            acc.wrapping_add(mix64((g.kind.index() as u64) << 32 | g.fanin.len() as u64))
        });
    mix64(sum)
}

/// The splitmix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resolves a popped request: a cone is validated, then gets its
/// physical attributes (the caller's, or synthesis estimates) and its
/// digest; an expression is parsed. Every request passes this one check,
/// in-process or off a socket.
fn resolve(shared: &Shared, kind: RawRequest) -> Result<Job, ServeError> {
    Ok(match kind {
        RawRequest::Cone { netlist, phys, out } => {
            let netlist = netlist
                .validate()
                .map_err(|e| ServeError::Invalid(format!("netlist: {e}")))?;
            let props = phys.unwrap_or_else(|| synthesis_phys_estimates(&netlist, &shared.lib));
            let key = structural_hash_with_phys(&netlist, &props);
            Job::Cone {
                netlist,
                props,
                key,
                out,
            }
        }
        RawRequest::Expr { text } => Job::Expr {
            expr: parse_expr(&text).map_err(|e| ServeError::Invalid(format!("expression: {e}")))?,
        },
    })
}

/// Resolves a popped request for its batch. One that fails comes back
/// with its error: [`ServeError::Invalid`], or [`ServeError::Internal`]
/// if resolving panicked.
fn admit(shared: &Shared, req: Request) -> Result<Admitted, (ReplyTo, ServeError)> {
    let Request {
        kind,
        deadline,
        reply,
    } = req;
    match catch_unwind(AssertUnwindSafe(|| resolve(shared, kind))) {
        Ok(Ok(job)) => Ok((job, deadline, reply)),
        Ok(Err(e)) => Err((reply, e)),
        Err(payload) => Err((reply, ServeError::Internal(panic_message(payload.as_ref())))),
    }
}

/// A resolved request: its job, deadline and reply slot.
type Admitted = (Job, Option<Instant>, ReplyTo);

/// One lane's batcher loop: block for the first request, then take
/// whatever is already queued and process one batch. A batch closes when
/// it is full (`max_batch`) or the queue is empty; requests that arrive
/// while it computes form the next one. A closed lane drains its accepted
/// requests before the thread exits. Requests that fail to resolve are
/// answered once the batch's counters are committed, so a caller that
/// reads [`Engine::stats`] after its reply sees its request counted.
fn batcher(shared: &Shared, queue: &BoundedQueue<Request>) {
    while let Pop::Item(mut req) = queue.pop() {
        let mut batch = Vec::new();
        let mut rejected = Vec::new();
        let mut accepted = 0;
        loop {
            match admit(shared, req) {
                Ok(job) => batch.push(job),
                Err(failed) => rejected.push(failed),
            }
            accepted += 1;
            if accepted >= shared.cfg.max_batch {
                break;
            }
            req = match queue.try_pop() {
                Pop::Item(next) => next,
                Pop::Empty | Pop::Closed => break,
            };
        }
        {
            let mut stats = shared.stats();
            stats.requests += accepted as u64;
            stats.batches += 1;
            stats.max_batch = stats.max_batch.max(accepted as u64);
            stats.panics_recovered += rejected
                .iter()
                .filter(|(_, e)| matches!(e, ServeError::Internal(_)))
                .count() as u64;
        }
        for (reply, e) in rejected {
            reply.send(Err(e));
        }
        if !batch.is_empty() {
            process_batch(shared, batch);
        }
    }
}

/// What one request in a batch is waiting for after planning.
enum Plan {
    /// Answered from the cache.
    Ready { emb: Arc<Tensor>, predict: bool },
    /// Answered by the cone computed under `key` this batch.
    Wait { key: u128, predict: bool },
    /// Answered by the fused embedding computed under `key` this batch.
    WaitFused { key: u128 },
    /// Answered by row `row` of the batch's expression text rows.
    ExprRow { row: usize },
}

/// Batch-local counter accumulation, committed under one stats lock once
/// the batch has computed, before its replies go out (a batch that
/// panics mid-compute forfeits its tally — counters are diagnostics, not
/// ledgers).
#[derive(Default)]
struct Tally {
    cache_hits: u64,
    cache_misses: u64,
    dedup_hits: u64,
    deadline_expired: u64,
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolated batch execution: `run_batch` does the real work; a
/// panic anywhere inside it resolves [`ServeError::Internal`] for every
/// waiter it had not yet answered, and the lane thread lives on. The
/// shared state `run_batch` touches survives a mid-flight abort: the
/// cache inserts whole entries under a shard lock that recovers from
/// poison, the counters are committed atomically at the end, and the
/// model state is only read.
fn process_batch(shared: &Shared, batch: Vec<Admitted>) {
    let mut items: Vec<(Job, Option<Instant>)> = Vec::with_capacity(batch.len());
    let mut replies: Vec<Option<ReplyTo>> = Vec::with_capacity(batch.len());
    for (job, deadline, reply) in batch {
        items.push((job, deadline));
        replies.push(Some(reply));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| run_batch(shared, items, &mut replies)));
    if let Err(payload) = outcome {
        let msg = panic_message(payload.as_ref());
        for slot in &mut replies {
            if let Some(reply) = slot.take() {
                reply.send(Err(ServeError::Internal(msg.clone())));
            }
        }
        shared.stats().panics_recovered += 1;
    }
}

fn run_batch(shared: &Shared, items: Vec<(Job, Option<Instant>)>, replies: &mut [Option<ReplyTo>]) {
    // Fault hooks, inside the isolated region: an injected delay pushes
    // queued requests past their deadlines (exercising the pruning
    // below); an injected panic exercises the isolation itself.
    if let Some(faults) = &shared.faults {
        if faults.fire(FaultKind::Delay) {
            std::thread::sleep(Duration::from_millis(faults.plan().delay_ms));
        }
        if faults.fire(FaultKind::Panic) {
            panic!("injected fault: lane panic at batch boundary");
        }
    }
    let mut tally = Tally::default();
    // Snapshot the weights (with their text rows) and cache generation
    // together: a batch runs entirely under the pre-swap model or entirely
    // under the post-swap one.
    let (model, generation) = {
        let st = shared.state();
        (Arc::clone(&st.model), st.generation)
    };
    let opts = model.tag_options();
    // Planning pass: prune expired requests, consult the cache, dedup
    // within the batch, and collect the TAGs and expression token
    // sequences the batch needs.
    let mut compute: Vec<(u128, Tag)> = Vec::new();
    let mut scheduled: HashSet<u128> = HashSet::new();
    let mut exprs: Vec<Vec<TokenId>> = Vec::new();
    // Fused requests scheduled this batch, plus `[CLS]` embeddings the
    // fused pass can take from the cache instead of recomputing.
    let mut fused_compute: Vec<(u128, Netlist, Vec<PhysProps>)> = Vec::new();
    let mut scheduled_fused: HashSet<u128> = HashSet::new();
    let mut cls_from_cache: HashMap<u128, Arc<Tensor>> = HashMap::new();
    // (request index, what it waits for).
    let mut plans: Vec<(usize, Plan)> = Vec::with_capacity(items.len());
    // Schedules the plain `[CLS]` compute for `key` unless this batch
    // already has it.
    let schedule_cls = |key: u128,
                        netlist: &Netlist,
                        props: &[PhysProps],
                        compute: &mut Vec<(u128, Tag)>,
                        scheduled: &mut HashSet<u128>| {
        if scheduled.insert(key) {
            compute.push((key, Tag::from_netlist_with_phys(netlist, props, &opts)));
        }
    };
    let now = Instant::now();
    for (idx, (kind, deadline)) in items.into_iter().enumerate() {
        if deadline.is_some_and(|d| now >= d) {
            // Expired while queued: resolve without spending encode
            // time on an answer nobody is waiting for.
            tally.deadline_expired += 1;
            if let Some(reply) = replies[idx].take() {
                reply.send(Err(ServeError::DeadlineExceeded));
            }
            continue;
        }
        let plan = match kind {
            Job::Cone {
                netlist,
                props,
                key,
                out: ConeOut::Fused,
            } => {
                // Fused entries live under the salted digest; the plain
                // digest keys the shared `[CLS]` compute.
                if let Some(emb) = shared.cache.get(key ^ FUSED_SALT, generation) {
                    tally.cache_hits += 1;
                    Plan::Ready {
                        emb,
                        predict: false,
                    }
                } else {
                    if scheduled_fused.insert(key) {
                        tally.cache_misses += 1;
                        if !scheduled.contains(&key) {
                            if let Some(cls) = shared.cache.get(key, generation) {
                                cls_from_cache.insert(key, cls);
                            } else {
                                schedule_cls(key, &netlist, &props, &mut compute, &mut scheduled);
                            }
                        }
                        fused_compute.push((key, netlist, props));
                    } else {
                        tally.dedup_hits += 1;
                    }
                    Plan::WaitFused { key }
                }
            }
            Job::Cone {
                netlist,
                props,
                key,
                out,
            } => {
                let predict = out == ConeOut::Predict;
                if let Some(emb) = shared.cache.get(key, generation) {
                    tally.cache_hits += 1;
                    Plan::Ready { emb, predict }
                } else {
                    if scheduled.contains(&key) {
                        tally.dedup_hits += 1;
                    } else {
                        tally.cache_misses += 1;
                        schedule_cls(key, &netlist, &props, &mut compute, &mut scheduled);
                    }
                    Plan::Wait { key, predict }
                }
            }
            Job::Expr { expr } => {
                exprs.push(tokenize_expr(
                    NetTag::vocab(),
                    &expr,
                    model.config.max_tokens,
                ));
                Plan::ExprRow {
                    row: exprs.len() - 1,
                }
            }
        };
        plans.push((idx, plan));
    }
    // Every missing cone and every expression reads its text rows from the
    // model's text cache: only texts no batch has seen reach ExprLLM.
    let tags: Vec<&Tag> = compute.iter().map(|(_, tag)| tag).collect();
    let mut computed: HashMap<u128, Arc<Tensor>> = HashMap::with_capacity(compute.len());
    for ((key, _), emb) in compute.iter().zip(model.embed_tags(&tags)) {
        let emb = Arc::new(emb.cls);
        shared.cache.insert(*key, Arc::clone(&emb), generation);
        computed.insert(*key, emb);
    }
    let expr_text = model.exprllm.encode_texts(&exprs);
    // Fused pass: geometry extraction (deterministic seeded flow), then
    // late fusion onto the `[CLS]` embedding this batch computed (or found
    // cached).
    let mut computed_fused: HashMap<u128, Arc<Tensor>> =
        HashMap::with_capacity(fused_compute.len());
    for (key, netlist, props) in fused_compute {
        let cls = computed
            .get(&key)
            .or_else(|| cls_from_cache.get(&key))
            .expect("fused request's [CLS] embedding available");
        let (_, geom) = cone_geometry(&netlist, &props, &shared.lib);
        let emb = Arc::new(fuse_geometry(cls, &geom));
        shared
            .cache
            .insert(key ^ FUSED_SALT, Arc::clone(&emb), generation);
        computed_fused.insert(key, emb);
    }
    // Commit the batch's counters in one coherent write — *before* any
    // reply goes out, so a caller that observes its answer also observes
    // the accounting for the batch that produced it.
    {
        let mut stats = shared.stats();
        stats.cache_hits += tally.cache_hits;
        stats.cache_misses += tally.cache_misses;
        stats.dedup_hits += tally.dedup_hits;
        stats.deadline_expired += tally.deadline_expired;
    }
    // Response pass. A dropped client just discards its reply.
    for (idx, plan) in plans {
        let result = match plan {
            Plan::Ready { emb, predict } => respond_cone(shared, emb, predict),
            Plan::Wait { key, predict } => {
                let emb = Arc::clone(computed.get(&key).expect("scheduled cone computed"));
                respond_cone(shared, emb, predict)
            }
            Plan::WaitFused { key } => {
                let emb = Arc::clone(
                    computed_fused
                        .get(&key)
                        .expect("scheduled fused cone computed"),
                );
                Ok(Response::Embedding(emb))
            }
            Plan::ExprRow { row } => Ok(Response::Embedding(Arc::new(Tensor::row(
                expr_text[row].to_vec(),
            )))),
        };
        if let Some(reply) = replies[idx].take() {
            reply.send(result);
        }
    }
}

fn respond_cone(shared: &Shared, emb: Arc<Tensor>, predict: bool) -> Result<Response, ServeError> {
    if predict {
        let head = shared.head.as_ref().expect("checked during routing");
        let class = head.predict(std::slice::from_ref(&emb.data))[0];
        Ok(Response::Class(class))
    } else {
        Ok(Response::Embedding(emb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_core::NetTagConfig;
    use nettag_netlist::{CellKind, GateId};

    /// `y = !((a & b) & (a | b))`, its gates named by `names` and, with
    /// `reorder`, declared in another order (inputs and the two middle
    /// gates swapped).
    fn cone(names: [&str; 6], reorder: bool) -> Netlist {
        let mut n = Netlist::new("c");
        let (a, b) = if reorder {
            let b = n.add_gate(names[1], CellKind::Input, vec![]);
            (n.add_gate(names[0], CellKind::Input, vec![]), b)
        } else {
            let a = n.add_gate(names[0], CellKind::Input, vec![]);
            (a, n.add_gate(names[1], CellKind::Input, vec![]))
        };
        let (and, or) = if reorder {
            let or = n.add_gate(names[3], CellKind::Or2, vec![a, b]);
            (n.add_gate(names[2], CellKind::And2, vec![a, b]), or)
        } else {
            let and = n.add_gate(names[2], CellKind::And2, vec![a, b]);
            (and, n.add_gate(names[3], CellKind::Or2, vec![a, b]))
        };
        let m = n.add_gate(names[4], CellKind::Nand2, vec![and, or]);
        n.add_gate(names[5], CellKind::Output, vec![m]);
        n.validate().expect("valid")
    }

    fn digest(n: &Netlist) -> u128 {
        structural_hash_with_phys(n, &synthesis_phys_estimates(n, &Library::default()))
    }

    #[test]
    fn renamed_cones_share_the_digest_and_the_lane_key() {
        let base = cone(["a", "b", "g1", "g2", "m", "y"], false);
        let twin = cone(["p", "q", "U7", "U3", "n", "out"], false);
        assert_eq!(digest(&base), digest(&twin), "names are not model input");
        assert_eq!(lane_key(&base), lane_key(&twin));
        let mut other = base.clone();
        other.gate_mut(GateId(4)).kind = CellKind::Nor2;
        assert_ne!(lane_key(&base), lane_key(&other), "the key reads kinds");
    }

    #[test]
    fn reordered_cones_share_only_the_lane_key() {
        let base = cone(["a", "b", "g1", "g2", "m", "y"], false);
        let twin = cone(["a", "b", "g1", "g2", "m", "y"], true);
        assert_ne!(digest(&base), digest(&twin), "gate order is model input");
        assert_eq!(lane_key(&base), lane_key(&twin));
    }

    #[test]
    fn a_reordered_twin_gets_its_own_offline_bits() {
        let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
        let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
        let client = engine.client();
        let lib = Library::default();
        for reorder in [false, true] {
            let n = cone(["a", "b", "g1", "g2", "m", "y"], reorder);
            let tag = Tag::from_netlist(&n, &lib, &model.tag_options());
            let served = client.embed_cone(n, None).expect("served");
            assert_eq!(served.data, model.embed_tag(&tag).cls.data, "{reorder}");
        }
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn a_malformed_request_fails_alone_and_is_counted_before_its_reply() {
        let engine = Engine::new(
            Arc::new(NetTag::new(NetTagConfig::tiny())),
            ServeConfig {
                lanes: 1,
                ..ServeConfig::default()
            },
        );
        let client = engine.client();
        // In-process callers may pass an unvalidated netlist; its lane
        // validates it before the phys estimates index its fan-ins.
        let mut bad = Netlist::new("bad");
        bad.add_gate("g", CellKind::Inv, vec![GateId(99)]);
        let err = client.embed_cone(bad, None).expect_err("dangling fan-in");
        assert!(matches!(err, ServeError::Invalid(_)), "{err:?}");
        // The reply went out after its batch's counters were committed.
        let stats = engine.stats();
        assert_eq!(
            (stats.requests, stats.batches, stats.panics_recovered),
            (1, 1, 0)
        );
        let n = cone(["a", "b", "g1", "g2", "m", "y"], false);
        assert!(client.embed_cone(n, None).is_ok(), "the lane lives on");
        let stats = engine.stats();
        assert_eq!((stats.requests, stats.panics_recovered), (2, 0));
    }

    #[test]
    fn a_queued_mixed_batch_runs_once_with_offline_bits() {
        // Everything is queued before the batcher runs, so it takes all of
        // it as one batch: four cone structures, one of them twice (its
        // renamed twin dedups against it), next to three expressions, two
        // of them equal.
        let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
        let shared = Shared::new(Arc::clone(&model), None, ServeConfig::default());
        let base = cone(["a", "b", "g1", "g2", "m", "y"], false);
        let mut cones = vec![base.clone()];
        for kind in [CellKind::Nor2, CellKind::Xor2, CellKind::And2] {
            let mut other = base.clone();
            other.gate_mut(GateId(4)).kind = kind;
            cones.push(other);
        }
        cones.push(cone(["p", "q", "U7", "U3", "n", "out"], false));
        let exprs = ["!((R1 ^ R2) | !R2)", "a & b", "!((R1 ^ R2) | !R2)"];
        let lane = BoundedQueue::new(16);
        let push = |kind| {
            let (tx, rx) = channel();
            let req = Request {
                kind,
                deadline: None,
                reply: ReplyTo::Oneshot(tx),
            };
            lane.try_push(req).ok().expect("fits");
            rx
        };
        let cone_replies: Vec<_> = cones
            .iter()
            .map(|n| {
                push(RawRequest::Cone {
                    netlist: n.clone(),
                    phys: None,
                    out: ConeOut::Embed,
                })
            })
            .collect();
        let expr_replies: Vec<_> = exprs
            .iter()
            .map(|text| {
                push(RawRequest::Expr {
                    text: text.to_string(),
                })
            })
            .collect();
        lane.close();
        batcher(&shared, &lane);
        let served = |rx: std::sync::mpsc::Receiver<_>| match rx.recv().expect("answered") {
            Ok(Response::Embedding(emb)) => emb.data.clone(),
            _ => panic!("an embedding"),
        };
        let lib = Library::default();
        for (n, rx) in cones.iter().zip(cone_replies) {
            let tag = Tag::from_netlist(n, &lib, &model.tag_options());
            assert_eq!(served(rx), model.embed_tag(&tag).cls.data);
        }
        for (text, rx) in exprs.iter().zip(expr_replies) {
            let expr = parse_expr(text).expect("parses");
            let tokens = tokenize_expr(NetTag::vocab(), &expr, model.config.max_tokens);
            assert_eq!(served(rx), model.exprllm.encode(&tokens).data, "{text}");
        }
        let stats = *shared.stats();
        assert_eq!((stats.requests, stats.batches), (8, 1));
        assert_eq!((stats.cache_misses, stats.dedup_hits), (4, 1));
    }
}
