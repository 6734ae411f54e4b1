//! # nettag-serve — the NetTAG embedding-serving engine
//!
//! The paper ships NetTAG as a *frozen* foundation model whose
//! embeddings downstream flows query on demand (Sec. II-F); this crate
//! provides that serving layer for the Rust reproduction:
//!
//! * **Dynamic batching, in lanes** — a lane's batcher takes every
//!   request already queued (up to `max_batch`) as one batched forward
//!   pass through the frozen ExprLLM/TAGFormer stack, which fans out
//!   across the persistent `nettag-par` worker pool; requests that arrive
//!   while a batch computes form the next one, so batch size follows load
//!   with no timer. Requests shard across multiple batcher **lanes** by a
//!   name- and order-blind structural key, so multi-core boxes don't
//!   serialize on one batch queue while equal structures still meet in
//!   one lane. Each lane's batcher validates the cones it pops and
//!   computes their phys estimates and digests, and parses the
//!   expressions; the socket reader only decodes.
//! * **Backpressure** — every lane is a *bounded* queue: when requests
//!   arrive faster than they drain, the excess is refused immediately
//!   with a typed [`ServeError::Overloaded`] instead of queueing
//!   unboundedly, so an overloaded engine stays responsive for the load
//!   it accepted.
//! * **Structural cone-embedding cache, with generations** — results are
//!   keyed by the 128-bit digest of
//!   [`nettag_netlist::structural_hash_with_phys`] (every gate's kind,
//!   size, fan-ins and physical attributes, in declaration order), so
//!   re-embedding a cone the engine has already seen — under any gate
//!   naming — is a lookup, not a forward pass. A checkpoint hot-swap
//!   ([`Engine::swap_checkpoint`]) bumps the cache generation and
//!   lazily evicts embeddings computed under the old weights. The fused
//!   geometry path ([`Client::embed_cone_fused`]), served by every
//!   engine, answers `[CLS] ‖ mean geometry`, a `1 × (embed_dim +
//!   GEOM_DIM)` row ([`nettag_core::fuse_geometry`]). It needs no extra
//!   key material: geometry is a deterministic function of the cone
//!   netlist and its physical attributes (the placement flow is seeded),
//!   which is exactly what `structural_hash_with_phys` digests — fused
//!   entries just salt the same digest so they never alias plain
//!   embeddings.
//! * **Network front-end** — [`NetServer`] exposes the engine over TCP
//!   with a simple length-prefixed binary protocol ([`proto`]);
//!   [`NetClient`] is the matching blocking client. Remote requests
//!   feed the same lanes as in-process ones and answer with the same
//!   bits.
//! * **Shared checkpoints** — [`Engine::from_checkpoint`] loads through
//!   [`nettag_core::load_checkpoint_shared`]: any number of engines and
//!   readers pointed at one file share a single weight buffer.
//! * **Fault tolerance** — batch execution is panic-isolated
//!   (`catch_unwind` per batch: a panicking request resolves
//!   [`ServeError::Internal`] for its batch's waiters while the lane
//!   thread survives and keeps draining), requests carry optional
//!   deadlines end to end (expired requests resolve
//!   [`ServeError::DeadlineExceeded`] without being encoded),
//!   [`NetClient`] can retry `Overloaded`/connection faults with
//!   jittered exponential backoff, and the whole failure surface is
//!   exercised by the deterministic [`faults`] injection harness.
//!
//! Responses are bitwise identical to the offline API
//! ([`nettag_core::NetTag::embed_tag`] /
//! [`nettag_core::ExprLlm::encode`]) regardless of batch composition,
//! lane assignment, transport, thread count or what the cache holds.
//! The cache and in-batch dedup key by
//! [`nettag_netlist::structural_hash_with_phys`], which reads everything
//! the model reads except gate names, and tokens name variables
//! canonically; so a cone that shares a digest with an earlier one feeds
//! the model the same input and gets its own offline bits.
//!
//! ## Error contract per opcode
//!
//! Every accepted request resolves — with a reply or exactly one typed
//! error; nothing hangs. Per wire opcode (the in-process [`Client`]
//! methods follow the same contract):
//!
//! | opcode             | success     | typed errors                     |
//! |--------------------|-------------|----------------------------------|
//! | `embed_cone` (0)   | `Embedding` | `Invalid` (bad netlist / phys length), `Overloaded`, `DeadlineExceeded`, `Internal`, `Closed` |
//! | `embed_expr` (1)   | `Embedding` | `Invalid` (parse failure), `Overloaded`, `DeadlineExceeded`, `Internal`, `Closed` |
//! | `predict` (2)      | `Class`     | as `embed_cone`, plus `NoClassifier` when the engine has no head |
//! | `ping` (3)         | `Pong`      | none — answered by the reader itself, so it health-checks a server whose lanes are saturated |
//!
//! `Invalid` and `NoClassifier` are **request** errors: the connection
//! lives on and other in-flight frames are unaffected. `Overloaded` is a
//! **load** error: the frame was shed before entering a lane, retry with
//! backoff ([`RetryPolicy`]). `DeadlineExceeded` means the request's own
//! deadline lapsed before its batch encoded it. `Internal` means a panic
//! was caught while the request's batch executed: the lane recovered, the
//! engine keeps serving, and the next identical request recomputes
//! cleanly. `Closed` is terminal for the engine. A malformed *frame* (as
//! opposed to a malformed netlist inside a well-formed frame) is a
//! protocol violation and severs the connection; [`NetClient`] surfaces
//! that as [`ServeError::Transport`].
//!
//! ```no_run
//! use nettag_core::{NetTag, NetTagConfig};
//! use nettag_netlist::{CellKind, Netlist};
//! use nettag_serve::{Engine, ServeConfig};
//! use std::sync::Arc;
//!
//! let engine = Engine::new(Arc::new(NetTag::new(NetTagConfig::tiny())), ServeConfig::default());
//! let client = engine.client();
//! let mut n = Netlist::new("cone");
//! let a = n.add_gate("a", CellKind::Input, vec![]);
//! let g = n.add_gate("G", CellKind::Inv, vec![a]);
//! n.add_gate("y", CellKind::Output, vec![g]);
//! let emb = client.embed_cone(n, None).unwrap();
//! assert_eq!(emb.rows, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
pub mod faults;
mod net;
pub mod proto;

pub use cache::ConeCache;
pub use engine::{Client, Engine, ServeStats};
pub use faults::{FaultRule, Faults};
pub use net::{NetClient, NetConfig, NetServer, RetryPolicy, RetryStats};

use nettag_core::CheckpointError;
use std::fmt;
use std::time::Duration;

/// Tuning knobs for the serving engine.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest number of requests coalesced into one batch. A batcher
    /// never waits to fill a batch: it takes what is already queued, up
    /// to this many.
    pub max_batch: usize,
    /// Cone-embedding cache capacity (entries; 0 disables caching).
    pub cache_capacity: usize,
    /// Batcher lanes. `0` (the default) resolves to the worker-thread
    /// count (`RAYON_NUM_THREADS` / `NETTAG_NUM_THREADS`, see
    /// [`nettag_par::num_threads`]) — one lane per thread slice, so
    /// multi-core hosts don't serialize on a single batch queue.
    /// Cones shard to lanes by a name-blind structural key (equal
    /// structures share a lane), expressions by text hash.
    pub lanes: usize,
    /// Per-lane bound on queued requests. When a lane is full, further
    /// submissions fail fast with [`ServeError::Overloaded`] — the
    /// engine sheds load instead of growing an unbounded backlog.
    pub queue_depth: usize,
    /// Default per-request deadline for in-process [`Client`]s (`None`
    /// disables). A request unanswered when its deadline lapses resolves
    /// [`ServeError::DeadlineExceeded`]; a request still queued at its
    /// deadline is dropped from the batch without being encoded.
    /// Override per client with [`Client::with_timeout`].
    pub request_timeout: Option<Duration>,
    /// Fault-injection plan (see [`faults`]). The default empty plan is
    /// zero-cost; a non-empty plan arms the deterministic injection
    /// harness.
    pub faults: Faults,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 64,
            cache_capacity: 1024,
            lanes: 0,
            queue_depth: 256,
            request_timeout: None,
            faults: Faults::none(),
        }
    }
}

/// Error serving a request.
#[derive(Debug)]
pub enum ServeError {
    /// The engine has shut down (or shut down before answering).
    Closed,
    /// The request was malformed (bad phys length, unparsable expression).
    Invalid(String),
    /// A predict request reached an engine built without a classifier.
    NoClassifier,
    /// Checkpoint loading failed ([`Engine::from_checkpoint`] /
    /// [`Engine::swap_checkpoint`]).
    Checkpoint(CheckpointError),
    /// The request's lane queue was full: the engine shed this request
    /// to protect the work it already accepted. Retry with backoff.
    Overloaded,
    /// The request's deadline lapsed before it was answered. A request
    /// still queued at its deadline is pruned without being encoded.
    DeadlineExceeded,
    /// A panic was caught while this request's batch executed. The lane
    /// recovered and the engine keeps serving; the payload message is
    /// carried for diagnosis. Safe to retry — nothing partial was
    /// cached.
    Internal(String),
    /// A socket-transport failure between a [`NetClient`] and the
    /// server (connection refused/reset, protocol violation, …).
    Transport(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Closed => write!(f, "serving engine is shut down"),
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::NoClassifier => write!(f, "engine has no classifier head"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Overloaded => write!(f, "engine overloaded: request shed, retry later"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request was answered")
            }
            ServeError::Internal(msg) => write!(f, "internal: batch execution panicked: {msg}"),
            ServeError::Transport(msg) => write!(f, "transport: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}
