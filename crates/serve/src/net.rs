//! Blocking TCP front-end over the serving engine.
//!
//! [`NetServer`] binds a listener and speaks the [`crate::proto`]
//! length-prefixed protocol: one reader thread and one writer thread per
//! connection, feeding the same batcher lanes as in-process
//! [`crate::Client`]s — concurrent remote clients coalesce into batches
//! exactly like local ones, and their responses are bitwise identical.
//! Responses travel tagged by request id, not in submission order, so a
//! connection may pipeline many requests and the lanes may answer them
//! as they complete.
//!
//! Backpressure crosses the wire: when a request's lane queue is full,
//! the reader answers that frame with an
//! [`ErrorCode::Overloaded`](crate::proto::ErrorCode) response
//! immediately — the connection stays up, already-accepted requests keep
//! computing, and the remote caller decides whether to back off.
//!
//! **Resilience.** Requests carry their remaining deadline budget on the
//! wire (`deadline_ms`); the server starts the clock on receipt and
//! prunes expired requests before encoding them. A `ping` opcode is
//! answered by the connection reader itself — it never enters a lane, so
//! it health-checks a server whose lanes are saturated. The server sets
//! a socket **write timeout** per connection (a peer that stops reading
//! can't wedge a writer thread forever) and runs an **idle-connection
//! reaper** ([`NetConfig::idle_timeout`]) that severs connections with
//! no traffic in either direction. [`NetClient`] can retry `Overloaded`
//! and connection faults with jittered exponential backoff
//! ([`RetryPolicy`]): reconnect, then resend under the *same* request id
//! — requests are idempotent (frozen weights, keyed caching), so a
//! resend is answered with the same bits.

use crate::engine::{Client, ConeOut, RawRequest, ReplyTo, Response};
use crate::faults::{FaultKind, FaultState};
use crate::proto::{self, ErrorCode, RequestBody, ResponseBody};
use crate::ServeError;
use nettag_netlist::{Netlist, PhysProps};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reply on a connection's writer channel: `(request id, result)`.
type TaggedReply = (u64, Result<Response, ServeError>);

/// Per-connection state the reaper inspects: the severable stream plus
/// the last moment either direction moved bytes (milliseconds since the
/// server's epoch).
struct ConnState {
    stream: TcpStream,
    last_active_ms: AtomicU64,
}

impl ConnState {
    fn touch(&self, epoch: Instant) {
        self.last_active_ms
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// Registry of open connections: shared state + reader handle.
type ConnRegistry = Mutex<Vec<(Arc<ConnState>, JoinHandle<()>)>>;

/// Socket-level tuning for a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-connection socket write timeout: a peer that stops reading
    /// while replies stream at it fails the writer (which severs the
    /// connection) instead of wedging the thread forever. `None`
    /// disables.
    pub write_timeout: Option<Duration>,
    /// Sever connections with no traffic in either direction for this
    /// long. `None` (the default) disables the reaper.
    pub idle_timeout: Option<Duration>,
    /// How often the reaper sweeps (also the bound on how long shutdown
    /// waits for it). Only meaningful with `idle_timeout` set.
    pub sweep_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            write_timeout: Some(Duration::from_secs(30)),
            idle_timeout: None,
            sweep_interval: Duration::from_millis(50),
        }
    }
}

/// A TCP server exposing an [`crate::Engine`] (through one of its
/// [`Client`] handles) on a socket address.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
    conns: Arc<ConnRegistry>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections, serving each through `client`'s engine,
    /// with default socket tuning ([`NetConfig::default`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(client: Client, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        NetServer::bind_with(client, addr, NetConfig::default())
    }

    /// [`NetServer::bind`] with explicit socket tuning.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        client: Client,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<ConnRegistry> = Arc::new(Mutex::new(Vec::new()));
        let epoch = Instant::now();
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("nettag-net-accept".into())
                .spawn(move || accept_loop(&listener, &client, &stop, &conns, cfg, epoch))
                .expect("spawn accept thread")
        };
        let reaper = cfg.idle_timeout.map(|idle| {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("nettag-net-reaper".into())
                .spawn(move || reaper_loop(&stop, &conns, idle, cfg.sweep_interval, epoch))
                .expect("spawn reaper thread")
        });
        Ok(NetServer {
            local_addr,
            stop,
            accept: Mutex::new(Some(accept)),
            reaper: Mutex::new(reaper),
            conns,
        })
    }

    /// The address the server is listening on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections, severs the open ones, and joins every
    /// connection thread. In-flight requests already accepted by the
    /// engine still compute; their replies are discarded with the
    /// connection. Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            // Another shutdown already ran the teardown; still join the
            // accept thread in case we raced it.
        } else {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.local_addr);
        }
        if let Some(h) = self.accept.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for (conn, handle) in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("stopped", &self.stop.load(Ordering::SeqCst))
            .finish()
    }
}

fn accept_loop(
    listener: &TcpListener,
    client: &Client,
    stop: &AtomicBool,
    conns: &ConnRegistry,
    cfg: NetConfig,
    epoch: Instant,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(cfg.write_timeout);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let conn = Arc::new(ConnState {
            stream: registered,
            last_active_ms: AtomicU64::new(epoch.elapsed().as_millis() as u64),
        });
        let client = client.clone();
        let conn_for_thread = Arc::clone(&conn);
        let Ok(handle) = std::thread::Builder::new()
            .name("nettag-net-conn".into())
            .spawn(move || serve_connection(stream, &client, &conn_for_thread, epoch))
        else {
            continue;
        };
        conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((conn, handle));
    }
}

/// Periodically severs idle connections and compacts finished ones out
/// of the registry. Severing wakes the connection's blocked reader
/// (`read` returns 0/error once the socket is shut down), so a dead
/// peer can't pin a thread pair forever.
fn reaper_loop(
    stop: &AtomicBool,
    conns: &ConnRegistry,
    idle: Duration,
    sweep: Duration,
    epoch: Instant,
) {
    let idle_ms = idle.as_millis() as u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(sweep);
        let mut registry = conns.lock().unwrap_or_else(|e| e.into_inner());
        let now_ms = epoch.elapsed().as_millis() as u64;
        for (conn, _) in registry.iter() {
            let last = conn.last_active_ms.load(Ordering::Relaxed);
            if now_ms.saturating_sub(last) > idle_ms {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        // Join and drop connections whose reader already exited, so a
        // long-lived server doesn't accumulate dead registry entries.
        let mut live = Vec::with_capacity(registry.len());
        for (conn, handle) in registry.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                live.push((conn, handle));
            }
        }
        *registry = live;
    }
}

/// Converts an engine reply into its wire form.
fn wire_result(result: Result<Response, ServeError>) -> ResponseBody {
    match result {
        Ok(Response::Embedding(t)) => ResponseBody::Embedding(t.data.clone()),
        Ok(Response::Class(c)) => ResponseBody::Class(c as u64),
        Ok(Response::Pong(generation)) => ResponseBody::Pong(generation),
        Err(e) => {
            let code = match &e {
                ServeError::Invalid(_) => ErrorCode::Invalid,
                ServeError::NoClassifier => ErrorCode::NoClassifier,
                ServeError::Overloaded => ErrorCode::Overloaded,
                ServeError::Closed => ErrorCode::Closed,
                ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                ServeError::Internal(_) => ErrorCode::Internal,
                // Not produced by the engine for a served wire request;
                // fold into Invalid rather than invent wire codes for
                // them.
                ServeError::Checkpoint(_) | ServeError::Transport(_) => ErrorCode::Invalid,
            };
            ResponseBody::Error {
                code,
                message: e.to_string(),
            }
        }
    }
}

/// One connection: handshake, then read frames and feed the lanes until
/// EOF, a protocol violation, or a severed socket. The paired writer
/// thread drains the tagged reply channel; it naturally exits once the
/// reader is gone and every in-flight request has answered.
fn serve_connection(stream: TcpStream, client: &Client, conn: &ConnState, epoch: Instant) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx): (Sender<TaggedReply>, Receiver<TaggedReply>) = channel();
    let faults = client.fault_state();
    let writer = std::thread::Builder::new()
        .name("nettag-net-write".into())
        .spawn(move || write_loop(writer_stream, &rx, faults))
        .expect("spawn connection writer");

    let mut reader = BufReader::new(stream);
    // Handshake: send our hello eagerly, then check the peer's. Both
    // sides write first, so neither blocks on the other.
    let hello_ok = (|| -> io::Result<()> {
        {
            let s = reader.get_mut();
            proto::write_hello(s)?;
            s.flush()?;
        }
        proto::read_hello(&mut reader)?;
        Ok(())
    })();
    if hello_ok.is_ok() {
        // The reader only decodes and routes: each frame joins its lane at
        // once, and the lane batches whatever is queued when it is free.
        // The loop ends on clean EOF, a protocol violation, or a severed
        // socket — the framing is gone either way.
        while let Ok(Some(req)) = proto::read_request(&mut reader) {
            conn.touch(epoch);
            dispatch(client, req, &tx);
        }
    }
    // Drop our reply sender; once in-flight requests answer, the writer's
    // channel disconnects and it exits.
    drop(tx);
    let _ = writer.join();
    // Shut the socket itself down: the server's connection registry holds
    // a clone, so dropping our halves alone would leave the peer hanging
    // without an EOF until server shutdown.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
    conn.touch(epoch);
}

/// Answers or routes one decoded frame. Pings are answered here;
/// everything else goes to [`Client::submit`], and a request it refuses
/// or sheds answers its frame with a typed error. A netlist is validated,
/// and an expression parsed, in its lane, like an in-process one, and a
/// bad one answers `Invalid` on its own frame. The connection lives on
/// either way.
fn dispatch(client: &Client, req: proto::Request, tx: &Sender<TaggedReply>) {
    // The server restarts the deadline clock on receipt: the budget
    // excludes network transit, which the client's own read timeout
    // already bounds.
    let deadline = (req.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(u64::from(req.deadline_ms)));
    let raw = match req.body {
        RequestBody::Ping => {
            // Answered here, never entering a lane: a saturated engine
            // still pongs, which is the point of a health check.
            let _ = tx.send((req.id, Ok(Response::Pong(client.generation()))));
            return;
        }
        RequestBody::EmbedCone { netlist, phys } => RawRequest::Cone {
            netlist,
            phys,
            out: ConeOut::Embed,
        },
        RequestBody::Predict { netlist, phys } => RawRequest::Cone {
            netlist,
            phys,
            out: ConeOut::Predict,
        },
        RequestBody::EmbedExpr { text } => RawRequest::Expr { text },
    };
    let reply = ReplyTo::Tagged {
        id: req.id,
        tx: tx.clone(),
    };
    if let Err((reply, e)) = client.submit(raw, deadline, reply) {
        reply.send(Err(e));
    }
}

/// Drains tagged replies onto the socket. Batches of replies that are
/// already queued are written back to back and flushed once. With an
/// armed fault plan, each outgoing frame is an injection opportunity:
/// `corrupt` flips the frame's status byte to an invalid value (the
/// peer's decoder must error, not panic), `sever` writes a torn length
/// prefix and shuts the socket down.
fn write_loop(stream: TcpStream, rx: &Receiver<TaggedReply>, faults: Option<Arc<FaultState>>) {
    let mut w = BufWriter::new(stream);
    while let Ok((id, result)) = rx.recv() {
        let mut batch = vec![proto::Response {
            id,
            body: wire_result(result),
        }];
        while let Ok((id, result)) = rx.try_recv() {
            batch.push(proto::Response {
                id,
                body: wire_result(result),
            });
        }
        for resp in &batch {
            let ok = match &faults {
                None => proto::write_response(&mut w, resp).is_ok(),
                Some(f) => write_response_faulty(&mut w, resp, f),
            };
            if !ok {
                let _ = w.get_ref().shutdown(Shutdown::Both);
                return;
            }
        }
        if w.flush().is_err() {
            // A failed flush (peer gone, write timeout) severs the
            // socket both ways so the blocked reader wakes too.
            let _ = w.get_ref().shutdown(Shutdown::Both);
            return;
        }
    }
    let _ = w.flush();
}

/// Fault-armed frame write: encode to a scratch buffer, give the plan
/// its chance to corrupt or sever, then write. Returns false when the
/// connection should be torn down.
fn write_response_faulty(
    w: &mut BufWriter<TcpStream>,
    resp: &proto::Response,
    faults: &FaultState,
) -> bool {
    let mut frame = Vec::new();
    if proto::write_response(&mut frame, resp).is_err() {
        return false;
    }
    if faults.fire(FaultKind::Sever) {
        // A torn frame: half a length prefix, then a dead socket.
        let _ = w.write_all(&frame[..2.min(frame.len())]);
        let _ = w.flush();
        let _ = w.get_ref().shutdown(Shutdown::Both);
        return false;
    }
    if faults.fire(FaultKind::Corrupt) {
        // Frame layout: len u32 | id u64 | status u8. 0xFF is no valid
        // status, so the peer's decoder *detects* the corruption.
        if let Some(status) = frame.get_mut(12) {
            *status = 0xFF;
        }
    }
    w.write_all(&frame).is_ok()
}

fn transport(e: impl std::fmt::Display) -> ServeError {
    ServeError::Transport(e.to_string())
}

/// Retry schedule for a [`NetClient`]: jittered exponential backoff on
/// [`ServeError::Overloaded`] and connection faults
/// ([`ServeError::Transport`]). The default is **no retries** — opt in
/// with [`NetClient::with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base * 2^n`, capped at `cap`, then
    /// jittered to a uniform value in `[half, full]`.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter draws (deterministic schedule per seed).
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every fault surfaces to the caller immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 1,
        }
    }

    /// `max_retries` attempts with the default 10 ms base / 500 ms cap.
    pub fn retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::none()
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Counters a [`NetClient`] keeps about its own fault handling (the
/// server can't see client-side retries, so they are reported here
/// rather than in [`crate::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests re-sent after `Overloaded` or a connection fault.
    pub retries: u64,
    /// Times the client re-established its connection.
    pub reconnects: u64,
}

/// A blocking remote client for a [`NetServer`], mirroring the
/// in-process [`Client`] API. One instance drives one connection; open
/// more connections for concurrency (they still coalesce server-side).
///
/// Resilience is opt-in and composable: [`NetClient::with_timeout`]
/// puts a deadline on every call (carried to the server as
/// `deadline_ms`, enforced locally with a socket read timeout), and
/// [`NetClient::with_retry`] retries `Overloaded`/connection faults
/// with jittered exponential backoff, reconnecting and re-sending under
/// the same request id.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
    next_id: u64,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    /// Set when the read stream may hold half a frame (deadline hit
    /// mid-read): the next call must reconnect before reusing it.
    dirty: bool,
    rng: u64,
    stats: RetryStats,
}

impl NetClient {
    /// Connects and performs the protocol handshake. No deadline, no
    /// retries — add them with [`NetClient::with_timeout`] /
    /// [`NetClient::with_retry`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the connection or handshake fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ServeError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(transport)?
            .next()
            .ok_or_else(|| ServeError::Transport("address resolved to nothing".into()))?;
        let (reader, writer) = NetClient::open(addr)?;
        Ok(NetClient {
            reader,
            writer,
            addr,
            next_id: 0,
            retry: RetryPolicy::none(),
            timeout: None,
            dirty: false,
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: RetryStats::default(),
        })
    }

    /// Sets the retry policy for subsequent calls.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> NetClient {
        self.retry = retry;
        self.rng = retry.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        self
    }

    /// Sets the per-call deadline for subsequent calls (`None` waits
    /// indefinitely).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> NetClient {
        self.timeout = timeout;
        self
    }

    /// This client's retry/reconnect counters.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    fn open(addr: SocketAddr) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ServeError> {
        let stream = TcpStream::connect(addr).map_err(transport)?;
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone().map_err(transport)?);
        let mut writer = BufWriter::new(stream);
        proto::write_hello(writer.get_mut()).map_err(transport)?;
        writer.get_mut().flush().map_err(transport)?;
        proto::read_hello(&mut reader).map_err(transport)?;
        Ok((reader, writer))
    }

    fn reconnect(&mut self) -> Result<(), ServeError> {
        let (reader, writer) = NetClient::open(self.addr)?;
        self.reader = reader;
        self.writer = writer;
        self.dirty = false;
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Next jittered backoff sleep for retry number `attempt` (0-based).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .retry
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.retry.cap);
        // xorshift64* jitter in [0.5, 1.0): full jitter keeps retrying
        // clients from re-converging on the same instant.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let unit = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * unit)
    }

    /// One request/response exchange under an optional deadline; the
    /// retry loop lives in [`NetClient::call`].
    fn attempt(
        &mut self,
        id: u64,
        body: &RequestBody,
        deadline: Option<Instant>,
    ) -> Result<ResponseBody, ServeError> {
        let deadline_ms = match deadline {
            None => 0,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(ServeError::DeadlineExceeded);
                }
                u32::try_from(left.as_millis().max(1)).unwrap_or(u32::MAX)
            }
        };
        proto::write_request(
            &mut self.writer,
            &proto::Request {
                id,
                deadline_ms,
                body: body.clone(),
            },
        )
        .map_err(transport)?;
        self.writer.flush().map_err(transport)?;
        self.recv_for(id, deadline)
    }

    fn recv_for(&mut self, id: u64, deadline: Option<Instant>) -> Result<ResponseBody, ServeError> {
        let stream = self.reader.get_ref();
        let _ = stream.set_read_timeout(deadline.map(|d| {
            // A zero read timeout would mean "no timeout"; clamp to 1 ms.
            d.saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1))
        }));
        let result = proto::read_response(&mut self.reader);
        let _ = self.reader.get_ref().set_read_timeout(None);
        // With one request outstanding the next frame answers it; ids of
        // other frames would indicate a peer bug, so reject them.
        match result {
            Ok(Some(resp)) if resp.id == id => Ok(resp.body),
            Ok(Some(resp)) => Err(ServeError::Transport(format!(
                "response id {} does not match request id {id}",
                resp.id
            ))),
            Ok(None) => Err(ServeError::Transport("server closed the connection".into())),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // The reply may still arrive and would desynchronize the
                // framing; force a reconnect before the next call.
                self.dirty = true;
                Err(ServeError::DeadlineExceeded)
            }
            Err(e) => Err(transport(e)),
        }
    }

    /// The retry loop: `Overloaded` retries in place, `Transport`
    /// reconnects first, both after a jittered backoff; everything else
    /// (including `DeadlineExceeded`) surfaces immediately. Resends use
    /// the same request id — the operations are idempotent, so a resend
    /// answers with the same bits.
    fn call(&mut self, body: RequestBody) -> Result<ResponseBody, ServeError> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let id = self.next_id;
        self.next_id += 1;
        let mut attempt = 0u32;
        loop {
            if self.dirty {
                self.reconnect()?;
            }
            let outcome = self.attempt(id, &body, deadline);
            let err = match outcome {
                Err(e @ (ServeError::Overloaded | ServeError::Transport(_)))
                    if attempt < self.retry.max_retries =>
                {
                    e
                }
                other => return other,
            };
            if matches!(err, ServeError::Transport(_)) {
                self.dirty = true;
            }
            let pause = self.backoff(attempt);
            if deadline.is_some_and(|d| Instant::now() + pause >= d) {
                // Not enough budget left to retry; report the last fault.
                return Err(err);
            }
            std::thread::sleep(pause);
            attempt += 1;
            self.stats.retries += 1;
        }
    }

    fn expect_embedding(body: ResponseBody) -> Result<Vec<f32>, ServeError> {
        match body {
            ResponseBody::Embedding(data) => Ok(data),
            ResponseBody::Error { code, message } => Err(decode_error(code, message)),
            _ => Err(ServeError::Transport(
                "embed request answered with a non-embedding".into(),
            )),
        }
    }

    /// Embeds a cone netlist remotely — bitwise identical to
    /// [`Client::embed_cone`] on the same engine.
    ///
    /// # Errors
    ///
    /// Engine errors as [`Client::embed_cone`];
    /// [`ServeError::Transport`] when the socket fails;
    /// [`ServeError::DeadlineExceeded`] when a configured timeout lapses
    /// first.
    pub fn embed_cone(
        &mut self,
        netlist: &Netlist,
        phys: Option<Vec<PhysProps>>,
    ) -> Result<Vec<f32>, ServeError> {
        let body = RequestBody::EmbedCone {
            netlist: netlist.clone(),
            phys,
        };
        Self::expect_embedding(self.call(body)?)
    }

    /// Embeds a standalone symbolic expression remotely — bitwise
    /// identical to [`Client::embed_expr`] on the same engine.
    ///
    /// # Errors
    ///
    /// Engine errors as [`Client::embed_expr`];
    /// [`ServeError::Transport`] when the socket fails.
    pub fn embed_expr(&mut self, text: &str) -> Result<Vec<f32>, ServeError> {
        let body = RequestBody::EmbedExpr { text: text.into() };
        Self::expect_embedding(self.call(body)?)
    }

    /// Embeds and classifies a cone remotely — identical to
    /// [`Client::predict`] on the same engine.
    ///
    /// # Errors
    ///
    /// Engine errors as [`Client::predict`]; [`ServeError::Transport`]
    /// when the socket fails.
    pub fn predict(
        &mut self,
        netlist: &Netlist,
        phys: Option<Vec<PhysProps>>,
    ) -> Result<usize, ServeError> {
        let body = RequestBody::Predict {
            netlist: netlist.clone(),
            phys,
        };
        match self.call(body)? {
            ResponseBody::Class(c) => Ok(c as usize),
            ResponseBody::Error { code, message } => Err(decode_error(code, message)),
            _ => Err(ServeError::Transport(
                "predict request answered with a non-class".into(),
            )),
        }
    }

    /// Health-checks the server, returning its current model
    /// generation. Answered by the connection reader directly — a pong
    /// comes back even when every lane is saturated, so this
    /// distinguishes "slow but alive" from "gone".
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the socket fails;
    /// [`ServeError::DeadlineExceeded`] under a configured timeout.
    pub fn ping(&mut self) -> Result<u64, ServeError> {
        match self.call(RequestBody::Ping)? {
            ResponseBody::Pong(generation) => Ok(generation),
            ResponseBody::Error { code, message } => Err(decode_error(code, message)),
            _ => Err(ServeError::Transport(
                "ping answered with a non-pong".into(),
            )),
        }
    }

    /// Pipelines a whole burst of cone requests on this connection: all
    /// frames go out before any response is read, so the server's lanes
    /// see them together and may answer out of order (ids pair them back
    /// up). Returns per-request results in input order. Pipelined bursts
    /// are **not** retried (a partial burst is not idempotent to replay
    /// blindly); per-request errors land in their output slots.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the socket fails; per-request
    /// engine errors land in the corresponding output slot.
    #[allow(clippy::type_complexity)]
    pub fn embed_cones(
        &mut self,
        cones: &[Netlist],
    ) -> Result<Vec<Result<Vec<f32>, ServeError>>, ServeError> {
        if self.dirty {
            self.reconnect()?;
        }
        let mut ids = Vec::with_capacity(cones.len());
        for netlist in cones {
            let id = self.next_id;
            self.next_id += 1;
            proto::write_request(
                &mut self.writer,
                &proto::Request {
                    id,
                    deadline_ms: 0,
                    body: RequestBody::EmbedCone {
                        netlist: netlist.clone(),
                        phys: None,
                    },
                },
            )
            .map_err(transport)?;
            ids.push(id);
        }
        self.writer.flush().map_err(transport)?;
        let mut by_id = std::collections::HashMap::with_capacity(ids.len());
        for _ in 0..ids.len() {
            match proto::read_response(&mut self.reader).map_err(transport)? {
                Some(resp) => {
                    by_id.insert(resp.id, resp.body);
                }
                None => {
                    return Err(ServeError::Transport(
                        "server closed the connection mid-pipeline".into(),
                    ))
                }
            }
        }
        Ok(ids
            .into_iter()
            .map(|id| match by_id.remove(&id) {
                Some(body) => Self::expect_embedding(body),
                None => Err(ServeError::Transport(format!(
                    "no response for request id {id}"
                ))),
            })
            .collect())
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("addr", &self.addr)
            .field("next_id", &self.next_id)
            .field("retry", &self.retry)
            .field("timeout", &self.timeout)
            .field("stats", &self.stats)
            .finish()
    }
}

fn decode_error(code: ErrorCode, message: String) -> ServeError {
    match code {
        ErrorCode::Invalid => ServeError::Invalid(message),
        ErrorCode::NoClassifier => ServeError::NoClassifier,
        ErrorCode::Overloaded => ServeError::Overloaded,
        ErrorCode::Closed => ServeError::Closed,
        ErrorCode::DeadlineExceeded => ServeError::DeadlineExceeded,
        ErrorCode::Internal => ServeError::Internal(message),
    }
}
