//! The length-prefixed binary wire protocol of the network front-end.
//!
//! Std-only and explicitly little-endian, so
//! both ends agree bit for bit — embeddings travel as raw `f32` bit
//! patterns ([`f32::to_le_bytes`]/[`f32::from_le_bytes`]), which is what
//! lets the loopback integration tests pin *bitwise* equality between
//! served-over-TCP and in-process responses.
//!
//! ## Connection handshake
//!
//! The client opens with an 8-byte hello — magic `b"NTAG"`, protocol
//! [`VERSION`] (`u16` LE), reserved `u16` — and the server echoes its
//! own hello. A magic or version mismatch closes the connection; the
//! echo carries the server's version so the client can say *why*.
//!
//! ## Frames
//!
//! Every subsequent message (both directions) is one frame: a `u32` LE
//! payload length (capped at [`MAX_FRAME`]) followed by the payload.
//!
//! Request payload (protocol version 2):
//!
//! ```text
//! id: u64 | deadline_ms: u32 | opcode: u8 | body
//! ```
//!
//! with opcodes `0 = embed_cone`, `1 = embed_expr`, `2 = predict`,
//! `3 = ping`. Cone bodies carry the full netlist (name, gates with
//! kind/size/fanin) plus optional per-gate physical attributes;
//! expression bodies carry UTF-8 source text; ping has no body.
//! `deadline_ms` is the request's remaining deadline budget in
//! milliseconds (`0` = none): the server starts the clock on receipt,
//! and a request still queued when it lapses resolves
//! `DeadlineExceeded` without being encoded.
//!
//! Response payload:
//!
//! ```text
//! id: u64 | status: u8 | body
//! ```
//!
//! `status 0` is an embedding (`u32` column count + raw `f32` bits),
//! `status 1` a class index (`u64`), `status 6` a pong carrying the
//! server's current model generation (`u64`), anything else a typed
//! error with a UTF-8 message (see [`ErrorCode`]). Responses are
//! **tagged, not ordered**: the id echoes the request it answers, so a
//! connection may pipeline requests and the server may answer out of
//! submission order (lanes make that routine). Pings are answered by
//! the connection reader itself — they never enter a lane, so they
//! health-check a server whose lanes are saturated.

use nettag_netlist::{GateId, Netlist, PhysProps, ALL_CELL_KINDS};
use std::io::{self, Read, Write};

/// Connection magic: the first four bytes of every hello.
pub const MAGIC: [u8; 4] = *b"NTAG";

/// Protocol version spoken by this build. Version 2 added the
/// per-request `deadline_ms` field, the `ping` opcode, and the
/// `Pong`/`DeadlineExceeded`/`Internal` response statuses.
pub const VERSION: u16 = 2;

/// Hard cap on a frame payload (64 MiB) — a malformed or hostile length
/// prefix must not drive an allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// A request frame: a caller-chosen id, a deadline budget, and the
/// operation.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim in the matching [`Response`].
    pub id: u64,
    /// Remaining deadline budget in milliseconds; `0` means none. The
    /// server starts the clock when it reads the frame.
    pub deadline_ms: u32,
    /// The requested operation.
    pub body: RequestBody,
}

/// The operation a request frame asks for.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Embed a cone netlist (optionally with sign-off attributes).
    EmbedCone {
        /// The cone to embed.
        netlist: Netlist,
        /// Optional per-gate physical attributes.
        phys: Option<Vec<PhysProps>>,
    },
    /// Embed a standalone symbolic gate expression.
    EmbedExpr {
        /// Expression source text.
        text: String,
    },
    /// Embed a cone and classify it through the engine's head.
    Predict {
        /// The cone to classify.
        netlist: Netlist,
        /// Optional per-gate physical attributes.
        phys: Option<Vec<PhysProps>>,
    },
    /// Health check: answered with [`ResponseBody::Pong`] by the
    /// connection reader itself, bypassing the lanes entirely.
    Ping,
}

/// A response frame: the id it answers and the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// The outcome carried by a response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A `1 × n` embedding, bitwise as computed.
    Embedding(Vec<f32>),
    /// A class index from the classifier head.
    Class(u64),
    /// The answer to a [`RequestBody::Ping`]: the server's current
    /// model generation.
    Pong(u64),
    /// A typed serving error.
    Error {
        /// Which error.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Wire encoding of [`crate::ServeError`] variants a server can answer
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request (bad netlist, bad phys length, parse failure).
    Invalid,
    /// The engine has no classifier head.
    NoClassifier,
    /// The lane queue was full: load shed, retry with backoff.
    Overloaded,
    /// The engine is shut down.
    Closed,
    /// The request's deadline lapsed before it was answered.
    DeadlineExceeded,
    /// The request's batch panicked; the lane recovered. Safe to retry.
    Internal,
}

impl ErrorCode {
    fn status(self) -> u8 {
        match self {
            ErrorCode::Invalid => 2,
            ErrorCode::NoClassifier => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::Closed => 5,
            ErrorCode::DeadlineExceeded => 7,
            ErrorCode::Internal => 8,
        }
    }

    fn from_status(s: u8) -> Option<ErrorCode> {
        match s {
            2 => Some(ErrorCode::Invalid),
            3 => Some(ErrorCode::NoClassifier),
            4 => Some(ErrorCode::Overloaded),
            5 => Some(ErrorCode::Closed),
            7 => Some(ErrorCode::DeadlineExceeded),
            8 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes the 8-byte hello.
///
/// # Errors
///
/// Propagates I/O failure.
pub fn write_hello(w: &mut impl Write) -> io::Result<()> {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..6].copy_from_slice(&VERSION.to_le_bytes());
    w.write_all(&hello)
}

/// Reads and validates the peer's hello, returning its version.
///
/// # Errors
///
/// `InvalidData` on bad magic or a version this build does not speak;
/// other I/O errors propagate.
pub fn read_hello(r: &mut impl Read) -> io::Result<u16> {
    let mut hello = [0u8; 8];
    r.read_exact(&mut hello)?;
    if hello[..4] != MAGIC {
        return Err(bad("bad magic: not a nettag-serve connection"));
    }
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if version != VERSION {
        return Err(bad(format!(
            "protocol version mismatch: peer speaks {version}, this build speaks {VERSION}"
        )));
    }
    Ok(version)
}

/// Writes one length-prefixed frame.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME as usize);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame; `None` on clean EOF at a frame
/// boundary (the peer hung up between requests).
fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    // EOF *before* the prefix is an orderly close (`None`); EOF *inside*
    // it is a torn frame and must error — `read_exact` can't tell the
    // two apart, so read the prefix byte-wise.
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Byte-wise encoder for frame payloads.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Byte-wise decoder over a frame payload.
struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated frame"))?;
        let out = &self.buf[self.at..end];
        self.at = end;
        Ok(out)
    }
    /// Bytes left in the payload — the budget any count field must fit
    /// in, so a hostile count can't drive an allocation the frame could
    /// never back with data.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(bad("string field over 1 MiB"));
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| bad("string field not UTF-8"))
    }
    fn finish(self) -> io::Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after frame payload"))
        }
    }
}

fn encode_netlist(e: &mut Enc, netlist: &Netlist, phys: Option<&[PhysProps]>) {
    e.str(netlist.name());
    e.u32(netlist.gate_count() as u32);
    for (_, g) in netlist.iter() {
        e.str(&g.name);
        e.u8(g.kind.index() as u8);
        e.f64(g.size);
        e.u32(g.fanin.len() as u32);
        for f in &g.fanin {
            e.u32(f.0);
        }
    }
    match phys {
        None => e.u8(0),
        Some(props) => {
            e.u8(1);
            for p in props {
                e.f64(p.power);
                e.f64(p.area);
                e.f64(p.delay);
                e.f64(p.toggle_rate);
                e.f64(p.probability);
                e.f64(p.load);
                e.f64(p.capacitance);
                e.f64(p.resistance);
            }
        }
    }
}

/// Decodes a netlist body. The structure is rebuilt gate by gate and is
/// **not** validated here: the serving lane validates it, as it does an
/// in-process netlist, so a bad netlist answers `Invalid` on its own
/// frame instead of killing the connection.
fn decode_netlist(d: &mut Dec<'_>) -> io::Result<(Netlist, Option<Vec<PhysProps>>)> {
    let name = d.str()?;
    let gates = d.u32()? as usize;
    if gates > 1 << 22 {
        return Err(bad("gate count over 4M"));
    }
    // Every gate costs at least 17 encoded bytes (empty name: 4-byte
    // length + kind + size + fanin count); refuse counts the remaining
    // payload cannot possibly back before allocating anything for them.
    if gates.saturating_mul(17) > d.remaining() {
        return Err(bad("gate count exceeds frame payload"));
    }
    let mut netlist = Netlist::new(name);
    for _ in 0..gates {
        let gname = d.str()?;
        let kind_idx = d.u8()? as usize;
        let kind = *ALL_CELL_KINDS
            .get(kind_idx)
            .ok_or_else(|| bad(format!("unknown cell kind code {kind_idx}")))?;
        let size = d.f64()?;
        let fanin_len = d.u32()? as usize;
        if fanin_len > 64 {
            return Err(bad("fanin count over 64"));
        }
        let mut fanin = Vec::with_capacity(fanin_len);
        for _ in 0..fanin_len {
            fanin.push(GateId(d.u32()?));
        }
        let id = netlist.add_gate(gname, kind, fanin);
        netlist.gate_mut(id).size = size;
    }
    let phys = match d.u8()? {
        0 => None,
        1 => {
            // 8 f64 fields per gate must fit in what's left.
            if gates.saturating_mul(64) > d.remaining() {
                return Err(bad("phys block exceeds frame payload"));
            }
            let mut props = Vec::with_capacity(gates);
            for _ in 0..gates {
                props.push(PhysProps {
                    power: d.f64()?,
                    area: d.f64()?,
                    delay: d.f64()?,
                    toggle_rate: d.f64()?,
                    probability: d.f64()?,
                    load: d.f64()?,
                    capacitance: d.f64()?,
                    resistance: d.f64()?,
                });
            }
            Some(props)
        }
        other => return Err(bad(format!("bad phys flag {other}"))),
    };
    Ok((netlist, phys))
}

/// Writes one request frame.
///
/// # Errors
///
/// Propagates I/O failure.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut e = Enc::new();
    e.u64(req.id);
    e.u32(req.deadline_ms);
    match &req.body {
        RequestBody::EmbedCone { netlist, phys } => {
            e.u8(0);
            encode_netlist(&mut e, netlist, phys.as_deref());
        }
        RequestBody::EmbedExpr { text } => {
            e.u8(1);
            e.str(text);
        }
        RequestBody::Predict { netlist, phys } => {
            e.u8(2);
            encode_netlist(&mut e, netlist, phys.as_deref());
        }
        RequestBody::Ping => e.u8(3),
    }
    write_frame(w, &e.buf)
}

/// Reads one request frame; `None` on clean EOF at a frame boundary.
///
/// # Errors
///
/// `InvalidData` on a malformed frame; other I/O errors propagate.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let mut d = Dec::new(&payload);
    let id = d.u64()?;
    let deadline_ms = d.u32()?;
    let opcode = d.u8()?;
    let body = match opcode {
        0 | 2 => {
            let (netlist, phys) = decode_netlist(&mut d)?;
            if opcode == 0 {
                RequestBody::EmbedCone { netlist, phys }
            } else {
                RequestBody::Predict { netlist, phys }
            }
        }
        1 => RequestBody::EmbedExpr { text: d.str()? },
        3 => RequestBody::Ping,
        other => return Err(bad(format!("unknown opcode {other}"))),
    };
    d.finish()?;
    Ok(Some(Request {
        id,
        deadline_ms,
        body,
    }))
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates I/O failure.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut e = Enc::new();
    e.u64(resp.id);
    match &resp.body {
        ResponseBody::Embedding(data) => {
            e.u8(0);
            e.u32(data.len() as u32);
            for &v in data {
                e.f32(v);
            }
        }
        ResponseBody::Class(c) => {
            e.u8(1);
            e.u64(*c);
        }
        ResponseBody::Pong(generation) => {
            e.u8(6);
            e.u64(*generation);
        }
        ResponseBody::Error { code, message } => {
            e.u8(code.status());
            e.str(message);
        }
    }
    write_frame(w, &e.buf)
}

/// Reads one response frame; `None` on clean EOF at a frame boundary.
///
/// # Errors
///
/// `InvalidData` on a malformed frame; other I/O errors propagate.
pub fn read_response(r: &mut impl Read) -> io::Result<Option<Response>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let mut d = Dec::new(&payload);
    let id = d.u64()?;
    let status = d.u8()?;
    let body = match status {
        0 => {
            let cols = d.u32()? as usize;
            if cols > 1 << 20 {
                return Err(bad("embedding over 1M columns"));
            }
            if cols.saturating_mul(4) > d.remaining() {
                return Err(bad("embedding exceeds frame payload"));
            }
            let mut data = Vec::with_capacity(cols);
            for _ in 0..cols {
                data.push(d.f32()?);
            }
            ResponseBody::Embedding(data)
        }
        1 => ResponseBody::Class(d.u64()?),
        6 => ResponseBody::Pong(d.u64()?),
        s => match ErrorCode::from_status(s) {
            Some(code) => ResponseBody::Error {
                code,
                message: d.str()?,
            },
            None => return Err(bad(format!("unknown response status {s}"))),
        },
    };
    d.finish()?;
    Ok(Some(Response { id, body }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::CellKind;

    fn sample_netlist() -> Netlist {
        let mut n = Netlist::new("proto_cone");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let x = n.add_gate("x", CellKind::Xor2, vec![a, b]);
        let g = n.add_gate("g", CellKind::Nand2, vec![x, a]);
        n.add_gate("y", CellKind::Output, vec![g]);
        let mut n = n.validate().expect("valid");
        n.gate_mut(GateId(3)).size = 1.5;
        n
    }

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, req).expect("encode");
        read_request(&mut &buf[..])
            .expect("decode")
            .expect("not EOF")
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).expect("encode");
        read_response(&mut &buf[..])
            .expect("decode")
            .expect("not EOF")
    }

    #[test]
    fn hello_roundtrips_and_rejects_mismatch() {
        let mut buf = Vec::new();
        write_hello(&mut buf).expect("encode");
        assert_eq!(read_hello(&mut &buf[..]).expect("decode"), VERSION);
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(read_hello(&mut &wrong_magic[..]).is_err());
        let mut wrong_version = buf.clone();
        wrong_version[4] = 0xFF;
        assert!(read_hello(&mut &wrong_version[..]).is_err());
    }

    #[test]
    fn cone_request_roundtrips_gates_sizes_and_phys() {
        let netlist = sample_netlist();
        let phys = vec![PhysProps::default(); netlist.gate_count()];
        let req = Request {
            id: 42,
            deadline_ms: 250,
            body: RequestBody::EmbedCone {
                netlist: netlist.clone(),
                phys: Some(phys),
            },
        };
        let back = roundtrip_request(&req);
        assert_eq!(back.id, 42);
        assert_eq!(back.deadline_ms, 250, "deadline budget travels");
        let RequestBody::EmbedCone {
            netlist: n2,
            phys: p2,
        } = back.body
        else {
            panic!("wrong opcode decoded");
        };
        assert_eq!(n2.name(), netlist.name());
        assert_eq!(n2.gate_count(), netlist.gate_count());
        for ((_, a), (_, b)) in netlist.iter().zip(n2.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.fanin, b.fanin);
            assert_eq!(a.size.to_bits(), b.size.to_bits(), "size travels bitwise");
        }
        assert_eq!(p2.expect("phys present").len(), netlist.gate_count());
    }

    #[test]
    fn expr_and_predict_requests_roundtrip() {
        let req = Request {
            id: 7,
            deadline_ms: 0,
            body: RequestBody::EmbedExpr {
                text: "!((R1 ^ R2) | !R2)".into(),
            },
        };
        let back = roundtrip_request(&req);
        assert_eq!(back.id, 7);
        let RequestBody::EmbedExpr { text } = back.body else {
            panic!("wrong opcode decoded");
        };
        assert_eq!(text, "!((R1 ^ R2) | !R2)");
        let req = Request {
            id: u64::MAX,
            deadline_ms: u32::MAX,
            body: RequestBody::Predict {
                netlist: sample_netlist(),
                phys: None,
            },
        };
        let back = roundtrip_request(&req);
        assert_eq!(back.id, u64::MAX);
        assert!(matches!(back.body, RequestBody::Predict { phys: None, .. }));
    }

    #[test]
    fn responses_roundtrip_bitwise() {
        // Include values whose bit patterns JSON-style text would mangle.
        let data = vec![0.1f32, -0.0, f32::MIN_POSITIVE, 1.0e-41, 3.5];
        let resp = Response {
            id: 9,
            body: ResponseBody::Embedding(data.clone()),
        };
        let back = roundtrip_response(&resp);
        let ResponseBody::Embedding(got) = back.body else {
            panic!("wrong status decoded");
        };
        for (a, b) in data.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let class = Response {
            id: 10,
            body: ResponseBody::Class(3),
        };
        assert_eq!(roundtrip_response(&class), class);
        let err = Response {
            id: 11,
            body: ResponseBody::Error {
                code: ErrorCode::Overloaded,
                message: "lane full".into(),
            },
        };
        assert_eq!(roundtrip_response(&err), err);
    }

    #[test]
    fn malformed_frames_report_invalid_data_not_panic() {
        // Truncated payload.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request {
                id: 1,
                deadline_ms: 0,
                body: RequestBody::EmbedExpr { text: "a&b".into() },
            },
        )
        .expect("encode");
        let cut = &buf[..buf.len() - 2];
        assert!(read_request(&mut &cut[..]).is_err());
        // Oversized frame length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_request(&mut &huge[..]).is_err());
        // Unknown opcode.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.push(99);
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&payload);
        assert!(read_request(&mut &framed[..]).is_err());
        // Clean EOF between frames is not an error.
        assert!(read_request(&mut &[][..]).expect("clean EOF").is_none());
    }
}
