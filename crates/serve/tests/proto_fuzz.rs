//! Property fuzz over the wire decoders: arbitrary payload bytes and
//! arbitrary truncations of valid frames must come back as `Ok` or a
//! clean `Err` — never a panic, never an unbounded allocation. The
//! server trusts these decoders with hostile sockets, so "malformed
//! frame → typed error → severed connection" is a safety property.
//!
//! One level up, a well-formed frame may carry any gate list at all:
//! served in-process or over a socket, it answers the offline embedding
//! of its validated netlist, or `Invalid` when validation fails — never
//! `Internal`.

use nettag_core::{NetTag, NetTagConfig};
use nettag_netlist::{CellKind, GateId, Library, Netlist, Tag, ALL_CELL_KINDS};
use nettag_serve::proto::{
    read_hello, read_request, read_response, write_request, write_response, Request, RequestBody,
    Response, ResponseBody,
};
use nettag_serve::{Engine, NetClient, NetServer, ServeConfig, ServeError};
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::Arc;

/// Frames an arbitrary payload with a length prefix that matches it, so
/// the decoder gets past the length check and into the body.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

fn valid_request_frame() -> Vec<u8> {
    let mut n = Netlist::new("f");
    let a = n.add_gate("a", CellKind::Input, vec![]);
    let g = n.add_gate("g", CellKind::Inv, vec![a]);
    n.add_gate("y", CellKind::Output, vec![g]);
    let mut buf = Vec::new();
    write_request(
        &mut buf,
        &Request {
            id: 7,
            deadline_ms: 250,
            body: RequestBody::EmbedCone {
                netlist: n,
                phys: None,
            },
        },
    )
    .expect("encode");
    buf
}

fn valid_response_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(
        &mut buf,
        &Response {
            id: 7,
            body: ResponseBody::Embedding(vec![1.0, -2.5, 0.0]),
        },
    )
    .expect("encode");
    buf
}

/// One arbitrary gate: `(kind index, raw pins, arity roll, name roll)`.
type RawGate = (usize, Vec<u32>, u32, u32);

/// Builds a netlist from two inputs and arbitrary gates, without
/// validating it. Most gates take their kind's arity in backward fan-ins;
/// an arity roll of 0 keeps the raw pin list (often the wrong arity), and
/// 1 takes pins anywhere up to one past the last gate (forward references
/// make cycles, the last one dangles). A name roll of 0 repeats the
/// previous gate's name.
fn gate_list(gates: &[RawGate]) -> Netlist {
    let mut n = Netlist::new("arb");
    n.add_gate("g0", CellKind::Input, vec![]);
    n.add_gate("g1", CellKind::Input, vec![]);
    let end = gates.len() as u32 + 3;
    for (k, pins, arity_roll, name_roll) in gates {
        let i = n.gate_count();
        let kind = ALL_CELL_KINDS[*k];
        let pin = |j: usize| pins.get(j).copied().unwrap_or(j as u32);
        let fanin: Vec<GateId> = match arity_roll {
            0 => pins.iter().map(|&p| GateId(p)).collect(),
            1 => (0..kind.arity()).map(|j| GateId(pin(j) % end)).collect(),
            _ => (0..kind.arity())
                .map(|j| GateId(pin(j) % i as u32))
                .collect(),
        };
        let name = format!("g{}", if *name_roll == 0 { i - 1 } else { i });
        n.add_gate(name, kind, fanin);
    }
    n
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn arb_gate_list() -> BoxedStrategy<Vec<RawGate>> {
    let gate = (
        0usize..ALL_CELL_KINDS.len(),
        prop::collection::vec(0u32..20, 0..4),
        0u32..24,
        0u32..64,
    );
    prop::collection::vec(gate, 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn served_gate_lists_answer_offline_bits_or_invalid(gates in arb_gate_list()) {
        let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
        let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
        let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
        let mut remote = NetClient::connect(server.local_addr()).expect("connect");
        let n = gate_list(&gates);
        let local = engine.client().embed_cone(n.clone(), None).map(|e| e.data.clone());
        let wire = remote.embed_cone(&n, None);
        match n.validate() {
            Ok(valid) => {
                let tag = Tag::from_netlist(&valid, &Library::default(), &model.tag_options());
                let offline = bits(&model.embed_tag(&tag).cls.data);
                prop_assert_eq!(bits(&local.expect("a valid netlist serves")), offline.clone());
                prop_assert_eq!(bits(&wire.expect("a valid netlist serves")), offline);
            }
            Err(e) => {
                prop_assert!(matches!(local, Err(ServeError::Invalid(_))), "{e}: {local:?}");
                prop_assert!(matches!(wire, Err(ServeError::Invalid(_))), "{e}: {wire:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_request_payloads_never_panic(payload in prop::collection::vec(0u8..=255, 0..200)) {
        // Whatever comes back, it came back: no panic, no hang, no
        // multi-gigabyte allocation from a hostile count field.
        let _ = read_request(&mut Cursor::new(frame(&payload)));
    }

    #[test]
    fn arbitrary_response_payloads_never_panic(payload in prop::collection::vec(0u8..=255, 0..200)) {
        let _ = read_response(&mut Cursor::new(frame(&payload)));
    }

    #[test]
    fn arbitrary_hello_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..16)) {
        let _ = read_hello(&mut Cursor::new(bytes));
    }

    #[test]
    fn truncated_request_frames_error_cleanly(cut in 0usize..64) {
        let full = valid_request_frame();
        // Any strict prefix is a torn frame: EOF mid-frame must be an
        // error (a peer died mid-send), never a panic or an Ok.
        let cut = cut.min(full.len().saturating_sub(1));
        let got = read_request(&mut Cursor::new(&full[..cut]));
        if cut == 0 {
            // Clean EOF before any byte: an orderly close.
            prop_assert!(matches!(got, Ok(None)), "got {got:?}");
        } else {
            prop_assert!(got.is_err(), "torn frame must error, got {got:?}");
        }
    }

    #[test]
    fn truncated_response_frames_error_cleanly(cut in 0usize..32) {
        let full = valid_response_frame();
        let cut = cut.min(full.len().saturating_sub(1));
        let got = read_response(&mut Cursor::new(&full[..cut]));
        if cut == 0 {
            prop_assert!(matches!(got, Ok(None)), "got {got:?}");
        } else {
            prop_assert!(got.is_err(), "torn frame must error, got {got:?}");
        }
    }

    #[test]
    fn bit_flips_in_valid_frames_never_panic(pos in 0usize..64, bit in 0u8..8) {
        let mut req = valid_request_frame();
        let n = req.len();
        req[pos % n] ^= 1 << bit;
        let _ = read_request(&mut Cursor::new(req));
        let mut resp = valid_response_frame();
        let n = resp.len();
        resp[pos % n] ^= 1 << bit;
        let _ = read_response(&mut Cursor::new(resp));
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating(len in 0u32..=u32::MAX) {
        // A frame that *claims* an enormous length must be rejected by
        // the length check itself — the decoder may not trust the prefix
        // enough to pre-allocate it.
        let mut f = len.to_le_bytes().to_vec();
        f.extend_from_slice(&[0u8; 16]);
        let _ = read_request(&mut Cursor::new(&f));
        let _ = read_response(&mut Cursor::new(&f));
    }
}

#[test]
fn valid_frames_still_roundtrip() {
    // Anchor: the fuzz targets above prove "never panics"; this proves
    // the decoders still accept well-formed frames after all guards.
    let req = read_request(&mut Cursor::new(valid_request_frame()))
        .expect("decode")
        .expect("a frame");
    assert_eq!(req.id, 7);
    assert_eq!(req.deadline_ms, 250);
    let resp = read_response(&mut Cursor::new(valid_response_frame()))
        .expect("decode")
        .expect("a frame");
    assert_eq!(resp.id, 7);
    assert!(matches!(resp.body, ResponseBody::Embedding(v) if v == vec![1.0, -2.5, 0.0]));
}
