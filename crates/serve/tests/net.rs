//! Socket front-end contract: remote responses are bitwise identical to
//! the in-process/offline API, concurrent remote clients coalesce safely,
//! backpressure crosses the wire as a typed error, and the handshake
//! rejects protocol mismatches.

use nettag_core::{ClassifierHead, FinetuneConfig, NetTag, NetTagConfig};
use nettag_expr::parse_expr;
use nettag_expr::token::tokenize_expr;
use nettag_netlist::{CellKind, GateId, Library, Netlist, Tag};
use nettag_serve::{Engine, NetClient, NetConfig, NetServer, ServeConfig, ServeError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small single-cone netlist; `salt` varies the structure.
fn cone(salt: usize) -> Netlist {
    let mut n = Netlist::new("cone");
    let a = n.add_gate("a", CellKind::Input, vec![]);
    let b = n.add_gate("b", CellKind::Input, vec![]);
    let x = n.add_gate("x", CellKind::Xor2, vec![a, b]);
    let mut prev = x;
    for i in 0..salt % 5 {
        prev = n.add_gate(format!("s{i}"), CellKind::Inv, vec![prev]);
    }
    let g = if salt.is_multiple_of(2) {
        n.add_gate("g", CellKind::Nand2, vec![prev, a])
    } else {
        n.add_gate("g", CellKind::Nor2, vec![prev, b])
    };
    n.add_gate("y", CellKind::Output, vec![g]);
    n.validate().expect("valid")
}

/// A deliberately expensive cone: a long inverter chain fed by an XOR
/// tree, so one forward pass occupies the batcher for a while.
fn big_cone() -> Netlist {
    let mut n = Netlist::new("big");
    let a = n.add_gate("a", CellKind::Input, vec![]);
    let b = n.add_gate("b", CellKind::Input, vec![]);
    let mut prev = n.add_gate("x", CellKind::Xor2, vec![a, b]);
    for i in 0..400 {
        prev = n.add_gate(format!("c{i}"), CellKind::Inv, vec![prev]);
    }
    n.add_gate("y", CellKind::Output, vec![prev]);
    n.validate().expect("valid")
}

fn offline_cls(model: &NetTag, n: &Netlist) -> Vec<f32> {
    let lib = Library::default();
    let tag = Tag::from_netlist(n, &lib, &model.tag_options());
    model.embed_tag(&tag).cls.data
}

fn tiny_server() -> (Arc<NetTag>, Engine, NetServer) {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    (model, engine, server)
}

#[test]
fn remote_embeddings_match_offline_bitwise() {
    let (model, _engine, server) = tiny_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for i in 0..4 {
        let n = cone(i);
        let served = client.embed_cone(&n, None).expect("embed over socket");
        assert_eq!(
            served,
            offline_cls(&model, &n),
            "socket transport must not perturb a single bit"
        );
    }
    let served = client.embed_expr("!((R1 ^ R2) | !R2)").expect("expr");
    let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
    let toks = tokenize_expr(NetTag::vocab(), &e, model.config.max_tokens);
    assert_eq!(served, model.exprllm.encode(&toks).data);
}

/// `y = !((a & b) & (a | b))`; with `reorder`, the inputs and the two
/// middle gates are declared in the other order.
fn reorderable_cone(reorder: bool) -> Netlist {
    let mut n = Netlist::new("c");
    let (a, b) = if reorder {
        let b = n.add_gate("b", CellKind::Input, vec![]);
        (n.add_gate("a", CellKind::Input, vec![]), b)
    } else {
        let a = n.add_gate("a", CellKind::Input, vec![]);
        (a, n.add_gate("b", CellKind::Input, vec![]))
    };
    let (and, or) = if reorder {
        let or = n.add_gate("g2", CellKind::Or2, vec![a, b]);
        (n.add_gate("g1", CellKind::And2, vec![a, b]), or)
    } else {
        let and = n.add_gate("g1", CellKind::And2, vec![a, b]);
        (and, n.add_gate("g2", CellKind::Or2, vec![a, b]))
    };
    let m = n.add_gate("m", CellKind::Nand2, vec![and, or]);
    n.add_gate("y", CellKind::Output, vec![m]);
    n.validate().expect("valid")
}

#[test]
fn a_reordered_twin_gets_its_own_offline_bits_over_the_wire() {
    let (model, engine, server) = tiny_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for reorder in [false, true] {
        let n = reorderable_cone(reorder);
        let served = client.embed_cone(&n, None).expect("embed over socket");
        assert_eq!(served, offline_cls(&model, &n), "{reorder}");
    }
    assert_eq!(engine.stats().cache_misses, 2);
}

#[test]
fn remote_predict_routes_through_the_head() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let feats: Vec<Vec<f32>> = (0..4).map(|i| offline_cls(&model, &cone(i))).collect();
    let head = ClassifierHead::train(
        &feats,
        &[0, 1, 0, 1],
        2,
        &FinetuneConfig {
            epochs: 30,
            ..FinetuneConfig::default()
        },
    );
    let engine = Engine::with_classifier(Arc::clone(&model), head.clone(), ServeConfig::default());
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for i in 0..4 {
        let served = client.predict(&cone(i), None).expect("predict");
        let reference = head.predict(&[offline_cls(&model, &cone(i))])[0];
        assert_eq!(served, reference);
    }
}

#[test]
fn predict_without_head_answers_typed_error_over_the_wire() {
    let (_model, _engine, server) = tiny_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let err = client.predict(&cone(0), None).expect_err("no head");
    assert!(matches!(err, ServeError::NoClassifier), "got {err:?}");
    // The connection survives a per-request error.
    assert!(client.embed_cone(&cone(0), None).is_ok());
}

#[test]
fn eight_concurrent_remote_clients_are_bitwise_identical() {
    let (model, engine, server) = tiny_server();
    let addr = server.local_addr();
    let references: Vec<Vec<f32>> = (0..6).map(|i| offline_cls(&model, &cone(i))).collect();
    let refs = Arc::new(references);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let refs = Arc::clone(&refs);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                // Pipeline the whole burst so the server's lanes see the
                // requests together and may answer out of order.
                let cones: Vec<Netlist> = (0..6).map(|i| cone((i + t) % 6)).collect();
                let got = client.embed_cones(&cones).expect("pipeline");
                for (i, result) in got.into_iter().enumerate() {
                    let served = result.expect("embed");
                    assert_eq!(served, refs[(i + t) % 6], "client {t} request {i}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = engine.stats();
    assert_eq!(stats.requests, 48);
    assert!(
        stats.cache_misses <= 6,
        "six distinct structures must compute at most six forward passes, got {}",
        stats.cache_misses
    );
}

#[test]
fn pipelined_bursts_answer_without_waiting_on_a_timer() {
    // A lane batches whatever is queued when it is free and never waits
    // for more, so a pipelined burst and a lone request both answer in
    // compute time.
    let (model, engine, server) = tiny_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let burst: Vec<Netlist> = (0..32).map(cone).collect();
    let start = Instant::now();
    let replies = client.embed_cones(&burst).expect("pipeline");
    let burst_time = start.elapsed();
    for (n, reply) in burst.iter().zip(replies) {
        assert_eq!(reply.expect("embeds"), offline_cls(&model, n));
    }
    // A structure the burst did not have, so it computes.
    let single = big_cone();
    let start = Instant::now();
    let served = client.embed_cone(&single, None).expect("embed");
    let single_time = start.elapsed();
    assert_eq!(served, offline_cls(&model, &single));
    assert!(
        burst_time < Duration::from_millis(200) && single_time < Duration::from_millis(200),
        "batches must not wait for more requests: burst {burst_time:?}, single {single_time:?}"
    );
    let stats = engine.stats();
    assert_eq!(stats.requests, 33);
    assert!(stats.batches <= stats.requests, "{stats:?}");
    assert_eq!(stats.shed, 0);
}

#[test]
fn invalid_requests_answer_per_frame_and_the_connection_survives() {
    let (model, _engine, server) = tiny_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    // Unparsable expression: request-level Invalid.
    let err = client.embed_expr("((").expect_err("must fail");
    assert!(matches!(err, ServeError::Invalid(_)), "got {err:?}");
    // A netlist that fails validation (dangling fanin) travels the wire
    // fine and is rejected by the server per-frame, not per-connection.
    let mut bad = Netlist::new("bad");
    bad.add_gate("g", CellKind::Inv, vec![GateId(99)]);
    let err = client.embed_cone(&bad, None).expect_err("must fail");
    assert!(matches!(err, ServeError::Invalid(_)), "got {err:?}");
    // Same connection still serves.
    let n = cone(2);
    let served = client.embed_cone(&n, None).expect("still serving");
    assert_eq!(served, offline_cls(&model, &n));
}

#[test]
fn overload_sheds_remote_requests_with_typed_error_and_keeps_serving() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(
        Arc::clone(&model),
        ServeConfig {
            lanes: 1,
            queue_depth: 1,
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Occupy the single lane with an expensive cone, give the batcher a
    // moment to claim it, then flood: with the batcher busy and the queue
    // bounded at one, most of the burst must shed promptly.
    let blocker = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect");
        client.embed_cone(&big_cone(), None).expect("blocker")
    });
    std::thread::sleep(Duration::from_millis(50));

    let mut client = NetClient::connect(addr).expect("connect");
    let flood: Vec<Netlist> = (0..8).map(cone).collect();
    let results = client.embed_cones(&flood).expect("pipeline");
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();
    assert!(shed >= 1, "a bounded queue under flood must shed load");
    assert!(engine.stats().shed >= shed as u64);

    let blocked = blocker.join().expect("blocker thread");
    assert_eq!(blocked, offline_cls(&model, &big_cone()));
    // The engine kept serving the load it accepted and serves new load.
    let n = cone(1);
    let served = client.embed_cone(&n, None).expect("post-flood");
    assert_eq!(served, offline_cls(&model, &n));
}

#[test]
fn ping_healthchecks_even_a_saturated_server() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(
        Arc::clone(&model),
        ServeConfig {
            lanes: 1,
            queue_depth: 1,
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    // Occupy the single lane, then ping from a second connection: the
    // pong is answered by the connection reader, not a lane, so it must
    // come back promptly even though embedding work is queued behind the
    // blocker.
    let blocker = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect");
        client.embed_cone(&big_cone(), None).expect("blocker")
    });
    std::thread::sleep(Duration::from_millis(50));
    let mut client = NetClient::connect(addr).expect("connect");
    let start = std::time::Instant::now();
    let generation = client.ping().expect("pong");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "ping must not wait behind lane work"
    );
    assert_eq!(generation, engine.generation());
    blocker.join().expect("blocker thread");
}

#[test]
fn idle_reaper_severs_quiet_connections_but_not_active_ones() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
    let server = NetServer::bind_with(
        engine.client(),
        "127.0.0.1:0",
        NetConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            sweep_interval: Duration::from_millis(25),
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let mut quiet = NetClient::connect(server.local_addr()).expect("connect");
    assert!(quiet.embed_cone(&cone(0), None).is_ok());
    // A connection that keeps talking stays up well past the idle bound…
    let mut chatty = NetClient::connect(server.local_addr()).expect("connect");
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(60));
        assert!(chatty.ping().is_ok(), "active connection must survive");
    }
    // …while the quiet one has been severed by the reaper.
    let err = quiet.embed_cone(&cone(0), None).expect_err("reaped");
    assert!(matches!(err, ServeError::Transport(_)), "got {err:?}");
    // Fresh connections still serve.
    let mut fresh = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        fresh.embed_cone(&cone(1), None).expect("serve"),
        offline_cls(&model, &cone(1))
    );
}

#[test]
fn handshake_rejects_version_mismatch() {
    let (_model, _engine, server) = tiny_server();
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    // Wrong magic: the server closes the connection without serving.
    raw.write_all(b"XXXX\x01\x00\x00\x00").expect("write");
    raw.flush().expect("flush");
    let mut sink = Vec::new();
    // The server sends its own hello eagerly; after that the stream must
    // reach EOF instead of serving frames.
    raw.set_read_timeout(Some(Duration::from_secs(10))).ok();
    raw.read_to_end(&mut sink).expect("EOF, not a hang");
    assert!(sink.len() <= 8, "only the server hello may arrive");
}

#[test]
fn server_shutdown_severs_connections_and_is_idempotent() {
    let (_model, engine, server) = tiny_server();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    assert!(client.embed_cone(&cone(0), None).is_ok());
    server.shutdown();
    server.shutdown();
    let err = client.embed_cone(&cone(0), None).expect_err("severed");
    assert!(matches!(err, ServeError::Transport(_)), "got {err:?}");
    // Fresh connections are refused or severed, never served.
    assert!(NetClient::connect(server.local_addr()).is_err());
    // The engine itself is untouched by the front-end's shutdown.
    assert!(engine.client().embed_cone(cone(1), None).is_ok());
}
