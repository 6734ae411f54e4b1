//! Network serving demo: remote clients over the TCP front-end.
//!
//! Boots an [`nettag::serve::Engine`], exposes it on a loopback socket
//! with [`nettag::serve::NetServer`], and drives it three ways:
//!
//! 1. A single [`nettag::serve::NetClient`] verifying the socket answers
//!    with the *same bits* as an in-process client on the same engine.
//! 2. Eight concurrent remote connections pipelining cone bursts — they
//!    coalesce into the same batcher lanes as local callers.
//! 3. A deliberate overload of a tiny bounded queue, showing typed
//!    `Overloaded` load-shedding while accepted work keeps serving.
//!
//! Finishes with a checkpoint hot-swap: the cache generation bumps and
//! remote clients immediately see the new model's embeddings.
//!
//! Run with: `cargo run --release --example serve_net_demo`

use nettag::core::{save_checkpoint, NetTag, NetTagConfig};
use nettag::netlist::{chunk_into_cones, cone_to_netlist, Netlist};
use nettag::serve::{Engine, NetClient, NetServer, ServeConfig, ServeError};
use nettag::synth::{generate_design, Family, GenerateConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // 1. Engine + TCP front-end on an ephemeral loopback port. Remote
    // requests feed the same batcher lanes as in-process clients.
    println!("== 1. engine -> socket ==");
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
    let server = NetServer::bind(engine.client(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    println!(
        "  serving on {addr} ({} lanes, generation {})",
        engine.lane_count(),
        engine.generation()
    );

    // 2. Transport adds no bits: the remote answer equals the in-process
    // answer for the same cone, f32-for-f32.
    println!("\n== 2. socket == in-process, bitwise ==");
    let mut cones: Vec<Netlist> = Vec::new();
    for seed in 0..4 {
        let d = generate_design(Family::OpenCores, seed, 42, &GenerateConfig::default());
        for c in chunk_into_cones(&d.netlist) {
            let sub = cone_to_netlist(&d.netlist, &c);
            if sub.gate_count() >= 2 {
                cones.push(sub);
            }
        }
    }
    println!("  {} register cones from 4 generated designs", cones.len());
    let mut remote = NetClient::connect(addr).expect("connect");
    let over_wire = remote.embed_cone(&cones[0], None).expect("remote embed");
    let in_process = engine
        .client()
        .embed_cone(cones[0].clone(), None)
        .expect("local embed");
    assert_eq!(over_wire, in_process.data);
    println!(
        "  1x{} embedding identical over both paths",
        over_wire.len()
    );

    // 3. Eight remote connections, each pipelining its burst: all frames
    // go out before any response is read, so the lanes batch across
    // connections and answer out of order (request ids pair them up).
    println!("\n== 3. eight remote clients, pipelined ==");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..8 {
            let cones = &cones;
            s.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let burst: Vec<Netlist> = cones.iter().skip(w).step_by(8).cloned().collect();
                for result in client.embed_cones(&burst).expect("pipeline") {
                    result.expect("embed");
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    println!(
        "  {} requests in {:.2}s — {} batches (max {}), {} cache hits",
        stats.requests, wall, stats.batches, stats.max_batch, stats.cache_hits
    );

    // 4. Backpressure crosses the wire. A separate engine with a tiny
    // bounded queue sheds the excess as typed Overloaded errors instead
    // of queueing unboundedly — the connection stays up throughout.
    println!("\n== 4. overload -> typed load shedding ==");
    let small = Engine::new(
        Arc::clone(&model),
        ServeConfig {
            lanes: 1,
            queue_depth: 2,
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    let small_server = NetServer::bind(small.client(), "127.0.0.1:0").expect("bind");
    let mut flooder = NetClient::connect(small_server.local_addr()).expect("connect");
    let results = flooder.embed_cones(&cones).expect("pipeline");
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();
    println!(
        "  {} served, {} shed (engine counted {})",
        results.len() - shed,
        shed,
        small.stats().shed
    );
    small_server.shutdown();
    small.shutdown();

    // 5. Hot-swap: republish new weights under the running engine. The
    // cache generation bumps and stale embeddings lazily evict, so the
    // very next remote request answers with the new model's bits.
    println!("\n== 5. checkpoint hot-swap ==");
    let dir = std::env::temp_dir().join("nettag_serve_net_demo");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt = dir.join("model.ckpt");
    let retrained = NetTag::new(NetTagConfig {
        seed: 0xBEEF,
        ..NetTagConfig::tiny()
    });
    save_checkpoint(&retrained, &ckpt).expect("save");
    engine.swap_checkpoint(&ckpt).expect("swap");
    let after = remote.embed_cone(&cones[0], None).expect("remote embed");
    assert_ne!(after, over_wire, "new weights, new embedding");
    println!(
        "  generation {} — remote client sees the new model immediately",
        engine.generation()
    );

    server.shutdown();
    engine.shutdown();
    std::fs::remove_file(&ckpt).ok();
    println!("\nserver down — bye");
}
