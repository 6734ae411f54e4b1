//! Serving demo: concurrent clients against the embedding engine.
//!
//! Saves a checkpoint, boots an [`nettag::serve::Engine`] from it
//! (shared weight loading), and drives it with eight concurrent client
//! threads embedding the register cones of generated designs — cones
//! repeat across designs, so the structural-hash cache and the dynamic
//! batcher both light up. Finishes with a standalone expression
//! embedding and the engine's serving counters.
//!
//! Run with: `cargo run --release --example serve_demo`

use nettag::core::{save_checkpoint, NetTag, NetTagConfig};
use nettag::netlist::{chunk_into_cones, cone_to_netlist, Netlist};
use nettag::serve::{Engine, ServeConfig};
use nettag::synth::{generate_design, Family, GenerateConfig};
use std::time::Instant;

fn main() {
    // 1. Persist a (here: untrained) model and boot the engine from the
    // checkpoint. `Engine::from_checkpoint` loads through the shared
    // registry, so any number of engines on this path would share one
    // weight buffer.
    println!("== 1. checkpoint -> engine ==");
    let dir = std::env::temp_dir().join("nettag_serve_demo");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt = dir.join("model.ckpt");
    save_checkpoint(&NetTag::new(NetTagConfig::tiny()), &ckpt).expect("save");
    let engine = Engine::from_checkpoint(&ckpt, ServeConfig::default()).expect("load");
    println!("  engine up from {}", ckpt.display());

    // 2. Extract register cones from a few generated designs. Different
    // seeds reuse the same generator templates, so structurally identical
    // cones appear across designs — exactly the redundancy the cache keys
    // on (names differ; the structural digest does not).
    println!("\n== 2. extracting register cones ==");
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
    println!("  {} cones from 4 designs", cones.len());

    // 3. Eight concurrent clients, each embedding every 8th cone. Each
    // lane takes the requests queued on it as one batch, so requests
    // that queue while a batch computes share the next batched ExprLLM
    // pass, and repeated structures are answered from the cache (or
    // deduplicated within their batch).
    println!("\n== 3. serving with 8 concurrent clients ==");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..8 {
            let client = engine.client();
            let cones = &cones;
            s.spawn(move || {
                for cone in cones.iter().skip(w).step_by(8) {
                    let emb = client.embed_cone(cone.clone(), None).expect("embed");
                    assert_eq!(emb.rows, 1);
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    // 4. Standalone expression embedding rides the same batcher.
    let expr_emb = engine
        .client()
        .embed_expr("!((R1 ^ R2) | !R2)")
        .expect("embed expr");
    println!("  expression embedding: 1x{}", expr_emb.cols);

    let stats = engine.stats();
    println!("\n== 4. serving counters ==");
    println!("  requests        {}", stats.requests);
    println!(
        "  batches         {} (mean {:.1}, max {} per batch)",
        stats.batches,
        stats.requests as f64 / stats.batches.max(1) as f64,
        stats.max_batch
    );
    println!(
        "  cache           {} hits / {} misses / {} in-batch dedups",
        stats.cache_hits, stats.cache_misses, stats.dedup_hits
    );
    println!(
        "  resident        {} embeddings",
        engine.cached_embeddings()
    );
    println!(
        "  throughput      {:.0} req/s over {:.2}s",
        (stats.requests - 1) as f64 / wall,
        wall
    );
    engine.shutdown();
    std::fs::remove_file(&ckpt).ok();
    println!("\nengine down — bye");
}
