//! Serving-engine contract: batched/cached/concurrent responses are
//! bitwise identical to the offline embedding API, the cache keys on
//! structure (not names), and lifecycle/error paths behave.

use nettag_core::{
    cone_geometry, fuse_geometry, save_checkpoint, ClassifierHead, FinetuneConfig, NetTag,
    NetTagConfig, GEOM_DIM,
};
use nettag_expr::parse_expr;
use nettag_expr::token::tokenize_expr;
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, synthesis_phys_estimates, CellKind, Library, Netlist,
    PhysProps, Tag,
};
use nettag_nn::Tensor;
use nettag_serve::{Engine, ServeConfig, ServeError};
use std::sync::Arc;
use std::time::Duration;

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

/// The offline reference: what `NetTag::embed_tag` computes for the same
/// netlist with synthesis-estimated physical attributes.
fn offline_cls(model: &NetTag, n: &Netlist) -> Vec<f32> {
    let lib = Library::default();
    let tag = Tag::from_netlist(n, &lib, &model.tag_options());
    model.embed_tag(&tag).cls.data
}

fn tiny_engine() -> (Arc<NetTag>, Engine) {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
    (model, engine)
}

#[test]
fn served_embedding_matches_offline_embed_tag_bitwise() {
    let (model, engine) = tiny_engine();
    let n = cone(3);
    let served = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(served.data, offline_cls(&model, &n));
}

#[test]
fn unvalidated_netlists_embed_like_their_validated_copies() {
    // Built gate by gate and never validated; `a` fans out twice, so the
    // phys estimates depend on the fan-out table.
    let mut raw = Netlist::new("raw");
    let a = raw.add_gate("a", CellKind::Input, vec![]);
    let b = raw.add_gate("b", CellKind::Input, vec![]);
    let x = raw.add_gate("x", CellKind::Nand2, vec![a, b]);
    let g = raw.add_gate("g", CellKind::Nor2, vec![x, a]);
    raw.add_gate("y", CellKind::Output, vec![g]);
    let valid = raw.clone().validate().expect("well-formed");
    let (model, engine) = tiny_engine();
    let lib = Library::default();
    let offline = model.embed_circuit(&valid, &lib, None).data;
    assert_eq!(offline, offline_cls(&model, &valid));
    assert_eq!(model.embed_circuit(&raw, &lib, None).data, offline);
    let served = engine.client().embed_cone(raw, None).expect("serve");
    assert_eq!(served.data, offline);
}

#[test]
fn identical_requests_hit_the_cache_and_share_one_buffer() {
    let (_model, engine) = tiny_engine();
    let client = engine.client();
    let first = client.embed_cone(cone(2), None).expect("first");
    let second = client.embed_cone(cone(2), None).expect("second");
    assert!(
        Arc::ptr_eq(&first, &second),
        "a cache hit returns the buffer the miss computed"
    );
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(engine.cached_embeddings(), 1);
}

#[test]
fn cache_keys_on_structure_not_names() {
    let (model, engine) = tiny_engine();
    let client = engine.client();
    let a = cone(1);
    // Same structure, every gate renamed, to names the expression parser
    // rejects (`1g1`, `g.2`) or reads as the constant 1. The hit is only
    // right if the renamed cone embeds exactly like `a`.
    let mut b = Netlist::new("other_name");
    for (i, (_, g)) in a.iter().enumerate() {
        let name = match i {
            0 => "1".to_string(),
            i if i % 2 == 1 => format!("1g{i}"),
            i => format!("g.{i}"),
        };
        b.add_gate(name, g.kind, g.fanin.clone());
    }
    let b = b.validate().expect("valid");
    let ea = client.embed_cone(a, None).expect("a");
    let eb = client.embed_cone(b.clone(), None).expect("b");
    assert!(Arc::ptr_eq(&ea, &eb), "renamed cone must hit the cache");
    assert_eq!(engine.stats().cache_misses, 1);
    assert_eq!(eb.data, offline_cls(&model, &b));
}

#[test]
fn phys_attributes_split_the_cache() {
    let (_model, engine) = tiny_engine();
    let client = engine.client();
    let n = cone(4);
    let mut custom = synthesis_phys_estimates(&n, &Library::default());
    custom[2].delay += 1.0;
    let ea = client.embed_cone(n.clone(), None).expect("estimates");
    let eb = client.embed_cone(n, Some(custom)).expect("custom");
    assert_ne!(
        ea.data, eb.data,
        "different physical attributes must not alias in the cache"
    );
    assert_eq!(engine.stats().cache_misses, 2);
}

#[test]
fn concurrent_clients_coalesce_and_match_reference() {
    let (model, engine) = tiny_engine();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let client = engine.client();
            std::thread::spawn(move || (i, client.embed_cone(cone(i), None).expect("serve")))
        })
        .collect();
    for h in handles {
        let (i, served) = h.join().expect("no panics");
        assert_eq!(
            served.data,
            offline_cls(&model, &cone(i)),
            "response for cone {i} must be independent of batch composition"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.requests, 8);
    assert!(stats.batches <= 8);
}

#[test]
fn identical_concurrent_requests_compute_once() {
    // Equal structures share a lane, so the four requests either meet in
    // one batch (dedup) or follow one another (cache hits).
    let (_model, engine) = tiny_engine();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let client = engine.client();
            std::thread::spawn(move || client.embed_cone(cone(0), None).expect("serve"))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("ok")).collect();
    for r in &results[1..] {
        assert_eq!(r.data, results[0].data);
    }
    let stats = engine.stats();
    assert_eq!(
        stats.cache_misses, 1,
        "one structure computes one forward pass"
    );
    assert_eq!(stats.cache_hits + stats.dedup_hits, 3);
}

#[test]
fn expr_requests_match_exprllm_encode_bitwise() {
    let (model, engine) = tiny_engine();
    let served = engine
        .client()
        .embed_expr("!((R1 ^ R2) | !R2)")
        .expect("serve");
    let vocab = NetTag::vocab();
    let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
    let toks = tokenize_expr(vocab, &e, model.config.max_tokens);
    assert_eq!(served.data, model.exprllm.encode(&toks).data);
}

#[test]
fn malformed_requests_report_invalid() {
    let (_model, engine) = tiny_engine();
    let client = engine.client();
    let err = client.embed_expr("((").expect_err("must fail");
    assert!(matches!(err, ServeError::Invalid(_)), "got: {err}");
    let bad_phys = vec![PhysProps::default(); 2];
    let err = client
        .embed_cone(cone(0), Some(bad_phys))
        .expect_err("must fail");
    assert!(matches!(err, ServeError::Invalid(_)), "got: {err}");
    // Failures must not poison the batch for later requests.
    assert!(client.embed_cone(cone(0), None).is_ok());
}

#[test]
fn predict_requires_and_routes_through_the_head() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let headless = Engine::new(Arc::clone(&model), ServeConfig::default());
    let err = headless
        .client()
        .predict(cone(0), None)
        .expect_err("no head configured");
    assert!(matches!(err, ServeError::NoClassifier));

    // Train a tiny head on the embeddings the engine will produce.
    let feats: Vec<Vec<f32>> = (0..4).map(|i| offline_cls(&model, &cone(i))).collect();
    let labels = vec![0, 1, 0, 1];
    let head = ClassifierHead::train(
        &feats,
        &labels,
        2,
        &FinetuneConfig {
            epochs: 3,
            ..FinetuneConfig::default()
        },
    );
    let engine = Engine::with_classifier(Arc::clone(&model), head.clone(), ServeConfig::default());
    let client = engine.client();
    for i in 0..4 {
        let served = client.predict(cone(i), None).expect("predict");
        let reference = head.predict(&[offline_cls(&model, &cone(i))])[0];
        assert_eq!(served, reference, "cone {i}");
    }
}

#[test]
fn cache_capacity_bounds_resident_embeddings() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(
        model,
        ServeConfig {
            cache_capacity: 8,
            ..ServeConfig::default()
        },
    );
    let client = engine.client();
    for i in 0..10 {
        // Distinct structures: vary chain depth and final gate kind.
        client.embed_cone(cone(i), None).expect("serve");
    }
    assert!(
        engine.cached_embeddings() <= 8,
        "cache must stay within capacity, holds {}",
        engine.cached_embeddings()
    );
}

#[test]
fn shutdown_closes_clients_and_is_idempotent() {
    let (_model, engine) = tiny_engine();
    let client = engine.client();
    assert!(client.embed_cone(cone(0), None).is_ok());
    engine.shutdown();
    engine.shutdown();
    let err = client.embed_cone(cone(0), None).expect_err("closed");
    assert!(matches!(err, ServeError::Closed));
    let late = engine.client();
    assert!(matches!(
        late.embed_expr("a & b").expect_err("closed"),
        ServeError::Closed
    ));
}

#[test]
fn from_checkpoint_serves_the_saved_weights() {
    let model = NetTag::new(NetTagConfig::tiny());
    let dir = std::env::temp_dir().join("nettag_serve_it");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("ckpt.json");
    save_checkpoint(&model, &path).expect("save");
    let engine = Engine::from_checkpoint(&path, ServeConfig::default()).expect("load");
    let n = cone(1);
    let served = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(served.data, offline_cls(&model, &n));
    let missing = Engine::from_checkpoint(dir.join("absent.json"), ServeConfig::default());
    assert!(matches!(missing, Err(ServeError::Checkpoint(_))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn register_cones_of_a_sequential_design_serve_and_cache() {
    let (model, engine) = tiny_engine();
    let client = engine.client();
    // A sequential design with two register cones sharing structure.
    let mut n = Netlist::new("seq");
    let a = n.add_gate("a", CellKind::Input, vec![]);
    let b = n.add_gate("b", CellKind::Input, vec![]);
    let x1 = n.add_gate("x1", CellKind::Xor2, vec![a, b]);
    let x2 = n.add_gate("x2", CellKind::Xor2, vec![b, a]);
    let _r1 = n.add_gate("r1", CellKind::Dff, vec![x1]);
    let r2 = n.add_gate("r2", CellKind::Dff, vec![x2]);
    n.add_gate("y", CellKind::Output, vec![r2]);
    let n = n.validate().expect("valid");
    for c in chunk_into_cones(&n) {
        let sub = cone_to_netlist(&n, &c);
        let served = client.embed_cone(sub.clone(), None).expect("serve");
        assert_eq!(served.data, offline_cls(&model, &sub));
    }
}

/// A second model with different weights: same architecture, new seed.
fn other_model() -> Arc<NetTag> {
    let cfg = NetTagConfig {
        seed: 0xBEEF,
        ..NetTagConfig::tiny()
    };
    Arc::new(NetTag::new(cfg))
}

#[test]
fn hot_swap_bumps_generation_and_evicts_stale_embeddings() {
    let (model_a, engine) = tiny_engine();
    let client = engine.client();
    let n = cone(3);
    let before = client.embed_cone(n.clone(), None).expect("serve");
    assert_eq!(before.data, offline_cls(&model_a, &n));
    assert_eq!(engine.generation(), 0);
    assert_eq!(engine.cached_embeddings(), 1);

    let model_b = other_model();
    engine.swap_model(Arc::clone(&model_b));
    assert_eq!(engine.generation(), 1);

    // The same cone must now recompute under the new weights — a stale
    // cache hit would hand back model A's embedding bitwise.
    let after = client.embed_cone(n.clone(), None).expect("serve");
    assert_eq!(
        after.data,
        offline_cls(&model_b, &n),
        "post-swap response must be the new model's embedding, bitwise"
    );
    assert_ne!(after.data, before.data, "seeds differ, embeddings must too");
    let stats = engine.stats();
    assert_eq!(
        stats.cache_misses, 2,
        "the stale entry must miss and recompute, not hit"
    );
    // The recomputed embedding is cached under the new generation.
    let again = client.embed_cone(n, None).expect("serve");
    assert!(Arc::ptr_eq(&again, &after));
}

#[test]
fn swap_checkpoint_rereads_the_file_even_at_the_same_path() {
    let dir = std::env::temp_dir().join("nettag_serve_swap_it");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("ckpt.json");

    let model_a = NetTag::new(NetTagConfig::tiny());
    save_checkpoint(&model_a, &path).expect("save A");
    let engine = Engine::from_checkpoint(&path, ServeConfig::default()).expect("load");
    let n = cone(2);
    let before = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(before.data, offline_cls(&model_a, &n));

    // Overwrite the checkpoint in place — the dedup registry must not
    // hand back the stale in-memory weights.
    let model_b = NetTag::new(NetTagConfig {
        seed: 0xBEEF,
        ..NetTagConfig::tiny()
    });
    save_checkpoint(&model_b, &path).expect("save B");
    engine.swap_checkpoint(&path).expect("swap");
    assert_eq!(engine.generation(), 1);

    let after = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(after.data, offline_cls(&model_b, &n));

    // A failed swap leaves the engine on its current weights.
    let err = engine.swap_checkpoint(dir.join("absent.json"));
    assert!(matches!(err, Err(ServeError::Checkpoint(_))));
    assert_eq!(engine.generation(), 1);
    let still = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(still.data, offline_cls(&model_b, &n));
    std::fs::remove_file(&path).ok();
}

#[test]
fn hot_swap_with_concurrent_clients_serves_one_model_or_the_other() {
    let (model_a, engine) = tiny_engine();
    let model_b = other_model();
    // Every in-flight response must be bitwise one model's embedding —
    // never a stale cache entry served across the swap boundary.
    let refs: Vec<(Vec<f32>, Vec<f32>)> = (0..4)
        .map(|i| {
            (
                offline_cls(&model_a, &cone(i)),
                offline_cls(&model_b, &cone(i)),
            )
        })
        .collect();
    let refs = Arc::new(refs);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let client = engine.client();
            let refs = Arc::clone(&refs);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = client.embed_cone(cone(i % 4), None).expect("serve");
                    let (ref a, ref b) = refs[i % 4];
                    assert!(
                        got.data == *a || got.data == *b,
                        "response must be model A's or model B's bits, nothing else"
                    );
                    i += 1;
                }
            })
        })
        .collect();
    for k in 0..6 {
        std::thread::sleep(Duration::from_millis(10));
        if k % 2 == 0 {
            engine.swap_model(Arc::clone(&model_b));
        } else {
            engine.swap_model(Arc::clone(&model_a));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(engine.generation(), 6);
    // Quiesced: a fresh request must serve the final model bitwise.
    let n = cone(0);
    let last = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(last.data, offline_cls(&model_a, &n));
}

/// The cone's deterministic geometry, as the engine extracts it.
fn geometry(n: &Netlist) -> Tensor {
    let lib = Library::default();
    cone_geometry(n, &synthesis_phys_estimates(n, &lib), &lib).1
}

/// The offline reference for the fused path: plain `[CLS]` embedding
/// fused with the deterministic geometry of the same cone.
fn offline_fused(model: &NetTag, n: &Netlist) -> Vec<f32> {
    let lib = Library::default();
    let cls = model
        .embed_tag(&Tag::from_netlist(n, &lib, &model.tag_options()))
        .cls;
    fuse_geometry(&cls, &geometry(n)).data
}

/// Pins the late-fusion layout of a served fused row: `embed_dim +
/// GEOM_DIM` wide, the plain `[CLS]` reply bitwise, then the column
/// means of the cone's geometry.
fn assert_fused_layout(fused: &[f32], plain: &[f32], n: &Netlist) {
    let d = plain.len();
    assert_eq!(
        fused.len(),
        d + GEOM_DIM,
        "fused width is embed_dim + GEOM_DIM"
    );
    assert_eq!(fused[..d], plain[..], "fused head is the plain [CLS] row");
    let geom = geometry(n);
    let means: Vec<f32> = (0..GEOM_DIM)
        .map(|c| (0..geom.rows).map(|r| geom.at(r, c)).sum::<f32>() / geom.rows as f32)
        .collect();
    assert_eq!(fused[d..], means[..], "fused tail is the mean geometry");
}

#[test]
fn served_fused_embedding_matches_in_process_fusion_bitwise() {
    let (model, engine) = tiny_engine();
    let client = engine.client();
    for i in 0..4 {
        let n = cone(i);
        let served = client.embed_cone_fused(n.clone(), None).expect("serve");
        assert_eq!(
            served.data,
            offline_fused(&model, &n),
            "served fused embedding for cone {i} must match the in-process path bitwise"
        );
        let plain = client.embed_cone(n.clone(), None).expect("plain");
        assert_eq!(plain.cols, model.config.embed_dim);
        assert_fused_layout(&served.data, &plain.data, &n);
    }
}

#[test]
fn fused_requests_cache_and_never_alias_plain_embeddings() {
    let (_model, engine) = tiny_engine();
    let client = engine.client();
    let n = cone(3);
    // First fused request: a miss that computes (and caches) both the
    // plain `[CLS]` entry and the salted fused entry.
    let fused = client.embed_cone_fused(n.clone(), None).expect("fused");
    assert_eq!(engine.stats().cache_misses, 1);
    assert_eq!(engine.cached_embeddings(), 2);
    // The plain embedding for the same structure is now a cache hit —
    // the fused pass shared its `[CLS]` compute — and the fused entry
    // extends it rather than aliasing it.
    let plain = client.embed_cone(n.clone(), None).expect("plain");
    assert_eq!(engine.stats().cache_hits, 1);
    assert_fused_layout(&fused.data, &plain.data, &n);
    // A repeat fused request hits the salted entry and shares the buffer.
    let again = client.embed_cone_fused(n, None).expect("fused again");
    assert!(
        Arc::ptr_eq(&fused, &again),
        "fused repeat must hit the cache"
    );
    assert_eq!(engine.stats().cache_hits, 2);
    assert_eq!(engine.stats().cache_misses, 1);
}

#[test]
fn fused_requests_reuse_a_cached_plain_cls() {
    let (model, engine) = tiny_engine();
    let client = engine.client();
    let n = cone(2);
    // Seed the cache with the plain embedding, then ask for the fusion:
    // the `[CLS]` pass must come from the cache, not recompute.
    let _ = client.embed_cone(n.clone(), None).expect("plain");
    let served = client.embed_cone_fused(n.clone(), None).expect("fused");
    assert_eq!(served.data, offline_fused(&model, &n));
}

#[test]
fn overload_sheds_in_process_requests_and_keeps_serving() {
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
    assert_eq!(engine.lane_count(), 1);

    // Occupy the single lane with an expensive cone, give the batcher a
    // moment to claim it, then flood from eight threads: with the
    // batcher busy and the queue bounded at one, most must shed.
    let mut big = Netlist::new("big");
    let a = big.add_gate("a", CellKind::Input, vec![]);
    let b = big.add_gate("b", CellKind::Input, vec![]);
    let mut prev = big.add_gate("x", CellKind::Xor2, vec![a, b]);
    for i in 0..400 {
        prev = big.add_gate(format!("c{i}"), CellKind::Inv, vec![prev]);
    }
    big.add_gate("y", CellKind::Output, vec![prev]);
    let big = big.validate().expect("valid");
    let blocker = {
        let client = engine.client();
        let big = big.clone();
        std::thread::spawn(move || client.embed_cone(big, None).expect("blocker"))
    };
    std::thread::sleep(Duration::from_millis(50));

    let flood: Vec<_> = (0..8)
        .map(|i| {
            let client = engine.client();
            std::thread::spawn(move || client.embed_cone(cone(i), None))
        })
        .collect();
    let outcomes: Vec<_> = flood.into_iter().map(|h| h.join().expect("join")).collect();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();
    let served = outcomes.iter().filter(|r| r.is_ok()).count();
    assert!(shed >= 1, "a bounded queue under flood must shed load");
    assert_eq!(
        shed + served,
        8,
        "every request answers promptly: served or typed Overloaded, got {outcomes:?}"
    );
    assert_eq!(engine.stats().shed, shed as u64);

    let blocked = blocker.join().expect("blocker thread");
    assert_eq!(blocked.data, offline_cls(&model, &big));
    // The engine keeps serving new load after the flood.
    let n = cone(1);
    let after = engine.client().embed_cone(n.clone(), None).expect("serve");
    assert_eq!(after.data, offline_cls(&model, &n));
}
