//! The served model carries its own gate-text cache: a text is encoded
//! once, later batches reuse its row bit for bit, and a hot swap serves
//! the new model's rows, so no row of the old weights is ever served.

use nettag_core::{NetTag, NetTagConfig};
use nettag_expr::parse_expr;
use nettag_expr::token::{tokenize_expr, TokenId};
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, structural_hash_with_phys, synthesis_phys_estimates,
    Library, Netlist, PhysProps, Tag,
};
use nettag_serve::{Engine, ServeConfig};
use nettag_synth::{generate_design, Family, GenerateConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// Register cones of one generated design, each with its synthesis
/// estimates.
fn cones() -> Vec<(Netlist, Vec<PhysProps>)> {
    let lib = Library::default();
    let gen = GenerateConfig {
        scale: 0.3,
        ..GenerateConfig::default()
    };
    let d = generate_design(Family::OpenCores, 0, 7, &gen);
    chunk_into_cones(&d.netlist)
        .iter()
        .map(|cone| cone_to_netlist(&d.netlist, cone))
        .filter(|sub| (3..=80).contains(&sub.gate_count()))
        .take(6)
        .map(|sub| {
            let props = synthesis_phys_estimates(&sub, &lib);
            (sub, props)
        })
        .collect()
}

/// The same cone with every physical value one ULP up: a different digest
/// (the cone cache misses), yet every value stays in its token bucket, so
/// its gate texts are the original's (checked by the callers).
fn nudged(props: &[PhysProps]) -> Vec<PhysProps> {
    let up = |v: f64| f64::from_bits(v.to_bits() + 1);
    props
        .iter()
        .map(|p| PhysProps {
            delay: up(p.delay),
            load: up(p.load),
            ..*p
        })
        .collect()
}

fn tag(model: &NetTag, n: &Netlist, props: &[PhysProps]) -> Tag {
    Tag::from_netlist_with_phys(n, props, &model.tag_options())
}

/// `[CLS]` of `tag` on a clone of `model`: its cache starts empty, so the
/// reference takes the cold path and leaves `model`'s rows alone.
fn cold_cls(model: &NetTag, tag: &Tag) -> Vec<f32> {
    model.clone().embed_tag(tag).cls.data
}

fn texts(model: &NetTag, tag: &Tag) -> HashSet<Vec<TokenId>> {
    let vocab = NetTag::vocab();
    (0..tag.len())
        .map(|i| tag.node_tokens(vocab, i, model.config.max_tokens, false))
        .collect()
}

#[test]
fn later_batches_reuse_text_rows_bitwise_and_encode_nothing_new() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
    let client = engine.client();
    let text = model.exprllm.text_cache();
    let cones = cones();
    assert!(cones.len() >= 3);

    let mut seen = HashSet::new();
    for (n, props) in &cones {
        let served = client
            .embed_cone(n.clone(), Some(props.clone()))
            .expect("serve");
        let t = tag(&model, n, props);
        assert_eq!(served.data, cold_cls(&model, &t));
        seen.extend(texts(&model, &t));
    }
    assert_eq!(text.encoded(), seen.len() as u64, "each distinct text once");
    assert_eq!(text.len(), seen.len());

    // New digests over the same gate texts: every cone computes again,
    // and not one row is encoded.
    let misses = engine.stats().cache_misses;
    for (n, props) in &cones {
        let nudged = nudged(props);
        assert_ne!(
            structural_hash_with_phys(n, &nudged),
            structural_hash_with_phys(n, props)
        );
        let t = tag(&model, n, &nudged);
        assert!(texts(&model, &t).is_subset(&seen), "nudge kept every text");
        let served = client.embed_cone(n.clone(), Some(nudged)).expect("serve");
        assert_eq!(served.data, cold_cls(&model, &t));
    }
    assert_eq!(engine.stats().cache_misses - misses, cones.len() as u64);
    assert_eq!(
        text.encoded(),
        seen.len() as u64,
        "the second pass encodes 0 rows"
    );
}

#[test]
fn a_hot_swap_never_serves_rows_of_the_old_weights() {
    let model_a = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let model_b = Arc::new(NetTag::new(NetTagConfig {
        seed: 0xBEEF,
        ..NetTagConfig::tiny()
    }));
    let engine = Engine::new(Arc::clone(&model_a), ServeConfig::default());
    let client = engine.client();
    let (n, props) = cones().swap_remove(0);
    let a = client
        .embed_cone(n.clone(), Some(props.clone()))
        .expect("serve A");
    assert_eq!(a.data, cold_cls(&model_a, &tag(&model_a, &n, &props)));
    let old = model_a.exprllm.text_cache();
    assert!(!old.is_empty());
    let old_encoded = old.encoded();

    engine.swap_model(Arc::clone(&model_b));
    let new = model_b.exprllm.text_cache();
    assert!(new.is_empty());

    // Cone B: a new digest over cone A's gate texts.
    let nudged = nudged(&props);
    let t = tag(&model_b, &n, &nudged);
    assert_eq!(
        texts(&model_b, &t),
        texts(&model_a, &tag(&model_a, &n, &props))
    );
    let b = client
        .embed_cone(n.clone(), Some(nudged.clone()))
        .expect("serve B");
    assert_eq!(
        b.data,
        cold_cls(&model_b, &t),
        "cone B must be model B's embedding, bitwise"
    );
    assert_ne!(
        b.data,
        cold_cls(&model_a, &tag(&model_a, &n, &nudged)),
        "a stale text row would have produced model A's embedding"
    );
    assert_eq!(new.encoded(), texts(&model_b, &t).len() as u64);
    assert_eq!(
        (old.encoded(), old.len() as u64),
        (old_encoded, old_encoded),
        "the old cache saw no more rows"
    );
}

#[test]
fn expression_requests_share_the_text_cache() {
    let model = Arc::new(NetTag::new(NetTagConfig::tiny()));
    let engine = Engine::new(Arc::clone(&model), ServeConfig::default());
    let client = engine.client();
    let src = "!((R1 ^ R2) | !R2)";
    let vocab = NetTag::vocab();
    let toks = tokenize_expr(
        vocab,
        &parse_expr(src).expect("parses"),
        model.config.max_tokens,
    );
    let want = model.exprllm.encode(&toks).data;
    for _ in 0..3 {
        assert_eq!(client.embed_expr(src).expect("serve").data, want);
    }
    assert_eq!(
        model.exprllm.text_cache().encoded(),
        1,
        "encoded once, then reused"
    );
}
