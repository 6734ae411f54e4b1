//! A `TextCache` carries ExprLLM rows across planner calls. Whatever it
//! holds, and however often it is cleared at its bound, the features and
//! embeddings stay bitwise equal to the per-call pipeline.

use nettag_core::{NetTag, NetTagConfig, TextCache};
use nettag_expr::token::TokenId;
use nettag_netlist::{chunk_into_cones, cone_to_netlist, Library, Tag};
use nettag_nn::Tensor;
use nettag_synth::{generate_design, GenerateConfig, ALL_FAMILIES};
use std::collections::HashSet;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Cone TAGs of two small designs, in call-sized groups.
fn tag_groups(model: &NetTag) -> Vec<Vec<Tag>> {
    let lib = Library::default();
    let gen = GenerateConfig {
        scale: 0.3,
        ..GenerateConfig::default()
    };
    let mut groups = Vec::new();
    for family in &ALL_FAMILIES[..2] {
        let d = generate_design(*family, 0, 11, &gen);
        let tags: Vec<Tag> = chunk_into_cones(&d.netlist)
            .iter()
            .take(9)
            .map(|cone| cone_to_netlist(&d.netlist, cone))
            .filter(|sub| (2..=120).contains(&sub.gate_count()))
            .map(|sub| Tag::from_netlist(&sub, &lib, &model.tag_options()))
            .collect();
        groups.extend(tags.chunks(3).map(<[Tag]>::to_vec));
    }
    groups
}

fn distinct_texts(model: &NetTag, tags: &[Tag]) -> HashSet<Vec<TokenId>> {
    let vocab = NetTag::vocab();
    tags.iter()
        .flat_map(|t| {
            (0..t.len()).map(|i| t.node_tokens(&vocab, i, model.config.max_tokens, false))
        })
        .collect()
}

#[test]
fn a_shared_cache_encodes_each_text_once_and_changes_no_bits() {
    let model = NetTag::new(NetTagConfig::tiny());
    let groups = tag_groups(&model);
    let cache = TextCache::default();
    let mut seen: HashSet<Vec<TokenId>> = HashSet::new();
    for group in &groups {
        let refs: Vec<&Tag> = group.iter().collect();
        let before = cache.encoded();
        let cached = model.embed_tags_cached(&refs, &cache);
        let fresh = model.embed_tags(&refs);
        for (c, f) in cached.iter().zip(&fresh) {
            assert_eq!(bits(&c.cls), bits(&f.cls));
            assert_eq!(bits(&c.nodes), bits(&f.nodes));
        }
        let texts = distinct_texts(&model, group);
        let new = texts.iter().filter(|t| !seen.contains(*t)).count();
        assert_eq!(
            cache.encoded() - before,
            new as u64,
            "only unseen texts encode"
        );
        seen.extend(texts);
        assert_eq!(cache.len(), seen.len());
    }
    // A repeat of every call finds every row.
    let before = cache.encoded();
    for group in &groups {
        let refs: Vec<&Tag> = group.iter().collect();
        let cached = model.node_features_cached(&refs, &cache);
        for (c, f) in cached.iter().zip(model.node_features_batch(&refs)) {
            assert_eq!(bits(c), bits(&f));
        }
    }
    assert_eq!(cache.encoded(), before);
}

#[test]
fn filling_past_capacity_stays_bounded_and_changes_no_bits() {
    let model = NetTag::new(NetTagConfig::tiny());
    let groups = tag_groups(&model);
    let all: Vec<Tag> = groups.concat();
    let cap = 8;
    assert!(
        distinct_texts(&model, &all).len() > 4 * cap,
        "the fixture must overflow the cache several times"
    );
    let cache = TextCache::with_capacity(cap);
    // Twice over, so later calls meet rows that survived a clear.
    for group in groups.iter().chain(&groups) {
        let refs: Vec<&Tag> = group.iter().collect();
        let cached = model.node_features_cached(&refs, &cache);
        assert!(cache.len() <= cap, "{} rows > {cap}", cache.len());
        for (c, f) in cached.iter().zip(model.node_features_batch(&refs)) {
            assert_eq!(bits(c), bits(&f));
        }
    }
    // One call with more distinct texts than the whole cache holds.
    let refs: Vec<&Tag> = all.iter().collect();
    let cached = model.embed_tags_cached(&refs, &cache);
    assert!(cache.len() <= cap);
    for (c, f) in cached.iter().zip(model.embed_tags(&refs)) {
        assert_eq!(bits(&c.cls), bits(&f.cls));
    }
}

#[test]
fn encode_texts_rows_equal_exprllm_encode() {
    let model = NetTag::new(NetTagConfig::tiny());
    let groups = tag_groups(&model);
    let texts: Vec<Vec<TokenId>> = distinct_texts(&model, &groups[0]).into_iter().collect();
    // Every text twice: the second copy is answered within the call.
    let seqs: Vec<Vec<TokenId>> = texts.iter().chain(&texts).cloned().collect();
    let cache = TextCache::default();
    let rows = model.encode_texts(&seqs, &cache);
    assert_eq!(cache.encoded(), texts.len() as u64);
    for (seq, row) in seqs.iter().zip(&rows) {
        assert_eq!(
            bits(&Tensor::row(row.to_vec())),
            bits(&model.exprllm.encode(seq))
        );
    }
    assert!(model.encode_texts(&[], &cache).is_empty());
}

#[test]
fn structure_only_features_touch_no_cache() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    model.text_scale = 0.0;
    let groups = tag_groups(&model);
    let refs: Vec<&Tag> = groups[0].iter().collect();
    let cache = TextCache::default();
    model.node_features_cached(&refs, &cache);
    assert!(cache.is_empty());
    assert_eq!(cache.encoded(), 0);
}
