//! ExprLLM owns the cache of its gate-text rows. Whatever the cache holds,
//! features and embeddings stay bitwise equal to a cold model's; a weight
//! update empties it, and a clone starts empty.

use nettag_core::data::{build_pretrain_data, DataConfig};
use nettag_core::{pretrain_exprllm, NetTag, NetTagConfig, PretrainConfig};
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
        .flat_map(|t| (0..t.len()).map(|i| t.node_tokens(vocab, i, model.config.max_tokens, false)))
        .collect()
}

#[test]
fn repeat_calls_encode_only_unseen_texts_and_change_no_bits() {
    let model = NetTag::new(NetTagConfig::tiny());
    let cache = model.exprllm.text_cache();
    let groups = tag_groups(&model);
    let mut seen: HashSet<Vec<TokenId>> = HashSet::new();
    for group in &groups {
        let refs: Vec<&Tag> = group.iter().collect();
        let before = cache.encoded();
        let warm = model.embed_tags(&refs);
        // A clone starts with an empty cache: the cold path.
        let cold = model.clone().embed_tags(&refs);
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(bits(&w.cls), bits(&c.cls));
            assert_eq!(bits(&w.nodes), bits(&c.nodes));
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
        let warm = model.node_features_batch(&refs);
        for (w, c) in warm.iter().zip(model.clone().node_features_batch(&refs)) {
            assert_eq!(bits(w), bits(&c));
        }
    }
    assert_eq!(cache.encoded(), before);
}

#[test]
fn encode_texts_rows_equal_exprllm_encode() {
    let model = NetTag::new(NetTagConfig::tiny());
    let groups = tag_groups(&model);
    let texts: Vec<Vec<TokenId>> = distinct_texts(&model, &groups[0]).into_iter().collect();
    // Every text twice: the second copy is answered within the call.
    let seqs: Vec<Vec<TokenId>> = texts.iter().chain(&texts).cloned().collect();
    let rows = model.exprllm.encode_texts(&seqs);
    assert_eq!(model.exprllm.text_cache().encoded(), texts.len() as u64);
    for (seq, row) in seqs.iter().zip(&rows) {
        assert_eq!(
            bits(&Tensor::row(row.to_vec())),
            bits(&model.exprllm.encode(seq))
        );
    }
    assert!(model.exprllm.encode_texts(&[]).is_empty());
}

#[test]
fn structure_only_features_touch_no_cache() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    model.text_scale = 0.0;
    let groups = tag_groups(&model);
    let refs: Vec<&Tag> = groups[0].iter().collect();
    model.node_features_batch(&refs);
    assert!(model.exprllm.text_cache().is_empty());
    assert_eq!(model.exprllm.text_cache().encoded(), 0);
}

#[test]
fn a_weight_update_drops_every_row_of_the_old_weights() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    let groups = tag_groups(&model);
    let refs: Vec<&Tag> = groups[0].iter().collect();
    let before = model.embed_tags(&refs);
    assert!(!model.exprllm.text_cache().is_empty());

    let lib = Library::default();
    let designs = vec![generate_design(
        ALL_FAMILIES[0],
        0,
        5,
        &GenerateConfig::default(),
    )];
    let data = build_pretrain_data(&designs, &lib, &DataConfig::default());
    let step = PretrainConfig {
        step1_steps: 1,
        ..PretrainConfig::default()
    };
    assert_eq!(pretrain_exprllm(&mut model, &data, &step).len(), 1);
    assert!(
        model.exprllm.text_cache().is_empty(),
        "the optimizer step went through params_mut, which clears"
    );

    let after = model.embed_tags(&refs);
    let cold = model.clone().embed_tags(&refs);
    for ((a, c), b) in after.iter().zip(&cold).zip(&before) {
        assert_eq!(bits(&a.cls), bits(&c.cls));
        assert_eq!(bits(&a.nodes), bits(&c.nodes));
        assert_ne!(
            bits(&a.nodes),
            bits(&b.nodes),
            "a stale row would have reproduced the pre-step embedding"
        );
    }
}

#[test]
fn a_clone_starts_with_an_empty_cache() {
    let model = NetTag::new(NetTagConfig::tiny());
    let groups = tag_groups(&model);
    let refs: Vec<&Tag> = groups[0].iter().collect();
    model.node_features_batch(&refs);
    let held = model.exprllm.text_cache().len();
    assert!(held > 0);

    let copy = model.clone();
    assert!(copy.exprllm.text_cache().is_empty());
    assert_eq!(copy.exprllm.text_cache().encoded(), 0);
    assert_eq!(
        model.exprllm.text_cache().len(),
        held,
        "the original keeps its rows"
    );
}
