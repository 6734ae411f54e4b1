//! The batch embedding pipeline (`NetTag::node_features_batch` /
//! `NetTag::embed_tags`) encodes each distinct gate text once. These tests
//! pin it, bit for bit, to the straightforward per-gate reference: one
//! `ExprLlm::encode` per node, scaled by `text_scale`, followed by the
//! node's physical vector.

use nettag_core::{NetTag, NetTagConfig};
use nettag_expr::token::TokenId;
use nettag_netlist::{chunk_into_cones, cone_to_netlist, Library, Tag};
use nettag_nn::Tensor;
use nettag_synth::{generate_design, GenerateConfig, ALL_FAMILIES};
use std::collections::HashSet;

/// The per-gate reference the planner replaced.
fn reference_features(model: &NetTag, tag: &Tag) -> Tensor {
    let vocab = NetTag::vocab();
    let dim = model.config.embed_dim;
    let mut out = Tensor::zeros(tag.len(), dim + 8);
    for (i, row) in out.data.chunks_exact_mut(dim + 8).enumerate() {
        if model.text_scale != 0.0 {
            let toks = tag.node_tokens(vocab, i, model.config.max_tokens, false);
            let text = model.exprllm.encode(&toks);
            for (o, v) in row.iter_mut().zip(&text.data) {
                *o = v * model.text_scale;
            }
        }
        row[dim..].copy_from_slice(&tag.nodes[i].phys.feature_vector());
    }
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Cone TAGs from two small designs of different families, plus one TAG
/// repeated, so gate texts repeat within and across TAGs.
fn shared_text_tags(model: &NetTag) -> Vec<Tag> {
    let lib = Library::default();
    let gen = GenerateConfig {
        scale: 0.3,
        ..GenerateConfig::default()
    };
    let mut tags = Vec::new();
    for family in &ALL_FAMILIES[..2] {
        let d = generate_design(*family, 0, 11, &gen);
        for cone in chunk_into_cones(&d.netlist).iter().take(6) {
            let sub = cone_to_netlist(&d.netlist, cone);
            if (2..=120).contains(&sub.gate_count()) {
                tags.push(Tag::from_netlist(&sub, &lib, &model.tag_options()));
            }
        }
    }
    tags.push(tags[0].clone());
    tags
}

#[test]
fn batch_features_match_per_gate_reference_at_every_text_scale() {
    let mut model = NetTag::new(NetTagConfig::tiny());
    let tags = shared_text_tags(&model);
    let refs: Vec<&Tag> = tags.iter().collect();
    let vocab = NetTag::vocab();
    let seqs: Vec<Vec<TokenId>> = tags
        .iter()
        .flat_map(|t| (0..t.len()).map(|i| t.node_tokens(vocab, i, model.config.max_tokens, false)))
        .collect();
    let distinct: HashSet<&Vec<TokenId>> = seqs.iter().collect();
    assert!(
        distinct.len() < seqs.len(),
        "the fixture must share gate texts for dedup to matter"
    );
    for scale in [1.0, 0.5, 0.0] {
        model.text_scale = scale;
        let batch = model.node_features_batch(&refs);
        let embedded = model.embed_tags(&refs);
        assert_eq!(batch.len(), tags.len());
        for (k, tag) in tags.iter().enumerate() {
            let want = reference_features(&model, tag);
            assert_eq!(bits(&batch[k]), bits(&want), "scale {scale}, tag {k}");
            assert_eq!(bits(&model.node_features(tag)), bits(&want));
            let (nodes, cls) = model.tagformer.encode(&want, &tag.edges);
            assert_eq!(bits(&embedded[k].cls), bits(&cls), "scale {scale}, tag {k}");
            assert_eq!(bits(&embedded[k].nodes), bits(&nodes));
            assert_eq!(bits(&model.embed_tag(tag).cls), bits(&cls));
        }
    }
}

#[test]
fn empty_batches_and_empty_tags_are_fine() {
    let model = NetTag::new(NetTagConfig::tiny());
    assert!(model.node_features_batch(&[]).is_empty());
    assert!(model.embed_tags(&[]).is_empty());
    let empty = Tag {
        name: "empty".into(),
        nodes: Vec::new(),
        edges: Vec::new(),
    };
    let f = model.node_features_batch(&[&empty]);
    assert_eq!((f[0].rows, f[0].cols), (0, model.config.embed_dim + 8));
}
