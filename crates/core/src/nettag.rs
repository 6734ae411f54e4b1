//! The NetTAG foundation model: ExprLLM + TAGFormer and the multi-grained
//! embedding API (paper Sec. II-C and II-F).

use crate::config::NetTagConfig;
use crate::exprllm::ExprLlm;
use crate::tagformer::TagFormer;
use nettag_expr::token::Vocab;
use nettag_netlist::{
    chunk_into_cones, cone_to_netlist, Library, Netlist, PhysProps, Tag, TagOptions,
};
use nettag_nn::{Layer, Param, Tensor};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The pre-trainable NetTAG model.
#[derive(Debug, Clone)]
pub struct NetTag {
    /// Model configuration.
    pub config: NetTagConfig,
    /// Gate text encoder.
    pub exprllm: ExprLlm,
    /// Graph transformer.
    pub tagformer: TagFormer,
    /// Scale applied to the text half of node features (1.0 normally;
    /// 0.0 reproduces the "w/o TAG" structure-only ablation of Fig. 6).
    pub text_scale: f32,
}

/// Inference embeddings of one TAG.
#[derive(Debug, Clone)]
pub struct TagEmbedding {
    /// Per-gate embeddings (n×embed_dim) — `N_1..N_m`.
    pub nodes: Tensor,
    /// Graph embedding (1×embed_dim) — `N_cls`.
    pub cls: Tensor,
}

impl TagEmbedding {
    /// Pooled graph feature: `[CLS] ‖ mean(node embeddings)` — at paper
    /// scale `N_cls` alone suffices, but tiny CPU models benefit from the
    /// extra pooled view (both grains are NetTAG outputs, Sec. II-F).
    pub fn pooled(&self) -> Vec<f32> {
        let mut out = self.cls.data.clone();
        let n = self.nodes.rows.max(1) as f32;
        for c in 0..self.nodes.cols {
            let mut s = 0.0;
            for r in 0..self.nodes.rows {
                s += self.nodes.at(r, c);
            }
            out.push(s / n);
        }
        out
    }
}

impl NetTag {
    /// Builds a fresh (untrained) NetTAG with the standard cell vocabulary.
    pub fn new(config: NetTagConfig) -> NetTag {
        let exprllm = ExprLlm::new(Self::vocab(), &config);
        let tagformer = TagFormer::new(config.embed_dim + 8, &config);
        NetTag {
            config,
            exprllm,
            tagformer,
            text_scale: 1.0,
        }
    }

    /// The shared token vocabulary (grammar + cell-type words + buckets),
    /// built once per process.
    pub fn vocab() -> &'static Vocab {
        static VOCAB: OnceLock<Vocab> = OnceLock::new();
        VOCAB.get_or_init(|| Vocab::new(Library::default().cell_names()))
    }

    /// TAG construction options matching this model's hop setting.
    pub fn tag_options(&self) -> TagOptions {
        TagOptions {
            hops: self.config.hops,
            ..TagOptions::default()
        }
    }

    /// Computes frozen input features for TAGFormer: per-node ExprLLM text
    /// embedding concatenated with the 8-dim physical vector
    /// (`n_i = (T_i, x_phys_i)`, eq. 2). A batch of one
    /// [`Self::node_features_batch`].
    pub fn node_features(&self, tag: &Tag) -> Tensor {
        self.node_features_batch(&[tag])
            .pop()
            .expect("one tag in, one out")
    }

    /// [`Self::node_features`] for many TAGs at once: the single place
    /// ExprLLM rows become TAGFormer inputs, shared by the offline API,
    /// pre-training, the tasks and serving.
    ///
    /// Every node of every TAG is tokenized (in parallel) and its text row
    /// comes from [`ExprLlm::encode_texts`], so each distinct token
    /// sequence not already in ExprLLM's text cache is encoded once. The
    /// row is scattered, times `text_scale`, to every node that carries
    /// it, followed by the node's physical vector. Token sequences are
    /// canonical (`Tag::node_tokens` renames variables) and the encoding is
    /// a pure function of them, so the result is bitwise independent of
    /// what else shares the batch and of what the cache already held. With
    /// `text_scale == 0` nothing is tokenized and the text half stays zero.
    pub fn node_features_batch(&self, tags: &[&Tag]) -> Vec<Tensor> {
        let dim = self.config.embed_dim;
        // `text[k]`: the ExprLLM row of the k-th node over all TAGs.
        let text = if self.text_scale != 0.0 {
            let vocab = Self::vocab();
            let nodes: Vec<(&Tag, usize)> = tags
                .iter()
                .flat_map(|&t| (0..t.len()).map(move |i| (t, i)))
                .collect();
            let seqs = nettag_par::map_slice(&nodes, |&(t, i)| {
                t.node_tokens(vocab, i, self.config.max_tokens, false)
            });
            self.exprllm.encode_texts(&seqs)
        } else {
            Vec::new()
        };
        let mut text = text.into_iter();
        tags.iter()
            .map(|tag| {
                let mut out = Tensor::zeros(tag.len(), dim + 8);
                for (node, row) in tag.nodes.iter().zip(out.data.chunks_exact_mut(dim + 8)) {
                    if let Some(t) = text.next() {
                        for (o, v) in row.iter_mut().zip(t.iter()) {
                            *o = v * self.text_scale;
                        }
                    }
                    row[dim..].copy_from_slice(&node.phys.feature_vector());
                }
                out
            })
            .collect()
    }

    /// Embeds a TAG (inference): per-gate + graph embeddings. A batch of
    /// one [`Self::embed_tags`].
    pub fn embed_tag(&self, tag: &Tag) -> TagEmbedding {
        self.embed_tags(&[tag]).pop().expect("one tag in, one out")
    }

    /// Embeds many TAGs: one [`Self::node_features_batch`] over all of
    /// them, then one TAGFormer pass per TAG.
    pub fn embed_tags(&self, tags: &[&Tag]) -> Vec<TagEmbedding> {
        let features = self.node_features_batch(tags);
        tags.iter()
            .zip(&features)
            .map(|(tag, f)| {
                let (nodes, cls) = self.tagformer.encode(f, &tag.edges);
                TagEmbedding { nodes, cls }
            })
            .collect()
    }

    /// Embeds a full netlist at circuit granularity. Sequential circuits
    /// are chunked into register cones whose `[CLS]` embeddings are
    /// *summed* (paper Sec. II-F); combinational circuits embed directly.
    ///
    /// `phys` optionally supplies sign-off physical attributes per gate id;
    /// otherwise synthesis estimates are used.
    pub fn embed_circuit(
        &self,
        netlist: &Netlist,
        lib: &Library,
        phys: Option<&[PhysProps]>,
    ) -> Tensor {
        let opts = self.tag_options();
        if netlist.registers().is_empty() {
            let tag = match phys {
                Some(p) => Tag::from_netlist_with_phys(netlist, p, &opts),
                None => Tag::from_netlist(netlist, lib, &opts),
            };
            return self.embed_tag(&tag).cls;
        }
        // Parent-gate phys, mapped onto cone gates by name.
        let by_name: Option<HashMap<&str, PhysProps>> = phys.map(|p| {
            netlist
                .iter()
                .map(|(id, g)| (g.name.as_str(), p[id.index()]))
                .collect()
        });
        let tags: Vec<Tag> = chunk_into_cones(netlist)
            .iter()
            .map(|cone| cone_to_netlist(netlist, cone))
            .filter(|sub| sub.gate_count() >= 2)
            .map(|sub| match &by_name {
                Some(by_name) => {
                    let fallback = nettag_netlist::synthesis_phys_estimates(&sub, lib);
                    let props: Vec<PhysProps> = sub
                        .iter()
                        .map(|(id, g)| {
                            by_name
                                .get(g.name.as_str())
                                .copied()
                                .unwrap_or(fallback[id.index()])
                        })
                        .collect();
                    Tag::from_netlist_with_phys(&sub, &props, &opts)
                }
                None => Tag::from_netlist(&sub, lib, &opts),
            })
            .collect();
        let mut total = Tensor::zeros(1, self.config.embed_dim);
        for emb in self.embed_tags(&tags.iter().collect::<Vec<_>>()) {
            total.add_assign(&emb.cls);
        }
        total
    }
}

impl Layer for NetTag {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.exprllm.params_mut();
        p.extend(self.tagformer.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::CellKind;

    fn seq_design() -> Netlist {
        let mut n = Netlist::new("m");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let x = n.add_gate("X", CellKind::Xor2, vec![a, b]);
        let r1 = n.add_gate("R1", CellKind::Dff, vec![x]);
        let o = n.add_gate("O", CellKind::Or2, vec![r1, a]);
        let _r2 = n.add_gate("R2", CellKind::Dff, vec![o]);
        n.add_gate("y", CellKind::Output, vec![r1]);
        n.validate().expect("valid")
    }

    #[test]
    fn embed_tag_has_gate_and_graph_grains() {
        let model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let n = seq_design();
        let tag = Tag::from_netlist(&n, &lib, &model.tag_options());
        let emb = model.embed_tag(&tag);
        assert_eq!(emb.nodes.rows, n.gate_count());
        assert_eq!(emb.cls.cols, model.config.embed_dim);
    }

    #[test]
    fn circuit_embedding_sums_cones() {
        let model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let n = seq_design();
        let e = model.embed_circuit(&n, &lib, None);
        assert_eq!((e.rows, e.cols), (1, model.config.embed_dim));
        assert!(e.data.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn different_circuits_embed_differently() {
        let model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let n1 = seq_design();
        let mut n2 = Netlist::new("m2");
        let a = n2.add_gate("a", CellKind::Input, vec![]);
        let g = n2.add_gate("G", CellKind::Inv, vec![a]);
        n2.add_gate("y", CellKind::Output, vec![g]);
        let n2 = n2.validate().expect("valid");
        let e1 = model.embed_circuit(&n1, &lib, None);
        let e2 = model.embed_circuit(&n2, &lib, None);
        assert_ne!(e1.data, e2.data);
    }
}
