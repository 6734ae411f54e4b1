//! ExprLLM — the LLM-based gate text encoder (paper Sec. II-C, eq. 1).
//!
//! A bidirectional transformer text encoder over gate-attribute token
//! sequences, standing in for LLM2Vec-adapted Llama-3.1-8B. The
//! architecture matches the paper's adaptation: full (non-causal)
//! attention, a `[CLS]` pooling position, and a projection into the shared
//! embedding space. Pre-trained with symbolic-expression contrastive
//! learning (objective #1) in [`crate::pretrain`].

use crate::config::NetTagConfig;
use nettag_expr::token::{TokenId, Vocab};
use nettag_nn::{
    Embedding, Graph, Layer, LayerNorm, Linear, NodeId, Param, Tensor, TransformerBlock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The gate-attribute text encoder.
#[derive(Debug, Clone)]
pub struct ExprLlm {
    /// Token embedding table.
    pub embed: Embedding,
    /// Learned positional embeddings (max_tokens × dim).
    pub pos: Param,
    /// Transformer stack (bidirectional attention).
    pub blocks: Vec<TransformerBlock>,
    /// Final norm.
    pub ln: LayerNorm,
    /// Projection into the shared embedding space.
    pub proj: Linear,
    /// Maximum sequence length.
    pub max_tokens: usize,
}

impl ExprLlm {
    /// Builds ExprLLM for a vocabulary and configuration.
    pub fn new(vocab: &Vocab, config: &NetTagConfig) -> ExprLlm {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xE59);
        ExprLlm {
            embed: Embedding::new(vocab.len(), config.text_dim, &mut rng),
            pos: Param::xavier(config.max_tokens, config.text_dim, &mut rng),
            blocks: (0..config.text_layers)
                .map(|_| TransformerBlock::new(config.text_dim, config.text_heads, 2, &mut rng))
                .collect(),
            ln: LayerNorm::new(config.text_dim),
            proj: Linear::new(config.text_dim, config.embed_dim, &mut rng),
            max_tokens: config.max_tokens,
        }
    }

    /// Differentiable forward for one token sequence → 1×embed_dim
    /// (the `[CLS]` position's projected output, `T_i = ExprLLM(t_i)`).
    pub fn forward(&self, g: &mut Graph, tokens: &[TokenId]) -> NodeId {
        let n = tokens.len().min(self.max_tokens);
        let toks = &tokens[..n];
        let mut x = self.embed.forward(g, toks);
        // Positional embeddings: gather the first n rows.
        let pos_ids: Vec<u32> = (0..n as u32).collect();
        let pos = g.gather_param_rows(&self.pos, &pos_ids);
        x = g.add(x, pos);
        for b in &self.blocks {
            x = b.forward(g, x);
        }
        let x = self.ln.forward(g, x);
        let cls = g.select_row(x, 0);
        self.proj.forward(g, cls)
    }

    /// Inference-only encoding: [`Self::forward`] on a
    /// [`Graph::no_grad`] graph, so the result is the tape pass's bits
    /// with no backward state kept — this is the serving hot path.
    pub fn encode(&self, tokens: &[TokenId]) -> Tensor {
        let mut g = Graph::no_grad();
        let out = self.forward(&mut g, tokens);
        g.take_value(out)
    }

    /// Inference-only batch encoding, one row per sequence. Sequences are
    /// independent, so the batch parallelizes across worker threads, each
    /// sequence through [`Self::encode`] on its own no-grad graph.
    pub fn encode_batch(&self, batch: &[Vec<TokenId>]) -> Tensor {
        let cols = self.proj.b.value.cols;
        let mut out = Tensor::zeros(batch.len(), cols);
        nettag_par::for_each_row_block_mut(&mut out.data, cols, |first_row, chunk| {
            for (bi, row) in chunk.chunks_exact_mut(cols).enumerate() {
                let e = self.encode(&batch[first_row + bi]);
                row.copy_from_slice(&e.data);
            }
        });
        out
    }
}

impl Layer for ExprLlm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.embed.params_mut();
        p.push(&mut self.pos);
        for b in &mut self.blocks {
            p.extend(b.params_mut());
        }
        p.extend(self.ln.params_mut());
        p.extend(self.proj.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_expr::parse_expr;
    use nettag_expr::token::tokenize_expr;

    fn setup() -> (Vocab, ExprLlm, NetTagConfig) {
        let vocab = Vocab::default();
        let config = NetTagConfig::tiny();
        let model = ExprLlm::new(&vocab, &config);
        (vocab, model, config)
    }

    #[test]
    fn encode_produces_embed_dim_vector() {
        let (vocab, model, config) = setup();
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        let toks = tokenize_expr(&vocab, &e, config.max_tokens);
        let emb = model.encode(&toks);
        assert_eq!((emb.rows, emb.cols), (1, config.embed_dim));
        assert!(emb.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encoding_is_deterministic_and_input_sensitive() {
        let (vocab, model, config) = setup();
        let a = tokenize_expr(&vocab, &parse_expr("a & b").expect("p"), config.max_tokens);
        let b = tokenize_expr(&vocab, &parse_expr("a | b").expect("p"), config.max_tokens);
        let e1 = model.encode(&a);
        let e2 = model.encode(&a);
        let e3 = model.encode(&b);
        assert_eq!(e1, e2);
        assert_ne!(e1, e3, "different expressions embed differently");
    }

    #[test]
    fn long_sequences_are_truncated() {
        let (_vocab, model, _) = setup();
        let long: Vec<TokenId> = (0..500).map(|i| (i % 20) as TokenId).collect();
        let emb = model.encode(&long);
        assert!(emb.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batch_matches_single() {
        let (vocab, model, config) = setup();
        let a = tokenize_expr(&vocab, &parse_expr("a & b").expect("p"), config.max_tokens);
        let b = tokenize_expr(&vocab, &parse_expr("!c").expect("p"), config.max_tokens);
        let batch = model.encode_batch(&[a.clone(), b.clone()]);
        let ea = model.encode(&a);
        assert_eq!(batch.row_slice(0), &ea.data[..]);
    }

    #[test]
    fn encode_matches_tape_forward_bitwise() {
        let (vocab, model, config) = setup();
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        let toks = tokenize_expr(&vocab, &e, config.max_tokens);
        let mut g = Graph::new();
        let out = model.forward(&mut g, &toks);
        assert_eq!(g.value(out).data, model.encode(&toks).data);
    }

    #[test]
    fn has_trainable_parameters() {
        let (_, mut model, _) = setup();
        assert!(model.param_count() > 1000);
    }
}
