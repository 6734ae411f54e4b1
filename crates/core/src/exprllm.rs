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
    Embedding, Graph, Layer, LayerNorm, Linear, NodeId, Param, QueryRows, Tensor, TransformerBlock,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Row bound of an ExprLLM's [`TextCache`], far above the ~1.4k distinct
/// gate texts of a 2,400-design `design_cold` stream.
const TEXT_CACHE_ROWS: usize = 1 << 14;

/// ExprLLM rows keyed by token sequence, valid for the weights of the
/// [`ExprLlm`] that owns it.
///
/// `ExprLLM(t)` is a pure function of the weights and the sequence `t`
/// (paper eq. 1), so a row computed once is reused for as long as the
/// weights stay as they are. Every path that can change them goes through
/// [`Layer::params_mut`], which empties the cache first, and a clone
/// starts empty: rows travel with the weights that computed them. The map
/// compares the full sequence on a hit, so distinct texts never alias.
/// When an insert would pass the bound the cache is cleared first: the
/// working set is far below it.
pub struct TextCache {
    rows: Mutex<HashMap<Vec<TokenId>, Arc<[f32]>>>,
    capacity: usize,
    encoded: AtomicU64,
}

impl Clone for TextCache {
    /// An empty cache with the same bound: rows belong to the original.
    fn clone(&self) -> TextCache {
        TextCache::with_capacity(self.capacity)
    }
}

impl std::fmt::Debug for TextCache {
    /// Counts only: the rows would print up to 2^14 vectors.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TextCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("encoded", &self.encoded())
            .finish()
    }
}

impl TextCache {
    /// An empty cache holding at most `capacity` rows.
    fn with_capacity(capacity: usize) -> TextCache {
        TextCache {
            rows: Mutex::new(HashMap::new()),
            capacity,
            encoded: AtomicU64::new(0),
        }
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Rows encoded into this cache over its lifetime (hits excluded).
    pub fn encoded(&self) -> u64 {
        self.encoded.load(Ordering::Relaxed)
    }

    /// Whether the cache holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row map, recovered through poison: every write inserts whole
    /// rows, so the map is valid after any panic.
    fn lock(&self) -> MutexGuard<'_, HashMap<Vec<TokenId>, Arc<[f32]>>> {
        self.rows.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The gate-attribute text encoder.
#[derive(Debug, Clone)]
pub struct ExprLlm {
    /// Token embedding table.
    embed: Embedding,
    /// Learned positional embeddings (max_tokens × dim).
    pos: Param,
    /// Transformer stack (bidirectional attention).
    blocks: Vec<TransformerBlock>,
    /// Final norm.
    ln: LayerNorm,
    /// Projection into the shared embedding space.
    proj: Linear,
    /// Maximum sequence length.
    pub max_tokens: usize,
    /// Rows [`Self::encode_texts`] computed under the current weights.
    text: TextCache,
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
            text: TextCache::with_capacity(TEXT_CACHE_ROWS),
        }
    }

    /// Differentiable forward for one token sequence → 1×embed_dim
    /// (the `[CLS]` position's projected output, `T_i = ExprLLM(t_i)`).
    ///
    /// Only row 0 leaves the last block: its queries, residual, FFN and
    /// everything after run on that one row, while its keys and values,
    /// and every earlier block, still cover all n rows. The other rows
    /// of a full last block would be computed and dropped, so the output
    /// has the same bits (see [`QueryRows`]).
    pub fn forward(&self, g: &mut Graph, tokens: &[TokenId]) -> NodeId {
        let n = tokens.len().min(self.max_tokens);
        let toks = &tokens[..n];
        let mut x = self.embed.forward(g, toks);
        // Positional embeddings: gather the first n rows.
        let pos_ids: Vec<u32> = (0..n as u32).collect();
        let pos = g.gather_param_rows(&self.pos, &pos_ids);
        x = g.add(x, pos);
        let cls = match self.blocks.split_last() {
            Some((last, earlier)) => {
                for b in earlier {
                    x = b.forward(g, x, QueryRows::All);
                }
                last.forward(g, x, QueryRows::First)
            }
            None => g.select_row(x, 0),
        };
        let cls = self.ln.forward(g, cls);
        self.proj.forward(g, cls)
    }

    /// Inference-only encoding: [`Self::forward`] on a
    /// [`Graph::no_grad`] graph, so the result is the tape pass's bits
    /// with no backward state kept and no score matrix wider than 1×n in
    /// the last block — this is the serving hot path.
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

    /// ExprLLM rows for token sequences, one per input, each bitwise equal
    /// to [`Self::encode`] of its sequence. Rows this model's
    /// [`TextCache`] holds are reused; the distinct remaining sequences are
    /// encoded in one [`Self::encode_batch`] outside the cache lock, then
    /// inserted under a second lock (clearing the map first when they
    /// would not fit).
    pub fn encode_texts(&self, seqs: &[Vec<TokenId>]) -> Vec<Arc<[f32]>> {
        // `found[k]`: the cached row of `seqs[k]`, or its index in `misses`.
        let mut misses: HashMap<&[TokenId], usize> = HashMap::new();
        let found: Vec<Result<Arc<[f32]>, usize>> = {
            let rows = self.text.lock();
            seqs.iter()
                .map(|s| match rows.get(s.as_slice()) {
                    Some(row) => Ok(Arc::clone(row)),
                    None => {
                        let next = misses.len();
                        Err(*misses.entry(s.as_slice()).or_insert(next))
                    }
                })
                .collect()
        };
        let mut missing = vec![Vec::new(); misses.len()];
        for (s, k) in misses {
            missing[k] = s.to_vec();
        }
        let batch = self.encode_batch(&missing);
        let fresh: Vec<Arc<[f32]>> = (0..missing.len())
            .map(|k| Arc::from(batch.row_slice(k)))
            .collect();
        if !missing.is_empty() {
            let (cap, added) = (self.text.capacity, missing.len());
            self.text.encoded.fetch_add(added as u64, Ordering::Relaxed);
            let mut rows = self.text.lock();
            if rows.len() + added > cap {
                rows.clear();
            }
            for (s, row) in missing.into_iter().zip(&fresh).take(cap) {
                rows.insert(s, Arc::clone(row));
            }
        }
        found
            .into_iter()
            .map(|r| r.unwrap_or_else(|k| Arc::clone(&fresh[k])))
            .collect()
    }

    /// The gate-text rows computed under the current weights.
    pub fn text_cache(&self) -> &TextCache {
        &self.text
    }
}

impl Layer for ExprLlm {
    /// The weights, after dropping every cached row (`&mut` access takes
    /// no lock): a caller holding these may change them.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let rows = self.text.rows.get_mut();
        rows.unwrap_or_else(|e| e.into_inner()).clear();
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn filling_past_capacity_stays_bounded_and_changes_no_bits() {
        use crate::NetTag;
        use nettag_netlist::{chunk_into_cones, cone_to_netlist, Library, Tag};
        use nettag_synth::{generate_design, GenerateConfig, ALL_FAMILIES};
        use std::collections::HashSet;

        let mut model = NetTag::new(NetTagConfig::tiny());
        let lib = Library::default();
        let gen = GenerateConfig {
            scale: 0.3,
            ..GenerateConfig::default()
        };
        let mut groups: Vec<Vec<Tag>> = Vec::new();
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
        let all: Vec<Tag> = groups.concat();
        let vocab = NetTag::vocab();
        let distinct: HashSet<Vec<TokenId>> = all
            .iter()
            .flat_map(|t| {
                (0..t.len()).map(|i| t.node_tokens(vocab, i, model.config.max_tokens, false))
            })
            .collect();
        let cap = 8;
        assert!(
            distinct.len() > 4 * cap,
            "the fixture must overflow the cache several times"
        );
        model.exprllm.text = TextCache::with_capacity(cap);
        let cache = model.exprllm.text_cache();
        // Twice over, so later calls meet rows that survived a clear.
        for group in groups.iter().chain(&groups) {
            let refs: Vec<&Tag> = group.iter().collect();
            let warm = model.node_features_batch(&refs);
            assert!(cache.len() <= cap, "{} rows > {cap}", cache.len());
            for (w, c) in warm.iter().zip(model.clone().node_features_batch(&refs)) {
                assert_eq!(bits(w), bits(&c));
            }
        }
        // One call with more distinct texts than the whole cache holds.
        let refs: Vec<&Tag> = all.iter().collect();
        let warm = model.embed_tags(&refs);
        assert!(cache.len() <= cap);
        for (w, c) in warm.iter().zip(model.clone().embed_tags(&refs)) {
            assert_eq!(bits(&w.cls), bits(&c.cls));
        }
    }

    #[test]
    fn text_cache_debug_prints_counts_not_rows() {
        let (vocab, model, config) = setup();
        let seqs: Vec<Vec<TokenId>> = ["a & b", "!c", "a & b"]
            .iter()
            .map(|src| tokenize_expr(&vocab, &parse_expr(src).expect("p"), config.max_tokens))
            .collect();
        model.encode_texts(&seqs);
        assert_eq!(
            format!("{:?}", model.text_cache()),
            format!("TextCache {{ len: 2, capacity: {TEXT_CACHE_ROWS}, encoded: 2 }}")
        );
    }
}
