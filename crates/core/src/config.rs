//! NetTAG model configuration, including the Fig. 7 scaling presets.

/// Hyperparameters of the full NetTAG model.
///
/// Paper-scale values (Llama-3.1-8B ExprLLM, 768-d output, 8k token
/// context) are infeasible on CPU; the presets keep the same *shape* at
/// laptop scale, and [`NetTagConfig::scaling_presets`] reproduces the
/// Fig. 7(a) model-size sweep with three growing sizes standing in for
/// BERT-110M / Llama-1.3B / Llama-8B.
#[derive(Debug, Clone)]
pub struct NetTagConfig {
    /// Shared embedding dimension of all `[CLS]`-level outputs (paper: 768).
    pub embed_dim: usize,
    /// ExprLLM transformer width.
    pub text_dim: usize,
    /// ExprLLM transformer depth.
    pub text_layers: usize,
    /// ExprLLM attention heads.
    pub text_heads: usize,
    /// Maximum gate-attribute tokens (paper: 8192).
    pub max_tokens: usize,
    /// TAGFormer width.
    pub graph_dim: usize,
    /// TAGFormer depth (attention + propagation rounds).
    pub graph_layers: usize,
    /// Fan-in hops for symbolic expressions (paper: 2).
    pub hops: usize,
    /// InfoNCE temperature τ.
    pub temperature: f32,
    /// Fraction of gates masked for objective #2.1.
    pub mask_rate: f64,
    /// Initialization / sampling seed.
    pub seed: u64,
}

impl NetTagConfig {
    /// Minimal configuration for unit tests (fast, still end-to-end).
    pub fn tiny() -> NetTagConfig {
        NetTagConfig {
            embed_dim: 16,
            text_dim: 16,
            text_layers: 1,
            text_heads: 2,
            max_tokens: 48,
            graph_dim: 16,
            graph_layers: 1,
            hops: 2,
            temperature: 0.1,
            mask_rate: 0.15,
            seed: 0xDAC,
        }
    }

    /// Default experiment configuration (the "8B" stand-in of Fig. 7).
    ///
    /// `hops = 4` rather than the paper's 2: after uniform NAND/INV
    /// remapping one original complex cell spans 2–3 NAND levels, so 4
    /// NAND hops carry roughly the semantic radius of the paper's 2
    /// complex-cell hops.
    pub fn small() -> NetTagConfig {
        NetTagConfig {
            embed_dim: 48,
            text_dim: 48,
            text_layers: 2,
            text_heads: 4,
            max_tokens: 160,
            graph_dim: 48,
            graph_layers: 2,
            hops: 4,
            temperature: 0.1,
            mask_rate: 0.15,
            seed: 0xDAC,
        }
    }

    /// The three model sizes of the Fig. 7(a) scaling study, smallest
    /// first, with the paper's labels for the sizes they stand in for.
    pub fn scaling_presets() -> Vec<(&'static str, NetTagConfig)> {
        let mut s110m = Self::tiny();
        s110m.text_dim = 8;
        s110m.text_heads = 2;
        s110m.text_layers = 1;
        s110m.embed_dim = 8;
        s110m.graph_dim = 8;
        let mut s1b = Self::tiny();
        s1b.text_dim = 16;
        s1b.embed_dim = 16;
        s1b.graph_dim = 16;
        let s8b = Self::small();
        vec![
            ("110M (BERT)", s110m),
            ("1.3B (Llama)", s1b),
            ("8B (Llama)", s8b),
        ]
    }
}

impl Default for NetTagConfig {
    fn default() -> Self {
        NetTagConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_grow_monotonically() {
        let presets = NetTagConfig::scaling_presets();
        assert_eq!(presets.len(), 3);
        for w in presets.windows(2) {
            assert!(w[0].1.text_dim <= w[1].1.text_dim);
            assert!(w[0].1.embed_dim <= w[1].1.embed_dim);
        }
    }

    #[test]
    fn dims_are_head_divisible() {
        for (_, c) in NetTagConfig::scaling_presets() {
            assert_eq!(c.text_dim % c.text_heads, 0);
        }
        let c = NetTagConfig::default();
        assert_eq!(c.text_dim % c.text_heads, 0);
    }
}
