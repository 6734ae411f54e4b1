//! Auxiliary cross-stage encoders (paper Sec. II-C).
//!
//! * The **RTL encoder** stands in for NV-Embed: a text transformer over
//!   RTL code, producing `R_cls`.
//! * The **layout encoder** is a graph transformer (same SGFormer family
//!   as TAGFormer) over SPEF-annotated layout graphs, producing `L_cls`.
//!
//! Both are used *only during pre-training* for cross-stage contrastive
//! alignment (objective #3) and are dropped afterwards.

use crate::config::NetTagConfig;
use crate::exprllm::ExprLlm;
use crate::tagformer::TagFormer;
use nettag_expr::token::{frame_tail, Grammar, Special, TokenId, Vocab};
use nettag_nn::{Graph, Layer, NodeId, Param, Tensor};
use nettag_physical::LayoutGraph;

/// RTL keywords registered as whole-word tokens.
pub const RTL_KEYWORDS: [&str; 16] = [
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "reg",
    "assign",
    "always",
    "posedge",
    "clk",
    "if",
    "begin",
    "end",
    "case",
    "default",
    "else",
];

/// Builds the word list for the RTL vocabulary.
pub fn rtl_vocab() -> Vocab {
    Vocab::new(RTL_KEYWORDS)
}

/// Tokenizes RTL source text: keywords → word tokens, identifiers →
/// hashed variable buckets, numbers → magnitude buckets, operators →
/// grammar tokens, everything else skipped.
pub fn tokenize_rtl(vocab: &Vocab, text: &str, max_len: usize) -> Vec<TokenId> {
    let mut out = vec![vocab.special(Special::Cls)];
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if out.len() >= max_len {
            break;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut word = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    word.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            if RTL_KEYWORDS.contains(&word.as_str()) {
                out.push(vocab.word(&word));
            } else {
                out.push(vocab.var(&word));
            }
        } else if c.is_ascii_digit() {
            let mut num = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '\'' || c == '.' {
                    num.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            let value: f64 = num
                .rsplit(['d', 'h', 'b', '\''])
                .next()
                .and_then(|t| t.parse().ok())
                .unwrap_or(1.0);
            out.push(vocab.number(value));
        } else {
            let tok = match c {
                '(' => Some(Grammar::Open),
                ')' => Some(Grammar::Close),
                '!' | '~' => Some(Grammar::Not),
                '&' => Some(Grammar::And),
                '|' => Some(Grammar::Or),
                '^' => Some(Grammar::Xor),
                '=' => Some(Grammar::Eq),
                ',' => Some(Grammar::Comma),
                _ => None,
            };
            if let Some(t) = tok {
                out.push(vocab.grammar_id(t));
            }
            chars.next();
        }
    }
    frame_tail(vocab, out, max_len)
}

/// The auxiliary RTL text encoder (NV-Embed stand-in).
#[derive(Debug, Clone)]
pub struct RtlEncoder {
    /// Underlying bidirectional text transformer.
    pub model: ExprLlm,
}

impl RtlEncoder {
    /// Builds the RTL encoder for a vocabulary and configuration.
    pub fn new(vocab: &Vocab, config: &NetTagConfig) -> RtlEncoder {
        let mut cfg = config.clone();
        cfg.seed ^= 0x471;
        RtlEncoder {
            model: ExprLlm::new(vocab, &cfg),
        }
    }

    /// Differentiable forward to `R_cls` (1×embed_dim).
    pub fn forward(&self, g: &mut Graph, tokens: &[TokenId]) -> NodeId {
        self.model.forward(g, tokens)
    }

    /// Inference-only encoding of RTL text.
    pub fn encode(&self, vocab: &Vocab, text: &str) -> Tensor {
        let toks = tokenize_rtl(vocab, text, self.model.max_tokens);
        self.model.encode(&toks)
    }
}

impl Layer for RtlEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.model.params_mut()
    }
}

/// The auxiliary layout graph encoder (pre-trained SGFormer stand-in).
#[derive(Debug, Clone)]
pub struct LayoutEncoder {
    /// Underlying graph transformer over 5-dim layout node features.
    pub model: TagFormer,
}

impl LayoutEncoder {
    /// Builds the layout encoder.
    pub fn new(config: &NetTagConfig) -> LayoutEncoder {
        let mut cfg = config.clone();
        cfg.seed ^= 0x1A9;
        LayoutEncoder {
            model: TagFormer::new(5, &cfg),
        }
    }

    /// Layout node feature matrix.
    pub fn features(layout: &LayoutGraph, die: f64) -> Tensor {
        let mut t = Tensor::zeros(layout.len(), 5);
        for i in 0..layout.len() {
            let f = layout.feature_vector(i, die);
            t.data[i * 5..(i + 1) * 5].copy_from_slice(&f);
        }
        t
    }

    /// Differentiable forward to `L_cls` (1×embed_dim).
    pub fn forward(&self, g: &mut Graph, layout: &LayoutGraph, die: f64) -> NodeId {
        let feats = g.constant(Self::features(layout, die));
        self.model.forward(g, feats, &layout.edges, &[]).cls
    }

    /// Inference-only encoding of a layout graph.
    pub fn encode(&self, layout: &LayoutGraph, die: f64) -> Tensor {
        let (_, cls) = self
            .model
            .encode(&Self::features(layout, die), &layout.edges);
        cls
    }
}

impl Layer for LayoutEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.model.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::{CellKind, Library, Netlist};
    use nettag_physical::{run_flow, FlowConfig};

    #[test]
    fn rtl_tokenizer_covers_keywords_idents_numbers() {
        let vocab = rtl_vocab();
        let toks = tokenize_rtl(
            &vocab,
            "module m (clk, a);\n  input a;\n  assign w1 = (a + 4'd3);\nendmodule",
            64,
        );
        assert_eq!(toks[0], vocab.special(Special::Cls));
        assert_eq!(
            *toks.last().expect("non-empty"),
            vocab.special(Special::Eos)
        );
        assert!(toks.contains(&vocab.word("module")));
        assert!(toks.contains(&vocab.word("assign")));
        assert!(toks.contains(&vocab.grammar_id(Grammar::Eq)));
    }

    #[test]
    fn rtl_encoder_distinguishes_texts() {
        let vocab = rtl_vocab();
        let config = NetTagConfig::tiny();
        let enc = RtlEncoder::new(&vocab, &config);
        let e1 = enc.encode(&vocab, "assign y = a & b;");
        let e2 = enc.encode(&vocab, "assign y = a | b;");
        assert_ne!(e1, e2);
        assert_eq!(e1.cols, config.embed_dim);
    }

    #[test]
    fn layout_encoder_encodes_flow_output() {
        let mut n = Netlist::new("le");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("G", CellKind::Xor2, vec![a, b]);
        n.add_gate("y", CellKind::Output, vec![g]);
        let n = n.validate().expect("valid");
        let out = run_flow(&n, &Library::default(), &FlowConfig::default());
        let config = NetTagConfig::tiny();
        let enc = LayoutEncoder::new(&config);
        let e = enc.encode(&out.layout, out.placement.die);
        assert_eq!((e.rows, e.cols), (1, config.embed_dim));
        assert!(e.data.iter().all(|v| v.is_finite()));
    }
}
