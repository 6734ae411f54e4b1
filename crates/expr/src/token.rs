//! Tokenization of gate text attributes for ExprLLM.
//!
//! ExprLLM consumes the per-gate text attribute of Fig. 3(b):
//!
//! ```text
//! [Name] U3 [Type] NOR [Symbolic expression] U3 = !(R1^R2|!R2)
//! [Physical property] {Power: 3.3, Area: 1.1, ...}
//! ```
//!
//! Instead of a byte-pair vocabulary (the paper inherits Llama's tokenizer),
//! we use a compact closed vocabulary tailored to the expression grammar:
//! structural tokens, operator tokens, hashed variable-name buckets, a
//! configurable word list (gate/cell type names), and quantized numeric
//! buckets for physical properties. This keeps the from-scratch encoder
//! small while preserving what the model must read: operator structure,
//! variable identity (approximately, via buckets), gate types, and physical
//! magnitudes.

use crate::ast::Expr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A token id into a [`Vocab`].
pub type TokenId = u32;

/// Number of hashed variable buckets.
pub const VAR_BUCKETS: u32 = 64;
/// Number of quantized numeric buckets for physical values.
pub const NUM_BUCKETS: u32 = 32;

/// Reserved special tokens, in fixed id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Special {
    /// Padding.
    Pad = 0,
    /// Sequence-level classification token (prepended; its output embedding
    /// is the attribute embedding).
    Cls = 1,
    /// End of sequence.
    Eos = 2,
    /// Out-of-vocabulary fallback.
    Unk = 3,
    /// Mask token (reserved for masked-token style probing).
    Mask = 4,
}

/// Fixed grammar tokens that follow the specials, in [`Grammar`] order.
const GRAMMAR: [&str; 16] = [
    "(", ")", "!", "&", "|", "^", "=", ",", "Ite", "0", "1", "[NAME]", "[TYPE]", "[EXPR]",
    "[PHYS]", "[SEP]",
];

/// A grammar token, by its position in the fixed grammar list, so its
/// [`Vocab::grammar_id`] is one add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Grammar {
    /// `(`
    Open,
    /// `)`
    Close,
    /// `!`
    Not,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `=`
    Eq,
    /// `,`
    Comma,
    /// `Ite`
    Ite,
    /// `0`
    Zero,
    /// `1`
    One,
    /// `[NAME]`
    Name,
    /// `[TYPE]`
    Type,
    /// `[EXPR]`
    Expr,
    /// `[PHYS]`
    Phys,
    /// `[SEP]`
    Sep,
}

/// A closed token vocabulary shared by ExprLLM and the RTL encoder.
#[derive(Debug, Clone)]
pub struct Vocab {
    words: Vec<String>,
    word_ids: HashMap<String, TokenId>,
    grammar_base: TokenId,
    word_base: TokenId,
    var_base: TokenId,
    num_base: TokenId,
    size: u32,
}

impl Vocab {
    /// Builds a vocabulary with the given domain word list (gate type names,
    /// RTL keywords, field names). Duplicate words are ignored.
    pub fn new<I, S>(domain_words: I) -> Vocab
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let grammar_base = 5; // after the 5 specials
        let word_base = grammar_base + GRAMMAR.len() as u32;
        let mut words = Vec::new();
        let mut word_ids = HashMap::new();
        for w in domain_words {
            let w = w.as_ref().to_string();
            if !word_ids.contains_key(&w) {
                word_ids.insert(w.clone(), word_base + words.len() as TokenId);
                words.push(w);
            }
        }
        let var_base = word_base + words.len() as u32;
        let num_base = var_base + VAR_BUCKETS;
        let size = num_base + NUM_BUCKETS;
        Vocab {
            words,
            word_ids,
            grammar_base,
            word_base,
            var_base,
            num_base,
            size,
        }
    }

    /// Total number of token ids.
    pub fn len(&self) -> usize {
        self.size as usize
    }

    /// Whether the vocabulary is empty (never true: specials always exist).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Id of a special token.
    pub fn special(&self, s: Special) -> TokenId {
        s as TokenId
    }

    /// Id of a grammar token.
    pub fn grammar_id(&self, g: Grammar) -> TokenId {
        self.grammar_base + g as TokenId
    }

    /// Id of a domain word, or `Unk` when not registered.
    pub fn word(&self, w: &str) -> TokenId {
        self.word_ids
            .get(w)
            .copied()
            .unwrap_or(Special::Unk as TokenId)
    }

    /// Canonical-slot variable token (used by [`CanonicalVars`]).
    pub fn canonical_var(&self, slot: u32) -> TokenId {
        self.var_base + slot % VAR_BUCKETS
    }

    /// Bucketed id for a variable name. Names hash into [`VAR_BUCKETS`]
    /// buckets; the numeric suffix (if any) perturbs the hash so `R1`/`R2`
    /// usually land apart.
    pub fn var(&self, name: &str) -> TokenId {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        self.var_base + (h.finish() % u64::from(VAR_BUCKETS)) as TokenId
    }

    /// Quantized id for a physical value: log-scaled into [`NUM_BUCKETS`]
    /// buckets over roughly `[1e-4, 1e4]`.
    pub fn number(&self, value: f64) -> TokenId {
        let v = value.abs().clamp(1e-4, 1e4);
        let t = (v.log10() + 4.0) / 8.0; // 0..1
        let bucket = ((t * f64::from(NUM_BUCKETS - 1)).round() as u32).min(NUM_BUCKETS - 1);
        self.num_base + bucket
    }

    /// Human-readable form of a token id (for debugging / the demo example).
    pub fn describe(&self, id: TokenId) -> String {
        match id {
            0 => "<pad>".into(),
            1 => "<cls>".into(),
            2 => "<eos>".into(),
            3 => "<unk>".into(),
            4 => "<mask>".into(),
            _ if id >= self.num_base => format!("<num{}>", id - self.num_base),
            _ if id >= self.var_base => format!("<var{}>", id - self.var_base),
            _ if id >= self.word_base => self.words[(id - self.word_base) as usize].clone(),
            _ => GRAMMAR[(id - self.grammar_base) as usize].to_string(),
        }
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new(std::iter::empty::<&str>())
    }
}

/// Canonical variable numbering: variables are tokenized by order of
/// first appearance (`VAR_0`, `VAR_1`, …) instead of by hashed name, so
/// structurally identical expressions from different designs tokenize
/// identically — small encoders cannot abstract over name noise the way
/// an 8B LLM can, so canonicalization stands in for that capability.
///
/// It borrows the names it has seen, in slot order: a gate text holds a
/// few dozen at most, so a scan beats hashing them.
#[derive(Debug, Default)]
pub struct CanonicalVars<'a> {
    names: Vec<&'a str>,
}

impl<'a> CanonicalVars<'a> {
    /// Creates an empty numbering.
    pub fn new() -> CanonicalVars<'a> {
        CanonicalVars::default()
    }

    /// Token id for `name`, assigning the next canonical slot on first use.
    pub fn token(&mut self, vocab: &Vocab, name: &'a str) -> TokenId {
        let slot = match self.names.iter().position(|&n| n == name) {
            Some(slot) => slot,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        vocab.canonical_var(slot as u32)
    }
}

/// Streams the tokens of an expression into `out` with canonical variable
/// numbering (no CLS/EOS framing), stopping once `out` holds `cap` tokens
/// (it may pass `cap` by a few). [`frame_tail`] keeps only the first
/// `max_len - 1` tokens of a body, so a caller that frames with it passes
/// that as `cap` and skips the rest of a long expression; `usize::MAX`
/// streams it whole.
pub fn tokenize_expr_canonical_into<'a>(
    vocab: &Vocab,
    expr: &'a Expr,
    canon: &mut CanonicalVars<'a>,
    out: &mut Vec<TokenId>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    let g = |t| vocab.grammar_id(t);
    match expr {
        Expr::Const(false) => out.push(g(Grammar::Zero)),
        Expr::Const(true) => out.push(g(Grammar::One)),
        Expr::Var(v) => out.push(canon.token(vocab, v)),
        Expr::Not(e) => {
            out.push(g(Grammar::Not));
            group_canon(vocab, e, canon, out, cap);
        }
        Expr::And(es) => infix_canon(vocab, es, Grammar::And, canon, out, cap),
        Expr::Or(es) => infix_canon(vocab, es, Grammar::Or, canon, out, cap),
        Expr::Xor(es) => infix_canon(vocab, es, Grammar::Xor, canon, out, cap),
        Expr::Ite(s, t, e) => {
            out.push(g(Grammar::Ite));
            out.push(g(Grammar::Open));
            tokenize_expr_canonical_into(vocab, s, canon, out, cap);
            out.push(g(Grammar::Comma));
            tokenize_expr_canonical_into(vocab, t, canon, out, cap);
            out.push(g(Grammar::Comma));
            tokenize_expr_canonical_into(vocab, e, canon, out, cap);
            out.push(g(Grammar::Close));
        }
    }
}

fn group_canon<'a>(
    vocab: &Vocab,
    e: &'a Expr,
    canon: &mut CanonicalVars<'a>,
    out: &mut Vec<TokenId>,
    cap: usize,
) {
    if e.is_leaf() {
        tokenize_expr_canonical_into(vocab, e, canon, out, cap);
    } else {
        out.push(vocab.grammar_id(Grammar::Open));
        tokenize_expr_canonical_into(vocab, e, canon, out, cap);
        out.push(vocab.grammar_id(Grammar::Close));
    }
}

fn infix_canon<'a>(
    vocab: &Vocab,
    es: &'a [Expr],
    op: Grammar,
    canon: &mut CanonicalVars<'a>,
    out: &mut Vec<TokenId>,
    cap: usize,
) {
    for (i, e) in es.iter().enumerate() {
        if out.len() >= cap {
            return;
        }
        if i > 0 {
            out.push(vocab.grammar_id(op));
        }
        group_canon(vocab, e, canon, out, cap);
    }
}

/// Tokenizes a bare expression with `[CLS] ... [EOS]` framing and
/// canonical variable numbering, truncated to `max_len` (the EOS is
/// always kept).
pub fn tokenize_expr(vocab: &Vocab, expr: &Expr, max_len: usize) -> Vec<TokenId> {
    let mut out = Vec::with_capacity(max_len.min(expr.size() * 2 + 2));
    out.push(vocab.special(Special::Cls));
    let mut canon = CanonicalVars::new();
    tokenize_expr_canonical_into(vocab, expr, &mut canon, &mut out, max_len.saturating_sub(1));
    frame_tail(vocab, out, max_len)
}

/// Applies EOS framing + truncation to an already-built token body.
pub fn frame_tail(vocab: &Vocab, mut body: Vec<TokenId>, max_len: usize) -> Vec<TokenId> {
    debug_assert!(max_len >= 2, "max_len must fit CLS and EOS");
    if body.len() >= max_len {
        body.truncate(max_len - 1);
    }
    body.push(vocab.special(Special::Eos));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;

    #[test]
    fn vocab_layout_is_disjoint() {
        let v = Vocab::new(["NOR", "NAND", "DFF"]);
        let ids = [
            v.special(Special::Cls),
            v.grammar_id(Grammar::Open),
            v.grammar_id(Grammar::Ite),
            v.word("NOR"),
            v.word("DFF"),
            v.var("R1"),
            v.number(3.3),
        ];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "token classes overlap: {ids:?}");
        assert!(ids.iter().all(|&i| (i as usize) < v.len()));
    }

    #[test]
    fn grammar_ids_name_their_text() {
        let v = Vocab::default();
        let all = [
            (Grammar::Open, "("),
            (Grammar::Close, ")"),
            (Grammar::Not, "!"),
            (Grammar::And, "&"),
            (Grammar::Or, "|"),
            (Grammar::Xor, "^"),
            (Grammar::Eq, "="),
            (Grammar::Comma, ","),
            (Grammar::Ite, "Ite"),
            (Grammar::Zero, "0"),
            (Grammar::One, "1"),
            (Grammar::Name, "[NAME]"),
            (Grammar::Type, "[TYPE]"),
            (Grammar::Expr, "[EXPR]"),
            (Grammar::Phys, "[PHYS]"),
            (Grammar::Sep, "[SEP]"),
        ];
        assert_eq!(all.len(), GRAMMAR.len());
        for (g, text) in all {
            assert_eq!(v.describe(v.grammar_id(g)), text);
        }
    }

    #[test]
    fn capped_streaming_frames_like_the_whole_stream() {
        let v = Vocab::default();
        let e = parse_expr("Ite(a, !(b & c), d ^ (e | !a)) & (f | g)").expect("parses");
        let mut whole = vec![v.special(Special::Cls)];
        tokenize_expr_canonical_into(&v, &e, &mut CanonicalVars::new(), &mut whole, usize::MAX);
        for max_len in 2..whole.len() + 3 {
            let capped = tokenize_expr(&v, &e, max_len);
            assert_eq!(capped, frame_tail(&v, whole.clone(), max_len), "{max_len}");
        }
    }

    #[test]
    fn unknown_word_maps_to_unk() {
        let v = Vocab::new(["NOR"]);
        assert_eq!(v.word("XYZZY"), Special::Unk as TokenId);
    }

    #[test]
    fn tokenizes_paper_expression() {
        let v = Vocab::default();
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        let toks = tokenize_expr(&v, &e, 64);
        assert_eq!(toks[0], v.special(Special::Cls));
        assert_eq!(*toks.last().expect("non-empty"), v.special(Special::Eos));
        // R2 appears twice and must map to the same canonical slot both
        // times; R1 appears first, so it takes slot 0.
        let r2 = v.canonical_var(1);
        assert_eq!(toks.iter().filter(|&&t| t == r2).count(), 2);
        // Canonicalization: renaming the variables leaves tokens unchanged.
        let renamed = crate::parse_expr("!((Qa ^ Qb) | !Qb)").expect("parses");
        assert_eq!(tokenize_expr(&v, &renamed, 64), toks);
    }

    #[test]
    fn truncation_keeps_eos() {
        let v = Vocab::default();
        let e = parse_expr("a & b & c & d & e & f & g & h").expect("parses");
        let toks = tokenize_expr(&v, &e, 6);
        assert_eq!(toks.len(), 6);
        assert_eq!(*toks.last().expect("non-empty"), v.special(Special::Eos));
    }

    #[test]
    fn numeric_buckets_are_monotone_in_magnitude() {
        let v = Vocab::default();
        let small = v.number(0.001);
        let mid = v.number(1.0);
        let large = v.number(500.0);
        assert!(small < mid && mid < large);
        // Clamped at the extremes rather than panicking.
        assert_eq!(v.number(1e9), v.number(1e4));
        assert_eq!(v.number(0.0), v.number(1e-4));
    }

    #[test]
    fn describe_round_trips_token_classes() {
        let v = Vocab::new(["MUX2"]);
        assert_eq!(v.describe(v.word("MUX2")), "MUX2");
        assert_eq!(v.describe(v.grammar_id(Grammar::Xor)), "^");
        assert_eq!(v.describe(v.special(Special::Cls)), "<cls>");
        assert!(v.describe(v.var("R1")).starts_with("<var"));
        assert!(v.describe(v.number(2.0)).starts_with("<num"));
    }
}
