//! Text-attributed graph (TAG) formulation of netlists — the paper's core
//! data structure (Sec. II-B): `G_N = {T, E}` where each node carries a
//! text attribute combining the gate's name, type, symbolic expression, and
//! physical properties (Fig. 3(b)).

use crate::cell::CellKind;
use crate::expr_extract::ExprScratch;
use crate::graph::{GateId, Netlist};
use crate::inline::GateName;
use nettag_expr::token::{
    frame_tail, tokenize_expr_canonical_into, CanonicalVars, Grammar, Special, TokenId, Vocab,
};
use nettag_expr::Expr;

/// The eight physical characteristics the paper annotates per gate
/// (Fig. 3(b)): power, area, delay, toggle rate, probability, load,
/// capacitance, resistance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhysProps {
    /// Gate power in uW (dynamic + leakage).
    pub power: f64,
    /// Cell area in um^2.
    pub area: f64,
    /// Gate delay in ns (intrinsic + load-dependent).
    pub delay: f64,
    /// Output toggle rate (transitions per cycle).
    pub toggle_rate: f64,
    /// Static probability the output is 1.
    pub probability: f64,
    /// Output load in fF (sum of sink pin caps + wire cap).
    pub load: f64,
    /// Wire capacitance in fF (SPEF-style, set by parasitic extraction).
    pub capacitance: f64,
    /// Wire resistance in kOhm (SPEF-style).
    pub resistance: f64,
}

impl PhysProps {
    /// Dense feature vector (the `x_phys` concatenated with text embeddings
    /// in eq. (2)). Values are log1p-compressed so magnitudes are
    /// comparable across fields.
    pub fn feature_vector(&self) -> [f32; 8] {
        let c = |v: f64| (v.max(0.0)).ln_1p() as f32;
        [
            c(self.power),
            c(self.area),
            c(self.delay),
            self.toggle_rate as f32,
            self.probability as f32,
            c(self.load),
            c(self.capacitance),
            c(self.resistance),
        ]
    }
}

/// One TAG node: the gate plus its full text attribute.
#[derive(Debug, Clone)]
pub struct TagNode {
    /// Gate instance name.
    pub name: GateName,
    /// Cell kind.
    pub kind: CellKind,
    /// Symbolic k-hop expression. [`Tag::attribute_text`] renders it and
    /// [`Tag::node_tokens`] tokenizes it.
    pub expr: Expr,
    /// Physical characteristics.
    pub phys: PhysProps,
}

/// A text-attributed graph.
#[derive(Debug, Clone)]
pub struct Tag {
    /// Design name.
    pub name: String,
    /// Nodes in the same order as the source netlist's gate ids.
    pub nodes: Vec<TagNode>,
    /// Directed edges `(driver, sink)` by node index.
    pub edges: Vec<(u32, u32)>,
}

/// Options for TAG construction.
#[derive(Debug, Clone)]
pub struct TagOptions {
    /// Fan-in cone hops for symbolic expressions (paper: 2).
    pub hops: usize,
    /// Maximum expression size kept in the attribute; larger expressions
    /// are summarized by their 1-hop form to bound token counts.
    pub max_expr_size: usize,
}

impl Default for TagOptions {
    fn default() -> Self {
        TagOptions {
            hops: 2,
            max_expr_size: 600,
        }
    }
}

impl Tag {
    /// Builds the TAG of a netlist with library-derived synthesis-stage
    /// physical estimates (see [`synthesis_phys_estimates`]). Use
    /// [`Tag::from_netlist_with_phys`] to attach signoff-accurate values
    /// from the physical substrate instead.
    pub fn from_netlist(netlist: &Netlist, lib: &crate::cell::Library, opts: &TagOptions) -> Tag {
        let phys = synthesis_phys_estimates(netlist, lib);
        Tag::from_netlist_with_phys(netlist, &phys, opts)
    }

    /// Builds the TAG with caller-provided per-gate physical properties
    /// (indexed by gate id).
    ///
    /// # Panics
    ///
    /// Panics if `phys.len() != netlist.gate_count()`.
    pub fn from_netlist_with_phys(netlist: &Netlist, phys: &[PhysProps], opts: &TagOptions) -> Tag {
        assert_eq!(phys.len(), netlist.gate_count(), "one PhysProps per gate");
        let mut scratch = ExprScratch::new(netlist);
        let mut nodes = Vec::with_capacity(netlist.gate_count());
        for (id, g) in netlist.iter() {
            nodes.push(TagNode {
                name: g.name.clone(),
                kind: g.kind,
                expr: bounded_expr(&mut scratch, netlist, id, opts),
                phys: phys[id.index()],
            });
        }
        let mut edges = Vec::new();
        for (id, g) in netlist.iter() {
            for &f in &g.fanin {
                edges.push((f.0, id.0));
            }
        }
        Tag {
            name: netlist.name().to_string(),
            nodes,
            edges,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the TAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Renders the full human-readable attribute of node `i` in the
    /// paper's Fig. 3(b) prompt format.
    pub fn attribute_text(&self, i: usize) -> String {
        let n = &self.nodes[i];
        format!(
            "[Name] {} [Type] {} [Symbolic expression] {} = {} [Physical property] \
             {{Power: {:.2}, Area: {:.2}, Delay: {:.3}, Toggle Rate: {:.2}, Probability: {:.2}, \
             Load: {:.2}, Capacitance: {:.2}, Resistance: {:.2}}}",
            n.name,
            n.kind,
            n.name,
            n.expr,
            n.phys.power,
            n.phys.area,
            n.phys.delay,
            n.phys.toggle_rate,
            n.phys.probability,
            n.phys.load,
            n.phys.capacitance,
            n.phys.resistance
        )
    }

    /// Tokenizes node `i`'s attribute for ExprLLM:
    /// `[CLS] [NAME] var [TYPE] word [EXPR] var = expr-tokens [PHYS] num*8 [EOS]`.
    ///
    /// When `mask_type` is true the `[TYPE]` word is replaced by `<mask>`.
    /// No pipeline masks: every caller passes `false`.
    pub fn node_tokens(
        &self,
        vocab: &Vocab,
        i: usize,
        max_len: usize,
        mask_type: bool,
    ) -> Vec<TokenId> {
        let n = &self.nodes[i];
        let mut out = Vec::with_capacity(max_len.min(64));
        let mut canon = CanonicalVars::new();
        out.push(vocab.special(Special::Cls));
        out.push(vocab.grammar_id(Grammar::Name));
        out.push(canon.token(vocab, &n.name));
        out.push(vocab.grammar_id(Grammar::Type));
        if mask_type {
            out.push(vocab.special(Special::Mask));
        } else {
            out.push(vocab.word(n.kind.name()));
        }
        out.push(vocab.grammar_id(Grammar::Expr));
        out.push(canon.token(vocab, &n.name));
        out.push(vocab.grammar_id(Grammar::Eq));
        // `frame_tail` keeps the first `max_len - 1` tokens: the rest of a
        // long expression would be cut anyway.
        let cap = max_len.saturating_sub(1);
        tokenize_expr_canonical_into(vocab, &n.expr, &mut canon, &mut out, cap);
        out.push(vocab.grammar_id(Grammar::Phys));
        out.push(vocab.number(n.phys.power));
        out.push(vocab.number(n.phys.area));
        out.push(vocab.number(n.phys.delay));
        out.push(vocab.number(n.phys.toggle_rate));
        out.push(vocab.number(n.phys.probability));
        out.push(vocab.number(n.phys.load));
        out.push(vocab.number(n.phys.capacitance));
        out.push(vocab.number(n.phys.resistance));
        frame_tail(vocab, out, max_len)
    }
}

fn bounded_expr(
    scratch: &mut ExprScratch,
    netlist: &Netlist,
    id: GateId,
    opts: &TagOptions,
) -> Expr {
    let e = scratch.gate_expr(netlist, id, opts.hops);
    if e.size() <= opts.max_expr_size || opts.hops <= 1 {
        e
    } else {
        scratch.gate_expr(netlist, id, 1)
    }
}

/// Synthesis-stage physical estimates from the library alone (no layout
/// information): area and leakage from cell parameters, probability from
/// the cell function's truth table, toggle rates from a simple
/// transition model, load from fan-out pin caps. The physical-design crate
/// refines these with placement-aware values.
pub fn synthesis_phys_estimates(netlist: &Netlist, lib: &crate::cell::Library) -> Vec<PhysProps> {
    let mut out = vec![PhysProps::default(); netlist.gate_count()];
    // Signal probabilities by forward propagation in topo order, assuming
    // independent inputs at p=0.5 (the standard static estimate).
    let order = crate::traverse::topo_order(netlist);
    let mut prob = vec![0.5f64; netlist.gate_count()];
    for &id in &order {
        let g = netlist.gate(id);
        prob[id.index()] = match g.kind {
            CellKind::Input => 0.5,
            CellKind::Const0 => 0.0,
            CellKind::Const1 => 1.0,
            CellKind::Output | CellKind::Buf => prob[g.fanin[0].index()],
            k if k.is_sequential() => 0.5,
            k => {
                // Weighted truth table: row bit `j` is pin `j`'s value, and
                // every cell function reads all of its pins.
                let mut p1 = 0.0f64;
                for row in 0..1usize << k.arity() {
                    if !k.eval_row(row) {
                        continue;
                    }
                    let mut w = 1.0;
                    for (j, f) in g.fanin.iter().enumerate() {
                        let pj = prob[f.index()];
                        w *= if row >> j & 1 == 1 { pj } else { 1.0 - pj };
                    }
                    p1 += w;
                }
                p1
            }
        };
    }
    for (id, g) in netlist.iter() {
        let p = lib.params(g.kind);
        let fanout_cap: f64 = netlist
            .fanout(id)
            .iter()
            .map(|&s| lib.params(netlist.gate(s).kind).input_cap)
            .sum();
        let pr = prob[id.index()];
        // Transition density of an uncorrelated signal: 2 p (1 - p).
        let toggle = 2.0 * pr * (1.0 - pr);
        let delay = p.intrinsic_delay + p.drive_res * fanout_cap * 1e-3;
        let dynamic = toggle * (p.internal_energy + 0.5 * fanout_cap) * 1e-2;
        out[id.index()] = PhysProps {
            power: p.leakage + dynamic,
            area: p.area * g.size,
            delay,
            toggle_rate: toggle,
            probability: pr,
            load: fanout_cap,
            capacitance: 0.0,
            resistance: 0.0,
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Library;

    fn example() -> Netlist {
        let mut n = Netlist::new("tag_demo");
        let d = n.add_gate("d", CellKind::Input, vec![]);
        let r1 = n.add_gate("R1", CellKind::Dff, vec![d]);
        let r2 = n.add_gate("R2", CellKind::Dff, vec![d]);
        let x = n.add_gate("X", CellKind::Xor2, vec![r1, r2]);
        let inv = n.add_gate("N", CellKind::Inv, vec![r2]);
        let u3 = n.add_gate("U3", CellKind::Nor2, vec![x, inv]);
        n.add_gate("y", CellKind::Output, vec![u3]);
        n.validate().expect("valid")
    }

    #[test]
    fn tag_has_one_node_per_gate_and_edge_per_pin() {
        let n = example();
        let tag = Tag::from_netlist(&n, &Library::default(), &TagOptions::default());
        assert_eq!(tag.len(), n.gate_count());
        let pins: usize = n.iter().map(|(_, g)| g.fanin.len()).sum();
        assert_eq!(tag.edges.len(), pins);
    }

    #[test]
    fn attribute_text_follows_fig3b_format() {
        let n = example();
        let tag = Tag::from_netlist(&n, &Library::default(), &TagOptions::default());
        let u3 = n.find("U3").expect("exists").index();
        let text = tag.attribute_text(u3);
        assert!(text.contains("[Name] U3"));
        assert!(text.contains("[Type] NOR2"));
        assert!(text.contains("[Symbolic expression] U3 ="));
        assert!(text.contains("Probability:"));
        assert!(text.contains("Resistance:"));
    }

    #[test]
    fn node_tokens_frame_and_mask() {
        let n = example();
        let lib = Library::default();
        let vocab = Vocab::new(lib.cell_names());
        let tag = Tag::from_netlist(&n, &lib, &TagOptions::default());
        let u3 = n.find("U3").expect("exists").index();
        let toks = tag.node_tokens(&vocab, u3, 96, false);
        assert_eq!(toks[0], vocab.special(Special::Cls));
        assert_eq!(
            *toks.last().expect("non-empty"),
            vocab.special(Special::Eos)
        );
        assert!(toks.contains(&vocab.word("NOR2")));
        let masked = tag.node_tokens(&vocab, u3, 96, true);
        assert!(!masked.contains(&vocab.word("NOR2")));
        assert!(masked.contains(&vocab.special(Special::Mask)));
    }

    #[test]
    fn synthesis_estimates_are_physical() {
        let n = example();
        let phys = synthesis_phys_estimates(&n, &Library::default());
        let u3 = n.find("U3").expect("exists").index();
        assert!(phys[u3].area > 0.0);
        assert!(phys[u3].power > 0.0);
        assert!(phys[u3].delay > 0.0);
        assert!((0.0..=1.0).contains(&phys[u3].probability));
        // XOR of two independent 0.5 signals has p = 0.5; NOR(x, !b) lower.
        let x = n.find("X").expect("exists").index();
        assert!((phys[x].probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn probability_respects_gate_function() {
        // AND of two inputs: p = 0.25. OR: p = 0.75.
        let mut nl = Netlist::new("p");
        let a = nl.add_gate("a", CellKind::Input, vec![]);
        let b = nl.add_gate("b", CellKind::Input, vec![]);
        let g_and = nl.add_gate("ga", CellKind::And2, vec![a, b]);
        let g_or = nl.add_gate("go", CellKind::Or2, vec![a, b]);
        nl.add_gate("y1", CellKind::Output, vec![g_and]);
        nl.add_gate("y2", CellKind::Output, vec![g_or]);
        let nl = nl.validate().expect("valid");
        let phys = synthesis_phys_estimates(&nl, &Library::default());
        assert!((phys[g_and.index()].probability - 0.25).abs() < 1e-9);
        assert!((phys[g_or.index()].probability - 0.75).abs() < 1e-9);
    }

    #[test]
    fn feature_vector_is_finite_and_bounded() {
        let n = example();
        let tag = Tag::from_netlist(&n, &Library::default(), &TagOptions::default());
        for node in &tag.nodes {
            for v in node.phys.feature_vector() {
                assert!(v.is_finite());
            }
        }
    }
}
