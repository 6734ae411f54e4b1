//! Elaboration: word-level RTL → gate-level netlist with provenance labels.
//!
//! This is the "Synopsys Design Compiler" stage of the substituted flow.
//! Every gate created while lowering a word-level operator is tagged with
//! that operator's [`BlockLabel`] (the Task 1 ground truth, which GNN-RE
//! obtains from RTL provenance the same way), and every register bit
//! carries its RTL `is_state` flag (the Task 2 ground truth).

use crate::rtl::{BlockLabel, RtlModule, SignalId, SignalKind, WordExpr};
use nettag_netlist::{CellKind, GateId, Netlist};
use std::collections::HashMap;

/// Per-gate provenance recorded during elaboration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GateLabel {
    /// The functional block the gate implements (None for pseudo-cells and
    /// plain wiring).
    pub block: Option<BlockLabel>,
    /// For sequential cells: whether the register holds control state.
    pub is_state_reg: Option<bool>,
}

/// A synthesized design: netlist + provenance labels + source RTL.
#[derive(Debug, Clone)]
pub struct Design {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Per-gate labels aligned with gate ids.
    pub labels: Vec<GateLabel>,
    /// The source RTL module (kept for the RTL modality and cross-stage
    /// alignment).
    pub rtl: RtlModule,
}

impl Design {
    /// Label of one gate.
    pub fn label(&self, id: GateId) -> GateLabel {
        self.labels[id.index()]
    }
}

/// Elaborates an RTL module into a labeled gate-level netlist.
///
/// # Panics
///
/// Panics if the module references undriven wires (assignments must be in
/// topological order) or exceeds 64-bit signal widths.
pub fn elaborate(rtl: &RtlModule) -> Design {
    let mut e = Elaborator {
        rtl,
        netlist: Netlist::new(rtl.name.clone()),
        labels: Vec::new(),
        bits: HashMap::new(),
        const0: None,
        const1: None,
        counter: 0,
    };
    // 1. Primary inputs.
    for (i, sig) in rtl.signals.iter().enumerate() {
        if sig.kind == SignalKind::Input {
            let bits: Vec<GateId> = (0..sig.width)
                .map(|b| {
                    e.add(
                        format!("{}_{b}", sig.name),
                        CellKind::Input,
                        vec![],
                        GateLabel::default(),
                    )
                })
                .collect();
            e.bits.insert(SignalId(i as u32), bits);
        }
    }
    // 2. Registers (placeholder fan-in, patched after next-state lowering).
    for r in &rtl.regs {
        let sig = rtl.sig(r.target);
        let kind = if r.enable.is_some() {
            CellKind::DffE
        } else {
            CellKind::Dff
        };
        let label = GateLabel {
            block: None,
            is_state_reg: Some(r.is_state),
        };
        let bits: Vec<GateId> = (0..sig.width)
            .map(|b| e.add(format!("{}_{b}", sig.name), kind, vec![], label))
            .collect();
        e.bits.insert(r.target, bits);
    }
    // 3. Combinational assignments in order.
    for a in &rtl.assigns {
        let width = rtl.sig(a.target).width;
        let bits = e.lower(&a.expr, width);
        let sig = rtl.sig(a.target);
        if sig.kind == SignalKind::Output {
            for (b, &bit) in bits.iter().enumerate() {
                let name = format!("{}_{b}", sig.name);
                e.add(name, CellKind::Output, vec![bit], GateLabel::default());
            }
        }
        e.bits.insert(a.target, bits);
    }
    // 4. Patch register D pins (and enables).
    for r in &rtl.regs {
        let width = rtl.sig(r.target).width;
        let next_bits = e.lower(&r.next, width);
        let en_bit = r.enable.as_ref().map(|en| e.lower(en, 1)[0]);
        let reg_bits = e.bits[&r.target].clone();
        for (b, &reg) in reg_bits.iter().enumerate() {
            let mut fanin = vec![next_bits[b]];
            if let Some(en) = en_bit {
                fanin.push(en);
            }
            e.netlist.gate_mut(reg).fanin = fanin.into();
        }
    }
    // 5. Registered outputs: a Reg that is also read as a port.
    for (i, sig) in rtl.signals.iter().enumerate() {
        if sig.kind == SignalKind::Output && !e.bits.contains_key(&SignalId(i as u32)) {
            // Output never assigned: tie low (keeps generators honest).
            let z = e.zero();
            let bits = vec![z; sig.width as usize];
            for (b, &bit) in bits.iter().enumerate() {
                e.add(
                    format!("{}_{b}", sig.name),
                    CellKind::Output,
                    vec![bit],
                    GateLabel::default(),
                );
            }
            e.bits.insert(SignalId(i as u32), bits);
        }
    }
    let netlist = e
        .netlist
        .validate()
        .expect("elaboration produces well-formed netlists");
    Design {
        netlist,
        labels: e.labels,
        rtl: rtl.clone(),
    }
}

struct Elaborator<'a> {
    rtl: &'a RtlModule,
    netlist: Netlist,
    labels: Vec<GateLabel>,
    bits: HashMap<SignalId, Vec<GateId>>,
    const0: Option<GateId>,
    const1: Option<GateId>,
    counter: u64,
}

impl Elaborator<'_> {
    fn add(
        &mut self,
        name: String,
        kind: CellKind,
        fanin: Vec<GateId>,
        label: GateLabel,
    ) -> GateId {
        let id = self.netlist.add_gate(name, kind, fanin);
        self.labels.push(label);
        id
    }

    fn fresh(&mut self, kind: CellKind, fanin: Vec<GateId>, block: BlockLabel) -> GateId {
        self.counter += 1;
        let name = format!("U{}", self.counter);
        self.add(
            name,
            kind,
            fanin,
            GateLabel {
                block: Some(block),
                is_state_reg: None,
            },
        )
    }

    fn zero(&mut self) -> GateId {
        if let Some(z) = self.const0 {
            return z;
        }
        let z = self.add(
            "const0".into(),
            CellKind::Const0,
            vec![],
            GateLabel::default(),
        );
        self.const0 = Some(z);
        z
    }

    fn one(&mut self) -> GateId {
        if let Some(o) = self.const1 {
            return o;
        }
        let o = self.add(
            "const1".into(),
            CellKind::Const1,
            vec![],
            GateLabel::default(),
        );
        self.const1 = Some(o);
        o
    }

    /// Zero-extends or truncates a bit vector to `width`.
    fn resize(&mut self, mut bits: Vec<GateId>, width: u8) -> Vec<GateId> {
        let w = width as usize;
        if bits.len() > w {
            bits.truncate(w);
        }
        while bits.len() < w {
            bits.push(self.zero());
        }
        bits
    }

    /// Lowers `expr` to exactly `width` output bits.
    fn lower(&mut self, expr: &WordExpr, width: u8) -> Vec<GateId> {
        let bits = self.lower_natural(expr);
        self.resize(bits, width)
    }

    /// Lowers at the expression's natural width.
    fn lower_natural(&mut self, expr: &WordExpr) -> Vec<GateId> {
        let w = self.rtl.expr_width(expr);
        match expr {
            WordExpr::Sig(id) => self.bits[id].clone(),
            WordExpr::Const { value, width } => {
                let mut out = Vec::with_capacity(*width as usize);
                for b in 0..*width {
                    out.push(if value >> b & 1 == 1 {
                        self.one()
                    } else {
                        self.zero()
                    });
                }
                out
            }
            WordExpr::Add(a, b) => {
                let (xa, xb) = self.lower_pair(a, b, w);
                self.ripple_add(&xa, &xb, None, BlockLabel::Adder)
            }
            WordExpr::Sub(a, b) => {
                // a - b = a + !b + 1.
                let (xa, xb) = self.lower_pair(a, b, w);
                let nb: Vec<GateId> = xb
                    .iter()
                    .map(|&x| self.fresh(CellKind::Inv, vec![x], BlockLabel::Adder))
                    .collect();
                let one = self.one();
                self.ripple_add(&xa, &nb, Some(one), BlockLabel::Adder)
            }
            WordExpr::Mul(a, b) => {
                let (xa, xb) = self.lower_pair(a, b, w);
                self.array_multiply(&xa, &xb)
            }
            WordExpr::Lt(a, b) => {
                let w2 = self.rtl.expr_width(a).max(self.rtl.expr_width(b));
                let (xa, xb) = self.lower_pair(a, b, w2);
                vec![self.less_than(&xa, &xb)]
            }
            WordExpr::Eq(a, b) => {
                let w2 = self.rtl.expr_width(a).max(self.rtl.expr_width(b));
                let (xa, xb) = self.lower_pair(a, b, w2);
                vec![self.equals(&xa, &xb)]
            }
            WordExpr::And(a, b) => self.bitwise2(a, b, w, CellKind::And2),
            WordExpr::Or(a, b) => self.bitwise2(a, b, w, CellKind::Or2),
            WordExpr::Xor(a, b) => self.bitwise2(a, b, w, CellKind::Xor2),
            WordExpr::Not(a) => {
                let xa = self.lower(a, w);
                xa.iter()
                    .map(|&x| self.fresh(CellKind::Inv, vec![x], BlockLabel::Logic))
                    .collect()
            }
            WordExpr::Mux(s, a, b) => {
                let xs = self.lower(s, 1)[0];
                let xa = self.lower(a, w);
                let xb = self.lower(b, w);
                (0..w as usize)
                    .map(|i| {
                        self.fresh(CellKind::Mux2, vec![xs, xa[i], xb[i]], BlockLabel::Control)
                    })
                    .collect()
            }
            WordExpr::Shl(a, k) => {
                let xa = self.lower(a, w);
                let z = self.zero();
                let k = *k as usize;
                let mut out = vec![z; k.min(w as usize)];
                out.extend(xa.iter().copied().take((w as usize).saturating_sub(k)));
                out
            }
            WordExpr::Shr(a, k) => {
                let xa = self.lower(a, w);
                let z = self.zero();
                let k = *k as usize;
                let mut out: Vec<GateId> = xa.iter().copied().skip(k).collect();
                while out.len() < w as usize {
                    out.push(z);
                }
                out
            }
        }
    }

    fn lower_pair(&mut self, a: &WordExpr, b: &WordExpr, w: u8) -> (Vec<GateId>, Vec<GateId>) {
        let xa = self.lower(a, w);
        let xb = self.lower(b, w);
        (xa, xb)
    }

    fn bitwise2(&mut self, a: &WordExpr, b: &WordExpr, w: u8, kind: CellKind) -> Vec<GateId> {
        let (xa, xb) = self.lower_pair(a, b, w);
        (0..w as usize)
            .map(|i| self.fresh(kind, vec![xa[i], xb[i]], BlockLabel::Logic))
            .collect()
    }

    /// Ripple-carry adder built from FA_SUM / FA_CARRY complex cells.
    fn ripple_add(
        &mut self,
        a: &[GateId],
        b: &[GateId],
        carry_in: Option<GateId>,
        label: BlockLabel,
    ) -> Vec<GateId> {
        let mut carry = match carry_in {
            Some(c) => c,
            None => self.zero(),
        };
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let s = self.fresh(CellKind::FaSum, vec![a[i], b[i], carry], label);
            let c = self.fresh(CellKind::FaCarry, vec![a[i], b[i], carry], label);
            out.push(s);
            carry = c;
        }
        out
    }

    /// Array multiplier: AND partial products + rows of ripple adders,
    /// truncated to the operand width.
    fn array_multiply(&mut self, a: &[GateId], b: &[GateId]) -> Vec<GateId> {
        let w = a.len();
        let z = self.zero();
        // acc starts as row 0.
        let mut acc: Vec<GateId> = (0..w)
            .map(|i| self.fresh(CellKind::And2, vec![a[i], b[0]], BlockLabel::Multiplier))
            .collect();
        for j in 1..w {
            // Row j: (a & b_j) << j, truncated.
            let mut row = vec![z; w];
            for i in 0..w.saturating_sub(j) {
                row[i + j] = self.fresh(CellKind::And2, vec![a[i], b[j]], BlockLabel::Multiplier);
            }
            acc = self.ripple_add(&acc, &row, None, BlockLabel::Multiplier);
        }
        acc
    }

    /// Unsigned `a < b` via LSB-to-MSB ripple:
    /// `lt_i = (!a_i & b_i) | (xnor(a_i, b_i) & lt_{i-1})`.
    fn less_than(&mut self, a: &[GateId], b: &[GateId]) -> GateId {
        let mut lt = self.zero();
        for i in 0..a.len() {
            let na = self.fresh(CellKind::Inv, vec![a[i]], BlockLabel::Comparator);
            let strict = self.fresh(CellKind::And2, vec![na, b[i]], BlockLabel::Comparator);
            let same = self.fresh(CellKind::Xnor2, vec![a[i], b[i]], BlockLabel::Comparator);
            let keep = self.fresh(CellKind::And2, vec![same, lt], BlockLabel::Comparator);
            lt = self.fresh(CellKind::Or2, vec![strict, keep], BlockLabel::Comparator);
        }
        lt
    }

    /// `a == b` via XNOR reduction tree.
    fn equals(&mut self, a: &[GateId], b: &[GateId]) -> GateId {
        let mut terms: Vec<GateId> = (0..a.len())
            .map(|i| self.fresh(CellKind::Xnor2, vec![a[i], b[i]], BlockLabel::Comparator))
            .collect();
        while terms.len() > 1 {
            let mut next = Vec::with_capacity(terms.len().div_ceil(2));
            for pair in terms.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.fresh(
                        CellKind::And2,
                        vec![pair[0], pair[1]],
                        BlockLabel::Comparator,
                    ));
                } else {
                    next.push(pair[0]);
                }
            }
            terms = next;
        }
        terms[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::{RtlModule, SignalKind, WordExpr};
    use nettag_netlist::{next_register_values, simulate_comb};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn be(e: WordExpr) -> Box<WordExpr> {
        Box::new(e)
    }

    /// Drives the gate-level netlist with word values and reads a word back.
    fn run_netlist(d: &Design, inputs: &[(&str, u8, u64)], out_name: &str, out_width: u8) -> u64 {
        let mut src = HashMap::new();
        for (name, width, value) in inputs {
            for b in 0..*width {
                let id = d
                    .netlist
                    .find(&format!("{name}_{b}"))
                    .unwrap_or_else(|| panic!("input bit {name}_{b}"));
                src.insert(id, value >> b & 1 == 1);
            }
        }
        let values = simulate_comb(&d.netlist, &src);
        let mut out = 0u64;
        for b in 0..out_width {
            let id = d
                .netlist
                .find(&format!("{out_name}_{b}"))
                .unwrap_or_else(|| panic!("output bit {out_name}_{b}"));
            if values[id.index()] {
                out |= 1 << b;
            }
        }
        out
    }

    fn binop_module(
        f: impl Fn(Box<WordExpr>, Box<WordExpr>) -> WordExpr,
        w: u8,
        out_w: u8,
    ) -> Design {
        let mut m = RtlModule::new("binop");
        let a = m.signal("a", w, SignalKind::Input);
        let b = m.signal("b", w, SignalKind::Input);
        let y = m.signal("y", out_w, SignalKind::Output);
        m.assign(y, f(be(WordExpr::sig(a)), be(WordExpr::sig(b))));
        elaborate(&m)
    }

    #[test]
    fn adder_matches_arithmetic() {
        let d = binop_module(WordExpr::Add, 4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            let a = rng.gen_range(0..16u64);
            let b = rng.gen_range(0..16u64);
            let got = run_netlist(&d, &[("a", 4, a), ("b", 4, b)], "y", 4);
            assert_eq!(got, (a + b) & 15, "{a}+{b}");
        }
    }

    #[test]
    fn subtractor_matches_arithmetic() {
        let d = binop_module(WordExpr::Sub, 4, 4);
        for (a, b) in [(9u64, 3u64), (3, 9), (15, 15), (0, 1)] {
            let got = run_netlist(&d, &[("a", 4, a), ("b", 4, b)], "y", 4);
            assert_eq!(got, a.wrapping_sub(b) & 15, "{a}-{b}");
        }
    }

    #[test]
    fn multiplier_matches_arithmetic() {
        let d = binop_module(WordExpr::Mul, 4, 4);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..32 {
            let a = rng.gen_range(0..16u64);
            let b = rng.gen_range(0..16u64);
            let got = run_netlist(&d, &[("a", 4, a), ("b", 4, b)], "y", 4);
            assert_eq!(got, (a * b) & 15, "{a}*{b}");
        }
    }

    #[test]
    fn comparators_match() {
        let lt = binop_module(WordExpr::Lt, 4, 1);
        let eq = binop_module(WordExpr::Eq, 4, 1);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(
                    run_netlist(&lt, &[("a", 4, a), ("b", 4, b)], "y", 1),
                    u64::from(a < b)
                );
                assert_eq!(
                    run_netlist(&eq, &[("a", 4, a), ("b", 4, b)], "y", 1),
                    u64::from(a == b)
                );
            }
        }
    }

    #[test]
    fn mux_and_logic_match() {
        let mut m = RtlModule::new("muxy");
        let s = m.signal("s", 1, SignalKind::Input);
        let a = m.signal("a", 3, SignalKind::Input);
        let b = m.signal("b", 3, SignalKind::Input);
        let y = m.signal("y", 3, SignalKind::Output);
        m.assign(
            y,
            WordExpr::Mux(
                be(WordExpr::sig(s)),
                be(WordExpr::And(be(WordExpr::sig(a)), be(WordExpr::sig(b)))),
                be(WordExpr::Xor(be(WordExpr::sig(a)), be(WordExpr::sig(b)))),
            ),
        );
        let d = elaborate(&m);
        for (s_, a_, b_) in [(1u64, 5u64, 3u64), (0, 5, 3), (1, 7, 7), (0, 2, 6)] {
            let got = run_netlist(&d, &[("s", 1, s_), ("a", 3, a_), ("b", 3, b_)], "y", 3);
            let want = if s_ == 1 { a_ & b_ } else { a_ ^ b_ };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn shifts_are_wiring_only() {
        let mut m = RtlModule::new("sh");
        let a = m.signal("a", 4, SignalKind::Input);
        let y = m.signal("y", 4, SignalKind::Output);
        m.assign(y, WordExpr::Shl(be(WordExpr::sig(a)), 2));
        let d = elaborate(&m);
        assert_eq!(run_netlist(&d, &[("a", 4, 0b0110)], "y", 4), 0b1000);
    }

    #[test]
    fn registers_carry_state_labels_and_update() {
        let mut m = RtlModule::new("cnt");
        let cnt = m.signal("cnt", 3, SignalKind::Reg);
        m.register(
            cnt,
            WordExpr::Add(
                be(WordExpr::sig(cnt)),
                be(WordExpr::Const { value: 1, width: 3 }),
            ),
            None,
            true,
        );
        let d = elaborate(&m);
        // State labels present on every register bit.
        for r in d.netlist.registers() {
            assert_eq!(d.label(r).is_state_reg, Some(true));
        }
        // Cycle check: 5 -> 6.
        let mut src = HashMap::new();
        for b in 0..3 {
            let id = d.netlist.find(&format!("cnt_{b}")).expect("bit");
            src.insert(id, 5u64 >> b & 1 == 1);
        }
        let values = simulate_comb(&d.netlist, &src);
        let next = next_register_values(&d.netlist, &values);
        let mut word = 0u64;
        for b in 0..3 {
            let id = d.netlist.find(&format!("cnt_{b}")).expect("bit");
            if next[&id] {
                word |= 1 << b;
            }
        }
        assert_eq!(word, 6);
    }

    #[test]
    fn labels_partition_by_block() {
        let d = binop_module(WordExpr::Mul, 3, 3);
        let mul_gates = d
            .netlist
            .ids()
            .filter(|&id| d.label(id).block == Some(BlockLabel::Multiplier))
            .count();
        assert!(mul_gates > 5, "array multiplier creates many labeled gates");
        // No gate is labeled with anything else in a pure multiplier.
        for id in d.netlist.ids() {
            if let Some(b) = d.label(id).block {
                assert_eq!(b, BlockLabel::Multiplier);
            }
        }
    }

    /// Randomized cross-check: full RTL module with mixed ops, word-level
    /// simulation vs gate-level simulation.
    #[test]
    fn random_rtl_cross_simulation() {
        let mut m = RtlModule::new("mix");
        let a = m.signal("a", 5, SignalKind::Input);
        let b = m.signal("b", 5, SignalKind::Input);
        let t1 = m.signal("t1", 5, SignalKind::Wire);
        let t2 = m.signal("t2", 1, SignalKind::Wire);
        let y = m.signal("y", 5, SignalKind::Output);
        m.assign(
            t1,
            WordExpr::Add(be(WordExpr::sig(a)), be(WordExpr::sig(b))),
        );
        m.assign(t2, WordExpr::Lt(be(WordExpr::sig(a)), be(WordExpr::sig(b))));
        m.assign(
            y,
            WordExpr::Mux(
                be(WordExpr::sig(t2)),
                be(WordExpr::sig(t1)),
                be(WordExpr::Mul(be(WordExpr::sig(a)), be(WordExpr::sig(b)))),
            ),
        );
        let d = elaborate(&m);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let av = rng.gen_range(0..32u64);
            let bv = rng.gen_range(0..32u64);
            let mut inputs = HashMap::new();
            inputs.insert(a, av);
            inputs.insert(b, bv);
            let (values, _) = m.simulate_cycle(&inputs, &HashMap::new());
            let got = run_netlist(&d, &[("a", 5, av), ("b", 5, bv)], "y", 5);
            assert_eq!(got, values[&y], "a={av} b={bv}");
        }
    }
}
