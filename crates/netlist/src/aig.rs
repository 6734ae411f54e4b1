//! And-inverter graph (AIG) lowering.
//!
//! Prior netlist encoders (DeepGate family, FGNN) only operate on AIGs
//! (paper Table I), so the Fig. 5 comparison needs an AIG view of our
//! post-mapping netlists. The lowering also powers the AIG-baseline
//! encoders' truth-table-style supervision via bit-parallel simulation.

use crate::cell::CellKind;
use crate::graph::{GateId, Netlist};
use crate::traverse::topo_order;
use std::collections::HashMap;

/// An AIG literal: `variable << 1 | complemented`. Literal 0 is constant
/// false, literal 1 constant true. Variables `1..=num_inputs` are primary
/// inputs; higher variables are AND nodes.
pub type Lit = u32;

/// Constant-false literal.
pub const LIT_FALSE: Lit = 0;
/// Constant-true literal.
pub const LIT_TRUE: Lit = 1;

/// Builds a literal from variable index and complement flag.
pub fn lit(var: u32, complement: bool) -> Lit {
    var << 1 | u32::from(complement)
}

/// Variable index of a literal.
pub fn lit_var(l: Lit) -> u32 {
    l >> 1
}

/// Whether the literal is complemented.
pub fn lit_is_compl(l: Lit) -> bool {
    l & 1 == 1
}

/// Negates a literal.
pub fn lit_not(l: Lit) -> Lit {
    l ^ 1
}

/// An and-inverter graph with structural hashing.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    /// Primary input names (variables `1..=inputs.len()`).
    pub inputs: Vec<String>,
    /// AND nodes: `ands[i]` has variable `inputs.len() as u32 + 1 + i`.
    pub ands: Vec<(Lit, Lit)>,
    /// Output literals with names.
    pub outputs: Vec<(String, Lit)>,
    strash: HashMap<(Lit, Lit), Lit>,
}

impl Aig {
    /// Creates an empty AIG.
    pub fn new() -> Aig {
        Aig::default()
    }

    /// Adds a primary input, returning its (positive) literal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        self.inputs.push(name.into());
        lit(self.inputs.len() as u32, false)
    }

    /// Number of AND nodes.
    pub fn and_count(&self) -> usize {
        self.ands.len()
    }

    /// Creates (or reuses) an AND node over two literals, with standard
    /// simplifications (`x & 0 = 0`, `x & 1 = x`, `x & x = x`, `x & !x = 0`)
    /// and commutative structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == LIT_FALSE || b == LIT_FALSE || a == lit_not(b) {
            return LIT_FALSE;
        }
        if a == LIT_TRUE {
            return b;
        }
        if b == LIT_TRUE || a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.strash.get(&key) {
            return l;
        }
        let var = self.inputs.len() as u32 + 1 + self.ands.len() as u32;
        self.ands.push(key);
        let l = lit(var, false);
        self.strash.insert(key, l);
        l
    }

    /// `a | b` via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        lit_not(self.and(lit_not(a), lit_not(b)))
    }

    /// `a ^ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let nand_ab = lit_not(self.and(a, b));
        let left = self.and(a, nand_ab);
        let right = self.and(b, nand_ab);
        self.or(left, right)
    }

    /// `Ite(s, t, e)`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(lit_not(s), e);
        self.or(a, b)
    }

    /// Registers an output literal.
    pub fn add_output(&mut self, name: impl Into<String>, l: Lit) {
        self.outputs.push((name.into(), l));
    }

    /// Bit-parallel simulation: `patterns[i]` holds 64 assignments for PI
    /// variable `i + 1`; returns one 64-bit word per variable
    /// (index 0 = constant false).
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len() != self.inputs.len()`.
    pub fn simulate(&self, patterns: &[u64]) -> Vec<u64> {
        assert_eq!(patterns.len(), self.inputs.len(), "one pattern word per PI");
        let mut values = vec![0u64; 1 + self.inputs.len() + self.ands.len()];
        for (i, &p) in patterns.iter().enumerate() {
            values[i + 1] = p;
        }
        let first_and = self.inputs.len() + 1;
        for (i, &(a, b)) in self.ands.iter().enumerate() {
            let va = values[lit_var(a) as usize] ^ if lit_is_compl(a) { !0 } else { 0 };
            let vb = values[lit_var(b) as usize] ^ if lit_is_compl(b) { !0 } else { 0 };
            values[first_and + i] = va & vb;
        }
        values
    }

    /// Value of a literal given simulated variable words.
    pub fn lit_value(values: &[u64], l: Lit) -> u64 {
        values[lit_var(l) as usize] ^ if lit_is_compl(l) { !0 } else { 0 }
    }
}

/// Lowers a netlist into an AIG (see [`netlist_to_aig_tracked`] for the
/// provenance-tracking variant).
pub fn netlist_to_aig(netlist: &Netlist) -> Aig {
    netlist_to_aig_tracked(netlist).0
}

/// Lowers a netlist into an AIG, also reporting, for every AND node, the
/// source gate whose lowering created it (labels transfer through this
/// map for the AIG-encoder comparison of Fig. 5). Structurally-hashed
/// reuses keep their first creator.
pub fn netlist_to_aig_tracked(netlist: &Netlist) -> (Aig, Vec<Option<GateId>>) {
    let mut aig = Aig::new();
    let mut lits: HashMap<u32, Lit> = HashMap::new();
    let mut creators: Vec<Option<GateId>> = Vec::new();
    for &id in &topo_order(netlist) {
        let g = netlist.gate(id);
        // Registers appear in topo order before their D-pin drivers (their
        // outputs are sources), so only resolve fan-in literals for
        // combinational sinks.
        if matches!(
            g.kind,
            CellKind::Input | CellKind::Dff | CellKind::DffE | CellKind::DffR
        ) {
            let l = aig.add_input(g.name.to_string());
            lits.insert(id.0, l);
            continue;
        }
        let ins: Vec<Lit> = g.fanin.iter().map(|f| lits[&f.0]).collect();
        let l = match g.kind {
            CellKind::Input | CellKind::Dff | CellKind::DffE | CellKind::DffR => {
                unreachable!("handled above")
            }
            CellKind::Const0 => LIT_FALSE,
            CellKind::Const1 => LIT_TRUE,
            CellKind::Output | CellKind::Buf => ins[0],
            CellKind::Inv => lit_not(ins[0]),
            CellKind::And2 | CellKind::And3 | CellKind::And4 => fold_and(&mut aig, &ins),
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => {
                lit_not(fold_and(&mut aig, &ins))
            }
            CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => fold_or(&mut aig, &ins),
            CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => lit_not(fold_or(&mut aig, &ins)),
            CellKind::Xor2 => aig.xor(ins[0], ins[1]),
            CellKind::Xnor2 => lit_not(aig.xor(ins[0], ins[1])),
            CellKind::Aoi21 => {
                let ab = aig.and(ins[0], ins[1]);
                lit_not(aig.or(ab, ins[2]))
            }
            CellKind::Aoi22 => {
                let ab = aig.and(ins[0], ins[1]);
                let cd = aig.and(ins[2], ins[3]);
                lit_not(aig.or(ab, cd))
            }
            CellKind::Oai21 => {
                let ab = aig.or(ins[0], ins[1]);
                lit_not(aig.and(ab, ins[2]))
            }
            CellKind::Oai22 => {
                let ab = aig.or(ins[0], ins[1]);
                let cd = aig.or(ins[2], ins[3]);
                let x = aig.and(ab, cd);
                lit_not(x)
            }
            CellKind::Mux2 => aig.mux(ins[0], ins[1], ins[2]),
            CellKind::FaSum => {
                let x = aig.xor(ins[0], ins[1]);
                aig.xor(x, ins[2])
            }
            CellKind::FaCarry => {
                let ab = aig.and(ins[0], ins[1]);
                let ac = aig.and(ins[0], ins[2]);
                let bc = aig.and(ins[1], ins[2]);
                let t = aig.or(ab, ac);
                aig.or(t, bc)
            }
        };
        lits.insert(id.0, l);
        // Any AND nodes created while lowering this gate belong to it.
        while creators.len() < aig.and_count() {
            creators.push(Some(id));
        }
        if g.kind == CellKind::Output {
            aig.add_output(g.name.to_string(), l);
        }
    }
    // Register D pins are outputs of the combinational logic too.
    for r in netlist.registers() {
        let g = netlist.gate(r);
        if let Some(&d) = g.fanin.first() {
            aig.add_output(format!("{}_next", g.name), lits[&d.0]);
        }
    }
    debug_assert_eq!(creators.len(), aig.and_count());
    (aig, creators)
}

/// Re-expresses an AIG as a netlist of `AND2` and `INV` cells — the
/// "AIG-format dataset" of the Fig. 5 comparison. Returns the netlist
/// plus, for each netlist gate, the AIG variable it realizes (inverters
/// report the variable they complement; IO pseudo-gates report their
/// variable too).
pub fn aig_to_netlist(aig: &Aig, name: &str) -> (Netlist, Vec<u32>) {
    let mut n = Netlist::new(name.to_string());
    let mut vars: Vec<u32> = Vec::new();
    // Positive-literal driver gate per variable.
    let mut pos: HashMap<u32, GateId> = HashMap::new();
    // Cached inverters per variable.
    let mut neg: HashMap<u32, GateId> = HashMap::new();
    let add = |n: &mut Netlist,
               vars: &mut Vec<u32>,
               name: String,
               kind: CellKind,
               fanin: Vec<GateId>,
               var: u32| {
        let id = n.add_gate(name, kind, fanin);
        vars.push(var);
        id
    };
    // Constant false is variable 0.
    let zero = add(
        &mut n,
        &mut vars,
        "const0".into(),
        CellKind::Const0,
        vec![],
        0,
    );
    pos.insert(0, zero);
    for (i, input) in aig.inputs.iter().enumerate() {
        let var = i as u32 + 1;
        let id = add(
            &mut n,
            &mut vars,
            input.clone(),
            CellKind::Input,
            vec![],
            var,
        );
        pos.insert(var, id);
    }
    let first_and = aig.inputs.len() as u32 + 1;
    let lit_gate = |n: &mut Netlist,
                    vars: &mut Vec<u32>,
                    pos: &HashMap<u32, GateId>,
                    neg: &mut HashMap<u32, GateId>,
                    l: Lit|
     -> GateId {
        let v = lit_var(l);
        let p = pos[&v];
        if !lit_is_compl(l) {
            return p;
        }
        if let Some(&g) = neg.get(&v) {
            return g;
        }
        let id = n.add_gate(format!("inv_v{v}"), CellKind::Inv, vec![p]);
        vars.push(v);
        neg.insert(v, id);
        id
    };
    for (i, &(a, b)) in aig.ands.iter().enumerate() {
        let var = first_and + i as u32;
        let fa = lit_gate(&mut n, &mut vars, &pos, &mut neg, a);
        let fb = lit_gate(&mut n, &mut vars, &pos, &mut neg, b);
        let id = n.add_gate(format!("and_v{var}"), CellKind::And2, vec![fa, fb]);
        vars.push(var);
        pos.insert(var, id);
    }
    for (oname, l) in &aig.outputs {
        let d = lit_gate(&mut n, &mut vars, &pos, &mut neg, *l);
        n.add_gate(format!("po_{oname}"), CellKind::Output, vec![d]);
        vars.push(lit_var(*l));
    }
    let n = n.validate().expect("AIG netlists are well-formed");
    (n, vars)
}

fn fold_and(aig: &mut Aig, ins: &[Lit]) -> Lit {
    ins.iter().skip(1).fold(ins[0], |acc, &l| aig.and(acc, l))
}

fn fold_or(aig: &mut Aig, ins: &[Lit]) -> Lit {
    ins.iter().skip(1).fold(ins[0], |acc, &l| aig.or(acc, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::graph::Netlist;
    use nettag_expr::{eval, Expr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap as Map;

    #[test]
    fn literal_helpers() {
        let l = lit(3, true);
        assert_eq!(lit_var(l), 3);
        assert!(lit_is_compl(l));
        assert_eq!(lit_not(lit_not(l)), l);
    }

    #[test]
    fn and_simplifications_and_strash() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        assert_eq!(aig.and(a, LIT_FALSE), LIT_FALSE);
        assert_eq!(aig.and(a, LIT_TRUE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, lit_not(a)), LIT_FALSE);
        let ab1 = aig.and(a, b);
        let ab2 = aig.and(b, a);
        assert_eq!(ab1, ab2, "structural hashing is commutative");
        assert_eq!(aig.and_count(), 1);
    }

    /// Cross-checks AIG lowering against symbolic evaluation on random
    /// netlists covering every cell kind.
    #[test]
    fn lowering_matches_cell_semantics() {
        let kinds = [
            CellKind::And3,
            CellKind::Nand4,
            CellKind::Nor3,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Aoi21,
            CellKind::Aoi22,
            CellKind::Oai21,
            CellKind::Oai22,
            CellKind::Mux2,
            CellKind::FaSum,
            CellKind::FaCarry,
        ];
        let mut rng = StdRng::seed_from_u64(77);
        for kind in kinds {
            let mut n = Netlist::new("k");
            let ins: Vec<_> = (0..kind.arity())
                .map(|i| n.add_gate(format!("i{i}"), CellKind::Input, vec![]))
                .collect();
            let g = n.add_gate("U", kind, ins.clone());
            n.add_gate("y", CellKind::Output, vec![g]);
            let n = n.validate().expect("valid");
            let aig = netlist_to_aig(&n);
            let (_, out_lit) = aig.outputs[0];
            // Symbolic reference.
            let sym = kind.expr(
                (0..kind.arity())
                    .map(|i| Expr::var(format!("i{i}")))
                    .collect(),
            );
            for _ in 0..16 {
                let mut patterns = vec![0u64; aig.inputs.len()];
                let mut env: Map<nettag_expr::Var, bool> = Map::new();
                for (i, name) in aig.inputs.iter().enumerate() {
                    let v = rng.gen_bool(0.5);
                    patterns[i] = if v { !0 } else { 0 };
                    env.insert(nettag_expr::Var::from(name.as_str()), v);
                }
                let values = aig.simulate(&patterns);
                let got = Aig::lit_value(&values, out_lit) & 1 == 1;
                assert_eq!(got, eval(&sym, &env), "kind {kind} mismatch");
            }
        }
    }

    #[test]
    fn registers_become_inputs_and_next_state_outputs() {
        let mut n = Netlist::new("seq");
        let r = crate::graph::GateId(0);
        let inv = crate::graph::GateId(1);
        n.add_gate("R", CellKind::Dff, vec![inv]);
        n.add_gate("N", CellKind::Inv, vec![r]);
        let n = n.validate().expect("valid");
        let aig = netlist_to_aig(&n);
        assert_eq!(aig.inputs, vec!["R".to_string()]);
        assert_eq!(aig.outputs.len(), 1);
        assert_eq!(aig.outputs[0].0, "R_next");
        // R_next = !R.
        let values = aig.simulate(&[0b01]);
        assert_eq!(Aig::lit_value(&values, aig.outputs[0].1) & 0b11, 0b10);
    }
}
