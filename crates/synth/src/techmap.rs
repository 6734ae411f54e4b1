//! Post-elaboration netlist optimization and functionally-equivalent
//! restructuring.
//!
//! Plays two roles from the paper: (a) the logic-optimization half of the
//! "Design Compiler" substitute (constant folding, buffering cleanup,
//! complex-cell inference — what makes the netlists genuinely *post-
//! mapping*), and (b) the "functionally equivalent transformations of each
//! netlist graph" used to build positive pairs for graph contrastive
//! learning (objective #2.2) and the augmented cone dataset.

use crate::elaborate::Design;
use nettag_netlist::{CellKind, GateId, Netlist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Rebuilds a design keeping only `keep` gates, following `redirect` edges
/// (a gate whose output is now provided by another gate). Dangling
/// references are resolved transitively.
fn rebuild(
    design: &Design,
    redirect: &HashMap<GateId, GateId>,
    keep: impl Fn(GateId) -> bool,
) -> Design {
    let resolve = |mut id: GateId| {
        let mut guard = 0;
        while let Some(&next) = redirect.get(&id) {
            id = next;
            guard += 1;
            assert!(guard < 1_000_000, "redirect cycle");
        }
        id
    };
    let mut netlist = Netlist::new(design.netlist.name().to_string());
    let mut labels = Vec::new();
    let mut map: HashMap<GateId, GateId> = HashMap::new();
    // Pass 1: create kept gates with empty fan-in.
    for (id, g) in design.netlist.iter() {
        if !keep(id) || redirect.contains_key(&id) {
            continue;
        }
        let new = netlist.add_gate(g.name.clone(), g.kind, vec![]);
        labels.push(design.labels[id.index()]);
        map.insert(id, new);
    }
    // Pass 2: connect.
    for (id, g) in design.netlist.iter() {
        let Some(&new) = map.get(&id) else { continue };
        let fanin: Vec<GateId> = g.fanin.iter().map(|&f| map[&resolve(f)]).collect();
        netlist.gate_mut(new).fanin = fanin.into();
    }
    let netlist = netlist
        .validate()
        .expect("rebuild preserves well-formedness");
    Design {
        netlist,
        labels,
        rtl: design.rtl.clone(),
    }
}

/// Removes gates that no output, register, or register-enable depends on.
pub fn sweep_dead(design: &Design) -> Design {
    let n = &design.netlist;
    let mut live = vec![false; n.gate_count()];
    let mut stack: Vec<GateId> = Vec::new();
    for (id, g) in n.iter() {
        if g.kind == CellKind::Output || g.kind.is_sequential() || g.kind == CellKind::Input {
            live[id.index()] = true;
            stack.push(id);
        }
    }
    while let Some(u) = stack.pop() {
        for &f in &n.gate(u).fanin {
            if !live[f.index()] {
                live[f.index()] = true;
                stack.push(f);
            }
        }
    }
    rebuild(design, &HashMap::new(), |id| live[id.index()])
}

/// Propagates constants and removes double inverters / pass-through
/// buffers. Iterates to a fixed point, then sweeps dead logic.
pub fn fold_constants(design: &Design) -> Design {
    let n = &design.netlist;
    let mut redirect: HashMap<GateId, GateId> = HashMap::new();
    // Constant analysis in topo order: Some(bool) when output is constant.
    let order = nettag_netlist::topo_order(n);
    let mut konst: Vec<Option<bool>> = vec![None; n.gate_count()];
    let const0 = n
        .iter()
        .find(|(_, g)| g.kind == CellKind::Const0)
        .map(|(id, _)| id);
    let const1 = n
        .iter()
        .find(|(_, g)| g.kind == CellKind::Const1)
        .map(|(id, _)| id);
    for &id in &order {
        let g = n.gate(id);
        konst[id.index()] = match g.kind {
            CellKind::Const0 => Some(false),
            CellKind::Const1 => Some(true),
            CellKind::Buf => konst[g.fanin[0].index()],
            CellKind::Inv => konst[g.fanin[0].index()].map(|b| !b),
            k if k.is_combinational() => {
                let vals: Vec<Option<bool>> = g.fanin.iter().map(|f| konst[f.index()]).collect();
                let row = vals
                    .iter()
                    .enumerate()
                    .try_fold(0, |row, (j, v)| v.map(|b| row | usize::from(b) << j));
                match row {
                    Some(row) => Some(k.eval_row(row)),
                    None => partial_const(k, &vals),
                }
            }
            _ => None,
        };
        // Redirect constant gates to the shared TIE cells.
        if g.kind.is_combinational() {
            match (konst[id.index()], const0, const1) {
                (Some(false), Some(z), _) => {
                    redirect.insert(id, z);
                }
                (Some(true), _, Some(o)) => {
                    redirect.insert(id, o);
                }
                _ => {}
            }
        }
    }
    // Double inverter & buffer bypass (on the original graph; redirects
    // chase transitively during rebuild).
    for (id, g) in n.iter() {
        if redirect.contains_key(&id) {
            continue;
        }
        match g.kind {
            CellKind::Buf => {
                redirect.insert(id, g.fanin[0]);
            }
            CellKind::Inv => {
                let src = n.gate(g.fanin[0]);
                if src.kind == CellKind::Inv && !redirect.contains_key(&g.fanin[0]) {
                    redirect.insert(id, src.fanin[0]);
                }
            }
            _ => {}
        }
    }
    sweep_dead(&rebuild(design, &redirect, |_| true))
}

/// Constant output deducible from a *subset* of constant inputs
/// (controlling values: AND with a 0, OR with a 1, …).
fn partial_const(kind: CellKind, vals: &[Option<bool>]) -> Option<bool> {
    match kind {
        CellKind::And2 | CellKind::And3 | CellKind::And4 => {
            vals.contains(&Some(false)).then_some(false)
        }
        CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => {
            vals.contains(&Some(false)).then_some(true)
        }
        CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => vals.contains(&Some(true)).then_some(true),
        CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => {
            vals.contains(&Some(true)).then_some(false)
        }
        _ => None,
    }
}

/// Infers complex cells from single-fanout gate clusters:
/// `INV(OR(AND(a,b), c))  -> AOI21(a,b,c)`,
/// `INV(OR(AND(a,b), AND(c,d))) -> AOI22`,
/// `INV(AND(OR(a,b), c))  -> OAI21`,
/// `INV(AND(OR(a,b), OR(c,d))) -> OAI22`.
/// The root inverter becomes the complex cell; absorbed gates die in the
/// following sweep when they have no other fanout.
pub fn infer_complex_cells(design: &Design) -> Design {
    let n = &design.netlist;
    let mut out = design.clone();
    let single_fanout = |id: GateId| n.fanout(id).len() == 1;
    for (id, g) in n.iter() {
        if g.kind != CellKind::Inv {
            continue;
        }
        let mid = g.fanin[0];
        let mg = n.gate(mid);
        if !single_fanout(mid) {
            continue;
        }
        let (new_kind, fanin) = match mg.kind {
            CellKind::Or2 => {
                let (x, y) = (mg.fanin[0], mg.fanin[1]);
                match (
                    classify_and(n, x, &single_fanout),
                    classify_and(n, y, &single_fanout),
                ) {
                    (Some((a, b)), Some((c, d))) => (CellKind::Aoi22, vec![a, b, c, d]),
                    (Some((a, b)), None) => (CellKind::Aoi21, vec![a, b, y]),
                    (None, Some((c, d))) => (CellKind::Aoi21, vec![c, d, x]),
                    (None, None) => continue,
                }
            }
            CellKind::And2 => {
                let (x, y) = (mg.fanin[0], mg.fanin[1]);
                match (
                    classify_or(n, x, &single_fanout),
                    classify_or(n, y, &single_fanout),
                ) {
                    (Some((a, b)), Some((c, d))) => (CellKind::Oai22, vec![a, b, c, d]),
                    (Some((a, b)), None) => (CellKind::Oai21, vec![a, b, y]),
                    (None, Some((c, d))) => (CellKind::Oai21, vec![c, d, x]),
                    (None, None) => continue,
                }
            }
            _ => continue,
        };
        let gate = out.netlist.gate_mut(id);
        gate.kind = new_kind;
        gate.fanin = fanin.into();
    }
    sweep_dead(&out)
}

fn classify_and(
    n: &Netlist,
    id: GateId,
    single: &impl Fn(GateId) -> bool,
) -> Option<(GateId, GateId)> {
    let g = n.gate(id);
    (g.kind == CellKind::And2 && single(id)).then(|| (g.fanin[0], g.fanin[1]))
}

fn classify_or(
    n: &Netlist,
    id: GateId,
    single: &impl Fn(GateId) -> bool,
) -> Option<(GateId, GateId)> {
    let g = n.gate(id);
    (g.kind == CellKind::Or2 && single(id)).then(|| (g.fanin[0], g.fanin[1]))
}

/// The full optimization pipeline used after elaboration.
pub fn optimize(design: &Design) -> Design {
    let d = fold_constants(design);
    infer_complex_cells(&d)
}

/// Uniform technology remapping: decomposes distinctive cells (XOR, MUX,
/// full adders, AOI/OAI, wide gates) into the NAND2/INV universal basis
/// with probability `prob` per gate. Real mapped netlists are dominated by
/// small NAND/NOR/INV cells, which is what makes structure-only methods
/// struggle on Task 1/2 (paper Sec. I: post-mapping netlists "lack
/// informative context"); this pass reproduces that property while
/// preserving function exactly.
pub fn decompose_uniform(design: &Design, prob: f64, rng: &mut StdRng) -> Design {
    let src = &design.netlist;
    let mut out = Netlist::new(src.name().to_string());
    let mut labels = Vec::new();
    let mut map: HashMap<GateId, GateId> = HashMap::new();
    // Pass 1: one output gate per original gate (kind/fanin patched later).
    for (id, g) in src.iter() {
        let new = out.add_gate(g.name.clone(), g.kind, vec![]);
        labels.push(design.labels[id.index()]);
        map.insert(id, new);
    }
    let mut fresh = 0usize;
    for (id, g) in src.iter() {
        let fanin: Vec<GateId> = g.fanin.iter().map(|f| map[f]).collect();
        let target = map[&id];
        let label = design.labels[id.index()];
        let decompose = g.kind.is_combinational()
            && !matches!(g.kind, CellKind::Inv | CellKind::Buf | CellKind::Nand2)
            && rng.gen_bool(prob);
        if !decompose {
            out.gate_mut(target).fanin = fanin.into();
            continue;
        }
        let mut b = NandBuilder {
            net: &mut out,
            labels: &mut labels,
            label,
            fresh: &mut fresh,
        };
        b.emit(g.kind, &fanin, target);
    }
    let netlist = out
        .validate()
        .expect("uniform decomposition preserves well-formedness");
    Design {
        netlist,
        labels,
        rtl: design.rtl.clone(),
    }
}

/// Helper that lowers one cell function into NAND2/INV gates, writing the
/// final stage into a pre-allocated target gate.
struct NandBuilder<'a> {
    net: &'a mut Netlist,
    labels: &'a mut Vec<crate::elaborate::GateLabel>,
    label: crate::elaborate::GateLabel,
    fresh: &'a mut usize,
}

impl NandBuilder<'_> {
    fn gate(&mut self, kind: CellKind, fanin: Vec<GateId>) -> GateId {
        *self.fresh += 1;
        let id = self.net.add_gate(format!("um{}", *self.fresh), kind, fanin);
        self.labels.push(self.label);
        id
    }

    fn nand(&mut self, a: GateId, b: GateId) -> GateId {
        self.gate(CellKind::Nand2, vec![a, b])
    }

    fn inv(&mut self, a: GateId) -> GateId {
        self.gate(CellKind::Inv, vec![a])
    }

    fn and(&mut self, a: GateId, b: GateId) -> GateId {
        let n = self.nand(a, b);
        self.inv(n)
    }

    fn or(&mut self, a: GateId, b: GateId) -> GateId {
        let na = self.inv(a);
        let nb = self.inv(b);
        self.nand(na, nb)
    }

    fn xor(&mut self, a: GateId, b: GateId) -> GateId {
        // Classic 4-NAND XOR.
        let n1 = self.nand(a, b);
        let n2 = self.nand(a, n1);
        let n3 = self.nand(b, n1);
        self.nand(n2, n3)
    }

    fn and_tree(&mut self, ins: &[GateId]) -> GateId {
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = self.and(acc, x);
        }
        acc
    }

    fn or_tree(&mut self, ins: &[GateId]) -> GateId {
        let mut acc = ins[0];
        for &x in &ins[1..] {
            acc = self.or(acc, x);
        }
        acc
    }

    /// Writes `kind(fanin)` into `target` as the final NAND/INV stage.
    fn emit(&mut self, kind: CellKind, fanin: &[GateId], target: GateId) {
        // Compute the function into a driver gate, then make `target` the
        // last stage: we re-point `target` as an INV or NAND of the
        // penultimate values so every sink keeps its connection.
        let set = |net: &mut Netlist, target: GateId, kind: CellKind, fanin: Vec<GateId>| {
            let g = net.gate_mut(target);
            g.kind = kind;
            g.fanin = fanin.into();
        };
        match kind {
            CellKind::And2 | CellKind::And3 | CellKind::And4 => {
                let n = if fanin.len() == 2 {
                    self.nand(fanin[0], fanin[1])
                } else {
                    let head = self.and_tree(&fanin[..fanin.len() - 1]);
                    self.nand(head, fanin[fanin.len() - 1])
                };
                set(self.net, target, CellKind::Inv, vec![n]);
            }
            CellKind::Nand3 | CellKind::Nand4 => {
                let head = self.and_tree(&fanin[..fanin.len() - 1]);
                set(
                    self.net,
                    target,
                    CellKind::Nand2,
                    vec![head, fanin[fanin.len() - 1]],
                );
            }
            CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => {
                let rest = self.or_tree(&fanin[..fanin.len() - 1]);
                let full = if fanin.len() == 2 {
                    let na = self.inv(fanin[0]);
                    let nb = self.inv(fanin[1]);
                    set(self.net, target, CellKind::Nand2, vec![na, nb]);
                    return;
                } else {
                    let n_rest = self.inv(rest);
                    let n_last = self.inv(fanin[fanin.len() - 1]);
                    (n_rest, n_last)
                };
                set(self.net, target, CellKind::Nand2, vec![full.0, full.1]);
            }
            CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => {
                let o = self.or_tree(fanin);
                set(self.net, target, CellKind::Inv, vec![o]);
            }
            CellKind::Xor2 => {
                let n1 = self.nand(fanin[0], fanin[1]);
                let n2 = self.nand(fanin[0], n1);
                let n3 = self.nand(fanin[1], n1);
                set(self.net, target, CellKind::Nand2, vec![n2, n3]);
            }
            CellKind::Xnor2 => {
                let x = self.xor(fanin[0], fanin[1]);
                set(self.net, target, CellKind::Inv, vec![x]);
            }
            CellKind::Mux2 => {
                // y = NAND(NAND(s, a), NAND(!s, b)).
                let ns = self.inv(fanin[0]);
                let t1 = self.nand(fanin[0], fanin[1]);
                let t2 = self.nand(ns, fanin[2]);
                set(self.net, target, CellKind::Nand2, vec![t1, t2]);
            }
            CellKind::Aoi21 => {
                let ab = self.and(fanin[0], fanin[1]);
                let o = self.or(ab, fanin[2]);
                set(self.net, target, CellKind::Inv, vec![o]);
            }
            CellKind::Aoi22 => {
                let ab = self.and(fanin[0], fanin[1]);
                let cd = self.and(fanin[2], fanin[3]);
                let o = self.or(ab, cd);
                set(self.net, target, CellKind::Inv, vec![o]);
            }
            CellKind::Oai21 => {
                let ab = self.or(fanin[0], fanin[1]);
                set(self.net, target, CellKind::Nand2, vec![ab, fanin[2]]);
            }
            CellKind::Oai22 => {
                let ab = self.or(fanin[0], fanin[1]);
                let cd = self.or(fanin[2], fanin[3]);
                set(self.net, target, CellKind::Nand2, vec![ab, cd]);
            }
            CellKind::FaSum => {
                let x = self.xor(fanin[0], fanin[1]);
                let n1 = self.nand(x, fanin[2]);
                let n2 = self.nand(x, n1);
                let n3 = self.nand(fanin[2], n1);
                set(self.net, target, CellKind::Nand2, vec![n2, n3]);
            }
            CellKind::FaCarry => {
                // maj(a,b,c) = !(NAND(a,b) & NAND(a,c) & NAND(b,c)) ... via
                // or-of-ands: (a&b) | c&(a|b).
                let ab = self.and(fanin[0], fanin[1]);
                let a_or_b = self.or(fanin[0], fanin[1]);
                let c_term = self.and(fanin[2], a_or_b);
                let nab = self.inv(ab);
                let nct = self.inv(c_term);
                set(self.net, target, CellKind::Nand2, vec![nab, nct]);
            }
            other => {
                // Kinds never selected for decomposition keep themselves.
                set(self.net, target, other, fanin.to_vec());
            }
        }
    }
}

/// Applies `steps` random function-preserving local rewrites — the
/// graph-level equivalence augmentation for objective #2.2. New gates
/// inherit the rewritten gate's provenance label.
pub fn restructure_equivalent(design: &Design, steps: usize, rng: &mut StdRng) -> Design {
    let mut d = design.clone();
    for _ in 0..steps {
        d = match rng.gen_range(0..4u8) {
            0 => commute_random_pins(&d, rng),
            1 => expand_and_to_nand_inv(&d, rng),
            2 => de_morgan_random(&d, rng),
            _ => insert_buffer(&d, rng),
        };
    }
    d
}

fn candidates(d: &Design, pred: impl Fn(CellKind) -> bool) -> Vec<GateId> {
    d.netlist
        .iter()
        .filter(|(_, g)| pred(g.kind))
        .map(|(id, _)| id)
        .collect()
}

/// Swaps the pins of a commutative gate (structure changes, function not).
fn commute_random_pins(d: &Design, rng: &mut StdRng) -> Design {
    let cands = candidates(d, |k| {
        matches!(
            k,
            CellKind::And2
                | CellKind::Or2
                | CellKind::Nand2
                | CellKind::Nor2
                | CellKind::Xor2
                | CellKind::Xnor2
        )
    });
    let Some(&id) = cands.as_slice().choose(rng) else {
        return d.clone();
    };
    let mut out = d.clone();
    out.netlist.gate_mut(id).fanin.reverse();
    out
}

/// `AND2(a,b) -> INV(NAND2(a,b))` (and the dual for OR/NOR).
fn expand_and_to_nand_inv(d: &Design, rng: &mut StdRng) -> Design {
    let cands = candidates(d, |k| matches!(k, CellKind::And2 | CellKind::Or2));
    let Some(&id) = cands.as_slice().choose(rng) else {
        return d.clone();
    };
    let mut out = d.clone();
    let g = out.netlist.gate(id).clone();
    let label = out.labels[id.index()];
    let inner_kind = if g.kind == CellKind::And2 {
        CellKind::Nand2
    } else {
        CellKind::Nor2
    };
    let inner = out
        .netlist
        .add_gate(format!("{}_x", g.name), inner_kind, g.fanin.clone());
    out.labels.push(label);
    let gate = out.netlist.gate_mut(id);
    gate.kind = CellKind::Inv;
    gate.fanin = [inner].into();
    out
}

/// `NAND2(a,b) -> OR2(INV(a), INV(b))` — De Morgan at the gate level.
fn de_morgan_random(d: &Design, rng: &mut StdRng) -> Design {
    let cands = candidates(d, |k| matches!(k, CellKind::Nand2 | CellKind::Nor2));
    let Some(&id) = cands.as_slice().choose(rng) else {
        return d.clone();
    };
    let mut out = d.clone();
    let g = out.netlist.gate(id).clone();
    let label = out.labels[id.index()];
    let inv_a = out
        .netlist
        .add_gate(format!("{}_na", g.name), CellKind::Inv, vec![g.fanin[0]]);
    out.labels.push(label);
    let inv_b = out
        .netlist
        .add_gate(format!("{}_nb", g.name), CellKind::Inv, vec![g.fanin[1]]);
    out.labels.push(label);
    let gate = out.netlist.gate_mut(id);
    gate.kind = if g.kind == CellKind::Nand2 {
        CellKind::Or2
    } else {
        CellKind::And2
    };
    gate.fanin = [inv_a, inv_b].into();
    out
}

/// Inserts a buffer on one pin of a random combinational gate.
fn insert_buffer(d: &Design, rng: &mut StdRng) -> Design {
    let cands = candidates(d, |k| k.is_combinational());
    let Some(&id) = cands.as_slice().choose(rng) else {
        return d.clone();
    };
    let mut out = d.clone();
    let g = out.netlist.gate(id).clone();
    if g.fanin.is_empty() {
        return out;
    }
    let label = out.labels[id.index()];
    let pin = rng.gen_range(0..g.fanin.len());
    let buf = out.netlist.add_gate(
        format!("{}_b{pin}", g.name),
        CellKind::Buf,
        vec![g.fanin[pin]],
    );
    out.labels.push(label);
    out.netlist.gate_mut(id).fanin[pin] = buf;
    out
}

/// Convenience: checks two designs are cycle-equivalent on random stimulus
/// (same outputs and register next-states for matching names). Used by
/// tests; exported because the bench harness reuses it for sanity checks.
pub fn check_equivalent_random(a: &Design, b: &Design, cycles: usize, rng: &mut StdRng) -> bool {
    use nettag_netlist::{next_register_values, simulate_comb};
    let inputs_a = a.netlist.inputs();
    for _ in 0..cycles {
        let mut src_a = HashMap::new();
        let mut src_b = HashMap::new();
        for &ia in &inputs_a {
            let v = rng.gen_bool(0.5);
            src_a.insert(ia, v);
            let name = &a.netlist.gate(ia).name;
            if let Some(ib) = b.netlist.find(name) {
                src_b.insert(ib, v);
            }
        }
        // Random (shared) register state.
        for ra in a.netlist.registers() {
            let v = rng.gen_bool(0.5);
            src_a.insert(ra, v);
            if let Some(rb) = b.netlist.find(&a.netlist.gate(ra).name) {
                src_b.insert(rb, v);
            }
        }
        let va = simulate_comb(&a.netlist, &src_a);
        let vb = simulate_comb(&b.netlist, &src_b);
        for oa in a.netlist.outputs() {
            let name = &a.netlist.gate(oa).name;
            let Some(ob) = b.netlist.find(name) else {
                return false;
            };
            if va[oa.index()] != vb[ob.index()] {
                return false;
            }
        }
        let na = next_register_values(&a.netlist, &va);
        let nb = next_register_values(&b.netlist, &vb);
        for (ra, v) in &na {
            let name = &a.netlist.gate(*ra).name;
            let Some(rb) = b.netlist.find(name) else {
                return false;
            };
            if nb[&rb] != *v {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use crate::elaborate::GateLabel;
    use crate::rtl::{RtlModule, SignalKind, WordExpr};
    use rand::SeedableRng;

    fn be(e: WordExpr) -> Box<WordExpr> {
        Box::new(e)
    }

    fn sample_design() -> Design {
        let mut m = RtlModule::new("opt_t");
        let a = m.signal("a", 4, SignalKind::Input);
        let b = m.signal("b", 4, SignalKind::Input);
        let acc = m.signal("acc", 4, SignalKind::Reg);
        let y = m.signal("y", 4, SignalKind::Output);
        let sum = m.signal("sum", 4, SignalKind::Wire);
        m.assign(
            sum,
            WordExpr::Add(be(WordExpr::sig(a)), be(WordExpr::sig(b))),
        );
        m.assign(
            y,
            WordExpr::Mux(
                be(WordExpr::Lt(be(WordExpr::sig(a)), be(WordExpr::sig(b)))),
                be(WordExpr::sig(sum)),
                be(WordExpr::sig(acc)),
            ),
        );
        m.register(acc, WordExpr::sig(sum), None, false);
        elaborate(&m)
    }

    #[test]
    fn fold_constants_shrinks_and_preserves_function() {
        let d = sample_design();
        let folded = fold_constants(&d);
        assert!(folded.netlist.gate_count() <= d.netlist.gate_count());
        let mut rng = StdRng::seed_from_u64(11);
        assert!(check_equivalent_random(&d, &folded, 24, &mut rng));
    }

    #[test]
    fn fold_removes_constant_fed_logic() {
        // y = a & 0 should fold the AND away entirely.
        let mut m = RtlModule::new("k");
        let a = m.signal("a", 1, SignalKind::Input);
        let y = m.signal("y", 1, SignalKind::Output);
        m.assign(
            y,
            WordExpr::And(
                be(WordExpr::sig(a)),
                be(WordExpr::Const { value: 0, width: 1 }),
            ),
        );
        let d = elaborate(&m);
        let folded = fold_constants(&d);
        let and_count = folded
            .netlist
            .iter()
            .filter(|(_, g)| g.kind == CellKind::And2)
            .count();
        assert_eq!(and_count, 0);
    }

    #[test]
    fn complex_cell_inference_finds_aoi() {
        // Build INV(OR(AND(a,b), c)) by hand.
        let mut n = Netlist::new("aoi");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let c = n.add_gate("c", CellKind::Input, vec![]);
        let and = n.add_gate("A1", CellKind::And2, vec![a, b]);
        let or = n.add_gate("O1", CellKind::Or2, vec![and, c]);
        let inv = n.add_gate("I1", CellKind::Inv, vec![or]);
        n.add_gate("y", CellKind::Output, vec![inv]);
        let d = Design {
            labels: vec![GateLabel::default(); n.gate_count()],
            netlist: n.validate().expect("valid"),
            rtl: RtlModule::new("aoi"),
        };
        let opt = infer_complex_cells(&d);
        let aoi = opt
            .netlist
            .iter()
            .filter(|(_, g)| g.kind == CellKind::Aoi21)
            .count();
        assert_eq!(aoi, 1);
        assert!(opt.netlist.gate_count() < d.netlist.gate_count());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(check_equivalent_random(&d, &opt, 16, &mut rng));
    }

    #[test]
    fn optimize_pipeline_preserves_function() {
        let d = sample_design();
        let opt = optimize(&d);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(check_equivalent_random(&d, &opt, 24, &mut rng));
        assert!(opt.labels.len() == opt.netlist.gate_count());
    }

    #[test]
    fn restructure_changes_graph_but_not_function() {
        let d = sample_design();
        let mut rng = StdRng::seed_from_u64(21);
        let aug = restructure_equivalent(&d, 8, &mut rng);
        assert!(aug.netlist.gate_count() >= d.netlist.gate_count());
        let mut check_rng = StdRng::seed_from_u64(22);
        assert!(check_equivalent_random(&d, &aug, 24, &mut check_rng));
        assert_eq!(aug.labels.len(), aug.netlist.gate_count());
    }

    #[test]
    fn uniform_decomposition_preserves_function_and_uniformizes() {
        let d = sample_design();
        let mut rng = StdRng::seed_from_u64(0xDEC);
        let uni = decompose_uniform(&d, 1.0, &mut rng);
        let mut check = StdRng::seed_from_u64(0xDEC1);
        assert!(check_equivalent_random(&d, &uni, 24, &mut check));
        // After full decomposition, no distinctive cells remain.
        for (_, g) in uni.netlist.iter() {
            assert!(
                !matches!(
                    g.kind,
                    CellKind::Xor2
                        | CellKind::Xnor2
                        | CellKind::Mux2
                        | CellKind::FaSum
                        | CellKind::FaCarry
                        | CellKind::Aoi21
                        | CellKind::Oai21
                ),
                "distinctive cell {} survived",
                g.kind
            );
        }
        assert_eq!(uni.labels.len(), uni.netlist.gate_count());
        // Interior gates inherit provenance labels.
        let labeled_after = uni.labels.iter().filter(|l| l.block.is_some()).count();
        let labeled_before = d.labels.iter().filter(|l| l.block.is_some()).count();
        assert!(labeled_after > labeled_before);
    }

    #[test]
    fn partial_decomposition_is_seeded_and_partial() {
        let d = sample_design();
        let mut rng = StdRng::seed_from_u64(7);
        let half = decompose_uniform(&d, 0.5, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(7);
        let half2 = decompose_uniform(&d, 0.5, &mut rng2);
        assert_eq!(half.netlist.gate_count(), half2.netlist.gate_count());
        let mut check = StdRng::seed_from_u64(9);
        assert!(check_equivalent_random(&d, &half, 16, &mut check));
    }

    #[test]
    fn sweep_dead_drops_unreachable_logic() {
        let mut n = Netlist::new("dead");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let live = n.add_gate("L", CellKind::Inv, vec![a]);
        let _dead = n.add_gate("D", CellKind::Inv, vec![a]);
        n.add_gate("y", CellKind::Output, vec![live]);
        let d = Design {
            labels: vec![GateLabel::default(); n.gate_count()],
            netlist: n.validate().expect("valid"),
            rtl: RtlModule::new("dead"),
        };
        let swept = sweep_dead(&d);
        assert_eq!(swept.netlist.gate_count(), 3);
        assert!(swept.netlist.find("D").is_none());
    }
}
