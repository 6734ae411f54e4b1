//! Benchmark-family generators.
//!
//! The paper pre-trains on circuits synthesized from ITC99, OpenCores,
//! Chipyard, and VexRiscv RTL (Table II). Those suites are not available
//! offline, so this module generates RTL with the same *family character*
//! and comparable relative scale:
//!
//! * **ITC99-like** — control-dominated: FSMs, counters, comparators, and
//!   wide mux trees (mid-size, deep sequential behaviour).
//! * **OpenCores-like** — small peripheral cores: one or two narrow
//!   arithmetic ops with a little control (smallest netlists).
//! * **Chipyard-like** — SoC datapath tiles: multiple wide multiply/add
//!   pipelines and register banks (largest netlists).
//! * **VexRiscv-like** — CPU pipeline: an op-multiplexed ALU, branch
//!   comparators, PC/state machinery (mid-large).
//!
//! Everything is seeded and parameterized by a scale factor so Table II's
//! relative ordering (Chipyard > ITC99 ≈ VexRiscv > OpenCores in average
//! node count) is preserved at laptop scale.

use crate::elaborate::{elaborate, Design};
use crate::rtl::{BlockLabel, RtlModule, SignalId, SignalKind, WordExpr};
use crate::techmap::{decompose_uniform, optimize};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four benchmark families of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Control-dominated ITC99-like blocks.
    Itc99,
    /// Small OpenCores-like peripheral cores.
    OpenCores,
    /// Large Chipyard-like SoC datapath tiles.
    Chipyard,
    /// VexRiscv-like CPU pipeline slices.
    VexRiscv,
}

/// All families in Table II order.
pub const ALL_FAMILIES: [Family; 4] = [
    Family::Itc99,
    Family::OpenCores,
    Family::Chipyard,
    Family::VexRiscv,
];

impl Family {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Itc99 => "ITC99",
            Family::OpenCores => "OpenCores",
            Family::Chipyard => "Chipyard",
            Family::VexRiscv => "VexRiscv",
        }
    }
}

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Multiplier on per-family block counts (1.0 = default laptop scale).
    pub scale: f64,
    /// Whether to run the optimization pipeline after elaboration
    /// (post-mapping netlists, as the paper's flow produces).
    pub optimize: bool,
    /// Probability that each distinctive cell is remapped into the
    /// NAND2/INV basis (real mapped netlists are NAND/INV-dominated, which
    /// is what makes structure-only baselines struggle; 0 disables).
    pub remap_prob: f64,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            scale: 1.0,
            optimize: true,
            remap_prob: 0.75,
        }
    }
}

fn be(e: WordExpr) -> Box<WordExpr> {
    Box::new(e)
}

/// Generates the `index`-th design of a family (deterministic per
/// `(family, index, seed)`).
pub fn generate_design(family: Family, index: usize, seed: u64, config: &GenerateConfig) -> Design {
    let mut rng = StdRng::seed_from_u64(
        seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ family as u64,
    );
    let rtl = generate_rtl(family, index, &mut rng, config);
    let design = elaborate(&rtl);
    let design = if config.optimize {
        optimize(&design)
    } else {
        design
    };
    if config.remap_prob > 0.0 {
        decompose_uniform(&design, config.remap_prob, &mut rng)
    } else {
        design
    }
}

/// Generates the RTL module for a family instance.
pub fn generate_rtl(
    family: Family,
    index: usize,
    rng: &mut StdRng,
    config: &GenerateConfig,
) -> RtlModule {
    let name = format!("{}_{index}", family.name().to_lowercase());
    let mut b = RtlBuilder::new(name, rng);
    let s = config.scale;
    match family {
        Family::Itc99 => {
            for _ in 0..scaled(2, s, b.rng) {
                b.fsm(4, 3);
            }
            for _ in 0..scaled(2, s, b.rng) {
                b.counter(5, true);
            }
            for _ in 0..scaled(2, s, b.rng) {
                b.compare_block(5);
            }
            for _ in 0..scaled(3, s, b.rng) {
                b.mux_network(4, 3);
            }
            b.logic_cloud(4, 2);
        }
        Family::OpenCores => {
            b.arith_block(3, false);
            // Peripheral cores always carry at least a status counter, so
            // the Table IV opencores rows have register endpoints.
            let as_state = b.rng.gen_bool(0.3);
            b.counter(3, as_state);
            b.logic_cloud(3, 1);
        }
        Family::Chipyard => {
            for _ in 0..scaled(2, s, b.rng) {
                b.arith_block(6, true);
            }
            for _ in 0..scaled(2, s, b.rng) {
                b.arith_block(5, false);
            }
            b.fsm(3, 2);
            for _ in 0..scaled(3, s, b.rng) {
                b.register_bank(6, 3);
            }
            b.mux_network(6, 4);
        }
        Family::VexRiscv => {
            b.alu(5);
            b.compare_block(5);
            b.counter(6, true);
            for _ in 0..scaled(2, s, b.rng) {
                b.register_bank(5, 2);
            }
            b.fsm(3, 2);
        }
    }
    b.finish()
}

fn scaled(base: usize, scale: f64, rng: &mut StdRng) -> usize {
    let jitter: usize = rng.gen_range(0..=1);
    ((base as f64 * scale).round() as usize + jitter).max(1)
}

/// Incremental RTL builder with fresh-name management.
struct RtlBuilder<'a> {
    m: RtlModule,
    rng: &'a mut StdRng,
    n_sig: usize,
    /// Wires available as operands for later blocks.
    feed: Vec<SignalId>,
}

impl<'a> RtlBuilder<'a> {
    fn new(name: String, rng: &'a mut StdRng) -> Self {
        RtlBuilder {
            m: RtlModule::new(name),
            rng,
            n_sig: 0,
            feed: Vec::new(),
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.n_sig += 1;
        format!("{prefix}{}", self.n_sig)
    }

    fn input(&mut self, width: u8) -> SignalId {
        let name = self.fresh("in");
        let id = self.m.signal(name, width, SignalKind::Input);
        self.feed.push(id);
        id
    }

    /// Picks an existing feed signal of roughly the width, or makes a new
    /// input.
    fn operand(&mut self, width: u8) -> WordExpr {
        let same: Vec<SignalId> = self
            .feed
            .iter()
            .copied()
            .filter(|&s| self.m.sig(s).width == width)
            .collect();
        if !same.is_empty() && self.rng.gen_bool(0.6) {
            let pick = same[self.rng.gen_range(0..same.len())];
            WordExpr::sig(pick)
        } else {
            WordExpr::sig(self.input(width))
        }
    }

    fn wire(&mut self, width: u8, expr: WordExpr) -> SignalId {
        let name = self.fresh("w");
        let id = self.m.signal(name, width, SignalKind::Wire);
        self.m.assign(id, expr);
        self.feed.push(id);
        id
    }

    fn output_of(&mut self, src: SignalId) {
        let width = self.m.sig(src).width;
        let name = self.fresh("out");
        let id = self.m.signal(name, width, SignalKind::Output);
        self.m.assign(id, WordExpr::sig(src));
    }

    /// An adder/multiplier datapath block.
    fn arith_block(&mut self, width: u8, with_mul: bool) {
        let a = self.operand(width);
        let b = self.operand(width);
        let sum = self.wire(width, WordExpr::Add(be(a.clone()), be(b.clone())));
        let out = if with_mul {
            let m = self.wire(width, WordExpr::Mul(be(a), be(b)));
            self.wire(
                width,
                WordExpr::Xor(be(WordExpr::sig(sum)), be(WordExpr::sig(m))),
            )
        } else if self.rng.gen_bool(0.4) {
            self.wire(width, WordExpr::Sub(be(a), be(b)))
        } else {
            sum
        };
        self.output_of(out);
    }

    /// A comparator block producing branch-style flags.
    fn compare_block(&mut self, width: u8) {
        let a = self.operand(width);
        let b = self.operand(width);
        let lt = self.wire(1, WordExpr::Lt(be(a.clone()), be(b.clone())));
        let eq = self.wire(1, WordExpr::Eq(be(a), be(b)));
        let flag = self.wire(
            1,
            WordExpr::Or(be(WordExpr::sig(lt)), be(WordExpr::sig(eq))),
        );
        self.output_of(flag);
    }

    /// A bitwise logic cloud of the given depth.
    fn logic_cloud(&mut self, width: u8, depth: usize) {
        let mut cur = self.operand(width);
        for _ in 0..depth {
            let other = self.operand(width);
            let op = match self.rng.gen_range(0..3u8) {
                0 => WordExpr::And(be(cur), be(other)),
                1 => WordExpr::Or(be(cur), be(other)),
                _ => WordExpr::Xor(be(cur), be(other)),
            };
            cur = WordExpr::sig(self.wire(width, op));
        }
        if let WordExpr::Sig(id) = cur {
            self.output_of(id);
        }
    }

    /// A mux selection network of the given depth (control logic).
    fn mux_network(&mut self, width: u8, depth: usize) {
        let mut cur = self.operand(width);
        for _ in 0..depth {
            let sel = self.operand(1);
            let other = self.operand(width);
            cur = WordExpr::sig(self.wire(width, WordExpr::Mux(be(sel), be(cur), be(other))));
        }
        if let WordExpr::Sig(id) = cur {
            self.output_of(id);
        }
    }

    /// A counter register; `is_state` marks control counters.
    fn counter(&mut self, width: u8, is_state: bool) {
        let name = self.fresh("cnt");
        let reg = self.m.signal(name, width, SignalKind::Reg);
        let en = if self.rng.gen_bool(0.5) {
            Some(self.operand(1))
        } else {
            None
        };
        self.m.register(
            reg,
            WordExpr::Add(
                be(WordExpr::sig(reg)),
                be(WordExpr::Const { value: 1, width }),
            ),
            en,
            is_state,
        );
        self.feed.push(reg);
    }

    /// A bank of datapath registers capturing feed values.
    fn register_bank(&mut self, width: u8, count: usize) {
        for _ in 0..count {
            let src = self.operand(width);
            let name = self.fresh("r");
            let reg = self.m.signal(name, width, SignalKind::Reg);
            let en = if self.rng.gen_bool(0.3) {
                Some(self.operand(1))
            } else {
                None
            };
            self.m.register(reg, src, en, false);
            self.feed.push(reg);
        }
    }

    /// A small FSM: state register + comparator-driven mux next-state tree.
    fn fsm(&mut self, state_width: u8, n_transitions: usize) {
        let name = self.fresh("state");
        let state = self.m.signal(name, state_width, SignalKind::Reg);
        let mut next = WordExpr::sig(state);
        for t in 0..n_transitions {
            let cond_in = self.operand(1);
            let at = WordExpr::Eq(
                be(WordExpr::sig(state)),
                be(WordExpr::Const {
                    value: t as u64,
                    width: state_width,
                }),
            );
            let go = self.wire(1, WordExpr::And(be(at), be(cond_in)));
            next = WordExpr::Mux(
                be(WordExpr::sig(go)),
                be(WordExpr::Const {
                    value: (t as u64 + 1) % (1 << state_width.min(6)),
                    width: state_width,
                }),
                be(next),
            );
        }
        self.m.register(state, next, None, true);
        self.feed.push(state);
        // Decode one state bit as an output flag (keeps the FSM live).
        let flag = self.wire(
            1,
            WordExpr::Eq(
                be(WordExpr::sig(state)),
                be(WordExpr::Const {
                    value: 1,
                    width: state_width,
                }),
            ),
        );
        self.output_of(flag);
    }

    /// An op-multiplexed ALU (VexRiscv flavour).
    fn alu(&mut self, width: u8) {
        let a = self.operand(width);
        let b = self.operand(width);
        let op0 = self.operand(1);
        let op1 = self.operand(1);
        let add = self.wire(width, WordExpr::Add(be(a.clone()), be(b.clone())));
        let sub = self.wire(width, WordExpr::Sub(be(a.clone()), be(b.clone())));
        let xor = self.wire(width, WordExpr::Xor(be(a.clone()), be(b.clone())));
        let and = self.wire(width, WordExpr::And(be(a), be(b)));
        let lo = self.wire(
            width,
            WordExpr::Mux(
                be(op0.clone()),
                be(WordExpr::sig(add)),
                be(WordExpr::sig(sub)),
            ),
        );
        let hi = self.wire(
            width,
            WordExpr::Mux(
                be(op0.clone()),
                be(WordExpr::sig(xor)),
                be(WordExpr::sig(and)),
            ),
        );
        let out = self.wire(
            width,
            WordExpr::Mux(be(op1), be(WordExpr::sig(lo)), be(WordExpr::sig(hi))),
        );
        self.output_of(out);
    }

    fn finish(self) -> RtlModule {
        self.m
    }
}

/// Generates a GNN-RE-style *combinational* multi-block design for Task 1:
/// a mix of adder/multiplier/comparator/control/logic blocks over shared
/// inputs, so each gate carries one of the block labels the task predicts.
pub fn generate_gnnre_design(index: usize, seed: u64, width: u8) -> Design {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0xA5A5_5A5A));
    // Designs deliberately differ in word width, block mix, and mapping
    // style so leave-one-design-out tests *cross-design generalization* —
    // the regime where GNN-RE degrades in the paper.
    let width = width + (index % 3) as u8;
    let mut b = RtlBuilder::new(format!("gnnre_{index}"), &mut rng);
    b.arith_block(width, index % 3 != 2);
    b.compare_block(width);
    b.mux_network(width, 2 + index % 3);
    b.logic_cloud(width, 1 + index % 2);
    if index.is_multiple_of(2) {
        b.arith_block(width.saturating_sub(1).max(2), false);
    }
    if index % 4 == 1 {
        b.compare_block(width.saturating_sub(1).max(2));
    }
    let rtl = b.finish();
    let d = elaborate(&rtl);
    let d = optimize(&d);
    let remap = 0.55 + 0.1 * (index % 4) as f64;
    decompose_uniform(&d, remap, &mut StdRng::seed_from_u64(seed ^ 0xDECA))
}

/// Counts labeled gates per block kind (handy for dataset stats and tests).
pub fn block_histogram(design: &Design) -> Vec<(BlockLabel, usize)> {
    use crate::rtl::ALL_BLOCK_LABELS;
    let mut counts = vec![0usize; ALL_BLOCK_LABELS.len()];
    for l in &design.labels {
        if let Some(b) = l.block {
            counts[b.index()] += 1;
        }
    }
    ALL_BLOCK_LABELS
        .iter()
        .copied()
        .zip(counts)
        .filter(|(_, c)| *c > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettag_netlist::NetlistStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenerateConfig::default();
        let a = generate_design(Family::VexRiscv, 3, 42, &cfg);
        let b = generate_design(Family::VexRiscv, 3, 42, &cfg);
        assert_eq!(a.netlist.gate_count(), b.netlist.gate_count());
        let sa = NetlistStats::of(&a.netlist);
        let sb = NetlistStats::of(&b.netlist);
        assert_eq!(sa.kind_counts, sb.kind_counts);
    }

    #[test]
    fn families_have_distinct_scale_ordering() {
        let cfg = GenerateConfig::default();
        let avg = |fam: Family| -> f64 {
            let mut total = 0usize;
            for i in 0..4 {
                total += generate_design(fam, i, 7, &cfg).netlist.gate_count();
            }
            total as f64 / 4.0
        };
        let oc = avg(Family::OpenCores);
        let itc = avg(Family::Itc99);
        let chip = avg(Family::Chipyard);
        let vex = avg(Family::VexRiscv);
        assert!(oc < itc, "OpenCores ({oc}) smallest vs ITC99 ({itc})");
        assert!(oc < vex, "OpenCores ({oc}) < VexRiscv ({vex})");
        assert!(chip > itc, "Chipyard ({chip}) largest vs ITC99 ({itc})");
        assert!(chip > vex, "Chipyard ({chip}) > VexRiscv ({vex})");
    }

    #[test]
    fn itc99_is_control_heavy() {
        let cfg = GenerateConfig::default();
        let d = generate_design(Family::Itc99, 0, 11, &cfg);
        let state_regs = d
            .netlist
            .registers()
            .into_iter()
            .filter(|&r| d.label(r).is_state_reg == Some(true))
            .count();
        assert!(state_regs > 0, "ITC99-like designs carry FSM state");
    }

    #[test]
    fn generated_designs_validate_and_have_labels() {
        let cfg = GenerateConfig::default();
        for fam in ALL_FAMILIES {
            let d = generate_design(fam, 0, 3, &cfg);
            assert_eq!(d.labels.len(), d.netlist.gate_count());
            assert!(d.netlist.gate_count() > 20, "{}", fam.name());
        }
    }

    #[test]
    fn gnnre_designs_mix_blocks() {
        let d = generate_gnnre_design(0, 5, 4);
        let hist = block_histogram(&d);
        assert!(hist.len() >= 3, "expected >=3 block kinds, got {hist:?}");
        // Combinational: no registers.
        assert!(d.netlist.registers().is_empty());
    }

    #[test]
    fn rtl_text_renders_for_all_families() {
        let cfg = GenerateConfig::default();
        for fam in ALL_FAMILIES {
            let d = generate_design(fam, 1, 9, &cfg);
            let text = d.rtl.render();
            assert!(text.contains("module"));
            assert!(text.len() > 100);
        }
    }
}
