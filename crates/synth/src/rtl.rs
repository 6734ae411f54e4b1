//! Word-level RTL intermediate representation.
//!
//! The RTL modality of the paper (Fig. 3(a)) is "HDL code processed
//! directly as text". This IR is the generator-facing form: word-level
//! signals, combinational assignments over arithmetic/logic operators, and
//! registered updates. [`RtlModule::render`] produces the Verilog-like text
//! consumed by the auxiliary RTL encoder, and the elaborator lowers the
//! same IR to gates, which guarantees RTL/netlist cone pairs are
//! functionally equivalent — the property cross-stage alignment relies on.

use std::fmt::Write as _;

/// Identifier of a signal within one [`RtlModule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(pub u32);

/// Signal role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// Module input port.
    Input,
    /// Module output port (driven by an assign).
    Output,
    /// Registered state.
    Reg,
    /// Internal combinational net.
    Wire,
}

/// A word-level signal.
#[derive(Debug, Clone)]
pub struct Signal {
    /// Name (valid identifier).
    pub name: String,
    /// Bit width (1..=64).
    pub width: u8,
    /// Role.
    pub kind: SignalKind,
}

/// Functional block category — the provenance label that downstream Task 1
/// (gate function identification, GNN-RE style) predicts per gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockLabel {
    /// Ripple-carry adders / subtractors.
    Adder,
    /// Array multipliers.
    Multiplier,
    /// Magnitude / equality comparators.
    Comparator,
    /// Mux trees and FSM next-state logic.
    Control,
    /// Bitwise logic clouds.
    Logic,
    /// Constant shifters / wiring.
    Shift,
}

/// All block labels in stable order (classification head layout).
pub const ALL_BLOCK_LABELS: [BlockLabel; 6] = [
    BlockLabel::Adder,
    BlockLabel::Multiplier,
    BlockLabel::Comparator,
    BlockLabel::Control,
    BlockLabel::Logic,
    BlockLabel::Shift,
];

impl BlockLabel {
    /// Dense index for classifier heads.
    pub fn index(self) -> usize {
        ALL_BLOCK_LABELS
            .iter()
            .position(|l| *l == self)
            .expect("label listed")
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BlockLabel::Adder => "adder",
            BlockLabel::Multiplier => "multiplier",
            BlockLabel::Comparator => "comparator",
            BlockLabel::Control => "control",
            BlockLabel::Logic => "logic",
            BlockLabel::Shift => "shift",
        }
    }
}

/// Word-level expression.
#[derive(Debug, Clone, PartialEq)]
pub enum WordExpr {
    /// Signal reference.
    Sig(SignalId),
    /// Constant with explicit width.
    Const {
        /// Value (truncated to `width` bits).
        value: u64,
        /// Bit width.
        width: u8,
    },
    /// `a + b` (wrapping, result width = max input width).
    Add(Box<WordExpr>, Box<WordExpr>),
    /// `a - b`.
    Sub(Box<WordExpr>, Box<WordExpr>),
    /// `a * b` (truncated to operand width).
    Mul(Box<WordExpr>, Box<WordExpr>),
    /// `a < b` (unsigned, 1-bit result).
    Lt(Box<WordExpr>, Box<WordExpr>),
    /// `a == b` (1-bit result).
    Eq(Box<WordExpr>, Box<WordExpr>),
    /// Bitwise and.
    And(Box<WordExpr>, Box<WordExpr>),
    /// Bitwise or.
    Or(Box<WordExpr>, Box<WordExpr>),
    /// Bitwise xor.
    Xor(Box<WordExpr>, Box<WordExpr>),
    /// Bitwise not.
    Not(Box<WordExpr>),
    /// `sel ? a : b` (sel is 1-bit).
    Mux(Box<WordExpr>, Box<WordExpr>, Box<WordExpr>),
    /// Left shift by a constant.
    Shl(Box<WordExpr>, u8),
    /// Right shift by a constant.
    Shr(Box<WordExpr>, u8),
}

impl WordExpr {
    /// Signal reference helper.
    pub fn sig(id: SignalId) -> WordExpr {
        WordExpr::Sig(id)
    }

    /// The block label of this operator node (None for leaves).
    pub fn label(&self) -> Option<BlockLabel> {
        match self {
            WordExpr::Sig(_) | WordExpr::Const { .. } => None,
            WordExpr::Add(..) | WordExpr::Sub(..) => Some(BlockLabel::Adder),
            WordExpr::Mul(..) => Some(BlockLabel::Multiplier),
            WordExpr::Lt(..) | WordExpr::Eq(..) => Some(BlockLabel::Comparator),
            WordExpr::And(..) | WordExpr::Or(..) | WordExpr::Xor(..) | WordExpr::Not(..) => {
                Some(BlockLabel::Logic)
            }
            WordExpr::Mux(..) => Some(BlockLabel::Control),
            WordExpr::Shl(..) | WordExpr::Shr(..) => Some(BlockLabel::Shift),
        }
    }
}

/// A combinational assignment `target = expr`.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Assigned wire/output.
    pub target: SignalId,
    /// Right-hand side.
    pub expr: WordExpr,
}

/// A registered update `target <= next` at the clock edge.
#[derive(Debug, Clone)]
pub struct RegUpdate {
    /// Register signal.
    pub target: SignalId,
    /// Next-state expression.
    pub next: WordExpr,
    /// Optional clock-enable condition (1-bit expr).
    pub enable: Option<WordExpr>,
    /// Whether the register holds *control state* (FSM state, counters
    /// steering control flow) rather than datapath values — the Task 2
    /// (ReIGNN-style) ground truth.
    pub is_state: bool,
}

/// A word-level RTL module.
#[derive(Debug, Clone, Default)]
pub struct RtlModule {
    /// Module name.
    pub name: String,
    /// Signal table.
    pub signals: Vec<Signal>,
    /// Combinational assignments (must be acyclic).
    pub assigns: Vec<Assign>,
    /// Registered updates.
    pub regs: Vec<RegUpdate>,
}

impl RtlModule {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> RtlModule {
        RtlModule {
            name: name.into(),
            ..RtlModule::default()
        }
    }

    /// Declares a signal, returning its id.
    pub fn signal(&mut self, name: impl Into<String>, width: u8, kind: SignalKind) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(Signal {
            name: name.into(),
            width,
            kind,
        });
        id
    }

    /// Adds a combinational assignment.
    pub fn assign(&mut self, target: SignalId, expr: WordExpr) {
        self.assigns.push(Assign { target, expr });
    }

    /// Adds a registered update.
    pub fn register(
        &mut self,
        target: SignalId,
        next: WordExpr,
        enable: Option<WordExpr>,
        is_state: bool,
    ) {
        self.regs.push(RegUpdate {
            target,
            next,
            enable,
            is_state,
        });
    }

    /// Signal lookup.
    pub fn sig(&self, id: SignalId) -> &Signal {
        &self.signals[id.0 as usize]
    }

    /// Renders Verilog-like RTL text — the textual RTL modality fed to the
    /// auxiliary RTL encoder (Fig. 3(a)).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let ports: Vec<&str> = self
            .signals
            .iter()
            .filter(|x| matches!(x.kind, SignalKind::Input | SignalKind::Output))
            .map(|x| x.name.as_str())
            .collect();
        let _ = writeln!(s, "module {} (clk, {});", self.name, ports.join(", "));
        for x in &self.signals {
            let range = if x.width > 1 {
                format!("[{}:0] ", x.width - 1)
            } else {
                String::new()
            };
            let kw = match x.kind {
                SignalKind::Input => "input",
                SignalKind::Output => "output",
                SignalKind::Reg => "reg",
                SignalKind::Wire => "wire",
            };
            let _ = writeln!(s, "  {kw} {range}{};", x.name);
        }
        for a in &self.assigns {
            let _ = writeln!(
                s,
                "  assign {} = {};",
                self.sig(a.target).name,
                self.render_expr(&a.expr)
            );
        }
        if !self.regs.is_empty() {
            let _ = writeln!(s, "  always @(posedge clk) begin");
            for r in &self.regs {
                let rhs = self.render_expr(&r.next);
                match &r.enable {
                    Some(en) => {
                        let _ = writeln!(
                            s,
                            "    if ({}) {} <= {};",
                            self.render_expr(en),
                            self.sig(r.target).name,
                            rhs
                        );
                    }
                    None => {
                        let _ = writeln!(s, "    {} <= {};", self.sig(r.target).name, rhs);
                    }
                }
            }
            let _ = writeln!(s, "  end");
        }
        s.push_str("endmodule\n");
        s
    }

    fn render_expr(&self, e: &WordExpr) -> String {
        match e {
            WordExpr::Sig(id) => self.sig(*id).name.clone(),
            WordExpr::Const { value, width } => format!("{width}'d{value}"),
            WordExpr::Add(a, b) => format!("({} + {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Sub(a, b) => format!("({} - {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Mul(a, b) => format!("({} * {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Lt(a, b) => format!("({} < {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Eq(a, b) => format!("({} == {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::And(a, b) => format!("({} & {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Or(a, b) => format!("({} | {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Xor(a, b) => format!("({} ^ {})", self.render_expr(a), self.render_expr(b)),
            WordExpr::Not(a) => format!("(~{})", self.render_expr(a)),
            WordExpr::Mux(s_, a, b) => format!(
                "({} ? {} : {})",
                self.render_expr(s_),
                self.render_expr(a),
                self.render_expr(b)
            ),
            WordExpr::Shl(a, k) => format!("({} << {k})", self.render_expr(a)),
            WordExpr::Shr(a, k) => format!("({} >> {k})", self.render_expr(a)),
        }
    }

    /// Word-level simulation of one clock cycle: given input values and
    /// current register values, returns (wire/output values, next register
    /// values). Used by tests to prove elaboration correctness.
    ///
    /// # Panics
    ///
    /// Panics if a combinational assignment references an unassigned wire
    /// (assignments must be topologically ordered, which the generators
    /// guarantee).
    pub fn simulate_cycle(
        &self,
        inputs: &std::collections::HashMap<SignalId, u64>,
        regs: &std::collections::HashMap<SignalId, u64>,
    ) -> (
        std::collections::HashMap<SignalId, u64>,
        std::collections::HashMap<SignalId, u64>,
    ) {
        let mut values: std::collections::HashMap<SignalId, u64> = inputs.clone();
        for (id, v) in regs {
            values.insert(*id, *v);
        }
        for a in &self.assigns {
            let v = self.eval_expr(&a.expr, &values);
            let w = self.sig(a.target).width;
            values.insert(a.target, v & mask(w));
        }
        let mut next = regs.clone();
        for r in &self.regs {
            let en = r
                .enable
                .as_ref()
                .map(|e| self.eval_expr(e, &values) & 1 == 1)
                .unwrap_or(true);
            if en {
                let v = self.eval_expr(&r.next, &values);
                let w = self.sig(r.target).width;
                next.insert(r.target, v & mask(w));
            }
        }
        (values, next)
    }

    fn eval_expr(&self, e: &WordExpr, values: &std::collections::HashMap<SignalId, u64>) -> u64 {
        match e {
            WordExpr::Sig(id) => *values
                .get(id)
                .unwrap_or_else(|| panic!("signal {} unassigned", self.sig(*id).name)),
            WordExpr::Const { value, width } => value & mask(*width),
            WordExpr::Add(a, b) => {
                let w = self.expr_width(a).max(self.expr_width(b));
                (self
                    .eval_expr(a, values)
                    .wrapping_add(self.eval_expr(b, values)))
                    & mask(w)
            }
            WordExpr::Sub(a, b) => {
                let w = self.expr_width(a).max(self.expr_width(b));
                (self
                    .eval_expr(a, values)
                    .wrapping_sub(self.eval_expr(b, values)))
                    & mask(w)
            }
            WordExpr::Mul(a, b) => {
                let w = self.expr_width(a).max(self.expr_width(b));
                (self
                    .eval_expr(a, values)
                    .wrapping_mul(self.eval_expr(b, values)))
                    & mask(w)
            }
            WordExpr::Lt(a, b) => u64::from(self.eval_expr(a, values) < self.eval_expr(b, values)),
            WordExpr::Eq(a, b) => u64::from(self.eval_expr(a, values) == self.eval_expr(b, values)),
            WordExpr::And(a, b) => self.eval_expr(a, values) & self.eval_expr(b, values),
            WordExpr::Or(a, b) => self.eval_expr(a, values) | self.eval_expr(b, values),
            WordExpr::Xor(a, b) => self.eval_expr(a, values) ^ self.eval_expr(b, values),
            WordExpr::Not(a) => !self.eval_expr(a, values) & mask(self.expr_width(a)),
            WordExpr::Mux(s, a, b) => {
                if self.eval_expr(s, values) & 1 == 1 {
                    self.eval_expr(a, values)
                } else {
                    self.eval_expr(b, values)
                }
            }
            WordExpr::Shl(a, k) => (self.eval_expr(a, values) << k) & mask(self.expr_width(a)),
            WordExpr::Shr(a, k) => self.eval_expr(a, values) >> k,
        }
    }

    /// Result width of an expression.
    pub fn expr_width(&self, e: &WordExpr) -> u8 {
        match e {
            WordExpr::Sig(id) => self.sig(*id).width,
            WordExpr::Const { width, .. } => *width,
            WordExpr::Add(a, b)
            | WordExpr::Sub(a, b)
            | WordExpr::Mul(a, b)
            | WordExpr::And(a, b)
            | WordExpr::Or(a, b)
            | WordExpr::Xor(a, b) => self.expr_width(a).max(self.expr_width(b)),
            WordExpr::Lt(..) | WordExpr::Eq(..) => 1,
            WordExpr::Not(a) | WordExpr::Shl(a, _) | WordExpr::Shr(a, _) => self.expr_width(a),
            WordExpr::Mux(_, a, b) => self.expr_width(a).max(self.expr_width(b)),
        }
    }
}

fn mask(width: u8) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn alu_module() -> (RtlModule, SignalId, SignalId, SignalId, SignalId) {
        let mut m = RtlModule::new("mini_alu");
        let a = m.signal("a", 4, SignalKind::Input);
        let b = m.signal("b", 4, SignalKind::Input);
        let sum = m.signal("sum", 4, SignalKind::Wire);
        let out = m.signal("out", 4, SignalKind::Output);
        m.assign(
            sum,
            WordExpr::Add(Box::new(WordExpr::sig(a)), Box::new(WordExpr::sig(b))),
        );
        m.assign(
            out,
            WordExpr::Mux(
                Box::new(WordExpr::Lt(
                    Box::new(WordExpr::sig(a)),
                    Box::new(WordExpr::sig(b)),
                )),
                Box::new(WordExpr::sig(sum)),
                Box::new(WordExpr::Xor(
                    Box::new(WordExpr::sig(a)),
                    Box::new(WordExpr::sig(b)),
                )),
            ),
        );
        (m, a, b, sum, out)
    }

    #[test]
    fn render_produces_hdl_text() {
        let (m, ..) = alu_module();
        let text = m.render();
        assert!(text.contains("module mini_alu (clk, a, b, out);"));
        assert!(text.contains("input [3:0] a;"));
        assert!(text.contains("assign sum = (a + b);"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn simulate_cycle_evaluates_combinational_logic() {
        let (m, a, b, _, out) = alu_module();
        let mut inputs = HashMap::new();
        inputs.insert(a, 3);
        inputs.insert(b, 5);
        let (values, _) = m.simulate_cycle(&inputs, &HashMap::new());
        // 3 < 5, so out = sum = 8.
        assert_eq!(values[&out], 8);
        inputs.insert(a, 9);
        inputs.insert(b, 5);
        let (values, _) = m.simulate_cycle(&inputs, &HashMap::new());
        // 9 >= 5, so out = 9 ^ 5 = 12.
        assert_eq!(values[&out], 12);
    }

    #[test]
    fn registers_update_on_cycle() {
        let mut m = RtlModule::new("counter");
        let cnt = m.signal("cnt", 4, SignalKind::Reg);
        m.register(
            cnt,
            WordExpr::Add(
                Box::new(WordExpr::sig(cnt)),
                Box::new(WordExpr::Const { value: 1, width: 4 }),
            ),
            None,
            true,
        );
        let mut regs = HashMap::new();
        regs.insert(cnt, 15);
        let (_, next) = m.simulate_cycle(&HashMap::new(), &regs);
        assert_eq!(next[&cnt], 0, "4-bit counter wraps");
    }

    #[test]
    fn enable_gates_register_updates() {
        let mut m = RtlModule::new("en");
        let en = m.signal("en", 1, SignalKind::Input);
        let r = m.signal("r", 4, SignalKind::Reg);
        m.register(
            r,
            WordExpr::Const { value: 7, width: 4 },
            Some(WordExpr::sig(en)),
            false,
        );
        let mut regs = HashMap::new();
        regs.insert(r, 1);
        let mut inputs = HashMap::new();
        inputs.insert(en, 0);
        let (_, next) = m.simulate_cycle(&inputs, &regs);
        assert_eq!(next[&r], 1, "disabled register holds");
        inputs.insert(en, 1);
        let (_, next) = m.simulate_cycle(&inputs, &regs);
        assert_eq!(next[&r], 7);
    }

    #[test]
    fn labels_map_operators_to_blocks() {
        let (m, a, ..) = alu_module();
        assert_eq!(m.assigns[0].expr.label(), Some(BlockLabel::Adder));
        assert_eq!(m.assigns[1].expr.label(), Some(BlockLabel::Control));
        assert_eq!(WordExpr::sig(a).label(), None);
    }

    #[test]
    fn expr_width_follows_operands() {
        let (m, a, b, ..) = alu_module();
        let lt = WordExpr::Lt(Box::new(WordExpr::sig(a)), Box::new(WordExpr::sig(b)));
        assert_eq!(m.expr_width(&lt), 1);
        let add = WordExpr::Add(Box::new(WordExpr::sig(a)), Box::new(WordExpr::sig(b)));
        assert_eq!(m.expr_width(&add), 4);
    }
}
