//! The gate-level netlist graph.
//!
//! A netlist is a DAG of gate nodes (one node per driven net) plus
//! sequential elements that break combinational cycles. This is the `G_N =
//! {T, E}` of paper Sec. II-B before text attributes are attached.

use crate::cell::CellKind;
use crate::inline::{GateName, Pins};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a gate node within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u32);

impl GateId {
    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One gate instance. Its name and pins are stored inline in the common
/// case, so a gate owns no heap allocation (48 bytes in all).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Instance name (`U3`, `R1`, …).
    pub name: GateName,
    /// Library cell kind.
    pub kind: CellKind,
    /// Ordered input pins (driver gate ids).
    pub fanin: Pins,
    /// Drive-strength multiplier set by sizing optimization (1.0 = nominal).
    pub size: f64,
}

/// Errors detected while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate's fan-in count does not match its cell kind's pin count.
    ArityMismatch {
        /// Offending gate name.
        gate: String,
        /// Expected pin count.
        expected: usize,
        /// Provided pin count.
        found: usize,
    },
    /// A fan-in refers to a gate id that does not exist.
    DanglingFanin {
        /// Offending gate name.
        gate: String,
    },
    /// The combinational subgraph contains a cycle.
    CombinationalCycle {
        /// A gate on the cycle.
        gate: String,
    },
    /// Two gates share one instance name.
    DuplicateName(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                gate,
                expected,
                found,
            } => write!(f, "gate {gate}: expected {expected} fan-ins, found {found}"),
            NetlistError::DanglingFanin { gate } => {
                write!(f, "gate {gate}: fan-in references unknown gate")
            }
            NetlistError::CombinationalCycle { gate } => {
                write!(f, "combinational cycle through gate {gate}")
            }
            NetlistError::DuplicateName(n) => write!(f, "duplicate gate name {n}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A gate-level netlist.
///
/// The gates' fan-ins are the graph; [`Netlist::fanout`] is derived from
/// them and follows every edit, so a netlist answers the same whether or
/// not it ran [`Netlist::validate`]. Code that assumes a well-formed
/// netlist (topological order, TAG building) panics on a cyclic one;
/// `validate` turns that into a [`NetlistError`].
///
/// # Examples
///
/// ```
/// use nettag_netlist::{CellKind, Netlist};
/// let mut n = Netlist::new("demo");
/// let a = n.add_gate("a", CellKind::Input, vec![]);
/// let b = n.add_gate("b", CellKind::Input, vec![]);
/// let g = n.add_gate("U1", CellKind::Nand2, vec![a, b]);
/// n.add_gate("y", CellKind::Output, vec![g]);
/// let n = n.validate().expect("well-formed");
/// assert_eq!(n.gate_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: Box<str>,
    gates: Vec<Gate>,
    /// Fan-out adjacency of the current fan-ins, built on the first
    /// [`Netlist::fanout`] (or kept from [`Netlist::validate`]) and dropped
    /// by every edit, since many netlists never ask (extracted cones on
    /// their way to a socket, for one). Boxed, so a netlist that never
    /// asks carries 16 bytes here rather than 56.
    fanouts: OnceLock<Box<Fanouts>>,
}

/// Fan-out adjacency in CSR form: gate `i`'s sinks are
/// `ids[start[i]..start[i + 1]]`, in ascending sink order.
#[derive(Debug, Clone)]
struct Fanouts {
    start: Vec<u32>,
    ids: Vec<GateId>,
}

impl Fanouts {
    fn of(gates: &[Gate]) -> Fanouts {
        let n = gates.len();
        let mut start = vec![0u32; n + 1];
        for g in gates {
            for f in g.fanin.iter().filter(|f| f.index() < n) {
                start[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut ids = vec![GateId(0); start[n] as usize];
        for (i, g) in gates.iter().enumerate() {
            for f in g.fanin.iter().filter(|f| f.index() < n) {
                ids[next[f.index()] as usize] = GateId(i as u32);
                next[f.index()] += 1;
            }
        }
        Fanouts { start, ids }
    }

    fn sinks(&self, id: GateId) -> &[GateId] {
        match self.start.get(id.index()..id.index() + 2) {
            Some(&[lo, hi]) => &self.ids[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

impl Netlist {
    /// Creates an empty netlist with a design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist::with_capacity(name, 0)
    }

    /// [`Netlist::new`] with room for `gates` gates.
    pub(crate) fn with_capacity(name: impl Into<String>, gates: usize) -> Netlist {
        Netlist {
            name: name.into().into_boxed_str(),
            gates: Vec::with_capacity(gates),
            fanouts: OnceLock::new(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a gate and returns its id.
    pub fn add_gate(
        &mut self,
        name: impl Into<GateName>,
        kind: CellKind,
        fanin: impl Into<Pins>,
    ) -> GateId {
        self.fanouts.take();
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            name: name.into(),
            kind,
            fanin: fanin.into(),
            size: 1.0,
        });
        id
    }

    /// Number of gates (including pseudo-cells).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Immutable access to a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Mutable access to a gate (used by optimization passes).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        self.fanouts.take();
        &mut self.gates[id.index()]
    }

    /// Iterates over `(id, gate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// All gate ids.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Primary input ids.
    pub fn inputs(&self) -> Vec<GateId> {
        self.of_kind(CellKind::Input)
    }

    /// Primary output ids.
    pub fn outputs(&self) -> Vec<GateId> {
        self.of_kind(CellKind::Output)
    }

    /// Sequential element ids.
    pub fn registers(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    fn of_kind(&self, kind: CellKind) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Fan-out list of a gate: the gates that list `id` among their
    /// fan-ins, in ascending order (a sink appears once per pin it ties to
    /// `id`). Always follows the current fan-ins; the table behind it is
    /// built on the first call after an edit.
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        self.fanouts
            .get_or_init(|| Box::new(Fanouts::of(&self.gates)))
            .sinks(id)
    }

    /// Validates structure (arities, dangling refs, unique names, no
    /// combinational cycles) and keeps the fan-out table it builds for the
    /// cycle check.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(mut self) -> Result<Netlist, NetlistError> {
        let mut names: HashSet<&str> = HashSet::with_capacity(self.gates.len());
        if let Some(g) = self.gates.iter().find(|g| !names.insert(g.name.as_str())) {
            return Err(NetlistError::DuplicateName(g.name.to_string()));
        }
        for g in &self.gates {
            if g.fanin.len() != g.kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: g.name.to_string(),
                    expected: g.kind.arity(),
                    found: g.fanin.len(),
                });
            }
            if g.fanin.iter().any(|f| f.index() >= self.gates.len()) {
                return Err(NetlistError::DanglingFanin {
                    gate: g.name.to_string(),
                });
            }
        }
        // Kahn's algorithm over combinational edges only: an edge u->v is
        // combinational iff v is not sequential (register D pins terminate
        // paths) — registers' outputs still start new paths.
        let fanouts = Fanouts::of(&self.gates);
        let n = self.gates.len();
        let mut indeg = vec![0usize; n];
        for (i, g) in self.gates.iter().enumerate() {
            if !g.kind.is_sequential() {
                indeg[i] = g.fanin.len();
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in fanouts.sinks(GateId(u as u32)) {
                let vi = v.index();
                if self.gates[vi].kind.is_sequential() {
                    continue;
                }
                indeg[vi] -= 1;
                if indeg[vi] == 0 {
                    queue.push(vi);
                }
            }
        }
        if seen != n {
            let gate = self
                .gates
                .iter()
                .enumerate()
                .find(|(i, g)| indeg[*i] > 0 && !g.kind.is_sequential())
                .map(|(_, g)| g.name.to_string())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { gate });
        }
        self.gates.shrink_to_fit();
        self.fanouts = OnceLock::from(Box::new(fanouts));
        Ok(self)
    }

    /// Looks up a gate id by instance name (linear scan; fine for tests and
    /// tooling, hot paths should hold ids).
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.iter().find(|(_, g)| g.name == name).map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_example() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        let b = n.add_gate("b", CellKind::Input, vec![]);
        let g = n.add_gate("U1", CellKind::And2, vec![a, b]);
        n.add_gate("y", CellKind::Output, vec![g]);
        n
    }

    #[test]
    fn validate_accepts_simple_design() {
        let n = two_input_example().validate().expect("valid");
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert!(n.registers().is_empty());
    }

    #[test]
    fn fanout_follows_edits() {
        // Before any validate, and after each edit, with or without a
        // query in between.
        let mut n = two_input_example();
        let a = n.find("a").expect("exists");
        let b = n.find("b").expect("exists");
        let u1 = n.find("U1").expect("exists");
        assert_eq!(n.fanout(a), &[u1]);
        n.gate_mut(u1).fanin = [b, b].into();
        assert!(n.fanout(a).is_empty());
        assert_eq!(n.fanout(b), &[u1, u1]);
        let mut n = n.validate().expect("valid");
        let u2 = n.add_gate("U2", CellKind::Inv, vec![a]);
        assert_eq!(n.fanout(a), &[u2]);
        assert!(Netlist::new("fresh").fanout(GateId(0)).is_empty());
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_gate("a", CellKind::Input, vec![]);
        n.add_gate("U1", CellKind::And2, vec![a]);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut n = Netlist::new("t");
        n.add_gate("a", CellKind::Input, vec![]);
        n.add_gate("a", CellKind::Input, vec![]);
        assert!(matches!(n.validate(), Err(NetlistError::DuplicateName(_))));
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut n = Netlist::new("t");
        // U1 and U2 feed each other.
        let u1 = GateId(0);
        let u2 = GateId(1);
        n.add_gate("U1", CellKind::Inv, vec![u2]);
        n.add_gate("U2", CellKind::Inv, vec![u1]);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn registers_break_cycles() {
        let mut n = Netlist::new("t");
        let r = GateId(0);
        let inv = GateId(1);
        n.add_gate("R1", CellKind::Dff, vec![inv]);
        n.add_gate("U1", CellKind::Inv, vec![r]);
        let n = n.validate().expect("register breaks the loop");
        assert_eq!(n.registers().len(), 1);
    }

    #[test]
    fn dangling_fanin_is_rejected() {
        let mut n = Netlist::new("t");
        n.add_gate("U1", CellKind::Inv, vec![GateId(99)]);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::DanglingFanin { .. })
        ));
    }
}
