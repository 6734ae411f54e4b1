//! # nettag-netlist — gate-level netlist and TAG substrate
//!
//! Netlist data structures for the NetTAG reproduction: a NanGate-45-like
//! standard-cell [`Library`], the [`Netlist`] graph, traversal and
//! register-cone chunking, per-gate symbolic expression extraction, the
//! text-attributed-graph ([`Tag`]) formulation of paper Sec. II-B, AIG
//! lowering for the Fig. 5 comparison, and a structural Verilog subset.
//!
//! ```
//! use nettag_netlist::{CellKind, Library, Netlist, Tag, TagOptions};
//!
//! // The paper's Fig. 3(b) cone, by hand:
//! let mut n = Netlist::new("fig3b");
//! let d = n.add_gate("d", CellKind::Input, vec![]);
//! let r1 = n.add_gate("R1", CellKind::Dff, vec![d]);
//! let r2 = n.add_gate("R2", CellKind::Dff, vec![d]);
//! let x = n.add_gate("X", CellKind::Xor2, vec![r1, r2]);
//! let i = n.add_gate("N", CellKind::Inv, vec![r2]);
//! let u3 = n.add_gate("U3", CellKind::Nor2, vec![x, i]);
//! n.add_gate("y", CellKind::Output, vec![u3]);
//! let n = n.validate().expect("well-formed");
//!
//! // Text-attributed graph with 2-hop symbolic expressions:
//! let tag = Tag::from_netlist(&n, &Library::default(), &TagOptions::default());
//! assert!(tag.attribute_text(u3.index()).contains("[Type] NOR2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
mod cell;
mod cone;
mod expr_extract;
mod graph;
mod inline;
mod sim;
mod stats;
mod structural;
mod tag;
mod traverse;
mod verilog;

pub use aig::{
    aig_to_netlist, lit, lit_is_compl, lit_not, lit_var, netlist_to_aig, netlist_to_aig_tracked,
    Aig, Lit, LIT_FALSE, LIT_TRUE,
};
pub use cell::{CellKind, CellParams, Library, ALL_CELL_KINDS};
pub use cone::{chunk_into_cones, cone_to_netlist, Cone};
pub use expr_extract::{all_gate_exprs, gate_expr};
pub use graph::{Gate, GateId, Netlist, NetlistError};
pub use inline::{GateName, Pins, INLINE_NAME_BYTES, INLINE_PINS};
pub use sim::{next_register_values, simulate_comb};
pub use stats::NetlistStats;
pub use structural::structural_hash_with_phys;
pub use tag::{synthesis_phys_estimates, PhysProps, Tag, TagNode, TagOptions};
pub use traverse::{backward_cone, levels, logic_depth, topo_order};
pub use verilog::{parse_verilog, write_verilog, ParseVerilogError};
