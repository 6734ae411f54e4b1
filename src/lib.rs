//! # NetTAG — multimodal RTL-and-layout-aligned netlist foundation model
//!
//! A full-system Rust reproduction of *"NetTAG: A Multimodal
//! RTL-and-Layout-Aligned Netlist Foundation Model via Text-Attributed
//! Graph"* (DAC 2025): netlists become text-attributed graphs whose gates
//! carry symbolic logic expressions and physical characteristics; an
//! LLM-style text encoder ([`core::ExprLlm`]) and a graph transformer
//! ([`core::TagFormer`]) are pre-trained with circuit self-supervision and
//! cross-stage alignment, then fine-tuned for functional and physical
//! netlist tasks.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`expr`] — Boolean symbolic expressions (PySMT substitute)
//! * [`netlist`] — cells, netlist graphs, cones, TAGs, AIGs, Verilog
//! * [`synth`] — RTL IR, benchmark generators, elaboration, optimization
//! * [`physical`] — placement, parasitics, STA, power, layout graphs
//! * [`nn`] — tensors, autograd, layers, optimizers, GBDT
//! * [`core`] — ExprLLM, TAGFormer, pre-training, fine-tuning, layout
//!   geometry and its late fusion
//! * [`tasks`] — the four downstream tasks and every baseline
//! * [`serve`] — batching embedding server with a structural cone cache
//!
//! ```
//! use nettag::netlist::{CellKind, Library, Netlist, Tag, TagOptions};
//!
//! // Paper Fig. 3(b): annotate a NOR gate with its 2-hop expression.
//! let mut n = Netlist::new("fig3b");
//! let d = n.add_gate("d", CellKind::Input, vec![]);
//! let r1 = n.add_gate("R1", CellKind::Dff, vec![d]);
//! let r2 = n.add_gate("R2", CellKind::Dff, vec![d]);
//! let x = n.add_gate("X", CellKind::Xor2, vec![r1, r2]);
//! let i = n.add_gate("N", CellKind::Inv, vec![r2]);
//! let u3 = n.add_gate("U3", CellKind::Nor2, vec![x, i]);
//! n.add_gate("y", CellKind::Output, vec![u3]);
//! let n = n.validate().expect("well-formed");
//! let tag = Tag::from_netlist(&n, &Library::default(), &TagOptions::default());
//! assert!(tag.attribute_text(u3.index()).contains("[Symbolic expression]"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nettag_core as core;
pub use nettag_expr as expr;
pub use nettag_netlist as netlist;
pub use nettag_nn as nn;
pub use nettag_physical as physical;
pub use nettag_serve as serve;
pub use nettag_synth as synth;
pub use nettag_tasks as tasks;
