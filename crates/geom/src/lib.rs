//! Layout-geometry modality for NetTAG.
//!
//! NetTAG's headline claim is *multimodal RTL-and-layout-aligned* netlist
//! embeddings, but a cone embedding computed from text-attributed graphs
//! alone never sees where the gates actually land on the die. This crate
//! turns the `nettag-physical` flow into a first-class modality in three
//! pieces:
//!
//! 1. [`geometry_features`] / [`cone_geometry`] — a deterministic feature
//!    extractor that walks a [`FlowOutcome`](nettag_physical::FlowOutcome)
//!    and emits [`GEOM_DIM`] spatial features per gate: normalized x/y
//!    position, local placement density, the net's HPWL share, endpoint
//!    slack, switching activity, and drive/load from parasitics.
//! 2. [`GeomEncoder`] — a small MLP over those features, built on
//!    `nettag_nn` tape ops so it trains through the existing data-parallel
//!    driver bitwise-deterministically at any thread count (pinned by
//!    `tests/equivalence.rs`).
//! 3. [`FusionHead`] / [`FusionModel`] — cross-attention that attends the
//!    TAGFormer cone embedding (one query row) over the cone's gate-level
//!    geometry tokens (FusionCell's geometry×topology recipe), followed by
//!    a residual + LayerNorm, producing a fused embedding of the same
//!    width. [`FusionModel::fuse`] is the serving path: the tape forward
//!    on a no-grad graph, so bit-identical to it.
//!
//! The TAG-style layout pretext task (predict relative placement distance
//! between gate pairs from graph embeddings) lives in
//! `nettag_core::pretrain` as the optional third pretraining objective;
//! the Table-V-style fine-tune scenarios on top of the fused embedding
//! live in `nettag_tasks::geom_tasks`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;
mod features;
mod fusion;

pub use encoder::GeomEncoder;
pub use features::{cone_geometry, geometry_features, GEOM_DIM};
pub use fusion::{train_fusion, FusionHead, FusionModel, FusionSample, FusionTrainConfig};
