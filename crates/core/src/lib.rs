//! # nettag-core — the NetTAG foundation model
//!
//! The paper's primary contribution, from scratch: netlists formulated as
//! text-attributed graphs are encoded by a multimodal pair — [`ExprLlm`]
//! (bidirectional text transformer over gate attributes) and [`TagFormer`]
//! (SGFormer-style graph transformer with a `[CLS]` node) — pre-trained
//! with four circuit self-supervised objectives plus cross-stage
//! contrastive alignment against RTL and layout encoders, then fine-tuned
//! with lightweight heads for functional and physical netlist tasks. The
//! layout-geometry modality ([`cone_geometry`], [`fuse_geometry`]) appends
//! a cone's mean spatial features to its `[CLS]` embedding.
//!
//! ```no_run
//! use nettag_core::{pretrain, NetTag, NetTagConfig, PretrainConfig};
//! use nettag_core::data::{build_pretrain_data, DataConfig};
//! use nettag_netlist::Library;
//! use nettag_synth::{generate_design, Family, GenerateConfig};
//!
//! let lib = Library::default();
//! let designs: Vec<_> = (0..4)
//!     .map(|i| generate_design(Family::OpenCores, i, 42, &GenerateConfig::default()))
//!     .collect();
//! let data = build_pretrain_data(&designs, &lib, &DataConfig::default());
//! let mut model = NetTag::new(NetTagConfig::small());
//! let report = pretrain(&mut model, &data, &PretrainConfig::default());
//! assert!(!report.step2_losses.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod data;
mod encoders;
mod exprllm;
mod finetune;
mod geometry;
mod nettag;
mod persist;
mod pretrain;
mod tagformer;

pub use config::NetTagConfig;
pub use encoders::{rtl_vocab, tokenize_rtl, LayoutEncoder, RtlEncoder, RTL_KEYWORDS};
pub use exprllm::{ExprLlm, TextCache};
pub use finetune::{ClassifierHead, FinetuneConfig, RegressorHead};
pub use geometry::{cone_geometry, fuse_geometry, geometry_features, GEOM_DIM};
pub use nettag::{NetTag, TagEmbedding};
pub use persist::{
    fnv1a, load_checkpoint, load_checkpoint_shared, reload_checkpoint_shared, save_checkpoint,
    CheckpointError,
};
pub use pretrain::{
    freeze_cone_features, pretrain, pretrain_exprllm, pretrain_tagformer, FrozenCone, Objectives,
    PretrainConfig, PretrainHeads, PretrainReport,
};
pub use tagformer::{TagFormer, TagFormerLayer, TagFormerOutput};
