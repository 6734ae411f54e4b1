//! # nettag-nn — from-scratch neural substrate
//!
//! CPU tensor kernels, tape-based reverse-mode autograd, transformer and
//! graph-propagation layers, Adam, contrastive/classification/regression
//! losses, and gradient-boosted trees — everything the NetTAG models are
//! built from, with zero ML-framework dependencies (the substitution for
//! the paper's PyTorch/GPU stack).
//!
//! ```
//! use nettag_nn::{Adam, GradStore, Graph, Layer, Mlp, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut mlp = Mlp::new(&[2, 8, 1], &mut rng);
//! let mut opt = Adam::new(0.05);
//! let mut store = GradStore::new();
//! let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = Tensor::from_vec(4, 1, vec![0., 1., 1., 0.]);
//! for _ in 0..50 {
//!     let mut g = Graph::new();
//!     let xn = g.constant(x.clone());
//!     let pred = mlp.forward(&mut g, xn);
//!     let loss = g.mse(pred, y.clone());
//!     store.clear();
//!     g.backward_into(loss, &mut store);
//!     opt.step(&mut mlp.params_mut(), &store);
//! }
//! ```
//!
//! Inference runs the same `forward`s on a [`Graph::no_grad`] graph,
//! which keeps values but no backward state, so served outputs are the
//! training forward's bits by construction.
//!
//! Batched training steps should go through [`data_parallel::step`]:
//! one tape per sample on worker threads, a small central combine tape,
//! and a fixed-order gradient reduction that is bitwise identical at any
//! thread count.
//!
//! ## SIMD dispatch and the unsafe policy
//!
//! Every numeric hot loop runs through the runtime-dispatched lane
//! kernels in [`simd`] (scalar / AVX2, bitwise equal, selectable with
//! `NETTAG_SIMD`). The crate is `#![deny(unsafe_code)]`; the only module
//! allowed to override that is `simd/x86.rs`, which holds the
//! `std::arch::x86_64` intrinsics behind `is_x86_feature_detected!`,
//! compiles with `#![deny(unsafe_op_in_unsafe_fn)]`, and bounds-checks
//! every pointer access with asserts. The workspace has one other
//! `unsafe` site: the lifetime-erasing `transmute` in `nettag-par`'s
//! `pool.rs`, under `#[allow(unsafe_code)]`. Everything else is
//! unsafe-free.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod data_parallel;
mod gbdt;
mod grad;
mod graph;
mod layers;
mod loss;
mod optim;
pub mod simd;
mod tensor;

pub use data_parallel::SampleTape;
pub use gbdt::{GbdtConfig, GbdtRegressor};
pub use grad::GradStore;
pub use graph::{Graph, NodeId};
pub use layers::{
    Embedding, FeedForward, Layer, LayerNorm, Linear, Mlp, MultiHeadAttention, Param, QueryRows,
    TransformerBlock,
};
pub use loss::{info_nce, info_nce_symmetric, weighted_sum};
pub use optim::Adam;
pub use tensor::{SparseMatrix, Tensor};
