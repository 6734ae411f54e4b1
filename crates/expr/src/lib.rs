//! # nettag-expr — Boolean symbolic expression substrate
//!
//! The formal-expression layer of the NetTAG reproduction (the role PySMT
//! plays in the paper): construction, parsing, printing, exact/probabilistic
//! semantics, equivalence-preserving rewriting for contrastive
//! augmentation, tokenization for the ExprLLM text encoder, and random
//! generation for workloads.
//!
//! ## Quick tour
//!
//! ```
//! # fn main() -> Result<(), nettag_expr::ParseExprError> {
//! use nettag_expr::{augment_equivalent, equivalent, parse_expr, AugmentConfig};
//! use rand::SeedableRng;
//!
//! // The paper's running example gate (Fig. 3b): U3 = !((R1 ^ R2) | !R2)
//! let u3 = parse_expr("!((R1 ^ R2) | !R2)")?;
//!
//! // Objective #1 positives: random Boolean-equivalence transforms.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0xDAC2025);
//! let positive = augment_equivalent(&u3, &AugmentConfig::default(), &mut rng);
//! assert!(equivalent(&u3, &positive));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod eval;
mod parse;
mod random;
mod rewrite;
mod simplify;
pub mod token;

pub use ast::{Expr, Var};
pub use eval::{
    equivalent, eval, eval_positional, semantic_signature, TruthTable, MAX_EXACT_SUPPORT,
    SAMPLED_CHECKS,
};
pub use parse::{parse_expr, ParseExprError};
pub use random::{RandomExprConfig, RandomExprGen};
pub use rewrite::{apply_rule, augment_equivalent, AugmentConfig, Rule, ALL_RULES};
pub use simplify::simplify;
