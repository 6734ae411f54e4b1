//! Expression evaluation, truth tables, and semantic equivalence.
//!
//! The paper's key argument for symbolic expressions (Sec. II-B, advantage 2)
//! is that they "enable straightforward static analysis, covering all input
//! conditions without exponential growth problems by exhaustive truth table
//! simulation". We still need exact semantics for *validating* equivalence
//! rewrites and for semantic signatures, so this module provides exact truth
//! tables up to a support budget and falls back to seeded random sampling
//! ("probabilistic equivalence") above it — mirroring how formal toolkits
//! mix exhaustive and sampled checks.

use crate::ast::{Expr, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Largest support size for which exact truth tables are built.
/// 2^16 bits = 1 KiB of table — cheap enough for datasets of 10^5 gates.
pub const MAX_EXACT_SUPPORT: usize = 16;

/// Number of random assignments used when the joint support exceeds
/// [`MAX_EXACT_SUPPORT`].
pub const SAMPLED_CHECKS: usize = 256;

/// Evaluates the expression under a variable assignment.
///
/// Variables missing from `env` evaluate to `false` (grounded inputs), which
/// matches how dangling cone frontiers are treated during dataset
/// construction.
pub fn eval(expr: &Expr, env: &HashMap<Var, bool>) -> bool {
    match expr {
        Expr::Const(b) => *b,
        Expr::Var(v) => env.get(v).copied().unwrap_or(false),
        Expr::Not(e) => !eval(e, env),
        Expr::And(es) => es.iter().all(|e| eval(e, env)),
        Expr::Or(es) => es.iter().any(|e| eval(e, env)),
        Expr::Xor(es) => es.iter().fold(false, |acc, e| acc ^ eval(e, env)),
        Expr::Ite(s, t, e) => {
            if eval(s, env) {
                eval(t, env)
            } else {
                eval(e, env)
            }
        }
    }
}

/// Evaluates with variables bound positionally: `vars[i]` takes bit `i` of
/// `assignment`. Faster than building a `HashMap` in inner loops.
pub fn eval_positional(expr: &Expr, vars: &[Var], assignment: u64) -> bool {
    fn go(expr: &Expr, vars: &[Var], assignment: u64) -> bool {
        match expr {
            Expr::Const(b) => *b,
            Expr::Var(v) => vars
                .iter()
                .position(|w| w == v)
                .map(|i| assignment >> i & 1 == 1)
                .unwrap_or(false),
            Expr::Not(e) => !go(e, vars, assignment),
            Expr::And(es) => es.iter().all(|e| go(e, vars, assignment)),
            Expr::Or(es) => es.iter().any(|e| go(e, vars, assignment)),
            Expr::Xor(es) => es
                .iter()
                .fold(false, |acc, e| acc ^ go(e, vars, assignment)),
            Expr::Ite(s, t, e) => {
                if go(s, vars, assignment) {
                    go(t, vars, assignment)
                } else {
                    go(e, vars, assignment)
                }
            }
        }
    }
    go(expr, vars, assignment)
}

/// An exact truth table over a sorted support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthTable {
    /// Sorted variable support the table is defined over.
    pub support: Vec<Var>,
    /// Output bits packed into u64 words; bit `i` is the output for the
    /// assignment whose bits follow `support` order.
    pub bits: Vec<u64>,
}

impl TruthTable {
    /// Builds the exact truth table of `expr` over its own support.
    ///
    /// Returns `None` if the support exceeds [`MAX_EXACT_SUPPORT`].
    pub fn of(expr: &Expr) -> Option<TruthTable> {
        Self::over(expr, expr.support())
    }

    /// Builds the truth table over a caller-provided (sorted) support, which
    /// must include the expression's support.
    ///
    /// Returns `None` if `support.len() > MAX_EXACT_SUPPORT`.
    pub fn over(expr: &Expr, support: Vec<Var>) -> Option<TruthTable> {
        if support.len() > MAX_EXACT_SUPPORT {
            return None;
        }
        let rows = 1u64 << support.len();
        let words = rows.div_ceil(64) as usize;
        let mut bits = vec![0u64; words.max(1)];
        for row in 0..rows {
            if eval_positional(expr, &support, row) {
                bits[(row / 64) as usize] |= 1 << (row % 64);
            }
        }
        // Mask off unused high bits so equality compares cleanly.
        let used = (rows % 64) as u32;
        if used != 0 {
            let last = bits.len() - 1;
            bits[last] &= (1u64 << used) - 1;
        }
        Some(TruthTable { support, bits })
    }

    /// Number of input variables.
    pub fn arity(&self) -> usize {
        self.support.len()
    }
}

/// A 64-bit semantic signature: equal for functionally-equivalent
/// expressions (over the same support universe), unequal with high
/// probability otherwise.
///
/// For supports ≤ [`MAX_EXACT_SUPPORT`] the signature hashes the exact truth
/// table; above that it hashes outputs on [`SAMPLED_CHECKS`] seeded random
/// assignments, so collisions are possible but astronomically unlikely to
/// matter for dataset curation.
pub fn semantic_signature(expr: &Expr) -> u64 {
    let support = expr.support();
    let mut h = DefaultHasher::new();
    for v in &support {
        v.hash(&mut h);
    }
    if let Some(tt) = TruthTable::over(expr, support.clone()) {
        tt.bits.hash(&mut h);
    } else {
        let mut rng = StdRng::seed_from_u64(0x5eed_516e);
        for _ in 0..SAMPLED_CHECKS {
            let mut env = HashMap::new();
            for v in &support {
                env.insert(v.clone(), rng.gen_bool(0.5));
            }
            eval(expr, &env).hash(&mut h);
        }
    }
    h.finish()
}

/// Checks semantic equivalence of two expressions over the union of their
/// supports. Exact when the joint support fits [`MAX_EXACT_SUPPORT`];
/// otherwise sampled with [`SAMPLED_CHECKS`] seeded assignments (sound for
/// "not equivalent", probabilistic for "equivalent").
pub fn equivalent(a: &Expr, b: &Expr) -> bool {
    let mut support = a.support();
    for v in b.support() {
        if !support.contains(&v) {
            support.push(v);
        }
    }
    support.sort();
    if support.len() <= MAX_EXACT_SUPPORT {
        let ta = TruthTable::over(a, support.clone()).expect("within budget");
        let tb = TruthTable::over(b, support).expect("within budget");
        return ta.bits == tb.bits;
    }
    let mut rng = StdRng::seed_from_u64(0xE9u64 ^ support.len() as u64);
    for _ in 0..SAMPLED_CHECKS {
        let mut env = HashMap::new();
        for v in &support {
            env.insert(v.clone(), rng.gen_bool(0.5));
        }
        if eval(a, &env) != eval(b, &env) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Expr {
        Expr::var(s)
    }

    #[test]
    fn eval_basic_gates() {
        let mut env = HashMap::new();
        env.insert(Var::from("a"), true);
        env.insert(Var::from("b"), false);
        assert!(!eval(&Expr::and2(v("a"), v("b")), &env));
        assert!(eval(&Expr::or2(v("a"), v("b")), &env));
        assert!(eval(&Expr::xor2(v("a"), v("b")), &env));
        assert!(!eval(&Expr::not(v("a")), &env));
        assert!(eval(&Expr::ite(v("a"), Expr::TRUE, Expr::FALSE), &env));
    }

    #[test]
    fn missing_vars_default_false() {
        let env = HashMap::new();
        assert!(!eval(&v("zz"), &env));
    }

    #[test]
    fn truth_table_nor_matches_hand_computation() {
        // NOR(a,b): only row a=0,b=0 is 1.
        let e = Expr::not(Expr::or2(v("a"), v("b")));
        let tt = TruthTable::of(&e).expect("small support");
        assert_eq!(tt.arity(), 2);
        assert_eq!(tt.bits[0] & 0b1111, 0b0001);
    }

    #[test]
    fn de_morgan_is_equivalent() {
        let lhs = Expr::not(Expr::and2(v("a"), v("b")));
        let rhs = Expr::or2(Expr::not(v("a")), Expr::not(v("b")));
        assert!(equivalent(&lhs, &rhs));
    }

    #[test]
    fn different_functions_are_not_equivalent() {
        assert!(!equivalent(
            &Expr::and2(v("a"), v("b")),
            &Expr::or2(v("a"), v("b"))
        ));
    }

    #[test]
    fn equivalence_over_disjoint_supports() {
        // a & !a == b & !b == 0
        let lhs = Expr::and2(v("a"), Expr::not(v("a")));
        let rhs = Expr::and2(v("b"), Expr::not(v("b")));
        assert!(equivalent(&lhs, &rhs));
    }

    #[test]
    fn signatures_agree_for_rewritten_forms() {
        let lhs = Expr::not(Expr::and2(v("a"), v("b")));
        let rhs = Expr::or2(Expr::not(v("b")), Expr::not(v("a")));
        assert_eq!(semantic_signature(&lhs), semantic_signature(&rhs));
    }

    #[test]
    fn signatures_differ_for_different_functions() {
        assert_ne!(
            semantic_signature(&Expr::and2(v("a"), v("b"))),
            semantic_signature(&Expr::or2(v("a"), v("b")))
        );
    }

    #[test]
    fn large_support_falls_back_to_sampling() {
        let vars: Vec<Expr> = (0..20).map(|i| v(&format!("x{i}"))).collect();
        let e = Expr::and(vars.clone());
        assert!(TruthTable::of(&e).is_none());
        // AND of 20 vars vs OR of 20 vars: sampling must distinguish them.
        assert!(!equivalent(&e, &Expr::or(vars)));
    }
}
