//! Equivalence-preserving rewrite rules and randomized augmentation.
//!
//! Pre-training objective #1 (paper Sec. II-D) builds positive pairs for
//! expression contrastive learning by transforming each symbolic expression
//! "using randomly applied Boolean equivalence rules ... such as De-Morgan's
//! law, distributive law, commutative law, associative law, etc." (footnote
//! 4). This module implements that rule set plus a seeded augmentation
//! driver; every rule preserves the Boolean function exactly, which the
//! property tests verify against truth tables.

use crate::ast::Expr;
use crate::simplify::simplify;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The catalogue of Boolean equivalence rules used for augmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `!(a & b)  ->  !a | !b` and `!(a | b) -> !a & !b`.
    DeMorgan,
    /// `e -> !!e` on a random subterm.
    DoubleNegationIntro,
    /// `!!e -> e` wherever it appears.
    DoubleNegationElim,
    /// Shuffle operand order of a random And/Or/Xor node.
    Commute,
    /// Split an n-ary node into a nested binary tree (re-association).
    Associate,
    /// `a & (b | c) -> (a & b) | (a & c)` on one eligible node.
    Distribute,
    /// `(a & b) | (a & c) -> a & (b | c)` (factoring, inverse of Distribute).
    Factor,
    /// `a ^ b -> (a & !b) | (!a & b)` on one binary Xor node.
    XorExpand,
    /// `Ite(s, t, e) -> (s & t) | (!s & e)`.
    IteExpand,
    /// `a -> a & (a | b)` style absorption introduction using an existing
    /// sibling subterm (kept size-bounded).
    Absorb,
}

/// All rules, in a fixed order (useful for exhaustive property tests).
pub const ALL_RULES: [Rule; 10] = [
    Rule::DeMorgan,
    Rule::DoubleNegationIntro,
    Rule::DoubleNegationElim,
    Rule::Commute,
    Rule::Associate,
    Rule::Distribute,
    Rule::Factor,
    Rule::XorExpand,
    Rule::IteExpand,
    Rule::Absorb,
];

/// Applies `rule` at a pseudo-random eligible position, returning `None`
/// when the expression has no eligible site for the rule.
pub fn apply_rule(expr: &Expr, rule: Rule, rng: &mut StdRng) -> Option<Expr> {
    // Collect candidate positions as pre-order indices, then rewrite the
    // chosen one during a rebuild pass.
    let count = count_sites(expr, rule);
    if count == 0 {
        return None;
    }
    let target = rng.gen_range(0..count);
    let mut seen = 0usize;
    Some(rewrite_at(expr, rule, target, &mut seen, rng))
}

fn eligible(expr: &Expr, rule: Rule) -> bool {
    match rule {
        Rule::DeMorgan => {
            matches!(expr, Expr::Not(inner) if matches!(**inner, Expr::And(_) | Expr::Or(_)))
        }
        Rule::DoubleNegationIntro => true,
        Rule::DoubleNegationElim => {
            matches!(expr, Expr::Not(inner) if matches!(**inner, Expr::Not(_)))
        }
        Rule::Commute => {
            matches!(expr, Expr::And(es) | Expr::Or(es) | Expr::Xor(es) if es.len() >= 2)
        }
        Rule::Associate => {
            matches!(expr, Expr::And(es) | Expr::Or(es) | Expr::Xor(es) if es.len() >= 3)
        }
        Rule::Distribute => match expr {
            Expr::And(es) => es.iter().any(|e| matches!(e, Expr::Or(_))),
            Expr::Or(es) => es.iter().any(|e| matches!(e, Expr::And(_))),
            _ => false,
        },
        Rule::Factor => match expr {
            Expr::Or(es) => common_factor(es, true).is_some(),
            Expr::And(es) => common_factor(es, false).is_some(),
            _ => false,
        },
        Rule::XorExpand => matches!(expr, Expr::Xor(es) if es.len() == 2),
        Rule::IteExpand => matches!(expr, Expr::Ite(..)),
        Rule::Absorb => !expr.is_leaf(),
    }
}

fn count_sites(expr: &Expr, rule: Rule) -> usize {
    let mut n = 0;
    expr.visit(&mut |e| {
        if eligible(e, rule) {
            n += 1;
        }
    });
    n
}

/// Finds a subterm shared by at least two operands of an Or-of-Ands (when
/// `or_of_ands`) or And-of-Ors, enabling factoring.
fn common_factor(es: &[Expr], or_of_ands: bool) -> Option<(Expr, Vec<usize>)> {
    let operands = |e: &Expr| -> Option<Vec<Expr>> {
        match (e, or_of_ands) {
            (Expr::And(inner), true) | (Expr::Or(inner), false) => Some(inner.clone()),
            _ => None,
        }
    };
    for (i, ei) in es.iter().enumerate() {
        let Some(inner_i) = operands(ei) else {
            continue;
        };
        for candidate in &inner_i {
            let mut holders = vec![i];
            for (j, ej) in es.iter().enumerate().skip(i + 1) {
                if let Some(inner_j) = operands(ej) {
                    if inner_j.contains(candidate) {
                        holders.push(j);
                    }
                }
            }
            if holders.len() >= 2 {
                return Some((candidate.clone(), holders));
            }
        }
    }
    None
}

fn rewrite_at(expr: &Expr, rule: Rule, target: usize, seen: &mut usize, rng: &mut StdRng) -> Expr {
    if eligible(expr, rule) {
        if *seen == target {
            *seen += 1;
            return rewrite_here(expr, rule, rng);
        }
        *seen += 1;
    }
    match expr {
        Expr::Const(_) | Expr::Var(_) => expr.clone(),
        Expr::Not(e) => Expr::not(rewrite_at(e, rule, target, seen, rng)),
        Expr::And(es) => Expr::And(
            es.iter()
                .map(|e| rewrite_at(e, rule, target, seen, rng))
                .collect(),
        ),
        Expr::Or(es) => Expr::Or(
            es.iter()
                .map(|e| rewrite_at(e, rule, target, seen, rng))
                .collect(),
        ),
        Expr::Xor(es) => Expr::Xor(
            es.iter()
                .map(|e| rewrite_at(e, rule, target, seen, rng))
                .collect(),
        ),
        Expr::Ite(s, t, e) => Expr::ite(
            rewrite_at(s, rule, target, seen, rng),
            rewrite_at(t, rule, target, seen, rng),
            rewrite_at(e, rule, target, seen, rng),
        ),
    }
}

fn rewrite_here(expr: &Expr, rule: Rule, rng: &mut StdRng) -> Expr {
    match (rule, expr) {
        (Rule::DeMorgan, Expr::Not(inner)) => match &**inner {
            Expr::And(es) => Expr::or(es.iter().map(|e| Expr::not(e.clone())).collect()),
            Expr::Or(es) => Expr::and(es.iter().map(|e| Expr::not(e.clone())).collect()),
            _ => expr.clone(),
        },
        (Rule::DoubleNegationIntro, e) => Expr::not(Expr::not(e.clone())),
        (Rule::DoubleNegationElim, Expr::Not(inner)) => match &**inner {
            Expr::Not(e) => (**e).clone(),
            _ => expr.clone(),
        },
        (Rule::Commute, Expr::And(es)) => {
            let mut es = es.clone();
            es.shuffle(rng);
            Expr::And(es)
        }
        (Rule::Commute, Expr::Or(es)) => {
            let mut es = es.clone();
            es.shuffle(rng);
            Expr::Or(es)
        }
        (Rule::Commute, Expr::Xor(es)) => {
            let mut es = es.clone();
            es.shuffle(rng);
            Expr::Xor(es)
        }
        (Rule::Associate, Expr::And(es)) => associate(es, rng, Expr::and),
        (Rule::Associate, Expr::Or(es)) => associate(es, rng, Expr::or),
        (Rule::Associate, Expr::Xor(es)) => associate(es, rng, Expr::xor),
        (Rule::Distribute, Expr::And(es)) => distribute(es, rng, true),
        (Rule::Distribute, Expr::Or(es)) => distribute(es, rng, false),
        (Rule::Factor, Expr::Or(es)) => factor(es, true),
        (Rule::Factor, Expr::And(es)) => factor(es, false),
        (Rule::XorExpand, Expr::Xor(es)) if es.len() == 2 => {
            let (a, b) = (es[0].clone(), es[1].clone());
            Expr::or2(
                Expr::and2(a.clone(), Expr::not(b.clone())),
                Expr::and2(Expr::not(a), b),
            )
        }
        (Rule::IteExpand, Expr::Ite(s, t, e)) => Expr::or2(
            Expr::and2((**s).clone(), (**t).clone()),
            Expr::and2(Expr::not((**s).clone()), (**e).clone()),
        ),
        (Rule::Absorb, e) => {
            // e -> e | (e & x) using a leaf from e itself as x (always sound:
            // absorption law), or e & (e | x).
            let leaf = first_leaf(e).unwrap_or(Expr::Const(false));
            if rng.gen_bool(0.5) {
                Expr::or2(e.clone(), Expr::and2(e.clone(), leaf))
            } else {
                Expr::and2(e.clone(), Expr::or2(e.clone(), leaf))
            }
        }
        _ => expr.clone(),
    }
}

fn first_leaf(e: &Expr) -> Option<Expr> {
    let mut found = None;
    e.visit(&mut |n| {
        if found.is_none() && n.is_leaf() {
            found = Some(n.clone());
        }
    });
    found
}

fn associate(es: &[Expr], rng: &mut StdRng, ctor: fn(Vec<Expr>) -> Expr) -> Expr {
    let split = rng.gen_range(1..es.len());
    let left = ctor(es[..split].to_vec());
    let right = ctor(es[split..].to_vec());
    ctor(vec![left, right])
}

fn distribute(es: &[Expr], rng: &mut StdRng, and_over_or: bool) -> Expr {
    // Pick one operand that is the dual operator and distribute the rest in.
    let matches_dual = |e: &Expr| {
        if and_over_or {
            matches!(e, Expr::Or(_))
        } else {
            matches!(e, Expr::And(_))
        }
    };
    let idxs: Vec<usize> = es
        .iter()
        .enumerate()
        .filter(|(_, e)| matches_dual(e))
        .map(|(i, _)| i)
        .collect();
    let Some(&pick) = idxs.as_slice().choose(rng) else {
        return if and_over_or {
            Expr::And(es.to_vec())
        } else {
            Expr::Or(es.to_vec())
        };
    };
    let rest: Vec<Expr> = es
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != pick)
        .map(|(_, e)| e.clone())
        .collect();
    let inner = match &es[pick] {
        Expr::Or(inner) | Expr::And(inner) => inner.clone(),
        _ => unreachable!("pick index chosen among dual operands"),
    };
    let terms: Vec<Expr> = inner
        .into_iter()
        .map(|t| {
            let mut ops = rest.clone();
            ops.push(t);
            if and_over_or {
                Expr::and(ops)
            } else {
                Expr::or(ops)
            }
        })
        .collect();
    if and_over_or {
        Expr::or(terms)
    } else {
        Expr::and(terms)
    }
}

fn factor(es: &[Expr], or_of_ands: bool) -> Expr {
    let Some((shared, holders)) = common_factor(es, or_of_ands) else {
        return if or_of_ands {
            Expr::Or(es.to_vec())
        } else {
            Expr::And(es.to_vec())
        };
    };
    let mut residuals = Vec::new();
    let mut untouched = Vec::new();
    for (i, e) in es.iter().enumerate() {
        if holders.contains(&i) {
            let inner = match e {
                Expr::And(inner) | Expr::Or(inner) => inner.clone(),
                _ => unreachable!("holders point at composite operands"),
            };
            let residual: Vec<Expr> = inner.into_iter().filter(|t| *t != shared).collect();
            residuals.push(if or_of_ands {
                Expr::and(residual)
            } else {
                Expr::or(residual)
            });
        } else {
            untouched.push(e.clone());
        }
    }
    let factored = if or_of_ands {
        Expr::and2(shared, Expr::or(residuals))
    } else {
        Expr::or2(shared, Expr::and(residuals))
    };
    let mut all = untouched;
    all.push(factored);
    if or_of_ands {
        Expr::or(all)
    } else {
        Expr::and(all)
    }
}

/// Configuration for randomized equivalence augmentation.
#[derive(Debug, Clone)]
pub struct AugmentConfig {
    /// Number of random rule applications per augmentation.
    pub steps: usize,
    /// Cap on the augmented expression size (nodes); oversized intermediate
    /// results are simplified, and rules that would exceed the cap are
    /// skipped.
    pub max_size: usize,
    /// Whether to run [`simplify`] after the final step.
    pub simplify_result: bool,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        AugmentConfig {
            steps: 4,
            max_size: 512,
            simplify_result: false,
        }
    }
}

/// Produces a functionally-equivalent variant of `expr` by applying
/// `config.steps` random rules — the positive-pair generator for
/// pre-training objective #1.
///
/// # Examples
///
/// ```
/// use nettag_expr::{augment_equivalent, equivalent, parse_expr, AugmentConfig};
/// use rand::SeedableRng;
/// let e = parse_expr("!(a & b) | (c ^ d)").unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let variant = augment_equivalent(&e, &AugmentConfig::default(), &mut rng);
/// assert!(equivalent(&e, &variant));
/// ```
pub fn augment_equivalent(expr: &Expr, config: &AugmentConfig, rng: &mut StdRng) -> Expr {
    let mut current = expr.clone();
    for _ in 0..config.steps {
        let rule = *ALL_RULES.as_slice().choose(rng).expect("non-empty rules");
        if let Some(next) = apply_rule(&current, rule, rng) {
            if next.size() <= config.max_size {
                current = next;
            } else {
                current = simplify(current);
            }
        }
    }
    if config.simplify_result {
        simplify(current)
    } else {
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::equivalent;
    use crate::parse::parse_expr;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn de_morgan_on_paper_example() {
        let e = parse_expr("!(R2 & R3)").expect("parses");
        let out = apply_rule(&e, Rule::DeMorgan, &mut rng(1)).expect("eligible");
        assert_eq!(out.to_string(), "!R2 | !R3");
        assert!(equivalent(&e, &out));
    }

    #[test]
    fn every_rule_preserves_semantics_on_rich_input() {
        let e = parse_expr("Ite(s, a ^ b, !(c & d) | (a & e) | (a & !b))").expect("parses");
        for rule in ALL_RULES {
            let mut r = rng(42);
            if let Some(out) = apply_rule(&e, rule, &mut r) {
                assert!(
                    equivalent(&e, &out),
                    "rule {rule:?} broke equivalence: {out}"
                );
            }
        }
    }

    #[test]
    fn rules_report_no_sites_when_inapplicable() {
        let e = parse_expr("a").expect("parses");
        assert!(apply_rule(&e, Rule::DeMorgan, &mut rng(3)).is_none());
        assert!(apply_rule(&e, Rule::XorExpand, &mut rng(3)).is_none());
        assert!(apply_rule(&e, Rule::Factor, &mut rng(3)).is_none());
    }

    #[test]
    fn factor_inverts_distribute() {
        let e = parse_expr("(a & b) | (a & c)").expect("parses");
        let out = apply_rule(&e, Rule::Factor, &mut rng(5)).expect("eligible");
        assert!(equivalent(&e, &out));
        assert!(out.to_string().starts_with("a &"), "got {out}");
    }

    #[test]
    fn augmentation_changes_shape_but_not_function() {
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        let mut r = rng(2024);
        let mut changed = 0;
        for _ in 0..8 {
            let v = augment_equivalent(&e, &AugmentConfig::default(), &mut r);
            assert!(equivalent(&e, &v));
            if v != e {
                changed += 1;
            }
        }
        assert!(changed >= 6, "augmentation almost never changed the tree");
    }

    #[test]
    fn augmentation_respects_size_cap() {
        let e = parse_expr("a ^ b ^ c ^ d").expect("parses");
        let cfg = AugmentConfig {
            steps: 12,
            max_size: 40,
            simplify_result: false,
        };
        let mut r = rng(9);
        for _ in 0..8 {
            let v = augment_equivalent(&e, &cfg, &mut r);
            assert!(v.size() <= 40 * 2, "size {} exploded", v.size());
        }
    }
}
