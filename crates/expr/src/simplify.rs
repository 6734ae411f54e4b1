//! Light structural simplification: constant folding, flattening of nested
//! n-ary operators, double-negation elimination, idempotence and
//! complement laws.
//!
//! Simplification is used (a) when composing k-hop cone expressions so the
//! printed attributes stay compact, and (b) as the final step of
//! equivalence-preserving augmentation so positives do not blow up in size.
//! It is deliberately *not* canonicalization: two equivalent expressions may
//! simplify to different trees (semantic identity is the job of
//! [`crate::semantic_signature`]).

use crate::ast::Expr;

/// Simplifies an expression while preserving its Boolean function exactly.
///
/// Applied rules: constant folding, neutral/absorbing elements, associative
/// flattening of And/Or/Xor, `!!e = e`, idempotence (`a & a = a`,
/// `a | a = a`), Xor pair cancellation, complement laws (`a & !a = 0`,
/// `a | !a = 1`), and `Ite` with constant selector or equal branches.
///
/// Takes the tree by value and moves its subtrees into the result, so
/// nothing is cloned.
///
/// # Examples
///
/// ```
/// use nettag_expr::{parse_expr, simplify};
/// let e = parse_expr("!!a & (b | 0) & 1").unwrap();
/// assert_eq!(simplify(e).to_string(), "a & b");
/// ```
pub fn simplify(expr: Expr) -> Expr {
    match expr {
        Expr::Const(_) | Expr::Var(_) => expr,
        Expr::Not(e) => match simplify(*e) {
            Expr::Const(b) => Expr::Const(!b),
            Expr::Not(inner) => *inner,
            other => Expr::not(other),
        },
        Expr::And(es) => simplify_and_or(es, true),
        Expr::Or(es) => simplify_and_or(es, false),
        Expr::Xor(es) => simplify_xor(es),
        Expr::Ite(s, t, e) => {
            let s = simplify(*s);
            let t = simplify(*t);
            let e = simplify(*e);
            match (&s, &t, &e) {
                (Expr::Const(true), _, _) => t,
                (Expr::Const(false), _, _) => e,
                _ if t == e => t,
                (_, Expr::Const(true), Expr::Const(false)) => s,
                (_, Expr::Const(false), Expr::Const(true)) => simplify(Expr::not(s)),
                _ => Expr::ite(s, t, e),
            }
        }
    }
}

/// Whether `a` is `!b` or `b` is `!a`, the way the complement laws read
/// it: a negation's complement is its operand, anything else's is its
/// negation.
fn complementary(a: &Expr, b: &Expr) -> bool {
    match b {
        Expr::Not(inner) => a == &**inner,
        _ => matches!(a, Expr::Not(inner) if &**inner == b),
    }
}

/// And (`is_and`) or Or: the neutral element drops out, the absorbing one
/// (and a complementary pair) wins, nested operands of the same operator
/// flatten and repeats keep their first occurrence.
fn simplify_and_or(es: Vec<Expr>, is_and: bool) -> Expr {
    let mut flat: Vec<Expr> = Vec::with_capacity(es.len());
    for e in es {
        match simplify(e) {
            Expr::Const(b) if b == is_and => {}
            Expr::Const(_) => return Expr::Const(!is_and),
            Expr::And(inner) if is_and => flat.extend(inner),
            Expr::Or(inner) if !is_and => flat.extend(inner),
            other => flat.push(other),
        }
    }
    // Idempotence and complement detection.
    let mut kept: Vec<Expr> = Vec::with_capacity(flat.len());
    for e in flat {
        if kept.contains(&e) {
            continue;
        }
        if kept.iter().any(|k| complementary(k, &e)) {
            return Expr::Const(!is_and);
        }
        kept.push(e);
    }
    if is_and {
        Expr::and(kept)
    } else {
        Expr::or(kept)
    }
}

fn simplify_xor(es: Vec<Expr>) -> Expr {
    let mut parity = false;
    let mut flat: Vec<Expr> = Vec::with_capacity(es.len());
    for e in es {
        match simplify(e) {
            Expr::Const(b) => parity ^= b,
            Expr::Xor(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    // Pair cancellation: x ^ x = 0.
    let mut kept: Vec<Expr> = Vec::with_capacity(flat.len());
    for e in flat {
        if let Some(i) = kept.iter().position(|k| *k == e) {
            kept.remove(i);
        } else {
            kept.push(e);
        }
    }
    let body = Expr::xor(kept);
    if parity {
        match body {
            Expr::Const(b) => Expr::Const(!b),
            other => Expr::not(other),
        }
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::equivalent;
    use crate::parse::parse_expr;

    fn s(input: &str) -> String {
        simplify(parse_expr(input).expect("test input parses")).to_string()
    }

    #[test]
    fn constant_folding() {
        assert_eq!(s("a & 1"), "a");
        assert_eq!(s("a & 0"), "0");
        assert_eq!(s("a | 0"), "a");
        assert_eq!(s("a | 1"), "1");
        assert_eq!(s("a ^ 0"), "a");
        assert_eq!(s("a ^ 1"), "!a");
    }

    #[test]
    fn double_negation() {
        assert_eq!(s("!!a"), "a");
        assert_eq!(s("!!!a"), "!a");
    }

    #[test]
    fn flattening() {
        assert_eq!(s("(a & b) & c"), "a & b & c");
        assert_eq!(s("a | (b | c)"), "a | b | c");
    }

    #[test]
    fn idempotence_and_complements() {
        assert_eq!(s("a & a"), "a");
        assert_eq!(s("a | a"), "a");
        assert_eq!(s("a & !a"), "0");
        assert_eq!(s("a | !a"), "1");
        assert_eq!(s("a ^ a"), "0");
    }

    #[test]
    fn ite_rules() {
        assert_eq!(s("Ite(1, a, b)"), "a");
        assert_eq!(s("Ite(0, a, b)"), "b");
        assert_eq!(s("Ite(s, a, a)"), "a");
        assert_eq!(s("Ite(s, 1, 0)"), "s");
        assert_eq!(s("Ite(s, 0, 1)"), "!s");
    }

    #[test]
    fn simplify_preserves_semantics_on_mixed_input() {
        let e = parse_expr("Ite(s, a & !!b, (a & b) & 1) ^ 0 | (c & !c)").expect("parses");
        let simplified = simplify(e.clone());
        assert!(equivalent(&e, &simplified));
        assert!(simplified.size() <= e.size());
    }
}
