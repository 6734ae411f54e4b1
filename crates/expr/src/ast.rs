//! Boolean expression abstract syntax tree.
//!
//! Expressions are the *functional* half of a gate's text attribute in the
//! TAG formulation (paper Sec. II-B): every gate is annotated with a symbolic
//! logic expression derived from its k-hop fan-in cone, e.g.
//! `U3 = !((R1 ^ R2) | !R2)`.
//!
//! The AST is an owned immutable tree with n-ary `And`/`Or`/`Xor` so that
//! associativity/commutativity rewrites are cheap and the printed form stays
//! close to the paper's surface syntax.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A symbolic variable name (an input-frontier gate or port name such as
/// `R1` or `U7`). Cheap to clone.
pub type Var = Arc<str>;

/// A Boolean expression over named variables.
///
/// # Examples
///
/// ```
/// use nettag_expr::Expr;
/// let e = Expr::not(Expr::or(vec![
///     Expr::xor(vec![Expr::var("R1"), Expr::var("R2")]),
///     Expr::not(Expr::var("R2")),
/// ]));
/// assert_eq!(e.to_string(), "!((R1 ^ R2) | !R2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Constant `0` or `1`.
    Const(bool),
    /// A named input variable.
    Var(Var),
    /// Logical negation.
    Not(Box<Expr>),
    /// N-ary conjunction (`a & b & ...`). Invariant: callers should keep
    /// at least two operands; smart constructors enforce this.
    And(Vec<Expr>),
    /// N-ary disjunction.
    Or(Vec<Expr>),
    /// N-ary exclusive or (associative parity).
    Xor(Vec<Expr>),
    /// If-then-else `Ite(sel, then, else)` — the multiplexer primitive.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The constant true expression.
    pub const TRUE: Expr = Expr::Const(true);
    /// The constant false expression.
    pub const FALSE: Expr = Expr::Const(false);

    /// Creates a variable reference.
    pub fn var(name: impl AsRef<str>) -> Expr {
        Expr::Var(Arc::from(name.as_ref()))
    }

    /// Creates a negation, without simplification.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// Creates an n-ary conjunction. Unwraps singleton lists; an empty list
    /// is the neutral element `1`.
    pub fn and(mut es: Vec<Expr>) -> Expr {
        match es.len() {
            0 => Expr::Const(true),
            1 => es.pop().expect("len checked"),
            _ => Expr::And(es),
        }
    }

    /// Creates an n-ary disjunction. Unwraps singleton lists; an empty list
    /// is the neutral element `0`.
    pub fn or(mut es: Vec<Expr>) -> Expr {
        match es.len() {
            0 => Expr::Const(false),
            1 => es.pop().expect("len checked"),
            _ => Expr::Or(es),
        }
    }

    /// Creates an n-ary exclusive-or. Unwraps singleton lists; an empty list
    /// is the neutral element `0`.
    pub fn xor(mut es: Vec<Expr>) -> Expr {
        match es.len() {
            0 => Expr::Const(false),
            1 => es.pop().expect("len checked"),
            _ => Expr::Xor(es),
        }
    }

    /// Creates an if-then-else (2:1 multiplexer with `sel` as the control).
    pub fn ite(sel: Expr, then: Expr, els: Expr) -> Expr {
        Expr::Ite(Box::new(sel), Box::new(then), Box::new(els))
    }

    /// Binary convenience: `a & b`.
    pub fn and2(a: Expr, b: Expr) -> Expr {
        Expr::And(vec![a, b])
    }

    /// Binary convenience: `a | b`.
    pub fn or2(a: Expr, b: Expr) -> Expr {
        Expr::Or(vec![a, b])
    }

    /// Binary convenience: `a ^ b`.
    pub fn xor2(a: Expr, b: Expr) -> Expr {
        Expr::Xor(vec![a, b])
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Not(e) => 1 + e.size(),
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) => {
                1 + es.iter().map(Expr::size).sum::<usize>()
            }
            Expr::Ite(s, t, e) => 1 + s.size() + t.size() + e.size(),
        }
    }

    /// Height of the AST (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Not(e) => 1 + e.depth(),
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) => {
                1 + es.iter().map(Expr::depth).max().unwrap_or(0)
            }
            Expr::Ite(s, t, e) => 1 + s.depth().max(t.depth()).max(e.depth()),
        }
    }

    /// The sorted set of distinct variables appearing in the expression
    /// (its *support* as written; the semantic support may be smaller).
    pub fn support(&self) -> Vec<Var> {
        let mut set = BTreeSet::new();
        self.collect_support(&mut set);
        set.into_iter().collect()
    }

    fn collect_support(&self, out: &mut BTreeSet<Var>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Not(e) => e.collect_support(out),
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) => {
                for e in es {
                    e.collect_support(out);
                }
            }
            Expr::Ite(s, t, e) => {
                s.collect_support(out);
                t.collect_support(out);
                e.collect_support(out);
            }
        }
    }

    /// Returns `true` if this node is a leaf (constant or variable).
    pub fn is_leaf(&self) -> bool {
        matches!(self, Expr::Const(_) | Expr::Var(_))
    }

    /// Visits every node of the expression tree in pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Not(e) => e.visit(f),
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) => {
                for e in es {
                    e.visit(f);
                }
            }
            Expr::Ite(s, t, e) => {
                s.visit(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Composite infix children (And/Or/Xor) are always parenthesized
        // under another operator, matching the paper's surface style
        // `!((R1 ^ R2) | !R2)`; `!`, `Ite(..)`, and leaves are
        // self-delimiting.
        fn child(f: &mut fmt::Formatter<'_>, e: &Expr) -> fmt::Result {
            if matches!(e, Expr::And(_) | Expr::Or(_) | Expr::Xor(_)) {
                write!(f, "({e})")
            } else {
                write!(f, "{e}")
            }
        }
        fn infix(f: &mut fmt::Formatter<'_>, es: &[Expr], op: &str) -> fmt::Result {
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    write!(f, " {op} ")?;
                }
                child(f, e)?;
            }
            Ok(())
        }
        match self {
            Expr::Const(b) => write!(f, "{}", u8::from(*b)),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Not(e) => {
                write!(f, "!")?;
                child(f, e)
            }
            Expr::And(es) => infix(f, es, "&"),
            Expr::Xor(es) => infix(f, es, "^"),
            Expr::Or(es) => infix(f, es, "|"),
            Expr::Ite(s, t, e) => write!(f, "Ite({s}, {t}, {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_example() {
        // Paper Fig. 3(b): U3 = !((R1 ⊕ R2) | !R2), ASCII-rendered with ^.
        let e = Expr::not(Expr::or2(
            Expr::xor2(Expr::var("R1"), Expr::var("R2")),
            Expr::not(Expr::var("R2")),
        ));
        assert_eq!(e.to_string(), "!((R1 ^ R2) | !R2)");
    }

    #[test]
    fn size_and_depth() {
        let e = Expr::and2(Expr::var("a"), Expr::not(Expr::var("b")));
        assert_eq!(e.size(), 4);
        assert_eq!(e.depth(), 3);
    }

    #[test]
    fn support_is_sorted_and_deduped() {
        let e = Expr::or2(Expr::and2(Expr::var("b"), Expr::var("a")), Expr::var("b"));
        let support = e.support();
        let s: Vec<&str> = support.iter().map(|v| v.as_ref()).collect();
        assert_eq!(s, vec!["a", "b"]);
    }

    #[test]
    fn singleton_smart_constructors_unwrap() {
        assert_eq!(Expr::and(vec![Expr::var("x")]), Expr::var("x"));
        assert_eq!(Expr::or(vec![]), Expr::Const(false));
        assert_eq!(Expr::and(vec![]), Expr::Const(true));
        assert_eq!(Expr::xor(vec![]), Expr::Const(false));
    }

    #[test]
    fn display_parenthesizes_nested_same_precedence() {
        let e = Expr::or2(Expr::or2(Expr::var("a"), Expr::var("b")), Expr::var("c"));
        assert_eq!(e.to_string(), "(a | b) | c");
    }

    #[test]
    fn ite_displays_function_style() {
        let e = Expr::ite(Expr::var("s"), Expr::var("a"), Expr::var("b"));
        assert_eq!(e.to_string(), "Ite(s, a, b)");
    }
}
