//! Property-based tests of the expression substrate's core invariants.

use nettag_expr::{
    apply_rule, augment_equivalent, equivalent, parse_expr, semantic_signature, simplify,
    AugmentConfig, Expr, TruthTable, ALL_RULES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing random expressions over a small variable pool.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0u8..6).prop_map(|i| Expr::var(format!("v{i}"))),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::not),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::and),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::or),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Expr::xor),
            (inner.clone(), inner.clone(), inner).prop_map(|(s, t, e)| Expr::ite(s, t, e)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Printing then parsing returns the same tree, so a parsed wire
    /// expression tokenizes like the client's `Expr`.
    #[test]
    fn print_parse_roundtrip_preserves_semantics(e in arb_expr()) {
        let text = e.to_string();
        let parsed = parse_expr(&text).expect("printer output must parse");
        prop_assert!(equivalent(&e, &parsed), "{text}");
        prop_assert_eq!(parsed, e);
    }

    /// Simplification preserves the Boolean function and never grows the AST.
    #[test]
    fn simplify_preserves_semantics_and_size(e in arb_expr()) {
        let s = simplify(e.clone());
        prop_assert!(equivalent(&e, &s));
        prop_assert!(s.size() <= e.size());
    }

    /// Every rewrite rule at every applicable site preserves semantics.
    #[test]
    fn all_rules_preserve_semantics(e in arb_expr(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for rule in ALL_RULES {
            if let Some(out) = apply_rule(&e, rule, &mut rng) {
                prop_assert!(equivalent(&e, &out), "rule {rule:?} on {e}");
            }
        }
    }

    /// Randomized augmentation chains preserve semantics.
    #[test]
    fn augmentation_chain_preserves_semantics(e in arb_expr(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = AugmentConfig { steps: 6, ..AugmentConfig::default() };
        let v = augment_equivalent(&e, &cfg, &mut rng);
        prop_assert!(equivalent(&e, &v));
    }

    /// Semantic signatures agree for equivalent forms.
    #[test]
    fn signatures_respect_equivalence(e in arb_expr(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = augment_equivalent(&e, &AugmentConfig::default(), &mut rng);
        // Signatures are support-sensitive; equivalence rewrites preserve
        // semantic support, so simplified forms with equal support match.
        let (se, sv) = (simplify(e), simplify(v));
        if se.support() == sv.support() {
            prop_assert_eq!(semantic_signature(&se), semantic_signature(&sv));
        }
    }

    /// Truth tables have exactly 2^n rows of deterministic content.
    #[test]
    fn truth_tables_are_deterministic(e in arb_expr()) {
        if let (Some(t1), Some(t2)) = (TruthTable::of(&e), TruthTable::of(&e)) {
            prop_assert_eq!(t1, t2);
        }
    }

    /// De Morgan double application returns an equivalent expression.
    #[test]
    fn de_morgan_is_involutive_up_to_equivalence(e in arb_expr(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(once) = apply_rule(&e, nettag_expr::Rule::DeMorgan, &mut rng) {
            if let Some(twice) = apply_rule(&once, nettag_expr::Rule::DeMorgan, &mut rng) {
                prop_assert!(equivalent(&e, &twice));
            }
        }
    }
}
