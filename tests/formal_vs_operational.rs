//! Cross-crate validation of the correctness theorem of Sec. 4:
//!
//! ```text
//! w ∈ Ψ(x)  ⇔  ψ(σ_w(x))        w ∈ Φ(x)  ⇔  ϕ(σ_w(x))
//! ```
//!
//! The `ix-semantics` crate evaluates the formal (denotational) semantics of
//! Table 8 directly; the `ix-state` crate runs the operational state model.
//! These tests compare the two on (a) an exhaustive enumeration of short
//! words for a curated set of expressions covering every operator, and (b)
//! randomly generated expressions and words (property-based).

use ix_core::{parse, Action, Expr, Value};
use ix_semantics::{classify_word_in, Universe, WordClass};
use ix_state::{word_problem, Engine, WordStatus};
use proptest::prelude::*;

/// The concrete actions words are built from in the exhaustive tests.
fn action_pool() -> Vec<Action> {
    vec![
        Action::nullary("a"),
        Action::nullary("b"),
        Action::nullary("c"),
        Action::concrete("e", [Value::int(1)]),
        Action::concrete("e", [Value::int(2)]),
        Action::concrete("f", [Value::int(1)]),
        Action::concrete("f", [Value::int(2)]),
    ]
}

fn universe() -> Universe {
    Universe::new([Value::int(1), Value::int(2)]).with_fresh(1)
}

/// The word problem as an [`Engine`] answers it, through its table tier:
/// the tables closed up front, or filled by this very walk.
fn tiered_word_problem(expr: &Expr, word: &[Action], close: bool) -> WordStatus {
    let mut engine = Engine::new(expr).expect("state model");
    engine.set_memo_capacity(0);
    if close {
        engine.close_tier();
    }
    if engine.feed(word) < word.len() {
        WordStatus::Illegal
    } else if engine.is_final() {
        WordStatus::Complete
    } else {
        WordStatus::Partial
    }
}

fn agree(expr: &Expr, word: &[Action]) {
    let oracle = classify_word_in(expr, word, &universe()).expect("oracle");
    let oracle_status = match oracle {
        WordClass::Illegal => WordStatus::Illegal,
        WordClass::Partial => WordStatus::Partial,
        WordClass::Complete => WordStatus::Complete,
    };
    let operational = [
        ("state model", word_problem(expr, word).expect("state model")),
        ("lazily filled tier", tiered_word_problem(expr, word, false)),
        ("closed tier", tiered_word_problem(expr, word, true)),
    ];
    for (how, status) in operational {
        assert_eq!(
            oracle_status,
            status,
            "the {how} disagrees on expression `{expr}` and word {}",
            ix_core::display_word(word)
        );
    }
}

/// Enumerates every word over `pool` up to the given length.
fn words_up_to(pool: &[Action], max_len: usize) -> Vec<Vec<Action>> {
    let mut all = vec![vec![]];
    let mut frontier = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for a in pool {
                let mut w2 = w.clone();
                w2.push(a.clone());
                next.push(w2.clone());
                all.push(w2);
            }
        }
        frontier = next;
    }
    all
}

/// Expressions covering every operator of Table 8 (plus the multiplier),
/// exercised exhaustively over all short words.
fn curated_expressions() -> Vec<Expr> {
    [
        "a",
        "a?",
        "empty",
        "a - b",
        "a - b - c",
        "(a - b)?",
        "a*",
        "(a - b)*",
        "(a + b)*",
        "a | b",
        "(a - b) | c",
        "(a - b) | (a - c)",
        "a#",
        "(a - b)#",
        "a + b",
        "(a - b) + (b - a)",
        "a & a",
        "a & b",
        "(a - b) & (a - b)",
        "(a | b) & (a - b)",
        "a @ b",
        "(a - b) @ (b - c)",
        "(a - b)* @ (b - c)*",
        "mult 2 { a }",
        "mult 2 { a - b }",
        "mult 2 { a? }",
        "some p { e(p) }",
        "some p { e(p) - f(p) }",
        "(some p { e(p) - f(p) })*",
        "all p { (e(p) - f(p))? }",
        "all p { (e(p))* }",
        "each p { (e(p))* }",
        "each p { e(p)? }",
        "sync p { (e(p) - f(p))* }",
        "sync p { e(p)* }",
        "(a - b)* & (a* - b*)",
        "(a - b)# & (a* - b*)",
        "a? - b?",
        "((a + b) - c)*",
        "(a | b) - c",
        "a - (b | c)",
        "(a@b)@c",
    ]
    .iter()
    .map(|s| parse(s).expect("curated expression"))
    .collect()
}

#[test]
fn exhaustive_agreement_on_nullary_words() {
    let pool: Vec<Action> = action_pool().into_iter().filter(|a| a.arity() == 0).collect();
    let words = words_up_to(&pool, 4);
    for expr in curated_expressions() {
        // Quantified expressions are driven by the parameterized pool below;
        // running them against nullary words as well is still a valid check.
        for w in &words {
            agree(&expr, w);
        }
    }
}

#[test]
fn exhaustive_agreement_on_parameterized_words() {
    let pool: Vec<Action> = action_pool().into_iter().filter(|a| a.arity() == 1).collect();
    let words = words_up_to(&pool, 3);
    for expr in curated_expressions() {
        for w in &words {
            agree(&expr, w);
        }
    }
}

#[test]
fn exhaustive_agreement_on_mixed_words_for_coupling() {
    // Mixed nullary/unary words against the coupling of a quantified and an
    // unquantified constraint — the modular combination of Fig. 7 in
    // miniature.
    let exprs = [
        parse("(some p { e(p) - f(p) })* @ (a - b)*").unwrap(),
        parse("sync p { (e(p) - f(p))* } @ a*").unwrap(),
        parse("all p { (e(p) - f(p))? } @ (e(1) - e(2))?").unwrap(),
    ];
    let pool = vec![
        Action::nullary("a"),
        Action::nullary("b"),
        Action::concrete("e", [Value::int(1)]),
        Action::concrete("f", [Value::int(1)]),
        Action::concrete("e", [Value::int(2)]),
    ];
    let words = words_up_to(&pool, 3);
    for expr in &exprs {
        for w in &words {
            agree(expr, w);
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based comparison on randomly generated expressions and words.
// ---------------------------------------------------------------------------

/// Strategy for closed, state-model-compatible expressions.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(parse("a").unwrap()),
        Just(parse("b").unwrap()),
        Just(parse("c").unwrap()),
        Just(parse("e(1)").unwrap()),
        Just(parse("e(2)").unwrap()),
        Just(parse("empty").unwrap()),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::option),
            inner.clone().prop_map(Expr::seq_iter),
            inner.clone().prop_map(Expr::par_iter),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::seq(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::par(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::sync(l, r)),
            (1u32..3, inner.clone()).prop_map(|(n, e)| Expr::mult(n, e)),
            // Quantifiers with completely quantified bodies built from a
            // dedicated parameterized leaf pool.
            quantified_strategy(),
        ]
    })
}

/// Quantifier expressions whose bodies are completely and uniformly
/// quantified (the class the operational model supports for all four
/// quantifiers).
fn quantified_strategy() -> impl Strategy<Value = Expr> {
    let body = prop_oneof![
        Just(parse("some q { e(q) - f(q) }").unwrap()),
        Just(parse("e(1) - f(1)").unwrap()),
        Just(parse("(e(1) - f(1))?").unwrap()),
    ]
    .prop_map(|fixed| fixed);
    // Bodies over the quantified parameter p.
    let p_body = prop_oneof![
        Just("e(p)"),
        Just("e(p) - f(p)"),
        Just("(e(p) - f(p))?"),
        Just("(e(p) - f(p))*"),
        Just("e(p) + f(p)"),
    ];
    prop_oneof![
        p_body.clone().prop_map(|b| parse(&format!("some p {{ {b} }}")).unwrap()),
        p_body.clone().prop_map(|b| parse(&format!("all p {{ ({b})? }}")).unwrap()),
        p_body.clone().prop_map(|b| parse(&format!("sync p {{ ({b})* }}")).unwrap()),
        p_body.prop_map(|b| parse(&format!("each p {{ ({b})* }}")).unwrap()),
        body,
    ]
}

fn word_strategy() -> impl Strategy<Value = Vec<Action>> {
    let action = prop_oneof![
        Just(Action::nullary("a")),
        Just(Action::nullary("b")),
        Just(Action::nullary("c")),
        Just(Action::concrete("e", [Value::int(1)])),
        Just(Action::concrete("e", [Value::int(2)])),
        Just(Action::concrete("f", [Value::int(1)])),
        Just(Action::concrete("f", [Value::int(2)])),
    ];
    proptest::collection::vec(action, 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_expressions_agree_with_the_oracle(expr in expr_strategy(), word in word_strategy()) {
        let oracle = classify_word_in(&expr, &word, &universe()).expect("oracle");
        let operational = word_problem(&expr, &word).expect("state model");
        let oracle_status = match oracle {
            WordClass::Illegal => WordStatus::Illegal,
            WordClass::Partial => WordStatus::Partial,
            WordClass::Complete => WordStatus::Complete,
        };
        prop_assert_eq!(oracle_status, operational,
            "disagreement on `{}` and {}", expr, ix_core::display_word(&word));
        for close in [false, true] {
            prop_assert_eq!(oracle_status, tiered_word_problem(&expr, &word, close),
                "the tier (closed: {}) disagrees on `{}` and {}",
                close, expr, ix_core::display_word(&word));
        }
    }

    #[test]
    fn fused_cow_transition_matches_reference_on_quantified_expressions(
        expr in quantified_strategy(),
        word in word_strategy(),
    ) {
        // The fused copy-on-write τ̂ must produce the same state *values* as
        // the two-pass ρ∘τ reference on every quantifier class (branch
        // instantiation, template substitution, per-branch routing).
        use ix_state::{init, is_valid, trans, trans_reference};
        let mut cow = init(&expr).unwrap();
        let mut reference = init(&expr).unwrap();
        for action in &word {
            cow = trans(&cow, action);
            reference = trans_reference(&reference, action);
            prop_assert_eq!(&cow, &reference,
                "fused τ̂ diverged on `{}` at {}", expr, action);
            prop_assert_eq!(is_valid(&cow), !cow.is_null(),
                "invalid ⇔ Null invariant broken on `{}`", expr);
        }
    }

    #[test]
    fn optimization_never_changes_the_verdict(expr in expr_strategy(), word in word_strategy()) {
        use ix_state::{init, is_final, is_valid, step, trans};
        let mut optimized = init(&expr).unwrap();
        let mut raw = init(&expr).unwrap();
        for action in &word {
            optimized = trans(&optimized, action);
            raw = step(&raw, action);
        }
        prop_assert_eq!(is_valid(&optimized), is_valid(&raw));
        prop_assert_eq!(is_final(&optimized), is_final(&raw));
    }
}
