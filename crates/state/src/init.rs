//! Construction of initial states — the function σ of the state model.
//!
//! [`init`] validates the expression (closed, no template holes, parallel
//! quantifier bodies completely quantified, multipliers positive) and builds
//! its initial state.  [`initial_state`] is the unchecked recursive
//! constructor.
//!
//! σ is computed **once**: every spawning point of the expression — the
//! right operand of a sequence, iteration and multiplier bodies, quantifier
//! templates — stores its precomputed initial state (and, for ⊗ and the
//! synchronization quantifier, its precomputed scoped alphabet) inside the
//! state itself.
//! The transition function spawns fresh sub-runs by sharing these templates
//! instead of re-deriving them from expressions, so alphabets and initial
//! states are never recomputed on the τ hot path.

use crate::error::{StateError, StateResult};
use crate::predicates::is_final;
use crate::state::{QuantState, ScopedAlphabet, Shared, State};
use ix_core::{Expr, ExprKind, Param};
use std::collections::BTreeMap;

/// Builds the initial state σ(x) of a closed interaction expression.
pub fn init(expr: &Expr) -> StateResult<State> {
    validate(expr)?;
    Ok(initial_state(expr))
}

/// Validates that the expression can be executed by the state model.
pub fn validate(expr: &Expr) -> StateResult<()> {
    let mut hole: Option<String> = None;
    expr.visit(&mut |e| {
        if let ExprKind::Hole(name) = e.kind() {
            if hole.is_none() {
                hole = Some(name.to_string());
            }
        }
    });
    if let Some(name) = hole {
        return Err(StateError::TemplateHole { name });
    }
    let free = expr.free_params();
    if !free.is_empty() {
        return Err(StateError::FreeParameters { params: free.into_iter().collect() });
    }
    let mut err: Option<StateError> = None;
    expr.visit(&mut |e| {
        if err.is_some() {
            return;
        }
        match e.kind() {
            ExprKind::Mult(0, _) => err = Some(StateError::ZeroMultiplier),
            ExprKind::ParQ(p, body) => {
                if let Some(atom) = find_atom_not_mentioning(body, *p) {
                    err = Some(StateError::NotCompletelyQuantified {
                        param: *p,
                        offending_atom: atom,
                    });
                }
            }
            _ => {}
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Returns the display form of an atom of `body` that does not mention `p`,
/// if any — i.e. a witness that the body is not completely quantified.
fn find_atom_not_mentioning(body: &Expr, p: Param) -> Option<String> {
    let mut found = None;
    let mut shadowed_depth = 0usize;
    // A manual walk is needed to respect shadowing: below a quantifier that
    // rebinds the same parameter name, occurrences of the name refer to the
    // inner binding, so such atoms never mention the *outer* parameter.
    fn go(e: &Expr, p: Param, shadowed: &mut usize, found: &mut Option<String>) {
        if found.is_some() {
            return;
        }
        match e.kind() {
            ExprKind::Atom(a) => {
                if *shadowed > 0 || !a.mentions_param(p) {
                    *found = Some(a.to_string());
                }
            }
            ExprKind::SomeQ(q, body)
            | ExprKind::ParQ(q, body)
            | ExprKind::SyncQ(q, body)
            | ExprKind::AllQ(q, body) => {
                if *q == p {
                    *shadowed += 1;
                    go(body, p, shadowed, found);
                    *shadowed -= 1;
                } else {
                    go(body, p, shadowed, found);
                }
            }
            _ => {
                for c in e.iter_children() {
                    go(c, p, shadowed, found);
                }
            }
        }
    }
    go(body, p, &mut shadowed_depth, &mut found);
    found
}

/// The recursive, unchecked σ constructor.
pub fn initial_state(expr: &Expr) -> State {
    match expr.kind() {
        // A hole should have been rejected by `validate`; treat it as an
        // expression without any words if it slips through.
        ExprKind::Hole(_) => State::Null,
        ExprKind::Empty => State::Epsilon,
        ExprKind::Atom(a) => State::AtomFresh { action: a.clone() },
        ExprKind::Option(y) => {
            State::Option { at_start: true, body: Shared::new(initial_state(y)) }
        }
        ExprKind::Seq(y, z) => {
            let left = initial_state(y);
            let right_init = Shared::new(initial_state(z));
            let mut rights = Vec::new();
            if is_final(&left) {
                rights.push(right_init.clone());
            }
            State::Seq { left: Shared::new(left), rights, right_init }
        }
        ExprKind::SeqIter(y) => {
            let body_init = Shared::new(initial_state(y));
            State::SeqIter { boundary: true, runs: vec![body_init.clone()], body_init }
        }
        ExprKind::Par(y, z) => State::Par {
            alts: vec![(Shared::new(initial_state(y)), Shared::new(initial_state(z)))],
        },
        ExprKind::ParIter(y) => {
            State::ParIter { alts: vec![Vec::new()], body_init: Shared::new(initial_state(y)) }
        }
        ExprKind::Or(y, z) => {
            State::Or { left: Shared::new(initial_state(y)), right: Shared::new(initial_state(z)) }
        }
        ExprKind::And(y, z) => {
            State::And { left: Shared::new(initial_state(y)), right: Shared::new(initial_state(z)) }
        }
        ExprKind::Sync(y, z) => State::Sync {
            left: Shared::new(initial_state(y)),
            right: Shared::new(initial_state(z)),
            left_alpha: Shared::new(ScopedAlphabet::of(y)),
            right_alpha: Shared::new(ScopedAlphabet::of(z)),
        },
        ExprKind::SomeQ(p, y) => State::SomeQ(quant_state(*p, y)),
        ExprKind::AllQ(p, y) => State::AllQ(quant_state(*p, y)),
        ExprKind::SyncQ(p, y) => {
            State::SyncQ { quant: quant_state(*p, y), scope: Shared::new(ScopedAlphabet::of(y)) }
        }
        ExprKind::ParQ(p, y) => {
            let body_init = initial_state(y);
            State::ParQ {
                param: *p,
                body_accepts_epsilon: is_final(&body_init),
                alts: vec![BTreeMap::new()],
                body_init: Shared::new(body_init),
            }
        }
        ExprKind::Mult(n, y) => {
            let body_init = initial_state(y);
            State::Mult {
                capacity: *n,
                body_accepts_epsilon: is_final(&body_init),
                alts: vec![Vec::new()],
                body_init: Shared::new(body_init),
            }
        }
    }
}

fn quant_state(param: Param, body: &Expr) -> QuantState {
    QuantState { param, template: Shared::new(initial_state(body)), branches: BTreeMap::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{is_final, is_valid};
    use ix_core::parse;

    #[test]
    fn init_rejects_open_expressions() {
        let e = ix_core::builder::actp("a", &["p"]);
        assert!(matches!(init(&e), Err(StateError::FreeParameters { .. })));
        let e = ix_core::Expr::hole("x");
        assert!(matches!(init(&e), Err(StateError::TemplateHole { .. })));
        let e = ix_core::Expr::mult(0, ix_core::builder::act0("a"));
        assert!(matches!(init(&e), Err(StateError::ZeroMultiplier)));
    }

    #[test]
    fn init_rejects_incompletely_quantified_parallel_quantifiers() {
        let e = parse("all p { a(p) - order }").unwrap();
        match init(&e) {
            Err(StateError::NotCompletelyQuantified { offending_atom, .. }) => {
                assert_eq!(offending_atom, "order");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The same body under a synchronization quantifier is fine.
        let e = parse("sync p { (a(p) - order)* }").unwrap();
        assert!(init(&e).is_ok());
    }

    #[test]
    fn shadowed_parameters_do_not_trigger_complete_quantification_errors() {
        // The inner quantifier rebinds p; its atoms need not mention the
        // outer p... but the outer body's own atom must.
        let e = parse("all p { a(p) - some p { b(p) } }").unwrap();
        // b(p) refers to the inner p, so w.r.t. the outer quantifier the atom
        // does not mention it → rejected.
        assert!(matches!(init(&e), Err(StateError::NotCompletelyQuantified { .. })));
        let e = parse("all p { a(p) | b(p) }").unwrap();
        assert!(init(&e).is_ok());
    }

    #[test]
    fn initial_states_are_valid_and_mirror_epsilon_finality() {
        let cases = [
            ("a", false),
            ("a?", true),
            ("a*", true),
            ("a#", true),
            ("a - b", false),
            ("a | b", false),
            ("a + b", false),
            ("a & b", false),
            ("a @ b", false),
            ("empty", true),
            ("a? - b?", true),
            ("mult 2 { a? }", true),
            ("mult 2 { a }", false),
            ("some p { a(p) }", false),
            ("some p { a(p)? }", true),
            ("all p { a(p)? }", true),
            ("each p { a(p)* }", true),
            ("sync p { a(p)* }", true),
        ];
        for (src, eps_final) in cases {
            let e = parse(src).unwrap();
            let s = init(&e).unwrap();
            assert!(is_valid(&s), "σ({src}) must be valid (ε is always a partial word)");
            assert_eq!(is_final(&s), eps_final, "ε-finality of {src}");
        }
    }

    #[test]
    fn seq_initial_state_spawns_right_run_when_left_accepts_epsilon() {
        let e = parse("a? - b").unwrap();
        match init(&e).unwrap() {
            State::Seq { rights, right_init, .. } => {
                assert_eq!(rights.len(), 1);
                assert!(
                    crate::state::Shared::ptr_eq(&rights[0], &right_init),
                    "the spawned run shares the precomputed σ template"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse("a - b").unwrap();
        match init(&e).unwrap() {
            State::Seq { rights, .. } => assert!(rights.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn initial_state_commutes_with_substitution() {
        // σ(x[p := v]) = σ(x)[p := v] — the property that lets the parallel
        // quantifier instantiate new branches from the precomputed template
        // state instead of re-deriving σ from the substituted expression.
        let p = ix_core::Param::new("p");
        let v = ix_core::Value::int(7);
        for src in [
            "a(p) - b(p)",
            "(a(p) | c)*",
            "(a(p) - b(p))# @ (b(p) - c)*",
            "some q { a(p, q) - b(q) }",
            "mult 2 { a(p)? }",
        ] {
            let body = parse(&format!("some p {{ {src} }}")).unwrap();
            let inner = match body.kind() {
                ExprKind::SomeQ(_, b) => b.clone(),
                _ => unreachable!(),
            };
            let via_expr = initial_state(&inner.substitute(p, v));
            let via_state = initial_state(&inner).substitute(p, v);
            assert_eq!(via_expr, via_state, "σ∘subst ≠ subst∘σ for {src}");
        }
    }
}
