//! The state predicates ψ (valid) and ϕ (final) of the operational
//! semantics (Sec. 4).
//!
//! A state is *valid* iff the action sequence that produced it is a partial
//! word of the expression, and *final* iff the sequence is a complete word.
//! Together with σ and τ these predicates realize the correctness theorem
//!
//! ```text
//! w ∈ Ψ(x) ⇔ ψ(σ_w(x))        w ∈ Φ(x) ⇔ ϕ(σ_w(x))
//! ```
//!
//! which the cross-crate test suite checks against the `ix-semantics` oracle.

use crate::state::State;

/// The validity predicate ψ: true iff the processed word is a partial word.
///
/// The optimized transition function maintains the invariant "invalid ⇔
/// [`State::Null`]" (ρ is fused into every rebuild), so engines on the
/// optimized path answer ψ with a constant-time null check; this full
/// recursive predicate is the ground truth for unoptimized states and the
/// reference implementation.
pub fn is_valid(state: &State) -> bool {
    match state {
        State::Null => false,
        State::Epsilon | State::AtomFresh { .. } | State::AtomDone => true,
        State::Option { body, .. } => is_valid(body),
        State::Seq { left, rights, .. } => is_valid(left) || rights.iter().any(|r| is_valid(r)),
        State::SeqIter { runs, .. } => runs.iter().any(|r| is_valid(r)),
        State::Par { alts } => alts.iter().any(|(l, r)| is_valid(l) && is_valid(r)),
        State::ParIter { alts, .. } => {
            alts.iter().any(|threads| threads.iter().all(|t| is_valid(t)))
        }
        State::Or { left, right } => is_valid(left) || is_valid(right),
        State::And { left, right } => is_valid(left) && is_valid(right),
        State::Sync { left, right, .. } => is_valid(left) && is_valid(right),
        State::SomeQ(q) => is_valid(&q.template) || q.branches.values().any(|s| is_valid(s)),
        State::AllQ(q) | State::SyncQ { quant: q, .. } => {
            is_valid(&q.template) && q.branches.values().all(|s| is_valid(s))
        }
        State::ParQ { alts, .. } => {
            alts.iter().any(|branches| branches.values().all(|s| is_valid(s)))
        }
        State::Mult { alts, .. } => alts.iter().any(|threads| threads.iter().all(|t| is_valid(t))),
    }
}

/// The finality predicate ϕ: true iff the processed word is a complete word.
pub fn is_final(state: &State) -> bool {
    match state {
        State::Null => false,
        State::Epsilon => true,
        State::AtomFresh { .. } => false,
        State::AtomDone => true,
        State::Option { at_start, body } => *at_start || is_final(body),
        State::Seq { rights, .. } => rights.iter().any(|r| is_final(r)),
        State::SeqIter { boundary, .. } => *boundary,
        State::Par { alts } => alts.iter().any(|(l, r)| is_final(l) && is_final(r)),
        State::ParIter { alts, .. } => {
            alts.iter().any(|threads| threads.iter().all(|t| is_final(t)))
        }
        State::Or { left, right } => is_final(left) || is_final(right),
        State::And { left, right } => is_final(left) && is_final(right),
        State::Sync { left, right, .. } => is_final(left) && is_final(right),
        State::SomeQ(q) => is_final(&q.template) || q.branches.values().any(|s| is_final(s)),
        State::AllQ(q) | State::SyncQ { quant: q, .. } => {
            is_final(&q.template) && q.branches.values().all(|s| is_final(s))
        }
        State::ParQ { body_accepts_epsilon, alts, .. } => {
            // The quantifier ranges over the infinite domain Ω, so there are
            // always unstarted branches; they can only contribute ε, which
            // requires ε ∈ Φ(body).
            *body_accepts_epsilon
                && alts.iter().any(|branches| branches.values().all(|s| is_final(s)))
        }
        State::Mult { body_accepts_epsilon, capacity, alts, .. } => alts.iter().any(|threads| {
            threads.iter().all(|t| is_final(t))
                && (threads.len() as u32 == *capacity || *body_accepts_epsilon)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init;
    use ix_core::parse;

    #[test]
    fn null_is_neither_valid_nor_final() {
        assert!(!is_valid(&State::Null));
        assert!(!is_final(&State::Null));
    }

    #[test]
    fn atom_states() {
        let a = ix_core::Action::nullary("a");
        let fresh = State::AtomFresh { action: a };
        assert!(is_valid(&fresh) && !is_final(&fresh));
        assert!(is_valid(&State::AtomDone) && is_final(&State::AtomDone));
        assert!(is_valid(&State::Epsilon) && is_final(&State::Epsilon));
    }

    #[test]
    fn par_alternatives_require_both_components() {
        use crate::state::Shared;
        let sh = Shared::new;
        let s = State::Par {
            alts: vec![
                (sh(State::AtomDone), sh(State::Null)),
                (sh(State::Null), sh(State::AtomDone)),
            ],
        };
        assert!(!is_valid(&s), "no alternative has two valid components");
        let s = State::Par { alts: vec![(sh(State::AtomDone), sh(State::Epsilon))] };
        assert!(is_valid(&s) && is_final(&s));
    }

    #[test]
    fn initial_predicates_of_parsed_expressions() {
        let e = parse("a - b").unwrap();
        let s = init(&e).unwrap();
        assert!(is_valid(&s));
        assert!(!is_final(&s));
        let e = parse("(a - b)?").unwrap();
        let s = init(&e).unwrap();
        assert!(is_final(&s), "option accepts the empty word");
    }

    #[test]
    fn conjunctive_quantifier_needs_template_and_branches() {
        let e = parse("each p { a(p)? }").unwrap();
        let s = init(&e).unwrap();
        assert!(is_valid(&s) && is_final(&s));
    }

    #[test]
    fn multiplier_finality_depends_on_idle_instances() {
        // Two mandatory instances: ε is not complete.
        let e = parse("mult 2 { a }").unwrap();
        let s = init(&e).unwrap();
        assert!(!is_final(&s));
        // Optional body: idle instances may contribute ε.
        let e = parse("mult 2 { a? }").unwrap();
        let s = init(&e).unwrap();
        assert!(is_final(&s));
    }
}
