//! The optimization function ρ of the state model (Secs. 4–5).
//!
//! ρ maps a state to an equivalent but less complex state: alternatives whose
//! components are invalid are removed (they do not represent reasonable
//! walker positions), duplicate alternatives are collapsed, and — as Sec. 5
//! describes — invalid states are recognized eagerly and mapped to the
//! special null state, which makes the separate validity predicate ψ
//! dispensable in the optimized engine.  The partial-word sets Ψ are
//! prefix-closed, so once a sub-state is invalid no continuation can revive
//! it and dropping it preserves both ψ and ϕ.
//!
//! The production transition function [`crate::trans::trans`] *fuses* ρ into
//! the copy-on-write rebuild — it never calls this standalone pass.  This
//! module remains as the reference ρ: composed with the pure τ it forms
//! [`crate::trans::trans_reference`], the implementation the property suites
//! compare the fused function against; the pure τ without it
//! ([`crate::trans::step`]) shows the worst-case state growth of Sec. 6.

use crate::predicates::is_valid;
use crate::state::{QuantState, Shared, State};

/// The optimization function ρ: prunes invalid alternatives, deduplicates,
/// and collapses invalid states to [`State::Null`].
pub fn optimize(state: &State) -> State {
    if !is_valid(state) {
        return State::Null;
    }
    let opt = |s: &Shared<State>| Shared::new(optimize(s));
    match state {
        State::Null | State::Epsilon | State::AtomFresh { .. } | State::AtomDone => state.clone(),
        State::Option { at_start, body } => State::Option { at_start: *at_start, body: opt(body) },
        State::Seq { left, rights, right_init } => {
            let mut new_rights: Vec<Shared<State>> =
                rights.iter().filter(|r| is_valid(r)).map(opt).collect();
            new_rights.sort();
            new_rights.dedup();
            State::Seq { left: opt(left), rights: new_rights, right_init: right_init.clone() }
        }
        State::SeqIter { boundary, runs, body_init } => {
            let mut new_runs: Vec<Shared<State>> =
                runs.iter().filter(|r| is_valid(r)).map(opt).collect();
            new_runs.sort();
            new_runs.dedup();
            State::SeqIter { boundary: *boundary, runs: new_runs, body_init: body_init.clone() }
        }
        State::Par { alts } => {
            let mut new_alts: Vec<(Shared<State>, Shared<State>)> = alts
                .iter()
                .filter(|(l, r)| is_valid(l) && is_valid(r))
                .map(|(l, r)| (opt(l), opt(r)))
                .collect();
            new_alts.sort();
            new_alts.dedup();
            State::Par { alts: new_alts }
        }
        State::ParIter { alts, body_init } => {
            State::ParIter { alts: prune_thread_alts(alts), body_init: body_init.clone() }
        }
        State::Or { left, right } => State::Or { left: opt(left), right: opt(right) },
        State::And { left, right } => State::And { left: opt(left), right: opt(right) },
        State::Sync { left, right, left_alpha, right_alpha } => State::Sync {
            left: opt(left),
            right: opt(right),
            left_alpha: left_alpha.clone(),
            right_alpha: right_alpha.clone(),
        },
        State::SomeQ(q) => State::SomeQ(optimize_quant(q)),
        State::AllQ(q) => State::AllQ(optimize_quant(q)),
        State::SyncQ(q) => State::SyncQ(optimize_quant(q)),
        State::ParQ { param, body_accepts_epsilon, alts, body_init } => {
            let mut new_alts: Vec<_> = alts
                .iter()
                .filter(|branches| branches.values().all(|s| is_valid(s)))
                .map(|branches| branches.iter().map(|(v, s)| (*v, opt(s))).collect())
                .collect();
            new_alts.sort();
            new_alts.dedup();
            State::ParQ {
                param: *param,
                body_accepts_epsilon: *body_accepts_epsilon,
                alts: new_alts,
                body_init: body_init.clone(),
            }
        }
        State::Mult { capacity, body_accepts_epsilon, alts, body_init } => State::Mult {
            capacity: *capacity,
            body_accepts_epsilon: *body_accepts_epsilon,
            alts: prune_thread_alts(alts),
            body_init: body_init.clone(),
        },
    }
}

/// Prunes alternatives that contain an invalid thread, optimizes the
/// survivors and deduplicates.
fn prune_thread_alts(alts: &[Vec<Shared<State>>]) -> Vec<Vec<Shared<State>>> {
    let mut out: Vec<Vec<Shared<State>>> = alts
        .iter()
        .filter(|threads| threads.iter().all(|t| is_valid(t)))
        .map(|threads| {
            let mut t: Vec<Shared<State>> =
                threads.iter().map(|s| Shared::new(optimize(s))).collect();
            t.sort();
            t
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Optimizes a quantifier state.  For conjunctive quantifiers (conjunction
/// and synchronization quantifier) an invalid branch or template makes the
/// whole state invalid, which the top-level validity check already turned
/// into `Null`; the per-branch optimization below therefore only tidies up.
/// For the disjunction quantifier, invalid branches are kept (as `Null`)
/// rather than removed: removing them could let a later re-instantiation
/// from the (still valid) template resurrect a branch that is already dead.
fn optimize_quant(q: &QuantState) -> QuantState {
    QuantState {
        param: q.param,
        template: Shared::new(optimize(&q.template)),
        branches: q.branches.iter().map(|(v, s)| (*v, Shared::new(optimize(s)))).collect(),
        scope: q.scope.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init;
    use crate::predicates::{is_final, is_valid};
    use ix_core::parse;

    fn sh(s: State) -> Shared<State> {
        Shared::new(s)
    }

    #[test]
    fn invalid_states_collapse_to_null() {
        let s = State::Par { alts: vec![(sh(State::Null), sh(State::AtomDone))] };
        assert_eq!(optimize(&s), State::Null);
        assert_eq!(optimize(&State::Null), State::Null);
    }

    #[test]
    fn pruning_removes_dead_alternatives_but_keeps_live_ones() {
        let s = State::Par {
            alts: vec![
                (sh(State::AtomDone), sh(State::Null)),
                (sh(State::AtomDone), sh(State::Epsilon)),
                (sh(State::AtomDone), sh(State::Epsilon)),
            ],
        };
        let o = optimize(&s);
        match &o {
            State::Par { alts } => assert_eq!(alts.len(), 1, "pruned and deduplicated"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(is_valid(&s), is_valid(&o));
        assert_eq!(is_final(&s), is_final(&o));
    }

    #[test]
    fn optimization_preserves_predicates_on_initial_states() {
        for src in [
            "a - b",
            "(a + b)*",
            "a | b",
            "a#",
            "mult 3 { a? }",
            "some p { a(p) }",
            "all p { a(p)? }",
            "sync x { (a(x) - b(x))* }",
        ] {
            let e = parse(src).unwrap();
            let s = init(&e).unwrap();
            let o = optimize(&s);
            assert_eq!(is_valid(&s), is_valid(&o), "ψ preserved for {src}");
            assert_eq!(is_final(&s), is_final(&o), "ϕ preserved for {src}");
            assert_eq!(s, o, "ρ(σ(x)) = σ(x): initial states are already optimal ({src})");
        }
    }

    #[test]
    fn sequences_drop_null_right_runs() {
        let s = State::Seq {
            left: sh(State::AtomDone),
            rights: vec![sh(State::Null), sh(State::AtomDone)],
            right_init: sh(crate::init::initial_state(&ix_core::builder::act0("b"))),
        };
        match optimize(&s) {
            State::Seq { rights, .. } => assert_eq!(rights, vec![sh(State::AtomDone)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn optimization_reduces_size_but_never_changes_meaning() {
        let s = State::SeqIter {
            boundary: false,
            runs: vec![sh(State::Null), sh(State::Null), sh(State::AtomDone)],
            body_init: sh(crate::init::initial_state(&ix_core::builder::act0("a"))),
        };
        let o = optimize(&s);
        assert!(o.size() < s.size());
        assert_eq!(is_valid(&o), is_valid(&s));
    }
}
