//! The textbook two-pass τ̂ = ρ ∘ τ (Secs. 4–5), kept as the reference the
//! property suites compare `ix_state`'s fused transition against.
//!
//! * [`step`] is the pure transition function τ: untouched subtrees are
//!   shared by reference (sharing does not change state *values*), but
//!   nothing is pruned, so alternatives accumulate exactly as the worst-case
//!   analysis of Sec. 6 describes.
//! * [`optimize`] is the optimization function ρ: alternatives whose
//!   components are invalid are removed, duplicates are collapsed, and — as
//!   Sec. 5 describes — invalid states are recognized eagerly and mapped to
//!   the null state.  The partial-word sets Ψ are prefix-closed, so once a
//!   sub-state is invalid no continuation can revive it and dropping it
//!   preserves both ψ and ϕ.
//! * [`trans_reference`] composes the two.  `ix_state::trans` fuses ρ into
//!   its copy-on-write rebuild; both produce identical state *values* for
//!   every reachable state.
//!
//! Everything here is built from `ix_state`'s public state API only.

use ix_core::{Action, Value};
use ix_state::{is_final, is_valid, QuantState, ScopedAlphabet, Shared, State};

/// The reference implementation of τ̂: the pure transition followed by a
/// separate ρ pass.
pub fn trans_reference(state: &State, action: &Action) -> State {
    optimize(&step(state, action))
}

// ---------------------------------------------------------------------------
// The pure transition function τ.
// ---------------------------------------------------------------------------

/// The pure transition function τ(s, a), without ρ.
pub fn step(state: &State, action: &Action) -> State {
    let sh = |s: State| Shared::new(s);
    match state {
        State::Null => State::Null,
        State::Epsilon => State::Null,
        State::AtomFresh { action: expected } => {
            if expected == action {
                State::AtomDone
            } else {
                State::Null
            }
        }
        State::AtomDone => State::Null,
        State::Option { body, .. } => {
            State::Option { at_start: false, body: sh(step(body, action)) }
        }
        State::Seq { left, rights, right_init } => {
            let new_left = step(left, action);
            let mut new_rights: Vec<Shared<State>> =
                rights.iter().map(|r| sh(step(r, action))).collect();
            if is_final(&new_left) {
                new_rights.push(right_init.clone());
            }
            new_rights.sort();
            new_rights.dedup();
            State::Seq { left: sh(new_left), rights: new_rights, right_init: right_init.clone() }
        }
        State::SeqIter { runs, body_init, .. } => {
            let mut new_runs: Vec<Shared<State>> =
                runs.iter().map(|r| sh(step(r, action))).collect();
            let boundary = new_runs.iter().any(|r| is_final(r));
            if boundary {
                new_runs.push(body_init.clone());
            }
            new_runs.sort();
            new_runs.dedup();
            State::SeqIter { boundary, runs: new_runs, body_init: body_init.clone() }
        }
        State::Par { alts } => {
            let mut new_alts = Vec::with_capacity(alts.len() * 2);
            for (l, r) in alts {
                new_alts.push((sh(step(l, action)), r.clone()));
                new_alts.push((l.clone(), sh(step(r, action))));
            }
            State::Par { alts: new_alts }
        }
        State::ParIter { alts, body_init } => State::ParIter {
            alts: step_thread_alts(alts, body_init, action, None),
            body_init: body_init.clone(),
        },
        State::Or { left, right } => {
            State::Or { left: sh(step(left, action)), right: sh(step(right, action)) }
        }
        State::And { left, right } => {
            State::And { left: sh(step(left, action)), right: sh(step(right, action)) }
        }
        State::Sync { left, right, left_alpha, right_alpha } => {
            let in_left = left_alpha.covers(action);
            let in_right = right_alpha.covers(action);
            if !in_left && !in_right {
                return State::Null;
            }
            State::Sync {
                left: if in_left { sh(step(left, action)) } else { left.clone() },
                right: if in_right { sh(step(right, action)) } else { right.clone() },
                left_alpha: left_alpha.clone(),
                right_alpha: right_alpha.clone(),
            }
        }
        State::SomeQ(q) => State::SomeQ(step_broadcast_quant(q, action)),
        State::AllQ(q) => State::AllQ(step_broadcast_quant(q, action)),
        State::SyncQ { quant, scope } => step_sync_quant(quant, scope, action),
        State::ParQ { param, body_accepts_epsilon, alts, body_init } => {
            let values = action.values();
            if values.is_empty() {
                return State::Null;
            }
            let mut new_alts = Vec::new();
            for branches in alts {
                for v in &values {
                    let mut next = branches.clone();
                    let branch_state = match branches.get(v) {
                        Some(existing) => step(existing, action),
                        None => {
                            let fresh = body_init.substitute(*param, *v);
                            step(&fresh, action)
                        }
                    };
                    next.insert(*v, sh(branch_state));
                    new_alts.push(next);
                }
            }
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
            alts: step_thread_alts(alts, body_init, action, Some(*capacity)),
            body_init: body_init.clone(),
        },
    }
}

/// Pure-τ transition of thread alternatives (parallel iteration and
/// multiplier), without pruning.
fn step_thread_alts(
    alts: &[Vec<Shared<State>>],
    body_init: &Shared<State>,
    action: &Action,
    capacity: Option<u32>,
) -> Vec<Vec<Shared<State>>> {
    let mut new_alts = Vec::new();
    for threads in alts {
        for i in 0..threads.len() {
            let mut next = threads.clone();
            next[i] = Shared::new(step(&threads[i], action));
            next.sort();
            new_alts.push(next);
        }
        let may_start = match capacity {
            Some(cap) => (threads.len() as u32) < cap,
            None => true,
        };
        if may_start {
            let mut next = threads.clone();
            next.push(Shared::new(step(body_init, action)));
            next.sort();
            new_alts.push(next);
        }
    }
    new_alts
}

/// Pure-τ transition of the broadcast quantifiers.
fn step_broadcast_quant(q: &QuantState, action: &Action) -> QuantState {
    let mut branches = q.branches.clone();
    for v in new_values(q, action) {
        branches.insert(v, Shared::new(q.template.substitute(q.param, v)));
    }
    let branches = branches.iter().map(|(v, s)| (*v, Shared::new(step(s, action)))).collect();
    QuantState { param: q.param, template: Shared::new(step(&q.template, action)), branches }
}

/// Pure-τ transition of the synchronization quantifier.
fn step_sync_quant(q: &QuantState, scope: &Shared<ScopedAlphabet>, action: &Action) -> State {
    let covered_somewhere = scope.covers(action)
        || action.values().iter().any(|v| scope.covers_with(action, q.param, *v));
    if !covered_somewhere {
        return State::Null;
    }
    let mut branches = q.branches.clone();
    for v in new_values(q, action) {
        branches.insert(v, Shared::new(q.template.substitute(q.param, v)));
    }
    let branches = branches
        .iter()
        .map(|(v, s)| {
            if scope.covers_with(action, q.param, *v) {
                (*v, Shared::new(step(s, action)))
            } else {
                (*v, s.clone())
            }
        })
        .collect();
    let template = if scope.covers(action) {
        Shared::new(step(&q.template, action))
    } else {
        q.template.clone()
    };
    State::SyncQ { quant: QuantState { param: q.param, template, branches }, scope: scope.clone() }
}

/// Values occurring in the action that have no instantiated branch yet.
fn new_values(q: &QuantState, action: &Action) -> Vec<Value> {
    action.values().into_iter().filter(|v| !q.branches.contains_key(v)).collect()
}

// ---------------------------------------------------------------------------
// The optimization function ρ.
// ---------------------------------------------------------------------------

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
        State::SyncQ { quant, scope } => {
            State::SyncQ { quant: optimize_quant(quant), scope: scope.clone() }
        }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::parse;
    use ix_state::{init, initial_state, trans};

    fn sh(s: State) -> Shared<State> {
        Shared::new(s)
    }

    fn a(name: &str) -> Action {
        Action::nullary(name)
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
            right_init: sh(initial_state(&ix_core::builder::act0("b"))),
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
            body_init: sh(initial_state(&ix_core::builder::act0("a"))),
        };
        let o = optimize(&s);
        assert!(o.size() < s.size());
        assert_eq!(is_valid(&o), is_valid(&s));
    }

    #[test]
    fn fused_transition_matches_the_two_pass_reference() {
        let words: &[&[&str]] = &[
            &["a"],
            &["a", "b"],
            &["a", "b", "a"],
            &["b"],
            &["a", "a"],
            &["a", "b", "a", "b", "a"],
        ];
        for src in [
            "(a - b)* | (a + b)",
            "(a | b) - a",
            "a# & (a - a)",
            "(a - b)* @ (b - a)*",
            "mult 2 { a - b }",
            "(a? - b)#",
        ] {
            let e = parse(src).unwrap();
            for word in words {
                let mut cow = init(&e).unwrap();
                let mut reference = init(&e).unwrap();
                for n in *word {
                    cow = trans(&cow, &a(n));
                    reference = trans_reference(&reference, &a(n));
                    assert_eq!(cow, reference, "fused τ̂ diverged on {src} after {n} of {word:?}");
                }
            }
        }
    }

    #[test]
    fn optimization_keeps_transition_results_equivalent() {
        let words: &[&[&str]] = &[&["a"], &["a", "b"], &["a", "b", "a"], &["b"]];
        for src in ["(a - b)* | (a + b)", "(a | b) - a", "a# & (a - a)"] {
            let e = parse(src).unwrap();
            for word in words {
                let mut opt = init(&e).unwrap();
                let mut raw = init(&e).unwrap();
                for n in *word {
                    opt = trans(&opt, &a(n));
                    raw = step(&raw, &a(n));
                }
                assert_eq!(is_valid(&opt), is_valid(&raw), "ψ for {src} on {word:?}");
                assert_eq!(is_final(&opt), is_final(&raw), "ϕ for {src} on {word:?}");
                assert!(opt.size() <= raw.size());
            }
        }
    }
}
