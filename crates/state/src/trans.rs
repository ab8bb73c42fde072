//! The state transition function τ and its optimized variant τ̂ = ρ ∘ τ
//! (Secs. 4–5).
//!
//! Two implementations live here:
//!
//! * [`trans`] — the **fused copy-on-write** τ̂: one pass that advances every
//!   walker position, prunes invalid alternatives, deduplicates, and
//!   collapses invalid states to [`State::Null`] *while rebuilding*.  Only
//!   the spine from the root to the touched operands is allocated; every
//!   untouched subtree (the idle side of a ⊗, unstepped quantifier branches,
//!   the n−1 unchanged threads of each parallel alternative) is shared by
//!   reference.  The fusion removes ρ's separate rebuild pass and its
//!   repeated ψ walks (the old pipeline recomputed `is_valid` at every node,
//!   an O(n²) habit on deep states); the fused output satisfies the
//!   invariant **invalid ⇔ `Null`**, which in turn makes ψ a constant-time
//!   null check on the optimized path.
//! * [`step`] + [`crate::optimize::optimize`] — the textbook two-pass
//!   pipeline (pure τ, then ρ).  [`trans_reference`] composes them; it is
//!   the reference implementation the property suites compare the fused
//!   function against, and [`step`] alone is the raw τ whose unbounded state
//!   growth Sec. 6 analyses.
//!
//! Both produce identical state *values*: `trans(s, a) == trans_reference(s, a)`
//! for every reachable state (exercised by the workspace property tests).

use crate::optimize::optimize;
use crate::predicates::is_final;
use crate::state::{null_state, QuantState, Shared, State};
use ix_core::{Action, Value};

/// The optimized state transition function τ̂(s, a) = ρ(τ(s, a)), computed in
/// one fused copy-on-write pass.
pub fn trans(state: &State, action: &Action) -> State {
    fused(state, action, &NoTier)
}

/// A hook the fused walk consults at every shared child: a tiered engine
/// answers table-resident subtrees from a compiled DFA tile in O(1) while
/// the surrounding copy-on-write spine keeps handling composition.
/// Implementations must be *value-transparent*: a `Some` answer must equal
/// (by state value) what the fused walk itself would have computed.
pub(crate) trait TierLookup {
    /// Table-resident successor of `child` under `action`, if the child's
    /// allocation is attached to a compiled tile; `None` falls back to the
    /// tree walk.
    fn tier_step(&self, child: &Shared<State>, action: &Action) -> Option<Shared<State>>;
}

/// The zero-cost no-tier hook: the plain `trans` path monomorphizes to
/// exactly the pre-tier code.
pub(crate) struct NoTier;

impl TierLookup for NoTier {
    #[inline(always)]
    fn tier_step(&self, _child: &Shared<State>, _action: &Action) -> Option<Shared<State>> {
        None
    }
}

/// The reference implementation of τ̂: the pure transition followed by a
/// separate ρ pass.  Kept for the equivalence property suites and the
/// old-vs-new benchmark; the engine uses the fused [`trans`].
pub fn trans_reference(state: &State, action: &Action) -> State {
    optimize(&step(state, action))
}

// ---------------------------------------------------------------------------
// The fused copy-on-write τ̂.
// ---------------------------------------------------------------------------

/// Steps a shared child, wrapping the fused result.  `Null` results share
/// the process-wide null singleton.  The tier hook is consulted first: a
/// table-attached child is answered by array lookup without walking it.
fn fstep<T: TierLookup>(child: &Shared<State>, action: &Action, tier: &T) -> Shared<State> {
    if let Some(next) = tier.tier_step(child, action) {
        return next;
    }
    match fused(child, action, tier) {
        State::Null => null_state(),
        other => Shared::new(other),
    }
}

/// The fused ρ∘τ on a state value.  Invariants (inductively maintained, and
/// trivially true of initial states): the input's live alternatives contain
/// no `Null` components except where ρ deliberately keeps them (`Or`/`And`
/// children, `Seq` left operands, disjunction-quantifier branches); the
/// output is `Null` iff it is invalid.
pub(crate) fn fused<T: TierLookup>(state: &State, action: &Action, tier: &T) -> State {
    match state {
        State::Null => State::Null,
        // ε accepts no action at all.
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
            let body = fstep(body, action, tier);
            if body.is_null() {
                State::Null
            } else {
                State::Option { at_start: false, body }
            }
        }
        State::Seq { left, rights, right_init } => {
            let new_left = fstep(left, action, tier);
            let mut new_rights: Vec<Shared<State>> =
                rights.iter().map(|r| fstep(r, action, tier)).filter(|r| !r.is_null()).collect();
            if is_final(&new_left) {
                // Spawn a fresh right-hand run: the precomputed σ(z) is
                // shared, not rebuilt.
                new_rights.push(right_init.clone());
            }
            new_rights.sort();
            new_rights.dedup();
            if new_left.is_null() && new_rights.is_empty() {
                State::Null
            } else {
                State::Seq { left: new_left, rights: new_rights, right_init: right_init.clone() }
            }
        }
        State::SeqIter { runs, body_init, .. } => {
            let mut boundary = false;
            let mut new_runs: Vec<Shared<State>> = Vec::with_capacity(runs.len() + 1);
            for run in runs {
                let next = fstep(run, action, tier);
                if next.is_null() {
                    continue;
                }
                boundary |= is_final(&next);
                new_runs.push(next);
            }
            if boundary {
                new_runs.push(body_init.clone());
            }
            new_runs.sort();
            new_runs.dedup();
            if new_runs.is_empty() {
                State::Null
            } else {
                State::SeqIter { boundary, runs: new_runs, body_init: body_init.clone() }
            }
        }
        State::Par { alts } => {
            // The paper's construction: every alternative [l, r] is replaced
            // by the two alternatives [τ(l), r] and [l, τ(r)]; invalid
            // variants are pruned on the spot and the untouched component is
            // shared.
            let mut new_alts: Vec<(Shared<State>, Shared<State>)> =
                Vec::with_capacity(alts.len() * 2);
            for (l, r) in alts {
                let stepped_l = fstep(l, action, tier);
                if !stepped_l.is_null() && !r.is_null() {
                    new_alts.push((stepped_l, r.clone()));
                }
                let stepped_r = fstep(r, action, tier);
                if !l.is_null() && !stepped_r.is_null() {
                    new_alts.push((l.clone(), stepped_r));
                }
            }
            new_alts.sort();
            new_alts.dedup();
            if new_alts.is_empty() {
                State::Null
            } else {
                State::Par { alts: new_alts }
            }
        }
        State::ParIter { alts, body_init } => {
            match fused_thread_alts(alts, body_init, action, None, tier) {
                None => State::Null,
                Some(new_alts) => State::ParIter { alts: new_alts, body_init: body_init.clone() },
            }
        }
        State::Or { left, right } => {
            let left = fstep(left, action, tier);
            let right = fstep(right, action, tier);
            if left.is_null() && right.is_null() {
                State::Null
            } else {
                State::Or { left, right }
            }
        }
        State::And { left, right } => {
            let left = fstep(left, action, tier);
            if left.is_null() {
                return State::Null;
            }
            let right = fstep(right, action, tier);
            if right.is_null() {
                return State::Null;
            }
            State::And { left, right }
        }
        State::Sync { left, right, left_alpha, right_alpha } => {
            let in_left = left_alpha.covers(action);
            let in_right = right_alpha.covers(action);
            if !in_left && !in_right {
                // Actions outside α(x) are not part of the synchronization's
                // language at all.
                return State::Null;
            }
            // The operand the action bypasses is shared untouched — the
            // copy-on-write payoff for coupled ensembles.
            let new_left = if in_left { fstep(left, action, tier) } else { left.clone() };
            if new_left.is_null() {
                return State::Null;
            }
            let new_right = if in_right { fstep(right, action, tier) } else { right.clone() };
            if new_right.is_null() {
                return State::Null;
            }
            State::Sync {
                left: new_left,
                right: new_right,
                left_alpha: left_alpha.clone(),
                right_alpha: right_alpha.clone(),
            }
        }
        State::SomeQ(q) => {
            let (template, branches) = fused_broadcast_quant(q, action, tier);
            // ρ keeps dead branches of a disjunction quantifier (as Null):
            // removing them could let a later re-instantiation from the
            // still-valid template resurrect a branch that is already dead.
            if template.is_null() && branches.values().all(|b| b.is_null()) {
                State::Null
            } else {
                State::SomeQ(QuantState {
                    param: q.param,
                    template,
                    branches,
                    scope: q.scope.clone(),
                })
            }
        }
        State::AllQ(q) => {
            let (template, branches) = fused_broadcast_quant(q, action, tier);
            if template.is_null() || branches.values().any(|b| b.is_null()) {
                State::Null
            } else {
                State::AllQ(QuantState {
                    param: q.param,
                    template,
                    branches,
                    scope: q.scope.clone(),
                })
            }
        }
        State::SyncQ(q) => fused_sync_quant(q, action, tier),
        State::ParQ { param, body_accepts_epsilon, alts, body_init } => {
            let values = action.values();
            if values.is_empty() {
                // With a completely quantified body no branch can consume an
                // action that mentions no value at all.
                return State::Null;
            }
            // A new branch's state depends only on the value, not on the
            // alternative: the precomputed σ(y) template with the value
            // substituted (σ commutes with substitution), stepped by the
            // action — computed once per value, shared across alternatives.
            let fresh_branches: Vec<(Value, Shared<State>)> = values
                .iter()
                .map(|v| {
                    let fresh = body_init.substitute(*param, *v);
                    let stepped = match fused(&fresh, action, tier) {
                        State::Null => null_state(),
                        other => Shared::new(other),
                    };
                    (*v, stepped)
                })
                .collect();
            let mut new_alts = Vec::new();
            for branches in alts {
                if branches.values().any(|b| b.is_null()) {
                    continue;
                }
                for (v, fresh) in &fresh_branches {
                    let branch_state = match branches.get(v) {
                        Some(existing) => fstep(existing, action, tier),
                        None => fresh.clone(),
                    };
                    if branch_state.is_null() {
                        continue;
                    }
                    let mut next = branches.clone();
                    next.insert(*v, branch_state);
                    new_alts.push(next);
                }
            }
            new_alts.sort();
            new_alts.dedup();
            if new_alts.is_empty() {
                State::Null
            } else {
                State::ParQ {
                    param: *param,
                    body_accepts_epsilon: *body_accepts_epsilon,
                    alts: new_alts,
                    body_init: body_init.clone(),
                }
            }
        }
        State::Mult { capacity, body_accepts_epsilon, alts, body_init } => {
            match fused_thread_alts(alts, body_init, action, Some(*capacity), tier) {
                None => State::Null,
                Some(new_alts) => State::Mult {
                    capacity: *capacity,
                    body_accepts_epsilon: *body_accepts_epsilon,
                    alts: new_alts,
                    body_init: body_init.clone(),
                },
            }
        }
    }
}

/// Fused transition of the alternatives of a parallel iteration or
/// multiplier: every alternative forks into "an existing instance consumes
/// the action" (one variant per instance, sharing the other instances) and,
/// capacity permitting, "a new instance is started with this action".
/// Variants with an invalid component are pruned before they are ever
/// sorted; `None` means no alternative survived (the state is invalid).
fn fused_thread_alts<T: TierLookup>(
    alts: &[Vec<Shared<State>>],
    body_init: &Shared<State>,
    action: &Action,
    capacity: Option<u32>,
    tier: &T,
) -> Option<Vec<Vec<Shared<State>>>> {
    let mut new_alts = Vec::new();
    // The freshly started instance is the same for every alternative —
    // compute it once per transition, not once per alternative.
    let started = fstep(body_init, action, tier);
    let started = (!started.is_null()).then_some(started);
    for threads in alts {
        if threads.iter().any(|t| t.is_null()) {
            continue;
        }
        for (i, thread) in threads.iter().enumerate() {
            let stepped = fstep(thread, action, tier);
            if stepped.is_null() {
                continue;
            }
            let mut next = threads.clone();
            next[i] = stepped;
            next.sort();
            new_alts.push(next);
        }
        let may_start = match capacity {
            Some(cap) => (threads.len() as u32) < cap,
            None => true,
        };
        if may_start {
            if let Some(started) = &started {
                let mut next = threads.clone();
                next.push(started.clone());
                next.sort();
                new_alts.push(next);
            }
        }
    }
    new_alts.sort();
    new_alts.dedup();
    if new_alts.is_empty() {
        None
    } else {
        Some(new_alts)
    }
}

/// Fused transition of the disjunction and conjunction quantifiers: every
/// branch — instantiated or represented by the template — processes every
/// action.  Branches for values that occur in the action for the first time
/// are instantiated from the template *before* the transition (the
/// template's state is exactly the state such a branch would have reached,
/// because the branch's value has not occurred so far).
fn fused_broadcast_quant<T: TierLookup>(
    q: &QuantState,
    action: &Action,
    tier: &T,
) -> (Shared<State>, std::collections::BTreeMap<Value, Shared<State>>) {
    let mut branches = q.branches.clone();
    for v in new_values(q, action) {
        branches.insert(v, Shared::new(q.template.substitute(q.param, v)));
    }
    let branches = branches.iter().map(|(v, s)| (*v, fstep(s, action, tier))).collect();
    (fstep(&q.template, action, tier), branches)
}

/// Fused transition of the synchronization quantifier: like the broadcast
/// quantifiers, but every branch only sees the actions covered by its own
/// (instantiated) alphabet; all other actions pass it by *shared*, not
/// copied.  Actions covered by no instantiation at all are outside the
/// quantifier's language.
fn fused_sync_quant<T: TierLookup>(q: &QuantState, action: &Action, tier: &T) -> State {
    let in_template = q.scope.covers(action);
    let covered_somewhere =
        in_template || action.values().iter().any(|v| q.scope.covers_with(action, q.param, *v));
    if !covered_somewhere {
        return State::Null;
    }
    let mut branches = q.branches.clone();
    for v in new_values(q, action) {
        branches.insert(v, Shared::new(q.template.substitute(q.param, v)));
    }
    let mut new_branches = std::collections::BTreeMap::new();
    for (v, s) in &branches {
        let next = if q.scope.covers_with(action, q.param, *v) {
            fstep(s, action, tier)
        } else {
            s.clone()
        };
        if next.is_null() {
            // The synchronization quantifier is conjunctive: one dead branch
            // kills the whole state.
            return State::Null;
        }
        new_branches.insert(*v, next);
    }
    let template = if in_template { fstep(&q.template, action, tier) } else { q.template.clone() };
    if template.is_null() {
        return State::Null;
    }
    State::SyncQ(QuantState {
        param: q.param,
        template,
        branches: new_branches,
        scope: q.scope.clone(),
    })
}

// ---------------------------------------------------------------------------
// The pure transition function τ (reference / ablation path).
// ---------------------------------------------------------------------------

/// The pure transition function τ(s, a), without ρ.  Untouched subtrees are
/// still shared by reference (sharing does not change state *values*), but
/// nothing is pruned: alternatives accumulate exactly as the worst-case
/// analysis of Sec. 6 describes.
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
        State::SyncQ(q) => step_sync_quant(q, action),
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
    QuantState {
        param: q.param,
        template: Shared::new(step(&q.template, action)),
        branches,
        scope: q.scope.clone(),
    }
}

/// Pure-τ transition of the synchronization quantifier.
fn step_sync_quant(q: &QuantState, action: &Action) -> State {
    let covered_somewhere = q.scope.covers_blocking(action, &[])
        || action.values().iter().any(|v| q.scope.covers_with(action, q.param, *v));
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
            if q.scope.covers_with(action, q.param, *v) {
                (*v, Shared::new(step(s, action)))
            } else {
                (*v, s.clone())
            }
        })
        .collect();
    let template = if q.scope.covers_blocking(action, &[]) {
        Shared::new(step(&q.template, action))
    } else {
        q.template.clone()
    };
    State::SyncQ(QuantState { param: q.param, template, branches, scope: q.scope.clone() })
}

/// Values occurring in the action that have no instantiated branch yet.
fn new_values(q: &QuantState, action: &Action) -> Vec<Value> {
    action.values().into_iter().filter(|v| !q.branches.contains_key(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::init;
    use crate::predicates::{is_final, is_valid};
    use ix_core::{parse, Value};

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    fn run(src: &str, names: &[&str]) -> State {
        let e = parse(src).unwrap();
        let mut s = init(&e).unwrap();
        for n in names {
            s = trans(&s, &a(n));
        }
        s
    }

    fn run_actions(src: &str, actions: &[Action]) -> State {
        let e = parse(src).unwrap();
        let mut s = init(&e).unwrap();
        for act in actions {
            s = trans(&s, act);
        }
        s
    }

    #[test]
    fn atoms_and_sequences() {
        assert!(is_final(&run("a", &["a"])));
        assert!(run("a", &["b"]).is_null());
        assert!(run("a", &["a", "a"]).is_null());
        let s = run("a - b - c", &["a", "b"]);
        assert!(is_valid(&s) && !is_final(&s));
        assert!(is_final(&run("a - b - c", &["a", "b", "c"])));
        assert!(run("a - b - c", &["a", "c"]).is_null());
    }

    #[test]
    fn option_and_iterations() {
        assert!(is_final(&run("a?", &[])));
        assert!(is_final(&run("a?", &["a"])));
        assert!(run("a?", &["a", "a"]).is_null());
        assert!(is_final(&run("(a - b)*", &[])));
        assert!(is_final(&run("(a - b)*", &["a", "b", "a", "b"])));
        assert!(!is_final(&run("(a - b)*", &["a", "b", "a"])));
        assert!(run("(a - b)*", &["a", "a"]).is_null());
        // Parallel iteration allows overlapping instances.
        assert!(is_valid(&run("(a - b)#", &["a", "a"])));
        assert!(is_final(&run("(a - b)#", &["a", "a", "b", "b"])));
        assert!(run("(a - b)#", &["b"]).is_null());
    }

    #[test]
    fn parallel_composition_is_an_arbitrary_interleaving() {
        for word in [&["a", "b"][..], &["b", "a"][..]] {
            assert!(is_final(&run("a | b", word)), "{word:?}");
        }
        assert!(!is_final(&run("a | b", &["a"])));
        assert!(run("a | b", &["a", "a"]).is_null());
    }

    #[test]
    fn disjunction_conjunction_and_synchronization() {
        assert!(is_final(&run("a + b", &["a"])));
        assert!(is_final(&run("a + b", &["b"])));
        assert!(run("a + b", &["a", "b"]).is_null());
        // Strict conjunction over different alphabets is unsatisfiable.
        assert!(!is_final(&run("a & b", &["a"])));
        // Coupling: each operand constrains only its own actions.
        assert!(is_final(&run("a @ b", &["a", "b"])));
        assert!(is_final(&run("a @ b", &["b", "a"])));
        assert!(!is_final(&run("a @ b", &["a"])));
        assert!(run("(a - b) @ (b - c)", &["b"]).is_null());
        assert!(is_final(&run("(a - b) @ (b - c)", &["a", "b", "c"])));
        assert!(run("(a - b) @ (b - c)", &["a", "c"]).is_null());
        // Actions unknown to either operand are rejected.
        assert!(run("a @ b", &["z"]).is_null());
    }

    #[test]
    fn mutual_exclusion_flash_operator() {
        // Fig. 5: (x + y + z)* — branches exclude each other over time.
        let e = "(x + y + z)*";
        assert!(is_final(&run(e, &["x", "y", "z", "x"])));
        assert!(is_valid(&run(e, &["x"])));
    }

    #[test]
    fn multiplier_enforces_capacity() {
        let e = "mult 2 { a - b }";
        assert!(is_valid(&run(e, &["a", "a"])));
        assert!(run(e, &["a", "a", "a"]).is_null(), "only two concurrent instances");
        assert!(is_final(&run(e, &["a", "b", "a", "b"])));
        assert!(is_final(&run(e, &["a", "a", "b", "b"])));
    }

    #[test]
    fn disjunction_quantifier_commits_to_one_value() {
        let e = "some p { a(p) - b(p) }";
        let a1 = Action::concrete("a", [Value::int(1)]);
        let b1 = Action::concrete("b", [Value::int(1)]);
        let b2 = Action::concrete("b", [Value::int(2)]);
        assert!(is_final(&run_actions(e, &[a1.clone(), b1])));
        assert!(run_actions(e, &[a1, b2]).is_null());
    }

    #[test]
    fn parallel_quantifier_runs_values_independently() {
        let e = "all p { (a(p) - b(p))? }";
        let a1 = Action::concrete("a", [Value::int(1)]);
        let a2 = Action::concrete("a", [Value::int(2)]);
        let b1 = Action::concrete("b", [Value::int(1)]);
        let b2 = Action::concrete("b", [Value::int(2)]);
        assert!(is_final(&run_actions(e, &[a1.clone(), a2.clone(), b2, b1.clone()])));
        assert!(run_actions(e, &[a1.clone(), a1.clone()]).is_null());
        assert!(run_actions(e, std::slice::from_ref(&b1)).is_null());
        // An action without any value cannot belong to any branch.
        assert!(run_actions(e, &[a("c")]).is_null());
        let _ = b1;
    }

    #[test]
    fn conjunction_quantifier_requires_all_values() {
        let e = "each p { a(p)? }";
        let a1 = Action::concrete("a", [Value::int(1)]);
        // a(1) is rejected because the branch for any other value cannot
        // accept it.
        assert!(run_actions(e, &[a1]).is_null());
        assert!(is_final(&run_actions(e, &[])));
    }

    #[test]
    fn sync_quantifier_orders_actions_per_value_only() {
        let e = "sync p { (a(p) - b(p))* }";
        let a1 = Action::concrete("a", [Value::int(1)]);
        let a2 = Action::concrete("a", [Value::int(2)]);
        let b1 = Action::concrete("b", [Value::int(1)]);
        let b2 = Action::concrete("b", [Value::int(2)]);
        assert!(is_final(&run_actions(e, &[a1.clone(), a2.clone(), b1.clone(), b2.clone()])));
        assert!(run_actions(e, std::slice::from_ref(&b1)).is_null(), "b(1) before a(1)");
        assert!(is_final(&run_actions(e, &[a2.clone(), b2.clone()])));
        // Unknown action names are outside the quantifier's language.
        assert!(run_actions(e, &[Action::concrete("z", [Value::int(1)])]).is_null());
    }

    #[test]
    fn capacity_constraint_of_fig6() {
        // all x { mult 3 { (some p { call(p, x) - perform(p, x) })* } }
        let e = "all x { mult 3 { (some p { call(p, x) - perform(p, x) })* } }";
        let call = |p: i64| Action::concrete("call", [Value::int(p), Value::sym("sono")]);
        let perform = |p: i64| Action::concrete("perform", [Value::int(p), Value::sym("sono")]);
        // Three patients may be in progress concurrently…
        let s = run_actions(e, &[call(1), call(2), call(3)]);
        assert!(is_valid(&s));
        // …but a fourth call is rejected until someone finishes.
        assert!(run_actions(e, &[call(1), call(2), call(3), call(4)]).is_null());
        let s = run_actions(e, &[call(1), call(2), call(3), perform(2), call(4)]);
        assert!(is_valid(&s));
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
    fn fused_transition_keeps_the_invalid_means_null_invariant() {
        for (src, word) in [
            ("a - b", &["b"][..]),
            ("(a - b)*", &["a", "a"][..]),
            ("a @ b", &["z"][..]),
            ("each p { a(p)? }", &[][..]),
        ] {
            let e = parse(src).unwrap();
            let mut s = init(&e).unwrap();
            let mut actions: Vec<Action> = word.iter().map(|n| a(n)).collect();
            actions.push(a("zzz"));
            for act in &actions {
                s = trans(&s, act);
                assert_eq!(is_valid(&s), !s.is_null(), "invariant broken on {src} at {act}");
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

    #[test]
    fn transitions_share_untouched_subtrees() {
        // A coupling whose right operand never sees `a`: the whole right
        // subtree must be shared by pointer across the transition.
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let s0 = init(&e).unwrap();
        let s1 = trans(&s0, &a("a"));
        match (&s0, &s1) {
            (State::Sync { right: r0, .. }, State::Sync { right: r1, .. }) => {
                assert!(crate::state::Shared::ptr_eq(r0, r1), "untouched ⊗ operand not shared");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The rebuild allocates only the spine.
        assert!(
            crate::state::fresh_nodes(&s0, &s1) < s1.size(),
            "no structural sharing in the rebuilt state"
        );
    }

    #[test]
    fn null_absorbs_everything() {
        let s = trans(&State::Null, &a("a"));
        assert!(s.is_null());
    }
}
