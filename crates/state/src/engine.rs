//! The word and action problems (Fig. 9 of the paper).
//!
//! * The **word problem** classifies a finite action sequence as a complete,
//!   partial or illegal word of an expression ([`word_problem`]).
//! * The **action problem** is the on-line variant that drives real systems:
//!   actions arrive one at a time and each must be accepted or rejected
//!   immediately ([`Engine::try_execute`]).  Acceptance is decided by a
//!   *tentative* state transition: if the successor state is valid the
//!   transition is committed, otherwise the current state is kept — exactly
//!   the `action()` loop of Fig. 9.
//!
//! The [`Engine`] is the component the interaction manager of `ix-manager`
//! wraps; it also records the per-transition state metrics used by the
//! complexity experiments.
//!
//! # The tier
//!
//! An engine holds at most one [`CompiledTable`], over its whole
//! expression: it installs it on first use if the expression passes
//! [`crate::compile()`]'s eligibility check, and otherwise steps through
//! plain [`trans`].  A step from a state the table holds is a cell lookup,
//! the cell filled by one τ̂ on its first visit; any other step is the tree
//! walk's.
//!
//! # The successor list
//!
//! The paper's protocol (Sec. 7, Fig. 10) runs one transition twice: an
//! `ask` computes τ̂(s, a) from the committed state s, and the matching
//! `confirm` needs the same successor again.  The engine keeps a short list
//! of `(action, successor)` pairs for its *committed* state only: a step
//! from the committed state reads it (after the tier has missed) and fills
//! it, a step from any speculative base neither reads nor fills it, and
//! every assignment to the committed state empties it.  Since the engine
//! holds the committed state, pointer equality with it identifies the state
//! the list belongs to, and no dead state is kept alive: besides it, the
//! engine holds only σ, which `reset` and the tier's table reuse.  The
//! list is invisible semantically — τ̂ is pure — and the lockstep property
//! tests compare the engine against the plain `trans` fold.

use crate::compile::{eligible, CompileBudget, CompiledTable, TierStats};
use crate::compile::{DEAD, DEFAULT_TIER_BUDGET, UNKNOWN};
use crate::error::StateResult;
use crate::init::init;
use crate::predicates::{is_final, is_valid};
use crate::state::{null_state, Shared, State, StateMetrics};
use crate::trans::trans;
use ix_core::{Action, Expr};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Classification of a word, mirroring the integer result of the paper's
/// `word()` function (0 = illegal, 1 = partial, 2 = complete).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordStatus {
    /// The word is not a partial word of the expression.
    Illegal,
    /// The word is a partial but not a complete word.
    Partial,
    /// The word is a complete word.
    Complete,
}

impl WordStatus {
    /// The paper's integer encoding.
    pub fn code(self) -> i32 {
        match self {
            WordStatus::Illegal => 0,
            WordStatus::Partial => 1,
            WordStatus::Complete => 2,
        }
    }
}

/// Solves the word problem for a closed expression using the operational
/// state model (the efficient counterpart of
/// `ix_semantics::classify_word`).
pub fn word_problem(expr: &Expr, word: &[Action]) -> StateResult<WordStatus> {
    let mut state = init(expr)?;
    for action in word {
        state = trans(&state, action);
        if state.is_null() {
            return Ok(WordStatus::Illegal);
        }
    }
    Ok(if is_final(&state) {
        WordStatus::Complete
    } else if is_valid(&state) {
        WordStatus::Partial
    } else {
        WordStatus::Illegal
    })
}

/// Length bound of the engine's successor list; reaching it clears the list
/// (an ask is confirmed before the next commit, so the working set is one
/// or two entries — the bound only guards against probe churn).
const SUCCESSOR_LIMIT: usize = 16;

/// [`Engine::reservation_fingerprint`] of an empty reservation table — the
/// hasher's initial state, a process-stable constant (the std default
/// hasher is seeded with fixed keys).
pub fn empty_reservation_fingerprint() -> u64 {
    fingerprint_hasher().finish()
}

/// The hasher every reservation fingerprint is folded with.  Must be
/// deterministic within a process so two fingerprints of the same table are
/// equal; `DefaultHasher::new()` (fixed-key SipHash) satisfies that.
fn fingerprint_hasher() -> std::collections::hash_map::DefaultHasher {
    std::collections::hash_map::DefaultHasher::new()
}

/// One entry of the tier's pointer-keyed attach map: the keyed allocation
/// is state `state` of the table.  `pin` keeps it alive, so the pointer key
/// can never be reused while the entry exists.  An allocation without an
/// entry is no table state the tier knows of, and is answered by the tree
/// walk.
#[derive(Clone, Debug)]
struct Attached {
    pin: Shared<State>,
    state: u32,
}

/// Records `handle`'s allocation as state `state` of the table.
fn pin(attach: &mut HashMap<usize, Attached>, handle: &Shared<State>, state: usize) {
    let entry = Attached { pin: handle.clone(), state: state as u32 };
    attach.insert(Shared::as_ptr(handle) as usize, entry);
}

/// The engine's execution tier: at most one lazily filled DFA table, over
/// the whole expression, plus the pointer-keyed attach map that links live
/// state allocations to its state ids.
///
/// All fields are interior-mutable so the tier can be consulted (and can
/// fill a cell) through the engine's `&self` probes; the engine still owns
/// the tier exclusively.  The table sits behind `Arc` so a cloned engine
/// can share it: a fill goes through `Arc::make_mut`, so whoever else holds
/// the table keeps the cells it saw.
#[derive(Clone, Debug)]
struct Tier {
    /// State-count budget of the table (0 = tiering disabled).
    budget: Cell<usize>,
    /// The install ran since the budget was last set — whether or not the
    /// expression got a table.
    installed: Cell<bool>,
    table: RefCell<Option<Arc<CompiledTable>>>,
    attach: RefCell<HashMap<usize, Attached>>,
    hits: Cell<u64>,
    fallbacks: Cell<u64>,
    compiles: Cell<u64>,
}

impl Tier {
    fn new(budget: usize) -> Tier {
        Tier {
            budget: Cell::new(budget),
            installed: Cell::new(false),
            table: RefCell::new(None),
            attach: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            fallbacks: Cell::new(0),
            compiles: Cell::new(0),
        }
    }

    fn has_table(&self) -> bool {
        self.table.borrow().is_some()
    }

    /// The install: if `expr` passes [`crate::compile()`]'s eligibility
    /// check, a table with the engine's own `sigma` as state 0 and every
    /// cell unknown, σ pinned, and the live `state` interned by value and
    /// pinned — once, here and never on the per-transition path — so a tier
    /// installed mid-word picks the walk up where it stands.
    fn install(&self, expr: &Expr, sigma: &Shared<State>, state: &Shared<State>) {
        self.installed.set(true);
        let budget = CompileBudget::with_states(self.budget.get());
        let table = eligible(expr, budget)
            .and_then(|()| CompiledTable::install(expr, budget, sigma.clone()));
        let Ok(mut table) = table else { return };
        self.compiles.set(self.compiles.get() + 1);
        let mut attach = self.attach.borrow_mut();
        pin(&mut attach, sigma, 0);
        if !state.is_null() && !Shared::ptr_eq(state, sigma) {
            if let Ok(id) = table.intern(state.clone()) {
                pin(&mut attach, state, id as usize);
            }
        }
        *self.table.borrow_mut() = Some(Arc::new(table));
    }

    /// Fills every cell the table can, breadth-first, and pins the states
    /// that interned.
    fn close(&self) {
        if let Some(table) = self.table.borrow_mut().as_mut() {
            let table = Arc::make_mut(table);
            let known = table.state_count();
            table.close();
            let mut attach = self.attach.borrow_mut();
            for (id, handle) in table.states.iter().enumerate().skip(known) {
                pin(&mut attach, handle, id);
            }
        }
    }

    fn stats(&self) -> TierStats {
        let table = self.table.borrow();
        TierStats {
            tables: table.is_some() as usize,
            states: table.as_ref().map_or(0, |t| t.state_count()),
            hits: self.hits.get(),
            fallbacks: self.fallbacks.get(),
            fills: table.as_ref().map_or(0, |t| t.filled as u64),
            compiles: self.compiles.get(),
        }
    }

    /// The table's successor of `base` under `action`, if `base`'s
    /// allocation is a state of the table; `None` leaves the step to the
    /// tree walk.
    fn step(&self, base: &Shared<State>, action: &Action) -> Option<Shared<State>> {
        if !action.is_concrete() {
            // Tables only decide concrete symbols; abstract actions fall
            // back to the tree walk (which rejects them combinator by
            // combinator).
            return None;
        }
        // Known by allocation identity or not at all: nothing is hashed by
        // value on this path (hashing a large state here would tax exactly
        // the states that left a full table).
        let mut attach = self.attach.borrow_mut();
        let at = attach.get(&(Shared::as_ptr(base) as usize))?;
        debug_assert!(Shared::ptr_eq(&at.pin, base), "a pinned allocation was reused");
        let state = at.state;
        let mut slot = self.table.borrow_mut();
        let table = slot.as_mut()?;
        let Some(sym) = table.column(action) else {
            // Off the closed alphabet: `Null` in every state, no cell needed.
            self.hits.set(self.hits.get() + 1);
            return Some(null_state());
        };
        let mut next = table.transitions[state as usize * table.symbol_count() + sym];
        if next == UNKNOWN {
            // First visit: the one τ̂ the tree walk would have run, kept.
            let table = Arc::make_mut(table);
            let known = table.state_count();
            match table.fill(state, sym) {
                Ok(id) => next = id,
                Err(successor) => {
                    // The table is full and the successor is new: it leaves
                    // the table, and the walk goes on from it by the tree.
                    self.fallbacks.set(self.fallbacks.get() + 1);
                    return Some(successor);
                }
            }
            if table.state_count() > known {
                pin(&mut attach, &table.states[known], known);
            }
        }
        self.hits.set(self.hits.get() + 1);
        Some(if next == DEAD { null_state() } else { table.states[next as usize].clone() })
    }
}

/// An incremental evaluator of one interaction expression: the component
/// that answers "is this action currently permitted?" and tracks the state
/// across committed executions.
#[derive(Clone, Debug)]
pub struct Engine {
    expr: Expr,
    /// σ, built once: `reset` and the tier's table reuse it.
    sigma: Shared<State>,
    state: Shared<State>,
    /// Successors of `state` by action, see the module docs.
    successors: RefCell<Vec<(Action, Shared<State>)>>,
    tier: Tier,
    accepted: u64,
    rejected: u64,
}

impl Engine {
    /// Creates an engine at the initial state σ of `expr`.
    pub fn new(expr: &Expr) -> StateResult<Engine> {
        let sigma = Shared::new(init(expr)?);
        Ok(Engine {
            expr: expr.clone(),
            state: sigma.clone(),
            sigma,
            successors: RefCell::new(Vec::new()),
            tier: Tier::new(DEFAULT_TIER_BUDGET),
            accepted: 0,
            rejected: 0,
        })
    }

    /// Reconstructs an engine from checkpointed pieces: the expression, a
    /// decoded state, and the accept/reject counters.  The expression is
    /// re-validated and σ built exactly as in [`Engine::new`]; the decoded
    /// state is the current one.  The successor list starts empty and the tier
    /// is not installed yet: a snapshot carries no table, and the first
    /// transition installs a fresh one around the decoded state, as it does
    /// on a new engine.
    pub fn restore(
        expr: &Expr,
        state: Shared<State>,
        accepted: u64,
        rejected: u64,
    ) -> StateResult<Engine> {
        let mut engine = Engine::new(expr)?;
        engine.state = state;
        engine.accepted = accepted;
        engine.rejected = rejected;
        Ok(engine)
    }

    /// The expression this engine enforces.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The current state.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The current state as a shared handle (cheap to clone).
    pub fn state_handle(&self) -> &Shared<State> {
        &self.state
    }

    /// The tiered transition τ̂ from an explicit base state.  Order: the
    /// table (exact cell by cell, filling the cell on its first visit),
    /// then — from the committed state only — the successor list, then the
    /// tree walk.  Every path keeps the fused τ̂'s invariant "invalid ⇔
    /// null", so ψ of a successor is a null check.
    fn transition(&self, base: &Shared<State>, action: &Action) -> Shared<State> {
        let tier_on = self.tier_ready();
        if tier_on {
            if let Some(next) = self.tier.step(base, action) {
                return next;
            }
        }
        let committed = Shared::ptr_eq(base, &self.state);
        if committed {
            let successors = self.successors.borrow();
            if let Some((_, next)) = successors.iter().find(|(done, _)| done == action) {
                return next.clone();
            }
        }
        if tier_on {
            self.tier.fallbacks.set(self.tier.fallbacks.get() + 1);
        }
        let next = match trans(base, action) {
            State::Null => null_state(),
            other => Shared::new(other),
        };
        if committed {
            let mut successors = self.successors.borrow_mut();
            if successors.len() >= SUCCESSOR_LIMIT {
                successors.clear();
            }
            successors.push((action.clone(), next.clone()));
        }
        next
    }

    /// Installs the tier on first use (idempotent until the budget is next
    /// set) and says whether there is a table to consult.  Eligibility is
    /// read off the expression's shape, so this costs O(|expression|) and
    /// computes no transition; a successor list filled before the table
    /// existed is emptied so the table takes over.
    fn tier_ready(&self) -> bool {
        if !self.tier.installed.get() {
            self.tier.install(&self.expr, &self.sigma, &self.state);
            if self.tier.has_table() {
                self.successors.borrow_mut().clear();
            }
        }
        self.tier.has_table()
    }

    /// Metrics of the current state (size, alternatives).
    pub fn metrics(&self) -> StateMetrics {
        StateMetrics::of(&self.state)
    }

    /// True if the action sequence committed so far is a partial word.
    /// (Always true unless the engine was restored from an unsatisfiable
    /// state.)
    pub fn is_valid(&self) -> bool {
        !self.state.is_null()
    }

    /// True if the action sequence committed so far is a complete word.
    pub fn is_final(&self) -> bool {
        is_final(&self.state)
    }

    /// Number of accepted (committed) actions.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Number of rejected action attempts.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Tentatively checks whether the action would currently be accepted,
    /// without changing the state (step 1/2 of the coordination protocol:
    /// "ask" / "reply").
    pub fn is_permitted(&self, action: &Action) -> bool {
        if !action.is_concrete() {
            return false;
        }
        let next = self.transition(&self.state, action);
        !next.is_null()
    }

    /// Reservation-aware permissibility probe: simulates the `reserved`
    /// actions first (in order, skipping any that are no longer executable)
    /// and then checks whether `action` is permitted in the resulting state.
    /// This is the probe a scheduler runs before granting a new reservation:
    /// a granted-but-unconfirmed action must stay executable, so the new
    /// grant is only given if the expression permits it *after* every
    /// outstanding reservation as well.
    ///
    /// The engine itself is untouched — only a speculative state walk is
    /// performed.  A step of the walk from the committed state goes through
    /// the successor list; a step from a speculative state is computed
    /// afresh (or answered by the tier) and not kept.
    pub fn permitted_after<'a, I>(&self, reserved: I, action: &Action) -> bool
    where
        I: IntoIterator<Item = &'a Action>,
    {
        self.permitted_after_from(None, reserved, action)
    }

    /// [`Engine::permitted_after`] from an explicit speculative base state
    /// (`None` = the committed state).  Used by schedulers that chain
    /// several tentative actions — e.g. the coalesced cross-shard voting of
    /// the session runtime.
    pub fn permitted_after_from<'a, I>(
        &self,
        base: Option<&Shared<State>>,
        reserved: I,
        action: &Action,
    ) -> bool
    where
        I: IntoIterator<Item = &'a Action>,
    {
        let mut speculative: Option<Shared<State>> = base.cloned();
        for r in reserved {
            if !r.is_concrete() {
                continue;
            }
            let base = speculative.as_ref().unwrap_or(&self.state);
            let next = self.transition(base, r);
            if !next.is_null() {
                speculative = Some(next);
            }
        }
        if !action.is_concrete() {
            return false;
        }
        let base = speculative.as_ref().unwrap_or(&self.state);
        let next = self.transition(base, action);
        !next.is_null()
    }

    /// Content fingerprint of a reservation table: a stable hash over the
    /// reserved actions in iteration order (callers iterate their
    /// reservation maps in key order, so equal tables produce equal
    /// fingerprints).  The empty table hashes to
    /// [`empty_reservation_fingerprint`].
    pub fn reservation_fingerprint<'a, I>(reserved: I) -> u64
    where
        I: IntoIterator<Item = &'a Action>,
    {
        let mut hasher = fingerprint_hasher();
        for r in reserved {
            r.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The tentative half of a two-phase action step: computes the successor
    /// state without installing it, returning `Some` iff the action is
    /// currently permitted.  The caller either installs the successor with
    /// [`Engine::commit_prepared`] or aborts by dropping it — the engine's
    /// state is untouched either way.  This is the per-shard *prepare* vote
    /// of the cross-shard two-phase commit: a multi-owner action is prepared
    /// on every owning engine and committed only if all of them voted yes.
    ///
    /// An `ask` probe and its later `confirm` compute the same transition
    /// from the same committed state; the successor list makes the second
    /// one a lookup.  A step from a speculative base ([`Engine::prepare_from`]
    /// with `Some`) is never kept.
    pub fn prepare(&self, action: &Action) -> Option<Shared<State>> {
        self.prepare_from(None, action)
    }

    /// [`Engine::prepare`] from an explicit speculative base state (`None` =
    /// the committed state); the chained form used when several actions are
    /// prepared as one atomic run.
    pub fn prepare_from(
        &self,
        base: Option<&Shared<State>>,
        action: &Action,
    ) -> Option<Shared<State>> {
        if !action.is_concrete() {
            return None;
        }
        let next = self.transition(base.unwrap_or(&self.state), action);
        if !next.is_null() {
            Some(next)
        } else {
            None
        }
    }

    /// The commit half of a two-phase action step: installs a successor
    /// state produced by [`Engine::prepare`] and counts the accepted action.
    /// Must only be called with a state prepared from the engine's *current*
    /// state (the caller serializes prepare and commit, e.g. under the
    /// shard's lock).
    pub fn commit_prepared(&mut self, next: Shared<State>) {
        self.state = next;
        self.successors.get_mut().clear();
        self.accepted += 1;
    }

    /// Performs the accept/reject step of the action problem: the action is
    /// committed iff its tentative successor state is valid.  Returns true
    /// if the action was accepted.  Equivalent to [`Engine::prepare`]
    /// followed by [`Engine::commit_prepared`] (or a recorded rejection).
    pub fn try_execute(&mut self, action: &Action) -> bool {
        match self.prepare(action) {
            Some(next) => {
                self.commit_prepared(next);
                true
            }
            None => {
                self.rejected += 1;
                false
            }
        }
    }

    /// Feeds a whole word, stopping at the first rejected action.  Returns
    /// the number of accepted actions.
    pub fn feed(&mut self, word: &[Action]) -> usize {
        let mut n = 0;
        for action in word {
            if self.try_execute(action) {
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    /// Resets the engine to the initial state of its expression.
    pub fn reset(&mut self) {
        self.state = self.sigma.clone();
        // σ is the table's state 0 and stays pinned: the table answers the
        // next step as it did before, cells and all.
        self.successors.get_mut().clear();
        self.accepted = 0;
        self.rejected = 0;
    }

    // -- the execution tier ------------------------------------------------

    /// The tier's state-count budget (0 = tiering disabled).
    pub fn tier_budget(&self) -> usize {
        self.tier.budget.get()
    }

    /// Sets the tier budget, dropping any installed table, so the next use
    /// installs a fresh one around the current state; 0 disables tiering
    /// entirely — the lockstep equivalence property tests drive a tiered and
    /// a `tier_budget = 0` engine against each other.
    pub fn set_tier_budget(&mut self, budget: usize) {
        *self.tier.table.get_mut() = None;
        self.tier.attach.get_mut().clear();
        self.tier.installed.set(false);
        self.tier.budget.set(budget);
    }

    /// Makes sure the tier is installed — one table over the whole
    /// expression if it is eligible, σ as state 0, cells filling as steps
    /// visit them; none otherwise — and returns its stats.  Every transition
    /// does the same on first use; this only does it now.  Idempotent until
    /// the budget is next set.
    pub fn compile_tier(&mut self) -> TierStats {
        self.tier_ready();
        self.tier.stats()
    }

    /// Installs the tier and fills every cell of its table breadth-first —
    /// the closed table [`crate::compile()`] returns, for callers that want
    /// the whole reachable graph up front (exhaustive checks, benches that
    /// time pure lookups).  Cells a full table cannot intern a successor
    /// for stay unknown and keep being answered by the tree walk.  An
    /// engine without a table is left as it is.
    pub fn close_tier(&mut self) -> TierStats {
        self.tier_ready();
        self.tier.close();
        self.tier.stats()
    }

    /// The tier's counter surface.
    pub fn tier_stats(&self) -> TierStats {
        self.tier.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{parse, Value};

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    #[test]
    fn word_problem_matches_fig9_codes() {
        let e = parse("a - b").unwrap();
        assert_eq!(word_problem(&e, &[]).unwrap(), WordStatus::Partial);
        assert_eq!(word_problem(&e, &[a("a")]).unwrap(), WordStatus::Partial);
        assert_eq!(word_problem(&e, &[a("a"), a("b")]).unwrap(), WordStatus::Complete);
        assert_eq!(word_problem(&e, &[a("b")]).unwrap(), WordStatus::Illegal);
        assert_eq!(WordStatus::Complete.code(), 2);
    }

    #[test]
    fn action_problem_accepts_and_rejects() {
        let e = parse("(x + y)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert!(eng.try_execute(&a("x")));
        assert!(eng.try_execute(&a("y")));
        assert!(!eng.try_execute(&a("z")));
        assert_eq!(eng.accepted(), 2);
        assert_eq!(eng.rejected(), 1);
        assert!(eng.is_final());
    }

    #[test]
    fn tentative_checks_do_not_change_state() {
        let e = parse("a - b").unwrap();
        let eng = Engine::new(&e).unwrap();
        assert!(eng.is_permitted(&a("a")));
        assert!(!eng.is_permitted(&a("b")));
        // Still at the initial state.
        assert!(eng.is_permitted(&a("a")));
        assert_eq!(eng.accepted(), 0);
    }

    #[test]
    fn reservation_aware_probe_replays_reserved_actions() {
        // Capacity one: with a reservation for `call(1)` outstanding, a
        // second call must probe as impermissible even though the engine's
        // committed state still allows it.
        let e = parse("mult 1 { (some p { call(p) - perform(p) })* }").unwrap();
        let eng = Engine::new(&e).unwrap();
        let call = |p: i64| Action::concrete("call", [Value::int(p)]);
        assert!(eng.is_permitted(&call(2)));
        let reserved = [call(1)];
        assert!(!eng.permitted_after(reserved.iter(), &call(2)), "slot is reserved");
        assert!(eng.permitted_after([].iter(), &call(2)), "no reservations, plain probe");
        // A reservation that is itself no longer executable is skipped, and
        // the engine is untouched either way.
        let stale = [a("nonsense")];
        assert!(eng.permitted_after(stale.iter(), &call(2)));
        assert_eq!(eng.accepted(), 0);
        assert_eq!(eng.rejected(), 0);
    }

    #[test]
    fn memo_hits_reuse_the_same_successor_allocation() {
        let e = parse("(a - b)*").unwrap();
        let eng = Engine::new(&e).unwrap();
        let first = eng.prepare(&a("a")).expect("permitted");
        let second = eng.prepare(&a("a")).expect("permitted");
        assert!(
            crate::state::Shared::ptr_eq(&first, &second),
            "the second prepare must be a memo hit"
        );
    }

    fn call(p: i64) -> Action {
        Action::concrete("call", [Value::int(p)])
    }

    fn perform(p: i64) -> Action {
        Action::concrete("perform", [Value::int(p)])
    }

    /// The actions the successor list holds, in the order they were kept.
    fn kept(eng: &Engine) -> Vec<Action> {
        eng.successors.borrow().iter().map(|(action, _)| action.clone()).collect()
    }

    #[test]
    fn memo_off_engine_behaves_identically() {
        // The engine against the plain `trans` fold from the same base,
        // reservation chains included.
        let e = parse("mult 2 { (some p { call(p) - perform(p) })* }").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        let mut state = init(&e).unwrap();
        let reserved = [call(1), perform(1)];
        let (mut accepted, mut rejected) = (0, 0);
        for action in
            [call(1), call(2), call(3), perform(1), call(3), perform(2), perform(3), call(9)]
        {
            let next = trans(&state, &action);
            let mut chained = state.clone();
            for r in &reserved {
                let step = trans(&chained, r);
                if !step.is_null() {
                    chained = step;
                }
            }
            let after = !trans(&chained, &action).is_null();
            assert_eq!(eng.is_permitted(&action), !next.is_null(), "ψ on {action}");
            assert_eq!(eng.permitted_after(reserved.iter(), &action), after, "probe on {action}");
            assert_eq!(eng.try_execute(&action), !next.is_null(), "τ̂ on {action}");
            if next.is_null() {
                rejected += 1;
            } else {
                accepted += 1;
                state = next;
            }
            assert_eq!(eng.state(), &state, "state after {action}");
        }
        assert_eq!((eng.accepted(), eng.rejected()), (accepted, rejected));
    }

    #[test]
    fn the_successor_list_is_bounded() {
        // Quantified, so the tier bails and every probe goes to the list.
        let e = parse("(some p { call(p) - perform(p) })*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        for round in 0..4 {
            for p in 0..3 * SUCCESSOR_LIMIT as i64 {
                let _ = eng.is_permitted(&call(p));
                assert!(eng.successors.borrow().len() <= SUCCESSOR_LIMIT, "list over its bound");
            }
            assert!(!kept(&eng).is_empty());
            assert!(eng.try_execute(&call(round)) && eng.try_execute(&perform(round)));
        }
    }

    #[test]
    fn only_steps_from_the_committed_state_are_kept() {
        let e = parse("mult 2 { (some p { call(p) - perform(p) })* }").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert!(eng.is_permitted(&call(1)) && !eng.is_permitted(&perform(1)));
        assert_eq!(kept(&eng), [call(1), perform(1)]);
        // A commit empties the list, whichever way it installs a state.
        let next = eng.prepare(&call(1)).expect("permitted");
        eng.commit_prepared(next);
        assert!(kept(&eng).is_empty(), "commit_prepared");
        // A step from a speculative base is never kept.
        let spare = eng.prepare(&call(2)).expect("permitted");
        assert!(eng.prepare_from(Some(&spare), &call(3)).is_none(), "capacity two");
        assert!(eng.prepare_from(Some(&spare), &perform(2)).is_some());
        assert_eq!(kept(&eng), [call(2)]);
        assert!(eng.prepare_from(Some(eng.state_handle()), &perform(1)).is_some());
        assert_eq!(kept(&eng), [call(2), perform(1)], "the committed state as the base");
        // A reservation chain keeps its first step only.
        assert!(eng.permitted_after([call(5), perform(5)].iter(), &call(6)));
        assert_eq!(kept(&eng), [call(2), perform(1), call(5)]);
        assert!(eng.is_permitted(&call(7)));
        eng.reset();
        assert!(kept(&eng).is_empty(), "reset");
        assert_eq!(eng.accepted(), 0);
    }

    #[test]
    fn permitted_filters_candidates() {
        let e = parse("(call(1, sono) - perform(1, sono)) @ (call(1, endo) - perform(1, endo))")
            .unwrap();
        let eng = Engine::new(&e).unwrap();
        let candidates = [
            Action::concrete("call", [Value::int(1), Value::sym("sono")]),
            Action::concrete("perform", [Value::int(1), Value::sym("sono")]),
            Action::concrete("call", [Value::int(1), Value::sym("endo")]),
        ];
        let permitted: Vec<&Action> = candidates.iter().filter(|c| eng.is_permitted(c)).collect();
        assert_eq!(
            permitted,
            [&candidates[0], &candidates[2]],
            "both calls allowed, perform not yet"
        );
    }

    #[test]
    fn mutual_exclusion_scenario_from_the_introduction() {
        // Once the patient is called to one examination, the other call is
        // disabled until the first examination is performed.
        let e = parse(
            "(call(1, sono) - perform(1, sono)) + (call(1, endo) - perform(1, endo)) \
             + (call(1, sono) - perform(1, sono) - call(1, endo) - perform(1, endo)) \
             + (call(1, endo) - perform(1, endo) - call(1, sono) - perform(1, sono))",
        )
        .unwrap();
        let call = |x: &str| Action::concrete("call", [Value::int(1), Value::sym(x)]);
        let perform = |x: &str| Action::concrete("perform", [Value::int(1), Value::sym(x)]);
        let mut eng = Engine::new(&e).unwrap();
        assert!(eng.is_permitted(&call("sono")));
        assert!(eng.is_permitted(&call("endo")));
        assert!(eng.try_execute(&call("sono")));
        assert!(!eng.is_permitted(&call("endo")), "temporarily disabled");
        assert!(eng.try_execute(&perform("sono")));
        assert!(eng.is_permitted(&call("endo")), "re-enabled after completion");
    }

    #[test]
    fn feed_and_reset() {
        let e = parse("a - b - c").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert_eq!(eng.feed(&[a("a"), a("b"), a("z"), a("c")]), 2);
        assert!(!eng.is_final());
        eng.reset();
        assert_eq!(eng.accepted(), 0);
        assert_eq!(eng.feed(&[a("a"), a("b"), a("c")]), 3);
        assert!(eng.is_final());
    }

    #[test]
    fn nothing_is_permitted_in_the_null_state() {
        let mut eng = Engine::restore(&parse("a").unwrap(), null_state(), 1, 0).unwrap();
        assert!(!eng.is_valid());
        assert!(!eng.try_execute(&a("a")), "nothing is permitted in the null state");
    }

    #[test]
    fn non_concrete_actions_are_rejected() {
        let e = parse("a").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        let abstract_action = Action::new("a", [ix_core::Term::Param(ix_core::Param::new("p"))]);
        assert!(!eng.is_permitted(&abstract_action));
        assert!(!eng.try_execute(&abstract_action));
    }

    #[test]
    fn engine_metrics_reflect_state_growth() {
        let e = parse("(a - b)#").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        let m0 = eng.metrics();
        eng.try_execute(&a("a"));
        eng.try_execute(&a("a"));
        let m2 = eng.metrics();
        assert!(m2.size >= m0.size);
        assert!(!m2.is_null);
    }

    /// The engine's table.
    fn table_of(eng: &Engine) -> Arc<CompiledTable> {
        eng.tier.table.borrow().clone().expect("a table")
    }

    /// The 2⁸-state product of eight two-step loops — far past any budget
    /// the starved-table tests give it.
    fn mutex_product() -> Expr {
        let src: Vec<String> = (0..8).map(|k| format!("(a{k} - b{k})*")).collect();
        parse(&src.join(" | ")).unwrap()
    }

    #[test]
    fn tier_installs_on_first_use_and_serves_hits() {
        let e = parse("((r0 - r1) + (w0 - w1))*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert_eq!(eng.tier_stats().tables, 0, "Engine::new does no tier work");
        for _ in 0..100 {
            assert!(eng.try_execute(&a("r0")));
            assert!(eng.try_execute(&a("r1")));
        }
        let stats = eng.tier_stats();
        assert_eq!((stats.tables, stats.compiles, stats.fallbacks), (1, 1, 0), "{stats:?}");
        // σ, reading, the restarted idle: three states, one cell each on
        // this word (idle → reading closes the cycle) — every other step is
        // a lookup.
        assert_eq!((stats.states, stats.fills, stats.hits), (3, 3, 200), "{stats:?}");
    }

    #[test]
    fn tier_budget_zero_disables_compilation() {
        let e = parse("((r0 - r1) + (w0 - w1))*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.set_tier_budget(0);
        for _ in 0..100 {
            assert!(eng.try_execute(&a("r0")));
            assert!(eng.try_execute(&a("r1")));
        }
        let stats = eng.compile_tier();
        assert_eq!((stats.tables, stats.hits, stats.compiles), (0, 0, 0));
    }

    #[test]
    fn tiered_engine_agrees_with_plain_engine_on_a_mixed_expression() {
        // A finite mutex ⊗ a quantified spine: the whole expression is not
        // eligible, so the engine has no table and every step is the tree
        // walk's.  (The partition gives the two operands engines of their
        // own, and the mutex's has a table.)
        let e = parse("((r0 - r1) + (w0 - w1))* @ (some p { r0 - go(p) })*").unwrap();
        let mut tiered = Engine::new(&e).unwrap();
        let mut plain = Engine::new(&e).unwrap();
        plain.set_tier_budget(0);
        let stats = tiered.compile_tier();
        assert_eq!((stats.tables, stats.states, stats.compiles), (0, 0, 0), "{stats:?}");
        let go = |p: i64| Action::concrete("go", [Value::int(p)]);
        let script =
            [a("r0"), go(1), a("r1"), a("w0"), a("r0"), a("w1"), a("r0"), go(2), a("r1"), a("zzz")];
        for action in &script {
            assert_eq!(tiered.is_permitted(action), plain.is_permitted(action), "ψ on {action}");
            assert_eq!(
                tiered.permitted_after([a("r0")].iter(), action),
                plain.permitted_after([a("r0")].iter(), action),
                "probe on {action}"
            );
            assert_eq!(tiered.try_execute(action), plain.try_execute(action), "τ̂ on {action}");
            assert_eq!(tiered.state(), plain.state(), "state after {action}");
            assert_eq!(tiered.is_final(), plain.is_final(), "ϕ after {action}");
        }
        let stats = tiered.tier_stats();
        assert_eq!((stats.tables, stats.hits, stats.fallbacks), (0, 0, 0), "{stats:?}");
        assert_eq!(tiered.accepted(), plain.accepted());
        assert_eq!(tiered.rejected(), plain.rejected());
    }

    #[test]
    fn tier_prepare_commit_goes_through_the_table() {
        let e = parse("(a - b)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        let stats = eng.compile_tier();
        assert!(stats.tables >= 1);
        let prepared = eng.prepare(&a("a")).expect("permitted");
        eng.commit_prepared(prepared);
        assert!(eng.tier_stats().hits > 0, "prepare must be a table hit");
        assert!(!eng.is_permitted(&a("a")));
        assert!(eng.is_permitted(&a("b")));
    }

    #[test]
    fn close_tier_fills_what_compile_returns() {
        for (src, states) in [("(s0 - s1 - s2 - s3)*", 5), ("(a - b)* @ (c - d)*", 9)] {
            let e = parse(src).unwrap();
            let mut eng = Engine::new(&e).unwrap();
            let installed = eng.compile_tier();
            assert_eq!((installed.tables, installed.states, installed.fills), (1, 1, 0));
            let closed = eng.close_tier();
            assert_eq!((closed.states, closed.fills), (states, states as u64 * 4), "{src}");
            assert_eq!(closed.compiles, 1, "closing is not another install");
            let table = crate::compile::compile(&e, CompileBudget::with_states(64)).unwrap();
            let mine = table_of(&eng);
            assert_eq!(mine.transitions, table.transitions, "{src}: same ids, same cells");
            assert_eq!(mine.states, table.states);
            // Closing again computes nothing, and a closed table never
            // falls back.
            assert_eq!(eng.close_tier(), closed);
            for name in ["s0", "a", "c", "s1", "b", "d", "zzz"] {
                eng.try_execute(&a(name));
            }
            let after = eng.tier_stats();
            assert_eq!((after.fills, after.fallbacks), (closed.fills, 0));
        }
    }

    #[test]
    fn a_full_table_hands_the_walk_to_the_tree() {
        // 2^8 product states against a budget of two: the table holds σ and
        // the first successor, the walk leaves it on the next new state and
        // the tree answers from there — exactly, and without growing the
        // table.
        let e = mutex_product();
        let mut starved = Engine::new(&e).unwrap();
        let mut plain = Engine::new(&e).unwrap();
        starved.set_tier_budget(2);
        plain.set_tier_budget(0);
        let word = ["a0", "a0", "a1", "b0", "zzz", "a2", "b1", "a0", "b2", "b0"];
        for name in word {
            assert_eq!(starved.is_permitted(&a(name)), plain.is_permitted(&a(name)), "{name}");
            assert_eq!(starved.try_execute(&a(name)), plain.try_execute(&a(name)), "{name}");
            assert_eq!(starved.state(), plain.state(), "state after {name}");
            assert_eq!(starved.is_final(), plain.is_final());
        }
        let stats = starved.tier_stats();
        assert_eq!((stats.tables, stats.states), (1, 2), "{stats:?}");
        // Filled: σ·a0 (interned), and the dead σ₁·a0; σ₁·a1 found the
        // table full.  Off the table the walk is never hashed back in.
        assert_eq!(stats.fills, 2, "{stats:?}");
        assert!(stats.fallbacks >= 8, "the tree took over: {stats:?}");
        // Back at σ the table answers again, and still records what it can.
        starved.reset();
        plain.reset();
        let hits = starved.tier_stats().hits;
        assert!(!starved.is_permitted(&a("b0")) && starved.is_permitted(&a("a0")));
        let stats = starved.tier_stats();
        assert_eq!((stats.hits, stats.fills, stats.states), (hits + 2, 3, 2), "{stats:?}");
    }

    #[test]
    fn a_full_table_still_records_a_known_successor() {
        // (a + b)* under a budget of two: σ and "after a" fit.  "After a"
        // steps to itself on `a` — recorded though the table is full — and
        // to the un-internable "after b" on `b`, every time by the tree.
        let e = parse("(a + b)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.set_tier_budget(2);
        assert!(eng.try_execute(&a("a")) && eng.try_execute(&a("a")) && eng.try_execute(&a("a")));
        let stats = eng.tier_stats();
        assert_eq!((stats.states, stats.fills, stats.hits, stats.fallbacks), (2, 2, 3, 0));
        assert!(eng.is_permitted(&a("b")) && eng.is_permitted(&a("b")));
        let stats = eng.tier_stats();
        assert_eq!((stats.states, stats.fills, stats.fallbacks), (2, 2, 2), "{stats:?}");
    }

    #[test]
    fn budget_too_small_for_any_tile_falls_back_to_cow() {
        // One state holds σ and no successor: the first step already leaves
        // the table, and the engine keeps answering from the tree.
        let e = parse("(a - b)* | (c - d)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.set_tier_budget(1);
        let stats = eng.compile_tier();
        assert_eq!((stats.tables, stats.states), (1, 1), "σ is all that fits: {stats:?}");
        for name in ["a", "c", "b", "d"] {
            assert!(eng.try_execute(&a(name)));
        }
        assert_eq!(eng.accepted(), 4);
        let stats = eng.tier_stats();
        assert_eq!((stats.hits, stats.fills, stats.states), (0, 0, 1), "{stats:?}");
        assert_eq!(stats.fallbacks, 4);
    }

    #[test]
    fn compile_during_traffic_preserves_in_flight_state() {
        // Install mid-protocol: the attach map must pick up the *current*
        // interior state, not just σ, and a reset must re-attach.
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let mut tiered = Engine::new(&e).unwrap();
        let mut plain = Engine::new(&e).unwrap();
        plain.set_tier_budget(0);
        let script = ["s0", "s1", "s2", "s3", "s0", "s1"];
        for (k, step) in script.iter().enumerate() {
            if k == 2 {
                tiered.set_tier_budget(DEFAULT_TIER_BUDGET);
                let stats = tiered.compile_tier();
                assert_eq!((stats.tables, stats.states), (1, 2), "σ and the state in flight");
            }
            assert_eq!(tiered.try_execute(&a(step)), plain.try_execute(&a(step)));
            assert_eq!(tiered.state(), plain.state(), "state after {step}");
        }
        let stats = tiered.tier_stats();
        assert_eq!((stats.hits, stats.fallbacks), (6, 0), "every step on a table: {stats:?}");
        tiered.reset();
        plain.reset();
        assert!(tiered.try_execute(&a("s0")) && plain.try_execute(&a("s0")));
        assert_eq!(tiered.state(), plain.state());
        let after = tiered.tier_stats();
        assert_eq!(after.hits, 7, "tables survive a reset");
        assert_eq!((after.fills, after.compiles), (stats.fills + 1, stats.compiles));
    }

    #[test]
    fn the_root_table_starts_from_the_engine_sigma() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        let sigma = eng.state_handle().clone();
        let state_zero = |eng: &Engine| table_of(eng).states[0].clone();
        eng.compile_tier();
        assert!(Shared::ptr_eq(&state_zero(&eng), &sigma), "σ is not built a second time");
        // A reset returns to that allocation, and the table knows it: the
        // next step is a hit on the cell the first lap filled.
        assert!(eng.try_execute(&a("s0")) && eng.try_execute(&a("s1")));
        eng.reset();
        assert!(Shared::ptr_eq(eng.state_handle(), &sigma));
        let before = eng.tier_stats();
        assert!(eng.try_execute(&a("s0")));
        let after = eng.tier_stats();
        assert_eq!(
            (after.hits, after.fills, after.compiles, after.fallbacks),
            (before.hits + 1, before.fills, before.compiles, before.fallbacks)
        );
        // Installed mid-word, the table still starts from σ's allocation,
        // and the state in flight is interned by value beside it.
        assert!(eng.try_execute(&a("s1")));
        let in_flight = eng.state_handle().clone();
        eng.set_tier_budget(DEFAULT_TIER_BUDGET);
        let stats = eng.compile_tier();
        assert_eq!((stats.tables, stats.states, stats.fills), (1, 2, 0), "{stats:?}");
        assert!(Shared::ptr_eq(&state_zero(&eng), &sigma));
        assert_eq!(*table_of(&eng).states[1], *in_flight);
        eng.reset();
        assert!(Shared::ptr_eq(eng.state_handle(), &sigma));
        assert!(eng.try_execute(&a("s0")));
        assert_eq!(eng.tier_stats().compiles, stats.compiles, "a reset re-attaches");
    }

    #[test]
    fn a_cloned_engine_fills_its_own_copy_of_a_shared_table() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let mut left = Engine::new(&e).unwrap();
        assert!(left.try_execute(&a("s0")));
        let mut right = left.clone();
        let shared = table_of(&left);
        assert!(Arc::ptr_eq(&shared, &table_of(&right)), "a clone shares the table");
        let seen = shared.transitions.clone();
        // Left walks on, right probes denials: each fills cells the other
        // never sees, and what either saw before stays what it was.
        for name in ["s1", "s2", "s3", "s0"] {
            assert!(left.try_execute(&a(name)));
        }
        for name in ["s0", "s2", "s3"] {
            assert!(!right.is_permitted(&a(name)));
        }
        assert!(right.try_execute(&a("s1")));
        assert_eq!(shared.transitions, seen, "a held table is not written through");
        let (l, r) = (left.tier_stats(), right.tier_stats());
        assert_eq!((l.fills, l.states), (5, 5));
        assert_eq!((r.fills, r.states), (5, 3));
        let mut plain = Engine::new(&e).unwrap();
        plain.set_tier_budget(0);
        plain.feed(&[a("s0"), a("s1")]);
        assert_eq!(right.state(), plain.state());
        plain.feed(&[a("s2"), a("s3"), a("s0")]);
        assert_eq!(left.state(), plain.state());
    }
}
