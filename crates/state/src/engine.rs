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
//! # The transition memo
//!
//! Every coordination protocol runs the *same* transition more than once:
//! an `ask` probes τ(s, a) and the matching `confirm` recomputes it; a
//! `permitted_after` probe replays the reservation table and the next probe
//! replays it again; a subscription refresh re-probes each watched action
//! until the state moves.  Since states are immutable behind [`Shared`]
//! handles, `(state identity, action)` is an exact memo key: the engine
//! keeps a small bounded map from that key to the successor, and the
//! entry's key handle keeps the state alive, so the pointer can never be
//! reused while the entry exists.  The memo is invisible semantically — τ̂
//! is pure — and `set_memo_capacity(0)` disables it (the equivalence
//! property tests drive memo-on and memo-off engines in lockstep).

use crate::compile::{for_each_resident, CompileBudget, CompiledTable, TableParts, TierStats};
use crate::compile::{DEAD, DEFAULT_TIER_BUDGET, UNKNOWN};
use crate::error::StateResult;
use crate::init::init;
use crate::predicates::{is_final, is_valid};
use crate::state::{null_state, Shared, State, StateMetrics};
use crate::trans::{fused, trans, TierLookup};
use ix_core::{Action, Expr};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
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

/// Default number of `(state, action)` entries the transition memo retains.
pub const DEFAULT_MEMO_CAPACITY: usize = 256;

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

type MemoKey = (usize, Action);

/// The bounded transition memo: FIFO eviction, exact pointer-identity keys.
#[derive(Clone, Debug, Default)]
struct TransMemo {
    map: HashMap<MemoKey, (Shared<State>, Shared<State>)>,
    order: VecDeque<MemoKey>,
    capacity: usize,
}

impl TransMemo {
    fn with_capacity(capacity: usize) -> TransMemo {
        TransMemo { map: HashMap::new(), order: VecDeque::new(), capacity }
    }

    fn lookup(&self, base: &Shared<State>, action: &Action) -> Option<Shared<State>> {
        let key = (Shared::as_ptr(base) as usize, action.clone());
        match self.map.get(&key) {
            // The stored key handle keeps its allocation alive, so equal
            // addresses imply the same state; the ptr_eq check is cheap
            // insurance, not a correctness requirement.
            Some((stored, next)) if Shared::ptr_eq(stored, base) => Some(next.clone()),
            _ => None,
        }
    }

    fn insert(&mut self, base: &Shared<State>, action: &Action, next: Shared<State>) {
        if self.capacity == 0 {
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        let key = (Shared::as_ptr(base) as usize, action.clone());
        if self.map.insert(key.clone(), (base.clone(), next)).is_none() {
            self.order.push_back(key);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// One entry of the tier's pointer-keyed attach map: the keyed allocation
/// is state `state` of table `table`.  `pin` keeps it alive, so the pointer
/// key can never be reused while the entry exists (the same argument the
/// transition memo makes).  An allocation without an entry is no table
/// state the tier knows of, and is answered by the tree walk.
#[derive(Clone, Debug)]
struct Attached {
    pin: Shared<State>,
    table: u32,
    state: u32,
}

/// Records `handle`'s allocation as state `state` of table `table`.
fn pin(attach: &mut HashMap<usize, Attached>, handle: &Shared<State>, table: usize, state: usize) {
    let entry = Attached { pin: handle.clone(), table: table as u32, state: state as u32 };
    attach.insert(Shared::as_ptr(handle) as usize, entry);
}

/// The engine's execution tier: lazily filled DFA tiles for the
/// table-resident subtrees of the expression, plus the pointer-keyed attach
/// map that links live state allocations to table state ids.
///
/// All fields are interior-mutable so the tier can be consulted (and can
/// fill a cell) through the `&self` methods of the fused walk; the engine
/// still owns the tier exclusively.  Tables sit behind `Arc` so a checkpoint
/// capture or a cloned engine can hold one: a fill goes through
/// `Arc::make_mut`, so whoever else holds the table keeps the cells it saw.
#[derive(Clone, Debug)]
struct Tier {
    /// State-count budget per table (0 = tiering disabled).
    budget: Cell<usize>,
    /// The install pass ran since the last invalidation — whether or not it
    /// found a subtree to tabulate.
    installed: Cell<bool>,
    /// Invalidation epoch; installed tables are stamped with the epoch they
    /// were installed under, so a stale tile is structurally impossible to
    /// consult (it is dropped *and* its stamp no longer matches).
    epoch: Cell<u64>,
    tables: RefCell<Vec<Arc<CompiledTable>>>,
    attach: RefCell<HashMap<usize, Attached>>,
    hits: Cell<u64>,
    fallbacks: Cell<u64>,
    compiles: Cell<u64>,
    bailouts: Cell<u64>,
    invalidations: Cell<u64>,
}

impl Tier {
    fn new(budget: usize) -> Tier {
        Tier {
            budget: Cell::new(budget),
            installed: Cell::new(false),
            epoch: Cell::new(0),
            tables: RefCell::new(Vec::new()),
            attach: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            fallbacks: Cell::new(0),
            compiles: Cell::new(0),
            bailouts: Cell::new(0),
            invalidations: Cell::new(0),
        }
    }

    fn has_tables(&self) -> bool {
        !self.tables.borrow().is_empty()
    }

    /// The install pass: one table per maximal resident subtree of `expr`,
    /// stamped with the tier's epoch and budget, and the attach map rebuilt
    /// around them.
    ///
    /// A table is the next of `adopted` if that one tabulates this very
    /// subtree (a snapshot's tables on recovery, the tier's own on `reset`
    /// and `close_tier`), else a fresh one holding σ and nothing more.
    /// Every table state is pinned, and so are the sub-states of the live
    /// `state` that run a resident subtree — interned by value, once each,
    /// here and never on the per-transition path — so a tier installed
    /// mid-word picks the walk up where it stands.
    fn install(&self, expr: &Expr, state: &Shared<State>, adopted: Vec<Arc<CompiledTable>>) {
        self.installed.set(true);
        let budget = CompileBudget::with_states(self.budget.get());
        let mut adopted = adopted.into_iter();
        let mut tables: Vec<Arc<CompiledTable>> = Vec::new();
        let mut attach = HashMap::new();
        let (mut compiles, mut bailouts) = (0, 0);
        if budget.max_states > 0 {
            for_each_resident(expr, vec![state], &mut bailouts, &mut |sub, nodes| {
                let Ok(fresh) = CompiledTable::install(sub, budget) else { return false };
                let mut table = match adopted.next() {
                    Some(old) if old.stands_in_for(&fresh) => old,
                    _ => {
                        compiles += 1;
                        Arc::new(fresh)
                    }
                };
                let tile = Arc::make_mut(&mut table);
                tile.epoch = self.epoch.get();
                tile.max_states = budget.max_states;
                for node in nodes.iter().filter(|n| !n.is_null()) {
                    if let Ok(id) = tile.intern((*node).clone()) {
                        pin(&mut attach, node, tables.len(), id as usize);
                    }
                }
                for (id, handle) in tile.states.iter().enumerate() {
                    pin(&mut attach, handle, tables.len(), id);
                }
                tables.push(table);
                true
            });
        }
        *self.tables.borrow_mut() = tables;
        *self.attach.borrow_mut() = attach;
        self.compiles.set(self.compiles.get() + compiles);
        self.bailouts.set(self.bailouts.get() + bailouts);
    }

    /// Drops every table and attach entry and bumps the epoch: after this,
    /// no stale tile can serve a step (the tables are gone, and any clone
    /// held elsewhere carries a stale epoch stamp).
    fn invalidate(&self) {
        self.tables.borrow_mut().clear();
        self.attach.borrow_mut().clear();
        self.installed.set(false);
        self.epoch.set(self.epoch.get() + 1);
        self.invalidations.set(self.invalidations.get() + 1);
    }

    fn stats(&self) -> TierStats {
        let tables = self.tables.borrow();
        TierStats {
            tables: tables.len(),
            states: tables.iter().map(|t| t.state_count()).sum(),
            hits: self.hits.get(),
            fallbacks: self.fallbacks.get(),
            fills: tables.iter().map(|t| t.filled as u64).sum(),
            compiles: self.compiles.get(),
            bailouts: self.bailouts.get(),
            invalidations: self.invalidations.get(),
            epoch: self.epoch.get(),
        }
    }
}

impl TierLookup for Tier {
    fn tier_step(&self, child: &Shared<State>, action: &Action) -> Option<Shared<State>> {
        if !action.is_concrete() {
            // Tables only decide concrete symbols; abstract actions fall
            // back to the tree walk (which rejects them combinator by
            // combinator).
            return None;
        }
        // Known by allocation identity or not at all: nothing is hashed by
        // value on this path (hashing a large state here would tax exactly
        // the expressions that gain nothing from the tier).
        let mut attach = self.attach.borrow_mut();
        let at = attach.get(&(Shared::as_ptr(child) as usize))?;
        debug_assert!(Shared::ptr_eq(&at.pin, child), "a pinned allocation was reused");
        let (table, state) = (at.table as usize, at.state);
        let mut tables = self.tables.borrow_mut();
        let tile = &mut tables[table];
        debug_assert_eq!(tile.epoch, self.epoch.get(), "stale tile consulted");
        let Some(sym) = tile.column(action) else {
            // Off the closed alphabet: `Null` in every state, no cell needed.
            self.hits.set(self.hits.get() + 1);
            return Some(null_state());
        };
        let mut next = tile.transitions[state as usize * tile.symbol_count() + sym];
        if next == UNKNOWN {
            // First visit: the one τ̂ the tree walk would have run, kept.
            let tile = Arc::make_mut(tile);
            let known = tile.state_count();
            match tile.fill(state, sym) {
                Ok(id) => next = id,
                Err(successor) => {
                    // The table is full and the successor is new: it leaves
                    // the table, and the walk goes on from it by the tree.
                    self.fallbacks.set(self.fallbacks.get() + 1);
                    return Some(successor);
                }
            }
            if tile.state_count() > known {
                pin(&mut attach, &tile.states[known], table, known);
            }
        }
        self.hits.set(self.hits.get() + 1);
        Some(if next == DEAD { null_state() } else { tile.states[next as usize].clone() })
    }
}

/// An incremental evaluator of one interaction expression: the component
/// that answers "is this action currently permitted?" and tracks the state
/// across committed executions.
#[derive(Clone, Debug)]
pub struct Engine {
    expr: Expr,
    state: Shared<State>,
    memo: RefCell<TransMemo>,
    tier: Tier,
    accepted: u64,
    rejected: u64,
}

impl Engine {
    /// Creates an engine at the initial state σ of `expr`.
    pub fn new(expr: &Expr) -> StateResult<Engine> {
        Ok(Engine {
            expr: expr.clone(),
            state: Shared::new(init(expr)?),
            memo: RefCell::new(TransMemo::with_capacity(DEFAULT_MEMO_CAPACITY)),
            tier: Tier::new(DEFAULT_TIER_BUDGET),
            accepted: 0,
            rejected: 0,
        })
    }

    /// Reconstructs an engine from checkpointed pieces: the expression, a
    /// decoded state, and the accept/reject counters.  The expression is
    /// re-validated (σ must exist) exactly as in [`Engine::new`]; the decoded
    /// state then replaces σ.  The memo starts cold and the tier is not
    /// installed yet — recovery hands it the checkpointed tables via
    /// [`Engine::adopt_tier`]; without them the first transition installs
    /// fresh ones around the decoded state.
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

    /// The current state as a shared handle (cheap to clone, stable
    /// identity for memo keys).
    pub fn state_handle(&self) -> &Shared<State> {
        &self.state
    }

    /// The transition memo's capacity (0 = disabled).
    pub fn memo_capacity(&self) -> usize {
        self.memo.borrow().capacity
    }

    /// Resizes (and clears) the transition memo; 0 disables memoization —
    /// used by the memo-on/memo-off equivalence property tests.
    pub fn set_memo_capacity(&mut self, capacity: usize) {
        let mut memo = self.memo.borrow_mut();
        memo.clear();
        memo.capacity = capacity;
    }

    /// The tiered, memoized transition τ̂ from an explicit base state.
    /// Order: the table tier (exact cell by cell, filling the cell on its
    /// first visit), then the memo (exact: the key is the base state's
    /// allocation identity plus the concrete action, and entries pin their
    /// key state alive), then the tree walk — which itself consults the
    /// tier at every shared child, so table-resident subtrees under a CoW
    /// spine still answer in O(1).  Every path keeps the fused τ̂'s
    /// invariant "invalid ⇔ null", so ψ of a successor is a null check.
    fn transition(&self, base: &Shared<State>, action: &Action) -> Shared<State> {
        let tier_on = self.tier_ready();
        if tier_on {
            if let Some(next) = self.tier.tier_step(base, action) {
                return next;
            }
        }
        {
            let memo = self.memo.borrow();
            if let Some(hit) = memo.lookup(base, action) {
                return hit;
            }
        }
        let next = if tier_on {
            self.tier.fallbacks.set(self.tier.fallbacks.get() + 1);
            fused(base, action, &self.tier)
        } else {
            trans(base, action)
        };
        let next = match next {
            State::Null => null_state(),
            other => Shared::new(other),
        };
        self.memo.borrow_mut().insert(base, action, next.clone());
        next
    }

    /// Installs the tier on first use (idempotent until the next
    /// invalidation) and says whether there is a table to consult.  Which
    /// subtrees are resident is read off the expression's shape, so this
    /// costs O(|expression|) and computes no transition; a memo filled
    /// before the tables existed is cleared so the tier takes over from its
    /// pointer-keyed entries.
    fn tier_ready(&self) -> bool {
        if !self.tier.installed.get() {
            self.tier.install(&self.expr, &self.state, Vec::new());
            if self.tier.has_tables() {
                self.memo.borrow_mut().clear();
            }
        }
        self.tier.has_tables()
    }

    /// Metrics of the current state (size, alternatives).
    pub fn metrics(&self) -> StateMetrics {
        StateMetrics::of(&self.state)
    }

    /// True if the action sequence committed so far is a partial word.
    /// (Always true unless the engine was constructed from an unsatisfiable
    /// state or fed through [`Engine::force_execute`].)
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

    /// Filters the permitted actions out of a candidate list (used to keep
    /// worklists up to date).
    pub fn permitted<'a>(&self, candidates: &'a [Action]) -> Vec<&'a Action> {
        candidates.iter().filter(|a| self.is_permitted(a)).collect()
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
    /// performed, and every transition of the walk goes through the memo, so
    /// repeated probes of a stable reservation table replay from cache.
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
    /// An `ask` probe and its later `confirm` compute the same transition;
    /// the memo makes the second one a lookup.
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

    /// Commits the action unconditionally, even if it invalidates the state.
    /// Used by failure-injection tests to model clients that bypass the
    /// coordination protocol.
    pub fn force_execute(&mut self, action: &Action) {
        self.state = self.transition(&self.state, action);
        self.accepted += 1;
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
        self.state = Shared::new(init(&self.expr).expect("expression validated at construction"));
        self.memo.borrow_mut().clear();
        if self.tier.has_tables() {
            // Installed tables stay valid (the expression is unchanged);
            // re-attach them, cells and all, to the fresh σ allocations.
            let tables = self.tier.tables.take();
            self.tier.install(&self.expr, &self.state, tables);
        }
        self.accepted = 0;
        self.rejected = 0;
    }

    // -- the execution tier ------------------------------------------------

    /// The tier's per-table state-count budget (0 = tiering disabled).
    pub fn tier_budget(&self) -> usize {
        self.tier.budget.get()
    }

    /// Sets the tier budget, dropping any installed tables; 0 disables
    /// tiering entirely — the lockstep equivalence property tests drive a
    /// tiered and a `tier_budget = 0` engine against each other.
    pub fn set_tier_budget(&mut self, budget: usize) {
        if self.tier.installed.get() {
            self.tier.invalidate();
        }
        self.tier.budget.set(budget);
    }

    /// Makes sure the tier is installed — one table per maximal resident
    /// subtree, σ interned, cells filling as steps visit them — and returns
    /// its stats.  Every transition does the same on first use; this only
    /// does it now.  Idempotent until the next invalidation.
    pub fn compile_tier(&mut self) -> TierStats {
        self.tier_ready();
        self.tier.stats()
    }

    /// Installs the tier and fills every cell of every table breadth-first
    /// — the closed tables [`crate::compile()`] returns, for callers that want
    /// the whole reachable graph up front (exhaustive checks, benches that
    /// time pure lookups).  Cells a full table cannot intern a successor
    /// for stay unknown and keep being answered by the tree walk.
    pub fn close_tier(&mut self) -> TierStats {
        if self.tier_ready() {
            let mut tables = self.tier.tables.take();
            tables.iter_mut().for_each(|table| Arc::make_mut(table).close());
            self.tier.install(&self.expr, &self.state, tables);
        }
        self.tier.stats()
    }

    /// Drops all tables and bumps the tier epoch; the next use installs
    /// fresh ones.  Topology migrations (`add_constraint`/`couple`) call
    /// this on every affected shard engine, so a tile filled before the
    /// migration can never serve a post-migration step.
    pub fn invalidate_tier(&mut self) {
        self.tier.invalidate();
    }

    /// The tier's counter surface (mirrors the memo stats).
    pub fn tier_stats(&self) -> TierStats {
        self.tier.stats()
    }

    /// The currently installed tables (empty before first use), holding the
    /// cells filled so far.  Checkpoints persist these via
    /// [`CompiledTable::to_parts`] so recovery can re-attach them.
    pub fn tier_tables(&self) -> Vec<Arc<CompiledTable>> {
        self.tier.tables.borrow().clone()
    }

    /// Installs the tier from checkpointed tables: each part that
    /// tabulates the resident subtree at its position (same σ, same symbol
    /// axis, well-formed arrays) is reassembled, stamped with the tier's
    /// current epoch and budget, re-attached to the live state, and goes on
    /// filling where it stood; any other is replaced by a fresh table.
    /// Adopted tables leave the `compiles` counter untouched — recovery
    /// re-attaching tiles is observably not a compile.
    pub fn adopt_tier(&mut self, parts: Vec<TableParts>) {
        if parts.is_empty() {
            return;
        }
        let tables = parts.into_iter().map(|p| Arc::new(CompiledTable::from_parts(p))).collect();
        self.tier.install(&self.expr, &self.state, tables);
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

    #[test]
    fn memo_off_engine_behaves_identically() {
        let e = parse("mult 2 { (some p { call(p) - perform(p) })* }").unwrap();
        let mut on = Engine::new(&e).unwrap();
        let mut off = Engine::new(&e).unwrap();
        off.set_memo_capacity(0);
        assert_eq!(off.memo_capacity(), 0);
        let call = |p: i64| Action::concrete("call", [Value::int(p)]);
        let perform = |p: i64| Action::concrete("perform", [Value::int(p)]);
        for action in
            [call(1), call(2), call(3), perform(1), call(3), perform(2), perform(3), call(9)]
        {
            assert_eq!(on.is_permitted(&action), off.is_permitted(&action));
            assert_eq!(on.try_execute(&action), off.try_execute(&action), "on {action}");
        }
        assert_eq!(on.state(), off.state());
        assert_eq!(on.accepted(), off.accepted());
        assert_eq!(on.rejected(), off.rejected());
    }

    #[test]
    fn memo_capacity_is_bounded() {
        let e = parse("(a + b + c)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.set_memo_capacity(2);
        for _ in 0..8 {
            for n in ["a", "b", "c", "zzz"] {
                let _ = eng.is_permitted(&a(n));
            }
            assert!(eng.memo.borrow().map.len() <= 2, "memo exceeded its bound");
            assert!(eng.try_execute(&a("a")));
        }
    }

    #[test]
    fn permitted_filters_candidates() {
        let e = parse("(call(1, sono) - perform(1, sono)) @ (call(1, endo) - perform(1, endo))")
            .unwrap();
        let eng = Engine::new(&e).unwrap();
        let candidates = vec![
            Action::concrete("call", [Value::int(1), Value::sym("sono")]),
            Action::concrete("perform", [Value::int(1), Value::sym("sono")]),
            Action::concrete("call", [Value::int(1), Value::sym("endo")]),
        ];
        let permitted = eng.permitted(&candidates);
        assert_eq!(permitted.len(), 2, "both calls allowed, perform not yet");
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
    fn force_execute_can_invalidate_the_state() {
        let e = parse("a").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.force_execute(&a("z"));
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
        eng.set_memo_capacity(0); // force every step through the tier path
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
        eng.set_memo_capacity(0);
        for _ in 0..100 {
            assert!(eng.try_execute(&a("r0")));
            assert!(eng.try_execute(&a("r1")));
        }
        let stats = eng.compile_tier();
        assert_eq!((stats.tables, stats.hits, stats.compiles, stats.bailouts), (0, 0, 0, 0));
    }

    #[test]
    fn tiered_engine_agrees_with_plain_engine_on_a_mixed_expression() {
        // A table-resident mutex ⊗ a quantified (never tabulated) spine: the
        // tier serves the mutex tile while the quantifier falls back.
        let e = parse("((r0 - r1) + (w0 - w1))* @ (some p { r0 - go(p) })*").unwrap();
        let mut tiered = Engine::new(&e).unwrap();
        let mut plain = Engine::new(&e).unwrap();
        tiered.set_memo_capacity(0);
        plain.set_memo_capacity(0);
        plain.set_tier_budget(0);
        let stats = tiered.compile_tier();
        assert_eq!((stats.tables, stats.states, stats.fills), (1, 1, 0), "{stats:?}");
        assert!(stats.bailouts >= 1, "the quantified spine is not eligible: {stats:?}");
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
        assert!(tiered.tier_stats().hits > 0, "the mutex tile must have served steps");
        assert_eq!(tiered.accepted(), plain.accepted());
        assert_eq!(tiered.rejected(), plain.rejected());
    }

    #[test]
    fn tier_prepare_commit_goes_through_the_table() {
        let e = parse("(a - b)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.set_memo_capacity(0);
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
            let mine = eng.tier_tables();
            assert_eq!(mine[0].transitions, table.transitions, "{src}: same ids, same cells");
            assert_eq!(mine[0].states, table.states);
            // Closing again computes nothing, and a closed table never
            // falls back.
            assert_eq!(eng.close_tier(), closed);
            eng.set_memo_capacity(0);
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
        // table.  (The root is the one resident subtree: eligibility is
        // structural, so a small budget no longer tiles the operands.)
        let e = mutex_product();
        let mut starved = Engine::new(&e).unwrap();
        let mut plain = Engine::new(&e).unwrap();
        starved.set_memo_capacity(0);
        plain.set_memo_capacity(0);
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
        eng.set_memo_capacity(0);
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
        eng.set_memo_capacity(0);
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
        tiered.set_memo_capacity(0);
        plain.set_memo_capacity(0);
        plain.set_tier_budget(0);
        let script = ["s0", "s1", "s2", "s3", "s0", "s1"];
        for (k, step) in script.iter().enumerate() {
            if k == 2 {
                tiered.invalidate_tier();
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
    fn invalidation_drops_tables_and_allows_recompilation() {
        let e = parse("(a - b)*").unwrap();
        let mut eng = Engine::new(&e).unwrap();
        eng.set_memo_capacity(0);
        assert!(eng.compile_tier().tables >= 1);
        assert!(eng.try_execute(&a("a")));
        assert!(eng.tier_stats().hits > 0);
        let epoch_before = eng.tier_stats().epoch;
        eng.invalidate_tier();
        let stats = eng.tier_stats();
        assert_eq!((stats.tables, stats.fills), (0, 0), "invalidation must drop every tile");
        assert_eq!(stats.invalidations, 1);
        assert!(stats.epoch > epoch_before);
        let hits = stats.hits;
        assert!(eng.try_execute(&a("b")), "the next step installs fresh tables and is served");
        assert_eq!(eng.tier_stats().hits, hits + 1);
        assert!(eng.try_execute(&a("a")));
    }

    #[test]
    fn a_cloned_engine_fills_its_own_copy_of_a_shared_table() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let mut left = Engine::new(&e).unwrap();
        left.set_memo_capacity(0);
        assert!(left.try_execute(&a("s0")));
        let mut right = left.clone();
        let shared = left.tier_tables();
        assert!(Arc::ptr_eq(&shared[0], &right.tier_tables()[0]), "a clone shares the table");
        let seen = shared[0].transitions.clone();
        // Left walks on, right probes denials: each fills cells the other
        // never sees, and what either saw before stays what it was.
        for name in ["s1", "s2", "s3", "s0"] {
            assert!(left.try_execute(&a(name)));
        }
        for name in ["s0", "s2", "s3"] {
            assert!(!right.is_permitted(&a(name)));
        }
        assert!(right.try_execute(&a("s1")));
        assert_eq!(shared[0].transitions, seen, "a held table is not written through");
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
