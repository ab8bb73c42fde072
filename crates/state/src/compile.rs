//! Tiered execution: flat DFA tables over stable subexpressions, filled as
//! traffic visits them.
//!
//! The copy-on-write τ̂ rebuilds a tree spine on every step, but most real
//! constraints (mutexes, capacity counters, sequencing templates —
//! everything `ix_baselines` models as regex/matrix scenarios) have small
//! state spaces.  A [`CompiledTable`] tabulates the τ̂-graph of one such
//! subexpression: interned state handles, a dense `state × symbol → state`
//! array over the subexpression's (finite) symbol candidates, and per-state
//! ϕ/permitted bitsets.
//!
//! The table is a **lazy DFA**, the paper's on-demand τ̂ (Sec. 6, Fig. 9)
//! with a cache in front.  Installing one costs O(|subexpression|) — the
//! structural eligibility test, the sorted atom axis and σ, interned as
//! state 0 — and every cell starts *unknown*.  The first step through a
//! cell computes the one fused τ̂ the tree walk would have computed anyway,
//! interns the successor by value and records its id; from the second visit
//! on, the step is an array lookup.  [`compile()`] and `Engine::close_tier`
//! are the same path run to the end: install, then fill every cell
//! breadth-first.
//!
//! Eligibility is structural ([`CompileBailout`]): no quantifier, no `#`,
//! no hole, concrete atoms only.  The *maximal* eligible subtrees of an
//! expression get a table each and the spine around them keeps running on
//! the CoW walk.  The state budget caps interned states per table; a
//! **full table** keeps answering every cell it knows, still records cells
//! whose successor is dead or already interned, and hands any other
//! successor back un-interned — from there the walk leaves the table and
//! the tree walk answers, exactly.  A state that left is not hashed back
//! in on the per-transition path (nothing is hashed there); only install,
//! adoption and `reset` look at the live state again.
//!
//! # Why a cell is exact
//!
//! The argument is per cell, not per table.  A cell holds τ̂(s, a) for an
//! interned state `s` — a value the fused τ̂ itself produced — and a symbol
//! `a` of the axis, computed by that same τ̂; nothing about the rest of the
//! table enters.  Off the axis, the subexpression is **closed over a
//! concrete alphabet**: every atom is a concrete action, so for any
//! concrete action outside the atom set τ̂ is `Null` in *every* state
//! (atoms compare by equality, ⊗-coverage is decided by the same concrete
//! alphabets, and all combinators propagate `Null`); the table answers
//! `Null` there without a cell.  Abstract (parameterized) actions are
//! *not* decided by the table — the engine rejects them before the
//! transition, and the tier falls back to the tree walk for them
//! defensively.
//!
//! Interned states are canonical `Shared` handles whose *values* are
//! exactly what the fused τ̂ computes, so a table-resident subtree stepped
//! via array lookup composes transparently with the CoW spine around it:
//! sorting, deduplication, and state-value equality are unaffected.  ψ
//! needs no bitset: on the optimized path every interned (non-`Null`)
//! state is valid by the "invalid ⇔ `Null`" invariant; the per-state
//! bitsets cover ϕ and the cells known to be live.

use crate::init::init;
use crate::predicates::is_final;
use crate::state::{Shared, State};
use crate::trans::trans;
use ix_core::{Action, Alphabet, Expr, ExprKind};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::iter::once;

/// Default state-count budget of an engine's tier (0 disables tiering).
pub const DEFAULT_TIER_BUDGET: usize = 512;

/// The dead-state sentinel in a table's transition array: the successor is
/// `Null` (the action is not permitted in that state).
pub const DEAD: u32 = u32::MAX;

/// The cell has not been computed yet.  Snapshots store it as the raw `u32`
/// it is, so a half-filled table round-trips without a format of its own.
pub(crate) const UNKNOWN: u32 = u32::MAX - 1;

/// Why a subexpression gets no table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileBailout {
    /// The budget is zero — tiering is switched off.
    Disabled,
    /// The subexpression mentions parameters, holes, or abstract atoms, so
    /// its symbol candidates are not a finite concrete set.
    AbstractAlphabet,
    /// The subexpression contains a quantifier (branches materialize per
    /// value at run time — there is no one symbol axis to tabulate over).
    Quantifier,
    /// The subexpression contains a parallel iteration (`#`), whose
    /// instance count is unbounded.
    Unbounded,
    /// There is nothing to tabulate: σ rejected the subexpression, or it
    /// has no atom at all (or more than the dense columns can number).
    Invalid,
}

impl CompileBailout {
    /// Short human-readable label (used in stats and bench rows).
    pub fn label(self) -> &'static str {
        match self {
            CompileBailout::Disabled => "disabled",
            CompileBailout::AbstractAlphabet => "abstract-alphabet",
            CompileBailout::Quantifier => "quantifier",
            CompileBailout::Unbounded => "unbounded",
            CompileBailout::Invalid => "invalid",
        }
    }
}

/// The table budget: a hard cap on interned states per table, so a table's
/// memory is bounded even when the reachable graph is exponentially large.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileBudget {
    /// Maximum number of interned (live) states per table.
    pub max_states: usize,
}

impl CompileBudget {
    /// A budget of `max_states` states.
    pub fn with_states(max_states: usize) -> CompileBudget {
        CompileBudget { max_states }
    }
}

/// A flat DFA tile: the τ̂-graph of one finite subexpression as far as it
/// has been visited, in a dense transition array.
///
/// States are canonical [`Shared`] handles (value-identical to what the
/// fused τ̂ computes), symbols are the subexpression's alphabet (its
/// concrete atoms, sorted), and the transition array stores
/// `state × symbol → state` ids with [`DEAD`] marking `Null` successors.
/// A table from [`compile`] is *closed* (every cell filled, budget
/// permitting); one taken from a running engine holds the cells its traffic
/// has visited.
#[derive(Clone, Debug)]
pub struct CompiledTable {
    /// The subexpression's alphabet — its sorted, deduplicated concrete
    /// atoms — is the symbol axis; a column is a binary search into it.
    pub(crate) symbols: Alphabet,
    /// Interned canonical state handles; index = state id, id 0 = σ.
    pub(crate) states: Vec<Shared<State>>,
    /// Value → state id.
    // The interior-mutable coverage cache of `ScopedAlphabet` is excluded
    // from `Eq`/`Ord`/`Hash`, so state values are well-behaved map keys.
    #[allow(clippy::mutable_key_type)]
    index: HashMap<Shared<State>, u32>,
    /// Dense `states.len() × symbols.len()` successor array.
    pub(crate) transitions: Vec<u32>,
    /// ϕ bitset over state ids.
    finals: Vec<u64>,
    /// Per-state bitsets of the cells filled *and* live, `words_per_state`
    /// words each.
    permitted: Vec<u64>,
    words_per_state: usize,
    /// Tier epoch the table was installed under (stale tiles are dropped on
    /// invalidation; the stamp lets the tier assert freshness structurally).
    pub(crate) epoch: u64,
    /// Cap on interned states; growth stops here, answers do not.
    pub(crate) max_states: usize,
    /// Cells computed so far.
    pub(crate) filled: usize,
}

impl CompiledTable {
    /// A table over `expr` with σ interned and every cell unknown, or the
    /// reason `expr` cannot have one.
    pub(crate) fn install(
        expr: &Expr,
        budget: CompileBudget,
    ) -> Result<CompiledTable, CompileBailout> {
        if budget.max_states == 0 {
            return Err(CompileBailout::Disabled);
        }
        if let Some(bail) = structural_bailout(expr) {
            return Err(bail);
        }
        let symbols = expr.alphabet();
        if symbols.is_empty() || symbols.len() > u16::MAX as usize {
            return Err(CompileBailout::Invalid);
        }
        let start = match init(expr) {
            Ok(s) if !s.is_null() => Shared::new(s),
            _ => return Err(CompileBailout::Invalid),
        };
        let mut table =
            CompiledTable::over(symbols, Vec::new(), Vec::new(), Vec::new(), Vec::new());
        table.max_states = budget.max_states;
        table.intern(start).expect("a positive budget holds σ");
        Ok(table)
    }

    /// The initial state's id (always 0).
    pub fn start(&self) -> u32 {
        0
    }

    /// Number of interned live states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of symbols (concrete atoms) on the transition axis.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// The symbol axis, sorted.
    pub fn symbols(&self) -> &[Action] {
        self.symbols.as_slice()
    }

    /// The canonical state value behind a state id.
    pub fn state(&self, id: u32) -> &State {
        &self.states[id as usize]
    }

    /// The column of a concrete action, `None` off the axis — where the
    /// answer is `Null` in every state (the closed-alphabet argument in the
    /// module docs).
    pub(crate) fn column(&self, action: &Action) -> Option<usize> {
        self.symbols.as_slice().binary_search(action).ok()
    }

    /// One table step: the successor id, or [`DEAD`] if the action is not
    /// permitted (including concrete actions outside the symbol axis).
    /// Callers must not pass abstract actions; the tier falls back to the
    /// tree walk for those before consulting the table.
    ///
    /// # Panics
    ///
    /// On a cell that has not been filled.  Tables from [`compile`] have
    /// none within their budget; a table taken from a running engine is
    /// filled by that engine's own steps.
    pub fn step(&self, state: u32, action: &Action) -> u32 {
        let Some(sym) = self.column(action) else { return DEAD };
        let next = self.transitions[state as usize * self.symbols.len() + sym];
        assert_ne!(next, UNKNOWN, "cell ({state}, {action}) of a partial table was never filled");
        next
    }

    /// Value-interns a state: its id if it is known, a new id while the
    /// budget allows one, the handle back when the table is full.
    pub(crate) fn intern(&mut self, handle: Shared<State>) -> Result<u32, Shared<State>> {
        let id = self.states.len();
        match self.index.entry(handle) {
            Entry::Occupied(known) => Ok(*known.get()),
            Entry::Vacant(slot) if id >= self.max_states.min(UNKNOWN as usize) => {
                Err(slot.into_key())
            }
            Entry::Vacant(slot) => {
                let handle = slot.key().clone();
                slot.insert(id as u32);
                if id.is_multiple_of(64) {
                    self.finals.push(0);
                }
                if is_final(&handle) {
                    self.finals[id / 64] |= 1 << (id % 64);
                }
                self.states.push(handle);
                self.transitions.resize(self.transitions.len() + self.symbols.len(), UNKNOWN);
                self.permitted.resize(self.permitted.len() + self.words_per_state, 0);
                Ok(id as u32)
            }
        }
    }

    /// Computes one unknown cell with the fused τ̂ and records it: the
    /// successor's id (interned now if it is new), or [`DEAD`].  A full
    /// table still records a dead or already-interned successor; any other
    /// comes back as `Err`, un-interned, and the cell stays unknown.
    pub(crate) fn fill(&mut self, state: u32, sym: usize) -> Result<u32, Shared<State>> {
        let next = trans(&self.states[state as usize], &self.symbols()[sym]);
        let id = if next.is_null() { DEAD } else { self.intern(Shared::new(next))? };
        self.transitions[state as usize * self.symbols.len() + sym] = id;
        self.filled += 1;
        if id != DEAD {
            self.permitted[state as usize * self.words_per_state + sym / 64] |= 1 << (sym % 64);
        }
        Ok(id)
    }

    /// Fills every unknown cell, breadth-first over the state ids — rows in
    /// the order they were interned, columns in axis order, which from a
    /// fresh table numbers the states as a breadth-first exploration from σ
    /// does.  Cells whose successor a full table cannot intern stay unknown.
    pub(crate) fn close(&mut self) {
        let mut row = 0;
        while row < self.states.len() {
            for sym in 0..self.symbols.len() {
                if self.transitions[row * self.symbols.len() + sym] == UNKNOWN {
                    let _ = self.fill(row as u32, sym);
                }
            }
            row += 1;
        }
    }

    /// ϕ of a state id.
    pub fn is_final_state(&self, id: u32) -> bool {
        self.finals[id as usize / 64] & (1 << (id as usize % 64)) != 0
    }

    /// Whether `action` is known to be permitted in state `id` (the
    /// per-state bitset of cells filled and live — on a closed table
    /// equivalent to `step(id, action) != DEAD`).
    pub fn is_permitted(&self, id: u32, action: &Action) -> bool {
        self.column(action).is_some_and(|sym| {
            self.permitted[id as usize * self.words_per_state + sym / 64] & (1 << (sym % 64)) != 0
        })
    }

    /// Fingerprint of the source sub-state σ and the symbol axis — a cheap
    /// identity to report beside a table.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.states[0].hash(&mut hasher);
        self.symbols.hash(&mut hasher);
        hasher.finish()
    }

    /// Tier epoch the table was installed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runs a word from σ through the table alone.  Returns `None` as soon
    /// as the walk dies, otherwise the final state id.  (The baseline
    /// scenario bridge and the tests use this, on closed tables; the engine
    /// tier steps incrementally instead.)
    pub fn run(&self, word: &[Action]) -> Option<u32> {
        let mut id = self.start();
        for action in word {
            id = self.step(id, action);
            if id == DEAD {
                return None;
            }
        }
        Some(id)
    }

    /// Decomposes the table into its serializable parts, unknown cells
    /// included.  The derived value→id `index`, the budget and the epoch
    /// stamp are dropped — [`CompiledTable::from_parts`] rebuilds the index.
    pub fn to_parts(&self) -> TableParts {
        TableParts {
            symbols: self.symbols().to_vec(),
            states: self.states.clone(),
            transitions: self.transitions.clone(),
            finals: self.finals.clone(),
            permitted: self.permitted.clone(),
            fingerprint: self.fingerprint(),
        }
    }

    /// Reassembles a table from parts (the inverse of
    /// [`CompiledTable::to_parts`]): rebuilds the axis and the state index
    /// and counts the filled cells.  The table comes back at epoch 0 and
    /// capped at the states it has — the adopting tier stamps its own epoch
    /// and budget on install, and goes on filling from there.
    pub fn from_parts(parts: TableParts) -> CompiledTable {
        let axis = Alphabet::from_actions(parts.symbols.iter().cloned());
        // `to_parts` writes the axis sorted.  One that is not would permute
        // the columns, so it is dropped and the table stands in for nothing.
        let axis = if axis.as_slice() == parts.symbols { axis } else { Alphabet::new() };
        CompiledTable::over(axis, parts.states, parts.transitions, parts.finals, parts.permitted)
    }

    /// A table over the axis `symbols` holding `states` and their arrays.
    fn over(
        symbols: Alphabet,
        states: Vec<Shared<State>>,
        transitions: Vec<u32>,
        finals: Vec<u64>,
        permitted: Vec<u64>,
    ) -> CompiledTable {
        #[allow(clippy::mutable_key_type)]
        let index: HashMap<Shared<State>, u32> =
            states.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect();
        CompiledTable {
            words_per_state: symbols.len().div_ceil(64),
            symbols,
            max_states: states.len(),
            states,
            index,
            filled: transitions.iter().filter(|&&cell| cell != UNKNOWN).count(),
            transitions,
            finals,
            permitted,
            epoch: 0,
        }
    }

    /// Whether this table tabulates `fresh`'s subexpression (same σ, same
    /// axis) and its arrays have the shape the accessors index by — what an
    /// engine checks of a table that came out of a snapshot before it
    /// adopts it in place of `fresh`.
    pub(crate) fn stands_in_for(&self, fresh: &CompiledTable) -> bool {
        let states = self.states.len();
        self.symbols == fresh.symbols
            && self.states.first() == fresh.states.first()
            && self.index.len() == states
            && self.transitions.len() == states * self.symbols.len()
            && self.finals.len() == states.div_ceil(64)
            && self.permitted.len() == states * self.words_per_state
            && self.transitions.iter().all(|&c| c >= UNKNOWN || (c as usize) < states)
    }
}

/// The serializable decomposition of a [`CompiledTable`]: everything a
/// checkpoint must persist so recovery can re-attach the tile, filled cells
/// and all, instead of starting it over.  Derived lookup maps are rebuilt on
/// [`CompiledTable::from_parts`].
#[derive(Clone, Debug)]
pub struct TableParts {
    /// Sorted, deduplicated concrete atoms — the symbol axis.
    pub symbols: Vec<Action>,
    /// Interned canonical state handles; index = state id, id 0 = σ.
    pub states: Vec<Shared<State>>,
    /// Dense `states.len() × symbols.len()` successor array; a cell not yet
    /// computed holds `u32::MAX - 1`.
    pub transitions: Vec<u32>,
    /// ϕ bitset over state ids.
    pub finals: Vec<u64>,
    /// Per-state bitsets of the cells filled and live.
    pub permitted: Vec<u64>,
    /// Hash of the source sub-state σ and the symbol axis (informational;
    /// adoption compares σ and the axis themselves).
    pub fingerprint: u64,
}

/// Structural reasons a subexpression can never be table-resident.
fn structural_bailout(expr: &Expr) -> Option<CompileBailout> {
    let mut verdict = None;
    expr.visit(&mut |e: &Expr| {
        let found = match e.kind() {
            ExprKind::SomeQ(..) | ExprKind::AllQ(..) | ExprKind::SyncQ(..) | ExprKind::ParQ(..) => {
                Some(CompileBailout::Quantifier)
            }
            ExprKind::ParIter(_) => Some(CompileBailout::Unbounded),
            ExprKind::Hole(_) => Some(CompileBailout::AbstractAlphabet),
            ExprKind::Atom(a) if !a.is_concrete() => Some(CompileBailout::AbstractAlphabet),
            _ => None,
        };
        if verdict.is_none() {
            verdict = found;
        }
    });
    verdict
}

/// Compiles one subexpression to a closed table, or reports why it cannot
/// have one: installs the lazy table and fills every cell breadth-first
/// with the production fused transition, interning successor states by
/// *value* so the emitted ids are canonical.  Past `budget` states the
/// table stops growing and the cells that would need a new state stay
/// unfilled.
pub fn compile(expr: &Expr, budget: CompileBudget) -> Result<CompiledTable, CompileBailout> {
    let mut table = CompiledTable::install(expr, budget)?;
    table.close();
    Ok(table)
}

/// The structural search for the maximal table-eligible subtrees of `expr`,
/// outermost first: `found` is called on each with the live sub-states
/// that run it and says whether it took the subtree; where it did not (or
/// the subtree is not eligible), the search counts a bailout and descends.
///
/// `nodes` are the states at `expr`'s position in a live state tree (none,
/// for a search without one).  τ̂ keeps a state's shape — every variant
/// steps to itself or to `Null` — so walking the two trees side by side
/// hands `found` exactly the reachable states of the subexpression, σ spawn
/// templates included, without hashing anything on the way down.
pub(crate) fn for_each_resident<'s, F>(
    expr: &Expr,
    mut nodes: Vec<&'s Shared<State>>,
    bailouts: &mut u64,
    found: &mut F,
) where
    F: FnMut(&Expr, &[&'s Shared<State>]) -> bool,
{
    if expr.size() < 3 {
        // An atom or ε: the tree walk is already O(1); a tile would only
        // pollute the attach map.
        return;
    }
    // A shared allocation (a σ template among the runs it spawned) once.
    nodes.sort_unstable_by_key(|n| Shared::as_ptr(n));
    nodes.dedup_by_key(|n| Shared::as_ptr(n));
    if structural_bailout(expr).is_none() && found(expr, &nodes) {
        return;
    }
    *bailouts += 1;
    for (i, child) in expr.iter_children().enumerate() {
        let runs = nodes.iter().flat_map(|n| operand_runs(n, i)).collect();
        for_each_resident(child, runs, bailouts, found);
    }
}

/// The sub-states of `state` that run operand `i` of its expression,
/// including the precomputed σ templates (`right_init`/`body_init`) and
/// quantifier templates, so spawn sites attach to tables too.
fn operand_runs(state: &State, i: usize) -> Vec<&Shared<State>> {
    match state {
        State::Null | State::Epsilon | State::AtomDone | State::AtomFresh { .. } => Vec::new(),
        State::Option { body, .. } => vec![body],
        State::Seq { left, .. } if i == 0 => vec![left],
        State::Seq { rights, right_init, .. } => rights.iter().chain(once(right_init)).collect(),
        State::SeqIter { runs, body_init, .. } => runs.iter().chain(once(body_init)).collect(),
        State::Par { alts } => alts.iter().map(|(l, r)| if i == 0 { l } else { r }).collect(),
        State::ParIter { alts, body_init } | State::Mult { alts, body_init, .. } => {
            alts.iter().flatten().chain(once(body_init)).collect()
        }
        State::Or { left, right }
        | State::And { left, right }
        | State::Sync { left, right, .. } => {
            vec![if i == 0 { left } else { right }]
        }
        State::SomeQ(q) | State::AllQ(q) | State::SyncQ(q) => {
            q.branches.values().chain(once(&q.template)).collect()
        }
        State::ParQ { alts, body_init, .. } => {
            alts.iter().flat_map(|b| b.values()).chain(once(body_init)).collect()
        }
    }
}

/// Counter surface of an engine's tier, mirroring the memo stats: table
/// inventory, hit/fill/fallback counts, and the invalidation epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Number of installed tables (the maximal resident subtrees).
    pub tables: usize,
    /// Total states interned so far across installed tables.
    pub states: usize,
    /// Transitions answered by a table (root or sub-state), the ones that
    /// filled their cell on the way included.
    pub hits: u64,
    /// Transitions computed by the tree walk while tables were installed.
    pub fallbacks: u64,
    /// Cells computed so far across installed tables — each by one τ̂, once.
    /// A property of the tables, so it survives a checkpoint with them.
    pub fills: u64,
    /// Tables this engine installed itself over its lifetime (adopting one
    /// from a snapshot is not a compile).
    pub compiles: u64,
    /// Subtrees that bailed out during install passes.
    pub bailouts: u64,
    /// Times the tier was invalidated (topology migrations, budget changes).
    pub invalidations: u64,
    /// Current tier epoch (bumped on every invalidation; installed tables
    /// are stamped with the epoch they were installed under).
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::word_problem;
    use crate::engine::WordStatus;
    use ix_core::parse;

    fn budget(n: usize) -> CompileBudget {
        CompileBudget::with_states(n)
    }

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    #[test]
    fn mutex_compiles_to_a_three_state_table() {
        let e = parse("((r0 - r1) + (w0 - w1))*").unwrap();
        let t = compile(&e, budget(64)).unwrap();
        // Value interning is not semantic minimization: the post-release
        // "idle" states are structurally distinct from σ (the iteration has
        // been unrolled once), so the 3-state mutex automaton surfaces as 5
        // interned states — σ, reading, writing, and one restarted idle per
        // branch.  The rows of the restarted idles duplicate σ's.
        assert_eq!(t.state_count(), 5);
        assert_eq!(t.symbol_count(), 4);
        assert!(t.is_final_state(t.start()));
        let reading = t.step(t.start(), &a("r0"));
        assert_ne!(reading, DEAD);
        assert!(!t.is_final_state(reading));
        assert_eq!(t.step(reading, &a("w0")), DEAD, "mutex holds");
        let idle = t.step(reading, &a("r1"));
        assert_ne!(idle, DEAD);
        assert!(t.is_final_state(idle), "release returns to an idle state");
        assert_eq!(t.step(idle, &a("r0")), reading, "the cycle closes");
        assert!(t.is_permitted(t.start(), &a("r0")));
        assert!(!t.is_permitted(reading, &a("w0")));
        assert!(!t.is_permitted(reading, &a("zzz")), "unknown symbols are dead");
    }

    /// [`CompiledTable::run`] for a table that is filled by the walk itself:
    /// an unknown cell is computed on the way through it.
    fn run_filling(t: &mut CompiledTable, word: &[Action]) -> Option<u32> {
        let mut id = t.start();
        for action in word {
            let sym = t.column(action)?;
            let cell = t.transitions[id as usize * t.symbol_count() + sym];
            id = if cell == UNKNOWN { t.fill(id, sym).expect("within budget") } else { cell };
            if id == DEAD {
                return None;
            }
        }
        Some(id)
    }

    #[test]
    fn table_walk_agrees_with_the_word_problem() {
        for src in [
            "((r0 - r1) + (w0 - w1))*",
            "a - b - c",
            "mult 2 { (a - b)* }",
            "(a | b) - c",
            "(a - b)* @ (b - c)*",
        ] {
            let e = parse(src).unwrap();
            let t = compile(&e, budget(256)).unwrap();
            // The same table, filled by nothing but the walks below.
            let mut lazy = CompiledTable::install(&e, budget(256)).unwrap();
            assert_eq!((lazy.state_count(), lazy.filled), (1, 0));
            let alphabet: Vec<Action> = t.symbols().to_vec();
            // Every word over the alphabet up to length 4.
            let mut words: Vec<Vec<Action>> = vec![vec![]];
            for _ in 0..4 {
                let mut grown = Vec::new();
                for w in &words {
                    for sym in &alphabet {
                        let mut next = w.clone();
                        next.push(sym.clone());
                        grown.push(next);
                    }
                }
                words.extend(grown);
            }
            let status = |t: &CompiledTable, end: Option<u32>| match end {
                None => WordStatus::Illegal,
                Some(id) if t.is_final_state(id) => WordStatus::Complete,
                Some(_) => WordStatus::Partial,
            };
            for word in &words {
                let expected = word_problem(&e, word).unwrap();
                assert_eq!(status(&t, t.run(word)), expected, "table diverges on {src}: {word:?}");
                let end = run_filling(&mut lazy, word);
                assert_eq!(status(&lazy, end), expected, "lazy table diverges on {src}: {word:?}");
            }
            // The walks visited a part of the closed table, and every cell
            // they filled holds the state the closed table holds there.
            assert!(lazy.state_count() <= t.state_count() && lazy.filled <= t.filled, "{src}");
            for (id, state) in lazy.states.iter().enumerate() {
                let row = t.index[state] as usize;
                for sym in 0..lazy.symbol_count() {
                    let (mine, theirs) = (
                        lazy.transitions[id * lazy.symbol_count() + sym],
                        t.transitions[row * t.symbol_count() + sym],
                    );
                    match mine {
                        UNKNOWN => {}
                        DEAD => assert_eq!(theirs, DEAD),
                        next => assert_eq!(lazy.states[next as usize], t.states[theirs as usize]),
                    }
                }
            }
        }
    }

    #[test]
    fn a_table_starts_at_sigma_and_fills_by_the_cell() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let mut t = CompiledTable::install(&e, budget(64)).unwrap();
        assert_eq!((t.state_count(), t.filled, t.symbol_count()), (1, 0, 4));
        assert!(t.transitions.iter().all(|&cell| cell == UNKNOWN));
        let lap: Vec<Action> = ["s0", "s1", "s2", "s3"].map(a).to_vec();
        let end = run_filling(&mut t, &lap).expect("a lap is a word");
        assert_eq!((t.state_count(), t.filled), (5, 4), "one cell and one state per step");
        assert!(t.is_final_state(end) && t.is_permitted(0, &a("s0")));
        assert!(!t.is_permitted(0, &a("s1")), "an unfilled cell is not known to be live");
        // The second lap closes the ring on its first step and computes
        // nothing after it.
        run_filling(&mut t, &[lap.clone(), lap].concat()).unwrap();
        assert_eq!((t.state_count(), t.filled), (5, 5));
        t.close();
        assert_eq!((t.state_count(), t.filled), (5, 20));
        let closed = compile(&e, budget(64)).unwrap();
        assert_eq!((&t.states, &t.transitions), (&closed.states, &closed.transitions));
        assert_eq!((&t.finals, &t.permitted), (&closed.finals, &closed.permitted));
    }

    #[test]
    fn parts_round_trip_a_half_filled_table() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let mut t = CompiledTable::install(&e, budget(64)).unwrap();
        run_filling(&mut t, &[a("s0"), a("s1")]).unwrap();
        let mut back = CompiledTable::from_parts(t.to_parts());
        assert!(back.stands_in_for(&CompiledTable::install(&e, budget(64)).unwrap()));
        assert_eq!((back.state_count(), back.filled), (3, 2));
        assert_eq!(back.max_states, 3, "capped at what it holds until a tier adopts it");
        back.max_states = 64;
        let end = run_filling(&mut back, &[a("s0"), a("s1"), a("s2"), a("s3")]).unwrap();
        assert_eq!((back.state_count(), back.filled), (5, 4), "the first two cells were kept");
        assert!(back.is_final_state(end));
        // A table over another expression, or with a short array, is not
        // adopted in a fresh one's place.
        let other = CompiledTable::install(&parse("(s0 - s1 - s2 - s4)*").unwrap(), budget(64));
        assert!(!back.stands_in_for(&other.unwrap()));
        let mut parts = t.to_parts();
        parts.transitions.pop();
        assert!(!CompiledTable::from_parts(parts).stands_in_for(&t));
    }

    #[test]
    fn bailouts_are_reported_structurally() {
        let quant = parse("all p { (call(p) - perform(p))* }").unwrap();
        assert_eq!(compile(&quant, budget(64)).unwrap_err(), CompileBailout::Quantifier);
        let unbounded = parse("(a - b)#").unwrap();
        assert_eq!(compile(&unbounded, budget(64)).unwrap_err(), CompileBailout::Unbounded);
        let e = parse("(a - b)*").unwrap();
        assert_eq!(compile(&e, budget(0)).unwrap_err(), CompileBailout::Disabled);
    }

    #[test]
    fn budget_exhaustion_bails_cleanly() {
        // 2^8 product states exceed a budget of 16: the table stops growing
        // there, keeps the cells that need no new state, and leaves the
        // rest unknown — no error, and no state past the cap.
        let mut e = parse("(a0 - b0)*").unwrap();
        for k in 1..8 {
            e = Expr::par(e, parse(&format!("(a{k} - b{k})*")).unwrap());
        }
        let t = compile(&e, budget(16)).unwrap();
        assert_eq!((t.state_count(), t.symbol_count()), (16, 16));
        assert!(t.filled < t.transitions.len(), "cells into un-interned states stay unknown");
        let known = t.transitions.iter().filter(|&&cell| cell != UNKNOWN);
        assert!(known.clone().all(|&cell| cell == DEAD || cell < 16));
        assert_eq!(known.count(), t.filled);
        // A budget of one state holds σ and cannot intern a successor; the
        // dead cell is still recorded.
        let t = compile(&parse("a - b").unwrap(), budget(1)).unwrap();
        assert_eq!((t.state_count(), t.filled), (1, 1));
        assert_eq!(t.step(t.start(), &a("b")), DEAD);
    }

    #[test]
    fn the_resident_search_compiles_maximal_subtrees() {
        // The tier's install search, compiling every subtree it finds.
        let resident = |e: &Expr| {
            let (mut tables, mut bailouts) = (Vec::new(), 0);
            for_each_resident(e, Vec::new(), &mut bailouts, &mut |sub, _| {
                compile(sub, budget(64)).map(|table| tables.push(table)).is_ok()
            });
            (tables, bailouts)
        };
        // A quantified spine over two finite operands: the root bails, the
        // operands compile.
        let (tables, bailouts) =
            resident(&parse("((a - b)* @ (c - d)*) @ all p { e(p)# }").unwrap());
        assert!(bailouts >= 1, "the quantified spine must bail");
        assert_eq!(tables.len(), 1, "the ⊗ of the two finite loops is one tile");
        assert_eq!(tables[0].state_count(), 9);
        // Fully finite root: exactly one table, no bailouts.
        let (tables, bailouts) = resident(&parse("(a - b)* @ (c - d)*").unwrap());
        assert_eq!((tables.len(), bailouts), (1, 0));
    }

    #[test]
    fn fingerprints_distinguish_sources() {
        let t1 = compile(&parse("(a - b)*").unwrap(), budget(64)).unwrap();
        let t2 = compile(&parse("(a - c)*").unwrap(), budget(64)).unwrap();
        let t1_again = compile(&parse("(a - b)*").unwrap(), budget(64)).unwrap();
        assert_ne!(t1.fingerprint(), t2.fingerprint());
        assert_eq!(t1.fingerprint(), t1_again.fingerprint());
    }

    #[test]
    fn sequential_protocol_tables_are_rings() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let t = compile(&e, budget(64)).unwrap();
        // 4 protocol positions plus the restarted idle (see the mutex test).
        assert_eq!(t.state_count(), 5);
        let mut id = t.start();
        for step in ["s0", "s1", "s2", "s3"] {
            assert!(!t.is_permitted(id, &a("s9")));
            id = t.step(id, &a(step));
            assert_ne!(id, DEAD, "protocol step {step} permitted");
        }
        assert!(t.is_final_state(id), "the full round is complete");
        assert_eq!(t.step(id, &a("s0")), t.step(t.start(), &a("s0")), "the ring closes");
    }
}
