//! Tiered execution: a flat DFA table over a finite expression, filled as
//! traffic visits it.
//!
//! The copy-on-write τ̂ rebuilds a tree spine on every step, but most real
//! constraints (mutexes, capacity counters, sequencing templates —
//! everything `ix_baselines` models as regex/matrix scenarios) have small
//! state spaces.  A [`CompiledTable`] tabulates the τ̂-graph of one such
//! expression: interned state handles, a dense `state × symbol → state`
//! array over the expression's (finite) symbol candidates, and a ϕ bitset
//! over the states.
//!
//! The table is a **lazy DFA**, the paper's on-demand τ̂ (Sec. 6, Fig. 9)
//! with a cache in front.  Installing one costs O(|expression|) — the
//! sorted atom axis and σ as state 0 (an engine's own σ), hashed at the
//! first lookup — and every cell starts *unknown*.  The first step through
//! a cell computes the one τ̂ the tree walk would have computed anyway,
//! interns the successor by value and records its id; from the second visit
//! on, the step is an array lookup.  [`compile()`] and `Engine::close_tier`
//! are the same path run to the end: install, then fill every cell
//! breadth-first.
//!
//! Eligibility is structural ([`CompileBailout`]): no quantifier, no `#`,
//! no hole, concrete atoms only.  An engine has at most one table, over its
//! whole expression, and only if the expression passes the check
//! [`compile()`] makes; any other engine steps through plain τ̂.  The
//! partition gives each `@`-operand an engine of its own, so a finite
//! operand beside a quantified one still runs from a table.  The state
//! budget caps interned states; a **full table** keeps answering every cell
//! it knows, still records cells whose successor is dead or already
//! interned, and hands any other successor back un-interned — from there
//! the tree walk answers, exactly.  A state that left is not hashed back in
//! on the per-transition path (nothing is hashed there); only install looks
//! at the live state.
//!
//! A table is a cache, never state: snapshots carry the engine's state and
//! none of its tables, and a recovered engine installs its tier around the
//! decoded state on first use, as a fresh one does (ARCHITECTURE.md,
//! "The lazy tier").  Nor does a table go stale: an engine's expression
//! never changes, so every cell stays exact for the engine's lifetime.
//!
//! # Why a cell is exact
//!
//! The argument is per cell, not per table.  A cell holds τ̂(s, a) for an
//! interned state `s` — a value the fused τ̂ itself produced — and a symbol
//! `a` of the axis, computed by that same τ̂; nothing about the rest of the
//! table enters.  Off the axis, the expression is **closed over a
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
//! exactly what the fused τ̂ computes, so a state the table answered and one
//! the tree walk built are interchangeable: state-value equality is
//! unaffected.  ψ needs no bitset: on the optimized path every interned
//! (non-`Null`) state is valid by the "invalid ⇔ `Null`" invariant; the ϕ
//! bitset covers finality, and whether an action is permitted is whether
//! its cell is [`DEAD`].

use crate::init::init;
use crate::predicates::is_final;
use crate::state::{Shared, State};
use crate::trans::trans;
use ix_core::{Action, Alphabet, Expr, ExprKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Default state-count budget of an engine's tier (0 disables tiering).
pub const DEFAULT_TIER_BUDGET: usize = 512;

/// The dead-state sentinel in a table's transition array: the successor is
/// `Null` (the action is not permitted in that state).
pub const DEAD: u32 = u32::MAX;

/// The cell has not been computed yet.
pub(crate) const UNKNOWN: u32 = u32::MAX - 1;

/// Why an expression gets no table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileBailout {
    /// The budget is zero — tiering is switched off.
    Disabled,
    /// The expression mentions parameters, holes, or abstract atoms, so
    /// its symbol candidates are not a finite concrete set.
    AbstractAlphabet,
    /// The expression contains a quantifier (branches materialize per
    /// value at run time — there is no one symbol axis to tabulate over).
    Quantifier,
    /// The expression contains a parallel iteration (`#`), whose
    /// instance count is unbounded.
    Unbounded,
    /// There is nothing to tabulate: σ rejected the expression, or it
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

/// A flat DFA tile: the τ̂-graph of one finite expression as far as it
/// has been visited, in a dense transition array.
///
/// States are canonical [`Shared`] handles (value-identical to what the
/// fused τ̂ computes), symbols are the expression's alphabet (its
/// concrete atoms, sorted), and the transition array stores
/// `state × symbol → state` ids with [`DEAD`] marking `Null` successors.
/// A table from [`compile`] is *closed* (every cell filled, budget
/// permitting); one taken from a running engine holds the cells its traffic
/// has visited.
#[derive(Clone, Debug)]
pub struct CompiledTable {
    /// The expression's alphabet — its sorted, deduplicated concrete
    /// atoms — is the symbol axis; a column is a binary search into it.
    pub(crate) symbols: Alphabet,
    /// Interned canonical state handles; index = state id, id 0 = σ.
    pub(crate) states: Vec<Shared<State>>,
    /// Value → state id; σ is entered at the first lookup, not at install.
    index: HashMap<Shared<State>, u32>,
    /// Dense `states.len() × symbols.len()` successor array.
    pub(crate) transitions: Vec<u32>,
    /// ϕ bitset over state ids.
    finals: Vec<u64>,
    /// Cap on interned states; growth stops here, answers do not.
    pub(crate) max_states: usize,
    /// Cells computed so far.
    pub(crate) filled: usize,
}

impl CompiledTable {
    /// A table over the eligible `expr` holding `start`, its σ, as state 0
    /// and every cell unknown, or the reason it cannot have one.
    pub(crate) fn install(
        expr: &Expr,
        budget: CompileBudget,
        start: Shared<State>,
    ) -> Result<CompiledTable, CompileBailout> {
        let symbols = expr.alphabet();
        if symbols.is_empty() || symbols.len() > u16::MAX as usize || start.is_null() {
            return Err(CompileBailout::Invalid);
        }
        Ok(CompiledTable {
            transitions: vec![UNKNOWN; symbols.len()],
            symbols,
            finals: vec![is_final(&start) as u64],
            states: vec![start],
            index: HashMap::new(),
            max_states: budget.max_states,
            filled: 0,
        })
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
        if self.index.is_empty() {
            self.index.insert(self.states[0].clone(), 0);
        }
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
}

/// Why the node `e` itself keeps any expression containing it out of a
/// table.
fn node_bailout(e: &Expr) -> Option<CompileBailout> {
    match e.kind() {
        ExprKind::SomeQ(..) | ExprKind::AllQ(..) | ExprKind::SyncQ(..) | ExprKind::ParQ(..) => {
            Some(CompileBailout::Quantifier)
        }
        ExprKind::ParIter(_) => Some(CompileBailout::Unbounded),
        ExprKind::Hole(_) => Some(CompileBailout::AbstractAlphabet),
        ExprKind::Atom(a) if !a.is_concrete() => Some(CompileBailout::AbstractAlphabet),
        _ => None,
    }
}

/// Whether `expr` may have a table under `budget` — the structural check
/// [`compile()`] and an engine's tier share.
pub(crate) fn eligible(expr: &Expr, budget: CompileBudget) -> Result<(), CompileBailout> {
    let mut bail = (budget.max_states == 0).then_some(CompileBailout::Disabled);
    expr.visit(&mut |e: &Expr| bail = bail.or_else(|| node_bailout(e)));
    bail.map_or(Ok(()), Err)
}

/// Compiles an expression to a closed table, or reports why it cannot have
/// one: checks and validates it, installs the lazy table and fills every cell
/// breadth-first with the production fused transition, interning successor
/// states by *value* so the emitted ids are canonical.  Past `budget` states
/// the table stops growing and the cells needing a new state stay unfilled.
pub fn compile(expr: &Expr, budget: CompileBudget) -> Result<CompiledTable, CompileBailout> {
    eligible(expr, budget)?;
    let start = init(expr).map_err(|_| CompileBailout::Invalid)?;
    let mut table = CompiledTable::install(expr, budget, Shared::new(start))?;
    table.close();
    Ok(table)
}

/// Counter surface of an engine's tier: table inventory and hit, fill,
/// fallback and compile counts.  Summed over engines, each field is a sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Number of installed tables: 1 if the engine's expression is eligible
    /// and the tier is installed, else 0.
    pub tables: usize,
    /// States interned so far.
    pub states: usize,
    /// Transitions answered by the table, the ones that filled their cell
    /// on the way included.
    pub hits: u64,
    /// Transitions computed by the tree walk while a table was installed.
    pub fallbacks: u64,
    /// Cells computed so far — each by one τ̂, once.
    pub fills: u64,
    /// Tables this engine installed over its lifetime (closing its own is
    /// not a compile).
    pub compiles: u64,
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

    /// A lazy table over `e`, σ its state 0 and no cell filled.
    fn install(e: &Expr, budget: CompileBudget) -> CompiledTable {
        CompiledTable::install(e, budget, Shared::new(init(e).unwrap())).unwrap()
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
        assert_eq!(t.step(reading, &a("zzz")), DEAD, "unknown symbols are dead");
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
            let mut lazy = install(&e, budget(256));
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
        let mut t = install(&e, budget(64));
        assert_eq!((t.state_count(), t.filled, t.symbol_count()), (1, 0, 4));
        assert!(t.transitions.iter().all(|&cell| cell == UNKNOWN));
        let lap: Vec<Action> = ["s0", "s1", "s2", "s3"].map(a).to_vec();
        let end = run_filling(&mut t, &lap).expect("a lap is a word");
        assert_eq!((t.state_count(), t.filled), (5, 4), "one cell and one state per step");
        assert!(t.is_final_state(end) && t.step(0, &a("s0")) != DEAD);
        assert_eq!(t.transitions[1], UNKNOWN, "σ's `s1` cell is not filled by a lap");
        // The second lap closes the ring on its first step and computes
        // nothing after it.
        run_filling(&mut t, &[lap.clone(), lap].concat()).unwrap();
        assert_eq!((t.state_count(), t.filled), (5, 5));
        t.close();
        assert_eq!((t.state_count(), t.filled), (5, 20));
        let closed = compile(&e, budget(64)).unwrap();
        assert_eq!((&t.states, &t.transitions), (&closed.states, &closed.transitions));
        assert_eq!(t.finals, closed.finals);
        assert_eq!(t.step(0, &a("s1")), DEAD);
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
    fn sequential_protocol_tables_are_rings() {
        let e = parse("(s0 - s1 - s2 - s3)*").unwrap();
        let t = compile(&e, budget(64)).unwrap();
        // 4 protocol positions plus the restarted idle (see the mutex test).
        assert_eq!(t.state_count(), 5);
        let mut id = t.start();
        for step in ["s0", "s1", "s2", "s3"] {
            assert_eq!(t.step(id, &a("s9")), DEAD);
            id = t.step(id, &a(step));
            assert_ne!(id, DEAD, "protocol step {step} permitted");
        }
        assert!(t.is_final_state(id), "the full round is complete");
        assert_eq!(t.step(id, &a("s0")), t.step(t.start(), &a("s0")), "the ring closes");
    }
}
