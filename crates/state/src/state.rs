//! The state objects of the operational semantics (Sec. 4).
//!
//! Every interaction expression x is assigned an initial state σ(x); a state
//! transition function τ maps a state and an action to a successor state;
//! the predicates ψ ("valid") and ϕ ("final") correspond to the partial- and
//! complete-word sets of the formal semantics; and the optimization function
//! ρ replaces states by equivalent but smaller ones.  The construction of
//! σ, τ, ψ, ϕ and ρ lives in the sibling modules `init`, `trans`,
//! `predicates` and `optimize`; this module defines the state *data* and the
//! generic helpers they share (size metrics and parameter substitution, which
//! is what turns a quantifier's template state into the state of a concrete
//! branch).
//!
//! States are hierarchically structured values mirroring the expression tree,
//! with sets of *alternatives* wherever the walker metaphor of the paper
//! allows several positions at once (sequences, iterations, parallel
//! compositions, quantifiers).
//!
//! # Copy-on-write structural sharing
//!
//! Child states are held behind [`Shared`], a cheap `Arc` handle whose
//! equality and ordering short-circuit on pointer identity.  A τ step
//! rebuilds only the *spine* from the root to the operands the action
//! touches and shares every untouched subtree; equality comparisons during
//! alternative deduplication then cost O(1) on the shared parts.  Spawning
//! points of the expression (the right operand of a sequence, iteration and
//! multiplier bodies, quantifier branches) carry their *precomputed* initial
//! state σ, so a transition never re-derives alphabets or initial states
//! from expressions — states are self-contained and τ is a pure function of
//! the state value.

use ix_core::{Action, Alphabet, Param, Term, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// A shared, immutable handle on a value with pointer-shortcut comparisons.
///
/// Semantically this is "a `T` by value": equality, ordering and hashing are
/// those of `T`.  Representationally it is an `Arc<T>`, and comparisons
/// short-circuit when both handles point at the same allocation — which is
/// the common case after a copy-on-write transition, where alternatives
/// share all untouched sub-states.
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Shared<T> {
        Shared(Arc::new(value))
    }

    /// True if both handles point at the same allocation.
    pub fn ptr_eq(a: &Shared<T>, b: &Shared<T>) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The address of the shared allocation — a cheap identity key (unique
    /// while the handle is alive).
    pub fn as_ptr(this: &Shared<T>) -> *const T {
        Arc::as_ptr(&this.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Shared<T> {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> AsRef<T> for Shared<T> {
    fn as_ref(&self) -> &T {
        &self.0
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Shared<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: PartialOrd> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Shared<T>) -> Option<std::cmp::Ordering> {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Some(std::cmp::Ordering::Equal);
        }
        self.0.partial_cmp(&other.0)
    }
}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Shared<T>) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl<T: std::hash::Hash> std::hash::Hash for Shared<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Shared<T> {
        Shared::new(value)
    }
}

/// The process-wide shared null state — τ produces it constantly, so the
/// allocation is shared instead of repeated.
pub fn null_state() -> Shared<State> {
    static NULL: OnceLock<Shared<State>> = OnceLock::new();
    NULL.get_or_init(|| Shared::new(State::Null)).clone()
}

/// Size bound of a [`ScopedAlphabet`]'s coverage memo; reaching it clears
/// the memo (coverage working sets are tiny — the bound only guards against
/// adversarial churn).
const COVERAGE_CACHE_LIMIT: usize = 256;

/// Alphabets below this size answer coverage queries faster by matching the
/// symbol-indexed candidates directly than through the memo.
const COVERAGE_CACHE_MIN_ALPHABET: usize = 4;

/// Coverage memo key: the probed concrete action, plus the substituted
/// parameter binding for branch coverage ([`ScopedAlphabet::covers_with`]).
type CoverageKey = (Action, Option<(Param, Value)>);

/// An alphabet together with the set of parameters that are bound by
/// quantifiers *outside* the expression the alphabet belongs to.
///
/// The synchronization operator and quantifier route an action to an operand
/// only if the operand's alphabet covers it.  Parameters bound by quantifiers
/// *inside* the operand act as wildcards (the operand's own quantifier will
/// dispatch on the value), whereas parameters bound *outside* stand for a
/// specific-but-not-yet-observed value ("fresh") and therefore never match a
/// concrete action; they become concrete when the enclosing quantifier
/// instantiates the state by substitution.
///
/// Coverage queries are *symbol-indexed*: the alphabet's sorted slice orders
/// abstract actions by name first, so the candidates for a concrete action
/// are a contiguous range instead of a full scan, and composite states
/// sharing this scope (behind one [`Shared`] handle) additionally memoize
/// per-action verdicts for repeated probes of the same action.
#[derive(Debug)]
pub struct ScopedAlphabet {
    /// The abstract actions of the operand.
    pub alphabet: Alphabet,
    /// Parameters treated as "fresh, never matching" (bound outside).
    pub blocked: BTreeSet<Param>,
    /// Memoized coverage verdicts, keyed by the concrete action and (for
    /// branch coverage) the substituted parameter binding.  Interior
    /// mutability keeps the scope logically immutable; the memo is excluded
    /// from equality, ordering and hashing (every verdict is a pure function
    /// of the alphabet and the key, so states containing a scope still
    /// compare, hash and sort like plain values).
    cache: Mutex<HashMap<CoverageKey, bool>>,
}

impl Clone for ScopedAlphabet {
    fn clone(&self) -> ScopedAlphabet {
        ScopedAlphabet::new(self.alphabet.clone(), self.blocked.clone())
    }
}

impl PartialEq for ScopedAlphabet {
    fn eq(&self, other: &ScopedAlphabet) -> bool {
        self.alphabet == other.alphabet && self.blocked == other.blocked
    }
}

impl Eq for ScopedAlphabet {}

impl PartialOrd for ScopedAlphabet {
    fn partial_cmp(&self, other: &ScopedAlphabet) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScopedAlphabet {
    fn cmp(&self, other: &ScopedAlphabet) -> std::cmp::Ordering {
        (&self.alphabet, &self.blocked).cmp(&(&other.alphabet, &other.blocked))
    }
}

impl std::hash::Hash for ScopedAlphabet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.alphabet.hash(state);
        self.blocked.hash(state);
    }
}

impl ScopedAlphabet {
    /// Builds a scoped alphabet from its parts.
    pub fn new(alphabet: Alphabet, blocked: BTreeSet<Param>) -> ScopedAlphabet {
        ScopedAlphabet { alphabet, blocked, cache: Mutex::new(HashMap::new()) }
    }

    /// Builds the scoped alphabet of an operand expression: its alphabet plus
    /// its free parameters as blocked parameters.
    pub fn of(operand: &ix_core::Expr) -> ScopedAlphabet {
        ScopedAlphabet::new(operand.alphabet(), operand.free_params())
    }

    /// The symbol-indexed candidate atoms for a concrete action: same name,
    /// same arity.
    fn candidates<'a>(&'a self, concrete: &'a Action) -> impl Iterator<Item = &'a Action> + 'a {
        let candidates = self.alphabet.candidates(concrete.name());
        candidates.iter().filter(move |a| a.arity() == concrete.arity())
    }

    /// True if the atom mentions a parameter of `blocked` (treating `skip`
    /// as substituted away).
    fn mentions_blocked(&self, atom: &Action, skip: Option<Param>) -> bool {
        atom.args().iter().any(|t| match t {
            Term::Param(p) => Some(*p) != skip && self.blocked.contains(p),
            Term::Value(_) => false,
        })
    }

    /// The verdict of `compute` for `probe`, through the memo when the
    /// alphabet is large enough to use one — and only then is the key built.
    fn cached(&self, probe: (&Action, Option<(Param, Value)>), compute: impl Fn() -> bool) -> bool {
        if self.alphabet.len() < COVERAGE_CACHE_MIN_ALPHABET {
            return compute();
        }
        let key: CoverageKey = (probe.0.clone(), probe.1);
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&hit) = cache.get(&key) {
            return hit;
        }
        let verdict = compute();
        if cache.len() >= COVERAGE_CACHE_LIMIT {
            cache.clear();
        }
        cache.insert(key, verdict);
        verdict
    }

    /// True if the concrete action is covered by the alphabet, treating
    /// blocked parameters as never matching and all other parameters as
    /// wildcards.
    pub fn covers(&self, concrete: &Action) -> bool {
        self.cached((concrete, None), || {
            self.candidates(concrete)
                .any(|a| !self.mentions_blocked(a, None) && a.matches_concrete(concrete))
        })
    }

    /// Like [`ScopedAlphabet::covers`] but with additional temporarily
    /// blocked parameters (used for quantifier templates, where the
    /// quantifier's own parameter is also fresh).  Not memoized — the extra
    /// blocking is caller-supplied state.
    pub fn covers_blocking(&self, concrete: &Action, extra_blocked: &[Param]) -> bool {
        if extra_blocked.is_empty() {
            return self.covers(concrete);
        }
        self.candidates(concrete).any(|a| {
            let mentions = a.args().iter().any(|t| match t {
                Term::Param(p) => self.blocked.contains(p) || extra_blocked.contains(p),
                Term::Value(_) => false,
            });
            !mentions && a.matches_concrete(concrete)
        })
    }

    /// Coverage for a specific instantiation of a parameter (used for
    /// quantifier branches): the parameter is substituted before matching.
    pub fn covers_with(&self, concrete: &Action, param: Param, value: Value) -> bool {
        self.cached((concrete, Some((param, value))), || {
            self.candidates(concrete).any(|a| {
                !self.mentions_blocked(a, Some(param))
                    && a.substitute(param, value).matches_concrete(concrete)
            })
        })
    }

    /// Substitutes a value for a parameter (when an enclosing quantifier
    /// instantiates a branch); the parameter stops being blocked.
    pub fn substitute(&self, param: Param, value: Value) -> ScopedAlphabet {
        let mut blocked = self.blocked.clone();
        blocked.remove(&param);
        ScopedAlphabet::new(
            self.alphabet.actions().map(|a| a.substitute(param, value)).collect(),
            blocked,
        )
    }
}

/// A state of the operational semantics.
///
/// `State` values are immutable; transitions build new states.  Children are
/// [`Shared`] handles, so an untouched subtree costs one reference-count
/// bump to keep — the tentative-transition pattern of the action problem
/// (compute the successor, commit or drop it) never copies state that did
/// not move.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum State {
    /// The null (invalid) state: no walker position is consistent with the
    /// actions processed so far.
    Null,
    /// State of the empty expression ε: valid and final until any action is
    /// processed.
    Epsilon,
    /// State of an atomic expression whose action has not been traversed yet.
    AtomFresh {
        /// The expected action (may be non-concrete, in which case it can
        /// never be traversed).
        action: Action,
    },
    /// State of an atomic expression whose action has been traversed.
    AtomDone,
    /// State of an option.
    Option {
        /// True while no action has been processed (ε is still a complete
        /// word of the option).
        at_start: bool,
        /// State of the body.
        body: Shared<State>,
    },
    /// State of a sequential composition y − z.
    Seq {
        /// State of the left operand.
        left: Shared<State>,
        /// States of right-operand runs, one per completion point of the
        /// left operand (deduplicated, sorted).
        rights: Vec<Shared<State>>,
        /// σ(z), precomputed once at construction: spawned (shared, not
        /// rebuilt) whenever the left operand completes.
        right_init: Shared<State>,
    },
    /// State of a sequential iteration y*.
    SeqIter {
        /// True if the consumed word is a complete concatenation of body
        /// words (the walker stands at an iteration boundary).
        boundary: bool,
        /// States of in-progress body runs (deduplicated, sorted).
        runs: Vec<Shared<State>>,
        /// σ(y), precomputed: spawned at every iteration boundary.
        body_init: Shared<State>,
    },
    /// State of a parallel composition y ‖ z: the set of alternatives of the
    /// paper's running example, each a pair of operand states.
    Par {
        /// The alternatives [l, r].
        alts: Vec<(Shared<State>, Shared<State>)>,
    },
    /// State of a parallel iteration y#.
    ParIter {
        /// Alternatives; each alternative is the multiset (sorted vector) of
        /// states of body instances that have consumed at least one action.
        alts: Vec<Vec<Shared<State>>>,
        /// σ(y), precomputed: the starting point of new concurrent
        /// instances.
        body_init: Shared<State>,
    },
    /// State of a disjunction y ∨ z.
    Or {
        /// State of the left operand.
        left: Shared<State>,
        /// State of the right operand.
        right: Shared<State>,
    },
    /// State of a conjunction y ∧ z.
    And {
        /// State of the left operand.
        left: Shared<State>,
        /// State of the right operand.
        right: Shared<State>,
    },
    /// State of a synchronization y ⊗ z (coupling operator).
    Sync {
        /// State of the left operand.
        left: Shared<State>,
        /// State of the right operand.
        right: Shared<State>,
        /// Scoped alphabet of the left operand (the actions it constrains).
        left_alpha: Shared<ScopedAlphabet>,
        /// Scoped alphabet of the right operand.
        right_alpha: Shared<ScopedAlphabet>,
    },
    /// State of a disjunction quantifier (for some p).
    SomeQ(QuantState),
    /// State of a conjunction quantifier (for every p).
    AllQ(QuantState),
    /// State of a synchronization quantifier.
    SyncQ(QuantState),
    /// State of a parallel quantifier (for all p, concurrently).
    ParQ {
        /// The quantified parameter.
        param: Param,
        /// Whether ε is a complete word of the body — required for the
        /// quantifier to have any complete word at all (the infinite shuffle
        /// is empty otherwise).
        body_accepts_epsilon: bool,
        /// Alternatives; each alternative maps the values whose branch has
        /// consumed at least one action to that branch's state.
        alts: Vec<BTreeMap<Value, Shared<State>>>,
        /// σ(y) with the parameter unbound; a new branch for value ω starts
        /// from `body_init[param := ω]`.
        body_init: Shared<State>,
    },
    /// State of a multiplier (n concurrent instances of the body).
    Mult {
        /// Total number of instances n.
        capacity: u32,
        /// Whether ε is a complete word of the body (idle instances must be
        /// able to contribute the empty word for the whole state to be
        /// final).
        body_accepts_epsilon: bool,
        /// Alternatives; each alternative is the multiset (sorted vector) of
        /// states of instances that have consumed at least one action.
        alts: Vec<Vec<Shared<State>>>,
        /// σ(y), precomputed: the starting point of lazily started
        /// instances.
        body_init: Shared<State>,
    },
}

/// Shared representation of the three "whole word per branch" quantifiers
/// (disjunction, conjunction, synchronization): a *template* state standing
/// for every value that has not occurred yet, plus one instantiated branch
/// per observed value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QuantState {
    /// The quantified parameter.
    pub param: Param,
    /// State of the body with the parameter left unbound; it represents all
    /// branches whose value has not yet occurred in any processed action.
    /// This doubles as the precomputed σ of the body: a branch for a new
    /// value is the template with the value substituted.
    pub template: Shared<State>,
    /// Branch states for values that have occurred, keyed by value.
    pub branches: BTreeMap<Value, Shared<State>>,
    /// Scoped alphabet of the body, used by the synchronization quantifier to
    /// route actions.  The blocked set contains every parameter free in the
    /// body (including the quantifier's own parameter); branch coverage
    /// substitutes the quantifier parameter before matching, template
    /// coverage leaves it blocked.
    pub scope: Shared<ScopedAlphabet>,
}

impl State {
    /// True if this is the null (invalid) state.
    pub fn is_null(&self) -> bool {
        matches!(self, State::Null)
    }

    /// The *size* of a state: the number of nodes of the hierarchical state
    /// object, counted with multiplicity (shared subtrees count every time
    /// they are reachable — the logical size the Sec. 6 analysis talks
    /// about, not the allocated size).  Precomputed σ templates
    /// (`right_init`/`body_init`) are static spawning data, not walker
    /// positions, and are not counted.
    pub fn size(&self) -> usize {
        match self {
            State::Null | State::Epsilon | State::AtomFresh { .. } | State::AtomDone => 1,
            State::Option { body, .. } => 1 + body.size(),
            State::Seq { left, rights, .. } => {
                1 + left.size() + rights.iter().map(|r| r.size()).sum::<usize>()
            }
            State::SeqIter { runs, .. } => 1 + runs.iter().map(|r| r.size()).sum::<usize>(),
            State::Par { alts } => 1 + alts.iter().map(|(l, r)| l.size() + r.size()).sum::<usize>(),
            State::ParIter { alts, .. } | State::Mult { alts, .. } => {
                1 + alts
                    .iter()
                    .map(|threads| 1 + threads.iter().map(|t| t.size()).sum::<usize>())
                    .sum::<usize>()
            }
            State::Or { left, right } | State::And { left, right } => {
                1 + left.size() + right.size()
            }
            State::Sync { left, right, .. } => 1 + left.size() + right.size(),
            State::SomeQ(q) | State::AllQ(q) | State::SyncQ(q) => {
                1 + q.template.size() + q.branches.values().map(|s| s.size()).sum::<usize>()
            }
            State::ParQ { alts, .. } => {
                1 + alts
                    .iter()
                    .map(|branches| 1 + branches.values().map(|s| s.size()).sum::<usize>())
                    .sum::<usize>()
            }
        }
    }

    /// The total number of alternatives held anywhere in the state — the
    /// quantity the optimization function ρ keeps small in practice (Sec. 6).
    pub fn alternative_count(&self) -> usize {
        match self {
            State::Null | State::Epsilon | State::AtomFresh { .. } | State::AtomDone => 0,
            State::Option { body, .. } => body.alternative_count(),
            State::Seq { left, rights, .. } => {
                rights.len()
                    + left.alternative_count()
                    + rights.iter().map(|r| r.alternative_count()).sum::<usize>()
            }
            State::SeqIter { runs, .. } => {
                runs.len() + runs.iter().map(|r| r.alternative_count()).sum::<usize>()
            }
            State::Par { alts } => {
                alts.len()
                    + alts
                        .iter()
                        .map(|(l, r)| l.alternative_count() + r.alternative_count())
                        .sum::<usize>()
            }
            State::ParIter { alts, .. } | State::Mult { alts, .. } => {
                alts.len()
                    + alts
                        .iter()
                        .flat_map(|t| t.iter())
                        .map(|s| s.alternative_count())
                        .sum::<usize>()
            }
            State::Or { left, right } | State::And { left, right } => {
                left.alternative_count() + right.alternative_count()
            }
            State::Sync { left, right, .. } => left.alternative_count() + right.alternative_count(),
            State::SomeQ(q) | State::AllQ(q) | State::SyncQ(q) => {
                q.template.alternative_count()
                    + q.branches.values().map(|s| s.alternative_count()).sum::<usize>()
            }
            State::ParQ { alts, .. } => {
                alts.len()
                    + alts
                        .iter()
                        .flat_map(|b| b.values())
                        .map(|s| s.alternative_count())
                        .sum::<usize>()
            }
        }
    }

    /// Substitutes a value for a parameter throughout the state, respecting
    /// quantifier shadowing.  This is how a quantifier's template state is
    /// turned into the state of the branch for a newly observed value: by the
    /// substitution property, the branch for an unseen value ω behaves
    /// exactly like the template until ω first occurs, so substituting at
    /// that moment reconstructs the branch's true state.
    pub fn substitute(&self, param: Param, value: Value) -> State {
        let sub = |s: &Shared<State>| Shared::new(s.substitute(param, value));
        match self {
            State::Null => State::Null,
            State::Epsilon => State::Epsilon,
            State::AtomDone => State::AtomDone,
            State::AtomFresh { action } => {
                State::AtomFresh { action: action.substitute(param, value) }
            }
            State::Option { at_start, body } => {
                State::Option { at_start: *at_start, body: sub(body) }
            }
            State::Seq { left, rights, right_init } => State::Seq {
                left: sub(left),
                rights: rights.iter().map(sub).collect(),
                right_init: sub(right_init),
            },
            State::SeqIter { boundary, runs, body_init } => State::SeqIter {
                boundary: *boundary,
                runs: runs.iter().map(sub).collect(),
                body_init: sub(body_init),
            },
            State::Par { alts } => {
                State::Par { alts: alts.iter().map(|(l, r)| (sub(l), sub(r))).collect() }
            }
            State::ParIter { alts, body_init } => State::ParIter {
                alts: alts.iter().map(|threads| threads.iter().map(sub).collect()).collect(),
                body_init: sub(body_init),
            },
            State::Or { left, right } => State::Or { left: sub(left), right: sub(right) },
            State::And { left, right } => State::And { left: sub(left), right: sub(right) },
            State::Sync { left, right, left_alpha, right_alpha } => State::Sync {
                left: sub(left),
                right: sub(right),
                left_alpha: Shared::new(left_alpha.substitute(param, value)),
                right_alpha: Shared::new(right_alpha.substitute(param, value)),
            },
            State::SomeQ(q) => State::SomeQ(q.substitute(param, value)),
            State::AllQ(q) => State::AllQ(q.substitute(param, value)),
            State::SyncQ(q) => State::SyncQ(q.substitute(param, value)),
            State::ParQ { param: own, body_accepts_epsilon, alts, body_init } => {
                if *own == param {
                    // Shadowed: the inner quantifier rebinds the parameter.
                    self.clone()
                } else {
                    State::ParQ {
                        param: *own,
                        body_accepts_epsilon: *body_accepts_epsilon,
                        alts: alts
                            .iter()
                            .map(|branches| branches.iter().map(|(v, s)| (*v, sub(s))).collect())
                            .collect(),
                        body_init: sub(body_init),
                    }
                }
            }
            State::Mult { capacity, body_accepts_epsilon, alts, body_init } => State::Mult {
                capacity: *capacity,
                body_accepts_epsilon: *body_accepts_epsilon,
                alts: alts.iter().map(|threads| threads.iter().map(sub).collect()).collect(),
                body_init: sub(body_init),
            },
        }
    }
}

impl QuantState {
    pub(crate) fn substitute(&self, param: Param, value: Value) -> QuantState {
        if self.param == param {
            // Shadowed by this quantifier's own binding.
            return self.clone();
        }
        QuantState {
            param: self.param,
            template: Shared::new(self.template.substitute(param, value)),
            branches: self
                .branches
                .iter()
                .map(|(v, s)| (*v, Shared::new(s.substitute(param, value))))
                .collect(),
            scope: Shared::new(self.scope.substitute(param, value)),
        }
    }
}

/// Summary metrics of a state, used by the complexity experiments of Sec. 6.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateMetrics {
    /// Total node count of the state object.
    pub size: usize,
    /// Total number of alternatives across all alternative sets.
    pub alternatives: usize,
    /// Whether the state is the null state.
    pub is_null: bool,
}

impl StateMetrics {
    /// Captures the metrics of a state.
    pub fn of(state: &State) -> StateMetrics {
        StateMetrics {
            size: state.size(),
            alternatives: state.alternative_count(),
            is_null: state.is_null(),
        }
    }
}

/// Counts the nodes of `next` that are *not* shared (by allocation) with
/// `prev` — the number of state nodes a transition had to build, i.e. an
/// allocation proxy for the copy-on-write rebuild.  Both states are walked
/// through their `Shared` handles; the precomputed σ templates are skipped,
/// matching [`State::size`].
pub fn fresh_nodes(prev: &State, next: &State) -> usize {
    let mut seen: std::collections::HashSet<*const State> = std::collections::HashSet::new();
    fn collect(s: &State, seen: &mut std::collections::HashSet<*const State>) {
        s.for_each_child(&mut |c| {
            if seen.insert(Shared::as_ptr(c)) {
                collect(c, seen);
            }
        });
    }
    collect(prev, &mut seen);
    fn count(s: &State, seen: &std::collections::HashSet<*const State>) -> usize {
        let mut fresh = 1;
        s.for_each_child(&mut |c| {
            if !seen.contains(&Shared::as_ptr(c)) {
                fresh += count(c, seen);
            }
        });
        fresh
    }
    count(next, &seen)
}

impl State {
    /// Visits every direct child handle (walker positions only — the
    /// precomputed σ templates are spawning data, not children).
    fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Shared<State>)) {
        match self {
            State::Null | State::Epsilon | State::AtomFresh { .. } | State::AtomDone => {}
            State::Option { body, .. } => f(body),
            State::Seq { left, rights, .. } => {
                f(left);
                rights.iter().for_each(f);
            }
            State::SeqIter { runs, .. } => runs.iter().for_each(f),
            State::Par { alts } => {
                for (l, r) in alts {
                    f(l);
                    f(r);
                }
            }
            State::ParIter { alts, .. } | State::Mult { alts, .. } => {
                alts.iter().flatten().for_each(f)
            }
            State::Or { left, right }
            | State::And { left, right }
            | State::Sync { left, right, .. } => {
                f(left);
                f(right);
            }
            State::SomeQ(q) | State::AllQ(q) | State::SyncQ(q) => {
                f(&q.template);
                q.branches.values().for_each(f);
            }
            State::ParQ { alts, .. } => alts.iter().flat_map(|b| b.values()).for_each(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::builder::{act0, actp};
    use ix_core::Value;

    #[test]
    fn null_and_leaf_states() {
        assert!(State::Null.is_null());
        assert!(!State::Epsilon.is_null());
        assert_eq!(State::Null.size(), 1);
        assert_eq!(State::Epsilon.alternative_count(), 0);
    }

    #[test]
    fn size_counts_nested_structure() {
        let s = State::Par {
            alts: vec![
                (Shared::new(State::AtomDone), Shared::new(State::Epsilon)),
                (Shared::new(State::Null), Shared::new(State::AtomDone)),
            ],
        };
        assert_eq!(s.size(), 5);
        assert_eq!(s.alternative_count(), 2);
    }

    #[test]
    fn substitution_reaches_atoms_and_spawn_templates() {
        let p = ix_core::Param::new("p");
        let right = crate::init::initial_state(&actp("b", &["p"]));
        let s = State::Seq {
            left: Shared::new(State::AtomFresh {
                action: ix_core::Action::new("a", [ix_core::Term::Param(p)]),
            }),
            rights: vec![],
            right_init: Shared::new(right),
        };
        let s2 = s.substitute(p, Value::int(3));
        match &s2 {
            State::Seq { left, right_init, .. } => {
                match left.as_ref() {
                    State::AtomFresh { action } => assert!(action.is_concrete()),
                    other => panic!("unexpected {other:?}"),
                }
                match right_init.as_ref() {
                    State::AtomFresh { action } => assert!(action.is_concrete()),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn substitution_respects_quantifier_shadowing() {
        let p = ix_core::Param::new("p");
        let body = actp("a", &["p"]);
        let inner = QuantState {
            param: p,
            template: Shared::new(State::AtomFresh {
                action: ix_core::Action::new("a", [ix_core::Term::Param(p)]),
            }),
            branches: BTreeMap::new(),
            scope: Shared::new(ScopedAlphabet::of(&body)),
        };
        let s = State::SomeQ(inner.clone());
        let s2 = s.substitute(p, Value::int(1));
        assert_eq!(s, s2, "the inner binding shadows the substitution");
    }

    #[test]
    fn scoped_alphabet_blocks_outer_parameters() {
        let body = ix_core::Expr::seq(actp("a", &["p"]), act0("c"));
        let scope = ScopedAlphabet::of(&body);
        let a1 = ix_core::Action::concrete("a", [Value::int(1)]);
        let c = ix_core::Action::nullary("c");
        // p is free in the body, hence blocked: a(1) is not covered...
        assert!(!scope.covers(&a1));
        // ...but c (no parameters) is, and so is a(1) once p is instantiated.
        assert!(scope.covers(&c));
        assert!(scope.covers_with(&a1, ix_core::Param::new("p"), Value::int(1)));
        assert!(!scope.covers_with(&a1, ix_core::Param::new("p"), Value::int(2)));
        // Substituting p concretizes the alphabet.
        let inst = scope.substitute(ix_core::Param::new("p"), Value::int(1));
        assert!(inst.covers(&a1));
        assert!(!inst.covers(&ix_core::Action::concrete("a", [Value::int(2)])));
    }

    #[test]
    fn scoped_alphabet_inner_parameters_are_wildcards() {
        // A body whose parameter is bound by an inner quantifier: the
        // parameter is not free, hence not blocked, hence a wildcard.
        let body = ix_core::parse("some q { a(q) }").unwrap();
        let scope = ScopedAlphabet::of(&body);
        assert!(scope.covers(&ix_core::Action::concrete("a", [Value::int(7)])));
        assert!(!scope.covers(&ix_core::Action::nullary("b")));
        // Extra blocking (template use) can still disable matching.
        assert!(scope.covers_blocking(
            &ix_core::Action::concrete("a", [Value::int(7)]),
            &[ix_core::Param::new("r")]
        ));
    }

    #[test]
    fn coverage_memo_agrees_with_direct_matching_on_large_alphabets() {
        // Enough distinct atoms to enable the memo.
        let src = "a(p) - b(p) - c(p) - d(p) - e(p)";
        let body = ix_core::parse(&format!("some p {{ {src} }}")).unwrap();
        let inner = match body.kind() {
            ix_core::ExprKind::SomeQ(_, b) => b.clone(),
            _ => unreachable!(),
        };
        let scope = ScopedAlphabet::of(&inner);
        let a1 = ix_core::Action::concrete("a", [Value::int(1)]);
        // Repeated queries hit the memo and must stay stable.
        for _ in 0..3 {
            assert!(!scope.covers(&a1), "p is blocked");
            assert!(scope.covers_with(&a1, ix_core::Param::new("p"), Value::int(1)));
            assert!(!scope.covers_with(&a1, ix_core::Param::new("p"), Value::int(2)));
        }
    }

    #[test]
    fn shared_comparisons_shortcut_on_pointer_identity() {
        let a = Shared::new(State::AtomDone);
        let b = a.clone();
        assert!(Shared::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let c = Shared::new(State::AtomDone);
        assert!(!Shared::ptr_eq(&a, &c));
        assert_eq!(a, c, "value equality without pointer identity");
        assert_eq!(a.cmp(&c), std::cmp::Ordering::Equal);
    }

    #[test]
    fn metrics_capture_size_and_alternatives() {
        let s = State::SeqIter {
            boundary: true,
            runs: vec![
                Shared::new(State::AtomDone),
                Shared::new(State::AtomFresh { action: ix_core::Action::nullary("a") }),
            ],
            body_init: Shared::new(State::AtomFresh { action: ix_core::Action::nullary("a") }),
        };
        let m = StateMetrics::of(&s);
        assert_eq!(m.size, 3);
        assert_eq!(m.alternatives, 2);
        assert!(!m.is_null);
    }

    #[test]
    fn fresh_nodes_counts_only_the_rebuilt_spine() {
        let shared_child = Shared::new(State::AtomDone);
        let prev = State::Or { left: shared_child.clone(), right: Shared::new(State::Epsilon) };
        let next = State::Or { left: shared_child, right: Shared::new(State::AtomDone) };
        // The root and the new right child are fresh; the left child is
        // shared.
        assert_eq!(fresh_nodes(&prev, &next), 2);
    }

    #[test]
    fn states_order_and_hash() {
        use std::collections::BTreeSet;
        // The coverage memo inside ScopedAlphabet is interior-mutable but
        // excluded from Eq/Ord/Hash, so states are sound set keys.
        #[allow(clippy::mutable_key_type)]
        let set: BTreeSet<State> =
            [State::Null, State::Epsilon, State::AtomDone, State::Null].into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}
