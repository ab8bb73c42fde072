//! # ix-state — operational semantics of interaction expressions
//!
//! The efficient, fully deterministic execution model of *"Workflow and
//! Process Synchronization with Interaction Expressions and Graphs"*
//! (Heinlein, ICDE 2001), Secs. 4–6:
//!
//! * [`init()`] — the initial-state function σ,
//! * [`trans()`] — the optimized transition function τ̂ = ρ ∘ τ, computed in
//!   one fused copy-on-write pass that applies ρ while it rebuilds (the
//!   property suites compare it against the textbook two-pass pipeline,
//!   which lives with them),
//! * [`is_valid`] / [`is_final`] — the predicates ψ and ϕ,
//! * [`Engine`] / [`word_problem`] — the action and word problems of Fig. 9:
//!   one engine steps through the fused τ̂ behind its table tier, and keeps
//!   the successors of its committed state for the confirm that follows an
//!   ask,
//! * [`soundness()`] — Sec. 3's dead ends: traps and dead actions of an
//!   engine's reachable state graph, found through the engine's own step,
//! * [`analysis`] — the complexity classification of Sec. 6 (harmless /
//!   benign / potentially malignant).
//!
//! An engine runs one expression.  Which components of a partitioned
//! expression own an action is answered by `ix_core::Partition`, through
//! which the interaction managers of `ix-manager` route to one engine per
//! component.
//!
//! The correctness of the state model with respect to the formal semantics
//! (`w ∈ Ψ(x) ⇔ ψ(σ_w(x))`, `w ∈ Φ(x) ⇔ ϕ(σ_w(x))`) is exercised by the
//! cross-crate property tests in the workspace `tests/` directory against the
//! `ix-semantics` oracle.
//!
//! ```
//! use ix_core::parse;
//! use ix_state::Engine;
//! use ix_core::{Action, Value};
//!
//! // A patient may undergo only one examination at a time (Fig. 3, middle
//! // branch, for a single patient).
//! let constraint = parse("(some x { call(1, x) - perform(1, x) })*").unwrap();
//! let mut engine = Engine::new(&constraint).unwrap();
//! let call_sono = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
//! let call_endo = Action::concrete("call", [Value::int(1), Value::sym("endo")]);
//! assert!(engine.try_execute(&call_sono));
//! assert!(!engine.is_permitted(&call_endo));   // temporarily disabled
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compile;
pub mod engine;
pub mod error;
pub mod init;
pub mod predicates;
pub mod soundness;
pub mod state;
pub mod trans;

pub use analysis::{classify, Benignity, Classification};
pub use compile::{
    compile, CompileBailout, CompileBudget, CompiledTable, TierStats, DEAD, DEFAULT_TIER_BUDGET,
};
pub use engine::{empty_reservation_fingerprint, word_problem, Engine, WordStatus};
pub use error::{StateError, StateResult};
pub use init::{init, initial_state, validate};
pub use predicates::{is_final, is_valid};
pub use soundness::{soundness, ExplorationBudget, Soundness, Verdict};
pub use state::{null_state, QuantState, ScopedAlphabet, Shared, State, StateMetrics};
pub use trans::trans;

/// A shared handle on a state — the value [`Engine::prepare`] returns and
/// [`Engine::commit_prepared`] installs.
pub type StateRef = Shared<State>;
