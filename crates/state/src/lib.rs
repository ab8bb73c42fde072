//! # ix-state — operational semantics of interaction expressions
//!
//! The efficient, fully deterministic execution model of *"Workflow and
//! Process Synchronization with Interaction Expressions and Graphs"*
//! (Heinlein, ICDE 2001), Secs. 4–6:
//!
//! * [`init()`] — the initial-state function σ,
//! * [`trans()`] — the optimized transition function τ̂ = ρ ∘ τ, computed in
//!   one fused copy-on-write pass ([`trans_reference`] is the two-pass ρ ∘
//!   [`step`] the property suites compare it against),
//! * [`is_valid`] / [`is_final`] — the predicates ψ and ϕ,
//! * [`optimize()`] — the optimization function ρ,
//! * [`Engine`] / [`word_problem`] — the action and word problems of Fig. 9:
//!   one engine steps through the fused τ̂ behind its table tier and
//!   transition memo,
//! * [`ShardRouter`] — the action → owning components table over an
//!   `ix_core::Partition`, through which the interaction managers route,
//! * [`analysis`] — the complexity classification of Sec. 6 (harmless /
//!   benign / potentially malignant).
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
pub mod optimize;
pub mod predicates;
pub mod sharded;
pub mod state;
pub mod trans;

pub use analysis::{classify, Benignity, Classification};
pub use compile::{
    compile, CompileBailout, CompileBudget, CompiledTable, TableParts, TierStats, DEAD,
    DEFAULT_TIER_BUDGET,
};
pub use engine::{
    empty_reservation_fingerprint, word_problem, Engine, WordStatus, DEFAULT_MEMO_CAPACITY,
};
pub use error::{StateError, StateResult};
pub use init::{init, initial_state, validate};
pub use optimize::optimize;
pub use predicates::{is_final, is_valid};
pub use sharded::{Route, ShardRouter};
pub use state::{fresh_nodes, null_state, QuantState, ScopedAlphabet, Shared, State, StateMetrics};
pub use trans::{step, trans, trans_reference};

/// A shared handle on a state — the value [`Engine::prepare`] returns and
/// [`Engine::commit_prepared`] installs.
pub type StateRef = Shared<State>;
