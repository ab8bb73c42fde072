//! # ix-graph — interaction graphs
//!
//! The graphical, user-oriented notation of interaction expressions (Sec. 2
//! of Heinlein, ICDE 2001): activity rectangles, "either or" / "as well as"
//! branchings, arbitrarily-parallel regions, quantifier and multiplier
//! regions, user-defined operators, and the coupling operator that combines
//! independently developed subgraphs.
//!
//! * [`model`] — the graph data model,
//! * [`convert`] — graph ↔ expression conversion (activities become
//!   start/termination action pairs),
//! * [`figures`] — the graphs printed in the paper (Figs. 3–7),
//! * [`dot`] — Graphviz export,
//! * [`validate`] — grounding a graph's alphabet for `ix_state`'s soundness
//!   explorer (traps, dead actions, a complete word).
//!
//! ```
//! use ix_graph::figures;
//! use ix_state::Engine;
//!
//! // Fig. 7: patients may undergo one examination at a time AND each
//! // department treats at most three patients concurrently.
//! let expr = figures::fig7_expr();
//! let engine = Engine::new(&expr).unwrap();
//! assert!(engine.is_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod dot;
pub mod figures;
pub mod model;
pub mod validate;

pub use convert::{from_expr, graph_to_expr, parse_to_graph, to_expr};
pub use dot::to_dot;
pub use model::{GraphNode, InteractionGraph};
pub use validate::{validate_expr, validate_graph, ExplorationBudget, ValidationReport};
