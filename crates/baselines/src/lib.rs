//! # ix-baselines — formalisms based on extended regular expressions
//!
//! Implementations of the baseline formalisms the paper compares against in
//! Fig. 2 — plain regular expressions, path expressions \[2\], synchronization
//! expressions \[10\], and event/flow expressions [22, 23] — each compiled into
//! interaction expressions so that they can be executed by the same
//! operational engine, plus the operator matrix and the synchronization
//! scenarios used for the expressiveness comparison.
//!
//! ```
//! use ix_baselines::{matrix, Formalism, Feature};
//!
//! // Only interaction expressions cover all operator axes of Fig. 2.
//! assert!(matrix::supports(Formalism::Interaction, Feature::Conjunction));
//! assert!(!matrix::supports(Formalism::Flow, Feature::Conjunction));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod flow_expr;
pub mod matrix;
pub mod path_expr;
pub mod regex;
pub mod scenarios;
pub mod sync_expr;

pub use error::BaselineError;
pub use flow_expr::FlowExpr;
pub use matrix::{matrix, render_matrix, supports, Feature, Formalism};
pub use path_expr::{PathElem, PathExpression};
pub use regex::Regex;
pub use scenarios::{all_scenarios, render_scenarios, Scenario};
pub use sync_expr::SyncExpr;
