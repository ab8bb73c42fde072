//! # ix-core — interaction expressions
//!
//! Core data model of the reproduction of *"Workflow and Process
//! Synchronization with Interaction Expressions and Graphs"* (C. Heinlein,
//! ICDE 2001): actions over values and parameters, the interaction-expression
//! AST with all operators of Table 8, parameter substitution (concretion),
//! alphabets and alphabet complements, user-defined operators (templates),
//! and a textual notation with parser and pretty printer.
//!
//! The formal semantics Φ/Ψ lives in `ix-semantics`, the operational
//! semantics (state model, word and action problems) in `ix-state`, the
//! graphical notation in `ix-graph`, and the workflow integration in
//! `ix-manager` / `ix-wfms`.
//!
//! ## Quick example
//!
//! ```
//! use ix_core::parse;
//!
//! // Capacity restriction of Fig. 6: every examination department x may
//! // treat at most three patients p concurrently.
//! let capacity = parse(
//!     "sync x { mult 3 { (some p { call(p, x) - perform(p, x) })* } }",
//! ).unwrap();
//! assert!(capacity.is_closed());
//! assert_eq!(capacity.quantifier_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod alphabet;
pub mod builder;
pub mod error;
pub mod expr;
pub mod normalize;
pub mod pack;
pub mod parser;
pub mod partition;
pub mod printer;
pub mod subst;
pub mod symbol;
pub mod template;
pub mod value;

pub use action::{display_word, Action, Word};
pub use alphabet::Alphabet;
pub use error::{CoreError, CoreResult};
pub use expr::{Expr, ExprKind};
pub use normalize::simplify;
pub use parser::{parse, parse_with};
pub use partition::{Component, OwnershipMap, Partition, PartitionDelta};
pub use symbol::Symbol;
pub use template::{TemplateDef, TemplateRegistry};
pub use value::{Param, Term, Value};
