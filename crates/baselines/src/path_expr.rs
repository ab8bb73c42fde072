//! Path expressions [Campbell & Habermann 1974] — reference \[2\] of the
//! paper.
//!
//! A path expression `path E end` cyclically repeats its body; the body is
//! built from operation names, sequencing (`;`), selection (`,`) and
//! parallel "bursts" (`{...}`).  The characteristic restriction noted in the
//! paper's Fig. 2 discussion is that **bursts must not contain other
//! bursts** (the parallel iteration operator must not be nested).  Path
//! expressions have no conjunction operator and no parameters.

use crate::error::BaselineError;
use ix_core::{Action, Expr};

/// An element of a path-expression body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathElem {
    /// An operation (procedure) name.
    Op(String),
    /// Sequential execution of the elements (the `;` of the original
    /// notation).
    Sequence(Vec<PathElem>),
    /// Selection of exactly one element (the `,` of the original notation).
    Selection(Vec<PathElem>),
    /// A burst: an arbitrary number of concurrent executions of the body
    /// (the `{...}` of the original notation).
    Burst(Box<PathElem>),
}

/// A path expression `path E end`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathExpression {
    /// The body E.
    pub body: PathElem,
}

impl PathExpression {
    /// Creates a path expression.
    pub fn new(body: PathElem) -> PathExpression {
        PathExpression { body }
    }

    /// Compiles to an interaction expression.
    ///
    /// `path E end` denotes the cyclic repetition of E, so the translation
    /// wraps the body in a sequential iteration.  Nested bursts are rejected,
    /// mirroring the original formalism's restriction.
    pub fn to_expr(&self) -> Result<Expr, BaselineError> {
        check_no_nested_burst(&self.body, false)?;
        Ok(Expr::seq_iter(elem_to_expr(&self.body)))
    }

    /// The operation names used by the path expression.
    pub fn operations(&self) -> Vec<String> {
        let mut out = Vec::new();
        collect_ops(&self.body, &mut out);
        out
    }
}

fn collect_ops(elem: &PathElem, out: &mut Vec<String>) {
    match elem {
        PathElem::Op(name) => {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
        PathElem::Sequence(xs) | PathElem::Selection(xs) => {
            for x in xs {
                collect_ops(x, out);
            }
        }
        PathElem::Burst(b) => collect_ops(b, out),
    }
}

fn check_no_nested_burst(elem: &PathElem, inside_burst: bool) -> Result<(), BaselineError> {
    match elem {
        PathElem::Op(_) => Ok(()),
        PathElem::Sequence(xs) | PathElem::Selection(xs) => {
            for x in xs {
                check_no_nested_burst(x, inside_burst)?;
            }
            Ok(())
        }
        PathElem::Burst(b) => {
            if inside_burst {
                Err(BaselineError::NestedBurst)
            } else {
                check_no_nested_burst(b, true)
            }
        }
    }
}

fn elem_to_expr(elem: &PathElem) -> Expr {
    match elem {
        // An operation has a duration: it is mapped to a start/end action
        // pair, exactly like workflow activities (footnote 6 of the paper).
        PathElem::Op(name) => ix_core::builder::activity(name, []),
        PathElem::Sequence(xs) => ix_core::builder::seq_all(xs.iter().map(elem_to_expr)),
        PathElem::Selection(xs) => ix_core::builder::or_all(xs.iter().map(elem_to_expr)),
        PathElem::Burst(b) => Expr::par_iter(elem_to_expr(b)),
    }
}

/// The classical single-resource mutual exclusion path: `path op1, ..., opN
/// end` — at most one of the operations runs at any time, repeatedly.
pub fn mutual_exclusion_path(ops: &[&str]) -> PathExpression {
    PathExpression::new(PathElem::Selection(
        ops.iter().map(|o| PathElem::Op((*o).to_string())).collect(),
    ))
}

/// The classical bounded-buffer path of the original paper:
/// `path {deposit}, {remove} end` generalized to `path deposit ; remove end`
/// for a one-slot buffer.
pub fn one_slot_buffer_path() -> PathExpression {
    PathExpression::new(PathElem::Sequence(vec![
        PathElem::Op("deposit".to_string()),
        PathElem::Op("remove".to_string()),
    ]))
}

/// Helper to build the start action of a path operation.
pub fn op_start(name: &str) -> Action {
    Action::nullary(&format!("{name}_start"))
}

/// Helper to build the end action of a path operation.
pub fn op_end(name: &str) -> Action {
    Action::nullary(&format!("{name}_end"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_state::Engine;

    #[test]
    fn mutual_exclusion_path_serializes_operations() {
        let p = mutual_exclusion_path(&["read", "write"]);
        let e = p.to_expr().unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert!(eng.try_execute(&op_start("read")));
        assert!(!eng.is_permitted(&op_start("write")), "mutual exclusion");
        assert!(eng.try_execute(&op_end("read")));
        assert!(eng.is_permitted(&op_start("write")));
        assert_eq!(p.operations(), vec!["read", "write"]);
    }

    #[test]
    fn one_slot_buffer_alternates_deposit_and_remove() {
        let e = one_slot_buffer_path().to_expr().unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert!(eng.try_execute(&op_start("deposit")));
        assert!(!eng.is_permitted(&op_start("remove")), "must finish deposit first");
        assert!(eng.try_execute(&op_end("deposit")));
        assert!(eng.try_execute(&op_start("remove")));
        assert!(!eng.is_permitted(&op_start("deposit")), "buffer holds one item");
        assert!(eng.try_execute(&op_end("remove")));
        assert!(eng.is_permitted(&op_start("deposit")));
    }

    #[test]
    fn bursts_allow_concurrency_but_not_nesting() {
        let p = PathExpression::new(PathElem::Burst(Box::new(PathElem::Op("read".into()))));
        let e = p.to_expr().unwrap();
        let mut eng = Engine::new(&e).unwrap();
        assert!(eng.try_execute(&op_start("read")));
        assert!(eng.is_permitted(&op_start("read")), "concurrent readers allowed");
        // Nested bursts are rejected, as in the original formalism.
        let nested = PathExpression::new(PathElem::Burst(Box::new(PathElem::Burst(Box::new(
            PathElem::Op("read".into()),
        )))));
        assert_eq!(nested.to_expr(), Err(BaselineError::NestedBurst));
    }

    #[test]
    fn path_expressions_lack_parameters_for_dynamic_ensembles() {
        // Nothing in the PathElem type can express "for every patient p": the
        // closest encoding enumerates patients statically.  This is the
        // structural limitation the paper's Fig. 2 records as the missing
        // "parameters / quantifiers" axis.
        let p = mutual_exclusion_path(&["exam_of_patient_1", "exam_of_patient_2"]);
        assert_eq!(p.operations().len(), 2, "one operation per statically known patient");
    }
}
