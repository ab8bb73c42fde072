//! Validation of interaction graphs.
//!
//! Sec. 3 warns that — typically by misusing the coupling operator — it is
//! possible to construct graphs with "dead ends": graphs possessing partial
//! but no complete words, i.e. traversals that can start but never reach the
//! right-hand end of the graph.  [`validate_graph`] converts a graph
//! (expanding templates), grounds its alphabet, and hands both to
//! [`ix_state::soundness()`], which explores the engine's own state graph for
//! traps, dead actions and a complete word.

use crate::convert::graph_to_expr;
use crate::model::InteractionGraph;
use ix_core::{Expr, TemplateRegistry};
use ix_semantics::Universe;
use ix_state::{soundness, Engine};

pub use ix_state::ExplorationBudget;

/// Outcome of the graph validation: what [`ix_state::soundness()`] found.
pub type ValidationReport = ix_state::Soundness;

/// Errors of graph validation.
#[derive(Debug)]
pub enum ValidationError {
    /// The graph could not be converted to an expression.
    Conversion(ix_core::CoreError),
    /// The expression was rejected by the state model.
    State(ix_state::StateError),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Conversion(e) => write!(f, "graph conversion failed: {e}"),
            ValidationError::State(e) => write!(f, "state model rejected the graph: {e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a graph: converts it (expanding templates) and validates the
/// expression it denotes.
pub fn validate_graph(
    graph: &InteractionGraph,
    registry: &TemplateRegistry,
    budget: ExplorationBudget,
) -> Result<ValidationReport, ValidationError> {
    let expr = graph_to_expr(graph, registry).map_err(ValidationError::Conversion)?;
    validate_expr(&expr, budget).map_err(ValidationError::State)
}

/// Validates an expression: explores its engine from σ over every abstract
/// action grounded over the values the expression mentions plus
/// `sample_values` fresh ones — the oracle's grounding.
pub fn validate_expr(
    expr: &Expr,
    budget: ExplorationBudget,
) -> Result<ValidationReport, ix_state::StateError> {
    let mut engine = Engine::new(expr)?;
    let alphabet = Universe::observed(expr, &[])
        .with_fresh(budget.sample_values)
        .ground_alphabet(&expr.alphabet());
    Ok(soundness(&mut engine, &alphabet, budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use ix_core::parse;

    #[test]
    fn paper_figures_are_completable_and_fully_reachable() {
        let budget = ExplorationBudget { max_depth: 6, max_states: 500, sample_values: 1 };
        for graph in [figures::fig6_capacity_constraint(), figures::fig4_either_or()] {
            let report = validate_graph(&graph, &figures::paper_registry(), budget).unwrap();
            assert!(report.completable, "{}", graph.name);
            assert!(report.never_permitted.is_empty(), "{}", graph.name);
            assert!(report.explored_states > 1);
        }
    }

    #[test]
    fn dead_ends_are_detected() {
        // Misused coupling (the situation Sec. 3 warns about): the two
        // operands order the same two actions contradictorily, so after `a`
        // either operand blocks the other from ever completing.
        let expr = parse("(a - b) @ (b - a)").unwrap();
        let report = validate_expr(&expr, ExplorationBudget::default()).unwrap();
        assert!(!report.completable, "contradictory coupling has no complete word");
        // A benign coupling is completable.
        let expr = parse("(a - b) @ (b - c)").unwrap();
        let report = validate_expr(&expr, ExplorationBudget::default()).unwrap();
        assert!(report.completable);
    }

    #[test]
    fn never_permitted_actions_are_reported() {
        // `c` is strictly conjoined with an expression that does not know it:
        // it can never be executed.
        let expr = parse("(a - b) & (a - b - c)").unwrap();
        let report = validate_expr(&expr, ExplorationBudget::default()).unwrap();
        let names: Vec<String> =
            report.never_permitted.iter().map(|a| a.name().to_string()).collect();
        assert!(names.contains(&"c".to_string()));
    }

    #[test]
    fn budget_limits_are_respected() {
        let expr = figures::fig6_expr();
        let budget = ExplorationBudget { max_depth: 2, max_states: 50, sample_values: 1 };
        let report = validate_expr(&expr, budget).unwrap();
        assert!(report.explored_states <= 50);
        assert_eq!(report.budget, budget);
    }

    #[test]
    fn conversion_errors_are_surfaced() {
        let graph = InteractionGraph::new(
            "unexpandable",
            crate::model::GraphNode::TemplateCall {
                name: ix_core::Symbol::new("unknown"),
                args: vec![],
            },
        );
        let err = validate_graph(&graph, &TemplateRegistry::new(), ExplorationBudget::default());
        assert!(matches!(err, Err(ValidationError::Conversion(_))));
    }
}
