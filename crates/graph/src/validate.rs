//! Validation of interaction graphs.
//!
//! Sec. 3 warns that — typically by misusing the coupling operator — it is
//! possible to construct graphs with "dead ends": graphs possessing partial
//! but no complete words, i.e. traversals that can start but never reach the
//! right-hand end of the graph.  [`validate_graph`] performs structural
//! checks (expandable templates, executable expression) and a bounded
//! explorative check for dead ends and unreachable activities using the
//! operational state model.

use crate::convert::graph_to_expr;
use crate::model::InteractionGraph;
use ix_core::{Action, Expr, TemplateRegistry};
use ix_semantics::Universe;
use ix_state::{init, is_final, trans, State};
use std::collections::BTreeSet;

/// Outcome of the graph validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// The expression the graph denotes.
    pub expr: Expr,
    /// Whether a complete word was reachable within the exploration budget.
    pub completable: bool,
    /// Concrete actions (from the exploration alphabet) that were never
    /// permitted in any explored state.
    pub never_permitted: Vec<Action>,
    /// Number of distinct states explored.
    pub explored_states: usize,
    /// The exploration budget that was used.
    pub budget: ExplorationBudget,
}

/// Bounds for the explorative validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExplorationBudget {
    /// Maximum traversal depth (number of actions).
    pub max_depth: usize,
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Number of sample values used to ground parameterized actions.
    pub sample_values: usize,
}

impl Default for ExplorationBudget {
    fn default() -> Self {
        ExplorationBudget { max_depth: 8, max_states: 2_000, sample_values: 2 }
    }
}

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

/// Validates a graph: converts it (expanding templates), builds its initial
/// state, and explores reachable states breadth-first over a grounded action
/// alphabet, looking for a final state and for actions that are never
/// permitted.
pub fn validate_graph(
    graph: &InteractionGraph,
    registry: &TemplateRegistry,
    budget: ExplorationBudget,
) -> Result<ValidationReport, ValidationError> {
    let expr = graph_to_expr(graph, registry).map_err(ValidationError::Conversion)?;
    validate_expr(&expr, budget).map_err(ValidationError::State)
}

/// Validates an expression directly (used for expressions not built from a
/// graph).
pub fn validate_expr(
    expr: &Expr,
    budget: ExplorationBudget,
) -> Result<ValidationReport, ix_state::StateError> {
    let initial = init(expr)?;
    // Every abstract action grounded over the values the expression
    // mentions plus `sample_values` fresh ones — the oracle's grounding.
    let alphabet = Universe::observed(expr, &[])
        .with_fresh(budget.sample_values)
        .ground_alphabet(&expr.alphabet());
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut frontier: Vec<State> = vec![initial.clone()];
    seen.insert(initial);
    let mut completable = false;
    let mut ever_permitted: BTreeSet<Action> = BTreeSet::new();

    for _depth in 0..budget.max_depth {
        if frontier.is_empty() || seen.len() >= budget.max_states {
            break;
        }
        let mut next = Vec::new();
        for state in &frontier {
            if is_final(state) {
                completable = true;
            }
            for action in &alphabet {
                let succ = trans(state, action);
                if succ.is_null() {
                    continue;
                }
                ever_permitted.insert(action.clone());
                if !seen.contains(&succ) && seen.len() < budget.max_states {
                    seen.insert(succ.clone());
                    next.push(succ);
                }
            }
        }
        frontier = next;
    }
    if frontier.iter().any(is_final) {
        completable = true;
    }
    let never_permitted = alphabet.into_iter().filter(|a| !ever_permitted.contains(a)).collect();
    Ok(ValidationReport {
        expr: expr.clone(),
        completable,
        never_permitted,
        explored_states: seen.len(),
        budget,
    })
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
