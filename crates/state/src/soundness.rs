//! Soundness of an engine's reachable state graph.
//!
//! Sec. 3 warns that a misused coupling operator yields graphs with "dead
//! ends": traversals that can start but never complete.  [`soundness()`]
//! explores the τ̂-graph from an engine's current state, breadth-first over
//! a caller-given concrete alphabet, through the engine's own step — a
//! quantifier-free expression from its closed table, a quantified one
//! through τ̂ — and reports the clauses of workflow-net soundness
//! (Bernardinello–Nesterov): the option to complete, no dead action, and
//! no *trap*, a reachable state from which no final state is reachable.
//!
//! A trap is reported only when everything reachable from it was explored,
//! so a budget that runs out hides traps but never invents one.

use crate::engine::Engine;
use crate::predicates::is_final;
use crate::state::{Shared, State};
use ix_core::{Action, Expr};
use std::collections::BTreeMap;

/// Bounds for an exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExplorationBudget {
    /// Maximum traversal depth (number of actions).
    pub max_depth: usize,
    /// Maximum number of distinct states to visit.
    pub max_states: usize,
    /// Number of sample values used to ground parameterized actions (read
    /// by whoever grounds the alphabet, e.g. `ix_graph::validate_expr`).
    pub sample_values: usize,
}

impl Default for ExplorationBudget {
    fn default() -> Self {
        ExplorationBudget { max_depth: 8, max_states: 2_000, sample_values: 2 }
    }
}

/// What an exploration found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Soundness {
    /// The expression explored: the engine's.
    pub expr: Expr,
    /// Whether a final state was reached.
    pub completable: bool,
    /// The actions of the explored alphabet permitted in no explored state,
    /// in alphabet order.
    pub never_permitted: Vec<Action>,
    /// A shortest witness word for every trap a shortest word enters from
    /// a state that is not one (or for the start, if it is a trap); every
    /// trap found is reachable from one of these.
    pub traps: Vec<Vec<Action>>,
    /// Number of distinct states explored.
    pub explored_states: usize,
    /// Whether every reachable state was expanded within the budget.
    pub closed: bool,
    /// The exploration budget that was used.
    pub budget: ExplorationBudget,
}

/// The answer an exploration supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Closed, with no trap and no dead action.
    Sound,
    /// A trap, or (closed) a dead action or no complete word.
    Unsound,
    /// The budget ran out before any of those was found.
    Unknown,
}

impl Soundness {
    /// The verdict: "sound" only when the exploration closed.
    pub fn verdict(&self) -> Verdict {
        match (self.traps.is_empty(), self.closed) {
            (true, false) => Verdict::Unknown,
            (true, true) if self.completable && self.never_permitted.is_empty() => Verdict::Sound,
            _ => Verdict::Unsound,
        }
    }
}

/// One explored state.
struct Node {
    state: Shared<State>,
    depth: usize,
    /// The state and the action index it was first reached by.
    parent: Option<(usize, usize)>,
    /// The explored states with an edge to this one.
    preds: Vec<usize>,
    /// A successor was kept out by the state bound.
    open: bool,
}

/// Explores `engine`'s state graph from its current state over `alphabet`
/// within `budget` (its depth and state bounds), after closing the
/// engine's tier.  The engine's committed state does not move.
pub fn soundness(engine: &mut Engine, alphabet: &[Action], budget: ExplorationBudget) -> Soundness {
    engine.close_tier();
    let node = |state, depth, parent| Node { state, depth, parent, preds: Vec::new(), open: false };
    let start = engine.state_handle().clone();
    // In discovery order, so breadth-first.
    let mut nodes = vec![node(start.clone(), 0, None)];
    let mut ids = BTreeMap::from([(start, 0)]);
    let mut permitted = vec![false; alphabet.len()];
    let mut expanded = 0;
    while expanded < nodes.len() && nodes[expanded].depth < budget.max_depth {
        let (state, depth) = (nodes[expanded].state.clone(), nodes[expanded].depth);
        for (k, action) in alphabet.iter().enumerate() {
            let Some(next) = engine.prepare_from(Some(&state), action) else { continue };
            permitted[k] = true;
            let id = match ids.get(&next) {
                Some(&id) => id,
                None if nodes.len() < budget.max_states => {
                    ids.insert(next.clone(), nodes.len());
                    nodes.push(node(next, depth + 1, Some((expanded, k))));
                    nodes.len() - 1
                }
                None => {
                    nodes[expanded].open = true;
                    continue;
                }
            };
            nodes[id].preds.push(expanded);
        }
        expanded += 1;
    }
    // What may still complete: final states, states not fully expanded,
    // and every state that reaches one of them.
    let mut live: Vec<bool> = (0..nodes.len())
        .map(|i| is_final(&nodes[i].state) || i >= expanded || nodes[i].open)
        .collect();
    let mut work: Vec<usize> = (0..nodes.len()).filter(|&i| live[i]).collect();
    while let Some(i) = work.pop() {
        for &p in &nodes[i].preds {
            if !std::mem::replace(&mut live[p], true) {
                work.push(p);
            }
        }
    }
    let witness = |mut i: usize| {
        let mut word = Vec::new();
        while let Some((parent, k)) = nodes[i].parent {
            word.push(alphabet[k].clone());
            i = parent;
        }
        word.reverse();
        word
    };
    let entered = |i: usize| !live[i] && nodes[i].parent.is_none_or(|(p, _)| live[p]);
    let dead = alphabet.iter().zip(&permitted).filter(|(_, &p)| !p).map(|(a, _)| a.clone());
    Soundness {
        expr: engine.expr().clone(),
        completable: nodes.iter().any(|n| is_final(&n.state)),
        never_permitted: dead.collect(),
        traps: (0..nodes.len()).filter(|&i| entered(i)).map(witness).collect(),
        explored_states: nodes.len(),
        closed: expanded == nodes.len() && !nodes.iter().any(|n| n.open),
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::parse;

    /// `y - b - a` completes, but after `x` nothing is permitted and
    /// nothing is final (`tests/soundness.rs` checks the trap by the oracle).
    const TRAPPED: &str = "(x - a - b + y - b - a) @ (b - a)*";

    fn actions(names: &str) -> Vec<Action> {
        names.split_whitespace().map(Action::nullary).collect()
    }

    fn engine(source: &str) -> Engine {
        Engine::new(&parse(source).unwrap()).unwrap()
    }

    #[test]
    fn exploration_starts_from_the_engine_state_and_leaves_it() {
        let mut engine = engine(TRAPPED);
        assert!(engine.try_execute(&Action::nullary("x")));
        let before = engine.state_handle().clone();
        let report = soundness(&mut engine, &actions("a b x y"), ExplorationBudget::default());
        assert_eq!(report.traps, vec![vec![]], "the engine stands in the trap");
        assert!(!report.completable && report.explored_states == 1);
        assert!(Shared::ptr_eq(&before, engine.state_handle()));
    }

    #[test]
    fn a_sound_expression_is_sound_only_once_closed() {
        let explore =
            |budget| soundness(&mut engine("(a - b)* @ (b - c)*"), &actions("a b c"), budget);
        let report = explore(ExplorationBudget::default());
        assert!(report.closed && report.traps.is_empty());
        assert_eq!(report.verdict(), Verdict::Sound);
        let report = explore(ExplorationBudget { max_depth: 1, ..ExplorationBudget::default() });
        assert!(!report.closed);
        assert_eq!(report.verdict(), Verdict::Unknown);
    }

    #[test]
    fn a_state_bound_hides_traps_but_invents_none() {
        // With `y` stepped first, the trap after `x` lies past a bound of
        // two states, and the state after `y` cannot show it completes.
        let tight = ExplorationBudget { max_states: 2, ..ExplorationBudget::default() };
        let report = soundness(&mut engine(TRAPPED), &actions("a b y x"), tight);
        assert_eq!(report.explored_states, 2);
        assert!(report.traps.is_empty() && !report.closed);
        assert_eq!(report.verdict(), Verdict::Unknown);
    }
}
