//! The operator/feature matrix of Fig. 2.
//!
//! Fig. 2 of the paper arranges the formalisms based on extended regular
//! expressions by the operators they provide and marks the "hole" that
//! interaction expressions fill: none of the earlier formalisms offers all
//! three dual operator pairs (sequential/parallel composition,
//! sequential/parallel iteration, disjunction/conjunction) together with
//! parameters and quantifiers, and most of them restrict how their operators
//! may be nested.  [`render_matrix`] reproduces that comparison as a text
//! table; `cargo run --example paper_figures fig2` prints it.
//!
//! The comparison has a second, quantitative axis: which of the concrete
//! [`crate::scenarios`] stay within a *finite-state* formalism at all.
//! [`scenario_tables`] answers it with the engine's own shared
//! [`CompiledTable`] representation — the same dense `state × symbol`
//! format the execution tier runs on — instead of a baseline-local
//! automaton sketch: scenarios with finite reachable τ̂-graphs compile,
//! quantified or unbounded ones report their structural bailout.

use ix_core::Action;
use ix_state::{
    compile, CompileBailout, CompileBudget, CompiledTable, WordStatus, DEFAULT_TIER_BUDGET,
};
use std::fmt;

/// The formalisms compared in Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formalism {
    /// Plain regular expressions.
    Regular,
    /// Path expressions \[2\].
    Path,
    /// Synchronization expressions \[10\].
    Synchronization,
    /// Event and flow expressions [22, 23].
    Flow,
    /// CoCoA execution rules \[9\].
    CoCoA,
    /// Interaction expressions (this paper).
    Interaction,
}

impl Formalism {
    /// All formalisms, in the order of the figure.
    pub fn all() -> [Formalism; 6] {
        [
            Formalism::Regular,
            Formalism::Path,
            Formalism::Synchronization,
            Formalism::Flow,
            Formalism::CoCoA,
            Formalism::Interaction,
        ]
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Formalism::Regular => "regular expressions",
            Formalism::Path => "path expressions [2]",
            Formalism::Synchronization => "synchronization expressions [10]",
            Formalism::Flow => "event/flow expressions [22,23]",
            Formalism::CoCoA => "CoCoA execution rules [9]",
            Formalism::Interaction => "interaction expressions",
        }
    }
}

impl fmt::Display for Formalism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The operator axes of Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Feature {
    /// Sequential composition.
    SequentialComposition,
    /// Sequential iteration (Kleene closure).
    SequentialIteration,
    /// Disjunction (choice).
    Disjunction,
    /// Parallel composition (shuffle).
    ParallelComposition,
    /// Parallel iteration (shuffle closure).
    ParallelIteration,
    /// Conjunction (intersection or coupling).
    Conjunction,
    /// Parametric actions.
    Parameters,
    /// Quantifiers over parameters.
    Quantifiers,
    /// Operators may be nested without restrictions.
    UnrestrictedNesting,
}

impl Feature {
    /// All features, in display order.
    pub fn all() -> [Feature; 9] {
        [
            Feature::SequentialComposition,
            Feature::SequentialIteration,
            Feature::Disjunction,
            Feature::ParallelComposition,
            Feature::ParallelIteration,
            Feature::Conjunction,
            Feature::Parameters,
            Feature::Quantifiers,
            Feature::UnrestrictedNesting,
        ]
    }

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            Feature::SequentialComposition => "seq-comp",
            Feature::SequentialIteration => "seq-iter",
            Feature::Disjunction => "disjunct",
            Feature::ParallelComposition => "par-comp",
            Feature::ParallelIteration => "par-iter",
            Feature::Conjunction => "conjunct",
            Feature::Parameters => "params",
            Feature::Quantifiers => "quantif",
            Feature::UnrestrictedNesting => "nesting",
        }
    }
}

/// Whether a formalism provides a feature (the ✓/✗ entries of the matrix).
pub fn supports(formalism: Formalism, feature: Feature) -> bool {
    use Feature::*;
    use Formalism::*;
    match (formalism, feature) {
        // Every formalism has the regular core.
        (_, SequentialComposition) | (_, SequentialIteration) | (_, Disjunction) => true,
        (Regular, _) => false,
        (Path, ParallelComposition) => true,  // bursts
        (Path, ParallelIteration) => true,    // bursts are unbounded…
        (Path, UnrestrictedNesting) => false, // …but must not be nested
        (Path, _) => false,
        (Synchronization, ParallelComposition) => true, // disjoint alphabets only
        (Synchronization, Conjunction) => true,         // strict intersection
        (Synchronization, UnrestrictedNesting) => false,
        (Synchronization, _) => false,
        (Flow, ParallelComposition) => true,
        (Flow, ParallelIteration) => true,
        (Flow, UnrestrictedNesting) => true,
        (Flow, _) => false,
        (CoCoA, Parameters) => true,
        (CoCoA, Quantifiers) => true, // in a restricted form
        (CoCoA, Conjunction) => true,
        (CoCoA, _) => false,
        (Interaction, _) => true,
    }
}

/// The full matrix as (formalism, per-feature flags).
pub fn matrix() -> Vec<(Formalism, Vec<(Feature, bool)>)> {
    Formalism::all()
        .into_iter()
        .map(|f| (f, Feature::all().into_iter().map(|feat| (feat, supports(f, feat))).collect()))
        .collect()
}

/// Renders the matrix as a fixed-width text table (the Fig. 2 reproduction).
pub fn render_matrix() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<34}", "formalism"));
    for feat in Feature::all() {
        out.push_str(&format!("{:>10}", feat.label()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(34 + 10 * Feature::all().len()));
    out.push('\n');
    for (formalism, feats) in matrix() {
        out.push_str(&format!("{:<34}", formalism.name()));
        for (_, ok) in feats {
            out.push_str(&format!("{:>10}", if ok { "yes" } else { "-" }));
        }
        out.push('\n');
    }
    out
}

/// A comparison scenario bridged onto the engine's shared [`CompiledTable`]
/// format: either the dense table of its finite reachable τ̂-graph, or the
/// structural reason no finite-state formalism can host it.
#[derive(Clone, Debug)]
pub struct ScenarioTable {
    /// The scenario's name (see [`crate::scenarios`]).
    pub scenario: &'static str,
    /// The compiled table, or why the scenario is not table-resident.
    pub table: Result<CompiledTable, CompileBailout>,
}

impl ScenarioTable {
    /// Whether the scenario fits a finite `state × symbol` table.
    pub fn is_resident(&self) -> bool {
        self.table.is_ok()
    }

    /// Classifies a word through the dense table — `None` for scenarios
    /// that are not table-resident.  Agrees with the engine's
    /// [`ix_state::word_problem`] on every word by construction (the table
    /// is the interned reachable graph of the same fused τ̂).
    pub fn classify(&self, word: &[Action]) -> Option<WordStatus> {
        let table = self.table.as_ref().ok()?;
        Some(match table.run(word) {
            None => WordStatus::Illegal,
            Some(id) if table.is_final_state(id) => WordStatus::Complete,
            Some(_) => WordStatus::Partial,
        })
    }
}

/// Compiles every comparison scenario onto the shared table representation
/// under the engine's default tier budget.
pub fn scenario_tables() -> Vec<ScenarioTable> {
    crate::scenarios::all_scenarios()
        .iter()
        .map(|s| ScenarioTable {
            scenario: s.name,
            table: compile(&s.interaction_expr, CompileBudget::with_states(DEFAULT_TIER_BUDGET)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_interaction_expressions_cover_every_axis() {
        for f in Formalism::all() {
            let complete = Feature::all().into_iter().all(|feat| supports(f, feat));
            assert_eq!(complete, f == Formalism::Interaction, "{f}");
        }
    }

    #[test]
    fn every_formalism_has_the_regular_core() {
        for f in Formalism::all() {
            assert!(supports(f, Feature::SequentialComposition));
            assert!(supports(f, Feature::SequentialIteration));
            assert!(supports(f, Feature::Disjunction));
        }
    }

    #[test]
    fn known_restrictions_are_recorded() {
        assert!(!supports(Formalism::Path, Feature::UnrestrictedNesting));
        assert!(!supports(Formalism::Synchronization, Feature::UnrestrictedNesting));
        assert!(!supports(Formalism::Flow, Feature::Conjunction));
        assert!(!supports(Formalism::Regular, Feature::ParallelComposition));
        assert!(supports(Formalism::CoCoA, Feature::Parameters));
    }

    #[test]
    fn finite_scenarios_compile_to_shared_tables_and_unbounded_ones_bail() {
        let tables = scenario_tables();
        let by_name = |name: &str| {
            tables.iter().find(|t| t.scenario == name).unwrap_or_else(|| panic!("missing {name}"))
        };
        for name in ["mutual-exclusion", "sequential-protocol", "either-order"] {
            assert!(by_name(name).is_resident(), "{name} has a finite reachable graph");
        }
        assert!(matches!(by_name("readers-writers").table, Err(CompileBailout::Unbounded),));
        for name in ["dynamic-patients", "dynamic-ensembles"] {
            assert!(
                matches!(by_name(name).table, Err(CompileBailout::Quantifier)),
                "{name} needs quantifiers — no finite-state formalism hosts it"
            );
        }
    }

    #[test]
    fn table_classification_agrees_with_the_engine_on_every_short_word() {
        use ix_state::word_problem;
        for st in scenario_tables().into_iter().filter(|t| t.is_resident()) {
            let scenario =
                crate::scenarios::all_scenarios().into_iter().find(|s| s.name == st.scenario);
            let expr = scenario.expect("table has a scenario").interaction_expr;
            let table = st.table.as_ref().expect("resident");
            // Exhaustive over the table's own alphabet up to length 3.
            let symbols = table.symbols().to_vec();
            let mut words: Vec<Vec<Action>> = vec![Vec::new()];
            for len in 0..3 {
                let layer: Vec<Vec<Action>> = words
                    .iter()
                    .filter(|w| w.len() == len)
                    .flat_map(|w| {
                        symbols.iter().map(move |s| {
                            let mut next = w.clone();
                            next.push(s.clone());
                            next
                        })
                    })
                    .collect();
                words.extend(layer);
            }
            for word in &words {
                assert_eq!(
                    st.classify(word),
                    Some(word_problem(&expr, word).expect("closed expression")),
                    "table and engine disagree on {} over {word:?}",
                    st.scenario
                );
            }
        }
    }

    #[test]
    fn rendered_matrix_contains_all_rows_and_columns() {
        let table = render_matrix();
        for f in Formalism::all() {
            assert!(table.contains(f.name()), "missing row {f}");
        }
        for feat in Feature::all() {
            assert!(table.contains(feat.label()), "missing column {}", feat.label());
        }
        assert_eq!(table.lines().count(), 2 + Formalism::all().len());
    }
}
