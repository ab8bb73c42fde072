//! Synchronization scenarios used for the expressiveness comparison.
//!
//! Each scenario is a concrete coordination requirement from the paper's
//! motivation (Sec. 1–2), expressed as an interaction expression, together
//! with the set of baseline formalisms that can express it at all.  The
//! scenarios drive the Fig. 2 section of the `paper_figures` example; the
//! per-scenario tests double as behavioural documentation.

use crate::matrix::Formalism;
use ix_core::{parse, Expr};

/// A named synchronization scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short identifier.
    pub name: &'static str,
    /// What has to be coordinated.
    pub description: &'static str,
    /// The requirement as an interaction expression.
    pub interaction_expr: Expr,
    /// Formalisms able to express the requirement without enumerating
    /// dynamically unbounded cases.
    pub expressible_by: Vec<Formalism>,
}

/// All scenarios of the comparison.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        mutual_exclusion(),
        sequential_protocol(),
        either_order(),
        bounded_capacity(),
        readers_writers(),
        dynamic_patients(),
        modular_combination(),
        dynamic_ensembles(),
    ]
}

/// Two operations never overlap (the classical critical section).
pub fn mutual_exclusion() -> Scenario {
    Scenario {
        name: "mutual-exclusion",
        description: "two operations never overlap in time",
        interaction_expr: parse("((read_start - read_end) + (write_start - write_end))*").unwrap(),
        expressible_by: vec![
            Formalism::Regular,
            Formalism::Path,
            Formalism::Synchronization,
            Formalism::Flow,
            Formalism::CoCoA,
            Formalism::Interaction,
        ],
    }
}

/// A fixed sequential protocol (order — schedule — prepare — ...).
pub fn sequential_protocol() -> Scenario {
    Scenario {
        name: "sequential-protocol",
        description: "activities of a single workflow follow a fixed order",
        interaction_expr: parse("order - schedule - prepare - call - perform - report").unwrap(),
        expressible_by: vec![
            Formalism::Regular,
            Formalism::Path,
            Formalism::Synchronization,
            Formalism::Flow,
            Formalism::CoCoA,
            Formalism::Interaction,
        ],
    }
}

/// Two examinations may happen in either order but not interleaved —
/// the requirement that plain intra-workflow control flow cannot express
/// without enumerating both orders (Sec. 1).
pub fn either_order() -> Scenario {
    Scenario {
        name: "either-order",
        description: "two examinations execute sequentially in either order",
        interaction_expr: parse(
            "((sono_start - sono_end) + (endo_start - endo_end))* & \
             (((sono_start - sono_end) | (endo_start - endo_end))?)",
        )
        .unwrap(),
        expressible_by: vec![
            Formalism::Regular,
            Formalism::Path,
            Formalism::Synchronization,
            Formalism::Flow,
            Formalism::CoCoA,
            Formalism::Interaction,
        ],
    }
}

/// At most three clients in the critical region simultaneously (Fig. 6 for a
/// single, statically known department).
pub fn bounded_capacity() -> Scenario {
    Scenario {
        name: "bounded-capacity",
        description: "at most three concurrent instances of call-perform",
        interaction_expr: parse("mult 3 { (call - perform)* }").unwrap(),
        // Needs true parallel composition of overlapping alphabets: path
        // expression bursts cannot bound the degree, regular expressions
        // would enumerate interleavings.
        expressible_by: vec![Formalism::Flow, Formalism::CoCoA, Formalism::Interaction],
    }
}

/// Arbitrarily many concurrent readers, writers exclusive.
pub fn readers_writers() -> Scenario {
    Scenario {
        name: "readers-writers",
        description: "unbounded concurrent readers, exclusive writers",
        interaction_expr: parse("((read_start - read_end)# + (write_start - write_end))*").unwrap(),
        expressible_by: vec![
            Formalism::Path,
            Formalism::Flow,
            Formalism::CoCoA,
            Formalism::Interaction,
        ],
    }
}

/// Every patient may pass through at most one examination at a time — for a
/// dynamically unbounded set of patients (Fig. 3, middle branch).
pub fn dynamic_patients() -> Scenario {
    Scenario {
        name: "dynamic-patients",
        description: "per-patient mutual exclusion for an unbounded set of patients",
        interaction_expr: parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap(),
        // Requires parameters and quantifiers.
        expressible_by: vec![Formalism::CoCoA, Formalism::Interaction],
    }
}

/// Independently developed constraints are combined without rewriting them
/// (Fig. 7): needs the loose coupling operator.
pub fn modular_combination() -> Scenario {
    Scenario {
        name: "modular-combination",
        description: "combine independently developed subgraphs without auxiliary symbols",
        interaction_expr: parse("(prepare - call - perform)* @ (mult 2 { (call - perform)* })")
            .unwrap(),
        expressible_by: vec![Formalism::Interaction],
    }
}

/// Fully dynamic workflow ensembles: number and identity of participants
/// unknown in advance (the requirement none of the pragmatic approaches of
/// Sec. 1 can satisfy).
pub fn dynamic_ensembles() -> Scenario {
    Scenario {
        name: "dynamic-ensembles",
        description: "coordination of dynamically evolving workflow ensembles",
        interaction_expr: ix_graph_free_fig7(),
        expressible_by: vec![Formalism::Interaction],
    }
}

/// A self-contained rendering of the Fig. 7 coupling (patients × capacity)
/// used by [`dynamic_ensembles`] without depending on `ix-graph`.
fn ix_graph_free_fig7() -> Expr {
    parse(
        "all p { ((some x { prepare(p, x) })# \
                  + some x { call(p, x) - perform(p, x) } \
                  + (some x { inform(p, x) })#)* } \
         @ all x { mult 3 { (some p { call(p, x) - perform(p, x) })* } }",
    )
    .unwrap()
}

/// Renders the scenario × formalism expressibility table.
pub fn render_scenarios() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<22}", "scenario"));
    for f in Formalism::all() {
        out.push_str(&format!("{:>12}", short_name(f)));
    }
    out.push('\n');
    out.push_str(&"-".repeat(22 + 12 * Formalism::all().len()));
    out.push('\n');
    for s in all_scenarios() {
        out.push_str(&format!("{:<22}", s.name));
        for f in Formalism::all() {
            let yes = s.expressible_by.contains(&f);
            out.push_str(&format!("{:>12}", if yes { "yes" } else { "-" }));
        }
        out.push('\n');
    }
    out
}

fn short_name(f: Formalism) -> &'static str {
    match f {
        Formalism::Regular => "regular",
        Formalism::Path => "path",
        Formalism::Synchronization => "sync-expr",
        Formalism::Flow => "flow",
        Formalism::CoCoA => "cocoa",
        Formalism::Interaction => "interaction",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{Action, Value};
    use ix_state::Engine;

    #[test]
    fn every_scenario_has_an_executable_interaction_expression() {
        for s in all_scenarios() {
            assert!(
                Engine::new(&s.interaction_expr).is_ok(),
                "scenario {} must be executable",
                s.name
            );
            assert!(
                s.expressible_by.contains(&Formalism::Interaction),
                "interaction expressions express everything ({})",
                s.name
            );
        }
    }

    #[test]
    fn expressiveness_strictly_increases_towards_interaction_expressions() {
        let counts: Vec<usize> = Formalism::all()
            .into_iter()
            .map(|f| all_scenarios().iter().filter(|s| s.expressible_by.contains(&f)).count())
            .collect();
        let interaction = counts[5];
        assert_eq!(interaction, all_scenarios().len());
        assert!(counts.iter().all(|&c| c <= interaction));
        assert!(counts[0] < interaction, "regular expressions miss several scenarios");
    }

    #[test]
    fn bounded_capacity_scenario_enforces_the_bound() {
        let s = bounded_capacity();
        let mut eng = Engine::new(&s.interaction_expr).unwrap();
        let call = Action::nullary("call");
        for _ in 0..3 {
            assert!(eng.try_execute(&call));
        }
        assert!(!eng.is_permitted(&call), "fourth concurrent call rejected");
    }

    #[test]
    fn dynamic_patients_scenario_is_per_patient() {
        let s = dynamic_patients();
        let mut eng = Engine::new(&s.interaction_expr).unwrap();
        let call = |p: i64, x: &str| Action::concrete("call", [Value::int(p), Value::sym(x)]);
        assert!(eng.try_execute(&call(1, "sono")));
        assert!(!eng.is_permitted(&call(1, "endo")));
        assert!(eng.is_permitted(&call(2, "endo")), "other patients are independent");
    }

    #[test]
    fn rendered_table_lists_every_scenario() {
        let table = render_scenarios();
        for s in all_scenarios() {
            assert!(table.contains(s.name));
        }
        assert!(table.contains("interaction"));
    }
}
