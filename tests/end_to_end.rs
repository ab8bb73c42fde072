//! Cross-crate integration tests: the paper's figures wired together —
//! interaction graphs → expressions → operational engine → interaction
//! manager → workflow management system.

use ix_core::{parse, Action, Value};
use ix_graph::figures;
use ix_manager::{InteractionManager, ProtocolVariant};
use ix_state::{classify, Benignity, Engine};
use ix_wfms::{EnsembleSimulation, SimulationConfig};

fn start(activity: &str, p: i64, x: &str) -> Action {
    Action::concrete(&format!("{activity}_start"), [Value::int(p), Value::sym(x)])
}

fn end(activity: &str, p: i64, x: &str) -> Action {
    Action::concrete(&format!("{activity}_end"), [Value::int(p), Value::sym(x)])
}

#[test]
fn introduction_scenario_mutual_exclusion_of_examinations() {
    // The motivating scenario of Sec. 1: once one of the two `call patient`
    // activities is executed, the other temporarily disappears from the
    // worklists; after `perform examination` completes it reappears.
    let expr = figures::fig3_expr();
    let manager = InteractionManager::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let sono_call = start("call_patient", 1, "sono");
    let endo_call = start("call_patient", 1, "endo");
    // Both calls offered.
    assert!(manager.is_permitted(&sono_call));
    assert!(manager.is_permitted(&endo_call));
    // Worklist handlers subscribe to the calls they display.
    assert!(manager.subscribe(10, &endo_call));
    // The ultrasonography call is executed.
    let notes = manager.try_execute(1, &sono_call).unwrap().unwrap();
    assert!(
        notes.iter().any(|n| n.action == endo_call && !n.permitted),
        "the endoscopy worklist is told to disable its call item"
    );
    manager.try_execute(1, &end("call_patient", 1, "sono")).unwrap().unwrap();
    manager.try_execute(1, &start("perform_examination", 1, "sono")).unwrap().unwrap();
    let notes = manager.try_execute(1, &end("perform_examination", 1, "sono")).unwrap().unwrap();
    assert!(
        notes.iter().any(|n| n.action == endo_call && n.permitted),
        "after the examination the endoscopy call reappears"
    );
}

#[test]
fn graphs_expressions_and_engine_agree_on_fig7() {
    let graph = figures::fig7_coupled_constraints();
    let expr = ix_graph::graph_to_expr(&graph, &figures::paper_registry()).unwrap();
    assert_eq!(expr, figures::fig7_expr());
    // The graph validates: complete words are reachable and every activity
    // of the graph can eventually be executed.
    let report = ix_graph::validate_expr(
        &expr,
        ix_graph::ExplorationBudget { max_depth: 5, max_states: 400, sample_values: 1 },
    )
    .unwrap();
    assert!(report.completable);
    // The DOT rendering mentions every activity of the graph.
    let dot = ix_graph::to_dot(&graph);
    for name in graph.activity_names() {
        assert!(dot.contains(&name), "missing {name} in DOT output");
    }
}

#[test]
fn federation_matches_single_manager_with_coupled_expression() {
    // Fig. 7 couples two subconstraints, patients (Fig. 3) and capacity
    // (Fig. 6).  The partition gives each a shard of its own — one manager
    // per subconstraint, federated — and a shared action executes iff both
    // permit it: the schedule must be accepted and denied exactly as by one
    // manager holding the whole expression, and each veto must be the veto
    // of the member named here.
    let expr = figures::fig7_expr();
    let sharded = InteractionManager::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let single = InteractionManager::monolithic(&expr, ProtocolVariant::Combined).unwrap();
    assert_eq!(sharded.shard_count(), 2, "patients and capacity");
    assert_eq!(single.shard_count(), 1);
    let members = [
        ("patients", InteractionManager::new(&figures::fig3_expr()).unwrap()),
        ("capacity", InteractionManager::new(&figures::fig6_expr()).unwrap()),
    ];

    let schedule = [
        (start("call_patient", 1, "sono"), None),
        (end("call_patient", 1, "sono"), None),
        (start("call_patient", 2, "sono"), None),
        (start("call_patient", 1, "endo"), Some("patients")), // patient 1 mid-examination
        (end("call_patient", 2, "sono"), None),
        (start("call_patient", 3, "sono"), None),
        (end("call_patient", 3, "sono"), None),
        (start("call_patient", 4, "sono"), Some("capacity")), // capacity of sono exhausted
        (start("perform_examination", 1, "sono"), None),
        (end("perform_examination", 1, "sono"), None),
        (start("call_patient", 4, "sono"), None), // now fine
    ];
    for (action, veto) in schedule {
        let vetoes: Vec<&str> = members
            .iter()
            .filter(|(_, m)| m.controls(&action) && !m.is_permitted(&action))
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(vetoes, Vec::from_iter(veto), "who vetoes {action}");
        let permitted = veto.is_none();
        assert_eq!(sharded.try_execute(1, &action).unwrap().is_some(), permitted, "{action}");
        assert_eq!(single.try_execute(1, &action).unwrap().is_some(), permitted, "{action}");
        if permitted {
            for (_, member) in members.iter().filter(|(_, m)| m.controls(&action)) {
                assert!(member.try_execute(1, &action).unwrap().is_some());
            }
        }
    }
    assert_eq!(sharded.log(), single.log());
}

#[test]
fn complexity_classification_matches_sec6_expectations() {
    assert_eq!(classify(&parse("(a - b)* & (c + d)").unwrap()).benignity, Benignity::Harmless);
    assert!(matches!(classify(&figures::fig6_expr()).benignity, Benignity::Benign { .. }));
    assert_eq!(
        classify(&ix_state::analysis::malignant_family()).benignity,
        Benignity::PotentiallyMalignant
    );
}

#[test]
fn ensemble_simulation_is_deterministic_for_a_seed() {
    let config = SimulationConfig { patients: 2, seed: 123, max_steps: 20_000 };
    let a = EnsembleSimulation::new(config).run();
    let b = EnsembleSimulation::new(config).run();
    assert_eq!(a, b, "same seed, same outcome");
    assert_eq!(a.completed, a.instances);
}

#[test]
fn baseline_formalisms_compile_into_the_same_engine() {
    // The path-expression mutual exclusion and the equivalent interaction
    // expression accept the same schedules.
    let path = ix_baselines::path_expr::mutual_exclusion_path(&["sono", "endo"]).to_expr().unwrap();
    let native = parse("((sono_start - sono_end) + (endo_start - endo_end))*").unwrap();
    let words: Vec<Vec<Action>> = vec![
        vec![Action::nullary("sono_start"), Action::nullary("sono_end")],
        vec![Action::nullary("sono_start"), Action::nullary("endo_start")],
        vec![
            Action::nullary("endo_start"),
            Action::nullary("endo_end"),
            Action::nullary("sono_start"),
            Action::nullary("sono_end"),
        ],
    ];
    for w in words {
        assert_eq!(
            ix_state::word_problem(&path, &w).unwrap().code(),
            ix_state::word_problem(&native, &w).unwrap().code(),
            "disagreement on {}",
            ix_core::display_word(&w)
        );
    }
}

#[test]
fn manager_recovery_preserves_decisions_mid_ensemble() {
    let expr = figures::fig7_expr();
    let manager = InteractionManager::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let prefix = [
        start("call_patient", 1, "sono"),
        end("call_patient", 1, "sono"),
        start("call_patient", 2, "sono"),
        end("call_patient", 2, "sono"),
    ];
    for a in &prefix {
        manager.try_execute(1, a).unwrap().unwrap();
    }
    let log = manager.log().to_vec();
    let recovered = InteractionManager::recover(&expr, ProtocolVariant::Combined, &log).unwrap();
    // The recovered manager gives the same answers as the original.
    for probe in [
        start("call_patient", 1, "endo"),
        start("call_patient", 3, "sono"),
        start("perform_examination", 2, "sono"),
    ] {
        assert_eq!(manager.is_permitted(&probe), recovered.is_permitted(&probe), "{probe}");
    }
}

#[test]
fn engine_enforces_either_order_but_not_interleaving() {
    // "typical intra-workflow control structures ... do not allow to
    // describe a sequential execution in either order" — the interaction
    // expression does, in one line.
    let expr = parse(
        "((sono_start - sono_end) + (endo_start - endo_end))* & \
         ((sono_start - sono_end) | (endo_start - endo_end))",
    )
    .unwrap();
    let mut either_order = Engine::new(&expr).unwrap();
    for name in ["endo_start", "endo_end", "sono_start", "sono_end"] {
        assert!(either_order.try_execute(&Action::nullary(name)), "{name}");
    }
    assert!(either_order.is_final());
    let mut interleaved = Engine::new(&expr).unwrap();
    assert!(interleaved.try_execute(&Action::nullary("sono_start")));
    assert!(!interleaved.try_execute(&Action::nullary("endo_start")), "no interleaving");
}
