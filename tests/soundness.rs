//! The soundness explorer end to end: `ix_graph::validate_expr` grounds an
//! expression and explores its engine; every trap it names is confirmed by
//! the `ix_semantics` oracle, and the paper's figures and the benchmark's
//! workload expressions have none.

use ix_core::{parse, Action, Expr};
use ix_graph::{figures, validate_expr, validate_graph, ExplorationBudget, ValidationReport};
use ix_semantics::{is_complete, is_partial};
use ix_state::{soundness, Engine, Verdict};

fn actions(names: &str) -> Vec<Action> {
    names.split_whitespace().map(Action::nullary).collect()
}

/// The oracle's word on a trap witness: a partial word of `expr` that no
/// extension by ≤ 3 actions of `alphabet` completes.
fn confirm_trap(expr: &Expr, alphabet: &[Action], witness: &[Action]) {
    assert!(is_partial(expr, witness), "{witness:?} is no partial word of {expr}");
    let mut words = vec![witness.to_vec()];
    for _ in 0..=3 {
        let mut longer = Vec::new();
        for word in words {
            assert!(!is_complete(expr, &word), "{word:?} completes {expr}");
            longer.extend(alphabet.iter().map(|a| [&word[..], std::slice::from_ref(a)].concat()));
        }
        words = longer;
    }
}

/// Validates `source` within the default budget, confirms every trap it
/// reports, and returns the report.
fn validated(source: &str) -> ValidationReport {
    let expr = parse(source).unwrap();
    let report = validate_expr(&expr, ExplorationBudget::default()).unwrap();
    let alphabet: Vec<Action> = expr.alphabet().actions().cloned().collect();
    for witness in &report.traps {
        confirm_trap(&expr, &alphabet, witness);
    }
    report
}

#[test]
fn a_trap_behind_a_completable_branch_is_named() {
    // `y - b - a` completes, so a search for *some* complete word calls
    // this fine; after `x` the operands wait on each other forever.
    let source = "(x - a - b + y - b - a) @ (b - a)*";
    let report = validated(source);
    assert!(report.completable && report.never_permitted.is_empty() && report.closed);
    assert_eq!(report.explored_states, 5);
    assert_eq!(report.traps, vec![actions("x")]);
    assert_eq!(report.verdict(), Verdict::Unsound);
    // The explorer itself, from an engine, over the alphabet as written.
    let mut engine = Engine::new(&parse(source).unwrap()).unwrap();
    let found = soundness(&mut engine, &actions("a b x y"), ExplorationBudget::default());
    assert_eq!(found.traps, vec![actions("x")]);
    let report = validated("(x - (a - b) + y) @ (b - a)*");
    assert_eq!((report.never_permitted, report.traps), (actions("a b"), vec![actions("x")]));
}

#[test]
fn a_coupling_that_strands_every_word_is_a_trap_at_sigma() {
    // ROADMAP item 22's coupling: `(b - a)` forbids the left operand's
    // order, so no word completes and σ is the trap.
    let report = validated("((a - b) | c) @ (b - a)");
    assert!(!report.completable && report.closed);
    assert_eq!(report.never_permitted, actions("a b"));
    assert_eq!(report.traps, vec![vec![]]);
}

/// The benchmark's workload expressions, rebuilt from their texts:
/// `local_sync` (and `durable_commit`), `local_pipelined`, `ensemble_fig7`,
/// `cross_chain` and `mixed_open`.
fn workload_exprs() -> Vec<(&'static str, Expr)> {
    let coupled = |parts: Vec<String>| parse(&parts.join(" @ ")).unwrap();
    let local_sync = (0..4).map(|k| format!("(some p {{ call_{k}(p) - perform_{k}(p) }})*"));
    let rings = (0..4).map(|k| format!("(call_{k} - prep_{k} - perform_{k} - report_{k})*"));
    let ensemble = |n: usize| {
        let group = |k| format!("((some p {{ call_dept{k}(p) - perform_dept{k}(p) }})* - audit)*");
        coupled((0..n).map(group).collect())
    };
    vec![
        ("local_sync", coupled(local_sync.collect())),
        ("local_pipelined", coupled(rings.collect())),
        ("ensemble_fig7", figures::fig7_expr()),
        ("cross_chain", ensemble(4)),
        ("mixed_open", ensemble(8)),
    ]
}

#[test]
fn the_paper_figures_and_the_workloads_have_no_trap_and_no_dead_action() {
    let budget = ExplorationBudget { max_depth: 20, max_states: 2_000, sample_values: 1 };
    let graphs = [
        figures::fig3_patient_constraint(),
        figures::fig4_either_or(),
        figures::fig4_as_well_as(),
        figures::fig5_mutex_definition(),
        figures::fig6_capacity_constraint(),
        figures::fig7_coupled_constraints(),
    ];
    let figures = graphs
        .iter()
        .map(|g| (g.name.clone(), validate_graph(g, &figures::paper_registry(), budget).unwrap()));
    let workloads = workload_exprs()
        .into_iter()
        .map(|(name, expr)| (name.to_string(), validate_expr(&expr, budget).unwrap()));
    for (name, report) in figures.chain(workloads) {
        println!("{name}: {} states, {:?}", report.explored_states, report.verdict());
        assert!(report.traps.is_empty(), "{name}: {:?}", report.traps);
        assert!(report.never_permitted.is_empty(), "{name}: {:?}", report.never_permitted);
        assert!(report.completable, "{name}");
        assert_ne!(report.verdict(), Verdict::Unsound, "{name}");
        assert_eq!(report.verdict() == Verdict::Sound, report.closed, "{name}");
    }
}
