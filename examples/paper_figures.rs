//! Prints the artifact this repository reproduces for each figure and table
//! of the paper: Figs. 1–11, Table 8, and the complexity results of Secs. 4
//! and 6.  The output is deterministic except for the µs columns of Sec. 4.
//!
//! Run with `cargo run --release --example paper_figures [section]`, where
//! `section` is `all` (the default) or one of `fig1` … `fig11`, `table8`,
//! `sec4`, `sec6`.  End-to-end performance is measured by `ixbench`
//! (`benchmark/`), not here.

use ix_core::{display_word, parse, Action, Expr, Value};
use ix_manager::InteractionManager;
use ix_semantics::{denote, Universe};
use ix_state::{classify, init, trans, word_problem, Engine, State, WordStatus};
use ix_wfms::{EnsembleSimulation, SimulationConfig};
use std::time::Instant;

const SECTIONS: [(&str, fn()); 13] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table8", table8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("sec4", sec4),
    ("sec6", sec6),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut ran = false;
    for (name, section) in SECTIONS {
        if arg == "all" || arg == name {
            section();
            ran = true;
        }
    }
    if !ran {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown section `{arg}`: expected `all` or one of {}", names.join(", "));
        std::process::exit(2);
    }
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn fig1() {
    heading("Fig. 1 — medical examination workflows (ultrasonography / endoscopy)");
    for def in [ix_wfms::ultrasonography(), ix_wfms::endoscopy()] {
        println!("workflow `{}` with {} activities:", def.name, def.len());
        for a in &def.activities {
            println!("    {:<28} performed by {}", a.name, a.role);
        }
    }
    let report =
        EnsembleSimulation::new(SimulationConfig { patients: 3, seed: 1, max_steps: 20_000 }).run();
    println!(
        "ensemble run (3 patients, both workflows each): {} instances, {} completed, \
         {} starts, {} vetoed by the interaction manager, {} protocol messages",
        report.instances, report.completed, report.starts, report.denials, report.manager_messages
    );
}

fn fig2() {
    heading("Fig. 2 — formalisms based on extended regular expressions");
    println!("{}", ix_baselines::render_matrix());
    println!("expressibility of concrete synchronization scenarios:\n");
    println!("{}", ix_baselines::render_scenarios());
}

fn fig3() {
    heading("Fig. 3 — integrity constraint for patients (interaction graph)");
    let graph = ix_graph::figures::fig3_patient_constraint();
    let expr = ix_graph::figures::fig3_expr();
    println!("expression: {expr}");
    println!("graph nodes: {}, activities: {:?}", graph.size(), graph.activity_names());
    println!("DOT export ({} bytes); first lines:", ix_graph::to_dot(&graph).len());
    for line in ix_graph::to_dot(&graph).lines().take(5) {
        println!("    {line}");
    }
    demo_patient_constraint(&expr);
}

fn demo_patient_constraint(expr: &Expr) {
    let mut engine = Engine::new(expr).unwrap();
    let call =
        |p: i64, x: &str| Action::concrete("call_patient_start", [Value::int(p), Value::sym(x)]);
    engine.try_execute(&call(1, "sono"));
    println!(
        "after call_patient_start(1, sono): call_patient_start(1, endo) permitted = {}, \
         call_patient_start(2, endo) permitted = {}",
        engine.is_permitted(&call(1, "endo")),
        engine.is_permitted(&call(2, "endo")),
    );
}

fn fig4() {
    heading("Fig. 4 — basic branching operators");
    for graph in [ix_graph::figures::fig4_either_or(), ix_graph::figures::fig4_as_well_as()] {
        let expr = ix_graph::graph_to_expr(&graph, &ix_graph::figures::paper_registry()).unwrap();
        println!("{:<24} => {expr}", graph.name);
    }
}

fn fig5() {
    heading("Fig. 5 — user-defined mutual exclusion operator");
    let reg = ix_graph::figures::paper_registry();
    let expanded = ix_core::parse_with("flash!(x, y, z)", &reg).unwrap();
    println!("flash(x, y, z) expands to: {expanded}");
    let graph = ix_graph::figures::fig5_mutex_definition();
    println!("definition graph has {} nodes", graph.size());
}

fn fig6() {
    heading("Fig. 6 — capacity restriction for examination departments");
    let expr = ix_graph::figures::fig6_expr();
    println!("expression: {expr}");
    let mut engine = Engine::new(&expr).unwrap();
    let call = |p: i64| Action::concrete("call_patient_start", [Value::int(p), Value::sym("sono")]);
    for p in 1..=3 {
        engine.try_execute(&call(p));
        engine.try_execute(&Action::concrete(
            "call_patient_end",
            [Value::int(p), Value::sym("sono")],
        ));
    }
    println!(
        "after three concurrent examinations in `sono`: 4th call permitted = {}, \
         call in `endo` permitted = {}",
        engine.is_permitted(&call(4)),
        engine.is_permitted(&Action::concrete(
            "call_patient_start",
            [Value::int(4), Value::sym("endo")]
        )),
    );
}

fn fig7() {
    heading("Fig. 7 — coupling of the patient and capacity constraints");
    let expr = ix_graph::figures::fig7_expr();
    let classification = classify(&expr);
    println!("expression size: {} nodes, quantifiers: {}", expr.size(), expr.quantifier_count());
    println!("complexity classification: {:?}", classification.benignity);
    for reason in &classification.reasons {
        println!("    - {reason}");
    }
    demo_patient_constraint(&expr);
}

fn table8() {
    heading("Table 8 — formal semantics Φ/Ψ (bounded enumeration)");
    let universe = Universe::new([Value::int(1), Value::int(2)]).with_fresh(1);
    let samples = [
        "a - b",
        "a | b",
        "a + b",
        "a & b",
        "a @ b",
        "(a - b)*",
        "(a - b)#",
        "a?",
        "some p { e(p) }",
        "all p { e(p)? }",
    ];
    println!("{:<18} {:>6} {:>6}   complete words up to length 3", "expression", "|Φ|", "|Ψ|");
    for src in samples {
        let expr = parse(src).unwrap();
        let d = denote(&expr, &universe, 3).unwrap();
        let words: Vec<String> = d.phi.words().take(4).map(|w| display_word(w)).collect();
        println!("{:<18} {:>6} {:>6}   {}", src, d.phi.len(), d.psi.len(), words.join(" "));
    }
}

fn fig9() {
    heading("Fig. 9 — word and action problems");
    let expr =
        parse("(call(1, sono) - perform(1, sono)) + (call(1, endo) - perform(1, endo))").unwrap();
    let word = vec![
        Action::concrete("call", [Value::int(1), Value::sym("sono")]),
        Action::concrete("perform", [Value::int(1), Value::sym("sono")]),
    ];
    println!(
        "word({}) = {:?} (2 = complete, 1 = partial, 0 = illegal)",
        display_word(&word),
        word_problem(&expr, &word).unwrap().code()
    );
    let mut engine = Engine::new(&expr).unwrap();
    for action in [
        Action::concrete("call", [Value::int(1), Value::sym("sono")]),
        Action::concrete("call", [Value::int(1), Value::sym("endo")]),
        Action::concrete("perform", [Value::int(1), Value::sym("sono")]),
    ] {
        let accepted = engine.try_execute(&action);
        println!("action {action}: {}", if accepted { "Accept." } else { "Reject." });
    }
}

fn fig10() {
    heading("Fig. 10 — coordination and subscription protocols");
    let constraint = parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap();
    let manager = InteractionManager::new(&constraint).unwrap();
    let call = |p: i64, x: &str| Action::concrete("call", [Value::int(p), Value::sym(x)]);
    let perform = |p: i64, x: &str| Action::concrete("perform", [Value::int(p), Value::sym(x)]);
    manager.subscribe(2, &call(1, "endo"));
    println!(
        "client 2 subscribes to call(1, endo): currently permitted = {}",
        manager.is_permitted(&call(1, "endo"))
    );
    let r = manager.ask(1, &call(1, "sono")).unwrap().unwrap();
    let notes = manager.confirm(r).unwrap();
    println!("client 1 executes call(1, sono); notifications sent: {}", notes.len());
    for n in &notes {
        println!(
            "    inform client {}: {} is now {}",
            n.client,
            n.action,
            if n.permitted { "permissible" } else { "not permissible" }
        );
    }
    let r = manager.ask(1, &perform(1, "sono")).unwrap().unwrap();
    let notes = manager.confirm(r).unwrap();
    println!("client 1 executes perform(1, sono); notifications sent: {}", notes.len());
    println!("manager statistics: {:?}", manager.stats());
}

fn fig11() {
    heading("Fig. 11 — adaptation of worklist handlers vs. workflow engines");
    let report_wl = adapted_worklists_demo();
    let report_en = adapted_engine_demo();
    println!("{:<34} {:>10} {:>12}", "architecture", "messages", "waterproof");
    println!("{:<34} {:>10} {:>12}", "adapted worklist handlers", report_wl, "no");
    println!("{:<34} {:>10} {:>12}", "adapted workflow engine", report_en, "yes");
}

fn adapted_worklists_demo() -> u64 {
    use ix_wfms::{AdaptedWorklistHandler, CaseData, ManagerPort, WorkflowEngine};
    let constraint = ix_wfms::ensemble_constraint();
    let mut engine = WorkflowEngine::new();
    let port = ManagerPort::new(&constraint, 1).unwrap();
    let shared = port.handle();
    let mut a = AdaptedWorklistHandler::new("sono_assistant", port);
    let mut b = AdaptedWorklistHandler::new("sono_physician", ManagerPort::shared(shared, 2));
    engine.start_instance(
        &ix_wfms::ultrasonography(),
        CaseData { patient: 1, examination: "sono".into() },
    );
    let mut steps = 0;
    while !engine.all_finished() && steps < 100 {
        steps += 1;
        let items = engine.all_worklist_items();
        for item in items {
            let handler = if item.role == "sono_physician" { &mut b } else { &mut a };
            let _ = handler.visible_items(&engine);
            if handler.start(&mut engine, item.instance, item.activity).is_ok() {
                handler.complete(&mut engine, item.instance, item.activity).unwrap();
            }
        }
    }
    a.messages() + b.messages()
}

fn adapted_engine_demo() -> u64 {
    use ix_wfms::{AdaptedEngine, CaseData, ManagerPort};
    let constraint = ix_wfms::ensemble_constraint();
    let mut engine = AdaptedEngine::new(ManagerPort::new(&constraint, 1).unwrap());
    engine.start_instance(
        &ix_wfms::ultrasonography(),
        CaseData { patient: 1, examination: "sono".into() },
    );
    let mut steps = 0;
    while !engine.all_finished() && steps < 100 {
        steps += 1;
        let items = engine.engine().all_worklist_items();
        for item in items {
            if engine.start_activity(item.instance, item.activity).is_ok() {
                engine.complete_activity(item.instance, item.activity).unwrap();
            }
        }
    }
    engine.messages()
}

fn sec4() {
    heading("Sec. 4 — naive formal-semantics algorithm vs. operational state model");
    let expr = naive_vs_operational_expr();
    println!("expression: {expr}");
    println!("{:>10} {:>16} {:>16}", "word len", "naive (µs)", "operational (µs)");
    for n in [1usize, 2, 3] {
        let word = naive_vs_operational_word(n);
        assert_ne!(word_problem(&expr, &word).unwrap(), WordStatus::Illegal, "Sec. 4 word");
        let naive = time_naive(&expr, &word) as f64 / 1000.0;
        let operational = time_operational(&expr, &word) as f64 / 1000.0;
        println!("{:>10} {:>16.1} {:>16.1}", word.len(), naive, operational);
    }
    for n in [8usize, 16, 32] {
        let word = naive_vs_operational_word(n);
        let operational = time_operational(&expr, &word) as f64 / 1000.0;
        println!("{:>10} {:>16} {:>16.1}", word.len(), "(intractable)", operational);
    }
}

fn sec6() {
    heading("Sec. 6 — state growth: harmless, benign and malignant expressions");
    println!("quasi-regular (harmless): state size stays constant");
    let expr = quasi_regular_expr(2);
    for row in growth_profile(&expr, &ab_word(64), 16) {
        println!(
            "    len {:>4}: state size {:>5}, alternatives {:>5}",
            row.length, row.state_size, row.alternatives
        );
    }
    println!("benign quantified (Fig. 7): polynomial growth with the number of patients");
    let expr = ix_graph::figures::fig7_expr();
    for patients in [2usize, 4, 8] {
        let word = examination_word(patients, 2, 1);
        let rows = growth_profile(&expr, &word, word.len());
        let last = rows.last().unwrap();
        println!(
            "    {:>2} patients ({:>3} actions): state size {:>6}, alternatives {:>5}",
            patients,
            word.len(),
            last.state_size,
            last.alternatives
        );
    }
    println!("malignant family (a# - b)#: super-polynomial growth");
    let expr = ix_state::analysis::malignant_family();
    let mut state = init(&expr).unwrap();
    for (i, action) in ix_state::analysis::malignant_word(12).iter().enumerate() {
        state = trans(&state, action);
        if (i + 1) % 3 == 0 {
            println!("    len {:>3}: alternatives {:>8}", i + 1, state.alternative_count());
        }
    }
    println!("classification of the paper's constraints:");
    for (name, expr) in [
        ("Fig. 3 patient constraint", ix_graph::figures::fig3_expr()),
        ("Fig. 6 capacity constraint", ix_graph::figures::capacity_constraint_expr(3)),
        ("Fig. 7 coupled constraint", ix_graph::figures::fig7_expr()),
        ("malignant family", ix_state::analysis::malignant_family()),
    ] {
        let c = classify(&expr);
        println!("    {:<28} -> {:?}", name, c.benignity);
    }
}

// ---------------------------------------------------------------------------
// Expression families and words of the complexity sections.
// ---------------------------------------------------------------------------

/// One row of a growth table: word length vs. state size.
struct GrowthRow {
    /// Number of actions processed so far.
    length: usize,
    /// State size after processing them.
    state_size: usize,
    /// Number of alternatives in the state.
    alternatives: usize,
}

/// Feeds a word through the state model and records the state's size after
/// every `stride`-th action.
fn growth_profile(expr: &Expr, word: &[Action], stride: usize) -> Vec<GrowthRow> {
    let mut state = init(expr).expect("benchmark expressions are closed");
    let mut rows = Vec::new();
    for (i, action) in word.iter().enumerate() {
        state = trans(&state, action);
        if (i + 1) % stride == 0 || i + 1 == word.len() {
            rows.push(GrowthRow {
                length: i + 1,
                state_size: state.size(),
                alternatives: state.alternative_count(),
            });
        }
        assert!(!matches!(state, State::Null), "benchmark word must stay permissible");
    }
    rows
}

/// Total wall-clock time (nanoseconds) for running the whole word through the
/// operational model.
fn time_operational(expr: &Expr, word: &[Action]) -> u128 {
    let t0 = Instant::now();
    let _ = word_problem(expr, word).expect("closed expression");
    t0.elapsed().as_nanos()
}

/// Total wall-clock time (nanoseconds) for deciding the same word with the
/// naive formal-semantics algorithm of Sec. 4.
fn time_naive(expr: &Expr, word: &[Action]) -> u128 {
    let t0 = Instant::now();
    let _ = ix_semantics::classify_word(expr, word).expect("closed expression");
    t0.elapsed().as_nanos()
}

/// The quasi-regular expression family: nested sequences, choices and
/// bounded parallel compositions, but no parallel iteration and no
/// quantifiers.  `depth` controls nesting.
fn quasi_regular_expr(depth: usize) -> Expr {
    let mut src = String::from("(a - b)*");
    for _ in 0..depth {
        src = format!("(({src}) + (c - d)* | (e - f)*)");
    }
    parse(&src).expect("generated quasi-regular expression")
}

/// A word that keeps [`quasi_regular_expr`] permissible: repetitions of
/// `a b`.
fn ab_word(n: usize) -> Vec<Action> {
    let a = Action::nullary("a");
    let b = Action::nullary("b");
    (0..n).map(|i| if i % 2 == 0 { a.clone() } else { b.clone() }).collect()
}

/// A workload word for the capacity/patient constraints: `patients` patients
/// are called and examined in `departments` departments, interleaved
/// round-robin so that at most `capacity` examinations per department are in
/// progress at any time.  The word consists of the activity start/end actions
/// used by Figs. 3, 6 and 7.
fn examination_word(patients: usize, departments: usize, rounds: usize) -> Vec<Action> {
    let mut word = Vec::new();
    let dept = |d: usize| Value::sym(&format!("dept_{d}"));
    for round in 0..rounds {
        for p in 0..patients {
            let patient = Value::Int((p + 1) as i64);
            let x = dept((p + round) % departments.max(1));
            for activity in ["call_patient", "perform_examination"] {
                word.push(Action::concrete(&format!("{activity}_start"), [patient, x]));
                word.push(Action::concrete(&format!("{activity}_end"), [patient, x]));
            }
        }
    }
    word
}

/// A simple expression whose naive (formal-semantics) decision procedure
/// explodes with the word length while the operational model stays flat:
/// the mutual exclusion of three branches under iteration.
fn naive_vs_operational_expr() -> Expr {
    parse("((a - b) + (c - d) + (e - f))* | (g - h)*").expect("static expression")
}

/// A word driving [`naive_vs_operational_expr`]: alternating mutual-exclusion
/// rounds and overlapping g/h pairs.
fn naive_vs_operational_word(n: usize) -> Vec<Action> {
    let mut word = Vec::new();
    let pairs = [("a", "b"), ("c", "d"), ("e", "f")];
    for i in 0..n {
        let (x, y) = pairs[i % pairs.len()];
        word.push(Action::nullary(x));
        word.push(Action::nullary("g"));
        word.push(Action::nullary(y));
        word.push(Action::nullary("h"));
    }
    word
}
