//! `ixctl` — command-line front end for interaction expressions.
//!
//! ```text
//! ixctl check    '<expression>'            parse, classify, explore for traps and dead actions
//! ixctl simplify '<expression>'            apply the algebraic simplification pass
//! ixctl dot      '<expression>'            print the Graphviz rendering of the graph view
//! ixctl word     '<expression>' a b(1) …   solve the word problem for the given actions
//! ixctl run      '<expression>'            action problem: read one action per stdin line
//! ixctl snapshot inspect <vault-dir>       describe a durability vault without opening it
//! ixctl recover  <vault-dir>               crash-recover a vault and report the state
//! ```
//!
//! Actions on the command line / stdin use the same syntax as atomic
//! expressions, e.g. `call(1, sono)`.  The standard template registry
//! (`mutex!`, `mutex2!`) and the paper's `flash!` operator are available.
//! The vault commands take the directory a durable
//! [`ix_manager::ManagerRuntime`] journaled into
//! (`ManagerRuntime::with_durability_path`).

use ix_core::{parse_with, Action, CoreResult, Expr, ExprKind, TemplateRegistry};
use ix_graph::{from_expr, to_dot, validate_expr, ExplorationBudget, InteractionGraph};
use ix_manager::{inspect_vault, FileVault, FsyncPolicy, ManagerRuntime, RuntimeOptions, Vault};
use ix_state::{classify, Engine, WordStatus};
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

fn registry() -> TemplateRegistry {
    let mut reg = TemplateRegistry::with_standard_operators();
    // The paper's three-branch mutual exclusion operator under its own name.
    let _ = reg.register(ix_core::TemplateDef::new(
        "flash",
        ["x", "y", "z"].map(ix_core::Symbol::new),
        Expr::seq_iter(Expr::or(Expr::or(Expr::hole("x"), Expr::hole("y")), Expr::hole("z"))),
    ));
    reg
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: ixctl <check|simplify|dot|word|run> '<expression>' [actions...]\n\
                 \x20      ixctl snapshot inspect <vault-dir>\n\
                 \x20      ixctl recover <vault-dir>";
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    // The vault commands take a directory, not an expression.
    match command {
        "snapshot" => {
            let dir = match rest {
                [sub, dir] if sub == "inspect" => dir,
                _ => {
                    eprintln!("usage: ixctl snapshot inspect <vault-dir>");
                    return ExitCode::from(2);
                }
            };
            return snapshot_inspect(dir);
        }
        "recover" => {
            let [dir] = rest else {
                eprintln!("usage: ixctl recover <vault-dir>");
                return ExitCode::from(2);
            };
            return recover(dir);
        }
        _ => {}
    }
    // Of the expression commands, only `word` takes arguments after it.
    let one_argument = matches!(command, "check" | "simplify" | "dot" | "run");
    let Some(source) = rest.first().filter(|_| !one_argument || rest.len() == 1) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let expr = match parse_with(source, &registry()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match command {
        "check" => check(&expr),
        "simplify" => {
            println!("{}", ix_core::simplify(&expr));
            Ok(())
        }
        "dot" => {
            let graph = InteractionGraph::new(source.as_str(), from_expr(&expr));
            println!("{}", to_dot(&graph));
            Ok(())
        }
        "word" => word(&expr, &rest[1..]),
        "run" => run(&expr),
        other => {
            eprintln!("unknown command `{other}`\n{usage}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// `ixctl snapshot inspect <dir>` — describes a durability vault (topology,
/// manifest, per-shard snapshots and log tails) without recovering it.
fn snapshot_inspect(dir: &str) -> ExitCode {
    let vault: Arc<dyn Vault> = match FileVault::open(dir, FsyncPolicy::Never) {
        Ok(v) => Arc::new(v),
        Err(e) => {
            eprintln!("error: cannot open vault at `{dir}`: {e}");
            return ExitCode::from(1);
        }
    };
    let inspection = match inspect_vault(&vault) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    println!("vault      : {dir}");
    println!("expression : {}", inspection.expr);
    println!("topology   : {} components, epoch {}", inspection.components, inspection.epoch);
    if inspection.manifest {
        println!("manifest   : present (clock {})", inspection.clock);
    } else {
        println!("manifest   : none (no checkpoint yet)");
    }
    println!("meta tail  : {} records", inspection.meta_tail);
    for s in &inspection.shards {
        let snapshot = if s.snapshot {
            format!("snapshot {} B (log epoch {})", s.snapshot_bytes, s.epoch)
        } else {
            "no snapshot".to_string()
        };
        println!(
            "shard {:>4} : {snapshot}, {} log entries ({} archived in {} history records), \
             {} reservations, covered {} + {} tail records",
            s.shard,
            s.log_entries,
            s.archived_entries,
            s.history_records,
            s.reservations,
            s.covered,
            s.tail_records
        );
    }
    ExitCode::SUCCESS
}

/// `ixctl recover <dir>` — crash-recovers the vault, reports the recovered
/// state, and shuts the runtime back down (journaling nothing new).
fn recover(dir: &str) -> ExitCode {
    let runtime = match ManagerRuntime::recover_path(dir, RuntimeOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: recovery failed: {e}");
            return ExitCode::from(1);
        }
    };
    let sched = runtime.sched_stats();
    let report = match runtime.shutdown() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: post-recovery shutdown failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!("recovered  : {dir}");
    println!("shards     : {}", report.shards);
    println!("workers    : {} (shard s on worker s % {})", sched.workers, sched.workers);
    println!("clock      : {}", report.clock);
    println!("log        : {} committed actions", report.log.len());
    for action in report.log.iter().rev().take(5).rev() {
        println!("             … {action}");
    }
    println!("stats      : {:?}", report.stats);
    ExitCode::SUCCESS
}

/// What a command fails with: a parse, state-model or stdin error.
type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn check(expr: &Expr) -> CmdResult {
    println!("expression : {expr}");
    println!("size       : {} nodes, depth {}", expr.size(), expr.depth());
    println!("alphabet   : {}", expr.alphabet());
    let report = validate_expr(expr, ExplorationBudget::default());
    match &report {
        Ok(_) => println!("state model: executable"),
        Err(e) => println!("state model: NOT executable ({e})"),
    }
    let c = classify(expr);
    println!("complexity : {:?}", c.benignity);
    for reason in &c.reasons {
        println!("             - {reason}");
    }
    let Ok(report) = report else { return Ok(()) };
    let closed = if report.closed { "closed" } else { "budget ran out" };
    println!("soundness  : {:?} ({} states, {closed})", report.verdict(), report.explored_states);
    println!("completable: {}", report.completable);
    let dead: Vec<String> = report.never_permitted.iter().map(Action::to_string).collect();
    println!("dead       : [{}]", dead.join(", "));
    for witness in &report.traps {
        let word: Vec<String> = witness.iter().map(Action::to_string).collect();
        println!("trap       : after ⟨{}⟩", word.join(" "));
    }
    Ok(())
}

fn word(expr: &Expr, action_sources: &[String]) -> CmdResult {
    let actions = parse_actions(action_sources)?;
    let status = ix_state::word_problem(expr, &actions)?;
    let name = match status {
        WordStatus::Complete => "complete",
        WordStatus::Partial => "partial",
        WordStatus::Illegal => "illegal",
    };
    println!("{} ({})", status.code(), name);
    Ok(())
}

fn run(expr: &Expr) -> CmdResult {
    let mut engine = Engine::new(expr)?;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let action = parse_action(trimmed)?;
        let accepted = engine.try_execute(&action);
        println!("{}", if accepted { "Accept." } else { "Reject." });
    }
    println!(
        "processed {} accepted / {} rejected; complete = {}",
        engine.accepted(),
        engine.rejected(),
        engine.is_final()
    );
    Ok(())
}

fn parse_actions(sources: &[String]) -> CoreResult<Vec<Action>> {
    sources.iter().map(|s| parse_action(s)).collect()
}

/// Parses a single concrete action using the expression parser (an atomic
/// expression whose arguments are all values).
fn parse_action(source: &str) -> CoreResult<Action> {
    let expr = ix_core::parse(source)?;
    match expr.kind() {
        ExprKind::Atom(a) if a.is_concrete() => Ok(a.clone()),
        _ => Err(ix_core::CoreError::Parse {
            position: 0,
            message: format!("`{source}` is not a concrete action"),
        }),
    }
}
