//! `ixbench` — one end-to-end benchmark for the interaction manager.
//!
//! ```text
//! ixbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ixbench run|trace|selfcheck [--seed <n>] [--seconds <s>] [--quick]
//! ```
//!
//! The first form runs one workload in this process and prints its result
//! object as the last line of standard output (the contract `BENCHMARK.json`
//! describes).  `run`, `trace` and `selfcheck` run every workload that way,
//! each in a child process of this binary, and print the metrics by name.

mod harness;
mod json;
mod layers;
mod rng;
mod schedule;
mod stats;
mod trace;
mod workloads;

use harness::{Config, Outcome};
use json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Id, OPEN_RATE};

fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The commit checked out above `benchmark/`, read without running git; a
/// checkout without `.git` has none.
fn git_sha(repo: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(repo.join(".git/HEAD")) else { return "none".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(repo.join(".git").join(reference))
        .or_else(|| {
            let packed = read(repo.join(".git/packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split(' ').next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What every result carries: where and with what it was measured.
fn host_block(cfg: &Config) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sizes = Id::ALL.into_iter().map(|id| {
        let of = Config { id, out_dir: PathBuf::new(), ..*cfg };
        (id.name(), Json::Num(of.ops() as f64))
    });
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        ("rustc", Json::str(env!("IXBENCH_RUSTC"))),
        ("git_sha", Json::str(git_sha(&manifest_dir().join("..")))),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds as f64)),
        ("quick", Json::Bool(cfg.quick)),
        ("repetitions", Json::Num(cfg.reps() as f64)),
        ("ops_per_repetition", Json::obj(sizes)),
        ("fsync_policy", Json::str("Interval(64)")),
        ("open_loop_rate_ops_s", Json::Num(OPEN_RATE as f64)),
    ])
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (*name, Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]))
    }))
}

fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.violations.is_empty())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { command: None, workload: None, seed: 1, seconds: 10, trace: false, quick: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--quick" => args.quick = true,
            "run" | "trace" | "selfcheck" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(args)
}

/// Stolen CPU time, in milliseconds, from which a run with failed ops is put
/// down to the host and repeated.  Only the open loop can have ops refused: at
/// 50 000 ops/s its admission gate sheds once the worker has been held back
/// for some 40 ms.  A run loses 10-25 ms to the hypervisor in passing.
const STALL_MS: u64 = 50;

/// Runs one workload in this process; the result object is the last line.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(id) = Id::from_name(name) else {
        eprintln!("unknown workload {name}; known: {:?}", Id::ALL.map(Id::name));
        return ExitCode::from(2);
    };
    let cfg = Config {
        id,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        out_dir: manifest_dir().join("out"),
    };
    let run = || if args.trace { harness::run_traced(&cfg) } else { harness::run_untraced(&cfg) };
    let mut outcome = run();
    println!("host: {}", host_block(&cfg));
    if outcome.failed > 0 && outcome.stolen_ms >= STALL_MS {
        // That says nothing about the program: the run is repeated, once.
        println!(
            "note: {} ops failed while the hypervisor held back {} ms of CPU time; run repeated",
            outcome.failed, outcome.stolen_ms
        );
        outcome = run();
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for violation in &outcome.violations {
        println!("VIOLATION: {violation}");
    }
    if !outcome.measured.is_empty() {
        println!("measured: {}", metrics_json(&outcome.measured));
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// One child's parsed result.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
    /// The `measured:` line of an untraced run: timed, printed, not gated.
    measured: Vec<(String, f64, String)>,
}

fn parse_metrics(object: &Json) -> Result<Vec<(String, f64, String)>, String> {
    object
        .fields()
        .iter()
        .map(|(name, m)| {
            let value =
                m.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect()
}

/// Runs one workload in a child process of this binary (so `rss_peak_mb` is
/// the workload's own) and parses its last line.
fn spawn_one(args: &Args, id: Id, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", id.name(), "--seed", &args.seed.to_string()]).args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("spawning {}: {e}", id.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("VIOLATION")) {
        println!("  {}: {line}", id.name());
    }
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            id.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(last)?;
    let field = |key: &str| result.get(key).ok_or(format!("result lacks {key}"));
    let measured = match stdout.lines().find_map(|l| l.strip_prefix("measured: ")) {
        Some(line) => parse_metrics(&Json::parse(line)?)?,
        None => Vec::new(),
    };
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics: parse_metrics(field("metrics")?)?,
        measured,
    })
}

/// Runs every workload once and prints every metric by name with its unit.
/// Returns the results, or `None` if a workload failed its checks or any op
/// failed (`failed_share` is 0 everywhere on the commit that added the
/// benchmark).
fn run_all(args: &Args, trace: bool) -> Option<Vec<(Id, ChildResult)>> {
    let mut ok = true;
    let mut results = Vec::new();
    for id in Id::ALL {
        match spawn_one(args, id, trace) {
            Ok(result) => {
                let share = result.failed / result.attempted.max(1.0);
                println!(
                    "{}: correct {}, attempted {}, failed {} (failed_share {share})",
                    id.name(),
                    result.correct,
                    result.attempted,
                    result.failed
                );
                for (name, value, unit) in result.metrics.iter().chain(&result.measured) {
                    println!("  {name:<36} {value:>18.6} {unit}");
                }
                ok &= result.correct && result.failed == 0.0;
                results.push((id, result));
            }
            Err(e) => {
                println!("{}: {e}", id.name());
                ok = false;
            }
        }
    }
    ok.then_some(results)
}

/// What a traced set must show beyond correct outputs.  The harness's own
/// sanity: on `local_sync` the hops sum to 0.95-1.05 of the client-observed
/// median.  And the issue's prediction of which layer does the work where: the
/// engine takes at least half of the wall-clock on `ensemble_fig7` and at most
/// a tenth on `local_*`; the cross-shard protocol runs on `cross_chain` and
/// never on `local_*`.  These fail `trace` and `selfcheck` but are not part of
/// a run's `correct`, which is about the program's outputs: a later change
/// that makes the engine three times faster must not make them "incorrect".
fn layer_checks_hold(traced: &[(Id, ChildResult)]) -> bool {
    let mut ok = true;
    for (id, result) in traced {
        let value = |name: &str| {
            result.metrics.iter().find(|(n, _, _)| n == name).map_or(f64::NAN, |(_, v, _)| *v)
        };
        let cross: f64 =
            ["conditional_votes", "promoted_votes", "invalidated_votes", "cascaded_commits"]
                .iter()
                .map(|counter| value(&format!("runtime.cross.{counter}")))
                .sum();
        let (engine, hops) = (value("state.step_share"), value("runtime.hop_sum_share"));
        let (holds, what) = match id {
            Id::EnsembleFig7 => (engine >= 0.5, format!("state.step_share {engine:.3} >= 0.5")),
            Id::LocalSync => (
                engine <= 0.1 && cross == 0.0 && (0.95..=1.05).contains(&hops),
                format!("state.step_share {engine:.3} <= 0.1, runtime.cross.* {cross} = 0, runtime.hop_sum_share {hops:.3} in 0.95-1.05"),
            ),
            Id::LocalPipelined => (
                engine <= 0.1 && cross == 0.0,
                format!("state.step_share {engine:.3} <= 0.1, runtime.cross.* {cross} = 0"),
            ),
            Id::CrossChain => (cross > 0.0, format!("runtime.cross.* {cross} > 0")),
            _ => continue,
        };
        println!("{}: {what}: {}", id.name(), if holds { "holds" } else { "DOES NOT HOLD" });
        ok &= holds;
    }
    ok
}

fn results_json(results: &[(Id, ChildResult)]) -> Json {
    Json::obj(results.iter().map(|(id, r)| {
        (
            id.name(),
            Json::obj(
                r.metrics
                    .iter()
                    .chain(&r.measured)
                    .map(|(name, value, _)| (name.as_str(), Json::Num(*value))),
            ),
        )
    }))
}

fn append_history(cfg: &Config, kind: &str, results: &[(Id, ChildResult)]) {
    let line = Json::obj([
        ("kind", Json::str(kind)),
        ("host", host_block(cfg)),
        ("results", results_json(results)),
    ]);
    let path = cfg.out_dir.join("history.jsonl");
    let appended = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(&path))
        .and_then(|mut file| writeln!(file, "{line}"));
    if let Err(e) = appended {
        eprintln!("could not append to {}: {e}", path.display());
    }
}

/// Joins the per-workload trace files the children wrote into `trace.json`.
fn merge_traces(out_dir: &Path) {
    let docs: Vec<String> = Id::ALL
        .into_iter()
        .filter_map(|id| {
            std::fs::read_to_string(out_dir.join(format!("trace.{}.json", id.name()))).ok()
        })
        .collect();
    let path = out_dir.join("trace.json");
    match std::fs::write(&path, format!("{{\"workloads\": [{}]}}\n", docs.join(", "))) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The regression bound `BENCHMARK.json` gives every end-to-end metric.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    let metrics = spec.get("end_to_end").ok_or("BENCHMARK.json lacks end_to_end")?;
    metrics
        .as_arr()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Counters of the traced run that must repeat exactly on closed loops.
fn repeats_exactly(name: &str) -> bool {
    name.starts_with("manager.stats.")
        || name == "durable.append_count"
        || name == "durability.wal_bytes_per_commit"
}

/// The issue's bound for an end-to-end metric; one that two runs of the same
/// code cannot hold on every workload is measured and printed, not gated.
const DEFAULT_BOUND: f64 = 0.10;

/// The same code measured twice, the way a later change is measured against
/// its parent: one run of every workload against one run.  Every end-to-end
/// pair must agree within its bound in `BENCHMARK.json`; every exact-repeat
/// counter of two traced sets must be identical; [`layer_checks_hold`] on both
/// traced sets.
fn selfcheck(args: &Args) -> Option<bool> {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            println!("selfcheck: {e}");
            return None;
        }
    };
    let mut ok = true;
    println!("== untraced set 1");
    let first = run_all(args, false)?;
    println!("== untraced set 2");
    let second = run_all(args, false)?;
    println!("== disagreement between the two untraced sets (|b - a| / a)");
    for ((id, a), (_, b)) in first.iter().zip(&second) {
        for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            let Some((_, bound)) = bounds.iter().find(|(n, _)| n == name) else {
                println!("  {:<16} {name}: not in BENCHMARK.json", id.name());
                ok = false;
                continue;
            };
            let disagreement = (vb - va).abs() / va.abs();
            let verdict = if disagreement <= *bound { "ok" } else { "EXCEEDS" };
            println!(
                "  {:<16} {name:<20} {disagreement:>8.4}  bound {bound:.2}  {verdict}",
                id.name()
            );
            ok &= disagreement <= *bound;
        }
        // What decided the demotions: the issue's default bound, not enforced.
        for ((name, va, _), (_, vb, _)) in a.measured.iter().zip(&b.measured) {
            let disagreement = (vb - va).abs() / va.abs();
            let verdict = if disagreement <= DEFAULT_BOUND { "" } else { "  unsteady" };
            println!(
                "  {:<16} {name:<20} {disagreement:>8.4}  not gated (default bound {DEFAULT_BOUND:.2}){verdict}",
                id.name()
            );
        }
    }
    let mut traced = Vec::new();
    for set in 1..=2 {
        println!("== traced set {set}");
        let results = run_all(args, true)?;
        ok &= layer_checks_hold(&results);
        traced.push(results);
    }
    println!("== exact-repeat counters of the two traced sets");
    for ((id, a), (_, b)) in traced[0].iter().zip(&traced[1]) {
        if id.drive() == workloads::Drive::Open {
            continue;
        }
        for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            if repeats_exactly(name) && va != vb {
                println!("  {:<16} {name}: {va} then {vb}  DIFFERS", id.name());
                ok = false;
            }
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    Some(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: ixbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       ixbench run|trace|selfcheck [--seed <n>] [--seconds <s>] [--quick]");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        return run_one(&args, name);
    }
    let cfg = Config {
        id: Id::LocalSync,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        out_dir: manifest_dir().join("out"),
    };
    println!("host: {}", host_block(&cfg));
    let ok = match args.command.as_deref() {
        Some("run") => run_all(&args, false).map(|r| append_history(&cfg, "run", &r)).is_some(),
        Some("trace") => {
            let results = run_all(&args, true);
            merge_traces(&cfg.out_dir);
            results.is_some_and(|r| {
                append_history(&cfg, "trace", &r);
                layer_checks_hold(&r)
            })
        }
        Some("selfcheck") => selfcheck(&args).unwrap_or_else(|| {
            println!("selfcheck: FAILED (a run failed its own checks)");
            false
        }),
        _ => {
            eprintln!("nothing to do: name a workload or one of run, trace, selfcheck");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
