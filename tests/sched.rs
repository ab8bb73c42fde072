//! Integration tests of worker-pool scheduling: shards decoupled from OS
//! threads, worker `w` serving the shards `s` with `s % workers == w`.
//!
//! The correctness contract has two halves.  First, the pool size is
//! *semantically invisible*: a runtime with one worker, a small pool, or a
//! worker per shard (the historical thread-per-shard layout) must produce
//! the same verdicts, the same merged log, and the same statistics as the
//! blocking manager on the same word — pinned here as a lockstep property
//! over random workloads.  Second, shared workers are *lossless*: under a
//! skewed flood of shards that share workers, no task may be lost,
//! reordered against its session's submission order, or applied twice.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{
    Completion, InteractionManager, ManagerRuntime, ProtocolVariant, RuntimeOptions, Ticket,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Three departments coupled through a cross-shard `audit` barrier: the
/// same shape the durability suite drives, chosen because a random word
/// exercises grants, denials, and the multi-owner rendezvous path.
fn coupled_constraint() -> Expr {
    parse(
        "((some p { call_a(p) - perform_a(p) })* - audit)* \
         @ ((some p { call_b(p) - perform_b(p) })* - audit)* \
         @ ((some p { call_c(p) - perform_c(p) })* - audit)*",
    )
    .unwrap()
}

fn dept(kind: &str, d: usize, p: i64) -> Action {
    let name = ["a", "b", "c"][d % 3];
    Action::concrete(&format!("{kind}_{name}"), [Value::int(p)])
}

/// `components` disjoint always-permissible work pools — offered load maps
/// 1:1 onto commits, so scheduling is the only variable.
fn pools_constraint(components: usize) -> Expr {
    let group = |k: usize| format!("(some p {{ work_{k}(p) }})*");
    let src = (0..components).map(group).collect::<Vec<_>>().join(" @ ");
    parse(&src).unwrap()
}

fn work(k: usize, p: i64) -> Action {
    Action::concrete(&format!("work_{k}"), [Value::int(p)])
}

fn pool_options(workers: usize) -> RuntimeOptions {
    RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: workers,
        ..RuntimeOptions::default()
    }
}

/// Drives `word` through a pooled runtime session and the blocking manager
/// in lockstep, asserting identical per-action verdicts, merged log,
/// finality, and statistics.  With `compile_every` > 0 a `compile_tiers()`
/// control call runs between the actions, before every `compile_every`-th.
fn assert_pool_matches_blocking(
    x: &Expr,
    word: &[Action],
    workers: usize,
    compile_every: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let blocking = InteractionManager::with_protocol(x, ProtocolVariant::Combined).unwrap();
    let runtime = ManagerRuntime::with_options(x, pool_options(workers)).unwrap();
    let session = runtime.session(1);
    for (i, action) in word.iter().enumerate() {
        if compile_every > 0 && i % compile_every == 0 {
            runtime.compile_tiers();
        }
        prop_assert_eq!(
            session.is_permitted_blocking(action),
            blocking.is_permitted(action),
            "is_permitted disagrees at pool size {} on `{}` for {}",
            workers,
            x,
            action
        );
        let r = session.execute_blocking(action).unwrap().is_some();
        let b = blocking.try_execute(1, action).unwrap().is_some();
        prop_assert_eq!(
            r,
            b,
            "execute disagrees at pool size {} on `{}` for {}",
            workers,
            x,
            action
        );
    }
    prop_assert_eq!(runtime.log(), blocking.log(), "logs diverge at pool size {}", workers);
    prop_assert_eq!(runtime.is_final(), blocking.is_final());
    let (rs, bs) = (runtime.stats(), blocking.stats());
    prop_assert_eq!(rs.asks, bs.asks);
    prop_assert_eq!(rs.grants, bs.grants);
    prop_assert_eq!(rs.denials, bs.denials);
    prop_assert_eq!(rs.confirmations, bs.confirmations);
    Ok(())
}

fn word_strategy() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..3, 1u64..4).prop_map(|(d, p)| dept("call", d, p as i64)),
            (0usize..3, 1u64..4).prop_map(|(d, p)| dept("perform", d, p as i64)),
            Just(Action::nullary("audit")),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: scheduling is invisible.  Pool size one
    /// (fully serialized workers), a two-worker pool (shards genuinely
    /// share threads), and a worker per shard (the thread-per-shard
    /// baseline — the constraint has three components) all match the
    /// blocking manager on the same word, hence match each other — also
    /// with control calls served between the actions, on whichever thread.
    #[test]
    fn every_pool_size_matches_the_blocking_manager_in_lockstep(
        word in word_strategy(),
        compile_every in 0usize..4,
    ) {
        let x = coupled_constraint();
        for workers in [1usize, 2, 3] {
            assert_pool_matches_blocking(&x, &word, workers, compile_every)?;
        }
    }
}

/// ROADMAP item 2's repro: on `(a + b) | (c + s)* @ (e(1) + s)*` the
/// blocking manager logs the schedule `c, s, a` in commit order, but the
/// runtime's merged log reads `[c, a, s]` — a single-owner commit on a
/// shard that never applied a cross-shard commit sorts before every
/// cross-shard commit.
#[test]
#[ignore = "ROADMAP item 2"]
fn the_merged_log_keeps_a_single_after_the_cross_commit_before_it() {
    let x = parse("(a + b) | (c + s)* @ (e(1) + s)*").unwrap();
    let schedule: Vec<Action> = ["c", "s", "a"].into_iter().map(Action::nullary).collect();
    let blocking = InteractionManager::new(&x).unwrap();
    let runtime = ManagerRuntime::new(&x).unwrap();
    let session = runtime.session(1);
    for action in &schedule {
        assert!(blocking.try_execute(1, action).unwrap().is_some(), "blocking denied {action}");
        assert!(session.execute_blocking(action).unwrap().is_some(), "runtime denied {action}");
    }
    assert_eq!(blocking.log(), schedule);
    assert_eq!(runtime.log(), blocking.log(), "the merged log reorders commits");
    runtime.shutdown().unwrap();
}

/// A skewed flood over shared workers: two sessions flood eight shards on a
/// two-worker pool, 80% of the traffic onto shard 0, so every worker serves
/// four shards and one of them is hot.  Nothing may be lost, reordered, or
/// double-applied: every session's per-shard submission sequence reappears
/// verbatim as a subsequence of the merged log.
#[test]
fn a_skewed_flood_on_shared_workers_loses_and_reorders_nothing() {
    let shards = 8usize;
    let sessions = 2usize;
    let per_session = 3_000usize;
    let runtime = ManagerRuntime::with_options(&pools_constraint(shards), pool_options(2)).unwrap();
    assert_eq!(runtime.sched_stats().workers, 2);
    let mut submitted: Vec<Vec<Vec<Action>>> = vec![vec![Vec::new(); shards]; sessions];
    std::thread::scope(|scope| {
        let mut flooders = Vec::new();
        for (s, plan) in submitted.iter_mut().enumerate() {
            let runtime = &runtime;
            flooders.push(scope.spawn(move || {
                let session = runtime.session(1 + s as u64);
                let mut tickets: Vec<Ticket<Completion>> = Vec::new();
                for i in 0..per_session {
                    // 80% of the traffic hammers shard 0; the rest spreads.
                    let k = if i % 10 < 8 { 0 } else { 1 + i % (shards - 1) };
                    let action = work(k, (s * per_session + i) as i64);
                    plan[k].push(action.clone());
                    tickets.push(session.submit(&action).expect("unbounded admission"));
                    if i % 256 == 0 {
                        std::thread::yield_now();
                    }
                }
                tickets
                    .into_iter()
                    .filter(|t| matches!(t.wait(), Completion::Executed { .. }))
                    .count()
            }));
        }
        let committed: usize = flooders.into_iter().map(|f| f.join().unwrap()).sum();
        assert_eq!(committed, sessions * per_session, "tasks lost on shared workers");
    });
    // Loss/reorder/duplication audit: the merged log filtered down to one
    // session's submissions on one shard must equal that submission
    // sequence exactly — same multiset (nothing lost or double-applied)
    // and same order (a shard's tasks run in enqueue order, whoever serves
    // them).
    let log = runtime.log();
    assert_eq!(log.len(), sessions * per_session);
    for (s, plan) in submitted.iter().enumerate() {
        for (k, sent) in plan.iter().enumerate() {
            let mine: HashSet<&Action> = sent.iter().collect();
            let got: Vec<&Action> = log.iter().filter(|a| mine.contains(a)).collect();
            let expected: Vec<&Action> = sent.iter().collect();
            assert_eq!(
                got, expected,
                "session {s} shard {k}: log order diverges from submission order"
            );
        }
    }
    runtime.shutdown().unwrap();
}
