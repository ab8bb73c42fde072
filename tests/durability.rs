//! Integration tests of the durability subsystem: sharded copy-on-write
//! checkpoints, the file-backed write-ahead log, and log-tail crash
//! recovery.
//!
//! The central property: a runtime recovered from its vault is
//! *observationally identical* to the uncrashed runtime — same merged log,
//! same statistics, same clock, same pending leases, and it decides the
//! same way afterwards.  The workloads are driven through one session with
//! every ticket awaited, so both runs follow the same deterministic
//! schedule and the comparison is exact, not statistical.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{
    inspect_vault, Completion, FsyncPolicy, ManagerRuntime, MemVault, ProtocolVariant,
    RuntimeOptions, Vault,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

fn audit() -> Action {
    Action::nullary("audit")
}

fn leased_options() -> RuntimeOptions {
    RuntimeOptions { variant: ProtocolVariant::Leased { lease: 6 }, ..RuntimeOptions::default() }
}

/// One step of the randomized workload.  Every variant is deterministic
/// when driven through a single session with awaited tickets.
#[derive(Clone, Debug)]
enum Op {
    /// Execute a call/perform pair on a department (Ask + Confirm twice).
    Pair(usize, i64),
    /// Execute the cross-shard audit barrier.
    Audit,
    /// Ask for a call and leave the lease dangling.
    Dangle(usize, i64),
    /// Ask for a call and abort the grant.
    AskAbort(usize, i64),
    /// Subscribe a client to a call action.
    Subscribe(u64, usize, i64),
    /// Advance the virtual clock (expires due leases synchronously).
    Tick(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 1u64..4).prop_map(|(d, p)| Op::Pair(d, p as i64)),
        Just(Op::Audit),
        (0usize..3, 4u64..7).prop_map(|(d, p)| Op::Dangle(d, p as i64)),
        (0usize..3, 4u64..7).prop_map(|(d, p)| Op::AskAbort(d, p as i64)),
        (10u64..14, 0usize..3, 1u64..4).prop_map(|(c, d, p)| Op::Subscribe(c, d, p as i64)),
        (1u64..4).prop_map(Op::Tick),
    ]
}

/// Replays the workload on a runtime through one session, awaiting every
/// completion, confirming what each variant says to confirm.  Optionally
/// cuts a checkpoint after `checkpoint_after` ops.
fn apply_ops(runtime: &ManagerRuntime, ops: &[Op], checkpoint_after: Option<usize>) {
    let session = runtime.session(1);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Pair(d, p) => {
                for kind in ["call", "perform"] {
                    if let Some(r) = session.ask_blocking(&dept(kind, *d, *p)).unwrap() {
                        session.confirm_blocking(r).unwrap();
                    }
                }
            }
            Op::Audit => {
                if let Some(r) = session.ask_blocking(&audit()).unwrap() {
                    session.confirm_blocking(r).unwrap();
                }
            }
            Op::Dangle(d, p) => {
                let _ = session.ask_blocking(&dept("call", *d, *p)).unwrap();
            }
            Op::AskAbort(d, p) => {
                if let Some(r) = session.ask_blocking(&dept("call", *d, *p)).unwrap() {
                    session.abort_blocking(r).unwrap();
                }
            }
            Op::Subscribe(client, d, p) => {
                let probe = runtime.session(*client);
                probe.subscribe_blocking(&dept("call", *d, *p)).unwrap();
            }
            Op::Tick(delta) => {
                runtime.advance_time(*delta);
            }
        }
        if checkpoint_after == Some(i) {
            runtime.checkpoint().unwrap();
        }
    }
}

/// Everything we compare between the uncrashed reference and the recovered
/// runtime.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    log: Vec<Action>,
    stats: ix_manager::ManagerStats,
    clock: u64,
    subscriptions: usize,
    expired: Vec<(u64, Action, u64)>,
    post_audit: bool,
}

fn observe(runtime: &ManagerRuntime) -> Observation {
    let log = runtime.log();
    let stats_before = runtime.stats();
    let clock = runtime.now();
    let subscriptions = runtime.subscription_count();
    // Probe the pending leases: everything still outstanding expires inside
    // this horizon (lease 6, ticks <= 3 per op), in deadline order.
    let expired =
        runtime.advance_time(20).into_iter().map(|r| (r.id, r.action, r.expires_at)).collect();
    // And the recovered engines must decide like the uncrashed ones.
    let session = runtime.session(99);
    let post_audit = match session.ask_blocking(&audit()).unwrap() {
        Some(r) => {
            session.confirm_blocking(r).unwrap();
            true
        }
        None => false,
    };
    Observation { log, stats: stats_before, clock, subscriptions, expired, post_audit }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: for a random workload and a random
    /// checkpoint position (including none), crash-recovering from the
    /// vault reproduces the uncrashed runtime exactly.
    #[test]
    fn recovered_runtime_matches_uncrashed_runtime(
        ops in proptest::collection::vec(op_strategy(), 1..28),
        checkpoint_at in 0usize..32,
    ) {
        let checkpoint_after =
            if checkpoint_at < ops.len() { Some(checkpoint_at) } else { None };

        // Uncrashed reference: identical schedule, no vault.
        let reference = ManagerRuntime::with_options(&coupled_constraint(), leased_options())
            .unwrap();
        apply_ops(&reference, &ops, None);
        let expected = observe(&reference);
        reference.shutdown().unwrap();

        // Durable run: same schedule into a vault, checkpoint mid-flight,
        // then crash (shutdown journals nothing) and recover.
        let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
        let durable = ManagerRuntime::with_durability(
            &coupled_constraint(), leased_options(), Arc::clone(&vault),
        ).unwrap();
        apply_ops(&durable, &ops, checkpoint_after);
        durable.shutdown().unwrap();

        let recovered = ManagerRuntime::recover(vault, leased_options()).unwrap();
        let actual = observe(&recovered);
        recovered.shutdown().unwrap();

        prop_assert_eq!(actual, expected);
    }
}

/// Fault-injected recovery drill: run a deterministic workload (single and
/// cross-shard commits with checkpoints mid-flight) on a [`FaultVault`],
/// then for a spread of scripted crash points — I/O error cuts, torn final
/// records, fsync lies — recover from what the fault left on "disk" and
/// require the recovered log to be a *prefix* of the acknowledged commit
/// sequence, with the runtime still live afterwards.  No torn cross-shard
/// chain may be half-applied: prefix equality over the merged log rules
/// that out, because a half-applied audit would commit out of order on one
/// shard's segment.  The workload is written twice: as leased ask/confirm
/// cycles, and as combined executes (decided on the caller's frame when
/// the shard is at rest).
#[test]
fn fault_injected_crash_points_recover_to_acknowledged_prefix() {
    use ix_durable::{FaultPlan, FaultVault};

    let combined =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    for (execute, options) in [(false, leased_options()), (true, combined)] {
        let fault = Arc::new(FaultVault::new());
        let vault: Arc<dyn Vault> = Arc::clone(&fault) as Arc<dyn Vault>;
        let runtime =
            ManagerRuntime::with_durability(&coupled_constraint(), options, vault).unwrap();
        let session = runtime.session(1);
        let commit = |action: &Action| {
            if execute {
                return matches!(session.execute(action).wait(), Completion::Executed { .. });
            }
            let granted = session.ask_blocking(action).unwrap();
            granted.map(|r| session.confirm_blocking(r).unwrap()).is_some()
        };
        let mut committed = Vec::new();
        for i in 0..12i64 {
            for kind in ["call", "perform"] {
                let action = dept(kind, (i % 3) as usize, 1 + i % 2);
                if commit(&action) {
                    committed.push(action);
                }
            }
            if i % 4 == 3 {
                // The cross-shard barrier plus a checkpoint: blob saves and
                // stream truncations land in the fault journal too.
                if commit(&audit()) {
                    committed.push(audit());
                }
                runtime.checkpoint().unwrap();
            }
        }
        assert_eq!(committed.len(), 27, "every pair and audit commits");
        assert_eq!(runtime.log(), committed);
        runtime.shutdown().unwrap();

        let max_ops = fault.ops();
        assert!(max_ops > 40, "workload must journal enough mutations to drill ({max_ops})");
        for seed in 0..64u64 {
            let plan = FaultPlan::seeded(seed, max_ops);
            let disk: Arc<dyn Vault> = Arc::new(fault.surviving(&plan));
            let recovered = ManagerRuntime::recover(disk, options)
                .unwrap_or_else(|e| panic!("recovery failed under {plan:?}: {e}"));
            let log = recovered.log();
            assert!(
                log.len() <= committed.len() && log == committed[..log.len()],
                "recovered log is not a prefix of the acknowledged commits under {plan:?} \
                 (execute = {execute}):\nrecovered: {log:?}"
            );
            // The survivor still serves: a fresh decision completes.
            let probe = recovered.session(7);
            probe.ask_blocking(&dept("call", 0, 5)).unwrap();
            recovered.shutdown().unwrap();
        }
    }
}

/// A checkpoint archives, syncs, snapshots, truncates, syncs and releases;
/// a crash may fall between any two of its vault operations.  Sweep an I/O
/// error, a torn record and an fsync lie over every operation of two
/// checkpoints (the first archives from entry 0, the second a delta) and of
/// the commits around them: every crash recovers, and `log()` is the
/// acknowledged sequence up to some point — no entry twice, none skipped.
/// Whatever was durable before an I/O error is there.  The survivor commits,
/// checkpoints and recovers once more with the same log.
#[test]
fn a_crash_between_any_two_steps_of_an_archiving_checkpoint_recovers_the_prefix() {
    use ix_durable::{FaultMode, FaultPlan, FaultVault};

    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let fault = Arc::new(FaultVault::new());
    let vault: Arc<dyn Vault> = Arc::clone(&fault) as Arc<dyn Vault>;
    let runtime = ManagerRuntime::with_durability(&coupled_constraint(), options, vault).unwrap();
    let session = runtime.session(1);
    let mut committed = Vec::new();
    // `(storage operations, commits)` when a checkpoint starts and ends.
    let mut cuts = Vec::new();
    for i in 0..15i64 {
        for kind in ["call", "perform"] {
            let action = dept(kind, (i % 3) as usize, 1 + i);
            assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
            committed.push(action);
        }
        if i % 6 == 4 {
            assert!(matches!(session.execute(&audit()).wait(), Completion::Executed { .. }));
            committed.push(audit());
            cuts.push((fault.ops(), committed.len()));
            let report = runtime.checkpoint().unwrap();
            assert!(report.archived_entries > 0 && report.history_bytes > 0);
            cuts.push((fault.ops(), committed.len()));
        }
    }
    assert_eq!(runtime.log(), committed);
    runtime.shutdown().unwrap();
    assert_eq!(cuts.len(), 4, "two checkpoints, the second one archiving a delta");

    let probe = dept("call", 0, 99);
    let mut gaps = 0;
    for at in cuts[0].0 - 3..=fault.ops() {
        // What an I/O error at `at` cannot take away: the commits journaled
        // before the last checkpoint that started before it.
        let durable = cuts.iter().rev().find(|(ops, _)| *ops <= at).map_or(0, |(_, n)| *n);
        for mode in [FaultMode::ErrorAfter, FaultMode::TornFinal, FaultMode::FsyncLie] {
            let plan = FaultPlan { mode, at };
            let disk: Arc<dyn Vault> = Arc::new(fault.surviving(&plan));
            let recovered = ManagerRuntime::recover(Arc::clone(&disk), options)
                .unwrap_or_else(|e| panic!("recovery failed under {plan:?}: {e}"));
            let log = recovered.log();
            assert!(
                log.len() <= committed.len() && log == committed[..log.len()],
                "not a prefix of the acknowledged commits under {plan:?}: {log:?}"
            );
            if mode == FaultMode::ErrorAfter {
                assert!(
                    log.len() >= durable,
                    "{} of {durable} durable commits, {plan:?}",
                    log.len()
                );
            }
            // The survivor serves, checkpoints and recovers again.  Its log
            // grows by what it commits, unless the fault left a gap in a
            // history stream (an append lost, the snapshot counting it
            // kept): then the log ends before the gap for good.
            let served =
                matches!(recovered.session(7).execute(&probe).wait(), Completion::Executed { .. });
            let mut expected = log.clone();
            expected.extend(served.then(|| probe.clone()));
            let gap = recovered.log() != expected;
            assert!(!gap || (mode != FaultMode::ErrorAfter && recovered.log() == log), "{plan:?}");
            gaps += usize::from(gap);
            assert_eq!(inspect_vault(&disk).is_err(), gap, "inspection reports the gap, {plan:?}");
            recovered.checkpoint().unwrap();
            let before = recovered.log();
            assert_eq!(recovered.shutdown().unwrap().log, before);
            let again = ManagerRuntime::recover(disk, options).unwrap();
            assert_eq!(again.log(), before, "second recovery under {plan:?}");
            again.shutdown().unwrap();
        }
    }
    assert!(gaps > 0, "the sweep must reach the crashes that lose archived entries");

    // A live repartition needs every entry of the shards it couples: it
    // refuses a history with a gap and leaves the runtime as it was.  (The
    // second checkpoint's snapshots survive this lie, its archive does not.)
    let plan = FaultPlan { mode: FaultMode::FsyncLie, at: cuts[2].0 };
    let recovered =
        ManagerRuntime::recover(Arc::new(fault.surviving(&plan)), options).expect("recovery");
    let log = recovered.log();
    assert!(log.len() < cuts[2].1 && log == committed[..log.len()], "{log:?}");
    let refused = recovered.couple(&parse("(audit - review)*").unwrap()).unwrap_err();
    assert!(matches!(refused, ix_manager::ManagerError::Durability { .. }), "{refused}");
    assert_eq!(recovered.shard_count(), 3);
    assert!(matches!(recovered.session(7).execute(&probe).wait(), Completion::Executed { .. }));
    recovered.shutdown().unwrap();
}

/// What stays in memory and what a checkpoint writes follow the commits
/// since the last checkpoint, not the length of the run — while `log()`,
/// `shutdown().log`, a recovery and the history replay of a live
/// repartition still see every entry, the same as a twin runtime without a
/// vault driven by the same schedule.
#[test]
fn residency_and_checkpoint_cost_follow_the_delta() {
    const CHUNK: u64 = 64 * 1024;
    const CASES: i64 = 1400;
    const ROUNDS: i64 = 3;
    // Three ten-byte arguments: an entry packs into 37 bytes, so a round of
    // 2 800 entries per shard seals a chunk for the cut to release.
    const { assert!(2 * CASES as u64 * 37 > CHUNK) };
    let dept =
        |k: usize| format!("(some p {{ wide_call{k}(p, p, p) - wide_perform{k}(p, p, p) }})*");
    let expr = parse(&(0..4).map(dept).collect::<Vec<_>>().join(" @ ")).unwrap();
    let wide = |kind: &str, k: usize, n: i64| {
        Action::concrete(&format!("wide_{kind}{k}"), [Value::int(i64::MAX - n); 3])
    };
    // One department at a time, so the commit order is the submission order.
    let drive = |runtime: &ManagerRuntime, cases: std::ops::Range<i64>| {
        let session = runtime.session(1);
        let cases: Vec<i64> = cases.collect();
        for window in cases.chunks(32) {
            for k in 0..4 {
                let actions: Vec<Action> = window
                    .iter()
                    .flat_map(|n| [wide("call", k, *n), wide("perform", k, *n)])
                    .collect();
                for ticket in session.submit_batch(&actions) {
                    assert!(matches!(ticket.wait(), Completion::Executed { .. }));
                }
            }
        }
    };
    let load = |runtime: &ManagerRuntime| {
        // A control task behind the commits: their gauges are published.
        runtime.is_final();
        runtime.load_report().shards
    };

    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let durable = ManagerRuntime::with_durability(&expr, options, Arc::clone(&vault)).unwrap();
    let twin = ManagerRuntime::with_options(&expr, options).unwrap();
    assert_eq!(durable.shard_count(), 4);

    let per_shard = 2 * CASES as u64;
    let mut round_bytes = 0;
    let mut cuts = Vec::new();
    for round in 0..ROUNDS {
        for runtime in [&durable, &twin] {
            drive(runtime, round * CASES..(round + 1) * CASES);
        }
        let done = (round as u64 + 1) * per_shard;
        if round == 0 {
            round_bytes = load(&twin)[0].log_bytes;
        }
        for shard in load(&durable) {
            assert_eq!((shard.log_entries, shard.log_archived), (done, done - per_shard));
            assert!(shard.log_bytes <= round_bytes + CHUNK, "before cut {round}: {shard:?}");
        }
        let cut = durable.checkpoint().unwrap();
        assert_eq!(cut.archived_entries, 4 * per_shard, "cut {round} archives the round");
        for shard in load(&durable) {
            assert_eq!(
                (shard.log_entries, shard.log_archived),
                (done, done),
                "every commit counts"
            );
            assert!(shard.log_bytes <= CHUNK, "after cut {round}: {shard:?}");
        }
        cuts.push(cut);
    }
    // No vault, no release: every entry of the twin is resident (and read
    // back through `log()` below), at whatever its chunks compressed to.
    for shard in load(&twin) {
        assert_eq!((shard.log_entries, shard.log_archived), (ROUNDS as u64 * per_shard, 0));
    }
    let (first, last) = (cuts[0], cuts[cuts.len() - 1]);
    assert!(
        2 * last.bytes <= 3 * first.bytes,
        "snapshot bytes {} then {}",
        first.bytes,
        last.bytes
    );
    assert!(
        last.history_bytes <= first.history_bytes + first.history_bytes / 10,
        "history bytes {} then {}",
        first.history_bytes,
        last.history_bytes
    );
    assert!(first.bytes < first.history_bytes / 10, "the snapshots hold state, not the log");

    // Readers of the whole log: the released part comes back from the vault.
    let full = twin.log();
    assert_eq!(full.len() as u64, 4 * ROUNDS as u64 * per_shard);
    assert_eq!(durable.log(), full);
    // A live repartition replays the history of department 0 — all of it
    // released — into the new component.
    let coupling = parse(&dept(0)).unwrap();
    for runtime in [&durable, &twin] {
        let migrated = runtime.couple(&coupling).unwrap();
        assert_eq!(migrated.migrated_shards, vec![0]);
        assert_eq!(migrated.replayed_actions as u64, ROUNDS as u64 * per_shard);
    }
    for runtime in [&durable, &twin] {
        drive(runtime, ROUNDS * CASES..ROUNDS * CASES + 40);
    }
    let full = twin.log();
    assert_eq!(durable.log(), full);
    let cut = durable.checkpoint().unwrap();
    assert_eq!(cut.archived_entries, 4 * 80);
    // A cut archives the delta and snapshots state: after 80 commits per
    // shard it writes at most half of what the cut after a whole round wrote.
    let (delta, round) = (cut.bytes + cut.history_bytes, last.bytes + last.history_bytes);
    assert!(2 * delta <= round, "{delta} bytes after {round}");
    assert_eq!(durable.log(), full);
    assert_eq!(durable.shutdown().unwrap().log, full);
    assert_eq!(twin.shutdown().unwrap().log, full);
    let recovered = ManagerRuntime::recover(vault, options).unwrap();
    assert!(load(&recovered).iter().all(|s| s.log_bytes == 0), "recovery loads no history");
    assert_eq!(recovered.log(), full);
    recovered.shutdown().unwrap();
}

/// A lease granted before the crash re-arms on the recovered lease timers:
/// it still blocks conflicting asks, and firing it frees the slot.
#[test]
fn recovered_lease_still_blocks_and_then_expires() {
    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let runtime = ManagerRuntime::with_durability(
        &coupled_constraint(),
        leased_options(),
        Arc::clone(&vault),
    )
    .unwrap();
    let holder = runtime.session(1);
    let r = holder.ask_blocking(&dept("call", 0, 1)).unwrap().expect("granted");
    assert!(r > 0);
    runtime.shutdown().unwrap();

    let recovered = ManagerRuntime::recover(vault, leased_options()).unwrap();
    let rival = recovered.session(2);
    // The department is mid-grant: a different patient's call conflicts
    // with the reserved one and is denied.
    assert_eq!(rival.ask_blocking(&dept("call", 0, 2)).unwrap(), None, "lease survived the crash");
    // The lease re-armed: advancing past its deadline fires it...
    let expired = recovered.advance_time(10);
    assert_eq!(expired.len(), 1);
    assert_eq!(expired[0].action, dept("call", 0, 1));
    // ...and the slot is free again.
    assert!(rival.ask_blocking(&dept("call", 0, 2)).unwrap().is_some());
    assert_eq!(recovered.stats().expired_reservations, 1);
    recovered.shutdown().unwrap();
}

/// Executes `names` in order through one session; `true` for each commit.
fn verdicts(session: &ix_manager::Session, names: &[&str]) -> Vec<bool> {
    let commits = |name: &&str| session.execute(&Action::nullary(*name)).wait();
    names.iter().map(|name| matches!(commits(name), Completion::Executed { .. })).collect()
}

/// A snapshot carries the state and no DFA tile: a recovered runtime whose
/// shards run from tables holds none until its first step, which installs
/// the tier around the decoded state as on a fresh engine, and it decides,
/// logs and counts as the run the crash did not interrupt.  The constraint
/// is ground (quantified subtrees bail out of the tier).
#[test]
fn a_recovered_runtime_installs_its_tables_on_first_use() {
    let constraint = parse("((a - b)* - audit)* @ ((c - d)* - audit)*").unwrap();
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let before: Vec<&str> = ["a", "b"].repeat(8);
    let after = ["b", "a", "a", "b", "a", "b", "c", "d", "audit"];

    let uninterrupted = ManagerRuntime::with_options(&constraint, options).unwrap();
    let session = uninterrupted.session(1);
    let expected = [verdicts(&session, &before), verdicts(&session, &after)];
    let (log, stats) = (uninterrupted.log(), uninterrupted.stats());
    drop(session);
    uninterrupted.shutdown().unwrap();

    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let runtime =
        ManagerRuntime::with_durability(&constraint, options, Arc::clone(&vault)).unwrap();
    assert_eq!(verdicts(&runtime.session(1), &before), expected[0]);
    let compiled = runtime.compile_tiers();
    assert!(compiled.iter().any(|t| t.tables > 0), "workload must reach the table tier");
    runtime.checkpoint().unwrap();
    runtime.shutdown().unwrap();

    let recovered = ManagerRuntime::recover(vault, options).unwrap();
    assert_eq!(recovered.tier_stats().tables, 0, "the snapshot held no table");
    assert_eq!(verdicts(&recovered.session(2), &after), expected[1]);
    let tier = recovered.tier_stats();
    assert!(tier.tables >= 1, "{tier:?}");
    assert_eq!(tier.compiles, tier.tables as u64, "installed afresh: {tier:?}");
    assert!(tier.hits > 0, "the installed tables serve steps: {tier:?}");
    assert_eq!((recovered.log(), recovered.stats()), (log, stats));
    recovered.shutdown().unwrap();
}

/// A checkpoint cut mid-lap, one commit in the log tail, a crash: the
/// replayed commit is the recovered shard's first step, so it installs that
/// shard's table around the decoded state, and every step after it is a
/// table step too.  Verdicts, log and statistics are the uninterrupted
/// lap's.
#[test]
fn a_table_cut_mid_lap_refills_after_recovery() {
    let constraint = parse("(s0 - s1 - s2 - s3)* @ (t0 - t1)*").unwrap();
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let lap = ["s0", "t0", "s1", "s2", "t1", "s3", "s0", "t0", "s2", "t0"];

    let uninterrupted = ManagerRuntime::with_options(&constraint, options).unwrap();
    let expected = verdicts(&uninterrupted.session(1), &lap);
    let (log, stats) = (uninterrupted.log(), uninterrupted.stats());
    uninterrupted.shutdown().unwrap();

    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let runtime =
        ManagerRuntime::with_durability(&constraint, options, Arc::clone(&vault)).unwrap();
    let mut seen = verdicts(&runtime.session(1), &lap[..3]);
    assert_eq!(runtime.tier_stats().tables, 2, "both shards run from a table");
    runtime.checkpoint().unwrap();
    // One more commit lands in the log tail only: recovery replays it.
    seen.extend(verdicts(&runtime.session(1), &lap[3..4]));
    runtime.shutdown().unwrap();

    let recovered = ManagerRuntime::recover(vault, options).unwrap();
    let replayed = recovered.tier_stats();
    assert_eq!((replayed.tables, replayed.compiles, replayed.hits), (1, 1, 1), "{replayed:?}");
    seen.extend(verdicts(&recovered.session(2), &lap[4..]));
    assert_eq!(seen, expected);
    let end = recovered.tier_stats();
    assert_eq!((end.tables, end.compiles, end.fallbacks), (2, 2, 0), "{end:?}");
    assert_eq!(end.hits, 7, "the replayed commit and the six after it: {end:?}");
    assert_eq!((recovered.log(), recovered.stats()), (log, stats));
    recovered.shutdown().unwrap();
}

/// The `ContinueAsNew`-style rollover: a checkpoint truncates the covered
/// log prefix, so recovery replays only the records since the last cut.
#[test]
fn checkpoint_truncates_the_covered_log_prefix() {
    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let runtime =
        ManagerRuntime::with_durability(&coupled_constraint(), options, Arc::clone(&vault))
            .unwrap();
    let session = runtime.session(1);
    for p in 1..20 {
        for kind in ["call", "perform"] {
            assert!(matches!(
                session.execute(&dept(kind, 0, p)).wait(),
                Completion::Executed { .. }
            ));
        }
    }
    let report = runtime.checkpoint().unwrap();
    assert_eq!(report.captured, 3, "every shard captured");
    assert!(report.bytes > 0);

    let cut = inspect_vault(&vault).unwrap();
    assert!(cut.manifest);
    assert_eq!(cut.shards.len(), 3);
    for shard in &cut.shards {
        assert!(shard.snapshot, "shard {} has a snapshot", shard.shard);
        assert_eq!(shard.tail_records, 0, "covered prefix truncated on shard {}", shard.shard);
    }
    let busy = cut.shards.iter().find(|s| s.covered > 0).expect("the loaded shard rolled over");
    assert_eq!(busy.log_entries, 38);

    // Post-checkpoint traffic grows only the tail, by one record per commit
    // and owner: the tail holds exactly the commits the cut did not cover.
    for p in 20..23 {
        for kind in ["call", "perform"] {
            assert!(matches!(
                session.execute(&dept(kind, 0, p)).wait(),
                Completion::Executed { .. }
            ));
        }
    }
    assert!(matches!(session.execute(&audit()).wait(), Completion::Executed { .. }));
    let after = inspect_vault(&vault).unwrap();
    for shard in &after.shards {
        let uncovered = if shard.shard == busy.shard { 7 } else { 1 };
        assert_eq!(shard.tail_records, uncovered, "tail of shard {}", shard.shard);
    }
    runtime.shutdown().unwrap();

    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let recovered = ManagerRuntime::recover(vault, options).unwrap();
    assert_eq!(recovered.log().len(), 45, "snapshot state plus the replayed tail");
    recovered.shutdown().unwrap();
}

static FILE_VAULT_DIR: AtomicUsize = AtomicUsize::new(0);

fn temp_vault_dir() -> std::path::PathBuf {
    let n = FILE_VAULT_DIR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ix-durability-test-{}-{n}", std::process::id()))
}

/// The whole cycle on the file-backed vault: journal to segmented
/// append-only files, checkpoint, crash, recover from disk.
#[test]
fn file_backed_vault_survives_a_crash_and_a_rollover() {
    let dir = temp_vault_dir();
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        fsync: FsyncPolicy::Interval(8),
        ..RuntimeOptions::default()
    };
    let runtime =
        ManagerRuntime::with_durability_path(&coupled_constraint(), options, &dir).unwrap();
    let session = runtime.session(1);
    for p in 1..10 {
        for d in 0..3 {
            for kind in ["call", "perform"] {
                assert!(matches!(
                    session.execute(&dept(kind, d, p)).wait(),
                    Completion::Executed { .. }
                ));
            }
        }
    }
    runtime.checkpoint().unwrap();
    assert!(matches!(session.execute(&audit()).wait(), Completion::Executed { .. }));
    let stats = runtime.stats();
    let log = runtime.log();
    runtime.shutdown().unwrap();

    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        fsync: FsyncPolicy::Never,
        ..RuntimeOptions::default()
    };
    let recovered = ManagerRuntime::recover_path(&dir, options).unwrap();
    assert_eq!(recovered.log(), log);
    assert_eq!(recovered.stats(), stats);
    // The recovered runtime keeps journaling into the same vault: another
    // commit, another crash, another recovery.
    let session = recovered.session(2);
    assert!(matches!(session.execute(&audit()).wait(), Completion::Executed { .. }));
    recovered.shutdown().unwrap();
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let again = ManagerRuntime::recover_path(&dir, options).unwrap();
    assert_eq!(again.log().len(), log.len() + 1);
    again.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The topology blob stores expressions in their printed form, so every
/// value an expression carries must parse back: a durable runtime built
/// over `a(-1) - b` recovers from its directory and goes on after `a(-1)`.
#[test]
fn a_vault_over_a_negative_integer_recovers() {
    let dir = temp_vault_dir();
    let minus_one = Action::concrete("a", [Value::int(-1)]);
    let expr = Expr::seq(Expr::atom(minus_one.clone()), parse("b").unwrap());
    let options = || RuntimeOptions { variant: ProtocolVariant::Combined, ..Default::default() };
    let runtime = ManagerRuntime::with_durability_path(&expr, options(), &dir).unwrap();
    let session = runtime.session(1);
    assert!(matches!(session.execute(&minus_one).wait(), Completion::Executed { .. }));
    runtime.shutdown().unwrap();

    let recovered = ManagerRuntime::recover_path(&dir, options()).unwrap();
    assert_eq!(recovered.log(), [minus_one]);
    let session = recovered.session(2);
    assert!(matches!(session.execute(&Action::nullary("b")).wait(), Completion::Executed { .. }));
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A file-vault runtime under `Interval(64)` that commits fewer than 64
/// records and is dropped without `shutdown()` has passed no barrier: its
/// topology and its records are in the page cache only.  Returns the vault
/// directory, the commits and the options.
fn drop_before_the_first_barrier() -> (std::path::PathBuf, Vec<Action>, RuntimeOptions) {
    let dir = temp_vault_dir();
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        fsync: FsyncPolicy::Interval(64),
        ..RuntimeOptions::default()
    };
    let runtime =
        ManagerRuntime::with_durability_path(&coupled_constraint(), options, &dir).unwrap();
    let session = runtime.session(1);
    let mut committed = Vec::new();
    for p in 1..5 {
        for d in 0..3 {
            for kind in ["call", "perform"] {
                let action = dept(kind, d, p);
                assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
                committed.push(action);
            }
        }
    }
    assert!(matches!(session.execute(&audit()).wait(), Completion::Executed { .. }));
    committed.push(audit());
    drop(session);
    drop(runtime);
    (dir, committed, options)
}

/// Without an OS crash the page cache reaches the files: a runtime dropped
/// before its vault's first barrier recovers every commit.
#[test]
fn a_runtime_dropped_before_the_first_barrier_recovers_every_commit() {
    let (dir, committed, options) = drop_before_the_first_barrier();
    let recovered = ManagerRuntime::recover_path(&dir, options).unwrap();
    assert_eq!(recovered.log(), committed);
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// An OS crash before the first barrier may leave the topology torn, since
/// its fsync was deferred to that barrier.  Recovery reports a vault in
/// which no commit was promised durable, not a codec error, and does not
/// panic.
#[test]
fn a_torn_topology_recovers_to_an_error_that_nothing_was_durable() {
    let (dir, _, options) = drop_before_the_first_barrier();
    let topology = std::fs::OpenOptions::new().write(true).open(dir.join("blobs/topology"));
    topology.unwrap().set_len(0).unwrap();
    match ManagerRuntime::recover_path(&dir, options) {
        Err(ix_manager::ManagerError::Durability { detail }) => assert!(
            detail.contains("never passed its first barrier") && detail.contains("torn"),
            "{detail}"
        ),
        Err(other) => panic!("recovery failed with {other}"),
        Ok(_) => panic!("recovered from a vault without a topology"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Only a vault that journaled records and holds no blob but its topology
/// is diagnosed as never durable.  An empty vault (a mistyped path) holds
/// nothing to recover, and a checkpoint's blobs, like the `queue` blob an
/// earlier runtime's submission queue saved, prove a barrier passed: each
/// gets a plain error.  A topology of zeros, as a torn file can read
/// back, is torn, not another format version.
#[test]
fn only_a_journal_beside_a_lone_topology_is_diagnosed_as_never_durable() {
    let detail = |vault: Arc<MemVault>| match ManagerRuntime::recover(vault, leased_options()) {
        Err(ix_manager::ManagerError::Durability { detail }) => detail,
        Err(other) => panic!("recovery failed with {other}"),
        Ok(_) => panic!("recovered from a vault without a readable topology"),
    };
    let empty = detail(Arc::new(MemVault::new()));
    assert!(empty.contains("no readable topology") && empty.contains("missing"), "{empty}");
    for (checkpointed, queue_blob) in [(false, false), (true, false), (false, true)] {
        let vault = Arc::new(MemVault::new());
        let runtime =
            ManagerRuntime::with_durability(&coupled_constraint(), leased_options(), vault.clone())
                .unwrap();
        let session = runtime.session(1);
        assert!(matches!(session.execute(&dept("call", 0, 1)).wait(), Completion::Executed { .. }));
        if checkpointed {
            runtime.checkpoint().unwrap();
        }
        drop(session);
        drop(runtime);
        if queue_blob {
            vault.save_blob("queue", &retired_queue_blob());
        }
        let zeros = vec![0; vault.load_blob("topology").unwrap().len()];
        vault.save_blob("topology", &zeros);
        let torn = detail(vault);
        assert!(torn.contains("torn"), "{torn}");
        let diagnosed = torn.contains("never passed its first barrier");
        assert_eq!(diagnosed, !checkpointed && !queue_blob, "{torn}");
    }
}

/// A mistyped vault path is reported, not created: recovering or
/// inspecting a missing directory fails with the plain "no readable
/// topology" error, and the path is still missing afterwards.
#[test]
fn a_missing_vault_directory_is_reported_and_left_missing() {
    let dir = temp_vault_dir();
    let plain =
        |detail: &str| detail.contains("no readable topology") && detail.contains("missing");
    match ManagerRuntime::recover_path(&dir, leased_options()) {
        Err(ix_manager::ManagerError::Durability { detail }) => assert!(plain(&detail), "{detail}"),
        Err(other) => panic!("recovery failed with {other}"),
        Ok(_) => panic!("recovered from a missing directory"),
    }
    assert!(!dir.exists(), "recover_path created {dir:?}");
    let vault: Arc<dyn Vault> =
        Arc::new(ix_manager::FileVault::open(&dir, FsyncPolicy::Never).unwrap());
    match inspect_vault(&vault) {
        Err(ix_manager::ManagerError::Durability { detail }) => assert!(plain(&detail), "{detail}"),
        other => panic!("inspected a missing directory: {other:?}"),
    }
    drop(vault);
    assert!(!dir.exists(), "FileVault::open or inspect_vault created {dir:?}");
}

/// A durable set-up touches no disk: the vault directory stays empty until
/// the first commit or barrier.  The barrier of a clean `shutdown()` writes
/// the topology, so a runtime that committed nothing recovers to an empty
/// log.
#[test]
fn a_durable_set_up_leaves_its_directory_empty() {
    let dir = temp_vault_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let runtime =
        ManagerRuntime::with_durability_path(&coupled_constraint(), leased_options(), &dir)
            .unwrap();
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "set-up wrote to {dir:?}");
    runtime.shutdown().unwrap();
    let recovered = ManagerRuntime::recover_path(&dir, leased_options()).unwrap();
    assert_eq!(recovered.log(), Vec::<Action>::new());
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir` with its bytes, in path order.
fn files_under(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    files.sort();
    files
}

/// A used vault is recovered, never journaled over: a fresh runtime on a
/// directory (or a memory vault) another runtime wrote fails, naming
/// recovery, and leaves every byte as it was, so the first runtime's
/// journal still recovers.
#[test]
fn a_fresh_runtime_refuses_a_used_vault_and_leaves_it_as_it_was() {
    let refused = |made: Result<ManagerRuntime, ix_manager::ManagerError>| match made {
        Err(ix_manager::ManagerError::Durability { detail }) => {
            assert!(detail.contains("ManagerRuntime::recover"), "{detail}")
        }
        Err(other) => panic!("refused with {other}"),
        Ok(_) => panic!("a fresh runtime journaled over a used vault"),
    };
    let dir = temp_vault_dir();
    let options = RuntimeOptions { fsync: FsyncPolicy::Always, ..RuntimeOptions::default() };
    let first = ManagerRuntime::with_durability_path(&parse("(a - b)*").unwrap(), options, &dir);
    let (first, word) = (first.unwrap(), [Action::nullary("a"), Action::nullary("b")]);
    let session = first.session(1);
    for action in [&word[0], &word[1], &word[0]] {
        assert!(matches!(session.execute(action).wait(), Completion::Executed { .. }));
    }
    first.checkpoint().unwrap();
    drop(session);
    first.shutdown().unwrap();
    let before = files_under(&dir);
    refused(ManagerRuntime::with_durability_path(&parse("(c - d)*").unwrap(), options, &dir));
    assert!(files_under(&dir) == before, "the refused runtime wrote to {dir:?}");
    let recovered = ManagerRuntime::recover_path(&dir, options).unwrap();
    assert_eq!(recovered.log(), [&word[..], &word[..1]].concat());
    recovered.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let vault = Arc::new(MemVault::new());
    vault.save_blob("topology", b"");
    refused(ManagerRuntime::with_durability(&parse("(c - d)*").unwrap(), options, vault));
}

/// Writes what a runtime with the retired durable submission queue left in
/// its vault directory: the queue's stream, holding one framed enqueue record
/// of the old format, and the blob the queue compacted into.
fn leave_a_retired_submission_queue(dir: &std::path::Path) {
    use ix_durable::{crc32, encode_action, Writer};
    // Format version 1, enqueue tag 1, client 1, execute tag 2, the action.
    let mut record = Writer::new();
    record.u8(1);
    record.u8(1);
    record.u64(1);
    record.u8(2);
    encode_action(&mut record, &audit());
    let payload = record.into_bytes();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    std::fs::create_dir_all(dir.join("wal/queue")).unwrap();
    std::fs::write(dir.join("wal/queue/seg-00000000000000000000.log"), frame).unwrap();
    std::fs::write(dir.join("blobs/queue"), retired_queue_blob()).unwrap();
}

/// The retired submission queue's blob: format version, the stream offset
/// it covers, no pending submission.
fn retired_queue_blob() -> Vec<u8> {
    let mut blob = ix_durable::Writer::new();
    blob.u8(1);
    blob.u64(1);
    blob.len_prefix(0);
    blob.into_bytes()
}

/// Old vaults keep recovering: the stream and the blob of the retired
/// submission queue are ignored, so a vault holding them recovers the same
/// log and statistics as one without, and still inspects.
#[test]
fn a_vault_left_with_a_retired_submission_queue_recovers_the_same() {
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let run = |with_queue: bool| {
        let dir = temp_vault_dir();
        let runtime =
            ManagerRuntime::with_durability_path(&coupled_constraint(), options, &dir).unwrap();
        let session = runtime.session(1);
        for p in 1..4 {
            for d in 0..3 {
                for kind in ["call", "perform"] {
                    let executed = session.execute(&dept(kind, d, p)).wait();
                    assert!(matches!(executed, Completion::Executed { .. }));
                }
            }
        }
        runtime.checkpoint().unwrap();
        for action in [audit(), dept("call", 0, 9)] {
            assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
        }
        drop(session);
        runtime.shutdown().unwrap();
        if with_queue {
            leave_a_retired_submission_queue(&dir);
        }
        let vault: Arc<dyn Vault> =
            Arc::new(ix_manager::FileVault::open(&dir, FsyncPolicy::Never).unwrap());
        let inspection = inspect_vault(&vault).unwrap();
        drop(vault);
        let recovered = ManagerRuntime::recover_path(&dir, options).unwrap();
        let seen = (recovered.log(), recovered.stats(), inspection);
        recovered.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        seen
    };
    let (log, stats, inspection) = run(false);
    assert_eq!(log.len(), 20);
    assert_eq!(run(true), (log, stats, inspection));
}

/// The on-disk format did not move with the in-memory log representation:
/// `tests/fixtures/vault_pr11/vault` was written by commit 96d8399 (the
/// parent of the packed commit log) — three coupled departments with
/// two-argument actions and nullary audits, a checkpoint after the fourth of
/// six rounds, then a tail with an open case and a denial — and
/// `expected.txt` holds the statistics and the merged log that commit
/// reported at shutdown.  Recovery reads the snapshots' string-named log
/// entries and the write-ahead tail into the packed log; a checkpoint cut by
/// this code must read back the same way.
#[test]
fn a_vault_written_before_the_packed_log_recovers() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/vault_pr11");
    let expected = std::fs::read_to_string(fixture.join("expected.txt")).unwrap();
    let (stats, log) = expected.split_once('\n').unwrap();
    // Recovery re-journals into the vault it reads: work on a copy.
    let dir = temp_vault_dir();
    for sub in ["blobs", "wal/meta", "wal/shard-0", "wal/shard-1", "wal/shard-2"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        for entry in std::fs::read_dir(fixture.join("vault").join(sub)).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(sub).join(entry.file_name())).unwrap();
        }
    }
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let render = |log: &[Action]| log.iter().map(|a| format!("{a}\n")).collect::<String>();

    let snapshot_bytes = |dir: &std::path::Path| -> Vec<u64> {
        (0..3)
            .map(|k| std::fs::metadata(dir.join(format!("blobs/snap-{k}"))).unwrap().len())
            .collect()
    };
    let inline_log_snapshots = snapshot_bytes(&dir);

    let recovered = ManagerRuntime::recover_path(&dir, options).unwrap();
    assert_eq!(render(&recovered.log()), log);
    assert_eq!(format!("{:?}", recovered.stats()), stats);
    // The snapshots' inline logs are resident and nothing is archived yet.
    let load = recovered.load_report();
    assert_eq!(
        load.shards.iter().map(|s| s.log_entries).sum::<u64>() as usize,
        log.lines().count()
    );
    assert!(load.shards.iter().all(|s| s.log_archived == 0));
    assert!(!dir.join("wal/history-0").exists(), "recovery creates no history stream");
    // The case the tail left open at department a closes; the barrier works.
    let session = recovered.session(1);
    let sono = |name: &str, p| Action::concrete(name, [Value::int(p), Value::sym("sono")]);
    assert!(matches!(session.execute(&sono("call_a", 78)).wait(), Completion::Denied));
    for action in [sono("perform_a", 77), audit()] {
        assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
    }
    // The first checkpoint of this code archives the whole inherited log
    // and replaces every snapshot by a smaller one without a log section.
    let cut = recovered.checkpoint().unwrap();
    assert_eq!(cut.archived_entries as usize, log.lines().count() + 2);
    for (shard, (now, before)) in snapshot_bytes(&dir).iter().zip(&inline_log_snapshots).enumerate()
    {
        assert!(
            now < before,
            "snapshot of shard {shard}: {now} bytes, {before} with the log inline"
        );
    }
    assert!(matches!(session.execute(&sono("call_c", 5)).wait(), Completion::Executed { .. }));
    let report = recovered.shutdown().unwrap();
    assert_eq!(report.log.len(), log.lines().count() + 3);
    assert_eq!(render(&report.log[..log.lines().count()]), log);

    // The second recovery loads no history; its log reads the archive.
    let again = ManagerRuntime::recover_path(&dir, options).unwrap();
    let load = again.load_report();
    assert_eq!(load.shards.iter().map(|s| s.log_archived).sum::<u64>(), cut.archived_entries);
    assert!(load.shards.iter().all(|s| s.log_bytes < 64), "only the tail is resident: {load:?}");
    assert_eq!(again.log(), report.log);
    assert_eq!(render(&again.log()[..log.lines().count()]), log);
    assert_eq!(again.stats(), report.stats);
    again.shutdown().unwrap();
    let vault: Arc<dyn Vault> =
        Arc::new(ix_manager::FileVault::open(&dir, FsyncPolicy::Never).unwrap());
    let inspection = inspect_vault(&vault).unwrap();
    assert_eq!(
        inspection.shards.iter().map(|s| s.archived_entries).sum::<u64>(),
        cut.archived_entries
    );
    assert!(inspection.shards.iter().all(|s| s.log_entries == s.archived_entries));
    assert!(inspection
        .shards
        .iter()
        .all(|s| s.history_records == u64::from(s.archived_entries > 0)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Subscriptions — shard-local and cross-shard — survive recovery, and a
/// re-attached session under the same client id receives notifications.
#[test]
fn subscriptions_survive_recovery_and_keep_notifying() {
    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let runtime =
        ManagerRuntime::with_durability(&coupled_constraint(), options, Arc::clone(&vault))
            .unwrap();
    let watcher = runtime.session(7);
    assert!(watcher.subscribe_blocking(&dept("call", 1, 2)).unwrap());
    assert!(watcher.subscribe_blocking(&audit()).unwrap());
    assert_eq!(runtime.subscription_count(), 2);
    runtime.checkpoint().unwrap();
    runtime.shutdown().unwrap();

    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let recovered = ManagerRuntime::recover(vault, options).unwrap();
    assert_eq!(recovered.subscription_count(), 2, "both subscriptions restored");
    // The same client re-attaches and still hears about its actions: a
    // call on department b flips call_b(2) to not-permitted.
    let watcher = recovered.session(7);
    let worker = recovered.session(8);
    assert!(matches!(worker.execute(&dept("call", 1, 1)).wait(), Completion::Executed { .. }));
    let mut notes = Vec::new();
    for _ in 0..200 {
        notes.extend(watcher.poll_notifications());
        if !notes.is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(
        notes.iter().any(|n| n.action == dept("call", 1, 2) && !n.permitted),
        "restored subscription delivers: {notes:?}"
    );
    recovered.shutdown().unwrap();
}
