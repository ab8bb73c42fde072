//! Integration tests of the session runtime: pipelined cross-shard
//! submissions must never deadlock or double-commit, lease expiry runs
//! through the timer wheel on every owner, and durable submissions are
//! redelivered at least once after a simulated crash.
//!
//! The deadlock-freedom argument under test: every multi-owner submission is
//! enqueued onto all of its owners' queues in ascending shard-id order under
//! one enqueue lock, so any two cross-shard tasks appear in the same
//! relative order in every queue they share — the owners' rendezvous can
//! never form a cycle.  A deadlock would show up here as a hung test; a
//! double commit as a log entry appearing twice or a confirmation count
//! exceeding the accepted submissions.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{
    ClockMode, Completion, InteractionManager, ManagerError, ManagerRuntime, MemVault,
    ProtocolVariant, RuntimeOptions, Ticket, Vault,
};
use ix_state::{word_problem, WordStatus};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn coupled_constraint(departments: usize) -> Expr {
    let group = |k: usize| format!("((some p {{ call{k}(p) - perform{k}(p) }})* - audit)*");
    let src = (0..departments).map(group).collect::<Vec<_>>().join(" @ ");
    parse(&src).unwrap()
}

fn call(k: usize, p: i64) -> Action {
    Action::concrete(&format!("call{k}"), [Value::int(p)])
}

fn perform(k: usize, p: i64) -> Action {
    Action::concrete(&format!("perform{k}"), [Value::int(p)])
}

fn audit() -> Action {
    Action::nullary("audit")
}

/// One client per department pipelines local call/perform pairs plus
/// cross-shard audits against a four-shard runtime without waiting for any
/// completion until the very end.  The run must terminate, every local
/// action must commit (each department's cases arrive in order on its own
/// queue; a denied audit between them changes no state), and the merged log
/// must be a legal linearization with exactly one entry per accepted
/// submission.
#[test]
fn pipelined_cross_shard_submissions_neither_deadlock_nor_double_commit() {
    let departments = 4;
    let expr = coupled_constraint(departments);
    let runtime =
        Arc::new(ManagerRuntime::with_protocol(&expr, ProtocolVariant::Combined).unwrap());
    assert_eq!(runtime.shard_count(), departments);
    let threads = departments;
    let cases = 50i64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let session = runtime.session(t as u64);
        handles.push(std::thread::spawn(move || {
            let k = t % departments;
            let offset = t as i64 * cases;
            let mut tickets: Vec<Ticket<Completion>> = Vec::new();
            let mut audits: Vec<Ticket<Completion>> = Vec::new();
            for p in 0..cases {
                tickets.push(session.execute(&call(k, offset + p)));
                // A cross-shard audit attempt between every pair, submitted
                // without waiting — the pipelining the blocking surface
                // cannot express.
                audits.push(session.execute(&audit()));
                tickets.push(session.execute(&perform(k, offset + p)));
            }
            let local_committed =
                tickets.iter().filter(|t| matches!(t.wait(), Completion::Executed { .. })).count();
            let audit_committed =
                audits.iter().filter(|t| matches!(t.wait(), Completion::Executed { .. })).count();
            (local_committed, audit_committed)
        }));
    }
    let mut local = 0usize;
    let mut audits = 0usize;
    for handle in handles {
        let (l, a) = handle.join().expect("client thread");
        local += l;
        audits += a;
    }
    assert_eq!(
        local,
        threads * cases as usize * 2,
        "every local action commits — audits never wedge a shard"
    );
    let log = runtime.log();
    assert_eq!(
        log.len(),
        local + audits,
        "one log entry per accepted submission — no double commits"
    );
    assert_eq!(runtime.stats().confirmations as usize, local + audits);
    assert_eq!(log.iter().filter(|a| **a == audit()).count(), audits);
    // The merged log is a linearization: it replays verbatim on a fresh
    // monolithic manager.
    let replay = InteractionManager::monolithic(&expr, ProtocolVariant::Combined).unwrap();
    for action in &log {
        assert!(
            replay.try_execute(9, action).unwrap().is_some(),
            "log replay rejected {action}: the log is not a legal word"
        );
    }
}

/// Ask/confirm cycles pipelined through tickets: asks are submitted in a
/// burst, then confirmed in grant order.  Exercises the reservation
/// replication paths under pipelining.
#[test]
fn pipelined_ask_confirm_cycles_commit_in_order() {
    let expr = parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap();
    let runtime = ManagerRuntime::new(&expr).unwrap();
    let session = runtime.session(1);
    let c = |p: i64| Action::concrete("call", [Value::int(p), Value::sym("sono")]);
    // Burst of asks for ten different patients — all grantable.
    let asks: Vec<Ticket<Completion>> = (1..=10).map(|p| session.ask(&c(p))).collect();
    let reservations: Vec<u64> = asks
        .iter()
        .map(|t| match t.wait() {
            Completion::Granted { reservation } => reservation,
            other => panic!("expected grant, got {other:?}"),
        })
        .collect();
    // Confirm them all, again pipelined.
    let confirms: Vec<Ticket<Completion>> =
        reservations.iter().map(|r| session.confirm(*r)).collect();
    for t in confirms {
        assert!(matches!(t.wait(), Completion::Confirmed { .. }));
    }
    assert_eq!(runtime.log().len(), 10);
    assert_eq!(runtime.stats().grants, 10);
    assert_eq!(runtime.stats().confirmations, 10);
    // A second confirm of a consumed reservation fails cleanly.
    assert!(matches!(
        session.confirm(reservations[0]).wait(),
        Completion::Failed { error: ManagerError::UnknownReservation { .. } }
    ));
}

/// A leased cross-shard reservation expires through the timer wheel and is
/// released on *every* owner.
#[test]
fn cross_shard_leases_expire_on_every_owner_via_the_timer_wheel() {
    let expr = parse(
        "((some p { call0(p) - perform0(p) })* - audit) \
         @ ((some p { call1(p) - perform1(p) })* - audit)",
    )
    .unwrap();
    let runtime =
        ManagerRuntime::with_protocol(&expr, ProtocolVariant::Leased { lease: 3 }).unwrap();
    let session = runtime.session(1);
    let r = session.ask(&audit()).wait();
    let id = match r {
        Completion::Granted { reservation } => reservation,
        other => panic!("expected grant, got {other:?}"),
    };
    // The terminal audit reservation blocks locals on both owners.
    assert_eq!(session.ask_blocking(&call(0, 1)).unwrap(), None);
    assert_eq!(session.ask_blocking(&call(1, 1)).unwrap(), None);
    let expired = runtime.advance_time(4);
    assert_eq!(expired.len(), 1, "one expiry for the whole multi-owner reservation");
    assert_eq!(expired[0].id, id);
    assert_eq!(runtime.stats().expired_reservations, 1);
    assert!(session.ask_blocking(&call(0, 1)).unwrap().is_some(), "owner 0 released");
    let r2 = session.ask_blocking(&call(1, 1)).unwrap();
    assert!(r2.is_some(), "owner 1 released");
    assert!(matches!(session.confirm_blocking(id), Err(ManagerError::UnknownReservation { .. })));
}

/// Durable ask/confirm submissions survive a simulated crash: the
/// unacknowledged confirm is redelivered and observed at least once.
#[test]
fn durable_ask_confirm_redelivery_is_at_least_once() {
    let expr = parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap();
    let runtime = ManagerRuntime::with_options(
        &expr,
        RuntimeOptions {
            variant: ProtocolVariant::Simple,
            durable: true,
            clock: ClockMode::Virtual,
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    let session = runtime.session(1);
    let c = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
    let r = session.ask_blocking(&c).unwrap().expect("granted");
    runtime.acknowledge_submission();
    session.confirm_blocking(r).unwrap();
    // The confirm completed but was never acknowledged: a crash redelivers
    // it.  The duplicate observes UnknownReservation — at-least-once
    // delivery with an idempotency-visible duplicate, exactly the contract
    // of the paper's persistent queues.
    assert_eq!(runtime.unacknowledged_submissions(), 1);
    let redelivered = runtime.crash_redeliver();
    assert_eq!(redelivered.len(), 1);
    assert!(matches!(
        redelivered[0].wait(),
        Completion::Failed { error: ManagerError::UnknownReservation { .. } }
    ));
    assert_eq!(runtime.log(), vec![c], "the duplicate did not double-commit");
    runtime.acknowledge_submission();
    assert_eq!(runtime.unacknowledged_submissions(), 0);
}

/// A denial mid-chain invalidates the conditional votes of its downstream
/// dependents: audits pipelined behind an open call/perform pair are all
/// denied — the first by recompute, the rest by invalidation of their
/// tagged votes — and none of them ghost-commits into the log.
#[test]
fn mid_chain_denial_invalidates_downstream_conditional_votes() {
    let departments = 3;
    let expr = coupled_constraint(departments);
    let runtime = ManagerRuntime::with_options(
        &expr,
        RuntimeOptions {
            variant: ProtocolVariant::Combined,
            // The invalidation path needs both owners building speculative
            // chains concurrently: give every shard its own worker (the
            // thread-per-shard shape) regardless of host core count.
            worker_threads: 8,
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    let session = runtime.session(1);
    let chain = 24usize;
    // Whether the workers coalesce the whole audit chain into one
    // speculative batch depends on scheduling, so repeat the round until
    // the invalidation path demonstrably fired; the verdicts are asserted
    // deterministically on every round.
    for p in 0..50i64 {
        let mut schedule = vec![call(0, p)];
        schedule.extend(std::iter::repeat_n(audit(), chain));
        schedule.push(perform(0, p));
        schedule.extend(std::iter::repeat_n(audit(), chain));
        let tickets = session.submit_batch(&schedule);
        let verdicts: Vec<bool> =
            tickets.iter().map(|t| matches!(t.wait(), Completion::Executed { .. })).collect();
        let mut expected = vec![true];
        expected.extend(std::iter::repeat_n(false, chain));
        expected.push(true);
        expected.extend(std::iter::repeat_n(true, chain));
        assert_eq!(
            verdicts, expected,
            "mid-pair audits must all be denied, post-pair audits must all commit"
        );
        if runtime.cascade_stats().invalidated_votes > 0 {
            break;
        }
    }
    let stats = runtime.cascade_stats();
    assert!(
        stats.conditional_votes > 0,
        "audit chains behind an undecided head must deposit conditional votes: {stats:?}"
    );
    assert!(
        stats.invalidated_votes > 0,
        "the mid-pair denial must invalidate its downstream tagged votes: {stats:?}"
    );
    // No ghost commit: the log holds only the committed actions and replays.
    assert!(runtime.log().iter().all(|a| *a != audit() || runtime.stats().denials > 0));
    let replay = InteractionManager::monolithic(&expr, ProtocolVariant::Combined).unwrap();
    for action in runtime.log() {
        assert!(replay.try_execute(9, &action).unwrap().is_some(), "log replay rejected {action}");
    }
}

/// A memory vault whose appends wait until it is opened: a worker deciding
/// a commit stops at its write-ahead record, so whatever is queued behind
/// it stays queued for as long as the test needs.
#[derive(Default)]
struct GatedVault {
    inner: MemVault,
    open: Mutex<bool>,
    opened: Condvar,
}

impl GatedVault {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl Vault for GatedVault {
    fn append(&self, stream: u32, payload: &[u8]) -> u64 {
        let open = self.open.lock().unwrap();
        drop(self.opened.wait_while(open, |open| !*open).unwrap());
        self.inner.append(stream, payload)
    }
    fn stream_len(&self, stream: u32) -> u64 {
        self.inner.stream_len(stream)
    }
    fn read_from(&self, stream: u32, from: u64) -> Vec<(u64, Vec<u8>)> {
        self.inner.read_from(stream, from)
    }
    fn truncate(&self, stream: u32, covered: u64) {
        self.inner.truncate(stream, covered)
    }
    fn save_blob(&self, name: &str, bytes: &[u8]) {
        self.inner.save_blob(name, bytes)
    }
    fn load_blob(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.load_blob(name)
    }
    fn streams(&self) -> Vec<u32> {
        self.inner.streams()
    }
    fn sync(&self) {}
}

/// The decided path of the cascade fires on an all-commit chain: eight
/// consecutive audits owned by all four shards, submitted in one window.
/// Every worker starts on its own department's call and stops at that
/// call's write-ahead record until the whole window is queued, so each
/// owner coalesces the full chain into one speculative batch.  The owners
/// that vote on the first audit before it is decided vote on the rest
/// conditionally; the first audit's commit promotes those votes and
/// cascades the chain to decided.
#[test]
fn an_all_commit_audit_chain_decides_through_promoted_conditional_votes() {
    let departments = 4;
    let expr = coupled_constraint(departments);
    let vault = Arc::new(GatedVault::default());
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        // One worker per owner, so no owner resolves the chain in order
        // while helping another shard.
        worker_threads: departments,
        ..RuntimeOptions::default()
    };
    let runtime = ManagerRuntime::with_durability(&expr, options, vault.clone()).unwrap();
    let mut window: Vec<Action> =
        (0..departments).flat_map(|k| [call(k, 1), perform(k, 1)]).collect();
    window.extend(std::iter::repeat_n(audit(), 8));
    let tickets = runtime.session(1).submit_batch(&window);
    vault.open();
    for (ticket, action) in tickets.iter().zip(&window) {
        assert!(matches!(ticket.wait(), Completion::Executed { .. }), "{action} must commit");
    }
    let stats = runtime.cascade_stats();
    assert!(stats.conditional_votes >= 1, "{stats:?}");
    assert!(stats.promoted_votes >= 1, "{stats:?}");
    assert!(stats.cascaded_commits >= 1, "{stats:?}");
    assert_eq!(stats.invalidated_votes, 0, "nothing was denied: {stats:?}");
    let log = runtime.log();
    assert_eq!(log.len(), window.len());
    assert_eq!(word_problem(&expr, &log).unwrap(), WordStatus::Complete, "{log:?}");
}

/// `RuntimeOptions::queue_metrics` records one (enqueue wait, service)
/// sample per queued execute, and none with the flag off.
#[test]
fn queue_metrics_sample_each_queued_execute_only_when_enabled() {
    let expr = coupled_constraint(2);
    let window: Vec<Action> =
        (0..16i64).flat_map(|p| [call(p as usize % 2, p), perform(p as usize % 2, p)]).collect();
    for queue_metrics in [true, false] {
        let options = RuntimeOptions { queue_metrics, ..RuntimeOptions::default() };
        let runtime = ManagerRuntime::with_options(&expr, options).unwrap();
        for ticket in runtime.session(1).submit_batch(&window) {
            assert!(matches!(ticket.wait(), Completion::Executed { .. }));
        }
        // A worker publishes its samples when it goes idle, which may be
        // just after it completed the last ticket.
        let expected = if queue_metrics { window.len() } else { 0 };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut samples = runtime.drain_queue_samples();
        while samples.len() < expected && Instant::now() < deadline {
            std::thread::yield_now();
            samples.extend(runtime.drain_queue_samples());
        }
        assert_eq!(samples.len(), expected, "queue_metrics = {queue_metrics}");
        if queue_metrics {
            assert!(samples.iter().any(|&(_, service)| service > 0), "{samples:?}");
        }
        assert!(runtime.drain_queue_samples().is_empty(), "a drain takes every sample");
    }
}

/// A cascade racing a repartition is diverted and retried, never decided
/// against the dead epoch: audit chains hammer the runtime while a coupling
/// migrates one of the audit's owners, and every ticket still completes
/// with a replayable log.
#[test]
fn cascading_chains_racing_a_repartition_are_diverted_and_retried() {
    let departments = 2;
    let expr = coupled_constraint(departments);
    let runtime = Arc::new(
        ManagerRuntime::with_options(
            &expr,
            RuntimeOptions {
                variant: ProtocolVariant::Combined,
                // Concurrent per-shard workers, as above: the race this
                // test drives needs chains built on both owners at once.
                worker_threads: 8,
                ..RuntimeOptions::default()
            },
        )
        .unwrap(),
    );
    // Commit a history on department 0, so each coupling below has a
    // replay window wide enough to race against.
    let seed = runtime.session(0);
    for chunk in (0..1_000i64).collect::<Vec<_>>().chunks(128) {
        let window: Vec<Action> = chunk.iter().flat_map(|&p| [call(0, p), perform(0, p)]).collect();
        for t in seed.submit_batch(&window) {
            assert!(matches!(t.wait(), Completion::Executed { .. }));
        }
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let runtime = Arc::clone(&runtime);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let session = runtime.session(7);
            let mut p = 100_000i64;
            let mut committed = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                // A commit chain: a local pair, then eight consecutive
                // cross-shard audits for the cascade to decide.
                let mut burst = vec![call(0, p), perform(0, p)];
                burst.extend(std::iter::repeat_n(audit(), 8));
                for t in session.submit_batch(&burst) {
                    if matches!(t.wait(), Completion::Executed { .. }) {
                        committed += 1;
                    }
                }
                p += 1;
            }
            committed
        })
    };
    // Repeatedly widen `call0`'s owner set mid-hammer — a route change the
    // in-flight chains must observe.  A reroute fires only when a
    // stale-stamped task's owners actually changed *and* the task was
    // still queued across the epoch bump, so keep migrating until the
    // race is demonstrably caught (the first round nearly always is).
    let mut epochs = 0u64;
    for round in 0..20 {
        let constraint = format!("((some p {{ call0(p) }})* - repart_probe{round})*");
        let report = runtime.couple(&parse(&constraint).unwrap()).unwrap();
        epochs += 1;
        assert_eq!(report.epoch, epochs);
        if runtime.repartition_stats().rerouted_tasks > 0 {
            break;
        }
    }
    // Let the hammer run until at least one chain demonstrably coalesced
    // and promoted — whether a burst is picked up as one speculative batch
    // depends on worker scheduling.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while runtime.cascade_stats().promoted_votes == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let committed = hammer.join().unwrap();
    assert!(committed > 0, "the hammering client made progress");
    assert!(
        runtime.repartition_stats().rerouted_tasks > 0,
        "chains racing the migration must be diverted and retried, not decided stale"
    );
    assert!(
        runtime.cascade_stats().promoted_votes > 0,
        "the audit chains must exercise the cascade while racing"
    );
    let mono = InteractionManager::monolithic(&runtime.expr(), ProtocolVariant::Combined).unwrap();
    for action in runtime.log() {
        assert!(mono.try_execute(9, &action).unwrap().is_some(), "log replay rejected {action}");
    }
}

/// Lease expiry on a conditionally-voted reservation aborts the dependent
/// chain cleanly: asks pipelined behind a leased terminal reservation are
/// denied against its published fingerprint, the expiry releases every
/// owner through the timer wheel, and nothing ghost-commits.
#[test]
fn lease_expiry_on_a_conditionally_voted_reservation_aborts_the_chain_cleanly() {
    let expr = parse(
        "((some p { call0(p) - perform0(p) })* - audit) \
         @ ((some p { call1(p) - perform1(p) })* - audit)",
    )
    .unwrap();
    let runtime =
        ManagerRuntime::with_protocol(&expr, ProtocolVariant::Leased { lease: 3 }).unwrap();
    let session = runtime.session(1);
    // Head of the chain: the terminal audit reservation, held but never
    // confirmed.  Everything pipelined behind it votes against its
    // published fingerprint.
    let head = session.ask(&audit());
    let chain: Vec<Ticket<Completion>> =
        (1..=8i64).map(|p| session.ask(&call(p as usize % 2, p))).collect();
    let id = match head.wait() {
        Completion::Granted { reservation } => reservation,
        other => panic!("expected grant, got {other:?}"),
    };
    for t in chain {
        assert!(
            matches!(t.wait(), Completion::Denied),
            "locals behind the open terminal reservation must be denied"
        );
    }
    // The lease runs out before the head ever confirms: the whole chain's
    // assumption dies through the timer wheel, on every owner.
    let expired = runtime.advance_time(4);
    assert_eq!(expired.len(), 1, "one expiry for the whole multi-owner reservation");
    assert_eq!(expired[0].id, id);
    assert_eq!(runtime.stats().expired_reservations, 1);
    assert!(runtime.log().is_empty(), "nothing ghost-committed from the aborted chain");
    // The post-expiry world is clean on both owners: new asks grant again
    // and the dead reservation is unknown.
    assert!(session.ask_blocking(&call(0, 50)).unwrap().is_some(), "owner 0 released");
    assert!(session.ask_blocking(&call(1, 50)).unwrap().is_some(), "owner 1 released");
    assert!(matches!(session.confirm_blocking(id), Err(ManagerError::UnknownReservation { .. })));
}

/// Memory per committed action, read from `load_report()`.  A ring history
/// long enough to seal four chunks a shard must stay within 1 byte per
/// commit, where the packed stream takes 3 and the entry it replaced took 48
/// plus the action's own allocation.  The paper's Fig. 7 actions (a patient
/// number and a department) take 8 while their chunk is open; what they seal
/// to is held in `ix_manager`'s log tests, where no engine has to step
/// through twenty thousand of them first.
#[test]
fn the_commit_log_stays_within_its_bytes_per_commit_budget() {
    fn bytes_per_commit(runtime: &ManagerRuntime, word: &[Action]) -> f64 {
        let session = runtime.session(1);
        for window in word.chunks(1024) {
            for (ticket, action) in session.submit_batch(window).iter().zip(window) {
                assert!(
                    matches!(ticket.wait(), Completion::Executed { .. }),
                    "{action} must commit"
                );
            }
        }
        // A worker publishes its log gauges after the task that committed;
        // a control task queued behind it has therefore seen them published.
        runtime.is_final();
        let load = runtime.load_report();
        let entries: u64 = load.shards.iter().map(|s| s.log_entries).sum();
        let bytes: u64 = load.shards.iter().map(|s| s.log_bytes).sum();
        assert_eq!(entries as usize, word.len(), "one log entry per commit");
        assert_eq!(runtime.log().len(), word.len());
        bytes as f64 / entries as f64
    }

    let ring = |k: usize| format!("(call{k} - prep{k} - perform{k} - report{k})*");
    let rings = parse(&(0..4).map(ring).collect::<Vec<_>>().join(" @ ")).unwrap();
    let runtime = ManagerRuntime::with_protocol(&rings, ProtocolVariant::Combined).unwrap();
    assert_eq!(runtime.shard_count(), 4);
    // 88 000 entries of 3 bytes a shard: four chunks of 64 KiB and a tail.
    let word: Vec<Action> = (0..22_000)
        .flat_map(|_| ["call", "prep", "perform", "report"])
        .flat_map(|stage| (0..4).map(move |k| Action::nullary(format!("{stage}{k}").as_str())))
        .collect();
    let nullary = bytes_per_commit(&runtime, &word);
    assert!(nullary <= 1.0, "{nullary} bytes per nullary commit");

    let fig7 = ix_graph::figures::fig7_expr();
    let runtime = ManagerRuntime::with_protocol(&fig7, ProtocolVariant::Combined).unwrap();
    let exam = [
        "call_patient_start",
        "call_patient_end",
        "perform_examination_start",
        "perform_examination_end",
    ];
    let word: Vec<Action> = (0..40i64)
        .flat_map(|p| exam.map(|name| (name, p)))
        .map(|(name, p)| {
            let dept = ["sono", "endo", "xray", "ct"][p as usize % 4];
            Action::concrete(name, [Value::int(1000 + p), Value::sym(dept)])
        })
        .collect();
    let two_args = bytes_per_commit(&runtime, &word);
    assert!(two_args <= 10.0, "{two_args} bytes per Fig. 7 commit");
}
