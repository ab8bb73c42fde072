//! Unit tests of the runtime: tickets, sessions, migrations, recovery of
//! torn records, and the scheduling rules of caller frames and workers.

use super::slots::tests::queued;
use super::slots::{PauseTask, Task};
use super::*;
use crate::durability::WalRecord;
use crate::ticket::Ticket;
use crate::{InteractionManager, ManagerStats};
use ix_core::{parse, Value};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

fn call(p: i64, x: &str) -> Action {
    Action::concrete("call", [Value::int(p), Value::sym(x)])
}

fn perform(p: i64, x: &str) -> Action {
    Action::concrete("perform", [Value::int(p), Value::sym(x)])
}

fn patient_constraint() -> Expr {
    parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap()
}

fn coupled_constraint() -> Expr {
    parse(
        "((some p { call_a(p) - perform_a(p) })* - audit)* \
         @ ((some p { call_b(p) - perform_b(p) })* - audit)* \
         @ ((some p { call_c(p) - perform_c(p) })* - audit)* \
         @ ((some p { call_d(p) - perform_d(p) })* - audit)*",
    )
    .unwrap()
}

fn dept_action(kind: &str, dept: char, p: i64) -> Action {
    Action::concrete(&format!("{kind}_{dept}"), [Value::int(p)])
}

fn audit() -> Action {
    Action::nullary("audit")
}

#[test]
fn ask_confirm_cycle_over_tickets() {
    let runtime = ManagerRuntime::new(&patient_constraint()).unwrap();
    let session = runtime.session(1);
    let r = session.ask_blocking(&call(1, "sono")).unwrap().expect("granted");
    session.confirm_blocking(r).unwrap();
    assert_eq!(session.ask_blocking(&call(1, "endo")).unwrap(), None, "mid-examination");
    let r = session.ask_blocking(&perform(1, "sono")).unwrap().unwrap();
    session.confirm_blocking(r).unwrap();
    let report = runtime.shutdown().unwrap();
    assert_eq!(report.log, vec![call(1, "sono"), perform(1, "sono")]);
    assert_eq!(report.stats.grants, 2);
    assert_eq!(report.stats.denials, 1);
    assert_eq!(report.stats.confirmations, 2);
}

#[test]
fn tickets_pipeline_without_blocking() {
    let runtime =
        ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    // Submit a full schedule before waiting on anything.
    let tickets: Vec<Ticket<Completion>> = (1..=50)
        .flat_map(|p| [session.execute(&call(p, "sono")), session.execute(&perform(p, "sono"))])
        .collect();
    for t in &tickets {
        assert!(matches!(t.wait(), Completion::Executed { .. }));
    }
    assert_eq!(runtime.stats().confirmations, 100);
    assert_eq!(runtime.log().len(), 100);
}

#[test]
fn then_callbacks_fire_on_completion() {
    let runtime =
        ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let t = session.execute(&call(1, "sono"));
    t.then(move |c| {
        if matches!(c, Completion::Executed { .. }) {
            h.fetch_add(1, Ordering::SeqCst);
        }
    });
    t.wait();
    // The callback runs on the worker thread right after fulfilment;
    // give it a moment.
    for _ in 0..200 {
        if hits.load(Ordering::SeqCst) == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn leases_expire_through_the_timer_wheel() {
    let expr = parse("mult 1 { (some p { call(p, sono) - perform(p, sono) })* }").unwrap();
    let runtime =
        ManagerRuntime::with_protocol(&expr, ProtocolVariant::Leased { lease: 5 }).unwrap();
    let session = runtime.session(1);
    let r = session.ask_blocking(&call(1, "sono")).unwrap().unwrap();
    assert_eq!(session.ask_blocking(&call(2, "sono")).unwrap(), None, "slot reserved");
    assert!(runtime.advance_time(4).is_empty(), "lease not yet due");
    let expired = runtime.advance_time(2);
    assert_eq!(expired.len(), 1);
    assert_eq!(expired[0].id, r);
    assert_eq!(runtime.stats().expired_reservations, 1);
    assert!(session.ask_blocking(&call(2, "sono")).unwrap().is_some(), "slot released");
    assert!(matches!(session.confirm_blocking(r), Err(ManagerError::UnknownReservation { .. })));
}

#[test]
fn cross_shard_execute_commits_atomically() {
    let runtime =
        ManagerRuntime::with_protocol(&coupled_constraint(), ProtocolVariant::Combined).unwrap();
    assert_eq!(runtime.shard_count(), 4);
    assert!(runtime.is_cross_shard(&audit()));
    let session = runtime.session(1);
    assert!(session.execute_blocking(&audit()).unwrap().is_some());
    assert!(session.execute_blocking(&dept_action("call", 'b', 7)).unwrap().is_some());
    assert!(session.execute_blocking(&audit()).unwrap().is_none(), "dept b mid-case");
    assert!(session.execute_blocking(&dept_action("perform", 'b', 7)).unwrap().is_some());
    assert!(session.execute_blocking(&audit()).unwrap().is_some());
    let log = runtime.log();
    assert_eq!(log.len(), 4);
    assert_eq!(log[0], audit());
    assert_eq!(log[3], audit());
    assert_eq!(runtime.stats().confirmations, 4);
}

/// Coupled components whose shared `audit` is terminal: once the audit
/// runs the ensemble closes, so a pending audit reservation vetoes every
/// later local call — the shape that makes release observable.
fn terminal_coupled_constraint() -> Expr {
    parse(
        "((some p { call_a(p) - perform_a(p) })* - audit) \
         @ ((some p { call_b(p) - perform_b(p) })* - audit) \
         @ ((some p { call_c(p) - perform_c(p) })* - audit) \
         @ ((some p { call_d(p) - perform_d(p) })* - audit)",
    )
    .unwrap()
}

#[test]
fn cross_shard_reservations_replicate_and_release() {
    let runtime = ManagerRuntime::new(&terminal_coupled_constraint()).unwrap();
    let session = runtime.session(1);
    let r = session.ask_blocking(&audit()).unwrap().expect("granted");
    // The audit reservation vetoes local grants on every owner.
    assert_eq!(session.ask_blocking(&dept_action("call", 'a', 1)).unwrap(), None);
    assert_eq!(session.ask_blocking(&dept_action("call", 'd', 1)).unwrap(), None);
    let aborted = session.abort_blocking(r).unwrap();
    assert_eq!(aborted.action, audit());
    assert_eq!(runtime.stats().aborted_reservations, 1);
    assert!(session.ask_blocking(&dept_action("call", 'a', 1)).unwrap().is_some());
    assert!(matches!(session.confirm_blocking(r), Err(ManagerError::UnknownReservation { .. })));
    assert_eq!(runtime.log().len(), 0);
}

#[test]
fn subscriptions_notify_via_session_channels() {
    let runtime =
        ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined).unwrap();
    let worklist = runtime.session(20);
    let actor = runtime.session(10);
    assert!(worklist.subscribe_blocking(&call(1, "endo")).unwrap());
    assert!(actor.execute_blocking(&call(1, "sono")).unwrap().is_some());
    let notes = worklist.poll_notifications();
    assert_eq!(notes.len(), 1);
    assert!(!notes[0].permitted);
    assert_eq!(notes[0].action, call(1, "endo"));
    assert_eq!(runtime.subscription_count(), 1);
    worklist.unsubscribe(&call(1, "endo")).wait();
    assert_eq!(runtime.subscription_count(), 0);
}

#[test]
fn a_dropped_sessions_channel_goes_and_a_reopened_session_is_notified() {
    let runtime =
        ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined).unwrap();
    let worklist = runtime.session(20);
    let actor = runtime.session(10);
    assert!(worklist.subscribe_blocking(&call(1, "endo")).unwrap());
    drop(worklist);
    // The flip of the dropped client's subscription finds its channel dead.
    assert!(actor.execute_blocking(&call(1, "sono")).unwrap().is_some());
    assert!(!lock(&runtime.shared.notification_channels).contains_key(&20));
    // The subscription outlives the session: a session re-opened for the
    // client receives the next flip.
    let reopened = runtime.session(20);
    assert!(actor.execute_blocking(&perform(1, "sono")).unwrap().is_some());
    let notes = reopened.poll_notifications();
    assert_eq!(notes.len(), 1);
    assert!(notes[0].permitted);
    assert_eq!(notes[0].action, call(1, "endo"));
}

#[test]
fn cross_shard_subscriptions_report_the_conjunction() {
    let runtime =
        ManagerRuntime::with_protocol(&coupled_constraint(), ProtocolVariant::Combined).unwrap();
    let watcher = runtime.session(9);
    let actor = runtime.session(1);
    assert!(watcher.subscribe_blocking(&audit()).unwrap(), "all departments idle");
    assert!(actor.execute_blocking(&dept_action("call", 'c', 1)).unwrap().is_some());
    let notes = watcher.poll_notifications();
    assert!(notes.iter().any(|n| n.action == audit() && !n.permitted));
    assert!(actor.execute_blocking(&dept_action("perform", 'c', 1)).unwrap().is_some());
    let notes = watcher.poll_notifications();
    assert!(notes.iter().any(|n| n.action == audit() && n.permitted));
}

#[test]
fn unknown_actions_and_non_concrete_actions_fail_like_the_blocking_manager() {
    let runtime = ManagerRuntime::new(&patient_constraint()).unwrap();
    let session = runtime.session(1);
    let unknown = Action::nullary("unknown");
    assert_eq!(session.ask_blocking(&unknown).unwrap(), None);
    assert_eq!(session.execute_blocking(&unknown).unwrap(), None);
    assert!(!session.is_permitted_blocking(&unknown));
    assert!(!runtime.controls(&unknown));
    let abstract_action = Action::new("call", [ix_core::Term::Param(ix_core::Param::new("p"))]);
    assert!(matches!(
        session.ask_blocking(&abstract_action),
        Err(ManagerError::NonConcreteAction { .. })
    ));
    assert!(matches!(
        session.confirm_blocking(99),
        Err(ManagerError::UnknownReservation { id: 99 })
    ));
    assert_eq!(runtime.stats().denials, 2);
}

#[test]
fn disjoint_add_constraint_is_a_pure_shard_append() {
    let runtime = ManagerRuntime::with_protocol(
        &parse("(a - b)* @ (c - d)*").unwrap(),
        ProtocolVariant::Combined,
    )
    .unwrap();
    let session = runtime.session(1);
    assert!(session.execute_blocking(&Action::nullary("a")).unwrap().is_some());
    assert_eq!(runtime.shard_count(), 2);
    assert_eq!(runtime.epoch(), 0);

    let report = runtime.add_constraint(&parse("(e - f)*").unwrap()).unwrap();
    assert_eq!(report.added_shards, vec![2]);
    assert!(report.migrated_shards.is_empty(), "disjoint add pauses nothing");
    assert_eq!(report.replayed_actions, 0);
    assert_eq!(report.widened_actions, 0);
    assert_eq!(runtime.shard_count(), 3);
    assert_eq!(runtime.epoch(), 1);
    let stats = runtime.repartition_stats();
    assert_eq!(stats.repartitions, 1);
    assert_eq!(stats.migrated_shard_states, 0, "zero migration for a disjoint add");

    // The new shard serves immediately; old shards kept their state.
    assert!(session.execute_blocking(&Action::nullary("e")).unwrap().is_some());
    assert!(session.execute_blocking(&Action::nullary("b")).unwrap().is_some());
    assert!(session.execute_blocking(&Action::nullary("a")).unwrap().is_some());
    assert!(runtime.controls(&Action::nullary("e")));
    let report = runtime.shutdown().unwrap();
    assert_eq!(report.shards, 3);
    assert_eq!(report.log.len(), 4);
}

#[test]
fn coupling_migration_replays_history_and_widens_routes() {
    let runtime = ManagerRuntime::with_protocol(
        &parse("(a - b)* @ (c - d)*").unwrap(),
        ProtocolVariant::Combined,
    )
    .unwrap();
    let session = runtime.session(1);
    for name in ["a", "b", "a", "b", "c"] {
        assert!(session.execute_blocking(&Action::nullary(name)).unwrap().is_some());
    }
    // Couple an audit constraint onto `a`: rounds of a's, then audit.
    let report = runtime.couple(&parse("(a* - audit)*").unwrap()).unwrap();
    assert_eq!(report.added_shards, vec![2]);
    assert_eq!(report.migrated_shards, vec![0], "only a's owner is quiesced");
    assert_eq!(report.replayed_actions, 2, "the two committed a's");
    assert!(report.widened_actions >= 1);
    assert_eq!(runtime.owners_of(&Action::nullary("a")), vec![0, 2]);
    assert!(runtime.is_cross_shard(&Action::nullary("a")));
    assert_eq!(runtime.repartition_stats().migrated_shard_states, 1);

    // Semantics now match a monolithic manager built on the joined
    // expression and fed the same history.
    let joined = parse("((a - b)* @ (c - d)*) @ (a* - audit)*").unwrap();
    let mono = InteractionManager::monolithic(&joined, ProtocolVariant::Combined).unwrap();
    for action in runtime.log() {
        assert!(mono.try_execute(9, &action).unwrap().is_some(), "log must replay");
    }
    for name in ["audit", "a", "b", "audit", "d", "zzz"] {
        let action = Action::nullary(name);
        let r = session.execute_blocking(&action).unwrap().is_some();
        let m = mono.try_execute(9, &action).unwrap().is_some();
        assert_eq!(r, m, "disagreement on {name} after the migration");
    }
    assert_eq!(runtime.is_final(), mono.is_final());
}

#[test]
fn incompatible_extension_is_rejected_and_the_runtime_keeps_serving() {
    let runtime =
        ManagerRuntime::with_protocol(&parse("(a - b)*").unwrap(), ProtocolVariant::Combined)
            .unwrap();
    let session = runtime.session(1);
    assert!(session.execute_blocking(&Action::nullary("a")).unwrap().is_some());
    // `b - a` demands the history's projection start with b.
    let err = runtime.couple(&parse("(b - a)#").unwrap());
    assert!(matches!(err, Err(ManagerError::IncompatibleExtension { .. })));
    assert_eq!(runtime.shard_count(), 1);
    assert_eq!(runtime.epoch(), 0);
    assert_eq!(runtime.repartition_stats().repartitions, 0);
    // The paused shard was resumed untouched.
    assert!(session.execute_blocking(&Action::nullary("b")).unwrap().is_some());
}

#[test]
fn couple_rejects_disjoint_constraints() {
    let runtime = ManagerRuntime::new(&parse("(a - b)*").unwrap()).unwrap();
    assert!(matches!(
        runtime.couple(&parse("(x - y)*").unwrap()),
        Err(ManagerError::DisjointCoupling)
    ));
    // add_constraint takes it happily.
    assert!(runtime.add_constraint(&parse("(x - y)*").unwrap()).is_ok());
    assert_eq!(runtime.shard_count(), 2);
}

#[test]
fn reservations_migrate_onto_new_owners() {
    // Simple protocol: take a reservation on `a`, couple a constraint
    // sharing `a`, then confirm — the commit must advance the new shard
    // too, and release must work across the widened owner set.
    let runtime = ManagerRuntime::new(&parse("(a - b)*").unwrap()).unwrap();
    let session = runtime.session(1);
    let r = session.ask_blocking(&Action::nullary("a")).unwrap().expect("granted");
    let report = runtime.couple(&parse("(a - audit)*").unwrap()).unwrap();
    assert_eq!(report.migrated_reservations, 1);
    // Confirm commits on both owners: afterwards the coupled constraint
    // has seen one `a`, so audit is permitted and a second `a` is not.
    session.confirm_blocking(r).unwrap();
    assert!(session.is_permitted_blocking(&Action::nullary("audit")));
    assert!(!session.is_permitted_blocking(&Action::nullary("a")));
    let log = runtime.log();
    assert_eq!(log, vec![Action::nullary("a")]);
    // The whole log replays on a monolithic manager of the joined
    // expression.
    let joined = parse("(a - b)* @ (a - audit)*").unwrap();
    let mono = InteractionManager::monolithic(&joined, ProtocolVariant::Simple).unwrap();
    for action in log {
        let id = mono.ask(9, &action).unwrap().expect("log must replay");
        mono.confirm(id).unwrap();
    }
    assert!(mono.is_permitted(&Action::nullary("audit")));
}

#[test]
fn aborting_a_migrated_reservation_releases_every_owner() {
    let runtime = ManagerRuntime::new(&parse("(a - b)*").unwrap()).unwrap();
    let session = runtime.session(1);
    let r = session.ask_blocking(&Action::nullary("a")).unwrap().expect("granted");
    runtime.couple(&parse("(a - audit)*").unwrap()).unwrap();
    let released = session.abort_blocking(r).unwrap();
    assert_eq!(released.action, Action::nullary("a"));
    // Nothing committed; a fresh ask is granted again (both owners
    // dropped the replica).
    assert!(session.ask_blocking(&Action::nullary("a")).unwrap().is_some());
    assert_eq!(runtime.log().len(), 0);
}

#[test]
fn leases_rearm_across_a_migration_and_expire_on_every_owner() {
    // A lease granted before a coupling migration carries a stale
    // owner list in its timer payload; expiry must consult the widened
    // reservation index and roll the replica back on the new owner too.
    let runtime = ManagerRuntime::with_protocol(
        &parse("(a - b)*").unwrap(),
        ProtocolVariant::Leased { lease: 5 },
    )
    .unwrap();
    let session = runtime.session(1);
    let r = session.ask_blocking(&Action::nullary("a")).unwrap().expect("granted");
    let report = runtime.couple(&parse("(a - audit)*").unwrap()).unwrap();
    assert_eq!(report.migrated_reservations, 1);
    // While reserved, a second ask is vetoed on both owners.
    assert_eq!(session.ask_blocking(&Action::nullary("a")).unwrap(), None);
    let expired = runtime.advance_time(6);
    assert_eq!(expired.len(), 1);
    assert_eq!(expired[0].id, r);
    assert_eq!(runtime.stats().expired_reservations, 1);
    // Both owners released the replica: a fresh ask succeeds and its
    // confirm advances the coupled constraint too.
    let r2 = session.ask_blocking(&Action::nullary("a")).unwrap().expect("slot released");
    session.confirm_blocking(r2).unwrap();
    assert!(session.is_permitted_blocking(&Action::nullary("audit")));
    assert!(matches!(session.confirm_blocking(r), Err(ManagerError::UnknownReservation { .. })));
}

#[test]
fn widened_subscriptions_become_cross_shard_conjunctions() {
    let runtime =
        ManagerRuntime::with_protocol(&parse("(a - b)*").unwrap(), ProtocolVariant::Combined)
            .unwrap();
    let watcher = runtime.session(7);
    let actor = runtime.session(1);
    assert!(watcher.subscribe_blocking(&Action::nullary("a")).unwrap());
    // Couple a terminal constraint: after one audit the ensemble closes.
    // Right after the migration `a` is still permitted on both owners.
    let report = runtime.couple(&parse("(a* - audit)*").unwrap()).unwrap();
    assert_eq!(report.migrated_subscriptions, 1);
    assert_eq!(runtime.subscription_count(), 1, "promoted, not duplicated");
    assert!(watcher.poll_notifications().is_empty(), "conjunction unchanged");
    // A commit on the *new* shard's side flips the conjunction when the
    // old shard blocks: execute a (both owners move), then b closes the
    // a-b round; a is permitted again...
    assert!(actor.execute_blocking(&Action::nullary("a")).unwrap().is_some());
    let notes = watcher.poll_notifications();
    assert!(notes.iter().any(|n| n.action == Action::nullary("a") && !n.permitted));
    assert!(actor.execute_blocking(&Action::nullary("b")).unwrap().is_some());
    let notes = watcher.poll_notifications();
    assert!(notes.iter().any(|n| n.action == Action::nullary("a") && n.permitted));
    // Unsubscribing after the promotion removes the cross entry.
    watcher.unsubscribe(&Action::nullary("a")).wait();
    assert_eq!(runtime.subscription_count(), 0);
}

#[test]
fn orphan_subscriptions_go_live_when_a_constraint_covers_them() {
    let runtime =
        ManagerRuntime::with_protocol(&parse("(a - b)*").unwrap(), ProtocolVariant::Combined)
            .unwrap();
    let watcher = runtime.session(7);
    let actor = runtime.session(1);
    // `e` is unknown: the subscription parks in the orphan registry.
    assert!(!watcher.subscribe_blocking(&Action::nullary("e")).unwrap());
    assert_eq!(runtime.subscription_count(), 1);
    // A live extension makes `e` real; the cached not-permitted status
    // flips to permitted and notifies.
    runtime.add_constraint(&parse("(e - f)*").unwrap()).unwrap();
    let notes = watcher.poll_notifications();
    assert!(
        notes.iter().any(|n| n.action == Action::nullary("e") && n.permitted),
        "re-homed orphan must report going live, got {notes:?}"
    );
    assert_eq!(runtime.subscription_count(), 1, "moved, not duplicated");
    // The subscription is live on the new shard: committing `e` flips
    // it back to not-permitted.
    assert!(actor.execute_blocking(&Action::nullary("e")).unwrap().is_some());
    let notes = watcher.poll_notifications();
    assert!(notes.iter().any(|n| n.action == Action::nullary("e") && !n.permitted));
    watcher.unsubscribe(&Action::nullary("e")).wait();
    assert_eq!(runtime.subscription_count(), 0);
}

#[test]
fn submit_batch_matches_per_action_submission() {
    let expr = coupled_constraint();
    let actions: Vec<Action> = (0..40)
        .flat_map(|i| {
            let dept = ['a', 'b', 'c', 'd'][i % 4];
            vec![
                dept_action("call", dept, i as i64),
                dept_action("perform", dept, i as i64),
                audit(),
            ]
        })
        .collect();
    // Reference: one execute per action.
    let reference = ManagerRuntime::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let session = reference.session(1);
    let expected: Vec<bool> =
        actions.iter().map(|a| session.execute_blocking(a).unwrap().is_some()).collect();
    let expected_log = reference.log();

    // Batched: one window per 16 actions.
    let batched = ManagerRuntime::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let session = batched.session(1);
    let mut got = Vec::new();
    for window in actions.chunks(16) {
        for t in session.submit_batch(window) {
            got.push(matches!(t.wait(), Completion::Executed { .. }));
        }
    }
    assert_eq!(got, expected, "batched outcomes must match per-action submission");
    assert_eq!(batched.log(), expected_log);
    let (b, r) = (batched.stats(), reference.stats());
    assert_eq!(b.asks, r.asks);
    assert_eq!(b.grants, r.grants);
    assert_eq!(b.denials, r.denials);
    assert_eq!(b.confirmations, r.confirmations);
}

#[test]
fn submit_batch_denies_unknown_actions_inline() {
    let runtime =
        ManagerRuntime::with_protocol(&parse("(a - b)*").unwrap(), ProtocolVariant::Combined)
            .unwrap();
    let session = runtime.session(1);
    let tickets = session.submit_batch(&[
        Action::nullary("zzz"),
        Action::nullary("a"),
        Action::nullary("unknown"),
    ]);
    // Unknown actions resolve before any queue is touched: the tickets
    // are complete the moment submit_batch returns.
    assert_eq!(tickets[0].poll(), Some(Completion::Denied));
    assert_eq!(tickets[2].poll(), Some(Completion::Denied));
    assert!(matches!(tickets[1].wait(), Completion::Executed { .. }));
    assert_eq!(runtime.stats().denials, 2);
}

#[test]
fn in_flight_tickets_survive_a_migration() {
    // Submissions pipelined before a coupling migration complete
    // correctly after it: the affected shard drains them behind the
    // pause barrier or ahead of it, never loses them.
    let runtime = ManagerRuntime::with_protocol(
        &parse("(some p { call(p) - perform(p) })*").unwrap(),
        ProtocolVariant::Combined,
    )
    .unwrap();
    let session = runtime.session(1);
    let calls: Vec<Ticket<Completion>> = (0..64)
        .flat_map(|p| {
            [
                session.execute(&Action::concrete("call", [Value::int(p)])),
                session.execute(&Action::concrete("perform", [Value::int(p)])),
            ]
        })
        .collect();
    // Couple while those are in flight (call(p) widens onto the new
    // shard).
    let coupling = parse("((some p { call(p) })* - audit)*").unwrap();
    runtime.couple(&coupling).unwrap();
    for t in &calls {
        assert!(matches!(t.wait(), Completion::Executed { .. }));
    }
    // Everything the runtime committed replays monolithically.
    let joined = Expr::sync(parse("(some p { call(p) - perform(p) })*").unwrap(), coupling);
    let mono = InteractionManager::monolithic(&joined, ProtocolVariant::Combined).unwrap();
    for action in runtime.log() {
        assert!(mono.try_execute(9, &action).unwrap().is_some(), "log must replay");
    }
    assert_eq!(runtime.log().len(), 128);
}

#[test]
fn shutdown_fails_straggling_submissions_instead_of_hanging() {
    let runtime = ManagerRuntime::new(&patient_constraint()).unwrap();
    let session = runtime.session(1);
    runtime.shutdown().unwrap();
    match session.execute(&call(1, "sono")).wait() {
        Completion::Failed { error: ManagerError::Disconnected } => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }
}

/// Builds a durable four-shard runtime on a fresh shared vault, commits
/// a pair on department `a` plus one full cross-shard audit, and shuts
/// it down — the common preamble of the torn-log tests below.
fn torn_test_vault() -> Arc<dyn Vault> {
    let vault: Arc<dyn Vault> = Arc::new(ix_durable::MemVault::new());
    let options =
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() };
    let runtime =
        ManagerRuntime::with_durability(&coupled_constraint(), options, Arc::clone(&vault))
            .unwrap();
    let session = runtime.session(1);
    for action in [dept_action("call", 'a', 1), dept_action("perform", 'a', 1), audit()] {
        assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
    }
    runtime.shutdown().unwrap();
    vault
}

#[test]
fn torn_cross_commit_rolls_forward_on_every_missing_owner() {
    let vault = torn_test_vault();
    // Hand-tear a second audit: its commit record reached shard 0's
    // stream (the primary) but the crash swallowed the other owners'
    // echoes.
    let hub = DurabilityHub::new(Arc::clone(&vault));
    hub.log_shard(
        0,
        &WalRecord::Commit {
            key: (100, 0, 0),
            action: audit(),
            is_primary: true,
            delta: ManagerStats { asks: 1, grants: 1, confirmations: 1, ..ManagerStats::ZERO },
        },
    );
    let recovered = ManagerRuntime::recover(
        vault,
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() },
    )
    .unwrap();
    // The decision was durable on one stream, so it completes on all
    // four owners: the merged log gains the torn audit exactly once...
    let log = recovered.log();
    assert_eq!(log.len(), 4);
    assert_eq!(log[3], audit());
    // ...and every shard's engine advanced through it — a third audit
    // still commits, which it could not if any owner were left behind.
    let session = recovered.session(2);
    assert!(matches!(session.execute(&audit()).wait(), Completion::Executed { .. }));
    // The roll-forward re-journaled the missing echoes, so a second
    // crash right now recovers the same state from the streams alone.
    let vault = recovered.vault().unwrap();
    recovered.shutdown().unwrap();
    let again = ManagerRuntime::recover(
        vault,
        RuntimeOptions { variant: ProtocolVariant::Combined, ..RuntimeOptions::default() },
    )
    .unwrap();
    assert_eq!(again.log().len(), 5);
    again.shutdown().unwrap();
}

#[test]
fn torn_reservation_grant_completes_and_torn_release_drops() {
    let vault = torn_test_vault();
    let hub = DurabilityHub::new(Arc::clone(&vault));
    let lease =
        |id: u64| Reservation { id, action: audit(), client: 9, granted_at: 0, expires_at: 50 };
    // Reservation 70: granted on shards 0 and 1, the crash swallowed
    // the other owners' grant records and there is no release in any
    // tail — the grant is durable, so recovery completes it everywhere.
    for shard in [0usize, 1] {
        hub.log_shard(
            shard,
            &WalRecord::Reserve { reservation: lease(70), delta: ManagerStats::ZERO },
        );
    }
    // Reservation 71: granted everywhere, but shard 2 also journaled
    // the release before the crash — the removal is durable, so
    // recovery drops the holders that remain.
    for shard in 0..4usize {
        hub.log_shard(
            shard,
            &WalRecord::Reserve { reservation: lease(71), delta: ManagerStats::ZERO },
        );
    }
    hub.log_shard(2, &WalRecord::Release { id: 71, delta: ManagerStats::ZERO });
    let recovered = ManagerRuntime::recover(
        vault,
        RuntimeOptions {
            variant: ProtocolVariant::Leased { lease: 50 },
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    let session = recovered.session(3);
    // Reservation 71 was dropped everywhere: confirming it fails.
    assert!(session.confirm_blocking(71).is_err(), "torn release must drop the lease");
    // Reservation 70 completed everywhere: its lease re-armed on the
    // recovered lease timers and fires once the clock passes it.
    let expired = recovered.advance_time(60);
    assert_eq!(expired.len(), 1, "only lease 70 survived recovery");
    assert_eq!(expired[0].id, 70);
    assert_eq!(expired[0].action, audit());
    recovered.shutdown().unwrap();
}

/// `shards` disjoint quantifier-free rings `(a_k - b_k)*`: every shard
/// compiles to a table, and shard `k` commits `a_k b_k a_k b_k …`.
fn ring_runtime(shards: usize, workers: usize) -> ManagerRuntime {
    let rings: Vec<String> = (0..shards).map(|k| format!("(a_{k} - b_{k})*")).collect();
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: workers,
        ..RuntimeOptions::default()
    };
    ManagerRuntime::with_options(&parse(&rings.join(" @ ")).unwrap(), options).unwrap()
}

/// `rounds` turns of every ring, interleaved across the shards.
fn ring_word(shards: usize, rounds: usize) -> Vec<Action> {
    let turn = |i: usize| ["a", "b"][i % 2];
    (0..rounds)
        .flat_map(|i| (0..shards).map(move |k| Action::nullary(&format!("{}_{k}", turn(i)))))
        .collect()
}

/// `log` holds exactly the commits of `sent`, every shard's in order.
fn assert_log_holds(log: &[Action], sent: &[Action], shards: usize) {
    assert_eq!(log.len(), sent.len(), "the log misses commits queued before the call");
    for k in 0..shards {
        let suffix = format!("_{k}");
        let of_shard = |word: &[Action]| -> Vec<Action> {
            word.iter().filter(|a| a.to_string().ends_with(&suffix)).cloned().collect()
        };
        assert_eq!(of_shard(log), of_shard(sent), "shard {k} logged out of order");
    }
}

/// Calls `log()` and `tier_stats()` from a second thread while the
/// shards in `stuck` cannot be served, waits until each of their queues
/// holds one more task — the call took the queued path there — and only
/// then lets `unstick` release them.
fn ask_behind_backlog(
    runtime: &ManagerRuntime,
    stuck: &[usize],
    unstick: impl FnOnce(),
) -> (Vec<Action>, TierStats) {
    let slots = read_topology(&runtime.topology).slots.clone();
    let before: Vec<usize> = stuck.iter().map(|&s| queued(&slots[s])).collect();
    std::thread::scope(|scope| {
        let asker = scope.spawn(|| (runtime.log(), runtime.tier_stats()));
        let deadline = Instant::now() + Duration::from_secs(2);
        let grown = || stuck.iter().zip(&before).all(|(&s, &n)| queued(&slots[s]) > n);
        while !grown() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        unstick();
        asker.join().unwrap()
    })
}

#[test]
fn control_calls_never_overtake_queued_submissions() {
    // Every pool size: a whole window is in the queues when `log()` is
    // called, and the answer must reflect all of it.
    for workers in [1usize, 2, 3] {
        let runtime = ring_runtime(3, workers);
        runtime.compile_tiers();
        let sent = ring_word(3, 200);
        let tickets = runtime.session(1).submit_batch(&sent);
        let log = runtime.log();
        let tiers = runtime.tier_stats();
        assert_log_holds(&log, &sent, 3);
        assert!(
            tickets.iter().all(|t| matches!(t.poll(), Some(Completion::Executed { .. }))),
            "log() answered before a submission queued ahead of it ({workers} workers)"
        );
        assert_eq!(tiers, runtime.tier_stats(), "tier_stats() answered ahead of the window");
        assert_eq!(tiers.hits, sent.len() as u64);
        runtime.shutdown().unwrap();
    }

    // Forced: the one worker is held inside a task of shard 0, so slot 0
    // is Busy and slot 1 is Live behind a backlog nobody serves.  Both
    // calls must queue on both shards.
    let runtime = ring_runtime(2, 1);
    let topo = read_topology(&runtime.topology);
    let session = runtime.session(1);
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let hold = Task::Control(Box::new(move |_| {
        entered_tx.send(()).unwrap();
        let _ = release_rx.recv();
    }));
    assert!(topo.send(0, hold));
    entered_rx.recv().unwrap();
    let mut sent = ring_word(2, 50);
    let tickets = session.submit_batch(&sent);
    let (log, tiers) = ask_behind_backlog(&runtime, &[0, 1], || drop(release_tx));
    assert_log_holds(&log, &sent, 2);
    assert!(tickets.iter().all(|t| t.poll().is_some()));
    assert_eq!(tiers, runtime.tier_stats());

    // Forced: shard 0 is Suspended by a pause barrier in flight.
    let (state_tx, state_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel();
    assert!(topo.send(0, Task::Pause(PauseTask { state_tx, resume_rx })));
    let state = state_rx.recv().unwrap();
    let more = ring_word(2, 50);
    let tickets = session.submit_batch(&more);
    sent.extend(more);
    let (log, tiers) = ask_behind_backlog(&runtime, &[0], || {
        assert!(resume_tx.send(state).is_ok());
        topo.pool.core.wake_all();
    });
    assert_log_holds(&log, &sent, 2);
    assert!(tickets.iter().all(|t| t.poll().is_some()));
    assert_eq!(tiers, runtime.tier_stats());
    runtime.shutdown().unwrap();
}

/// An enqueuer's wake-up that finds the slot Busy in a caller frame
/// sends the worker back to sleep for [`IDLE_PARK`]; the frame has to
/// repeat it when it checks the slot in, or the round trip costs up to
/// 10 ms.
#[test]
fn a_caller_frame_repeats_the_wake_up_it_swallowed() {
    let runtime = ring_runtime(2, 2);
    let expr = runtime.expr();
    let blocking = InteractionManager::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    let agrees = |action: &Action| {
        let got = matches!(session.execute(action).wait(), Completion::Executed { .. });
        got == blocking.try_execute(1, action).unwrap().is_some()
    };

    // Control calls hammer both shards while window-1 round trips run on
    // them.  Every fifth action repeats its predecessor, out of turn.
    let mut word = ring_word(2, 1000);
    for i in (4..word.len()).step_by(5) {
        word[i] = word[i - 1].clone();
    }
    let stop = AtomicBool::new(false);
    let (took, wrong) = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                runtime.tier_stats();
                runtime.is_final();
            }
        });
        let started = Instant::now();
        let wrong = word.iter().filter(|action| !agrees(action)).count();
        stop.store(true, Ordering::Relaxed);
        (started.elapsed(), wrong)
    });
    assert_eq!(wrong, 0, "verdicts differ from the blocking manager");
    assert_eq!(runtime.log(), blocking.log());
    // Bounds are for optimised builds (CI runs this test in release).
    let slack = if cfg!(debug_assertions) { 5 } else { 1 };
    assert!(took < Duration::from_secs(2 * slack), "2000 round trips took {took:?}");

    // Those frames are too short for a worker to run into often, so
    // hold one open across a submission: the worker it wakes finds
    // slot 0 Busy and parks before the frame checks the slot back in.
    let topo = read_topology(&runtime.topology);
    let done = blocking.log().iter().filter(|a| a.to_string().ends_with("_0")).count();
    let started = Instant::now();
    for turn in done..done + 200 {
        let action = Action::nullary(["a_0", "b_0"][turn % 2]);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let hold = move |_: &mut ShardState| {
                    entered_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                };
                control(&topo, 0, hold).wait()
            });
            entered_rx.recv().unwrap();
            let ticket = session.execute(&action);
            std::thread::sleep(Duration::from_micros(200));
            drop(release_tx);
            assert!(matches!(ticket.wait(), Completion::Executed { .. }));
        });
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(slack),
        "200 round trips behind a caller frame took {took:?}: wake-ups were swallowed"
    );
    runtime.shutdown().unwrap();
}

/// A single-owner operation may be decided on the submitting thread
/// only behind everything queued before it: not while its shard's slot
/// is held, and not while the slot is Live behind a backlog nobody has
/// served yet.  Either overtaking would show: the word alternates, so
/// an `a_k` run ahead of the queued window makes that window's first
/// `a_k` a denial.
#[test]
fn a_data_frame_never_overtakes_a_queued_submission() {
    let runtime = ring_runtime(2, 1);
    let topo = read_topology(&runtime.topology);
    let session = runtime.session(1);
    // The one worker is held inside a task of shard 0: slot 0 is Busy,
    // slot 1 Live, and whatever is queued on either stays queued.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let hold = Task::Control(Box::new(move |_| {
        entered_tx.send(()).unwrap();
        let _ = release_rx.recv();
    }));
    assert!(topo.send(0, hold));
    entered_rx.recv().unwrap();
    let mut sent = ring_word(2, 50);
    let mut tickets = session.submit_batch(&sent);
    for k in 0..2 {
        let next = Action::nullary(&format!("a_{k}"));
        let ticket = session.execute(&next);
        assert!(ticket.poll().is_none(), "shard {k} decided ahead of its queue");
        tickets.push(ticket);
        sent.push(next);
    }
    drop(release_tx);
    for (ticket, action) in tickets.iter().zip(&sent) {
        assert!(
            matches!(ticket.wait(), Completion::Executed { .. }),
            "{action} was overtaken: denied out of turn"
        );
    }
    let log = runtime.log();
    assert_log_holds(&log, &sent, 2);
    // At rest again, the same call is decided before it returns.
    assert!(matches!(
        session.execute(&Action::nullary("b_0")).poll(),
        Some(Completion::Executed { .. })
    ));
    runtime.shutdown().unwrap();
}

/// A memory vault whose next append can be held open from outside: the
/// one step of a decision a test can stretch, with the decision's thread
/// inside the shard kernel and the slot Busy.  It counts its `sync`
/// calls.
#[derive(Default)]
struct HeldVault {
    inner: ix_durable::MemVault,
    /// Taken by the next append: it reports in, then waits to be let go.
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    syncs: std::sync::atomic::AtomicUsize,
}

impl HeldVault {
    fn syncs(&self) -> usize {
        self.syncs.load(Ordering::Relaxed)
    }
}

impl Vault for HeldVault {
    fn append(&self, stream: u32, payload: &[u8]) -> u64 {
        if let Some((entered, release)) = lock(&self.hold).take() {
            entered.send(()).unwrap();
            let _ = release.recv();
        }
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
    fn sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`a_caller_frame_repeats_the_wake_up_it_swallowed`] for the frames
/// of the data plane.  A decision is held open at its write-ahead
/// append, on the submitting thread, across a queued submission to the
/// same shard: the worker that submission wakes finds the slot Busy and
/// parks for [`IDLE_PARK`] before the frame checks the slot back in.  If
/// the frame does not repeat the wake-up, every round costs 10 ms.
#[test]
fn a_data_frame_repeats_the_wake_up_it_swallowed() {
    let vault = Arc::new(HeldVault::default());
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: 1,
        ..RuntimeOptions::default()
    };
    let expr = parse("(a_0 - b_0)*").unwrap();
    let runtime = ManagerRuntime::with_durability(&expr, options, vault.clone()).unwrap();
    let (framer, client) = (runtime.session(1), runtime.session(2));
    let (a, b) = (Action::nullary("a_0"), [Action::nullary("b_0")]);
    let rounds = 200;
    let mut framed = 0;
    let started = Instant::now();
    for _ in 0..rounds {
        // The worker lets go of the slot a moment after it completes
        // the previous round's ticket: wait until a probe gets through.
        loop {
            let probe = framer.is_permitted(&a);
            let through = probe.poll().is_some();
            probe.wait();
            if through {
                break;
            }
        }
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        *lock(&vault.hold) = Some((entered_tx, release_rx));
        std::thread::scope(|scope| {
            let held = scope.spawn(|| {
                let ticket = framer.execute(&a);
                (ticket.poll().is_some(), ticket)
            });
            entered_rx.recv().unwrap();
            // `submit_batch` always queues.
            let ticket = client.submit_batch(&b).remove(0);
            std::thread::sleep(Duration::from_micros(200));
            drop(release_tx);
            let (in_frame, held) = held.join().unwrap();
            framed += usize::from(in_frame);
            assert!(matches!(held.wait(), Completion::Executed { .. }));
            assert!(matches!(ticket.wait(), Completion::Executed { .. }));
        });
    }
    let took = started.elapsed();
    assert_eq!(runtime.log().len(), 2 * rounds);
    // The worker's idle re-poll may take the slot from under a round.
    assert!(framed > rounds / 2, "{framed} of {rounds} held decisions ran in a caller frame");
    // Bounds are for optimised builds (CI runs this test in release).
    let slack = if cfg!(debug_assertions) { 5 } else { 1 };
    assert!(
        took < Duration::from_secs(slack),
        "{rounds} round trips behind a caller frame took {took:?}: wake-ups were swallowed"
    );
    runtime.shutdown().unwrap();
}

/// The paper's own deployment — a client that blocks on each reply —
/// is served without a worker thread: every decision is taken on the
/// client's frame.  The first task that is queued starts the worker it
/// is queued for, and only that one.
#[test]
fn a_window_one_client_starts_no_worker() {
    let expr = parse("(a_0 - b_0)* @ (a_1 - b_1)* @ all p { (call(p) - perform(p))* }");
    let options = RuntimeOptions {
        variant: ProtocolVariant::Leased { lease: 10 },
        worker_threads: 3,
        ..RuntimeOptions::default()
    };
    let runtime = ManagerRuntime::with_options(&expr.unwrap(), options).unwrap();
    let session = runtime.session(1);
    let case = |kind: &str, p: i64| Action::concrete(kind, [Value::int(p)]);
    for turn in 0..300i64 {
        let ring = Action::nullary(&format!("{}_{}", ["a", "b"][turn as usize % 2], turn % 2));
        assert!(session.subscribe_blocking(&ring).is_ok());
        session.is_permitted_blocking(&ring);
        if let Some(id) = session.ask_blocking(&ring).unwrap() {
            session.confirm_blocking(id).unwrap();
        }
        assert!(matches!(session.unsubscribe(&ring).wait(), Completion::Unsubscribed));
        // A case that is confirmed, one that is aborted, one whose
        // lease runs out.
        let id = session.ask_blocking(&case("call", turn)).unwrap().expect("a new case");
        match turn % 3 {
            0 => drop(session.confirm_blocking(id).unwrap()),
            1 => drop(session.abort_blocking(id).unwrap()),
            _ => assert_eq!(session.advance_time(11).len(), 1),
        }
    }
    let stats = runtime.sched_stats();
    assert_eq!((stats.workers, stats.started), (3, 0), "a blocking client started a worker");
    assert!(!runtime.log().is_empty());
    assert_eq!(runtime.sched_stats().started, 0, "log() of a runtime at rest started a worker");

    let window = [Action::nullary("a_1")];
    let queued = session.submit_batch(&window).remove(0);
    assert!(queued.wait() != Completion::Failed { error: ManagerError::Disconnected });
    assert_eq!(runtime.sched_stats().started, 1, "one queue was used: one worker runs");
    runtime.shutdown().unwrap();
}

/// Shutting down a runtime nothing was ever queued on serves the Stop
/// markers on the calling thread: no worker is started to be told to
/// stop.  The report is the one the workers would have left.
#[test]
fn shutdown_of_a_never_queued_runtime_starts_no_thread() {
    let runtime = ring_runtime(3, 2);
    let session = runtime.session(1);
    let word = ring_word(3, 20);
    for action in &word {
        assert!(matches!(session.execute(action).poll(), Some(Completion::Executed { .. })));
    }
    let shared = Arc::clone(&runtime.shared);
    let report = runtime.shutdown().unwrap();
    assert_eq!(shared.pool.core.started(), 0, "shutdown started a worker thread");
    assert_eq!(report.shards, 3);
    assert_log_holds(&report.log, &word, 3);
    assert_eq!(report.stats.confirmations, word.len() as u64);
    // The queues are closed: a session that outlived the runtime is
    // told so, by a frame as by a queue.
    assert_eq!(
        session.execute(&word[0]).wait(),
        Completion::Failed { error: ManagerError::Disconnected }
    );
    assert_eq!(shared.pool.core.started(), 0);

    // One shard queued on, two not: the started worker and the calling
    // thread retire the shards between them.
    let runtime = ring_runtime(3, 3);
    let session = runtime.session(1);
    let tickets = session.submit_batch(&[Action::nullary("a_1")]);
    assert!(matches!(session.execute(&Action::nullary("a_0")).wait(), Completion::Executed { .. }));
    let shared = Arc::clone(&runtime.shared);
    let report = runtime.shutdown().unwrap();
    assert!(matches!(tickets[0].wait(), Completion::Executed { .. }));
    assert_eq!((shared.pool.core.started(), report.shards, report.log.len()), (1, 3, 2));
}

/// Dropping a runtime without `shutdown()` leaks no thread, whichever
/// workers had started: the one that did retires the shards of the two
/// that never ran, so the pool counts down to zero and it exits.
#[test]
fn a_dropped_runtime_leaves_no_worker_behind() {
    let runtime = ring_runtime(3, 3);
    let session = runtime.session(1);
    let queued = session.submit_batch(&[Action::nullary("a_1")]).remove(0);
    assert!(matches!(queued.wait(), Completion::Executed { .. }));
    assert!(matches!(
        session.execute(&Action::nullary("a_0")).poll(),
        Some(Completion::Executed { .. })
    ));
    let shared = Arc::clone(&runtime.shared);
    assert_eq!(shared.pool.core.started(), 1);
    drop(session);
    drop(runtime);
    // The worker holds the only other handle onto the shared block.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Arc::strong_count(&shared) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(Arc::strong_count(&shared), 1, "the started worker is still running");
    assert_eq!(shared.pool.core.live.load(Ordering::Acquire), 0);
    assert_eq!(lock(&shared.pool.finished).len(), 3);
    assert_eq!(shared.pool.core.started(), 1, "retiring a shard started its worker");

    // No worker started: nothing runs, nothing to wait for.
    let runtime = ring_runtime(3, 3);
    assert!(matches!(
        runtime.session(1).execute(&Action::nullary("a_0")).poll(),
        Some(Completion::Executed { .. })
    ));
    let shared = Arc::clone(&runtime.shared);
    drop(runtime);
    assert_eq!((Arc::strong_count(&shared), shared.pool.core.started()), (1, 0));
}

/// A durable runtime's set-up syncs nothing: its topology becomes
/// durable at the vault's first barrier.  A clean shutdown ends with one
/// `sync`, whether the commits were decided on frames or by a worker, so
/// nothing it acknowledged is left in the page cache.
#[test]
fn a_durable_runtime_syncs_once_at_shutdown_and_not_in_set_up() {
    for queued in [false, true] {
        let vault = Arc::new(HeldVault::default());
        let expr = parse("(a_0 - b_0)* @ (a_1 - b_1)*").unwrap();
        let options = RuntimeOptions {
            variant: ProtocolVariant::Combined,
            worker_threads: 2,
            ..RuntimeOptions::default()
        };
        let runtime = ManagerRuntime::with_durability(&expr, options, vault.clone()).unwrap();
        assert_eq!(vault.syncs(), 0, "set-up synced the vault");
        let session = runtime.session(1);
        let word = ring_word(2, 10);
        if queued {
            for ticket in session.submit_batch(&word) {
                assert!(matches!(ticket.wait(), Completion::Executed { .. }));
            }
        } else {
            for action in &word {
                assert!(matches!(session.execute(action).wait(), Completion::Executed { .. }));
            }
        }
        assert_eq!(runtime.log().len(), word.len());
        assert_eq!(vault.syncs(), 0, "commits and log() sync nothing");
        drop(session);
        assert_eq!(runtime.shutdown().unwrap().log.len(), word.len());
        assert_eq!(vault.syncs(), 1, "queued = {queued}");
    }
}
