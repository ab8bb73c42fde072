//! Integration tests of dynamic repartitioning under concurrency: a live
//! migration must pause *only* the affected shards' queues — clients of
//! every other shard keep committing throughout — and submissions racing
//! the topology change are retried through the new epoch, never lost or
//! misdelivered.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{Completion, ManagerRuntime, ProtocolVariant};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The ⊗-coupling of `components` independent groups, each enforcing "every
/// case is called before it is performed" over its own action names: one
/// shard per component.
fn disjoint_components_constraint(components: usize) -> Expr {
    let group = |k: usize| format!("(some p {{ call_{k}(p) - perform_{k}(p) }})*");
    parse(&(0..components).map(group).collect::<Vec<_>>().join(" @ ")).unwrap()
}

fn component_call(k: usize, p: i64) -> Action {
    Action::concrete(&format!("call_{k}"), [Value::int(p)])
}

fn component_perform(k: usize, p: i64) -> Action {
    Action::concrete(&format!("perform_{k}"), [Value::int(p)])
}

/// Pre-commits `pairs` call/perform pairs on component 0, so a later
/// coupling onto `call_0` has a real history to replay (a migration window
/// long enough to race against).
fn seed_history(runtime: &ManagerRuntime, pairs: i64) {
    let session = runtime.session(0);
    for chunk in (0..pairs).collect::<Vec<_>>().chunks(128) {
        let window: Vec<Action> =
            chunk.iter().flat_map(|&p| [component_call(0, p), component_perform(0, p)]).collect();
        for t in session.submit_batch(&window) {
            assert!(matches!(t.wait(), Completion::Executed { .. }));
        }
    }
}

#[test]
fn traffic_on_unaffected_shards_continues_during_migration() {
    let components = 4;
    let runtime = Arc::new(
        ManagerRuntime::with_protocol(
            &disjoint_components_constraint(components),
            ProtocolVariant::Combined,
        )
        .unwrap(),
    );
    seed_history(&runtime, 3_000);

    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for k in 1..components {
        let runtime = Arc::clone(&runtime);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        clients.push(std::thread::spawn(move || {
            let session = runtime.session(k as u64);
            let mut p = 0i64;
            while !stop.load(Ordering::Relaxed) {
                for action in [component_call(k, p), component_perform(k, p)] {
                    if session.execute_blocking(&action).unwrap().is_some() {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                p += 1;
            }
        }));
    }
    // Let the clients warm up, then migrate component 0 while they run.
    while committed.load(Ordering::Relaxed) < 50 {
        std::thread::yield_now();
    }
    let before = committed.load(Ordering::Relaxed);
    let report = runtime.couple(&parse("((some p { call_0(p) })* - audit_0)*").unwrap()).unwrap();
    let during = committed.load(Ordering::Relaxed) - before;
    stop.store(true, Ordering::Relaxed);
    for client in clients {
        client.join().unwrap();
    }
    assert_eq!(report.migrated_shards, vec![0], "only component 0 is quiesced");
    assert_eq!(report.replayed_actions, 3_000, "the committed calls replay");
    assert!(during > 0, "clients on unaffected shards must keep committing during the migration");
    // Nothing was lost or double-committed: the merged log replays on a
    // monolithic manager of the final expression.
    let mono =
        ix_manager::InteractionManager::monolithic(&runtime.expr(), ProtocolVariant::Combined)
            .unwrap();
    for action in runtime.log() {
        assert!(mono.try_execute(9, &action).unwrap().is_some(), "log replay rejected {action}");
    }
}

#[test]
fn submissions_racing_the_migration_are_retried_not_lost() {
    // One client hammers the *affected* component while it migrates: its
    // submissions either land before the pause barrier (old epoch, old
    // routing) or behind it (stale stamps, re-routed through the widened
    // owner set) — every ticket must complete and the log must replay.
    let runtime = Arc::new(
        ManagerRuntime::with_protocol(
            &disjoint_components_constraint(2),
            ProtocolVariant::Combined,
        )
        .unwrap(),
    );
    seed_history(&runtime, 1_500);

    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let runtime = Arc::clone(&runtime);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let session = runtime.session(5);
            let mut p = 10_000i64;
            let mut committed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let tickets =
                    session.submit_batch(&[component_call(0, p), component_perform(0, p)]);
                for t in tickets {
                    if matches!(t.wait(), Completion::Executed { .. }) {
                        committed += 1;
                    }
                }
                p += 1;
            }
            committed
        })
    };
    let report = runtime.couple(&parse("((some p { call_0(p) })* - audit_0)*").unwrap()).unwrap();
    assert_eq!(report.migrated_shards, vec![0]);
    stop.store(true, Ordering::Relaxed);
    let committed = hammer.join().unwrap();
    assert!(committed > 0, "the affected component's client made progress");
    // After the migration, call_0 is cross-shard and still serves.
    assert!(runtime.is_cross_shard(&component_call(0, 999_999)));
    let session = runtime.session(1);
    assert!(session.execute_blocking(&component_call(0, 999_999)).unwrap().is_some());
    let mono =
        ix_manager::InteractionManager::monolithic(&runtime.expr(), ProtocolVariant::Combined)
            .unwrap();
    for action in runtime.log() {
        assert!(mono.try_execute(9, &action).unwrap().is_some(), "log replay rejected {action}");
    }
}

#[test]
fn unknown_actions_deny_inline_even_while_a_migration_is_running() {
    // Unknown-to-every-shard actions resolve from the router's signature
    // index without touching any queue or the enqueue lock, so they stay
    // instant even while a shard is quiesced mid-migration.
    let runtime = Arc::new(
        ManagerRuntime::with_protocol(
            &disjoint_components_constraint(2),
            ProtocolVariant::Combined,
        )
        .unwrap(),
    );
    seed_history(&runtime, 2_000);
    let migrate = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || {
            runtime.couple(&parse("((some p { call_0(p) })* - audit_0)*").unwrap()).unwrap()
        })
    };
    let session = runtime.session(3);
    let unknown = Action::nullary("nobody_owns_this");
    let mut checked = 0u64;
    while !migrate.is_finished() {
        let t = session.execute(&unknown);
        assert_eq!(
            t.poll(),
            Some(Completion::Denied),
            "unknown-action denial must be complete the moment execute returns"
        );
        checked += 1;
    }
    assert!(checked > 0);
    let report = migrate.join().unwrap();
    assert_eq!(report.replayed_actions, 2_000);
    // submit_batch denies unknowns in its lock-free plan phase too.
    let tickets = session.submit_batch(&[unknown.clone(), component_call(1, 1)]);
    assert_eq!(tickets[0].poll(), Some(Completion::Denied));
    assert!(matches!(tickets[1].wait(), Completion::Executed { .. }));
}

#[test]
fn repeated_migrations_compose() {
    // Grow a 1-shard runtime through several epochs — disjoint appends and
    // couplings interleaved with traffic — and check the final semantics
    // against a monolithic manager of the joined expression.
    let base = parse("(x0 - y0)*").unwrap();
    let runtime = ManagerRuntime::with_protocol(&base, ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    let mut joined = base;
    let x0 = Action::nullary("x0");
    let y0 = Action::nullary("y0");
    assert!(session.execute_blocking(&x0).unwrap().is_some());
    for (i, (src, couples)) in [
        ("(x1 - y1)*", false),
        ("(x0* - s0)*", true),
        ("(x2 - y2)*", false),
        ("((x1 + x2)* - s1)*", true),
    ]
    .iter()
    .enumerate()
    {
        let constraint = parse(src).unwrap();
        let report = if *couples {
            runtime.couple(&constraint).unwrap()
        } else {
            runtime.add_constraint(&constraint).unwrap()
        };
        assert_eq!(report.epoch, i as u64 + 1);
        joined = Expr::sync(joined, constraint);
        // Keep traffic flowing between epochs.
        assert!(session.execute_blocking(&y0).unwrap().is_some());
        assert!(session.execute_blocking(&x0).unwrap().is_some());
    }
    assert_eq!(runtime.epoch(), 4);
    assert_eq!(runtime.shard_count(), 5);
    let mono =
        ix_manager::InteractionManager::monolithic(&joined, ProtocolVariant::Combined).unwrap();
    for action in runtime.log() {
        assert!(mono.try_execute(9, &action).unwrap().is_some(), "log replay rejected {action}");
    }
    for name in ["x0", "y0", "x1", "y1", "x2", "y2", "s0", "s1", "zzz"] {
        let action = Action::nullary(name);
        assert_eq!(
            session.is_permitted_blocking(&action),
            mono.is_permitted(&action),
            "permitted set diverges on {name}"
        );
    }
}

#[test]
fn a_stale_tile_can_never_serve_a_post_migration_step() {
    // Shard 0's engine runs its unordered (open + close)* loop from a table,
    // then a coupling imposes strict open/close alternation.  The coupling
    // is a component of its own beside shard 0, whose expression does not
    // change, so no cell of shard 0's table goes stale: the migration keeps
    // the table, it goes on serving, and the coupled ensemble still denies
    // a double open.
    let expr = parse("(open_0 + close_0)* | (open_1 + close_1)*").unwrap();
    let runtime = ManagerRuntime::with_protocol(&expr, ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    let open = Action::nullary("open_0");
    let close = Action::nullary("close_0");
    let shard_0 = || runtime.compile_tiers()[0];
    for _ in 0..100 {
        assert!(session.execute_blocking(&open).unwrap().is_some());
        assert!(session.execute_blocking(&close).unwrap().is_some());
    }
    let before = shard_0();
    assert!(before.tables >= 1 && before.hits > 0, "shard 0 must be table-resident: {before:?}");

    // The committed history alternates, so it replays onto the coupling.
    let report = runtime.couple(&parse("(open_0 - close_0)*").unwrap()).unwrap();
    assert!(report.migrated_shards.contains(&0));
    let after = shard_0();
    assert_eq!(after.compiles, before.compiles, "the migration kept shard 0's tables: {after:?}");
    assert_eq!((after.tables, after.states), (before.tables, before.states));

    // Shard 0's table permits open_0 in any state; the coupled ensemble
    // denies a second open before a close, and the kept table serves on.
    for _ in 0..50 {
        assert!(session.execute_blocking(&open).unwrap().is_some());
        assert!(session.execute_blocking(&open).unwrap().is_none(), "double open must be denied");
        assert!(session.execute_blocking(&close).unwrap().is_some());
    }
    let served = shard_0();
    assert!(served.hits > after.hits, "the kept table serves post-migration steps: {served:?}");
    assert_eq!(served.compiles, before.compiles);
}

/// ROADMAP item 22's repro: on `(a - b) | c`, coupling `b - a` leaves the
/// `{a, b}` component no way to a final state — `a` waits for `b` and `b`
/// for `a` — while `c` keeps running.  Today `couple` returns `Ok`, and
/// afterwards `a` and `b` are never permitted again.  Ignored until item 22
/// refuses such a change and leaves the runtime exactly as it was.
#[test]
#[ignore = "ROADMAP item 22"]
fn a_coupling_that_strands_a_workflow_is_refused() {
    let runtime = ManagerRuntime::new(&parse("(a - b) | c").unwrap()).unwrap();
    let session = runtime.session(1);
    let [a, b, c] = ["a", "b", "c"].map(Action::nullary);
    assert!(session.is_permitted_blocking(&a));
    let coupled = runtime.couple(&parse("b - a").unwrap());
    assert!(coupled.is_err(), "a coupling that strands {{a, b}} was installed: {coupled:?}");
    assert_eq!(runtime.epoch(), 0);
    for action in [a, b, c] {
        assert!(session.execute_blocking(&action).unwrap().is_some(), "{action} denied");
    }
    runtime.shutdown().unwrap();
}
