//! Integration tests of decisions taken on the submitting thread.
//!
//! A single-owner operation whose shard is at rest is decided in a *caller
//! frame*: the session call returns a complete ticket and no worker was
//! involved.  Which thread decides must be invisible.  The lockstep property
//! below mixes such calls from two sessions with `submit_batch` windows that
//! are still in flight (so the same calls queue behind them), cross-shard
//! operations and lease expiries, and holds the runtime to the blocking
//! manager: verdict by verdict, then statistics, notifications and log.  A
//! second property crashes the same schedule half-way and recovers it from
//! the vault; a fault drill shows that the write-ahead records a frame
//! writes are the ones a worker would have written, at the same ordinals;
//! a bounded runtime ends ten thousand framed operations holding no
//! admission credit; and a blocking client runs with no worker thread at
//! all, whatever the shape of its expression — which shards are
//! table-resident is read off the expression, not learned by a worker.

use ix_core::{parse, Action, Value};
use ix_durable::{FaultMode, FaultPlan, FaultVault};
use ix_manager::{
    Completion, InteractionManager, ManagerError, ManagerRuntime, MemVault, Notification,
    ProtocolVariant, RuntimeOptions, Session, Ticket, Vault,
};
use ix_wfms::{coupled_audit, coupled_call, coupled_ensemble_constraint, coupled_perform};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::sync::Arc;

const DEPARTMENTS: usize = 4;
const LEASE: u64 = 4;

fn options(workers: usize) -> RuntimeOptions {
    RuntimeOptions {
        variant: ProtocolVariant::Leased { lease: LEASE },
        worker_threads: workers,
        ..RuntimeOptions::default()
    }
}

/// What a step acts on: a department's call or perform of a case, the audit
/// all departments own together, or an action nobody owns.
#[derive(Clone, Copy, Debug)]
enum Target {
    Call(usize, i64),
    Perform(usize, i64),
    Audit,
    Stranger,
}

impl Target {
    fn action(self) -> Action {
        match self {
            Target::Call(k, p) => coupled_call(k, p),
            Target::Perform(k, p) => coupled_perform(k, p),
            Target::Audit => coupled_audit(),
            Target::Stranger => Action::nullary("stranger"),
        }
    }
}

/// One step of a schedule.  The `bool` picks the session: client 1 or 2.
#[derive(Clone, Debug)]
enum Step {
    Execute(bool, Target),
    AskConfirm(bool, Target),
    AskAbort(bool, Target),
    /// Ask and leave the grant to its lease.
    AskDangle(bool, Target),
    Probe(bool, Target),
    Subscribe(bool, Target),
    Unsubscribe(bool, Target),
    Tick(u64),
    /// A `submit_batch` window, harvested only when the next window is
    /// submitted (or the schedule ends): the steps in between run beside it,
    /// or queue behind it.
    Window(bool, Vec<Target>),
}

fn target() -> impl Strategy<Value = Target> {
    // No weights in the vendored `prop_oneof!`: an option listed twice is
    // drawn twice as often.
    let call = || (0..DEPARTMENTS, 1u64..3).prop_map(|(k, p)| Target::Call(k, p as i64));
    let perform = || (0..DEPARTMENTS, 1u64..3).prop_map(|(k, p)| Target::Perform(k, p as i64));
    prop_oneof![
        call(),
        call(),
        call(),
        perform(),
        perform(),
        perform(),
        Just(Target::Audit),
        Just(Target::Audit),
        Just(Target::Stranger),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    let on = || (0u8..2, target()).prop_map(|(c, t)| (c == 1, t));
    let window = || (0u8..2, proptest::collection::vec(target(), 1..12));
    prop_oneof![
        on().prop_map(|(c, t)| Step::Execute(c, t)),
        on().prop_map(|(c, t)| Step::Execute(c, t)),
        on().prop_map(|(c, t)| Step::Execute(c, t)),
        on().prop_map(|(c, t)| Step::AskConfirm(c, t)),
        on().prop_map(|(c, t)| Step::AskConfirm(c, t)),
        on().prop_map(|(c, t)| Step::AskConfirm(c, t)),
        on().prop_map(|(c, t)| Step::AskAbort(c, t)),
        on().prop_map(|(c, t)| Step::AskDangle(c, t)),
        on().prop_map(|(c, t)| Step::Probe(c, t)),
        on().prop_map(|(c, t)| Step::Probe(c, t)),
        on().prop_map(|(c, t)| Step::Subscribe(c, t)),
        on().prop_map(|(c, t)| Step::Subscribe(c, t)),
        on().prop_map(|(c, t)| Step::Unsubscribe(c, t)),
        (1u64..4).prop_map(Step::Tick),
        window().prop_map(|(c, w)| Step::Window(c == 1, w)),
        window().prop_map(|(c, w)| Step::Window(c == 1, w)),
    ]
}

/// Notifications as a sorted list of keys — those about the audit left out.
/// Whether the audit is permitted is a conjunction over all departments, so
/// when it flips, and how often, depends on how the commits of *different*
/// departments interleave; beside a window in flight that is the runtime's
/// choice (any order is a word of the expression), not the blocking
/// manager's submission order.  What a single department's subscriptions are
/// told is fixed by that department's queue order, and is compared.
fn sorted(notes: Vec<Notification>) -> Vec<(u64, String, bool)> {
    let audit = coupled_audit();
    let mut keys: Vec<_> = notes
        .into_iter()
        .filter(|n| n.action != audit)
        .map(|n| (n.client, n.action.to_string(), n.permitted))
        .collect();
    keys.sort();
    keys
}

/// A runtime and the blocking manager it is held to, driven step by step.
struct Lockstep {
    blocking: InteractionManager,
    sessions: [Session; 2],
    /// Runtime reservation id → the blocking manager's id for the same
    /// grant.
    dangling: HashMap<u64, u64>,
    /// The window in flight: its tickets and the verdicts they must carry.
    in_flight: Vec<(Ticket<Completion>, bool, Vec<Notification>)>,
    /// What the blocking manager told each client's subscriptions.
    told: Vec<Notification>,
    /// What the runtime told them, through the sessions' channels.
    heard: Vec<Notification>,
    /// Whether anybody ever subscribed to the audit.
    audit_subscribed: bool,
}

impl Lockstep {
    fn new(runtime: &ManagerRuntime) -> Lockstep {
        let blocking = InteractionManager::with_protocol(
            &coupled_ensemble_constraint(DEPARTMENTS),
            ProtocolVariant::Leased { lease: LEASE },
        )
        .unwrap();
        Lockstep {
            blocking,
            sessions: [runtime.session(1), runtime.session(2)],
            dangling: HashMap::new(),
            in_flight: Vec::new(),
            told: Vec::new(),
            heard: Vec::new(),
            audit_subscribed: false,
        }
    }

    /// After a crash: the same blocking manager, sessions onto the
    /// recovered runtime.
    fn reattach(&mut self, runtime: &ManagerRuntime) {
        self.sessions = [runtime.session(1), runtime.session(2)];
    }

    fn harvest(&mut self) -> Result<(), TestCaseError> {
        for (ticket, committed, notes) in self.in_flight.drain(..) {
            match ticket.wait() {
                Completion::Executed { notifications } => {
                    prop_assert!(committed, "the runtime committed what the manager denied");
                    prop_assert_eq!(sorted(notifications), sorted(notes));
                }
                Completion::Denied => prop_assert!(!committed, "the runtime denied a commit"),
                other => prop_assert!(false, "a window op completed with {:?}", other),
            }
        }
        for session in &self.sessions {
            self.heard.extend(session.poll_notifications());
        }
        Ok(())
    }

    /// Asks on both sides; the runtime's reservation id if both granted.
    fn ask(&mut self, who: usize, action: &Action) -> Result<Option<u64>, TestCaseError> {
        let client = who as u64 + 1;
        let granted = self.sessions[who].ask_blocking(action).unwrap();
        let expected = self.blocking.ask(client, action).unwrap();
        prop_assert_eq!(granted.is_some(), expected.is_some(), "ask({}) disagrees", action);
        if let (Some(id), Some(theirs)) = (granted, expected) {
            self.dangling.insert(id, theirs);
        }
        Ok(granted)
    }

    fn step(&mut self, runtime: &ManagerRuntime, step: &Step) -> Result<(), TestCaseError> {
        match step {
            Step::Execute(c, t) => {
                let (who, action) = (usize::from(*c), t.action());
                let got = self.sessions[who].execute_blocking(&action).unwrap();
                let expected = self.blocking.try_execute(who as u64 + 1, &action).unwrap();
                prop_assert_eq!(got.is_some(), expected.is_some(), "execute({})", action);
                prop_assert_eq!(
                    sorted(got.unwrap_or_default()),
                    sorted(expected.clone().unwrap_or_default())
                );
                self.told.extend(expected.unwrap_or_default());
            }
            Step::AskConfirm(c, t) => {
                let who = usize::from(*c);
                if let Some(id) = self.ask(who, &t.action())? {
                    let theirs = self.dangling.remove(&id).unwrap();
                    let got = self.sessions[who].confirm_blocking(id);
                    let expected = self.blocking.confirm(theirs);
                    prop_assert_eq!(got.is_ok(), expected.is_ok(), "confirm({})", t.action());
                    prop_assert_eq!(
                        sorted(got.unwrap_or_default()),
                        sorted(expected.clone().unwrap_or_default())
                    );
                    self.told.extend(expected.unwrap_or_default());
                }
            }
            Step::AskAbort(c, t) => {
                let who = usize::from(*c);
                if let Some(id) = self.ask(who, &t.action())? {
                    let theirs = self.dangling.remove(&id).unwrap();
                    let got = self.sessions[who].abort_blocking(id).unwrap();
                    let expected = self.blocking.abort(theirs).unwrap();
                    prop_assert_eq!(got.action, expected.action);
                }
            }
            Step::AskDangle(c, t) => {
                self.ask(usize::from(*c), &t.action())?;
            }
            Step::Probe(c, t) => {
                let action = t.action();
                prop_assert_eq!(
                    self.sessions[usize::from(*c)].is_permitted_blocking(&action),
                    self.blocking.is_permitted(&action),
                    "is_permitted({})",
                    action
                );
            }
            Step::Subscribe(c, t) => {
                let (who, action) = (usize::from(*c), t.action());
                self.audit_subscribed |= matches!(t, Target::Audit);
                prop_assert_eq!(
                    self.sessions[who].subscribe_blocking(&action).unwrap(),
                    self.blocking.subscribe(who as u64 + 1, &action),
                    "subscribe({})",
                    action
                );
            }
            Step::Unsubscribe(c, t) => {
                let (who, action) = (usize::from(*c), t.action());
                prop_assert_eq!(
                    self.sessions[who].unsubscribe(&action).wait(),
                    Completion::Unsubscribed
                );
                self.blocking.unsubscribe(who as u64 + 1, &action);
            }
            Step::Tick(delta) => {
                let mut got: Vec<u64> =
                    runtime.advance_time(*delta).into_iter().map(|r| r.id).collect();
                let mut expected: Vec<u64> =
                    self.blocking.advance_time(*delta).into_iter().map(|r| r.id).collect();
                let mut mapped = Vec::new();
                for id in got.drain(..) {
                    mapped.push(self.dangling.remove(&id).expect("an expiry nobody was granted"));
                }
                mapped.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(mapped, expected, "leases expired differently");
            }
            Step::Window(c, targets) => {
                self.harvest()?;
                let who = usize::from(*c);
                let window: Vec<Action> = targets.iter().map(|t| t.action()).collect();
                let tickets = self.sessions[who].submit_batch(&window);
                for (ticket, action) in tickets.into_iter().zip(&window) {
                    let expected = self.blocking.try_execute(who as u64 + 1, action).unwrap();
                    self.told.extend(expected.clone().unwrap_or_default());
                    self.in_flight.push((ticket, expected.is_some(), expected.unwrap_or_default()));
                }
            }
        }
        Ok(())
    }

    /// Statistics, notifications and log of a runtime at rest against the
    /// blocking manager's.
    fn agree(&mut self, runtime: &ManagerRuntime) -> Result<(), TestCaseError> {
        self.harvest()?;
        let (mut ours, mut theirs) = (runtime.stats(), self.blocking.stats());
        if self.audit_subscribed {
            // See `sorted`.
            (ours.notifications, theirs.notifications) = (0, 0);
        }
        prop_assert_eq!(ours, theirs);
        prop_assert_eq!(sorted(self.heard.clone()), sorted(self.told.clone()));
        // Steps beside a window in flight may commit on other shards in
        // either order, so the merged logs need not match verbatim.  Each
        // department's projection — its own cases and every audit — is fixed
        // by its queue order, and the merged log must be a word of the
        // expression: it replays on a fresh monolithic manager.
        let (log, theirs) = (runtime.log(), self.blocking.log());
        for k in 0..DEPARTMENTS {
            let of_dept = |log: &[Action]| -> Vec<String> {
                let dept = format!("_dept{k}(");
                log.iter()
                    .map(|a| a.to_string())
                    .filter(|a| a == "audit" || a.contains(&dept))
                    .collect()
            };
            prop_assert_eq!(of_dept(&log), of_dept(&theirs), "department {}'s log", k);
        }
        let replay = InteractionManager::monolithic(
            &coupled_ensemble_constraint(DEPARTMENTS),
            ProtocolVariant::Combined,
        )
        .unwrap();
        for action in &log {
            prop_assert!(
                replay.try_execute(9, action).unwrap().is_some(),
                "the merged log is not a word: {} is out of turn",
                action
            );
        }
        Ok(())
    }
}

fn lockstep_case(steps: &[Step], workers: usize) -> Result<(), TestCaseError> {
    let x = coupled_ensemble_constraint(DEPARTMENTS);
    let runtime = ManagerRuntime::with_options(&x, options(workers)).unwrap();
    let mut lockstep = Lockstep::new(&runtime);
    for step in steps {
        lockstep.step(&runtime, step)?;
    }
    lockstep.agree(&runtime)?;
    runtime.shutdown().unwrap();
    Ok(())
}

fn crash_case(steps: &[Step], cut: usize, checkpoint: bool) -> Result<(), TestCaseError> {
    let x = coupled_ensemble_constraint(DEPARTMENTS);
    let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
    let runtime = ManagerRuntime::with_durability(&x, options(2), Arc::clone(&vault)).unwrap();
    let mut lockstep = Lockstep::new(&runtime);
    for step in &steps[..cut] {
        lockstep.step(&runtime, step)?;
    }
    lockstep.agree(&runtime)?;
    if checkpoint {
        runtime.checkpoint().unwrap();
    }
    // The crash: shutdown journals nothing.
    runtime.shutdown().unwrap();
    let recovered = ManagerRuntime::recover(vault, options(2)).unwrap();
    lockstep.reattach(&recovered);
    lockstep.agree(&recovered)?;
    for step in &steps[cut..] {
        lockstep.step(&recovered, step)?;
    }
    lockstep.agree(&recovered)?;
    recovered.shutdown().unwrap();
    Ok(())
}

/// The vendored proptest neither shrinks nor prints its inputs: a failure
/// carries the schedule it failed on.
fn on_schedule(result: Result<(), TestCaseError>, steps: &[Step]) -> Result<(), TestCaseError> {
    result.map_err(|e| TestCaseError::fail(format!("{e}\nschedule: {steps:?}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Who decides is invisible: framed, queued behind a window, or queued
    /// on every owner, each operation gets the blocking manager's verdict.
    #[test]
    fn framed_and_queued_operations_stay_in_lockstep_with_the_blocking_manager(
        steps in proptest::collection::vec(step(), 1..40),
        workers in 1usize..4,
    ) {
        on_schedule(lockstep_case(&steps, workers), &steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The write-ahead records frames write recover like the workers': crash
    /// after `cut` steps, and the recovered runtime has the blocking
    /// manager's log and statistics, its leases and subscriptions — and
    /// stays in lockstep for the rest of the schedule.
    #[test]
    fn a_crash_between_framed_operations_recovers_the_blocking_managers_state(
        steps in proptest::collection::vec(step(), 2..32),
        cut in 0usize..32,
        checkpoint in 0u8..2,
    ) {
        on_schedule(crash_case(&steps, cut % steps.len(), checkpoint == 1), &steps)?;
    }
}

/// Every surviving record of a vault: `(stream, index, payload)`.
fn records_of(disk: &MemVault) -> Vec<(u32, u64, Vec<u8>)> {
    let mut streams = disk.streams();
    streams.sort_unstable();
    let records = |s: u32| disk.read_from(s, 0).into_iter().map(move |(i, bytes)| (s, i, bytes));
    streams.into_iter().flat_map(records).collect()
}

/// The same commits and checkpoint, once with every commit written from a
/// caller frame and once with every one written by the worker: the two
/// vaults journal the same mutations at the same ordinals, so a crash drill
/// scripted against one names the same crash against the other — and both
/// recover to the same log and statistics at every ordinal.  (No audits
/// here: in which order the owners of one journal their records is the
/// worker's business in both runs.)
#[test]
fn crash_ordinals_name_the_same_mutations_whoever_writes_the_record() {
    let x = coupled_ensemble_constraint(DEPARTMENTS);
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: 1,
        ..RuntimeOptions::default()
    };
    let run = |framed: bool| -> Arc<FaultVault> {
        let fault = Arc::new(FaultVault::new());
        let vault: Arc<dyn Vault> = Arc::clone(&fault) as Arc<dyn Vault>;
        let runtime = ManagerRuntime::with_durability(&x, options, vault).unwrap();
        let session = runtime.session(1);
        let commit = |action: Action| {
            let ticket = if framed {
                session.execute(&action)
            } else {
                // `submit_batch` always queues.
                session.submit_batch(std::slice::from_ref(&action)).remove(0)
            };
            assert!(!framed || ticket.is_complete(), "{action} was not decided in a frame");
            assert!(matches!(ticket.wait(), Completion::Executed { .. }), "{action}");
        };
        for i in 0..12i64 {
            let k = (i % DEPARTMENTS as i64) as usize;
            commit(coupled_call(k, i));
            commit(coupled_perform(k, i));
            if i % 5 == 4 {
                runtime.checkpoint().unwrap();
            }
        }
        assert_eq!(runtime.sched_stats().started, usize::from(!framed));
        runtime.shutdown().unwrap();
        fault
    };
    let (framed, queued) = (run(true), run(false));
    assert_eq!(framed.ops(), queued.ops(), "the two runs journal differently many mutations");
    assert!(framed.ops() > 40, "not enough mutations to drill ({})", framed.ops());
    for at in 1..=framed.ops() {
        for mode in [FaultMode::ErrorAfter, FaultMode::TornFinal, FaultMode::FsyncLie] {
            let plan = FaultPlan { mode, at };
            let (ours, theirs) = (framed.surviving(&plan), queued.surviving(&plan));
            assert_eq!(records_of(&ours), records_of(&theirs), "the vaults differ under {plan:?}");
            let recover = |disk: MemVault| {
                let recovered = ManagerRuntime::recover(Arc::new(disk), options)
                    .unwrap_or_else(|e| panic!("recovery failed under {plan:?}: {e}"));
                let seen = (recovered.log(), recovered.stats());
                recovered.shutdown().unwrap();
                seen
            };
            assert_eq!(recover(ours), recover(theirs), "recovered differently under {plan:?}");
        }
    }
}

/// A frame returns the credit its submission was admitted with, and takes
/// none for traffic that is never shed: after ten thousand framed
/// operations every gate reads depth 0 — and is not below it either, or the
/// full window at the end would not be shed at exactly its limit.
#[test]
fn a_bounded_runtime_leaks_no_credit_through_caller_frames() {
    const LIMIT: usize = 8;
    let x = coupled_ensemble_constraint(DEPARTMENTS);
    let options = RuntimeOptions { queue_limit: LIMIT, ..options(2) };
    let runtime = ManagerRuntime::with_options(&x, options).unwrap();
    runtime.compile_tiers();
    let session = runtime.session(1);
    let mut framed = 0;
    for i in 0..2_000i64 {
        let k = (i % DEPARTMENTS as i64) as usize;
        let (call, perform) = (coupled_call(k, i), coupled_perform(k, i));
        // Admitted as a probe, as a commit, and (confirm, abort,
        // unsubscribe, expiry) not admitted at all.
        let tickets = [session.subscribe(&perform), session.is_permitted(&call)];
        framed += tickets.iter().filter(|t| t.is_complete()).count();
        let id = session.ask_blocking(&call).unwrap().expect("a new case is granted");
        match i % 3 {
            0 => drop(session.confirm_blocking(id).unwrap()),
            1 => drop(session.abort_blocking(id).unwrap()),
            _ => assert_eq!(session.advance_time(LEASE + 1).len(), 1),
        }
        let done = session.execute(&perform);
        framed += usize::from(done.is_complete());
        assert_eq!(matches!(done.wait(), Completion::Executed { .. }), i % 3 == 0);
        assert_eq!(session.unsubscribe(&perform).wait(), Completion::Unsubscribed);
    }
    assert_eq!(framed, 3 * 2_000, "an operation on a runtime at rest was queued");
    assert_eq!(runtime.sched_stats().started, 0);
    let report = runtime.load_report();
    assert!(report.shards.iter().all(|s| s.depth == 0), "credits leaked: {report:?}");
    assert_eq!((report.total_shed(), report.peak_depth()), (0, 1));
    assert!(report.shards.iter().all(|s| s.service_ewma_ns > 0 && s.wait_ewma_ns == 0));

    // One window of LIMIT + 1 commits for one shard is admitted as a whole
    // before any of it is dequeued: exactly the last one finds the gate full.
    let window: Vec<Action> = (0..=LIMIT as i64).map(|p| coupled_call(0, 10_000 + p)).collect();
    let tickets = session.submit_batch(&window);
    let shed = |t: &Ticket<Completion>| {
        matches!(t.wait(), Completion::Failed { error: ManagerError::Overloaded { .. } })
    };
    let verdicts: Vec<bool> = tickets.iter().map(shed).collect();
    assert_eq!(verdicts.iter().rposition(|shed| !shed), Some(LIMIT - 1), "{verdicts:?}");
    assert!(verdicts[LIMIT], "a gate below zero admitted past its limit");
    let report = runtime.load_report();
    assert!(report.shards.iter().all(|s| s.depth == 0), "credits leaked: {report:?}");
    runtime.shutdown().unwrap();
}

/// One ask → confirm round trip at window 1, granted.
fn round_trip(session: &Session, action: &Action) {
    let id = session.ask_blocking(action).unwrap().unwrap_or_else(|| panic!("{action} denied"));
    session.confirm_blocking(id).unwrap();
}

/// A client that blocks on every reply never needs a worker — not even to
/// find out that its expression cannot be tabulated.  (A quantified engine
/// used to turn "hot" after 64 tree steps, and the worker woken to compile
/// it could only report `CompileBailout::Quantifier`.)
#[test]
fn a_blocking_client_on_a_quantified_expression_starts_no_worker() {
    // ixbench's `local_sync`: four ⊗-coupled departments of whole cases.
    let departments: Vec<String> =
        (0..4).map(|k| format!("(some p {{ call_{k}(p) - perform_{k}(p) }})*")).collect();
    let x = parse(&departments.join(" @ ")).unwrap();
    let options = RuntimeOptions { variant: ProtocolVariant::Simple, ..RuntimeOptions::default() };
    let runtime = ManagerRuntime::with_options(&x, options).unwrap();
    let session = runtime.session(1);
    for trip in 0..1_000i64 {
        let (k, case) = (trip / 2 % 4, Value::int(trip / 8));
        let stage = if trip % 2 == 0 { "call" } else { "perform" };
        round_trip(&session, &Action::concrete(&format!("{stage}_{k}"), [case]));
    }
    assert_eq!(runtime.sched_stats().started, 0, "a worker was started");
    let tiers = runtime.tier_stats();
    assert_eq!((tiers.tables, tiers.hits, tiers.fills), (0, 0, 0), "{tiers:?}");
    assert_eq!(runtime.stats().confirmations, 1_000);
    runtime.shutdown().unwrap();
}

/// The same client over ixbench's `local_pipelined` rings, with exact
/// counts: installing the tier computes no cell, one lap and the denials
/// around it fill the cells they visit and no other, and from the second
/// lap on every decision is a lookup — on the caller's thread.
#[test]
fn a_blocking_client_on_rings_fills_its_tables_in_one_lap_and_starts_no_worker() {
    const STAGES: [&str; 4] = ["call", "prep", "perform", "report"];
    let rings: Vec<String> = (0..4)
        .map(|k| format!("({})*", STAGES.map(|stage| format!("{stage}_{k}")).join(" - ")))
        .collect();
    let x = parse(&rings.join(" @ ")).unwrap();
    let options = RuntimeOptions { variant: ProtocolVariant::Simple, ..RuntimeOptions::default() };
    let runtime = ManagerRuntime::with_options(&x, options).unwrap();
    let installed = runtime.compile_tiers();
    assert_eq!(installed.len(), 4);
    for shard in &installed {
        assert_eq!((shard.tables, shard.states, shard.fills, shard.hits), (1, 1, 0, 0));
    }
    assert_eq!(runtime.compile_tiers(), installed, "installing again is a no-op");

    let session = runtime.session(1);
    let stage = |ring: usize, at: usize| Action::nullary(&format!("{}_{ring}", STAGES[at % 4]));
    // One lap of every ring, and at each position the stage two ahead:
    // denied, as ixbench's schedule scripts it.
    for at in 0..4 {
        for ring in 0..4 {
            assert_eq!(session.ask_blocking(&stage(ring, at + 2)).unwrap(), None);
            round_trip(&session, &stage(ring, at));
        }
    }
    let lap = runtime.tier_stats();
    // Per ring: σ, three positions and the restarted idle; four cells that
    // moved on and four that said no.  (The closed tables hold 80.)
    assert_eq!((lap.tables, lap.states, lap.fills, lap.fallbacks), (4, 20, 32, 0), "{lap:?}");

    for trip in 16..1_000 {
        let (ring, at) = (trip % 4, trip / 4);
        round_trip(&session, &stage(ring, at));
    }
    let end = runtime.tier_stats();
    // The restarted idle's first step closes each ring: one more cell a
    // ring, and nothing after that.
    assert_eq!((end.states, end.fills, end.fallbacks), (20, 36, 0), "{end:?}");
    assert!(end.hits >= lap.hits + 2 * (1_000 - 16), "ask and confirm both hit: {end:?}");
    assert_eq!(runtime.sched_stats().started, 0, "a worker was started");
    runtime.shutdown().unwrap();
}
