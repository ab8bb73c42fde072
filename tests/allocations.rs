//! Allocation counts that hold still: the routing path allocates nothing on
//! a single owner, one runtime set-up stays under a pinned number of
//! allocations, and so does one decision on the caller's frame.  Timings on
//! a small shared host spread too widely to gate; these counts are exact
//! and seed-independent.
//!
//! A test binary of its own: the `#[global_allocator]` below counts every
//! allocation, zeroed allocation and reallocation made *by the calling
//! thread* (a thread-local counter, so tests running in parallel do not see
//! each other), and the bytes that thread holds live.  Each measurement
//! runs once first, untimed and uncounted, so one-time work — symbol
//! interning, lazily built statics — stays out.
//!
//! The set-up bounds are the values measured when they were pinned
//! (debug and release agree); the code before alphabets became sorted
//! slices measured 360, 454 and 602.  A change that lowers a count should
//! lower its bound with it.

use ix_core::{parse, Action, Expr, Partition, Route, Value};
use ix_manager::{
    Completion, FileVault, FsyncPolicy, ManagerRuntime, MemVault, ProtocolVariant, RuntimeOptions,
    Session, Ticket, Vault,
};
use ix_state::{Engine, ScopedAlphabet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn tick(bytes: i64) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    held(bytes);
}

/// Moves this thread's live-byte count.  A block freed by another thread
/// than the one that allocated it moves both threads' counts.
fn held(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-locals that themselves never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        held(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` once to warm up, then again counting this thread's allocations.
fn allocations<R>(mut f: impl FnMut() -> R) -> u64 {
    drop(f());
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    n
}

/// The partition of `cross_chain`'s expression, which routes its actions:
/// four departments, each its own shard, all coupled by `audit`.
fn chain_router() -> Partition {
    Partition::of(&parse(&chain_src()).unwrap())
}

#[test]
fn routing_a_single_owner_action_allocates_nothing() {
    let router = chain_router();
    let call = ix_wfms::coupled_call(2, 7);
    assert_eq!(router.classify(&call), Route::Single(2));
    assert_eq!(allocations(|| router.classify(&call)), 0);
    assert_eq!(allocations(|| router.owners_iter(&call).count()), 0);

    let alphabet = &router.components()[2].alphabet;
    let pattern = alphabet.covering(&call).expect("call_dept2(p) covers call_dept2(7)").clone();
    assert!(!pattern.is_concrete(), "the covering entry is parameterised");
    assert_eq!(allocations(|| alphabet.covers(&call)), 0);
    assert_eq!(allocations(|| alphabet.covering(&call).is_some()), 0);
    assert_eq!(allocations(|| alphabet.overlaps_action(&pattern)), 0);
}

#[test]
fn routing_a_cross_shard_action_allocates_its_owner_list_once() {
    let router = chain_router();
    let audit = ix_wfms::coupled_audit();
    assert_eq!(router.classify(&audit), Route::Multi(vec![0, 1, 2, 3]));
    assert!(allocations(|| router.classify(&audit)) <= 1);
}

#[test]
fn scoped_coverage_allocates_nothing() {
    // Three atoms and six: coverage matches the symbol-indexed candidates
    // directly, whatever the alphabet's size.
    for body in ["a(p) - b(p) - c(p)", "a(p) - b(p) - c(p) - d(p) - e(p) - f(p)"] {
        let scope = ScopedAlphabet::of(&parse(&format!("some p {{ {body} }}")).unwrap());
        let inside = Action::concrete("a", [Value::int(1)]);
        let outside = Action::concrete("z", [Value::int(1)]);
        assert!(scope.covers(&inside) && !scope.covers(&outside));
        assert_eq!(allocations(|| scope.covers(&inside)), 0, "{body}");
        assert_eq!(allocations(|| scope.covers(&outside)), 0, "{body}");
    }
}

/// What an engine keeps alive between decisions: `local_sync`'s cases
/// driven through 10⁴ `is_permitted` + `try_execute` pairs, a fresh patient
/// per case, then dropped.  The engine holds its committed state and the
/// successors of that state, and nothing else — the bytes it frees on drop.
/// (A transition memo of 256 `(state, action)` entries, both states kept
/// alive, freed 345 KB here.)
#[test]
fn an_engine_keeps_only_its_committed_state_alive() {
    let expr = parse(&cases_src()).unwrap();
    let mut engine = Engine::new(&expr).unwrap();
    for p in 0..5_000 {
        for step in ["call", "perform"] {
            let action = Action::concrete(&format!("{step}_{}", p % 4), [Value::int(p)]);
            assert!(engine.is_permitted(&action) && engine.try_execute(&action), "{action}");
        }
    }
    let live = LIVE_BYTES.with(Cell::get);
    drop(engine);
    let freed = live - LIVE_BYTES.with(Cell::get);
    assert!(freed <= 96 * 1024, "an engine freed {freed} bytes on drop");
}

/// One set-up the way ixbench times it: parse, construct (journaling into
/// `vault` when there is one), compile the tiers where the workload runs
/// from tables, open the sessions.
fn set_up(
    src: &str,
    options: RuntimeOptions,
    clients: u64,
    compile: bool,
    vault: Option<Arc<dyn Vault>>,
) -> Live {
    let expr: Expr = parse(src).unwrap();
    let runtime = match vault {
        Some(vault) => ManagerRuntime::with_durability(&expr, options, vault),
        None => ManagerRuntime::with_options(&expr, options),
    }
    .unwrap();
    if compile {
        runtime.compile_tiers();
    }
    let sessions = (1..=clients).map(|c| runtime.session(c)).collect();
    Live { runtime: Some(runtime), sessions }
}

/// A set-up's runtime, shut down (uncounted) when it is dropped.
struct Live {
    runtime: Option<ManagerRuntime>,
    sessions: Vec<Session>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.sessions.clear();
        self.runtime.take().unwrap().shutdown().unwrap();
    }
}

/// `local_sync`'s and `durable_commit`'s expression.
fn cases_src() -> String {
    let group = |k| format!("(some p {{ call_{k}(p) - perform_{k}(p) }})*");
    (0..4).map(group).collect::<Vec<_>>().join(" @ ")
}

/// `local_pipelined`'s expression.
fn rings_src() -> String {
    let ring = |k| ["call", "prep", "perform", "report"].map(|s| format!("{s}_{k}")).join(" - ");
    (0..4).map(|k| format!("({})*", ring(k))).collect::<Vec<_>>().join(" @ ")
}

/// `cross_chain`'s expression, `ix_wfms::coupled_ensemble_constraint(4)`.
fn chain_src() -> String {
    let group = |k| format!("((some p {{ call_dept{k}(p) - perform_dept{k}(p) }})* - audit)*");
    (0..4).map(group).collect::<Vec<_>>().join(" @ ")
}

fn options(variant: ProtocolVariant) -> RuntimeOptions {
    RuntimeOptions { variant, ..RuntimeOptions::default() }
}

#[test]
fn a_set_up_stays_under_its_pinned_allocation_count() {
    assert_eq!(parse(&chain_src()).unwrap(), ix_wfms::coupled_ensemble_constraint(4));
    let cases = cases_src();
    let chain = chain_src();
    let rings = rings_src();
    let measured = [
        (
            "local_sync",
            allocations(|| set_up(&cases, options(ProtocolVariant::Simple), 1, false, None)),
        ),
        (
            "cross_chain",
            allocations(|| set_up(&chain, options(ProtocolVariant::Combined), 1, false, None)),
        ),
        (
            "local_pipelined",
            allocations(|| set_up(&rings, options(ProtocolVariant::Combined), 2, true, None)),
        ),
    ];
    let bounds = [115, 148, 160];
    let over: Vec<String> = measured
        .into_iter()
        .zip(bounds)
        .filter(|&((_, n), bound)| n > bound)
        .map(|((workload, n), bound)| format!("{workload}: {n} allocations (bound {bound})"))
        .collect();
    assert!(over.is_empty(), "one set-up allocates more than pinned: {over:?}");
}

/// ROADMAP item 13: the tier of one of `local_pipelined`'s rings, at the
/// `Engine`.  `compile_tier()` on a fresh engine makes exactly 7: the
/// table takes the engine's own σ as its state 0 and indexes it by value
/// only at its first lookup, so what it allocates is the table itself (its
/// axis, its rows and ϕ bitset, its `Arc`) and the attach map.  Building σ
/// a second time and interning both copies by value made 20, and a
/// per-state bitset of live cells, which nothing read, made 10.  A
/// `reset()` of a tiered engine returns to that σ allocation, which the
/// table already holds as state 0: exactly 0.
#[test]
fn a_ring_tier_installs_around_the_engine_sigma_at_a_pinned_count() {
    let ring = parse("(call_0 - prep_0 - perform_0 - report_0)*").unwrap();
    let lap = ["call_0", "prep_0", "perform_0", "report_0"].map(Action::nullary);
    let compile = || {
        let mut engine = Engine::new(&ring).unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        engine.compile_tier();
        ALLOCATIONS.with(Cell::get) - before
    };
    compile();
    let mut engine = Engine::new(&ring).unwrap();
    engine.compile_tier();
    let mut reset = || {
        assert_eq!(engine.feed(&lap[..2]), 2);
        let before = ALLOCATIONS.with(Cell::get);
        engine.reset();
        ALLOCATIONS.with(Cell::get) - before
    };
    reset();
    assert_eq!([(); 3].map(|()| (compile(), reset())), [(7, 0); 3]);
}

/// ROADMAP item 13: the tier of one of `local_sync`'s components, which
/// is quantified and gets no table.  `compile_tier()` only walks the
/// expression to find that out, so it allocates nothing.
#[test]
fn a_tier_without_a_table_allocates_nothing() {
    let case = parse("(some p { call_0(p) - perform_0(p) })*").unwrap();
    let compile = || {
        let mut engine = Engine::new(&case).unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        assert_eq!(engine.compile_tier().tables, 0);
        ALLOCATIONS.with(Cell::get) - before
    };
    assert_eq!([(); 3].map(|()| compile()), [0; 3]);
}

/// Counts what one warm framed decision allocates on the calling thread,
/// three times over: an `execute` of `cycle[0]` then of `cycle[1]`, and an
/// `ask`+`confirm` of `cycle[0]`.  The rest of the cycle executes uncounted
/// after each, so every count starts from the same state.  Asserts every
/// decision ran in a caller frame: the pool never started a worker.  With a
/// vault, every decision also journals its commit there.
fn framed_decisions(src: &str, cycle: &[Action], vault: Option<Arc<dyn Vault>>) -> [(u64, u64); 3] {
    let live = set_up(src, options(ProtocolVariant::Simple), 1, true, vault);
    let session = &live.sessions[0];
    let execute = |action: &Action| {
        assert!(matches!(session.execute(action).wait(), Completion::Executed { .. }));
    };
    let ask_confirm = |action: &Action| {
        let Completion::Granted { reservation } = session.ask(action).wait() else {
            panic!("{action} denied")
        };
        assert!(matches!(session.confirm(reservation).wait(), Completion::Confirmed { .. }));
    };
    let counted = |f: &dyn Fn()| {
        let before = ALLOCATIONS.with(Cell::get);
        f();
        ALLOCATIONS.with(Cell::get) - before
    };
    let run = || {
        let executes = counted(&|| cycle[..2].iter().for_each(execute));
        cycle[2..].iter().for_each(execute);
        let asked = counted(&|| ask_confirm(&cycle[0]));
        cycle[1..].iter().for_each(execute);
        (executes, asked)
    };
    // Warm up: every table cell the counted runs step through, and every
    // buffer they reuse.
    run();
    let runs = [(); 3].map(|()| run());
    assert_eq!(live.runtime.as_ref().unwrap().sched_stats().started, 0);
    runs
}

/// ROADMAP item 13(i): one framed decision on a tier hit, `local_pipelined`'s
/// rings with the shard at rest.  The counts repeat exactly: one allocation
/// per `execute` (its ticket, born complete) and four per `ask`+`confirm`.
#[test]
fn a_framed_tier_hit_allocates_a_pinned_count() {
    let ring = ["call_0", "prep_0", "perform_0", "report_0"].map(Action::nullary);
    assert_eq!(framed_decisions(&rings_src(), &ring, None), [(2, 4); 3]);
}

/// The same on `local_sync`'s expression.  Its components are quantified,
/// so the tier bails (ROADMAP item 9) and each decision is a copy-on-write
/// step.  The counts repeat exactly: 31 per `execute` pair and 23 per
/// `ask`+`confirm`.  Of the 23 the `confirm` makes 2, its ticket and its
/// reply: it finds the successor its `ask` computed in the engine's list of
/// successors of the committed state, where a recompute would allocate
/// about 20 more.  The list is emptied at each commit and keeps its
/// capacity, so no run grows it.
#[test]
fn a_framed_copy_on_write_decision_allocates_a_pinned_count() {
    let case = ["call_0", "perform_0"].map(|name| Action::concrete(name, [Value::int(1)]));
    assert_eq!(framed_decisions(&cases_src(), &case, None), [(31, 23); 3]);
}

/// ROADMAP item 13(ii): a copy-on-write step on the paper's Fig. 7, at the
/// `Engine` (its `call`/`perform` belong to both shards, so no framed route
/// exists).  After ixbench's prologue — every patient prepared once at every
/// department, in order — one examination of a seeded patient at a seeded
/// department: `is_permitted` + `try_execute` of its first two steps, then
/// of its last two, which leaves the patient idle again.  From the fourth
/// examination on the counts repeat exactly: 1 237 for the calls and 1 060
/// for the performs — every step rebuilds a path through 32 patients' and
/// 4 departments' quantified instances, where a tier hit allocates nothing.
#[test]
fn a_fig7_copy_on_write_step_allocates_a_pinned_count() {
    let departments = ["sono", "endo", "xray", "ct"];
    let action =
        |name: &str, p: i64, dept: &str| Action::concrete(name, [Value::int(p), Value::sym(dept)]);
    let mut engine = Engine::new(&ix_graph::figures::fig7_expr()).unwrap();
    for p in 0..32 {
        for dept in departments {
            for name in ["prepare_patient_start", "prepare_patient_end"] {
                assert!(engine.try_execute(&action(name, p, dept)), "{name}({p}, {dept})");
            }
        }
    }
    let seed = 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (p, dept) = ((seed >> 40) as i64 % 32, departments[(seed >> 20) as usize % 4]);
    let exam = [
        "call_patient_start",
        "call_patient_end",
        "perform_examination_start",
        "perform_examination_end",
    ]
    .map(|name| action(name, p, dept));
    let mut step = |actions: &[Action]| {
        let before = ALLOCATIONS.with(Cell::get);
        for action in actions {
            assert!(engine.is_permitted(action) && engine.try_execute(action), "{action}");
        }
        ALLOCATIONS.with(Cell::get) - before
    };
    let mut run = || (step(&exam[..2]), step(&exam[2..]));
    // The first examinations still grow the state: 951/822, 969/910,
    // 1123/1060.
    for _ in 0..3 {
        run();
    }
    assert_eq!([(); 3].map(|()| run()), [(1237, 1060); 3]);
}

/// ROADMAP item 13(v): the same `execute` pair on `local_sync`'s cases,
/// journaled the way `durable_commit` journals it: exactly 39 on a
/// `MemVault` and 37 on a `FileVault` under `FsyncPolicy::Never`.  What the
/// journal adds, run by run: 3 allocations per commit record for its
/// encoding (a fresh `Writer` growing by doubling), plus the `MemVault`'s
/// copy of the record; a warm `FileVault::append` allocates nothing (it
/// frames into a kept buffer).
#[test]
fn a_framed_durable_commit_journals_a_pinned_count() {
    let case = ["call_0", "perform_0"].map(|name| Action::concrete(name, [Value::int(1)]));
    let executes = |vault| framed_decisions(&cases_src(), &case, vault).map(|(pair, _)| pair);
    let plain = executes(None);
    let dir = std::env::temp_dir().join(format!("ix-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = Arc::new(FileVault::open(&dir, FsyncPolicy::Never).unwrap());
    let on_file = executes(Some(file.clone()));
    let on_mem = executes(Some(Arc::new(MemVault::new())));
    let journal = |runs: [u64; 3]| [0, 1, 2].map(|i| runs[i] - plain[i]);
    assert_eq!((journal(on_mem), journal(on_file)), ([8; 3], [6; 3]), "{plain:?}");
    assert_eq!((on_mem, on_file), ([39; 3], [37; 3]));
    assert_eq!(allocations(|| file.append(0, &[7; 35])), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Operations per counted window of [`queued_window`].  A shard's queue
/// takes room for a slice (128 tasks) at its first task and keeps it, so a
/// window this long never grows a warm queue.
const WINDOW: usize = 62;

/// Submits `WINDOW` operations back to back, then waits for each and checks
/// its completion with `done`; returns what the calling thread allocated.
fn queued_window(submit: &dyn Fn() -> Ticket<Completion>, done: fn(&Completion) -> bool) -> u64 {
    let mut tickets = Vec::with_capacity(WINDOW);
    let before = ALLOCATIONS.with(Cell::get);
    tickets.extend((0..WINDOW).map(|_| submit()));
    let completed = tickets.iter().filter(|t| done(&t.wait())).count();
    let n = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(completed, WINDOW);
    n
}

/// ROADMAP item 13(iv): a queued multi-owner operation on `cross_chain`'s
/// expression, where all four shards own `audit`.  Such an operation always
/// goes through its owners' queues, so what the calling thread allocates is
/// the submission: the owner list, the ticket, the shared task and its
/// per-owner votes — 4 per operation, execute and probe alike; the owners'
/// queues add nothing.  Counted over a warm window after one uncounted
/// window, which also starts the workers.
#[test]
fn a_queued_multi_owner_operation_allocates_a_pinned_count() {
    let live = set_up(&chain_src(), options(ProtocolVariant::Combined), 1, false, None);
    let session = &live.sessions[0];
    let audit = ix_wfms::coupled_audit();
    let execute = || session.execute(&audit);
    let probe = || session.is_permitted(&audit);
    let executed = |c: &Completion| matches!(c, Completion::Executed { .. });
    let permitted = |c: &Completion| matches!(c, Completion::Status { permitted: true });
    queued_window(&execute, executed);
    queued_window(&probe, permitted);
    let runs =
        [(); 3].map(|()| (queued_window(&execute, executed), queued_window(&probe, permitted)));
    let per_window = 4 * WINDOW as u64;
    assert_eq!(runs, [(per_window, per_window); 3]);
}

/// ROADMAP item 13(iii): a queued `submit_batch` window of 64 executes on
/// `local_pipelined`'s rings, the way one of its clients submits: the rings
/// of its two departments, here a full ring cycle on each in turn, so each
/// window is 16 runs of 4 and queues one message per run.  What the calling
/// thread allocates per window: each operation's ticket (64), the window's
/// ticket list and its planned routes (1 + 5, the list of routes growing by
/// doubling to 64), and one buffer per run (16); the shards' queues add
/// nothing.  Counted over groups of 31 windows, after one uncounted window
/// that also starts the worker.
#[test]
fn a_queued_submit_batch_window_allocates_a_pinned_count() {
    let live = set_up(&rings_src(), options(ProtocolVariant::Combined), 1, true, None);
    let session = &live.sessions[0];
    let ring = |k: usize| ["call", "prep", "perform", "report"].map(|s| format!("{s}_{k}"));
    let window: Vec<Action> =
        (0..16).flat_map(|run| ring(run % 2)).map(|name| Action::nullary(&*name)).collect();
    let submit = || {
        let tickets = session.submit_batch(&window);
        assert!(tickets.iter().all(|t| matches!(t.wait(), Completion::Executed { .. })));
    };
    let group = || {
        let before = ALLOCATIONS.with(Cell::get);
        (0..31).for_each(|_| submit());
        ALLOCATIONS.with(Cell::get) - before
    };
    submit();
    let per_window = 64 + 1 + 5 + 16;
    assert_eq!([(); 3].map(|()| group()), [31 * per_window; 3]);
}

/// ROADMAP item 13(vi): one framed lease expiry, on `local_sync`'s cases
/// under `Leased`, with the shard at rest throughout, so that no worker
/// starts.  The granted `ask` makes exactly 2: its ticket, born complete,
/// and the owner list of its reservation-index entry.  The one
/// `timer::Timers` entry a leased grant schedules files the reservation id,
/// and the insert allocates nothing once the map has a root.  The
/// `advance_time` past its deadline, which expires it on the caller's frame,
/// makes exactly 5: the timers' split at the clock (the map of those still
/// pending and the list of the due ones), the owner list read back from the
/// index, the expiry's ticket and the list of expired reservations.
#[test]
fn a_framed_lease_expiry_allocates_a_pinned_count() {
    let variant = ProtocolVariant::Leased { lease: 10 };
    let live = set_up(&cases_src(), options(variant), 1, true, None);
    let session = &live.sessions[0];
    let runtime = live.runtime.as_ref().unwrap();
    let call = Action::concrete("call_0", [Value::int(1)]);
    let expiry = || {
        let before = ALLOCATIONS.with(Cell::get);
        let Completion::Granted { reservation } = session.ask(&call).wait() else {
            panic!("{call} denied")
        };
        let granted = ALLOCATIONS.with(Cell::get) - before;
        let expired = runtime.advance_time(11);
        let n = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(expired.iter().map(|r| r.id).collect::<Vec<_>>(), [reservation]);
        (granted, n - granted)
    };
    expiry();
    let runs = [(); 3].map(|()| expiry());
    assert_eq!(runtime.sched_stats().started, 0);
    assert_eq!(runs, [(2, 5); 3]);
}
