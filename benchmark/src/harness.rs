//! Drives one workload through the runtime and the blocking manager, checks
//! every output, and produces the named metrics.
//!
//! Everything is measured from outside the program: by timing calls into
//! the public functions of each crate.  The untraced run yields the
//! end-to-end metrics (the gated ones on the result line, the timings on a
//! `measured:` line); the traced run (`queue_metrics` on, [`TracedVault`]
//! in place, per-op `then` stamps, per-call timers) yields the per-layer
//! metrics and the spans.

use crate::layers;
use crate::schedule::{interleaved, Kind, Pass, Schedule, Verdict};
use crate::stats::{median, percentile, spread, tail_percentile};
use crate::trace::{rebased, Span, TracedVault, Tracer, VaultCounters, ROOT};
use crate::workloads::{Drive, Id, OPEN_RATE, WINDOW};
use ix_core::{Action, Expr};
use ix_durable::FileVault;
use ix_manager::{
    Completion, InteractionManager, ManagerRuntime, ManagerStats, RuntimeOptions, Session,
};
use ix_state::{word_problem, WordStatus};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Set-ups timed per run, in one group before every pass (and one after the
/// open loop's single pass); `setup_s` is the median over the groups of a
/// group's mean.  A set-up takes a tenth of a millisecond and is mostly thread
/// spawning, whose cost on a 2-core virtual machine wanders by a factor of two
/// over tenths of a second: groups spread over the whole run sample that
/// wandering instead of one moment of it, and the median drops a group a
/// stall fell into.
const SETUPS_PER_RUN: usize = 192;
/// Requests of a traced repetition that get spans (hop metrics use all).
const SPAN_REQUESTS: usize = 20_000;
/// Spans written per workload.
const SPANS_WRITTEN: usize = 20_000;
/// How long an open-loop run waits for stragglers before counting them failed.
const OPEN_DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Config {
    pub id: Id,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    /// `benchmark/out`: vault directories, `trace.<workload>.json`.
    pub out_dir: PathBuf,
}

impl Config {
    /// R: timed repetitions.  Fifteen at the contract's 10 s; one when
    /// quick.
    pub fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            (self.seconds as usize * 3 / 2).clamp(1, 45)
        }
    }

    /// Ops of each of the two passes of a traced run: three repetitions'
    /// worth, so that one traced repetition is long enough to read.
    pub fn traced_ops(&self) -> usize {
        3 * self.ops()
    }

    /// N: ops per repetition.
    pub fn ops(&self) -> usize {
        let n = match self.id.drive() {
            Drive::Open => (OPEN_RATE * self.seconds) as usize / self.reps(),
            _ => self.id.ops_per_rep(),
        };
        if self.quick {
            n / 16
        } else {
            n
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the metrics of the result line.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Measured by the untraced run and printed by `run`, but not steady
    /// enough on a shared host to be held to a bound (see `README.md`).
    pub measured: Vec<(&'static str, f64, &'static str)>,
    /// CPU time the hypervisor took away during the timed passes.
    pub stolen_ms: u64,
    /// Failed checks; the run is correct iff there are none.
    pub violations: Vec<String>,
    /// Free-form lines for the human reader (sample counts, min/max).
    pub notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Live {
    expr: Expr,
    runtime: ManagerRuntime,
    sessions: Vec<Session>,
    /// Present when the vault is traced.
    vault: Option<Arc<VaultCounters>>,
}

/// Everything a user pays before the first op can be submitted: building the
/// expression, constructing the runtime (partitioning, engines, worker
/// pool; opening the vault when durable), compiling the tiers where the
/// workload is meant to run from tables, and opening the sessions.
fn set_up(id: Id, options: RuntimeOptions, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Live {
    let expr = id.expr();
    let mut counters = None;
    let runtime = if !id.durable() {
        ManagerRuntime::with_options(&expr, options)
    } else if let Some(t) = tracer {
        let file = FileVault::open(dir, options.fsync).expect("opening the vault directory");
        let traced = TracedVault::new(Arc::new(file), Arc::clone(t));
        counters = Some(Arc::clone(&traced.counters));
        ManagerRuntime::with_durability(&expr, options, Arc::new(traced))
    } else {
        ManagerRuntime::with_durability_path(&expr, options, dir)
    }
    .expect("constructing the runtime");
    if id.table_resident() {
        runtime.compile_tiers();
    }
    let sessions = (0..id.clients()).map(|c| runtime.session(c as u64 + 1)).collect();
    Live { expr, runtime, sessions, vault: counters }
}

fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating a scratch directory under benchmark/out");
    dir
}

/// Times one group of `count` set-ups (each torn down again, untimed);
/// returns seconds per set-up.
fn time_setups(id: Id, scratch: &Path, count: usize) -> f64 {
    let mut timed = Duration::ZERO;
    for _ in 0..count {
        let dir = fresh_dir(scratch, "setup");
        let started = Instant::now();
        let live = set_up(id, id.options(), &dir, None);
        timed += started.elapsed();
        drop(live.sessions);
        live.runtime.shutdown().expect("shutting a set-up runtime down");
    }
    timed.as_secs_f64() / count as f64
}

// ---------------------------------------------------------------------------
// Driving passes
// ---------------------------------------------------------------------------

fn verdict_of(completion: &Completion) -> Verdict {
    match completion {
        Completion::Executed { .. } | Completion::Confirmed { .. } | Completion::Granted { .. } => {
            Verdict::Commit
        }
        Completion::Denied => Verdict::Deny,
        Completion::Status { permitted } | Completion::Subscribed { permitted } => {
            Verdict::permitted(*permitted)
        }
        Completion::Unsubscribed => Verdict::Ack,
        _ => Verdict::Failed,
    }
}

/// Per-op hop samples of a traced pass, nanoseconds.
#[derive(Default)]
struct Hops {
    /// Duration of the submitting call, per op (a batch call's share).
    submit: Vec<u64>,
    /// Submit return → completion stamp taken in `Ticket::then`.
    inflight: Vec<u64>,
    /// Completion stamp → harvested by the client.
    wake: Vec<u64>,
    spans: Vec<Span>,
}

impl Hops {
    fn merge(&mut self, other: Hops) {
        self.submit.extend(other.submit);
        self.inflight.extend(other.inflight);
        self.wake.extend(other.wake);
        let base = self.spans.len();
        self.spans.extend(rebased(other.spans, base));
    }

    /// Records one request as a root span with its three hops as children.
    fn request(&mut self, request: u32, t0: u64, t1: u64, done: u64, harvested: u64) {
        let done = done.clamp(t1, harvested);
        self.inflight.push(done - t1);
        self.wake.push(harvested - done);
        if (request as usize) < SPAN_REQUESTS {
            let parent = self.spans.len() as u32;
            let span =
                |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, request };
            self.spans.extend([
                span("request", t0, harvested, ROOT),
                span("runtime.submit", t0, t1, parent),
                span("runtime.inflight", t1, done, parent),
                span("runtime.wake", done, harvested, parent),
            ]);
        }
    }
}

/// One client's result of one pass.
struct ClientRun {
    started: Instant,
    ended: Instant,
    /// One latency per op (per round trip under [`Drive::AskConfirm`]).
    latencies: Vec<u64>,
    observed: Vec<Verdict>,
    hops: Hops,
}

/// Completion stamps written from `Ticket::then` on the fulfilling thread.
struct Stamps {
    tracer: Arc<Tracer>,
    at: Vec<AtomicU64>,
}

impl Stamps {
    fn new(tracer: &Arc<Tracer>, len: usize) -> Arc<Stamps> {
        Arc::new(Stamps {
            tracer: Arc::clone(tracer),
            at: (0..len).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn arm(self: &Arc<Stamps>, ticket: &ix_manager::Ticket<Completion>, index: usize) {
        let stamps = Arc::clone(self);
        ticket.then(move |_| stamps.at[index].store(stamps.tracer.now(), Ordering::Release));
    }

    fn get(&self, index: usize) -> u64 {
        self.at[index].load(Ordering::Acquire)
    }
}

/// Window-[`WINDOW`] closed loop: one `submit_batch` per window, then every
/// ticket of the window is harvested in order.  An op's latency runs from
/// the start of the submitting call to its harvest.
fn drive_batch(
    session: &Session,
    pass: &Pass,
    tracer: Option<&Arc<Tracer>>,
    first_request: u32,
) -> ClientRun {
    let mut latencies = Vec::with_capacity(pass.len());
    let mut observed = Vec::with_capacity(pass.len());
    let mut hops = Hops::default();
    let stamps = tracer.map(|t| Stamps::new(t, pass.len()));
    let started = Instant::now();
    let mut base = 0;
    for chunk in pass.actions.chunks(WINDOW) {
        let t0 = Instant::now();
        let traced_t0 = tracer.map(|t| t.now());
        let tickets = session.submit_batch(chunk);
        if let (Some(t), Some(stamps), Some(t0_ns)) = (tracer, &stamps, traced_t0) {
            let t1_ns = t.now();
            for (i, ticket) in tickets.iter().enumerate() {
                stamps.arm(ticket, base + i);
            }
            for (i, ticket) in tickets.iter().enumerate() {
                observed.push(verdict_of(&ticket.wait()));
                let harvested = t.now();
                latencies.push(harvested - t0_ns);
                hops.submit.push((t1_ns - t0_ns) / chunk.len() as u64);
                let request = first_request + (base + i) as u32;
                hops.request(request, t0_ns, t1_ns, stamps.get(base + i), harvested);
            }
        } else {
            for ticket in &tickets {
                observed.push(verdict_of(&ticket.wait()));
                latencies.push(t0.elapsed().as_nanos() as u64);
            }
        }
        base += chunk.len();
    }
    ClientRun { started, ended: Instant::now(), latencies, observed, hops }
}

/// What the client of `local_sync` does between a reply and its next
/// request (it spins, so its own timing stays exact).  Without it the loop
/// is bistable on a 2-core virtual machine: while client and worker catch
/// each other before either has gone to sleep a round trip takes about 3 µs,
/// and once one of them sleeps it takes about 40 µs, and which of the two a
/// run gets is decided by chance.  With it the worker is always parked when
/// the request arrives and the client is always blocked when the reply does
/// — the path a workflow engine's sporadic requests take.
const THINK_TIME: Duration = Duration::from_micros(50);

/// Window-1 closed loop of the ask/reply/confirm protocol: every op is an
/// `ask` round trip and, if granted, a `confirm` round trip, each preceded
/// by [`THINK_TIME`].  One latency per round trip; one verdict per op.
fn drive_ask_confirm(session: &Session, pass: &Pass, tracer: Option<&Arc<Tracer>>) -> ClientRun {
    let mut latencies = Vec::with_capacity(2 * pass.len());
    let mut observed = Vec::with_capacity(pass.len());
    let mut hops = Hops::default();
    let started = Instant::now();
    let mut request = 0u32;
    // At most two round trips per op: one stamp slot each.
    let traced = tracer.map(|t| (t, Stamps::new(t, 2 * pass.len())));
    let mut round_trip = |submit: &dyn Fn() -> ix_manager::Ticket<Completion>| -> Completion {
        request += 1;
        let thinking = Instant::now();
        while thinking.elapsed() < THINK_TIME {
            std::hint::spin_loop();
        }
        match &traced {
            None => {
                let t0 = Instant::now();
                let completion = submit().wait();
                latencies.push(t0.elapsed().as_nanos() as u64);
                completion
            }
            Some((t, stamps)) => {
                let slot = request as usize - 1;
                let t0 = t.now();
                let ticket = submit();
                let t1 = t.now();
                stamps.arm(&ticket, slot);
                let completion = ticket.wait();
                let harvested = t.now();
                latencies.push(harvested - t0);
                hops.submit.push(t1 - t0);
                hops.request(request, t0, t1, stamps.get(slot), harvested);
                completion
            }
        }
    };
    for action in &pass.actions {
        let verdict = match round_trip(&|| session.ask(action)) {
            Completion::Granted { reservation } => {
                verdict_of(&round_trip(&|| session.confirm(reservation)))
            }
            other => verdict_of(&other),
        };
        observed.push(verdict);
    }
    ClientRun { started, ended: Instant::now(), latencies, observed, hops }
}

/// What one pass over all clients produced.
struct PassRun {
    wall_ns: u64,
    latencies: Vec<u64>,
    /// Per client, aligned with the pass.
    observed: Vec<Vec<Verdict>>,
    hops: Hops,
}

fn drive_closed(
    id: Id,
    sessions: &[Session],
    passes: &[Pass],
    tracer: Option<&Arc<Tracer>>,
) -> PassRun {
    let run_client = |session: &Session, pass: &Pass, first_request: u32| match id.drive() {
        Drive::AskConfirm => drive_ask_confirm(session, pass, tracer),
        _ => drive_batch(session, pass, tracer, first_request),
    };
    let runs: Vec<ClientRun> = if sessions.len() == 1 {
        vec![run_client(&sessions[0], &passes[0], 0)]
    } else {
        // All clients leave the barrier together, so the pass's wall-clock
        // is the time the slower one needs.
        let barrier = Barrier::new(sessions.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .zip(passes)
                .enumerate()
                .map(|(c, (session, pass))| {
                    let (barrier, run_client) = (&barrier, &run_client);
                    scope.spawn(move || {
                        barrier.wait();
                        run_client(session, pass, (c * pass.len()) as u32)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
        })
    };
    let started = runs.iter().map(|r| r.started).min().expect("at least one client");
    let ended = runs.iter().map(|r| r.ended).max().expect("at least one client");
    let mut out = PassRun {
        wall_ns: (ended - started).as_nanos() as u64,
        latencies: Vec::new(),
        observed: Vec::new(),
        hops: Hops::default(),
    };
    for run in runs {
        out.latencies.extend(run.latencies);
        out.observed.push(run.observed);
        out.hops.merge(run.hops);
    }
    out
}

/// Open-loop state shared with the `then` callbacks.
struct OpenSink {
    epoch: Instant,
    /// `completion_ns << 3 | verdict code`, 0 while outstanding.
    done: Vec<AtomicU64>,
    completed: AtomicUsize,
}

const VERDICTS: [Verdict; 6] = [
    Verdict::Commit,
    Verdict::Deny,
    Verdict::Permitted,
    Verdict::NotPermitted,
    Verdict::Ack,
    Verdict::Failed,
];

struct OpenRun {
    wall_ns: u64,
    /// Due time → completion stamp, per op; `None` for a timeout.
    latencies: Vec<Option<u64>>,
    observed: Vec<Verdict>,
    /// Send time − due time, per op.
    late: Vec<u64>,
    submit: Vec<u64>,
    /// Submit return → completion stamp.
    inflight: Vec<u64>,
    notifications: u64,
    poll_ns: Vec<u64>,
}

/// One generator thread spin-paces the pass at [`OPEN_RATE`]: op `i` is due
/// at `i / rate`, is sent as soon after that as the generator gets to it,
/// and its latency is counted from the due time, so a stall taxes every op
/// behind it.
fn drive_open(session: &Session, pass: &Pass, spans: Option<&mut Vec<Span>>) -> OpenRun {
    let n = pass.len();
    let sink = Arc::new(OpenSink {
        epoch: Instant::now(),
        done: (0..n).map(|_| AtomicU64::new(0)).collect(),
        completed: AtomicUsize::new(0),
    });
    let period_ns = 1_000_000_000 / OPEN_RATE;
    let mut run = OpenRun {
        wall_ns: 0,
        latencies: Vec::with_capacity(n),
        observed: Vec::with_capacity(n),
        late: Vec::with_capacity(n),
        submit: Vec::with_capacity(n),
        inflight: Vec::with_capacity(n),
        notifications: 0,
        poll_ns: Vec::new(),
    };
    let now = |sink: &OpenSink| sink.epoch.elapsed().as_nanos() as u64;
    let mut returned = Vec::with_capacity(n);
    for i in 0..n {
        let due = i as u64 * period_ns;
        let mut sent = now(&sink);
        while sent < due {
            std::hint::spin_loop();
            sent = now(&sink);
        }
        let action = &pass.actions[i];
        let ticket = match pass.kinds[i] {
            Kind::Execute => session.execute(action),
            Kind::Probe => session.is_permitted(action),
            Kind::Subscribe => session.subscribe(action),
            Kind::Unsubscribe => session.unsubscribe(action),
        };
        let after = now(&sink);
        let callback_sink = Arc::clone(&sink);
        ticket.then(move |completion| {
            let code = VERDICTS.iter().position(|v| *v == verdict_of(&completion)).unwrap_or(5);
            let at = callback_sink.epoch.elapsed().as_nanos() as u64;
            callback_sink.done[i].store(at << 3 | code as u64, Ordering::Release);
            callback_sink.completed.fetch_add(1, Ordering::Release);
        });
        run.late.push(sent - due);
        run.submit.push(after - sent);
        returned.push(after);
        if i % 4096 == 4095 {
            let t = Instant::now();
            run.notifications += session.poll_notifications().len() as u64;
            run.poll_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    let deadline = Instant::now() + OPEN_DRAIN_TIMEOUT;
    while sink.completed.load(Ordering::Acquire) < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    run.notifications += session.poll_notifications().len() as u64;
    let mut last = 0;
    let mut spans = spans;
    for (i, &returned) in returned.iter().enumerate() {
        let due = i as u64 * period_ns;
        let packed = sink.done[i].load(Ordering::Acquire);
        if packed == 0 {
            run.latencies.push(None);
            run.observed.push(Verdict::Failed);
            continue;
        }
        let at = packed >> 3;
        last = last.max(at);
        run.latencies.push(Some(at.saturating_sub(due)));
        run.observed.push(VERDICTS[(packed & 7) as usize]);
        run.inflight.push(at.saturating_sub(returned));
        if let Some(spans) = spans.as_deref_mut().filter(|_| i < SPAN_REQUESTS) {
            let parent = spans.len() as u32;
            let sent = due + run.late[i];
            let request = i as u32 + 1;
            let span =
                |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, parent, request };
            spans.extend([
                span("request", due, at.max(returned), ROOT),
                span("bench.gen_late", due, sent, parent),
                span("runtime.submit", sent, returned, parent),
                span("runtime.inflight", returned, at.max(returned), parent),
            ]);
        }
    }
    run.wall_ns = last;
    run
}

// ---------------------------------------------------------------------------
// The blocking reference
// ---------------------------------------------------------------------------

/// Per-call times of the blocking manager, by kind of call (traced run).
#[derive(Default)]
pub struct BlockingCalls {
    pub single_execute: Vec<u64>,
    pub cross_execute: Vec<u64>,
    pub ask_confirm: Vec<u64>,
}

/// The same op list through [`InteractionManager`] from one thread: windows
/// of the clients alternate, as their submissions do.  Returns the pass's
/// wall-clock and checks every verdict against the script.
fn drive_blocking(
    id: Id,
    manager: &InteractionManager,
    passes: &[Pass],
    mut calls: Option<&mut BlockingCalls>,
    out: &mut Outcome,
) -> u64 {
    let ask_confirm = id.drive() == Drive::AskConfirm;
    let started = Instant::now();
    let mut mismatches = 0usize;
    for (c, i) in interleaved(passes, WINDOW) {
        let (client, pass) = (c as u64 + 1, &passes[c]);
        let action = &pass.actions[i];
        let t0 = calls.is_some().then(Instant::now);
        let observed = match pass.kinds[i] {
            Kind::Execute if ask_confirm => match manager.ask(client, action) {
                Ok(Some(reservation)) => match manager.confirm(reservation) {
                    Ok(_) => Verdict::Commit,
                    Err(_) => Verdict::Failed,
                },
                Ok(None) => Verdict::Deny,
                Err(_) => Verdict::Failed,
            },
            Kind::Execute => match manager.try_execute(client, action) {
                Ok(Some(_)) => Verdict::Commit,
                Ok(None) => Verdict::Deny,
                Err(_) => Verdict::Failed,
            },
            Kind::Probe => Verdict::permitted(manager.is_permitted(action)),
            Kind::Subscribe => Verdict::permitted(manager.subscribe(client, action)),
            Kind::Unsubscribe => {
                manager.unsubscribe(client, action);
                Verdict::Ack
            }
        };
        if let (Some(calls), Some(t0)) = (calls.as_deref_mut(), t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            if pass.kinds[i] == Kind::Execute {
                if ask_confirm {
                    calls.ask_confirm.push(ns);
                } else if manager.is_cross_shard(action) {
                    calls.cross_execute.push(ns);
                } else {
                    calls.single_execute.push(ns);
                }
            }
        }
        if observed != pass.expect[i] {
            mismatches += 1;
            if mismatches == 1 {
                out.violations.push(format!(
                    "blocking manager: {action} gave {observed:?}, scripted {:?}",
                    pass.expect[i]
                ));
            }
        }
    }
    let wall = started.elapsed().as_nanos() as u64;
    out.check(mismatches <= 1, || {
        format!("blocking manager: {mismatches} verdicts off the script")
    });
    wall
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Counts the observed verdicts that differ from the script.  The first ones
/// are reported as wrong outputs — but only up to the first op the runtime
/// refused to serve (shed, overloaded, timed out): a refused commit changes
/// what every later op of that client meets, so a mismatch behind it counts
/// as a failed op and nothing more.
fn count_failed(passes: &[Pass], observed: &[Vec<Verdict>], out: &mut Outcome) -> u64 {
    let mut failed = 0;
    for (pass, seen) in passes.iter().zip(observed) {
        let mut refused = false;
        for i in 0..pass.len() {
            refused |= seen.get(i) == Some(&Verdict::Failed);
            if seen.get(i) != Some(&pass.expect[i]) {
                failed += 1;
                if !refused && out.violations.len() < 4 {
                    out.violations.push(format!(
                        "runtime: {} gave {:?}, scripted {:?}",
                        pass.actions[i],
                        seen.get(i),
                        pass.expect[i]
                    ));
                }
            }
        }
    }
    failed
}

/// A merged log must be a legal (at least partial) word of the expression
/// and hold exactly the confirmed commits.
fn check_log(expr: &Expr, log: &[Action], stats: &ManagerStats, what: &str, out: &mut Outcome) {
    out.check(log.len() as u64 == stats.confirmations, || {
        format!("{what}: log has {} entries, {} confirmations", log.len(), stats.confirmations)
    });
    let status = word_problem(expr, log);
    out.check(matches!(status, Ok(WordStatus::Partial | WordStatus::Complete)), || {
        format!("{what}: merged log is not a legal word ({status:?})")
    });
}

/// The crash of the durable workload: flush, read the log and the
/// statistics, drop the runtime **without shutdown**, recover through
/// `recover`, serve one more op.  Returns the seconds from the start of the
/// recovery to that op's completion and the recovered runtime, after checking
/// that it holds exactly what the crashed one held plus that op.
fn crash_and_recover(
    runtime: ManagerRuntime,
    sessions: Vec<Session>,
    schedule: &mut dyn Schedule,
    recover: impl FnOnce() -> ManagerRuntime,
    out: &mut Outcome,
) -> (f64, ManagerRuntime) {
    runtime.vault().expect("a durable runtime has a vault").sync();
    let before_log = runtime.log();
    let mut expected = runtime.stats();
    drop(sessions);
    drop(runtime);
    let next = schedule.next_pass(4).swap_remove(0);
    let started = Instant::now();
    let recovered = recover();
    let session = recovered.session(1);
    let first = verdict_of(&session.execute(&next.actions[0]).wait());
    let secs = started.elapsed().as_secs_f64();
    out.check(first == next.expect[0], || format!("first op after recovery gave {first:?}"));
    let log = recovered.log();
    out.check(
        log.len() == before_log.len() + 1 && log[..before_log.len()] == before_log[..],
        || {
            format!(
            "recovered log ({} entries) is not the pre-crash log ({} entries) plus the op served",
            log.len(),
            before_log.len()
        )
        },
    );
    expected.asks += 1;
    expected.grants += 1;
    expected.confirmations += 1;
    out.check(recovered.stats() == expected, || {
        format!("recovered statistics {:?}, expected {expected:?}", recovered.stats())
    });
    (secs, recovered)
}

/// Milliseconds in a tick of `/proc/stat` (`USER_HZ` is 100 on Linux).
const MS_PER_TICK: u64 = 10;

/// `(all, stolen)` CPU ticks of the machine since boot, from `/proc/stat`.
/// Stolen ticks are time a virtual CPU wanted to run and the hypervisor ran
/// something else: the one disturbance of a shared host that can be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (fields.iter().take(8).sum(), fields.get(7).copied().unwrap_or(0))
}

/// `VmHWM` of this process in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn p50(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, 0.50) as f64
    }
}

fn p99(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        tail_percentile(v, 0.99).0 as f64
    }
}

fn stats_delta(after: ManagerStats, before: ManagerStats) -> ManagerStats {
    ManagerStats {
        asks: after.asks - before.asks,
        grants: after.grants - before.grants,
        denials: after.denials - before.denials,
        confirmations: after.confirmations - before.confirmations,
        expired_reservations: after.expired_reservations - before.expired_reservations,
        aborted_reservations: after.aborted_reservations - before.aborted_reservations,
        notifications: after.notifications - before.notifications,
    }
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

/// Per-repetition statistics of the timed passes.
#[derive(Default)]
struct Reps {
    throughput: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    samples: usize,
}

impl Reps {
    fn add(&mut self, ops: usize, wall_ns: u64, mut latencies: Vec<u64>) {
        latencies.sort_unstable();
        self.throughput.push(ops as f64 / (wall_ns as f64 / 1e9));
        self.p50_us.push(percentile(&latencies, 0.50) as f64 / 1e3);
        self.p99_us.push(tail_percentile(&latencies, 0.99).0 as f64 / 1e3);
        self.samples += latencies.len();
    }

    /// The median over the repetitions of each per-repetition statistic, with
    /// the extremes beside it.
    fn report(&self, out: &mut Outcome) {
        let reps = self.throughput.len();
        for (name, unit, values) in [
            ("throughput_ops_s", "ops/s", &self.throughput),
            ("latency_p50_us", "us", &self.p50_us),
            ("latency_p99_us", "us", &self.p99_us),
        ] {
            let (min, median, max) = spread(values);
            out.measured.push((name, median, unit));
            out.notes.push(format!(
                "{name}: median {median:.3} of {reps} repetitions (min {min:.3}, max {max:.3}; {} latency samples)",
                self.samples
            ));
        }
    }
}

/// Slices of a traced repetition over which [`hop_sum_share`] is taken.
const HOP_SLICES: usize = 16;

/// (submit + inflight + wake medians) ÷ the median latency of the same
/// requests.  The three stamps partition every request exactly, but medians
/// only add up within one distribution, and a 2-core virtual machine changes
/// what a wake-up costs in mid-repetition: the share is taken over
/// [`HOP_SLICES`] consecutive slices and their median reported, which confines
/// such a change to the slice it falls into.  0 where the hops do not cover a
/// request (the open loop has no harvest).
fn hop_sum_share(latencies: &[u64], hops: &Hops) -> f64 {
    let n = latencies.len();
    if n == 0 || [&hops.submit, &hops.inflight, &hops.wake].iter().any(|h| h.len() != n) {
        return 0.0;
    }
    let slice = n.div_ceil(HOP_SLICES);
    let shares: Vec<f64> = (0..n)
        .step_by(slice)
        .map(|from| {
            let median = |v: &[u64]| p50(&sorted(v[from..(from + slice).min(n)].to_vec()));
            (median(&hops.submit) + median(&hops.inflight) + median(&hops.wake)) / median(latencies)
        })
        .collect();
    median(&shares)
}

/// Ops a pass holds, in the unit the workload counts (round trips under
/// ask/confirm: two per commit, one per denial).
fn pass_ops(id: Id, passes: &[Pass]) -> usize {
    passes
        .iter()
        .map(|p| match id.drive() {
            Drive::AskConfirm => p.len() + p.commits(),
            _ => p.len(),
        })
        .sum()
}

pub fn run_untraced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let id = cfg.id;
    let scratch = fresh_dir(&cfg.out_dir, &format!("tmp-{}", std::process::id()));
    // Seconds per set-up, one value per group.
    let mut setups = Vec::new();
    let stolen_before = cpu_ticks().1;

    let vault_dir = fresh_dir(&scratch, "vault");
    let live = set_up(id, id.options(), &vault_dir, None);
    if id.table_resident() {
        let tiers = live.runtime.tier_stats();
        out.check(tiers.tables >= live.runtime.shard_count(), || {
            format!("expected a compiled table per shard, found {tiers:?}")
        });
    }
    let mut schedule = id.schedule(cfg.seed);
    let (reps, ops) = (cfg.reps(), cfg.ops());
    let mut stats = Reps::default();
    // Sizes of the passes driven, warm-up first.
    let pass_sizes: Vec<usize>;

    if id.drive() == Drive::Open {
        let group = SETUPS_PER_RUN / 3;
        pass_sizes = vec![ops.min(OPEN_RATE as usize), ops * reps];
        setups.push(time_setups(id, &scratch, group));
        let warm = schedule.next_pass(pass_sizes[0]).swap_remove(0);
        let warm_run = drive_open(&live.sessions[0], &warm, None);
        out.failed += count_failed(std::slice::from_ref(&warm), &[warm_run.observed], &mut out);
        setups.push(time_setups(id, &scratch, group));
        // One continuous arrival process; the repetitions are its
        // consecutive segments, so a backlog carries over from one to the
        // next.
        let pass = schedule.next_pass(pass_sizes[1]).swap_remove(0);
        let run = drive_open(&live.sessions[0], &pass, None);
        setups.push(time_setups(id, &scratch, group));
        out.attempted = pass.len() as u64;
        out.failed += count_failed(
            std::slice::from_ref(&pass),
            std::slice::from_ref(&run.observed),
            &mut out,
        );
        let period_ns = 1_000_000_000 / OPEN_RATE;
        for segment in run.latencies.chunks(ops) {
            // A segment lasts from its first op's due time to its last
            // completion.
            let completions =
                segment.iter().enumerate().filter_map(|(i, l)| Some(i as u64 * period_ns + (*l)?));
            let wall_ns = completions.max().unwrap_or(0);
            let done: Vec<u64> = segment.iter().flatten().copied().collect();
            if !done.is_empty() {
                stats.add(done.len(), wall_ns.max(1), done);
            }
        }
        out.notes.push(format!(
            "open loop at {OPEN_RATE} ops/s: generator lateness p99 {:.1} us, {} notifications",
            p99(&sorted(run.late)) / 1e3,
            run.notifications
        ));
    } else {
        pass_sizes = vec![ops; reps + 1];
        for rep in 0..=reps {
            setups.push(time_setups(id, &scratch, SETUPS_PER_RUN / (reps + 1)));
            let passes = schedule.next_pass(ops);
            let run = drive_closed(id, &live.sessions, &passes, None);
            let failed = count_failed(&passes, &run.observed, &mut out);
            if rep > 0 {
                out.attempted += pass_ops(id, &passes) as u64;
                out.failed += failed;
                stats.add(pass_ops(id, &passes), run.wall_ns, run.latencies);
            } else {
                out.check(failed == 0, || format!("{failed} ops failed in the warm-up pass"));
            }
            // The stated checkpoint schedule of the durable workload.
            if id.durable() && (rep == reps * 2 / 5 || rep == reps * 4 / 5) {
                live.runtime.checkpoint().expect("checkpoint");
            }
        }
    }
    out.stolen_ms = (cpu_ticks().1 - stolen_before) * MS_PER_TICK;
    let (setup_min, setup_s, setup_max) = spread(&setups);
    out.notes.push(format!(
        "setup_s: median of {} groups of {} set-ups spread over the run (min {setup_min:.6}, max {setup_max:.6})",
        setups.len(),
        SETUPS_PER_RUN / setups.len()
    ));
    let rss = rss_peak_mb();

    let Live { expr, runtime, sessions, .. } = live;
    let runtime = if id.durable() {
        let recover = || {
            ManagerRuntime::recover_path(&vault_dir, id.options()).expect("recovering the vault")
        };
        let (secs, recovered) =
            crash_and_recover(runtime, sessions, schedule.as_mut(), recover, &mut out);
        out.notes.push(format!(
            "recover_s: {secs:.6} s (reported as durability.recover_s in the traced run)"
        ));
        recovered
    } else {
        drop(sessions);
        runtime
    };
    let report = runtime.shutdown().expect("shutdown");
    let final_stats = report.stats;
    check_log(&expr, &report.log, &final_stats, "runtime", &mut out);

    // The blocking reference: the same op lists (regenerated from the seed
    // rather than kept, so they do not count towards `rss_peak_mb`), one
    // thread.
    let manager = InteractionManager::with_protocol(&expr, id.options().variant).expect("manager");
    let mut schedule = id.schedule(cfg.seed);
    for size in pass_sizes {
        drive_blocking(id, &manager, &schedule.next_pass(size), None, &mut out);
    }

    out.metric("setup_s", setup_s, "s");
    stats.report(&mut out);
    out.metric("rss_peak_mb", rss, "MB");
    out.notes.push(format!(
        "N = {ops} ops x R = {reps} repetitions after 1 warm-up pass; stats {final_stats:?}"
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics and spans
// ---------------------------------------------------------------------------

pub fn run_traced(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let id = cfg.id;
    let ops = cfg.traced_ops();
    let scratch = fresh_dir(&cfg.out_dir, &format!("tmp-{}", std::process::id()));
    let tracer = &Tracer::new();

    // Reference: one warm-up pass and one repetition, untraced.
    let ticks_before = cpu_ticks();
    let plain_dir = fresh_dir(&scratch, "vault-plain");
    let plain = set_up(id, id.options(), &plain_dir, None);
    let mut schedule = id.schedule(cfg.seed);
    let warm = schedule.next_pass(ops);
    let rep = schedule.next_pass(ops);
    let (plain_tput, plain_latencies) = match id.drive() {
        Drive::Open => {
            drive_open(&plain.sessions[0], &warm[0], None);
            let run = drive_open(&plain.sessions[0], &rep[0], None);
            let done = sorted(run.latencies.iter().flatten().copied().collect());
            (done.len() as f64 / (run.wall_ns as f64 / 1e9), done)
        }
        _ => {
            drive_closed(id, &plain.sessions, &warm, None);
            let run = drive_closed(id, &plain.sessions, &rep, None);
            (pass_ops(id, &rep) as f64 / (run.wall_ns as f64 / 1e9), sorted(run.latencies))
        }
    };
    let (plain_p50_ns, plain_p99_ns) = (p50(&plain_latencies), p99(&plain_latencies));
    drop(plain.sessions);
    plain.runtime.shutdown().expect("shutdown");

    // The same two passes again, traced.
    let vault_dir = fresh_dir(&scratch, "vault");
    let options = RuntimeOptions { queue_metrics: true, ..id.options() };
    let live = {
        let _span = tracer.scope("setup", 0);
        set_up(id, options, &vault_dir, Some(tracer))
    };
    let runtime = &live.runtime;
    let mut poll = (0u64, Vec::new());
    let mut gen_late = Vec::new();
    let mut stall = Vec::new();
    let mut checkpoint = None;
    let dir_before;
    let stats_before;
    let (traced_tput, traced_latencies, hops) = match id.drive() {
        Drive::Open => {
            drive_open(&live.sessions[0], &warm[0], None);
            runtime.drain_queue_samples();
            stats_before = runtime.stats();
            dir_before = 0;
            let mut spans = Vec::new();
            let started = tracer.now();
            let run = drive_open(&live.sessions[0], &rep[0], Some(&mut spans));
            // The open loop stamps from its own start.
            for span in &mut spans {
                span.start_ns += started;
                span.end_ns += started;
            }
            out.attempted = rep[0].len() as u64;
            out.failed = count_failed(&rep, std::slice::from_ref(&run.observed), &mut out);
            tracer.extend(spans);
            poll = (run.notifications, run.poll_ns);
            gen_late = run.late;
            let done: Vec<u64> = run.latencies.iter().flatten().copied().collect();
            let hops = Hops { submit: run.submit, inflight: run.inflight, ..Hops::default() };
            (done.len() as f64 / (run.wall_ns as f64 / 1e9), done, hops)
        }
        _ => {
            drive_closed(id, &live.sessions, &warm, None);
            runtime.drain_queue_samples();
            if id.durable() {
                // Cut a checkpoint right before the traced repetition: its
                // first 100 ms show what a checkpoint costs the ops behind it.
                let _span = tracer.scope("durability.checkpoint", 0);
                let started = Instant::now();
                let report = runtime.checkpoint().expect("checkpoint");
                checkpoint = Some((started.elapsed(), report));
            }
            stats_before = runtime.stats();
            dir_before = dir_bytes(&vault_dir);
            let started = tracer.now();
            let mut run = drive_closed(id, &live.sessions, &rep, Some(tracer));
            out.attempted = pass_ops(id, &rep) as u64;
            out.failed = count_failed(&rep, &run.observed, &mut out);
            if id.durable() {
                stall = run
                    .hops
                    .spans
                    .iter()
                    .filter(|s| s.name == "request" && s.start_ns < started + 100_000_000)
                    .map(|s| s.end_ns - s.start_ns)
                    .collect();
            }
            tracer.extend(std::mem::take(&mut run.hops.spans));
            (pass_ops(id, &rep) as f64 / (run.wall_ns as f64 / 1e9), run.latencies, run.hops)
        }
    };
    let ticks_after = cpu_ticks();
    let steal_share =
        (ticks_after.1 - ticks_before.1) as f64 / (ticks_after.0 - ticks_before.0).max(1) as f64;
    out.stolen_ms = (ticks_after.1 - ticks_before.1) * MS_PER_TICK;
    let stats = stats_delta(runtime.stats(), stats_before);
    let samples = runtime.drain_queue_samples();
    let waits = sorted(samples.iter().map(|s| s.0).collect());
    let services = sorted(samples.iter().map(|s| s.1).collect());
    let hop_sum_share = hop_sum_share(&traced_latencies, &hops);
    let traced_p50_ns = p50(&sorted(traced_latencies));
    let (submit, inflight, wake) = (sorted(hops.submit), sorted(hops.inflight), sorted(hops.wake));
    let load = runtime.load_report();
    let sched = runtime.sched_stats();
    let cascade = runtime.cascade_stats();
    let shards = runtime.shard_count();

    // The log, merged while running and again at shutdown.
    if let Some(vault) = runtime.vault() {
        vault.sync();
    }
    let wal_bytes = dir_bytes(&vault_dir).saturating_sub(dir_before);
    let merge_started = Instant::now();
    let merged = {
        let _span = tracer.scope("runtime.log_merge", 0);
        runtime.log()
    };
    let log_merge_ms = merge_started.elapsed().as_secs_f64() * 1e3;
    let Live { expr, runtime, sessions, vault: counters } = live;
    let mut recover = None;
    let runtime = if id.durable() {
        // Recover through a traced vault, so `read_ns` is what recovery read.
        let file = FileVault::open(&vault_dir, options.fsync).expect("reopening the vault");
        let traced = TracedVault::new(Arc::new(file), Arc::clone(tracer));
        let read = Arc::clone(&traced.counters);
        let reopen = || {
            let _span = tracer.scope("durability.recover", 0);
            ManagerRuntime::recover(Arc::new(traced), options).expect("recovering the vault")
        };
        let (secs, recovered) =
            crash_and_recover(runtime, sessions, schedule.as_mut(), reopen, &mut out);
        recover = Some((secs, read));
        recovered
    } else {
        drop(sessions);
        runtime
    };
    let shutdown_started = Instant::now();
    let report = {
        let _span = tracer.scope("runtime.shutdown", 0);
        runtime.shutdown().expect("shutdown")
    };
    let shutdown_ms = shutdown_started.elapsed().as_secs_f64() * 1e3;
    if !id.durable() {
        out.check(report.log == merged, || {
            "shutdown log differs from the log merged while running".to_string()
        });
    }
    check_log(&expr, &report.log, &report.stats, "runtime", &mut out);

    // Each layer on its own, from outside.
    let core = layers::measure_core(id, tracer);
    let state = layers::measure_state(id, &expr, &warm, &rep, tracer);
    let manager = InteractionManager::with_protocol(&expr, id.options().variant).expect("manager");
    let mut calls = BlockingCalls::default();
    drive_blocking(id, &manager, &warm, None, &mut out);
    let blocking_ns = drive_blocking(id, &manager, &rep, None, &mut out);
    // Once more on a fresh manager with a timer around every call.
    let timed = InteractionManager::with_protocol(&expr, id.options().variant).expect("manager");
    drive_blocking(id, &timed, &warm, None, &mut out);
    drive_blocking(id, &timed, &rep, Some(&mut calls), &mut out);
    let engine_ns = state.step_ns * rep.iter().map(Pass::len).sum::<usize>() as f64;
    let rep_wall_ns = pass_ops(id, &rep) as f64 / plain_tput * 1e9;

    if id == Id::EnsembleFig7 {
        out.check(state.size_end <= 2.0 * state.size_warm, || {
            format!(
                "state grew from {} to {} nodes over the repetition",
                state.size_warm, state.size_end
            )
        });
    }
    if id == Id::CrossChain {
        let audits = rep[0].actions.iter().filter(|a| manager.is_cross_shard(a)).count() as u64;
        out.check(audits > 0 && stats.denials == 0, || {
            format!("{audits} audits, {} denials on cross_chain", stats.denials)
        });
    }

    let zero = Arc::new(VaultCounters::default());
    let v = counters.as_ref().unwrap_or(&zero);
    let (recover_s, read_ns) =
        recover.as_ref().map_or((0.0, 0.0), |(s, c)| (*s, c.read.ns() as f64));
    let (checkpoint_ms, checkpoint_bytes) =
        checkpoint.as_ref().map_or((0.0, 0.0), |(d, r)| (d.as_secs_f64() * 1e3, r.bytes as f64));
    let commits = stats.confirmations.max(1) as f64;
    let per_layer: Vec<(&'static str, f64, &'static str)> = vec![
        ("core.parse_us", core.parse_us, "us"),
        ("core.partition_us", core.partition_us, "us"),
        ("core.shards", shards as f64, "count"),
        ("state.engine_new_us", state.engine_new_us, "us"),
        ("state.compile_tier_us", state.compile_tier_us, "us"),
        ("state.table_states", state.table_states, "count"),
        ("state.step_ns", state.step_ns, "ns"),
        ("state.step_cow_ns", state.step_cow_ns, "ns"),
        ("state.probe_ns", state.probe_ns, "ns"),
        ("state.tier_hit_share", state.tier_hit_share, "ratio"),
        ("state.size_end", state.size_end, "count"),
        ("state.step_share", engine_ns / rep_wall_ns, "ratio"),
        ("manager.blocking_ops_s", pass_ops(id, &rep) as f64 / (blocking_ns as f64 / 1e9), "ops/s"),
        ("manager.try_execute_ns", p50(&sorted(calls.single_execute)), "ns"),
        ("manager.ask_confirm_ns", p50(&sorted(calls.ask_confirm)), "ns"),
        ("manager.cross_execute_ns", p50(&sorted(calls.cross_execute)), "ns"),
        ("runtime.throughput_ops_s", plain_tput, "ops/s"),
        ("runtime.latency_p50_us", plain_p50_ns / 1e3, "us"),
        ("runtime.latency_p99_us", plain_p99_ns / 1e3, "us"),
        ("runtime.submit_ns", p50(&submit), "ns"),
        ("runtime.enqueue_wait_p50_ns", p50(&waits), "ns"),
        ("runtime.enqueue_wait_p99_ns", p99(&waits), "ns"),
        ("runtime.service_p50_ns", p50(&services), "ns"),
        ("runtime.service_p99_ns", p99(&services), "ns"),
        ("runtime.inflight_ns", p50(&inflight), "ns"),
        ("runtime.wake_ns", p50(&wake), "ns"),
        ("runtime.hop_sum_share", hop_sum_share, "ratio"),
        ("runtime.peak_queue_depth", load.peak_depth() as f64, "count"),
        ("runtime.shed_total", load.total_shed() as f64, "count"),
        ("runtime.workers", sched.workers as f64, "count"),
        ("runtime.cross.conditional_votes", cascade.conditional_votes as f64, "count"),
        ("runtime.cross.promoted_votes", cascade.promoted_votes as f64, "count"),
        ("runtime.cross.invalidated_votes", cascade.invalidated_votes as f64, "count"),
        ("runtime.cross.cascaded_commits", cascade.cascaded_commits as f64, "count"),
        ("runtime.log_merge_ms", log_merge_ms, "ms"),
        ("runtime.shutdown_ms", shutdown_ms, "ms"),
        ("manager.stats.asks", stats.asks as f64, "count"),
        ("manager.stats.grants", stats.grants as f64, "count"),
        ("manager.stats.denials", stats.denials as f64, "count"),
        ("manager.stats.confirmations", stats.confirmations as f64, "count"),
        ("manager.stats.notifications", stats.notifications as f64, "count"),
        ("durable.append_count", v.append.count() as f64, "count"),
        ("durable.append_bytes", v.append.bytes() as f64, "B"),
        ("durable.append_ns", v.append.ns() as f64, "ns"),
        ("durable.sync_count", v.sync.count() as f64, "count"),
        ("durable.sync_ns", v.sync.ns() as f64, "ns"),
        ("durable.blob_bytes", v.blob.bytes() as f64, "B"),
        ("durable.blob_ns", v.blob.ns() as f64, "ns"),
        ("durable.read_ns", read_ns, "ns"),
        ("durability.checkpoint_ms", checkpoint_ms, "ms"),
        ("durability.checkpoint_bytes", checkpoint_bytes, "B"),
        ("durability.stall_p99_us", p99(&sorted(stall)) / 1e3, "us"),
        (
            "durability.recover_replayed",
            if id.durable() { report.log.len() as f64 - 1.0 } else { 0.0 },
            "count",
        ),
        ("durability.recover_s", recover_s, "s"),
        (
            "durability.wal_bytes_per_commit",
            if id.durable() { wal_bytes as f64 / commits } else { 0.0 },
            "B",
        ),
        ("subscription.notifications", poll.0 as f64, "count"),
        ("subscription.poll_ns", p50(&sorted(poll.1)), "ns"),
        ("bench.gen_late_p99_us", p99(&sorted(gen_late)) / 1e3, "us"),
        ("bench.trace_overhead_share", plain_tput / traced_tput, "ratio"),
        ("bench.steal_share", steal_share, "ratio"),
        ("bench.failed_share", out.failed as f64 / out.attempted.max(1) as f64, "ratio"),
    ];
    out.metrics = per_layer;
    out.notes.push(format!(
        "traced repetition: N = {ops}; p50 {:.3} us (untraced {:.3} us), hops {:.3} + {:.3} + {:.3} us; {} queue samples",
        traced_p50_ns / 1e3,
        plain_p50_ns / 1e3,
        p50(&submit) / 1e3,
        p50(&inflight) / 1e3,
        p50(&wake) / 1e3,
        samples.len()
    ));

    let doc = tracer.to_json(id.name(), SPANS_WRITTEN);
    let path = cfg.out_dir.join(format!("trace.{}.json", id.name()));
    if let Err(e) = std::fs::write(&path, doc.to_string()) {
        out.violations.push(format!("writing {}: {e}", path.display()));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    out
}
