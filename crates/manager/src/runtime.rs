//! The session-oriented async runtime — per-shard task queues, completion
//! tickets, and lease timers.
//!
//! Sec. 7 of the paper frames the interaction manager as a *message-based
//! coordination service*: clients talk to it asynchronously over (persistent)
//! queues instead of calling it under a lock.  [`ManagerRuntime`] realizes
//! that shape on top of the sharded kernel:
//!
//! * **a pool of worker threads serving the shards**: a shard's engine,
//!   reservation table, subscription registry and log segment are one
//!   `ShardState` (the private `shard` module, the only code that changes
//!   one), checked out by whoever serves the shard for as long as it does —
//!   worker `shard % workers`, or the submitting thread itself
//!   when the shard is at rest and the operation has one owner (a *caller
//!   frame*: a client that blocks on each reply, as the paper's WfMS does,
//!   is served without a thread hop and without a worker thread).  The
//!   per-shard mutexes of [`InteractionManager`](crate::InteractionManager)
//!   are gone, and nothing inside the state is locked.  This file is the
//!   *drivers* of that kernel: the single-owner path, the one rendezvous of
//!   several owners (whose executes coalesce into a cascade) and crash
//!   recovery all vote, conclude, apply and finish through the same four
//!   steps;
//! * **an ordered task queue per shard**: submissions become tasks; a shard
//!   executes its tasks strictly in queue order;
//! * **completion tickets**: every submission returns a [`Ticket`]
//!   immediately — already complete if it was decided on the caller's frame;
//!   otherwise `wait()` for the synchronous round trip, `poll()` to
//!   pipeline, `then()` for callbacks — so clients keep dozens of requests
//!   in flight without blocking;
//! * **cross-shard actions as ordered enqueues**: a multi-owner submission
//!   enqueues one task onto *every* owner's queue, in ascending shard-id
//!   order, under a single enqueue lock.  The enqueue order *is* the 2PC
//!   lock order of the blocking manager: any two cross-shard tasks appear in
//!   the same relative order in every queue they share, so the rendezvous in
//!   which the owners vote and commit can never cycle — deadlock-freedom
//!   carries over from the blocking design by construction;
//! * **lease timers in an ordered map** ([`crate::timer::Timers`]) own
//!   lease expiry: every leased grant schedules one timer, and advancing the
//!   clock fires exactly the due leases instead of scanning the reservation
//!   index.  The clock is logical and moves only when somebody calls
//!   [`ManagerRuntime::advance_time`], which keeps deterministic tests
//!   deterministic;
//! * **dynamic repartitioning** ([`ManagerRuntime::add_constraint`],
//!   [`ManagerRuntime::couple`]): workflow ensembles grow at runtime, so the
//!   partition is a *versioned* artifact rather than a construct-time one.
//!   The shard topology (router + queues) lives behind an epoch-versioned
//!   swappable snapshot; every task is stamped with the epoch it was routed
//!   under, and a worker that dequeues a stale-stamped task re-checks the
//!   route and *retries* it through the current topology instead of
//!   misdelivering it.  A disjoint constraint is applied as a pure
//!   shard-append (no existing shard is touched, zero migration); a coupling
//!   constraint quiesces **only** the affected shards — each drains to a
//!   pause barrier and hands its whole state (engine, reservation table,
//!   subscription registry, log segment) to the coordinator, which replays
//!   the covered history into the new components, widens reservation owner
//!   sets, promotes widened subscriptions to cross-shard entries, installs
//!   the next topology epoch, and resumes the paused workers — while every
//!   unaffected shard keeps serving.
//!
//! The execution semantics are those of the blocking
//! [`InteractionManager`](crate::InteractionManager):
//! per-action outcomes, the merged log, and the statistics counters agree
//! with the blocking manager on any sequentially submitted workload (see the
//! equivalence property tests).

use crate::durability::{
    self, durability_err, DurabilityHub, Gaps, Manifest, ShardCapture, StatDelta,
    TopologyCheckpoint, WalRecord,
};
use crate::error::{ManagerError, ManagerResult, SubmitError};
use crate::lock;
use crate::log::{LogKey, ShardLog};
use crate::manager::{ManagerStats, ProtocolVariant, Reservation, SharedStats};
use crate::pool::PoolCore;
use crate::shard::{Effects, LocalVote, Op, Role, ShardState, Verdict, DENIED};
use crate::subscription::{ClientId, CrossSubscriptions, Notification, SubscriptionRegistry};
use crate::ticket::{completed, ticket, Ticket, TicketIssuer};
use crate::timer::Timers;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender, TryRecvError};
use ix_core::{parse, Action, Alphabet, Component, Expr, Partition};
use ix_durable::{FileVault, FsyncPolicy, Vault, META_STREAM};
use ix_state::{empty_reservation_fingerprint, Engine, Route, ShardRouter, StateRef, TierStats};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, Weak};
use std::time::{Duration, Instant};

/// Construction options of a [`ManagerRuntime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// The coordination-protocol variant (as for
    /// [`InteractionManager`](crate::InteractionManager)).
    pub variant: ProtocolVariant,
    /// Record a queueing-delay sample per completed execute — the time a
    /// task waited in its shard queue vs the time the worker spent serving
    /// it.  Drained via [`ManagerRuntime::drain_queue_samples`]; off by
    /// default (each sample costs two clock reads on the worker).
    pub queue_metrics: bool,
    /// Fsync policy of the file-backed vault opened by
    /// [`ManagerRuntime::with_durability_path`] (ignored when the vault is
    /// handed in directly, which carries its own policy).
    pub fsync: FsyncPolicy,
    /// Maximum number of pending client tasks per shard queue (0 =
    /// unbounded, the default).  With a limit set, session submissions pass
    /// a per-shard credit gate: a single atomic add on the fast path, a
    /// [`crate::error::SubmitError::Overloaded`] backpressure ticket (with a
    /// retry-after hint) when the owning shard is full.  Cross-shard
    /// submissions reserve a credit on *every* owner queue up front, so a
    /// 2PC chain can never half-enqueue.  Request classes are shed in the
    /// order of `AdmitClass`; confirm/abort/expiry releases are never shed
    /// — shedding them would leak reservations.
    pub queue_limit: usize,
    /// Size of the pool of workers draining the shard queues (0 = one per
    /// available hardware thread; the host is asked once per process, so a
    /// cgroup limit changed later is not seen).  Shards are decoupled from
    /// OS threads: worker `w` drains the queues of the shards `s` with
    /// `s % workers == w`, in bounded run-to-completion slices, so a
    /// 64-shard partition on an 8-core host runs at most 8 threads, not 64.
    /// A worker's thread starts with the first task queued for it; what a
    /// client submits while its shard is at rest is decided on the client's
    /// own thread and queues nothing.
    pub worker_threads: usize,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            variant: ProtocolVariant::Simple,
            queue_metrics: false,
            fsync: FsyncPolicy::Never,
            queue_limit: 0,
            worker_threads: 0,
        }
    }
}

/// Percentage of the queue limit above which [`AdmitClass::Probe`] traffic is
/// shed.
const PROBE_WATERMARK_PCT: usize = 50;

/// Percentage of the queue limit above which [`AdmitClass::Speculative`]
/// traffic is shed.
const SPECULATIVE_WATERMARK_PCT: usize = 75;

/// The admission cap (in queued task units) of a request class under
/// `limit`, given the shard's depth-EWMA pressure in percent of the limit.
///
/// The static percentages describe the right ladder for a queue that
/// breathes; under *sustained* pressure they would admit sheddable traffic
/// right up to the same watermarks while commits fight for the remainder.
/// So both watermarks scale by a factor that falls linearly from 1.0 to 0.5
/// as the pressure climbs from 25% to 75% of the limit — probes and
/// speculative fan-out shed *earlier* the longer the queue has been deep.
/// Both scale by the same factor and the commit class never scales, so the
/// strict probe → speculative → commit shed order holds at every pressure.
/// Watermark caps are at least 1, so a tiny limit still admits idle-system
/// probes.
fn class_cap(class: AdmitClass, limit: usize, pressure_pct: usize) -> usize {
    let scale = 125usize.saturating_sub(pressure_pct).clamp(50, 100);
    let pct = |p: usize| (limit.saturating_mul(p).saturating_mul(scale) / 10_000).max(1);
    match class {
        AdmitClass::Probe => pct(PROBE_WATERMARK_PCT),
        AdmitClass::Speculative => pct(SPECULATIVE_WATERMARK_PCT),
        AdmitClass::Commit => limit,
    }
}

/// Admission class of a submission: the graceful-degradation ladder of the
/// bounded-admission gate.  Classes are shed in this order as a shard queue
/// fills ([`class_cap`]), so committed workflow progress survives longest.
/// Releases (confirm / abort / expiry) are never shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AdmitClass {
    /// `is_permitted` queries and subscription registrations, shed first: a
    /// lost probe costs a retry and holds no protocol state.
    Probe,
    /// Multi-owner combined executes (the speculative cascade batches): one
    /// submission fans out across every owner queue, so it amplifies load
    /// exactly when the runtime can least afford it.
    Speculative,
    /// Single-owner ask/execute and cross-shard asks: the full limit.
    Commit,
}

/// Whether an enqueue already holds its queue credit(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Credit {
    /// The session path reserved the credits through
    /// [`ShardGate::try_admit`] before dispatching.
    Held,
    /// Forced traffic — confirm/abort/expiry and stale-route re-dispatch —
    /// charges unconditionally at enqueue and is never shed: shedding a
    /// release would leak reservations, and shedding a re-dispatch would
    /// drop an already-accepted submission.
    Charge,
}

/// The per-shard credit gate of bounded admission.  One gate per shard id,
/// carried across repartitions by [`Arc`] (topology snapshots share the
/// gates of the shards they retain), fully inert when
/// [`RuntimeOptions::queue_limit`] is 0.
///
/// `depth` counts *queued client task units* — 1 per single/cross/exec
/// message, the window length per batch message, 0 for control tasks.  The
/// fast path is one `fetch_add` on admission and one on release; there is
/// no lock anywhere on the credit path.  Because forced traffic charges
/// unconditionally, `depth` may transiently exceed `limit` under heavy
/// confirm/abort load — admitted (sheddable) load alone never does.
struct ShardGate {
    /// Queue-depth limit in task units (0 = gate inert).
    limit: usize,
    /// Currently queued task units (signed: release-before-charge races of
    /// concurrent enqueues may dip a reading below zero transiently).
    depth: AtomicI64,
    /// High-water mark of `depth`.
    peak: AtomicI64,
    /// Probes shed at the probe watermark.
    shed_probes: AtomicU64,
    /// Multi-owner executes shed at the speculative watermark.
    shed_speculative: AtomicU64,
    /// Commits shed at the full limit.
    shed_commits: AtomicU64,
    /// EWMA (α = 1/8) of enqueue wait, nanoseconds; written only by
    /// whoever holds the shard's slot Busy.
    wait_ewma_ns: AtomicU64,
    /// EWMA (α = 1/8) of per-task service time, nanoseconds.
    service_ewma_ns: AtomicU64,
    /// EWMA (α = 1/8) of queue depth in task units, sampled at every
    /// completed task by whoever served it.  Drives the watermark scaling of
    /// [`class_cap`] — a transient burst barely moves it, a queue that
    /// *stays* deep saturates it.
    depth_ewma: AtomicU64,
    /// Entries of the shard's commit log, how many of them a checkpoint has
    /// archived, and the bytes of the resident ones; published after every
    /// task by whoever served it.
    log_entries: AtomicU64,
    log_archived: AtomicU64,
    log_bytes: AtomicU64,
}

impl ShardGate {
    fn new(limit: usize) -> ShardGate {
        ShardGate {
            limit,
            depth: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            shed_probes: AtomicU64::new(0),
            shed_speculative: AtomicU64::new(0),
            shed_commits: AtomicU64::new(0),
            wait_ewma_ns: AtomicU64::new(0),
            service_ewma_ns: AtomicU64::new(0),
            depth_ewma: AtomicU64::new(0),
            log_entries: AtomicU64::new(0),
            log_archived: AtomicU64::new(0),
            log_bytes: AtomicU64::new(0),
        }
    }

    /// Publishes the size of the shard's commit log for [`LoadReport`].
    /// Called only by whoever holds the shard's slot Busy — a worker in a
    /// slice, or a caller frame — so plain stores do.
    fn publish_log(&self, log: &ShardLog) {
        self.log_entries.store(log.len() as u64, Ordering::Relaxed);
        self.log_archived.store(log.archived() as u64, Ordering::Relaxed);
        self.log_bytes.store(log.bytes() as u64, Ordering::Relaxed);
    }

    /// Whether the gate enforces a limit at all.
    fn active(&self) -> bool {
        self.limit > 0
    }

    /// Reserves `units` credits under the class's cap — the one-`fetch_add`
    /// fast path.  On overflow the reservation is rolled back, the class's
    /// shed counter bumps, and the error carries the retry-after hint.
    fn try_admit(&self, units: usize, class: AdmitClass) -> Result<(), SubmitError> {
        if !self.active() || units == 0 {
            return Ok(());
        }
        let cap = class_cap(class, self.limit, self.pressure_pct()) as i64;
        let prev = self.depth.fetch_add(units as i64, Ordering::Relaxed);
        if prev + units as i64 > cap {
            self.depth.fetch_sub(units as i64, Ordering::Relaxed);
            let shed = match class {
                AdmitClass::Probe => &self.shed_probes,
                AdmitClass::Speculative => &self.shed_speculative,
                AdmitClass::Commit => &self.shed_commits,
            };
            shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded { retry_after: self.retry_after() });
        }
        self.peak.fetch_max(prev + units as i64, Ordering::Relaxed);
        Ok(())
    }

    /// Unconditionally charges `units` credits (forced traffic).
    fn charge(&self, units: usize) {
        if !self.active() || units == 0 {
            return;
        }
        let now = self.depth.fetch_add(units as i64, Ordering::Relaxed) + units as i64;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Returns `units` credits when the message is dequeued — or, for a
    /// submission a caller frame serves, when the frame is entered.
    fn release(&self, units: usize) {
        if !self.active() || units == 0 {
            return;
        }
        self.depth.fetch_sub(units as i64, Ordering::Relaxed);
    }

    /// Folds one completed task's (wait, service) pair into the EWMAs and
    /// samples the current depth into the pressure EWMA.  Called only by
    /// whoever holds the shard's slot Busy (one thread at a time, whichever
    /// it is), so plain load/store is race-free.
    fn observe(&self, wait_ns: u64, service_ns: u64) {
        let wait = self.wait_ewma_ns.load(Ordering::Relaxed);
        self.wait_ewma_ns.store(wait - wait / 8 + wait_ns / 8, Ordering::Relaxed);
        let service = self.service_ewma_ns.load(Ordering::Relaxed);
        self.service_ewma_ns.store(service - service / 8 + service_ns / 8, Ordering::Relaxed);
        // The depth EWMA is stored in 1/16 task units so shallow queues
        // (depth < 8) still register instead of truncating to zero.
        let depth = self.depth.load(Ordering::Relaxed).max(0) as u64;
        let ewma = self.depth_ewma.load(Ordering::Relaxed);
        self.depth_ewma.store(ewma - ewma / 8 + depth * 2, Ordering::Relaxed);
    }

    /// The sustained depth pressure: the depth EWMA as a percentage of the
    /// limit (0 on unbounded gates).
    fn pressure_pct(&self) -> usize {
        if self.limit == 0 {
            return 0;
        }
        (self.depth_ewma.load(Ordering::Relaxed) as usize / 16).saturating_mul(100) / self.limit
    }

    /// The backpressure hint: roughly how long the current backlog needs to
    /// drain at the observed service rate, clamped to [100µs, 100ms].
    fn retry_after(&self) -> Duration {
        let depth = self.depth.load(Ordering::Relaxed).max(1) as u64;
        let service = self.service_ewma_ns.load(Ordering::Relaxed).max(1_000);
        Duration::from_nanos((service.saturating_mul(depth)).clamp(100_000, 100_000_000))
    }

    /// The load row this gate contributes to [`LoadReport`].
    fn load(&self, shard: usize) -> ShardLoad {
        ShardLoad {
            shard,
            limit: self.limit,
            depth: self.depth.load(Ordering::Relaxed).max(0) as usize,
            peak_depth: self.peak.load(Ordering::Relaxed).max(0) as usize,
            shed_probes: self.shed_probes.load(Ordering::Relaxed),
            shed_speculative: self.shed_speculative.load(Ordering::Relaxed),
            shed_commits: self.shed_commits.load(Ordering::Relaxed),
            wait_ewma_ns: self.wait_ewma_ns.load(Ordering::Relaxed),
            service_ewma_ns: self.service_ewma_ns.load(Ordering::Relaxed),
            depth_ewma: self.depth_ewma.load(Ordering::Relaxed) as usize / 16,
            log_entries: self.log_entries.load(Ordering::Relaxed),
            log_archived: self.log_archived.load(Ordering::Relaxed),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One shard's row of a [`LoadReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard id.
    pub shard: usize,
    /// The configured depth limit (0 = unbounded).
    pub limit: usize,
    /// Currently queued client task units.
    pub depth: usize,
    /// High-water mark of `depth` since construction.
    pub peak_depth: usize,
    /// Probes/subscriptions shed at the probe watermark.
    pub shed_probes: u64,
    /// Multi-owner executes shed at the speculative watermark.
    pub shed_speculative: u64,
    /// Commits shed at the full limit.
    pub shed_commits: u64,
    /// EWMA of enqueue wait, nanoseconds.
    pub wait_ewma_ns: u64,
    /// EWMA of per-task service time, nanoseconds.
    pub service_ewma_ns: u64,
    /// EWMA of queue depth in task units — the sustained-pressure signal
    /// behind adaptive watermark scaling.
    pub depth_ewma: usize,
    /// Confirmed actions in the shard's commit log (a multi-owner action
    /// counts on its primary owner only).
    pub log_entries: u64,
    /// Of those, the entries a checkpoint has archived on the shard's
    /// history stream in the vault (always 0 without a vault).
    pub log_archived: u64,
    /// Bytes of memory the *resident* entries occupy: all of them without a
    /// vault — the part of the footprint that then grows with every commit
    /// — and under a vault the ones committed since the last checkpoint,
    /// plus at most one chunk the archived mark fell into.
    pub log_bytes: u64,
}

impl ShardLoad {
    /// Total submissions shed on this shard.
    pub fn shed_total(&self) -> u64 {
        self.shed_probes + self.shed_speculative + self.shed_commits
    }
}

/// Per-shard load snapshot ([`ManagerRuntime::load_report`]): queue depths,
/// high-water marks, shed counts, and the wait/service EWMAs the
/// retry-after hints are derived from.  [`LoadReport::hottest`] reports the
/// deepest queue for an operator to look at; nothing in the runtime acts on
/// it (placement is static, and `couple` appends shards, never splits one).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// The configured per-shard depth limit (0 = unbounded).
    pub queue_limit: usize,
    /// One row per shard, indexed by shard id.
    pub shards: Vec<ShardLoad>,
}

impl LoadReport {
    /// The busiest shard: deepest queue, ties broken by enqueue-wait EWMA.
    pub fn hottest(&self) -> Option<&ShardLoad> {
        self.shards.iter().max_by_key(|s| (s.depth, s.wait_ewma_ns))
    }

    /// Total submissions shed across every shard.
    pub fn total_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed_total()).sum()
    }

    /// The deepest high-water mark across every shard.
    pub fn peak_depth(&self) -> usize {
        self.shards.iter().map(|s| s.peak_depth).max().unwrap_or(0)
    }
}

/// Scheduling counters of the worker pool
/// ([`ManagerRuntime::sched_stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// The size of the worker pool: how many threads may serve the shard
    /// queues.
    pub workers: usize,
    /// How many of them have been started.  A worker's thread starts with
    /// the first task queued for it, so a runtime whose clients block on
    /// each reply — every decision taken on the caller's frame — reads 0.
    pub started: usize,
}

/// Queued client task units a channel message represents — the unit of the
/// [`ShardGate`] credit accounting.  Control messages (pause barriers,
/// control requests, stop markers) are free: they are runtime-internal and
/// never admitted.
fn task_units(task: &Task) -> usize {
    match task {
        Task::Single(_) | Task::Multi(_) => 1,
        Task::Batch(tasks) => tasks.len(),
        Task::Pause(_) | Task::Control(_) | Task::Stop => 0,
    }
}

/// The global rendezvous sequence of a queued task, for the help-frame
/// ordering bound ([`PoolCtl::seq`]).  Non-rendezvous tasks never block on
/// another shard, so they are unordered (always serveable).
fn task_seq(task: &Task) -> u64 {
    match task {
        Task::Multi(task) => task.seq,
        _ => 0,
    }
}

/// All-or-nothing credit reservation for one classified submission: one
/// unit on the single owner, or one unit on *every* owner of a multi-owner
/// route (reserved in ascending order, rolled back completely on the first
/// full gate) — a cross-shard chain can never half-enqueue.  `Route::None`
/// reserves nothing (resolved inline).
fn admit_route(topo: &Topology, route: &Route, class: AdmitClass) -> Result<(), SubmitError> {
    match route {
        Route::None => Ok(()),
        Route::Single(shard) => topo.gates[*shard].try_admit(1, class),
        Route::Multi(owners) => {
            for (i, &owner) in owners.iter().enumerate() {
                if let Err(e) = topo.gates[owner].try_admit(1, class) {
                    for &acquired in &owners[..i] {
                        topo.gates[acquired].release(1);
                    }
                    return Err(e);
                }
            }
            Ok(())
        }
    }
}

/// Session-path admission of one action: classifies it and reserves
/// credits per [`admit_route`], with the class chosen by the route arity.
/// Free (no classify, no atomics) on unbounded runtimes; non-concrete
/// actions reserve nothing (they fail inline before any queue).
fn admit_submission(
    topo: &Topology,
    action: &Action,
    single: AdmitClass,
    multi: AdmitClass,
) -> Result<(), SubmitError> {
    if !topo.bounded || !action.is_concrete() {
        return Ok(());
    }
    let route = topo.router.classify(action);
    let class = match &route {
        Route::Multi(_) => multi,
        _ => single,
    };
    admit_route(topo, &route, class)
}

/// The result a completion ticket resolves to.
#[derive(Clone, Debug, PartialEq)]
pub enum Completion {
    /// An ask was granted; confirm or abort with the reservation id (0 under
    /// the `Combined` variant, which commits immediately).
    Granted {
        /// Reservation to confirm later.
        reservation: u64,
    },
    /// An ask or execute was denied.
    Denied,
    /// A combined execute committed.
    Executed {
        /// Status-change notifications produced by the commit.
        notifications: Vec<Notification>,
    },
    /// A confirm committed.
    Confirmed {
        /// Status-change notifications produced by the commit.
        notifications: Vec<Notification>,
    },
    /// An abort released the reservation.
    Aborted {
        /// The released reservation.
        reservation: Reservation,
    },
    /// A subscription was registered; carries the current status.
    Subscribed {
        /// Whether the action is currently permitted.
        permitted: bool,
    },
    /// A subscription was removed.
    Unsubscribed,
    /// A status query resolved.
    Status {
        /// Whether the action is currently permitted.
        permitted: bool,
    },
    /// A lease-expiry task ran; `None` if the reservation was already gone.
    Expired {
        /// The rolled-back reservation, if one expired.
        reservation: Option<Reservation>,
    },
    /// The submission failed.
    Failed {
        /// The failure.
        error: ManagerError,
    },
}

/// What the runtime's lease timers fire: a lease ran out — which
/// reservation to expire, on which owners.
#[derive(Clone, Debug)]
struct ExpiryEvent {
    id: u64,
    owners: Vec<usize>,
}

/// One immutable snapshot of the runtime's shard topology: the
/// epoch-versioned router and the task-queue senders (index = shard id),
/// plus the joined expression the runtime currently enforces.
///
/// Submissions clone the current snapshot, classify against its router, and
/// stamp their tasks with its epoch.  A repartition installs a *new*
/// snapshot (existing queues keep their senders — shard ids are stable, new
/// shards append), so a worker that dequeues a task stamped with an older
/// epoch knows the routing decision may be stale and re-checks it against
/// the current topology instead of misdelivering the task.
struct Topology {
    router: ShardRouter,
    queues: Vec<Sender<Task>>,
    /// Per-shard admission gates, aligned with `queues`.  Shared by [`Arc`]
    /// across topology snapshots — a repartition carries the gates of
    /// retained shards forward, so credits charged under the old snapshot
    /// release correctly under the new one.
    gates: Vec<Arc<ShardGate>>,
    /// Whether any gate enforces a limit — the one-branch fast path that
    /// keeps unbounded runtimes free of admission work.
    bounded: bool,
    /// The worker pool: every enqueue wakes the worker that serves the
    /// target shard.  Shared with
    /// [`RuntimeShared`]; carried on the topology so the enqueue layer can
    /// wake without an extra indirection.
    pool: Arc<PoolCtl>,
    expr: Expr,
}

impl Topology {
    fn epoch(&self) -> u64 {
        self.router.epoch()
    }
}

/// The swappable topology slot.  Held strongly by the runtime handle and
/// its sessions; workers reach it through the
/// [`Weak`] in [`RuntimeShared`], so dropping every strong handle still
/// drops the queue senders, disconnects the channels, and lets the workers
/// exit — exactly the pre-repartitioning shutdown semantics.
type TopologySlot = RwLock<Arc<Topology>>;

/// Reads the current topology snapshot.
fn read_topology(slot: &TopologySlot) -> Arc<Topology> {
    Arc::clone(&slot.read().unwrap_or_else(|e| e.into_inner()))
}

/// A topology snapshot whose queue table covers every shard in `owners`.
///
/// A migration widens reservation-index owner sets shortly *before* it
/// installs the grown topology, so a reader that just loaded a widened
/// owner set may still hold the previous epoch's snapshot — indexing its
/// queue table with the new shard id would be out of bounds.  The install
/// is already underway at that point, so re-reading until the table covers
/// the owners closes the window.
fn covering_topology(slot: &TopologySlot, owners: &[usize]) -> Arc<Topology> {
    let needed = owners.iter().copied().max().map_or(0, |m| m + 1);
    let mut topo = read_topology(slot);
    while topo.queues.len() < needed {
        std::thread::yield_now();
        topo = read_topology(slot);
    }
    topo
}

/// Live counters of the repartitioning machinery (see
/// [`RepartitionStats`]).
#[derive(Debug, Default)]
struct RepartCounters {
    repartitions: AtomicU64,
    migrated_shard_states: AtomicU64,
    replayed_actions: AtomicU64,
    migrated_reservations: AtomicU64,
    migrated_subscriptions: AtomicU64,
    rerouted_tasks: AtomicU64,
}

/// Counters of the dynamic-repartitioning machinery.  The headline
/// invariant: a *disjoint* constraint addition leaves
/// `migrated_shard_states` untouched — it is a pure shard-append.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepartitionStats {
    /// Number of topology epochs installed after construction.
    pub repartitions: u64,
    /// Number of shard states quiesced and handed through a migration
    /// (0 for disjoint additions).
    pub migrated_shard_states: u64,
    /// Log entries replayed into newly created components.
    pub replayed_actions: u64,
    /// Reservations whose owner set was widened onto a new shard.
    pub migrated_reservations: u64,
    /// Shard-local subscriptions promoted to cross-shard entries.
    pub migrated_subscriptions: u64,
    /// Tasks whose routing was found stale after an epoch change and that
    /// were retried through the current topology.
    pub rerouted_tasks: u64,
}

/// Everything a worker, a session, and the runtime handle share.  Note that
/// the task-queue *senders* are deliberately **not** strongly held in here:
/// workers hold only receivers plus a weak topology handle, so dropping the
/// runtime and its sessions disconnects the queues and the workers exit.
struct RuntimeShared {
    variant: ProtocolVariant,
    /// Weak handle onto the swappable topology (see [`TopologySlot`]).
    topology: Weak<TopologySlot>,
    /// Mirror of the installed topology's epoch: one relaxed load decides
    /// whether a dequeued task was routed against the current partition
    /// (the common case) or needs the stale-route re-check.
    epoch: AtomicU64,
    /// Serializes enqueues that touch more than one queue.  Holding this
    /// lock across the ascending-order sends is what makes the relative
    /// order of any two multi-owner tasks identical in every queue they
    /// share — the queue-order analogue of the blocking manager's
    /// ascending-shard-id lock order.  Migration pause barriers are sent
    /// under the same lock, so a multi-owner task is ordered entirely
    /// before or entirely after a quiescence point on every queue they
    /// share — never half/half.
    cross_enqueue: Mutex<()>,
    /// Held by whoever persists shards — a checkpoint cut from its captures
    /// to its releases, a repartition from its pause barriers to its
    /// resumes.  A cut archives from the mark the previous one released at
    /// and truncates the write-ahead prefix its captures cover, so two of
    /// them interleaved could save an older snapshot over a newer one whose
    /// prefix is already gone, or archive the same entries out of order.
    persisting: Mutex<()>,
    reservation_index: Mutex<HashMap<u64, Vec<usize>>>,
    cross_subscriptions: Mutex<CrossSubscriptions>,
    orphan_subscriptions: Mutex<SubscriptionRegistry>,
    notification_channels: Mutex<HashMap<ClientId, Sender<Notification>>>,
    /// Number of registered cross-shard subscription entries — commits skip
    /// the registry lock entirely while this is zero (the common case).
    cross_entry_count: AtomicU64,
    timers: Mutex<Timers<ExpiryEvent>>,
    /// The write-ahead vault behind the durable runtime (`None` = the
    /// in-memory runtime).  Every shard state journals its own stream
    /// through its own clone; this handle serves the meta-stream events and
    /// the checkpoint/recovery machinery.
    durability: Option<DurabilityHub>,
    clock: AtomicU64,
    log_seq: AtomicU64,
    next_reservation: AtomicU64,
    stats: SharedStats,
    repart: RepartCounters,
    /// Per-shard published reservation fingerprints: updated by the owning
    /// worker after every reservation mutation, read by whoever verifies a
    /// conditional vote's validity tag.  Absent shard = empty table.
    reservation_fps: Mutex<HashMap<usize, u64>>,
    /// Counters of the cascading machinery (not part of the protocol stats —
    /// they describe how decisions were reached, not what was decided).
    cascade_counters: CascadeCounters,
    /// Queueing-delay sampling enabled (see [`RuntimeOptions::queue_metrics`]).
    queue_metrics: bool,
    /// (enqueue-wait, service) nanosecond pairs, one per completed execute,
    /// flushed by the workers once per drain.
    queue_samples: Mutex<Vec<(u64, u64)>>,
    /// Per-shard admission limit (see [`RuntimeOptions::queue_limit`]) —
    /// kept here so repartitions gate their new shards identically.
    queue_limit: usize,
    /// The worker pool: parkers and the slot bench.  Shards are scheduling
    /// units; workers are the OS threads that serve them (see the
    /// worker-pool section of ARCHITECTURE.md).
    pool: Arc<PoolCtl>,
}

/// Enqueue-instant stamp of a submission: taken when queueing-delay
/// sampling *or* bounded admission is on (the gate EWMAs feed the
/// retry-after hints), skipped otherwise — the two clock reads stay off the
/// default path.
fn stamp_submitted(shared: &RuntimeShared) -> Option<Instant> {
    (shared.queue_metrics || shared.queue_limit > 0).then(Instant::now)
}

/// Counters of the conditional-vote cascade (all relaxed).
#[derive(Default)]
struct CascadeCounters {
    /// Conditional votes deposited.
    conditional_votes: AtomicU64,
    /// Conditional votes promoted to unconditional yes by a verified tag.
    promoted_votes: AtomicU64,
    /// Conditional votes cleared because a task they assumed was denied.
    invalidated_votes: AtomicU64,
    /// Commit decisions completed by at least one promoted vote — chains
    /// that skipped a rendezvous round trip.
    cascaded_commits: AtomicU64,
}

/// Snapshot of the conditional-vote cascade counters
/// ([`ManagerRuntime::cascade_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Conditional votes deposited.
    pub conditional_votes: u64,
    /// Conditional votes promoted to unconditional yes by a verified tag.
    pub promoted_votes: u64,
    /// Conditional votes cleared because a task they assumed was denied.
    pub invalidated_votes: u64,
    /// Commit decisions that included at least one promoted vote.
    pub cascaded_commits: u64,
}

// ---------------------------------------------------------------------------
// The worker pool: shards are scheduling units, workers are OS threads.
//
// A `PoolCtl` owns one `ShardSlot` per shard (the *bench*) plus the
// parkers of `PoolCore`.  Worker `w` serves the shards `s` with
// `s % workers == w`: a pass walks them and serves each in a bounded
// run-to-completion slice — it *checks the shard state out* of its slot
// (phase Live → Busy), drains up to `SLICE_BUDGET` tasks in queue order,
// and checks it back in.  Exclusivity is a slot-phase property, not a
// thread identity: exactly one thread can hold a slot Busy, so a shard's
// tasks execute in queue order, one at a time, whoever serves them.
// Who may hold a slot Busy: a worker serving a slice (or the outer frame of
// its help-while-waiting excursion), the thread that shuts the runtime down
// (for workers that never started), and a *caller frame* — a control
// request or a single-owner operation run on the thread that asked for it,
// while the shard is at rest (`caller_frame`).  The placement rule only
// says which worker looks for work where, and a worker's thread starts
// with the first task queued for it.
// ---------------------------------------------------------------------------

/// Where one shard's serving state currently is, from the pool's point of
/// view.
enum SlotPhase {
    /// At rest on the bench, ready to be served by the shard's worker or a
    /// caller frame.
    Live(Box<ShardState>),
    /// Checked out — by a worker actively serving a slice, by the outer
    /// frame of a help-while-waiting excursion, or by a caller frame
    /// ([`caller_frame`]).  Marks the slot
    /// non-reentrant: a helping worker never recurses into a shard that is
    /// already being served, which bounds the help depth by the number of
    /// shards a worker owns.
    Busy,
    /// Surrendered to a migration coordinator ([`Task::Pause`]); the
    /// receiver yields the (possibly migrated) state back when the
    /// coordinator resumes the shard.  Unlike the thread-per-shard design
    /// the worker does **not** block here — it keeps serving its other
    /// shards and polls the receiver on later visits, so one worker owning
    /// two quiesced shards cannot deadlock a migration.
    Suspended(Receiver<ShardState>),
    /// The shard is finished (stop marker or disconnected queue); its final
    /// state was harvested into [`PoolCtl::finished`].
    Done,
}

/// The mutable part of a shard's slot, guarded by the slot mutex.  The
/// mutex is held only for phase transitions — never while tasks run.
struct SlotServe {
    phase: SlotPhase,
    /// The one-slot pushback buffer of the exec-coalescing loop, carried
    /// across slices (its queue credit was already released).
    pushback: Option<Task>,
    /// The stale-route divert watermark, carried across slices.
    divert_below: u64,
}

/// One shard's pool-visible serving context.
struct ShardSlot {
    /// The shard's ordered task queue.  Only the worker holding the slot
    /// Busy receives from it, so queue order is preserved.
    rx: Receiver<Task>,
    /// The shard's admission gate (same `Arc` as the topology's).
    gate: Arc<ShardGate>,
    serve: Mutex<SlotServe>,
}

/// Everything the worker pool shares: the parkers and threads
/// ([`PoolCore`]), the slot bench, and the harvested final shard states.
struct PoolCtl {
    core: PoolCore,
    /// The bench, indexed by shard id; append-only (repartitions push).
    slots: RwLock<Vec<Arc<ShardSlot>>>,
    /// Final shard states of finished slots, collected by
    /// [`ManagerRuntime::shutdown`] for the merged log.
    finished: Mutex<Vec<ShardState>>,
    /// Global rendezvous-task sequence, allocated under the cross-enqueue
    /// lock, so multi-owner tasks are totally ordered *across* queues (each
    /// queue holds them in ascending sequence).  Help-while-waiting leans on
    /// this: a worker blocked on task `S` may only serve rendezvous tasks
    /// with sequence ≤ `S` from its other shards — picking up a later one
    /// could block beneath the earlier frame while holding a shard that
    /// task's quorum needs, a deadlock.  Serving an earlier one is always
    /// safe: every frame above is blocked on a later task and has therefore
    /// already voted on everything earlier it owns.
    seq: AtomicU64,
}

impl PoolCtl {
    fn slot(&self, shard: usize) -> Option<Arc<ShardSlot>> {
        self.slots.read().unwrap_or_else(|e| e.into_inner()).get(shard).cloned()
    }

    fn slot_snapshot(&self) -> Vec<Arc<ShardSlot>> {
        self.slots.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// What a worker's visit to one shard slot accomplished.
enum SliceOutcome {
    /// At least one task was served (or the shard was suspended mid-pause).
    Progressed,
    /// The slot was checked out but its queue was empty.
    Idle,
    /// The slot was unavailable: busy in another frame, suspended, or not
    /// on the bench yet.
    Skip,
    /// The shard is done (stop marker, disconnect, or already finished).
    Finished,
}

/// Result of taking a shard state off the bench.
enum Checkout {
    /// The state plus the carried pushback buffer and divert watermark.
    State(Box<ShardState>, Option<Task>, u64),
    Skip,
    Done,
}

fn checkout(slot: &ShardSlot) -> Checkout {
    let mut serve = lock(&slot.serve);
    match &mut serve.phase {
        SlotPhase::Busy => Checkout::Skip,
        SlotPhase::Done => Checkout::Done,
        SlotPhase::Suspended(rx) => match rx.try_recv() {
            Ok(st) => {
                serve.phase = SlotPhase::Busy;
                Checkout::State(Box::new(st), serve.pushback.take(), serve.divert_below)
            }
            Err(TryRecvError::Empty) => Checkout::Skip,
            Err(TryRecvError::Disconnected) => {
                panic!("migration coordinator always returns the shard state")
            }
        },
        SlotPhase::Live(_) => {
            let SlotPhase::Live(st) = std::mem::replace(&mut serve.phase, SlotPhase::Busy) else {
                unreachable!("matched Live above")
            };
            Checkout::State(st, serve.pushback.take(), serve.divert_below)
        }
    }
}

fn checkin(slot: &ShardSlot, st: Box<ShardState>, pushback: Option<Task>, divert_below: u64) {
    let mut serve = lock(&slot.serve);
    serve.phase = SlotPhase::Live(st);
    serve.pushback = pushback;
    serve.divert_below = divert_below;
}

/// What [`control`] hands back: the value itself when the request ran on
/// the calling thread, the ticket of the queued task otherwise.
enum Answer<T> {
    Ready(T),
    Queued(Ticket<T>),
}

impl<T: Clone> Answer<T> {
    fn wait(self) -> T {
        match self {
            Answer::Ready(value) => value,
            Answer::Queued(ticket) => ticket.wait(),
        }
    }
}

/// What became of an attempt to serve a shard on the calling thread.
enum Frame<T> {
    /// `serve` ran, holding the slot, and this is what it returned.
    Served(T),
    /// The shard is not at rest, or `serve` declined: queue the request.
    NotAtRest,
    /// The shard has finished.
    Done,
}

/// A *caller frame*: runs `serve` on shard `shard` right here, on the
/// calling thread, if the shard is at rest — slot Live, nothing carried
/// over from a slice, queue empty.  A shard at rest has served everything
/// queued before the call, so what runs in the frame runs behind all of it,
/// exactly where a task queued now would; the calling thread holds the slot
/// Busy for the length of `serve` and no worker is involved.  `serve` may
/// still decline (`None`).
///
/// The rule that keeps frames out of every wait cycle: a frame takes one
/// slot, by trying, and never blocks while it holds it — no rendezvous, no
/// ticket wait, no second slot.
/// The locks `serve` does take (reservation index, shared subscriptions,
/// timers, the vault) are the ones a worker takes holding the same slot, in
/// the same order, because it calls the same functions.
fn caller_frame<T>(
    topo: &Topology,
    shard: usize,
    serve: impl FnOnce(&ShardSlot, &mut ShardState) -> Option<T>,
) -> Frame<T> {
    let slot = topo.pool.slot(shard).expect("a routed shard has a slot on the bench");
    match checkout(&slot) {
        Checkout::State(mut st, pushback, divert_below) => {
            // What `serve` publishes through the gate relies on it.
            debug_assert!(matches!(lock(&slot.serve).phase, SlotPhase::Busy));
            let served =
                if pushback.is_none() && slot.rx.is_empty() { serve(&slot, &mut st) } else { None };
            checkin(&slot, st, pushback, divert_below);
            // A wake-up sent while this frame held the slot found it Busy,
            // and the worker it woke has parked again: repeat it.
            if !slot.rx.is_empty() {
                topo.pool.core.wake_shard(shard);
            }
            served.map_or(Frame::NotAtRest, Frame::Served)
        }
        Checkout::Skip => Frame::NotAtRest,
        Checkout::Done => Frame::Done,
    }
}

/// The control plane: runs `request` on shard `shard` at a task boundary,
/// behind every submission queued before the call — in a [`caller_frame`]
/// when the shard is at rest, queued like a submission otherwise.  A
/// finished shard answers with the default.
fn control<T, F>(topo: &Topology, shard: usize, request: F) -> Answer<T>
where
    T: Clone + Default + Send + 'static,
    F: FnOnce(&mut ShardState) -> T + Send + 'static,
{
    let mut request = Some(request);
    match caller_frame(topo, shard, |_, st| request.take().map(|request| request(st))) {
        Frame::Served(value) => return Answer::Ready(value),
        Frame::Done => return Answer::Ready(T::default()),
        Frame::NotAtRest => {}
    }
    let request = request.expect("a frame that served nothing took nothing");
    let (issuer, answer) = ticket();
    let task =
        Task::Control(Box::new(move |st| issuer.complete(st.map(request).unwrap_or_default())));
    match topo.queues[shard].send(task) {
        Ok(()) => topo.pool.core.wake_shard(shard),
        Err(SendError(task)) => fail_task(task),
    }
    Answer::Queued(answer)
}

/// Runs one control request on every shard and collects the answers by
/// shard id.  Requests that had to be queued wait side by side.
fn ask_shards<T>(topo: &Topology, request: fn(&mut ShardState) -> T) -> Vec<T>
where
    T: Clone + Default + Send + 'static,
{
    let answers: Vec<Answer<T>> =
        (0..topo.queues.len()).map(|shard| control(topo, shard, request)).collect();
    answers.into_iter().map(Answer::wait).collect()
}

/// Parks a finished shard's state for [`ManagerRuntime::shutdown`] and
/// retires the slot.  The last shard to finish wakes every worker so they
/// observe `live == 0` and exit.
fn finish_slot(pool: &PoolCtl, slot: &ShardSlot, st: Box<ShardState>) {
    {
        let mut serve = lock(&slot.serve);
        serve.phase = SlotPhase::Done;
        serve.pushback = None;
    }
    lock(&pool.finished).push(*st);
    if pool.core.live.fetch_sub(1, Ordering::AcqRel) == 1 {
        pool.core.wake_all();
    }
}

/// Appends one statistics-only event to the meta stream — the journal of
/// counter bumps that have no deterministic owner shard (inline denials,
/// cross-shard decision counters, notification fan-outs).  Skips zero
/// deltas; no-op when durability is off.
fn meta_event(shared: &RuntimeShared, delta: StatDelta) {
    if delta == StatDelta::ZERO {
        return;
    }
    if let Some(hub) = &shared.durability {
        hub.log_meta(&WalRecord::Event { delta });
    }
}

/// A queued control request ([`control`]): runs on the shard's state at a
/// task boundary and fulfils its own ticket — from the default when it is
/// handed `None`, because the shard closed before serving it.
type ControlFn = Box<dyn FnOnce(Option<&mut ShardState>) + Send>;

enum Task {
    Single(SingleTask),
    /// A session-side submission window: consecutive same-shard executes
    /// batched into one channel send (see [`Session::submit_batch`]).
    Batch(Vec<SingleTask>),
    /// An operation several shards own, on each owner's queue.
    Multi(Arc<MultiTask>),
    /// A quiescence barrier of a live migration: the worker hands its whole
    /// shard state to the coordinator and blocks until it is returned.
    Pause(PauseTask),
    /// A control request that found its shard not at rest.
    Control(ControlFn),
    Stop,
}

/// The rendezvous of one paused shard: the worker sends its [`ShardState`]
/// through `state_tx` and parks on `resume_rx` until the migration
/// coordinator hands the (possibly migrated) state back.
struct PauseTask {
    state_tx: Sender<ShardState>,
    resume_rx: Receiver<ShardState>,
}

struct SingleTask {
    /// The topology epoch the submission was routed under.
    epoch: u64,
    op: Op,
    ticket: TicketIssuer<Completion>,
    /// Submission instant (queue-metrics mode only).
    submitted: Option<Instant>,
}

/// An operation several shards own: enqueued onto every owner's queue (in
/// ascending order, under the enqueue lock); the owners rendezvous on `sync`
/// to vote, conclude and apply — the queue-based incarnation of the
/// two-phase commit.  An unsubscribe touches no shard, so `op` is never one.
///
/// Every operation but an execute deposits one unconditional vote per owner,
/// and the last owner to vote concludes ([`process_multi`]).  Executes — the
/// hot cross-shard operation — *coalesce*: a worker that dequeues one drains
/// the whole already-queued run of same-owner-set executes (plus the
/// single-owner executes interleaved between them) and walks it in one
/// speculative pass, maintaining a chain of tentative successor states
/// ([`process_batch`]).  Their votes come in strengths:
///
/// * an **unconditional no** decides the task as denied on the spot — the
///   conjunction is already false, no rendezvous happens at all, and a
///   mid-case shard insta-denies an entire run of barrier attempts in one
///   pass;
/// * an **unconditional yes** — deposited while the voter's chain has run
///   only through *known* outcomes — counts toward the commit; the vote
///   that completes the count decides `Commit` and assigns the log
///   sequence number;
/// * a **conditional yes** ([`Vote::Conditional`]) —
///   deposited when the chain has advanced through still-undecided
///   predecessors on the *assumption* that they commit.  The vote carries a
///   [`ValidityTag`] naming exactly those assumptions plus the epoch and
///   reservation fingerprint the probe ran under; it counts toward the
///   commit only once the tag *verifies* (every assumed task decided
///   commit, epoch unchanged, the voter's published reservation
///   fingerprint unchanged), at which point it is **promoted** to an
///   unconditional yes.  Promotion happens at every later vote deposit and
///   along the explicit [`cascade_from`] walk a fresh commit triggers — so
///   an all-commit chain cascades to decided with no additional rendezvous
///   round trips.  A denial anywhere in the assumed prefix makes the tag
///   permanently unverifiable (the denied task is named in it);
///   [`invalidate_downstream`] clears such votes eagerly, and the voter
///   re-deposits from the recomputed true state when its in-order
///   resolution pass reaches the task.
/// * a **conditional no** is never deposited: the voter stays silent and
///   votes at resolution.  Its task can never commit early (a commit needs
///   this owner's yes), so the chain's assumption that it denies is
///   self-fulfilling *given the voter's own prefix assumptions* — which
///   later conditional-yes tags carry anyway.
///
/// Each vote that decides a task was computed against that task's true
/// predecessor state (promotion verifies exactly this), so per-action
/// outcomes, the merged log and the statistics are identical to an
/// unbatched rendezvous; what changes is that owners park only on
/// commit-pending tasks whose outcome genuinely awaits another shard's
/// *first* vote, instead of once per barrier in a chain.  Whatever the
/// operation, owners wait for the verdict in [`await_verdict`] and the last
/// one to apply it finishes ([`apply_multi`]).
struct MultiTask {
    /// The topology epoch the submission was routed under.
    epoch: u64,
    /// Global rendezvous sequence ([`PoolCtl::seq`]) — the help-while-
    /// waiting ordering bound.
    seq: u64,
    owners: Vec<usize>,
    op: Op,
    /// Submission instant (queue-metrics mode only).
    submitted: Option<Instant>,
    /// Lock-free mirror of a commit verdict, written under the `sync` lock
    /// when the verdict is reached.  Tag verification reads it without
    /// taking the predecessor's lock — promotion only ever locks *forward*
    /// along the chain, so the cascade cannot deadlock with a voter walking
    /// the same chain.
    committed: AtomicBool,
    sync: Mutex<MultiSync>,
    barrier: Condvar,
}

/// One owner's vote on a [`MultiTask`].
enum Vote {
    /// Not deposited yet.
    Pending,
    /// Unconditional yes (deposited, or promoted from a verified
    /// conditional vote).
    Yes,
    /// Unconditional no.  It settles an execute as denied on the spot; the
    /// other operations conclude once every owner voted, and read the
    /// per-owner bits (a shared subscription starts from them).
    No,
    /// Yes, assuming the tag's prefix outcomes — counts only once promoted.
    Conditional(ValidityTag),
}

/// The compact witness a conditional vote carries: the exact assumptions
/// its speculative probe ran under.  The vote may be promoted to an
/// unconditional yes iff every field still verifies at decide time.
struct ValidityTag {
    /// Topology epoch the probe ran under; a repartition in between makes
    /// the tag unverifiable and the voter re-votes through the re-routed
    /// task (stale-route machinery).
    epoch: u64,
    /// The voting shard (key of its published reservation fingerprint).
    shard: usize,
    /// Fingerprint of the voter's reservation table at probe time
    /// ([`Engine::reservation_fingerprint`]); promotion requires the
    /// shard's currently published fingerprint to match, proving the
    /// reservation-aware part of the probe still holds.
    reservation_fp: u64,
    /// Every same-owner-set predecessor the chain advanced through on an
    /// assumed *commit* (full prefix, not a delta — one membership check
    /// suffices to invalidate).  Weak: tags must not keep dead tasks alive;
    /// an unupgradable entry makes the tag unverifiable, never a false
    /// promotion.  Assumed *denials* are not listed: each is the voter's
    /// own withheld no, whose base assumptions are a subset of this list.
    assumed: Option<Arc<AssumedLink>>,
}

/// One link of a validity tag's assumed-commit prefix.  The prefix is a
/// persistent cons list shared structurally between the tags of one
/// speculative pass: advancing the chain conses one link, and every tag
/// snapshot is an O(1) `Arc` clone of the current head — without the
/// sharing, a depth-`d` coalesced chain would clone O(d²) `Weak` handles
/// per owner, which dominated the cascade's cost on deep batches.
struct AssumedLink {
    /// The assumed-committed predecessor.
    task: std::sync::Weak<MultiTask>,
    /// The assumptions made before it, in reverse queue order.
    prev: Option<Arc<AssumedLink>>,
}

/// Iterates a tag's assumed-commit prefix (most recent assumption first).
fn assumed_iter(
    head: &Option<Arc<AssumedLink>>,
) -> impl Iterator<Item = &std::sync::Weak<MultiTask>> {
    let mut cursor = head.as_ref();
    std::iter::from_fn(move || {
        let link = cursor?;
        cursor = link.prev.as_ref();
        Some(&link.task)
    })
}

struct MultiSync {
    /// Stale-route verdict, recorded by the first owner that examines an
    /// epoch-stale task; the other owners follow it so the rendezvous can
    /// never be half-retried.  `Some(true)` means the owner set widened and
    /// the task was re-dispatched through the current topology.
    stale: Option<bool>,
    /// Per-owner votes, aligned with `owners`.
    votes: Vec<Vote>,
    /// Number of unconditional (deposited or promoted) yes votes; an
    /// execute commits at `owners.len()`.
    yes_votes: usize,
    /// Whether any vote was ever promoted from a conditional — a commit
    /// with this set counts as a cascaded commit in the diagnostics.
    promoted_any: bool,
    /// Next same-owner-set execute in queue order, linked idempotently by
    /// every owner that coalesces the two into one batch (queue order is
    /// identical on every shared queue, so the links agree).  Forward Arcs
    /// only — the backward references of the validity tags are Weak, so the
    /// chain is cycle-free.
    cascade_next: Option<Arc<MultiTask>>,
    /// The reservation a confirm, abort or expiry removed (identical copies
    /// on every owner that held it).
    removed: Option<Reservation>,
    /// The verdict, set exactly once (a commit mirrored in
    /// [`MultiTask::committed`]).
    verdict: Option<Verdict>,
    /// Owners that have applied the verdict so far.
    applied: usize,
    /// What those of them that had anything left for [`finish`], tagged with
    /// the owner position.
    effects: Vec<(usize, Effects)>,
    ticket: Option<TicketIssuer<Completion>>,
}

/// The owners' votes on one operation, added up: what [`conclude`] reads.
struct Tally<'a> {
    /// Conjunction of the votes.
    ok: bool,
    /// The reservation a confirm, abort or expiry removed.
    removed: Option<&'a Reservation>,
    /// The votes one by one, aligned with the owners — the per-owner status
    /// bits a shared subscription starts from (empty for a single owner).
    votes: &'a [Vote],
}

/// The session-oriented runtime.  Create it once, hand [`Session`]s to
/// clients, grow it live with [`ManagerRuntime::add_constraint`] /
/// [`ManagerRuntime::couple`], and drop or [`ManagerRuntime::shutdown`] it
/// when done.
pub struct ManagerRuntime {
    shared: Arc<RuntimeShared>,
    topology: Arc<TopologySlot>,
    /// The live (epoch-versioned) partition; the mutex also serializes
    /// repartitions — at most one migration is in flight at a time.
    partition: Mutex<Partition>,
}

impl std::fmt::Debug for ManagerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topo = read_topology(&self.topology);
        f.debug_struct("ManagerRuntime")
            .field("shards", &topo.queues.len())
            .field("epoch", &topo.epoch())
            .field("variant", &self.shared.variant)
            .finish()
    }
}

/// What one [`ManagerRuntime::add_constraint`] / [`ManagerRuntime::couple`]
/// call did: the shards it created, the shards it had to quiesce, and the
/// migration volume.  A disjoint addition reports `migrated_shards` empty
/// and zero replay — the O(1) pure-append path.
#[derive(Clone, Debug)]
pub struct RepartitionReport {
    /// The topology epoch installed by this update.
    pub epoch: u64,
    /// Ids of the shards created for the new constraint's components.
    pub added_shards: Vec<usize>,
    /// Ids of the existing shards that were paused and migrated (empty for
    /// a disjoint addition; unaffected shards kept serving either way).
    pub migrated_shards: Vec<usize>,
    /// Number of abstract actions whose owner set widened.
    pub widened_actions: usize,
    /// Log entries replayed into the new components (covered history).
    pub replayed_actions: usize,
    /// Reservations replicated onto new owners.
    pub migrated_reservations: usize,
    /// Shard-local subscriptions promoted to cross-shard entries.
    pub migrated_subscriptions: usize,
}

/// What [`ManagerRuntime::shutdown`] hands back after the workers drained
/// their queues: the merged log, the final statistics, and the clock.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Confirmed actions in commit order (merged across the shard segments).
    pub log: Vec<Action>,
    /// Final statistics.
    pub stats: ManagerStats,
    /// Final logical time.
    pub clock: u64,
    /// Number of shards the runtime ran.
    pub shards: usize,
}

/// What [`ManagerRuntime::checkpoint`] reports about one completed cut.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Number of shard queues the cut was offered to.
    pub shards: usize,
    /// Number of shards that produced a capture (all of them, absent a
    /// racing shutdown).
    pub captured: usize,
    /// Total size of the written snapshot blobs in bytes.  A snapshot holds
    /// the state that decides the next action, not the confirmed actions, so
    /// this does not grow with the length of the run.
    pub bytes: u64,
    /// Confirmed actions this cut moved to the shards' history streams: the
    /// ones committed since the previous cut.
    pub archived_entries: u64,
    /// Bytes of the history records holding them.
    pub history_bytes: u64,
}

/// One cross-shard commit seen while replaying the log tails: which owners'
/// streams already carry its echo record.
struct TailCommit {
    key: LogKey,
    action: Action,
    present: HashSet<usize>,
}

/// The recovery driver behind [`ManagerRuntime::recover`].
fn recover_runtime(
    vault: Arc<dyn Vault>,
    options: RuntimeOptions,
) -> ManagerResult<ManagerRuntime> {
    let hub = DurabilityHub::new(vault);
    let topo = durability::load_topology(hub.vault().as_ref())?;
    let expr = parse(&topo.expr)
        .map_err(|e| durability_err(format!("stored expression does not parse: {e}")))?;
    let mut components = Vec::with_capacity(topo.components.len());
    for (source, alphabet) in topo.components {
        let component = parse(&source)
            .map_err(|e| durability_err(format!("stored component does not parse: {e}")))?;
        components.push(Component { expr: component, alphabet });
    }
    let partition = Partition::from_components(components, topo.epoch);
    let alphabets: Vec<Alphabet> =
        partition.components().iter().map(|c| c.alphabet.clone()).collect();
    let router = ShardRouter::with_epoch(alphabets, partition.epoch());
    let manifest = match hub.vault().load_blob(durability::MANIFEST_BLOB) {
        Some(blob) => durability::decode_manifest(&blob)?,
        None => Manifest {
            clock: 0,
            meta_covered: 0,
            meta_base: StatDelta::ZERO,
            log_seq: 0,
            next_reservation: 1,
            cross: Vec::new(),
            orphans: Vec::new(),
        },
    };

    // Per-shard restore: latest snapshot (or fresh state), then the tail.
    let mut seeds = Vec::with_capacity(partition.len());
    let mut next_seq = manifest.log_seq;
    let mut next_reservation = manifest.next_reservation;
    let mut tail_commits: BTreeMap<u64, TailCommit> = BTreeMap::new();
    let mut tail_reserved: HashSet<u64> = HashSet::new();
    let mut tail_released: HashSet<u64> = HashSet::new();
    for (id, component) in partition.components().iter().enumerate() {
        let mut engine = Engine::new(&component.expr).map_err(ManagerError::State)?;
        let snapshot = match hub.vault().load_blob(&durability::snap_blob(id)) {
            Some(blob) => Some(durability::decode_shard_checkpoint(&blob)?),
            None => None,
        };
        if let Some(cp) = &snapshot {
            engine = Engine::restore(&component.expr, cp.state.clone(), cp.accepted, cp.rejected)
                .map_err(ManagerError::State)?;
        }
        let mut seed = ShardState::new(id, engine, component.alphabet.clone(), Some(hub.clone()));
        let mut covered = 0;
        if let Some(cp) = snapshot {
            // DFA tiles re-attach from the snapshot with the cells they
            // had filled — each checked against the subtree it tabulates,
            // counted as zero compiles.
            seed.engine.adopt_tier(cp.tier);
            seed.reservations = cp.reservations.into_iter().map(|r| (r.id, r)).collect();
            seed.subscriptions = SubscriptionRegistry::import(cp.subscriptions);
            seed.log = cp.log;
            seed.stat_base = cp.stat_base;
            covered = cp.covered;
        }
        if let Some(seq) = seed.log.max_seq() {
            next_seq = next_seq.max(seq + 1);
        }
        for rid in seed.reservations.keys() {
            next_reservation = next_reservation.max(rid + 1);
        }
        for (index, payload) in hub.vault().read_from(DurabilityHub::shard_stream(id), covered) {
            let record = WalRecord::decode(&payload)
                .map_err(|e| durability::codec_err("shard log record", e))?;
            // What the owners share is tracked here; the shard's own part
            // of the record is the kernel's.
            match &record {
                WalRecord::Commit { key, action, .. } => {
                    if key.1 == 0 {
                        // A cross-shard commit: a candidate for roll-forward
                        // on owners whose echo record the crash swallowed.
                        let entry = tail_commits.entry(key.0).or_insert_with(|| TailCommit {
                            key: *key,
                            action: action.clone(),
                            present: HashSet::new(),
                        });
                        entry.present.insert(id);
                    }
                    next_seq = next_seq.max(key.0 + 1).max(key.2 + 1);
                }
                WalRecord::Reserve { reservation, .. } => {
                    next_reservation = next_reservation.max(reservation.id + 1);
                    tail_reserved.insert(reservation.id);
                }
                WalRecord::Release { id: rid, .. } => {
                    tail_released.insert(*rid);
                }
                _ => {}
            }
            seed.replay(record)
                .map_err(|e| durability_err(format!("log record {index} of shard {id}: {e}")))?;
        }
        seeds.push(seed);
    }

    // Roll torn cross-shard commits forward, in sequence order.  A decision
    // journaled on at least one owner's stream is durable; an owner whose
    // echo record is missing has applied *nothing* after that commit (the
    // rendezvous parks owners until the decision), so applying it at the
    // shard's tail is exactly the order the crash interrupted.
    for commit in tail_commits.values() {
        let owners = router.owners(&commit.action);
        for (pos, &owner) in owners.iter().enumerate() {
            if commit.present.contains(&owner) {
                continue;
            }
            let seed = &mut seeds[owner];
            // An echo missing from the *tail* may still be covered by the
            // owner's snapshot — checkpoints cut per shard, and a fault can
            // persist one owner's snapshot while losing another's.  The
            // shard epoch is the sequence of its last applied cross-shard
            // commit (owners park at the rendezvous, so per-owner application
            // order equals sequence order): at or past this commit means it
            // is already in the snapshot state, and re-applying would
            // duplicate it.  Sequence 0 is excluded: commit sequences start
            // at 0, so for the very first commit an epoch of 0 is ambiguous
            // between "covered" and "never applied", and we must err on the
            // side of replaying.
            if commit.key.0 > 0 && seed.log.epoch() >= commit.key.0 {
                continue;
            }
            // The missing echo, with a zero delta: the statistics of a torn
            // record whose primary echo is lost are lost with it.
            seed.repair(WalRecord::Commit {
                key: commit.key,
                action: commit.action.clone(),
                is_primary: pos == 0,
                delta: StatDelta::ZERO,
            })?;
        }
    }

    // Resolve torn reservations.  A grant visible in a tail with no visible
    // release completes everywhere; anything else partial (a torn removal,
    // or a partial holder set with no tail record at all) is dropped
    // everywhere — observably equivalent to an immediate lease expiry,
    // which the protocol already tolerates.
    let mut holder_map: BTreeMap<u64, (Reservation, Vec<usize>)> = BTreeMap::new();
    for (id, seed) in seeds.iter().enumerate() {
        for r in seed.reservations.values() {
            holder_map.entry(r.id).or_insert_with(|| (r.clone(), Vec::new())).1.push(id);
        }
    }
    for (rid, (reservation, holding)) in &holder_map {
        let owners = router.owners(&reservation.action);
        if owners.iter().all(|o| holding.contains(o)) {
            continue;
        }
        if tail_reserved.contains(rid) && !tail_released.contains(rid) {
            for &owner in owners.iter().filter(|o| !holding.contains(o)) {
                seeds[owner].repair(WalRecord::Reserve {
                    reservation: reservation.clone(),
                    delta: StatDelta::ZERO,
                })?;
            }
        } else {
            for &owner in holding {
                seeds[owner].repair(WalRecord::Release { id: *rid, delta: StatDelta::ZERO })?;
            }
        }
    }

    // Meta-stream tail: order-independent statistics events, the clock
    // high-water mark, and cross-shard/orphan subscription echoes routed
    // through the recovered router.
    let mut clock = manifest.clock;
    let mut stat_total = manifest.meta_base;
    let mut cross_subscriptions = CrossSubscriptions::import(manifest.cross);
    let mut orphan_subscriptions = SubscriptionRegistry::import(manifest.orphans);
    for (index, payload) in hub.vault().read_from(META_STREAM, manifest.meta_covered) {
        let record =
            WalRecord::decode(&payload).map_err(|e| durability::codec_err("meta record", e))?;
        match record {
            WalRecord::Event { delta } => stat_total.add(&delta),
            WalRecord::Clock { now } => clock = clock.max(now),
            WalRecord::Subscribe { client, action, permitted } => match router.classify(&action) {
                Route::Multi(owners) => {
                    cross_subscriptions.subscribe(client, &action, &owners, || {
                        owners.iter().map(|&o| seeds[o].engine.is_permitted(&action)).collect()
                    });
                }
                Route::Single(owner) => {
                    seeds[owner].replay(WalRecord::Subscribe { client, action, permitted })?;
                }
                Route::None => {
                    orphan_subscriptions.subscribe(client, action.clone(), action, false);
                }
            },
            WalRecord::Unsubscribe { client, action } => match router.classify(&action) {
                Route::Multi(_) => cross_subscriptions.unsubscribe(client, &action),
                Route::Single(owner) => {
                    seeds[owner].replay(WalRecord::Unsubscribe { client, action })?;
                }
                Route::None => orphan_subscriptions.unsubscribe(client, &action),
            },
            _ => {
                return Err(durability_err(format!(
                    "shard-stream record in meta stream at {index}"
                )))
            }
        }
    }
    for seed in &seeds {
        stat_total.add(&seed.stat_base);
    }

    // Silent subscription refresh: commits replayed after a registration or
    // a cut may have flipped a cached status.  The uncrashed runtime kept
    // every cache current through notifications, so recomputing against the
    // recovered engines restores exactly the caches the crash interrupted.
    for seed in seeds.iter_mut() {
        seed.settle_subscriptions();
    }
    cross_subscriptions.settle(|owner, action| seeds[owner].engine.is_permitted(action));

    // Reservation index + lease timers: every surviving lease re-arms; an
    // already-overdue one fires on the first clock advance.
    let mut reservation_index = HashMap::new();
    let mut timers = Timers::new(clock);
    for (rid, (reservation, _)) in &holder_map {
        let owners = router.owners(&reservation.action);
        if owners.is_empty() || !seeds[owners[0]].reservations.contains_key(rid) {
            continue;
        }
        if reservation.expires_at != u64::MAX {
            let at = reservation.expires_at.max(clock + 1);
            timers.schedule(at, ExpiryEvent { id: *rid, owners: owners.clone() });
        }
        reservation_index.insert(*rid, owners);
    }

    let globals = RecoveredGlobals {
        clock,
        log_seq: next_seq,
        next_reservation,
        stats: stat_total.as_stats(),
        reservation_index,
        timers,
        cross_subscriptions,
        orphan_subscriptions,
    };
    hub.vault().sync();
    spawn_runtime(&expr, partition, options, Some(hub), seeds, globals)
}

/// Runtime-global state a recovery seeds the shared block with; the default
/// is the fresh-construction state.
struct RecoveredGlobals {
    clock: u64,
    log_seq: u64,
    next_reservation: u64,
    stats: ManagerStats,
    reservation_index: HashMap<u64, Vec<usize>>,
    timers: Timers<ExpiryEvent>,
    cross_subscriptions: CrossSubscriptions,
    orphan_subscriptions: SubscriptionRegistry,
}

impl Default for RecoveredGlobals {
    fn default() -> RecoveredGlobals {
        RecoveredGlobals {
            clock: 0,
            log_seq: 0,
            next_reservation: 1,
            stats: ManagerStats::default(),
            reservation_index: HashMap::new(),
            timers: Timers::new(0),
            cross_subscriptions: CrossSubscriptions::default(),
            orphan_subscriptions: SubscriptionRegistry::new(),
        }
    }
}

/// Fresh shard states for a partition: one new engine per component, empty
/// shard-local state.
fn fresh_seeds(
    partition: &Partition,
    hub: Option<&DurabilityHub>,
) -> ManagerResult<Vec<ShardState>> {
    let mut seeds = Vec::with_capacity(partition.len());
    for (id, component) in partition.components().iter().enumerate() {
        let engine = Engine::new(&component.expr).map_err(ManagerError::State)?;
        seeds.push(ShardState::new(id, engine, component.alphabet.clone(), hub.cloned()));
    }
    Ok(seeds)
}

/// Persists the partition's component table plus the joined expression —
/// the routing ground truth every recovery starts from.
fn write_topology_blob(hub: &DurabilityHub, expr: &Expr, partition: &Partition) {
    let components =
        partition.components().iter().map(|c| (c.expr.to_string(), c.alphabet.clone())).collect();
    let topo = TopologyCheckpoint { epoch: partition.epoch(), expr: expr.to_string(), components };
    hub.vault().save_blob(durability::TOPOLOGY_BLOB, &durability::encode_topology(&topo));
}

/// The one runtime constructor: wires the topology, the shared block, and
/// the worker threads from the shard states — fresh construction, durable
/// construction, and crash recovery all funnel through here.
fn spawn_runtime(
    expr: &Expr,
    partition: Partition,
    options: RuntimeOptions,
    hub: Option<DurabilityHub>,
    seeds: Vec<ShardState>,
    globals: RecoveredGlobals,
) -> ManagerResult<ManagerRuntime> {
    let alphabets: Vec<Alphabet> =
        partition.components().iter().map(|c| c.alphabet.clone()).collect();
    let epoch = partition.epoch();
    let mut senders = Vec::with_capacity(seeds.len());
    let mut receivers = Vec::with_capacity(seeds.len());
    for _ in 0..seeds.len() {
        let (tx, rx): (Sender<Task>, Receiver<Task>) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let gates: Vec<Arc<ShardGate>> =
        (0..senders.len()).map(|_| Arc::new(ShardGate::new(options.queue_limit))).collect();

    // ---- The worker pool: size and the slot bench. ----
    let workers_n = match options.worker_threads {
        0 => host_parallelism(),
        n => n,
    };
    let shards_n = seeds.len();
    let cells: Vec<Arc<ShardSlot>> = seeds
        .into_iter()
        .zip(receivers)
        .zip(gates.iter())
        .map(|((state, rx), gate)| {
            gate.publish_log(&state.log);
            Arc::new(ShardSlot {
                rx,
                gate: Arc::clone(gate),
                serve: Mutex::new(SlotServe {
                    phase: SlotPhase::Live(Box::new(state)),
                    pushback: None,
                    divert_below: 0,
                }),
            })
        })
        .collect();
    let pool = Arc::new(PoolCtl {
        core: PoolCore::new(workers_n, shards_n),
        slots: RwLock::new(cells),
        finished: Mutex::new(Vec::new()),
        seq: AtomicU64::new(0),
    });

    let topology = Arc::new(RwLock::new(Arc::new(Topology {
        router: ShardRouter::with_epoch(alphabets, epoch),
        queues: senders,
        gates: gates.clone(),
        bounded: options.queue_limit > 0,
        pool: Arc::clone(&pool),
        expr: expr.clone(),
    })));
    let stats = SharedStats::default();
    stats.restore(globals.stats);
    let cross_entries = globals.cross_subscriptions.action_count() as u64;
    let shared = Arc::new(RuntimeShared {
        variant: options.variant,
        topology: Arc::downgrade(&topology),
        epoch: AtomicU64::new(epoch),
        cross_enqueue: Mutex::new(()),
        persisting: Mutex::new(()),
        reservation_index: Mutex::new(globals.reservation_index),
        cross_subscriptions: Mutex::new(globals.cross_subscriptions),
        orphan_subscriptions: Mutex::new(globals.orphan_subscriptions),
        notification_channels: Mutex::new(HashMap::new()),
        cross_entry_count: AtomicU64::new(cross_entries),
        timers: Mutex::new(globals.timers),
        durability: hub,
        clock: AtomicU64::new(globals.clock),
        log_seq: AtomicU64::new(globals.log_seq),
        next_reservation: AtomicU64::new(globals.next_reservation),
        stats,
        repart: RepartCounters::default(),
        reservation_fps: Mutex::new(HashMap::new()),
        cascade_counters: CascadeCounters::default(),
        queue_metrics: options.queue_metrics,
        queue_samples: Mutex::new(Vec::new()),
        queue_limit: options.queue_limit,
        pool: Arc::clone(&pool),
    });
    // Conditional-vote verification reads the published fingerprints, so
    // recovered reservation tables must be visible before any worker serves
    // its first task.
    for cell in pool.slot_snapshot() {
        if let SlotPhase::Live(state) = &lock(&cell.serve).phase {
            publish_reservation_fp(&shared, state);
        }
    }
    // No worker thread starts here: each starts with the first task queued
    // for it.  The pool outlives the runtime handle inside `shared`, hence
    // the weak handle — a wake-up after everything else is gone starts
    // nothing.
    let weak = Arc::downgrade(&shared);
    pool.core.set_spawner(Box::new(move |me| {
        let shared = weak.upgrade()?;
        Some(std::thread::spawn(move || pool_worker(shared, me)))
    }));
    Ok(ManagerRuntime { shared, topology, partition: Mutex::new(partition) })
}

impl ManagerRuntime {
    /// Creates a runtime enforcing the expression with the simple protocol,
    /// a virtual clock, and no durability.
    pub fn new(expr: &Expr) -> ManagerResult<ManagerRuntime> {
        ManagerRuntime::with_options(expr, RuntimeOptions::default())
    }

    /// Creates a runtime with an explicit protocol variant.
    pub fn with_protocol(expr: &Expr, variant: ProtocolVariant) -> ManagerResult<ManagerRuntime> {
        ManagerRuntime::with_options(expr, RuntimeOptions { variant, ..RuntimeOptions::default() })
    }

    /// Creates a runtime with explicit options.  The expression is
    /// partitioned into its fine-grained sync-components; each component
    /// becomes a shard with one ordered task queue, served by the pool of
    /// [`RuntimeOptions::worker_threads`] workers.
    pub fn with_options(expr: &Expr, options: RuntimeOptions) -> ManagerResult<ManagerRuntime> {
        let partition = Partition::of(expr);
        let seeds = fresh_seeds(&partition, None)?;
        spawn_runtime(expr, partition, options, None, seeds, RecoveredGlobals::default())
    }

    /// Creates a *durable* runtime journaling into the given vault: every
    /// commit, reservation grant, and release is written ahead to its owner
    /// shard's log stream, and statistics events go to the meta stream.
    /// [`ManagerRuntime::checkpoint`] cuts
    /// sharded snapshots without stopping the world, and
    /// [`ManagerRuntime::recover`] rebuilds an equivalent runtime from the
    /// latest snapshots plus the log tails.
    pub fn with_durability(
        expr: &Expr,
        options: RuntimeOptions,
        vault: Arc<dyn Vault>,
    ) -> ManagerResult<ManagerRuntime> {
        let hub = DurabilityHub::new(vault);
        let partition = Partition::of(expr);
        // Persist the topology before anything journals against it: the log
        // streams are meaningless without the component table that routed
        // them.  A fresh file vault writes it with its first record and
        // makes it durable at its first barrier, ahead of every record
        // journaled against it (`Vault::save_blob`).
        write_topology_blob(&hub, expr, &partition);
        let seeds = fresh_seeds(&partition, Some(&hub))?;
        spawn_runtime(expr, partition, options, Some(hub), seeds, RecoveredGlobals::default())
    }

    /// [`ManagerRuntime::with_durability`] over a [`FileVault`] rooted at
    /// `path`, flushing per [`RuntimeOptions::fsync`].
    pub fn with_durability_path(
        expr: &Expr,
        options: RuntimeOptions,
        path: impl AsRef<std::path::Path>,
    ) -> ManagerResult<ManagerRuntime> {
        let vault = FileVault::open(path, options.fsync)
            .map_err(|e| durability_err(format!("opening vault: {e}")))?;
        ManagerRuntime::with_durability(expr, options, Arc::new(vault))
    }

    /// Opens a session for a client: its submissions return completion
    /// tickets, and subscription notifications arrive on the session's own
    /// channel.
    pub fn session(&self, client: ClientId) -> Session {
        let (tx, rx) = unbounded();
        lock(&self.shared.notification_channels).insert(client, tx);
        Session {
            client,
            shared: Arc::clone(&self.shared),
            topology: Arc::clone(&self.topology),
            notifications: rx,
        }
    }

    /// The protocol variant in use.
    pub fn protocol(&self) -> ProtocolVariant {
        self.shared.variant
    }

    /// The expression the runtime currently enforces, including every
    /// constraint added live.
    pub fn expr(&self) -> Expr {
        read_topology(&self.topology).expr.clone()
    }

    /// The current partition epoch (0 at construction, +1 per live
    /// extension).
    pub fn epoch(&self) -> u64 {
        read_topology(&self.topology).epoch()
    }

    /// Number of shard workers (1 when the expression does not decompose).
    pub fn shard_count(&self) -> usize {
        read_topology(&self.topology).queues.len()
    }

    /// The primary (lowest-id) shard an action is routed to, if any.
    pub fn shard_of(&self, action: &Action) -> Option<usize> {
        read_topology(&self.topology).router.route(action)
    }

    /// All shards owning an action, ascending (the enqueue order of a
    /// cross-shard task).
    pub fn owners_of(&self, action: &Action) -> Vec<usize> {
        read_topology(&self.topology).router.owners(action)
    }

    /// True if the action is owned by more than one shard.
    pub fn is_cross_shard(&self, action: &Action) -> bool {
        read_topology(&self.topology).router.is_shared(action)
    }

    /// True if the runtime's interaction expression mentions the action —
    /// some shard owns it, since the shard alphabets together are the
    /// expression's.
    pub fn controls(&self, action: &Action) -> bool {
        read_topology(&self.topology).router.route(action).is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> ManagerStats {
        self.shared.stats.snapshot()
    }

    /// Counters of the conditional-vote cascade.  Kept outside
    /// [`ManagerStats`] deliberately: the runtime's manager statistics must
    /// equal the blocking manager's (the lockstep equivalence the property
    /// tests check); these counters describe how the decisions were
    /// reached, not what was decided.
    pub fn cascade_stats(&self) -> CascadeStats {
        let c = &self.shared.cascade_counters;
        CascadeStats {
            conditional_votes: c.conditional_votes.load(Ordering::Relaxed),
            promoted_votes: c.promoted_votes.load(Ordering::Relaxed),
            invalidated_votes: c.invalidated_votes.load(Ordering::Relaxed),
            cascaded_commits: c.cascaded_commits.load(Ordering::Relaxed),
        }
    }

    /// Drains the queueing-delay samples collected so far (queue-metrics
    /// mode): one `(enqueue_wait, service)` nanosecond pair per completed
    /// task, in no particular order.  Empty unless
    /// [`RuntimeOptions::queue_metrics`] was set.
    pub fn drain_queue_samples(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *lock(&self.shared.queue_samples))
    }

    /// Per-shard load snapshot: queue depths, high-water marks, shed
    /// counters, and the wait/service EWMAs behind the retry-after hints.
    /// Cheap (a handful of relaxed loads per shard) and meaningful on
    /// bounded runtimes; on unbounded ones depths read 0 — the gates are
    /// inert.  [`LoadReport::hottest`] names the deepest queue, for an
    /// operator.
    pub fn load_report(&self) -> LoadReport {
        let topo = read_topology(&self.topology);
        LoadReport {
            queue_limit: self.shared.queue_limit,
            shards: topo.gates.iter().enumerate().map(|(i, g)| g.load(i)).collect(),
        }
    }

    /// Scheduling counters of the worker pool: pool size and started
    /// threads.  Worker `w` serves the shards `s` with `s % workers == w`.
    pub fn sched_stats(&self) -> SchedStats {
        let core = &self.shared.pool.core;
        SchedStats { workers: core.workers(), started: core.started() }
    }

    /// Counters of the repartitioning machinery.  Test suites use
    /// `migrated_shard_states` to assert that disjoint additions migrate
    /// nothing.
    pub fn repartition_stats(&self) -> RepartitionStats {
        let repart = &self.shared.repart;
        RepartitionStats {
            repartitions: repart.repartitions.load(Ordering::Relaxed),
            migrated_shard_states: repart.migrated_shard_states.load(Ordering::Relaxed),
            replayed_actions: repart.replayed_actions.load(Ordering::Relaxed),
            migrated_reservations: repart.migrated_reservations.load(Ordering::Relaxed),
            migrated_subscriptions: repart.migrated_subscriptions.load(Ordering::Relaxed),
            rerouted_tasks: repart.rerouted_tasks.load(Ordering::Relaxed),
        }
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.shared.clock.load(Ordering::Relaxed)
    }

    /// The merged log of confirmed actions in commit order.  Each shard
    /// reports its segment from a task boundary behind everything queued
    /// before this call (see `control`), so the snapshot reflects every
    /// commit that completed before it.  Whoever serves the request — the
    /// caller when the shard is at rest, its worker otherwise — pays for
    /// sharing the sealed chunks and copying the open one; decoding and
    /// merging happen on the caller, which under a vault also reads what the
    /// checkpoints archived back from the shards' history streams.
    ///
    /// If a history stream lost entries a snapshot counts (a device that
    /// lied about a sync), the log ends before the first lost one; the state
    /// that decides is not affected.
    ///
    /// # Panics
    /// If a history record passes its checksum and does not decode.
    pub fn log(&self) -> Vec<Action> {
        let segments = self.ask_shards(|st| st.log.clone());
        let vault = self.shared.vault();
        durability::merged_log(vault, segments.iter().enumerate())
            .unwrap_or_else(|e| panic!("reading the archived commit log: {e}"))
    }

    /// True if the interaction state is final on every shard.
    pub fn is_final(&self) -> bool {
        self.ask_shards(|st| st.engine.is_final()).into_iter().all(|is_final| is_final)
    }

    /// Number of active subscriptions across shard registries, cross-shard
    /// entries, and orphan registrations.
    pub fn subscription_count(&self) -> usize {
        let owned: usize = self.ask_shards(|st| st.subscriptions.len()).into_iter().sum();
        owned
            + lock(&self.shared.cross_subscriptions).len()
            + lock(&self.shared.orphan_subscriptions).len()
    }

    /// One control request to every shard of the current topology.
    fn ask_shards<T>(&self, request: fn(&mut ShardState) -> T) -> Vec<T>
    where
        T: Clone + Default + Send + 'static,
    {
        ask_shards(&read_topology(&self.topology), request)
    }

    /// Makes sure every shard engine's execution tier is installed — one
    /// table per table-resident subtree, holding σ; cells fill as traffic
    /// visits them — and returns the per-shard tier stats.  A shard at rest
    /// answers on the calling thread; a busy one at its next task boundary,
    /// behind the submissions already queued (see `control`).  An engine
    /// installs its tier on its first transition anyway; this only says up
    /// front which shards are table-resident.
    pub fn compile_tiers(&self) -> Vec<TierStats> {
        self.ask_shards(|st| st.engine.compile_tier())
    }

    /// Aggregated execution-tier stats across the shard engines.
    pub fn tier_stats(&self) -> TierStats {
        let mut total = TierStats::default();
        for t in self.ask_shards(|st| st.engine.tier_stats()) {
            total.tables += t.tables;
            total.states += t.states;
            total.hits += t.hits;
            total.fallbacks += t.fallbacks;
            total.fills += t.fills;
            total.compiles += t.compiles;
            total.bailouts += t.bailouts;
            total.invalidations += t.invalidations;
            total.epoch = total.epoch.max(t.epoch);
        }
        total
    }

    /// Advances logical time by `delta`, firing the due lease timers and
    /// returning the reservations that expired (in deadline order).  Expiry
    /// runs as ordinary tasks on the owning shards' queues, so it is
    /// serialized with the submissions it races — a confirm enqueued before
    /// the expiry wins on every owner, one enqueued after loses on every
    /// owner.
    pub fn advance_time(&self, delta: u64) -> Vec<Reservation> {
        advance_clock(&self.shared, &self.topology, delta)
    }

    /// Grows the running ensemble with an additional constraint — without
    /// stopping the world.
    ///
    /// The constraint's flattened operands become new shards (semantically
    /// the runtime now enforces `old ⊗ constraint`).  If the constraint's
    /// alphabet is disjoint from every existing shard's, the update is a
    /// **pure shard-append**: new slots join the bench, the topology epoch bumps,
    /// and no existing shard is paused, probed, or migrated — O(new
    /// constraint), independent of the running system's size.  If the
    /// constraint *couples* (shares actions with existing shards), exactly
    /// the affected shards are quiesced: each drains its queue to a pause
    /// barrier and hands its state to this coordinator, which replays the
    /// covered history into the new components, widens the shared actions'
    /// reservation owner sets, promotes their shard-local subscriptions to
    /// cross-shard entries, installs the next topology epoch, and resumes
    /// the paused workers.  Unaffected shards keep serving throughout, and
    /// submissions racing the update are retried through the new topology
    /// rather than misdelivered.
    ///
    /// Fails with [`ManagerError::IncompatibleExtension`] — leaving the
    /// runtime exactly as it was — if the new constraint rejects the
    /// projection of the committed log onto its alphabet, because accepting
    /// it would break replayability of the log on the grown expression.
    pub fn add_constraint(&self, constraint: &Expr) -> ManagerResult<RepartitionReport> {
        self.repartition(constraint, false)
    }

    /// [`ManagerRuntime::add_constraint`] for constraints that deliberately
    /// share actions with the running ensemble (a new audit barrier, an
    /// inter-workflow ordering rule).  Fails with
    /// [`ManagerError::DisjointCoupling`] when the constraint shares
    /// nothing — a disjoint addition should go through `add_constraint`.
    pub fn couple(&self, coupling: &Expr) -> ManagerResult<RepartitionReport> {
        self.repartition(coupling, true)
    }

    fn repartition(
        &self,
        constraint: &Expr,
        require_overlap: bool,
    ) -> ManagerResult<RepartitionReport> {
        let shared = &self.shared;
        // Serializes migrations and guards the live partition.
        let mut partition = lock(&self.partition);
        let _persisting = lock(&shared.persisting);
        let old_len = partition.len();
        let (new_partition, delta) = partition.extend(std::slice::from_ref(constraint));
        if require_overlap && delta.widened.is_empty() {
            // The overlap test runs on the delta *under the partition
            // lock*, so a `couple` serialized behind a concurrent
            // `add_constraint` judges the ensemble it will actually
            // extend — no topology-snapshot TOCTOU.
            return Err(ManagerError::DisjointCoupling);
        }
        let affected = delta.affected_existing(old_len);

        // Build the new components' engines first: a malformed constraint
        // must fail before anything is paused.
        let mut new_engines: Vec<(usize, Engine, Alphabet)> = Vec::with_capacity(delta.added.len());
        for &idx in &delta.added {
            let component = &new_partition.components()[idx];
            let engine = Engine::new(&component.expr).map_err(ManagerError::State)?;
            new_engines.push((idx, engine, component.alphabet.clone()));
        }
        let new_alphabets: Vec<Alphabet> = new_engines.iter().map(|(_, _, a)| a.clone()).collect();

        let topo = read_topology(&self.topology);
        let new_router = topo.router.extended(&new_alphabets);
        let mut replayed = 0usize;
        let mut migrated_reservations = 0usize;
        let mut migrated_subscriptions = 0usize;
        let mut new_reservations: Vec<BTreeMap<u64, Reservation>> =
            (0..new_engines.len()).map(|_| BTreeMap::new()).collect();
        let mut new_epochs: Vec<u64> = vec![0; new_engines.len()];
        let mut flips: Vec<Notification> = Vec::new();
        let mut paused: Vec<(usize, ShardState, Sender<ShardState>)> = Vec::new();

        if !affected.is_empty() {
            // ---- Quiesce exactly the affected shards.  The pause barriers
            // are sent under the enqueue lock, so any multi-owner task is
            // ordered entirely before or entirely after the quiescence
            // point on every queue it shares with a barrier — the owners of
            // a widened action can therefore never straddle the migration.
            let mut waits = Vec::new();
            let mut barrier_failed = false;
            {
                let _guard = lock(&shared.cross_enqueue);
                for &s in &affected {
                    let (state_tx, state_rx) = unbounded();
                    let (resume_tx, resume_rx) = unbounded();
                    if topo.queues[s].send(Task::Pause(PauseTask { state_tx, resume_rx })).is_err()
                    {
                        // Shard gone (runtime tearing down concurrently).
                        // The migration must not proceed with a partially
                        // quiesced set; abort after resuming whoever did
                        // pause.
                        barrier_failed = true;
                        break;
                    }
                    topo.pool.core.wake_shard(s);
                    waits.push((s, state_rx, resume_tx));
                }
            }
            for (s, state_rx, resume_tx) in waits {
                match state_rx.recv() {
                    Ok(state) => paused.push((s, state, resume_tx)),
                    Err(_) => barrier_failed = true,
                }
            }
            if barrier_failed {
                resume_paused(&shared.pool, paused);
                return Err(ManagerError::Disconnected);
            }

            // ---- Replay the covered history into the new components.  The
            // merged affected segments sorted by log key are a legal
            // linearization of everything the new components can cover (a
            // shared action's primary owner is itself affected, so its
            // entries are all here).  That means *every* entry: what the
            // checkpoints archived comes back from the vault, and a history
            // stream with a gap fails the migration.
            let mut rejected = None;
            let vault = shared.vault();
            let logs = paused.iter().map(|(s, st, _)| (*s, &st.log));
            let read = durability::visit_log(vault, logs, Gaps::Refuse, |key, action| {
                for (i, (_, engine, alphabet)) in new_engines.iter_mut().enumerate() {
                    if !alphabet.covers(&action) {
                        continue;
                    }
                    if !engine.try_execute(&action) {
                        rejected = Some(action.to_string());
                        return ControlFlow::Break(());
                    }
                    replayed += 1;
                    // Future single-owner commits of this new shard must
                    // sort after every covered entry it replayed: track the
                    // largest epoch/sequence component seen.
                    new_epochs[i] = new_epochs[i].max(key.0);
                }
                ControlFlow::Continue(())
            });
            let failed = match (read, rejected) {
                (Err(e), _) => Some(e),
                (Ok(()), Some(action)) => Some(ManagerError::IncompatibleExtension { action }),
                (Ok(()), None) => None,
            };
            if let Some(error) = failed {
                resume_paused(&shared.pool, paused);
                return Err(error);
            }

            // ---- Nothing can fail from here on: migrate reservations and
            // subscriptions.  A reservation whose action a new component
            // covers is replicated into that shard's table (identical
            // copies on every owner, as for cross-shard asks) and its index
            // entry widens, so confirm/abort/expiry reach the new owner.
            {
                let mut index = lock(&shared.reservation_index);
                for (_, st, _) in &paused {
                    for reservation in st.reservations.values() {
                        for (i, (idx, _, alphabet)) in new_engines.iter().enumerate() {
                            if alphabet.covers(&reservation.action)
                                && !new_reservations[i].contains_key(&reservation.id)
                            {
                                new_reservations[i].insert(reservation.id, reservation.clone());
                                if let Some(owners) = index.get_mut(&reservation.id) {
                                    if !owners.contains(idx) {
                                        owners.push(*idx);
                                        owners.sort_unstable();
                                    }
                                }
                                migrated_reservations += 1;
                            }
                        }
                    }
                }
            }

            // ---- Promote shard-local subscriptions of widened actions to
            // cross-shard entries: their permissibility is a conjunction
            // now.  Every owner of a widened action is quiesced right here,
            // so the per-owner bits are a consistent snapshot — the same
            // guarantee a cross-shard subscribe gets from its rendezvous.
            for (sid, st, _) in &mut paused {
                let router = &new_router;
                let old_router = &topo.router;
                let moved = st
                    .subscriptions
                    .extract(|action| router.owners(action) != old_router.owners(action));
                for (action, clients, cached) in moved {
                    // A shard-local subscription exists only for actions the
                    // shard owned alone, so the widened owner set is this
                    // shard plus new shards.
                    let owners = new_router.owners(&action);
                    let bits: Vec<bool> = owners
                        .iter()
                        .map(|&o| {
                            if o == *sid {
                                st.engine.is_permitted(&action)
                            } else {
                                debug_assert!(o >= old_len, "widened single-owner action");
                                new_engines[o - old_len].1.is_permitted(&action)
                            }
                        })
                        .collect();
                    migrated_subscriptions += clients.len();
                    flips.extend(
                        shared.with_cross(|cross| {
                            cross.promote(&action, owners, bits, clients, cached)
                        }),
                    );
                }
            }

            // ---- Widen existing cross-shard entries whose action gained
            // owners: append the new owners' bits and re-evaluate the
            // conjunction.
            flips.extend(lock(&shared.cross_subscriptions).widen(
                |action| new_router.owners(action),
                |owner, action| {
                    debug_assert!(owner >= old_len, "owner sets only widen");
                    new_engines[owner - old_len].1.is_permitted(action)
                },
            ));
        }

        // ---- Re-home orphan subscriptions the new constraint makes live.
        // A subscription to an action no shard owned parks in the orphan
        // registry (cached not-permitted); if the grown partition covers
        // the action, it becomes a real shard-local or cross-shard
        // subscription now — its owners can only be new shards, because
        // existing alphabets did not change.  A status flip notifies.
        let mut new_subscriptions: Vec<SubscriptionRegistry> =
            (0..new_engines.len()).map(|_| SubscriptionRegistry::new()).collect();
        let rehomed = lock(&shared.orphan_subscriptions)
            .extract(|action| !new_router.owners(action).is_empty());
        for (action, clients, cached) in rehomed {
            let owners = new_router.owners(&action);
            debug_assert!(owners.iter().all(|&o| o >= old_len), "orphans were unowned");
            if let [owner] = owners.as_slice() {
                let i = owner - old_len;
                let key = new_router.alphabet(*owner).covering(&action).unwrap_or(&action).clone();
                for &client in &clients {
                    new_subscriptions[i].subscribe(client, action.clone(), key.clone(), cached);
                }
            } else {
                let bits: Vec<bool> = owners
                    .iter()
                    .map(|&o| new_engines[o - old_len].1.is_permitted(&action))
                    .collect();
                flips.extend(
                    shared
                        .with_cross(|cross| cross.promote(&action, owners, bits, clients, cached)),
                );
            }
        }
        for (i, registry) in new_subscriptions.iter_mut().enumerate() {
            let engine = &new_engines[i].1;
            flips.extend(registry.refresh(|a| engine.is_permitted(a)));
        }

        // ---- Assemble the new shards: slot cells on the bench.  No threads
        // spawn — worker `shard % workers` picks a new shard up on its next
        // pass.  The slots register *before* the topology installs, so no
        // enqueue can ever race a missing slot.
        let mut new_senders = Vec::with_capacity(new_engines.len());
        let mut new_gates = Vec::with_capacity(new_engines.len());
        {
            let pool = &shared.pool;
            for (i, (idx, engine, alphabet)) in new_engines.into_iter().enumerate() {
                let (tx, rx): (Sender<Task>, Receiver<Task>) = unbounded();
                new_senders.push(tx);
                let gate = Arc::new(ShardGate::new(shared.queue_limit));
                new_gates.push(Arc::clone(&gate));
                // The one place outside the shard kernel that fills a
                // shard's tables: a new shard is born holding the
                // reservations and subscriptions that migrated onto it, in
                // the epoch of the history it replayed — whole tables handed
                // over before anything serves it, not operations on a shard.
                let mut state = ShardState::new(idx, engine, alphabet, shared.durability.clone());
                state.reservations = std::mem::take(&mut new_reservations[i]);
                state.subscriptions = std::mem::take(&mut new_subscriptions[i]);
                state.log.set_epoch(new_epochs[i]);
                // Seed the new shard's published reservation fingerprint so
                // post-migration conditional votes verify against the
                // migrated table, not the empty default.
                publish_reservation_fp(shared, &state);
                // A new shard is born with replayed history its (empty) log
                // stream does not cover: snapshot it before it serves.
                if let (Some(cap), Some(vault)) = (state.capture(), shared.vault()) {
                    durability::persist_shards(vault, &[cap]);
                }
                let cell = Arc::new(ShardSlot {
                    rx,
                    gate,
                    serve: Mutex::new(SlotServe {
                        phase: SlotPhase::Live(Box::new(state)),
                        pushback: None,
                        divert_below: 0,
                    }),
                });
                {
                    let mut slots = pool.slots.write().unwrap_or_else(|e| e.into_inner());
                    debug_assert_eq!(slots.len(), idx, "new shard slots register in id order");
                    slots.push(cell);
                }
                pool.core.push_shard();
            }
        }

        // ---- Install the next epoch.  The store of the epoch mirror
        // happens before any paused worker resumes, and every task routed
        // to a widened action targets a still-paused shard, so no worker
        // can act on a stale route between the swap and the resume.
        let mut queues = topo.queues.clone();
        queues.extend(new_senders);
        let mut gates = topo.gates.clone();
        gates.extend(new_gates);
        let epoch = new_router.epoch();
        let joined_expr = Expr::sync(topo.expr.clone(), constraint.clone());
        let new_topology = Arc::new(Topology {
            router: new_router,
            queues,
            gates,
            bounded: shared.queue_limit > 0,
            pool: Arc::clone(&topo.pool),
            expr: joined_expr.clone(),
        });
        {
            let mut slot = self.topology.write().unwrap_or_else(|e| e.into_inner());
            *slot = new_topology;
            shared.epoch.store(epoch, Ordering::Release);
        }

        // ---- Resume the quiesced workers and commit the bookkeeping.  A
        // tile compiled against the pre-migration ensemble must never serve
        // a post-migration step: drop every affected engine's tables (and
        // bump its tier epoch) before the worker resumes.
        let migrated_shards: Vec<usize> = paused.iter().map(|(s, _, _)| *s).collect();
        for (_, state, _) in paused.iter_mut() {
            state.engine.invalidate_tier();
        }
        // ---- Make the repartition durable before any worker resumes.  The
        // migrated shards are re-snapshotted (their snapshots must stop
        // carrying the subscriptions promoted above), the topology blob
        // switches recovery over to the widened partition, and the
        // manifest's cross/orphan registries follow the promotion.  Order
        // matters for crash safety: a per-shard snapshot is valid under
        // either topology (migration never touches an existing shard's
        // engine or alphabet), so a crash before the blob rewrite simply
        // recovers the old partition.
        if let Some(hub) = &shared.durability {
            let captures: Vec<ShardCapture> =
                paused.iter().filter_map(|(_, state, _)| state.capture()).collect();
            durability::persist_shards(hub.vault().as_ref(), &captures);
            for cap in &captures {
                hub.vault().truncate(DurabilityHub::shard_stream(cap.shard), cap.covered);
            }
            write_topology_blob(hub, &joined_expr, &new_partition);
            if let Some(blob) = hub.vault().load_blob(durability::MANIFEST_BLOB) {
                let mut manifest = durability::decode_manifest(&blob)?;
                manifest.cross = lock(&shared.cross_subscriptions).export();
                manifest.orphans = lock(&shared.orphan_subscriptions).export();
                hub.vault()
                    .save_blob(durability::MANIFEST_BLOB, &durability::encode_manifest(&manifest));
            }
            hub.vault().sync();
            // The coordinator holds the paused states: it releases what it
            // just archived itself.
            for (_, state, _) in paused.iter_mut() {
                state.log.release(state.log.len());
            }
        }
        resume_paused(&shared.pool, paused);
        let repart = &shared.repart;
        repart.repartitions.fetch_add(1, Ordering::Relaxed);
        repart.migrated_shard_states.fetch_add(migrated_shards.len() as u64, Ordering::Relaxed);
        repart.replayed_actions.fetch_add(replayed as u64, Ordering::Relaxed);
        repart.migrated_reservations.fetch_add(migrated_reservations as u64, Ordering::Relaxed);
        repart.migrated_subscriptions.fetch_add(migrated_subscriptions as u64, Ordering::Relaxed);
        account(
            shared,
            StatDelta { notifications: flips.len() as u64, ..StatDelta::ZERO },
            StatDelta::ZERO,
        );
        deliver(shared, &flips);
        let report = RepartitionReport {
            epoch,
            added_shards: delta.added.clone(),
            migrated_shards,
            widened_actions: delta.widened.len(),
            replayed_actions: replayed,
            migrated_reservations,
            migrated_subscriptions,
        };
        *partition = new_partition;
        Ok(report)
    }

    /// The write-ahead vault of a durable runtime (`None` when the runtime
    /// was built without one).
    pub fn vault(&self) -> Option<Arc<dyn Vault>> {
        self.shared.durability.as_ref().map(|hub| Arc::clone(hub.vault()))
    }

    /// Cuts a checkpoint without stopping the world: each shard worker
    /// captures its CoW state handle plus the log offset the capture covers
    /// at one of its own task boundaries (a `Checkpoint` task, ordinary
    /// queue order — no global barrier, unaffected shards keep serving),
    /// and the coordinator encodes the captures, writes the snapshot blobs
    /// and the manifest, then truncates the covered log prefixes — the
    /// `ContinueAsNew`-style rollover that keeps recovery time proportional
    /// to the log *tail*, not the history.
    ///
    /// Crash-safe in every interleaving: snapshot blobs are atomic and
    /// self-describing (each carries the offset it covers), the manifest is
    /// written before any stream is truncated, and a crash between the two
    /// merely replays a longer tail.
    pub fn checkpoint(&self) -> ManagerResult<CheckpointReport> {
        run_checkpoint(&self.shared, &self.topology)
    }

    /// Rebuilds a runtime from a vault: loads the persisted topology, the
    /// latest snapshot of every shard, and replays only each shard's log
    /// *tail* (the records past the snapshot's covered offset).  Cross-shard
    /// commits torn by the crash — journaled by some owners but not others —
    /// are rolled forward on the missing owners (the decision was durable on
    /// at least one stream); reservations granted or released on only part
    /// of their owner set are resolved conservatively (a torn grant with no
    /// visible release completes; anything ambiguous is dropped everywhere,
    /// equivalent to an immediate lease expiry).  Leases still pending
    /// rejoin the lease timers, overdue ones fire on the next clock advance.
    /// A submission that was not decided before the crash is lost, and its
    /// ticket fails.
    pub fn recover(
        vault: Arc<dyn Vault>,
        options: RuntimeOptions,
    ) -> ManagerResult<ManagerRuntime> {
        recover_runtime(vault, options)
    }

    /// [`ManagerRuntime::recover`] over a [`FileVault`] rooted at `path`.
    pub fn recover_path(
        path: impl AsRef<std::path::Path>,
        options: RuntimeOptions,
    ) -> ManagerResult<ManagerRuntime> {
        let vault = FileVault::open(path, options.fsync)
            .map_err(|e| durability_err(format!("opening vault: {e}")))?;
        ManagerRuntime::recover(Arc::new(vault), options)
    }

    /// Lets every worker drain its queue, joins them, and returns the
    /// merged log plus final statistics.  Submissions
    /// racing the shutdown complete with [`ManagerError::Disconnected`] —
    /// either failed inline (queue already closed) or failed during the
    /// worker's final drain.  A submission that lands in the narrow window
    /// after a worker's drain but before its queue closes is abandoned, and
    /// a `wait()` on its ticket panics; callers should quiesce their
    /// sessions before shutting down (`wait_timeout`/`poll` never panic).
    pub fn shutdown(self) -> ManagerResult<RuntimeReport> {
        let (workers, unstarted) = {
            // The enqueue lock makes the Stop markers atomic w.r.t.
            // cross-shard enqueues: a cross task is ordered either before
            // the Stop on *all* of its owners (processed normally) or after
            // it on all of them (failed during the drain) — never half/half,
            // which would strand owners at the rendezvous.
            let topo = read_topology(&self.topology);
            let _guard = lock(&self.shared.cross_enqueue);
            for q in topo.queues.iter() {
                let _ = q.send(Task::Stop);
            }
            // Closed under the same lock: a cross task ahead of the markers
            // woke — so started — the worker of every owner while it was
            // enqueued, and nothing behind them starts one.
            let threads = topo.pool.core.close();
            topo.pool.core.wake_all();
            threads
        };
        retire_unstarted(&self.shared, &unstarted);
        for handle in workers {
            handle.join().map_err(|_| ManagerError::Disconnected)?;
        }
        // The slot cells keep the queue receivers alive past the workers
        // that served them, so a dropped-worker disconnect never happens on
        // its own: close each queue explicitly so surviving sessions get
        // their submissions failed inline instead of enqueued for nobody.
        for slot in self.shared.pool.slot_snapshot() {
            slot.rx.close();
        }
        let mut finished = std::mem::take(&mut *lock(&self.shared.pool.finished));
        finished.sort_by_key(|state| state.id);
        let vault = self.shared.vault();
        // The workers are joined, so every record is appended: the records
        // no fsync policy has flushed yet, and a topology no barrier has,
        // reach the disk before the runtime reports itself shut down.
        if let Some(vault) = vault {
            vault.sync();
        }
        Ok(RuntimeReport {
            log: durability::merged_log(vault, finished.iter().map(|st| (st.id, &st.log)))?,
            stats: self.shared.stats.snapshot(),
            clock: self.shared.clock.load(Ordering::Relaxed),
            shards: finished.len(),
        })
    }
}

impl Drop for ManagerRuntime {
    /// Dropping without [`ManagerRuntime::shutdown`] must not leak threads:
    /// once the sessions are gone too the channels disconnect and every
    /// running pool worker retires its shards and exits — a
    /// parked worker re-polls within `IDLE_PARK`, the wake below just
    /// shortens that.  The shards of workers that never started are retired
    /// by the ones that did (see `pool_worker`); if none did, there is no
    /// thread to leak and the shards go with the last handle onto the
    /// shared block.
    fn drop(&mut self) {
        self.shared.pool.core.wake_all();
    }
}

/// A client's handle onto the runtime.  Every method returns a completion
/// ticket immediately — complete already when the operation has one owner
/// and that shard is at rest, except from [`Session::submit`] and
/// [`Session::submit_batch`], whose contract is to return once the
/// submission is queued; the `*_blocking` conveniences wait and translate to
/// the blocking manager's result types.
pub struct Session {
    client: ClientId,
    shared: Arc<RuntimeShared>,
    topology: Arc<TopologySlot>,
    notifications: Receiver<Notification>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("client", &self.client).finish()
    }
}

impl Clone for Session {
    /// Clones share the client id *and* the notification stream (a
    /// notification is delivered to whichever clone polls first); open a
    /// fresh session for an independent stream.
    fn clone(&self) -> Session {
        Session {
            client: self.client,
            shared: Arc::clone(&self.shared),
            topology: Arc::clone(&self.topology),
            notifications: self.notifications.clone(),
        }
    }
}

impl Session {
    /// This session's client identifier.
    pub fn client(&self) -> ClientId {
        self.client
    }

    fn snapshot(&self) -> Arc<Topology> {
        read_topology(&self.topology)
    }

    /// Step 1/2 of the coordination protocol: ask for permission.  Resolves
    /// to [`Completion::Granted`] or [`Completion::Denied`]; on a bounded
    /// runtime a shed ask resolves inline to [`Completion::Failed`] with
    /// [`ManagerError::Overloaded`].
    pub fn ask(&self, action: &Action) -> Ticket<Completion> {
        let topo = self.snapshot();
        if let Err(e) = admit_submission(&topo, action, AdmitClass::Commit, AdmitClass::Commit) {
            return completed(Completion::Failed { error: e.into() });
        }
        submit_ask(&self.shared, &topo, self.client, action)
    }

    /// The combined ask-and-execute round trip.  Resolves to
    /// [`Completion::Executed`] or [`Completion::Denied`]; a shed execute
    /// resolves inline to [`Completion::Failed`] with
    /// [`ManagerError::Overloaded`] (use [`Session::submit`] for the typed
    /// backpressure surface).  Like an ask, a confirm, an abort, a probe or
    /// a subscription, a single-owner execute whose shard is at rest is
    /// decided before the call returns.
    pub fn execute(&self, action: &Action) -> Ticket<Completion> {
        match self.admit_execute(action) {
            Ok(topo) => submit_execute(&self.shared, &topo, action),
            Err(e) => completed(Completion::Failed { error: e.into() }),
        }
    }

    /// The typed submission path of bounded admission: like
    /// [`Session::execute`], but a shed submission returns the
    /// [`SubmitError::Overloaded`] backpressure ticket directly — nothing
    /// was enqueued anywhere, and the submission is safe to retry after the
    /// hinted backoff.  On unbounded runtimes this never errs.
    ///
    /// This is the pipelining call, with [`Session::submit_batch`]: it
    /// returns once the submission is *queued*, never having decided it.
    /// That is the contract a client firing a burst without waiting relies
    /// on — each call costs an enqueue however long the decision takes, and
    /// the burst meets the gate's backpressure instead of being worked off
    /// on the client's own thread, where no queue would ever fill.  A client
    /// that waits on each ticket wants [`Session::execute`].
    pub fn submit(&self, action: &Action) -> Result<Ticket<Completion>, SubmitError> {
        let topo = self.admit_execute(action)?;
        Ok(match topo.router.classify(action) {
            Route::Single(shard) if action.is_concrete() => {
                self.shared.stats.asks.fetch_add(1, Ordering::Relaxed);
                let op = Op::Execute { action: action.clone() };
                queue_single(&self.shared, &topo, shard, op, Credit::Held)
            }
            // Several owners always rendezvous through their queues; no
            // owner, or no concrete action, is answered without one.
            _ => submit_execute(&self.shared, &topo, action),
        })
    }

    /// Admission of one combined execute, under the topology snapshot it is
    /// then routed by.
    fn admit_execute(&self, action: &Action) -> Result<Arc<Topology>, SubmitError> {
        let topo = self.snapshot();
        admit_submission(&topo, action, AdmitClass::Commit, AdmitClass::Speculative)?;
        Ok(topo)
    }

    /// Submits a whole *window* of combined executes with one topology
    /// snapshot, one enqueue-lock acquisition, and one channel send per
    /// consecutive same-shard run — the session-side batching that closes
    /// most of the per-action queue overhead of the runtime on low-core
    /// hosts.  The returned tickets align with `actions`; per-action
    /// outcomes, the merged log, and the statistics are identical to
    /// submitting the window action by action ([`Session::execute`]), since
    /// per-queue enqueue order is preserved.
    ///
    /// Actions outside every shard alphabet (and non-concrete actions)
    /// resolve inline, before any lock is taken.
    pub fn submit_batch(&self, actions: &[Action]) -> Vec<Ticket<Completion>> {
        let shared = &self.shared;
        let topo = self.snapshot();
        let mut out = Vec::with_capacity(actions.len());
        // Plan phase: classify lock-free; inline the denials.  On a bounded
        // runtime each action passes admission first — a shed action
        // resolves inline to `Overloaded` and holds no credit; an admitted
        // one holds one credit on each owning shard until its worker
        // dequeues it.
        let mut pending: Vec<(Action, Route, TicketIssuer<Completion>)> = Vec::new();
        for action in actions {
            let route = action.is_concrete().then(|| topo.router.classify(action));
            if topo.bounded {
                if let Some(route) = &route {
                    let class = match route {
                        Route::Multi(_) => AdmitClass::Speculative,
                        _ => AdmitClass::Commit,
                    };
                    if let Err(e) = admit_route(&topo, route, class) {
                        out.push(completed(Completion::Failed { error: e.into() }));
                        continue;
                    }
                }
            }
            shared.stats.asks.fetch_add(1, Ordering::Relaxed);
            match route {
                None => out.push(completed(non_concrete(shared, action))),
                Some(Route::None) => {
                    let op = Op::Execute { action: action.clone() };
                    out.push(completed(settle_unowned(shared, op)));
                }
                Some(route) => {
                    let (issuer, t) = ticket();
                    pending.push((action.clone(), route, issuer));
                    out.push(t);
                }
            }
        }
        if pending.is_empty() {
            return out;
        }
        // Dispatch phase: one enqueue-lock acquisition for the window;
        // consecutive same-shard singles coalesce into one Task::Batch.
        let submitted = stamp_submitted(shared);
        let mut run: Vec<SingleTask> = Vec::new();
        let mut run_shard = usize::MAX;
        let _guard = lock(&shared.cross_enqueue);
        for (action, route, issuer) in pending {
            match route {
                Route::None => unreachable!("denied in the plan phase"),
                Route::Single(shard) => {
                    if shard != run_shard {
                        flush_run(&topo, run_shard, &mut run);
                        run_shard = shard;
                    }
                    run.push(SingleTask {
                        epoch: topo.epoch(),
                        op: Op::Execute { action },
                        ticket: issuer,
                        submitted,
                    });
                }
                Route::Multi(owners) => {
                    flush_run(&topo, run_shard, &mut run);
                    let op = Op::Execute { action };
                    enqueue_multi(&topo, owners, op, issuer, submitted, Credit::Held);
                }
            }
        }
        flush_run(&topo, run_shard, &mut run);
        out
    }

    /// Step 4/5: confirm a granted reservation.  Resolves to
    /// [`Completion::Confirmed`] or [`Completion::Failed`].
    pub fn confirm(&self, reservation: u64) -> Ticket<Completion> {
        submit_release(&self.shared, &self.topology, reservation, Op::Confirm { id: reservation })
    }

    /// Explicitly releases a granted reservation without executing it.
    pub fn abort(&self, reservation: u64) -> Ticket<Completion> {
        submit_release(&self.shared, &self.topology, reservation, Op::Abort { id: reservation })
    }

    /// Subscribes to permissibility changes of an action; the completion
    /// carries the current status, later changes arrive via
    /// [`Session::poll_notifications`].  Registrations are probe-class
    /// traffic: a bounded runtime sheds them first.
    pub fn subscribe(&self, action: &Action) -> Ticket<Completion> {
        let shared = &self.shared;
        let topo = self.snapshot();
        if let Err(e) = admit_submission(&topo, action, AdmitClass::Probe, AdmitClass::Probe) {
            return completed(Completion::Failed { error: e.into() });
        }
        let op = Op::Subscribe { client: self.client, action: action.clone() };
        dispatch(shared, &topo, topo.router.classify(action), op, Credit::Held)
    }

    /// Removes a subscription.
    pub fn unsubscribe(&self, action: &Action) -> Ticket<Completion> {
        let shared = &self.shared;
        let topo = self.snapshot();
        match topo.router.classify(action) {
            Route::Multi(_) => {
                cross_unsubscribe(shared, self.client, action);
                completed(Completion::Unsubscribed)
            }
            // Unsubscribes are never shed: dropping one would leak the
            // registry entry the client believes is gone.
            route => {
                let op = Op::Unsubscribe { client: self.client, action: action.clone() };
                dispatch(shared, &topo, route, op, Credit::Charge)
            }
        }
    }

    /// Queries whether the action is currently permitted (ignoring
    /// outstanding reservations), evaluated on the owning shards.
    pub fn is_permitted(&self, action: &Action) -> Ticket<Completion> {
        let topo = self.snapshot();
        if let Err(e) = admit_submission(&topo, action, AdmitClass::Probe, AdmitClass::Probe) {
            return completed(Completion::Failed { error: e.into() });
        }
        let op = Op::Query { action: action.clone() };
        dispatch(&self.shared, &topo, topo.router.classify(action), op, Credit::Held)
    }

    /// Drains the subscription notifications received so far.
    pub fn poll_notifications(&self) -> Vec<Notification> {
        self.notifications.try_iter().collect()
    }

    /// Advances the runtime's logical clock (see
    /// [`ManagerRuntime::advance_time`]); any session may drive the virtual
    /// clock, exactly as any client could send a tick to the old server.
    pub fn advance_time(&self, delta: u64) -> Vec<Reservation> {
        advance_clock(&self.shared, &self.topology, delta)
    }

    /// Blocking [`Session::ask`] with the blocking manager's result type.
    pub fn ask_blocking(&self, action: &Action) -> ManagerResult<Option<u64>> {
        match self.ask(action).wait() {
            Completion::Granted { reservation } => Ok(Some(reservation)),
            Completion::Denied => Ok(None),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::execute`] with the blocking manager's result
    /// type.
    pub fn execute_blocking(&self, action: &Action) -> ManagerResult<Option<Vec<Notification>>> {
        match self.execute(action).wait() {
            Completion::Executed { notifications } => Ok(Some(notifications)),
            Completion::Denied => Ok(None),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::confirm`].
    pub fn confirm_blocking(&self, reservation: u64) -> ManagerResult<Vec<Notification>> {
        match self.confirm(reservation).wait() {
            Completion::Confirmed { notifications } => Ok(notifications),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::abort`].
    pub fn abort_blocking(&self, reservation: u64) -> ManagerResult<Reservation> {
        match self.abort(reservation).wait() {
            Completion::Aborted { reservation } => Ok(reservation),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::subscribe`].
    pub fn subscribe_blocking(&self, action: &Action) -> ManagerResult<bool> {
        match self.subscribe(action).wait() {
            Completion::Subscribed { permitted } => Ok(permitted),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::is_permitted`].
    pub fn is_permitted_blocking(&self, action: &Action) -> bool {
        matches!(self.is_permitted(action).wait(), Completion::Status { permitted: true })
    }
}

// ---------------------------------------------------------------------------
// Submission paths.
// ---------------------------------------------------------------------------

/// What an ask or an execute of a non-concrete action comes to, counted as
/// the blocking manager counts it.
fn non_concrete(shared: &RuntimeShared, action: &Action) -> Completion {
    account(shared, StatDelta { asks: 1, ..StatDelta::ZERO }, StatDelta::ZERO);
    Completion::Failed { error: ManagerError::NonConcreteAction { action: action.to_string() } }
}

/// What an operation on an action outside every alphabet comes to — no
/// owner, so no vote: the outcome and the counts the blocking manager gives
/// it, before any queue or lock is touched.  A subscription waits among the
/// orphans for a constraint that covers it.
fn settle_unowned(shared: &RuntimeShared, op: Op) -> Completion {
    match op {
        Op::Subscribe { client, action } => {
            lock(&shared.orphan_subscriptions).subscribe(
                client,
                action.clone(),
                action.clone(),
                false,
            );
            if let Some(hub) = &shared.durability {
                hub.log_meta(&WalRecord::Subscribe { client, action, permitted: false });
            }
            Completion::Subscribed { permitted: false }
        }
        Op::Unsubscribe { client, action } => {
            lock(&shared.orphan_subscriptions).unsubscribe(client, &action);
            if let Some(hub) = &shared.durability {
                hub.log_meta(&WalRecord::Unsubscribe { client, action });
            }
            Completion::Unsubscribed
        }
        Op::Query { .. } => Completion::Status { permitted: false },
        _ => {
            account(shared, DENIED, StatDelta::ZERO);
            Completion::Denied
        }
    }
}

fn submit_ask(
    shared: &Arc<RuntimeShared>,
    topo: &Arc<Topology>,
    client: ClientId,
    action: &Action,
) -> Ticket<Completion> {
    shared.stats.asks.fetch_add(1, Ordering::Relaxed);
    if !action.is_concrete() {
        return completed(non_concrete(shared, action));
    }
    let op = Op::Ask { client, action: action.clone() };
    dispatch(shared, topo, topo.router.classify(action), op, Credit::Held)
}

fn submit_execute(
    shared: &Arc<RuntimeShared>,
    topo: &Arc<Topology>,
    action: &Action,
) -> Ticket<Completion> {
    shared.stats.asks.fetch_add(1, Ordering::Relaxed);
    if !action.is_concrete() {
        return completed(non_concrete(shared, action));
    }
    let op = Op::Execute { action: action.clone() };
    dispatch(shared, topo, topo.router.classify(action), op, Credit::Held)
}

/// A confirm or an abort of reservation `id`, sent to the owners the
/// reservation index holds for it.
fn submit_release(
    shared: &Arc<RuntimeShared>,
    slot: &TopologySlot,
    id: u64,
    op: Op,
) -> Ticket<Completion> {
    let owners = match lock(&shared.reservation_index).get(&id) {
        Some(owners) => owners.clone(),
        None => {
            return completed(Completion::Failed { error: ManagerError::UnknownReservation { id } })
        }
    };
    let topo = covering_topology(slot, &owners);
    dispatch_owners(shared, &topo, owners, op)
}

/// Removes a cross-shard subscription from the runtime-level registry (no
/// shard state is involved).
fn cross_unsubscribe(shared: &RuntimeShared, client: ClientId, action: &Action) {
    if let Some(hub) = &shared.durability {
        hub.log_meta(&WalRecord::Unsubscribe { client, action: action.clone() });
    }
    shared.with_cross(|cross| cross.unsubscribe(client, action));
}

/// Enqueues an already-issued task on one shard's queue.  `Credit::Charge`
/// callers (forced traffic) take their queue credit here; `Credit::Held`
/// callers reserved it through admission already.
fn enqueue_single(
    topo: &Topology,
    shard: usize,
    op: Op,
    issuer: TicketIssuer<Completion>,
    submitted: Option<Instant>,
    credit: Credit,
) {
    if credit == Credit::Charge {
        topo.gates[shard].charge(1);
    }
    let task = Task::Single(SingleTask { epoch: topo.epoch(), op, ticket: issuer, submitted });
    match topo.queues[shard].send(task) {
        Ok(()) => topo.pool.core.wake_shard(shard),
        Err(SendError(Task::Single(task))) => {
            task.ticket.complete(Completion::Failed { error: ManagerError::Disconnected });
        }
        Err(_) => unreachable!("send returns the task it was given"),
    }
}

/// Enqueues a task on one shard's queue and returns its ticket.
fn queue_single(
    shared: &RuntimeShared,
    topo: &Topology,
    shard: usize,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    let (issuer, t) = ticket();
    enqueue_single(topo, shard, op, issuer, stamp_submitted(shared), credit);
    t
}

/// One operation for one owner: decided in a [`caller_frame`] when the shard
/// is at rest — the ticket comes back complete, no thread was waited for —
/// and queued for the shard's worker otherwise.
///
/// The frame stands in for a worker that has just dequeued the task, and
/// does what that worker would: returns the admission credit, votes and
/// settles through the same kernel steps as [`process_single`] (the
/// write-ahead record included), publishes the log size and feeds the
/// gate's service average and the queue-delay samples — with a wait of
/// zero.  It declines a route taken under an older topology epoch: those are
/// re-checked where they are dequeued.  An epoch that moves while the frame
/// holds the slot did not touch this shard (a migration needs the slot for
/// its pause barrier), so the route stands, as for a task dequeued a moment
/// before the move.
fn dispatch_single(
    shared: &RuntimeShared,
    topo: &Topology,
    shard: usize,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    let submitted = stamp_submitted(shared);
    let served = caller_frame(topo, shard, |slot, st| {
        if topo.epoch() != shared.epoch.load(Ordering::Acquire) {
            return None;
        }
        if credit == Credit::Held {
            slot.gate.release(1);
        }
        let vote = vote_local(shared, st, &op);
        let completion = settle_single(shared, st, &op, vote);
        slot.gate.publish_log(&st.log);
        if let Some(at) = submitted {
            let service = at.elapsed().as_nanos() as u64;
            slot.gate.observe(0, service);
            if shared.queue_metrics {
                lock(&shared.queue_samples).push((0, service));
            }
        }
        Some(completion)
    });
    match served {
        Frame::Served(completion) => completed(completion),
        _ => queue_single(shared, topo, shard, op, credit),
    }
}

/// Enqueues an operation on the owner or owners `route` names and returns
/// its ticket; without an owner it resolves on the spot.
fn dispatch(
    shared: &RuntimeShared,
    topo: &Topology,
    route: Route,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    match route {
        Route::None => completed(settle_unowned(shared, op)),
        Route::Single(shard) => dispatch_single(shared, topo, shard, op, credit),
        Route::Multi(owners) => dispatch_multi(shared, topo, owners, op, credit),
    }
}

/// Enqueues a reservation operation (confirm, abort, expiry) on the owners
/// the reservation index names.  Forced traffic: never shed.
fn dispatch_owners(
    shared: &RuntimeShared,
    topo: &Topology,
    owners: Vec<usize>,
    op: Op,
) -> Ticket<Completion> {
    match owners.as_slice() {
        [shard] => dispatch_single(shared, topo, *shard, op, Credit::Charge),
        _ => dispatch_multi(shared, topo, owners, op, Credit::Charge),
    }
}

/// Sends a batched run of same-shard single tasks as one channel message
/// (one [`Task::Single`] when the run has a single element).  The caller
/// holds the enqueue lock and already holds one queue credit per run
/// element (the batch path admits per action); `run` is left empty.
fn flush_run(topo: &Topology, shard: usize, run: &mut Vec<SingleTask>) {
    if run.is_empty() {
        return;
    }
    let task = if run.len() == 1 {
        Task::Single(run.pop().expect("len checked"))
    } else {
        Task::Batch(std::mem::take(run))
    };
    match topo.queues[shard].send(task) {
        Ok(()) => topo.pool.core.wake_shard(shard),
        Err(SendError(task)) => fail_task(task),
    }
    run.clear();
}

/// Enqueues an already-issued operation onto every owner's queue in
/// ascending order.  The caller must hold the cross-enqueue lock — the
/// ordered-enqueue incarnation of the 2PC lock order: under it the task
/// draws its rendezvous sequence, and the sends fix its relative order in
/// every queue it shares.
fn enqueue_multi(
    topo: &Topology,
    owners: Vec<usize>,
    op: Op,
    issuer: TicketIssuer<Completion>,
    submitted: Option<Instant>,
    credit: Credit,
) {
    if credit == Credit::Charge {
        for &owner in &owners {
            topo.gates[owner].charge(1);
        }
    }
    let votes = owners.iter().map(|_| Vote::Pending).collect();
    let task = Arc::new(MultiTask {
        epoch: topo.epoch(),
        seq: topo.pool.seq.fetch_add(1, Ordering::Relaxed) + 1,
        owners,
        op,
        submitted,
        committed: AtomicBool::new(false),
        sync: Mutex::new(MultiSync {
            stale: None,
            votes,
            yes_votes: 0,
            promoted_any: false,
            cascade_next: None,
            removed: None,
            verdict: None,
            applied: 0,
            effects: Vec::new(),
            ticket: Some(issuer),
        }),
        barrier: Condvar::new(),
    });
    for &owner in &task.owners {
        if topo.queues[owner].send(Task::Multi(Arc::clone(&task))).is_err() {
            // Queues only disconnect when the runtime is gone; nobody will
            // ever rendezvous, so fail the ticket here.
            if let Some(issuer) = lock(&task.sync).ticket.take() {
                issuer.complete(Completion::Failed { error: ManagerError::Disconnected });
            }
            return;
        }
        topo.pool.core.wake_shard(owner);
    }
}

/// Enqueues an operation several shards own under the enqueue lock and
/// returns its ticket.
fn dispatch_multi(
    shared: &RuntimeShared,
    topo: &Topology,
    owners: Vec<usize>,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    let (issuer, t) = ticket();
    let submitted = stamp_submitted(shared);
    let _guard = lock(&shared.cross_enqueue);
    enqueue_multi(topo, owners, op, issuer, submitted, credit);
    t
}

/// Hands every quiesced shard state back to its worker (used on both the
/// success and the abort path of a migration — a paused worker is always
/// resumed).
fn resume_paused(pool: &PoolCtl, paused: Vec<(usize, ShardState, Sender<ShardState>)>) {
    for (_, state, resume_tx) in paused {
        let _ = resume_tx.send(state);
    }
    // A Suspended slot is polled on its owning worker's next visit; make
    // that visit happen now.
    pool.core.wake_all();
}

/// The checkpoint cut ([`ManagerRuntime::checkpoint`]).
fn run_checkpoint(shared: &RuntimeShared, slot: &TopologySlot) -> ManagerResult<CheckpointReport> {
    let hub = shared
        .durability
        .as_ref()
        .ok_or_else(|| durability_err("checkpoint requires a runtime with a vault"))?;
    // From capture to release one cut at a time: a cut archives from the
    // mark the previous one released at.
    let _persisting = lock(&shared.persisting);
    let topo = read_topology(slot);
    let shards = topo.queues.len();
    let mut captures: Vec<ShardCapture> =
        ask_shards(&topo, |st| st.capture()).into_iter().flatten().collect();
    captures.sort_by_key(|c| c.shard);
    let persisted = durability::persist_shards(hub.vault().as_ref(), &captures);
    // Fold the covered meta-stream prefix into the manifest's statistics
    // base.  Records racing in *after* the captured length keep an index
    // >= `meta_len`, survive the truncation, and replay as tail — the
    // event deltas are order-independent, so the cut is race-free.
    let previous = match hub.vault().load_blob(durability::MANIFEST_BLOB) {
        Some(blob) => Some(durability::decode_manifest(&blob)?),
        None => None,
    };
    let (mut meta_base, old_covered) =
        previous.map_or((StatDelta::ZERO, 0), |m| (m.meta_base, m.meta_covered));
    let meta_len = hub.vault().stream_len(META_STREAM);
    let mut clock = shared.clock.load(Ordering::Relaxed);
    for (index, payload) in hub.vault().read_from(META_STREAM, old_covered) {
        if index >= meta_len {
            break;
        }
        let record =
            WalRecord::decode(&payload).map_err(|e| durability::codec_err("meta record", e))?;
        if let WalRecord::Clock { now } = record {
            clock = clock.max(now);
        }
        meta_base.add(&record.delta());
    }
    let manifest = Manifest {
        clock,
        meta_covered: meta_len,
        meta_base,
        log_seq: shared.log_seq.load(Ordering::Relaxed),
        next_reservation: shared.next_reservation.load(Ordering::Relaxed),
        cross: lock(&shared.cross_subscriptions).export(),
        orphans: lock(&shared.orphan_subscriptions).export(),
    };
    hub.vault().save_blob(durability::MANIFEST_BLOB, &durability::encode_manifest(&manifest));
    for cap in &captures {
        hub.vault().truncate(DurabilityHub::shard_stream(cap.shard), cap.covered);
    }
    hub.vault().truncate(META_STREAM, meta_len);
    hub.vault().sync();
    // The cut is complete: the shards may forget what it archived.
    let released: Vec<Answer<()>> = captures
        .iter()
        .map(|cap| {
            let (archived, gate) = (cap.log.len(), Arc::clone(&topo.gates[cap.shard]));
            control(&topo, cap.shard, move |st| {
                st.log.release(archived);
                // Published before the answer: a load report read after the
                // checkpoint returns shows what it released.
                gate.publish_log(&st.log);
            })
        })
        .collect();
    for answer in released {
        answer.wait();
    }
    Ok(CheckpointReport {
        shards,
        captured: captures.len(),
        bytes: persisted.blob_bytes,
        archived_entries: persisted.archived_entries,
        history_bytes: persisted.history_bytes,
    })
}

/// Advances the clock and runs the due lease expirations as shard tasks.
///
/// The timer payload's owner list is the one recorded at grant time; a
/// migration may since have widened the reservation onto new shards.  The
/// authoritative owner set therefore comes from the reservation index at
/// fire time — this is how a scheduled lease *re-arms* across a
/// repartition without rewriting wheel entries.
fn advance_clock(shared: &RuntimeShared, slot: &TopologySlot, delta: u64) -> Vec<Reservation> {
    let now = shared.clock.fetch_add(delta, Ordering::Relaxed) + delta;
    if let Some(hub) = &shared.durability {
        hub.log_meta(&WalRecord::Clock { now });
    }
    let events = lock(&shared.timers).advance(now);
    let tickets: Vec<Ticket<Completion>> = events
        .into_iter()
        .map(|event| {
            let owners =
                lock(&shared.reservation_index).get(&event.id).cloned().unwrap_or(event.owners);
            let topo = covering_topology(slot, &owners);
            dispatch_owners(shared, &topo, owners, Op::Expire { id: event.id, now })
        })
        .collect();
    tickets
        .into_iter()
        .filter_map(|t| match t.wait() {
            Completion::Expired { reservation } => reservation,
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The worker: one pool thread serving the shard slots `shard % workers`
// assigns it.
// ---------------------------------------------------------------------------

/// The host's hardware-thread count, read once per process: the standard
/// library re-reads the cgroup files on every call, which cost every
/// runtime construction some 30 µs.
fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Tasks a worker serves from one shard before moving to the next — the
/// bounded run-to-completion slice that keeps a hot shard from starving its
/// co-located siblings.
const SLICE_BUDGET: usize = 128;

/// How long a rendezvous waiter parks between help attempts.  A vote
/// deposit wakes the barrier immediately; the timeout only bounds how long
/// a worker can miss *new enqueues* on its other shards while it waits
/// (those wake the worker parker, not the barrier).
const HELP_PARK: Duration = Duration::from_micros(200);

/// Idle-worker park backstop.  Wakeups route through the placement rule;
/// events that bypass it (a queue disconnecting on runtime drop) are caught
/// by this periodic re-poll.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Per-drain context a shard worker threads through its task processing:
/// the shard's admission gate and, when enabled, the queueing-delay samples
/// of the drain.
struct WorkerCtx {
    /// Queueing-delay sampling enabled ([`RuntimeOptions::queue_metrics`]).
    metrics: bool,
    /// This shard's admission gate; completed executes feed its
    /// wait/service EWMAs whenever the gate is active.
    gate: Arc<ShardGate>,
    /// Instant the worker dequeued the task (or drained the batch) it is
    /// currently processing — the boundary between enqueue wait and
    /// service time.
    dequeued: Instant,
    /// (enqueue-wait, service) nanosecond pairs of this drain.
    samples: Vec<(u64, u64)>,
}

impl WorkerCtx {
    fn new(metrics: bool, gate: Arc<ShardGate>) -> WorkerCtx {
        WorkerCtx { metrics, gate, dequeued: Instant::now(), samples: Vec::new() }
    }

    /// Whether completed tasks are timed at all (sampling or gate EWMAs).
    fn timing(&self) -> bool {
        self.metrics || self.gate.active()
    }

    /// Stamps the dequeue boundary of the next task (timed modes only).
    fn stamp_dequeue(&mut self) {
        if self.timing() {
            self.dequeued = Instant::now();
        }
    }

    /// Records one completed task: how long it sat in the queue before
    /// this worker picked it up vs how long the worker spent on it.  For a
    /// multi-owner task the recording owner's own drain boundary is the
    /// reference — the honest per-shard view of the rendezvous cost.
    fn record(&mut self, submitted: Option<Instant>) {
        if !self.timing() {
            return;
        }
        let wait =
            submitted.map_or(0, |s| self.dequeued.saturating_duration_since(s).as_nanos() as u64);
        let service = self.dequeued.elapsed().as_nanos() as u64;
        self.gate.observe(wait, service);
        if self.metrics {
            self.samples.push((wait, service));
        }
    }

    /// Publishes the drain's samples.
    fn flush(&mut self, shared: &RuntimeShared) {
        if !self.samples.is_empty() {
            lock(&shared.queue_samples).append(&mut self.samples);
        }
    }
}

/// The help-while-waiting context a worker threads into its rendezvous
/// waits: which worker it is, and the pool whose placement rule names its
/// other shards.
struct Help<'a> {
    pool: &'a Arc<PoolCtl>,
    me: usize,
}

/// Serves one task from one of this worker's *other* owned shards while the
/// current frame is parked on a rendezvous.  The shard being waited on is
/// marked Busy, so checkout skips it; each nested frame claims a distinct
/// slot, bounding the recursion depth by the number of shards the worker
/// owns.  `limit` is the sequence of the rendezvous the caller is blocked
/// on: only tasks ordered at or before it may be served (see
/// [`PoolCtl::seq`] — a later task could block beneath this frame while its
/// quorum needs the shard this frame holds).  Returns whether any task was
/// served.
fn help_one(shared: &Arc<RuntimeShared>, help: &Help<'_>, cx: &mut WorkerCtx, limit: u64) -> bool {
    for shard in help.pool.core.owned(help.me) {
        if let SliceOutcome::Progressed =
            serve_slice(shared, help.pool, help.me, shard, cx, 1, limit)
        {
            return true;
        }
    }
    false
}

/// Serves what is left in the queues of workers that never started — at
/// shutdown: their Stop markers, and at most a submission that raced them —
/// on the calling thread, through the slice a worker would have served them
/// in.
fn retire_unstarted(shared: &Arc<RuntimeShared>, unstarted: &[usize]) {
    let pool = &shared.pool;
    let mut cx = WorkerCtx::new(shared.queue_metrics, Arc::new(ShardGate::new(0)));
    for &me in unstarted {
        for shard in pool.core.owned(me) {
            // Anything short of Finished is a slot a caller frame holds,
            // for the length of one decision.
            while !matches!(
                serve_slice(shared, pool, me, shard, &mut cx, usize::MAX, u64::MAX),
                SliceOutcome::Finished
            ) {
                std::thread::yield_now();
            }
        }
    }
    cx.flush(shared);
}

/// The pool worker loop: walk the shards the placement rule assigns this
/// worker, serve each a bounded slice, park when a full pass makes no
/// progress, exit when every shard has finished.
fn pool_worker(shared: Arc<RuntimeShared>, me: usize) {
    let pool = Arc::clone(&shared.pool);
    // The inert placeholder gate; serve_slice swaps the served shard's own
    // gate in for the duration of each slice.
    let idle_gate = Arc::new(ShardGate::new(0));
    let mut cx = WorkerCtx::new(shared.queue_metrics, idle_gate);
    loop {
        let mut progressed = false;
        let mut closing = false;
        for shard in pool.core.owned(me) {
            match serve_slice(&shared, &pool, me, shard, &mut cx, SLICE_BUDGET, u64::MAX) {
                SliceOutcome::Progressed => progressed = true,
                SliceOutcome::Finished => closing = true,
                SliceOutcome::Idle | SliceOutcome::Skip => {}
            }
        }
        // A finished shard means the runtime is going — stopped, or dropped
        // and its queues disconnected.  The shards of workers that never
        // started are then retired by the ones that did: nobody else will,
        // after a drop, and `live` reaches zero only when every slot is.
        // (Should such a worker start this moment, the slot phase keeps the
        // two of them apart, as it does a worker and a caller frame.)
        if closing {
            for shard in pool.core.unstarted().into_iter().flat_map(|w| pool.core.owned(w)) {
                serve_slice(&shared, &pool, me, shard, &mut cx, SLICE_BUDGET, u64::MAX);
            }
        }
        if pool.core.live.load(Ordering::Acquire) == 0 {
            break;
        }
        if !progressed {
            // Going idle: publish the drain's samples, then park.
            cx.flush(&shared);
            pool.core.park(me, IDLE_PARK);
        }
    }
    cx.flush(&shared);
}

/// Serves up to `budget` tasks from `shard`'s queue, checking its state out
/// of the slot for the duration.  Queue order is preserved because only the
/// Busy-holder pops the shard's queue; run-to-completion per task is
/// preserved because the state never leaves this frame mid-task.  `limit`
/// bounds which rendezvous tasks may start (`u64::MAX` at top level; the
/// blocked task's sequence in help frames — see [`help_one`]).
fn serve_slice(
    shared: &Arc<RuntimeShared>,
    pool: &Arc<PoolCtl>,
    me: usize,
    shard: usize,
    cx: &mut WorkerCtx,
    budget: usize,
    limit: u64,
) -> SliceOutcome {
    let Some(slot) = pool.slot(shard) else { return SliceOutcome::Skip };
    let (mut st, mut pushback, mut divert_below) = match checkout(&slot) {
        Checkout::State(st, pushback, divert) => (st, pushback, divert),
        Checkout::Skip => return SliceOutcome::Skip,
        Checkout::Done => return SliceOutcome::Finished,
    };
    // Nested frames (help-while-waiting) serve different shards through the
    // same ctx: swap this shard's gate in, restore the caller's on exit.
    let prev_gate = std::mem::replace(&mut cx.gate, Arc::clone(&slot.gate));
    let help = Help { pool, me };
    let mut served = 0usize;
    let outcome = loop {
        if served >= budget {
            break SliceOutcome::Progressed;
        }
        // A pushback was released at its original dequeue; everything
        // freshly received returns its queue credits here, exactly once.
        let fresh = pushback.is_none();
        let task = match pushback.take() {
            Some(task) => task,
            None => match slot.rx.try_recv() {
                Ok(task) => task,
                Err(TryRecvError::Empty) => {
                    break if served > 0 { SliceOutcome::Progressed } else { SliceOutcome::Idle };
                }
                Err(TryRecvError::Disconnected) => {
                    // Every sender dropped (runtime dropped without
                    // shutdown): the shard is finished.
                    finish_slot(pool, &slot, st);
                    cx.gate = prev_gate;
                    return SliceOutcome::Finished;
                }
            },
        };
        if fresh {
            cx.gate.release(task_units(&task));
        }
        // Help-frame ordering bound: a rendezvous task ordered after the one
        // the caller is blocked on must not start beneath it.
        if task_seq(&task) > limit {
            pushback = Some(task);
            break if served > 0 { SliceOutcome::Progressed } else { SliceOutcome::Idle };
        }
        cx.stamp_dequeue();
        served += 1;
        match task {
            Task::Single(task) => {
                if let Some(task) = ensure_single_route(shared, &st, task, &mut divert_below) {
                    process_single(shared, &mut st, task, cx)
                }
            }
            // A window's items are checked one by one: once one is diverted,
            // the watermark diverts every later one, in order.
            Task::Batch(tasks) => {
                for task in tasks {
                    if let Some(task) = ensure_single_route(shared, &st, task, &mut divert_below) {
                        process_single(shared, &mut st, task, cx)
                    }
                }
            }
            Task::Multi(task) => {
                if !multi_is_live(shared, &task, &mut divert_below) {
                    continue;
                }
                if matches!(task.op, Op::Execute { .. }) {
                    let (batch, ended_by) =
                        coalesce(shared, &slot, &st, task, limit, cx, &mut divert_below);
                    pushback = ended_by;
                    process_batch(shared, &mut st, batch, &help, cx);
                } else {
                    process_multi(shared, &mut st, &task, &help, cx);
                }
            }
            Task::Pause(pause) => {
                // Quiescence point of a live migration: publish the drain's
                // samples and hand the entire shard state (engine, tables,
                // log segment) to the coordinator.  Unlike the old
                // thread-per-shard worker this frame does NOT block for the
                // state's return — the slot goes Suspended and the receiver
                // is polled on later visits, so this worker keeps serving
                // its other shards (a worker owning two paused shards would
                // otherwise deadlock the migration).
                cx.flush(shared);
                match pause.state_tx.send(*st) {
                    Ok(()) => {
                        let mut serve = lock(&slot.serve);
                        serve.phase = SlotPhase::Suspended(pause.resume_rx);
                        serve.pushback = pushback.take();
                        serve.divert_below = divert_below;
                        drop(serve);
                        cx.gate = prev_gate;
                        return SliceOutcome::Progressed;
                    }
                    // Coordinator already gone: keep the state and carry on.
                    Err(SendError(state)) => st = Box::new(state),
                }
            }
            Task::Control(request) => request(Some(&mut st)),
            Task::Stop => {
                // Fail everything still queued behind the Stop marker; the
                // enqueue lock guarantees a cross task behind one owner's
                // Stop is behind every owner's Stop, so nobody waits for a
                // vote that never comes.
                for task in slot.rx.try_iter() {
                    cx.gate.release(task_units(&task));
                    fail_task(task);
                }
                cx.flush(shared);
                finish_slot(pool, &slot, st);
                cx.gate = prev_gate;
                return SliceOutcome::Finished;
            }
        }
        slot.gate.publish_log(&st.log);
    };
    checkin(&slot, st, pushback, divert_below);
    cx.gate = prev_gate;
    outcome
}

/// Coalesces the already-queued consecutive run of same-owner-set executes
/// behind `first` — plus the single-owner executes interleaved between them
/// — into one speculative batch: the rendezvous votes once per batch instead
/// of once per action.  Also returns the task that ended the run, if one was
/// received (its queue credit returned already).
fn coalesce(
    shared: &Arc<RuntimeShared>,
    slot: &ShardSlot,
    st: &ShardState,
    first: Arc<MultiTask>,
    limit: u64,
    cx: &mut WorkerCtx,
    divert_below: &mut u64,
) -> (Batch, Option<Task>) {
    let mut batch = Batch::new(first);
    while batch.items.len() < MAX_BATCH {
        match slot.rx.try_recv() {
            Ok(Task::Multi(next))
                if next.owners == batch.owners
                    && next.seq <= limit
                    && matches!(next.op, Op::Execute { .. }) =>
            {
                cx.gate.release(1);
                if multi_is_live(shared, &next, divert_below) {
                    batch.push_exec(next)
                }
            }
            Ok(Task::Single(single)) if matches!(single.op, Op::Execute { .. }) => {
                cx.gate.release(1);
                if let Some(single) = ensure_single_route(shared, st, single, divert_below) {
                    batch.push_local(single)
                }
            }
            Ok(other) => {
                cx.gate.release(task_units(&other));
                return (batch, Some(other));
            }
            Err(_) => break,
        }
    }
    (batch, None)
}

fn fail_task(task: Task) {
    let disconnected = || Completion::Failed { error: ManagerError::Disconnected };
    match task {
        Task::Single(task) => task.ticket.complete(disconnected()),
        Task::Batch(tasks) => {
            for task in tasks {
                task.ticket.complete(disconnected());
            }
        }
        Task::Multi(task) => {
            if let Some(issuer) = lock(&task.sync).ticket.take() {
                issuer.complete(disconnected());
            }
        }
        // Dropping the pause disconnects its state channel; the coordinator
        // observes the failed recv and aborts the migration.
        Task::Pause(_) => {}
        Task::Control(request) => request(None),
        Task::Stop => {}
    }
}

// ---------------------------------------------------------------------------
// Stale-route detection: tasks stamped with an older topology epoch are
// re-checked and retried through the current topology instead of being
// misdelivered.
// ---------------------------------------------------------------------------

/// Checks an epoch-stale single task's route against the current topology.
/// Returns the task when this shard is still its correct single owner (the
/// overwhelmingly common case — most epoch bumps do not touch this shard's
/// actions) *and* the task is not ordered behind an already-diverted one;
/// otherwise re-dispatches it with its original ticket, raises the divert
/// watermark, and returns `None`.
fn ensure_single_route(
    shared: &Arc<RuntimeShared>,
    st: &ShardState,
    task: SingleTask,
    divert_below: &mut u64,
) -> Option<SingleTask> {
    if task.epoch == shared.epoch.load(Ordering::Acquire) {
        return Some(task);
    }
    let Some(slot) = shared.topology.upgrade() else {
        task.ticket.complete(Completion::Failed { error: ManagerError::Disconnected });
        return None;
    };
    let topo = read_topology(&slot);
    let behind_divert = task.epoch < *divert_below;
    match &task.op {
        Op::Execute { action }
        | Op::Ask { action, .. }
        | Op::Subscribe { action, .. }
        | Op::Unsubscribe { action, .. }
        | Op::Query { action } => match topo.router.classify(action) {
            Route::Single(shard) if shard == st.id && !behind_divert => Some(task),
            route => {
                shared.repart.rerouted_tasks.fetch_add(1, Ordering::Relaxed);
                *divert_below = topo.epoch();
                let _guard = lock(&shared.cross_enqueue);
                redispatch_single(shared, &topo, task, route);
                None
            }
        },
        Op::Confirm { id } | Op::Abort { id } | Op::Expire { id, .. } => {
            let owners = lock(&shared.reservation_index).get(id).cloned();
            match owners {
                // Reservation gone (or never indexed): resolve locally —
                // the shard table is authoritative and reports Unknown.
                // (Reservation ops are never part of a pipelined execute
                // window, so the divert watermark does not apply.)
                None => Some(task),
                Some(owners) if owners.as_slice() == [st.id] => Some(task),
                Some(owners) => {
                    shared.repart.rerouted_tasks.fetch_add(1, Ordering::Relaxed);
                    *divert_below = topo.epoch();
                    let _guard = lock(&shared.cross_enqueue);
                    let SingleTask { op, ticket, submitted, .. } = task;
                    enqueue_multi(&topo, owners, op, ticket, submitted, Credit::Charge);
                    None
                }
            }
        }
    }
}

/// Re-dispatches a single task whose owner set widened.  Owner sets never
/// shrink, so the new route is multi-owner (the `Route::None` and foreign
/// single-owner arms are defensive).  The caller must hold the
/// cross-enqueue lock.
fn redispatch_single(
    shared: &Arc<RuntimeShared>,
    topo: &Arc<Topology>,
    task: SingleTask,
    route: Route,
) {
    let SingleTask { op, ticket: issuer, submitted, .. } = task;
    match (op, route) {
        (op, Route::Single(shard)) => {
            enqueue_single(topo, shard, op, issuer, submitted, Credit::Charge)
        }
        (Op::Unsubscribe { client, action }, Route::Multi(_)) => {
            // The migration promoted the registration to the cross-shard
            // registry; remove it there.
            cross_unsubscribe(shared, client, &action);
            issuer.complete(Completion::Unsubscribed);
        }
        (op, Route::Multi(owners)) => {
            enqueue_multi(topo, owners, op, issuer, submitted, Credit::Charge)
        }
        // Owner sets never shrink; complete with the outcome an unknown
        // action gets on the submission path.
        (op, Route::None) => issuer.complete(settle_unowned(shared, op)),
    }
}

/// Decides whether an epoch-stale multi-owner task is still correctly
/// routed.  The verdict is recorded in the task's rendezvous state by the
/// **first** owner that examines it, and every other owner follows that
/// record — a rendezvous is either processed by all of its owners or
/// re-dispatched by exactly one and skipped by the rest, never half/half.
/// (The pause barriers guarantee that a task whose owner set actually
/// widened is seen by *all* of its owners only after the migration, so a
/// recorded verdict can never contradict an already-deposited vote.)
fn multi_is_live(
    shared: &Arc<RuntimeShared>,
    task: &Arc<MultiTask>,
    divert_below: &mut u64,
) -> bool {
    if task.epoch == shared.epoch.load(Ordering::Acquire) {
        return true;
    }
    let mut sync = lock(&task.sync);
    if let Some(stale) = sync.stale {
        if stale {
            // A skipped (re-dispatched) task raises this follower's divert
            // watermark too: stale-stamped tasks behind it on our queue
            // must not run ahead of the re-dispatched copy.
            *divert_below = (*divert_below).max(shared.epoch.load(Ordering::Acquire));
        }
        return !stale;
    }
    if sync.votes.iter().any(|v| !matches!(v, Vote::Pending)) || sync.verdict.is_some() {
        // Somebody already voted (even conditionally) under the old epoch,
        // so the owner set cannot have changed (its owners could not
        // straddle a migration).
        sync.stale = Some(false);
        return true;
    }
    let current = shared.topology.upgrade().map(|slot| read_topology(&slot));
    let owners = current.as_ref().and_then(|topo| match &task.op {
        Op::Confirm { id } | Op::Abort { id } | Op::Expire { id, .. } => {
            lock(&shared.reservation_index).get(id).cloned()
        }
        Op::Execute { action }
        | Op::Ask { action, .. }
        | Op::Subscribe { action, .. }
        | Op::Unsubscribe { action, .. }
        | Op::Query { action } => Some(topo.router.owners(action)),
    });
    let (stale, owners) = match owners {
        Some(owners) if owners != task.owners => (true, owners),
        _ => (false, Vec::new()),
    };
    sync.stale = Some(stale);
    if !stale {
        return true;
    }
    // This owner re-dispatches with the original ticket; the rest skip.
    // The rendezvous lock is held across the re-enqueue so a follower that
    // observes the stale verdict is guaranteed the re-dispatched copy is
    // already at the queue tails — tasks it diverts afterwards land behind
    // it, preserving the backlog order.
    shared.repart.rerouted_tasks.fetch_add(1, Ordering::Relaxed);
    let issuer = sync.ticket.take();
    if let (Some(topo), Some(issuer)) = (current, issuer) {
        *divert_below = topo.epoch();
        let _guard = lock(&shared.cross_enqueue);
        let op = task.op.clone();
        enqueue_multi(&topo, owners, op, issuer, task.submitted, Credit::Charge);
    }
    false
}

// ---------------------------------------------------------------------------
// The coalesced multi-owner execute rendezvous.
// ---------------------------------------------------------------------------

/// Upper bound on the items one speculative batch may absorb — bounds the
/// cost of recomputing a speculation tail after a denial.
const MAX_BATCH: usize = 128;

/// Publishes the shard's current reservation-table fingerprint, against
/// which conditional votes prove their probes still hold at promotion time.
/// Called after every mutation of `st.reservations`.
fn publish_reservation_fp(shared: &RuntimeShared, st: &ShardState) {
    lock(&shared.reservation_fps).insert(st.id, st.reservation_fingerprint());
}

/// Records the verdict: the single place `MultiSync::verdict` is set.
/// Mirrors a commit into the lock-free [`MultiTask::committed`] flag (read
/// by tag verification without taking this task's lock) and wakes parked
/// owners.
fn set_verdict(task: &MultiTask, sync: &mut MultiSync, verdict: Verdict) {
    task.committed.store(matches!(verdict, Verdict::Commit { .. }), Ordering::Release);
    sync.verdict = Some(verdict);
    task.barrier.notify_all();
}

/// Verifies a conditional vote's validity tag: the epoch is unchanged, the
/// voter's published reservation fingerprint still matches the one its
/// probe ran against, and every assumed predecessor actually decided
/// commit.  All three are machine-checked witnesses — a verified tag means
/// the vote equals the unconditional vote a recompute would produce.
fn tag_valid(shared: &RuntimeShared, tag: &ValidityTag) -> bool {
    if tag.epoch != shared.epoch.load(Ordering::Acquire) {
        return false;
    }
    let published = lock(&shared.reservation_fps)
        .get(&tag.shard)
        .copied()
        .unwrap_or_else(empty_reservation_fingerprint);
    if published != tag.reservation_fp {
        return false;
    }
    assumed_iter(&tag.assumed)
        .all(|w| w.upgrade().is_some_and(|t| t.committed.load(Ordering::Acquire)))
}

/// Promotes every conditional vote whose tag verifies and, when the
/// unconditional count reaches the owner count, decides `Commit`.  Returns
/// whether *this call* decided — the caller propagates the commit along the
/// cascade links once the lock is dropped.
fn try_decide_exec(shared: &RuntimeShared, task: &MultiTask, sync: &mut MultiSync) -> bool {
    if sync.verdict.is_some() {
        return false;
    }
    if sync.yes_votes < task.owners.len() {
        // Promotion can only complete a decision once *every* slot holds a
        // yes or a tagged yes — with any slot still pending the commit is
        // short regardless, so verifying tags early is pure waste that the
        // next deposit would repeat.  The gate keeps the cascade's tag
        // checks linear in the chain instead of quadratic.
        let conditionals = sync.votes.iter().filter(|v| matches!(v, Vote::Conditional(_))).count();
        if sync.yes_votes + conditionals == task.owners.len() {
            let mut promoted = 0u64;
            for vote in sync.votes.iter_mut() {
                if let Vote::Conditional(tag) = vote {
                    if tag_valid(shared, tag) {
                        *vote = Vote::Yes;
                        sync.yes_votes += 1;
                        promoted += 1;
                    }
                }
            }
            if promoted > 0 {
                sync.promoted_any = true;
                shared.cascade_counters.promoted_votes.fetch_add(promoted, Ordering::Relaxed);
            }
        }
    }
    if sync.yes_votes == task.owners.len() {
        if sync.promoted_any {
            shared.cascade_counters.cascaded_commits.fetch_add(1, Ordering::Relaxed);
        }
        let order = shared.log_seq.fetch_add(1, Ordering::Relaxed);
        set_verdict(task, sync, Verdict::Commit { order, granted: true });
        return true;
    }
    false
}

/// Deposits this owner's *unconditional* vote on an execute and decides the
/// task when the vote settles it: a no decides `Deny` immediately (the
/// conjunction is false) and finishes it, while a yes triggers promotion of
/// any verifiable conditional votes and decides `Commit` when the count
/// completes.  Returns whether this call decided.  Must only be called when
/// the outcome of every same-owner-set predecessor is known to the caller
/// and reflected in the vote's base state.  Supersedes this owner's own
/// earlier conditional vote, never an unconditional one.
fn deposit_unconditional_vote(
    shared: &RuntimeShared,
    task: &MultiTask,
    sync: &mut MultiSync,
    pos: usize,
    yes: bool,
    cx: &mut WorkerCtx,
) -> bool {
    if sync.verdict.is_some() || matches!(sync.votes[pos], Vote::Yes) {
        return false;
    }
    if yes {
        sync.votes[pos] = Vote::Yes;
        sync.yes_votes += 1;
        try_decide_exec(shared, task, sync)
    } else {
        sync.votes[pos] = Vote::No;
        finish_multi(shared, task, sync, &Verdict::Deny, cx);
        set_verdict(task, sync, Verdict::Deny);
        true
    }
}

/// Deposits this owner's *conditional* yes vote: the chain advanced through
/// still-undecided predecessors, and `tag` names exactly the assumptions the
/// probe ran under.  The deposit itself runs a decide attempt — the
/// assumptions may already have resolved between the probe and this lock
/// acquisition.
fn deposit_conditional_vote(
    shared: &RuntimeShared,
    task: &MultiTask,
    sync: &mut MultiSync,
    pos: usize,
    tag: ValidityTag,
) -> bool {
    if sync.verdict.is_some() || matches!(sync.votes[pos], Vote::Yes) {
        return false;
    }
    shared.cascade_counters.conditional_votes.fetch_add(1, Ordering::Relaxed);
    sync.votes[pos] = Vote::Conditional(tag);
    try_decide_exec(shared, task, sync)
}

/// Walks the cascade links forward from a freshly committed task, promoting
/// and deciding successors whose conditional votes now verify — the
/// rendezvous-free decided path.  Stops at the first task the walk leaves
/// undecided: its missing votes await a genuinely unresolved owner, not
/// this commit.  Locks strictly forward along the chain, so it cannot
/// deadlock with a voter holding an earlier task's lock.
fn cascade_from(shared: &RuntimeShared, task: &Arc<MultiTask>) {
    let mut cur = Arc::clone(task);
    loop {
        let next = lock(&cur.sync).cascade_next.clone();
        let Some(next) = next else { break };
        if !try_decide_exec(shared, &next, &mut lock(&next.sync)) {
            break;
        }
        cur = next;
    }
}

/// Walks the cascade links forward from a denied task, clearing every
/// conditional vote whose tag assumed the denied commit.  Correctness does
/// not depend on this — such a tag names the denied task and can never
/// verify again — but eager clearing spares every later decide attempt the
/// doomed verification, and the voters re-deposit from the recomputed true
/// state when their in-order resolution passes reach the tasks.
fn invalidate_downstream(shared: &RuntimeShared, denied: &Arc<MultiTask>) {
    let denied_ptr = Arc::as_ptr(denied);
    let mut cur = Arc::clone(denied);
    loop {
        let next = lock(&cur.sync).cascade_next.clone();
        let Some(next) = next else { break };
        {
            let mut sync = lock(&next.sync);
            if sync.verdict.is_none() {
                let mut cleared = 0u64;
                for vote in sync.votes.iter_mut() {
                    if let Vote::Conditional(tag) = vote {
                        if assumed_iter(&tag.assumed).any(|w| std::ptr::eq(w.as_ptr(), denied_ptr))
                        {
                            *vote = Vote::Pending;
                            cleared += 1;
                        }
                    }
                }
                if cleared > 0 {
                    shared.cascade_counters.invalidated_votes.fetch_add(cleared, Ordering::Relaxed);
                }
            }
        }
        cur = next;
    }
}

/// Cascades or invalidates along the chain links for every task the caller
/// decided while holding its rendezvous lock.  Must be called with no
/// rendezvous lock held — the walks lock forward along the chain.
fn propagate_decisions(shared: &RuntimeShared, decided: &mut Vec<Arc<MultiTask>>) {
    for task in decided.drain(..) {
        if task.committed.load(Ordering::Acquire) {
            cascade_from(shared, &task);
        } else {
            invalidate_downstream(shared, &task);
        }
    }
}

/// One speculative batch: a consecutive queue run of multi-owner executes of
/// a single owner set plus the single-owner executes interleaved between
/// them, in queue order.
struct Batch {
    owners: Vec<usize>,
    items: Vec<BatchItem>,
}

enum BatchItem {
    /// A multi-owner execute (rendezvous task).
    Exec(Arc<MultiTask>),
    /// A single-owner execute, taken when the item resolves.
    Local(Option<SingleTask>),
}

impl BatchItem {
    /// The executed action of an item not resolved yet.
    fn action(&self) -> &Action {
        let op = match self {
            BatchItem::Exec(task) => &task.op,
            BatchItem::Local(task) => &task.as_ref().expect("an unresolved item").op,
        };
        let Op::Execute { action } = op else {
            unreachable!("only execute tasks join a batch");
        };
        action
    }
}

impl Batch {
    fn new(first: Arc<MultiTask>) -> Batch {
        Batch { owners: first.owners.clone(), items: vec![BatchItem::Exec(first)] }
    }

    fn push_exec(&mut self, task: Arc<MultiTask>) {
        // Link the queue-order predecessor to this task.  Every owner
        // coalesces the identical queue run (enqueue order = lock order),
        // so each sets the same link; the first write wins and the rest are
        // no-ops.
        if let Some(prev) = self.items.iter().rev().find_map(|item| match item {
            BatchItem::Exec(t) => Some(t),
            BatchItem::Local(_) => None,
        }) {
            let mut sync = lock(&prev.sync);
            if sync.cascade_next.is_none() {
                sync.cascade_next = Some(Arc::clone(&task));
            }
        }
        self.items.push(BatchItem::Exec(task));
    }

    fn push_local(&mut self, task: SingleTask) {
        self.items.push(BatchItem::Local(Some(task)));
    }
}

/// Speculative outcome of one batch item on this shard.
enum Spec {
    /// A multi-owner execute's local vote: `prepared` carries the tentative
    /// successor of a yes vote; `assumed` is true iff the chain advanced
    /// through this task on an *assumption* (our yes vote deposited or held
    /// back while the task was undecided) rather than a known outcome —
    /// only those assumptions can fail and force a tail recompute.
    Vote { prepared: Option<StateRef>, assumed: bool },
    /// A single-owner execute accepted on the chain, with its successor.
    Accept(StateRef),
    /// A single-owner execute denied on the chain.
    Deny,
    /// Already resolved and applied.
    Done,
}

/// Scratch state shared between the speculative and resolution passes of
/// [`process_batch`]: the per-item verdicts and the tasks decided while a
/// rendezvous lock was held (propagated along the cascade links once no
/// lock is held).
struct SpecPass {
    specs: Vec<Spec>,
    decided: Vec<Arc<MultiTask>>,
}

/// The speculative pass over `batch[from..]` on this shard.
///
/// Walks the items in queue order maintaining a chain of tentative
/// successors.  As long as the chain is *unconditional* — every multi-owner
/// execute so far was already decided, insta-denied by this shard's own no
/// vote, or committed by this shard's completing yes vote — votes are
/// deposited (and tasks decided) on the spot.  The first yes vote that
/// leaves a task undecided makes the rest of the chain conditional: later
/// yes votes are still deposited, as [`Vote::Conditional`] tagged with the
/// exact assumptions the chain ran through, so the prefix resolving
/// all-commit decides the whole chain with no further rendezvous.
/// Tasks decided along the way are pushed onto `decided` for the caller
/// to propagate along the cascade links once no lock is held.
fn compute_specs(
    shared: &RuntimeShared,
    st: &ShardState,
    batch: &Batch,
    from: usize,
    pos: usize,
    pass: &mut SpecPass,
    cx: &mut WorkerCtx,
) {
    let SpecPass { specs, decided } = pass;
    specs.truncate(from);
    let epoch = shared.epoch.load(Ordering::Acquire);
    let mut chain: Option<StateRef> = None;
    let mut unconditional = true;
    // The assumed-commit prefix of the conditional chain — a persistent
    // cons list every later conditional vote's tag snapshots in O(1).
    let mut assumed_commits: Option<Arc<AssumedLink>> = None;
    for item in &batch.items[from..] {
        let (next, reservation_fp) = st.probe(chain.as_ref(), item.action());
        match item {
            BatchItem::Local(_) => {
                // A single-owner execute: decided by this shard alone, but
                // only *applied* at resolution, in queue order.
                match next {
                    Some(nx) => {
                        chain = Some(nx.clone());
                        specs.push(Spec::Accept(nx));
                    }
                    None => specs.push(Spec::Deny),
                }
            }
            BatchItem::Exec(task) => {
                let mut assumed = false;
                {
                    let mut sync = lock(&task.sync);
                    match &sync.verdict {
                        Some(Verdict::Commit { .. }) => {
                            // A commit requires this shard's vote, which is
                            // deposited at most once per task — so a commit
                            // observed here carries our earlier yes, and
                            // the chain advances on the known outcome.
                            if let Some(nx) = &next {
                                chain = Some(nx.clone());
                            }
                        }
                        Some(_) => {
                            // Denied, an outcome already known: the chain
                            // skips it.
                        }
                        None => {
                            if unconditional {
                                let yes = next.is_some();
                                if deposit_unconditional_vote(shared, task, &mut sync, pos, yes, cx)
                                {
                                    decided.push(Arc::clone(task));
                                }
                            } else if next.is_some() {
                                // A yes on a conditional chain: deposit it
                                // tagged with the assumptions instead of
                                // holding it back.  (A conditional *no*
                                // stays withheld — its task cannot commit
                                // without our yes, so silence is safe.)
                                let tag = ValidityTag {
                                    epoch,
                                    shard: st.id,
                                    reservation_fp,
                                    assumed: assumed_commits.clone(),
                                };
                                if deposit_conditional_vote(shared, task, &mut sync, pos, tag) {
                                    decided.push(Arc::clone(task));
                                }
                            }
                            match (&sync.verdict, &next) {
                                (Some(Verdict::Commit { .. }), Some(nx)) => {
                                    // Our yes completed the commit (possibly
                                    // by promoting the other owners' tagged
                                    // votes): outcome known, chain advances.
                                    chain = Some(nx.clone());
                                }
                                (Some(_), _) | (_, None) => {
                                    // Insta-denied by our no, or a (possibly
                                    // conditional) no vote: the chain skips
                                    // it either way.  (A commit can never
                                    // coexist with our no vote — it requires
                                    // this shard's yes.)
                                }
                                (None, Some(nx)) => {
                                    // A yes on an undecided task — deposited
                                    // (conditionally past the first) with
                                    // the chain *assuming* the commit from
                                    // here on.
                                    chain = Some(nx.clone());
                                    assumed = true;
                                    unconditional = false;
                                    assumed_commits = Some(Arc::new(AssumedLink {
                                        task: Arc::downgrade(task),
                                        prev: assumed_commits.take(),
                                    }));
                                }
                            }
                        }
                    }
                }
                specs.push(Spec::Vote { prepared: next, assumed });
            }
        }
    }
}

/// Processes one speculative batch.  The speculative pass votes for (and
/// often outright decides) the whole run without parking; the resolution
/// pass then walks the batch strictly in queue order, applying every item
/// against its true predecessor state — when a commit assumption turns out
/// wrong, the tail of the speculation is recomputed before the next vote is
/// deposited.
///
/// Per-action outcomes, the merged log and the statistics are identical to
/// unbatched queue processing; what changes is that owners park only on
/// commit-pending rendezvous instead of once per cross-shard action.
fn process_batch(
    shared: &Arc<RuntimeShared>,
    st: &mut ShardState,
    mut batch: Batch,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
) {
    let pos = batch
        .owners
        .iter()
        .position(|&o| o == st.id)
        .expect("multi-owner task routed to a non-owner shard");

    // ---- Speculative pass: one chain over the whole batch. ----
    let mut pass = SpecPass {
        specs: Vec::with_capacity(batch.items.len()),
        // Tasks decided while holding a rendezvous lock, propagated along
        // the cascade links as soon as the lock is dropped.
        decided: Vec::new(),
    };
    compute_specs(shared, st, &batch, 0, pos, &mut pass, cx);
    propagate_decisions(shared, &mut pass.decided);

    // ---- Resolution pass: strictly in queue order. ----
    // True while the outcomes observed so far match the assumptions the
    // current `specs` tail was computed under.
    let mut valid = true;
    for i in 0..batch.items.len() {
        if !valid {
            // A commit assumption failed at an earlier item: rebuild the
            // tail from the true committed state.  The chain is
            // unconditional again up to its first undecided yes.
            compute_specs(shared, st, &batch, i, pos, &mut pass, cx);
            propagate_decisions(shared, &mut pass.decided);
            valid = true;
        }
        let spec = std::mem::replace(&mut pass.specs[i], Spec::Done);
        let task = match &mut batch.items[i] {
            BatchItem::Exec(task) => Arc::clone(task),
            BatchItem::Local(task) => {
                let SingleTask { op, ticket, submitted, .. } =
                    task.take().expect("local resolved once");
                let completion = match spec {
                    Spec::Accept(next) => {
                        let vote = LocalVote { ok: true, prepared: Some(next), removed: None };
                        settle_single(shared, st, &op, vote)
                    }
                    Spec::Deny => {
                        account(shared, DENIED, StatDelta::ZERO);
                        Completion::Denied
                    }
                    _ => unreachable!("a local item resolves once, on its own spec"),
                };
                ticket.complete(completion);
                cx.record(submitted);
                continue;
            }
        };
        let Spec::Vote { prepared, assumed } = spec else {
            unreachable!("a multi-owner item resolves once, on its vote");
        };
        // Reaching this item in order means every predecessor's outcome is
        // known and reflected in `specs`: the vote is unconditional now,
        // superseding a tagged one deposited by the speculative pass.  (A
        // vote that decides leaves nothing to wait for.)
        let mut sync = lock(&task.sync);
        let yes = prepared.is_some();
        if deposit_unconditional_vote(shared, &task, &mut sync, pos, yes, cx) {
            pass.decided.push(Arc::clone(&task));
        }
        let verdict = await_verdict(shared, &task, sync, help, cx);
        propagate_decisions(shared, &mut pass.decided);
        match verdict {
            // A commit requires this shard's yes vote, and with it the
            // prepare `apply` installs.
            Verdict::Commit { .. } => {
                let vote = LocalVote { ok: true, prepared, removed: None };
                apply_multi(shared, st, &task, pos, vote, &verdict, cx);
            }
            // The chain assumed this commit; the tail must be recomputed
            // against the true state.
            _ if assumed => valid = false,
            _ => {}
        }
    }
    propagate_decisions(shared, &mut pass.decided);
}

// ---------------------------------------------------------------------------
// Driving the shard kernel.  Every operation takes the same four steps —
// `ShardState::vote` on each owner, one `conclude`, `ShardState::apply` on
// each owner, one `finish` — and the paths differ only in how the owners
// meet: a single owner takes all four inline, several owners rendezvous
// after the first and the third (`await_verdict`, `apply_multi`), and the
// coalesced executes bring their own votes and verdicts (the cascade above)
// and join at the same rendezvous.
// ---------------------------------------------------------------------------

/// Phase 1 on the shard this worker holds.
fn vote_local(shared: &RuntimeShared, st: &mut ShardState, op: &Op) -> LocalVote {
    let vote = st.vote(op, shared.variant);
    if vote.removed.is_some() {
        publish_reservation_fp(shared, st);
    }
    vote
}

/// Phase 2 on the shard this worker holds.
fn apply_local(
    shared: &RuntimeShared,
    st: &mut ShardState,
    op: &Op,
    vote: LocalVote,
    verdict: &Verdict,
    role: Role,
) -> Effects {
    // The cross-subscribed actions this shard co-owns, whose bits a commit
    // reports; it skips the registry lock entirely while there are none (the
    // common case).
    let commits = matches!(verdict, Verdict::Commit { .. });
    let watched: Vec<Action> = if commits && shared.cross_entry_count.load(Ordering::Relaxed) > 0 {
        lock(&shared.cross_subscriptions).watched(st.id).cloned().collect()
    } else {
        Vec::new()
    };
    let fx = st.apply(op, vote, verdict, role, &watched, |bits| {
        lock(&shared.cross_subscriptions).merge(bits)
    });
    if matches!(verdict, Verdict::Reserve(_)) {
        publish_reservation_fp(shared, st);
    }
    fx
}

/// The verdict from the owners' votes — one owner's or many's — with what
/// the owners share kept in step: the commit sequence, the reservation ids
/// and index, the clock, the registry of subscriptions several owners share.
fn conclude(shared: &RuntimeShared, op: &Op, owners: &[usize], tally: &Tally) -> Verdict {
    match op {
        Op::Confirm { id } | Op::Abort { id } => {
            lock(&shared.reservation_index).remove(id);
        }
        Op::Expire { id, .. } if tally.removed.is_some() => {
            lock(&shared.reservation_index).remove(id);
        }
        Op::Subscribe { client, action } if owners.len() > 1 => {
            return Verdict::Status(subscribe_cross(shared, *client, action, owners, tally.votes));
        }
        _ => {}
    }
    Verdict::of(
        op,
        shared.variant,
        tally.ok,
        tally.removed,
        || shared.log_seq.fetch_add(1, Ordering::Relaxed),
        |client, action| shared.new_reservation(client, action),
    )
}

/// Registers a subscription several owners share and returns its status.
/// The other owners are parked at the rendezvous, so `votes` — a yes where
/// the action is permitted — are a consistent snapshot: the same guarantee
/// the blocking manager gets from holding all owner locks while registering.
fn subscribe_cross(
    shared: &RuntimeShared,
    client: ClientId,
    action: &Action,
    owners: &[usize],
    votes: &[Vote],
) -> bool {
    let permitted = shared.with_cross(|cross| {
        cross.subscribe(client, action, owners, || {
            votes.iter().map(|v| matches!(v, Vote::Yes)).collect()
        })
    });
    if let Some(hub) = &shared.durability {
        hub.log_meta(&WalRecord::Subscribe { client, action: action.clone(), permitted });
    }
    permitted
}

/// What the last owner to apply does, once per operation, for one owner and
/// for many alike, with what the owners' `apply` left (`fx`, the default if
/// no owner had anything to apply): merge the bits of shared subscriptions,
/// count the statistics, deliver the notifications, index a new reservation
/// — and say what the client is told.
fn finish(
    shared: &RuntimeShared,
    op: &Op,
    owners: &[usize],
    verdict: &Verdict,
    fx: Effects,
) -> Completion {
    let mut notes = fx.notes;
    if !fx.cross_bits.is_empty() {
        notes.extend(lock(&shared.cross_subscriptions).merge(&fx.cross_bits));
    }
    let mut total = verdict.total(op);
    total.notifications = notes.len() as u64;
    account(shared, total, fx.delta);
    deliver(shared, &notes);
    match (verdict, op) {
        (Verdict::Commit { .. }, Op::Execute { .. }) => {
            Completion::Executed { notifications: notes }
        }
        // The combined protocol commits an ask on the spot; the reply
        // carries no reservation to confirm.
        (Verdict::Commit { .. }, Op::Ask { .. }) => Completion::Granted { reservation: 0 },
        (Verdict::Commit { .. }, _) => Completion::Confirmed { notifications: notes },
        (Verdict::Reserve(reservation), _) => {
            lock(&shared.reservation_index).insert(reservation.id, owners.to_vec());
            if reservation.expires_at != u64::MAX {
                lock(&shared.timers).schedule(
                    reservation.expires_at,
                    ExpiryEvent { id: reservation.id, owners: owners.to_vec() },
                );
            }
            Completion::Granted { reservation: reservation.id }
        }
        (Verdict::Deny, _) => Completion::Denied,
        (Verdict::Unknown, Op::Confirm { id } | Op::Abort { id }) => {
            Completion::Failed { error: ManagerError::UnknownReservation { id: *id } }
        }
        (Verdict::Unknown, _) => Completion::Expired { reservation: None },
        (Verdict::Rejected(reservation), _) => Completion::Failed {
            error: ManagerError::RejectedConfirmation { action: reservation.action.to_string() },
        },
        (Verdict::Released(reservation), Op::Abort { .. }) => {
            Completion::Aborted { reservation: reservation.clone() }
        }
        (Verdict::Released(reservation), _) => {
            Completion::Expired { reservation: Some(reservation.clone()) }
        }
        (Verdict::Status(permitted), Op::Subscribe { .. }) => {
            Completion::Subscribed { permitted: *permitted }
        }
        (Verdict::Status(_), Op::Unsubscribe { .. }) => Completion::Unsubscribed,
        (Verdict::Status(permitted), _) => Completion::Status { permitted: *permitted },
    }
}

/// Counts one operation's statistics, once: `total` on the live counters
/// (asks aside — a submission counts as an ask when it arrives, whatever
/// becomes of it), and the part of it no shard record carried as an event on
/// the meta stream, so that recovered counters equal the live ones.
fn account(shared: &RuntimeShared, total: StatDelta, journaled: StatDelta) {
    let count = |counter: &AtomicU64, n: u64| {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    };
    let stats = &shared.stats;
    count(&stats.grants, total.grants);
    count(&stats.denials, total.denials);
    count(&stats.confirmations, total.confirmations);
    count(&stats.expired_reservations, total.expired);
    count(&stats.aborted_reservations, total.aborted);
    count(&stats.notifications, total.notifications);
    if shared.durability.is_some() {
        meta_event(shared, total.minus(&journaled));
    }
}

/// The rest of an operation whose only owner has voted: one owner is all
/// the owners, so conclude, apply and finish run inline.
fn settle_single(
    shared: &RuntimeShared,
    st: &mut ShardState,
    op: &Op,
    vote: LocalVote,
) -> Completion {
    let owners = [st.id];
    let tally = Tally { ok: vote.ok, removed: vote.removed.as_ref(), votes: &[] };
    let verdict = conclude(shared, op, &owners, &tally);
    let fx = apply_local(shared, st, op, vote, &verdict, Role::Sole);
    finish(shared, op, &owners, &verdict, fx)
}

fn process_single(
    shared: &RuntimeShared,
    st: &mut ShardState,
    task: SingleTask,
    cx: &mut WorkerCtx,
) {
    let SingleTask { op, ticket, submitted, .. } = task;
    let vote = vote_local(shared, st, &op);
    ticket.complete(settle_single(shared, st, &op, vote));
    cx.record(submitted);
}

/// A multi-owner operation other than an execute, on one of its owners:
/// deposit this owner's unconditional vote — the last owner to vote
/// concludes — then wait for the verdict and apply it.  While any owner is
/// parked here its engine cannot move: the rendezvous is the queue-based
/// equivalent of holding all owner locks.
fn process_multi(
    shared: &Arc<RuntimeShared>,
    st: &mut ShardState,
    task: &MultiTask,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
) {
    let pos = task
        .owners
        .iter()
        .position(|&o| o == st.id)
        .expect("multi-owner task routed to a non-owner shard");
    let vote = vote_local(shared, st, &task.op);
    let mut sync = lock(&task.sync);
    sync.votes[pos] = if vote.ok { Vote::Yes } else { Vote::No };
    if sync.removed.is_none() {
        sync.removed.clone_from(&vote.removed);
    }
    if sync.votes.iter().all(|v| !matches!(v, Vote::Pending)) {
        let ok = sync.votes.iter().all(|v| matches!(v, Vote::Yes));
        let tally = Tally { ok, removed: sync.removed.as_ref(), votes: &sync.votes };
        let verdict = conclude(shared, &task.op, &task.owners, &tally);
        if !verdict.applies() {
            // Nothing to apply anywhere: the others only need to see the
            // verdict and move on.
            finish_multi(shared, task, &mut sync, &verdict, cx);
        }
        set_verdict(task, &mut sync, verdict);
    }
    let verdict = await_verdict(shared, task, sync, help, cx);
    if verdict.applies() {
        apply_multi(shared, st, task, pos, vote, &verdict, cx);
    }
}

/// Waits at a multi-owner task's rendezvous until its verdict is in, and
/// returns it.  Help-while-waiting: a co-owner's vote may be queued behind
/// another shard this same worker owns — with fewer workers than shards,
/// parking unconditionally here would deadlock the rendezvous.  So each
/// round serves one task from an owned sibling shard ([`help_one`], bounded
/// by this task's sequence), and parks briefly only when nothing helps (a
/// verdict wakes the barrier at once; the timeout just bounds how long
/// fresh enqueues on sibling shards go unseen).
fn await_verdict<'a>(
    shared: &Arc<RuntimeShared>,
    task: &'a MultiTask,
    mut sync: MutexGuard<'a, MultiSync>,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
) -> Verdict {
    loop {
        if let Some(verdict) = &sync.verdict {
            return verdict.clone();
        }
        drop(sync);
        if !help_one(shared, help, cx, task.seq) {
            cx.flush(shared);
            sync = lock(&task.sync);
            if sync.verdict.is_none() {
                sync =
                    task.barrier.wait_timeout(sync, HELP_PARK).unwrap_or_else(|e| e.into_inner()).0;
            }
            continue;
        }
        sync = lock(&task.sync);
    }
}

/// Phase 2 of a multi-owner operation on this owner; the last owner to
/// apply finishes it.
fn apply_multi(
    shared: &RuntimeShared,
    st: &mut ShardState,
    task: &MultiTask,
    pos: usize,
    vote: LocalVote,
    verdict: &Verdict,
    cx: &mut WorkerCtx,
) {
    let fx = apply_local(shared, st, &task.op, vote, verdict, Role::at(pos));
    let mut sync = lock(&task.sync);
    sync.applied += 1;
    if !fx.is_empty() {
        sync.effects.push((pos, fx));
    }
    if sync.applied == task.owners.len() {
        finish_multi(shared, task, &mut sync, verdict, cx);
    }
}

/// [`finish`] for a multi-owner operation, completing its ticket.
fn finish_multi(
    shared: &RuntimeShared,
    task: &MultiTask,
    sync: &mut MultiSync,
    verdict: &Verdict,
    cx: &mut WorkerCtx,
) {
    let fx = Effects::merged(&mut sync.effects);
    let completion = finish(shared, &task.op, &task.owners, verdict, fx);
    if let Some(issuer) = sync.ticket.take() {
        issuer.complete(completion);
    }
    cx.record(task.submitted);
}

/// Sends notifications to the registered per-client channels.
fn deliver(shared: &RuntimeShared, notes: &[Notification]) {
    if notes.is_empty() {
        return;
    }
    let channels = lock(&shared.notification_channels);
    for note in notes {
        if let Some(channel) = channels.get(&note.client) {
            let _ = channel.send(note.clone());
        }
    }
}

impl RuntimeShared {
    /// Changes the registry of subscriptions several owners share, keeping
    /// the entry count commits read without its lock in step.
    fn with_cross<R>(&self, change: impl FnOnce(&mut CrossSubscriptions) -> R) -> R {
        let mut cross = lock(&self.cross_subscriptions);
        let out = change(&mut cross);
        self.cross_entry_count.store(cross.action_count() as u64, Ordering::Relaxed);
        out
    }

    /// The vault the checkpoints archive the commit log in, if any: where
    /// readers of the whole log find what the shards released.
    fn vault(&self) -> Option<&dyn Vault> {
        self.durability.as_ref().map(|hub| hub.vault().as_ref())
    }

    fn new_reservation(&self, client: ClientId, action: &Action) -> Reservation {
        let now = self.clock.load(Ordering::Relaxed);
        let expires_at = match self.variant {
            ProtocolVariant::Simple => u64::MAX,
            ProtocolVariant::Leased { lease } => now + lease,
            ProtocolVariant::Combined => unreachable!("combined grants commit immediately"),
        };
        Reservation {
            id: self.next_reservation.fetch_add(1, Ordering::Relaxed),
            action: action.clone(),
            client,
            granted_at: now,
            expires_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InteractionManager;
    use ix_core::{parse, Value};

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
            ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined)
                .unwrap();
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
            ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined)
                .unwrap();
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
        assert!(matches!(
            session.confirm_blocking(r),
            Err(ManagerError::UnknownReservation { .. })
        ));
    }

    #[test]
    fn cross_shard_execute_commits_atomically() {
        let runtime =
            ManagerRuntime::with_protocol(&coupled_constraint(), ProtocolVariant::Combined)
                .unwrap();
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
        assert!(matches!(
            session.confirm_blocking(r),
            Err(ManagerError::UnknownReservation { .. })
        ));
        assert_eq!(runtime.log().len(), 0);
    }

    #[test]
    fn subscriptions_notify_via_session_channels() {
        let runtime =
            ManagerRuntime::with_protocol(&patient_constraint(), ProtocolVariant::Combined)
                .unwrap();
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
    fn cross_shard_subscriptions_report_the_conjunction() {
        let runtime =
            ManagerRuntime::with_protocol(&coupled_constraint(), ProtocolVariant::Combined)
                .unwrap();
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
        assert!(matches!(
            session.confirm_blocking(r),
            Err(ManagerError::UnknownReservation { .. })
        ));
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
                delta: StatDelta { asks: 1, grants: 1, confirmations: 1, ..StatDelta::ZERO },
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
                &WalRecord::Reserve { reservation: lease(70), delta: StatDelta::ZERO },
            );
        }
        // Reservation 71: granted everywhere, but shard 2 also journaled
        // the release before the crash — the removal is durable, so
        // recovery drops the holders that remain.
        for shard in 0..4usize {
            hub.log_shard(
                shard,
                &WalRecord::Reserve { reservation: lease(71), delta: StatDelta::ZERO },
            );
        }
        hub.log_shard(2, &WalRecord::Release { id: 71, delta: StatDelta::ZERO });
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
        let slots = runtime.shared.pool.slot_snapshot();
        let before: Vec<usize> = stuck.iter().map(|&s| slots[s].rx.len()).collect();
        std::thread::scope(|scope| {
            let asker = scope.spawn(|| (runtime.log(), runtime.tier_stats()));
            let deadline = Instant::now() + Duration::from_secs(2);
            let queued = || stuck.iter().zip(&before).all(|(&s, &n)| slots[s].rx.len() > n);
            while !queued() && Instant::now() < deadline {
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
        let (entered_tx, entered_rx) = unbounded();
        let (release_tx, release_rx) = unbounded::<()>();
        let hold = Task::Control(Box::new(move |_| {
            entered_tx.send(()).unwrap();
            let _ = release_rx.recv();
        }));
        assert!(topo.queues[0].send(hold).is_ok());
        topo.pool.core.wake_shard(0);
        entered_rx.recv().unwrap();
        let mut sent = ring_word(2, 50);
        let tickets = session.submit_batch(&sent);
        let (log, tiers) = ask_behind_backlog(&runtime, &[0, 1], || drop(release_tx));
        assert_log_holds(&log, &sent, 2);
        assert!(tickets.iter().all(|t| t.poll().is_some()));
        assert_eq!(tiers, runtime.tier_stats());

        // Forced: shard 0 is Suspended by a pause barrier in flight.
        let (state_tx, state_rx) = unbounded();
        let (resume_tx, resume_rx) = unbounded();
        assert!(topo.queues[0].send(Task::Pause(PauseTask { state_tx, resume_rx })).is_ok());
        topo.pool.core.wake_shard(0);
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
            let (entered_tx, entered_rx) = unbounded();
            let (release_tx, release_rx) = unbounded::<()>();
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
        let (entered_tx, entered_rx) = unbounded();
        let (release_tx, release_rx) = unbounded::<()>();
        let hold = Task::Control(Box::new(move |_| {
            entered_tx.send(()).unwrap();
            let _ = release_rx.recv();
        }));
        assert!(topo.queues[0].send(hold).is_ok());
        topo.pool.core.wake_shard(0);
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
        hold: Mutex<Option<(Sender<()>, Receiver<()>)>>,
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
            let (entered_tx, entered_rx) = unbounded();
            let (release_tx, release_rx) = unbounded::<()>();
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
        assert!(matches!(
            session.execute(&Action::nullary("a_0")).wait(),
            Completion::Executed { .. }
        ));
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
}
