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
//!   are gone, and nothing inside the state is locked.  The modules below
//!   are the *drivers* of that kernel: the single-owner path, the one
//!   rendezvous of several owners (whose executes coalesce into a cascade)
//!   and crash recovery all vote, conclude, apply and finish through the
//!   same four steps;
//! * **an ordered task queue per shard**: submissions become tasks; a shard
//!   executes its tasks strictly in queue order;
//! * **completion tickets**: every submission returns a [`Ticket`](crate::Ticket)
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
//!   The shard topology (partition + queues) lives behind an epoch-versioned
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
//!
//! One module per decision: `admission`, `slots` (the pool, slot phases and
//! caller frames), `session` (submission), `cross` (the rendezvous of several
//! owners), `repartition`, and `drive` (the kernel's four steps).  This root
//! holds the handle, its options and reports, construction and shutdown.

mod admission;
mod cross;
mod drive;
mod repartition;
mod session;
mod slots;

pub use admission::{LoadReport, ShardLoad};
pub use cross::CascadeStats;
pub use repartition::{RepartitionReport, RepartitionStats};
pub use session::Session;
pub(crate) use slots::{ask_shards, control, Answer};

use crate::durability::{self, durability_err, DurabilityHub};
use crate::error::{ManagerError, ManagerResult};
use crate::lock;
use crate::shard::ShardState;
use crate::subscription::{ClientId, CrossSubscriptions, Notification, SubscriptionRegistry};
use crate::timer::Timers;
use crate::{ManagerStats, ProtocolVariant, Reservation, SharedStats};
use cross::CascadeCounters;
use ix_core::{Action, Expr, Partition};
use ix_durable::{FileVault, FsyncPolicy, Vault};
use ix_state::TierStats;
use session::advance_clock;
use slots::{host_parallelism, pool_worker, retire_unstarted, seat_shard, PoolCtl, ShardSlot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, Weak};

/// Construction options of a [`ManagerRuntime`] (by default: the simple
/// protocol, and every knob below off or 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// One immutable snapshot of the runtime's shard topology: the
/// epoch-versioned partition that routes every action, and the shard slots
/// (index = shard id) that hold each shard's task queue and admission gate,
/// plus the joined expression the runtime currently enforces.
///
/// Submissions clone the current snapshot, classify against its partition, and
/// stamp their tasks with its epoch.  A repartition installs a *new*
/// snapshot (existing shards keep their slots — shard ids are stable, new
/// shards append), so a worker that dequeues a task stamped with an older
/// epoch knows the routing decision may be stale and re-checks it against
/// the current topology instead of misdelivering the task.
pub(crate) struct Topology {
    partition: Partition,
    /// The shards' slots, shared by [`Arc`] with the pool's bench and across
    /// topology snapshots — so credits charged under an old snapshot
    /// release correctly under the new one.
    pub(crate) slots: Vec<Arc<ShardSlot>>,
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
        self.partition.epoch()
    }
}

/// The swappable topology slot.  Held strongly by the runtime handle and
/// its sessions; workers reach it through the [`Weak`] in
/// [`RuntimeShared`], so once every strong handle is dropped nothing can
/// queue a task any more: a worker that finds a shard's queue empty and the
/// weak handle dead finishes the shard, and exits with the last one.
pub(crate) type TopologySlot = RwLock<Arc<Topology>>;

/// Reads the current topology snapshot.
pub(crate) fn read_topology(slot: &TopologySlot) -> Arc<Topology> {
    Arc::clone(&slot.read().unwrap_or_else(|e| e.into_inner()))
}

/// Everything a worker, a session, and the runtime handle share.  Note that
/// the topology is deliberately **not** strongly held in here: workers hold
/// a weak handle, so dropping the runtime and its sessions lets them finish
/// every shard and exit.
pub(crate) struct RuntimeShared {
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
    pub(crate) persisting: Mutex<()>,
    reservation_index: Mutex<HashMap<u64, Vec<usize>>>,
    pub(crate) cross_subscriptions: Mutex<CrossSubscriptions>,
    pub(crate) orphan_subscriptions: Mutex<SubscriptionRegistry>,
    notification_channels: Mutex<HashMap<ClientId, mpsc::Sender<Notification>>>,
    /// Number of registered cross-shard subscription entries — commits skip
    /// the registry lock entirely while this is zero (the common case).
    cross_entry_count: AtomicU64,
    timers: Mutex<Timers<u64>>,
    /// The write-ahead vault behind the durable runtime (`None` = the
    /// in-memory runtime).  Every shard state journals its own stream
    /// through its own clone; this handle serves the meta-stream events and
    /// the checkpoint/recovery machinery.
    pub(crate) durability: Option<DurabilityHub>,
    pub(crate) clock: AtomicU64,
    pub(crate) log_seq: AtomicU64,
    pub(crate) next_reservation: AtomicU64,
    stats: SharedStats,
    /// Counters of the repartitioning machinery: rare events, so a lock.
    repart: Mutex<RepartitionStats>,
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
    /// units; workers are the OS threads that serve them (ARCHITECTURE.md,
    /// "Caller frames and the pool").
    pool: Arc<PoolCtl>,
}

/// The session-oriented runtime.  Create it once, hand [`Session`]s to
/// clients, grow it live with [`ManagerRuntime::add_constraint`] /
/// [`ManagerRuntime::couple`], and drop or [`ManagerRuntime::shutdown`] it
/// when done.
pub struct ManagerRuntime {
    shared: Arc<RuntimeShared>,
    topology: Arc<TopologySlot>,
}

impl std::fmt::Debug for ManagerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topo = read_topology(&self.topology);
        f.debug_struct("ManagerRuntime")
            .field("shards", &topo.slots.len())
            .field("epoch", &topo.epoch())
            .field("variant", &self.shared.variant)
            .finish()
    }
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

/// Runtime-global state a recovery seeds the shared block with; the default
/// is the fresh-construction state.
pub(crate) struct RecoveredGlobals {
    pub(crate) clock: u64,
    pub(crate) log_seq: u64,
    pub(crate) next_reservation: u64,
    pub(crate) stats: ManagerStats,
    pub(crate) reservation_index: HashMap<u64, Vec<usize>>,
    pub(crate) timers: Timers<u64>,
    pub(crate) cross_subscriptions: CrossSubscriptions,
    pub(crate) orphan_subscriptions: SubscriptionRegistry,
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

/// The one runtime constructor: wires the topology, the shared block, and
/// the worker threads from the shard states — fresh construction, durable
/// construction, and crash recovery all funnel through here.
pub(crate) fn spawn_runtime(
    expr: &Expr,
    partition: Partition,
    options: RuntimeOptions,
    hub: Option<DurabilityHub>,
    seeds: Vec<ShardState>,
    globals: RecoveredGlobals,
) -> ManagerResult<ManagerRuntime> {
    let epoch = partition.epoch();
    let workers = match options.worker_threads {
        0 => host_parallelism(),
        n => n,
    };
    let pool = Arc::new(PoolCtl::new(workers));
    // Conditional-vote verification reads the published fingerprints, so
    // recovered reservation tables must be visible before any worker serves
    // its first task.
    let fps = seeds.iter().map(|st| (st.id, st.reservation_fingerprint())).collect();
    let slots = seeds.into_iter().map(|st| seat_shard(&pool, st, options.queue_limit)).collect();
    let topology = Arc::new(RwLock::new(Arc::new(Topology {
        partition,
        slots,
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
        repart: Mutex::default(),
        reservation_fps: Mutex::new(fps),
        cascade_counters: CascadeCounters::default(),
        queue_metrics: options.queue_metrics,
        queue_samples: Mutex::new(Vec::new()),
        queue_limit: options.queue_limit,
        pool: Arc::clone(&pool),
    });
    // No worker thread starts here: each starts with the first task queued
    // for it.  The pool outlives the runtime handle inside `shared`, hence
    // the weak handle — a wake-up after everything else is gone starts
    // nothing.
    let weak = Arc::downgrade(&shared);
    pool.core.set_spawner(Box::new(move |me| {
        let shared = weak.upgrade()?;
        Some(std::thread::spawn(move || pool_worker(shared, me)))
    }));
    Ok(ManagerRuntime { shared, topology })
}

/// A runtime in the expression's initial state: one fresh shard per
/// sync-component, journaling through `hub` if there is one.
fn spawn_fresh(
    expr: &Expr,
    options: RuntimeOptions,
    hub: Option<DurabilityHub>,
) -> ManagerResult<ManagerRuntime> {
    let partition = Partition::of(expr);
    if let Some(hub) = &hub {
        // A used vault is recovered, never journaled over: its streams and
        // topology belong to the runtime that wrote them.
        if !hub.vault().is_empty() {
            return Err(durability_err(
                "the vault already holds a journal; open it with ManagerRuntime::recover",
            ));
        }
        // Persist the topology before anything journals against it: the log
        // streams are meaningless without the component table that routed
        // them.  A fresh file vault writes it with its first record and
        // makes it durable at its first barrier, ahead of every record
        // journaled against it (`Vault::save_blob`).
        durability::save_topology(hub.vault().as_ref(), expr, &partition);
    }
    let components = partition.components().iter().enumerate();
    let seeds =
        components.map(|(id, c)| ShardState::of(id, c, hub.clone())).collect::<Result<_, _>>();
    spawn_runtime(expr, partition, options, hub, seeds?, RecoveredGlobals::default())
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
        spawn_fresh(expr, options, None)
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
        spawn_fresh(expr, options, Some(DurabilityHub::new(vault)))
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
        let (tx, rx) = mpsc::channel();
        lock(&self.shared.notification_channels).insert(client, tx);
        Session {
            client,
            shared: Arc::clone(&self.shared),
            topology: Arc::clone(&self.topology),
            notifications: Arc::new(Mutex::new(rx)),
        }
    }

    /// The protocol variant in use.
    pub fn protocol(&self) -> ProtocolVariant {
        self.shared.variant
    }

    /// The expression the runtime currently enforces, including every
    /// constraint added live.
    pub fn expr(&self) -> Expr {
        self.topo().expr.clone()
    }

    /// The current partition epoch (0 at construction, +1 per live
    /// extension).
    pub fn epoch(&self) -> u64 {
        self.topo().epoch()
    }

    /// Number of shard workers (1 when the expression does not decompose).
    pub fn shard_count(&self) -> usize {
        self.topo().slots.len()
    }

    /// The primary (lowest-id) shard an action is routed to, if any.
    pub fn shard_of(&self, action: &Action) -> Option<usize> {
        self.topo().partition.route(action)
    }

    /// All shards owning an action, ascending (the enqueue order of a
    /// cross-shard task).
    pub fn owners_of(&self, action: &Action) -> Vec<usize> {
        self.topo().partition.owners_of(action)
    }

    /// True if the action is owned by more than one shard.
    pub fn is_cross_shard(&self, action: &Action) -> bool {
        self.topo().partition.is_shared(action)
    }

    /// True if the runtime's interaction expression mentions the action —
    /// some shard owns it, since the shard alphabets together are the
    /// expression's.
    pub fn controls(&self, action: &Action) -> bool {
        self.topo().partition.route(action).is_some()
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
        self.shared.cascade_counters.snapshot()
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
        let topo = self.topo();
        LoadReport {
            queue_limit: self.shared.queue_limit,
            shards: topo.slots.iter().enumerate().map(|(i, slot)| slot.gate.load(i)).collect(),
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
        *lock(&self.shared.repart)
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
        let segments = ask_shards(&self.topo(), |st| st.log.clone());
        let vault = self.shared.vault();
        durability::merged_log(vault, segments.iter().enumerate())
            .unwrap_or_else(|e| panic!("reading the archived commit log: {e}"))
    }

    /// True if the interaction state is final on every shard.
    pub fn is_final(&self) -> bool {
        ask_shards(&self.topo(), |st| st.engine.is_final()).into_iter().all(|is_final| is_final)
    }

    /// Number of active subscriptions across shard registries, cross-shard
    /// entries, and orphan registrations.
    pub fn subscription_count(&self) -> usize {
        let owned: usize = ask_shards(&self.topo(), |st| st.subscriptions.len()).into_iter().sum();
        owned
            + lock(&self.shared.cross_subscriptions).len()
            + lock(&self.shared.orphan_subscriptions).len()
    }

    /// The current topology snapshot.
    fn topo(&self) -> Arc<Topology> {
        read_topology(&self.topology)
    }

    /// Makes sure every shard engine's execution tier is installed — one
    /// table per engine whose expression is eligible, holding σ; cells fill
    /// as traffic visits them — and returns the per-shard tier stats.  A shard at rest
    /// answers on the calling thread; a busy one at its next task boundary,
    /// behind the submissions already queued (see `control`).  An engine
    /// installs its tier on its first transition anyway; this only says up
    /// front which shards are table-resident.
    pub fn compile_tiers(&self) -> Vec<TierStats> {
        ask_shards(&self.topo(), |st| st.engine.compile_tier())
    }

    /// Aggregated execution-tier stats across the shard engines.
    pub fn tier_stats(&self) -> TierStats {
        let mut total = TierStats::default();
        for t in ask_shards(&self.topo(), |st| st.engine.tier_stats()) {
            total.tables += t.tables;
            total.states += t.states;
            total.hits += t.hits;
            total.fallbacks += t.fallbacks;
            total.fills += t.fills;
            total.compiles += t.compiles;
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
        durability::run_checkpoint(&self.shared, &self.topology)
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
        durability::recover_runtime(vault, options)
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
    /// merged log plus final statistics.  Each shard's queue closes as its
    /// worker reaches the Stop marker shutdown queued on it: what was queued
    /// before the marker is served, and a submission racing the shutdown
    /// completes with [`ManagerError::Disconnected`] — failed with what is
    /// queued behind the marker, or inline once the queue is closed.
    pub fn shutdown(self) -> ManagerResult<RuntimeReport> {
        let (workers, unstarted) = {
            // The enqueue lock makes the Stop markers atomic w.r.t.
            // cross-shard enqueues: a cross task is ordered either before
            // the Stop on *all* of its owners (processed normally) or after
            // it on all of them (failed as the shards close) — never
            // half/half, which would strand owners at the rendezvous.
            let topo = self.topo();
            let _guard = lock(&self.shared.cross_enqueue);
            for slot in &topo.slots {
                let _ = slot.push(slots::Task::Stop);
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
    /// once the sessions are gone too, every running pool worker finishes
    /// its shards as it finds their queues empty, and exits — a
    /// parked worker re-polls within `IDLE_PARK`, the wake below just
    /// shortens that.  The shards of workers that never started are retired
    /// by the ones that did (see `pool_worker`); if none did, there is no
    /// thread to leak and the shards go with the last handle onto the
    /// shared block.
    fn drop(&mut self) {
        self.shared.pool.core.wake_all();
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
        Reservation {
            id: self.next_reservation.fetch_add(1, Ordering::Relaxed),
            action: action.clone(),
            client,
            granted_at: now,
            expires_at: self.variant.expires_at(now),
        }
    }
}

#[cfg(test)]
mod tests;
