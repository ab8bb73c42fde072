//! The worker pool: shards are scheduling units, workers are OS threads.
//!
//! A `PoolCtl` owns one `ShardSlot` per shard (the *bench*) plus the
//! parkers of `PoolCore`.  Placement is a function, not a table: worker `w`
//! serves the shards `s` with `s % workers == w`.  A pass walks them and
//! serves each in a bounded run-to-completion slice — it *checks the shard
//! state out* of its slot (phase Live → Busy), drains up to `SLICE_BUDGET`
//! tasks in queue order, and checks it back in.  Exclusivity is a slot-phase
//! property, not a thread identity: exactly one thread can hold a slot Busy,
//! so a shard's tasks execute in queue order, one at a time, whoever serves
//! them.  Who may hold a slot Busy: a worker serving a slice (or the outer
//! frame of its help-while-waiting excursion), the thread that shuts the
//! runtime down (for workers that never started), and a *caller frame* — a
//! control request or a single-owner operation run on the thread that asked
//! for it, while the shard is at rest (`caller_frame`).  A token parker per
//! worker lets an enqueue onto any of its queues wake exactly the right
//! thread, and a worker's thread starts with the first task queued for it
//! (`PoolCore::wake_worker`): a pool nothing was ever queued on runs no
//! thread at all.
//!
//! The slot phases are this module's alone: everything else takes a shard
//! through `checkout`/`checkin`, `caller_frame`, or `seat_shard`, the one
//! way a shard joins the bench.

use super::admission::ShardGate;
use super::cross::{coalesce, multi_is_live, process_batch, process_multi, MultiTask};
use super::drive::process_single;
use super::repartition::ensure_single_route;
use super::{Completion, RuntimeShared, Topology};
use crate::error::ManagerError;
use crate::lock;
use crate::shard::{Op, ShardState};
use crate::ticket::{ticket, Ticket, TicketIssuer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A token parker for one pool worker: `unpark` deposits a wake token,
/// `park_timeout` consumes one or sleeps.  A token deposited *before* the
/// park is consumed immediately — the enqueue-then-wake protocol can never
/// lose a wakeup to the race between the worker's last empty queue scan and
/// its decision to sleep.  The fast path of `unpark` is one atomic swap;
/// the mutex is only taken for the first token after a quiet period, so an
/// enqueue storm onto an already-signalled worker stays lock-free.
struct WorkerParker {
    token: AtomicBool,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl WorkerParker {
    fn new() -> WorkerParker {
        WorkerParker { token: AtomicBool::new(false), mutex: Mutex::new(()), cv: Condvar::new() }
    }

    /// Deposits the wake token and notifies a parked worker.  Correctness of
    /// the skip: when the swap observes an already-set token, the unparker
    /// that set it has done (or is doing) the notify under the mutex, and
    /// the worker's park re-checks the token under the same mutex before
    /// waiting — so the token cannot be set with a sleeper unaware of it.
    fn unpark(&self) {
        if !self.token.swap(true, Ordering::AcqRel) {
            let _guard = lock(&self.mutex);
            self.cv.notify_all();
        }
    }

    /// Consumes the token, or sleeps until one arrives or `timeout` passes.
    /// The timeout is a liveness backstop (a runtime dropped with its last
    /// session wakes nobody), not the scheduling mechanism.
    fn park_timeout(&self, timeout: Duration) {
        if self.token.swap(false, Ordering::AcqRel) {
            return;
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = lock(&self.mutex);
        loop {
            if self.token.swap(false, Ordering::AcqRel) {
                return;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return;
            }
            guard =
                self.cv.wait_timeout(guard, deadline - now).unwrap_or_else(|e| e.into_inner()).0;
        }
    }
}

/// Starts the thread of one pool worker; `None` when what the thread would
/// serve is already gone.
pub(super) type WorkerSpawner = Box<dyn Fn(usize) -> Option<JoinHandle<()>> + Send>;

/// The worker threads started so far and the way to start another.
#[derive(Default)]
struct PoolThreads {
    /// Installed once by the runtime's constructor; taken away again by
    /// [`PoolCore::close`], after which nothing starts.
    spawner: Option<WorkerSpawner>,
    handles: Vec<JoinHandle<()>>,
}

/// The scheduling core of the worker pool: the shard count the placement
/// rule `shard % workers` ranges over, one [`WorkerParker`] per worker, the
/// threads started so far, and the slot-liveness counter workers use to
/// decide when the pool is finished.  Which worker serves a shard never
/// changes, so an enqueue's wake-up is a modulo and takes no lock.
pub(super) struct PoolCore {
    /// Number of shards; grows when a repartition appends shards.  The
    /// Release add in [`PoolCore::push_shard`] pairs with the Acquire load
    /// in [`PoolCore::owned`]: a worker that walks up to a new shard id
    /// also sees the `live` count that shard added.
    shards: AtomicUsize,
    parkers: Vec<WorkerParker>,
    /// Whether worker `w`'s thread has been started.  Set under the
    /// `threads` lock (Release) after the thread exists; the Acquire load in
    /// [`PoolCore::wake_worker`] is all an enqueue pays once it has.
    started: Vec<AtomicBool>,
    threads: Mutex<PoolThreads>,
    /// Shards whose slot has not yet finished (stop marker, or the runtime
    /// dropped).
    /// Workers exit when they own nothing and this reaches zero.
    pub(super) live: AtomicUsize,
}

impl PoolCore {
    pub(super) fn new(workers: usize, shards: usize) -> PoolCore {
        debug_assert!(workers >= 1);
        PoolCore {
            shards: AtomicUsize::new(shards),
            live: AtomicUsize::new(shards),
            parkers: (0..workers).map(|_| WorkerParker::new()).collect(),
            started: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            threads: Mutex::new(PoolThreads::default()),
        }
    }

    /// Number of pool workers (fixed at construction; how many of them run
    /// a thread is [`PoolCore::started`]).
    pub(super) fn workers(&self) -> usize {
        self.parkers.len()
    }

    /// Installs the way worker threads are started.  Until then, and after
    /// [`PoolCore::close`], a wake-up starts nothing.
    pub(super) fn set_spawner(&self, spawner: WorkerSpawner) {
        lock(&self.threads).spawner = Some(spawner);
    }

    /// Number of workers whose thread has been started.
    pub(super) fn started(&self) -> usize {
        self.started.iter().filter(|s| s.load(Ordering::Acquire)).count()
    }

    /// The workers whose thread has not been started.
    pub(super) fn unstarted(&self) -> Vec<usize> {
        (0..self.workers()).filter(|&w| !self.started[w].load(Ordering::Acquire)).collect()
    }

    /// Starts worker `worker`'s thread unless it runs already or the pool is
    /// closed.  Serialized by the `threads` lock, so two racing wake-ups
    /// start one thread.
    #[cold]
    fn start(&self, worker: usize) {
        let mut threads = lock(&self.threads);
        if self.started[worker].load(Ordering::Relaxed) {
            return;
        }
        if let Some(handle) = threads.spawner.as_ref().and_then(|spawn| spawn(worker)) {
            threads.handles.push(handle);
            self.started[worker].store(true, Ordering::Release);
        }
    }

    /// Shutdown: from here on no wake-up starts a thread.  Returns the
    /// handles of the threads that were started, to be joined, and the ids
    /// of the workers that never were — whoever shuts down serves what is
    /// left in their queues itself.
    pub(super) fn close(&self) -> (Vec<JoinHandle<()>>, Vec<usize>) {
        let mut threads = lock(&self.threads);
        threads.spawner = None;
        (std::mem::take(&mut threads.handles), self.unstarted())
    }

    /// The worker that serves `shard`.
    pub(super) fn worker_of(&self, shard: usize) -> usize {
        shard % self.workers()
    }

    /// The shards `worker` serves, in shard-id order, up to the shard count
    /// at the time of the call (a shard appended meanwhile is picked up on
    /// the next walk).
    pub(super) fn owned(&self, worker: usize) -> impl Iterator<Item = usize> {
        (worker..self.shards.load(Ordering::Acquire)).step_by(self.workers())
    }

    /// Registers a newly appended shard.
    pub(super) fn push_shard(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
        self.shards.fetch_add(1, Ordering::Release);
    }

    /// Wakes the worker that serves a shard — called after every enqueue
    /// onto the shard's queue.
    pub(super) fn wake_shard(&self, shard: usize) {
        self.wake_worker(self.worker_of(shard));
    }

    /// Wakes one worker by id because there is work for it, starting its
    /// thread if this is the first time.
    pub(super) fn wake_worker(&self, worker: usize) {
        let Some(parker) = self.parkers.get(worker) else { return };
        if !self.started[worker].load(Ordering::Acquire) {
            self.start(worker);
        }
        parker.unpark();
    }

    /// Wakes every running worker (pool shutdown, migration resume).  Starts
    /// none: a worker that never ran has nothing to be told — the token
    /// waits for it, and costs it one empty pass if it ever starts.
    pub(super) fn wake_all(&self) {
        for parker in &self.parkers {
            parker.unpark();
        }
    }

    /// Parks worker `me` until a wake token arrives or `timeout` passes.
    pub(super) fn park(&self, me: usize, timeout: Duration) {
        if let Some(parker) = self.parkers.get(me) {
            parker.park_timeout(timeout);
        }
    }
}

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
    Suspended(mpsc::Receiver<ShardState>),
    /// The shard is finished (stop marker, or the runtime dropped); its
    /// final state was harvested into [`PoolCtl::finished`], and nothing
    /// queues on it any more.
    Done,
}

/// The mutable part of a shard's slot, guarded by the slot mutex: who may
/// serve the shard, and what is queued for it.  The mutex is held to change
/// the phase or to push or pop one task — never while tasks run.
struct SlotServe {
    phase: SlotPhase,
    /// The shard's ordered task queue.  Only the thread holding the slot
    /// Busy pops it, so tasks run in queue order; popped in place, it keeps
    /// its capacity.
    tasks: VecDeque<Task>,
    /// The stale-route divert watermark, carried across slices.
    divert_below: u64,
}

/// One shard's serving context, named by the bench and the topology alike:
/// its admission gate, and under one mutex its phase and task queue.
pub(crate) struct ShardSlot {
    /// The shard's admission gate.
    pub(crate) gate: Arc<ShardGate>,
    serve: Mutex<SlotServe>,
}

impl ShardSlot {
    /// Queues `task` behind everything queued before it, unless the shard
    /// has finished: then the task comes back.
    pub(super) fn push(&self, task: Task) -> Result<(), Task> {
        let mut serve = lock(&self.serve);
        if matches!(serve.phase, SlotPhase::Done) {
            return Err(task);
        }
        if serve.tasks.capacity() == 0 {
            // Room for a slice at the first task: a backlog shorter than
            // that never grows the queue, however the worker keeps pace.
            serve.tasks.reserve_exact(SLICE_BUDGET);
        }
        serve.tasks.push_back(task);
        Ok(())
    }

    /// Pops the front task if `takes` accepts it, and leaves it queued
    /// otherwise.  A task leaves the queue only to be served, so this is
    /// where its queue credits return, exactly once.
    pub(super) fn pop_if(&self, takes: impl FnOnce(&Task) -> bool) -> Option<Task> {
        let task = {
            let mut serve = lock(&self.serve);
            serve.tasks.pop_front_if(|task| takes(task))?
        };
        self.gate.release(task_units(&task));
        Some(task)
    }
}

/// Everything the worker pool shares: the parkers and threads
/// ([`PoolCore`]), the slot bench, and the harvested final shard states.
pub(super) struct PoolCtl {
    pub(super) core: PoolCore,
    /// The bench, indexed by shard id; append-only (repartitions push).
    slots: RwLock<Vec<Arc<ShardSlot>>>,
    /// Final shard states of finished slots, collected by
    /// [`ManagerRuntime::shutdown`] for the merged log.
    pub(super) finished: Mutex<Vec<ShardState>>,
    /// Global rendezvous-task sequence, allocated under the cross-enqueue
    /// lock, so multi-owner tasks are totally ordered *across* queues (each
    /// queue holds them in ascending sequence).  Help-while-waiting leans on
    /// this: a worker blocked on task `S` may only serve rendezvous tasks
    /// with sequence ≤ `S` from its other shards — picking up a later one
    /// could block beneath the earlier frame while holding a shard that
    /// task's quorum needs, a deadlock.  Serving an earlier one is always
    /// safe: every frame above is blocked on a later task and has therefore
    /// already voted on everything earlier it owns.
    pub(super) seq: AtomicU64,
}

impl PoolCtl {
    /// A pool of `workers` workers in front of an empty bench.
    pub(super) fn new(workers: usize) -> PoolCtl {
        PoolCtl {
            core: PoolCore::new(workers, 0),
            slots: RwLock::new(Vec::new()),
            finished: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        }
    }

    pub(super) fn slot(&self, shard: usize) -> Option<Arc<ShardSlot>> {
        self.slots.read().unwrap_or_else(|e| e.into_inner()).get(shard).cloned()
    }
}

/// The one way a shard joins the bench, at construction, recovery or a
/// repartition: its seeded state goes on a slot of its own, at rest, with an
/// empty queue and a fresh gate, which it returns for the topology to name —
/// so no enqueue can race a missing slot.  Worker `shard % workers` picks it
/// up.
pub(super) fn seat_shard(pool: &PoolCtl, state: ShardState, queue_limit: usize) -> Arc<ShardSlot> {
    let id = state.id;
    let gate = Arc::new(ShardGate::new(queue_limit));
    gate.publish_log(&state.log);
    let phase = SlotPhase::Live(Box::new(state));
    let serve = SlotServe { phase, tasks: VecDeque::new(), divert_below: 0 };
    let slot = Arc::new(ShardSlot { gate, serve: Mutex::new(serve) });
    {
        let mut slots = pool.slots.write().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(slots.len(), id, "shards join the bench in id order");
        slots.push(Arc::clone(&slot));
    }
    pool.core.push_shard();
    slot
}

/// What a worker's visit to one shard slot accomplished.
enum SliceOutcome {
    /// At least one task was served (or the shard was suspended mid-pause).
    Progressed,
    /// Nothing was served: the queue was empty, or the slot was busy in
    /// another frame, suspended, or not on the bench yet.
    Idle,
    /// The shard is done (stop marker, the runtime dropped, or already finished).
    Finished,
}

/// Result of taking a shard state off the bench.
enum Checkout {
    /// The state plus the carried divert watermark.
    State(Box<ShardState>, u64),
    Skip,
    Done,
}

/// Takes a shard's state off the bench, marking the slot Busy.  With
/// `at_rest`, only if nothing is queued — phase and queue read under the
/// one lock.
fn checkout(slot: &ShardSlot, at_rest: bool) -> Checkout {
    let mut serve = lock(&slot.serve);
    if let SlotPhase::Suspended(rx) = &serve.phase {
        match rx.try_recv() {
            Ok(st) => serve.phase = SlotPhase::Live(Box::new(st)),
            Err(TryRecvError::Empty) => return Checkout::Skip,
            Err(TryRecvError::Disconnected) => {
                panic!("migration coordinator always returns the shard state")
            }
        }
    }
    match serve.phase {
        SlotPhase::Busy => return Checkout::Skip,
        SlotPhase::Done => return Checkout::Done,
        _ if at_rest && !serve.tasks.is_empty() => return Checkout::Skip,
        _ => {}
    }
    let SlotPhase::Live(st) = std::mem::replace(&mut serve.phase, SlotPhase::Busy) else {
        unreachable!("a suspended slot resumed above")
    };
    Checkout::State(st, serve.divert_below)
}

/// Puts a shard's state back on the bench; returns whether tasks wait.
fn checkin(slot: &ShardSlot, st: Box<ShardState>, divert_below: u64) -> bool {
    let mut serve = lock(&slot.serve);
    serve.phase = SlotPhase::Live(st);
    serve.divert_below = divert_below;
    !serve.tasks.is_empty()
}

/// What [`control`] hands back: the value itself when the request ran on
/// the calling thread, the ticket of the queued task otherwise.
pub(crate) enum Answer<T> {
    Ready(T),
    Queued(Ticket<T>),
}

impl<T: Clone> Answer<T> {
    pub(crate) fn wait(self) -> T {
        match self {
            Answer::Ready(value) => value,
            Answer::Queued(ticket) => ticket.wait(),
        }
    }
}

/// What became of an attempt to serve a shard on the calling thread.
pub(super) enum Frame<T> {
    /// `serve` ran, holding the slot, and this is what it returned.
    Served(T),
    /// The shard is not at rest, or `serve` declined: queue the request.
    NotAtRest,
    /// The shard has finished.
    Done,
}

/// A *caller frame*: runs `serve` on shard `shard` right here, on the
/// calling thread, if the shard is at rest — slot Live and queue empty,
/// read under the slot's one lock.  A shard at rest has served everything
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
pub(super) fn caller_frame<T>(
    topo: &Topology,
    shard: usize,
    serve: impl FnOnce(&ShardSlot, &mut ShardState) -> Option<T>,
) -> Frame<T> {
    let slot = &topo.slots[shard];
    match checkout(slot, true) {
        Checkout::State(mut st, divert_below) => {
            // What `serve` publishes through the gate relies on it.
            debug_assert!(matches!(lock(&slot.serve).phase, SlotPhase::Busy));
            let served = serve(slot, &mut st);
            // A wake-up sent while this frame held the slot found it Busy,
            // and the worker it woke has parked again: repeat it.
            if checkin(slot, st, divert_below) {
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
pub(crate) fn control<T, F>(topo: &Topology, shard: usize, request: F) -> Answer<T>
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
    topo.send(shard, task);
    Answer::Queued(answer)
}

/// Runs one control request on every shard and collects the answers by
/// shard id.  Requests that had to be queued wait side by side.
pub(crate) fn ask_shards<T>(topo: &Topology, request: fn(&mut ShardState) -> T) -> Vec<T>
where
    T: Clone + Default + Send + 'static,
{
    let answers: Vec<Answer<T>> =
        (0..topo.slots.len()).map(|shard| control(topo, shard, request)).collect();
    answers.into_iter().map(Answer::wait).collect()
}

/// Retires a slot in one step: under its lock the shard becomes Done, so
/// every later send fails, and takes what is still queued, which fails once
/// the lock is let go.  Parks the final state for
/// [`ManagerRuntime::shutdown`]; the last shard to finish wakes every worker
/// so they observe `live == 0` and exit.
fn finish_slot(pool: &PoolCtl, slot: &ShardSlot, st: Box<ShardState>) {
    let queued = {
        let mut serve = lock(&slot.serve);
        serve.phase = SlotPhase::Done;
        std::mem::take(&mut serve.tasks)
    };
    for task in queued {
        slot.gate.release(task_units(&task));
        fail_task(task);
    }
    lock(&pool.finished).push(*st);
    if pool.core.live.fetch_sub(1, Ordering::AcqRel) == 1 {
        pool.core.wake_all();
    }
}

/// Queued client task units a task represents — the unit of the
/// [`ShardGate`] credit accounting.  Control messages (pause barriers,
/// control requests, stop markers) are free: they are runtime-internal and
/// never admitted.
pub(super) fn task_units(task: &Task) -> usize {
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

/// A queued control request ([`control`]): runs on the shard's state at a
/// task boundary and fulfils its own ticket — from the default when it is
/// handed `None`, because the shard closed before serving it.
pub(super) type ControlFn = Box<dyn FnOnce(Option<&mut ShardState>) + Send>;

pub(super) enum Task {
    Single(SingleTask),
    /// A session-side submission window: consecutive same-shard executes
    /// batched into one queued task (see [`Session::submit_batch`]).
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
pub(super) struct PauseTask {
    pub(super) state_tx: mpsc::Sender<ShardState>,
    pub(super) resume_rx: mpsc::Receiver<ShardState>,
}

pub(super) struct SingleTask {
    /// The topology epoch the submission was routed under.
    pub(super) epoch: u64,
    pub(super) op: Op,
    pub(super) ticket: TicketIssuer<Completion>,
    /// Submission instant (queue-metrics mode only).
    pub(super) submitted: Option<Instant>,
}

// ---------------------------------------------------------------------------
// The worker: one pool thread serving the shard slots `shard % workers`
// assigns it.
// ---------------------------------------------------------------------------

/// The host's hardware-thread count, read once per process: the standard
/// library re-reads the cgroup files on every call, which cost every
/// runtime construction some 30 µs.
pub(super) fn host_parallelism() -> usize {
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
pub(super) const HELP_PARK: Duration = Duration::from_micros(200);

/// Idle-worker park backstop.  Wakeups route through the placement rule;
/// an event that bypasses it (the last session of a dropped runtime going)
/// is caught by this periodic re-poll.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Per-drain context a shard worker threads through its task processing:
/// the shard's admission gate and, when enabled, the queueing-delay samples
/// of the drain.
pub(super) struct WorkerCtx {
    /// Queueing-delay sampling enabled ([`RuntimeOptions::queue_metrics`]).
    metrics: bool,
    /// This shard's admission gate; completed executes feed its
    /// wait/service EWMAs whenever the gate is active.
    pub(super) gate: Arc<ShardGate>,
    /// Instant the worker dequeued the task (or drained the batch) it is
    /// currently processing — the boundary between enqueue wait and
    /// service time.
    dequeued: Instant,
    /// (enqueue-wait, service) nanosecond pairs of this drain.
    samples: Vec<(u64, u64)>,
}

impl WorkerCtx {
    pub(super) fn new(metrics: bool, gate: Arc<ShardGate>) -> WorkerCtx {
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
    pub(super) fn record(&mut self, submitted: Option<Instant>) {
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
    pub(super) fn flush(&mut self, shared: &RuntimeShared) {
        if !self.samples.is_empty() {
            lock(&shared.queue_samples).append(&mut self.samples);
        }
    }
}

/// The help-while-waiting context a worker threads into its rendezvous
/// waits: which worker it is, and the pool whose placement rule names its
/// other shards.
pub(super) struct Help<'a> {
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
pub(super) fn help_one(
    shared: &Arc<RuntimeShared>,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
    limit: u64,
) -> bool {
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
pub(super) fn retire_unstarted(shared: &Arc<RuntimeShared>, unstarted: &[usize]) {
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
pub(super) fn pool_worker(shared: Arc<RuntimeShared>, me: usize) {
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
                SliceOutcome::Idle => {}
            }
        }
        // A finished shard means the runtime is going — stopped, or dropped
        // with its last session.  The shards of workers that never
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
    let Some(slot) = pool.slot(shard) else { return SliceOutcome::Idle };
    let (mut st, mut divert_below) = match checkout(&slot, false) {
        Checkout::State(st, divert) => (st, divert),
        Checkout::Skip => return SliceOutcome::Idle,
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
        // Help-frame ordering bound: a rendezvous task ordered after the one
        // the caller is blocked on must not start beneath it, so it stays
        // queued.
        let Some(task) = slot.pop_if(|task| task_seq(task) <= limit) else {
            // Unbounded, the queue is empty.  If the runtime was dropped
            // with its last session, nothing will queue here again.
            if limit == u64::MAX && shared.topology.strong_count() == 0 {
                finish_slot(pool, &slot, st);
                cx.gate = prev_gate;
                return SliceOutcome::Finished;
            }
            break if served > 0 { SliceOutcome::Progressed } else { SliceOutcome::Idle };
        };
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
                    let batch = coalesce(shared, &slot, &st, task, limit, &mut divert_below);
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
                        serve.divert_below = divert_below;
                        drop(serve);
                        cx.gate = prev_gate;
                        return SliceOutcome::Progressed;
                    }
                    // Coordinator already gone: keep the state and carry on.
                    Err(mpsc::SendError(state)) => st = Box::new(state),
                }
            }
            Task::Control(request) => request(Some(&mut st)),
            Task::Stop => {
                // Everything still queued behind the Stop marker fails as
                // the slot finishes; the enqueue lock guarantees a cross
                // task behind one owner's Stop is behind every owner's Stop,
                // so nobody waits for a vote that never comes.
                cx.flush(shared);
                finish_slot(pool, &slot, st);
                cx.gate = prev_gate;
                return SliceOutcome::Finished;
            }
        }
        slot.gate.publish_log(&st.log);
    };
    checkin(&slot, st, divert_below);
    cx.gate = prev_gate;
    outcome
}

impl Topology {
    /// Enqueues `task` on shard `shard` and wakes the worker that serves it.
    /// A finished shard fails the task instead; returns whether it was
    /// queued.
    pub(super) fn send(&self, shard: usize, task: Task) -> bool {
        match self.slots[shard].push(task) {
            Ok(()) => self.pool.core.wake_shard(shard),
            Err(task) => {
                fail_task(task);
                return false;
            }
        }
        true
    }
}

pub(super) fn fail_task(task: Task) {
    let disconnected = || Completion::Failed { error: ManagerError::Disconnected };
    match task {
        Task::Single(task) => task.ticket.complete(disconnected()),
        Task::Batch(tasks) => {
            for task in tasks {
                task.ticket.complete(disconnected());
            }
        }
        Task::Multi(task) => task.disconnect(),
        // Dropping the pause disconnects its state channel; the coordinator
        // observes the failed recv and aborts the migration.
        Task::Pause(_) => {}
        Task::Control(request) => request(None),
        Task::Stop => {}
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// How many tasks are queued on a shard.
    pub(in crate::runtime) fn queued(slot: &ShardSlot) -> usize {
        lock(&slot.serve).tasks.len()
    }

    #[test]
    fn parker_token_deposited_before_park_is_consumed() {
        let parker = WorkerParker::new();
        parker.unpark();
        // Must return immediately — the token was already deposited.
        let t0 = std::time::Instant::now();
        parker.park_timeout(Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // Consumed: the next park runs into the timeout.
        let t0 = std::time::Instant::now();
        parker.park_timeout(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn workers_start_at_their_first_wake_up_and_never_after_close() {
        let core = PoolCore::new(2, 2);
        let spawned = std::sync::Arc::new(AtomicUsize::new(0));
        let count = std::sync::Arc::clone(&spawned);
        core.set_spawner(Box::new(move |_| {
            count.fetch_add(1, Ordering::SeqCst);
            Some(std::thread::spawn(|| {}))
        }));
        core.wake_all();
        assert_eq!(core.started(), 0, "wake_all tells running workers; it starts none");
        core.wake_shard(1);
        core.wake_shard(1);
        assert_eq!((core.started(), spawned.load(Ordering::SeqCst)), (1, 1));
        let (handles, unstarted) = core.close();
        assert_eq!((handles.len(), unstarted), (1, vec![0]));
        core.wake_worker(0);
        assert_eq!((core.started(), spawned.load(Ordering::SeqCst)), (1, 1));
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn pool_core_placement_is_a_modulo_that_grows() {
        let core = PoolCore::new(3, 4);
        assert_eq!(core.workers(), 3);
        assert_eq!((0..4).map(|s| core.worker_of(s)).collect::<Vec<_>>(), [0, 1, 2, 0]);
        assert_eq!(core.owned(0).collect::<Vec<_>>(), [0, 3]);
        assert_eq!(core.owned(2).collect::<Vec<_>>(), [2]);
        core.push_shard();
        assert_eq!(core.owned(1).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(core.live.load(Ordering::SeqCst), 5);
        // Every shard is served by exactly one worker.
        let mut all: Vec<usize> = (0..3).flat_map(|w| core.owned(w)).collect();
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3, 4]);
    }
}
