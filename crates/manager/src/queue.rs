//! Persistent (recoverable) message queues.
//!
//! Sec. 7 refers to the use of persistent message queues [Bernstein, Hsu &
//! Mann 1990] for the communication between interaction manager and clients,
//! so that requests survive crashes of either side.  This module provides an
//! in-process simulation with the same interface contract: enqueued messages
//! are appended to a durable log, dequeue hands out a message without
//! removing it durably, and only an explicit acknowledgement removes it; a
//! crash loses the volatile cursor but not the log, so unacknowledged
//! messages are delivered again after recovery (at-least-once delivery).
//!
//! The log itself can be mirrored onto real storage through a
//! [`QueueBackend`]: every enqueue and acknowledgement is journaled *before*
//! the in-memory structure changes, so a process crash can rebuild the
//! pending log with [`DurableQueue::restore`].  The backend-free in-memory
//! variant stays the default (and the test default) — it models durability
//! by surviving in the same process rather than by writing anywhere.

use std::collections::VecDeque;

/// A storage hook mirroring the queue's durable log: implementations
/// journal enqueues and acknowledgements so the pending log can be rebuilt
/// after a process crash.  Callbacks run *before* the in-memory mutation,
/// so the journal is never behind the structure it protects.
pub trait QueueBackend<T>: Send {
    /// Journals one appended message.
    fn record_enqueue(&mut self, message: &T);
    /// Journals that the oldest journaled message was acknowledged.
    fn record_ack(&mut self);
    /// Rewrites the journal to exactly `pending` (the current
    /// unacknowledged log), releasing the acknowledged prefix.  Returns
    /// true if the journal was compacted — the queue then resets its
    /// compaction debt counter.  The default keeps the journal append-only.
    fn compact(&mut self, _pending: &[T]) -> bool {
        false
    }
}

/// Acknowledgements journaled since the last compaction before the queue
/// offers the backend a [`QueueBackend::compact`].  Also gated on the debt
/// exceeding twice the live log, so a mostly-pending queue is not rewritten
/// over and over for a trickle of acknowledgements.
const COMPACT_THRESHOLD: u64 = 256;

/// A recoverable queue with explicit acknowledgement.
pub struct DurableQueue<T: Clone> {
    /// The durable log of not-yet-acknowledged messages (in order).
    log: VecDeque<T>,
    /// Number of messages handed out but not yet acknowledged.
    in_flight: usize,
    /// Total number of messages ever enqueued (statistics).
    enqueued: u64,
    /// Total number of messages acknowledged (statistics).
    acknowledged: u64,
    /// Number of in-flight messages returned to the backlog by crashes.
    redelivered: u64,
    /// Acknowledgements journaled since the backend last compacted — the
    /// dead prefix the backend journal still retains.
    acked_since_compact: u64,
    /// Debt level at which the queue offers the backend a compaction.
    compact_threshold: u64,
    /// Optional storage mirror of the durable log.
    backend: Option<Box<dyn QueueBackend<T>>>,
}

impl<T: Clone> Default for DurableQueue<T> {
    fn default() -> Self {
        DurableQueue {
            log: VecDeque::new(),
            in_flight: 0,
            enqueued: 0,
            acknowledged: 0,
            redelivered: 0,
            acked_since_compact: 0,
            compact_threshold: COMPACT_THRESHOLD,
            backend: None,
        }
    }
}

impl<T: Clone> std::fmt::Debug for DurableQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableQueue")
            .field("len", &self.log.len())
            .field("in_flight", &self.in_flight)
            .field("enqueued", &self.enqueued)
            .field("acknowledged", &self.acknowledged)
            .field("redelivered", &self.redelivered)
            .field("backend", &self.backend.is_some())
            .finish()
    }
}

impl<T: Clone> DurableQueue<T> {
    /// An empty queue.
    pub fn new() -> DurableQueue<T> {
        DurableQueue::default()
    }

    /// An empty queue journaling to `backend`.
    pub fn with_backend(backend: Box<dyn QueueBackend<T>>) -> DurableQueue<T> {
        DurableQueue { backend: Some(backend), ..DurableQueue::default() }
    }

    /// Rebuilds a queue from the pending messages a backend journal
    /// recovered (everything enqueued but not acknowledged, in order).
    /// Nothing is in flight — recovery redelivers every pending message.
    pub fn restore(pending: Vec<T>, backend: Option<Box<dyn QueueBackend<T>>>) -> DurableQueue<T> {
        let enqueued = pending.len() as u64;
        DurableQueue { log: pending.into(), enqueued, backend, ..DurableQueue::default() }
    }

    /// Overrides the compaction debt threshold (tests drive it low to
    /// exercise compaction without thousands of messages).
    pub fn set_compact_threshold(&mut self, threshold: u64) {
        self.compact_threshold = threshold.max(1);
    }

    /// Appends a message to the durable log (journaling it first).
    pub fn enqueue(&mut self, message: T) {
        if let Some(backend) = self.backend.as_mut() {
            backend.record_enqueue(&message);
        }
        self.log.push_back(message);
        self.enqueued += 1;
    }

    /// Hands out the next unacknowledged, not-in-flight message without
    /// removing it durably.
    pub fn dequeue(&mut self) -> Option<T> {
        if self.in_flight < self.log.len() {
            let msg = self.log[self.in_flight].clone();
            self.in_flight += 1;
            Some(msg)
        } else {
            None
        }
    }

    /// Acknowledges the oldest unacknowledged message, removing it durably.
    ///
    /// The removal is keyed on the *log*, not on the volatile in-flight
    /// cursor: after [`DurableQueue::crash_recover`] the cursor resets to
    /// zero, but an acknowledgement for work completed before the crash may
    /// still arrive — refusing it would pin the message in the journal
    /// forever *and* redeliver it.  The cursor only shrinks alongside when
    /// it covered the removed message.
    pub fn acknowledge(&mut self) -> bool {
        if self.log.is_empty() {
            return false;
        }
        if let Some(backend) = self.backend.as_mut() {
            backend.record_ack();
        }
        self.log.pop_front();
        self.in_flight = self.in_flight.saturating_sub(1);
        self.acknowledged += 1;
        self.acked_since_compact += 1;
        // Offer the backend a compaction once the dead prefix dominates:
        // past the debt threshold *and* at least twice the live log, so the
        // journal stays O(unacknowledged) with amortized-constant rewrites.
        if self.acked_since_compact >= self.compact_threshold
            && self.acked_since_compact >= 2 * self.log.len() as u64
        {
            if let Some(backend) = self.backend.as_mut() {
                if backend.compact(self.log.make_contiguous()) {
                    self.acked_since_compact = 0;
                }
            }
        }
        true
    }

    /// Simulates a crash of the consumer: the volatile in-flight cursor is
    /// lost, so every unacknowledged message becomes deliverable again.
    pub fn crash_recover(&mut self) {
        self.redelivered += self.in_flight as u64;
        self.in_flight = 0;
    }

    /// Number of messages in the durable log (unacknowledged).
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// The log length implied by the lifetime counters
    /// (`enqueued - acknowledged`).  Always equal to [`DurableQueue::len`]
    /// — the consistency check `reproduce recover` gates on, and the size a
    /// storage backend's journal must replay to.
    pub fn sync_len(&self) -> u64 {
        self.enqueued - self.acknowledged
    }

    /// Number of messages journaled but not yet handed out — the backlog a
    /// recovering consumer will be fed.
    pub fn backlog(&self) -> usize {
        self.log.len() - self.in_flight
    }

    /// Number of in-flight messages returned to the backlog by crashes
    /// (each will be delivered at least twice).
    pub fn redelivered(&self) -> u64 {
        self.redelivered
    }

    /// Clones the durable log in order — the pending set a checkpoint
    /// persists so recovery can [`DurableQueue::restore`] it.
    pub fn pending(&self) -> Vec<T> {
        self.log.iter().cloned().collect()
    }

    /// True if there are no unacknowledged messages.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Number of messages currently handed out but unacknowledged.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Lifetime counters: (enqueued, acknowledged).
    pub fn counters(&self) -> (u64, u64) {
        (self.enqueued, self.acknowledged)
    }
}

// ---------------------------------------------------------------------------
// Worker-pool scheduling primitives
// ---------------------------------------------------------------------------
//
// The runtime's per-shard task queues are *pool-visible*: instead of one OS
// thread blocking on one shard's channel, a sized pool of workers each
// drains the queues of a set of shards in bounded run-to-completion slices.
// Placement is a function, not a table: worker `w` serves the shards `s`
// with `s % workers == w`.  A token parker per worker lets an enqueue onto
// any of its queues wake exactly the right thread.  A worker's thread starts
// with the first wake-up that has work behind it (`PoolCore::wake_worker`):
// a pool nothing was ever queued on runs no thread at all.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A token parker for one pool worker: `unpark` deposits a wake token,
/// `park_timeout` consumes one or sleeps.  A token deposited *before* the
/// park is consumed immediately — the enqueue-then-wake protocol can never
/// lose a wakeup to the race between the worker's last empty queue scan and
/// its decision to sleep.  The fast path of `unpark` is one atomic swap;
/// the mutex is only taken for the first token after a quiet period, so an
/// enqueue storm onto an already-signalled worker stays lock-free.
pub(crate) struct WorkerParker {
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
    pub(crate) fn unpark(&self) {
        if !self.token.swap(true, Ordering::AcqRel) {
            let _guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Consumes the token, or sleeps until one arrives or `timeout` passes.
    /// The timeout is a liveness backstop (channel disconnects do not route
    /// through the parker), not the scheduling mechanism.
    pub(crate) fn park_timeout(&self, timeout: Duration) {
        if self.token.swap(false, Ordering::AcqRel) {
            return;
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
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
pub(crate) type WorkerSpawner = Box<dyn Fn(usize) -> Option<JoinHandle<()>> + Send>;

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
pub(crate) struct PoolCore {
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
    /// Shards whose slot has not yet finished (stop marker or disconnect).
    /// Workers exit when they own nothing and this reaches zero.
    pub(crate) live: AtomicUsize,
}

impl PoolCore {
    pub(crate) fn new(workers: usize, shards: usize) -> PoolCore {
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
    pub(crate) fn workers(&self) -> usize {
        self.parkers.len()
    }

    /// Installs the way worker threads are started.  Until then, and after
    /// [`PoolCore::close`], a wake-up starts nothing.
    pub(crate) fn set_spawner(&self, spawner: WorkerSpawner) {
        self.threads.lock().unwrap_or_else(|e| e.into_inner()).spawner = Some(spawner);
    }

    /// Number of workers whose thread has been started.
    pub(crate) fn started(&self) -> usize {
        self.started.iter().filter(|s| s.load(Ordering::Acquire)).count()
    }

    /// The workers whose thread has not been started.
    pub(crate) fn unstarted(&self) -> Vec<usize> {
        (0..self.workers()).filter(|&w| !self.started[w].load(Ordering::Acquire)).collect()
    }

    /// Starts worker `worker`'s thread unless it runs already or the pool is
    /// closed.  Serialized by the `threads` lock, so two racing wake-ups
    /// start one thread.
    #[cold]
    fn start(&self, worker: usize) {
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
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
    pub(crate) fn close(&self) -> (Vec<JoinHandle<()>>, Vec<usize>) {
        let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        threads.spawner = None;
        (std::mem::take(&mut threads.handles), self.unstarted())
    }

    /// The worker that serves `shard`.
    pub(crate) fn worker_of(&self, shard: usize) -> usize {
        shard % self.workers()
    }

    /// The shards `worker` serves, in shard-id order, up to the shard count
    /// at the time of the call (a shard appended meanwhile is picked up on
    /// the next walk).
    pub(crate) fn owned(&self, worker: usize) -> impl Iterator<Item = usize> {
        (worker..self.shards.load(Ordering::Acquire)).step_by(self.workers())
    }

    /// Registers a newly appended shard.
    pub(crate) fn push_shard(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
        self.shards.fetch_add(1, Ordering::Release);
    }

    /// Wakes the worker that serves a shard — called after every enqueue
    /// onto the shard's queue.
    pub(crate) fn wake_shard(&self, shard: usize) {
        self.wake_worker(self.worker_of(shard));
    }

    /// Wakes one worker by id because there is work for it, starting its
    /// thread if this is the first time.
    pub(crate) fn wake_worker(&self, worker: usize) {
        let Some(parker) = self.parkers.get(worker) else { return };
        if !self.started[worker].load(Ordering::Acquire) {
            self.start(worker);
        }
        parker.unpark();
    }

    /// Wakes every running worker (pool shutdown, migration resume).  Starts
    /// none: a worker that never ran has nothing to be told — the token
    /// waits for it, and costs it one empty pass if it ever starts.
    pub(crate) fn wake_all(&self) {
        for parker in &self.parkers {
            parker.unpark();
        }
    }

    /// Parks worker `me` until a wake token arrives or `timeout` passes.
    pub(crate) fn park(&self, me: usize, timeout: Duration) {
        if let Some(parker) = self.parkers.get(me) {
            parker.park_timeout(timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_delivery_with_acknowledgement() {
        let mut q = DurableQueue::new();
        q.enqueue("a");
        q.enqueue("b");
        assert_eq!(q.dequeue(), Some("a"));
        assert_eq!(q.dequeue(), Some("b"));
        assert_eq!(q.dequeue(), None);
        assert!(q.acknowledge());
        assert!(q.acknowledge());
        assert!(!q.acknowledge());
        assert!(q.is_empty());
        assert_eq!(q.counters(), (2, 2));
        assert_eq!(q.sync_len(), 0);
    }

    #[test]
    fn unacknowledged_messages_survive_a_crash() {
        let mut q = DurableQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(1));
        assert!(q.acknowledge());
        assert_eq!(q.dequeue(), Some(2));
        // Consumer crashes before acknowledging message 2.
        q.crash_recover();
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.redelivered(), 1);
        assert_eq!(q.dequeue(), Some(2), "message 2 is delivered again");
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.sync_len(), 2);
    }

    #[test]
    fn dequeue_without_messages_is_none() {
        let mut q: DurableQueue<u8> = DurableQueue::new();
        assert_eq!(q.dequeue(), None);
        assert!(!q.acknowledge());
    }

    #[test]
    fn late_ack_after_crash_still_trims_the_log() {
        let mut q = DurableQueue::new();
        q.enqueue("a");
        q.enqueue("b");
        assert_eq!(q.dequeue(), Some("a"));
        // The consumer processed "a", crashed before acknowledging, and the
        // acknowledgement arrives after the in-flight cursor was reset.
        q.crash_recover();
        assert!(q.acknowledge(), "late ack must still remove the message");
        assert_eq!(q.len(), 1);
        assert_eq!(q.sync_len(), 1, "counters stay consistent with the log");
        assert_eq!(q.dequeue(), Some("b"));
    }

    #[test]
    fn backlog_accounts_for_the_cursor() {
        let mut q = DurableQueue::new();
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.backlog(), 3);
        q.dequeue();
        assert_eq!(q.backlog(), 2);
        q.crash_recover();
        assert_eq!(q.backlog(), 3);
    }

    struct CountingBackend(std::sync::Arc<std::sync::Mutex<(u64, u64)>>);
    impl QueueBackend<u8> for CountingBackend {
        fn record_enqueue(&mut self, _message: &u8) {
            self.0.lock().unwrap().0 += 1;
        }
        fn record_ack(&mut self) {
            self.0.lock().unwrap().1 += 1;
        }
    }

    /// Journal mirror counting rewrites: compaction passes the live log and
    /// resets the debt, so rewrites stay amortized-constant.
    struct CompactingBackend {
        compactions: std::sync::Arc<std::sync::Mutex<Vec<Vec<u8>>>>,
    }
    impl QueueBackend<u8> for CompactingBackend {
        fn record_enqueue(&mut self, _message: &u8) {}
        fn record_ack(&mut self) {}
        fn compact(&mut self, pending: &[u8]) -> bool {
            self.compactions.lock().unwrap().push(pending.to_vec());
            true
        }
    }

    #[test]
    fn compaction_fires_on_debt_and_passes_the_live_log() {
        let compactions = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut q = DurableQueue::with_backend(Box::new(CompactingBackend {
            compactions: compactions.clone(),
        }));
        q.set_compact_threshold(4);
        for i in 0..6u8 {
            q.enqueue(i);
        }
        // Three acks: debt 3 < threshold 4 — no compaction yet.
        for _ in 0..3 {
            q.dequeue();
            q.acknowledge();
        }
        assert!(compactions.lock().unwrap().is_empty());
        // Fourth ack reaches the threshold but the live log (2) still holds
        // it back (debt 4 >= 2*2 passes): compaction fires with [4, 5].
        q.dequeue();
        q.acknowledge();
        assert_eq!(compactions.lock().unwrap().as_slice(), &[vec![4, 5]]);
        // Debt reset: the next ack (debt 1) does not compact again.
        q.dequeue();
        q.acknowledge();
        assert_eq!(compactions.lock().unwrap().len(), 1);
    }

    #[test]
    fn backend_sees_every_enqueue_and_ack() {
        let counts = std::sync::Arc::new(std::sync::Mutex::new((0u64, 0u64)));
        let mut q = DurableQueue::with_backend(Box::new(CountingBackend(counts.clone())));
        q.enqueue(1);
        q.enqueue(2);
        q.dequeue();
        q.acknowledge();
        assert_eq!(*counts.lock().unwrap(), (2, 1));
        let restored: DurableQueue<u8> = DurableQueue::restore(vec![2], None);
        assert_eq!(restored.len(), 1);
        assert_eq!(restored.sync_len(), 1);
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
