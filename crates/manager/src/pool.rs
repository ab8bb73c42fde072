//! Worker-pool scheduling primitives.
//!
//! The runtime's per-shard task queues are *pool-visible*: instead of one OS
//! thread blocking on one shard's channel, a sized pool of workers each
//! drains the queues of a set of shards in bounded run-to-completion slices.
//! Placement is a function, not a table: worker `w` serves the shards `s`
//! with `s % workers == w`.  A token parker per worker lets an enqueue onto
//! any of its queues wake exactly the right thread.  A worker's thread starts
//! with the first wake-up that has work behind it (`PoolCore::wake_worker`):
//! a pool nothing was ever queued on runs no thread at all.

use crate::lock;
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
            let _guard = lock(&self.mutex);
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
        lock(&self.threads).spawner = Some(spawner);
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
    pub(crate) fn close(&self) -> (Vec<JoinHandle<()>>, Vec<usize>) {
        let mut threads = lock(&self.threads);
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
