//! The worker-pool scheduling experiment: what does decoupling shards from
//! OS threads buy?
//!
//! Thread-per-shard (`worker_threads = shards`) is the historical layout:
//! fine partitions past core count mean more threads than cores fighting
//! the scheduler, and a Zipf-skewed workload parks most of them while one
//! melts.  The pooled layout (`worker_threads = cores`) runs exactly as
//! many threads as the host has and places shards on them through the
//! placement table; the hot-shard rebalancer then isolates a sustained-hot
//! shard onto its own worker.  Each configuration runs the same paced
//! open-loop traffic shape as the overload bench and reports committed
//! throughput, so rows are directly comparable.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{Completion, ManagerRuntime, ProtocolVariant, RuntimeOptions, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `components` disjoint always-repeatable work pools, exactly as in the
/// overload bench: every `work_k(p)` is independently permissible, so
/// offered load translates directly into service demand and the scheduler
/// is the only variable under test.
fn pools_constraint(components: usize) -> Expr {
    assert!(components >= 1);
    let group = |k: usize| format!("(some p {{ work_{k}(p) }})*");
    let src = (0..components).map(group).collect::<Vec<_>>().join(" @ ");
    parse(&src).expect("generated work-pool constraint")
}

fn work(k: usize, p: i64) -> Action {
    Action::concrete(&format!("work_{k}"), [Value::int(p)])
}

/// Shard-picking distribution of one scheduling run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadShape {
    /// Every shard equally likely.
    Uniform,
    /// Zipf(s = 1.1): the first shard takes the bulk of the traffic.
    Zipf,
}

impl LoadShape {
    /// Stable row label for tables and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            LoadShape::Uniform => "uniform",
            LoadShape::Zipf => "zipf(1.1)",
        }
    }
}

/// Reproducible shard sampler: uniform or Zipf(1.1) inverse-CDF over a
/// splitmix/xorshift stream.
struct Sampler {
    cdf: Vec<f64>,
    state: u64,
}

impl Sampler {
    fn new(n: usize, shape: LoadShape, seed: u64) -> Sampler {
        let weights: Vec<f64> = match shape {
            LoadShape::Uniform => vec![1.0; n],
            LoadShape::Zipf => (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(1.1)).collect(),
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Sampler { cdf, state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    fn next(&mut self) -> usize {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// One measured configuration of the scheduling experiment.
#[derive(Clone, Debug)]
pub struct SchedPoint {
    /// Number of shards (= components) in the constraint.
    pub shards: usize,
    /// The shard-picking distribution.
    pub shape: LoadShape,
    /// Pool size this row ran with (`shards` = the thread-per-shard
    /// baseline).
    pub workers: usize,
    /// Whether the hot-shard rebalancer was running.
    pub rebalance: bool,
    /// Submissions offered across all sessions.
    pub offered: u64,
    /// Commits that executed — all of them; the run awaits every ticket.
    pub committed: u64,
    /// Committed actions per second over offer + drain.
    pub throughput: f64,
    /// Placement moves the rebalancer performed.
    pub rebalances: u64,
    /// The shard the rebalancer last isolated, if any.
    pub isolated: Option<usize>,
    /// Whether the final placement table shows the isolated shard alone on
    /// its worker — the structural witness of "isolate the hot shard onto
    /// its own worker".  That the rebalancer targets the *hottest* shard is
    /// true by construction of its trigger (sustained arg-max of the load
    /// signal) and pinned by the runtime's scheduling tests; it cannot be
    /// read off end-of-run load, which is low on the isolated shard
    /// precisely because the isolation worked.
    pub isolated_alone: bool,
}

/// Outcome of the scheduling experiment: a grid of [`SchedPoint`]s.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// Worker count used for the "pool = cores" rows.
    pub cores: usize,
    /// One row per measured configuration, in grid order.
    pub points: Vec<SchedPoint>,
}

fn options(workers: usize, rebalance: bool) -> RuntimeOptions {
    RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: workers,
        rebalance_every: rebalance.then(|| Duration::from_millis(5)),
        // The admission gate is unbounded here, so per-shard heat shows up
        // in the queue-wait EWMA, not the (never charged) depth counters.
        queue_metrics: true,
        ..RuntimeOptions::default()
    }
}

/// Runs one configuration: `sessions` paced flooder threads offer `total`
/// work items with the given shard distribution, then every ticket is
/// awaited (no shedding — this bench measures scheduling, not admission).
/// Returns the measured point.
pub fn sched_point(
    shards: usize,
    shape: LoadShape,
    workers: usize,
    rebalance: bool,
    total: u64,
) -> SchedPoint {
    let expr = pools_constraint(shards);
    let runtime =
        ManagerRuntime::with_options(&expr, options(workers, rebalance)).expect("sched runtime");
    run_point(runtime, shards, shape, rebalance, total, |_| {})
}

/// Floods `runtime` (built over `pools_constraint(shards)`) from two
/// sessions, calls `queued` once every item is submitted and before any
/// ticket is awaited, then awaits them all.
fn run_point(
    runtime: ManagerRuntime,
    shards: usize,
    shape: LoadShape,
    rebalance: bool,
    total: u64,
    queued: impl FnOnce(&ManagerRuntime),
) -> SchedPoint {
    let sessions = 2usize;
    let per_session = total / sessions as u64;
    let offered = AtomicU64::new(0);
    let t0 = Instant::now();
    let tickets: Vec<Ticket<Completion>> = std::thread::scope(|scope| {
        let flooders: Vec<_> = (0..sessions)
            .map(|worker| {
                let (runtime, offered) = (&runtime, &offered);
                scope.spawn(move || {
                    let session = runtime.session(1 + worker as u64);
                    let mut sampler = Sampler::new(shards, shape, 7 + worker as u64);
                    // Disjoint case-id ranges per session keep every work
                    // item fresh.
                    let mut case = vec![worker as i64 * 1_000_000_000; shards];
                    let mut tickets = Vec::new();
                    // Submit in bursts with a yield between them so the pool
                    // workers interleave with the flooders on small hosts.
                    for i in 0..per_session {
                        let k = sampler.next();
                        case[k] += 1;
                        offered.fetch_add(1, Ordering::Relaxed);
                        if let Ok(ticket) = session.submit(&work(k, case[k])) {
                            tickets.push(ticket);
                        }
                        if i.is_multiple_of(256) {
                            std::thread::yield_now();
                        }
                    }
                    tickets
                })
            })
            .collect();
        flooders.into_iter().flat_map(|f| f.join().expect("flooder panicked")).collect()
    });
    queued(&runtime);
    let committed =
        tickets.iter().filter(|t| matches!(t.wait(), Completion::Executed { .. })).count() as u64;
    let elapsed = t0.elapsed();
    let sched = runtime.sched_stats();
    let point = SchedPoint {
        shards,
        shape,
        workers: sched.workers,
        rebalance,
        offered: offered.load(Ordering::Relaxed),
        committed,
        throughput: committed as f64 / elapsed.as_secs_f64(),
        rebalances: sched.rebalances,
        isolated: sched.last_isolated,
        isolated_alone: sched.last_isolated.is_some_and(|isolated| {
            let on_worker = sched.placement[isolated];
            sched.placement.iter().enumerate().all(|(s, &w)| s == isolated || w != on_worker)
        }),
    };
    runtime.shutdown().expect("sched shutdown");
    point
}

/// Runs the scheduling experiment grid: 16/64 shards × uniform/Zipf(1.1) ×
/// pool sizes {1, cores, shards}, with the Zipf pool-of-cores row doubled
/// into rebalance-off and rebalance-on variants.  Isolating a shard takes
/// at least two workers, so on a single-core host the rebalance pair runs
/// at pool size two — the smallest pool where placement is a real choice.
pub fn sched_experiment(total: u64) -> SchedReport {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut points = Vec::new();
    for shards in [16usize, 64] {
        for shape in [LoadShape::Uniform, LoadShape::Zipf] {
            let mut pools = vec![1, cores, shards];
            pools.dedup();
            for workers in pools {
                points.push(sched_point(shards, shape, workers, false, total));
            }
            if shape == LoadShape::Zipf {
                let workers = cores.max(2);
                points.push(sched_point(shards, shape, workers, true, total));
            }
        }
    }
    SchedReport { cores, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_manager::{MemVault, Vault};
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn pooled_and_thread_per_shard_commit_everything() {
        for workers in [1usize, 4] {
            let point = sched_point(4, LoadShape::Zipf, workers, false, 2_000);
            assert_eq!(point.offered, 2_000);
            assert_eq!(point.committed, 2_000, "lost work at pool size {workers}");
        }
    }

    /// A memory vault whose appends wait until it is opened: a worker
    /// deciding a commit stops at its write-ahead record, so whatever is
    /// queued behind it stays queued for as long as the test needs.
    #[derive(Default)]
    struct GatedVault {
        inner: MemVault,
        open: Mutex<bool>,
        opened: Condvar,
    }

    impl GatedVault {
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    impl Vault for GatedVault {
        fn append(&self, stream: u32, payload: &[u8]) -> u64 {
            let open = self.open.lock().unwrap();
            drop(self.opened.wait_while(open, |open| !*open).unwrap());
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
        fn sync(&self) {}
    }

    #[test]
    fn rebalance_isolates_the_hot_shard_without_losing_work() {
        // Two workers, eight shards, heavy skew onto shard 0: the
        // rebalancer must move the cold co-residents off shard 0's worker
        // and no task may be lost in the handoff.  The backlog must still
        // be queued when the rebalancer samples it, so both workers are
        // held at their first commit's journal write while the flooders
        // submit, and the test itself takes the three sustained-hot passes
        // (the timer is off) before it lets them go.
        let vault = Arc::new(GatedVault::default());
        let options = options(2, false);
        let runtime =
            ManagerRuntime::with_durability(&pools_constraint(8), options, vault.clone()).unwrap();
        let point = run_point(runtime, 8, LoadShape::Zipf, true, 6_000, |runtime| {
            let passes = [(); 3].map(|_| runtime.rebalance_now());
            assert_eq!(passes, [false, false, true], "isolated on the third hot pass");
            vault.open();
        });
        assert_eq!(point.committed, point.offered, "rebalance lost tasks");
        assert!(
            point.rebalances > 0,
            "sustained Zipf skew over two workers must trigger the rebalancer: {point:?}"
        );
        assert!(point.isolated.is_some());
    }
}
