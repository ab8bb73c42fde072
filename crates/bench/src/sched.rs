//! The worker-pool scheduling experiment: what does decoupling shards from
//! OS threads buy?
//!
//! Thread-per-shard (`worker_threads = shards`) is the historical layout:
//! fine partitions past core count mean more threads than cores fighting
//! the scheduler, and a Zipf-skewed workload parks most of them while one
//! melts.  The pooled layout (`worker_threads = cores`) runs exactly as
//! many threads as the host has, worker `w` serving the shards `s` with
//! `s % workers == w`.  Each configuration runs the same paced open-loop
//! traffic shape as the overload bench and reports committed throughput,
//! so rows are directly comparable.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{Completion, ManagerRuntime, ProtocolVariant, RuntimeOptions, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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
    /// Submissions offered across all sessions.
    pub offered: u64,
    /// Commits that executed — all of them; the run awaits every ticket.
    pub committed: u64,
    /// Committed actions per second over offer + drain.
    pub throughput: f64,
}

/// Outcome of the scheduling experiment: a grid of [`SchedPoint`]s.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// Worker count used for the "pool = cores" rows.
    pub cores: usize,
    /// One row per measured configuration, in grid order.
    pub points: Vec<SchedPoint>,
}

/// Runs one configuration: two paced flooder threads offer `total` work
/// items with the given shard distribution, then every ticket is awaited
/// (no shedding — this bench measures scheduling, not admission).  Returns
/// the measured point.
pub fn sched_point(shards: usize, shape: LoadShape, workers: usize, total: u64) -> SchedPoint {
    let expr = pools_constraint(shards);
    let options = RuntimeOptions {
        variant: ProtocolVariant::Combined,
        worker_threads: workers,
        ..RuntimeOptions::default()
    };
    let runtime = ManagerRuntime::with_options(&expr, options).expect("sched runtime");
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
    let committed =
        tickets.iter().filter(|t| matches!(t.wait(), Completion::Executed { .. })).count() as u64;
    let elapsed = t0.elapsed();
    let point = SchedPoint {
        shards,
        shape,
        workers: runtime.sched_stats().workers,
        offered: offered.load(Ordering::Relaxed),
        committed,
        throughput: committed as f64 / elapsed.as_secs_f64(),
    };
    runtime.shutdown().expect("sched shutdown");
    point
}

/// Runs the scheduling experiment grid: 16/64 shards × uniform/Zipf(1.1) ×
/// pool sizes {1, cores, shards}.
pub fn sched_experiment(total: u64) -> SchedReport {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut points = Vec::new();
    for shards in [16usize, 64] {
        for shape in [LoadShape::Uniform, LoadShape::Zipf] {
            let mut pools = vec![1, cores, shards];
            pools.dedup();
            for workers in pools {
                points.push(sched_point(shards, shape, workers, total));
            }
        }
    }
    SchedReport { cores, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_and_thread_per_shard_commit_everything() {
        for workers in [1usize, 4] {
            let point = sched_point(4, LoadShape::Zipf, workers, 2_000);
            assert_eq!(point.offered, 2_000);
            assert_eq!(point.committed, 2_000, "lost work at pool size {workers}");
        }
    }
}
