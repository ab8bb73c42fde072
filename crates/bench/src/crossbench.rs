//! Commit-chain cross-shard workload: the runtime's conditional-vote
//! cascade vs the blocking manager.
//!
//! The workload stresses exactly the path BENCH_async.json flagged as the
//! system's worst: chains of *consecutive* cross-shard commits.  Each client
//! alternates between a run of local call/perform pairs on its own
//! department and a burst of `depth` consecutive `audit` barriers — every
//! audit is a cross-shard commit owned by *all* shards, so a burst forms a
//! commit chain the coalescing workers pick up as one speculative batch.
//! The local/audit mix is set by `overlap_percent` (the fraction of
//! submissions that are audits), mirroring [`crate::contended`]'s ratio
//! knob but with the audits adjacent instead of spread out.
//!
//! In the runtime, the votes on a burst's later barriers are deposited
//! tagged with their assumptions, and the first barrier's commit cascades the whole burst to decided — the
//! rendezvous-free decided path.  The bench reports both surfaces on
//! identical schedules, with the cascade counters of the runtime run.

use crate::contended::{overlap_constraint, ContentionReport};
use crate::pipelined::LatencyReport;
use ix_core::Action;
use ix_manager::{
    CascadeStats, Completion, InteractionManager, ManagerRuntime, ProtocolVariant, RuntimeOptions,
    Session, Ticket,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One measured configuration: identical schedules on the blocking manager
/// and the runtime.
#[derive(Clone, Debug)]
pub struct CrossReport {
    /// Consecutive audits per burst (the commit-chain depth).
    pub depth: usize,
    /// Percentage of submissions that are cross-shard audits.
    pub overlap_percent: u32,
    /// Shard count (= department components = client threads).
    pub shards: usize,
    /// The blocking sharded manager.
    pub blocking: LatencyReport,
    /// The session runtime.
    pub runtime: LatencyReport,
    /// Cascade counters of the runtime run — proof the fast path fired.
    pub cascade_stats: CascadeStats,
}

/// The per-client schedule: `bursts` repetitions of local call/perform
/// pairs followed by `depth` consecutive audits.  The number of local
/// actions per burst is `depth * (100 - pct) / pct` (rounded up to a whole
/// pair), so audits make up ~`pct`% of the submissions.
pub fn chain_schedule(
    component: usize,
    offset: i64,
    bursts: usize,
    depth: usize,
    overlap_percent: u32,
) -> Vec<Action> {
    assert!(depth >= 1, "a burst has at least one audit");
    assert!((1..=100).contains(&overlap_percent), "audit ratio must be in 1..=100");
    let audit = ix_wfms::coupled_audit();
    let locals = depth * (100 - overlap_percent as usize) / overlap_percent as usize;
    let pairs = locals.div_ceil(2).max(1);
    let mut schedule = Vec::with_capacity(bursts * (pairs * 2 + depth));
    let mut p = offset;
    for _ in 0..bursts {
        for _ in 0..pairs {
            schedule.push(ix_wfms::coupled_call(component, p));
            schedule.push(ix_wfms::coupled_perform(component, p));
            p += 1;
        }
        for _ in 0..depth {
            schedule.push(audit.clone());
        }
    }
    schedule
}

/// Drives the chain schedules through the blocking manager, one synchronous
/// `try_execute` per action.
pub fn run_chain_blocking(
    manager: Arc<InteractionManager>,
    threads: usize,
    bursts: usize,
    depth: usize,
    overlap_percent: u32,
) -> LatencyReport {
    let shards = manager.shard_count();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let manager = Arc::clone(&manager);
        handles.push(std::thread::spawn(move || {
            let schedule = chain_schedule(
                t,
                (t * bursts * depth * 100) as i64,
                bursts,
                depth,
                overlap_percent,
            );
            let mut committed = 0u64;
            let mut latencies = Vec::with_capacity(schedule.len());
            for action in &schedule {
                let t0 = Instant::now();
                if manager.try_execute(t as u64, action).expect("concrete").is_some() {
                    committed += 1;
                }
                latencies.push(t0.elapsed().as_nanos() as u64);
            }
            (committed, latencies)
        }));
    }
    collect(handles, threads, shards, started)
}

/// Drives the chain schedules through runtime sessions, `window` submissions
/// in flight per client via [`Session::submit_batch`].
pub fn run_chain_runtime(
    runtime: Arc<ManagerRuntime>,
    threads: usize,
    bursts: usize,
    depth: usize,
    overlap_percent: u32,
    window: usize,
) -> LatencyReport {
    let shards = runtime.shard_count();
    let _ = runtime.drain_queue_samples();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let session: Session = runtime.session(t as u64);
        handles.push(std::thread::spawn(move || {
            let schedule = chain_schedule(
                t,
                (t * bursts * depth * 100) as i64,
                bursts,
                depth,
                overlap_percent,
            );
            let mut committed = 0u64;
            let mut latencies = Vec::with_capacity(schedule.len());
            for chunk in schedule.chunks(window.max(1)) {
                let submitted = Instant::now();
                let tickets: VecDeque<Ticket<Completion>> = session.submit_batch(chunk).into();
                for ticket in tickets {
                    if matches!(ticket.wait(), Completion::Executed { .. }) {
                        committed += 1;
                    }
                    latencies.push(submitted.elapsed().as_nanos() as u64);
                }
            }
            (committed, latencies)
        }));
    }
    let mut report = collect(handles, threads, shards, started);
    report.queue_samples = runtime.drain_queue_samples();
    report
}

fn collect(
    handles: Vec<std::thread::JoinHandle<(u64, Vec<u64>)>>,
    threads: usize,
    shards: usize,
    started: Instant,
) -> LatencyReport {
    let mut committed = 0u64;
    let mut latencies = Vec::new();
    for handle in handles {
        let (c, mut l) = handle.join().expect("client thread");
        committed += c;
        latencies.append(&mut l);
    }
    LatencyReport {
        contention: ContentionReport { threads, shards, committed, elapsed: started.elapsed() },
        latencies_nanos: latencies,
        queue_samples: Vec::new(),
    }
}

fn chain_runtime(shards: usize, overlap_percent: u32) -> Arc<ManagerRuntime> {
    let expr = overlap_constraint(shards, overlap_percent);
    Arc::new(
        ManagerRuntime::with_options(
            &expr,
            RuntimeOptions {
                variant: ProtocolVariant::Combined,
                queue_metrics: true,
                // This bench measures the cross-shard cascade protocol, so
                // keep a dedicated worker per shard: with fewer workers the
                // owners resolve chains in-order through help-while-waiting
                // and the promotion path under test never gets exercised.
                worker_threads: shards,
                ..RuntimeOptions::default()
            },
        )
        .expect("valid constraint"),
    )
}

/// Runs one full configuration on both surfaces.  One client per
/// shard, identical schedules on every surface.  Local pairs are
/// conflict-free and always commit; an audit is denied iff it lands while
/// another client is mid-pair ("mid-case anywhere vetoes the next audit"),
/// which depends on the interleaving — so committed counts may differ by a
/// few audits between surfaces while the bulk of the work is identical.
pub fn cross_chain_bench(
    shards: usize,
    depth: usize,
    overlap_percent: u32,
    bursts: usize,
    window: usize,
) -> CrossReport {
    let threads = shards;
    let expr = overlap_constraint(shards, overlap_percent);
    let blocking_manager = Arc::new(
        InteractionManager::with_protocol(&expr, ProtocolVariant::Combined)
            .expect("valid constraint"),
    );
    let blocking = run_chain_blocking(blocking_manager, threads, bursts, depth, overlap_percent);

    let chains = chain_runtime(shards, overlap_percent);
    let runtime =
        run_chain_runtime(Arc::clone(&chains), threads, bursts, depth, overlap_percent, window);
    let cascade_stats = chains.cascade_stats();

    CrossReport { depth, overlap_percent, shards, blocking, runtime, cascade_stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_mixes_locals_and_audit_bursts() {
        let schedule = chain_schedule(0, 0, 2, 4, 25);
        let audit = ix_wfms::coupled_audit();
        let audits = schedule.iter().filter(|a| **a == audit).count();
        assert_eq!(audits, 8, "two bursts of depth four");
        // The burst is consecutive: the last four of each half are audits.
        let half = schedule.len() / 2;
        assert!(schedule[half - 4..half].iter().all(|a| *a == audit));
    }

    #[test]
    fn both_surfaces_commit_the_conflict_free_work() {
        let report = cross_chain_bench(2, 4, 50, 3, 16);
        // 2 clients x 3 bursts x (2 pairs x 2 locals + 4 audits).  Locals
        // always commit; audits are denied iff they race another client's
        // open pair, so the committed counts sit between the local floor
        // and the full schedule on every surface.
        let locals = 2 * 3 * 4;
        let total = locals + 2 * 3 * 4;
        for (name, surface) in [("blocking", &report.blocking), ("runtime", &report.runtime)] {
            let committed = surface.contention.committed;
            assert!(
                (locals as u64..=total as u64).contains(&committed),
                "{name} committed {committed}, expected within [{locals}, {total}]"
            );
            assert_eq!(surface.latencies_nanos.len(), total, "{name} submissions");
        }
    }

    #[test]
    fn cascade_deposits_and_promotes_conditional_votes() {
        let report = cross_chain_bench(2, 8, 50, 4, 32);
        assert!(
            report.cascade_stats.conditional_votes > 0,
            "deep audit bursts must produce conditional votes: {:?}",
            report.cascade_stats
        );
        assert!(
            report.cascade_stats.promoted_votes > 0,
            "all-commit chains must promote their tagged votes: {:?}",
            report.cascade_stats
        );
    }
}
