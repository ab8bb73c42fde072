//! The crash-recovery experiment: what does a checkpoint buy at restart
//! time?
//!
//! Two file-backed vaults receive the *identical* committed workload.  One
//! is never checkpointed — recovering it replays the entire per-shard log.
//! The other cuts a sharded copy-on-write checkpoint once the run reaches
//! `checkpoint_fraction` of its commits, which (`ContinueAsNew`-style)
//! truncates the covered log prefix — recovering it loads the snapshots and
//! replays only the log tail.  Both recoveries must surface the same
//! merged log; the wall-clock ratio is the speedup the `--check` gate
//! asserts.
//!
//! The checkpointed vault is also cut once *earlier*, a tenth of the run
//! before: a checkpoint archives the commits since the previous one and
//! snapshots state, not history, so the later cut must write a fraction of
//! what the earlier one wrote — the second thing the gate asserts.

use crate::contended::{component_call, component_perform};
use ix_core::{parse, Expr};
use ix_manager::{
    inspect_vault, CheckpointReport, Completion, FileVault, FsyncPolicy, ManagerRuntime,
    ProtocolVariant, RuntimeOptions, Vault,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one recovery experiment configuration.
#[derive(Clone, Debug)]
pub struct RecoverReport {
    /// Number of components (= shards) in the constraint.
    pub shards: usize,
    /// Committed actions in the pre-crash run.
    pub actions: usize,
    /// Fraction of the run covered by the checkpoint on the second vault.
    pub checkpoint_fraction: f64,
    /// Bytes of the sharded snapshots the checkpoint wrote.
    pub snapshot_bytes: u64,
    /// Bytes (snapshots plus history records) the earlier cut wrote, a tenth
    /// of the run before the checkpoint: it archives everything up to there.
    pub earlier_cut_bytes: u64,
    /// Bytes the checkpoint itself wrote: it archives a tenth of the run.
    pub checkpoint_bytes: u64,
    /// Wall-clock of the earlier cut and of the checkpoint.
    pub cut_times: [Duration; 2],
    /// Log records left in the checkpointed vault's tail (all shards).
    pub tail_records: u64,
    /// Wall-clock recovery of the never-checkpointed vault (full replay).
    pub full_replay: Duration,
    /// Wall-clock recovery of the checkpointed vault (snapshot + tail).
    pub tail_replay: Duration,
    /// Merged log length both recoveries surfaced (must equal `actions`).
    pub recovered_actions: usize,
}

impl RecoverReport {
    /// Recovery speedup the checkpoint bought: full replay over
    /// snapshot-plus-tail.
    pub fn speedup(&self) -> f64 {
        self.full_replay.as_secs_f64() / self.tail_replay.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// `components` disjoint alphabets, each constrained by a conjunction of
/// `layers` identical views of its call/perform pairs.  The conjunction
/// leaves permissibility (and the partition — `&` is not a sync point)
/// unchanged but makes every replayed commit walk a real expression tree —
/// the regime where recovering from a snapshot instead of re-deciding the
/// whole history pays.
fn layered_components_constraint(components: usize, layers: usize) -> Expr {
    assert!(components >= 1 && layers >= 1);
    let group = |k: usize| format!("(some p {{ call_{k}(p) - perform_{k}(p) }})*");
    let component = |k: usize| (0..layers).map(|_| group(k)).collect::<Vec<_>>().join(" & ");
    let src =
        (0..components).map(|k| format!("({})", component(k))).collect::<Vec<_>>().join(" @ ");
    parse(&src).expect("generated layered-component constraint")
}

fn options() -> RuntimeOptions {
    RuntimeOptions {
        variant: ProtocolVariant::Combined,
        fsync: FsyncPolicy::Never,
        ..RuntimeOptions::default()
    }
}

/// Commits the workload into a fresh file-backed vault at `dir`,
/// checkpointing each time the commits reach the next of `checkpoints_at`,
/// then crashes (shutdown journals nothing).  Returns what each checkpoint
/// reported and how long it took.
fn run_workload(
    dir: &PathBuf,
    shards: usize,
    actions: usize,
    checkpoints_at: &[usize],
) -> Vec<(CheckpointReport, Duration)> {
    std::fs::remove_dir_all(dir).ok();
    let expr = layered_components_constraint(shards, 6);
    let runtime =
        ManagerRuntime::with_durability_path(&expr, options(), dir).expect("benchmark vault");
    let session = runtime.session(1);
    let mut committed = 0usize;
    let mut case = 0i64;
    let mut reports = Vec::new();
    while committed < actions {
        let window: Vec<_> = (0..64)
            .flat_map(|i| {
                let c = case + i;
                let k = (c as usize) % shards;
                [component_call(k, c), component_perform(k, c)]
            })
            .take(actions - committed)
            .collect();
        case += 64;
        for t in session.submit_batch(&window) {
            assert!(matches!(t.wait(), Completion::Executed { .. }));
        }
        committed += window.len();
        if checkpoints_at.get(reports.len()).is_some_and(|cut| committed >= *cut) {
            let started = Instant::now();
            let report = runtime.checkpoint().expect("checkpoint");
            reports.push((report, started.elapsed()));
        }
    }
    runtime.shutdown().expect("pre-crash shutdown");
    reports
}

/// Recovers the vault at `dir` twice and returns the faster wall-clock
/// (scheduler hiccups on shared hosts stretch one run, not two) along with
/// the recovered merged-log length.
fn time_recovery(dir: &PathBuf) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut recovered_actions = 0;
    for _ in 0..2 {
        let t0 = Instant::now();
        let recovered = ManagerRuntime::recover_path(dir, options()).expect("recovery");
        let elapsed = t0.elapsed();
        recovered_actions = recovered.log().len();
        recovered.shutdown().expect("post-recovery shutdown");
        best = best.min(elapsed);
    }
    (best, recovered_actions)
}

/// Runs the recovery experiment at the given scale.
pub fn recover_experiment(
    shards: usize,
    actions: usize,
    checkpoint_fraction: f64,
) -> RecoverReport {
    let base = std::env::temp_dir()
        .join(format!("ix-recover-bench-{}-{shards}-{actions}", std::process::id()));
    let full_dir = base.join("full");
    let tail_dir = base.join("tail");
    let cut = ((actions as f64 * checkpoint_fraction) as usize).max(1);
    let earlier = ((actions as f64 * (checkpoint_fraction - 0.1)) as usize).max(1);

    run_workload(&full_dir, shards, actions, &[]);
    let cuts = run_workload(&tail_dir, shards, actions, &[earlier, cut]);
    let written = |report: &CheckpointReport| report.bytes + report.history_bytes;

    let tail_records = {
        let vault: Arc<dyn Vault> = Arc::new(
            FileVault::open(&tail_dir, FsyncPolicy::Never).expect("reopen checkpointed vault"),
        );
        let inspection = inspect_vault(&vault).expect("inspect checkpointed vault");
        inspection.shards.iter().map(|s| s.tail_records).sum()
    };

    let (full_replay, full_actions) = time_recovery(&full_dir);
    let (tail_replay, tail_actions) = time_recovery(&tail_dir);
    assert_eq!(full_actions, actions, "full replay must surface every commit");
    assert_eq!(tail_actions, actions, "snapshot + tail must surface every commit");

    std::fs::remove_dir_all(&base).ok();
    RecoverReport {
        shards,
        actions,
        checkpoint_fraction,
        snapshot_bytes: cuts[1].0.bytes,
        earlier_cut_bytes: written(&cuts[0].0),
        checkpoint_bytes: written(&cuts[1].0),
        cut_times: [cuts[0].1, cuts[1].1],
        tail_records,
        full_replay,
        tail_replay,
        recovered_actions: actions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recover_experiment_surfaces_every_commit_and_truncates_the_prefix() {
        let report = recover_experiment(2, 512, 0.5);
        assert_eq!(report.recovered_actions, 512);
        assert!(report.snapshot_bytes > 0, "the checkpoint captured snapshots");
        assert!(
            report.checkpoint_bytes < report.earlier_cut_bytes,
            "a tenth of the run after four tenths: {} bytes after {}",
            report.checkpoint_bytes,
            report.earlier_cut_bytes
        );
        assert!(
            report.tail_records <= 512 / 2 + 64,
            "the covered prefix is gone from the checkpointed vault: {} tail records",
            report.tail_records
        );
        assert!(report.speedup() > 0.0);
    }
}
