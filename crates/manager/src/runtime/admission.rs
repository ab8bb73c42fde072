//! Bounded admission: the per-shard credit gate ([`ShardGate`]), the request
//! classes it sheds in order, and the [`LoadReport`] its counters feed.

use super::Topology;
use crate::error::SubmitError;
use crate::log::ShardLog;
use ix_core::{Action, Route};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

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
pub(super) enum AdmitClass {
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
pub(super) enum Credit {
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
#[derive(Default)]
pub(crate) struct ShardGate {
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
    pub(super) fn new(limit: usize) -> ShardGate {
        ShardGate { limit, ..ShardGate::default() }
    }

    /// Publishes the size of the shard's commit log for [`LoadReport`].
    /// Called only by whoever holds the shard's slot Busy — a worker in a
    /// slice, or a caller frame — so plain stores do.
    pub(crate) fn publish_log(&self, log: &ShardLog) {
        self.log_entries.store(log.len() as u64, Ordering::Relaxed);
        self.log_archived.store(log.archived() as u64, Ordering::Relaxed);
        self.log_bytes.store(log.bytes() as u64, Ordering::Relaxed);
    }

    /// Whether the gate enforces a limit at all.
    pub(super) fn active(&self) -> bool {
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
    pub(super) fn charge(&self, units: usize) {
        if !self.active() || units == 0 {
            return;
        }
        let now = self.depth.fetch_add(units as i64, Ordering::Relaxed) + units as i64;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Returns `units` credits when the message is dequeued — or, for a
    /// submission a caller frame serves, when the frame is entered.
    pub(super) fn release(&self, units: usize) {
        if !self.active() || units == 0 {
            return;
        }
        self.depth.fetch_sub(units as i64, Ordering::Relaxed);
    }

    /// Folds one completed task's (wait, service) pair into the EWMAs and
    /// samples the current depth into the pressure EWMA.  Called only by
    /// whoever holds the shard's slot Busy (one thread at a time, whichever
    /// it is), so plain load/store is race-free.
    pub(super) fn observe(&self, wait_ns: u64, service_ns: u64) {
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
    pub(super) fn load(&self, shard: usize) -> ShardLoad {
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

/// Per-shard load snapshot
/// ([`ManagerRuntime::load_report`](super::ManagerRuntime::load_report)):
/// queue depths, high-water marks, shed counts, and the wait/service EWMAs
/// the retry-after hints are derived from.  [`LoadReport::hottest`] reports the
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

/// All-or-nothing credit reservation for one classified submission, in
/// class `single` or `multi` by the route's arity: one unit on the single
/// owner, or one unit on *every* owner of a multi-owner route (reserved in
/// ascending order, rolled back completely on the first full gate) — a
/// cross-shard chain can never half-enqueue.  `Route::None` reserves nothing
/// (resolved inline).
pub(super) fn admit_route(
    topo: &Topology,
    route: &Route,
    single: AdmitClass,
    multi: AdmitClass,
) -> Result<(), SubmitError> {
    match route {
        Route::None => Ok(()),
        Route::Single(shard) => topo.slots[*shard].gate.try_admit(1, single),
        Route::Multi(owners) => {
            for (i, &owner) in owners.iter().enumerate() {
                if let Err(e) = topo.slots[owner].gate.try_admit(1, multi) {
                    for &acquired in &owners[..i] {
                        topo.slots[acquired].gate.release(1);
                    }
                    return Err(e);
                }
            }
            Ok(())
        }
    }
}

/// Session-path admission of one action: classifies it and reserves
/// credits per [`admit_route`].  Free (no classify, no atomics) on unbounded runtimes; non-concrete
/// actions reserve nothing (they fail inline before any queue).
pub(super) fn admit_submission(
    topo: &Topology,
    action: &Action,
    single: AdmitClass,
    multi: AdmitClass,
) -> Result<(), SubmitError> {
    if !topo.bounded || !action.is_concrete() {
        return Ok(());
    }
    admit_route(topo, &topo.partition.classify(action), single, multi)
}
