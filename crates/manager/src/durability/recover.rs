//! Recovery: rebuild a runtime from the latest snapshots plus the log tails
//! ([`recover_runtime`]), and inspect a vault offline without recovering it.

use super::checkpoint::{
    decode_shard_checkpoint, load_manifest, load_topology, snap_blob, Manifest, ShardHistory,
};
use super::journal::{DurabilityHub, WalRecord};
use super::{codec_err, durability_err};
use crate::error::ManagerResult;
use crate::log::LogKey;
use crate::runtime::{spawn_runtime, ManagerRuntime, RecoveredGlobals, RuntimeOptions};
use crate::shard::ShardState;
use crate::subscription::{CrossSubscriptions, SubscriptionRegistry};
use crate::timer::Timers;
use crate::{ManagerStats, Reservation};
use ix_core::{parse, Action, Component, Partition, Route};
use ix_durable::{history_stream, Vault, META_STREAM};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// What one shard contributes to a recovery: its snapshot (if any) and the
/// log tail that will replay on top of it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardInspection {
    /// Shard id.
    pub shard: usize,
    /// Whether a snapshot blob exists for the shard.
    pub snapshot: bool,
    /// Snapshot blob size in bytes (0 without a snapshot).
    pub snapshot_bytes: u64,
    /// Log offset the snapshot covers.
    pub covered: u64,
    /// Records past the covered offset — the replay work recovery does.
    pub tail_records: u64,
    /// Confirmed log entries the snapshot covers: the archived ones plus,
    /// in a snapshot written before the history streams, the inline ones.
    pub log_entries: u64,
    /// Of those, the entries the snapshot counts on the shard's history
    /// stream rather than carries.
    pub archived_entries: u64,
    /// Records on the shard's history stream (a checkpoint appends one per
    /// 4096 newly confirmed actions).
    pub history_records: u64,
    /// Reservations pending inside the snapshot.
    pub reservations: u64,
    /// Log-key epoch the snapshot was cut under (cross-shard commits are
    /// the epoch boundaries of the merged-log sort key, not topology
    /// versions).
    pub epoch: u64,
}

/// A read-only summary of a vault's recovery inputs — what
/// `ixctl snapshot inspect` prints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VaultInspection {
    /// The joined expression the recovered runtime will enforce.
    pub expr: String,
    /// Partition epoch of the persisted topology.
    pub epoch: u64,
    /// Number of partition components (= shards).
    pub components: usize,
    /// Manifest clock (0 without a manifest).
    pub clock: u64,
    /// Whether a checkpoint manifest exists.
    pub manifest: bool,
    /// Meta-stream records past the manifest's covered offset.
    pub meta_tail: u64,
    /// Per-shard snapshot and tail summary.
    pub shards: Vec<ShardInspection>,
}

/// Summarizes a vault without recovering from it: the persisted topology,
/// the checkpoint manifest, and each shard's snapshot plus the log tail a
/// recovery would replay.  Fails when the vault holds no readable topology
/// blob, or when a shard's history stream does not hold every entry its
/// snapshot counts archived.
pub fn inspect_vault(vault: &Arc<dyn Vault>) -> ManagerResult<VaultInspection> {
    let topo = load_topology(vault.as_ref())?;
    let manifest = load_manifest(vault.as_ref())?;
    let (meta_covered, clock) = manifest.as_ref().map_or((0, 0), |m| (m.meta_covered, m.clock));
    let mut shards = Vec::with_capacity(topo.components.len());
    for shard in 0..topo.components.len() {
        let stream = DurabilityHub::shard_stream(shard);
        let mut row = ShardInspection { shard, ..ShardInspection::default() };
        if let Some(blob) = vault.load_blob(&snap_blob(shard)) {
            let cp = decode_shard_checkpoint(shard, &blob)?;
            row.snapshot = true;
            row.snapshot_bytes = blob.len() as u64;
            row.covered = cp.covered;
            row.log_entries = cp.log.len() as u64;
            row.archived_entries = cp.log.archived() as u64;
            let history = ShardHistory::load(Some(vault.as_ref()), shard, cp.log.archived())?;
            history.check_complete()?;
            row.reservations = cp.reservations.len() as u64;
            row.epoch = cp.epoch;
        }
        row.tail_records = vault.stream_len(stream).saturating_sub(row.covered);
        row.history_records = vault.stream_len(history_stream(shard));
        shards.push(row);
    }
    Ok(VaultInspection {
        expr: topo.expr,
        epoch: topo.epoch,
        components: topo.components.len(),
        clock,
        manifest: manifest.is_some(),
        meta_tail: vault.stream_len(META_STREAM).saturating_sub(meta_covered),
        shards,
    })
}

/// One cross-shard commit seen while replaying the log tails: which owners'
/// streams already carry its echo record.
struct TailCommit {
    key: LogKey,
    action: Action,
    present: HashSet<usize>,
}

/// The recovery driver behind [`ManagerRuntime::recover`].
pub(crate) fn recover_runtime(
    vault: Arc<dyn Vault>,
    options: RuntimeOptions,
) -> ManagerResult<ManagerRuntime> {
    let hub = DurabilityHub::new(vault);
    let topo = load_topology(hub.vault().as_ref())?;
    let expr = parse(&topo.expr)
        .map_err(|e| durability_err(format!("stored expression does not parse: {e}")))?;
    let mut components = Vec::with_capacity(topo.components.len());
    for (source, alphabet) in topo.components {
        let component = parse(&source)
            .map_err(|e| durability_err(format!("stored component does not parse: {e}")))?;
        components.push(Component { expr: component, alphabet });
    }
    let partition = Partition::from_components(components, topo.epoch);
    let manifest = load_manifest(hub.vault().as_ref())?.unwrap_or(Manifest {
        clock: 0,
        meta_covered: 0,
        meta_base: ManagerStats::ZERO,
        log_seq: 0,
        next_reservation: 1,
        cross: Vec::new(),
        orphans: Vec::new(),
    });

    // Per-shard restore: latest snapshot (or fresh state), then the tail.
    let mut seeds = Vec::with_capacity(partition.len());
    let mut next_seq = manifest.log_seq;
    let mut next_reservation = manifest.next_reservation;
    let mut tail_commits: BTreeMap<u64, TailCommit> = BTreeMap::new();
    let mut tail_reserved: HashSet<u64> = HashSet::new();
    let mut tail_released: HashSet<u64> = HashSet::new();
    for (id, component) in partition.components().iter().enumerate() {
        let mut seed = ShardState::of(id, component, Some(hub.clone()))?;
        let mut covered = 0;
        if let Some(blob) = hub.vault().load_blob(&snap_blob(id)) {
            let snapshot = decode_shard_checkpoint(id, &blob)?;
            covered = snapshot.covered;
            seed.restore(snapshot)?;
        }
        if let Some(seq) = seed.log.max_seq() {
            next_seq = next_seq.max(seq + 1);
        }
        for rid in seed.reservations.keys() {
            next_reservation = next_reservation.max(rid + 1);
        }
        for (index, payload) in hub.vault().read_from(DurabilityHub::shard_stream(id), covered) {
            let record =
                WalRecord::decode(&payload).map_err(|e| codec_err("shard log record", e))?;
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
        let owners = partition.owners_of(&commit.action);
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
                delta: ManagerStats::ZERO,
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
        let owners = partition.owners_of(&reservation.action);
        if owners.iter().all(|o| holding.contains(o)) {
            continue;
        }
        if tail_reserved.contains(rid) && !tail_released.contains(rid) {
            for &owner in owners.iter().filter(|o| !holding.contains(o)) {
                seeds[owner].repair(WalRecord::Reserve {
                    reservation: reservation.clone(),
                    delta: ManagerStats::ZERO,
                })?;
            }
        } else {
            for &owner in holding {
                seeds[owner].repair(WalRecord::Release { id: *rid, delta: ManagerStats::ZERO })?;
            }
        }
    }

    // Meta-stream tail: order-independent statistics events, the clock
    // high-water mark, and cross-shard/orphan subscription echoes routed
    // through the recovered partition.
    let mut clock = manifest.clock;
    let mut stat_total = manifest.meta_base;
    let mut cross_subscriptions = CrossSubscriptions::import(manifest.cross);
    let mut orphan_subscriptions = SubscriptionRegistry::import(manifest.orphans);
    for (index, payload) in hub.vault().read_from(META_STREAM, manifest.meta_covered) {
        let record = WalRecord::decode(&payload).map_err(|e| codec_err("meta record", e))?;
        match record {
            WalRecord::Event { delta } => stat_total.add(&delta),
            WalRecord::Clock { now } => clock = clock.max(now),
            WalRecord::Subscribe { client, action, permitted } => match partition.classify(&action)
            {
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
            WalRecord::Unsubscribe { client, action } => match partition.classify(&action) {
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
        let owners = partition.owners_of(&reservation.action);
        if owners.is_empty() || !seeds[owners[0]].reservations.contains_key(rid) {
            continue;
        }
        if reservation.expires_at != u64::MAX {
            let at = reservation.expires_at.max(clock.saturating_add(1));
            timers.schedule(at, *rid);
        }
        reservation_index.insert(*rid, owners);
    }

    let globals = RecoveredGlobals {
        clock,
        log_seq: next_seq,
        next_reservation,
        stats: stat_total,
        reservation_index,
        timers,
        cross_subscriptions,
        orphan_subscriptions,
    };
    hub.vault().sync();
    spawn_runtime(&expr, partition, options, Some(hub), seeds, globals)
}
