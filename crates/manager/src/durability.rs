//! Checkpoints, write-ahead records, and crash recovery of the runtime.
//!
//! The durability design has three pieces, all built on the storage
//! vocabulary of `ix-durable` ([`Vault`] streams and blobs):
//!
//! * **Write-ahead records** (`WalRecord`): every shard worker *echoes*
//!   each state mutation it applies — commits, reservation grants,
//!   reservation removals — onto **its own** stream, in apply order.  A
//!   multi-owner commit therefore appears on every owner's stream, which is
//!   what makes per-shard snapshot cuts independent: a shard's snapshot plus
//!   its own log tail fully determines its state, no matter where the other
//!   owners' cuts fall, and truncating one shard's stream can never orphan
//!   another shard's replay.  Statistics ride along as [`StatDelta`]s —
//!   deterministically attributed deltas on the shard records (carried by
//!   the commit's *primary* owner), order-independent ones as `Event`
//!   records on the meta stream, so recovered counters equal the live ones.
//! * **Checkpoints** (`ShardCheckpoint`, `Manifest`): each shard is
//!   snapshotted at a task boundary of its own worker — no stop-the-world.
//!   The CoW state is serialized through the pointer-deduplicating
//!   state-table codec, sharing one node pool between the engine state and
//!   the states of its compiled DFA tiles (keyed by fingerprint), so
//!   recovery re-attaches the tiles instead of recompiling them.  A
//!   snapshot carries the state that decides the next action and *not* the
//!   history of confirmed actions: `persist_shards` first **archives** the
//!   entries committed since the shard's last checkpoint on the shard's
//!   history stream ([`ix_durable::history_stream`]) and the snapshot only
//!   counts them, so a checkpoint writes O(new commits).
//! * **Recovery**: load the topology blob, then per shard the latest
//!   snapshot plus the stream tail — no history; roll torn multi-owner
//!   records forward (a record present on at least one owner's stream is
//!   completed on all of them); rebuild the derived structures (reservation
//!   index, timer wheel) from what was recovered.
//! * **Reading the log** (`visit_log`): who needs every confirmed action —
//!   `log()`, `shutdown()`, the replay of a live repartition, the vault
//!   inspection — chains a shard's history stream before the entries still
//!   resident in its `ShardLog`.
//!
//! This module holds the record and blob codecs plus the `DurabilityHub`
//! the runtime journals through; the checkpoint coordinator and the
//! recovery driver live in `runtime.rs` next to the structures they
//! capture and rebuild.

use crate::error::{ManagerError, ManagerResult};
use crate::log::{LogKey, ShardLog};
use crate::manager::{ManagerStats, Reservation};
use crate::subscription::{ClientId, SubscriptionRow};
use ix_core::{Action, Alphabet};
use ix_durable::{
    decode_action, decode_alphabet, encode_action, encode_alphabet, history_stream, CodecError,
    Reader, StateTableBuilder, StateTableReader, Vault, Writer, META_STREAM,
};
use ix_state::{CompiledTable, StateRef, TableParts};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Version byte every persisted record and blob starts with.
const FORMAT_VERSION: u8 = 1;

/// Version byte of a shard snapshot without a log section: the confirmed
/// actions are on the shard's history stream and the snapshot counts them.
/// [`FORMAT_VERSION`] marks the layout with the log inline, which vaults
/// written before the history streams hold and recovery still reads.
const SNAPSHOT_VERSION: u8 = 2;

/// Wraps a codec failure into a [`ManagerError::Durability`].
pub(crate) fn codec_err(what: &str, e: CodecError) -> ManagerError {
    ManagerError::Durability { detail: format!("{what}: {e}") }
}

/// A durability failure with a plain-text description.
pub(crate) fn durability_err(detail: impl Into<String>) -> ManagerError {
    ManagerError::Durability { detail: detail.into() }
}

/// The manifest form of one cross-shard subscription entry:
/// `(action, owners, per-owner permissibility bits, clients, cached status)`.
pub(crate) type CrossRow = (Action, Vec<usize>, Vec<bool>, Vec<ClientId>, bool);

// ---------------------------------------------------------------------------
// Statistics deltas
// ---------------------------------------------------------------------------

/// The statistics contribution of one write-ahead record.  Mirrors
/// [`ManagerStats`]; recovered counters are the sum of every shard's
/// snapshot base plus its tail deltas plus the meta stream's base and tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatDelta {
    /// Ask/execute requests whose verdict this record carries.
    pub asks: u64,
    /// Grants.
    pub grants: u64,
    /// Denials.
    pub denials: u64,
    /// Confirmed executions.
    pub confirmations: u64,
    /// Lease expiries.
    pub expired: u64,
    /// Explicit aborts.
    pub aborted: u64,
    /// Subscriber notifications sent.
    pub notifications: u64,
}

impl StatDelta {
    /// The all-zero delta.
    pub const ZERO: StatDelta = StatDelta {
        asks: 0,
        grants: 0,
        denials: 0,
        confirmations: 0,
        expired: 0,
        aborted: 0,
        notifications: 0,
    };

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &StatDelta) {
        self.asks += other.asks;
        self.grants += other.grants;
        self.denials += other.denials;
        self.confirmations += other.confirmations;
        self.expired += other.expired;
        self.aborted += other.aborted;
        self.notifications += other.notifications;
    }

    /// What of `self` is not in `other`, field by field.
    pub(crate) fn minus(&self, other: &StatDelta) -> StatDelta {
        StatDelta {
            asks: self.asks.saturating_sub(other.asks),
            grants: self.grants.saturating_sub(other.grants),
            denials: self.denials.saturating_sub(other.denials),
            confirmations: self.confirmations.saturating_sub(other.confirmations),
            expired: self.expired.saturating_sub(other.expired),
            aborted: self.aborted.saturating_sub(other.aborted),
            notifications: self.notifications.saturating_sub(other.notifications),
        }
    }

    /// The delta as a [`ManagerStats`] (same field order).
    pub fn as_stats(&self) -> ManagerStats {
        ManagerStats {
            asks: self.asks,
            grants: self.grants,
            denials: self.denials,
            confirmations: self.confirmations,
            expired_reservations: self.expired,
            aborted_reservations: self.aborted,
            notifications: self.notifications,
        }
    }
}

fn encode_delta(w: &mut Writer, d: &StatDelta) {
    w.u64(d.asks);
    w.u64(d.grants);
    w.u64(d.denials);
    w.u64(d.confirmations);
    w.u64(d.expired);
    w.u64(d.aborted);
    w.u64(d.notifications);
}

fn decode_delta(r: &mut Reader) -> Result<StatDelta, CodecError> {
    Ok(StatDelta {
        asks: r.u64()?,
        grants: r.u64()?,
        denials: r.u64()?,
        confirmations: r.u64()?,
        expired: r.u64()?,
        aborted: r.u64()?,
        notifications: r.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Write-ahead records
// ---------------------------------------------------------------------------

/// One write-ahead record.  Shard streams carry `Commit`, `Reserve` and
/// `Release` (echoed by every owner, in the owner's apply order); the meta
/// stream carries `Event` and `Clock` (order-independent, summed).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalRecord {
    /// A committed action.  `is_primary` marks the commit's deterministic
    /// primary owner (position 0 of the ascending owner set), which is the
    /// only echo whose `delta` is non-zero and the only one that appends to
    /// the durable action log on replay.
    Commit { key: LogKey, action: Action, is_primary: bool, delta: StatDelta },
    /// A reservation inserted into this shard's table.
    Reserve { reservation: Reservation, delta: StatDelta },
    /// A reservation removed from this shard's table (confirm, abort,
    /// expiry, or rejected confirmation).
    Release { id: u64, delta: StatDelta },
    /// A pure statistics event with no deterministic shard attribution
    /// (denials, cross-commit notifications, aborts/expiries of multi-owner
    /// reservations).
    Event { delta: StatDelta },
    /// The logical clock advanced to `now`.
    Clock { now: u64 },
    /// A subscription registered after the covering checkpoint.  Echoed on
    /// the owning shard's stream (shard-local registrations) or the meta
    /// stream (cross-shard and orphan registrations, replayed through the
    /// recovered router); `permitted` is the cached status at registration
    /// time, the baseline the first post-recovery refresh diffs against.
    Subscribe { client: ClientId, action: Action, permitted: bool },
    /// A subscription removed after the covering checkpoint (same stream
    /// placement as `Subscribe`).
    Unsubscribe { client: ClientId, action: Action },
}

const TAG_COMMIT: u8 = 1;
const TAG_RESERVE: u8 = 2;
const TAG_RELEASE: u8 = 3;
const TAG_EVENT: u8 = 4;
const TAG_CLOCK: u8 = 5;
const TAG_SUBSCRIBE: u8 = 6;
const TAG_UNSUBSCRIBE: u8 = 7;

fn encode_key(w: &mut Writer, key: LogKey) {
    w.u64(key.0);
    w.u8(key.1);
    w.u64(key.2);
}

fn decode_key(r: &mut Reader) -> Result<LogKey, CodecError> {
    Ok((r.u64()?, r.u8()?, r.u64()?))
}

fn encode_reservation(w: &mut Writer, res: &Reservation) {
    w.u64(res.id);
    encode_action(w, &res.action);
    w.u64(res.client);
    w.u64(res.granted_at);
    w.u64(res.expires_at);
}

fn decode_reservation(r: &mut Reader) -> Result<Reservation, CodecError> {
    Ok(Reservation {
        id: r.u64()?,
        action: decode_action(r)?,
        client: r.u64()?,
        granted_at: r.u64()?,
        expires_at: r.u64()?,
    })
}

impl WalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(FORMAT_VERSION);
        match self {
            WalRecord::Commit { key, action, is_primary, delta } => {
                w.u8(TAG_COMMIT);
                encode_key(&mut w, *key);
                encode_action(&mut w, action);
                w.bool(*is_primary);
                encode_delta(&mut w, delta);
            }
            WalRecord::Reserve { reservation, delta } => {
                w.u8(TAG_RESERVE);
                encode_reservation(&mut w, reservation);
                encode_delta(&mut w, delta);
            }
            WalRecord::Release { id, delta } => {
                w.u8(TAG_RELEASE);
                w.u64(*id);
                encode_delta(&mut w, delta);
            }
            WalRecord::Event { delta } => {
                w.u8(TAG_EVENT);
                encode_delta(&mut w, delta);
            }
            WalRecord::Clock { now } => {
                w.u8(TAG_CLOCK);
                w.u64(*now);
            }
            WalRecord::Subscribe { client, action, permitted } => {
                w.u8(TAG_SUBSCRIBE);
                w.u64(*client);
                encode_action(&mut w, action);
                w.bool(*permitted);
            }
            WalRecord::Unsubscribe { client, action } => {
                w.u8(TAG_UNSUBSCRIBE);
                w.u64(*client);
                encode_action(&mut w, action);
            }
        }
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::BadVersion { version });
        }
        match r.u8()? {
            TAG_COMMIT => Ok(WalRecord::Commit {
                key: decode_key(&mut r)?,
                action: decode_action(&mut r)?,
                is_primary: r.bool()?,
                delta: decode_delta(&mut r)?,
            }),
            TAG_RESERVE => Ok(WalRecord::Reserve {
                reservation: decode_reservation(&mut r)?,
                delta: decode_delta(&mut r)?,
            }),
            TAG_RELEASE => Ok(WalRecord::Release { id: r.u64()?, delta: decode_delta(&mut r)? }),
            TAG_EVENT => Ok(WalRecord::Event { delta: decode_delta(&mut r)? }),
            TAG_CLOCK => Ok(WalRecord::Clock { now: r.u64()? }),
            TAG_SUBSCRIBE => Ok(WalRecord::Subscribe {
                client: r.u64()?,
                action: decode_action(&mut r)?,
                permitted: r.bool()?,
            }),
            TAG_UNSUBSCRIBE => {
                Ok(WalRecord::Unsubscribe { client: r.u64()?, action: decode_action(&mut r)? })
            }
            tag => Err(CodecError::BadTag { tag }),
        }
    }

    /// The record's statistics contribution (zero for the non-delta
    /// records: `Clock`, `Subscribe`, `Unsubscribe`).
    pub(crate) fn delta(&self) -> StatDelta {
        match self {
            WalRecord::Commit { delta, .. }
            | WalRecord::Reserve { delta, .. }
            | WalRecord::Release { delta, .. }
            | WalRecord::Event { delta } => *delta,
            WalRecord::Clock { .. }
            | WalRecord::Subscribe { .. }
            | WalRecord::Unsubscribe { .. } => StatDelta::ZERO,
        }
    }
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// The runtime's handle on its vault: stream addressing plus the append
/// helpers the workers journal through.  A clone is another handle on the
/// same vault.
#[derive(Clone)]
pub(crate) struct DurabilityHub {
    vault: Arc<dyn Vault>,
}

impl DurabilityHub {
    pub(crate) fn new(vault: Arc<dyn Vault>) -> DurabilityHub {
        DurabilityHub { vault }
    }

    pub(crate) fn vault(&self) -> &Arc<dyn Vault> {
        &self.vault
    }

    /// The stream id of a shard's write-ahead log.
    pub(crate) fn shard_stream(shard: usize) -> u32 {
        shard as u32
    }

    /// Appends a record to a shard's stream (called only by the owning
    /// worker — shard streams are single-writer).
    pub(crate) fn log_shard(&self, shard: usize, record: &WalRecord) -> u64 {
        self.vault.append(DurabilityHub::shard_stream(shard), &record.encode())
    }

    /// Appends a record to the meta stream (any thread).
    pub(crate) fn log_meta(&self, record: &WalRecord) -> u64 {
        self.vault.append(ix_durable::META_STREAM, &record.encode())
    }
}

// ---------------------------------------------------------------------------
// Shard checkpoints
// ---------------------------------------------------------------------------

/// The cheap clones a worker hands the checkpoint coordinator at its task
/// boundary: CoW handles, `Arc`s (the log's sealed chunks among them), and
/// small tables.  Encoding happens off the worker thread.
#[derive(Clone)]
pub(crate) struct ShardCapture {
    pub(crate) shard: usize,
    /// Stream index the capture covers: every record with a smaller index
    /// is reflected in the captured state.
    pub(crate) covered: u64,
    /// Sequence of the last cross-shard commit applied on this shard.
    pub(crate) epoch: u64,
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) state: StateRef,
    /// The log as of the capture; [`persist_shards`] archives what it holds
    /// past its archived mark.
    pub(crate) log: ShardLog,
    pub(crate) reservations: Vec<Reservation>,
    pub(crate) subscriptions: Vec<SubscriptionRow>,
    /// Cumulative statistics delta of every record this shard's stream ever
    /// carried up to `covered`.
    pub(crate) stat_base: StatDelta,
    pub(crate) tier: Vec<Arc<CompiledTable>>,
}

/// A decoded shard snapshot.
pub(crate) struct ShardCheckpoint {
    pub(crate) covered: u64,
    pub(crate) epoch: u64,
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) state: StateRef,
    /// The log the shard resumes with: every entry the snapshot counts
    /// archived and none resident — or, from a snapshot with the log inline,
    /// all of them resident and none archived.
    pub(crate) log: ShardLog,
    pub(crate) reservations: Vec<Reservation>,
    pub(crate) subscriptions: Vec<SubscriptionRow>,
    pub(crate) stat_base: StatDelta,
    pub(crate) tier: Vec<TableParts>,
}

fn encode_subscription_rows(w: &mut Writer, rows: &[SubscriptionRow]) {
    w.len_prefix(rows.len());
    for (key, action, clients, permitted) in rows {
        encode_action(w, key);
        encode_action(w, action);
        w.len_prefix(clients.len());
        for c in clients {
            w.u64(*c);
        }
        w.bool(*permitted);
    }
}

fn decode_subscription_rows(r: &mut Reader) -> Result<Vec<SubscriptionRow>, CodecError> {
    let n = r.len_prefix()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let key = decode_action(r)?;
        let action = decode_action(r)?;
        let m = r.len_prefix()?;
        let mut clients = Vec::with_capacity(m);
        for _ in 0..m {
            clients.push(r.u64()?);
        }
        rows.push((key, action, clients, r.bool()?));
    }
    Ok(rows)
}

/// Serializes one shard capture.  The engine state and every DFA-tile state
/// share one pointer-deduplicated node pool, so structural sharing between
/// the live state and the pinned tile states costs nothing twice.  A tile
/// goes in as far as it is filled: a cell not computed yet is the raw
/// `u32::MAX - 1` its transition array holds, a `permitted` bit says
/// "filled and live", and a complete table from an older snapshot is a
/// lazy table with nothing left to fill.  Of the log
/// only the entry count and the key high-water mark go in: the caller
/// ([`persist_shards`]) has archived the entries themselves.
fn encode_shard_checkpoint(cap: &ShardCapture) -> Vec<u8> {
    let parts: Vec<TableParts> = cap.tier.iter().map(|t| t.to_parts()).collect();
    let mut pool = StateTableBuilder::new();
    let root = pool.add_root(&cap.state);
    let tier_state_ids: Vec<Vec<u32>> =
        parts.iter().map(|p| p.states.iter().map(|s| pool.add_root(s)).collect()).collect();

    let mut w = Writer::new();
    w.u8(SNAPSHOT_VERSION);
    w.u64(cap.covered);
    w.u64(cap.epoch);
    w.u64(cap.accepted);
    w.u64(cap.rejected);
    encode_delta(&mut w, &cap.stat_base);
    pool.finish(&mut w);
    w.u32(root);
    w.len_prefix(parts.len());
    for (p, ids) in parts.iter().zip(&tier_state_ids) {
        w.len_prefix(p.symbols.len());
        for a in &p.symbols {
            encode_action(&mut w, a);
        }
        w.len_prefix(ids.len());
        for id in ids {
            w.u32(*id);
        }
        w.len_prefix(p.transitions.len());
        for t in &p.transitions {
            w.u32(*t);
        }
        w.len_prefix(p.finals.len());
        for f in &p.finals {
            w.u64(*f);
        }
        w.len_prefix(p.permitted.len());
        for v in &p.permitted {
            w.u64(*v);
        }
        w.u64(p.fingerprint);
        // Where the explorer's wall-clock cost used to go; the format keeps
        // the word.
        w.u64(0);
    }
    w.len_prefix(cap.log.len());
    w.u64(cap.log.max_seq().unwrap_or(0));
    w.len_prefix(cap.reservations.len());
    for res in &cap.reservations {
        encode_reservation(&mut w, res);
    }
    encode_subscription_rows(&mut w, &cap.subscriptions);
    w.into_bytes()
}

pub(crate) fn decode_shard_checkpoint(bytes: &[u8]) -> ManagerResult<ShardCheckpoint> {
    let mut r = Reader::new(bytes);
    (|| -> Result<ShardCheckpoint, CodecError> {
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION && version != FORMAT_VERSION {
            return Err(CodecError::BadVersion { version });
        }
        let covered = r.u64()?;
        let epoch = r.u64()?;
        let accepted = r.u64()?;
        let rejected = r.u64()?;
        let stat_base = decode_delta(&mut r)?;
        let pool = StateTableReader::read(&mut r)?;
        let state = pool.node(r.u32()?)?;
        let ntier = r.len_prefix()?;
        let mut tier = Vec::with_capacity(ntier);
        for _ in 0..ntier {
            let nsym = r.len_prefix()?;
            let mut symbols = Vec::with_capacity(nsym);
            for _ in 0..nsym {
                symbols.push(decode_action(&mut r)?);
            }
            let nstates = r.len_prefix()?;
            let mut states = Vec::with_capacity(nstates);
            for _ in 0..nstates {
                states.push(pool.node(r.u32()?)?);
            }
            let ntrans = r.len_prefix()?;
            let mut transitions = Vec::with_capacity(ntrans);
            for _ in 0..ntrans {
                transitions.push(r.u32()?);
            }
            let nfin = r.len_prefix()?;
            let mut finals = Vec::with_capacity(nfin);
            for _ in 0..nfin {
                finals.push(r.u64()?);
            }
            let nperm = r.len_prefix()?;
            let mut permitted = Vec::with_capacity(nperm);
            for _ in 0..nperm {
                permitted.push(r.u64()?);
            }
            let fingerprint = r.u64()?;
            r.u64()?; // compile time, from snapshots that recorded one
            tier.push(TableParts { symbols, states, transitions, finals, permitted, fingerprint });
        }
        let entries = r.len_prefix()?;
        let log = if version == SNAPSHOT_VERSION {
            ShardLog::resumed(entries, epoch, r.u64()?)
        } else {
            // The log inline: it stays resident until the first checkpoint
            // of this code archives it.
            let mut log = ShardLog::new();
            for _ in 0..entries {
                let key = decode_key(&mut r)?;
                log.push_keyed(key, &decode_action(&mut r)?);
            }
            log.set_epoch(epoch);
            log
        };
        let nres = r.len_prefix()?;
        let mut reservations = Vec::with_capacity(nres);
        for _ in 0..nres {
            reservations.push(decode_reservation(&mut r)?);
        }
        let subscriptions = decode_subscription_rows(&mut r)?;
        Ok(ShardCheckpoint {
            covered,
            epoch,
            accepted,
            rejected,
            state,
            log,
            reservations,
            subscriptions,
            stat_base,
            tier,
        })
    })()
    .map_err(|e| codec_err("shard checkpoint", e))
}

// ---------------------------------------------------------------------------
// The history streams
// ---------------------------------------------------------------------------

/// Entries one history record holds at most: what a checkpoint encodes and
/// a reader decodes at a time, however long the shard's log is.
pub(crate) const HISTORY_BATCH: usize = 4096;

/// Appends the entries of `log` past its archived mark to the history stream
/// of `shard`, as records `(version, index of the first entry, count,
/// entries)` of at most [`HISTORY_BATCH`] entries in the `(key, action)`
/// format of the write-ahead records, encoded one after the other through
/// `scratch`.  Returns the bytes appended.
fn archive(vault: &dyn Vault, shard: usize, log: &ShardLog, scratch: &mut Writer) -> u64 {
    let mut first = log.archived();
    let mut entries = log.iter_from(first);
    let mut bytes = 0;
    while first < log.len() {
        let count = (log.len() - first).min(HISTORY_BATCH);
        scratch.clear();
        scratch.u8(FORMAT_VERSION);
        scratch.len_prefix(first);
        scratch.len_prefix(count);
        for (key, action) in entries.by_ref().take(count) {
            encode_key(scratch, key);
            encode_action(scratch, &action);
        }
        vault.append(history_stream(shard), scratch.as_bytes());
        bytes += scratch.len() as u64;
        first += count;
    }
    bytes
}

/// The index of the first entry and the entry count a history record
/// declares; leaves the reader at the first entry.
fn decode_history_header(r: &mut Reader) -> Result<(usize, usize), CodecError> {
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::BadVersion { version });
    }
    Ok((r.len_prefix()?, r.len_prefix()?))
}

fn decode_history_record(payload: &[u8]) -> Result<Vec<(LogKey, Action)>, CodecError> {
    let mut r = Reader::new(payload);
    let (_, count) = decode_history_header(&mut r)?;
    let mut entries = Vec::with_capacity(count.min(HISTORY_BATCH));
    for _ in 0..count {
        entries.push((decode_key(&mut r)?, decode_action(&mut r)?));
    }
    Ok(entries)
}

/// One shard's history stream as read back: the raw records, and which
/// entries of which record are entries `0..len` of the shard's log.
///
/// Records normally continue each other.  They overlap when a crash fell
/// between an archive and the snapshot that would have counted it: the
/// recovered shard re-archives from its older mark, and what it committed
/// after the crash need not be what the orphaned records hold.  So a record
/// **supersedes** everything at or past its first entry in the records
/// before it.  Entries at or past `wanted` — the reader's own count of
/// archived entries — are ignored, and a record that starts past the end of
/// what precedes it leaves a **gap**: `len` stops there, short of `wanted`.
pub(crate) struct ShardHistory {
    shard: usize,
    records: Vec<Vec<u8>>,
    /// `(record, entries taken from its front)` in entry order.
    live: Vec<(usize, usize)>,
    /// Entries the live slices hold, gapless from entry 0.
    len: usize,
    wanted: usize,
}

impl ShardHistory {
    /// The first `wanted` entries of the history of `shard`.  Reads nothing
    /// when none is wanted (and there is none without a vault).
    pub(crate) fn load(
        vault: Option<&dyn Vault>,
        shard: usize,
        wanted: usize,
    ) -> ManagerResult<Self> {
        let records = match vault {
            Some(vault) if wanted > 0 => {
                vault.read_from(history_stream(shard), 0).into_iter().map(|(_, p)| p).collect()
            }
            _ => Vec::new(),
        };
        ShardHistory::from_records(shard, records, wanted)
    }

    fn from_records(shard: usize, records: Vec<Vec<u8>>, wanted: usize) -> ManagerResult<Self> {
        // `(record, first entry, entries)` of the records still standing.
        let mut spans: Vec<(usize, usize, usize)> = Vec::new();
        let mut end = 0;
        for (index, payload) in records.iter().enumerate() {
            let (first, count) = decode_history_header(&mut Reader::new(payload))
                .map_err(|e| codec_err(&format!("history record {index} of shard {shard}"), e))?;
            if first > end {
                break;
            }
            while spans.last().is_some_and(|(_, start, _)| *start >= first) {
                spans.pop();
            }
            if let Some((_, start, taken)) = spans.last_mut() {
                *taken = first - *start;
            }
            spans.push((index, first, count));
            end = first + count;
        }
        let len = end.min(wanted);
        let live = spans
            .into_iter()
            .filter(|(_, first, _)| *first < len)
            .map(|(record, first, count)| (record, count.min(len - first)))
            .collect();
        Ok(ShardHistory { shard, records, live, len, wanted })
    }

    /// Fails if the stream holds fewer than the wanted entries.
    pub(crate) fn check_complete(&self) -> ManagerResult<()> {
        if self.len == self.wanted {
            return Ok(());
        }
        Err(durability_err(format!(
            "history of shard {} has a gap: {} entries were archived, the stream holds the first {}",
            self.shard, self.wanted, self.len
        )))
    }

    /// The entries, decoded one record at a time.  A record that does not
    /// decode ends the iteration and is reported through `failed`.
    fn iter<'a>(&'a self, failed: &'a Cell<Option<ManagerError>>) -> HistoryIter<'a> {
        HistoryIter { history: self, next_live: 0, current: Vec::new().into_iter(), failed }
    }

    fn decode(&self, record: usize) -> ManagerResult<Vec<(LogKey, Action)>> {
        decode_history_record(&self.records[record])
            .map_err(|e| codec_err(&format!("history record {record} of shard {}", self.shard), e))
    }

    /// Key of the last entry held, `None` if none is.
    fn last_key(&self) -> ManagerResult<Option<LogKey>> {
        let Some(&(record, taken)) = self.live.last() else { return Ok(None) };
        Ok(Some(self.decode(record)?[taken - 1].0))
    }
}

struct HistoryIter<'a> {
    history: &'a ShardHistory,
    next_live: usize,
    current: std::vec::IntoIter<(LogKey, Action)>,
    failed: &'a Cell<Option<ManagerError>>,
}

impl Iterator for HistoryIter<'_> {
    type Item = (LogKey, Action);

    fn next(&mut self) -> Option<(LogKey, Action)> {
        loop {
            if let Some(entry) = self.current.next() {
                return Some(entry);
            }
            let &(record, taken) = self.history.live.get(self.next_live)?;
            self.next_live += 1;
            match self.history.decode(record) {
                Ok(mut entries) => {
                    entries.truncate(taken);
                    self.current = entries.into_iter();
                }
                Err(e) => {
                    self.failed.set(Some(e));
                    self.next_live = usize::MAX;
                    return None;
                }
            }
        }
    }
}

/// What a reader of the whole log does about a history stream with a gap
/// (a device that acknowledged a sync it never did can leave one: the
/// snapshot that counts the entries survived, the entries did not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gaps {
    /// Fail with [`ManagerError::Durability`]: the caller needs every entry.
    Refuse,
    /// Visit the longest prefix of the merged log every shard still vouches
    /// for: the entries up to the key of the last one held before the first
    /// gap.
    CutBefore,
}

/// Visits every confirmed action of the given `(shard, log)` pairs in commit
/// order, until `visit` breaks: per shard the entries its log released — read
/// from the shard's history stream in `vault` — chained before the resident
/// ones, the shards merged by key.  Without released entries (no vault, or
/// no checkpoint yet) this is [`ShardLog::merge`] and touches no vault.
pub(crate) fn visit_log<'a>(
    vault: Option<&dyn Vault>,
    logs: impl IntoIterator<Item = (usize, &'a ShardLog)>,
    gaps: Gaps,
    mut visit: impl FnMut(LogKey, Action) -> ControlFlow<()>,
) -> ManagerResult<()> {
    let logs: Vec<(usize, &ShardLog)> = logs.into_iter().collect();
    let mut histories = Vec::with_capacity(logs.len());
    let mut cut: Option<LogKey> = None;
    for (shard, log) in &logs {
        let history = ShardHistory::load(vault, *shard, log.released())?;
        if history.len < history.wanted {
            if gaps == Gaps::Refuse {
                return history.check_complete();
            }
            let Some(last) = history.last_key()? else { return Ok(()) };
            cut = Some(cut.map_or(last, |cut| cut.min(last)));
        }
        histories.push(history);
    }
    let failed = Cell::new(None);
    let segments = histories
        .iter()
        .zip(&logs)
        .map(|(history, (_, log))| history.iter(&failed).chain(log.iter()));
    for (key, action) in crate::log::Merge::new(segments) {
        if cut.is_some_and(|cut| key > cut) || visit(key, action).is_break() {
            break;
        }
    }
    failed.take().map_or(Ok(()), Err)
}

/// The confirmed actions of the given `(shard, log)` pairs in commit order
/// ([`visit_log`]), up to the first gap if a history stream has one.
pub(crate) fn merged_log<'a>(
    vault: Option<&dyn Vault>,
    logs: impl IntoIterator<Item = (usize, &'a ShardLog)> + Clone,
) -> ManagerResult<Vec<Action>> {
    let mut out = Vec::with_capacity(logs.clone().into_iter().map(|(_, log)| log.len()).sum());
    visit_log(vault, logs, Gaps::CutBefore, |_, action| {
        out.push(action);
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// What [`persist_shards`] wrote.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Persisted {
    /// Bytes of the snapshot blobs.
    pub(crate) blob_bytes: u64,
    /// Entries appended to the history streams.
    pub(crate) archived_entries: u64,
    /// Bytes of the history records holding them.
    pub(crate) history_bytes: u64,
}

/// Persists shard captures — the one way shard state reaches the vault.
/// **Archive, sync, snapshot**: the entries each capture's log holds past
/// its archived mark go to the shard's history stream, the streams are
/// synced, and only then is the snapshot saved that counts them archived
/// and carries none of them.  A crash before the snapshot leaves the older
/// snapshot with the older count (the new records are superseded by the
/// next archive, [`ShardHistory`]); after it, the entries it counts are on
/// stable storage.  The caller truncates the covered write-ahead prefix
/// afterwards, and releases the archived entries from memory last.
pub(crate) fn persist_shards(vault: &dyn Vault, captures: &[ShardCapture]) -> Persisted {
    let mut out = Persisted::default();
    let mut scratch = Writer::new();
    for cap in captures {
        out.archived_entries += (cap.log.len() - cap.log.archived()) as u64;
        out.history_bytes += archive(vault, cap.shard, &cap.log, &mut scratch);
    }
    if out.history_bytes > 0 {
        vault.sync();
    }
    for cap in captures {
        let blob = encode_shard_checkpoint(cap);
        out.blob_bytes += blob.len() as u64;
        vault.save_blob(&snap_blob(cap.shard), &blob);
    }
    out
}

/// The blob name of a shard's snapshot.
pub(crate) fn snap_blob(shard: usize) -> String {
    format!("snap-{shard}")
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The checkpoint manifest: everything runtime-global a recovery needs that
/// is not per-shard — the clock, the meta-stream statistics base and its
/// covered offset, the allocator high-water marks, and the cross-shard /
/// orphan subscription registries (checkpoint-resident soft state).
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct Manifest {
    pub(crate) clock: u64,
    pub(crate) meta_covered: u64,
    pub(crate) meta_base: StatDelta,
    pub(crate) log_seq: u64,
    pub(crate) next_reservation: u64,
    /// Cross-shard subscription entries.
    pub(crate) cross: Vec<CrossRow>,
    /// Orphaned subscriptions (actions outside the current alphabet).
    /// The last field: the decoder ignores any bytes after it, such as the
    /// worker-placement trailer earlier manifests carry.
    pub(crate) orphans: Vec<SubscriptionRow>,
}

pub(crate) const MANIFEST_BLOB: &str = "manifest";
pub(crate) const TOPOLOGY_BLOB: &str = "topology";

pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.u64(m.clock);
    w.u64(m.meta_covered);
    encode_delta(&mut w, &m.meta_base);
    w.u64(m.log_seq);
    w.u64(m.next_reservation);
    w.len_prefix(m.cross.len());
    for (action, owners, bits, clients, permitted) in &m.cross {
        encode_action(&mut w, action);
        w.len_prefix(owners.len());
        for o in owners {
            w.u64(*o as u64);
        }
        w.len_prefix(bits.len());
        for b in bits {
            w.bool(*b);
        }
        w.len_prefix(clients.len());
        for c in clients {
            w.u64(*c);
        }
        w.bool(*permitted);
    }
    encode_subscription_rows(&mut w, &m.orphans);
    w.into_bytes()
}

pub(crate) fn decode_manifest(bytes: &[u8]) -> ManagerResult<Manifest> {
    let mut r = Reader::new(bytes);
    (|| -> Result<Manifest, CodecError> {
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::BadVersion { version });
        }
        let clock = r.u64()?;
        let meta_covered = r.u64()?;
        let meta_base = decode_delta(&mut r)?;
        let log_seq = r.u64()?;
        let next_reservation = r.u64()?;
        let ncross = r.len_prefix()?;
        let mut cross = Vec::with_capacity(ncross);
        for _ in 0..ncross {
            let action = decode_action(&mut r)?;
            let no = r.len_prefix()?;
            let mut owners = Vec::with_capacity(no);
            for _ in 0..no {
                owners.push(r.u64()? as usize);
            }
            let nb = r.len_prefix()?;
            let mut bits = Vec::with_capacity(nb);
            for _ in 0..nb {
                bits.push(r.bool()?);
            }
            let nc = r.len_prefix()?;
            let mut clients = Vec::with_capacity(nc);
            for _ in 0..nc {
                clients.push(r.u64()?);
            }
            cross.push((action, owners, bits, clients, r.bool()?));
        }
        let orphans = decode_subscription_rows(&mut r)?;
        // Whatever follows the orphan rows — the worker-placement trailer of
        // earlier manifests — is ignored.
        Ok(Manifest { clock, meta_covered, meta_base, log_seq, next_reservation, cross, orphans })
    })()
    .map_err(|e| codec_err("manifest", e))
}

// ---------------------------------------------------------------------------
// Topology blob
// ---------------------------------------------------------------------------

/// The persisted shard topology: one `(expression, alphabet)` pair per
/// sync-component plus the partition epoch.  Expressions are stored in
/// display form — the printer/parser round-trip is exact — and alphabets
/// explicitly, because a migrated component's alphabet can be wider than
/// its expression's own.
pub(crate) struct TopologyCheckpoint {
    pub(crate) epoch: u64,
    /// The joined expression the runtime enforces.  Not reconstructible from
    /// the components: a coupling constraint is joined via `Expr::sync`, and
    /// only the runtime held the joined form.
    pub(crate) expr: String,
    pub(crate) components: Vec<(String, Alphabet)>,
}

pub(crate) fn encode_topology(t: &TopologyCheckpoint) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.u64(t.epoch);
    w.str(&t.expr);
    w.len_prefix(t.components.len());
    for (expr, alphabet) in &t.components {
        w.str(expr);
        encode_alphabet(&mut w, alphabet);
    }
    w.into_bytes()
}

fn decode_topology(bytes: &[u8]) -> Result<TopologyCheckpoint, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::BadVersion { version });
    }
    let epoch = r.u64()?;
    let expr = r.str()?;
    let n = r.len_prefix()?;
    let mut components = Vec::with_capacity(n);
    for _ in 0..n {
        let expr = r.str()?;
        components.push((expr, decode_alphabet(&mut r)?));
    }
    Ok(TopologyCheckpoint { epoch, expr, components })
}

/// Reads the vault's topology, the first thing every recovery needs.  A
/// topology that is missing or torn in a vault that journaled records but
/// holds no other blob — what a crash before the vault's first barrier
/// leaves ([`Vault::save_blob`]) — is reported as what it means: no commit
/// in the vault was ever promised durable.  Any other unreadable topology
/// is a plain durability error; one of another format version is a codec
/// error like any other.
pub(crate) fn load_topology(vault: &dyn Vault) -> ManagerResult<TopologyCheckpoint> {
    let state = match vault.load_blob(TOPOLOGY_BLOB) {
        None => "missing".to_string(),
        Some(blob) => match decode_topology(&blob) {
            Ok(topo) => return Ok(topo),
            // A torn file can read back as zeros; version 0 was never written.
            Err(e @ CodecError::BadVersion { version }) if version != 0 => {
                return Err(codec_err("topology", e));
            }
            Err(e) => format!("torn ({e})"),
        },
    };
    // Every other blob is saved after the topology, and a save is a barrier.
    // Records are no such proof: the page cache may have written them back.
    // "queue": an earlier runtime's submission queue saved it after the topology.
    let barrier_passed = [snap_blob(0).as_str(), MANIFEST_BLOB, "queue"]
        .into_iter()
        .any(|name| vault.load_blob(name).is_some());
    if barrier_passed || vault.streams().is_empty() {
        return Err(durability_err(format!(
            "the vault holds no readable topology blob: it is {state}"
        )));
    }
    Err(durability_err(format!(
        "the topology blob is {state}: the vault never passed its first barrier, \
         so no commit in it was promised durable"
    )))
}

// ---------------------------------------------------------------------------
// Offline inspection
// ---------------------------------------------------------------------------

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
    /// Compiled DFA tables checkpointed alongside the CoW state.
    pub tier_tables: u64,
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
    let manifest = match vault.load_blob(MANIFEST_BLOB) {
        Some(blob) => Some(decode_manifest(&blob)?),
        None => None,
    };
    let (meta_covered, clock) = manifest.as_ref().map_or((0, 0), |m| (m.meta_covered, m.clock));
    let mut shards = Vec::with_capacity(topo.components.len());
    for shard in 0..topo.components.len() {
        let stream = DurabilityHub::shard_stream(shard);
        let mut row = ShardInspection { shard, ..ShardInspection::default() };
        if let Some(blob) = vault.load_blob(&snap_blob(shard)) {
            let cp = decode_shard_checkpoint(&blob)?;
            row.snapshot = true;
            row.snapshot_bytes = blob.len() as u64;
            row.covered = cp.covered;
            row.log_entries = cp.log.len() as u64;
            row.archived_entries = cp.log.archived() as u64;
            let history = ShardHistory::load(Some(vault.as_ref()), shard, cp.log.archived())?;
            history.check_complete()?;
            row.reservations = cp.reservations.len() as u64;
            row.tier_tables = cp.tier.len() as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::parse;
    use ix_state::Engine;

    fn act(name: &str) -> Action {
        Action::nullary(name)
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::Commit {
                key: (7, 1, 3),
                action: act("x"),
                is_primary: true,
                delta: StatDelta { asks: 1, grants: 1, confirmations: 1, ..StatDelta::ZERO },
            },
            WalRecord::Reserve {
                reservation: Reservation {
                    id: 9,
                    action: act("y"),
                    client: 4,
                    granted_at: 10,
                    expires_at: u64::MAX,
                },
                delta: StatDelta { asks: 1, grants: 1, ..StatDelta::ZERO },
            },
            WalRecord::Release { id: 9, delta: StatDelta { aborted: 1, ..StatDelta::ZERO } },
            WalRecord::Event { delta: StatDelta { notifications: 3, ..StatDelta::ZERO } },
            WalRecord::Clock { now: 42 },
        ];
        for rec in records {
            let decoded = WalRecord::decode(&rec.encode()).expect("decode");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn wal_decode_rejects_unknown_versions() {
        let mut bytes = WalRecord::Clock { now: 1 }.encode();
        bytes[0] = 99;
        assert!(WalRecord::decode(&bytes).is_err());
    }

    #[test]
    fn shard_checkpoint_round_trips_state_and_tables() {
        // A ring caught mid-lap: two of its cells filled, three states.
        let expr = parse("(a - b - c)*").unwrap();
        let mut engine = Engine::new(&expr).unwrap();
        assert!(engine.try_execute(&act("a")) && engine.try_execute(&act("b")));
        let at_capture = engine.tier_stats();
        assert_eq!((at_capture.states, at_capture.fills), (3, 2));
        let cap = ShardCapture {
            shard: 0,
            covered: 17,
            epoch: 3,
            accepted: engine.accepted(),
            rejected: engine.rejected(),
            state: engine.state_handle().clone(),
            log: {
                let mut log = ShardLog::new();
                log.push_keyed((3, 1, 0), &act("a"));
                log
            },
            reservations: vec![Reservation {
                id: 1,
                action: act("c"),
                client: 2,
                granted_at: 0,
                expires_at: 5,
            }],
            subscriptions: vec![(act("b"), act("b"), vec![7, 8], true)],
            stat_base: StatDelta { asks: 2, grants: 1, denials: 1, ..StatDelta::ZERO },
            tier: engine.tier_tables(),
        };
        let decoded = decode_shard_checkpoint(&encode_shard_checkpoint(&cap)).expect("decode");
        assert_eq!(decoded.covered, 17);
        assert_eq!(decoded.epoch, 3);
        assert_eq!(decoded.accepted, cap.accepted);
        // The snapshot counts the log entry and does not carry it.
        assert_eq!((decoded.log.len(), decoded.log.archived()), (1, 1));
        assert_eq!(decoded.log.iter().next(), None);
        assert_eq!((decoded.log.epoch(), decoded.log.max_seq()), (3, Some(3)));
        assert_eq!(decoded.reservations, cap.reservations);
        assert_eq!(decoded.subscriptions, cap.subscriptions);
        assert_eq!(decoded.stat_base, cap.stat_base);
        assert!(
            ix_state::Shared::ptr_eq(&decoded.state, engine.state_handle())
                || decoded.state == *engine.state_handle()
        );
        assert_eq!(decoded.tier.len(), cap.tier.len());
        // A cell the shard fills after the capture goes into the engine's own
        // copy of the table, not into the one the capture holds.
        assert!(!engine.is_permitted(&act("a")));
        assert_eq!(engine.tier_stats().fills, 3);
        let unknown = u32::MAX - 1;
        let held = [1, unknown, unknown, unknown, 2, unknown, unknown, unknown, unknown];
        assert_eq!(cap.tier[0].to_parts().transitions, held);
        // Re-attach the decoded tables on a restored engine: not a compile,
        // the cells filled before the capture are there, and the rest of
        // the lap fills the rest — each cell computed once.
        let mut restored =
            Engine::restore(&expr, decoded.state, decoded.accepted, decoded.rejected).unwrap();
        restored.adopt_tier(decoded.tier);
        let adopted = restored.tier_stats();
        assert_eq!((adopted.compiles, adopted.states, adopted.fills), (0, 3, 2), "{adopted:?}");
        assert!(restored.try_execute(&act("c")));
        assert!(restored.try_execute(&act("a")) && restored.try_execute(&act("b")));
        let lap = restored.tier_stats();
        assert_eq!((lap.states, lap.fills, lap.hits, lap.fallbacks), (4, 4, 3, 0), "{lap:?}");
    }

    /// A history record as [`archive`] writes it, entry `i` keyed
    /// `(0, 1, i)` and named after `tag`.
    fn history_record(first: usize, count: usize, tag: &str) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(FORMAT_VERSION);
        w.len_prefix(first);
        w.len_prefix(count);
        for i in first..first + count {
            encode_key(&mut w, (0, 1, i as u64));
            encode_action(&mut w, &act(&format!("{tag}{i}")));
        }
        w.into_bytes()
    }

    fn held(history: &ShardHistory) -> Vec<String> {
        let failed = Cell::new(None);
        let names = history.iter(&failed).map(|(_, action)| action.to_string()).collect();
        assert!(failed.take().is_none());
        names
    }

    #[test]
    fn a_later_history_record_supersedes_from_its_first_entry() {
        let names = |tag: &str, range: std::ops::Range<usize>| -> Vec<String> {
            range.map(|i| format!("{tag}{i}")).collect()
        };
        // Records that continue each other.
        let records = vec![history_record(0, 3, "a"), history_record(3, 2, "a")];
        let history = ShardHistory::from_records(0, records, 5).unwrap();
        history.check_complete().unwrap();
        assert_eq!(held(&history), names("a", 0..5));
        assert_eq!(history.last_key().unwrap(), Some((0, 1, 4)));

        // A crash between archive and snapshot: `b` was archived from the
        // older mark after the recovery and wins from entry 3 on — also over
        // the part of `a` it does not reach, also when it is a series.
        let records = vec![
            history_record(0, 3, "a"),
            history_record(3, 4, "a"),
            history_record(7, 2, "a"),
            history_record(3, 2, "b"),
            history_record(5, 3, "b"),
        ];
        let history = ShardHistory::from_records(0, records.clone(), 8).unwrap();
        history.check_complete().unwrap();
        assert_eq!(held(&history), [names("a", 0..3), names("b", 3..8)].concat());
        // Before the second `b` record is appended the orphaned tail of `a`
        // is already gone.
        let history = ShardHistory::from_records(0, records[..4].to_vec(), 5).unwrap();
        assert_eq!(held(&history), [names("a", 0..3), names("b", 3..5)].concat());
        assert!(ShardHistory::from_records(0, records[..4].to_vec(), 6)
            .unwrap()
            .check_complete()
            .is_err());
        // A record that restarts at 0 supersedes everything.
        let records = vec![history_record(0, 3, "a"), history_record(0, 2, "b")];
        assert_eq!(held(&ShardHistory::from_records(0, records, 2).unwrap()), names("b", 0..2));
    }

    #[test]
    fn history_past_the_snapshot_count_is_ignored_and_a_gap_is_an_error() {
        // The snapshot counts 4: the orphaned rest is not read, not even a
        // record that would not decode.
        let records = vec![history_record(0, 3, "a"), history_record(3, 3, "a"), vec![99]];
        let history = ShardHistory::from_records(2, records[..2].to_vec(), 4).unwrap();
        history.check_complete().unwrap();
        assert_eq!(held(&history).len(), 4);
        assert_eq!(history.last_key().unwrap(), Some((0, 1, 3)));
        assert!(ShardHistory::from_records(2, records, 4).is_err(), "unknown version");
        let none = ShardHistory::from_records(2, vec![history_record(0, 3, "a")], 0).unwrap();
        none.check_complete().unwrap();
        assert_eq!((held(&none).len(), none.last_key().unwrap()), (0, None));

        // Entries 3..5 are missing: what follows the gap does not count.
        let records = vec![history_record(0, 3, "a"), history_record(5, 3, "a")];
        let history = ShardHistory::from_records(2, records, 8).unwrap();
        assert_eq!(held(&history).len(), 3);
        let error = history.check_complete().unwrap_err();
        assert!(
            matches!(&error, ManagerError::Durability { detail } if detail.contains("shard 2")),
            "{error}"
        );
        // A stream that ends early is the same.
        let history = ShardHistory::from_records(2, vec![history_record(0, 3, "a")], 4).unwrap();
        assert!(history.check_complete().is_err());
        assert!(ShardHistory::from_records(2, Vec::new(), 1).unwrap().check_complete().is_err());
    }

    #[test]
    fn persisting_archives_the_delta_in_bounded_records_and_reads_back() {
        use ix_durable::MemVault;
        let vault = MemVault::new();
        let expr = parse("(a - b)*").unwrap();
        let engine = Engine::new(&expr).unwrap();
        let capture = |log: &ShardLog| ShardCapture {
            shard: 1,
            covered: 0,
            epoch: log.epoch(),
            accepted: 0,
            rejected: 0,
            state: engine.state_handle().clone(),
            log: log.clone(),
            reservations: Vec::new(),
            subscriptions: Vec::new(),
            stat_base: StatDelta::ZERO,
            tier: Vec::new(),
        };
        let mut log = ShardLog::new();
        let mut expected = Vec::new();
        let push = |log: &mut ShardLog, expected: &mut Vec<Action>, n: usize| {
            for _ in 0..n {
                let action = act(["a", "b"][expected.len() % 2]);
                log.push_single(expected.len() as u64, &action);
                expected.push(action);
            }
        };
        let read = |log: &ShardLog| merged_log(Some(&vault), [(1, log)]).unwrap();

        // Nothing to archive: no stream, no sync, a snapshot all the same.
        let first = persist_shards(&vault, &[capture(&log)]);
        assert_eq!((first.archived_entries, first.history_bytes), (0, 0));
        assert!(first.blob_bytes > 0 && vault.streams().is_empty());

        push(&mut log, &mut expected, 2 * HISTORY_BATCH + 10);
        let second = persist_shards(&vault, &[capture(&log)]);
        assert_eq!(second.archived_entries as usize, 2 * HISTORY_BATCH + 10);
        assert_eq!(vault.stream_len(history_stream(1)), 3, "two full records and the rest");
        assert_eq!(second.blob_bytes, first.blob_bytes + 2, "two varints grew by a byte each");
        log.release(log.len());
        assert_eq!(read(&log), expected);

        // The next cut appends the delta only.
        push(&mut log, &mut expected, 5);
        let third = persist_shards(&vault, &[capture(&log)]);
        assert_eq!((third.archived_entries, vault.stream_len(history_stream(1))), (5, 4));
        assert!(third.history_bytes < second.history_bytes / 100);
        assert_eq!(read(&log), expected, "released prefix from the vault, the rest resident");
        log.release(log.len());
        assert_eq!(read(&log), expected);

        // The snapshot resumes the log where the archive ends.
        let decoded = decode_shard_checkpoint(&vault.load_blob(&snap_blob(1)).unwrap()).unwrap();
        assert_eq!((decoded.log.len(), decoded.log.archived()), (expected.len(), expected.len()));
        assert_eq!(read(&decoded.log), expected);
    }

    #[test]
    fn manifest_and_topology_round_trip() {
        let manifest = Manifest {
            clock: 11,
            meta_covered: 5,
            meta_base: StatDelta { notifications: 2, ..StatDelta::ZERO },
            log_seq: 20,
            next_reservation: 31,
            cross: vec![(act("x"), vec![0, 2], vec![true, false], vec![1], false)],
            orphans: vec![(act("z"), act("z"), vec![3], true)],
        };
        // The encoding ends at the orphan rows, as manifests written before
        // the worker-placement trailer did.
        let encoded = encode_manifest(&manifest);
        assert_eq!(decode_manifest(&encoded).expect("manifest"), manifest);

        // Manifests written with the trailer (a length prefix and one u64
        // worker id per shard) still decode, the trailer ignored.
        let mut trailer = Writer::new();
        trailer.len_prefix(4);
        for worker in [0u64, 1, 0, 1] {
            trailer.u64(worker);
        }
        let mut with_trailer = encoded;
        with_trailer.extend_from_slice(&trailer.into_bytes());
        assert_eq!(decode_manifest(&with_trailer).expect("manifest with trailer"), manifest);

        let expr = parse("a | b").unwrap();
        let topo = TopologyCheckpoint {
            epoch: 2,
            expr: expr.to_string(),
            components: vec![(expr.to_string(), expr.alphabet())],
        };
        let decoded = decode_topology(&encode_topology(&topo)).expect("topology");
        assert_eq!(decoded.epoch, 2);
        assert_eq!(parse(&decoded.expr).unwrap(), expr);
        assert_eq!(decoded.components.len(), 1);
        assert_eq!(parse(&decoded.components[0].0).unwrap(), expr);
        assert_eq!(decoded.components[0].1, expr.alphabet());
    }
}
