//! Checkpoints: snapshots, the history streams and their readers, the
//! manifest and topology blobs, and the cut itself ([`run_checkpoint`]).

use super::journal::{
    decode_delta, decode_key, decode_reservation, encode_delta, encode_key, encode_reservation,
    DurabilityHub, WalRecord,
};
use super::{codec_err, durability_err, FORMAT_VERSION, SNAPSHOT_VERSION};
use crate::error::{ManagerError, ManagerResult};
use crate::lock;
use crate::log::{LogKey, ShardLog};
use crate::runtime::{
    ask_shards, control, read_topology, Answer, CheckpointReport, RuntimeShared, TopologySlot,
};
use crate::subscription::{CrossRow, SubscriptionRow};
use crate::{ManagerStats, Reservation};
use ix_core::{Action, Alphabet, Expr, Partition};
use ix_durable::{
    decode_action, decode_alphabet, encode_action, encode_alphabet, history_stream, CodecError,
    Reader, StateTableBuilder, StateTableReader, Vault, Writer, META_STREAM,
};
use ix_state::StateRef;
use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One shard's snapshot: what a worker captures at its task boundary and
/// hands the checkpoint coordinator, and what recovery decodes and installs
/// ([`ShardState::restore`](crate::shard::ShardState::restore)).  Captured,
/// it holds cheap clones — CoW handles, `Arc`s (the log's sealed chunks
/// among them) and small tables — so encoding happens off the worker thread.
#[derive(Clone)]
pub(crate) struct ShardCheckpoint {
    pub(crate) shard: usize,
    /// Stream index the snapshot covers: every record with a smaller index
    /// is reflected in the snapshotted state.
    pub(crate) covered: u64,
    /// Sequence of the last cross-shard commit applied on this shard.
    pub(crate) epoch: u64,
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) state: StateRef,
    /// Captured, the log as of the capture: [`persist_shards`] archives what
    /// it holds past its archived mark.  Decoded, the log the shard resumes
    /// with: every entry the snapshot counts archived and none resident —
    /// or, from a snapshot with the log inline, all of them resident and
    /// none archived.
    pub(crate) log: ShardLog,
    pub(crate) reservations: Vec<Reservation>,
    pub(crate) subscriptions: Vec<SubscriptionRow>,
    /// Cumulative statistics delta of every record this shard's stream ever
    /// carried up to `covered`.
    pub(crate) stat_base: ManagerStats,
}

fn encode_subscription_rows(w: &mut Writer, rows: &[SubscriptionRow]) {
    w.seq(rows, |w, (key, action, clients, permitted)| {
        encode_action(w, key);
        encode_action(w, action);
        w.seq(clients, |w, c| w.u64(*c));
        w.bool(*permitted);
    });
}

fn decode_subscription_rows(r: &mut Reader) -> Result<Vec<SubscriptionRow>, CodecError> {
    r.seq(|r| Ok((decode_action(r)?, decode_action(r)?, r.seq(Reader::u64)?, r.bool()?)))
}

/// Serializes one shard snapshot: the state that decides the next action,
/// through the pointer-deduplicating node pool, and none of the engine's
/// tier tables, which are a cache the recovered engine refills — the table
/// sequence the format keeps is written empty.  Of the log only the entry
/// count and the key high-water mark go in: the caller ([`persist_shards`])
/// has archived the entries themselves.
pub(super) fn encode_shard_checkpoint(cap: &ShardCheckpoint) -> Vec<u8> {
    let mut pool = StateTableBuilder::new();
    let root = pool.add_root(&cap.state);
    let mut w = Writer::new();
    w.u8(SNAPSHOT_VERSION);
    w.u64(cap.covered);
    w.u64(cap.epoch);
    w.u64(cap.accepted);
    w.u64(cap.rejected);
    encode_delta(&mut w, &cap.stat_base);
    pool.finish(&mut w);
    w.u32(root);
    w.len_prefix(0); // no tier tables
    w.len_prefix(cap.log.len());
    w.u64(cap.log.max_seq().unwrap_or(0));
    w.seq(&cap.reservations, encode_reservation);
    encode_subscription_rows(&mut w, &cap.subscriptions);
    w.into_bytes()
}

/// Decodes the snapshot blob of `shard`.
pub(crate) fn decode_shard_checkpoint(
    shard: usize,
    bytes: &[u8],
) -> ManagerResult<ShardCheckpoint> {
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
        // The tier tables older snapshots carry (axis, state ids, cells, two
        // bitsets, a fingerprint, a spare word) are read past: a recovered
        // engine installs its own.
        r.seq(|r| {
            r.seq(decode_action)?;
            r.seq(Reader::u32)?;
            r.seq(Reader::u32)?;
            r.seq(Reader::u64)?;
            r.seq(Reader::u64)?;
            r.u64()?;
            r.u64()
        })?;
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
        let reservations = r.seq(decode_reservation)?;
        let subscriptions = decode_subscription_rows(&mut r)?;
        Ok(ShardCheckpoint {
            shard,
            covered,
            epoch,
            accepted,
            rejected,
            state,
            log,
            reservations,
            subscriptions,
            stat_base,
        })
    })()
    .map_err(|e| codec_err("shard checkpoint", e))
}

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

    pub(super) fn from_records(
        shard: usize,
        records: Vec<Vec<u8>>,
        wanted: usize,
    ) -> ManagerResult<Self> {
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
    pub(super) fn iter<'a>(&'a self, failed: &'a Cell<Option<ManagerError>>) -> HistoryIter<'a> {
        HistoryIter { history: self, next_live: 0, current: Vec::new().into_iter(), failed }
    }

    fn decode(&self, record: usize) -> ManagerResult<Vec<(LogKey, Action)>> {
        decode_history_record(&self.records[record])
            .map_err(|e| codec_err(&format!("history record {record} of shard {}", self.shard), e))
    }

    /// Key of the last entry held, `None` if none is.
    pub(super) fn last_key(&self) -> ManagerResult<Option<LogKey>> {
        let Some(&(record, taken)) = self.live.last() else { return Ok(None) };
        Ok(Some(self.decode(record)?[taken - 1].0))
    }
}

pub(super) struct HistoryIter<'a> {
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
/// no checkpoint yet) this merges the resident segments and touches no vault.
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
pub(crate) fn persist_shards(vault: &dyn Vault, captures: &[ShardCheckpoint]) -> Persisted {
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

/// The checkpoint manifest: everything runtime-global a recovery needs that
/// is not per-shard — the clock, the meta-stream statistics base and its
/// covered offset, the allocator high-water marks, and the cross-shard /
/// orphan subscription registries (checkpoint-resident soft state).
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct Manifest {
    pub(crate) clock: u64,
    pub(crate) meta_covered: u64,
    pub(crate) meta_base: ManagerStats,
    pub(crate) log_seq: u64,
    pub(crate) next_reservation: u64,
    /// Cross-shard subscription entries.
    pub(crate) cross: Vec<CrossRow>,
    /// Orphaned subscriptions (actions outside the current alphabet).
    /// The last field: the decoder ignores any bytes after it, such as the
    /// worker-placement trailer earlier manifests carry.
    pub(crate) orphans: Vec<SubscriptionRow>,
}

const MANIFEST_BLOB: &str = "manifest";
const TOPOLOGY_BLOB: &str = "topology";

pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(FORMAT_VERSION);
    w.u64(m.clock);
    w.u64(m.meta_covered);
    encode_delta(&mut w, &m.meta_base);
    w.u64(m.log_seq);
    w.u64(m.next_reservation);
    w.seq(&m.cross, |w, (action, owners, bits, clients, permitted)| {
        encode_action(w, action);
        w.seq(owners, |w, o| w.u64(*o as u64));
        w.seq(bits, |w, b| w.bool(*b));
        w.seq(clients, |w, c| w.u64(*c));
        w.bool(*permitted);
    });
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
        let cross = r.seq(|r| {
            let action = decode_action(r)?;
            let owners = r.seq(|r| Ok(r.u64()? as usize))?;
            Ok((action, owners, r.seq(Reader::bool)?, r.seq(Reader::u64)?, r.bool()?))
        })?;
        let orphans = decode_subscription_rows(&mut r)?;
        // Whatever follows the orphan rows — the worker-placement trailer of
        // earlier manifests — is ignored.
        Ok(Manifest { clock, meta_covered, meta_base, log_seq, next_reservation, cross, orphans })
    })()
    .map_err(|e| codec_err("manifest", e))
}

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
    w.seq(&t.components, |w, (expr, alphabet)| {
        w.str(expr);
        encode_alphabet(w, alphabet);
    });
    w.into_bytes()
}

pub(super) fn decode_topology(bytes: &[u8]) -> Result<TopologyCheckpoint, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::BadVersion { version });
    }
    let epoch = r.u64()?;
    let expr = r.str()?;
    let components = r.seq(|r| Ok((r.str()?, decode_alphabet(r)?)))?;
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

/// The manifest of the last completed cut, if any.
pub(super) fn load_manifest(vault: &dyn Vault) -> ManagerResult<Option<Manifest>> {
    vault.load_blob(MANIFEST_BLOB).map(|blob| decode_manifest(&blob)).transpose()
}

/// The checkpoint cut ([`ManagerRuntime::checkpoint`]).
pub(crate) fn run_checkpoint(
    shared: &RuntimeShared,
    slot: &TopologySlot,
) -> ManagerResult<CheckpointReport> {
    let hub = shared
        .durability
        .as_ref()
        .ok_or_else(|| durability_err("checkpoint requires a runtime with a vault"))?;
    let vault = hub.vault().as_ref();
    // From capture to release one cut at a time: a cut archives from the
    // mark the previous one released at.
    let _persisting = lock(&shared.persisting);
    let topo = read_topology(slot);
    let shards = topo.slots.len();
    let mut captures: Vec<ShardCheckpoint> =
        ask_shards(&topo, |st| st.capture()).into_iter().flatten().collect();
    captures.sort_by_key(|c| c.shard);
    let persisted = persist_shards(vault, &captures);
    // Fold the covered meta-stream prefix into the manifest's statistics
    // base.  Records racing in *after* the captured length keep an index
    // >= `meta_len`, survive the truncation, and replay as tail — the
    // event deltas are order-independent, so the cut is race-free.
    let (mut meta_base, old_covered) =
        load_manifest(vault)?.map_or((ManagerStats::ZERO, 0), |m| (m.meta_base, m.meta_covered));
    let meta_len = vault.stream_len(META_STREAM);
    let mut clock = shared.clock.load(Ordering::Relaxed);
    for (index, payload) in vault.read_from(META_STREAM, old_covered) {
        if index >= meta_len {
            break;
        }
        let record = WalRecord::decode(&payload).map_err(|e| codec_err("meta record", e))?;
        if let WalRecord::Clock { now } = record {
            clock = clock.max(now);
        }
        meta_base.add(&record.delta());
    }
    let manifest = Manifest {
        clock,
        meta_covered: meta_len,
        meta_base,
        log_seq: shared.log_seq.load(Ordering::Relaxed),
        next_reservation: shared.next_reservation.load(Ordering::Relaxed),
        cross: lock(&shared.cross_subscriptions).export(),
        orphans: lock(&shared.orphan_subscriptions).export(),
    };
    vault.save_blob(MANIFEST_BLOB, &encode_manifest(&manifest));
    for cap in &captures {
        vault.truncate(DurabilityHub::shard_stream(cap.shard), cap.covered);
    }
    vault.truncate(META_STREAM, meta_len);
    vault.sync();
    // The cut is complete: the shards may forget what it archived.
    let released: Vec<Answer<()>> = captures
        .iter()
        .map(|cap| {
            let (archived, gate) = (cap.log.len(), Arc::clone(&topo.slots[cap.shard].gate));
            control(&topo, cap.shard, move |st| {
                st.log.release(archived);
                // Published before the answer: a load report read after the
                // checkpoint returns shows what it released.
                gate.publish_log(&st.log);
            })
        })
        .collect();
    for answer in released {
        answer.wait();
    }
    Ok(CheckpointReport {
        shards,
        captured: captures.len(),
        bytes: persisted.blob_bytes,
        archived_entries: persisted.archived_entries,
        history_bytes: persisted.history_bytes,
    })
}

/// Makes a repartition durable, before any paused shard resumes: the
/// migrated shards are re-snapshotted (their snapshots must stop carrying
/// the subscriptions promoted to cross-shard entries) and their covered
/// prefixes truncated, the topology blob switches recovery over to the
/// widened partition, and the manifest's cross/orphan registries follow the
/// promotion.  Order matters for crash safety: a per-shard snapshot is valid
/// under either topology (migration never touches an existing shard's
/// engine or alphabet), so a crash before the blob rewrite simply recovers
/// the old partition.
pub(crate) fn persist_repartition(
    vault: &dyn Vault,
    captures: &[ShardCheckpoint],
    expr: &Expr,
    partition: &Partition,
    cross: Vec<CrossRow>,
    orphans: Vec<SubscriptionRow>,
) -> ManagerResult<()> {
    persist_shards(vault, captures);
    for cap in captures {
        vault.truncate(DurabilityHub::shard_stream(cap.shard), cap.covered);
    }
    save_topology(vault, expr, partition);
    if let Some(mut manifest) = load_manifest(vault)? {
        manifest.cross = cross;
        manifest.orphans = orphans;
        vault.save_blob(MANIFEST_BLOB, &encode_manifest(&manifest));
    }
    vault.sync();
    Ok(())
}

/// Persists the partition's component table plus the joined expression —
/// the routing ground truth every recovery starts from.
pub(crate) fn save_topology(vault: &dyn Vault, expr: &Expr, partition: &Partition) {
    let components =
        partition.components().iter().map(|c| (c.expr.to_string(), c.alphabet.clone())).collect();
    let topo = TopologyCheckpoint { epoch: partition.epoch(), expr: expr.to_string(), components };
    vault.save_blob(TOPOLOGY_BLOB, &encode_topology(&topo));
}
