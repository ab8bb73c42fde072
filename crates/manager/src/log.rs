//! The commit log: one shard's confirmed actions, packed.
//!
//! The interaction *state* decides the next action; the history exists only
//! for audit and for the Sec. 7 recovery strategy.  It still grows with every
//! commit for the life of the manager, so it is kept small, in two tiers: a
//! [`ShardLog`] is an append-only byte stream cut into chunks of at most
//! [`CHUNK_BYTES`]; the open one is written in place, and a full one is
//! sealed — coded by [`crate::lz`] (LZ77 and Huffman codes of its own, or
//! stored as it is if that is smaller) and put behind an `Arc`.
//!
//! ```text
//! stream := item*
//! item   := head(CROSS,  seq   - epoch)    action     key (seq, 0, 0);   epoch := seq
//!         | head(SINGLE, sub   - last sub) action     key (epoch, 1, sub)
//!         | head(EPOCH,  value - epoch)               epoch := value
//! head   := one byte: kind in bits 0–1, delta bits 0–4 in bits 2–6, bit 7 set
//!           if a varint with the remaining delta bits follows
//! action := ix_core's packed action (interned indices, zigzag integers)
//! ```
//!
//! Deltas wrap, so any key sequence round-trips; the usual one (sub-sequences
//! ascending by a few, an epoch change now and then) costs one head byte.
//! An item never straddles a chunk, decoder state carries across chunks, and
//! a clone shares every sealed chunk and copies only the open one — which is
//! what a checkpoint capture, a log read, and a manager clone pay.  A reader
//! inflates one chunk at a time into a buffer of its own, never the history.
//!
//! Every chunk remembers its *resume point* — the index of its first entry
//! and the decoder state there — so a reader can start at any chunk.  That is
//! what lets a runtime with a vault leave history behind: once a checkpoint
//! has archived a prefix of the entries ([`ShardLog::release`]), the sealed
//! chunks wholly inside it are dropped, while [`ShardLog::len`],
//! [`ShardLog::epoch`] and [`ShardLog::max_seq`] keep counting everything.
//! A log nobody releases (no vault, the blocking manager) keeps every chunk,
//! at what the chunk compressed to.
//!
//! The key scheme — who sorts before whom in the merged log — is confined to
//! the three writers ([`ShardLog::push_single`], [`ShardLog::push_cross`],
//! [`ShardLog::set_epoch`]) and the merge.  Elsewhere a key is a value to
//! store in a write-ahead record or to hand back through
//! [`ShardLog::push_keyed`]; only recovery's roll-forward of torn
//! cross-shard commits looks inside one (the sequence of a cross key).
//!
//! The chunks name symbols by process-local index and therefore never
//! leave memory: checkpoints and write-ahead records are written from the
//! decoded `(key, action)` pairs in the string-named format of `ix_durable`.

use crate::lz;
use ix_core::pack::{read_varint, write_varint};
use ix_core::Action;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Sort key of a log entry.  Cross-shard commits act as epoch boundaries:
/// their key is `(own seq, 0, 0)`, and a single-owner commit is keyed by
/// `(seq of the last cross-shard commit applied on its shard, 1, unique
/// sub-sequence)`.  Merging the shard segments by this key yields a legal
/// linearization even though shard workers run (and speculate) at different
/// speeds: per-shard commit order is preserved exactly, and single-owner
/// commits of *different* shards within the same epoch have disjoint
/// alphabets (they belong to different sync-components), so any relative
/// order replays.
pub(crate) type LogKey = (u64, u8, u64);

/// Capacity of one chunk before it is sealed.  An item larger than this gets
/// a chunk of its own.  Small, because the open chunk is the only part of a
/// history held uncompressed and what a reader inflates a sealed one into.
const CHUNK_BYTES: usize = 16 * 1024;

/// Distinct packed actions an iterator keeps decoded for reuse.
const DECODE_CACHE: usize = 4096;

const KIND_CROSS: u8 = 0;
const KIND_SINGLE: u8 = 1;
const KIND_EPOCH: u8 = 2;

fn write_head(out: &mut Vec<u8>, kind: u8, delta: u64) {
    let first = kind | ((delta as u8 & 0x1f) << 2);
    match delta >> 5 {
        0 => out.push(first),
        rest => {
            out.push(first | 0x80);
            write_varint(out, rest);
        }
    }
}

fn read_head(buf: &mut &[u8]) -> Option<(u8, u64)> {
    let (&first, rest) = buf.split_first()?;
    *buf = rest;
    let mut delta = u64::from((first & 0x7f) >> 2);
    if first & 0x80 != 0 {
        delta |= read_varint(buf)? << 5;
    }
    Some((first & 3, delta))
}

/// Where a reader starts a chunk: the index of the chunk's first entry and
/// the decoder state before its first item.
#[derive(Clone, Copy, Default)]
struct Resume {
    first: usize,
    epoch: u64,
    sub: u64,
}

/// One shard's append-only log of confirmed actions.
#[derive(Clone, Default)]
pub(crate) struct ShardLog {
    /// The resident sealed chunks, oldest first, as [`lz::pack`] left them.
    sealed: Vec<(Resume, Arc<[u8]>)>,
    open: Vec<u8>,
    open_resume: Resume,
    /// Bytes the resident sealed chunks occupy, compressed.
    sealed_bytes: usize,
    /// Entries ever logged, released ones included.
    entries: usize,
    /// Entries a checkpoint has archived in the vault: the next one
    /// archives from here.
    archived: usize,
    /// Epoch the next single-owner entry is keyed under.
    epoch: u64,
    /// Epoch a reader holds at the end of the stream; differs from `epoch`
    /// while a [`ShardLog::set_epoch`] awaits the entry that needs it.
    stream_epoch: u64,
    /// Sub-sequence of the last single-owner entry written.
    last_sub: u64,
    /// Largest sequence number any entry's key carries.
    max_seq: u64,
}

impl ShardLog {
    /// The empty log; allocates nothing until the first entry.
    pub(crate) fn new() -> ShardLog {
        ShardLog::default()
    }

    /// A log whose first `entries` entries live in the vault only: what a
    /// recovery starts a shard with.  `epoch` and `max_seq` are what
    /// [`ShardLog::epoch`] and [`ShardLog::max_seq`] returned when the
    /// entries were archived.
    pub(crate) fn resumed(entries: usize, epoch: u64, max_seq: u64) -> ShardLog {
        ShardLog {
            open_resume: Resume { first: entries, epoch, sub: 0 },
            entries,
            archived: entries,
            epoch,
            stream_epoch: epoch,
            max_seq,
            ..ShardLog::default()
        }
    }

    /// Number of entries ever logged, released ones included.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Bytes the resident entries occupy: sealed chunks as compressed.
    pub(crate) fn bytes(&self) -> usize {
        self.sealed_bytes + self.open.len()
    }

    /// Entries a checkpoint has archived ([`ShardLog::release`]).
    pub(crate) fn archived(&self) -> usize {
        self.archived
    }

    /// Index of the first resident entry: everything below it was released.
    pub(crate) fn released(&self) -> usize {
        self.sealed.first().map_or(self.open_resume.first, |(resume, _)| resume.first)
    }

    /// Records that the vault holds every entry below `archived` and drops
    /// the sealed chunks that lie wholly below it.  The open chunk and a
    /// sealed one the mark falls into stay.
    pub(crate) fn release(&mut self, archived: usize) {
        self.archived = self.archived.max(archived.min(self.entries));
        // A chunk ends where the next one starts.
        let ends = self.sealed.iter().skip(1).map(|(resume, _)| resume.first);
        let wholly_below = ends
            .chain([self.open_resume.first])
            .take(self.sealed.len())
            .take_while(|end| *end <= self.archived)
            .count();
        for (_, chunk) in self.sealed.drain(..wholly_below) {
            self.sealed_bytes -= chunk.len();
        }
    }

    /// The largest sequence number among the keys of the entries, `None` for
    /// an empty log: a recovery resumes the sequence allocator past it.
    pub(crate) fn max_seq(&self) -> Option<u64> {
        (self.entries > 0).then_some(self.max_seq)
    }

    /// Sequence of the last cross-shard commit applied on this shard — the
    /// epoch component of the next single-owner key.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Moves the shard into epoch `seq` without logging an entry (a
    /// cross-shard commit whose primary owner is another shard, or history a
    /// new shard replayed).  Costs nothing until a single-owner entry needs
    /// the epoch, then one marker item.
    pub(crate) fn set_epoch(&mut self, seq: u64) {
        self.epoch = seq;
    }

    /// Logs a single-owner commit under the current epoch; returns its key.
    pub(crate) fn push_single(&mut self, sub: u64, action: &Action) -> LogKey {
        if self.stream_epoch != self.epoch {
            let delta = self.epoch.wrapping_sub(self.stream_epoch);
            self.append(|out| write_head(out, KIND_EPOCH, delta));
            self.stream_epoch = self.epoch;
        }
        let delta = sub.wrapping_sub(self.last_sub);
        self.append(|out| {
            write_head(out, KIND_SINGLE, delta);
            action.pack(out);
        });
        self.last_sub = sub;
        self.max_seq = self.max_seq.max(self.epoch).max(sub);
        self.entries += 1;
        (self.epoch, 1, sub)
    }

    /// Logs a cross-shard commit on its primary owner and enters its epoch;
    /// returns its key.
    pub(crate) fn push_cross(&mut self, seq: u64, action: &Action) -> LogKey {
        let delta = seq.wrapping_sub(self.stream_epoch);
        self.append(|out| {
            write_head(out, KIND_CROSS, delta);
            action.pack(out);
        });
        self.stream_epoch = seq;
        self.epoch = seq;
        self.max_seq = self.max_seq.max(seq);
        self.entries += 1;
        (seq, 0, 0)
    }

    /// Logs an entry under a key read back from a checkpoint or a
    /// write-ahead record.
    pub(crate) fn push_keyed(&mut self, key: LogKey, action: &Action) {
        match key {
            (seq, 0, _) => self.push_cross(seq, action),
            (epoch, _, sub) => {
                self.set_epoch(epoch);
                self.push_single(sub, action)
            }
        };
    }

    /// Appends one item to the open chunk, sealing the chunk first if the
    /// item does not fit.
    fn append(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        if self.open.capacity() == 0 {
            self.open.reserve_exact(CHUNK_BYTES);
        }
        let start = self.open.len();
        write(&mut self.open);
        if self.open.len() > CHUNK_BYTES && start > 0 {
            let chunk: Arc<[u8]> = lz::pack(&self.open[..start]).into();
            self.sealed_bytes += chunk.len();
            self.sealed.push((self.open_resume, chunk));
            // The writers update their state after the item is in, so this
            // is the decoder state before the item.
            self.open_resume =
                Resume { first: self.entries, epoch: self.stream_epoch, sub: self.last_sub };
            // The buffer is reused with the item at its front.  Writing the
            // item doubled it, of which only the chunk's worth is touched
            // again; more than that an oversized item leaves behind.
            self.open.drain(..start);
            self.open.shrink_to(2 * CHUNK_BYTES);
        }
    }

    /// The resident entries in commit order, decoded lazily.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            log: self,
            next_chunk: 0,
            chunk: Vec::new(),
            at: 0,
            epoch: 0,
            sub: 0,
            cache: HashMap::new(),
        }
    }

    /// The entries from index `from` on, which must be resident
    /// (`released() <= from`).  Inflates the chunk holding `from` first and
    /// skips, undecoded, the entries before it in that chunk.
    pub(crate) fn iter_from(&self, from: usize) -> Iter<'_> {
        assert!(from >= self.released(), "entry {from} of the log was released");
        let (chunk, first) = if self.open_resume.first <= from {
            (self.sealed.len(), self.open_resume.first)
        } else {
            // Not released and not in the open chunk: a sealed chunk starts
            // at or before it.
            let chunk = self.sealed.partition_point(|(resume, _)| resume.first <= from) - 1;
            (chunk, self.sealed[chunk].0.first)
        };
        let mut iter = self.iter();
        iter.next_chunk = chunk;
        for _ in first..from.min(self.entries) {
            iter.advance();
        }
        iter
    }

    /// The given resident segments merged by key ([`Merge`]).  Readers of a
    /// whole log go through `durability::visit_log`, which also reads what a
    /// vault archived; the tests merge resident segments directly.
    #[cfg(test)]
    pub(crate) fn merge<'a>(logs: impl IntoIterator<Item = &'a ShardLog>) -> Merge<Iter<'a>> {
        Merge::new(logs.into_iter().map(ShardLog::iter))
    }
}

impl fmt::Debug for ShardLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardLog")
            .field("entries", &self.entries)
            .field("bytes", &self.bytes())
            .field("chunks", &(self.sealed.len() + usize::from(!self.open.is_empty())))
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// Lazy decoder over the resident entries of one [`ShardLog`].
pub(crate) struct Iter<'a> {
    log: &'a ShardLog,
    next_chunk: usize,
    /// The chunk being read, inflated, and the offset of its next item.
    chunk: Vec<u8>,
    at: usize,
    epoch: u64,
    sub: u64,
    /// One decoded action per distinct packed byte pattern: a repetitive
    /// history decodes without allocating per entry.
    cache: HashMap<Box<[u8]>, Action>,
}

const OWN: &str = "a ShardLog holds only bytes it encoded";

impl Iter<'_> {
    /// The key of the next entry and where in `chunk` its packed action is.
    fn advance(&mut self) -> Option<(LogKey, Range<usize>)> {
        loop {
            while self.at == self.chunk.len() {
                let log = self.log;
                let resume = match self.next_chunk.cmp(&log.sealed.len()) {
                    std::cmp::Ordering::Less => {
                        let (resume, packed) = &log.sealed[self.next_chunk];
                        lz::unpack(packed, &mut self.chunk).expect(OWN);
                        *resume
                    }
                    std::cmp::Ordering::Equal => {
                        self.chunk.clear();
                        self.chunk.extend_from_slice(&log.open);
                        log.open_resume
                    }
                    std::cmp::Ordering::Greater => return None,
                };
                (self.epoch, self.sub, self.at) = (resume.epoch, resume.sub, 0);
                self.next_chunk += 1;
            }
            let mut rest = &self.chunk[self.at..];
            let (kind, delta) = read_head(&mut rest).expect(OWN);
            let start = self.chunk.len() - rest.len();
            self.at = start;
            let key = match kind {
                KIND_EPOCH => {
                    self.epoch = self.epoch.wrapping_add(delta);
                    continue;
                }
                KIND_CROSS => {
                    self.epoch = self.epoch.wrapping_add(delta);
                    (self.epoch, 0, 0)
                }
                KIND_SINGLE => {
                    self.sub = self.sub.wrapping_add(delta);
                    (self.epoch, 1, self.sub)
                }
                _ => unreachable!("{OWN}"),
            };
            self.at += Action::packed_len(rest).expect(OWN);
            return Some((key, start..self.at));
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = (LogKey, Action);

    fn next(&mut self) -> Option<(LogKey, Action)> {
        let (key, packed) = self.advance()?;
        let packed = &self.chunk[packed];
        let action = match self.cache.get(packed) {
            Some(action) => action.clone(),
            None => {
                let action = Action::unpack(&mut &*packed).expect(OWN);
                if self.cache.len() < DECODE_CACHE {
                    self.cache.insert(packed.into(), action.clone());
                }
                action
            }
        };
        Some((key, action))
    }
}

/// The segments merged by key, ties going to the earlier segment: the commit
/// order across shards.  A segment is any iterator over one shard's entries
/// in commit order: the resident entries, or what the vault archived chained
/// before them.  Every segment is already in key order, so this is a k-way
/// merge that holds one decoded entry per segment, not a sort of the
/// concatenation.
pub(crate) struct Merge<I> {
    iters: Vec<I>,
    /// The next entry of every segment not being drained as `run`.
    heads: BinaryHeap<Reverse<((LogKey, usize), Action)>>,
    /// The segment the last entry came from and its next entry, kept out of
    /// the heap: consecutive entries mostly come from one segment (measured
    /// on four window-64 segments: 24 ns per entry against 55 through the
    /// heap every time).
    run: Option<((LogKey, usize), Action)>,
}

impl<I: Iterator<Item = (LogKey, Action)>> Merge<I> {
    pub(crate) fn new(segments: impl IntoIterator<Item = I>) -> Merge<I> {
        let mut merge = Merge { iters: Vec::new(), heads: BinaryHeap::new(), run: None };
        for (segment, mut iter) in segments.into_iter().enumerate() {
            if let Some((key, action)) = iter.next() {
                merge.heads.push(Reverse(((key, segment), action)));
            }
            merge.iters.push(iter);
        }
        merge
    }
}

impl<I: Iterator<Item = (LogKey, Action)>> Iterator for Merge<I> {
    type Item = (LogKey, Action);

    fn next(&mut self) -> Option<(LogKey, Action)> {
        let ((key, segment), action) = match self.run.take() {
            Some(run) if self.heads.peek().is_none_or(|Reverse((head, _))| run.0 < *head) => run,
            run => {
                if let Some(run) = run {
                    self.heads.push(Reverse(run));
                }
                self.heads.pop()?.0
            }
        };
        self.run = self.iters[segment].next().map(|(key, action)| ((key, segment), action));
        Some((key, action))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{Term, Value};
    use proptest::prelude::*;

    fn nullary(i: usize) -> Action {
        Action::nullary(format!("log_n{}", i % 7).as_str())
    }

    fn inflated(chunk: &[u8]) -> Vec<u8> {
        let mut raw = Vec::new();
        lz::unpack(chunk, &mut raw).expect(OWN);
        raw
    }

    /// The item stream of the resident entries.
    fn raw(log: &ShardLog) -> Vec<u8> {
        let sealed = log.sealed.iter().flat_map(|(_, c)| inflated(c));
        sealed.chain(log.open.iter().copied()).collect()
    }

    /// What `bytes()` has to report: sealed chunks as stored, the open one.
    fn resident(log: &ShardLog) -> usize {
        log.sealed.iter().map(|(_, c)| c.len()).sum::<usize>() + log.open.len()
    }

    fn entries(log: &ShardLog) -> Vec<(LogKey, Action)> {
        log.iter().collect()
    }

    #[test]
    fn an_empty_log_owns_no_memory() {
        let log = ShardLog::new();
        assert_eq!(
            (log.len(), log.bytes(), log.open.capacity(), log.sealed.capacity()),
            (0, 0, 0, 0)
        );
        assert_eq!(log.iter().next(), None);
        assert_eq!(ShardLog::merge([&log, &log]).next(), None);
        let mut log = log;
        log.release(5);
        assert_eq!((log.archived(), log.released(), log.iter_from(0).next()), (0, 0, None));
    }

    #[test]
    fn keys_follow_the_epoch_scheme() {
        let (a, b) =
            (nullary(0), Action::concrete("log_call", [Value::int(3), Value::sym("sono")]));
        let mut log = ShardLog::new();
        assert_eq!(log.push_single(4, &a), (0, 1, 4));
        assert_eq!(log.push_cross(9, &b), (9, 0, 0));
        assert_eq!(log.push_single(11, &a), (9, 1, 11));
        // Another shard was the primary of commit 20: no entry here, but the
        // next single is keyed under it.
        log.set_epoch(20);
        log.set_epoch(21);
        assert_eq!(log.epoch(), 21);
        assert_eq!(log.push_single(30, &b), (21, 1, 30));
        // Keys read back from disk in any order, wrapping deltas included.
        log.push_keyed((5, 1, 2), &a);
        log.push_keyed((u64::MAX, 0, 0), &b);
        log.push_keyed((0, 1, u64::MAX), &a);
        assert_eq!(
            entries(&log),
            vec![
                ((0, 1, 4), a.clone()),
                ((9, 0, 0), b.clone()),
                ((9, 1, 11), a.clone()),
                ((21, 1, 30), b.clone()),
                ((5, 1, 2), a.clone()),
                ((u64::MAX, 0, 0), b),
                ((0, 1, u64::MAX), a),
            ]
        );
        assert_eq!(log.len(), 7);
        assert_eq!(log.epoch(), 0);
    }

    #[test]
    fn merge_breaks_ties_by_segment_and_never_reorders_a_segment() {
        let mut logs = vec![ShardLog::new(); 3];
        for (i, log) in logs.iter_mut().enumerate() {
            log.push_single(5, &nullary(i));
        }
        // A segment out of key order (the runtime writes none) keeps its
        // own order: commit order within a shard is never second-guessed.
        logs[1].push_single(4, &nullary(3));
        let merged: Vec<Action> = ShardLog::merge(&logs).map(|(_, a)| a).collect();
        assert_eq!(merged, vec![nullary(0), nullary(1), nullary(3), nullary(2)]);
    }

    #[test]
    fn spans_chunks_and_round_trips() {
        let mut log = ShardLog::new();
        let mut shadow = Vec::new();
        let mut n = 0u64;
        while log.sealed.len() < 3 {
            let action = Action::concrete("log_wide", [Value::int(n as i64 * 1_000_003)]);
            if n.is_multiple_of(50) {
                shadow.push((log.push_cross(2 * n, &action), action));
            } else {
                shadow.push((log.push_single(2 * n + 1, &action), action));
            }
            n += 1;
        }
        for (_, chunk) in &log.sealed {
            let raw = inflated(chunk).len();
            assert!(raw <= CHUNK_BYTES && raw > CHUNK_BYTES - 32, "sealed at {raw} bytes");
            assert!(chunk.len() < raw, "ascending integers share their high bytes");
        }
        assert_eq!(log.bytes(), resident(&log));
        assert_eq!(log.len(), shadow.len());
        assert_eq!(entries(&log), shadow);
    }

    /// An action whose packed form is exactly `len` bytes, for `len` of a few
    /// thousand and more (the arity is taken to need a two-byte varint).
    fn action_of_len(len: usize) -> Action {
        let name = ix_core::Symbol::new("log_fill");
        let mut header = Vec::new();
        write_varint(&mut header, u64::from(name.index()));
        // Arguments of 11 bytes (tag + ten payload bytes), then one of 3 if
        // the remainder is odd, then 2-byte ones.
        let body = len - header.len() - 2;
        let big = body / 11 - 1;
        let mut rest = body - big * 11;
        let mut args = vec![Term::Value(Value::int(i64::MAX)); big];
        if rest % 2 == 1 {
            args.push(Term::Value(Value::int(100)));
            rest -= 3;
        }
        args.extend(std::iter::repeat_n(Term::Value(Value::int(0)), rest / 2));
        let action = Action::new(name, args);
        let mut packed = Vec::new();
        action.pack(&mut packed);
        assert_eq!(packed.len(), len);
        action
    }

    #[test]
    fn an_entry_that_exactly_fills_a_chunk_stays_in_it() {
        let small = nullary(0);
        for slack in [0usize, 1] {
            let mut log = ShardLog::new();
            log.push_single(1, &small);
            let used = log.bytes();
            // head (1 byte: delta 1) + action = the rest of the chunk, or
            // one byte more than fits.
            let fill = action_of_len(CHUNK_BYTES - used - 1 + slack);
            log.push_single(2, &fill);
            if slack == 0 {
                assert_eq!((log.sealed.len(), log.open.len()), (0, CHUNK_BYTES));
            } else {
                assert_eq!((log.sealed.len(), inflated(&log.sealed[0].1).len()), (1, used));
            }
            // Either way the chunk holding `fill` has no room for another.
            log.push_single(3, &small);
            assert_eq!(log.sealed.len(), 1 + slack);
            assert_eq!(
                entries(&log),
                vec![((0, 1, 1), small.clone()), ((0, 1, 2), fill), ((0, 1, 3), small.clone())]
            );
        }
    }

    #[test]
    fn an_oversized_entry_gets_its_own_chunk() {
        let (small, big) = (nullary(1), action_of_len(CHUNK_BYTES + 100));
        let mut log = ShardLog::new();
        log.push_single(1, &small);
        log.push_single(2, &big);
        log.push_single(3, &small);
        assert_eq!(log.sealed.len(), 2);
        assert!(inflated(&log.sealed[1].1).len() > CHUNK_BYTES);
        assert!(log.open.capacity() <= 2 * CHUNK_BYTES, "the open chunk gave the room back");
        assert_eq!(
            entries(&log),
            vec![((0, 1, 1), small.clone()), ((0, 1, 2), big), ((0, 1, 3), small)]
        );
    }

    #[test]
    fn a_snapshot_shares_sealed_chunks_and_stays_stable() {
        let mut log = ShardLog::new();
        let mut i = 0;
        while log.sealed.len() < 2 || log.open.len() < 100 {
            log.push_single(i as u64, &nullary(i));
            i += 1;
        }
        let snapshot = log.clone();
        let (bytes, seen) = (raw(&snapshot), entries(&snapshot));
        assert!(snapshot.sealed.iter().zip(&log.sealed).all(|(s, l)| Arc::ptr_eq(&s.1, &l.1)));
        assert!(snapshot.open.capacity() < CHUNK_BYTES, "only the used part is copied");
        // The original keeps growing, past the end of the chunk that was
        // open when the snapshot was taken.
        while log.sealed.len() < 4 {
            log.push_single(i as u64, &nullary(i));
            i += 1;
        }
        assert_eq!(raw(&snapshot), bytes);
        assert_eq!(entries(&snapshot), seen);
        assert_eq!(entries(&log)[..seen.len()], seen[..]);
        // A snapshot is a log of its own.
        let mut fork = snapshot.clone();
        fork.push_cross(1 << 40, &nullary(0));
        assert_eq!(fork.len(), snapshot.len() + 1);
        assert_eq!(raw(&snapshot), bytes);
    }

    /// A log of `chunks` sealed chunks and a partly filled open one, an
    /// epoch change every 50 entries, with the entries it holds.
    fn chunked(chunks: usize) -> (ShardLog, Vec<(LogKey, Action)>) {
        let (mut log, mut shadow) = (ShardLog::new(), Vec::new());
        let mut n = 0u64;
        while log.sealed.len() < chunks || log.open.len() < 100 {
            let action = Action::concrete("log_wide", [Value::int(n as i64 * 1_000_003)]);
            match n % 50 {
                0 => shadow.push((log.push_cross(2 * n, &action), action)),
                25 => {
                    log.set_epoch(2 * n);
                    shadow.push((log.push_single(2 * n + 1, &action), action));
                }
                _ => shadow.push((log.push_single(2 * n + 1, &action), action)),
            }
            n += 1;
        }
        (log, shadow)
    }

    #[test]
    fn release_drops_whole_chunks_below_the_mark_and_keeps_counting() {
        let (mut log, shadow) = chunked(4);
        let firsts: Vec<usize> = log.sealed.iter().map(|(r, _)| r.first).collect();
        let (len, epoch, max_seq, bytes) = (log.len(), log.epoch(), log.max_seq(), log.bytes());
        assert_eq!((log.released(), log.archived()), (0, 0));

        // A mark inside the second chunk releases the first only.
        let mark = firsts[1] + 10;
        log.release(mark);
        assert_eq!((log.archived(), log.released()), (mark, firsts[1]));
        assert_eq!(log.sealed.len(), 3);
        assert!(log.bytes() < bytes && log.bytes() == resident(&log));
        assert_eq!((log.len(), log.epoch(), log.max_seq()), (len, epoch, max_seq));
        assert_eq!(entries(&log), shadow[firsts[1]..]);
        // A lower mark later is a no-op; a mark at a chunk boundary releases
        // up to that chunk.
        log.release(3);
        assert_eq!((log.archived(), log.released()), (mark, firsts[1]));
        log.release(firsts[3]);
        assert_eq!(log.released(), firsts[3]);
        assert_eq!(entries(&log), shadow[firsts[3]..]);

        // The released log keeps logging; a mark past the end archives
        // everything and leaves the open chunk.
        let more = nullary(1);
        let key = log.push_single(1 << 40, &more);
        log.release(usize::MAX);
        assert_eq!(log.archived(), len + 1);
        assert!(log.sealed.is_empty() && log.released() == log.open_resume.first);
        assert_eq!(entries(&log).last(), Some(&(key, more)));
        assert_eq!(entries(&log), [&shadow[log.released()..], &[(key, nullary(1))]].concat());
    }

    #[test]
    fn iter_from_starts_at_any_resident_entry() {
        let (mut log, shadow) = chunked(3);
        let firsts: Vec<usize> = log.sealed.iter().map(|(r, _)| r.first).collect();
        let open_first = log.open_resume.first;
        for from in [0, 1, firsts[1] - 1, firsts[1], firsts[2] + 7, open_first, log.len() - 1] {
            assert_eq!(log.iter_from(from).collect::<Vec<_>>(), shadow[from..], "from {from}");
        }
        assert_eq!(log.iter_from(log.len()).next(), None);
        log.release(firsts[2]);
        for from in [firsts[2], firsts[2] + 1, open_first + 3] {
            assert_eq!(log.iter_from(from).collect::<Vec<_>>(), shadow[from..], "from {from}");
        }
    }

    #[test]
    fn a_resumed_log_continues_the_count_and_the_keys() {
        let (full, shadow) = chunked(1);
        let mut log = ShardLog::resumed(full.len(), full.epoch(), full.max_seq().expect("entries"));
        assert_eq!(
            (log.len(), log.archived(), log.released()),
            (full.len(), full.len(), full.len())
        );
        assert_eq!((log.epoch(), log.max_seq(), log.bytes()), (full.epoch(), full.max_seq(), 0));
        assert_eq!(log.iter().next(), None);
        let action = nullary(2);
        let single = log.push_single(1 << 40, &action);
        assert_eq!(single, (full.epoch(), 1, 1 << 40));
        log.push_keyed((3 << 40, 0, 0), &action);
        assert_eq!(entries(&log), vec![(single, action.clone()), ((3 << 40, 0, 0), action)]);
        assert_eq!(log.iter_from(shadow.len() + 1).count(), 1);
        assert_eq!(log.len(), shadow.len() + 2);
    }

    #[test]
    fn a_repetitive_history_decodes_into_shared_actions() {
        let action = Action::concrete("log_call", [Value::int(1), Value::sym("sono")]);
        let mut log = ShardLog::new();
        for sub in 0..1000 {
            log.push_single(sub, &action);
        }
        let decoded: Vec<Action> = log.iter().map(|(_, a)| a).collect();
        assert!(decoded.iter().all(|a| *a == action));
        assert!(decoded.windows(2).all(|w| std::ptr::eq(w[0].args(), w[1].args())));
    }

    /// An action packing into about `len` bytes: one ten-byte integer over
    /// and over, or — seeded — a different one every time.
    fn filler(len: usize, noise: Option<u64>) -> Action {
        let args = (0..len as u64 / 11).map(|i| {
            let value = noise.map_or(u64::MAX, |seed| {
                (seed ^ i).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
            });
            Term::Value(Value::int((value >> 1 | 1 << 62) as i64))
        });
        Action::new("log_fill", args)
    }

    /// A sealed chunk never takes more than its bytes and a flag byte, and a
    /// repetitive one far less.  The seeded fillers are varints of random
    /// 63-bit integers, whose continuation bits are always set: an entropy
    /// code shrinks them, so they are not stored as they are (byte noise is,
    /// `lz::tests::noise_is_stored_as_it_is`).
    #[test]
    fn a_sealed_chunk_is_stored_at_whatever_is_smaller() {
        for (noise, shrinks) in [(None, true), (Some(0), false)] {
            let (mut log, mut shadow) = (ShardLog::new(), Vec::new());
            while log.sealed.len() < 2 {
                let n = shadow.len() as u64;
                let action = filler(5000, noise.map(|seed: u64| seed + 1000 * n));
                shadow.push((log.push_single(n, &action), action));
            }
            for (_, chunk) in &log.sealed {
                let raw = inflated(chunk).len();
                assert!(chunk.len() <= raw + 1, "{} bytes from {raw}", chunk.len());
                if shrinks {
                    assert!(chunk.len() * 20 < raw, "{} bytes from {raw}", chunk.len());
                }
            }
            assert_eq!(log.bytes(), resident(&log));
            assert_eq!(entries(&log), shadow);
        }
    }

    /// Xorshift draws below a bound.
    fn draws(mut x: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) % bound
        }
    }

    /// Sealed bytes per sealed entry, and packed bytes per entry, of a log
    /// that sealed some chunks.
    fn density(log: &ShardLog) -> (f64, usize) {
        let (sealed, packed) = (log.open_resume.first, raw(log).len() - log.open.len());
        (log.sealed_bytes as f64 / sealed as f64, packed.div_ceil(sealed))
    }

    /// What the paper's Fig. 7 seals to: 32 patients in a seeded
    /// interleaving, four steps an examination, every commit cross-shard,
    /// one sequence number in five spent on a denial.  8 bytes a commit
    /// packed; measured 2.42 sealed, held with 15 % to spare.
    #[test]
    fn a_fig7_history_seals_within_its_bytes_per_commit() {
        let mut draw = draws(0x2545_F491_4F6C_DD1D);
        let exam = [
            "call_patient_start",
            "call_patient_end",
            "perform_examination_start",
            "perform_examination_end",
        ];
        let (mut log, mut steps, mut seq) = (ShardLog::new(), [0usize; 32], 0);
        while log.sealed.len() < 16 {
            let patient = draw(32) as usize;
            let (round, stage) = (steps[patient] / 4, steps[patient] % 4);
            steps[patient] += 1;
            let dept = ["sono", "endo", "xray", "ct"][(patient + round) % 4];
            seq += 1 + u64::from(draw(5) == 0);
            let args = [Value::int(1000 + patient as i64), Value::sym(dept)];
            log.push_cross(seq, &Action::concrete(exam[stage], args));
        }
        let (per_commit, packed) = density(&log);
        assert_eq!(packed, 8);
        assert!(per_commit <= 2.79, "{per_commit} bytes per sealed Fig. 7 commit");
    }

    /// What one department of `cross_chain` seals to: rounds of one or two
    /// call/perform pairs of seeded patients (of 64), keyed by the counter
    /// the other departments draw from too, each round closed by audits
    /// whose primary is another shard — one `EPOCH` item.  About 5.3 bytes
    /// a commit packed; measured 1.92 sealed, held with 15 % to spare.
    #[test]
    fn a_cross_chain_history_seals_within_its_bytes_per_commit() {
        let mut draw = draws(0x9E37_79B9_7F4A_7C15);
        let (mut log, mut seq) = (ShardLog::new(), 0);
        while log.sealed.len() < 16 {
            for _ in 0..1 + draw(2) {
                let patient = Value::int(draw(64) as i64);
                for step in ["call_dept1", "perform_dept1"] {
                    // The other departments' commits in between.
                    seq += 1 + draw(4);
                    log.push_single(seq, &Action::concrete(step, [patient]));
                }
            }
            seq += 4;
            log.set_epoch(seq);
        }
        let (per_commit, _) = density(&log);
        assert!(per_commit <= 2.21, "{per_commit} bytes per sealed cross_chain commit");
    }

    fn arb_action() -> impl Strategy<Value = Action> {
        let term = prop_oneof![
            (0u64..7).prop_map(|i| Term::Value(Value::int(i as i64 - 3))),
            Just(Term::Value(Value::int(i64::MIN))),
            Just(Term::Value(Value::sym("endo"))),
        ];
        (0usize..5, proptest::collection::vec(term, 0..4))
            .prop_map(|(name, args)| Action::new(format!("log_a{name}").as_str(), args))
    }

    /// One push: `None` is a cross commit on another primary (epoch only).
    type Step = (bool, u64, Option<Action>);

    fn arb_steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
        let step = (0u32..8, 1u64..40, arb_action())
            .prop_map(|(kind, gap, action)| (kind == 0, gap, (kind != 1).then_some(action)));
        proptest::collection::vec(step, 0..max)
    }

    /// Drives a log and the `Vec` the runtime used to keep through the same
    /// commits, drawing keys the way the runtime does: one ascending counter
    /// for sub-sequences and cross sequences alike.
    fn drive(steps: &[Step], counter: &mut u64) -> (ShardLog, Vec<(LogKey, Action)>) {
        let (mut log, mut shadow, mut epoch) = (ShardLog::new(), Vec::new(), 0);
        for (cross, gap, action) in steps {
            *counter += gap;
            match (cross, action) {
                (true, Some(action)) => {
                    epoch = *counter;
                    log.push_cross(*counter, action);
                    shadow.push(((epoch, 0, 0), action.clone()));
                }
                (false, Some(action)) => {
                    log.push_single(*counter, action);
                    shadow.push(((epoch, 1, *counter), action.clone()));
                }
                (_, None) => {
                    epoch = *counter;
                    log.set_epoch(epoch);
                }
            }
        }
        (log, shadow)
    }

    /// What the chunked properties do to a log.  Pushes draw their keys from
    /// one ascending counter, as [`drive`] does.
    #[derive(Clone, Debug)]
    enum Op {
        /// A [`filler`] of `len` bytes, noisy if the case's share of noisy
        /// actions (of three) exceeds `kind`.
        Push {
            cross: bool,
            keyed: bool,
            gap: u64,
            len: usize,
            kind: u64,
            seed: u64,
        },
        /// A cross commit on another primary.
        Epoch(u64),
        /// Archive this share (per mille) of the entries.
        Release(usize),
        Snapshot,
    }

    /// Ops whose actions take a few hundred to a few thousand bytes, so a
    /// hundred of them seal chunks.
    fn arb_ops(len: Range<usize>) -> impl Strategy<Value = Vec<Op>> {
        let push = (0u32..4, 1u64..40, 200usize..6000, 0u64..3, 0u64..1 << 40).prop_map(
            |(how, gap, len, kind, seed)| Op::Push {
                cross: how == 0,
                keyed: how == 1,
                gap,
                len,
                kind,
                seed,
            },
        );
        let op = prop_oneof![
            push.clone(),
            push.clone(),
            push.clone(),
            push,
            (1u64..40).prop_map(Op::Epoch),
            (0usize..1001).prop_map(Op::Release),
            Just(Op::Snapshot),
        ];
        proptest::collection::vec(op, len)
    }

    /// A log driven beside the `Vec` of everything it was given.
    #[derive(Default)]
    struct Driven {
        log: ShardLog,
        shadow: Vec<(LogKey, Action)>,
        epoch: u64,
        /// Chunks sealed so far, released ones included.
        seals: usize,
        /// Clones taken on the way, with the length of the log then.
        snapshots: Vec<(ShardLog, usize)>,
    }

    const TOP_UP: Op = Op::Push { cross: false, keyed: false, gap: 2, len: 4000, kind: 1, seed: 5 };

    impl Driven {
        fn push(&mut self, cross: bool, keyed: bool, seq: u64, action: Action) {
            if cross {
                self.epoch = seq;
            }
            let key = if cross { (seq, 0, 0) } else { (self.epoch, 1, seq) };
            let open_first = self.log.open_resume.first;
            let pushed = match (keyed, cross) {
                (true, _) => {
                    self.log.push_keyed(key, &action);
                    key
                }
                (false, true) => self.log.push_cross(seq, &action),
                (false, false) => self.log.push_single(seq, &action),
            };
            assert_eq!(pushed, key);
            self.shadow.push((key, action));
            // The open chunk starts at another entry after a seal.
            self.seals += usize::from(self.log.open_resume.first != open_first);
        }

        /// `noisy` of three fillers are seeded noise.
        fn apply(&mut self, op: &Op, noisy: u64, counter: &mut u64) {
            match *op {
                Op::Push { cross, keyed, gap, len, kind, seed } => {
                    *counter += gap;
                    self.push(cross, keyed, *counter, filler(len, (kind < noisy).then_some(seed)));
                }
                Op::Epoch(gap) => {
                    *counter += gap;
                    self.epoch = *counter;
                    self.log.set_epoch(self.epoch);
                }
                Op::Release(share) => self.log.release(self.log.len() * share / 1000),
                Op::Snapshot => {
                    let snapshot = self.log.clone();
                    assert_eq!(snapshot.sealed.len(), self.log.sealed.len());
                    let mut shared = snapshot.sealed.iter().zip(&self.log.sealed);
                    assert!(shared.all(|(s, l)| Arc::ptr_eq(&s.1, &l.1)));
                    self.snapshots.push((snapshot, self.log.len()));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn iter_yields_what_the_vec_held(steps in arb_steps(200)) {
            let (log, shadow) = drive(&steps, &mut 0);
            prop_assert_eq!(log.len(), shadow.len());
            prop_assert_eq!(entries(&log), shadow.clone());
            // Rebuilding from decoded keys (checkpoint decode, WAL replay)
            // yields the same entries.
            let mut rebuilt = ShardLog::new();
            for (key, action) in &shadow {
                rebuilt.push_keyed(*key, action);
            }
            prop_assert_eq!(entries(&rebuilt), shadow);
        }

        #[test]
        fn merge_equals_concatenate_and_sort(
            shards in proptest::collection::vec(arb_steps(60), 1..5),
            interleave in proptest::collection::vec(0usize..4, 0..240),
        ) {
            // Shards take turns drawing from the shared counter, so epochs
            // and sub-sequences interleave across them (equal-epoch singles
            // on different shards included: a cross step with `None` puts
            // the epoch of one shard's commit on another).
            let mut counter = 0;
            let mut logs: Vec<ShardLog> = vec![ShardLog::new(); shards.len()];
            let mut shadows: Vec<Vec<(LogKey, Action)>> = vec![Vec::new(); shards.len()];
            let mut cursors = vec![0usize; shards.len()];
            let mut shared_epoch = 0;
            let turns = interleave.iter().map(|t| t % shards.len()).chain((0..shards.len()).cycle());
            for shard in turns {
                if cursors.iter().zip(&shards).all(|(c, s)| *c == s.len()) {
                    break;
                }
                let Some((cross, gap, action)) = shards[shard].get(cursors[shard]) else { continue };
                cursors[shard] += 1;
                counter += gap;
                match (cross, action) {
                    (true, Some(action)) => {
                        shared_epoch = counter;
                        logs[shard].push_cross(counter, action);
                        shadows[shard].push(((counter, 0, 0), action.clone()));
                    }
                    (false, Some(action)) => {
                        let key = logs[shard].push_single(counter, action);
                        shadows[shard].push((key, action.clone()));
                    }
                    // Join the epoch of the latest cross commit anywhere.
                    (_, None) => logs[shard].set_epoch(shared_epoch),
                }
            }
            let mut expected: Vec<(LogKey, Action)> = shadows.concat();
            expected.sort_by_key(|(key, _)| *key);
            prop_assert_eq!(ShardLog::merge(&logs).collect::<Vec<_>>(), expected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn sealed_chunks_read_back_what_was_pushed(
            // With 0 of 3 every chunk shrinks far, with 3 of 3 by what an
            // entropy code takes off the varints' continuation bits.
            noisy in 0u64..4,
            ops in arb_ops(40..160),
            oversized in 0usize..40,
        ) {
            let (mut driven, mut counter) = (Driven::default(), 0);
            for (i, op) in ops.iter().enumerate() {
                if i == oversized {
                    counter += 1;
                    let big = action_of_len(CHUNK_BYTES + 1 + oversized);
                    driven.push(false, false, counter, big);
                }
                driven.apply(op, noisy, &mut counter);
            }
            while driven.seals < 3 {
                driven.apply(&TOP_UP, noisy, &mut counter);
            }

            let Driven { log, shadow, snapshots, .. } = &driven;
            for (_, chunk) in &log.sealed {
                prop_assert!(chunk.len() <= inflated(chunk).len() + 1);
            }
            prop_assert_eq!(log.len(), shadow.len());
            prop_assert_eq!(log.bytes(), resident(log));
            prop_assert_eq!(entries(log), &shadow[log.released()..]);
            // Every resident entry is a place to start, chunk boundaries
            // among them.
            for from in log.released()..=log.len() {
                prop_assert_eq!(log.iter_from(from).collect::<Vec<_>>(), &shadow[from..]);
            }
            // What a clone saw stays what it reads, whatever the original
            // sealed, released or logged since.
            for (snapshot, len) in snapshots {
                prop_assert_eq!(snapshot.len(), *len);
                prop_assert_eq!(entries(snapshot), &shadow[snapshot.released()..*len]);
            }
        }

        #[test]
        fn merge_reads_three_chunked_segments(
            noisy in 0u64..4,
            ops in arb_ops(90..200),
            turns in proptest::collection::vec(0usize..3, 64..65),
        ) {
            // Shards take turns drawing from the one counter; nothing is
            // released, so the merge is the sort of everything pushed.
            let mut shards: Vec<Driven> = (0..3).map(|_| Driven::default()).collect();
            let (mut counter, mut turns) = (0, turns.iter().cycle());
            let mut deal = |shards: &mut [Driven], op: &Op| {
                shards[*turns.next().expect("a cycle")].apply(op, noisy, &mut counter);
            };
            for op in ops.iter().filter(|op| !matches!(op, Op::Release(_))) {
                deal(&mut shards, op);
            }
            while shards.iter().map(|d| d.seals).sum::<usize>() < 3 {
                deal(&mut shards, &TOP_UP);
            }
            let mut expected: Vec<(LogKey, Action)> =
                shards.iter().flat_map(|d| d.shadow.iter().cloned()).collect();
            expected.sort_by_key(|(key, _)| *key);
            let merged = ShardLog::merge(shards.iter().map(|d| &d.log));
            prop_assert_eq!(merged.collect::<Vec<_>>(), expected);
        }
    }
}
