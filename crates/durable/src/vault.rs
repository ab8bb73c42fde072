//! The storage abstraction of the durability layer.
//!
//! A [`Vault`] holds two kinds of data:
//!
//! * numbered append-only **streams** of records — the per-shard write-ahead
//!   logs, the per-shard history streams ([`history_stream`]) and the meta
//!   stream ([`META_STREAM`]).  Records are addressed by a monotonically
//!   growing index that never resets: truncation deletes covered storage but
//!   keeps the indices of the surviving records, so "replay the tail after
//!   offset n" means the same thing before and after a rollover.
//! * named **blobs** replaced atomically — snapshots, the topology record,
//!   and the checkpoint manifest.  A blob write is all-or-nothing, which is
//!   what makes the checkpoint protocol crash-safe in every interleaving:
//!   either the old snapshot (with its own covered offset) or the new one is
//!   read back, never a mixture.
//!
//! [`MemVault`] is the in-memory implementation every test defaults to; a
//! simulated crash drops the runtime but keeps the shared vault handle.
//! [`FileVault`] maps streams onto segmented append-only files with
//! CRC-framed records.  Its reader stops at the first corrupt or incomplete
//! frame, so a torn tail (the crash hit mid-write) silently shortens the log
//! instead of poisoning recovery, and segment files that a snapshot fully
//! covers are deleted — the `ContinueAsNew`-style rollover that keeps cyclic
//! workflows from accreting unbounded history.
//!
//! A file vault pays for durability at **barriers** — a stream fsync (by
//! policy or on rotation), [`Vault::sync`], [`Vault::truncate`] and
//! [`Vault::save_blob`].  Whatever the vault created or renamed since the
//! previous barrier — directory entries, and the first blob of a vault opened
//! on a missing or empty directory — is fsynced by the next one before it
//! does its own work.  So are the blobs a reopened vault finds: their writer
//! may have stopped before its first barrier.  A fresh vault touches no disk
//! until its first write: open reads the root once and creates nothing, and
//! the first blob waits in memory until the first append of a new stream or
//! the first barrier writes it in place.

use crate::codec::crc32;
use std::collections::{BTreeSet, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Stream id of the runtime's meta stream (clock ticks, off-shard stat
/// events).  Shard streams use their shard id, counting from 0.
pub const META_STREAM: u32 = u32::MAX;

/// First id of the history streams: shard `k` archives its confirmed actions
/// on stream `HISTORY_STREAM_BASE + k`.  Shard ids stay below it.
pub const HISTORY_STREAM_BASE: u32 = 1 << 31;

/// Stream id of a shard's history: the confirmed actions its checkpoints
/// moved out of memory.  Never truncated.
pub fn history_stream(shard: usize) -> u32 {
    HISTORY_STREAM_BASE + shard as u32
}

/// When a [`FileVault`] flushes appended records to stable storage.
///
/// Every stream fsync is a barrier (see [`Vault::save_blob`]): before it, the
/// vault fsyncs the blob and the directory entries no barrier has covered
/// yet, so a record is never durable ahead of the topology it was journaled
/// against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended record (maximum durability, slowest).
    Always,
    /// Fsync every n-th append on each stream; a crash loses at most the
    /// last n records of a stream (they fall off the replayed tail).
    Interval(u32),
    /// Never fsync on append; only [`Vault::sync`] (called by checkpoints
    /// and by a runtime's shutdown) reaches the disk.
    #[default]
    Never,
}

/// Append-only record streams plus atomically replaced blobs.
///
/// Implementations are internally synchronized; every method takes `&self`.
/// Record indices are stable across truncation (see the module docs).
pub trait Vault: Send + Sync {
    /// Appends a record to a stream and returns its index.
    fn append(&self, stream: u32, payload: &[u8]) -> u64;
    /// The index the *next* appended record will get (= number of records
    /// ever appended to the stream).
    fn stream_len(&self, stream: u32) -> u64;
    /// Reads every surviving record with index ≥ `from`, in order.  Stops at
    /// the first torn or corrupt record (the tail the crash interrupted).
    fn read_from(&self, stream: u32, from: u64) -> Vec<(u64, Vec<u8>)>;
    /// Releases storage for records with index < `covered` (best effort —
    /// a file-backed stream frees whole segments, so some covered records
    /// may survive; indices never shift).  A barrier: the blobs saved
    /// before it (the snapshot that covers the records) are durable before
    /// any storage is released.
    fn truncate(&self, stream: u32, covered: u64);
    /// Atomically replaces a named blob.
    ///
    /// **The barrier rule.**  A blob is durable once a *barrier* follows
    /// it: a stream fsync (by [`FsyncPolicy`] or on segment rotation),
    /// [`Vault::sync`], [`Vault::truncate`], or the next `save_blob`.  Each
    /// barrier first fsyncs what earlier blob saves left unsynced.  A blob
    /// is fsynced before its rename, so a crash leaves the old bytes or the
    /// new ones, never a mixture — except the first blob of a file vault
    /// opened on a missing or empty directory, which replaces nothing: it
    /// is held in memory (and read back from there) until the vault's first
    /// append of a new stream or first barrier, or its drop, writes it
    /// straight into place, unsynced until a barrier.  A file vault opened on
    /// existing files owes its first barrier the fsync of every blob it
    /// found, in case their writer passed none.
    /// The runtime writes its topology first, so the topology is durable
    /// before anything journaled against it is durable, replaced or
    /// deleted: a vault whose topology is missing or torn never passed a
    /// barrier, and no commit in it was promised durable.
    fn save_blob(&self, name: &str, bytes: &[u8]);
    /// Reads a named blob.
    fn load_blob(&self, name: &str) -> Option<Vec<u8>>;
    /// The stream ids that currently hold data.
    fn streams(&self) -> Vec<u32>;
    /// Whether the vault holds no stream and no blob, so that a fresh
    /// runtime may journal into it.  The default reads [`Vault::streams`],
    /// which sees no blob.
    fn is_empty(&self) -> bool {
        self.streams().is_empty()
    }
    /// Flushes everything to stable storage (no-op for memory vaults).  A
    /// barrier: every record appended and every blob saved before it is
    /// durable when it returns.
    fn sync(&self);
}

// ---------------------------------------------------------------------------
// MemVault
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemStream {
    /// Index of the first retained record.
    base: u64,
    records: Vec<Vec<u8>>,
}

#[derive(Default)]
struct MemInner {
    streams: HashMap<u32, MemStream>,
    blobs: HashMap<String, Vec<u8>>,
}

/// The in-memory [`Vault`]: streams and blobs in a mutex-guarded map.
///
/// Tests share one `Arc<MemVault>` between the runtime they crash and the
/// runtime they recover — the vault plays the role of the disk.
#[derive(Default)]
pub struct MemVault {
    inner: Mutex<MemInner>,
}

impl MemVault {
    /// An empty vault.
    pub fn new() -> MemVault {
        MemVault::default()
    }
}

impl std::fmt::Debug for MemVault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MemVault")
            .field("streams", &inner.streams.len())
            .field("blobs", &inner.blobs.len())
            .finish()
    }
}

impl Vault for MemVault {
    fn append(&self, stream: u32, payload: &[u8]) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let s = inner.streams.entry(stream).or_default();
        let index = s.base + s.records.len() as u64;
        s.records.push(payload.to_vec());
        index
    }

    fn stream_len(&self, stream: u32) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.streams.get(&stream).map_or(0, |s| s.base + s.records.len() as u64)
    }

    fn read_from(&self, stream: u32, from: u64) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(s) = inner.streams.get(&stream) else {
            return Vec::new();
        };
        s.records
            .iter()
            .enumerate()
            .map(|(i, r)| (s.base + i as u64, r.clone()))
            .filter(|(i, _)| *i >= from)
            .collect()
    }

    fn truncate(&self, stream: u32, covered: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = inner.streams.get_mut(&stream) {
            let drop = covered.saturating_sub(s.base).min(s.records.len() as u64);
            s.records.drain(..drop as usize);
            s.base += drop;
        }
    }

    fn save_blob(&self, name: &str, bytes: &[u8]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.blobs.insert(name.to_string(), bytes.to_vec());
    }

    fn load_blob(&self, name: &str) -> Option<Vec<u8>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.blobs.get(name).cloned()
    }

    fn streams(&self) -> Vec<u32> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut ids: Vec<u32> = inner.streams.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn is_empty(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.streams.is_empty() && inner.blobs.is_empty()
    }

    fn sync(&self) {}
}

// ---------------------------------------------------------------------------
// FileVault
// ---------------------------------------------------------------------------

/// On-disk record frame: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
const FRAME_HEADER: usize = 8;

/// Default segment rotation threshold.
const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

fn stream_dir_name(stream: u32) -> String {
    match stream {
        META_STREAM => "meta".to_string(),
        id if id >= HISTORY_STREAM_BASE => format!("history-{}", id - HISTORY_STREAM_BASE),
        id => format!("shard-{id}"),
    }
}

fn parse_stream_dir(name: &str) -> Option<u32> {
    match name {
        "meta" => Some(META_STREAM),
        other => match other.strip_prefix("history-") {
            Some(shard) => shard.parse::<u32>().ok()?.checked_add(HISTORY_STREAM_BASE),
            None => other.strip_prefix("shard-")?.parse().ok(),
        },
    }
}

fn segment_file_name(first: u64) -> String {
    format!("seg-{first:020}.log")
}

fn parse_segment_file(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

/// Walks a segment's CRC-validated frames, handing each payload to `visit`;
/// returns the number of records in the valid prefix and its byte length
/// (everything after it is a torn or corrupt tail).
fn walk_frames(bytes: &[u8], mut visit: impl FnMut(&[u8])) -> (u64, usize) {
    let mut count = 0u64;
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let Some(end) = pos.checked_add(FRAME_HEADER + len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..end];
        if crc32(payload) != crc {
            break;
        }
        visit(payload);
        count += 1;
        pos = end;
    }
    (count, pos)
}

struct OpenSegment {
    file: File,
    path: PathBuf,
    bytes: u64,
}

struct FileStream {
    dir: PathBuf,
    next_index: u64,
    open: Option<OpenSegment>,
    unsynced: u32,
    /// The frame of the record being appended, kept for its capacity.
    frame: Vec<u8>,
}

/// Capacity a stream's frame buffer keeps between appends: a write-ahead
/// record fits many times, a history batch gives its room back.
const KEPT_FRAME_BYTES: usize = 4096;

impl FileStream {
    fn new(dir: PathBuf) -> FileStream {
        FileStream { dir, next_index: 0, open: None, unsynced: 0, frame: Vec::new() }
    }

    /// Sorted `(first_index, path)` list of the stream's segment files.
    fn segments(&self) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(first) = entry.file_name().to_str().and_then(parse_segment_file) {
                    out.push((first, entry.path()));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// What the next barrier owes the disk before its own work.
#[derive(Default)]
struct Debt {
    /// The vault was opened on a missing or empty directory and has saved no
    /// blob yet: the first `save_blob` only fills `first_blob`.
    hold_first_blob: bool,
    /// That first blob, `(name, bytes)`, until the vault's first write or
    /// barrier writes it out.
    first_blob: Option<(String, Vec<u8>)>,
    /// Blobs in place but not yet fsynced: that first blob once written, or
    /// every blob a reopened vault found (its writer may have stopped before
    /// a barrier).
    blobs: Vec<PathBuf>,
    /// Directories with an entry (a created file or directory, a renamed
    /// blob) that no fsync has covered yet.
    dirs: BTreeSet<PathBuf>,
}

impl Debt {
    /// Writes a held first blob straight to `blobs/<name>` — it replaces
    /// nothing, so it needs no temp file and no rename — and leaves its
    /// fsync and the new directory entries to the next barrier.
    fn write_first_blob(&mut self, root: &Path) -> std::io::Result<()> {
        let Some((name, bytes)) = self.first_blob.take() else {
            return Ok(());
        };
        let blobs = root.join("blobs");
        fs::create_dir_all(&blobs)?;
        let path = blobs.join(name);
        fs::write(&path, bytes)?;
        self.blobs.push(path);
        self.dirs.extend([root.to_path_buf(), blobs]);
        Ok(())
    }
}

/// The file-backed [`Vault`]: one directory per stream under `wal/`, each a
/// series of segment files rotated by size, plus atomically renamed blob
/// files under `blobs/`.
pub struct FileVault {
    root: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    inner: Mutex<HashMap<u32, FileStream>>,
    /// Locked after `inner` when both are held.
    debt: Mutex<Debt>,
    /// Every path fsynced, relative to the root, in order.
    #[cfg(test)]
    synced: Mutex<Vec<PathBuf>>,
}

impl std::fmt::Debug for FileVault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileVault").field("root", &self.root).field("fsync", &self.fsync).finish()
    }
}

impl Drop for FileVault {
    /// A vault dropped before its first write still leaves its first blob on
    /// disk, unsynced like any blob no barrier followed.  Best effort: a
    /// failed write is dropped, never a panic.
    fn drop(&mut self) {
        let debt = self.debt.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = debt.write_first_blob(&self.root);
    }
}

impl FileVault {
    /// Opens a vault rooted at `root`, recovering every stream's append
    /// position from the segment files on disk.  A torn record at the end of
    /// a stream's last segment is discarded (the write it belonged to never
    /// completed).  A missing or empty `root` is a fresh vault: open creates
    /// nothing, and the directories appear with the vault's first write.
    pub fn open(root: impl AsRef<Path>, fsync: FsyncPolicy) -> std::io::Result<FileVault> {
        FileVault::open_with_segment_bytes(root, fsync, DEFAULT_SEGMENT_BYTES)
    }

    /// [`FileVault::open`] with an explicit segment rotation threshold
    /// (tests use tiny segments to exercise rollover).
    pub fn open_with_segment_bytes(
        root: impl AsRef<Path>,
        fsync: FsyncPolicy,
        segment_bytes: u64,
    ) -> std::io::Result<FileVault> {
        let root = root.as_ref().to_path_buf();
        // A missing or empty root holds nothing to read back.
        let fresh = match fs::read_dir(&root) {
            Ok(mut entries) => entries.next().is_none(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(e),
        };
        let mut streams = HashMap::new();
        let mut blobs = Vec::new();
        if !fresh {
            fs::create_dir_all(root.join("blobs"))?;
            fs::create_dir_all(root.join("wal"))?;
            for entry in fs::read_dir(root.join("wal"))?.flatten() {
                let Some(id) = entry.file_name().to_str().and_then(parse_stream_dir) else {
                    continue;
                };
                let mut stream = FileStream::new(entry.path());
                if let Some((first, path)) = stream.segments().into_iter().last() {
                    let bytes = fs::read(&path)?;
                    let (count, valid) = walk_frames(&bytes, |_| {});
                    if valid < bytes.len() {
                        // Drop the torn tail so later appends start clean.
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(valid as u64)?;
                        f.sync_all()?;
                    }
                    stream.next_index = first + count;
                }
                streams.insert(id, stream);
            }
            blobs = fs::read_dir(root.join("blobs"))?
                .flatten()
                .filter(|entry| !entry.file_name().to_string_lossy().starts_with(".tmp-"))
                .map(|entry| entry.path())
                .collect();
        }
        // The root's `blobs/` and `wal/`, made here or by the first write,
        // may be entries no fsync has covered yet.
        let mut debt = Debt { dirs: BTreeSet::from([root.clone()]), ..Debt::default() };
        if streams.is_empty() && blobs.is_empty() {
            debt.hold_first_blob = true;
        } else {
            // The writer that left these files may have stopped before its
            // first barrier, leaving them in the page cache only: the next
            // barrier makes them durable before anything is journaled on top.
            debt.blobs = blobs;
            debt.dirs.extend([root.join("blobs"), root.join("wal")]);
        }
        Ok(FileVault {
            root,
            fsync,
            segment_bytes,
            inner: Mutex::new(streams),
            debt: Mutex::new(debt),
            #[cfg(test)]
            synced: Mutex::default(),
        })
    }

    /// The vault's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut HashMap<u32, FileStream>) -> R) -> R {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut inner)
    }

    fn debt(&self) -> std::sync::MutexGuard<'_, Debt> {
        self.debt.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `sync_all` on an open file or directory.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn fsync(&self, file: &File, path: &Path) -> std::io::Result<()> {
        #[cfg(test)]
        self.synced
            .lock()
            .unwrap()
            .push(path.strip_prefix(&self.root).expect("a path inside the vault").to_path_buf());
        file.sync_all()
    }

    /// The start of every barrier: writes out a held first blob, fsyncs the
    /// blobs still unsynced, then every directory holding an unsynced entry.
    fn barrier(&self) {
        let mut debt = self.debt();
        debt.write_first_blob(&self.root).expect("write the first blob");
        for path in std::mem::take(&mut debt.blobs) {
            let file = File::open(&path).expect("open an unsynced blob");
            self.fsync(&file, &path).expect("sync an unsynced blob");
        }
        for dir in std::mem::take(&mut debt.dirs) {
            if let Ok(handle) = File::open(&dir) {
                let _ = self.fsync(&handle, &dir);
            }
        }
    }
}

impl Vault for FileVault {
    fn append(&self, stream: u32, payload: &[u8]) -> u64 {
        self.with_inner(|streams| {
            // The vault's first stream may create `wal/` in the root too.
            let first_stream = streams.is_empty();
            // A stream gets its directory when it gets its entry; entries
            // read back at open have theirs already.
            let s = streams.entry(stream).or_insert_with(|| {
                let mut debt = self.debt();
                // A held first blob reaches the disk ahead of any record.
                debt.write_first_blob(&self.root).expect("write the first blob");
                let wal = self.root.join("wal");
                let dir = wal.join(stream_dir_name(stream));
                fs::create_dir_all(&dir).expect("create stream directory");
                if first_stream {
                    debt.dirs.insert(self.root.clone());
                }
                debt.dirs.insert(wal);
                FileStream::new(dir)
            });
            // Rotate (or open) the append segment.
            let rotate = s.open.as_ref().is_some_and(|o| o.bytes >= self.segment_bytes);
            if s.open.is_none() || rotate {
                if let Some(o) = s.open.take() {
                    self.barrier();
                    let _ = self.fsync(&o.file, &o.path);
                }
                let (path, bytes) = match (rotate, s.segments().into_iter().last()) {
                    // Re-open the existing last segment (fresh handle after
                    // a vault reopen) unless we are rotating away from it.
                    (false, Some((_, path))) => {
                        let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                        (path, bytes)
                    }
                    _ => {
                        self.debt().dirs.insert(s.dir.clone());
                        (s.dir.join(segment_file_name(s.next_index)), 0)
                    }
                };
                let file =
                    OpenOptions::new().create(true).append(true).open(&path).expect("open segment");
                s.open = Some(OpenSegment { file, path, bytes });
            }
            let open = s.open.as_mut().expect("segment just opened");
            let frame = &mut s.frame;
            frame.clear();
            frame.reserve(FRAME_HEADER + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(payload).to_le_bytes());
            frame.extend_from_slice(payload);
            open.file.write_all(frame).expect("append WAL record");
            open.bytes += frame.len() as u64;
            frame.shrink_to(KEPT_FRAME_BYTES);
            let index = s.next_index;
            s.next_index += 1;
            s.unsynced += 1;
            let flush = match self.fsync {
                FsyncPolicy::Always => true,
                FsyncPolicy::Interval(n) => s.unsynced >= n.max(1),
                FsyncPolicy::Never => false,
            };
            if flush {
                self.barrier();
                let _ = self.fsync(&open.file, &open.path);
                s.unsynced = 0;
            }
            index
        })
    }

    fn stream_len(&self, stream: u32) -> u64 {
        self.with_inner(|streams| streams.get(&stream).map_or(0, |s| s.next_index))
    }

    fn read_from(&self, stream: u32, from: u64) -> Vec<(u64, Vec<u8>)> {
        self.with_inner(|streams| {
            // Appends are unbuffered `write_all`s: the scan reads them from
            // the page cache, no fsync needed.
            let Some(s) = streams.get(&stream) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            for (first, path) in s.segments() {
                let Ok(bytes) = fs::read(&path) else { break };
                let mut index = first;
                let (_, valid) = walk_frames(&bytes, |payload| {
                    if index >= from {
                        out.push((index, payload.to_vec()));
                    }
                    index += 1;
                });
                if valid < bytes.len() {
                    // Everything after a torn record is unreadable.
                    break;
                }
            }
            out
        })
    }

    fn truncate(&self, stream: u32, covered: u64) {
        self.barrier();
        self.with_inner(|streams| {
            let Some(s) = streams.get_mut(&stream) else {
                return;
            };
            let segments = s.segments();
            // A segment is deletable when the next segment starts at or
            // below the covered offset (so every record in it is covered).
            // The last segment is the append target and always survives.
            for window in segments.windows(2) {
                let (_, path) = &window[0];
                let (next_first, _) = window[1];
                if next_first <= covered {
                    let _ = fs::remove_file(path);
                }
            }
        })
    }

    fn save_blob(&self, name: &str, bytes: &[u8]) {
        {
            // The first blob of a fresh vault replaces nothing, and nothing
            // durable depends on it yet: it waits in memory for the vault's
            // first write or barrier.
            let mut debt = self.debt();
            if std::mem::take(&mut debt.hold_first_blob) {
                debt.first_blob = Some((name.to_string(), bytes.to_vec()));
                return;
            }
        }
        self.barrier();
        let blobs = self.root.join("blobs");
        let tmp = blobs.join(format!(".tmp-{name}"));
        let path = blobs.join(name);
        let mut f = File::create(&tmp).expect("create blob temp file");
        f.write_all(bytes).expect("write blob");
        self.fsync(&f, &tmp).expect("sync blob");
        fs::rename(&tmp, &path).expect("atomically replace blob");
        self.debt().dirs.insert(blobs);
    }

    fn load_blob(&self, name: &str) -> Option<Vec<u8>> {
        let held =
            self.debt().first_blob.as_ref().filter(|(n, _)| n == name).map(|(_, b)| b.clone());
        if held.is_some() {
            return held;
        }
        let mut bytes = Vec::new();
        File::open(self.root.join("blobs").join(name)).ok()?.read_to_end(&mut bytes).ok()?;
        Some(bytes)
    }

    fn streams(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        if let Ok(entries) = fs::read_dir(self.root.join("wal")) {
            for entry in entries.flatten() {
                if let Some(id) = entry.file_name().to_str().and_then(parse_stream_dir) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Answered from what open found and what was written since: no
    /// stream, and a first blob still to come.
    fn is_empty(&self) -> bool {
        self.with_inner(|streams| streams.is_empty()) && self.debt().hold_first_blob
    }

    fn sync(&self) {
        self.with_inner(|streams| {
            self.barrier();
            for s in streams.values_mut() {
                if let Some(o) = &s.open {
                    let _ = self.fsync(&o.file, &o.path);
                }
                s.unsynced = 0;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, empty directory under the system temp dir.  Dropping it —
    /// on a failing test's unwind too — removes it with the
    /// `ix-durable-test-<tag>-<pid>` directory that holds it.
    struct TempDir {
        root: PathBuf,
        dir: PathBuf,
    }

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.dir
        }
    }

    impl AsRef<Path> for TempDir {
        fn as_ref(&self) -> &Path {
            &self.dir
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let root =
            std::env::temp_dir().join(format!("ix-durable-test-{tag}-{}", std::process::id()));
        let dir = root.join(format!("{:?}", std::thread::current().id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir { root, dir }
    }

    #[test]
    fn mem_vault_streams_and_blobs_round_trip() {
        let v = MemVault::new();
        assert_eq!(v.append(0, b"a"), 0);
        assert_eq!(v.append(0, b"b"), 1);
        assert_eq!(v.append(7, b"x"), 0);
        assert_eq!(v.stream_len(0), 2);
        assert_eq!(v.read_from(0, 0), vec![(0, b"a".to_vec()), (1, b"b".to_vec())],);
        assert_eq!(v.read_from(0, 1), vec![(1, b"b".to_vec())]);
        v.truncate(0, 1);
        assert_eq!(v.read_from(0, 0), vec![(1, b"b".to_vec())]);
        assert_eq!(v.stream_len(0), 2, "indices survive truncation");
        v.save_blob("snap", b"payload");
        assert_eq!(v.load_blob("snap").unwrap(), b"payload");
        assert_eq!(v.load_blob("missing"), None);
        assert_eq!(v.streams(), vec![0, 7]);
    }

    #[test]
    fn file_vault_round_trips_across_reopen() {
        let dir = temp_dir("reopen");
        {
            let v = FileVault::open(&dir, FsyncPolicy::Always).unwrap();
            assert_eq!(v.append(0, b"alpha"), 0);
            assert_eq!(v.append(0, b"beta"), 1);
            assert_eq!(v.append(META_STREAM, b"m"), 0);
            v.save_blob("manifest", b"mf");
        }
        let v = FileVault::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(v.stream_len(0), 2);
        assert_eq!(v.append(0, b"gamma"), 2, "append position recovered");
        assert_eq!(
            v.read_from(0, 0).into_iter().map(|(_, p)| p).collect::<Vec<_>>(),
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()],
        );
        assert_eq!(v.load_blob("manifest").unwrap(), b"mf");
        assert_eq!(v.streams(), vec![0, META_STREAM]);
    }

    #[test]
    fn history_streams_get_directories_of_their_own() {
        let dir = temp_dir("history");
        {
            let v = FileVault::open(&dir, FsyncPolicy::Never).unwrap();
            assert!(!dir.join("wal").join("history-2").exists(), "created by the first append");
            assert_eq!(v.append(2, b"wal"), 0);
            assert_eq!(v.append(history_stream(2), b"old"), 0);
            assert_eq!(v.append(history_stream(2), b"older"), 1);
            assert!(dir.join("wal").join("history-2").join(segment_file_name(0)).exists());
        }
        let v = FileVault::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(v.streams(), vec![2, history_stream(2)]);
        assert_eq!(v.stream_len(history_stream(2)), 2);
        assert_eq!(v.read_from(2, 0), vec![(0, b"wal".to_vec())]);
        assert_eq!(v.read_from(history_stream(2), 1), vec![(1, b"older".to_vec())]);
    }

    #[test]
    fn file_vault_reader_stops_at_corrupt_record() {
        let dir = temp_dir("corrupt");
        {
            let v = FileVault::open(&dir, FsyncPolicy::Always).unwrap();
            for i in 0..4u8 {
                v.append(3, &[i; 16]);
            }
        }
        // Flip a byte in the last record's payload.
        let seg = dir.join("wal").join("shard-3").join(segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let v = FileVault::open(&dir, FsyncPolicy::Always).unwrap();
        let records = v.read_from(3, 0);
        assert_eq!(records.len(), 3, "valid prefix survives, corrupt tail dropped");
        // The reopen truncated the torn tail, so appends continue cleanly.
        assert_eq!(v.append(3, b"fresh"), 3);
        assert_eq!(v.read_from(3, 3), vec![(3, b"fresh".to_vec())]);
    }

    #[test]
    fn file_vault_truncate_deletes_covered_segments_only() {
        let dir = temp_dir("truncate");
        // Tiny segments: every record rotates into its own file.
        let v = FileVault::open_with_segment_bytes(&dir, FsyncPolicy::Always, 1).unwrap();
        for i in 0..5u8 {
            v.append(0, &[i; 8]);
        }
        let stream_dir = dir.join("wal").join("shard-0");
        let count = || fs::read_dir(&stream_dir).unwrap().count();
        assert_eq!(count(), 5);
        v.truncate(0, 3);
        assert_eq!(count(), 2, "segments below the covered offset are deleted");
        let survivors: Vec<u64> = v.read_from(0, 3).into_iter().map(|(i, _)| i).collect();
        assert_eq!(survivors, vec![3, 4]);
        assert_eq!(v.stream_len(0), 5);
    }

    impl FileVault {
        /// The paths fsynced since the last call, relative to the root.
        fn take_synced(&self) -> Vec<PathBuf> {
            std::mem::take(&mut *self.synced.lock().unwrap())
        }
    }

    /// A missing root is not created by opening, reading or syncing the
    /// vault; an empty one stays empty while the first blob is held, and the
    /// held bytes are what `load_blob` reads back.
    #[test]
    fn a_fresh_vault_holds_its_first_blob_in_memory() {
        let root = temp_dir("missing");
        let missing = root.join("vault");
        let v = FileVault::open(&missing, FsyncPolicy::Always).unwrap();
        assert_eq!(
            (v.load_blob("topology"), v.streams(), v.read_from(0, 0)),
            (None, vec![], vec![])
        );
        v.sync();
        drop(v);
        assert!(!missing.exists(), "a vault that wrote nothing creates nothing");

        let dir = temp_dir("held");
        let v = FileVault::open(&dir, FsyncPolicy::Always).unwrap();
        v.save_blob("topology", b"t");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "the first blob waits in memory");
        assert_eq!(v.load_blob("topology").unwrap(), b"t");
        assert_eq!(v.load_blob("manifest"), None);
        assert!(v.take_synced().is_empty());
    }

    /// The first append of a new stream writes the held blob before it makes
    /// the stream's directory: an append that cannot make it (a file stands
    /// where `wal/` belongs) fails with the blob already in place.
    #[test]
    fn the_first_append_writes_the_held_blob_before_its_segment() {
        let dir = temp_dir("first-append");
        let v = FileVault::open(&dir, FsyncPolicy::Never).unwrap();
        v.save_blob("topology", b"t");
        fs::write(dir.join("wal"), b"").unwrap();
        let append = std::panic::AssertUnwindSafe(|| v.append(0, b"r"));
        assert!(std::panic::catch_unwind(append).is_err(), "wal/ is a file");
        assert_eq!(fs::read(dir.join("blobs/topology")).unwrap(), b"t");
        assert!(!dir.join("wal/shard-0").exists());

        fs::remove_file(dir.join("wal")).unwrap();
        assert_eq!(v.append(0, b"r"), 0);
        assert!(dir.join("wal/shard-0").join(segment_file_name(0)).exists());
        assert!(v.take_synced().is_empty(), "a write under Never, not a barrier");
        assert_eq!(v.load_blob("topology").unwrap(), b"t", "read back from the disk");
    }

    /// A vault dropped before any write or barrier still leaves its first
    /// blob on disk, and no `wal/` for a vault that never journaled.
    #[test]
    fn a_dropped_vault_leaves_its_held_blob_on_disk() {
        let dir = temp_dir("dropped");
        let v = FileVault::open(&dir, FsyncPolicy::Always).unwrap();
        v.save_blob("topology", b"t");
        drop(v);
        assert_eq!(fs::read(dir.join("blobs/topology")).unwrap(), b"t");
        assert!(!dir.join("wal").exists());
        let v = FileVault::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(v.load_blob("topology").unwrap(), b"t");
    }

    /// A fresh vault holds its first blob in memory; its first barrier of
    /// any kind writes it in place and fsyncs it and `blobs/` once, ahead of
    /// its own fsync.  So does the first barrier of a vault reopened after a
    /// writer that passed none.  A reopened vault, and every later blob,
    /// fsyncs the blob before the rename.
    #[test]
    fn the_first_barrier_makes_the_first_blob_durable() {
        let seg = |n: u64| Path::new("wal/shard-0").join(segment_file_name(n));
        type Barrier = fn(&FileVault);
        let kinds: [(&str, FsyncPolicy, u64, Barrier, Option<PathBuf>); 5] = [
            (
                "stream fsync by policy",
                FsyncPolicy::Always,
                1 << 20,
                |v| {
                    v.append(0, b"r");
                },
                Some(seg(0)),
            ),
            (
                "stream fsync on rotation",
                FsyncPolicy::Never,
                1,
                |v| {
                    v.append(0, b"r");
                    assert!(v.take_synced().is_empty(), "an append under Never fsyncs nothing");
                    v.append(0, b"s");
                },
                Some(seg(0)),
            ),
            (
                "sync",
                FsyncPolicy::Never,
                1 << 20,
                |v| {
                    v.append(0, b"r");
                    v.sync();
                },
                Some(seg(0)),
            ),
            ("truncate", FsyncPolicy::Never, 1 << 20, |v| v.truncate(0, 0), None),
            (
                "save_blob",
                FsyncPolicy::Never,
                1 << 20,
                |v| v.save_blob("manifest", b"m"),
                Some(PathBuf::from("blobs/.tmp-manifest")),
            ),
        ];
        let (first, blobs) = (Path::new("blobs/topology"), Path::new("blobs"));
        for ((kind, policy, segment_bytes, barrier, own), reopened) in
            kinds.into_iter().flat_map(|k| [(k.clone(), false), (k, true)])
        {
            let dir = temp_dir("barrier");
            let open = || FileVault::open_with_segment_bytes(&dir, policy, segment_bytes).unwrap();
            let mut v = open();
            v.save_blob("topology", b"t");
            assert_eq!(v.take_synced(), Vec::<PathBuf>::new(), "{kind}: the first blob waits");
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "{kind}: in memory");
            if reopened {
                // The writer stops before its first barrier; the vault
                // reopened on its files owes their fsync instead.
                drop(v);
                v = open();
                assert_eq!(v.take_synced(), Vec::<PathBuf>::new(), "{kind}: reopen waits");
            }
            let kind = format!("{kind}{}", if reopened { " (reopened)" } else { "" });
            barrier(&v);
            let synced = v.take_synced();
            let at = |p: &Path| synced.iter().position(|s| s == p);
            for owed in [first, blobs] {
                let count = synced.iter().filter(|s| *s == owed).count();
                assert_eq!(count, 1, "{kind}: {owed:?} fsynced once: {synced:?}");
            }
            if let Some(own) = &own {
                assert_eq!(synced.last(), Some(own), "{kind}: its own fsync is last");
                assert!(at(first) < at(own) && at(blobs) < at(own), "{kind}: {synced:?}");
            }
            if own == Some(seg(0)) {
                let entry = Path::new("wal/shard-0");
                let ordered = at(entry).is_some() && at(entry) < at(&seg(0));
                assert!(ordered, "{kind}: a new segment's entry: {synced:?}");
            }
            // The debt is paid: no later barrier fsyncs the first blob again.
            v.sync();
            assert!(!v.take_synced().iter().any(|s| s == first), "{kind}");
            // A replacement is fsynced before it is renamed into place.
            v.save_blob("topology", b"t2");
            assert_eq!(v.take_synced(), [PathBuf::from("blobs/.tmp-topology")], "{kind}");
            // A reopened vault defers no blob: it pays the debt it found,
            // then fsyncs the replacement before its rename.
            drop(v);
            let v = open();
            v.save_blob("topology", b"t3");
            let synced = v.take_synced();
            assert!(synced.iter().any(|s| s == first), "{kind}: {synced:?}");
            assert_eq!(synced.last(), Some(&PathBuf::from("blobs/.tmp-topology")), "{kind}");
            assert_eq!(v.load_blob("topology").unwrap(), b"t3");
        }
    }

    #[test]
    fn blob_replacement_is_atomic_by_rename() {
        let dir = temp_dir("blob");
        let v = FileVault::open(&dir, FsyncPolicy::Never).unwrap();
        v.save_blob("snap-0", b"v1");
        v.save_blob("snap-0", b"v2");
        assert_eq!(v.load_blob("snap-0").unwrap(), b"v2");
        assert!(!dir.join("blobs").join(".tmp-snap-0").exists(), "temp file renamed away");
    }
}
