//! Spans recorded from outside the program, and the [`Vault`] decorator that
//! counts and times every storage call.
//!
//! A span is `(name, start_ns, end_ns, parent, request_id)`.  Spans are kept
//! in memory and written when the run ends.  A layer's *self time* is its
//! span minus the part its child spans cover.  Spans opened through
//! [`Tracer::scope`] nest by thread: a vault call made by `checkpoint()` on
//! the harness thread becomes a child of the checkpoint span, while one made
//! by a shard worker on behalf of a commit has no parent the harness can see
//! (in-program spans are a later change) and is recorded as a root.

use crate::json::Json;
use ix_durable::Vault;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `parent` of a span nothing encloses.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Ops of one request share an identifier; 0 for spans no request caused.
    pub request: u32,
}

/// Moves a batch of spans whose `parent` values index the batch itself
/// behind `base` spans that precede it.
pub fn rebased(batch: Vec<Span>, base: usize) -> impl Iterator<Item = Span> {
    batch.into_iter().map(move |mut span| {
        if span.parent != ROOT {
            span.parent += base as u32;
        }
        span
    })
}

thread_local! {
    /// Ids of the scopes open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a tracer user panicked")
    }

    /// Opens a span that closes when the guard drops; scopes opened on the
    /// same thread meanwhile become its children.
    pub fn scope(&self, name: &'static str, request: u32) -> Scope<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(ROOT));
        let id = {
            let mut spans = self.lock();
            spans.push(Span { name, start_ns: self.now(), end_ns: 0, parent, request });
            (spans.len() - 1) as u32
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        Scope { tracer: self, id }
    }

    /// Appends spans whose stamps the caller took itself (the per-op hot
    /// path).  `parent` values are indices into `batch`; they are rebased
    /// onto the tracer's span table.
    pub fn extend(&self, batch: Vec<Span>) {
        let mut spans = self.lock();
        let base = spans.len();
        spans.extend(rebased(batch, base));
    }

    /// Per-name totals: `(count, total_ns, self_ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent != ROOT {
                let p = &spans[s.parent as usize];
                // Only the part inside the parent's interval counts against
                // its self time.
                let covered = s.end_ns.min(p.end_ns).saturating_sub(s.start_ns.max(p.start_ns));
                child_ns[s.parent as usize] += covered;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let entry = totals.entry(s.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += dur;
            entry.2 += dur.saturating_sub(children);
        }
        totals
    }

    /// The trace document: per-name totals over *all* spans, and the first
    /// `limit` spans themselves (a traced repetition records several spans
    /// per op; the file stays readable, the totals stay complete).
    pub fn to_json(&self, workload: &str, limit: usize) -> Json {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", Json::Num(count as f64)),
                    ("total_ns", Json::Num(total as f64)),
                    ("self_ns", Json::Num(own as f64)),
                ])
            })
            .collect();
        let spans = self.lock();
        let written = spans
            .iter()
            .take(limit)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == ROOT { Json::Null } else { Json::Num(s.parent as f64) },
                    ),
                    ("request_id", Json::Num(s.request as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("spans_recorded", Json::Num(spans.len() as f64)),
            ("totals", Json::Arr(totals)),
            ("spans", Json::Arr(written)),
        ])
    }
}

pub struct Scope<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.tracer.lock()[self.id as usize].end_ns = end;
    }
}

/// Calls, bytes and nanoseconds of one group of [`Vault`] methods.
#[derive(Default)]
pub struct VaultCounter {
    pub count: AtomicU64,
    pub bytes: AtomicU64,
    pub ns: AtomicU64,
}

impl VaultCounter {
    fn add(&self, bytes: usize, started: Instant) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Per-method counters of a [`TracedVault`], shared with the harness.
#[derive(Default)]
pub struct VaultCounters {
    pub append: VaultCounter,
    pub sync: VaultCounter,
    /// `save_blob`.
    pub blob: VaultCounter,
    /// `read_from` and `load_blob` — what recovery reads.
    pub read: VaultCounter,
    pub truncate: VaultCounter,
}

/// A [`Vault`] that forwards to `inner`, counting calls, payload bytes and
/// time per method and recording one span per call.
pub struct TracedVault {
    inner: Arc<dyn Vault>,
    tracer: Arc<Tracer>,
    pub counters: Arc<VaultCounters>,
}

impl TracedVault {
    pub fn new(inner: Arc<dyn Vault>, tracer: Arc<Tracer>) -> TracedVault {
        TracedVault { inner, tracer, counters: Arc::default() }
    }
}

impl Vault for TracedVault {
    fn append(&self, stream: u32, payload: &[u8]) -> u64 {
        let _span = self.tracer.scope("durable.append", 0);
        let started = Instant::now();
        let index = self.inner.append(stream, payload);
        self.counters.append.add(payload.len(), started);
        index
    }

    fn stream_len(&self, stream: u32) -> u64 {
        self.inner.stream_len(stream)
    }

    fn read_from(&self, stream: u32, from: u64) -> Vec<(u64, Vec<u8>)> {
        let _span = self.tracer.scope("durable.read_from", 0);
        let started = Instant::now();
        let records = self.inner.read_from(stream, from);
        self.counters.read.add(records.iter().map(|(_, r)| r.len()).sum(), started);
        records
    }

    fn truncate(&self, stream: u32, covered: u64) {
        let _span = self.tracer.scope("durable.truncate", 0);
        let started = Instant::now();
        self.inner.truncate(stream, covered);
        self.counters.truncate.add(0, started);
    }

    fn save_blob(&self, name: &str, bytes: &[u8]) {
        let _span = self.tracer.scope("durable.save_blob", 0);
        let started = Instant::now();
        self.inner.save_blob(name, bytes);
        self.counters.blob.add(bytes.len(), started);
    }

    fn load_blob(&self, name: &str) -> Option<Vec<u8>> {
        let _span = self.tracer.scope("durable.load_blob", 0);
        let started = Instant::now();
        let blob = self.inner.load_blob(name);
        self.counters.read.add(blob.as_ref().map_or(0, Vec::len), started);
        blob
    }

    fn streams(&self) -> Vec<u32> {
        self.inner.streams()
    }

    fn sync(&self) {
        let _span = self.tracer.scope("durable.sync", 0);
        let started = Instant::now();
        self.inner.sync();
        self.counters.sync.add(0, started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_durable::MemVault;

    #[test]
    fn scopes_nest_by_thread_and_self_time_excludes_children() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.scope("outer", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = tracer.scope("inner", 7);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let totals = tracer.totals();
        let (count, total, own) = totals["outer"];
        let (_, inner_total, inner_own) = totals["inner"];
        assert_eq!(count, 1);
        assert_eq!(inner_total, inner_own);
        assert_eq!(own, total - inner_total);
        let doc = tracer.to_json("w", 1);
        assert_eq!(doc.get("spans").unwrap().as_arr().len(), 1);
        assert_eq!(doc.get("spans_recorded").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn extend_rebases_parents() {
        let tracer = Tracer::new();
        drop(tracer.scope("first", 0));
        let span = |parent| Span { name: "x", start_ns: 1, end_ns: 5, parent, request: 1 };
        tracer.extend(vec![span(ROOT), span(0)]);
        let totals = tracer.totals();
        // The second span is a child of the first of the batch: 4 ns each,
        // the parent's self time is 0.
        assert_eq!(totals["x"], (2, 8, 4));
    }

    #[test]
    fn traced_vault_counts_and_forwards() {
        let tracer = Tracer::new();
        let vault = TracedVault::new(Arc::new(MemVault::new()), Arc::clone(&tracer));
        assert_eq!(vault.append(0, b"abc"), 0);
        assert_eq!(vault.append(0, b"de"), 1);
        vault.save_blob("b", b"1234");
        vault.sync();
        assert_eq!(vault.read_from(0, 0).len(), 2);
        assert_eq!(vault.load_blob("b").as_deref(), Some(&b"1234"[..]));
        let c = &vault.counters;
        assert_eq!((c.append.count(), c.append.bytes()), (2, 5));
        assert_eq!((c.blob.count(), c.blob.bytes()), (1, 4));
        assert_eq!((c.read.count(), c.read.bytes()), (2, 9));
        assert_eq!(c.sync.count(), 1);
        assert_eq!(tracer.totals()["durable.append"].0, 2);
    }
}
