//! Deterministic fault injection for [`Vault`] implementations.
//!
//! The durability layer's crash tests cut the log at clean record
//! boundaries: the runtime stops, the vault handle survives, recovery
//! replays.  Real storage fails messier — writes that an I/O error
//! swallowed, a final record torn mid-frame, an fsync that reported
//! success for data the cache never flushed.  [`FaultVault`] turns those
//! into *scripted, replayable* crash points: it journals every mutation in
//! global order while presenting a perfectly healthy vault to the running
//! system (buffered writes look fine until the machine dies), and
//! [`FaultVault::surviving`] rebuilds the vault a given [`FaultPlan`] would
//! have left on the platter.
//!
//! Because [`Vault::append`] has no error channel — the buffered layer
//! acknowledges and the loss surfaces only at the crash — every fault mode
//! manifests as deterministic silent write loss:
//!
//! * [`FaultMode::ErrorAfter`] — the device dies at operation `at`: every
//!   mutation from that point on (appends, blob saves, truncations) is
//!   lost.  A clean cut, but at an *operation* boundary the checkpoint
//!   protocol did not choose.
//! * [`FaultMode::TornFinal`] — the crash hits mid-frame: operations before
//!   `at` are durable except the final stream append among them, which is
//!   torn (a CRC-framed reader stops before it, so it is simply gone).
//! * [`FaultMode::FsyncLie`] — metadata outlives data: *every* journaled
//!   blob save and truncation applies, but stream appends from operation
//!   `at` on were only ever in the cache.  This is the nastiest mode — a
//!   checkpoint manifest can survive while log records written before it
//!   are gone, exactly the interleaving recovery's roll-forward must
//!   tolerate.

use crate::vault::{MemVault, Vault};
use std::sync::Mutex;

/// Which kind of storage lie a [`FaultPlan`] tells.  See the module docs
/// for the exact surviving set of each mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Total device failure at the scripted operation.
    ErrorAfter,
    /// Clean crash whose final stream append is torn.
    TornFinal,
    /// Stream appends from the scripted operation on are dropped while
    /// blob saves and truncations still reach the disk.
    FsyncLie,
}

/// A scripted crash point: the global mutation ordinal `at` (counting every
/// append, blob save, and truncation across all streams, from 0) plus the
/// [`FaultMode`] deciding what survives around it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault mode.
    pub mode: FaultMode,
    /// The global operation ordinal the fault strikes at (≥ 1, so the very
    /// first mutation — typically the topology blob — always survives).
    /// That models a vault that has passed its first barrier: a file vault
    /// fsyncs its first blob only then (see [`Vault::save_blob`]),
    /// and a crash before it leaves nothing promised durable to drill.
    pub at: u64,
}

impl FaultPlan {
    /// Derives a deterministic plan from a seed: an xorshift64 draw picks
    /// the mode and a crash ordinal in `[1, max_ops]`.  The same seed and
    /// bound always script the same crash, so a failing drill replays.
    pub fn seeded(seed: u64, max_ops: u64) -> FaultPlan {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mode = match next() % 3 {
            0 => FaultMode::ErrorAfter,
            1 => FaultMode::TornFinal,
            _ => FaultMode::FsyncLie,
        };
        let at = 1 + next() % max_ops.max(1);
        FaultPlan { mode, at }
    }
}

/// One journaled vault mutation (reads are not journaled — they cannot be
/// lost).
enum FaultOp {
    Append { stream: u32, payload: Vec<u8> },
    SaveBlob { name: String, bytes: Vec<u8> },
    Truncate { stream: u32, covered: u64 },
}

/// A [`Vault`] wrapper that records every mutation while behaving like a
/// healthy in-memory vault, so a crash drill can later materialize what
/// any scripted [`FaultPlan`] would have left behind.
#[derive(Default)]
pub struct FaultVault {
    /// The healthy view the running system reads its own writes from.
    live: MemVault,
    /// Every mutation in global order.
    journal: Mutex<Vec<FaultOp>>,
}

impl FaultVault {
    /// An empty fault-journaling vault.
    pub fn new() -> FaultVault {
        FaultVault::default()
    }

    /// Number of mutations journaled so far — the bound to size a
    /// [`FaultPlan`] against.
    pub fn ops(&self) -> u64 {
        self.journal.lock().unwrap_or_else(|e| e.into_inner()).len() as u64
    }

    /// Rebuilds the vault `plan` would have left on stable storage: the
    /// journal replayed with the scripted loss applied.  The live view is
    /// untouched, so one recorded workload can be drilled at many crash
    /// points.
    pub fn surviving(&self, plan: &FaultPlan) -> MemVault {
        let journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let at = plan.at as usize;
        let disk = MemVault::new();
        match plan.mode {
            FaultMode::ErrorAfter => {
                for op in journal.iter().take(at) {
                    apply(&disk, op);
                }
            }
            FaultMode::TornFinal => {
                let torn =
                    journal.iter().take(at).rposition(|op| matches!(op, FaultOp::Append { .. }));
                for (i, op) in journal.iter().take(at).enumerate() {
                    if Some(i) != torn {
                        apply(&disk, op);
                    }
                }
            }
            FaultMode::FsyncLie => {
                for (i, op) in journal.iter().enumerate() {
                    if i >= at && matches!(op, FaultOp::Append { .. }) {
                        continue;
                    }
                    apply(&disk, op);
                }
            }
        }
        disk
    }
}

fn apply(disk: &MemVault, op: &FaultOp) {
    match op {
        FaultOp::Append { stream, payload } => {
            disk.append(*stream, payload);
        }
        FaultOp::SaveBlob { name, bytes } => disk.save_blob(name, bytes),
        FaultOp::Truncate { stream, covered } => disk.truncate(*stream, *covered),
    }
}

impl std::fmt::Debug for FaultVault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultVault").field("ops", &self.ops()).field("live", &self.live).finish()
    }
}

impl Vault for FaultVault {
    fn append(&self, stream: u32, payload: &[u8]) -> u64 {
        self.journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(FaultOp::Append { stream, payload: payload.to_vec() });
        self.live.append(stream, payload)
    }

    fn stream_len(&self, stream: u32) -> u64 {
        self.live.stream_len(stream)
    }

    fn read_from(&self, stream: u32, from: u64) -> Vec<(u64, Vec<u8>)> {
        self.live.read_from(stream, from)
    }

    fn truncate(&self, stream: u32, covered: u64) {
        self.journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(FaultOp::Truncate { stream, covered });
        self.live.truncate(stream, covered)
    }

    fn save_blob(&self, name: &str, bytes: &[u8]) {
        self.journal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(FaultOp::SaveBlob { name: name.to_string(), bytes: bytes.to_vec() });
        self.live.save_blob(name, bytes)
    }

    fn load_blob(&self, name: &str) -> Option<Vec<u8>> {
        self.live.load_blob(name)
    }

    fn streams(&self) -> Vec<u32> {
        self.live.streams()
    }

    fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    fn sync(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_view_is_healthy() {
        let v = FaultVault::new();
        v.save_blob("topo", b"t");
        assert_eq!(v.append(0, b"a"), 0);
        assert_eq!(v.append(0, b"b"), 1);
        assert_eq!(v.stream_len(0), 2);
        assert_eq!(v.read_from(0, 0).len(), 2);
        assert_eq!(v.load_blob("topo"), Some(b"t".to_vec()));
        assert_eq!(v.ops(), 3);
    }

    #[test]
    fn error_after_drops_everything_from_the_cut() {
        let v = FaultVault::new();
        v.save_blob("topo", b"t"); // op 0
        v.append(0, b"a"); // op 1
        v.append(0, b"b"); // op 2
        v.save_blob("cp", b"c"); // op 3
        let disk = v.surviving(&FaultPlan { mode: FaultMode::ErrorAfter, at: 2 });
        assert_eq!(disk.read_from(0, 0), vec![(0, b"a".to_vec())]);
        assert_eq!(disk.load_blob("cp"), None);
        assert_eq!(disk.load_blob("topo"), Some(b"t".to_vec()));
    }

    #[test]
    fn torn_final_loses_only_the_last_surviving_append() {
        let v = FaultVault::new();
        v.save_blob("topo", b"t"); // op 0
        v.append(0, b"a"); // op 1
        v.append(1, b"b"); // op 2
        v.save_blob("cp", b"c"); // op 3 (inside the cut: survives)
        v.append(0, b"late"); // op 4 (outside the cut)
        let disk = v.surviving(&FaultPlan { mode: FaultMode::TornFinal, at: 4 });
        // The torn record is op 2 (last append before the cut): stream 1
        // is empty, stream 0 keeps "a", the blob save inside the cut holds.
        assert_eq!(disk.read_from(0, 0), vec![(0, b"a".to_vec())]);
        assert!(disk.read_from(1, 0).is_empty());
        assert_eq!(disk.load_blob("cp"), Some(b"c".to_vec()));
    }

    #[test]
    fn fsync_lie_keeps_metadata_but_drops_late_appends() {
        let v = FaultVault::new();
        v.append(0, b"a"); // op 0
        v.append(0, b"b"); // op 1 (lied about)
        v.save_blob("cp", b"c"); // op 2 (still durable)
        v.truncate(0, 1); // op 3 (still durable)
        let disk = v.surviving(&FaultPlan { mode: FaultMode::FsyncLie, at: 1 });
        assert!(disk.read_from(0, 0).is_empty(), "append 0 truncated, append 1 lied about");
        assert_eq!(disk.stream_len(0), 1, "indices stay stable across the truncation");
        assert_eq!(disk.load_blob("cp"), Some(b"c".to_vec()));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 100);
            let b = FaultPlan::seeded(seed, 100);
            assert_eq!(a, b);
            assert!(a.at >= 1 && a.at <= 100);
        }
        // All three modes appear across a small seed range.
        let modes: std::collections::BTreeSet<u64> =
            (0..64).map(|s| FaultPlan::seeded(s, 100).mode as u64).collect();
        assert_eq!(modes.len(), 3);
    }
}
