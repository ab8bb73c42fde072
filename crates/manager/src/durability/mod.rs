//! Checkpoints, write-ahead records, and crash recovery of the runtime.
//!
//! The durability design has three pieces, all built on the storage
//! vocabulary of `ix-durable` ([`Vault`](ix_durable::Vault) streams and blobs):
//!
//! * **Write-ahead records** (`WalRecord`): every shard worker *echoes*
//!   each state mutation it applies — commits, reservation grants,
//!   reservation removals — onto **its own** stream, in apply order.  A
//!   multi-owner commit therefore appears on every owner's stream, which is
//!   what makes per-shard snapshot cuts independent: a shard's snapshot plus
//!   its own log tail fully determines its state, no matter where the other
//!   owners' cuts fall, and truncating one shard's stream can never orphan
//!   another shard's replay.  Statistics ride along as
//!   [`ManagerStats`](crate::ManagerStats) deltas — deterministically
//!   attributed ones on the shard records (carried by
//!   the commit's *primary* owner), order-independent ones as `Event`
//!   records on the meta stream, so recovered counters equal the live ones.
//! * **Checkpoints** (`ShardCheckpoint`, `Manifest`): each shard is
//!   snapshotted at a task boundary of its own worker — no stop-the-world.
//!   The CoW state is serialized through the pointer-deduplicating
//!   state-table codec.  The engine's DFA tiles are a cache of τ̂ and are
//!   not persisted: a recovered engine installs its tier around the decoded
//!   state on first use, as a fresh one does.  A snapshot carries the state
//!   that decides the next action and *not* the
//!   history of confirmed actions: `persist_shards` first **archives** the
//!   entries committed since the shard's last checkpoint on the shard's
//!   history stream ([`ix_durable::history_stream`]) and the snapshot only
//!   counts them, so a checkpoint writes O(new commits).
//! * **Recovery**: load the topology blob, then per shard the latest
//!   snapshot plus the stream tail — no history; roll torn multi-owner
//!   records forward (a record present on at least one owner's stream is
//!   completed on all of them); rebuild the derived structures (reservation
//!   index, lease timers) from what was recovered.
//! * **Reading the log** (`visit_log`): who needs every confirmed action —
//!   `log()`, `shutdown()`, the replay of a live repartition, the vault
//!   inspection — chains a shard's history stream before the entries still
//!   resident in its `ShardLog`.
//!
//! One module per piece: `journal` owns the write-ahead record format and
//! the `DurabilityHub` every record goes through (outside this module only
//! the shard kernel names a record), `checkpoint` the snapshot, history,
//! manifest and topology blobs and the checkpoint cut, and `recover` the
//! recovery driver and the offline inspection of a vault.

mod checkpoint;
mod journal;
mod recover;

pub(crate) use checkpoint::{
    merged_log, persist_repartition, persist_shards, run_checkpoint, save_topology, visit_log,
    Gaps, ShardCheckpoint,
};
pub(crate) use journal::{DurabilityHub, WalRecord};
pub(crate) use recover::recover_runtime;
pub use recover::{inspect_vault, ShardInspection, VaultInspection};

use crate::error::ManagerError;
use ix_durable::CodecError;

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

#[cfg(test)]
mod tests {
    use super::checkpoint::*;
    use super::journal::*;
    use super::*;
    use crate::log::ShardLog;
    use crate::{ManagerStats, Reservation};
    use ix_core::{parse, Action, Value};
    use ix_durable::{encode_action, history_stream, Reader, Vault, Writer};
    use ix_state::Engine;
    use std::cell::Cell;

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
                delta: ManagerStats { asks: 1, grants: 1, confirmations: 1, ..ManagerStats::ZERO },
            },
            WalRecord::Reserve {
                reservation: Reservation {
                    id: 9,
                    action: act("y"),
                    client: 4,
                    granted_at: 10,
                    expires_at: u64::MAX,
                },
                delta: ManagerStats { asks: 1, grants: 1, ..ManagerStats::ZERO },
            },
            WalRecord::Release {
                id: 9,
                delta: ManagerStats { aborted_reservations: 1, ..ManagerStats::ZERO },
            },
            WalRecord::Event { delta: ManagerStats { notifications: 3, ..ManagerStats::ZERO } },
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
    fn shard_checkpoint_round_trips_state_and_writes_no_table() {
        // A ring caught mid-lap, running from a table with two cells filled.
        let expr = parse("(a - b - c)*").unwrap();
        let mut engine = Engine::new(&expr).unwrap();
        assert!(engine.try_execute(&act("a")) && engine.try_execute(&act("b")));
        assert_eq!(engine.tier_stats().tables, 1);
        let cap = ShardCheckpoint {
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
            stat_base: ManagerStats { asks: 2, grants: 1, denials: 1, ..ManagerStats::ZERO },
        };
        let bytes = encode_shard_checkpoint(&cap);
        // The table sequence follows the state's root id, and is empty.
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        for _ in 0..4 {
            r.u64().unwrap();
        }
        decode_delta(&mut r).unwrap();
        ix_durable::StateTableReader::read(&mut r).unwrap();
        r.u32().unwrap();
        assert_eq!(r.len_prefix().unwrap(), 0, "a snapshot holds no tier table");
        let decoded = decode_shard_checkpoint(0, &bytes).expect("decode");
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
        // A restored engine installs its tier around the decoded state on
        // first use, as a fresh one does, and finishes the lap from tables.
        let mut restored =
            Engine::restore(&expr, decoded.state, decoded.accepted, decoded.rejected).unwrap();
        assert_eq!(restored.tier_stats().tables, 0);
        assert!(restored.try_execute(&act("c")));
        assert!(restored.try_execute(&act("a")) && restored.try_execute(&act("b")));
        let lap = restored.tier_stats();
        assert_eq!((lap.tables, lap.compiles, lap.hits, lap.fallbacks), (1, 1, 3, 0), "{lap:?}");
    }

    /// A shard snapshot written while snapshots still carried the engine's
    /// tier tables: the ward-round shard of the golden runtime, its table
    /// half filled, cut after `ward_open ward_round`.  It decodes, the
    /// tables are dropped, and an engine restored from its state goes on.
    #[test]
    fn a_snapshot_with_tables_decodes_to_its_state() {
        let bytes = include_bytes!("../../../../tests/fixtures/ward_round_snapshot");
        let decoded = decode_shard_checkpoint(2, bytes).expect("decode");
        assert_eq!((decoded.accepted, decoded.rejected), (2, 0));
        let expr = parse("(ward_open - ward_round - ward_close)*").unwrap();
        let mut engine =
            Engine::restore(&expr, decoded.state, decoded.accepted, decoded.rejected).unwrap();
        let steps = ["ward_close", "ward_open", "ward_round"].map(act);
        let permitted: Vec<&Action> = steps.iter().filter(|a| engine.is_permitted(a)).collect();
        assert_eq!(permitted, [&act("ward_close")]);
        assert!(steps.iter().all(|a| engine.try_execute(a)), "the round closes and reopens");
    }

    /// Shard snapshots written while every `some` and `each` state carried
    /// a scoped alphabet, under node tags 12 and 13 with a scope id
    /// (`tests/fixtures/scoped_quantifier_snapshots`): the two Fig. 7
    /// shards of the golden runtime, whose re-encoding
    /// `tests/fixtures/golden_blobs` holds, and the one shard of an
    /// expression that nests `some` and `each` in `sync`, cut with branches
    /// of all three instantiated.  Each decodes to the state this code
    /// reaches on the same run, and an engine restored from it goes on.
    #[test]
    fn snapshots_with_quantifier_scopes_decode_to_their_states() {
        let fixture = |name: &str| {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
            std::fs::read(format!("{dir}/{name}")).unwrap()
        };
        let exam = |name: &str, p, x| Action::concrete(name, [Value::int(p), Value::sym(x)]);
        let topology = decode_topology(&fixture("golden_blobs/topology")).unwrap();
        for shard in 0..2 {
            let old = fixture(&format!("scoped_quantifier_snapshots/golden-snap-{shard}"));
            let old = decode_shard_checkpoint(shard, &old).expect("decode");
            let new =
                decode_shard_checkpoint(shard, &fixture(&format!("golden_blobs/snap-{shard}")));
            assert_eq!(old.state, new.expect("decode").state, "shard {shard}");
            let expr = parse(&topology.components[shard].0).unwrap();
            let mut engine = Engine::restore(&expr, old.state, old.accepted, old.rejected).unwrap();
            // Patient 2 is being called at endo; patient 1 was called at sono.
            assert!(!engine.is_permitted(&exam("perform_examination_start", 2, "endo")));
            for (name, p, x) in [
                ("call_patient_end", 2, "endo"),
                ("perform_examination_start", 1, "sono"),
                ("perform_examination_end", 1, "sono"),
                ("perform_examination_start", 2, "endo"),
            ] {
                assert!(engine.try_execute(&exam(name, p, x)), "shard {shard}: {name}({p}, {x})");
            }
        }

        let expr = parse(
            "sync p { (call(p) - some r { serve(p, r) - each k { (some j { log(p, j) })* } } \
             - done(p))* }",
        )
        .unwrap();
        let act =
            |name: &str, args: &[i64]| Action::concrete(name, args.iter().map(|&v| Value::int(v)));
        let old = decode_shard_checkpoint(0, &fixture("scoped_quantifier_snapshots/nested-snap-0"));
        let old = old.expect("decode");
        let mut live = Engine::new(&expr).unwrap();
        // The run the fixture was cut after; `done(3)` was denied.
        let run = [
            ("call", &[1][..]),
            ("serve", &[1, 4]),
            ("log", &[1, 7]),
            ("done", &[3]),
            ("call", &[2]),
            ("serve", &[2, 5]),
        ];
        for (name, args) in run {
            let action = act(name, args);
            assert_eq!(live.try_execute(&action), name != "done", "{action}");
        }
        // The runtime denies through `is_permitted`, which counts nothing.
        assert_eq!((old.accepted, old.rejected), (live.accepted(), live.rejected() - 1));
        assert_eq!(old.state, *live.state_handle());
        let mut restored = Engine::restore(&expr, old.state, old.accepted, old.rejected).unwrap();
        assert!(!restored.is_permitted(&act("done", &[3])));
        let tail = [
            ("log", &[1, 8][..]),
            ("done", &[1]),
            ("log", &[2, 9]),
            ("done", &[2]),
            ("call", &[1]),
        ];
        for (name, args) in tail {
            let action = act(name, args);
            assert!(restored.try_execute(&action) && live.try_execute(&action), "{action}");
        }
        assert_eq!(restored.state_handle(), live.state_handle());
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
        let capture = |log: &ShardLog| ShardCheckpoint {
            shard: 1,
            covered: 0,
            epoch: log.epoch(),
            accepted: 0,
            rejected: 0,
            state: engine.state_handle().clone(),
            log: log.clone(),
            reservations: Vec::new(),
            subscriptions: Vec::new(),
            stat_base: ManagerStats::ZERO,
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
        let decoded = decode_shard_checkpoint(1, &vault.load_blob(&snap_blob(1)).unwrap()).unwrap();
        assert_eq!((decoded.log.len(), decoded.log.archived()), (expected.len(), expected.len()));
        assert_eq!(read(&decoded.log), expected);
    }

    #[test]
    fn manifest_and_topology_round_trip() {
        let manifest = Manifest {
            clock: 11,
            meta_covered: 5,
            meta_base: ManagerStats { notifications: 2, ..ManagerStats::ZERO },
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

    #[test]
    fn a_topology_counting_past_its_bytes_is_an_error() {
        // 2^62 components overflow a capacity computation.
        let mut w = Writer::new();
        w.u8(FORMAT_VERSION);
        w.u64(0);
        w.str("");
        w.u64(1 << 62);
        assert_eq!(decode_topology(w.as_bytes()).err(), Some(CodecError::Truncated));
    }
}
