//! Durability: sharded checkpoints, the write-ahead log, and crash
//! recovery.
//!
//! A manager runtime journals every commit into a file-backed vault while
//! it serves traffic, cuts a sharded copy-on-write checkpoint mid-run
//! (truncating the covered log prefix), commits a little more, and then
//! "crashes".  A second runtime recovers from the vault — snapshots plus
//! the log tail — and carries on exactly where the first left off.
//!
//! Run with `cargo run --example durable_recovery [vault-dir]`.  The vault
//! directory is left on disk so it can be examined with
//! `ixctl snapshot inspect <vault-dir>` and `ixctl recover <vault-dir>`.

use ix_core::{parse, Action, Value};
use ix_manager::{Completion, FsyncPolicy, ManagerRuntime, ProtocolVariant, RuntimeOptions};

fn call(dept: char, p: i64) -> Action {
    Action::concrete(&format!("call_{dept}"), [Value::int(p)])
}

fn perform(dept: char, p: i64) -> Action {
    Action::concrete(&format!("perform_{dept}"), [Value::int(p)])
}

fn options() -> RuntimeOptions {
    RuntimeOptions {
        variant: ProtocolVariant::Combined,
        fsync: FsyncPolicy::Interval(64),
        ..RuntimeOptions::default()
    }
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("ix-durable-recovery-example"));
    std::fs::remove_dir_all(&dir).ok();
    let constraint = parse(
        "((some p { call_a(p) - perform_a(p) })* - audit)* \
         @ ((some p { call_b(p) - perform_b(p) })* - audit)*",
    )
    .unwrap();

    // First life: journal every commit into the vault.
    let runtime = ManagerRuntime::with_durability_path(&constraint, options(), &dir).unwrap();
    let session = runtime.session(1);
    for p in 0..32 {
        for action in [call('a', p), perform('a', p), call('b', p), perform('b', p)] {
            assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
        }
    }
    // The cross-shard audit barrier commits on every owner's stream.
    assert!(matches!(
        session.execute(&Action::nullary("audit")).wait(),
        Completion::Executed { .. }
    ));
    let report = runtime.checkpoint().unwrap();
    println!(
        "checkpoint: {} of {} shards captured, {} snapshot bytes, {} log entries archived \
         ({} history bytes) — covered log prefix truncated",
        report.captured, report.shards, report.bytes, report.archived_entries, report.history_bytes
    );
    // Post-checkpoint traffic lives only in the log tail.
    for p in 32..40 {
        for action in [call('a', p), perform('a', p)] {
            assert!(matches!(session.execute(&action).wait(), Completion::Executed { .. }));
        }
    }
    let before = runtime.shutdown().unwrap();
    println!(
        "crash: {} committed actions, clock {}, stats {:?}",
        before.log.len(),
        before.clock,
        before.stats
    );

    // Second life: snapshots + log tail.
    let recovered = ManagerRuntime::recover_path(&dir, options()).unwrap();
    println!(
        "recovered: {} committed actions, clock {} — identical to the crashed runtime",
        recovered.log().len(),
        recovered.now()
    );
    assert_eq!(recovered.log(), before.log);
    assert_eq!(recovered.stats(), before.stats);

    // The recovered engines decide like the originals: the examination
    // pairs are balanced again, so the next audit barrier is permitted.
    let session = recovered.session(2);
    assert!(matches!(session.execute(&call('a', 100)).wait(), Completion::Executed { .. }));
    assert!(matches!(session.execute(&perform('a', 100)).wait(), Completion::Executed { .. }));
    assert!(matches!(
        session.execute(&Action::nullary("audit")).wait(),
        Completion::Executed { .. }
    ));
    let after = recovered.shutdown().unwrap();
    println!("second life committed {} more actions", after.log.len() - before.log.len());
    println!(
        "vault left at {} — try `ixctl snapshot inspect` / `ixctl recover` on it",
        dir.display()
    );
}
