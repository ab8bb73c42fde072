//! Byte-exact persistence: the topology blob and the shard snapshots of one
//! fixed runtime must encode exactly the bytes checked in under
//! `tests/fixtures/golden_blobs/`.  Alphabets are written in their sorted
//! order, so a change to how alphabets are held, ordered or hashed shows up
//! here as a byte difference.  The ward round's shard runs from a table and
//! its snapshot holds none: tables are a cache, not state.  The snapshot
//! that shard wrote while tables were persisted is kept as
//! `tests/fixtures/ward_round_snapshot`, which recovery still decodes.
//!
//! This file is a test binary of its own holding one test: symbols order by
//! interning order, so the bytes are reproducible only in a process where
//! nothing else interned a symbol first.
//!
//! `IX_BLESS=1 cargo test --test golden_blobs` rewrites the fixtures.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{ManagerRuntime, MemVault, RuntimeOptions, Vault};
use std::path::Path;
use std::sync::Arc;

/// Fig. 7 (patient ⊗ capacity, quantified: no tables) coupled with a
/// concrete ward round, whose shard runs from a table.
fn expr() -> Expr {
    Expr::sync(
        ix_graph::figures::fig7_expr(),
        parse("(ward_open - ward_round - ward_close)*").unwrap(),
    )
}

fn activity(name: &str, end: bool, p: i64, x: &str) -> Action {
    let args = [Value::int(p), Value::sym(x)];
    if end {
        Action::terminate(name, args)
    } else {
        Action::start(name, args)
    }
}

#[test]
fn topology_and_snapshot_blobs_encode_byte_for_byte() {
    let vault = Arc::new(MemVault::new());
    let runtime =
        ManagerRuntime::with_durability(&expr(), RuntimeOptions::default(), vault.clone()).unwrap();
    runtime.compile_tiers();
    let session = runtime.session(1);
    let word = [
        activity("prepare_patient", false, 9, "sono"),
        activity("prepare_patient", true, 9, "sono"),
        activity("call_patient", false, 1, "sono"),
        activity("call_patient", true, 1, "sono"),
        Action::nullary("ward_open"),
        activity("call_patient", false, 2, "endo"),
        Action::nullary("ward_round"),
    ];
    for action in &word {
        assert!(session.execute_blocking(action).unwrap().is_some(), "{action} commits");
    }
    runtime.checkpoint().unwrap();
    assert!(runtime.tier_stats().tables >= 1, "the ward round runs from a table");

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_blobs");
    let bless = std::env::var_os("IX_BLESS").is_some();
    let names = ["topology".to_string()]
        .into_iter()
        .chain((0..runtime.shard_count()).map(|shard| format!("snap-{shard}")));
    for name in names {
        let bytes = vault.load_blob(&name).unwrap_or_else(|| panic!("no `{name}` blob"));
        let path = dir.join(&name);
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &bytes).unwrap();
        } else {
            let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(bytes == golden, "`{name}` encodes differently from {}", path.display());
        }
    }
    drop(session);
    runtime.shutdown().unwrap();
}
