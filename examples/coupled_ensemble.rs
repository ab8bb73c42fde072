//! Demonstrates cross-shard actions: a "mostly disjoint" ensemble of four
//! department constraints coupled through one global `audit` barrier still
//! decomposes into four shards — the shared action is owned by *all* of them
//! and executed as an atomic two-phase commit, instead of collapsing the
//! whole ensemble into a single critical region.
//!
//! Run with `cargo run --release --example coupled_ensemble`.

use ix_core::Partition;
use ix_manager::{InteractionManager, ProtocolVariant};
use ix_wfms::{coupled_audit, coupled_call, coupled_ensemble_constraint, coupled_perform};
use std::sync::Arc;

fn main() {
    let constraint = coupled_ensemble_constraint(4);

    // The fine-grained partition keeps one component per department and
    // reports the audit as the single interaction channel between them.
    let partition = Partition::of(&constraint);
    println!("the coupled constraint decomposes into {} sync-components", partition.len());
    for (action, owners) in partition.shared_actions() {
        println!("    cross-shard action {action} owned by shards {owners:?}");
    }

    let manager = Arc::new(
        InteractionManager::with_protocol(&constraint, ProtocolVariant::Combined).unwrap(),
    );
    println!(
        "manager runs {} shards; audit is cross-shard: {}",
        manager.shard_count(),
        manager.is_cross_shard(&coupled_audit())
    );

    // One client thread per department works through its own cases — on its
    // own shard, without ever waiting for the other departments.
    let mut handles = Vec::new();
    for dept in 0..4 {
        let manager = Arc::clone(&manager);
        handles.push(std::thread::spawn(move || {
            for case in 1..=50 {
                let p = (dept * 100 + case) as i64;
                assert!(manager
                    .try_execute(dept as u64, &coupled_call(dept, p))
                    .unwrap()
                    .is_some());
                assert!(manager
                    .try_execute(dept as u64, &coupled_perform(dept, p))
                    .unwrap()
                    .is_some());
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    // The hospital-wide audit: a two-phase commit that only lands when every
    // department is at a round boundary.  Right now they all are.
    let audited = manager.try_execute(9, &coupled_audit()).unwrap().is_some();
    println!("\nafter 400 local commits, global audit committed: {audited}");

    // A department mid-case vetoes the next audit atomically — no shard's
    // state changes on the abort.
    manager.try_execute(0, &coupled_call(0, 999)).unwrap().unwrap();
    let vetoed = manager.try_execute(9, &coupled_audit()).unwrap().is_none();
    println!("with department 0 mid-case, the next audit is vetoed: {vetoed}");
    manager.try_execute(0, &coupled_perform(0, 999)).unwrap().unwrap();
    let audited = manager.try_execute(9, &coupled_audit()).unwrap().is_some();
    println!("after the case completes, the audit commits again: {audited}");

    let stats = manager.stats();
    println!(
        "\ntotals: {} commits, {} denials, log length {}",
        stats.confirmations,
        stats.denials,
        manager.log().len()
    );
}
