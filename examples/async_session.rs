//! The session runtime: pipelined submissions, completion tickets, and
//! lease expiry through ordered timers — the asynchronous coordination
//! service of Sec. 7, replacing the blocking per-call surface.
//!
//! Run with `cargo run --example async_session`.

use ix_core::{parse, Action, Value};
use ix_manager::{Completion, ManagerRuntime, ProtocolVariant, RuntimeOptions};

fn call(k: usize, p: i64) -> Action {
    Action::concrete(&format!("call{k}"), [Value::int(p)])
}

fn perform(k: usize, p: i64) -> Action {
    Action::concrete(&format!("perform{k}"), [Value::int(p)])
}

fn main() {
    // Three departments coupled by a global audit barrier: the expression
    // shards into three components, the audit is owned by all of them.
    let constraint = parse(
        "((some p { call0(p) - perform0(p) })* - audit)* \
         @ ((some p { call1(p) - perform1(p) })* - audit)* \
         @ ((some p { call2(p) - perform2(p) })* - audit)*",
    )
    .unwrap();
    let runtime = ManagerRuntime::with_protocol(&constraint, ProtocolVariant::Combined).unwrap();
    println!(
        "runtime with {} shard workers; audit owned by shards {:?}",
        runtime.shard_count(),
        runtime.owners_of(&Action::nullary("audit"))
    );

    // --- pipelining: submit a whole schedule, then harvest tickets --------
    let session = runtime.session(1);
    let mut tickets = Vec::new();
    for p in 0..3 {
        for k in 0..3 {
            tickets.push((call(k, p), session.execute(&call(k, p))));
            tickets.push((perform(k, p), session.execute(&perform(k, p))));
        }
    }
    // A cross-shard audit, enqueued onto all three owners' queues in
    // ascending order — the enqueue order *is* the 2PC lock order.
    let audit_ticket = session.execute(&Action::nullary("audit"));
    let committed =
        tickets.iter().filter(|(_, t)| matches!(t.wait(), Completion::Executed { .. })).count();
    println!("pipelined {} submissions, {} committed", tickets.len(), committed);
    println!(
        "cross-shard audit: {}",
        match audit_ticket.wait() {
            Completion::Executed { .. } => "committed atomically across all owners",
            _ => "denied",
        }
    );

    // --- callbacks: push-style completion handling ------------------------
    let t = session.execute(&call(0, 99));
    t.then(|c| println!("callback saw completion: {c:?}"));
    t.wait();

    // --- leases and their timers ------------------------------------------
    let capacity_one = parse("mult 1 { (some p { call(p) - perform(p) })* }").unwrap();
    let leased = ManagerRuntime::with_options(
        &capacity_one,
        RuntimeOptions {
            variant: ProtocolVariant::Leased { lease: 10 },
            ..RuntimeOptions::default()
        },
    )
    .unwrap();
    let crashing = leased.session(7);
    let healthy = leased.session(8);
    let c = |p: i64| Action::concrete("call", [Value::int(p)]);
    let granted = crashing.ask_blocking(&c(1)).unwrap();
    println!("\nclient 7 holds reservation {granted:?} and crashes before confirming");
    println!("client 8 asks: {:?}", healthy.ask_blocking(&c(2)).unwrap());
    let expired = leased.advance_time(11);
    println!("lease timers fired {} expiry at t={}", expired.len(), leased.now());
    println!("client 8 asks again: {:?}", healthy.ask_blocking(&c(2)).unwrap().map(|_| "granted"));

    let report = runtime.shutdown().unwrap();
    println!(
        "\nshutdown: {} shards, {} commits in the merged log, {} notifications sent",
        report.shards,
        report.log.len(),
        report.stats.notifications
    );
}
