//! The coordination and subscription protocols of Fig. 10 over real threads
//! and queues, including the client-crash scenario that motivates the
//! leased protocol variant (Sec. 7).
//!
//! Run with `cargo run --example protocol_simulation`.

use ix_core::{parse, Action, Value};
use ix_manager::{ManagerRuntime, ProtocolVariant, Session};

fn call(p: i64, x: &str) -> Action {
    Action::concrete("call", [Value::int(p), Value::sym(x)])
}

fn perform(p: i64, x: &str) -> Action {
    Action::concrete("perform", [Value::int(p), Value::sym(x)])
}

fn print_notifications(worklist: &Session) {
    for note in worklist.poll_notifications() {
        println!(
            "  notification for client {}: {} is now {}",
            note.client,
            note.action,
            if note.permitted { "permissible" } else { "NOT permissible" }
        );
    }
}

fn main() {
    let constraint = parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap();

    // --- coordination + subscription protocol -----------------------------
    let runtime = ManagerRuntime::with_protocol(&constraint, ProtocolVariant::Combined).unwrap();
    let ultrasound_worklist = runtime.session(1);
    let endoscopy_worklist = runtime.session(2);

    let watched = call(1, "endo");
    let initially = endoscopy_worklist.subscribe_blocking(&watched).unwrap();
    println!("endoscopy worklist subscribes to {watched}: initially permitted = {initially}");

    // A commit delivers its notifications before its ticket completes, so
    // they are there to poll once `execute_blocking` returns.
    println!("ultrasonography department executes call(1, sono)");
    assert!(ultrasound_worklist.execute_blocking(&call(1, "sono")).unwrap().is_some());
    print_notifications(&endoscopy_worklist);

    println!("ultrasonography department executes perform(1, sono)");
    assert!(ultrasound_worklist.execute_blocking(&perform(1, "sono")).unwrap().is_some());
    print_notifications(&endoscopy_worklist);
    let report = runtime.shutdown().unwrap();
    println!(
        "manager processed {} confirmations, sent {} notifications\n",
        report.stats.confirmations, report.stats.notifications
    );

    // --- client crash and lease recovery ----------------------------------
    let capacity_one = parse("mult 1 { (some p { call(p, sono) - perform(p, sono) })* }").unwrap();
    let runtime =
        ManagerRuntime::with_protocol(&capacity_one, ProtocolVariant::Leased { lease: 10 })
            .unwrap();
    let crashing = runtime.session(7);
    let healthy = runtime.session(8);
    let _grant = crashing.ask_blocking(&call(1, "sono")).unwrap().expect("granted");
    println!("client 7 is granted call(1, sono) and then crashes before confirming");
    println!(
        "client 8 asks for call(2, sono): {:?}",
        healthy.ask_blocking(&call(2, "sono")).unwrap()
    );
    healthy.advance_time(20);
    println!(
        "after the lease expires, client 8 asks again: {:?}",
        healthy.ask_blocking(&call(2, "sono")).unwrap().map(|_| "granted")
    );
    // Both clients blocked on each reply, so every decision was taken on
    // the asking thread: the pool never had to start a worker.
    let sched = runtime.sched_stats();
    println!("worker threads started: {} of {}", sched.started, sched.workers);
    assert_eq!(sched.started, 0);
    runtime.shutdown().unwrap();
}
