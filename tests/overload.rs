//! Integration tests of bounded admission and load shedding: a bounded
//! runtime with headroom is indistinguishable from an unbounded one, a
//! client that honors the retry-after hints makes progress under sustained
//! overload, and the credit gate keeps every queue inside its configured
//! limit.

use ix_core::{parse, Action, Expr, Value};
use ix_manager::{Completion, ManagerRuntime, ProtocolVariant, RuntimeOptions, SubmitError};
use proptest::prelude::*;
use std::time::Duration;

/// Three always-repeatable departments plus a cross-shard audit barrier —
/// every component decomposes to its own shard, `audit` spans all three.
fn constraint() -> Expr {
    parse(
        "((some p { work_a(p) })* - audit)* \
         @ ((some p { work_b(p) })* - audit)* \
         @ ((some p { work_c(p) })* - audit)*",
    )
    .unwrap()
}

fn work(d: usize, p: i64) -> Action {
    let name = ["a", "b", "c"][d % 3];
    Action::concrete(&format!("work_{name}"), [Value::int(p)])
}

fn audit() -> Action {
    Action::nullary("audit")
}

fn combined(queue_limit: usize) -> RuntimeOptions {
    RuntimeOptions { variant: ProtocolVariant::Combined, queue_limit, ..RuntimeOptions::default() }
}

/// One step of the randomized lockstep workload.
#[derive(Clone, Debug)]
enum Op {
    Work(usize, i64),
    Audit,
    Probe(usize, i64),
    Subscribe(u64, usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 1u64..5).prop_map(|(d, p)| Op::Work(d, p as i64)),
        Just(Op::Audit),
        (0usize..3, 1u64..5).prop_map(|(d, p)| Op::Probe(d, p as i64)),
        (10u64..13, 0usize..3, 1u64..5).prop_map(|(c, d, p)| Op::Subscribe(c, d, p as i64)),
    ]
}

/// Replays the workload through one session with every ticket awaited and
/// returns the completions in submission order.
fn drive(runtime: &ManagerRuntime, ops: &[Op]) -> Vec<Completion> {
    let session = runtime.session(1);
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        out.push(match op {
            Op::Work(d, p) => match session.submit(&work(*d, *p)) {
                Ok(t) => t.wait(),
                Err(e) => Completion::Failed { error: e.into() },
            },
            Op::Audit => match session.submit(&audit()) {
                Ok(t) => t.wait(),
                Err(e) => Completion::Failed { error: e.into() },
            },
            Op::Probe(d, p) => session.is_permitted(&work(*d, *p)).wait(),
            Op::Subscribe(c, d, p) => runtime.session(*c).subscribe(&work(*d, *p)).wait(),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A bounded runtime whose limit is never reached is *identical* to an
    /// unbounded one: same completions, same merged log, same statistics,
    /// and its gate never sheds.  Bounded admission must be invisible until
    /// the limit bites.
    #[test]
    fn bounded_with_headroom_matches_unbounded(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let x = constraint();
        let unbounded = ManagerRuntime::with_options(&x, combined(0)).unwrap();
        let bounded = ManagerRuntime::with_options(&x, combined(1 << 20)).unwrap();
        let free = drive(&unbounded, &ops);
        let gated = drive(&bounded, &ops);
        prop_assert_eq!(&gated, &free, "completions diverge under a spacious limit");
        prop_assert_eq!(bounded.log(), unbounded.log(), "merged logs diverge");
        let (bs, us) = (bounded.stats(), unbounded.stats());
        prop_assert_eq!(bs.asks, us.asks);
        prop_assert_eq!(bs.grants, us.grants);
        prop_assert_eq!(bs.denials, us.denials);
        let report = bounded.load_report();
        prop_assert_eq!(report.total_shed(), 0, "spacious gate shed traffic");
        prop_assert_eq!(report.queue_limit, 1 << 20);
        bounded.shutdown().unwrap();
        unbounded.shutdown().unwrap();
    }
}

/// Floods a bounded runtime far past its limit and asserts the two credit
/// invariants: the admitted depth never exceeds the configured limit (the
/// peak high-water mark is measured *inside* the gate, after every
/// successful reservation), and the overflow is shed with retryable
/// tickets rather than queued.
#[test]
fn credit_gate_caps_queue_depth_and_sheds_overflow() {
    let limit = 4;
    let runtime = ManagerRuntime::with_options(&constraint(), combined(limit)).unwrap();
    let session = runtime.session(7);
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    // Burst rounds until the gate demonstrably shed — each round outruns
    // the three workers by submitting 16× the per-shard limit at enqueue
    // speed (an atomic and a channel send) without awaiting anything.
    for round in 0..1000 {
        for i in 0..limit * 16 {
            match session.submit(&work(i % 3, ((round * 97 + i) % 5 + 1) as i64)) {
                Ok(t) => admitted.push(t),
                Err(SubmitError::Overloaded { retry_after }) => {
                    assert!(retry_after >= Duration::from_micros(100));
                    assert!(retry_after <= Duration::from_millis(100));
                    shed += 1;
                }
            }
        }
        if shed > 0 {
            break;
        }
    }
    assert!(shed > 0, "a 16x burst never overflowed a limit-4 gate");
    for t in admitted {
        assert!(matches!(t.wait(), Completion::Executed { .. }));
    }
    let report = runtime.load_report();
    assert_eq!(report.total_shed(), shed);
    assert!(report.peak_depth() <= limit, "gate admitted past its limit");
    assert!(report.hottest().is_some());
    runtime.shutdown().unwrap();
}

/// Liveness under sustained 2× overload: every round floods twice the
/// aggregate queue capacity, and a polite client that honors the
/// retry-after hint between attempts still commits — in every round.
/// Backpressure degrades politely-used service, it never denies it.
#[test]
fn retrying_client_commits_under_sustained_overload() {
    let limit = 8;
    let runtime = ManagerRuntime::with_options(&constraint(), combined(limit)).unwrap();
    let flood = runtime.session(1);
    let polite = runtime.session(2);
    let mut outstanding = Vec::new();
    let mut rejections = 0u64;
    for round in 0..20i64 {
        // 2× capacity across all three shards, fired without awaiting.
        for i in 0..3 * limit * 2 {
            match flood.submit(&work(i % 3, (i % 5) as i64 + 1)) {
                Ok(t) => outstanding.push(t),
                Err(_) => rejections += 1,
            }
        }
        // The polite client backs off exactly as the ticket hints and must
        // land its commit while the flood is still draining.
        let mut committed = false;
        for _attempt in 0..200 {
            match polite.submit(&work(0, round % 5 + 1)) {
                Ok(t) => {
                    assert!(matches!(t.wait(), Completion::Executed { .. }));
                    committed = true;
                    break;
                }
                Err(e) => {
                    rejections += 1;
                    std::thread::sleep(e.retry_after().min(Duration::from_millis(2)));
                }
            }
        }
        assert!(committed, "polite client starved in round {round}");
    }
    for t in outstanding {
        assert!(matches!(t.wait(), Completion::Executed { .. }));
    }
    // The overload was real — the gate shed flood traffic — and no shard
    // ever held more than its credit budget.
    let report = runtime.load_report();
    assert_eq!(report.total_shed(), rejections);
    assert!(report.peak_depth() <= limit);
    runtime.shutdown().unwrap();
}

/// The shed ladder: probes shed strictly before commits.  Each round
/// bursts six commit-class submissions — above the probe watermark
/// (50% of 8 = 4) but, with the probe's own credit, never past the commit
/// limit of 8 — then probes while the burst is still queued.  A shed
/// probe resolves *inline* (nothing was enqueued), so `wait_timeout(0)`
/// distinguishes it from an admitted probe without draining the queue.
/// Commits can never shed in this workload, and the test asserts exactly
/// that alongside the tripped probe watermark.
#[test]
fn probes_shed_before_commits() {
    // Single component → single shard → one worker to outrun.
    let x = parse("(some p { work_a(p) })*").unwrap();
    let limit = 8;
    let runtime = ManagerRuntime::with_options(&x, combined(limit)).unwrap();
    let session = runtime.session(3);
    let mut tripped = false;
    for round in 0..5000i64 {
        let mut pending = Vec::with_capacity(7);
        for i in 0..6 {
            // Depth starts at 0 every round, so all six must admit.
            pending.push(session.submit(&work(0, (round + i) % 5 + 1)).unwrap());
        }
        let probe = session.is_permitted(&work(0, 1));
        let shed_inline =
            matches!(probe.wait_timeout(Duration::ZERO), Some(Completion::Failed { .. }));
        // Drain the round completely before the next burst.
        for t in pending {
            assert!(matches!(t.wait(), Completion::Executed { .. }));
        }
        if shed_inline {
            tripped = true;
            break;
        }
        probe.wait();
    }
    assert!(tripped, "probe watermark never tripped in 5000 six-deep bursts");
    let report = runtime.load_report();
    assert!(report.shards[0].shed_probes > 0, "inline failure without a shed count");
    assert_eq!(report.shards[0].shed_commits, 0, "a commit shed below the limit");
    assert!(report.peak_depth() <= limit);
    runtime.shutdown().unwrap();
}
