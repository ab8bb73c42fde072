//! Property-based tests for the algebraic laws of interaction expressions
//! (Sec. 3: "commutativity, associativity, or idempotence of operators …
//! can be formally proven"), for the simplification pass of `ix-core`, and
//! for the parser/printer round trip.
//!
//! All language comparisons are bounded equivalences against the
//! denotational oracle of `ix-semantics` over a small grounding universe —
//! the same notion of equality (same alphabet, same complete and partial
//! words) the paper uses.

use ix_core::{parse, simplify, Expr, Value};
use ix_manager::{Completion, InteractionManager, ManagerError, ManagerRuntime, ProtocolVariant};
use ix_semantics::{equivalent, Universe};
use ix_state::Engine;
use proptest::prelude::*;

fn universe() -> Universe {
    Universe::new([Value::int(1), Value::int(2)]).with_fresh(1)
}

/// Strategy for small quantifier-free expressions over a fixed alphabet
/// (quantified expressions are covered by `formal_vs_operational.rs`).
fn small_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(parse("a").unwrap()),
        Just(parse("b").unwrap()),
        Just(parse("c").unwrap()),
        Just(parse("e(1)").unwrap()),
        Just(parse("empty").unwrap()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Expr::option),
            inner.clone().prop_map(Expr::seq_iter),
            inner.clone().prop_map(Expr::par_iter),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::seq(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::par(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::sync(l, r)),
            (1u32..3, inner.clone()).prop_map(|(n, e)| Expr::mult(n, e)),
        ]
    })
}

/// Strategy for expressions biased towards shardable shapes: chains of ⊗
/// and ‖ over sub-expressions drawn from (mostly) disjoint leaf pools, so
/// the partition analysis regularly finds 2–4 components — plus arbitrary
/// [`small_expr`] shapes for the monolithic fallback path.
fn shardable_expr() -> impl Strategy<Value = Expr> {
    // Three disjoint leaf pools and one overlap-inducing pool.
    let pool = |sources: &'static [&'static str]| {
        let leaves: Vec<Expr> = sources.iter().map(|s| parse(s).unwrap()).collect();
        prop_oneof![
            Just(leaves[0].clone()),
            Just(leaves[1].clone()),
            Just(Expr::seq(leaves[0].clone(), leaves[1].clone())),
            Just(Expr::seq_iter(Expr::seq(leaves[0].clone(), leaves[1].clone()))),
            Just(Expr::par_iter(leaves[0].clone())),
            Just(Expr::or(leaves[0].clone(), leaves[1].clone())),
        ]
    };
    let comp_a = pool(&["a", "b"]);
    let comp_b = pool(&["c", "d"]);
    let comp_c = pool(&["e(1)", "e(2)"]);
    let joiner = prop_oneof![Just(true), Just(false)];
    (comp_a, comp_b, comp_c, joiner.clone(), joiner).prop_map(
        |(x, y, z, sync_first, sync_second)| {
            let join =
                |s: bool, l: Expr, r: Expr| if s { Expr::sync(l, r) } else { Expr::par(l, r) };
            join(sync_second, join(sync_first, x, y), z)
        },
    )
}

/// Strategy for expressions with *deliberately overlapping* alphabets: ⊗/‖
/// chains whose operands draw from mostly disjoint pools but may each couple
/// to the shared action `s`, so the fine-grained partition regularly
/// produces multi-owner (cross-shard) actions.
fn overlapping_expr() -> impl Strategy<Value = Expr> {
    let shared = || parse("s").unwrap();
    let pool = move |sources: &'static [&'static str]| {
        let leaves: Vec<Expr> = sources.iter().map(|s| parse(s).unwrap()).collect();
        let pair = Expr::seq(leaves[0].clone(), leaves[1].clone());
        prop_oneof![
            // Purely local operands…
            Just(Expr::seq_iter(pair.clone())),
            Just(Expr::or(leaves[0].clone(), leaves[1].clone())),
            // …and operands coupled to the shared action.
            Just(Expr::seq_iter(Expr::seq(Expr::seq_iter(pair.clone()), shared()))),
            Just(Expr::seq_iter(Expr::or(leaves[0].clone(), shared()))),
            Just(Expr::seq(pair, Expr::option(shared()))),
        ]
    };
    let comp_a = pool(&["a", "b"]);
    let comp_b = pool(&["c", "d"]);
    let comp_c = pool(&["e(1)", "e(2)"]);
    let joiner = prop_oneof![Just(true), Just(false)];
    (comp_a, comp_b, comp_c, joiner.clone(), joiner).prop_map(
        |(x, y, z, sync_first, sync_second)| {
            let join =
                |s: bool, l: Expr, r: Expr| if s { Expr::sync(l, r) } else { Expr::par(l, r) };
            join(sync_second, join(sync_first, x, y), z)
        },
    )
}

/// One step of a dynamic-repartitioning script: submit an action, extend
/// the runtime with a fresh group, or add a coupling constraint.
#[derive(Clone, Debug)]
enum GrowOp {
    /// Execute the pool action with this index.
    Act(usize),
    /// Add the (disjoint, unless a coupling already claimed its actions)
    /// group `k`.
    Extend(usize),
    /// Add coupling constraint `j` (may be rejected as incompatible with
    /// the committed history, which must leave the runtime unchanged).
    Couple(usize),
}

/// x/y actions of groups 0..5 plus the shared coupling actions s0/s1.
fn grow_pool_action(i: usize) -> ix_core::Action {
    match i {
        0..=11 => {
            let k = i / 2;
            if i.is_multiple_of(2) {
                ix_core::Action::nullary(&format!("x{k}"))
            } else {
                ix_core::Action::nullary(&format!("y{k}"))
            }
        }
        12 => ix_core::Action::nullary("s0"),
        _ => ix_core::Action::nullary("s1"),
    }
}

fn grow_group(k: usize) -> Expr {
    parse(&format!("(x{k} - y{k})*")).unwrap()
}

fn grow_coupling(j: usize) -> Expr {
    match j {
        0 => parse("(x0* - s0)*").unwrap(),
        1 => parse("(x1* - s1)*").unwrap(),
        // Often incompatible: demands y0 strictly before x0.
        2 => parse("(y0 - x0)#").unwrap(),
        _ => parse("(x2* - s0)*").unwrap(),
    }
}

fn grow_script() -> impl Strategy<Value = Vec<GrowOp>> {
    let op = prop_oneof![
        (0..14usize).prop_map(GrowOp::Act),
        (0..14usize).prop_map(GrowOp::Act),
        (0..14usize).prop_map(GrowOp::Act),
        (2..6usize).prop_map(GrowOp::Extend),
        (0..4usize).prop_map(GrowOp::Couple),
    ];
    proptest::collection::vec(op, 0..24)
}

/// Runs a random workload interleaved with random `add_constraint` calls on
/// a live [`ManagerRuntime`] and asserts the acceptance contract of dynamic
/// repartitioning: the merged log and the final states are equivalent to a
/// monolithic manager built on the *final* expression (the log replays
/// verbatim, finality and the permitted sets agree), and every disjoint
/// addition is a pure shard-append that migrates zero shard states.
fn assert_grown_runtime_matches_monolithic(
    script: &[GrowOp],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let base = parse("(x0 - y0)* @ (x1 - y1)*").unwrap();
    let runtime = ManagerRuntime::with_protocol(&base, ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    let mut final_expr = base;
    let mut added: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for op in script {
        match op {
            GrowOp::Act(i) => {
                session.execute_blocking(&grow_pool_action(*i)).unwrap();
            }
            GrowOp::Extend(k) => {
                if added.contains(k) {
                    continue;
                }
                let group = grow_group(*k);
                // Fresh alphabet unless a coupling constraint already
                // claimed one of the group's actions.
                let disjoint = !runtime.controls(&grow_pool_action(2 * k))
                    && !runtime.controls(&grow_pool_action(2 * k + 1));
                let before = runtime.repartition_stats().migrated_shard_states;
                let report = runtime.add_constraint(&group).unwrap();
                added.insert(*k);
                final_expr = Expr::sync(final_expr, group);
                if disjoint {
                    prop_assert!(
                        report.migrated_shards.is_empty(),
                        "disjoint add of group {} paused shards {:?}",
                        k,
                        report.migrated_shards
                    );
                    prop_assert_eq!(
                        runtime.repartition_stats().migrated_shard_states,
                        before,
                        "disjoint add of group {} migrated shard state",
                        k
                    );
                }
            }
            GrowOp::Couple(j) => {
                let coupling = grow_coupling(*j);
                match runtime.add_constraint(&coupling) {
                    Ok(_) => final_expr = Expr::sync(final_expr, coupling),
                    Err(ManagerError::IncompatibleExtension { .. }) => {
                        // Rejected: the runtime must be left fully intact —
                        // checked implicitly by the final equivalence.
                    }
                    Err(e) => prop_assert!(false, "unexpected extension error: {e}"),
                }
            }
        }
    }
    // The merged log replays verbatim on a monolithic manager built on the
    // final expression …
    let log = runtime.log();
    let mono = InteractionManager::monolithic(&final_expr, ProtocolVariant::Combined).unwrap();
    for action in &log {
        prop_assert!(
            mono.try_execute(9, action).unwrap().is_some(),
            "merged log does not replay on `{}` at {}",
            final_expr,
            action
        );
    }
    // … and the final states agree: finality plus the permitted set over
    // the whole action pool.
    prop_assert_eq!(runtime.is_final(), mono.is_final(), "finality diverges on `{}`", final_expr);
    for i in 0..14 {
        let action = grow_pool_action(i);
        prop_assert_eq!(
            session.is_permitted_blocking(&action),
            mono.is_permitted(&action),
            "permitted set diverges on `{}` for {}",
            final_expr,
            action
        );
    }
    Ok(())
}

fn word_strategy() -> impl Strategy<Value = Vec<ix_core::Action>> {
    let action = prop_oneof![
        Just(ix_core::Action::nullary("a")),
        Just(ix_core::Action::nullary("b")),
        Just(ix_core::Action::nullary("c")),
        Just(ix_core::Action::nullary("d")),
        Just(ix_core::Action::concrete("e", [Value::int(1)])),
        Just(ix_core::Action::concrete("e", [Value::int(2)])),
        Just(ix_core::Action::nullary("s")),
    ];
    proptest::collection::vec(action, 0..8)
}

/// Drives the same word through the cross-shard [`InteractionManager`] and
/// its monolithic (single-shard) counterpart and asserts identical
/// accept/reject behaviour, word status, and log-order linearizability: the
/// merged per-shard log must equal the accepted subsequence in submission
/// order and replay verbatim on the monolithic manager.
fn assert_manager_monolith_equivalence(
    x: &Expr,
    word: &[ix_core::Action],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let sharded = InteractionManager::with_protocol(x, ProtocolVariant::Combined).unwrap();
    let mono = InteractionManager::monolithic(x, ProtocolVariant::Combined).unwrap();
    let mut accepted = Vec::new();
    for action in word {
        prop_assert_eq!(
            sharded.is_permitted(action),
            mono.is_permitted(action),
            "is_permitted disagrees on `{}` for {}",
            x,
            action
        );
        let s = sharded.try_execute(1, action).unwrap().is_some();
        let m = mono.try_execute(1, action).unwrap().is_some();
        prop_assert_eq!(s, m, "try_execute disagrees on `{}` for {}", x, action);
        if s {
            accepted.push(action.clone());
        }
        prop_assert_eq!(sharded.is_final(), mono.is_final());
    }
    prop_assert_eq!(sharded.log(), accepted, "log must linearize the accepted submissions");
    prop_assert_eq!(sharded.log(), mono.log());
    let (ss, ms) = (sharded.stats(), mono.stats());
    prop_assert_eq!(ss.confirmations, ms.confirmations);
    prop_assert_eq!(ss.denials, ms.denials);
    // The log replays on a fresh monolithic manager: it is a legal word.
    let replay = InteractionManager::monolithic(x, ProtocolVariant::Combined).unwrap();
    for action in sharded.log() {
        prop_assert!(replay.try_execute(9, &action).unwrap().is_some(), "log replay rejected");
    }
    Ok(())
}

/// Drives the same word sequentially through a [`ManagerRuntime`] session
/// and the blocking [`InteractionManager`] (both sharded, combined protocol)
/// and asserts identical per-action outcomes, an identical merged log, and
/// identical statistics — the correctness contract of the session runtime:
/// same semantics as the blocking surface, delivered through tickets.
fn assert_runtime_blocking_equivalence(
    x: &Expr,
    word: &[ix_core::Action],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let blocking = InteractionManager::with_protocol(x, ProtocolVariant::Combined).unwrap();
    let runtime = ManagerRuntime::with_protocol(x, ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    for action in word {
        prop_assert_eq!(
            session.is_permitted_blocking(action),
            blocking.is_permitted(action),
            "is_permitted disagrees on `{}` for {}",
            x,
            action
        );
        let r = session.execute_blocking(action).unwrap().is_some();
        let b = blocking.try_execute(1, action).unwrap().is_some();
        prop_assert_eq!(r, b, "execute disagrees on `{}` for {}", x, action);
    }
    prop_assert_eq!(runtime.log(), blocking.log(), "merged logs diverge on `{}`", x);
    prop_assert_eq!(runtime.is_final(), blocking.is_final());
    let (rs, bs) = (runtime.stats(), blocking.stats());
    prop_assert_eq!(rs.asks, bs.asks);
    prop_assert_eq!(rs.grants, bs.grants);
    prop_assert_eq!(rs.denials, bs.denials);
    prop_assert_eq!(rs.confirmations, bs.confirmations);
    Ok(())
}

/// The same contract for the ask/confirm protocol under the simple variant:
/// identical grant decisions, identical reservation ids, identical logs.
fn assert_runtime_blocking_ask_confirm_equivalence(
    x: &Expr,
    word: &[ix_core::Action],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let blocking = InteractionManager::with_protocol(x, ProtocolVariant::Simple).unwrap();
    let runtime = ManagerRuntime::with_protocol(x, ProtocolVariant::Simple).unwrap();
    let session = runtime.session(1);
    for action in word {
        let r = session.ask_blocking(action).unwrap();
        let b = blocking.ask(1, action).unwrap();
        prop_assert_eq!(r, b, "ask disagrees on `{}` for {}", x, action);
        if let Some(id) = r {
            // Confirm immediately, so every later decision sees the same
            // committed state on both surfaces.
            session.confirm_blocking(id).unwrap();
            blocking.confirm(id).unwrap();
        }
    }
    prop_assert_eq!(runtime.log(), blocking.log(), "merged logs diverge on `{}`", x);
    let (rs, bs) = (runtime.stats(), blocking.stats());
    prop_assert_eq!(rs.grants, bs.grants);
    prop_assert_eq!(rs.denials, bs.denials);
    prop_assert_eq!(rs.confirmations, bs.confirmations);
    Ok(())
}

/// Drives the same word through the fused copy-on-write τ̂ and the two-pass
/// reference (pure τ followed by a separate ρ), asserting *state value*
/// equality after every transition plus ψ/ϕ agreement — the correctness
/// contract of the fused rebuild.
fn assert_cow_reference_equivalence(
    x: &Expr,
    word: &[ix_core::Action],
) -> Result<(), proptest::test_runner::TestCaseError> {
    use ix_state::{init, is_final, is_valid, trans, trans_reference};
    let Ok(mut cow) = init(x) else {
        return Ok(());
    };
    let mut reference = init(x).unwrap();
    for action in word {
        cow = trans(&cow, action);
        reference = trans_reference(&reference, action);
        prop_assert_eq!(
            &cow,
            &reference,
            "fused τ̂ state diverged from ρ∘τ on `{}` at {}",
            x,
            action
        );
        prop_assert_eq!(is_valid(&cow), is_valid(&reference), "ψ diverged on `{}`", x);
        prop_assert_eq!(is_final(&cow), is_final(&reference), "ϕ diverged on `{}`", x);
        prop_assert_eq!(
            is_valid(&cow),
            !cow.is_null(),
            "optimized states must satisfy invalid ⇔ Null on `{}`",
            x
        );
    }
    Ok(())
}

/// Drives the same word through a memoizing engine and a memo-disabled
/// engine, asserting identical outcomes, states and counters — the
/// correctness contract of the transition memo.
fn assert_memo_equivalence(
    x: &Expr,
    word: &[ix_core::Action],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut memo_on = Engine::new(x).unwrap();
    let mut memo_off = Engine::new(x).unwrap();
    memo_off.set_memo_capacity(0);
    for action in word {
        prop_assert_eq!(
            memo_on.is_permitted(action),
            memo_off.is_permitted(action),
            "is_permitted diverges with the memo on `{}` for {}",
            x,
            action
        );
        // Interleave reservation-aware probes so the memoized speculative
        // chains are exercised as well.
        let reserved = [word.first().cloned().unwrap_or_else(|| action.clone())];
        prop_assert_eq!(
            memo_on.permitted_after(reserved.iter(), action),
            memo_off.permitted_after(reserved.iter(), action),
            "permitted_after diverges with the memo on `{}` for {}",
            x,
            action
        );
        prop_assert_eq!(
            memo_on.try_execute(action),
            memo_off.try_execute(action),
            "try_execute diverges with the memo on `{}` for {}",
            x,
            action
        );
        prop_assert_eq!(memo_on.state(), memo_off.state(), "states diverge on `{}`", x);
    }
    prop_assert_eq!(memo_on.accepted(), memo_off.accepted());
    prop_assert_eq!(memo_on.rejected(), memo_off.rejected());
    prop_assert_eq!(memo_on.is_final(), memo_off.is_final());
    Ok(())
}

/// Drives the same word through tiered engines and a `tier_budget = 0`
/// (pure-CoW) engine in lockstep, asserting identical verdicts, probe
/// answers, states and counters — the correctness contract of the
/// execution tier.  The tiered side is every way a table comes to hold its
/// cells: filled by the walk itself (installed at σ, then invalidated and
/// re-installed mid-word, so the state in flight re-attaches to fresh
/// tables), closed up front by `close_tier()`, starved (two states per
/// table: the walk leaves the table almost at once and the tree answers),
/// and a clone taken mid-word that fills its copy of the tables it shared.
fn assert_tier_equivalence(
    x: &Expr,
    word: &[ix_core::Action],
) -> Result<(), proptest::test_runner::TestCaseError> {
    // Memoization off on every side: each step goes through the tier (or
    // its fallback) rather than the memo.
    let engine = |budget: Option<usize>| {
        let mut engine = Engine::new(x).unwrap();
        engine.set_memo_capacity(0);
        if let Some(budget) = budget {
            engine.set_tier_budget(budget);
        }
        engine
    };
    let mut plain = engine(Some(0));
    let mut tiered =
        vec![("lazy", engine(None)), ("closed", engine(None)), ("starved", engine(Some(2)))];
    tiered[0].1.compile_tier();
    tiered[1].1.close_tier();
    for (i, action) in word.iter().enumerate() {
        if i == word.len() / 2 {
            let clone = tiered[0].1.clone();
            tiered.push(("cloned", clone));
            tiered[0].1.invalidate_tier();
            tiered[0].1.compile_tier();
        }
        let reserved = [word.first().cloned().unwrap_or_else(|| action.clone())];
        let permitted = plain.is_permitted(action);
        let after = plain.permitted_after(reserved.iter(), action);
        let executed = plain.try_execute(action);
        for (how, tiered) in &mut tiered {
            prop_assert_eq!(
                tiered.is_permitted(action),
                permitted,
                "is_permitted diverges with the {} tier on `{}` for {}",
                how,
                x,
                action
            );
            prop_assert_eq!(
                tiered.permitted_after(reserved.iter(), action),
                after,
                "permitted_after diverges with the {} tier on `{}` for {}",
                how,
                x,
                action
            );
            prop_assert_eq!(
                tiered.try_execute(action),
                executed,
                "try_execute diverges with the {} tier on `{}` for {}",
                how,
                x,
                action
            );
            prop_assert_eq!(tiered.state(), plain.state(), "{} states diverge on `{}`", how, x);
            prop_assert_eq!(tiered.is_final(), plain.is_final(), "{} ϕ diverges on `{}`", how, x);
        }
    }
    for (how, tiered) in &tiered {
        prop_assert_eq!(tiered.accepted(), plain.accepted(), "{}", how);
        prop_assert_eq!(tiered.rejected(), plain.rejected(), "{}", how);
        let stats = tiered.tier_stats();
        if *how == "starved" {
            prop_assert!(stats.states <= 2 * stats.tables, "a table grew past its budget");
        }
        let whole = stats.tables == 1 && stats.bailouts == 0;
        if *how == "closed" && whole && stats.states < ix_state::DEFAULT_TIER_BUDGET {
            prop_assert_eq!(stats.fallbacks, 0, "a closed root table fell back on `{}`", x);
        }
    }
    prop_assert_eq!(plain.tier_stats().hits, 0, "a zero-budget tier must never serve");
    Ok(())
}

/// Strategy for arbitrary actions, abstract ones included: arity 0–8, the
/// integer extremes and the whole `i64` range, symbolic values, parameters.
fn arb_action() -> impl Strategy<Value = ix_core::Action> {
    use ix_core::{Param, Term};
    let term = prop_oneof![
        Just(Term::Value(Value::int(i64::MIN))),
        Just(Term::Value(Value::int(i64::MAX))),
        (0u64..5).prop_map(|i| Term::Value(Value::int(i as i64 - 2))),
        (0u64..u64::MAX).prop_map(|bits| Term::Value(Value::int(bits as i64))),
        (0usize..3).prop_map(|i| Term::Value(Value::sym(["sono", "endo", "xray"][i]))),
        (0usize..2).prop_map(|i| Term::Param(Param::new(["p", "x"][i]))),
    ];
    (0usize..4, proptest::collection::vec(term, 0..9)).prop_map(|(name, args)| {
        ix_core::Action::new(["call", "perform", "audit", "e"][name], args)
    })
}

/// Strategy mixing quantified spines (which the compiler bails on) with
/// quantifier-free operands (which become tiles): the tier serves part of
/// the expression while the tree walk handles the rest.
fn mixed_quantified_expr() -> impl Strategy<Value = Expr> {
    let quant = prop_oneof![
        Just(parse("(some x { e(x) })*").unwrap()),
        Just(parse("all x { e(x)* }").unwrap()),
        Just(parse("(some x { e(x) - a })*").unwrap()),
    ];
    let joiner = prop_oneof![Just(true), Just(false)];
    (small_expr(), quant, joiner).prop_map(
        |(x, q, sync)| {
            if sync {
                Expr::sync(x, q)
            } else {
                Expr::par(x, q)
            }
        },
    )
}

const BOUND: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_cow_transition_matches_the_two_pass_reference(
        x in small_expr(),
        word in word_strategy(),
    ) {
        assert_cow_reference_equivalence(&x, &word)?;
    }

    #[test]
    fn fused_cow_transition_matches_reference_on_overlapping_expressions(
        x in overlapping_expr(),
        word in word_strategy(),
    ) {
        assert_cow_reference_equivalence(&x, &word)?;
    }

    #[test]
    fn memoized_engine_matches_memoless_engine(
        x in small_expr(),
        word in word_strategy(),
    ) {
        assert_memo_equivalence(&x, &word)?;
    }

    #[test]
    fn memoized_engine_matches_memoless_engine_on_shardable_expressions(
        x in shardable_expr(),
        word in word_strategy(),
    ) {
        assert_memo_equivalence(&x, &word)?;
    }

    #[test]
    fn tiered_engine_matches_pure_cow_engine(
        x in small_expr(),
        word in word_strategy(),
    ) {
        assert_tier_equivalence(&x, &word)?;
    }

    #[test]
    fn tiered_engine_matches_pure_cow_engine_on_overlapping_expressions(
        x in overlapping_expr(),
        word in word_strategy(),
    ) {
        assert_tier_equivalence(&x, &word)?;
    }

    #[test]
    fn tiered_engine_matches_pure_cow_engine_on_quantified_expressions(
        x in mixed_quantified_expr(),
        word in word_strategy(),
    ) {
        assert_tier_equivalence(&x, &word)?;
    }

    #[test]
    fn commutativity_of_symmetric_operators(x in small_expr(), y in small_expr()) {
        let u = universe();
        prop_assert!(equivalent(&Expr::or(x.clone(), y.clone()), &Expr::or(y.clone(), x.clone()), &u, BOUND));
        prop_assert!(equivalent(&Expr::and(x.clone(), y.clone()), &Expr::and(y.clone(), x.clone()), &u, BOUND));
        prop_assert!(equivalent(&Expr::par(x.clone(), y.clone()), &Expr::par(y.clone(), x.clone()), &u, BOUND));
    }

    #[test]
    fn associativity_of_core_operators(x in small_expr(), y in small_expr(), z in small_expr()) {
        let u = universe();
        let left = Expr::seq(Expr::seq(x.clone(), y.clone()), z.clone());
        let right = Expr::seq(x.clone(), Expr::seq(y.clone(), z.clone()));
        prop_assert!(equivalent(&left, &right, &u, BOUND));
        let left = Expr::or(Expr::or(x.clone(), y.clone()), z.clone());
        let right = Expr::or(x.clone(), Expr::or(y.clone(), z.clone()));
        prop_assert!(equivalent(&left, &right, &u, BOUND));
        let left = Expr::par(Expr::par(x.clone(), y.clone()), z.clone());
        let right = Expr::par(x.clone(), Expr::par(y.clone(), z.clone()));
        prop_assert!(equivalent(&left, &right, &u, BOUND));
    }

    #[test]
    fn idempotence_and_units(x in small_expr()) {
        let u = universe();
        prop_assert!(equivalent(&Expr::or(x.clone(), x.clone()), &x, &u, BOUND));
        prop_assert!(equivalent(&Expr::and(x.clone(), x.clone()), &x, &u, BOUND));
        prop_assert!(equivalent(&Expr::seq(Expr::empty(), x.clone()), &x, &u, BOUND));
        prop_assert!(equivalent(&Expr::par(x.clone(), Expr::empty()), &x, &u, BOUND));
        // The option is the disjunction with ε.
        prop_assert!(equivalent(&Expr::option(x.clone()), &Expr::or(x.clone(), Expr::empty()), &u, BOUND));
    }

    #[test]
    fn simplification_preserves_the_language(x in small_expr()) {
        let u = universe();
        let s = simplify(&x);
        prop_assert!(s.size() <= x.size(), "simplification must not grow the expression");
        prop_assert!(equivalent(&s, &x, &u, BOUND), "simplify changed {} into {}", x, s);
    }

    #[test]
    fn print_parse_round_trip(x in small_expr()) {
        let printed = x.to_string();
        let reparsed = parse(&printed).unwrap();
        prop_assert_eq!(x, reparsed, "round trip failed via {}", printed);
    }

    #[test]
    fn cross_shard_manager_matches_monolithic_on_overlapping_expressions(
        x in overlapping_expr(),
        word in word_strategy(),
    ) {
        assert_manager_monolith_equivalence(&x, &word)?;
    }

    #[test]
    fn cross_shard_manager_matches_monolithic_on_shardable_expressions(
        x in shardable_expr(),
        word in word_strategy(),
    ) {
        assert_manager_monolith_equivalence(&x, &word)?;
    }

    #[test]
    fn cross_shard_manager_matches_monolithic_on_arbitrary_expressions(
        x in small_expr(),
        word in word_strategy(),
    ) {
        assert_manager_monolith_equivalence(&x, &word)?;
    }

    #[test]
    fn runtime_matches_blocking_manager_on_overlapping_expressions(
        x in overlapping_expr(),
        word in word_strategy(),
    ) {
        assert_runtime_blocking_equivalence(&x, &word)?;
    }

    #[test]
    fn runtime_matches_blocking_manager_on_shardable_expressions(
        x in shardable_expr(),
        word in word_strategy(),
    ) {
        assert_runtime_blocking_equivalence(&x, &word)?;
    }

    #[test]
    fn runtime_ask_confirm_matches_blocking_manager(
        x in overlapping_expr(),
        word in word_strategy(),
    ) {
        assert_runtime_blocking_ask_confirm_equivalence(&x, &word)?;
    }

    #[test]
    fn batch_execution_matches_sequential_on_overlapping_expressions(
        x in overlapping_expr(),
        word in word_strategy(),
    ) {
        // try_execute_batch runs in submission order, so a mixed batch —
        // including cross-shard actions interleaved with local ones — must
        // produce exactly the outcomes of one-by-one submission.
        let batched = InteractionManager::with_protocol(&x, ProtocolVariant::Combined).unwrap();
        let sequential = InteractionManager::with_protocol(&x, ProtocolVariant::Combined).unwrap();
        let result = batched.try_execute_batch(1, &word).unwrap();
        for (i, action) in word.iter().enumerate() {
            let expected = sequential.try_execute(1, action).unwrap().is_some();
            prop_assert_eq!(
                result.accepted[i],
                expected,
                "batch outcome diverges from sequential on `{}` at {} ({})",
                x,
                i,
                action
            );
        }
        prop_assert_eq!(batched.log(), sequential.log());
    }

    #[test]
    fn repartitioned_runtime_matches_monolithic_on_the_final_expression(
        script in grow_script(),
    ) {
        assert_grown_runtime_matches_monolithic(&script)?;
    }

    #[test]
    fn packed_actions_round_trip(a in arb_action(), b in arb_action()) {
        // The in-memory codec of the commit log (`Action::pack`): any two
        // actions back to back decode to themselves with nothing left over,
        // and the skip-without-decoding length agrees.
        let mut bytes = Vec::new();
        a.pack(&mut bytes);
        prop_assert_eq!(ix_core::Action::packed_len(&bytes), Some(bytes.len()));
        b.pack(&mut bytes);
        let mut rest = &bytes[..];
        prop_assert_eq!(ix_core::Action::unpack(&mut rest), Some(a));
        prop_assert_eq!(ix_core::Action::packed_len(rest), Some(rest.len()));
        prop_assert_eq!(ix_core::Action::unpack(&mut rest), Some(b));
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn word_problem_agrees_after_simplification(x in small_expr()) {
        // The operational engine gives the same verdicts for the original and
        // the simplified expression on a few short probe words.
        let probes: Vec<Vec<ix_core::Action>> = vec![
            vec![],
            vec![ix_core::Action::nullary("a")],
            vec![ix_core::Action::nullary("a"), ix_core::Action::nullary("b")],
            vec![ix_core::Action::nullary("c"), ix_core::Action::nullary("c")],
        ];
        let s = simplify(&x);
        for w in probes {
            let original = ix_state::word_problem(&x, &w).unwrap();
            let simplified = ix_state::word_problem(&s, &w).unwrap();
            prop_assert_eq!(original, simplified, "{} vs {} on {:?}", x, s, w);
        }
    }
}

/// One step of a commit-heavy chain schedule for the lockstep cascade test.
#[derive(Clone, Copy, Debug)]
enum ChainOp {
    /// A local `call(k, p) - perform(k, p)` pair on department `k`.
    Pair(usize),
    /// `n` consecutive cross-shard audits — a commit chain the cascade
    /// decides without per-barrier rendezvous.
    Burst(usize),
    /// `call(k, p)`, an audit, `perform(k, p)`: the audit lands mid-pair
    /// and is *deterministically denied*, invalidating any downstream
    /// conditional votes mid-chain.
    MidPairAudit(usize),
    /// `call(k, p)`, an `is_permitted(audit)` probe, `perform(k, p)`, a
    /// second probe: multi-owner tasks that are not executes, queued between
    /// windows of coalesced audit chains.  The first finds department `k`
    /// mid-pair (no), the second finds it done (yes).
    Probe(usize),
    /// The same with a cross-shard `ask(audit)`, which `Combined` denies
    /// mid-pair and commits on the spot after it.
    Ask(usize),
}

/// One step of a chain schedule, as both surfaces take it.
#[derive(Clone, Debug)]
enum ChainStep {
    Execute(ix_core::Action),
    Probe,
    Ask,
}

/// Random commit-heavy chain schedules over `departments` coupled groups.
fn chain_ops(departments: usize) -> impl Strategy<Value = Vec<ChainOp>> {
    let op = prop_oneof![
        (0..departments).prop_map(ChainOp::Pair),
        (1usize..6).prop_map(ChainOp::Burst),
        (0..departments).prop_map(ChainOp::MidPairAudit),
        (0..departments).prop_map(ChainOp::Probe),
        (0..departments).prop_map(ChainOp::Ask),
    ];
    proptest::collection::vec(op, 1..20)
}

/// The lockstep contract of conditional-vote cascading: one submission
/// stream, pipelined `window` actions at a time, decided by the runtime and
/// by the blocking manager executing the same schedule synchronously.  A
/// single stream makes the queue order — and therefore, by the
/// enqueue-order = commit-order contract, every verdict — deterministic, so
/// the two surfaces must agree action by action even though the runtime
/// decides whole audit chains from promoted conditional votes while the
/// blocking manager decides barrier by barrier.  Mid-pair audits are
/// deterministically denied, forcing invalidation and recompute mid-chain
/// on the runtime.  Probes and asks of `audit` go in between the windows,
/// all of it submitted before any ticket is awaited, so a multi-owner task
/// that is not an execute sits in every owner's queue between two chains.
fn assert_cascade_lockstep_equivalence(
    departments: usize,
    ops: &[ChainOp],
    window: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let group = |k: usize| format!("((some p {{ call{k}(p) - perform{k}(p) }})* - audit)*");
    let src = (0..departments).map(group).collect::<Vec<_>>().join(" @ ");
    let x = parse(&src).unwrap();
    let call = |k: usize, p: i64| ix_core::Action::concrete(&format!("call{k}"), [Value::int(p)]);
    let perform =
        |k: usize, p: i64| ix_core::Action::concrete(&format!("perform{k}"), [Value::int(p)]);
    let audit = ix_core::Action::nullary("audit");
    let mut next_case = vec![0i64; departments];
    let mut schedule = Vec::new();
    for op in ops {
        match *op {
            ChainOp::Pair(k) => {
                let p = next_case[k];
                next_case[k] += 1;
                schedule.push(ChainStep::Execute(call(k, p)));
                schedule.push(ChainStep::Execute(perform(k, p)));
            }
            ChainOp::Burst(n) => {
                schedule.extend(std::iter::repeat_n(ChainStep::Execute(audit.clone()), n));
            }
            ChainOp::MidPairAudit(k) => {
                let p = next_case[k];
                next_case[k] += 1;
                schedule.push(ChainStep::Execute(call(k, p)));
                schedule.push(ChainStep::Execute(audit.clone()));
                schedule.push(ChainStep::Execute(perform(k, p)));
            }
            ChainOp::Probe(k) | ChainOp::Ask(k) => {
                let p = next_case[k];
                next_case[k] += 1;
                let step =
                    if matches!(op, ChainOp::Probe(_)) { ChainStep::Probe } else { ChainStep::Ask };
                schedule.push(ChainStep::Execute(call(k, p)));
                schedule.push(step.clone());
                schedule.push(ChainStep::Execute(perform(k, p)));
                schedule.push(step);
            }
        }
    }
    let blocking = InteractionManager::with_protocol(&x, ProtocolVariant::Combined).unwrap();
    let blocking_verdicts: Vec<bool> = schedule
        .iter()
        .map(|step| match step {
            ChainStep::Execute(action) => blocking.try_execute(1, action).unwrap().is_some(),
            ChainStep::Probe => blocking.is_permitted(&audit),
            ChainStep::Ask => blocking.ask(1, &audit).unwrap().is_some(),
        })
        .collect();
    let runtime = ManagerRuntime::with_protocol(&x, ProtocolVariant::Combined).unwrap();
    let session = runtime.session(1);
    let mut tickets = Vec::with_capacity(schedule.len());
    let mut pending: Vec<ix_core::Action> = Vec::new();
    for step in &schedule {
        if let ChainStep::Execute(action) = step {
            pending.push(action.clone());
            if pending.len() == window {
                tickets.extend(session.submit_batch(&std::mem::take(&mut pending)));
            }
            continue;
        }
        tickets.extend(session.submit_batch(&std::mem::take(&mut pending)));
        tickets.push(match step {
            ChainStep::Probe => session.is_permitted(&audit),
            _ => session.ask(&audit),
        });
    }
    tickets.extend(session.submit_batch(&pending));
    let verdicts: Vec<bool> = tickets
        .iter()
        .map(|ticket| {
            matches!(
                ticket.wait(),
                Completion::Executed { .. }
                    | Completion::Status { permitted: true }
                    | Completion::Granted { .. }
            )
        })
        .collect();
    prop_assert_eq!(
        &verdicts,
        &blocking_verdicts,
        "verdicts diverge from the blocking manager on {} departments",
        departments
    );
    // Pipelining may legally interleave independent locals of *different*
    // departments, so the merged logs need not match verbatim.  What the
    // enqueue-order = commit-order contract does fix is each shard's
    // projection: its own pairs and every audit, in submission order.
    for k in 0..departments {
        let project = |log: Vec<ix_core::Action>| -> Vec<String> {
            log.iter()
                .map(|a| a.to_string())
                .filter(|a| {
                    a == "audit"
                        || a.starts_with(&format!("call{k}("))
                        || a.starts_with(&format!("perform{k}("))
                })
                .collect()
        };
        prop_assert_eq!(
            project(runtime.log()),
            project(blocking.log()),
            "shard {}'s log projection diverges",
            k
        );
    }
    // And the merged log is still a legal linearization: it replays
    // verbatim on a fresh monolithic manager.
    let replay = InteractionManager::monolithic(&x, ProtocolVariant::Combined).unwrap();
    for action in runtime.log() {
        prop_assert!(
            replay.try_execute(9, &action).unwrap().is_some(),
            "runtime log replay rejected {} — not a legal word",
            action
        );
    }
    let (rs, bs) = (runtime.stats(), blocking.stats());
    prop_assert_eq!(rs.confirmations, bs.confirmations);
    prop_assert_eq!(rs.denials, bs.denials);
    prop_assert_eq!(rs.asks, bs.asks);
    prop_assert_eq!(rs.grants, bs.grants);
    // The shared log is a legal linearization: it replays verbatim on a
    // fresh monolithic manager.
    let replay = InteractionManager::monolithic(&x, ProtocolVariant::Combined).unwrap();
    for action in blocking.log() {
        prop_assert!(
            replay.try_execute(9, &action).unwrap().is_some(),
            "log replay rejected {} — not a legal word",
            action
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cascading_runtime_stays_in_lockstep_with_blocking(
        departments in 2usize..5,
        ops in chain_ops(4),
        window in prop_oneof![Just(4usize), Just(8), Just(16)],
    ) {
        // Departments beyond the generated range are simply never addressed.
        let ops: Vec<ChainOp> = ops
            .into_iter()
            .map(|op| match op {
                ChainOp::Pair(k) => ChainOp::Pair(k % departments),
                ChainOp::MidPairAudit(k) => ChainOp::MidPairAudit(k % departments),
                ChainOp::Probe(k) => ChainOp::Probe(k % departments),
                ChainOp::Ask(k) => ChainOp::Ask(k % departments),
                burst => burst,
            })
            .collect();
        assert_cascade_lockstep_equivalence(departments, &ops, window)?;
    }
}

#[test]
fn documented_laws_from_the_paper_hold() {
    let u = universe();
    // The examples the paper's Sec. 3 mentions explicitly.
    for (lhs, rhs) in [
        ("a + b", "b + a"),
        ("(a + b) + c", "a + (b + c)"),
        ("a + a", "a"),
        ("a & a", "a"),
        ("a | b", "b | a"),
    ] {
        assert!(equivalent(&parse(lhs).unwrap(), &parse(rhs).unwrap(), &u, 4), "{lhs} = {rhs}");
    }
    // Strict conjunction and coupling differ in general.
    assert!(!equivalent(&parse("a & b").unwrap(), &parse("a @ b").unwrap(), &u, 3));
}
