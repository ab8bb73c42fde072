//! The τ micro-benchmark: nanoseconds and allocations per transition step
//! across expression shape families, old-vs-new.
//!
//! Three implementations of the optimized transition τ̂ = ρ ∘ τ are timed on
//! identical schedules:
//!
//! * **legacy** — a reconstruction of the pre-copy-on-write cost model: the
//!   two-pass pipeline (pure τ, then a separate ρ walk) with every node of
//!   the successor reallocated, the way the old value-semantics state deep-
//!   cloned untouched operands on every step;
//! * **reference** — the two-pass pipeline over the shared-children state
//!   representation ([`ix_state::trans_reference`]);
//! * **cow** — the production fused copy-on-write τ̂ ([`ix_state::trans`]).
//!
//! The allocation proxy reported per step is [`ix_state::fresh_nodes`]: the
//! number of state nodes the transition actually built (the rebuilt spine),
//! next to the total logical state size — the nodes the legacy
//! implementation had to build.

use ix_core::{parse, Action, Expr, Value};
use ix_state::{
    fresh_nodes, init, optimize, step, trans, trans_reference, QuantState, Shared, State,
};
use std::time::Instant;

/// One measured configuration of the step benchmark.
#[derive(Clone, Debug)]
pub struct StepRow {
    /// Shape family (`deep`, `wide`, `quant`).
    pub family: &'static str,
    /// Expression tree depth.
    pub depth: usize,
    /// Leaf / branch count of the shape.
    pub width: usize,
    /// Number of transition steps measured.
    pub steps: usize,
    /// ns per step, legacy (deep-copy two-pass) reconstruction.
    pub legacy_ns: f64,
    /// ns per step, shared-children two-pass reference.
    pub reference_ns: f64,
    /// ns per step, fused copy-on-write τ̂.
    pub cow_ns: f64,
    /// ns per step through an [`ix_state::Engine`] with the compiled table
    /// tier (and the transition memo) enabled.
    pub tier_ns: f64,
    /// Mean state nodes allocated per fused step (rebuilt spine).
    pub fresh_per_step: f64,
    /// Mean logical state size (what legacy reallocates every step).
    pub state_size: f64,
}

impl StepRow {
    /// Fused-τ̂ speedup over the legacy reconstruction.
    pub fn speedup_vs_legacy(&self) -> f64 {
        self.legacy_ns / self.cow_ns.max(f64::MIN_POSITIVE)
    }

    /// Fused-τ̂ speedup over the shared-children two-pass reference.
    pub fn speedup_vs_reference(&self) -> f64 {
        self.reference_ns / self.cow_ns.max(f64::MIN_POSITIVE)
    }

    /// Tiered-engine speedup over the raw fused τ̂ (memo + table effects).
    pub fn speedup_tier_vs_cow(&self) -> f64 {
        self.cow_ns / self.tier_ns.max(f64::MIN_POSITIVE)
    }
}

/// A balanced ⊗-tree of the given depth over `(a_k − b_k)*` leaves: the
/// "coupled ensemble" shape whose spine the copy-on-write rebuild touches
/// while every sibling subtree is shared.  Depth d has 2^d leaves.
pub fn deep_sync_expr(depth: usize) -> Expr {
    fn build(depth: usize, next_leaf: &mut usize) -> Expr {
        if depth == 0 {
            let k = *next_leaf;
            *next_leaf += 1;
            parse(&format!("(a{k} - b{k})*")).expect("leaf parses")
        } else {
            let left = build(depth - 1, next_leaf);
            let right = build(depth - 1, next_leaf);
            Expr::sync(left, right)
        }
    }
    let mut next = 0;
    build(depth, &mut next)
}

/// The word driving the deep/wide shapes: `a_k, b_k` case pairs cycling
/// over all leaves, `steps` actions long.
pub fn leaf_word(leaves: usize, steps: usize) -> Vec<Action> {
    (0..steps)
        .map(|i| {
            let case = i / 2;
            let k = case % leaves;
            if i % 2 == 0 {
                Action::nullary(format!("a{k}").as_str())
            } else {
                Action::nullary(format!("b{k}").as_str())
            }
        })
        .collect()
}

/// A balanced ‖-tree of the given depth over `(a_k − b_k)*` leaves: the
/// alternative-set shape (ρ prunes the cross-leaf variants every step).
pub fn wide_par_expr(depth: usize) -> Expr {
    fn build(depth: usize, next_leaf: &mut usize) -> Expr {
        if depth == 0 {
            let k = *next_leaf;
            *next_leaf += 1;
            parse(&format!("(a{k} - b{k})*")).expect("leaf parses")
        } else {
            let left = build(depth - 1, next_leaf);
            let right = build(depth - 1, next_leaf);
            Expr::par(left, right)
        }
    }
    let mut next = 0;
    build(depth, &mut next)
}

/// The quantifier-branching shape: `all p { (call(p) − perform(p))* }`
/// driven with `values` distinct branch values.
pub fn quant_expr() -> Expr {
    parse("all p { (call(p) - perform(p))* }").expect("quantifier shape parses")
}

/// The word driving the quantifier shape: call/perform pairs cycling over
/// `values` distinct values.
pub fn quant_word(values: usize, steps: usize) -> Vec<Action> {
    (0..steps)
        .map(|i| {
            let case = i / 2;
            let v = Value::int((case % values) as i64 + 1);
            if i % 2 == 0 {
                Action::concrete("call", [v])
            } else {
                Action::concrete("perform", [v])
            }
        })
        .collect()
}

/// Reallocates every node of a state — the cost model of the pre-CoW value
/// semantics, where untouched subtrees were deep-cloned instead of shared.
pub fn deep_copy(state: &State) -> State {
    let copy = |s: &Shared<State>| Shared::new(deep_copy(s));
    match state {
        State::Null => State::Null,
        State::Epsilon => State::Epsilon,
        State::AtomDone => State::AtomDone,
        State::AtomFresh { action } => State::AtomFresh { action: action.clone() },
        State::Option { at_start, body } => State::Option { at_start: *at_start, body: copy(body) },
        State::Seq { left, rights, right_init } => State::Seq {
            left: copy(left),
            rights: rights.iter().map(copy).collect(),
            right_init: copy(right_init),
        },
        State::SeqIter { boundary, runs, body_init } => State::SeqIter {
            boundary: *boundary,
            runs: runs.iter().map(copy).collect(),
            body_init: copy(body_init),
        },
        State::Par { alts } => {
            State::Par { alts: alts.iter().map(|(l, r)| (copy(l), copy(r))).collect() }
        }
        State::ParIter { alts, body_init } => State::ParIter {
            alts: alts.iter().map(|t| t.iter().map(copy).collect()).collect(),
            body_init: copy(body_init),
        },
        State::Or { left, right } => State::Or { left: copy(left), right: copy(right) },
        State::And { left, right } => State::And { left: copy(left), right: copy(right) },
        State::Sync { left, right, left_alpha, right_alpha } => State::Sync {
            left: copy(left),
            right: copy(right),
            left_alpha: Shared::new(left_alpha.as_ref().clone()),
            right_alpha: Shared::new(right_alpha.as_ref().clone()),
        },
        State::SomeQ(q) => State::SomeQ(deep_copy_quant(q)),
        State::AllQ(q) => State::AllQ(deep_copy_quant(q)),
        State::SyncQ(q) => State::SyncQ(deep_copy_quant(q)),
        State::ParQ { param, body_accepts_epsilon, alts, body_init } => State::ParQ {
            param: *param,
            body_accepts_epsilon: *body_accepts_epsilon,
            alts: alts
                .iter()
                .map(|branches| branches.iter().map(|(v, s)| (*v, copy(s))).collect())
                .collect(),
            body_init: copy(body_init),
        },
        State::Mult { capacity, body_accepts_epsilon, alts, body_init } => State::Mult {
            capacity: *capacity,
            body_accepts_epsilon: *body_accepts_epsilon,
            alts: alts.iter().map(|t| t.iter().map(copy).collect()).collect(),
            body_init: copy(body_init),
        },
    }
}

fn deep_copy_quant(q: &QuantState) -> QuantState {
    QuantState {
        param: q.param,
        template: Shared::new(deep_copy(&q.template)),
        branches: q.branches.iter().map(|(v, s)| (*v, Shared::new(deep_copy(s)))).collect(),
        scope: Shared::new(q.scope.as_ref().clone()),
    }
}

/// The legacy τ̂ reconstruction: pure τ, a full reallocation of the
/// successor (the value-semantics clones of the old representation), then
/// the separate ρ pass.
fn legacy_trans(state: &State, action: &Action) -> State {
    optimize(&deep_copy(&step(state, action)))
}

fn time_tier_ns(expr: &Expr, word: &[Action]) -> f64 {
    let mut engine = ix_state::Engine::new(expr).expect("benchmark expression is closed");
    engine.close_tier();
    // Warm pass (attach map, memo, allocator), then the timed pass.
    for action in word {
        assert!(engine.try_execute(action), "benchmark word must stay permissible");
    }
    engine.reset();
    let t0 = Instant::now();
    for action in word {
        engine.try_execute(action);
    }
    t0.elapsed().as_nanos() as f64 / word.len() as f64
}

fn time_ns(expr: &Expr, word: &[Action], f: impl Fn(&State, &Action) -> State) -> f64 {
    let mut state = init(expr).expect("benchmark expression is closed");
    let t0 = Instant::now();
    for action in word {
        state = f(&state, action);
        assert!(!state.is_null(), "benchmark word must stay permissible");
    }
    t0.elapsed().as_nanos() as f64 / word.len() as f64
}

/// Measures one configuration on a fixed schedule.
pub fn measure_step(
    family: &'static str,
    depth: usize,
    width: usize,
    expr: &Expr,
    word: &[Action],
) -> StepRow {
    // Warm the symbol interner, the scoped-alphabet coverage memos, and the
    // allocator before timing.
    let _ = time_ns(expr, word, trans);
    let legacy_ns = time_ns(expr, word, legacy_trans);
    let reference_ns = time_ns(expr, word, trans_reference);
    let cow_ns = time_ns(expr, word, trans);
    let tier_ns = time_tier_ns(expr, word);
    // Untimed pass: allocation proxy and logical size.
    let mut state = init(expr).expect("benchmark expression is closed");
    let mut fresh_total = 0usize;
    let mut size_total = 0usize;
    for action in word {
        let next = trans(&state, action);
        fresh_total += fresh_nodes(&state, &next);
        size_total += next.size();
        state = next;
    }
    StepRow {
        family,
        depth,
        width,
        steps: word.len(),
        legacy_ns,
        reference_ns,
        cow_ns,
        tier_ns,
        fresh_per_step: fresh_total as f64 / word.len() as f64,
        state_size: size_total as f64 / word.len() as f64,
    }
}

/// Runs the whole step experiment: the deep ⊗ family over increasing
/// depths, the wide ‖ family, and the quantifier-branching family.
pub fn step_experiment() -> Vec<StepRow> {
    let mut rows = Vec::new();
    for depth in [2usize, 4, 6, 7] {
        let expr = deep_sync_expr(depth);
        let word = leaf_word(1 << depth, 256);
        rows.push(measure_step("deep", depth, 1 << depth, &expr, &word));
    }
    for depth in [2usize, 4, 6] {
        let expr = wide_par_expr(depth);
        let word = leaf_word(1 << depth, 256);
        rows.push(measure_step("wide", depth, 1 << depth, &expr, &word));
    }
    for values in [4usize, 16, 64] {
        let expr = quant_expr();
        let word = quant_word(values, 256);
        rows.push(measure_step("quant", 1, values, &expr, &word));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_state::{is_final, is_valid};

    #[test]
    fn shapes_accept_their_words() {
        for (expr, word) in [
            (deep_sync_expr(3), leaf_word(8, 64)),
            (wide_par_expr(3), leaf_word(8, 64)),
            (quant_expr(), quant_word(4, 64)),
        ] {
            let mut s = init(&expr).unwrap();
            for a in &word {
                s = trans(&s, a);
                assert!(is_valid(&s), "word must stay permissible on {expr}");
            }
        }
    }

    #[test]
    fn legacy_reconstruction_is_equivalent() {
        let expr = deep_sync_expr(2);
        let word = leaf_word(4, 32);
        let mut legacy = init(&expr).unwrap();
        let mut cow = init(&expr).unwrap();
        for a in &word {
            legacy = legacy_trans(&legacy, a);
            cow = trans(&cow, a);
            assert_eq!(legacy, cow, "legacy τ̂ diverged");
        }
        assert_eq!(is_final(&legacy), is_final(&cow));
    }

    #[test]
    fn measurement_reports_sane_numbers() {
        let expr = deep_sync_expr(2);
        let word = leaf_word(4, 32);
        let row = measure_step("deep", 2, 4, &expr, &word);
        assert!(row.cow_ns > 0.0 && row.legacy_ns > 0.0 && row.reference_ns > 0.0);
        assert!(row.tier_ns > 0.0);
        assert!(row.fresh_per_step >= 1.0, "every step rebuilds at least the root");
        assert!(
            row.fresh_per_step <= row.state_size,
            "the rebuilt spine cannot exceed the whole state"
        );
    }
}
