//! The tiered-execution benchmark: table-resident expressions stepped
//! through the compiled DFA tier vs the pure copy-on-write engine.
//!
//! Two regimes are measured on identical schedules, engine vs engine:
//!
//! * **resident** — expressions whose reachable τ̂-graph fits the tier
//!   budget, driven with working sets larger than the transition memo
//!   (256 entries), so the pure-CoW side pays a real tree rebuild per step
//!   while the tier answers from a dense `state × symbol` array.  The CI
//!   gate demands ≥ 10× here.  Each resident workload is measured twice:
//!   with the table closed up front (`Engine::close_tier`, every cell of
//!   the reachable graph) and as the engine runs by default, the table
//!   filled by the walk itself — that row's `fills` against
//!   `closed_cells` is what on-demand filling did not have to compute.
//! * **fallback** — quantified expressions, which get no table, and a
//!   starved budget, where the walk leaves the full table after a few
//!   steps.  The tier must cost (almost) nothing when it cannot help: the
//!   CI gate demands ≤ 1.05× of the plain engine.
//!
//! Verdicts are asserted identical between the two engines on every
//! schedule before anything is timed.

use ix_core::{parse, Action, Expr};
use ix_state::{Engine, DEFAULT_TIER_BUDGET};
use std::time::Instant;

/// One measured configuration of the tiered-execution benchmark.
#[derive(Clone, Debug)]
pub struct CompileRow {
    /// Workload name (`protocol-ring`, `mutex-product`, their `-lazy`
    /// twins, `quantified`, `over-budget`).
    pub scenario: &'static str,
    /// Whether the workload is table-resident (≥ 10× gate) or a fallback
    /// shape (≤ 1.05× gate).
    pub resident: bool,
    /// Number of committed steps per timed trial.
    pub steps: usize,
    /// Tier state budget of the tiered engine.
    pub tier_budget: usize,
    /// Tables installed.
    pub tables: usize,
    /// Total interned states across those tables after the timed trials.
    pub table_states: usize,
    /// One-time cost before the first step, in microseconds: installing the
    /// tier, and closing it where the row does.
    pub compile_micros: f64,
    /// Cells computed by the end of the timed trials.
    pub fills: u64,
    /// Cells of the closed tables (`fills` of the closed twin; equal to
    /// `fills` on a closed row).
    pub closed_cells: u64,
    /// ns per step of the pure-CoW engine (`tier_budget = 0`).
    pub cow_ns: f64,
    /// ns per step of the tier-compiled engine.
    pub tier_ns: f64,
    /// Table hits during the timed tiered trials.
    pub tier_hits: u64,
    /// Tree fallbacks during the timed tiered trials.
    pub tier_fallbacks: u64,
}

impl CompileRow {
    /// Tier speedup over the pure-CoW engine.
    pub fn speedup(&self) -> f64 {
        self.cow_ns / self.tier_ns.max(f64::MIN_POSITIVE)
    }

    /// Tier cost relative to the pure-CoW engine (the fallback gate).
    pub fn overhead(&self) -> f64 {
        self.tier_ns / self.cow_ns.max(f64::MIN_POSITIVE)
    }
}

/// A sequential protocol ring of `len` stations: `(s0 - s1 - … - s{len-1})*`.
/// With `len > 256` the per-cycle working set overflows the transition memo,
/// so the pure-CoW engine recomputes every step while the ring is one
/// `len + 1`-state table for the tier.
pub fn ring_expr(len: usize) -> Expr {
    let src: Vec<String> = (0..len).map(|k| format!("s{k}")).collect();
    parse(&format!("({})*", src.join(" - "))).expect("ring parses")
}

/// The word driving the ring: stations in protocol order.
pub fn ring_word(len: usize, steps: usize) -> Vec<Action> {
    (0..steps).map(|i| Action::nullary(format!("s{}", i % len).as_str())).collect()
}

/// A product of `loops` independent mutex loops, `(a0 − b0)* ‖ … `: the
/// reachable product space (3^loops interned states) is the classic
/// state-explosion shape that still fits a generous table budget.
pub fn product_expr(loops: usize) -> Expr {
    let mut expr = parse("(a0 - b0)*").expect("loop parses");
    for k in 1..loops {
        expr = Expr::par(expr, parse(&format!("(a{k} - b{k})*")).expect("loop parses"));
    }
    expr
}

/// A deterministic xorshift-driven random walk over the product space: each
/// step toggles one loop (acquire if idle, release if held), so consecutive
/// visits to the same `(state, action)` pair are hundreds of steps apart and
/// the transition memo thrashes.
pub fn product_word(loops: usize, steps: usize) -> Vec<Action> {
    let mut held = vec![false; loops];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    (0..steps)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % loops as u64) as usize;
            let name = if held[k] { format!("b{k}") } else { format!("a{k}") };
            held[k] = !held[k];
            Action::nullary(name.as_str())
        })
        .collect()
}

/// The quantified fallback shape (shared with the step benchmark).
pub fn tier_fallback_expr() -> Expr {
    parse("all p { (call(p) - perform(p))* }").expect("quantifier shape parses")
}

fn time_engine_ns(engine: &mut Engine, word: &[Action]) -> f64 {
    engine.reset();
    let t0 = Instant::now();
    for action in word {
        assert!(engine.try_execute(action), "benchmark word must stay permissible");
    }
    t0.elapsed().as_nanos() as f64 / word.len() as f64
}

/// Measures one workload: a tiered engine — its tables closed up front if
/// `close`, else filled by the walk — against a `tier_budget = 0` engine on
/// the same word, interleaved min-of-`trials` timing, after a lockstep
/// verdict-equality pass.
pub fn measure_compile(
    scenario: &'static str,
    resident: bool,
    close: bool,
    expr: &Expr,
    word: &[Action],
    tier_budget: usize,
    trials: usize,
) -> CompileRow {
    let mut plain = Engine::new(expr).expect("benchmark expression is closed");
    plain.set_tier_budget(0);
    let mut tiered = Engine::new(expr).expect("benchmark expression is closed");
    tiered.set_tier_budget(tier_budget);
    let t0 = Instant::now();
    let installed = if close { tiered.close_tier() } else { tiered.compile_tier() };
    let compile_micros = t0.elapsed().as_nanos() as f64 / 1000.0;

    // Byte-identical verdicts before any timing.
    for action in word {
        assert_eq!(
            tiered.try_execute(action),
            plain.try_execute(action),
            "tiered and pure-CoW engines diverge on {scenario} at {action}"
        );
        debug_assert_eq!(tiered.state(), plain.state(), "states diverge on {scenario}");
    }

    // Interleaved min-of-trials, alternating which side goes first each
    // round, so scheduler noise and thermal drift hit both sides alike.
    let mut cow_ns = f64::INFINITY;
    let mut tier_ns = f64::INFINITY;
    let _ = time_engine_ns(&mut plain, word);
    let _ = time_engine_ns(&mut tiered, word);
    let hits_before = tiered.tier_stats().hits;
    let fallbacks_before = tiered.tier_stats().fallbacks;
    for t in 0..trials {
        if t % 2 == 0 {
            cow_ns = cow_ns.min(time_engine_ns(&mut plain, word));
            tier_ns = tier_ns.min(time_engine_ns(&mut tiered, word));
        } else {
            tier_ns = tier_ns.min(time_engine_ns(&mut tiered, word));
            cow_ns = cow_ns.min(time_engine_ns(&mut plain, word));
        }
    }
    let stats = tiered.tier_stats();
    CompileRow {
        scenario,
        resident,
        steps: word.len(),
        tier_budget,
        tables: installed.tables,
        table_states: stats.states,
        compile_micros,
        fills: stats.fills,
        closed_cells: stats.fills,
        cow_ns,
        tier_ns,
        tier_hits: stats.hits - hits_before,
        tier_fallbacks: stats.fallbacks - fallbacks_before,
    }
}

/// Runs the whole tiered-execution experiment: two table-resident workloads
/// with memo-defeating working sets, each closed and lazy, and two fallback
/// workloads the tier cannot help.
pub fn compile_experiment() -> Vec<CompileRow> {
    let trials = 5;
    let mut rows = Vec::new();
    let mut resident =
        |closed: &'static str, lazy: &'static str, expr: &Expr, word: &[Action], budget| {
            let closed = measure_compile(closed, true, true, expr, word, budget, trials);
            let lazy = measure_compile(lazy, true, false, expr, word, budget, trials);
            rows.push(CompileRow { closed_cells: closed.fills, ..lazy });
            rows.push(closed);
        };
    // Resident: a 280-station protocol ring (281-state table; the 280-pair
    // working set overflows the 256-entry memo on the pure-CoW side).
    resident(
        "protocol-ring",
        "protocol-ring-lazy",
        &ring_expr(280),
        &ring_word(280, 280 * 16),
        2048,
    );
    // Resident: the product of 8 mutex loops (3^8 = 6561 interned states)
    // under a deterministic random walk that defeats the memo.
    resident("mutex-product", "mutex-product-lazy", &product_expr(8), &product_word(8, 8192), 8192);
    // Fallback: a quantified spine — not eligible structurally, the engine
    // must keep pure-CoW speed.  The fallback rows compare two
    // architecturally identical step paths, so their gate (<= 1.05x) is all
    // noise floor: give them more trials than the resident rows.
    let fallback_trials = 11;
    rows.push(measure_compile(
        "quantified",
        false,
        false,
        &tier_fallback_expr(),
        &crate::stepbench::quant_word(16, 4096),
        DEFAULT_TIER_BUDGET,
        fallback_trials,
    ));
    // Fallback: the same ring under a starved budget — the table is full
    // after 63 steps, the walk leaves it, and every later step of a lap
    // walks the tree through the tier's miss path.
    rows.push(measure_compile(
        "over-budget",
        false,
        false,
        &ring_expr(280),
        &ring_word(280, 280 * 8),
        64,
        fallback_trials,
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_shapes_compile_to_root_tables() {
        let mut engine = Engine::new(&ring_expr(40)).unwrap();
        engine.set_tier_budget(256);
        let stats = engine.compile_tier();
        assert_eq!((stats.tables, stats.states), (1, 1), "the ring is one tile, at σ: {stats:?}");
        assert_eq!(engine.close_tier().states, 41);
        let mut engine = Engine::new(&product_expr(4)).unwrap();
        engine.set_tier_budget(256);
        let stats = engine.close_tier();
        assert_eq!(stats.tables, 1, "the product is one tile: {stats:?}");
        assert_eq!(stats.states, 81, "3^4 interned product states");
        assert_eq!(stats.fills, 81 * 8, "every cell of the closed table, once");
    }

    #[test]
    fn workload_words_commit_on_both_engines() {
        for (expr, word) in [
            (ring_expr(12), ring_word(12, 120)),
            (product_expr(3), product_word(3, 200)),
            (tier_fallback_expr(), crate::stepbench::quant_word(4, 64)),
        ] {
            let lazy = measure_compile("smoke", true, false, &expr, &word, 512, 1);
            let closed = measure_compile("smoke", true, true, &expr, &word, 512, 1);
            assert!(lazy.cow_ns > 0.0 && lazy.tier_ns > 0.0);
            assert!(lazy.fills <= closed.fills, "the walk fills a part of the closed table");
            assert_eq!((lazy.tier_fallbacks, closed.tier_fallbacks), (0, 0));
        }
    }

    #[test]
    fn ring_working_set_defeats_the_memo_but_not_the_table() {
        let expr = ring_expr(280);
        let word = ring_word(280, 560);
        let mut tiered = Engine::new(&expr).unwrap();
        tiered.set_tier_budget(2048);
        let stats = tiered.compile_tier();
        assert!(stats.tables >= 1, "the ring must be resident at budget 2048: {stats:?}");
        for action in &word {
            assert!(tiered.try_execute(action));
        }
        let stats = tiered.tier_stats();
        assert_eq!(stats.fallbacks, 0, "every ring step must be a table hit: {stats:?}");
        assert!(stats.hits >= word.len() as u64);
    }
}
