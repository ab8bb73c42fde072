//! `ix_core` and `ix_state` measured on their own: the calls the runtime
//! makes into them, timed from outside with the workload's own expression
//! and op list.  (The blocking manager is timed in `harness::drive_blocking`,
//! the runtime's hops in `harness::run_traced`.)

use crate::schedule::{interleaved, Kind, Pass, Verdict};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Id, WINDOW};
use ix_core::{parse, Action, Expr, Partition};
use ix_state::Engine;
use std::hint::black_box;
use std::time::Instant;

fn micros(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

pub struct CoreLayer {
    pub parse_us: f64,
    pub partition_us: f64,
}

pub fn measure_core(id: Id, tracer: &Tracer) -> CoreLayer {
    let expr = id.expr();
    let source = expr.to_string();
    let parse_us: Vec<f64> = (0..21)
        .map(|_| {
            let _span = tracer.scope("core.parse", 0);
            let started = Instant::now();
            black_box(parse(black_box(&source)).expect("the printed expression parses"));
            micros(started)
        })
        .collect();
    let partition_us: Vec<f64> = (0..21)
        .map(|_| {
            let _span = tracer.scope("core.partition", 0);
            let started = Instant::now();
            black_box(Partition::of(black_box(&expr)));
            micros(started)
        })
        .collect();
    CoreLayer { parse_us: median(&parse_us), partition_us: median(&partition_us) }
}

pub struct StateLayer {
    pub engine_new_us: f64,
    pub compile_tier_us: f64,
    pub table_states: f64,
    /// Engine time per op of the repetition, tier as the engine chooses.
    pub step_ns: f64,
    /// The same with `tier_budget` 0: copy-on-write τ̂ only.
    pub step_cow_ns: f64,
    /// `is_permitted` per op, at the states the schedule passes through.
    pub probe_ns: f64,
    pub tier_hit_share: f64,
    /// State nodes over all shards after the warm-up pass / the repetition.
    pub size_warm: f64,
    pub size_end: f64,
}

/// One op of a replay: the action, whether it commits, and the shard
/// engines that own it.
struct Step<'a> {
    action: &'a Action,
    commits: bool,
    owners: Vec<usize>,
}

fn steps<'a>(partition: &Partition, passes: &'a [Pass]) -> Vec<Step<'a>> {
    interleaved(passes, WINDOW)
        .into_iter()
        .map(|(client, i)| {
            let pass = &passes[client];
            let action = &pass.actions[i];
            Step {
                action,
                commits: pass.kinds[i] == Kind::Execute && pass.expect[i] == Verdict::Commit,
                owners: (0..partition.len())
                    .filter(|&s| partition.components()[s].alphabet.covers(action))
                    .collect(),
            }
        })
        .collect()
}

/// What the shards do for one op: a committing op steps every owner; any
/// other op only asks.
fn apply(engines: &mut [Engine], step: &Step<'_>) {
    for &s in &step.owners {
        if step.commits {
            assert!(engines[s].try_execute(step.action), "replay: {} must commit", step.action);
        } else {
            black_box(engines[s].is_permitted(step.action));
        }
    }
}

fn engines(partition: &Partition, tier_budget: Option<usize>) -> Vec<Engine> {
    partition
        .components()
        .iter()
        .map(|c| {
            let mut engine = Engine::new(&c.expr).expect("shard engine");
            if let Some(budget) = tier_budget {
                engine.set_tier_budget(budget);
            }
            engine
        })
        .collect()
}

fn state_size(engines: &[Engine]) -> f64 {
    engines.iter().map(|e| e.metrics().size).sum::<usize>() as f64
}

pub fn measure_state(
    id: Id,
    expr: &Expr,
    warm: &[Pass],
    rep: &[Pass],
    tracer: &Tracer,
) -> StateLayer {
    let partition = Partition::of(expr);
    let engine_new_us: Vec<f64> = (0..11)
        .map(|_| {
            let _span = tracer.scope("state.engine_new", 0);
            let started = Instant::now();
            black_box(engines(&partition, None));
            micros(started)
        })
        .collect();
    let mut table_states = 0;
    let compile_tier_us: Vec<f64> = (0..5)
        .map(|_| {
            let mut fresh = engines(&partition, None);
            let _span = tracer.scope("state.compile_tier", 0);
            let started = Instant::now();
            table_states = fresh.iter_mut().map(|e| e.compile_tier().states).sum();
            micros(started)
        })
        .collect();

    let (warm_steps, rep_steps) = (steps(&partition, warm), steps(&partition, rep));
    let replay = |tier_budget: Option<usize>, name: &'static str| {
        let mut engines = engines(&partition, tier_budget);
        if id.table_resident() && tier_budget.is_none() {
            engines.iter_mut().for_each(|e| {
                e.compile_tier();
            });
        }
        warm_steps.iter().for_each(|s| apply(&mut engines, s));
        let size_warm = state_size(&engines);
        let _span = tracer.scope(name, 0);
        let started = Instant::now();
        rep_steps.iter().for_each(|s| apply(&mut engines, s));
        let ns = started.elapsed().as_nanos() as f64;
        (ns / rep_steps.len().max(1) as f64, size_warm, engines)
    };
    let (step_ns, size_warm, tiered) = replay(None, "state.step");
    let (step_cow_ns, _, _) = replay(Some(0), "state.step_cow");
    let (hits, fallbacks) = tiered.iter().fold((0, 0), |(h, f), e| {
        let t = e.tier_stats();
        (h + t.hits, f + t.fallbacks)
    });

    // Probes: each window's ops are asked at the state the window starts
    // from (timed), then the window is applied (untimed).
    let mut engines = engines(&partition, None);
    warm_steps.iter().for_each(|s| apply(&mut engines, s));
    let mut probe_total = 0u128;
    for window in rep_steps.chunks(WINDOW) {
        let started = Instant::now();
        for step in window {
            for &s in &step.owners {
                black_box(engines[s].is_permitted(step.action));
            }
        }
        probe_total += started.elapsed().as_nanos();
        window.iter().for_each(|s| apply(&mut engines, s));
    }

    StateLayer {
        engine_new_us: median(&engine_new_us),
        compile_tier_us: median(&compile_tier_us),
        table_states: table_states as f64,
        step_ns,
        step_cow_ns,
        probe_ns: probe_total as f64 / rep_steps.len().max(1) as f64,
        tier_hit_share: if hits + fallbacks == 0 {
            0.0
        } else {
            hits as f64 / (hits + fallbacks) as f64
        },
        size_warm,
        size_end: state_size(&tiered),
    }
}
