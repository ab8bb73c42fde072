//! The six workloads: expression, runtime options, how ops are driven, and
//! how many ops one repetition holds.  `README.md` records why each exists.

use crate::schedule::{
    self, CrossChain, Fig7Ensemble, LocalCases, LocalRings, MixedOpen, Schedule,
};
use ix_core::{parse, Expr};
use ix_manager::{FsyncPolicy, ProtocolVariant, RuntimeOptions};

/// Ops one client keeps in flight per `submit_batch` call.
pub const WINDOW: usize = 64;

/// The fixed arrival rate of `mixed_open`, ops/s: the largest of {25k, 50k,
/// 100k, 200k} at which, on the commit that added the benchmark and a
/// 2-core host, nothing failed and the generator's p99 lateness stayed
/// below 100 µs.
pub const OPEN_RATE: u64 = 50_000;

/// How a workload's ops reach the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    /// Closed loop, window 1: `ask` → wait → `confirm` → wait per op.
    AskConfirm,
    /// Closed loop: `submit_batch` of [`WINDOW`] ops, then harvest them all.
    Batch,
    /// Open loop at [`OPEN_RATE`], completions stamped in `Ticket::then`.
    Open,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Id {
    LocalSync,
    LocalPipelined,
    EnsembleFig7,
    CrossChain,
    DurableCommit,
    MixedOpen,
}

impl Id {
    pub const ALL: [Id; 6] = [
        Id::LocalSync,
        Id::LocalPipelined,
        Id::EnsembleFig7,
        Id::CrossChain,
        Id::DurableCommit,
        Id::MixedOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Id::LocalSync => "local_sync",
            Id::LocalPipelined => "local_pipelined",
            Id::EnsembleFig7 => "ensemble_fig7",
            Id::CrossChain => "cross_chain",
            Id::DurableCommit => "durable_commit",
            Id::MixedOpen => "mixed_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Id> {
        Id::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Builds the expression the way a user of the workload would: from
    /// text, or (Fig. 7) from the interaction graph.  Timed as part of
    /// set-up.
    pub fn expr(self) -> Expr {
        let parsed = |src: String| parse(&src).expect("workload expression");
        match self {
            Id::LocalSync | Id::DurableCommit => parsed(schedule::local_cases_expr()),
            Id::LocalPipelined => parsed(schedule::local_rings_expr()),
            Id::EnsembleFig7 => ix_graph::figures::fig7_expr(),
            Id::CrossChain => ix_wfms::coupled_ensemble_constraint(schedule::CHAIN_DEPARTMENTS),
            Id::MixedOpen => ix_wfms::coupled_ensemble_constraint(schedule::MIXED_DEPARTMENTS),
        }
    }

    pub fn options(self) -> RuntimeOptions {
        let defaults = RuntimeOptions::default();
        match self {
            Id::LocalSync => RuntimeOptions { variant: ProtocolVariant::Simple, ..defaults },
            Id::DurableCommit => RuntimeOptions {
                variant: ProtocolVariant::Combined,
                fsync: FsyncPolicy::Interval(64),
                ..defaults
            },
            Id::MixedOpen => RuntimeOptions {
                variant: ProtocolVariant::Combined,
                queue_limit: 4096,
                worker_threads: 1,
                ..defaults
            },
            _ => RuntimeOptions { variant: ProtocolVariant::Combined, ..defaults },
        }
    }

    pub fn drive(self) -> Drive {
        match self {
            Id::LocalSync => Drive::AskConfirm,
            Id::MixedOpen => Drive::Open,
            _ => Drive::Batch,
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Id::LocalPipelined => 2,
            _ => 1,
        }
    }

    pub fn durable(self) -> bool {
        self == Id::DurableCommit
    }

    /// Whether every shard must run from a compiled table after set-up.
    pub fn table_resident(self) -> bool {
        self == Id::LocalPipelined
    }

    pub fn schedule(self, seed: u64) -> Box<dyn Schedule> {
        match self {
            Id::LocalSync => Box::new(LocalCases::new(seed, 5, 2)),
            Id::DurableCommit => Box::new(LocalCases::new(seed, 5, 1)),
            Id::LocalPipelined => Box::new(LocalRings::new(seed)),
            Id::EnsembleFig7 => Box::new(Fig7Ensemble::new(seed)),
            Id::CrossChain => Box::new(CrossChain::new(seed)),
            Id::MixedOpen => Box::new(MixedOpen::new(seed)),
        }
    }

    /// N: ops per repetition (round trips for `local_sync`), sized so that
    /// one repetition takes 0.25-0.5 s on the commit that added the
    /// benchmark, on a 2-core host.  `mixed_open` is sized by its rate.
    pub fn ops_per_rep(self) -> usize {
        match self {
            Id::LocalSync => 6_400,
            Id::LocalPipelined => 192_000,
            Id::EnsembleFig7 => 5_600,
            Id::CrossChain => 32_000,
            Id::DurableCommit => 25_600,
            Id::MixedOpen => 0,
        }
    }
}
