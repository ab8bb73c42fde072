//! # ix-manager — the interaction manager and its protocols
//!
//! The runtime component of Sec. 7 of the paper: a central scheduler that
//! owns an interaction expression (usually derived from an interaction
//! graph) and arbitrates the execution of actions requested by interaction
//! clients — workflow engines or worklist handlers — through the
//! coordination protocol of Fig. 10, keeps subscribers informed about
//! permissibility changes (subscription protocol), and recovers from crashes
//! by replaying its persistent log.  So that it does not become a
//! bottleneck, the expression is partitioned into its sync-components
//! (`ix_core::Partition`) and each component is served as a shard of its own;
//! an action several components share is permitted iff all of them permit it.
//!
//! ```
//! use ix_core::parse;
//! use ix_core::{Action, Value};
//! use ix_manager::InteractionManager;
//!
//! let constraint = parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap();
//! let mut manager = InteractionManager::new(&constraint).unwrap();
//! let call = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
//! let reservation = manager.ask(42, &call).unwrap().expect("granted");
//! manager.confirm(reservation).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
pub mod error;
mod log;
mod lz;
pub mod manager;
pub mod runtime;
mod shard;
pub mod subscription;
pub mod ticket;
pub mod timer;

use ix_core::Action;
use std::sync::atomic::{AtomicU64, Ordering};

/// Locks a mutex, swallowing poisoning: a panicking client thread must not
/// wedge the manager (shard state is only mutated after validation).
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Moves a logical clock `delta` units forward, stopping at `u64::MAX`, and
/// returns the new time.  Both managers' `advance_time` go through it.
fn tick(clock: &AtomicU64, delta: u64) -> u64 {
    let step = |now: u64| Some(now.saturating_add(delta));
    let before = clock.fetch_update(Ordering::Relaxed, Ordering::Relaxed, step);
    before.unwrap_or_else(|now| now).saturating_add(delta)
}

/// The coordination-protocol variant used by a manager (Sec. 7 mentions
/// "several alternative coordination protocols, possessing different
/// complexity and particular advantages and disadvantages").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProtocolVariant {
    /// Ask / reply / confirm with an unbounded reservation: simple, but a
    /// crashed client leaves its shard's slot reserved forever.
    #[default]
    Simple,
    /// Ask / reply / confirm where every grant carries a lease measured in
    /// logical time units; expired reservations are rolled back.
    Leased {
        /// Number of logical time units a grant stays reserved.
        lease: u64,
    },
    /// Combined request: ask and confirm collapse into a single message (the
    /// client is trusted to execute the action after the reply).
    Combined,
}

impl ProtocolVariant {
    /// The logical expiry time of a grant made at `now`: `now + lease` under
    /// the leased protocol, saturating, else `u64::MAX`, which never expires
    /// (a combined grant commits at once and holds no reservation).
    pub(crate) fn expires_at(self, now: u64) -> u64 {
        match self {
            ProtocolVariant::Leased { lease } => now.saturating_add(lease),
            ProtocolVariant::Simple | ProtocolVariant::Combined => u64::MAX,
        }
    }
}

/// A granted, not yet confirmed reservation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Identifier returned to the client.
    pub id: u64,
    /// The reserved action.
    pub action: Action,
    /// The client holding the reservation.
    pub client: ClientId,
    /// Logical time at which the reservation was granted.
    pub granted_at: u64,
    /// Logical expiry time (`u64::MAX` for the simple protocol).
    pub expires_at: u64,
}

/// The seven protocol counters: a manager's statistics, and what one
/// write-ahead record, a shard snapshot's base or the manifest's meta base
/// contributes to them.  Recovered counters are the sum of every shard's
/// snapshot base plus its tail records plus the meta stream's base and tail.
/// The record codec writes the fields in declaration order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Number of ask requests processed.
    pub asks: u64,
    /// Number of grants (positive replies).
    pub grants: u64,
    /// Number of denials.
    pub denials: u64,
    /// Number of confirmed executions (state transitions performed).
    pub confirmations: u64,
    /// Number of reservations rolled back because their lease expired.
    pub expired_reservations: u64,
    /// Number of reservations explicitly aborted by their client.
    pub aborted_reservations: u64,
    /// Number of notifications sent to subscribers.
    pub notifications: u64,
}

impl ManagerStats {
    /// All counters zero.
    pub const ZERO: ManagerStats = ManagerStats {
        asks: 0,
        grants: 0,
        denials: 0,
        confirmations: 0,
        expired_reservations: 0,
        aborted_reservations: 0,
        notifications: 0,
    };

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &ManagerStats) {
        self.asks += other.asks;
        self.grants += other.grants;
        self.denials += other.denials;
        self.confirmations += other.confirmations;
        self.expired_reservations += other.expired_reservations;
        self.aborted_reservations += other.aborted_reservations;
        self.notifications += other.notifications;
    }

    /// What of `self` is not in `other`, field by field.
    pub(crate) fn minus(&self, other: &ManagerStats) -> ManagerStats {
        ManagerStats {
            asks: self.asks.saturating_sub(other.asks),
            grants: self.grants.saturating_sub(other.grants),
            denials: self.denials.saturating_sub(other.denials),
            confirmations: self.confirmations.saturating_sub(other.confirmations),
            expired_reservations: self
                .expired_reservations
                .saturating_sub(other.expired_reservations),
            aborted_reservations: self
                .aborted_reservations
                .saturating_sub(other.aborted_reservations),
            notifications: self.notifications.saturating_sub(other.notifications),
        }
    }
}

/// Lock-free running counters behind [`ManagerStats`].
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub(crate) asks: AtomicU64,
    pub(crate) grants: AtomicU64,
    pub(crate) denials: AtomicU64,
    pub(crate) confirmations: AtomicU64,
    pub(crate) expired_reservations: AtomicU64,
    pub(crate) aborted_reservations: AtomicU64,
    pub(crate) notifications: AtomicU64,
}

impl SharedStats {
    /// Seeds the counters with recovered totals.
    pub(crate) fn restore(&self, stats: ManagerStats) {
        self.asks.store(stats.asks, Ordering::Relaxed);
        self.grants.store(stats.grants, Ordering::Relaxed);
        self.denials.store(stats.denials, Ordering::Relaxed);
        self.confirmations.store(stats.confirmations, Ordering::Relaxed);
        self.expired_reservations.store(stats.expired_reservations, Ordering::Relaxed);
        self.aborted_reservations.store(stats.aborted_reservations, Ordering::Relaxed);
        self.notifications.store(stats.notifications, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ManagerStats {
        ManagerStats {
            asks: self.asks.load(Ordering::Relaxed),
            grants: self.grants.load(Ordering::Relaxed),
            denials: self.denials.load(Ordering::Relaxed),
            confirmations: self.confirmations.load(Ordering::Relaxed),
            expired_reservations: self.expired_reservations.load(Ordering::Relaxed),
            aborted_reservations: self.aborted_reservations.load(Ordering::Relaxed),
            notifications: self.notifications.load(Ordering::Relaxed),
        }
    }
}

pub use durability::{inspect_vault, ShardInspection, VaultInspection};
pub use error::{ManagerError, ManagerResult, SubmitError};
pub use ix_durable::{FileVault, FsyncPolicy, MemVault, Vault};
pub use manager::{BatchResult, InteractionManager};
pub use runtime::{
    CascadeStats, CheckpointReport, Completion, LoadReport, ManagerRuntime, RepartitionReport,
    RepartitionStats, RuntimeOptions, RuntimeReport, SchedStats, Session, ShardLoad,
};
pub use subscription::{ClientId, Notification, SubscriptionRegistry};
pub use ticket::{Ticket, TicketIssuer};
pub use timer::Timers;
