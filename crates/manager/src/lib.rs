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

/// Locks a mutex, swallowing poisoning: a panicking client thread must not
/// wedge the manager (shard state is only mutated after validation).
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

pub use durability::{inspect_vault, ShardInspection, StatDelta, VaultInspection};
pub use error::{ManagerError, ManagerResult, SubmitError};
pub use ix_durable::{FileVault, FsyncPolicy, MemVault, Vault};
pub use manager::{BatchResult, InteractionManager, ManagerStats, ProtocolVariant, Reservation};
pub use runtime::{
    CascadeStats, CheckpointReport, Completion, LoadReport, ManagerRuntime, RepartitionReport,
    RepartitionStats, RuntimeOptions, RuntimeReport, SchedStats, Session, ShardLoad,
};
pub use subscription::{ClientId, Notification, SubscriptionRegistry};
pub use ticket::{Ticket, TicketIssuer};
pub use timer::Timers;
