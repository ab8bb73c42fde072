//! # ix-manager — the interaction manager and its protocols
//!
//! The runtime component of Sec. 7 of the paper: a central scheduler that
//! owns an interaction expression (usually derived from an interaction
//! graph) and arbitrates the execution of actions requested by interaction
//! clients — workflow engines or worklist handlers — through the
//! coordination protocol of Fig. 10, keeps subscribers informed about
//! permissibility changes (subscription protocol), recovers from crashes by
//! replaying its persistent log, and can be federated to avoid becoming a
//! bottleneck.
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
pub mod multi;
pub mod protocol;
pub mod queue;
pub mod runtime;
pub mod subscription;
pub mod ticket;
pub mod timer;

pub use durability::{
    inspect_queue, inspect_vault, QueueEntry, QueueInspection, ShardInspection, StatDelta,
    VaultInspection,
};
pub use error::{ManagerError, ManagerResult, SubmitError};
pub use ix_durable::{FileVault, FsyncPolicy, MemVault, Vault};
pub use manager::{BatchResult, InteractionManager, ManagerStats, ProtocolVariant, Reservation};
pub use multi::ManagerFederation;
pub use protocol::{ClientHandle, ManagerServer, Reply, Request};
pub use queue::{DurableQueue, QueueBackend};
pub use runtime::{
    CascadeStats, CheckpointReport, ClockMode, Completion, LoadReport, ManagerRuntime,
    RepartitionReport, RepartitionStats, RuntimeOptions, RuntimeReport, SchedStats, Session,
    ShardLoad, ShedPolicy,
};
pub use subscription::{ClientId, Notification, SubscriptionRegistry};
pub use ticket::{Ticket, TicketIssuer};
pub use timer::{TimerId, TimerWheel};
