//! The shard kernel: one sync-component's state and the only code that
//! changes it.
//!
//! The paper's manager (Sec. 7) is one deterministic machine per expression:
//! permitted? → reserve → confirm or abort → notify the subscribers.  What
//! `runtime` builds around it — queues, the rendezvous, the cascade, the
//! write-ahead log, recovery — only *schedules* that machine.  So the machine
//! lives here, and nothing a scheduler is made of appears in its signatures:
//! no lock, no shared-ownership handle, no completion handle, no channel.  A
//! driver holds a [`ShardState`] exclusively while it calls in.
//!
//! * [`ShardState::vote`] is phase 1 on one owner: the reservation-aware
//!   probe, the tentative step, taking a reservation out of the table.
//! * Between the phases the owners' votes become one [`Verdict`]
//!   ([`Verdict::of`]).  What the owners share — sequence numbers,
//!   reservation ids, the clock — is the driver's, so its `conclude` supplies
//!   them.
//! * [`ShardState::apply`] is phase 2 on one owner: install the successor,
//!   log the action, refresh the subscriptions, hold the reservation, write
//!   the record.  Its [`Effects`] say what the driver still owes: which
//!   notifications to merge and deliver, and which statistics this owner's
//!   records already carry.
//! * [`ShardState::replay`] is what recovery does with one record of the
//!   shard's stream; [`ShardState::repair`] also writes the record, for what
//!   recovery completes on an owner a crash left behind.
//!
//! A verdict counts the same statistics ([`Verdict::total`]) whoever drives
//! it; the records split them so that they can be summed back: the sole or
//! primary owner's record carries what is known when it is written, every
//! other owner echoes a zero, and the driver puts the rest on the meta
//! stream.

use crate::durability::{durability_err, DurabilityHub, ShardCheckpoint, WalRecord};
use crate::error::{ManagerError, ManagerResult};
use crate::log::{LogKey, ShardLog};
use crate::subscription::{ClientId, CrossBit, Notification, SubscriptionRegistry};
use crate::{ManagerStats, ProtocolVariant, Reservation};
use ix_core::{Action, Alphabet, Component};
use ix_state::{Engine, StateRef};
use std::collections::BTreeMap;

/// One request, as a shard sees it.  The same vocabulary serves a request
/// one shard owns and one that several do.  (An execute names no client: the
/// client is not part of its semantics, exactly as in the blocking manager.)
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Execute { action: Action },
    Ask { client: ClientId, action: Action },
    Confirm { id: u64 },
    Abort { id: u64 },
    Expire { id: u64, now: u64 },
    Subscribe { client: ClientId, action: Action },
    Unsubscribe { client: ClientId, action: Action },
    Query { action: Action },
}

/// Which of an operation's owners a shard is.  It decides where the log
/// entry and the statistics go, never what is decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// The only owner: logs under its own epoch, and its records carry every
    /// count it can know.
    Sole,
    /// The lowest-numbered of several owners: logs the action, and its record
    /// carries the counts of the decision.
    Primary,
    /// Any other owner: moves its epoch and echoes a zero-count record, so
    /// its stream replays standalone.
    Echo,
}

impl Role {
    /// The role of the owner at `pos` of an ascending multi-owner set.
    pub(crate) fn at(pos: usize) -> Role {
        if pos == 0 {
            Role::Primary
        } else {
            Role::Echo
        }
    }
}

/// One owner's phase-1 result.
#[derive(Debug)]
pub(crate) struct LocalVote {
    /// Whether this owner permits the operation; for a subscribe or a query,
    /// whether the action is permitted here right now.
    pub(crate) ok: bool,
    /// The successor a yes to a committing operation prepared.
    pub(crate) prepared: Option<StateRef>,
    /// The reservation a confirm, an abort or a due expiry took out of this
    /// owner's table.
    pub(crate) removed: Option<Reservation>,
}

/// What the owners' votes add up to.
#[derive(Clone, Debug)]
pub(crate) enum Verdict {
    /// Every owner prepared a successor: install them under sequence number
    /// `order`.  `granted` tells an execute or a combined ask, which is an
    /// ask, a grant and a confirmation at once, from the confirmation of an
    /// earlier grant.
    Commit { order: u64, granted: bool },
    /// Every owner permits the ask: each holds a copy of the reservation.
    Reserve(Reservation),
    /// Some owner said no to an ask or an execute.
    Deny,
    /// No owner holds the reservation (or, for an expiry, it is not due).
    Unknown,
    /// The confirmed action is not executable any more; the reservation is
    /// gone all the same.
    Rejected(Reservation),
    /// An abort or an expiry released the reservation.
    Released(Reservation),
    /// Nothing to decide — subscribe, unsubscribe, query: whether the action
    /// is permitted on every owner.
    Status(bool),
}

/// An ask or an execute that was denied, by an owner or for want of one.
pub(crate) const DENIED: ManagerStats = ManagerStats { asks: 1, denials: 1, ..ManagerStats::ZERO };

impl Verdict {
    /// The verdict on `op` from its owners' votes: `ok` is their conjunction,
    /// `removed` the reservation any of them took out.  What the owners share
    /// comes from the driver, drawn only when the verdict needs it: `order`
    /// is the next commit sequence number, `reserve` makes the reservation of
    /// a granted ask.  (A subscription several owners share is registered by
    /// the driver, which overrides the status.)
    pub(crate) fn of(
        op: &Op,
        variant: ProtocolVariant,
        ok: bool,
        removed: Option<&Reservation>,
        order: impl FnOnce() -> u64,
        reserve: impl FnOnce(ClientId, &Action) -> Reservation,
    ) -> Verdict {
        let commit = |granted| Verdict::Commit { order: order(), granted };
        match op {
            Op::Execute { .. } | Op::Ask { .. } if !ok => Verdict::Deny,
            Op::Ask { client, action } if !matches!(variant, ProtocolVariant::Combined) => {
                Verdict::Reserve(reserve(*client, action))
            }
            Op::Execute { .. } | Op::Ask { .. } => commit(true),
            Op::Confirm { .. } | Op::Abort { .. } | Op::Expire { .. } => match removed {
                None => Verdict::Unknown,
                Some(r) if !matches!(op, Op::Confirm { .. }) => Verdict::Released(r.clone()),
                Some(r) if !ok => Verdict::Rejected(r.clone()),
                Some(_) => commit(false),
            },
            Op::Subscribe { .. } | Op::Unsubscribe { .. } | Op::Query { .. } => Verdict::Status(ok),
        }
    }

    /// Whether any owner has phase-2 work.  A driver with several owners
    /// skips the second round otherwise; a subscription on its only owner is
    /// the exception that driver knows about.
    pub(crate) fn applies(&self) -> bool {
        !matches!(self, Verdict::Deny | Verdict::Unknown | Verdict::Status(_))
    }

    /// What the operation moves the statistics by, notifications aside —
    /// the same as the blocking manager counts for it.
    pub(crate) fn total(&self, op: &Op) -> ManagerStats {
        match (self, op) {
            (Verdict::Commit { granted: true, .. }, _) => {
                ManagerStats { asks: 1, grants: 1, confirmations: 1, ..ManagerStats::ZERO }
            }
            (Verdict::Commit { .. }, _) => ManagerStats { confirmations: 1, ..ManagerStats::ZERO },
            (Verdict::Reserve(_), _) => ManagerStats { asks: 1, grants: 1, ..ManagerStats::ZERO },
            (Verdict::Deny, _) => DENIED,
            (Verdict::Released(_), Op::Abort { .. }) => {
                ManagerStats { aborted_reservations: 1, ..ManagerStats::ZERO }
            }
            (Verdict::Released(_), _) => {
                ManagerStats { expired_reservations: 1, ..ManagerStats::ZERO }
            }
            (Verdict::Unknown | Verdict::Rejected(_) | Verdict::Status(_), _) => ManagerStats::ZERO,
        }
    }
}

/// What one owner's [`ShardState::apply`] leaves for the driver.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    /// Status changes of the shard's own subscriptions.
    pub(crate) notes: Vec<Notification>,
    /// `(action, this shard, permitted now)` for every watched action: the
    /// shard's bit of subscriptions it shares with other owners, for the
    /// driver to merge once every owner applied.  A sole owner's are merged
    /// already, their notifications among `notes`.
    pub(crate) cross_bits: Vec<CrossBit>,
    /// The statistics this owner's records carry (nothing without
    /// durability: no records).  The driver counts the verdict's total once
    /// and journals only what is missing here.
    pub(crate) delta: ManagerStats,
}

impl Effects {
    /// Nothing for the driver to merge or count (the usual case for an
    /// owner of a commit nobody subscribed to, on a runtime without a vault).
    pub(crate) fn is_empty(&self) -> bool {
        self.notes.is_empty() && self.cross_bits.is_empty() && self.delta == ManagerStats::ZERO
    }

    /// What several owners left, as one: their notifications and bits in
    /// owner order (`parts` tags each with its owner's position), so that the
    /// notifications read as the blocking manager's, and the sum of what
    /// their records carry.
    pub(crate) fn merged(parts: &mut [(usize, Effects)]) -> Effects {
        parts.sort_unstable_by_key(|(pos, _)| *pos);
        let mut all = Effects::default();
        for (_, fx) in parts {
            all.notes.append(&mut fx.notes);
            all.cross_bits.append(&mut fx.cross_bits);
            all.delta.add(&fx.delta);
        }
        all
    }
}

/// One shard's state.  Whoever serves the shard holds it exclusively, so
/// there is no lock inside.
///
/// The fields can be read crate-wide — recovery, repartitioning and the
/// control tasks inspect them — but apart from handing whole tables over
/// (a snapshot at recovery, a migration) only this module writes them.
pub(crate) struct ShardState {
    pub(crate) id: usize,
    pub(crate) engine: Engine,
    pub(crate) reservations: BTreeMap<u64, Reservation>,
    pub(crate) subscriptions: SubscriptionRegistry,
    /// The shard's confirmed actions, which also carries the log-key epoch
    /// (sequence of the last cross-shard commit applied on this shard).
    pub(crate) log: ShardLog,
    /// Sum of the statistics of every record the shard's stream ever
    /// carried, truncated ones included.  Snapshotted with the shard;
    /// recovery sums the bases and the tails.
    pub(crate) stat_base: ManagerStats,
    /// The component's alphabet, whose entries index the subscriptions (an
    /// action is filed under the entry covering it).
    alphabet: Alphabet,
    /// Where the records go (`None` = durability off).  The shard's stream
    /// has this one writer.
    wal: Option<DurabilityHub>,
}

impl ShardState {
    /// A shard in its expression's initial state, with nothing reserved,
    /// subscribed or logged.
    pub(crate) fn new(
        id: usize,
        engine: Engine,
        alphabet: Alphabet,
        wal: Option<DurabilityHub>,
    ) -> ShardState {
        ShardState {
            id,
            engine,
            reservations: BTreeMap::new(),
            subscriptions: SubscriptionRegistry::new(),
            log: ShardLog::new(),
            stat_base: ManagerStats::ZERO,
            alphabet,
            wal,
        }
    }

    /// A shard of `component` in its expression's initial state.
    pub(crate) fn of(
        id: usize,
        component: &Component,
        wal: Option<DurabilityHub>,
    ) -> ManagerResult<ShardState> {
        let engine = Engine::new(&component.expr).map_err(ManagerError::State)?;
        Ok(ShardState::new(id, engine, component.alphabet.clone(), wal))
    }

    fn reserved(&self) -> impl Iterator<Item = &Action> {
        self.reservations.values().map(|r| &r.action)
    }

    /// The reservation-aware probe and the tentative step from `base`
    /// (`None` = the committed state): `Some` is a yes carrying the prepared
    /// successor.  With no reservation open the probe would compute exactly
    /// the transition the step computes, so it is skipped and the state is
    /// walked once.
    fn step(&self, base: Option<&StateRef>, action: &Action) -> Option<StateRef> {
        if !self.reservations.is_empty()
            && !self.engine.permitted_after_from(base, self.reserved(), action)
        {
            return None;
        }
        // The probe can pass while the step is impossible right now (the
        // action only becomes executable after a reservation confirms):
        // that is a no, exactly as in the blocking manager.
        self.engine.prepare_from(base, action)
    }

    /// An execute's vote from the speculative `base` of a coalesced run,
    /// with the fingerprint of the reservation table it holds for — the
    /// witness a conditional vote carries.
    pub(crate) fn probe(
        &self,
        base: Option<&StateRef>,
        action: &Action,
    ) -> (Option<StateRef>, u64) {
        (self.step(base, action), self.reservation_fingerprint())
    }

    /// Fingerprint of the reservation table as it is.
    pub(crate) fn reservation_fingerprint(&self) -> u64 {
        Engine::reservation_fingerprint(self.reserved())
    }

    /// Phase 1 on this owner.  The only thing it changes is the reservation
    /// table: a confirm, an abort and a due expiry take their reservation
    /// out, whatever the other owners say.
    pub(crate) fn vote(&mut self, op: &Op, variant: ProtocolVariant) -> LocalVote {
        let mut vote = LocalVote { ok: true, prepared: None, removed: None };
        match op {
            Op::Ask { action, .. } if !matches!(variant, ProtocolVariant::Combined) => {
                vote.ok = self.engine.permitted_after(self.reserved(), action);
            }
            // The combined protocol commits on the spot: an ask is an execute.
            Op::Execute { action } | Op::Ask { action, .. } => {
                vote.prepared = self.step(None, action);
                vote.ok = vote.prepared.is_some();
            }
            Op::Confirm { id } => {
                vote.removed = self.reservations.remove(id);
                vote.prepared = vote.removed.as_ref().and_then(|r| self.engine.prepare(&r.action));
                vote.ok = vote.prepared.is_some();
            }
            Op::Abort { id } => vote.removed = self.reservations.remove(id),
            Op::Expire { id, now } => {
                if self.reservations.get(id).is_some_and(|r| r.expires_at <= *now) {
                    vote.removed = self.reservations.remove(id);
                }
            }
            Op::Subscribe { action, .. } | Op::Query { action } => {
                vote.ok = self.engine.is_permitted(action);
            }
            Op::Unsubscribe { .. } => {}
        }
        vote
    }

    /// Phase 2 on this owner: what `verdict` means here, given what this
    /// owner's `vote` prepared and removed.  `watched` are the actions whose
    /// subscriptions this shard shares with other owners; a commit reports
    /// the shard's bit for each.  With one owner there is nobody to wait for:
    /// `merge` (the driver's, over the registry the owners share) turns the
    /// bits into notifications on the spot, so that the commit record counts
    /// them.
    pub(crate) fn apply(
        &mut self,
        op: &Op,
        vote: LocalVote,
        verdict: &Verdict,
        role: Role,
        watched: &[Action],
        merge: impl FnOnce(&[CrossBit]) -> Vec<Notification>,
    ) -> Effects {
        let mut fx = Effects::default();
        // What this owner's records carry of the verdict's count (worked out
        // only if a record is written).
        let share = || if role == Role::Echo { ManagerStats::ZERO } else { verdict.total(op) };
        if let Some(gone) = &vote.removed {
            // The release goes first: it precedes the commit it may have
            // confirmed.  It carries a count only where it is the whole
            // story — an abort or an expiry on the sole owner.
            self.journal(&mut fx, || WalRecord::Release {
                id: gone.id,
                delta: match (verdict, role) {
                    (Verdict::Released(_), Role::Sole) => share(),
                    _ => ManagerStats::ZERO,
                },
            });
        }
        match (verdict, op) {
            (Verdict::Commit { order, .. }, _) => {
                let action = match op {
                    Op::Execute { action } | Op::Ask { action, .. } => action,
                    _ => &vote.removed.as_ref().expect("a confirm commits what it removed").action,
                };
                self.engine
                    .commit_prepared(vote.prepared.expect("every owner of a commit prepared"));
                let engine = &self.engine;
                fx.notes = self.subscriptions.refresh(|a| engine.is_permitted(a));
                if !watched.is_empty() {
                    fx.cross_bits = watched
                        .iter()
                        .map(|a| (a.clone(), self.id, engine.is_permitted(a)))
                        .collect();
                    if role == Role::Sole {
                        fx.notes.extend(merge(&std::mem::take(&mut fx.cross_bits)));
                    }
                }
                let key = match role {
                    Role::Sole => self.log.push_single(*order, action),
                    Role::Primary => self.log.push_cross(*order, action),
                    Role::Echo => {
                        self.log.set_epoch(*order);
                        (*order, 0, 0)
                    }
                };
                // With several owners the merged count is known only after
                // the last one applied; the driver journals it.
                let notified = if role == Role::Sole { fx.notes.len() as u64 } else { 0 };
                self.journal(&mut fx, || WalRecord::Commit {
                    key,
                    action: action.clone(),
                    is_primary: role != Role::Echo,
                    delta: ManagerStats { notifications: notified, ..share() },
                });
            }
            (Verdict::Reserve(reservation), _) => {
                self.journal(&mut fx, || WalRecord::Reserve {
                    reservation: reservation.clone(),
                    delta: share(),
                });
                self.reservations.insert(reservation.id, reservation.clone());
            }
            // A subscription several owners share lives with the driver.
            (Verdict::Status(permitted), Op::Subscribe { client, action })
                if role == Role::Sole =>
            {
                let key = self.alphabet.covering(action).unwrap_or(action).clone();
                let permitted =
                    self.subscriptions.subscribe(*client, action.clone(), key, *permitted);
                self.journal(&mut fx, || WalRecord::Subscribe {
                    client: *client,
                    action: action.clone(),
                    permitted,
                });
            }
            (Verdict::Status(_), Op::Unsubscribe { client, action }) if role == Role::Sole => {
                self.subscriptions.unsubscribe(*client, action);
                self.journal(&mut fx, || WalRecord::Unsubscribe {
                    client: *client,
                    action: action.clone(),
                });
            }
            _ => {}
        }
        fx
    }

    /// With durability on, writes a record and counts the statistics it
    /// carries; without, there is no record and nothing is built.
    fn journal(&mut self, fx: &mut Effects, record: impl FnOnce() -> WalRecord) {
        if let Some(hub) = &self.wal {
            let record = record();
            let delta = record.delta();
            fx.delta.add(&delta);
            self.stat_base.add(&delta);
            hub.log_shard(self.id, &record);
        }
    }

    /// Redoes one record of this shard's stream.  Nothing is written and
    /// nobody is notified: the record is in the stream already, and the
    /// notifications of the run that wrote it were never durable
    /// ([`ShardState::settle_subscriptions`] brings the caches up to date
    /// once the tail is through).
    pub(crate) fn replay(&mut self, record: WalRecord) -> ManagerResult<()> {
        self.stat_base.add(&record.delta());
        match record {
            WalRecord::Commit { key, action, is_primary, .. } => {
                // A cross-shard commit is an epoch boundary.  Epochs only
                // grow: a commit recovery completes late must not take the
                // shard back behind one it applied since.
                let epoch = self.log.epoch().max(key.0);
                if !self.redo(&action) {
                    return Err(durability_err(format!(
                        "commit {} does not replay on shard {}: {action}",
                        key.0, self.id
                    )));
                }
                if is_primary {
                    self.log.push_keyed(key, &action);
                }
                if key.1 == 0 {
                    self.log.set_epoch(epoch);
                }
            }
            WalRecord::Reserve { reservation, .. } => {
                self.reservations.insert(reservation.id, reservation);
            }
            WalRecord::Release { id, .. } => {
                self.reservations.remove(&id);
            }
            WalRecord::Subscribe { client, action, permitted } => {
                let key = self.alphabet.covering(&action).unwrap_or(&action).clone();
                self.subscriptions.subscribe(client, action, key, permitted);
            }
            WalRecord::Unsubscribe { client, action } => {
                self.subscriptions.unsubscribe(client, &action);
            }
            WalRecord::Event { .. } | WalRecord::Clock { .. } => {
                return Err(durability_err(format!(
                    "meta-stream record in the stream of shard {}",
                    self.id
                )));
            }
        }
        Ok(())
    }

    /// Redoes one entry of the history a repartition hands this new shard:
    /// another shard logged it, so this one steps and moves into its epoch,
    /// behind which its own commits sort.  False if the step is rejected.
    pub(crate) fn replay_covered(&mut self, key: LogKey, action: &Action) -> bool {
        let stepped = self.redo(action);
        self.log.set_epoch(self.log.epoch().max(key.0));
        stepped
    }

    /// Steps the engine through an action the history already decided.
    fn redo(&mut self, action: &Action) -> bool {
        let Some(next) = self.engine.prepare(action) else { return false };
        self.engine.commit_prepared(next);
        true
    }

    /// [`ShardState::replay`] of a record the stream does *not* hold — a
    /// commit, a grant or a release another owner's stream proves and a
    /// crash kept from this one — followed by writing it, so that the
    /// streams are self-contained again for the next crash.
    pub(crate) fn repair(&mut self, record: WalRecord) -> ManagerResult<()> {
        self.replay(record.clone())?;
        if let Some(hub) = &self.wal {
            hub.log_shard(self.id, &record);
        }
        Ok(())
    }

    /// Recomputes every cached subscription status against the engine and
    /// drops the notifications.  A replayed `Subscribe` carries the cache as
    /// of registration and a snapshot as of its cut; the run that crashed
    /// kept them current commit by commit.
    pub(crate) fn settle_subscriptions(&mut self) {
        let engine = &self.engine;
        let _ = self.subscriptions.refresh(|a| engine.is_permitted(a));
    }

    /// The checkpoint capture of this shard: the CoW state handle, the
    /// reservation and subscription tables, and the stream offset the
    /// snapshot covers — taken between two operations, so state and offset
    /// are exactly consistent.  The engine's tier tables are not captured:
    /// they are a cache of τ̂, and a recovered engine refills them.
    pub(crate) fn capture(&self) -> Option<ShardCheckpoint> {
        let hub = self.wal.as_ref()?;
        Some(ShardCheckpoint {
            shard: self.id,
            covered: hub.vault().stream_len(DurabilityHub::shard_stream(self.id)),
            epoch: self.log.epoch(),
            accepted: self.engine.accepted(),
            rejected: self.engine.rejected(),
            state: self.engine.state_handle().clone(),
            log: self.log.clone(),
            reservations: self.reservations.values().cloned().collect(),
            subscriptions: self.subscriptions.export(),
            stat_base: self.stat_base,
        })
    }

    /// Installs a decoded snapshot of this shard: the engine at the
    /// snapshot's state and counters, and its reservations, subscriptions,
    /// log and statistics base.  The log tail past `snapshot.covered` is
    /// the caller's to replay.
    pub(crate) fn restore(&mut self, snapshot: ShardCheckpoint) -> ManagerResult<()> {
        let (accepted, rejected) = (snapshot.accepted, snapshot.rejected);
        self.engine = Engine::restore(self.engine.expr(), snapshot.state, accepted, rejected)
            .map_err(ManagerError::State)?;
        self.reservations = snapshot.reservations.into_iter().map(|r| (r.id, r)).collect();
        self.subscriptions = SubscriptionRegistry::import(snapshot.subscriptions);
        self.log = snapshot.log;
        self.stat_base = snapshot.stat_base;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogKey;
    use crate::manager::InteractionManager;
    use crate::subscription::SubscriptionRow;
    use ix_core::{parse, Expr, Partition};
    use ix_durable::{MemVault, Vault};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Two components coupled by `s`: shard 0 owns `a`, `s`, `b` and shard 1
    /// owns `c`, `s`, `d`.
    fn coupled() -> Expr {
        parse("(a - s - b)* @ (c - s - d)*").unwrap()
    }

    fn act(name: &str) -> Action {
        Action::nullary(name)
    }

    /// A driver without threads, queues or locks: every owner votes, the
    /// votes become a verdict, every owner applies — one operation after the
    /// other, in a loop.
    struct Bench {
        variant: ProtocolVariant,
        shards: Vec<ShardState>,
        alphabets: Vec<Alphabet>,
        /// The owners of every open reservation.
        index: BTreeMap<u64, Vec<usize>>,
        order: u64,
        reservations: u64,
        clock: u64,
    }

    /// What one operation came to.
    struct Outcome {
        verdict: Verdict,
        sole: bool,
        /// The statistics the operation counts, notifications included.
        total: ManagerStats,
        /// What each owner's records carry of them.
        carried: Vec<(Role, ManagerStats)>,
    }

    impl Bench {
        fn new(expr: &Expr, variant: ProtocolVariant, wal: Option<DurabilityHub>) -> Bench {
            let partition = Partition::of(expr);
            let shards = fresh_shards(&partition, wal);
            let alphabets = partition.components().iter().map(|c| c.alphabet.clone()).collect();
            Bench {
                variant,
                shards,
                alphabets,
                index: BTreeMap::new(),
                order: 0,
                reservations: 0,
                clock: 0,
            }
        }

        /// `None` if no shard owns the operation (a driver resolves those
        /// before any shard sees them).
        fn run(&mut self, op: &Op) -> Option<Outcome> {
            let owners: Vec<usize> = match op {
                // A stale index entry: the owner it names finds nothing.
                Op::Confirm { id } | Op::Abort { id } | Op::Expire { id, .. } => {
                    self.index.get(id).cloned().unwrap_or_else(|| vec![0])
                }
                Op::Execute { action }
                | Op::Ask { action, .. }
                | Op::Subscribe { action, .. }
                | Op::Unsubscribe { action, .. }
                | Op::Query { action } => {
                    (0..self.shards.len()).filter(|i| self.alphabets[*i].covers(action)).collect()
                }
            };
            if owners.is_empty() {
                return None;
            }
            let votes: Vec<LocalVote> =
                owners.iter().map(|&o| self.shards[o].vote(op, self.variant)).collect();
            let ok = votes.iter().all(|v| v.ok);
            let removed = votes.iter().find_map(|v| v.removed.clone());
            let (variant, clock) = (self.variant, self.clock);
            let verdict = Verdict::of(
                op,
                variant,
                ok,
                removed.as_ref(),
                || {
                    self.order += 1;
                    self.order
                },
                |client, action| {
                    self.reservations += 1;
                    Reservation {
                        id: self.reservations,
                        action: action.clone(),
                        client,
                        granted_at: clock,
                        expires_at: variant.expires_at(clock),
                    }
                },
            );
            match (&verdict, op) {
                (Verdict::Reserve(r), _) => {
                    self.index.insert(r.id, owners.clone());
                }
                (_, Op::Confirm { id } | Op::Abort { id })
                | (Verdict::Released(_), Op::Expire { id, .. }) => {
                    self.index.remove(id);
                }
                _ => {}
            }
            let sole = owners.len() == 1;
            let mut total = verdict.total(op);
            let mut carried = Vec::new();
            // One owner always applies (a subscription is its to register);
            // several meet again only if there is something to apply.
            if sole || verdict.applies() {
                for (pos, (&owner, vote)) in owners.iter().zip(votes).enumerate() {
                    let role = if sole { Role::Sole } else { Role::at(pos) };
                    let fx = self.shards[owner].apply(op, vote, &verdict, role, &[], |_| vec![]);
                    total.notifications += fx.notes.len() as u64;
                    carried.push((role, fx.delta));
                }
            }
            Some(Outcome { verdict, sole, total, carried })
        }
    }

    fn fresh_shards(partition: &Partition, wal: Option<DurabilityHub>) -> Vec<ShardState> {
        partition
            .components()
            .iter()
            .enumerate()
            .map(|(id, c)| {
                let engine = Engine::new(&c.expr).unwrap();
                ShardState::new(id, engine, c.alphabet.clone(), wal.clone())
            })
            .collect()
    }

    /// The bench and the blocking manager, one operation at a time.
    struct Lockstep {
        bench: Bench,
        manager: InteractionManager,
    }

    impl Lockstep {
        fn new(variant: ProtocolVariant) -> Lockstep {
            let manager = InteractionManager::with_protocol(&coupled(), variant).unwrap();
            assert_eq!(manager.shard_count(), 2);
            // With a vault, so that there are records to carry the counts.
            let hub = DurabilityHub::new(Arc::new(MemVault::new()));
            Lockstep { bench: Bench::new(&coupled(), variant, Some(hub)), manager }
        }

        /// Runs `op` on the bench and its counterpart on the manager: both
        /// count the same, and the owners' records carry all of it but what a
        /// driver journals — a denial, and what only the last of several
        /// owners knows.
        fn step(&mut self, op: Op, counterpart: impl FnOnce(&InteractionManager)) -> Verdict {
            let before = self.manager.stats();
            counterpart(&self.manager);
            let out = self.bench.run(&op).expect("an owned operation");
            assert_eq!(out.total, self.manager.stats().minus(&before), "{op:?}");
            let mut carried = ManagerStats::ZERO;
            for (role, delta) in &out.carried {
                assert!(
                    *role != Role::Echo || *delta == ManagerStats::ZERO,
                    "{op:?}: echo {delta:?}"
                );
                carried.add(delta);
            }
            let left_to_the_driver = match (&out.verdict, out.sole) {
                (Verdict::Deny, _) => DENIED,
                (_, true) => ManagerStats::ZERO,
                (Verdict::Released(_), false) => out.total,
                (_, false) => {
                    ManagerStats { notifications: out.total.notifications, ..ManagerStats::ZERO }
                }
            };
            assert_eq!(out.total.minus(&carried), left_to_the_driver, "{op:?}");
            out.verdict
        }

        /// A registration or a probe: the status both report.
        fn status(
            &mut self,
            op: Op,
            counterpart: impl FnOnce(&InteractionManager) -> bool,
        ) -> bool {
            let mut reply = None;
            let verdict = self.step(op, |m| reply = Some(counterpart(m)));
            assert!(matches!(verdict, Verdict::Status(p) if Some(p) == reply), "{verdict:?}");
            reply.unwrap()
        }

        fn ask(&mut self, name: &str) -> Option<u64> {
            let mut reply = None;
            let op = Op::Ask { client: 1, action: act(name) };
            let verdict = self.step(op, |m| reply = m.ask(1, &act(name)).unwrap());
            let granted = match verdict {
                Verdict::Reserve(r) => Some(r.id),
                Verdict::Commit { granted: true, .. } => Some(0),
                Verdict::Deny => None,
                other => panic!("ask {name}: {other:?}"),
            };
            assert_eq!(granted, reply, "ask {name}");
            granted
        }

        fn execute(&mut self, name: &str) -> bool {
            let mut reply = false;
            let op = Op::Execute { action: act(name) };
            let verdict =
                self.step(op, |m| reply = m.try_execute(1, &act(name)).unwrap().is_some());
            assert_eq!(matches!(verdict, Verdict::Commit { granted: true, .. }), reply, "{name}");
            reply
        }

        fn confirm(&mut self, id: u64) -> Verdict {
            let mut reply = None;
            let verdict = self.step(Op::Confirm { id }, |m| reply = Some(m.confirm(id).is_ok()));
            assert_eq!(matches!(verdict, Verdict::Commit { granted: false, .. }), reply.unwrap());
            verdict
        }

        fn abort(&mut self, id: u64) -> Verdict {
            let mut reply = None;
            let verdict = self.step(Op::Abort { id }, |m| reply = Some(m.abort(id).is_ok()));
            assert_eq!(matches!(verdict, Verdict::Released(_)), reply.unwrap());
            verdict
        }

        /// Lets `delta` time units pass and runs the expiry of `id`.
        fn expire(&mut self, id: u64, delta: u64) -> Verdict {
            self.bench.clock += delta;
            let now = self.bench.clock;
            let mut expired = 0;
            let verdict =
                self.step(Op::Expire { id, now }, |m| expired = m.advance_time(delta).len());
            assert_eq!(matches!(verdict, Verdict::Released(_)), expired == 1);
            verdict
        }
    }

    /// Every operation, on its only owner and on two, counts what the
    /// blocking manager counts for it, and the records split the count as
    /// [`Lockstep::step`] says.
    fn counts_like_the_manager(variant: ProtocolVariant) {
        let mut t = Lockstep::new(variant);
        let reserving = !matches!(variant, ProtocolVariant::Combined);
        let leased = matches!(variant, ProtocolVariant::Leased { .. });

        // Registrations and probes count nothing.  A subscription two shards
        // share only collects their votes; its registry is the driver's.
        let (a, b, s) = (act("a"), act("b"), act("s"));
        assert!(!t.status(Op::Subscribe { client: 9, action: b.clone() }, |m| m.subscribe(9, &b)));
        let shared = t.step(Op::Subscribe { client: 9, action: s.clone() }, |_| ());
        assert!(matches!(shared, Verdict::Status(false)));
        assert!(t.status(Op::Query { action: a.clone() }, |m| m.is_permitted(&a)));
        assert!(!t.status(Op::Query { action: s.clone() }, |m| m.is_permitted(&s)));

        // One owner: grant, denial, confirmation.
        let a = t.ask("a").expect("a is permitted");
        assert_eq!(t.ask("a"), None);
        let c = t.ask("c").expect("c is permitted");
        if reserving {
            t.confirm(a);
            t.confirm(c);
        }
        // Two owners: grant, abort, expiry, confirmation — which tells the
        // subscriber that `b` is permitted now.
        let mut s = t.ask("s").expect("s is permitted on both");
        if reserving {
            assert!(matches!(t.abort(s), Verdict::Released(_)));
            s = t.ask("s").unwrap();
            let expired = matches!(t.expire(s, 11), Verdict::Released(_));
            assert_eq!(expired, leased);
            if expired {
                s = t.ask("s").unwrap();
            }
            t.confirm(s);
        }
        assert!(t.execute("b"));
        assert!(!t.execute("b"));
        assert!(t.execute("d"));

        if reserving {
            // Confirmed out of order, `s` is not executable: rejected on
            // both owners, its reservation gone all the same.
            let (a, c, s) = (t.ask("a").unwrap(), t.ask("c").unwrap(), t.ask("s").unwrap());
            assert!(matches!(t.confirm(s), Verdict::Rejected(_)));
            t.confirm(a);
            t.confirm(c);
        } else {
            assert!(t.execute("a") && t.execute("c"));
        }
        assert!(t.execute("s"));
        if reserving {
            // One owner: abort, expiry.
            let b = t.ask("b").unwrap();
            assert!(matches!(t.abort(b), Verdict::Released(_)));
            let b = t.ask("b").unwrap();
            assert_eq!(matches!(t.expire(b, 11), Verdict::Released(_)), leased);
        }
        // Nobody holds reservation 999 (the manager fails it off its index).
        assert!(matches!(t.step(Op::Confirm { id: 999 }, |_| ()), Verdict::Unknown));
        assert!(matches!(t.step(Op::Abort { id: 999 }, |_| ()), Verdict::Unknown));
        let unwatch = Op::Unsubscribe { client: 9, action: act("b") };
        t.step(unwatch, |m| m.unsubscribe(9, &act("b")));
        assert!(t.bench.shards[0].subscriptions.is_empty());
    }

    #[test]
    fn every_operation_counts_what_the_blocking_manager_counts() {
        counts_like_the_manager(ProtocolVariant::Simple);
        counts_like_the_manager(ProtocolVariant::Leased { lease: 10 });
        counts_like_the_manager(ProtocolVariant::Combined);
    }

    /// Everything recovery promises to bring back of a shard.
    type Observed = (
        StateRef,
        (u64, u64),
        Vec<Reservation>,
        Vec<SubscriptionRow>,
        (u64, Vec<(LogKey, Action)>),
        ManagerStats,
    );

    fn observe(st: &ShardState) -> Observed {
        (
            st.engine.state_handle().clone(),
            (st.engine.accepted(), st.engine.rejected()),
            st.reservations.values().cloned().collect(),
            st.subscriptions.export(),
            (st.log.epoch(), st.log.iter().collect()),
            st.stat_base,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The recovery contract, record by record: a fresh shard fed only
        /// what a shard journaled ends where that shard is.
        #[test]
        fn a_twin_replaying_the_records_ends_where_the_shard_is(
            variant in 0usize..3,
            script in proptest::collection::vec((0usize..10, 0usize..6, 0u64..5), 0..120),
        ) {
            let variant = [
                ProtocolVariant::Simple,
                ProtocolVariant::Leased { lease: 4 },
                ProtocolVariant::Combined,
            ][variant];
            let vault: Arc<dyn Vault> = Arc::new(MemVault::new());
            let mut bench = Bench::new(&coupled(), variant, Some(DurabilityHub::new(vault.clone())));
            for (kind, which, pick) in script {
                // `zz` is in no alphabet.
                let action = act(["a", "s", "b", "c", "d", "zz"][which]);
                let id = bench.index.keys().nth(pick as usize).copied().unwrap_or(999);
                let op = match kind {
                    0..=2 => Op::Execute { action },
                    3 => Op::Ask { client: pick, action },
                    4 => Op::Confirm { id },
                    5 => Op::Abort { id },
                    6 => {
                        bench.clock += pick;
                        Op::Expire { id, now: bench.clock }
                    }
                    7 => Op::Subscribe { client: pick, action },
                    8 => Op::Unsubscribe { client: pick, action },
                    _ => Op::Query { action },
                };
                bench.run(&op);
            }
            let twins = fresh_shards(&Partition::of(&coupled()), None);
            for (shard, mut twin) in bench.shards.iter().zip(twins) {
                for (_, payload) in vault.read_from(DurabilityHub::shard_stream(shard.id), 0) {
                    twin.replay(WalRecord::decode(&payload).unwrap()).unwrap();
                }
                twin.settle_subscriptions();
                prop_assert_eq!(observe(&twin), observe(shard));
            }
        }
    }

    /// With no reservation open an execute walks the state once: the probe,
    /// which would compute the same transition, is skipped.  With one open
    /// it costs the probe (the reserved action, then the asked one) and the
    /// step.
    #[test]
    fn an_execute_without_open_reservations_walks_the_state_once() {
        // One shard holds two rings, compiled: every transition is a table
        // hit or a counted fallback, never an uncounted list hit.
        let expr = parse("(a - b)* @ (c - d)*").unwrap();
        let mut engine = Engine::new(&expr).unwrap();
        assert!(engine.compile_tier().tables > 0);
        let mut st = ShardState::new(0, engine, expr.alphabet(), None);
        let walks = |st: &ShardState| {
            let tier = st.engine.tier_stats();
            tier.hits + tier.fallbacks
        };
        let execute = |st: &mut ShardState, name: &str| {
            let before = walks(st);
            let op = Op::Execute { action: act(name) };
            let vote = st.vote(&op, ProtocolVariant::Combined);
            assert!(vote.ok, "{name}");
            let cost = walks(st) - before;
            let verdict = Verdict::Commit { order: 1, granted: true };
            st.apply(&op, vote, &verdict, Role::Sole, &[], |_| vec![]);
            assert_eq!(walks(st) - before, cost, "installing {name} walks nothing");
            cost
        };
        assert_eq!(execute(&mut st, "a"), 1);
        let held =
            Reservation { id: 1, action: act("c"), client: 1, granted_at: 0, expires_at: u64::MAX };
        st.replay(WalRecord::Reserve { reservation: held, delta: ManagerStats::ZERO }).unwrap();
        assert_eq!(execute(&mut st, "b"), 3);
        st.replay(WalRecord::Release { id: 1, delta: ManagerStats::ZERO }).unwrap();
        assert_eq!(execute(&mut st, "a"), 1);
    }
}
