//! The interaction manager — the central scheduler of Sec. 7, sharded with
//! cross-shard two-phase commit.
//!
//! The manager owns the interaction expression (usually obtained from an
//! interaction graph) and its operational state, and arbitrates the execution
//! of actions requested by interaction clients (workflow engines or worklist
//! handlers) through the *coordination protocol* of Fig. 10:
//!
//! 1. the client **asks** for permission to execute an action,
//! 2. the manager **replies** yes or no based on a tentative state
//!    transition,
//! 3. on yes, the client executes the action,
//! 4. the client **confirms** the execution,
//! 5. the manager performs the corresponding state transition.
//!
//! Between steps 2 and 5 the granted action is *reserved*: the simple
//! protocol keeps the reservation until the confirmation arrives, which is
//! exactly the vulnerability to client crashes the paper discusses; the
//! leased protocol variant bounds the reservation with a logical-time lease,
//! and the combined variant collapses ask + confirm into one round trip.
//! The subscription protocol keeps clients informed about permissibility
//! changes of the actions they subscribed to.
//!
//! ## Sharding and cross-shard actions
//!
//! The paper's design funnels every action through one critical region per
//! expression.  This implementation instead partitions the expression into
//! its fine-grained sync-components (`ix_core::Partition`) and keeps one
//! *shard* — engine, reservation table, subscription registry — per
//! component, each behind its own lock.  Component alphabets may overlap, so
//! an action is owned by a *set* of shards, which the partition names:
//!
//! * a **single-owner** action locks and commits on one shard — ask/confirm
//!   cycles touching different components never contend;
//! * a **multi-owner** action (a coupled `audit`/`checkpoint` step shared by
//!   several otherwise-independent workflows) runs as a **two-phase
//!   commit**: the owning shards are locked in ascending shard-id order
//!   (deadlock-free: every multi-shard acquisition follows the same total
//!   order), every owner votes via a tentative [`Engine::prepare`] step, and
//!   the prepared successors are installed only if all owners voted yes —
//!   otherwise everything is dropped and no shard changes state.  Each
//!   committed action is stamped with one global log sequence number while
//!   all owner locks are held, so the merged log is a linearization;
//! * an action owned by **no** shard is outside the expression's alphabet
//!   and is denied with exactly the status and statistics the monolithic
//!   manager reports (no divergent "unrouted" path).
//!
//! Reservations of multi-owner actions are replicated into every owning
//! shard's table (each shard's conflict probe accounts for them) and are
//! created, confirmed, aborted, and expired under all owner locks, so the
//! owners never disagree about an outstanding grant.
//! [`InteractionManager::try_execute_batch`] groups a batch by owner set and
//! commits every group under a single lock acquisition.  All entry points
//! take `&self`: clients share the manager through an `Arc` without an
//! external mutex.  Expressions that do not decompose run as a single
//! shard, which reproduces the paper's central scheduler exactly.

use crate::durability::merged_log;
use crate::error::{ManagerError, ManagerResult};
use crate::log::ShardLog;
use crate::subscription::{
    ClientId, CrossBit, CrossSubscriptions, Notification, SubscriptionRegistry,
};
use crate::timer::Timers;
use crate::{lock, ManagerStats, ProtocolVariant, Reservation, SharedStats};
use ix_core::{Action, Component, Expr, Partition};
use ix_state::Engine;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The result of [`InteractionManager::try_execute_batch`].
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Per-action outcome, aligned with the input slice: true if the action
    /// was granted and committed.
    pub accepted: Vec<bool>,
    /// Status-change notifications produced by the committed transitions.
    pub notifications: Vec<Notification>,
}

/// One shard: the engine, reservation table, subscription registry and log
/// segment of a single sync-component, guarded by one lock.
#[derive(Debug)]
struct Shard {
    engine: Engine,
    reservations: BTreeMap<u64, Reservation>,
    subscriptions: SubscriptionRegistry,
    /// This shard's confirmed actions, stamped with the manager-wide commit
    /// sequence number.  A multi-owner action is logged once, in its
    /// *primary* (lowest-id) owner's segment.  Keeping the log per shard
    /// keeps the commit hot path free of any cross-shard lock;
    /// [`InteractionManager::log`] merges the segments by sequence number on
    /// read.
    log: ShardLog,
}

impl Shard {
    /// Permissibility check that also accounts for outstanding reservations:
    /// a granted-but-unconfirmed action must stay executable, so a new grant
    /// is only given if the component permits the new action *after* all
    /// reserved actions as well.  Reservations of a multi-owner action are
    /// replicated into every owning shard's table, so each owner's probe
    /// replays them on its own engine; reservations of shards that do not
    /// own the probed action cannot conflict with it — their component never
    /// observes it — which is why this probe never needs to leave the shard.
    fn permitted_considering_reservations(&self, action: &Action) -> bool {
        // Simulate the reserved actions first (in grant order), then the
        // requested one — without cloning the engine (hot path: this probe
        // runs once per owner per ask/execute).
        self.engine.permitted_after(self.reservations.values().map(|r| &r.action), action)
    }
}

/// The owning shards of one action, locked in ascending shard-id order —
/// the unit the two-phase commit operates on.
type OwnerGuards<'a> = Vec<(usize, MutexGuard<'a, Shard>)>;

/// The interaction manager.  All entry points take `&self`; share it through
/// an `Arc` to serve concurrent clients.
#[derive(Debug)]
pub struct InteractionManager {
    expr: Expr,
    variant: ProtocolVariant,
    partition: Partition,
    shards: Vec<Mutex<Shard>>,
    /// Which shards hold which outstanding reservation (advisory index; the
    /// shards' own tables are authoritative, see `confirm`).
    reservation_index: Mutex<HashMap<u64, Vec<usize>>>,
    /// One timer per leased reservation, firing its id.
    timers: Mutex<Timers<u64>>,
    /// Subscriptions to cross-shard (multi-owner) actions.
    cross_subscriptions: Mutex<CrossSubscriptions>,
    /// Subscriptions to actions no shard owns: such actions are never
    /// permitted and never change status, but the registrations are kept so
    /// that subscribe/unsubscribe stay symmetric.
    orphan_subscriptions: Mutex<SubscriptionRegistry>,
    /// Commit sequence numbers stamping the per-shard log segments.
    log_seq: AtomicU64,
    next_reservation: AtomicU64,
    clock: AtomicU64,
    stats: SharedStats,
}

impl InteractionManager {
    /// Creates a manager enforcing the given interaction expression with the
    /// simple protocol.
    pub fn new(expr: &Expr) -> ManagerResult<InteractionManager> {
        InteractionManager::with_protocol(expr, ProtocolVariant::Simple)
    }

    /// Creates a manager with an explicit protocol variant.  The expression
    /// is partitioned into its fine-grained sync-components; each component
    /// becomes an independently locked shard, and actions shared between
    /// components are executed with a cross-shard two-phase commit.
    pub fn with_protocol(
        expr: &Expr,
        variant: ProtocolVariant,
    ) -> ManagerResult<InteractionManager> {
        InteractionManager::from_partition(expr, variant, Partition::of(expr))
    }

    /// Creates a manager that keeps the whole expression in a single shard —
    /// the paper's central scheduler with one critical region.  Exists as
    /// the single-shard reference the lockstep properties of
    /// `tests/properties.rs` check the sharded layouts against;
    /// [`InteractionManager::with_protocol`] is strictly better whenever the
    /// expression decomposes.
    pub fn monolithic(expr: &Expr, variant: ProtocolVariant) -> ManagerResult<InteractionManager> {
        let whole = Component { expr: expr.clone(), alphabet: expr.alphabet() };
        let partition = Partition::from_components(vec![whole], 0);
        InteractionManager::from_partition(expr, variant, partition)
    }

    fn from_partition(
        expr: &Expr,
        variant: ProtocolVariant,
        partition: Partition,
    ) -> ManagerResult<InteractionManager> {
        let mut shards = Vec::with_capacity(partition.len());
        for component in partition.components() {
            let engine = Engine::new(&component.expr).map_err(ManagerError::State)?;
            shards.push(Mutex::new(Shard {
                engine,
                reservations: BTreeMap::new(),
                subscriptions: SubscriptionRegistry::new(),
                log: ShardLog::new(),
            }));
        }
        Ok(InteractionManager {
            expr: expr.clone(),
            variant,
            partition,
            shards,
            reservation_index: Mutex::new(HashMap::new()),
            timers: Mutex::new(Timers::new(0)),
            cross_subscriptions: Mutex::new(CrossSubscriptions::default()),
            orphan_subscriptions: Mutex::new(SubscriptionRegistry::new()),
            log_seq: AtomicU64::new(0),
            next_reservation: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            stats: SharedStats::default(),
        })
    }

    /// The protocol variant in use.
    pub fn protocol(&self) -> ProtocolVariant {
        self.variant
    }

    /// The expression the manager enforces.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Number of independently locked shards (1 when the expression does not
    /// decompose).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The primary (lowest-id) shard an action is routed to, if any.
    pub fn shard_of(&self, action: &Action) -> Option<usize> {
        self.partition.route(action)
    }

    /// All shards owning an action, ascending.  Empty for actions outside
    /// every shard alphabet; more than one entry marks a cross-shard action.
    pub fn owners_of(&self, action: &Action) -> Vec<usize> {
        self.partition.owners_of(action)
    }

    /// True if the action is owned by more than one shard (executed via
    /// two-phase commit).
    pub fn is_cross_shard(&self, action: &Action) -> bool {
        self.partition.is_shared(action)
    }

    /// Statistics so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats.snapshot()
    }

    /// The log of confirmed actions (the manager's recovery source), in
    /// commit order: the per-shard segments merged by sequence number.  Every
    /// committed action appears exactly once — a cross-shard action is
    /// logged only in its primary owner's segment.
    pub fn log(&self) -> Vec<Action> {
        // Each lock is held for a snapshot of its segment (shared chunks),
        // not for decoding it.
        let segments: Vec<ShardLog> = self.shards.iter().map(|s| lock(s).log.clone()).collect();
        merged_log(None, segments.iter().enumerate()).expect("without a vault nothing is released")
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Locks the owning shards in ascending shard-id order — the canonical
    /// total order every multi-shard acquisition follows, which is what
    /// makes the two-phase commit deadlock-free.
    fn lock_owners(&self, owners: &[usize]) -> OwnerGuards<'_> {
        owners.iter().map(|&i| (i, lock(&self.shards[i]))).collect()
    }

    /// Advances logical time, expiring leased reservations that ran out.
    /// A multi-owner reservation is removed from *all* of its owners under
    /// their locks, so the owners never disagree about an outstanding grant.
    /// Returns the rolled-back reservations, in deadline order.
    pub fn advance_time(&self, delta: u64) -> Vec<Reservation> {
        let now = crate::tick(&self.clock, delta);
        let due = lock(&self.timers).advance(now);
        let mut out = Vec::new();
        for id in due {
            // A reservation confirmed or aborted since its grant is gone.
            let Some(owners) = lock(&self.reservation_index).get(&id).cloned() else { continue };
            let mut guards = self.lock_owners(&owners);
            let mut reservation = None;
            for (_, shard) in guards.iter_mut() {
                if let Some(r) = shard.reservations.remove(&id) {
                    reservation = Some(r);
                }
            }
            lock(&self.reservation_index).remove(&id);
            if let Some(r) = reservation {
                self.stats.expired_reservations.fetch_add(1, Ordering::Relaxed);
                out.push(r);
            }
        }
        out
    }

    /// Step 1/2 of the coordination protocol: a client asks for permission to
    /// execute an action; the manager replies with a reservation id on grant.
    ///
    /// An action is granted iff every owning shard permits it in its current
    /// state and no conflicting reservation is outstanding (a reservation
    /// conflicts if executing both reserved actions in either order is not
    /// permitted).  Only the owning shards are locked — in ascending id
    /// order — and the reservation is replicated into each of their tables.
    /// Actions outside every shard alphabet are denied, exactly as the
    /// monolithic scheduler denies them.
    ///
    /// Under the `Combined` variant the grant commits immediately and the
    /// reply carries no reservation to confirm; subscription notifications
    /// produced by that commit are not returned through this entry point —
    /// use [`InteractionManager::try_execute`] when they matter.
    pub fn ask(&self, client: ClientId, action: &Action) -> ManagerResult<Option<u64>> {
        self.stats.asks.fetch_add(1, Ordering::Relaxed);
        if !action.is_concrete() {
            return Err(ManagerError::NonConcreteAction { action: action.to_string() });
        }
        let owners = self.partition.owners_of(action);
        if owners.is_empty() {
            self.stats.denials.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let mut guards = self.lock_owners(&owners);
        if !guards.iter().all(|(_, s)| s.permitted_considering_reservations(action)) {
            self.stats.denials.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        if matches!(self.variant, ProtocolVariant::Combined) {
            // The combined protocol commits immediately.  The probe can
            // pass while the immediate commit is impossible (the action
            // only becomes executable after outstanding reservations
            // confirm); that is a denial, not a protocol error.
            return match self.commit_on(&mut guards, action) {
                Ok(_) => {
                    self.stats.grants.fetch_add(1, Ordering::Relaxed);
                    Ok(Some(0))
                }
                Err(_) => {
                    self.stats.denials.fetch_add(1, Ordering::Relaxed);
                    Ok(None)
                }
            };
        }
        self.stats.grants.fetch_add(1, Ordering::Relaxed);
        let now = self.now();
        let expires_at = self.variant.expires_at(now);
        let id = self.next_reservation.fetch_add(1, Ordering::Relaxed);
        let reservation =
            Reservation { id, action: action.clone(), client, granted_at: now, expires_at };
        for (_, shard) in guards.iter_mut() {
            shard.reservations.insert(id, reservation.clone());
        }
        lock(&self.reservation_index).insert(id, owners);
        if expires_at != u64::MAX {
            lock(&self.timers).schedule(expires_at, id);
        }
        Ok(Some(id))
    }

    /// Step 4/5 of the coordination protocol: the client confirms the
    /// execution of a previously granted action; the manager performs the
    /// state transition — atomically across all owning shards — and notifies
    /// subscribers of status changes.
    pub fn confirm(&self, reservation_id: u64) -> ManagerResult<Vec<Notification>> {
        // The index narrows the search to the owning shards; the shards' own
        // tables decide existence (the reservation may have expired or been
        // aborted concurrently).
        let owners = lock(&self.reservation_index)
            .get(&reservation_id)
            .cloned()
            .ok_or(ManagerError::UnknownReservation { id: reservation_id })?;
        let mut guards = self.lock_owners(&owners);
        let mut action = None;
        for (_, shard) in guards.iter_mut() {
            if let Some(r) = shard.reservations.remove(&reservation_id) {
                action = Some(r.action);
            }
        }
        lock(&self.reservation_index).remove(&reservation_id);
        let action = action.ok_or(ManagerError::UnknownReservation { id: reservation_id })?;
        self.commit_on(&mut guards, &action)
    }

    /// Explicitly aborts a granted reservation without executing it: the
    /// reservation is removed from every owning shard under their locks, so
    /// the slot it held is released consistently.  Returns the aborted
    /// reservation.
    pub fn abort(&self, reservation_id: u64) -> ManagerResult<Reservation> {
        let owners = lock(&self.reservation_index)
            .get(&reservation_id)
            .cloned()
            .ok_or(ManagerError::UnknownReservation { id: reservation_id })?;
        let mut guards = self.lock_owners(&owners);
        let mut reservation = None;
        for (_, shard) in guards.iter_mut() {
            if let Some(r) = shard.reservations.remove(&reservation_id) {
                reservation = Some(r);
            }
        }
        lock(&self.reservation_index).remove(&reservation_id);
        let reservation =
            reservation.ok_or(ManagerError::UnknownReservation { id: reservation_id })?;
        self.stats.aborted_reservations.fetch_add(1, Ordering::Relaxed);
        Ok(reservation)
    }

    /// The combined ask-and-execute round trip (also used internally by the
    /// `Combined` protocol variant).  Returns `None` if the action was
    /// denied, otherwise the notifications produced by the state transition.
    pub fn try_execute(
        &self,
        client: ClientId,
        action: &Action,
    ) -> ManagerResult<Option<Vec<Notification>>> {
        self.stats.asks.fetch_add(1, Ordering::Relaxed);
        if !action.is_concrete() {
            return Err(ManagerError::NonConcreteAction { action: action.to_string() });
        }
        let _ = client;
        let owners = self.partition.owners_of(action);
        if owners.is_empty() {
            self.stats.denials.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let mut guards = self.lock_owners(&owners);
        if !guards.iter().all(|(_, s)| s.permitted_considering_reservations(action)) {
            self.stats.denials.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        // As in try_execute_batch: a probe that only passes by virtue of
        // outstanding reservations is a denial for immediate execution, not
        // a protocol error.
        match self.commit_on(&mut guards, action) {
            Ok(notes) => {
                self.stats.grants.fetch_add(1, Ordering::Relaxed);
                Ok(Some(notes))
            }
            Err(_) => {
                self.stats.denials.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Combined execution of a whole batch, in submission order — the
    /// outcomes are exactly those of submitting the actions one by one
    /// through [`InteractionManager::try_execute`].  Consecutive actions
    /// with the same owner set are decided and committed under a single
    /// lock acquisition of their owners — the amortization that makes
    /// high-throughput clients cheap (a per-shard client's whole batch is
    /// one acquisition).  When the owner set changes, the previous owners
    /// are released *before* the next are acquired, so concurrent batches
    /// cannot deadlock even when their owner sets overlap.  Actions no
    /// shard owns are denied.
    pub fn try_execute_batch(
        &self,
        client: ClientId,
        actions: &[Action],
    ) -> ManagerResult<BatchResult> {
        let _ = client;
        self.stats.asks.fetch_add(actions.len() as u64, Ordering::Relaxed);
        let mut result =
            BatchResult { accepted: vec![false; actions.len()], notifications: Vec::new() };
        // Validate and route everything up front: a non-concrete action
        // fails the whole batch before anything commits.
        let mut owner_sets = Vec::with_capacity(actions.len());
        for action in actions {
            if !action.is_concrete() {
                return Err(ManagerError::NonConcreteAction { action: action.to_string() });
            }
            owner_sets.push(self.partition.owners_of(action));
        }
        let mut held: Vec<usize> = Vec::new();
        let mut guards: OwnerGuards<'_> = Vec::new();
        for (i, action) in actions.iter().enumerate() {
            let owners = &owner_sets[i];
            if owners.is_empty() {
                self.stats.denials.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if *owners != held || guards.is_empty() {
                // Release the previous run's locks before acquiring the next
                // set (never hold locks across an acquisition of a possibly
                // lower shard id), then lock ascending as everywhere else.
                guards.clear();
                guards.extend(owners.iter().map(|&s| (s, lock(&self.shards[s]))));
                held.clone_from(owners);
            }
            if !guards.iter().all(|(_, s)| s.permitted_considering_reservations(action)) {
                self.stats.denials.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // The reservation-aware probe can pass while the immediate
            // commit is impossible (the action only becomes executable
            // after outstanding reservations confirm).  That is a
            // denial of *this* action, not a failure of the batch:
            // earlier commits stay committed and later actions still
            // run.
            match self.commit_on(&mut guards, action) {
                Ok(notes) => {
                    self.stats.grants.fetch_add(1, Ordering::Relaxed);
                    result.notifications.extend(notes);
                    result.accepted[i] = true;
                }
                Err(_) => {
                    self.stats.denials.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(result)
    }

    /// True if the action is currently permitted (ignoring outstanding
    /// reservations) — the "status" the subscription protocol reports: the
    /// conjunction of the owning shards' votes, evaluated under their locks.
    pub fn is_permitted(&self, action: &Action) -> bool {
        let owners = self.partition.owners_of(action);
        if owners.is_empty() {
            return false;
        }
        let guards = self.lock_owners(&owners);
        guards.iter().all(|(_, s)| s.engine.is_permitted(action))
    }

    /// True if the manager's interaction expression mentions the action at
    /// all.  Actions outside the alphabet are unconstrained (the open-world
    /// assumption of the coupling operator, lifted to the deployment level):
    /// clients do not need to ask about them.  The shard alphabets together
    /// are the expression's, so this is "some shard owns it".
    pub fn controls(&self, action: &Action) -> bool {
        self.partition.route(action).is_some()
    }

    /// True if the interaction state is final (every constraint could stop
    /// here) — the conjunction of the per-shard finality predicates.
    pub fn is_final(&self) -> bool {
        self.shards.iter().all(|s| lock(s).engine.is_final())
    }

    /// Registers a subscription: the client will receive a notification
    /// whenever the permissibility of the action changes (Fig. 10, right).
    /// The reply contains the current status so the client can initialize its
    /// worklist.  A single-owner subscription lives in the shard owning the
    /// action; a cross-shard subscription lives in the manager-level
    /// registry, which caches one status bit per owner.
    pub fn subscribe(&self, client: ClientId, action: &Action) -> bool {
        let owners = self.partition.owners_of(action);
        match owners.as_slice() {
            [] => {
                lock(&self.orphan_subscriptions).subscribe(
                    client,
                    action.clone(),
                    action.clone(),
                    false,
                );
                false
            }
            [shard_id] => {
                let alphabet = &self.partition.components()[*shard_id].alphabet;
                let key = alphabet.covering(action).unwrap_or(action).clone();
                let mut shard = lock(&self.shards[*shard_id]);
                let permitted = shard.engine.is_permitted(action);
                shard.subscriptions.subscribe(client, action.clone(), key, permitted)
            }
            _ => {
                // Compute the per-owner bits under all owner locks so the
                // initial cache is a consistent snapshot, then register the
                // entry (lock order: shards ascending, then the cross
                // registry — the same order the commit path uses).
                let guards = self.lock_owners(&owners);
                lock(&self.cross_subscriptions).subscribe(client, action, &owners, || {
                    guards.iter().map(|(_, s)| s.engine.is_permitted(action)).collect()
                })
            }
        }
    }

    /// Removes a subscription.
    pub fn unsubscribe(&self, client: ClientId, action: &Action) {
        let owners = self.partition.owners_of(action);
        match owners.as_slice() {
            [] => lock(&self.orphan_subscriptions).unsubscribe(client, action),
            [shard_id] => lock(&self.shards[*shard_id]).subscriptions.unsubscribe(client, action),
            _ => lock(&self.cross_subscriptions).unsubscribe(client, action),
        }
    }

    /// Number of active subscriptions (for tests and statistics).
    pub fn subscription_count(&self) -> usize {
        let owned: usize = self.shards.iter().map(|s| lock(s).subscriptions.len()).sum();
        owned + lock(&self.cross_subscriptions).len() + lock(&self.orphan_subscriptions).len()
    }

    /// The two-phase state transition for an action on its (already locked)
    /// owners:
    ///
    /// 1. **prepare** — every owner engine computes its tentative successor;
    ///    if any owner votes no, nothing is installed and the commit aborts
    ///    with no state change anywhere;
    /// 2. **commit** — one global sequence number is drawn while all owner
    ///    locks are held (any conflicting action shares an owner and is
    ///    serialized by that owner's lock, so the merged log is a
    ///    linearization), the successors are installed, the primary owner
    ///    logs the action, and the owners' subscription registries plus the
    ///    cross-shard entries they co-own are refreshed.
    fn commit_on(
        &self,
        guards: &mut [(usize, MutexGuard<'_, Shard>)],
        action: &Action,
    ) -> ManagerResult<Vec<Notification>> {
        let mut prepared = Vec::with_capacity(guards.len());
        for (_, shard) in guards.iter() {
            match shard.engine.prepare(action) {
                Some(next) => prepared.push(next),
                None => {
                    return Err(ManagerError::RejectedConfirmation { action: action.to_string() })
                }
            }
        }
        let seq = self.log_seq.fetch_add(1, Ordering::Relaxed);
        let mut notifications = Vec::new();
        for ((_, guard), next) in guards.iter_mut().zip(prepared) {
            let shard: &mut Shard = guard;
            shard.engine.commit_prepared(next);
            let engine = &shard.engine;
            notifications.extend(shard.subscriptions.refresh(|a| engine.is_permitted(a)));
        }
        guards[0].1.log.push_cross(seq, action);
        self.stats.confirmations.fetch_add(1, Ordering::Relaxed);
        notifications.extend(self.refresh_cross_subscriptions(guards));
        self.stats.notifications.fetch_add(notifications.len() as u64, Ordering::Relaxed);
        Ok(notifications)
    }

    /// Refreshes the cross-shard subscription entries co-owned by any of the
    /// committed shards: only their bits can have changed (the other owners'
    /// engines did not move), and only entries indexed under a committed
    /// shard are probed at all.
    fn refresh_cross_subscriptions(
        &self,
        guards: &[(usize, MutexGuard<'_, Shard>)],
    ) -> Vec<Notification> {
        let mut cross = lock(&self.cross_subscriptions);
        if cross.action_count() == 0 {
            return Vec::new();
        }
        let deposits: Vec<CrossBit> = guards
            .iter()
            .flat_map(|(id, shard)| {
                cross.watched(*id).map(move |a| (a.clone(), *id, shard.engine.is_permitted(a)))
            })
            .collect();
        cross.merge(&deposits)
    }

    /// Rebuilds a manager from an expression and a log of confirmed actions
    /// (the recovery strategy of Sec. 7: replay the persistent log).
    pub fn recover(
        expr: &Expr,
        variant: ProtocolVariant,
        log: &[Action],
    ) -> ManagerResult<InteractionManager> {
        let manager = InteractionManager::with_protocol(expr, variant)?;
        for action in log {
            let owners = manager.partition.owners_of(action);
            if owners.is_empty() {
                return Err(ManagerError::CorruptLog { action: action.to_string() });
            }
            let mut guards = manager.lock_owners(&owners);
            manager
                .commit_on(&mut guards, action)
                .map_err(|_| ManagerError::CorruptLog { action: action.to_string() })?;
        }
        // The statistics of the pre-crash instance are not recovered; only
        // the interaction state and the log are.
        manager.stats.confirmations.store(log.len() as u64, Ordering::Relaxed);
        Ok(manager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{parse, Value};
    use std::sync::Arc;

    fn call(p: i64, x: &str) -> Action {
        Action::concrete("call", [Value::int(p), Value::sym(x)])
    }

    fn perform(p: i64, x: &str) -> Action {
        Action::concrete("perform", [Value::int(p), Value::sym(x)])
    }

    fn patient_constraint() -> Expr {
        parse("all p { (some x { call(p, x) - perform(p, x) })* }").unwrap()
    }

    /// Four disjoint-alphabet components: one per "department group".
    fn sharded_constraint() -> Expr {
        parse(
            "(some p { call_a(p) - perform_a(p) })* \
             @ (some p { call_b(p) - perform_b(p) })* \
             @ (some p { call_c(p) - perform_c(p) })* \
             @ (some p { call_d(p) - perform_d(p) })*",
        )
        .unwrap()
    }

    /// Four components sharing one coupled `audit` barrier: every round of
    /// cases in every department ends with a global audit.
    fn coupled_constraint() -> Expr {
        parse(
            "((some p { call_a(p) - perform_a(p) })* - audit)* \
             @ ((some p { call_b(p) - perform_b(p) })* - audit)* \
             @ ((some p { call_c(p) - perform_c(p) })* - audit)* \
             @ ((some p { call_d(p) - perform_d(p) })* - audit)*",
        )
        .unwrap()
    }

    fn dept_action(kind: &str, dept: char, p: i64) -> Action {
        Action::concrete(&format!("{kind}_{dept}"), [Value::int(p)])
    }

    fn audit() -> Action {
        Action::nullary("audit")
    }

    #[test]
    fn ask_confirm_cycle_follows_fig10() {
        let m = InteractionManager::new(&patient_constraint()).unwrap();
        let r = m.ask(1, &call(1, "sono")).unwrap().expect("granted");
        let notifications = m.confirm(r).unwrap();
        assert!(notifications.is_empty(), "nobody subscribed yet");
        assert_eq!(m.stats().grants, 1);
        assert_eq!(m.stats().confirmations, 1);
        assert_eq!(m.log().len(), 1);
        // The second call for the same patient is denied until perform.
        assert_eq!(m.ask(1, &call(1, "endo")).unwrap(), None);
        let r = m.ask(1, &perform(1, "sono")).unwrap().expect("granted");
        m.confirm(r).unwrap();
        assert!(m.ask(1, &call(1, "endo")).unwrap().is_some());
    }

    #[test]
    fn reservations_block_conflicting_grants() {
        // Capacity one: once a call is granted (but not yet confirmed), a
        // second call must not be granted even though the state has not
        // changed yet.
        let expr = parse("mult 1 { (some p { call(p, sono) - perform(p, sono) })* }").unwrap();
        let m = InteractionManager::new(&expr).unwrap();
        let r1 = m.ask(1, &call(1, "sono")).unwrap();
        assert!(r1.is_some());
        let r2 = m.ask(2, &call(2, "sono")).unwrap();
        assert_eq!(r2, None, "slot reserved by the unconfirmed grant");
        m.confirm(r1.unwrap()).unwrap();
        assert_eq!(m.ask(2, &call(2, "sono")).unwrap(), None, "slot now actually occupied");
        let r = m.ask(1, &perform(1, "sono")).unwrap().unwrap();
        m.confirm(r).unwrap();
        assert!(m.ask(2, &call(2, "sono")).unwrap().is_some());
    }

    #[test]
    fn leased_reservations_expire_and_release_the_slot() {
        let expr = parse("mult 1 { (some p { call(p, sono) - perform(p, sono) })* }").unwrap();
        let m =
            InteractionManager::with_protocol(&expr, ProtocolVariant::Leased { lease: 5 }).unwrap();
        let r1 = m.ask(1, &call(1, "sono")).unwrap().unwrap();
        assert_eq!(m.ask(2, &call(2, "sono")).unwrap(), None);
        // The client crashes; after the lease expires the slot is free again.
        let expired = m.advance_time(6);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, r1);
        assert_eq!(m.stats().expired_reservations, 1);
        assert!(m.ask(2, &call(2, "sono")).unwrap().is_some());
        // A late confirmation of the expired reservation is rejected.
        assert!(matches!(m.confirm(r1), Err(ManagerError::UnknownReservation { .. })));
    }

    #[test]
    fn combined_protocol_commits_in_one_round_trip() {
        let m = InteractionManager::with_protocol(&patient_constraint(), ProtocolVariant::Combined)
            .unwrap();
        assert!(m.ask(1, &call(1, "sono")).unwrap().is_some());
        assert_eq!(m.log().len(), 1, "no separate confirmation needed");
        assert_eq!(m.ask(1, &call(1, "endo")).unwrap(), None);
    }

    #[test]
    fn subscriptions_report_status_changes() {
        let m = InteractionManager::new(&patient_constraint()).unwrap();
        assert!(m.subscribe(7, &call(1, "endo")), "initially permitted");
        assert!(!m.subscribe(7, &perform(1, "sono")), "no call yet, so perform is disabled");
        assert_eq!(m.subscription_count(), 2);
        let notifications = m.try_execute(1, &call(1, "sono")).unwrap().unwrap();
        // call(1, endo) became impermissible and perform(1, sono) became
        // permissible: both subscribers' worklists must be updated.
        assert_eq!(notifications.len(), 2);
        let endo = notifications.iter().find(|n| n.action == call(1, "endo")).unwrap();
        assert!(!endo.permitted);
        assert_eq!(endo.client, 7);
        let sono = notifications.iter().find(|n| n.action == perform(1, "sono")).unwrap();
        assert!(sono.permitted);
        // Completing the examination re-enables the other call.
        let notifications = m.try_execute(1, &perform(1, "sono")).unwrap().unwrap();
        assert!(notifications.iter().any(|n| n.action == call(1, "endo") && n.permitted));
        m.unsubscribe(7, &call(1, "endo"));
        assert_eq!(m.subscription_count(), 1);
    }

    #[test]
    fn recovery_replays_the_confirmed_log() {
        let m = InteractionManager::new(&patient_constraint()).unwrap();
        for a in [call(1, "sono"), perform(1, "sono"), call(1, "endo")] {
            let r = m.ask(1, &a).unwrap().unwrap();
            m.confirm(r).unwrap();
        }
        let log = m.log();
        // The manager crashes; a new instance is built from the log.
        let recovered =
            InteractionManager::recover(&patient_constraint(), ProtocolVariant::Simple, &log)
                .unwrap();
        assert_eq!(recovered.log().len(), 3);
        assert!(!recovered.is_permitted(&call(1, "sono")), "patient 1 is mid-examination");
        assert!(recovered.is_permitted(&perform(1, "endo")));
        // A corrupt log is rejected.
        let bad = vec![perform(9, "sono")];
        assert!(matches!(
            InteractionManager::recover(&patient_constraint(), ProtocolVariant::Simple, &bad),
            Err(ManagerError::CorruptLog { .. })
        ));
    }

    #[test]
    fn errors_for_unknown_reservations_and_abstract_actions() {
        let m = InteractionManager::new(&patient_constraint()).unwrap();
        assert!(matches!(m.confirm(99), Err(ManagerError::UnknownReservation { id: 99 })));
        assert!(matches!(m.abort(99), Err(ManagerError::UnknownReservation { id: 99 })));
        let abstract_action = Action::new("call", [ix_core::Term::Param(ix_core::Param::new("p"))]);
        assert!(matches!(m.ask(1, &abstract_action), Err(ManagerError::NonConcreteAction { .. })));
    }

    #[test]
    fn decomposable_constraints_get_one_shard_per_component() {
        let m = InteractionManager::new(&sharded_constraint()).unwrap();
        assert_eq!(m.shard_count(), 4);
        assert_eq!(m.shard_of(&dept_action("call", 'a', 1)), Some(0));
        assert_eq!(
            m.shard_of(&dept_action("call", 'a', 1)),
            m.shard_of(&dept_action("perform", 'a', 1)),
        );
        assert_ne!(
            m.shard_of(&dept_action("call", 'a', 1)),
            m.shard_of(&dept_action("call", 'b', 1)),
        );
        // The monolithic fallback.
        let mono = InteractionManager::new(&patient_constraint()).unwrap();
        assert_eq!(mono.shard_count(), 1);
    }

    #[test]
    fn coupled_constraints_shard_with_a_cross_shard_action() {
        let m = InteractionManager::new(&coupled_constraint()).unwrap();
        assert_eq!(m.shard_count(), 4, "one coupled action no longer collapses the ensemble");
        assert_eq!(m.owners_of(&audit()), vec![0, 1, 2, 3]);
        assert!(m.is_cross_shard(&audit()));
        assert!(!m.is_cross_shard(&dept_action("call", 'a', 1)));
        assert_eq!(m.shard_of(&audit()), Some(0), "primary owner");
    }

    #[test]
    fn cross_shard_commit_is_atomic_across_owners() {
        let m = InteractionManager::with_protocol(&coupled_constraint(), ProtocolVariant::Combined)
            .unwrap();
        // All departments idle: the audit commits on all four shards.
        assert!(m.try_execute(1, &audit()).unwrap().is_some());
        assert_eq!(m.log().len(), 1, "one log entry for the cross-shard action");
        // Department b starts a case: the next audit must wait for it.
        assert!(m.try_execute(1, &dept_action("call", 'b', 7)).unwrap().is_some());
        assert!(m.try_execute(1, &audit()).unwrap().is_none(), "one owner votes no");
        assert!(m.try_execute(1, &dept_action("perform", 'b', 7)).unwrap().is_some());
        assert!(m.try_execute(1, &audit()).unwrap().is_some());
        assert_eq!(m.stats().confirmations, 4);
        // The aborted audit changed no state: replaying the log on a fresh
        // monolithic manager accepts every entry.
        let replay =
            InteractionManager::monolithic(&coupled_constraint(), ProtocolVariant::Combined)
                .unwrap();
        for action in m.log() {
            assert!(replay.try_execute(9, &action).unwrap().is_some(), "log is a legal word");
        }
    }

    #[test]
    fn cross_shard_reservations_are_replicated_and_confirmed_atomically() {
        let m = InteractionManager::new(&coupled_constraint()).unwrap();
        // A pending local reservation vetoes the audit grant on its owner:
        // the multi-owner probe consults every owning shard's table.
        let rc = m.ask(1, &dept_action("call", 'c', 1)).unwrap().expect("granted");
        assert_eq!(m.ask(2, &audit()).unwrap(), None, "department c holds an unconfirmed call");
        m.confirm(rc).unwrap();
        assert_eq!(m.ask(2, &audit()).unwrap(), None, "department c is now mid-case");
        let rp = m.ask(1, &dept_action("perform", 'c', 1)).unwrap().expect("granted");
        m.confirm(rp).unwrap();
        // Every department is at a round boundary again: the audit is
        // granted, replicated into all four owner tables, and the confirm
        // commits atomically across them — exactly one log entry.
        let ra = m.ask(2, &audit()).unwrap().expect("granted");
        let notes = m.confirm(ra).unwrap();
        assert!(notes.is_empty());
        assert_eq!(m.log().len(), 3);
        assert_eq!(m.log()[2], audit());
    }

    /// Four components whose shared `audit` action is terminal: once the
    /// audit runs, the whole ensemble is closed.  A pending audit
    /// reservation therefore blocks every later local call — the shape that
    /// makes abort/expiry release observable.
    fn terminal_coupled_constraint() -> Expr {
        parse(
            "((some p { call_a(p) - perform_a(p) })* - audit) \
             @ ((some p { call_b(p) - perform_b(p) })* - audit) \
             @ ((some p { call_c(p) - perform_c(p) })* - audit) \
             @ ((some p { call_d(p) - perform_d(p) })* - audit)",
        )
        .unwrap()
    }

    #[test]
    fn aborting_a_cross_shard_reservation_releases_every_owner() {
        let m = InteractionManager::new(&terminal_coupled_constraint()).unwrap();
        let r = m.ask(1, &audit()).unwrap().expect("granted");
        assert_eq!(m.ask(2, &dept_action("call", 'a', 1)).unwrap(), None, "blocked by the grant");
        assert_eq!(m.ask(2, &dept_action("call", 'd', 1)).unwrap(), None, "in every owner");
        let aborted = m.abort(r).unwrap();
        assert_eq!(aborted.action, audit());
        assert_eq!(m.stats().aborted_reservations, 1);
        assert!(m.ask(2, &dept_action("call", 'a', 1)).unwrap().is_some(), "slot released");
        assert!(matches!(m.confirm(r), Err(ManagerError::UnknownReservation { .. })));
        assert_eq!(m.log().len(), 0, "aborted reservations never commit");
    }

    #[test]
    fn leases_expire_in_deadline_order_unless_released_first() {
        let m = InteractionManager::with_protocol(
            &sharded_constraint(),
            ProtocolVariant::Leased { lease: 5 },
        )
        .unwrap();
        let early = m.ask(1, &dept_action("call", 'c', 1)).unwrap().unwrap();
        m.advance_time(2);
        let late = m.ask(1, &dept_action("call", 'a', 1)).unwrap().unwrap();
        let confirmed = m.ask(1, &dept_action("call", 'b', 1)).unwrap().unwrap();
        m.confirm(confirmed).unwrap();
        assert!(m.advance_time(2).is_empty(), "t = 4: nothing is due");
        let expired: Vec<u64> = m.advance_time(10).iter().map(|r| r.id).collect();
        assert_eq!(expired, vec![early, late], "deadline order; the confirmed lease is gone");
        assert_eq!(m.stats().expired_reservations, 2);
    }

    #[test]
    fn expired_cross_shard_leases_release_every_owner() {
        let m = InteractionManager::with_protocol(
            &terminal_coupled_constraint(),
            ProtocolVariant::Leased { lease: 3 },
        )
        .unwrap();
        let r = m.ask(1, &audit()).unwrap().expect("granted");
        assert_eq!(m.ask(2, &dept_action("call", 'd', 1)).unwrap(), None);
        let expired = m.advance_time(4);
        assert_eq!(expired.len(), 1, "the cross-shard reservation expires once, not per owner");
        assert_eq!(expired[0].id, r);
        assert_eq!(m.stats().expired_reservations, 1);
        assert!(m.ask(2, &dept_action("call", 'd', 1)).unwrap().is_some());
        assert!(matches!(m.confirm(r), Err(ManagerError::UnknownReservation { .. })));
    }

    #[test]
    fn cross_shard_subscriptions_report_the_conjunction() {
        let m = InteractionManager::with_protocol(&coupled_constraint(), ProtocolVariant::Combined)
            .unwrap();
        assert!(m.subscribe(9, &audit()), "all departments idle: audit permitted");
        assert_eq!(m.subscription_count(), 1);
        // A single-owner commit in department a flips the conjunction off…
        let notes = m.try_execute(1, &dept_action("call", 'a', 1)).unwrap().unwrap();
        assert!(notes.iter().any(|n| n.client == 9 && n.action == audit() && !n.permitted));
        assert!(!m.is_permitted(&audit()));
        // …and completing the case flips it back on.
        let notes = m.try_execute(1, &dept_action("perform", 'a', 1)).unwrap().unwrap();
        assert!(notes.iter().any(|n| n.client == 9 && n.action == audit() && n.permitted));
        m.unsubscribe(9, &audit());
        assert_eq!(m.subscription_count(), 0);
    }

    #[test]
    fn unknown_actions_are_denied_like_the_monolithic_manager() {
        let unknown = Action::nullary("no_such_action");
        let sharded = InteractionManager::new(&coupled_constraint()).unwrap();
        let mono =
            InteractionManager::monolithic(&coupled_constraint(), ProtocolVariant::Simple).unwrap();
        for m in [&sharded, &mono] {
            assert_eq!(m.ask(1, &unknown).unwrap(), None);
            assert_eq!(m.try_execute(1, &unknown).unwrap(), None);
            let batch = m.try_execute_batch(1, std::slice::from_ref(&unknown)).unwrap();
            assert_eq!(batch.accepted, vec![false]);
            assert!(!m.is_permitted(&unknown));
            assert!(!m.controls(&unknown));
            assert!(m.owners_of(&unknown).is_empty());
        }
        assert_eq!(sharded.stats(), mono.stats(), "identical statistics on the denial paths");
    }

    #[test]
    fn reservations_only_block_within_their_shard() {
        let m = InteractionManager::new(&sharded_constraint()).unwrap();
        // A pending (unconfirmed) grant in shard a...
        let ra = m.ask(1, &dept_action("call", 'a', 1)).unwrap().unwrap();
        // ...does not even get probed when shard b decides its own grants.
        let rb = m.ask(2, &dept_action("call", 'b', 2)).unwrap().unwrap();
        m.confirm(rb).unwrap();
        m.confirm(ra).unwrap();
        assert_eq!(m.stats().confirmations, 2);
        assert_eq!(m.log().len(), 2);
    }

    #[test]
    fn concurrent_clients_on_disjoint_shards_all_succeed() {
        let m = Arc::new(
            InteractionManager::with_protocol(&sharded_constraint(), ProtocolVariant::Combined)
                .unwrap(),
        );
        let mut handles = Vec::new();
        for (i, dept) in ['a', 'b', 'c', 'd'].into_iter().enumerate() {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut committed = 0;
                for p in 0..25 {
                    let p = (i * 100 + p) as i64;
                    if m.try_execute(i as u64, &dept_action("call", dept, p)).unwrap().is_some() {
                        committed += 1;
                    }
                    if m.try_execute(i as u64, &dept_action("perform", dept, p)).unwrap().is_some()
                    {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 200, "independent shards never veto each other");
        assert_eq!(m.stats().confirmations, 200);
        assert_eq!(m.log().len(), 200);
        assert!(m.is_final(), "every call was performed");
    }

    #[test]
    fn batches_commit_per_shard_groups_in_one_lock_acquisition() {
        let m = InteractionManager::new(&sharded_constraint()).unwrap();
        let batch = vec![
            dept_action("call", 'a', 1),
            dept_action("call", 'b', 1),
            dept_action("perform", 'a', 1),
            dept_action("call", 'z', 1), // unrouted: denied
            dept_action("call", 'c', 1),
            dept_action("call", 'a', 1), // same action again: denied mid-examination? no —
                                         // call_a(1) completed, a new some-branch opens.
        ];
        let result = m.try_execute_batch(9, &batch).unwrap();
        assert_eq!(result.accepted.len(), 6);
        assert!(!result.accepted[3], "unknown action group is denied");
        assert!(result.accepted[0] && result.accepted[1] && result.accepted[2]);
        assert_eq!(m.stats().confirmations, result.accepted.iter().filter(|b| **b).count() as u64);
        // Batch outcomes match what sequential execution would have done.
        let seq = InteractionManager::new(&sharded_constraint()).unwrap();
        for (i, action) in batch.iter().enumerate() {
            let expected = seq.try_execute(9, action).unwrap().is_some();
            assert_eq!(result.accepted[i], expected, "action {i} ({action})");
        }
    }

    #[test]
    fn batches_commit_cross_shard_groups_atomically() {
        let m = InteractionManager::with_protocol(&coupled_constraint(), ProtocolVariant::Combined)
            .unwrap();
        // Department b is mid-case before the batch arrives.
        assert!(m.try_execute(1, &dept_action("call", 'b', 7)).unwrap().is_some());
        let batch = vec![
            dept_action("call", 'a', 1),
            dept_action("perform", 'a', 1),
            audit(), // department b is mid-case: 2PC aborts on all owners
        ];
        let result = m.try_execute_batch(3, &batch).unwrap();
        assert!(result.accepted[0] && result.accepted[1]);
        assert!(!result.accepted[2], "the audit is vetoed by department b");
        assert_eq!(m.log().len(), 3);
        // After b finishes its case, the same cross-shard group commits.
        assert!(m.try_execute(1, &dept_action("perform", 'b', 7)).unwrap().is_some());
        let result = m.try_execute_batch(3, &[audit()]).unwrap();
        assert!(result.accepted[0]);
        assert_eq!(m.log().len(), 5);
    }

    #[test]
    fn batch_denies_actions_only_executable_after_pending_reservations() {
        // The reservation-aware probe says yes to perform(1) (it replays the
        // reserved call(1) first), but the immediate commit is impossible
        // until that reservation confirms.  The batch must deny the action
        // and keep going, not abort after the sibling shard already
        // committed.
        let expr = parse("(some p { call(p) - perform(p) })* @ (x - y)*").unwrap();
        let m = InteractionManager::new(&expr).unwrap();
        let call1 = Action::concrete("call", [Value::int(1)]);
        let perform1 = Action::concrete("perform", [Value::int(1)]);
        let r = m.ask(1, &call1).unwrap().expect("granted and reserved");
        let batch = vec![Action::nullary("x"), perform1.clone()];
        let result = m.try_execute_batch(2, &batch).unwrap();
        assert!(result.accepted[0], "the independent shard commits");
        assert!(!result.accepted[1], "not executable before the reservation confirms");
        assert_eq!(m.log().len(), 1);
        m.confirm(r).unwrap();
        assert!(m.try_execute(2, &perform1).unwrap().is_some(), "fine after the confirm");
    }

    #[test]
    fn try_execute_denies_actions_only_executable_after_pending_reservations() {
        let expr = parse("(some p { call(p) - perform(p) })*").unwrap();
        let m = InteractionManager::new(&expr).unwrap();
        let call1 = Action::concrete("call", [Value::int(1)]);
        let perform1 = Action::concrete("perform", [Value::int(1)]);
        let r = m.ask(1, &call1).unwrap().expect("granted and reserved");
        // Same semantics as the batch path: a denial, not Err.
        assert_eq!(m.try_execute(2, &perform1).unwrap(), None);
        assert_eq!(m.stats().denials, 1);
        m.confirm(r).unwrap();
        assert!(m.try_execute(2, &perform1).unwrap().is_some());
        let stats = m.stats();
        assert_eq!(stats.grants, stats.confirmations, "every grant was honored");
    }

    #[test]
    fn batch_notifications_reach_subscribers() {
        let m = InteractionManager::new(&sharded_constraint()).unwrap();
        assert!(!m.subscribe(5, &dept_action("perform", 'b', 3)));
        let result = m
            .try_execute_batch(1, &[dept_action("call", 'a', 3), dept_action("call", 'b', 3)])
            .unwrap();
        assert!(result.accepted.iter().all(|b| *b));
        assert!(result
            .notifications
            .iter()
            .any(|n| n.client == 5 && n.permitted && n.action == dept_action("perform", 'b', 3)));
    }

    #[test]
    fn monolithic_mode_keeps_one_shard_but_behaves_identically() {
        let m = InteractionManager::monolithic(&sharded_constraint(), ProtocolVariant::Combined)
            .unwrap();
        assert_eq!(m.shard_count(), 1);
        assert!(m.try_execute(1, &dept_action("call", 'a', 1)).unwrap().is_some());
        assert!(m.try_execute(1, &dept_action("call", 'b', 1)).unwrap().is_some());
        assert!(m.try_execute(1, &dept_action("call", 'z', 1)).unwrap().is_none());
        assert_eq!(m.log().len(), 2);
    }

    #[test]
    fn orphan_subscriptions_are_tracked_but_never_permitted() {
        let m = InteractionManager::new(&sharded_constraint()).unwrap();
        let unknown = Action::nullary("unknown_action");
        assert!(!m.subscribe(3, &unknown));
        assert_eq!(m.subscription_count(), 1);
        assert!(!m.is_permitted(&unknown));
        m.unsubscribe(3, &unknown);
        assert_eq!(m.subscription_count(), 0);
    }

    #[test]
    fn recovery_replays_cross_shard_logs() {
        let m = InteractionManager::with_protocol(&coupled_constraint(), ProtocolVariant::Combined)
            .unwrap();
        for action in [
            dept_action("call", 'a', 1),
            dept_action("perform", 'a', 1),
            audit(),
            dept_action("call", 'b', 2),
        ] {
            assert!(m.try_execute(1, &action).unwrap().is_some());
        }
        let log = m.log();
        let recovered =
            InteractionManager::recover(&coupled_constraint(), ProtocolVariant::Combined, &log)
                .unwrap();
        assert_eq!(recovered.log(), log);
        assert!(!recovered.is_permitted(&audit()), "department b is mid-case after replay");
    }
}
