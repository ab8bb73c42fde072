//! Live repartitioning (`add_constraint`, `couple`) — quiesce, replay the
//! covered history into the new shards through the kernel, migrate tables,
//! install the next epoch — and the stale-route re-check of a single task.

use super::admission::Credit;
use super::cross::enqueue_multi;
use super::drive::{account, deliver, publish_reservation_fp};
use super::session::{cross_unsubscribe, enqueue_single, settle_unowned};
use super::slots::{seat_shard, PauseTask, PoolCtl, SingleTask, Task};
use super::{read_topology, Completion, ManagerRuntime, RuntimeShared, Topology};
use crate::durability::{persist_repartition, persist_shards, visit_log, Gaps, ShardCheckpoint};
use crate::error::{ManagerError, ManagerResult};
use crate::lock;
use crate::shard::{Op, ShardState};
use crate::subscription::Notification;
use crate::ManagerStats;
use ix_core::{Expr, Route};
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// Counters of the dynamic-repartitioning machinery.  The headline
/// invariant: a *disjoint* constraint addition leaves
/// `migrated_shard_states` untouched — it is a pure shard-append.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepartitionStats {
    /// Number of topology epochs installed after construction.
    pub repartitions: u64,
    /// Number of shard states quiesced and handed through a migration
    /// (0 for disjoint additions).
    pub migrated_shard_states: u64,
    /// Log entries replayed into newly created components.
    pub replayed_actions: u64,
    /// Reservations whose owner set was widened onto a new shard.
    pub migrated_reservations: u64,
    /// Shard-local subscriptions promoted to cross-shard entries.
    pub migrated_subscriptions: u64,
    /// Tasks whose routing was found stale after an epoch change and that
    /// were retried through the current topology.
    pub rerouted_tasks: u64,
}

/// What one [`ManagerRuntime::add_constraint`] / [`ManagerRuntime::couple`]
/// call did: the shards it created, the shards it had to quiesce, and the
/// migration volume.  A disjoint addition reports `migrated_shards` empty
/// and zero replay — the O(1) pure-append path.
#[derive(Clone, Debug)]
pub struct RepartitionReport {
    /// The topology epoch installed by this update.
    pub epoch: u64,
    /// Ids of the shards created for the new constraint's components.
    pub added_shards: Vec<usize>,
    /// Ids of the existing shards that were paused and migrated (empty for
    /// a disjoint addition; unaffected shards kept serving either way).
    pub migrated_shards: Vec<usize>,
    /// Number of abstract actions whose owner set widened.
    pub widened_actions: usize,
    /// Log entries replayed into the new components (covered history).
    pub replayed_actions: usize,
    /// Reservations replicated onto new owners.
    pub migrated_reservations: usize,
    /// Shard-local subscriptions promoted to cross-shard entries.
    pub migrated_subscriptions: usize,
}

impl ManagerRuntime {
    /// [`ManagerRuntime::add_constraint`] and [`ManagerRuntime::couple`].
    pub(super) fn repartition(
        &self,
        constraint: &Expr,
        require_overlap: bool,
    ) -> ManagerResult<RepartitionReport> {
        let shared = &self.shared;
        // Serializes migrations, and only a migration installs a topology:
        // the snapshot read under this lock is the one this call extends.
        let _persisting = lock(&shared.persisting);
        let topo = read_topology(&self.topology);
        let old_len = topo.partition.len();
        let (new_partition, delta) = topo.partition.extend(std::slice::from_ref(constraint));
        if require_overlap && delta.widened.is_empty() {
            // The overlap test runs on the delta *under that lock*, so a
            // `couple` serialized behind a concurrent `add_constraint`
            // judges the ensemble it will actually extend — no
            // topology-snapshot TOCTOU.
            return Err(ManagerError::DisjointCoupling);
        }
        let affected = delta.affected_existing(old_len);

        // Build the new components' shards first: a malformed constraint
        // must fail before anything is paused.  Until they are seated, the
        // coordinator is the only one holding them.
        let mut new_shards = Vec::with_capacity(delta.added.len());
        for &idx in &delta.added {
            let component = &new_partition.components()[idx];
            new_shards.push(ShardState::of(idx, component, shared.durability.clone())?);
        }
        let new_alphabets = || new_partition.components()[old_len..].iter().map(|c| &c.alphabet);
        let mut replayed = 0usize;
        let mut migrated_reservations = 0usize;
        let mut migrated_subscriptions = 0usize;
        let mut flips: Vec<Notification> = Vec::new();
        let mut paused: Vec<(usize, ShardState, mpsc::Sender<ShardState>)> = Vec::new();

        if !affected.is_empty() {
            // ---- Quiesce exactly the affected shards.  The pause barriers
            // are sent under the enqueue lock, so any multi-owner task is
            // ordered entirely before or entirely after the quiescence
            // point on every queue it shares with a barrier — the owners of
            // a widened action can therefore never straddle the migration.
            let mut waits = Vec::new();
            let mut barrier_failed = false;
            {
                let _guard = lock(&shared.cross_enqueue);
                for &s in &affected {
                    let (state_tx, state_rx) = mpsc::channel();
                    let (resume_tx, resume_rx) = mpsc::channel();
                    if !topo.send(s, Task::Pause(PauseTask { state_tx, resume_rx })) {
                        // Shard gone (runtime tearing down concurrently).
                        // The migration must not proceed with a partially
                        // quiesced set; abort after resuming whoever did
                        // pause.
                        barrier_failed = true;
                        break;
                    }
                    waits.push((s, state_rx, resume_tx));
                }
            }
            for (s, state_rx, resume_tx) in waits {
                match state_rx.recv() {
                    Ok(state) => paused.push((s, state, resume_tx)),
                    Err(_) => barrier_failed = true,
                }
            }
            if barrier_failed {
                resume_paused(&shared.pool, paused);
                return Err(ManagerError::Disconnected);
            }

            // ---- Replay the covered history into the new shards, through
            // the kernel.  The merged affected segments sorted by log key
            // are a legal linearization of everything the new components can
            // cover (a shared action's primary owner is itself affected, so
            // its entries are all here).  That means *every* entry: what the
            // checkpoints archived comes back from the vault, and a history
            // stream with a gap fails the migration.
            let mut rejected = None;
            let logs = paused.iter().map(|(s, st, _)| (*s, &st.log));
            let read = visit_log(shared.vault(), logs, Gaps::Refuse, |key, action| {
                for (st, alphabet) in new_shards.iter_mut().zip(new_alphabets()) {
                    if !alphabet.covers(&action) {
                        continue;
                    }
                    if !st.replay_covered(key, &action) {
                        rejected = Some(action.to_string());
                        return ControlFlow::Break(());
                    }
                    replayed += 1;
                }
                ControlFlow::Continue(())
            });
            let failed = match (read, rejected) {
                (Err(e), _) => Some(e),
                (Ok(()), Some(action)) => Some(ManagerError::IncompatibleExtension { action }),
                (Ok(()), None) => None,
            };
            if let Some(error) = failed {
                resume_paused(&shared.pool, paused);
                return Err(error);
            }

            // ---- Nothing can fail from here on: migrate reservations and
            // subscriptions.  A new shard is born holding the tables that
            // migrated onto it — whole tables handed over before anything
            // serves it, not operations on a shard.  A reservation whose
            // action a new component covers is replicated into that shard's
            // table (identical copies on every owner, as for cross-shard
            // asks) and its index entry widens, so confirm/abort/expiry
            // reach the new owner.
            {
                let mut index = lock(&shared.reservation_index);
                for (_, st, _) in &paused {
                    for reservation in st.reservations.values() {
                        for (new, alphabet) in new_shards.iter_mut().zip(new_alphabets()) {
                            if alphabet.covers(&reservation.action)
                                && !new.reservations.contains_key(&reservation.id)
                            {
                                new.reservations.insert(reservation.id, reservation.clone());
                                if let Some(owners) = index.get_mut(&reservation.id) {
                                    if !owners.contains(&new.id) {
                                        owners.push(new.id);
                                        owners.sort_unstable();
                                    }
                                }
                                migrated_reservations += 1;
                            }
                        }
                    }
                }
            }

            // ---- Promote shard-local subscriptions of widened actions to
            // cross-shard entries: their permissibility is a conjunction
            // now.  Every owner of a widened action is quiesced right here,
            // so the per-owner bits are a consistent snapshot — the same
            // guarantee a cross-shard subscribe gets from its rendezvous.
            for (sid, st, _) in &mut paused {
                let moved = st.subscriptions.extract(|action| {
                    new_partition.owners_of(action) != topo.partition.owners_of(action)
                });
                for (action, clients, cached) in moved {
                    // A shard-local subscription exists only for actions the
                    // shard owned alone, so the widened owner set is this
                    // shard plus new shards.
                    let owners = new_partition.owners_of(&action);
                    let bits: Vec<bool> = owners
                        .iter()
                        .map(|&o| {
                            if o == *sid {
                                st.engine.is_permitted(&action)
                            } else {
                                debug_assert!(o >= old_len, "widened single-owner action");
                                new_shards[o - old_len].engine.is_permitted(&action)
                            }
                        })
                        .collect();
                    migrated_subscriptions += clients.len();
                    flips.extend(
                        shared.with_cross(|cross| {
                            cross.promote(&action, owners, bits, clients, cached)
                        }),
                    );
                }
            }

            // ---- Widen existing cross-shard entries whose action gained
            // owners: append the new owners' bits and re-evaluate the
            // conjunction.
            flips.extend(lock(&shared.cross_subscriptions).widen(
                |action| new_partition.owners_of(action),
                |owner, action| {
                    debug_assert!(owner >= old_len, "owner sets only widen");
                    new_shards[owner - old_len].engine.is_permitted(action)
                },
            ));
        }

        // ---- Re-home orphan subscriptions the new constraint makes live.
        // A subscription to an action no shard owned parks in the orphan
        // registry (cached not-permitted); if the grown partition covers
        // the action, it becomes a real shard-local or cross-shard
        // subscription now — its owners can only be new shards, because
        // existing alphabets did not change.  A status flip notifies.
        let rehomed = lock(&shared.orphan_subscriptions)
            .extract(|action| new_partition.route(action).is_some());
        for (action, clients, cached) in rehomed {
            let owners = new_partition.owners_of(&action);
            debug_assert!(owners.iter().all(|&o| o >= old_len), "orphans were unowned");
            if let [owner] = owners.as_slice() {
                let alphabet = &new_partition.components()[*owner].alphabet;
                let key = alphabet.covering(&action).unwrap_or(&action).clone();
                for &client in &clients {
                    let registry = &mut new_shards[owner - old_len].subscriptions;
                    registry.subscribe(client, action.clone(), key.clone(), cached);
                }
            } else {
                let bits: Vec<bool> = owners
                    .iter()
                    .map(|&o| new_shards[o - old_len].engine.is_permitted(&action))
                    .collect();
                flips.extend(
                    shared
                        .with_cross(|cross| cross.promote(&action, owners, bits, clients, cached)),
                );
            }
        }

        // ---- Seat the new shards.  Each one's published reservation
        // fingerprint is seeded, so post-migration conditional votes verify
        // against the migrated table, not the empty default; and each is
        // born with replayed history its (empty) log stream does not cover,
        // so it is snapshotted before it serves.
        let mut slots = topo.slots.clone();
        for mut st in new_shards {
            flips.extend(st.subscriptions.refresh(|a| st.engine.is_permitted(a)));
            publish_reservation_fp(shared, &st);
            if let (Some(cap), Some(vault)) = (st.capture(), shared.vault()) {
                persist_shards(vault, &[cap]);
            }
            slots.push(seat_shard(&shared.pool, st, shared.queue_limit));
        }

        // ---- Install the next epoch.  The store of the epoch mirror
        // happens before any paused worker resumes, and every task routed
        // to a widened action targets a still-paused shard, so no worker
        // can act on a stale route between the swap and the resume.
        let epoch = new_partition.epoch();
        let new_topology = Arc::new(Topology {
            partition: new_partition,
            slots,
            bounded: shared.queue_limit > 0,
            pool: Arc::clone(&topo.pool),
            expr: Expr::sync(topo.expr.clone(), constraint.clone()),
        });
        {
            let mut slot = self.topology.write().unwrap_or_else(|e| e.into_inner());
            *slot = Arc::clone(&new_topology);
            shared.epoch.store(epoch, Ordering::Release);
        }

        // ---- Resume the quiesced workers and commit the bookkeeping.  A
        // migration only appends components: a paused engine keeps its
        // expression, so its tables stay exact.
        let migrated_shards: Vec<usize> = paused.iter().map(|(s, _, _)| *s).collect();
        // ---- Make the repartition durable before any worker resumes.
        if let Some(vault) = shared.vault() {
            let captures: Vec<ShardCheckpoint> =
                paused.iter().filter_map(|(_, state, _)| state.capture()).collect();
            let cross = lock(&shared.cross_subscriptions).export();
            let orphans = lock(&shared.orphan_subscriptions).export();
            let (expr, partition) = (&new_topology.expr, &new_topology.partition);
            persist_repartition(vault, &captures, expr, partition, cross, orphans)?;
            // The coordinator holds the paused states: it releases what it
            // just archived itself.
            for (_, state, _) in paused.iter_mut() {
                state.log.release(state.log.len());
            }
        }
        resume_paused(&shared.pool, paused);
        {
            let mut stats = lock(&shared.repart);
            stats.repartitions += 1;
            stats.migrated_shard_states += migrated_shards.len() as u64;
            stats.replayed_actions += replayed as u64;
            stats.migrated_reservations += migrated_reservations as u64;
            stats.migrated_subscriptions += migrated_subscriptions as u64;
        }
        account(
            shared,
            ManagerStats { notifications: flips.len() as u64, ..ManagerStats::ZERO },
            ManagerStats::ZERO,
        );
        deliver(shared, &flips);
        let report = RepartitionReport {
            epoch,
            added_shards: delta.added.clone(),
            migrated_shards,
            widened_actions: delta.widened.len(),
            replayed_actions: replayed,
            migrated_reservations,
            migrated_subscriptions,
        };
        Ok(report)
    }
}

/// Hands every quiesced shard state back to its worker (used on both the
/// success and the abort path of a migration — a paused worker is always
/// resumed).
fn resume_paused(pool: &PoolCtl, paused: Vec<(usize, ShardState, mpsc::Sender<ShardState>)>) {
    for (_, state, resume_tx) in paused {
        let _ = resume_tx.send(state);
    }
    // A Suspended slot is polled on its owning worker's next visit; make
    // that visit happen now.
    pool.core.wake_all();
}

/// Checks an epoch-stale single task's route against the current topology.
/// Returns the task when this shard is still its correct single owner (the
/// overwhelmingly common case — most epoch bumps do not touch this shard's
/// actions) *and* the task is not ordered behind an already-diverted one;
/// otherwise re-dispatches it with its original ticket, raises the divert
/// watermark, and returns `None`.
pub(super) fn ensure_single_route(
    shared: &Arc<RuntimeShared>,
    st: &ShardState,
    task: SingleTask,
    divert_below: &mut u64,
) -> Option<SingleTask> {
    if task.epoch == shared.epoch.load(Ordering::Acquire) {
        return Some(task);
    }
    let Some(slot) = shared.topology.upgrade() else {
        task.ticket.complete(Completion::Failed { error: ManagerError::Disconnected });
        return None;
    };
    let topo = read_topology(&slot);
    let behind_divert = task.epoch < *divert_below;
    match &task.op {
        Op::Execute { action }
        | Op::Ask { action, .. }
        | Op::Subscribe { action, .. }
        | Op::Unsubscribe { action, .. }
        | Op::Query { action } => match topo.partition.classify(action) {
            Route::Single(shard) if shard == st.id && !behind_divert => Some(task),
            route => {
                lock(&shared.repart).rerouted_tasks += 1;
                *divert_below = topo.epoch();
                let _guard = lock(&shared.cross_enqueue);
                redispatch_single(shared, &topo, task, route);
                None
            }
        },
        Op::Confirm { id } | Op::Abort { id } | Op::Expire { id, .. } => {
            let owners = lock(&shared.reservation_index).get(id).cloned();
            match owners {
                // Reservation gone (or never indexed): resolve locally —
                // the shard table is authoritative and reports Unknown.
                // (Reservation ops are never part of a pipelined execute
                // window, so the divert watermark does not apply.)
                None => Some(task),
                Some(owners) if owners.as_slice() == [st.id] => Some(task),
                Some(owners) => {
                    lock(&shared.repart).rerouted_tasks += 1;
                    *divert_below = topo.epoch();
                    let _guard = lock(&shared.cross_enqueue);
                    let SingleTask { op, ticket, submitted, .. } = task;
                    enqueue_multi(&topo, owners, op, ticket, submitted, Credit::Charge);
                    None
                }
            }
        }
    }
}

/// Re-dispatches a single task whose owner set widened.  Owner sets never
/// shrink, so the new route is multi-owner (the `Route::None` and foreign
/// single-owner arms are defensive).  The caller must hold the
/// cross-enqueue lock.
fn redispatch_single(
    shared: &Arc<RuntimeShared>,
    topo: &Arc<Topology>,
    task: SingleTask,
    route: Route,
) {
    let SingleTask { op, ticket: issuer, submitted, .. } = task;
    match (op, route) {
        (op, Route::Single(shard)) => {
            enqueue_single(topo, shard, op, issuer, submitted, Credit::Charge)
        }
        (Op::Unsubscribe { client, action }, Route::Multi(_)) => {
            // The migration promoted the registration to the cross-shard
            // registry; remove it there.
            cross_unsubscribe(shared, client, &action);
            issuer.complete(Completion::Unsubscribed);
        }
        (op, Route::Multi(owners)) => {
            enqueue_multi(topo, owners, op, issuer, submitted, Credit::Charge)
        }
        // Owner sets never shrink; complete with the outcome an unknown
        // action gets on the submission path.
        (op, Route::None) => issuer.complete(settle_unowned(shared, op)),
    }
}
