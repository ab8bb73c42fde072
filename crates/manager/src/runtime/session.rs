//! The client side: [`Session`] and the submission paths behind it — admit,
//! then decide in a caller frame if the one owner is at rest, or queue; an
//! operation no shard owns is settled on the spot.

use super::admission::{admit_route, admit_submission, AdmitClass, Credit};
use super::cross::enqueue_multi;
use super::drive::{account, settle_single, vote_local};
use super::slots::{caller_frame, Frame, SingleTask, Task};
use super::{read_topology, Completion, RuntimeShared, Topology, TopologySlot};
use crate::error::{ManagerError, ManagerResult, SubmitError};
use crate::lock;
use crate::shard::{Op, DENIED};
use crate::subscription::{ClientId, Notification};
use crate::ticket::{completed, ticket, Ticket, TicketIssuer};
use crate::ManagerStats;
use crate::Reservation;
use ix_core::{Action, Route};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Enqueue-instant stamp of a submission: taken when queueing-delay
/// sampling *or* bounded admission is on (the gate EWMAs feed the
/// retry-after hints), skipped otherwise — the two clock reads stay off the
/// default path.
fn stamp_submitted(shared: &RuntimeShared) -> Option<Instant> {
    (shared.queue_metrics || shared.queue_limit > 0).then(Instant::now)
}

/// A client's handle onto the runtime.  Every method returns a completion
/// ticket immediately — complete already when the operation has one owner
/// and that shard is at rest, except from [`Session::submit`] and
/// [`Session::submit_batch`], whose contract is to return once the
/// submission is queued; the `*_blocking` conveniences wait and translate to
/// the blocking manager's result types.  Clones share the client id *and*
/// the notification stream (a notification is delivered to whichever clone
/// polls first); open a fresh session for an independent stream.
#[derive(Clone)]
pub struct Session {
    pub(super) client: ClientId,
    pub(super) shared: Arc<RuntimeShared>,
    pub(super) topology: Arc<TopologySlot>,
    pub(super) notifications: Arc<Mutex<mpsc::Receiver<Notification>>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("client", &self.client).finish()
    }
}

impl Session {
    /// This session's client identifier.
    pub fn client(&self) -> ClientId {
        self.client
    }

    fn snapshot(&self) -> Arc<Topology> {
        read_topology(&self.topology)
    }

    /// Step 1/2 of the coordination protocol: ask for permission.  Resolves
    /// to [`Completion::Granted`] or [`Completion::Denied`]; on a bounded
    /// runtime a shed ask resolves inline to [`Completion::Failed`] with
    /// [`ManagerError::Overloaded`].
    pub fn ask(&self, action: &Action) -> Ticket<Completion> {
        let topo = self.snapshot();
        if let Err(e) = admit_submission(&topo, action, AdmitClass::Commit, AdmitClass::Commit) {
            return completed(Completion::Failed { error: e.into() });
        }
        submit_decision(&self.shared, &topo, action, |action| Op::Ask {
            client: self.client,
            action,
        })
    }

    /// The combined ask-and-execute round trip.  Resolves to
    /// [`Completion::Executed`] or [`Completion::Denied`]; a shed execute
    /// resolves inline to [`Completion::Failed`] with
    /// [`ManagerError::Overloaded`] (use [`Session::submit`] for the typed
    /// backpressure surface).  Like an ask, a confirm, an abort, a probe or
    /// a subscription, a single-owner execute whose shard is at rest is
    /// decided before the call returns.
    pub fn execute(&self, action: &Action) -> Ticket<Completion> {
        match self.admit_execute(action) {
            Ok(topo) => {
                submit_decision(&self.shared, &topo, action, |action| Op::Execute { action })
            }
            Err(e) => completed(Completion::Failed { error: e.into() }),
        }
    }

    /// The typed submission path of bounded admission: like
    /// [`Session::execute`], but a shed submission returns the
    /// [`SubmitError::Overloaded`] backpressure ticket directly — nothing
    /// was enqueued anywhere, and the submission is safe to retry after the
    /// hinted backoff.  On unbounded runtimes this never errs.
    ///
    /// This is the pipelining call, with [`Session::submit_batch`]: it
    /// returns once the submission is *queued*, never having decided it.
    /// That is the contract a client firing a burst without waiting relies
    /// on — each call costs an enqueue however long the decision takes, and
    /// the burst meets the gate's backpressure instead of being worked off
    /// on the client's own thread, where no queue would ever fill.  A client
    /// that waits on each ticket wants [`Session::execute`].
    pub fn submit(&self, action: &Action) -> Result<Ticket<Completion>, SubmitError> {
        let topo = self.admit_execute(action)?;
        Ok(match topo.partition.classify(action) {
            Route::Single(shard) if action.is_concrete() => {
                self.shared.stats.asks.fetch_add(1, Ordering::Relaxed);
                let op = Op::Execute { action: action.clone() };
                queue_single(&self.shared, &topo, shard, op, Credit::Held)
            }
            // Several owners always rendezvous through their queues; no
            // owner, or no concrete action, is answered without one.
            _ => submit_decision(&self.shared, &topo, action, |action| Op::Execute { action }),
        })
    }

    /// Admission of one combined execute, under the topology snapshot it is
    /// then routed by.
    fn admit_execute(&self, action: &Action) -> Result<Arc<Topology>, SubmitError> {
        let topo = self.snapshot();
        admit_submission(&topo, action, AdmitClass::Commit, AdmitClass::Speculative)?;
        Ok(topo)
    }

    /// Submits a whole *window* of combined executes with one topology
    /// snapshot, one enqueue-lock acquisition, and one queued task per
    /// consecutive same-shard run — the session-side batching that closes
    /// most of the per-action queue overhead of the runtime on low-core
    /// hosts.  The returned tickets align with `actions`; per-action
    /// outcomes, the merged log, and the statistics are identical to
    /// submitting the window action by action ([`Session::execute`]), since
    /// per-queue enqueue order is preserved.
    ///
    /// Actions outside every shard alphabet (and non-concrete actions)
    /// resolve inline, before any lock is taken.
    pub fn submit_batch(&self, actions: &[Action]) -> Vec<Ticket<Completion>> {
        let shared = &self.shared;
        let topo = self.snapshot();
        let mut out = Vec::with_capacity(actions.len());
        // Plan phase: classify lock-free; inline the denials.  On a bounded
        // runtime each action passes admission first — a shed action
        // resolves inline to `Overloaded` and holds no credit; an admitted
        // one holds one credit on each owning shard until its worker
        // dequeues it.
        let mut pending: Vec<(Action, Route, TicketIssuer<Completion>)> = Vec::new();
        for action in actions {
            let route = action.is_concrete().then(|| topo.partition.classify(action));
            if topo.bounded {
                if let Some(route) = &route {
                    let (single, multi) = (AdmitClass::Commit, AdmitClass::Speculative);
                    if let Err(e) = admit_route(&topo, route, single, multi) {
                        out.push(completed(Completion::Failed { error: e.into() }));
                        continue;
                    }
                }
            }
            shared.stats.asks.fetch_add(1, Ordering::Relaxed);
            match route {
                None => out.push(completed(non_concrete(shared, action))),
                Some(Route::None) => {
                    let op = Op::Execute { action: action.clone() };
                    out.push(completed(settle_unowned(shared, op)));
                }
                Some(route) => {
                    let (issuer, t) = ticket();
                    pending.push((action.clone(), route, issuer));
                    out.push(t);
                }
            }
        }
        if pending.is_empty() {
            return out;
        }
        // Dispatch phase: one enqueue-lock acquisition for the window;
        // consecutive same-shard singles coalesce into one Task::Batch.
        let submitted = stamp_submitted(shared);
        let mut run: Vec<SingleTask> = Vec::new();
        let mut run_shard = usize::MAX;
        let _guard = lock(&shared.cross_enqueue);
        for (action, route, issuer) in pending {
            match route {
                Route::None => unreachable!("denied in the plan phase"),
                Route::Single(shard) => {
                    if shard != run_shard {
                        flush_run(&topo, run_shard, &mut run);
                        run_shard = shard;
                    }
                    run.push(SingleTask {
                        epoch: topo.epoch(),
                        op: Op::Execute { action },
                        ticket: issuer,
                        submitted,
                    });
                }
                Route::Multi(owners) => {
                    flush_run(&topo, run_shard, &mut run);
                    let op = Op::Execute { action };
                    enqueue_multi(&topo, owners, op, issuer, submitted, Credit::Held);
                }
            }
        }
        flush_run(&topo, run_shard, &mut run);
        out
    }

    /// Step 4/5: confirm a granted reservation.  Resolves to
    /// [`Completion::Confirmed`] or [`Completion::Failed`].
    pub fn confirm(&self, reservation: u64) -> Ticket<Completion> {
        submit_release(&self.shared, &self.topology, reservation, Op::Confirm { id: reservation })
    }

    /// Explicitly releases a granted reservation without executing it.
    pub fn abort(&self, reservation: u64) -> Ticket<Completion> {
        submit_release(&self.shared, &self.topology, reservation, Op::Abort { id: reservation })
    }

    /// Subscribes to permissibility changes of an action; the completion
    /// carries the current status, later changes arrive via
    /// [`Session::poll_notifications`].  Registrations are probe-class
    /// traffic: a bounded runtime sheds them first.
    pub fn subscribe(&self, action: &Action) -> Ticket<Completion> {
        self.probe(action, Op::Subscribe { client: self.client, action: action.clone() })
    }

    /// Removes a subscription.
    pub fn unsubscribe(&self, action: &Action) -> Ticket<Completion> {
        let shared = &self.shared;
        let topo = self.snapshot();
        match topo.partition.classify(action) {
            Route::Multi(_) => {
                cross_unsubscribe(shared, self.client, action);
                completed(Completion::Unsubscribed)
            }
            // Unsubscribes are never shed: dropping one would leak the
            // registry entry the client believes is gone.
            route => {
                let op = Op::Unsubscribe { client: self.client, action: action.clone() };
                dispatch(shared, &topo, route, op, Credit::Charge)
            }
        }
    }

    /// Queries whether the action is currently permitted (ignoring
    /// outstanding reservations), evaluated on the owning shards.
    pub fn is_permitted(&self, action: &Action) -> Ticket<Completion> {
        self.probe(action, Op::Query { action: action.clone() })
    }

    /// A subscription or a query of `action`: probe-class traffic, which a
    /// bounded runtime sheds first.
    fn probe(&self, action: &Action, op: Op) -> Ticket<Completion> {
        let topo = self.snapshot();
        if let Err(e) = admit_submission(&topo, action, AdmitClass::Probe, AdmitClass::Probe) {
            return completed(Completion::Failed { error: e.into() });
        }
        dispatch(&self.shared, &topo, topo.partition.classify(action), op, Credit::Held)
    }

    /// Drains the subscription notifications received so far.
    pub fn poll_notifications(&self) -> Vec<Notification> {
        lock(&self.notifications).try_iter().collect()
    }

    /// Advances the runtime's logical clock (see
    /// [`ManagerRuntime::advance_time`](super::ManagerRuntime::advance_time));
    /// any session may drive the virtual clock, exactly as any client could
    /// send a tick to the old server.
    pub fn advance_time(&self, delta: u64) -> Vec<Reservation> {
        advance_clock(&self.shared, &self.topology, delta)
    }

    /// Blocking [`Session::ask`] with the blocking manager's result type.
    pub fn ask_blocking(&self, action: &Action) -> ManagerResult<Option<u64>> {
        match self.ask(action).wait() {
            Completion::Granted { reservation } => Ok(Some(reservation)),
            Completion::Denied => Ok(None),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::execute`] with the blocking manager's result
    /// type.
    pub fn execute_blocking(&self, action: &Action) -> ManagerResult<Option<Vec<Notification>>> {
        match self.execute(action).wait() {
            Completion::Executed { notifications } => Ok(Some(notifications)),
            Completion::Denied => Ok(None),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::confirm`].
    pub fn confirm_blocking(&self, reservation: u64) -> ManagerResult<Vec<Notification>> {
        match self.confirm(reservation).wait() {
            Completion::Confirmed { notifications } => Ok(notifications),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::abort`].
    pub fn abort_blocking(&self, reservation: u64) -> ManagerResult<Reservation> {
        match self.abort(reservation).wait() {
            Completion::Aborted { reservation } => Ok(reservation),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::subscribe`].
    pub fn subscribe_blocking(&self, action: &Action) -> ManagerResult<bool> {
        match self.subscribe(action).wait() {
            Completion::Subscribed { permitted } => Ok(permitted),
            Completion::Failed { error } => Err(error),
            other => Err(ManagerError::RejectedConfirmation { action: format!("{other:?}") }),
        }
    }

    /// Blocking [`Session::is_permitted`].
    pub fn is_permitted_blocking(&self, action: &Action) -> bool {
        matches!(self.is_permitted(action).wait(), Completion::Status { permitted: true })
    }
}

/// What an ask or an execute of a non-concrete action comes to, counted as
/// the blocking manager counts it.
fn non_concrete(shared: &RuntimeShared, action: &Action) -> Completion {
    account(shared, ManagerStats { asks: 1, ..ManagerStats::ZERO }, ManagerStats::ZERO);
    Completion::Failed { error: ManagerError::NonConcreteAction { action: action.to_string() } }
}

/// What an operation on an action outside every alphabet comes to — no
/// owner, so no vote: the outcome and the counts the blocking manager gives
/// it, before any queue or lock is touched.  A subscription waits among the
/// orphans for a constraint that covers it.
pub(super) fn settle_unowned(shared: &RuntimeShared, op: Op) -> Completion {
    match op {
        Op::Subscribe { client, action } => {
            lock(&shared.orphan_subscriptions).subscribe(
                client,
                action.clone(),
                action.clone(),
                false,
            );
            if let Some(hub) = &shared.durability {
                hub.log_subscribe(client, &action, false);
            }
            Completion::Subscribed { permitted: false }
        }
        Op::Unsubscribe { client, action } => {
            lock(&shared.orphan_subscriptions).unsubscribe(client, &action);
            if let Some(hub) = &shared.durability {
                hub.log_unsubscribe(client, &action);
            }
            Completion::Unsubscribed
        }
        Op::Query { .. } => Completion::Status { permitted: false },
        _ => {
            account(shared, DENIED, ManagerStats::ZERO);
            Completion::Denied
        }
    }
}

/// An ask or an execute of `action`, which `op` makes the operation of:
/// counted as an ask when it arrives, whatever becomes of it.
fn submit_decision(
    shared: &RuntimeShared,
    topo: &Topology,
    action: &Action,
    op: impl FnOnce(Action) -> Op,
) -> Ticket<Completion> {
    shared.stats.asks.fetch_add(1, Ordering::Relaxed);
    if !action.is_concrete() {
        return completed(non_concrete(shared, action));
    }
    dispatch(shared, topo, topo.partition.classify(action), op(action.clone()), Credit::Held)
}

/// A confirm or an abort of reservation `id`, sent to the owners the
/// reservation index holds for it.
fn submit_release(
    shared: &Arc<RuntimeShared>,
    slot: &TopologySlot,
    id: u64,
    op: Op,
) -> Ticket<Completion> {
    let owners = match lock(&shared.reservation_index).get(&id) {
        Some(owners) => owners.clone(),
        None => {
            return completed(Completion::Failed { error: ManagerError::UnknownReservation { id } })
        }
    };
    dispatch_owners(shared, slot, owners, op)
}

/// Removes a cross-shard subscription from the runtime-level registry (no
/// shard state is involved).
pub(super) fn cross_unsubscribe(shared: &RuntimeShared, client: ClientId, action: &Action) {
    if let Some(hub) = &shared.durability {
        hub.log_unsubscribe(client, action);
    }
    shared.with_cross(|cross| cross.unsubscribe(client, action));
}

/// Enqueues an already-issued task on one shard's queue.  `Credit::Charge`
/// callers (forced traffic) take their queue credit here; `Credit::Held`
/// callers reserved it through admission already.
pub(super) fn enqueue_single(
    topo: &Topology,
    shard: usize,
    op: Op,
    issuer: TicketIssuer<Completion>,
    submitted: Option<Instant>,
    credit: Credit,
) {
    if credit == Credit::Charge {
        topo.slots[shard].gate.charge(1);
    }
    topo.send(
        shard,
        Task::Single(SingleTask { epoch: topo.epoch(), op, ticket: issuer, submitted }),
    );
}

/// Enqueues a task on one shard's queue and returns its ticket.
fn queue_single(
    shared: &RuntimeShared,
    topo: &Topology,
    shard: usize,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    let (issuer, t) = ticket();
    enqueue_single(topo, shard, op, issuer, stamp_submitted(shared), credit);
    t
}

/// One operation for one owner: decided in a [`caller_frame`] when the shard
/// is at rest — the ticket comes back complete, no thread was waited for —
/// and queued for the shard's worker otherwise.
///
/// The frame stands in for a worker that has just dequeued the task, and
/// does what that worker would: returns the admission credit, votes and
/// settles through the same kernel steps as [`process_single`] (the
/// write-ahead record included), publishes the log size and feeds the
/// gate's service average and the queue-delay samples — with a wait of
/// zero.  It declines a route taken under an older topology epoch: those are
/// re-checked where they are dequeued.  An epoch that moves while the frame
/// holds the slot did not touch this shard (a migration needs the slot for
/// its pause barrier), so the route stands, as for a task dequeued a moment
/// before the move.
fn dispatch_single(
    shared: &RuntimeShared,
    topo: &Topology,
    shard: usize,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    let submitted = stamp_submitted(shared);
    let served = caller_frame(topo, shard, |slot, st| {
        if topo.epoch() != shared.epoch.load(Ordering::Acquire) {
            return None;
        }
        if credit == Credit::Held {
            slot.gate.release(1);
        }
        let vote = vote_local(shared, st, &op);
        let completion = settle_single(shared, st, &op, vote);
        slot.gate.publish_log(&st.log);
        if let Some(at) = submitted {
            let service = at.elapsed().as_nanos() as u64;
            slot.gate.observe(0, service);
            if shared.queue_metrics {
                lock(&shared.queue_samples).push((0, service));
            }
        }
        Some(completion)
    });
    match served {
        Frame::Served(completion) => completed(completion),
        Frame::Done => completed(Completion::Failed { error: ManagerError::Disconnected }),
        Frame::NotAtRest => queue_single(shared, topo, shard, op, credit),
    }
}

/// Enqueues an operation on the owner or owners `route` names and returns
/// its ticket; without an owner it resolves on the spot.
fn dispatch(
    shared: &RuntimeShared,
    topo: &Topology,
    route: Route,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    match route {
        Route::None => completed(settle_unowned(shared, op)),
        Route::Single(shard) => dispatch_single(shared, topo, shard, op, credit),
        Route::Multi(owners) => dispatch_multi(shared, topo, owners, op, credit),
    }
}

/// Enqueues a reservation operation (confirm, abort, expiry) on the owners
/// the reservation index names.  Forced traffic: never shed.
///
/// A migration widens reservation-index owner sets shortly *before* it
/// installs the grown topology, so a reader that just loaded a widened
/// owner set may still hold the previous epoch's snapshot — indexing its
/// queue table with the new shard id would be out of bounds.  The install
/// is already underway at that point, so re-reading until the table covers
/// the owners closes the window.
fn dispatch_owners(
    shared: &RuntimeShared,
    slot: &TopologySlot,
    owners: Vec<usize>,
    op: Op,
) -> Ticket<Completion> {
    let needed = owners.iter().copied().max().map_or(0, |m| m + 1);
    let mut topo = read_topology(slot);
    while topo.slots.len() < needed {
        std::thread::yield_now();
        topo = read_topology(slot);
    }
    match owners.as_slice() {
        [shard] => dispatch_single(shared, &topo, *shard, op, Credit::Charge),
        _ => dispatch_multi(shared, &topo, owners, op, Credit::Charge),
    }
}

/// Queues a batched run of same-shard single tasks as one task
/// (one [`Task::Single`] when the run has a single element).  The caller
/// holds the enqueue lock and already holds one queue credit per run
/// element (the batch path admits per action); `run` is left empty.
fn flush_run(topo: &Topology, shard: usize, run: &mut Vec<SingleTask>) {
    if run.is_empty() {
        return;
    }
    let task = if run.len() == 1 {
        Task::Single(run.pop().expect("len checked"))
    } else {
        Task::Batch(std::mem::take(run))
    };
    topo.send(shard, task);
    run.clear();
}

/// Enqueues an operation several shards own under the enqueue lock and
/// returns its ticket.
fn dispatch_multi(
    shared: &RuntimeShared,
    topo: &Topology,
    owners: Vec<usize>,
    op: Op,
    credit: Credit,
) -> Ticket<Completion> {
    let (issuer, t) = ticket();
    let submitted = stamp_submitted(shared);
    let _guard = lock(&shared.cross_enqueue);
    enqueue_multi(topo, owners, op, issuer, submitted, credit);
    t
}

/// Advances the clock and runs the due lease expirations as shard tasks.
///
/// A timer files a reservation id, as the blocking manager's do.  The owner
/// set comes from the reservation index at fire time, so a lease re-arms
/// across a repartition that widened its reservation onto new shards
/// without rewriting its timer, and a lease whose reservation was released
/// since its grant (confirmed, aborted or expired) has no entry and
/// dispatches nothing.
pub(super) fn advance_clock(
    shared: &RuntimeShared,
    slot: &TopologySlot,
    delta: u64,
) -> Vec<Reservation> {
    let now = crate::tick(&shared.clock, delta);
    if let Some(hub) = &shared.durability {
        hub.log_clock(now);
    }
    let due = lock(&shared.timers).advance(now);
    let tickets: Vec<Ticket<Completion>> = due
        .into_iter()
        .filter_map(|id| {
            let owners = lock(&shared.reservation_index).get(&id).cloned()?;
            Some(dispatch_owners(shared, slot, owners, Op::Expire { id, now }))
        })
        .collect();
    tickets
        .into_iter()
        .filter_map(|t| match t.wait() {
            Completion::Expired { reservation } => reservation,
            _ => None,
        })
        .collect()
}
