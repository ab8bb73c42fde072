//! Driving the shard kernel.  Every operation takes the same four steps —
//! `ShardState::vote` on each owner, one `conclude`, `ShardState::apply` on
//! each owner, one `finish` — and the paths differ only in how the owners
//! meet: a single owner takes all four inline, several owners rendezvous
//! after the first and the third (`await_verdict`, `apply_multi` in
//! `super::cross`), and the coalesced executes bring their own votes and
//! verdicts and join at the same rendezvous.

use super::cross::Vote;
use super::slots::{SingleTask, WorkerCtx};
use super::{Completion, RuntimeShared};
use crate::error::ManagerError;
use crate::lock;
use crate::shard::{Effects, LocalVote, Op, Role, ShardState, Verdict};
use crate::subscription::{ClientId, Notification};
use crate::ManagerStats;
use crate::Reservation;
use ix_core::Action;
use std::sync::atomic::{AtomicU64, Ordering};

/// The owners' votes on one operation, added up: what [`conclude`] reads.
pub(super) struct Tally<'a> {
    /// Conjunction of the votes.
    pub(super) ok: bool,
    /// The reservation a confirm, abort or expiry removed.
    pub(super) removed: Option<&'a Reservation>,
    /// The votes one by one, aligned with the owners — the per-owner status
    /// bits a shared subscription starts from (empty for a single owner).
    pub(super) votes: &'a [Vote],
}

/// Publishes the shard's current reservation-table fingerprint, against
/// which conditional votes prove their probes still hold at promotion time.
/// Called after every mutation of `st.reservations`.
pub(super) fn publish_reservation_fp(shared: &RuntimeShared, st: &ShardState) {
    lock(&shared.reservation_fps).insert(st.id, st.reservation_fingerprint());
}

/// Phase 1 on the shard this worker holds.
pub(super) fn vote_local(shared: &RuntimeShared, st: &mut ShardState, op: &Op) -> LocalVote {
    let vote = st.vote(op, shared.variant);
    if vote.removed.is_some() {
        publish_reservation_fp(shared, st);
    }
    vote
}

/// Phase 2 on the shard this worker holds.
pub(super) fn apply_local(
    shared: &RuntimeShared,
    st: &mut ShardState,
    op: &Op,
    vote: LocalVote,
    verdict: &Verdict,
    role: Role,
) -> Effects {
    // The cross-subscribed actions this shard co-owns, whose bits a commit
    // reports; it skips the registry lock entirely while there are none (the
    // common case).
    let commits = matches!(verdict, Verdict::Commit { .. });
    let watched: Vec<Action> = if commits && shared.cross_entry_count.load(Ordering::Relaxed) > 0 {
        lock(&shared.cross_subscriptions).watched(st.id).cloned().collect()
    } else {
        Vec::new()
    };
    let fx = st.apply(op, vote, verdict, role, &watched, |bits| {
        lock(&shared.cross_subscriptions).merge(bits)
    });
    if matches!(verdict, Verdict::Reserve(_)) {
        publish_reservation_fp(shared, st);
    }
    fx
}

/// The verdict from the owners' votes — one owner's or many's — with what
/// the owners share kept in step: the commit sequence, the reservation ids
/// and index, the clock, the registry of subscriptions several owners share.
pub(super) fn conclude(
    shared: &RuntimeShared,
    op: &Op,
    owners: &[usize],
    tally: &Tally,
) -> Verdict {
    match op {
        Op::Confirm { id } | Op::Abort { id } => {
            lock(&shared.reservation_index).remove(id);
        }
        Op::Expire { id, .. } if tally.removed.is_some() => {
            lock(&shared.reservation_index).remove(id);
        }
        Op::Subscribe { client, action } if owners.len() > 1 => {
            return Verdict::Status(subscribe_cross(shared, *client, action, owners, tally.votes));
        }
        _ => {}
    }
    Verdict::of(
        op,
        shared.variant,
        tally.ok,
        tally.removed,
        || shared.log_seq.fetch_add(1, Ordering::Relaxed),
        |client, action| shared.new_reservation(client, action),
    )
}

/// Registers a subscription several owners share and returns its status.
/// The other owners are parked at the rendezvous, so `votes` — a yes where
/// the action is permitted — are a consistent snapshot: the same guarantee
/// the blocking manager gets from holding all owner locks while registering.
fn subscribe_cross(
    shared: &RuntimeShared,
    client: ClientId,
    action: &Action,
    owners: &[usize],
    votes: &[Vote],
) -> bool {
    let permitted = shared.with_cross(|cross| {
        cross.subscribe(client, action, owners, || {
            votes.iter().map(|v| matches!(v, Vote::Yes)).collect()
        })
    });
    if let Some(hub) = &shared.durability {
        hub.log_subscribe(client, action, permitted);
    }
    permitted
}

/// What the last owner to apply does, once per operation, for one owner and
/// for many alike, with what the owners' `apply` left (`fx`, the default if
/// no owner had anything to apply): merge the bits of shared subscriptions,
/// count the statistics, deliver the notifications, index a new reservation
/// — and say what the client is told.
pub(super) fn finish(
    shared: &RuntimeShared,
    op: &Op,
    owners: &[usize],
    verdict: &Verdict,
    fx: Effects,
) -> Completion {
    let mut notes = fx.notes;
    if !fx.cross_bits.is_empty() {
        notes.extend(lock(&shared.cross_subscriptions).merge(&fx.cross_bits));
    }
    let mut total = verdict.total(op);
    total.notifications = notes.len() as u64;
    account(shared, total, fx.delta);
    deliver(shared, &notes);
    match (verdict, op) {
        (Verdict::Commit { .. }, Op::Execute { .. }) => {
            Completion::Executed { notifications: notes }
        }
        // The combined protocol commits an ask on the spot; the reply
        // carries no reservation to confirm.
        (Verdict::Commit { .. }, Op::Ask { .. }) => Completion::Granted { reservation: 0 },
        (Verdict::Commit { .. }, _) => Completion::Confirmed { notifications: notes },
        (Verdict::Reserve(reservation), _) => {
            lock(&shared.reservation_index).insert(reservation.id, owners.to_vec());
            if reservation.expires_at != u64::MAX {
                lock(&shared.timers).schedule(reservation.expires_at, reservation.id);
            }
            Completion::Granted { reservation: reservation.id }
        }
        (Verdict::Deny, _) => Completion::Denied,
        (Verdict::Unknown, Op::Confirm { id } | Op::Abort { id }) => {
            Completion::Failed { error: ManagerError::UnknownReservation { id: *id } }
        }
        (Verdict::Unknown, _) => Completion::Expired { reservation: None },
        (Verdict::Rejected(reservation), _) => Completion::Failed {
            error: ManagerError::RejectedConfirmation { action: reservation.action.to_string() },
        },
        (Verdict::Released(reservation), Op::Abort { .. }) => {
            Completion::Aborted { reservation: reservation.clone() }
        }
        (Verdict::Released(reservation), _) => {
            Completion::Expired { reservation: Some(reservation.clone()) }
        }
        (Verdict::Status(permitted), Op::Subscribe { .. }) => {
            Completion::Subscribed { permitted: *permitted }
        }
        (Verdict::Status(_), Op::Unsubscribe { .. }) => Completion::Unsubscribed,
        (Verdict::Status(permitted), _) => Completion::Status { permitted: *permitted },
    }
}

/// Counts one operation's statistics, once: `total` on the live counters
/// (asks aside — a submission counts as an ask when it arrives, whatever
/// becomes of it), and the part of it no shard record carried as an event on
/// the meta stream, so that recovered counters equal the live ones.
pub(super) fn account(shared: &RuntimeShared, total: ManagerStats, journaled: ManagerStats) {
    let count = |counter: &AtomicU64, n: u64| {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    };
    let stats = &shared.stats;
    count(&stats.grants, total.grants);
    count(&stats.denials, total.denials);
    count(&stats.confirmations, total.confirmations);
    count(&stats.expired_reservations, total.expired_reservations);
    count(&stats.aborted_reservations, total.aborted_reservations);
    count(&stats.notifications, total.notifications);
    if let Some(hub) = &shared.durability {
        hub.log_event(total.minus(&journaled));
    }
}

/// The rest of an operation whose only owner has voted: one owner is all
/// the owners, so conclude, apply and finish run inline.
pub(super) fn settle_single(
    shared: &RuntimeShared,
    st: &mut ShardState,
    op: &Op,
    vote: LocalVote,
) -> Completion {
    let owners = [st.id];
    let tally = Tally { ok: vote.ok, removed: vote.removed.as_ref(), votes: &[] };
    let verdict = conclude(shared, op, &owners, &tally);
    let fx = apply_local(shared, st, op, vote, &verdict, Role::Sole);
    finish(shared, op, &owners, &verdict, fx)
}

pub(super) fn process_single(
    shared: &RuntimeShared,
    st: &mut ShardState,
    task: SingleTask,
    cx: &mut WorkerCtx,
) {
    let SingleTask { op, ticket, submitted, .. } = task;
    let vote = vote_local(shared, st, &op);
    ticket.complete(settle_single(shared, st, &op, vote));
    cx.record(submitted);
}

/// Sends notifications to the registered per-client channels.  A channel
/// none of whose sessions is left fails its send and is dropped; a session
/// opened for the client later registers a fresh one.
pub(super) fn deliver(shared: &RuntimeShared, notes: &[Notification]) {
    if notes.is_empty() {
        return;
    }
    let mut channels = lock(&shared.notification_channels);
    for note in notes {
        if channels.get(&note.client).is_some_and(|channel| channel.send(note.clone()).is_err()) {
            channels.remove(&note.client);
        }
    }
}
