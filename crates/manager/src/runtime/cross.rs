//! The rendezvous of several owners ([`MultiTask`]), with the speculative
//! batch its executes coalesce into and the cascade of conditional votes.

use super::admission::Credit;
use super::drive::{account, apply_local, conclude, finish, settle_single, vote_local, Tally};
use super::repartition::ensure_single_route;
use super::slots::{help_one, Help, ShardSlot, SingleTask, Task, WorkerCtx, HELP_PARK};
use super::{read_topology, Completion, RuntimeShared, Topology};
use crate::error::ManagerError;
use crate::lock;
use crate::shard::{Effects, LocalVote, Op, Role, ShardState, Verdict, DENIED};
use crate::ticket::TicketIssuer;
use crate::ManagerStats;
use crate::Reservation;
use ix_core::Action;
use ix_state::{empty_reservation_fingerprint, StateRef};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Live counters of the conditional-vote cascade (all relaxed), read as
/// [`CascadeStats`].
#[derive(Default)]
pub(super) struct CascadeCounters {
    conditional_votes: AtomicU64,
    promoted_votes: AtomicU64,
    invalidated_votes: AtomicU64,
    cascaded_commits: AtomicU64,
}

impl CascadeCounters {
    pub(super) fn snapshot(&self) -> CascadeStats {
        CascadeStats {
            conditional_votes: self.conditional_votes.load(Ordering::Relaxed),
            promoted_votes: self.promoted_votes.load(Ordering::Relaxed),
            invalidated_votes: self.invalidated_votes.load(Ordering::Relaxed),
            cascaded_commits: self.cascaded_commits.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of the conditional-vote cascade counters
/// ([`ManagerRuntime::cascade_stats`](super::ManagerRuntime::cascade_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Conditional votes deposited.
    pub conditional_votes: u64,
    /// Conditional votes promoted to unconditional yes by a verified tag.
    pub promoted_votes: u64,
    /// Conditional votes cleared because a task they assumed was denied.
    pub invalidated_votes: u64,
    /// Commit decisions that included at least one promoted vote — chains
    /// that skipped a rendezvous round trip.
    pub cascaded_commits: u64,
}

/// An operation several shards own: enqueued onto every owner's queue (in
/// ascending order, under the enqueue lock); the owners rendezvous on `sync`
/// to vote, conclude and apply — the queue-based incarnation of the
/// two-phase commit.  An unsubscribe touches no shard, so `op` is never one.
///
/// Every operation but an execute deposits one unconditional vote per owner,
/// and the last owner to vote concludes ([`process_multi`]).  Executes — the
/// hot cross-shard operation — *coalesce*: a worker that dequeues one drains
/// the whole already-queued run of same-owner-set executes (plus the
/// single-owner executes interleaved between them) and walks it in one
/// speculative pass, maintaining a chain of tentative successor states
/// ([`process_batch`]).  Their votes come in strengths:
///
/// * an **unconditional no** decides the task as denied on the spot — the
///   conjunction is already false, no rendezvous happens at all, and a
///   mid-case shard insta-denies an entire run of barrier attempts in one
///   pass;
/// * an **unconditional yes** — deposited while the voter's chain has run
///   only through *known* outcomes — counts toward the commit; the vote
///   that completes the count decides `Commit` and assigns the log
///   sequence number;
/// * a **conditional yes** ([`Vote::Conditional`]) —
///   deposited when the chain has advanced through still-undecided
///   predecessors on the *assumption* that they commit.  The vote carries a
///   [`ValidityTag`] naming exactly those assumptions plus the epoch and
///   reservation fingerprint the probe ran under; it counts toward the
///   commit only once the tag *verifies* (every assumed task decided
///   commit, epoch unchanged, the voter's published reservation
///   fingerprint unchanged), at which point it is **promoted** to an
///   unconditional yes.  Promotion happens at every later vote deposit and
///   along the explicit [`cascade_from`] walk a fresh commit triggers — so
///   an all-commit chain cascades to decided with no additional rendezvous
///   round trips.  A denial anywhere in the assumed prefix makes the tag
///   permanently unverifiable (the denied task is named in it);
///   [`invalidate_downstream`] clears such votes eagerly, and the voter
///   re-deposits from the recomputed true state when its in-order
///   resolution pass reaches the task.
/// * a **conditional no** is never deposited: the voter stays silent and
///   votes at resolution.  Its task can never commit early (a commit needs
///   this owner's yes), so the chain's assumption that it denies is
///   self-fulfilling *given the voter's own prefix assumptions* — which
///   later conditional-yes tags carry anyway.
///
/// Each vote that decides a task was computed against that task's true
/// predecessor state (promotion verifies exactly this), so per-action
/// outcomes, the merged log and the statistics are identical to an
/// unbatched rendezvous; what changes is that owners park only on
/// commit-pending tasks whose outcome genuinely awaits another shard's
/// *first* vote, instead of once per barrier in a chain.  Whatever the
/// operation, owners wait for the verdict in [`await_verdict`] and the last
/// one to apply it finishes ([`apply_multi`]).
pub(super) struct MultiTask {
    /// The topology epoch the submission was routed under.
    pub(super) epoch: u64,
    /// Global rendezvous sequence ([`PoolCtl::seq`]) — the help-while-
    /// waiting ordering bound.
    pub(super) seq: u64,
    pub(super) owners: Vec<usize>,
    pub(super) op: Op,
    /// Submission instant (queue-metrics mode only).
    pub(super) submitted: Option<Instant>,
    /// Lock-free mirror of a commit verdict, written under the `sync` lock
    /// when the verdict is reached.  Tag verification reads it without
    /// taking the predecessor's lock — promotion only ever locks *forward*
    /// along the chain, so the cascade cannot deadlock with a voter walking
    /// the same chain.
    committed: AtomicBool,
    sync: Mutex<MultiSync>,
    barrier: Condvar,
}

impl MultiTask {
    /// Fails the ticket, unless an owner completed it: the queues are gone,
    /// and nobody will ever rendezvous.
    pub(super) fn disconnect(&self) {
        if let Some(issuer) = lock(&self.sync).ticket.take() {
            issuer.complete(Completion::Failed { error: ManagerError::Disconnected });
        }
    }
}

/// One owner's vote on a [`MultiTask`].
pub(super) enum Vote {
    /// Not deposited yet.
    Pending,
    /// Unconditional yes (deposited, or promoted from a verified
    /// conditional vote).
    Yes,
    /// Unconditional no.  It settles an execute as denied on the spot; the
    /// other operations conclude once every owner voted, and read the
    /// per-owner bits (a shared subscription starts from them).
    No,
    /// Yes, assuming the tag's prefix outcomes — counts only once promoted.
    Conditional(ValidityTag),
}

/// The compact witness a conditional vote carries: the exact assumptions
/// its speculative probe ran under.  The vote may be promoted to an
/// unconditional yes iff every field still verifies at decide time.
pub(super) struct ValidityTag {
    /// Topology epoch the probe ran under; a repartition in between makes
    /// the tag unverifiable and the voter re-votes through the re-routed
    /// task (stale-route machinery).
    epoch: u64,
    /// The voting shard (key of its published reservation fingerprint).
    shard: usize,
    /// Fingerprint of the voter's reservation table at probe time
    /// ([`Engine::reservation_fingerprint`]); promotion requires the
    /// shard's currently published fingerprint to match, proving the
    /// reservation-aware part of the probe still holds.
    reservation_fp: u64,
    /// Every same-owner-set predecessor the chain advanced through on an
    /// assumed *commit* (full prefix, not a delta — one membership check
    /// suffices to invalidate).  Weak: tags must not keep dead tasks alive;
    /// an unupgradable entry makes the tag unverifiable, never a false
    /// promotion.  Assumed *denials* are not listed: each is the voter's
    /// own withheld no, whose base assumptions are a subset of this list.
    assumed: Option<Arc<AssumedLink>>,
}

/// One link of a validity tag's assumed-commit prefix.  The prefix is a
/// persistent cons list shared structurally between the tags of one
/// speculative pass: advancing the chain conses one link, and every tag
/// snapshot is an O(1) `Arc` clone of the current head — without the
/// sharing, a depth-`d` coalesced chain would clone O(d²) `Weak` handles
/// per owner, which dominated the cascade's cost on deep batches.
struct AssumedLink {
    /// The assumed-committed predecessor.
    task: std::sync::Weak<MultiTask>,
    /// The assumptions made before it, in reverse queue order.
    prev: Option<Arc<AssumedLink>>,
}

/// Iterates a tag's assumed-commit prefix (most recent assumption first).
fn assumed_iter(
    head: &Option<Arc<AssumedLink>>,
) -> impl Iterator<Item = &std::sync::Weak<MultiTask>> {
    let mut cursor = head.as_ref();
    std::iter::from_fn(move || {
        let link = cursor?;
        cursor = link.prev.as_ref();
        Some(&link.task)
    })
}

struct MultiSync {
    /// Stale-route verdict, recorded by the first owner that examines an
    /// epoch-stale task; the other owners follow it so the rendezvous can
    /// never be half-retried.  `Some(true)` means the owner set widened and
    /// the task was re-dispatched through the current topology.
    stale: Option<bool>,
    /// Per-owner votes, aligned with `owners`.
    votes: Vec<Vote>,
    /// Number of unconditional (deposited or promoted) yes votes; an
    /// execute commits at `owners.len()`.
    yes_votes: usize,
    /// Whether any vote was ever promoted from a conditional — a commit
    /// with this set counts as a cascaded commit in the diagnostics.
    promoted_any: bool,
    /// Next same-owner-set execute in queue order, linked idempotently by
    /// every owner that coalesces the two into one batch (queue order is
    /// identical on every shared queue, so the links agree).  Forward Arcs
    /// only — the backward references of the validity tags are Weak, so the
    /// chain is cycle-free.
    cascade_next: Option<Arc<MultiTask>>,
    /// The reservation a confirm, abort or expiry removed (identical copies
    /// on every owner that held it).
    removed: Option<Reservation>,
    /// The verdict, set exactly once (a commit mirrored in
    /// [`MultiTask::committed`]).
    verdict: Option<Verdict>,
    /// Owners that have applied the verdict so far.
    applied: usize,
    /// What those of them that had anything left for [`finish`], tagged with
    /// the owner position.
    effects: Vec<(usize, Effects)>,
    ticket: Option<TicketIssuer<Completion>>,
}

/// Coalesces the already-queued consecutive run of same-owner-set executes
/// behind `first` — plus the single-owner executes interleaved between them
/// — into one speculative batch: the rendezvous votes once per batch instead
/// of once per action.  The task that ends the run, or lies past the help
/// bound `limit`, stays queued.
pub(super) fn coalesce(
    shared: &Arc<RuntimeShared>,
    slot: &ShardSlot,
    st: &ShardState,
    first: Arc<MultiTask>,
    limit: u64,
    divert_below: &mut u64,
) -> Batch {
    let mut batch = Batch::new(first);
    while batch.items.len() < MAX_BATCH {
        let joins = |task: &Task| match task {
            Task::Multi(next) => {
                next.owners == batch.owners
                    && next.seq <= limit
                    && matches!(next.op, Op::Execute { .. })
            }
            Task::Single(single) => matches!(single.op, Op::Execute { .. }),
            _ => false,
        };
        match slot.pop_if(joins) {
            Some(Task::Multi(next)) => {
                if multi_is_live(shared, &next, divert_below) {
                    batch.push_exec(next)
                }
            }
            Some(Task::Single(single)) => {
                if let Some(single) = ensure_single_route(shared, st, single, divert_below) {
                    batch.push_local(single)
                }
            }
            Some(_) => unreachable!("only executes join a batch"),
            None => break,
        }
    }
    batch
}

// ---------------------------------------------------------------------------
// The coalesced multi-owner execute rendezvous.
// ---------------------------------------------------------------------------

/// Enqueues an already-issued operation onto every owner's queue in
/// ascending order.  The caller must hold the cross-enqueue lock — the
/// ordered-enqueue incarnation of the 2PC lock order: under it the task
/// draws its rendezvous sequence, and the sends fix its relative order in
/// every queue it shares.
pub(super) fn enqueue_multi(
    topo: &Topology,
    owners: Vec<usize>,
    op: Op,
    issuer: TicketIssuer<Completion>,
    submitted: Option<Instant>,
    credit: Credit,
) {
    if credit == Credit::Charge {
        for &owner in &owners {
            topo.slots[owner].gate.charge(1);
        }
    }
    let votes = owners.iter().map(|_| Vote::Pending).collect();
    let task = Arc::new(MultiTask {
        epoch: topo.epoch(),
        seq: topo.pool.seq.fetch_add(1, Ordering::Relaxed) + 1,
        owners,
        op,
        submitted,
        committed: AtomicBool::new(false),
        sync: Mutex::new(MultiSync {
            stale: None,
            votes,
            yes_votes: 0,
            promoted_any: false,
            cascade_next: None,
            removed: None,
            verdict: None,
            applied: 0,
            effects: Vec::new(),
            ticket: Some(issuer),
        }),
        barrier: Condvar::new(),
    });
    for &owner in &task.owners {
        // A shard only finishes when the runtime is going: nobody will
        // ever rendezvous, and the failed send failed the ticket.
        if !topo.send(owner, Task::Multi(Arc::clone(&task))) {
            return;
        }
    }
}

/// Decides whether an epoch-stale multi-owner task is still correctly
/// routed.  The verdict is recorded in the task's rendezvous state by the
/// **first** owner that examines it, and every other owner follows that
/// record — a rendezvous is either processed by all of its owners or
/// re-dispatched by exactly one and skipped by the rest, never half/half.
/// (The pause barriers guarantee that a task whose owner set actually
/// widened is seen by *all* of its owners only after the migration, so a
/// recorded verdict can never contradict an already-deposited vote.)
pub(super) fn multi_is_live(
    shared: &Arc<RuntimeShared>,
    task: &Arc<MultiTask>,
    divert_below: &mut u64,
) -> bool {
    if task.epoch == shared.epoch.load(Ordering::Acquire) {
        return true;
    }
    let mut sync = lock(&task.sync);
    if let Some(stale) = sync.stale {
        if stale {
            // A skipped (re-dispatched) task raises this follower's divert
            // watermark too: stale-stamped tasks behind it on our queue
            // must not run ahead of the re-dispatched copy.
            *divert_below = (*divert_below).max(shared.epoch.load(Ordering::Acquire));
        }
        return !stale;
    }
    if sync.votes.iter().any(|v| !matches!(v, Vote::Pending)) || sync.verdict.is_some() {
        // Somebody already voted (even conditionally) under the old epoch,
        // so the owner set cannot have changed (its owners could not
        // straddle a migration).
        sync.stale = Some(false);
        return true;
    }
    let current = shared.topology.upgrade().map(|slot| read_topology(&slot));
    let owners = current.as_ref().and_then(|topo| match &task.op {
        Op::Confirm { id } | Op::Abort { id } | Op::Expire { id, .. } => {
            lock(&shared.reservation_index).get(id).cloned()
        }
        Op::Execute { action }
        | Op::Ask { action, .. }
        | Op::Subscribe { action, .. }
        | Op::Unsubscribe { action, .. }
        | Op::Query { action } => Some(topo.partition.owners_of(action)),
    });
    let (stale, owners) = match owners {
        Some(owners) if owners != task.owners => (true, owners),
        _ => (false, Vec::new()),
    };
    sync.stale = Some(stale);
    if !stale {
        return true;
    }
    // This owner re-dispatches with the original ticket; the rest skip.
    // The rendezvous lock is held across the re-enqueue so a follower that
    // observes the stale verdict is guaranteed the re-dispatched copy is
    // already at the queue tails — tasks it diverts afterwards land behind
    // it, preserving the backlog order.
    lock(&shared.repart).rerouted_tasks += 1;
    let issuer = sync.ticket.take();
    if let (Some(topo), Some(issuer)) = (current, issuer) {
        *divert_below = topo.epoch();
        let _guard = lock(&shared.cross_enqueue);
        let op = task.op.clone();
        enqueue_multi(&topo, owners, op, issuer, task.submitted, Credit::Charge);
    }
    false
}

/// Upper bound on the items one speculative batch may absorb — bounds the
/// cost of recomputing a speculation tail after a denial.
const MAX_BATCH: usize = 128;

/// Records the verdict: the single place `MultiSync::verdict` is set.
/// Mirrors a commit into the lock-free [`MultiTask::committed`] flag (read
/// by tag verification without taking this task's lock) and wakes parked
/// owners.
fn set_verdict(task: &MultiTask, sync: &mut MultiSync, verdict: Verdict) {
    task.committed.store(matches!(verdict, Verdict::Commit { .. }), Ordering::Release);
    sync.verdict = Some(verdict);
    task.barrier.notify_all();
}

/// Verifies a conditional vote's validity tag: the epoch is unchanged, the
/// voter's published reservation fingerprint still matches the one its
/// probe ran against, and every assumed predecessor actually decided
/// commit.  All three are machine-checked witnesses — a verified tag means
/// the vote equals the unconditional vote a recompute would produce.
fn tag_valid(shared: &RuntimeShared, tag: &ValidityTag) -> bool {
    if tag.epoch != shared.epoch.load(Ordering::Acquire) {
        return false;
    }
    let published = lock(&shared.reservation_fps)
        .get(&tag.shard)
        .copied()
        .unwrap_or_else(empty_reservation_fingerprint);
    if published != tag.reservation_fp {
        return false;
    }
    assumed_iter(&tag.assumed)
        .all(|w| w.upgrade().is_some_and(|t| t.committed.load(Ordering::Acquire)))
}

/// Promotes every conditional vote whose tag verifies and, when the
/// unconditional count reaches the owner count, decides `Commit`.  Returns
/// whether *this call* decided — the caller propagates the commit along the
/// cascade links once the lock is dropped.
fn try_decide_exec(shared: &RuntimeShared, task: &MultiTask, sync: &mut MultiSync) -> bool {
    if sync.verdict.is_some() {
        return false;
    }
    if sync.yes_votes < task.owners.len() {
        // Promotion can only complete a decision once *every* slot holds a
        // yes or a tagged yes — with any slot still pending the commit is
        // short regardless, so verifying tags early is pure waste that the
        // next deposit would repeat.  The gate keeps the cascade's tag
        // checks linear in the chain instead of quadratic.
        let conditionals = sync.votes.iter().filter(|v| matches!(v, Vote::Conditional(_))).count();
        if sync.yes_votes + conditionals == task.owners.len() {
            let mut promoted = 0u64;
            for vote in sync.votes.iter_mut() {
                if let Vote::Conditional(tag) = vote {
                    if tag_valid(shared, tag) {
                        *vote = Vote::Yes;
                        sync.yes_votes += 1;
                        promoted += 1;
                    }
                }
            }
            if promoted > 0 {
                sync.promoted_any = true;
                shared.cascade_counters.promoted_votes.fetch_add(promoted, Ordering::Relaxed);
            }
        }
    }
    if sync.yes_votes == task.owners.len() {
        if sync.promoted_any {
            shared.cascade_counters.cascaded_commits.fetch_add(1, Ordering::Relaxed);
        }
        let order = shared.log_seq.fetch_add(1, Ordering::Relaxed);
        set_verdict(task, sync, Verdict::Commit { order, granted: true });
        return true;
    }
    false
}

/// Deposits this owner's *unconditional* vote on an execute and decides the
/// task when the vote settles it: a no decides `Deny` immediately (the
/// conjunction is false) and finishes it, while a yes triggers promotion of
/// any verifiable conditional votes and decides `Commit` when the count
/// completes.  Returns whether this call decided.  Must only be called when
/// the outcome of every same-owner-set predecessor is known to the caller
/// and reflected in the vote's base state.  Supersedes this owner's own
/// earlier conditional vote, never an unconditional one.
fn deposit_unconditional_vote(
    shared: &RuntimeShared,
    task: &MultiTask,
    sync: &mut MultiSync,
    pos: usize,
    yes: bool,
    cx: &mut WorkerCtx,
) -> bool {
    if sync.verdict.is_some() || matches!(sync.votes[pos], Vote::Yes) {
        return false;
    }
    if yes {
        sync.votes[pos] = Vote::Yes;
        sync.yes_votes += 1;
        try_decide_exec(shared, task, sync)
    } else {
        sync.votes[pos] = Vote::No;
        finish_multi(shared, task, sync, &Verdict::Deny, cx);
        set_verdict(task, sync, Verdict::Deny);
        true
    }
}

/// Deposits this owner's *conditional* yes vote: the chain advanced through
/// still-undecided predecessors, and `tag` names exactly the assumptions the
/// probe ran under.  The deposit itself runs a decide attempt — the
/// assumptions may already have resolved between the probe and this lock
/// acquisition.
fn deposit_conditional_vote(
    shared: &RuntimeShared,
    task: &MultiTask,
    sync: &mut MultiSync,
    pos: usize,
    tag: ValidityTag,
) -> bool {
    if sync.verdict.is_some() || matches!(sync.votes[pos], Vote::Yes) {
        return false;
    }
    shared.cascade_counters.conditional_votes.fetch_add(1, Ordering::Relaxed);
    sync.votes[pos] = Vote::Conditional(tag);
    try_decide_exec(shared, task, sync)
}

/// Walks the cascade links forward from a freshly committed task, promoting
/// and deciding successors whose conditional votes now verify — the
/// rendezvous-free decided path.  Stops at the first task the walk leaves
/// undecided: its missing votes await a genuinely unresolved owner, not
/// this commit.  Locks strictly forward along the chain, so it cannot
/// deadlock with a voter holding an earlier task's lock.
fn cascade_from(shared: &RuntimeShared, task: &Arc<MultiTask>) {
    let mut cur = Arc::clone(task);
    loop {
        let next = lock(&cur.sync).cascade_next.clone();
        let Some(next) = next else { break };
        if !try_decide_exec(shared, &next, &mut lock(&next.sync)) {
            break;
        }
        cur = next;
    }
}

/// Walks the cascade links forward from a denied task, clearing every
/// conditional vote whose tag assumed the denied commit.  Correctness does
/// not depend on this — such a tag names the denied task and can never
/// verify again — but eager clearing spares every later decide attempt the
/// doomed verification, and the voters re-deposit from the recomputed true
/// state when their in-order resolution passes reach the tasks.
fn invalidate_downstream(shared: &RuntimeShared, denied: &Arc<MultiTask>) {
    let denied_ptr = Arc::as_ptr(denied);
    let mut cur = Arc::clone(denied);
    loop {
        let next = lock(&cur.sync).cascade_next.clone();
        let Some(next) = next else { break };
        {
            let mut sync = lock(&next.sync);
            if sync.verdict.is_none() {
                let mut cleared = 0u64;
                for vote in sync.votes.iter_mut() {
                    if let Vote::Conditional(tag) = vote {
                        if assumed_iter(&tag.assumed).any(|w| std::ptr::eq(w.as_ptr(), denied_ptr))
                        {
                            *vote = Vote::Pending;
                            cleared += 1;
                        }
                    }
                }
                if cleared > 0 {
                    shared.cascade_counters.invalidated_votes.fetch_add(cleared, Ordering::Relaxed);
                }
            }
        }
        cur = next;
    }
}

/// Cascades or invalidates along the chain links for every task the caller
/// decided while holding its rendezvous lock.  Must be called with no
/// rendezvous lock held — the walks lock forward along the chain.
fn propagate_decisions(shared: &RuntimeShared, decided: &mut Vec<Arc<MultiTask>>) {
    for task in decided.drain(..) {
        if task.committed.load(Ordering::Acquire) {
            cascade_from(shared, &task);
        } else {
            invalidate_downstream(shared, &task);
        }
    }
}

/// One speculative batch: a consecutive queue run of multi-owner executes of
/// a single owner set plus the single-owner executes interleaved between
/// them, in queue order.
pub(super) struct Batch {
    owners: Vec<usize>,
    items: Vec<BatchItem>,
}

enum BatchItem {
    /// A multi-owner execute (rendezvous task).
    Exec(Arc<MultiTask>),
    /// A single-owner execute, taken when the item resolves.
    Local(Option<SingleTask>),
}

impl BatchItem {
    /// The executed action of an item not resolved yet.
    fn action(&self) -> &Action {
        let op = match self {
            BatchItem::Exec(task) => &task.op,
            BatchItem::Local(task) => &task.as_ref().expect("an unresolved item").op,
        };
        let Op::Execute { action } = op else {
            unreachable!("only execute tasks join a batch");
        };
        action
    }
}

impl Batch {
    fn new(first: Arc<MultiTask>) -> Batch {
        Batch { owners: first.owners.clone(), items: vec![BatchItem::Exec(first)] }
    }

    fn push_exec(&mut self, task: Arc<MultiTask>) {
        // Link the queue-order predecessor to this task.  Every owner
        // coalesces the identical queue run (enqueue order = lock order),
        // so each sets the same link; the first write wins and the rest are
        // no-ops.
        if let Some(prev) = self.items.iter().rev().find_map(|item| match item {
            BatchItem::Exec(t) => Some(t),
            BatchItem::Local(_) => None,
        }) {
            let mut sync = lock(&prev.sync);
            if sync.cascade_next.is_none() {
                sync.cascade_next = Some(Arc::clone(&task));
            }
        }
        self.items.push(BatchItem::Exec(task));
    }

    fn push_local(&mut self, task: SingleTask) {
        self.items.push(BatchItem::Local(Some(task)));
    }
}

/// Speculative outcome of one batch item on this shard.
enum Spec {
    /// A multi-owner execute's local vote: `prepared` carries the tentative
    /// successor of a yes vote; `assumed` is true iff the chain advanced
    /// through this task on an *assumption* (our yes vote deposited or held
    /// back while the task was undecided) rather than a known outcome —
    /// only those assumptions can fail and force a tail recompute.
    Vote { prepared: Option<StateRef>, assumed: bool },
    /// A single-owner execute accepted on the chain, with its successor.
    Accept(StateRef),
    /// A single-owner execute denied on the chain.
    Deny,
    /// Already resolved and applied.
    Done,
}

/// Scratch state shared between the speculative and resolution passes of
/// [`process_batch`]: the per-item verdicts and the tasks decided while a
/// rendezvous lock was held (propagated along the cascade links once no
/// lock is held).
struct SpecPass {
    specs: Vec<Spec>,
    decided: Vec<Arc<MultiTask>>,
}

/// The speculative pass over `batch[from..]` on this shard.
///
/// Walks the items in queue order maintaining a chain of tentative
/// successors.  As long as the chain is *unconditional* — every multi-owner
/// execute so far was already decided, insta-denied by this shard's own no
/// vote, or committed by this shard's completing yes vote — votes are
/// deposited (and tasks decided) on the spot.  The first yes vote that
/// leaves a task undecided makes the rest of the chain conditional: later
/// yes votes are still deposited, as [`Vote::Conditional`] tagged with the
/// exact assumptions the chain ran through, so the prefix resolving
/// all-commit decides the whole chain with no further rendezvous.
/// Tasks decided along the way are pushed onto `decided` for the caller
/// to propagate along the cascade links once no lock is held.
fn compute_specs(
    shared: &RuntimeShared,
    st: &ShardState,
    batch: &Batch,
    from: usize,
    pos: usize,
    pass: &mut SpecPass,
    cx: &mut WorkerCtx,
) {
    let SpecPass { specs, decided } = pass;
    specs.truncate(from);
    let epoch = shared.epoch.load(Ordering::Acquire);
    let mut chain: Option<StateRef> = None;
    let mut unconditional = true;
    // The assumed-commit prefix of the conditional chain — a persistent
    // cons list every later conditional vote's tag snapshots in O(1).
    let mut assumed_commits: Option<Arc<AssumedLink>> = None;
    for item in &batch.items[from..] {
        let (next, reservation_fp) = st.probe(chain.as_ref(), item.action());
        match item {
            BatchItem::Local(_) => {
                // A single-owner execute: decided by this shard alone, but
                // only *applied* at resolution, in queue order.
                match next {
                    Some(nx) => {
                        chain = Some(nx.clone());
                        specs.push(Spec::Accept(nx));
                    }
                    None => specs.push(Spec::Deny),
                }
            }
            BatchItem::Exec(task) => {
                let mut assumed = false;
                {
                    let mut sync = lock(&task.sync);
                    match &sync.verdict {
                        Some(Verdict::Commit { .. }) => {
                            // A commit requires this shard's vote, which is
                            // deposited at most once per task — so a commit
                            // observed here carries our earlier yes, and
                            // the chain advances on the known outcome.
                            if let Some(nx) = &next {
                                chain = Some(nx.clone());
                            }
                        }
                        Some(_) => {
                            // Denied, an outcome already known: the chain
                            // skips it.
                        }
                        None => {
                            if unconditional {
                                let yes = next.is_some();
                                if deposit_unconditional_vote(shared, task, &mut sync, pos, yes, cx)
                                {
                                    decided.push(Arc::clone(task));
                                }
                            } else if next.is_some() {
                                // A yes on a conditional chain: deposit it
                                // tagged with the assumptions instead of
                                // holding it back.  (A conditional *no*
                                // stays withheld — its task cannot commit
                                // without our yes, so silence is safe.)
                                let tag = ValidityTag {
                                    epoch,
                                    shard: st.id,
                                    reservation_fp,
                                    assumed: assumed_commits.clone(),
                                };
                                if deposit_conditional_vote(shared, task, &mut sync, pos, tag) {
                                    decided.push(Arc::clone(task));
                                }
                            }
                            match (&sync.verdict, &next) {
                                (Some(Verdict::Commit { .. }), Some(nx)) => {
                                    // Our yes completed the commit (possibly
                                    // by promoting the other owners' tagged
                                    // votes): outcome known, chain advances.
                                    chain = Some(nx.clone());
                                }
                                (Some(_), _) | (_, None) => {
                                    // Insta-denied by our no, or a (possibly
                                    // conditional) no vote: the chain skips
                                    // it either way.  (A commit can never
                                    // coexist with our no vote — it requires
                                    // this shard's yes.)
                                }
                                (None, Some(nx)) => {
                                    // A yes on an undecided task — deposited
                                    // (conditionally past the first) with
                                    // the chain *assuming* the commit from
                                    // here on.
                                    chain = Some(nx.clone());
                                    assumed = true;
                                    unconditional = false;
                                    assumed_commits = Some(Arc::new(AssumedLink {
                                        task: Arc::downgrade(task),
                                        prev: assumed_commits.take(),
                                    }));
                                }
                            }
                        }
                    }
                }
                specs.push(Spec::Vote { prepared: next, assumed });
            }
        }
    }
}

/// Processes one speculative batch.  The speculative pass votes for (and
/// often outright decides) the whole run without parking; the resolution
/// pass then walks the batch strictly in queue order, applying every item
/// against its true predecessor state — when a commit assumption turns out
/// wrong, the tail of the speculation is recomputed before the next vote is
/// deposited.
///
/// Per-action outcomes, the merged log and the statistics are identical to
/// unbatched queue processing; what changes is that owners park only on
/// commit-pending rendezvous instead of once per cross-shard action.
pub(super) fn process_batch(
    shared: &Arc<RuntimeShared>,
    st: &mut ShardState,
    mut batch: Batch,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
) {
    let pos = batch
        .owners
        .iter()
        .position(|&o| o == st.id)
        .expect("multi-owner task routed to a non-owner shard");

    // ---- Speculative pass: one chain over the whole batch. ----
    let mut pass = SpecPass {
        specs: Vec::with_capacity(batch.items.len()),
        // Tasks decided while holding a rendezvous lock, propagated along
        // the cascade links as soon as the lock is dropped.
        decided: Vec::new(),
    };
    compute_specs(shared, st, &batch, 0, pos, &mut pass, cx);
    propagate_decisions(shared, &mut pass.decided);

    // ---- Resolution pass: strictly in queue order. ----
    // True while the outcomes observed so far match the assumptions the
    // current `specs` tail was computed under.
    let mut valid = true;
    for i in 0..batch.items.len() {
        if !valid {
            // A commit assumption failed at an earlier item: rebuild the
            // tail from the true committed state.  The chain is
            // unconditional again up to its first undecided yes.
            compute_specs(shared, st, &batch, i, pos, &mut pass, cx);
            propagate_decisions(shared, &mut pass.decided);
            valid = true;
        }
        let spec = std::mem::replace(&mut pass.specs[i], Spec::Done);
        let task = match &mut batch.items[i] {
            BatchItem::Exec(task) => Arc::clone(task),
            BatchItem::Local(task) => {
                let SingleTask { op, ticket, submitted, .. } =
                    task.take().expect("local resolved once");
                let completion = match spec {
                    Spec::Accept(next) => {
                        let vote = LocalVote { ok: true, prepared: Some(next), removed: None };
                        settle_single(shared, st, &op, vote)
                    }
                    Spec::Deny => {
                        account(shared, DENIED, ManagerStats::ZERO);
                        Completion::Denied
                    }
                    _ => unreachable!("a local item resolves once, on its own spec"),
                };
                ticket.complete(completion);
                cx.record(submitted);
                continue;
            }
        };
        let Spec::Vote { prepared, assumed } = spec else {
            unreachable!("a multi-owner item resolves once, on its vote");
        };
        // Reaching this item in order means every predecessor's outcome is
        // known and reflected in `specs`: the vote is unconditional now,
        // superseding a tagged one deposited by the speculative pass.  (A
        // vote that decides leaves nothing to wait for.)
        let mut sync = lock(&task.sync);
        let yes = prepared.is_some();
        if deposit_unconditional_vote(shared, &task, &mut sync, pos, yes, cx) {
            pass.decided.push(Arc::clone(&task));
        }
        let verdict = await_verdict(shared, &task, sync, help, cx);
        propagate_decisions(shared, &mut pass.decided);
        match verdict {
            // A commit requires this shard's yes vote, and with it the
            // prepare `apply` installs.
            Verdict::Commit { .. } => {
                let vote = LocalVote { ok: true, prepared, removed: None };
                apply_multi(shared, st, &task, pos, vote, &verdict, cx);
            }
            // The chain assumed this commit; the tail must be recomputed
            // against the true state.
            _ if assumed => valid = false,
            _ => {}
        }
    }
    propagate_decisions(shared, &mut pass.decided);
}

/// A multi-owner operation other than an execute, on one of its owners:
/// deposit this owner's unconditional vote — the last owner to vote
/// concludes — then wait for the verdict and apply it.  While any owner is
/// parked here its engine cannot move: the rendezvous is the queue-based
/// equivalent of holding all owner locks.
pub(super) fn process_multi(
    shared: &Arc<RuntimeShared>,
    st: &mut ShardState,
    task: &MultiTask,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
) {
    let pos = task
        .owners
        .iter()
        .position(|&o| o == st.id)
        .expect("multi-owner task routed to a non-owner shard");
    let vote = vote_local(shared, st, &task.op);
    let mut sync = lock(&task.sync);
    sync.votes[pos] = if vote.ok { Vote::Yes } else { Vote::No };
    if sync.removed.is_none() {
        sync.removed.clone_from(&vote.removed);
    }
    if sync.votes.iter().all(|v| !matches!(v, Vote::Pending)) {
        let ok = sync.votes.iter().all(|v| matches!(v, Vote::Yes));
        let tally = Tally { ok, removed: sync.removed.as_ref(), votes: &sync.votes };
        let verdict = conclude(shared, &task.op, &task.owners, &tally);
        if !verdict.applies() {
            // Nothing to apply anywhere: the others only need to see the
            // verdict and move on.
            finish_multi(shared, task, &mut sync, &verdict, cx);
        }
        set_verdict(task, &mut sync, verdict);
    }
    let verdict = await_verdict(shared, task, sync, help, cx);
    if verdict.applies() {
        apply_multi(shared, st, task, pos, vote, &verdict, cx);
    }
}

/// Waits at a multi-owner task's rendezvous until its verdict is in, and
/// returns it.  Help-while-waiting: a co-owner's vote may be queued behind
/// another shard this same worker owns — with fewer workers than shards,
/// parking unconditionally here would deadlock the rendezvous.  So each
/// round serves one task from an owned sibling shard ([`help_one`], bounded
/// by this task's sequence), and parks briefly only when nothing helps (a
/// verdict wakes the barrier at once; the timeout just bounds how long
/// fresh enqueues on sibling shards go unseen).
fn await_verdict<'a>(
    shared: &Arc<RuntimeShared>,
    task: &'a MultiTask,
    mut sync: MutexGuard<'a, MultiSync>,
    help: &Help<'_>,
    cx: &mut WorkerCtx,
) -> Verdict {
    loop {
        if let Some(verdict) = &sync.verdict {
            return verdict.clone();
        }
        drop(sync);
        if !help_one(shared, help, cx, task.seq) {
            cx.flush(shared);
            sync = lock(&task.sync);
            if sync.verdict.is_none() {
                sync =
                    task.barrier.wait_timeout(sync, HELP_PARK).unwrap_or_else(|e| e.into_inner()).0;
            }
            continue;
        }
        sync = lock(&task.sync);
    }
}

/// Phase 2 of a multi-owner operation on this owner; the last owner to
/// apply finishes it.
fn apply_multi(
    shared: &RuntimeShared,
    st: &mut ShardState,
    task: &MultiTask,
    pos: usize,
    vote: LocalVote,
    verdict: &Verdict,
    cx: &mut WorkerCtx,
) {
    let fx = apply_local(shared, st, &task.op, vote, verdict, Role::at(pos));
    let mut sync = lock(&task.sync);
    sync.applied += 1;
    if !fx.is_empty() {
        sync.effects.push((pos, fx));
    }
    if sync.applied == task.owners.len() {
        finish_multi(shared, task, &mut sync, verdict, cx);
    }
}

/// [`finish`] for a multi-owner operation, completing its ticket.
fn finish_multi(
    shared: &RuntimeShared,
    task: &MultiTask,
    sync: &mut MultiSync,
    verdict: &Verdict,
    cx: &mut WorkerCtx,
) {
    let fx = Effects::merged(&mut sync.effects);
    let completion = finish(shared, &task.op, &task.owners, verdict, fx);
    if let Some(issuer) = sync.ticket.take() {
        issuer.complete(completion);
    }
    cx.record(task.submitted);
}
