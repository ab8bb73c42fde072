//! The subscription protocol (Fig. 10, right side).
//!
//! Clients subscribe to actions they are interested in; whenever a state
//! transition changes the permissibility of a subscribed action from
//! permissible to non-permissible or vice versa, the manager sends an
//! informational message.  Clients use these messages to keep users'
//! worklists up to date and to wait passively instead of busy-polling.
//!
//! The registry is indexed by the *abstract* action each subscribed concrete
//! action can match (the shard-alphabet entry that covers it), and every
//! entry caches its last reported status.  The index narrows lookups —
//! subscribe, unsubscribe, and status resolve through the matching abstract
//! group instead of scanning every entry — and the cached status halves the
//! per-commit cost: one permissibility probe per entry instead of the
//! before/after double probe of a snapshot diff.
//!
//! The *per-commit* narrowing is at shard granularity, not per abstract
//! action, and deliberately so: a commit may flip the permissibility of any
//! entry of the shard it touched, including entries whose abstract action
//! is unrelated to the committed one (committing `call(1, sono)` flips
//! `perform(1, sono)` and `call(1, endo)` under the Fig. 3 constraint), so
//! probing fewer entries of a touched shard would be unsound.  The sound
//! lever is the fine-grained partition: registries live per shard, and
//! [`SubscriptionRegistry::refresh`] runs only on the shards a commit
//! actually touched — the finer the partition, the fewer entries per probe.
//!
//! An action several shards own has no single registry to live in: its
//! status is the conjunction of the owners' votes.  Such subscriptions live
//! in one manager-wide `CrossSubscriptions`, the same for the blocking
//! manager and the runtime, which caches one bit per owner and merges the
//! bits a commit's owners report.

use ix_core::Action;
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of an interaction client.
pub type ClientId = u64;

/// The snapshot form of one registry entry:
/// `(abstract key, subscribed action, clients, cached status)`.
pub type SubscriptionRow = (Action, Action, Vec<ClientId>, bool);

/// A status-change notification sent to a subscriber.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notification {
    /// The subscriber.
    pub client: ClientId,
    /// The subscribed action whose status changed.
    pub action: Action,
    /// The new status: true = permissible, false = not permissible.
    pub permitted: bool,
}

/// One subscribed concrete action: its subscribers and the status it last
/// reported.
#[derive(Clone, Debug)]
struct SubEntry {
    /// Subscribed clients (sorted, deduplicated).
    clients: Vec<ClientId>,
    /// The last status reported for this action — the baseline the next
    /// [`SubscriptionRegistry::refresh`] diffs against.
    permitted: bool,
}

/// The registry of active subscriptions, indexed by abstract action.
#[derive(Clone, Debug, Default)]
pub struct SubscriptionRegistry {
    /// abstract action (alphabet entry) -> concrete action -> entry.
    by_abstract: BTreeMap<Action, BTreeMap<Action, SubEntry>>,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> SubscriptionRegistry {
        SubscriptionRegistry::default()
    }

    /// Adds a subscription (idempotent) under the abstract action `key` (the
    /// alphabet entry covering `action`; callers outside any alphabet pass
    /// the action itself).  `permitted` initializes the cached status for a
    /// new entry; an existing entry keeps its cache.  Returns the entry's
    /// current cached status.
    pub fn subscribe(
        &mut self,
        client: ClientId,
        action: Action,
        key: Action,
        permitted: bool,
    ) -> bool {
        let entry = self
            .by_abstract
            .entry(key)
            .or_default()
            .entry(action)
            .or_insert(SubEntry { clients: Vec::new(), permitted });
        if !entry.clients.contains(&client) {
            entry.clients.push(client);
            entry.clients.sort_unstable();
        }
        entry.permitted
    }

    /// Removes a subscription.  Resolved through the abstract index: only
    /// groups whose key shares the action's name and arity are probed (a
    /// concrete action is registered under exactly one such key).
    pub fn unsubscribe(&mut self, client: ClientId, action: &Action) {
        let mut emptied = None;
        for (key, entries) in self.by_abstract.iter_mut() {
            if key.name() != action.name() || key.arity() != action.arity() {
                continue;
            }
            if let Some(entry) = entries.get_mut(action) {
                entry.clients.retain(|c| *c != client);
                if entry.clients.is_empty() {
                    entries.remove(action);
                    if entries.is_empty() {
                        emptied = Some(key.clone());
                    }
                }
                break;
            }
        }
        if let Some(key) = emptied {
            self.by_abstract.remove(&key);
        }
    }

    /// Number of (action, client) subscription pairs.
    pub fn len(&self) -> usize {
        self.by_abstract.values().flat_map(|e| e.values()).map(|e| e.clients.len()).sum()
    }

    /// True if nobody is subscribed to anything.
    pub fn is_empty(&self) -> bool {
        self.by_abstract.is_empty()
    }

    /// Removes and returns every entry whose concrete action satisfies the
    /// predicate: `(action, clients, cached status)`.  Used by the live
    /// migration to promote subscriptions of actions whose owner set
    /// widened into cross-shard entries.
    pub fn extract(
        &mut self,
        predicate: impl Fn(&Action) -> bool,
    ) -> Vec<(Action, Vec<ClientId>, bool)> {
        let mut out = Vec::new();
        for entries in self.by_abstract.values_mut() {
            let matched: Vec<Action> = entries.keys().filter(|a| predicate(a)).cloned().collect();
            for action in matched {
                let entry = entries.remove(&action).expect("key just listed");
                out.push((action, entry.clients, entry.permitted));
            }
        }
        self.by_abstract.retain(|_, entries| !entries.is_empty());
        out
    }

    /// Flattens the registry into `(key, action, clients, cached status)`
    /// rows, sorted by the index order — the snapshot form a checkpoint
    /// persists.
    pub fn export(&self) -> Vec<SubscriptionRow> {
        let mut out = Vec::new();
        for (key, entries) in &self.by_abstract {
            for (action, entry) in entries {
                out.push((key.clone(), action.clone(), entry.clients.clone(), entry.permitted));
            }
        }
        out
    }

    /// Rebuilds a registry from rows produced by
    /// [`SubscriptionRegistry::export`].
    pub fn import(rows: Vec<SubscriptionRow>) -> SubscriptionRegistry {
        let mut reg = SubscriptionRegistry::new();
        for (key, action, clients, permitted) in rows {
            let entry = reg
                .by_abstract
                .entry(key)
                .or_default()
                .entry(action)
                .or_insert(SubEntry { clients: Vec::new(), permitted });
            entry.clients = clients;
            entry.clients.sort_unstable();
            entry.clients.dedup();
            entry.permitted = permitted;
        }
        reg
    }

    /// Re-evaluates every entry against `permitted` and returns
    /// notifications for the entries whose status flipped relative to the
    /// cached baseline, updating the cache.  One probe per entry — the
    /// caller invokes this once per commit on exactly the registries of the
    /// shards the commit touched.
    pub fn refresh(&mut self, permitted: impl Fn(&Action) -> bool) -> Vec<Notification> {
        let mut out = Vec::new();
        for entries in self.by_abstract.values_mut() {
            for (action, entry) in entries.iter_mut() {
                let now = permitted(action);
                if now != entry.permitted {
                    entry.permitted = now;
                    for client in &entry.clients {
                        out.push(Notification {
                            client: *client,
                            action: action.clone(),
                            permitted: now,
                        });
                    }
                }
            }
        }
        out
    }
}

/// The snapshot form of one [`CrossSubscriptions`] entry:
/// `(action, owners, per-owner permissibility bits, clients, cached status)`.
pub(crate) type CrossRow = (Action, Vec<usize>, Vec<bool>, Vec<ClientId>, bool);

/// `(action, shard, permitted there now)`: one owner's bit of a subscription
/// several owners share.
pub(crate) type CrossBit = (Action, usize, bool);

/// A subscription to an action several shards own.  Its permissibility is the
/// conjunction of the owners' votes, so no single shard can report it alone:
/// the entry caches one status bit per owner, and a commit touching a subset
/// of the owners refreshes exactly those bits (the other owners' engines did
/// not move).
#[derive(Debug)]
struct CrossEntry {
    /// Owning shards, ascending.
    owners: Vec<usize>,
    /// Last observed per-owner permissibility, aligned with `owners`.
    bits: Vec<bool>,
    /// Subscribed clients (sorted, deduplicated).
    clients: Vec<ClientId>,
    /// Cached conjunction of `bits` — the last status reported to clients.
    permitted: bool,
}

impl CrossEntry {
    /// Re-evaluates the conjunction and, if it flipped, notifies every
    /// client.
    fn report(&mut self, action: &Action, out: &mut Vec<Notification>) {
        let now = self.bits.iter().all(|b| *b);
        if now != self.permitted {
            self.permitted = now;
            out.extend(self.clients.iter().map(|&client| Notification {
                client,
                action: action.clone(),
                permitted: now,
            }));
        }
    }

    fn add_client(&mut self, client: ClientId) {
        if let Err(at) = self.clients.binary_search(&client) {
            self.clients.insert(at, client);
        }
    }
}

/// The registry of subscriptions to actions several shards own — one per
/// manager, whichever manager drives the shards — indexed by owning shard
/// so that a commit probes only the entries co-owned by a shard it touched.
#[derive(Debug, Default)]
pub(crate) struct CrossSubscriptions {
    entries: BTreeMap<Action, CrossEntry>,
    /// shard -> subscribed actions the shard co-owns.
    by_shard: BTreeMap<usize, BTreeSet<Action>>,
}

impl CrossSubscriptions {
    /// Number of (action, client) subscription pairs.
    pub(crate) fn len(&self) -> usize {
        self.entries.values().map(|e| e.clients.len()).sum()
    }

    /// Number of subscribed actions.
    pub(crate) fn action_count(&self) -> usize {
        self.entries.len()
    }

    /// The subscribed actions `shard` co-owns: those whose bit a commit on
    /// `shard` reports.
    pub(crate) fn watched(&self, shard: usize) -> impl Iterator<Item = &Action> {
        self.by_shard.get(&shard).into_iter().flatten()
    }

    /// The entry of `action`, created from `fresh` — `(bits, cached status)`
    /// — if there is none, and indexed under every one of `owners`.
    fn entry(
        &mut self,
        action: &Action,
        owners: &[usize],
        fresh: impl FnOnce() -> (Vec<bool>, bool),
    ) -> &mut CrossEntry {
        for &owner in owners {
            self.by_shard.entry(owner).or_default().insert(action.clone());
        }
        self.entries.entry(action.clone()).or_insert_with(|| {
            let (bits, permitted) = fresh();
            CrossEntry { owners: owners.to_vec(), bits, clients: Vec::new(), permitted }
        })
    }

    /// Adds a subscription (idempotent).  `bits` — the owners' votes, taken
    /// while none of them can move — is asked for only by a new entry; an
    /// existing entry keeps its cache.  Returns the entry's cached status.
    pub(crate) fn subscribe(
        &mut self,
        client: ClientId,
        action: &Action,
        owners: &[usize],
        bits: impl FnOnce() -> Vec<bool>,
    ) -> bool {
        let entry = self.entry(action, owners, || {
            let bits = bits();
            let permitted = bits.iter().all(|b| *b);
            (bits, permitted)
        });
        entry.add_client(client);
        entry.permitted
    }

    /// Removes a subscription; the entry goes with its last client.
    pub(crate) fn unsubscribe(&mut self, client: ClientId, action: &Action) {
        let Some(entry) = self.entries.get_mut(action) else { return };
        entry.clients.retain(|c| *c != client);
        if !entry.clients.is_empty() {
            return;
        }
        let entry = self.entries.remove(action).expect("entry just found");
        for owner in entry.owners {
            if let Some(actions) = self.by_shard.get_mut(&owner) {
                actions.remove(action);
                if actions.is_empty() {
                    self.by_shard.remove(&owner);
                }
            }
        }
    }

    /// Installs subscriptions whose action gained owners — a shard-local
    /// entry whose action a repartition shared out, or an orphan the grown
    /// partition covers — with the owners' `bits`.  `cached` is the status
    /// the clients were last told; a conjunction that disagrees notifies.
    pub(crate) fn promote(
        &mut self,
        action: &Action,
        owners: Vec<usize>,
        bits: Vec<bool>,
        clients: Vec<ClientId>,
        cached: bool,
    ) -> Vec<Notification> {
        let entry = self.entry(action, &owners, || (Vec::new(), cached));
        entry.owners = owners;
        entry.bits = bits;
        for client in clients {
            entry.add_client(client);
        }
        let mut out = Vec::new();
        entry.report(action, &mut out);
        out
    }

    /// Re-owns every entry whose owner set `owners_of` widened.  An owner
    /// the entry had keeps its cached bit (its engine did not move); a new
    /// owner's comes from `bit`.  Returns the notifications of the
    /// conjunctions that flipped.
    pub(crate) fn widen(
        &mut self,
        owners_of: impl Fn(&Action) -> Vec<usize>,
        bit: impl Fn(usize, &Action) -> bool,
    ) -> Vec<Notification> {
        let mut out = Vec::new();
        for (action, entry) in self.entries.iter_mut() {
            let owners = owners_of(action);
            if owners == entry.owners {
                continue;
            }
            entry.bits = owners
                .iter()
                .map(|&o| match entry.owners.iter().position(|&x| x == o) {
                    Some(pos) => entry.bits[pos],
                    None => bit(o, action),
                })
                .collect();
            for &owner in &owners {
                self.by_shard.entry(owner).or_default().insert(action.clone());
            }
            entry.owners = owners;
            entry.report(action, &mut out);
        }
        out
    }

    /// Writes the owners' deposited bits and returns notifications for the
    /// entries whose conjunction flipped, in action order.
    pub(crate) fn merge(&mut self, deposits: &[CrossBit]) -> Vec<Notification> {
        for (action, owner, bit) in deposits {
            if let Some(entry) = self.entries.get_mut(action) {
                if let Some(pos) = entry.owners.iter().position(|o| o == owner) {
                    entry.bits[pos] = *bit;
                }
            }
        }
        let mut touched: Vec<&Action> = deposits.iter().map(|(a, _, _)| a).collect();
        touched.sort();
        touched.dedup();
        let mut out = Vec::new();
        for action in touched {
            if let Some(entry) = self.entries.get_mut(action) {
                entry.report(action, &mut out);
            }
        }
        out
    }

    /// Recomputes every bit from `bit` and every cached status from the
    /// bits, without notifying: recovery restores the caches a crash
    /// interrupted, which the clients were already told about.
    pub(crate) fn settle(&mut self, bit: impl Fn(usize, &Action) -> bool) {
        for (action, entry) in self.entries.iter_mut() {
            entry.bits = entry.owners.iter().map(|&o| bit(o, action)).collect();
            entry.permitted = entry.bits.iter().all(|b| *b);
        }
    }

    /// The registry as manifest rows, in action order.
    pub(crate) fn export(&self) -> Vec<CrossRow> {
        self.entries
            .iter()
            .map(|(action, e)| {
                (action.clone(), e.owners.clone(), e.bits.clone(), e.clients.clone(), e.permitted)
            })
            .collect()
    }

    /// Rebuilds a registry from rows produced by
    /// [`CrossSubscriptions::export`].
    pub(crate) fn import(rows: Vec<CrossRow>) -> CrossSubscriptions {
        let mut cross = CrossSubscriptions::default();
        for (action, owners, bits, clients, permitted) in rows {
            cross.entry(&action, &owners, || (bits, permitted)).clients = clients;
        }
        cross
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    fn sub(reg: &mut SubscriptionRegistry, client: ClientId, name: &str, permitted: bool) -> bool {
        reg.subscribe(client, a(name), a(name), permitted)
    }

    /// The cached status of a subscribed action, read off the snapshot rows.
    fn status(reg: &SubscriptionRegistry, action: &Action) -> Option<bool> {
        reg.export().into_iter().find(|(_, a, _, _)| a == action).map(|(_, _, _, p)| p)
    }

    #[test]
    fn subscribe_and_unsubscribe_are_idempotent() {
        let mut reg = SubscriptionRegistry::new();
        sub(&mut reg, 1, "x", true);
        sub(&mut reg, 1, "x", true);
        sub(&mut reg, 2, "x", true);
        assert_eq!(reg.len(), 2);
        reg.unsubscribe(1, &a("x"));
        reg.unsubscribe(1, &a("x"));
        assert_eq!(reg.len(), 1);
        reg.unsubscribe(2, &a("x"));
        assert!(reg.is_empty());
    }

    #[test]
    fn refresh_reports_only_changes_against_the_cache() {
        let mut reg = SubscriptionRegistry::new();
        sub(&mut reg, 1, "x", true);
        sub(&mut reg, 2, "y", true);
        // x flips to false, y stays true.
        let notes = reg.refresh(|act| act.name().to_string() != "x");
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].client, 1);
        assert!(!notes[0].permitted);
        // A second refresh with the same probe is silent: the cache moved.
        assert!(reg.refresh(|act| act.name().to_string() != "x").is_empty());
        // Flipping back notifies again.
        let notes = reg.refresh(|_| true);
        assert_eq!(notes.len(), 1);
        assert!(notes[0].permitted);
    }

    #[test]
    fn multiple_subscribers_all_get_notified() {
        let mut reg = SubscriptionRegistry::new();
        sub(&mut reg, 1, "x", false);
        sub(&mut reg, 2, "x", false);
        sub(&mut reg, 3, "x", false);
        let notes = reg.refresh(|_| true);
        assert_eq!(notes.len(), 3);
        assert!(notes.iter().all(|n| n.permitted));
    }

    #[test]
    fn entries_group_under_their_abstract_action() {
        let mut reg = SubscriptionRegistry::new();
        let key = Action::new("call", [ix_core::Term::Param(ix_core::Param::new("p"))]);
        let call1 = Action::concrete("call", [ix_core::Value::int(1)]);
        let call2 = Action::concrete("call", [ix_core::Value::int(2)]);
        reg.subscribe(7, call1.clone(), key.clone(), true);
        reg.subscribe(7, call2.clone(), key.clone(), false);
        assert_eq!(reg.len(), 2);
        let rows = reg.export();
        assert!(
            rows.iter().all(|(k, ..)| *k == key),
            "both concrete calls share one abstract group"
        );
        assert_eq!(status(&reg, &call1), Some(true));
        assert_eq!(status(&reg, &call2), Some(false));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn existing_entries_keep_their_cached_status() {
        let mut reg = SubscriptionRegistry::new();
        assert!(sub(&mut reg, 1, "x", true));
        // A second subscriber sees the cached status, not its own guess.
        assert!(sub(&mut reg, 2, "x", false));
        assert_eq!(status(&reg, &a("x")), Some(true));
    }

    fn bit(action: &str, owner: usize, permitted: bool) -> CrossBit {
        (a(action), owner, permitted)
    }

    #[test]
    fn cross_entries_notify_when_the_conjunction_flips() {
        let mut cross = CrossSubscriptions::default();
        assert!(cross.subscribe(1, &a("x"), &[0, 1], || vec![true, true]));
        assert!(cross.subscribe(2, &a("x"), &[0, 1], || unreachable!("the entry exists")));
        assert_eq!((cross.len(), cross.action_count()), (2, 1));
        assert_eq!(cross.watched(1).collect::<Vec<_>>(), vec![&a("x")]);
        let notes = cross.merge(&[bit("x", 0, false)]);
        assert_eq!(notes.len(), 2, "both clients hear the flip");
        assert!(notes.iter().all(|n| !n.permitted));
        assert!(cross.merge(&[bit("x", 1, false)]).is_empty(), "still off");
        let notes = cross.merge(&[bit("x", 0, true), bit("x", 1, true)]);
        assert!(notes.len() == 2 && notes.iter().all(|n| n.permitted));
        cross.unsubscribe(1, &a("x"));
        cross.unsubscribe(2, &a("x"));
        assert_eq!((cross.len(), cross.action_count()), (0, 0));
        assert_eq!(cross.watched(0).count(), 0, "the index forgets the entry");
    }

    #[test]
    fn cross_entries_widen_promote_settle_and_round_trip() {
        let mut cross = CrossSubscriptions::default();
        cross.subscribe(1, &a("x"), &[0, 1], || vec![true, true]);
        // A repartition gives `x` a third owner that says no.
        let notes = cross.widen(|_| vec![0, 1, 2], |owner, _| owner != 2);
        assert_eq!(notes, vec![Notification { client: 1, action: a("x"), permitted: false }]);
        assert_eq!(cross.watched(2).count(), 1);
        // A shard-local subscription promoted with a stale cached status.
        let notes = cross.promote(&a("y"), vec![1, 2], vec![true, false], vec![3], true);
        assert_eq!(notes, vec![Notification { client: 3, action: a("y"), permitted: false }]);
        let rows = cross.export();
        assert_eq!(CrossSubscriptions::import(rows.clone()).export(), rows);
        // Recovery recomputes every bit silently.
        cross.settle(|_, _| true);
        let all_on = |(_, _, bits, _, permitted): &CrossRow| *permitted && !bits.contains(&false);
        assert!(cross.export().iter().all(all_on));
    }
}
