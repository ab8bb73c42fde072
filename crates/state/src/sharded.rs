//! Multi-owner action routing over the components of a partition.
//!
//! `ix_core::Partition` decomposes an expression built with ⊗ (and with ‖
//! over disjoint alphabets) into fine-grained components — one per operand of
//! the flattened chain — whose alphabets *may overlap*.  The transition
//! function routes every action to exactly the operands whose alphabet
//! covers it (see the `Sync` case of [`crate::trans::step`]), and the
//! validity/finality predicates distribute as conjunctions over the
//! operands.  Hence the monolithic state is exactly the product of the
//! component states, and an action's acceptance depends on the conjunction
//! of the *owning* components' votes:
//!
//! * a **single-owner** action is decided and committed on one component;
//! * a **multi-owner** action (e.g. a global `audit` step coupled across
//!   otherwise-independent workflows) is executed as an atomic two-phase
//!   step: every owner [`crate::Engine::prepare`]s the tentative successor,
//!   and the successors are installed only if every owner voted yes —
//!   otherwise all of them are dropped (abort) and no state changes;
//! * an action owned by **no** component is outside α(x) and is rejected,
//!   exactly as the monolithic engine rejects it.
//!
//! The interaction managers of `ix-manager` run one [`crate::Engine`] per
//! component and dispatch through a [`ShardRouter`]: per-action work touches
//! only the owning components' states, and shards that share no action
//! transition concurrently.

use ix_core::{Action, Alphabet, Symbol};
use std::collections::BTreeMap;

/// Precomputed `Action → owning shards` dispatch table.
///
/// Candidate shards are indexed by the action's name and arity; the final
/// membership test uses alphabet coverage (which handles parameterized
/// abstract actions).  Shard alphabets may overlap, so an action can have
/// zero, one, or several owners; owner lists are sorted ascending — the
/// canonical locking order of the cross-shard two-phase commit.
///
/// Routers are *epoch-versioned*: [`ShardRouter::extended`] derives the
/// router of a grown partition (appended shards, widened owner sets) with
/// the epoch bumped, so a routing decision taken against an old router is
/// distinguishable from one taken against the current one — the hook the
/// manager runtime uses to retry stale routes instead of misdelivering
/// them.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    by_signature: BTreeMap<(Symbol, usize), Vec<usize>>,
    alphabets: Vec<Alphabet>,
    epoch: u64,
}

/// Ownership classification of an action (see [`ShardRouter::classify`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// No shard's alphabet covers the action — it is outside α(x).
    None,
    /// Exactly one owning shard: the local fast path.
    Single(usize),
    /// Several owners, ascending (the 2PC lock / enqueue order).
    Multi(Vec<usize>),
}

impl ShardRouter {
    /// Builds a router over the given (possibly overlapping) shard
    /// alphabets, at epoch 0.
    pub fn new(alphabets: Vec<Alphabet>) -> ShardRouter {
        ShardRouter::with_epoch(alphabets, 0)
    }

    /// Builds a router at an explicit partition epoch.
    pub fn with_epoch(alphabets: Vec<Alphabet>, epoch: u64) -> ShardRouter {
        let mut by_signature = BTreeMap::new();
        for (shard, alphabet) in alphabets.iter().enumerate() {
            index_shard(&mut by_signature, shard, alphabet);
        }
        ShardRouter { by_signature, alphabets, epoch }
    }

    /// The partition epoch this router was built for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Derives the router of the grown partition: the new shards' alphabets
    /// are appended (their ids continue the existing numbering) and the
    /// epoch is bumped.  Cost is one clone of the existing signature index
    /// plus insertion work proportional to the *new* alphabets — no
    /// existing alphabet is re-probed, and appended shard ids are larger
    /// than every existing id, so the per-signature candidate lists stay
    /// ascending by construction.
    pub fn extended(&self, new_alphabets: &[Alphabet]) -> ShardRouter {
        let mut by_signature = self.by_signature.clone();
        for (shard, alphabet) in (self.alphabets.len()..).zip(new_alphabets) {
            index_shard(&mut by_signature, shard, alphabet);
        }
        let alphabets = self.alphabets.iter().chain(new_alphabets).cloned().collect();
        ShardRouter { by_signature, alphabets, epoch: self.epoch + 1 }
    }

    /// Number of shards the router dispatches over.
    pub fn shard_count(&self) -> usize {
        self.alphabets.len()
    }

    /// The shard alphabets, indexed by shard id.
    pub fn alphabets(&self) -> &[Alphabet] {
        &self.alphabets
    }

    /// The shards owning the action, in ascending order, without
    /// materializing them — the allocation-free fast path for probes that
    /// only need to walk or count the owners.  Empty iff no shard's alphabet
    /// covers the action (such actions are outside the expression's
    /// language).
    pub fn owners_iter<'a>(&'a self, action: &'a Action) -> impl Iterator<Item = usize> + 'a {
        self.candidates(action).iter().copied().filter(move |&s| self.alphabets[s].covers(action))
    }

    /// The shards whose alphabets have an entry of the action's name and
    /// arity, ascending (the lists are built in shard order).
    fn candidates(&self, action: &Action) -> &[usize] {
        self.by_signature.get(&(action.name(), action.arity())).map_or(&[], Vec::as_slice)
    }

    /// The shards owning the action, collected sorted ascending — the
    /// canonical locking order of the cross-shard two-phase commit.
    pub fn owners(&self, action: &Action) -> Vec<usize> {
        self.owners_iter(action).collect()
    }

    /// Classifies the action's ownership: one signature lookup, then one
    /// alphabet probe per candidate shard, neither of which allocates.  A
    /// single owner (or none) allocates nothing; a cross-shard action
    /// allocates its owner list once, sized by the candidate list.
    ///
    /// An action unknown to every shard resolves to [`Route::None`] from the
    /// signature index alone — no alphabet probe — so callers can deny it
    /// without touching any queue or lock.
    pub fn classify(&self, action: &Action) -> Route {
        let mut iter = self.owners_iter(action);
        let Some(first) = iter.next() else {
            return Route::None;
        };
        let Some(second) = iter.next() else {
            return Route::Single(first);
        };
        let mut owners = Vec::with_capacity(self.candidates(action).len());
        owners.extend([first, second]);
        owners.extend(iter);
        Route::Multi(owners)
    }

    /// The primary (lowest-id) owning shard of the action, or `None` if no
    /// shard covers it.  The primary owner holds the action's log entries in
    /// the sharded manager.
    pub fn route(&self, action: &Action) -> Option<usize> {
        self.owners_iter(action).next()
    }

    /// True if more than one shard owns the action (a cross-shard action
    /// requiring two-phase commit).
    pub fn is_shared(&self, action: &Action) -> bool {
        self.owners_iter(action).nth(1).is_some()
    }

    /// The alphabet of a shard.
    pub fn alphabet(&self, shard: usize) -> &Alphabet {
        &self.alphabets[shard]
    }
}

/// Enters `shard` into the candidate list of every signature its alphabet
/// has.  Shards are indexed in ascending id order, so each list stays sorted
/// and a repeat of the shard can only be its last entry.
fn index_shard(
    by_signature: &mut BTreeMap<(Symbol, usize), Vec<usize>>,
    shard: usize,
    alphabet: &Alphabet,
) {
    for action in alphabet.actions() {
        let shards = by_signature.entry((action.name(), action.arity())).or_default();
        if shards.last() != Some(&shard) {
            shards.push(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{parse, Partition};

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    /// The router over the components of `src`'s partition.
    fn router(src: &str) -> ShardRouter {
        let partition = Partition::of(&parse(src).unwrap());
        ShardRouter::new(partition.components().iter().map(|c| c.alphabet.clone()).collect())
    }

    #[test]
    fn disjoint_coupling_yields_one_shard_per_operand() {
        let router = router("(a - b)* @ (c - d)* @ (e - f)*");
        assert_eq!(router.shard_count(), 3);
        assert_eq!(router.route(&a("a")), router.route(&a("b")));
        assert_ne!(router.route(&a("a")), router.route(&a("c")));
        assert_eq!(router.route(&a("z")), None);
        assert!(router.owners(&a("z")).is_empty());
    }

    #[test]
    fn overlapping_coupling_shards_with_multi_owner_actions() {
        // Four groups coupled through one global `audit` barrier stay four
        // shards, with `audit` owned by all of them.
        let router = router(
            "((a1 - b1)* - audit)* @ ((a2 - b2)* - audit)* \
             @ ((a3 - b3)* - audit)* @ ((a4 - b4)* - audit)*",
        );
        assert_eq!(router.shard_count(), 4);
        assert_eq!(router.owners(&a("audit")), vec![0, 1, 2, 3]);
        assert_eq!(router.classify(&a("audit")), Route::Multi(vec![0, 1, 2, 3]));
        assert!(router.is_shared(&a("audit")));
        assert!(!router.is_shared(&a("a1")));
        assert_eq!(router.classify(&a("b3")), Route::Single(2));
    }

    #[test]
    fn monolithic_fallback_for_undecomposable_expressions() {
        let router = router("(a - b)* & (a* - b*)");
        assert_eq!(router.shard_count(), 1);
        assert_eq!(router.route(&a("a")), Some(0));
        assert_eq!(router.classify(&a("c")), Route::None);
    }

    #[test]
    fn quantified_components_shard_when_action_names_differ() {
        let router = router("(some p { call(p) - perform(p) })* @ (some q { ship(q) - bill(q) })*");
        assert_eq!(router.shard_count(), 2);
        let call = Action::concrete("call", [ix_core::Value::int(1)]);
        let ship = Action::concrete("ship", [ix_core::Value::int(7)]);
        assert_eq!(router.classify(&call), Route::Single(0));
        assert_eq!(router.classify(&ship), Route::Single(1));
    }

    #[test]
    fn router_extension_bumps_the_epoch_and_appends_shards() {
        let router = router("(a - b)* @ (c - d)*");
        assert_eq!(router.epoch(), 0);
        let extended = router.extended(&[parse("(a* - audit)*").unwrap().alphabet()]);
        assert_eq!(extended.epoch(), 1);
        assert_eq!(extended.shard_count(), 3);
        assert_eq!(extended.owners(&a("a")), vec![0, 2], "owner set widened, ascending");
        assert_eq!(extended.owners(&a("audit")), vec![2]);
        assert_eq!(extended.owners(&a("c")), vec![1], "unrelated routes untouched");
        // The old router still answers with its own epoch's view.
        assert_eq!(router.owners(&a("a")), vec![0]);
        assert_eq!(router.epoch(), 0);
    }

    #[test]
    fn classify_denies_unknown_signatures_without_probing() {
        let router = router("(a - b)* @ (c - d)*");
        assert_eq!(router.classify(&a("zzz")), Route::None);
        // Known name, wrong arity: also a signature-level miss.
        let wrong_arity = Action::concrete("a", [ix_core::Value::int(1)]);
        assert_eq!(router.classify(&wrong_arity), Route::None);
        assert!(router.owners(&a("zzz")).is_empty());
        assert!(!router.is_shared(&a("zzz")));
    }

    #[test]
    fn disjoint_extension_is_a_pure_append() {
        let partition = Partition::of(&parse("(a - b)* @ (c - d)*").unwrap());
        let router = router("(a - b)* @ (c - d)*");
        let (grown, delta) = partition.extend(&[parse("(e - f)*").unwrap()]);
        assert!(delta.is_pure_append());
        let added: Vec<Alphabet> =
            delta.added.iter().map(|&i| grown.components()[i].alphabet.clone()).collect();
        let extended = router.extended(&added);
        assert_eq!((extended.shard_count(), extended.epoch()), (3, 1));
        assert_eq!(extended.owners(&a("e")), vec![2]);
        assert_eq!(extended.owners(&a("a")), router.owners(&a("a")), "no owner set widens");
    }
}
