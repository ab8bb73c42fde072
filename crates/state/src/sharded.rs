//! The sharded execution kernel: per-component sub-engines with multi-owner
//! action routing.
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
//!   step: every owner [`Engine::prepare`]s the tentative successor, and the
//!   successors are installed only if every owner voted yes — otherwise all
//!   of them are dropped (abort) and no state changes;
//! * an action owned by **no** component is outside α(x) and is rejected,
//!   exactly as the monolithic engine rejects it.
//!
//! [`ShardedEngine`] runs one [`Engine`] per component and dispatches
//! through a precomputed [`ShardRouter`].  Per-action work touches only the
//! owning components' states, and — more importantly for the interaction
//! manager — shards that share no action can transition concurrently.
//! Expressions that do not decompose fall back to a single shard holding the
//! whole expression, so the sharded engine is a drop-in replacement for
//! [`Engine`].

use crate::engine::{Engine, WordStatus};
use crate::error::{StateError, StateResult};
use crate::state::{Shared, State, StateMetrics};
use crate::trans::TransitionOptions;
use ix_core::{Action, Alphabet, Expr, Partition, PartitionDelta, Symbol};
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

/// An incremental evaluator running the sync-components of one expression as
/// independent shards — the drop-in, parallelizable counterpart of
/// [`Engine`].  Cross-shard actions are executed atomically across all of
/// their owners via the prepare/commit/abort protocol of [`Engine`].
#[derive(Clone, Debug)]
pub struct ShardedEngine {
    expr: Expr,
    partition: Partition,
    options: TransitionOptions,
    shards: Vec<Engine>,
    router: ShardRouter,
    /// Whole-engine counters: one accepted/rejected tick per *action*, no
    /// matter how many shards it touched — the same accounting as the
    /// monolithic [`Engine`].
    accepted: u64,
    rejected: u64,
}

impl ShardedEngine {
    /// Creates a sharded engine with the default transition options.
    pub fn new(expr: &Expr) -> StateResult<ShardedEngine> {
        ShardedEngine::with_options(expr, TransitionOptions::default())
    }

    /// Creates a sharded engine with explicit transition options.
    pub fn with_options(expr: &Expr, options: TransitionOptions) -> StateResult<ShardedEngine> {
        let partition = Partition::of(expr);
        let mut shards = Vec::with_capacity(partition.len());
        let mut alphabets = Vec::with_capacity(partition.len());
        for component in partition.components() {
            shards.push(Engine::with_options(&component.expr, options)?);
            alphabets.push(component.alphabet.clone());
        }
        Ok(ShardedEngine {
            expr: expr.clone(),
            partition,
            options,
            shards,
            router: ShardRouter::new(alphabets),
            accepted: 0,
            rejected: 0,
        })
    }

    /// The (original, un-partitioned) expression this engine enforces,
    /// including every live extension applied so far.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The engine's current partition (epoch-versioned).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Grows the engine live with an additional constraint whose alphabet is
    /// assumed fresh — equivalent to [`ShardedEngine::extend_with_history`]
    /// with an empty history.  Returns the applied [`PartitionDelta`].
    pub fn extend(&mut self, operand: &Expr) -> StateResult<PartitionDelta> {
        self.extend_with_history(operand, &[])
    }

    /// Grows the engine live: the operand's flattened components become new
    /// shards, the router is re-derived at the next epoch, and each new
    /// shard replays the projection of `history` (the committed action
    /// sequence so far) onto its alphabet so the grown engine is equivalent
    /// to a fresh engine built on `old ⊗ operand` and fed the same history.
    ///
    /// Existing shard states are **never** touched: a disjoint addition is a
    /// pure shard-append (the delta widens nothing and the replayed
    /// projection is empty), and a coupling addition only widens owner sets
    /// in the router.  Fails with [`StateError::IncompatibleHistory`] —
    /// leaving the engine unchanged — when the new constraint rejects the
    /// historical projection, because accepting it would break replayability
    /// of the committed word on the grown expression.
    pub fn extend_with_history(
        &mut self,
        operand: &Expr,
        history: &[Action],
    ) -> StateResult<PartitionDelta> {
        let (partition, delta) = self.partition.extend(std::slice::from_ref(operand));
        let mut new_shards = Vec::with_capacity(delta.added.len());
        let mut new_alphabets = Vec::with_capacity(delta.added.len());
        for &idx in &delta.added {
            let component = &partition.components()[idx];
            let mut engine = Engine::with_options(&component.expr, self.options)?;
            for action in history.iter().filter(|a| component.alphabet.covers(a)) {
                if !engine.try_execute(action) {
                    return Err(StateError::IncompatibleHistory { action: action.to_string() });
                }
            }
            new_alphabets.push(component.alphabet.clone());
            new_shards.push(engine);
        }
        self.router = self.router.extended(&new_alphabets);
        self.shards.append(&mut new_shards);
        self.expr = Expr::sync(self.expr.clone(), operand.clone());
        self.partition = partition;
        Ok(delta)
    }

    /// Number of independent shards (1 for expressions that do not
    /// decompose).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard sub-engines.
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// The dispatch table.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The primary owning shard of an action, if any.
    pub fn route(&self, action: &Action) -> Option<usize> {
        self.router.route(action)
    }

    /// All shards owning an action, sorted ascending.
    pub fn owners(&self, action: &Action) -> Vec<usize> {
        self.router.owners(action)
    }

    /// Aggregated metrics across all shards (sizes and alternative counts
    /// add up; the compound state is null iff some shard's state is null).
    pub fn metrics(&self) -> StateMetrics {
        let mut total = StateMetrics::default();
        for shard in &self.shards {
            total.accumulate(shard.metrics());
        }
        total
    }

    /// Metrics of one shard.
    pub fn shard_metrics(&self, shard: usize) -> StateMetrics {
        self.shards[shard].metrics()
    }

    /// True if the committed action sequence is a partial word: every
    /// component must hold a valid state (ψ distributes over ⊗).
    pub fn is_valid(&self) -> bool {
        self.shards.iter().all(Engine::is_valid)
    }

    /// True if the committed action sequence is a complete word: every
    /// component must hold a final state (ϕ distributes over ⊗).
    pub fn is_final(&self) -> bool {
        self.shards.iter().all(Engine::is_final)
    }

    /// The word status of the committed action sequence.
    pub fn status(&self) -> WordStatus {
        if self.is_final() {
            WordStatus::Complete
        } else if self.is_valid() {
            WordStatus::Partial
        } else {
            WordStatus::Illegal
        }
    }

    /// Total accepted (committed) actions — one per action, matching the
    /// monolithic engine even when an action touched several shards.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total rejected attempts (including actions no shard owns).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Tentatively checks whether the action would currently be accepted,
    /// without changing any state: the conjunction of the owning shards'
    /// votes (false when no shard owns it).
    pub fn is_permitted(&self, action: &Action) -> bool {
        if !action.is_concrete() {
            return false;
        }
        let mut owned = false;
        for s in self.router.owners_iter(action) {
            owned = true;
            if !self.shards[s].is_permitted(action) {
                return false;
            }
        }
        owned
    }

    /// Filters the permitted actions out of a candidate list.
    pub fn permitted<'a>(&self, candidates: &'a [Action]) -> Vec<&'a Action> {
        candidates.iter().filter(|a| self.is_permitted(a)).collect()
    }

    /// The accept/reject step of the action problem: a two-phase step across
    /// the owning shards.  Every owner prepares the tentative successor; the
    /// successors are installed only if every owner voted yes, otherwise all
    /// of them are dropped and no shard changes state.
    pub fn try_execute(&mut self, action: &Action) -> bool {
        if !action.is_concrete() {
            self.rejected += 1;
            return false;
        }
        let mut prepared: Vec<(usize, Shared<State>)> = Vec::new();
        for s in self.router.owners_iter(action) {
            match self.shards[s].prepare(action) {
                Some(next) => prepared.push((s, next)),
                None => {
                    // Abort: drop the successors prepared so far.
                    self.rejected += 1;
                    return false;
                }
            }
        }
        if prepared.is_empty() {
            // No shard owns the action: outside α(x).
            self.rejected += 1;
            return false;
        }
        for (s, next) in prepared {
            self.shards[s].commit_prepared(next);
        }
        self.accepted += 1;
        true
    }

    /// Feeds a whole word, stopping at the first rejected action.  Returns
    /// the number of accepted actions.
    pub fn feed(&mut self, word: &[Action]) -> usize {
        let mut n = 0;
        for action in word {
            if self.try_execute(action) {
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    /// Resets every shard to its initial state.
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.accepted = 0;
        self.rejected = 0;
    }
}

/// Solves the word problem through the sharded kernel: every action is
/// executed as an atomic step across its owning shards, and the verdicts
/// combine (all complete ⇒ complete, all at least partial ⇒ partial,
/// otherwise illegal).  Equivalent to [`crate::engine::word_problem`];
/// exercised against it by the workspace property tests.
pub fn sharded_word_problem(expr: &Expr, word: &[Action]) -> StateResult<WordStatus> {
    let mut engine = ShardedEngine::new(expr)?;
    for action in word {
        // An action no component owns is outside α(x), and a rejected action
        // means the prefix consumed so far is not a partial word; Ψ is
        // prefix-closed, hence no continuation can rescue the word
        // (word_problem reaches the same verdict by feeding on and ending in
        // an invalid state).  try_execute covers both cases.
        if !engine.try_execute(action) {
            return Ok(WordStatus::Illegal);
        }
    }
    Ok(engine.status())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::word_problem;
    use ix_core::parse;

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    #[test]
    fn disjoint_coupling_yields_one_shard_per_operand() {
        let e = parse("(a - b)* @ (c - d)* @ (e - f)*").unwrap();
        let engine = ShardedEngine::new(&e).unwrap();
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.route(&a("a")), engine.route(&a("b")));
        assert_ne!(engine.route(&a("a")), engine.route(&a("c")));
        assert_eq!(engine.route(&a("z")), None);
        assert!(engine.owners(&a("z")).is_empty());
    }

    #[test]
    fn overlapping_coupling_shards_with_multi_owner_actions() {
        // Four groups coupled through one global `audit` barrier: the old
        // partition collapsed this to one shard; now it stays at four.
        let e = parse(
            "((a1 - b1)* - audit)* @ ((a2 - b2)* - audit)* \
             @ ((a3 - b3)* - audit)* @ ((a4 - b4)* - audit)*",
        )
        .unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        assert_eq!(engine.shard_count(), 4);
        assert_eq!(engine.owners(&a("audit")), vec![0, 1, 2, 3]);
        assert!(engine.router().is_shared(&a("audit")));
        assert!(!engine.router().is_shared(&a("a1")));
        // All four groups are at a round boundary: audit commits everywhere.
        assert!(engine.try_execute(&a("audit")));
        // Start a case in group 2: the next audit must wait for b2.
        assert!(engine.try_execute(&a("a2")));
        assert!(!engine.is_permitted(&a("audit")));
        assert!(!engine.try_execute(&a("audit")), "one owner votes no: atomic abort");
        assert!(engine.try_execute(&a("b2")));
        assert!(engine.try_execute(&a("audit")));
        assert_eq!(engine.accepted(), 4);
        assert_eq!(engine.rejected(), 1);
    }

    #[test]
    fn aborted_multi_owner_step_changes_no_shard_state() {
        let e = parse("((x - y)* - chk)* @ ((u - v)* - chk)*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        assert!(engine.try_execute(&a("x")));
        // chk is blocked by shard 0 (mid-case) but permitted by shard 1; the
        // abort must leave shard 1 untouched.
        let before: Vec<_> = (0..2).map(|s| engine.shard_metrics(s).size).collect();
        assert!(!engine.try_execute(&a("chk")));
        let after: Vec<_> = (0..2).map(|s| engine.shard_metrics(s).size).collect();
        assert_eq!(before, after);
        // Equivalence with the monolithic engine on the same schedule.
        let mut mono = Engine::new(&e).unwrap();
        for action in [a("x"), a("chk")] {
            mono.try_execute(&action);
        }
        assert_eq!(engine.is_valid(), mono.is_valid());
        assert_eq!(engine.is_final(), mono.is_final());
    }

    #[test]
    fn monolithic_fallback_for_undecomposable_expressions() {
        let e = parse("(a - b)* & (a* - b*)").unwrap();
        let engine = ShardedEngine::new(&e).unwrap();
        assert_eq!(engine.shard_count(), 1);
        let mut engine = engine;
        assert!(engine.try_execute(&a("a")));
        assert!(!engine.try_execute(&a("c")));
    }

    #[test]
    fn sharded_execution_matches_monolithic_acceptance() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let mut sharded = ShardedEngine::new(&e).unwrap();
        let mut mono = Engine::new(&e).unwrap();
        for action in [a("a"), a("c"), a("b"), a("b"), a("d"), a("x")] {
            assert_eq!(
                sharded.try_execute(&action),
                mono.try_execute(&action),
                "disagreement on {action}"
            );
        }
        assert_eq!(sharded.is_final(), mono.is_final());
        assert_eq!(sharded.is_valid(), mono.is_valid());
        assert_eq!(sharded.accepted(), mono.accepted());
        assert_eq!(sharded.rejected(), mono.rejected());
    }

    #[test]
    fn sharded_counters_match_monolithic_on_overlapping_expressions() {
        let e = parse("(a - b)* @ (b - c)*").unwrap();
        let mut sharded = ShardedEngine::new(&e).unwrap();
        let mut mono = Engine::new(&e).unwrap();
        assert_eq!(sharded.shard_count(), 2);
        for action in [a("a"), a("b"), a("b"), a("c"), a("z")] {
            assert_eq!(
                sharded.try_execute(&action),
                mono.try_execute(&action),
                "disagreement on {action}"
            );
        }
        // One tick per action even though `b` committed on two shards.
        assert_eq!(sharded.accepted(), mono.accepted());
        assert_eq!(sharded.rejected(), mono.rejected());
    }

    #[test]
    fn sharded_word_problem_agrees_with_monolithic() {
        let e = parse("(a - b)* @ (c - d)* | (e - f)*").unwrap();
        let words: Vec<Vec<Action>> = vec![
            vec![],
            vec![a("a")],
            vec![a("a"), a("c"), a("b"), a("d")],
            vec![a("c"), a("a"), a("e"), a("b"), a("d"), a("f")],
            vec![a("b")],
            vec![a("a"), a("z")],
        ];
        for w in &words {
            assert_eq!(
                sharded_word_problem(&e, w).unwrap(),
                word_problem(&e, w).unwrap(),
                "disagreement on {w:?}"
            );
        }
    }

    #[test]
    fn sharded_word_problem_agrees_on_cross_shard_actions() {
        let e = parse("((a - b)* - audit)* @ ((c - d)* - audit)*").unwrap();
        let words: Vec<Vec<Action>> = vec![
            vec![a("audit")],
            vec![a("a"), a("audit")],
            vec![a("a"), a("b"), a("audit")],
            vec![a("a"), a("b"), a("c"), a("d"), a("audit"), a("a")],
            vec![a("audit"), a("audit")],
            vec![a("z")],
        ];
        for w in &words {
            assert_eq!(
                sharded_word_problem(&e, w).unwrap(),
                word_problem(&e, w).unwrap(),
                "disagreement on {w:?}"
            );
        }
    }

    #[test]
    fn quantified_components_shard_when_action_names_differ() {
        let e =
            parse("(some p { call(p) - perform(p) })* @ (some q { ship(q) - bill(q) })*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        assert_eq!(engine.shard_count(), 2);
        let call = Action::concrete("call", [ix_core::Value::int(1)]);
        let ship = Action::concrete("ship", [ix_core::Value::int(7)]);
        assert!(engine.try_execute(&call));
        assert!(engine.try_execute(&ship));
        assert_ne!(engine.route(&call), engine.route(&ship));
    }

    #[test]
    fn per_shard_metrics_aggregate() {
        let e = parse("(a - b)# @ (c - d)#").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        engine.try_execute(&a("a"));
        engine.try_execute(&a("a"));
        let total = engine.metrics();
        let by_shard: usize = (0..engine.shard_count()).map(|s| engine.shard_metrics(s).size).sum();
        assert_eq!(total.size, by_shard);
        assert!(!total.is_null);
    }

    #[test]
    fn reset_and_feed_work_across_shards() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        assert_eq!(engine.feed(&[a("a"), a("c"), a("z"), a("b")]), 2);
        engine.reset();
        assert_eq!(engine.accepted(), 0);
        assert_eq!(engine.rejected(), 0);
        assert!(engine.is_final(), "both iterations accept ε after reset");
    }

    #[test]
    fn router_extension_bumps_the_epoch_and_appends_shards() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let engine = ShardedEngine::new(&e).unwrap();
        let router = engine.router().clone();
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
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let engine = ShardedEngine::new(&e).unwrap();
        assert_eq!(engine.router().classify(&a("zzz")), Route::None);
        // Known name, wrong arity: also a signature-level miss.
        let wrong_arity = Action::concrete("a", [ix_core::Value::int(1)]);
        assert_eq!(engine.router().classify(&wrong_arity), Route::None);
        assert!(engine.owners(&a("zzz")).is_empty());
        assert!(!engine.router().is_shared(&a("zzz")));
    }

    #[test]
    fn disjoint_extension_is_a_pure_append() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        assert!(engine.try_execute(&a("a")));
        let delta = engine.extend(&parse("(e - f)*").unwrap()).unwrap();
        assert!(delta.is_pure_append());
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.router().epoch(), 1);
        assert!(engine.try_execute(&a("e")));
        assert!(engine.try_execute(&a("b")));
        // Equivalent to a fresh engine on the joined expression fed the same
        // history.
        let joined = parse("((a - b)* @ (c - d)*) @ (e - f)*").unwrap();
        let mut fresh = ShardedEngine::new(&joined).unwrap();
        for action in [a("a"), a("e"), a("b")] {
            assert!(fresh.try_execute(&action));
        }
        assert_eq!(engine.is_final(), fresh.is_final());
        assert_eq!(engine.is_valid(), fresh.is_valid());
    }

    #[test]
    fn coupling_extension_replays_history_and_widens_routes() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        let mut history = Vec::new();
        for action in [a("a"), a("b"), a("a"), a("b"), a("c")] {
            assert!(engine.try_execute(&action));
            history.push(action);
        }
        // Couple a new audit constraint onto `a`: rounds of a's, then audit.
        let coupling = parse("(a* - audit)*").unwrap();
        let delta = engine.extend_with_history(&coupling, &history).unwrap();
        assert!(!delta.is_pure_append());
        assert_eq!(engine.shard_count(), 3);
        assert_eq!(engine.owners(&a("a")), vec![0, 2]);
        // The new shard replayed the two a's; audit is now a cross-shard
        // action whose acceptance matches the fresh joined engine.
        let joined = Expr::sync(e, coupling);
        let mut fresh = ShardedEngine::new(&joined).unwrap();
        for action in &history {
            assert!(fresh.try_execute(action));
        }
        for action in [a("audit"), a("a"), a("audit"), a("b"), a("d")] {
            assert_eq!(
                engine.try_execute(&action),
                fresh.try_execute(&action),
                "disagreement on {action}"
            );
        }
        assert_eq!(engine.is_final(), fresh.is_final());
    }

    #[test]
    fn incompatible_history_rejects_the_extension_and_leaves_the_engine_unchanged() {
        let e = parse("(a - b)*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        let history = vec![a("a")];
        assert_eq!(engine.feed(&history), 1);
        // `b - a` demands the projection start with b: incompatible.
        let err = engine.extend_with_history(&parse("(b - a)#").unwrap(), &history);
        assert!(matches!(err, Err(crate::StateError::IncompatibleHistory { .. })));
        assert_eq!(engine.shard_count(), 1);
        assert_eq!(engine.router().epoch(), 0);
        assert!(engine.try_execute(&a("b")), "engine still serves after the rejected extension");
    }

    #[test]
    fn non_concrete_actions_are_rejected() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let mut engine = ShardedEngine::new(&e).unwrap();
        let abstract_action = Action::new("a", [ix_core::Term::Param(ix_core::Param::new("p"))]);
        assert!(!engine.is_permitted(&abstract_action));
        assert!(!engine.try_execute(&abstract_action));
        assert_eq!(engine.rejected(), 1);
    }

    #[test]
    fn unknown_actions_are_counted_like_the_monolithic_engine() {
        let e = parse("(a - b)* @ (c - d)*").unwrap();
        let mut sharded = ShardedEngine::new(&e).unwrap();
        let mut mono = Engine::new(&e).unwrap();
        assert_eq!(sharded.try_execute(&a("zzz")), mono.try_execute(&a("zzz")));
        assert_eq!(sharded.rejected(), mono.rejected());
        assert_eq!(sharded.is_permitted(&a("zzz")), mono.is_permitted(&a("zzz")));
    }
}
