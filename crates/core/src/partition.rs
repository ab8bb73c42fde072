//! Alphabet-connectivity analysis: the partition of an expression into
//! fine-grained *sync-components*, and the one table that routes an action
//! to the components owning it.
//!
//! The synchronization operator y ⊗ z lets each operand constrain only the
//! actions of its own alphabet (Sec. 5, Fig. 7).  An action covered by both
//! operand alphabets must be accepted by *both* operands and advances both of
//! their states atomically; an action covered by one operand concerns only
//! that operand; an action covered by neither is outside the language.  The
//! same holds for a parallel composition y ‖ z with disjoint alphabets,
//! because with no shared action every interleaving constraint degenerates to
//! "each operand sees its own projection" — the coupling and the shuffle
//! coincide.
//!
//! [`Partition::of`] computes the maximal flattening: the top-level chain of
//! splittable composition points (every ⊗, and every ‖ whose operand
//! alphabets are disjoint) is broken into its operands, and **every operand
//! becomes its own component** — even when operand alphabets overlap.
//! Components are never merged: an action covered by several component
//! alphabets is *owned* by all of them, and [`Partition::classify`] says
//! which.  The interaction managers of `ix-manager` run each component as a
//! shard and route every action through its partition: a single-owner
//! action is decided on one shard, a multi-owner action runs as one atomic
//! step across all of its owners (so a shared action couples its owners
//! instead of collapsing them into one component), and an action no
//! component owns is outside α(x) and is rejected.  [`Partition::extend`]
//! grows a partition live by appending the operands of new constraints.

use crate::action::Action;
use crate::alphabet::Alphabet;
use crate::expr::{Expr, ExprKind};
use crate::symbol::Symbol;
use std::collections::{BTreeMap, BTreeSet};

/// The decomposition of an expression into sync-components together with
/// the dispatch table of its actions.
///
/// Candidate components are indexed by an action's name and arity; the final
/// membership test is alphabet coverage (which handles parameterized
/// abstract actions).  Owner lists are sorted ascending — the canonical
/// locking order of a cross-shard two-phase commit.
///
/// A partition is *versioned*: [`Partition::extend`] appends the operands
/// of new constraints as fresh components, extends the index by the new
/// alphabets alone, bumps the epoch, and emits a [`PartitionDelta`] naming
/// exactly the shards to create and the owner sets to widen — the input of
/// the manager runtime's live migration machinery.  A routing decision
/// taken against an old epoch is thereby distinguishable from one taken
/// against the current one, which is how the runtime retries stale routes
/// instead of misdelivering them.
#[derive(Clone, Debug)]
pub struct Partition {
    components: Vec<Component>,
    /// `(name, arity)` → the components whose alphabet has an entry of that
    /// signature, ascending.
    by_signature: BTreeMap<(Symbol, usize), Vec<usize>>,
    /// Monotone version counter: 0 at construction, +1 per incremental
    /// update.
    epoch: u64,
}

/// Ownership classification of an action (see [`Partition::classify`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// No component's alphabet covers the action — it is outside α(x).
    None,
    /// Exactly one owning component: the local fast path.
    Single(usize),
    /// Several owners, ascending (the 2PC lock / enqueue order).
    Multi(Vec<usize>),
}

/// The diff between a partition and its incremental update — what an
/// execution engine must do to follow the update without rebuilding.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionDelta {
    /// Indices (in the *new* partition) of the components the update
    /// created — the shards an engine must spawn.
    pub added: Vec<usize>,
    /// Abstract actions whose owner set involves existing components and
    /// changed, with their full new owner set (sorted ascending).  Empty for
    /// a disjoint addition — the zero-migration pure-append case in which no
    /// existing shard is affected and no state moves.
    pub widened: Vec<(Action, Vec<usize>)>,
}

impl PartitionDelta {
    /// True if the update touches no existing component: only fresh shards
    /// are created and no owner set widens.  Engines apply such deltas as a
    /// pure shard-append with zero migration.
    pub fn is_pure_append(&self) -> bool {
        self.widened.is_empty()
    }

    /// The existing components affected by the update (owners below
    /// `old_len` appearing in a widened owner set), sorted ascending — the
    /// shards a live migration must quiesce.
    pub fn affected_existing(&self, old_len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .widened
            .iter()
            .flat_map(|(_, owners)| owners.iter().copied())
            .filter(|&o| o < old_len)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One sync-component: a sub-expression together with its alphabet.
#[derive(Clone, Debug)]
pub struct Component {
    /// The component expression: one operand of the flattened ⊗-chain.
    pub expr: Expr,
    /// The component's alphabet.  Components may share actions.
    pub alphabet: Alphabet,
}

impl Partition {
    /// Computes the fine-grained partition of `expr`: every operand of the
    /// maximal splittable top-level chain becomes a component, and
    /// overlapping alphabets make multi-owner actions instead of forcing a
    /// merge.
    ///
    /// The result always has at least one component; an expression that does
    /// not decompose yields the trivial partition `[expr]`.
    pub fn of(expr: &Expr) -> Partition {
        Partition::from_components(operands(expr), 0)
    }

    /// Reassembles a partition from serialized components and a stored
    /// epoch — the deserialization counterpart of [`Partition::components`]
    /// / [`Partition::epoch`].  The signature index is rebuilt from the
    /// component alphabets (it is derived data and is not persisted).
    pub fn from_components(components: Vec<Component>, epoch: u64) -> Partition {
        let mut partition =
            Partition { components: Vec::new(), by_signature: BTreeMap::new(), epoch };
        partition.append(components);
        partition
    }

    /// Appends components, entering each into the candidate list of every
    /// signature its alphabet has.  Appended ids are larger than every
    /// existing id, so each list stays sorted ascending and a repeat of a
    /// component can only be its last entry.
    fn append(&mut self, components: impl IntoIterator<Item = Component>) {
        for component in components {
            let id = self.components.len();
            for action in component.alphabet.actions() {
                let ids = self.by_signature.entry((action.name(), action.arity())).or_default();
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            }
            self.components.push(component);
        }
    }

    /// The partition's version: 0 at construction, incremented by every
    /// incremental update ([`Partition::extend`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Extends the partition with the operands of additional constraints:
    /// each `new_operands` entry is flattened along its own splittable
    /// top-level chain and every resulting operand becomes a **new**
    /// component — existing components and their states are never touched,
    /// because ⊗ is associative and commutative and the extended ensemble is
    /// semantically `old ⊗ new₁ ⊗ … ⊗ newₙ`.
    ///
    /// Cost is one clone of the existing index plus insertion work
    /// proportional to the *new* alphabets — no existing alphabet is
    /// re-indexed.  The returned [`PartitionDelta`] lists the actions whose
    /// owner set gained a new component and already had an existing one: a
    /// disjoint addition yields a pure-append delta, a coupling constraint
    /// widens exactly the owner sets of the actions it shares.
    pub fn extend(&self, new_operands: &[Expr]) -> (Partition, PartitionDelta) {
        let old_len = self.len();
        let mut extended = self.clone();
        extended.epoch += 1;
        for operand in new_operands {
            extended.append(operands(operand));
        }
        let widened = extended
            .overlap_owners()
            .filter(|(_, owners)| {
                owners.first().is_some_and(|&o| o < old_len)
                    && owners.last().is_some_and(|&o| o >= old_len)
            })
            .collect();
        let added = (old_len..extended.len()).collect();
        (extended, PartitionDelta { added, widened })
    }

    /// Every abstract action of some component alphabet, ascending, with
    /// the components whose alphabets may cover a common concrete
    /// instantiation of it ([`Alphabet::overlaps_action`]; conservative for
    /// parameterized actions, so `call(p, x)` co-owns with `call(1, sono)`).
    /// Computed on demand: O(Σ|α| · components).
    fn overlap_owners(&self) -> impl Iterator<Item = (Action, Vec<usize>)> + '_ {
        let actions: BTreeSet<&Action> =
            self.components.iter().flat_map(|c| c.alphabet.actions()).collect();
        actions.into_iter().map(|action| {
            let owners =
                (0..self.len()).filter(|&i| self.components[i].alphabet.overlaps_action(action));
            (action.clone(), owners.collect())
        })
    }

    /// The abstract actions several components own, with their owner sets —
    /// the "interaction channels" between shards.
    pub fn shared_actions(&self) -> Vec<(Action, Vec<usize>)> {
        self.overlap_owners().filter(|(_, owners)| owners.len() > 1).collect()
    }

    /// The components, in the order their operand appears in the original
    /// expression.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The components owning the action, in ascending order, without
    /// materializing them — the allocation-free fast path for probes that
    /// only need to walk or count the owners.  Empty iff no component's
    /// alphabet covers the action (such actions are outside the
    /// expression's language).
    pub fn owners_iter<'a>(&'a self, action: &'a Action) -> impl Iterator<Item = usize> + 'a {
        let candidates = self.candidates(action).iter().copied();
        candidates.filter(move |&i| self.components[i].alphabet.covers(action))
    }

    /// The components whose alphabets have an entry of the action's name and
    /// arity, ascending.
    fn candidates(&self, action: &Action) -> &[usize] {
        self.by_signature.get(&(action.name(), action.arity())).map_or(&[], Vec::as_slice)
    }

    /// The components owning the action, collected sorted ascending — the
    /// canonical locking order of the cross-shard two-phase commit.
    pub fn owners_of(&self, action: &Action) -> Vec<usize> {
        self.owners_iter(action).collect()
    }

    /// Classifies the action's ownership: one signature lookup, then one
    /// alphabet probe per candidate component, neither of which allocates.
    /// A single owner (or none) allocates nothing; a cross-shard action
    /// allocates its owner list once, sized by the candidate list.
    ///
    /// An action unknown to every component resolves to [`Route::None`] from
    /// the signature index alone — no alphabet probe — so callers can deny
    /// it without touching any queue or lock.
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

    /// The primary (lowest-id) owning component of the action, or `None` if
    /// no component covers it.  The primary owner holds the action's log
    /// entries in the sharded manager.
    pub fn route(&self, action: &Action) -> Option<usize> {
        self.owners_iter(action).next()
    }

    /// True if more than one component owns the action (a cross-shard
    /// action requiring two-phase commit).
    pub fn is_shared(&self, action: &Action) -> bool {
        self.owners_iter(action).nth(1).is_some()
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the partition has no components.  Never true for partitions
    /// built by [`Partition::of`], which always yields at least one.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The component expressions.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        self.components.iter().map(|c| &c.expr)
    }
}

/// The operands of `expr`'s maximal splittable top-level chain, as
/// components.
fn operands(expr: &Expr) -> Vec<Component> {
    let mut operands = Vec::new();
    flatten(expr, &mut operands);
    operands.into_iter().map(|e| Component { alphabet: e.alphabet(), expr: e }).collect()
}

/// Flattens the maximal top-level chain of splittable composition points.
///
/// * `Sync(l, r)` is always a composition point (⊗ is associative and
///   commutative, so regrouping its operands is sound whether or not their
///   alphabets overlap — shared actions become multi-owner actions).
/// * `Par(l, r)` is a composition point only when the operand alphabets are
///   disjoint — then ‖ coincides with ⊗ and joins the chain; otherwise the
///   shuffle constraint is real and the node is an indivisible operand.
///
/// Everything else (quantifiers, sequences, iterations, conjunctions …)
/// constrains the relative order of its sub-alphabets and must stay whole.
fn flatten(expr: &Expr, out: &mut Vec<Expr>) {
    match expr.kind() {
        ExprKind::Sync(l, r) => {
            flatten(l, out);
            flatten(r, out);
        }
        ExprKind::Par(l, r) if l.alphabet().is_disjoint(&r.alphabet()) => {
            flatten(l, out);
            flatten(r, out);
        }
        _ => out.push(expr.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::value::Value;

    fn components(src: &str) -> Vec<String> {
        Partition::of(&parse(src).unwrap()).exprs().map(|e| e.to_string()).collect()
    }

    fn partition(src: &str) -> Partition {
        Partition::of(&parse(src).unwrap())
    }

    fn a(name: &str) -> Action {
        Action::nullary(name)
    }

    #[test]
    fn atomic_expressions_are_one_component() {
        assert_eq!(components("a - b").len(), 1);
        assert_eq!(components("(a + b)*").len(), 1);
    }

    #[test]
    fn disjoint_sync_operands_split() {
        let c = components("(a - b)* @ (c - d)*");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn nested_sync_chains_flatten_completely() {
        let c = components("((a - b)* @ (c - d)*) @ (e - f)*");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn overlapping_sync_operands_stay_separate_with_shared_owners() {
        // b occurs on both sides: two components, b owned by both.
        let p = partition("(a - b)* @ (b - c)*");
        assert_eq!(p.len(), 2);
        assert_eq!(p.owners_of(&a("b")), vec![0, 1]);
        assert_eq!(p.owners_of(&a("a")), vec![0]);
        assert_eq!(p.owners_of(&a("c")), vec![1]);
        assert_eq!(p.shared_actions(), vec![(a("b"), vec![0, 1])]);
        // Chain of three where the middle overlaps both ends: three
        // components, each boundary action with two owners.
        let p = partition("(a - b)* @ (b - c)* @ (c - d)*");
        assert_eq!(p.len(), 3);
        assert_eq!(p.owners_of(&a("b")), vec![0, 1]);
        assert_eq!(p.owners_of(&a("c")), vec![1, 2]);
        assert_eq!(p.shared_actions().len(), 2);
    }

    #[test]
    fn one_coupled_action_no_longer_collapses_the_ensemble() {
        // Four otherwise-independent groups share a global `audit` action:
        // the partition keeps all four and reports `audit` as the single
        // interaction channel.
        let p = partition(
            "((a1 - b1)* - audit)* @ ((a2 - b2)* - audit)* \
             @ ((a3 - b3)* - audit)* @ ((a4 - b4)* - audit)*",
        );
        assert_eq!(p.len(), 4);
        assert_eq!(p.owners_of(&a("audit")), vec![0, 1, 2, 3]);
        assert_eq!(p.owners_of(&a("a3")), vec![2]);
        assert_eq!(p.shared_actions(), vec![(a("audit"), vec![0, 1, 2, 3])]);
    }

    #[test]
    fn disjoint_parallel_composition_splits() {
        assert_eq!(components("(a - b)* | (c - d)*").len(), 2);
        // Overlapping parallel composition is a real shuffle constraint.
        assert_eq!(components("(a - b)* | (b - c)*").len(), 1);
    }

    #[test]
    fn mixed_sync_and_parallel_chains_split() {
        assert_eq!(components("((a - b)* | (c - d)*) @ (e - f)*").len(), 3);
    }

    #[test]
    fn parameterized_alphabets_use_conservative_overlap() {
        // call(p, x) may instantiate to call(1, sono): conservative
        // multi-owner entry instead of a merge.
        let p = partition("(some p { call(p, sono) })* @ (call(1, sono) - done)*");
        assert_eq!(p.len(), 2);
        let concrete = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
        assert_eq!(p.owners_of(&concrete), vec![0, 1]);
        let other = Action::concrete("call", [Value::int(2), Value::sym("sono")]);
        assert_eq!(p.owners_of(&other), vec![0], "call(2, sono) only matches call(p, sono)");
        assert_eq!(p.shared_actions().len(), 2, "both entries overlap both alphabets");
        // Distinct action names never overlap.
        let p = partition("(some p { call(p) })* @ (some p { perform(p) })*");
        assert_eq!(p.len(), 2);
        assert!(p.shared_actions().is_empty());
    }

    #[test]
    fn quantifiers_and_conjunctions_stay_whole() {
        assert_eq!(components("sync p { (e(p) - f(p))* }").len(), 1);
        assert_eq!(components("(a - b) & (c - d)").len(), 1);
    }

    #[test]
    fn disjoint_component_alphabets_are_pairwise_disjoint() {
        let p = partition("(a - b)* @ (c - d)* @ (e - f)* @ (g - h)*");
        assert_eq!(p.len(), 4);
        assert!(p.shared_actions().is_empty());
        for (i, ci) in p.components().iter().enumerate() {
            for cj in p.components().iter().skip(i + 1) {
                assert!(ci.alphabet.is_disjoint(&cj.alphabet));
            }
        }
    }

    #[test]
    fn ownership_map_entries_cover_every_abstract_action() {
        let p = partition("(a - b)* @ (b - c)*");
        let owners: Vec<_> = ["a", "b", "c", "z"].map(|n| p.owners_of(&a(n))).into();
        assert_eq!(owners, [vec![0], vec![0, 1], vec![1], vec![]]);
    }

    #[test]
    fn disjoint_extend_is_a_pure_append() {
        let base = parse("(a - b)* @ (c - d)*").unwrap();
        let addition = parse("(e - f)*").unwrap();
        let p = Partition::of(&base);
        assert_eq!(p.epoch(), 0);
        let (q, delta) = p.extend(std::slice::from_ref(&addition));
        assert_eq!(q.len(), 3);
        assert_eq!(q.epoch(), 1);
        assert_eq!(delta.added, vec![2]);
        assert!(delta.is_pure_append(), "disjoint additions widen nothing");
        assert!(delta.affected_existing(p.len()).is_empty());
        assert_eq!(q.owners_of(&a("e")), vec![2]);
        // The extended partition routes like the from-scratch partition of
        // the joined expression.
        let scratch = Partition::of(&Expr::sync(base, addition));
        assert_eq!(scratch.len(), q.len());
        for name in ["a", "b", "c", "d", "e", "f", "z"] {
            assert_eq!(scratch.classify(&a(name)), q.classify(&a(name)), "{name}");
        }
    }

    #[test]
    fn extend_flattens_multi_operand_constraints() {
        let p = partition("(a - b)*");
        let (q, delta) = p.extend(&[parse("(c - d)* @ (e - f)*").unwrap()]);
        assert_eq!(q.len(), 3, "the new constraint's own chain is flattened");
        assert_eq!(delta.added, vec![1, 2]);
        assert!(delta.is_pure_append());
        assert_eq!(q.epoch(), 1);
    }

    #[test]
    fn coupling_extend_widens_exactly_the_shared_owner_sets() {
        let p = partition("(a - b)* @ (c - d)*");
        // The coupling shares `a` with component 0 and nothing else.
        let (q, delta) = p.extend(&[parse("(a* - audit)*").unwrap()]);
        assert_eq!(q.len(), 3);
        assert_eq!(delta.added, vec![2]);
        assert!(!delta.is_pure_append());
        assert_eq!(delta.affected_existing(p.len()), vec![0]);
        assert_eq!(delta.widened, vec![(a("a"), vec![0, 2])]);
        assert_eq!(q.owners_of(&a("a")), vec![0, 2]);
        assert_eq!(q.owners_of(&a("audit")), vec![2]);
        assert_eq!(q.owners_of(&a("c")), vec![1], "unrelated owners untouched");
    }

    #[test]
    fn extend_with_parameterized_overlap_is_conservative() {
        let p = partition("(call(1, sono) - done)*");
        let (q, delta) = p.extend(&[parse("(some p { call(p, sono) })*").unwrap()]);
        assert_eq!(q.len(), 2);
        assert!(!delta.is_pure_append(), "call(p, sono) may instantiate to call(1, sono)");
        assert_eq!(delta.affected_existing(p.len()), vec![0]);
        let concrete = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
        assert_eq!(q.owners_of(&concrete), vec![0, 1]);
    }

    #[test]
    fn empty_expression_is_a_trivial_component() {
        let p = Partition::of(&Expr::empty());
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(p.shared_actions().is_empty());
    }

    #[test]
    fn disjoint_coupling_yields_one_shard_per_operand() {
        let p = partition("(a - b)* @ (c - d)* @ (e - f)*");
        assert_eq!(p.len(), 3);
        assert_eq!(p.route(&a("a")), p.route(&a("b")));
        assert_ne!(p.route(&a("a")), p.route(&a("c")));
        assert_eq!(p.route(&a("z")), None);
        assert!(p.owners_of(&a("z")).is_empty());
    }

    #[test]
    fn overlapping_coupling_shards_with_multi_owner_actions() {
        // Four groups coupled through one global `audit` barrier stay four
        // shards, with `audit` owned by all of them.
        let p = partition(
            "((a1 - b1)* - audit)* @ ((a2 - b2)* - audit)* \
             @ ((a3 - b3)* - audit)* @ ((a4 - b4)* - audit)*",
        );
        assert_eq!(p.classify(&a("audit")), Route::Multi(vec![0, 1, 2, 3]));
        assert!(p.is_shared(&a("audit")));
        assert!(!p.is_shared(&a("a1")));
        assert_eq!(p.classify(&a("b3")), Route::Single(2));
    }

    #[test]
    fn monolithic_fallback_for_undecomposable_expressions() {
        let p = partition("(a - b)* & (a* - b*)");
        assert_eq!(p.len(), 1);
        assert_eq!(p.route(&a("a")), Some(0));
        assert_eq!(p.classify(&a("c")), Route::None);
    }

    #[test]
    fn quantified_components_shard_when_action_names_differ() {
        let p = partition("(some p { call(p) - perform(p) })* @ (some q { ship(q) - bill(q) })*");
        assert_eq!(p.len(), 2);
        let call = Action::concrete("call", [Value::int(1)]);
        let ship = Action::concrete("ship", [Value::int(7)]);
        assert_eq!(p.classify(&call), Route::Single(0));
        assert_eq!(p.classify(&ship), Route::Single(1));
    }

    #[test]
    fn router_extension_bumps_the_epoch_and_appends_shards() {
        let p = partition("(a - b)* @ (c - d)*");
        let (q, _) = p.extend(&[parse("(a* - audit)*").unwrap()]);
        assert_eq!((q.epoch(), q.len()), (1, 3));
        assert_eq!(q.owners_of(&a("a")), vec![0, 2], "owner set widened, ascending");
        assert_eq!(q.owners_of(&a("audit")), vec![2]);
        // The old partition still answers with its own epoch's view.
        assert_eq!(p.owners_of(&a("a")), vec![0]);
        assert_eq!(p.epoch(), 0);
    }

    #[test]
    fn classify_denies_unknown_signatures_without_probing() {
        let p = partition("(a - b)* @ (c - d)*");
        assert_eq!(p.classify(&a("zzz")), Route::None);
        // Known name, wrong arity: also a signature-level miss.
        let wrong_arity = Action::concrete("a", [Value::int(1)]);
        assert_eq!(p.classify(&wrong_arity), Route::None);
        assert!(p.candidates(&wrong_arity).is_empty(), "no alphabet is probed");
        assert!(!p.is_shared(&a("zzz")));
    }

    #[test]
    fn disjoint_extension_is_a_pure_append() {
        let p = partition("(a - b)* @ (c - d)*");
        let (q, delta) = p.extend(&[parse("(e - f)*").unwrap()]);
        assert!(delta.is_pure_append());
        assert_eq!((q.len(), q.epoch()), (3, 1));
        assert_eq!(q.owners_of(&a("e")), vec![2]);
        assert_eq!(q.owners_of(&a("a")), p.owners_of(&a("a")), "no owner set widens");
    }
}
