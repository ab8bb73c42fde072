//! Alphabet-connectivity analysis: the partition of an expression into
//! fine-grained *sync-components* plus the action-ownership map.
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
//! This module computes the maximal flattening: the top-level chain of
//! splittable composition points (every ⊗, and every ‖ whose operand
//! alphabets are disjoint) is broken into its operands, and **every operand
//! becomes its own component** — even when operand alphabets overlap.
//! Overlap is recorded in the [`OwnershipMap`] instead of being merged away:
//! each abstract action maps to the set of components whose alphabets may
//! cover a common concrete instantiation (conservative matching for
//! parameterized actions, see [`Action::may_overlap`]).  An execution engine
//! runs the components as parallel shards and executes a multi-owner action
//! as an atomic step across all of its owners — see
//! `ix_state::ShardedEngine` and the two-phase commit of the sharded
//! interaction manager in `ix-manager`.
//!
//! The previous behaviour — union-finding overlapping operands into one
//! coarse component so that component alphabets are pairwise disjoint — is
//! still available as [`Partition::coalesced`] for consumers that cannot
//! tolerate shared actions.

use crate::action::Action;
use crate::alphabet::Alphabet;
use crate::expr::{Expr, ExprKind};
use std::collections::BTreeMap;

/// The decomposition of an expression into sync-components together with the
/// ownership map of its actions.
///
/// A partition is *versioned*: it can be updated incrementally as a workflow
/// ensemble grows at runtime.  [`Partition::extend`] appends the operands of
/// new constraints as fresh components and [`Partition::recouple`] does the
/// same for constraints that deliberately share actions with existing
/// components; both diff the new [`OwnershipMap`] against the existing one
/// and emit a [`PartitionDelta`] naming exactly the shards to create, the
/// owner sets to widen, and (for coalesced partitions) the components to
/// merge — the input of the sharded engine's and the manager runtime's live
/// migration machinery.
#[derive(Clone, Debug)]
pub struct Partition {
    components: Vec<Component>,
    ownership: OwnershipMap,
    /// Monotone version counter: 0 at construction, +1 per incremental
    /// update.  Routers built from a partition carry this epoch so stale
    /// routing decisions are detectable.
    epoch: u64,
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
    /// Groups of *old* component indices collapsed into one new component
    /// (ascending sources, paired with the new component's index).  Only
    /// coalesced partitions merge; fine-grained updates record overlap in
    /// `widened` instead.
    pub merges: Vec<MergeGroup>,
}

/// One merge of a coalesced update: the old components folded into a new
/// one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeGroup {
    /// Old component indices merged together, ascending.
    pub sources: Vec<usize>,
    /// Index of the merged component in the new partition.
    pub target: usize,
}

impl PartitionDelta {
    /// True if the update touches no existing component: only fresh shards
    /// are created, no owner set widens, nothing merges.  Engines apply such
    /// deltas as a pure shard-append with zero migration.
    pub fn is_pure_append(&self) -> bool {
        self.widened.is_empty() && self.merges.is_empty()
    }

    /// The existing components affected by the update (owners below
    /// `old_len` appearing in a widened owner set or a merge group), sorted
    /// ascending — the shards a live migration must quiesce.
    pub fn affected_existing(&self, old_len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .widened
            .iter()
            .flat_map(|(_, owners)| owners.iter().copied())
            .filter(|&o| o < old_len)
            .chain(self.merges.iter().flat_map(|m| m.sources.iter().copied()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One sync-component: a sub-expression together with its alphabet.
#[derive(Clone, Debug)]
pub struct Component {
    /// The component expression (one operand of the flattened ⊗-chain, or a
    /// ⊗-join of several operands for [`Partition::coalesced`]).
    pub expr: Expr,
    /// The component's alphabet.  Components of [`Partition::of`] may share
    /// actions (the [`OwnershipMap`] records which); components of
    /// [`Partition::coalesced`] have pairwise disjoint alphabets.
    pub alphabet: Alphabet,
}

/// The map from abstract actions to the components owning them.
///
/// An action is *owned* by every component whose alphabet may cover one of
/// its concrete instantiations.  Actions with a single owner can be executed
/// on that component alone; actions with several owners require an atomic
/// step across all of them (the multi-owner routing of the sharded kernel).
/// The map is conservative for parameterized actions: `call(p, x)` and
/// `call(1, sono)` count as overlapping because some instantiation
/// coincides.
#[derive(Clone, Debug, Default)]
pub struct OwnershipMap {
    /// abstract action -> sorted component indices owning it.
    owners: BTreeMap<Action, Vec<usize>>,
}

impl OwnershipMap {
    /// Builds the ownership map for the given component alphabets.
    pub fn of(alphabets: &[Alphabet]) -> OwnershipMap {
        let mut owners: BTreeMap<Action, Vec<usize>> = BTreeMap::new();
        for alphabet in alphabets {
            for action in alphabet.actions() {
                owners.entry(action.clone()).or_insert_with(|| {
                    (0..alphabets.len()).filter(|&j| alphabets[j].overlaps_action(action)).collect()
                });
            }
        }
        OwnershipMap { owners }
    }

    /// The owning components of an abstract action from some component
    /// alphabet (empty for actions outside every alphabet).
    pub fn owners_of_abstract(&self, action: &Action) -> &[usize] {
        self.owners.get(action).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The abstract actions owned by more than one component, with their
    /// owner sets — the "interaction channels" between shards.
    pub fn shared(&self) -> impl Iterator<Item = (&Action, &[usize])> {
        self.owners.iter().filter(|(_, o)| o.len() > 1).map(|(a, o)| (a, o.as_slice()))
    }

    /// Number of abstract actions owned by more than one component.
    pub fn shared_count(&self) -> usize {
        self.shared().count()
    }

    /// True if every action has exactly one owner (the perfectly disjoint
    /// regime in which no cross-shard coordination is ever needed).
    pub fn is_exclusive(&self) -> bool {
        self.owners.values().all(|o| o.len() == 1)
    }

    /// All (abstract action, owner set) entries.
    pub fn entries(&self) -> impl Iterator<Item = (&Action, &[usize])> {
        self.owners.iter().map(|(a, o)| (a, o.as_slice()))
    }
}

impl Partition {
    /// Computes the fine-grained partition of `expr`: every operand of the
    /// maximal splittable top-level chain becomes a component, and
    /// overlapping alphabets are recorded in the ownership map instead of
    /// forcing a merge.
    ///
    /// The result always has at least one component; an expression that does
    /// not decompose yields the trivial partition `[expr]`.
    pub fn of(expr: &Expr) -> Partition {
        let mut operands = Vec::new();
        flatten(expr, &mut operands);
        let components =
            operands.into_iter().map(|e| Component { alphabet: e.alphabet(), expr: e }).collect();
        Partition::from_components(components, 0)
    }

    /// Computes the coarse partition with pairwise disjoint component
    /// alphabets: operands whose alphabets may cover a common concrete
    /// action are merged with a union–find and re-joined with ⊗ (sound
    /// because ⊗ is associative and commutative and the flattened chain is
    /// semantically a single large ⊗).  Every action then has exactly one
    /// owner, at the price of one shared action collapsing otherwise
    /// independent operands into a single component.
    pub fn coalesced(expr: &Expr) -> Partition {
        let mut operands = Vec::new();
        flatten(expr, &mut operands);
        let alphabets: Vec<Alphabet> = operands.iter().map(|e| e.alphabet()).collect();
        let components = overlap_groups(&alphabets)
            .iter()
            .map(|members| join(&operands, &alphabets, members))
            .collect();
        Partition::from_components(components, 0)
    }

    /// Reassembles a partition from serialized components and a stored
    /// epoch — the deserialization counterpart of [`Partition::components`]
    /// / [`Partition::epoch`].  The ownership map is recomputed from the
    /// component alphabets (it is derived data and is not persisted).
    pub fn from_components(components: Vec<Component>, epoch: u64) -> Partition {
        let alphabets: Vec<Alphabet> = components.iter().map(|c| c.alphabet.clone()).collect();
        Partition { components, ownership: OwnershipMap::of(&alphabets), epoch }
    }

    /// The partition's version: 0 at construction, incremented by every
    /// incremental update ([`Partition::extend`], [`Partition::recouple`],
    /// [`Partition::extend_coalesced`]).
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
    /// Overlap between new and existing alphabets is recorded in the
    /// rebuilt [`OwnershipMap`]; the returned [`PartitionDelta`] diffs the
    /// new map against the old one.  A disjoint addition yields a
    /// pure-append delta (no widened owner sets); a coupling constraint
    /// widens exactly the owner sets of the actions it shares.
    pub fn extend(&self, new_operands: &[Expr]) -> (Partition, PartitionDelta) {
        let mut components = self.components.clone();
        let old_len = components.len();
        for operand in new_operands {
            let mut flat = Vec::new();
            flatten(operand, &mut flat);
            components
                .extend(flat.into_iter().map(|e| Component { alphabet: e.alphabet(), expr: e }));
        }
        let extended = Partition::from_components(components, self.epoch + 1);
        let widened = extended
            .ownership
            .entries()
            .filter(|(action, owners)| {
                owners.iter().any(|&o| o < old_len)
                    && *owners != self.ownership.owners_of_abstract(action)
            })
            .map(|(action, owners)| (action.clone(), owners.to_vec()))
            .collect();
        let added = (old_len..extended.len()).collect();
        (extended, PartitionDelta { added, widened, merges: Vec::new() })
    }

    /// Extends the partition with one *coupling* constraint — a new operand
    /// whose alphabet deliberately intersects existing components (a shared
    /// audit step, a new inter-workflow ordering rule).  Identical to
    /// [`Partition::extend`] except that the returned delta is guaranteed to
    /// widen at least one owner set; passing a fully disjoint constraint is
    /// almost certainly a mistake (use `extend`), so the widened list being
    /// empty is reported as `None`.
    pub fn recouple(&self, coupling: &Expr) -> Option<(Partition, PartitionDelta)> {
        let (partition, delta) = self.extend(std::slice::from_ref(coupling));
        if delta.widened.is_empty() {
            return None;
        }
        Some((partition, delta))
    }

    /// Extends a **coalesced** partition (pairwise disjoint component
    /// alphabets, see [`Partition::coalesced`]) while preserving
    /// disjointness: new operands overlapping existing components force a
    /// union–find merge, re-joining the group members with ⊗.  The delta's
    /// [`PartitionDelta::merges`] names every group of old components that
    /// collapsed — the coarse-partition analogue of an owner-set widening,
    /// and the case in which a migration genuinely has to move and combine
    /// shard states.
    pub fn extend_coalesced(&self, new_operands: &[Expr]) -> (Partition, PartitionDelta) {
        let old_len = self.components.len();
        let mut operands: Vec<Expr> = self.components.iter().map(|c| c.expr.clone()).collect();
        let mut alphabets: Vec<Alphabet> =
            self.components.iter().map(|c| c.alphabet.clone()).collect();
        for operand in new_operands {
            let mut flat = Vec::new();
            flatten(operand, &mut flat);
            for e in flat {
                alphabets.push(e.alphabet());
                operands.push(e);
            }
        }

        let mut added = Vec::new();
        let mut merges = Vec::new();
        let components = overlap_groups(&alphabets)
            .iter()
            .enumerate()
            .map(|(target, members)| {
                let old_members: Vec<usize> =
                    members.iter().copied().filter(|&i| i < old_len).collect();
                if old_members.is_empty() {
                    added.push(target);
                } else if old_members.len() > 1 || members.len() > old_members.len() {
                    merges.push(MergeGroup { sources: old_members, target });
                }
                join(&operands, &alphabets, members)
            })
            .collect();
        let delta = PartitionDelta { added, widened: Vec::new(), merges };
        (Partition::from_components(components, self.epoch + 1), delta)
    }

    /// Re-joins the component expressions with ⊗ — the monolithic
    /// expression the partition currently represents (semantically equal to
    /// the original expression extended by every update applied so far).
    pub fn joined_expr(&self) -> Expr {
        self.components
            .iter()
            .map(|c| c.expr.clone())
            .reduce(Expr::sync)
            .unwrap_or_else(Expr::empty)
    }

    /// The components, in the order their operand appears in the original
    /// expression.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The ownership map: which components own which abstract actions.
    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    /// The components owning a concrete action (sorted ascending; empty for
    /// actions outside every component alphabet).
    pub fn owners_of(&self, concrete: &Action) -> Vec<usize> {
        (0..self.components.len())
            .filter(|&i| self.components[i].alphabet.covers(concrete))
            .collect()
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

    /// True if the expression decomposed into more than one component.
    pub fn is_sharded(&self) -> bool {
        self.components.len() > 1
    }

    /// The component expressions.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        self.components.iter().map(|c| &c.expr)
    }
}

/// Flattens the maximal top-level chain of splittable composition points.
///
/// * `Sync(l, r)` is always a composition point (⊗ is associative and
///   commutative, so regrouping its operands is sound whether or not their
///   alphabets overlap — shared actions become multi-owner entries of the
///   ownership map).
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

/// The operand indices grouped by transitive alphabet overlap (a union–find
/// over pairwise [`Alphabet::is_disjoint`]), preserving the original
/// operand order both across and within groups.
fn overlap_groups(alphabets: &[Alphabet]) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let mut parent: Vec<usize> = (0..alphabets.len()).collect();
    for i in 0..alphabets.len() {
        for j in i + 1..alphabets.len() {
            if !alphabets[i].is_disjoint(&alphabets[j]) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[rj] = ri;
                }
            }
        }
    }
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for i in 0..alphabets.len() {
        let root = find(&mut parent, i);
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, members)) => members.push(i),
            None => groups.push((root, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// One coalesced component: the members' operands re-joined with ⊗, over
/// the union of their alphabets.
fn join(operands: &[Expr], alphabets: &[Alphabet], members: &[usize]) -> Component {
    let expr = members
        .iter()
        .map(|&i| operands[i].clone())
        .reduce(Expr::sync)
        .expect("every group has at least one operand");
    let alphabet = members.iter().fold(Alphabet::new(), |acc, &i| acc.union(&alphabets[i]));
    Component { expr, alphabet }
}

/// Convenience wrapper: the component expressions of [`Partition::of`].
pub fn sync_components(expr: &Expr) -> Vec<Expr> {
    Partition::of(expr).exprs().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn components(src: &str) -> Vec<String> {
        sync_components(&parse(src).unwrap()).iter().map(|e| e.to_string()).collect()
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
        let p = Partition::of(&parse("(a - b)* @ (b - c)*").unwrap());
        assert_eq!(p.len(), 2);
        assert_eq!(p.owners_of(&Action::nullary("b")), vec![0, 1]);
        assert_eq!(p.owners_of(&Action::nullary("a")), vec![0]);
        assert_eq!(p.owners_of(&Action::nullary("c")), vec![1]);
        assert_eq!(p.ownership().shared_count(), 1);
        assert!(!p.ownership().is_exclusive());
        // Chain of three where the middle overlaps both ends: three
        // components, each boundary action with two owners.
        let p = Partition::of(&parse("(a - b)* @ (b - c)* @ (c - d)*").unwrap());
        assert_eq!(p.len(), 3);
        assert_eq!(p.owners_of(&Action::nullary("b")), vec![0, 1]);
        assert_eq!(p.owners_of(&Action::nullary("c")), vec![1, 2]);
        assert_eq!(p.ownership().shared_count(), 2);
    }

    #[test]
    fn coalesced_partition_merges_overlapping_operands() {
        // The pre-multi-owner behaviour: overlap forces a merge.
        let p = Partition::coalesced(&parse("(a - b)* @ (b - c)*").unwrap());
        assert_eq!(p.len(), 1);
        assert!(p.ownership().is_exclusive());
        // a-b and b-c overlap; x-y is independent.
        let p = Partition::coalesced(&parse("(a - b)* @ (x - y)* @ (b - c)*").unwrap());
        assert_eq!(p.len(), 2);
        assert!(p.is_sharded());
        let merged = p
            .components()
            .iter()
            .find(|c| c.alphabet.contains_abstract(&Action::nullary("a")))
            .unwrap();
        assert!(merged.alphabet.contains_abstract(&Action::nullary("c")));
        assert!(!merged.alphabet.contains_abstract(&Action::nullary("x")));
        // Coalesced components have pairwise disjoint alphabets.
        for (i, ci) in p.components().iter().enumerate() {
            for cj in p.components().iter().skip(i + 1) {
                assert!(ci.alphabet.is_disjoint(&cj.alphabet));
            }
        }
    }

    #[test]
    fn one_coupled_action_no_longer_collapses_the_ensemble() {
        // Four otherwise-independent groups share a global `audit` action.
        // The coalesced partition collapses to one component; the
        // fine-grained partition keeps all four and reports `audit` as the
        // single interaction channel.
        let src = "((a1 - b1)* - audit)* @ ((a2 - b2)* - audit)* \
                   @ ((a3 - b3)* - audit)* @ ((a4 - b4)* - audit)*";
        let expr = parse(src).unwrap();
        assert_eq!(Partition::coalesced(&expr).len(), 1);
        let p = Partition::of(&expr);
        assert_eq!(p.len(), 4);
        assert_eq!(p.owners_of(&Action::nullary("audit")), vec![0, 1, 2, 3]);
        assert_eq!(p.owners_of(&Action::nullary("a3")), vec![2]);
        let shared: Vec<_> = p.ownership().shared().collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].0, &Action::nullary("audit"));
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
        let p =
            Partition::of(&parse("(some p { call(p, sono) })* @ (call(1, sono) - done)*").unwrap());
        assert_eq!(p.len(), 2);
        let concrete = Action::concrete(
            "call",
            [crate::value::Value::int(1), crate::value::Value::sym("sono")],
        );
        assert_eq!(p.owners_of(&concrete), vec![0, 1]);
        let other = Action::concrete(
            "call",
            [crate::value::Value::int(2), crate::value::Value::sym("sono")],
        );
        assert_eq!(p.owners_of(&other), vec![0], "call(2, sono) only matches call(p, sono)");
        // Distinct action names never overlap.
        let p = Partition::of(&parse("(some p { call(p) })* @ (some p { perform(p) })*").unwrap());
        assert_eq!(p.len(), 2);
        assert!(p.ownership().is_exclusive());
    }

    #[test]
    fn quantifiers_and_conjunctions_stay_whole() {
        assert_eq!(components("sync p { (e(p) - f(p))* }").len(), 1);
        assert_eq!(components("(a - b) & (c - d)").len(), 1);
    }

    #[test]
    fn disjoint_component_alphabets_are_pairwise_disjoint() {
        let p = Partition::of(&parse("(a - b)* @ (c - d)* @ (e - f)* @ (g - h)*").unwrap());
        assert_eq!(p.len(), 4);
        assert!(p.ownership().is_exclusive());
        for (i, ci) in p.components().iter().enumerate() {
            for cj in p.components().iter().skip(i + 1) {
                assert!(ci.alphabet.is_disjoint(&cj.alphabet));
            }
        }
    }

    #[test]
    fn ownership_map_entries_cover_every_abstract_action() {
        let p = Partition::of(&parse("(a - b)* @ (b - c)*").unwrap());
        let entries: Vec<_> = p.ownership().entries().collect();
        assert_eq!(entries.len(), 3, "a, b, c");
        assert_eq!(p.ownership().owners_of_abstract(&Action::nullary("b")), &[0, 1]);
        assert!(p.ownership().owners_of_abstract(&Action::nullary("z")).is_empty());
    }

    #[test]
    fn disjoint_extend_is_a_pure_append() {
        let p = Partition::of(&parse("(a - b)* @ (c - d)*").unwrap());
        assert_eq!(p.epoch(), 0);
        let (q, delta) = p.extend(&[parse("(e - f)*").unwrap()]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.epoch(), 1);
        assert_eq!(delta.added, vec![2]);
        assert!(delta.is_pure_append(), "disjoint additions widen nothing");
        assert!(delta.affected_existing(p.len()).is_empty());
        assert_eq!(q.owners_of(&Action::nullary("e")), vec![2]);
        // The extended partition equals the from-scratch partition of the
        // joined expression.
        let scratch = Partition::of(&q.joined_expr());
        assert_eq!(scratch.len(), q.len());
        for (a, owners) in q.ownership().entries() {
            assert_eq!(scratch.ownership().owners_of_abstract(a), owners);
        }
    }

    #[test]
    fn extend_flattens_multi_operand_constraints() {
        let p = Partition::of(&parse("(a - b)*").unwrap());
        let (q, delta) = p.extend(&[parse("(c - d)* @ (e - f)*").unwrap()]);
        assert_eq!(q.len(), 3, "the new constraint's own chain is flattened");
        assert_eq!(delta.added, vec![1, 2]);
        assert!(delta.is_pure_append());
        assert_eq!(q.epoch(), 1);
    }

    #[test]
    fn coupling_extend_widens_exactly_the_shared_owner_sets() {
        let p = Partition::of(&parse("(a - b)* @ (c - d)*").unwrap());
        // The coupling shares `a` with component 0 and nothing else.
        let (q, delta) = p.extend(&[parse("(a* - audit)*").unwrap()]);
        assert_eq!(q.len(), 3);
        assert_eq!(delta.added, vec![2]);
        assert!(!delta.is_pure_append());
        assert_eq!(delta.affected_existing(p.len()), vec![0]);
        let widened: Vec<_> = delta.widened.iter().map(|(a, o)| (a.clone(), o.clone())).collect();
        assert_eq!(widened, vec![(Action::nullary("a"), vec![0, 2])]);
        assert_eq!(q.owners_of(&Action::nullary("a")), vec![0, 2]);
        assert_eq!(q.owners_of(&Action::nullary("audit")), vec![2]);
        assert_eq!(q.owners_of(&Action::nullary("c")), vec![1], "unrelated owners untouched");
    }

    #[test]
    fn recouple_requires_overlap() {
        let p = Partition::of(&parse("(a - b)* @ (c - d)*").unwrap());
        assert!(p.recouple(&parse("(x - y)*").unwrap()).is_none(), "disjoint: use extend");
        let (q, delta) = p.recouple(&parse("((a - b)* - audit)*").unwrap()).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(delta.widened.len(), 2, "a and b both widen");
        assert_eq!(delta.affected_existing(p.len()), vec![0]);
    }

    #[test]
    fn extend_with_parameterized_overlap_is_conservative() {
        let p = Partition::of(&parse("(call(1, sono) - done)*").unwrap());
        let (q, delta) = p.extend(&[parse("(some p { call(p, sono) })*").unwrap()]);
        assert_eq!(q.len(), 2);
        assert!(!delta.is_pure_append(), "call(p, sono) may instantiate to call(1, sono)");
        assert_eq!(delta.affected_existing(p.len()), vec![0]);
        let concrete = Action::concrete(
            "call",
            [crate::value::Value::int(1), crate::value::Value::sym("sono")],
        );
        assert_eq!(q.owners_of(&concrete), vec![0, 1]);
    }

    #[test]
    fn coalesced_extend_reports_merges() {
        let p = Partition::coalesced(&parse("(a - b)* @ (c - d)* @ (e - f)*").unwrap());
        assert_eq!(p.len(), 3);
        // A bridge over a and c collapses components 0 and 1 into one.
        let (q, delta) = p.extend_coalesced(&[parse("(a - c)*").unwrap()]);
        assert_eq!(q.len(), 2);
        assert!(delta.added.is_empty());
        assert_eq!(delta.merges.len(), 1);
        assert_eq!(delta.merges[0].sources, vec![0, 1]);
        assert_eq!(delta.affected_existing(p.len()), vec![0, 1]);
        assert!(q.ownership().is_exclusive(), "coalesced partitions stay exclusive");
        for (i, ci) in q.components().iter().enumerate() {
            for cj in q.components().iter().skip(i + 1) {
                assert!(ci.alphabet.is_disjoint(&cj.alphabet));
            }
        }
        // A disjoint addition stays a pure append even when coalesced.
        let (r, delta) = q.extend_coalesced(&[parse("(x - y)*").unwrap()]);
        assert_eq!(r.len(), 3);
        assert_eq!(delta.added.len(), 1);
        assert!(delta.is_pure_append());
        assert_eq!(r.epoch(), 2);
    }

    #[test]
    fn empty_expression_is_a_trivial_component() {
        let p = Partition::of(&Expr::empty());
        assert_eq!(p.len(), 1);
        assert!(!p.is_sharded());
        assert!(!p.is_empty());
        assert!(p.ownership().is_exclusive());
    }
}
