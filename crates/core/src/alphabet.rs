//! Alphabets α(x) and the alphabet complement κ.
//!
//! The alphabet of an expression (last column of Table 8) is the set of
//! abstract actions occurring in it.  The synchronization operator y ⊗ z uses
//! the alphabet complement κ_x(y) = α(x) \ α(y): operand y only constrains
//! actions of its own alphabet and lets all other actions of the combined
//! expression pass freely (the "open-world assumption" behind the modular
//! coupling of independently developed subgraphs, Fig. 7).
//!
//! Since abstract actions may contain parameters, membership of a *concrete*
//! action in an alphabet is decided by unification-style matching (same name
//! and arity, concrete argument positions equal, parameter positions bind
//! consistently — see [`Action::matches_concrete`]).
//!
//! An alphabet is built once and then only asked and shared: it is a sorted,
//! deduplicated `Arc<[Action]>`, so a clone is a reference count, a
//! membership query is a binary search over a contiguous slice, and no
//! query allocates.  Iteration order, equality, ordering and hashing must
//! equal those of a `BTreeSet<Action>` of the same actions (`Ord` order, a
//! lexicographic comparison, a length prefix then the elements): the
//! topology blob, snapshots and table fingerprints walk or hash alphabets,
//! and their bytes must not depend on the representation.

use crate::action::Action;
use crate::expr::{Expr, ExprKind};
use crate::Symbol;
use std::fmt;
use std::sync::Arc;

/// A finite set of abstract actions: sorted, deduplicated, immutable.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Alphabet {
    actions: Arc<[Action]>,
}

impl Alphabet {
    /// The empty alphabet.
    pub fn new() -> Alphabet {
        Alphabet::default()
    }

    /// Builds an alphabet from an iterator of abstract actions.
    pub fn from_actions(actions: impl IntoIterator<Item = Action>) -> Alphabet {
        let mut actions: Vec<Action> = actions.into_iter().collect();
        actions.sort_unstable();
        actions.dedup();
        Alphabet { actions: actions.into() }
    }

    /// The abstract actions of this alphabet, in ascending order.
    pub fn actions(&self) -> std::slice::Iter<'_, Action> {
        self.actions.iter()
    }

    /// The abstract actions as one sorted slice.
    pub fn as_slice(&self) -> &[Action] {
        &self.actions
    }

    /// Number of abstract actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Set union α(y) ∪ α(z).
    pub fn union(&self, other: &Alphabet) -> Alphabet {
        self.merge(other, |_, _| true)
    }

    /// Set difference, used for the alphabet complement κ_x(y) = α(x) \ α(y).
    pub fn difference(&self, other: &Alphabet) -> Alphabet {
        self.merge(other, |mine, theirs| mine && !theirs)
    }

    /// One pass over both sorted slices, keeping each action for which
    /// `keep(in self, in other)` holds.
    fn merge(&self, other: &Alphabet, keep: impl Fn(bool, bool) -> bool) -> Alphabet {
        let (mut mine, mut theirs) = (self.as_slice(), other.as_slice());
        let mut out = Vec::with_capacity(mine.len() + theirs.len());
        while let Some(action) = mine.first().into_iter().chain(theirs.first()).min() {
            let (in_mine, in_theirs) =
                (mine.first() == Some(action), theirs.first() == Some(action));
            if keep(in_mine, in_theirs) {
                out.push(action.clone());
            }
            mine = &mine[in_mine as usize..];
            theirs = &theirs[in_theirs as usize..];
        }
        Alphabet { actions: out.into() }
    }

    /// True if the exact abstract action is a member (syntactic membership).
    pub fn contains_abstract(&self, a: &Action) -> bool {
        self.actions.binary_search(a).is_ok()
    }

    /// The members whose action name is `name` — the symbol-indexed
    /// candidate set for routing a concrete action.  Actions order by name
    /// first, so the candidates are one contiguous range of the slice, found
    /// by two binary searches: the lookup costs O(log n) plus the matching
    /// actions, not a scan of the whole alphabet.
    pub fn candidates(&self, name: Symbol) -> &[Action] {
        let start = self.actions.partition_point(|a| a.name() < name);
        let len = self.actions[start..].partition_point(|a| a.name() == name);
        &self.actions[start..start + len]
    }

    /// The first member (in alphabet order) that the concrete action
    /// matches — the abstract entry that "covers" it, under which shards
    /// index their subscriptions.
    pub fn covering(&self, concrete: &Action) -> Option<&Action> {
        self.candidates(concrete.name()).iter().find(|a| a.matches_concrete(concrete))
    }

    /// True if the concrete action matches some abstract action of the
    /// alphabet.  This is the membership test the synchronization operator
    /// uses to decide whether an operand "knows" an action; dispatch is on
    /// the action name via [`Alphabet::candidates`].
    pub fn covers(&self, concrete: &Action) -> bool {
        self.covering(concrete).is_some()
    }

    /// True if the two alphabets share no footprint: no concrete action can
    /// be covered by both.  Conservative approximation via pairwise
    /// unifiability of abstract actions ([`Action::may_overlap`]).
    pub fn is_disjoint(&self, other: &Alphabet) -> bool {
        !self.actions().any(|a| other.overlaps_action(a))
    }

    /// True if some member of the alphabet could be instantiated to the same
    /// concrete action as `action` ([`Action::may_overlap`]).  A partition
    /// uses this to decide which components co-own an abstract action.
    /// Overlap requires equal names, so the symbol index applies here too.
    pub fn overlaps_action(&self, action: &Action) -> bool {
        self.candidates(action.name()).iter().any(|a| a.may_overlap(action))
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.actions().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Action> for Alphabet {
    fn from_iter<T: IntoIterator<Item = Action>>(iter: T) -> Alphabet {
        Alphabet::from_actions(iter)
    }
}

impl Expr {
    /// The alphabet α(x): the set of abstract actions occurring in the
    /// expression (Table 8, last column).  Quantifiers do not change the
    /// alphabet — the abstract (parameterized) atoms themselves are its
    /// elements.
    pub fn alphabet(&self) -> Alphabet {
        let mut atoms = Vec::new();
        self.visit(&mut |e| {
            if let ExprKind::Atom(a) = e.kind() {
                atoms.push(a.clone());
            }
        });
        Alphabet::from_actions(atoms)
    }

    /// The alphabet complement κ_x(y) = α(x) \ α(y) where `self` plays the
    /// role of the surrounding expression x.
    pub fn alphabet_complement(&self, y: &Expr) -> Alphabet {
        self.alphabet().difference(&y.alphabet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Param, Term, Value};

    fn atom(name: &str) -> Expr {
        Expr::atom(Action::nullary(name))
    }

    fn act_p(name: &str, p: &str) -> Action {
        Action::new(name, [Term::Param(Param::new(p))])
    }

    #[test]
    fn alphabet_collects_atoms_across_operators() {
        let e = Expr::sync(Expr::seq(atom("a"), atom("b")), Expr::or(atom("b"), atom("c")));
        let alpha = e.alphabet();
        assert_eq!(alpha.len(), 3);
        assert!(alpha.contains_abstract(&Action::nullary("a")));
        assert!(alpha.contains_abstract(&Action::nullary("c")));
    }

    #[test]
    fn alphabet_complement_is_set_difference() {
        let y = Expr::seq(atom("a"), atom("b"));
        let z = Expr::seq(atom("b"), atom("c"));
        let x = Expr::sync(y.clone(), z.clone());
        let kappa_y = x.alphabet_complement(&y);
        assert_eq!(kappa_y.len(), 1);
        assert!(kappa_y.contains_abstract(&Action::nullary("c")));
        let kappa_z = x.alphabet_complement(&z);
        assert!(kappa_z.contains_abstract(&Action::nullary("a")));
    }

    #[test]
    fn covers_uses_parameter_matching() {
        let alpha = Alphabet::from_actions([act_p("call", "p")]);
        assert!(alpha.covers(&Action::concrete("call", [Value::int(1)])));
        assert!(alpha.covers(&Action::concrete("call", [Value::int(2)])));
        assert!(!alpha.covers(&Action::concrete("call", [])));
        assert!(!alpha.covers(&Action::concrete("perform", [Value::int(1)])));
    }

    #[test]
    fn quantifiers_keep_parameterized_atoms_in_the_alphabet() {
        let p = Param::new("p");
        let e = Expr::par_q(p, Expr::atom(act_p("prepare", "p")));
        let alpha = e.alphabet();
        assert_eq!(alpha.len(), 1);
        assert!(alpha.covers(&Action::concrete("prepare", [Value::int(5)])));
    }

    #[test]
    fn disjointness_is_conservative_for_parameterized_actions() {
        let a = Alphabet::from_actions([act_p("call", "p")]);
        let b = Alphabet::from_actions([Action::concrete("call", [Value::int(1)])]);
        let c = Alphabet::from_actions([Action::nullary("other")]);
        assert!(!a.is_disjoint(&b), "call(p) may instantiate to call(1)");
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn union_and_display() {
        let a = Alphabet::from_actions([Action::nullary("a")]);
        let b = Alphabet::from_actions([Action::nullary("b")]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        let s = u.to_string();
        assert!(s.contains('a') && s.contains('b'));
    }

    #[test]
    fn candidates_are_exactly_the_same_name_members() {
        let alpha = Alphabet::from_actions([
            Action::nullary("a"),
            act_p("call", "p"),
            Action::concrete("call", [Value::int(1), Value::int(2)]),
            Action::nullary("z"),
        ]);
        let call = crate::Symbol::new("call");
        let candidates = alpha.candidates(call);
        assert_eq!(candidates.len(), 2);
        assert!(candidates.iter().all(|a| a.name() == call));
        assert!(alpha.candidates(crate::Symbol::new("missing")).is_empty());
        assert_eq!(
            alpha.covering(&Action::concrete("call", [Value::int(9)])),
            Some(&act_p("call", "p"))
        );
        // covers routes through the same index.
        assert!(alpha.covers(&Action::concrete("call", [Value::int(9)])));
        assert!(!alpha.covers(&Action::concrete("missing", [Value::int(9)])));
    }

    #[test]
    fn empty_expression_has_empty_alphabet() {
        assert!(Expr::empty().alphabet().is_empty());
        assert!(Alphabet::new().is_empty());
    }
}
