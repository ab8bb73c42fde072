//! The interaction-expression abstract syntax tree.
//!
//! The operators follow Table 8 of the paper: atomic actions, option,
//! sequential composition and iteration, parallel composition and iteration,
//! disjunction, conjunction, synchronization (the "coupling" operator of
//! Fig. 7), and the four quantifiers.  Two conservative extensions are
//! provided because the paper's graphs use them: the *multiplier* (the small
//! `3 … 3` operator of Fig. 6, n concurrent instances of its body) and the
//! empty expression ε (the unit of sequential composition, convenient for
//! builders).  Template holes are placeholders used only inside user-defined
//! operator definitions (Fig. 5) and are rejected by every analysis.
//!
//! Expressions are immutable trees with `Arc` sharing: substitution and
//! template expansion reuse unchanged subtrees, which keeps quantifier
//! instantiation in the operational semantics cheap.

use crate::action::Action;
use crate::value::{Param, Term, Value};
use crate::Symbol;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An interaction expression.
///
/// `Expr` is a cheaply clonable handle (an `Arc` around the node).  Equality
/// and hashing are structural.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Expr(Arc<ExprKind>);

/// The node variants of an interaction expression.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExprKind {
    /// The empty expression ε: Φ = Ψ = { ⟨⟩ }.  Unit of sequential and
    /// parallel composition (extension, see module docs).
    Empty,
    /// An atomic expression: a single (possibly parameterized) action.
    Atom(Action),
    /// Option: the body or the empty word.
    Option(Expr),
    /// Sequential composition y − z.
    Seq(Expr, Expr),
    /// Sequential iteration y* (Kleene closure of complete words).
    SeqIter(Expr),
    /// Parallel composition y ‖ z (shuffle).
    Par(Expr, Expr),
    /// Parallel iteration y# (shuffle closure).
    ParIter(Expr),
    /// Disjunction y ∨ z ("either or").
    Or(Expr, Expr),
    /// Conjunction y ∧ z (strict conjunction).
    And(Expr, Expr),
    /// Synchronization y ⊗ z (weak conjunction / coupling operator):
    /// each operand only constrains the actions of its own alphabet.
    Sync(Expr, Expr),
    /// Disjunction quantifier: "for some p" — the body is traversed for
    /// exactly one arbitrarily chosen value of the parameter.
    SomeQ(Param, Expr),
    /// Parallel quantifier: "for all p, concurrently" — the body may be
    /// traversed concurrently and independently for all values.
    ParQ(Param, Expr),
    /// Synchronization quantifier: weak conjunction over all values.
    SyncQ(Param, Expr),
    /// Conjunction quantifier: strict conjunction over all values.
    AllQ(Param, Expr),
    /// Multiplier: exactly `n` concurrent, independent instances of the body
    /// (the `3 … 3` operator of Fig. 6).
    Mult(u32, Expr),
    /// A template hole, only valid inside user-defined operator definitions.
    Hole(Symbol),
}

impl Expr {
    /// Wraps a node into an expression handle.
    pub fn new(kind: ExprKind) -> Expr {
        Expr(Arc::new(kind))
    }

    /// The node of this expression.
    pub fn kind(&self) -> &ExprKind {
        &self.0
    }

    /// True if both handles point at the same node (fast equality shortcut).
    pub fn ptr_eq(&self, other: &Expr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    // ----- constructors ---------------------------------------------------

    /// The empty expression ε.
    pub fn empty() -> Expr {
        Expr::new(ExprKind::Empty)
    }

    /// An atomic expression.
    pub fn atom(action: Action) -> Expr {
        Expr::new(ExprKind::Atom(action))
    }

    /// Option.
    pub fn option(body: Expr) -> Expr {
        Expr::new(ExprKind::Option(body))
    }

    /// Sequential composition.
    pub fn seq(left: Expr, right: Expr) -> Expr {
        Expr::new(ExprKind::Seq(left, right))
    }

    /// Sequential iteration.
    pub fn seq_iter(body: Expr) -> Expr {
        Expr::new(ExprKind::SeqIter(body))
    }

    /// Parallel composition.
    pub fn par(left: Expr, right: Expr) -> Expr {
        Expr::new(ExprKind::Par(left, right))
    }

    /// Parallel iteration.
    pub fn par_iter(body: Expr) -> Expr {
        Expr::new(ExprKind::ParIter(body))
    }

    /// Disjunction.
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::new(ExprKind::Or(left, right))
    }

    /// Conjunction.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::new(ExprKind::And(left, right))
    }

    /// Synchronization (coupling).
    pub fn sync(left: Expr, right: Expr) -> Expr {
        Expr::new(ExprKind::Sync(left, right))
    }

    /// Disjunction quantifier ("for some p").
    pub fn some_q(param: Param, body: Expr) -> Expr {
        Expr::new(ExprKind::SomeQ(param, body))
    }

    /// Parallel quantifier ("for all p, concurrently").
    pub fn par_q(param: Param, body: Expr) -> Expr {
        Expr::new(ExprKind::ParQ(param, body))
    }

    /// Synchronization quantifier.
    pub fn sync_q(param: Param, body: Expr) -> Expr {
        Expr::new(ExprKind::SyncQ(param, body))
    }

    /// Conjunction quantifier.
    pub fn all_q(param: Param, body: Expr) -> Expr {
        Expr::new(ExprKind::AllQ(param, body))
    }

    /// Multiplier: n concurrent instances of the body.
    pub fn mult(n: u32, body: Expr) -> Expr {
        Expr::new(ExprKind::Mult(n, body))
    }

    /// A template hole (see [`crate::template`]).
    pub fn hole(name: impl Into<Symbol>) -> Expr {
        Expr::new(ExprKind::Hole(name.into()))
    }

    // ----- queries --------------------------------------------------------

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Height of the expression tree (an atom has depth 1).
    pub fn depth(&self) -> usize {
        match self.kind() {
            ExprKind::Empty | ExprKind::Atom(_) | ExprKind::Hole(_) => 1,
            ExprKind::Option(y)
            | ExprKind::SeqIter(y)
            | ExprKind::ParIter(y)
            | ExprKind::SomeQ(_, y)
            | ExprKind::ParQ(_, y)
            | ExprKind::SyncQ(_, y)
            | ExprKind::AllQ(_, y)
            | ExprKind::Mult(_, y) => 1 + y.depth(),
            ExprKind::Seq(y, z)
            | ExprKind::Par(y, z)
            | ExprKind::Or(y, z)
            | ExprKind::And(y, z)
            | ExprKind::Sync(y, z) => 1 + y.depth().max(z.depth()),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Expr> {
        self.iter_children().collect()
    }

    /// Direct children of this node, in order, without allocating — what
    /// every tree walk uses.
    pub fn iter_children(&self) -> impl Iterator<Item = &Expr> {
        let (first, second) = match self.kind() {
            ExprKind::Empty | ExprKind::Atom(_) | ExprKind::Hole(_) => (None, None),
            ExprKind::Option(y)
            | ExprKind::SeqIter(y)
            | ExprKind::ParIter(y)
            | ExprKind::SomeQ(_, y)
            | ExprKind::ParQ(_, y)
            | ExprKind::SyncQ(_, y)
            | ExprKind::AllQ(_, y)
            | ExprKind::Mult(_, y) => (Some(y), None),
            ExprKind::Seq(y, z)
            | ExprKind::Par(y, z)
            | ExprKind::Or(y, z)
            | ExprKind::And(y, z)
            | ExprKind::Sync(y, z) => (Some(y), Some(z)),
        };
        first.into_iter().chain(second)
    }

    /// Calls `f` on every node of the tree (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        for c in self.iter_children() {
            c.visit(f);
        }
    }

    /// All atomic actions occurring in the expression (the raw atoms, not the
    /// alphabet abstraction — see [`crate::alphabet`]).
    pub fn atoms(&self) -> Vec<Action> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let ExprKind::Atom(a) = e.kind() {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
        });
        out
    }

    /// The free (unbound) parameters of the expression.
    pub fn free_params(&self) -> BTreeSet<Param> {
        fn go(e: &Expr, bound: &mut Vec<Param>, out: &mut BTreeSet<Param>) {
            match e.kind() {
                ExprKind::Atom(a) => {
                    for t in a.args() {
                        if let Term::Param(p) = t {
                            if !bound.contains(p) {
                                out.insert(*p);
                            }
                        }
                    }
                }
                ExprKind::SomeQ(p, y)
                | ExprKind::ParQ(p, y)
                | ExprKind::SyncQ(p, y)
                | ExprKind::AllQ(p, y) => {
                    bound.push(*p);
                    go(y, bound, out);
                    bound.pop();
                }
                _ => {
                    for c in e.iter_children() {
                        go(c, bound, out);
                    }
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// True if the expression is *closed*: no free parameters and no template
    /// holes.  Only closed expressions can be evaluated by the semantics.
    pub fn is_closed(&self) -> bool {
        self.free_params().is_empty() && !self.contains_holes()
    }

    /// True if a template hole occurs anywhere in the tree.
    pub fn contains_holes(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e.kind(), ExprKind::Hole(_)) {
                found = true;
            }
        });
        found
    }

    /// True if the parameter `p` occurs free in the expression.
    pub fn mentions_param_free(&self, p: Param) -> bool {
        self.free_params().contains(&p)
    }

    /// All concrete values mentioned anywhere in the expression.
    pub fn mentioned_values(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let ExprKind::Atom(a) = e.kind() {
                out.extend(a.values());
            }
        });
        out
    }

    /// Number of quantifier nodes in the expression.
    pub fn quantifier_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |e| {
            if matches!(
                e.kind(),
                ExprKind::SomeQ(..) | ExprKind::ParQ(..) | ExprKind::SyncQ(..) | ExprKind::AllQ(..)
            ) {
                n += 1;
            }
        });
        n
    }

    /// A short name for the top-level operator, used in diagnostics.
    pub fn operator_name(&self) -> &'static str {
        match self.kind() {
            ExprKind::Empty => "empty",
            ExprKind::Atom(_) => "atom",
            ExprKind::Option(_) => "option",
            ExprKind::Seq(..) => "sequential composition",
            ExprKind::SeqIter(_) => "sequential iteration",
            ExprKind::Par(..) => "parallel composition",
            ExprKind::ParIter(_) => "parallel iteration",
            ExprKind::Or(..) => "disjunction",
            ExprKind::And(..) => "conjunction",
            ExprKind::Sync(..) => "synchronization",
            ExprKind::SomeQ(..) => "disjunction quantifier",
            ExprKind::ParQ(..) => "parallel quantifier",
            ExprKind::SyncQ(..) => "synchronization quantifier",
            ExprKind::AllQ(..) => "conjunction quantifier",
            ExprKind::Mult(..) => "multiplier",
            ExprKind::Hole(_) => "template hole",
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The pretty printer lives in `printer.rs`; Debug delegates to it via
        // Display so that test failures are readable.
        write!(f, "{self}")
    }
}

impl From<Action> for Expr {
    fn from(a: Action) -> Expr {
        Expr::atom(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(name: &str) -> Expr {
        Expr::atom(Action::nullary(name))
    }

    fn atom_p(name: &str, p: &str) -> Expr {
        Expr::atom(Action::new(name, [Term::Param(Param::new(p))]))
    }

    #[test]
    fn construction_and_structural_equality() {
        let e1 = Expr::seq(atom("a"), atom("b"));
        let e2 = Expr::seq(atom("a"), atom("b"));
        assert_eq!(e1, e2);
        assert!(!e1.ptr_eq(&e2));
        let c = e1.clone();
        assert!(e1.ptr_eq(&c));
    }

    #[test]
    fn size_and_depth() {
        let e = Expr::seq(atom("a"), Expr::or(atom("b"), atom("c")));
        assert_eq!(e.size(), 5);
        assert_eq!(e.depth(), 3);
        assert_eq!(atom("a").size(), 1);
        assert_eq!(atom("a").depth(), 1);
    }

    #[test]
    fn free_params_respect_quantifier_binding() {
        let p = Param::new("p");
        let x = Param::new("x");
        // some p { call(p, x) }  — p is bound, x is free.
        let body = Expr::atom(Action::new("call", [Term::Param(p), Term::Param(x)]));
        let e = Expr::some_q(p, body);
        let free = e.free_params();
        assert!(free.contains(&x));
        assert!(!free.contains(&p));
        assert!(!e.is_closed());
        let closed = Expr::par_q(x, e);
        assert!(closed.is_closed());
    }

    #[test]
    fn atoms_are_collected_without_duplicates() {
        let e = Expr::seq(atom("a"), Expr::par(atom("a"), atom("b")));
        let atoms = e.atoms();
        assert_eq!(atoms.len(), 2);
    }

    #[test]
    fn holes_make_expressions_non_closed() {
        let e = Expr::seq(atom("a"), Expr::hole("X"));
        assert!(e.contains_holes());
        assert!(!e.is_closed());
    }

    #[test]
    fn quantifier_count_and_operator_names() {
        let p = Param::new("p");
        let e = Expr::par_q(p, Expr::some_q(Param::new("x"), atom_p("a", "p")));
        assert_eq!(e.quantifier_count(), 2);
        assert_eq!(e.operator_name(), "parallel quantifier");
        assert_eq!(Expr::empty().operator_name(), "empty");
    }

    #[test]
    fn mentioned_values_are_collected() {
        let e = Expr::seq(
            Expr::atom(Action::concrete("a", [Value::int(1)])),
            Expr::atom(Action::concrete("b", [Value::sym("sono")])),
        );
        let vals = e.mentioned_values();
        assert!(vals.contains(&Value::int(1)));
        assert!(vals.contains(&Value::sym("sono")));
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn children_counts_match_arity() {
        assert_eq!(Expr::empty().children().len(), 0);
        assert_eq!(Expr::option(atom("a")).children().len(), 1);
        assert_eq!(Expr::sync(atom("a"), atom("b")).children().len(), 2);
        assert_eq!(Expr::mult(3, atom("a")).children().len(), 1);
    }
}
