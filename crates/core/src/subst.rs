//! Parameter substitution.
//!
//! `x.substitute(p, ω)` implements the concretion `x_ω^p` of the paper: every
//! *free* occurrence of the parameter `p` is replaced by the value `ω`.
//! Occurrences below a quantifier that rebinds the same parameter name are
//! left alone (the inner binding shadows the outer one), matching the usual
//! capture rules and the footnote-9 treatment of concretions.
//!
//! Substitution shares unchanged subtrees: if `p` does not occur free in a
//! subtree the original `Arc` is reused, so instantiating quantifier bodies in
//! the operational semantics does not copy the whole expression.

use crate::expr::{Expr, ExprKind};
use crate::value::{Param, Value};

impl Expr {
    /// Substitutes `value` for every free occurrence of `param` (the
    /// concretion x_ω^p).
    pub fn substitute(&self, param: Param, value: Value) -> Expr {
        if !self.mentions_param_free(param) {
            return self.clone();
        }
        match self.kind() {
            ExprKind::Empty | ExprKind::Hole(_) => self.clone(),
            ExprKind::Atom(a) => Expr::atom(a.substitute(param, value)),
            ExprKind::Option(y) => Expr::option(y.substitute(param, value)),
            ExprKind::Seq(y, z) => {
                Expr::seq(y.substitute(param, value), z.substitute(param, value))
            }
            ExprKind::SeqIter(y) => Expr::seq_iter(y.substitute(param, value)),
            ExprKind::Par(y, z) => {
                Expr::par(y.substitute(param, value), z.substitute(param, value))
            }
            ExprKind::ParIter(y) => Expr::par_iter(y.substitute(param, value)),
            ExprKind::Or(y, z) => Expr::or(y.substitute(param, value), z.substitute(param, value)),
            ExprKind::And(y, z) => {
                Expr::and(y.substitute(param, value), z.substitute(param, value))
            }
            ExprKind::Sync(y, z) => {
                Expr::sync(y.substitute(param, value), z.substitute(param, value))
            }
            ExprKind::SomeQ(p, y) => {
                if *p == param {
                    self.clone()
                } else {
                    Expr::some_q(*p, y.substitute(param, value))
                }
            }
            ExprKind::ParQ(p, y) => {
                if *p == param {
                    self.clone()
                } else {
                    Expr::par_q(*p, y.substitute(param, value))
                }
            }
            ExprKind::SyncQ(p, y) => {
                if *p == param {
                    self.clone()
                } else {
                    Expr::sync_q(*p, y.substitute(param, value))
                }
            }
            ExprKind::AllQ(p, y) => {
                if *p == param {
                    self.clone()
                } else {
                    Expr::all_q(*p, y.substitute(param, value))
                }
            }
            ExprKind::Mult(n, y) => Expr::mult(*n, y.substitute(param, value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::value::Term;

    fn p(name: &str) -> Param {
        Param::new(name)
    }

    fn atom_params(name: &str, params: &[&str]) -> Expr {
        Expr::atom(Action::new(name, params.iter().map(|q| Term::Param(Param::new(q)))))
    }

    #[test]
    fn substitution_replaces_free_occurrences() {
        let e = Expr::seq(atom_params("call", &["p", "x"]), atom_params("perform", &["p", "x"]));
        let e1 = e.substitute(p("p"), Value::int(1));
        let free = e1.free_params();
        assert!(!free.contains(&p("p")));
        assert!(free.contains(&p("x")));
        let e2 = e1.substitute(p("x"), Value::sym("sono"));
        assert!(e2.is_closed());
    }

    #[test]
    fn substitution_respects_shadowing() {
        // some p { a(p) } − b(p): only the outer (free) occurrence of p in
        // b(p) must be substituted.
        let inner = Expr::some_q(p("p"), atom_params("a", &["p"]));
        let e = Expr::seq(inner.clone(), atom_params("b", &["p"]));
        let s = e.substitute(p("p"), Value::int(7));
        match s.kind() {
            ExprKind::Seq(l, r) => {
                assert_eq!(l, &inner, "bound occurrence must not be substituted");
                assert!(r.is_closed(), "free occurrence must be substituted");
            }
            other => panic!("unexpected node {other:?}"),
        }
    }

    #[test]
    fn substitution_shares_untouched_subtrees() {
        let untouched = atom_params("a", &["x"]);
        let touched = atom_params("b", &["p"]);
        let e = Expr::par(untouched.clone(), touched);
        let s = e.substitute(p("p"), Value::int(3));
        match s.kind() {
            ExprKind::Par(l, _) => assert!(l.ptr_eq(&untouched)),
            other => panic!("unexpected node {other:?}"),
        }
    }

    #[test]
    fn substitute_on_closed_expression_is_identity_sharing() {
        let e = Expr::seq_iter(Expr::atom(Action::nullary("a")));
        let s = e.substitute(p("p"), Value::int(1));
        assert!(s.ptr_eq(&e));
    }

    #[test]
    fn substitute_all_applies_in_order() {
        let e = atom_params("call", &["p", "x"]);
        let s = e.substitute(p("p"), Value::int(1)).substitute(p("x"), Value::sym("endo"));
        assert_eq!(s, Expr::atom(Action::concrete("call", [Value::int(1), Value::sym("endo")])));
    }

    #[test]
    fn substitution_through_every_operator() {
        let a = atom_params("a", &["p"]);
        let cases = vec![
            Expr::option(a.clone()),
            Expr::seq_iter(a.clone()),
            Expr::par_iter(a.clone()),
            Expr::mult(2, a.clone()),
            Expr::or(a.clone(), a.clone()),
            Expr::and(a.clone(), a.clone()),
            Expr::sync(a.clone(), a.clone()),
            Expr::par(a.clone(), a.clone()),
            Expr::some_q(p("x"), a.clone()),
            Expr::par_q(p("x"), a.clone()),
            Expr::sync_q(p("x"), a.clone()),
            Expr::all_q(p("x"), a.clone()),
        ];
        for e in cases {
            let s = e.substitute(p("p"), Value::int(9));
            assert!(
                !s.free_params().contains(&p("p")),
                "substitution failed for {}",
                e.operator_name()
            );
        }
    }
}
