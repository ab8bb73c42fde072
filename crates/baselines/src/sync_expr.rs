//! Synchronization expressions [Guo, Salomaa & Yu 1996] — reference \[10\] of
//! the paper.
//!
//! Synchronization expressions extend regular expressions with intersection
//! (strict conjunction) and a parallel composition whose operands must have
//! **disjoint alphabets** — the restriction the paper's Fig. 2 discussion
//! singles out.  There is no parallel iteration over overlapping alphabets,
//! no "loose" conjunction (coupling) and there are no parameters.

use crate::error::BaselineError;
use ix_core::{Action, Expr};

/// A synchronization expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncExpr {
    /// The empty word.
    Epsilon,
    /// A single action.
    Atom(Action),
    /// Concatenation.
    Seq(Box<SyncExpr>, Box<SyncExpr>),
    /// Union (disjunction).
    Alt(Box<SyncExpr>, Box<SyncExpr>),
    /// Intersection (strict conjunction).
    And(Box<SyncExpr>, Box<SyncExpr>),
    /// Parallel composition; only legal for operands with disjoint alphabets.
    Par(Box<SyncExpr>, Box<SyncExpr>),
    /// Kleene closure.
    Star(Box<SyncExpr>),
}

impl SyncExpr {
    /// A single nullary action.
    pub fn atom(name: &str) -> SyncExpr {
        SyncExpr::Atom(Action::nullary(name))
    }

    /// Concatenation helper.
    pub fn then(self, other: SyncExpr) -> SyncExpr {
        SyncExpr::Seq(Box::new(self), Box::new(other))
    }

    /// Union helper.
    pub fn or(self, other: SyncExpr) -> SyncExpr {
        SyncExpr::Alt(Box::new(self), Box::new(other))
    }

    /// Intersection helper.
    pub fn and(self, other: SyncExpr) -> SyncExpr {
        SyncExpr::And(Box::new(self), Box::new(other))
    }

    /// Parallel-composition helper.
    pub fn par(self, other: SyncExpr) -> SyncExpr {
        SyncExpr::Par(Box::new(self), Box::new(other))
    }

    /// Kleene-closure helper.
    pub fn star(self) -> SyncExpr {
        SyncExpr::Star(Box::new(self))
    }

    /// Compiles to an interaction expression, enforcing the disjoint-alphabet
    /// restriction on parallel compositions.
    pub fn to_expr(&self) -> Result<Expr, BaselineError> {
        match self {
            SyncExpr::Epsilon => Ok(Expr::empty()),
            SyncExpr::Atom(a) => Ok(Expr::atom(a.clone())),
            SyncExpr::Seq(l, r) => Ok(Expr::seq(l.to_expr()?, r.to_expr()?)),
            SyncExpr::Alt(l, r) => Ok(Expr::or(l.to_expr()?, r.to_expr()?)),
            SyncExpr::And(l, r) => Ok(Expr::and(l.to_expr()?, r.to_expr()?)),
            SyncExpr::Star(b) => Ok(Expr::seq_iter(b.to_expr()?)),
            SyncExpr::Par(l, r) => {
                let le = l.to_expr()?;
                let re = r.to_expr()?;
                let la = le.alphabet();
                let ra = re.alphabet();
                if !la.is_disjoint(&ra) {
                    let witness = la
                        .actions()
                        .find(|a| ra.covers(a) || ra.contains_abstract(a))
                        .map(|a| a.to_string())
                        .unwrap_or_else(|| "<action>".to_string());
                    return Err(BaselineError::OverlappingParallelAlphabets { witness });
                }
                Ok(Expr::par(le, re))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_state::{word_problem, WordStatus};

    fn w(names: &[&str]) -> Vec<Action> {
        names.iter().map(|n| Action::nullary(*n)).collect()
    }

    #[test]
    fn disjoint_parallel_composition_is_allowed() {
        let e = SyncExpr::atom("a")
            .then(SyncExpr::atom("b"))
            .par(SyncExpr::atom("c"))
            .to_expr()
            .unwrap();
        assert_eq!(word_problem(&e, &w(&["a", "c", "b"])).unwrap(), WordStatus::Complete);
    }

    #[test]
    fn overlapping_parallel_composition_is_rejected() {
        let err = SyncExpr::atom("a").par(SyncExpr::atom("a").then(SyncExpr::atom("b"))).to_expr();
        assert!(matches!(err, Err(BaselineError::OverlappingParallelAlphabets { .. })));
        // The same constraint is no problem for interaction expressions.
        let e = ix_core::parse("a | (a - b)").unwrap();
        assert_eq!(word_problem(&e, &w(&["a", "a", "b"])).unwrap(), WordStatus::Complete);
    }

    #[test]
    fn strict_conjunction_is_supported() {
        // (a b | b a) ∩ (a b): only the common word survives.
        let lhs = SyncExpr::atom("a")
            .then(SyncExpr::atom("b"))
            .or(SyncExpr::atom("b").then(SyncExpr::atom("a")));
        let e = lhs.and(SyncExpr::atom("a").then(SyncExpr::atom("b"))).to_expr().unwrap();
        assert_eq!(word_problem(&e, &w(&["a", "b"])).unwrap(), WordStatus::Complete);
        assert_eq!(word_problem(&e, &w(&["b", "a"])).unwrap(), WordStatus::Illegal);
    }

    #[test]
    fn strict_conjunction_forces_auxiliary_branches_for_modular_combination() {
        // The modular-combination problem of Sec. 2: combining two partial
        // specifications with strict conjunction silently forbids every
        // action the other side does not mention...
        let patient = SyncExpr::atom("call").then(SyncExpr::atom("perform"));
        let capacity = SyncExpr::atom("call");
        let combined = patient.clone().and(capacity).to_expr().unwrap();
        assert_eq!(word_problem(&combined, &w(&["call", "perform"])).unwrap(), WordStatus::Illegal);
        // ...whereas the interaction-expression coupling operator keeps the
        // unmentioned action available.
        let coupled = ix_core::parse("(call - perform) @ call").unwrap();
        assert_eq!(word_problem(&coupled, &w(&["call", "perform"])).unwrap(), WordStatus::Complete);
        let _ = patient;
    }

    #[test]
    fn epsilon_and_star() {
        let e = SyncExpr::Epsilon.or(SyncExpr::atom("a")).star().to_expr().unwrap();
        assert_eq!(word_problem(&e, &w(&["a", "a"])).unwrap(), WordStatus::Complete);
        assert_eq!(word_problem(&e, &[]).unwrap(), WordStatus::Complete);
    }
}
