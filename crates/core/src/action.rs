//! Actions — the alphabet elements of interaction expressions.
//!
//! An (abstract) action `[a0, a1, ..., an] ∈ Γ` consists of an action name
//! `a0 ∈ Λ` and zero or more arguments which are either concrete values
//! `ω ∈ Ω` or formal parameters `p ∈ Π`.  A *concrete* action (an element of
//! Σ) has only concrete arguments; concrete words `w ∈ Σ*` are sequences of
//! concrete actions and correspond to sequences of real-world events.
//!
//! Workflow *activities* have a positive duration; following footnote 6 of
//! the paper they are mapped to two point-in-time actions, a start action and
//! a termination action (see [`Action::start`] / [`Action::terminate`]).

use crate::value::{Param, Term, Value};
use crate::Symbol;
use std::fmt;
use std::sync::Arc;

/// An action, abstract (may contain parameters) or concrete (values only).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action {
    name: Symbol,
    args: Arc<[Term]>,
}

impl Action {
    /// Creates an action with the given name and arguments.  Nullary
    /// actions share the empty argument list `Arc::default()` hands out
    /// instead of allocating one each.
    pub fn new(name: impl Into<Symbol>, args: impl IntoIterator<Item = Term>) -> Action {
        let args = args.into_iter();
        let args = if args.size_hint().1 == Some(0) { Arc::default() } else { args.collect() };
        Action { name: name.into(), args }
    }

    /// Creates an action without arguments.
    pub fn nullary(name: impl Into<Symbol>) -> Action {
        Action::new(name, [])
    }

    /// Creates a concrete action from values only.
    pub fn concrete(name: impl Into<Symbol>, args: impl IntoIterator<Item = Value>) -> Action {
        Action::new(name, args.into_iter().map(Term::Value))
    }

    /// The action name a0 ∈ Λ.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The argument terms a1, ..., an.
    pub fn args(&self) -> &[Term] {
        &self.args
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// True if every argument is a concrete value, i.e. the action is an
    /// element of Σ.
    pub fn is_concrete(&self) -> bool {
        self.args.iter().all(Term::is_concrete)
    }

    /// The formal parameters occurring in this action, in argument order and
    /// without duplicates.
    pub fn params(&self) -> Vec<Param> {
        let mut out = Vec::new();
        for t in self.args.iter() {
            if let Term::Param(p) = t {
                if !out.contains(p) {
                    out.push(*p);
                }
            }
        }
        out
    }

    /// The concrete values occurring in this action, in argument order and
    /// without duplicates.
    pub fn values(&self) -> Vec<Value> {
        let mut out = Vec::new();
        for t in self.args.iter() {
            if let Term::Value(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// True if the parameter `p` occurs among the arguments.
    pub fn mentions_param(&self, p: Param) -> bool {
        self.args.iter().any(|t| matches!(t, Term::Param(q) if *q == p))
    }

    /// Substitutes `value` for every occurrence of `param`, returning a new
    /// action.  Returns a cheap clone when the parameter does not occur.
    pub fn substitute(&self, param: Param, value: Value) -> Action {
        if !self.mentions_param(param) {
            return self.clone();
        }
        Action {
            name: self.name,
            args: self.args.iter().map(|t| t.substitute(param, value)).collect(),
        }
    }

    /// Unification-style match of a *concrete* action against this (possibly
    /// abstract) action: names and arities must agree, concrete argument
    /// positions must be equal, and parameter positions match any value as
    /// long as equal parameters bind to equal values.
    ///
    /// This is the membership test used for alphabets (see the alphabet
    /// complement κ of Table 8): a concrete action "belongs to" an abstract
    /// action's footprint exactly when some instantiation of the abstract
    /// action yields it.  Arities are small, so the bindings are checked in
    /// place — a parameter binds at its first position, every later
    /// position naming it must carry the same value — and nothing is
    /// allocated.
    pub fn matches_concrete(&self, concrete: &Action) -> bool {
        if self.name != concrete.name || self.args.len() != concrete.args.len() {
            return false;
        }
        let pairs = || self.args.iter().zip(concrete.args.iter());
        pairs().enumerate().all(|(i, (pat, conc))| match (pat, conc) {
            // A non-concrete "concrete" action never matches.
            (_, Term::Param(_)) => false,
            (Term::Value(v), Term::Value(cv)) => v == cv,
            (Term::Param(_), _) => {
                pairs().take(i).find(|(earlier, _)| *earlier == pat).is_none_or(|(_, b)| b == conc)
            }
        })
    }

    /// True if the two (possibly abstract) actions could be instantiated to
    /// the same concrete action: equal names and arities, and every argument
    /// position is either compatible (equal values) or instantiable (at
    /// least one side is a parameter).  This is the conservative overlap
    /// test the partition analysis uses for abstract owner sets — a false
    /// positive merely widens an owner set, never loses an owner.
    pub fn may_overlap(&self, other: &Action) -> bool {
        if self.name != other.name || self.args.len() != other.args.len() {
            return false;
        }
        self.args.iter().zip(other.args.iter()).all(|(ta, tb)| {
            match (ta.as_value(), tb.as_value()) {
                (Some(va), Some(vb)) => va == vb,
                // A parameter position can be instantiated to anything.
                _ => true,
            }
        })
    }

    /// The conventional start action of a workflow activity (footnote 6).
    pub fn start(activity: &str, args: impl IntoIterator<Item = Value>) -> Action {
        Action::concrete(format!("{activity}_start").as_str(), args)
    }

    /// The conventional termination action of a workflow activity
    /// (footnote 6).
    pub fn terminate(activity: &str, args: impl IntoIterator<Item = Value>) -> Action {
        Action::concrete(format!("{activity}_end").as_str(), args)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A word: a finite sequence of actions.  Words of concrete actions are the
/// elements of Σ* handled by the word and action problems.
pub type Word = Vec<Action>;

/// Renders a word in the paper's angle-bracket notation, e.g. `⟨a, b(1)⟩`.
pub fn display_word(word: &[Action]) -> String {
    let mut s = String::from("<");
    for (i, a) in word.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&a.to_string());
    }
    s.push('>');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Param {
        Param::new(name)
    }

    #[test]
    fn concrete_and_abstract_actions() {
        let abs = Action::new("call", [Term::Param(p("p")), Term::Value(Value::sym("sono"))]);
        let conc = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
        assert!(!abs.is_concrete());
        assert!(conc.is_concrete());
        assert_eq!(abs.arity(), 2);
        assert_eq!(abs.params(), vec![p("p")]);
        assert_eq!(conc.values(), vec![Value::int(1), Value::sym("sono")]);
    }

    #[test]
    fn substitution_produces_a_concrete_action() {
        let abs = Action::new("perform", [Term::Param(p("p")), Term::Param(p("x"))]);
        let step1 = abs.substitute(p("p"), Value::int(7));
        let step2 = step1.substitute(p("x"), Value::sym("endo"));
        assert!(!step1.is_concrete());
        assert!(step2.is_concrete());
        assert_eq!(step2, Action::concrete("perform", [Value::int(7), Value::sym("endo")]));
    }

    #[test]
    fn substitution_without_occurrence_is_identity() {
        let a = Action::concrete("order", [Value::int(1)]);
        assert_eq!(a.substitute(p("p"), Value::int(2)), a);
    }

    #[test]
    fn matches_concrete_respects_names_arities_and_values() {
        let pat = Action::new("call", [Term::Param(p("p")), Term::Value(Value::sym("sono"))]);
        let good = Action::concrete("call", [Value::int(1), Value::sym("sono")]);
        let wrong_value = Action::concrete("call", [Value::int(1), Value::sym("endo")]);
        let wrong_name = Action::concrete("ring", [Value::int(1), Value::sym("sono")]);
        let wrong_arity = Action::concrete("call", [Value::int(1)]);
        assert!(pat.matches_concrete(&good));
        assert!(!pat.matches_concrete(&wrong_value));
        assert!(!pat.matches_concrete(&wrong_name));
        assert!(!pat.matches_concrete(&wrong_arity));
    }

    #[test]
    fn matches_concrete_requires_consistent_bindings() {
        let pat = Action::new("pair", [Term::Param(p("p")), Term::Param(p("p"))]);
        let same = Action::concrete("pair", [Value::int(1), Value::int(1)]);
        let diff = Action::concrete("pair", [Value::int(1), Value::int(2)]);
        assert!(pat.matches_concrete(&same));
        assert!(!pat.matches_concrete(&diff));
    }

    #[test]
    fn activity_start_and_terminate_actions() {
        let s = Action::start("perform_examination", [Value::int(3)]);
        let t = Action::terminate("perform_examination", [Value::int(3)]);
        assert_eq!(s.name().to_string(), "perform_examination_start");
        assert_eq!(t.name().to_string(), "perform_examination_end");
        assert!(s.is_concrete() && t.is_concrete());
    }

    #[test]
    fn word_display_uses_angle_brackets() {
        let w = vec![Action::nullary("a"), Action::concrete("b", [Value::int(1)])];
        assert_eq!(display_word(&w), "<a, b(1)>");
        assert_eq!(display_word(&[]), "<>");
    }

    #[test]
    fn mentions_queries() {
        let a = Action::new("a", [Term::Param(p("p")), Term::Value(Value::int(5))]);
        assert!(a.mentions_param(p("p")));
        assert!(!a.mentions_param(p("q")));
        assert!(a.args().contains(&Term::Value(Value::int(5))));
        assert!(!a.args().contains(&Term::Value(Value::int(6))));
    }
}
