//! Error types of the operational semantics.

use ix_core::Param;
use std::fmt;

/// Errors raised when constructing the initial state of an expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// The expression contains an unexpanded template hole.
    TemplateHole {
        /// Name of the offending hole.
        name: String,
    },
    /// The expression has free (unbound) parameters and therefore cannot be
    /// executed against concrete actions.
    FreeParameters {
        /// The free parameters, in deterministic order.
        params: Vec<Param>,
    },
    /// A parallel quantifier body is not completely quantified: some atomic
    /// action of the body does not mention the quantified parameter.  The
    /// operational model requires complete quantification for the parallel
    /// quantifier (see DESIGN.md §2); the formal semantics of `ix-semantics`
    /// still covers the general case.
    NotCompletelyQuantified {
        /// The quantified parameter.
        param: Param,
        /// Display form of an offending atomic action.
        offending_atom: String,
    },
    /// A multiplier with count zero was encountered (the textual parser
    /// already rejects this, but expressions can also be built directly).
    ZeroMultiplier,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::TemplateHole { name } => {
                write!(f, "expression contains unexpanded template hole `${name}`")
            }
            StateError::FreeParameters { params } => {
                write!(f, "expression has free parameters: ")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            StateError::NotCompletelyQuantified { param, offending_atom } => write!(
                f,
                "parallel quantifier over `{param}` is not completely quantified: \
                 atomic action `{offending_atom}` does not mention `{param}`"
            ),
            StateError::ZeroMultiplier => write!(f, "multiplier count must be at least 1"),
        }
    }
}

impl std::error::Error for StateError {}

/// Result alias for state-model operations.
pub type StateResult<T> = Result<T, StateError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_descriptive() {
        let e = StateError::FreeParameters { params: vec![Param::new("p"), Param::new("x")] };
        assert!(e.to_string().contains("p, x"));
        let e = StateError::NotCompletelyQuantified {
            param: Param::new("p"),
            offending_atom: "order(x)".into(),
        };
        assert!(e.to_string().contains("order(x)"));
        assert!(e.to_string().contains('p'));
        assert!(StateError::ZeroMultiplier.to_string().contains("at least 1"));
        let e = StateError::TemplateHole { name: "body".into() };
        assert!(e.to_string().contains("$body"));
    }
}
