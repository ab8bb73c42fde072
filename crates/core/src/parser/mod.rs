//! Recursive-descent parser for the textual notation of interaction
//! expressions.
//!
//! See [`crate::printer`] for the grammar and precedence table.  The parser
//! distinguishes parameters from symbolic values by scope: an identifier
//! argument that is bound by an enclosing quantifier is read as a parameter,
//! every other identifier argument is a symbolic value.  Template
//! applications `name!(e1, ..., en)` are expanded immediately against the
//! [`TemplateRegistry`] passed to [`parse_with`].

mod lexer;

pub use lexer::{lex, Token, TokenKind};

use crate::error::{CoreError, CoreResult};
use crate::expr::Expr;
use crate::template::TemplateRegistry;
use crate::value::{Param, Term, Value};
use crate::Symbol;

/// Parses an expression using an empty template registry.
pub fn parse(src: &str) -> CoreResult<Expr> {
    parse_with(src, &TemplateRegistry::new())
}

/// Parses an expression, expanding template applications against `registry`.
pub fn parse_with(src: &str, registry: &TemplateRegistry) -> CoreResult<Expr> {
    let tokens = lex(src)?;
    let mut parser = Parser { tokens, pos: 0, registry, scope: Vec::new(), depth: 0 };
    let expr = parser.parse_expr()?;
    parser.expect(TokenKind::Eof)?;
    Ok(expr)
}

const KEYWORDS: &[&str] = &["some", "all", "sync", "each", "mult", "empty"];

/// How deep groups — parentheses, quantifier and `mult` bodies, template
/// arguments — may nest.  Every level costs the parser, σ, τ and the printer
/// stack frames, so an unbounded depth overflows the stack.  At this depth
/// all four still fit a 2 MiB thread in a debug build; the deepest
/// expression the repository prints nests 4 groups.
const MAX_NESTING: usize = 256;

/// The parser state: tokens borrow identifiers from the source, so peeking,
/// advancing and scoping copy a few words and never allocate.
struct Parser<'src, 'r> {
    tokens: Vec<Token<'src>>,
    pos: usize,
    registry: &'r TemplateRegistry,
    /// Parameters bound by enclosing quantifiers, innermost last.
    scope: Vec<&'src str>,
    /// Groups open around the current token.
    depth: usize,
}

impl<'src> Parser<'src, '_> {
    fn peek(&self) -> &Token<'src> {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token<'src> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind<'_>) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> CoreResult<Token<'src>> {
        if self.check(&kind) {
            Ok(self.advance())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn error(&self, message: String) -> CoreError {
        CoreError::Parse { position: self.peek().offset, message }
    }

    // expr := and_level ( '@' and_level )*
    fn parse_expr(&mut self) -> CoreResult<Expr> {
        if self.depth > MAX_NESTING {
            return Err(self.error(format!("groups nest deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let e = self.parse_sync();
        self.depth -= 1;
        e
    }

    fn parse_sync(&mut self) -> CoreResult<Expr> {
        let mut e = self.parse_and()?;
        while self.eat(&TokenKind::At) {
            let rhs = self.parse_and()?;
            e = Expr::sync(e, rhs);
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> CoreResult<Expr> {
        let mut e = self.parse_or()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.parse_or()?;
            e = Expr::and(e, rhs);
        }
        Ok(e)
    }

    fn parse_or(&mut self) -> CoreResult<Expr> {
        let mut e = self.parse_par()?;
        while self.eat(&TokenKind::Plus) {
            let rhs = self.parse_par()?;
            e = Expr::or(e, rhs);
        }
        Ok(e)
    }

    fn parse_par(&mut self) -> CoreResult<Expr> {
        let mut e = self.parse_seq()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.parse_seq()?;
            e = Expr::par(e, rhs);
        }
        Ok(e)
    }

    fn parse_seq(&mut self) -> CoreResult<Expr> {
        let mut e = self.parse_postfix()?;
        while self.eat(&TokenKind::Minus) {
            let rhs = self.parse_postfix()?;
            e = Expr::seq(e, rhs);
        }
        Ok(e)
    }

    fn parse_postfix(&mut self) -> CoreResult<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            if self.eat(&TokenKind::Star) {
                e = Expr::seq_iter(e);
            } else if self.eat(&TokenKind::Hash) {
                e = Expr::par_iter(e);
            } else if self.eat(&TokenKind::Question) {
                e = Expr::option(e);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> CoreResult<Expr> {
        match self.peek().kind {
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Hole(name) => {
                self.advance();
                Ok(Expr::hole(name))
            }
            TokenKind::Ident(name) => match name {
                "empty" => {
                    self.advance();
                    Ok(Expr::empty())
                }
                "some" | "all" | "sync" | "each" => {
                    self.advance();
                    self.parse_quantifier(name)
                }
                "mult" => {
                    self.advance();
                    self.parse_multiplier()
                }
                _ => {
                    self.advance();
                    self.parse_atom_or_template(name)
                }
            },
            other => Err(self.error(format!("expected an expression, found {}", other.describe()))),
        }
    }

    fn parse_quantifier(&mut self, keyword: &str) -> CoreResult<Expr> {
        let param_name = match self.advance().kind {
            TokenKind::Ident(n) => {
                if KEYWORDS.contains(&n) {
                    return Err(self.error(format!(
                        "`{n}` is a reserved word and cannot be used as a parameter"
                    )));
                }
                n
            }
            other => {
                return Err(self.error(format!(
                    "expected a parameter name after `{keyword}`, found {}",
                    other.describe()
                )))
            }
        };
        self.expect(TokenKind::LBrace)?;
        self.scope.push(param_name);
        let body = self.parse_expr();
        self.scope.pop();
        let body = body?;
        self.expect(TokenKind::RBrace)?;
        let p = Param::new(param_name);
        Ok(match keyword {
            "some" => Expr::some_q(p, body),
            "all" => Expr::par_q(p, body),
            "sync" => Expr::sync_q(p, body),
            "each" => Expr::all_q(p, body),
            _ => unreachable!("quantifier keyword"),
        })
    }

    fn parse_multiplier(&mut self) -> CoreResult<Expr> {
        let n = match self.advance().kind {
            TokenKind::Int(0) => {
                return Err(self.error("multiplier count must be positive, got 0".into()))
            }
            TokenKind::Int(i) => u32::try_from(i).map_err(|_| {
                self.error(format!("multiplier count {i} is out of range (at most {})", u32::MAX))
            })?,
            other => {
                return Err(self.error(format!(
                    "expected a positive integer after `mult`, found {}",
                    other.describe()
                )))
            }
        };
        self.expect(TokenKind::LBrace)?;
        let body = self.parse_expr()?;
        self.expect(TokenKind::RBrace)?;
        Ok(Expr::mult(n, body))
    }

    fn parse_atom_or_template(&mut self, name: &str) -> CoreResult<Expr> {
        if self.eat(&TokenKind::Bang) {
            // Template application: name!(e1, ..., en)
            self.expect(TokenKind::LParen)?;
            let mut args = Vec::new();
            if !self.check(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
            return self.registry.expand(Symbol::new(name), &args);
        }
        let mut terms = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if !self.check(&TokenKind::RParen) {
                loop {
                    terms.push(self.parse_term()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(crate::builder::act(name, terms))
    }

    fn parse_term(&mut self) -> CoreResult<Term> {
        let token = self.advance();
        // In an argument list `-` cannot be the sequence operator: directly
        // before an integer it is the integer's sign.
        let negative = token.kind == TokenKind::Minus
            && matches!(self.peek().kind, TokenKind::Int(_))
            && self.peek().offset == token.offset + 1;
        let kind = if negative { self.advance().kind } else { token.kind };
        match kind {
            TokenKind::Int(digits) => {
                let value = if negative {
                    0i64.checked_sub_unsigned(digits)
                } else {
                    digits.try_into().ok()
                };
                let sign = if negative { "-" } else { "" };
                value
                    .map(|i| Term::Value(Value::Int(i)))
                    .ok_or_else(|| self.error(format!("integer `{sign}{digits}` is out of range")))
            }
            TokenKind::Ident(name) => {
                if self.scope.contains(&name) {
                    Ok(Term::Param(Param::new(name)))
                } else {
                    Ok(Term::Value(Value::sym(name)))
                }
            }
            other => Err(self.error(format!(
                "expected an action argument (integer or identifier), found {}",
                other.describe()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{act0, actp, actv};
    use crate::expr::ExprKind;

    #[test]
    fn parses_atoms_and_sequences() {
        let e = parse("order - schedule - prepare").unwrap();
        assert_eq!(e, Expr::seq(Expr::seq(act0("order"), act0("schedule")), act0("prepare")));
    }

    #[test]
    fn parses_precedence_levels() {
        let e = parse("a - b + c | d & e @ f").unwrap();
        // Loosest at the top: sync.
        assert!(matches!(e.kind(), ExprKind::Sync(..)));
        let e = parse("(a + b) - c").unwrap();
        assert!(matches!(e.kind(), ExprKind::Seq(..)));
    }

    #[test]
    fn parses_postfix_operators() {
        assert_eq!(parse("a*").unwrap(), Expr::seq_iter(act0("a")));
        assert_eq!(parse("a#").unwrap(), Expr::par_iter(act0("a")));
        assert_eq!(parse("a?").unwrap(), Expr::option(act0("a")));
        assert_eq!(parse("a*#?").unwrap(), Expr::option(Expr::par_iter(Expr::seq_iter(act0("a")))));
    }

    #[test]
    fn arguments_are_params_only_when_bound() {
        let e = parse("all p { prepare(p, x) }").unwrap();
        match e.kind() {
            ExprKind::ParQ(p, body) => {
                assert_eq!(p.to_string(), "p");
                let atom = &body.atoms()[0];
                assert!(atom.args()[0].as_param().is_some(), "p is bound");
                assert!(atom.args()[1].as_value().is_some(), "x is free, read as value");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Nested scopes: both parameters visible in the inner body.
        let e = parse("all p { some x { call(p, x) } }").unwrap();
        assert!(e.is_closed());
    }

    #[test]
    fn parses_quantifiers_and_multiplier() {
        let e = parse("sync x { mult 3 { some p { call(p, x) - perform(p, x) } } }").unwrap();
        assert!(matches!(e.kind(), ExprKind::SyncQ(..)));
        assert!(e.is_closed());
        assert_eq!(e.quantifier_count(), 2);
    }

    #[test]
    fn parses_integers_and_values() {
        let e = parse("call(1, sono)").unwrap();
        assert_eq!(e, actv("call", [Value::int(1), Value::sym("sono")]));
    }

    #[test]
    fn multiplier_counts_past_u32_are_rejected_by_name() {
        assert_eq!(parse("mult 4294967295 { a }").unwrap(), Expr::mult(u32::MAX, act0("a")));
        for count in ["4294967296", "4294967297"] {
            match parse(&format!("mult {count} {{ a }}")).unwrap_err() {
                CoreError::Parse { message, .. } => assert!(message.contains(count), "{message}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_sign_directly_before_an_integer_argument_is_read() {
        for i in [-1, i64::MIN, i64::MAX] {
            let e = parse(&format!("a({i}) - b")).unwrap();
            assert_eq!(e, Expr::seq(actv("a", [Value::int(i)]), act0("b")), "{i}");
            assert_eq!(parse(&e.to_string()).unwrap(), e);
        }
        // A sign standing apart, or a value past the range, is no integer.
        assert!(parse("a(- 1)").is_err());
        assert!(parse("a(-x)").is_err());
        assert!(parse("a(-9223372036854775809)").is_err());
        assert!(parse("a(9223372036854775808)").is_err());
    }

    #[test]
    fn groups_nest_up_to_the_limit_and_no_deeper() {
        let nested = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse(&nested(MAX_NESTING)).unwrap(), act0("a"));
        match parse(&nested(MAX_NESTING + 1)).unwrap_err() {
            CoreError::Parse { position, message } => {
                assert_eq!(position, MAX_NESTING + 1);
                assert!(message.contains(&MAX_NESTING.to_string()), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Quantifier bodies count as groups too.
        let bodies = |n: usize| format!("{}a{}", "some p { ".repeat(n), " }".repeat(n));
        assert!(parse(&bodies(MAX_NESTING)).is_ok());
        assert!(parse(&bodies(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn expands_templates() {
        let reg = TemplateRegistry::with_standard_operators();
        let e = parse_with("mutex!(a, b, c)", &reg).unwrap();
        assert_eq!(e, Expr::seq_iter(Expr::or(Expr::or(act0("a"), act0("b")), act0("c"))));
        assert!(parse("mutex!(a, b, c)").is_err(), "unknown template without registry");
    }

    #[test]
    fn parses_holes_and_empty() {
        assert_eq!(parse("$x - empty").unwrap(), Expr::seq(Expr::hole("x"), Expr::empty()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("a -").is_err());
        assert!(parse("(a - b").is_err());
        assert!(parse("mult 0 { a }").is_err());
        assert!(parse("mult x { a }").is_err());
        assert!(parse("some { a }").is_err());
        assert!(parse("some all { a }").is_err());
        assert!(parse("a b").is_err());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("a - - b").unwrap_err();
        match err {
            CoreError::Parse { position, .. } => assert_eq!(position, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn print_parse_round_trip_for_paper_examples() {
        let reg = TemplateRegistry::with_standard_operators();
        let sources = [
            "all p { (some x { prepare(p, x) })# + some x { call(p, x) - perform(p, x) } }",
            "sync x { mult 3 { (some p { call(p, x) - perform(p, x) })* } }",
            "a - (b + c)* | d#",
            "mutex!(a - b, c, d?)",
        ];
        for src in sources {
            let e = parse_with(src, &reg).unwrap();
            let printed = e.to_string();
            let reparsed = parse_with(&printed, &reg).unwrap();
            assert_eq!(e, reparsed, "round trip failed for {src} -> {printed}");
        }
    }

    #[test]
    fn parameterized_atoms_via_builder_match_parser() {
        let e = parse("all p { prepare(p) }").unwrap();
        let built = Expr::par_q(Param::new("p"), actp("prepare", &["p"]));
        assert_eq!(e, built);
    }
}
