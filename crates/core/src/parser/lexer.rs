//! Lexer for the textual notation of interaction expressions.

use crate::error::{CoreError, CoreResult};

/// A lexical token with its byte offset in the source.  Identifiers borrow
/// their text from the source, so a token is `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Token<'src> {
    pub kind: TokenKind<'src>,
    pub offset: usize,
}

/// The kinds of tokens of the textual notation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the punctuation variants are self-describing
pub enum TokenKind<'src> {
    /// An identifier: action names, parameter names, symbolic values and the
    /// keywords `some`, `all`, `sync`, `each`, `mult`, `empty`.
    Ident(&'src str),
    /// An integer literal's digits; a sign before them is the parser's to
    /// read, so the literal is unsigned here.
    Int(u64),
    /// `$name` — a template hole.
    Hole(&'src str),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Minus,
    Pipe,
    Plus,
    Amp,
    At,
    Star,
    Hash,
    Question,
    /// `!` — template application marker (`name!(...)`).
    Bang,
    Eof,
}

impl TokenKind<'_> {
    /// A short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Hole(s) => format!("hole `${s}`"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Pipe => "`|`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Amp => "`&`".into(),
            TokenKind::At => "`@`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Hash => "`#`".into(),
            TokenKind::Question => "`?`".into(),
            TokenKind::Bang => "`!`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Splits the source into tokens.  Whitespace separates tokens and is
/// otherwise ignored; `//` starts a comment that runs to the end of the line.
pub fn lex(src: &str) -> CoreResult<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    // Expressions run at fewer than one token per two bytes, so this is
    // usually the one allocation lexing makes.
    let mut tokens = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token { kind: TokenKind::LParen, offset: start });
                i += 1;
            }
            ')' => {
                tokens.push(Token { kind: TokenKind::RParen, offset: start });
                i += 1;
            }
            '{' => {
                tokens.push(Token { kind: TokenKind::LBrace, offset: start });
                i += 1;
            }
            '}' => {
                tokens.push(Token { kind: TokenKind::RBrace, offset: start });
                i += 1;
            }
            ',' => {
                tokens.push(Token { kind: TokenKind::Comma, offset: start });
                i += 1;
            }
            '-' => {
                tokens.push(Token { kind: TokenKind::Minus, offset: start });
                i += 1;
            }
            '|' => {
                tokens.push(Token { kind: TokenKind::Pipe, offset: start });
                i += 1;
            }
            '+' => {
                tokens.push(Token { kind: TokenKind::Plus, offset: start });
                i += 1;
            }
            '&' => {
                tokens.push(Token { kind: TokenKind::Amp, offset: start });
                i += 1;
            }
            '@' => {
                tokens.push(Token { kind: TokenKind::At, offset: start });
                i += 1;
            }
            '*' => {
                tokens.push(Token { kind: TokenKind::Star, offset: start });
                i += 1;
            }
            '#' => {
                tokens.push(Token { kind: TokenKind::Hash, offset: start });
                i += 1;
            }
            '?' => {
                tokens.push(Token { kind: TokenKind::Question, offset: start });
                i += 1;
            }
            '!' => {
                tokens.push(Token { kind: TokenKind::Bang, offset: start });
                i += 1;
            }
            '$' => {
                i += 1;
                let ident_start = i;
                while i < bytes.len() && is_ident_char(bytes[i] as char) {
                    i += 1;
                }
                if i == ident_start {
                    return Err(CoreError::Parse {
                        position: start,
                        message: "expected identifier after `$`".into(),
                    });
                }
                tokens.push(Token { kind: TokenKind::Hole(&src[ident_start..i]), offset: start });
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let value: u64 = text.parse().map_err(|_| CoreError::Parse {
                    position: start,
                    message: format!("integer literal `{text}` is out of range"),
                })?;
                tokens.push(Token { kind: TokenKind::Int(value), offset: start });
            }
            c if is_ident_start(c) => {
                while i < bytes.len() && is_ident_char(bytes[i] as char) {
                    i += 1;
                }
                tokens.push(Token { kind: TokenKind::Ident(&src[start..i]), offset: start });
            }
            other => {
                return Err(CoreError::Parse {
                    position: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, offset: src.len() });
    Ok(tokens)
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_operators_and_identifiers() {
        let ks = kinds("a - b* | c# + d? & e @ f");
        assert_eq!(ks.len(), 14 + 1);
        assert!(matches!(ks[0], TokenKind::Ident("a")));
        assert!(matches!(ks[1], TokenKind::Minus));
        assert!(matches!(ks[3], TokenKind::Star));
        assert!(matches!(ks.last(), Some(TokenKind::Eof)));
    }

    #[test]
    fn lexes_arguments_and_braces() {
        let ks = kinds("call(p, 12) - all p { a }");
        assert!(ks.contains(&TokenKind::Int(12)));
        assert!(ks.contains(&TokenKind::LBrace));
        assert!(ks.contains(&TokenKind::Comma));
    }

    #[test]
    fn lexes_holes_and_template_calls() {
        let ks = kinds("mutex!($x, $y)");
        assert!(ks.contains(&TokenKind::Bang));
        assert!(ks.contains(&TokenKind::Hole("x")));
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let ks = kinds("a // comment with * and (\n - b");
        assert_eq!(
            ks,
            vec![TokenKind::Ident("a"), TokenKind::Minus, TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_unknown_characters_and_bare_dollar() {
        assert!(lex("a % b").is_err());
        assert!(lex("$ ").is_err());
    }

    #[test]
    fn offsets_point_into_the_source() {
        let toks = lex("ab + cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
        assert_eq!(toks[2].offset, 5);
    }
}
