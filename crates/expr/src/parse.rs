//! Recursive-descent parser for the expression surface syntax.
//!
//! Grammar (loosest-binding first):
//!
//! ```text
//! or      := xor ( '|' xor )*
//! xor     := and ( '^' and )*
//! and     := unary ( '&' unary )*
//! unary   := '!' unary | atom
//! atom    := '0' | '1' | IDENT | 'Ite' '(' or ',' or ',' or ')' | '(' or ')'
//! ```
//!
//! The printer in [`crate::Expr`]'s `Display` impl emits exactly this
//! grammar and parenthesizes every nested n-ary operand, so
//! `parse(e.to_string()) == e` structurally whenever each n-ary node has
//! at least two operands and each variable is an identifier other than
//! `Ite`.

use crate::ast::Expr;
use std::fmt;

/// Error produced when expression text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseExprError {}

/// Parses a bare expression such as `!((R1 ^ R2) | !R2)`.
///
/// # Errors
///
/// Returns [`ParseExprError`] on malformed input or trailing garbage.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), nettag_expr::ParseExprError> {
/// let e = nettag_expr::parse_expr("!((R1 ^ R2) | !R2)")?;
/// assert_eq!(e.support().len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_expr(input: &str) -> Result<Expr, ParseExprError> {
    let mut p = Parser::new(input);
    let e = p.parse_or()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(e)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> ParseExprError {
        ParseExprError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ParseExprError> {
        let mut terms = vec![self.parse_xor()?];
        while self.eat(b'|') {
            terms.push(self.parse_xor()?);
        }
        Ok(Expr::or(terms))
    }

    fn parse_xor(&mut self) -> Result<Expr, ParseExprError> {
        let mut terms = vec![self.parse_and()?];
        while self.eat(b'^') {
            terms.push(self.parse_and()?);
        }
        Ok(Expr::xor(terms))
    }

    fn parse_and(&mut self) -> Result<Expr, ParseExprError> {
        let mut terms = vec![self.parse_unary()?];
        while self.eat(b'&') {
            terms.push(self.parse_unary()?);
        }
        Ok(Expr::and(terms))
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseExprError> {
        if self.eat(b'!') {
            Ok(Expr::not(self.parse_unary()?))
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseExprError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let e = self.parse_or()?;
                if !self.eat(b')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(e)
            }
            Some(b'0') if !self.ident_continues_after(1) => {
                self.pos += 1;
                Ok(Expr::Const(false))
            }
            Some(b'1') if !self.ident_continues_after(1) => {
                self.pos += 1;
                Ok(Expr::Const(true))
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let ident = self.parse_ident()?;
                if ident == "Ite" {
                    if !self.eat(b'(') {
                        return Err(self.error("expected '(' after Ite"));
                    }
                    let s = self.parse_or()?;
                    if !self.eat(b',') {
                        return Err(self.error("expected ',' in Ite"));
                    }
                    let t = self.parse_or()?;
                    if !self.eat(b',') {
                        return Err(self.error("expected second ',' in Ite"));
                    }
                    let e = self.parse_or()?;
                    if !self.eat(b')') {
                        return Err(self.error("expected ')' closing Ite"));
                    }
                    Ok(Expr::ite(s, t, e))
                } else {
                    Ok(Expr::var(ident))
                }
            }
            Some(_) => Err(self.error("expected an atom")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Whether an identifier character follows at `self.pos + offset`
    /// (used to distinguish the constant `0` from a name like `0x` — names
    /// may not start with digits, so this only guards pathological inputs).
    fn ident_continues_after(&self, offset: usize) -> bool {
        self.bytes
            .get(self.pos + offset)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    }

    fn parse_ident(&mut self) -> Result<String, ParseExprError> {
        self.skip_ws();
        let start = self.pos;
        if self
            .bytes
            .get(self.pos)
            .is_none_or(|b| !(b.is_ascii_alphabetic() || *b == b'_'))
        {
            return Err(self.error("expected identifier"));
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'[' || *b == b']')
        {
            self.pos += 1;
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("input was valid utf-8")
            .to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        let e = parse_expr("!((R1 ^ R2) | !R2)").expect("parses");
        assert_eq!(e.to_string(), "!((R1 ^ R2) | !R2)");
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = parse_expr("a | b & c").expect("parses");
        assert_eq!(
            e,
            Expr::or2(Expr::var("a"), Expr::and2(Expr::var("b"), Expr::var("c")))
        );
    }

    #[test]
    fn precedence_xor_between_and_and_or() {
        let e = parse_expr("a ^ b & c | d").expect("parses");
        // parses as (a ^ (b & c)) | d
        assert_eq!(e.to_string(), "(a ^ (b & c)) | d");
    }

    #[test]
    fn parses_ite_and_constants() {
        let e = parse_expr("Ite(s, a, 0) & 1").expect("parses");
        assert_eq!(e.to_string(), "Ite(s, a, 0) & 1");
    }

    #[test]
    fn parses_bus_style_names() {
        let e = parse_expr("data[3] & data[4]").expect("parses");
        assert_eq!(e.support().len(), 2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_expr("a & b )").is_err());
        assert!(parse_expr("").is_err());
        assert!(parse_expr("&a").is_err());
        assert!(parse_expr("Ite(a, b)").is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = parse_expr("a & ").expect_err("must fail");
        assert!(err.position >= 3);
        assert!(!err.to_string().is_empty());
    }
}
