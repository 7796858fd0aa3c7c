//! Parser for DTD-style regular expressions.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! union   := concat ('|' concat)*
//! concat  := postfix ((','? postfix))*      -- comma or juxtaposition
//! postfix := atom ('?' | '+' | '*')*
//! atom    := NAME | '(' union ')'
//! NAME    := [A-Za-z_:][A-Za-z0-9_.:-]*
//! ```
//!
//! This covers both DTD content-model syntax (`(a | b)+, c?`) and the
//! juxtaposition style used throughout the paper (`((b? (a|c))+ d)+ e`).
//! Note that the paper writes union as `+`; since `+` is also the postfix
//! repetition operator we require `|` for union, as DTDs do.

use crate::alphabet::Alphabet;
use crate::ast::Regex;
use std::fmt;

/// Error produced when a regular expression fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest parenthesis nesting [`parse`] accepts. The parser, and every
/// later walk over the tree it returns, recurses once per level, so the
/// bound keeps hostile input such as `((((…a…))))` from overflowing the
/// stack. Real content models nest a handful of levels.
pub const MAX_NESTING: usize = 256;

/// Parses `input` as a regular expression, interning element names into
/// `alphabet`. Fails at the first `(` that would nest deeper than
/// [`MAX_NESTING`].
pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<Regex, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        alphabet,
    };
    let r = p.union()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(r)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Parentheses currently open.
    depth: usize,
    alphabet: &'a mut Alphabet,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn union(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.concat()?];
        loop {
            self.skip_ws();
            if self.peek() == Some(b'|') {
                self.pos += 1;
                parts.push(self.concat()?);
            } else {
                break;
            }
        }
        Ok(Regex::union(parts))
    }

    fn concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.postfix()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    parts.push(self.postfix()?);
                }
                Some(b'(') => parts.push(self.postfix()?),
                Some(c) if is_name_start(c) => parts.push(self.postfix()?),
                _ => break,
            }
        }
        Ok(Regex::concat(parts))
    }

    fn postfix(&mut self) -> Result<Regex, ParseError> {
        let mut r = self.atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'?') => {
                    self.pos += 1;
                    r = Regex::optional(r);
                }
                Some(b'+') => {
                    self.pos += 1;
                    r = Regex::plus(r);
                }
                Some(b'*') => {
                    self.pos += 1;
                    r = Regex::star(r);
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn atom(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                if self.depth == MAX_NESTING {
                    return Err(self.err(&format!(
                        "parentheses nest deeper than {MAX_NESTING} levels"
                    )));
                }
                self.depth += 1;
                self.pos += 1;
                let r = self.union()?;
                self.skip_ws();
                if self.peek() != Some(b')') {
                    return Err(self.err("expected ')'"));
                }
                self.pos += 1;
                self.depth -= 1;
                Ok(r)
            }
            Some(c) if is_name_start(c) => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if is_name_char(c)) {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("name chars are ASCII");
                Ok(Regex::sym(self.alphabet.intern(name)))
            }
            Some(_) => Err(self.err("expected element name or '('")),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

fn is_name_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b':'
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b':' | b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::DisplayRegex;

    fn round_trip(src: &str) -> String {
        let mut a = Alphabet::new();
        let r = parse(src, &mut a).expect("parse");
        DisplayRegex::new(&r, &a).to_string()
    }

    #[test]
    fn single_symbol() {
        assert_eq!(round_trip("title"), "title");
    }

    #[test]
    fn dtd_style_commas() {
        assert_eq!(
            round_trip("authors, citation, (volume | month), year, pages?"),
            "authors citation (volume | month) year pages?"
        );
    }

    #[test]
    fn juxtaposition_style() {
        assert_eq!(round_trip("((b? (a|c))+ d)+ e"), "((b? (a | c))+ d)+ e");
    }

    #[test]
    fn postfix_chains_collapse() {
        // (a?)+ is normalized to a* by the smart constructors
        assert_eq!(round_trip("a?+"), "a*");
        assert_eq!(round_trip("a++"), "a+");
        assert_eq!(round_trip("a??"), "a?");
    }

    #[test]
    fn nested_unions_flatten() {
        assert_eq!(round_trip("a | (b | c)"), "a | b | c");
    }

    #[test]
    fn star_parses() {
        assert_eq!(round_trip("(a | b)* c"), "(a | b)* c");
    }

    #[test]
    fn errors_are_reported() {
        let mut a = Alphabet::new();
        assert!(parse("", &mut a).is_err());
        assert!(parse("(a", &mut a).is_err());
        assert!(parse("a)", &mut a).is_err());
        assert!(parse("|a", &mut a).is_err());
        assert!(parse("a | ", &mut a).is_err());
        assert!(parse("8a", &mut a).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        let mut a = Alphabet::new();
        assert_eq!(round_trip(&nested(MAX_NESTING)), "a");
        // A tree that really is MAX_NESTING deep: alternating concatenation
        // and union levels, which the smart constructors cannot flatten.
        let deep = format!(
            "{}a{}",
            "(b, (c | ".repeat(MAX_NESTING / 2),
            ")".repeat(MAX_NESTING)
        );
        let r = parse(&deep, &mut a).expect("at the bound");
        assert_eq!(r.symbol_count(), MAX_NESTING + 1);
        // One level more fails at the offending parenthesis.
        let err = parse(&nested(MAX_NESTING + 1), &mut a).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
        assert!(err.message.contains("nest deeper"), "{err}");
        let err = parse(&deep.replacen('a', "(a)", 1), &mut a).unwrap_err();
        assert_eq!(err.offset, deep.find('a').unwrap());
        // Far past the bound the parser stops early instead of recursing.
        let err = parse(&nested(200_000), &mut a).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
    }

    #[test]
    fn names_with_punctuation() {
        assert_eq!(round_trip("ns:item-name.x_1"), "ns:item-name.x_1");
    }

    #[test]
    fn same_name_same_symbol() {
        let mut a = Alphabet::new();
        let r = parse("a a", &mut a).unwrap();
        let syms = r.symbols();
        assert_eq!(syms.len(), 1);
        assert_eq!(r.symbol_count(), 2);
    }
}
