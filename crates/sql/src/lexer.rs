//! The SQL lexer.
//!
//! Hand-rolled and allocation-light: identifiers and string literals are the
//! only tokens that allocate, once each, for the text the AST will own.
//! Keywords are recognised case-insensitively but kept as plain uppercase
//! strings in [`Token::Keyword`] so the parser can match on them without a
//! large enum.

use ingot_common::{Error, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier (not a keyword), lower-cased.
    Ident(String),
    /// Reserved word, upper-cased.
    Keyword(&'static str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes removed, `''` unescaped).
    Str(String),
    /// Parameter marker, 1-based: `$3` lexes as `Param(3)`, and each bare
    /// `?` is numbered left to right (`?` … `?` ⇒ `Param(1)`, `Param(2)`).
    Param(u32),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

/// All reserved words. Everything else lexes as [`Token::Ident`].
const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "AS",
    "JOIN",
    "INNER",
    "ON",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "TABLE",
    "DROP",
    "INDEX",
    "UNIQUE",
    "PRIMARY",
    "KEY",
    "MODIFY",
    "TO",
    "STATISTICS",
    "EXPLAIN",
    "ANALYZE",
    "NULL",
    "TRUE",
    "FALSE",
    "IS",
    "IN",
    "BETWEEN",
    "LIKE",
    "DISTINCT",
];

/// Tokenises an input string.
pub struct Lexer<'a> {
    sql: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Count of `?` markers seen so far (each becomes the next `$n`).
    anon_params: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            sql: src,
            src: src.as_bytes(),
            pos: 0,
            anon_params: 0,
        }
    }

    /// Tokenise the whole input (with a trailing [`Token::Eof`]).
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut out = Vec::with_capacity(self.src.len() / 4 + 4);
        loop {
            let t = self.next_token()?;
            let done = t == Token::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> u8 {
        if self.pos < self.src.len() {
            self.src[self.pos]
        } else {
            0
        }
    }

    /// The source from byte `from` up to the cursor. Both ends sit next to
    /// ASCII bytes the lexer has just matched, so on character boundaries.
    fn text(&self, from: usize) -> &'a str {
        &self.sql[from..self.pos]
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn skip_ws_and_comments(&mut self) -> Result<()> {
        loop {
            while self.peek().is_ascii_whitespace() {
                self.pos += 1;
            }
            // `-- line comment`
            if self.peek() == b'-' && self.src.get(self.pos + 1) == Some(&b'-') {
                while self.pos < self.src.len() && self.peek() != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            // `/* block comment */`
            if self.peek() == b'/' && self.src.get(self.pos + 1) == Some(&b'*') {
                let start = self.pos;
                self.pos += 2;
                loop {
                    if self.pos + 1 >= self.src.len() {
                        return Err(Error::parse(format!(
                            "unterminated comment at byte {start}"
                        )));
                    }
                    if self.peek() == b'*' && self.src[self.pos + 1] == b'/' {
                        self.pos += 2;
                        break;
                    }
                    self.pos += 1;
                }
                continue;
            }
            return Ok(());
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_ws_and_comments()?;
        if self.pos >= self.src.len() {
            return Ok(Token::Eof);
        }
        let start = self.pos;
        let c = self.bump();
        Ok(match c {
            b'(' => Token::LParen,
            b')' => Token::RParen,
            b',' => Token::Comma,
            b'.' => Token::Dot,
            b';' => Token::Semi,
            b'*' => Token::Star,
            b'+' => Token::Plus,
            b'-' => Token::Minus,
            b'/' => Token::Slash,
            b'%' => Token::Percent,
            b'=' => Token::Eq,
            b'<' => match self.peek() {
                b'=' => {
                    self.pos += 1;
                    Token::Le
                }
                b'>' => {
                    self.pos += 1;
                    Token::Neq
                }
                _ => Token::Lt,
            },
            b'>' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    Token::Ge
                } else {
                    Token::Gt
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.pos += 1;
                    Token::Neq
                } else {
                    return Err(Error::parse(format!("unexpected '!' at byte {start}")));
                }
            }
            // Anonymous parameter marker: each `?` gets the next ordinal.
            b'?' => {
                self.anon_params += 1;
                Token::Param(self.anon_params)
            }
            b'\'' => {
                // Up to the closing quote; `''` inside is an escaped quote.
                let mut escaped = false;
                loop {
                    match self.src.get(self.pos) {
                        None => {
                            return Err(Error::parse(format!(
                                "unterminated string literal at byte {start}"
                            )))
                        }
                        Some(b'\'') if self.src.get(self.pos + 1) == Some(&b'\'') => {
                            escaped = true;
                            self.pos += 2;
                        }
                        Some(b'\'') => break,
                        Some(_) => self.pos += 1,
                    }
                }
                let body = self.text(start + 1);
                self.pos += 1;
                Token::Str(if escaped {
                    body.replace("''", "'")
                } else {
                    body.to_owned()
                })
            }
            b'"' => {
                // Double-quoted identifier.
                while self.peek() != b'"' {
                    if self.pos >= self.src.len() {
                        return Err(Error::parse(format!(
                            "unterminated quoted identifier at byte {start}"
                        )));
                    }
                    self.pos += 1;
                }
                let body = self.text(start + 1);
                self.pos += 1;
                Token::Ident(body.to_ascii_lowercase())
            }
            b'0'..=b'9' => {
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
                let mut is_float = false;
                if self.peek() == b'.' && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    self.pos += 1;
                    while self.peek().is_ascii_digit() {
                        self.pos += 1;
                    }
                }
                if matches!(self.peek(), b'e' | b'E') {
                    let save = self.pos;
                    self.pos += 1;
                    if matches!(self.peek(), b'+' | b'-') {
                        self.pos += 1;
                    }
                    if self.peek().is_ascii_digit() {
                        is_float = true;
                        while self.peek().is_ascii_digit() {
                            self.pos += 1;
                        }
                    } else {
                        self.pos = save;
                    }
                }
                let text = self.text(start);
                if is_float {
                    Token::Float(
                        text.parse()
                            .map_err(|_| Error::parse(format!("bad float '{text}'")))?,
                    )
                } else {
                    Token::Int(
                        text.parse()
                            .map_err(|_| Error::parse(format!("bad integer '{text}'")))?,
                    )
                }
            }
            // Explicit parameter marker `$n`. Only a *leading* `$` followed by
            // a digit is a parameter; `$` inside an identifier (`ima$tables`)
            // and `$`-prefixed names (`$sort0`) keep lexing as identifiers.
            b'$' if self.peek().is_ascii_digit() => {
                let num_start = self.pos;
                while self.peek().is_ascii_digit() {
                    self.pos += 1;
                }
                let text = self.text(num_start);
                let n: u32 = text
                    .parse()
                    .map_err(|_| Error::parse(format!("bad parameter marker '${text}'")))?;
                if n == 0 {
                    return Err(Error::parse("parameter markers are 1-based; $0 is invalid"));
                }
                Token::Param(n)
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$') {
                    self.pos += 1;
                }
                let text = self.text(start);
                match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(text)) {
                    Some(&k) => Token::Keyword(k),
                    None => Token::Ident(text.to_ascii_lowercase()),
                }
            }
            other => {
                return Err(Error::parse(format!(
                    "unexpected character '{}' at byte {start}",
                    other as char
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token> {
        Lexer::new(s).tokenize().unwrap()
    }

    #[test]
    fn keywords_and_idents() {
        let t = lex("SELECT nref_id FROM Protein");
        assert_eq!(
            t,
            vec![
                Token::Keyword("SELECT"),
                Token::Ident("nref_id".into()),
                Token::Keyword("FROM"),
                Token::Ident("protein".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42")[0], Token::Int(42));
        assert_eq!(lex("3.5")[0], Token::Float(3.5));
        assert_eq!(lex("1e3")[0], Token::Float(1000.0));
        assert_eq!(lex("2.5e-1")[0], Token::Float(0.25));
        // A bare `1e` is an int followed by an ident.
        assert_eq!(lex("1e")[..2], [Token::Int(1), Token::Ident("e".into())]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(lex("'NF001'")[0], Token::Str("NF001".into()));
        assert_eq!(lex("'it''s'")[0], Token::Str("it's".into()));
        assert!(Lexer::new("'open").tokenize().is_err());
    }

    #[test]
    fn operators() {
        let t = lex("a <= b <> c >= d != e");
        assert_eq!(t[1], Token::Le);
        assert_eq!(t[3], Token::Neq);
        assert_eq!(t[5], Token::Ge);
        assert_eq!(t[7], Token::Neq);
    }

    #[test]
    fn comments_are_skipped() {
        let t = lex("select -- everything\n 1 /* or nothing */ ;");
        assert_eq!(
            t,
            vec![
                Token::Keyword("SELECT"),
                Token::Int(1),
                Token::Semi,
                Token::Eof
            ]
        );
        assert!(Lexer::new("/* open").tokenize().is_err());
    }

    #[test]
    fn quoted_identifier() {
        assert_eq!(lex("\"Weird Name\"")[0], Token::Ident("weird name".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Lexer::new("a # b").tokenize().is_err());
        assert!(Lexer::new("a ! b").tokenize().is_err());
    }

    #[test]
    fn parameter_markers() {
        // Explicit `$n` markers keep their ordinal.
        assert_eq!(lex("$1")[0], Token::Param(1));
        assert_eq!(lex("$12")[0], Token::Param(12));
        // Anonymous `?` markers number left to right.
        let t = lex("a = ? and b = ?");
        assert_eq!(t[2], Token::Param(1));
        assert_eq!(t[6], Token::Param(2));
        // `$` stays an identifier character everywhere else.
        assert_eq!(
            lex("ima$statements")[0],
            Token::Ident("ima$statements".into())
        );
        assert_eq!(lex("$sort0")[0], Token::Ident("$sort0".into()));
        assert_eq!(lex("a$1")[0], Token::Ident("a$1".into()));
        // 1-based: `$0` is rejected.
        assert!(Lexer::new("$0").tokenize().is_err());
    }
}
