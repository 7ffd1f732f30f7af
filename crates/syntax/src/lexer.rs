//! Lexer for MiniML.
//!
//! Standard ML conventions are followed where they matter for the benchmark
//! programs: `~` is numeric negation (both in literals and as a prefix
//! operator), `(* ... *)` comments nest, identifiers may contain primes, and
//! `#"c"` is a character literal.

use crate::error::SyntaxError;
use crate::pos::Span;
use crate::token::Token;

/// A token paired with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Token,
    /// Its source span.
    pub span: Span,
}

/// A lexer over MiniML source text.
///
/// # Examples
///
/// ```
/// use kit_syntax::lexer::Lexer;
/// use kit_syntax::token::Token;
///
/// let toks = Lexer::new("val x = 1 + 2").tokenize()?;
/// assert_eq!(toks[0].tok, Token::Val);
/// assert_eq!(toks.last().unwrap().tok, Token::Eof);
/// # Ok::<(), kit_syntax::SyntaxError>(())
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    /// Lexes the whole input, ending with [`Token::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`SyntaxError`] on malformed literals, unterminated
    /// comments or strings, or unexpected characters.
    pub fn tokenize(mut self) -> Result<Vec<Spanned>, SyntaxError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let done = t.tok == Token::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<(), SyntaxError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'(') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    let line = self.line;
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    while depth > 0 {
                        match (self.bump(), self.peek()) {
                            (Some(b'('), Some(b'*')) => {
                                self.bump();
                                depth += 1;
                            }
                            (Some(b'*'), Some(b')')) => {
                                self.bump();
                                depth -= 1;
                            }
                            (Some(_), _) => {}
                            (None, _) => {
                                return Err(SyntaxError::new(
                                    "unterminated comment",
                                    Span::new(start, self.pos, line),
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Spanned, SyntaxError> {
        self.skip_trivia()?;
        let start = self.pos;
        let line = self.line;
        let span = |l: &Lexer<'_>| Span::new(start, l.pos, line);
        let Some(c) = self.peek() else {
            return Ok(Spanned {
                tok: Token::Eof,
                span: Span::new(start, start, line),
            });
        };

        // Numeric literals, with optional SML `~` sign.
        if c.is_ascii_digit() || (c == b'~' && self.peek2().is_some_and(|d| d.is_ascii_digit())) {
            return self.lex_number(start, line);
        }

        if c.is_ascii_alphabetic() {
            // Keywords are looked up before a name is allocated.
            let word = self.lex_word();
            let tok = match Token::keyword(word) {
                Some(k) => k,
                None => Token::Ident(word.to_string()),
            };
            return Ok(Spanned {
                tok,
                span: span(self),
            });
        }

        match c {
            b'\'' => {
                self.bump();
                let word = self.lex_word();
                if word.is_empty() {
                    return Err(SyntaxError::new("empty type variable", span(self)));
                }
                Ok(Spanned {
                    tok: Token::TyVar(word.to_string()),
                    span: span(self),
                })
            }
            b'"' => self.lex_string(start, line),
            b'#' if self.peek2() == Some(b'"') => {
                self.bump(); // '#'
                let s = self.lex_string(start, line)?;
                match s.tok {
                    Token::Str(body) if body.chars().count() == 1 => Ok(Spanned {
                        tok: Token::Char(body.chars().next().unwrap() as i64),
                        span: s.span,
                    }),
                    _ => Err(SyntaxError::new(
                        "character literal must have length 1",
                        s.span,
                    )),
                }
            }
            _ => {
                self.bump();
                let two = |l: &mut Lexer<'_>, t: Token| {
                    l.bump();
                    t
                };
                let tok = match (c, self.peek()) {
                    (b'=', Some(b'>')) => two(self, Token::DArrow),
                    (b'-', Some(b'>')) => two(self, Token::Arrow),
                    (b':', Some(b':')) => two(self, Token::Cons),
                    (b':', Some(b'=')) => two(self, Token::Assign),
                    (b'<', Some(b'>')) => two(self, Token::NotEqual),
                    (b'<', Some(b'=')) => two(self, Token::LessEq),
                    (b'>', Some(b'=')) => two(self, Token::GreaterEq),
                    (b'(', _) => Token::LParen,
                    (b')', _) => Token::RParen,
                    (b'[', _) => Token::LBracket,
                    (b']', _) => Token::RBracket,
                    (b',', _) => Token::Comma,
                    (b';', _) => Token::Semicolon,
                    (b'_', _) => Token::Underscore,
                    (b'=', _) => Token::Equal,
                    (b'|', _) => Token::Bar,
                    (b':', _) => Token::Colon,
                    (b'+', _) => Token::Plus,
                    (b'-', _) => Token::Minus,
                    (b'*', _) => Token::Times,
                    (b'/', _) => Token::Divide,
                    (b'<', _) => Token::Less,
                    (b'>', _) => Token::Greater,
                    (b'^', _) => Token::Caret,
                    (b'@', _) => Token::Append,
                    (b'!', _) => Token::Bang,
                    (b'~', _) => Token::Tilde,
                    _ => {
                        return Err(SyntaxError::new(
                            format!("unexpected character {:?}", c as char),
                            span(self),
                        ));
                    }
                };
                Ok(Spanned {
                    tok,
                    span: span(self),
                })
            }
        }
    }

    /// An alphanumeric word: ASCII letters, digits, `_` and `'`.
    fn lex_word(&mut self) -> &'a str {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'')
        {
            self.bump();
        }
        std::str::from_utf8(&self.src[start..self.pos]).expect("a word is ASCII")
    }

    fn lex_number(&mut self, start: usize, line: u32) -> Result<Spanned, SyntaxError> {
        let negative = self.peek() == Some(b'~');
        if negative {
            self.bump();
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_real = false;
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_real = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && self
                .peek2()
                .is_some_and(|c| c.is_ascii_digit() || c == b'~' || c == b'-')
        {
            is_real = true;
            self.bump(); // e
            if matches!(self.peek(), Some(b'~') | Some(b'-')) {
                self.bump();
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text: String =
            String::from_utf8_lossy(&self.src[digits_start..self.pos]).replace('~', "-");
        let span = Span::new(start, self.pos, line);
        if is_real {
            let v: f64 = text
                .parse()
                .map_err(|_| SyntaxError::new("malformed real literal", span))?;
            Ok(Spanned {
                tok: Token::Real(if negative { -v } else { v }),
                span,
            })
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| SyntaxError::new("integer literal out of range", span))?;
            Ok(Spanned {
                tok: Token::Int(if negative { -v } else { v }),
                span,
            })
        }
    }

    fn lex_string(&mut self, start: usize, line: u32) -> Result<Spanned, SyntaxError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => {
                    return Ok(Spanned {
                        tok: Token::Str(out),
                        span: Span::new(start, self.pos, line),
                    });
                }
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    _ => {
                        return Err(SyntaxError::new(
                            "unsupported string escape",
                            Span::new(start, self.pos, line),
                        ));
                    }
                },
                Some(c) => out.push(c as char),
                None => {
                    return Err(SyntaxError::new(
                        "unterminated string literal",
                        Span::new(start, self.pos, line),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|s| s.tok)
            .collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            toks("val x = 1 + 2"),
            vec![
                Token::Val,
                Token::Ident("x".into()),
                Token::Equal,
                Token::Int(1),
                Token::Plus,
                Token::Int(2),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_negative_literals() {
        assert_eq!(toks("~3"), vec![Token::Int(-3), Token::Eof]);
        assert_eq!(toks("~3.5"), vec![Token::Real(-3.5), Token::Eof]);
        // `~` followed by a non-digit is the negation operator.
        assert_eq!(
            toks("~x"),
            vec![Token::Tilde, Token::Ident("x".into()), Token::Eof]
        );
    }

    #[test]
    fn lexes_reals_with_exponent() {
        assert_eq!(toks("1.5e2"), vec![Token::Real(150.0), Token::Eof]);
        assert_eq!(toks("2e~1"), vec![Token::Real(0.2), Token::Eof]);
    }

    #[test]
    fn lexes_compound_symbols() {
        assert_eq!(
            toks(":= :: => -> <> <= >="),
            vec![
                Token::Assign,
                Token::Cons,
                Token::DArrow,
                Token::Arrow,
                Token::NotEqual,
                Token::LessEq,
                Token::GreaterEq,
                Token::Eof
            ]
        );
    }

    #[test]
    fn nested_comments_skip() {
        assert_eq!(
            toks("1 (* a (* nested *) b *) 2"),
            vec![Token::Int(1), Token::Int(2), Token::Eof]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(Lexer::new("(* oops").tokenize().is_err());
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks(r#""hi\n""#),
            vec![Token::Str("hi\n".into()), Token::Eof]
        );
        assert!(Lexer::new("\"open").tokenize().is_err());
    }

    #[test]
    fn char_literal_is_code_point() {
        assert_eq!(toks("#\"A\""), vec![Token::Char(65), Token::Eof]);
    }

    #[test]
    fn primes_in_identifiers() {
        assert_eq!(
            toks("x' foo_bar"),
            vec![
                Token::Ident("x'".into()),
                Token::Ident("foo_bar".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn tyvars() {
        assert_eq!(toks("'a"), vec![Token::TyVar("a".into()), Token::Eof]);
    }

    #[test]
    fn line_numbers_advance() {
        let spanned = Lexer::new("1\n2\n3").tokenize().unwrap();
        assert_eq!(spanned[0].span.line, 1);
        assert_eq!(spanned[1].span.line, 2);
        assert_eq!(spanned[2].span.line, 3);
    }
}
