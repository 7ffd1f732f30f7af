//! Recursive-descent parser for MiniML.
//!
//! Operator precedences follow the Standard ML initial basis:
//!
//! | level | operators            | associativity |
//! |-------|----------------------|---------------|
//! | 7     | `* / div mod`        | left          |
//! | 6     | `+ - ^`              | left          |
//! | 5     | `:: @`               | right         |
//! | 4     | `= <> < <= > >=`     | left          |
//! | 3     | `:= o`               | left          |
//!
//! `andalso` and `orelse` bind more loosely than any infix operator, and
//! `handle` more loosely still. Application binds tightest. As in SML, the
//! prefix forms `if`/`case`/`fn`/`raise`/`while` are whole expressions, not
//! infix operands: `1 + if ...` requires parentheses.
//!
//! The parser refuses input that would make it recurse deeper than
//! [`MAX_NESTING`]: a stack overflow is an abort, not an error, so the
//! depth a source may reach is bounded where the source first meets a
//! stack.

use crate::ast::*;
use crate::error::SyntaxError;
use crate::lexer::{Lexer, Spanned};
use crate::pos::Span;
use crate::token::Token;

/// Parses a full MiniML program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
///
/// # Examples
///
/// ```
/// let p = kit_syntax::parse_program("fun id x = x")?;
/// assert_eq!(p.decs.len(), 1);
/// # Ok::<(), kit_syntax::SyntaxError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, SyntaxError> {
    let toks = Lexer::new(src).tokenize()?;
    let mut p = Parser {
        toks,
        idx: 0,
        depth: 0,
    };
    let mut decs = Vec::new();
    while !p.at(&Token::Eof) {
        // Tolerate stray top-level semicolons (common in SML sources).
        if p.at(&Token::Semicolon) {
            p.bump();
            continue;
        }
        decs.push(p.dec()?);
    }
    Ok(Program { decs })
}

/// Deepest expression, pattern or type nesting the front end accepts: the
/// parser counts its own recursion against it (a bracket, a keyword form,
/// the right operand of an infix operator, a prefix operator), and the
/// elaborator in `kit-typing`, which walks the tree the parser built,
/// counts its own — a run of left-associative operators or curried
/// arguments nests the tree without nesting the parser. Measured per
/// level, release / debug build: the parser needs 2.8 / 27 KB of stack
/// (parentheses), the elaborator 3.8 / 89 KB (`fn x => fn y => …`), so
/// this limit fits a 32 MiB stack in either (`kit-serve` gives its workers
/// one) and a 2 MiB one in release.
pub const MAX_NESTING: usize = 256;

struct Parser {
    toks: Vec<Spanned>,
    idx: usize,
    /// Nesting of the construct being parsed, against [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.idx].tok
    }

    fn peek_span(&self) -> Span {
        self.toks[self.idx].span
    }

    fn at(&self, t: &Token) -> bool {
        self.peek() == t
    }

    /// Consumes the current token. A token with a name or a string moves
    /// out, leaving an empty one behind that nothing reads again: the one
    /// backtrack, in `funbind`, re-reads only a `|`, and the last token,
    /// which stays current, is `<eof>`.
    fn bump(&mut self) -> Spanned {
        let s = &mut self.toks[self.idx];
        let tok = match &mut s.tok {
            Token::Ident(x) => Token::Ident(std::mem::take(x)),
            Token::TyVar(x) => Token::TyVar(std::mem::take(x)),
            Token::Str(x) => Token::Str(std::mem::take(x)),
            t => t.clone(),
        };
        let span = s.span;
        if self.idx + 1 < self.toks.len() {
            self.idx += 1;
        }
        Spanned { tok, span }
    }

    /// Consumes the current token, a name or string, and returns its text.
    fn bump_text(&mut self) -> String {
        match self.bump().tok {
            Token::Ident(x) | Token::TyVar(x) | Token::Str(x) => x,
            t => unreachable!("`{t}` carries no text"),
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<Spanned, SyntaxError> {
        if self.at(&t) {
            Ok(self.bump())
        } else {
            Err(SyntaxError::new(
                format!("expected `{}`, found `{}`", t, self.peek()),
                self.peek_span(),
            ))
        }
    }

    /// Goes one level of nesting down; returns the depth to come back to.
    fn deeper(&mut self) -> Result<usize, SyntaxError> {
        let outer = self.depth;
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(SyntaxError::new(
                format!("nested more than {MAX_NESTING} levels deep"),
                self.peek_span(),
            ));
        }
        Ok(outer)
    }

    /// Runs `parse` one level down.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, SyntaxError>,
    ) -> Result<T, SyntaxError> {
        let outer = self.deeper()?;
        let parsed = parse(self)?;
        self.depth = outer;
        Ok(parsed)
    }

    fn ident(&mut self) -> Result<(String, Span), SyntaxError> {
        match self.peek() {
            Token::Ident(_) => {
                let sp = self.peek_span();
                Ok((self.bump_text(), sp))
            }
            other => Err(SyntaxError::new(
                format!("expected identifier, found `{other}`"),
                self.peek_span(),
            )),
        }
    }

    // ---------------------------------------------------------- declarations

    fn dec(&mut self) -> Result<Dec, SyntaxError> {
        let start = self.peek_span();
        match self.peek() {
            Token::Val => {
                self.bump();
                let pat = self.pat()?;
                self.expect(Token::Equal)?;
                let exp = self.exp()?;
                let span = start.merge(exp.span());
                Ok(Dec::Val { pat, exp, span })
            }
            Token::Fun => {
                self.bump();
                let mut binds = vec![self.funbind()?];
                while self.eat(&Token::And) {
                    binds.push(self.funbind()?);
                }
                let span = start.merge(binds.last().unwrap().span);
                Ok(Dec::Fun { binds, span })
            }
            Token::Datatype => {
                self.bump();
                let mut binds = vec![self.databind()?];
                while self.eat(&Token::And) {
                    binds.push(self.databind()?);
                }
                Ok(Dec::Datatype { binds, span: start })
            }
            Token::Exception => {
                self.bump();
                let (name, nsp) = self.ident()?;
                let arg = if self.eat(&Token::Of) {
                    Some(self.tyexp()?)
                } else {
                    None
                };
                Ok(Dec::Exception {
                    name,
                    arg,
                    span: start.merge(nsp),
                })
            }
            other => Err(SyntaxError::new(
                format!("expected declaration, found `{other}`"),
                start,
            )),
        }
    }

    fn funbind(&mut self) -> Result<FunBind, SyntaxError> {
        let (name, start) = self.ident()?;
        let mut clauses = Vec::new();
        loop {
            let mut pats = vec![self.atpat()?];
            while self.starts_atpat() {
                pats.push(self.atpat()?);
            }
            self.expect(Token::Equal)?;
            let body = self.exp()?;
            clauses.push(Clause { pats, body });
            // Another clause for the *same* function: `| f pats = exp`.
            if self.at(&Token::Bar) {
                // Only continue if what follows the bar is this function name.
                let save = self.idx;
                self.bump();
                match self.peek() {
                    Token::Ident(n) if *n == name => {
                        self.bump();
                        continue;
                    }
                    _ => {
                        self.idx = save;
                        break;
                    }
                }
            }
            break;
        }
        let arity = clauses[0].pats.len();
        if clauses.iter().any(|c| c.pats.len() != arity) {
            return Err(SyntaxError::new(
                format!("clauses of `{name}` have differing numbers of arguments"),
                start,
            ));
        }
        Ok(FunBind {
            name,
            clauses,
            span: start,
        })
    }

    fn databind(&mut self) -> Result<DataBind, SyntaxError> {
        let mut tyvars = Vec::new();
        match self.peek() {
            Token::TyVar(_) => tyvars.push(self.bump_text()),
            Token::LParen if matches!(self.toks[self.idx + 1].tok, Token::TyVar(_)) => {
                self.bump();
                loop {
                    match self.peek() {
                        Token::TyVar(_) => tyvars.push(self.bump_text()),
                        other => {
                            return Err(SyntaxError::new(
                                format!("expected type variable, found `{other}`"),
                                self.peek_span(),
                            ));
                        }
                    }
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(Token::RParen)?;
            }
            _ => {}
        }
        let (name, _) = self.ident()?;
        self.expect(Token::Equal)?;
        let mut cons = vec![self.conbind()?];
        while self.eat(&Token::Bar) {
            cons.push(self.conbind()?);
        }
        Ok(DataBind { tyvars, name, cons })
    }

    fn conbind(&mut self) -> Result<ConBind, SyntaxError> {
        let (name, _) = self.ident()?;
        let arg = if self.eat(&Token::Of) {
            Some(self.tyexp()?)
        } else {
            None
        };
        Ok(ConBind { name, arg })
    }

    // ------------------------------------------------------------------ types

    fn tyexp(&mut self) -> Result<TyExp, SyntaxError> {
        let outer = self.deeper()?;
        let mut ty = self.tytuple()?;
        if self.eat(&Token::Arrow) {
            let rhs = self.tyexp()?;
            ty = TyExp::Arrow(Box::new(ty), Box::new(rhs));
        }
        self.depth = outer;
        Ok(ty)
    }

    fn tytuple(&mut self) -> Result<TyExp, SyntaxError> {
        let first = self.tyapp()?;
        if self.at(&Token::Times) {
            let mut parts = vec![first];
            while self.eat(&Token::Times) {
                parts.push(self.tyapp()?);
            }
            Ok(TyExp::Tuple(parts))
        } else {
            Ok(first)
        }
    }

    fn tyapp(&mut self) -> Result<TyExp, SyntaxError> {
        let mut t = self.atty()?;
        while let Token::Ident(_) = self.peek() {
            let name = self.bump_text();
            self.deeper()?; // a postfix constructor nests `t`; `tyexp` comes back up
            t = TyExp::Con(name, vec![t]);
        }
        Ok(t)
    }

    fn atty(&mut self) -> Result<TyExp, SyntaxError> {
        match self.peek() {
            Token::TyVar(_) => Ok(TyExp::Var(self.bump_text())),
            Token::Ident(_) => Ok(TyExp::Con(self.bump_text(), Vec::new())),
            Token::LParen => {
                self.bump();
                let first = self.tyexp()?;
                if self.eat(&Token::Comma) {
                    let mut args = vec![first];
                    loop {
                        args.push(self.tyexp()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(Token::RParen)?;
                    let (name, _) = self.ident()?;
                    Ok(TyExp::Con(name, args))
                } else {
                    self.expect(Token::RParen)?;
                    Ok(first)
                }
            }
            other => Err(SyntaxError::new(
                format!("expected type, found `{other}`"),
                self.peek_span(),
            )),
        }
    }

    // -------------------------------------------------------------- patterns

    fn pat(&mut self) -> Result<Pat, SyntaxError> {
        let outer = self.deeper()?;
        let mut pat = self.apppat()?;
        if self.eat(&Token::Cons) {
            let rhs = self.pat()?;
            let span = pat.span().merge(rhs.span());
            pat = Pat::Cons(Box::new(pat), Box::new(rhs), span);
        } else if self.eat(&Token::Colon) {
            let ty = self.tyexp()?;
            let span = pat.span();
            pat = Pat::Ascribe(Box::new(pat), ty, span);
        }
        self.depth = outer;
        Ok(pat)
    }

    fn apppat(&mut self) -> Result<Pat, SyntaxError> {
        if let Token::Ident(_) = self.peek() {
            let sp = self.peek_span();
            let name = self.bump_text();
            if self.starts_atpat() {
                let arg = self.atpat()?;
                let span = sp.merge(arg.span());
                return Ok(Pat::Con(name, Box::new(arg), span));
            }
            return Ok(Pat::Var(name, sp));
        }
        self.atpat()
    }

    fn starts_atpat(&self) -> bool {
        matches!(
            self.peek(),
            Token::Underscore
                | Token::Ident(_)
                | Token::Int(_)
                | Token::Char(_)
                | Token::Str(_)
                | Token::True
                | Token::False
                | Token::LParen
                | Token::LBracket
        )
    }

    fn atpat(&mut self) -> Result<Pat, SyntaxError> {
        let sp = self.peek_span();
        match self.peek() {
            Token::Underscore => {
                self.bump();
                Ok(Pat::Wild(sp))
            }
            Token::Ident(_) => {
                let name = self.bump_text();
                Ok(Pat::Var(name, sp))
            }
            &Token::Int(n) => {
                self.bump();
                Ok(Pat::Int(n, sp))
            }
            &Token::Char(c) => {
                self.bump();
                Ok(Pat::Int(c, sp))
            }
            Token::Str(_) => {
                let s = self.bump_text();
                Ok(Pat::Str(s, sp))
            }
            Token::True => {
                self.bump();
                Ok(Pat::Bool(true, sp))
            }
            Token::False => {
                self.bump();
                Ok(Pat::Bool(false, sp))
            }
            Token::LParen => {
                self.bump();
                if self.eat(&Token::RParen) {
                    return Ok(Pat::Unit(sp));
                }
                let first = self.pat()?;
                if self.eat(&Token::Comma) {
                    let mut parts = vec![first];
                    loop {
                        parts.push(self.pat()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(Token::RParen)?.span;
                    Ok(Pat::Tuple(parts, sp.merge(end)))
                } else {
                    self.expect(Token::RParen)?;
                    Ok(first)
                }
            }
            Token::LBracket => {
                self.bump();
                let mut parts = Vec::new();
                if !self.at(&Token::RBracket) {
                    loop {
                        parts.push(self.pat()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(Token::RBracket)?.span;
                Ok(Pat::List(parts, sp.merge(end)))
            }
            other => Err(SyntaxError::new(
                format!("expected pattern, found `{other}`"),
                sp,
            )),
        }
    }

    // ----------------------------------------------------------- expressions

    fn exp(&mut self) -> Result<Exp, SyntaxError> {
        let e = self.exp_no_handle()?;
        if self.eat(&Token::Handle) {
            let rules = self.rules()?;
            let span = e.span();
            return Ok(Exp::Handle(Box::new(e), rules, span));
        }
        Ok(e)
    }

    fn exp_no_handle(&mut self) -> Result<Exp, SyntaxError> {
        let outer = self.deeper()?;
        let sp = self.peek_span();
        let e = match self.peek() {
            Token::If => {
                self.bump();
                let c = self.exp()?;
                self.expect(Token::Then)?;
                let t = self.exp()?;
                self.expect(Token::Else)?;
                let f = self.exp()?;
                let span = sp.merge(f.span());
                Ok(Exp::If(Box::new(c), Box::new(t), Box::new(f), span))
            }
            Token::While => {
                self.bump();
                let c = self.exp()?;
                self.expect(Token::Do)?;
                let b = self.exp()?;
                let span = sp.merge(b.span());
                Ok(Exp::While(Box::new(c), Box::new(b), span))
            }
            Token::Case => {
                self.bump();
                let scrut = self.exp()?;
                self.expect(Token::Of)?;
                let rules = self.rules()?;
                Ok(Exp::Case(Box::new(scrut), rules, sp))
            }
            Token::Fn => {
                self.bump();
                let rules = self.rules()?;
                Ok(Exp::Fn(rules, sp))
            }
            Token::Raise => {
                self.bump();
                let e = self.exp()?;
                let span = sp.merge(e.span());
                Ok(Exp::Raise(Box::new(e), span))
            }
            _ => self.orelse_exp(),
        };
        self.depth = outer;
        e
    }

    fn rules(&mut self) -> Result<Vec<Rule>, SyntaxError> {
        let mut rules = Vec::new();
        loop {
            let pat = self.pat()?;
            self.expect(Token::DArrow)?;
            let exp = self.exp_no_handle()?;
            rules.push(Rule { pat, exp });
            if !self.eat(&Token::Bar) {
                return Ok(rules);
            }
        }
    }

    fn orelse_exp(&mut self) -> Result<Exp, SyntaxError> {
        let mut lhs = self.andalso_exp()?;
        while self.eat(&Token::Orelse) {
            let rhs = self.andalso_exp()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Exp::Orelse(Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn andalso_exp(&mut self) -> Result<Exp, SyntaxError> {
        let mut lhs = self.infix_exp(3)?;
        while self.eat(&Token::Andalso) {
            let rhs = self.infix_exp(3)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Exp::Andalso(Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    /// Binary-operator level of a token, if it is infix.
    fn infix_level(t: &Token) -> Option<(u8, bool /*right assoc*/)> {
        Some(match t {
            Token::Times | Token::Divide | Token::Div | Token::Mod => (7, false),
            Token::Plus | Token::Minus | Token::Caret => (6, false),
            Token::Cons | Token::Append => (5, true),
            Token::Equal
            | Token::NotEqual
            | Token::Less
            | Token::LessEq
            | Token::Greater
            | Token::GreaterEq => (4, false),
            Token::Assign | Token::Compose => (3, false),
            _ => return None,
        })
    }

    fn infix_exp(&mut self, min_level: u8) -> Result<Exp, SyntaxError> {
        let mut lhs = self.app_exp()?;
        while let Some((level, right)) = Self::infix_level(self.peek()) {
            if level < min_level {
                break;
            }
            let op_tok = self.bump().tok;
            let next_min = if right { level } else { level + 1 };
            let rhs = self.nested(|p| p.infix_exp(next_min))?;
            let span = lhs.span().merge(rhs.span());
            lhs = match op_tok {
                Token::Cons => Exp::Cons(Box::new(lhs), Box::new(rhs), span),
                Token::Append => Exp::Append(Box::new(lhs), Box::new(rhs), span),
                t => {
                    let op = match t {
                        Token::Plus => BinOp::Add,
                        Token::Minus => BinOp::Sub,
                        Token::Times => BinOp::Mul,
                        Token::Divide => BinOp::RDiv,
                        Token::Div => BinOp::Div,
                        Token::Mod => BinOp::Mod,
                        Token::Equal => BinOp::Eq,
                        Token::NotEqual => BinOp::Neq,
                        Token::Less => BinOp::Lt,
                        Token::LessEq => BinOp::Le,
                        Token::Greater => BinOp::Gt,
                        Token::GreaterEq => BinOp::Ge,
                        Token::Caret => BinOp::Concat,
                        Token::Assign => BinOp::Assign,
                        Token::Compose => BinOp::Compose,
                        _ => unreachable!("infix_level admitted a non-infix token"),
                    };
                    Exp::BinOp(op, Box::new(lhs), Box::new(rhs), span)
                }
            };
        }
        Ok(lhs)
    }

    fn app_exp(&mut self) -> Result<Exp, SyntaxError> {
        let mut e = self.prefix_exp()?;
        while self.starts_atexp() {
            let arg = self.atexp()?;
            let span = e.span().merge(arg.span());
            e = Exp::App(Box::new(e), Box::new(arg), span);
        }
        Ok(e)
    }

    fn prefix_exp(&mut self) -> Result<Exp, SyntaxError> {
        let sp = self.peek_span();
        match self.peek() {
            Token::Tilde => {
                self.bump();
                let e = self.nested(Self::prefix_exp)?;
                let span = sp.merge(e.span());
                Ok(Exp::Neg(Box::new(e), span))
            }
            Token::Bang => {
                self.bump();
                let e = self.nested(Self::prefix_exp)?;
                let span = sp.merge(e.span());
                Ok(Exp::Deref(Box::new(e), span))
            }
            Token::Not => {
                self.bump();
                let e = self.nested(Self::prefix_exp)?;
                let span = sp.merge(e.span());
                Ok(Exp::Not(Box::new(e), span))
            }
            _ => self.atexp(),
        }
    }

    fn starts_atexp(&self) -> bool {
        matches!(
            self.peek(),
            Token::Int(_)
                | Token::Real(_)
                | Token::Str(_)
                | Token::Char(_)
                | Token::True
                | Token::False
                | Token::Ident(_)
                | Token::LParen
                | Token::LBracket
                | Token::Let
                | Token::Op
        )
    }

    fn atexp(&mut self) -> Result<Exp, SyntaxError> {
        let sp = self.peek_span();
        match self.peek() {
            &Token::Int(n) => {
                self.bump();
                Ok(Exp::Int(n, sp))
            }
            &Token::Char(c) => {
                self.bump();
                Ok(Exp::Int(c, sp))
            }
            &Token::Real(r) => {
                self.bump();
                Ok(Exp::Real(r, sp))
            }
            Token::Str(_) => {
                let s = self.bump_text();
                Ok(Exp::Str(s, sp))
            }
            Token::True => {
                self.bump();
                Ok(Exp::Bool(true, sp))
            }
            Token::False => {
                self.bump();
                Ok(Exp::Bool(false, sp))
            }
            Token::Ident(_) => {
                let name = self.bump_text();
                Ok(Exp::Var(name, sp))
            }
            Token::Op => {
                self.bump();
                // `op <operator>` references the operator as a function value.
                let name = match self.bump().tok {
                    Token::Plus => "op+",
                    Token::Minus => "op-",
                    Token::Times => "op*",
                    Token::Divide => "op/",
                    Token::Div => "opdiv",
                    Token::Mod => "opmod",
                    Token::Cons => "op::",
                    Token::Append => "op@",
                    Token::Equal => "op=",
                    Token::Less => "op<",
                    Token::LessEq => "op<=",
                    Token::Greater => "op>",
                    Token::GreaterEq => "op>=",
                    Token::Caret => "op^",
                    other => {
                        return Err(SyntaxError::new(
                            format!("`op` must be followed by an infix operator, found `{other}`"),
                            sp,
                        ));
                    }
                };
                Ok(Exp::Var(name.to_string(), sp))
            }
            Token::Let => {
                self.bump();
                let mut decs = Vec::new();
                while !self.at(&Token::In) {
                    if self.eat(&Token::Semicolon) {
                        continue;
                    }
                    decs.push(self.dec()?);
                }
                self.expect(Token::In)?;
                let mut body = vec![self.exp()?];
                while self.eat(&Token::Semicolon) {
                    body.push(self.exp()?);
                }
                let end = self.expect(Token::End)?.span;
                Ok(Exp::Let(decs, body, sp.merge(end)))
            }
            Token::LParen => {
                self.bump();
                if self.eat(&Token::RParen) {
                    return Ok(Exp::Unit(sp));
                }
                let first = self.exp()?;
                if self.at(&Token::Comma) {
                    let mut parts = vec![first];
                    while self.eat(&Token::Comma) {
                        parts.push(self.exp()?);
                    }
                    let end = self.expect(Token::RParen)?.span;
                    Ok(Exp::Tuple(parts, sp.merge(end)))
                } else if self.at(&Token::Semicolon) {
                    let mut parts = vec![first];
                    while self.eat(&Token::Semicolon) {
                        parts.push(self.exp()?);
                    }
                    let end = self.expect(Token::RParen)?.span;
                    Ok(Exp::Seq(parts, sp.merge(end)))
                } else if self.eat(&Token::Colon) {
                    let ty = self.tyexp()?;
                    let end = self.expect(Token::RParen)?.span;
                    Ok(Exp::Ascribe(Box::new(first), ty, sp.merge(end)))
                } else {
                    self.expect(Token::RParen)?;
                    Ok(first)
                }
            }
            Token::LBracket => {
                self.bump();
                let mut parts = Vec::new();
                if !self.at(&Token::RBracket) {
                    loop {
                        parts.push(self.exp()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(Token::RBracket)?.span;
                Ok(Exp::List(parts, sp.merge(end)))
            }
            other => Err(SyntaxError::new(
                format!("expected expression, found `{other}`"),
                sp,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expression `src` parses to, as the body of `val it = src`.
    fn exp_of(src: &str) -> Result<Exp, SyntaxError> {
        let mut p = parse_program(&format!("val it = {src}"))?;
        match p.decs.pop() {
            Some(Dec::Val { exp, .. }) if p.decs.is_empty() => Ok(exp),
            d => panic!("{src:?} is not one expression: {d:?}"),
        }
    }

    #[test]
    fn parses_val_dec() {
        let p = parse_program("val x = 1 + 2 * 3").unwrap();
        assert_eq!(p.decs.len(), 1);
        let Dec::Val { exp, .. } = &p.decs[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        let Exp::BinOp(BinOp::Add, _, rhs, _) = exp else {
            panic!("got {exp:?}")
        };
        assert!(matches!(**rhs, Exp::BinOp(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn application_binds_tighter_than_infix() {
        let e = exp_of("f x + g y").unwrap();
        let Exp::BinOp(BinOp::Add, l, r, _) = e else {
            panic!()
        };
        assert!(matches!(*l, Exp::App(_, _, _)));
        assert!(matches!(*r, Exp::App(_, _, _)));
    }

    #[test]
    fn cons_is_right_associative() {
        let e = exp_of("1 :: 2 :: nil").unwrap();
        let Exp::Cons(_, tl, _) = e else { panic!() };
        assert!(matches!(*tl, Exp::Cons(_, _, _)));
    }

    #[test]
    fn comparison_below_arith() {
        let e = exp_of("1 + 2 < 3 * 4").unwrap();
        assert!(matches!(e, Exp::BinOp(BinOp::Lt, _, _, _)));
    }

    #[test]
    fn andalso_orelse_precedence() {
        let e = exp_of("a < b andalso c orelse d").unwrap();
        let Exp::Orelse(l, _, _) = e else { panic!() };
        assert!(matches!(*l, Exp::Andalso(_, _, _)));
    }

    #[test]
    fn parses_multi_clause_fun() {
        let p = parse_program("fun len nil = 0 | len (x::xs) = 1 + len xs").unwrap();
        let Dec::Fun { binds, .. } = &p.decs[0] else {
            panic!()
        };
        assert_eq!(binds[0].clauses.len(), 2);
    }

    #[test]
    fn parses_mutual_recursion() {
        let p = parse_program(
            "fun even 0 = true | even n = odd (n-1) and odd 0 = false | odd n = even (n-1)",
        )
        .unwrap();
        let Dec::Fun { binds, .. } = &p.decs[0] else {
            panic!()
        };
        assert_eq!(binds.len(), 2);
    }

    #[test]
    fn rejects_mismatched_clause_arity() {
        assert!(parse_program("fun f x = 1 | f x y = 2").is_err());
    }

    #[test]
    fn parses_datatype() {
        let p = parse_program("datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree").unwrap();
        let Dec::Datatype { binds, .. } = &p.decs[0] else {
            panic!()
        };
        assert_eq!(binds[0].tyvars, vec!["a".to_string()]);
        assert_eq!(binds[0].cons.len(), 2);
        assert!(binds[0].cons[1].arg.is_some());
    }

    #[test]
    fn parses_multi_tyvar_datatype() {
        let p = parse_program("datatype ('a,'b) pair = P of 'a * 'b").unwrap();
        let Dec::Datatype { binds, .. } = &p.decs[0] else {
            panic!()
        };
        assert_eq!(binds[0].tyvars.len(), 2);
    }

    #[test]
    fn parses_case_with_nested_patterns() {
        let e = exp_of("case xs of (x, y) :: rest => x | nil => 0").unwrap();
        let Exp::Case(_, rules, _) = e else { panic!() };
        assert_eq!(rules.len(), 2);
        assert!(matches!(rules[0].pat, Pat::Cons(_, _, _)));
    }

    #[test]
    fn parses_let_with_sequence() {
        let e = exp_of("let val x = 1 in print x; x + 1 end").unwrap();
        let Exp::Let(decs, body, _) = e else { panic!() };
        assert_eq!(decs.len(), 1);
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn nesting_is_bounded_in_every_direction_a_tree_can_grow() {
        // On the stack `MAX_NESTING` was sized for (a debug build's test
        // thread has 2 MiB, which 80 levels of parentheses fill).
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(check_nesting_bound)
            .unwrap()
            .join()
            .unwrap();
    }

    fn check_nesting_bound() {
        let deep = |n: usize| {
            [
                format!("{}1{}", "(".repeat(n), ")".repeat(n)),
                format!("{}nil", "1 :: ".repeat(n)),
                format!("{}0", "if true then 1 else ".repeat(n)),
                format!("{}0", "fn x => ".repeat(n)),
                format!("{}1", "~ ".repeat(n)),
                format!("fn {}x{} => 0", "(".repeat(n), ")".repeat(n)),
                format!("(0 : {}int)", "int -> ".repeat(n)),
            ]
        };
        for src in deep(MAX_NESTING - 2) {
            exp_of(&src).unwrap_or_else(|e| panic!("{e}: {}", &src[..40]));
        }
        // Far past the limit the answer is still an error, not the guard
        // page: the refusal comes at level `MAX_NESTING + 1`.
        for src in deep(64 * MAX_NESTING) {
            let err = exp_of(&src).unwrap_err();
            assert!(err.message().contains("levels deep"), "{err}");
        }
        // Siblings do not add up, and a run of left-associative operators
        // or arguments is a loop here (the elaborator bounds the tree).
        let wide = format!("[{}1]", "((((1)))), ".repeat(4 * MAX_NESTING));
        exp_of(&wide).unwrap();
        exp_of(&format!("f{}", " x + 1".repeat(4 * MAX_NESTING))).unwrap();
    }

    #[test]
    fn parses_handle_and_raise() {
        let e = exp_of("(raise Overflow) handle Overflow => 0").unwrap();
        assert!(matches!(e, Exp::Handle(_, _, _)));
    }

    #[test]
    fn parses_ref_ops() {
        let e = exp_of("r := !r + 1").unwrap();
        let Exp::BinOp(BinOp::Assign, _, rhs, _) = e else {
            panic!()
        };
        assert!(matches!(*rhs, Exp::BinOp(BinOp::Add, _, _, _)));
    }

    #[test]
    fn parses_fn_and_composition() {
        let e = exp_of("(fn x => x + 1) o double").unwrap();
        assert!(matches!(e, Exp::BinOp(BinOp::Compose, _, _, _)));
    }

    #[test]
    fn parses_op_section() {
        let e = exp_of("foldl op+ 0 xs").unwrap();
        // foldl (op+) 0 xs is a chain of applications.
        assert!(matches!(e, Exp::App(_, _, _)));
    }

    #[test]
    fn parses_while_loop() {
        let e = exp_of("while !i < 10 do i := !i + 1").unwrap();
        assert!(matches!(e, Exp::While(_, _, _)));
    }

    #[test]
    fn parses_list_literal() {
        let e = exp_of("[1, 2, 3]").unwrap();
        let Exp::List(xs, _) = e else { panic!() };
        assert_eq!(xs.len(), 3);
    }

    #[test]
    fn parses_seq_parens() {
        let e = exp_of("(print \"a\"; 1)").unwrap();
        let Exp::Seq(xs, _) = e else { panic!() };
        assert_eq!(xs.len(), 2);
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("val = 3").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn if_requires_parens_as_operand() {
        assert!(exp_of("1 + if true then 1 else 2").is_err());
        assert!(exp_of("1 + (if true then 1 else 2)").is_ok());
    }

    #[test]
    fn negation_of_application() {
        let e = exp_of("~(f x)").unwrap();
        assert!(matches!(e, Exp::Neg(_, _)));
    }

    #[test]
    fn exception_dec() {
        let p = parse_program("exception Fail of string").unwrap();
        assert!(matches!(&p.decs[0], Dec::Exception { arg: Some(_), .. }));
    }
}
