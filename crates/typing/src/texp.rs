//! The internal *typed* abstract syntax produced by inference and consumed
//! by lowering.
//!
//! `TExp` sits between the surface AST and `LambdaExp`: names are resolved
//! (variables carry unique [`VarId`]s, constructors carry their datatype
//! ids), every node that needs one carries an inference type ([`TyId`]), but
//! patterns are not yet compiled and overloaded operators are not yet
//! resolved — both happen during lowering, after the enclosing top-level
//! declaration's types are final.

use crate::builtins::Builtin;
use crate::types::TyId;
use kit_lambda::exp::VarId;
use kit_lambda::ty::{ConId, ExnId, TyConId};
use kit_syntax::Span;

/// Overloaded operators (resolved to int/real/string primitives at lowering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OvOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// unary `~`
    Neg,
    /// `abs`
    Abs,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A typed pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum TPat {
    /// `_` (also used for the unit pattern).
    Wild,
    /// Variable binding.
    Var(VarId, TyId),
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Tuple.
    Tuple(Vec<TPat>),
    /// Datatype constructor.
    Con {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Type arguments of the datatype at this pattern.
        targs: Vec<TyId>,
        /// Argument pattern for value-carrying constructors.
        arg: Option<Box<TPat>>,
    },
    /// Exception constructor.
    Exn {
        /// The exception.
        exn: ExnId,
        /// Argument pattern.
        arg: Option<Box<TPat>>,
    },
}

impl TPat {
    /// `true` if the pattern can never fail to match.
    pub fn irrefutable(&self) -> bool {
        match self {
            TPat::Wild | TPat::Var(_, _) => true,
            TPat::Tuple(ps) => ps.iter().all(TPat::irrefutable),
            _ => false,
        }
    }
}

/// One rule of a match.
#[derive(Debug, Clone, PartialEq)]
pub struct TRule {
    /// The pattern.
    pub pat: TPat,
    /// The right-hand side.
    pub exp: TExp,
}

/// One function of a (possibly mutually recursive) `fun` group.
#[derive(Debug, Clone, PartialEq)]
pub struct TFun {
    /// The bound function variable.
    pub var: VarId,
    /// Fresh parameter variables with their types (curried arguments).
    pub params: Vec<(VarId, TyId)>,
    /// Result type.
    pub ret: TyId,
    /// Clauses: argument patterns (one per parameter) and body.
    pub clauses: Vec<(Vec<TPat>, TExp)>,
    /// Source span (for match-failure diagnostics).
    pub span: Span,
}

/// A typed declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum TDec {
    /// `val pat = exp`.
    Val {
        /// The pattern.
        pat: TPat,
        /// The bound expression.
        rhs: TExp,
        /// Source span.
        span: Span,
    },
    /// A `fun` group.
    Fun(Vec<TFun>),
}

/// A typed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TExp {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Unit literal.
    Unit,
    /// Resolved variable (its type is the instantiation at this use).
    Var(VarId, TyId),
    /// Builtin referenced as a value (eta-expanded at lowering if not
    /// directly applied).
    Builtin(Builtin, TyId),
    /// Datatype constructor application (or nullary constant).
    Con {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Type arguments at this use.
        targs: Vec<TyId>,
        /// Argument.
        arg: Option<Box<TExp>>,
    },
    /// A value-carrying constructor used as a first-class function.
    ConVal {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Type arguments at this use.
        targs: Vec<TyId>,
    },
    /// Exception constructor application (or nullary exception value).
    ExCon {
        /// The exception.
        exn: ExnId,
        /// Argument.
        arg: Option<Box<TExp>>,
    },
    /// A value-carrying exception constructor used as a function.
    ExnVal(ExnId),
    /// Tuple.
    Tuple(Vec<TExp>),
    /// Application (unary; the surface language is curried).
    App(Box<TExp>, Box<TExp>),
    /// `fn`-abstraction with a single parameter; multi-rule `fn` is
    /// expressed as `Fn { param = x, body = Case (Var x) rules }`.
    Fn {
        /// Parameter.
        param: VarId,
        /// Parameter type.
        pty: TyId,
        /// Result type.
        rty: TyId,
        /// Body.
        body: Box<TExp>,
    },
    /// Local declarations.
    Let {
        /// Declarations, in order.
        decs: Vec<TDec>,
        /// Body.
        body: Box<TExp>,
    },
    /// Sequencing; value of the last expression.
    Seq(Vec<TExp>),
    /// Conditional (`andalso`/`orelse` are desugared to this).
    If(Box<TExp>, Box<TExp>, Box<TExp>),
    /// `while cond do body`.
    While(Box<TExp>, Box<TExp>),
    /// `case scrut of rules`; a failing match raises `Match`.
    Case {
        /// Scrutinee.
        scrut: Box<TExp>,
        /// Its type.
        sty: TyId,
        /// The rules.
        rules: Vec<TRule>,
        /// Result type.
        rty: TyId,
        /// Source span.
        span: Span,
    },
    /// `raise e`.
    Raise(Box<TExp>, TyId),
    /// `e handle rules`; an unhandled exception is re-raised.
    Handle {
        /// Protected expression.
        body: Box<TExp>,
        /// Handler rules (patterns of type `exn`).
        rules: Vec<TRule>,
        /// Result type.
        rty: TyId,
        /// Source span.
        span: Span,
    },
    /// Overloaded operator application; `ty` is the operand type, resolved
    /// at lowering.
    Overload {
        /// The operator.
        op: OvOp,
        /// Operands.
        args: Vec<TExp>,
        /// Operand type.
        ty: TyId,
        /// Source span.
        span: Span,
    },
    /// Polymorphic equality, specialized at lowering; `ty` is the compared
    /// type and must be ground by then.
    Eq {
        /// Left operand.
        lhs: Box<TExp>,
        /// Right operand.
        rhs: Box<TExp>,
        /// Compared type.
        ty: TyId,
        /// `true` for `<>`.
        negate: bool,
        /// Source span.
        span: Span,
    },
    /// Fully resolved primitive application.
    Prim {
        /// The primitive.
        prim: kit_lambda::exp::Prim,
        /// Arguments.
        args: Vec<TExp>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irrefutable_patterns() {
        assert!(TPat::Wild.irrefutable());
        assert!(TPat::Tuple(vec![TPat::Wild, TPat::Var(VarId(0), TyId::INT)]).irrefutable());
        assert!(!TPat::Int(3).irrefutable());
    }
}
