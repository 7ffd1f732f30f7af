//! The `LambdaExp` expression language.
//!
//! Allocation points are syntactically explicit: [`LExp::Record`],
//! boxed [`LExp::Con`], [`LExp::ExCon`] with argument, [`LExp::Fn`] and
//! [`LExp::Fix`] closures, [`LExp::Real`] and [`LExp::Str`] literals, and
//! the allocating primitives ([`Prim::allocates`]). Region inference
//! (`kit-region`) attaches an `at ρ` annotation to exactly these points.

use crate::ty::{ConId, DataEnv, ExnEnv, ExnId, LTy, TyConId};
use std::collections::BTreeSet;

/// A variable identifier, unique within a program after elaboration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Maps [`VarId`]s to their source names, and issues fresh variables.
///
/// The names are stored back to back in one string, so copying a table
/// (every compile starts from a copy of the prelude's) is two flat copies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarTable {
    text: String,
    /// `ends[i]` is where the name of `VarId(i)` ends in `text`.
    ends: Vec<u32>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a fresh variable with a display `name`.
    pub fn fresh(&mut self, name: &str) -> VarId {
        let id = VarId(self.ends.len() as u32);
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        id
    }

    /// The display name of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not issued by this table.
    pub fn name(&self, v: VarId) -> &str {
        let i = v.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// Number of variables issued.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if no variables were issued.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// Primitive operations.
///
/// Integer division and modulus follow SML semantics (rounding toward
/// negative infinity) and raise `Div`; integer arithmetic raises `Overflow`
/// on wrap-around; array and string indexing raise `Subscript`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// `+` on int.
    IAdd,
    /// `-` on int.
    ISub,
    /// `*` on int.
    IMul,
    /// `div` (floor division).
    IDiv,
    /// `mod` (sign follows divisor).
    IMod,
    /// `~` on int.
    INeg,
    /// `abs` on int.
    IAbs,
    /// `<` on int.
    ILt,
    /// `<=` on int.
    ILe,
    /// `>` on int.
    IGt,
    /// `>=` on int.
    IGe,
    /// `=` on int (also used for bool/char/unit).
    IEq,
    /// `+` on real. Allocates the boxed result.
    RAdd,
    /// `-` on real. Allocates.
    RSub,
    /// `*` on real. Allocates.
    RMul,
    /// `/` on real. Allocates.
    RDiv,
    /// `~` on real. Allocates.
    RNeg,
    /// `abs` on real. Allocates.
    RAbs,
    /// `<` on real.
    RLt,
    /// `<=` on real.
    RLe,
    /// `>` on real.
    RGt,
    /// `>=` on real.
    RGe,
    /// `=` on real (paper benchmarks use it; SML97 forbids it, we allow).
    REq,
    /// `real : int -> real`. Allocates.
    IntToReal,
    /// `floor : real -> int`.
    Floor,
    /// `trunc : real -> int`.
    Trunc,
    /// `sqrt`. Allocates.
    Sqrt,
    /// `sin`. Allocates.
    Sin,
    /// `cos`. Allocates.
    Cos,
    /// `atan`. Allocates.
    Atan,
    /// `ln`. Allocates.
    Ln,
    /// `exp`. Allocates.
    Exp,
    /// `=` on strings.
    StrEq,
    /// `<` on strings (lexicographic).
    StrLt,
    /// `^` concatenation. Allocates a large object.
    StrConcat,
    /// `size : string -> int`.
    StrSize,
    /// `strsub : string * int -> int` (code point). Raises `Subscript`.
    StrSub,
    /// `itos : int -> string`. Allocates.
    ItoS,
    /// `rtos : real -> string`. Allocates.
    RtoS,
    /// `chr : int -> string` (single character). Allocates.
    Chr,
    /// `print : string -> unit`.
    Print,
    /// `ref e`. Allocates a one-field box.
    RefNew,
    /// `! e`.
    RefGet,
    /// `r := e`.
    RefSet,
    /// Pointer equality on refs (SML `=` on refs).
    RefEq,
    /// `array (n, init)`. Allocates a large object. Raises `Size` if n < 0.
    ArrNew,
    /// `sub (a, i)`. Raises `Subscript`.
    ArrSub,
    /// `update (a, i, v)`. Raises `Subscript`.
    ArrUpd,
    /// `length a`.
    ArrLen,
    /// Pointer equality on arrays (SML `=` on arrays).
    ArrEq,
}

impl Prim {
    /// `true` if the operation allocates a boxed value (and therefore needs
    /// a region annotation after region inference).
    pub fn allocates(self) -> bool {
        use Prim::*;
        matches!(
            self,
            RAdd | RSub
                | RMul
                | RDiv
                | RNeg
                | RAbs
                | IntToReal
                | Sqrt
                | Sin
                | Cos
                | Atan
                | Ln
                | Exp
                | StrConcat
                | ItoS
                | RtoS
                | Chr
                | RefNew
                | ArrNew
        )
    }
}

/// One function in a recursive [`LExp::Fix`] group.
#[derive(Debug, Clone, PartialEq)]
pub struct FixFun {
    /// The bound function variable.
    pub var: VarId,
    /// Parameters with their types.
    pub params: Vec<(VarId, LTy)>,
    /// Result type.
    pub ret: LTy,
    /// Function body.
    pub body: LExp,
}

/// A `LambdaExp` expression.
#[derive(Debug, Clone, PartialEq)]
pub enum LExp {
    /// Variable reference.
    Var(VarId),
    /// Integer constant (unboxed).
    Int(i64),
    /// Real constant (boxed; allocation point).
    Real(f64),
    /// String constant. Resides in the data segment — constants are never
    /// traversed, updated nor copied by the collector (paper §2.5, case 3).
    Str(String),
    /// Boolean constant (unboxed).
    Bool(bool),
    /// Unit constant (unboxed).
    Unit,
    /// Primitive application.
    Prim(Prim, Vec<LExp>),
    /// Tuple construction (allocation point). Arity >= 2.
    Record(Vec<LExp>),
    /// Tuple projection. `arity` is the tuple's width (needed by region
    /// inference to reconstruct the scrutinee type).
    Select {
        /// Field index.
        i: usize,
        /// Tuple arity.
        arity: usize,
        /// The tuple.
        tup: Box<LExp>,
    },
    /// Datatype constructor application. Nullary constructors are unboxed
    /// scalars; unary ones allocate. `targs` are the datatype's type
    /// arguments at this use.
    Con {
        tycon: TyConId,
        con: ConId,
        targs: Vec<LTy>,
        arg: Option<Box<LExp>>,
    },
    /// Extracts the argument of a constructor value (unchecked; emitted
    /// under a matching [`LExp::SwitchCon`] arm).
    DeCon {
        tycon: TyConId,
        con: ConId,
        scrut: Box<LExp>,
    },
    /// Multi-way branch on a datatype constructor.
    SwitchCon {
        /// The value examined.
        scrut: Box<LExp>,
        /// Its datatype.
        tycon: TyConId,
        /// `(constructor, arm)` pairs.
        arms: Vec<(ConId, LExp)>,
        /// Fallback when no arm matches (`None` if exhaustive).
        default: Option<Box<LExp>>,
    },
    /// Multi-way branch on an integer.
    SwitchInt {
        /// The value examined.
        scrut: Box<LExp>,
        /// `(literal, arm)` pairs.
        arms: Vec<(i64, LExp)>,
        /// Fallback.
        default: Box<LExp>,
    },
    /// Multi-way branch on a string.
    SwitchStr {
        /// The value examined.
        scrut: Box<LExp>,
        /// `(literal, arm)` pairs.
        arms: Vec<(String, LExp)>,
        /// Fallback.
        default: Box<LExp>,
    },
    /// Anonymous function (closure allocation point).
    Fn {
        /// Parameters.
        params: Vec<(VarId, LTy)>,
        /// Result type.
        ret: LTy,
        /// Body.
        body: Box<LExp>,
    },
    /// Application. The callee is evaluated first, then arguments
    /// left-to-right.
    App(Box<LExp>, Vec<LExp>),
    /// Monomorphic, non-recursive binding.
    Let {
        /// Bound variable.
        var: VarId,
        /// Its type.
        ty: LTy,
        /// Bound expression.
        rhs: Box<LExp>,
        /// Scope.
        body: Box<LExp>,
    },
    /// Mutually recursive function bindings (closure allocation points).
    Fix {
        /// The function group.
        funs: Vec<FixFun>,
        /// Scope.
        body: Box<LExp>,
    },
    /// Conditional.
    If(Box<LExp>, Box<LExp>, Box<LExp>),
    /// Exception-constructor application (allocation point if it carries an
    /// argument).
    ExCon {
        /// The exception constructor.
        exn: ExnId,
        /// Carried value.
        arg: Option<Box<LExp>>,
    },
    /// Extracts the argument of an exception value (unchecked).
    DeExn {
        /// Expected constructor.
        exn: ExnId,
        /// The exception value.
        scrut: Box<LExp>,
    },
    /// Branch on an exception constructor; `default` usually re-raises.
    SwitchExn {
        /// The exception value examined.
        scrut: Box<LExp>,
        /// `(constructor, arm)` pairs.
        arms: Vec<(ExnId, LExp)>,
        /// Fallback.
        default: Box<LExp>,
    },
    /// Raises an exception; `ty` is the type the expression would have had.
    Raise {
        /// The exception value.
        exp: Box<LExp>,
        /// Result type of the raise expression.
        ty: LTy,
    },
    /// `body handle var => handler`.
    Handle {
        /// The protected expression.
        body: Box<LExp>,
        /// Variable bound to the raised exception value in `handler`.
        var: VarId,
        /// The handler expression.
        handler: Box<LExp>,
    },
}

impl LExp {
    /// Free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<VarId> {
        let mut acc = BTreeSet::new();
        self.free_vars_into(&mut acc, &mut Vec::new());
        acc
    }

    fn free_vars_into(&self, acc: &mut BTreeSet<VarId>, bound: &mut Vec<VarId>) {
        match self {
            LExp::Var(v) => {
                if !bound.contains(v) {
                    acc.insert(*v);
                }
            }
            LExp::Int(_) | LExp::Real(_) | LExp::Str(_) | LExp::Bool(_) | LExp::Unit => {}
            LExp::Prim(_, args) => {
                for a in args {
                    a.free_vars_into(acc, bound);
                }
            }
            LExp::Record(es) => {
                for e in es {
                    e.free_vars_into(acc, bound);
                }
            }
            LExp::Select { tup: e, .. } => e.free_vars_into(acc, bound),
            LExp::Con { arg, .. } => {
                if let Some(a) = arg {
                    a.free_vars_into(acc, bound);
                }
            }
            LExp::DeCon { scrut, .. } => scrut.free_vars_into(acc, bound),
            LExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => {
                scrut.free_vars_into(acc, bound);
                for (_, a) in arms {
                    a.free_vars_into(acc, bound);
                }
                if let Some(d) = default {
                    d.free_vars_into(acc, bound);
                }
            }
            LExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                scrut.free_vars_into(acc, bound);
                for (_, a) in arms {
                    a.free_vars_into(acc, bound);
                }
                default.free_vars_into(acc, bound);
            }
            LExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                scrut.free_vars_into(acc, bound);
                for (_, a) in arms {
                    a.free_vars_into(acc, bound);
                }
                default.free_vars_into(acc, bound);
            }
            LExp::Fn { params, body, .. } => {
                let n = bound.len();
                bound.extend(params.iter().map(|(v, _)| *v));
                body.free_vars_into(acc, bound);
                bound.truncate(n);
            }
            LExp::App(f, args) => {
                f.free_vars_into(acc, bound);
                for a in args {
                    a.free_vars_into(acc, bound);
                }
            }
            LExp::Let { var, rhs, body, .. } => {
                rhs.free_vars_into(acc, bound);
                bound.push(*var);
                body.free_vars_into(acc, bound);
                bound.pop();
            }
            LExp::Fix { funs, body } => {
                let n = bound.len();
                bound.extend(funs.iter().map(|f| f.var));
                for f in funs {
                    let m = bound.len();
                    bound.extend(f.params.iter().map(|(v, _)| *v));
                    f.body.free_vars_into(acc, bound);
                    bound.truncate(m);
                }
                body.free_vars_into(acc, bound);
                bound.truncate(n);
            }
            LExp::If(c, t, f) => {
                c.free_vars_into(acc, bound);
                t.free_vars_into(acc, bound);
                f.free_vars_into(acc, bound);
            }
            LExp::ExCon { arg, .. } => {
                if let Some(a) = arg {
                    a.free_vars_into(acc, bound);
                }
            }
            LExp::DeExn { scrut, .. } => scrut.free_vars_into(acc, bound),
            LExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                scrut.free_vars_into(acc, bound);
                for (_, a) in arms {
                    a.free_vars_into(acc, bound);
                }
                default.free_vars_into(acc, bound);
            }
            LExp::Raise { exp, .. } => exp.free_vars_into(acc, bound),
            LExp::Handle { body, var, handler } => {
                body.free_vars_into(acc, bound);
                bound.push(*var);
                handler.free_vars_into(acc, bound);
                bound.pop();
            }
        }
    }

    /// Number of AST nodes; used by the inliner's size heuristic.
    pub fn size(&self) -> usize {
        let mut n = 1;
        self.for_each_child(|c| n += c.size());
        n
    }

    /// Applies `f` to each direct child expression.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a LExp)) {
        match self {
            LExp::Var(_)
            | LExp::Int(_)
            | LExp::Real(_)
            | LExp::Str(_)
            | LExp::Bool(_)
            | LExp::Unit => {}
            LExp::Prim(_, args) => args.iter().for_each(&mut f),
            LExp::Record(es) => es.iter().for_each(&mut f),
            LExp::Select { tup: e, .. } => f(e),
            LExp::Con { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            LExp::DeCon { scrut, .. } => f(scrut),
            LExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                if let Some(d) = default {
                    f(d);
                }
            }
            LExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                f(default);
            }
            LExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                f(default);
            }
            LExp::Fn { body, .. } => f(body),
            LExp::App(g, args) => {
                f(g);
                args.iter().for_each(&mut f);
            }
            LExp::Let { rhs, body, .. } => {
                f(rhs);
                f(body);
            }
            LExp::Fix { funs, body } => {
                funs.iter().for_each(|fun| f(&fun.body));
                f(body);
            }
            LExp::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            LExp::ExCon { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            LExp::DeExn { scrut, .. } => f(scrut),
            LExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                f(default);
            }
            LExp::Raise { exp, .. } => f(exp),
            LExp::Handle { body, handler, .. } => {
                f(body);
                f(handler);
            }
        }
    }
}

/// A complete `LambdaExp` program.
#[derive(Debug, Clone, PartialEq)]
pub struct LProgram {
    /// Datatype environment.
    pub data: DataEnv,
    /// Exception environment.
    pub exns: ExnEnv,
    /// Variable names.
    pub vars: VarTable,
    /// The whole program as one expression; its value is the program result.
    pub body: LExp,
    /// Type of `body`.
    pub result_ty: LTy,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt() -> VarTable {
        VarTable::new()
    }

    #[test]
    fn free_vars_respect_binding() {
        let mut vars = vt();
        let x = vars.fresh("x");
        let y = vars.fresh("y");
        // let x = y in x + x
        let e = LExp::Let {
            var: x,
            ty: LTy::Int,
            rhs: Box::new(LExp::Var(y)),
            body: Box::new(LExp::Prim(Prim::IAdd, vec![LExp::Var(x), LExp::Var(x)])),
        };
        let fv = e.free_vars();
        assert!(fv.contains(&y));
        assert!(!fv.contains(&x));
    }

    #[test]
    fn free_vars_of_fix_exclude_group() {
        let mut vars = vt();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        let g = vars.fresh("g");
        // fix f(x) = g x in f  — g free, f and x bound
        let e = LExp::Fix {
            funs: vec![FixFun {
                var: f,
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: LExp::App(Box::new(LExp::Var(g)), vec![LExp::Var(x)]),
            }],
            body: Box::new(LExp::Var(f)),
        };
        let fv = e.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![g]);
    }

    #[test]
    fn handle_binds_exception_var() {
        let mut vars = vt();
        let e_var = vars.fresh("e");
        let e = LExp::Handle {
            body: Box::new(LExp::Int(1)),
            var: e_var,
            handler: Box::new(LExp::Var(e_var)),
        };
        assert!(e.free_vars().is_empty());
    }

    #[test]
    fn size_counts_nodes() {
        let e = LExp::Prim(Prim::IAdd, vec![LExp::Int(1), LExp::Int(2)]);
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn allocating_prims() {
        assert!(Prim::RAdd.allocates());
        assert!(Prim::StrConcat.allocates());
        assert!(Prim::RefNew.allocates());
        assert!(!Prim::IAdd.allocates());
        assert!(!Prim::RefGet.allocates());
        assert!(!Prim::Print.allocates());
    }
}
