//! **RegionExp**: `LambdaExp` with explicit memory directives (paper §3).
//!
//! Every value-creating expression carries an `at ρ` *place*; `letregion`
//! delimits region lifetimes; functions carry formal region parameters and
//! known calls pass actual regions (*region polymorphism*).

use kit_lambda::exp::{Prim, VarId, VarTable};
use kit_lambda::ty::{ConId, DataEnv, ExnEnv, ExnId, TyConId};

/// A region variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegVar(pub u32);

/// An allocation place (a region variable).
pub type Place = RegVar;

/// Multiplicity of a region (representation inference, paper §3 and its
/// reference \[3\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mult {
    /// At most one value of statically known size: allocated in the
    /// activation record (a *finite region*).
    Finite,
    /// Unbounded: a linked list of region pages (an *infinite region*).
    Infinite,
}

/// One function of a region-polymorphic `fix` group.
#[derive(Debug, Clone, PartialEq)]
pub struct RFixFun {
    /// Function variable.
    pub var: VarId,
    /// Formal region parameters (regions the body allocates into that are
    /// bound at call sites).
    pub formals: Vec<RegVar>,
    /// Value parameters.
    pub params: Vec<VarId>,
    /// Body.
    pub body: RExp,
}

/// A region-annotated expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExp {
    /// Variable use.
    Var(VarId),
    /// Escaping use of a `fix`-bound function: allocates a closure pair
    /// `at` the place, closing over the given actual regions.
    FixVar {
        /// The function.
        var: VarId,
        /// Actual regions for the function's formals.
        rargs: Vec<Place>,
        /// Where the escaping closure is allocated.
        at: Place,
    },
    /// Integer constant (unboxed).
    Int(i64),
    /// Boolean constant (unboxed).
    Bool(bool),
    /// Unit (unboxed).
    Unit,
    /// String constant (data segment; no region).
    Str(String),
    /// Real constant, boxed `at` the place.
    Real(f64, Place),
    /// Primitive; allocating primitives carry a place.
    Prim(Prim, Vec<RExp>, Option<Place>),
    /// Tuple `at` the place.
    Record(Vec<RExp>, Place),
    /// Projection.
    Select(usize, Box<RExp>),
    /// Constructor application; nullary constructors are unboxed and have
    /// no place.
    Con {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Argument.
        arg: Option<Box<RExp>>,
        /// Allocation place for carrying constructors.
        at: Option<Place>,
    },
    /// Constructor-argument extraction.
    DeCon {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Scrutinee.
        scrut: Box<RExp>,
    },
    /// Branch on constructors.
    SwitchCon {
        /// Scrutinee.
        scrut: Box<RExp>,
        /// Datatype.
        tycon: TyConId,
        /// Arms.
        arms: Vec<(ConId, RExp)>,
        /// Default.
        default: Option<Box<RExp>>,
    },
    /// Branch on integers.
    SwitchInt {
        /// Scrutinee.
        scrut: Box<RExp>,
        /// Arms.
        arms: Vec<(i64, RExp)>,
        /// Default.
        default: Box<RExp>,
    },
    /// Branch on strings.
    SwitchStr {
        /// Scrutinee.
        scrut: Box<RExp>,
        /// Arms.
        arms: Vec<(String, RExp)>,
        /// Default.
        default: Box<RExp>,
    },
    /// Branch on exception constructors.
    SwitchExn {
        /// Scrutinee.
        scrut: Box<RExp>,
        /// Arms.
        arms: Vec<(ExnId, RExp)>,
        /// Default.
        default: Box<RExp>,
    },
    /// Conditional.
    If(Box<RExp>, Box<RExp>, Box<RExp>),
    /// Lambda; the closure is allocated `at` the place.
    Fn {
        /// Parameters.
        params: Vec<VarId>,
        /// Body.
        body: Box<RExp>,
        /// Closure allocation place.
        at: Place,
    },
    /// Application. `rargs` are the actual regions for a known call to a
    /// region-polymorphic function (empty otherwise).
    App {
        /// Callee.
        callee: Box<RExp>,
        /// Actual region arguments.
        rargs: Vec<Place>,
        /// Value arguments.
        args: Vec<RExp>,
    },
    /// Non-recursive binding.
    Let {
        /// Bound variable.
        var: VarId,
        /// Bound expression.
        rhs: Box<RExp>,
        /// Scope.
        body: Box<RExp>,
    },
    /// Recursive functions; the shared closure is allocated `at` the place.
    Fix {
        /// The group.
        funs: Vec<RFixFun>,
        /// Scope.
        body: Box<RExp>,
        /// Shared-closure allocation place.
        at: Place,
    },
    /// `letregion ρ1..ρn in body end` (paper §1.1). Regions are
    /// deallocated, newest first, when `body` completes.
    Letregion {
        /// Bound regions with their multiplicities.
        regs: Vec<(RegVar, Mult)>,
        /// Scope.
        body: Box<RExp>,
    },
    /// Internal: a `letregion` candidate point inserted by [`crate::annotate`]
    /// and resolved by [`crate::letregion`]; never reaches code generation.
    Marker {
        /// Index into the annotation pass's escape-set table.
        id: u32,
        /// Scope.
        body: Box<RExp>,
    },
    /// Exception construction; carrying exceptions allocate `at` a place.
    ExCon {
        /// The exception.
        exn: ExnId,
        /// Argument.
        arg: Option<Box<RExp>>,
        /// Allocation place.
        at: Option<Place>,
    },
    /// Exception-argument extraction.
    DeExn {
        /// The exception.
        exn: ExnId,
        /// Scrutinee.
        scrut: Box<RExp>,
    },
    /// Raise.
    Raise(Box<RExp>),
    /// Handle.
    Handle {
        /// Protected body.
        body: Box<RExp>,
        /// Variable bound to the exception.
        var: VarId,
        /// Handler.
        handler: Box<RExp>,
    },
}

impl RExp {
    /// Applies `f` to each direct child.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a RExp)) {
        match self {
            RExp::Var(_)
            | RExp::FixVar { .. }
            | RExp::Int(_)
            | RExp::Bool(_)
            | RExp::Unit
            | RExp::Str(_)
            | RExp::Real(_, _) => {}
            RExp::Prim(_, args, _) => args.iter().for_each(f),
            RExp::Record(es, _) => es.iter().for_each(f),
            RExp::Select(_, e) | RExp::DeCon { scrut: e, .. } | RExp::DeExn { scrut: e, .. } => {
                f(e)
            }
            RExp::Con { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            RExp::SwitchCon {
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
            RExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                f(default);
            }
            RExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                f(default);
            }
            RExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter().for_each(|(_, a)| f(a));
                f(default);
            }
            RExp::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            RExp::Fn { body, .. } => f(body),
            RExp::App { callee, args, .. } => {
                f(callee);
                args.iter().for_each(f);
            }
            RExp::Let { rhs, body, .. } => {
                f(rhs);
                f(body);
            }
            RExp::Fix { funs, body, .. } => {
                funs.iter().for_each(|fun| f(&fun.body));
                f(body);
            }
            RExp::Letregion { body, .. } | RExp::Marker { body, .. } => f(body),
            RExp::ExCon { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            RExp::Raise(e) => f(e),
            RExp::Handle { body, handler, .. } => {
                f(body);
                f(handler);
            }
        }
    }

    /// Mutable version of [`RExp::for_each_child`].
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut RExp)) {
        match self {
            RExp::Var(_)
            | RExp::FixVar { .. }
            | RExp::Int(_)
            | RExp::Bool(_)
            | RExp::Unit
            | RExp::Str(_)
            | RExp::Real(_, _) => {}
            RExp::Prim(_, args, _) => args.iter_mut().for_each(f),
            RExp::Record(es, _) => es.iter_mut().for_each(f),
            RExp::Select(_, e) | RExp::DeCon { scrut: e, .. } | RExp::DeExn { scrut: e, .. } => {
                f(e)
            }
            RExp::Con { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            RExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => {
                f(scrut);
                arms.iter_mut().for_each(|(_, a)| f(a));
                if let Some(d) = default {
                    f(d);
                }
            }
            RExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter_mut().for_each(|(_, a)| f(a));
                f(default);
            }
            RExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter_mut().for_each(|(_, a)| f(a));
                f(default);
            }
            RExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                arms.iter_mut().for_each(|(_, a)| f(a));
                f(default);
            }
            RExp::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            RExp::Fn { body, .. } => f(body),
            RExp::App { callee, args, .. } => {
                f(callee);
                args.iter_mut().for_each(f);
            }
            RExp::Let { rhs, body, .. } => {
                f(rhs);
                f(body);
            }
            RExp::Fix { funs, body, .. } => {
                funs.iter_mut().for_each(|fun| f(&mut fun.body));
                f(body);
            }
            RExp::Letregion { body, .. } | RExp::Marker { body, .. } => f(body),
            RExp::ExCon { arg, .. } => {
                if let Some(a) = arg {
                    f(a);
                }
            }
            RExp::Raise(e) => f(e),
            RExp::Handle { body, handler, .. } => {
                f(body);
                f(handler);
            }
        }
    }

    /// All places mentioned by this node (not descending into children).
    pub fn own_places(&self) -> Vec<RegVar> {
        match self {
            RExp::Real(_, p) | RExp::Record(_, p) | RExp::Fn { at: p, .. } => vec![*p],
            RExp::Fix { at: p, .. } => vec![*p],
            RExp::Prim(_, _, Some(p)) => vec![*p],
            RExp::Con { at: Some(p), .. } | RExp::ExCon { at: Some(p), .. } => vec![*p],
            RExp::FixVar { rargs, at, .. } => {
                let mut v = rargs.clone();
                v.push(*at);
                v
            }
            RExp::App { rargs, .. } => rargs.clone(),
            _ => Vec::new(),
        }
    }

    /// Replaces every region this node names — its places and, for a
    /// `fix`, its functions' formals — by `f` of it (not descending into
    /// children).
    pub fn map_own_regions(&mut self, mut f: impl FnMut(RegVar) -> RegVar) {
        match self {
            RExp::Real(_, p) | RExp::Record(_, p) | RExp::Fn { at: p, .. } => *p = f(*p),
            RExp::Fix { at, funs, .. } => {
                *at = f(*at);
                for fun in funs.iter_mut() {
                    for r in &mut fun.formals {
                        *r = f(*r);
                    }
                }
            }
            RExp::Prim(_, _, Some(p)) => *p = f(*p),
            RExp::Con { at: Some(p), .. } | RExp::ExCon { at: Some(p), .. } => *p = f(*p),
            RExp::FixVar { rargs, at, .. } => {
                for r in rargs.iter_mut() {
                    *r = f(*r);
                }
                *at = f(*at);
            }
            RExp::App { rargs, .. } => {
                for r in rargs.iter_mut() {
                    *r = f(*r);
                }
            }
            _ => {}
        }
    }
}

/// A complete RegionExp program.
#[derive(Debug, Clone)]
pub struct RProgram {
    /// Datatype environment (shared with the front-end).
    pub data: DataEnv,
    /// Exception environment.
    pub exns: ExnEnv,
    /// Variable names.
    pub vars: VarTable,
    /// The program body.
    pub body: RExp,
    /// Top-level ("global") regions, pushed at program start and popped at
    /// exit — the paper's `r1`, `r2`, ...
    pub globals: Vec<(RegVar, Mult)>,
    /// Total number of region variables.
    pub num_regvars: u32,
}
