//! Lowering from the typed AST to `LambdaExp`.
//!
//! This is where all remaining static decisions are made:
//!
//! * overloaded operators are resolved against their (now final) types;
//! * polymorphic equality is expanded to type-specific code — primitive
//!   comparisons for base types, inline field comparisons for tuples, and
//!   generated recursive functions for datatypes (after Elsman's tag-free
//!   polymorphic equality);
//! * patterns are compiled to decision trees ([`crate::matchc`]);
//! * builtins are either applied directly (becoming primitives) or
//!   eta-expanded into closures;
//! * `while` loops become tail-recursive `Fix` functions.

use crate::matchc::{self, MatchCtx, UNKNOWN_TY};
use crate::texp::{OvOp, TDec, TExp, TFun, TPat};
use crate::types::{InferCtx, TyId, TypeError};
use kit_lambda::exp::{FixFun, LExp, Prim, VarId, VarTable};
use kit_lambda::opt::prune::{reach, Binding, Decl, Live};
use kit_lambda::ty::{ConId, DataEnv, ExnEnv, LTy, TyConId, EXN_BIND, EXN_MATCH};
use kit_lambda::LProgram;
use kit_syntax::Span;
use std::collections::HashMap;

/// The prelude, lowered once: its top-level bindings, each with what it
/// takes to decide whether a program reaches it, and the equality
/// functions lowering generated for them.
///
/// Prelude types are final when the prelude is (its functions are
/// generalized and its overloads defaulted), and its lowering variables
/// are drawn before any program's, so this is the same for every program.
pub struct LoweredPrelude {
    /// Outermost first.
    bindings: Vec<TopBinding>,
    eq_memo: HashMap<LTy, VarId>,
    eq_defs: Vec<FixFun>,
}

/// One top-level `Let` or `Fix` of the lowered prelude.
struct TopBinding {
    binding: Binding,
    /// The variables its right-hand side or function bodies mention.
    mentions: Vec<VarId>,
    /// [`Decl::droppable`], decided once.
    droppable: bool,
}

impl TopBinding {
    fn new(binding: Binding) -> Self {
        let mut mentions = Vec::new();
        binding.for_each_part(|e| each_var(e, |v| mentions.push(v)));
        mentions.sort_unstable();
        mentions.dedup();
        TopBinding {
            droppable: binding.droppable(),
            binding,
            mentions,
        }
    }
}

impl Decl for &TopBinding {
    fn binds_live(&self, live: impl Fn(VarId) -> bool) -> bool {
        self.binding.binds_live(live)
    }

    fn droppable(&self) -> bool {
        self.droppable
    }
}

/// One flag per variable: whether a program reaches it.
struct Marks(Vec<bool>);

impl Live<&TopBinding> for Marks {
    fn is_live(&self, v: VarId) -> bool {
        self.0[v.0 as usize]
    }

    fn keep(&mut self, b: &&TopBinding) {
        b.mentions.iter().for_each(|v| self.0[v.0 as usize] = true);
    }
}

/// Calls `f` on every variable occurrence in `e`. A work list, not
/// recursion: `e` may be a program's spine, as deep as its declarations
/// are many, and is not yet checked against `kit::MAX_NESTING`.
fn each_var(e: &LExp, mut f: impl FnMut(VarId)) {
    let mut work = vec![e];
    while let Some(e) = work.pop() {
        match e {
            LExp::Var(v) => f(*v),
            _ => e.for_each_child(|c| work.push(c)),
        }
    }
}

impl LoweredPrelude {
    /// `user` inside copies of the prelude bindings it mentions, directly
    /// or through a copied binding: [`reach`] over the prelude, starting
    /// from everything `user` mentions. `nvars` bounds every variable.
    fn plug(&self, user: LExp, nvars: usize) -> LExp {
        let mut live = Marks(vec![false; nvars]);
        each_var(&user, |v| live.0[v.0 as usize] = true);
        let reached = reach(self.bindings.iter(), &mut live);
        debug_assert_eq!(
            self.bindings
                .iter()
                .filter(|b| b.binding.binds_live(|v| live.is_live(v)) || !b.droppable)
                .count(),
            reached.len(),
            "a prelude binding the program reaches was left out"
        );
        reached
            .into_iter()
            .fold(user, |body, b| b.binding.clone().wrap(body))
    }
}

/// What stands in the prelude's spine for the program's own code.
const HOLE: LExp = LExp::Unit;

/// Lowers the prelude's declarations, drawing fresh variables from `vars`.
///
/// # Errors
///
/// Fails as [`lower_program`] does.
pub fn lower_prelude(
    cx: &InferCtx,
    data: &DataEnv,
    exns: &ExnEnv,
    vars: &mut VarTable,
    decs: &[TDec],
) -> Result<LoweredPrelude, TypeError> {
    let mut lw = Lower::new(cx, data, exns, vars, None);
    let (spine, end) = Binding::unspine(lw.lower_decs(decs, HOLE)?);
    assert!(end == HOLE, "the prelude lowers to a Let/Fix spine");
    Ok(LoweredPrelude {
        bindings: spine.into_iter().map(TopBinding::new).collect(),
        eq_memo: lw.eq_memo,
        eq_defs: lw.eq_defs,
    })
}

/// Lowers a program's declarations `decs` to `LambdaExp`, inside copies of
/// the prelude bindings they mention (directly or through a copied one).
/// The program's value is the variable `result` (of its type), or `()` if
/// there is none.
///
/// # Errors
///
/// Fails on equality at a type that is not ground (functions, arrays of
/// functions, or residual type variables).
pub fn lower_program(
    prelude: &LoweredPrelude,
    cx: InferCtx,
    data: DataEnv,
    exns: ExnEnv,
    mut vars: VarTable,
    decs: &[TDec],
    result: Option<(VarId, TyId)>,
) -> Result<LProgram, TypeError> {
    let (core, result_ty) = match result {
        Some((v, t)) => (LExp::Var(v), cx.to_lty(t)),
        None => (LExp::Unit, LTy::Unit),
    };
    let mut lw = Lower::new(&cx, &data, &exns, &mut vars, Some(&prelude.eq_memo));
    let user = lw.lower_decs(decs, core)?;
    let eq_defs: Vec<FixFun> = prelude.eq_defs.iter().cloned().chain(lw.eq_defs).collect();
    let mut body = prelude.plug(user, vars.len());
    if !eq_defs.is_empty() {
        body = LExp::Fix {
            funs: eq_defs,
            body: Box::new(body),
        };
    }
    Ok(LProgram {
        data,
        exns,
        vars,
        body,
        result_ty,
    })
}

struct Lower<'a> {
    cx: &'a InferCtx,
    data: &'a DataEnv,
    exns: &'a ExnEnv,
    vars: &'a mut VarTable,
    /// The prelude's equality functions, looked up in place.
    prelude_memo: Option<&'a HashMap<LTy, VarId>>,
    eq_memo: HashMap<LTy, VarId>,
    eq_defs: Vec<FixFun>,
}

impl<'a> Lower<'a> {
    fn new(
        cx: &'a InferCtx,
        data: &'a DataEnv,
        exns: &'a ExnEnv,
        vars: &'a mut VarTable,
        prelude_memo: Option<&'a HashMap<LTy, VarId>>,
    ) -> Self {
        Lower {
            cx,
            data,
            exns,
            vars,
            prelude_memo,
            eq_memo: HashMap::new(),
            eq_defs: Vec::new(),
        }
    }

    fn lty(&self, t: TyId) -> LTy {
        self.cx.to_lty(t)
    }

    fn raise_exn(&self, exn: kit_lambda::ty::ExnId) -> LExp {
        LExp::Raise {
            exp: Box::new(LExp::ExCon { exn, arg: None }),
            ty: UNKNOWN_TY,
        }
    }

    /// [`matchc::compile`] with this lowering's variables and datatypes.
    fn match_tree(&mut self, occs: &[VarId], rows: Vec<(Vec<TPat>, LExp)>, default: &LExp) -> LExp {
        let mut mc = MatchCtx {
            vars: self.vars,
            data: self.data,
        };
        matchc::compile(&mut mc, occs, rows, default)
    }

    fn lower_decs(&mut self, decs: &[TDec], inner: LExp) -> Result<LExp, TypeError> {
        let mut out = inner;
        for dec in decs.iter().rev() {
            out = match dec {
                TDec::Val { pat, rhs, span: _ } => {
                    let rhs = self.lower_exp(rhs)?;
                    match pat {
                        TPat::Var(v, t) => LExp::Let {
                            var: *v,
                            ty: self.lty(*t),
                            rhs: Box::new(rhs),
                            body: Box::new(out),
                        },
                        TPat::Wild => LExp::Let {
                            var: self.vars.fresh("_"),
                            ty: UNKNOWN_TY,
                            rhs: Box::new(rhs),
                            body: Box::new(out),
                        },
                        _ => {
                            let sv = self.vars.fresh("bind");
                            let default = self.raise_exn(EXN_BIND);
                            let tree =
                                self.match_tree(&[sv], vec![(vec![pat.clone()], out)], &default);
                            LExp::Let {
                                var: sv,
                                ty: UNKNOWN_TY,
                                rhs: Box::new(rhs),
                                body: Box::new(tree),
                            }
                        }
                    }
                }
                TDec::Fun(tfuns) => {
                    let mut funs = Vec::new();
                    for f in tfuns {
                        funs.push(self.lower_fun(f)?);
                    }
                    LExp::Fix {
                        funs,
                        body: Box::new(out),
                    }
                }
            };
        }
        Ok(out)
    }

    fn lower_fun(&mut self, f: &TFun) -> Result<FixFun, TypeError> {
        let param_vars: Vec<VarId> = f.params.iter().map(|(v, _)| *v).collect();
        let mut rows = Vec::new();
        for (pats, body) in &f.clauses {
            rows.push((pats.clone(), self.lower_exp(body)?));
        }
        let default = self.raise_exn(EXN_MATCH);
        let tree = self.match_tree(&param_vars, rows, &default);

        // Curried lowering: the Fix function takes the first parameter and
        // returns directly nested lambdas for the rest — the shape
        // `kit_lambda::opt::uncurry` folds back into one function of all
        // the parameters.
        let ptys: Vec<LTy> = f.params.iter().map(|(_, t)| self.lty(*t)).collect();
        let ret_lty = self.lty(f.ret);
        let mut body = tree;
        let mut rty = ret_lty;
        for i in (1..f.params.len()).rev() {
            body = LExp::Fn {
                params: vec![(param_vars[i], ptys[i].clone())],
                ret: rty.clone(),
                body: Box::new(body),
            };
            rty = LTy::arrow(ptys[i].clone(), rty);
        }
        Ok(FixFun {
            var: f.var,
            params: vec![(param_vars[0], ptys[0].clone())],
            ret: rty,
            body,
        })
    }

    fn lower_exp(&mut self, e: &TExp) -> Result<LExp, TypeError> {
        crate::count_work(|| 1);
        match e {
            TExp::Int(n) => Ok(LExp::Int(*n)),
            TExp::Real(r) => Ok(LExp::Real(*r)),
            TExp::Str(s) => Ok(LExp::Str(s.clone())),
            TExp::Bool(b) => Ok(LExp::Bool(*b)),
            TExp::Unit => Ok(LExp::Unit),
            TExp::Var(v, _) => Ok(LExp::Var(*v)),
            TExp::Builtin(b, ty) => Ok(self.eta_builtin(*b, *ty)),
            TExp::Con {
                tycon,
                con,
                targs,
                arg,
            } => {
                let targs: Vec<LTy> = targs.iter().map(|t| self.lty(*t)).collect();
                let arg = match arg {
                    Some(a) => Some(Box::new(self.lower_exp(a)?)),
                    None => None,
                };
                Ok(LExp::Con {
                    tycon: *tycon,
                    con: *con,
                    targs,
                    arg,
                })
            }
            TExp::ConVal { tycon, con, targs } => {
                let targs_l: Vec<LTy> = targs.iter().map(|t| self.lty(*t)).collect();
                let arg_ty = self
                    .data
                    .con_arg_ty(*tycon, *con, &targs_l)
                    .expect("ConVal of nullary constructor");
                let p = self.vars.fresh("conv");
                Ok(LExp::Fn {
                    params: vec![(p, arg_ty)],
                    ret: LTy::Con(*tycon, targs_l.clone()),
                    body: Box::new(LExp::Con {
                        tycon: *tycon,
                        con: *con,
                        targs: targs_l,
                        arg: Some(Box::new(LExp::Var(p))),
                    }),
                })
            }
            TExp::ExCon { exn, arg } => {
                let arg = match arg {
                    Some(a) => Some(Box::new(self.lower_exp(a)?)),
                    None => None,
                };
                Ok(LExp::ExCon { exn: *exn, arg })
            }
            TExp::ExnVal(exn) => {
                let arg_ty = self
                    .exns
                    .get(*exn)
                    .arg
                    .clone()
                    .expect("ExnVal of nullary exception");
                let p = self.vars.fresh("exnv");
                Ok(LExp::Fn {
                    params: vec![(p, arg_ty)],
                    ret: LTy::Exn,
                    body: Box::new(LExp::ExCon {
                        exn: *exn,
                        arg: Some(Box::new(LExp::Var(p))),
                    }),
                })
            }
            TExp::Tuple(es) => {
                let es = es
                    .iter()
                    .map(|e| self.lower_exp(e))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(LExp::Record(es))
            }
            TExp::App(f, a) => self.lower_app(f, a),
            TExp::Fn {
                param,
                pty,
                rty,
                body,
            } => Ok(LExp::Fn {
                params: vec![(*param, self.lty(*pty))],
                ret: self.lty(*rty),
                body: Box::new(self.lower_exp(body)?),
            }),
            TExp::Let { decs, body } => {
                let inner = self.lower_exp(body)?;
                self.lower_decs(decs, inner)
            }
            TExp::Seq(es) => {
                let mut out = None;
                for e in es.iter().rev() {
                    let le = self.lower_exp(e)?;
                    out = Some(match out {
                        None => le,
                        Some(rest) => LExp::Let {
                            var: self.vars.fresh("_"),
                            ty: UNKNOWN_TY,
                            rhs: Box::new(le),
                            body: Box::new(rest),
                        },
                    });
                }
                Ok(out.unwrap_or(LExp::Unit))
            }
            TExp::If(c, t, f) => Ok(LExp::If(
                Box::new(self.lower_exp(c)?),
                Box::new(self.lower_exp(t)?),
                Box::new(self.lower_exp(f)?),
            )),
            TExp::While(c, b) => {
                let loopv = self.vars.fresh("while");
                let c = self.lower_exp(c)?;
                let b = self.lower_exp(b)?;
                let again = LExp::Let {
                    var: self.vars.fresh("_"),
                    ty: UNKNOWN_TY,
                    rhs: Box::new(b),
                    body: Box::new(LExp::App(Box::new(LExp::Var(loopv)), vec![])),
                };
                let fun = FixFun {
                    var: loopv,
                    params: vec![],
                    ret: LTy::Unit,
                    body: LExp::If(Box::new(c), Box::new(again), Box::new(LExp::Unit)),
                };
                Ok(LExp::Fix {
                    funs: vec![fun],
                    body: Box::new(LExp::App(Box::new(LExp::Var(loopv)), vec![])),
                })
            }
            TExp::Case { scrut, rules, .. } => {
                let scrut = self.lower_exp(scrut)?;
                let rows = rules
                    .iter()
                    .map(|r| Ok((vec![r.pat.clone()], self.lower_exp(&r.exp)?)))
                    .collect::<Result<Vec<_>, TypeError>>()?;
                let sv = self.vars.fresh("scrut");
                let default = self.raise_exn(EXN_MATCH);
                let tree = self.match_tree(&[sv], rows, &default);
                Ok(LExp::Let {
                    var: sv,
                    ty: UNKNOWN_TY,
                    rhs: Box::new(scrut),
                    body: Box::new(tree),
                })
            }
            TExp::Raise(e, ty) => Ok(LExp::Raise {
                exp: Box::new(self.lower_exp(e)?),
                ty: self.lty(*ty),
            }),
            TExp::Handle { body, rules, .. } => {
                let body = self.lower_exp(body)?;
                let ev = self.vars.fresh("exn");
                let rows = rules
                    .iter()
                    .map(|r| Ok((vec![r.pat.clone()], self.lower_exp(&r.exp)?)))
                    .collect::<Result<Vec<_>, TypeError>>()?;
                // Unhandled exceptions re-raise.
                let default = LExp::Raise {
                    exp: Box::new(LExp::Var(ev)),
                    ty: UNKNOWN_TY,
                };
                let tree = self.match_tree(&[ev], rows, &default);
                Ok(LExp::Handle {
                    body: Box::new(body),
                    var: ev,
                    handler: Box::new(tree),
                })
            }
            TExp::Overload { op, args, ty, span } => self.lower_overload(*op, args, *ty, *span),
            TExp::Eq {
                lhs,
                rhs,
                ty,
                negate,
                span,
            } => {
                let l = self.lower_exp(lhs)?;
                let r = self.lower_exp(rhs)?;
                let lty = self.lty(*ty);
                let eq = self.eq_exp(&lty, l, r, *span)?;
                Ok(if *negate {
                    LExp::If(
                        Box::new(eq),
                        Box::new(LExp::Bool(false)),
                        Box::new(LExp::Bool(true)),
                    )
                } else {
                    eq
                })
            }
            TExp::Prim { prim, args } => {
                let args = args
                    .iter()
                    .map(|a| self.lower_exp(a))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(LExp::Prim(*prim, args))
            }
        }
    }

    /// Application, with builtins and constructors applied directly.
    fn lower_app(&mut self, f: &TExp, a: &TExp) -> Result<LExp, TypeError> {
        match f {
            TExp::Builtin(b, _) => {
                let (prim, arity) = b.prim();
                if arity == 1 {
                    let a = self.lower_exp(a)?;
                    return Ok(LExp::Prim(prim, vec![a]));
                }
                if let TExp::Tuple(es) = a {
                    if es.len() == arity {
                        let args = es
                            .iter()
                            .map(|e| self.lower_exp(e))
                            .collect::<Result<Vec<_>, _>>()?;
                        return Ok(LExp::Prim(prim, args));
                    }
                }
                // The tuple argument is not syntactic: bind and project.
                let a = self.lower_exp(a)?;
                let t = self.vars.fresh("args");
                let args = (0..arity)
                    .map(|i| LExp::Select {
                        i,
                        arity,
                        tup: Box::new(LExp::Var(t)),
                    })
                    .collect();
                return Ok(LExp::Let {
                    var: t,
                    ty: UNKNOWN_TY,
                    rhs: Box::new(a),
                    body: Box::new(LExp::Prim(prim, args)),
                });
            }
            TExp::ConVal { tycon, con, targs } => {
                let targs: Vec<LTy> = targs.iter().map(|t| self.lty(*t)).collect();
                let a = self.lower_exp(a)?;
                return Ok(LExp::Con {
                    tycon: *tycon,
                    con: *con,
                    targs,
                    arg: Some(Box::new(a)),
                });
            }
            TExp::ExnVal(exn) => {
                let a = self.lower_exp(a)?;
                return Ok(LExp::ExCon {
                    exn: *exn,
                    arg: Some(Box::new(a)),
                });
            }
            _ => {}
        }
        let f = self.lower_exp(f)?;
        let a = self.lower_exp(a)?;
        Ok(LExp::App(Box::new(f), vec![a]))
    }

    /// Eta-expands a builtin referenced as a value.
    fn eta_builtin(&mut self, b: crate::builtins::Builtin, ty: TyId) -> LExp {
        let (prim, arity) = b.prim();
        let lty = self.lty(ty);
        let (pty, rty) = match &lty {
            LTy::Arrow(p, r) => ((**p).clone(), (**r).clone()),
            _ => (UNKNOWN_TY, UNKNOWN_TY),
        };
        let p = self.vars.fresh("bi");
        let body = if arity == 1 {
            LExp::Prim(prim, vec![LExp::Var(p)])
        } else {
            let args = (0..arity)
                .map(|i| LExp::Select {
                    i,
                    arity,
                    tup: Box::new(LExp::Var(p)),
                })
                .collect();
            LExp::Prim(prim, args)
        };
        LExp::Fn {
            params: vec![(p, pty)],
            ret: rty,
            body: Box::new(body),
        }
    }

    fn lower_overload(
        &mut self,
        op: OvOp,
        args: &[TExp],
        ty: TyId,
        span: Span,
    ) -> Result<LExp, TypeError> {
        let largs = args
            .iter()
            .map(|a| self.lower_exp(a))
            .collect::<Result<Vec<_>, _>>()?;
        let lty = self.lty(ty);
        use OvOp::*;
        let prim = match (&lty, op) {
            (LTy::Int, Add) => Prim::IAdd,
            (LTy::Int, Sub) => Prim::ISub,
            (LTy::Int, Mul) => Prim::IMul,
            (LTy::Int, Neg) => Prim::INeg,
            (LTy::Int, Abs) => Prim::IAbs,
            (LTy::Int, Lt) => Prim::ILt,
            (LTy::Int, Le) => Prim::ILe,
            (LTy::Int, Gt) => Prim::IGt,
            (LTy::Int, Ge) => Prim::IGe,
            (LTy::Real, Add) => Prim::RAdd,
            (LTy::Real, Sub) => Prim::RSub,
            (LTy::Real, Mul) => Prim::RMul,
            (LTy::Real, Neg) => Prim::RNeg,
            (LTy::Real, Abs) => Prim::RAbs,
            (LTy::Real, Lt) => Prim::RLt,
            (LTy::Real, Le) => Prim::RLe,
            (LTy::Real, Gt) => Prim::RGt,
            (LTy::Real, Ge) => Prim::RGe,
            (LTy::Str, cmp @ (Lt | Le | Gt | Ge)) => {
                return self.lower_str_cmp(cmp, largs);
            }
            (other, _) => {
                return Err(TypeError::new(
                    format!("overloaded operator used at non-overloadable type {other}"),
                    span,
                ));
            }
        };
        Ok(LExp::Prim(prim, largs))
    }

    /// String comparisons via `StrLt`, preserving evaluation order.
    fn lower_str_cmp(&mut self, op: OvOp, mut args: Vec<LExp>) -> Result<LExp, TypeError> {
        let b = args.pop().expect("binary comparison");
        let a = args.pop().expect("binary comparison");
        let va = self.vars.fresh("sa");
        let vb = self.vars.fresh("sb");
        let not = |e: LExp| {
            LExp::If(
                Box::new(e),
                Box::new(LExp::Bool(false)),
                Box::new(LExp::Bool(true)),
            )
        };
        let body = match op {
            OvOp::Lt => LExp::Prim(Prim::StrLt, vec![LExp::Var(va), LExp::Var(vb)]),
            OvOp::Gt => LExp::Prim(Prim::StrLt, vec![LExp::Var(vb), LExp::Var(va)]),
            OvOp::Le => not(LExp::Prim(Prim::StrLt, vec![LExp::Var(vb), LExp::Var(va)])),
            OvOp::Ge => not(LExp::Prim(Prim::StrLt, vec![LExp::Var(va), LExp::Var(vb)])),
            _ => unreachable!("non-comparison string overload"),
        };
        Ok(LExp::Let {
            var: va,
            ty: LTy::Str,
            rhs: Box::new(a),
            body: Box::new(LExp::Let {
                var: vb,
                ty: LTy::Str,
                rhs: Box::new(b),
                body: Box::new(body),
            }),
        })
    }

    // ------------------------------------------------------------- equality

    /// An expression computing structural equality of `l` and `r` at `ty`.
    fn eq_exp(&mut self, ty: &LTy, l: LExp, r: LExp, span: Span) -> Result<LExp, TypeError> {
        match ty {
            LTy::Int | LTy::Bool | LTy::Unit => Ok(LExp::Prim(Prim::IEq, vec![l, r])),
            LTy::Real => Ok(LExp::Prim(Prim::REq, vec![l, r])),
            LTy::Str => Ok(LExp::Prim(Prim::StrEq, vec![l, r])),
            LTy::Ref(_) => Ok(LExp::Prim(Prim::RefEq, vec![l, r])),
            LTy::Array(_) => Ok(LExp::Prim(Prim::ArrEq, vec![l, r])),
            LTy::Tuple(ts) => {
                let va = self.vars.fresh("ea");
                let vb = self.vars.fresh("eb");
                let mut cmp = LExp::Bool(true);
                let arity = ts.len();
                for (i, t) in ts.iter().enumerate().rev() {
                    let field_eq = self.eq_exp(
                        t,
                        LExp::Select {
                            i,
                            arity,
                            tup: Box::new(LExp::Var(va)),
                        },
                        LExp::Select {
                            i,
                            arity,
                            tup: Box::new(LExp::Var(vb)),
                        },
                        span,
                    )?;
                    cmp = if matches!(cmp, LExp::Bool(true)) {
                        field_eq
                    } else {
                        LExp::If(
                            Box::new(field_eq),
                            Box::new(cmp),
                            Box::new(LExp::Bool(false)),
                        )
                    };
                }
                Ok(LExp::Let {
                    var: va,
                    ty: ty.clone(),
                    rhs: Box::new(l),
                    body: Box::new(LExp::Let {
                        var: vb,
                        ty: ty.clone(),
                        rhs: Box::new(r),
                        body: Box::new(cmp),
                    }),
                })
            }
            LTy::Con(tycon, targs) => {
                let f = self.eq_fun(*tycon, targs, span)?;
                Ok(LExp::App(Box::new(LExp::Var(f)), vec![l, r]))
            }
            LTy::Exn => Err(TypeError::new(
                "equality is not defined on exceptions",
                span,
            )),
            LTy::Arrow(_, _) => Err(TypeError::new("equality is not defined on functions", span)),
            LTy::TyVar(_) => Err(TypeError::new(
                "polymorphic equality at a non-ground type is not supported; \
                 pass an explicit comparison function",
                span,
            )),
        }
    }

    /// The (memoized, possibly recursive) equality function for a datatype
    /// instance.
    fn eq_fun(&mut self, tycon: TyConId, targs: &[LTy], span: Span) -> Result<VarId, TypeError> {
        let key = LTy::Con(tycon, targs.to_vec());
        let known = self.prelude_memo.and_then(|m| m.get(&key));
        if let Some(v) = known.or_else(|| self.eq_memo.get(&key)) {
            return Ok(*v);
        }
        let name = format!("eq_{}", self.data.get(tycon).name);
        let fv = self.vars.fresh(&name);
        // Insert before generating the body so recursive datatypes tie the
        // knot through the memo table.
        self.eq_memo.insert(key.clone(), fv);

        let x = self.vars.fresh("x");
        let y = self.vars.fresh("y");
        let ctors = self.data.get(tycon).constructors.clone();
        let single = ctors.len() == 1;
        let mut arms = Vec::new();
        for (i, c) in ctors.iter().enumerate() {
            let cid = ConId(i as u32);
            let inner = match &c.arg {
                None => LExp::SwitchCon {
                    scrut: Box::new(LExp::Var(y)),
                    tycon,
                    arms: vec![(cid, LExp::Bool(true))],
                    default: if single {
                        None
                    } else {
                        Some(Box::new(LExp::Bool(false)))
                    },
                },
                Some(s) => {
                    let arg_ty = s.instantiate(targs);
                    let cmp = self.eq_exp(
                        &arg_ty,
                        LExp::DeCon {
                            tycon,
                            con: cid,
                            scrut: Box::new(LExp::Var(x)),
                        },
                        LExp::DeCon {
                            tycon,
                            con: cid,
                            scrut: Box::new(LExp::Var(y)),
                        },
                        span,
                    )?;
                    LExp::SwitchCon {
                        scrut: Box::new(LExp::Var(y)),
                        tycon,
                        arms: vec![(cid, cmp)],
                        default: if single {
                            None
                        } else {
                            Some(Box::new(LExp::Bool(false)))
                        },
                    }
                }
            };
            arms.push((cid, inner));
        }
        let body = LExp::SwitchCon {
            scrut: Box::new(LExp::Var(x)),
            tycon,
            arms,
            default: None,
        };
        self.eq_defs.push(FixFun {
            var: fv,
            params: vec![(x, key.clone()), (y, key)],
            ret: LTy::Bool,
            body,
        });
        Ok(fv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kit_lambda::opt::prune::prune;

    /// Pruning the whole lowered prelude around a body keeps exactly the
    /// bindings [`LoweredPrelude::plug`] copies around it, on a spine that
    /// is mostly dead.
    #[test]
    fn pruning_the_whole_prelude_keeps_what_plugging_copies() {
        let ast = kit_syntax::parse_program(crate::prelude::PRELUDE).expect("prelude must parse");
        let prelude = crate::infer::Prelude::elaborate(&ast).expect("prelude must elaborate");
        let (lowered, vars) = prelude.lowered();
        let var = |name: &str| {
            let found = (0..vars.len() as u32)
                .map(VarId)
                .find(|v| vars.name(*v) == name);
            LExp::Var(found.expect("a prelude binding"))
        };
        let len = lowered.bindings.len();
        for (body, kept) in [
            (LExp::Unit, 0),
            (var("length"), 1),
            (LExp::Record(vec![var("map"), var("foldl"), var("rev")]), 3),
        ] {
            let whole = lowered
                .bindings
                .iter()
                .rev()
                .fold(body.clone(), |e, b| b.binding.clone().wrap(e));
            let mut prog = LProgram {
                data: DataEnv::new(),
                exns: ExnEnv::new(),
                vars: vars.clone(),
                body: whole,
                result_ty: LTy::Unit,
            };
            assert_eq!(prune(&mut prog), len - kept, "{body:?}");
            assert_eq!(prog.body, lowered.plug(body, vars.len()));
        }
        assert!(len > 20, "only {len} prelude bindings");
    }
}
