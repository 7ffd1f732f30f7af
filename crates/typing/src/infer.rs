//! Name resolution and Hindley–Milner type inference, producing the typed
//! AST of [`crate::texp`].
//!
//! Notable SML features implemented faithfully:
//!
//! * let-polymorphism with the value restriction,
//! * level-based generalization (overloaded variables are never
//!   generalized; they default to `int` at the end of each top-level
//!   declaration),
//! * datatype declarations with mutual recursion,
//! * generative-at-top-level exception declarations,
//! * constructors usable as first-class functions.

use crate::builtins::{self, Builtin};
use crate::lower;
use crate::texp::{OvOp, TDec, TExp, TFun, TPat, TRule};
use crate::types::{InferCtx, Scheme, Ty, TypeError};
use kit_lambda::exp::{Prim, VarId, VarTable};
use kit_lambda::ty::{
    ConId, Constructor, DataEnv, Datatype, ExnEnv, ExnId, SchemeTy, TyConId, EXN_BIND, EXN_DIV,
    EXN_MATCH, EXN_OVERFLOW, EXN_SIZE, EXN_SUBSCRIPT,
};
use kit_lambda::LProgram;
use kit_syntax::ast::{self, BinOp, Exp, Pat, TyExp};
use kit_syntax::parser::MAX_NESTING;
use kit_syntax::Span;
use std::collections::HashMap;

/// The elaborator as it stands after the prelude has been elaborated and
/// lowered, with the lowered prelude: what every compile continues from.
///
/// All elaboration state — the unification store, the datatype and
/// exception environments, the variable table, the scopes — lives in
/// [`Elab`] and nowhere else, and neither elaboration nor lowering reads a
/// clock, address or hash order. So continuing from a copy of this state
/// yields the program that elaborating and lowering the prelude again
/// would: the same `VarId`s, the same type-variable ids.
pub(crate) struct Prelude {
    el: Elab,
    lowered: lower::LoweredPrelude,
}

impl Prelude {
    /// Elaborates and lowers the prelude's declarations; the prelude's
    /// lowering variables are numbered before any program's.
    pub(crate) fn elaborate(prelude: &ast::Program) -> Result<Prelude, TypeError> {
        let mut el = Elab::new();
        let tdecs = el.infer_top_decs(&prelude.decs)?;
        let lowered = lower::lower_prelude(&el.cx, &el.data, &el.exns, &mut el.vars, &tdecs)?;
        Ok(Prelude { el, lowered })
    }

    /// Elaborates and lowers `user` after the prelude, behind a copy of
    /// the lowered prelude.
    ///
    /// The program result is the value of the last top-level `val` binding
    /// of the user program that binds a single variable (conventionally
    /// `val it = ...`), or `()` if there is none.
    ///
    /// # Errors
    ///
    /// Returns the first type error encountered.
    pub(crate) fn elaborate_user(&self, user: &ast::Program) -> Result<LProgram, TypeError> {
        finish(self.el.clone(), &self.lowered, user)
    }

    /// [`Prelude::elaborate_user`] without the copy: the elaborator that
    /// just did the prelude carries on, as every compile used to.
    #[cfg(test)]
    pub(crate) fn continue_with(self, user: &ast::Program) -> Result<LProgram, TypeError> {
        finish(self.el, &self.lowered, user)
    }
}

fn finish(
    mut el: Elab,
    prelude: &lower::LoweredPrelude,
    user: &ast::Program,
) -> Result<LProgram, TypeError> {
    el.user_phase = true;
    let tdecs = el.infer_top_decs(&user.decs)?;
    lower::lower_program(
        prelude,
        el.cx,
        el.data,
        el.exns,
        el.vars,
        &tdecs,
        el.last_val,
    )
}

#[derive(Debug, Clone)]
enum Binding {
    Val(VarId, Scheme),
    Builtin(Builtin),
    Ctor(TyConId, ConId),
    Exn(ExnId),
}

#[derive(Debug, Clone)]
enum TyDef {
    Int,
    Real,
    Str,
    Bool,
    Unit,
    Exn,
    List,
    Ref,
    Array,
    Data(TyConId, u32),
}

#[derive(Clone)]
struct Elab {
    cx: InferCtx,
    data: DataEnv,
    exns: ExnEnv,
    vars: VarTable,
    scopes: Vec<HashMap<String, Binding>>,
    tyscopes: Vec<HashMap<String, TyDef>>,
    anno_tyvars: HashMap<String, Ty>,
    last_val: Option<(VarId, Ty)>,
    user_phase: bool,
    /// Nesting of the expression being inferred, against
    /// [`kit_syntax::parser::MAX_NESTING`].
    depth: usize,
}

impl Elab {
    fn new() -> Self {
        let mut scope = HashMap::new();
        for (name, b) in builtins::ALL {
            scope.insert((*name).to_string(), Binding::Builtin(*b));
        }
        for (name, id) in [
            ("Div", EXN_DIV),
            ("Overflow", EXN_OVERFLOW),
            ("Subscript", EXN_SUBSCRIPT),
            ("Size", EXN_SIZE),
            ("Match", EXN_MATCH),
            ("Bind", EXN_BIND),
        ] {
            scope.insert(name.to_string(), Binding::Exn(id));
        }
        scope.insert(
            "nil".to_string(),
            Binding::Ctor(kit_lambda::ty::LIST, kit_lambda::ty::NIL),
        );

        let mut tyscope = HashMap::new();
        for (name, d) in [
            ("int", TyDef::Int),
            ("real", TyDef::Real),
            ("string", TyDef::Str),
            ("bool", TyDef::Bool),
            ("unit", TyDef::Unit),
            ("exn", TyDef::Exn),
            ("list", TyDef::List),
            ("ref", TyDef::Ref),
            ("array", TyDef::Array),
        ] {
            tyscope.insert(name.to_string(), d);
        }

        Elab {
            cx: InferCtx::new(),
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars: VarTable::new(),
            scopes: vec![scope],
            tyscopes: vec![tyscope],
            anno_tyvars: HashMap::new(),
            last_val: None,
            user_phase: false,
            depth: 0,
        }
    }

    // ------------------------------------------------------------- scoping

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
        self.tyscopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
        self.tyscopes.pop();
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes.last_mut().unwrap().insert(name.to_string(), b);
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn bind_ty(&mut self, name: &str, d: TyDef) {
        self.tyscopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), d);
    }

    fn lookup_ty(&self, name: &str) -> Option<&TyDef> {
        self.tyscopes.iter().rev().find_map(|s| s.get(name))
    }

    fn unify_at(&mut self, span: Span, a: &Ty, b: &Ty) -> Result<(), TypeError> {
        self.cx.unify(a, b).map_err(|m| TypeError::new(m, span))
    }

    // ----------------------------------------------------- type expressions

    fn ty_of_tyexp(&mut self, t: &TyExp, span: Span) -> Result<Ty, TypeError> {
        match t {
            TyExp::Var(v) => {
                if let Some(ty) = self.anno_tyvars.get(v) {
                    return Ok(ty.clone());
                }
                let ty = self.cx.fresh();
                self.anno_tyvars.insert(v.clone(), ty.clone());
                Ok(ty)
            }
            TyExp::Tuple(ts) => {
                let tys = ts
                    .iter()
                    .map(|t| self.ty_of_tyexp(t, span))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Ty::Tuple(tys))
            }
            TyExp::Arrow(a, b) => Ok(Ty::arrow(
                self.ty_of_tyexp(a, span)?,
                self.ty_of_tyexp(b, span)?,
            )),
            TyExp::Con(name, args) => {
                let args: Vec<Ty> = args
                    .iter()
                    .map(|t| self.ty_of_tyexp(t, span))
                    .collect::<Result<Vec<_>, _>>()?;
                let def = self
                    .lookup_ty(name)
                    .ok_or_else(|| TypeError::new(format!("unknown type `{name}`"), span))?
                    .clone();
                let expect_arity = |n: usize| -> Result<(), TypeError> {
                    if args.len() == n {
                        Ok(())
                    } else {
                        Err(TypeError::new(
                            format!("type `{name}` expects {n} argument(s), got {}", args.len()),
                            span,
                        ))
                    }
                };
                match def {
                    TyDef::Int => {
                        expect_arity(0)?;
                        Ok(Ty::Int)
                    }
                    TyDef::Real => {
                        expect_arity(0)?;
                        Ok(Ty::Real)
                    }
                    TyDef::Str => {
                        expect_arity(0)?;
                        Ok(Ty::Str)
                    }
                    TyDef::Bool => {
                        expect_arity(0)?;
                        Ok(Ty::Bool)
                    }
                    TyDef::Unit => {
                        expect_arity(0)?;
                        Ok(Ty::Unit)
                    }
                    TyDef::Exn => {
                        expect_arity(0)?;
                        Ok(Ty::Exn)
                    }
                    TyDef::List => {
                        expect_arity(1)?;
                        Ok(Ty::list(args.into_iter().next().unwrap()))
                    }
                    TyDef::Ref => {
                        expect_arity(1)?;
                        Ok(Ty::Ref(Box::new(args.into_iter().next().unwrap())))
                    }
                    TyDef::Array => {
                        expect_arity(1)?;
                        Ok(Ty::Array(Box::new(args.into_iter().next().unwrap())))
                    }
                    TyDef::Data(id, arity) => {
                        expect_arity(arity as usize)?;
                        Ok(Ty::Con(id, args))
                    }
                }
            }
        }
    }

    fn schemety_of_tyexp(
        &self,
        t: &TyExp,
        tyvars: &[String],
        span: Span,
    ) -> Result<SchemeTy, TypeError> {
        match t {
            TyExp::Var(v) => match tyvars.iter().position(|w| w == v) {
                Some(i) => Ok(SchemeTy::Param(i as u32)),
                None => Err(TypeError::new(
                    format!("type variable '{v} not bound by the datatype declaration"),
                    span,
                )),
            },
            TyExp::Tuple(ts) => Ok(SchemeTy::Tuple(
                ts.iter()
                    .map(|t| self.schemety_of_tyexp(t, tyvars, span))
                    .collect::<Result<_, _>>()?,
            )),
            TyExp::Arrow(a, b) => Ok(SchemeTy::Arrow(
                Box::new(self.schemety_of_tyexp(a, tyvars, span)?),
                Box::new(self.schemety_of_tyexp(b, tyvars, span)?),
            )),
            TyExp::Con(name, args) => {
                let args: Vec<SchemeTy> = args
                    .iter()
                    .map(|t| self.schemety_of_tyexp(t, tyvars, span))
                    .collect::<Result<_, _>>()?;
                let def = self
                    .lookup_ty(name)
                    .ok_or_else(|| TypeError::new(format!("unknown type `{name}`"), span))?;
                Ok(match def {
                    TyDef::Int => SchemeTy::Int,
                    TyDef::Real => SchemeTy::Real,
                    TyDef::Str => SchemeTy::Str,
                    TyDef::Bool => SchemeTy::Bool,
                    TyDef::Unit => SchemeTy::Unit,
                    TyDef::Exn => SchemeTy::Exn,
                    TyDef::List => SchemeTy::Con(kit_lambda::ty::LIST, args),
                    TyDef::Ref => SchemeTy::Ref(Box::new(args.into_iter().next().unwrap())),
                    TyDef::Array => SchemeTy::Array(Box::new(args.into_iter().next().unwrap())),
                    TyDef::Data(id, _) => SchemeTy::Con(*id, args),
                })
            }
        }
    }

    /// Instantiates a constructor-argument scheme with inference types.
    fn scheme_to_ty(&self, s: &SchemeTy, targs: &[Ty]) -> Ty {
        match s {
            SchemeTy::Param(i) => targs[*i as usize].clone(),
            SchemeTy::Int => Ty::Int,
            SchemeTy::Bool => Ty::Bool,
            SchemeTy::Unit => Ty::Unit,
            SchemeTy::Real => Ty::Real,
            SchemeTy::Str => Ty::Str,
            SchemeTy::Exn => Ty::Exn,
            SchemeTy::Con(c, ts) => {
                Ty::Con(*c, ts.iter().map(|t| self.scheme_to_ty(t, targs)).collect())
            }
            SchemeTy::Arrow(a, b) => {
                Ty::arrow(self.scheme_to_ty(a, targs), self.scheme_to_ty(b, targs))
            }
            SchemeTy::Tuple(ts) => {
                Ty::Tuple(ts.iter().map(|t| self.scheme_to_ty(t, targs)).collect())
            }
            SchemeTy::Ref(t) => Ty::Ref(Box::new(self.scheme_to_ty(t, targs))),
            SchemeTy::Array(t) => Ty::Array(Box::new(self.scheme_to_ty(t, targs))),
        }
    }

    // --------------------------------------------------------- declarations

    /// Infers a run of top-level declarations; overloading is resolved at
    /// the end of each.
    fn infer_top_decs(&mut self, decs: &[ast::Dec]) -> Result<Vec<TDec>, TypeError> {
        let mut tdecs = Vec::new();
        for dec in decs {
            self.anno_tyvars.clear();
            tdecs.extend(self.infer_dec(dec)?);
            self.cx.default_overloads();
        }
        Ok(tdecs)
    }

    fn infer_dec(&mut self, dec: &ast::Dec) -> Result<Vec<TDec>, TypeError> {
        match dec {
            ast::Dec::Val { pat, exp, span } => {
                self.cx.level += 1;
                let (trhs, rhs_ty) = self.infer_exp(exp)?;
                self.cx.level -= 1;
                let mut binds = Vec::new();
                let tpat = self.infer_pat(pat, &rhs_ty, &mut binds)?;
                let generalizable = is_value(exp);
                for (name, var, ty) in binds {
                    let scheme = if generalizable {
                        self.cx.generalize(&ty)
                    } else {
                        Scheme::mono(ty.clone())
                    };
                    self.bind(&name, Binding::Val(var, scheme));
                }
                if self.user_phase {
                    if let Pat::Var(name, _) = pat {
                        if self.lookup(name).is_some() {
                            if let Some(Binding::Val(v, _)) = self.lookup(name) {
                                self.last_val = Some((*v, rhs_ty.clone()));
                            }
                        }
                    }
                }
                Ok(vec![TDec::Val {
                    pat: tpat,
                    rhs: trhs,
                    span: *span,
                }])
            }
            ast::Dec::Fun { binds, span } => self.infer_fun_group(binds, *span),
            ast::Dec::Datatype { binds, span } => {
                self.infer_datatypes(binds, *span)?;
                Ok(Vec::new())
            }
            ast::Dec::Exception { name, arg, span } => {
                let arg_lty = match arg {
                    Some(t) => {
                        let ty = self.ty_of_tyexp(t, *span)?;
                        Some(self.cx.to_lty(&ty))
                    }
                    None => None,
                };
                let id = self.exns.define(name, arg_lty);
                self.bind(name, Binding::Exn(id));
                Ok(Vec::new())
            }
        }
    }

    fn infer_datatypes(&mut self, binds: &[ast::DataBind], span: Span) -> Result<(), TypeError> {
        // Pass 1: reserve ids so datatypes can be mutually recursive.
        let ids: Vec<TyConId> = binds
            .iter()
            .map(|b| {
                let id = self.data.reserve(&b.name);
                self.bind_ty(&b.name, TyDef::Data(id, b.tyvars.len() as u32));
                id
            })
            .collect();
        // Pass 2: fill in constructors and bind them.
        for (b, id) in binds.iter().zip(&ids) {
            let mut constructors = Vec::new();
            for c in &b.cons {
                let arg = match &c.arg {
                    Some(t) => Some(self.schemety_of_tyexp(t, &b.tyvars, span)?),
                    None => None,
                };
                constructors.push(Constructor {
                    name: c.name.clone(),
                    arg,
                });
            }
            self.data.fill(
                *id,
                Datatype {
                    name: b.name.clone(),
                    arity: b.tyvars.len() as u32,
                    constructors,
                },
            );
            for (i, c) in b.cons.iter().enumerate() {
                self.bind(&c.name, Binding::Ctor(*id, ConId(i as u32)));
            }
        }
        Ok(())
    }

    fn infer_fun_group(
        &mut self,
        binds: &[ast::FunBind],
        span: Span,
    ) -> Result<Vec<TDec>, TypeError> {
        self.cx.level += 1;
        // Monomorphic bindings for the whole group.
        let mut sigs = Vec::new();
        for b in binds {
            let arity = b.clauses[0].pats.len();
            let param_tys: Vec<Ty> = (0..arity).map(|_| self.cx.fresh()).collect();
            let ret = self.cx.fresh();
            let fun_ty = param_tys
                .iter()
                .rev()
                .fold(ret.clone(), |acc, p| Ty::arrow(p.clone(), acc));
            let var = self.vars.fresh(&b.name);
            self.bind(&b.name, Binding::Val(var, Scheme::mono(fun_ty.clone())));
            sigs.push((var, param_tys, ret, fun_ty));
        }
        let mut tfuns = Vec::new();
        for (b, (var, param_tys, ret, _)) in binds.iter().zip(&sigs) {
            let mut clauses = Vec::new();
            for clause in &b.clauses {
                self.push_scope();
                let mut pats = Vec::new();
                for (p, pt) in clause.pats.iter().zip(param_tys) {
                    let mut cbinds = Vec::new();
                    let tp = self.infer_pat(p, pt, &mut cbinds)?;
                    for (name, v, t) in cbinds {
                        self.bind(&name, Binding::Val(v, Scheme::mono(t)));
                    }
                    pats.push(tp);
                }
                let (body, bty) = self.infer_exp(&clause.body)?;
                self.unify_at(clause.body.span(), &bty, ret)?;
                self.pop_scope();
                clauses.push((pats, body));
            }
            let params: Vec<(VarId, Ty)> = param_tys
                .iter()
                .enumerate()
                .map(|(i, t)| (self.vars.fresh(&format!("{}#{}", b.name, i)), t.clone()))
                .collect();
            tfuns.push(TFun {
                var: *var,
                params,
                ret: ret.clone(),
                clauses,
                span: b.span,
            });
        }
        self.cx.level -= 1;
        // Generalize and re-bind.
        for (b, (var, _, _, fun_ty)) in binds.iter().zip(&sigs) {
            let scheme = self.cx.generalize(fun_ty);
            self.bind(&b.name, Binding::Val(*var, scheme));
        }
        let _ = span;
        Ok(vec![TDec::Fun(tfuns)])
    }

    // ------------------------------------------------------------- patterns

    fn infer_pat(
        &mut self,
        pat: &Pat,
        expected: &Ty,
        binds: &mut Vec<(String, VarId, Ty)>,
    ) -> Result<TPat, TypeError> {
        let span = pat.span();
        match pat {
            Pat::Wild(_) => Ok(TPat::Wild),
            Pat::Unit(_) => {
                self.unify_at(span, expected, &Ty::Unit)?;
                Ok(TPat::Wild)
            }
            Pat::Int(n, _) => {
                self.unify_at(span, expected, &Ty::Int)?;
                Ok(TPat::Int(*n))
            }
            Pat::Str(s, _) => {
                self.unify_at(span, expected, &Ty::Str)?;
                Ok(TPat::Str(s.clone()))
            }
            Pat::Bool(b, _) => {
                self.unify_at(span, expected, &Ty::Bool)?;
                Ok(TPat::Bool(*b))
            }
            Pat::Var(name, _) => match self.lookup(name).cloned() {
                Some(Binding::Ctor(tycon, con)) => {
                    let dt = self.data.get(tycon);
                    if dt.constructors[con.0 as usize].arg.is_some() {
                        return Err(TypeError::new(
                            format!("constructor `{name}` expects an argument"),
                            span,
                        ));
                    }
                    let targs: Vec<Ty> = (0..dt.arity).map(|_| self.cx.fresh()).collect();
                    self.unify_at(span, expected, &Ty::Con(tycon, targs.clone()))?;
                    Ok(TPat::Con {
                        tycon,
                        con,
                        targs,
                        arg: None,
                    })
                }
                Some(Binding::Exn(id)) => {
                    if self.exns.get(id).arg.is_some() {
                        return Err(TypeError::new(
                            format!("exception `{name}` expects an argument"),
                            span,
                        ));
                    }
                    self.unify_at(span, expected, &Ty::Exn)?;
                    Ok(TPat::Exn { exn: id, arg: None })
                }
                _ => {
                    if binds.iter().any(|(n, _, _)| n == name) {
                        return Err(TypeError::new(
                            format!("duplicate variable `{name}` in pattern"),
                            span,
                        ));
                    }
                    let v = self.vars.fresh(name);
                    binds.push((name.clone(), v, expected.clone()));
                    Ok(TPat::Var(v, expected.clone()))
                }
            },
            Pat::Tuple(ps, _) => {
                let tys: Vec<Ty> = ps.iter().map(|_| self.cx.fresh()).collect();
                self.unify_at(span, expected, &Ty::Tuple(tys.clone()))?;
                let tps = ps
                    .iter()
                    .zip(&tys)
                    .map(|(p, t)| self.infer_pat(p, t, binds))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(TPat::Tuple(tps))
            }
            Pat::Con(name, argp, _) => match self.lookup(name).cloned() {
                Some(Binding::Ctor(tycon, con)) => {
                    let dt = self.data.get(tycon);
                    let arity = dt.arity;
                    let Some(arg_scheme) = dt.constructors[con.0 as usize].arg.clone() else {
                        return Err(TypeError::new(
                            format!("constructor `{name}` takes no argument"),
                            span,
                        ));
                    };
                    let targs: Vec<Ty> = (0..arity).map(|_| self.cx.fresh()).collect();
                    self.unify_at(span, expected, &Ty::Con(tycon, targs.clone()))?;
                    let arg_ty = self.scheme_to_ty(&arg_scheme, &targs);
                    let tp = self.infer_pat(argp, &arg_ty, binds)?;
                    Ok(TPat::Con {
                        tycon,
                        con,
                        targs,
                        arg: Some(Box::new(tp)),
                    })
                }
                Some(Binding::Exn(id)) => {
                    let Some(arg_ty) = self.exns.get(id).arg.clone() else {
                        return Err(TypeError::new(
                            format!("exception `{name}` takes no argument"),
                            span,
                        ));
                    };
                    self.unify_at(span, expected, &Ty::Exn)?;
                    let arg_ty = lty_to_ty(&arg_ty);
                    let tp = self.infer_pat(argp, &arg_ty, binds)?;
                    Ok(TPat::Exn {
                        exn: id,
                        arg: Some(Box::new(tp)),
                    })
                }
                _ => Err(TypeError::new(
                    format!("unknown constructor `{name}`"),
                    span,
                )),
            },
            Pat::List(ps, _) => {
                let elem = self.cx.fresh();
                self.unify_at(span, expected, &Ty::list(elem.clone()))?;
                let mut out = TPat::Con {
                    tycon: kit_lambda::ty::LIST,
                    con: kit_lambda::ty::NIL,
                    targs: vec![elem.clone()],
                    arg: None,
                };
                for p in ps.iter().rev() {
                    let tp = self.infer_pat(p, &elem, binds)?;
                    out = TPat::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![elem.clone()],
                        arg: Some(Box::new(TPat::Tuple(vec![tp, out]))),
                    };
                }
                Ok(out)
            }
            Pat::Cons(h, t, _) => {
                let elem = self.cx.fresh();
                self.unify_at(span, expected, &Ty::list(elem.clone()))?;
                let th = self.infer_pat(h, &elem, binds)?;
                let tt = self.infer_pat(t, &Ty::list(elem.clone()), binds)?;
                Ok(TPat::Con {
                    tycon: kit_lambda::ty::LIST,
                    con: kit_lambda::ty::CONS,
                    targs: vec![elem],
                    arg: Some(Box::new(TPat::Tuple(vec![th, tt]))),
                })
            }
            Pat::Ascribe(p, t, _) => {
                let ty = self.ty_of_tyexp(t, span)?;
                self.unify_at(span, expected, &ty)?;
                self.infer_pat(p, &ty, binds)
            }
        }
    }

    // ----------------------------------------------------------- expressions

    fn infer_rules(
        &mut self,
        rules: &[ast::Rule],
        scrut_ty: &Ty,
        result_ty: &Ty,
    ) -> Result<Vec<TRule>, TypeError> {
        let mut out = Vec::new();
        for r in rules {
            self.push_scope();
            let mut binds = Vec::new();
            let tp = self.infer_pat(&r.pat, scrut_ty, &mut binds)?;
            for (name, v, t) in binds {
                self.bind(&name, Binding::Val(v, Scheme::mono(t)));
            }
            let (te, ty) = self.infer_exp(&r.exp)?;
            self.unify_at(r.exp.span(), &ty, result_ty)?;
            self.pop_scope();
            out.push(TRule { pat: tp, exp: te });
        }
        Ok(out)
    }

    /// Infers `exp`, one level deeper. The parser bounded its own
    /// recursion, but `1 + 1 + …` nests the tree in a loop there and in
    /// recursion here (and in every pass that walks the typed tree).
    fn infer_exp(&mut self, exp: &Exp) -> Result<(TExp, Ty), TypeError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(TypeError::new(
                format!("expression nested more than {MAX_NESTING} levels deep"),
                exp.span(),
            ));
        }
        let typed = self.infer_exp_at(exp);
        self.depth -= 1;
        typed
    }

    fn infer_exp_at(&mut self, exp: &Exp) -> Result<(TExp, Ty), TypeError> {
        let span = exp.span();
        match exp {
            Exp::Int(n, _) => Ok((TExp::Int(*n), Ty::Int)),
            Exp::Real(r, _) => Ok((TExp::Real(*r), Ty::Real)),
            Exp::Str(s, _) => Ok((TExp::Str(s.clone()), Ty::Str)),
            Exp::Bool(b, _) => Ok((TExp::Bool(*b), Ty::Bool)),
            Exp::Unit(_) => Ok((TExp::Unit, Ty::Unit)),
            Exp::Var(name, _) => self.infer_var(name, span),
            Exp::Tuple(es, _) => {
                let mut tes = Vec::new();
                let mut tys = Vec::new();
                for e in es {
                    let (te, ty) = self.infer_exp(e)?;
                    tes.push(te);
                    tys.push(ty);
                }
                Ok((TExp::Tuple(tes), Ty::Tuple(tys)))
            }
            Exp::List(es, _) => {
                let elem = self.cx.fresh();
                let mut out = TExp::Con {
                    tycon: kit_lambda::ty::LIST,
                    con: kit_lambda::ty::NIL,
                    targs: vec![elem.clone()],
                    arg: None,
                };
                for e in es.iter().rev() {
                    let (te, ty) = self.infer_exp(e)?;
                    self.unify_at(e.span(), &ty, &elem)?;
                    out = TExp::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![elem.clone()],
                        arg: Some(Box::new(TExp::Tuple(vec![te, out]))),
                    };
                }
                Ok((out, Ty::list(elem)))
            }
            Exp::Cons(h, t, _) => {
                let (th, hty) = self.infer_exp(h)?;
                let (tt, tty) = self.infer_exp(t)?;
                self.unify_at(span, &tty, &Ty::list(hty.clone()))?;
                Ok((
                    TExp::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![hty.clone()],
                        arg: Some(Box::new(TExp::Tuple(vec![th, tt]))),
                    },
                    Ty::list(hty),
                ))
            }
            Exp::Append(a, b, _) => {
                // `xs @ ys` is `append (xs, ys)` from the prelude.
                let (ta, tya) = self.infer_exp(a)?;
                let (tb, tyb) = self.infer_exp(b)?;
                self.unify_at(span, &tya, &tyb)?;
                let elem = self.cx.fresh();
                self.unify_at(span, &tya, &Ty::list(elem))?;
                let Some(Binding::Val(v, scheme)) = self.lookup("append").cloned() else {
                    return Err(TypeError::new("prelude `append` is missing", span));
                };
                let fty = self.cx.instantiate(&scheme);
                let arg = Ty::Tuple(vec![tya.clone(), tyb]);
                self.unify_at(span, &fty, &Ty::arrow(arg, tya.clone()))?;
                Ok((
                    TExp::App(
                        Box::new(TExp::Var(v, fty)),
                        Box::new(TExp::Tuple(vec![ta, tb])),
                    ),
                    tya,
                ))
            }
            Exp::App(f, a, _) => self.infer_app(f, a, span),
            Exp::BinOp(op, a, b, _) => self.infer_binop(*op, a, b, span),
            Exp::Neg(e, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let n = builtins::fresh_num(&mut self.cx);
                self.unify_at(span, &ty, &n)?;
                Ok((
                    TExp::Overload {
                        op: OvOp::Neg,
                        args: vec![te],
                        ty: n.clone(),
                        span,
                    },
                    n,
                ))
            }
            Exp::Deref(e, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let a = self.cx.fresh();
                self.unify_at(span, &ty, &Ty::Ref(Box::new(a.clone())))?;
                Ok((
                    TExp::Prim {
                        prim: Prim::RefGet,
                        args: vec![te],
                    },
                    a,
                ))
            }
            Exp::Not(e, _) => {
                let (te, ty) = self.infer_exp(e)?;
                self.unify_at(span, &ty, &Ty::Bool)?;
                Ok((
                    TExp::If(
                        Box::new(te),
                        Box::new(TExp::Bool(false)),
                        Box::new(TExp::Bool(true)),
                    ),
                    Ty::Bool,
                ))
            }
            Exp::Andalso(a, b, _) => {
                let (ta, tya) = self.infer_exp(a)?;
                let (tb, tyb) = self.infer_exp(b)?;
                self.unify_at(span, &tya, &Ty::Bool)?;
                self.unify_at(span, &tyb, &Ty::Bool)?;
                Ok((
                    TExp::If(Box::new(ta), Box::new(tb), Box::new(TExp::Bool(false))),
                    Ty::Bool,
                ))
            }
            Exp::Orelse(a, b, _) => {
                let (ta, tya) = self.infer_exp(a)?;
                let (tb, tyb) = self.infer_exp(b)?;
                self.unify_at(span, &tya, &Ty::Bool)?;
                self.unify_at(span, &tyb, &Ty::Bool)?;
                Ok((
                    TExp::If(Box::new(ta), Box::new(TExp::Bool(true)), Box::new(tb)),
                    Ty::Bool,
                ))
            }
            Exp::If(c, t, f, _) => {
                let (tc, cty) = self.infer_exp(c)?;
                self.unify_at(c.span(), &cty, &Ty::Bool)?;
                let (tt, tty) = self.infer_exp(t)?;
                let (tf, fty) = self.infer_exp(f)?;
                self.unify_at(span, &tty, &fty)?;
                Ok((TExp::If(Box::new(tc), Box::new(tt), Box::new(tf)), tty))
            }
            Exp::While(c, b, _) => {
                let (tc, cty) = self.infer_exp(c)?;
                self.unify_at(c.span(), &cty, &Ty::Bool)?;
                let (tb, bty) = self.infer_exp(b)?;
                self.unify_at(b.span(), &bty, &Ty::Unit)?;
                Ok((TExp::While(Box::new(tc), Box::new(tb)), Ty::Unit))
            }
            Exp::Case(scrut, rules, _) => {
                let (ts, sty) = self.infer_exp(scrut)?;
                let rty = self.cx.fresh();
                let trules = self.infer_rules(rules, &sty, &rty)?;
                Ok((
                    TExp::Case {
                        scrut: Box::new(ts),
                        sty,
                        rules: trules,
                        rty: rty.clone(),
                        span,
                    },
                    rty,
                ))
            }
            Exp::Fn(rules, _) => {
                let pty = self.cx.fresh();
                let rty = self.cx.fresh();
                // Single irrefutable variable rule: bind the parameter
                // directly (common case, avoids a trivial match).
                if rules.len() == 1 {
                    if let Pat::Var(name, _) = &rules[0].pat {
                        if !matches!(
                            self.lookup(name),
                            Some(Binding::Ctor(_, _)) | Some(Binding::Exn(_))
                        ) {
                            self.push_scope();
                            let v = self.vars.fresh(name);
                            self.bind(name, Binding::Val(v, Scheme::mono(pty.clone())));
                            let (tb, bty) = self.infer_exp(&rules[0].exp)?;
                            self.unify_at(span, &bty, &rty)?;
                            self.pop_scope();
                            return Ok((
                                TExp::Fn {
                                    param: v,
                                    pty: pty.clone(),
                                    rty: rty.clone(),
                                    body: Box::new(tb),
                                },
                                Ty::arrow(pty, rty),
                            ));
                        }
                    }
                }
                let pv = self.vars.fresh("arg");
                let trules = self.infer_rules(rules, &pty, &rty)?;
                let body = TExp::Case {
                    scrut: Box::new(TExp::Var(pv, pty.clone())),
                    sty: pty.clone(),
                    rules: trules,
                    rty: rty.clone(),
                    span,
                };
                Ok((
                    TExp::Fn {
                        param: pv,
                        pty: pty.clone(),
                        rty: rty.clone(),
                        body: Box::new(body),
                    },
                    Ty::arrow(pty, rty),
                ))
            }
            Exp::Let(decs, body, _) => {
                self.push_scope();
                let mut tdecs = Vec::new();
                for d in decs {
                    tdecs.extend(self.infer_dec(d)?);
                }
                let mut tes = Vec::new();
                let mut last_ty = Ty::Unit;
                for (i, e) in body.iter().enumerate() {
                    let (te, ty) = self.infer_exp(e)?;
                    tes.push(te);
                    if i == body.len() - 1 {
                        last_ty = ty;
                    }
                }
                self.pop_scope();
                let body_exp = if tes.len() == 1 {
                    tes.into_iter().next().unwrap()
                } else {
                    TExp::Seq(tes)
                };
                Ok((
                    TExp::Let {
                        decs: tdecs,
                        body: Box::new(body_exp),
                    },
                    last_ty,
                ))
            }
            Exp::Seq(es, _) => {
                let mut tes = Vec::new();
                let mut last_ty = Ty::Unit;
                for (i, e) in es.iter().enumerate() {
                    let (te, ty) = self.infer_exp(e)?;
                    tes.push(te);
                    if i == es.len() - 1 {
                        last_ty = ty;
                    }
                }
                Ok((TExp::Seq(tes), last_ty))
            }
            Exp::Raise(e, _) => {
                let (te, ty) = self.infer_exp(e)?;
                self.unify_at(span, &ty, &Ty::Exn)?;
                let rty = self.cx.fresh();
                Ok((TExp::Raise(Box::new(te), rty.clone()), rty))
            }
            Exp::Handle(e, rules, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let trules = self.infer_rules(rules, &Ty::Exn, &ty)?;
                Ok((
                    TExp::Handle {
                        body: Box::new(te),
                        rules: trules,
                        rty: ty.clone(),
                        span,
                    },
                    ty,
                ))
            }
            Exp::Ascribe(e, t, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let want = self.ty_of_tyexp(t, span)?;
                self.unify_at(span, &ty, &want)?;
                Ok((te, want))
            }
        }
    }

    fn infer_var(&mut self, name: &str, span: Span) -> Result<(TExp, Ty), TypeError> {
        // `op+`-style references are expanded to overloaded lambdas by the
        // lowerer; here they become Overload/Eq-producing functions.
        if let Some(rest) = name.strip_prefix("op") {
            if !rest.is_empty() && self.lookup(name).is_none() {
                return self.infer_op_section(rest, span);
            }
        }
        match self.lookup(name).cloned() {
            Some(Binding::Val(v, scheme)) => {
                let ty = self.cx.instantiate(&scheme);
                Ok((TExp::Var(v, ty.clone()), ty))
            }
            Some(Binding::Builtin(b)) => {
                let ty = b.fresh_ty(&mut self.cx);
                Ok((TExp::Builtin(b, ty.clone()), ty))
            }
            Some(Binding::Ctor(tycon, con)) => {
                let dt = self.data.get(tycon);
                let arity = dt.arity;
                let arg = dt.constructors[con.0 as usize].arg.clone();
                let targs: Vec<Ty> = (0..arity).map(|_| self.cx.fresh()).collect();
                let res_ty = Ty::Con(tycon, targs.clone());
                match arg {
                    None => Ok((
                        TExp::Con {
                            tycon,
                            con,
                            targs,
                            arg: None,
                        },
                        res_ty,
                    )),
                    Some(s) => {
                        let arg_ty = self.scheme_to_ty(&s, &targs);
                        Ok((
                            TExp::ConVal { tycon, con, targs },
                            Ty::arrow(arg_ty, res_ty),
                        ))
                    }
                }
            }
            Some(Binding::Exn(id)) => match self.exns.get(id).arg.clone() {
                None => Ok((TExp::ExCon { exn: id, arg: None }, Ty::Exn)),
                Some(at) => Ok((TExp::ExnVal(id), Ty::arrow(lty_to_ty(&at), Ty::Exn))),
            },
            None => Err(TypeError::new(format!("unbound variable `{name}`"), span)),
        }
    }

    /// `op +` and friends, used as first-class functions.
    fn infer_op_section(&mut self, sym: &str, span: Span) -> Result<(TExp, Ty), TypeError> {
        let p = self.vars.fresh("p");
        let a = self.vars.fresh("a");
        let b = self.vars.fresh("b");
        let (body, opnd_ty, res_ty): (TExp, Ty, Ty) = match sym {
            "+" | "-" | "*" => {
                let t = builtins::fresh_num(&mut self.cx);
                let op = match sym {
                    "+" => OvOp::Add,
                    "-" => OvOp::Sub,
                    _ => OvOp::Mul,
                };
                (
                    TExp::Overload {
                        op,
                        args: vec![TExp::Var(a, t.clone()), TExp::Var(b, t.clone())],
                        ty: t.clone(),
                        span,
                    },
                    t.clone(),
                    t,
                )
            }
            "<" | "<=" | ">" | ">=" => {
                let t = builtins::fresh_ord(&mut self.cx);
                let op = match sym {
                    "<" => OvOp::Lt,
                    "<=" => OvOp::Le,
                    ">" => OvOp::Gt,
                    _ => OvOp::Ge,
                };
                (
                    TExp::Overload {
                        op,
                        args: vec![TExp::Var(a, t.clone()), TExp::Var(b, t.clone())],
                        ty: t.clone(),
                        span,
                    },
                    t,
                    Ty::Bool,
                )
            }
            "=" => {
                let t = self.cx.fresh();
                (
                    TExp::Eq {
                        lhs: Box::new(TExp::Var(a, t.clone())),
                        rhs: Box::new(TExp::Var(b, t.clone())),
                        ty: t.clone(),
                        negate: false,
                        span,
                    },
                    t,
                    Ty::Bool,
                )
            }
            "div" | "mod" => (
                TExp::Prim {
                    prim: if sym == "div" { Prim::IDiv } else { Prim::IMod },
                    args: vec![TExp::Var(a, Ty::Int), TExp::Var(b, Ty::Int)],
                },
                Ty::Int,
                Ty::Int,
            ),
            "/" => (
                TExp::Prim {
                    prim: Prim::RDiv,
                    args: vec![TExp::Var(a, Ty::Real), TExp::Var(b, Ty::Real)],
                },
                Ty::Real,
                Ty::Real,
            ),
            "^" => (
                TExp::Prim {
                    prim: Prim::StrConcat,
                    args: vec![TExp::Var(a, Ty::Str), TExp::Var(b, Ty::Str)],
                },
                Ty::Str,
                Ty::Str,
            ),
            "::" => {
                let t = self.cx.fresh();
                (
                    TExp::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![t.clone()],
                        arg: Some(Box::new(TExp::Tuple(vec![
                            TExp::Var(a, t.clone()),
                            TExp::Var(b, Ty::list(t.clone())),
                        ]))),
                    },
                    t.clone(),
                    Ty::list(t),
                )
            }
            other => {
                return Err(TypeError::new(
                    format!("`op {other}` is not supported"),
                    span,
                ));
            }
        };
        // fn p => case p of (a, b) => body
        let (a_ty, b_ty) = match sym {
            "::" => (opnd_ty.clone(), Ty::list(opnd_ty.clone())),
            _ => (opnd_ty.clone(), opnd_ty.clone()),
        };
        let p_ty = Ty::Tuple(vec![a_ty.clone(), b_ty.clone()]);
        let case = TExp::Case {
            scrut: Box::new(TExp::Var(p, p_ty.clone())),
            sty: p_ty.clone(),
            rules: vec![TRule {
                pat: TPat::Tuple(vec![TPat::Var(a, a_ty), TPat::Var(b, b_ty)]),
                exp: body,
            }],
            rty: res_ty.clone(),
            span,
        };
        Ok((
            TExp::Fn {
                param: p,
                pty: p_ty.clone(),
                rty: res_ty.clone(),
                body: Box::new(case),
            },
            Ty::arrow(p_ty, res_ty),
        ))
    }

    fn infer_app(&mut self, f: &Exp, a: &Exp, span: Span) -> Result<(TExp, Ty), TypeError> {
        // Constructor / exception application is built directly.
        if let Exp::Var(name, _) = f {
            match self.lookup(name).cloned() {
                Some(Binding::Ctor(tycon, con)) => {
                    let dt = self.data.get(tycon);
                    let arity = dt.arity;
                    if let Some(s) = dt.constructors[con.0 as usize].arg.clone() {
                        let targs: Vec<Ty> = (0..arity).map(|_| self.cx.fresh()).collect();
                        let arg_ty = self.scheme_to_ty(&s, &targs);
                        let (ta, tya) = self.infer_exp(a)?;
                        self.unify_at(span, &tya, &arg_ty)?;
                        return Ok((
                            TExp::Con {
                                tycon,
                                con,
                                targs: targs.clone(),
                                arg: Some(Box::new(ta)),
                            },
                            Ty::Con(tycon, targs),
                        ));
                    }
                }
                Some(Binding::Exn(id)) => {
                    if let Some(at) = self.exns.get(id).arg.clone() {
                        let (ta, tya) = self.infer_exp(a)?;
                        self.unify_at(span, &tya, &lty_to_ty(&at))?;
                        return Ok((
                            TExp::ExCon {
                                exn: id,
                                arg: Some(Box::new(ta)),
                            },
                            Ty::Exn,
                        ));
                    }
                }
                _ => {}
            }
        }
        let (tf, fty) = self.infer_exp(f)?;
        let (ta, aty) = self.infer_exp(a)?;
        let r = self.cx.fresh();
        self.unify_at(span, &fty, &Ty::arrow(aty, r.clone()))?;
        Ok((TExp::App(Box::new(tf), Box::new(ta)), r))
    }

    fn infer_binop(
        &mut self,
        op: BinOp,
        a: &Exp,
        b: &Exp,
        span: Span,
    ) -> Result<(TExp, Ty), TypeError> {
        let (ta, tya) = self.infer_exp(a)?;
        let (tb, tyb) = self.infer_exp(b)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let t = builtins::fresh_num(&mut self.cx);
                self.unify_at(span, &tya, &t)?;
                self.unify_at(span, &tyb, &t)?;
                let ov = match op {
                    BinOp::Add => OvOp::Add,
                    BinOp::Sub => OvOp::Sub,
                    _ => OvOp::Mul,
                };
                Ok((
                    TExp::Overload {
                        op: ov,
                        args: vec![ta, tb],
                        ty: t.clone(),
                        span,
                    },
                    t,
                ))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let t = builtins::fresh_ord(&mut self.cx);
                self.unify_at(span, &tya, &t)?;
                self.unify_at(span, &tyb, &t)?;
                let ov = match op {
                    BinOp::Lt => OvOp::Lt,
                    BinOp::Le => OvOp::Le,
                    BinOp::Gt => OvOp::Gt,
                    _ => OvOp::Ge,
                };
                Ok((
                    TExp::Overload {
                        op: ov,
                        args: vec![ta, tb],
                        ty: t,
                        span,
                    },
                    Ty::Bool,
                ))
            }
            BinOp::Div | BinOp::Mod => {
                self.unify_at(span, &tya, &Ty::Int)?;
                self.unify_at(span, &tyb, &Ty::Int)?;
                let p = if op == BinOp::Div {
                    Prim::IDiv
                } else {
                    Prim::IMod
                };
                Ok((
                    TExp::Prim {
                        prim: p,
                        args: vec![ta, tb],
                    },
                    Ty::Int,
                ))
            }
            BinOp::RDiv => {
                self.unify_at(span, &tya, &Ty::Real)?;
                self.unify_at(span, &tyb, &Ty::Real)?;
                Ok((
                    TExp::Prim {
                        prim: Prim::RDiv,
                        args: vec![ta, tb],
                    },
                    Ty::Real,
                ))
            }
            BinOp::Eq | BinOp::Neq => {
                self.unify_at(span, &tya, &tyb)?;
                Ok((
                    TExp::Eq {
                        lhs: Box::new(ta),
                        rhs: Box::new(tb),
                        ty: tya,
                        negate: op == BinOp::Neq,
                        span,
                    },
                    Ty::Bool,
                ))
            }
            BinOp::Concat => {
                self.unify_at(span, &tya, &Ty::Str)?;
                self.unify_at(span, &tyb, &Ty::Str)?;
                Ok((
                    TExp::Prim {
                        prim: Prim::StrConcat,
                        args: vec![ta, tb],
                    },
                    Ty::Str,
                ))
            }
            BinOp::Assign => {
                let cell = self.cx.fresh();
                self.unify_at(span, &tya, &Ty::Ref(Box::new(cell.clone())))?;
                self.unify_at(span, &tyb, &cell)?;
                Ok((
                    TExp::Prim {
                        prim: Prim::RefSet,
                        args: vec![ta, tb],
                    },
                    Ty::Unit,
                ))
            }
            BinOp::Compose => {
                // f o g  =  let vf = f; vg = g in fn x => vf (vg x)
                let x = self.vars.fresh("x");
                let ax = self.cx.fresh();
                let bx = self.cx.fresh();
                let cx2 = self.cx.fresh();
                self.unify_at(span, &tyb, &Ty::arrow(ax.clone(), bx.clone()))?;
                self.unify_at(span, &tya, &Ty::arrow(bx.clone(), cx2.clone()))?;
                let vf = self.vars.fresh("f");
                let vg = self.vars.fresh("g");
                let body = TExp::App(
                    Box::new(TExp::Var(vf, tya.clone())),
                    Box::new(TExp::App(
                        Box::new(TExp::Var(vg, tyb.clone())),
                        Box::new(TExp::Var(x, ax.clone())),
                    )),
                );
                let lam = TExp::Fn {
                    param: x,
                    pty: ax.clone(),
                    rty: cx2.clone(),
                    body: Box::new(body),
                };
                let exp = TExp::Let {
                    decs: vec![
                        TDec::Val {
                            pat: TPat::Var(vf, tya),
                            rhs: ta,
                            span,
                        },
                        TDec::Val {
                            pat: TPat::Var(vg, tyb),
                            rhs: tb,
                            span,
                        },
                    ],
                    body: Box::new(lam),
                };
                Ok((exp, Ty::arrow(ax, cx2)))
            }
        }
    }
}

/// Converts a closed `LTy` (exception argument types) back to an inference
/// type.
fn lty_to_ty(t: &kit_lambda::ty::LTy) -> Ty {
    use kit_lambda::ty::LTy;
    match t {
        LTy::TyVar(_) => Ty::Unit, // exception args must be closed; erased
        LTy::Int => Ty::Int,
        LTy::Bool => Ty::Bool,
        LTy::Unit => Ty::Unit,
        LTy::Real => Ty::Real,
        LTy::Str => Ty::Str,
        LTy::Exn => Ty::Exn,
        LTy::Con(c, ts) => Ty::Con(*c, ts.iter().map(lty_to_ty).collect()),
        LTy::Arrow(a, b) => Ty::arrow(lty_to_ty(a), lty_to_ty(b)),
        LTy::Tuple(ts) => Ty::Tuple(ts.iter().map(lty_to_ty).collect()),
        LTy::Ref(t) => Ty::Ref(Box::new(lty_to_ty(t))),
        LTy::Array(t) => Ty::Array(Box::new(lty_to_ty(t))),
    }
}

/// SML value restriction: only syntactic values may be generalized.
fn is_value(e: &Exp) -> bool {
    match e {
        Exp::Fn(_, _)
        | Exp::Int(_, _)
        | Exp::Real(_, _)
        | Exp::Str(_, _)
        | Exp::Bool(_, _)
        | Exp::Unit(_)
        | Exp::Var(_, _) => true,
        Exp::Tuple(es, _) | Exp::List(es, _) => es.iter().all(is_value),
        Exp::Cons(h, t, _) => is_value(h) && is_value(t),
        Exp::Ascribe(e, _, _) => is_value(e),
        _ => false,
    }
}
