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
use crate::types::{InferCtx, Scheme, TyId, TypeError};
use kit_lambda::exp::{Prim, VarId, VarTable};
use kit_lambda::ty::{
    ConId, Constructor, DataEnv, Datatype, ExnEnv, ExnId, LTy, SchemeTy, TyConId, EXN_BIND,
    EXN_DIV, EXN_MATCH, EXN_OVERFLOW, EXN_SIZE, EXN_SUBSCRIPT,
};
use kit_lambda::LProgram;
use kit_syntax::ast::{self, BinOp, Exp, Pat, TyExp};
use kit_syntax::parser::MAX_NESTING;
use kit_syntax::Span;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The elaborator as it stands after the prelude has been elaborated and
/// lowered, with the lowered prelude: what every compile continues from.
///
/// All elaboration state — the type arena and unification store, the
/// datatype and exception environments, the variable table, the scopes —
/// lives in [`Elab`] and nowhere else, and neither elaboration nor
/// lowering reads a clock, address or hash order. So continuing from a
/// copy of this state yields the program that elaborating and lowering
/// the prelude again would: the same `VarId`s, the same type-variable ids.
/// The copy is cheap: the arena and the variable table are flat vectors,
/// and the prelude's scope is shared, not copied.
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
        el.scopes.freeze();
        el.tyscopes.freeze();
        Ok(Prelude { el, lowered })
    }

    /// Elaborates and lowers `user` after the prelude, inside the prelude
    /// bindings it reaches.
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

    /// The lowered prelude and the variables it is numbered in.
    #[cfg(test)]
    pub(crate) fn lowered(&self) -> (&lower::LoweredPrelude, &VarTable) {
        (&self.lowered, &self.el.vars)
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

#[derive(Debug, Clone, Copy)]
enum Binding {
    Val(VarId, Scheme),
    Builtin(Builtin),
    Ctor(TyConId, ConId),
    Exn(ExnId),
}

#[derive(Debug, Clone, Copy)]
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

/// Nested name scopes over a frozen bottom layer that every copy of the
/// elaborator shares: the prelude's top level.
#[derive(Clone)]
struct Scopes<T> {
    base: Arc<HashMap<String, T>>,
    layers: Vec<HashMap<String, T>>,
}

impl<T> Scopes<T> {
    fn new(top: HashMap<String, T>) -> Self {
        Scopes {
            base: Arc::default(),
            layers: vec![top],
        }
    }

    fn push(&mut self) {
        self.layers.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.layers.pop();
    }

    fn bind(&mut self, name: &str, b: T) {
        let top = self.layers.last_mut().expect("a scope is open");
        top.insert(name.to_string(), b);
    }

    fn lookup(&self, name: &str) -> Option<&T> {
        self.layers
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .or_else(|| self.base.get(name))
    }

    /// Makes the top level the shared base, under a fresh empty top level.
    fn freeze(&mut self) {
        assert!(
            self.layers.len() == 1 && self.base.is_empty(),
            "frozen once, at top level"
        );
        self.base = Arc::new(std::mem::take(&mut self.layers[0]));
    }
}

#[derive(Clone)]
struct Elab {
    cx: InferCtx,
    data: DataEnv,
    exns: ExnEnv,
    vars: VarTable,
    scopes: Scopes<Binding>,
    tyscopes: Scopes<TyDef>,
    anno_tyvars: HashMap<String, TyId>,
    last_val: Option<(VarId, TyId)>,
    user_phase: bool,
    /// Nesting of the expression being inferred, against
    /// [`kit_syntax::parser::MAX_NESTING`].
    depth: usize,
}

/// The variables one pattern binds, in order, and the set of their names,
/// so a wide tuple pattern costs its width, not its width squared.
struct PatBinds<'p> {
    list: Vec<(&'p str, VarId, TyId)>,
    names: HashSet<&'p str>,
}

impl<'p> PatBinds<'p> {
    fn new() -> Self {
        PatBinds {
            list: Vec::new(),
            names: HashSet::new(),
        }
    }

    /// Adds `name` unless the pattern already binds it; `false` if it does.
    fn add(&mut self, name: &'p str, v: VarId, t: TyId) -> bool {
        crate::count_work(|| 1);
        let fresh = self.names.insert(name);
        if fresh {
            self.list.push((name, v, t));
        }
        fresh
    }
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
            scopes: Scopes::new(scope),
            tyscopes: Scopes::new(tyscope),
            anno_tyvars: HashMap::new(),
            last_val: None,
            user_phase: false,
            depth: 0,
        }
    }

    // ------------------------------------------------------------- scoping

    fn push_scope(&mut self) {
        self.scopes.push();
        self.tyscopes.push();
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
        self.tyscopes.pop();
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes.bind(name, b);
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.scopes.lookup(name).copied()
    }

    fn unify_at(&mut self, span: Span, a: TyId, b: TyId) -> Result<(), TypeError> {
        self.cx.unify(a, b).map_err(|m| TypeError::new(m, span))
    }

    /// The argument type of constructor `con` of `tycon` at `targs`.
    fn con_arg_ty(&mut self, tycon: TyConId, con: ConId, targs: &[TyId]) -> TyId {
        let arg = self.data.get(tycon).constructors[con.0 as usize]
            .arg
            .as_ref();
        scheme_to_ty(
            &mut self.cx,
            arg.expect("a constructor with an argument"),
            targs,
        )
    }

    /// The argument type of exception `exn`, if it carries one.
    fn exn_arg_ty(&mut self, exn: ExnId) -> Option<TyId> {
        let arg = self.exns.get(exn).arg.as_ref()?;
        Some(lty_to_ty(&mut self.cx, arg))
    }

    // ----------------------------------------------------- type expressions

    fn ty_of_tyexp(&mut self, t: &TyExp, span: Span) -> Result<TyId, TypeError> {
        match t {
            TyExp::Var(v) => {
                if let Some(ty) = self.anno_tyvars.get(v) {
                    return Ok(*ty);
                }
                let ty = self.cx.fresh();
                self.anno_tyvars.insert(v.clone(), ty);
                Ok(ty)
            }
            TyExp::Tuple(ts) => {
                let tys = ts
                    .iter()
                    .map(|t| self.ty_of_tyexp(t, span))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.cx.tuple(&tys))
            }
            TyExp::Arrow(a, b) => {
                let a = self.ty_of_tyexp(a, span)?;
                let b = self.ty_of_tyexp(b, span)?;
                Ok(self.cx.arrow(a, b))
            }
            TyExp::Con(name, args) => {
                let args: Vec<TyId> = args
                    .iter()
                    .map(|t| self.ty_of_tyexp(t, span))
                    .collect::<Result<Vec<_>, _>>()?;
                let def = *self
                    .tyscopes
                    .lookup(name)
                    .ok_or_else(|| TypeError::new(format!("unknown type `{name}`"), span))?;
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
                let base = |t: TyId| expect_arity(0).map(|()| t);
                match def {
                    TyDef::Int => base(TyId::INT),
                    TyDef::Real => base(TyId::REAL),
                    TyDef::Str => base(TyId::STR),
                    TyDef::Bool => base(TyId::BOOL),
                    TyDef::Unit => base(TyId::UNIT),
                    TyDef::Exn => base(TyId::EXN),
                    TyDef::List => {
                        expect_arity(1)?;
                        Ok(self.cx.list(args[0]))
                    }
                    TyDef::Ref => {
                        expect_arity(1)?;
                        Ok(self.cx.reference(args[0]))
                    }
                    TyDef::Array => {
                        expect_arity(1)?;
                        Ok(self.cx.array(args[0]))
                    }
                    TyDef::Data(id, arity) => {
                        expect_arity(arity as usize)?;
                        Ok(self.cx.con(id, &args))
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
                    .tyscopes
                    .lookup(name)
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

    fn infer_dec(&mut self, dec: &ast::Dec) -> Result<Option<TDec>, TypeError> {
        match dec {
            ast::Dec::Val { pat, exp, span } => {
                self.cx.level += 1;
                let (trhs, rhs_ty) = self.infer_exp(exp)?;
                self.cx.level -= 1;
                let mut binds = PatBinds::new();
                let tpat = self.infer_pat(pat, rhs_ty, &mut binds)?;
                let generalizable = is_value(exp);
                for (name, var, ty) in binds.list {
                    let scheme = if generalizable {
                        self.cx.generalize(ty)
                    } else {
                        Scheme::mono(ty)
                    };
                    self.bind(name, Binding::Val(var, scheme));
                }
                if self.user_phase {
                    if let Pat::Var(name, _) = pat {
                        if let Some(Binding::Val(v, _)) = self.lookup(name) {
                            self.last_val = Some((v, rhs_ty));
                        }
                    }
                }
                Ok(Some(TDec::Val {
                    pat: tpat,
                    rhs: trhs,
                    span: *span,
                }))
            }
            ast::Dec::Fun { binds, .. } => self.infer_fun_group(binds).map(Some),
            ast::Dec::Datatype { binds, span } => {
                self.infer_datatypes(binds, *span)?;
                Ok(None)
            }
            ast::Dec::Exception { name, arg, span } => {
                let arg_lty = match arg {
                    Some(t) => {
                        let ty = self.ty_of_tyexp(t, *span)?;
                        Some(self.cx.to_lty(ty))
                    }
                    None => None,
                };
                let id = self.exns.define(name, arg_lty);
                self.bind(name, Binding::Exn(id));
                Ok(None)
            }
        }
    }

    fn infer_datatypes(&mut self, binds: &[ast::DataBind], span: Span) -> Result<(), TypeError> {
        // Pass 1: reserve ids so datatypes can be mutually recursive.
        let ids: Vec<TyConId> = binds
            .iter()
            .map(|b| {
                let id = self.data.reserve(&b.name);
                self.tyscopes
                    .bind(&b.name, TyDef::Data(id, b.tyvars.len() as u32));
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

    fn infer_fun_group(&mut self, binds: &[ast::FunBind]) -> Result<TDec, TypeError> {
        self.cx.level += 1;
        // Monomorphic bindings for the whole group.
        let mut sigs = Vec::new();
        for b in binds {
            let arity = b.clauses[0].pats.len();
            let param_tys: Vec<TyId> = (0..arity).map(|_| self.cx.fresh()).collect();
            let ret = self.cx.fresh();
            let fun_ty = param_tys
                .iter()
                .rev()
                .fold(ret, |acc, p| self.cx.arrow(*p, acc));
            let var = self.vars.fresh(&b.name);
            self.bind(&b.name, Binding::Val(var, Scheme::mono(fun_ty)));
            sigs.push((var, param_tys, ret, fun_ty));
        }
        let mut tfuns = Vec::new();
        for (b, (var, param_tys, ret, _)) in binds.iter().zip(&sigs) {
            let mut clauses = Vec::new();
            for clause in &b.clauses {
                self.push_scope();
                let mut pats = Vec::new();
                for (p, pt) in clause.pats.iter().zip(param_tys) {
                    let mut cbinds = PatBinds::new();
                    let tp = self.infer_pat(p, *pt, &mut cbinds)?;
                    for (name, v, t) in cbinds.list {
                        self.bind(name, Binding::Val(v, Scheme::mono(t)));
                    }
                    pats.push(tp);
                }
                let (body, bty) = self.infer_exp(&clause.body)?;
                self.unify_at(clause.body.span(), bty, *ret)?;
                self.pop_scope();
                clauses.push((pats, body));
            }
            let params: Vec<(VarId, TyId)> = param_tys
                .iter()
                .enumerate()
                .map(|(i, t)| (self.vars.fresh(&format!("{}#{}", b.name, i)), *t))
                .collect();
            tfuns.push(TFun {
                var: *var,
                params,
                ret: *ret,
                clauses,
                span: b.span,
            });
        }
        self.cx.level -= 1;
        // Generalize and re-bind.
        for (b, (var, _, _, fun_ty)) in binds.iter().zip(&sigs) {
            let scheme = self.cx.generalize(*fun_ty);
            self.bind(&b.name, Binding::Val(*var, scheme));
        }
        Ok(TDec::Fun(tfuns))
    }

    // ------------------------------------------------------------- patterns

    fn infer_pat<'p>(
        &mut self,
        pat: &'p Pat,
        expected: TyId,
        binds: &mut PatBinds<'p>,
    ) -> Result<TPat, TypeError> {
        let span = pat.span();
        match pat {
            Pat::Wild(_) => Ok(TPat::Wild),
            Pat::Unit(_) => {
                self.unify_at(span, expected, TyId::UNIT)?;
                Ok(TPat::Wild)
            }
            Pat::Int(n, _) => {
                self.unify_at(span, expected, TyId::INT)?;
                Ok(TPat::Int(*n))
            }
            Pat::Str(s, _) => {
                self.unify_at(span, expected, TyId::STR)?;
                Ok(TPat::Str(s.clone()))
            }
            Pat::Bool(b, _) => {
                self.unify_at(span, expected, TyId::BOOL)?;
                Ok(TPat::Bool(*b))
            }
            Pat::Var(name, _) => match self.lookup(name) {
                Some(Binding::Ctor(tycon, con)) => {
                    let dt = self.data.get(tycon);
                    if dt.constructors[con.0 as usize].arg.is_some() {
                        return Err(TypeError::new(
                            format!("constructor `{name}` expects an argument"),
                            span,
                        ));
                    }
                    let targs: Vec<TyId> = (0..dt.arity).map(|_| self.cx.fresh()).collect();
                    let ty = self.cx.con(tycon, &targs);
                    self.unify_at(span, expected, ty)?;
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
                    self.unify_at(span, expected, TyId::EXN)?;
                    Ok(TPat::Exn { exn: id, arg: None })
                }
                _ => {
                    let v = self.vars.fresh(name);
                    if !binds.add(name, v, expected) {
                        return Err(TypeError::new(
                            format!("duplicate variable `{name}` in pattern"),
                            span,
                        ));
                    }
                    Ok(TPat::Var(v, expected))
                }
            },
            Pat::Tuple(ps, _) => {
                let tys: Vec<TyId> = ps.iter().map(|_| self.cx.fresh()).collect();
                let ty = self.cx.tuple(&tys);
                self.unify_at(span, expected, ty)?;
                let tps = ps
                    .iter()
                    .zip(&tys)
                    .map(|(p, t)| self.infer_pat(p, *t, binds))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(TPat::Tuple(tps))
            }
            Pat::Con(name, argp, _) => match self.lookup(name) {
                Some(Binding::Ctor(tycon, con)) => {
                    let dt = self.data.get(tycon);
                    let arity = dt.arity;
                    if dt.constructors[con.0 as usize].arg.is_none() {
                        return Err(TypeError::new(
                            format!("constructor `{name}` takes no argument"),
                            span,
                        ));
                    }
                    let targs: Vec<TyId> = (0..arity).map(|_| self.cx.fresh()).collect();
                    let ty = self.cx.con(tycon, &targs);
                    self.unify_at(span, expected, ty)?;
                    let arg_ty = self.con_arg_ty(tycon, con, &targs);
                    let tp = self.infer_pat(argp, arg_ty, binds)?;
                    Ok(TPat::Con {
                        tycon,
                        con,
                        targs,
                        arg: Some(Box::new(tp)),
                    })
                }
                Some(Binding::Exn(id)) => {
                    if self.exns.get(id).arg.is_none() {
                        return Err(TypeError::new(
                            format!("exception `{name}` takes no argument"),
                            span,
                        ));
                    }
                    self.unify_at(span, expected, TyId::EXN)?;
                    let arg_ty = self.exn_arg_ty(id).expect("checked above");
                    let tp = self.infer_pat(argp, arg_ty, binds)?;
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
                let list = self.cx.list(elem);
                self.unify_at(span, expected, list)?;
                let mut out = TPat::Con {
                    tycon: kit_lambda::ty::LIST,
                    con: kit_lambda::ty::NIL,
                    targs: vec![elem],
                    arg: None,
                };
                for p in ps.iter().rev() {
                    let tp = self.infer_pat(p, elem, binds)?;
                    out = TPat::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![elem],
                        arg: Some(Box::new(TPat::Tuple(vec![tp, out]))),
                    };
                }
                Ok(out)
            }
            Pat::Cons(h, t, _) => {
                let elem = self.cx.fresh();
                let list = self.cx.list(elem);
                self.unify_at(span, expected, list)?;
                let th = self.infer_pat(h, elem, binds)?;
                let tt = self.infer_pat(t, list, binds)?;
                Ok(TPat::Con {
                    tycon: kit_lambda::ty::LIST,
                    con: kit_lambda::ty::CONS,
                    targs: vec![elem],
                    arg: Some(Box::new(TPat::Tuple(vec![th, tt]))),
                })
            }
            Pat::Ascribe(p, t, _) => {
                let ty = self.ty_of_tyexp(t, span)?;
                self.unify_at(span, expected, ty)?;
                self.infer_pat(p, ty, binds)
            }
        }
    }

    // ----------------------------------------------------------- expressions

    fn infer_rules(
        &mut self,
        rules: &[ast::Rule],
        scrut_ty: TyId,
        result_ty: TyId,
    ) -> Result<Vec<TRule>, TypeError> {
        let mut out = Vec::new();
        for r in rules {
            self.push_scope();
            let mut binds = PatBinds::new();
            let tp = self.infer_pat(&r.pat, scrut_ty, &mut binds)?;
            for (name, v, t) in binds.list {
                self.bind(name, Binding::Val(v, Scheme::mono(t)));
            }
            let (te, ty) = self.infer_exp(&r.exp)?;
            self.unify_at(r.exp.span(), ty, result_ty)?;
            self.pop_scope();
            out.push(TRule { pat: tp, exp: te });
        }
        Ok(out)
    }

    /// Infers `exp`, one level deeper. The parser bounded its own
    /// recursion, but `1 + 1 + …` nests the tree in a loop there and in
    /// recursion here (and in every pass that walks the typed tree).
    fn infer_exp(&mut self, exp: &Exp) -> Result<(TExp, TyId), TypeError> {
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

    /// A sequence of expressions and the type of the last one (`unit` for
    /// none).
    fn infer_seq(&mut self, es: &[Exp]) -> Result<(Vec<TExp>, TyId), TypeError> {
        let mut tes = Vec::new();
        let mut last_ty = TyId::UNIT;
        for e in es {
            let (te, ty) = self.infer_exp(e)?;
            tes.push(te);
            last_ty = ty;
        }
        Ok((tes, last_ty))
    }

    fn infer_exp_at(&mut self, exp: &Exp) -> Result<(TExp, TyId), TypeError> {
        let span = exp.span();
        match exp {
            Exp::Int(n, _) => Ok((TExp::Int(*n), TyId::INT)),
            Exp::Real(r, _) => Ok((TExp::Real(*r), TyId::REAL)),
            Exp::Str(s, _) => Ok((TExp::Str(s.clone()), TyId::STR)),
            Exp::Bool(b, _) => Ok((TExp::Bool(*b), TyId::BOOL)),
            Exp::Unit(_) => Ok((TExp::Unit, TyId::UNIT)),
            Exp::Var(name, _) => self.infer_var(name, span),
            Exp::Tuple(es, _) => {
                let mut tes = Vec::new();
                let mut tys = Vec::new();
                for e in es {
                    let (te, ty) = self.infer_exp(e)?;
                    tes.push(te);
                    tys.push(ty);
                }
                Ok((TExp::Tuple(tes), self.cx.tuple(&tys)))
            }
            Exp::List(es, _) => {
                let elem = self.cx.fresh();
                let mut out = TExp::Con {
                    tycon: kit_lambda::ty::LIST,
                    con: kit_lambda::ty::NIL,
                    targs: vec![elem],
                    arg: None,
                };
                for e in es.iter().rev() {
                    let (te, ty) = self.infer_exp(e)?;
                    self.unify_at(e.span(), ty, elem)?;
                    out = TExp::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![elem],
                        arg: Some(Box::new(TExp::Tuple(vec![te, out]))),
                    };
                }
                Ok((out, self.cx.list(elem)))
            }
            Exp::Cons(h, t, _) => {
                let (th, hty) = self.infer_exp(h)?;
                let (tt, tty) = self.infer_exp(t)?;
                let list = self.cx.list(hty);
                self.unify_at(span, tty, list)?;
                Ok((
                    TExp::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![hty],
                        arg: Some(Box::new(TExp::Tuple(vec![th, tt]))),
                    },
                    list,
                ))
            }
            Exp::Append(a, b, _) => {
                // `xs @ ys` is `append (xs, ys)` from the prelude.
                let (ta, tya) = self.infer_exp(a)?;
                let (tb, tyb) = self.infer_exp(b)?;
                self.unify_at(span, tya, tyb)?;
                let elem = self.cx.fresh();
                let list = self.cx.list(elem);
                self.unify_at(span, tya, list)?;
                let Some(Binding::Val(v, scheme)) = self.lookup("append") else {
                    return Err(TypeError::new("prelude `append` is missing", span));
                };
                let fty = self.cx.instantiate(scheme);
                let arg = self.cx.tuple(&[tya, tyb]);
                let want = self.cx.arrow(arg, tya);
                self.unify_at(span, fty, want)?;
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
                self.unify_at(span, ty, n)?;
                Ok((
                    TExp::Overload {
                        op: OvOp::Neg,
                        args: vec![te],
                        ty: n,
                        span,
                    },
                    n,
                ))
            }
            Exp::Deref(e, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let a = self.cx.fresh();
                let cell = self.cx.reference(a);
                self.unify_at(span, ty, cell)?;
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
                self.unify_at(span, ty, TyId::BOOL)?;
                Ok((
                    TExp::If(
                        Box::new(te),
                        Box::new(TExp::Bool(false)),
                        Box::new(TExp::Bool(true)),
                    ),
                    TyId::BOOL,
                ))
            }
            Exp::Andalso(a, b, _) => {
                let (ta, tya) = self.infer_exp(a)?;
                let (tb, tyb) = self.infer_exp(b)?;
                self.unify_at(span, tya, TyId::BOOL)?;
                self.unify_at(span, tyb, TyId::BOOL)?;
                Ok((
                    TExp::If(Box::new(ta), Box::new(tb), Box::new(TExp::Bool(false))),
                    TyId::BOOL,
                ))
            }
            Exp::Orelse(a, b, _) => {
                let (ta, tya) = self.infer_exp(a)?;
                let (tb, tyb) = self.infer_exp(b)?;
                self.unify_at(span, tya, TyId::BOOL)?;
                self.unify_at(span, tyb, TyId::BOOL)?;
                Ok((
                    TExp::If(Box::new(ta), Box::new(TExp::Bool(true)), Box::new(tb)),
                    TyId::BOOL,
                ))
            }
            Exp::If(c, t, f, _) => {
                let (tc, cty) = self.infer_exp(c)?;
                self.unify_at(c.span(), cty, TyId::BOOL)?;
                let (tt, tty) = self.infer_exp(t)?;
                let (tf, fty) = self.infer_exp(f)?;
                self.unify_at(span, tty, fty)?;
                Ok((TExp::If(Box::new(tc), Box::new(tt), Box::new(tf)), tty))
            }
            Exp::While(c, b, _) => {
                let (tc, cty) = self.infer_exp(c)?;
                self.unify_at(c.span(), cty, TyId::BOOL)?;
                let (tb, bty) = self.infer_exp(b)?;
                self.unify_at(b.span(), bty, TyId::UNIT)?;
                Ok((TExp::While(Box::new(tc), Box::new(tb)), TyId::UNIT))
            }
            Exp::Case(scrut, rules, _) => {
                let (ts, sty) = self.infer_exp(scrut)?;
                let rty = self.cx.fresh();
                let trules = self.infer_rules(rules, sty, rty)?;
                Ok((
                    TExp::Case {
                        scrut: Box::new(ts),
                        sty,
                        rules: trules,
                        rty,
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
                if let [ast::Rule {
                    pat: Pat::Var(name, _),
                    exp: body,
                }] = rules.as_slice()
                {
                    if !matches!(
                        self.lookup(name),
                        Some(Binding::Ctor(_, _)) | Some(Binding::Exn(_))
                    ) {
                        self.push_scope();
                        let v = self.vars.fresh(name);
                        self.bind(name, Binding::Val(v, Scheme::mono(pty)));
                        let (tb, bty) = self.infer_exp(body)?;
                        self.unify_at(span, bty, rty)?;
                        self.pop_scope();
                        return Ok((
                            TExp::Fn {
                                param: v,
                                pty,
                                rty,
                                body: Box::new(tb),
                            },
                            self.cx.arrow(pty, rty),
                        ));
                    }
                }
                let pv = self.vars.fresh("arg");
                let trules = self.infer_rules(rules, pty, rty)?;
                let body = TExp::Case {
                    scrut: Box::new(TExp::Var(pv, pty)),
                    sty: pty,
                    rules: trules,
                    rty,
                    span,
                };
                Ok((
                    TExp::Fn {
                        param: pv,
                        pty,
                        rty,
                        body: Box::new(body),
                    },
                    self.cx.arrow(pty, rty),
                ))
            }
            Exp::Let(decs, body, _) => {
                self.push_scope();
                let mut tdecs = Vec::new();
                for d in decs {
                    tdecs.extend(self.infer_dec(d)?);
                }
                let (mut tes, last_ty) = self.infer_seq(body)?;
                self.pop_scope();
                let body_exp = if tes.len() == 1 {
                    tes.pop().unwrap()
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
                let (tes, last_ty) = self.infer_seq(es)?;
                Ok((TExp::Seq(tes), last_ty))
            }
            Exp::Raise(e, _) => {
                let (te, ty) = self.infer_exp(e)?;
                self.unify_at(span, ty, TyId::EXN)?;
                let rty = self.cx.fresh();
                Ok((TExp::Raise(Box::new(te), rty), rty))
            }
            Exp::Handle(e, rules, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let trules = self.infer_rules(rules, TyId::EXN, ty)?;
                Ok((
                    TExp::Handle {
                        body: Box::new(te),
                        rules: trules,
                        rty: ty,
                        span,
                    },
                    ty,
                ))
            }
            Exp::Ascribe(e, t, _) => {
                let (te, ty) = self.infer_exp(e)?;
                let want = self.ty_of_tyexp(t, span)?;
                self.unify_at(span, ty, want)?;
                Ok((te, want))
            }
        }
    }

    fn infer_var(&mut self, name: &str, span: Span) -> Result<(TExp, TyId), TypeError> {
        // `op+`-style references are expanded to overloaded lambdas by the
        // lowerer; here they become Overload/Eq-producing functions.
        if let Some(rest) = name.strip_prefix("op") {
            if !rest.is_empty() && self.lookup(name).is_none() {
                return self.infer_op_section(rest, span);
            }
        }
        match self.lookup(name) {
            Some(Binding::Val(v, scheme)) => {
                let ty = self.cx.instantiate(scheme);
                Ok((TExp::Var(v, ty), ty))
            }
            Some(Binding::Builtin(b)) => {
                let ty = b.fresh_ty(&mut self.cx);
                Ok((TExp::Builtin(b, ty), ty))
            }
            Some(Binding::Ctor(tycon, con)) => {
                let dt = self.data.get(tycon);
                let carries = dt.constructors[con.0 as usize].arg.is_some();
                let targs: Vec<TyId> = (0..dt.arity).map(|_| self.cx.fresh()).collect();
                let res_ty = self.cx.con(tycon, &targs);
                if !carries {
                    return Ok((
                        TExp::Con {
                            tycon,
                            con,
                            targs,
                            arg: None,
                        },
                        res_ty,
                    ));
                }
                let arg_ty = self.con_arg_ty(tycon, con, &targs);
                let fun_ty = self.cx.arrow(arg_ty, res_ty);
                Ok((TExp::ConVal { tycon, con, targs }, fun_ty))
            }
            Some(Binding::Exn(id)) => match self.exn_arg_ty(id) {
                None => Ok((TExp::ExCon { exn: id, arg: None }, TyId::EXN)),
                Some(at) => Ok((TExp::ExnVal(id), self.cx.arrow(at, TyId::EXN))),
            },
            None => Err(TypeError::new(format!("unbound variable `{name}`"), span)),
        }
    }

    /// `op +` and friends, used as first-class functions.
    fn infer_op_section(&mut self, sym: &str, span: Span) -> Result<(TExp, TyId), TypeError> {
        let p = self.vars.fresh("p");
        let a = self.vars.fresh("a");
        let b = self.vars.fresh("b");
        // The body, the two operands' types and the result type.
        let (body, a_ty, b_ty, res_ty) = match sym {
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
                        args: vec![TExp::Var(a, t), TExp::Var(b, t)],
                        ty: t,
                        span,
                    },
                    t,
                    t,
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
                        args: vec![TExp::Var(a, t), TExp::Var(b, t)],
                        ty: t,
                        span,
                    },
                    t,
                    t,
                    TyId::BOOL,
                )
            }
            "=" => {
                let t = self.cx.fresh();
                (
                    TExp::Eq {
                        lhs: Box::new(TExp::Var(a, t)),
                        rhs: Box::new(TExp::Var(b, t)),
                        ty: t,
                        negate: false,
                        span,
                    },
                    t,
                    t,
                    TyId::BOOL,
                )
            }
            "div" | "mod" | "/" | "^" => {
                let (prim, t) = match sym {
                    "div" => (Prim::IDiv, TyId::INT),
                    "mod" => (Prim::IMod, TyId::INT),
                    "/" => (Prim::RDiv, TyId::REAL),
                    _ => (Prim::StrConcat, TyId::STR),
                };
                (
                    TExp::Prim {
                        prim,
                        args: vec![TExp::Var(a, t), TExp::Var(b, t)],
                    },
                    t,
                    t,
                    t,
                )
            }
            "::" => {
                let t = self.cx.fresh();
                let list = self.cx.list(t);
                (
                    TExp::Con {
                        tycon: kit_lambda::ty::LIST,
                        con: kit_lambda::ty::CONS,
                        targs: vec![t],
                        arg: Some(Box::new(TExp::Tuple(vec![
                            TExp::Var(a, t),
                            TExp::Var(b, list),
                        ]))),
                    },
                    t,
                    list,
                    list,
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
        let p_ty = self.cx.tuple(&[a_ty, b_ty]);
        let case = TExp::Case {
            scrut: Box::new(TExp::Var(p, p_ty)),
            sty: p_ty,
            rules: vec![TRule {
                pat: TPat::Tuple(vec![TPat::Var(a, a_ty), TPat::Var(b, b_ty)]),
                exp: body,
            }],
            rty: res_ty,
            span,
        };
        Ok((
            TExp::Fn {
                param: p,
                pty: p_ty,
                rty: res_ty,
                body: Box::new(case),
            },
            self.cx.arrow(p_ty, res_ty),
        ))
    }

    fn infer_app(&mut self, f: &Exp, a: &Exp, span: Span) -> Result<(TExp, TyId), TypeError> {
        // Constructor / exception application is built directly.
        if let Exp::Var(name, _) = f {
            match self.lookup(name) {
                Some(Binding::Ctor(tycon, con)) => {
                    let dt = self.data.get(tycon);
                    if dt.constructors[con.0 as usize].arg.is_some() {
                        let targs: Vec<TyId> = (0..dt.arity).map(|_| self.cx.fresh()).collect();
                        let arg_ty = self.con_arg_ty(tycon, con, &targs);
                        let (ta, tya) = self.infer_exp(a)?;
                        self.unify_at(span, tya, arg_ty)?;
                        let ty = self.cx.con(tycon, &targs);
                        return Ok((
                            TExp::Con {
                                tycon,
                                con,
                                targs,
                                arg: Some(Box::new(ta)),
                            },
                            ty,
                        ));
                    }
                }
                Some(Binding::Exn(id)) if self.exns.get(id).arg.is_some() => {
                    let (ta, tya) = self.infer_exp(a)?;
                    let at = self.exn_arg_ty(id).expect("checked above");
                    self.unify_at(span, tya, at)?;
                    return Ok((
                        TExp::ExCon {
                            exn: id,
                            arg: Some(Box::new(ta)),
                        },
                        TyId::EXN,
                    ));
                }
                _ => {}
            }
        }
        let (tf, fty) = self.infer_exp(f)?;
        let (ta, aty) = self.infer_exp(a)?;
        let r = self.cx.fresh();
        let want = self.cx.arrow(aty, r);
        self.unify_at(span, fty, want)?;
        Ok((TExp::App(Box::new(tf), Box::new(ta)), r))
    }

    fn infer_binop(
        &mut self,
        op: BinOp,
        a: &Exp,
        b: &Exp,
        span: Span,
    ) -> Result<(TExp, TyId), TypeError> {
        let (ta, tya) = self.infer_exp(a)?;
        let (tb, tyb) = self.infer_exp(b)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let t = builtins::fresh_num(&mut self.cx);
                self.unify_at(span, tya, t)?;
                self.unify_at(span, tyb, t)?;
                let ov = match op {
                    BinOp::Add => OvOp::Add,
                    BinOp::Sub => OvOp::Sub,
                    _ => OvOp::Mul,
                };
                Ok((
                    TExp::Overload {
                        op: ov,
                        args: vec![ta, tb],
                        ty: t,
                        span,
                    },
                    t,
                ))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let t = builtins::fresh_ord(&mut self.cx);
                self.unify_at(span, tya, t)?;
                self.unify_at(span, tyb, t)?;
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
                    TyId::BOOL,
                ))
            }
            BinOp::Div | BinOp::Mod | BinOp::RDiv | BinOp::Concat => {
                let (prim, t) = match op {
                    BinOp::Div => (Prim::IDiv, TyId::INT),
                    BinOp::Mod => (Prim::IMod, TyId::INT),
                    BinOp::RDiv => (Prim::RDiv, TyId::REAL),
                    _ => (Prim::StrConcat, TyId::STR),
                };
                self.unify_at(span, tya, t)?;
                self.unify_at(span, tyb, t)?;
                Ok((
                    TExp::Prim {
                        prim,
                        args: vec![ta, tb],
                    },
                    t,
                ))
            }
            BinOp::Eq | BinOp::Neq => {
                self.unify_at(span, tya, tyb)?;
                Ok((
                    TExp::Eq {
                        lhs: Box::new(ta),
                        rhs: Box::new(tb),
                        ty: tya,
                        negate: op == BinOp::Neq,
                        span,
                    },
                    TyId::BOOL,
                ))
            }
            BinOp::Assign => {
                let cell = self.cx.fresh();
                let ref_ty = self.cx.reference(cell);
                self.unify_at(span, tya, ref_ty)?;
                self.unify_at(span, tyb, cell)?;
                Ok((
                    TExp::Prim {
                        prim: Prim::RefSet,
                        args: vec![ta, tb],
                    },
                    TyId::UNIT,
                ))
            }
            BinOp::Compose => {
                // f o g  =  let vf = f; vg = g in fn x => vf (vg x)
                let x = self.vars.fresh("x");
                let ax = self.cx.fresh();
                let bx = self.cx.fresh();
                let cx2 = self.cx.fresh();
                let g_ty = self.cx.arrow(ax, bx);
                self.unify_at(span, tyb, g_ty)?;
                let f_ty = self.cx.arrow(bx, cx2);
                self.unify_at(span, tya, f_ty)?;
                let vf = self.vars.fresh("f");
                let vg = self.vars.fresh("g");
                let body = TExp::App(
                    Box::new(TExp::Var(vf, tya)),
                    Box::new(TExp::App(
                        Box::new(TExp::Var(vg, tyb)),
                        Box::new(TExp::Var(x, ax)),
                    )),
                );
                let lam = TExp::Fn {
                    param: x,
                    pty: ax,
                    rty: cx2,
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
                Ok((exp, self.cx.arrow(ax, cx2)))
            }
        }
    }
}

/// Instantiates a constructor-argument scheme with inference types.
fn scheme_to_ty(cx: &mut InferCtx, s: &SchemeTy, targs: &[TyId]) -> TyId {
    match s {
        SchemeTy::Param(i) => targs[*i as usize],
        SchemeTy::Int => TyId::INT,
        SchemeTy::Bool => TyId::BOOL,
        SchemeTy::Unit => TyId::UNIT,
        SchemeTy::Real => TyId::REAL,
        SchemeTy::Str => TyId::STR,
        SchemeTy::Exn => TyId::EXN,
        SchemeTy::Con(c, ts) => {
            let ts: Vec<TyId> = ts.iter().map(|t| scheme_to_ty(cx, t, targs)).collect();
            cx.con(*c, &ts)
        }
        SchemeTy::Arrow(a, b) => {
            let a = scheme_to_ty(cx, a, targs);
            let b = scheme_to_ty(cx, b, targs);
            cx.arrow(a, b)
        }
        SchemeTy::Tuple(ts) => {
            let ts: Vec<TyId> = ts.iter().map(|t| scheme_to_ty(cx, t, targs)).collect();
            cx.tuple(&ts)
        }
        SchemeTy::Ref(t) => {
            let t = scheme_to_ty(cx, t, targs);
            cx.reference(t)
        }
        SchemeTy::Array(t) => {
            let t = scheme_to_ty(cx, t, targs);
            cx.array(t)
        }
    }
}

/// Converts a closed `LTy` (exception argument types) back to an inference
/// type.
fn lty_to_ty(cx: &mut InferCtx, t: &LTy) -> TyId {
    match t {
        LTy::TyVar(_) => TyId::UNIT, // exception args must be closed; erased
        LTy::Int => TyId::INT,
        LTy::Bool => TyId::BOOL,
        LTy::Unit => TyId::UNIT,
        LTy::Real => TyId::REAL,
        LTy::Str => TyId::STR,
        LTy::Exn => TyId::EXN,
        LTy::Con(c, ts) => {
            let ts: Vec<TyId> = ts.iter().map(|t| lty_to_ty(cx, t)).collect();
            cx.con(*c, &ts)
        }
        LTy::Arrow(a, b) => {
            let a = lty_to_ty(cx, a);
            let b = lty_to_ty(cx, b);
            cx.arrow(a, b)
        }
        LTy::Tuple(ts) => {
            let ts: Vec<TyId> = ts.iter().map(|t| lty_to_ty(cx, t)).collect();
            cx.tuple(&ts)
        }
        LTy::Ref(t) => {
            let t = lty_to_ty(cx, t);
            cx.reference(t)
        }
        LTy::Array(t) => {
            let t = lty_to_ty(cx, t);
            cx.array(t)
        }
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
