//! Inference types, unification, schemes and overloading kinds.
//!
//! Types live in an arena inside [`InferCtx`], in the shape of
//! `kit-region`'s region types: a type is a `Copy` [`TyId`], a node is a
//! `Copy` [`Ty`] whose children are further ids (a tuple's or datatype's
//! components are a [`Kids`] range of a child pool), and a unification
//! variable is a `Var` node whose [`TvId`] indexes the variable store,
//! where binding it sets a link. So resolving, unifying, generalizing and
//! lowering a type copy indices, and copying the whole context is a few
//! flat copies of `Copy` vectors.

use kit_lambda::ty::{LTy, TyConId};
use kit_syntax::Span;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A type error (also used to surface syntax errors from the driver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    message: String,
    span: Span,
}

impl TypeError {
    /// Creates a new error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        TypeError {
            message: message.into(),
            span,
        }
    }

    /// The error description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source location.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for TypeError {
    /// `line N: message`, or the message alone for an error that has no
    /// source position (`Span::synthetic`, line 0).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.span, self.message)
        }
    }
}

impl Error for TypeError {}

/// A unification variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TvId(pub u32);

/// Overloading kind of a unification variable (SML-style).
///
/// The lattice is `Any > Ord > Num`: `Ord` admits `int`, `real` and
/// `string`; `Num` admits `int` and `real`. Unresolved `Ord`/`Num`
/// variables default to `int` at the end of each top-level declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TvKind {
    /// No constraint.
    Any,
    /// `int`, `real` or `string` (comparison operators).
    Ord,
    /// `int` or `real` (arithmetic operators).
    Num,
}

impl TvKind {
    /// Greatest lower bound of two kinds.
    pub fn meet(self, other: TvKind) -> TvKind {
        self.max(other)
    }
}

/// An inference type: an index into the arena of an [`InferCtx`].
///
/// The base types have one node each, at fixed ids, so `t == TyId::INT`
/// asks whether the resolved `t` is `int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TyId(u32);

impl TyId {
    /// `int`.
    pub const INT: TyId = TyId(0);
    /// `real`.
    pub const REAL: TyId = TyId(1);
    /// `string`.
    pub const STR: TyId = TyId(2);
    /// `bool`.
    pub const BOOL: TyId = TyId(3);
    /// `unit`.
    pub const UNIT: TyId = TyId(4);
    /// `exn`.
    pub const EXN: TyId = TyId(5);
}

/// The nodes every arena starts with, in [`TyId`] constant order.
const BASE: [Ty; 6] = [Ty::Int, Ty::Real, Ty::Str, Ty::Bool, Ty::Unit, Ty::Exn];

/// The component types of a node: a range of the arena's child pool
/// (read it with [`InferCtx::kids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kids {
    start: u32,
    len: u32,
}

impl Kids {
    /// Number of component types.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` for a node without component types.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One node of an inference type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Unification variable (bound or not: see [`InferCtx::resolve`]).
    Var(TvId),
    /// Quantified variable (appears only inside [`Scheme`]s).
    QVar(u32),
    /// Integer.
    Int,
    /// Real.
    Real,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// Unit.
    Unit,
    /// Exception.
    Exn,
    /// Tuple (arity >= 2).
    Tuple(Kids),
    /// Function.
    Arrow(TyId, TyId),
    /// Applied datatype.
    Con(TyConId, Kids),
    /// Reference.
    Ref(TyId),
    /// Array.
    Array(TyId),
}

/// A type scheme `∀ q0..qn . ty`. Only variables of kind `Any` are ever
/// quantified (overloaded ones default instead), so the quantifiers are
/// a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme {
    /// Number of quantified variables: `QVar(0)` to `QVar(quantified - 1)`.
    pub quantified: u32,
    /// The scheme body; quantified variables appear as [`Ty::QVar`].
    pub ty: TyId,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: TyId) -> Self {
        Scheme { quantified: 0, ty }
    }
}

#[derive(Debug, Clone, Copy)]
struct TvState {
    link: Option<TyId>,
    kind: TvKind,
    level: u32,
}

/// The inference context: the type arena, a union-find store of
/// unification variables and the current `let` level (Rémy-style
/// level-based generalization).
#[derive(Debug, Clone)]
pub struct InferCtx {
    nodes: Vec<Ty>,
    /// Per node: does it mention a [`Ty::QVar`]? Instantiation copies only
    /// the nodes that do.
    quantified: Vec<bool>,
    kids: Vec<TyId>,
    tvs: Vec<TvState>,
    /// Every variable that has had a `Num`/`Ord` kind since the last
    /// [`InferCtx::default_overloads`]: the only ones it can have to default.
    overloaded: Vec<TvId>,
    /// Current generalization level.
    pub level: u32,
}

impl Default for InferCtx {
    fn default() -> Self {
        InferCtx {
            nodes: BASE.to_vec(),
            quantified: vec![false; BASE.len()],
            kids: Vec::new(),
            tvs: Vec::new(),
            overloaded: Vec::new(),
            level: 0,
        }
    }
}

impl InferCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: Ty, quantified: bool) -> TyId {
        crate::count_work(|| 1);
        let id = TyId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.quantified.push(quantified);
        id
    }

    fn push_kids(&mut self, ts: &[TyId]) -> Kids {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(ts);
        Kids {
            start,
            len: ts.len() as u32,
        }
    }

    fn any_quantified(&self, ts: &[TyId]) -> bool {
        ts.iter().any(|t| self.quantified[t.0 as usize])
    }

    /// A fresh unification variable at the current level.
    pub fn fresh(&mut self) -> TyId {
        self.fresh_kinded(TvKind::Any)
    }

    /// A fresh unification variable with an overloading kind.
    pub fn fresh_kinded(&mut self, kind: TvKind) -> TyId {
        let id = TvId(self.tvs.len() as u32);
        self.tvs.push(TvState {
            link: None,
            kind,
            level: self.level,
        });
        if kind != TvKind::Any {
            self.overloaded.push(id);
        }
        self.push(Ty::Var(id), false)
    }

    /// `a -> b`.
    pub fn arrow(&mut self, a: TyId, b: TyId) -> TyId {
        let q = self.any_quantified(&[a, b]);
        self.push(Ty::Arrow(a, b), q)
    }

    /// The tuple of `ts` (arity >= 2).
    pub fn tuple(&mut self, ts: &[TyId]) -> TyId {
        let q = self.any_quantified(ts);
        let kids = self.push_kids(ts);
        self.push(Ty::Tuple(kids), q)
    }

    /// The datatype `tycon` applied to `ts`.
    pub fn con(&mut self, tycon: TyConId, ts: &[TyId]) -> TyId {
        let q = self.any_quantified(ts);
        let kids = self.push_kids(ts);
        self.push(Ty::Con(tycon, kids), q)
    }

    /// The builtin `list` type applied to `t`.
    pub fn list(&mut self, t: TyId) -> TyId {
        self.con(kit_lambda::ty::LIST, &[t])
    }

    /// `t ref`.
    pub fn reference(&mut self, t: TyId) -> TyId {
        let q = self.any_quantified(&[t]);
        self.push(Ty::Ref(t), q)
    }

    /// `t array`.
    pub fn array(&mut self, t: TyId) -> TyId {
        let q = self.any_quantified(&[t]);
        self.push(Ty::Array(t), q)
    }

    /// The node `t` names (without following links).
    pub fn node(&self, t: TyId) -> Ty {
        self.nodes[t.0 as usize]
    }

    /// The component types of a tuple or datatype node.
    pub fn kids(&self, kids: Kids) -> &[TyId] {
        &self.kids[kids.range()]
    }

    fn kid(&self, kids: Kids, i: usize) -> TyId {
        self.kids[kids.start as usize + i]
    }

    /// The kind of a variable.
    pub fn kind(&self, v: TvId) -> TvKind {
        self.tvs[v.0 as usize].kind
    }

    /// Follows variable links at the root: the id of the first node that
    /// is not a bound variable. Copies nothing.
    pub fn resolve(&self, mut t: TyId) -> TyId {
        while let Ty::Var(v) = self.node(t) {
            match self.tvs[v.0 as usize].link {
                Some(next) => {
                    crate::count_work(|| 1);
                    t = next;
                }
                None => break,
            }
        }
        t
    }

    /// The node of `t`, links followed.
    pub fn shape(&self, t: TyId) -> Ty {
        self.node(self.resolve(t))
    }

    fn check_kind(&mut self, kind: TvKind, t: TyId) -> Result<(), String> {
        match (kind, self.node(t)) {
            (TvKind::Any, _) => Ok(()),
            (_, Ty::Int) | (_, Ty::Real) => Ok(()),
            (TvKind::Ord, Ty::Str) => Ok(()),
            (k, _) => Err(format!(
                "type {} does not satisfy the {} overloading constraint",
                self.display(t),
                match k {
                    TvKind::Num => "numeric",
                    TvKind::Ord => "ordered",
                    TvKind::Any => unreachable!(),
                }
            )),
        }
    }

    fn occurs_adjust(&mut self, v: TvId, t: TyId) -> Result<(), String> {
        match self.shape(t) {
            Ty::Var(w) => {
                if w == v {
                    return Err("occurs check failed (cyclic type)".to_string());
                }
                // Propagate the level downward so generalization stays sound.
                let lv = self.tvs[v.0 as usize].level;
                let st = &mut self.tvs[w.0 as usize];
                st.level = st.level.min(lv);
                Ok(())
            }
            Ty::Tuple(ks) | Ty::Con(_, ks) => {
                for i in 0..ks.len() {
                    self.occurs_adjust(v, self.kid(ks, i))?;
                }
                Ok(())
            }
            Ty::Arrow(a, b) => {
                self.occurs_adjust(v, a)?;
                self.occurs_adjust(v, b)
            }
            Ty::Ref(t) | Ty::Array(t) => self.occurs_adjust(v, t),
            _ => Ok(()),
        }
    }

    /// Unifies two types.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description on mismatch, occurs-check
    /// failure or overloading-kind violation.
    pub fn unify(&mut self, a: TyId, b: TyId) -> Result<(), String> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if a == b {
            return Ok(());
        }
        match (self.node(a), self.node(b)) {
            (Ty::Var(x), nb) => {
                self.occurs_adjust(x, b)?;
                let kind = self.tvs[x.0 as usize].kind;
                if let Ty::Var(y) = nb {
                    // Merge kinds onto the surviving root.
                    let root = &mut self.tvs[y.0 as usize];
                    if root.kind == TvKind::Any && kind != TvKind::Any {
                        self.overloaded.push(y);
                    }
                    root.kind = kind.meet(root.kind);
                } else {
                    self.check_kind(kind, b)?;
                }
                self.tvs[x.0 as usize].link = Some(b);
                Ok(())
            }
            (_, Ty::Var(_)) => self.unify(b, a),
            (Ty::Int, Ty::Int)
            | (Ty::Real, Ty::Real)
            | (Ty::Str, Ty::Str)
            | (Ty::Bool, Ty::Bool)
            | (Ty::Unit, Ty::Unit)
            | (Ty::Exn, Ty::Exn) => Ok(()),
            (Ty::Tuple(xs), Ty::Tuple(ys)) if xs.len() == ys.len() => self.unify_kids(xs, ys),
            (Ty::Arrow(a1, b1), Ty::Arrow(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (Ty::Con(c1, xs), Ty::Con(c2, ys)) if c1 == c2 && xs.len() == ys.len() => {
                self.unify_kids(xs, ys)
            }
            (Ty::Ref(x), Ty::Ref(y)) | (Ty::Array(x), Ty::Array(y)) => self.unify(x, y),
            _ => Err(format!(
                "type mismatch: {} vs {}",
                self.display(a),
                self.display(b)
            )),
        }
    }

    fn unify_kids(&mut self, xs: Kids, ys: Kids) -> Result<(), String> {
        for i in 0..xs.len() {
            self.unify(self.kid(xs, i), self.kid(ys, i))?;
        }
        Ok(())
    }

    /// Generalizes `ty`, quantifying unlinked variables above `self.level`
    /// whose kind is `Any` (overloaded variables are never generalized, as
    /// in SML). The body shares every subtree without such a variable.
    pub fn generalize(&mut self, ty: TyId) -> Scheme {
        let mut map = HashMap::new();
        let ty = self.gen_walk(ty, &mut map);
        Scheme {
            quantified: map.len() as u32,
            ty,
        }
    }

    /// `t` with its generalizable variables replaced by `QVar`s numbered
    /// in order of first occurrence; `t` itself if it has none.
    fn gen_walk(&mut self, t: TyId, map: &mut HashMap<TvId, TyId>) -> TyId {
        let r = self.resolve(t);
        let out = match self.node(r) {
            Ty::Var(v) => {
                let st = self.tvs[v.0 as usize];
                if st.level > self.level && st.kind == TvKind::Any {
                    match map.get(&v) {
                        Some(q) => *q,
                        None => {
                            let q = self.push(Ty::QVar(map.len() as u32), true);
                            map.insert(v, q);
                            q
                        }
                    }
                } else {
                    r
                }
            }
            Ty::Tuple(ks) => match self.gen_kids(ks, map) {
                Some(ts) => self.tuple(&ts),
                None => r,
            },
            Ty::Con(c, ks) => match self.gen_kids(ks, map) {
                Some(ts) => self.con(c, &ts),
                None => r,
            },
            Ty::Arrow(a, b) => {
                let (ga, gb) = (self.gen_walk(a, map), self.gen_walk(b, map));
                if (ga, gb) == (a, b) {
                    r
                } else {
                    self.arrow(ga, gb)
                }
            }
            Ty::Ref(a) => match self.gen_walk(a, map) {
                ga if ga == a => r,
                ga => self.reference(ga),
            },
            Ty::Array(a) => match self.gen_walk(a, map) {
                ga if ga == a => r,
                ga => self.array(ga),
            },
            _ => r,
        };
        if out == r {
            t
        } else {
            out
        }
    }

    /// The generalized components of `ks`, or `None` if none changed.
    fn gen_kids(&mut self, ks: Kids, map: &mut HashMap<TvId, TyId>) -> Option<Vec<TyId>> {
        let mut changed: Option<Vec<TyId>> = None;
        for i in 0..ks.len() {
            let k = self.kid(ks, i);
            let g = self.gen_walk(k, map);
            if g != k && changed.is_none() {
                changed = Some(self.kids(ks)[..i].to_vec());
            }
            if let Some(ts) = &mut changed {
                ts.push(g);
            }
        }
        changed
    }

    /// Instantiates a scheme with fresh variables, building only the nodes
    /// that mention a quantified variable.
    pub fn instantiate(&mut self, s: Scheme) -> TyId {
        if s.quantified == 0 {
            return s.ty;
        }
        let fresh: Vec<TyId> = (0..s.quantified).map(|_| self.fresh()).collect();
        self.inst_walk(s.ty, &fresh)
    }

    fn inst_walk(&mut self, t: TyId, fresh: &[TyId]) -> TyId {
        if !self.quantified[t.0 as usize] {
            return t;
        }
        match self.node(t) {
            Ty::QVar(q) => fresh[q as usize],
            Ty::Tuple(ks) => {
                let kids = self.inst_kids(ks, fresh);
                self.push(Ty::Tuple(kids), false)
            }
            Ty::Con(c, ks) => {
                let kids = self.inst_kids(ks, fresh);
                self.push(Ty::Con(c, kids), false)
            }
            Ty::Arrow(a, b) => {
                let a = self.inst_walk(a, fresh);
                let b = self.inst_walk(b, fresh);
                self.arrow(a, b)
            }
            Ty::Ref(a) => {
                let a = self.inst_walk(a, fresh);
                self.reference(a)
            }
            Ty::Array(a) => {
                let a = self.inst_walk(a, fresh);
                self.array(a)
            }
            other => unreachable!("{other:?} marked as quantified"),
        }
    }

    /// The instantiated components of `ks`, in a range reserved before
    /// the components' own nodes are built.
    fn inst_kids(&mut self, ks: Kids, fresh: &[TyId]) -> Kids {
        let start = self.kids.len();
        self.kids.extend_from_within(ks.range());
        for i in start..start + ks.len() {
            self.kids[i] = self.inst_walk(self.kids[i], fresh);
        }
        Kids {
            start: start as u32,
            len: ks.len,
        }
    }

    /// Defaults every unresolved `Num`/`Ord` variable to `int`.
    ///
    /// Called at the end of each top-level declaration, mirroring SML's
    /// overloading resolution scope. Looks only at the variables that took
    /// such a kind since the last call, so a program's declarations cost
    /// their own variables, not the whole store each.
    pub fn default_overloads(&mut self) {
        crate::count_work(|| self.overloaded.len());
        for TvId(i) in self.overloaded.drain(..) {
            let st = &mut self.tvs[i as usize];
            if st.link.is_none() {
                st.link = Some(TyId::INT);
            }
        }
    }

    /// Converts a resolved inference type to a `LambdaExp` type. Remaining
    /// unification variables become erased [`LTy::TyVar`]s.
    pub fn to_lty(&self, t: TyId) -> LTy {
        let list = |ks: Kids| self.kids(ks).iter().map(|t| self.to_lty(*t)).collect();
        match self.shape(t) {
            Ty::Var(v) => LTy::TyVar(v.0),
            Ty::QVar(q) => LTy::TyVar(u32::MAX - q),
            Ty::Int => LTy::Int,
            Ty::Real => LTy::Real,
            Ty::Str => LTy::Str,
            Ty::Bool => LTy::Bool,
            Ty::Unit => LTy::Unit,
            Ty::Exn => LTy::Exn,
            Ty::Tuple(ks) => LTy::Tuple(list(ks)),
            Ty::Arrow(a, b) => LTy::arrow(self.to_lty(a), self.to_lty(b)),
            Ty::Con(c, ks) => LTy::Con(c, list(ks)),
            Ty::Ref(t) => LTy::Ref(Box::new(self.to_lty(t))),
            Ty::Array(t) => LTy::Array(Box::new(self.to_lty(t))),
        }
    }

    /// Human-readable form of a type (for error messages).
    pub fn display(&self, t: TyId) -> String {
        let list = |ks: Kids, sep: &str| {
            let inner: Vec<String> = self.kids(ks).iter().map(|t| self.display(*t)).collect();
            inner.join(sep)
        };
        match self.shape(t) {
            Ty::Var(v) => format!("'u{}", v.0),
            Ty::QVar(q) => format!("'q{q}"),
            Ty::Int => "int".to_string(),
            Ty::Real => "real".to_string(),
            Ty::Str => "string".to_string(),
            Ty::Bool => "bool".to_string(),
            Ty::Unit => "unit".to_string(),
            Ty::Exn => "exn".to_string(),
            Ty::Tuple(ks) => format!("({})", list(ks, " * ")),
            Ty::Arrow(a, b) => format!("({} -> {})", self.display(a), self.display(b)),
            Ty::Con(c, ks) if ks.is_empty() => format!("tycon{}", c.0),
            Ty::Con(c, ks) => format!("({}) tycon{}", list(ks, ", "), c.0),
            Ty::Ref(t) => format!("{} ref", self.display(t)),
            Ty::Array(t) => format!("{} array", self.display(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_simple() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        cx.unify(a, TyId::INT).unwrap();
        assert_eq!(cx.resolve(a), TyId::INT);
    }

    #[test]
    fn unify_arrow_propagates() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let b = cx.fresh();
        let ab = cx.arrow(a, b);
        let ib = cx.arrow(TyId::INT, TyId::BOOL);
        cx.unify(ab, ib).unwrap();
        assert_eq!(cx.resolve(a), TyId::INT);
        assert_eq!(cx.resolve(b), TyId::BOOL);
    }

    #[test]
    fn occurs_check() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let la = cx.list(a);
        let err = cx.unify(a, la).unwrap_err();
        assert!(err.contains("occurs"), "{err}");
    }

    #[test]
    fn num_kind_rejects_string() {
        let mut cx = InferCtx::new();
        let a = cx.fresh_kinded(TvKind::Num);
        assert!(cx.unify(a, TyId::STR).is_err());
        let b = cx.fresh_kinded(TvKind::Ord);
        assert!(cx.unify(b, TyId::STR).is_ok());
    }

    #[test]
    fn kind_merge_on_var_var_unification() {
        let mut cx = InferCtx::new();
        let a = cx.fresh_kinded(TvKind::Num);
        let b = cx.fresh_kinded(TvKind::Ord);
        cx.unify(a, b).unwrap();
        // The surviving root must carry Num (the meet).
        assert!(cx.unify(a, TyId::STR).is_err());
    }

    #[test]
    fn generalize_respects_levels() {
        let mut cx = InferCtx::new();
        let outer = cx.fresh(); // level 0
        cx.level = 1;
        let inner = cx.fresh(); // level 1
        cx.level = 0;
        let t = cx.arrow(outer, inner);
        let s = cx.generalize(t);
        // inner quantified, outer not
        assert_eq!(s.quantified, 1);
        assert_eq!(cx.display(s.ty), "('u0 -> 'q0)");
    }

    #[test]
    fn generalize_shares_what_it_does_not_quantify() {
        let mut cx = InferCtx::new();
        let outer = cx.fresh();
        let pair = cx.tuple(&[outer, TyId::INT]);
        cx.level = 1;
        let inner = cx.fresh();
        cx.level = 0;
        let t = cx.arrow(pair, inner);
        let s = cx.generalize(t);
        let Ty::Arrow(p, q) = cx.node(s.ty) else {
            panic!("an arrow generalizes to an arrow")
        };
        assert_eq!(p, pair, "a subtree without quantified variables is shared");
        assert_eq!(cx.node(q), Ty::QVar(0));
        assert_eq!(cx.generalize(pair).ty, pair, "nothing to quantify: no copy");
    }

    #[test]
    fn overloaded_vars_not_generalized_and_default_to_int() {
        let mut cx = InferCtx::new();
        cx.level = 1;
        let n = cx.fresh_kinded(TvKind::Num);
        cx.level = 0;
        let s = cx.generalize(n);
        assert_eq!(s.quantified, 0);
        cx.default_overloads();
        assert_eq!(cx.resolve(n), TyId::INT);
    }

    #[test]
    fn instantiate_copies_only_the_quantified_paths() {
        let mut cx = InferCtx::new();
        let q = cx.push(Ty::QVar(0), true);
        let shared = cx.list(TyId::INT);
        let dom = cx.tuple(&[q, shared]);
        let s = Scheme {
            quantified: 1,
            ty: cx.arrow(dom, q),
        };
        let t1 = cx.instantiate(s);
        let t2 = cx.instantiate(s);
        let Ty::Arrow(d1, _) = cx.node(t1) else {
            panic!("an arrow instantiates to an arrow")
        };
        let Ty::Tuple(ks) = cx.node(d1) else {
            panic!("a tuple instantiates to a tuple")
        };
        assert_eq!(cx.kids(ks)[1], shared);
        let d = cx.tuple(&[TyId::INT, shared]);
        let want1 = cx.arrow(d, TyId::INT);
        cx.unify(t1, want1).unwrap();
        // t2 must still be free to unify at a different type.
        let d = cx.tuple(&[TyId::BOOL, shared]);
        let want2 = cx.arrow(d, TyId::BOOL);
        cx.unify(t2, want2).unwrap();
    }

    #[test]
    fn level_adjustment_on_unification() {
        let mut cx = InferCtx::new();
        let outer = cx.fresh(); // level 0
        cx.level = 1;
        let inner = cx.fresh(); // level 1
        let lo = cx.list(outer);
        cx.unify(inner, lo).unwrap();
        cx.level = 0;
        // `inner` links to list(outer); outer is level 0 and must not be
        // generalized.
        let s = cx.generalize(inner);
        assert_eq!(s.quantified, 0);
    }
}
