//! Inference types, unification, schemes and overloading kinds.

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
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.message)
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

/// An inference type.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    /// Unification variable.
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
    Tuple(Vec<Ty>),
    /// Function.
    Arrow(Box<Ty>, Box<Ty>),
    /// Applied datatype.
    Con(TyConId, Vec<Ty>),
    /// Reference.
    Ref(Box<Ty>),
    /// Array.
    Array(Box<Ty>),
}

impl Ty {
    /// Convenience constructor for `a -> b`.
    pub fn arrow(a: Ty, b: Ty) -> Ty {
        Ty::Arrow(Box::new(a), Box::new(b))
    }

    /// The builtin `list` type applied to `t`.
    pub fn list(t: Ty) -> Ty {
        Ty::Con(kit_lambda::ty::LIST, vec![t])
    }
}

/// A type scheme `∀ q0..qn . ty`, with per-quantifier kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// Kinds of the quantified variables (indexed by `QVar` number).
    pub kinds: Vec<TvKind>,
    /// The scheme body; quantified variables appear as [`Ty::QVar`].
    pub ty: Ty,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: Ty) -> Self {
        Scheme {
            kinds: Vec::new(),
            ty,
        }
    }
}

#[derive(Debug, Clone)]
struct TvState {
    link: Option<Ty>,
    kind: TvKind,
    level: u32,
}

/// The inference context: a union-find store of unification variables and
/// the current `let` level (Rémy-style level-based generalization).
#[derive(Debug, Clone, Default)]
pub struct InferCtx {
    tvs: Vec<TvState>,
    /// Every variable that has had a `Num`/`Ord` kind since the last
    /// [`InferCtx::default_overloads`]: the only ones it can have to default.
    overloaded: Vec<TvId>,
    /// Current generalization level.
    pub level: u32,
}

impl InferCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh unification variable at the current level.
    pub fn fresh(&mut self) -> Ty {
        self.fresh_kinded(TvKind::Any)
    }

    /// A fresh unification variable with an overloading kind.
    pub fn fresh_kinded(&mut self, kind: TvKind) -> Ty {
        let id = TvId(self.tvs.len() as u32);
        self.tvs.push(TvState {
            link: None,
            kind,
            level: self.level,
        });
        if kind != TvKind::Any {
            self.overloaded.push(id);
        }
        Ty::Var(id)
    }

    /// The kind of a variable.
    pub fn kind(&self, v: TvId) -> TvKind {
        self.tvs[v.0 as usize].kind
    }

    /// Follows links one step at the root, returning a shallow-resolved type.
    pub fn resolve(&self, ty: &Ty) -> Ty {
        let mut t = ty.clone();
        while let Ty::Var(v) = t {
            match &self.tvs[v.0 as usize].link {
                Some(next) => t = next.clone(),
                None => return Ty::Var(v),
            }
        }
        t
    }

    /// Fully resolves a type, chasing links at every position.
    pub fn resolve_deep(&self, ty: &Ty) -> Ty {
        let t = self.resolve(ty);
        match t {
            Ty::Tuple(ts) => Ty::Tuple(ts.iter().map(|t| self.resolve_deep(t)).collect()),
            Ty::Arrow(a, b) => Ty::arrow(self.resolve_deep(&a), self.resolve_deep(&b)),
            Ty::Con(c, ts) => Ty::Con(c, ts.iter().map(|t| self.resolve_deep(t)).collect()),
            Ty::Ref(t) => Ty::Ref(Box::new(self.resolve_deep(&t))),
            Ty::Array(t) => Ty::Array(Box::new(self.resolve_deep(&t))),
            other => other,
        }
    }

    fn check_kind(&mut self, kind: TvKind, ty: &Ty) -> Result<(), String> {
        match (kind, ty) {
            (TvKind::Any, _) => Ok(()),
            (_, Ty::Int) | (_, Ty::Real) => Ok(()),
            (TvKind::Ord, Ty::Str) => Ok(()),
            (k, other) => Err(format!(
                "type {} does not satisfy the {} overloading constraint",
                self.display(other),
                match k {
                    TvKind::Num => "numeric",
                    TvKind::Ord => "ordered",
                    TvKind::Any => unreachable!(),
                }
            )),
        }
    }

    fn occurs_adjust(&mut self, v: TvId, ty: &Ty) -> Result<(), String> {
        match self.resolve(ty) {
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
            Ty::Tuple(ts) | Ty::Con(_, ts) => {
                for t in &ts {
                    self.occurs_adjust(v, t)?;
                }
                Ok(())
            }
            Ty::Arrow(a, b) => {
                self.occurs_adjust(v, &a)?;
                self.occurs_adjust(v, &b)
            }
            Ty::Ref(t) | Ty::Array(t) => self.occurs_adjust(v, &t),
            _ => Ok(()),
        }
    }

    /// Unifies two types.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description on mismatch, occurs-check
    /// failure or overloading-kind violation.
    pub fn unify(&mut self, a: &Ty, b: &Ty) -> Result<(), String> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (Ty::Var(x), Ty::Var(y)) if x == y => Ok(()),
            (Ty::Var(x), _) => {
                self.occurs_adjust(*x, &b)?;
                let kind = self.tvs[x.0 as usize].kind;
                if let Ty::Var(y) = &b {
                    // Merge kinds onto the surviving root.
                    let root = &mut self.tvs[y.0 as usize];
                    if root.kind == TvKind::Any && kind != TvKind::Any {
                        self.overloaded.push(*y);
                    }
                    root.kind = kind.meet(root.kind);
                } else {
                    self.check_kind(kind, &b)?;
                }
                self.tvs[x.0 as usize].link = Some(b);
                Ok(())
            }
            (_, Ty::Var(_)) => self.unify(&b, &a),
            (Ty::Int, Ty::Int)
            | (Ty::Real, Ty::Real)
            | (Ty::Str, Ty::Str)
            | (Ty::Bool, Ty::Bool)
            | (Ty::Unit, Ty::Unit)
            | (Ty::Exn, Ty::Exn) => Ok(()),
            (Ty::Tuple(xs), Ty::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Ty::Arrow(a1, b1), Ty::Arrow(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (Ty::Con(c1, xs), Ty::Con(c2, ys)) if c1 == c2 && xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Ty::Ref(x), Ty::Ref(y)) | (Ty::Array(x), Ty::Array(y)) => self.unify(x, y),
            _ => Err(format!(
                "type mismatch: {} vs {}",
                self.display(&a),
                self.display(&b)
            )),
        }
    }

    /// Generalizes `ty`, quantifying unlinked variables above `self.level`
    /// whose kind is `Any` (overloaded variables are never generalized, as
    /// in SML).
    pub fn generalize(&mut self, ty: &Ty) -> Scheme {
        let mut map: HashMap<TvId, u32> = HashMap::new();
        let mut kinds = Vec::new();
        let body = self.gen_walk(ty, &mut map, &mut kinds);
        Scheme { kinds, ty: body }
    }

    fn gen_walk(&mut self, ty: &Ty, map: &mut HashMap<TvId, u32>, kinds: &mut Vec<TvKind>) -> Ty {
        match self.resolve(ty) {
            Ty::Var(v) => {
                let st = &self.tvs[v.0 as usize];
                if st.level > self.level && st.kind == TvKind::Any {
                    let q = *map.entry(v).or_insert_with(|| {
                        kinds.push(TvKind::Any);
                        (kinds.len() - 1) as u32
                    });
                    Ty::QVar(q)
                } else {
                    Ty::Var(v)
                }
            }
            Ty::Tuple(ts) => Ty::Tuple(ts.iter().map(|t| self.gen_walk(t, map, kinds)).collect()),
            Ty::Arrow(a, b) => {
                Ty::arrow(self.gen_walk(&a, map, kinds), self.gen_walk(&b, map, kinds))
            }
            Ty::Con(c, ts) => Ty::Con(c, ts.iter().map(|t| self.gen_walk(t, map, kinds)).collect()),
            Ty::Ref(t) => Ty::Ref(Box::new(self.gen_walk(&t, map, kinds))),
            Ty::Array(t) => Ty::Array(Box::new(self.gen_walk(&t, map, kinds))),
            other => other,
        }
    }

    /// Instantiates a scheme with fresh variables.
    pub fn instantiate(&mut self, s: &Scheme) -> Ty {
        if s.kinds.is_empty() {
            return s.ty.clone();
        }
        let fresh: Vec<Ty> = s.kinds.iter().map(|k| self.fresh_kinded(*k)).collect();
        subst_qvars(&s.ty, &fresh)
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
                st.link = Some(Ty::Int);
            }
        }
    }

    /// Converts a resolved inference type to a `LambdaExp` type. Remaining
    /// unification variables become erased [`LTy::TyVar`]s.
    pub fn to_lty(&self, ty: &Ty) -> LTy {
        match self.resolve(ty) {
            Ty::Var(v) => LTy::TyVar(v.0),
            Ty::QVar(q) => LTy::TyVar(u32::MAX - q),
            Ty::Int => LTy::Int,
            Ty::Real => LTy::Real,
            Ty::Str => LTy::Str,
            Ty::Bool => LTy::Bool,
            Ty::Unit => LTy::Unit,
            Ty::Exn => LTy::Exn,
            Ty::Tuple(ts) => LTy::Tuple(ts.iter().map(|t| self.to_lty(t)).collect()),
            Ty::Arrow(a, b) => LTy::arrow(self.to_lty(&a), self.to_lty(&b)),
            Ty::Con(c, ts) => LTy::Con(c, ts.iter().map(|t| self.to_lty(t)).collect()),
            Ty::Ref(t) => LTy::Ref(Box::new(self.to_lty(&t))),
            Ty::Array(t) => LTy::Array(Box::new(self.to_lty(&t))),
        }
    }

    /// Human-readable form of a type (for error messages).
    pub fn display(&self, ty: &Ty) -> String {
        match self.resolve(ty) {
            Ty::Var(v) => format!("'u{}", v.0),
            Ty::QVar(q) => format!("'q{q}"),
            Ty::Int => "int".to_string(),
            Ty::Real => "real".to_string(),
            Ty::Str => "string".to_string(),
            Ty::Bool => "bool".to_string(),
            Ty::Unit => "unit".to_string(),
            Ty::Exn => "exn".to_string(),
            Ty::Tuple(ts) => {
                let inner: Vec<String> = ts.iter().map(|t| self.display(t)).collect();
                format!("({})", inner.join(" * "))
            }
            Ty::Arrow(a, b) => format!("({} -> {})", self.display(&a), self.display(&b)),
            Ty::Con(c, ts) => {
                if ts.is_empty() {
                    format!("tycon{}", c.0)
                } else {
                    let inner: Vec<String> = ts.iter().map(|t| self.display(t)).collect();
                    format!("({}) tycon{}", inner.join(", "), c.0)
                }
            }
            Ty::Ref(t) => format!("{} ref", self.display(&t)),
            Ty::Array(t) => format!("{} array", self.display(&t)),
        }
    }
}

/// Substitutes `QVar(i)` with `args[i]`.
pub fn subst_qvars(ty: &Ty, args: &[Ty]) -> Ty {
    match ty {
        Ty::QVar(q) => args[*q as usize].clone(),
        Ty::Var(_) | Ty::Int | Ty::Real | Ty::Str | Ty::Bool | Ty::Unit | Ty::Exn => ty.clone(),
        Ty::Tuple(ts) => Ty::Tuple(ts.iter().map(|t| subst_qvars(t, args)).collect()),
        Ty::Arrow(a, b) => Ty::arrow(subst_qvars(a, args), subst_qvars(b, args)),
        Ty::Con(c, ts) => Ty::Con(*c, ts.iter().map(|t| subst_qvars(t, args)).collect()),
        Ty::Ref(t) => Ty::Ref(Box::new(subst_qvars(t, args))),
        Ty::Array(t) => Ty::Array(Box::new(subst_qvars(t, args))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_simple() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        cx.unify(&a, &Ty::Int).unwrap();
        assert_eq!(cx.resolve(&a), Ty::Int);
    }

    #[test]
    fn unify_arrow_propagates() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let b = cx.fresh();
        cx.unify(
            &Ty::arrow(a.clone(), b.clone()),
            &Ty::arrow(Ty::Int, Ty::Bool),
        )
        .unwrap();
        assert_eq!(cx.resolve(&a), Ty::Int);
        assert_eq!(cx.resolve(&b), Ty::Bool);
    }

    #[test]
    fn occurs_check() {
        let mut cx = InferCtx::new();
        let a = cx.fresh();
        let err = cx.unify(&a, &Ty::list(a.clone())).unwrap_err();
        assert!(err.contains("occurs"), "{err}");
    }

    #[test]
    fn num_kind_rejects_string() {
        let mut cx = InferCtx::new();
        let a = cx.fresh_kinded(TvKind::Num);
        assert!(cx.unify(&a, &Ty::Str).is_err());
        let b = cx.fresh_kinded(TvKind::Ord);
        assert!(cx.unify(&b, &Ty::Str).is_ok());
    }

    #[test]
    fn kind_merge_on_var_var_unification() {
        let mut cx = InferCtx::new();
        let a = cx.fresh_kinded(TvKind::Num);
        let b = cx.fresh_kinded(TvKind::Ord);
        cx.unify(&a, &b).unwrap();
        // The surviving root must carry Num (the meet).
        assert!(cx.unify(&a, &Ty::Str).is_err());
    }

    #[test]
    fn generalize_respects_levels() {
        let mut cx = InferCtx::new();
        let outer = cx.fresh(); // level 0
        cx.level = 1;
        let inner = cx.fresh(); // level 1
        cx.level = 0;
        let s = cx.generalize(&Ty::arrow(outer.clone(), inner.clone()));
        // inner quantified, outer not
        assert_eq!(s.kinds.len(), 1);
        assert_eq!(s.ty, Ty::arrow(outer, Ty::QVar(0)));
    }

    #[test]
    fn overloaded_vars_not_generalized_and_default_to_int() {
        let mut cx = InferCtx::new();
        cx.level = 1;
        let n = cx.fresh_kinded(TvKind::Num);
        cx.level = 0;
        let s = cx.generalize(&n);
        assert!(s.kinds.is_empty());
        cx.default_overloads();
        assert_eq!(cx.resolve(&n), Ty::Int);
    }

    #[test]
    fn instantiate_clones_with_fresh_vars() {
        let mut cx = InferCtx::new();
        let s = Scheme {
            kinds: vec![TvKind::Any],
            ty: Ty::arrow(Ty::QVar(0), Ty::QVar(0)),
        };
        let t1 = cx.instantiate(&s);
        let t2 = cx.instantiate(&s);
        cx.unify(&t1, &Ty::arrow(Ty::Int, Ty::Int)).unwrap();
        // t2 must still be free to unify at a different type.
        cx.unify(&t2, &Ty::arrow(Ty::Bool, Ty::Bool)).unwrap();
    }

    #[test]
    fn level_adjustment_on_unification() {
        let mut cx = InferCtx::new();
        let outer = cx.fresh(); // level 0
        cx.level = 1;
        let inner = cx.fresh(); // level 1
        cx.unify(&inner, &Ty::list(outer.clone())).unwrap();
        cx.level = 0;
        // `inner` links to list(outer); outer is level 0 and must not be
        // generalized.
        let s = cx.generalize(&inner);
        assert!(s.kinds.is_empty());
    }
}
