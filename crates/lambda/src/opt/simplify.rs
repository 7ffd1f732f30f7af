//! Contraction rewrites: constant folding, branch simplification,
//! atomic-value propagation and dead-binding elimination.

use crate::exp::{LExp, Prim, VarId};
use crate::opt::uses::Uses;

/// Simplifies `e` bottom-up; returns the number of rewrites applied.
pub fn simplify(e: &mut LExp) -> usize {
    let mut uses = Uses::of(e);
    simplify_with(e, &mut uses)
}

/// [`simplify`] against the use counts of the program `e` is (part of),
/// which it keeps exact through every rewrite.
pub(crate) fn simplify_with(e: &mut LExp, uses: &mut Uses) -> usize {
    let mut s = Simplifier {
        uses,
        subst: Vec::new(),
        n: 0,
    };
    s.exp(e);
    s.n
}

/// `true` if evaluating `e` can have no effect (no I/O, no mutation, no
/// exception, no divergence). Allocation is not an observable effect at
/// this level — the ML Kit optimizer runs before region inference and only
/// ever *reduces* allocation.
pub fn is_pure(e: &LExp) -> bool {
    match e {
        LExp::Var(_)
        | LExp::Int(_)
        | LExp::Real(_)
        | LExp::Str(_)
        | LExp::Bool(_)
        | LExp::Unit
        | LExp::Fn { .. } => true,
        LExp::Record(es) => es.iter().all(is_pure),
        LExp::Select { tup: e, .. } | LExp::DeCon { scrut: e, .. } => is_pure(e),
        LExp::Con { arg, .. } | LExp::ExCon { arg, .. } => {
            arg.as_deref().map(is_pure).unwrap_or(true)
        }
        LExp::Prim(p, args) => prim_is_pure(*p) && args.iter().all(is_pure),
        LExp::If(c, t, f) => is_pure(c) && is_pure(t) && is_pure(f),
        LExp::Let { rhs, body, .. } => is_pure(rhs) && is_pure(body),
        _ => false,
    }
}

/// Primitives that cannot raise, do no I/O and do not mutate.
fn prim_is_pure(p: Prim) -> bool {
    use Prim::*;
    matches!(
        p,
        ILt | ILe
            | IGt
            | IGe
            | IEq
            | RLt
            | RLe
            | RGt
            | RGe
            | REq
            | RAdd
            | RSub
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
            | StrEq
            | StrLt
            | StrSize
            | StrConcat
            | ItoS
            | RtoS
            | ArrLen
            | ArrEq
    )
}

/// `true` if `e` is cheap enough to duplicate at each use site.
/// Real literals are excluded: duplicating one duplicates its allocation.
fn is_atomic(e: &LExp) -> bool {
    matches!(
        e,
        LExp::Var(_) | LExp::Int(_) | LExp::Bool(_) | LExp::Unit | LExp::Str(_)
    )
}

/// Substitutes `value` for every free occurrence of `v` in `e`.
///
/// `value` must be atomic (binder-free), so no capture can occur given the
/// global uniqueness of variable ids.
pub fn subst_atomic(e: &mut LExp, v: VarId, value: &LExp) {
    if let LExp::Var(w) = e {
        if *w == v {
            *e = value.clone();
        }
        return;
    }
    for_each_child_mut(e, |c| subst_atomic(c, v, value));
}

/// Mutable version of [`LExp::for_each_child`].
pub fn for_each_child_mut(e: &mut LExp, mut f: impl FnMut(&mut LExp)) {
    match e {
        LExp::Var(_) | LExp::Int(_) | LExp::Real(_) | LExp::Str(_) | LExp::Bool(_) | LExp::Unit => {
        }
        LExp::Prim(_, args) => args.iter_mut().for_each(&mut f),
        LExp::Record(es) => es.iter_mut().for_each(&mut f),
        LExp::Select { tup: e, .. } => f(e),
        LExp::Con { arg, .. } | LExp::ExCon { arg, .. } => {
            if let Some(a) = arg {
                f(a);
            }
        }
        LExp::DeCon { scrut, .. } | LExp::DeExn { scrut, .. } => f(scrut),
        LExp::SwitchCon {
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
        LExp::SwitchInt {
            scrut,
            arms,
            default,
        } => {
            f(scrut);
            arms.iter_mut().for_each(|(_, a)| f(a));
            f(default);
        }
        LExp::SwitchStr {
            scrut,
            arms,
            default,
        } => {
            f(scrut);
            arms.iter_mut().for_each(|(_, a)| f(a));
            f(default);
        }
        LExp::Fn { body, .. } => f(body),
        LExp::App(g, args) => {
            f(g);
            args.iter_mut().for_each(&mut f);
        }
        LExp::Let { rhs, body, .. } => {
            f(rhs);
            f(body);
        }
        LExp::Fix { funs, body } => {
            funs.iter_mut().for_each(|fun| f(&mut fun.body));
            f(body);
        }
        LExp::If(c, t, e2) => {
            f(c);
            f(t);
            f(e2);
        }
        LExp::SwitchExn {
            scrut,
            arms,
            default,
        } => {
            f(scrut);
            arms.iter_mut().for_each(|(_, a)| f(a));
            f(default);
        }
        LExp::Raise { exp, .. } => f(exp),
        LExp::Handle { body, handler, .. } => {
            f(body);
            f(handler);
        }
    }
}

fn take(e: &mut LExp) -> LExp {
    std::mem::replace(e, LExp::Unit)
}

/// The variable `e` applies, if it is an application of one.
fn applied_var(e: &LExp) -> Option<VarId> {
    match e {
        LExp::App(f, _) => match f.as_ref() {
            LExp::Var(v) => Some(*v),
            _ => None,
        },
        _ => None,
    }
}

/// One simplification walk. A `let` of an atomic value is dropped as the
/// walk reaches it and its variable recorded in `subst`, so each
/// occurrence is replaced when the walk reaches *it* — and the nodes above
/// the occurrence, reached after it, fold in the same walk.
struct Simplifier<'u> {
    uses: &'u mut Uses,
    /// The value of every variable whose atomic binding was dropped,
    /// indexed by [`VarId`].
    subst: Vec<Option<LExp>>,
    /// Rewrites applied.
    n: usize,
}

impl Simplifier<'_> {
    /// Every later occurrence of `v` is `value` (atomic).
    fn bind(&mut self, v: VarId, value: LExp) {
        self.uses.substituted(v, &value);
        let i = v.0 as usize;
        if i >= self.subst.len() {
            self.subst.resize_with(i + 1, || None);
        }
        self.subst[i] = Some(value);
        self.n += 1;
    }

    fn exp(&mut self, e: &mut LExp) {
        self.uses.visits += 1;
        match e {
            LExp::Var(v) => {
                if let Some(Some(value)) = self.subst.get(v.0 as usize) {
                    *e = value.clone();
                }
                return;
            }
            LExp::Let { var, rhs, body, .. } => {
                self.exp(rhs);
                if is_atomic(rhs) {
                    let value = take(rhs);
                    self.bind(*var, value);
                    self.exp(body);
                    *e = take(body);
                    return;
                }
                self.exp(body);
            }
            _ => {
                let applied_a_var = applied_var(e).is_some();
                for_each_child_mut(e, |c| self.exp(c));
                if !applied_a_var {
                    if let Some(v) = applied_var(e) {
                        // The callee expression simplified to a variable.
                        self.uses.now_callee(v);
                    }
                }
            }
        }
        // One try: what a rewrite keeps of this node is simplified already.
        self.rewrite(e);
    }

    /// Replaces `e` by `kept` — a part of it that was [`take`]n out — and
    /// uncounts the uses in what is left of `e`.
    fn keep_only(&mut self, e: &mut LExp, kept: LExp) {
        self.uses.release(&std::mem::replace(e, kept));
        self.n += 1;
    }

    /// Tries one rewrite at `e`, whose children are simplified.
    fn rewrite(&mut self, e: &mut LExp) {
        match e {
            LExp::Prim(p, args) => {
                if let Some(folded) = fold_prim(*p, args) {
                    *e = folded;
                    self.n += 1;
                }
            }
            LExp::If(c, t, f) => match c.as_ref() {
                LExp::Bool(true) => {
                    let kept = take(t);
                    self.keep_only(e, kept);
                }
                LExp::Bool(false) => {
                    let kept = take(f);
                    self.keep_only(e, kept);
                }
                _ => {
                    if matches!(
                        (t.as_ref(), f.as_ref()),
                        (LExp::Bool(true), LExp::Bool(false))
                    ) {
                        *e = take(c);
                        self.n += 1;
                    }
                }
            },
            LExp::Select { i, tup: r, .. } => {
                if let LExp::Record(es) = r.as_mut() {
                    if es.iter().all(is_pure) {
                        let kept = take(&mut es[*i]);
                        self.keep_only(e, kept);
                    }
                }
            }
            LExp::DeCon { scrut, con, .. } => {
                if let LExp::Con {
                    con: c2,
                    arg: Some(a),
                    ..
                } = scrut.as_mut()
                {
                    if c2 == con {
                        *e = take(a);
                        self.n += 1;
                    }
                }
            }
            LExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                let key = match scrut.as_ref() {
                    LExp::Int(k) => Some(*k),
                    LExp::Bool(b) => Some(*b as i64),
                    _ => None,
                };
                if let Some(k) = key {
                    let arm = arms
                        .iter_mut()
                        .find(|(c, _)| *c == k)
                        .map(|(_, a)| take(a))
                        .unwrap_or_else(|| take(default));
                    self.keep_only(e, arm);
                }
            }
            LExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => {
                if let LExp::Con { con, arg: None, .. } = scrut.as_ref() {
                    let con = *con;
                    let kept = match arms.iter_mut().find(|(c, _)| *c == con) {
                        Some(arm) => Some(take(&mut arm.1)),
                        None => default.as_deref_mut().map(take),
                    };
                    if let Some(kept) = kept {
                        self.keep_only(e, kept);
                    }
                }
            }
            LExp::Let { var, rhs, body, .. } => {
                debug_assert!(!is_atomic(rhs), "the walk drops atomic bindings");
                if self.uses.total(*var, body) == 0 && is_pure(rhs) {
                    let kept = take(body);
                    self.keep_only(e, kept);
                }
            }
            // Beta reduction. `args` and the function's body are simplified:
            // the atomic arguments are substituted by one more walk of the
            // body, the others bound by `let`s.
            LExp::App(f, args) => {
                if matches!(f.as_ref(), LExp::Fn { params, .. } if params.len() == args.len()) {
                    let LExp::Fn { params, body, .. } = take(f) else {
                        unreachable!()
                    };
                    let (mut lets, mut rewalk) = (Vec::new(), false);
                    for ((v, ty), a) in params.into_iter().zip(std::mem::take(args)) {
                        if is_atomic(&a) {
                            rewalk |= self.uses.total(v, &body) > 0;
                            self.bind(v, a);
                        } else {
                            lets.push((v, ty, a));
                        }
                    }
                    *e = *body;
                    if rewalk {
                        self.exp(e);
                    }
                    // Bind right-to-left so evaluation order is preserved by
                    // the nested lets (leftmost binds outermost).
                    for (var, ty, rhs) in lets.into_iter().rev() {
                        let body = Box::new(take(e));
                        *e = LExp::Let {
                            var,
                            ty,
                            rhs: Box::new(rhs),
                            body,
                        };
                        self.rewrite(e);
                    }
                    self.n += 1;
                }
            }
            _ => {}
        }
    }
}

fn fold_prim(p: Prim, args: &[LExp]) -> Option<LExp> {
    use Prim::*;
    let int = |e: &LExp| match e {
        LExp::Int(n) => Some(*n),
        _ => None,
    };
    let real = |e: &LExp| match e {
        LExp::Real(r) => Some(*r),
        _ => None,
    };
    match p {
        IAdd | ISub | IMul => {
            let (a, b) = (int(&args[0])?, int(&args[1])?);
            let v = match p {
                IAdd => a.checked_add(b),
                ISub => a.checked_sub(b),
                _ => a.checked_mul(b),
            }
            .filter(|v| crate::eval::int_in_range(*v))?;
            Some(LExp::Int(v))
        }
        IDiv | IMod => {
            let (a, b) = (int(&args[0])?, int(&args[1])?);
            if b == 0 {
                return None; // keep the raising expression
            }
            // Unfolded, too, when it overflows (`minInt div ~1`).
            crate::eval::floor_div_mod(p, a, b).map(LExp::Int)
        }
        INeg => int(&args[0])?
            .checked_neg()
            .filter(|v| crate::eval::int_in_range(*v))
            .map(LExp::Int),
        IAbs => int(&args[0])?
            .checked_abs()
            .filter(|v| crate::eval::int_in_range(*v))
            .map(LExp::Int),
        ILt | ILe | IGt | IGe | IEq => {
            let (a, b) = (int(&args[0])?, int(&args[1])?);
            Some(LExp::Bool(match p {
                ILt => a < b,
                ILe => a <= b,
                IGt => a > b,
                IGe => a >= b,
                _ => a == b,
            }))
        }
        RAdd | RSub | RMul | RDiv => {
            let (a, b) = (real(&args[0])?, real(&args[1])?);
            Some(LExp::Real(match p {
                RAdd => a + b,
                RSub => a - b,
                RMul => a * b,
                _ => a / b,
            }))
        }
        RLt | RLe | RGt | RGe | REq => {
            let (a, b) = (real(&args[0])?, real(&args[1])?);
            Some(LExp::Bool(match p {
                RLt => a < b,
                RLe => a <= b,
                RGt => a > b,
                RGe => a >= b,
                _ => a == b,
            }))
        }
        IntToReal => Some(LExp::Real(int(&args[0])? as f64)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::VarTable;
    use crate::ty::LTy;

    #[test]
    fn folds_arithmetic() {
        let mut e = LExp::Prim(Prim::IMul, vec![LExp::Int(6), LExp::Int(7)]);
        assert_eq!(simplify(&mut e), 1);
        assert_eq!(e, LExp::Int(42));
    }

    #[test]
    fn keeps_division_by_zero() {
        let mut e = LExp::Prim(Prim::IDiv, vec![LExp::Int(1), LExp::Int(0)]);
        assert_eq!(simplify(&mut e), 0);
    }

    #[test]
    fn keeps_overflowing_multiplication() {
        let mut e = LExp::Prim(Prim::IMul, vec![LExp::Int(i64::MAX), LExp::Int(2)]);
        assert_eq!(simplify(&mut e), 0);
    }

    #[test]
    fn keeps_overflowing_division() {
        let min_int = -(1 << 62);
        let mut e = LExp::Prim(Prim::IDiv, vec![LExp::Int(min_int), LExp::Int(-1)]);
        assert_eq!(simplify(&mut e), 0);
        let mut e = LExp::Prim(Prim::IMod, vec![LExp::Int(min_int), LExp::Int(-1)]);
        assert_eq!((simplify(&mut e), e), (1, LExp::Int(0)));
    }

    #[test]
    fn folds_sml_div_semantics() {
        let mut e = LExp::Prim(Prim::IDiv, vec![LExp::Int(7), LExp::Int(-2)]);
        simplify(&mut e);
        assert_eq!(e, LExp::Int(-4));
        let mut e = LExp::Prim(Prim::IMod, vec![LExp::Int(7), LExp::Int(-2)]);
        simplify(&mut e);
        assert_eq!(e, LExp::Int(-1));
    }

    #[test]
    fn simplifies_branches() {
        let mut e = LExp::If(
            Box::new(LExp::Bool(true)),
            Box::new(LExp::Int(1)),
            Box::new(LExp::Int(2)),
        );
        simplify(&mut e);
        assert_eq!(e, LExp::Int(1));
    }

    #[test]
    fn select_of_record() {
        let mut e = LExp::Select {
            i: 1,
            arity: 2,
            tup: Box::new(LExp::Record(vec![LExp::Int(1), LExp::Int(2)])),
        };
        simplify(&mut e);
        assert_eq!(e, LExp::Int(2));
    }

    #[test]
    fn select_of_impure_record_kept() {
        let pr = LExp::Prim(Prim::Print, vec![LExp::Str("x".into())]);
        let mut e = LExp::Select {
            i: 0,
            arity: 2,
            tup: Box::new(LExp::Record(vec![LExp::Int(1), pr])),
        };
        simplify(&mut e);
        assert!(matches!(e, LExp::Select { .. }));
    }

    #[test]
    fn dead_let_removed_only_if_pure() {
        let mut vars = VarTable::new();
        let x = vars.fresh("x");
        let mut e = LExp::Let {
            var: x,
            ty: LTy::Int,
            rhs: Box::new(LExp::Prim(Prim::ILt, vec![LExp::Int(1), LExp::Int(2)])),
            body: Box::new(LExp::Int(0)),
        };
        simplify(&mut e);
        assert_eq!(e, LExp::Int(0));

        let y = vars.fresh("y");
        let mut e = LExp::Let {
            var: y,
            ty: LTy::Unit,
            rhs: Box::new(LExp::Prim(Prim::Print, vec![LExp::Str("x".into())])),
            body: Box::new(LExp::Int(0)),
        };
        simplify(&mut e);
        assert!(matches!(e, LExp::Let { .. }));
    }

    #[test]
    fn beta_reduces_preserving_order() {
        let mut vars = VarTable::new();
        let a = vars.fresh("a");
        let b = vars.fresh("b");
        let mut e = LExp::App(
            Box::new(LExp::Fn {
                params: vec![(a, LTy::Int), (b, LTy::Int)],
                ret: LTy::Int,
                body: Box::new(LExp::Prim(Prim::ISub, vec![LExp::Var(a), LExp::Var(b)])),
            }),
            vec![LExp::Int(10), LExp::Int(4)],
        );
        // Beta, the two atomic arguments propagated, the subtraction
        // folded: four rewrites in one walk.
        assert_eq!(simplify(&mut e), 4);
        assert_eq!(e, LExp::Int(6));
    }
}
