//! Function inlining.
//!
//! Two cases, both standard in contraction-based optimizers:
//!
//! 1. a `let`-bound `fn` used exactly once (as a callee) is inlined and the
//!    binding dropped — no renaming needed because each variable id occurs
//!    in exactly one binder;
//! 2. a `let`-bound `fn` with a small body is inlined at every call site,
//!    with all binders alpha-renamed to keep variable ids globally unique.
//!
//! `Fix`-bound functions whose group is provably non-recursive are first
//! demoted to `let`-bound `fn`s so the rules above apply to them too.

use crate::exp::{FixFun, LExp, LProgram, VarId, VarTable};
use crate::opt::simplify::for_each_child_mut;
use crate::opt::uses::Uses;
use std::collections::HashMap;

/// Runs one inlining pass over the program; returns the number of
/// functions inlined or demoted.
pub fn inline(prog: &mut LProgram) -> usize {
    let mut uses = Uses::of(&prog.body);
    inline_with(prog, &mut uses)
}

/// [`inline`] against the program's use counts, which it keeps exact.
pub(crate) fn inline_with(prog: &mut LProgram, uses: &mut Uses) -> usize {
    let mut n = 0;
    let mut marks = vec![0; prog.vars.len()];
    demote_nonrecursive_fix(&mut prog.body, &mut marks, uses, &mut n);
    inline_lets(&mut prog.body, &mut prog.vars, uses, &mut n);
    n
}

/// Maximum body size (AST nodes) of a function inlined at more than one
/// call site.
const INLINE_SIZE: usize = 40;

/// [`demote_nonrecursive_fix`]'s mark on a variable while the walk is
/// inside the function bodies of the `Fix` group that binds it ...
const INSIDE: u8 = 1;
/// ... and once it has met the variable there.
const SEEN: u8 = 2;

/// Rewrites `Fix` groups whose functions never reference the group into
/// nested `Let`-of-`Fn` bindings. One walk decides every group: a group
/// is recursive iff one of its variables occurs while the walk is inside
/// the group's own bodies (`marks` is indexed by [`VarId`]).
fn demote_nonrecursive_fix(e: &mut LExp, marks: &mut [u8], uses: &mut Uses, n: &mut usize) {
    uses.visits += 1;
    let LExp::Fix { funs, body } = e else {
        if let LExp::Var(v) = e {
            let m = &mut marks[v.0 as usize];
            if *m & INSIDE != 0 {
                *m |= SEEN;
            }
        }
        return for_each_child_mut(e, |c| demote_nonrecursive_fix(c, marks, uses, n));
    };
    for f in funs.iter() {
        marks[f.var.0 as usize] = INSIDE;
    }
    for f in funs.iter_mut() {
        demote_nonrecursive_fix(&mut f.body, marks, uses, n);
    }
    let mut recursive = false;
    for f in funs.iter() {
        recursive |= std::mem::take(&mut marks[f.var.0 as usize]) & SEEN != 0;
    }
    #[cfg(test)]
    if uses.uses_walkers() {
        recursive = crate::opt::uses::walkers::group_is_recursive(funs);
    }
    demote_nonrecursive_fix(body, marks, uses, n);
    if recursive {
        return;
    }
    let funs = std::mem::take(funs);
    let mut result = std::mem::replace(body, Box::new(LExp::Unit));
    for f in funs.into_iter().rev() {
        let FixFun {
            var,
            params,
            ret,
            body: fbody,
        } = f;
        let fn_ty = fn_ty_of(&params, &ret);
        result = Box::new(LExp::Let {
            var,
            ty: fn_ty,
            rhs: Box::new(LExp::Fn {
                params,
                ret,
                body: Box::new(fbody),
            }),
            body: result,
        });
    }
    *e = *result;
    *n += 1;
}

fn fn_ty_of(params: &[(VarId, crate::ty::LTy)], ret: &crate::ty::LTy) -> crate::ty::LTy {
    use crate::ty::LTy;
    let arg = match params.len() {
        1 => params[0].1.clone(),
        _ => LTy::Tuple(params.iter().map(|(_, t)| t.clone()).collect()),
    };
    LTy::arrow(arg, ret.clone())
}

fn inline_lets(e: &mut LExp, vars: &mut VarTable, uses: &mut Uses, n: &mut usize) {
    uses.visits += 1;
    for_each_child_mut(e, |c| inline_lets(c, vars, uses, n));
    let LExp::Let { var, rhs, body, .. } = e else {
        return;
    };
    let LExp::Fn { params, .. } = rhs.as_ref() else {
        return;
    };
    let arity = params.len();

    let (total, as_callee) = uses.total_and_callee(*var, body);
    if total == 0 {
        // Dead function binding (closure creation is pure).
        let kept = std::mem::replace(body.as_mut(), LExp::Unit);
        uses.release(&std::mem::replace(e, kept));
        *n += 1;
        return;
    }
    // Only inline when every use is a saturated call.
    if total != as_callee {
        return;
    }
    if total > 1 {
        let size = rhs.size();
        uses.visits += size;
        if size > INLINE_SIZE {
            return;
        }
    }
    let var = *var;
    let f = std::mem::replace(rhs.as_mut(), LExp::Unit);
    let mut b = std::mem::replace(body.as_mut(), LExp::Unit);
    let mut calls = Calls {
        var,
        f: &f,
        arity,
        rename: total > 1,
        remaining: total,
    };
    calls.inline(&mut b, vars, uses);
    if calls.rename {
        // Every call got a renamed copy, counted when it was made.
        uses.release(&f);
    }
    uses.forget(var);
    *e = b;
    *n += 1;
}

/// The call sites of one function being inlined.
struct Calls<'f> {
    var: VarId,
    f: &'f LExp,
    arity: usize,
    rename: bool,
    remaining: usize,
}

impl Calls<'_> {
    /// Replaces `App(Var(var), args)` with a beta redex of `f`.
    fn inline(&mut self, e: &mut LExp, vars: &mut VarTable, uses: &mut Uses) {
        if self.remaining == 0 {
            return;
        }
        uses.visits += 1;
        for_each_child_mut(e, |c| self.inline(c, vars, uses));
        if let LExp::App(callee, args) = e {
            if matches!(callee.as_ref(), LExp::Var(v) if *v == self.var) && args.len() == self.arity
            {
                self.remaining -= 1;
                let body = if self.rename || self.remaining > 0 {
                    let copy = rename_clone(self.f, vars, &mut HashMap::new());
                    uses.add(&copy);
                    copy
                } else {
                    self.f.clone()
                };
                **callee = body;
                // The resulting `App(Fn, args)` is beta-reduced by the next
                // simplify round.
            }
        }
    }
}

/// Clones `e`, freshening every binder (alpha renaming), so that variable
/// ids stay globally unique after multi-use inlining.
pub fn rename_clone(e: &LExp, vars: &mut VarTable, map: &mut HashMap<VarId, VarId>) -> LExp {
    let fresh = |v: VarId, vars: &mut VarTable, map: &mut HashMap<VarId, VarId>| {
        let name = format!("{}'", vars.name(v));
        let nv = vars.fresh(&name);
        map.insert(v, nv);
        nv
    };
    match e {
        LExp::Var(v) => LExp::Var(map.get(v).copied().unwrap_or(*v)),
        LExp::Fn { params, ret, body } => {
            let params = params
                .iter()
                .map(|(v, t)| (fresh(*v, vars, map), t.clone()))
                .collect();
            let body = Box::new(rename_clone(body, vars, map));
            LExp::Fn {
                params,
                ret: ret.clone(),
                body,
            }
        }
        LExp::Let { var, ty, rhs, body } => {
            let rhs = Box::new(rename_clone(rhs, vars, map));
            let nv = fresh(*var, vars, map);
            let body = Box::new(rename_clone(body, vars, map));
            LExp::Let {
                var: nv,
                ty: ty.clone(),
                rhs,
                body,
            }
        }
        LExp::Fix { funs, body } => {
            let nvars: Vec<VarId> = funs.iter().map(|f| fresh(f.var, vars, map)).collect();
            let funs = funs
                .iter()
                .zip(nvars)
                .map(|(f, nv)| FixFun {
                    var: nv,
                    params: f
                        .params
                        .iter()
                        .map(|(v, t)| (fresh(*v, vars, map), t.clone()))
                        .collect(),
                    ret: f.ret.clone(),
                    body: rename_clone(&f.body, vars, map),
                })
                .collect();
            let body = Box::new(rename_clone(body, vars, map));
            LExp::Fix { funs, body }
        }
        LExp::Handle { body, var, handler } => {
            let body = Box::new(rename_clone(body, vars, map));
            let nv = fresh(*var, vars, map);
            let handler = Box::new(rename_clone(handler, vars, map));
            LExp::Handle {
                body,
                var: nv,
                handler,
            }
        }
        // Non-binding nodes: clone structurally, renaming children.
        _ => {
            let mut out = e.clone();
            for_each_child_mut(&mut out, |c| {
                let r = rename_clone(c, vars, map);
                *c = r;
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::Prim;
    use crate::opt::simplify::simplify;
    use crate::ty::{DataEnv, ExnEnv, LTy};

    fn mkprog(body: LExp, vars: VarTable) -> LProgram {
        LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body,
            result_ty: LTy::Int,
        }
    }

    #[test]
    fn inlines_single_use_function() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        // let f = fn x => x + 1 in f 41
        let body = LExp::Let {
            var: f,
            ty: LTy::arrow(LTy::Int, LTy::Int),
            rhs: Box::new(LExp::Fn {
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: Box::new(LExp::Prim(Prim::IAdd, vec![LExp::Var(x), LExp::Int(1)])),
            }),
            body: Box::new(LExp::App(Box::new(LExp::Var(f)), vec![LExp::Int(41)])),
        };
        let mut p = mkprog(body, vars);
        assert_eq!(inline(&mut p), 1);
        simplify(&mut p.body);
        simplify(&mut p.body);
        assert_eq!(p.body, LExp::Int(42));
    }

    #[test]
    fn multi_use_inlining_renames() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        // let f = fn x => x * x in f 3 + f 4
        let body = LExp::Let {
            var: f,
            ty: LTy::arrow(LTy::Int, LTy::Int),
            rhs: Box::new(LExp::Fn {
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: Box::new(LExp::Prim(Prim::IMul, vec![LExp::Var(x), LExp::Var(x)])),
            }),
            body: Box::new(LExp::Prim(
                Prim::IAdd,
                vec![
                    LExp::App(Box::new(LExp::Var(f)), vec![LExp::Int(3)]),
                    LExp::App(Box::new(LExp::Var(f)), vec![LExp::Int(4)]),
                ],
            )),
        };
        let mut p = mkprog(body, vars);
        assert!(inline(&mut p) > 0);
        simplify(&mut p.body);
        simplify(&mut p.body);
        assert_eq!(p.body, LExp::Int(25));
    }

    #[test]
    fn escaping_function_not_inlined() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        // let f = fn x => x in (f, f 1)  — f escapes into a record.
        let body = LExp::Let {
            var: f,
            ty: LTy::arrow(LTy::Int, LTy::Int),
            rhs: Box::new(LExp::Fn {
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: Box::new(LExp::Var(x)),
            }),
            body: Box::new(LExp::Record(vec![
                LExp::Var(f),
                LExp::App(Box::new(LExp::Var(f)), vec![LExp::Int(1)]),
            ])),
        };
        let before = body.clone();
        let mut p = mkprog(body, vars);
        assert_eq!(inline(&mut p), 0);
        assert_eq!(p.body, before);
    }

    #[test]
    fn demotes_nonrecursive_fix() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        let body = LExp::Fix {
            funs: vec![FixFun {
                var: f,
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: LExp::Var(x),
            }],
            body: Box::new(LExp::App(Box::new(LExp::Var(f)), vec![LExp::Int(7)])),
        };
        let mut p = mkprog(body, vars);
        assert!(inline(&mut p) > 0);
        simplify(&mut p.body);
        simplify(&mut p.body);
        assert_eq!(p.body, LExp::Int(7));
    }

    #[test]
    fn recursive_fix_untouched() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let x = vars.fresh("x");
        let body = LExp::Fix {
            funs: vec![FixFun {
                var: f,
                params: vec![(x, LTy::Int)],
                ret: LTy::Int,
                body: LExp::App(Box::new(LExp::Var(f)), vec![LExp::Var(x)]),
            }],
            body: Box::new(LExp::Int(1)),
        };
        let before = body.clone();
        let mut p = mkprog(body, vars);
        // Demotion must not fire; the binding is recursive.
        assert_eq!(inline(&mut p), 0);
        assert_eq!(p.body, before);
    }
}
