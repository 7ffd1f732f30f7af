//! Uncurrying of known functions (paper §3: the ML Kit optimiser
//! "uncurries and unboxes the arguments of known functions").
//!
//! `fun f a b c = e` is lowered to `fix f a = fn b => fn c => e`, so every
//! call `f x y z` builds two closures — each in a region of its own whose
//! `letregion` encloses the next application and so costs the tail call —
//! only to apply them at once. Here a `fix`-bound function whose body is
//! a chain of directly nested one-parameter `fn`s becomes one function of
//! all the parameters, and a call chain that reaches the arity becomes one
//! call (one that exceeds it applies the rest to the result). Every other
//! occurrence — a partial application, the function as a value — gets the
//! curried view back from an eta wrapper,
//!
//! ```text
//! f a        ==>  let x = a in fn y => fn z => f (x, y, z)
//! ```
//!
//! so the effects of `a` still happen once, when the partial application
//! is evaluated. Applying `f` to fewer arguments than it has parameters
//! only ever built a closure, so no effect moves: `a`, `b` and `c` are
//! evaluated in the order they were, and then the body runs.
//!
//! A function with a `let` (or anything else) between its lambdas is left
//! curried: the work between the lambdas belongs to the partial
//! application and must not be repeated per call.
//!
//! One top-down walk does it all, because a binder precedes its scope: the
//! functions of a `Fix` are merged when the walk reaches it, before any
//! occurrence is seen. The use counts stay exact — a call keeps its callee
//! use, an eta wrapper turns a value use into one, and each fresh
//! variable is used once.

use crate::exp::{FixFun, LExp, LProgram, VarId, VarTable};
use crate::opt::simplify::for_each_child_mut;
use crate::opt::uses::Uses;
use crate::ty::LTy;
use std::collections::HashMap;

/// The type of a variable the pass introduces (as in `flatten`: region
/// inference reconstructs types and ignores the annotation).
const UNKNOWN_TY: LTy = LTy::TyVar(u32::MAX);

/// Runs uncurrying; returns the number of functions rewritten.
pub fn uncurry(prog: &mut LProgram) -> usize {
    let mut uses = Uses::of(&prog.body);
    uncurry_with(prog, &mut uses)
}

/// [`uncurry`] against the program's use counts, which it keeps exact.
pub(crate) fn uncurry_with(prog: &mut LProgram, uses: &mut Uses) -> usize {
    let mut cx = Cx {
        arity: HashMap::new(),
        vars: &mut prog.vars,
        uses,
    };
    cx.rewrite(&mut prog.body);
    cx.arity.len()
}

struct Cx<'a> {
    /// Parameter count of every function uncurried so far.
    arity: HashMap<VarId, usize>,
    vars: &'a mut VarTable,
    uses: &'a mut Uses,
}

/// Folds the chain of one-parameter `fn`s that is `f`'s body into `f`;
/// `true` if there was one.
fn merge_lambdas(f: &mut FixFun) -> bool {
    if f.params.len() != 1 {
        return false;
    }
    while matches!(&f.body, LExp::Fn { params, .. } if params.len() == 1) {
        let LExp::Fn { params, ret, body } = std::mem::replace(&mut f.body, LExp::Unit) else {
            unreachable!()
        };
        f.params.extend(params);
        f.ret = ret;
        f.body = *body;
    }
    f.params.len() > 1
}

/// The variable at the head of a chain of one-argument applications and
/// the chain's length: `f a b` is `(f, 2)`, a bare `f` is `(f, 0)`.
fn call_chain(mut e: &LExp) -> Option<(VarId, usize)> {
    let mut depth = 0;
    loop {
        match e {
            LExp::Var(f) => return Some((*f, depth)),
            LExp::App(callee, args) if args.len() == 1 => {
                depth += 1;
                e = callee;
            }
            _ => return None,
        }
    }
}

impl Cx<'_> {
    fn rewrite(&mut self, e: &mut LExp) {
        self.uses.visits += 1;
        if let LExp::Fix { funs, .. } = e {
            for f in funs.iter_mut() {
                if merge_lambdas(f) {
                    self.arity.insert(f.var, f.params.len());
                }
            }
        } else if let Some((f, given)) = call_chain(e) {
            if let Some(&k) = self.arity.get(&f) {
                if given <= k {
                    return self.apply(e, f, given, k);
                }
                // Over-saturated: the callee is a shorter chain of `f`.
            }
        }
        for_each_child_mut(e, |c| self.rewrite(c));
    }

    /// Rewrites `e`, the application of `f` (of `k` parameters) to
    /// `given <= k` arguments one at a time, into one call — inside an eta
    /// wrapper that binds the arguments given and abstracts the rest, if
    /// some are missing.
    fn apply(&mut self, e: &mut LExp, f: VarId, given: usize, k: usize) {
        let mut args = Vec::with_capacity(k);
        let mut chain = std::mem::replace(e, LExp::Unit);
        while let LExp::App(callee, mut arg) = chain {
            args.push(arg.pop().expect("a chain of one-argument applications"));
            chain = *callee;
        }
        args.reverse();
        args.iter_mut().for_each(|a| self.rewrite(a));
        if given == k {
            *e = LExp::App(Box::new(LExp::Var(f)), args);
            return;
        }
        if given == 0 {
            self.uses.now_callee(f);
        }
        let xs: Vec<VarId> = (0..k).map(|_| self.vars.fresh("eta")).collect();
        xs.iter().for_each(|x| self.uses.add(&LExp::Var(*x)));
        let call = LExp::App(
            Box::new(LExp::Var(f)),
            xs.iter().map(|x| LExp::Var(*x)).collect(),
        );
        let wrapper = xs[given..].iter().rev().fold(call, |body, x| LExp::Fn {
            params: vec![(*x, UNKNOWN_TY)],
            ret: UNKNOWN_TY,
            body: Box::new(body),
        });
        *e = xs
            .iter()
            .zip(args)
            .rev()
            .fold(wrapper, |body, (x, a)| LExp::Let {
                var: *x,
                ty: UNKNOWN_TY,
                rhs: Box::new(a),
                body: Box::new(body),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Value};
    use crate::exp::Prim;
    use crate::opt::flatten::flatten;
    use crate::ty::{DataEnv, ExnEnv};

    fn var(v: VarId) -> LExp {
        LExp::Var(v)
    }

    /// `f a` — one argument, as the front end applies everything.
    fn app(f: LExp, a: LExp) -> LExp {
        LExp::App(Box::new(f), vec![a])
    }

    fn lam(p: VarId, body: LExp) -> LExp {
        LExp::Fn {
            params: vec![(p, LTy::Int)],
            ret: LTy::Int,
            body: Box::new(body),
        }
    }

    fn let_(var: VarId, rhs: LExp, body: LExp) -> LExp {
        LExp::Let {
            var,
            ty: LTy::Int,
            rhs: Box::new(rhs),
            body: Box::new(body),
        }
    }

    fn prim(p: Prim, a: LExp, b: LExp) -> LExp {
        LExp::Prim(p, vec![a, b])
    }

    /// `(print s; e)`.
    fn printing(vars: &mut VarTable, s: &str, e: LExp) -> LExp {
        let print = LExp::Prim(Prim::Print, vec![LExp::Str(s.to_string())]);
        let_(vars.fresh("_"), print, e)
    }

    /// `fix f p = body`, one parameter, as `lower_fun` emits it.
    fn fun(var: VarId, p: VarId, body: LExp) -> FixFun {
        FixFun {
            var,
            params: vec![(p, LTy::Int)],
            ret: LTy::Int,
            body,
        }
    }

    fn prog(vars: VarTable, funs: Vec<FixFun>, body: LExp) -> LProgram {
        LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body: LExp::Fix {
                funs,
                body: Box::new(body),
            },
            result_ty: LTy::Int,
        }
    }

    /// `(result, output)` under the reference evaluator.
    fn observe(p: &LProgram) -> (i64, String) {
        let out = eval(&p.body, &p.exns, Some(100_000)).expect("eval");
        let Value::Int(n) = out.value else {
            panic!("not an int: {:?}", out.value)
        };
        (n, out.output)
    }

    /// Uncurries `p` (with the use counts checked), holding the result to
    /// what `p` computed before; returns the functions and the scope.
    fn uncurried(p: &mut LProgram, expect: usize) -> (&[FixFun], &LExp) {
        let before = observe(p);
        let mut uses = Uses::of(&p.body);
        assert_eq!(uncurry_with(p, &mut uses), expect);
        uses.assert_exact(&p.body, "after uncurrying");
        assert_eq!(observe(p), before);
        let once = p.clone();
        assert_eq!(uncurry(p), 0, "uncurrying is idempotent");
        assert_eq!(*p, once);
        let LExp::Fix { funs, body } = &p.body else {
            panic!("the fix is gone")
        };
        (funs, body)
    }

    fn count(e: &LExp, pred: &impl Fn(&LExp) -> bool) -> usize {
        let mut n = usize::from(pred(e));
        e.for_each_child(|c| n += count(c, pred));
        n
    }

    #[test]
    fn a_saturated_call_passes_every_argument_at_once() {
        let mut vars = VarTable::new();
        let [f, a, b] = ["f", "a", "b"].map(|n| vars.fresh(n));
        // fix f a = fn b => a - b in f 7 2
        let sub = prim(Prim::ISub, var(a), var(b));
        let call = app(app(var(f), LExp::Int(7)), LExp::Int(2));
        let mut p = prog(vars, vec![fun(f, a, lam(b, sub.clone()))], call);
        let (funs, body) = uncurried(&mut p, 1);
        assert_eq!(
            funs[0].params.iter().map(|p| p.0).collect::<Vec<_>>(),
            [a, b]
        );
        assert_eq!(funs[0].body, sub);
        let want = LExp::App(Box::new(var(f)), vec![LExp::Int(7), LExp::Int(2)]);
        assert_eq!(*body, want);
        assert_eq!(observe(&p), (5, String::new()));
    }

    #[test]
    fn an_over_saturated_call_applies_the_rest_to_the_result() {
        let mut vars = VarTable::new();
        let [f, a, b, k, c] = ["f", "a", "b", "k", "c"].map(|n| vars.fresh(n));
        // fix f a = fn b => let k = a + b in fn c => k * c   in f 1 2 3
        // The `let` ends the chain: two parameters, and a closure result.
        let inner = let_(
            k,
            prim(Prim::IAdd, var(a), var(b)),
            lam(c, prim(Prim::IMul, var(k), var(c))),
        );
        let call = app(app(app(var(f), LExp::Int(1)), LExp::Int(2)), LExp::Int(3));
        let mut p = prog(vars, vec![fun(f, a, lam(b, inner))], call);
        let (funs, body) = uncurried(&mut p, 1);
        assert_eq!(funs[0].params.len(), 2);
        assert!(matches!(funs[0].body, LExp::Let { .. }));
        let two = LExp::App(Box::new(var(f)), vec![LExp::Int(1), LExp::Int(2)]);
        assert_eq!(*body, app(two, LExp::Int(3)));
        assert_eq!(observe(&p).0, 9);
    }

    #[test]
    fn a_partial_application_evaluates_its_argument_once_and_first() {
        let mut vars = VarTable::new();
        let [f, a, b, h] = ["f", "a", "b", "h"].map(|n| vars.fresh(n));
        // fix f a = fn b => (print "body "; a + b)
        // in let h = f (print "arg "; 1) in (print "mid "; h 2 + h 3)
        let fbody = printing(&mut vars, "body ", prim(Prim::IAdd, var(a), var(b)));
        let arg = printing(&mut vars, "arg ", LExp::Int(1));
        let sum = prim(
            Prim::IAdd,
            app(var(h), LExp::Int(2)),
            app(var(h), LExp::Int(3)),
        );
        let scope = let_(
            h,
            app(var(f), arg.clone()),
            printing(&mut vars, "mid ", sum),
        );
        let mut p = prog(vars, vec![fun(f, a, lam(b, fbody))], scope);
        let (_, body) = uncurried(&mut p, 1);
        // let h = (let x = (print "arg "; 1) in fn y => f (x, y)) in ...
        let LExp::Let { rhs, .. } = body else {
            panic!("{body:?}")
        };
        let LExp::Let {
            var: x,
            rhs: bound,
            body: wrapper,
            ..
        } = rhs.as_ref()
        else {
            panic!("{rhs:?}")
        };
        assert_eq!(**bound, arg);
        let LExp::Fn {
            params, body: call, ..
        } = wrapper.as_ref()
        else {
            panic!("{wrapper:?}")
        };
        let y = params[0].0;
        assert_eq!(**call, LExp::App(Box::new(var(f)), vec![var(*x), var(y)]));
        assert_eq!(observe(&p), (7, "arg mid body body ".to_string()));
    }

    #[test]
    fn a_function_that_escapes_as_a_value_gets_its_curried_view_back() {
        let mut vars = VarTable::new();
        let [f, a, b, g] = ["f", "a", "b", "g"].map(|n| vars.fresh(n));
        // fix f a = fn b => a - b in (fn g => g 9 4) f
        let user = lam(g, app(app(var(g), LExp::Int(9)), LExp::Int(4)));
        let mut p = prog(
            vars,
            vec![fun(f, a, lam(b, prim(Prim::ISub, var(a), var(b))))],
            app(user, var(f)),
        );
        let (_, body) = uncurried(&mut p, 1);
        let LExp::App(_, passed) = body else {
            panic!("{body:?}")
        };
        // fn x => fn y => f (x, y)
        let LExp::Fn {
            params: px,
            body: inner,
            ..
        } = &passed[0]
        else {
            panic!("{passed:?}")
        };
        let LExp::Fn {
            params: py,
            body: call,
            ..
        } = inner.as_ref()
        else {
            panic!("{inner:?}")
        };
        let want = LExp::App(Box::new(var(f)), vec![var(px[0].0), var(py[0].0)]);
        assert_eq!(**call, want);
        assert_eq!(observe(&p).0, 5);
    }

    #[test]
    fn a_mutually_recursive_curried_group_is_uncurried_together() {
        let mut vars = VarTable::new();
        let [even, odd, n, acc, m, bcc] =
            ["even", "odd", "n", "acc", "m", "bcc"].map(|x| vars.fresh(x));
        // fix even n = fn acc => if n = 0 then acc else odd (n - 1) (acc + 1)
        // and odd m = fn bcc => if m = 0 then bcc else even (m - 1) (bcc + 2)
        let step = |to: VarId, k: VarId, a: VarId, by: i64| {
            LExp::If(
                Box::new(prim(Prim::IEq, var(k), LExp::Int(0))),
                Box::new(var(a)),
                Box::new(app(
                    app(var(to), prim(Prim::ISub, var(k), LExp::Int(1))),
                    prim(Prim::IAdd, var(a), LExp::Int(by)),
                )),
            )
        };
        let funs = vec![
            fun(even, n, lam(acc, step(odd, n, acc, 1))),
            fun(odd, m, lam(bcc, step(even, m, bcc, 2))),
        ];
        let call = app(app(var(even), LExp::Int(10)), LExp::Int(0));
        let mut p = prog(vars, funs, call);
        let (funs, _) = uncurried(&mut p, 2);
        assert!(funs.iter().all(|f| f.params.len() == 2));
        // No closure is left anywhere, and every call has two arguments.
        assert_eq!(count(&p.body, &|e| matches!(e, LExp::Fn { .. })), 0);
        let calls = count(
            &p.body,
            &|e| matches!(e, LExp::App(_, args) if args.len() == 2),
        );
        assert_eq!(calls, 3);
        assert_eq!(observe(&p).0, 15);
    }

    /// Uncurrying first means `flatten` sees a function of two parameters
    /// and leaves it alone (it flattens one-parameter functions only): the
    /// pair is still built at the call, the closure no longer is.
    #[test]
    fn a_tuple_first_parameter_is_uncurried_and_then_left_alone_by_flatten() {
        let mut vars = VarTable::new();
        let [f, p, c] = ["f", "p", "c"].map(|n| vars.fresh(n));
        let sel = |i| LExp::Select {
            i,
            arity: 2,
            tup: Box::new(var(p)),
        };
        // fix f p = fn c => #0 p * #1 p + c in f (6, 7) 8
        let body = prim(Prim::IAdd, prim(Prim::IMul, sel(0), sel(1)), var(c));
        let mut first = fun(f, p, lam(c, body));
        first.params[0].1 = LTy::Tuple(vec![LTy::Int, LTy::Int]);
        let pair = LExp::Record(vec![LExp::Int(6), LExp::Int(7)]);
        let call = app(app(var(f), pair.clone()), LExp::Int(8));
        let mut prog = prog(vars, vec![first], call);
        let (funs, scope) = uncurried(&mut prog, 1);
        assert_eq!(funs[0].params.len(), 2);
        assert_eq!(
            *scope,
            LExp::App(Box::new(var(f)), vec![pair, LExp::Int(8)])
        );
        let uncurried_only = prog.clone();
        assert_eq!(flatten(&mut prog), 0);
        assert_eq!(prog, uncurried_only);
        assert_eq!(observe(&prog).0, 50);
    }
}
