//! Reachability pruning of the top-level binding spine.
//!
//! A program is its declarations — the prelude's, then the user's —
//! nested as `Let`/`Fix` around the result expression. One backward walk
//! over that spine keeps a binding only if something that is kept uses
//! it: the live set starts as the variables of the result expression and
//! grows by the variables of every binding kept. A `Fix` group none of
//! whose functions is live, and a `Let` whose variable is not live and
//! whose right-hand side is pure, is dropped without being looked into,
//! so the walk costs the spine's length plus the code that survives —
//! and everything behind the optimiser (region inference, code
//! generation, linking) sees only what the program reaches.
//!
//! Sound because building a closure is pure: a `Fix` group or a `Fn`
//! evaluates nothing, so dropping an unreferenced one changes no result,
//! output or exception; any other right-hand side must pass
//! [`is_pure`], the predicate dead-`let` elimination already uses, and
//! an impure one stays and keeps what it mentions alive.
//!
//! The walk itself is [`reach`], over any spine of [`Decl`]s: lowering
//! runs it over the prelude to copy only what a program reaches.

use crate::exp::{FixFun, LExp, LProgram, VarId};
use crate::opt::simplify::is_pure;
use crate::opt::uses::Uses;
use crate::ty::LTy;

/// Drops every top-level binding the program's result cannot reach;
/// returns the number of bindings (`Fix` groups and `Let`s) dropped.
pub fn prune(prog: &mut LProgram) -> usize {
    prune_counting(prog, &mut Uses::default())
}

/// One binding of a top-level spine.
#[derive(Debug, Clone)]
pub enum Binding {
    Let(VarId, LTy, Box<LExp>),
    Fix(Vec<FixFun>),
}

impl Binding {
    /// Splits `e` into its top-level bindings, outermost first, and the
    /// expression they end in.
    pub fn unspine(mut e: LExp) -> (Vec<Binding>, LExp) {
        let mut spine = Vec::new();
        loop {
            e = match e {
                LExp::Let { var, ty, rhs, body } => {
                    spine.push(Binding::Let(var, ty, rhs));
                    *body
                }
                LExp::Fix { funs, body } => {
                    spine.push(Binding::Fix(funs));
                    *body
                }
                end => return (spine, end),
            };
        }
    }

    /// The binding around `body`.
    pub fn wrap(self, body: LExp) -> LExp {
        let body = Box::new(body);
        match self {
            Binding::Let(var, ty, rhs) => LExp::Let { var, ty, rhs, body },
            Binding::Fix(funs) => LExp::Fix { funs, body },
        }
    }

    /// Calls `f` on its right-hand side or on each function body.
    pub fn for_each_part<'a>(&'a self, mut f: impl FnMut(&'a LExp)) {
        match self {
            Binding::Let(_, _, rhs) => f(rhs),
            Binding::Fix(funs) => funs.iter().for_each(|fun| f(&fun.body)),
        }
    }
}

/// A binding as [`reach`] decides it.
pub trait Decl {
    /// Whether `live` holds one of the variables it binds.
    fn binds_live(&self, live: impl Fn(VarId) -> bool) -> bool;
    /// Whether it may go when nothing kept mentions it: a `Fix` group
    /// always, a `Let` only if its right-hand side is [`is_pure`].
    fn droppable(&self) -> bool;
}

impl Decl for Binding {
    fn binds_live(&self, live: impl Fn(VarId) -> bool) -> bool {
        match self {
            Binding::Let(var, _, _) => live(*var),
            Binding::Fix(funs) => funs.iter().any(|f| live(f.var)),
        }
    }

    fn droppable(&self) -> bool {
        match self {
            Binding::Let(_, _, rhs) => is_pure(rhs),
            Binding::Fix(_) => true,
        }
    }
}

/// The live set of [`reach`].
pub trait Live<B> {
    fn is_live(&self, v: VarId) -> bool;
    /// Makes live what the kept binding `b` mentions.
    fn keep(&mut self, b: &B);
}

impl Live<Binding> for Uses {
    fn is_live(&self, v: VarId) -> bool {
        self.is_used(v)
    }

    fn keep(&mut self, b: &Binding) {
        b.for_each_part(|e| self.add(e));
    }
}

/// [`prune`]'s walk: from the innermost binding of `spine` outwards, keeps
/// each binding that binds a live variable or is not droppable, and makes
/// live what it mentions before deciding the next. A binding is mentioned
/// only from further in, so one pass decides them all. Returns the kept
/// bindings, innermost first.
pub fn reach<B: Decl, L: Live<B>>(
    spine: impl DoubleEndedIterator<Item = B>,
    live: &mut L,
) -> Vec<B> {
    spine
        .rev()
        .filter(|b| {
            let kept = b.binds_live(|v| live.is_live(v)) || !b.droppable();
            if kept {
                live.keep(b);
            }
            kept
        })
        .collect()
}

/// [`prune`], leaving in `uses` (empty on entry) the use counts of the
/// program that remains — the marking walk is the counting walk.
pub(crate) fn prune_counting(prog: &mut LProgram, uses: &mut Uses) -> usize {
    let (spine, result) = Binding::unspine(std::mem::replace(&mut prog.body, LExp::Unit));
    let len = spine.len();
    uses.visits += len;
    uses.add(&result);
    let kept = reach(spine.into_iter(), uses);
    let pruned = len - kept.len();
    prog.body = kept.into_iter().fold(result, |body, b| b.wrap(body));
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{Prim, VarTable};
    use crate::ty::{DataEnv, ExnEnv};

    fn fun(var: VarId, param: VarId, body: LExp) -> FixFun {
        FixFun {
            var,
            params: vec![(param, LTy::Int)],
            ret: LTy::Int,
            body,
        }
    }

    fn call(f: VarId, arg: LExp) -> LExp {
        LExp::App(Box::new(LExp::Var(f)), vec![arg])
    }

    #[test]
    fn keeps_what_the_result_reaches_and_drops_the_rest_in_one_walk() {
        let mut vars = VarTable::new();
        let [f, g, h, dead, x, y, z, w, r, u] =
            ["f", "g", "h", "dead", "x", "y", "z", "w", "r", "u"].map(|n| vars.fresh(n));
        // fix f x = x            -- reached through g
        // fix g y = f y          -- reached from the result
        // fix h z = g z          -- only `dead` uses it: goes with it
        // fix dead w = dead (h w)
        // let r = ref 0          -- impure: stays though unused
        // let u = (1, 2)         -- pure and unused: goes
        // g 1
        let body = LExp::Fix {
            funs: vec![fun(f, x, LExp::Var(x))],
            body: Box::new(LExp::Fix {
                funs: vec![fun(g, y, call(f, LExp::Var(y)))],
                body: Box::new(LExp::Fix {
                    funs: vec![fun(h, z, call(g, LExp::Var(z)))],
                    body: Box::new(LExp::Fix {
                        funs: vec![fun(dead, w, call(dead, call(h, LExp::Var(w))))],
                        body: Box::new(LExp::Let {
                            var: r,
                            ty: LTy::Ref(Box::new(LTy::Int)),
                            rhs: Box::new(LExp::Prim(Prim::RefNew, vec![LExp::Int(0)])),
                            body: Box::new(LExp::Let {
                                var: u,
                                ty: LTy::Tuple(vec![LTy::Int, LTy::Int]),
                                rhs: Box::new(LExp::Record(vec![LExp::Int(1), LExp::Int(2)])),
                                body: Box::new(call(g, LExp::Int(1))),
                            }),
                        }),
                    }),
                }),
            }),
        };
        let mut prog = LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body,
            result_ty: LTy::Int,
        };
        let mut uses = Uses::default();
        assert_eq!(prune_counting(&mut prog, &mut uses), 3);
        uses.assert_exact(&prog.body, "after pruning");
        let mut kept = Vec::new();
        let mut e = &prog.body;
        loop {
            e = match e {
                LExp::Fix { funs, body } => {
                    kept.push(funs[0].var);
                    body
                }
                LExp::Let { var, body, .. } => {
                    kept.push(*var);
                    body
                }
                _ => break,
            };
        }
        assert_eq!(kept, [f, g, r]);
        let once = prog.body.clone();
        assert_eq!(prune(&mut prog), 0, "pruning is idempotent");
        assert_eq!(prog.body, once);
    }
}
