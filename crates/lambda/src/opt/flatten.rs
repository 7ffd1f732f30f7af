//! Argument flattening ("unboxing of function arguments", paper §3).
//!
//! A `fix`-bound function whose single parameter is a tuple that the body
//! only ever destructures is rewritten to take the components as separate
//! parameters; saturated calls pass the components directly and no longer
//! allocate the argument tuple. Escaping uses are eta-wrapped.
//!
//! Besides removing an allocation per call, this restores tail calls for
//! the idiomatic `fun loop (n, acc) = ... loop (n - 1, acc') ...` pattern:
//! without flattening the argument tuple needs a region whose `letregion`
//! scope would otherwise enclose the call (the ML Kit's §4.4 limitation
//! would then apply to *every* tupled loop).

use crate::exp::{LExp, LProgram, VarId};
use crate::opt::simplify::for_each_child_mut;
use crate::ty::LTy;
use std::collections::{HashMap, HashSet};

/// Runs argument flattening; returns the number of functions rewritten.
pub fn flatten(prog: &mut LProgram) -> usize {
    flatten_counting(prog, &mut 0)
}

/// [`flatten`], adding the expression nodes it visits to `visits`.
pub(crate) fn flatten_counting(prog: &mut LProgram, visits: &mut usize) -> usize {
    // Parameter -> (function, arity) of every candidate.
    let mut cands: HashMap<VarId, (VarId, usize)> = HashMap::new();
    collect_candidates(&prog.body, &mut cands, visits);
    if cands.is_empty() {
        return 0;
    }
    // Verify usage: the parameter may only appear under `Select`. The
    // function itself may appear as a saturated single-argument callee
    // or as a value (eta-wrapped below).
    let mut dirty = HashSet::new();
    dirty_params(&prog.body, &cands, &mut dirty, visits);
    let ok: HashMap<VarId, usize> = cands
        .iter()
        .filter(|(p, _)| !dirty.contains(p))
        .map(|(_, &fk)| fk)
        .collect();
    if ok.is_empty() {
        return 0;
    }
    let n = ok.len();
    rewrite(&mut prog.body, &ok, &mut prog.vars, visits);
    n
}

/// Candidate functions: single tuple-typed parameter.
fn collect_candidates(e: &LExp, out: &mut HashMap<VarId, (VarId, usize)>, visits: &mut usize) {
    *visits += 1;
    if let LExp::Fix { funs, .. } = e {
        for f in funs {
            if let [(p, LTy::Tuple(ts))] = f.params.as_slice() {
                if ts.len() >= 2 {
                    out.insert(*p, (f.var, ts.len()));
                }
            }
        }
    }
    e.for_each_child(|c| collect_candidates(c, out, visits));
}

/// The candidate parameters with an occurrence that is not the scrutinee
/// of a `Select`.
fn dirty_params(
    e: &LExp,
    cands: &HashMap<VarId, (VarId, usize)>,
    dirty: &mut HashSet<VarId>,
    visits: &mut usize,
) {
    *visits += 1;
    match e {
        LExp::Var(v) => {
            if cands.contains_key(v) {
                dirty.insert(*v);
            }
        }
        LExp::Select { tup, .. } if matches!(tup.as_ref(), LExp::Var(_)) => {}
        _ => e.for_each_child(|c| dirty_params(c, cands, dirty, visits)),
    }
}

fn rewrite(
    e: &mut LExp,
    ok: &HashMap<VarId, usize>,
    vars: &mut crate::exp::VarTable,
    visits: &mut usize,
) {
    *visits += 1;
    // Saturated calls are handled before descending: the callee `Var` must
    // not be rewritten as an escaping use.
    if let LExp::App(callee, args) = e {
        if let LExp::Var(f) = callee.as_ref() {
            if let Some(&k) = ok.get(f) {
                if args.len() == 1 {
                    for a in args.iter_mut() {
                        rewrite(a, ok, vars, visits);
                    }
                    let arg = args.pop().unwrap();
                    match arg {
                        LExp::Record(es) if es.len() == k => {
                            *args = es;
                        }
                        other => {
                            let t = vars.fresh("flatarg");
                            *args = (0..k)
                                .map(|i| LExp::Select {
                                    i,
                                    arity: k,
                                    tup: Box::new(LExp::Var(t)),
                                })
                                .collect();
                            let inner = std::mem::replace(e, LExp::Unit);
                            *e = LExp::Let {
                                var: t,
                                ty: LTy::TyVar(u32::MAX),
                                rhs: Box::new(other),
                                body: Box::new(inner),
                            };
                        }
                    }
                    return;
                }
            }
        }
    }
    for_each_child_mut(e, |c| rewrite(c, ok, vars, visits));
    match e {
        LExp::Fix { funs, .. } => {
            for f in funs.iter_mut() {
                let Some(&k) = ok.get(&f.var) else { continue };
                let p = f.params[0].0;
                let tys = match &f.params[0].1 {
                    LTy::Tuple(ts) => ts.clone(),
                    _ => vec![LTy::TyVar(u32::MAX); k],
                };
                let comps: Vec<VarId> = (0..k)
                    .map(|i| {
                        let name = format!("{}.{i}", vars.name(p));
                        vars.fresh(&name)
                    })
                    .collect();
                subst_selects(&mut f.body, p, &comps, visits);
                f.params = comps.into_iter().zip(tys).collect();
            }
        }
        // Escaping use as a value: eta-wrap to restore the tupled view.
        LExp::Var(f) => {
            if let Some(&k) = ok.get(f) {
                let fv = *f;
                let q = vars.fresh("eta");
                let args = (0..k)
                    .map(|i| LExp::Select {
                        i,
                        arity: k,
                        tup: Box::new(LExp::Var(q)),
                    })
                    .collect();
                *e = LExp::Fn {
                    params: vec![(q, LTy::TyVar(u32::MAX))],
                    ret: LTy::TyVar(u32::MAX),
                    body: Box::new(LExp::App(Box::new(LExp::Var(fv)), args)),
                };
            }
        }
        _ => {}
    }
}

fn subst_selects(e: &mut LExp, p: VarId, comps: &[VarId], visits: &mut usize) {
    *visits += 1;
    if let LExp::Select { i, tup, .. } = e {
        if matches!(tup.as_ref(), LExp::Var(v) if *v == p) {
            *e = LExp::Var(comps[*i]);
            return;
        }
    }
    for_each_child_mut(e, |c| subst_selects(c, p, comps, visits));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{FixFun, Prim, VarTable};
    use crate::ty::{DataEnv, ExnEnv};

    #[test]
    fn flattens_tupled_loop() {
        let mut vars = VarTable::new();
        let f = vars.fresh("loop");
        let p = vars.fresh("p");
        let pty = LTy::Tuple(vec![LTy::Int, LTy::Int]);
        // loop p = loop (#0 p - 1, #1 p)
        let body = LExp::App(
            Box::new(LExp::Var(f)),
            vec![LExp::Record(vec![
                LExp::Prim(
                    Prim::ISub,
                    vec![
                        LExp::Select {
                            i: 0,
                            arity: 2,
                            tup: Box::new(LExp::Var(p)),
                        },
                        LExp::Int(1),
                    ],
                ),
                LExp::Select {
                    i: 1,
                    arity: 2,
                    tup: Box::new(LExp::Var(p)),
                },
            ])],
        );
        let mut prog = LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body: LExp::Fix {
                funs: vec![FixFun {
                    var: f,
                    params: vec![(p, pty)],
                    ret: LTy::Int,
                    body,
                }],
                body: Box::new(LExp::App(
                    Box::new(LExp::Var(f)),
                    vec![LExp::Record(vec![LExp::Int(10), LExp::Int(0)])],
                )),
            },
            result_ty: LTy::Int,
        };
        assert_eq!(flatten(&mut prog), 1);
        // The function now has two parameters and no Record argument.
        let LExp::Fix { funs, body } = &prog.body else {
            panic!()
        };
        assert_eq!(funs[0].params.len(), 2);
        let LExp::App(_, args) = body.as_ref() else {
            panic!()
        };
        assert_eq!(args.len(), 2);
        fn no_records(e: &LExp) -> bool {
            let mut ok = !matches!(e, LExp::Record(_));
            e.for_each_child(|c| ok &= no_records(c));
            ok
        }
        assert!(
            no_records(&funs[0].body),
            "recursive call must be flattened"
        );
    }

    #[test]
    fn escaping_use_is_eta_wrapped() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let p = vars.fresh("p");
        let pty = LTy::Tuple(vec![LTy::Int, LTy::Int]);
        let mut prog = LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body: LExp::Fix {
                funs: vec![FixFun {
                    var: f,
                    params: vec![(p, pty)],
                    ret: LTy::Int,
                    body: LExp::Select {
                        i: 0,
                        arity: 2,
                        tup: Box::new(LExp::Var(p)),
                    },
                }],
                body: Box::new(LExp::Var(f)), // escapes
            },
            result_ty: LTy::Int,
        };
        assert_eq!(flatten(&mut prog), 1);
        let LExp::Fix { body, .. } = &prog.body else {
            panic!()
        };
        assert!(matches!(body.as_ref(), LExp::Fn { .. }), "{body:?}");
    }

    #[test]
    fn param_used_whole_blocks_flattening() {
        let mut vars = VarTable::new();
        let f = vars.fresh("f");
        let p = vars.fresh("p");
        let pty = LTy::Tuple(vec![LTy::Int, LTy::Int]);
        let mut prog = LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body: LExp::Fix {
                funs: vec![FixFun {
                    var: f,
                    params: vec![(p, pty)],
                    ret: LTy::Tuple(vec![LTy::Int, LTy::Int]),
                    body: LExp::Var(p), // returns the whole tuple
                }],
                body: Box::new(LExp::Int(0)),
            },
            result_ty: LTy::Int,
        };
        assert_eq!(flatten(&mut prog), 0);
    }
}
