//! A checker for what region inference emits: the structural clauses of
//! the region typing that code generation relies on, read off the finished
//! program without inferring anything.
//!
//! * every place is bound in scope: by a `letregion`, by a formal of an
//!   enclosing `fix`-bound function, or as a global region;
//! * no `letregion` candidate (marker) is left;
//! * a known call, and an escaping use of a `fix`-bound function, passes
//!   as many regions as the function has formals.
//!
//! [`crate::infer`] runs it on its result in every debug build.

use crate::rexp::{ExpId, RExp, RProgram, RegVar};
use kit_lambda::exp::VarId;
use std::fmt;

/// The first clause [`check`] finds broken, naming the function it is in
/// (`None`: the top level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A place names a region that nothing in scope binds.
    UnboundPlace {
        /// The region.
        region: RegVar,
        /// Where.
        within: Option<String>,
    },
    /// A `letregion` candidate survived placement.
    Marker {
        /// Where.
        within: Option<String>,
    },
    /// A use of a `fix`-bound function passes the wrong number of regions.
    RegionArity {
        /// The function used.
        callee: String,
        /// Regions passed.
        passed: usize,
        /// Formals the function has.
        formals: usize,
        /// Where.
        within: Option<String>,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let within = |w: &Option<String>| match w {
            Some(name) => format!("in {name}"),
            None => "at top level".to_string(),
        };
        match self {
            CheckError::UnboundPlace { region, within: w } => {
                write!(f, "region r{} is not in scope {}", region.0, within(w))
            }
            CheckError::Marker { within: w } => {
                write!(f, "a letregion candidate survived placement {}", within(w))
            }
            CheckError::RegionArity {
                callee,
                passed,
                formals,
                within: w,
            } => write!(
                f,
                "{callee} takes {formals} region(s) but is passed {passed} {}",
                within(w)
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks `prog` (see the module documentation).
///
/// # Errors
///
/// The first broken clause met in evaluation order.
pub fn check(prog: &RProgram) -> Result<(), CheckError> {
    let mut cx = Checker {
        prog,
        in_scope: vec![0; prog.num_regvars as usize],
        formals: vec![None; prog.vars.len()],
        within: None,
    };
    for &(r, _) in &prog.globals {
        cx.enter(r);
    }
    cx.exp(prog.body)
}

struct Checker<'a> {
    prog: &'a RProgram,
    /// Per region: how many binders in scope bind it (the formals of a
    /// group's functions may share a region).
    in_scope: Vec<u32>,
    /// Per `fix`-bound variable met so far (each is bound once): its
    /// number of formals.
    formals: Vec<Option<usize>>,
    /// The innermost enclosing `fix`-bound function.
    within: Option<VarId>,
}

impl Checker<'_> {
    fn enter(&mut self, r: RegVar) {
        if let Some(n) = self.in_scope.get_mut(r.0 as usize) {
            *n += 1;
        }
    }

    fn leave(&mut self, r: RegVar) {
        if let Some(n) = self.in_scope.get_mut(r.0 as usize) {
            *n -= 1;
        }
    }

    fn within(&self) -> Option<String> {
        self.within.map(|v| self.name(v))
    }

    fn name(&self, v: VarId) -> String {
        format!("{}_{}", self.prog.vars.name(v), v.0)
    }

    /// A use of `v` passing `passed` regions, if `v` is `fix`-bound.
    fn arity(&self, v: VarId, passed: usize) -> Result<(), CheckError> {
        match self.formals.get(v.0 as usize).copied().flatten() {
            Some(formals) if formals != passed => Err(CheckError::RegionArity {
                callee: self.name(v),
                passed,
                formals,
                within: self.within(),
            }),
            _ => Ok(()),
        }
    }

    fn exp(&mut self, id: ExpId) -> Result<(), CheckError> {
        let p = self.prog;
        let e = p.node(id);
        let mut unbound = None;
        p.for_each_place(&e, |r| {
            if self.in_scope.get(r.0 as usize).copied().unwrap_or(0) == 0 {
                unbound = unbound.or(Some(r));
            }
        });
        if let Some(region) = unbound {
            return Err(CheckError::UnboundPlace {
                region,
                within: self.within(),
            });
        }
        match e {
            RExp::Marker { .. } => {
                return Err(CheckError::Marker {
                    within: self.within(),
                })
            }
            RExp::FixVar { var, rargs, .. } => self.arity(var, rargs.len())?,
            RExp::App { callee, rargs, .. } => {
                if let RExp::Var(v) = p.node(callee) {
                    self.arity(v, rargs.len())?;
                }
            }
            RExp::Letregion { regs, body } => {
                p.regs(regs).iter().for_each(|&(r, _)| self.enter(r));
                self.exp(body)?;
                p.regs(regs).iter().for_each(|&(r, _)| self.leave(r));
                return Ok(());
            }
            RExp::Fix { funs, body, .. } => {
                for f in p.funs(funs) {
                    self.formals[f.var.0 as usize] = Some(f.formals.len());
                }
                let outer = self.within;
                for f in p.funs(funs) {
                    let formals = p.places(f.formals);
                    formals.iter().for_each(|&r| self.enter(r));
                    self.within = Some(f.var);
                    self.exp(f.body)?;
                    formals.iter().for_each(|&r| self.leave(r));
                }
                self.within = outer;
                return self.exp(body);
            }
            _ => {}
        }
        let mut res = Ok(());
        p.for_each_child(&e, |c| {
            if res.is_ok() {
                res = self.exp(c);
            }
        });
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rexp::{Arena, RFixFun};

    fn prog(globals: &[RegVar]) -> RProgram {
        RProgram {
            data: kit_lambda::ty::DataEnv::new(),
            exns: kit_lambda::ty::ExnEnv::new(),
            vars: kit_lambda::exp::VarTable::new(),
            arena: Arena::default(),
            body: ExpId(0),
            globals: globals
                .iter()
                .map(|&r| (r, crate::Mult::Infinite))
                .collect(),
            num_regvars: 4,
        }
    }

    /// `(1) at r`.
    fn record(p: &mut RProgram, r: u32) -> ExpId {
        let one = p.push(RExp::Int(1));
        let kids = p.push_kids([one]);
        p.push(RExp::Record(kids, RegVar(r)))
    }

    #[test]
    fn a_place_must_be_bound() {
        let mut p = prog(&[RegVar(1)]);
        p.body = record(&mut p, 1);
        assert_eq!(check(&p), Ok(()));
        p.body = record(&mut p, 0);
        assert_eq!(
            check(&p),
            Err(CheckError::UnboundPlace {
                region: RegVar(0),
                within: None
            })
        );
        let regs = p.push_regs([(RegVar(0), crate::Mult::Finite)]);
        let rec = p.body;
        p.body = p.push(RExp::Letregion { regs, body: rec });
        assert_eq!(check(&p), Ok(()));
    }

    #[test]
    fn no_marker_may_survive() {
        let mut p = prog(&[]);
        let one = p.push(RExp::Int(1));
        p.body = p.push(RExp::Marker { id: 0, body: one });
        assert_eq!(check(&p), Err(CheckError::Marker { within: None }));
    }

    /// `fix f[r0] x = (1) at r0 in f[..] 1` passing `passed` regions.
    fn call_with(passed: &[RegVar]) -> RProgram {
        let mut p = prog(&[RegVar(1), RegVar(2)]);
        let (f, x) = (p.vars.fresh("f"), p.vars.fresh("x"));
        let body = record(&mut p, 0);
        let fun = RFixFun {
            var: f,
            formals: p.push_places([RegVar(0)]),
            params: p.push_params([x]),
            body,
        };
        let funs = p.push_funs([fun]);
        let callee = p.push(RExp::Var(fun.var));
        let one = p.push(RExp::Int(1));
        let args = p.push_kids([one]);
        let rargs = p.push_places(passed.iter().copied());
        let call = p.push(RExp::App {
            callee,
            rargs,
            args,
        });
        p.body = p.push(RExp::Fix {
            funs,
            body: call,
            at: RegVar(2),
        });
        p
    }

    #[test]
    fn a_known_call_passes_one_region_per_formal() {
        assert_eq!(check(&call_with(&[RegVar(1)])), Ok(()));
        let err = check(&call_with(&[])).expect_err("arity mismatch not reported");
        assert_eq!(
            err.to_string(),
            "f_0 takes 1 region(s) but is passed 0 at top level"
        );
    }
}
