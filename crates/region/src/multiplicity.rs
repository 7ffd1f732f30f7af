//! Region representation inference (paper §3, Birkedal–Tofte–Vejlstrup):
//! multiplicity analysis deciding finite vs infinite regions, and the
//! "disable region inference" collapse used for the `gt` mode. One scan
//! gathers each region's usage, one rewrite applies the decisions.

use crate::rexp::{Mult, RExp, RProgram, RegVar};
use kit_lambda::exp::Prim;
use std::collections::HashMap;

#[derive(Debug, Default, Clone)]
struct Usage {
    /// Static allocation sites with this place.
    sites: u32,
    /// Lambda depth of the deepest site.
    site_depth: u32,
    /// Lambda depth of the binding `letregion` (0 for a global). A site
    /// deeper than its binding sits under a `fn`/`fix` boundary relative to
    /// it — it may execute many times per region lifetime.
    binder_depth: u32,
    /// Passed as an actual region argument (callee may allocate repeatedly).
    as_rarg: bool,
    /// Receives a large object (strings/arrays need the region's
    /// large-object list, so the region must be infinite).
    large: bool,
}

impl Usage {
    /// Finite: one site, not under a lambda relative to the binding, no
    /// region arguments, no large objects. `None`: a dead region, whose
    /// binding is dropped.
    fn mult(&self) -> Option<Mult> {
        if self.sites == 0 && !self.as_rarg {
            None
        } else if self.sites == 1
            && self.site_depth == self.binder_depth
            && !self.as_rarg
            && !self.large
        {
            Some(Mult::Finite)
        } else {
            Some(Mult::Infinite)
        }
    }
}

/// What the rewrite does with the regions once their multiplicities are
/// decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Collapse {
    /// Keep every region.
    Nothing,
    /// Collapse the infinite regions onto one global region.
    Infinite,
    /// Collapse every region onto one global region.
    All,
}

/// Decides [`Mult::Finite`] vs [`Mult::Infinite`] for every `letregion`
/// binding and every global, and drops regions that are never used.
pub fn infer_multiplicities(prog: &mut RProgram) {
    represent(prog, Collapse::Nothing);
}

/// "Disabling region inference" (paper §4): multiplicities as
/// [`infer_multiplicities`], then every infinite region — letregion-bound,
/// global, or passed as a region argument — is replaced by one global
/// region; finite regions are kept (values still go on the stack). The
/// collector then degenerates to plain Cheney within one region.
pub fn collapse_infinite(prog: &mut RProgram) {
    represent(prog, Collapse::Infinite);
}

/// Collapses *every* region — finite ones included — onto one global
/// region, for the generational baseline (SML/NJ allocates everything in
/// the heap and "uses no stack at all", paper §1.1).
pub fn collapse_all(prog: &mut RProgram) {
    represent(prog, Collapse::All);
}

fn represent(prog: &mut RProgram, collapse: Collapse) {
    let mut usage: HashMap<RegVar, Usage> = HashMap::new();
    scan(&prog.body, 0, &mut usage);
    // Which regions stay, and as what: collapsing keeps only the finite
    // ones, and the baseline keeps none.
    let decide = |r: RegVar| -> Option<Mult> {
        let m = usage.get(&r).and_then(Usage::mult);
        match collapse {
            Collapse::Nothing => m,
            Collapse::Infinite => m.filter(|&m| m == Mult::Finite),
            Collapse::All => None,
        }
    };
    let onto = (collapse != Collapse::Nothing).then(|| {
        prog.num_regvars += 1;
        RegVar(prog.num_regvars - 1)
    });
    rewrite(&mut prog.body, &decide, onto);
    let globals = std::mem::take(&mut prog.globals);
    prog.globals = globals
        .into_iter()
        .filter_map(|(r, _)| decide(r).map(|m| (r, m)))
        .collect();
    if let Some(g) = onto {
        prog.globals.insert(0, (g, Mult::Infinite));
    }
}

fn scan(e: &RExp, depth: u32, usage: &mut HashMap<RegVar, Usage>) {
    crate::count_work(|| 1);
    let site = |r: RegVar, large: bool, usage: &mut HashMap<RegVar, Usage>| {
        let u = usage.entry(r).or_default();
        u.sites += 1;
        u.site_depth = u.site_depth.max(depth);
        u.large |= large;
    };
    match e {
        RExp::Real(_, p) | RExp::Record(_, p) | RExp::Fn { at: p, .. } => site(*p, false, usage),
        RExp::Fix { at, .. } => site(*at, false, usage),
        RExp::Prim(p, _, Some(place)) => {
            let large = matches!(
                p,
                Prim::StrConcat | Prim::ItoS | Prim::RtoS | Prim::Chr | Prim::ArrNew
            );
            site(*place, large, usage);
        }
        RExp::Con { at: Some(p), .. } | RExp::ExCon { at: Some(p), .. } => site(*p, false, usage),
        RExp::FixVar { rargs, at, .. } => {
            site(*at, false, usage);
            for r in rargs {
                usage.entry(*r).or_default().as_rarg = true;
            }
        }
        RExp::App { rargs, .. } => {
            for r in rargs {
                usage.entry(*r).or_default().as_rarg = true;
            }
        }
        RExp::Letregion { regs, .. } => {
            for (r, _) in regs {
                usage.entry(*r).or_default().binder_depth = depth;
            }
        }
        _ => {}
    }
    // Descend; lambda boundaries bump the depth.
    match e {
        RExp::Fn { body, .. } => scan(body, depth + 1, usage),
        RExp::Fix { funs, body, .. } => {
            for f in funs {
                scan(&f.body, depth + 1, usage);
            }
            scan(body, depth, usage);
        }
        _ => e.for_each_child(|c| scan(c, depth, usage)),
    }
}

/// Applies the decisions: a `letregion` keeps the regions `decide` keeps
/// and dissolves when it keeps none; when collapsing, every region a node
/// names that is not kept — formals and region arguments included —
/// becomes `onto`.
fn rewrite(e: &mut RExp, decide: &impl Fn(RegVar) -> Option<Mult>, onto: Option<RegVar>) {
    crate::count_work(|| 1);
    if let Some(g) = onto {
        e.map_own_regions(|r| if decide(r).is_some() { r } else { g });
    }
    e.for_each_child_mut(|c| rewrite(c, decide, onto));
    if let RExp::Letregion { regs, body } = e {
        let kept: Vec<(RegVar, Mult)> = regs
            .iter()
            .filter_map(|&(r, _)| decide(r).map(|m| (r, m)))
            .collect();
        if kept.is_empty() {
            let inner = std::mem::replace(body.as_mut(), RExp::Unit);
            *e = inner;
        } else {
            *regs = kept;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rexp::{RExp, RProgram};

    fn prog(body: RExp, globals: Vec<(RegVar, Mult)>) -> RProgram {
        RProgram {
            data: kit_lambda::ty::DataEnv::new(),
            exns: kit_lambda::ty::ExnEnv::new(),
            vars: kit_lambda::exp::VarTable::new(),
            body,
            globals,
            num_regvars: 10,
        }
    }

    #[test]
    fn single_site_region_is_finite() {
        let body = RExp::Letregion {
            regs: vec![(RegVar(0), Mult::Infinite)],
            body: Box::new(RExp::Record(vec![RExp::Int(1)], RegVar(0))),
        };
        let mut p = prog(body, vec![]);
        infer_multiplicities(&mut p);
        let RExp::Letregion { regs, .. } = &p.body else {
            panic!()
        };
        assert_eq!(regs[0].1, Mult::Finite);
    }

    #[test]
    fn site_under_lambda_is_infinite() {
        let body = RExp::Letregion {
            regs: vec![(RegVar(0), Mult::Infinite)],
            body: Box::new(RExp::Fn {
                params: vec![],
                body: Box::new(RExp::Record(vec![RExp::Int(1)], RegVar(0))),
                at: RegVar(1),
            }),
        };
        let mut p = prog(body, vec![(RegVar(1), Mult::Infinite)]);
        infer_multiplicities(&mut p);
        let RExp::Letregion { regs, .. } = &p.body else {
            panic!()
        };
        assert_eq!(regs[0].1, Mult::Infinite);

        // Judged from the binding: a `letregion` inside the `fn` whose one
        // site is in that same body runs once per region lifetime.
        let body = RExp::Fn {
            params: vec![],
            body: Box::new(RExp::Letregion {
                regs: vec![(RegVar(0), Mult::Infinite)],
                body: Box::new(RExp::Record(vec![RExp::Int(1)], RegVar(0))),
            }),
            at: RegVar(1),
        };
        let mut p = prog(body, vec![(RegVar(1), Mult::Infinite)]);
        infer_multiplicities(&mut p);
        let RExp::Fn { body, .. } = &p.body else {
            panic!("{:?}", p.body)
        };
        let RExp::Letregion { regs, .. } = body.as_ref() else {
            panic!("{body:?}")
        };
        assert_eq!(regs[0].1, Mult::Finite);
    }

    #[test]
    fn multi_site_region_is_infinite() {
        let body = RExp::Letregion {
            regs: vec![(RegVar(0), Mult::Infinite)],
            body: Box::new(RExp::Record(
                vec![
                    RExp::Record(vec![RExp::Int(1)], RegVar(0)),
                    RExp::Record(vec![RExp::Int(2)], RegVar(0)),
                ],
                RegVar(1),
            )),
        };
        let mut p = prog(body, vec![(RegVar(1), Mult::Infinite)]);
        infer_multiplicities(&mut p);
        let RExp::Letregion { regs, .. } = &p.body else {
            panic!()
        };
        assert_eq!(regs[0].1, Mult::Infinite);
    }

    #[test]
    fn dead_region_binding_dropped() {
        let body = RExp::Letregion {
            regs: vec![(RegVar(0), Mult::Infinite)],
            body: Box::new(RExp::Int(1)),
        };
        let mut p = prog(body, vec![]);
        infer_multiplicities(&mut p);
        assert_eq!(p.body, RExp::Int(1));
    }

    #[test]
    fn string_allocation_forces_infinite() {
        let body = RExp::Letregion {
            regs: vec![(RegVar(0), Mult::Infinite)],
            body: Box::new(RExp::Prim(Prim::ItoS, vec![RExp::Int(5)], Some(RegVar(0)))),
        };
        let mut p = prog(body, vec![]);
        infer_multiplicities(&mut p);
        let RExp::Letregion { regs, .. } = &p.body else {
            panic!()
        };
        assert_eq!(regs[0].1, Mult::Infinite);
    }

    #[test]
    fn collapse_rewrites_infinite_to_global() {
        let body = RExp::Letregion {
            regs: vec![(RegVar(0), Mult::Infinite)],
            body: Box::new(RExp::Record(
                vec![
                    RExp::Record(vec![RExp::Int(1)], RegVar(0)),
                    RExp::Record(vec![RExp::Int(2)], RegVar(0)),
                ],
                RegVar(1),
            )),
        };
        let mut p = prog(body, vec![(RegVar(1), Mult::Infinite)]);
        collapse_infinite(&mut p);
        let g = p.globals[0].0;
        // No letregion remains. The outer record region (one site) stays a
        // finite stack region — the paper keeps finite regions in `gt` mode
        // — while the two-site inner region collapses onto the global.
        let RExp::Record(es, p1) = &p.body else {
            panic!("{:?}", p.body)
        };
        assert_eq!(*p1, RegVar(1));
        assert!(p.globals.contains(&(RegVar(1), Mult::Finite)));
        let RExp::Record(_, p2) = &es[0] else {
            panic!()
        };
        assert_eq!(*p2, g);
        let RExp::Record(_, p3) = &es[1] else {
            panic!()
        };
        assert_eq!(*p3, g);
    }
}
