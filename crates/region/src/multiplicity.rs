//! Region representation inference (paper §3, Birkedal–Tofte–Vejlstrup):
//! multiplicity analysis deciding finite vs infinite regions, and the
//! "disable region inference" collapse used for the `gt` mode. One scan
//! gathers each region's usage, one rewrite applies the decisions.

use crate::rexp::{Arena, ExpId, Mult, RExp, RProgram, RegVar};
use kit_lambda::exp::Prim;

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
    let mut usage = vec![Usage::default(); prog.num_regvars as usize];
    scan(prog, prog.body, 0, &mut usage);
    // Which regions stay, and as what: collapsing keeps only the finite
    // ones, and the baseline keeps none.
    let decide = |r: RegVar| -> Option<Mult> {
        let m = usage[r.0 as usize].mult();
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
    let body = prog.body;
    rewrite(prog, body, &decide, onto, &mut Vec::new());
    let globals = std::mem::take(&mut prog.globals);
    prog.globals = globals
        .into_iter()
        .filter_map(|(r, _)| decide(r).map(|m| (r, m)))
        .collect();
    if let Some(g) = onto {
        prog.globals.insert(0, (g, Mult::Infinite));
    }
}

fn scan(prog: &Arena, id: ExpId, depth: u32, usage: &mut [Usage]) {
    crate::count_work(|| 1);
    let site = |r: RegVar, large: bool, usage: &mut [Usage]| {
        let u = &mut usage[r.0 as usize];
        u.sites += 1;
        u.site_depth = u.site_depth.max(depth);
        u.large |= large;
    };
    let e = prog.node(id);
    match e {
        RExp::Real(_, p) | RExp::Record(_, p) | RExp::Fn { at: p, .. } => site(p, false, usage),
        RExp::Fix { at, .. } => site(at, false, usage),
        RExp::Prim(p, _, Some(place)) => {
            let large = matches!(
                p,
                Prim::StrConcat | Prim::ItoS | Prim::RtoS | Prim::Chr | Prim::ArrNew
            );
            site(place, large, usage);
        }
        RExp::Con { at: Some(p), .. } | RExp::ExCon { at: Some(p), .. } => site(p, false, usage),
        RExp::FixVar { rargs, at, .. } => {
            site(at, false, usage);
            for r in prog.places(rargs) {
                usage[r.0 as usize].as_rarg = true;
            }
        }
        RExp::App { rargs, .. } => {
            for r in prog.places(rargs) {
                usage[r.0 as usize].as_rarg = true;
            }
        }
        RExp::Letregion { regs, .. } => {
            for (r, _) in prog.regs(regs) {
                usage[r.0 as usize].binder_depth = depth;
            }
        }
        _ => {}
    }
    // Descend; lambda boundaries bump the depth.
    match e {
        RExp::Fn { body, .. } => scan(prog, body, depth + 1, usage),
        RExp::Fix { funs, body, .. } => {
            for f in prog.funs(funs) {
                scan(prog, f.body, depth + 1, usage);
            }
            scan(prog, body, depth, usage);
        }
        _ => prog.for_each_child(&e, |c| scan(prog, c, depth, usage)),
    }
}

/// Applies the decisions in place: a `letregion` keeps the regions
/// `decide` keeps and dissolves when it keeps none; when collapsing, every
/// region a node names that is not kept — formals and region arguments
/// included — becomes `onto`. `kids` is scratch.
fn rewrite(
    prog: &mut Arena,
    id: ExpId,
    decide: &impl Fn(RegVar) -> Option<Mult>,
    onto: Option<RegVar>,
    kids: &mut Vec<ExpId>,
) {
    crate::count_work(|| 1);
    if let Some(g) = onto {
        prog.map_regions(id, |r| if decide(r).is_some() { r } else { g });
    }
    let e = prog.node(id);
    let base = kids.len();
    prog.push_children(&e, kids);
    for k in base..kids.len() {
        rewrite(prog, kids[k], decide, onto, kids);
    }
    kids.truncate(base);
    if let RExp::Letregion { regs, body } = e {
        let regs = prog.retain_regs(regs, decide);
        if regs.is_empty() {
            prog.set(id, prog.node(body));
        } else {
            prog.set(id, RExp::Letregion { regs, body });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rexp::Span;

    fn prog(globals: Vec<(RegVar, Mult)>) -> RProgram {
        RProgram {
            data: kit_lambda::ty::DataEnv::new(),
            exns: kit_lambda::ty::ExnEnv::new(),
            vars: kit_lambda::exp::VarTable::new(),
            arena: Arena::default(),
            body: ExpId(0),
            globals,
            num_regvars: 10,
        }
    }

    /// `(n) at r`.
    fn record(p: &mut RProgram, n: i64, r: u32) -> ExpId {
        let n = p.push(RExp::Int(n));
        let kids = p.push_kids([n]);
        p.push(RExp::Record(kids, RegVar(r)))
    }

    fn letregion(p: &mut RProgram, r: u32, body: ExpId) -> ExpId {
        let regs = p.push_regs([(RegVar(r), Mult::Infinite)]);
        p.push(RExp::Letregion { regs, body })
    }

    /// The multiplicities bound by the `letregion` at `id`.
    fn bound_mults(p: &RProgram, id: ExpId) -> Vec<Mult> {
        let RExp::Letregion { regs, .. } = p.node(id) else {
            panic!("expected letregion, got {:?}", p.node(id))
        };
        p.regs(regs).iter().map(|&(_, m)| m).collect()
    }

    #[test]
    fn single_site_region_is_finite() {
        let mut p = prog(vec![]);
        let rec = record(&mut p, 1, 0);
        p.body = letregion(&mut p, 0, rec);
        infer_multiplicities(&mut p);
        assert_eq!(bound_mults(&p, p.body), [Mult::Finite]);
    }

    #[test]
    fn site_under_lambda_is_infinite() {
        let mut p = prog(vec![(RegVar(1), Mult::Infinite)]);
        let rec = record(&mut p, 1, 0);
        let f = p.push(RExp::Fn {
            params: Span::EMPTY,
            body: rec,
            at: RegVar(1),
        });
        p.body = letregion(&mut p, 0, f);
        infer_multiplicities(&mut p);
        assert_eq!(bound_mults(&p, p.body), [Mult::Infinite]);

        // Judged from the binding: a `letregion` inside the `fn` whose one
        // site is in that same body runs once per region lifetime.
        let mut p = prog(vec![(RegVar(1), Mult::Infinite)]);
        let rec = record(&mut p, 1, 0);
        let lr = letregion(&mut p, 0, rec);
        p.body = p.push(RExp::Fn {
            params: Span::EMPTY,
            body: lr,
            at: RegVar(1),
        });
        infer_multiplicities(&mut p);
        let RExp::Fn { body, .. } = p.node(p.body) else {
            panic!("{:?}", p.node(p.body))
        };
        assert_eq!(bound_mults(&p, body), [Mult::Finite]);
    }

    /// `letregion r0 in ((1) at r0, (2) at r0) at r1`.
    fn two_sites(p: &mut RProgram) {
        let (a, b) = (record(p, 1, 0), record(p, 2, 0));
        let kids = p.push_kids([a, b]);
        let outer = p.push(RExp::Record(kids, RegVar(1)));
        p.body = letregion(p, 0, outer);
    }

    #[test]
    fn multi_site_region_is_infinite() {
        let mut p = prog(vec![(RegVar(1), Mult::Infinite)]);
        two_sites(&mut p);
        infer_multiplicities(&mut p);
        assert_eq!(bound_mults(&p, p.body), [Mult::Infinite]);
    }

    #[test]
    fn dead_region_binding_dropped() {
        let mut p = prog(vec![]);
        let one = p.push(RExp::Int(1));
        p.body = letregion(&mut p, 0, one);
        infer_multiplicities(&mut p);
        assert_eq!(p.node(p.body), RExp::Int(1));
    }

    #[test]
    fn string_allocation_forces_infinite() {
        let mut p = prog(vec![]);
        let five = p.push(RExp::Int(5));
        let kids = p.push_kids([five]);
        let s = p.push(RExp::Prim(Prim::ItoS, kids, Some(RegVar(0))));
        p.body = letregion(&mut p, 0, s);
        infer_multiplicities(&mut p);
        assert_eq!(bound_mults(&p, p.body), [Mult::Infinite]);
    }

    #[test]
    fn collapse_rewrites_infinite_to_global() {
        let mut p = prog(vec![(RegVar(1), Mult::Infinite)]);
        two_sites(&mut p);
        collapse_infinite(&mut p);
        let g = p.globals[0].0;
        // No letregion remains. The outer record region (one site) stays a
        // finite stack region — the paper keeps finite regions in `gt` mode
        // — while the two-site inner region collapses onto the global.
        let RExp::Record(es, p1) = p.node(p.body) else {
            panic!("{:?}", p.node(p.body))
        };
        assert_eq!(p1, RegVar(1));
        assert!(p.globals.contains(&(RegVar(1), Mult::Finite)));
        for &inner in p.kids(es) {
            let RExp::Record(_, at) = p.node(inner) else {
                panic!()
            };
            assert_eq!(at, g);
        }
    }
}
