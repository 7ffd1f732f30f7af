//! `letregion` placement.
//!
//! A region variable ρ is bound at the *lowest* candidate point (marker)
//! whose subtree contains every syntactic occurrence of ρ, provided ρ does
//! not escape that point — i.e. ρ is absent from the type of the
//! expression, from the types of its free variables, and from the global
//! escape set (program result and exception payloads). Remaining regions
//! become the program's **global regions** (the paper's `r1`, `r2`, ...),
//! pushed at program start and popped at exit — except the formal regions
//! of `fix`-bound functions, which no `letregion` binds either: a formal is
//! bound by its function and stands for the caller's actual, so it is
//! never global.

use crate::annotate::Annotated;
#[cfg(test)]
use crate::rexp::RProgram;
use crate::rexp::{Mult, RExp, RegVar};
use std::collections::{BTreeSet, HashMap};

/// Replaces [`RExp::Marker`]s with `letregion` bindings, filling
/// `prog.globals` with the remaining regions.
pub fn place(ann: &mut Annotated) {
    let mut body = std::mem::replace(&mut ann.prog.body, RExp::Unit);
    // Total occurrence counts: a region may only be bound at a marker whose
    // subtree contains *every* occurrence (otherwise a sibling use — e.g.
    // the actual region of a later call — would be out of scope).
    let mut totals: HashMap<RegVar, usize> = HashMap::new();
    let mut formals = BTreeSet::new();
    count_occurrences(&body, &mut totals, &mut formals);
    let occ = walk(&mut body, &ann.marker_escapes, &ann.global_escapes, &totals);
    // Everything bound neither by a marker (those left `occ`) nor by a
    // function becomes a global region. Regions that never occur
    // syntactically (e.g. the regions of string constants) are dropped
    // entirely. `occ` is a HashMap, so the surviving set is sorted:
    // global-region push order must not depend on hash seeding, or the
    // runtime region stack (and everything downstream of it: the
    // bytecode listing, region ids in profiles) varies from compile to
    // compile.
    let mut globals: Vec<(RegVar, Mult)> = occ
        .keys()
        .filter(|r| !formals.contains(r))
        .map(|&r| (r, Mult::Infinite))
        .collect();
    globals.sort_unstable_by_key(|&(r, _)| r);
    ann.prog.globals = globals;
    ann.prog.body = body;
}

/// Counts the occurrences of every region in `e` and collects the formal
/// regions of its `fix`-bound functions.
fn count_occurrences(e: &RExp, out: &mut HashMap<RegVar, usize>, formals: &mut BTreeSet<RegVar>) {
    crate::count_work(|| 1);
    for p in e.own_places() {
        *out.entry(p).or_default() += 1;
    }
    if let RExp::Fix { funs, .. } = e {
        formals.extend(funs.iter().flat_map(|f| f.formals.iter().copied()));
    }
    e.for_each_child(|c| count_occurrences(c, out, formals));
}

/// Bottom-up walk returning the occurrence counts of the subtree's regions
/// that no marker in it binds; binds regions at markers and rewrites them
/// into `Letregion` nodes. A bound region leaves the map, so it can reach
/// neither an enclosing marker's candidates nor the globals; the smaller
/// of two maps is merged into the larger, so no occurrence is copied more
/// than logarithmically often.
fn walk(
    e: &mut RExp,
    escapes: &[Vec<RegVar>],
    global: &BTreeSet<RegVar>,
    totals: &HashMap<RegVar, usize>,
) -> HashMap<RegVar, usize> {
    crate::count_work(|| 1);
    let mut occ: HashMap<RegVar, usize> = HashMap::new();
    for p in e.own_places() {
        *occ.entry(p).or_default() += 1;
    }
    e.for_each_child_mut(|c| {
        let mut sub = walk(c, escapes, global, totals);
        if sub.len() > occ.len() {
            std::mem::swap(&mut sub, &mut occ);
        }
        crate::count_work(|| sub.len());
        for (r, n) in sub {
            *occ.entry(r).or_default() += n;
        }
    });
    if let RExp::Marker { id, body } = e {
        let esc = &escapes[*id as usize];
        crate::count_work(|| occ.len());
        // Sorted: `occ` iterates in hash order, and the order chosen here
        // is the order the VM pushes the regions in, so it must be a
        // function of the program alone (see `place` on globals).
        let mut cands: Vec<RegVar> = occ
            .iter()
            .filter(|(r, n)| {
                esc.binary_search(r).is_err() && !global.contains(r) && totals.get(r) == Some(n)
            })
            .map(|(r, _)| *r)
            .collect();
        cands.sort_unstable();
        let inner = std::mem::replace(body.as_mut(), RExp::Unit);
        if cands.is_empty() {
            *e = inner;
        } else {
            for r in &cands {
                occ.remove(r);
            }
            *e = RExp::Letregion {
                regs: cands.into_iter().map(|r| (r, Mult::Infinite)).collect(),
                body: Box::new(inner),
            };
        }
    }
    occ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rexp::RExp;

    fn marker(id: u32, body: RExp) -> RExp {
        RExp::Marker {
            id,
            body: Box::new(body),
        }
    }

    #[test]
    fn binds_local_region_at_marker() {
        // marker 0 wraps an allocation at ρ0 whose escape set is empty.
        let mut ann = Annotated {
            prog: dummy_prog(marker(0, RExp::Record(vec![RExp::Int(1)], RegVar(0)))),
            marker_escapes: vec![Vec::new()],
            global_escapes: BTreeSet::new(),
            stats: Default::default(),
        };
        place(&mut ann);
        let RExp::Letregion { regs, .. } = &ann.prog.body else {
            panic!("expected letregion, got {:?}", ann.prog.body)
        };
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].0, RegVar(0));
        assert!(ann.prog.globals.is_empty());
    }

    #[test]
    fn escaping_region_becomes_global() {
        let mut ann = Annotated {
            prog: dummy_prog(marker(0, RExp::Record(vec![RExp::Int(1)], RegVar(0)))),
            marker_escapes: vec![vec![RegVar(0)]],
            global_escapes: BTreeSet::new(),
            stats: Default::default(),
        };
        place(&mut ann);
        assert!(
            matches!(ann.prog.body, RExp::Record(_, _)),
            "marker dissolved"
        );
        assert_eq!(ann.prog.globals, vec![(RegVar(0), Mult::Infinite)]);
    }

    #[test]
    fn inner_marker_wins() {
        // Nested markers: the inner one binds ρ0 first.
        let inner = marker(1, RExp::Record(vec![RExp::Int(1)], RegVar(0)));
        let outer = marker(0, inner);
        let mut ann = Annotated {
            prog: dummy_prog(outer),
            marker_escapes: vec![Vec::new(), Vec::new()],
            global_escapes: BTreeSet::new(),
            stats: Default::default(),
        };
        place(&mut ann);
        // The outer marker dissolves; the inner becomes the letregion.
        let RExp::Letregion { regs, .. } = &ann.prog.body else {
            panic!("expected letregion, got {:?}", ann.prog.body)
        };
        assert_eq!(regs[0].0, RegVar(0));
    }

    #[test]
    fn global_escape_blocks_binding() {
        let mut glob = BTreeSet::new();
        glob.insert(RegVar(0));
        let mut ann = Annotated {
            prog: dummy_prog(marker(0, RExp::Record(vec![RExp::Int(1)], RegVar(0)))),
            marker_escapes: vec![Vec::new()],
            global_escapes: glob,
            stats: Default::default(),
        };
        place(&mut ann);
        assert_eq!(ann.prog.globals.len(), 1);
    }

    /// The formal regions of every `fix`-bound function in `e`.
    fn formals_of(e: &RExp, out: &mut BTreeSet<RegVar>) {
        if let RExp::Fix { funs, .. } = e {
            out.extend(funs.iter().flat_map(|f| f.formals.iter().copied()));
        }
        e.for_each_child(|c| formals_of(c, out));
    }

    #[test]
    fn a_formal_region_is_bound_by_its_function_and_never_global() {
        use crate::rexp::RFixFun;
        use kit_lambda::exp::VarId;
        // fix f[ρ0] x = fn y => (x, y) at ρ0, closure at ρ1   in 0
        // Nothing binds ρ0 or ρ1 with a letregion; only ρ1 is global.
        let pair = RExp::Record(vec![RExp::Var(VarId(1)), RExp::Var(VarId(2))], RegVar(0));
        let inner = RExp::Fn {
            params: vec![VarId(2)],
            body: Box::new(pair),
            at: RegVar(1),
        };
        let fix = RExp::Fix {
            funs: vec![RFixFun {
                var: VarId(0),
                formals: vec![RegVar(0)],
                params: vec![VarId(1)],
                body: inner,
            }],
            body: Box::new(RExp::Int(0)),
            at: RegVar(2),
        };
        let mut ann = Annotated {
            prog: dummy_prog(fix),
            marker_escapes: Vec::new(),
            global_escapes: BTreeSet::new(),
            stats: Default::default(),
        };
        place(&mut ann);
        let globals: Vec<RegVar> = ann.prog.globals.iter().map(|g| g.0).collect();
        assert_eq!(globals, [RegVar(1), RegVar(2)]);
    }

    /// On the 22 corpus programs and 200 generated ones, with and without
    /// the optimiser (which uncurries: without it `map`, `foldl` and the
    /// rest keep their inner `fn`s, whose places are the formals that used
    /// to be listed), with and without §2.6 weakening.
    #[test]
    fn no_formal_region_is_global_on_the_corpus_and_generated_programs() {
        use kit_bench::programs::{self, SplitMix64};
        use kit_bench::randgen::{self, Surface};
        let corpus = programs::all()
            .into_iter()
            .map(|b| (b.name.to_string(), b.source_scaled(b.test_scale)));
        let generated = (0..200).map(|i| {
            let src = randgen::program(&mut SplitMix64::new(0x5EED_1700 + i), Surface::Full);
            (format!("generated:{i}"), src)
        });
        let (mut programs, mut formals_seen) = (0, 0);
        for (name, src) in corpus.chain(generated) {
            let lowered = kit_typing::compile_str(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut optimised = lowered.clone();
            kit_lambda::opt::optimize(&mut optimised, &Default::default());
            for (lprog, gc_safe) in [(&optimised, true), (&optimised, false), (&lowered, true)] {
                let mut ann = crate::annotate::annotate(lprog, gc_safe);
                place(&mut ann);
                let mut formals = BTreeSet::new();
                formals_of(&ann.prog.body, &mut formals);
                formals_seen += formals.len();
                for (g, _) in &ann.prog.globals {
                    assert!(!formals.contains(g), "{name}: formal r{} is global", g.0);
                }
            }
            programs += 1;
        }
        assert_eq!(programs, 222);
        assert!(formals_seen > 222 * 10, "only {formals_seen} formals seen");
    }

    fn dummy_prog(body: RExp) -> RProgram {
        RProgram {
            data: kit_lambda::ty::DataEnv::new(),
            exns: kit_lambda::ty::ExnEnv::new(),
            vars: kit_lambda::exp::VarTable::new(),
            body,
            globals: Vec::new(),
            num_regvars: 8,
        }
    }
}
