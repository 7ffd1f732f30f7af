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
//!
//! Two walks in the same order. The first numbers every occurrence and
//! records each region's first and last one. The second meets the
//! occurrences again; a region becomes *pending* at its last occurrence.
//! A marker's subtree holds every occurrence of exactly those regions that
//! became pending inside it and whose first occurrence is inside it too,
//! so a marker looks only at the regions that became pending inside it and
//! are still unbound; those it binds leave the pending list.

use crate::annotate::{Annotated, Escapes};
use crate::rexp::{Arena, ExpId, Mult, RExp, RegVar};

/// Replaces [`RExp::Marker`]s with `letregion` bindings (in place),
/// filling `prog.globals` with the remaining regions.
pub fn place(ann: &mut Annotated) {
    let n = ann.prog.num_regvars as usize;
    let mut occ = Occurrences {
        first: vec![u32::MAX; n],
        last: vec![0; n],
        formal: vec![false; n],
        clock: 0,
    };
    let body = ann.prog.body;
    occ.scan(&ann.prog, body);
    let mut placer = Placer {
        first: occ.first,
        last: occ.last,
        clock: 0,
        pending: Vec::new(),
        cands: Vec::new(),
        kids: Vec::new(),
        escapes: &ann.marker_escapes,
        global: &ann.global_escapes,
    };
    placer.walk(&mut ann.prog, body);
    // Everything bound neither by a marker (those still pending) nor by a
    // function becomes a global region. Regions that never occur
    // syntactically (e.g. the regions of string constants) are dropped
    // entirely. Sorted: global-region push order must be a function of
    // the program alone, as the bytecode listing and region ids in
    // profiles follow it.
    let mut globals: Vec<(RegVar, Mult)> = placer
        .pending
        .iter()
        .filter(|r| !occ.formal[r.0 as usize])
        .map(|&r| (r, Mult::Infinite))
        .collect();
    globals.sort_unstable_by_key(|&(r, _)| r);
    ann.prog.globals = globals;
}

/// The first walk's findings, by region.
struct Occurrences {
    /// Number of the first and of the last occurrence.
    first: Vec<u32>,
    last: Vec<u32>,
    /// Whether the region is a formal of some `fix`-bound function.
    formal: Vec<bool>,
    /// Occurrences met so far.
    clock: u32,
}

impl Occurrences {
    fn scan(&mut self, prog: &Arena, id: ExpId) {
        crate::count_work(|| 1);
        let e = prog.node(id);
        prog.for_each_place(&e, |p| {
            let r = p.0 as usize;
            self.first[r] = self.first[r].min(self.clock);
            self.last[r] = self.clock;
            self.clock += 1;
        });
        if let RExp::Fix { funs, .. } = e {
            for f in prog.funs(funs) {
                for r in prog.places(f.formals) {
                    self.formal[r.0 as usize] = true;
                }
            }
        }
        prog.for_each_child(&e, |c| self.scan(prog, c));
    }
}

struct Placer<'a> {
    first: Vec<u32>,
    last: Vec<u32>,
    clock: u32,
    /// Unbound regions whose last occurrence has been met, in that order.
    pending: Vec<RegVar>,
    /// Scratch: the regions one marker binds.
    cands: Vec<RegVar>,
    /// Scratch: the children of the nodes being walked.
    kids: Vec<ExpId>,
    escapes: &'a Escapes,
    global: &'a [RegVar],
}

impl Placer<'_> {
    fn walk(&mut self, prog: &mut Arena, id: ExpId) {
        crate::count_work(|| 1);
        let (entered, pending_from) = (self.clock, self.pending.len());
        let e = prog.node(id);
        prog.for_each_place(&e, |p| {
            if self.last[p.0 as usize] == self.clock {
                self.pending.push(p);
            }
            self.clock += 1;
        });
        let kids = self.kids.len();
        prog.push_children(&e, &mut self.kids);
        for k in kids..self.kids.len() {
            self.walk(prog, self.kids[k]);
        }
        self.kids.truncate(kids);
        let RExp::Marker { id: m, body } = e else {
            return;
        };
        let esc = self.escapes.of(m);
        crate::count_work(|| self.pending.len() - pending_from);
        let mut kept = pending_from;
        for k in pending_from..self.pending.len() {
            let r = self.pending[k];
            if self.first[r.0 as usize] >= entered
                && esc.binary_search(&r).is_err()
                && self.global.binary_search(&r).is_err()
            {
                self.cands.push(r);
            } else {
                self.pending[kept] = r;
                kept += 1;
            }
        }
        self.pending.truncate(kept);
        if self.cands.is_empty() {
            prog.set(id, prog.node(body));
        } else {
            // Sorted: the order chosen here is the order the VM pushes the
            // regions in, so it must be a function of the program alone.
            self.cands.sort_unstable();
            let regs = prog.push_regs(self.cands.drain(..).map(|r| (r, Mult::Infinite)));
            prog.set(id, RExp::Letregion { regs, body });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rexp::{RFixFun, RProgram};
    use kit_lambda::exp::VarId;

    /// `marker(0, (1) at r0)` with the given escape sets.
    fn one_marker(escapes: &[&[RegVar]], global: Vec<RegVar>) -> Annotated {
        let mut prog = dummy_prog();
        let one = prog.push(RExp::Int(1));
        let kids = prog.push_kids([one]);
        let rec = prog.push(RExp::Record(kids, RegVar(0)));
        prog.body = prog.push(RExp::Marker { id: 0, body: rec });
        Annotated {
            prog,
            marker_escapes: Escapes::from_sets(escapes.iter().copied()),
            global_escapes: global,
            stats: Default::default(),
        }
    }

    #[test]
    fn binds_local_region_at_marker() {
        // marker 0 wraps an allocation at ρ0 whose escape set is empty.
        let mut ann = one_marker(&[&[]], Vec::new());
        place(&mut ann);
        let RExp::Letregion { regs, .. } = ann.prog.node(ann.prog.body) else {
            panic!("expected letregion, got {:?}", ann.prog.node(ann.prog.body))
        };
        assert_eq!(ann.prog.regs(regs), [(RegVar(0), Mult::Infinite)]);
        assert!(ann.prog.globals.is_empty());
    }

    #[test]
    fn escaping_region_becomes_global() {
        let mut ann = one_marker(&[&[RegVar(0)]], Vec::new());
        place(&mut ann);
        assert!(
            matches!(ann.prog.node(ann.prog.body), RExp::Record(_, _)),
            "marker dissolved"
        );
        assert_eq!(ann.prog.globals, vec![(RegVar(0), Mult::Infinite)]);
    }

    #[test]
    fn inner_marker_wins() {
        // Nested markers: the inner one binds ρ0 first.
        let mut ann = one_marker(&[&[], &[]], Vec::new());
        let prog = &mut ann.prog;
        let RExp::Marker { body: rec, .. } = prog.node(prog.body) else {
            unreachable!()
        };
        let inner = prog.push(RExp::Marker { id: 1, body: rec });
        prog.body = prog.push(RExp::Marker { id: 0, body: inner });
        place(&mut ann);
        // The outer marker dissolves; the inner becomes the letregion.
        let RExp::Letregion { regs, .. } = ann.prog.node(ann.prog.body) else {
            panic!("expected letregion, got {:?}", ann.prog.node(ann.prog.body))
        };
        assert_eq!(ann.prog.regs(regs)[0].0, RegVar(0));
    }

    #[test]
    fn global_escape_blocks_binding() {
        let mut ann = one_marker(&[&[]], vec![RegVar(0)]);
        place(&mut ann);
        assert_eq!(ann.prog.globals.len(), 1);
    }

    /// The formal regions of every `fix`-bound function under `id`.
    fn formals_of(prog: &RProgram, id: ExpId, out: &mut Vec<RegVar>) {
        let e = prog.node(id);
        if let RExp::Fix { funs, .. } = e {
            for f in prog.funs(funs) {
                out.extend_from_slice(prog.places(f.formals));
            }
        }
        prog.for_each_child(&e, |c| formals_of(prog, c, out));
    }

    #[test]
    fn a_formal_region_is_bound_by_its_function_and_never_global() {
        // fix f[ρ0] x = fn y => (x, y) at ρ0, closure at ρ1   in 0
        // Nothing binds ρ0 or ρ1 with a letregion; only ρ1 is global.
        let mut prog = dummy_prog();
        let (x, y) = (
            prog.push(RExp::Var(VarId(1))),
            prog.push(RExp::Var(VarId(2))),
        );
        let kids = prog.push_kids([x, y]);
        let pair = prog.push(RExp::Record(kids, RegVar(0)));
        let params = prog.push_params([VarId(2)]);
        let inner = prog.push(RExp::Fn {
            params,
            body: pair,
            at: RegVar(1),
        });
        let zero = prog.push(RExp::Int(0));
        let fun = RFixFun {
            var: VarId(0),
            formals: prog.push_places([RegVar(0)]),
            params: prog.push_params([VarId(1)]),
            body: inner,
        };
        let funs = prog.push_funs([fun]);
        prog.body = prog.push(RExp::Fix {
            funs,
            body: zero,
            at: RegVar(2),
        });
        let mut ann = Annotated {
            prog,
            marker_escapes: Escapes::default(),
            global_escapes: Vec::new(),
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
                let mut formals = Vec::new();
                formals_of(&ann.prog, ann.prog.body, &mut formals);
                formals.sort_unstable();
                formals.dedup();
                formals_seen += formals.len();
                for (g, _) in &ann.prog.globals {
                    assert!(
                        formals.binary_search(g).is_err(),
                        "{name}: formal r{} is global",
                        g.0
                    );
                }
            }
            programs += 1;
        }
        assert_eq!(programs, 222);
        assert!(formals_seen > 222 * 10, "only {formals_seen} formals seen");
    }

    fn dummy_prog() -> RProgram {
        RProgram {
            data: kit_lambda::ty::DataEnv::new(),
            exns: kit_lambda::ty::ExnEnv::new(),
            vars: kit_lambda::exp::VarTable::new(),
            arena: Arena::default(),
            body: ExpId(0),
            globals: Vec::new(),
            num_regvars: 8,
        }
    }
}
