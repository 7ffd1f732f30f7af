//! End-to-end region-inference tests: MiniML source → LambdaExp →
//! RegionExp, checked by `kit_region::check` (region scoping, no leftover
//! markers, region arity of calls), and qualitative checks of the inference
//! (region-polymorphic recursion, §2.6 weakening, `gt`-mode collapse).

use kit_region::{check, infer, ExpId, Mult, RExp, RProgram, RegionOptions};

fn compile(src: &str, opts: RegionOptions) -> RProgram {
    let mut prog = kit_typing::compile_str(src).expect("front-end failed");
    kit_lambda::opt::optimize(&mut prog, &Default::default());
    infer(&prog, opts)
}

fn validate(p: &RProgram) {
    if let Err(e) = check(p) {
        panic!("{e}\n{}", kit_region::pretty::program_to_string(p));
    }
}

/// Applies `f` to every node reachable from `id`.
fn visit(p: &RProgram, id: ExpId, f: &mut impl FnMut(RExp)) {
    let e = p.node(id);
    f(e);
    p.for_each_child(&e, |c| visit(p, c, f));
}

/// The multiplicities bound by every `letregion` of `p`, in order.
fn letregion_mults(p: &RProgram) -> Vec<Vec<Mult>> {
    let mut out = Vec::new();
    visit(p, p.body, &mut |e| {
        if let RExp::Letregion { regs, .. } = e {
            out.push(p.regs(regs).iter().map(|&(_, m)| m).collect());
        }
    });
    out
}

fn count_letregions(p: &RProgram) -> usize {
    letregion_mults(p).len()
}

fn count_finite(p: &RProgram) -> usize {
    letregion_mults(p)
        .iter()
        .flatten()
        .filter(|&&m| m == Mult::Finite)
        .count()
}

fn find_fix_formals(p: &RProgram) -> Vec<usize> {
    let mut out = Vec::new();
    visit(p, p.body, &mut |e| {
        if let RExp::Fix { funs, .. } = e {
            out.extend(p.funs(funs).iter().map(|f| f.formals.len()));
        }
    });
    out
}

const MODES: [RegionOptions; 4] = [
    RegionOptions {
        gc_safe: false,
        disable: false,
        disable_finite: false,
    },
    RegionOptions {
        gc_safe: true,
        disable: false,
        disable_finite: false,
    },
    RegionOptions {
        gc_safe: true,
        disable: true,
        disable_finite: false,
    },
    RegionOptions {
        gc_safe: true,
        disable: true,
        disable_finite: true,
    },
];

#[test]
fn simple_program_validates_in_all_modes() {
    for opts in MODES {
        let p = compile(
            "val it = let val pair = (1, 2) in fst pair + snd pair end",
            opts,
        );
        validate(&p);
    }
}

#[test]
fn local_tuple_gets_local_region() {
    let p = compile(
        "fun use (x, y) = x + y
         val it = use (3, 4) + use (5, 6)",
        RegionOptions::regions_only(),
    );
    validate(&p);
    assert!(
        count_letregions(&p) >= 1,
        "argument tuples should be letregion-bound"
    );
}

#[test]
fn finite_regions_inferred_for_single_tuples() {
    let p = compile(
        "val it = let val pair = (1, 2) in fst pair end",
        RegionOptions::regions_only(),
    );
    validate(&p);
    assert!(
        count_finite(&p) >= 1,
        "one-shot pair should be finite:\n{}",
        kit_region::pretty::program_to_string(&p)
    );
}

#[test]
fn recursive_list_building_validates() {
    for opts in MODES {
        let p = compile(
            "fun build 0 = nil | build n = n :: build (n - 1)
             val it = length (build 100)",
            opts,
        );
        validate(&p);
    }
}

#[test]
fn region_polymorphic_recursion_gives_formals() {
    // `build` allocates its result list in a region chosen by the caller:
    // it must carry at least one formal region parameter.
    let p = compile(
        "fun build 0 = nil | build n = n :: build (n - 1)
         val it = length (build 100)",
        RegionOptions::regions_only(),
    );
    validate(&p);
    let formals = find_fix_formals(&p);
    assert!(
        formals.iter().any(|&n| n >= 1),
        "expected region-polymorphic functions, formals: {formals:?}\n{}",
        kit_region::pretty::program_to_string(&p)
    );
}

#[test]
fn intermediate_lists_not_global() {
    // The classic region win: an intermediate list dies inside the
    // enclosing expression instead of escaping to a global region.
    let p = compile(
        "fun sum nil = 0 | sum (x :: xs) = x + sum xs
         fun build 0 = nil | build n = n :: build (n - 1)
         val it = sum (build 1000)",
        RegionOptions::regions_only(),
    );
    validate(&p);
    assert!(
        count_letregions(&p) >= 1,
        "intermediate list should be region-bound:\n{}",
        kit_region::pretty::program_to_string(&p)
    );
}

#[test]
fn disable_mode_has_no_infinite_letregions() {
    let p = compile(
        "fun build 0 = nil | build n = n :: build (n - 1)
         val it = length (build 50)",
        RegionOptions::disabled(),
    );
    validate(&p);
    assert!(
        letregion_mults(&p)
            .iter()
            .flatten()
            .all(|&m| m == Mult::Finite),
        "gt mode must not bind infinite regions locally"
    );
    // Exactly one infinite global region (plus possibly finite globals).
    let inf_globals = p
        .globals
        .iter()
        .filter(|(_, m)| *m == Mult::Infinite)
        .count();
    assert_eq!(inf_globals, 1, "globals: {:?}", p.globals);
}

#[test]
fn weakening_keeps_captured_region_alive() {
    // Paper §2.6: `g` returns a closure capturing a pair it never uses.
    // Without weakening the pair's region may be deallocated before the
    // closure (a safe dangling pointer); with gc_safe the pair's region
    // must escape the `val h = g (2,3)` binding.
    let src = "
        fun f x = 17
        fun g v = fn y => f v + y
        val h = g (2, 3)
        val it = h 5";
    let without = compile(src, RegionOptions::regions_only());
    let with = compile(src, RegionOptions::with_gc());
    validate(&without);
    validate(&with);
    // In gc-safe mode the tuple must be allocated in a region that is
    // still in scope at the top level — i.e. not bound by a letregion
    // that closes before `h` is applied. We check the weaker structural
    // property that gc-safe binds strictly fewer regions locally.
    let n_without = count_letregions(&without);
    let n_with = count_letregions(&with);
    assert!(
        n_with <= n_without,
        "weakening must not create more local regions ({n_with} vs {n_without})"
    );
}

#[test]
fn closures_and_hofs_validate() {
    for opts in MODES {
        let p = compile(
            "val it = foldl (fn (x, a) => x + a) 0 (map (fn x => x * 2) (upto (1, 50)))",
            opts,
        );
        validate(&p);
    }
}

#[test]
fn exceptions_validate() {
    for opts in MODES {
        let p = compile(
            "exception Found of int
             fun find p nil = raise Found ~1
               | find p (x :: xs) = if p x then x else find p xs
             val it = (find (fn x => x > 10) [1, 2]) handle Found n => n",
            opts,
        );
        validate(&p);
    }
}

#[test]
fn refs_and_arrays_validate() {
    for opts in MODES {
        let p = compile(
            "val r = ref 0
             val a = array (10, nil)
             val _ = aupdate (a, 3, [1,2,3])
             val _ = r := length (asub (a, 3))
             val it = !r",
            opts,
        );
        validate(&p);
    }
}

#[test]
fn reals_and_strings_validate() {
    for opts in MODES {
        let p = compile(
            "val x = 1.5 + 2.5
             val s = \"a\" ^ itos (floor x)
             val it = size s",
            opts,
        );
        validate(&p);
    }
}

#[test]
fn pretty_printer_shows_structure() {
    let p = compile(
        "val it = let val pair = (1, 2) in fst pair end",
        RegionOptions::regions_only(),
    );
    let s = kit_region::pretty::program_to_string(&p);
    assert!(s.contains("globals ["), "{s}");
    assert!(s.contains("at r"), "{s}");
}

/// Work counters of annotating `n` independent top-level recursive
/// functions (each builds a list of pairs, so each has regions to infer
/// and markers to finalize), all of them used by the result.
fn chain_stats(n: usize, gc_safe: bool) -> kit_region::annotate::AnnotateStats {
    let mut src = String::new();
    for i in 0..n {
        src +=
            &format!("fun f{i} (0, acc) = acc | f{i} (k, acc) = f{i} (k - 1, (k, {i}) :: acc)\n");
    }
    let uses: Vec<String> = (0..n).map(|i| format!("length (f{i} (3, nil))")).collect();
    src += &format!("val it = {}\n", uses.join(" + "));
    // The declaration chain nests as deep as it is long.
    let annotate = move || {
        let mut prog = kit_typing::compile_str(&src).expect("front-end failed");
        kit_lambda::opt::optimize(&mut prog, &Default::default());
        let ann = kit_region::annotate::annotate(&prog, gc_safe);
        assert_eq!(ann.stats.markers_live as usize, ann.marker_escapes.len());
        ann.stats
    };
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(annotate)
        .expect("spawn")
        .join()
        .expect("annotation panicked")
}

#[test]
fn annotation_work_is_linear_in_program_size() {
    for gc_safe in [false, true] {
        let small = chain_stats(40, gc_safe);
        let large = chain_stats(160, gc_safe);
        // Free-variable sets come from the one side-table walk, however
        // many markers, closures and fixed-point rounds ask for them.
        assert_eq!(small.free_var_walks, 1);
        assert_eq!(large.free_var_walks, 1);
        // Every function brings its own rounds and markers ...
        assert!(large.fix_rounds >= small.fix_rounds + 2 * 120, "{large:?}");
        assert!(large.markers_live > small.markers_live, "{large:?}");
        assert!(large.markers_dropped > small.markers_dropped, "{large:?}");
        // ... and four times the functions (on top of the fixed prelude)
        // cost at most about four times the visits, region walks and
        // effect-closure steps: no function pays for the ones declared
        // around it.
        let work = |s: &kit_region::annotate::AnnotateStats| {
            s.node_visits + s.frv_calls + s.eff_closure_steps
        };
        assert!(
            10 * work(&large) <= 43 * work(&small),
            "4x the functions, {}x the work: {small:?} -> {large:?}",
            work(&large) as f64 / work(&small) as f64
        );
    }
}
