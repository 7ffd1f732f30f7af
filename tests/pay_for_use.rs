//! Tier-1 check of "pay for what you use": the optimiser drops the
//! top-level bindings a program cannot reach before region inference
//! sees them, so what the compiler emits follows the program and not the
//! 25-function prelude in front of it — and the dangling root that the
//! prelude's start-up collections used to hide stays fixed.

use kit::{oracle, Compiler, Fusion, Mode};
use kit_kam::instr::Instr;

/// Every function the prelude declares at top level, and `rev`'s and
/// `length`'s inner loop.
const PRELUDE: [&str; 26] = [
    "ignore", "fst", "snd", "id", "hd", "tl", "null", "append", "rev", "length", "map", "app",
    "foldl", "foldr", "filter", "exists", "all", "nth", "take", "drop", "tabulate", "min", "max",
    "concat", "upto", "go",
];

#[test]
fn the_empty_program_compiles_to_a_handful_of_instructions() {
    for mode in Mode::ALL {
        let prog = Compiler::new(mode).compile_source("val it = 0").unwrap();
        assert!(
            prog.code.len() <= 16,
            "[{mode}] `val it = 0` is {} instructions",
            prog.code.len()
        );
        assert_eq!(prog.funs.len(), 1, "[{mode}] only the program body");
        assert!(prog.global_infinite.len() <= 1, "[{mode}] global regions");
    }
}

#[test]
fn a_program_keeps_exactly_the_prelude_it_reaches() {
    let src = "fun sq x = x * x\n\
               val it = foldl (fn (x, a) => x + a) 0 (map sq (rev [1, 2, 3, 4]))";
    let want = oracle::run_oracle(src, None).unwrap();
    assert_eq!(want.result, "30");
    for mode in Mode::ALL {
        let compiler = Compiler::new(mode);
        let prog = compiler.compile_source(src).unwrap();
        let mut kept: Vec<&str> = prog
            .funs
            .iter()
            .map(|f| f.name.as_str())
            .filter(|n| PRELUDE.contains(n))
            .collect();
        kept.sort_unstable();
        // `rev` itself is a wrapper the inliner dissolves into its loop.
        assert_eq!(kept, ["foldl", "go", "map"], "[{mode}]");
        // ... and `map` and `foldl` take their arguments at once: the only
        // closures are the two the program wrote, the fold's lambda and
        // `sq` (five before uncurrying: one per curried parameter).
        let closures = prog.funs.iter().filter(|f| f.name == "fn").count();
        assert_eq!(closures, 2, "[{mode}]");
        let out = compiler.run_program(&prog).unwrap();
        assert_eq!(out.result, want.result, "[{mode}]");
    }
}

/// A saturated call of a `fun`-declared curried function is one known
/// call with all its arguments: churn's `build2 n acc` and the prelude's
/// `foldl f b l` as book reaches it loop by a tail call, open no
/// `letregion` and build no closure (before uncurrying each step made one
/// closure per parameter but the last, in a fresh region whose scope cost
/// the tail call).
#[test]
fn a_saturated_call_of_a_curried_function_is_one_known_tail_call() {
    // (program, function, parameters, closure calls in its body,
    //  anonymous functions in the whole program). churn writes no `fn`;
    // book has the lambda it folds with — the one closure `foldl` calls —
    // and `cancel`, which the inliner keeps as a `let`-bound `fn`.
    let cases = [("churn", "build2", 2, 0, 0), ("book", "foldl", 3, 1, 2)];
    for (program, function, arity, closure_calls, lambdas) in cases {
        let src = kit_bench::by_name(program).unwrap().src;
        for mode in Mode::ALL {
            let prog = Compiler::new(mode).compile_source(src).unwrap();
            let ctx = format!("{program} [{mode}] {function}");
            let info = prog.funs.iter().find(|f| f.name == function).expect(&ctx);
            let entry = info.entry as usize;
            let body: Vec<&Instr> = prog.code[entry..]
                .iter()
                .take_while(|i| !matches!(i, Instr::Ret))
                .collect();
            let self_calls: Vec<&&Instr> = body
                .iter()
                .filter(|i| matches!(i, Instr::Call { target, .. } if *target == info.entry))
                .collect();
            assert!(
                matches!(self_calls[..], [Instr::Call { nargs, tail: true, .. }] if *nargs == arity),
                "{ctx}: {self_calls:?}"
            );
            let count = |p: fn(&Instr) -> bool| body.iter().filter(|i| p(i)).count();
            assert_eq!(count(|i| matches!(i, Instr::LetRegion { .. })), 0, "{ctx}");
            assert_eq!(
                count(|i| matches!(i, Instr::CallClos { .. })),
                closure_calls,
                "{ctx}"
            );
            // A closure is a record of a code label; every label a program
            // can put in one is an anonymous function's or a stub's.
            let anonymous = prog.funs.iter().filter(|f| f.name == "fn").count();
            assert_eq!(anonymous, lambdas, "{ctx}: closures in the program");
        }
    }
}

/// `go` raises out of its own `letregion` and handles the exception
/// itself, then calls an allocating function: the slot of the region-
/// local array must not survive the unwind as a GC root (the full matrix
/// of collectors and heap sizes is in `crates/bench/tests/regressions.rs`).
#[test]
fn a_raise_handled_in_its_own_frame_leaves_no_dangling_root() {
    let src = "fun build (k, acc) = if k < 1 then acc else build (k - 1, k :: acc)\n\
               fun sum (nil, a) = a | sum (x :: xs, a) = sum (xs, a + x)\n\
               fun go (n, keep) =\n\
               \u{20} if n < 1 then sum (keep, 0)\n\
               \u{20} else\n\
               \u{20}   let val r = (let val v = array (4, n) in asub (v, 4 + n - n) + alength v end)\n\
               \u{20}               handle Subscript => 7\n\
               \u{20}       val keep2 = build (4000 + r, keep)\n\
               \u{20}   in (go (n - 1, keep2) + 1) mod 100003 end\n\
               val it = go (60, nil)";
    let run = move || {
        let want = oracle::run_oracle(src, None).unwrap();
        for fusion in [Fusion::Off, Fusion::Full] {
            let out = Compiler::new(Mode::Rgt)
                .with_fusion(fusion)
                .run_source(src)
                .unwrap_or_else(|e| panic!("{fusion:?}: {e}"));
            assert_eq!(out.result, want.result, "{fusion:?}");
            assert!(out.stats.gc_count > 0, "{fusion:?}: must collect");
        }
    };
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("reproducer panicked");
}
