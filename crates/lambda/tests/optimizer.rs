//! The optimiser on real programs: the 22 corpus programs at test scale
//! and 200 full-surface generated ones.
//!
//! * The whole optimiser changes nothing the reference evaluator can see
//!   (`kit::oracle::run_oracle` optimises before it evaluates, so no
//!   VM-vs-oracle differential can see an optimiser bug; this can).
//! * Pruning the top-level spine changes nothing the reference evaluator
//!   can see, is idempotent and leaves every variable bound.
//! * The table-driven passes return exactly the program the per-binding
//!   walkers they replaced return. Those walkers exist only under
//!   `cfg(test)`, and the front end that makes the programs links the
//!   ordinary `kit-lambda`, so this test compiles the optimiser's sources
//!   a second time — here, where `cfg(test)` is on — against the library's
//!   own `exp`/`ty`/`eval`.
//! * The optimiser's work is linear in the length of the declaration
//!   chain.

// What `crate::…` means inside the optimiser's sources.
use kit_lambda::{eval, exp, ty};

#[allow(dead_code)]
#[path = "../src/opt/mod.rs"]
mod opt;

use exp::LProgram;
use kit_bench::programs::{self, SplitMix64};
use kit_bench::randgen::{self, Surface};
use kit_lambda::opt::{optimize, prune::prune, OptOptions, OptStats};

const GENERATED: u64 = 200;
const GENERATED_SEED: u64 = 0x5EED_1400;

/// `(name, lowered program)` for the whole test population.
fn population() -> Vec<(String, LProgram)> {
    let corpus = programs::all()
        .into_iter()
        .map(|b| (b.name.to_string(), b.source_scaled(b.test_scale)));
    let generated = (0..GENERATED).map(|i| {
        let src = randgen::program(&mut SplitMix64::new(GENERATED_SEED + i), Surface::Full);
        (format!("generated:{i}"), src)
    });
    let all: Vec<_> = corpus
        .chain(generated)
        .map(|(name, src)| {
            let prog = kit_typing::compile_str(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, prog)
        })
        .collect();
    assert_eq!(all.len(), 222);
    all
}

/// Runs `f` on a thread with room for the evaluator's recursion.
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(512 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("test thread panicked");
}

/// What the reference evaluator makes of `prog`: rendered result and
/// output, or the error.
fn observe(prog: &LProgram) -> Result<(String, String), eval::EvalError> {
    let out = eval::eval(&prog.body, &prog.exns, None)?;
    let result = kit::oracle::render_oracle(&out.value, &prog.result_ty, &prog.data, 0);
    Ok((result, out.output))
}

#[test]
fn the_optimiser_is_invisible_to_the_reference_evaluator() {
    with_big_stack(|| {
        let (mut uncurried, mut flattened) = (0, 0);
        for (name, unoptimised) in population() {
            let mut optimised = unoptimised.clone();
            let stats = optimize(&mut optimised, &OptOptions::default());
            uncurried += stats.uncurried;
            flattened += stats.flattened;
            let unbound = optimised.body.free_vars();
            assert!(unbound.is_empty(), "{name}: left {unbound:?} unbound");
            assert_eq!(observe(&optimised), observe(&unoptimised), "{name}");
        }
        // Every generated program has a curried driver and a curried
        // function of its own; most reach `map`, `foldl` or `filter`.
        assert!(uncurried > 2 * 200, "only {uncurried} functions uncurried");
        assert!(flattened > 222, "only {flattened} functions flattened");
    });
}

#[test]
fn pruning_is_invisible_idempotent_and_leaves_every_variable_bound() {
    with_big_stack(|| {
        // Lowering copies only the prelude a program reaches, so what is
        // left to drop is the programs' own unreachable bindings.
        let mut dropped = 0;
        for (name, unpruned) in population() {
            let mut pruned = unpruned.clone();
            dropped += prune(&mut pruned);
            let unbound = pruned.body.free_vars();
            assert!(unbound.is_empty(), "{name}: pruning unbound {unbound:?}");
            assert_eq!(observe(&pruned), observe(&unpruned), "{name}");
            let mut again = pruned.clone();
            assert_eq!(prune(&mut again), 0, "{name}: a second pruning found more");
            assert!(
                again == pruned,
                "{name}: a second pruning changed the program"
            );
        }
        assert_eq!(dropped, 1_539, "bindings dropped over the population");
    });
}

#[test]
fn table_driven_passes_equal_the_per_binding_walkers() {
    with_big_stack(|| {
        let (mut rewrites, mut inlined) = (0, 0);
        for (name, prog) in population() {
            let mut by_table = prog.clone();
            let mut by_walkers = prog.clone();
            let a = opt::optimize(&mut by_table, &opt::OptOptions::default());
            let b = opt::optimize_with_walkers(&mut by_walkers);
            assert!(by_table == by_walkers, "{name}: programs differ");
            // The walkers visit more nodes; everything else is equal.
            let but_visits = |s: opt::OptStats| opt::OptStats {
                node_visits: 0,
                ..s
            };
            assert_eq!(but_visits(a), but_visits(b), "{name}");
            // This copy of the sources is the library's optimiser.
            let mut by_library = prog;
            let c = optimize(&mut by_library, &OptOptions::default());
            assert!(by_library == by_table, "{name}: the library differs");
            assert_eq!((a.rewrites, a.node_visits), (c.rewrites, c.node_visits));
            rewrites += a.rewrites;
            inlined += a.inlined;
        }
        assert!(
            rewrites > 5_000 && inlined > 1_000,
            "{rewrites} rewrites, {inlined} inlined"
        );
    });
}

/// `n` independent top-level recursive functions, all of them used by the
/// result (so none is pruned, inlined or demoted).
fn chain(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src +=
            &format!("fun f{i} (0, acc) = acc | f{i} (k, acc) = f{i} (k - 1, (k, {i}) :: acc)\n");
    }
    let uses: Vec<String> = (0..n).map(|i| format!("length (f{i} (3, nil))")).collect();
    src + &format!("val it = {}\n", uses.join(" + "))
}

/// Optimiser statistics for `src`.
fn stats(src: String) -> OptStats {
    // The declaration chain nests as deep as it is long.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let mut prog = kit_typing::compile_str(&src).expect("front-end failed");
            optimize(&mut prog, &OptOptions::default())
        })
        .expect("spawn")
        .join()
        .expect("optimiser panicked")
}

#[test]
fn optimiser_work_is_linear_in_program_size() {
    let small = stats(chain(40));
    let large = stats(chain(160));
    // Neither has a binding to drop: lowering copies only the prelude a
    // program reaches. Each flattens every `f<i>` and the copy of
    // `length`'s loop inlined at its use ...
    assert_eq!((small.pruned, large.pruned), (0, 0), "{small:?}");
    assert_eq!((small.flattened, large.flattened), (2 * 40, 2 * 160));
    // ... and four times the functions cost at most about four times the
    // visits: no binding pays for the declarations around it. Nor does it
    // on a spine of wide pattern declarations, or of atomic bindings that
    // contraction substitutes away.
    let shapes = [
        ("functions", small, large),
        (
            "wide declarations",
            stats(programs::wide_declarations(100)),
            stats(programs::wide_declarations(400)),
        ),
        (
            "atomic bindings",
            stats(programs::atomic_spine(100)),
            stats(programs::atomic_spine(400)),
        ),
    ];
    for (shape, small, large) in shapes {
        assert!(
            10 * large.node_visits <= 43 * small.node_visits,
            "4x the {shape}, {}x the work: {small:?} -> {large:?}",
            large.node_visits as f64 / small.node_visits as f64
        );
    }
}
