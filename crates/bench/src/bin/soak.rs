//! Soak runner: the randomized differential from `tests/randomized.rs`,
//! promoted to a binary so it can run for arbitrarily many cases with full
//! configuration fuzzing, each case with fusion off and on, and against
//! the reference evaluator.
//!
//! Usage: `cargo run -p kit-bench --release --bin soak --
//!         [--cases N] [--seed S] [--surface int|full]`
//!
//! `--surface` selects the generator grammar: `int` (the default) is the
//! original int-expression generator; `full` is the whole-language
//! generator (datatypes, arrays past the large-object threshold, strings,
//! reals, refs, nested handlers — DESIGN.md §6h) that actually reaches the
//! collector's hard cases.
//!
//! Every case is one generated program run in all five execution modes
//! under the default runtime configuration plus one fuzzed configuration
//! per mode (page size, initial heap, shrink hysteresis, collection
//! trigger, heap-to-live ratio, generational policy). Case *k* draws its
//! program and its configurations from two streams derived from
//! `(seed, k)` alone (`randgen::case_rngs`), so it reproduces without the
//! cases before it. A full-surface program that fails to compile is also a
//! failure — the generator is type-directed, so a compile error is a
//! generator bug that would otherwise silently shrink the differential
//! surface. Any divergence prints the failed check, field, config, and
//! full program source, and the process exits nonzero — so a CI hook
//! (`scripts/verify.sh` wires in short runs of both surfaces) fails loudly.

use kit::{Compiler, Mode};
use kit_bench::randgen::{self, Surface};

const FUEL: u64 = 10_000_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_val = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let cases = flag_val("--cases")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(200);
    let seed = flag_val("--seed")
        .and_then(|s| {
            s.parse::<u64>()
                .ok()
                .or_else(|| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        })
        .unwrap_or(0x5EED_5041);
    let surface = flag_val("--surface")
        .map(|s| Surface::parse(s).unwrap_or_else(|| panic!("bad --surface {s:?} (int|full)")))
        .unwrap_or(Surface::Int);

    let mut failures = 0u64;
    let mut runs = 0u64;
    for case in 0..cases {
        let (mut prog_rng, mut cfg_rng) = randgen::case_rngs(seed, case);
        let src = randgen::program(&mut prog_rng, surface);
        // A generated program that does not compile never reaches the
        // differential, so it must count as a failure in its own right.
        if let Err(e) = Compiler::new(Mode::Rgt).compile_source(&src) {
            failures += 1;
            eprintln!("== GENERATOR BUG (case {case}, seed {seed:#x}): {e} ==\n{src}\n");
            continue;
        }
        for mode in Mode::ALL_WITH_BASELINE {
            // Default configuration, then one fuzzed configuration per
            // mode — tiny pages, aggressive shrink factors, triggers and
            // heap ratios all move the GC schedule, which must still be
            // fusion-invariant.
            let fuzzed = randgen::fuzz_config(&mut cfg_rng, mode);
            for cfg in [None, Some(&fuzzed)] {
                runs += 1;
                if let Err(e) = randgen::differential(&src, mode, cfg, FUEL) {
                    failures += 1;
                    eprintln!("== DIVERGENCE (case {case}, seed {seed:#x}) ==\n{e}\n");
                }
            }
        }
        if (case + 1) % 50 == 0 {
            eprintln!(
                "soak: {}/{cases} cases, {runs} differentials, {failures} failures",
                case + 1
            );
        }
    }
    eprintln!(
        "soak: {cases} cases ({surface:?} surface) x {} modes x 2 configs = {runs} \
         differentials, {failures} failures (seed {seed:#x})",
        Mode::ALL_WITH_BASELINE.len(),
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
