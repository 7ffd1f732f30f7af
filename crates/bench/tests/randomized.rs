//! Randomized differential: small generated programs must behave
//! identically — result, output, typed error and every counter — with
//! fusion off and on, in every mode, including on exception paths and
//! `VmError` outcomes (which the benchmark corpus in `corpus.rs` barely
//! exercises), and must compute what the reference evaluator computes.
//! Every run goes through the one harness,
//! [`kit_bench::differential::Differential`].
//!
//! Two generator surfaces run here: the original int-expression grammar
//! and the full-MiniML grammar (datatypes, arrays past the large-object
//! threshold, strings, reals, refs, nested handlers — DESIGN.md §6h).
//! The generator lives in [`kit_bench::randgen`]; the `soak` binary runs
//! the same harness for arbitrarily many cases with full config fuzzing.
//! These tests are the short fixed-seed CI run.

use kit::Mode;
use kit_bench::differential::{on_deep_stack, Differential};
use kit_bench::programs::SplitMix64;
use kit_bench::randgen::{self, Surface};
use kit_runtime::RtConfig;

const FUEL: u64 = 10_000_000;

/// One case: the differential under the default config and a
/// heap-pressure config.
fn check_case(case: u64, src: &str, modes: &[Mode]) {
    let differential = Differential::new(src);
    for &mode in modes {
        if let Err(e) = differential.check(mode, None, FUEL) {
            panic!("case {case}: {e}");
        }
    }
    // Heap pressure: tiny pages, and a collection scheduled by every
    // page taken, force collections mid-expression, so GC scheduling
    // differences between fusion levels would surface here.
    let cfg = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        gc_threshold: 1.0,
        ..RtConfig::rgt()
    };
    if let Err(e) = differential.check(Mode::Rgt, Some(&cfg), FUEL) {
        panic!("case {case}: {e}");
    }
}

#[test]
fn random_programs_agree_with_the_evaluator_at_both_fusion_levels() {
    on_deep_stack(|| {
        let mut rng = SplitMix64::new(0x5EED_0300);
        for case in 0..48 {
            let src = randgen::program(&mut rng, Surface::Int);
            check_case(case, &src, &Mode::ALL);
        }
    });
}

#[test]
fn random_full_surface_programs_agree_with_the_evaluator_at_both_fusion_levels() {
    on_deep_stack(|| {
        let mut rng = SplitMix64::new(0x5EED_0800);
        for case in 0..20 {
            let src = randgen::program(&mut rng, Surface::Full);
            // Full-surface programs are much bigger than int-expression
            // ones; run the mode sweep on the GC-relevant pair plus the
            // untagged reference so the test stays inside the CI budget
            // (soak covers all five modes).
            check_case(case, &src, &[Mode::R, Mode::Gt, Mode::Rgt]);
        }
    });
}
