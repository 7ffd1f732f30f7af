//! Tier-1 engine check: the differential oracle (`Match`, unfused) and
//! the production engine (`Threaded` with full fusion), plus `Threaded`
//! with fusion off, must agree bit for bit on two small programs in all
//! four paper modes — and with the `kit-lambda` reference evaluator on
//! what the program computes. The corpus-wide and randomized versions
//! live in `crates/bench/tests` and run from `scripts/verify.sh`.

use kit::{oracle, Compiler, DispatchMode, Fusion, Mode};
use kit_bench::by_name;

#[test]
fn oracle_and_production_engine_agree_in_every_mode() {
    let mut collected = false;
    for (name, scale) in [("fib", 16), ("churn", 12)] {
        let src = by_name(name).unwrap().source_scaled(scale);
        let want = oracle::run_oracle(&src, None).unwrap_or_else(|e| panic!("{name} oracle: {e}"));
        for mode in Mode::ALL {
            let run = |dispatch, fusion| {
                Compiler::new(mode)
                    .with_dispatch(dispatch)
                    .with_fusion(fusion)
                    .run_source(&src)
                    .unwrap_or_else(|e| panic!("{name} [{mode}] {dispatch:?}/{fusion:?}: {e}"))
            };
            let reference = run(DispatchMode::Match, Fusion::Off);
            assert_eq!(
                reference.result, want.result,
                "{name} [{mode}] vs evaluator"
            );
            assert_eq!(
                reference.output, want.output,
                "{name} [{mode}] vs evaluator"
            );
            collected |= reference.stats.gc_count > 0;
            for fusion in [Fusion::Off, Fusion::Full] {
                let out = run(DispatchMode::Threaded, fusion);
                let ctx = format!("{name} [{mode}] Threaded/{fusion:?}");
                assert_eq!(out.result, reference.result, "{ctx}: result");
                assert_eq!(out.output, reference.output, "{ctx}: output");
                assert_eq!(out.instructions, reference.instructions, "{ctx}");
                assert_eq!(out.stats.gc_count, reference.stats.gc_count, "{ctx}");
                assert_eq!(
                    out.stats.gc_copied_words, reference.stats.gc_copied_words,
                    "{ctx}"
                );
                assert_eq!(
                    out.stats.words_allocated, reference.stats.words_allocated,
                    "{ctx}"
                );
            }
        }
    }
    assert!(
        collected,
        "no run collected: the GC counters were never tested"
    );
}
