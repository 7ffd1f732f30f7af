//! The SML/NJ-substitute baseline (DESIGN.md §4; paper §4.4).
//!
//! Table 4 of the paper compares the region+GC compiler with Standard ML
//! of New Jersey, a compiler whose runtime uses a **generational copying
//! collector** and — as the paper notes in §1.1 — *no stack at all* for
//! values. SML/NJ itself is a closed, enormous comparator, so we
//! substitute the closest synthetic equivalent that exercises the same
//! code path: the *same bytecode* for the *same program*, with
//!
//! * region inference fully disabled **including finite regions** (every
//!   value heap-allocated in one region, like SML/NJ), and
//! * a two-generation copying collector (`Collector::Generational` of
//!   `kit-runtime`): a nursery that is minor-collected by promotion into a
//!   tenured generation (with a mutation write barrier / remembered set),
//!   and occasional major semispace passes over the tenured generation.
//!
//! Because front end, optimizer and instruction set are identical to the
//! region system's, time and memory ratios against this baseline measure
//! the memory discipline rather than unrelated compiler differences — the
//! confound the paper itself warns about.
//!
//! The baseline compiles and runs through the one façade, as
//! `kit::Compiler::new(kit::Mode::Baseline)`, which takes its runtime
//! configuration from here.
//!
//! # Examples
//!
//! ```
//! use kit::{Compiler, Mode};
//!
//! let out = Compiler::new(Mode::Baseline).run_source("val it = length (upto (1, 100))")?;
//! assert_eq!(out.result_int(), Some(100));
//! assert!(out.stats.gc_count == out.stats.minor_gcs);
//! # Ok::<(), kit::Error>(())
//! ```

#![forbid(unsafe_code)]

use kit_runtime::config::{Collector, GenPolicy};
use kit_runtime::RtConfig;

/// The baseline runtime configuration: tagged values, one program region,
/// two-generation collection.
pub fn baseline_config() -> RtConfig {
    RtConfig {
        collector: Collector::Generational(GenPolicy::default()),
        ..RtConfig::gt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kit::{Compiler, DispatchMode, Fusion, Mode, Outcome};
    use kit_kam::{Executable, Vm};
    use kit_runtime::Rt;

    /// Runs `src` on the baseline under `config`.
    fn run(src: &str, config: RtConfig) -> Outcome {
        Compiler::new(Mode::Baseline)
            .with_config(config)
            .run_source(src)
            .expect("run")
    }

    #[test]
    fn computes_correct_results() {
        let src = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2) val it = fib 15";
        assert_eq!(run(src, baseline_config()).result, "610");
    }

    #[test]
    fn minor_collections_dominate() {
        let src = "fun burn 0 = 0 | burn n = length (upto (1, 100)) + burn (n - 1)
                   val it = burn 3000";
        let cfg = RtConfig {
            collector: Collector::Generational(GenPolicy {
                nursery_pages: 8,
                major_growth: 4,
            }),
            initial_pages: 32,
            ..baseline_config()
        };
        let out = run(src, cfg);
        assert!(out.stats.minor_gcs > 10, "minors: {}", out.stats.minor_gcs);
        assert!(
            out.stats.minor_gcs >= out.stats.major_gcs * 2,
            "minor {} vs major {}",
            out.stats.minor_gcs,
            out.stats.major_gcs
        );
    }

    #[test]
    fn survivors_cross_many_collections() {
        // A long-lived structure must survive promotion and major passes
        // while garbage churns.
        let src = "
            val keep = upto (1, 500)
            fun burn 0 = 0 | burn n = length (upto (1, 50)) + burn (n - 1)
            val _ = burn 2000
            val it = length keep + hd keep + hd (rev keep)";
        let cfg = RtConfig {
            collector: Collector::Generational(GenPolicy {
                nursery_pages: 6,
                major_growth: 2,
            }),
            initial_pages: 16,
            ..baseline_config()
        };
        let out = run(src, cfg);
        assert!(
            out.stats.major_gcs > 0,
            "expected at least one major collection"
        );
        assert_eq!(out.result, "1001"); // 500 + 1 + 500
    }

    #[test]
    fn the_barrier_remembers_a_field_once_and_only_for_a_pointer() {
        // 10^6 stores between two collections (none runs): a scalar is
        // never remembered, the same pointer once. Each store used to be
        // remembered, outside the page quota. The remembered set is the
        // `Rt`'s, so the run is the façade's compile and a VM of our own.
        for (init, stored, want) in [("0", "n", 0), ("nil", "keep", 1)] {
            let src = format!(
                "val keep = [1] val r = ref {init}
                 fun loop 0 = () | loop n = (r := {stored}; loop (n - 1))
                 val it = loop 1000000"
            );
            let cfg = RtConfig {
                max_heap_pages: Some(64),
                ..baseline_config()
            };
            let prog = Compiler::new(Mode::Baseline)
                .with_config(cfg.clone())
                .compile_source(&src)
                .expect("front-end");
            let exe = Executable::prepare(&prog, DispatchMode::Threaded, Fusion::Full);
            let out = Vm::new(&prog, Rt::new(cfg))
                .run_prepared(&exe)
                .expect("run");
            assert_eq!(out.stats.gc_count, 0, "r := {stored}");
            assert_eq!(out.rt.remembered_len(), want, "r := {stored}");
        }
    }

    #[test]
    fn mutation_barrier_keeps_old_to_young_alive() {
        // An old ref repeatedly redirected at fresh young data: without the
        // remembered set the young list would be collected.
        let src = "
            val r = ref nil
            fun churn 0 = () | churn n = (r := upto (1, 20); ignore (upto (1, 100)); churn (n - 1))
            val _ = churn 500
            val it = length (!r)";
        let cfg = RtConfig {
            collector: Collector::Generational(GenPolicy {
                nursery_pages: 4,
                major_growth: 3,
            }),
            initial_pages: 16,
            ..baseline_config()
        };
        let out = run(src, cfg);
        assert!(out.stats.minor_gcs > 0);
        assert_eq!(out.result, "20");
    }
}
