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
//! # Examples
//!
//! ```
//! let mut lprog = kit_typing::compile_str("val it = length (upto (1, 100))")
//!     .expect("front-end");
//! let prog = kit_baseline::compile_baseline(&mut lprog);
//! let out = kit_baseline::run_baseline(&prog, None).expect("run");
//! assert!(out.stats.gc_count == out.stats.minor_gcs);
//! ```

#![forbid(unsafe_code)]

use kit_kam::{Program, Vm, VmError, VmOutcome};
use kit_lambda::LProgram;
use kit_region::RegionOptions;
use kit_runtime::config::{Collector, GenPolicy};
use kit_runtime::{Rt, RtConfig};

/// The baseline runtime configuration: tagged values, one program region,
/// two-generation collection.
pub fn baseline_config() -> RtConfig {
    RtConfig {
        collector: Collector::Generational(GenPolicy::default()),
        ..RtConfig::gt()
    }
}

/// Compiles an elaborated program for the baseline: optimizer, then region
/// inference with *everything* collapsed onto one heap region.
pub fn compile_baseline(lprog: &mut LProgram) -> Program {
    kit_lambda::opt::optimize(lprog, &Default::default());
    let rprog = kit_region::infer(lprog, RegionOptions::baseline());
    let mut prog = kit_kam::compile(&rprog, true);
    prog.result_ty = lprog.result_ty.clone();
    prog
}

/// Runs a baseline-compiled program.
///
/// # Errors
///
/// Propagates uncaught exceptions and fuel exhaustion.
pub fn run_baseline(prog: &Program, fuel: Option<u64>) -> Result<VmOutcome, VmError> {
    run_baseline_with(prog, fuel, baseline_config())
}

/// Runs with an explicit configuration (policy sweeps in the benches).
///
/// # Errors
///
/// Propagates uncaught exceptions and fuel exhaustion.
pub fn run_baseline_with(
    prog: &Program,
    fuel: Option<u64>,
    config: RtConfig,
) -> Result<VmOutcome, VmError> {
    let rt = Rt::new(config);
    let mut vm = Vm::new(prog, rt);
    if let Some(f) = fuel {
        vm = vm.with_fuel(f);
    }
    vm.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_correct_results() {
        let src = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2) val it = fib 15";
        let mut lprog = kit_typing::compile_str(src).expect("front-end");
        let prog = compile_baseline(&mut lprog);
        let out = run_baseline(&prog, Some(200_000_000)).expect("run");
        assert_eq!(
            kit_kam::render::render_value(&out.rt, out.result, &prog.result_ty, &prog.data),
            "610"
        );
    }

    #[test]
    fn minor_collections_dominate() {
        let src = "fun burn 0 = 0 | burn n = length (upto (1, 100)) + burn (n - 1)
                   val it = burn 3000";
        let mut lprog = kit_typing::compile_str(src).expect("front-end");
        let prog = compile_baseline(&mut lprog);
        let cfg = RtConfig {
            collector: Collector::Generational(GenPolicy {
                nursery_pages: 8,
                major_growth: 4,
            }),
            initial_pages: 32,
            ..baseline_config()
        };
        let out = run_baseline_with(&prog, Some(500_000_000), cfg).expect("run");
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
        let mut lprog = kit_typing::compile_str(src).expect("front-end");
        let prog = compile_baseline(&mut lprog);
        let cfg = RtConfig {
            collector: Collector::Generational(GenPolicy {
                nursery_pages: 6,
                major_growth: 2,
            }),
            initial_pages: 16,
            ..baseline_config()
        };
        let out = run_baseline_with(&prog, Some(500_000_000), cfg).expect("run");
        assert!(
            out.stats.major_gcs > 0,
            "expected at least one major collection"
        );
        let s = kit_kam::render::render_value(
            &out.rt,
            out.result,
            &kit_lambda::ty::LTy::Int,
            &prog.data,
        );
        assert_eq!(s, "1001"); // 500 + 1 + 500
    }

    #[test]
    fn the_barrier_remembers_a_field_once_and_only_for_a_pointer() {
        // 10^6 stores between two collections (none runs): a scalar is
        // never remembered, the same pointer once. Each store used to be
        // remembered, outside the page quota.
        for (init, stored, want) in [("0", "n", 0), ("nil", "keep", 1)] {
            let src = format!(
                "val keep = [1] val r = ref {init}
                 fun loop 0 = () | loop n = (r := {stored}; loop (n - 1))
                 val it = loop 1000000"
            );
            let mut lprog = kit_typing::compile_str(&src).expect("front-end");
            let prog = compile_baseline(&mut lprog);
            let cfg = RtConfig {
                max_heap_pages: Some(64),
                ..baseline_config()
            };
            let out = run_baseline_with(&prog, None, cfg).expect("run");
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
        let mut lprog = kit_typing::compile_str(src).expect("front-end");
        let prog = compile_baseline(&mut lprog);
        let cfg = RtConfig {
            collector: Collector::Generational(GenPolicy {
                nursery_pages: 4,
                major_growth: 3,
            }),
            initial_pages: 16,
            ..baseline_config()
        };
        let out = run_baseline_with(&prog, Some(500_000_000), cfg).expect("run");
        assert!(out.stats.minor_gcs > 0);
        let s = kit_kam::render::render_value(
            &out.rt,
            out.result,
            &kit_lambda::ty::LTy::Int,
            &prog.data,
        );
        assert_eq!(s, "20");
    }
}
