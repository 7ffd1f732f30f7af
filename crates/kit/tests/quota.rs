//! Per-request quota enforcement (DESIGN.md §6i): fuel exhaustion and
//! page-cap breaches return clean typed errors, identically across both
//! dispatch engines, and leave no state behind — repeated runs of
//! one prepared program are bit-identical whether or not a capped run
//! failed in between.

use kit::{Compiler, DispatchMode, Error, Mode, VmError};

const BUILD: &str = "fun build 0 = nil | build n = n :: build (n-1)\nval it = length (build 40000)";
const FIB: &str = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\nval it = fib 15";

#[test]
fn page_cap_breach_is_typed_and_engine_identical() {
    let mut errors = Vec::new();
    for dispatch in DispatchMode::ALL {
        let err = Compiler::new(Mode::Rgt)
            .with_dispatch(dispatch)
            .with_max_heap_pages(8)
            .run_source(BUILD)
            .expect_err("the 40k-cons list cannot fit in 8 pages");
        match &err {
            Error::Run(VmError::QuotaExceeded { pages, cap }) => {
                assert_eq!(*cap, 8, "{dispatch:?}");
                assert!(*pages > 8, "{dispatch:?}: failing footprint {pages}");
            }
            other => panic!("{dispatch:?}: expected QuotaExceeded, got {other}"),
        }
        errors.push(err);
    }
    // Quota is checked only at GcCheck safe points, so the failing
    // footprint is the same number of pages in every engine.
    for window in errors.windows(2) {
        assert_eq!(window[0], window[1]);
    }
}

#[test]
fn fuel_exhaustion_is_typed_and_engine_identical() {
    for dispatch in DispatchMode::ALL {
        let err = Compiler::new(Mode::Rgt)
            .with_dispatch(dispatch)
            .with_fuel(1_000)
            .run_source(FIB)
            .expect_err("fib 15 needs more than 1000 instructions");
        assert_eq!(err, Error::Run(VmError::OutOfFuel), "{dispatch:?}");
    }
}

#[test]
fn generous_cap_leaves_execution_bit_identical() {
    // A quota that is never breached must not perturb anything: same
    // result, instruction total, GC schedule and peak as the uncapped
    // run.
    for mode in [Mode::Rgt, Mode::Gt] {
        let uncapped = Compiler::new(mode).run_source(BUILD).expect("uncapped run");
        let capped = Compiler::new(mode)
            .with_max_heap_pages(1 << 20)
            .run_source(BUILD)
            .expect("generously capped run");
        assert_eq!(capped.result, uncapped.result, "{mode}");
        assert_eq!(capped.instructions, uncapped.instructions, "{mode}");
        assert_eq!(capped.stats.gc_count, uncapped.stats.gc_count, "{mode}");
        assert_eq!(
            capped.stats.gc_copied_words, uncapped.stats.gc_copied_words,
            "{mode}"
        );
        assert_eq!(capped.stats.peak_bytes, uncapped.stats.peak_bytes, "{mode}");
    }
}

#[test]
fn quota_failures_leak_nothing_across_runs() {
    // Interleave capped (failing) and uncapped (succeeding) runs over
    // one shared PreparedProgram: every uncapped run must be
    // bit-identical to the first, and every capped failure identical
    // too — no pages or accounting leak from one request to the next.
    let base = Compiler::new(Mode::Rgt);
    let capped = base.clone().with_max_heap_pages(8);
    let prep = base.prepare_source(BUILD).expect("compile");

    let ok0 = base.run_prepared(&prep).expect("uncapped run");
    let err0 = capped.run_prepared(&prep).expect_err("capped run fails");
    for _ in 0..3 {
        let err = capped.run_prepared(&prep).expect_err("capped run fails");
        assert_eq!(err, err0);
        let ok = base.run_prepared(&prep).expect("uncapped run");
        assert_eq!(ok.result, ok0.result);
        assert_eq!(ok.instructions, ok0.instructions);
        assert_eq!(ok.stats.gc_count, ok0.stats.gc_count);
        assert_eq!(ok.stats.gc_copied_words, ok0.stats.gc_copied_words);
        assert_eq!(ok.stats.peak_bytes, ok0.stats.peak_bytes);
        assert_eq!(ok.stats.heap_grows, ok0.stats.heap_grows);
    }
}

#[test]
fn quota_error_renders_pages_and_cap() {
    let err = Compiler::new(Mode::Rgt)
        .with_max_heap_pages(8)
        .run_source(BUILD)
        .expect_err("quota breach");
    let msg = err.to_string();
    assert!(
        msg.contains("memory quota exceeded") && msg.contains("cap of 8"),
        "unhelpful message: {msg}"
    );
}
