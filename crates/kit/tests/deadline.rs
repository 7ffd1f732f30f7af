//! Wall-clock deadline enforcement (DESIGN.md §6j): breaches surface as
//! a typed `VmError::DeadlineExceeded` at `GcCheck` safe points — the
//! same points fuel and page quotas use — so an already-expired deadline
//! fails at the *first* safe point at both fusion levels (the strided
//! clock read always samples safe point 1), and a generous deadline
//! leaves execution bit-identical to an undeadlined run.

use kit::{Compiler, Error, Fusion, Mode, VmError};
use std::time::{Duration, Instant};

const FIB: &str = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\nval it = fib 15";
/// Runs forever; only fuel or a deadline stops it.
const SPIN: &str = "fun loop n = loop (n + 1)\nval it = loop 0";

#[test]
fn expired_deadline_breaches_at_the_first_safe_point_at_both_fusion_levels() {
    let mut errors = Vec::new();
    for fusion in [Fusion::Off, Fusion::Full] {
        let err = Compiler::new(Mode::Rgt)
            .with_fusion(fusion)
            .with_deadline_at(Instant::now())
            .run_source(FIB)
            .expect_err("an already-expired deadline cannot run anything");
        match &err {
            Error::Run(VmError::DeadlineExceeded { checks }) => {
                assert_eq!(
                    *checks, 1,
                    "{fusion:?}: the stride samples the first safe point"
                );
            }
            other => panic!("{fusion:?}: expected DeadlineExceeded, got {other}"),
        }
        errors.push(err);
    }
    // The typed error (including the breaching safe-point ordinal) is
    // identical at both fusion levels — the deadline is a safe-point
    // property, not a dispatch detail.
    for window in errors.windows(2) {
        assert_eq!(window[0], window[1]);
    }
}

#[test]
fn short_deadline_stops_a_divergent_program() {
    for fusion in [Fusion::Off, Fusion::Full] {
        let err = Compiler::new(Mode::Rgt)
            .with_fusion(fusion)
            .with_deadline(Duration::from_millis(50))
            .run_source(SPIN)
            .expect_err("the spin loop cannot finish");
        match err {
            Error::Run(VmError::DeadlineExceeded { checks }) => {
                assert!(checks >= 1, "{fusion:?}");
            }
            other => panic!("{fusion:?}: expected DeadlineExceeded, got {other}"),
        }
    }
}

#[test]
fn deadline_error_text_is_constant() {
    // The serve layer demands uniform result text for a given outcome;
    // the breaching safe-point ordinal varies run to run, so it must
    // not leak into the rendered error.
    let err = Compiler::new(Mode::Rgt)
        .with_deadline_at(Instant::now())
        .run_source(FIB)
        .expect_err("expired deadline");
    assert_eq!(
        err.to_string(),
        "runtime error: wall-clock deadline exceeded"
    );
}

#[test]
fn generous_deadline_leaves_execution_bit_identical() {
    for fusion in [Fusion::Off, Fusion::Full] {
        let plain = Compiler::new(Mode::Rgt)
            .with_fusion(fusion)
            .run_source(FIB)
            .expect("plain run");
        let deadlined = Compiler::new(Mode::Rgt)
            .with_fusion(fusion)
            .with_deadline(Duration::from_secs(600))
            .run_source(FIB)
            .expect("deadlined run");
        assert_eq!(plain.result, deadlined.result, "{fusion:?}");
        assert_eq!(plain.instructions, deadlined.instructions, "{fusion:?}");
        assert_eq!(plain.stats.gc_count, deadlined.stats.gc_count, "{fusion:?}");
        assert_eq!(
            plain.stats.gc_copied_words, deadlined.stats.gc_copied_words,
            "{fusion:?}"
        );
        assert_eq!(
            plain.stats.peak_bytes, deadlined.stats.peak_bytes,
            "{fusion:?}"
        );
    }
}
