//! Structural tests for the threaded (struct-of-arrays) form: with fusion
//! on it must be a pure regrouping of the stream the oracle runs —
//! `unfuse` of the `Full` stream, concatenated, is the `Off` stream, which
//! is the compiled stream opcode for opcode, and the charges add up to the
//! source length (`kit_bench::fusion_check`) — on every corpus program in
//! every mode and on generated full-surface programs. That every row is
//! dispatched on the corpus is `corpus.rs`'s to check.

use kit::{Compiler, Mode};
use kit_bench::fusion_check::assert_fusion_regroups;
use kit_bench::programs::{self, SplitMix64};
use kit_bench::randgen::{self, Surface};

#[test]
fn fusion_is_a_regrouping_of_the_compiled_stream_on_every_benchmark_in_every_mode() {
    for b in programs::all() {
        for mode in Mode::ALL_WITH_BASELINE {
            let prog = Compiler::new(mode)
                .compile_source(&b.source_scaled(b.test_scale))
                .expect("benchmark compiles");
            assert_fusion_regroups(&prog, &format!("{} [{mode}]", b.name));
        }
    }
}

#[test]
fn fusion_is_a_regrouping_of_the_compiled_stream_on_generated_programs() {
    let mut rng = SplitMix64::new(0x5EED_1900);
    for case in 0..200 {
        let src = randgen::program(&mut rng, Surface::Full);
        let mode = Mode::ALL_WITH_BASELINE[case % Mode::ALL_WITH_BASELINE.len()];
        let prog = Compiler::new(mode)
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("case {case} [{mode}]: {e}\n{src}"));
        assert_fusion_regroups(&prog, &format!("case {case} [{mode}]"));
    }
}
