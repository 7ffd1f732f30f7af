//! Structural tests for the threaded (struct-of-arrays) form: with fusion
//! on it must be a pure regrouping of the stream the oracle runs —
//! `unfuse` of the `Full` stream, concatenated, is the `Off` stream, which
//! is the compiled stream opcode for opcode, and the charges add up to the
//! source length (`kit_bench::fusion_check`) — on every corpus program in
//! every mode and on generated full-surface programs.

use kit::{Compiler, Mode};
use kit_bench::fusion_check::assert_fusion_regroups;
use kit_bench::programs::{self, SplitMix64};
use kit_bench::randgen::{self, Surface};
use kit_kam::threaded::Op;
use std::collections::BTreeSet;

#[test]
fn fusion_is_a_regrouping_of_the_compiled_stream_on_every_benchmark_in_every_mode() {
    // The superinstructions must also fire on the code they were profiled
    // from (that is what justifies each row). One does not: its run
    // executes, but a longer row takes every static site on the corpus
    // (EXPERIMENTS.md "PR 19"; it does fuse in generated programs).
    const SHADOWED: [&str; 1] = ["SelectStore"];
    let mut seen = BTreeSet::new();
    for b in programs::all() {
        for mode in Mode::ALL_WITH_BASELINE {
            let prog = Compiler::new(mode)
                .compile_source(&b.source_scaled(b.test_scale))
                .expect("benchmark compiles");
            let full = assert_fusion_regroups(&prog, &format!("{} [{mode}]", b.name));
            seen.extend(full.ops.iter().map(|op| op.mnemonic()));
        }
    }
    let fused = Op::ALL.into_iter().filter(|op| op.is_fused());
    let missing: Vec<&str> = fused
        .map(Op::mnemonic)
        .filter(|mn| !seen.contains(mn))
        .collect();
    assert_eq!(missing, SHADOWED, "superinstructions that fuse nowhere");
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
