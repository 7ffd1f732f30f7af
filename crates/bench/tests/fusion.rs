//! Differential test for the interpreter's fusion pass: every benchmark,
//! in every mode, must be bit-for-bit observationally identical on the
//! threaded engine with fusion off (base handlers only, sharing no code
//! with any fused one) and on with every superinstruction — same rendered
//! result, same printed output, and (because `Op::cost` charges a fused
//! instruction for the source instructions it replaces) the same
//! instruction count and therefore the same GC schedule and allocation
//! statistics. What the program computes is held to the reference
//! evaluator by `suite.rs`.

use kit::{Compiler, Fusion, KamOp, Mode};
use kit_bench::programs;

#[test]
fn fusion_is_observationally_invisible_on_every_benchmark() {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(check_all_benchmarks)
        .unwrap()
        .join()
        .unwrap();
}

fn check_all_benchmarks() {
    // The uncovered-triple fixups must actually fire on the
    // corpus they were profiled from (the equivalence loop below then
    // proves them invisible).
    let triples = [
        KamOp::SelectStoreLoad,
        KamOp::GcCheckLoadSwitchCon,
        KamOp::RegHandleRegHandleLoad,
    ];
    let mut fired = [0usize; 3];
    for b in programs::all() {
        let src = b.source_scaled(b.test_scale);
        let prog = Compiler::new(Mode::R)
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let exe = kit_kam::Executable::prepare(&prog, Default::default(), Fusion::Full);
        let ops = &exe.code().ops;
        for (n, triple) in fired.iter_mut().zip(triples) {
            *n += ops.iter().filter(|op| **op == triple).count();
        }
    }
    assert!(
        fired.iter().all(|&n| n > 0),
        "the triple fixups must fire on the benchmark corpus: {triples:?} = {fired:?}"
    );

    for b in programs::all() {
        let src = b.source_scaled(b.test_scale);
        for mode in Mode::ALL_WITH_BASELINE {
            // Translation runs inside the VM, so one compiled
            // program serves all executions.
            let prog = Compiler::new(mode)
                .compile_source(&src)
                .unwrap_or_else(|e| panic!("{} ({mode}): compile: {e}", b.name));
            let [reference, out] = [Fusion::Off, Fusion::Full].map(|fusion| {
                Compiler::new(mode)
                    .with_fusion(fusion)
                    .run_program(&prog)
                    .unwrap_or_else(|e| panic!("{} ({mode}) {fusion:?}: {e}", b.name))
            });
            let ctx = format!("{} ({mode})", b.name);
            assert_eq!(out.result, reference.result, "{ctx}: result");
            assert_eq!(out.output, reference.output, "{ctx}: output");
            assert_eq!(
                out.instructions, reference.instructions,
                "{ctx}: instruction count"
            );
            assert_eq!(
                out.stats.words_allocated, reference.stats.words_allocated,
                "{ctx}: words allocated"
            );
            assert_eq!(
                out.stats.allocations, reference.stats.allocations,
                "{ctx}: allocations"
            );
            assert_eq!(out.stats.gc_count, reference.stats.gc_count, "{ctx}: #GC");
            assert_eq!(
                out.stats.gc_copied_words, reference.stats.gc_copied_words,
                "{ctx}: words copied by GC"
            );
            assert_eq!(
                out.stats.peak_bytes, reference.stats.peak_bytes,
                "{ctx}: peak memory"
            );
        }
    }
}
