//! The whole benchmark corpus (the paper's Fig. 3, at test scale) through
//! the one harness, [`kit_bench::differential::Differential`]: every
//! program in all four paper modes and the generational baseline, and in
//! `gt` and `rgt` again with a collection scheduled by every page taken,
//! must compute what the reference evaluator computes and be bit-for-bit
//! identical with fusion off (base handlers only, sharing no code with
//! any fused one) and on — result, output, typed error and every counter
//! (`Op::cost` charges a fused instruction for the source instructions it
//! replaces, so the GC schedule and allocation statistics agree too).
//!
//! Beside it, the two shapes of the paper's tables the corpus shows at
//! test scale: regions halve the collections, and untagged runs allocate
//! fewer words.

use kit::{Compiler, Fusion, KamOp, Mode};
use kit_bench::differential::{on_deep_stack, Differential};
use kit_bench::programs::all;
use kit_runtime::RtConfig;

#[test]
fn every_benchmark_agrees_with_the_evaluator_at_both_fusion_levels() {
    // A collection scheduled by every page taken, so every program
    // collects and every debug collection checks the heap it leaves.
    // `zebra` and `lexgen` agree too, but at 1.0 their `rgt` runs take
    // 130 140 and 20 949 collections: 254 s and 42 s in a debug build
    // (17 s and 3 s in release, on a 2-vCPU host).
    let pressure = RtConfig {
        gc_threshold: 1.0,
        ..RtConfig::rgt()
    };
    on_deep_stack(|| {
        for b in all() {
            let src = b.source_scaled(b.test_scale);
            let differential = Differential::new(&src);
            let mut runs: Vec<(Mode, Option<&RtConfig>)> =
                Mode::ALL_WITH_BASELINE.map(|m| (m, None)).to_vec();
            if !["zebra", "lexgen"].contains(&b.name) {
                runs.extend([Mode::Gt, Mode::Rgt].map(|m| (m, Some(&pressure))));
            }
            for (mode, cfg) in runs {
                differential
                    .agreed(mode, cfg, u64::MAX)
                    .unwrap_or_else(|e| {
                        panic!("{} [{mode}, pressure {}]: {e}", b.name, cfg.is_some())
                    });
            }
        }
    });
}

/// The uncovered-triple fix-ups must fire on the corpus they were
/// profiled from (the agreement test then proves them invisible).
#[test]
fn the_triple_fixups_fire_on_the_corpus() {
    let triples = [
        KamOp::SelectStoreLoad,
        KamOp::GcCheckLoadSwitchCon,
        KamOp::RegHandleRegHandleLoad,
    ];
    let fired = on_deep_stack(|| {
        let mut fired = [0usize; 3];
        for b in all() {
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
        fired
    });
    assert!(
        fired.iter().all(|&n| n > 0),
        "the triple fixups must fire on the benchmark corpus: {triples:?} = {fired:?}"
    );
}

#[test]
fn region_modes_reduce_collections() {
    // The paper's headline (Table 2): enabling region inference
    // dramatically reduces the number of collections. Check the aggregate
    // over the suite at test scale with a small heap so `gt` must collect.
    let cfg_of = |mode: Mode| kit_runtime::RtConfig {
        initial_pages: 16,
        ..match mode {
            Mode::Gt => kit_runtime::RtConfig::gt(),
            _ => kit_runtime::RtConfig::rgt(),
        }
    };
    let mut gc_gt = 0;
    let mut gc_rgt = 0;
    for b in all() {
        let src = b.source_scaled(b.test_scale);
        for mode in [Mode::Gt, Mode::Rgt] {
            let out = Compiler::new(mode)
                .with_config(cfg_of(mode))
                .run_source(&src)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", b.name));
            match mode {
                Mode::Gt => gc_gt += out.stats.gc_count,
                _ => gc_rgt += out.stats.gc_count,
            }
        }
    }
    assert!(
        gc_rgt * 2 <= gc_gt,
        "regions should at least halve collections: gt {gc_gt} vs rgt {gc_rgt}"
    );
}

#[test]
fn untagged_mode_uses_less_memory_than_tagged() {
    // Table 1's memory shape: m_r <= m_rt for allocation-heavy programs.
    for name in ["msort", "tyan", "kitlife"] {
        let b = kit_bench::by_name(name).unwrap();
        let src = b.source_scaled(b.test_scale);
        let r = Compiler::new(Mode::R).run_source(&src).unwrap();
        let rt = Compiler::new(Mode::Rt).run_source(&src).unwrap();
        assert!(
            r.stats.words_allocated < rt.stats.words_allocated,
            "{name}: untagged should allocate fewer words ({} vs {})",
            r.stats.words_allocated,
            rt.stats.words_allocated
        );
    }
}
