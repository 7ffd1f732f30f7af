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
//! Beside it, every row of the fusion table must be dispatched on the
//! corpus, and the two shapes of the paper's tables the corpus shows at
//! test scale: regions halve the collections, and untagged runs allocate
//! fewer words.

use kit::{Compiler, KamOp, Mode};
use kit_bench::differential::{on_deep_stack, Differential};
use kit_bench::programs::{all, Benchmark};
use kit_runtime::RtConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `check` on every corpus program, the programs shared out over
/// `available_parallelism()` threads, each on a deep stack.
fn on_every_program(check: impl Fn(Benchmark) + Sync) {
    let programs = all();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|s| {
        for _ in 0..threads.min(programs.len()) {
            s.spawn(|| {
                on_deep_stack(|| {
                    while let Some(&b) = programs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        check(b);
                    }
                })
            });
        }
    });
}

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
    on_every_program(|b| {
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
                .unwrap_or_else(|e| panic!("{} [{mode}, pressure {}]: {e}", b.name, cfg.is_some()));
        }
    });
}

/// Every row of the fusion table is dispatched on the corpus it was
/// selected from (the agreement test then proves it invisible).
#[test]
fn every_row_fires_on_the_corpus() {
    let fired: Vec<AtomicUsize> = KamOp::ALL.iter().map(|_| AtomicUsize::new(0)).collect();
    on_every_program(|b| {
        let src = b.source_scaled(b.test_scale);
        for mode in [Mode::R, Mode::Rgt] {
            let out = Compiler::new(mode)
                .with_fusion_profile()
                .run_source(&src)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", b.name));
            let profile = out.fusion_profile.expect("a profiled run");
            for (op, n) in profile.ops.iter().zip(&profile.counts) {
                fired[*op as usize].fetch_add(*n as usize, Ordering::Relaxed);
            }
        }
    });
    let idle: Vec<KamOp> = (KamOp::ALL.into_iter())
        .filter(|op| op.is_fused() && fired[*op as usize].load(Ordering::Relaxed) == 0)
        .collect();
    assert!(
        idle.is_empty(),
        "rows dispatched nowhere on the corpus: {idle:?}"
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
