//! Cross-crate integration tests of the full pipeline and of the paper's
//! qualitative claims, at small scale so they run in CI.

use kit::{Compiler, Mode};
use kit_bench::by_name;
use kit_bench::programs::DANGLING_CLOSURE;
use kit_runtime::stats::regions_by_peak;
use kit_runtime::RtConfig;

/// §4.2, third observation: `t_r < t_rgt` is about machine time, but its
/// deterministic core — mode `r` executes no collection work at all — must
/// hold exactly.
#[test]
fn regions_alone_never_collect() {
    for name in ["msort", "kitlife", "professor", "tyan"] {
        let b = by_name(name).unwrap();
        let src = b.source_scaled(b.test_scale);
        for mode in [Mode::R, Mode::Rt] {
            let out = Compiler::new(mode).run_source(&src).unwrap();
            assert_eq!(out.stats.gc_count, 0, "{name} [{mode}]");
            assert_eq!(out.stats.gc_copied_words, 0, "{name} [{mode}]");
        }
    }
}

/// Region-friendly programs reclaim essentially everything through region
/// inference (Table 3: msort/kitlife/kitkb ≈ 100%).
#[test]
fn region_friendly_programs_reclaim_by_regions() {
    let b = by_name("msort").unwrap();
    let src = b.source_scaled(1500);
    let cfg = RtConfig {
        initial_pages: 32,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt)
        .with_config(cfg)
        .run_source(&src)
        .unwrap();
    if let Some(ri) = out.stats.ri_fraction() {
        assert!(
            ri > 0.5,
            "msort should be mostly region-reclaimed, got {ri:.2}"
        );
    }
}

/// Region-hostile programs lean on the collector (Table 3: logic ≈ 0.1%
/// reclaimed by regions).
#[test]
fn region_hostile_programs_lean_on_gc() {
    let b = by_name("tyan").unwrap();
    let src = b.source_scaled(6);
    let cfg = RtConfig {
        initial_pages: 8,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt)
        .with_config(cfg)
        .run_source(&src)
        .unwrap();
    assert!(
        out.stats.gc_count >= 2,
        "tyan should collect under a small heap"
    );
    let ri = out.stats.ri_fraction().expect("accounting");
    assert!(
        ri < 0.8,
        "tyan should not be mostly region-reclaimed, got {ri:.2}"
    );
}

/// The `gt` mode really degenerates to one global region: no region pops
/// besides the final teardown, every collection is a full Cheney pass.
#[test]
fn gt_mode_is_degenerate_region_stack() {
    let b = by_name("kitlife").unwrap();
    let src = b.source_scaled(b.test_scale);
    let out = Compiler::new(Mode::Gt).run_source(&src).unwrap();
    assert_eq!(
        out.stats.regions_created, 1,
        "gt mode must push exactly the global region"
    );
}

/// Mode `rgt` pops regions *and* collects — both reclamation mechanisms
/// are active simultaneously.
#[test]
fn rgt_combines_both_mechanisms() {
    let b = by_name("kitlife").unwrap();
    let src = b.source_scaled(8);
    let cfg = RtConfig {
        initial_pages: 8,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt)
        .with_config(cfg)
        .run_source(&src)
        .unwrap();
    assert!(out.stats.regions_popped > 1, "regions must be popped");
    assert!(
        out.stats.gc_count > 0,
        "the collector must run under pressure"
    );
}

/// Heap-to-live ratio sweep (§4.4's time/memory knob): a larger ratio
/// must not increase the number of collections.
#[test]
fn heap_to_live_ratio_controls_collections() {
    let b = by_name("tyan").unwrap();
    let src = b.source_scaled(6);
    let mut counts = Vec::new();
    for ratio in [2.0, 4.0, 8.0] {
        let cfg = RtConfig {
            heap_to_live_ratio: ratio,
            initial_pages: 8,
            page_words_log2: 6,
            ..RtConfig::rgt()
        };
        let out = Compiler::new(Mode::Rgt)
            .with_config(cfg)
            .run_source(&src)
            .unwrap();
        counts.push(out.stats.gc_count);
    }
    assert!(
        counts[0] >= counts[1] && counts[1] >= counts[2],
        "collections must not increase with the ratio: {counts:?}"
    );
}

/// Page-size sweep (§2.4): all power-of-two page sizes execute correctly.
#[test]
fn page_size_sweep_is_sound() {
    let b = by_name("msort").unwrap();
    let src = b.source_scaled(200);
    let mut results = Vec::new();
    for log2 in [5u32, 7, 9, 11] {
        let cfg = RtConfig {
            page_words_log2: log2,
            initial_pages: 8,
            ..RtConfig::rgt()
        };
        let out = Compiler::new(Mode::Rgt)
            .with_config(cfg)
            .run_source(&src)
            .unwrap();
        results.push(out.result);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}

/// Every collection records the paper's Fig. 5 region profile on kitkb,
/// with no option asked for: each record holds the words of some region,
/// and the peak ranking reads them.
#[test]
fn every_collection_records_a_region_profile() {
    let b = by_name("kitkb").unwrap();
    let src = b.source_scaled(10);
    let cfg = RtConfig {
        initial_pages: 8,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt)
        .with_config(cfg)
        .run_source(&src)
        .unwrap();
    let records = &out.stats.gc_records;
    assert!(!records.is_empty(), "the small heap must collect");
    assert_eq!(records.len() as u64, out.stats.gc_count);
    assert!(records.iter().all(|r| !r.region_words.is_empty()));
    let top = regions_by_peak(records);
    assert!(top.windows(2).all(|w| w[0].1 >= w[1].1), "{top:?}");
}

/// The paper's §2.6 example (`examples/dangling.rs`): every mode agrees;
/// without a collector the captured list's region is popped before the
/// closure runs, with one the GC-safe weakening makes it global, and a
/// small heap makes `rgt` collect.
#[test]
fn the_section_2_6_closure_dangles_only_without_a_collector() {
    for mode in Mode::ALL_WITH_BASELINE {
        let out = Compiler::new(mode).run_source(DANGLING_CLOSURE).unwrap();
        assert_eq!(out.result_int(), Some(22), "{mode}");
        match mode {
            Mode::R | Mode::Rt => assert_eq!(out.stats.regions_popped, 1, "{mode}"),
            Mode::Rgt => assert_eq!(out.stats.regions_popped, 0, "{mode}"),
            _ => {}
        }
    }
    let pressured = RtConfig {
        gc_threshold: 1.0,
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt)
        .with_config(pressured)
        .run_source(DANGLING_CLOSURE)
        .unwrap();
    assert_eq!(out.result_int(), Some(22));
    assert_eq!(out.stats.regions_popped, 0);
    assert!(out.stats.gc_count >= 1, "the small heap must collect");
}

/// Bytecode is reusable: compile once, run many times, identical results.
#[test]
fn compiled_programs_are_reusable() {
    let compiler = Compiler::new(Mode::Rgt);
    let prog = compiler
        .compile_source("val it = foldl op+ 0 (upto (1, 1000))")
        .unwrap();
    let a = compiler.run_program(&prog).unwrap();
    let b = compiler.run_program(&prog).unwrap();
    assert_eq!(a.result, b.result);
    assert_eq!(a.instructions, b.instructions, "execution is deterministic");
}
