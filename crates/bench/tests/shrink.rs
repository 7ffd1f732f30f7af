//! Shrink-policy sweep: `RtConfig::heap_shrink_factor` must change only
//! the arena footprint, never program-visible behavior.
//!
//! The GC *trigger* legitimately depends on the factor — a collection is
//! scheduled when `free_pages` drops under a fraction of `total_pages`,
//! and shrinking changes `total_pages` — so the sweep does NOT compare
//! GC counts or copied words across factors. What it does pin down:
//!
//! * result, output, instruction total, and mutator allocation volume
//!   are identical for every factor (including `None`, shrinking off);
//! * a tight factor (1.0) actually exercises the release path on
//!   phased, allocation-heavy workloads, in both the region collector
//!   and the generational baseline's major path;
//! * shrink accounting is coherent: pages are only recorded as released
//!   by collections that recorded a shrink, and resizes stay bounded by
//!   the collection count (the single-page-oscillation thrash case is
//!   pinned by a dedicated unit test on `shrink_with_hysteresis`).

use kit::{Compiler, Mode};
use kit_bench::programs;
use kit_runtime::config::{Collector, GenPolicy};
use kit_runtime::RtConfig;

const FACTORS: [Option<f64>; 7] = [
    None,
    Some(1.0),
    Some(1.01),
    Some(1.5),
    Some(2.0),
    Some(4.0),
    Some(8.0),
];

fn run(src: &str, mode: Mode, cfg: RtConfig) -> kit::Outcome {
    Compiler::new(mode)
        .with_fuel(200_000_000)
        .with_config(cfg)
        .run_source(src)
        .expect("benchmark must run")
}

/// Small pages + a small initial arena force many collections, so the
/// resize policy runs dozens of times per benchmark.
fn rgt_pressure(factor: Option<f64>) -> RtConfig {
    RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        heap_shrink_factor: factor,
        ..RtConfig::rgt()
    }
}

/// The generational baseline under the same pressure, covering the
/// major-collection shrink path.
fn baseline_pressure(factor: Option<f64>) -> RtConfig {
    RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        heap_shrink_factor: factor,
        collector: Collector::Generational(GenPolicy::default()),
        ..RtConfig::gt()
    }
}

fn sweep(bench: &str, scale: i64, mode: Mode, mk: fn(Option<f64>) -> RtConfig) {
    let b = programs::by_name(bench).unwrap();
    let src = b.source_scaled(scale);
    let reference = run(&src, mode, mk(None));
    assert!(
        reference.stats.gc_count >= 10,
        "{bench} {mode}: workload too light to exercise the resize policy \
         ({} collections)",
        reference.stats.gc_count
    );
    let mut shrinks_by_factor = Vec::new();
    for factor in FACTORS {
        let out = run(&src, mode, mk(factor));
        let ctx = format!("{bench} {mode} factor {factor:?}");
        assert_eq!(out.result, reference.result, "{ctx}: result");
        assert_eq!(out.output, reference.output, "{ctx}: output");
        assert_eq!(
            out.instructions, reference.instructions,
            "{ctx}: instructions"
        );
        assert_eq!(
            out.stats.words_allocated, reference.stats.words_allocated,
            "{ctx}: words allocated"
        );
        assert_eq!(
            out.stats.allocations, reference.stats.allocations,
            "{ctx}: allocations"
        );
        // Accounting coherence: released pages come only from shrinks,
        // and every shrink released at least one page.
        if factor.is_none() {
            assert_eq!(out.stats.heap_shrinks, 0, "{ctx}: shrinking is off");
            assert_eq!(out.stats.pages_released, 0, "{ctx}: shrinking is off");
        } else {
            assert!(
                out.stats.pages_released >= out.stats.heap_shrinks,
                "{ctx}: {} shrinks but only {} pages released",
                out.stats.heap_shrinks,
                out.stats.pages_released
            );
        }
        if out.stats.heap_shrinks == 0 {
            assert_eq!(
                out.stats.pages_released, 0,
                "{ctx}: pages released without a shrink"
            );
        }
        // A collection resizes the arena at most once in each direction,
        // so a policy that releases/re-grows every cycle is visible as
        // counts tracking `gc_count`; a sane one resizes only on genuine
        // live-set movement.
        assert!(
            out.stats.heap_shrinks <= out.stats.gc_count,
            "{ctx}: more shrinks ({}) than collections ({})",
            out.stats.heap_shrinks,
            out.stats.gc_count
        );
        shrinks_by_factor.push((factor, out.stats.heap_shrinks, out.stats.gc_count));
    }
    eprintln!("{bench} {mode}: (factor, shrinks, gcs) = {shrinks_by_factor:?}");
    // A tight factor must exercise the release path on these
    // allocation-heavy phased workloads (msort drops its unsorted input
    // after the split phase; kitlife's live set breathes per generation).
    let tight = shrinks_by_factor[1].1;
    assert!(tight > 0, "{bench} {mode}: factor 1.0 never shrank");
}

#[test]
fn shrink_factor_sweep_rgt() {
    sweep("msort", 4000, Mode::Rgt, rgt_pressure);
    sweep("kitlife", 24, Mode::Rgt, rgt_pressure);
}

#[test]
fn shrink_factor_sweep_generational_baseline() {
    sweep("msort", 4000, Mode::Baseline, baseline_pressure);
}
