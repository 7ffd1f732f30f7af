//! Generators for every table and figure of the paper's evaluation (§4).
//!
//! Each function returns the rendered table as a `String` (the `table*`/
//! `fig*` binaries print it; the integration tests assert on its shape).
//! Absolute numbers differ from the paper — the substrate is a bytecode
//! interpreter, not 2002 x86 hardware — but the *shapes* the paper argues
//! from are reproduced; EXPERIMENTS.md records paper-vs-measured. Every
//! cell is a count, so a table is the same on every run and every host:
//! the paper's `t_*` (seconds) columns are `i_*` (instructions executed)
//! here.

use crate::programs::{all, by_name};
use crate::runner::{fmt_bytes, improvement_pct, run_scaled, MeasuredRun};
use kit::Mode;
use kit_runtime::profile::regions_by_peak;
use kit_runtime::RtConfig;
use std::fmt::Write as _;

fn scale_of(b: &crate::Benchmark, quick: bool) -> i64 {
    if quick {
        b.test_scale
    } else {
        b.default_scale
    }
}

fn run_mode(b: &crate::Benchmark, mode: Mode, quick: bool) -> MeasuredRun {
    run_scaled(b, mode, scale_of(b, quick), None)
        .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", b.name))
}

/// Table 1 — effect of tagging on time and memory (`r` vs `rt`).
pub fn table1(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Effect of Tagging on Instructions and Memory Usage (Table 1)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>5}  {:>9} {:>9} {:>5}",
        "Program", "i_r", "i_rt", "%", "m_r", "m_rt", "%"
    );
    for b in all() {
        let r = run_mode(&b, Mode::R, quick);
        let rt = run_mode(&b, Mode::Rt, quick);
        assert_eq!(
            r.outcome.result, rt.outcome.result,
            "{}: mode disagreement",
            b.name
        );
        let ipct = improvement_pct(r.instructions as f64, rt.instructions as f64);
        let mpct = improvement_pct(r.peak_bytes as f64, rt.peak_bytes as f64);
        let _ = writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>5}  {:>9} {:>9} {:>5}",
            b.name,
            r.instructions,
            rt.instructions,
            -ipct,
            fmt_bytes(r.peak_bytes),
            fmt_bytes(rt.peak_bytes),
            -mpct,
        );
    }
    let _ = writeln!(
        out,
        "(% columns are overheads of tagging: (x_rt - x_r)/x_r, as in the paper)"
    );
    out
}

/// Table 2 — effect of region inference on garbage collection
/// (`gt` vs `rgt`): time, memory, number of collections.
pub fn table2(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Effect of Region Inference on Garbage Collection (Table 2)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>5}  {:>9} {:>9} {:>5}  {:>7} {:>7} {:>5}",
        "Program", "i_gt", "i_rgt", "%", "m_gt", "m_rgt", "%", "#GC_gt", "#GC_rgt", "%"
    );
    for b in all() {
        let gt = run_mode(&b, Mode::Gt, quick);
        let rgt = run_mode(&b, Mode::Rgt, quick);
        assert_eq!(
            gt.outcome.result, rgt.outcome.result,
            "{}: mode disagreement",
            b.name
        );
        let _ = writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>5}  {:>9} {:>9} {:>5}  {:>7} {:>7} {:>5}",
            b.name,
            gt.instructions,
            rgt.instructions,
            improvement_pct(gt.instructions as f64, rgt.instructions as f64),
            fmt_bytes(gt.peak_bytes),
            fmt_bytes(rgt.peak_bytes),
            improvement_pct(gt.peak_bytes as f64, rgt.peak_bytes as f64),
            gt.gc_count,
            rgt.gc_count,
            improvement_pct(gt.gc_count as f64, rgt.gc_count as f64),
        );
    }
    let _ = writeln!(
        out,
        "(i_ counts the mutator's instructions; the collector's work is the #GC columns)"
    );
    out
}

/// Table 3 — memory recycled by region inference vs the collector, and
/// region waste, in `rgt` mode.
pub fn table3(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Memory Recycling and Region Waste (Table 3)");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8}  {:>5}",
        "Program", "RI_rgt%", "GC_rgt%", "W_rgt%", "#GC"
    );
    for b in all() {
        let rgt = run_mode(&b, Mode::Rgt, quick);
        let stats = &rgt.outcome.stats;
        let (ri, gc, w) = match stats.ri_fraction() {
            // The paper prints no entry when the collector barely ran.
            Some(ri) if stats.gc_count >= 2 => (
                format!("{:.1}", 100.0 * ri),
                format!("{:.1}", 100.0 * (1.0 - ri)),
                stats
                    .waste_fraction()
                    .map(|w| format!("{:.1}", 100.0 * w))
                    .unwrap_or_else(|| "-".to_string()),
            ),
            _ => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8}  {:>5}",
            b.name, ri, gc, w, stats.gc_count
        );
    }
    let _ = writeln!(
        out,
        "(RI/GC from the paper's §4.3 page accounting; '-' when the collector"
    );
    let _ = writeln!(out, " ran fewer than twice, as in the paper)");
    out
}

/// Table 4 — comparison with the generational baseline (the SML/NJ
/// substitute).
pub fn table4(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Comparison with the Generational Baseline (Table 4)");
    let _ = writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>6}  {:>9} {:>9} {:>6}",
        "Program", "i_smlnj", "i_rgt", "ratio", "m_smlnj", "m_rgt", "ratio"
    );
    for b in all() {
        let base = run_mode(&b, Mode::Baseline, quick);
        let rgt = run_mode(&b, Mode::Rgt, quick);
        assert_eq!(
            base.outcome.result, rgt.outcome.result,
            "{}: mode disagreement",
            b.name
        );
        let ir = base.instructions as f64 / (rgt.instructions as f64).max(1.0);
        let mr = base.peak_bytes as f64 / (rgt.peak_bytes as f64).max(1.0);
        let _ = writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>6.1}  {:>9} {:>9} {:>6.1}",
            b.name,
            base.instructions,
            rgt.instructions,
            ir,
            fmt_bytes(base.peak_bytes),
            fmt_bytes(rgt.peak_bytes),
            mr,
        );
    }
    let _ = writeln!(
        out,
        "(ratios > 1 favour regions+GC, as in the paper's t_smlnj/t_rgt columns;\n \
         i_ counts the mutator's instructions, not the collector's work)"
    );
    out
}

/// Figure 4 — fraction of reclaimed memory recycled by the garbage
/// collector, per collection, for `professor`.
pub fn fig4(quick: bool) -> String {
    let b = by_name("professor").expect("professor benchmark");
    // Run under pressure so the collector fires many times.
    let cfg = RtConfig {
        initial_pages: 16,
        ..RtConfig::rgt()
    };
    let run = run_scaled(&b, Mode::Rgt, scale_of(&b, quick), Some(cfg)).expect("professor run");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "GC fraction per collection, professor (Figure 4) — {} collections",
        run.outcome.stats.gc_records.len()
    );
    let _ = writeln!(
        out,
        "{:>4}  {:>6}  histogram (100% = full bar)",
        "gc#", "GC%"
    );
    for (i, rec) in run.outcome.stats.gc_records.iter().enumerate() {
        let gc = rec.gc_fraction().unwrap_or(0.0) * 100.0;
        let bar = "#".repeat((gc / 2.5).round() as usize);
        let _ = writeln!(out, "{:>4}  {:>6.1}  {}", i + 1, gc, bar);
    }
    if let Some(ri) = run.outcome.stats.ri_fraction() {
        let _ = writeln!(
            out,
            "aggregate: region inference reclaims {:.1}% of all reclaimed memory",
            100.0 * ri
        );
    }
    out
}

/// Figure 5 — region profile over time (per-region words at each
/// collection) for the compile-like `kitkb` workload.
pub fn fig5(quick: bool) -> String {
    // The paper profiles the ML Kit compiling kitkb: the global region r1
    // dominates and only the collector keeps it from growing without
    // bound. Our closest analog is `tyan`, whose global basis of
    // superseded polynomials lives in a global region that the collector
    // repeatedly cuts back. A small heap makes it sample often.
    let b = by_name("tyan").expect("tyan benchmark");
    let cfg = RtConfig {
        initial_pages: 8,
        page_words_log2: 6,
        profile: true,
        ..RtConfig::rgt()
    };
    let scale = if quick { b.test_scale } else { b.default_scale };
    let run = run_scaled(&b, Mode::Rgt, scale, Some(cfg)).expect("tyan run");
    let mut out = String::new();
    let samples = &run.outcome.profile;
    let _ = writeln!(
        out,
        "Region profile of tyan under rgt (Figure 5) — {} samples",
        samples.len()
    );
    let mut top = regions_by_peak(samples);
    top.truncate(5);
    let _ = writeln!(out, "largest regions by peak words:");
    for (name, peak) in &top {
        let _ = writeln!(out, "  r{name}: peak {peak} words");
    }
    let _ = writeln!(
        out,
        "{:>6}  per-region words (top {} regions)",
        "sample",
        top.len()
    );
    for s in samples {
        let cols: Vec<String> = top
            .iter()
            .map(|(name, _)| format!("r{}={}", name, s.by_region.get(name).copied().unwrap_or(0)))
            .collect();
        let _ = writeln!(out, "{:>6}  {}", s.time, cols.join("  "));
    }
    out
}

/// The §4.5 bootstrapping substitute: the largest symbolic workload under
/// `rgt` and the baseline, reporting instructions and peak memory.
pub fn bootstrap(quick: bool) -> String {
    let b = by_name("kitkb").expect("kitkb benchmark");
    let scale = if quick { 12 } else { 220 };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Bootstrapping substitute (paper §4.5): kitkb at scale {scale}"
    );
    for mode in [Mode::Rgt, Mode::Baseline] {
        let r = run_scaled(&b, mode, scale, None).unwrap_or_else(|e| panic!("{mode}: {e}"));
        let _ = writeln!(
            out,
            "  {:<7} instructions {:>11}  peak {:>9}  collections {:>4} (minor {} / major {})",
            mode.suffix(),
            r.instructions,
            fmt_bytes(r.peak_bytes),
            r.gc_count,
            r.outcome.stats.minor_gcs,
            r.outcome.stats.major_gcs,
        );
    }
    let _ = writeln!(
        out,
        "(the paper bootstraps the 90,000-line ML Kit itself; our compiler is\n\
         Rust, so the claim 'region inference + GC works well on a large\n\
         symbolic workload' is exercised by the largest term-processing run)"
    );
    out
}
