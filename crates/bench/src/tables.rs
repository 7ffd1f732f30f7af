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

use crate::differential::divergence;
use crate::programs::{all, by_name, Benchmark};
use kit::{Compiler, Fusion, Mode, Outcome};
use kit_runtime::stats::regions_by_peak;
use kit_runtime::RtConfig;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scale_of(b: &Benchmark, quick: bool) -> i64 {
    if quick {
        b.test_scale
    } else {
        b.default_scale
    }
}

/// Runs `b` at `scale` with `compiler`; an error is a panic naming both.
fn run(compiler: Compiler, b: &Benchmark, scale: i64) -> Outcome {
    compiler
        .run_source(&b.source_scaled(scale))
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", b.name, compiler.mode()))
}

fn run_mode(b: &Benchmark, mode: Mode, quick: bool) -> Outcome {
    run(Compiler::new(mode), b, scale_of(b, quick))
}

/// Formats bytes the way the paper does (K / M).
fn fmt_bytes(b: usize) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{}M", b / (1024 * 1024))
    } else {
        format!("{}K", b.div_ceil(1024))
    }
}

/// Percentage improvement `(a - b) / a`, as the paper's tables print it.
fn improvement_pct(a: f64, b: f64) -> i64 {
    if a == 0.0 {
        0
    } else {
        (100.0 * (a - b) / a).round() as i64
    }
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
        assert_eq!(r.result, rt.result, "{}: mode disagreement", b.name);
        let ipct = improvement_pct(r.instructions as f64, rt.instructions as f64);
        let mpct = improvement_pct(r.stats.peak_bytes as f64, rt.stats.peak_bytes as f64);
        let _ = writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>5}  {:>9} {:>9} {:>5}",
            b.name,
            r.instructions,
            rt.instructions,
            -ipct,
            fmt_bytes(r.stats.peak_bytes),
            fmt_bytes(rt.stats.peak_bytes),
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
        assert_eq!(gt.result, rgt.result, "{}: mode disagreement", b.name);
        let _ = writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>5}  {:>9} {:>9} {:>5}  {:>7} {:>7} {:>5}",
            b.name,
            gt.instructions,
            rgt.instructions,
            improvement_pct(gt.instructions as f64, rgt.instructions as f64),
            fmt_bytes(gt.stats.peak_bytes),
            fmt_bytes(rgt.stats.peak_bytes),
            improvement_pct(gt.stats.peak_bytes as f64, rgt.stats.peak_bytes as f64),
            gt.stats.gc_count,
            rgt.stats.gc_count,
            improvement_pct(gt.stats.gc_count as f64, rgt.stats.gc_count as f64),
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
        let stats = run_mode(&b, Mode::Rgt, quick).stats;
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
        assert_eq!(base.result, rgt.result, "{}: mode disagreement", b.name);
        let ir = base.instructions as f64 / (rgt.instructions as f64).max(1.0);
        let mr = base.stats.peak_bytes as f64 / (rgt.stats.peak_bytes as f64).max(1.0);
        let _ = writeln!(
            out,
            "{:<10} {:>11} {:>11} {:>6.1}  {:>9} {:>9} {:>6.1}",
            b.name,
            base.instructions,
            rgt.instructions,
            ir,
            fmt_bytes(base.stats.peak_bytes),
            fmt_bytes(rgt.stats.peak_bytes),
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
    let stats = run(
        Compiler::new(Mode::Rgt).with_config(cfg),
        &b,
        scale_of(&b, quick),
    )
    .stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "GC fraction per collection, professor (Figure 4) — {} collections",
        stats.gc_records.len()
    );
    let _ = writeln!(
        out,
        "{:>4}  {:>6}  histogram (100% = full bar)",
        "gc#", "GC%"
    );
    for (i, rec) in stats.gc_records.iter().enumerate() {
        let gc = rec.gc_fraction().unwrap_or(0.0) * 100.0;
        let bar = "#".repeat((gc / 2.5).round() as usize);
        let _ = writeln!(out, "{:>4}  {:>6.1}  {}", i + 1, gc, bar);
    }
    if let Some(ri) = stats.ri_fraction() {
        let _ = writeln!(
            out,
            "aggregate: region inference reclaims {:.1}% of all reclaimed memory",
            100.0 * ri
        );
    }
    out
}

/// Figure 5 — region profile over time (per-region words at each
/// collection, read off its [`kit::GcRecord`]) for a compile-like
/// workload.
pub fn fig5(quick: bool) -> String {
    // The paper profiles the ML Kit compiling kitkb: the global region r1
    // dominates and only the collector keeps it from growing without
    // bound. Our closest analog is `tyan`, whose global basis of
    // superseded polynomials lives in a global region that the collector
    // repeatedly cuts back. A small heap makes it collect often.
    let b = by_name("tyan").expect("tyan benchmark");
    let cfg = RtConfig {
        initial_pages: 8,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let stats = run(
        Compiler::new(Mode::Rgt).with_config(cfg),
        &b,
        scale_of(&b, quick),
    )
    .stats;
    let mut out = String::new();
    let records = &stats.gc_records;
    let _ = writeln!(
        out,
        "Region profile of tyan under rgt (Figure 5) — {} samples",
        records.len()
    );
    let mut top = regions_by_peak(records);
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
    for (i, rec) in records.iter().enumerate() {
        let cols: Vec<String> = top
            .iter()
            .map(|(name, _)| {
                format!(
                    "r{}={}",
                    name,
                    rec.region_words.get(name).copied().unwrap_or(0)
                )
            })
            .collect();
        let _ = writeln!(out, "{:>6}  {}", i + 1, cols.join("  "));
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
        let r = run(Compiler::new(mode), &b, scale);
        let _ = writeln!(
            out,
            "  {:<7} instructions {:>11}  peak {:>9}  collections {:>4} (minor {} / major {})",
            mode.suffix(),
            r.instructions,
            fmt_bytes(r.stats.peak_bytes),
            r.stats.gc_count,
            r.stats.minor_gcs,
            r.stats.major_gcs,
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

/// The counts of every benchmark in every mode, a row per (program,
/// mode): instructions, words allocated, collections, bytes copied and
/// peak bytes. Each cell runs at `Fusion::Off` and `Fusion::Full`, and a
/// cell whose two runs differ on any counter panics naming the cell and
/// the counter. The cells are shared out over all cores.
pub fn counts(quick: bool) -> String {
    let cells: Vec<(Benchmark, Mode)> = all()
        .into_iter()
        .flat_map(|b| Mode::ALL_WITH_BASELINE.map(|m| (b, m)))
        .collect();
    let rows = sharded(&cells, |&(b, mode)| {
        let cell = format!("{} [{}]", b.name, mode.suffix());
        let [off, full] = [Fusion::Off, Fusion::Full].map(|fusion| {
            run(
                Compiler::new(mode).with_fusion(fusion),
                &b,
                scale_of(&b, quick),
            )
        });
        let out = agreed(&cell, off, full).unwrap_or_else(|d| panic!("{d}"));
        let s = &out.stats;
        format!(
            "{:<10} {:<5} {:>12} {:>15} {:>8} {:>12} {:>10}",
            b.name,
            mode.suffix(),
            out.instructions,
            s.words_allocated,
            s.gc_count,
            8 * s.gc_copied_words,
            s.peak_bytes,
        )
    });
    let mut out = String::new();
    let _ = writeln!(out, "Counts of every benchmark in every mode");
    let _ = writeln!(
        out,
        "{:<10} {:<5} {:>12} {:>15} {:>8} {:>12} {:>10}",
        "Program",
        "mode",
        "instructions",
        "words_allocated",
        "gc_count",
        "bytes_copied",
        "peak_bytes"
    );
    for row in rows {
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(
        out,
        "(each cell ran at Fusion::Off and Fusion::Full: equal on every counter)"
    );
    out
}

/// The `Fusion::Off` and `Fusion::Full` runs of `cell`, held to each
/// other: the `Full` run, or where they differ, named with the cell.
fn agreed(cell: &str, off: Outcome, full: Outcome) -> Result<Outcome, String> {
    match divergence(&off, &full) {
        None => Ok(full),
        Some(d) => Err(format!("{cell}: Fusion::Off vs Fusion::Full: {d}")),
    }
}

/// `work` on every item, the items shared out over
/// `available_parallelism()` threads; the results in item order. A panic
/// in `work` is re-raised.
pub fn sharded<I: Sync, T: Send>(items: &[I], work: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, work(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_counter_off_and_full_disagree_on_is_named_with_the_cell() {
        let off = Compiler::new(Mode::Rgt)
            .run_source("val it = 1 + 2")
            .unwrap();
        let mut full = Compiler::new(Mode::Rgt)
            .run_source("val it = 1 + 2")
            .unwrap();
        assert!(divergence(&off, &full).is_none());
        full.stats.regions_popped += 1;
        let err = agreed("fib [rgt]", off, full).unwrap_err();
        assert!(
            err.starts_with("fib [rgt]: Fusion::Off vs Fusion::Full:")
                && err.contains("`regions_popped: ")
                && !err.contains("gc_count"),
            "{err}"
        );
    }

    #[test]
    fn formatting_matches_paper_style() {
        assert_eq!(fmt_bytes(500 * 1024), "500K");
        assert_eq!(fmt_bytes(128 * 1024 * 1024), "128M");
        assert_eq!(improvement_pct(2.0, 1.0), 50);
        assert_eq!(improvement_pct(1.0, 2.0), -100);
    }
}
