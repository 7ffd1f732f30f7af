//! Measurement runner: compiles once per mode, runs, and reports the
//! quantities the paper's tables use — all of them counts. Where the paper
//! prints seconds the tables print instructions executed: a wall-clock
//! cell did not repeat on the hosts this runs on (EXPERIMENTS.md, Table 1),
//! and every time in this repository is the repo benchmark's (`benchmark/`).

use crate::programs::Benchmark;
use kit::{Compiler, Error, Mode, Outcome};
use kit_runtime::RtConfig;

/// One measured execution.
#[derive(Debug)]
pub struct MeasuredRun {
    /// Benchmark name.
    pub name: String,
    /// Execution mode.
    pub mode: Mode,
    /// Peak memory in bytes (`m_*`; heap + stack + large objects).
    pub peak_bytes: usize,
    /// Number of collections (`#GC`).
    pub gc_count: u64,
    /// Instructions executed (`i_*` in the tables, where the paper has
    /// `t_*`).
    pub instructions: u64,
    /// Words allocated into regions.
    pub words_allocated: u64,
    /// The full outcome (accounting records, profile, output).
    pub outcome: Outcome,
}

/// Runs at an explicit scale, optionally overriding the runtime
/// configuration (heap-to-live sweeps, page-size sweeps, profiling).
///
/// # Errors
///
/// Propagates compile/runtime errors.
pub fn run_scaled(
    bench: &Benchmark,
    mode: Mode,
    scale: i64,
    config: Option<RtConfig>,
) -> Result<MeasuredRun, Error> {
    let src = bench.source_scaled(scale);
    let mut compiler = Compiler::new(mode);
    if let Some(cfg) = config {
        compiler = compiler.with_config(cfg);
    }
    let prog = compiler.compile_source(&src)?;
    let outcome = compiler.run_program(&prog)?;
    Ok(MeasuredRun {
        name: bench.name.to_string(),
        mode,
        peak_bytes: outcome.stats.peak_bytes,
        gc_count: outcome.stats.gc_count,
        instructions: outcome.instructions,
        words_allocated: outcome.stats.words_allocated,
        outcome,
    })
}

/// Formats bytes the way the paper does (K / M).
pub fn fmt_bytes(b: usize) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{}M", b / (1024 * 1024))
    } else {
        format!("{}K", b.div_ceil(1024))
    }
}

/// Percentage improvement `(a - b) / a`, as the paper's tables print it.
pub fn improvement_pct(a: f64, b: f64) -> i64 {
    if a == 0.0 {
        0
    } else {
        (100.0 * (a - b) / a).round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::by_name;

    #[test]
    fn runs_fib_in_two_modes_with_same_result() {
        let b = by_name("fib").unwrap();
        let r1 = run_scaled(&b, Mode::R, 12, None).unwrap();
        let r2 = run_scaled(&b, Mode::Rgt, 12, None).unwrap();
        assert_eq!(r1.outcome.result, r2.outcome.result);
        assert_eq!(r1.gc_count, 0, "fib allocates nothing worth collecting");
    }

    #[test]
    fn formatting_matches_paper_style() {
        assert_eq!(fmt_bytes(500 * 1024), "500K");
        assert_eq!(fmt_bytes(128 * 1024 * 1024), "128M");
        assert_eq!(improvement_pct(2.0, 1.0), 50);
        assert_eq!(improvement_pct(1.0, 2.0), -100);
    }
}
