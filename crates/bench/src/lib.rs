//! The benchmark suite (paper Fig. 3) and the harnesses regenerating every
//! table and figure of the evaluation section (§4).
//!
//! Programs are MiniML sources embedded at compile time; each starts with
//! a `val scale = N` line so harnesses and tests can rescale workloads
//! (the paper ran minutes-long SML workloads on a 750 MHz Pentium III; our
//! substrate is a bytecode interpreter, so defaults are chosen to keep
//! whole-suite runs in seconds — see EXPERIMENTS.md).
//!
//! Binaries (all under `cargo run -p kit-bench --release --bin <name>`):
//!
//! * `table1` — effect of tagging (`r` vs `rt`), paper Table 1;
//! * `table2` — effect of region inference on GC (`gt` vs `rgt`), Table 2;
//! * `table3` — memory recycled by region inference vs GC + waste, Table 3;
//! * `table4` — comparison with the generational baseline, Table 4;
//! * `fig4`   — GC fraction over time for `professor`, Figure 4;
//! * `fig5`   — region profile of a compile-like workload, Figure 5;
//! * `bootstrap` — the §4.5 substitute (large symbolic workload).

#![forbid(unsafe_code)]

pub mod chaos;
pub mod programs;
pub mod randgen;
pub mod runner;
pub mod serve_bench;
pub mod tables;

pub use programs::{all, by_name, Benchmark};
pub use runner::{run, run_scaled, MeasuredRun};

/// Parses a `--dispatch` value — the one spelling `bench-summary` and
/// `loadgen` share.
pub fn parse_dispatch(s: &str) -> Option<kit::DispatchMode> {
    match s {
        "match" => Some(kit::DispatchMode::Match),
        "threaded" => Some(kit::DispatchMode::Threaded),
        _ => None,
    }
}
