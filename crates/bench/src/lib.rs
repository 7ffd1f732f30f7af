//! The benchmark suite (paper Fig. 3) and the harnesses regenerating every
//! table and figure of the evaluation section (§4).
//!
//! Programs are MiniML sources embedded at compile time; each starts with
//! a `val scale = N` line so harnesses and tests can rescale workloads
//! (the paper ran minutes-long SML workloads on a 750 MHz Pentium III; our
//! substrate is a bytecode interpreter, so defaults are chosen to keep
//! whole-suite runs in seconds — see EXPERIMENTS.md).
//!
//! Nothing in this crate holds a stopwatch. Times — latency, throughput,
//! pauses, per-layer costs — are read by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`); this crate reads *counts* (instructions, words
//! allocated, #GC, bytes copied, peak memory), which repeat exactly, and
//! drives the server for correctness.
//!
//! Binaries (all under `cargo run -p kit-bench --release --bin <name>`):
//!
//! * `table1` — effect of tagging (`r` vs `rt`), paper Table 1;
//! * `table2` — effect of region inference on GC (`gt` vs `rgt`), Table 2;
//! * `table3` — memory recycled by region inference vs GC + waste, Table 3;
//! * `table4` — comparison with the generational baseline, Table 4;
//! * `fig4`   — GC fraction over time for `professor`, Figure 4;
//! * `fig5`   — region profile of a compile-like workload, Figure 5;
//! * `bootstrap` — the §4.5 substitute (large symbolic workload);
//! * `bench-summary` — the count rows of `BENCH_PR<n>.json` and the
//!   `--check-counts` gate;
//! * `loadgen` — `kit-serve` under a session mix: `--check`, `--chaos`,
//!   flood and rate/deadline runs, leak probes.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod differential;
pub mod fusion_check;
pub mod fusion_select;
pub mod programs;
pub mod randgen;
pub mod runner;
pub mod serve_bench;
pub mod tables;

pub use programs::{all, by_name, Benchmark};
pub use runner::{run_scaled, MeasuredRun};
