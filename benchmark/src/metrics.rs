//! The metrics `BENCHMARK.json` declares, computed from what a run measured.
//! `tests::benchmark_json_declares_exactly_what_a_run_emits` (in `main.rs`)
//! holds the two lists to each other, names, units and order.

use crate::layers::{self, Counts, JobSamples, RuntimeProbes};
use crate::report::Metric;
use crate::serve::IdleProbes;
use crate::stats::{self, geomean, Reading, Summary};

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The quiet time of every non-empty group of timings of one job each.
pub fn quiet_each(groups: &[Vec<f64>]) -> Vec<Reading> {
    groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| Reading::quiet(g))
        .collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `lat_ms` is the quiet
/// time of the workload's unit of work (a pass, a request of the mix).
pub fn end_to_end(setup_s: &[f64], lat_ms: Reading, capacity: Reading) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", Reading::quiet(setup_s)),
        Metric::new("lat_ms_p05", "ms", lat_ms),
        Metric::new("capacity_per_s", "1/s", capacity),
    ]
}

/// What an untraced run prints beside the gated metrics: what the whole
/// window looked like, host included, which no bound the contract allows can
/// hold (README, "End-to-end metrics"). `unit_ms` is the time of every unit
/// of work in the window (a pass, a request); `parts` are the quiet times by
/// cell or by program of the mix.
pub fn ungated(unit_ms: &[f64], parts: &[Reading]) -> Result<Vec<Metric>, String> {
    Ok(vec![
        Metric::new("lat_ms_p50", "ms", Reading::pick(unit_ms, |s| s.median)),
        Metric::new("lat_ms_p90", "ms", Reading::pick(unit_ms, |s| s.p90)),
        Metric::new("geomean_ms", "ms", Reading::combine(parts, geomean)),
        Metric::new("peak_rss_mb", "MB", Reading::exact(peak_rss_mb()?, 1)),
    ])
}

/// What a loaded server contributed to the per-layer list. A batch workload
/// has no server: it fills in `unit_ms`, `groups` and `achieved_rps` and
/// leaves the rest at zero.
#[derive(Default)]
pub struct UnderLoad {
    pub unit_ms: Vec<f64>,
    /// The quiet times by cell or by program of the mix.
    pub parts: Vec<Reading>,
    pub queue_depth: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub achieved_rps: f64,
    pub worker_gc_ms: f64,
    pub shed: u64,
    pub rate_limited: u64,
    pub deadline_exceeded: u64,
}

/// The probes every traced run takes, whatever the workload.
pub struct CommonProbes {
    pub fixed_compile_ms: Reading,
    pub prelude_ms: Reading,
    pub runtime: RuntimeProbes,
    pub idle: IdleProbes,
}

/// Everything the per-layer list is computed from.
pub struct Layers<'a> {
    /// The reference jobs: every cell at its middle scale, or the mix.
    pub jobs: Vec<&'a JobSamples>,
    /// Mean over the serve mix of the quiet standalone `run_prepared`.
    pub standalone_mix_ms: f64,
    pub probes: CommonProbes,
    pub load: UnderLoad,
    pub trace_overhead_share: f64,
    pub peak_rss_mb: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Summary::of(samples).p99
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. Times are means over
/// the reference jobs of each job's quiet time; counts are totals over the
/// reference jobs (README, "Per-layer metrics").
pub fn per_layer(l: &Layers<'_>) -> Vec<Metric> {
    let jobs = &l.jobs[..];
    let n_jobs = jobs.len();
    let exact = |name, unit, value: f64, n| Metric::new(name, unit, Reading::exact(value, n));
    let stage_ms =
        |name, stage| Metric::new(name, "ms", layers::stage_mean(jobs, stage).scaled(1e-6));
    let stage_us =
        |name, stage| Metric::new(name, "us", layers::stage_mean(jobs, stage).scaled(1e-3));
    let total =
        |name, f: fn(&Counts) -> u64| Metric::new(name, "count", layers::count_total(jobs, f));
    let sum_of_quiet = |stage: &str| -> f64 {
        jobs.iter()
            .filter_map(|j| j.summary(stage))
            .map(|s| s.quiet)
            .sum()
    };
    let max_over_jobs = |f: &dyn Fn(&JobSamples) -> Option<f64>| {
        jobs.iter().filter_map(|j| f(j)).fold(0.0, f64::max)
    };

    let (run_ns, gc_ns) = (sum_of_quiet("kam.run"), sum_of_quiet("gc"));
    let instructions = layers::count_total(jobs, |c| c.instructions).value;
    let copied = layers::count_total(jobs, |c| c.gc_copied_words).value;
    let run_prepared_ms = layers::stage_mean(jobs, "facade");
    let stages_us = (sum_of_quiet("kam.setup") + run_ns + sum_of_quiet("kam.render"))
        / 1e3
        / n_jobs.max(1) as f64;
    let (p, load) = (&l.probes, &l.load);
    let lat = Summary::of(&load.unit_ms);

    vec![
        stage_ms("syntax.parse_ms", "syntax.parse"),
        exact(
            "syntax.src_bytes",
            "count",
            jobs.iter().map(|j| j.src_bytes).sum::<usize>() as f64,
            n_jobs,
        ),
        stage_ms("typing.elab_ms", "typing.elab"),
        Metric::new("typing.prelude_ms", "ms", p.prelude_ms),
        stage_ms("lambda.opt_ms", "lambda.opt"),
        stage_ms("region.infer_ms", "region.infer"),
        stage_ms("region.annotate_ms", "region.annotate"),
        stage_ms("region.place_ms", "region.place"),
        stage_ms("region.mult_ms", "region.mult"),
        stage_ms("kam.codegen_ms", "kam.codegen"),
        exact(
            "kam.code_len",
            "count",
            jobs.iter().map(|j| j.code_len).sum::<usize>() as f64,
            n_jobs,
        ),
        stage_ms("kam.prepare_ms", "kam.prepare"),
        stage_us("kam.setup_us", "kam.setup"),
        stage_ms("kam.run_ms", "kam.run"),
        total("kam.instructions", |c| c.instructions),
        exact(
            "kam.minstr_per_s",
            "1/s",
            ratio(instructions, run_ns - gc_ns) * 1e3,
            n_jobs,
        ),
        stage_us("kam.render_us", "kam.render"),
        stage_ms("runtime.gc_ms", "gc"),
        exact("runtime.gc_share", "ratio", ratio(gc_ns, run_ns), n_jobs),
        total("runtime.gc_count", |c| c.gc_count),
        total("runtime.gc_copied_words", |c| c.gc_copied_words),
        exact("runtime.gc_ns_per_word", "ns", ratio(gc_ns, copied), n_jobs),
        exact(
            "runtime.gc_pause_max_ms",
            "ms",
            max_over_jobs(&|j| j.summary("gc_pause_max").map(|s| s.quiet / 1e6)),
            n_jobs,
        ),
        total("runtime.words_allocated", |c| c.words_allocated),
        total("runtime.allocations", |c| c.allocations),
        total("runtime.regions_created", |c| c.regions_created),
        exact(
            "runtime.peak_bytes",
            "count",
            max_over_jobs(&|j| j.counts.map(|c| c.peak_bytes as f64)),
            n_jobs,
        ),
        total("runtime.heap_grows", |c| c.heap_grows),
        Metric::new("runtime.rt_new_us", "us", p.runtime.rt_new_us),
        Metric::new(
            "runtime.region_pushpop_ns",
            "ns",
            p.runtime.region_pushpop_ns,
        ),
        Metric::new(
            "runtime.alloc_ns_per_word",
            "ns",
            p.runtime.alloc_ns_per_word,
        ),
        Metric::new(
            "runtime.collect_ns_per_word",
            "ns",
            p.runtime.collect_ns_per_word,
        ),
        Metric::new(
            "kit.compile_ms",
            "ms",
            layers::stage_mean(jobs, "kit.compile"),
        ),
        Metric::new("kit.fixed_compile_ms", "ms", p.fixed_compile_ms),
        Metric::new("kit.run_prepared_ms", "ms", run_prepared_ms),
        exact(
            "kit.facade_overhead_us",
            "us",
            run_prepared_ms.value * 1e3 - stages_us,
            run_prepared_ms.n,
        ),
        Metric::new("serve.wire_encode_req_ns", "ns", p.idle.wire_encode_req_ns),
        Metric::new("serve.wire_decode_req_ns", "ns", p.idle.wire_decode_req_ns),
        Metric::new(
            "serve.wire_encode_resp_ns",
            "ns",
            p.idle.wire_encode_resp_ns,
        ),
        Metric::new(
            "serve.wire_decode_resp_ns",
            "ns",
            p.idle.wire_decode_resp_ns,
        ),
        Metric::new("serve.rpc_ms_p50", "ms", p.idle.rpc_ms_p50),
        exact(
            "serve.overhead_ms",
            "ms",
            p.idle.rpc_ms_p50.value - l.standalone_mix_ms,
            p.idle.rpc_ms_p50.n,
        ),
        Metric::new("serve.hit_ms_p50", "ms", p.idle.hit_ms_p50),
        Metric::new("serve.miss_ms_p50", "ms", p.idle.miss_ms_p50),
        Metric::new("serve.connect_ms", "ms", p.idle.connect_ms),
        exact(
            "serve.queue_depth_p99",
            "count",
            p99(&load.queue_depth),
            load.queue_depth.len(),
        ),
        exact(
            "serve.worker_gc_ms",
            "ms",
            load.worker_gc_ms,
            load.queue_depth.len(),
        ),
        exact("serve.shed", "count", load.shed as f64, 1),
        exact("serve.rate_limited", "count", load.rate_limited as f64, 1),
        exact(
            "serve.deadline_exceeded",
            "count",
            load.deadline_exceeded as f64,
            1,
        ),
        Metric::new(
            "lat_ms_p50",
            "ms",
            Reading::pick(&load.unit_ms, |s| s.median),
        ),
        Metric::new("lat_ms_p90", "ms", Reading::pick(&load.unit_ms, |s| s.p90)),
        Metric::new("lat_ms_p99", "ms", Reading::pick(&load.unit_ms, |s| s.p99)),
        exact("lat_ms_max", "ms", lat.max, lat.n),
        Metric::new("geomean_ms", "ms", Reading::combine(&load.parts, geomean)),
        exact(
            "serve.backlog_growth",
            "ratio",
            stats::drift(&load.unit_ms),
            lat.n,
        ),
        exact(
            "loadgen.late_ms_p99",
            "ms",
            p99(&load.late_ms),
            load.late_ms.len(),
        ),
        exact("loadgen.achieved_rps", "1/s", load.achieved_rps, lat.n),
        exact(
            "trace.overhead_share",
            "ratio",
            l.trace_overhead_share,
            lat.n,
        ),
        exact("peak_rss_mb", "MB", l.peak_rss_mb, 1),
    ]
}
