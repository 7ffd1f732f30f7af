//! The repo benchmark: four workloads over `kit::Compiler` and `kit-serve`,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. `benchmark/README.md` names every metric and says why each
//! workload exists; `BENCHMARK.json` at the repo root is the contract.
//!
//! Usage (through `benchmark/run.sh`, which builds this first):
//!
//! ```text
//! kit-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!               [--out DIR] [--append]
//! kit-benchmark compare DIR_A DIR_B
//! kit-benchmark expected
//! ```

mod batch;
mod inputs;
mod json;
mod layers;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;

use crate::inputs::{Expected, Kind, Workload, SERVE_MODE, WORKLOADS};
use crate::json::Json;
use crate::layers::JobSamples;
use crate::metrics::{CommonProbes, Layers, UnderLoad};
use crate::report::{JobRow, Run, Tally};
use crate::serve::{MixProgram, Sources};
use crate::stats::{mean, sum, Reading};
use crate::trace::Tracer;
use kit::{Compiler, Mode};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

/// Set-up is repeated and its quiet time reported, so that the host's slow
/// spells do not decide `setup_s`.
const SETUP_REPEATS: usize = 9;

/// An untraced serve run alternates open-loop and saturation segments of
/// equal length, one of each per round, so that both phases see the whole
/// window and a slow spell of the host that lasts ten seconds leaves each of
/// them quiet seconds elsewhere. The names keep the rounds' nonces apart.
const SERVE_ROUNDS: [(&str, &str); 5] = [
    ("open0", "sat0"),
    ("open1", "sat1"),
    ("open2", "sat2"),
    ("open3", "sat3"),
    ("open4", "sat4"),
];

/// A traced run spends this share of its window on untraced work and as
/// much on traced work, in [`TRACE_ROUNDS`] alternating windows of each, so
/// that a box that speeds up or slows down over the run does not read as
/// tracing overhead; replay and probes take the rest.
const TRACE_WINDOW_SHARE: f64 = 0.35;
const TRACE_ROUNDS: usize = 2;

/// Limits of the timing guards (README, "Guards"), as ISSUE 11 set them. A
/// slow spell of the shared host trips them on a run that is otherwise
/// sound, and the driver needs a result from every run, so a run outside
/// them says so on standard error and in its result file and reports its
/// numbers all the same.
const MIN_ACHIEVED_SHARE: f64 = 0.99;
const MAX_BACKLOG_GROWTH: f64 = 1.5;
const MAX_TRACE_OVERHEAD: f64 = 0.1;
const MAX_LATE_MS_P99: f64 = 1.0;

/// Job ids of the stage-by-stage replays — the workload's own jobs, and
/// the serve mix a batch workload replays for the serve probes — apart from
/// batch jobs and requests.
const REPLAY_JOB_BASE: u64 = 1 << 40;
const MIX_REPLAY_JOB_BASE: u64 = 2 << 40;

enum Failure {
    Usage(String),
    /// A validity guard tripped: the numbers would mislead.
    Guard(String),
    Error(String),
}

/// The timing guards a run tripped.
#[derive(Default)]
struct Guards {
    tripped: Vec<String>,
}

impl Guards {
    fn trip(&mut self, what: String) {
        eprintln!("validity guard: {what}");
        self.tripped.push(what);
    }
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: PathBuf,
    append: bool,
}

fn parse_options(args: &[String], dir: &Path) -> Result<Options, Failure> {
    let usage = |m: String| Failure::Usage(m);
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut out_dir = dir.join("out");
    let mut append = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(inputs::workload(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    usage(format!("unknown workload `{name}` (one of {names:?})"))
                })?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|e| usage(format!("--seed: {e}")))?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| usage("--seconds takes a whole number ≥ 1".to_string()))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(usage(format!("--trace takes 0 or 1, not `{other}`"))),
                };
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--append" => append = true,
            other => return Err(usage(format!("unknown argument `{other}`"))),
        }
    }
    Ok(Options {
        workload: workload.ok_or_else(|| usage("--workload NAME is required".to_string()))?,
        seed,
        seconds,
        traced,
        out_dir,
        append,
    })
}

impl Options {
    fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }

    /// One of the alternating windows of a traced run.
    fn trace_window(&self) -> Duration {
        self.window(TRACE_WINDOW_SHARE / TRACE_ROUNDS as f64)
    }

    fn new_run(&self) -> Run {
        Run {
            workload: self.workload.name,
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            tally: Tally::default(),
            metrics: Vec::new(),
            ungated: Vec::new(),
            jobs: Vec::new(),
            guards: Vec::new(),
        }
    }
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let v = f()?;
    Ok((v, t0.elapsed().as_secs_f64()))
}

/// `trace.overhead_share` from the quiet time of the unit of work with
/// spans and without.
fn check_trace_overhead(traced_ms: Reading, untraced_ms: Reading, guards: &mut Guards) -> f64 {
    let overhead = traced_ms.value / untraced_ms.value - 1.0;
    if overhead > MAX_TRACE_OVERHEAD {
        guards.trip(format!(
            "trace.overhead_share {overhead:.3} > {MAX_TRACE_OVERHEAD}"
        ));
    }
    overhead
}

/// A program to replay: label, source, mode, and what it must produce.
type ReplaySource<'a> = (String, &'a str, Mode, &'a Expected);

/// Replays `sources` stage by stage and through the façade: `compile_rounds`
/// compiles and `run_rounds` runs of each, every staged run checked against
/// the façade's and against the expected file. One `JobSamples` per source.
fn replay(
    tr: &mut Tracer,
    job_base: u64,
    sources: &[ReplaySource<'_>],
    compile_rounds: usize,
    run_rounds: usize,
    tally: &mut Tally,
) -> Result<Vec<JobSamples>, Failure> {
    let mut jobs = vec![JobSamples::default(); sources.len()];
    for (j, (label, src, mode, expected)) in sources.iter().enumerate() {
        let id = job_base + j as u64;
        let job = &mut jobs[j];
        let compiler = Compiler::new(*mode);
        let facade_prep = compiler
            .prepare_source(src)
            .map_err(|e| format!("{label}: {e}"))?;
        let mut staged_prep = None;
        for _ in 0..compile_rounds {
            let (prep, code_len) =
                layers::compile_staged(tr, id, src, *mode).map_err(|e| format!("{label}: {e}"))?;
            job.code_len = code_len;
            staged_prep = Some(prep);
            job.push("kit.compile", layers::facade_compile_ms(&compiler, src)?);
        }
        job.src_bytes = src.len();
        let staged_prep =
            staged_prep.ok_or_else(|| "replay needs at least one compile round".to_string())?;
        for _ in 0..run_rounds {
            let (facade, ms) =
                layers::run_facade(&compiler, &facade_prep).map_err(|e| format!("{label}: {e}"))?;
            let staged = layers::run_staged(tr, id, None, &staged_prep, *mode)
                .map_err(|e| format!("{label}: {e}"))?;
            if (&staged.result, &staged.output, staged.counts)
                != (&facade.result, &facade.output, facade.counts)
            {
                return Err(Failure::Guard(format!(
                    "{label}: the stage-by-stage replay ({}, {:?}) and Compiler::run_prepared \
                     ({}, {:?}) disagree",
                    staged.result, staged.counts, facade.result, facade.counts
                )));
            }
            tally.attempted += 1;
            if !expected.matches(&facade.result, &facade.output) {
                tally.fail(format!(
                    "{label}: result {:?}, expected {:?}",
                    facade.result, expected.result
                ));
            }
            job.push("facade", ms);
            job.push("gc", facade.gc_ns as f64);
            job.push("gc_pause_max", facade.gc_pause_max_ns as f64);
            job.check_counts(facade.counts)
                .map_err(|e| Failure::Guard(format!("{label}: exact counts differ: {e}")))?;
        }
    }
    let ours = |id: u64| (job_base..job_base + sources.len() as u64).contains(&id);
    for (id, stages) in layers::stage_samples_by_job(tr, ours) {
        jobs[(id - job_base) as usize].stages.extend(stages);
    }
    Ok(jobs)
}

fn mix_sources(mix: &[MixProgram]) -> Vec<ReplaySource<'_>> {
    mix.iter()
        .map(|p| (p.label(), p.src.as_str(), SERVE_MODE, &p.expected))
        .collect()
}

/// The probes every traced run takes, whatever the workload: the runtime
/// driven directly, the fixed compile cost, and an idle server with the
/// serve mix cached. Probe requests are tallied like any other job.
fn common_probes(
    server: &kit_serve::ServerHandle,
    mix: &[MixProgram],
    seed: u64,
    tally: &mut Tally,
) -> Result<CommonProbes, String> {
    let (fixed_compile_ms, prelude_ms) = layers::probe_fixed_compile()?;
    Ok(CommonProbes {
        fixed_compile_ms,
        prelude_ms,
        runtime: layers::probe_runtime(),
        idle: serve::probe_idle(server, mix, seed, tally)?,
    })
}

fn job_rows(labels: Vec<String>, jobs: &[&JobSamples]) -> Vec<JobRow> {
    labels
        .into_iter()
        .zip(jobs)
        .map(|(label, j)| {
            let quiet_ms = j.summary("facade").map_or(0.0, |s| s.quiet);
            let gc_ms = j.summary("gc").map_or(0.0, |s| s.quiet / 1e6);
            JobRow {
                label,
                quiet_ms,
                gc_share: if quiet_ms > 0.0 {
                    gc_ms / quiet_ms
                } else {
                    0.0
                },
                counts: j.counts,
            }
        })
        .collect()
}

fn write_trace(out_dir: &Path, workload: &str, tr: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace.{workload}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_jsonl(&tr.spans, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run_batch(opts: &Options, dir: &Path, guards: &mut Guards) -> Result<Run, Failure> {
    let w = &opts.workload;
    let mut setup_s = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..if opts.traced { 1 } else { SETUP_REPEATS } {
        let (c, s) = timed(|| batch::set_up(dir, w))?;
        cells = c;
        setup_s.push(s);
    }
    let mut schedule = batch::schedule(opts.seed, &cells);
    let mut window =
        |length, min_passes, tracer: Option<&mut Tracer>, into: &mut batch::BatchRun| {
            batch::run_window(&cells, &mut schedule, length, min_passes, tracer, into)
                .map_err(Failure::Guard)
        };
    let labels = || cells.iter().map(|c| c.label(c.base_level())).collect();
    // Warm-up: every scale level of every cell once.
    let levels = cells.iter().map(|c| c.levels.len()).max().unwrap_or(1);
    window(
        Duration::ZERO,
        levels,
        None,
        &mut batch::BatchRun::new(&cells),
    )?;
    let mut run = opts.new_run();

    if !opts.traced {
        let mut measured = batch::BatchRun::new(&cells);
        window(opts.window(1.0), 1, None, &mut measured)?;
        let by_cell = measured.quiet_cells_ms("facade");
        let pass_ms = Reading::combine(&by_cell, sum);
        // Closed loop, one thread: what the quiet pass time allows.
        let per_s = |pass_ms: f64| cells.len() as f64 * 1e3 / pass_ms;
        let capacity = Reading {
            value: per_s(pass_ms.value),
            q1: per_s(pass_ms.q3),
            q3: per_s(pass_ms.q1),
            ..pass_ms
        };
        run.metrics = metrics::end_to_end(&setup_s, pass_ms, capacity);
        run.ungated = metrics::ungated(&measured.pass_ms, &by_cell)?;
        let reference: Vec<&JobSamples> = cells
            .iter()
            .zip(&measured.jobs)
            .map(|(cell, levels)| &levels[cell.base_level()])
            .collect();
        run.jobs = job_rows(labels(), &reference);
        run.tally = measured.tally;
        return Ok(run);
    }

    let mut untraced = batch::BatchRun::new(&cells);
    let mut traced = batch::BatchRun::new(&cells);
    let mut tr = Tracer::new(Instant::now());
    for _ in 0..TRACE_ROUNDS {
        window(opts.trace_window(), levels, None, &mut untraced)?;
        window(opts.trace_window(), levels, Some(&mut tr), &mut traced)?;
    }
    batch::collect_spans(&tr, &mut traced);
    let by_cell = traced.quiet_cells_ms("staged");
    let overhead = check_trace_overhead(
        Reading::combine(&by_cell, sum),
        Reading::combine(&untraced.quiet_cells_ms("facade"), sum),
        guards,
    );

    // Compile every cell's middle scale stage by stage; one run each holds
    // the replay to the façade's result, and the windows' run-side samples
    // then take the place of that one run's.
    let sources: Vec<ReplaySource<'_>> = cells
        .iter()
        .map(|c| {
            let l = &c.levels[c.base_level()];
            (c.label(c.base_level()), l.src.as_str(), c.mode, &l.expected)
        })
        .collect();
    let mut reference = replay(&mut tr, REPLAY_JOB_BASE, &sources, 5, 1, &mut run.tally)?;
    for (c, cell) in cells.iter().enumerate() {
        let base = cell.base_level();
        let stages = &mut reference[c].stages;
        stages.extend(
            traced.jobs[c][base]
                .stages
                .iter()
                .map(|(k, v)| (*k, v.clone())),
        );
        stages.insert("facade", untraced.jobs[c][base].stages["facade"].clone());
    }

    let mix = serve::load_mix(dir, inputs::serve_mix())?;
    let mix_jobs = replay(
        &mut tr,
        MIX_REPLAY_JOB_BASE,
        &mix_sources(&mix),
        1,
        15,
        &mut run.tally,
    )?;
    let (server, stream) = serve::set_up(&mix)?;
    drop(stream);
    let probes = common_probes(&server, &mix, opts.seed, &mut run.tally)?;
    server.shutdown();

    let done = (traced.tally.attempted - traced.tally.failed) as f64;
    let jobs: Vec<&JobSamples> = reference.iter().collect();
    run.jobs = job_rows(labels(), &jobs);
    run.metrics = metrics::per_layer(&Layers {
        jobs,
        standalone_mix_ms: layers::stage_mean(&mix_jobs.iter().collect::<Vec<_>>(), "facade").value,
        probes,
        load: UnderLoad {
            achieved_rps: done / traced.wall.as_secs_f64(),
            parts: by_cell,
            unit_ms: traced.pass_ms,
            ..UnderLoad::default()
        },
        trace_overhead_share: overhead,
        peak_rss_mb: metrics::peak_rss_mb()?,
    });
    run.tally.absorb(untraced.tally);
    run.tally.absorb(traced.tally);
    write_trace(&opts.out_dir, w.name, &tr)?;
    Ok(run)
}

/// Holds the open loop of a run, all its windows pooled, to the timing
/// guards.
fn check_open_loop(o: &serve::OpenLoop, guards: &mut Guards) -> Result<(), Failure> {
    if o.lat_ms.is_empty() {
        return Err(Failure::Error(format!(
            "open loop: no request succeeded ({:?})",
            o.tally.failures
        )));
    }
    if o.achieved_rps() < MIN_ACHIEVED_SHARE * o.offered_rps() {
        guards.trip(format!(
            "loadgen.achieved_rps {:.1} < {MIN_ACHIEVED_SHARE} × offered {:.1}",
            o.achieved_rps(),
            o.offered_rps()
        ));
    }
    let growth = stats::drift(&o.lat_ms);
    if growth > MAX_BACKLOG_GROWTH {
        guards.trip(format!(
            "serve.backlog_growth {growth:.2} > {MAX_BACKLOG_GROWTH}: latency rose over the window"
        ));
    }
    let late = stats::Summary::of(&o.late_ms).p99;
    if late > MAX_LATE_MS_P99 {
        guards.trip(format!(
            "loadgen.late_ms_p99 {late:.3} > {MAX_LATE_MS_P99}: the generator ran late"
        ));
    }
    Ok(())
}

fn run_serve(
    opts: &Options,
    dir: &Path,
    rate: f64,
    unique: bool,
    guards: &mut Guards,
) -> Result<Run, Failure> {
    let mix = &serve::load_mix(dir, opts.workload.programs)?[..];
    let mut setup_s = Vec::new();
    let mut live: Option<(kit_serve::ServerHandle, std::net::TcpStream)> = None;
    for _ in 0..if opts.traced { 1 } else { SETUP_REPEATS } {
        if let Some((server, stream)) = live.take() {
            drop(stream);
            server.shutdown();
        }
        let (pair, s) = timed(|| serve::set_up(mix))?;
        live = Some(pair);
        setup_s.push(s);
    }
    let (server, stream) = live.ok_or_else(|| "set-up did not run".to_string())?;
    // Every phase draws its nonces under its own name, so that no two
    // requests of a run carry the same source.
    let sources = |phase| Sources {
        mix,
        unique: unique.then_some((opts.seed, phase)),
    };
    let arrivals = |salt: u64, window: Duration| {
        inputs::arrivals(opts.seed ^ salt, rate, window.as_nanos() as u64, mix.len())
    };
    let mut run = opts.new_run();

    // Warm-up at the workload's rate.
    let warm = arrivals(0x3A3A, Duration::from_millis(500));
    run.tally
        .absorb(serve::open_loop(&stream, sources("warm"), &warm, None)?.tally);

    if !opts.traced {
        let segment = opts.window(0.5 / SERVE_ROUNDS.len() as f64);
        let mut open = serve::OpenLoop::default();
        let mut sat = serve::Saturation::default();
        let mut pick = inputs::closed_loop_programs(opts.seed, mix.len());
        for (round, (open_phase, sat_phase)) in (0u64..).zip(SERVE_ROUNDS) {
            let schedule = arrivals(round << 32, segment);
            open.absorb(serve::open_loop(
                &stream,
                sources(open_phase),
                &schedule,
                None,
            )?);
            sat.absorb(serve::saturate(
                &stream,
                sources(sat_phase),
                segment,
                &mut pick,
            )?);
        }
        check_open_loop(&open, guards)?;
        let by_program = metrics::quiet_each(&open.lat_by_program(mix.len()));
        let capacity = Reading::exact(sat.capacity_per_s(), sat.ok_in_window as usize);
        run.metrics = metrics::end_to_end(&setup_s, Reading::combine(&by_program, mean), capacity);
        run.ungated = metrics::ungated(&open.lat_ms, &by_program)?;
        run.jobs = by_program
            .iter()
            .zip(mix)
            .map(|(quiet, p)| JobRow {
                label: p.label(),
                quiet_ms: quiet.value,
                gc_share: 0.0,
                counts: None,
            })
            .collect();
        run.tally.absorb(open.tally);
        run.tally.absorb(sat.tally);
        drop(stream);
        server.shutdown();
        return Ok(run);
    }

    let mut untraced = serve::OpenLoop::default();
    let mut traced = serve::OpenLoop::default();
    let mut tr = Tracer::new(Instant::now());
    let (mut worker_requests, mut worker_gc_ns) = (0, 0);
    let phases = [("open0", "traced0"), ("open1", "traced1")];
    for (round, (plain, spans)) in (0u64..).zip(&phases[..TRACE_ROUNDS]) {
        let schedule = arrivals(round << 32, opts.trace_window());
        untraced.absorb(serve::open_loop(&stream, sources(plain), &schedule, None)?);

        let (requests_before, gc_ns_before) = server.worker_stats()[0];
        let schedule = arrivals(0x7ACE ^ (round << 32), opts.trace_window());
        let job_base = traced.tally.attempted;
        traced.absorb(serve::open_loop(
            &stream,
            sources(spans),
            &schedule,
            Some((&mut tr, job_base)),
        )?);
        let (requests_after, gc_ns_after) = server.worker_stats()[0];
        worker_requests += requests_after - requests_before;
        worker_gc_ns += gc_ns_after - gc_ns_before;
    }
    let (shed, rate_limited, deadline_exceeded, _, _) = server.overload_stats();
    drop(stream);
    check_open_loop(&untraced, guards)?;
    check_open_loop(&traced, guards)?;
    let by_program = metrics::quiet_each(&traced.lat_by_program(mix.len()));
    let overhead = check_trace_overhead(
        Reading::combine(&by_program, mean),
        Reading::combine(
            &metrics::quiet_each(&untraced.lat_by_program(mix.len())),
            mean,
        ),
        guards,
    );

    let reference = replay(
        &mut tr,
        REPLAY_JOB_BASE,
        &mix_sources(mix),
        5,
        15,
        &mut run.tally,
    )?;
    let probes = common_probes(&server, mix, opts.seed, &mut run.tally)?;
    server.shutdown();

    let jobs: Vec<&JobSamples> = reference.iter().collect();
    run.jobs = job_rows(mix.iter().map(MixProgram::label).collect(), &jobs);
    run.metrics = metrics::per_layer(&Layers {
        standalone_mix_ms: layers::stage_mean(&jobs, "facade").value,
        jobs,
        probes,
        load: UnderLoad {
            achieved_rps: traced.achieved_rps(),
            parts: by_program,
            unit_ms: traced.lat_ms,
            queue_depth: traced.queue_depth,
            late_ms: traced.late_ms,
            worker_gc_ms: worker_gc_ns as f64 / 1e6 / worker_requests.max(1) as f64,
            shed,
            rate_limited,
            deadline_exceeded,
        },
        trace_overhead_share: overhead,
        peak_rss_mb: metrics::peak_rss_mb()?,
    });
    run.tally.absorb(untraced.tally);
    run.tally.absorb(traced.tally);
    write_trace(&opts.out_dir, opts.workload.name, &tr)?;
    Ok(run)
}

fn run(args: &[String]) -> Result<(), Failure> {
    let dir = inputs::benchmark_dir();
    let opts = parse_options(args, &dir)?;
    let mut guards = Guards::default();
    let mut run = match opts.workload.kind {
        Kind::Batch { .. } => run_batch(&opts, &dir, &mut guards)?,
        Kind::Serve { rate, unique } => run_serve(&opts, &dir, rate, unique, &mut guards)?,
    };
    run.guards = guards.tripped;
    let path = report::write_result(&opts.out_dir, report::environment(&dir), &run, opts.append)?;
    run.print();
    println!("wrote {}", path.display());
    println!("{}", run.driver_line());
    Ok(())
}

fn benchmark_json(dir: &Path) -> Result<Json, String> {
    let path = dir.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare A B`: whether a metric regressed (exit status 1).
fn compare(args: &[String]) -> Result<bool, Failure> {
    let [a, b] = args else {
        return Err(Failure::Usage(
            "compare takes two result directories".to_string(),
        ));
    };
    let declared = report::declared_end_to_end(&benchmark_json(&inputs::benchmark_dir())?)?;
    let names = WORKLOADS.map(|w| w.name);
    Ok(report::compare_dirs(
        Path::new(a),
        Path::new(b),
        &names,
        &declared,
    )?)
}

/// `expected`: regenerates `expected/` from the reference evaluator
/// (`kit::oracle::run_oracle`), never from the VM under test.
fn write_expected() -> Result<(), Failure> {
    let dir = inputs::benchmark_dir();
    let wanted: BTreeSet<(&str, i64)> = WORKLOADS
        .iter()
        .flat_map(|w| w.programs)
        .flat_map(|p| p.scales.iter().map(|&scale| (p.name, scale)))
        .collect();
    std::fs::create_dir_all(dir.join("expected")).map_err(|e| e.to_string())?;
    for (name, scale) in wanted {
        let src = inputs::source_scaled(&inputs::read_program(&dir, name)?, scale)?;
        // The evaluator recurses on the Rust stack.
        let out = std::thread::Builder::new()
            .stack_size(1 << 30)
            .spawn(move || kit::oracle::run_oracle(&src, None))
            .map_err(|e| e.to_string())?
            .join()
            .map_err(|_| format!("{name}@{scale}: the reference evaluator panicked"))?
            .map_err(|e| format!("{name}@{scale}: {e}"))?;
        let expected = Expected {
            result: out.result,
            output: out.output,
        };
        let path = Expected::path(&dir, name, scale);
        std::fs::write(&path, expected.to_file_text())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} = {}", path.display(), expected.result);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("expected") => write_expected().map(|()| false),
        _ => run(&args).map(|()| false),
    };
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(Failure::Usage(m)) => {
            eprintln!("usage error: {m}");
            ExitCode::from(2)
        }
        Err(Failure::Guard(m)) => {
            eprintln!("validity guard: {m}");
            ExitCode::from(3)
        }
        Err(Failure::Error(m)) => {
            eprintln!("error: {m}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading() -> Reading {
        Reading::exact(1.0, 1)
    }

    fn sample_layers(jobs: &[JobSamples]) -> Layers<'_> {
        Layers {
            jobs: jobs.iter().collect(),
            standalone_mix_ms: 0.4,
            probes: CommonProbes {
                fixed_compile_ms: reading(),
                prelude_ms: reading(),
                runtime: layers::RuntimeProbes {
                    rt_new_us: reading(),
                    region_pushpop_ns: reading(),
                    alloc_ns_per_word: reading(),
                    collect_ns_per_word: reading(),
                },
                idle: serve::IdleProbes {
                    connect_ms: reading(),
                    rpc_ms_p50: reading(),
                    hit_ms_p50: reading(),
                    miss_ms_p50: reading(),
                    wire_encode_req_ns: reading(),
                    wire_decode_req_ns: reading(),
                    wire_encode_resp_ns: reading(),
                    wire_decode_resp_ns: reading(),
                },
            },
            load: UnderLoad {
                unit_ms: vec![1.0, 2.0, 3.0],
                ..UnderLoad::default()
            },
            trace_overhead_share: 0.0,
            peak_rss_mb: 10.0,
        }
    }

    fn declared(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &[report::Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_emits() {
        let contract = benchmark_json(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        let workloads: Vec<&str> = contract
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name));

        let e2e = metrics::end_to_end(&[0.1], reading(), reading());
        assert_eq!(declared(contract.get("end_to_end").unwrap()), emitted(&e2e));
        let jobs = [JobSamples::default()];
        let layers = metrics::per_layer(&sample_layers(&jobs));
        assert_eq!(
            declared(contract.get("per_layer").unwrap()),
            emitted(&layers)
        );
    }

    #[test]
    fn declared_bounds_fit_the_contract() {
        let contract = benchmark_json(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
        let declared = report::declared_end_to_end(&contract).unwrap();
        assert!(declared.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = declared.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(declared.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn per_layer_ratios_survive_jobs_without_samples() {
        let jobs = [JobSamples::default()];
        let metrics = metrics::per_layer(&sample_layers(&jobs));
        assert!(metrics.iter().all(|m| m.reading.value.is_finite()));
    }

    #[test]
    fn options_reject_what_the_driver_never_sends() {
        let dir = Path::new(".");
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_options(
            &args(&[
                "--workload",
                "serve_hot",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]),
            dir,
        );
        assert!(matches!(ok, Ok(o) if o.seed == 7 && o.seconds == 3 && o.traced));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "serve_hot", "--seconds", "0"],
            &["--workload", "serve_hot", "--trace", "2"],
            &["--workload", "serve_hot", "--frobnicate"],
        ] {
            assert!(matches!(
                parse_options(&args(bad), dir),
                Err(Failure::Usage(_))
            ));
        }
    }
}
