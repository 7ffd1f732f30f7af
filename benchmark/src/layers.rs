//! Per-layer measurement from outside: the compile pipeline and one program
//! run replayed stage by stage through the same public calls `kit::Compiler`
//! makes, with a span around each, and direct probes of the runtime.

use crate::stats::{mean, Reading, Summary};
use crate::trace::{SpanId, Tracer};
use kit::{Compiler, DispatchMode, Fusion, Mode, PreparedProgram, RtConfig, RtStats};
use kit_kam::{Executable, Vm};
use kit_lambda::opt::OptOptions;
use kit_region::RegionOptions;
use kit_runtime::Rt;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What `Compiler::new(mode)` configures. The mapping is private to `kit`,
/// so it is restated here; every replay asserts the façade's result and
/// instruction total, which is what catches the two drifting apart.
fn mode_options(mode: Mode) -> (RegionOptions, RtConfig) {
    match mode {
        Mode::R => (RegionOptions::regions_only(), RtConfig::r()),
        Mode::Rt => (RegionOptions::regions_only(), RtConfig::rt()),
        Mode::Gt => (RegionOptions::disabled(), RtConfig::gt()),
        Mode::Rgt => (RegionOptions::with_gc(), RtConfig::rgt()),
        Mode::Baseline => panic!("the baseline comparator is not measured"),
    }
}

/// The compile pipeline, one span per stage under a `compile` span.
/// Region inference runs twice: whole (`region.infer`, whose result is the
/// one compiled further, as in `Compiler::compile_lambda`) and again phase
/// by phase for the three sub-stage spans.
pub fn compile_staged(
    tr: &mut Tracer,
    job: u64,
    src: &str,
    mode: Mode,
) -> Result<(PreparedProgram, usize), String> {
    let (region_opts, rt_config) = mode_options(mode);
    let root = tr.open("compile", job, None);
    let p = Some(root);
    let ast = tr
        .scope("syntax.parse", job, p, || kit_syntax::parse_program(src))
        .map_err(|e| format!("parse: {}", e.message()))?;
    let mut lprog = tr
        .scope("typing.elab", job, p, || kit_typing::compile_program(&ast))
        .map_err(|e| format!("elaborate: {e}"))?;
    tr.scope("lambda.opt", job, p, || {
        kit_lambda::opt::optimize(&mut lprog, &OptOptions::default())
    });
    let rprog = tr.scope("region.infer", job, p, || {
        kit_region::infer(&lprog, region_opts)
    });
    let phases = tr.open("region.phases", job, p);
    let mut ann = tr.scope("region.annotate", job, Some(phases), || {
        kit_region::annotate::annotate(&lprog, region_opts.gc_safe)
    });
    tr.scope("region.place", job, Some(phases), || {
        kit_region::letregion::place(&mut ann)
    });
    let mut staged = ann.prog;
    tr.scope("region.mult", job, Some(phases), || {
        kit_region::multiplicity::infer_multiplicities(&mut staged)
    });
    black_box(staged);
    tr.close(phases);
    let mut program = tr.scope("kam.codegen", job, p, || {
        kit_kam::compile(&rprog, rt_config.tagged)
    });
    program.result_ty = lprog.result_ty.clone();
    let code_len = program.code.len();
    let executable = tr.scope("kam.prepare", job, p, || {
        Executable::prepare(&program, DispatchMode::default(), Fusion::default())
    });
    tr.close(root);
    Ok((
        PreparedProgram {
            program,
            executable,
        },
        code_len,
    ))
}

/// Counts a run reports that must repeat bit for bit, run after run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub instructions: u64,
    pub words_allocated: u64,
    pub allocations: u64,
    pub regions_created: u64,
    pub gc_count: u64,
    pub gc_copied_words: u64,
    pub peak_bytes: u64,
    pub heap_grows: u64,
}

impl Counts {
    pub fn of(instructions: u64, stats: &RtStats) -> Counts {
        Counts {
            instructions,
            words_allocated: stats.words_allocated,
            allocations: stats.allocations,
            regions_created: stats.regions_created,
            gc_count: stats.gc_count,
            gc_copied_words: stats.gc_copied_words,
            peak_bytes: stats.peak_bytes as u64,
            heap_grows: stats.heap_grows,
        }
    }
}

/// One program run, as the harness sees it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub result: String,
    pub output: String,
    pub counts: Counts,
    pub gc_ns: u64,
    pub gc_pause_max_ns: u64,
}

/// `Compiler::run_prepared` step by step — `Rt::new` + `Vm::new`,
/// `Vm::run_prepared`, `render_value` — one span each under a `job` span
/// that ends when the run's heap has been dropped, as the façade call does.
pub fn run_staged(
    tr: &mut Tracer,
    job: u64,
    parent: Option<SpanId>,
    prep: &PreparedProgram,
    mode: Mode,
) -> Result<RunResult, String> {
    let (_, rt_config) = mode_options(mode);
    let root = tr.open("job", job, parent);
    let p = Some(root);
    let vm = tr.scope("kam.setup", job, p, || {
        Vm::new(&prep.program, Rt::new(rt_config))
            .with_fusion(Fusion::default())
            .with_dispatch(DispatchMode::default())
    });
    let out = tr
        .scope("kam.run", job, p, || vm.run_prepared(&prep.executable))
        .map_err(|e| format!("run: {e}"))?;
    let result = tr.scope("kam.render", job, p, || {
        kit_kam::render::render_value(
            &out.rt,
            out.result,
            &prep.program.result_ty,
            &prep.program.data,
        )
    });
    let run = RunResult {
        result,
        counts: Counts::of(out.instructions, &out.stats),
        gc_ns: out.stats.gc_time_ns,
        gc_pause_max_ns: out.stats.gc_pause_max_ns,
        output: out.output,
    };
    tr.close(root);
    Ok(run)
}

/// The untraced counterpart: the façade call itself, timed as a whole.
pub fn run_facade(compiler: &Compiler, prep: &PreparedProgram) -> Result<(RunResult, f64), String> {
    let t0 = Instant::now();
    let out = compiler
        .run_prepared(prep)
        .map_err(|e| format!("run: {e}"))?;
    let run = RunResult {
        counts: Counts::of(out.instructions, &out.stats),
        gc_ns: out.stats.gc_time_ns,
        gc_pause_max_ns: out.stats.gc_pause_max_ns,
        result: out.result,
        output: out.output,
    };
    Ok((run, t0.elapsed().as_secs_f64() * 1e3))
}

/// Samples of one job (a program at one scale in one mode), by stage name.
/// Times are self times in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct JobSamples {
    pub stages: BTreeMap<&'static str, Vec<f64>>,
    pub counts: Option<Counts>,
    pub src_bytes: usize,
    pub code_len: usize,
}

impl JobSamples {
    pub fn push(&mut self, stage: &'static str, value: f64) {
        self.stages.entry(stage).or_default().push(value);
    }

    /// Records `counts`, or reports how they differ from an earlier run of
    /// the same job.
    pub fn check_counts(&mut self, counts: Counts) -> Result<(), String> {
        match self.counts {
            Some(seen) if seen != counts => Err(format!("{seen:?} became {counts:?}")),
            _ => {
                self.counts = Some(counts);
                Ok(())
            }
        }
    }

    pub fn summary(&self, stage: &str) -> Option<Summary> {
        self.stages.get(stage).map(|v| Summary::of(v))
    }
}

/// Self times (nanoseconds) of the spans of the jobs `wanted` accepts, by
/// job and by span name.
pub fn stage_samples_by_job(
    tr: &Tracer,
    wanted: impl Fn(u64) -> bool,
) -> BTreeMap<u64, BTreeMap<&'static str, Vec<f64>>> {
    let mut by_job: BTreeMap<u64, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    let self_ns = crate::trace::self_times_ns(&tr.spans);
    for (span, ns) in tr.spans.iter().zip(self_ns) {
        if wanted(span.job) {
            by_job
                .entry(span.job)
                .or_default()
                .entry(span.name)
                .or_default()
                .push(ns as f64);
        }
    }
    by_job
}

/// Mean over `jobs` of each job's quiet time (and quartiles) for `stage`:
/// every job weighs the same, as one program does in the paper's tables.
pub fn stage_mean(jobs: &[&JobSamples], stage: &str) -> Reading {
    let each: Vec<Reading> = jobs
        .iter()
        .filter_map(|j| j.stages.get(stage))
        .map(|v| Reading::quiet(v))
        .collect();
    Reading::combine(&each, mean)
}

/// Sum over `jobs` of an exact count.
pub fn count_total(jobs: &[&JobSamples], f: impl Fn(&Counts) -> u64) -> Reading {
    let total: u64 = jobs.iter().filter_map(|j| j.counts.as_ref()).map(&f).sum();
    Reading::exact(total as f64, jobs.len())
}

/// Nanoseconds per call of `f`: `samples` readings, each over `per_sample`
/// calls.
pub fn ns_per_call(samples: usize, per_sample: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            t0.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect()
}

/// `runtime.*` direct probes: the region runtime driven through `Rt`
/// itself, no compiled program involved.
pub struct RuntimeProbes {
    pub rt_new_us: Reading,
    pub region_pushpop_ns: Reading,
    pub alloc_ns_per_word: Reading,
    pub collect_ns_per_word: Reading,
}

pub fn probe_runtime() -> RuntimeProbes {
    let rt_new = ns_per_call(41, 20, || {
        black_box(Rt::new(black_box(RtConfig::rgt())));
    });

    let mut rt = Rt::new(RtConfig::rgt());
    let _global = rt.letregion(0);
    let pushpop = ns_per_call(41, 20_000, || {
        black_box(rt.letregion(1));
        rt.endregion();
    });

    // Allocation into an open region, with the collector off so that every
    // sample is allocation alone; the region is popped between samples.
    let mut rt = Rt::new(RtConfig::rt());
    let _global = rt.letregion(0);
    let one = rt.tag_int(1);
    let alloc = (0..41)
        .map(|_| {
            let r = rt.letregion(1);
            let before = rt.stats.words_allocated;
            let t0 = Instant::now();
            for _ in 0..20_000 {
                black_box(rt.alloc_record(r, &[one, one]));
            }
            let ns = t0.elapsed().as_nanos() as f64;
            let words = (rt.stats.words_allocated - before) as f64;
            rt.endregion();
            ns / words
        })
        .collect::<Vec<_>>();

    // One full collection of a 20 000-cell list reachable from one stack
    // slot: all of it is live, so all of it is copied.
    let collect = (0..21)
        .map(|_| {
            let mut rt = Rt::new(RtConfig::rgt());
            let r = rt.letregion(0);
            let mut list = rt.tag_int(0);
            for i in 0..20_000 {
                let head = rt.tag_int(i);
                list = rt.alloc_record(r, &[head, list]);
            }
            rt.stack.push(list);
            kit_runtime::gc::collect(&mut rt, &[0], &mut []);
            rt.stats.gc_time_ns as f64 / rt.stats.gc_copied_words.max(1) as f64
        })
        .collect::<Vec<_>>();

    RuntimeProbes {
        rt_new_us: Reading::quiet(&rt_new).scaled(1e-3),
        region_pushpop_ns: Reading::quiet(&pushpop),
        alloc_ns_per_word: Reading::quiet(&alloc),
        collect_ns_per_word: Reading::quiet(&collect),
    }
}

/// `kit.fixed_compile_ms` and `typing.prelude_ms`: what every compile pays
/// before it looks at the program — the prelude is elaborated, optimised,
/// region-inferred and compiled each time.
pub fn probe_fixed_compile() -> Result<(Reading, Reading), String> {
    let compiler = Compiler::new(Mode::Rgt);
    let mut fixed = Vec::new();
    let mut prelude = Vec::new();
    for _ in 0..21 {
        let t0 = Instant::now();
        let prog = compiler
            .compile_source("val it = 0")
            .map_err(|e| format!("fixed compile: {e}"))?;
        black_box(compiler.prepare_program(prog));
        fixed.push(t0.elapsed().as_secs_f64() * 1e3);

        let empty = kit_syntax::parse_program("").map_err(|e| e.message().to_string())?;
        let t0 = Instant::now();
        black_box(kit_typing::compile_program(&empty).map_err(|e| format!("prelude: {e}"))?);
        prelude.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((Reading::quiet(&fixed), Reading::quiet(&prelude)))
}

/// `kit.compile_ms` for one source: `compile_source` + `prepare_program`,
/// the price of a compile-cache miss.
pub fn facade_compile_ms(compiler: &Compiler, src: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let prog = compiler
        .compile_source(src)
        .map_err(|e| format!("compile: {e}"))?;
    black_box(compiler.prepare_program(prog));
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fun build 0 = nil | build n = n :: build (n - 1)\n\
                       val it = length (build 300)\n";

    #[test]
    fn staged_replay_matches_the_facade_in_every_measured_mode() {
        for mode in [Mode::R, Mode::Gt, Mode::Rgt] {
            let compiler = Compiler::new(mode);
            let facade_prep = compiler.prepare_source(SRC).unwrap();
            let (facade, ms) = run_facade(&compiler, &facade_prep).unwrap();
            assert!(ms > 0.0);

            let mut tr = Tracer::new(Instant::now());
            let (prep, code_len) = compile_staged(&mut tr, 1, SRC, mode).unwrap();
            assert_eq!(code_len, facade_prep.program.code.len(), "{mode}");
            let staged = run_staged(&mut tr, 1, None, &prep, mode).unwrap();
            assert_eq!(staged.result, "300", "{mode}");
            assert_eq!(staged.result, facade.result, "{mode}");
            assert_eq!(staged.counts, facade.counts, "{mode}");

            let names: Vec<&str> = tr.spans.iter().map(|s| s.name).collect();
            for stage in [
                "syntax.parse",
                "typing.elab",
                "lambda.opt",
                "region.infer",
                "region.annotate",
                "region.place",
                "region.mult",
                "kam.codegen",
                "kam.prepare",
                "kam.setup",
                "kam.run",
                "kam.render",
            ] {
                assert!(names.contains(&stage), "{mode}: no {stage} span");
            }
        }
    }

    #[test]
    fn differing_counts_are_reported() {
        let c = Counts {
            instructions: 1,
            words_allocated: 2,
            allocations: 3,
            regions_created: 4,
            gc_count: 5,
            gc_copied_words: 6,
            peak_bytes: 7,
            heap_grows: 8,
        };
        let mut j = JobSamples::default();
        assert!(j.check_counts(c).is_ok());
        assert!(j.check_counts(c).is_ok());
        let moved = Counts { gc_count: 6, ..c };
        assert!(j.check_counts(moved).is_err());
    }

    #[test]
    fn stage_mean_weighs_jobs_equally() {
        let mut a = JobSamples::default();
        let mut b = JobSamples::default();
        for v in [1.0, 1.0, 1.0] {
            a.push("s", v);
        }
        b.push("s", 5.0);
        let r = stage_mean(&[&a, &b], "s");
        assert_eq!((r.value, r.n), (3.0, 4));
        assert_eq!(stage_mean(&[&a], "missing").n, 0);
    }

    #[test]
    fn runtime_probes_read_positive() {
        let p = probe_runtime();
        for r in [
            p.rt_new_us,
            p.region_pushpop_ns,
            p.alloc_ns_per_word,
            p.collect_ns_per_word,
        ] {
            assert!(r.value > 0.0 && r.value <= r.q1 && r.q1 <= r.q3);
        }
    }
}
