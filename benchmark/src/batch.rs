//! The batch workloads: one thread, closed loop, passes over every
//! (program, mode) cell of the workload through `Compiler::run_prepared`.

use crate::inputs::{self, BatchJob, BatchSchedule, Expected, Kind, Workload};
use crate::layers::{self, JobSamples};
use crate::report::Tally;
use crate::stats::{mean, Reading};
use crate::trace::Tracer;
use kit::{Compiler, Mode, PreparedProgram};
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Level {
    pub scale: i64,
    pub src: String,
    pub prepared: PreparedProgram,
    pub expected: Expected,
}

pub struct Cell {
    pub program: &'static str,
    pub mode: Mode,
    pub compiler: Compiler,
    pub levels: Vec<Level>,
}

impl Cell {
    /// The middle scale: the one the per-layer reference pass runs at.
    pub fn base_level(&self) -> usize {
        self.levels.len() / 2
    }

    pub fn label(&self, level: usize) -> String {
        format!(
            "{}.{}@{}",
            self.program, self.mode, self.levels[level].scale
        )
    }
}

/// Set-up: read the frozen programs and their expected results, and
/// `prepare_source` every cell at every scale.
pub fn set_up(dir: &Path, workload: &Workload) -> Result<Vec<Cell>, String> {
    let Kind::Batch { modes } = workload.kind else {
        return Err(format!("{} is not a batch workload", workload.name));
    };
    let mut cells = Vec::new();
    for spec in workload.programs {
        let text = inputs::read_program(dir, spec.name)?;
        for mode in modes {
            let compiler = Compiler::new(mode);
            let levels = spec
                .scales
                .iter()
                .map(|&scale| {
                    let src = inputs::source_scaled(&text, scale)
                        .map_err(|e| format!("{}: {e}", spec.name))?;
                    let prepared = compiler
                        .prepare_source(&src)
                        .map_err(|e| format!("{}.{mode}@{scale}: {e}", spec.name))?;
                    Ok(Level {
                        scale,
                        expected: Expected::load(dir, spec.name, scale)?,
                        src,
                        prepared,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            cells.push(Cell {
                program: spec.name,
                mode,
                compiler,
                levels,
            });
        }
    }
    Ok(cells)
}

/// What a window of passes measured.
pub struct BatchRun {
    /// Sum of the pass's job times, milliseconds, in pass order.
    pub pass_ms: Vec<f64>,
    /// `jobs[cell][level]`: façade milliseconds under `"facade"` in an
    /// untraced window, stage self times in a traced one.
    pub jobs: Vec<Vec<JobSamples>>,
    pub tally: Tally,
    pub wall: Duration,
}

impl BatchRun {
    pub fn new(cells: &[Cell]) -> BatchRun {
        BatchRun {
            pass_ms: Vec::new(),
            jobs: cells
                .iter()
                .map(|c| vec![JobSamples::default(); c.levels.len()])
                .collect(),
            tally: Tally::default(),
            wall: Duration::ZERO,
        }
    }

    /// Per cell, its quiet `stage` time: the mean over the cell's scale
    /// levels (each comes up equally often) of the level's quiet time. Every
    /// (cell, level) is one deterministic job run many times, so its fastest
    /// tenth is what the job takes when the host leaves it alone.
    pub fn quiet_cells_ms(&self, stage: &str) -> Vec<Reading> {
        self.jobs
            .iter()
            .map(|levels| {
                let each: Vec<Reading> = levels
                    .iter()
                    .filter_map(|j| j.stages.get(stage))
                    .map(|v| Reading::quiet(v))
                    .collect();
                Reading::combine(&each, mean)
            })
            .collect()
    }
}

pub fn schedule(seed: u64, cells: &[Cell]) -> BatchSchedule {
    BatchSchedule::new(seed, cells.iter().map(|c| c.levels.len()).collect())
}

fn job_id(job: BatchJob) -> u64 {
    ((job.cell as u64) << 8) | job.level as u64
}

/// Adds to `run` passes until `window` has elapsed (at least `min_passes`).
/// With a tracer every job is replayed stage by stage under spans (gather
/// them with [`collect_spans`] once the last window is done); without one it
/// is a single `Compiler::run_prepared` call.
///
/// Returns an error — a validity guard, not a failed job — when an exact
/// count of a job differs between two of its runs.
pub fn run_window(
    cells: &[Cell],
    schedule: &mut BatchSchedule,
    window: Duration,
    min_passes: usize,
    mut tracer: Option<&mut Tracer>,
    run: &mut BatchRun,
) -> Result<(), String> {
    let traced = tracer.is_some();
    let start = Instant::now();
    let until = run.pass_ms.len() + min_passes;
    while start.elapsed() < window || run.pass_ms.len() < until {
        let mut pass_ms = 0.0;
        for job in schedule.next_pass() {
            let cell = &cells[job.cell];
            let level = &cell.levels[job.level];
            run.tally.attempted += 1;
            let outcome = match tracer.as_deref_mut() {
                None => layers::run_facade(&cell.compiler, &level.prepared),
                Some(tr) => {
                    let t0 = Instant::now();
                    layers::run_staged(tr, job_id(job), None, &level.prepared, cell.mode)
                        .map(|r| (r, t0.elapsed().as_secs_f64() * 1e3))
                }
            };
            let (result, ms) = match outcome {
                Ok(ok) => ok,
                Err(e) => {
                    run.tally.fail(format!("{}: {e}", cell.label(job.level)));
                    continue;
                }
            };
            pass_ms += ms;
            let samples = &mut run.jobs[job.cell][job.level];
            samples.push(if traced { "staged" } else { "facade" }, ms);
            samples.push("gc", result.gc_ns as f64);
            samples.push("gc_pause_max", result.gc_pause_max_ns as f64);
            samples
                .check_counts(result.counts)
                .map_err(|e| format!("{}: exact counts differ: {e}", cell.label(job.level)))?;
            if !level.expected.matches(&result.result, &result.output) {
                run.tally.fail(format!(
                    "{}: result {:?}, expected {:?}",
                    cell.label(job.level),
                    result.result,
                    level.expected.result
                ));
            }
        }
        run.pass_ms.push(pass_ms);
    }
    run.wall += start.elapsed();
    Ok(())
}

/// Moves the stage self times of the batch jobs `tr` saw into `run`.
pub fn collect_spans(tr: &Tracer, run: &mut BatchRun) {
    let cells = run.jobs.len();
    for (id, stages) in layers::stage_samples_by_job(tr, |id| ((id >> 8) as usize) < cells) {
        run.jobs[(id >> 8) as usize][(id & 0xff) as usize]
            .stages
            .extend(stages);
    }
}
