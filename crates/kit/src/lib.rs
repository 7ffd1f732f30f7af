//! Public façade of the ML Kit RGC reproduction: one call compiles and
//! runs a MiniML program under any of the paper's execution modes.
//!
//! The pipeline (paper §3): parsing → elaboration (`kit-typing`) →
//! `LambdaExp` optimization (`kit-lambda`) → region inference +
//! representation inference (`kit-region`) → bytecode generation
//! (`kit-kam`) → execution against the region runtime with the
//! Cheney-for-regions collector (`kit-runtime`).
//!
//! # Examples
//!
//! ```
//! use kit::{Compiler, Mode};
//!
//! let out = Compiler::new(Mode::Rgt).run_source("val it = 1 + 2")?;
//! assert_eq!(out.result_int(), Some(3));
//! assert_eq!(out.stats.gc_count, 0);
//! # Ok::<(), kit::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod oracle;

use kit_kam::render::render_value;
use kit_kam::{Executable, Vm};
use kit_lambda::opt::OptOptions;
use kit_lambda::{LExp, LProgram};
use kit_region::RegionOptions;
use kit_runtime::config::Collector;
use kit_runtime::Rt;
use kit_syntax::Span;
use kit_typing::TypeError;
use std::fmt;

pub use kit_kam::threaded::Op as KamOp;
pub use kit_kam::Program;
pub use kit_kam::{DispatchMode, Fusion, FusionProfile, VmError};
pub use kit_lambda::ty::LTy;
pub use kit_runtime::stats::GcRecord;
pub use kit_runtime::{RtConfig, RtStats};

/// Execution modes (paper §1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Regions alone, untagged values, (safe) dangling pointers allowed.
    R,
    /// Regions alone, tagged values — isolates the cost of tagging.
    Rt,
    /// Garbage collection within a degenerate region stack (region
    /// inference disabled; one global region).
    Gt,
    /// Regions combined with garbage collection.
    Rgt,
    /// The SML/NJ substitute: everything heap-allocated in one region,
    /// two-generation copying collection (see [`kit_baseline`]).
    Baseline,
}

impl Mode {
    /// The paper's four modes, in order.
    pub const ALL: [Mode; 4] = [Mode::R, Mode::Rt, Mode::Gt, Mode::Rgt];

    /// The four modes plus the generational baseline.
    pub const ALL_WITH_BASELINE: [Mode; 5] =
        [Mode::R, Mode::Rt, Mode::Gt, Mode::Rgt, Mode::Baseline];

    /// The subscript used in the paper's tables (`r`, `rt`, `gt`, `rgt`).
    pub fn suffix(self) -> &'static str {
        match self {
            Mode::R => "r",
            Mode::Rt => "rt",
            Mode::Gt => "gt",
            Mode::Rgt => "rgt",
            Mode::Baseline => "smlnj",
        }
    }

    fn region_options(self) -> RegionOptions {
        match self {
            Mode::R | Mode::Rt => RegionOptions::regions_only(),
            Mode::Gt => RegionOptions::disabled(),
            Mode::Rgt => RegionOptions::with_gc(),
            Mode::Baseline => RegionOptions::baseline(),
        }
    }

    fn rt_config(self) -> RtConfig {
        match self {
            Mode::R => RtConfig::r(),
            Mode::Rt => RtConfig::rt(),
            Mode::Gt => RtConfig::gt(),
            Mode::Rgt => RtConfig::rgt(),
            Mode::Baseline => kit_baseline::baseline_config(),
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Compilation or execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Front-end (syntax or type) error.
    Compile(TypeError),
    /// Runtime failure (uncaught exception, fuel).
    Run(VmError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Run(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<TypeError> for Error {
    fn from(e: TypeError) -> Self {
        Error::Compile(e)
    }
}

impl From<VmError> for Error {
    fn from(e: VmError) -> Self {
        Error::Run(e)
    }
}

/// Result of running a program.
#[derive(Debug)]
pub struct Outcome {
    /// Canonically rendered result value.
    pub result: String,
    /// Everything printed by the program.
    pub output: String,
    /// Instructions executed by the abstract machine.
    pub instructions: u64,
    /// Runtime statistics: allocation volume, collections, peak memory,
    /// per-collection accounting (paper §4.3).
    pub stats: RtStats,
    /// Region-profile samples if profiling was enabled (paper Fig. 5).
    pub profile: Vec<kit_runtime::profile::Sample>,
    /// Dynamic opcode pair/triple counts if the fusion counting mode was
    /// enabled ([`Compiler::with_fusion_profile`]).
    pub fusion_profile: Option<Box<FusionProfile>>,
}

impl Outcome {
    /// The result as an integer, if it renders as one.
    pub fn result_int(&self) -> Option<i64> {
        self.result.strip_prefix('~').map_or_else(
            || self.result.parse().ok(),
            |rest| rest.parse::<i64>().ok().map(|n| -n),
        )
    }
}

/// A program compiled *and* translated for one fusion level:
/// the expensive, shareable half of execution. Prepare once with
/// [`Compiler::prepare_source`], then run any number of times with
/// [`Compiler::run_prepared`] — concurrently if desired, since the
/// payload is plain immutable data (`Send + Sync`; share via `Arc`) and
/// every run gets its own `Vm`/`Rt`.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The compiled bytecode (entry points, render tables).
    pub program: Program,
    /// The bytecode translated (and fused, as the compiler asks) for the
    /// engine.
    pub executable: Executable,
}

/// Deepest `LambdaExp` nesting [`Compiler`] compiles: every top-level
/// declaration after the first, `let` binding, pattern variable, list
/// element and operand is a level. Each pass behind elaboration recurses
/// once per level; measured per level, release / debug build: the
/// optimiser needs 1.2 / 2.5 KB of stack, region inference 0.7 / 9 KB,
/// code generation 0.6 / 6.2 KB — so the optimiser recurses deepest in
/// release, region inference in debug, and this limit needs 1.8 / 13.5 MB.
/// (The parser bounds what it and the elaborator recurse on:
/// `kit_syntax::parser::MAX_NESTING`.)
pub const MAX_NESTING: usize = 1500;

/// Nesting depth of `e`, counted without recursing.
fn nesting(e: &LExp) -> usize {
    let mut deepest = 0;
    let mut work = vec![(e, 1)];
    while let Some((e, depth)) = work.pop() {
        deepest = deepest.max(depth);
        e.for_each_child(|child| work.push((child, depth + 1)));
    }
    deepest
}

/// A configured compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    mode: Mode,
    config: RtConfig,
    fuel: Option<u64>,
    /// Relative wall-clock budget, anchored to `Instant::now()` when a
    /// run starts (so one `Compiler` can serve many runs, each with a
    /// fresh deadline). An absolute deadline set via
    /// [`Compiler::with_deadline_at`] lives in `config.deadline` instead.
    deadline: Option<std::time::Duration>,
    fusion: Fusion,
    fusion_profile: bool,
}

impl Compiler {
    /// Creates a compiler for `mode` with default options.
    pub fn new(mode: Mode) -> Self {
        Compiler {
            mode,
            config: mode.rt_config(),
            fuel: None,
            deadline: None,
            fusion: Fusion::default(),
            fusion_profile: false,
        }
    }

    /// The mode this compiler targets.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Overrides the runtime configuration (heap-to-live ratio, page size,
    /// profiling, ...). Tagging and the collector are forced back to the
    /// mode's, except that the baseline's generational collector takes a
    /// given generational policy; every other field is taken as given, in
    /// every mode.
    pub fn with_config(mut self, mut config: RtConfig) -> Self {
        let m = self.mode.rt_config();
        config.tagged = m.tagged;
        config.collector = match (m.collector, config.collector) {
            (Collector::Generational(_), given @ Collector::Generational(_)) => given,
            (mode, _) => mode,
        };
        self.config = config;
        self
    }

    /// Enables region profiling (paper Fig. 5).
    pub fn with_profiling(mut self) -> Self {
        self.config.profile = true;
        self
    }

    /// Sets an instruction budget (for tests and property checks).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Caps each run's materialized region-heap footprint (the
    /// per-request memory quota of the server). A run that stays over
    /// the cap after a forced collection at a `GcCheck` safe point fails
    /// with [`VmError::QuotaExceeded`]. Unlike [`Compiler::with_config`]
    /// this leaves the mode's other runtime defaults untouched.
    pub fn with_max_heap_pages(mut self, pages: usize) -> Self {
        self.config.max_heap_pages = Some(pages);
        self
    }

    /// Bounds each run's wall-clock time (the per-request deadline of the
    /// server): the budget is anchored to `Instant::now()` when the run
    /// starts, and a run whose clock expires fails with
    /// [`VmError::DeadlineExceeded`] at a `GcCheck` safe point — where the
    /// page quota is enforced too, at either fusion level (fuel is charged per
    /// instruction instead).
    pub fn with_deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Like [`Compiler::with_deadline`] but with an absolute point in
    /// time, so queueing delay upstream of the run (e.g. time spent in
    /// the server's admission queue) counts against the budget.
    pub fn with_deadline_at(mut self, deadline: std::time::Instant) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Turns superinstruction fusion in the engine's translation on
    /// (`Full`, the default) or off (`Off`: base handlers only, the
    /// differential oracle for fusion). All observable behavior —
    /// results, output, instruction totals, GC schedule and statistics —
    /// is identical either way.
    ///
    /// ```
    /// use kit::{Compiler, Fusion, Mode};
    ///
    /// let src = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n\
    ///            val it = fib 12";
    /// let run = |f| Compiler::new(Mode::Rgt).with_fusion(f).run_source(src).unwrap();
    /// let (off, full) = (run(Fusion::Off), run(Fusion::Full));
    /// assert_eq!(off.result, full.result);
    /// assert_eq!(off.instructions, full.instructions);
    /// ```
    pub fn with_fusion(mut self, fusion: Fusion) -> Self {
        self.fusion = fusion;
        self
    }

    /// Enables the VM's fusion counting mode: dynamic opcode pair/triple
    /// frequencies are returned in [`Outcome::fusion_profile`]. Forces
    /// fusion off, so base opcodes stay visible.
    pub fn with_fusion_profile(mut self) -> Self {
        self.fusion_profile = true;
        self
    }

    /// Compiles `src` to bytecode (usable for repeated runs).
    ///
    /// # Errors
    ///
    /// Returns a compile error on invalid programs.
    pub fn compile_source(&self, src: &str) -> Result<kit_kam::Program, Error> {
        let mut lprog = kit_typing::compile_str(src)?;
        self.compile_lambda(&mut lprog)
    }

    /// Compiles an elaborated program.
    ///
    /// # Errors
    ///
    /// Refuses a program nested deeper than [`MAX_NESTING`].
    pub fn compile_lambda(&self, lprog: &mut LProgram) -> Result<kit_kam::Program, Error> {
        let depth = nesting(&lprog.body);
        if depth > MAX_NESTING {
            return Err(Error::Compile(TypeError::new(
                format!("program nests {depth} levels deep; the limit is {MAX_NESTING}"),
                Span::synthetic(),
            )));
        }
        kit_lambda::opt::optimize(lprog, &OptOptions::default());
        let rprog = kit_region::infer(lprog, self.mode.region_options());
        let mut prog = kit_kam::compile(&rprog, self.config.tagged);
        prog.result_ty = lprog.result_ty.clone();
        Ok(prog)
    }

    /// Runs compiled bytecode. Translates on every call; for
    /// repeated runs of the same program, [`Compiler::prepare_source`] +
    /// [`Compiler::run_prepared`] pay that cost once.
    ///
    /// # Errors
    ///
    /// Returns a runtime error on uncaught exceptions, fuel exhaustion
    /// or a breached memory quota.
    pub fn run_program(&self, prog: &kit_kam::Program) -> Result<Outcome, Error> {
        self.run_executable(prog, &self.executable_for(prog))
    }

    /// Translates compiled bytecode at this compiler's fusion level,
    /// producing a [`PreparedProgram`] for repeated
    /// (and concurrent) execution.
    pub fn prepare_program(&self, prog: Program) -> PreparedProgram {
        let executable = self.executable_for(&prog);
        PreparedProgram {
            program: prog,
            executable,
        }
    }

    fn executable_for(&self, prog: &Program) -> Executable {
        // The fusion counting mode runs unfused, so base opcodes stay
        // visible, as `Vm::with_fusion_profile` does.
        let fusion = if self.fusion_profile {
            Fusion::Off
        } else {
            self.fusion
        };
        Executable::prepare(prog, DispatchMode::Threaded, fusion)
    }

    /// Compiles and prepares `src` in one step.
    ///
    /// # Errors
    ///
    /// Returns a compile error on invalid programs.
    pub fn prepare_source(&self, src: &str) -> Result<PreparedProgram, Error> {
        Ok(self.prepare_program(self.compile_source(src)?))
    }

    /// Runs a prepared program on a fresh `Vm`/`Rt`. Observationally
    /// identical to [`Compiler::run_program`] on the same bytecode with
    /// the same configuration — results, output, instruction totals and
    /// GC counters are bit-identical — but skips the per-run translation
    /// work.
    ///
    /// # Errors
    ///
    /// Returns a runtime error on uncaught exceptions, fuel exhaustion
    /// or a breached memory quota.
    pub fn run_prepared(&self, prep: &PreparedProgram) -> Result<Outcome, Error> {
        self.run_executable(&prep.program, &prep.executable)
    }

    /// The one VM set-up: a fresh `Rt` and `Vm` per run.
    fn run_executable(&self, prog: &Program, exe: &Executable) -> Result<Outcome, Error> {
        let rt = Rt::new(self.run_config());
        let mut vm = Vm::new(prog, rt).with_fusion(self.fusion);
        if let Some(f) = self.fuel {
            vm = vm.with_fuel(f);
        }
        if self.fusion_profile {
            vm = vm.with_fusion_profile();
        }
        let out = vm.run_prepared(exe)?;
        let result = render_value(&out.rt, out.result, &prog.result_ty, &prog.data);
        Ok(Outcome {
            result,
            output: out.output,
            instructions: out.instructions,
            stats: out.stats,
            profile: out.rt.profiler.samples().to_vec(),
            fusion_profile: out.fusion_profile,
        })
    }

    /// The per-run runtime configuration: the stored config with the
    /// relative wall-clock budget (if any) anchored to now. When both a
    /// relative budget and an absolute deadline are set, the earlier one
    /// wins.
    fn run_config(&self) -> RtConfig {
        let mut config = self.config.clone();
        if let Some(budget) = self.deadline {
            let at = std::time::Instant::now() + budget;
            config.deadline = Some(config.deadline.map_or(at, |d| d.min(at)));
        }
        config
    }

    /// Compiles and runs `src`.
    ///
    /// # Errors
    ///
    /// Propagates compile and runtime errors.
    pub fn run_source(&self, src: &str) -> Result<Outcome, Error> {
        let prog = self.compile_source(src)?;
        self.run_program(&prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_run_hello() {
        for mode in Mode::ALL {
            let out = Compiler::new(mode)
                .run_source("val it = 20 + 22")
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert_eq!(out.result_int(), Some(42), "{mode}");
        }
    }

    #[test]
    fn prepared_program_is_send_sync_and_matches_per_run_translation() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedProgram>();
        assert_send_sync::<RtConfig>();

        let src = "fun fib n = if n < 2 then n else fib (n-1) + fib (n-2)\n\
                   val it = fib 15";
        for fusion in [Fusion::Off, Fusion::Full] {
            let c = Compiler::new(Mode::Rgt).with_fusion(fusion);
            let prep = c.prepare_source(src).unwrap();
            let a = c.run_prepared(&prep).unwrap();
            let b = c.run_source(src).unwrap();
            assert_eq!(a.result, b.result, "{fusion:?}");
            assert_eq!(a.instructions, b.instructions, "{fusion:?}");
            assert_eq!(a.stats.gc_count, b.stats.gc_count, "{fusion:?}");
            // Repeated runs over one prepared program are identical too.
            let a2 = c.run_prepared(&prep).unwrap();
            assert_eq!(a.result, a2.result, "{fusion:?}");
            assert_eq!(a.instructions, a2.instructions, "{fusion:?}");
        }
    }

    #[test]
    fn with_config_overrides_only_the_fields_the_mode_owns() {
        // Every field named, each differing from every mode's default: a
        // new `RtConfig` field has to be placed here, and a mode-specific
        // carve-out in `with_config` fails the comparison.
        let c = RtConfig {
            page_words_log2: 7,
            tagged: false,
            collector: Collector::Off,
            gc_threshold: 0.5,
            heap_to_live_ratio: 9.0,
            heap_shrink_factor: None,
            initial_pages: 4,
            profile: true,
            poison: true,
            max_heap_pages: Some(100),
            deadline: Some(std::time::Instant::now()),
        };
        for mode in Mode::ALL_WITH_BASELINE {
            let m = mode.rt_config();
            let want = RtConfig {
                tagged: m.tagged,
                collector: m.collector,
                ..c.clone()
            };
            assert_eq!(
                Compiler::new(mode).with_config(c.clone()).config,
                want,
                "{mode}"
            );
        }
        // The one carve-out: the baseline runs a given generational policy.
        let pol = Collector::Generational(kit_runtime::config::GenPolicy {
            nursery_pages: 2,
            major_growth: 5,
        });
        let given = RtConfig {
            collector: pol,
            ..c
        };
        let got = Compiler::new(Mode::Baseline).with_config(given).config;
        assert_eq!(got.collector, pol);
    }

    #[test]
    fn untagged_modes_never_collect() {
        for mode in [Mode::R, Mode::Rt] {
            let out = Compiler::new(mode)
                .run_source(
                    "fun build 0 = nil | build n = n :: build (n-1) val it = length (build 5000)",
                )
                .unwrap();
            assert_eq!(out.stats.gc_count, 0, "{mode}");
        }
    }
}
