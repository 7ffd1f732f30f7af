//! The differential: one harness for every test that holds the engine to
//! itself and to the reference evaluator.
//!
//! A [`Differential`] is one program. For each mode, runtime
//! configuration and fuel budget it is checked under, it compiles once
//! and runs the engine with fusion off (base handlers only) and with
//! every superinstruction, and holds the two to each other — result,
//! output, typed error and every counter ([`counters`]) — and what they
//! compute to the `kit-lambda` reference evaluator
//! ([`kit::oracle::run_oracle`]): the rendered result and output, or the
//! exception that escapes. The evaluator runs once per program, the first
//! time a check needs it. An error only the machine raises (fuel, page
//! quota, deadline) has no evaluator counterpart and is held to the other
//! fusion level alone.
//!
//! What the two fusion levels agree on is returned, so a caller adds its
//! own assertions (recorded counts, "must collect", a literal answer) to
//! a run that has already passed every comparison. Nothing switches a
//! comparison off.

use kit::{Compiler, Error, Fusion, Mode, Outcome, VmError};
use kit_runtime::config::Collector;
use kit_runtime::RtConfig;
use std::cell::OnceCell;

/// What a program computes: its rendered result and printed output, or
/// the exception that escapes it.
pub type Answer = Result<(String, String), VmError>;

/// One program under test, and — computed on first use — what the
/// reference evaluator makes of it.
pub struct Differential<'a> {
    src: &'a str,
    evaluated: OnceCell<Result<Answer, String>>,
}

impl<'a> Differential<'a> {
    /// The program `src`; nothing runs yet.
    pub fn new(src: &'a str) -> Self {
        Differential {
            src,
            evaluated: OnceCell::new(),
        }
    }

    /// What the reference evaluator computes for the program (run on the
    /// first call, with no fuel limit). `Err` is an evaluator failure
    /// other than an escaping exception, with the program's source.
    pub fn evaluated(&self) -> Result<&Answer, String> {
        let evaluate = || match kit::oracle::run_oracle(self.src, None) {
            Ok(o) => Ok(Ok((o.result, o.output))),
            Err(Error::Run(e)) => Ok(Err(e)),
            Err(e) => Err(format!("evaluator: {e} on\n{}", self.src)),
        };
        self.evaluated
            .get_or_init(evaluate)
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Compiles the program once for `mode` (under `cfg`, or the mode's
    /// own configuration), runs it with `fuel` at both fusion levels, and
    /// holds the two runs to each other and the production one to the
    /// evaluator. `Ok` is what they agree on: the [`Outcome`], or the
    /// typed run error both raised. `Err` names the failed comparison,
    /// both sides, the configuration and the full source, enough to
    /// reproduce it by hand.
    pub fn check(
        &self,
        mode: Mode,
        cfg: Option<&RtConfig>,
        fuel: u64,
    ) -> Result<Result<Outcome, Error>, String> {
        let ctx = || {
            format!(
                "{mode} (cfg: {}, fuel {fuel}) on\n{}",
                cfg.map_or("default".to_string(), |c| format!(
                    "pages=2^{} init={} ratio={} threshold={:.2} gen={}",
                    c.page_words_log2,
                    c.initial_pages,
                    c.heap_to_live_ratio,
                    c.gc_threshold,
                    matches!(c.collector, Collector::Generational(_))
                )),
                self.src
            )
        };
        let [off, full] = [Fusion::Off, Fusion::Full].map(|fusion| {
            let c = Compiler::new(mode).with_fusion(fusion).with_fuel(fuel);
            match cfg {
                Some(cfg) => c.with_config(cfg.clone()),
                None => c,
            }
        });
        let prog = full
            .compile_source(self.src)
            .map_err(|e| format!("{}: compile: {e}", ctx()))?;
        let (want, got) = (off.run_program(&prog), full.run_program(&prog));
        match (&want, &got) {
            (Ok(w), Ok(g)) => {
                let (cw, cg) = (counters(w), counters(g));
                if (&w.result, &w.output, &cw) != (&g.result, &g.output, &cg) {
                    return Err(format!(
                        "{}: Off vs Full: {:?} {:?} {cw}\nvs {:?} {:?} {cg}",
                        ctx(),
                        w.result,
                        w.output,
                        g.result,
                        g.output
                    ));
                }
            }
            (Err(Error::Run(w)), Err(Error::Run(g))) if w == g => {}
            _ => return Err(format!("{}: Off vs Full: {want:?} vs {got:?}", ctx())),
        }
        let computed: Answer = match &got {
            Ok(out) => Ok((out.result.clone(), out.output.clone())),
            Err(Error::Run(e @ VmError::UncaughtException { .. })) => Err(e.clone()),
            Err(_) => return Ok(got),
        };
        let evaluated = self.evaluated().map_err(|e| format!("{}: {e}", ctx()))?;
        if computed != *evaluated {
            return Err(format!(
                "{}: engine {computed:?} vs evaluator {evaluated:?}",
                ctx()
            ));
        }
        Ok(got)
    }

    /// [`Differential::check`] for a test: a divergence panics with its
    /// message.
    #[track_caller]
    pub fn agreed(&self, mode: Mode, cfg: Option<&RtConfig>, fuel: u64) -> Result<Outcome, Error> {
        match self.check(mode, cfg, fuel) {
            Ok(agreed) => agreed,
            Err(divergence) => panic!("{divergence}"),
        }
    }
}

/// Everything deterministic an [`Outcome`] counts: the instruction total
/// and the whole of `RtStats` with its two wall-clock fields blanked.
pub fn counters(out: &Outcome) -> String {
    let mut stats = out.stats.clone();
    stats.gc_time_ns = 0;
    stats.gc_pause_max_ns = 0;
    format!("{} instructions, {stats:?}", out.instructions)
}

/// An agreed run as one line: the rendered result, `uncaught <name>` for
/// an escaping exception, or `error: <message>` for any other error.
pub fn answer(agreed: &Result<Outcome, Error>) -> String {
    match agreed {
        Ok(out) => out.result.clone(),
        Err(Error::Run(VmError::UncaughtException { name, .. })) => format!("uncaught {name}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Runs `f` on a thread with a 256 MiB stack and returns what it returns,
/// re-raising its panic. The front end and the renderers recurse per
/// constructor, and debug-build frames on the larger programs exceed a
/// test thread's 2 MiB.
pub fn on_deep_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn_scoped(s, f)
            .expect("spawn a deep-stack thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}
