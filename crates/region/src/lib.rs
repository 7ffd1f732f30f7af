//! Region inference (paper §3; Tofte–Talpin \[20,21\], Tofte–Birkedal \[17\])
//! and region representation inference (Birkedal–Tofte–Vejlstrup \[3\]).
//!
//! Translates the optimized, monomorphic-representation `LambdaExp` of
//! [`kit_lambda`] into **RegionExp** ([`rexp`]): every allocation point is
//! annotated with the region (*place*) its value goes into, `letregion`
//! constructs delimit region lifetimes, and functions are region
//! polymorphic (they receive formal region parameters at runtime).
//!
//! The phases:
//!
//! 1. [`annotate`] — region-annotated type reconstruction with unification
//!    over region and effect variables; `let`/`fix` bindings get region
//!    type schemes, recursive functions are inferred with bounded
//!    fixed-point iteration (region-polymorphic recursion);
//! 2. [`letregion`] — `letregion` placement: a region variable is bound at
//!    the smallest expression in which it occurs but from whose type and
//!    environment it is absent;
//! 3. [`multiplicity`] — representation inference: regions into which at
//!    most one value of statically known size is ever allocated become
//!    *finite regions* (stack-allocated in activation records); all others
//!    are *infinite*;
//! 4. GC-safe weakening (§2.6): with the collector enabled, the regions of
//!    values captured in a closure are added to the closure's latent
//!    effect, forcing them to live at least as long as the closure and
//!    thereby ruling out dangling pointers. Without the collector this is
//!    skipped and (safe) dangling pointers may occur — exactly the `r`
//!    mode of the paper.
//! 5. "Disabling region inference" (paper §4): every infinite region is
//!    collapsed onto one global region; finite regions are kept — this is
//!    the `gt` mode where the collector degenerates to plain Cheney.

#![forbid(unsafe_code)]

pub mod annotate;
mod check;
mod freevars;
pub mod letregion;
pub mod multiplicity;
pub mod pretty;
pub mod rexp;
pub mod rtype;

pub use check::{check, CheckError};
pub use rexp::{Arena, Arm, ExpId, Mult, Place, RExp, RFixFun, RProgram, RegVar, Span, StrId};

/// Options controlling region inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionOptions {
    /// Apply the §2.6 weakening so the result is safe to garbage collect
    /// (no dangling pointers).
    pub gc_safe: bool,
    /// Collapse all infinite regions onto the global region ("disabling
    /// region inference", paper §4).
    pub disable: bool,
    /// Additionally collapse finite regions (everything heap-allocated in
    /// one region) — the generational-baseline configuration, since SML/NJ
    /// stack-allocates nothing.
    pub disable_finite: bool,
}

impl RegionOptions {
    /// Options for the `r`/`rt` modes (regions alone).
    pub fn regions_only() -> Self {
        RegionOptions {
            gc_safe: false,
            disable: false,
            disable_finite: false,
        }
    }

    /// Options for the `rgt` mode (regions + GC).
    pub fn with_gc() -> Self {
        RegionOptions {
            gc_safe: true,
            disable: false,
            disable_finite: false,
        }
    }

    /// Options for the `gt` mode (GC within one global region).
    pub fn disabled() -> Self {
        RegionOptions {
            gc_safe: true,
            disable: true,
            disable_finite: false,
        }
    }

    /// Options for the generational baseline: one heap, no stack
    /// allocation of values.
    pub fn baseline() -> Self {
        RegionOptions {
            gc_safe: true,
            disable: true,
            disable_finite: true,
        }
    }
}

/// Runs the full region-inference pipeline.
pub fn infer(prog: &kit_lambda::LProgram, opts: RegionOptions) -> RProgram {
    let mut ann = annotate::annotate(prog, opts.gc_safe);
    letregion::place(&mut ann);
    let mut rprog = ann.prog;
    if opts.disable_finite {
        multiplicity::collapse_all(&mut rprog);
    } else if opts.disable {
        multiplicity::collapse_infinite(&mut rprog);
    } else {
        multiplicity::infer_multiplicities(&mut rprog);
    }
    if cfg!(debug_assertions) {
        if let Err(e) = check(&rprog) {
            panic!("region inference emitted an ill-formed program: {e}");
        }
    }
    rprog
}

#[cfg(test)]
thread_local! {
    static WORK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Adds `n()` units of work to this thread's counter under `cfg(test)` and
/// does nothing otherwise: the linearity test's clock.
pub(crate) fn count_work(n: impl FnOnce() -> usize) {
    #[cfg(test)]
    WORK.with(|w| w.set(w.get() + n()));
    #[cfg(not(test))]
    let _ = n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kit_bench::programs::{pair_let, wide_declarations};

    /// What placing `letregion`s and inferring multiplicities costs on
    /// `src` by `count_work`: nodes visited, and occurrence-map entries
    /// merged or looked at by a marker.
    fn region_work(src: String) -> usize {
        let run = move || {
            let mut lprog = kit_typing::compile_str(&src).expect("test program elaborates");
            kit_lambda::opt::optimize(&mut lprog, &Default::default());
            let mut ann = annotate::annotate(&lprog, true);
            WORK.with(|w| w.set(0));
            letregion::place(&mut ann);
            multiplicity::infer_multiplicities(&mut ann.prog);
            WORK.with(|w| w.get())
        };
        // The declaration chain nests as deep as it is long.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(run)
            .expect("spawn")
            .join()
            .expect("region inference panicked")
    }

    /// A `letregion` does not pay for the program around it: placement
    /// copies no occurrence map wholesale, and representation inference
    /// judges a region's one site without re-walking its scope.
    #[test]
    fn region_work_is_linear_in_declarations() {
        for (shape, small, large) in [
            (
                "wide declarations",
                wide_declarations(100),
                wide_declarations(400),
            ),
            ("pair let", pair_let(60), pair_let(240)),
        ] {
            let (small, large) = (region_work(small), region_work(large));
            assert!(
                10 * large <= 43 * small,
                "{shape}: 4x the declarations, {}x the work: {small} -> {large}",
                large as f64 / small as f64
            );
        }
    }
}
