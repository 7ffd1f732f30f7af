//! Elaboration for MiniML: Hindley–Milner type inference, SML-style
//! overloading resolution, pattern-match compilation and lowering to the
//! monomorphic-representation `LambdaExp` IR of [`kit_lambda`].
//!
//! Pipeline position (paper §3): *Elaboration* and *Modules Compilation*
//! collapse into this crate (MiniML has no modules); its output feeds the
//! `kit-lambda` optimizer and then region inference.
//!
//! Design notes:
//!
//! * Polymorphic functions are compiled **once** with erased type
//!   variables — as in the ML Kit, where region polymorphism is orthogonal
//!   to type polymorphism. No allocation happens at a variable type, so the
//!   runtime never needs the erased structure.
//! * SML overloading (`+`, `<`, `abs`, `~` over int/real, `<` also over
//!   strings) is resolved per top-level declaration with defaulting to
//!   `int`, as in the Definition.
//! * Polymorphic equality is specialized at elaboration time into
//!   type-specific code (after Elsman, *Polymorphic equality — no tags
//!   required*), which is what allows the untagged `r` mode to run without
//!   any value tags. Equality at a type that is still a variable after
//!   inference is rejected with a diagnostic.
//!
//! # Examples
//!
//! ```
//! let prog = kit_typing::compile_str("val it = 1 + 2")?;
//! // `prog` is an optimizable `kit_lambda::LProgram`.
//! # Ok::<(), kit_typing::TypeError>(())
//! ```

#![forbid(unsafe_code)]

pub mod builtins;
pub mod infer;
pub mod lower;
pub mod matchc;
pub mod prelude;
pub mod texp;
pub mod types;

use kit_lambda::LProgram;
use kit_syntax::SyntaxError;
use std::sync::OnceLock;

pub use types::TypeError;

/// Parses and elaborates `src` (with the standard prelude) to `LambdaExp`.
///
/// # Errors
///
/// Returns a [`TypeError`] for syntax errors (converted) and type errors.
pub fn compile_str(src: &str) -> Result<LProgram, TypeError> {
    let prog = kit_syntax::parse_program(src).map_err(from_syntax)?;
    compile_program(&prog)
}

/// Elaborates an already-parsed program (with the standard prelude).
///
/// The prelude is parsed, elaborated and lowered once per process; every
/// call continues from a copy of the elaborator as the prelude left it and
/// puts a copy of the lowered prelude in front of the program's own code.
///
/// # Errors
///
/// Returns a [`TypeError`] on ill-typed input.
pub fn compile_program(prog: &kit_syntax::Program) -> Result<LProgram, TypeError> {
    static PRELUDE: OnceLock<infer::Prelude> = OnceLock::new();
    PRELUDE.get_or_init(elaborate_prelude).elaborate_user(prog)
}

fn elaborate_prelude() -> infer::Prelude {
    let prelude = kit_syntax::parse_program(prelude::PRELUDE).expect("prelude must parse");
    infer::Prelude::elaborate(&prelude).expect("prelude must elaborate and lower")
}

fn from_syntax(e: SyntaxError) -> TypeError {
    TypeError::new(format!("syntax error: {}", e.message()), e.span())
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
    use kit_bench::programs::{self, wide_declarations, SplitMix64};
    use kit_bench::randgen::{self, Surface};

    /// Continuing from a copy of the process-wide post-prelude state gives
    /// exactly the program — `VarId`s, type-variable ids and all — that an
    /// elaborator which has just elaborated and lowered the prelude itself
    /// gives, compile after compile: on every corpus program and on 200
    /// generated ones.
    #[test]
    fn prelude_snapshot_equals_elaborating_from_scratch() {
        let prelude = kit_syntax::parse_program(prelude::PRELUDE).expect("prelude must parse");
        let corpus = programs::all().into_iter().map(|b| b.src.to_string());
        let generated = (0..200)
            .map(|i| randgen::program(&mut SplitMix64::new(0x5EED_1200 + i), Surface::Full));
        let mut vars = 0;
        for src in corpus.chain(generated).chain(["".to_string()]) {
            let user = kit_syntax::parse_program(&src).expect("test program parses");
            let scratch = infer::Prelude::elaborate(&prelude)
                .and_then(|p| p.continue_with(&user))
                .expect("test program elaborates");
            let snapshot = compile_program(&user).expect("test program elaborates");
            assert!(snapshot == scratch, "programs differ for:\n{src}");
            vars += snapshot.vars.len();
        }
        assert!(vars > 50_000, "only {vars} variables compared");
    }

    /// What elaborating and lowering `src` costs by `count_work`: typed
    /// nodes lowered, nodes match compilation copied or substituted into,
    /// and type variables overload defaulting looked at.
    fn elaboration_work(src: String) -> usize {
        let run = move || {
            compile_str("").expect("the prelude elaborates");
            WORK.with(|w| w.set(0));
            compile_str(&src).expect("test program elaborates");
            WORK.with(|w| w.get())
        };
        // The declaration chain nests as deep as it is long.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(run)
            .expect("spawn")
            .join()
            .expect("elaboration panicked")
    }

    /// A top-level pattern declaration does not pay for the declarations
    /// after it (the rest of the program is its match's body, which match
    /// compilation must neither copy nor walk per pattern variable), nor
    /// for the type variables before it (overload defaulting must not scan
    /// them all).
    #[test]
    fn elaboration_work_is_linear_in_declarations() {
        let small = elaboration_work(wide_declarations(100));
        let large = elaboration_work(wide_declarations(400));
        assert!(
            10 * large <= 43 * small,
            "4x the declarations, {}x the work: {small} -> {large}",
            large as f64 / small as f64
        );
    }

    #[test]
    fn type_errors_leave_the_snapshot_intact() {
        let bad = kit_syntax::parse_program("val x = 1 + \"one\"").unwrap();
        let good = kit_syntax::parse_program("val it = length [1, 2]").unwrap();
        let before = compile_program(&good).unwrap();
        assert!(compile_program(&bad).is_err());
        assert!(compile_program(&good).unwrap() == before);
    }
}
