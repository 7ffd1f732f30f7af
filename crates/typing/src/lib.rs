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
/// puts copies of the prelude bindings the program reaches in front of the
/// program's own code.
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
/// does nothing otherwise: the linearity tests' clock.
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
    use kit_lambda::exp::LExp;

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

    /// What elaborating and lowering `src` costs by `count_work`: type
    /// nodes built, links `resolve` followed, names the duplicate-variable
    /// check compared, typed nodes lowered, rows match compilation sorted
    /// or specialized, nodes it copied or substituted into, and type
    /// variables overload defaulting looked at.
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

    /// Four times the input costs at most 4.3 times the work.
    fn assert_linear(shape: &str, program: impl Fn(usize) -> String) {
        let small = elaboration_work(program(100));
        let large = elaboration_work(program(400));
        assert!(
            10 * large <= 43 * small,
            "4x the {shape}, {}x the work: {small} -> {large}",
            large as f64 / small as f64
        );
    }

    /// `val (a0, …, a{n-1}) = (0, …, n - 1)`: one pattern `n` wide.
    fn wide_tuple(n: usize) -> String {
        let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
        let values: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        format!(
            "val ({}) = ({})\nval it = a0\n",
            names.join(", "),
            values.join(", ")
        )
    }

    /// A top-level pattern declaration does not pay for the declarations
    /// after it (the rest of the program is its match's body, which match
    /// compilation must neither copy nor walk per pattern variable), nor
    /// for the type variables before it (overload defaulting must not scan
    /// them all); and a pattern's variables do not pay for each other (the
    /// duplicate check must not scan the ones before).
    #[test]
    fn elaboration_work_is_linear_in_declarations() {
        assert_linear("declarations", wide_declarations);
        assert_linear("tuple components", wide_tuple);
    }

    /// One `case` of `n` integer arms and a wildcard.
    fn int_arms(n: usize) -> String {
        let arms: Vec<String> = (0..n).map(|i| format!("{i} => {}", i + 1)).collect();
        format!(
            "fun f k = case k of {} | _ => 0\nval it = f 3\n",
            arms.join(" | ")
        )
    }

    /// One `case` over a datatype of `n` constructors, an arm each.
    fn con_arms(n: usize) -> String {
        let cons: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
        let arms: Vec<String> = (0..n).map(|i| format!("C{i} => {i}")).collect();
        format!(
            "datatype t = {}\nfun f c = case c of {}\nval it = f C3\n",
            cons.join(" | "),
            arms.join(" | ")
        )
    }

    /// Match compilation sorts a `case`'s rows by key once: an arm is
    /// built from its own rows and the shared ones, not from a scan of
    /// every row, and a new key is not compared with every key before it.
    #[test]
    fn case_work_is_linear_in_arms() {
        assert_linear("integer arms", int_arms);
        assert_linear("constructor arms", con_arms);
    }

    /// The names a program binds at top level, outermost first.
    fn top_level(src: &str) -> Vec<String> {
        let prog = compile_str(src).expect("test program elaborates");
        let mut names = Vec::new();
        let mut e = &prog.body;
        loop {
            e = match e {
                LExp::Let { var, body, .. } => {
                    names.push(prog.vars.name(*var).to_string());
                    body
                }
                LExp::Fix { funs, body } => {
                    names.extend(funs.iter().map(|f| prog.vars.name(f.var).to_string()));
                    body
                }
                _ => return names,
            };
        }
    }

    /// A program holds the prelude bindings it mentions, directly or
    /// through another copied one, and no others.
    #[test]
    fn a_program_holds_only_the_prelude_it_reaches() {
        assert_eq!(top_level("val it = 0"), ["it"]);
        assert_eq!(top_level("val it = length [1, 2]"), ["length", "it"]);
        assert_eq!(
            top_level("val it = foldl (op +) 0 (map (fn x => x) (rev [1]))"),
            ["rev", "map", "foldl", "it"]
        );
        // `f` is never called, but the program is closed before pruning:
        // `map` comes with `f`, and pruning drops the two together.
        assert_eq!(
            top_level("fun f xs = map (fn x => x) xs\nval it = 1"),
            ["map", "f", "it"]
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
