//! The benchmark programs (paper Fig. 3).
//!
//! Faithful ports of the paper's micro/small benchmarks and behavioural
//! analogs for its large SML applications — same allocation character,
//! scaled to the interpreter (DESIGN.md §3 has the per-program mapping).

/// A deterministic in-tree pseudo-random number generator (SplitMix64,
/// Steele et al., OOPSLA 2014). The container builds offline, so workload
/// generation and the randomized tests cannot pull `rand` from crates.io;
/// this 40-line generator is statistically plenty for shuffling benchmark
/// inputs and driving property tests, and — unlike an external dependency —
/// guarantees bit-identical workloads on every toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The state advances by this much per output.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Passes over the next `n` outputs in one step.
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(Self::GAMMA));
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Rejection-free multiply-shift (Lemire); bias is < 2^-32 for the
        // small bounds used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `i64` in `[lo, hi)`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi);
        lo.wrapping_add(self.below((hi - lo) as u64) as i64)
    }

    /// A random boolean.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// One benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Name as in the paper's Fig. 3.
    pub name: &'static str,
    /// MiniML source (first declaration is `val scale = N`).
    pub src: &'static str,
    /// One-line description (mirrors Fig. 3).
    pub description: &'static str,
    /// Default scale (the `val scale` value in the source).
    pub default_scale: i64,
    /// Scale used by fast test runs.
    pub test_scale: i64,
}

impl Benchmark {
    /// The source with `val scale` replaced by `n`.
    pub fn source_scaled(&self, n: i64) -> String {
        let mut out = String::with_capacity(self.src.len());
        let mut done = false;
        for line in self.src.lines() {
            if !done && line.trim_start().starts_with("val scale =") {
                out.push_str(&format!("val scale = {n}"));
                done = true;
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        assert!(done, "benchmark {} has no `val scale` line", self.name);
        out
    }
}

macro_rules! bench {
    ($name:literal, $file:literal, $desc:literal, $default:literal, $test:literal) => {
        Benchmark {
            name: $name,
            src: include_str!(concat!("programs/", $file)),
            description: $desc,
            default_scale: $default,
            test_scale: $test,
        }
    };
}

/// All benchmarks, in the paper's Fig. 3 order.
pub fn all() -> Vec<Benchmark> {
    vec![
        bench!(
            "vliw",
            "vliw.sml",
            "VLIW instruction scheduler (analog)",
            45,
            4
        ),
        bench!(
            "logic",
            "logic.sml",
            "logic-programming interpreter (analog)",
            9,
            5
        ),
        bench!("zebra", "zebra.sml", "solves the zebra puzzle", 2, 1),
        bench!(
            "tyan",
            "tyan.sml",
            "Grobner-basis-style polynomial algebra (analog)",
            55,
            4
        ),
        bench!("tsp", "tsp.sml", "traveling salesman problem", 140, 25),
        bench!("mpuz", "mpuz.sml", "Emacs M-x mpuz puzzle", 300, 20),
        bench!(
            "dlx",
            "dlx.sml",
            "DLX RISC instruction simulation",
            12000,
            300
        ),
        bench!("ratio", "ratio.sml", "image analysis (analog)", 34, 12),
        bench!("lexgen", "lexgen.sml", "lexer generation (analog)", 130, 10),
        bench!("mlyacc", "mlyacc.sml", "parser generation (analog)", 55, 5),
        bench!(
            "simple",
            "simple.sml",
            "spherical fluid dynamics (analog)",
            110,
            10
        ),
        bench!(
            "professor",
            "professor.sml",
            "puzzle by exhaustive search",
            5,
            1
        ),
        bench!("fib", "fib.sml", "the Fibonacci micro-benchmark", 24, 15),
        bench!("tak", "tak.sml", "the Tak micro-benchmark", 7, 5),
        bench!(
            "msort",
            "msort.sml",
            "sorting pseudo-random integers",
            4000,
            300
        ),
        bench!("kitlife", "kitlife.sml", "the game of life", 24, 4),
        bench!("kitkb", "kitkb.sml", "Knuth-Bendix-style completion", 60, 6),
        // Branch-heavy additions (not in the paper's Fig. 3): values live
        // across basic-block edges, so straight-line fusion covers little
        // of them and dispatch dominates.
        bench!(
            "machine",
            "machine.sml",
            "datatype-coded stack-machine interpreter",
            2500,
            25
        ),
        bench!(
            "accum",
            "accum.sml",
            "loop with accumulators live across the back-edge",
            1500,
            30
        ),
        // Mutation-heavy addition for the collector comparison: a live
        // table of ref'd lists overwritten through `:=`, so collections
        // copy a large live set and updates cross the write barrier.
        bench!(
            "churn",
            "churn.sml",
            "ref-cell churn over a large live table",
            400,
            20
        ),
        // PR 8 mutation-heavy additions: both keep every ref reachable
        // for the whole run, so region inference parks all allocation in
        // one long-lived region and only the collector reclaims — the
        // workloads where the paper's combination earns its keep.
        bench!(
            "interp",
            "interp.sml",
            "interpreter-in-interpreter with a mutable store",
            6000,
            60
        ),
        bench!(
            "book",
            "book.sml",
            "order-book/state-machine churn over ref'd price levels",
            12000,
            120
        ),
    ]
}

/// Looks a benchmark up by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// `n` top-level declarations binding a 16-wide tuple pattern (the last
/// component under a constructor), each using the one before: a spine as
/// long as the program, for the compiler's linearity tests.
pub fn wide_declarations(n: usize) -> String {
    let mut src = String::from("datatype box = B of int\nval a0_15 = 0\n");
    for i in 1..=n {
        let pat: Vec<String> = (0..15).map(|j| format!("a{i}_{j}")).collect();
        let exp: Vec<String> = (1..15).map(|j| j.to_string()).collect();
        src += &format!(
            "val ({}, B a{i}_15) = (a{}_15 + 1, {}, B {i})\n",
            pat.join(", "),
            i - 1,
            exp.join(", ")
        );
    }
    src + &format!("val it = a{n}_0\n")
}

/// `n` top-level declarations of an integer literal, then an `n`-field
/// tuple reading every one: a spine of atomic bindings, each used once at
/// its end, for the optimiser's linearity test.
pub fn atomic_spine(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src += &format!("val a{i} = {i}\n");
    }
    let fields: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    src + &format!("val it = ({})\n", fields.join(", "))
}

/// One `let` binding `n` pairs, each built from the one before: `n` nested
/// finite regions, for the compiler's linearity tests.
pub fn pair_let(n: usize) -> String {
    let mut src = String::from("val it = let\n  val p0 = (0, 0)\n");
    for i in 1..=n {
        src += &format!("  val p{i} = (fst p{} + 1, {i})\n", i - 1);
    }
    src + &format!("in fst p{n} + snd p{n} end\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_paper_programs_plus_five_additions() {
        assert_eq!(all().len(), 22);
    }

    #[test]
    fn every_program_parses() {
        for b in all() {
            kit_syntax_check(&b);
        }
    }

    fn kit_syntax_check(b: &Benchmark) {
        if let Err(e) = kit::Compiler::new(kit::Mode::R).compile_source(b.src) {
            panic!("{} does not compile: {e}", b.name);
        }
    }

    #[test]
    fn scaling_rewrites_the_scale_line() {
        let b = by_name("fib").unwrap();
        let s = b.source_scaled(5);
        assert!(s.contains("val scale = 5\n"));
        assert!(!s.contains(&format!("val scale = {}", b.default_scale)));
    }
}
