//! Random program generator and runtime-configuration fuzzing, shared by
//! the `randomized` integration test (a short fixed-seed run in CI) and
//! the `soak` binary (arbitrarily long runs with config fuzzing); both
//! run what it draws through the one harness, [`crate::differential`].
//!
//! Two generator surfaces (DESIGN.md §6h):
//!
//! * [`Surface::Int`] — the original int-expression generator: `div`/`mod`
//!   with dynamically-zero divisors, overflow-prone arithmetic, user
//!   exceptions raised conditionally deep inside expressions, and
//!   `handle` chains, all inside a recursive driver. Kept bit-for-bit: the
//!   fixed-seed tests name their programs by generator state.
//! * [`Surface::Full`] — a type-directed generator over the whole MiniML
//!   surface: recursive and mutually recursive functions (region-
//!   polymorphic list/tree/shape builders called from many allocation
//!   sites), a curried recursive function that is called saturated,
//!   partially applied (bound to a `val`, passed to `map`) and given an
//!   effectful first argument — the optimiser's uncurrying and its eta
//!   wrappers —, a pair-list builder that escapes as a value chosen
//!   through an `if` (entered through its closure stub), user datatypes
//!   with `SwitchCon`-heavy matches, lists, tuples, refs, arrays
//!   (including ones past the large-object threshold), strings, reals,
//!   deep nested `handle` chains,
//!   finite-region tuple bindings held live across allocating
//!   subexpressions, and raises out of a `letregion` handled in the
//!   same frame just before an allocating call — the collector's hard
//!   cases (paper §2.2–2.5) that int-only programs never reach.
//!
//! Every generated program is well-typed by construction: expressions are
//! drawn type-directed against a fixed world (two datatypes, two user
//! exceptions, three mutable globals, and a set of generated functions
//! with known signatures), and every recursion is structural or driven by
//! a counter that call sites clamp with `mod`, so programs terminate in
//! well under the differential's fuel budget.

use crate::programs::SplitMix64;
use kit::Mode;
use kit_runtime::config::{Collector, GenPolicy};
use kit_runtime::RtConfig;

/// Which grammar [`program`] draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// The original int-expression generator (PR 3/4 seeds reproduce).
    Int,
    /// The full-MiniML generator (datatypes, arrays, strings, reals,
    /// refs, large objects, nested handlers).
    Full,
}

impl Surface {
    /// Parses a `--surface` flag value.
    pub fn parse(s: &str) -> Option<Surface> {
        match s {
            "int" => Some(Surface::Int),
            "full" => Some(Surface::Full),
            _ => None,
        }
    }
}

/// One random program drawn from `surface`.
pub fn program(rng: &mut SplitMix64, surface: Surface) -> String {
    match surface {
        Surface::Int => program_int(rng),
        Surface::Full => program_full(rng),
    }
}

// ------------------------------------------------------------------------
// Int surface (the PR 3 generator, unchanged)
// ------------------------------------------------------------------------

/// A random int leaf: a variable, a small constant, or (rarely) a
/// constant big enough that products overflow the 63-bit int range.
fn leaf(rng: &mut SplitMix64, vars: &[&str]) -> String {
    match rng.below(6) {
        0 | 1 if !vars.is_empty() => vars[rng.below(vars.len() as u64) as usize].to_string(),
        2 => "1073741823".to_string(),
        _ => {
            let n = rng.range_i64(-20, 100);
            if n < 0 {
                format!("~{}", -n)
            } else {
                n.to_string()
            }
        }
    }
}

/// A random int expression over `vars`, biased toward partial operations
/// and exception traffic.
fn int_expr(rng: &mut SplitMix64, vars: &[&str], depth: u32) -> String {
    if depth == 0 {
        return leaf(rng, vars);
    }
    let a = int_expr(rng, vars, depth - 1);
    let b = int_expr(rng, vars, depth - 1);
    match rng.below(16) {
        0..=2 => leaf(rng, vars),
        3..=5 => {
            let op = ["+", "-", "*"][rng.below(3) as usize];
            format!("({a} {op} {b})")
        }
        // Partial ops: the divisor is frequently zero at runtime.
        6 => format!("({a} div ({b} mod 3))"),
        7 => format!("({a} mod ({b} mod 5))"),
        8 => format!("(if {a} < {b} then {a} else {b})"),
        9 => format!("(let val y = {a} in (y + {b}) end)"),
        10 => format!("((fn q => q + {a}) {b})"),
        11 => format!("(fst ({a}, {b}) + snd ({b}, {a}))"),
        12 => format!("(hd [{a}, {b}] + length [{b}])"),
        // A conditionally-raised user exception carrying a payload.
        13 => format!(
            "(if {a} < {} then raise Boom ({b}) else {b})",
            leaf(rng, vars)
        ),
        // Handlers over a raising subexpression.
        _ => {
            let h1 = leaf(rng, vars);
            let h2 = leaf(rng, vars);
            format!("(({a}) handle Div => {h1} | Overflow => {h2} | Boom k => (k mod 9001))")
        }
    }
}

/// One random int-surface program: a generated function applied many
/// times by a recursive driver, every call under a handler chain so
/// raising and non-raising iterations interleave.
fn program_int(rng: &mut SplitMix64) -> String {
    let body = int_expr(rng, &["x0", "x1"], 3);
    let seed = int_expr(rng, &[], 2);
    let iters = 10 + rng.below(20);
    format!(
        "exception Boom of int\n\
         fun f (x0, x1) = {body}\n\
         fun go n acc =\n\
         \u{20}  if n < 1 then acc\n\
         \u{20}  else go (n - 1) (((acc * 3 + f (n, acc)) handle Div => ~1 | Overflow => ~2 | Boom k => (k + acc) mod 65537) mod 100003)\n\
         val it = go {iters} (({seed}) handle Overflow => 7 | Div => 11)\n"
    )
}

// ------------------------------------------------------------------------
// Full surface (type-directed)
// ------------------------------------------------------------------------

/// Types the full-surface generator draws expressions at.
///
/// `Tree` and `Shape` are the two fixed user datatypes every full-surface
/// program declares; `Shape` has four constructors so its matches compile
/// to the jump-table `SwitchCon` form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Bool,
    Real,
    Str,
    /// `int list`
    IntList,
    /// `(int * int) list`
    PairList,
    /// `datatype tree = Leaf | Node of tree * int * tree`
    Tree,
    /// `datatype shape = Nul | Pt of int * int | Ln of shape * int
    ///  | Qd of shape * shape * shape`
    Shape,
    /// `int ref`
    IntRef,
}

/// Signature of a generated top-level function.
#[derive(Clone)]
struct FnSig {
    name: String,
    params: Vec<Ty>,
    ret: Ty,
    /// The parameter driving recursion depth, with the modulus call
    /// sites clamp it by (`(arg) mod m`), so every call terminates after
    /// a few unrollings no matter what argument expression is drawn.
    bounded: Option<(usize, u64)>,
}

/// Number of slots in the `cells` global (an `(int ref) array`).
const CELLS: u64 = 12;

struct Gen<'r> {
    rng: &'r mut SplitMix64,
    /// Functions generated so far; bodies may call any of these.
    fns: Vec<FnSig>,
    /// Index in `fns` of the one declared `fun f a b ...`: call sites apply
    /// it one argument at a time, and `partial` to all but the last.
    curried: Option<usize>,
    /// Index in `fns` of the function that applies the escaping builder
    /// (kind 12); the driver calls it on every iteration.
    escaping: Option<usize>,
    /// Fresh-variable counter (`v0`, `v1`, ...).
    fresh: u32,
    /// Remaining calls to generated functions in the current top-level
    /// body. Bounds the dynamic call tree: generated functions call each
    /// other, and without a budget a chain of builders multiplies their
    /// loop counts.
    calls: u32,
    /// Length of the `biga` global array (always past the large-object
    /// threshold of 128 words).
    big_len: u64,
}

impl<'r> Gen<'r> {
    fn new(rng: &'r mut SplitMix64) -> Self {
        let big_len = 130 + rng.below(250);
        Gen {
            rng,
            fns: Vec::new(),
            curried: None,
            escaping: None,
            fresh: 0,
            calls: 0,
            big_len,
        }
    }

    fn fresh(&mut self) -> String {
        self.fresh += 1;
        format!("v{}", self.fresh)
    }

    /// A mostly-safe index expression into an array of length `len`: three
    /// times out of four wrapped into range, otherwise left to raise
    /// `Subscript` when the draw lands outside.
    fn idx(&mut self, env: &mut Vec<(String, Ty)>, len: u64, d: u32) -> String {
        let e = self.expr(env, Ty::Int, d.min(1));
        if self.rng.below(4) < 3 {
            format!("((({e}) mod {len} + {len}) mod {len})")
        } else {
            format!("(({e}) mod {})", len + 3)
        }
    }

    /// A random in-scope variable of type `ty`.
    fn var(&mut self, env: &[(String, Ty)], ty: Ty) -> Option<String> {
        let vars: Vec<&String> = env
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n)
            .collect();
        if vars.is_empty() {
            None
        } else {
            Some(vars[self.rng.below(vars.len() as u64) as usize].clone())
        }
    }

    /// A call to a generated function returning `ty`, if one exists and
    /// the call budget allows. Bounded parameters are clamped at the call
    /// site so recursion terminates.
    fn call(&mut self, env: &mut Vec<(String, Ty)>, ty: Ty, d: u32) -> Option<String> {
        if self.calls == 0 {
            return None;
        }
        let cands: Vec<usize> = (0..self.fns.len())
            .filter(|&i| self.fns[i].ret == ty)
            .collect();
        if cands.is_empty() {
            return None;
        }
        self.calls -= 1;
        let fi = cands[self.rng.below(cands.len() as u64) as usize];
        let f = self.fns[fi].clone();
        let mut args = Vec::new();
        for (i, &p) in f.params.iter().enumerate() {
            let mut a = self.expr(env, p, d.saturating_sub(1));
            if let Some((bi, m)) = f.bounded {
                if bi == i {
                    a = format!("(({a}) mod {m})");
                }
            }
            args.push(a);
        }
        let between = if self.curried == Some(fi) {
            ") ("
        } else {
            ", "
        };
        Some(format!("({} ({}))", f.name, args.join(between)))
    }

    /// `f a` (or `f a b` for a three-parameter `f`) for a curried generated
    /// function `f`, if one exists and the call budget allows: a function
    /// of the last parameter. The first argument is clamped like any
    /// bounded one and, half of the time, preceded by an effect — which
    /// must happen once, where the partial application is evaluated, and
    /// not once per call of the result.
    fn partial(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> Option<String> {
        let i = self.curried?;
        if self.calls == 0 {
            return None;
        }
        self.calls -= 1;
        let f = self.fns[i].clone();
        let (_, m) = f.bounded.expect("the curried kind is counter-driven");
        let first = self.expr(env, Ty::Int, d.saturating_sub(1));
        let mut app = if self.rng.bool() {
            let u = self.unit(env, 1);
            format!("{} (let val _ = {u} in ({first}) mod {m} end)", f.name)
        } else {
            format!("{} (({first}) mod {m})", f.name)
        };
        for _ in 2..f.params.len() {
            let a = self.expr(env, Ty::Int, d.saturating_sub(1));
            app.push_str(&format!(" ({a})"));
        }
        Some(format!("({app})"))
    }

    /// A leaf (depth-0) expression of type `ty`.
    fn leaf(&mut self, env: &[(String, Ty)], ty: Ty) -> String {
        if self.rng.below(2) == 0 {
            if let Some(v) = self.var(env, ty) {
                return v;
            }
        }
        match ty {
            Ty::Int => match self.rng.below(8) {
                0 => "1073741823".to_string(),
                _ => {
                    let n = self.rng.range_i64(-9, 60);
                    if n < 0 {
                        format!("~{}", -n)
                    } else {
                        n.to_string()
                    }
                }
            },
            Ty::Bool => if self.rng.bool() { "true" } else { "false" }.to_string(),
            Ty::Real => ["0.5", "~1.25", "3.0", "0.125", "2.75", "~0.0625"]
                [self.rng.below(6) as usize]
                .to_string(),
            Ty::Str => ["\"\"", "\"ab\"", "\"kit\"", "\"xyzzy\"", "\"!\""]
                [self.rng.below(5) as usize]
                .to_string(),
            Ty::IntList => match self.rng.below(3) {
                0 => "nil".to_string(),
                1 => format!("[{}]", self.rng.below(50)),
                _ => format!("[{}, {}]", self.rng.below(50), self.rng.below(50)),
            },
            Ty::PairList => match self.rng.below(2) {
                0 => "nil".to_string(),
                _ => format!("[({}, {})]", self.rng.below(50), self.rng.below(50)),
            },
            Ty::Tree => "Leaf".to_string(),
            Ty::Shape => match self.rng.below(2) {
                0 => "Nul".to_string(),
                _ => format!("(Pt ({}, {}))", self.rng.below(40), self.rng.below(40)),
            },
            Ty::IntRef => format!("(ref {})", self.rng.below(64)),
        }
    }

    /// A random expression of type `ty`, at most `d` productions deep.
    fn expr(&mut self, env: &mut Vec<(String, Ty)>, ty: Ty, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, ty);
        }
        if let Some(c) = (self.rng.below(8) == 0)
            .then(|| self.call(env, ty, d))
            .flatten()
        {
            return c;
        }
        match ty {
            Ty::Int => self.int(env, d),
            Ty::Bool => self.boolean(env, d),
            Ty::Real => self.real(env, d),
            Ty::Str => self.string(env, d),
            Ty::IntList => self.int_list(env, d),
            Ty::PairList => self.pair_list(env, d),
            Ty::Tree => self.tree(env, d),
            Ty::Shape => self.shape(env, d),
            Ty::IntRef => self.int_ref(env, d),
        }
    }

    fn int(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::Int);
        }
        match self.rng.below(33) {
            0..=2 => self.leaf(env, Ty::Int),
            3..=5 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                let op = ["+", "-", "*"][self.rng.below(3) as usize];
                format!("({a} {op} {b})")
            }
            // Partial ops: the divisor is frequently zero at runtime.
            6 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                format!("({a} div ({b} mod 3))")
            }
            7 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                format!("({a} mod ({b} mod 5))")
            }
            8 => {
                let c = self.expr(env, Ty::Bool, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                format!("(if {c} then {a} else {b})")
            }
            // A finite-region tuple held live *across* an allocating
            // subexpression: `fst` is read before the middle expression
            // runs (and possibly collects), `snd` after — so the boxed
            // pair sits on the stack through the GC and must be constant-
            // marked, scanned in place, and unmarked (paper §2.5).
            9 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                let v = self.fresh();
                // `v` is a pair, outside the generator's type lattice —
                // it stays out of `env` and is only read through
                // `fst`/`snd` around the (possibly allocating) middle.
                let mid = self.expr(env, Ty::Int, d - 1);
                format!("(let val {v} = ({a}, {b}) in ((fst {v}) + ({mid}) + (snd {v})) end)")
            }
            10 => {
                let v = self.fresh();
                let bind_ty = [Ty::Int, Ty::IntList, Ty::Str, Ty::Tree][self.rng.below(4) as usize];
                let rhs = self.expr(env, bind_ty, d - 1);
                env.push((v.clone(), bind_ty));
                let body = self.int(env, d - 1);
                env.pop();
                format!("(let val {v} = {rhs} in {body} end)")
            }
            // Nested function declaration (a fresh region-polymorphic
            // closure per evaluation).
            11 => {
                let q = self.fresh();
                let z = self.fresh();
                env.push((z.clone(), Ty::Int));
                let fb = self.int(env, d - 1);
                env.pop();
                let arg = self.expr(env, Ty::Int, d - 1);
                format!("(let fun {q} {z} = {fb} in {q} ({arg}) end)")
            }
            // Dense int switch.
            12 => {
                let s = self.expr(env, Ty::Int, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                let c = self.expr(env, Ty::Int, d - 1);
                format!("(case ({s}) mod 4 of 0 => {a} | 1 => {b} | _ => {c})")
            }
            // String match (string patterns + ground equality).
            13 => {
                let s = self.expr(env, Ty::Str, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                format!("(case {s} of \"ab\" => {a} | \"\" => {b} | _ => 1)")
            }
            // List/pair-list destructuring.
            14 => {
                let l = self.expr(env, Ty::IntList, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let h = self.fresh();
                let t = self.fresh();
                env.push((h.clone(), Ty::Int));
                let b = self.int(env, d - 1);
                env.pop();
                format!("(case {l} of nil => {a} | {h} :: {t} => ({b}) + length {t})")
            }
            15 => {
                let l = self.expr(env, Ty::PairList, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let p = self.fresh();
                let q = self.fresh();
                env.push((p.clone(), Ty::Int));
                env.push((q.clone(), Ty::Int));
                let b = self.int(env, d - 1);
                env.pop();
                env.pop();
                format!("(case {l} of nil => {a} | ({p}, {q}) :: _ => {b})")
            }
            // Datatype matches (SwitchCon).
            16 => {
                let t = self.expr(env, Ty::Tree, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let v = self.fresh();
                env.push((v.clone(), Ty::Int));
                let b = self.int(env, d - 1);
                env.pop();
                format!("(case {t} of Leaf => {a} | Node (_, {v}, _) => {b})")
            }
            17 => {
                let s = self.expr(env, Ty::Shape, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                let x = self.fresh();
                env.push((x.clone(), Ty::Int));
                let b = self.int(env, d - 1);
                env.pop();
                format!(
                    "(case {s} of Nul => {a} | Pt ({x}, _) => {b} \
                     | Ln (_, k) => k + 1 | Qd (_, _, _) => 4)"
                )
            }
            18 => match self.call(env, Ty::Int, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::Int),
            },
            // List observers from the prelude.
            19 => {
                let l = self.expr(env, Ty::IntList, d - 1);
                match self.rng.below(4) {
                    0 => format!("(length ({l}))"),
                    1 => format!("(hd ({l}))"),
                    2 => {
                        let i = self.expr(env, Ty::Int, 1);
                        format!("(nth ({l}, ({i}) mod 5))")
                    }
                    _ => {
                        let z = self.fresh();
                        let w = self.fresh();
                        env.push((z.clone(), Ty::Int));
                        env.push((w.clone(), Ty::Int));
                        let b = self.int(env, d - 1);
                        env.pop();
                        env.pop();
                        format!("(foldl (fn ({z}, {w}) => {b}) 1 ({l}))")
                    }
                }
            }
            // Real observers (the only way a real reaches the checksum).
            20 => {
                let r = self.expr(env, Ty::Real, d - 1);
                let f = ["floor", "trunc"][self.rng.below(2) as usize];
                format!("(({f} (({r}) * 0.5)) mod 8191)")
            }
            // String observers.
            21 => {
                let s = self.expr(env, Ty::Str, d - 1);
                match self.rng.below(3) {
                    0 => format!("(size ({s}))"),
                    _ => {
                        let i = self.expr(env, Ty::Int, 1);
                        format!("(strsub (({s}) ^ \"z\", (({i}) mod 3)))")
                    }
                }
            }
            // Array traffic: the fixed large-object global, or a fresh
            // local array (sometimes itself past the large-object
            // threshold) written then read back.
            22 => {
                let i = self.idx(env, self.big_len, d);
                format!("(asub (biga, {i}))")
            }
            23 => {
                let ar = self.fresh();
                let n = if self.rng.below(3) == 0 {
                    // Past the large-object threshold: allocated in the
                    // large-object space, traversed in place by the GC.
                    130 + self.rng.below(120)
                } else {
                    2 + self.rng.below(24)
                };
                let init = self.expr(env, Ty::Int, d - 1);
                let wr = self.expr(env, Ty::Int, d - 1);
                let i = self.idx(env, n, d);
                let j = self.idx(env, n, d);
                format!(
                    "(let val {ar} = array ({n}, {init}) in \
                     (aupdate ({ar}, {i}, {wr}); asub ({ar}, {j}) + alength {ar}) end)"
                )
            }
            // Ref cells: globals (`cells`) and locals.
            24 => {
                let r = self.expr(env, Ty::IntRef, d - 1);
                format!("(!({r}))")
            }
            // Unit-effect sequencing (mutation, output).
            25 => {
                let u = self.unit(env, d - 1);
                let a = self.expr(env, Ty::Int, d - 1);
                format!("(({u}); {a})")
            }
            // `while` over a local ref.
            26 => {
                let w = self.fresh();
                let k = 1 + self.rng.below(6);
                let u = self.unit(env, d - 1);
                format!(
                    "(let val {w} = ref 0 in \
                     (while !{w} < {k} do (({u}); {w} := !{w} + 1); !{w}) end)"
                )
            }
            // Conditionally-raised exceptions, both user ones.
            27 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                let k = self.rng.below(40);
                if self.rng.bool() {
                    format!("(if {a} < {k} then raise Boom ({b}) else {b})")
                } else {
                    // The payload is a heap-allocated string whose
                    // lifetime crosses the handler frame.
                    format!("(if {a} < {k} then raise Crash (itos ({b})) else {b})")
                }
            }
            // A region-local value, a raise while it is live, and the
            // handler in the same function: the unwind pops the
            // `letregion` but not the frame, and the allocating call that
            // follows collects with that frame's slots as roots — the
            // slot of the dead value must not be one (DESIGN.md §6b).
            28 => {
                let v = self.fresh();
                let r = self.fresh();
                let k = 2 + self.rng.below(7);
                let local = match self.rng.below(3) {
                    0 => {
                        let n = if self.rng.bool() {
                            130 + self.rng.below(60)
                        } else {
                            3 + self.rng.below(9)
                        };
                        format!(
                            "let val {v} = array ({n}, {k}) in \
                             asub ({v}, {n} + {k}) + alength {v} end"
                        )
                    }
                    1 => format!(
                        "let val {v} = upto (1, {k}) in nth ({v}, {k} + 1) + length {v} end"
                    ),
                    _ => format!(
                        "let val {v} = map (fn z => (z, z + 1, {k})) (upto (1, {k})) in \
                         (case {v} of (a, _, _) :: _ => a div (a - a) | nil => 0) \
                         + length {v} end"
                    ),
                };
                let h = self.expr(env, Ty::Int, d - 1);
                let grow = 30 + self.rng.below(170);
                format!(
                    "(let val {r} = ({local}) handle Subscript => ({h}) | Div => 11 \
                     in {r} + length (upto (1, {grow} + {r} mod 7)) end)"
                )
            }
            // A partial application held in a `val` and applied twice.
            29 => match self.partial(env, d) {
                Some(pa) => {
                    let h = self.fresh();
                    let a = self.expr(env, Ty::Int, d - 1);
                    let b = self.expr(env, Ty::Int, d - 1);
                    format!("(let val {h} = {pa} in ({h} ({a}) + {h} ({b})) mod 65521 end)")
                }
                None => self.leaf(env, Ty::Int),
            },
            // ... and one mapped over a list, every result observed.
            30 => match self.partial(env, d) {
                Some(pa) => {
                    let l = self.expr(env, Ty::IntList, d - 1);
                    format!("(foldl (fn (x, s) => (x + s) mod 65521) 0 (map {pa} ({l})))")
                }
                None => self.leaf(env, Ty::Int),
            },
            // Handler chains: random arm subsets over a raising body, so
            // some raises are caught here, some a frame up, some never.
            _ => {
                let a = self.expr(env, Ty::Int, d - 1);
                let mut arms = Vec::new();
                if self.rng.bool() {
                    arms.push("Div => 3".to_string());
                }
                if self.rng.bool() {
                    arms.push("Overflow => 5".to_string());
                }
                if self.rng.bool() {
                    arms.push("Subscript => 7".to_string());
                }
                let h = self.expr(env, Ty::Int, d - 1);
                let v = self.fresh();
                match self.rng.below(3) {
                    0 => arms.push(format!("Boom {v} => (({v} + ({h})) mod 9001)")),
                    1 => arms.push(format!("Crash {v} => (size {v} + ({h}))")),
                    _ => arms.push(format!("_ => ({h})")),
                }
                format!("(({a}) handle {})", arms.join(" | "))
            }
        }
    }

    fn boolean(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::Bool);
        }
        match self.rng.below(10) {
            0 => self.leaf(env, Ty::Bool),
            1..=3 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                let op = ["<", "<=", ">", ">=", "=", "<>"][self.rng.below(6) as usize];
                // Ascribed: equality needs a ground type, and both sides
                // may be variables nothing has been said about yet.
                format!("(({a} : int) {op} {b})")
            }
            4 => {
                let a = self.expr(env, Ty::Real, d - 1);
                let b = self.expr(env, Ty::Real, d - 1);
                let op = ["<", "<="][self.rng.below(2) as usize];
                format!("({a} {op} {b})")
            }
            5 => {
                let a = self.expr(env, Ty::Str, d - 1);
                let b = self.expr(env, Ty::Str, d - 1);
                let op = ["<", "="][self.rng.below(2) as usize];
                format!("({a} {op} {b})")
            }
            6 => {
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(null ({l}))")
            }
            7 => {
                let a = self.expr(env, Ty::Bool, d - 1);
                format!("(not {a})")
            }
            _ => {
                let a = self.expr(env, Ty::Bool, d - 1);
                let b = self.expr(env, Ty::Bool, d - 1);
                let op = ["andalso", "orelse"][self.rng.below(2) as usize];
                format!("({a} {op} {b})")
            }
        }
    }

    fn real(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::Real);
        }
        match self.rng.below(8) {
            0 | 1 => self.leaf(env, Ty::Real),
            2..=4 => {
                let a = self.expr(env, Ty::Real, d - 1);
                let b = self.expr(env, Ty::Real, d - 1);
                let op = ["+", "-", "*", "/"][self.rng.below(4) as usize];
                format!("({a} {op} {b})")
            }
            5 => {
                let a = self.expr(env, Ty::Int, d - 1);
                format!("(real (({a}) mod 1024))")
            }
            6 => {
                let c = self.expr(env, Ty::Bool, d - 1);
                let a = self.expr(env, Ty::Real, d - 1);
                let b = self.expr(env, Ty::Real, d - 1);
                format!("(if {c} then {a} else {b})")
            }
            _ => match self.call(env, Ty::Real, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::Real),
            },
        }
    }

    fn string(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::Str);
        }
        match self.rng.below(8) {
            0 | 1 => self.leaf(env, Ty::Str),
            2 | 3 => {
                let a = self.expr(env, Ty::Str, d - 1);
                let b = self.expr(env, Ty::Str, d - 1);
                format!("({a} ^ {b})")
            }
            4 | 5 => {
                let a = self.expr(env, Ty::Int, d - 1);
                format!("(itos ({a}))")
            }
            6 => {
                let r = self.expr(env, Ty::Real, d - 1);
                format!("(rtos (real (floor (({r}) * 4.0))))")
            }
            _ => match self.call(env, Ty::Str, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::Str),
            },
        }
    }

    fn int_list(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::IntList);
        }
        match self.rng.below(12) {
            0 | 1 => self.leaf(env, Ty::IntList),
            2 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(({a}) :: {l})")
            }
            3 => {
                let a = self.expr(env, Ty::IntList, d - 1);
                let b = self.expr(env, Ty::IntList, d - 1);
                format!("(({a}) @ ({b}))")
            }
            4 => {
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(rev ({l}))")
            }
            5 => {
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(tl ({l}))")
            }
            6 => {
                let z = self.fresh();
                env.push((z.clone(), Ty::Int));
                let b = self.int(env, d - 1);
                env.pop();
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(map (fn {z} => {b}) ({l}))")
            }
            7 => {
                let z = self.fresh();
                env.push((z.clone(), Ty::Int));
                let b = self.boolean(env, d - 1);
                env.pop();
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(filter (fn {z} => {b}) ({l}))")
            }
            8 => {
                let a = self.expr(env, Ty::Int, 1);
                format!("(upto (1, ({a}) mod 20))")
            }
            9 => {
                let l = self.expr(env, Ty::IntList, d - 1);
                let n = self.expr(env, Ty::Int, 1);
                let f = ["take", "drop"][self.rng.below(2) as usize];
                format!("({f} (({l}), ({n}) mod 4))")
            }
            10 => "(!lbox)".to_string(),
            _ => match self.call(env, Ty::IntList, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::IntList),
            },
        }
    }

    fn pair_list(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::PairList);
        }
        match self.rng.below(8) {
            0 | 1 => self.leaf(env, Ty::PairList),
            2 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                let l = self.expr(env, Ty::PairList, d - 1);
                format!("((({a}), ({b})) :: {l})")
            }
            3 => {
                let z = self.fresh();
                env.push((z.clone(), Ty::Int));
                let x = self.int(env, d - 1);
                env.pop();
                let l = self.expr(env, Ty::IntList, d - 1);
                format!("(map (fn {z} => (({x}), {z})) ({l}))")
            }
            4 => {
                let l = self.expr(env, Ty::PairList, d - 1);
                format!("(rev ({l}))")
            }
            5 => {
                let p = self.fresh();
                let q = self.fresh();
                env.push((p.clone(), Ty::Int));
                env.push((q.clone(), Ty::Int));
                let b = self.boolean(env, d - 1);
                env.pop();
                env.pop();
                let l = self.expr(env, Ty::PairList, d - 1);
                format!("(filter (fn ({p}, {q}) => {b}) ({l}))")
            }
            _ => match self.call(env, Ty::PairList, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::PairList),
            },
        }
    }

    fn tree(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::Tree);
        }
        match self.rng.below(6) {
            0 | 1 => self.leaf(env, Ty::Tree),
            2 | 3 => {
                let l = self.expr(env, Ty::Tree, d - 1);
                let v = self.expr(env, Ty::Int, d - 1);
                let r = self.expr(env, Ty::Tree, d - 1);
                format!("(Node ({l}, {v}, {r}))")
            }
            _ => match self.call(env, Ty::Tree, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::Tree),
            },
        }
    }

    fn shape(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::Shape);
        }
        match self.rng.below(8) {
            0 | 1 => self.leaf(env, Ty::Shape),
            2 => {
                let a = self.expr(env, Ty::Int, d - 1);
                let b = self.expr(env, Ty::Int, d - 1);
                format!("(Pt ({a}, {b}))")
            }
            3 => {
                let s = self.expr(env, Ty::Shape, d - 1);
                let k = self.expr(env, Ty::Int, d - 1);
                format!("(Ln ({s}, {k}))")
            }
            4 | 5 => {
                let a = self.expr(env, Ty::Shape, d - 1);
                let b = self.expr(env, Ty::Shape, d - 1);
                let c = self.expr(env, Ty::Shape, d - 1);
                format!("(Qd ({a}, {b}, {c}))")
            }
            _ => match self.call(env, Ty::Shape, d) {
                Some(c) => c,
                None => self.leaf(env, Ty::Shape),
            },
        }
    }

    fn int_ref(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        if d == 0 {
            return self.leaf(env, Ty::IntRef);
        }
        match self.rng.below(4) {
            0 => self.leaf(env, Ty::IntRef),
            1 | 2 => {
                let i = self.idx(env, CELLS, d);
                format!("(asub (cells, {i}))")
            }
            _ => {
                let a = self.expr(env, Ty::Int, d - 1);
                format!("(ref ({a}))")
            }
        }
    }

    /// A unit-valued effect: array/ref mutation (remembered-set traffic
    /// under the generational baseline) or, rarely, output.
    fn unit(&mut self, env: &mut Vec<(String, Ty)>, d: u32) -> String {
        match self.rng.below(12) {
            0..=2 => {
                let i = self.idx(env, self.big_len, d);
                let a = self.expr(env, Ty::Int, d.min(1));
                format!("(aupdate (biga, {i}, {a}))")
            }
            3 | 4 => {
                let i = self.idx(env, CELLS, d);
                let a = self.expr(env, Ty::Int, d.min(1));
                format!("(aupdate (cells, {i}, ref ({a})))")
            }
            5..=7 => {
                let r = self.int_ref(env, d.min(1));
                let a = self.expr(env, Ty::Int, d.min(1));
                format!("(({r}) := ({a}))")
            }
            8 | 9 => {
                let l = self.expr(env, Ty::IntList, d.min(1));
                format!("(lbox := ({l}))")
            }
            10 => {
                let s = self.expr(env, Ty::Str, d.min(1));
                format!("(print ({s}))")
            }
            _ => {
                let a = self.expr(env, Ty::Int, d.min(1));
                format!("(ignore ({a}))")
            }
        }
    }

    // ------------------------------------------------- top-level functions

    /// Emits one generated top-level function of a random kind and
    /// registers its signature for later call sites.
    fn emit_fn(&mut self, out: &mut String, kind: u64) {
        self.calls = 3;
        let i = self.fns.len();
        match kind {
            // Counter-driven scalar recursion (one self-call, `a`
            // strictly decreasing).
            0 => {
                let name = format!("fsc{i}");
                let mut env = vec![("a".to_string(), Ty::Int), ("b".to_string(), Ty::Int)];
                let base = self.expr(&mut env, Ty::Int, 2);
                let pre = self.expr(&mut env, Ty::Int, 2);
                let arg = self.expr(&mut env, Ty::Int, 1);
                let op = ["+", "-", "*"][self.rng.below(3) as usize];
                out.push_str(&format!(
                    "fun {name} (a, b) = if a < 1 then {base} \
                     else ((({pre}) {op} {name} (a - 1, {arg})) mod 65521)\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Int],
                    ret: Ty::Int,
                    bounded: Some((0, 7)),
                });
            }
            // Structural list fold.
            1 => {
                let name = format!("fls{i}");
                let mut env = Vec::new();
                let base = self.expr(&mut env, Ty::Int, 2);
                env.push(("h".to_string(), Ty::Int));
                let step = self.expr(&mut env, Ty::Int, 2);
                out.push_str(&format!(
                    "fun {name} zs = case zs of nil => {base} \
                     | h :: t => ((({step}) + {name} t) mod 65521)\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::IntList],
                    ret: Ty::Int,
                    bounded: None,
                });
            }
            // Structural tree fold.
            2 => {
                let name = format!("ftr{i}");
                let mut env = Vec::new();
                let base = self.expr(&mut env, Ty::Int, 2);
                env.push(("v".to_string(), Ty::Int));
                let step = self.expr(&mut env, Ty::Int, 2);
                out.push_str(&format!(
                    "fun {name} t = case t of Leaf => {base} \
                     | Node (l, v, r) => ((({step}) + {name} l + {name} r) mod 65521)\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Tree],
                    ret: Ty::Int,
                    bounded: None,
                });
            }
            // Four-arm shape fold (SwitchCon-heavy).
            3 => {
                let name = format!("fsh{i}");
                let mut env = Vec::new();
                let base = self.expr(&mut env, Ty::Int, 2);
                env.push(("x".to_string(), Ty::Int));
                env.push(("y".to_string(), Ty::Int));
                let pt = self.expr(&mut env, Ty::Int, 2);
                env.truncate(1);
                let ln = self.expr(&mut env, Ty::Int, 2);
                out.push_str(&format!(
                    "fun {name} s = case s of\n\
                     \u{20}   Nul => {base}\n\
                     \u{20} | Pt (x, y) => {pt}\n\
                     \u{20} | Ln (u, x) => ((({ln}) + {name} u) mod 65521)\n\
                     \u{20} | Qd (u, v, w) => (({name} u + {name} v + {name} w) mod 65521)\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Shape],
                    ret: Ty::Int,
                    bounded: None,
                });
            }
            // Region-polymorphic list builder.
            4 => {
                let name = format!("fbl{i}");
                let mut env = vec![("k".to_string(), Ty::Int), ("s".to_string(), Ty::Int)];
                let elem = self.expr(&mut env, Ty::Int, 2);
                let next = self.expr(&mut env, Ty::Int, 1);
                out.push_str(&format!(
                    "fun {name} (k, s) = if k < 1 then nil \
                     else (({elem}) :: {name} (k - 1, (({next}) mod 97)))\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Int],
                    ret: Ty::IntList,
                    bounded: Some((0, 12)),
                });
            }
            // Region-polymorphic pair-list builder.
            5 => {
                let name = format!("fbp{i}");
                let mut env = vec![("k".to_string(), Ty::Int), ("s".to_string(), Ty::Int)];
                let x = self.expr(&mut env, Ty::Int, 2);
                let y = self.expr(&mut env, Ty::Int, 1);
                out.push_str(&format!(
                    "fun {name} (k, s) = if k < 1 then nil \
                     else ((({x}), ({y})) :: {name} (k - 1, s + 3))\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Int],
                    ret: Ty::PairList,
                    bounded: Some((0, 10)),
                });
            }
            // Tree builder (two recursive calls; depth clamped to 4).
            6 => {
                let name = format!("fbt{i}");
                let mut env = vec![("dd".to_string(), Ty::Int), ("s".to_string(), Ty::Int)];
                let v = self.expr(&mut env, Ty::Int, 2);
                let r = self.expr(&mut env, Ty::Int, 1);
                out.push_str(&format!(
                    "fun {name} (dd, s) = if dd < 1 then Leaf \
                     else Node ({name} (dd - 1, s + 1), ({v}), {name} (dd - 1, (({r}) mod 97)))\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Int],
                    ret: Ty::Tree,
                    bounded: Some((0, 4)),
                });
            }
            // Shape builder mixing all four constructors.
            7 => {
                let name = format!("fbs{i}");
                let mut env = vec![("dd".to_string(), Ty::Int), ("s".to_string(), Ty::Int)];
                let p = self.expr(&mut env, Ty::Int, 1);
                let k = self.expr(&mut env, Ty::Int, 1);
                out.push_str(&format!(
                    "fun {name} (dd, s) =\n\
                     \u{20} if dd < 1 then Pt (s, ({p}))\n\
                     \u{20} else (case ((s) mod 3 + 3) mod 3 of\n\
                     \u{20}     0 => Ln ({name} (dd - 1, s + 1), ({k}))\n\
                     \u{20}   | 1 => Qd ({name} (dd - 1, s + 1), {name} (dd - 1, s + 2), Nul)\n\
                     \u{20}   | _ => (if s < 9 then Nul else {name} (dd - 1, s div 2)))\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Int],
                    ret: Ty::Shape,
                    bounded: Some((0, 4)),
                });
            }
            // String builder: every iteration allocates (strings live in
            // the large-object space).
            8 => {
                let name = format!("fsb{i}");
                let mut env = vec![("k".to_string(), Ty::Int)];
                let piece = self.expr(&mut env, Ty::Str, 2);
                out.push_str(&format!(
                    "fun {name} (k, s) = if k < 1 then s \
                     else {name} (k - 1, (s ^ ({piece})))\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Str],
                    ret: Ty::Str,
                    bounded: Some((0, 5)),
                });
            }
            // Real accumulator (boxed floats through the collector).
            9 => {
                let name = format!("frl{i}");
                let mut env = vec![("k".to_string(), Ty::Int), ("x".to_string(), Ty::Real)];
                let step = self.expr(&mut env, Ty::Real, 2);
                out.push_str(&format!(
                    "fun {name} (k, x) = if k < 1 then x \
                     else {name} (k - 1, ((x + ({step})) * 0.5))\n"
                ));
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int, Ty::Real],
                    ret: Ty::Real,
                    bounded: Some((0, 6)),
                });
            }
            // Curried counter-driven recursion of two or three parameters:
            // the self-call is saturated, `call` sites are saturated, and
            // `partial` applies it to all but its last argument.
            11 => {
                let name = format!("fcu{i}");
                let n = 2 + self.rng.below(2) as usize;
                let ps = &["a", "b", "c"][..n];
                let mut env: Vec<(String, Ty)> =
                    ps.iter().map(|p| (p.to_string(), Ty::Int)).collect();
                let base = self.expr(&mut env, Ty::Int, 2);
                let pre = self.expr(&mut env, Ty::Int, 2);
                let rest: Vec<String> = (1..n)
                    .map(|_| format!("({})", self.expr(&mut env, Ty::Int, 1)))
                    .collect();
                let op = ["+", "-", "*"][self.rng.below(3) as usize];
                out.push_str(&format!(
                    "fun {name} {} = if a < 1 then {base} \
                     else ((({pre}) {op} {name} (a - 1) {}) mod 65521)\n",
                    ps.join(" "),
                    rest.join(" ")
                ));
                self.curried = Some(i);
                self.fns.push(FnSig {
                    name,
                    params: vec![Ty::Int; n],
                    ret: Ty::Int,
                    bounded: Some((0, 7)),
                });
            }
            // A region-polymorphic pair-list builder that escapes as a
            // value: chosen through an `if` against an anonymous wrapper
            // and applied where neither is known, so the builder is
            // entered through its closure stub (`EnterViaPair`) with two
            // region formals. Its first pair outlives the list that holds
            // it, so the two formals name regions of different lifetimes.
            // The optimiser calls every other generated function directly.
            12 => {
                let name = format!("fes{i}");
                let pick = format!("fep{i}");
                // The driver applies it on every iteration: no calls in
                // its element, so its cost stays a few allocations.
                self.calls = 0;
                let mut env = vec![("k".to_string(), Ty::Int)];
                let x = self.expr(&mut env, Ty::Int, 1);
                out.push_str(&format!(
                    "fun {name} k = if k < 1 then nil else ((({x}), k) :: {name} (k - 1))\n\
                     fun {pick} (j, k) =\n\
                     \u{20} let val ps =\n\
                     \u{20}   case (if (j + k) mod 2 = 0 then {name} else (fn n => {name} (n + 1))) k of\n\
                     \u{20}     nil => nil\n\
                     \u{20}   | p :: _ => [p, (j, k)]\n\
                     \u{20} in foldl (fn ((p, q), s) => (p * q + s) mod 65521) 0 ps end\n"
                ));
                self.escaping = Some(self.fns.len());
                self.fns.push(FnSig {
                    name: pick,
                    params: vec![Ty::Int, Ty::Int],
                    ret: Ty::Int,
                    bounded: Some((1, 10)),
                });
            }
            // A mutually recursive pair.
            _ => {
                let na = format!("fma{i}");
                let nb = format!("fmb{i}");
                let mut env = vec![("k".to_string(), Ty::Int)];
                let b0 = self.expr(&mut env, Ty::Int, 2);
                let s0 = self.expr(&mut env, Ty::Int, 2);
                let b1 = self.expr(&mut env, Ty::Int, 2);
                let s1 = self.expr(&mut env, Ty::Int, 2);
                out.push_str(&format!(
                    "fun {na} k = if k < 1 then {b0} else ((({s0}) + {nb} (k - 1)) mod 65521)\n\
                     and {nb} k = if k < 1 then {b1} else ((({s1}) - {na} (k - 1)) mod 65521)\n"
                ));
                self.fns.push(FnSig {
                    name: na,
                    params: vec![Ty::Int],
                    ret: Ty::Int,
                    bounded: Some((0, 8)),
                });
                self.fns.push(FnSig {
                    name: nb,
                    params: vec![Ty::Int],
                    ret: Ty::Int,
                    bounded: Some((0, 8)),
                });
            }
        }
    }
}

/// One random full-surface program. See the module docs for the grammar;
/// the fixed skeleton is: two datatypes, two exceptions, three mutable
/// globals (a large-object array, an array of refs, a list ref), six to
/// thirteen kinds of generated function (each at most once, the builders,
/// the curried function and the escaping builder always present), a
/// generated per-iteration `step`, and a recursive driver whose handler
/// chain catches everything so raising and non-raising iterations
/// interleave.
fn program_full(rng: &mut SplitMix64) -> String {
    let mut g = Gen::new(rng);
    let mut out = String::new();
    out.push_str("exception Boom of int\n");
    out.push_str("exception Crash of string\n");
    out.push_str("datatype tree = Leaf | Node of tree * int * tree\n");
    out.push_str(
        "datatype shape = Nul | Pt of int * int | Ln of shape * int \
         | Qd of shape * shape * shape\n",
    );
    out.push_str(&format!("val biga = array ({}, 7)\n", g.big_len));
    out.push_str(&format!("val cells = array ({CELLS}, ref 0)\n"));
    out.push_str("val lbox = ref [0]\n");

    // The allocating builders are always present (they are what makes
    // the program exercise the collector), and so are the curried function
    // (what makes it exercise uncurrying) and the escaping builder (what
    // makes it enter a closure stub); the folds and scalar kinds
    // are drawn at random on top, in a shuffled order so call edges vary.
    let mut kinds = vec![4, 6, 7, 8, 11, 12];
    for k in [0, 1, 2, 3, 5, 9, 10] {
        if g.rng.below(3) < 2 {
            kinds.push(k);
        }
    }
    // Fisher-Yates over the kind list, driven by the program seed.
    for i in (1..kinds.len()).rev() {
        let j = g.rng.below(i as u64 + 1) as usize;
        kinds.swap(i, j);
    }
    for k in kinds {
        g.emit_fn(&mut out, k);
    }

    // The per-iteration step: a deep generated expression over the loop
    // counter and accumulator, with a generous call budget.
    g.calls = 8;
    let mut env = vec![("n".to_string(), Ty::Int), ("acc".to_string(), Ty::Int)];
    let step = g.expr(&mut env, Ty::Int, 4);
    out.push_str(&format!("fun step (n, acc) = {step}\n"));

    // The driver: every iteration runs under the full handler chain, so
    // an exception anywhere in `step` feeds back into the accumulator
    // instead of ending the program. It also applies the escaping
    // builder, through its closure stub: `n + n mod 10` is even.
    let pick = &g.fns[g.escaping.expect("the escaping builder is always drawn")].name;
    out.push_str(&format!(
        "fun go n acc =\n\
         \u{20}  if n < 1 then acc\n\
         \u{20}  else go (n - 1) (((acc * 31 + {pick} (n, n mod 10) + step (n, acc)) \
         handle Div => ~1 | Overflow => ~2 | Subscript => ~3 | Size => ~4 \
         | Match => ~5 | Bind => ~6 | Boom k => ((k + acc) mod 65537) \
         | Crash s => (size s + acc)) mod 100003)\n"
    ));

    // A final observation outside the loop reads the mutated globals
    // back, so a mis-evacuated cell or array element changes the result
    // even when every in-loop read happened to dodge it.
    g.calls = 4;
    let mut env = Vec::new();
    let tail = g.expr(&mut env, Ty::Int, 3);
    let iters = 8 + g.rng.below(16);
    let seed = g.rng.below(1000);
    out.push_str(&format!(
        "val tail = ((({tail}) \
         handle Div => 3 | Overflow => 5 | Subscript => 7 | Size => 11 \
         | Match => 13 | Bind => 17 | Boom k => (k mod 1009) \
         | Crash s => size s)) mod 100003\n\
         val it = (go {iters} {seed} + tail + asub (biga, 1) + !(asub (cells, 0)) \
         + (case !lbox of nil => 0 | h :: _ => h mod 8191)) mod 100003\n"
    ));
    out
}

// ------------------------------------------------------------------------
// Config fuzzing
// ------------------------------------------------------------------------

/// The two random streams of soak case `case` under `seed`: one for
/// [`program`], one for [`fuzz_config`]. Both are functions of
/// `(seed, case)` alone — the case's base word is output number `case` of
/// `SplitMix64::new(seed)`, reached by one [`SplitMix64::skip`] — so case
/// *k* reproduces without generating cases 0…k−1, and a configuration arm
/// can come or go without renaming any program.
pub fn case_rngs(seed: u64, case: u64) -> (SplitMix64, SplitMix64) {
    const CONFIG_SALT: u64 = 0xC0F1_6C0F_16C0_F16C;
    let mut root = SplitMix64::new(seed);
    root.skip(case);
    let base = root.next_u64();
    (SplitMix64::new(base), SplitMix64::new(base ^ CONFIG_SALT))
}

/// A random runtime configuration for `mode`: page size, initial heap,
/// the collection trigger and heap-to-live ratio (the paper's §4 dials),
/// and (for the baseline mode) the generational policy are all fuzzed.
/// Every value must leave the counters the differential compares
/// fusion-invariant. `with_config` forces tagging and the collector
/// back to the mode's requirements, so the result is always well-formed.
pub fn fuzz_config(rng: &mut SplitMix64, mode: Mode) -> RtConfig {
    let mut cfg = RtConfig {
        // 32..512-word pages; tiny pages force collections mid-expression.
        page_words_log2: 5 + rng.below(5) as u32,
        initial_pages: [2, 4, 8, 64][rng.below(4) as usize],
        heap_to_live_ratio: [1.5, 3.0, 9.0][rng.below(3) as usize],
        // 1.0: every page taken schedules a collection at the next safe
        // point.
        gc_threshold: [1.0 / 3.0, 0.5, 1.0][rng.below(3) as usize],
        ..RtConfig::default()
    };
    if mode == Mode::Baseline {
        cfg.collector = Collector::Generational(GenPolicy {
            nursery_pages: [2, 8, 64][rng.below(3) as usize],
            major_growth: 2 + rng.below(3) as usize,
        });
    }
    // Wall-clock deadlines are drawn only at the two differential-safe
    // extremes: far-future (must be invisible — same counters as no
    // deadline at all) and already-expired (breaches at safe point 1 at
    // either fusion level, so the typed error is the same). A deadline
    // that lands *mid-run* would make the outcome depend on host timing,
    // which a differential harness cannot tolerate.
    match rng.below(16) {
        14 => cfg.deadline = Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
        // `now` itself is already expired by the time the VM checks it.
        15 => cfg.deadline = Some(std::time::Instant::now()),
        _ => {}
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use kit::Compiler;

    /// Every full-surface draw must be well-typed: a compile error here
    /// is a generator bug, not a runtime bug, and would silently turn
    /// soak cases into no-ops if the differential tolerated it.
    #[test]
    fn full_surface_programs_compile() {
        let mut rng = SplitMix64::new(0x5EED_0801);
        for case in 0..60 {
            let src = program(&mut rng, Surface::Full);
            if let Err(e) = Compiler::new(Mode::Rgt).compile_source(&src) {
                panic!("case {case} does not compile: {e}\n{src}");
            }
        }
    }

    /// The curried kind must reach every use the optimiser treats
    /// differently: saturated calls, a partial application bound to a
    /// `val`, one passed to `map`, and an effect in the first argument.
    #[test]
    fn full_surface_programs_use_the_curried_function_every_way() {
        let mut rng = SplitMix64::new(0x5EED_1700);
        let (mut saturated, mut held, mut mapped, mut effectful) = (0, 0, 0, 0);
        for _ in 0..60 {
            let src = program(&mut rng, Surface::Full);
            let body = src.split_once("fun fcu").expect("the curried kind").1;
            saturated += body.matches(" (a - 1) (").count();
            held += body.matches(" = (fcu").count();
            mapped += body.matches("(map (fcu").count();
            effectful += body.matches(" (let val _ = ").count();
        }
        assert!(
            saturated >= 60 && held >= 20 && mapped >= 20 && effectful >= 20,
            "{saturated} saturated, {held} held, {mapped} mapped, {effectful} effectful"
        );
    }

    /// Every draw enters a closure stub (`EnterViaPair`), in `r` and
    /// `rgt` alike: the driver applies the escaping builder on every
    /// iteration.
    #[test]
    fn full_surface_programs_enter_a_closure_stub() {
        let mut rng = SplitMix64::new(0x5EED_3300);
        for case in 0..10 {
            let src = program(&mut rng, Surface::Full);
            for mode in [Mode::R, Mode::Rgt] {
                let profile = Compiler::new(mode)
                    .with_fusion_profile()
                    .run_source(&src)
                    .unwrap_or_else(|e| panic!("case {case} [{mode}]: {e}\n{src}"))
                    .fusion_profile
                    .expect("a profiled run");
                let entered = profile.executions(kit::KamOp::EnterViaPair);
                assert!(entered > 0, "case {case} [{mode}] enters no stub\n{src}");
            }
        }
    }

    /// Case *k*'s program stream is seeded with output *k* of the seed's
    /// own generator (the one-step jump lands where stepping does), its
    /// configuration stream is a different one, and `fuzz_config` reaches
    /// every value of the two §4 dials.
    #[test]
    fn case_streams_jump_to_their_case_and_fuzz_config_turns_both_dials() {
        let mut stepped = SplitMix64::new(1);
        for case in 0..10 {
            let base = stepped.next_u64();
            let (mut prog, mut cfg) = case_rngs(1, case);
            let first = prog.next_u64();
            assert_eq!(first, SplitMix64::new(base).next_u64(), "case {case}");
            assert_ne!(first, cfg.next_u64(), "case {case}");
        }

        let mut seen = std::collections::BTreeSet::new();
        for case in 0..100 {
            let cfg = fuzz_config(&mut case_rngs(1, case).1, Mode::Rgt);
            seen.insert((
                (cfg.heap_to_live_ratio * 10.0) as u32,
                (cfg.gc_threshold * 100.0).round() as u32,
            ));
        }
        let ratios = [15, 30, 90];
        let all: Vec<_> = ratios
            .iter()
            .flat_map(|&r| [(r, 33), (r, 50), (r, 100)])
            .collect();
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
    }
}
