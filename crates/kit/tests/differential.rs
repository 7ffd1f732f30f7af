//! Differential tests: every execution mode (`r`, `rt`, `gt`, `rgt`, and
//! the generational baseline where a test asks for an answer) must
//! compute exactly the reference evaluator's rendered result and printed
//! output, and agree with itself at both fusion levels on everything,
//! every counter included. Each program goes through the one harness,
//! `kit_bench::differential::Differential`.
//!
//! The `rgt`/`gt` runs additionally execute under severe heap pressure
//! (tiny initial heap) so collections actually happen mid-computation. A
//! debug build poisons every page it frees, so the untagged `r` run also
//! catches a read through a pointer into a popped region.

use kit::{Compiler, Mode};
use kit_bench::differential::{answer, on_deep_stack, Differential};
use kit_runtime::config::{Collector, GenPolicy};
use kit_runtime::RtConfig;

const FUEL: u64 = 300_000_000;

/// `src` in the four paper modes, then in `gt` and `rgt` on a small heap
/// of small pages, through the harness: it must run to a value.
fn agrees(src: &str) {
    let pressure = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let runs = Mode::ALL
        .map(|mode| (mode, None))
        .into_iter()
        .chain([Mode::Gt, Mode::Rgt].map(|mode| (mode, Some(&pressure))));
    on_deep_stack(|| {
        let differential = Differential::new(src);
        for (mode, cfg) in runs {
            if let Err(e) = differential.agreed(mode, cfg, FUEL) {
                panic!("[{mode}] pressure {}: {e}\n{src}", cfg.is_some());
            }
        }
    });
}

/// What `src` answers — its result, or the exception that escapes — in
/// every mode, the baseline too, through the harness: it must be `want`.
fn answers(src: &str, want: &str) {
    on_deep_stack(|| {
        let differential = Differential::new(src);
        for mode in Mode::ALL_WITH_BASELINE {
            let agreed = differential.agreed(mode, None, FUEL);
            assert_eq!(answer(&agreed), want, "[{mode}]\n{src}");
        }
    });
}

#[test]
fn arithmetic() {
    agrees("val it = 2 + 3 * 4 - 1");
    agrees("val it = ~7 div 2 + ~7 mod 2");
    agrees("val it = (1 < 2, 2 <= 2, 3 > 4, 4 >= 5)");
}

#[test]
fn lists_and_prelude() {
    agrees("val it = length [1,2,3]");
    agrees("val it = rev [1,2,3]");
    agrees("val it = map (fn x => x * x) (upto (1, 10))");
    agrees("val it = foldl op+ 0 (upto (1, 100))");
    agrees("val it = [1,2] @ [3,4]");
    agrees("val it = filter (fn x => x mod 2 = 0) (upto (1, 20))");
}

#[test]
fn recursion_and_hofs() {
    agrees("fun fib n = if n < 2 then n else fib (n-1) + fib (n-2) val it = fib 18");
    agrees(
        "fun even 0 = true | even n = odd (n-1)
         and odd 0 = false | odd n = even (n-1)
         val it = (even 100, odd 99)",
    );
    agrees("fun twice f x = f (f x) val it = twice (twice (fn n => n + 1)) 0");
    agrees("fun compose2 f g = f o g val it = (compose2 (fn x => x*2) (fn x => x+1)) 10");
}

#[test]
fn currying_and_closures() {
    agrees("fun add x y = x + y  val add3 = add 3  val it = add3 4 + add3 5");
    agrees(
        "fun counter start =
           let val r = ref start
           in fn () => (r := !r + 1; !r) end
         val c = counter 10
         val _ = c ()
         val _ = c ()
         val it = c ()",
    );
    agrees(
        "fun make n = fn x => x + n
         val fs = map make [1, 2, 3]
         val it = map (fn f => f 10) fs",
    );
}

#[test]
fn datatypes_and_patterns() {
    agrees(
        "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
         fun insert (Leaf, x) = Node (Leaf, x, Leaf)
           | insert (Node (l, y, r), x) =
               if x < y then Node (insert (l, x), y, r)
               else Node (l, y, insert (r, x))
         fun sum Leaf = 0 | sum (Node (l, x, r)) = sum l + x + sum r
         val t = foldl (fn (x, acc) => insert (acc, x)) Leaf [5, 2, 8, 1, 9, 3]
         val it = sum t",
    );
    agrees(
        "datatype shape = Circle of real | Rect of real * real | Point
         fun area (Circle r) = floor (r * r * 3.0)
           | area (Rect (w, h)) = floor (w * h)
           | area Point = 0
         val it = area (Circle 2.0) + area (Rect (3.0, 4.0)) + area Point",
    );
    agrees(
        "datatype colour = Red | Green | Blue
         fun next Red = Green | next Green = Blue | next Blue = Red
         val it = next (next Red)",
    );
}

#[test]
fn deep_data_survives_collection() {
    agrees(
        "fun build 0 = nil | build n = (n, n * 2) :: build (n - 1)
         fun total nil = 0 | total ((a, b) :: xs) = a + b + total xs
         val it = total (build 2000)",
    );
}

#[test]
fn reals() {
    agrees("val it = floor (2.5 + 0.25 * 2.0)");
    agrees("val pi = 3.14159 val it = floor (pi * 100.0)");
    agrees("val it = floor (sqrt 16.0) + trunc ~2.7");
    agrees("val it = if 1.5 < 2.5 andalso 2.5 <= 2.5 then 1 else 0");
}

#[test]
fn strings() {
    agrees("val it = \"a\" ^ \"b\" ^ itos 42");
    agrees("val it = size (concat [\"aa\", \"bbb\", \"c\"])");
    agrees("val it = (\"abc\" < \"abd\", \"b\" < \"a\", \"x\" = \"x\")");
    agrees("val _ = print (\"hello \" ^ itos 1 ^ \"\\n\") val it = 0");
    agrees("val it = strsub (\"AZ\", 1)");
}

#[test]
fn equality() {
    agrees("val it = [1,2,3] = [1,2,3]");
    agrees("val it = (1, (true, \"s\")) = (1, (true, \"s\"))");
    agrees(
        "datatype t = A | B of int * t
         val it = (B (1, B (2, A)) = B (1, B (2, A)), B (1, A) = B (2, A))",
    );
}

#[test]
fn exceptions() {
    agrees("val it = (1 div 0) handle Div => 42");
    agrees(
        "exception Found of int
         fun find p nil = raise Found ~1
           | find p (x :: xs) = if p x then x else find p xs
         val it = (find (fn x => x > 100) [1, 2, 3]) handle Found n => n",
    );
    agrees(
        "exception A exception B of string
         fun f 0 = raise A | f 1 = raise B \"one\" | f n = n
         val it = ((f 0 handle A => 10) + (f 1 handle B s => size s) + f 5)",
    );
    agrees("val it = ((1 div 0) handle Subscript => 1) handle Div => 2");
    answers("val it = 1 div 0", "uncaught Div");
    answers("val it = hd nil", "uncaught Match");
    answers(
        "val a = array (2, 0) val it = asub (a, 2)",
        "uncaught Subscript",
    );
}

#[test]
fn refs_arrays_loops() {
    agrees(
        "val acc = ref 0
         val i = ref 0
         val _ = while !i < 100 do (acc := !acc + !i; i := !i + 1)
         val it = !acc",
    );
    agrees(
        "val a = array (20, 0)
         fun fill i = if i >= 20 then () else (aupdate (a, i, i * i); fill (i + 1))
         val _ = fill 0
         fun total (i, acc) = if i >= 20 then acc else total (i + 1, acc + asub (a, i))
         val it = total (0, 0)",
    );
    agrees("val r = ref [1,2] val _ = r := 0 :: !r val it = !r");
}

/// `asub` and `aupdate` one below the bounds, at the length and at
/// `minInt` raise `Subscript`, with a literal index and with one only the
/// run sees; an empty array has length 0 and no element.
#[test]
fn array_bounds() {
    let a = "val a = array (3, 7)\n";
    let get = "fun get (0, a, i) = asub (a, i) | get (k, a, i) = get (k - 1, a, i)\n";
    let set = "fun set (0, a, i) = aupdate (a, i, 5) | set (k, a, i) = set (k - 1, a, i)\n";
    for i in ["~1", "alength a", "(~4611686018427387903 - 1)"] {
        let cases = [
            format!("{a}val it = asub (a, {i})"),
            format!("{a}{get}val it = get (3, a, {i})"),
            format!("{a}val it = aupdate (a, {i}, 5)"),
            format!("{a}{set}val it = set (3, a, {i})"),
        ];
        for src in cases {
            answers(&src, "uncaught Subscript");
        }
        answers(
            &format!("{a}{get}val it = (get (3, a, {i}) handle Subscript => 35) + asub (a, 2)"),
            "42",
        );
    }
    answers(
        &format!("{a}{set}val _ = set (3, a, 0) val _ = aupdate (a, 2, 9)\nval it = (asub (a, 0), asub (a, 1), asub (a, 2), alength a)"),
        "(5, 7, 9, 3)",
    );
    answers("val it = alength (array (0, 7))", "0");
    answers("val it = asub (array (0, 7), 0)", "uncaught Subscript");
    answers(
        "val it = aupdate (array (0, 7), 0, 1)",
        "uncaught Subscript",
    );
}

/// An array element as a branch condition: `if asub (a, i)` compiles to a
/// prim and a `JumpIfFalse`, which fusion joins into one compare-and-branch
/// handler, so the array read runs there and not in the value handlers.
/// Literal and run-time indices, in bounds and out.
#[test]
fn branch_on_an_array_element() {
    let a = "val a = array (3, true) val _ = aupdate (a, 2, false)\n";
    let f = "fun f (0, a, i) = (if asub (a, i) then 1 else 0) | f (k, a, i) = f (k - 1, a, i)\n";
    let count = "fun count (i, n) = if i >= alength a then n\n\
                 \u{20}  else count (i + 1, if asub (a, i) then n + 1 else n)\n";
    let cases = [
        (format!("{a}val it = if asub (a, 1) then 1 else 0"), "1"),
        (format!("{a}val it = if asub (a, 2) then 1 else 0"), "0"),
        (
            format!("{a}val it = if asub (a, 3) then 1 else 0"),
            "uncaught Subscript",
        ),
        (
            format!("{a}{f}val it = (f (3, a, 0), f (3, a, 2))"),
            "(1, 0)",
        ),
        (format!("{a}{f}val it = f (3, a, ~1)"), "uncaught Subscript"),
        (format!("{a}{count}val it = count (0, 0)"), "2"),
    ];
    for (src, want) in cases {
        answers(&src, want);
    }
}

/// The baseline's write barrier on arrays. The array lives in a pair that
/// a minor collection tenures, so no later minor collection scans it: a
/// list stored into it afterwards, freshly allocated in the nursery,
/// survives the minor collections the next call forces (a two-page
/// nursery) only because the store remembered its field.
#[test]
fn a_list_stored_into_a_tenured_array_survives_minor_collections() {
    let src = "val box = (array (8, nil), 0)\n\
               fun tab () = case box of (a, _) => a\n\
               fun junk (0, acc) = length acc | junk (n, acc) = junk (n - 1, n :: acc)\n\
               fun fill i = if i >= 8 then 0\n\
               \u{20}  else (aupdate (tab (), i, [i, 2 * i, 3 * i]); junk (300, nil) + fill (i + 1))\n\
               fun total (i, acc) = if i >= 8 then acc\n\
               \u{20}  else total (i + 1, acc + foldl op+ 0 (asub (tab (), i)))\n\
               val n = fill 0\n\
               val it = (n, total (0, 0))";
    let config = RtConfig {
        collector: Collector::Generational(GenPolicy {
            nursery_pages: 2,
            ..GenPolicy::default()
        }),
        ..RtConfig::gt()
    };
    let out = Differential::new(src)
        .agreed(Mode::Baseline, Some(&config), u64::MAX)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(out.result, "(2400, 168)");
    assert!(
        out.stats.minor_gcs >= 8,
        "{} minor collections",
        out.stats.minor_gcs
    );
}

#[test]
fn escaping_closures_and_regions() {
    // The §2.6 shape: a closure captures a pair it never uses.
    agrees(
        "fun f x = 17
         fun g v = fn y => f v + y
         val h = g (2, 3)
         val it = h 5",
    );
    // Closure capturing data that must survive region exits.
    agrees(
        "fun make () = let val data = upto (1, 50) in fn () => length data end
         val f = make ()
         val it = f () + f ()",
    );
}

#[test]
fn region_polymorphic_recursion_survives() {
    agrees(
        "fun msort nil = nil
           | msort [x] = [x]
           | msort xs =
             let
               fun split (nil, a, b) = (a, b)
                 | split (x :: rest, a, b) = split (rest, x :: b, a)
               fun merge (nil, ys) = ys
                 | merge (xs, nil) = xs
                 | merge (x :: xs, y :: ys) =
                     if x <= y then x :: merge (xs, y :: ys)
                     else y :: merge (x :: xs, ys)
               val (a, b) = split (xs, nil, nil)
             in
               merge (msort a, msort b)
             end
         fun mk (0, acc) = acc | mk (n, acc) = mk (n - 1, (n * 7919) mod 1000 :: acc)
         val sorted = msort (mk (500, nil))
         val it = (hd sorted, hd (rev sorted), length sorted)",
    );
}

#[test]
fn printing_order_is_preserved() {
    agrees(
        "fun show n = print (itos n ^ \" \")
         val _ = app show (upto (1, 10))
         val it = ()",
    );
}

#[test]
fn large_tail_recursion() {
    agrees(
        "fun go (0, acc) = acc | go (n, acc) = go (n - 1, acc + n)
         val it = go (200000, 0)",
    );
}

#[test]
fn polymorphic_functions_shared_across_types() {
    agrees("val it = (length (map id [1,2,3]), length (map id [true, false]))");
    agrees("val p = (id 1, id \"x\", id 2.5) val it = p");
}

#[test]
fn gc_actually_ran_under_pressure() {
    let cfg = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt)
        .with_config(cfg)
        .run_source(
            "fun burn 0 = 0 | burn n = length (upto (1, 50)) + burn (n - 1)
             val it = burn 200",
        )
        .unwrap();
    assert!(
        out.stats.gc_count > 0,
        "expected collections under pressure"
    );
    assert_eq!(out.result_int(), Some(10000));
}
