//! Minimized reproducers for bugs found by the randomized differential.
//!
//! PR 3's int-expression fuzzer caught the dangling dead-slot root bug
//! (a slot left behind by its scope stayed a root; the frame map now
//! names only the slots in scope, DESIGN.md "Roots");
//! this file holds the bugs the PR 8 full-surface generator and the
//! widened configuration fuzzing surfaced. Each test is the smallest
//! program + config pair that reproduced the failure, named after the
//! defect, so a regression bisects in one `cargo test` run. PR 14's
//! pruning of the unused prelude (which had made every program's first
//! collection happen at start-up, on a grown heap) exposed the last one.

use kit::{Compiler, Mode};
use kit_bench::differential::{on_deep_stack, Differential};
use kit_runtime::RtConfig;

/// `letregion` placement collected a marker's bindable region variables
/// (and the leftover global regions) by iterating a `HashMap`, so the
/// order regions were pushed at runtime depended on the per-map hash
/// seed — a fresh compile of the *same source* could produce a
/// different region-stack layout. Every logical counter still agreed
/// (the bindings are order-insensitive), but anything that walks
/// regions by id saw a different stack — first observed through the
/// since-deleted parallel collector, whose contiguous-id work partition
/// made `peak_bytes` wobble across runs of `professor`, in-process and
/// across processes. Fixed by sorting both candidate lists; this pins
/// the whole layout chain down: the global-region push order of fresh
/// compiles, and every collection record of the runs on top of it.
#[test]
fn region_layout_and_gc_peak_are_stable_across_compiles() {
    let bench = kit_bench::by_name("professor").expect("professor benchmark exists");
    // Twice the test scale: at test scale the run collected twice only
    // while the unused prelude's global regions each held a page.
    let src = bench.source_scaled(2 * bench.test_scale);
    // A fresh compile per run: the disassembly carries the `letregion`
    // binding order and the global-region push order.
    let run = || {
        let compiler = Compiler::new(Mode::Rgt);
        let prog = compiler.compile_source(&src).unwrap();
        let listing = kit_kam::disasm::disassemble(&prog, kit::Fusion::Off);
        (compiler.run_program(&prog).unwrap(), listing)
    };
    let (first, first_listing) = run();
    assert!(
        first.stats.gc_count >= 2,
        "reproducer must actually collect"
    );
    for i in 1..3 {
        let (next, listing) = run();
        assert_eq!(listing, first_listing, "compile {i}: region layout differs");
        assert_eq!(
            (
                &next.result,
                next.instructions,
                next.stats.gc_count,
                next.stats.gc_copied_words,
                next.stats.heap_grows,
                next.stats.peak_bytes,
                format!("{:?}", next.stats.gc_records),
            ),
            (
                &first.result,
                first.instructions,
                first.stats.gc_count,
                first.stats.gc_copied_words,
                first.stats.heap_grows,
                first.stats.peak_bytes,
                format!("{:?}", first.stats.gc_records),
            ),
            "compile {i} must reproduce the layout of compile 0 exactly"
        );
    }
}

/// `go` binds a region-local value, raises while it is live and handles
/// the exception *itself*: `do_raise` pops the `letregion`'s regions but
/// the frame survives with the binding's slot still pointing into them.
/// When every local was a root, the scope-exit clear of that slot was
/// jumped over, so the collection inside the allocating call that
/// follows traced a root into a freed region. The frame map holds by
/// construction: at that call the slot is past the slots in scope.
/// `local` is that value and the raise, `grow` sizes the call, and the
/// kept list holds `elem`s (matched by `pat`, summed as `add`).
fn raise_past_a_region_local(
    local: &str,
    (elem, pat, add): (&str, &str, &str),
    grow: u32,
    rounds: u32,
) -> String {
    format!(
        "fun build (k, acc) = if k < 1 then acc else build (k - 1, {elem} :: acc)\n\
         fun sum (nil, a) = a | sum ({pat} :: xs, a) = sum (xs, (a + {add}) mod 100003)\n\
         fun go (n, keep) =\n\
         \u{20} if n < 1 then sum (keep, 0)\n\
         \u{20} else\n\
         \u{20}   let val r = ({local}) handle Subscript => 7 | Div => 9\n\
         \u{20}       val keep2 = build ({grow} + r, keep)\n\
         \u{20}   in (go (n - 1, keep2) + 1) mod 100003 end\n\
         val it = go ({rounds}, nil)"
    )
}

/// The reproducer must agree with the reference evaluator at both fusion
/// levels ([`Differential`]) in `rgt` under the default heap and under
/// page pressure, and collect in at least one of them.
fn agrees_under_pressure_and_collects(src: &str) {
    let differential = Differential::new(src);
    let pressure = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let mut collections = 0;
    for config in [RtConfig::rgt(), pressure] {
        let out = differential
            .agreed(Mode::Rgt, Some(&config), u64::MAX)
            .unwrap_or_else(|e| panic!("{} initial pages: {e}", config.initial_pages));
        collections += out.stats.gc_count;
    }
    assert!(collections > 0, "reproducer must actually collect");
}

/// The stale slot holds an array: a large object, freed with its region,
/// so the collector panicked with `dangling large-object id`.
#[test]
fn raise_handled_in_its_own_frame_leaves_no_root_into_the_popped_region_array() {
    let local = "let val v = array (4, n) in asub (v, 4 + n - n) + alength v end";
    on_deep_stack(move || {
        let ints = ("k", "x", "x");
        agrees_under_pressure_and_collects(&raise_past_a_region_local(local, ints, 4000, 60));
        agrees_under_pressure_and_collects(&raise_past_a_region_local(local, ints, 40, 40));
    });
}

/// The stale slot holds a list cell: its page went back to the free list
/// and was handed to a region of four-word objects, so the root pointed
/// into the middle of one (`corrupt tag kind` in release, the dangling-
/// root check in debug).
#[test]
fn raise_handled_in_its_own_frame_leaves_no_root_into_the_popped_region_boxed() {
    let local = "let val v = build (2, nil) in sum (v, 0) div (n - n) + sum (v, 1) end";
    on_deep_stack(move || {
        let triples = ("(k, k + 1, k + 2)", "(x, y, z)", "x + y + z");
        agrees_under_pressure_and_collects(&raise_past_a_region_local(local, triples, 40, 40));
    });
}

/// A heap list cell pointing at a stack-allocated pair, made deep in a
/// recursion and dead once it unwinds, while 1500 live cells are copied
/// by every collection (32-word pages, 4 to start). The only test that
/// leaves dead cells pointing into popped frames in the heap: a collector
/// that reached one would index past the stack top or set a mark bit in
/// whatever the slot holds now.
///
/// * `gt` keeps the dead cells in its one never-popped region until a
///   collection drops them, so every collection flips pages that hold
///   pointers into frames long gone and must trace from the roots alone.
/// * `rgt` depends on `filter`'s inner `fn` capturing the formal region
///   it allocates the result in: while `letregion::place` listed every
///   formal as a global and capture analysis skipped globals, the cells
///   landed in a global twin that is never popped (PR 17; `filter p l` is
///   one call since).
#[test]
fn dead_heap_cells_pointing_into_popped_frames_are_never_traced() {
    const SRC: &str = "\
        fun f n =\n\
        \u{20} let val l = filter (fn (p, q) => p < q) [(n, n + 1)]\n\
        \u{20} in (case l of (a, _) :: _ => a | nil => 0) end\n\
        fun deep (d, n) = if d < 1 then f n else deep (d - 1, n) + 1\n\
        fun churn (k, acc) = if k < 1 then acc else churn (k - 1, k :: acc)\n\
        fun len (nil, n) = n | len (_ :: t, n) = len (t, n + 1)\n\
        fun go (n, keep, acc) =\n\
        \u{20} if n < 1 then acc + len (keep, 0)\n\
        \u{20} else go (n - 1, keep, (acc + deep (30, n) + len (churn (40, nil), 0)) mod 100003)\n\
        val it = go (300, churn (1500, nil), 0)";
    on_deep_stack(|| {
        let differential = Differential::new(SRC);
        let pressure = RtConfig {
            initial_pages: 4,
            page_words_log2: 5,
            ..RtConfig::rgt()
        };
        for mode in [Mode::Gt, Mode::Rgt] {
            let out = differential
                .agreed(mode, Some(&pressure), u64::MAX)
                .unwrap_or_else(|e| panic!("{mode}: {e}"));
            assert!(out.stats.gc_count > 5, "{mode}: must collect");
        }
    });
}
