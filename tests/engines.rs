//! Tier-1 engine check: the engine with fusion off (base handlers only,
//! the differential oracle) and on (every superinstruction, the
//! production setting) must agree bit for bit on two small programs in
//! all four paper modes — and with the `kit-lambda` reference evaluator on
//! what the program computes. Every such comparison goes through the one
//! harness, [`kit_bench::differential::Differential`]; the tests here add
//! their own assertions to what it returns. The corpus-wide and
//! randomized versions live in `crates/bench/tests` and run from
//! `scripts/verify.sh`.
//!
//! The same runs are held to recorded counts ([`PINS`]), so a change to
//! the machine's *mechanism* (allocator, frame push, collector kernel)
//! that moves a count fails here, not only in `verify.sh`.
//!
//! The collector is one more input: the two collectors that share the
//! kernel (full, generational) each run churn at both fusion levels, the
//! full one also at the heap-to-live ratio DESIGN.md §6g points callers
//! to; and two programs that barely collect by default run with a
//! collection scheduled by every page taken.
//!
//! What the production setting runs is also checked as a structure, not
//! only through results: its fused stream must be a regrouping of the
//! unfused stream (`kit_bench::fusion_check`).

use kit::{Compiler, Fusion, Mode, RtConfig};
use kit_bench::by_name;
use kit_bench::differential::{answer, Differential};
use kit_bench::fusion_check::assert_fusion_regroups;
use kit_runtime::config::{Collector, GenPolicy};

/// Both fusion levels, the oracle first, for the tests that run the
/// engine themselves.
const FUSIONS: [Fusion; 2] = [Fusion::Off, Fusion::Full];

/// `[instructions, words_allocated, allocations, gc_count,
/// gc_copied_words, regions_created, dispatches]` per mode in
/// [`Mode::ALL`] order, recorded at PR 17, whose parent is `3ef114d`;
/// `dispatches`, the `Fusion::Full` run's read off its per-pc profile,
/// was added when fusion came to take the fewest groups over rows chosen
/// by the dispatches they save (fib 27 145 → 15 971 in every mode, churn
/// 63 996 → 44 718 and `gt` 63 960 → 44 694), so a fusion table or parse
/// that dispatches more fails here. A PR that changes the
/// compiler, the bytecode or the GC schedule on purpose re-records them
/// and says so. PR 17 did, for churn only (fib has no curried function, no
/// allocation and no region formal, and did not move): `build2 n acc` is
/// one tail call instead of a closure in a fresh `letregion` per step
/// (189 982 → 105 038 instructions, 15 318 → 10 506 allocations, 4 861 →
/// 46 regions), 7 formal regions are no longer pushed as globals at
/// start-up (46 → 39), and with fewer page requests the collector runs
/// later and less often (`rgt` 4 → 2 collections, which then find more
/// live: 6 502 → 29 340 words copied; `gt` 3 → 2, 40 220 → 32 561).
/// Churn's instructions were re-recorded once more (105 038 → 105 014,
/// `gt` 105 014 → 104 990) when the roots came to be read from the frame
/// map and the 12 slot clears it executed (two instructions each) went.
const PINS: [(&str, i64, [[u64; 7]; 4]); 2] = [
    (
        "fib",
        16,
        [
            [39916, 0, 0, 0, 0, 0, 15971],
            [39916, 0, 0, 0, 0, 0, 15971],
            [39916, 0, 0, 0, 0, 1, 15971],
            [39916, 0, 0, 0, 0, 0, 15971],
        ],
    ),
    (
        "churn",
        12,
        [
            [105014, 23314, 10506, 0, 0, 39, 44718],
            [105014, 33820, 10506, 0, 0, 39, 44718],
            [104990, 33820, 10506, 2, 32561, 1, 44694],
            [105014, 33820, 10506, 2, 29340, 39, 44718],
        ],
    ),
];

#[test]
fn oracle_and_production_engine_agree_in_every_mode() {
    let mut collected = false;
    for (name, scale, pins) in PINS {
        let src = by_name(name).unwrap().source_scaled(scale);
        let differential = Differential::new(&src);
        for (mode, pin) in Mode::ALL.into_iter().zip(pins) {
            let out = differential
                .agreed(mode, None, u64::MAX)
                .unwrap_or_else(|e| panic!("{name} [{mode}]: {e}"));
            let s = &out.stats;
            let profiled = Compiler::new(mode)
                .with_fusion_profile()
                .run_source(&src)
                .unwrap_or_else(|e| panic!("{name} [{mode}]: {e}"));
            let dispatches = profiled.fusion_profile.map(|p| p.dispatches());
            assert_eq!(
                [
                    out.instructions,
                    s.words_allocated,
                    s.allocations,
                    s.gc_count,
                    s.gc_copied_words,
                    s.regions_created,
                    dispatches.expect("a profiled run")
                ],
                pin,
                "{name} [{mode}]: counts moved from the recorded ones"
            );
            collected |= s.gc_count > 0;
        }
    }
    assert!(
        collected,
        "no run collected: the GC counters were never tested"
    );
}

#[test]
fn the_fused_stream_is_a_regrouping_of_the_stream_the_oracle_runs() {
    for (name, scale, _) in PINS {
        let src = by_name(name).unwrap().source_scaled(scale);
        for mode in Mode::ALL {
            let prog = Compiler::new(mode)
                .compile_source(&src)
                .unwrap_or_else(|e| panic!("{name} [{mode}]: {e}"));
            let full = assert_fusion_regroups(&prog, &format!("{name} [{mode}]"));
            let fused = full.ops.iter().any(|op| op.is_fused());
            assert!(fused, "{name} [{mode}]: nothing fused");
        }
    }
}

/// Fuel is charged for each instruction before it runs, a
/// superinstruction for all it stands for: a run of `n` instructions
/// completes on a budget of exactly `n`, with the result it has without
/// one, and runs out on `n − 1`, in `r` and `rgt` at both fusion levels.
/// A program whose exception escapes is held to its boundary the same
/// way: the `asub` at index `~1` that raises `Subscript`, out of the
/// fused `LoadLoadPrim` at full fusion, is instruction [`ESCAPE_AT`].
#[test]
fn fuel_runs_out_exactly_one_instruction_short() {
    let out_of_fuel = Err(kit::Error::Run(kit_kam::VmError::OutOfFuel));
    for name in ["fib", "tak", "accum", "msort", "machine", "kitlife"] {
        let bench = by_name(name).unwrap();
        let src = bench.source_scaled(bench.test_scale);
        for mode in [Mode::R, Mode::Rgt] {
            for fusion in FUSIONS {
                let compiler = Compiler::new(mode).with_fusion(fusion);
                let prog = compiler.compile_source(&src).unwrap();
                let ctx = format!("{name} [{mode}] {fusion:?}");
                let free = compiler
                    .run_program(&prog)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let n = free.instructions;
                let run = |fuel| compiler.clone().with_fuel(fuel).run_program(&prog);
                let exact = run(n).unwrap_or_else(|e| panic!("{ctx} on {n}: {e}"));
                assert_eq!(
                    (exact.result, exact.output, exact.instructions),
                    (free.result, free.output, n),
                    "{ctx} on its own count"
                );
                assert_eq!(
                    run(n - 1).map(|o| o.result),
                    out_of_fuel,
                    "{ctx} on {}",
                    n - 1
                );
            }
        }
    }
    let src = "fun sum (a, i, acc) = sum (a, i - 1, asub (a, i) + acc)\n\
               val it = sum (array (40, 1), 39, 0)";
    let escaped = Err(kit::Error::Run(kit_kam::VmError::UncaughtException {
        name: "Subscript".into(),
        backtrace: String::new(),
    }));
    for mode in [Mode::R, Mode::Rgt] {
        for fusion in FUSIONS {
            let run = |fuel| {
                Compiler::new(mode)
                    .with_fusion(fusion)
                    .with_fuel(fuel)
                    .run_source(src)
                    .map(|o| o.result)
            };
            assert_eq!(run(ESCAPE_AT), escaped, "[{mode}] {fusion:?}");
            assert_eq!(run(ESCAPE_AT - 1), out_of_fuel, "[{mode}] {fusion:?}");
        }
    }
}

/// The instruction that raises in the escaping program of
/// [`fuel_runs_out_exactly_one_instruction_short`], in `r` and `rgt`: the
/// main program's 11, 13 in each of the 40 calls at `39` down to `0`,
/// and 10 in the call at `~1`.
const ESCAPE_AT: u64 = 541;

/// The collector axis. The full collector runs in `rgt`; the generational
/// one needs the single program region of `Mode::Baseline` (the runtime
/// asserts it). Each must collect, compute what the reference evaluator
/// computes, and count the same at both fusion levels. The two full rows start
/// from the same four pages and differ in the paper's §4 dial alone: a
/// heap-to-live ratio of 9 must buy strictly fewer collections than 3.
#[test]
fn every_collector_agrees_with_the_evaluator_on_both_engines() {
    let src = by_name("churn").unwrap().source_scaled(12);
    let differential = Differential::new(&src);
    let small = RtConfig {
        initial_pages: 4,
        ..RtConfig::rgt()
    };
    let collectors = [
        ("full", Mode::Rgt, small.clone()),
        (
            "generational",
            Mode::Baseline,
            RtConfig {
                collector: Collector::Generational(GenPolicy::default()),
                ..RtConfig::rgt()
            },
        ),
        (
            "full, ratio 9",
            Mode::Rgt,
            RtConfig {
                heap_to_live_ratio: 9.0,
                ..small
            },
        ),
    ];
    let mut gc_counts = Vec::new();
    for (collector, mode, config) in collectors {
        let out = differential
            .agreed(mode, Some(&config), u64::MAX)
            .unwrap_or_else(|e| panic!("churn [{collector}]: {e}"));
        let s = &out.stats;
        assert!(s.gc_count > 0, "churn [{collector}] never collected");
        assert_eq!(
            s.minor_gcs > 0,
            matches!(config.collector, Collector::Generational(_)),
            "churn [{collector}] ran a different collector"
        );
        gc_counts.push(s.gc_count);
    }
    assert!(
        gc_counts[2] < gc_counts[0],
        "ratio 9 collected {} times, ratio 3 {}",
        gc_counts[2],
        gc_counts[0]
    );
}

/// A raise from two frames down — `inner` called by `middle`, each with
/// its own `letregion`s open — caught in `outer`, a frame with a region
/// formal and open `letregion`s of its own, whose handler then allocates
/// into both. With region handles in frame words, the unwind must leave
/// the handler frame's formal slot and its open regions' ids intact and
/// pop exactly the regions opened below it. A small heap makes the
/// collector run across the unwinds.
#[test]
fn a_raise_out_of_open_letregions_lands_in_a_frame_with_formals_and_regions() {
    use kit_kam::instr::RegSlot;
    use kit_kam::threaded::{Args, Op};
    use kit_runtime::Rt;
    let src = "exception Boom of int\n\
               fun inner (d, n) =\n\
               \u{20} let val l = [n, n + 1, n + 2]\n\
               \u{20} in if d > 0 then inner (d - 1, n) + length l\n\
               \u{20}    else if length l + n > 4 then raise Boom (hd l) else length l end\n\
               fun middle (d, n) =\n\
               \u{20} let val l = [n, n]\n\
               \u{20} in if d > 0 then middle (d - 1, n) + length l\n\
               \u{20}    else inner (1, n + length l) + length l end\n\
               fun outer (d, xs, n) =\n\
               \u{20} let val tmp = [n, n, n]\n\
               \u{20} in if d > 0 then outer (d - 1, xs, n) + length tmp\n\
               \u{20}    else length ((middle (1, n) :: xs)\n\
               \u{20}                 handle Boom k => k :: length (k :: tmp) :: xs) end\n\
               fun loop (0, acc) = acc\n\
               \u{20} | loop (i, acc) = loop (i - 1, acc + outer (1, [acc, i], i))\n\
               val it = loop (300, 0)";
    let differential = Differential::new(src);
    let Ok(Ok((want, _))) = differential.evaluated() else {
        panic!("evaluator: {:?}", differential.evaluated());
    };
    let config = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let compiler = Compiler::new(Mode::Rgt).with_config(config.clone());
    let prog = compiler.compile_source(src).unwrap();
    // The shape the test is about: `outer` handles inside a `letregion`
    // and allocates into a formal region and a `letregion`-bound one.
    // Its code runs up to `loop`'s, the next function declared.
    let addr = |name: &str| {
        let f = prog.funs.iter().position(|f| f.name == name).unwrap();
        prog.code.entry_pc[f] as usize
    };
    let body = addr("outer")..addr("loop");
    let has = |p: &dyn Fn(Op, &Args) -> bool| {
        body.clone()
            .any(|pc| p(prog.code.ops[pc], &prog.code.args[pc]))
    };
    assert!(has(&|op, _| op == Op::PushHandler));
    assert!(has(&|op, _| op == Op::LetRegion));
    for place in [RegSlot::Formal(1), RegSlot::Local(0)] {
        assert!(
            has(&|op, x| op == Op::MkCon && x.at == Some(place)),
            "no allocation at {place:?}"
        );
    }
    let counts = FUSIONS.map(|fusion| {
        let out = kit_kam::Vm::new(&prog, Rt::new(config.clone()))
            .with_fusion(fusion)
            .run()
            .unwrap_or_else(|e| panic!("{fusion:?}: {e}"));
        let result =
            kit_kam::render::render_value(&out.rt, out.result, &prog.result_ty, &prog.data);
        assert_eq!(result, *want, "{fusion:?} vs evaluator");
        out.rt
            .check_page_conservation()
            .unwrap_or_else(|e| panic!("{fusion:?}: {e}"));
        assert_eq!(
            out.rt.region_depth(),
            prog.global_infinite.len(),
            "{fusion:?}: a region outlived its frame"
        );
        (
            out.instructions,
            out.stats.gc_count,
            out.stats.gc_copied_words,
        )
    });
    assert_eq!(counts[0], counts[1], "the fusion levels count differently");
    assert!(counts[0].1 > 0, "the heap was sized to force collections");
}

/// `minInt div ~1` is the one quotient outside the 63-bit range: the
/// reference evaluator and every mode at both fusion levels raise `Overflow` for
/// it, whether the optimiser sees the operands or only the run does, and
/// `minInt mod ~1` is 0. The run sees them as two loaded operands
/// (`LoadLoadPrim`), or as a loaded dividend and a constant divisor
/// (`LoadConstPrim`) or a computed one and a constant (`PushConstPrim`) —
/// the shapes of the fused handlers' fast path — where a zero divisor
/// raises `Div` and `div`/`mod` round the quotient down.
#[test]
fn min_int_div_minus_one_overflows_in_every_mode_and_engine() {
    let min_int = "(~4611686018427387903 - 1)";
    let through_a_function = |a: &str, op: &str, b: &str| {
        format!(
            "fun f (0, a, b) = a {op} b | f (k, a, b) = f (k - 1, a, b)\n\
             val it = f (3, {a}, {b})"
        )
    };
    // `body` over the run-time value `a`.
    let by_a_constant = |body: &str, a: &str| {
        format!("fun g (0, a) = {body} | g (k, a) = g (k - 1, a)\nval it = g (3, {a})")
    };
    let mut cases = vec![
        (format!("val it = {min_int} div ~1"), "uncaught Overflow"),
        (
            through_a_function(min_int, "div", "~1"),
            "uncaught Overflow",
        ),
        (format!("val it = {min_int} mod ~1"), "0"),
        (through_a_function(min_int, "mod", "~1"), "0"),
        (by_a_constant("a div ~1", min_int), "uncaught Overflow"),
        (by_a_constant("a mod ~1", min_int), "0"),
        (by_a_constant("a mod 0", "7"), "uncaught Div"),
        (by_a_constant("a div 0", "7"), "uncaught Div"),
        (
            by_a_constant("(a - 1) div ~1", "~4611686018427387903"),
            "uncaught Overflow",
        ),
        (by_a_constant("(a - 1) mod 0", "7"), "uncaught Div"),
    ];
    // `a` and `a + 1`, for the computed dividend `a + 1 - 1`.
    for (a, a1, op, b, want) in [
        ("~7", "~6", "div", "2", "~4"),
        ("~7", "~6", "mod", "2", "1"),
        ("7", "8", "mod", "~2", "~1"),
    ] {
        cases.push((format!("val it = {a} {op} {b}"), want));
        cases.push((through_a_function(a, op, b), want));
        cases.push((by_a_constant(&format!("a {op} {b}"), a), want));
        cases.push((by_a_constant(&format!("(a - 1) {op} {b}"), a1), want));
    }
    for (src, want) in &cases {
        let differential = Differential::new(src);
        for mode in Mode::ALL_WITH_BASELINE {
            let agreed = differential.agreed(mode, None, u64::MAX);
            assert_eq!(answer(&agreed), *want, "{src}: [{mode}]");
        }
    }
}

/// `floor` and `trunc` of a real whose integral part leaves the 63-bit
/// range — a huge magnitude, an infinity, NaN, or `2^62` (the real nearest
/// `4611686018427387903`) — raise `Overflow` in the reference evaluator
/// and in every mode at both fusion levels (SML raises `Domain` for NaN; this
/// subset has no `Domain`), whether the optimiser sees the operand or only
/// the run does. The range's ends convert.
#[test]
fn floor_and_trunc_out_of_range_overflow_in_every_mode_and_engine() {
    let table = [
        ("trunc", "1e300", "uncaught Overflow"),
        ("floor", "(~1e300)", "uncaught Overflow"),
        ("floor", "4611686018427387903.0", "uncaught Overflow"),
        ("trunc", "(1.0 / 0.0)", "uncaught Overflow"),
        ("floor", "(0.0 / 0.0)", "uncaught Overflow"),
        ("floor", "(~4611686018427387904.0)", "~4611686018427387904"),
        ("trunc", "4611686018427387392.0", "4611686018427387392"),
        ("floor", "(~2.5)", "~3"),
        ("trunc", "(~2.5)", "~2"),
    ];
    for (f, x, want) in table {
        let literal = format!("val it = {f} {x}");
        let through_a_function =
            format!("fun g (0, x) = {f} x | g (k, x) = g (k - 1, x)\nval it = g (3, {x})");
        for src in [literal, through_a_function] {
            let differential = Differential::new(&src);
            for mode in Mode::ALL_WITH_BASELINE {
                let agreed = differential.agreed(mode, None, u64::MAX);
                assert_eq!(answer(&agreed), want, "{src}: [{mode}]");
            }
        }
    }
}

/// Collections where the checks can bite: `kitkb` and `simple` allocate
/// but collect at most once at their default settings. With a collection
/// scheduled by every page taken (`gc_threshold` 1.0; the generational
/// collector, which that threshold does not drive, gets a two-page
/// nursery) every run in `gt`, `rgt` and the baseline collects at least
/// twice, computes what the reference evaluator computes, and counts the
/// same at both fusion levels. In a debug build each of those
/// collections also checks page conservation where it ends.
#[test]
fn collections_forced_by_every_page_agree_with_the_evaluator() {
    for name in ["kitkb", "simple"] {
        let bench = by_name(name).unwrap();
        let src = bench.source_scaled(bench.test_scale);
        let differential = Differential::new(&src);
        for mode in [Mode::Gt, Mode::Rgt, Mode::Baseline] {
            // `with_config` puts back each mode's own tagging and
            // collector, except the baseline's generational policy.
            let config = RtConfig {
                gc_threshold: 1.0,
                collector: Collector::Generational(GenPolicy {
                    nursery_pages: 2,
                    ..GenPolicy::default()
                }),
                ..RtConfig::gt()
            };
            let out = differential
                .agreed(mode, Some(&config), u64::MAX)
                .unwrap_or_else(|e| panic!("{name} [{mode}]: {e}"));
            assert!(
                out.stats.gc_count >= 2,
                "{name} [{mode}] collected {} times",
                out.stats.gc_count
            );
        }
    }
}

/// A `fun` that escapes as a value is entered through its closure stub:
/// `EnterViaPair` swaps the closure for its shared environment, moves the
/// arguments up and fills the region formals from the closure. The
/// optimiser calls every other function directly or through an eta
/// wrapper, so only this shape takes that path (the generator's full
/// surface draws it too); this program does, 50 times,
/// with two region formals, the second for pairs that outlive the list
/// the first holds. It must compute what the evaluator computes
/// in every mode at both fusion levels, with the default heap and with a
/// collection scheduled by every page (a debug build poisons every page
/// it frees).
#[test]
fn a_function_entered_through_its_closure_stub_agrees_with_the_evaluator() {
    let src = "fun pair (a, b) = (a, b)\n\
               fun mk n = if n < 1 then nil else pair (n, n + 1) :: mk (n - 1)\n\
               fun sum (nil, acc) = acc | sum ((a, b) :: t, acc) = sum (t, acc + a * b)\n\
               fun pick k = if k mod 2 = 0 then mk else (fn n => mk (n + 1))\n\
               fun loop (0, keep) = keep\n\
               \u{20} | loop (i, keep) =\n\
               \u{20}   let val l = (pick i) (20 + i mod 7) in loop (i - 1, hd l :: keep) end\n\
               val it = sum (loop (100, nil), 0)";
    let pressure = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        gc_threshold: 1.0,
        ..RtConfig::rgt()
    };
    let differential = Differential::new(src);
    for mode in Mode::ALL_WITH_BASELINE {
        for config in [None, Some(&pressure)] {
            if let Err(e) = differential.agreed(mode, config, u64::MAX) {
                panic!("[{mode}] pressure={}: {e}", config.is_some());
            }
        }
    }
    let profile = Compiler::new(Mode::Rgt)
        .with_fusion_profile()
        .run_source(src)
        .unwrap()
        .fusion_profile
        .unwrap();
    let entered = profile.executions(kit::KamOp::EnterViaPair);
    assert_eq!(entered, 50, "the stub ran {entered} times");
}

/// A binding's slot is a root only while the binding is in scope. `xs`
/// is dead once `len` has returned, so the collections in the call after
/// it must not copy the list: the program copies exactly what its twin,
/// which never names the list, copies. At the top level of `gt`, `rgt`
/// and the baseline no `letregion` encloses `xs`, so only the frame map
/// can leave its slot out.
#[test]
fn a_binding_outside_its_scope_is_not_copied() {
    let program = |list: &str| {
        format!(
            "fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)\n\
             fun len (nil, k) = k | len (_ :: t, k) = len (t, k + 1)\n\
             val n = {list}\n\
             val it = len (build (3000, nil), n)"
        )
    };
    let named = program("let val xs = build (5000, nil) in len (xs, 0) end");
    let twin = program("len (build (5000, nil), 0)");
    let [named, twin] = [&named, &twin].map(|src| Differential::new(src));
    for mode in [Mode::Gt, Mode::Rgt, Mode::Baseline] {
        let [a, b] = [&named, &twin].map(|differential| {
            let out = differential
                .agreed(mode, None, u64::MAX)
                .unwrap_or_else(|e| panic!("[{mode}]: {e}"));
            (
                out.result,
                out.output,
                [out.stats.gc_copied_words, out.stats.gc_count],
            )
        });
        assert!(a.2[1] > 0, "[{mode}]: nothing collected");
        assert_eq!(
            a, b,
            "[{mode}]: (result, output, [gc_copied_words, gc_count]) named vs unnamed"
        );
    }
}

/// `mk 3`, a list of three tuples of `n` components `(k, 1, …, n - 1)`,
/// each in the list's region — an infinite one in every mode.
fn wide_tuples(n: usize) -> String {
    let fields: Vec<String> = (1..n).map(|i| i.to_string()).collect();
    format!(
        "fun mk 0 = [] | mk k = (k, {}) :: mk (k - 1)\nval it = length (mk 3)",
        fields.join(", ")
    )
}

/// A box is bumped onto one region page, so one wider than a page's
/// payload (254 words at the default 256-word page) cannot be allocated
/// in an infinite region: the compiler refuses it — 254 components are
/// 255 words tagged — instead of the runtime panicking. Untagged (`r`) it
/// is 254 words and runs. A box in a finite region lives in its frame, so
/// a 65 536-component literal, wider than a `u16` count, still runs and
/// renders in the four modes that put it there.
#[test]
fn a_box_wider_than_a_region_page_is_a_compile_error() {
    for mode in Mode::ALL_WITH_BASELINE {
        let out = Compiler::new(mode)
            .run_source(&wide_tuples(253))
            .unwrap_or_else(|e| panic!("[{mode}] 253 components: {e}"));
        assert_eq!(out.result, "3", "[{mode}]");
        match Compiler::new(mode).run_source(&wide_tuples(254)) {
            Ok(out) if mode == Mode::R => assert_eq!(out.result, "3"),
            Err(kit::Error::Compile(e)) if mode != Mode::R => {
                let e = e.to_string();
                assert!(e.contains("255 words") && e.contains("254"), "[{mode}] {e}");
                assert!(!e.contains("line 0"), "[{mode}] no position to name: {e}");
            }
            other => panic!("[{mode}] 254 components: {other:?}"),
        }
    }
    let fields: Vec<String> = (0..65_536).map(|i: u32| i.to_string()).collect();
    let want = format!("({})", fields.join(", "));
    let src = format!("val it = {want}");
    for mode in Mode::ALL {
        let out = Compiler::new(mode)
            .run_source(&src)
            .unwrap_or_else(|e| panic!("[{mode}] 65 536 components: {e}"));
        assert!(out.result == want, "[{mode}] renders {:.40}…", out.result);
    }
    // The baseline has no finite regions: the literal is refused too.
    let refused = Compiler::new(Mode::Baseline).run_source(&src);
    assert!(
        matches!(&refused, Err(kit::Error::Compile(e))
            if e.to_string().contains("65537 words") && !e.to_string().contains("line 0")),
        "[smlnj] 65 536 components: {refused:?}"
    );
}
