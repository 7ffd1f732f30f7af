//! Tier-1 engine check: the engine with fusion off (base handlers only,
//! the differential oracle) and on (every superinstruction, the
//! production setting) must agree bit for bit on two small programs in
//! all four paper modes — and with the `kit-lambda` reference evaluator on
//! what the program computes. The corpus-wide and randomized versions
//! live in `crates/bench/tests` and run from `scripts/verify.sh`.
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

use kit::{oracle, Compiler, Fusion, Mode, RtConfig};
use kit_bench::by_name;
use kit_bench::fusion_check::assert_fusion_regroups;
use kit_bench::randgen::counters;
use kit_runtime::config::{Collector, GenPolicy};

/// Both fusion levels, the oracle first.
const FUSIONS: [Fusion; 2] = [Fusion::Off, Fusion::Full];

/// `[instructions, words_allocated, allocations, gc_count,
/// gc_copied_words, regions_created]` per mode in [`Mode::ALL`] order,
/// recorded at PR 17, whose parent is `3ef114d`. A PR that changes the
/// compiler, the bytecode or the GC schedule on purpose re-records them
/// and says so. PR 17 did, for churn only (fib has no curried function, no
/// allocation and no region formal, and did not move): `build2 n acc` is
/// one tail call instead of a closure in a fresh `letregion` per step
/// (189 982 → 105 038 instructions, 15 318 → 10 506 allocations, 4 861 →
/// 46 regions), 7 formal regions are no longer pushed as globals at
/// start-up (46 → 39), and with fewer page requests the collector runs
/// later and less often (`rgt` 4 → 2 collections, which then find more
/// live: 6 502 → 29 340 words copied; `gt` 3 → 2, 40 220 → 32 561).
const PINS: [(&str, i64, [[u64; 6]; 4]); 2] = [
    (
        "fib",
        16,
        [
            [39916, 0, 0, 0, 0, 0],
            [39916, 0, 0, 0, 0, 0],
            [39916, 0, 0, 0, 0, 1],
            [39916, 0, 0, 0, 0, 0],
        ],
    ),
    (
        "churn",
        12,
        [
            [105038, 23314, 10506, 0, 0, 39],
            [105038, 33820, 10506, 0, 0, 39],
            [105014, 33820, 10506, 2, 32561, 1],
            [105038, 33820, 10506, 2, 29340, 39],
        ],
    ),
];

#[test]
fn oracle_and_production_engine_agree_in_every_mode() {
    let mut collected = false;
    for (name, scale, pins) in PINS {
        let src = by_name(name).unwrap().source_scaled(scale);
        let want = oracle::run_oracle(&src, None).unwrap_or_else(|e| panic!("{name} oracle: {e}"));
        for (mode, pin) in Mode::ALL.into_iter().zip(pins) {
            let [reference, production] = FUSIONS.map(|fusion| {
                Compiler::new(mode)
                    .with_fusion(fusion)
                    .run_source(&src)
                    .unwrap_or_else(|e| panic!("{name} [{mode}] {fusion:?}: {e}"))
            });
            assert_eq!(
                reference.result, want.result,
                "{name} [{mode}] vs evaluator"
            );
            assert_eq!(
                reference.output, want.output,
                "{name} [{mode}] vs evaluator"
            );
            let s = &reference.stats;
            assert_eq!(
                [
                    reference.instructions,
                    s.words_allocated,
                    s.allocations,
                    s.gc_count,
                    s.gc_copied_words,
                    s.regions_created
                ],
                pin,
                "{name} [{mode}]: counts moved from the recorded ones"
            );
            collected |= reference.stats.gc_count > 0;
            let ctx = format!("{name} [{mode}] Full");
            assert_eq!(production.result, reference.result, "{ctx}: result");
            assert_eq!(production.output, reference.output, "{ctx}: output");
            assert_eq!(counters(&production), counters(&reference), "{ctx}");
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
            assert!(full.fused > 0, "{name} [{mode}]: nothing fused");
        }
    }
}

/// The collector axis. The full collector runs in `rgt`; the generational
/// one needs the single program region of `Mode::Baseline` (the runtime
/// asserts it). Each must collect, compute what the reference evaluator
/// computes, and count the same at both fusion levels. The two full rows start
/// from the same four pages and differ in the paper's §4 dial alone: a
/// heap-to-live ratio of 9 must buy strictly fewer collections than 3.
#[test]
fn every_collector_agrees_with_the_evaluator_on_both_engines() {
    let src = by_name("churn").unwrap().source_scaled(12);
    let want = oracle::run_oracle(&src, None).unwrap_or_else(|e| panic!("churn oracle: {e}"));
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
        let run = |fusion| {
            Compiler::new(mode)
                .with_config(config.clone())
                .with_fusion(fusion)
                .run_source(&src)
                .unwrap_or_else(|e| panic!("churn [{collector}] {fusion:?}: {e}"))
        };
        let [reference, production] = FUSIONS.map(run);
        for out in [&reference, &production] {
            assert_eq!(out.result, want.result, "churn [{collector}] vs evaluator");
            assert_eq!(out.output, want.output, "churn [{collector}] vs evaluator");
        }
        assert_eq!(
            counters(&production),
            counters(&reference),
            "churn [{collector}]: the fusion levels count differently"
        );
        let s = &reference.stats;
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
    use kit_kam::instr::{Instr, RegSlot};
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
    let want = oracle::run_oracle(src, None).unwrap();
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
        let f = prog.funs.iter().find(|f| f.name == name).unwrap();
        f.entry as usize
    };
    let body = &prog.code[addr("outer")..addr("loop")];
    let has = |p: &dyn Fn(&Instr) -> bool| body.iter().any(p);
    assert!(has(&|i| matches!(i, Instr::PushHandler { .. })));
    assert!(has(&|i| matches!(i, Instr::LetRegion { .. })));
    for place in [RegSlot::Formal(1), RegSlot::Local(0)] {
        assert!(
            has(&|i| matches!(i, Instr::MkCon { at, .. } if *at == place)),
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
        assert_eq!(result, want.result, "{fusion:?} vs evaluator");
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
/// `minInt mod ~1` is 0.
#[test]
fn min_int_div_minus_one_overflows_in_every_mode_and_engine() {
    let min_int = "(~4611686018427387903 - 1)";
    let through_a_function = |op: &str| {
        format!(
            "fun f (0, a, b) = a {op} b | f (k, a, b) = f (k - 1, a, b)\n\
             val it = f (3, {min_int}, ~1)"
        )
    };
    let cases = [
        (format!("val it = {min_int} div ~1"), "uncaught Overflow"),
        (through_a_function("div"), "uncaught Overflow"),
        (format!("val it = {min_int} mod ~1"), "0"),
        (through_a_function("mod"), "0"),
    ];
    let answer = |r: Result<String, kit::Error>| match r {
        Ok(result) => result,
        Err(kit::Error::Run(kit_kam::VmError::UncaughtException { name, .. })) => {
            format!("uncaught {name}")
        }
        Err(e) => format!("error: {e}"),
    };
    for (src, want) in &cases {
        let oracle = oracle::run_oracle(src, None).map(|o| o.result);
        assert_eq!(answer(oracle), *want, "{src}: evaluator");
        for mode in Mode::ALL_WITH_BASELINE {
            for fusion in FUSIONS {
                let out = Compiler::new(mode)
                    .with_fusion(fusion)
                    .run_source(src)
                    .map(|o| o.result);
                assert_eq!(answer(out), *want, "{src}: [{mode}] {fusion:?}");
            }
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
    let answer = |r: Result<String, kit::Error>| match r {
        Ok(result) => result,
        Err(kit::Error::Run(kit_kam::VmError::UncaughtException { name, .. })) => {
            format!("uncaught {name}")
        }
        Err(e) => format!("error: {e}"),
    };
    for (f, x, want) in table {
        let literal = format!("val it = {f} {x}");
        let through_a_function =
            format!("fun g (0, x) = {f} x | g (k, x) = g (k - 1, x)\nval it = g (3, {x})");
        for src in [literal, through_a_function] {
            let oracle = oracle::run_oracle(&src, None).map(|o| o.result);
            assert_eq!(answer(oracle), want, "{src}: evaluator");
            for mode in Mode::ALL_WITH_BASELINE {
                for fusion in FUSIONS {
                    let out = Compiler::new(mode)
                        .with_fusion(fusion)
                        .run_source(&src)
                        .map(|o| o.result);
                    assert_eq!(answer(out), want, "{src}: [{mode}] {fusion:?}");
                }
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
        let want = oracle::run_oracle(&src, None).unwrap_or_else(|e| panic!("{name} oracle: {e}"));
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
            let [reference, production] = FUSIONS.map(|fusion| {
                Compiler::new(mode)
                    .with_config(config.clone())
                    .with_fusion(fusion)
                    .run_source(&src)
                    .unwrap_or_else(|e| panic!("{name} [{mode}] {fusion:?}: {e}"))
            });
            assert_eq!(
                (&reference.result, &reference.output),
                (&want.result, &want.output),
                "{name} [{mode}] vs evaluator"
            );
            assert_eq!(
                (&production.result, counters(&production)),
                (&reference.result, counters(&reference)),
                "{name} [{mode}]: the fusion levels disagree"
            );
            assert!(
                reference.stats.gc_count >= 2,
                "{name} [{mode}] collected {} times",
                reference.stats.gc_count
            );
        }
    }
}

/// A `fun` that escapes as a value is entered through its closure stub:
/// `EnterViaPair` swaps the closure for its shared environment, moves the
/// arguments up and fills the region formals from the closure. Nothing
/// else here takes that path — the optimiser calls every other function
/// directly or through an eta wrapper — so this program does, 50 times,
/// with two region formals, the second for pairs that outlive the list
/// the first holds. It must compute what the evaluator computes
/// in every mode at both fusion levels, with the default heap and with a
/// collection scheduled by every page and freed pages poisoned.
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
    let want = oracle::run_oracle(src, None).unwrap();
    let pressure = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        gc_threshold: 1.0,
        poison: true,
        ..RtConfig::rgt()
    };
    for mode in Mode::ALL_WITH_BASELINE {
        for config in [None, Some(&pressure)] {
            let [reference, production] = FUSIONS.map(|fusion| {
                let c = Compiler::new(mode).with_fusion(fusion);
                match config {
                    Some(config) => c.with_config(config.clone()),
                    None => c,
                }
                .run_source(src)
                .unwrap_or_else(|e| panic!("[{mode}] {fusion:?}: {e}"))
            });
            let ctx = format!("[{mode}] pressure={}", config.is_some());
            assert_eq!(reference.result, want.result, "{ctx} vs evaluator");
            assert_eq!(
                (&production.result, counters(&production)),
                (&reference.result, counters(&reference)),
                "{ctx}: the fusion levels disagree"
            );
        }
    }
    let profile = Compiler::new(Mode::Rgt)
        .with_fusion_profile()
        .run_source(src)
        .unwrap()
        .fusion_profile
        .unwrap();
    let entered: u64 = profile
        .hot_pairs()
        .iter()
        .filter(|(ops, _)| ops[0] == kit::KamOp::EnterViaPair)
        .map(|(_, n)| n)
        .sum();
    assert_eq!(entered, 50, "the stub ran {entered} times");
}
