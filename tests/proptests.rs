//! Randomized property tests, driven by the in-tree SplitMix64 generator
//! (the build is offline, so `proptest` is unavailable; the properties and
//! case counts mirror the original proptest suite, and the fixed seeds
//! make every run bit-identical).
//!
//! 1. *Differential execution*: randomly generated well-typed MiniML
//!    programs evaluate identically in every execution mode (including
//!    the generational baseline, including under heap pressure), at both
//!    fusion levels, and in the reference evaluator — through the one
//!    harness, `kit_bench::differential::Differential`.
//! 2. *Runtime invariants*: random allocate/pop/collect scripts against
//!    the region runtime conserve pages and preserve value integrity.

use kit::{Mode, VmError};
use kit_bench::differential::Differential;
use kit_bench::programs::SplitMix64;
use kit_runtime::gc;
use kit_runtime::value::{is_ptr, Tag};
use kit_runtime::{RegionId, Rt, RtConfig};

// ------------------------------------------------------- program generator

/// A random leaf of type int, drawn from constants and `x0..x{vars}`.
fn leaf(rng: &mut SplitMix64, vars: usize) -> String {
    if vars > 0 && rng.below(3) == 0 {
        format!("x{}", rng.below(vars as u64))
    } else {
        let n = rng.range_i64(-20, 100);
        if n < 0 {
            format!("~{}", -n)
        } else {
            n.to_string()
        }
    }
}

/// A random expression of type int, using variables `x0..x{vars}`. The
/// production weights match the original proptest strategy, plus the
/// partial-application arm.
fn int_expr(rng: &mut SplitMix64, vars: usize, depth: u32) -> String {
    if depth == 0 {
        return leaf(rng, vars);
    }
    let a = int_expr(rng, vars, depth - 1);
    let b = int_expr(rng, vars, depth - 1);
    match rng.below(15) {
        0..=3 => leaf(rng, vars),
        4..=6 => {
            let op = ["-", "+", "*"][rng.below(3) as usize];
            format!("({a} {op} {b})")
        }
        7..=8 => {
            let c = int_expr(rng, vars, depth - 1);
            format!("(if {c} < {a} then {a} else {b})")
        }
        9 => format!("(fst ({a}, {b}) + snd ({b}, {a}))"),
        10 => format!("(length [{a}, {b}] + hd [{a}])"),
        11 => format!("(let val y = {a} in y + {b} end)"),
        12 => format!("((fn q => q + {b}) {a})"),
        // A curried recursive function applied to its first argument only,
        // then twice to the second: the optimiser's eta wrapper.
        13 => format!(
            "(let fun cf n w = if n < 1 then w else cf (n - 1) (w + n) \
             val h = cf (({a}) mod 5) in h ({b}) + h 1 end)"
        ),
        _ => {
            let l = leaf(rng, vars);
            format!("(foldl op+ 0 (map (fn z => z + 1) [{l}, 2, 3]))")
        }
    }
}

/// A small program: a couple of `val` bindings and an int result.
fn program(rng: &mut SplitMix64) -> String {
    let a = int_expr(rng, 0, 2);
    let b = int_expr(rng, 1, 2);
    let c = int_expr(rng, 2, 3);
    format!("val x0 = {a}\nval x1 = {b}\nval it = {c}\n")
}

#[test]
fn random_programs_agree_across_modes() {
    // Heap pressure on the combined mode.
    let pressure = RtConfig {
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let mut rng = SplitMix64::new(0x5EED_0001);
    for case in 0..64 {
        let src = program(&mut rng);
        let differential = Differential::new(&src);
        let runs = Mode::ALL_WITH_BASELINE
            .map(|mode| (mode, None))
            .into_iter()
            .chain([(Mode::Rgt, Some(&pressure))]);
        for (mode, cfg) in runs {
            match differential.agreed(mode, cfg, 10_000_000) {
                // Overflow and Div are legitimate outcomes, which the
                // harness has held every run and the evaluator to.
                Ok(_) | Err(kit::Error::Run(VmError::UncaughtException { .. })) => {}
                Err(e) => panic!("case {case} [{mode}]: {e}\n{src}"),
            }
        }
    }
}

// ------------------------------------------------------- runtime invariants

#[derive(Debug, Clone)]
enum Op {
    Push,
    Pop,
    AllocList(u16),
    Collect,
}

fn script(rng: &mut SplitMix64) -> Vec<Op> {
    let len = 1 + rng.below(59) as usize;
    (0..len)
        .map(|_| match rng.below(9) {
            0..=1 => Op::Push,
            2..=3 => Op::Pop,
            4..=7 => Op::AllocList(1 + rng.below(59) as u16),
            _ => Op::Collect,
        })
        .collect()
}

/// Random region scripts: pages are conserved, live data survives
/// collections intact, and popped regions return their pages.
#[test]
fn region_scripts_conserve_pages() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for case in 0..128 {
        let ops = script(&mut rng);
        let mut rt = Rt::new(RtConfig {
            initial_pages: 8,
            page_words_log2: 6,
            ..RtConfig::rgt()
        });
        let base = rt.letregion(0);
        // One tracked list in the base region; its checksum must survive.
        let mut expected = 0i64;
        let mut list = rt.tag_int(0);
        rt.stack.push(list);
        let root = rt.stack.len() - 1;
        let mut depth = 1;
        for op in &ops {
            match op {
                Op::Push => {
                    rt.letregion(depth);
                    depth += 1;
                }
                Op::Pop => {
                    if depth > 1 {
                        rt.endregion();
                        depth -= 1;
                    }
                }
                Op::AllocList(n) => {
                    // Garbage in the newest region, live cells in base.
                    let newest = RegionId(depth - 1);
                    for i in 0..*n {
                        let _ = rt.alloc_record(newest, &[rt.tag_int(i as i64)]);
                    }
                    list = rt.stack[root];
                    let head = rt.tag_int(*n as i64);
                    expected += *n as i64;
                    list = rt.alloc_boxed(base, Tag::con(1, 2), &[head, list]);
                    rt.stack[root] = list;
                }
                Op::Collect => {
                    gc::collect(&mut rt, &[root], &mut []);
                }
            }
            rt.check_heap()
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{ops:?}"));
        }
        gc::collect(&mut rt, &[root], &mut []);
        rt.check_heap()
            .unwrap_or_else(|e| panic!("case {case}: {e}\n{ops:?}"));
        // Walk the list and check the checksum.
        let mut v = rt.stack[root];
        let mut sum = 0i64;
        while is_ptr(v) {
            sum += rt.untag_int(rt.field(v, 0));
            v = rt.field(v, 1);
        }
        assert_eq!(sum, expected, "case {case}: {ops:?}");
        rt.pop_regions_to(0);
        assert_eq!(rt.heap.free_pages(), rt.heap.total_pages(), "case {case}");
    }
}

/// Tag words round-trip through encode/decode for arbitrary field values.
#[test]
fn tags_round_trip() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for _ in 0..256 {
        let size = rng.below(0xFF_FFFF) as u32;
        let info = rng.below(0xFF_FFFF) as u32;
        let mark = rng.bool();
        for kind in [
            kit_runtime::value::Kind::Record,
            kit_runtime::value::Kind::Con,
            kit_runtime::value::Kind::Ref,
            kit_runtime::value::Kind::Exn,
        ] {
            let t = Tag {
                kind,
                size,
                info,
                mark,
            };
            assert_eq!(Tag::decode(t.encode()), t);
            assert_eq!(t.encode() & 1, 1);
        }
    }
}

/// Scalars round-trip for the full 63-bit int range.
#[test]
fn scalars_round_trip() {
    use kit_runtime::value::{scalar, scalar_val};
    let mut rng = SplitMix64::new(0x5EED_0004);
    for _ in 0..256 {
        let n = rng.range_i64(-(1i64 << 62), (1i64 << 62) - 1);
        assert_eq!(scalar_val(scalar(n)), n);
        assert!(!is_ptr(scalar(n)));
    }
}
