//! The superinstruction table: which runs of base opcodes fusion
//! ([`Executable::prepare`](crate::vm::Executable::prepare) at
//! [`Fusion::Full`](crate::Fusion::Full)) collapses into one opcode.
//!
//! A row is all a superinstruction is, besides its handler: `seq` is the
//! run it replaces, `out` its opcode. Its operands are its components'
//! operands under the one packing rule of [`crate::threaded`], and its
//! charge ([`Op::cost`]) is `seq.len()`.
//!
//! This table is *generated*: `cargo run -p kit-bench --release --bin
//! bench-summary -- --profile-fusion --full` runs the benchmark suite in
//! the VM's counting mode (with fusion off, so base opcodes are visible),
//! aggregates dynamic pair/triple frequencies of fallthrough-adjacent
//! instructions, and prints a replacement for [`FUSION_CANDIDATES`] with
//! fresh `dyn_count` numbers. Rows are ordered longest-first because the
//! matcher is greedy; a unit test enforces the ordering. A row whose
//! fresh count is 0 is deleted with its opcode and handler (PR 19:
//! `Store; Pop`).
//!
//! `dyn_count` is the measured number of adjacent executions across the
//! suite at paper scale (`--full`, all five modes; PR 19's bytecode) —
//! documentation for the next regeneration, not an input to the matcher.

use crate::threaded::Op::{self, *};

/// One fusion candidate: the opcode run `seq` collapses into the
/// superinstruction `out` (cost = `seq.len()`).
#[derive(Debug)]
pub struct Pattern {
    /// Base opcodes, matched at adjacent pcs with no interior leader.
    pub seq: &'static [Op],
    /// Replacement superinstruction.
    pub out: Op,
    /// Measured fallthrough-adjacent executions across the benchmark
    /// suite (see module docs; regenerated with `--profile-fusion`). A
    /// 4-long row's count is the rarer of its two overlapping triples.
    pub dyn_count: u64,
}

const fn row(seq: &'static [Op], out: Op, dyn_count: u64) -> Pattern {
    Pattern {
        seq,
        out,
        dyn_count,
    }
}

/// All fusion candidates, longest pattern first (the matcher is greedy).
/// One row per line, as `--profile-fusion` prints them.
#[rustfmt::skip]
pub const FUSION_CANDIDATES: &[Pattern] = &[
    row(&[Load, Load, Prim, JumpIfFalse], LoadLoadPrimJump, 113382675),
    row(&[Load, PushConst, Prim, JumpIfFalse], LoadConstPrimJump, 91749760),
    row(&[Store, Load, Select], StoreLoadSelect, 403584914),
    row(&[Select, Store, Load], SelectStoreLoad, 383415523),
    row(&[GcCheck, Load, SwitchCon], GcCheckLoadSwitchCon, 118621710),
    row(&[RegHandle, RegHandle, Load], RegHandleRegHandleLoad, 86065958),
    row(&[RegHandle, Load, Load], RegHandleLoadLoad, 110611679),
    row(&[Load, Select, Store], LoadSelectStore, 383458195),
    row(&[Load, Load, Prim], LoadLoadPrim, 172332995),
    row(&[Load, Prim, JumpIfFalse], LoadPrimJump, 113382675),
    row(&[Load, PushConst, Prim], LoadConstPrim, 161987945),
    row(&[Store, Load], StoreLoad, 648593147),
    row(&[Load, Select], LoadSelect, 462652855),
    row(&[Load, Load], LoadLoad, 428091559),
    row(&[Prim, JumpIfFalse], PrimJump, 206172190),
    row(&[PushConst, Prim], PushConstPrim, 202471045),
    row(&[Load, SwitchCon], LoadSwitchCon, 162166525),
    row(&[GcCheck, Load], GcCheckLoad, 152912007),
    row(&[RegHandle, RegHandle], RegHandleRegHandle, 109394143),
    row(&[Load, Store], LoadStore, 150028816),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::Field;

    #[test]
    fn candidates_are_longest_first_and_unique() {
        for w in FUSION_CANDIDATES.windows(2) {
            assert!(
                w[0].seq.len() >= w[1].seq.len(),
                "greedy matcher needs longest-first ordering: {:?} before {:?}",
                w[0].out,
                w[1].out
            );
        }
        for (i, a) in FUSION_CANDIDATES.iter().enumerate() {
            for b in &FUSION_CANDIDATES[i + 1..] {
                assert_ne!(a.seq, b.seq, "duplicate pattern {:?}/{:?}", a.out, b.out);
            }
        }
    }

    #[test]
    fn every_fused_opcode_is_the_out_of_exactly_one_row() {
        for op in Op::ALL {
            let rows = FUSION_CANDIDATES.iter().filter(|p| p.out == op).count();
            assert_eq!(rows, usize::from(op.is_fused()), "{op:?}");
        }
    }

    #[test]
    fn every_seq_member_has_a_packing_lane_and_no_lane_overflows() {
        for p in FUSION_CANDIDATES {
            assert!(p.seq.len() >= 2, "{:?}", p.out);
            let count = |f: Field| {
                p.seq
                    .iter()
                    .flat_map(|op| op.fields())
                    .filter(|g| **g == f)
                    .count()
            };
            for op in p.seq {
                assert!(!op.is_fused() && op.packs(), "{:?}: {op:?}", p.out);
            }
            // `a` then `b`; `at` then `at2`; one of everything else.
            assert!(count(Field::A) <= 2 && count(Field::At) <= 2, "{:?}", p.out);
            for f in [Field::K, Field::N, Field::P, Field::T] {
                assert!(count(f) <= 1, "{:?}: two {f:?} operands", p.out);
            }
            // A branch target belongs to the last member: control leaves
            // a group only at its end.
            for op in &p.seq[..p.seq.len() - 1] {
                assert!(!op.fields().contains(&Field::T), "{:?}: {op:?}", p.out);
            }
        }
    }
}
