//! The superinstruction table: which runs of base opcodes fusion
//! ([`Executable::prepare`](crate::vm::Executable::prepare) at
//! [`Fusion::Full`](crate::Fusion::Full)) collapses into one opcode.
//!
//! A row is all a superinstruction is, besides its handler: `seq` is the
//! run it replaces, `out` its opcode. Its operands are its components'
//! operands under the one packing rule of [`crate::threaded`], its shape
//! is one [`fits`](crate::threaded::fits) admits (control leaves it only
//! at its end; a call may end it), and its charge ([`Op::cost`]) is
//! `seq.len()`. Fusion takes the fewest groups the rows allow
//! ([`parse`](crate::threaded::parse)), so the order of the rows does not
//! matter.
//!
//! This table is *selected*: `cargo run -p kit-bench --release --bin
//! bench-summary -- --profile-fusion` runs the corpus unfused in
//! the VM's counting mode (dispatches per pc), then adds, one at a time,
//! the run of base opcodes that saves the most dispatches under the
//! fewest-groups parse, until the next would save less than 1 %
//! (`kit_bench::fusion_select`), and prints a replacement for
//! [`FUSION_CANDIDATES`] in the order it added the rows. Every new row
//! gets a handler in [`crate::vm`]; a row the selection drops goes with
//! its opcode and handler. `bench-summary --check-fusion` (in
//! `scripts/verify.sh`) fails while this table is not the selection.
//!
//! `dyn_count` is the row's fused-dispatch saving: the dispatches the
//! corpus at paper scale (all five modes, each run weighed
//! alike) takes more without the row, the other rows kept, per million
//! of its unfused dispatches — documentation, not an input to fusion.

use crate::threaded::Op::{self, *};

/// One fusion candidate: the opcode run `seq` collapses into the
/// superinstruction `out` (cost = `seq.len()`).
#[derive(Debug)]
pub struct Pattern {
    /// Base opcodes, matched at adjacent pcs with no interior leader.
    pub seq: &'static [Op],
    /// Replacement superinstruction.
    pub out: Op,
    /// The dispatches the row saves, per million of the corpus's unfused
    /// ones (module docs; regenerated with `--profile-fusion`).
    pub dyn_count: u64,
}

const fn row(seq: &'static [Op], out: Op, dyn_count: u64) -> Pattern {
    Pattern {
        seq,
        out,
        dyn_count,
    }
}

/// All fusion candidates, in the order the selection added them. One row
/// per line, as `--profile-fusion` prints them.
#[rustfmt::skip]
pub const FUSION_CANDIDATES: &[Pattern] = &[
    row(&[Load, Select, Store], LoadSelectStore, 72084),
    row(&[Load, PushConst, Prim], LoadConstPrim, 10211),
    row(&[Load, Load], LoadLoad, 8864),
    row(&[GcCheck, Load, SwitchCon], GcCheckLoadSwitchCon, 21823),
    row(&[Load, Load, Prim, JumpIfFalse], LoadLoadPrimJump, 13018),
    row(&[Load, RegHandle, RegHandle], LoadRegHandleRegHandle, 19301),
    row(&[Load, Store], LoadStore, 19842),
    row(&[Load, Select], LoadSelect, 8563),
    row(&[GcCheck, Load, PushConst, Prim, JumpIfFalse], GcCheckLoadConstPrimJump, 7986),
    row(&[Load, Load, PushConst, Prim], LoadLoadConstPrim, 14085),
    row(&[Load, Load, Prim], LoadLoadPrim, 11037),
    row(&[Load, Call], LoadCall, 10068),
    row(&[PushConst, Prim], PushConstPrim, 9306),
    row(&[Load, Select, Load, Prim], LoadSelectLoadPrim, 8503),
    row(&[RegHandle, Load, Load], RegHandleLoadLoad, 5471),
    row(&[Load, PushConst, Prim, JumpIfFalse], LoadConstPrimJump, 7308),
    row(&[Load, Jump], LoadJump, 7270),
    row(&[Load, SwitchCon], LoadSwitchCon, 5861),
    row(&[Load, Select, Load, PushConst, Prim], LoadSelectLoadConstPrim, 5049),
    row(&[Load, RegHandle, Load], LoadRegHandleLoad, 4758),
];

/// The runs the rows replace, in table order: the `rows` of
/// [`parse`](crate::threaded::parse).
pub fn rows() -> Vec<&'static [Op]> {
    FUSION_CANDIDATES.iter().map(|p| p.seq).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::fits;

    #[test]
    fn candidates_are_unique() {
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

    /// Every row has a shape fusion admits: base opcodes whose operands
    /// fit the lanes, control leaving only at the end (the shapes `fits`
    /// refuses are `threaded`'s `only_row_shapes_that_leave_at_the_end_fit`).
    #[test]
    fn every_row_fits_the_lanes_and_leaves_only_at_its_end() {
        for p in FUSION_CANDIDATES {
            assert!(fits(p.seq), "{:?}: {:?}", p.out, p.seq);
        }
    }
}
