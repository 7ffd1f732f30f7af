//! Fusion-candidate table consumed by the link pass.
//!
//! This table is *generated*: `cargo run -p kit-bench --release --bin
//! bench-summary -- --profile-fusion` runs the benchmark suite in the
//! VM's counting mode (fusion off, so base opcodes are visible),
//! aggregates dynamic pair/triple frequencies of fallthrough-adjacent
//! instructions, and prints a replacement for [`FUSION_CANDIDATES`] with
//! fresh `dyn_count` numbers. Patterns are ordered longest-first because
//! the matcher in [`crate::link`] is greedy; a unit test enforces the
//! ordering.
//!
//! `dyn_count` is the measured number of adjacent executions across the
//! suite at test scale — documentation for the next regeneration, not an
//! input to the matcher.

/// Source-instruction kind, as matched by fusion patterns (a projection
/// of [`crate::instr::Instr`] that ignores operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opk {
    Load,
    Store,
    Pop,
    PushConst,
    Select,
    Prim,
    JumpIfFalse,
    SwitchCon,
    GcCheck,
    RegHandle,
}

/// The superinstruction a matched pattern is replaced by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseKind {
    LoadLoadPrim,
    PushConstPrim,
    LoadSelect,
    StorePop,
    PushConstJumpIfFalse,
    LoadConstPrim,
    LoadSelectStore,
    LoadLoadPrimJump,
    LoadConstPrimJump,
    // Selected from `--profile-fusion` counts.
    StoreLoadSelect,
    LoadPrimJump,
    SelectConstPrim,
    StoreLoad,
    LoadLoad,
    PrimJump,
    SelectStore,
    LoadStore,
    LoadSwitchCon,
    GcCheckLoad,
    RegHandleRegHandle,
    // Triples that profile still reported hot but uncovered.
    SelectStoreLoad,
    GcCheckLoadSwitchCon,
    RegHandleRegHandleLoad,
    RegHandleLoadLoad,
}

/// One fusion candidate: the instruction sequence `seq` collapses into
/// the superinstruction `out` (cost = `seq.len()`).
#[derive(Debug)]
pub struct Pattern {
    /// Source-instruction kinds, matched at adjacent pcs with no interior
    /// leader.
    pub seq: &'static [Opk],
    /// Replacement superinstruction.
    pub out: FuseKind,
    /// Measured fallthrough-adjacent executions across the benchmark
    /// suite (see module docs; regenerated with `--profile-fusion`).
    pub dyn_count: u64,
}

/// All fusion candidates, longest pattern first (the matcher is greedy).
pub static FUSION_CANDIDATES: &[Pattern] = &[
    Pattern {
        seq: &[Opk::Load, Opk::Load, Opk::Prim, Opk::JumpIfFalse],
        out: FuseKind::LoadLoadPrimJump,
        dyn_count: 4413050, // min of overlapping triples
    },
    Pattern {
        seq: &[Opk::Load, Opk::PushConst, Opk::Prim, Opk::JumpIfFalse],
        out: FuseKind::LoadConstPrimJump,
        dyn_count: 2072175, // min of overlapping triples
    },
    Pattern {
        seq: &[Opk::Store, Opk::Load, Opk::Select],
        out: FuseKind::StoreLoadSelect,
        dyn_count: 19377233,
    },
    Pattern {
        seq: &[Opk::Select, Opk::Store, Opk::Load],
        out: FuseKind::SelectStoreLoad,
        dyn_count: 17552122,
    },
    Pattern {
        seq: &[Opk::GcCheck, Opk::Load, Opk::SwitchCon],
        out: FuseKind::GcCheckLoadSwitchCon,
        dyn_count: 8042220,
    },
    Pattern {
        seq: &[Opk::RegHandle, Opk::RegHandle, Opk::Load],
        out: FuseKind::RegHandleRegHandleLoad,
        dyn_count: 5183592,
    },
    Pattern {
        seq: &[Opk::RegHandle, Opk::Load, Opk::Load],
        out: FuseKind::RegHandleLoadLoad,
        dyn_count: 4899492,
    },
    Pattern {
        seq: &[Opk::Load, Opk::Select, Opk::Store],
        out: FuseKind::LoadSelectStore,
        dyn_count: 17559405,
    },
    Pattern {
        seq: &[Opk::Load, Opk::Load, Opk::Prim],
        out: FuseKind::LoadLoadPrim,
        dyn_count: 5719705,
    },
    Pattern {
        seq: &[Opk::Load, Opk::Prim, Opk::JumpIfFalse],
        out: FuseKind::LoadPrimJump,
        dyn_count: 4413050,
    },
    Pattern {
        seq: &[Opk::Load, Opk::PushConst, Opk::Prim],
        out: FuseKind::LoadConstPrim,
        dyn_count: 4760270,
    },
    Pattern {
        seq: &[Opk::Select, Opk::PushConst, Opk::Prim],
        out: FuseKind::SelectConstPrim,
        dyn_count: 148565,
    },
    Pattern {
        seq: &[Opk::Store, Opk::Load],
        out: FuseKind::StoreLoad,
        dyn_count: 27747092,
    },
    Pattern {
        seq: &[Opk::Load, Opk::Select],
        out: FuseKind::LoadSelect,
        dyn_count: 26270020,
    },
    Pattern {
        seq: &[Opk::Select, Opk::Store],
        out: FuseKind::SelectStore,
        dyn_count: 17559405,
    },
    Pattern {
        seq: &[Opk::Load, Opk::Load],
        out: FuseKind::LoadLoad,
        dyn_count: 17519372,
    },
    Pattern {
        seq: &[Opk::Prim, Opk::JumpIfFalse],
        out: FuseKind::PrimJump,
        dyn_count: 6792830,
    },
    Pattern {
        seq: &[Opk::PushConst, Opk::Prim],
        out: FuseKind::PushConstPrim,
        dyn_count: 6033555,
    },
    Pattern {
        seq: &[Opk::PushConst, Opk::JumpIfFalse],
        out: FuseKind::PushConstJumpIfFalse,
        dyn_count: 226885,
    },
    Pattern {
        seq: &[Opk::Load, Opk::SwitchCon],
        out: FuseKind::LoadSwitchCon,
        dyn_count: 8962140,
    },
    Pattern {
        seq: &[Opk::GcCheck, Opk::Load],
        out: FuseKind::GcCheckLoad,
        dyn_count: 9691373,
    },
    Pattern {
        seq: &[Opk::RegHandle, Opk::RegHandle],
        out: FuseKind::RegHandleRegHandle,
        dyn_count: 9996807,
    },
    Pattern {
        seq: &[Opk::Load, Opk::Store],
        out: FuseKind::LoadStore,
        dyn_count: 7071756,
    },
    Pattern {
        seq: &[Opk::Store, Opk::Pop],
        out: FuseKind::StorePop,
        dyn_count: 0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_are_longest_first() {
        for w in FUSION_CANDIDATES.windows(2) {
            assert!(
                w[0].seq.len() >= w[1].seq.len(),
                "greedy matcher needs longest-first ordering: {:?} before {:?}",
                w[0].out,
                w[1].out
            );
        }
    }

    #[test]
    fn patterns_are_unique() {
        for (i, a) in FUSION_CANDIDATES.iter().enumerate() {
            for b in &FUSION_CANDIDATES[i + 1..] {
                assert_ne!(a.seq, b.seq, "duplicate pattern {:?}/{:?}", a.out, b.out);
            }
        }
    }
}
