//! Post-compile link pass: rewrites the [`Instr`] stream into the
//! pre-resolved form the interpreter actually dispatches on.
//!
//! Linking does two things:
//!
//! 1. **Pre-resolution** — every control-flow operand becomes an absolute
//!    code address (`u32` pc). `Jump`/`JumpIfFalse`/switch arms/handlers
//!    lose the `label_addrs` indirection; `Call` additionally resolves its
//!    callee's function id at link time. Unknown calls (`CallClos`) read a
//!    label scalar out of the closure at runtime and go through the dense
//!    [`LinkedProgram::pc_of_label`]/[`LinkedProgram::fun_of_label`] tables
//!    instead of a hash map.
//! 2. **Fusion** — frequent pairs/triples/quads are collapsed into the
//!    superinstructions of [`FUSION_CANDIDATES`] (regenerate with
//!    `bench-summary --profile-fusion`), cutting dispatches on the hot
//!    path. A fused group never spans a *leader* (any pc bound in
//!    `label_addrs`), so every branch target remains the start of a linked
//!    instruction. `Call`/`CallClos` are never fused, so a return address
//!    (the pc after a non-tail call) is always a group start too.
//!
//! Fusion is semantics-preserving **including the instruction counter**:
//! each superinstruction is charged the number of source instructions it
//! replaces ([`crate::threaded::Op::cost`]), so `VmOutcome::instructions`
//! is identical with fusion on or off.

use crate::fusion_table::{FuseKind, Opk, FUSION_CANDIDATES};
use crate::instr::{Disc, Instr, Label, Program, RegSlot};
use kit_lambda::exp::Prim;

/// Whether the link pass emits superinstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fusion {
    /// No superinstructions (branch targets are still pre-resolved) —
    /// the differential-testing reference.
    Off,
    /// Every candidate in the generated table.
    #[default]
    Full,
}

/// A linked instruction: operands pre-resolved to absolute pcs, hot
/// sequences fused. See [`Instr`] for per-variant semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum LInstr {
    PushConst(u64),
    PushStr(String),
    Spread {
        n: u16,
    },
    Unreachable,
    PushReal(f64, RegSlot),
    Load(u32),
    Store(u32),
    Pop,
    MkRecord {
        n: u16,
        at: RegSlot,
    },
    Select(u16),
    MkCon {
        ctor: u16,
        n: u16,
        disc: bool,
        at: RegSlot,
    },
    DeConAdj,
    SwitchCon {
        disc: Disc,
        arms: Box<[(u32, u32)]>,
        default: u32,
    },
    SwitchInt {
        arms: Box<[(i64, u32)]>,
        default: u32,
    },
    SwitchStr {
        arms: Box<[(String, u32)]>,
        default: u32,
    },
    SwitchExn {
        arms: Box<[(u32, u32)]>,
        default: u32,
    },
    Jump(u32),
    JumpIfFalse(u32),
    Prim {
        p: Prim,
        at: Option<RegSlot>,
    },
    RegHandle(RegSlot),
    /// Known call with the callee's function id and entry pc resolved at
    /// link time.
    Call {
        fun: u32,
        target: u32,
        nargs: u16,
        nformals: u16,
        tail: bool,
    },
    CallClos {
        nargs: u16,
        tail: bool,
    },
    EnterViaPair {
        nformals: u16,
    },
    Ret,
    GcCheck,
    LetRegion {
        names: Box<[u32]>,
    },
    EndRegions(u16),
    PushHandler {
        target: u32,
    },
    PopHandler,
    MkExn {
        exn: u32,
        has_arg: bool,
        at: Option<RegSlot>,
    },
    DeExn,
    Raise,
    Halt,
    // ------------------------------------------------- superinstructions
    /// `Load a; Load b; Prim p` (cost 3).
    LoadLoadPrim {
        a: u32,
        b: u32,
        p: Prim,
        at: Option<RegSlot>,
    },
    /// `PushConst k; Prim p` (cost 2).
    PushConstPrim {
        k: u64,
        p: Prim,
        at: Option<RegSlot>,
    },
    /// `Load i; Select sel` (cost 2) — reads the field without the
    /// intermediate operand push.
    LoadSelect {
        i: u32,
        sel: u16,
    },
    /// `Store i; Pop` (cost 2).
    StorePop {
        i: u32,
    },
    /// `PushConst k; JumpIfFalse target` (cost 2) — constant condition,
    /// no operand traffic.
    PushConstJumpIfFalse {
        k: u64,
        target: u32,
    },
    /// `Load i; PushConst k; Prim p` (cost 3) — the `n - 1` shape of
    /// recursive argument arithmetic.
    LoadConstPrim {
        i: u32,
        k: u64,
        p: Prim,
        at: Option<RegSlot>,
    },
    /// `Load i; Select sel; Store j` (cost 3) — pattern-match
    /// destructuring of a box field straight into a local.
    LoadSelectStore {
        i: u32,
        sel: u16,
        j: u32,
    },
    /// `Load a; Load b; Prim p; JumpIfFalse target` (cost 4) — the
    /// two-operand compare-and-branch heading most loops.
    LoadLoadPrimJump {
        a: u32,
        b: u32,
        p: Prim,
        at: Option<RegSlot>,
        target: u32,
    },
    /// `Load i; PushConst k; Prim p; JumpIfFalse target` (cost 4) —
    /// compare-against-constant-and-branch (`if n < 2 ...`).
    LoadConstPrimJump {
        i: u32,
        k: u64,
        p: Prim,
        at: Option<RegSlot>,
        target: u32,
    },
    // ------------------------- profile-selected (`--profile-fusion`)
    /// `Store j; Load i; Select sel` (cost 3) — bind a match scrutinee and
    /// read its first field, the hottest measured triple.
    StoreLoadSelect {
        j: u32,
        i: u32,
        sel: u16,
    },
    /// `Load i; Prim p; JumpIfFalse target` (cost 3) — compare-and-branch
    /// whose first operand is already on the stack.
    LoadPrimJump {
        i: u32,
        p: Prim,
        at: Option<RegSlot>,
        target: u32,
    },
    /// `Select sel; PushConst k; Prim p` (cost 3) — field-vs-constant
    /// arithmetic on an operand already on the stack.
    SelectConstPrim {
        sel: u16,
        k: u64,
        p: Prim,
        at: Option<RegSlot>,
    },
    /// `Store j; Load i` (cost 2) — the hottest measured pair: bind a
    /// value, then immediately read another local (or re-read the same).
    StoreLoad {
        j: u32,
        i: u32,
    },
    /// `Load a; Load b` (cost 2) — two-operand setup ahead of calls and
    /// allocation.
    LoadLoad {
        a: u32,
        b: u32,
    },
    /// `Prim p; JumpIfFalse target` (cost 2) — compare-and-branch with
    /// both operands already on the stack.
    PrimJump {
        p: Prim,
        at: Option<RegSlot>,
        target: u32,
    },
    /// `Select sel; Store j` (cost 2) — store one field of a record that
    /// is already on the stack.
    SelectStore {
        sel: u16,
        j: u32,
    },
    /// `Load i; Store j` (cost 2) — local-to-local copy, no stack
    /// traffic.
    LoadStore {
        i: u32,
        j: u32,
    },
    /// `Load i; SwitchCon {..}` (cost 2) — branch on a constructor held
    /// in a local.
    LoadSwitchCon {
        i: u32,
        disc: Disc,
        arms: Box<[(u32, u32)]>,
        default: u32,
    },
    /// `GcCheck; Load i` (cost 2) — the function-entry safepoint fused
    /// with the first argument load.
    GcCheckLoad {
        i: u32,
    },
    /// `RegHandle a; RegHandle b` (cost 2) — push two region handles, the
    /// common preamble of region-polymorphic calls.
    RegHandleRegHandle {
        a: RegSlot,
        b: RegSlot,
    },
    // --------------------------- uncovered-triple fixups
    /// `Select sel; Store j; Load i` (cost 3) — store one field of a
    /// record already on the stack, then load the next operand.
    SelectStoreLoad {
        sel: u16,
        j: u32,
        i: u32,
    },
    /// `GcCheck; Load i; SwitchCon {..}` (cost 3) — the function-entry
    /// safepoint of a constructor-dispatching function fused with its
    /// scrutinee load and branch.
    GcCheckLoadSwitchCon {
        i: u32,
        disc: Disc,
        arms: Box<[(u32, u32)]>,
        default: u32,
    },
    /// `RegHandle a; RegHandle b; Load i` (cost 3) — two region handles
    /// plus the first value argument of a region-polymorphic call.
    RegHandleRegHandleLoad {
        a: RegSlot,
        b: RegSlot,
        i: u32,
    },
    /// `RegHandle r; Load i; Load j` (cost 3) — one region handle plus
    /// the first two value arguments of a region-polymorphic call.
    RegHandleLoadLoad {
        r: RegSlot,
        i: u32,
        j: u32,
    },
}

/// A program in linked form, ready for dispatch.
#[derive(Debug, Clone)]
pub struct LinkedProgram {
    /// Linked instruction stream (absolute `u32` pc operands).
    pub code: Vec<LInstr>,
    /// Function id → entry pc.
    pub entry_pc: Vec<u32>,
    /// Label id → linked pc (`u32::MAX` if unbound). Used by `CallClos`,
    /// whose target label is only known at runtime (closure field 0).
    pub pc_of_label: Vec<u32>,
    /// Label id → function id (`u32::MAX` if the label is not a function
    /// entry). The dense replacement for `Program::entry_of`.
    pub fun_of_label: Vec<u32>,
    /// Number of superinstructions emitted (0 with fusion off).
    pub fused: u64,
}

/// The pattern kind of a source instruction, if fusion patterns can refer
/// to it at all.
fn opk_of(ins: &Instr) -> Option<Opk> {
    Some(match ins {
        Instr::Load(_) => Opk::Load,
        Instr::Store(_) => Opk::Store,
        Instr::Pop => Opk::Pop,
        Instr::PushConst(_) => Opk::PushConst,
        Instr::Select(_) => Opk::Select,
        Instr::Prim { .. } => Opk::Prim,
        Instr::JumpIfFalse(_) => Opk::JumpIfFalse,
        Instr::SwitchCon { .. } => Opk::SwitchCon,
        Instr::GcCheck => Opk::GcCheck,
        Instr::RegHandle(_) => Opk::RegHandle,
        _ => return None,
    })
}

/// The fusion candidate matching at `i`, if any — the first (longest,
/// by table ordering) pattern whose kinds match at adjacent pcs with no
/// interior leader; a branch could land mid-group otherwise.
fn match_at(
    code: &[Instr],
    leader: &[bool],
    i: usize,
) -> Option<&'static crate::fusion_table::Pattern> {
    'pat: for pat in FUSION_CANDIDATES {
        if i + pat.seq.len() > code.len() {
            continue;
        }
        for j in 1..pat.seq.len() {
            if leader[i + j] {
                continue 'pat;
            }
        }
        for (j, k) in pat.seq.iter().enumerate() {
            if opk_of(&code[i + j]) != Some(*k) {
                continue 'pat;
            }
        }
        return Some(pat);
    }
    None
}

/// Builds the superinstruction for a matched pattern from its source
/// window. A pattern's kinds guarantee the shapes destructured here.
fn build_fused(kind: FuseKind, w: &[Instr], resolve: &dyn Fn(Label) -> u32) -> LInstr {
    match kind {
        FuseKind::LoadLoadPrimJump => match (&w[0], &w[1], &w[2], &w[3]) {
            (Instr::Load(a), Instr::Load(b), Instr::Prim { p, at }, Instr::JumpIfFalse(l)) => {
                LInstr::LoadLoadPrimJump {
                    a: *a,
                    b: *b,
                    p: *p,
                    at: *at,
                    target: resolve(*l),
                }
            }
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadConstPrimJump => match (&w[0], &w[1], &w[2], &w[3]) {
            (Instr::Load(i), Instr::PushConst(k), Instr::Prim { p, at }, Instr::JumpIfFalse(l)) => {
                LInstr::LoadConstPrimJump {
                    i: *i,
                    k: *k,
                    p: *p,
                    at: *at,
                    target: resolve(*l),
                }
            }
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadLoadPrim => match (&w[0], &w[1], &w[2]) {
            (Instr::Load(a), Instr::Load(b), Instr::Prim { p, at }) => LInstr::LoadLoadPrim {
                a: *a,
                b: *b,
                p: *p,
                at: *at,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadConstPrim => match (&w[0], &w[1], &w[2]) {
            (Instr::Load(i), Instr::PushConst(k), Instr::Prim { p, at }) => LInstr::LoadConstPrim {
                i: *i,
                k: *k,
                p: *p,
                at: *at,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadSelectStore => match (&w[0], &w[1], &w[2]) {
            (Instr::Load(i), Instr::Select(sel), Instr::Store(j)) => LInstr::LoadSelectStore {
                i: *i,
                sel: *sel,
                j: *j,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::PushConstPrim => match (&w[0], &w[1]) {
            (Instr::PushConst(k), Instr::Prim { p, at }) => LInstr::PushConstPrim {
                k: *k,
                p: *p,
                at: *at,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadSelect => match (&w[0], &w[1]) {
            (Instr::Load(i), Instr::Select(sel)) => LInstr::LoadSelect { i: *i, sel: *sel },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::StorePop => match (&w[0], &w[1]) {
            (Instr::Store(i), Instr::Pop) => LInstr::StorePop { i: *i },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::PushConstJumpIfFalse => match (&w[0], &w[1]) {
            (Instr::PushConst(k), Instr::JumpIfFalse(l)) => LInstr::PushConstJumpIfFalse {
                k: *k,
                target: resolve(*l),
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::StoreLoadSelect => match (&w[0], &w[1], &w[2]) {
            (Instr::Store(j), Instr::Load(i), Instr::Select(sel)) => LInstr::StoreLoadSelect {
                j: *j,
                i: *i,
                sel: *sel,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadPrimJump => match (&w[0], &w[1], &w[2]) {
            (Instr::Load(i), Instr::Prim { p, at }, Instr::JumpIfFalse(l)) => {
                LInstr::LoadPrimJump {
                    i: *i,
                    p: *p,
                    at: *at,
                    target: resolve(*l),
                }
            }
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::SelectConstPrim => match (&w[0], &w[1], &w[2]) {
            (Instr::Select(sel), Instr::PushConst(k), Instr::Prim { p, at }) => {
                LInstr::SelectConstPrim {
                    sel: *sel,
                    k: *k,
                    p: *p,
                    at: *at,
                }
            }
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::StoreLoad => match (&w[0], &w[1]) {
            (Instr::Store(j), Instr::Load(i)) => LInstr::StoreLoad { j: *j, i: *i },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadLoad => match (&w[0], &w[1]) {
            (Instr::Load(a), Instr::Load(b)) => LInstr::LoadLoad { a: *a, b: *b },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::SelectStore => match (&w[0], &w[1]) {
            (Instr::Select(sel), Instr::Store(j)) => LInstr::SelectStore { sel: *sel, j: *j },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadStore => match (&w[0], &w[1]) {
            (Instr::Load(i), Instr::Store(j)) => LInstr::LoadStore { i: *i, j: *j },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::LoadSwitchCon => match (&w[0], &w[1]) {
            (
                Instr::Load(i),
                Instr::SwitchCon {
                    disc,
                    arms,
                    default,
                },
            ) => LInstr::LoadSwitchCon {
                i: *i,
                disc: *disc,
                arms: arms.iter().map(|(c, l)| (*c, resolve(*l))).collect(),
                default: resolve(*default),
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::GcCheckLoad => match (&w[0], &w[1]) {
            (Instr::GcCheck, Instr::Load(i)) => LInstr::GcCheckLoad { i: *i },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::RegHandleRegHandle => match (&w[0], &w[1]) {
            (Instr::RegHandle(a), Instr::RegHandle(b)) => {
                LInstr::RegHandleRegHandle { a: *a, b: *b }
            }
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::SelectStoreLoad => match (&w[0], &w[1], &w[2]) {
            (Instr::Select(sel), Instr::Store(j), Instr::Load(i)) => LInstr::SelectStoreLoad {
                sel: *sel,
                j: *j,
                i: *i,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::GcCheckLoadSwitchCon => match (&w[0], &w[1], &w[2]) {
            (
                Instr::GcCheck,
                Instr::Load(i),
                Instr::SwitchCon {
                    disc,
                    arms,
                    default,
                },
            ) => LInstr::GcCheckLoadSwitchCon {
                i: *i,
                disc: *disc,
                arms: arms.iter().map(|(c, l)| (*c, resolve(*l))).collect(),
                default: resolve(*default),
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::RegHandleRegHandleLoad => match (&w[0], &w[1], &w[2]) {
            (Instr::RegHandle(a), Instr::RegHandle(b), Instr::Load(i)) => {
                LInstr::RegHandleRegHandleLoad {
                    a: *a,
                    b: *b,
                    i: *i,
                }
            }
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::RegHandleLoadLoad => match (&w[0], &w[1], &w[2]) {
            (Instr::RegHandle(r), Instr::Load(i), Instr::Load(j)) => LInstr::RegHandleLoadLoad {
                r: *r,
                i: *i,
                j: *j,
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
        FuseKind::PrimJump => match (&w[0], &w[1]) {
            (Instr::Prim { p, at }, Instr::JumpIfFalse(l)) => LInstr::PrimJump {
                p: *p,
                at: *at,
                target: resolve(*l),
            },
            _ => unreachable!("pattern/constructor mismatch for {kind:?}"),
        },
    }
}

/// Links `prog`, fusing superinstructions unless `fusion` is off.
pub fn link(prog: &Program, fusion: Fusion) -> LinkedProgram {
    let code = &prog.code;
    let n = code.len();

    // Leaders: every bound label address. Return addresses need no entry —
    // calls are never fused, so the pc after a call starts a group.
    let mut leader = vec![false; n];
    for &a in &prog.label_addrs {
        if a < n {
            leader[a] = true;
        }
    }

    // Pass 1: choose groups (greedy, longest first) and map old → new pcs.
    let mut new_pc_of_old = vec![u32::MAX; n];
    let mut group_len = vec![0u8; n];
    let mut group_kind = vec![None::<FuseKind>; n];
    let mut i = 0;
    let mut npc = 0u32;
    while i < n {
        let pat = match fusion {
            Fusion::Off => None,
            Fusion::Full => match_at(code, &leader, i),
        };
        let len = pat.map_or(1, |p| p.seq.len());
        new_pc_of_old[i] = npc;
        group_len[i] = len as u8;
        group_kind[i] = pat.map(|p| p.out);
        npc += 1;
        i += len;
    }

    let resolve = |l: Label| -> u32 {
        let addr = prog.label_addrs[l];
        debug_assert!(addr < n, "branch to unbound label {l}");
        debug_assert_ne!(new_pc_of_old[addr], u32::MAX, "branch into a fused group");
        new_pc_of_old[addr]
    };

    // Pass 2: emit with remapped targets.
    let mut out = Vec::with_capacity(npc as usize);
    let mut fused = 0u64;
    let mut i = 0;
    while i < n {
        let len = group_len[i] as usize;
        match group_kind[i] {
            Some(kind) => {
                out.push(build_fused(kind, &code[i..i + len], &resolve));
                fused += 1;
            }
            None => out.push(link_one(prog, &code[i], &resolve)),
        }
        i += len;
    }

    let entry_pc = prog.funs.iter().map(|f| resolve(f.entry)).collect();
    let pc_of_label = prog
        .label_addrs
        .iter()
        .map(|&a| if a < n { new_pc_of_old[a] } else { u32::MAX })
        .collect();
    let mut fun_of_label = vec![u32::MAX; prog.label_addrs.len()];
    for (&l, &f) in &prog.entry_of {
        fun_of_label[l] = f;
    }

    LinkedProgram {
        code: out,
        entry_pc,
        pc_of_label,
        fun_of_label,
        fused,
    }
}

fn link_one(prog: &Program, ins: &Instr, resolve: &dyn Fn(Label) -> u32) -> LInstr {
    match ins {
        Instr::PushConst(w) => LInstr::PushConst(*w),
        Instr::PushStr(s) => LInstr::PushStr(s.clone()),
        Instr::Spread { n } => LInstr::Spread { n: *n },
        Instr::Unreachable => LInstr::Unreachable,
        Instr::PushReal(x, at) => LInstr::PushReal(*x, *at),
        Instr::Load(i) => LInstr::Load(*i),
        Instr::Store(i) => LInstr::Store(*i),
        Instr::Pop => LInstr::Pop,
        Instr::MkRecord { n, at } => LInstr::MkRecord { n: *n, at: *at },
        Instr::Select(i) => LInstr::Select(*i),
        Instr::MkCon { ctor, n, disc, at } => LInstr::MkCon {
            ctor: *ctor,
            n: *n,
            disc: *disc,
            at: *at,
        },
        Instr::DeConAdj => LInstr::DeConAdj,
        Instr::SwitchCon {
            disc,
            arms,
            default,
        } => LInstr::SwitchCon {
            disc: *disc,
            arms: arms.iter().map(|(c, l)| (*c, resolve(*l))).collect(),
            default: resolve(*default),
        },
        Instr::SwitchInt { arms, default } => LInstr::SwitchInt {
            arms: arms.iter().map(|(k, l)| (*k, resolve(*l))).collect(),
            default: resolve(*default),
        },
        Instr::SwitchStr { arms, default } => LInstr::SwitchStr {
            arms: arms.iter().map(|(s, l)| (s.clone(), resolve(*l))).collect(),
            default: resolve(*default),
        },
        Instr::SwitchExn { arms, default } => LInstr::SwitchExn {
            arms: arms.iter().map(|(e, l)| (*e, resolve(*l))).collect(),
            default: resolve(*default),
        },
        Instr::Jump(l) => LInstr::Jump(resolve(*l)),
        Instr::JumpIfFalse(l) => LInstr::JumpIfFalse(resolve(*l)),
        Instr::Prim { p, at } => LInstr::Prim { p: *p, at: *at },
        Instr::RegHandle(slot) => LInstr::RegHandle(*slot),
        Instr::Call {
            label,
            nargs,
            nformals,
            tail,
        } => LInstr::Call {
            fun: prog.entry_of[label],
            target: resolve(*label),
            nargs: *nargs,
            nformals: *nformals,
            tail: *tail,
        },
        Instr::CallClos { nargs, tail } => LInstr::CallClos {
            nargs: *nargs,
            tail: *tail,
        },
        Instr::EnterViaPair { nformals } => LInstr::EnterViaPair {
            nformals: *nformals,
        },
        Instr::Ret => LInstr::Ret,
        Instr::GcCheck => LInstr::GcCheck,
        Instr::LetRegion { names } => LInstr::LetRegion {
            names: names.clone().into_boxed_slice(),
        },
        Instr::EndRegions(n) => LInstr::EndRegions(*n),
        Instr::PushHandler { handler } => LInstr::PushHandler {
            target: resolve(*handler),
        },
        Instr::PopHandler => LInstr::PopHandler,
        Instr::MkExn { exn, has_arg, at } => LInstr::MkExn {
            exn: *exn,
            has_arg: *has_arg,
            at: *at,
        },
        Instr::DeExn => LInstr::DeExn,
        Instr::Raise => LInstr::Raise,
        Instr::Halt => LInstr::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::FunInfo;
    use crate::threaded::Op;
    use kit_lambda::ty::{DataEnv, LTy};

    fn mini_program(code: Vec<Instr>, label_addrs: Vec<usize>) -> Program {
        Program {
            code,
            label_addrs,
            funs: vec![FunInfo {
                entry: 0,
                nlocals: 4,
                nfinite: 0,
                name: "<main>".into(),
            }],
            entry_of: [(0usize, 0u32)].into_iter().collect(),
            main: 0,
            global_infinite: vec![],
            exn_names: vec![],
            result_ty: LTy::Int,
            data: DataEnv::default(),
        }
    }

    #[test]
    fn fuses_load_load_prim_and_remaps_targets() {
        // label 0 -> pc 0, label 1 -> pc 5 (the Halt).
        let prog = mini_program(
            vec![
                // Not fusible (`GcCheck` would fuse with the load now
                // that `GcCheckLoad` is a candidate).
                Instr::DeConAdj, // pc 0 (leader)
                Instr::Load(1),  // pc 1 ┐
                Instr::Load(2),  // pc 2 │ fused (cost 3)
                Instr::Prim {
                    p: Prim::IAdd,
                    at: None,
                }, // pc 3 ┘
                Instr::Jump(1),  // pc 4
                Instr::Halt,     // pc 5 (leader)
            ],
            vec![0, 5],
        );
        let linked = link(&prog, Fusion::Full);
        assert_eq!(linked.fused, 1);
        assert_eq!(linked.code.len(), 4);
        assert_eq!(
            linked.code[1],
            LInstr::LoadLoadPrim {
                a: 1,
                b: 2,
                p: Prim::IAdd,
                at: None
            }
        );
        // Old pc 5 (Halt) is the 4th linked instruction.
        assert_eq!(linked.code[2], LInstr::Jump(3));
        assert_eq!(linked.pc_of_label[1], 3);
        let total: u64 = linked.code.iter().map(|i| Op::of(i).cost()).sum();
        assert_eq!(
            total,
            prog.code.len() as u64,
            "costs cover every source instruction"
        );
    }

    #[test]
    fn leaders_block_fusion() {
        // A label bound to the Select keeps Load+Select unfused.
        let prog = mini_program(
            vec![
                Instr::Load(0),   // pc 0
                Instr::Select(1), // pc 1 (leader: label 1)
                Instr::Halt,      // pc 2
            ],
            vec![0, 1],
        );
        let linked = link(&prog, Fusion::Full);
        assert_eq!(linked.fused, 0);
        assert_eq!(linked.code.len(), 3);
        assert_eq!(linked.pc_of_label[1], 1);
    }

    #[test]
    fn fusion_off_is_one_to_one() {
        let prog = mini_program(
            vec![
                Instr::Load(1),
                Instr::Load(2),
                Instr::Prim {
                    p: Prim::IAdd,
                    at: None,
                },
                Instr::Halt,
            ],
            vec![0],
        );
        let linked = link(&prog, Fusion::Off);
        assert_eq!(linked.fused, 0);
        assert_eq!(linked.code.len(), prog.code.len());
    }
}
