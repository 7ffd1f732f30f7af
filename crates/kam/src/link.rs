//! Post-compile link pass: rewrites the [`Instr`] stream into the
//! pre-resolved form the oracle dispatches on and the threaded engine is
//! translated from.
//!
//! Linking is **pre-resolution and nothing else**: one [`LInstr`] per
//! [`Instr`], at the same pc, with every control-flow operand an absolute
//! code address (`u32` pc). `Jump`/`JumpIfFalse`/switch arms/handlers
//! lose the `label_addrs` indirection; `Call` additionally resolves its
//! callee's function id at link time. Unknown calls (`CallClos`) read a
//! label scalar out of the closure at runtime and go through the dense
//! [`LinkedProgram::pc_of_label`]/[`LinkedProgram::fun_of_label`] tables
//! instead of a hash map.
//!
//! Superinstructions are not a property of this form: [`LInstr`] has the
//! base variants only, so the oracle loop in [`crate::vm`] cannot be
//! handed one. Fusion happens a step later, on the form it is for
//! ([`crate::threaded::translate`]).

use crate::instr::{Disc, Instr, Label, Program, RegSlot};
use kit_lambda::exp::Prim;

/// A linked instruction: operands pre-resolved to absolute pcs. See
/// [`Instr`] for per-variant semantics.
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
        nargs: u16,
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
}

/// Links `prog`: the instruction at pc `i` is `prog.code[i]` with its labels
/// resolved.
pub fn link(prog: &Program) -> LinkedProgram {
    let n = prog.code.len();
    let resolve = |l: Label| -> u32 {
        let addr = prog.label_addrs[l];
        debug_assert!(addr < n, "branch to unbound label {l}");
        addr as u32
    };
    let mut fun_of_label = vec![u32::MAX; prog.label_addrs.len()];
    for (&l, &f) in &prog.entry_of {
        fun_of_label[l] = f;
    }
    LinkedProgram {
        code: prog
            .code
            .iter()
            .map(|ins| link_one(prog, ins, &resolve))
            .collect(),
        entry_pc: prog.funs.iter().map(|f| resolve(f.entry)).collect(),
        pc_of_label: prog
            .label_addrs
            .iter()
            .map(|&a| if a < n { a as u32 } else { u32::MAX })
            .collect(),
        fun_of_label,
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
        Instr::EnterViaPair { nformals, nargs } => LInstr::EnterViaPair {
            nformals: *nformals,
            nargs: *nargs,
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
