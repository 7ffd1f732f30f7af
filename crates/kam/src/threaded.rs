//! Struct-of-arrays translation of the linked form for direct-threaded
//! dispatch.
//!
//! [`translate`] turns a [`LinkedProgram`] into a [`ThreadedCode`]: one
//! dense opcode byte per instruction ([`Op`]) plus a parallel array of
//! pre-decoded fixed-size operands ([`Args`]). Variable-sized payloads
//! (switch tables, string literals, `letregion` name lists) move into side
//! tables indexed through an operand slot, so the arrays the dispatch loop
//! touches are compact and cache-dense. The execution engine itself — the
//! `const` handler table indexed by `Op` — lives next to the classic match
//! loop in [`crate::vm`]; this module owns the data layout and the exact
//! [`Op::cost`] accounting that keeps instruction totals bit-identical
//! across dispatch modes.
//!
//! [`ThreadedCode::rebuild`] reconstructs the [`LInstr`] for any pc, which
//! the disassembler and the round-trip tests use to prove the translation
//! lossless.

use crate::instr::{Disc, RegSlot};
use crate::link::{LInstr, LinkedProgram};
use kit_lambda::exp::Prim;
use std::fmt;

/// Dense opcode of the threaded engine: the handler-table index. One
/// variant per [`LInstr`] variant, in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    PushConst = 0,
    PushStr,
    Spread,
    Unreachable,
    PushReal,
    Load,
    Store,
    Pop,
    MkRecord,
    Select,
    MkCon,
    DeConAdj,
    SwitchCon,
    SwitchInt,
    SwitchStr,
    SwitchExn,
    Jump,
    JumpIfFalse,
    Prim,
    RegHandle,
    Call,
    CallClos,
    EnterViaPair,
    Ret,
    GcCheck,
    LetRegion,
    EndRegions,
    PushHandler,
    PopHandler,
    MkExn,
    DeExn,
    Raise,
    Halt,
    // ------------------------------------------------- superinstructions
    LoadLoadPrim,
    PushConstPrim,
    LoadSelect,
    StorePop,
    PushConstJumpIfFalse,
    LoadConstPrim,
    LoadSelectStore,
    LoadLoadPrimJump,
    LoadConstPrimJump,
    // ------------------------------------- profile-selected additions
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
    // ------------------------------------- uncovered-triple additions
    SelectStoreLoad,
    GcCheckLoadSwitchCon,
    RegHandleRegHandleLoad,
    RegHandleLoadLoad,
}

/// Number of opcodes (size of the handler table).
pub const OP_COUNT: usize = Op::RegHandleLoadLoad as usize + 1;

impl Op {
    /// Every opcode, in discriminant order (`ALL[op as usize] == op`).
    pub const ALL: [Op; OP_COUNT] = [
        Op::PushConst,
        Op::PushStr,
        Op::Spread,
        Op::Unreachable,
        Op::PushReal,
        Op::Load,
        Op::Store,
        Op::Pop,
        Op::MkRecord,
        Op::Select,
        Op::MkCon,
        Op::DeConAdj,
        Op::SwitchCon,
        Op::SwitchInt,
        Op::SwitchStr,
        Op::SwitchExn,
        Op::Jump,
        Op::JumpIfFalse,
        Op::Prim,
        Op::RegHandle,
        Op::Call,
        Op::CallClos,
        Op::EnterViaPair,
        Op::Ret,
        Op::GcCheck,
        Op::LetRegion,
        Op::EndRegions,
        Op::PushHandler,
        Op::PopHandler,
        Op::MkExn,
        Op::DeExn,
        Op::Raise,
        Op::Halt,
        Op::LoadLoadPrim,
        Op::PushConstPrim,
        Op::LoadSelect,
        Op::StorePop,
        Op::PushConstJumpIfFalse,
        Op::LoadConstPrim,
        Op::LoadSelectStore,
        Op::LoadLoadPrimJump,
        Op::LoadConstPrimJump,
        Op::StoreLoadSelect,
        Op::LoadPrimJump,
        Op::SelectConstPrim,
        Op::StoreLoad,
        Op::LoadLoad,
        Op::PrimJump,
        Op::SelectStore,
        Op::LoadStore,
        Op::LoadSwitchCon,
        Op::GcCheckLoad,
        Op::RegHandleRegHandle,
        Op::SelectStoreLoad,
        Op::GcCheckLoadSwitchCon,
        Op::RegHandleRegHandleLoad,
        Op::RegHandleLoadLoad,
    ];

    /// The opcode of a linked instruction.
    pub fn of(ins: &LInstr) -> Op {
        match ins {
            LInstr::PushConst(..) => Op::PushConst,
            LInstr::PushStr(..) => Op::PushStr,
            LInstr::Spread { .. } => Op::Spread,
            LInstr::Unreachable => Op::Unreachable,
            LInstr::PushReal(..) => Op::PushReal,
            LInstr::Load(..) => Op::Load,
            LInstr::Store(..) => Op::Store,
            LInstr::Pop => Op::Pop,
            LInstr::MkRecord { .. } => Op::MkRecord,
            LInstr::Select(..) => Op::Select,
            LInstr::MkCon { .. } => Op::MkCon,
            LInstr::DeConAdj => Op::DeConAdj,
            LInstr::SwitchCon { .. } => Op::SwitchCon,
            LInstr::SwitchInt { .. } => Op::SwitchInt,
            LInstr::SwitchStr { .. } => Op::SwitchStr,
            LInstr::SwitchExn { .. } => Op::SwitchExn,
            LInstr::Jump(..) => Op::Jump,
            LInstr::JumpIfFalse(..) => Op::JumpIfFalse,
            LInstr::Prim { .. } => Op::Prim,
            LInstr::RegHandle(..) => Op::RegHandle,
            LInstr::Call { .. } => Op::Call,
            LInstr::CallClos { .. } => Op::CallClos,
            LInstr::EnterViaPair { .. } => Op::EnterViaPair,
            LInstr::Ret => Op::Ret,
            LInstr::GcCheck => Op::GcCheck,
            LInstr::LetRegion { .. } => Op::LetRegion,
            LInstr::EndRegions(..) => Op::EndRegions,
            LInstr::PushHandler { .. } => Op::PushHandler,
            LInstr::PopHandler => Op::PopHandler,
            LInstr::MkExn { .. } => Op::MkExn,
            LInstr::DeExn => Op::DeExn,
            LInstr::Raise => Op::Raise,
            LInstr::Halt => Op::Halt,
            LInstr::LoadLoadPrim { .. } => Op::LoadLoadPrim,
            LInstr::PushConstPrim { .. } => Op::PushConstPrim,
            LInstr::LoadSelect { .. } => Op::LoadSelect,
            LInstr::StorePop { .. } => Op::StorePop,
            LInstr::PushConstJumpIfFalse { .. } => Op::PushConstJumpIfFalse,
            LInstr::LoadConstPrim { .. } => Op::LoadConstPrim,
            LInstr::LoadSelectStore { .. } => Op::LoadSelectStore,
            LInstr::LoadLoadPrimJump { .. } => Op::LoadLoadPrimJump,
            LInstr::LoadConstPrimJump { .. } => Op::LoadConstPrimJump,
            LInstr::StoreLoadSelect { .. } => Op::StoreLoadSelect,
            LInstr::LoadPrimJump { .. } => Op::LoadPrimJump,
            LInstr::SelectConstPrim { .. } => Op::SelectConstPrim,
            LInstr::StoreLoad { .. } => Op::StoreLoad,
            LInstr::LoadLoad { .. } => Op::LoadLoad,
            LInstr::PrimJump { .. } => Op::PrimJump,
            LInstr::SelectStore { .. } => Op::SelectStore,
            LInstr::LoadStore { .. } => Op::LoadStore,
            LInstr::LoadSwitchCon { .. } => Op::LoadSwitchCon,
            LInstr::GcCheckLoad { .. } => Op::GcCheckLoad,
            LInstr::RegHandleRegHandle { .. } => Op::RegHandleRegHandle,
            LInstr::SelectStoreLoad { .. } => Op::SelectStoreLoad,
            LInstr::GcCheckLoadSwitchCon { .. } => Op::GcCheckLoadSwitchCon,
            LInstr::RegHandleRegHandleLoad { .. } => Op::RegHandleRegHandleLoad,
            LInstr::RegHandleLoadLoad { .. } => Op::RegHandleLoadLoad,
        }
    }

    /// Source instructions this opcode accounts for: the length of the
    /// pattern a superinstruction replaces, 1 for a base opcode. Charging
    /// it keeps fuel, instruction totals and the GC schedule bit-identical
    /// with the oracle, which counts one per unfused instruction.
    #[inline]
    pub const fn cost(self) -> u64 {
        match self {
            Op::LoadLoadPrimJump | Op::LoadConstPrimJump => 4,
            Op::LoadLoadPrim
            | Op::LoadConstPrim
            | Op::LoadSelectStore
            | Op::StoreLoadSelect
            | Op::LoadPrimJump
            | Op::SelectConstPrim
            | Op::SelectStoreLoad
            | Op::GcCheckLoadSwitchCon
            | Op::RegHandleRegHandleLoad
            | Op::RegHandleLoadLoad => 3,
            Op::PushConstPrim
            | Op::LoadSelect
            | Op::StorePop
            | Op::PushConstJumpIfFalse
            | Op::StoreLoad
            | Op::LoadLoad
            | Op::PrimJump
            | Op::SelectStore
            | Op::LoadStore
            | Op::LoadSwitchCon
            | Op::GcCheckLoad
            | Op::RegHandleRegHandle => 2,
            _ => 1,
        }
    }

    /// The mnemonic (the `LInstr` variant name).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::PushConst => "PushConst",
            Op::PushStr => "PushStr",
            Op::Spread => "Spread",
            Op::Unreachable => "Unreachable",
            Op::PushReal => "PushReal",
            Op::Load => "Load",
            Op::Store => "Store",
            Op::Pop => "Pop",
            Op::MkRecord => "MkRecord",
            Op::Select => "Select",
            Op::MkCon => "MkCon",
            Op::DeConAdj => "DeConAdj",
            Op::SwitchCon => "SwitchCon",
            Op::SwitchInt => "SwitchInt",
            Op::SwitchStr => "SwitchStr",
            Op::SwitchExn => "SwitchExn",
            Op::Jump => "Jump",
            Op::JumpIfFalse => "JumpIfFalse",
            Op::Prim => "Prim",
            Op::RegHandle => "RegHandle",
            Op::Call => "Call",
            Op::CallClos => "CallClos",
            Op::EnterViaPair => "EnterViaPair",
            Op::Ret => "Ret",
            Op::GcCheck => "GcCheck",
            Op::LetRegion => "LetRegion",
            Op::EndRegions => "EndRegions",
            Op::PushHandler => "PushHandler",
            Op::PopHandler => "PopHandler",
            Op::MkExn => "MkExn",
            Op::DeExn => "DeExn",
            Op::Raise => "Raise",
            Op::Halt => "Halt",
            Op::LoadLoadPrim => "LoadLoadPrim",
            Op::PushConstPrim => "PushConstPrim",
            Op::LoadSelect => "LoadSelect",
            Op::StorePop => "StorePop",
            Op::PushConstJumpIfFalse => "PushConstJumpIfFalse",
            Op::LoadConstPrim => "LoadConstPrim",
            Op::LoadSelectStore => "LoadSelectStore",
            Op::LoadLoadPrimJump => "LoadLoadPrimJump",
            Op::LoadConstPrimJump => "LoadConstPrimJump",
            Op::StoreLoadSelect => "StoreLoadSelect",
            Op::LoadPrimJump => "LoadPrimJump",
            Op::SelectConstPrim => "SelectConstPrim",
            Op::StoreLoad => "StoreLoad",
            Op::LoadLoad => "LoadLoad",
            Op::PrimJump => "PrimJump",
            Op::SelectStore => "SelectStore",
            Op::LoadStore => "LoadStore",
            Op::LoadSwitchCon => "LoadSwitchCon",
            Op::GcCheckLoad => "GcCheckLoad",
            Op::RegHandleRegHandle => "RegHandleRegHandle",
            Op::SelectStoreLoad => "SelectStoreLoad",
            Op::GcCheckLoadSwitchCon => "GcCheckLoadSwitchCon",
            Op::RegHandleRegHandleLoad => "RegHandleRegHandleLoad",
            Op::RegHandleLoadLoad => "RegHandleLoadLoad",
        }
    }
}

/// Pre-decoded fixed-size operands of one threaded instruction. Field use
/// is per-opcode (documented at [`translate`]); unused fields are zeroed.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// 64-bit immediate (constants, real bits).
    pub k: u64,
    /// First `u32` operand (local slot, function id, side-table index,
    /// exception id).
    pub a: u32,
    /// Second `u32` operand (local slot).
    pub b: u32,
    /// Branch target / call entry pc.
    pub t: u32,
    /// First `u16` operand (field counts, select index).
    pub n: u16,
    /// Second `u16` operand (region-formal count, store slot of triples).
    pub m: u16,
    /// Boolean operand (tail call, discriminant word, has-arg).
    pub flag: bool,
    /// Primitive operation (meaningful for prim opcodes only).
    pub p: Prim,
    /// Allocation place, if any.
    pub at: Option<RegSlot>,
    /// Second region slot (`RegHandleRegHandle` only).
    pub at2: Option<RegSlot>,
}

impl Args {
    fn zero() -> Args {
        Args {
            k: 0,
            a: 0,
            b: 0,
            t: 0,
            n: 0,
            m: 0,
            flag: false,
            p: Prim::IAdd,
            at: None,
            at2: None,
        }
    }
}

/// Switch side-table row: `(arms, default pc)`.
pub type SwitchRows<K> = (Box<[(K, u32)]>, u32);

/// A program in threaded (struct-of-arrays) form: what
/// [`DispatchMode::Threaded`](crate::vm::DispatchMode) executes.
#[derive(Debug, Clone)]
pub struct ThreadedCode {
    /// Opcode stream (handler-table indices), parallel to `args`.
    pub ops: Vec<Op>,
    /// Pre-decoded operands, parallel to `ops`.
    pub args: Vec<Args>,
    /// String literals (`PushStr`), indexed by `a`.
    pub strs: Vec<String>,
    /// Constructor switches: `(disc, arms, default)`, indexed by `a`.
    pub con_switches: Vec<(Disc, SwitchRows<u32>)>,
    /// Integer switches, indexed by `a`.
    pub int_switches: Vec<SwitchRows<i64>>,
    /// String switches, indexed by `a`.
    pub str_switches: Vec<SwitchRows<String>>,
    /// Exception switches, indexed by `a`.
    pub exn_switches: Vec<SwitchRows<u32>>,
    /// `letregion` name lists, indexed by `a`.
    pub names: Vec<Box<[u32]>>,
    /// Function id → entry pc (from the linked program).
    pub entry_pc: Vec<u32>,
    /// Label id → pc (for `CallClos`).
    pub pc_of_label: Vec<u32>,
    /// Label id → function id (for `CallClos`).
    pub fun_of_label: Vec<u32>,
    /// Superinstructions in the stream (copied from the link pass).
    pub fused: u64,
}

/// Translates a linked program into threaded struct-of-arrays form.
///
/// Field assignments per opcode (see [`Args`]): `PushConst{k}`,
/// `PushStr{a=str}`, `Spread{n}`, `PushReal{k=bits, at}`, `Load{a}`,
/// `Store{a}`, `MkRecord{n, at}`, `Select{n}`, `MkCon{a=ctor, n,
/// flag=disc, at}`, switches `{a=table}`, `Jump{t}`, `JumpIfFalse{t}`,
/// `Prim{p, at}`, `RegHandle{at}`, `Call{a=fun, t, n=nargs, m=nformals,
/// flag=tail}`, `CallClos{n, flag}`, `EnterViaPair{n}`, `LetRegion{a}`,
/// `EndRegions{n}`, `PushHandler{t}`, `MkExn{a=exn, flag, at}`, and the
/// superinstructions `LoadLoadPrim{a, b, p, at}`, `PushConstPrim{k, p,
/// at}`, `LoadSelect{a, n}`, `StorePop{a}`, `PushConstJumpIfFalse{k, t}`,
/// `LoadConstPrim{a, k, p, at}`, `LoadSelectStore{a, n, m=j}`,
/// `LoadLoadPrimJump{a, b, p, at, t}`, `LoadConstPrimJump{a, k, p, at,
/// t}`, `StoreLoadSelect{a=j, b=i, n=sel}`, `LoadPrimJump{a, p, at, t}`,
/// `SelectConstPrim{n=sel, k, p, at}`, `StoreLoad{a=j, b=i}`,
/// `LoadLoad{a, b}`, `PrimJump{p, at, t}`, `SelectStoreLoad{n=sel, a=j,
/// b=i}`, `GcCheckLoadSwitchCon{b=i, a=table}`,
/// `RegHandleRegHandleLoad{at, at2, a=i}`.
pub fn translate(linked: LinkedProgram) -> ThreadedCode {
    let LinkedProgram {
        code,
        entry_pc,
        pc_of_label,
        fun_of_label,
        fused,
    } = linked;
    let mut t = ThreadedCode {
        ops: Vec::with_capacity(code.len()),
        args: Vec::with_capacity(code.len()),
        strs: Vec::new(),
        con_switches: Vec::new(),
        int_switches: Vec::new(),
        str_switches: Vec::new(),
        exn_switches: Vec::new(),
        names: Vec::new(),
        entry_pc,
        pc_of_label,
        fun_of_label,
        fused,
    };
    for ins in code {
        t.push_linstr(ins);
    }
    t
}

impl ThreadedCode {
    /// Appends one linked instruction, encoding its operands into [`Args`]
    /// and moving variable-sized payloads into the side tables.
    fn push_linstr(&mut self, ins: LInstr) {
        let t = self;
        let op = Op::of(&ins);
        let mut x = Args::zero();
        match ins {
            LInstr::PushConst(k) => x.k = k,
            LInstr::PushStr(s) => {
                x.a = t.strs.len() as u32;
                t.strs.push(s);
            }
            LInstr::Spread { n } => x.n = n,
            LInstr::Unreachable
            | LInstr::Pop
            | LInstr::DeConAdj
            | LInstr::Ret
            | LInstr::GcCheck
            | LInstr::PopHandler
            | LInstr::DeExn
            | LInstr::Raise
            | LInstr::Halt => {}
            LInstr::PushReal(r, at) => {
                x.k = r.to_bits();
                x.at = Some(at);
            }
            LInstr::Load(i) | LInstr::Store(i) => x.a = i,
            LInstr::MkRecord { n, at } => {
                x.n = n;
                x.at = Some(at);
            }
            LInstr::Select(i) => x.n = i,
            LInstr::MkCon { ctor, n, disc, at } => {
                x.a = ctor as u32;
                x.n = n;
                x.flag = disc;
                x.at = Some(at);
            }
            LInstr::SwitchCon {
                disc,
                arms,
                default,
            } => {
                x.a = t.con_switches.len() as u32;
                t.con_switches.push((disc, (arms, default)));
            }
            LInstr::SwitchInt { arms, default } => {
                x.a = t.int_switches.len() as u32;
                t.int_switches.push((arms, default));
            }
            LInstr::SwitchStr { arms, default } => {
                x.a = t.str_switches.len() as u32;
                t.str_switches.push((arms, default));
            }
            LInstr::SwitchExn { arms, default } => {
                x.a = t.exn_switches.len() as u32;
                t.exn_switches.push((arms, default));
            }
            LInstr::Jump(target) | LInstr::JumpIfFalse(target) => x.t = target,
            LInstr::Prim { p, at } => {
                x.p = p;
                x.at = at;
            }
            LInstr::RegHandle(slot) => x.at = Some(slot),
            LInstr::Call {
                fun,
                target,
                nargs,
                nformals,
                tail,
            } => {
                x.a = fun;
                x.t = target;
                x.n = nargs;
                x.m = nformals;
                x.flag = tail;
            }
            LInstr::CallClos { nargs, tail } => {
                x.n = nargs;
                x.flag = tail;
            }
            LInstr::EnterViaPair { nformals } => x.n = nformals,
            LInstr::LetRegion { names } => {
                x.a = t.names.len() as u32;
                t.names.push(names);
            }
            LInstr::EndRegions(n) => x.n = n,
            LInstr::PushHandler { target } => x.t = target,
            LInstr::MkExn { exn, has_arg, at } => {
                x.a = exn;
                x.flag = has_arg;
                x.at = at;
            }
            LInstr::LoadLoadPrim { a, b, p, at } => {
                x.a = a;
                x.b = b;
                x.p = p;
                x.at = at;
            }
            LInstr::PushConstPrim { k, p, at } => {
                x.k = k;
                x.p = p;
                x.at = at;
            }
            LInstr::LoadSelect { i, sel } => {
                x.a = i;
                x.n = sel;
            }
            LInstr::StorePop { i } => x.a = i,
            LInstr::PushConstJumpIfFalse { k, target } => {
                x.k = k;
                x.t = target;
            }
            LInstr::LoadConstPrim { i, k, p, at } => {
                x.a = i;
                x.k = k;
                x.p = p;
                x.at = at;
            }
            LInstr::LoadSelectStore { i, sel, j } => {
                x.a = i;
                x.n = sel;
                x.m = j as u16;
                debug_assert_eq!(x.m as u32, j, "store slot exceeds u16");
            }
            LInstr::LoadLoadPrimJump {
                a,
                b,
                p,
                at,
                target,
            } => {
                x.a = a;
                x.b = b;
                x.p = p;
                x.at = at;
                x.t = target;
            }
            LInstr::LoadConstPrimJump {
                i,
                k,
                p,
                at,
                target,
            } => {
                x.a = i;
                x.k = k;
                x.p = p;
                x.at = at;
                x.t = target;
            }
            LInstr::StoreLoadSelect { j, i, sel } => {
                x.a = j;
                x.b = i;
                x.n = sel;
            }
            LInstr::LoadPrimJump { i, p, at, target } => {
                x.a = i;
                x.p = p;
                x.at = at;
                x.t = target;
            }
            LInstr::SelectConstPrim { sel, k, p, at } => {
                x.n = sel;
                x.k = k;
                x.p = p;
                x.at = at;
            }
            LInstr::StoreLoad { j, i } => {
                x.a = j;
                x.b = i;
            }
            LInstr::LoadLoad { a, b } => {
                x.a = a;
                x.b = b;
            }
            LInstr::PrimJump { p, at, target } => {
                x.p = p;
                x.at = at;
                x.t = target;
            }
            LInstr::SelectStore { sel, j } => {
                x.n = sel;
                x.a = j;
            }
            LInstr::LoadStore { i, j } => {
                x.a = i;
                x.b = j;
            }
            LInstr::LoadSwitchCon {
                i,
                disc,
                arms,
                default,
            } => {
                x.b = i;
                x.a = t.con_switches.len() as u32;
                t.con_switches.push((disc, (arms, default)));
            }
            LInstr::GcCheckLoad { i } => x.a = i,
            LInstr::RegHandleRegHandle { a, b } => {
                x.at = Some(a);
                x.at2 = Some(b);
            }
            LInstr::SelectStoreLoad { sel, j, i } => {
                x.n = sel;
                x.a = j;
                x.b = i;
            }
            LInstr::GcCheckLoadSwitchCon {
                i,
                disc,
                arms,
                default,
            } => {
                x.b = i;
                x.a = t.con_switches.len() as u32;
                t.con_switches.push((disc, (arms, default)));
            }
            LInstr::RegHandleRegHandleLoad { a, b, i } => {
                x.at = Some(a);
                x.at2 = Some(b);
                x.a = i;
            }
            LInstr::RegHandleLoadLoad { r, i, j } => {
                x.at = Some(r);
                x.a = i;
                x.b = j;
            }
        }
        t.ops.push(op);
        t.args.push(x);
    }

    /// Reconstructs the linked instruction at `pc` (the inverse of
    /// [`translate`]; used by the disassembler and the round-trip tests).
    pub fn rebuild(&self, pc: usize) -> LInstr {
        let x = &self.args[pc];
        match self.ops[pc] {
            Op::PushConst => LInstr::PushConst(x.k),
            Op::PushStr => LInstr::PushStr(self.strs[x.a as usize].clone()),
            Op::Spread => LInstr::Spread { n: x.n },
            Op::Unreachable => LInstr::Unreachable,
            Op::PushReal => LInstr::PushReal(f64::from_bits(x.k), x.at.unwrap()),
            Op::Load => LInstr::Load(x.a),
            Op::Store => LInstr::Store(x.a),
            Op::Pop => LInstr::Pop,
            Op::MkRecord => LInstr::MkRecord {
                n: x.n,
                at: x.at.unwrap(),
            },
            Op::Select => LInstr::Select(x.n),
            Op::MkCon => LInstr::MkCon {
                ctor: x.a as u16,
                n: x.n,
                disc: x.flag,
                at: x.at.unwrap(),
            },
            Op::DeConAdj => LInstr::DeConAdj,
            Op::SwitchCon => {
                let (disc, (arms, default)) = &self.con_switches[x.a as usize];
                LInstr::SwitchCon {
                    disc: *disc,
                    arms: arms.clone(),
                    default: *default,
                }
            }
            Op::SwitchInt => {
                let (arms, default) = &self.int_switches[x.a as usize];
                LInstr::SwitchInt {
                    arms: arms.clone(),
                    default: *default,
                }
            }
            Op::SwitchStr => {
                let (arms, default) = &self.str_switches[x.a as usize];
                LInstr::SwitchStr {
                    arms: arms.clone(),
                    default: *default,
                }
            }
            Op::SwitchExn => {
                let (arms, default) = &self.exn_switches[x.a as usize];
                LInstr::SwitchExn {
                    arms: arms.clone(),
                    default: *default,
                }
            }
            Op::Jump => LInstr::Jump(x.t),
            Op::JumpIfFalse => LInstr::JumpIfFalse(x.t),
            Op::Prim => LInstr::Prim { p: x.p, at: x.at },
            Op::RegHandle => LInstr::RegHandle(x.at.unwrap()),
            Op::Call => LInstr::Call {
                fun: x.a,
                target: x.t,
                nargs: x.n,
                nformals: x.m,
                tail: x.flag,
            },
            Op::CallClos => LInstr::CallClos {
                nargs: x.n,
                tail: x.flag,
            },
            Op::EnterViaPair => LInstr::EnterViaPair { nformals: x.n },
            Op::Ret => LInstr::Ret,
            Op::GcCheck => LInstr::GcCheck,
            Op::LetRegion => LInstr::LetRegion {
                names: self.names[x.a as usize].clone(),
            },
            Op::EndRegions => LInstr::EndRegions(x.n),
            Op::PushHandler => LInstr::PushHandler { target: x.t },
            Op::PopHandler => LInstr::PopHandler,
            Op::MkExn => LInstr::MkExn {
                exn: x.a,
                has_arg: x.flag,
                at: x.at,
            },
            Op::DeExn => LInstr::DeExn,
            Op::Raise => LInstr::Raise,
            Op::Halt => LInstr::Halt,
            Op::LoadLoadPrim => LInstr::LoadLoadPrim {
                a: x.a,
                b: x.b,
                p: x.p,
                at: x.at,
            },
            Op::PushConstPrim => LInstr::PushConstPrim {
                k: x.k,
                p: x.p,
                at: x.at,
            },
            Op::LoadSelect => LInstr::LoadSelect { i: x.a, sel: x.n },
            Op::StorePop => LInstr::StorePop { i: x.a },
            Op::PushConstJumpIfFalse => LInstr::PushConstJumpIfFalse {
                k: x.k,
                target: x.t,
            },
            Op::LoadConstPrim => LInstr::LoadConstPrim {
                i: x.a,
                k: x.k,
                p: x.p,
                at: x.at,
            },
            Op::LoadSelectStore => LInstr::LoadSelectStore {
                i: x.a,
                sel: x.n,
                j: x.m as u32,
            },
            Op::LoadLoadPrimJump => LInstr::LoadLoadPrimJump {
                a: x.a,
                b: x.b,
                p: x.p,
                at: x.at,
                target: x.t,
            },
            Op::LoadConstPrimJump => LInstr::LoadConstPrimJump {
                i: x.a,
                k: x.k,
                p: x.p,
                at: x.at,
                target: x.t,
            },
            Op::StoreLoadSelect => LInstr::StoreLoadSelect {
                j: x.a,
                i: x.b,
                sel: x.n,
            },
            Op::LoadPrimJump => LInstr::LoadPrimJump {
                i: x.a,
                p: x.p,
                at: x.at,
                target: x.t,
            },
            Op::SelectConstPrim => LInstr::SelectConstPrim {
                sel: x.n,
                k: x.k,
                p: x.p,
                at: x.at,
            },
            Op::StoreLoad => LInstr::StoreLoad { j: x.a, i: x.b },
            Op::LoadLoad => LInstr::LoadLoad { a: x.a, b: x.b },
            Op::PrimJump => LInstr::PrimJump {
                p: x.p,
                at: x.at,
                target: x.t,
            },
            Op::SelectStore => LInstr::SelectStore { sel: x.n, j: x.a },
            Op::LoadStore => LInstr::LoadStore { i: x.a, j: x.b },
            Op::LoadSwitchCon => {
                let (disc, (arms, default)) = &self.con_switches[x.a as usize];
                LInstr::LoadSwitchCon {
                    i: x.b,
                    disc: *disc,
                    arms: arms.clone(),
                    default: *default,
                }
            }
            Op::GcCheckLoad => LInstr::GcCheckLoad { i: x.a },
            Op::RegHandleRegHandle => LInstr::RegHandleRegHandle {
                a: x.at.unwrap(),
                b: x.at2.unwrap(),
            },
            Op::SelectStoreLoad => LInstr::SelectStoreLoad {
                sel: x.n,
                j: x.a,
                i: x.b,
            },
            Op::GcCheckLoadSwitchCon => {
                let (disc, (arms, default)) = &self.con_switches[x.a as usize];
                LInstr::GcCheckLoadSwitchCon {
                    i: x.b,
                    disc: *disc,
                    arms: arms.clone(),
                    default: *default,
                }
            }
            Op::RegHandleRegHandleLoad => LInstr::RegHandleRegHandleLoad {
                a: x.at.unwrap(),
                b: x.at2.unwrap(),
                i: x.a,
            },
            Op::RegHandleLoadLoad => LInstr::RegHandleLoadLoad {
                r: x.at.unwrap(),
                i: x.a,
                j: x.b,
            },
        }
    }
}

/// Dynamic opcode-sequence counters — the VM's fusion counting mode.
///
/// Counts pairs and triples of *fallthrough-adjacent* executed
/// instructions (consecutive pcs), which are exactly the sequences the
/// link pass could fuse; transitions taken via a branch are excluded.
/// Collected with fusion off so base opcodes are visible, and dumped by
/// `bench-summary --profile-fusion` to regenerate the candidate table in
/// `crates/kam/src/fusion_table.rs`.
#[derive(Clone)]
pub struct FusionProfile {
    pairs: Vec<u64>,   // OP_COUNT^2, row-major
    triples: Vec<u64>, // OP_COUNT^3
    last_pc: usize,
    last2_pc: usize,
    last_op: usize,
    last2_op: usize,
}

impl Default for FusionProfile {
    fn default() -> Self {
        FusionProfile {
            pairs: vec![0; OP_COUNT * OP_COUNT],
            triples: vec![0; OP_COUNT * OP_COUNT * OP_COUNT],
            // Sentinels no real pc is adjacent to.
            last_pc: usize::MAX - 8,
            last2_pc: usize::MAX - 8,
            last_op: 0,
            last2_op: 0,
        }
    }
}

impl FusionProfile {
    /// Records one executed instruction at `pc`.
    #[inline]
    pub fn step(&mut self, pc: usize, op: Op) {
        let o = op as usize;
        if pc == self.last_pc.wrapping_add(1) {
            self.pairs[self.last_op * OP_COUNT + o] += 1;
            if self.last_pc == self.last2_pc.wrapping_add(1) {
                self.triples[(self.last2_op * OP_COUNT + self.last_op) * OP_COUNT + o] += 1;
            }
        }
        self.last2_pc = self.last_pc;
        self.last2_op = self.last_op;
        self.last_pc = pc;
        self.last_op = o;
    }

    /// Accumulates another run's counts (for cross-benchmark aggregation).
    pub fn merge(&mut self, other: &FusionProfile) {
        for (a, b) in self.pairs.iter_mut().zip(&other.pairs) {
            *a += b;
        }
        for (a, b) in self.triples.iter_mut().zip(&other.triples) {
            *a += b;
        }
    }

    /// Executed adjacent pairs, hottest first.
    pub fn hot_pairs(&self) -> Vec<([Op; 2], u64)> {
        let mut v: Vec<([Op; 2], u64)> = self
            .pairs
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| ([Op::ALL[i / OP_COUNT], Op::ALL[i % OP_COUNT]], n))
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    /// Executed adjacent triples, hottest first.
    pub fn hot_triples(&self) -> Vec<([Op; 3], u64)> {
        let mut v: Vec<([Op; 3], u64)> = self
            .triples
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                (
                    [
                        Op::ALL[i / (OP_COUNT * OP_COUNT)],
                        Op::ALL[(i / OP_COUNT) % OP_COUNT],
                        Op::ALL[i % OP_COUNT],
                    ],
                    n,
                )
            })
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }
}

// The matrices are megabytes of mostly-zero counters; summarize instead
// of dumping them into every `VmOutcome` debug print.
impl fmt::Debug for FusionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusionProfile")
            .field("pairs", &self.hot_pairs().len())
            .field("triples", &self.hot_triples().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_covers_the_enum() {
        // `Op` is `repr(u8)` with sequential discriminants; the handler
        // table is indexed by `op as usize`, so the last variant pins the
        // size.
        assert_eq!(OP_COUNT, 57);
        assert_eq!(Op::Halt as usize, 32);
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "ALL out of discriminant order");
        }
    }

    #[test]
    fn profile_counts_only_adjacent_pcs() {
        let mut p = FusionProfile::default();
        p.step(10, Op::Load);
        p.step(11, Op::Select); // adjacent: pair
        p.step(12, Op::Store); // adjacent: pair + triple
        p.step(40, Op::Load); // branch taken: no pair
        p.step(41, Op::Ret); // adjacent again, but no triple
        let pairs = p.hot_pairs();
        assert_eq!(pairs.len(), 3);
        for want in [
            ([Op::Load, Op::Select], 1),
            ([Op::Select, Op::Store], 1),
            ([Op::Load, Op::Ret], 1),
        ] {
            assert!(pairs.contains(&want), "missing {want:?}");
        }
        assert_eq!(
            p.hot_triples(),
            vec![([Op::Load, Op::Select, Op::Store], 1)]
        );
    }
}
