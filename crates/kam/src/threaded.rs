//! Struct-of-arrays translation of the compiled stream for direct-threaded
//! dispatch, and the fusion of hot opcode runs into superinstructions.
//!
//! [`translate`] turns a [`Program`] into a [`ThreadedCode`]: one
//! dense opcode byte per instruction ([`Op`]) plus a parallel array of
//! pre-decoded fixed-size operands ([`Args`]). Variable-sized payloads
//! (switch tables, string literals, `letregion` name lists) move into side
//! tables indexed through an operand slot, so the arrays the dispatch loop
//! touches are compact and cache-dense. With [`Fusion::Full`] the
//! one-to-one stream is then regrouped: every run matching a row of
//! [`FUSION_CANDIDATES`] becomes that row's opcode, and branch targets,
//! switch tables and entry points move to the regrouped pcs.
//!
//! **The packing rule.** A superinstruction's [`Args`] is the merge of its
//! components' operands, in component order: `u32` operands (local slots,
//! switch-table indices) take `a` then `b`, a constant takes `k`, a select
//! index `n`, a primitive `p` with its place, a branch target `t`, region
//! slots (a primitive's place, a `RegHandle`'s slot) `at` then `at2`.
//! `pack` applies it, [`ThreadedCode::unfuse`] is its inverse, and a
//! table test holds every row to the lanes there are. [`Op::cost`] of a
//! superinstruction is its row's `seq.len()` — the source instructions it
//! stands for — which keeps instruction totals, fuel and the GC schedule
//! bit-identical with [`Fusion::Off`]'s one per instruction.
//!
//! The execution engine itself — the jump table over [`Op`] — lives in
//! [`crate::vm`].

use crate::fusion_table::{Pattern, FUSION_CANDIDATES};
use crate::instr::{Disc, Instr, Program, RegSlot};
use kit_lambda::exp::Prim;
use std::fmt;

/// Whether [`translate`] emits superinstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fusion {
    /// No superinstructions: one opcode per source instruction, run by
    /// base handlers only — the differential oracle for the fusion pass.
    Off,
    /// Every candidate in the generated table.
    #[default]
    Full,
}

/// One operand field of [`Args`] a base opcode reads, named as there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    K,
    A,
    T,
    N,
    M,
    Flag,
    P,
    At,
}

/// Declares the opcode list once: the enum, [`Op::ALL`], the mnemonics,
/// and for each base opcode the [`Args`] fields it reads.
macro_rules! ops {
    (base { $($b:ident [$($f:ident),*],)* } fused { $($s:ident,)* }) => {
        /// Dense opcode of the threaded engine. The base opcodes mirror
        /// the [`Instr`] variants, in the same order; the
        /// superinstructions follow, one per row of
        /// [`FUSION_CANDIDATES`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Op {
            $($b,)*
            $($s,)*
        }

        impl Op {
            /// Every opcode, in discriminant order (`ALL[op as usize] ==
            /// op`).
            pub const ALL: [Op; OP_COUNT] = [$(Op::$b,)* $(Op::$s,)*];

            /// Number of base opcodes; every later one is fused.
            const BASE_COUNT: usize = [$(Op::$b),*].len();

            /// The mnemonic (the variant name).
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Op::$b => stringify!($b),)*
                    $(Op::$s => stringify!($s),)*
                }
            }

            /// The operand fields a base opcode reads; empty for a
            /// superinstruction, whose operands are its components' (see
            /// [`ThreadedCode::unfuse`]).
            pub fn fields(self) -> &'static [Field] {
                match self {
                    $(Op::$b => &[$(Field::$f),*],)*
                    _ => &[],
                }
            }
        }

        /// Number of opcodes.
        pub const OP_COUNT: usize = [$(Op::$b,)* $(Op::$s,)*].len();
    };
}

ops! {
    base {
        PushConst [K],
        PushStr [A],
        Spread [N],
        Unreachable [],
        PushReal [K, At],
        Load [A],
        Store [A],
        Pop [],
        MkRecord [N, At],
        Select [N],
        MkCon [A, N, Flag, At],
        DeConAdj [],
        SwitchCon [A],
        SwitchInt [A],
        SwitchStr [A],
        SwitchExn [A],
        Jump [T],
        JumpIfFalse [T],
        Prim [P, At],
        RegHandle [At],
        Call [A, T, N, M, Flag],
        CallClos [N, Flag],
        EnterViaPair [N, M],
        Ret [],
        GcCheck [],
        LetRegion [A],
        EndRegions [N],
        PushHandler [T],
        PopHandler [],
        MkExn [A, Flag, At],
        DeExn [],
        Raise [],
        Halt [],
    }
    fused {
        LoadLoadPrim,
        PushConstPrim,
        LoadSelect,
        LoadConstPrim,
        LoadSelectStore,
        LoadLoadPrimJump,
        LoadConstPrimJump,
        // Selected from `--profile-fusion` counts.
        StoreLoadSelect,
        LoadPrimJump,
        StoreLoad,
        LoadLoad,
        PrimJump,
        LoadStore,
        LoadSwitchCon,
        GcCheckLoad,
        RegHandleRegHandle,
        // Triples the profile still reported hot but uncovered.
        SelectStoreLoad,
        GcCheckLoadSwitchCon,
        RegHandleRegHandleLoad,
        RegHandleLoadLoad,
    }
}

/// [`Op::cost`] as a table: 1, or the length of the run a row replaces.
const COSTS: [u8; OP_COUNT] = {
    let mut costs = [1; OP_COUNT];
    let mut i = 0;
    while i < FUSION_CANDIDATES.len() {
        costs[FUSION_CANDIDATES[i].out as usize] = FUSION_CANDIDATES[i].seq.len() as u8;
        i += 1;
    }
    costs
};

impl Op {
    /// The opcode of an instruction.
    pub fn of(ins: &Instr) -> Op {
        match ins {
            Instr::PushConst(..) => Op::PushConst,
            Instr::PushStr(..) => Op::PushStr,
            Instr::Spread { .. } => Op::Spread,
            Instr::Unreachable => Op::Unreachable,
            Instr::PushReal(..) => Op::PushReal,
            Instr::Load(..) => Op::Load,
            Instr::Store(..) => Op::Store,
            Instr::Pop => Op::Pop,
            Instr::MkRecord { .. } => Op::MkRecord,
            Instr::Select(..) => Op::Select,
            Instr::MkCon { .. } => Op::MkCon,
            Instr::DeConAdj => Op::DeConAdj,
            Instr::SwitchCon { .. } => Op::SwitchCon,
            Instr::SwitchInt { .. } => Op::SwitchInt,
            Instr::SwitchStr { .. } => Op::SwitchStr,
            Instr::SwitchExn { .. } => Op::SwitchExn,
            Instr::Jump(..) => Op::Jump,
            Instr::JumpIfFalse(..) => Op::JumpIfFalse,
            Instr::Prim { .. } => Op::Prim,
            Instr::RegHandle(..) => Op::RegHandle,
            Instr::Call { .. } => Op::Call,
            Instr::CallClos { .. } => Op::CallClos,
            Instr::EnterViaPair { .. } => Op::EnterViaPair,
            Instr::Ret => Op::Ret,
            Instr::GcCheck => Op::GcCheck,
            Instr::LetRegion { .. } => Op::LetRegion,
            Instr::EndRegions(..) => Op::EndRegions,
            Instr::PushHandler { .. } => Op::PushHandler,
            Instr::PopHandler => Op::PopHandler,
            Instr::MkExn { .. } => Op::MkExn,
            Instr::DeExn => Op::DeExn,
            Instr::Raise => Op::Raise,
            Instr::Halt => Op::Halt,
        }
    }

    /// Source instructions this opcode accounts for: the length of the
    /// run a superinstruction's row replaces, 1 for a base opcode.
    /// Charging it keeps fuel, instruction totals and the GC schedule
    /// bit-identical with [`Fusion::Off`], which counts one per
    /// instruction.
    #[inline]
    pub const fn cost(self) -> u64 {
        COSTS[self as usize] as u64
    }

    /// Whether this is a superinstruction.
    pub fn is_fused(self) -> bool {
        self as usize >= Op::BASE_COUNT
    }

    /// The row this superinstruction is the `out` of.
    fn row(self) -> Option<&'static Pattern> {
        FUSION_CANDIDATES.iter().find(|p| p.out == self)
    }

    /// Whether every operand of this base opcode has a packing lane, so
    /// it can be a member of a fusion row.
    pub fn packs(self) -> bool {
        !self
            .fields()
            .iter()
            .any(|f| matches!(f, Field::M | Field::Flag))
    }
}

/// Pre-decoded fixed-size operands of one threaded instruction. A base
/// opcode reads the fields [`Op::fields`] lists, a superinstruction the
/// lanes the packing rule (module docs) gave its components; unused
/// fields are zeroed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// 64-bit immediate (constants, real bits).
    pub k: u64,
    /// First `u32` operand (local slot, function id, side-table index,
    /// exception id).
    pub a: u32,
    /// Second `u32` operand (superinstructions only).
    pub b: u32,
    /// Branch target / call entry pc.
    pub t: u32,
    /// First `u16` operand (field counts, select index).
    pub n: u16,
    /// Second `u16` operand (a call's region-formal count, a stub's
    /// argument count).
    pub m: u16,
    /// Boolean operand (tail call, discriminant word, has-arg).
    pub flag: bool,
    /// Primitive operation (meaningful for prim opcodes only).
    pub p: Prim,
    /// Allocation place or region slot, if any.
    pub at: Option<RegSlot>,
    /// Second region slot (superinstructions only).
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

/// A program in threaded (struct-of-arrays) form: what the VM executes.
#[derive(Debug, Clone)]
pub struct ThreadedCode {
    /// Opcode stream, parallel to `args`.
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
    /// Function id → entry pc.
    pub entry_pc: Vec<u32>,
    /// Label id → pc (for `CallClos`).
    pub pc_of_label: Vec<u32>,
    /// Label id → function id (for `CallClos`).
    pub fun_of_label: Vec<u32>,
    /// Superinstructions in the stream (0 with fusion off).
    pub fused: u64,
}

/// Translates a program into threaded struct-of-arrays form: one opcode
/// per instruction, operands in the fields [`Op::fields`] names (side
/// tables through `a`), then — with [`Fusion::Full`] — the regrouping into
/// superinstructions.
pub fn translate(prog: &Program, fusion: Fusion) -> ThreadedCode {
    let n = prog.code.len();
    let mut t = ThreadedCode {
        ops: Vec::with_capacity(n),
        args: Vec::with_capacity(n),
        strs: Vec::new(),
        con_switches: Vec::new(),
        int_switches: Vec::new(),
        str_switches: Vec::new(),
        exn_switches: Vec::new(),
        names: Vec::new(),
        entry_pc: prog.funs.iter().map(|f| f.entry).collect(),
        pc_of_label: prog.pc_of_label.clone(),
        fun_of_label: prog.fun_of_label.clone(),
        fused: 0,
    };
    for ins in &prog.code {
        t.push_instr(ins);
    }
    if fusion == Fusion::Full {
        t.fuse();
    }
    t
}

/// The fusion candidate matching at `i`, if any — the first (longest, by
/// table ordering) row whose opcodes match at adjacent pcs with no
/// interior leader; a branch could land mid-group otherwise.
fn match_at(ops: &[Op], leader: &[bool], i: usize) -> Option<&'static Pattern> {
    FUSION_CANDIDATES.iter().find(|pat| {
        let end = i + pat.seq.len();
        end <= ops.len() && ops[i..end] == *pat.seq && !leader[i + 1..end].contains(&true)
    })
}

/// The packing rule (module docs): merges the operands of a run of base
/// opcodes into one superinstruction's [`Args`].
fn pack(seq: &[Op], parts: &[Args]) -> Args {
    let mut g = Args::zero();
    let (mut words, mut regions) = (0, 0);
    for (op, x) in seq.iter().zip(parts) {
        for f in op.fields() {
            match f {
                Field::A => {
                    *[&mut g.a, &mut g.b][words] = x.a;
                    words += 1;
                }
                Field::At => {
                    *[&mut g.at, &mut g.at2][regions] = x.at;
                    regions += 1;
                }
                Field::K => g.k = x.k,
                Field::N => g.n = x.n,
                Field::P => g.p = x.p,
                Field::T => g.t = x.t,
                Field::M | Field::Flag => unreachable!("{op:?} has no packing lane"),
            }
        }
    }
    g
}

impl ThreadedCode {
    /// Appends one instruction, encoding its operands into [`Args`] and
    /// copying variable-sized payloads into the side tables.
    fn push_instr(&mut self, ins: &Instr) {
        let t = self;
        let op = Op::of(ins);
        let mut x = Args::zero();
        match *ins {
            Instr::PushConst(k) => x.k = k,
            Instr::PushStr(ref s) => {
                x.a = t.strs.len() as u32;
                t.strs.push(s.clone());
            }
            Instr::Spread { n } => x.n = n,
            Instr::Unreachable
            | Instr::Pop
            | Instr::DeConAdj
            | Instr::Ret
            | Instr::GcCheck
            | Instr::PopHandler
            | Instr::DeExn
            | Instr::Raise
            | Instr::Halt => {}
            Instr::PushReal(r, at) => {
                x.k = r.to_bits();
                x.at = Some(at);
            }
            Instr::Load(i) | Instr::Store(i) => x.a = i,
            Instr::MkRecord { n, at } => {
                x.n = n;
                x.at = Some(at);
            }
            Instr::Select(i) => x.n = i,
            Instr::MkCon { ctor, n, disc, at } => {
                x.a = ctor as u32;
                x.n = n;
                x.flag = disc;
                x.at = Some(at);
            }
            Instr::SwitchCon {
                disc,
                ref arms,
                default,
            } => {
                x.a = t.con_switches.len() as u32;
                t.con_switches.push((disc, (arms[..].into(), default)));
            }
            Instr::SwitchInt { ref arms, default } => {
                x.a = t.int_switches.len() as u32;
                t.int_switches.push((arms[..].into(), default));
            }
            Instr::SwitchStr { ref arms, default } => {
                x.a = t.str_switches.len() as u32;
                t.str_switches.push((arms[..].into(), default));
            }
            Instr::SwitchExn { ref arms, default } => {
                x.a = t.exn_switches.len() as u32;
                t.exn_switches.push((arms[..].into(), default));
            }
            Instr::Jump(target) | Instr::JumpIfFalse(target) => x.t = target,
            Instr::Prim { p, at } => {
                x.p = p;
                x.at = at;
            }
            Instr::RegHandle(slot) => x.at = Some(slot),
            Instr::Call {
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
            Instr::CallClos { nargs, tail } => {
                x.n = nargs;
                x.flag = tail;
            }
            Instr::EnterViaPair { nformals, nargs } => {
                x.n = nformals;
                x.m = nargs;
            }
            Instr::LetRegion { ref names } => {
                x.a = t.names.len() as u32;
                t.names.push(names[..].into());
            }
            Instr::EndRegions(n) => x.n = n,
            Instr::PushHandler { target } => x.t = target,
            Instr::MkExn { exn, has_arg, at } => {
                x.a = exn;
                x.flag = has_arg;
                x.at = at;
            }
        }
        t.ops.push(op);
        t.args.push(x);
    }

    /// Regroups the one-to-one stream into superinstructions, in place. A
    /// group never spans a *leader* (any pc a label is bound to), so every
    /// branch target remains the start of an instruction; calls are in no
    /// row, so a return address (the pc after a non-tail call) is a group
    /// start too.
    fn fuse(&mut self) {
        let n = self.ops.len();
        let mut leader = vec![false; n];
        for &pc in &self.pc_of_label {
            if pc != u32::MAX {
                leader[pc as usize] = true;
            }
        }

        // Choose groups (greedy, longest first) and map old → new pcs.
        let mut new_pc = vec![u32::MAX; n];
        let mut group = vec![None; n];
        let (mut i, mut npc) = (0, 0);
        while i < n {
            new_pc[i] = npc;
            group[i] = match_at(&self.ops, &leader, i);
            npc += 1;
            i += group[i].map_or(1, |pat| pat.seq.len());
        }

        // Move every pc operand to the new numbering.
        let remap = |pc: &mut u32| {
            if *pc != u32::MAX {
                debug_assert_ne!(new_pc[*pc as usize], u32::MAX, "branch into a fused group");
                *pc = new_pc[*pc as usize];
            }
        };
        for (op, x) in self.ops.iter().zip(&mut self.args) {
            if op.fields().contains(&Field::T) {
                remap(&mut x.t);
            }
        }
        fn targets<K>(rows: &mut SwitchRows<K>) -> impl Iterator<Item = &mut u32> {
            rows.0
                .iter_mut()
                .map(|(_, t)| t)
                .chain(std::iter::once(&mut rows.1))
        }
        self.con_switches
            .iter_mut()
            .flat_map(|(_, rows)| targets(rows))
            .chain(self.int_switches.iter_mut().flat_map(targets))
            .chain(self.str_switches.iter_mut().flat_map(targets))
            .chain(self.exn_switches.iter_mut().flat_map(targets))
            .chain(&mut self.entry_pc)
            .chain(&mut self.pc_of_label)
            .for_each(remap);

        // Compact: a new pc is never ahead of the old pcs it is read from.
        let (mut i, mut w) = (0, 0);
        while i < n {
            let len = match group[i] {
                Some(pat) => {
                    let len = pat.seq.len();
                    self.args[w] = pack(pat.seq, &self.args[i..i + len]);
                    self.ops[w] = pat.out;
                    self.fused += 1;
                    len
                }
                None => {
                    self.ops[w] = self.ops[i];
                    self.args[w] = self.args[i];
                    1
                }
            };
            i += len;
            w += 1;
        }
        self.ops.truncate(w);
        self.args.truncate(w);
    }

    /// The base instructions the instruction at `pc` stands for, operands
    /// in their own fields: itself for a base opcode, its row's run for a
    /// superinstruction — the inverse of the packing rule.
    pub fn unfuse(&self, pc: usize) -> Vec<(Op, Args)> {
        let (op, g) = (self.ops[pc], &self.args[pc]);
        let Some(pat) = op.row() else {
            return vec![(op, *g)];
        };
        let (mut words, mut regions) = (0, 0);
        let part = |&op: &Op| {
            let mut x = Args::zero();
            for f in op.fields() {
                match f {
                    Field::A => {
                        x.a = [g.a, g.b][words];
                        words += 1;
                    }
                    Field::At => {
                        x.at = [g.at, g.at2][regions];
                        regions += 1;
                    }
                    Field::K => x.k = g.k,
                    Field::N => x.n = g.n,
                    Field::P => x.p = g.p,
                    Field::T => x.t = g.t,
                    Field::M | Field::Flag => unreachable!("{op:?} has no packing lane"),
                }
            }
            (op, x)
        };
        pat.seq.iter().map(part).collect()
    }
}

/// Dynamic opcode-sequence counters — the VM's fusion counting mode.
///
/// Counts pairs and triples of *fallthrough-adjacent* executed
/// instructions (consecutive pcs), which are exactly the sequences
/// [`translate`] could fuse; transitions taken via a branch are excluded.
/// Collected by the VM's counting instance over the stream it runs — with
/// fusion off, base opcodes, as `bench-summary --profile-fusion` asks
/// for — and dumped by
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
    use crate::instr::{FunInfo, Instr, Program};
    use crate::vm::Vm;
    use kit_lambda::ty::{DataEnv, LTy};
    use kit_runtime::value::scalar;
    use kit_runtime::{Rt, RtConfig};

    /// A one-function program; label `i` is bound to `pc_of_label[i]`.
    fn mini_program(code: Vec<Instr>, pc_of_label: Vec<u32>, nlocals: u32) -> Program {
        let mut fun_of_label = vec![u32::MAX; pc_of_label.len()];
        fun_of_label[0] = 0;
        Program {
            code,
            pc_of_label,
            fun_of_label,
            funs: vec![FunInfo {
                entry: 0,
                nlocals,
                nfinite: 0,
                name: "<main>".into(),
            }],
            main: 0,
            global_infinite: vec![0],
            exn_names: vec![],
            result_ty: LTy::Int,
            data: DataEnv::default(),
        }
    }

    fn iadd() -> Instr {
        Instr::Prim {
            p: Prim::IAdd,
            at: None,
        }
    }

    #[test]
    fn op_list_is_dense_and_base_first() {
        // `Op` is `repr(u8)` with sequential discriminants: `COSTS` and the
        // profile matrices are indexed by `op as usize`.
        assert_eq!((Op::BASE_COUNT, OP_COUNT), (33, 53));
        assert_eq!(Op::Halt as usize, 32);
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i, "ALL out of discriminant order");
            assert_eq!(op.is_fused(), i >= 33);
            assert_eq!(op.is_fused(), op.cost() > 1, "{op:?}");
        }
    }

    #[test]
    fn fuses_load_load_prim_and_remaps_targets() {
        // label 0 -> pc 0, label 1 -> pc 5 (the Halt).
        let prog = mini_program(
            vec![
                Instr::DeConAdj, // pc 0 (leader), in no row
                Instr::Load(1),  // pc 1 ┐
                Instr::Load(2),  // pc 2 │ fused (cost 3)
                iadd(),          // pc 3 ┘
                Instr::Jump(5),  // pc 4
                Instr::Halt,     // pc 5 (leader)
            ],
            vec![0, 5],
            4,
        );
        let t = translate(&prog, Fusion::Full);
        assert_eq!(t.fused, 1);
        assert_eq!(t.ops, [Op::DeConAdj, Op::LoadLoadPrim, Op::Jump, Op::Halt]);
        let x = t.args[1];
        assert_eq!((x.a, x.b, x.p, x.at), (1, 2, Prim::IAdd, None));
        let off = translate(&prog, Fusion::Off);
        assert_eq!(
            t.unfuse(1),
            (1..4)
                .map(|pc| (off.ops[pc], off.args[pc]))
                .collect::<Vec<_>>()
        );
        // Old pc 5 (Halt) is the 4th threaded instruction.
        assert_eq!(t.args[2].t, 3);
        assert_eq!(t.pc_of_label[1], 3);
        assert_eq!(
            t.ops.iter().map(|op| op.cost()).sum::<u64>(),
            prog.code.len() as u64,
            "costs cover every source instruction"
        );
    }

    #[test]
    fn leaders_block_fusion() {
        // A label bound to the Select keeps Load+Select unfused.
        let prog = mini_program(
            vec![Instr::Load(0), Instr::Select(1), Instr::Halt],
            vec![0, 1],
            4,
        );
        let t = translate(&prog, Fusion::Full);
        assert_eq!(t.fused, 0);
        assert_eq!(t.ops.len(), 3);
        assert_eq!(t.pc_of_label[1], 1);
    }

    #[test]
    fn fusion_off_is_one_to_one() {
        let prog = mini_program(
            vec![Instr::Load(1), Instr::Load(2), iadd(), Instr::Halt],
            vec![0],
            4,
        );
        let t = translate(&prog, Fusion::Off);
        assert_eq!(t.fused, 0);
        assert_eq!(t.ops, [Op::Load, Op::Load, Op::Prim, Op::Halt]);
    }

    #[test]
    fn a_store_slot_past_u16_survives_fusion() {
        // Nothing upstream bounds a function's locals, so the store slot
        // of `Load; Select; Store` travels in a `u32` lane like any other.
        const SLOT: u32 = 70_000;
        let prog = mini_program(
            vec![
                Instr::PushConst(scalar(7)),
                Instr::MkRecord {
                    n: 1,
                    at: crate::instr::RegSlot::Global(0),
                },
                Instr::Store(1),
                Instr::Load(1), // leader: keeps `Store; Load; Select` out
                Instr::Select(0),
                Instr::Store(SLOT),
                Instr::Load(SLOT),
                Instr::Halt,
            ],
            vec![0, 3],
            SLOT + 1,
        );
        let full = translate(&prog, Fusion::Full);
        let off = translate(&prog, Fusion::Off);
        assert_eq!(full.ops[3], Op::LoadSelectStore);
        assert_eq!(full.args[3].b, SLOT);
        assert_eq!(
            full.unfuse(3),
            (3..6)
                .map(|pc| (off.ops[pc], off.args[pc]))
                .collect::<Vec<_>>()
        );
        for fusion in [Fusion::Off, Fusion::Full] {
            let out = Vm::new(&prog, Rt::new(RtConfig::rgt()))
                .with_fusion(fusion)
                .run()
                .expect("vm run");
            assert_eq!(out.result, scalar(7), "{fusion:?}");
            assert_eq!(out.rt.stack[SLOT as usize], scalar(7), "{fusion:?}");
            assert_eq!(
                out.rt.stack[SLOT as usize & 0xFFFF],
                scalar(0),
                "{fusion:?}"
            );
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
