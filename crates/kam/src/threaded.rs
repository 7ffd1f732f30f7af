//! The bytecode the engine runs: one dense opcode byte per instruction
//! ([`Op`]) plus a parallel array of pre-decoded fixed-size operands
//! ([`Args`]), and the fusion of hot opcode runs into superinstructions.
//!
//! [`compile()`](crate::compile()) emits a [`ThreadedCode`] through
//! [`ThreadedCode::emit`], one base opcode per instruction. Variable-sized
//! payloads (switch tables, string literals, `letregion` name lists) go
//! into side tables indexed through an operand slot, so the arrays the
//! dispatch loop touches are compact and cache-dense. Branch operands
//! hold label ids while the compiler emits; [`ThreadedCode::bind_labels`]
//! rewrites them to pcs. With [`Fusion::Full`],
//! [`Executable::prepare`](crate::vm::Executable::prepare) regroups the
//! stream: every run matching a row of [`FUSION_CANDIDATES`] becomes that
//! row's opcode, and branch targets, switch tables, entry points and the
//! frame map move to the regrouped pcs — through the same pc rewrite that
//! binds the labels.
//!
//! **The packing rule.** A superinstruction's [`Args`] is the merge of its
//! components' operands, in component order: `u32` operands (local slots,
//! switch-table indices) take `a` then `b`, a constant takes `k`, a select
//! index `n`, a primitive `p` with its place, a branch target `t`, region
//! slots (a primitive's place, a `RegHandle`'s slot) `at` then `at2`.
//! `pack` applies it, [`ThreadedCode::unfuse`] is its inverse, and a
//! table test holds every row to the lanes there are. [`Op::cost`] of a
//! superinstruction is its row's `seq.len()` — the instructions it
//! stands for — which keeps instruction totals, fuel and the GC schedule
//! bit-identical with [`Fusion::Off`]'s one per instruction.
//!
//! The execution engine itself — the jump table over [`Op`] — lives in
//! [`crate::vm`].

use crate::fusion_table::{Pattern, FUSION_CANDIDATES};
use crate::instr::{Disc, RegSlot};
use kit_lambda::exp::Prim;
use std::fmt;

/// Whether [`Executable::prepare`](crate::vm::Executable::prepare) regroups
/// the stream into superinstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fusion {
    /// No superinstructions: the compiled stream as it is, run by base
    /// handlers only — the differential oracle for the fusion pass.
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
        /// Dense opcode of the engine. The base opcodes are what the
        /// compiler emits; the superinstructions follow, one per row of
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
    /// Base instructions this opcode accounts for: the length of the run
    /// a superinstruction's row replaces, 1 for a base opcode.
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

/// Pre-decoded fixed-size operands of one instruction. A base opcode reads
/// the fields [`Op::fields`] lists, and [`ThreadedCode::emit`] holds every
/// other field to [`Args::ZERO`]'s; a superinstruction reads the lanes the
/// packing rule (module docs) gave its components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// 64-bit immediate (constants, real bits).
    pub k: u64,
    /// First `u32` operand (local slot, function id, side-table index,
    /// exception id, constructor index).
    pub a: u32,
    /// Second `u32` operand (superinstructions only).
    pub b: u32,
    /// Branch target / call entry pc.
    pub t: u32,
    /// First count operand (field counts, select index, argument count).
    pub n: u32,
    /// Second count operand (a call's region-formal count, a stub's
    /// argument count).
    pub m: u32,
    /// Boolean operand (tail call, discriminant word, has-arg).
    pub flag: bool,
    /// Primitive operation (meaningful for prim opcodes only).
    pub p: Prim,
    /// Allocation place or region slot, if any.
    pub at: Option<RegSlot>,
    /// Second region slot (superinstructions only).
    pub at2: Option<RegSlot>,
}

// The two `u32` count lanes fit in padding: the array the dispatch loop
// reads stays at 48 bytes an instruction.
const _: () = assert!(std::mem::size_of::<Args>() == 48);

impl Args {
    /// Every field zero: what an instruction holds in the fields its
    /// opcode does not read.
    pub const ZERO: Args = Args {
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
    };

    /// These operands with only the fields `fields` names kept.
    fn only(&self, fields: &[Field]) -> Args {
        let mut x = Args::ZERO;
        for f in fields {
            match f {
                Field::K => x.k = self.k,
                Field::A => x.a = self.a,
                Field::T => x.t = self.t,
                Field::N => x.n = self.n,
                Field::M => x.m = self.m,
                Field::Flag => x.flag = self.flag,
                Field::P => x.p = self.p,
                Field::At => x.at = self.at,
            }
        }
        x
    }
}

/// Switch side-table row: `(arms, default pc)`.
pub type SwitchRows<K> = (Box<[(K, u32)]>, u32);

/// A compiled stream: what the compiler emits and the VM executes.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Label id → pc (`u32::MAX` if unbound). Used by `CallClos`, whose
    /// target label is only known at run time (closure field 0).
    pub pc_of_label: Vec<u32>,
    /// Label id → function id (`u32::MAX` if the label is not a function
    /// entry or stub).
    pub fun_of_label: Vec<u32>,
    /// The frame map: `(return pc, live)` of every non-tail call, sorted;
    /// while it is suspended, its frame's roots are local slots `0..live`
    /// (the bindings in scope) and its operands.
    pub frame_map: Vec<(u32, u32)>,
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
    let mut g = Args::ZERO;
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
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends one base instruction.
    ///
    /// # Panics
    ///
    /// In debug builds, if `op` is a superinstruction or `x` sets a field
    /// `op` does not read ([`Op::fields`]).
    pub fn emit(&mut self, op: Op, x: Args) {
        debug_assert!(!op.is_fused(), "{op:?} is emitted only by fusion");
        debug_assert_eq!(
            x.only(op.fields()),
            x,
            "{op:?} sets a field it does not read"
        );
        self.ops.push(op);
        self.args.push(x);
    }

    /// Appends `row` to a side table; returns its index, the `a` operand
    /// of the instruction that reads it.
    pub(crate) fn push_row<T>(table: &mut Vec<T>, row: T) -> u32 {
        table.push(row);
        u32::try_from(table.len() - 1).expect("side-table index fits a u32")
    }

    /// Rewrites every pc operand — the `t` of each opcode that reads one
    /// and every switch target — to `map[pc]`: label ids to pcs when the
    /// compiler binds its labels, unfused pcs to fused ones when the
    /// stream is regrouped.
    ///
    /// # Panics
    ///
    /// If an operand maps to `u32::MAX` (an unbound label, or a branch
    /// into a fused group).
    fn rewrite_pcs(&mut self, map: &[u32]) {
        let to = |pc: &mut u32| {
            let new = map[*pc as usize];
            assert_ne!(new, u32::MAX, "pc operand {pc} maps nowhere");
            *pc = new;
        };
        for (op, x) in self.ops.iter().zip(&mut self.args) {
            if op.fields().contains(&Field::T) {
                to(&mut x.t);
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
            .for_each(to);
    }

    /// Binds the labels: gives each known `Call` (whose `t` names its
    /// callee's entry label) the callee's function id, then rewrites every
    /// pc operand from a label id to the pc `pc_of_label` binds it to.
    ///
    /// # Panics
    ///
    /// If an operand names an unbound label.
    pub fn bind_labels(&mut self) {
        for (op, x) in self.ops.iter().zip(&mut self.args) {
            if *op == Op::Call {
                x.a = self.fun_of_label[x.t as usize];
            }
        }
        let labels = std::mem::take(&mut self.pc_of_label);
        self.rewrite_pcs(&labels);
        self.pc_of_label = labels;
    }

    /// Regroups the unfused stream into superinstructions, in place. A
    /// group never spans a *leader* (any pc a label is bound to), so every
    /// branch target remains the start of an instruction; calls are in no
    /// row, so a return address (the pc after a non-tail call) is a group
    /// start too.
    pub(crate) fn fuse(&mut self) {
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

        // Move every pc to the new numbering.
        self.rewrite_pcs(&new_pc);
        (self.entry_pc.iter_mut())
            .chain(&mut self.pc_of_label)
            .chain(self.frame_map.iter_mut().map(|(pc, _)| pc))
            .filter(|pc| **pc != u32::MAX)
            .for_each(|pc| *pc = new_pc[*pc as usize]);

        // Compact: a new pc is never ahead of the old pcs it is read from.
        let (mut i, mut w) = (0, 0);
        while i < n {
            let len = match group[i] {
                Some(pat) => {
                    let len = pat.seq.len();
                    self.args[w] = pack(pat.seq, &self.args[i..i + len]);
                    self.ops[w] = pat.out;
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
            let mut x = Args::ZERO;
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
/// fusion could regroup; transitions taken via a branch are excluded.
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
    use crate::instr::{FunInfo, Program};
    use crate::vm::Vm;
    use kit_lambda::ty::{DataEnv, LTy};
    use kit_runtime::value::scalar;
    use kit_runtime::{Rt, RtConfig};

    /// A one-function program; label `i` is bound to `pc_of_label[i]`, and
    /// branch operands name labels.
    fn mini_program(code: &[(Op, Args)], pc_of_label: Vec<u32>, nlocals: u32) -> Program {
        let mut c = ThreadedCode::default();
        for &(op, x) in code {
            c.emit(op, x);
        }
        c.fun_of_label = vec![u32::MAX; pc_of_label.len()];
        c.fun_of_label[0] = 0;
        c.pc_of_label = pc_of_label;
        c.entry_pc = vec![0];
        c.bind_labels();
        Program {
            code: c,
            funs: vec![FunInfo {
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

    fn fused(prog: &Program) -> ThreadedCode {
        let mut t = prog.code.clone();
        t.fuse();
        t
    }

    fn op(op: Op) -> (Op, Args) {
        (op, Args::ZERO)
    }

    fn load(a: u32) -> (Op, Args) {
        (Op::Load, Args { a, ..Args::ZERO })
    }

    fn store(a: u32) -> (Op, Args) {
        (Op::Store, Args { a, ..Args::ZERO })
    }

    fn jump(t: u32) -> (Op, Args) {
        (Op::Jump, Args { t, ..Args::ZERO })
    }

    fn iadd() -> (Op, Args) {
        (Op::Prim, Args::ZERO)
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

    /// Every debug build checks every emitted instruction: a field the
    /// opcode does not read must stay zero.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Load sets a field it does not read")]
    fn emitting_a_stray_field_panics() {
        ThreadedCode::default().emit(
            Op::Load,
            Args {
                a: 1,
                t: 2,
                ..Args::ZERO
            },
        );
    }

    #[test]
    #[should_panic(expected = "pc operand 1 maps nowhere")]
    fn a_branch_to_an_unbound_label_panics() {
        mini_program(&[jump(1), op(Op::Halt)], vec![0, u32::MAX], 1);
    }

    #[test]
    fn binding_labels_rewrites_branches_and_names_the_callee() {
        // Label 0 -> pc 0 (main), label 1 -> pc 2 (the Halt).
        let call = Args {
            a: u32::MAX,
            t: 0,
            flag: true,
            ..Args::ZERO
        };
        let prog = mini_program(&[(Op::Call, call), jump(1), op(Op::Halt)], vec![0, 2], 1);
        assert_eq!((prog.code.args[0].a, prog.code.args[0].t), (0, 0));
        assert_eq!(prog.code.args[1].t, 2);
    }

    #[test]
    fn fuses_load_load_prim_and_remaps_targets() {
        // label 0 -> pc 0, label 1 -> pc 5 (the Halt).
        let prog = mini_program(
            &[
                op(Op::DeConAdj), // pc 0 (leader), in no row
                load(1),          // pc 1 ┐
                load(2),          // pc 2 │ fused (cost 3)
                iadd(),           // pc 3 ┘
                jump(1),          // pc 4
                op(Op::Halt),     // pc 5 (leader)
            ],
            vec![0, 5],
            4,
        );
        let t = fused(&prog);
        assert_eq!(t.ops, [Op::DeConAdj, Op::LoadLoadPrim, Op::Jump, Op::Halt]);
        let x = t.args[1];
        assert_eq!((x.a, x.b, x.p, x.at), (1, 2, Prim::IAdd, None));
        let off = &prog.code;
        assert_eq!(
            t.unfuse(1),
            (1..4)
                .map(|pc| (off.ops[pc], off.args[pc]))
                .collect::<Vec<_>>()
        );
        // Old pc 5 (Halt) is the 4th instruction.
        assert_eq!(t.args[2].t, 3);
        assert_eq!(t.pc_of_label[1], 3);
        assert_eq!(
            t.ops.iter().map(|op| op.cost()).sum::<u64>(),
            prog.code.len() as u64,
            "costs cover every unfused instruction"
        );
    }

    #[test]
    fn leaders_block_fusion() {
        // A label bound to the Select keeps Load+Select unfused.
        let select = (Op::Select, Args { n: 1, ..Args::ZERO });
        let prog = mini_program(&[load(0), select, op(Op::Halt)], vec![0, 1], 4);
        let t = fused(&prog);
        assert_eq!(t.ops, prog.code.ops);
        assert_eq!(t.pc_of_label[1], 1);
    }

    #[test]
    fn a_store_slot_past_u16_survives_fusion() {
        // Nothing upstream bounds a function's locals, so the store slot
        // of `Load; Select; Store` travels in a `u32` lane like any other.
        const SLOT: u32 = 70_000;
        let at = Some(RegSlot::Global(0));
        let prog = mini_program(
            &[
                (
                    Op::PushConst,
                    Args {
                        k: scalar(7),
                        ..Args::ZERO
                    },
                ),
                (
                    Op::MkRecord,
                    Args {
                        n: 1,
                        at,
                        ..Args::ZERO
                    },
                ),
                store(1),
                load(1), // leader: keeps `Store; Load; Select` out
                (Op::Select, Args::ZERO),
                store(SLOT),
                load(SLOT),
                op(Op::Halt),
            ],
            vec![0, 3],
            SLOT + 1,
        );
        let full = fused(&prog);
        let off = &prog.code;
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
