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
//! stream into the fewest groups ([`parse`]) the rows of
//! [`FUSION_CANDIDATES`] allow, each group becoming its row's opcode, and
//! branch targets, switch tables, entry points and the frame map move to
//! the regrouped pcs — through the same pc rewrite that binds the labels.
//!
//! **The packing rule.** A superinstruction's [`Args`] is the merge of its
//! components' operands, in component order: `u32` operands (local slots,
//! switch-table indices, a callee) take `a` then `b`, a constant takes
//! `k`, a select index `n`, a call's second count `m` and its flag
//! `flag`, a primitive `p` with its place, a branch target `t`, region
//! slots (a primitive's place, a `RegHandle`'s slot) `at` then `at2`.
//! `pack` applies it, [`ThreadedCode::unfuse`] is its inverse, and
//! [`fits`] holds every row to the lanes there are. [`Op::cost`] of a
//! superinstruction is its row's `seq.len()` — the instructions it
//! stands for — which keeps instruction totals, fuel and the GC schedule
//! bit-identical with [`Fusion::Off`]'s one per instruction.
//!
//! The execution engine itself — the jump table over [`Op`] — lives in
//! [`crate::vm`].

use crate::fusion_table::{self, Pattern, FUSION_CANDIDATES};
use crate::instr::{Disc, RegSlot};
use kit_lambda::exp::Prim;
use std::sync::OnceLock;

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
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
        LoadSelectStore,
        LoadConstPrim,
        LoadLoad,
        GcCheckLoadSwitchCon,
        LoadLoadPrimJump,
        LoadRegHandleRegHandle,
        LoadStore,
        LoadSelect,
        GcCheckLoadConstPrimJump,
        LoadLoadConstPrim,
        LoadLoadPrim,
        LoadCall,
        PushConstPrim,
        LoadSelectLoadPrim,
        RegHandleLoadLoad,
        LoadConstPrimJump,
        LoadJump,
        LoadSwitchCon,
        LoadSelectLoadConstPrim,
        LoadRegHandleLoad,
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

    /// Whether this base opcode may send control anywhere but the next
    /// pc: a branch, switch, call, return, raise or halt. It ends any
    /// fusion row it is in ([`fits`]).
    pub fn transfers(self) -> bool {
        use Op::*;
        matches!(
            self,
            Jump | JumpIfFalse
                | SwitchCon
                | SwitchInt
                | SwitchStr
                | SwitchExn
                | Call
                | CallClos
                | Ret
                | Raise
                | Halt
                | Unreachable
        )
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

/// The longest row: a group stands for at most this many instructions.
pub const MAX_ROW: usize = 5;

/// Whether `seq` may be a fusion row: two to [`MAX_ROW`] base opcodes
/// whose operands fit the lanes of the packing rule (module docs), where
/// control leaves the group only at its end. Only the last member may
/// transfer control ([`Op::transfers`]). A `Prim`, which may raise, is
/// last too, or stands before a last `JumpIfFalse`: a conditional branch
/// reads a bool, and no prim that yields one raises. So every member but
/// the last runs to completion once the group is dispatched, which is
/// what charging the group its length up front assumes.
pub fn fits(seq: &[Op]) -> bool {
    let lanes = |f: Field| match f {
        Field::A | Field::At => 2,
        _ => 1,
    };
    let fields = || seq.iter().flat_map(|op| op.fields());
    let last = seq.len().wrapping_sub(1);
    (2..=MAX_ROW).contains(&seq.len())
        && seq.iter().all(|op| !op.is_fused())
        && fields().all(|f| fields().filter(|g| *g == f).count() <= lanes(*f))
        && seq.iter().enumerate().all(|(i, op)| {
            i == last
                || !op.transfers()
                    && (*op != Op::Prim || i + 1 == last && seq[last] == Op::JumpIfFalse)
        })
}

/// Fusion rows, bucketed by first opcode for [`parse`].
#[derive(Debug)]
pub struct Rows<'r> {
    seqs: Vec<&'r [Op]>,
    /// Row indices by first opcode, in row order: those of `op` are
    /// `by_first[at[op]..at[op + 1]]`.
    by_first: Vec<usize>,
    at: [usize; OP_COUNT + 1],
}

impl<'r> Rows<'r> {
    /// Buckets `seqs`, each a run of at least one opcode.
    pub fn new(seqs: Vec<&'r [Op]>) -> Self {
        let mut at = [0; OP_COUNT + 1];
        for seq in &seqs {
            at[seq[0] as usize + 1] += 1;
        }
        for op in 0..OP_COUNT {
            at[op + 1] += at[op];
        }
        let mut by_first = vec![0; seqs.len()];
        let mut next = at;
        for (r, seq) in seqs.iter().enumerate() {
            by_first[next[seq[0] as usize]] = r;
            next[seq[0] as usize] += 1;
        }
        Rows { seqs, by_first, at }
    }

    /// The opcodes of row `r`.
    pub fn seq(&self, r: usize) -> &'r [Op] {
        self.seqs[r]
    }
}

/// The fewest-groups parse of `ops` by `rows`: for each pc that starts a
/// group, the index of the row it matches, or `None` for a base
/// instruction dispatched alone (entries inside a group are `None` too).
/// A group never spans a leader: every pc `leader` marks starts one.
///
/// A right-to-left dynamic program over the pcs, trying at each pc the
/// rows that start with its opcode. No group crosses a leader or follows
/// a transfer, so between two such boundaries every pc executes as often
/// as the first: the fewest groups there are the fewest dispatches on
/// any input, and no profile is needed. Ties go to the base instruction,
/// then to the earlier row.
pub fn parse(ops: &[Op], leader: &[bool], rows: &Rows<'_>) -> Vec<Option<usize>> {
    let n = ops.len();
    let mut groups = vec![0u32; n + 1];
    let mut choice = vec![None; n];
    for i in (0..n).rev() {
        groups[i] = groups[i + 1] + 1;
        let op = ops[i] as usize;
        for &r in &rows.by_first[rows.at[op]..rows.at[op + 1]] {
            let seq = rows.seqs[r];
            let end = i + seq.len();
            if end <= n
                && groups[end] + 1 < groups[i]
                && ops[i..end] == *seq
                && !leader[i + 1..end].contains(&true)
            {
                groups[i] = groups[end] + 1;
                choice[i] = Some(r);
            }
        }
    }
    choice
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
                Field::M => g.m = x.m,
                Field::Flag => g.flag = x.flag,
                Field::P => g.p = x.p,
                Field::T => g.t = x.t,
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
    /// stream is regrouped. `each` sees every instruction first, in the
    /// same walk.
    ///
    /// # Panics
    ///
    /// If an operand maps to `u32::MAX` (an unbound label, or a branch
    /// into a fused group).
    fn rewrite_pcs(&mut self, map: &[u32], mut each: impl FnMut(Op, &mut Args)) {
        let to = |pc: &mut u32| {
            let new = map[*pc as usize];
            assert_ne!(new, u32::MAX, "pc operand {pc} maps nowhere");
            *pc = new;
        };
        for (&op, x) in self.ops.iter().zip(&mut self.args) {
            each(op, x);
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

    /// Binds the labels in one walk: gives each known `Call` (whose `t`
    /// names its callee's entry label) the callee's function id, and
    /// rewrites every pc operand from a label id to the pc `pc_of_label`
    /// binds it to.
    ///
    /// # Panics
    ///
    /// If an operand names an unbound label.
    pub fn bind_labels(&mut self) {
        let labels = std::mem::take(&mut self.pc_of_label);
        let funs = std::mem::take(&mut self.fun_of_label);
        self.rewrite_pcs(&labels, |op, x| {
            if op == Op::Call {
                x.a = funs[x.t as usize];
            }
        });
        self.pc_of_label = labels;
        self.fun_of_label = funs;
    }

    /// The pcs a group may not run across, marked: every pc a label is
    /// bound to (a branch target, an entry) and every return address in
    /// the frame map.
    pub fn leaders(&self) -> Vec<bool> {
        let mut leader = vec![false; self.ops.len()];
        let labels = self.pc_of_label.iter().filter(|&&pc| pc != u32::MAX);
        for &pc in labels.chain(self.frame_map.iter().map(|(pc, _)| pc)) {
            leader[pc as usize] = true;
        }
        leader
    }

    /// Regroups the unfused stream into superinstructions, in place, by
    /// the fewest-groups [`parse`] over [`FUSION_CANDIDATES`]. A group
    /// never spans a leader ([`ThreadedCode::leaders`]), so every branch
    /// target remains the start of an instruction; a call ends any group
    /// it is in, so a return address (the pc after a non-tail call) is a
    /// group start too.
    pub(crate) fn fuse(&mut self) {
        static ROWS: OnceLock<Rows<'static>> = OnceLock::new();
        let rows = ROWS.get_or_init(|| Rows::new(fusion_table::rows()));
        let n = self.ops.len();
        let group = parse(&self.ops, &self.leaders(), rows);

        // Map old → new pcs.
        let mut new_pc = vec![u32::MAX; n];
        let (mut i, mut npc) = (0, 0);
        while i < n {
            new_pc[i] = npc;
            npc += 1;
            i += group[i].map_or(1, |r| rows.seq(r).len());
        }

        // Move every pc to the new numbering.
        self.rewrite_pcs(&new_pc, |_, _| {});
        (self.entry_pc.iter_mut())
            .chain(&mut self.pc_of_label)
            .chain(self.frame_map.iter_mut().map(|(pc, _)| pc))
            .filter(|pc| **pc != u32::MAX)
            .for_each(|pc| *pc = new_pc[*pc as usize]);

        // Compact: a new pc is never ahead of the old pcs it is read from.
        let (mut i, mut w) = (0, 0);
        while i < n {
            let len = match group[i] {
                Some(r) => {
                    let pat = &FUSION_CANDIDATES[r];
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
                    Field::M => x.m = g.m,
                    Field::Flag => x.flag = g.flag,
                    Field::P => x.p = g.p,
                    Field::T => x.t = g.t,
                }
            }
            (op, x)
        };
        pat.seq.iter().map(part).collect()
    }
}

/// Dispatches per pc of the stream a run executed: the VM's counting
/// mode ([`Vm::with_fusion_profile`](crate::vm::Vm::with_fusion_profile)).
/// At [`Fusion::Off`] it is what `bench-summary --profile-fusion` selects
/// the rows of [`FUSION_CANDIDATES`] from; at [`Fusion::Full`] its sum is
/// the dispatches fusion leaves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FusionProfile {
    /// The opcode at each pc of the stream that ran.
    pub ops: Vec<Op>,
    /// How many times each pc was dispatched.
    pub counts: Vec<u64>,
}

impl FusionProfile {
    /// Dispatches in all.
    pub fn dispatches(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Dispatches of `op`, at any pc.
    pub fn executions(&self, op: Op) -> u64 {
        let at = self.ops.iter().zip(&self.counts);
        at.filter(|(o, _)| **o == op).map(|(_, n)| n).sum()
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
        // `Op` is `repr(u8)` with sequential discriminants: `COSTS` is
        // indexed by `op as usize`.
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
    fn only_row_shapes_that_leave_at_the_end_fit() {
        use Op::*;
        for seq in [
            &[Load, Call][..],
            &[Load, Load, CallClos],
            &[Prim, JumpIfFalse],
            &[GcCheck, Load, PushConst, Prim, JumpIfFalse],
            &[Load, RegHandle, RegHandle],
            &[Load, Load, Prim],
            &[MkCon, Jump],
        ] {
            assert!(fits(seq), "{seq:?}");
        }
        for seq in [
            &[Load][..],                           // one member
            &[Load, Load, Load, Load, Load, Load], // six members
            &[Load, Load, Load],                   // three `u32` operands
            &[PushConst, PushConst],               // two constants
            &[Call, Load],                         // a call, then more
            &[Jump, Load],                         // a branch, then more
            &[Ret, Halt],                          // two transfers
            &[Prim, Store],                        // a raise would skip the store
            &[Load, Prim, Prim, JumpIfFalse],      // the same, one prim early
            &[Load, LoadLoad],                     // a superinstruction member
        ] {
            assert!(!fits(seq), "{seq:?}");
        }
    }

    /// `ops` with operands in the fields each reads, every branch to pc 0,
    /// labels bound to `leaders` (pc 0 among them).
    fn stream(ops: &[Op], leaders: &[usize]) -> ThreadedCode {
        let mut c = ThreadedCode::default();
        for (pc, &op) in ops.iter().enumerate() {
            let x = Args {
                k: pc as u64 + 100,
                a: pc as u32 + 200,
                t: 0,
                n: pc as u32 + 1,
                m: pc as u32 + 2,
                flag: pc % 2 == 0,
                p: Prim::ILt,
                at: Some(RegSlot::Local(pc as u32)),
                ..Args::ZERO
            };
            c.emit(op, x.only(op.fields()));
        }
        c.pc_of_label = std::iter::once(0)
            .chain(leaders.iter().map(|&pc| pc as u32))
            .collect();
        c
    }

    /// The fewest groups by brute force: every way of cutting `ops` into
    /// pieces, each one instruction or a row, none across a leader.
    fn fewest_groups(ops: &[Op], leader: &[bool], rows: &[&[Op]]) -> usize {
        let n = ops.len();
        (0u32..1 << n.saturating_sub(1))
            .filter_map(|cuts| {
                let mut pieces = 0;
                let mut start = 0;
                for end in 1..=n {
                    if end < n && cuts & (1 << (end - 1)) == 0 {
                        continue;
                    }
                    let piece = &ops[start..end];
                    let ok = piece.len() == 1
                        || rows.contains(&piece) && !leader[start + 1..end].contains(&true);
                    if !ok {
                        return None;
                    }
                    pieces += 1;
                    start = end;
                }
                Some(pieces)
            })
            .min()
            .expect("one instruction a group is a parse")
    }

    /// Fuses `code` and holds it to the brute-force minimum, to the group
    /// shape (no interior leader, no transfer before the last member) and
    /// to `unfuse(Full) == code`; returns the fused opcodes.
    fn assert_fuses_optimally(code: &ThreadedCode) -> Vec<Op> {
        let rows = fusion_table::rows();
        let leader = code.leaders();
        let mut full = code.clone();
        full.fuse();
        let ctx = format!("{:?} leaders {:?}", code.ops, code.pc_of_label);
        assert_eq!(
            full.len(),
            fewest_groups(&code.ops, &leader, &rows),
            "{ctx}"
        );
        let mut pc = 0;
        for new in 0..full.len() {
            let parts = full.unfuse(new);
            for (i, &(op, x)) in parts.iter().enumerate() {
                assert_eq!((op, x), (code.ops[pc], code.args[pc]), "{ctx}: pc {pc}");
                assert!(i == 0 || !leader[pc], "{ctx}: a group spans leader {pc}");
                let last = i + 1 == parts.len();
                assert!(last || !op.transfers(), "{ctx}: {op:?} inside a group");
                pc += 1;
            }
        }
        assert_eq!(pc, code.len(), "{ctx}");
        full.ops
    }

    #[test]
    fn fusion_takes_the_fewest_groups_on_random_streams() {
        use Op::*;
        let alphabet = [
            Load,
            Load,
            Load,
            PushConst,
            Prim,
            JumpIfFalse,
            GcCheck,
            Select,
            Store,
            RegHandle,
            SwitchCon,
            Call,
            Jump,
            Ret,
        ];
        let mut rng = kit_bench::programs::SplitMix64::new(0x5EED_4900);
        let mut draw = |k: usize| (rng.next_u64() % k as u64) as usize;
        for _ in 0..1000 {
            let n = 1 + draw(12);
            let ops: Vec<Op> = (0..n).map(|_| alphabet[draw(alphabet.len())]).collect();
            let leaders: Vec<usize> = (0..draw(4)).map(|_| draw(n)).collect();
            assert_fuses_optimally(&stream(&ops, &leaders));
        }
    }

    /// fib's entry. Over rows `GcCheck; Load`, `PushConst; Prim` and
    /// `Load; PushConst; Prim; JumpIfFalse`, longest-first matching took
    /// the first, the second and a lone `JumpIfFalse`: three dispatches,
    /// where the fewest groups are two. The table now holds the run as one
    /// row.
    #[test]
    fn fibs_entry_is_one_group() {
        use Op::*;
        let entry = [GcCheck, Load, PushConst, Prim, JumpIfFalse, Load, Ret];
        let code = stream(&entry, &[5]);
        assert_eq!(
            assert_fuses_optimally(&code),
            [GcCheckLoadConstPrimJump, Load, Ret]
        );
        let old: [&[Op]; 3] = [
            &[GcCheck, Load],
            &[PushConst, Prim],
            &[Load, PushConst, Prim, JumpIfFalse],
        ];
        let groups = parse(&entry, &code.leaders(), &Rows::new(old.to_vec()));
        assert_eq!(&groups[..2], [None, Some(2)]);
    }
}
