//! Bytecode instruction set of the abstract machine.

use kit_lambda::exp::Prim;
use kit_lambda::ty::LTy;

/// How a place (region variable) is resolved at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegSlot {
    /// Global region: index into the program's global region list (also
    /// its runtime region id, since globals are created first and never
    /// popped).
    Global(u32),
    /// `letregion`-bound infinite region: the `i`-th open in the current
    /// frame, counted from the region-stack depth at its entry.
    Local(u32),
    /// Formal region parameter of the current function: its local slot
    /// (`1..=nf`, between the environment and the arguments).
    Formal(u32),
    /// Region handle captured in the current closure (field index).
    EnvReg(u32),
    /// Finite region: word offset of the slot in the current frame's
    /// finite area.
    Finite(u32),
}

/// How a datatype's constructors are discriminated at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disc {
    /// Boxed values carry the constructor index in the tag word (tagged
    /// mode).
    Tag,
    /// Boxed values carry a scalar discriminant in word 0 (untagged mode,
    /// several boxed constructors).
    Field0,
    /// No runtime discriminant on boxed values: the datatype has exactly
    /// one boxed constructor, whose index is given.
    Single(u32),
    /// All constructors are nullary scalars.
    Enum,
}

/// One bytecode instruction. Every branch operand is an absolute pc: while
/// [`compile()`](crate::compile()) emits it holds a label id, and its last
/// pass binds each one to the pc the label is bound to. A closure's code
/// word stays a label, looked up at run time through
/// [`Program::pc_of_label`] and [`Program::fun_of_label`].
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push a precomputed constant word (tagged int/bool/unit, code label
    /// scalar).
    PushConst(u64),
    /// Push a constant string (interned into the data segment; never
    /// traversed by the collector).
    PushStr(String),
    /// Pop a tuple pointer and push its `n` fields (used to build a
    /// constructor block from a non-syntactic tuple argument).
    Spread {
        /// Field count.
        n: u16,
    },
    /// Trap for exhaustive switches with no default (never executed).
    Unreachable,
    /// Push a boxed real allocated at the place.
    PushReal(f64, RegSlot),
    /// Push the value of local slot `n`.
    Load(u32),
    /// Pop into local slot `n`.
    Store(u32),
    /// Pop and discard.
    Pop,
    /// Pop `n` fields (last on top) and allocate a record at the place.
    /// Used for tuples, closures (field 0 = code label scalar) and shared
    /// closures.
    MkRecord {
        /// Field count.
        n: u16,
        /// Allocation place.
        at: RegSlot,
    },
    /// Push field `i` of the box on top of the stack.
    Select(u16),
    /// Pop `n` fields and allocate a constructor block.
    MkCon {
        /// Constructor index.
        ctor: u16,
        /// Field count (inlined tuple components).
        n: u16,
        /// Store a scalar discriminant word (untagged multi-boxed).
        disc: bool,
        /// Allocation place.
        at: RegSlot,
    },
    /// Adjust a constructor pointer past its discriminant word (untagged
    /// multi-boxed datatypes); identity otherwise — not emitted then.
    DeConAdj,
    /// Pop a constructor value and branch on its constructor index.
    SwitchCon {
        /// How boxed values are discriminated.
        disc: Disc,
        /// `(constructor, target)` pairs.
        arms: Vec<(u32, u32)>,
        /// Fallthrough target.
        default: u32,
    },
    /// Pop an int and branch.
    SwitchInt {
        /// `(value, target)` pairs.
        arms: Vec<(i64, u32)>,
        /// Fallthrough target.
        default: u32,
    },
    /// Pop a string and branch.
    SwitchStr {
        /// `(constant, target)` pairs.
        arms: Vec<(String, u32)>,
        /// Fallthrough target.
        default: u32,
    },
    /// Pop an exception value and branch on its constructor.
    SwitchExn {
        /// `(exception id, target)` pairs.
        arms: Vec<(u32, u32)>,
        /// Fallthrough target.
        default: u32,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Pop a bool; jump if false.
    JumpIfFalse(u32),
    /// Primitive application; pops the arguments, pushes the result.
    /// Allocating primitives carry their place.
    Prim {
        /// The operation.
        p: Prim,
        /// Allocation place for allocating primitives.
        at: Option<RegSlot>,
    },
    /// Push the region handle (scalar) for a place — used to pass actual
    /// regions at region-polymorphic calls and into closures.
    RegHandle(RegSlot),
    /// Known call: stack holds `[env, rhandles.., args..]` (args on top) —
    /// the callee's first `1 + nformals + nargs` local slots.
    Call {
        /// The callee's function id.
        fun: u32,
        /// Its entry pc.
        target: u32,
        /// Value arguments.
        nargs: u16,
        /// Region arguments.
        nformals: u16,
        /// Reuse the current frame (tail call).
        tail: bool,
    },
    /// Unknown call: stack holds `[closure, args..]`; the code label is
    /// field 0 of the closure, the environment is the closure itself.
    CallClos {
        /// Value arguments.
        nargs: u16,
        /// Reuse the current frame (tail call).
        tail: bool,
    },
    /// Stub entry for an escaping region-polymorphic function: the
    /// environment is a pair `[stub_label, shared, rhandles..]`; unpack it
    /// (the arguments move up past the formal slots the handles fill) and
    /// fall through to the main entry.
    EnterViaPair {
        /// Number of packed region handles.
        nformals: u16,
        /// Value arguments.
        nargs: u16,
    },
    /// Return the top of stack to the caller.
    Ret,
    /// Function prologue: safe point (collect if requested).
    GcCheck,
    /// Push `n` infinite regions (profiling names given).
    LetRegion {
        /// Region variable names, for the profiler.
        names: Vec<u32>,
    },
    /// Pop the newest `n` infinite regions of this frame.
    EndRegions(u16),
    /// Install an exception handler running at `target`.
    PushHandler {
        /// Handler entry.
        target: u32,
    },
    /// Remove the most recent handler.
    PopHandler,
    /// Pop `[arg?]`, allocate/produce an exception value.
    MkExn {
        /// Exception id.
        exn: u32,
        /// Whether an argument is popped.
        has_arg: bool,
        /// Allocation place for carrying exceptions.
        at: Option<RegSlot>,
    },
    /// Push the argument of the exception value on top of the stack.
    DeExn,
    /// Pop an exception value and raise it.
    Raise,
    /// Terminate with the top of stack as the program result.
    Halt,
}

/// Metadata for one compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunInfo {
    /// Entry pc.
    pub entry: u32,
    /// Number of local slots (including slot 0 = environment, the
    /// region-formal and the parameter slots).
    pub nlocals: u32,
    /// Words of finite-region space in the frame, after the locals.
    pub nfinite: u32,
    /// Display name.
    pub name: String,
}

/// A compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Flat instruction stream.
    pub code: Vec<Instr>,
    /// Label id → pc (`u32::MAX` if unbound). Used by `CallClos`, whose
    /// target label is only known at run time (closure field 0).
    pub pc_of_label: Vec<u32>,
    /// Label id → function id (`u32::MAX` if the label is not a function
    /// entry or stub).
    pub fun_of_label: Vec<u32>,
    /// Per-function frame metadata, indexed by function id.
    pub funs: Vec<FunInfo>,
    /// The frame map: `(return pc, live)` of every non-tail call, sorted;
    /// while it is suspended, its frame's roots are local slots `0..live`
    /// (the bindings in scope) and its operands.
    pub frame_map: Vec<(u32, u32)>,
    /// Top-level "function" (program body) id.
    pub main: u32,
    /// Global regions: `(name, finite?)`; finite globals give (name, slot).
    pub global_infinite: Vec<u32>,
    /// Exception names for diagnostics.
    pub exn_names: Vec<String>,
    /// Result type, for rendering the final value.
    pub result_ty: LTy,
    /// Datatype environment (for rendering).
    pub data: kit_lambda::ty::DataEnv,
}
