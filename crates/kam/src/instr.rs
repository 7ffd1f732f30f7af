//! A compiled program: the stream the engine runs and what a run needs
//! besides it — frame sizes, global regions, names for diagnostics, and
//! the result's type for rendering.

use crate::threaded::ThreadedCode;
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

/// Metadata for one compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunInfo {
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
    /// The unfused stream, its labels bound: branch operands, entry pcs
    /// (`code.entry_pc`, by function id) and the frame map are pcs of it.
    pub code: ThreadedCode,
    /// Per-function frame metadata, indexed by function id.
    pub funs: Vec<FunInfo>,
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
