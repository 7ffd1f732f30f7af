//! Code generation and the abstract machine (paper §3, "Register
//! allocation and instruction selection" — here targeting the ML Kit's
//! bytecode backend rather than x86; see DESIGN.md §4).
//!
//! [`compile()`](compile()) translates RegionExp into stack-machine bytecode whose
//! memory is managed entirely by [`kit_runtime`]: activation records hold
//! locals, operand stack, *finite regions* and the (Rust-side) region
//! environment of `letregion`-bound regions; region-polymorphic calls pass
//! region handles; closures capture both free variables and free region
//! handles (the ML Kit's region vectors).
//!
//! [`vm::Vm`] executes the bytecode with safe points at function entry:
//! once the runtime says a collection is due (for the paper's collector,
//! when its free-list drops below the threshold), the next function entry
//! runs the runtime's collector with the frames' locals and operand
//! stacks as the root set. (The paper notes that the ML
//! Kit includes *all* top-level variables in the root set and only
//! collects at function entry — both faithfully reproduced here.)
//!
//! Execution is one engine over one bytecode, at two fusion levels:
//!
//! ```text
//! Instr ──translate (+ fuse)──▶ Op / Args ──▶ vm::Vm (one loop)
//! ```
//!
//! [`compile()`](compile()) binds its own labels, so every branch operand
//! of an [`instr::Instr`] is an absolute pc. [`threaded::translate`] lays
//! that stream out as struct-of-arrays, one base opcode per instruction.
//! With [`Fusion::Full`] (production) it then regroups hot runs into
//! superinstructions, each of which is one row of
//! [`fusion_table::FUSION_CANDIDATES`], one handler and one jump-table arm
//! in [`vm`], and charged the instructions it replaces. With
//! [`Fusion::Off`] only base handlers run, and they share no code with any
//! fused one: that run is the differential oracle for fusion, and the
//! `kit-lambda` evaluator is the oracle for what a program computes.

//! Constructor representation follows the ML Kit's untagged scheme:
//! nullary constructors are scalars; a datatype with exactly one boxed
//! constructor needs no runtime discriminant (a cons cell is 2 words
//! untagged, 3 tagged — the ~50% list overhead of Table 1); datatypes with
//! several boxed constructors store a discriminant word in untagged mode,
//! while in tagged mode the tag word carries the constructor index.

#![forbid(unsafe_code)]

pub mod compile;
pub mod disasm;
pub mod fusion_table;
pub mod instr;
pub mod render;
pub mod threaded;
pub mod vm;

pub use compile::compile;
pub use instr::Program;
pub use threaded::{Fusion, FusionProfile, ThreadedCode};
pub use vm::{DispatchMode, Executable, Vm, VmError, VmOutcome};
