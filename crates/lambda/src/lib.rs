//! The `LambdaExp` intermediate language of the ML Kit pipeline (paper §3),
//! together with the optimizer and a reference evaluator.
//!
//! `LambdaExp` is an explicitly typed, monomorphic lambda language produced
//! by elaboration (`kit-typing`). Patterns have been compiled to decision
//! trees, polymorphic bindings have been specialized per instantiation, and
//! polymorphic equality has been expanded into type-specific code (after
//! Elsman, *Polymorphic equality — no tags required*), which is what makes
//! the untagged `r` execution mode possible.
//!
//! The [`eval`] module provides a direct tree-walking evaluator used as the
//! ground-truth oracle in differential tests: every execution mode of the
//! full system (regions, regions+GC, GC only, generational baseline) must
//! agree with it.

#![forbid(unsafe_code)]

pub mod eval;
pub mod exp;
pub mod opt;
pub mod ty;

pub use exp::{FixFun, LExp, LProgram, Prim, VarId, VarTable};
pub use ty::{ConId, DataEnv, Datatype, ExnEnv, ExnId, LTy, TyConId};
