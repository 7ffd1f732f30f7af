//! Top-level façade for the region-inference + garbage-collection
//! reproduction (Hallenberg, Elsman, Tofte — PLDI 2002).
//!
//! This crate re-exports the public API of the [`kit`] crate; see the
//! workspace `README.md` for the architecture overview and `DESIGN.md` for
//! the per-experiment index.
//!
//! # Examples
//!
//! ```
//! use mlkit_rgc::{Compiler, Mode};
//!
//! let out = Compiler::new(Mode::Rgt).run_source("val it = 1 + 2")?;
//! assert_eq!(out.result_int(), Some(3));
//! # Ok::<(), mlkit_rgc::Error>(())
//! ```

#![forbid(unsafe_code)]

pub use kit::*;
