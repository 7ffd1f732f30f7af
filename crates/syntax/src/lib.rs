//! Front-end syntax for *MiniML*, the Standard ML subset used by the
//! region-inference + garbage-collection reproduction.
//!
//! The crate provides a lexer ([`lexer::Lexer`]), a recursive-descent parser
//! ([`parser::parse_program`]) producing the surface [`ast`].
//!
//! MiniML covers the value shapes the runtime distinguishes: integers,
//! booleans, reals, strings, tuples, user datatypes with pattern matching,
//! first-class functions, references, arrays and exceptions. Modules and
//! functors are out of scope (see `DESIGN.md` §4).
//!
//! # Examples
//!
//! ```
//! use kit_syntax::parse_program;
//!
//! let prog = parse_program("fun double x = x + x  val it = double 21")?;
//! assert_eq!(prog.decs.len(), 2);
//! # Ok::<(), kit_syntax::SyntaxError>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pos;
pub mod token;

pub use ast::Program;
pub use error::SyntaxError;
pub use parser::parse_program;
pub use pos::Span;
