//! The region runtime with garbage collection — the primary contribution of
//! *Combining Region Inference and Garbage Collection* (PLDI 2002), §2–3.
//!
//! The store consists of a **stack** and a **region heap** (paper §2.1).
//! The region heap is a set of fixed-size, 2^n-word *region pages*, some of
//! which are linked in a *free-list*. An *infinite region* is a linked list
//! of region pages described by a *region descriptor* (fp, a, e, b); a
//! *finite region* is a statically-sized slot in an activation record on
//! the stack. Popping an infinite region appends its pages to the free-list
//! in constant time. *Large objects* (strings, arrays) live outside region
//! pages in per-region linked lists (§3.1).
//!
//! Garbage collection ([`gc`]) extends Cheney's copying collector to work
//! one region at a time (§2.2–2.5): at a collection, every region's page
//! list becomes part of a single global from-space and the region is given
//! a fresh to-space page; values are evacuated *into the region they came
//! from* (found through the *origin pointer* in the page descriptor, §2.4);
//! a *scan stack* holds one scan pointer per partially-scanned region,
//! tracked by the region-status bit `b`; values in finite regions on the
//! stack are traversed in place via the *scan buffer* and temporarily
//! marked as constants (§2.5). Constants in the data segment are never
//! traversed; large objects are traversed but never copied.
//!
//! Execution modes (§1.2) are selected by [`RtConfig`]: untagged regions
//! (`r`), tagged regions (`rt`), garbage collection with a degenerate
//! region stack (`gt`), and regions plus garbage collection (`rgt`).
//!
//! # Examples
//!
//! ```
//! use kit_runtime::{Rt, RtConfig};
//!
//! let mut rt = Rt::new(RtConfig::rgt());
//! let r = rt.letregion(0);
//! let pair = rt.alloc_record(r, &[rt.tag_int(1), rt.tag_int(2)]);
//! assert_eq!(rt.untag_int(rt.field(pair, 0)), 1);
//! rt.endregion();
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod gc;
pub mod heap;
pub mod lobj;
pub mod profile;
pub mod region;
pub mod rt;
pub mod stats;
pub mod value;

pub use config::RtConfig;
pub use rt::{RegionId, Rt};
pub use stats::RtStats;
pub use value::Word;
