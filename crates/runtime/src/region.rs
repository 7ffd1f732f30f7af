//! Region descriptors and the region stack.
//!
//! A region descriptor is the paper's quadruple `(fp, a, e, b)` — first
//! page, allocation pointer, end pointer, region status — extended with
//! the large-object list head of §3.1, a name for the region profile
//! (Fig. 5), and bookkeeping counters (page count for O(1) accounting,
//! used words for the waste metric of Table 3).
//!
//! Descriptors conceptually live in activation records; regions are pushed
//! and popped LIFO with the runtime stack (`letregion`/`end`), and region
//! polymorphism passes descriptors of *older* regions into functions. The
//! descriptor "address" used by origin pointers (paper §2.4) is the index
//! into the region stack.

use crate::value::NONE_ADDR;

/// Index of a region descriptor on the region stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// A region descriptor.
#[derive(Debug, Clone)]
pub struct RegionDesc {
    /// First-page pointer (`fp`).
    pub fp: u64,
    /// Allocation pointer (`a`) — the next free word in the newest page.
    pub a: u64,
    /// End pointer (`e`) — one past the usable end of the newest page.
    pub e: u64,
    /// Region status (`b`): `true` (`SOME`) while the region has unscanned
    /// values during a collection (its scan pointer is on the scan stack
    /// or it is currently being scanned).
    pub status: bool,
    /// Head of the large-object list (id + 1; 0 = none).
    pub lobjs: u32,
    /// The region variable this region was created for: the region
    /// profile's key.
    pub name: u32,
    /// Number of pages owned.
    pub pages: usize,
    /// Payload words handed out by the allocator since the region was
    /// created or last collected (live + garbage, excludes slack).
    pub used_words: u64,
}

impl RegionDesc {
    /// A descriptor with no pages yet.
    pub fn empty(name: u32) -> Self {
        RegionDesc {
            fp: NONE_ADDR,
            a: 0,
            e: 0,
            status: false,
            lobjs: 0,
            name,
            pages: 0,
            used_words: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_descriptor() {
        let d = RegionDesc::empty(5);
        assert_eq!(d.fp, NONE_ADDR);
        assert!(!d.status);
        assert_eq!(d.name, 5);
        assert_eq!(d.pages, 0);
    }
}
