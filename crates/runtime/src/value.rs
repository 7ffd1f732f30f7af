//! Value representation: scalars, pointers, address spaces and tag words.
//!
//! A runtime value is one 64-bit [`Word`]:
//!
//! * **pointers** are even: `addr << 1` where `addr` is a word address;
//! * **scalars** are odd in tagged mode: `(n << 1) | 1`; in untagged mode
//!   integers are raw machine words (the garbage collector never runs
//!   untagged, so the distinction is only needed when it may).
//!
//! Word addresses are partitioned into address spaces by range: the region
//! heap, the runtime stack (activation records and finite regions), the
//! data segment (string constants — never traversed by the collector,
//! paper §2.5 case 3), and the large-object space (paper §3.1).
//!
//! Every boxed value in tagged mode starts with a **tag word**, which is
//! always odd; a forward pointer installed by the collector is an even
//! word, so "forward pointers can be distinguished from all other tags"
//! (paper §2.2). Tag kind 0 with size 0 is reserved as the page-slack
//! sentinel that lets the scan pointer skip the unused tail of a region
//! page.

/// A machine word.
pub type Word = u64;

/// Word-address of the start of the runtime stack space.
pub const STACK_BASE: u64 = 1 << 40;
/// Word-address of the start of the data segment.
pub const DATA_BASE: u64 = 1 << 41;
/// Word-address of the start of the large-object space.
pub const LOBJ_BASE: u64 = 1 << 42;
/// Word-address one past the large-object space.
pub const LOBJ_END: u64 = 1 << 43;
/// Each large object owns this many word addresses.
pub const LOBJ_STRIDE: u64 = 1 << 22;

/// The "null"/absent address used in page links and descriptors.
pub const NONE_ADDR: u64 = u64::MAX;

/// Returns the pointer value for a word address.
#[inline]
pub fn ptr(addr: u64) -> Word {
    debug_assert!(addr < (1 << 62));
    addr << 1
}

/// Returns the word address of a pointer value.
///
/// # Panics
///
/// Debug-panics if `v` is not a pointer (odd).
#[inline]
pub fn ptr_addr(v: Word) -> u64 {
    debug_assert!(is_ptr(v), "not a pointer: {v:#x}");
    v >> 1
}

/// `true` if the value is a pointer (even).
#[inline]
pub fn is_ptr(v: Word) -> bool {
    v & 1 == 0
}

/// Encodes a tagged scalar.
#[inline]
pub fn scalar(n: i64) -> Word {
    ((n as u64) << 1) | 1
}

/// Decodes a tagged scalar.
#[inline]
pub fn scalar_val(v: Word) -> i64 {
    (v as i64) >> 1
}

/// Address-space classification of a pointer target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Region heap (region pages).
    Heap,
    /// Runtime stack (finite regions).
    Stack,
    /// Data segment (constants).
    Data,
    /// Large-object space.
    Large,
}

/// Classifies a word address.
#[inline]
pub fn space_of(addr: u64) -> Space {
    if addr < STACK_BASE {
        Space::Heap
    } else if addr < DATA_BASE {
        Space::Stack
    } else if addr < LOBJ_BASE {
        Space::Data
    } else {
        Space::Large
    }
}

/// Kind of a boxed value, stored in its tag word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Page-slack sentinel (not a value).
    Sentinel = 0,
    /// Tuple / closure / constructor-argument record.
    Record = 1,
    /// Datatype constructor block (fields inlined).
    Con = 2,
    /// Boxed real; payload is one raw `f64` word (not scanned).
    Real = 3,
    /// Reference cell with one field.
    Ref = 4,
    /// Exception block; info is the exception id, one argument field.
    Exn = 5,
}

/// A decoded tag word.
///
/// Layout (64 bits, always odd):
/// `| info (24) | size (24) | mark (1) | kind (3) | 1 |`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// The kind of box.
    pub kind: Kind,
    /// Number of *value* fields following the tag (for [`Kind::Real`], the
    /// payload is 1 raw word that must not be scanned).
    pub size: u32,
    /// Constructor index / exception id.
    pub info: u32,
    /// Constant mark used by the collector for values in finite regions
    /// (paper §2.5): marked values read as constants and are unmarked from
    /// the scan buffer after collection.
    pub mark: bool,
}

const KIND_SHIFT: u32 = 1;
const MARK_SHIFT: u32 = 4;
const SIZE_SHIFT: u32 = 5;
const INFO_SHIFT: u32 = 29;

impl Tag {
    /// The largest `size` the tag word's 24-bit size field holds.
    pub const MAX_SIZE: u32 = 0xFF_FFFF;

    /// Encodes the tag as an (odd) word.
    #[inline]
    pub fn encode(self) -> Word {
        1 | ((self.kind as u64) << KIND_SHIFT)
            | ((self.mark as u64) << MARK_SHIFT)
            | ((self.size as u64) << SIZE_SHIFT)
            | ((self.info as u64) << INFO_SHIFT)
    }

    /// Decodes a tag word.
    ///
    /// # Panics
    ///
    /// Debug-panics if `w` is even (a forward pointer, not a tag).
    #[inline]
    pub fn decode(w: Word) -> Tag {
        debug_assert!(w & 1 == 1, "decoding a forward pointer as a tag");
        let kind = match (w >> KIND_SHIFT) & 0b111 {
            0 => Kind::Sentinel,
            1 => Kind::Record,
            2 => Kind::Con,
            3 => Kind::Real,
            4 => Kind::Ref,
            5 => Kind::Exn,
            k => panic!("corrupt tag kind {k}"),
        };
        Tag {
            kind,
            mark: (w >> MARK_SHIFT) & 1 == 1,
            size: ((w >> SIZE_SHIFT) & Tag::MAX_SIZE as u64) as u32,
            info: ((w >> INFO_SHIFT) & 0xFF_FFFF) as u32,
        }
    }

    /// A record tag with `size` fields.
    ///
    /// # Panics
    ///
    /// In debug builds, if `size` exceeds [`Tag::MAX_SIZE`].
    pub fn record(size: u32) -> Tag {
        debug_assert!(size <= Tag::MAX_SIZE, "record of {size} fields");
        Tag {
            kind: Kind::Record,
            size,
            info: 0,
            mark: false,
        }
    }

    /// A constructor tag.
    ///
    /// # Panics
    ///
    /// In debug builds, if `size` exceeds [`Tag::MAX_SIZE`].
    pub fn con(ctor: u32, size: u32) -> Tag {
        debug_assert!(size <= Tag::MAX_SIZE, "constructor of {size} fields");
        Tag {
            kind: Kind::Con,
            size,
            info: ctor,
            mark: false,
        }
    }

    /// The boxed-real tag.
    pub fn real() -> Tag {
        Tag {
            kind: Kind::Real,
            size: 1,
            info: 0,
            mark: false,
        }
    }

    /// The reference-cell tag.
    pub fn reference() -> Tag {
        Tag {
            kind: Kind::Ref,
            size: 1,
            info: 0,
            mark: false,
        }
    }

    /// An exception-block tag.
    pub fn exn(id: u32, size: u32) -> Tag {
        Tag {
            kind: Kind::Exn,
            size,
            info: id,
            mark: false,
        }
    }

    /// The page-slack sentinel tag word.
    pub fn sentinel_word() -> Word {
        Tag {
            kind: Kind::Sentinel,
            size: 0,
            info: 0,
            mark: false,
        }
        .encode()
    }

    /// Total number of words occupied by the box (tag + payload).
    #[inline]
    pub fn box_words(self) -> u64 {
        1 + self.size as u64
    }

    /// `true` if the payload consists of scannable value words.
    #[inline]
    pub fn scannable(self) -> bool {
        !matches!(self.kind, Kind::Real | Kind::Sentinel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for n in [0i64, 1, -1, 42, i64::MAX >> 2, i64::MIN >> 2] {
            assert_eq!(scalar_val(scalar(n)), n);
            assert!(!is_ptr(scalar(n)));
        }
    }

    #[test]
    fn pointers_round_trip_and_are_even() {
        for a in [0u64, 1, 4096, STACK_BASE + 17, DATA_BASE, LOBJ_BASE + 5] {
            assert_eq!(ptr_addr(ptr(a)), a);
            assert!(is_ptr(ptr(a)));
        }
    }

    #[test]
    fn tags_round_trip() {
        let cases = [
            Tag::record(3),
            Tag::con(7, 2),
            Tag::real(),
            Tag::reference(),
            Tag::exn(12, 1),
            Tag {
                kind: Kind::Con,
                size: Tag::MAX_SIZE,
                info: 0xAB_CDEF,
                mark: true,
            },
        ];
        for t in cases {
            let w = t.encode();
            assert_eq!(w & 1, 1, "tags must be odd");
            assert_eq!(Tag::decode(w), t);
        }
    }

    #[test]
    fn forward_pointers_distinguishable_from_tags() {
        // Any pointer value is even; any tag is odd.
        assert!(is_ptr(ptr(123)));
        assert_eq!(Tag::record(2).encode() & 1, 1);
    }

    #[test]
    fn spaces_classify() {
        assert_eq!(space_of(0), Space::Heap);
        assert_eq!(space_of(STACK_BASE), Space::Stack);
        assert_eq!(space_of(DATA_BASE + 3), Space::Data);
        assert_eq!(space_of(LOBJ_BASE), Space::Large);
    }

    #[test]
    fn sentinel_is_kind_zero() {
        let t = Tag::decode(Tag::sentinel_word());
        assert_eq!(t.kind, Kind::Sentinel);
        assert_eq!(t.size, 0);
    }

    #[test]
    fn real_payload_not_scannable() {
        assert!(!Tag::real().scannable());
        assert!(Tag::record(1).scannable());
        assert!(Tag::con(0, 1).scannable());
    }
}
