//! Large objects (paper §3.1): strings and arrays.
//!
//! Large objects are allocated outside region pages (the paper uses
//! `malloc`) and linked into a per-region list hanging off the region
//! descriptor; popping or resetting the region frees the list. The
//! collector traverses arrays (they may contain pointers) but **never
//! copies** large objects; unreachable ones are released at the end of a
//! collection via a mark bit.

use crate::value::{Word, LOBJ_BASE, LOBJ_STRIDE};

/// Payload of a large object.
#[derive(Debug, Clone, PartialEq)]
pub enum LData {
    /// Immutable string.
    Str(String),
    /// Mutable array of values.
    Arr(Vec<Word>),
}

/// A large object.
#[derive(Debug, Clone)]
pub struct Lobj {
    /// Payload.
    pub data: LData,
    /// Next object in the owning region's list (id + 1; 0 = none).
    pub next: u32,
    /// GC mark (reachable in the current collection).
    pub marked: bool,
}

/// The large-object table.
#[derive(Debug, Default)]
pub struct Lobjs {
    table: Vec<Option<Lobj>>,
    free_ids: Vec<u32>,
    bytes: usize,
}

impl Lobjs {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a large object, returning its id.
    pub fn alloc(&mut self, data: LData, next: u32) -> u32 {
        self.bytes += Self::size_of(&data);
        let obj = Lobj {
            data,
            next,
            marked: false,
        };
        match self.free_ids.pop() {
            Some(id) => {
                self.table[id as usize] = Some(obj);
                id
            }
            None => {
                let id = self.table.len() as u32;
                self.table.push(Some(obj));
                id
            }
        }
    }

    fn size_of(d: &LData) -> usize {
        match d {
            LData::Str(s) => s.len(),
            LData::Arr(a) => a.len() * 8,
        }
    }

    /// Frees a large object by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live (double free).
    pub fn free(&mut self, id: u32) {
        let obj = self.table[id as usize]
            .take()
            .expect("double free of large object");
        self.bytes -= Self::size_of(&obj.data);
        self.free_ids.push(id);
    }

    /// Shared access.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live.
    #[inline]
    pub fn get(&self, id: u32) -> &Lobj {
        self.table[id as usize]
            .as_ref()
            .expect("dangling large-object id")
    }

    /// Exclusive access.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut Lobj {
        self.table[id as usize]
            .as_mut()
            .expect("dangling large-object id")
    }

    /// Total payload bytes currently live (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The first live object whose mark is set, if any (a collection
    /// leaves none).
    pub fn first_marked(&self) -> Option<u32> {
        self.table
            .iter()
            .position(|o| o.as_ref().is_some_and(|o| o.marked))
            .map(|i| i as u32)
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.table.len() - self.free_ids.len()
    }

    /// The word address encoding object `id`.
    pub fn addr_of(id: u32) -> u64 {
        LOBJ_BASE + id as u64 * LOBJ_STRIDE
    }

    /// Decodes a large-object address back to its id.
    #[inline]
    pub fn id_of(addr: u64) -> u32 {
        ((addr - LOBJ_BASE) / LOBJ_STRIDE) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuse() {
        let mut t = Lobjs::new();
        let a = t.alloc(LData::Str("hello".into()), 0);
        let b = t.alloc(LData::Arr(vec![1, 2, 3]), a + 1);
        assert_eq!(t.live_count(), 2);
        assert_eq!(t.get(b).next, a + 1);
        t.free(a);
        assert_eq!(t.live_count(), 1);
        let c = t.alloc(LData::Str("x".into()), 0);
        assert_eq!(c, a, "ids are recycled");
    }

    #[test]
    fn byte_accounting() {
        let mut t = Lobjs::new();
        let a = t.alloc(LData::Arr(vec![0; 10]), 0);
        assert_eq!(t.bytes(), 80);
        t.free(a);
        assert_eq!(t.bytes(), 0);
    }

    #[test]
    fn address_round_trip() {
        for id in [0u32, 1, 77] {
            assert_eq!(Lobjs::id_of(Lobjs::addr_of(id)), id);
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut t = Lobjs::new();
        let a = t.alloc(LData::Str("s".into()), 0);
        t.free(a);
        t.free(a);
    }
}
