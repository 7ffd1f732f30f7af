//! The region heap: a growable arena of fixed-size region pages linked
//! through a free-list (paper §2.1, §2.4).
//!
//! Every page starts with a two-word *region page descriptor*: the address
//! of the next page in its region (or free-list) and an *origin pointer*
//! back to the region descriptor of the owning region. Pages are aligned
//! to their (power-of-two) size, so the descriptor of the page containing
//! any address is found with a single mask — this is how the collector
//! finds `regiondesc(p)` (paper §2.4).

use crate::value::{Tag, Word, NONE_ADDR};

/// Offset of the next-page link in a page descriptor.
pub const PAGE_NEXT: u64 = 0;
/// Offset of the origin pointer (owning region id) in a page descriptor.
pub const PAGE_ORIGIN: u64 = 1;
/// First payload word of a page.
pub const PAGE_HDR: u64 = 2;

/// What a debug build writes over every payload word it frees
/// ([`Heap::free_run`]), so that a read through a dangling pointer panics
/// ([`crate::Rt::read_addr`], and the collector's evacuation) instead of
/// returning a stale value. Odd, so the collector never takes it for a
/// forward pointer. A debug build also panics on a live word that
/// happens to equal it.
pub const POISON: Word = 0xDEAD_BEEF_DEAD_BEEF;

/// The region heap.
#[derive(Debug)]
pub struct Heap {
    pub(crate) words: Vec<Word>,
    page_words: usize,
    free_head: u64,
    free_count: usize,
    total_pages: usize,
}

impl Heap {
    /// Creates a heap with `initial_pages` pages of `page_words` words
    /// (a power of two), all free (and virgin until first allocated).
    pub fn new(page_words: usize, initial_pages: usize) -> Self {
        assert!(page_words.is_power_of_two() && page_words >= 8);
        let mut h = Heap {
            words: Vec::new(),
            page_words,
            free_head: NONE_ADDR,
            free_count: 0,
            total_pages: 0,
        };
        h.grow(initial_pages.max(1));
        h
    }

    /// Words per page.
    pub fn page_words(&self) -> usize {
        self.page_words
    }

    /// Total pages in the heap (free or in use).
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages currently on the free-list.
    pub fn free_pages(&self) -> usize {
        self.free_count
    }

    /// Reads a heap word.
    #[inline]
    pub fn read(&self, addr: u64) -> Word {
        self.words[addr as usize]
    }

    /// Writes a heap word.
    #[inline]
    pub fn write(&mut self, addr: u64, v: Word) {
        self.words[addr as usize] = v;
    }

    /// Writes a box at `addr` — the tag word if `tagged`, the optional
    /// `lead` word, then `fields` in one slice copy — through a slice of
    /// the arena, so the range is bounds-checked once.
    #[inline]
    pub(crate) fn write_box(
        &mut self,
        addr: u64,
        tagged: bool,
        tag: Tag,
        lead: Option<Word>,
        fields: &[Word],
    ) {
        let fixed = tagged as usize + lead.is_some() as usize;
        let dst = &mut self.words[addr as usize..addr as usize + fixed + fields.len()];
        if tagged {
            dst[0] = tag.encode();
        }
        if let Some(w) = lead {
            dst[fixed - 1] = w;
        }
        dst[fixed..].copy_from_slice(fields);
    }

    /// The base address of the page containing `addr` (paper §2.4's
    /// bitwise-and trick).
    #[inline]
    pub fn page_base(&self, addr: u64) -> u64 {
        addr & !(self.page_words as u64 - 1)
    }

    /// One past the last usable word of the page containing `addr`.
    #[inline]
    pub fn page_end(&self, addr: u64) -> u64 {
        self.page_base(addr) + self.page_words as u64
    }

    /// Grows the heap by `n` pages in O(1): the new pages are *virgin* —
    /// counted free, but not linked into the free-list and not backed by
    /// arena storage until first popped. Growth is a policy decision (the
    /// collector granting itself garbage headroom), and eagerly zeroing
    /// the grant would charge megabytes of memset and page faults to the
    /// GC pause; lazily, headroom that is never allocated from never
    /// costs a byte, and first-touch cost lands on the mutator allocation
    /// that actually uses the page. The heap never gives pages back: the
    /// collector's heap-to-live rule only ever grows it.
    pub fn grow(&mut self, n: usize) {
        self.free_count += n;
        self.total_pages += n;
    }

    /// Takes one page from the free-list (growing the heap if empty) and
    /// stamps its origin. Returns the page base address.
    pub fn alloc_page(&mut self, origin: u64) -> u64 {
        if self.free_count == 0 {
            let n = (self.total_pages / 4).max(32);
            self.grow(n);
        }
        let page = self.pop_free_page();
        self.write(page + PAGE_NEXT, NONE_ADDR);
        self.write(page + PAGE_ORIGIN, origin);
        page
    }

    /// Appends a whole chain of pages (`first ..` following next-links,
    /// ending at the page holding the word before `end`) to the free-list
    /// in constant time (paper §2.1). `count` pages are returned. A debug
    /// build first poisons what was handed out: every page's payload
    /// whole, the last one up to `end` ([`POISON`]).
    pub fn free_run(&mut self, first: u64, end: u64, count: usize) {
        if first == NONE_ADDR {
            return;
        }
        let last_page = self.page_base(end - 1);
        debug_assert_eq!(self.read(last_page + PAGE_NEXT), NONE_ADDR);
        #[cfg(debug_assertions)]
        {
            let mut p = first;
            while p != last_page {
                let next = self.read(p + PAGE_NEXT);
                self.words[(p + PAGE_HDR) as usize..(p + self.page_words as u64) as usize]
                    .fill(POISON);
                p = next;
            }
            self.words[(last_page + PAGE_HDR) as usize..end as usize].fill(POISON);
        }
        self.write(last_page + PAGE_NEXT, self.free_head);
        self.free_head = first;
        self.free_count += count;
    }

    /// Iterates the page chain starting at `first`.
    pub fn pages_from(&self, first: u64) -> PageIter<'_> {
        PageIter {
            heap: self,
            cur: first,
        }
    }

    /// Heap size in bytes (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Pops one page off the free-list without stamping it; the caller
    /// ([`Heap::alloc_page`]) has made sure one exists. The linked list
    /// is drained first; virgin pages then materialize bottom-up, one
    /// page's worth of storage at a time (`Vec` doubling amortizes the
    /// reallocations).
    fn pop_free_page(&mut self) -> u64 {
        debug_assert!(self.free_count > 0);
        self.free_count -= 1;
        if self.free_head != NONE_ADDR {
            let page = self.free_head;
            self.free_head = self.read(page + PAGE_NEXT);
            return page;
        }
        // Reserve backing for the whole span in one step, so at most one
        // reallocation (arena memcpy) happens per policy grow — and it
        // happens here, on the first allocation that needs the new pages
        // (almost always a mutator allocation), not inside a collection
        // pause.
        let span = self.total_pages * self.page_words;
        if span > self.words.capacity() {
            let len = self.words.len();
            self.words.reserve(span - len);
        }
        let base = self.words.len() as u64;
        self.words.resize(self.words.len() + self.page_words, 0);
        base
    }
}

/// Iterator over a chain of pages.
#[derive(Debug)]
pub struct PageIter<'a> {
    heap: &'a Heap,
    cur: u64,
}

impl Iterator for PageIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cur == NONE_ADDR {
            return None;
        }
        let p = self.cur;
        self.cur = self.heap.read(p + PAGE_NEXT);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_aligned() {
        let h = Heap::new(256, 4);
        assert_eq!(h.page_base(300), 256);
        assert_eq!(h.page_base(255), 0);
        assert_eq!(h.page_end(300), 512);
    }

    #[test]
    fn alloc_and_free_conserve_pages() {
        let mut h = Heap::new(64, 8);
        assert_eq!(h.free_pages(), 8);
        let p1 = h.alloc_page(7);
        let p2 = h.alloc_page(7);
        assert_eq!(h.free_pages(), 6);
        assert_eq!(h.read(p1 + PAGE_ORIGIN), 7);
        // Chain p1 -> p2 and free the run.
        h.write(p1 + PAGE_NEXT, p2);
        h.write(p2 + PAGE_NEXT, NONE_ADDR);
        h.free_run(p1, p2 + 5, 2);
        assert_eq!(h.free_pages(), 8);
        assert_eq!(h.total_pages(), 8);
    }

    #[test]
    fn grows_when_free_list_empty() {
        let mut h = Heap::new(64, 1);
        let _ = h.alloc_page(0);
        let before = h.total_pages();
        let _ = h.alloc_page(0);
        assert!(h.total_pages() > before);
    }

    #[test]
    fn page_chain_iteration() {
        let mut h = Heap::new(64, 4);
        let a = h.alloc_page(0);
        let b = h.alloc_page(0);
        let c = h.alloc_page(0);
        h.write(a + PAGE_NEXT, b);
        h.write(b + PAGE_NEXT, c);
        let chain: Vec<u64> = h.pages_from(a).collect();
        assert_eq!(chain, vec![a, b, c]);
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut h = Heap::new(64, 2);
        let a = h.alloc_page(0);
        h.write(a + PAGE_NEXT, NONE_ADDR);
        h.free_run(a, a + 64, 1);
        let b = h.alloc_page(1);
        assert_eq!(a, b, "free-list is LIFO");
    }
}
