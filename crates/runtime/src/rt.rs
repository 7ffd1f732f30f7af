//! The runtime: region primitives (paper §3) and value constructors.
//!
//! `Rt` owns the region heap, the runtime stack, the data segment, the
//! large-object table and the region stack, and exposes the *region
//! primitives* the compiled code is linked against: allocating and
//! deallocating regions, allocating into regions, and reading/writing
//! boxed values in a tagging-aware way.

use crate::config::{Collector, RtConfig};
#[cfg(debug_assertions)]
use crate::heap::POISON;
use crate::heap::{Heap, PAGE_HDR, PAGE_NEXT};
use crate::lobj::{LData, Lobjs};
use crate::profile::Profiler;
use crate::region::RegionDesc;
pub use crate::region::RegionId;
use crate::stats::RtStats;
use crate::value::{
    is_ptr, ptr, ptr_addr, scalar, scalar_val, space_of, Space, Tag, Word, DATA_BASE, LOBJ_STRIDE,
    NONE_ADDR, STACK_BASE,
};
use std::collections::{HashMap, HashSet};

/// Under [`Collector::Generational`], the program's one region: the nursery.
pub(crate) const NURSERY: RegionId = RegionId(0);
/// Under [`Collector::Generational`], the tenured generation the runtime
/// pushes after the nursery.
pub(crate) const TENURED: RegionId = RegionId(1);

/// The runtime state for one program execution.
#[derive(Debug)]
pub struct Rt {
    /// Configuration (mode and collector policy).
    pub config: RtConfig,
    /// The region heap.
    pub heap: Heap,
    /// The runtime stack (activation records and finite regions).
    pub stack: Vec<Word>,
    /// The region stack of descriptors; `RegionId` indexes into it.
    pub regions: Vec<RegionDesc>,
    /// Large objects.
    pub lobjs: Lobjs,
    /// Statistics.
    pub stats: RtStats,
    /// Set when a collection is due — the free-list dropped below the
    /// threshold, or the nursery reached its size — so the mutator
    /// collects at the next safe point (function entry, paper §4).
    pub gc_needed: bool,
    /// True while the collector runs (suppresses accounting of to-space
    /// page requests as mutator allocation).
    pub in_gc: bool,
    /// Region profiler (paper Fig. 5).
    pub profiler: Profiler,
    /// The generational collector's write barrier: the fields that took a
    /// pointer since the last collection, each once, in the order first
    /// written (any may hold a tenured→nursery pointer).
    pub(crate) remembered: Vec<u64>,
    pub(crate) remembered_set: HashSet<u64>,
    data_strings: Vec<String>,
    data_interned: HashMap<String, u32>,
    /// Total bytes of `data_strings`, kept so the footprint is O(1).
    data_bytes: usize,
    /// Footprint observations made (checks that accounting changes keep
    /// the observation points).
    #[cfg(test)]
    mem_observations: u64,
}

impl Rt {
    /// Creates a runtime in the given mode.
    pub fn new(config: RtConfig) -> Self {
        let heap = Heap::new(config.page_words(), config.initial_pages);
        Rt {
            heap,
            stack: Vec::with_capacity(1024),
            regions: Vec::new(),
            lobjs: Lobjs::new(),
            stats: RtStats::default(),
            gc_needed: false,
            in_gc: false,
            profiler: Profiler::new(config.profile),
            remembered: Vec::new(),
            remembered_set: HashSet::new(),
            data_strings: Vec::new(),
            data_interned: HashMap::new(),
            data_bytes: 0,
            #[cfg(test)]
            mem_observations: 0,
            config,
        }
    }

    // -------------------------------------------------------------- regions

    /// Pushes a fresh infinite region (with one page, as in the ML Kit)
    /// and returns its id. `name` identifies the region variable for
    /// profiling.
    pub fn letregion(&mut self, name: u32) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        let mut d = RegionDesc::empty(name);
        let page = self.alloc_page_for(id.0);
        d.fp = page;
        d.a = page + PAGE_HDR;
        d.e = page + self.heap.page_words() as u64;
        d.pages = 1;
        self.regions.push(d);
        self.stats.regions_created += 1;
        self.observe_mem();
        id
    }

    /// Pushes the program's global regions, ids `0..names.len()`. Under
    /// the generational collector the one global region is the nursery,
    /// and the tenured generation follows it as region 1.
    pub fn push_globals(&mut self, names: &[u32]) {
        for &name in names {
            let _ = self.letregion(name);
        }
        if let Collector::Generational(_) = self.config.collector {
            assert_eq!(
                self.region_depth(),
                1,
                "the generational baseline needs exactly one program region"
            );
            let _ = self.letregion(u32::MAX);
        }
    }

    /// Pops the newest region, returning its pages to the free-list in
    /// constant time and freeing its large objects (paper §2.1, §3.1).
    pub fn endregion(&mut self) {
        let d = self.regions.pop().expect("region stack underflow");
        if d.fp != NONE_ADDR {
            self.heap.free_run(d.fp, d.a, d.pages);
        }
        self.free_lobj_list(d.lobjs);
        self.stats.regions_popped += 1;
    }

    /// Pops regions until `depth` remain (used for scope exit and
    /// exception unwinding).
    pub fn pop_regions_to(&mut self, depth: usize) {
        while self.regions.len() > depth {
            self.endregion();
        }
    }

    /// Current region-stack depth.
    pub fn region_depth(&self) -> usize {
        self.regions.len()
    }

    fn free_lobj_list(&mut self, mut head: u32) {
        while head != 0 {
            let id = head - 1;
            head = self.lobjs.get(id).next;
            self.lobjs.free(id);
        }
    }

    /// Requests a page from the free-list, stamping `origin`, and updates
    /// the collection trigger: the region collector's fires when the
    /// free-list falls below `gc_threshold` of the heap, the generational
    /// one's when this page brings the nursery to its size.
    fn alloc_page_for(&mut self, origin: u32) -> u64 {
        let page = self.heap.alloc_page(origin as u64);
        if !self.in_gc {
            self.stats.pages_requested_since_gc += 1;
            self.gc_needed |= match self.config.collector {
                Collector::Off => false,
                Collector::Regions => {
                    self.heap.free_pages()
                        < (self.heap.total_pages() as f64 * self.config.gc_threshold) as usize
                }
                Collector::Generational(pol) => {
                    origin == NURSERY.0
                        && self.regions.first().map_or(0, |d| d.pages) + 1 >= pol.nursery_pages
                }
            };
        }
        page
    }

    /// Bump-allocates `nwords` payload words in region `r` for the
    /// mutator, extending the region with a fresh page if needed. Returns
    /// the word address.
    ///
    /// # Panics
    ///
    /// Panics if `nwords` exceeds the page payload size — such values must
    /// go to the large-object space.
    #[inline]
    pub fn alloc_words(&mut self, r: RegionId, nwords: u64) -> u64 {
        self.stats.words_allocated += nwords;
        self.stats.allocations += 1;
        self.bump(r, nwords)
    }

    /// The paper's allocator (§2.1): a compare and a bump on the region
    /// descriptor. Shared by the mutator ([`Rt::alloc_words`], which adds
    /// the allocation statistics) and the collector's evacuation, whose
    /// copies are not mutator allocation. A region without pages has
    /// `a == e`, so it takes the page-extension path like a full one.
    #[inline]
    pub(crate) fn bump(&mut self, r: RegionId, nwords: u64) -> u64 {
        debug_assert!(nwords > 0);
        let d = &mut self.regions[r.0 as usize];
        let addr = d.a;
        if addr + nwords <= d.e {
            d.a = addr + nwords;
            d.used_words += nwords;
            return addr;
        }
        self.bump_on_new_page(r, nwords)
    }

    #[cold]
    #[inline(never)]
    fn bump_on_new_page(&mut self, r: RegionId, nwords: u64) -> u64 {
        assert!(
            nwords as usize <= self.config.page_data_words(),
            "value of {nwords} words exceeds the region page size"
        );
        self.stats.page_extensions += 1;
        self.extend_region(r);
        let d = &mut self.regions[r.0 as usize];
        let addr = d.a;
        d.a += nwords;
        d.used_words += nwords;
        addr
    }

    /// Extends region `r` with a fresh page, writing the slack sentinel so
    /// the collector's scan pointer can skip the unused page tail.
    fn extend_region(&mut self, r: RegionId) {
        let (a, e, fp) = {
            let d = &self.regions[r.0 as usize];
            (d.a, d.e, d.fp)
        };
        if self.config.tagged && fp != NONE_ADDR && a < e {
            let w = Tag::sentinel_word();
            self.heap.write(a, w);
        }
        let page = self.alloc_page_for(r.0);
        let pw = self.heap.page_words() as u64;
        let d = &mut self.regions[r.0 as usize];
        if d.fp == NONE_ADDR {
            d.fp = page;
        } else {
            // d.e is one past the end of the last page, so this is its base.
            let last = d.e - pw;
            self.heap.write(last + PAGE_NEXT, page);
        }
        let d = &mut self.regions[r.0 as usize];
        d.a = page + PAGE_HDR;
        d.e = page + pw;
        d.pages += 1;
        self.observe_mem();
    }

    // --------------------------------------------------------------- values

    /// Header words before the fields of a box (1 when tagged).
    #[inline]
    pub fn hdr_words(&self) -> u64 {
        self.config.tagged as u64
    }

    /// Encodes an integer value.
    #[inline]
    pub fn tag_int(&self, n: i64) -> Word {
        if self.config.tagged {
            scalar(n)
        } else {
            n as u64
        }
    }

    /// Decodes an integer value.
    #[inline]
    pub fn untag_int(&self, v: Word) -> i64 {
        if self.config.tagged {
            scalar_val(v)
        } else {
            v as i64
        }
    }

    /// Reads a word at any address (heap, stack, or large-object array).
    /// Heap and stack reads — every box in an infinite or a finite region
    /// — are inline. Large objects are out of line: the mutator reaches
    /// arrays through [`Rt::arr_get`] and [`Rt::arr_set`] instead.
    #[inline]
    pub fn read_addr(&self, addr: u64) -> Word {
        if addr < STACK_BASE {
            let w = self.heap.read(addr);
            #[cfg(debug_assertions)]
            if w == POISON {
                poison_read(addr);
            }
            return w;
        }
        if addr < DATA_BASE {
            return self.stack[(addr - STACK_BASE) as usize];
        }
        self.read_large(addr)
    }

    #[cold]
    #[inline(never)]
    fn read_large(&self, addr: u64) -> Word {
        match space_of(addr) {
            Space::Large => {
                let id = Lobjs::id_of(addr);
                let off = (addr - Lobjs::addr_of(id)) as usize;
                match &self.lobjs.get(id).data {
                    LData::Arr(a) => a[off],
                    LData::Str(_) => panic!("word read from string large object"),
                }
            }
            Space::Data => panic!("word read from the data segment"),
            Space::Heap | Space::Stack => unreachable!("heap and stack reads are inline"),
        }
    }

    /// Writes a word at any address; heap and stack writes are inline, as
    /// in [`Rt::read_addr`].
    #[inline]
    pub fn write_addr(&mut self, addr: u64, v: Word) {
        if addr < STACK_BASE {
            return self.heap.write(addr, v);
        }
        if addr < DATA_BASE {
            self.stack[(addr - STACK_BASE) as usize] = v;
            return;
        }
        self.write_large(addr, v)
    }

    #[cold]
    #[inline(never)]
    fn write_large(&mut self, addr: u64, v: Word) {
        match space_of(addr) {
            Space::Large => {
                let id = Lobjs::id_of(addr);
                let off = (addr - Lobjs::addr_of(id)) as usize;
                match &mut self.lobjs.get_mut(id).data {
                    LData::Arr(a) => a[off] = v,
                    LData::Str(_) => panic!("word write to string large object"),
                }
            }
            Space::Data => panic!("word write to the data segment"),
            Space::Heap | Space::Stack => unreachable!("heap and stack writes are inline"),
        }
    }

    /// Allocates a box with `tag` and `fields` in region `r`.
    ///
    /// In untagged mode the tag word is omitted — fields only.
    #[inline]
    pub fn alloc_boxed(&mut self, r: RegionId, tag: Tag, fields: &[Word]) -> Word {
        let words = self.hdr_words() + fields.len() as u64;
        let addr = self.alloc_words(r, words);
        self.heap
            .write_box(addr, self.config.tagged, tag, None, fields);
        ptr(addr)
    }

    /// Builds a box in region `r` out of the top `n` words of the operand
    /// stack, in place: allocates `hdr + [lead] + n` words, writes the
    /// tag (tagged mode) and the optional `lead` word (a constructor's
    /// discriminant), moves the operands straight from the stack into the
    /// page and pops them.
    #[inline]
    pub fn alloc_boxed_from_stack(
        &mut self,
        r: RegionId,
        tag: Tag,
        lead: Option<Word>,
        n: usize,
    ) -> Word {
        let words = self.hdr_words() + lead.is_some() as u64 + n as u64;
        let addr = self.alloc_words(r, words);
        let start = self.stack.len() - n;
        let operands = &self.stack[start..];
        self.heap
            .write_box(addr, self.config.tagged, tag, lead, operands);
        self.stack.truncate(start);
        ptr(addr)
    }

    /// Allocates a tuple/closure record.
    #[inline]
    pub fn alloc_record(&mut self, r: RegionId, fields: &[Word]) -> Word {
        self.alloc_boxed(r, Tag::record(fields.len() as u32), fields)
    }

    /// Allocates a boxed real.
    pub fn alloc_real(&mut self, r: RegionId, x: f64) -> Word {
        self.alloc_boxed(r, Tag::real(), &[x.to_bits()])
    }

    /// Reads a boxed real.
    pub fn real_val(&self, v: Word) -> f64 {
        f64::from_bits(self.read_addr(ptr_addr(v) + self.hdr_words()))
    }

    /// Reads field `i` of a box.
    #[inline]
    pub fn field(&self, v: Word, i: u64) -> Word {
        self.read_addr(ptr_addr(v) + self.hdr_words() + i)
    }

    /// Writes field `i` of a box.
    #[inline]
    pub fn set_field(&mut self, v: Word, i: u64, x: Word) {
        self.write_addr(ptr_addr(v) + self.hdr_words() + i, x);
    }

    /// A mutator store into a ref cell or an array slot: writes `v` at
    /// `addr` and, under the generational collector, remembers the field
    /// (it may now point from the tenured generation into the nursery) if
    /// `v` is a pointer and the field is not remembered yet.
    #[inline(always)]
    pub fn update(&mut self, addr: u64, v: Word) {
        self.write_addr(addr, v);
        self.barrier(addr, v);
    }

    /// The store rule of [`Rt::update`] and [`Rt::arr_set`]: under the
    /// generational collector, `v` just stored at `addr` is remembered.
    #[inline(always)]
    fn barrier(&mut self, addr: u64, v: Word) {
        if let Collector::Generational(_) = self.config.collector {
            self.remember(addr, v);
        }
    }

    /// The generational barrier proper, out of line so that [`Rt::update`]
    /// stays a store and a test on the other collectors' paths.
    #[inline(never)]
    fn remember(&mut self, addr: u64, v: Word) {
        if is_ptr(v) && self.remembered_set.insert(addr) {
            self.remembered.push(addr);
        }
    }

    /// Fields in the remembered set (see [`Rt::update`]).
    pub fn remembered_len(&self) -> usize {
        self.remembered.len()
    }

    // -------------------------------------------------------------- strings

    /// Interns a constant string in the data segment; such values are
    /// never traversed, updated or copied by the collector (§2.5).
    pub fn intern_const_str(&mut self, s: &str) -> Word {
        if let Some(&i) = self.data_interned.get(s) {
            return ptr(DATA_BASE + i as u64);
        }
        let i = self.data_strings.len() as u32;
        self.data_bytes += s.len();
        self.data_strings.push(s.to_string());
        self.data_interned.insert(s.to_string(), i);
        ptr(DATA_BASE + i as u64)
    }

    /// Allocates a string as a large object associated with region `r`.
    pub fn alloc_string(&mut self, r: RegionId, s: String) -> Word {
        self.stats.lobj_words_allocated += s.len().div_ceil(8) as u64;
        let d = &mut self.regions[r.0 as usize];
        let id = self.lobjs.alloc(LData::Str(s), d.lobjs);
        d.lobjs = id + 1;
        self.observe_mem();
        ptr(Lobjs::addr_of(id))
    }

    /// Reads any string value (constant or large object).
    pub fn str_val(&self, v: Word) -> &str {
        let addr = ptr_addr(v);
        match space_of(addr) {
            Space::Data => &self.data_strings[(addr - DATA_BASE) as usize],
            Space::Large => match &self.lobjs.get(Lobjs::id_of(addr)).data {
                LData::Str(s) => s,
                LData::Arr(_) => panic!("array used as string"),
            },
            _ => panic!("string value outside data/large-object space"),
        }
    }

    // --------------------------------------------------------------- arrays

    /// Allocates an array of `n` copies of `init` in region `r`'s
    /// large-object list.
    pub fn alloc_array(&mut self, r: RegionId, n: usize, init: Word) -> Word {
        self.stats.lobj_words_allocated += n as u64;
        let d = &mut self.regions[r.0 as usize];
        let id = self.lobjs.alloc(LData::Arr(vec![init; n]), d.lobjs);
        d.lobjs = id + 1;
        self.observe_mem();
        ptr(Lobjs::addr_of(id))
    }

    /// Array length.
    #[inline]
    pub fn arr_len(&self, v: Word) -> usize {
        self.arr(v).len()
    }

    /// Element `i` of array `v`, or `None` if `i` is out of bounds: one
    /// large-object lookup and the bounds check.
    #[inline]
    pub fn arr_get(&self, v: Word, i: i64) -> Option<Word> {
        let i = usize::try_from(i).ok()?;
        self.arr(v).get(i).copied()
    }

    /// Stores `x` as element `i` of array `v` with [`Rt::update`]'s
    /// barrier; `false` (and no store) if `i` is out of bounds.
    #[inline]
    pub fn arr_set(&mut self, v: Word, i: i64, x: Word) -> bool {
        let Ok(i) = usize::try_from(i) else {
            return false;
        };
        let addr = ptr_addr(v);
        match &mut self.lobjs.get_mut(Lobjs::id_of(addr)).data {
            LData::Arr(a) => match a.get_mut(i) {
                Some(slot) => *slot = x,
                None => return false,
            },
            LData::Str(_) => panic!("string used as array"),
        }
        self.barrier(addr + i as u64, x);
        true
    }

    #[inline]
    fn arr(&self, v: Word) -> &[Word] {
        match &self.lobjs.get(Lobjs::id_of(ptr_addr(v))).data {
            LData::Arr(a) => a,
            LData::Str(_) => panic!("string used as array"),
        }
    }

    /// Array element address (for read/write through
    /// [`Rt::read_addr`]/[`Rt::write_addr`]).
    pub fn arr_elem_addr(&self, v: Word, i: usize) -> u64 {
        ptr_addr(v) + i as u64
    }

    // ------------------------------------------------------------ accounting

    /// Total current memory footprint in bytes: four running totals, so
    /// observing it on every call and `letregion` costs no walk.
    #[inline]
    pub fn mem_bytes(&self) -> usize {
        self.heap.bytes() + self.stack.len() * 8 + self.lobjs.bytes() + self.data_bytes
    }

    /// Records the current footprint into the peak statistic.
    #[inline]
    pub fn observe_mem(&mut self) {
        #[cfg(test)]
        {
            self.mem_observations += 1;
        }
        let b = self.mem_bytes();
        self.stats.observe_bytes(b);
    }

    /// Pages in use: region-heap pages owned by a region (the heap's
    /// pages less its free-list) plus large-object bytes rounded up to
    /// whole pages. This is the measure capped by
    /// `RtConfig::max_heap_pages`; free pages are not charged, whether
    /// freed by a pop or a collection or never yet touched.
    pub fn quota_pages(&self) -> usize {
        let page_bytes = self.config.page_words() * 8;
        self.heap.total_pages() - self.heap.free_pages() + self.lobjs.bytes().div_ceil(page_bytes)
    }

    /// `true` if a page cap is configured and the pages in use currently
    /// exceed it.
    pub fn over_quota(&self) -> bool {
        self.config
            .max_heap_pages
            .is_some_and(|cap| self.quota_pages() > cap)
    }

    /// Words still free in the page the region is currently filling.
    pub fn region_slack(&self, r: RegionId) -> u64 {
        let d = &self.regions[r.0 as usize];
        d.e - d.a
    }

    /// Sanity check: every page is either on the free-list or owned by
    /// exactly one region (used by property tests).
    pub fn check_page_conservation(&self) -> Result<(), String> {
        let owned: usize = self.regions.iter().map(|d| d.pages).sum();
        let total = self.heap.total_pages();
        let free = self.heap.free_pages();
        if owned + free != total {
            return Err(format!(
                "page leak: {owned} owned + {free} free != {total} total"
            ));
        }
        // Walk each region chain and count.
        for (i, d) in self.regions.iter().enumerate() {
            if d.fp == NONE_ADDR {
                if d.pages != 0 {
                    return Err(format!("region {i} has no pages but counts {}", d.pages));
                }
                continue;
            }
            let n = self.heap.pages_from(d.fp).count();
            if n != d.pages {
                return Err(format!(
                    "region {i} chain has {n} pages but descriptor counts {}",
                    d.pages
                ));
            }
        }
        Ok(())
    }
}

/// A read of a freed word ([`crate::heap::POISON`]): a dangling pointer
/// was followed.
#[cfg(debug_assertions)]
#[cold]
#[inline(never)]
fn poison_read(addr: u64) -> ! {
    panic!("poison read at {addr:#x}: the page was freed")
}

/// The stride between large-object addresses (re-exported for the VM).
pub const LOBJ_ADDR_STRIDE: u64 = LOBJ_STRIDE;

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> Rt {
        Rt::new(RtConfig::rgt())
    }

    #[test]
    fn letregion_endregion_conserves_pages() {
        let mut rt = rt();
        let free0 = rt.heap.free_pages();
        let r = rt.letregion(1);
        assert_eq!(rt.heap.free_pages(), free0 - 1);
        // Fill enough to take several pages.
        for i in 0..1000 {
            let _ = rt.alloc_record(r, &[rt.tag_int(i), rt.tag_int(i)]);
        }
        assert!(rt.regions[0].pages > 1);
        rt.check_page_conservation().unwrap();
        rt.endregion();
        assert_eq!(rt.heap.free_pages(), rt.heap.total_pages());
    }

    #[test]
    fn records_round_trip() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let v = rt.alloc_record(r, &[rt.tag_int(10), rt.tag_int(-3)]);
        assert_eq!(rt.untag_int(rt.field(v, 0)), 10);
        assert_eq!(rt.untag_int(rt.field(v, 1)), -3);
        rt.set_field(v, 1, rt.tag_int(99));
        assert_eq!(rt.untag_int(rt.field(v, 1)), 99);
    }

    #[test]
    fn untagged_boxes_have_no_header() {
        let mut rt = Rt::new(RtConfig::r());
        let r = rt.letregion(0);
        let before = rt.regions[0].used_words;
        let _ = rt.alloc_record(r, &[rt.tag_int(1), rt.tag_int(2)]);
        assert_eq!(
            rt.regions[0].used_words - before,
            2,
            "untagged pair is 2 words"
        );

        let mut rt2 = Rt::new(RtConfig::rt());
        let r2 = rt2.letregion(0);
        let before = rt2.regions[0].used_words;
        let _ = rt2.alloc_record(r2, &[rt2.tag_int(1), rt2.tag_int(2)]);
        assert_eq!(
            rt2.regions[0].used_words - before,
            3,
            "tagged pair is 3 words"
        );
    }

    #[test]
    fn reals_round_trip() {
        for cfg in [RtConfig::r(), RtConfig::rgt()] {
            let mut rt = Rt::new(cfg);
            let r = rt.letregion(0);
            let v = rt.alloc_real(r, -2.5);
            assert_eq!(rt.real_val(v), -2.5);
        }
    }

    /// A legal word that begins like a poison pattern reads back: the
    /// check compares the whole word with one constant.
    #[test]
    fn a_real_whose_bits_begin_with_dead_reads_back() {
        let x = f64::from_bits(0xDEAD_0000_0000_0000);
        for cfg in [RtConfig::r(), RtConfig::rgt()] {
            let mut rt = Rt::new(cfg);
            let r = rt.letregion(0);
            let v = rt.alloc_real(r, x);
            assert_eq!(rt.real_val(v).to_bits(), x.to_bits());
        }
    }

    /// A popped region's pages are poisoned in a debug build, up to the
    /// allocation pointer, so a read through a dangling pointer into it
    /// panics — on its first page and on its last. A release build reads
    /// the stale word.
    #[test]
    fn a_read_into_a_popped_region_panics_exactly_in_debug() {
        for cfg in [RtConfig::r(), RtConfig::rgt()] {
            let mut rt = small_pages(cfg);
            let _global = rt.letregion(0);
            let r = rt.letregion(1);
            let first = rt.alloc_record(r, &[rt.tag_int(1), rt.tag_int(2)]);
            let mut last = first;
            for i in 0..20 {
                last = rt.alloc_record(r, &[rt.tag_int(i), rt.tag_int(i)]);
            }
            assert!(rt.regions[1].pages > 1);
            rt.endregion();
            for v in [first, last] {
                let read =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.field(v, 1)));
                assert_eq!(read.is_err(), cfg!(debug_assertions));
            }
        }
    }

    #[test]
    fn strings_and_interning() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let c1 = rt.intern_const_str("hello");
        let c2 = rt.intern_const_str("hello");
        assert_eq!(c1, c2, "constants are interned");
        let s = rt.alloc_string(r, "dyn".to_string());
        assert_eq!(rt.str_val(c1), "hello");
        assert_eq!(rt.str_val(s), "dyn");
        rt.endregion();
        // Constant survives region pop; the dynamic string is gone.
        assert_eq!(rt.str_val(c1), "hello");
        assert_eq!(rt.lobjs.live_count(), 0);
    }

    #[test]
    fn arrays_are_region_associated_large_objects() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let a = rt.alloc_array(r, 5, rt.tag_int(7));
        assert_eq!(rt.arr_len(a), 5);
        let addr = rt.arr_elem_addr(a, 3);
        rt.write_addr(addr, rt.tag_int(42));
        assert_eq!(rt.untag_int(rt.read_addr(rt.arr_elem_addr(a, 3))), 42);
        assert_eq!(rt.untag_int(rt.read_addr(rt.arr_elem_addr(a, 0))), 7);
        // The mutator's accessors agree with the word reader and writer,
        // and refuse what is out of bounds without a store.
        assert_eq!(rt.arr_get(a, 3), Some(rt.tag_int(42)));
        assert!(rt.arr_set(a, 4, rt.tag_int(9)));
        assert_eq!(rt.untag_int(rt.read_addr(rt.arr_elem_addr(a, 4))), 9);
        for i in [-1, 5, i64::MIN] {
            assert_eq!(rt.arr_get(a, i), None, "index {i}");
            assert!(!rt.arr_set(a, i, rt.tag_int(0)), "index {i}");
        }
        rt.endregion();
        assert_eq!(rt.lobjs.live_count(), 0, "arrays freed with their region");
    }

    #[test]
    fn gc_trigger_fires_when_free_list_shrinks() {
        let mut rt = Rt::new(RtConfig {
            initial_pages: 9,
            ..RtConfig::rgt()
        });
        let r = rt.letregion(0);
        assert!(!rt.gc_needed);
        for i in 0..10_000 {
            let _ = rt.alloc_record(r, &[rt.tag_int(i)]);
            if rt.gc_needed {
                return;
            }
        }
        panic!("gc trigger never fired");
    }

    #[test]
    fn nested_regions_pop_lifo() {
        let mut rt = rt();
        let _r1 = rt.letregion(1);
        let _r2 = rt.letregion(2);
        let r3 = rt.letregion(3);
        let _ = rt.alloc_record(r3, &[rt.tag_int(1)]);
        assert_eq!(rt.region_depth(), 3);
        rt.pop_regions_to(1);
        assert_eq!(rt.region_depth(), 1);
        rt.check_page_conservation().unwrap();
    }

    /// 16-word pages: 14 payload words each.
    fn small_pages(cfg: RtConfig) -> Rt {
        Rt::new(RtConfig {
            page_words_log2: 4,
            ..cfg
        })
    }

    #[test]
    fn bump_keeps_the_descriptor_exact_across_page_boundaries() {
        // Tagged 4-word boxes → 3 per page, 2 words of slack.
        let mut rt = small_pages(RtConfig::rgt());
        let free0 = rt.heap.free_pages();
        let r = rt.letregion(0);
        for i in 0..11u64 {
            let _ = rt.alloc_record(r, &[rt.tag_int(0), rt.tag_int(0), rt.tag_int(0)]);
            // No cursor lives outside the descriptor: it is exact after
            // every allocation, with nothing to write back.
            let d = &rt.regions[0];
            assert_eq!(d.used_words, 4 * (i + 1));
            assert_eq!(d.pages as u64, i / 3 + 1);
            assert_eq!(rt.region_slack(r), 14 - 4 * (i % 3 + 1));
        }
        assert_eq!(rt.stats.words_allocated, 44);
        assert_eq!(rt.stats.allocations, 11);
        assert_eq!(
            rt.stats.page_extensions, 3,
            "4 pages, the first from letregion"
        );
        rt.check_page_conservation().unwrap();
        rt.endregion();
        assert_eq!(rt.heap.free_pages(), free0, "all pages returned");
    }

    #[test]
    fn a_reused_region_id_starts_from_a_fresh_page() {
        // Region ids are reused stack indices: the successor of a popped
        // region must not inherit its cursor.
        let mut rt = small_pages(RtConfig::rgt());
        let r1 = rt.letregion(1);
        for _ in 0..5 {
            let _ = rt.alloc_record(r1, &[rt.tag_int(1)]);
        }
        rt.endregion();
        let r2 = rt.letregion(2);
        assert_eq!(r2.0, 0, "index reused");
        let d = &rt.regions[0];
        assert_eq!((d.a, d.pages, d.used_words), (d.fp + PAGE_HDR, 1, 0));
        let v = rt.alloc_record(r2, &[rt.tag_int(7), rt.tag_int(8)]);
        assert_eq!(ptr_addr(v), rt.regions[0].fp + PAGE_HDR);
        assert_eq!(rt.untag_int(rt.field(v, 0)), 7);
        assert_eq!(rt.untag_int(rt.field(v, 1)), 8);
        assert_eq!(rt.regions[0].used_words, 3, "tagged pair in the new region");
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn alternating_regions_leave_the_fast_path_only_to_extend_a_page() {
        // `(n, n * 3) :: acc` alternates two regions on every allocation;
        // neither may pay for the other. 2-word boxes pack a 14-word page
        // exactly, so pages == ceil(words / payload).
        let mut rt = small_pages(RtConfig::rt());
        let ra = rt.letregion(1);
        let rb = rt.letregion(2);
        for i in 0..10_000 {
            let r = if i % 2 == 0 { ra } else { rb };
            let _ = rt.alloc_record(r, &[rt.tag_int(i)]);
        }
        for d in &rt.regions {
            assert_eq!(d.used_words, 10_000);
            assert_eq!(d.pages, 10_000usize.div_ceil(14));
        }
        // Each region got its first page from `letregion`.
        let pages: usize = rt.regions.iter().map(|d| d.pages).sum();
        assert_eq!(rt.stats.page_extensions, pages as u64 - 2);
        assert_eq!(rt.stats.allocations, 10_000);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn in_place_box_equals_alloc_boxed() {
        let junk = 0xABCD;
        for cfg in [RtConfig::rgt(), RtConfig::r()] {
            for lead in [None, Some(scalar(5))] {
                for n in 0..=8usize {
                    // `prefill` words already in the page: 0 leaves room,
                    // 12 of 14 makes every box straddle the page end.
                    for prefill in [0, 12u64] {
                        let hdr = cfg.tagged as usize;
                        if hdr + lead.is_some() as usize + n == 0 {
                            continue; // no such box
                        }
                        let setup = || {
                            let mut rt = small_pages(cfg.clone());
                            let r = rt.letregion(0);
                            if prefill > 0 {
                                let _ = rt.alloc_words(r, prefill);
                            }
                            (rt, r)
                        };
                        let operands: Vec<Word> = (0..n as i64).map(|i| scalar(10 + i)).collect();
                        let tag = Tag::con(3, (lead.is_some() as usize + n) as u32);

                        let (mut a, r) = setup();
                        a.stack.push(junk);
                        a.stack.extend_from_slice(&operands);
                        let va = a.alloc_boxed_from_stack(r, tag, lead, n);

                        let (mut b, r) = setup();
                        let fields: Vec<Word> = lead.iter().chain(&operands).copied().collect();
                        let vb = b.alloc_boxed(r, tag, &fields);

                        let ctx = format!(
                            "tagged={} lead={lead:?} n={n} prefill={prefill}",
                            cfg.tagged
                        );
                        assert_eq!(va, vb, "{ctx}");
                        assert_eq!(a.heap.words, b.heap.words, "{ctx}: heap image");
                        assert_eq!(a.stack, [junk], "{ctx}: operands popped, nothing else");
                        assert_eq!(a.stats.words_allocated, b.stats.words_allocated, "{ctx}");
                        assert_eq!(a.stats.allocations, b.stats.allocations, "{ctx}");
                        assert_eq!(a.regions[0].used_words, b.regions[0].used_words, "{ctx}");
                        let straddles = prefill + (hdr + fields.len()) as u64 > 14;
                        assert_eq!(a.stats.page_extensions, straddles as u64, "{ctx}");
                        if straddles && cfg.tagged {
                            let slack = a.regions[0].fp + PAGE_HDR + prefill;
                            assert_eq!(a.heap.read(slack), Tag::sentinel_word(), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// The footprint as it was computed before `data_bytes` existed.
    fn mem_bytes_walking(rt: &Rt) -> usize {
        rt.heap.bytes()
            + rt.stack.len() * 8
            + rt.lobjs.bytes()
            + rt.data_strings.iter().map(|s| s.len()).sum::<usize>()
    }

    #[test]
    fn footprint_is_a_running_total_observed_where_it_always_was() {
        // A program with 1 000 string constants: every observation point
        // (letregion, page extension, string and array allocation) must
        // see exactly what a walk over the data segment would have seen.
        let mut rt = small_pages(RtConfig::rgt());
        let mut want_peak = 0;
        let mut want_observations = 0;
        let mut check = |rt: &Rt, observed: u64| {
            want_observations += observed;
            assert_eq!(rt.mem_observations, want_observations);
            assert_eq!(rt.mem_bytes(), mem_bytes_walking(rt));
            // Nothing moves the footprint between the last observation
            // and this check, so the walk reads what that one recorded.
            if observed > 0 {
                want_peak = want_peak.max(mem_bytes_walking(rt));
            }
            assert_eq!(rt.stats.peak_bytes, want_peak);
        };
        let g = rt.letregion(0);
        check(&rt, 1);
        for i in 0..1000 {
            let _ = rt.intern_const_str(&format!("constant number {i}"));
            let _ = rt.intern_const_str("the same one again");
            assert_eq!(rt.mem_bytes(), mem_bytes_walking(&rt));
            let r = rt.letregion(1);
            check(&rt, 1);
            rt.stack.push(scalar(i));
            let extended = rt.stats.page_extensions;
            for _ in 0..i % 9 {
                let _ = rt.alloc_record(r, &[scalar(1), scalar(2)]);
            }
            check(&rt, rt.stats.page_extensions - extended);
            if i % 100 == 0 {
                let _ = rt.alloc_string(g, "x".repeat(i as usize));
                let _ = rt.alloc_array(r, 10, scalar(0));
                check(&rt, 2);
            }
            rt.endregion();
            check(&rt, 0);
        }
        assert!(rt.data_bytes > 1000 * "constant number ".len());
    }

    #[test]
    fn slack_written_as_sentinel_on_page_extension() {
        let mut rt = Rt::new(RtConfig {
            page_words_log2: 4,
            ..RtConfig::rgt()
        }); // 16-word pages
        let r = rt.letregion(0);
        // Fill the first page so a sentinel is written before chaining.
        // 14 payload words per page; 4-word boxes (tag+3): 3 fit, 2 slack.
        for _ in 0..4 {
            let _ = rt.alloc_record(r, &[1, 1, 1].map(|_| rt.tag_int(0)));
        }
        let d = &rt.regions[0];
        assert_eq!(d.pages, 2);
        // The slack word of the first page must hold the sentinel tag.
        let first = d.fp;
        let slack_addr = first + PAGE_HDR + 12;
        let t = Tag::decode(rt.heap.read(slack_addr));
        assert_eq!(t.kind, crate::value::Kind::Sentinel);
    }
}
