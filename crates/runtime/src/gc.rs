//! Cheney's stop-and-copy collector extended to regions (paper §2.2–2.5),
//! and the two-generation collector of the SML/NJ-substitute baseline
//! (DESIGN.md §4), as one sequence. A *pass* proceeds as follows:
//!
//! 1. **Flip.** The paper's collector detaches every region's page list
//!    into a single **global from-space**, origins intact, and gives each
//!    region a fresh page from the free-list (its to-space); a generational
//!    pass detaches one region's pages, stamped [`FROM_MARK`]. The
//!    collector never allocates into from-space.
//! 2. Every root, and every field the generational write barrier
//!    remembered, is *evacuated*: scalars and data-segment constants are
//!    returned unchanged; pointers into the stack (values in **finite
//!    regions**) are marked as constants and queued on the **scan buffer**
//!    — traversed in place, never moved; **large objects** are marked and
//!    arrays queued for traversal — traversed but never copied (§3.1); a
//!    heap value in from-space is copied to its destination — for the
//!    paper's collector the region it came from, found through the
//!    **origin pointer** of its page (§2.4) — and a forward pointer (even
//!    word) replaces its tag (odd word).
//! 3. Each region has at most one scan pointer, kept on the **scan stack**
//!    while the region status bit `b` is `SOME`; scanning a region runs
//!    Cheney's loop locally until the scan pointer catches the region's
//!    allocation pointer, following next-page links and skipping page
//!    slack via the sentinel tag.
//! 4. Afterwards the constant marks on finite-region values are removed,
//!    unmarked large objects in from-space are freed and survivors join
//!    their destination region, and from-space is appended to the
//!    free-list in O(1).
//!
//! A collection is one pass for the paper's collector; for the
//! generational one it is a minor pass (nursery into tenured) and, once
//! the tenured generation outgrew its budget, a major pass (tenured into
//! itself). A full or major collection then grows the heap to maintain
//! the heap-to-live ratio (§4), or shrinks it with hysteresis.

use crate::config::Collector;
use crate::heap::{PAGE_HDR, PAGE_NEXT, PAGE_ORIGIN};
use crate::lobj::{LData, Lobjs};
use crate::region::RegionId;
use crate::rt::{Rt, NURSERY, TENURED};
use crate::stats::GcRecord;
use crate::value::{
    is_ptr, ptr, ptr_addr, space_of, Kind, Space, Tag, Word, NONE_ADDR, STACK_BASE,
};

/// A pass's policy: which pages are from-space and where a survivor goes.
/// The two collectors share [`pass`] and its scan loop ([`evacuate_with`],
/// [`cheney_region_with`], [`drain_with`]), differing only here.
trait EvacPolicy: Copy {
    /// Detaches from-space from the regions.
    fn flip(self, rt: &mut Rt) -> FromSpace;
    /// Decides the fate of the heap object on `page`: `Some(r)` copies it
    /// into region `r`; `None` leaves it in place.
    fn heap_dest(self, rt: &Rt, page: u64) -> Option<RegionId>;
    /// Where the surviving large objects of region `i` go; `None` if the
    /// region is not in from-space.
    fn lobj_dest(self, i: usize) -> Option<RegionId>;
}

/// The paper's collector: every region is in from-space, and every value
/// is copied into the region its page originated from (§2.4).
#[derive(Clone, Copy)]
struct FullEvac;

impl EvacPolicy for FullEvac {
    fn flip(self, rt: &mut Rt) -> FromSpace {
        detach(rt, 0..rt.regions.len(), true)
    }

    #[inline]
    fn heap_dest(self, rt: &Rt, page: u64) -> Option<RegionId> {
        Some(RegionId(rt.heap.read(page + PAGE_ORIGIN) as u32))
    }

    fn lobj_dest(self, i: usize) -> Option<RegionId> {
        Some(RegionId(i as u32))
    }
}

/// A generational pass: only objects on pages stamped [`FROM_MARK`] — the
/// pages of region `from` — move, into `to`; everything else stays put.
#[derive(Clone, Copy)]
struct GenEvac {
    from: RegionId,
    to: RegionId,
}

impl EvacPolicy for GenEvac {
    fn flip(self, rt: &mut Rt) -> FromSpace {
        let from = self.from.0 as usize;
        let mut p = rt.regions[from].fp;
        while p != NONE_ADDR {
            rt.heap.write(p + PAGE_ORIGIN, FROM_MARK);
            p = rt.heap.read(p + PAGE_NEXT);
        }
        detach(rt, from..from + 1, self.from == self.to)
    }

    #[inline]
    fn heap_dest(self, rt: &Rt, page: u64) -> Option<RegionId> {
        if rt.heap.read(page + PAGE_ORIGIN) == FROM_MARK {
            Some(self.to)
        } else {
            None
        }
    }

    fn lobj_dest(self, i: usize) -> Option<RegionId> {
        (i == self.from.0 as usize).then_some(self.to)
    }
}

/// Page-origin marker identifying detached from-space pages during a
/// generational pass.
const FROM_MARK: u64 = u64::MAX - 1;

/// The pages a pass evacuates: a chain from `head` to the page holding
/// `tail`, `pages` long, of which the allocator had handed out
/// `used_words`.
struct FromSpace {
    head: u64,
    tail: u64,
    pages: usize,
    used_words: u64,
}

/// Moves the pages of `regions` onto one from-space chain and resets their
/// descriptors: each with a fresh to-space page if `fresh` (the paper
/// gives every region one eagerly), else with none, so that its next
/// allocation takes the page-extension path.
fn detach(rt: &mut Rt, regions: std::ops::Range<usize>, fresh: bool) -> FromSpace {
    let pw = rt.heap.page_words() as u64;
    let mut fs = FromSpace {
        head: NONE_ADDR,
        tail: NONE_ADDR,
        pages: 0,
        used_words: 0,
    };
    for i in regions {
        let d = &rt.regions[i];
        let (fp, e) = (d.fp, d.e);
        fs.pages += d.pages;
        fs.used_words += d.used_words;
        if fp != NONE_ADDR {
            rt.heap.write(e - pw + PAGE_NEXT, fs.head);
            if fs.head == NONE_ADDR {
                fs.tail = e - 1;
            }
            fs.head = fp;
        }
        let (fp, a, e, pages) = if fresh {
            let page = rt.heap.alloc_page(i as u64);
            (page, page + PAGE_HDR, page + pw, 1)
        } else {
            (NONE_ADDR, 0, 0, 0)
        };
        let d = &mut rt.regions[i];
        (d.fp, d.a, d.e, d.pages) = (fp, a, e, pages);
        d.used_words = 0;
        d.status = false;
    }
    fs
}

/// Performs one garbage collection with the runtime's collector.
///
/// `root_slots` are indices into `rt.stack` holding live values (the VM's
/// frame maps); `extra_roots` are additional value words held in VM
/// registers (e.g. an in-flight exception value).
///
/// # Panics
///
/// Panics if the runtime is untagged — pointer tracing requires tags. In
/// a test or debug build, also panics if the collection did not conserve
/// pages ([`Rt::check_page_conservation`]): every collection is checked
/// where it ends, in its one epilogue.
pub fn collect(rt: &mut Rt, root_slots: &[usize], extra_roots: &mut [Word]) {
    assert!(
        rt.config.tagged,
        "garbage collection requires tagged values"
    );
    let t0 = std::time::Instant::now();
    rt.in_gc = true;
    // `None` for the paper's collector; for the generational one, whether
    // the tenured generation outgrew its budget, so that a major pass
    // follows the minor one.
    let major = match rt.config.collector {
        Collector::Generational(pol) => {
            let budget = pol
                .nursery_pages
                .max(rt.stats.last_live_pages * pol.major_growth);
            Some(rt.regions[TENURED.0 as usize].pages >= budget)
        }
        Collector::Off | Collector::Regions => None,
    };
    // Only a collection that leaves every live page in to-space resizes
    // the heap. Its to-space should fill the arena bottom-up so the shrink
    // finds its free pages at the physical tail.
    let resize = major != Some(false);
    if resize && rt.config.heap_shrink_factor.is_some() {
        rt.heap.sort_free_list();
    }
    let full = match major {
        None => Some(pass(rt, root_slots, extra_roots, FullEvac)),
        Some(major) => {
            let minor = GenEvac {
                from: NURSERY,
                to: TENURED,
            };
            pass(rt, root_slots, extra_roots, minor);
            rt.stats.minor_gcs += 1;
            if major {
                let tenured = GenEvac {
                    from: TENURED,
                    to: TENURED,
                };
                pass(rt, root_slots, extra_roots, tenured);
                rt.stats.major_gcs += 1;
            }
            None
        }
    };

    if resize {
        let live_pages: usize = rt.regions.iter().map(|d| d.pages).sum();
        let want_total = ((live_pages as f64) * rt.config.heap_to_live_ratio).ceil() as usize;
        if rt.heap.total_pages() < want_total {
            rt.heap.grow(want_total - rt.heap.total_pages());
            rt.stats.heap_grows += 1;
        } else {
            shrink_with_hysteresis(rt, want_total);
        }
        if let Some(p) = &full {
            let from_space_words = p.fs.pages as u64 * (rt.heap.page_words() as u64 - PAGE_HDR);
            rt.stats.gc_records.push(GcRecord {
                prev_live_pages: rt.stats.last_live_pages,
                pages_requested: rt.stats.pages_requested_since_gc,
                from_pages: p.fs.pages,
                live_pages,
                waste_words: from_space_words - p.fs.used_words,
                from_space_words,
                copied_words: p.copied,
                lobjs_freed: p.lobjs_freed,
            });
        }
        rt.stats.last_live_pages = live_pages;
    }
    rt.stats.pages_requested_since_gc = 0;
    rt.stats.gc_count += 1;
    rt.stats.record_pause(t0.elapsed().as_nanos() as u64);
    #[cfg(any(test, debug_assertions))]
    if let Err(e) = rt.check_page_conservation() {
        panic!("after collection {}: {e}", rt.stats.gc_count);
    }
    rt.gc_needed = false;
    rt.in_gc = false;
    rt.observe_mem();
    if full.is_some() && rt.profiler.enabled() {
        let regions = rt.regions.clone();
        rt.profiler.sample(&regions);
    }
}

/// What a pass reports for the statistics.
struct Pass {
    fs: FromSpace,
    copied: u64,
    lobjs_freed: usize,
}

/// One pass of the collection sequence under policy `p`.
fn pass<P: EvacPolicy>(rt: &mut Rt, root_slots: &[usize], extra_roots: &mut [Word], p: P) -> Pass {
    let fs = p.flip(rt);
    let mut st = GcState::default();

    // ---- evacuate the root set and the remembered fields.
    for &slot in root_slots {
        let v = rt.stack[slot];
        rt.stack[slot] = evacuate_with(rt, &mut st, v, p);
    }
    for v in extra_roots.iter_mut() {
        *v = evacuate_with(rt, &mut st, *v, p);
    }
    let remembered = std::mem::take(&mut rt.remembered);
    for &addr in &remembered {
        let v = rt.read_addr(addr);
        let nv = evacuate_with(rt, &mut st, v, p);
        rt.write_addr(addr, nv);
    }
    rt.remembered = remembered;
    rt.remembered.clear();
    rt.remembered_set.clear();

    // ---- collect_regions (paper §2.5).
    drain_with(rt, &mut st, p);

    // ---- unmark finite-region values (remove constant marks, §2.5).
    unmark_scan_buffer(rt, &st.scan_buffer);

    let lobjs_freed = sweep_lobjs(rt, p);

    // ---- release from-space in O(1).
    rt.heap.free_run(fs.head, fs.tail, fs.pages);
    rt.stats.gc_copied_words += st.copied;
    Pass {
        fs,
        copied: st.copied,
        lobjs_freed,
    }
}

/// Removes the constant marks left on finite-region (stack) boxes by the
/// scan (§2.5).
fn unmark_scan_buffer(rt: &mut Rt, scan_buffer: &[usize]) {
    for &slot in scan_buffer {
        let mut tag = Tag::decode(rt.stack[slot]);
        tag.mark = false;
        rt.stack[slot] = tag.encode();
    }
}

/// Sweeps the large objects of from-space: frees the unmarked ones and
/// unmarks the survivors, which join their destination region. Those of a
/// region outside from-space were at most visited, and are unmarked.
/// Returns the number freed.
fn sweep_lobjs<P: EvacPolicy>(rt: &mut Rt, p: P) -> usize {
    let mut lobjs_freed = 0usize;
    for i in 0..rt.regions.len() {
        let Some(dest) = p.lobj_dest(i) else {
            let mut head = rt.regions[i].lobjs;
            while head != 0 {
                let o = rt.lobjs.get_mut(head - 1);
                o.marked = false;
                head = o.next;
            }
            continue;
        };
        let mut head = std::mem::take(&mut rt.regions[i].lobjs);
        while head != 0 {
            let id = head - 1;
            let o = rt.lobjs.get_mut(id);
            head = o.next;
            if o.marked {
                o.marked = false;
                let d = &mut rt.regions[dest.0 as usize];
                o.next = d.lobjs;
                d.lobjs = id + 1;
            } else {
                rt.lobjs.free(id);
                lobjs_freed += 1;
            }
        }
    }
    lobjs_freed
}

/// Absolute minimum width of the shrink hysteresis band, in pages.
const MIN_SHRINK_BAND: usize = 2;

/// Minimum width of the shrink hysteresis band: one page of live-set
/// noise is amplified to `heap_to_live_ratio` pages of growth-target
/// movement, so any narrower band would let a workload oscillating by a
/// single live page release and re-grow the arena tail on every
/// collection. A factor close to 1.0 would otherwise make `cap == floor`
/// (no band at all).
fn min_shrink_band(rt: &Rt) -> usize {
    (rt.config.heap_to_live_ratio.ceil() as usize).max(MIN_SHRINK_BAND)
}

/// Asymmetric heap sizing (growth is immediate, above): once the arena
/// exceeds `heap_shrink_factor` times the growth target, free tail pages
/// are released back down to the target. The hysteresis band between the
/// two keeps a workload that oscillates around one size from thrashing
/// `grow`/`release_tail` on every collection; the band is never narrower
/// than [`min_shrink_band`] pages regardless of the factor.
fn shrink_with_hysteresis(rt: &mut Rt, want_total: usize) {
    let Some(factor) = rt.config.heap_shrink_factor else {
        return;
    };
    let floor = want_total.max(rt.config.initial_pages);
    let cap = (((floor as f64) * factor).ceil() as usize).max(floor + min_shrink_band(rt));
    if rt.heap.total_pages() > cap {
        let released = rt.heap.release_tail(rt.heap.total_pages() - floor);
        if released > 0 {
            rt.stats.heap_shrinks += 1;
            rt.stats.pages_released += released as u64;
        }
    }
}

/// Shared scan-loop state (paper §2.5) of one pass.
#[derive(Debug, Default)]
struct GcState {
    /// Scan pointers of partially-scanned regions (at most one per region).
    scan_stack: Vec<u64>,
    /// Stack slots of finite-region boxes: unscanned tail + all entries for
    /// the final unmarking pass.
    scan_buffer: Vec<usize>,
    sb_next: usize,
    /// Large arrays queued for traversal.
    lobj_queue: Vec<u32>,
    lq_next: usize,
    copied: u64,
}

/// Evacuates one value (paper §2.5 `evacuate`): returns the value to store
/// in place of `v`. The [`EvacPolicy`] decides which heap objects move and
/// where to; everything else (scalars, constants, finite-region boxes,
/// large objects) is handled identically in both collectors.
fn evacuate_with<P: EvacPolicy>(rt: &mut Rt, st: &mut GcState, v: Word, p: P) -> Word {
    if !is_ptr(v) {
        return v;
    }
    let addr = ptr_addr(v);
    match space_of(addr) {
        // Constants are not traversed, updated, or copied.
        Space::Data => v,
        // Values in finite regions are traversed in place: mark as
        // constant, queue on the scan buffer (traversal is postponed).
        Space::Stack => {
            let slot = (addr - STACK_BASE) as usize;
            let mut tag = Tag::decode(rt.stack[slot]);
            if !tag.mark {
                tag.mark = true;
                rt.stack[slot] = tag.encode();
                st.scan_buffer.push(slot);
            }
            v
        }
        // Large objects are traversed (arrays) but never copied.
        Space::Large => {
            let id = Lobjs::id_of(addr);
            let o = rt.lobjs.get_mut(id);
            if !o.marked {
                o.marked = true;
                if matches!(o.data, LData::Arr(_)) {
                    st.lobj_queue.push(id);
                }
            }
            v
        }
        Space::Heap => {
            let page = rt.heap.page_base(addr);
            let Some(r) = p.heap_dest(rt, page) else {
                return v; // policy says: stays put
            };
            let w = rt.heap.read(addr);
            if is_ptr(w) {
                // Forward pointer: already evacuated.
                return w;
            }
            let tag = Tag::decode(w);
            debug_assert!(tag.kind != Kind::Sentinel, "evacuating page slack");
            let n = tag.box_words();
            let new_addr = rt.bump(r, n);
            rt.heap
                .words
                .copy_within(addr as usize..(addr + n) as usize, new_addr as usize);
            rt.heap.write(addr, ptr(new_addr));
            st.copied += n;
            let d = &mut rt.regions[r.0 as usize];
            if !d.status {
                d.status = true;
                st.scan_stack.push(new_addr);
            }
            ptr(new_addr)
        }
    }
}

/// Scans a finite-region box in place (fields updated, value not moved).
fn scan_stack_box_with<P: EvacPolicy>(rt: &mut Rt, st: &mut GcState, slot: usize, p: P) {
    let tag = Tag::decode(rt.stack[slot]);
    if !tag.scannable() {
        return;
    }
    for i in 0..tag.size as usize {
        let v = rt.stack[slot + 1 + i];
        rt.stack[slot + 1 + i] = evacuate_with(rt, st, v, p);
    }
}

/// Scans the `size` fields of the to-space box at `s`. Scalars are passed
/// over without a call or a write-back; the fields cannot be held as a
/// slice across an evacuation, which may grow the arena.
#[inline]
fn scan_heap_box_with<P: EvacPolicy>(rt: &mut Rt, st: &mut GcState, s: u64, size: u32, p: P) {
    for at in s + 1..s + 1 + size as u64 {
        let v = rt.heap.read(at);
        if is_ptr(v) {
            let nv = evacuate_with(rt, st, v, p);
            rt.heap.write(at, nv);
        }
    }
}

/// Scans a large array in place.
fn scan_large_array_with<P: EvacPolicy>(rt: &mut Rt, st: &mut GcState, id: u32, p: P) {
    let len = match &rt.lobjs.get(id).data {
        LData::Arr(a) => a.len(),
        LData::Str(_) => return,
    };
    for i in 0..len {
        let v = match &rt.lobjs.get(id).data {
            LData::Arr(a) => a[i],
            LData::Str(_) => unreachable!(),
        };
        let nv = evacuate_with(rt, st, v, p);
        match &mut rt.lobjs.get_mut(id).data {
            LData::Arr(a) => a[i] = nv,
            LData::Str(_) => unreachable!(),
        }
    }
}

/// Cheney's loop over a single region (paper §2.3 `cheney`): scans from
/// `s` until the scan pointer reaches the region's allocation pointer,
/// hopping page boundaries and skipping slack sentinels. The region is
/// identified through the origin pointer of the scan page — for the
/// generational policy that is always the promotion target, whose pages
/// are stamped with its id.
fn cheney_region_with<P: EvacPolicy>(rt: &mut Rt, st: &mut GcState, mut s: u64, p: P) {
    let pw = rt.heap.page_words() as u64;
    let page = rt.heap.page_base(s);
    let r = RegionId(rt.heap.read(page + PAGE_ORIGIN) as u32);
    // The page end is maintained incrementally across hops instead of
    // re-deriving the page base from `s` for every object scanned.
    let mut page_end = page + pw;
    loop {
        if s == rt.regions[r.0 as usize].a {
            break;
        }
        // At the exact page end, move to the next page in the chain.
        if s == page_end {
            let next = rt.heap.read(page_end - pw + PAGE_NEXT);
            debug_assert_ne!(next, NONE_ADDR, "scan ran past the region");
            s = next + PAGE_HDR;
            page_end = next + pw;
            continue;
        }
        let w = rt.heap.read(s);
        let tag = Tag::decode(w);
        if tag.kind == Kind::Sentinel {
            // Page slack: skip to the next page.
            let next = rt.heap.read(page_end - pw + PAGE_NEXT);
            debug_assert_ne!(next, NONE_ADDR, "sentinel on the last page");
            s = next + PAGE_HDR;
            page_end = next + pw;
            continue;
        }
        if tag.scannable() {
            scan_heap_box_with(rt, st, s, tag.size, p);
        }
        s += tag.box_words();
    }
    rt.regions[r.0 as usize].status = false;
}

/// `collect_regions` (paper §2.5): alternate between the scan buffer
/// (finite regions and large objects, traversed in place) and the scan
/// stack (one region at a time) until both are exhausted.
fn drain_with<P: EvacPolicy>(rt: &mut Rt, st: &mut GcState, p: P) {
    loop {
        let mut progressed = false;
        while st.sb_next < st.scan_buffer.len() {
            progressed = true;
            let slot = st.scan_buffer[st.sb_next];
            st.sb_next += 1;
            scan_stack_box_with(rt, st, slot, p);
        }
        while st.lq_next < st.lobj_queue.len() {
            progressed = true;
            let id = st.lobj_queue[st.lq_next];
            st.lq_next += 1;
            scan_large_array_with(rt, st, id, p);
        }
        if let Some(s) = st.scan_stack.pop() {
            progressed = true;
            cheney_region_with(rt, st, s, p);
        }
        if !progressed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GenPolicy, RtConfig};

    fn rt() -> Rt {
        Rt::new(RtConfig {
            initial_pages: 16,
            ..RtConfig::rgt()
        })
    }

    /// A generational collector whose every collection is major (a tenured
    /// budget of no pages) or minor (a budget of `usize::MAX` pages).
    fn generational(major: bool) -> Collector {
        let nursery_pages = if major { 0 } else { usize::MAX };
        Collector::Generational(GenPolicy {
            nursery_pages,
            major_growth: 0,
        })
    }

    fn gen_rt(major: bool) -> Rt {
        Rt::new(RtConfig {
            collector: generational(major),
            ..rt().config
        })
    }

    /// Builds a list of `n` cons cells (tag + head + tail) in region `r`,
    /// returning the head pointer. Tail of the last cell is scalar 1
    /// ("nil").
    fn build_list(rt: &mut Rt, r: RegionId, n: i64) -> Word {
        let mut tail = rt.tag_int(0); // nil as scalar
        for i in (1..=n).rev() {
            let head = rt.tag_int(i);
            tail = rt.alloc_boxed(r, Tag::con(1, 2), &[head, tail]);
        }
        tail
    }

    fn list_sum(rt: &Rt, mut v: Word) -> i64 {
        let mut sum = 0;
        while is_ptr(v) {
            sum += rt.untag_int(rt.field(v, 0));
            v = rt.field(v, 1);
        }
        sum
    }

    #[test]
    fn collector_shrinks_an_oversized_heap_with_hysteresis() {
        let mut rt = rt();
        let r = rt.letregion(0);
        // Blow the heap up with garbage, then drop it all.
        for _ in 0..200 {
            let _ = build_list(&mut rt, r, 200);
        }
        let live = build_list(&mut rt, r, 5);
        rt.stack.push(live);
        let root = rt.stack.len() - 1;
        let before = rt.heap.total_pages();
        collect(&mut rt, &[root], &mut []);
        let live_pages: usize = rt.regions.iter().map(|d| d.pages).sum();
        let want = ((live_pages as f64) * rt.config.heap_to_live_ratio).ceil() as usize;
        let floor = want.max(rt.config.initial_pages);
        let cap = ((floor as f64) * rt.config.heap_shrink_factor.unwrap()).ceil() as usize;
        assert!(before > cap, "setup must overshoot the hysteresis cap");
        // Shrink fired, but only the free tail is physically releasable —
        // this collection's to-space came from whatever pages were free at
        // the flip, which may sit high in the arena.
        let after_first = rt.heap.total_pages();
        assert!(after_first < before, "first collection must release pages");
        assert_eq!(list_sum(&rt, rt.stack[root]), 15);

        // The next collection re-sorts the (now huge) free-list, places
        // to-space at the bottom of the arena, and the release reaches the
        // growth target exactly.
        collect(&mut rt, &[root], &mut []);
        assert_eq!(rt.heap.total_pages(), floor, "shrink-to-target");

        // Within the hysteresis band nothing more is released.
        collect(&mut rt, &[root], &mut []);
        assert!(rt.heap.total_pages() >= floor, "no thrash inside the band");
    }

    #[test]
    fn tight_shrink_factor_does_not_thrash() {
        // factor = 1.0 collapses cap onto floor, so without the minimum
        // hysteresis band a live set oscillating by one page would
        // release the arena tail on every down-cycle and re-grow it on
        // every up-cycle. 1300 vs 1385 cons cells is exactly one page of
        // live-set movement (≈ 3 words per cell, ≈ 84 cells per page).
        let mut rt = Rt::new(RtConfig {
            initial_pages: 16,
            heap_shrink_factor: Some(1.0),
            ..RtConfig::rgt()
        });
        let r = rt.letregion(0);
        let live = build_list(&mut rt, r, 1385);
        rt.stack.push(live);
        let root = rt.stack.len() - 1;
        // Converge onto the target.
        collect(&mut rt, &[root], &mut []);
        collect(&mut rt, &[root], &mut []);
        let (grows, shrinks) = (rt.stats.heap_grows, rt.stats.heap_shrinks);
        for i in 0..10 {
            let n = if i % 2 == 0 { 1300 } else { 1385 };
            let live = build_list(&mut rt, r, n);
            rt.stack[root] = live;
            collect(&mut rt, &[root], &mut []);
        }
        assert_eq!(
            (rt.stats.heap_grows, rt.stats.heap_shrinks),
            (grows, shrinks),
            "one page of live-set noise thrashed the arena size"
        );
    }

    #[test]
    fn generational_major_shrinks_oversized_heap() {
        // The major path must sort the free-list before its flips, or the
        // tenured survivors land mid-arena and `release_tail` stops early.
        let mut rt = Rt::new(RtConfig {
            initial_pages: 16,
            heap_shrink_factor: Some(1.0),
            collector: generational(true),
            ..RtConfig::rgt()
        });
        let young = rt.letregion(0);
        let _old = rt.letregion(0);
        for _ in 0..200 {
            let _ = build_list(&mut rt, young, 200);
        }
        let live = build_list(&mut rt, young, 5);
        rt.stack.push(live);
        let root = rt.stack.len() - 1;
        let before = rt.heap.total_pages();
        collect(&mut rt, &[root], &mut []);
        collect(&mut rt, &[root], &mut []);
        let live_pages: usize = rt.regions.iter().map(|d| d.pages).sum();
        let want = ((live_pages as f64) * rt.config.heap_to_live_ratio).ceil() as usize;
        let floor = want.max(rt.config.initial_pages);
        assert!(before > floor + MIN_SHRINK_BAND, "setup must overshoot");
        assert!(
            rt.heap.total_pages() <= floor + MIN_SHRINK_BAND,
            "major collections must release the garbage tail: {} pages left, floor {floor}",
            rt.heap.total_pages()
        );
        assert_eq!(list_sum(&rt, rt.stack[root]), 15);
    }

    #[test]
    fn collect_preserves_reachable_list() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let list = build_list(&mut rt, r, 500);
        rt.stack.push(list);
        let root = rt.stack.len() - 1;
        collect(&mut rt, &[root], &mut []);
        let list2 = rt.stack[root];
        assert_ne!(list, list2, "list must have been copied");
        assert_eq!(list_sum(&rt, list2), 500 * 501 / 2);
    }

    #[test]
    fn collect_reclaims_garbage() {
        let mut rt = rt();
        let r = rt.letregion(0);
        // Allocate a lot of garbage plus one live list.
        for _ in 0..50 {
            let _ = build_list(&mut rt, r, 100);
        }
        let live = build_list(&mut rt, r, 10);
        rt.stack.push(live);
        let pages_before = rt.regions[0].pages;
        let root = rt.stack.len() - 1;
        collect(&mut rt, &[root], &mut []);
        let pages_after = rt.regions[0].pages;
        assert!(
            pages_after < pages_before / 4,
            "garbage not reclaimed: {pages_before} -> {pages_after}"
        );
        assert_eq!(list_sum(&rt, rt.stack[0]), 55);
    }

    #[test]
    fn values_stay_in_their_region() {
        let mut rt = rt();
        let r1 = rt.letregion(1);
        let r2 = rt.letregion(2);
        let a = rt.alloc_record(r1, &[rt.tag_int(1)]);
        let b = rt.alloc_record(r2, &[a]);
        rt.stack.push(b);
        collect(&mut rt, &[0], &mut []);
        let b2 = rt.stack[0];
        let a2 = rt.field(b2, 0);
        // Page origins must still point at the original region descriptors
        // (region ids 0 and 1).
        let pa = rt.heap.page_base(ptr_addr(a2));
        let pb = rt.heap.page_base(ptr_addr(b2));
        assert_eq!(rt.heap.read(pa + PAGE_ORIGIN), u64::from(r1.0));
        assert_eq!(rt.heap.read(pb + PAGE_ORIGIN), u64::from(r2.0));
        // Popping r2 then r1 must leave the structure intact in between.
        assert_eq!(rt.untag_int(rt.field(a2, 0)), 1);
        let _ = (r1, r2);
    }

    #[test]
    fn sharing_is_preserved() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let shared = rt.alloc_record(r, &[rt.tag_int(42)]);
        let p1 = rt.alloc_record(r, &[shared]);
        let p2 = rt.alloc_record(r, &[shared]);
        rt.stack.push(p1);
        rt.stack.push(p2);
        collect(&mut rt, &[0, 1], &mut []);
        let s1 = rt.field(rt.stack[0], 0);
        let s2 = rt.field(rt.stack[1], 0);
        assert_eq!(s1, s2, "shared value copied once");
        assert_eq!(rt.untag_int(rt.field(s1, 0)), 42);
    }

    #[test]
    fn cycles_via_ref_cells_terminate() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let cell = rt.alloc_boxed(r, Tag::reference(), &[rt.tag_int(0)]);
        // Tie the knot: the cell points to a record that points back.
        let rec = rt.alloc_record(r, &[cell]);
        rt.set_field(cell, 0, rec);
        rt.stack.push(cell);
        collect(&mut rt, &[0], &mut []);
        let cell2 = rt.stack[0];
        let rec2 = rt.field(cell2, 0);
        assert_eq!(rt.field(rec2, 0), cell2, "cycle preserved");
    }

    #[test]
    fn finite_region_values_marked_and_unmarked() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let inner = rt.alloc_record(r, &[rt.tag_int(7)]);
        // A finite-region box on the stack: tag + one field.
        let tag = Tag::record(1);
        rt.stack.push(tag.encode());
        rt.stack.push(inner);
        let box_ptr = ptr(STACK_BASE);
        rt.stack.push(box_ptr); // a root referring to the finite box
        collect(&mut rt, &[2], &mut []);
        // Not moved:
        assert_eq!(rt.stack[2], box_ptr);
        // Mark removed:
        assert!(!Tag::decode(rt.stack[0]).mark);
        // Inner heap value evacuated and the field updated:
        let inner2 = rt.stack[1];
        assert_ne!(inner2, inner);
        assert_eq!(rt.untag_int(rt.field(inner2, 0)), 7);
    }

    #[test]
    fn large_objects_traversed_not_copied_and_swept() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let elem = rt.alloc_record(r, &[rt.tag_int(5)]);
        let arr = rt.alloc_array(r, 3, rt.tag_int(0));
        let a0 = rt.arr_elem_addr(arr, 0);
        rt.write_addr(a0, elem);
        let dead = rt.alloc_array(r, 100, rt.tag_int(0));
        let _ = dead;
        rt.stack.push(arr);
        assert_eq!(rt.lobjs.live_count(), 2);
        collect(&mut rt, &[0], &mut []);
        assert_eq!(rt.stack[0], arr, "large object not moved");
        assert_eq!(rt.lobjs.live_count(), 1, "dead array swept");
        let elem2 = rt.read_addr(rt.arr_elem_addr(arr, 0));
        assert_eq!(rt.untag_int(rt.field(elem2, 0)), 5);
        assert_eq!(rt.stats.gc_records[0].lobjs_freed, 1);
        assert!(
            !rt.lobjs.get(Lobjs::id_of(ptr_addr(arr))).marked,
            "a surviving large object must be unmarked for the next cycle"
        );
    }

    #[test]
    fn extra_roots_are_evacuated_and_updated() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let live = build_list(&mut rt, r, 100);
        let mut extra = [live];
        collect(&mut rt, &[], &mut extra);
        assert_ne!(extra[0], live, "the register must see the to-space copy");
        assert_eq!(list_sum(&rt, extra[0]), 100 * 101 / 2);
    }

    #[test]
    fn constants_untouched() {
        let mut rt = rt();
        let _r = rt.letregion(0);
        let c = rt.intern_const_str("const");
        rt.stack.push(c);
        collect(&mut rt, &[0], &mut []);
        assert_eq!(rt.stack[0], c);
        assert_eq!(rt.str_val(c), "const");
    }

    #[test]
    fn multi_region_breadth_first_with_cross_pointers() {
        let mut rt = rt();
        let r1 = rt.letregion(1);
        let r2 = rt.letregion(2);
        // Build an alternating chain across regions.
        let mut v = rt.tag_int(0);
        for i in 0..200 {
            let r = if i % 2 == 0 { r1 } else { r2 };
            v = rt.alloc_boxed(r, Tag::con(1, 2), &[rt.tag_int(1), v]);
        }
        rt.stack.push(v);
        collect(&mut rt, &[0], &mut []);
        assert_eq!(list_sum(&rt, rt.stack[0]), 200);
    }

    #[test]
    fn gc_accounting_records_are_consistent() {
        let mut rt = rt();
        let r = rt.letregion(0);
        for _ in 0..20 {
            let _ = build_list(&mut rt, r, 200);
        }
        let live = build_list(&mut rt, r, 50);
        rt.stack.push(live);
        collect(&mut rt, &[0], &mut []);
        let rec = rt.stats.gc_records[0];
        assert!(rec.from_pages > rec.live_pages);
        assert!(rec.ri_fraction().is_some());
        let ri = rec.ri_fraction().unwrap();
        // Everything was reclaimed by GC here (no region was popped):
        assert!(ri < 0.2, "ri = {ri}");
        // Heap-to-live ratio maintained.
        assert!(
            rt.heap.total_pages() as f64 >= rt.config.heap_to_live_ratio * rec.live_pages as f64
        );
    }

    #[test]
    fn generational_minor_promotes_survivors() {
        let mut rt = gen_rt(false);
        let young = rt.letregion(0);
        let old = rt.letregion(1);
        let live = build_list(&mut rt, young, 50);
        for _ in 0..20 {
            let _ = build_list(&mut rt, young, 100);
        }
        rt.stack.push(live);
        collect(&mut rt, &[0], &mut []);
        // Survivors moved to the old generation; the nursery is empty.
        assert_eq!(rt.regions[young.0 as usize].used_words, 0);
        assert!(rt.regions[old.0 as usize].used_words > 0);
        assert_eq!(list_sum(&rt, rt.stack[0]), 50 * 51 / 2);
        assert_eq!(rt.stats.minor_gcs, 1);
    }

    #[test]
    fn generational_remembered_set_rescues_old_to_young() {
        let mut rt = gen_rt(false);
        let young = rt.letregion(0);
        let old = rt.letregion(1);
        // An old cell pointing at young data, reachable ONLY through it.
        let cell = rt.alloc_boxed(old, Tag::reference(), &[rt.tag_int(0)]);
        collect(&mut rt, &[], &mut []);
        let young_list = build_list(&mut rt, young, 10);
        let field_addr = kit_field_addr(&rt, cell);
        rt.update(field_addr, young_list);
        assert_eq!(rt.remembered_len(), 1);
        rt.stack.push(cell);
        rt.config.collector = generational(true);
        collect(&mut rt, &[0], &mut []);
        let v = rt.field(rt.stack[0], 0);
        assert_eq!(
            list_sum(&rt, v),
            55,
            "young data reached only via the barrier"
        );
    }

    fn kit_field_addr(rt: &Rt, v: Word) -> u64 {
        ptr_addr(v) + rt.hdr_words()
    }

    #[test]
    fn generational_major_compacts_tenured() {
        let mut rt = gen_rt(false);
        let young = rt.letregion(0);
        let old = rt.letregion(1);
        // Promote a lot of garbage into tenured, then major-collect.
        for _ in 0..20 {
            let _ = build_list(&mut rt, young, 200);
            collect(&mut rt, &[], &mut []);
        }
        let live = build_list(&mut rt, young, 10);
        rt.stack.push(live);
        rt.config.collector = generational(true);
        collect(&mut rt, &[0], &mut []);
        assert_eq!(rt.stats.major_gcs, 1);
        assert!(
            rt.regions[old.0 as usize].pages <= 2,
            "tenured should compact: {} pages",
            rt.regions[old.0 as usize].pages
        );
        assert_eq!(list_sum(&rt, rt.stack[0]), 55);
    }

    #[test]
    fn empty_roots_collects_everything() {
        let mut rt = rt();
        let r = rt.letregion(0);
        for _ in 0..10 {
            let _ = build_list(&mut rt, r, 500);
        }
        collect(&mut rt, &[], &mut []);
        assert_eq!(rt.regions[0].pages, 1);
        assert_eq!(rt.regions[0].used_words, 0);
    }

    #[test]
    fn second_collection_after_mutation() {
        let mut rt = rt();
        let r = rt.letregion(0);
        let l = build_list(&mut rt, r, 100);
        rt.stack.push(l);
        collect(&mut rt, &[0], &mut []);
        // Mutate: extend the list from the survivor.
        let head = rt.stack[0];
        let longer = rt.alloc_boxed(r, Tag::con(1, 2), &[rt.tag_int(1000), head]);
        rt.stack[0] = longer;
        collect(&mut rt, &[0], &mut []);
        assert_eq!(list_sum(&rt, rt.stack[0]), 100 * 101 / 2 + 1000);
    }

    #[test]
    fn evacuation_into_region_being_scanned() {
        // A value in r1 pointing to r2 pointing back to r1 exercises
        // re-activation of a drained region.
        let mut rt = rt();
        let r1 = rt.letregion(1);
        let r2 = rt.letregion(2);
        let deep1 = rt.alloc_record(r1, &[rt.tag_int(11)]);
        let mid = rt.alloc_record(r2, &[deep1]);
        let top = rt.alloc_record(r1, &[mid]);
        rt.stack.push(top);
        collect(&mut rt, &[0], &mut []);
        let top2 = rt.stack[0];
        let mid2 = rt.field(top2, 0);
        let deep2 = rt.field(mid2, 0);
        assert_eq!(rt.untag_int(rt.field(deep2, 0)), 11);
        let _ = (r1, r2);
    }
}
