//! Incremental (sliced) Cheney-for-regions: bounded-pause collection.
//!
//! The stop-the-world collector ([`crate::gc::collect`]) scans the whole
//! live set in one pause. This module splits a collection into **slices**
//! whose scan work is bounded by `RtConfig::gc_slice_budget_words`: each
//! slice runs at a GC safe point, scans at most the budget (overshooting
//! by at most one object), and returns control to the mutator with the
//! collection still in progress. `Rt::gc_needed` stays `true` until the
//! final slice, so every safe point re-enters the collector until it
//! finishes.
//!
//! # Scheme (replicating collection)
//!
//! The flip ([`crate::gc::flip_all`]) detaches every region's pages into
//! the global from-space, whose page descriptors are stamped with
//! [`FROM_BIT`] in their origin word. Between slices the mutator keeps
//! running and may hold a **mix of from-space and to-space pointers** to
//! the same object: forwarding only clobbers the *header* word, so the
//! fields of a from-space original stay readable, and immutable reads
//! (record fields, real payloads) need no barrier. The spots where the
//! mix is observable are patched by two mutator barriers, both centralised
//! in the VM:
//!
//! * [`Rt::canon`] — follows the forward pointer to the canonical copy.
//!   Needed wherever the *header* is read (constructor-tag dispatch,
//!   exception ids) or pointer *identity* is compared (`RefEq`), and on
//!   every `ref` access so reads and writes agree on one copy.
//! * [`Rt::gc_write_barrier`] — eagerly evacuates a value before it is
//!   stored into a `ref` cell or array slot. A store into an
//!   already-scanned object would otherwise hide a from-space pointer
//!   from the collector; evacuating the value first means only canonical
//!   pointers are ever stored, and the copied object itself is scanned
//!   later via its region cursor. Cost per mutation: at most one object
//!   copy.
//!
//! # Resume state
//!
//! Instead of the scan stack + status bits of the stop-the-world drain,
//! the sliced drain keeps one **cursor per region**: the address up to
//! which the region's to-space has been scanned. A region is clean when
//! its cursor has caught the allocation pointer `a`. Because the mutator
//! allocates into to-space *behind* `a`, new objects (which may hold
//! from-space pointers in their fields) are picked up by the same cursor
//! scan — allocation during a sliced collection is "grey", not black, and
//! needs no allocation barrier. The drain loops over scan buffer, large
//! object queue and region cursors until a full pass makes no progress.
//!
//! Region pops between slices truncate the cursor vector (the hook in
//! [`Rt::endregion`]); region pushes lazily extend it at the next slice.
//! A pointer into from-space whose stamped origin id no longer names a
//! live region (the region was popped mid-collection — only dead values
//! can carry such pointers, by gc-safety of region inference) is left in
//! place. Queued large-object ids are dropped if the object was freed by
//! an `endregion` between slices.
//!
//! Stack boxes (finite regions) complicate resume: frames pop between
//! slices, so a queued scan-buffer slot may no longer hold the box it was
//! queued for. The VM reports every stack truncation through
//! [`Rt::note_stack_trunc`]; the **watermark** tracks the low-water mark
//! of the stack since the last slice, and the next slice prunes buffer
//! entries at or above it (their boxes are dead — live pointers never
//! dangle — or were re-created unmarked and will be re-queued via the
//! roots). Boxes created *above* the watermark and reached only through
//! the write barrier are scanned and unmarked eagerly instead of queued,
//! because a queued entry would be wrongly pruned.
//!
//! The root set is re-evacuated at the start of every slice (roots are
//! not covered by any barrier); only the drain is budgeted. A collection
//! that somehow fails to converge within [`MAX_SLICES`] slices finishes
//! with one unbudgeted slice, as does a program exiting with a collection
//! still in flight ([`finish_sliced`]).

use crate::gc::{
    evacuate_with, finish_collection, flip_all, scan_heap_box_with, scan_stack_box_with,
    sweep_lobjs_all, EvacPolicy, FlipInfo, GcState,
};
use crate::heap::{PAGE_HDR, PAGE_NEXT, PAGE_ORIGIN};
use crate::lobj::LData;
use crate::region::RegionId;
use crate::rt::Rt;
use crate::value::{is_ptr, ptr_addr, space_of, Kind, Space, Tag, Word, NONE_ADDR};

/// Origin-word bit marking a page as detached from-space of the current
/// sliced collection. Region ids fit in 32 bits, so the bit is
/// unambiguous; it is cleared before the pages return to the free-list.
pub(crate) const FROM_BIT: u64 = 1 << 32;

/// Safety valve: a collection that has not converged after this many
/// slices finishes with one unbudgeted slice.
const MAX_SLICES: u64 = 10_000;

/// State of an in-progress sliced collection, carried across slices in
/// [`Rt::sliced`].
#[derive(Debug)]
pub struct SlicedGc {
    flip: FlipInfo,
    st: GcState,
    /// Per-region scan cursor; `NONE_ADDR` = not started (lazily
    /// initialised to `fp + PAGE_HDR`). Clean iff equal to the region's
    /// allocation pointer.
    cursors: Vec<u64>,
    /// Low-water mark of `rt.stack.len()` since the last slice; buffer
    /// entries at or above it are pruned at the next slice start.
    watermark: usize,
    /// Element index to resume a large array whose scan a budget cut.
    arr_resume: Option<(u32, usize)>,
    /// Slices run so far in this collection.
    slices: u64,
}

impl SlicedGc {
    /// Region-pop hook: drop cursors of popped regions.
    pub(crate) fn on_region_pop(&mut self, nregions: usize) {
        self.cursors.truncate(nregions);
    }

    /// Stack-truncation hook body (see [`Rt::note_stack_trunc`]).
    pub(crate) fn note_stack_trunc(&mut self, low: usize) {
        if low < self.watermark {
            self.watermark = low;
        }
    }
}

/// Sliced policy: only objects on [`FROM_BIT`]-stamped pages move, back
/// into their origin region — unless that region was popped mid-
/// collection, in which case the (necessarily dead) value stays put.
#[derive(Clone, Copy)]
struct SlicedEvac;

impl EvacPolicy for SlicedEvac {
    #[inline]
    fn heap_dest(self, rt: &Rt, page: u64) -> Option<RegionId> {
        let origin = rt.heap.read(page + PAGE_ORIGIN);
        if origin & FROM_BIT == 0 {
            return None;
        }
        let rid = (origin & (FROM_BIT - 1)) as u32;
        if (rid as usize) < rt.regions.len() {
            Some(RegionId(rid))
        } else {
            None
        }
    }
}

impl Rt {
    /// `true` while a sliced collection is in progress.
    #[inline]
    pub fn sliced_active(&self) -> bool {
        self.sliced.is_some()
    }

    /// Canonicalises a value: while a sliced collection is in progress, a
    /// heap pointer whose object has been forwarded is replaced by the
    /// to-space pointer. Identity otherwise.
    #[inline]
    pub fn canon(&self, v: Word) -> Word {
        if self.sliced.is_none() || !is_ptr(v) {
            return v;
        }
        let addr = ptr_addr(v);
        if space_of(addr) != Space::Heap {
            return v;
        }
        let w = self.heap.read(addr);
        if is_ptr(w) {
            w
        } else {
            v
        }
    }

    /// Write barrier of the sliced collector: evacuates `v` before it is
    /// stored into a mutable cell, so only canonical pointers land in
    /// objects the collector may already have scanned. Identity when no
    /// sliced collection is in progress.
    pub fn gc_write_barrier(&mut self, v: Word) -> Word {
        if self.sliced.is_none() || !is_ptr(v) {
            return v;
        }
        let mut sl = self.sliced.take().expect("checked above");
        // A to-space page chained by the copy is not a mutator request.
        self.in_gc = true;
        let start = sl.st.scan_buffer.len().max(sl.st.sb_next);
        let nv = evacuate_with(self, &mut sl.st, v, SlicedEvac);
        // Stack boxes above the watermark were created after the last
        // slice; a queued entry for them would be pruned at the next
        // slice start, leaving the box marked but never scanned. Scan and
        // unmark them now instead (they re-queue normally if reached via
        // the roots of a later slice).
        let mut i = start;
        while i < sl.st.scan_buffer.len() {
            let slot = sl.st.scan_buffer[i];
            if slot >= sl.watermark {
                sl.st.scan_buffer.swap_remove(i);
                scan_stack_box_with(self, &mut sl.st, slot, SlicedEvac);
                let mut tag = Tag::decode(self.stack[slot]);
                tag.mark = false;
                self.stack[slot] = tag.encode();
            } else {
                i += 1;
            }
        }
        self.in_gc = false;
        self.sliced = Some(sl);
        nv
    }

    /// Stack-truncation hook: the VM calls this with the new (lower)
    /// stack length wherever frames are torn down, so the next slice can
    /// prune scan-buffer entries whose boxes were popped. No-op when no
    /// sliced collection is in progress.
    #[inline]
    pub fn note_stack_trunc(&mut self, low: usize) {
        if let Some(sl) = self.sliced.as_mut() {
            sl.note_stack_trunc(low);
        }
    }
}

/// Runs one slice of a sliced collection, starting the collection (flip)
/// if none is in progress. Returns `true` when the collection completed
/// with this slice; until then `rt.gc_needed` stays `true` and the caller
/// should keep calling at safe points with fresh roots.
///
/// # Panics
///
/// Panics if the runtime is untagged.
pub fn collect_sliced(rt: &mut Rt, root_slots: &[usize], extra_roots: &mut [Word]) -> bool {
    assert!(
        rt.config.tagged,
        "garbage collection requires tagged values"
    );
    if rt.sliced.is_none() {
        begin(rt);
    }
    step(rt, root_slots, extra_roots, false)
}

/// Forcibly completes an in-progress sliced collection with one
/// unbudgeted slice (program exit: the from-space must not outlive the
/// collection state). No-op if none is in progress.
pub fn finish_sliced(rt: &mut Rt, root_slots: &[usize], extra_roots: &mut [Word]) {
    if rt.sliced.is_some() {
        let done = step(rt, root_slots, extra_roots, true);
        debug_assert!(done, "unbudgeted slice must finish the collection");
    }
}

/// The flip: detach all pages into the global from-space, stamp them with
/// [`FROM_BIT`], give every region a fresh to-space page, and install the
/// cross-slice state.
fn begin(rt: &mut Rt) {
    if rt.config.heap_shrink_factor.is_some() {
        // Same reasoning as the stop-the-world collector: to-space should
        // fill the arena bottom-up so the post-collection shrink finds
        // its free pages at the physical tail.
        rt.heap.sort_free_list();
    }
    let flip = flip_all(rt);
    let mut p = flip.fs_head;
    while p != NONE_ADDR {
        let o = rt.heap.read(p + PAGE_ORIGIN);
        rt.heap.write(p + PAGE_ORIGIN, o | FROM_BIT);
        p = rt.heap.read(p + PAGE_NEXT);
    }
    let nregions = rt.regions.len();
    rt.sliced = Some(Box::new(SlicedGc {
        flip,
        st: GcState::new(),
        cursors: vec![NONE_ADDR; nregions],
        watermark: rt.stack.len(),
        arr_resume: None,
        slices: 0,
    }));
}

fn step(rt: &mut Rt, root_slots: &[usize], extra_roots: &mut [Word], force: bool) -> bool {
    let t0 = std::time::Instant::now();
    rt.in_gc = true;
    let mut sl = rt.sliced.take().expect("no sliced collection in progress");
    sl.slices += 1;
    let budget = if force || sl.slices > MAX_SLICES {
        u64::MAX
    } else {
        rt.config
            .gc_slice_budget_words
            .expect("sliced collection without a slice budget")
    };

    // ---- prune state invalidated by the mutator since the last slice.
    let wm = sl.watermark;
    let st = &mut sl.st;
    if st.scan_buffer.iter().any(|&s| s >= wm) {
        let mut kept_scanned = 0usize;
        let mut w = 0usize;
        for i in 0..st.scan_buffer.len() {
            let slot = st.scan_buffer[i];
            if slot < wm {
                st.scan_buffer[w] = slot;
                w += 1;
                if i < st.sb_next {
                    kept_scanned += 1;
                }
            }
        }
        st.scan_buffer.truncate(w);
        st.sb_next = kept_scanned;
    }
    sl.watermark = rt.stack.len();
    sl.cursors.resize(rt.regions.len(), NONE_ADDR);
    // The shared evacuation routine maintains the stop-the-world drain's
    // scan stack; the sliced drain uses region cursors instead.
    sl.st.scan_stack.clear();
    if let Some((id, _)) = sl.arr_resume {
        if !rt.lobjs.is_live(id) {
            sl.arr_resume = None;
        }
    }

    // ---- re-evacuate the root set (unbudgeted; roots have no barrier).
    for &slot in root_slots {
        let v = rt.stack[slot];
        rt.stack[slot] = evacuate_with(rt, &mut sl.st, v, SlicedEvac);
    }
    for v in extra_roots.iter_mut() {
        *v = evacuate_with(rt, &mut sl.st, *v, SlicedEvac);
    }

    // ---- budgeted drain.
    let mut work = 0u64;
    let finished = drain_budgeted(rt, &mut sl, budget, &mut work);
    if work > rt.stats.gc_max_slice_scan_words {
        rt.stats.gc_max_slice_scan_words = work;
    }

    if finished {
        crate::gc::unmark_scan_buffer(rt, &sl.st.scan_buffer);
        let lobjs_freed = sweep_lobjs_all(rt);
        // Statuses were set by the shared evacuation routine but never
        // cleared (the cursor drain ignores them); reset for the next
        // collection.
        for d in rt.regions.iter_mut() {
            d.status = false;
        }
        // Clear the from-space stamps before the pages return to the
        // free-list, so a stale origin can never masquerade as
        // from-space in a later collection.
        let mut p = sl.flip.fs_head;
        while p != NONE_ADDR {
            let o = rt.heap.read(p + PAGE_ORIGIN);
            rt.heap.write(p + PAGE_ORIGIN, o & !FROM_BIT);
            p = rt.heap.read(p + PAGE_NEXT);
        }
        rt.stats.gc_slices += sl.slices;
        finish_collection(rt, &sl.flip, sl.st.copied, lobjs_freed, t0);
        true
    } else {
        rt.stats.record_pause(t0.elapsed().as_nanos() as u64);
        rt.in_gc = false;
        rt.sliced = Some(sl);
        false
    }
}

/// Drains scan buffer, large-object queue and region cursors until a full
/// pass makes no progress (collection finished, returns `true`) or the
/// budget is spent (returns `false`; resume state is in `sl`).
fn drain_budgeted(rt: &mut Rt, sl: &mut SlicedGc, budget: u64, work: &mut u64) -> bool {
    loop {
        let mut progressed = false;
        if let Some((id, at)) = sl.arr_resume.take() {
            progressed = true;
            if !scan_array_budgeted(rt, sl, id, at, budget, work) {
                return false;
            }
        }
        while sl.st.sb_next < sl.st.scan_buffer.len() {
            if *work >= budget {
                return false;
            }
            let slot = sl.st.scan_buffer[sl.st.sb_next];
            sl.st.sb_next += 1;
            let tag = Tag::decode(rt.stack[slot]);
            *work += 1 + tag.size as u64;
            scan_stack_box_with(rt, &mut sl.st, slot, SlicedEvac);
            progressed = true;
        }
        while sl.st.lq_next < sl.st.lobj_queue.len() {
            if *work >= budget {
                return false;
            }
            let id = sl.st.lobj_queue[sl.st.lq_next];
            sl.st.lq_next += 1;
            progressed = true;
            if !scan_array_budgeted(rt, sl, id, 0, budget, work) {
                return false;
            }
        }
        for r in 0..sl.cursors.len() {
            match scan_region_budgeted(rt, sl, r, budget, work) {
                ScanOut::Clean => {}
                ScanOut::Progress => progressed = true,
                ScanOut::Budget => return false,
            }
        }
        if !progressed {
            return true;
        }
    }
}

/// Scans large array `id` from element `at`, one budget unit per element.
/// Returns `false` on a budget cut (resume point saved). Ids freed by an
/// `endregion` between slices are skipped.
fn scan_array_budgeted(
    rt: &mut Rt,
    sl: &mut SlicedGc,
    id: u32,
    at: usize,
    budget: u64,
    work: &mut u64,
) -> bool {
    if !rt.lobjs.is_live(id) {
        return true;
    }
    let len = match &rt.lobjs.get(id).data {
        LData::Arr(a) => a.len(),
        LData::Str(_) => return true,
    };
    for i in at..len {
        if *work >= budget {
            sl.arr_resume = Some((id, i));
            return false;
        }
        *work += 1;
        let v = match &rt.lobjs.get(id).data {
            LData::Arr(a) => a[i],
            LData::Str(_) => unreachable!(),
        };
        let nv = evacuate_with(rt, &mut sl.st, v, SlicedEvac);
        match &mut rt.lobjs.get_mut(id).data {
            LData::Arr(a) => a[i] = nv,
            LData::Str(_) => unreachable!(),
        }
    }
    true
}

enum ScanOut {
    /// Cursor already at the allocation pointer.
    Clean,
    /// Cursor advanced (and caught the allocation pointer).
    Progress,
    /// Budget cut; cursor saved mid-region.
    Budget,
}

/// Advances region `r`'s cursor towards its allocation pointer, charging
/// each object's `box_words` against the budget (checked *before* each
/// object, so a slice overshoots by at most one object).
fn scan_region_budgeted(
    rt: &mut Rt,
    sl: &mut SlicedGc,
    r: usize,
    budget: u64,
    work: &mut u64,
) -> ScanOut {
    let d = &rt.regions[r];
    if d.fp == NONE_ADDR {
        return ScanOut::Clean;
    }
    let mut s = sl.cursors[r];
    if s == NONE_ADDR {
        s = d.fp + PAGE_HDR;
    }
    if s == d.a {
        sl.cursors[r] = s;
        return ScanOut::Clean;
    }
    let pw = rt.heap.page_words() as u64;
    // `s` may sit exactly one past a full page's end; `s - 1` is always
    // inside the page the cursor logically points into.
    let mut page_end = rt.heap.page_base(s - 1) + pw;
    let mut out = ScanOut::Progress;
    loop {
        if s == rt.regions[r].a {
            break;
        }
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
            let next = rt.heap.read(page_end - pw + PAGE_NEXT);
            debug_assert_ne!(next, NONE_ADDR, "sentinel on the last page");
            s = next + PAGE_HDR;
            page_end = next + pw;
            continue;
        }
        if *work >= budget {
            out = ScanOut::Budget;
            break;
        }
        *work += tag.box_words();
        if tag.scannable() {
            scan_heap_box_with(rt, &mut sl.st, s, tag.size, SlicedEvac);
        }
        s += tag.box_words();
    }
    sl.cursors[r] = s;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RtConfig;
    use crate::value::{ptr, STACK_BASE};

    fn rt(budget: u64) -> Rt {
        Rt::new(RtConfig {
            initial_pages: 16,
            gc_slice_budget_words: Some(budget),
            ..RtConfig::rgt()
        })
    }

    fn build_list(rt: &mut Rt, r: RegionId, n: i64) -> Word {
        let mut tail = rt.tag_int(0);
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
    fn sliced_collection_preserves_data_and_bounds_slice_work() {
        const BUDGET: u64 = 64;
        let mut rt = rt(BUDGET);
        let r = rt.letregion(0);
        for _ in 0..50 {
            let _ = build_list(&mut rt, r, 100);
        }
        let live = build_list(&mut rt, r, 500);
        rt.stack.push(live);
        let root = rt.stack.len() - 1;
        let mut done = collect_sliced(&mut rt, &[root], &mut []);
        let mut gaps = 0;
        while !done {
            gaps += 1;
            assert!(gaps < 10_000, "sliced collection failed to converge");
            // The mutator keeps running between slices: extend the live
            // list (grey allocation, scanned via the region cursor) and
            // drop some garbage.
            let head = rt.stack[root];
            let head = rt.alloc_boxed(r, Tag::con(1, 2), &[rt.tag_int(0), head]);
            rt.stack[root] = head;
            let _ = rt.alloc_record(r, &[rt.tag_int(9)]);
            done = collect_sliced(&mut rt, &[root], &mut []);
        }
        assert!(gaps >= 2, "budget {BUDGET} should take several slices");
        assert_eq!(rt.stats.gc_count, 1);
        assert_eq!(rt.stats.gc_slices, gaps + 1);
        assert_eq!(
            rt.stats.gc_pause_hist.count(),
            rt.stats.gc_slices,
            "every slice is one recorded pause"
        );
        // The drain never overshoots the budget by more than one object.
        let max_obj = rt.config.page_data_words() as u64;
        assert!(
            rt.stats.gc_max_slice_scan_words <= BUDGET + max_obj,
            "slice scanned {} words (budget {BUDGET} + max object {max_obj})",
            rt.stats.gc_max_slice_scan_words
        );
        assert_eq!(list_sum(&rt, rt.stack[root]), 500 * 501 / 2);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn write_barrier_rescues_value_stored_mid_collection() {
        let mut rt = rt(1);
        let r = rt.letregion(0);
        let cell = rt.alloc_boxed(r, Tag::reference(), &[rt.tag_int(0)]);
        let live = build_list(&mut rt, r, 100);
        rt.stack.push(cell);
        rt.stack.push(live);
        // Held only in this variable — invisible to the collector until
        // the barrier stores it.
        let secret = rt.alloc_record(r, &[rt.tag_int(42)]);
        assert!(!collect_sliced(&mut rt, &[0, 1], &mut []));
        // The old pointer canonicalises to the evacuated root.
        assert_eq!(rt.canon(cell), rt.stack[0]);
        // Mutate through the barriers while the collection is paused.
        let cell_c = rt.canon(rt.stack[0]);
        let v = rt.gc_write_barrier(secret);
        rt.set_field(cell_c, 0, v);
        while rt.sliced_active() {
            collect_sliced(&mut rt, &[0, 1], &mut []);
        }
        let got = rt.field(rt.stack[0], 0);
        assert_eq!(rt.untag_int(rt.field(got, 0)), 42);
        assert_eq!(list_sum(&rt, rt.stack[1]), 100 * 101 / 2);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn popped_stack_boxes_are_pruned_via_the_watermark() {
        let mut rt = rt(1);
        let r = rt.letregion(0);
        let live = build_list(&mut rt, r, 100);
        rt.stack.push(live);
        let inner = rt.alloc_record(r, &[rt.tag_int(7)]);
        // A finite-region box on the stack, rooted by a stack pointer.
        let base = rt.stack.len();
        rt.stack.push(Tag::record(1).encode());
        rt.stack.push(inner);
        rt.stack.push(ptr(STACK_BASE + base as u64));
        let box_root = base + 2;
        assert!(!collect_sliced(&mut rt, &[0, box_root], &mut []));
        // The frame holding the box is popped between slices.
        rt.stack.truncate(base);
        rt.note_stack_trunc(base);
        while rt.sliced_active() {
            collect_sliced(&mut rt, &[0], &mut []);
        }
        assert_eq!(list_sum(&rt, rt.stack[0]), 100 * 101 / 2);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn region_pop_mid_collection_truncates_cursors() {
        let mut rt = rt(32);
        let r1 = rt.letregion(1);
        let live = build_list(&mut rt, r1, 200);
        rt.stack.push(live);
        let r2 = rt.letregion(2);
        for _ in 0..10 {
            let _ = build_list(&mut rt, r2, 100);
        }
        let _ = rt.alloc_array(r2, 50, rt.tag_int(0));
        assert!(!collect_sliced(&mut rt, &[0], &mut []));
        // The garbage region ends between slices: its to-space pages are
        // freed now, its from-space pages at the end of the collection,
        // and its large object with it.
        rt.endregion();
        while rt.sliced_active() {
            collect_sliced(&mut rt, &[0], &mut []);
        }
        assert_eq!(rt.region_depth(), 1);
        assert_eq!(list_sum(&rt, rt.stack[0]), 200 * 201 / 2);
        assert_eq!(rt.lobjs.live_count(), 0);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn forced_finish_completes_with_extra_root() {
        let mut rt = rt(1);
        let r = rt.letregion(0);
        let live = build_list(&mut rt, r, 100);
        let mut extra = [live];
        assert!(!collect_sliced(&mut rt, &[], &mut extra));
        finish_sliced(&mut rt, &[], &mut extra);
        assert!(!rt.sliced_active());
        assert!(!rt.gc_needed);
        assert_eq!(list_sum(&rt, extra[0]), 100 * 101 / 2);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn sliced_result_matches_stop_the_world() {
        // The same program run under the sliced and the stop-the-world
        // collector must see the same values.
        let run = |budget: Option<u64>| -> (i64, u64) {
            let mut rt = Rt::new(RtConfig {
                initial_pages: 16,
                gc_slice_budget_words: budget,
                ..RtConfig::rgt()
            });
            let r = rt.letregion(0);
            for _ in 0..30 {
                let _ = build_list(&mut rt, r, 100);
            }
            let live = build_list(&mut rt, r, 300);
            rt.stack.push(live);
            match budget {
                Some(_) => while !collect_sliced(&mut rt, &[0], &mut []) {},
                None => crate::gc::collect(&mut rt, &[0], &mut []),
            }
            let d = &rt.regions[0];
            (list_sum(&rt, rt.stack[0]), d.used_words)
        };
        let stw = run(None);
        let sliced = run(Some(48));
        assert_eq!(stw, sliced, "(sum, surviving words) must agree");
    }

    #[test]
    fn finite_region_constant_marks_span_slices_and_unmark() {
        // A finite-region (stack) box is marked constant (§2.5) when the
        // collector first reaches it. Under the sliced collector that
        // mark must persist *between* slices — roots are re-evacuated at
        // every slice start, and without the mark the slot would be
        // re-queued on the scan buffer each time — and must still come
        // off in the final unmarking pass.
        let mut rt = rt(1);
        let r = rt.letregion(0);
        let filler = build_list(&mut rt, r, 200);
        rt.stack.push(filler);
        let inner = rt.alloc_record(r, &[rt.tag_int(7)]);
        let base = rt.stack.len();
        rt.stack.push(Tag::record(1).encode());
        rt.stack.push(inner);
        let box_ptr = ptr(STACK_BASE + base as u64);
        rt.stack.push(box_ptr);
        let roots = [0, base + 2];
        let mut done = collect_sliced(&mut rt, &roots, &mut []);
        assert!(!done, "budget 1 must not finish in one slice");
        let mut marked_slices = 0;
        while !done {
            if Tag::decode(rt.stack[base]).mark {
                marked_slices += 1;
            }
            done = collect_sliced(&mut rt, &roots, &mut []);
        }
        assert!(
            marked_slices >= 2,
            "finite box must stay constant-marked across slices"
        );
        assert!(
            !Tag::decode(rt.stack[base]).mark,
            "constant mark must come off in the final unmarking pass"
        );
        assert_eq!(rt.stack[base + 2], box_ptr, "finite boxes never move");
        let inner2 = rt.stack[base + 1];
        assert_ne!(inner2, inner, "box field must have been evacuated");
        assert_eq!(rt.untag_int(rt.field(inner2, 0)), 7);
        assert_eq!(list_sum(&rt, rt.stack[0]), 200 * 201 / 2);
        rt.check_page_conservation().unwrap();
    }

    #[test]
    fn large_objects_traversed_not_copied_and_swept_sliced() {
        // Mirror of gc.rs `large_objects_traversed_not_copied_and_swept`
        // under the bounded-pause collector: the live array keeps its
        // address across every slice (the mutator may index it between
        // slices), its elements are still traversed, the unreachable
        // array is swept at the end, and the survivor's mark is cleared.
        use crate::lobj::Lobjs;
        use crate::value::ptr_addr;
        let mut rt = rt(8);
        let r = rt.letregion(0);
        let elem = rt.alloc_record(r, &[rt.tag_int(5)]);
        let arr = rt.alloc_array(r, 3, rt.tag_int(0));
        rt.write_addr(rt.arr_elem_addr(arr, 0), elem);
        let _dead = rt.alloc_array(r, 100, rt.tag_int(0));
        let filler = build_list(&mut rt, r, 300);
        rt.stack.push(arr);
        rt.stack.push(filler);
        assert_eq!(rt.lobjs.live_count(), 2);
        let mut slices = 1u64;
        let mut done = collect_sliced(&mut rt, &[0, 1], &mut []);
        while !done {
            assert_eq!(rt.stack[0], arr, "large object moved mid-collection");
            slices += 1;
            done = collect_sliced(&mut rt, &[0, 1], &mut []);
        }
        assert!(slices >= 2, "collection must actually have been sliced");
        assert_eq!(rt.stack[0], arr, "large object must not move");
        assert_eq!(rt.lobjs.live_count(), 1, "dead array not swept");
        let elem2 = rt.read_addr(rt.arr_elem_addr(arr, 0));
        assert_ne!(elem2, elem, "array element must have been evacuated");
        assert_eq!(rt.untag_int(rt.field(elem2, 0)), 5);
        assert!(
            !rt.lobjs.get(Lobjs::id_of(ptr_addr(arr))).marked,
            "surviving large object must be unmarked for the next cycle"
        );
        assert_eq!(list_sum(&rt, rt.stack[1]), 300 * 301 / 2);
        rt.check_page_conservation().unwrap();
    }
}
