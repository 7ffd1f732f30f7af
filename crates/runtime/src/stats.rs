//! Runtime statistics: allocation volume, collection accounting (paper
//! §4.3), the region profile (Fig. 5) and peak memory.

use std::collections::BTreeMap;

/// Accounting for one garbage collection, following §4.3 of the paper.
///
/// With `L_i` the live pages after collection `i`, `A_p` the pages
/// requested between collections `i` and `i+1`, and `A_{i+1}` the
/// from-space pages just before collection `i+1`:
///
/// * memory reclaimed by region inference: `L_i + A_p − A_{i+1}`
/// * memory reclaimed by the collector: `A_{i+1} − L_{i+1}`
///
/// It also holds the region profile the collection leaves (paper Fig. 5):
/// the words in use per region name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GcRecord {
    /// Live pages after the previous collection (`L_i`).
    pub prev_live_pages: usize,
    /// Pages requested from the free-list since the previous collection
    /// (`A_p`).
    pub pages_requested: u64,
    /// Pages in the global from-space just before this collection
    /// (`A_{i+1}`).
    pub from_pages: usize,
    /// Live (to-space) pages after this collection (`L_{i+1}`).
    pub live_pages: usize,
    /// Unused words inside from-space pages at collection time (waste).
    pub waste_words: u64,
    /// Total payload words of the from-space pages.
    pub from_space_words: u64,
    /// Words copied by the collector.
    pub copied_words: u64,
    /// Large objects freed by this collection.
    pub lobjs_freed: usize,
    /// Words in use after this collection per region *name* (the region
    /// variable a region was created for), ascending by name: the dynamic
    /// instances of one `letregion` make one band of the profile, as in
    /// the ML Kit's region profiler.
    pub region_words: BTreeMap<u32, u64>,
}

impl GcRecord {
    /// `RI`'s term: pages recycled by region inference,
    /// `L_i + A_p − A_{i+1}` (at least 0), out of the pages reclaimed in
    /// all, `L_i + A_p − L_{i+1}`. `None` when nothing was reclaimed.
    fn ri_term(&self) -> Option<(f64, f64)> {
        let before = self.prev_live_pages as f64 + self.pages_requested as f64;
        let total = before - self.live_pages as f64;
        (total > 0.0).then(|| ((before - self.from_pages as f64).max(0.0), total))
    }

    /// `W`'s term: unused words out of the from-space payload words.
    fn waste_term(&self) -> (f64, f64) {
        (self.waste_words as f64, self.from_space_words as f64)
    }

    /// Fraction of reclaimed memory recycled by region inference (`RI` in
    /// Table 3). `None` when nothing was reclaimed.
    pub fn ri_fraction(&self) -> Option<f64> {
        fraction(self.ri_term())
    }

    /// Fraction reclaimed by the garbage collector (`GC` in Table 3).
    pub fn gc_fraction(&self) -> Option<f64> {
        self.ri_fraction().map(|ri| 1.0 - ri)
    }

    /// Waste: unused page space as a fraction of allocated page space.
    pub fn waste_fraction(&self) -> f64 {
        fraction([self.waste_term()]).unwrap_or(0.0)
    }
}

/// Region names of `records` with their peak words, largest first (ties
/// by name, ascending) — the legend of the region profile (Fig. 5).
pub fn regions_by_peak(records: &[GcRecord]) -> Vec<(u32, u64)> {
    let mut peak: BTreeMap<u32, u64> = BTreeMap::new();
    for rec in records {
        for (&name, &words) in &rec.region_words {
            let e = peak.entry(name).or_default();
            *e = (*e).max(words);
        }
    }
    let mut v: Vec<(u32, u64)> = peak.into_iter().collect();
    v.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    v
}

/// The sum of the parts over the sum of the wholes of `terms`, clamped to
/// `[0, 1]`; `None` when the wholes sum to 0. One record's fraction and
/// a run's aggregate are the same formula.
fn fraction(terms: impl IntoIterator<Item = (f64, f64)>) -> Option<f64> {
    let (part, whole) = (terms.into_iter()).fold((0.0, 0.0), |(p, w), (a, b)| (p + a, w + b));
    (whole > 0.0).then(|| (part / whole).clamp(0.0, 1.0))
}

/// Cumulative runtime statistics.
#[derive(Debug, Clone, Default)]
pub struct RtStats {
    /// Words allocated in regions by the program (excluding GC copies).
    pub words_allocated: u64,
    /// Number of region allocations.
    pub allocations: u64,
    /// Times the bump allocator left its fast path to chain a fresh page
    /// onto a region (mutator and collector alike) — the only reason it
    /// ever does.
    pub page_extensions: u64,
    /// Words allocated as large objects.
    pub lobj_words_allocated: u64,
    /// Regions pushed (infinite regions only).
    pub regions_created: u64,
    /// Regions popped.
    pub regions_popped: u64,
    /// Region pages requested from the free-list since the last collection.
    pub pages_requested_since_gc: u64,
    /// Number of collections performed (`#GC` in Table 2).
    pub gc_count: u64,
    /// Minor (nursery) collections of the generational baseline.
    pub minor_gcs: u64,
    /// Major collections of the generational baseline.
    pub major_gcs: u64,
    /// Total words copied by the collector.
    pub gc_copied_words: u64,
    /// Wall-clock nanoseconds spent collecting.
    pub gc_time_ns: u64,
    /// Longest single GC pause (one collection), nanoseconds.
    pub gc_pause_max_ns: u64,
    /// Peak memory (heap arena + stack + large objects + data), bytes.
    pub peak_bytes: usize,
    /// Live pages after the most recent collection.
    pub last_live_pages: usize,
    /// Post-collection arena growths (heap-to-live ratio maintenance).
    pub heap_grows: u64,
    /// Per-collection accounting records.
    pub gc_records: Vec<GcRecord>,
}

impl RtStats {
    /// Records a memory-footprint observation, keeping the peak.
    #[inline]
    pub fn observe_bytes(&mut self, bytes: usize) {
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Records one GC pause: total time and max pause.
    #[inline]
    pub fn record_pause(&mut self, ns: u64) {
        self.gc_time_ns += ns;
        if ns > self.gc_pause_max_ns {
            self.gc_pause_max_ns = ns;
        }
    }

    /// Aggregate RI fraction over all collections (Table 3, `RI`).
    pub fn ri_fraction(&self) -> Option<f64> {
        fraction(self.gc_records.iter().filter_map(GcRecord::ri_term))
    }

    /// Aggregate waste fraction over all collections (Table 3, `W`).
    pub fn waste_fraction(&self) -> Option<f64> {
        fraction(self.gc_records.iter().map(GcRecord::waste_term))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ri_fraction_matches_paper_formula() {
        // L_i = 10, A_p = 30, A_{i+1} = 20, L_{i+1} = 5:
        // RI = (10 + 30 - 20) / (10 + 30 - 5) = 20/35
        let r = GcRecord {
            prev_live_pages: 10,
            pages_requested: 30,
            from_pages: 20,
            live_pages: 5,
            ..GcRecord::default()
        };
        let ri = r.ri_fraction().unwrap();
        assert!((ri - 20.0 / 35.0).abs() < 1e-12);
        let gc = r.gc_fraction().unwrap();
        assert!((gc - 15.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn regions_rank_by_their_peak_over_all_records() {
        let rec = |words: &[(u32, u64)]| GcRecord {
            region_words: words.iter().copied().collect(),
            ..GcRecord::default()
        };
        let records = [rec(&[(7, 15), (9, 1)]), rec(&[(3, 9), (9, 9)])];
        assert_eq!(regions_by_peak(&records), [(7, 15), (3, 9), (9, 9)]);
    }

    #[test]
    fn peak_tracking() {
        let mut s = RtStats::default();
        s.observe_bytes(100);
        s.observe_bytes(50);
        assert_eq!(s.peak_bytes, 100);
    }

    #[test]
    fn record_pause_tracks_total_and_max() {
        let mut s = RtStats::default();
        s.record_pause(10);
        s.record_pause(500);
        s.record_pause(20);
        assert_eq!(s.gc_time_ns, 530);
        assert_eq!(s.gc_pause_max_ns, 500);
    }
}
