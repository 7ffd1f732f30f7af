//! Runtime configuration: the execution modes of the paper (§1.2) and the
//! collector policy knobs of §4.

/// Runtime configuration.
///
/// The four modes measured in the paper are produced by [`RtConfig::r`],
/// [`RtConfig::rt`], [`RtConfig::gt`] and [`RtConfig::rgt`]. `gt` mode is
/// realized at compile time (all infinite-region allocations target one
/// global region) combined with `tagged` and [`Collector::Regions`] here.
#[derive(Debug, Clone, PartialEq)]
pub struct RtConfig {
    /// log2 of the region-page size in words (paper §2.4: pages are 2^n
    /// words, aligned, so the page descriptor is found by masking).
    pub page_words_log2: u32,
    /// Whether values carry tag words (required for garbage collection).
    pub tagged: bool,
    /// Which collector runs, if any.
    pub collector: Collector,
    /// Collection is requested when the free-list falls below this
    /// fraction of the total region heap (paper §4: 1/3).
    pub gc_threshold: f64,
    /// After a collection the region heap is grown until it is at least
    /// this multiple of the live (to-space) pages (paper §4: 3.0). This is
    /// the only rule that sizes the heap: it never shrinks.
    pub heap_to_live_ratio: f64,
    /// Initial number of region pages.
    pub initial_pages: usize,
    /// Memory quota: cap the region pages *in use* — owned by a region,
    /// not on the free-list — plus large objects at their page-equivalent
    /// size ([`crate::Rt::quota_pages`]). A free page is not charged,
    /// whether a pop or a collection freed it or it was never touched.
    /// Allocation itself never fails: the VM compares the count with the
    /// cap at each `GcCheck` safe point (after giving the collector a
    /// chance to get back under the cap), so enforcement is deterministic
    /// across engines and does not perturb the GC schedule. Between two
    /// safe points straight-line code can hold pages past the cap unseen:
    /// a 60-element list literal reaches about 10 pages under a cap of 4
    /// and completes. That excess is bounded by the program text — no
    /// loop runs without a call — not by the cap. `None` (the default) is
    /// unlimited.
    pub max_heap_pages: Option<usize>,
    /// Wall-clock deadline: the run fails with a typed
    /// `VmError::DeadlineExceeded` at the first `GcCheck` safe point whose
    /// (strided) clock read observes `Instant::now() >= deadline` — the
    /// same points fuel overruns and page-quota breaches surface at, so a
    /// deadlined run sees exactly the allocation trajectory an undeadlined
    /// run would have seen up to the breach, on every dispatch engine.
    /// `None` (the default) never expires.
    pub deadline: Option<std::time::Instant>,
}

/// The collector a runtime runs. Both collectors are the one sequence in
/// [`crate::gc`]; they differ in which pages are from-space and where a
/// survivor goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collector {
    /// No collection: regions alone (modes `r` and `rt`).
    Off,
    /// The paper's Cheney-for-regions collector, requested when the
    /// free-list falls below [`RtConfig::gc_threshold`].
    Regions,
    /// The two-generation collector of the SML/NJ-substitute baseline:
    /// the program's one region is the nursery, region 1 the tenured
    /// generation.
    Generational(GenPolicy),
}

/// Policy knobs for the two-generation baseline collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenPolicy {
    /// Minor collection once the nursery holds this many pages (the
    /// trigger fires when the nursery takes a page).
    pub nursery_pages: usize,
    /// Major collection once the tenured generation exceeds this multiple
    /// of its size after the previous major collection.
    pub major_growth: usize,
}

impl Default for GenPolicy {
    fn default() -> Self {
        GenPolicy {
            nursery_pages: 64,
            major_growth: 3,
        }
    }
}

impl RtConfig {
    /// Words per region page.
    pub fn page_words(&self) -> usize {
        1 << self.page_words_log2
    }

    /// Usable payload words per page (page minus the 2-word descriptor).
    pub fn page_data_words(&self) -> usize {
        self.page_words() - 2
    }

    /// Mode `r`: regions alone, untagged (fastest, allows dangling
    /// pointers).
    pub fn r() -> Self {
        RtConfig {
            tagged: false,
            ..Self::base()
        }
    }

    /// Mode `rt`: regions alone, with tagging (isolates the tagging cost,
    /// paper Table 1).
    pub fn rt() -> Self {
        RtConfig {
            tagged: true,
            ..Self::base()
        }
    }

    /// Mode `gt`: garbage collection within a degenerate region stack
    /// (region inference disabled at compile time).
    pub fn gt() -> Self {
        RtConfig {
            tagged: true,
            collector: Collector::Regions,
            ..Self::base()
        }
    }

    /// Mode `rgt`: regions combined with garbage collection.
    pub fn rgt() -> Self {
        RtConfig {
            tagged: true,
            collector: Collector::Regions,
            ..Self::base()
        }
    }

    fn base() -> Self {
        RtConfig {
            page_words_log2: 8, // 256 words = 2 KiB pages
            tagged: true,
            collector: Collector::Off,
            gc_threshold: 1.0 / 3.0,
            heap_to_live_ratio: 3.0,
            initial_pages: 64,
            max_heap_pages: None,
            deadline: None,
        }
    }
}

impl Default for RtConfig {
    fn default() -> Self {
        Self::rgt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes_are_powers_of_two() {
        let c = RtConfig::default();
        assert_eq!(c.page_words(), 256);
        assert_eq!(c.page_data_words(), 254);
    }

    #[test]
    fn modes_match_paper() {
        use Collector::{Off, Regions};
        assert!(!RtConfig::r().tagged && RtConfig::r().collector == Off);
        assert!(RtConfig::rt().tagged && RtConfig::rt().collector == Off);
        assert!(RtConfig::gt().tagged && RtConfig::gt().collector == Regions);
        assert!(RtConfig::rgt().tagged && RtConfig::rgt().collector == Regions);
    }
}
