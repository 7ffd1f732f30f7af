//! Region profiling (paper §3, Fig. 5): per-region memory over time.
//!
//! The profiler records, at each sample point (collections and explicit
//! ticks), the words in use per region *name* (the region variable a
//! region was created for), so multiple dynamic instances of one
//! `letregion` aggregate into one profile band — exactly what the ML Kit
//! region profiler plots.

use crate::region::RegionDesc;
use std::collections::BTreeMap;

/// One profile sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Sample ordinal (collection number or tick).
    pub time: u64,
    /// Words in use, keyed by region name.
    pub by_region: BTreeMap<u32, u64>,
}

/// The region profiler.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    clock: u64,
    samples: Vec<Sample>,
}

impl Profiler {
    /// Creates a profiler; a disabled profiler records nothing.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            clock: 0,
            samples: Vec::new(),
        }
    }

    /// `true` if sampling is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Takes a sample of the region stack.
    pub fn sample(&mut self, regions: &[RegionDesc]) {
        if !self.enabled {
            return;
        }
        let mut by_region: BTreeMap<u32, u64> = BTreeMap::new();
        for d in regions {
            *by_region.entry(d.name).or_default() += d.used_words;
        }
        self.clock += 1;
        self.samples.push(Sample {
            time: self.clock,
            by_region,
        });
    }

    /// All recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// Region names of `samples` with their peak size in words, largest
/// first (ties by name, ascending) — the profile's legend.
pub fn regions_by_peak(samples: &[Sample]) -> Vec<(u32, u64)> {
    let mut peak: BTreeMap<u32, u64> = BTreeMap::new();
    for s in samples {
        for (&name, &w) in &s.by_region {
            let e = peak.entry(name).or_default();
            *e = (*e).max(w);
        }
    }
    let mut v: Vec<(u32, u64)> = peak.into_iter().collect();
    v.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new(false);
        p.sample(&[]);
        assert!(p.samples().is_empty());
    }

    #[test]
    fn samples_aggregate_by_name() {
        let mut p = Profiler::new(true);
        let mut d1 = RegionDesc::empty(7);
        d1.used_words = 10;
        let mut d2 = RegionDesc::empty(7);
        d2.used_words = 5;
        let mut d3 = RegionDesc::empty(9);
        d3.used_words = 1;
        p.sample(&[d1, d2, d3]);
        assert_eq!(p.samples()[0].by_region[&7], 15);
        assert_eq!(regions_by_peak(p.samples())[0], (7, 15));
    }
}
