//! Order statistics and means over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of ascending `sorted`, linearly
/// interpolated between the two nearest ranks. Panics on an empty slice:
/// every caller measures at least one sample or fails earlier.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    sum(values) / values.len() as f64
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Where in the ascending timings of one repeated job its *quiet* time is
/// read. The host this runs on is shared: for tens of seconds at a time, and
/// in some runs for all but a few seconds of the window, everything takes
/// 1.3, 1.5 or 3.7 times as long, so the median of a job's timings says how
/// the neighbours were and moves by half between two runs of one commit. The
/// fastest twentieth are repeats the host left alone, and the slowest of
/// those repeats from run to run to within a per cent or two (README,
/// "Quiet time").
pub const QUIET: f64 = 0.05;

/// The order statistics every reported timing carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    /// The [`QUIET`] quantile.
    pub quiet: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            quiet: quantile(&s, QUIET),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            p90: quantile(&s, 0.9),
            p99: quantile(&s, 0.99),
            max: s[s.len() - 1],
        }
    }
}

/// A value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    pub fn exact(value: f64, n: usize) -> Reading {
        Reading {
            value,
            n,
            q1: value,
            q3: value,
        }
    }

    /// One order statistic of `samples`, with their quartiles beside it.
    pub fn pick(samples: &[f64], pick: fn(&Summary) -> f64) -> Reading {
        let s = Summary::of(samples);
        Reading {
            value: pick(&s),
            n: s.n,
            q1: s.q1,
            q3: s.q3,
        }
    }

    /// The quiet time of repeated timings of one piece of work.
    pub fn quiet(samples: &[f64]) -> Reading {
        Reading::pick(samples, |s| s.quiet)
    }

    /// `f` over the values of `parts`, and over their quartiles: the sum,
    /// mean or geometric mean of readings of several jobs.
    pub fn combine(parts: &[Reading], f: fn(&[f64]) -> f64) -> Reading {
        if parts.is_empty() {
            return Reading::exact(0.0, 0);
        }
        let of = |field: fn(&Reading) -> f64| f(&parts.iter().map(field).collect::<Vec<_>>());
        Reading {
            value: of(|r| r.value),
            n: parts.iter().map(|r| r.n).sum(),
            q1: of(|r| r.q1),
            q3: of(|r| r.q3),
        }
    }

    pub fn scaled(self, k: f64) -> Reading {
        Reading {
            value: self.value * k,
            n: self.n,
            q1: self.q1 * k,
            q3: self.q3 * k,
        }
    }
}

/// Median of the last fifth of `samples` (in arrival order) over the median
/// of the first fifth: above 1 the run slowed down as it went — in an open
/// loop, a backlog that grows, or a host that got busier.
pub fn drift(samples: &[f64]) -> f64 {
    let fifth = (samples.len() / 5).max(1);
    median(&samples[samples.len() - fifth..]) / median(&samples[..fifth])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_matches_python_inclusive_quartiles() {
        // statistics.quantiles(range(1, 12), n=4, method="inclusive")
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (3.5, 6.0, 8.5));
        assert_eq!((s.n, s.p90, s.max), (11, 10.0, 11.0));
        assert_eq!(s.quiet, 1.5);
        assert_eq!(Reading::quiet(&v).value, 1.5);
    }

    #[test]
    fn quiet_reading_sits_at_the_lower_edge_and_combines_fieldwise() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let r = Reading::quiet(&v);
        assert_eq!((r.value, r.q1, r.q3, r.n), (2.0, 6.0, 16.0, 21));
        let both = Reading::combine(&[r, r.scaled(2.0)], sum);
        assert_eq!(
            (both.value, both.q1, both.q3, both.n),
            (6.0, 18.0, 48.0, 42)
        );
        assert_eq!(Reading::combine(&[], mean), Reading::exact(0.0, 0));
    }

    #[test]
    fn geomean_weighs_ratios_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn drift_compares_last_fifth_to_first() {
        let flat = vec![2.0; 50];
        assert_eq!(drift(&flat), 1.0);
        let mut growing = vec![1.0; 40];
        growing.extend(vec![3.0; 10]);
        assert_eq!(drift(&growing), 3.0);
        assert_eq!(drift(&[4.0]), 1.0);
    }
}
