//! Summary statistics for latency reporting.
//!
//! The paper reports Avg / P50 / P99 of TTFT, TBT, TPOT and end-to-end
//! latency, plus CDFs (Fig. 20) and SLO-attainment fractions (Fig. 15).
//! [`Summary`] collects samples and computes all of these.

use std::fmt;

/// A collection of `f64` samples with percentile and mean queries.
///
/// # Examples
///
/// ```
/// use simcore::stats::Summary;
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.percentile(50.0), 2.5);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on NaN samples.
    pub fn record(&mut self, v: f64) {
        debug_assert!(!v.is_nan(), "NaN sample");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Maximum sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Minimum sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Returns the `lo`-th order statistic and, when `need_hi` is set,
    /// the `lo + 1`-th, without mutating the sample order. Sorted
    /// summaries answer by direct indexing; unsorted ones run an O(n)
    /// quickselect over a scratch copy instead of a full sort.
    fn order_stats(&self, lo: usize, need_hi: bool) -> (f64, f64) {
        if self.sorted {
            let hi = if need_hi { lo + 1 } else { lo };
            return (self.samples[lo], self.samples[hi]);
        }
        let mut scratch = self.samples.clone();
        let (_, &mut lo_v, rest) =
            scratch.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("NaN sample"));
        let hi_v = if need_hi {
            rest.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            lo_v
        };
        (lo_v, hi_v)
    }

    /// The `p`-th percentile (0..=100) with linear interpolation; 0 when
    /// empty. Does not reorder the samples: unsorted summaries are
    /// answered by an O(n) selection rather than a full sort, so the
    /// query needs only `&self` and reports stay byte-identical however
    /// many percentiles were read from them.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        debug_assert!((0.0..=100.0).contains(&p));
        if self.samples.is_empty() {
            return 0.0;
        }
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let frac = rank - lo as f64;
        let (lo_v, hi_v) = self.order_stats(lo, frac > 0.0);
        lo_v * (1.0 - frac) + hi_v * frac
    }

    /// Median (P50).
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Fraction of samples ≤ `threshold` (the SLO-attainment metric);
    /// 1.0 when empty (an empty window violates nothing).
    pub fn fraction_le(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let ok = self.samples.iter().filter(|&&v| v <= threshold).count();
        ok as f64 / self.samples.len() as f64
    }

    /// Empirical CDF evaluated at `points.len() + 1` evenly spaced
    /// quantiles, returned as `(value, cumulative_fraction)` pairs. Used
    /// for Fig. 20-style plots.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        (0..=points)
            .map(|i| {
                let q = i as f64 / points as f64 * 100.0;
                let v = self.percentile(q);
                (v, q / 100.0)
            })
            .collect()
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Read-only view of the raw samples (unsorted unless a percentile was
    /// queried).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.samples.extend(iter);
        self.sorted = false;
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Summary {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Takes ownership of already-recorded samples without copying them;
/// the summary equals one built by recording them in order.
impl From<Vec<f64>> for Summary {
    fn from(samples: Vec<f64>) -> Summary {
        debug_assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
        Summary {
            samples,
            sorted: false,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} p50={:.4} p99={:.4} max={:.4}",
            self.len(),
            self.mean(),
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

/// Online mean/variance accumulator (Welford) for cheap running stats.
///
/// # Examples
///
/// ```
/// use simcore::stats::Online;
/// let mut o = Online::new();
/// for v in [2.0, 4.0, 6.0] {
///     o.record(v);
/// }
/// assert_eq!(o.mean(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Online {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Online {
    /// Creates an empty accumulator.
    pub fn new() -> Online {
        Online::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance; 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let s: Summary = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.p50() - 50.5).abs() < 1e-9);
        assert!((s.p99() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_safe() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.fraction_le(1.0), 1.0);
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(7.0);
        assert_eq!(s.p50(), 7.0);
        assert_eq!(s.p99(), 7.0);
        assert_eq!(s.min(), 7.0);
    }

    #[test]
    fn percentile_does_not_reorder_samples() {
        let s: Summary = [5.0, 1.0, 4.0, 2.0, 3.0].into_iter().collect();
        let before = s.samples().to_vec();
        let _ = s.p99();
        let _ = s.percentile(37.5);
        assert_eq!(s.samples(), before.as_slice());
    }

    #[test]
    fn sorted_and_unsorted_percentiles_agree() {
        let vals: Vec<f64> = (0..257).map(|i| ((i * 7919) % 811) as f64).collect();
        let unsorted: Summary = vals.iter().copied().collect();
        let mut sorted = unsorted.clone();
        sorted.ensure_sorted();
        for p in [0.0, 1.0, 12.5, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(unsorted.percentile(p), sorted.percentile(p));
        }
    }

    #[test]
    fn fraction_le_counts() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_le(2.0), 0.5);
        assert_eq!(s.fraction_le(0.5), 0.0);
        assert_eq!(s.fraction_le(10.0), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut s: Summary = (0..1000).map(|i| (i % 37) as f64).collect();
        let cdf = s.cdf(20);
        assert_eq!(cdf.len(), 21);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn from_vec_equals_recording_in_order() {
        let vals = vec![0.3, 0.0, 0.1, 0.2];
        let recorded: Summary = vals.iter().copied().collect();
        assert_eq!(Summary::from(vals), recorded);
    }

    #[test]
    fn merge_combines() {
        let mut a: Summary = [1.0, 2.0].into_iter().collect();
        let b: Summary = [3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn online_matches_batch() {
        let vals = [1.5, 2.5, 3.5, 10.0, -2.0];
        let mut o = Online::new();
        for v in vals {
            o.record(v);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((o.mean() - mean).abs() < 1e-12);
        assert!((o.variance() - var).abs() < 1e-9);
        assert_eq!(o.count(), 5);
    }

    #[test]
    fn display_is_nonempty() {
        let s: Summary = [1.0].into_iter().collect();
        assert!(format!("{s}").contains("n=1"));
    }
}
