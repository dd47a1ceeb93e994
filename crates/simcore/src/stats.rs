//! Summary statistics for latency reporting.
//!
//! The paper reports Avg / P50 / P99 of TTFT, TBT, TPOT and end-to-end
//! latency, plus CDFs (Fig. 20) and SLO-attainment fractions (Fig. 15).
//! [`Summary`] collects samples and computes all of these.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::slice;

use crate::SimDuration;

/// A collection of `f64` samples with percentile and mean queries.
///
/// A summary keeps its samples in one of two stores. Recorded samples
/// are `f64`s. A summary built by [`Summary::from_nanos`] keeps integer
/// nanoseconds in 32 bits each, half the memory of `f64`s, and reads
/// each as [`SimDuration::as_secs`] gives it. Every query answers the
/// same bits from either store: that conversion is monotone, so order
/// statistics commute with it, and sums, extremes and counts convert
/// each sample in insertion order. `Debug` and `PartialEq` see only the
/// `f64` values, so they cannot tell the stores apart either.
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
///
/// // The same samples as nanoseconds answer the same bits.
/// let ns = Summary::from_nanos(vec![1_000_000_000, 2_000_000_000, 3_000_000_000, 4_000_000_000]);
/// assert_eq!(ns, s);
/// assert_eq!(ns.percentile(50.0), 2.5);
/// ```
#[derive(Clone, Default)]
pub struct Summary {
    samples: Store,
    /// Whether the store is sorted ascending; only [`Summary::cdf`]
    /// sorts it.
    sorted: bool,
}

#[derive(Clone)]
enum Store {
    /// Samples as recorded.
    Secs(Vec<f64>),
    /// Integer nanoseconds, each read as [`SimDuration::as_secs`].
    Nanos(Vec<u32>),
}

impl Default for Store {
    fn default() -> Store {
        Store::Secs(Vec::new())
    }
}

/// One stored sample.
trait Sample: Copy + PartialOrd {
    /// The sample in seconds.
    fn secs(self) -> f64;
}

impl Sample for f64 {
    fn secs(self) -> f64 {
        self
    }
}

impl Sample for u32 {
    fn secs(self) -> f64 {
        SimDuration::from_nanos(u64::from(self)).as_secs()
    }
}

fn by_value<T: PartialOrd>(a: &T, b: &T) -> Ordering {
    a.partial_cmp(b).expect("NaN sample")
}

/// The `lo`-th order statistic of `v` in seconds and, when `need_hi` is
/// set, the `lo + 1`-th, without reordering `v`. A sorted `v` answers
/// by direct indexing; an unsorted one runs an O(n) quickselect over a
/// scratch copy instead of a full sort.
fn order_stats<T: Sample>(v: &[T], sorted: bool, lo: usize, need_hi: bool) -> (f64, f64) {
    if sorted {
        let hi = if need_hi { lo + 1 } else { lo };
        return (v[lo].secs(), v[hi].secs());
    }
    let mut scratch = v.to_vec();
    let (_, &mut lo_v, rest) = scratch.select_nth_unstable_by(lo, by_value);
    let hi_v = if need_hi {
        rest.iter().map(|x| x.secs()).fold(f64::INFINITY, f64::min)
    } else {
        lo_v.secs()
    };
    (lo_v.secs(), hi_v)
}

impl Store {
    fn iter(&self) -> SampleIter<'_> {
        SampleIter(match self {
            Store::Secs(v) => Iter::Secs(v.iter()),
            Store::Nanos(v) => Iter::Nanos(v.iter()),
        })
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Takes ownership of samples given as integer nanoseconds without
    /// copying them, and keeps them at 4 bytes each. The summary equals
    /// one built by recording each sample's [`SimDuration::as_secs`] in
    /// order, and answers every query with the same bits.
    pub fn from_nanos(nanos: Vec<u32>) -> Summary {
        Summary {
            samples: Store::Nanos(nanos),
            sorted: false,
        }
    }

    /// Records one sample. A summary of nanoseconds is widened to `f64`
    /// samples first.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on NaN samples.
    pub fn record(&mut self, v: f64) {
        debug_assert!(!v.is_nan(), "NaN sample");
        self.secs_mut().push(v);
        self.sorted = false;
    }

    /// The `f64` store, widening a store of nanoseconds in place of it.
    fn secs_mut(&mut self) -> &mut Vec<f64> {
        if let Store::Nanos(v) = &self.samples {
            self.samples = Store::Secs(v.iter().map(|&n| n.secs()).collect());
        }
        let Store::Secs(v) = &mut self.samples else {
            unreachable!("widened above")
        };
        v
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        match &self.samples {
            Store::Secs(v) => v.len(),
            Store::Nanos(v) => v.len(),
        }
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.len() as f64
        }
    }

    /// Maximum sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().reduce(f64::max).unwrap_or(0.0)
    }

    /// Minimum sample; 0 when empty.
    pub fn min(&self) -> f64 {
        self.samples.iter().reduce(f64::min).unwrap_or(0.0)
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            match &mut self.samples {
                Store::Secs(v) => v.sort_by(by_value),
                Store::Nanos(v) => v.sort_unstable(),
            }
            self.sorted = true;
        }
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
        let n = self.len();
        if n <= 1 {
            return self.samples.iter().next().unwrap_or(0.0);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let frac = rank - lo as f64;
        let need_hi = frac > 0.0;
        let (lo_v, hi_v) = match &self.samples {
            Store::Secs(v) => order_stats(v, self.sorted, lo, need_hi),
            Store::Nanos(v) => order_stats(v, self.sorted, lo, need_hi),
        };
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
        if self.is_empty() {
            return 1.0;
        }
        let ok = self.samples.iter().filter(|&v| v <= threshold).count();
        ok as f64 / self.len() as f64
    }

    /// Empirical CDF evaluated at `points.len() + 1` evenly spaced
    /// quantiles, returned as `(value, cumulative_fraction)` pairs. Used
    /// for Fig. 20-style plots. Sorts the samples, the only query that
    /// does.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        if self.is_empty() || points == 0 {
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

    /// Merges another summary's samples into this one. Samples stay
    /// nanoseconds when both summaries hold nanoseconds, or when this
    /// one is empty; otherwise this summary is widened to `f64` samples
    /// first.
    pub fn merge(&mut self, other: &Summary) {
        if self.is_empty() {
            self.samples = other.samples.clone();
        } else if let (Store::Nanos(a), Store::Nanos(b)) = (&mut self.samples, &other.samples) {
            a.extend_from_slice(b);
        } else {
            self.secs_mut().extend(other.samples.iter());
        }
        self.sorted = false;
    }

    /// Read-only view of the raw samples, in insertion order unless
    /// [`Summary::cdf`] sorted them. Iterating the view reads each sample
    /// as `f64` in place; see [`Samples`] for its slice.
    pub fn samples(&self) -> Samples<'_> {
        Samples {
            store: &self.samples,
            widened: OnceCell::new(),
        }
    }
}

/// Prints what `#[derive(Debug)]` printed when every summary held
/// `f64`s, from either store: golden tests hash reports' `Debug` text.
impl fmt::Debug for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Summary")
            .field("samples", &self.samples())
            .field("sorted", &self.sorted)
            .finish()
    }
}

/// Compares the samples as `f64` values in order, and the sort state,
/// as `#[derive(PartialEq)]` did when every summary held `f64`s.
impl PartialEq for Summary {
    fn eq(&self, other: &Summary) -> bool {
        self.sorted == other.sorted
            && match (&self.samples, &other.samples) {
                (Store::Secs(a), Store::Secs(b)) => a == b,
                // `as_secs` is one-to-one on 32-bit nanoseconds.
                (Store::Nanos(a), Store::Nanos(b)) => a == b,
                _ => self.len() == other.len() && self.samples.iter().eq(other.samples.iter()),
            }
    }
}

/// A read-only view of a [`Summary`]'s samples, from
/// [`Summary::samples`].
///
/// Iterating the view yields each sample as `f64` without copying the
/// store. It also derefs to `[f64]`: a summary of `f64` samples lends
/// its own slice, while one of nanoseconds is widened into a vector the
/// view holds, at the first slice access and only then.
pub struct Samples<'a> {
    store: &'a Store,
    widened: OnceCell<Vec<f64>>,
}

impl Deref for Samples<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self.store {
            Store::Secs(v) => v,
            Store::Nanos(v) => self
                .widened
                .get_or_init(|| v.iter().map(|&n| n.secs()).collect()),
        }
    }
}

impl<'a> IntoIterator for Samples<'a> {
    type Item = f64;
    type IntoIter = SampleIter<'a>;

    fn into_iter(self) -> SampleIter<'a> {
        self.store.iter()
    }
}

/// Prints the samples as a list of `f64`s, as `Vec<f64>` does.
impl fmt::Debug for Samples<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.store.iter()).finish()
    }
}

/// The samples of a [`Summary`] as `f64`, in stored order.
#[derive(Clone)]
pub struct SampleIter<'a>(Iter<'a>);

#[derive(Clone)]
enum Iter<'a> {
    Secs(slice::Iter<'a, f64>),
    Nanos(slice::Iter<'a, u32>),
}

impl Iterator for SampleIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        match &mut self.0 {
            Iter::Secs(it) => it.next().map(|&v| v.secs()),
            Iter::Nanos(it) => it.next().map(|&v| v.secs()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Iter::Secs(it) => it.size_hint(),
            Iter::Nanos(it) => it.size_hint(),
        }
    }

    // Picks the store once, not per sample: sums, counts and extremes
    // fold.
    fn fold<B, F: FnMut(B, f64) -> B>(self, init: B, f: F) -> B {
        match self.0 {
            Iter::Secs(it) => it.map(|&v| v.secs()).fold(init, f),
            Iter::Nanos(it) => it.map(|&v| v.secs()).fold(init, f),
        }
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.secs_mut().extend(iter);
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
            samples: Store::Secs(samples),
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
        let secs: Summary = [5.0, 1.0, 4.0, 2.0, 3.0].into_iter().collect();
        let nanos = Summary::from_nanos(vec![5, 1, 4, 2, 3]);
        for s in [secs, nanos] {
            let before = s.samples().to_vec();
            let _ = s.p99();
            let _ = s.percentile(37.5);
            assert_eq!(*s.samples(), *before);
        }
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
    fn max_of_negative_samples_is_the_largest() {
        let s: Summary = [-3.0, -1.0].into_iter().collect();
        assert_eq!(s.max(), -1.0);
        assert_eq!(s.min(), -3.0);
        assert_eq!(Summary::new().max(), 0.0);
    }

    #[test]
    fn nanos_read_as_duration_seconds() {
        let ns = [1_500_000_000, 0, 7, u32::MAX];
        let mut nanos = Summary::from_nanos(ns.to_vec());
        let mut secs: Summary = ns
            .iter()
            .map(|&n| SimDuration::from_nanos(u64::from(n)).as_secs())
            .collect();
        assert_eq!(nanos, secs);
        assert_eq!(format!("{nanos:?}"), format!("{secs:?}"));
        assert_eq!(format!("{nanos:#?}"), format!("{secs:#?}"));
        assert_eq!(nanos.cdf(4), secs.cdf(4));
        assert_eq!(format!("{nanos:?}"), format!("{secs:?}"), "both sorted");
        assert_eq!(*nanos.samples(), [0.0, 7e-9, 1.5, 4.294967295]);
    }

    #[test]
    fn merge_and_record_choose_the_store() {
        let nanos = || Summary::from_nanos(vec![3, 1]);
        let mut a = nanos();
        a.merge(&nanos());
        assert!(matches!(a.samples, Store::Nanos(_)), "nanos + nanos");
        let mut empty = Summary::new();
        empty.merge(&nanos());
        assert!(matches!(empty.samples, Store::Nanos(_)), "empty + nanos");
        let mut secs: Summary = [2e-9].into_iter().collect();
        secs.merge(&nanos());
        assert!(matches!(secs.samples, Store::Secs(_)), "secs + nanos");
        assert_eq!(*secs.samples(), [2e-9, 3e-9, 1e-9]);
        a.record(5e-9);
        assert!(matches!(a.samples, Store::Secs(_)), "recorded");
        assert_eq!(*a.samples(), [3e-9, 1e-9, 3e-9, 1e-9, 5e-9]);
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
