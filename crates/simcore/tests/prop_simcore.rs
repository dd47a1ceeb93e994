//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simcore::stats::Summary;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};

/// Nanosecond samples: 0, 1, the two largest, small values that repeat,
/// and any 32-bit value.
fn nanos() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1u32),
        Just(u32::MAX - 1),
        Just(u32::MAX),
        0u32..8,
        any::<u32>(),
    ]
}

/// Each nanosecond sample in seconds, as [`SimDuration::as_secs`] gives
/// it.
fn as_secs(ns: &[u32]) -> Vec<f64> {
    ns.iter()
        .map(|&n| SimDuration::from_nanos(u64::from(n)).as_secs())
        .collect()
}

/// The pre-quickselect percentile: full sort, then interpolate between
/// the two straddling order statistics.
fn sort_based_percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Query points drawn for [`same_answers`], besides the fixed ones and
/// each sample's own value.
struct Queries {
    p: f64,
    thresholds: Vec<f64>,
    k: usize,
}

fn cdf_bits(cdf: &[(f64, f64)]) -> Vec<(u64, u64)> {
    cdf.iter()
        .map(|(v, q)| (v.to_bits(), q.to_bits()))
        .collect()
}

/// Fails unless `got` answers every query with the bits `want` does,
/// compares equal to it both ways and prints the same `Debug` text,
/// before and after `cdf` sorts both.
fn same_answers(got: &Summary, want: &Summary, q: &Queries) -> Result<(), TestCaseError> {
    let (mut got, mut want) = (got.clone(), want.clone());
    for sorted in [false, true] {
        prop_assert_eq!(got.len(), want.len());
        for p in [q.p, 0.0, 50.0, 99.0, 100.0] {
            let (g, w) = (got.percentile(p), want.percentile(p));
            prop_assert_eq!(g.to_bits(), w.to_bits(), "P{} {} vs {}", p, g, w);
        }
        let pairs = [
            ("p50", got.p50(), want.p50()),
            ("p99", got.p99(), want.p99()),
            ("mean", got.mean(), want.mean()),
            ("max", got.max(), want.max()),
            ("min", got.min(), want.min()),
        ];
        for (name, g, w) in pairs {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "{} {} vs {}", name, g, w);
        }
        for &t in q.thresholds.iter().chain(want.samples().iter()) {
            let (g, w) = (got.fraction_le(t), want.fraction_le(t));
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "fraction_le({}) {} vs {}",
                t,
                g,
                w
            );
        }
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "sorted {}", sorted);
        prop_assert!(got == want, "got == want, sorted {}", sorted);
        prop_assert!(want == got, "want == got, sorted {}", sorted);
        prop_assert_eq!(cdf_bits(&got.cdf(q.k)), cdf_bits(&want.cdf(q.k)));
    }
    Ok(())
}

proptest! {
    /// Events pop in non-decreasing time order regardless of push order,
    /// and same-time events pop FIFO.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut popped = 0;
        while let Some((t, idx, _)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    if times[prev] == times[idx] {
                        prop_assert!(idx > prev, "FIFO violated at equal timestamps");
                    }
                }
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancelled events never surface; everything else does.
    #[test]
    fn event_queue_cancellation(
        times in prop::collection::vec(0u64..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            handles.push(q.push(SimTime::from_nanos(t), i));
        }
        let mut cancelled = std::collections::HashSet::new();
        for (i, (&h, c)) in handles.iter().zip(cancel_mask.iter().cycle()).enumerate() {
            if *c && q.cancel(h) {
                cancelled.insert(i);
            }
        }
        let mut surfaced = std::collections::HashSet::new();
        while let Some((_, idx, _)) = q.pop() {
            surfaced.insert(idx);
        }
        prop_assert!(surfaced.is_disjoint(&cancelled));
        prop_assert_eq!(surfaced.len() + cancelled.len(), times.len());
    }

    /// Percentiles are bounded by min/max, monotone in p, and the CDF is
    /// non-decreasing.
    #[test]
    fn summary_percentile_properties(samples in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s: Summary = samples.iter().copied().collect();
        let (min, max) = (s.min(), s.max().max(s.min()));
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prop_assert!(v >= last - 1e-12);
            last = v;
        }
        let cdf = s.cdf(16);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 + 1e-12);
        }
    }

    /// The quickselect percentile matches the old sort-based
    /// implementation exactly (same interpolation, same order statistics)
    /// and never reorders the underlying samples, in either store.
    #[test]
    fn percentile_matches_sort_based_reference(
        samples in prop::collection::vec(-1e6f64..1e6, 1..300),
        ns in prop::collection::vec(nanos(), 1..300),
        p in 0f64..100.0,
    ) {
        let secs: Summary = samples.iter().copied().collect();
        let stores = [(secs, samples), (Summary::from_nanos(ns.clone()), as_secs(&ns))];
        for (s, samples) in stores {
            let before = s.samples().to_vec();
            prop_assert_eq!(s.percentile(p), sort_based_percentile(&samples, p));
            prop_assert_eq!(*s.samples(), *before);
        }
    }

    /// A summary of 32-bit nanoseconds answers every query with the bits
    /// of the same samples recorded as `f64` seconds: on its own, after
    /// merging in each of the four store pairings, and after recording.
    #[test]
    fn nanos_store_matches_widened_secs(
        a in prop::collection::vec(nanos(), 0..200),
        b in prop::collection::vec(nanos(), 0..200),
        p in 0f64..100.0,
        thresholds in prop::collection::vec(0f64..4.5, 0..8),
        k in 0usize..40,
        extra in 0f64..5.0,
    ) {
        let q = Queries { p, thresholds, k };
        let (nanos_a, secs_a) = (Summary::from_nanos(a.clone()), Summary::from(as_secs(&a)));
        let (nanos_b, secs_b) = (Summary::from_nanos(b.clone()), Summary::from(as_secs(&b)));
        same_answers(&nanos_a, &secs_a, &q)?;
        let reference = Summary::from([as_secs(&a), as_secs(&b)].concat());
        for (x, y) in [
            (&nanos_a, &nanos_b),
            (&nanos_a, &secs_b),
            (&secs_a, &nanos_b),
            (&secs_a, &secs_b),
        ] {
            let mut merged = x.clone();
            merged.merge(y);
            same_answers(&merged, &reference, &q)?;
        }
        let (mut nanos_a, mut secs_a) = (nanos_a, secs_a);
        nanos_a.record(extra);
        secs_a.record(extra);
        same_answers(&nanos_a, &secs_a, &q)?;
    }

    /// fraction_le is a proper CDF point: monotone in the threshold and
    /// consistent with percentile.
    #[test]
    fn fraction_le_monotone(samples in prop::collection::vec(0f64..100.0, 1..200)) {
        let s: Summary = samples.iter().copied().collect();
        let mut last = 0.0;
        for t in [0.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
            let f = s.fraction_le(t);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last);
            last = f;
        }
        prop_assert_eq!(s.fraction_le(100.0), 1.0);
    }

    /// Time arithmetic is consistent: (t + d) - t == d for representable
    /// values.
    #[test]
    fn time_add_sub_roundtrip(base in 0u64..u64::MAX / 2, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert!(t + d >= t);
    }

    /// The RNG's uniform range output is always in range and covers it.
    #[test]
    fn rng_range_bounds(seed in any::<u64>(), n in 1u64..1000) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_range(n) < n);
        }
    }

    /// Split streams never mirror the parent.
    #[test]
    fn rng_split_diverges(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from(seed);
        let mut child = parent.split();
        let same = (0..32).filter(|_| parent.next_u64() == child.next_u64()).count();
        prop_assert!(same < 4);
    }
}
