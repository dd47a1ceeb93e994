//! Report digests: the benchmark compares runs that must agree (repeats
//! of one seed, traced vs untraced, 1 vs 2 threads, bare vs wrapped
//! engines) by a hash of every report field instead of keeping whole
//! reports, whose latency samples would inflate the measured memory.
//! The destructuring below names every field, so a field added to
//! `Report` or `FleetReport` fails to compile here until it is hashed.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use fleet::FleetReport;
use serving::Report;
use simcore::stats::Summary;

fn summary(h: &mut DefaultHasher, s: &Summary) {
    s.len().hash(h);
    for v in s.samples() {
        v.to_bits().hash(h);
    }
}

fn report_into(h: &mut DefaultHasher, r: &Report) {
    let Report {
        ttft,
        tbt,
        tpot,
        e2e,
        ttft_per_token,
        finished,
        total,
        total_tokens,
        shed,
        cancelled,
        cancelled_tokens,
        makespan,
        slo,
        utilization,
        bubble_ratio,
        diverged,
        recovery_secs,
        recovery,
        counters,
    } = r;
    for s in [ttft, tbt, tpot, e2e, ttft_per_token] {
        summary(h, s);
    }
    (
        finished,
        total,
        total_tokens,
        shed,
        cancelled,
        cancelled_tokens,
    )
        .hash(h);
    (utilization.to_bits(), bubble_ratio.to_bits(), diverged).hash(h);
    recovery_secs.map(f64::to_bits).hash(h);
    // The remaining fields are small; their Debug text is exact (floats
    // print in shortest round-trip form).
    format!("{makespan:?} {slo:?} {recovery:?} {counters:?}").hash(h);
}

/// A hash of every field of a single-instance report.
pub fn report(r: &Report) -> u64 {
    let mut h = DefaultHasher::new();
    report_into(&mut h, r);
    h.finish()
}

/// A hash of every field of a fleet report.
pub fn fleet(r: &FleetReport) -> u64 {
    let FleetReport {
        labels,
        reports,
        events,
        routed,
        routing,
        failover,
        replication,
        health,
        hedge,
        overload,
    } = r;
    let mut h = DefaultHasher::new();
    (labels, events, routed).hash(&mut h);
    for m in reports {
        report_into(&mut h, m);
    }
    format!("{routing:?} {failover:?} {replication:?} {health:?} {hedge:?} {overload:?}")
        .hash(&mut h);
    h.finish()
}
