//! The benchmark's one wall-clock seam.
//!
//! Every timing in the benchmark reads the clock through [`now`]. The
//! readings only ever feed reported metrics and the run deadline; no
//! simulation input depends on them, which the report-equality checks
//! (traced vs untraced, 1 vs 2 threads) verify on every run.

// simlint: allow(R2) reason="benchmark wall-clock seam; readings are reporting-only and never feed simulation state"
use std::time::Instant;

/// The current wall-clock instant.
// Wall-clock is this benchmark's measurand; see the simlint allow above.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    // simlint: allow(R2) reason="the audited seam itself"
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}
