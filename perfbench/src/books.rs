//! Offered-request accounting.
//!
//! The repository's aggregates count per admitted copy.
//! `Report::ttft_attainment` divides by TTFT samples only, so a shed
//! request with no first token vanishes from it. `FleetReport::total`
//! counts both copies of a hedge pair and the re-admitted copy of a
//! migrated crash victim. The benchmark reports against *offered*
//! requests instead: every request the workload generated counts
//! exactly once, and a request that never got its first token in time
//! (shed, failed, cut off by the run horizon, refused at ingress) is a
//! TTFT miss.

use serving::Report;
use simcore::SimTime;

/// What happened to one admitted copy of a request on one member, as
/// observed at the scheduler boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyOutcome {
    /// The offered request this copy serves (its trace index).
    pub offered: u64,
    /// When the copy emitted its first token, if it did.
    pub first_token: Option<SimTime>,
    /// Whether the copy ran to completion.
    pub finished: bool,
}

/// Outcomes counted once per offered request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Offered {
    /// Requests the workload generated.
    pub offered: usize,
    /// Offered requests with at least one finished copy.
    pub finished: usize,
    /// Offered requests whose first token came within the TTFT SLO of
    /// their offered arrival.
    pub ttft_hits: usize,
}

impl Offered {
    /// Share of offered requests whose first token met the TTFT SLO.
    pub fn ttft_attainment(&self) -> f64 {
        ratio(self.ttft_hits, self.offered)
    }

    /// Share of offered requests that finished.
    pub fn finished_frac(&self) -> f64 {
        ratio(self.finished, self.offered)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counts a single instance's run, where request ids are the offered
/// ids and no request has a second copy.
pub fn from_report(report: &Report) -> Offered {
    let slo = report.slo.ttft.as_secs();
    Offered {
        offered: report.total,
        finished: report.finished,
        ttft_hits: report.ttft.samples().iter().filter(|&&t| t <= slo).count(),
    }
}

/// Folds per-copy outcomes into per-offered ones. `arrivals[i]` is the
/// offered arrival of request `i`. A request finished if any copy
/// finished; its TTFT runs from its offered arrival (not a migrated
/// copy's re-admission) to the earliest first token any copy produced.
///
/// # Errors
///
/// Returns an error when a copy names a request outside `arrivals`.
pub fn fold_copies(
    arrivals: &[SimTime],
    copies: impl IntoIterator<Item = CopyOutcome>,
    ttft_slo: f64,
) -> Result<Offered, String> {
    let mut first: Vec<Option<SimTime>> = vec![None; arrivals.len()];
    let mut finished = vec![false; arrivals.len()];
    for c in copies {
        let i = usize::try_from(c.offered)
            .ok()
            .filter(|&i| i < arrivals.len())
            .ok_or_else(|| format!("copy of unknown request {}", c.offered))?;
        finished[i] |= c.finished;
        if let Some(t) = c.first_token {
            first[i] = Some(first[i].map_or(t, |f| f.min(t)));
        }
    }
    let ttft_hits = first
        .iter()
        .zip(arrivals)
        .filter(|(f, &a)| f.is_some_and(|t| (t - a).as_secs() <= ttft_slo))
        .count();
    Ok(Offered {
        offered: arrivals.len(),
        finished: finished.iter().filter(|&&f| f).count(),
        ttft_hits,
    })
}

/// Whether a report's books close: each admitted copy finished, was
/// shed, or was cancelled.
pub fn books_close(r: &Report) -> bool {
    r.finished + r.shed + r.cancelled == r.total
}

#[cfg(test)]
mod tests {
    use super::*;
    use serving::{MetricsRecorder, SloSpec};
    use simcore::{SimDuration, SimRng};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn copy(offered: u64, first: Option<f64>, finished: bool) -> CopyOutcome {
        CopyOutcome {
            offered,
            first_token: first.map(t),
            finished,
        }
    }

    /// Two requests arriving at 0: one served, one shed by the
    /// watchdog before its first token.
    fn report_with_one_shed() -> Report {
        let mut m = MetricsRecorder::new(2);
        m.emit_tokens(0, t(0.1), 1);
        m.emit_tokens(0, t(0.2), 1);
        m.finish(0, t(0.2), t(0.0));
        m.mark_shed(1);
        m.report(
            &[t(0.0), t(0.0)],
            SimDuration::from_secs(1.0),
            &SloSpec::llama8b(),
        )
    }

    #[test]
    fn a_shed_request_is_a_ttft_miss() {
        let r = report_with_one_shed();
        assert_eq!(
            r.ttft_attainment(),
            1.0,
            "the per-sample figure drops sheds"
        );
        let o = from_report(&r);
        assert_eq!((o.offered, o.finished, o.ttft_hits), (2, 1, 1));
        assert_eq!(o.ttft_attainment(), 0.5);
        assert_eq!(o.finished_frac(), 0.5);
    }

    #[test]
    fn a_hedge_pair_counts_once() {
        // Request 0 was hedged and both copies finished before the race
        // was settled; request 1 was refused at ingress (no copy).
        let copies = [copy(0, Some(0.2), true), copy(0, Some(0.3), true)];
        let o = fold_copies(&[t(0.0), t(0.0)], copies, 0.5).expect("known ids");
        assert_eq!((o.offered, o.finished, o.ttft_hits), (2, 1, 1));
    }

    #[test]
    fn a_migrated_victim_counts_once_from_its_offered_arrival() {
        // Request 0 lost its member before any token; the migrated copy
        // was re-admitted at 1.8 s and answered at 2.0 s. The copy's
        // own TTFT is 0.2 s, but the user waited 2.0 s.
        let late = [copy(0, None, false), copy(0, Some(2.0), true)];
        let o = fold_copies(&[t(0.0)], late, 0.5).expect("known ids");
        assert_eq!((o.offered, o.finished, o.ttft_hits), (1, 1, 0));
        // Request 0 streamed its first token before the crash: that
        // token reached the user in time.
        let early = [copy(0, Some(0.1), false), copy(0, Some(3.0), true)];
        let o = fold_copies(&[t(0.0)], early, 0.5).expect("known ids");
        assert_eq!((o.offered, o.finished, o.ttft_hits), (1, 1, 1));
    }

    #[test]
    fn the_numerators_never_exceed_offered_requests() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..200 {
            let n = 1 + (rng.next_f64() * 8.0) as usize;
            let arrivals: Vec<SimTime> = (0..n).map(|i| t(i as f64)).collect();
            let copies: Vec<CopyOutcome> = (0..(rng.next_f64() * 30.0) as usize)
                .map(|_| {
                    let id = (rng.next_f64() * n as f64) as u64;
                    let first = (rng.next_f64() < 0.7).then(|| id as f64 + rng.next_f64());
                    copy(id, first, rng.next_f64() < 0.5)
                })
                .collect();
            let o = fold_copies(&arrivals, copies, 0.5).expect("known ids");
            assert!(o.ttft_hits <= o.offered && o.finished <= o.offered);
            assert!(o.ttft_attainment() <= 1.0 && o.finished_frac() <= 1.0);
        }
    }

    #[test]
    fn a_copy_of_an_unknown_request_is_an_error() {
        assert!(fold_copies(&[t(0.0)], [copy(1, None, true)], 0.5).is_err());
    }

    #[test]
    fn books_close_only_when_every_copy_is_resolved() {
        assert!(books_close(&report_with_one_shed()));
        let mut m = MetricsRecorder::new(2);
        m.emit_tokens(0, t(0.1), 1);
        m.finish(0, t(0.1), t(0.0));
        let open = m.report(
            &[t(0.0), t(0.0)],
            SimDuration::from_secs(1.0),
            &SloSpec::llama8b(),
        );
        assert!(!books_close(&open), "request 1 never resolved");
    }
}
