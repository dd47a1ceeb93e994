//! Goodput search: the highest request rate served under SLO (Fig. 15).

use crate::metrics::Report;

/// One point of an SLO-attainment sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputPoint {
    /// Offered request rate (requests/second).
    pub rate: f64,
    /// P99 TBT in seconds.
    pub p99_tbt: f64,
    /// P99 TTFT in seconds.
    pub p99_ttft: f64,
    /// Fraction of TBT samples within SLO.
    pub attainment: f64,
    /// Whether the system kept up with the load.
    pub stable: bool,
    /// Output-token throughput.
    pub token_throughput: f64,
    /// GPU utilization.
    pub utilization: f64,
}

impl GoodputPoint {
    /// Builds a point from a run report.
    pub fn from_report(rate: f64, report: &Report) -> GoodputPoint {
        GoodputPoint {
            rate,
            p99_tbt: report.tbt.p99(),
            p99_ttft: report.ttft.p99(),
            attainment: report.tbt_attainment(),
            stable: report.is_stable(),
            token_throughput: report.token_throughput(),
            utilization: report.utilization,
        }
    }

    /// The paper's pass criterion: stable and P99 TBT within target.
    pub fn passes(&self, tbt_slo_secs: f64) -> bool {
        self.stable && self.p99_tbt <= tbt_slo_secs * 1.0001
    }
}

/// Result of a rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputResult {
    /// All evaluated points, in rate order.
    pub points: Vec<GoodputPoint>,
    /// Highest passing rate (requests/second); 0 if none passed.
    pub goodput_rate: f64,
    /// Token throughput at the goodput rate.
    pub goodput_tokens_per_sec: f64,
    /// Utilization at the goodput rate.
    pub goodput_utilization: f64,
}

/// Sweeps `rates` (ascending), running `run_at` for each, and stopping
/// after the first failing rate beyond a passing one (the paper stops
/// "once the serving system becomes unstable or fails to meet the TBT
/// SLO").
///
/// # Panics
///
/// Panics if `rates` is empty or not strictly increasing.
pub fn find_goodput(
    rates: &[f64],
    tbt_slo_secs: f64,
    mut run_at: impl FnMut(f64) -> Report,
) -> GoodputResult {
    assert_ascending(rates);
    let points = rates
        .iter()
        .map(|&rate| GoodputPoint::from_report(rate, &run_at(rate)));
    sweep(points, tbt_slo_secs)
}

/// Builds a [`GoodputResult`] from points that were evaluated eagerly
/// (e.g. by a parallel sweep that ran every rate concurrently), applying
/// the same early-stop truncation as [`find_goodput`]: points after the
/// first failing rate beyond a passing one are dropped, so the result is
/// identical to what the sequential sweep would have produced.
///
/// # Panics
///
/// Panics if the point rates are empty or not strictly increasing.
pub fn assemble_goodput(points: Vec<GoodputPoint>, tbt_slo_secs: f64) -> GoodputResult {
    let rates: Vec<f64> = points.iter().map(|p| p.rate).collect();
    assert_ascending(&rates);
    sweep(points, tbt_slo_secs)
}

/// A goodput knee measured twice: on healthy hardware and at a fixed
/// fault intensity (ROADMAP "fault-aware goodput search").
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyGoodput {
    /// The sweep with no faults injected.
    pub healthy: GoodputResult,
    /// The sweep with every run under `intensity` faults.
    pub faulty: GoodputResult,
    /// Fault intensity in `[0, 1]` the faulty sweep ran at.
    pub intensity: f64,
}

impl FaultyGoodput {
    /// Absolute goodput lost to the faults (requests/second; ≥ 0 when
    /// the fault model only removes capacity).
    pub fn rate_lost(&self) -> f64 {
        self.healthy.goodput_rate - self.faulty.goodput_rate
    }
}

/// Runs [`find_goodput`] twice — once healthy, once at `intensity` —
/// over the same rate grid. `run_at(rate, intensity)` must run the
/// system at `rate` under a fault plan of the given intensity
/// (`0.0` = [`crate::FaultPlan::none`]-equivalent). The faulty knee is
/// expected at or below the healthy one whenever faults remove capacity.
///
/// # Panics
///
/// Panics if `rates` is empty or not strictly increasing.
pub fn find_goodput_faulty(
    rates: &[f64],
    tbt_slo_secs: f64,
    intensity: f64,
    mut run_at: impl FnMut(f64, f64) -> Report,
) -> FaultyGoodput {
    let healthy = find_goodput(rates, tbt_slo_secs, |r| run_at(r, 0.0));
    let faulty = find_goodput(rates, tbt_slo_secs, |r| run_at(r, intensity));
    FaultyGoodput {
        healthy,
        faulty,
        intensity,
    }
}

fn assert_ascending(rates: &[f64]) {
    assert!(!rates.is_empty(), "empty rate sweep");
    assert!(
        rates.windows(2).all(|w| w[0] < w[1]),
        "rates must be strictly increasing"
    );
}

/// The one early-stop rule: takes the `evaluated` points in rate order
/// up to and including the first failing rate beyond a passing one, and
/// reports the highest passing rate. `evaluated` is pulled lazily, so a
/// sweep that runs each point on demand runs no point past the stop.
fn sweep(evaluated: impl IntoIterator<Item = GoodputPoint>, tbt_slo_secs: f64) -> GoodputResult {
    let mut points = Vec::new();
    let mut passed = false;
    for point in evaluated {
        let pass = point.passes(tbt_slo_secs);
        points.push(point);
        if !pass && passed {
            break;
        }
        passed |= pass;
    }
    let best = points.iter().rfind(|p| p.passes(tbt_slo_secs));
    let (rate, toks, util) = best
        .map(|p| (p.rate, p.token_throughput, p.utilization))
        .unwrap_or((0.0, 0.0, 0.0));
    GoodputResult {
        goodput_rate: rate,
        goodput_tokens_per_sec: toks,
        goodput_utilization: util,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRecorder;
    use crate::request::SloSpec;
    use simcore::{SimDuration, SimTime};

    /// Fabricates a report whose P99 TBT grows with rate and that goes
    /// unstable past a knee.
    fn fake_report(rate: f64) -> Report {
        let mut m = MetricsRecorder::new(1);
        let tbt = 0.02 + 0.01 * rate;
        m.emit_tokens(0, SimTime::from_secs(1.0), 1);
        m.emit_tokens(0, SimTime::from_secs(1.0 + tbt), 1);
        if rate <= 8.0 {
            m.finish(0, SimTime::from_secs(2.0), SimTime::ZERO);
        }
        m.report(
            &[SimTime::ZERO],
            SimDuration::from_secs(10.0),
            &SloSpec::llama70b(),
        )
    }

    /// A point at `rate` that passes a 100 ms TBT target iff `pass`,
    /// its throughput and utilization tagged with its rate.
    fn point(rate: f64, pass: bool) -> GoodputPoint {
        GoodputPoint {
            rate,
            p99_tbt: if pass { 0.05 } else { 0.2 },
            p99_ttft: 1.0,
            attainment: if pass { 1.0 } else { 0.5 },
            stable: true,
            token_throughput: 100.0 * rate,
            utilization: rate / 100.0,
        }
    }

    #[test]
    fn finds_knee_rate() {
        let rates = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let mut runs = 0;
        let res = find_goodput(&rates, 0.100, |rate| {
            runs += 1;
            fake_report(rate)
        });
        // TBT crosses 100ms at rate 8 (0.02+0.08=0.10 ok) and fails at
        // rate 10 (0.12) — and rate 10 is also unstable.
        assert_eq!(res.goodput_rate, 8.0);
        // Sweep stops after first failure beyond a pass, without running
        // the rates past it.
        assert_eq!(res.points.len(), 5);
        assert_eq!(runs, 5);
    }

    #[test]
    fn no_passing_rate_yields_zero() {
        let res = find_goodput(&[5.0, 10.0], 0.001, fake_report);
        assert_eq!(res.goodput_rate, 0.0);
        assert_eq!(res.goodput_tokens_per_sec, 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_rates() {
        find_goodput(&[2.0, 1.0], 0.1, fake_report);
    }

    #[test]
    fn faulty_knee_at_or_below_healthy() {
        // Faults raise TBT: model intensity as an extra per-token delay,
        // so the faulty sweep's knee lands strictly below the healthy
        // one.
        let rates = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let res = find_goodput_faulty(&rates, 0.100, 0.5, |rate, intensity| {
            fake_report(rate + 4.0 * intensity)
        });
        assert_eq!(res.healthy.goodput_rate, 8.0);
        assert_eq!(res.faulty.goodput_rate, 6.0);
        assert!(res.faulty.goodput_rate <= res.healthy.goodput_rate);
        assert!((res.rate_lost() - 2.0).abs() < 1e-12);
        assert_eq!(res.intensity, 0.5);
    }

    #[test]
    fn assemble_matches_sequential_sweep() {
        // An eager evaluation of every rate, then truncation, must equal
        // the lazily short-circuited sweep bit for bit.
        let rates = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let eager: Vec<GoodputPoint> = rates
            .iter()
            .map(|&r| GoodputPoint::from_report(r, &fake_report(r)))
            .collect();
        let assembled = super::assemble_goodput(eager, 0.100);
        let sequential = find_goodput(&rates, 0.100, fake_report);
        assert_eq!(assembled, sequential);
    }

    #[test]
    fn point_reads_its_columns_off_the_report() {
        let report = fake_report(4.0);
        let p = GoodputPoint::from_report(4.0, &report);
        assert_eq!(p.rate, 4.0);
        assert_eq!(p.p99_tbt, report.tbt.p99());
        assert_eq!(p.p99_ttft, report.ttft.p99());
        assert_eq!(p.attainment, report.tbt_attainment());
        assert_eq!(p.token_throughput, report.token_throughput());
        assert_eq!(p.utilization, report.utilization);
        assert!(p.stable);
        assert!(!GoodputPoint::from_report(10.0, &fake_report(10.0)).stable);
    }

    #[test]
    fn passing_needs_stability_and_p99_tbt_within_target() {
        let mut p = point(1.0, true);
        p.p99_tbt = 0.100;
        assert!(p.passes(0.100));
        // 0.01 % of slack absorbs float noise at the boundary.
        p.p99_tbt = 0.100 * 1.00005;
        assert!(p.passes(0.100));
        p.p99_tbt = 0.100 * 1.001;
        assert!(!p.passes(0.100));
        p.p99_tbt = 0.05;
        p.stable = false;
        assert!(!p.passes(0.100));
    }

    #[test]
    fn failures_before_the_first_pass_do_not_stop_the_sweep() {
        let res = assemble_goodput(
            vec![
                point(1.0, false),
                point(2.0, false),
                point(3.0, true),
                point(4.0, false),
                point(5.0, true),
            ],
            0.100,
        );
        assert_eq!(res.goodput_rate, 3.0);
        assert_eq!(res.points.len(), 4);
    }

    #[test]
    fn a_sweep_with_no_pass_runs_every_rate() {
        let rates = [2.0, 4.0, 6.0];
        let mut runs = 0;
        let res = find_goodput(&rates, 0.001, |rate| {
            runs += 1;
            fake_report(rate)
        });
        assert_eq!(runs, 3);
        assert_eq!(res.points.len(), 3);
        assert_eq!(res.goodput_rate, 0.0);
    }

    #[test]
    fn an_all_passing_sweep_keeps_every_point() {
        let res = find_goodput(&[2.0, 4.0, 6.0], 0.100, fake_report);
        assert_eq!(res.points.len(), 3);
        assert_eq!(res.goodput_rate, 6.0);
    }

    #[test]
    fn a_pass_beyond_the_stop_is_never_run() {
        // Rate 4 fails after rate 2 passed; rate 6 would pass again but
        // the sweep has stopped.
        let mut ran = Vec::new();
        let res = find_goodput(&[2.0, 4.0, 6.0], 0.100, |rate| {
            ran.push(rate);
            fake_report(if rate == 4.0 { 12.0 } else { 2.0 })
        });
        assert_eq!(ran, [2.0, 4.0]);
        assert_eq!(res.goodput_rate, 2.0);
        assert_eq!(res.points.len(), 2);
    }

    #[test]
    fn assemble_drops_a_pass_beyond_the_stop() {
        let res = assemble_goodput(
            vec![point(2.0, true), point(4.0, false), point(6.0, true)],
            0.100,
        );
        assert_eq!(res.goodput_rate, 2.0);
        assert_eq!(res.points, [point(2.0, true), point(4.0, false)]);
    }

    #[test]
    fn goodput_columns_come_from_the_best_passing_point() {
        let res = assemble_goodput(
            vec![point(2.0, true), point(4.0, true), point(6.0, false)],
            0.100,
        );
        assert_eq!(res.goodput_rate, 4.0);
        assert_eq!(res.goodput_tokens_per_sec, 400.0);
        assert_eq!(res.goodput_utilization, 0.04);
        assert_eq!(res.points.last().map(|p| p.rate), Some(6.0));
    }

    #[test]
    #[should_panic(expected = "empty rate sweep")]
    fn assemble_rejects_an_empty_sweep() {
        assemble_goodput(Vec::new(), 0.1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn assemble_rejects_a_repeated_rate() {
        assemble_goodput(vec![point(2.0, true), point(2.0, true)], 0.1);
    }

    #[test]
    fn faulty_sweep_runs_healthy_first_then_at_the_intensity() {
        let mut calls = Vec::new();
        find_goodput_faulty(&[2.0, 4.0], 0.100, 0.5, |rate, intensity| {
            calls.push((rate, intensity));
            fake_report(rate)
        });
        assert_eq!(calls, [(2.0, 0.0), (4.0, 0.0), (2.0, 0.5), (4.0, 0.5)]);
    }
}
