//! Run helpers: single traces, rate sweeps, formatted output.

use gpusim::GpuSim;
use serving::{find_goodput, Driver, GoodputResult, Report};
use simcore::{SimRng, SimTime};
use workload::{generate, RequestSpec, WorkloadKind};

use crate::systems::{SystemKind, Testbed};

/// Runs one system over a fixed request trace.
pub fn run_trace(tb: &Testbed, kind: SystemKind, reqs: Vec<RequestSpec>) -> Option<Report> {
    let mut engine = tb.build(kind)?;
    let gpu = GpuSim::from_cluster(&tb.cluster);
    Some(Driver::new(gpu, reqs, tb.slo).run(engine.as_mut()))
}

/// Runs one system over `n` requests of `workload` at a Poisson `rate`
/// with a deterministic seed.
pub fn run_poisson(
    tb: &Testbed,
    kind: SystemKind,
    workload: WorkloadKind,
    n: usize,
    rate: f64,
    seed: u64,
) -> Option<Report> {
    let mut rng = SimRng::seed_from(seed);
    let reqs = generate(workload, n, rate, &mut rng);
    run_trace(tb, kind, reqs)
}

/// Runs one rate point with stability detection: the horizon grants
/// enough grace for the workload's intrinsic service time (long-output
/// workloads need minutes of decode after the last arrival), and queue
/// divergence (P99 TTFT comparable to the trace span) marks the report
/// unstable.
pub fn stability_run(
    tb: &Testbed,
    kind: SystemKind,
    workload: WorkloadKind,
    n: usize,
    rate: f64,
    seed: u64,
) -> Option<Report> {
    stability_run_stats(tb, kind, workload, n, rate, seed).map(|(report, _)| report)
}

/// [`stability_run`] variant that also returns the engine's decode
/// coalescing counters `(total iterations, macro-coalesced iterations)`
/// — zero for engines without a macro-stepped fast path. The report is
/// bit-identical to [`stability_run`]'s.
pub fn stability_run_stats(
    tb: &Testbed,
    kind: SystemKind,
    workload: WorkloadKind,
    n: usize,
    rate: f64,
    seed: u64,
) -> Option<(Report, (u64, u64))> {
    stability_run_full(tb, kind, workload, n, rate, seed).map(|(report, iters, _)| (report, iters))
}

/// [`stability_run_stats`] variant that additionally returns the
/// simulator's boundary-event count, for events/wall-second reporting.
/// The report stays bit-identical to [`stability_run`]'s.
pub fn stability_run_full(
    tb: &Testbed,
    kind: SystemKind,
    workload: WorkloadKind,
    n: usize,
    rate: f64,
    seed: u64,
) -> Option<(Report, (u64, u64), u64)> {
    let mut rng = SimRng::seed_from(seed);
    let reqs = generate(workload, n, rate, &mut rng);
    let max_out = reqs.iter().map(|r| r.output_tokens).max().unwrap_or(0) as f64;
    // Service-time allowance: even the longest response must be able to
    // finish after the last arrival; decode iterations run well under
    // the TBT target, so half the target per output token is a generous
    // bound. Overload is still caught by the TTFT-divergence check.
    let grace = (60.0 + max_out * tb.slo.tbt.as_secs() * 0.35).min(1_800.0);
    let span = n as f64 / rate;
    let horizon = reqs
        .last()
        .map(|r| r.arrival + simcore::SimDuration::from_secs(grace))
        .unwrap_or(SimTime::from_secs(grace));
    let mut engine = tb.build(kind)?;
    let gpu = GpuSim::from_cluster(&tb.cluster);
    let (mut report, events) = Driver::new(gpu, reqs, tb.slo)
        .with_max_sim_time(horizon)
        .run_stats(engine.as_mut());
    if report.ttft.p99() > 0.5 * span {
        report.diverged = true;
    }
    Some((report, engine.decode_iter_stats(), events))
}

/// Goodput search for one system: sweeps the given rates (Fig. 15).
pub fn goodput_sweep(
    tb: &Testbed,
    kind: SystemKind,
    workload: WorkloadKind,
    n: usize,
    rates: &[f64],
    seed: u64,
) -> Option<GoodputResult> {
    tb.build(kind)?;
    Some(find_goodput(rates, tb.slo.tbt.as_secs(), |rate| {
        stability_run(tb, kind, workload, n, rate, seed).expect("system buildable (checked above)")
    }))
}

/// Builds the two scaled real-world traces of Fig. 13/14 for the given
/// base rate.
pub fn real_world_trace(
    workload: WorkloadKind,
    duration_secs: usize,
    base_rate: f64,
    seed: u64,
) -> Vec<RequestSpec> {
    let rates = match workload {
        WorkloadKind::Conversation => {
            workload::arrivals::conversation_trace_rates(duration_secs, base_rate)
        }
        _ => workload::arrivals::tool_agent_trace_rates(duration_secs, base_rate),
    };
    let mut rng = SimRng::seed_from(seed);
    let times = workload::arrivals::nonhomogeneous_poisson(&rates, &mut rng);
    let turns = workload::generate_turns(workload, times.len(), &mut rng);
    workload::assign_arrivals(turns, &times)
}

/// One row of the standard latency table (Fig. 14 / Tables 3-4 format).
#[derive(Debug, serde::Serialize)]
pub struct LatencyRow {
    /// System name.
    pub system: String,
    /// Average TTFT (s).
    pub ttft_avg: f64,
    /// Median TTFT (s).
    pub ttft_p50: f64,
    /// P99 TTFT (s).
    pub ttft_p99: f64,
    /// Average TBT (ms).
    pub tbt_avg_ms: f64,
    /// Median TBT (ms).
    pub tbt_p50_ms: f64,
    /// P99 TBT (ms).
    pub tbt_p99_ms: f64,
    /// Average end-to-end latency (s).
    pub e2e_avg: f64,
    /// Median end-to-end latency (s).
    pub e2e_p50: f64,
    /// Average TPOT (ms).
    pub tpot_avg_ms: f64,
    /// Median TPOT (ms).
    pub tpot_p50_ms: f64,
    /// Whether the system kept up with the load.
    pub stable: bool,
    /// Requests finished / submitted.
    pub finished: usize,
    /// Total requests.
    pub total: usize,
    /// Decode slots forcibly requeued under pool pressure.
    pub requeues: u64,
    /// Requests dropped because they could never fit the pool.
    pub drops: u64,
    /// Requests intentionally shed by the driver's watchdog (a subset of
    /// `drops`; zero when no watchdog is installed).
    pub shed: usize,
}

impl LatencyRow {
    /// Extracts the row from a run report.
    pub fn from_report(system: &str, r: &Report) -> LatencyRow {
        LatencyRow {
            system: system.to_string(),
            ttft_avg: r.ttft.mean(),
            ttft_p50: r.ttft.p50(),
            ttft_p99: r.ttft.p99(),
            tbt_avg_ms: r.tbt.mean() * 1e3,
            tbt_p50_ms: r.tbt.p50() * 1e3,
            tbt_p99_ms: r.tbt.p99() * 1e3,
            e2e_avg: r.e2e.mean(),
            e2e_p50: r.e2e.p50(),
            tpot_avg_ms: r.tpot.mean() * 1e3,
            tpot_p50_ms: r.tpot.p50() * 1e3,
            stable: r.is_stable(),
            finished: r.finished,
            total: r.total,
            requeues: r.counters.requeues,
            drops: r.counters.drops,
            shed: r.shed,
        }
    }

    /// Prints the table header.
    pub fn print_header() {
        println!(
            "{:<11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>7} {:>5} {:>4}  state",
            "system",
            "ttftAvg",
            "ttftP50",
            "ttftP99",
            "tbtAvg",
            "tbtP50",
            "tbtP99",
            "e2eAvg",
            "e2eP50",
            "tpotAvg",
            "tpotP50",
            "requeue",
            "drops",
            "shed"
        );
    }

    /// Prints one formatted row.
    pub fn print(&self) {
        println!(
            "{:<11} {:>8.2}s {:>8.2}s {:>8.2}s {:>7.1}ms {:>7.1}ms {:>7.1}ms {:>7.1}s {:>7.1}s {:>7.1}ms {:>7.1}ms {:>7} {:>5} {:>4}  {}",
            self.system,
            self.ttft_avg,
            self.ttft_p50,
            self.ttft_p99,
            self.tbt_avg_ms,
            self.tbt_p50_ms,
            self.tbt_p99_ms,
            self.e2e_avg,
            self.e2e_p50,
            self.tpot_avg_ms,
            self.tpot_p50_ms,
            self.requeues,
            self.drops,
            self.shed,
            if self.stable {
                "stable".to_string()
            } else {
                format!("UNSTABLE ({}/{})", self.finished, self.total)
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_run_is_deterministic() {
        let tb = Testbed::llama8b_a100();
        let a = run_poisson(&tb, SystemKind::Chunked, WorkloadKind::ShareGpt, 30, 2.0, 7)
            .expect("buildable");
        let b = run_poisson(&tb, SystemKind::Chunked, WorkloadKind::ShareGpt, 30, 2.0, 7)
            .expect("buildable");
        assert_eq!(a.ttft.p99(), b.ttft.p99());
        assert_eq!(a.total_tokens, b.total_tokens);
        assert_eq!(a, b);
    }

    #[test]
    fn real_world_trace_is_bursty_and_ordered() {
        let reqs = real_world_trace(WorkloadKind::Conversation, 300, 1.0, 3);
        assert!(!reqs.is_empty());
        for w in reqs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }

    #[test]
    fn latency_row_roundtrip() {
        let tb = Testbed::llama8b_a100();
        let rep = run_poisson(&tb, SystemKind::MuxWise, WorkloadKind::ShareGpt, 30, 2.0, 9)
            .expect("buildable");
        let row = LatencyRow::from_report("MuxWise", &rep);
        assert!(row.stable);
        assert!(row.tbt_p99_ms > 0.0);
        LatencyRow::print_header();
        row.print();
    }
}
