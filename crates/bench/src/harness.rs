//! Run helpers: single traces, the one experiment-point recipe, the
//! real-world traces, formatted output.

use gpusim::GpuSim;
use serving::{Driver, FaultPlan, Report, WatchdogConfig};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, RequestSpec, WorkloadKind};

use crate::sweep::SweepJob;
use crate::systems::{SystemKind, Testbed};

/// Runs one system over a fixed request trace.
pub fn run_trace(tb: &Testbed, kind: SystemKind, reqs: Vec<RequestSpec>) -> Option<Report> {
    let mut engine = tb.build(kind)?;
    let gpu = GpuSim::from_cluster(&tb.cluster);
    Some(Driver::new(gpu, reqs, tb.slo).run(engine.as_mut()))
}

/// The fault setting of one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faults {
    /// No fault plan and no watchdog.
    Healthy,
    /// A [`FaultPlan::generate_with_crashes`] schedule at this intensity
    /// in `[0, 1]`, with the driver watchdog on — at `0.0` too, so an
    /// intensity-0 point is the chaos grid's control, not a healthy
    /// point.
    Generated(f64),
    /// One crash-then-recover window, with the watchdog on; the outage
    /// extends the service-time grace.
    Crash(CrashSpec),
}

/// One crash-then-recover window: `gpu` dies at `at_secs` for
/// `down_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Device that fail-stops.
    pub gpu: u32,
    /// Crash instant (seconds into the run).
    pub at_secs: f64,
    /// Outage length (seconds).
    pub down_secs: f64,
}

/// What one experiment point produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The driver's report.
    pub report: Report,
    /// The engine's decode coalescing counters `(total iterations,
    /// macro-coalesced iterations)`; zero for engines without a
    /// macro-stepped fast path.
    pub decode_iters: (u64, u64),
    /// The simulator's boundary-event count, for events/wall-second
    /// reporting.
    pub events: u64,
}

/// Runs one experiment point with stability detection; `None` when the
/// system cannot host the model. The trace comes from the job's seed
/// (and so does a generated fault plan). The horizon grants enough
/// grace for the workload's intrinsic service time (long-output
/// workloads need minutes of decode after the last arrival), and queue
/// divergence (P99 TTFT comparable to the trace span) marks the report
/// unstable.
pub fn stability_run(job: &SweepJob<'_>) -> Option<Run> {
    let tb = job.tb;
    let mut rng = SimRng::seed_from(job.seed);
    let reqs = generate(job.workload, job.n, job.rate, &mut rng);
    let span = job.n as f64 / job.rate;
    let (plan, outage_secs) = match job.faults {
        Faults::Healthy => (None, 0.0),
        Faults::Generated(intensity) => {
            let gpus = tb.cluster.num_gpus;
            let plan = FaultPlan::generate_with_crashes(job.seed, intensity, span, gpus);
            (Some(plan), 0.0)
        }
        Faults::Crash(crash) => {
            let at = SimTime::from_secs(crash.at_secs);
            let down = SimDuration::from_secs(crash.down_secs);
            (Some(FaultPlan::crash(crash.gpu, at, down)), crash.down_secs)
        }
    };
    let max_out = reqs.iter().map(|r| r.output_tokens).max().unwrap_or(0) as f64;
    // Service-time allowance: even the longest response must be able to
    // finish after the last arrival; decode iterations run well under
    // the TBT target, so half the target per output token is a generous
    // bound. Overload is still caught by the TTFT-divergence check.
    let grace = (60.0 + outage_secs + max_out * tb.slo.tbt.as_secs() * 0.35).min(1_800.0);
    let horizon = reqs
        .last()
        .map(|r| r.arrival + SimDuration::from_secs(grace))
        .unwrap_or(SimTime::from_secs(grace));
    let mut engine = tb.build(job.kind)?;
    let gpu = GpuSim::from_cluster(&tb.cluster);
    let mut driver = Driver::new(gpu, reqs, tb.slo).with_max_sim_time(horizon);
    if let Some(plan) = plan {
        driver = driver
            .with_faults(plan)
            .with_watchdog(WatchdogConfig::default());
    }
    let (mut report, events) = driver.run_stats(engine.as_mut());
    if report.ttft.p99() > 0.5 * span {
        report.diverged = true;
    }
    Some(Run {
        report,
        decode_iters: engine.decode_iter_stats(),
        events,
    })
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

    fn poisson(n: usize, rate: f64, seed: u64) -> Vec<RequestSpec> {
        generate(
            WorkloadKind::ShareGpt,
            n,
            rate,
            &mut SimRng::seed_from(seed),
        )
    }

    /// A ShareGPT point of `n` requests at `rate`.
    fn point(
        tb: &Testbed,
        kind: SystemKind,
        n: usize,
        rate: f64,
        seed: u64,
        faults: Faults,
    ) -> Report {
        let job = SweepJob {
            tb,
            kind,
            workload: WorkloadKind::ShareGpt,
            n,
            rate,
            seed,
            faults,
        };
        stability_run(&job).expect("buildable").report
    }

    #[test]
    fn poisson_run_is_deterministic() {
        let tb = Testbed::llama8b_a100();
        let a = run_trace(&tb, SystemKind::Chunked, poisson(30, 2.0, 7)).expect("buildable");
        let b = run_trace(&tb, SystemKind::Chunked, poisson(30, 2.0, 7)).expect("buildable");
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
        let rep = run_trace(&tb, SystemKind::MuxWise, poisson(30, 2.0, 9)).expect("buildable");
        let row = LatencyRow::from_report("MuxWise", &rep);
        assert!(row.stable);
        assert!(row.tbt_p99_ms > 0.0);
        LatencyRow::print_header();
        row.print();
    }

    #[test]
    fn generated_faults_are_deterministic_and_leak_free() {
        let tb = Testbed::llama8b_a100();
        let a = point(&tb, SystemKind::Chunked, 30, 2.0, 7, Faults::Generated(0.5));
        let b = point(&tb, SystemKind::Chunked, 30, 2.0, 7, Faults::Generated(0.5));
        assert_eq!(a, b);
        assert_eq!(a.counters.leaked_leases, 0);
        assert!(a.recovery_secs.is_some(), "faulty run reports recovery");
    }

    #[test]
    fn crash_run_survives_and_accounts_for_victims() {
        let tb = Testbed::llama8b_a100();
        let crash = CrashSpec {
            gpu: 0,
            at_secs: 2.0,
            down_secs: 4.0,
        };
        let r = point(&tb, SystemKind::MuxWise, 30, 3.0, 11, Faults::Crash(crash));
        assert_eq!(r.counters.leaked_leases, 0);
        assert_eq!(r.finished + r.shed, r.total);
        assert_eq!(
            r.recovery.crash_victims,
            r.recovery.recovered + r.recovery.shed_on_crash
        );
    }

    #[test]
    fn zero_intensity_matches_watchdogless_healthy_run() {
        // intensity 0 → empty plan → no recovery metric; the watchdog
        // stays quiet on an unloaded trace.
        let tb = Testbed::llama8b_a100();
        let r = point(&tb, SystemKind::MuxWise, 20, 2.0, 9, Faults::Generated(0.0));
        assert!(r.recovery_secs.is_none());
        assert_eq!(r.shed, 0);
        assert_eq!(r.counters.fault_retries, 0);
        assert!(r.is_stable());
        assert_eq!(
            r,
            point(&tb, SystemKind::MuxWise, 20, 2.0, 9, Faults::Healthy)
        );
    }

    #[test]
    fn healthy_points_report_no_fault_activity() {
        let tb = Testbed::llama8b_a100();
        let r = point(&tb, SystemKind::MuxWise, 20, 2.0, 9, Faults::Healthy);
        assert!(r.recovery_secs.is_none());
        assert_eq!(r.recovery.crash_victims, 0);
        assert_eq!(r.counters.fault_retries, 0);
        assert_eq!(r.shed, 0);
    }

    #[test]
    fn a_crash_outage_extends_the_grace() {
        // GPU 0 is down for five minutes, far past the healthy grace;
        // every request still gets served after the outage.
        let tb = Testbed::llama8b_a100();
        let crash = CrashSpec {
            gpu: 0,
            at_secs: 2.0,
            down_secs: 300.0,
        };
        let r = point(&tb, SystemKind::MuxWise, 20, 2.0, 5, Faults::Crash(crash));
        assert_eq!(r.finished, r.total);
        assert!(r.makespan.as_secs() > 302.0);
    }

    #[test]
    fn a_long_outage_marks_a_crash_run_diverged() {
        let tb = Testbed::llama8b_a100();
        let crash = |down_secs| {
            Faults::Crash(CrashSpec {
                gpu: 0,
                at_secs: 2.0,
                down_secs,
            })
        };
        // The trace spans 10 s: a 100 s outage pushes P99 TTFT past
        // half of it, a 5 s one does not.
        let long = point(&tb, SystemKind::MuxWise, 20, 2.0, 5, crash(100.0));
        assert!(long.diverged && !long.is_stable());
        let short = point(&tb, SystemKind::MuxWise, 20, 2.0, 5, crash(5.0));
        assert!(!short.diverged && short.is_stable());
    }

    #[test]
    fn an_overloaded_point_is_marked_diverged() {
        // 600 requests in 60 ms: everything finishes, but P99 TTFT
        // dwarfs the trace span.
        let tb = Testbed::llama8b_a100();
        let r = point(&tb, SystemKind::MuxWise, 600, 10_000.0, 5, Faults::Healthy);
        assert_eq!(r.finished, r.total);
        assert!(r.diverged);
        assert!(!r.is_stable());
    }

    #[test]
    fn the_intensity_zero_watchdog_sheds_a_burst_the_healthy_point_serves() {
        let tb = Testbed::llama8b_a100();
        let healthy = point(&tb, SystemKind::MuxWise, 600, 10_000.0, 5, Faults::Healthy);
        assert_eq!(healthy.shed, 0);
        let control = point(
            &tb,
            SystemKind::MuxWise,
            600,
            10_000.0,
            5,
            Faults::Generated(0.0),
        );
        assert!(
            control.shed > 0,
            "the admission cap sheds part of the burst"
        );
        assert_eq!(control.finished + control.shed, control.total);
    }

    #[test]
    fn runs_carry_event_and_decode_counts() {
        let tb = Testbed::llama8b_a100();
        let job = |kind| SweepJob {
            tb: &tb,
            kind,
            workload: WorkloadKind::ShareGpt,
            n: 20,
            rate: 2.0,
            seed: 9,
            faults: Faults::Healthy,
        };
        let mux = stability_run(&job(SystemKind::MuxWise)).expect("buildable");
        assert!(mux.events > 0);
        let (iters, coalesced) = mux.decode_iters;
        assert!(iters > 0 && coalesced <= iters);
        // SGLang-PD has no macro-stepped decode path to count.
        let pd = stability_run(&job(SystemKind::SglangPd)).expect("buildable");
        assert!(pd.events > 0);
        assert_eq!(pd.decode_iters, (0, 0));
    }

    #[test]
    fn an_unhostable_system_yields_no_run() {
        let tb = Testbed::qwen235b_h200();
        let job = SweepJob {
            tb: &tb,
            kind: SystemKind::SglangPd,
            workload: WorkloadKind::ShareGpt,
            n: 5,
            rate: 1.0,
            seed: 1,
            faults: Faults::Healthy,
        };
        assert!(stability_run(&job).is_none());
    }

    #[test]
    fn real_world_trace_replays_from_its_seed() {
        let a = real_world_trace(WorkloadKind::ToolAgent, 120, 1.0, 3);
        assert_eq!(a, real_world_trace(WorkloadKind::ToolAgent, 120, 1.0, 3));
        assert_ne!(a, real_world_trace(WorkloadKind::ToolAgent, 120, 1.0, 4));
    }

    #[test]
    fn latency_row_reports_token_gaps_in_milliseconds() {
        let tb = Testbed::llama8b_a100();
        let rep = run_trace(&tb, SystemKind::Chunked, poisson(20, 2.0, 9)).expect("buildable");
        let row = LatencyRow::from_report("Chunked", &rep);
        assert_eq!(row.system, "Chunked");
        assert_eq!(row.ttft_p99, rep.ttft.p99());
        assert_eq!(row.tbt_p99_ms, rep.tbt.p99() * 1e3);
        assert_eq!(row.tpot_avg_ms, rep.tpot.mean() * 1e3);
        assert_eq!(row.e2e_avg, rep.e2e.mean());
        assert_eq!((row.finished, row.total), (rep.finished, rep.total));
    }
}
