//! Chaos sweep: goodput degradation and recovery under injected faults.
//!
//! Sweeps the headline systems against seeded fault schedules of rising
//! intensity (SM brownouts, HBM/NVLink degradation, KV-pool shrinks,
//! kernel latency spikes — see `serving::faults`) with the driver's
//! overload watchdog enabled. Reports throughput, SLO attainment, shed /
//! retry / requeue counts, and the post-fault recovery time per grid
//! point; every run must end with zero leaked KV leases.
//!
//! `--smoke` runs a tiny grid (used by `scripts/check.sh chaos-smoke`)
//! and asserts the robustness invariants instead of printing the full
//! table. `--recovery-smoke` runs a crash-then-recover grid (two systems
//! × a GPU fail-stop on each cluster half) asserting fail-stop failover
//! works end to end (used by `scripts/check.sh recovery-smoke`).

use bench::harness::{stability_run, CrashSpec, Faults};
use bench::sweep::{run_sweep, SweepJob};
use bench::systems::{SystemKind, Testbed};
use bench::{banner, save_record};
use serving::Report;
use workload::WorkloadKind;

const SEED: u64 = 0xC4A05;
const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// A healthy run "holds" its rate while TBT attainment stays above this.
const KNEE_ATTAINMENT: f64 = 0.9;
/// Rate-doubling rounds in the knee probe (base × 2^5 ceiling).
const KNEE_ROUNDS: usize = 6;

/// One point of the chaos experiment: `n` ShareGPT requests at `rate`
/// from [`SEED`], under `faults`.
fn job(tb: &Testbed, kind: SystemKind, n: usize, rate: f64, faults: Faults) -> SweepJob<'_> {
    SweepJob {
        tb,
        kind,
        workload: WorkloadKind::ShareGpt,
        n,
        rate,
        seed: SEED,
        faults,
    }
}

/// Per-system saturation probe: starting from `base`, double each
/// system's healthy (intensity-0) arrival rate until TBT attainment
/// falls below [`KNEE_ATTAINMENT`] or the run goes unstable, and keep
/// the last rate that held. Running the chaos grid at the knee instead
/// of a fixed far-below-saturation rate makes fault intensity actually
/// move attainment — at 1/10th the knee every system trivially scores
/// ~1.0 and the grid says nothing.
fn knee_rates(tb: &Testbed, label: &str, n: usize, base: f64) -> Vec<(SystemKind, f64)> {
    banner(&format!("Knee probe — {label}"));
    let kinds = SystemKind::headline();
    let mut rate = vec![base; kinds.len()];
    let mut best = vec![None; kinds.len()];
    let mut climbing = vec![true; kinds.len()];
    for _ in 0..KNEE_ROUNDS {
        let live: Vec<usize> = (0..kinds.len()).filter(|&i| climbing[i]).collect();
        if live.is_empty() {
            break;
        }
        let jobs: Vec<SweepJob<'_>> = live
            .iter()
            .map(|&i| job(tb, kinds[i], n, rate[i], Faults::Generated(0.0)))
            .collect();
        for (&i, run) in live.iter().zip(run_sweep(&jobs)) {
            match run {
                // Unsupported on this testbed; the sweep will skip it too.
                None => climbing[i] = false,
                Some(run) => {
                    if run.report.tbt_attainment() >= KNEE_ATTAINMENT && run.report.is_stable() {
                        best[i] = Some(rate[i]);
                        rate[i] *= 2.0;
                    } else {
                        climbing[i] = false;
                    }
                }
            }
        }
    }
    kinds
        .iter()
        .zip(best)
        .map(|(&kind, b)| {
            // Even `base` degraded: grid runs just past the knee, which
            // is the side where fault response is visible anyway.
            let knee = b.unwrap_or(base);
            println!("{:<11} knee rate {knee:>6.1} req/s", kind.name());
            (kind, knee)
        })
        .collect()
}

/// One row of the chaos table (also the `results/chaos.jsonl` record).
struct ChaosRow {
    system: String,
    intensity: f64,
    /// Output-token throughput (tokens/s) — the goodput proxy.
    throughput: f64,
    /// Fraction of TBT samples within the SLO target.
    attainment: f64,
    tbt_p99_ms: f64,
    /// Whether the system kept up with the (served) load.
    stable: bool,
    finished: usize,
    /// Requests intentionally shed by the watchdog.
    shed: usize,
    /// Arrivals deferred during severe fault windows.
    fault_retries: u64,
    /// Running requests requeued under pressure.
    requeues: u64,
    /// Requests dropped (includes shed).
    drops: u64,
    /// KV leases still held after a drained run (must be 0).
    leaked_leases: u64,
    /// Seconds past the last fault window until P99 TBT re-entered the
    /// SLO (0 = immediate; absent on healthy runs).
    recovery_secs: Option<f64>,
    /// Requests whose leases were revoked by a GPU fail-stop.
    crash_victims: u64,
    /// Crash victims that finished after failover.
    recovered: u64,
    /// Crash victims given up on (retry budget / TTFT deadline).
    shed_on_crash: u64,
    /// Prompt tokens recomputed to re-materialize lost KV.
    reprefill_tokens: u64,
}

impl ChaosRow {
    fn from_report(system: &str, intensity: f64, r: &Report) -> ChaosRow {
        ChaosRow {
            system: system.to_string(),
            intensity,
            throughput: r.token_throughput(),
            attainment: r.tbt_attainment(),
            tbt_p99_ms: r.tbt.p99() * 1e3,
            stable: r.is_stable(),
            finished: r.finished,
            shed: r.shed,
            fault_retries: r.counters.fault_retries,
            requeues: r.counters.requeues,
            drops: r.counters.drops,
            leaked_leases: r.counters.leaked_leases,
            recovery_secs: r.recovery_secs,
            crash_victims: r.recovery.crash_victims,
            recovered: r.recovery.recovered,
            shed_on_crash: r.recovery.shed_on_crash,
            reprefill_tokens: r.recovery.reprefill_tokens,
        }
    }

    fn print_header() {
        println!(
            "{:<11} {:>5} {:>10} {:>7} {:>9} {:>6} {:>5} {:>7} {:>7} {:>6} {:>5} {:>5} {:>8}  state",
            "system",
            "fault",
            "tok/s",
            "attain",
            "tbtP99",
            "fin",
            "shed",
            "retries",
            "requeue",
            "drops",
            "crash",
            "recov",
            "recovery"
        );
    }

    fn print(&self) {
        println!(
            "{:<11} {:>5.2} {:>10.1} {:>6.1}% {:>7.1}ms {:>6} {:>5} {:>7} {:>7} {:>6} {:>5} {:>5} {:>8}  {}",
            self.system,
            self.intensity,
            self.throughput,
            self.attainment * 1e2,
            self.tbt_p99_ms,
            self.finished,
            self.shed,
            self.fault_retries,
            self.requeues,
            self.drops,
            self.crash_victims,
            self.recovered,
            self.recovery_secs
                .map(|s| format!("{s:.2}s"))
                .unwrap_or_else(|| "-".to_string()),
            if self.stable { "stable" } else { "DEGRADED" }
        );
    }
}

fn sweep(tb: &Testbed, label: &str, n: usize, rates: &[(SystemKind, f64)]) -> Vec<ChaosRow> {
    banner(&format!("Chaos sweep — {label}"));
    let points: Vec<(SystemKind, f64, f64)> = rates
        .iter()
        .flat_map(|&(kind, rate)| INTENSITIES.map(|intensity| (kind, rate, intensity)))
        .collect();
    let jobs: Vec<SweepJob<'_>> = points
        .iter()
        .map(|&(kind, rate, intensity)| job(tb, kind, n, rate, Faults::Generated(intensity)))
        .collect();
    ChaosRow::print_header();
    let mut rows = Vec::new();
    for (&(kind, rate, intensity), run) in points.iter().zip(run_sweep(&jobs)) {
        let Some(run) = run else {
            println!("{:<11} (unsupported)", kind.name());
            continue;
        };
        assert_eq!(
            run.report.counters.leaked_leases,
            0,
            "{} leaked KV leases at intensity {intensity}",
            kind.name(),
        );
        let row = ChaosRow::from_report(kind.name(), intensity, &run.report);
        row.print();
        save_record(
            "chaos",
            &serde_json::json!({
                "testbed": label, "system": row.system, "intensity": row.intensity,
                "rate": rate,
                "tokens_per_s": row.throughput, "attainment": row.attainment,
                "tbt_p99_ms": row.tbt_p99_ms, "stable": row.stable,
                "finished": row.finished, "shed": row.shed,
                "fault_retries": row.fault_retries, "requeues": row.requeues,
                "drops": row.drops, "leaked_leases": row.leaked_leases,
                "recovery_secs": row.recovery_secs,
                "crash_victims": row.crash_victims, "recovered": row.recovered,
                "shed_on_crash": row.shed_on_crash,
                "reprefill_tokens": row.reprefill_tokens,
            }),
        );
        rows.push(row);
    }
    rows
}

/// Tiny grid for CI: two systems × three intensities; asserts no panic,
/// no leaks, and finite recovery instead of printing the full table.
fn smoke() {
    banner("Chaos smoke");
    let tb = Testbed::llama8b_a100();
    for kind in [SystemKind::MuxWise, SystemKind::SglangPd] {
        for intensity in [0.0, 0.5, 1.0] {
            let run = stability_run(&job(&tb, kind, 40, 3.0, Faults::Generated(intensity)));
            let report = run.expect("buildable").report;
            assert_eq!(
                report.counters.leaked_leases,
                0,
                "{} leaked at intensity {intensity}",
                kind.name()
            );
            if intensity > 0.0 {
                let rec = report
                    .recovery_secs
                    .expect("faulty runs report recovery time");
                assert!(rec.is_finite() && rec >= 0.0);
            }
            println!(
                "{:<11} intensity {intensity:.1}: finished {}/{} shed {} — ok",
                kind.name(),
                report.finished,
                report.total,
                report.shed
            );
        }
    }
    println!("chaos smoke passed");
}

/// Crash-then-recover grid for CI: two systems × a fail-stop on each
/// cluster half. Asserts leak-freedom, full request accounting and
/// balanced victim bookkeeping.
fn recovery_smoke() {
    banner("Recovery smoke");
    let tb = Testbed::llama8b_a100();
    for kind in [SystemKind::MuxWise, SystemKind::SglangPd] {
        for gpu in [0u32, 7] {
            let crash = CrashSpec {
                gpu,
                at_secs: 2.0,
                down_secs: 5.0,
            };
            let run = stability_run(&job(&tb, kind, 40, 3.0, Faults::Crash(crash)));
            let report = run.expect("buildable").report;
            assert_eq!(
                report.counters.leaked_leases,
                0,
                "{} leaked leases after a crash on GPU {gpu}",
                kind.name()
            );
            assert_eq!(
                report.finished + report.shed,
                report.total,
                "{} lost requests after a crash on GPU {gpu}",
                kind.name()
            );
            assert_eq!(
                report.recovery.crash_victims,
                report.recovery.recovered + report.recovery.shed_on_crash,
                "{} victim accounting does not balance on GPU {gpu}",
                kind.name()
            );
            println!(
                "{:<11} crash gpu {gpu}: victims {} recovered {} shed {} reprefill {} tok — ok",
                kind.name(),
                report.recovery.crash_victims,
                report.recovery.recovered,
                report.recovery.shed_on_crash,
                report.recovery.reprefill_tokens,
            );
        }
    }
    println!("recovery smoke passed");
}

fn main() {
    if std::env::args().any(|a| a == "--recovery-smoke") {
        recovery_smoke();
        return;
    }
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let tb = Testbed::llama8b_a100();
    let rates = knee_rates(&tb, "Llama-8B / 8xA100", 400, 8.0);
    let rows = sweep(&tb, "Llama-8B / 8xA100 / 50ms TBT", 400, &rates);
    let tb70 = Testbed::llama70b_a100();
    let rates70 = knee_rates(&tb70, "Llama-70B / 8xA100", 150, 0.8);
    let rows70 = sweep(&tb70, "Llama-70B / 8xA100 / 100ms TBT", 150, &rates70);

    // Summary artifact: per-system goodput at each intensity.
    let summary: Vec<_> = rows
        .iter()
        .chain(rows70.iter())
        .map(|r| {
            serde_json::json!({
                "system": r.system, "intensity": r.intensity,
                "tokens_per_s": r.throughput, "attainment": r.attainment,
                "shed": r.shed, "fault_retries": r.fault_retries,
                "recovery_secs": r.recovery_secs,
            })
        })
        .collect();
    let knee_json = |rates: &[(SystemKind, f64)]| -> Vec<serde_json::Value> {
        rates
            .iter()
            .map(|&(k, r)| serde_json::json!({"system": k.name(), "rate": r}))
            .collect()
    };
    let knees_8b = knee_json(&rates);
    let knees_70b = knee_json(&rates70);
    let _ = std::fs::write(
        "BENCH_chaos.json",
        serde_json::to_string(&serde_json::json!({
            "experiment": "chaos",
            "intensities": INTENSITIES,
            "knee_attainment": KNEE_ATTAINMENT,
            "knee_rates": serde_json::json!({
                "llama8b_a100": knees_8b,
                "llama70b_a100": knees_70b,
            }),
            "rows": summary,
        }))
        .unwrap_or_default(),
    );
    println!(
        "\nExpected shape: with every system driven at its own healthy knee, throughput \
         and attainment degrade (roughly monotonically) with fault intensity instead of \
         sitting at ~1.0; MuxWise recovers within seconds of the last window at \
         intensity <= 0.5; no system panics or leaks KV leases at any intensity."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_carries_the_crash_recovery_counters() {
        let tb = Testbed::llama8b_a100();
        let crash = CrashSpec {
            gpu: 0,
            at_secs: 2.0,
            down_secs: 5.0,
        };
        let point = job(&tb, SystemKind::MuxWise, 40, 3.0, Faults::Crash(crash));
        let r = stability_run(&point).expect("buildable").report;
        let row = ChaosRow::from_report("MuxWise", 0.0, &r);
        assert!(row.crash_victims > 0, "the crash strikes running requests");
        assert_eq!(row.crash_victims, r.recovery.crash_victims);
        assert_eq!(row.recovered, r.recovery.recovered);
        assert_eq!(row.shed_on_crash, r.recovery.shed_on_crash);
        assert_eq!(row.reprefill_tokens, r.recovery.reprefill_tokens);
        assert_eq!(row.tbt_p99_ms, r.tbt.p99() * 1e3);
        assert_eq!((row.finished, row.shed), (r.finished, r.shed));
        assert_eq!(row.leaked_leases, 0);
    }
}
