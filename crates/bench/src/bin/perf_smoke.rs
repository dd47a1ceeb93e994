//! `perf_smoke` — fast hot-path throughput gate.
//!
//! Runs the sweep_smoke grid (2 systems × 4 rates of the Fig. 15-style
//! stability sweep) sequentially and checks it against the record in
//! `BENCH_sweep.json` twice over:
//!
//! - the grid's work — simulated seconds, boundary events, decode
//!   iterations and macro-coalesced iterations — must equal the recorded
//!   figures exactly. They are pure functions of the code, so host load
//!   cannot move them, and any difference is a behaviour change;
//! - simulated-seconds per wall-second must stay within 20 % of the
//!   recorded value, so `scripts/check.sh perf-smoke` catches
//!   accidental hot-path slowdowns.
//!
//! Either failure exits non-zero. Without a `BENCH_sweep.json` both
//! checks are skipped. After an intended change in behaviour or speed,
//! re-run `sweep_smoke` to re-record the figures.
//!
//! `MUXWISE_PERF_REPEATS` (default 3) controls how many times the grid
//! is run; the best pass is scored, which keeps the gate robust to
//! scheduling noise on loaded machines.

// This binary measures wall-clock throughput of the simulator hot path;
// timings are reporting-only and never feed simulation state.
// simlint: allow(R2) reason="wall-clock throughput gate; timing is reporting-only and never feeds simulation state"
use std::time::Instant;

use bench::banner;
use bench::harness::{stability_run, Faults};
use bench::sweep::SweepJob;
use bench::systems::{SystemKind, Testbed};
use workload::WorkloadKind;

fn repeats() -> usize {
    std::env::var("MUXWISE_PERF_REPEATS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// The grid's deterministic work, as `sweep_smoke` records it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Work {
    simulated_seconds: f64,
    events: u64,
    decode_iterations: u64,
    decode_iterations_coalesced: u64,
}

/// The record in BENCH_sweep.json: the throughput gate's baseline
/// (`sim_seconds_per_wall_second_parallel`) and the grid's work. `None`
/// when there is no record; a record missing a field is an error.
fn recorded() -> Option<(f64, Work)> {
    let text = std::fs::read_to_string("BENCH_sweep.json").ok()?;
    let v: serde_json::Value =
        serde_json::from_str(text.trim()).expect("BENCH_sweep.json is not JSON");
    let number = |name: &str| {
        v.get(name)
            .and_then(serde_json::Value::as_f64)
            .unwrap_or_else(|| panic!("BENCH_sweep.json lacks a number `{name}`"))
    };
    let count = |name: &str| {
        v.get(name)
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("BENCH_sweep.json lacks a count `{name}`"))
    };
    let work = Work {
        simulated_seconds: number("simulated_seconds"),
        events: count("events"),
        decode_iterations: count("decode_iterations"),
        decode_iterations_coalesced: count("decode_iterations_coalesced"),
    };
    Some((number("sim_seconds_per_wall_second_parallel"), work))
}

// Wall-clock is this benchmark's measurand; see the simlint allow above.
#[allow(clippy::disallowed_methods)]
fn main() {
    banner("perf_smoke: hot-path throughput gate");
    let tb = Testbed::llama8b_a100();
    let tb = &tb;
    let jobs: Vec<SweepJob<'_>> = [SystemKind::MuxWise, SystemKind::Chunked]
        .into_iter()
        .flat_map(|kind| {
            [2.0f64, 4.0, 6.0, 8.0]
                .into_iter()
                .map(move |rate| SweepJob {
                    tb,
                    kind,
                    workload: WorkloadKind::ShareGpt,
                    n: 150,
                    rate,
                    seed: 0x50_0E,
                    faults: Faults::Healthy,
                })
        })
        .collect();

    // Warm-up pass (page faults, lazy allocations).
    let _ = stability_run(&jobs[0]);

    let mut best = 0.0f64;
    let mut work = None;
    for pass in 0..repeats() {
        // simlint: allow(R2) reason="times one sequential grid pass; reporting-only"
        let t0 = Instant::now();
        let results: Vec<_> = jobs.iter().map(stability_run).collect();
        let wall = t0.elapsed().as_secs_f64();
        let runs = results.iter().flatten();
        let w = Work {
            simulated_seconds: runs.clone().map(|r| r.report.makespan.as_secs()).sum(),
            events: runs.clone().map(|r| r.events).sum(),
            decode_iterations: runs.clone().map(|r| r.decode_iters.0).sum(),
            decode_iterations_coalesced: runs.map(|r| r.decode_iters.1).sum(),
        };
        work = Some(w);
        let rate = w.simulated_seconds / wall;
        if rate > best {
            best = rate;
        }
        println!("pass {pass}: {wall:.3}s wall, {rate:.0} sim-s/wall-s");
    }
    let work = work.expect("at least one pass");
    let ratio = if work.decode_iterations > 0 {
        work.decode_iterations_coalesced as f64 / work.decode_iterations as f64
    } else {
        0.0
    };
    println!(
        "best: {best:.0} sim-s/wall-s over {:.1} simulated seconds, {} events",
        work.simulated_seconds, work.events
    );
    println!(
        "decode iterations: {} ({} macro-coalesced, ratio {ratio:.3})",
        work.decode_iterations, work.decode_iterations_coalesced
    );

    let Some((baseline, recorded_work)) = recorded() else {
        println!("no BENCH_sweep.json record found; skipping both gates");
        return;
    };
    let mut failed = false;
    if work == recorded_work {
        println!("PASS: the grid's work equals the recorded figures");
    } else {
        eprintln!("FAIL: the grid's work differs from BENCH_sweep.json");
        eprintln!("  measured: {work:?}");
        eprintln!("  recorded: {recorded_work:?}");
        failed = true;
    }
    let floor = baseline * 0.8;
    println!("recorded baseline: {baseline:.0} sim-s/wall-s (floor {floor:.0})");
    if best < floor {
        eprintln!("FAIL: {best:.0} sim-s/wall-s regresses >20% below the recorded {baseline:.0}");
        failed = true;
    } else {
        println!("PASS: within 20% of the recorded throughput");
    }
    if failed {
        std::process::exit(1);
    }
}
