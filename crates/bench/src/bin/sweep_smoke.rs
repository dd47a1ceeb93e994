//! `sweep_smoke` — times the parallel sweep runner against the
//! sequential path on a representative experiment grid, verifies the
//! results are identical, and writes the measurements to
//! `BENCH_sweep.json`.
//!
//! The grid is 2 systems × 4 rates of the Fig. 15-style stability sweep
//! (small request counts so the smoke run finishes in seconds) — 8 jobs,
//! which keeps the parallel leg at `jobs ≥ cores` on typical runners so
//! the recorded speedup is meaningful. On a ≥4-core machine the parallel
//! pass should be ≥2× faster; on fewer cores the speedup degrades
//! gracefully (and with 1 thread the pool falls back to the sequential
//! path exactly).
//!
//! Wall-clock noise: each leg runs `MUXWISE_SWEEP_REPEATS` times
//! (default 3) and the best (minimum) wall time is recorded — simulated
//! work is deterministic, so the minimum is the least-perturbed
//! measurement; every repeat still asserts bit-identity.

// This binary measures real wall-clock speedup of the worker pool; the
// timings land in BENCH_sweep.json and never feed simulation state (the
// sweeps themselves are seeded and asserted bit-identical below).
// simlint: allow(R2) reason="wall-clock benchmark of the worker pool; timing is reporting-only and never feeds simulation state"
use std::time::Instant;

use bench::banner;
use bench::harness::{stability_run, Faults};
use bench::sweep::{num_threads, run_sweep, SweepJob};
use bench::systems::{SystemKind, Testbed};
use workload::WorkloadKind;

fn repeats() -> usize {
    std::env::var("MUXWISE_SWEEP_REPEATS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

// Wall-clock is this benchmark's measurand; see the simlint allow above.
#[allow(clippy::disallowed_methods)]
fn main() {
    banner("sweep_smoke: parallel sweep runner vs sequential baseline");
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

    // Warm-up pass so neither timed pass pays one-time costs (page
    // faults, lazy allocations).
    let _ = stability_run(&jobs[0]);

    let reps = repeats();

    // Sequential leg: best-of-N, with the decode-coalescing counters and
    // boundary-event totals taken from the first pass (they are
    // deterministic, so every pass agrees).
    let mut wall_seq = f64::INFINITY;
    let mut sequential = Vec::new();
    let mut total_events = 0u64;
    let mut decode_iters = 0u64;
    let mut coalesced_iters = 0u64;
    for rep in 0..reps {
        // simlint: allow(R2) reason="times the sequential baseline pass; reporting-only"
        let t0 = Instant::now();
        let runs: Vec<_> = jobs.iter().map(stability_run).collect();
        wall_seq = wall_seq.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            total_events = runs.iter().flatten().map(|r| r.events).sum();
            decode_iters = runs.iter().flatten().map(|r| r.decode_iters.0).sum();
            coalesced_iters = runs.iter().flatten().map(|r| r.decode_iters.1).sum();
            sequential = runs;
        }
    }

    // Parallel leg: best-of-N; every pass must be bit-identical to the
    // sequential reports.
    let mut wall_par = f64::INFINITY;
    for _ in 0..reps {
        // simlint: allow(R2) reason="times the parallel pass; reporting-only"
        let t1 = Instant::now();
        let parallel = run_sweep(&jobs);
        wall_par = wall_par.min(t1.elapsed().as_secs_f64());
        assert_eq!(
            parallel, sequential,
            "parallel sweep must be bit-identical to the sequential path"
        );
    }

    let sim_secs: f64 = sequential
        .iter()
        .flatten()
        .map(|r| r.report.makespan.as_secs())
        .sum();
    let threads = num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The pool can only exploit min(jobs, cores) lanes; on a 1-core
    // runner the parallel leg degenerates to the sequential path and a
    // "speedup" would be timing noise presented as a measurement.
    let jobs_effective = jobs.len().min(cores);
    let speedup = wall_seq / wall_par;
    let coalescing_ratio = if decode_iters > 0 {
        coalesced_iters as f64 / decode_iters as f64
    } else {
        0.0
    };
    assert!(
        jobs.len() >= cores.min(8),
        "parallel leg needs jobs >= cores for a meaningful speedup figure"
    );

    println!("jobs: {} (2 systems x 4 rates)", jobs.len());
    println!("threads: {threads} (cores available: {cores}), best of {reps} passes");
    println!(
        "sequential: {wall_seq:.3}s wall, {:.0} sim-s/wall-s",
        sim_secs / wall_seq
    );
    println!(
        "parallel:   {wall_par:.3}s wall, {:.0} sim-s/wall-s",
        sim_secs / wall_par
    );
    if cores > 1 {
        println!(
            "speedup: {speedup:.2}x over {jobs_effective} effective lanes \
             (expect >=2x on a >=4-core runner)"
        );
    } else {
        println!("speedup: n/a (1 core; the parallel leg is the sequential path)");
    }
    println!(
        "events: {total_events} ({:.0} events/wall-s parallel)",
        total_events as f64 / wall_par
    );
    println!(
        "decode iterations: {decode_iters} ({coalesced_iters} macro-coalesced, ratio {coalescing_ratio:.3})"
    );

    let speedup_value = if cores > 1 {
        serde_json::json!(speedup)
    } else {
        serde_json::Value::Null
    };
    let record = serde_json::json!({
        "bench": "sweep_smoke",
        "jobs": jobs.len(),
        "jobs_effective": jobs_effective,
        "threads": threads,
        "cores": cores,
        "repeats": reps,
        "simulated_seconds": sim_secs,
        "wall_sequential_s": wall_seq,
        "wall_parallel_s": wall_par,
        "sim_seconds_per_wall_second_sequential": sim_secs / wall_seq,
        "sim_seconds_per_wall_second_parallel": sim_secs / wall_par,
        "events": total_events,
        "events_per_wall_second_sequential": total_events as f64 / wall_seq,
        "events_per_wall_second_parallel": total_events as f64 / wall_par,
        "decode_iterations": decode_iters,
        "decode_iterations_coalesced": coalesced_iters,
        "macro_coalescing_ratio": coalescing_ratio,
        "speedup": speedup_value,
        "identical_results": true,
    });
    match std::fs::write("BENCH_sweep.json", format!("{record}\n")) {
        Ok(()) => println!("wrote BENCH_sweep.json"),
        Err(e) => eprintln!("failed to write BENCH_sweep.json: {e}"),
    }
}
