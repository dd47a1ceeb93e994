//! Figure 17: P99 TTFT/TBT and goodput on three synthetic workloads with
//! Llama-70B — ShareGPT (moderate/moderate), LooGLE (ultra-long input,
//! short output), OpenThoughts (short input, ultra-long output).
//!
//! Each panel's (system × rate) grid and its mid-rate snapshot run on
//! the sweep pool; printed output matches the sequential sweep.

use bench::harness::{Faults, Run};
use bench::sweep::{parallel_goodput, run_sweep, SweepJob};
use bench::systems::{SystemKind, Testbed};
use bench::{banner, save_record};
use workload::WorkloadKind;

fn panel(tb: &Testbed, workload: WorkloadKind, n: usize, rates: &[f64]) {
    banner(&format!("Figure 17 panel: Llama-70B / {}", workload.name()));
    let kinds = SystemKind::headline();
    let results = parallel_goodput(tb, &kinds, workload, n, rates, 0xF17);
    let mut goodputs = Vec::new();
    for (kind, result) in kinds.into_iter().zip(results) {
        let Some(result) = result else {
            println!("{:<11} (unsupported)", kind.name());
            continue;
        };
        print!("{:<11}", kind.name());
        for p in &result.points {
            print!(
                " [{:.2}/s ttft={:.1}s tbt={:.0}ms{}]",
                p.rate,
                p.p99_ttft,
                p.p99_tbt * 1e3,
                if p.passes(tb.slo.tbt.as_secs()) {
                    ""
                } else {
                    " ✗"
                }
            );
            save_record(
                "fig17",
                &serde_json::json!({
                    "workload": workload.name(), "system": kind.name(),
                    "rate": p.rate, "p99_ttft_s": p.p99_ttft,
                    "p99_tbt_ms": p.p99_tbt * 1e3, "stable": p.stable,
                }),
            );
        }
        println!("\n   goodput: {:.2} req/s", result.goodput_rate);
        goodputs.push((kind, result.goodput_rate));
    }
    if let Some(&(_, mux)) = goodputs.iter().find(|(k, _)| *k == SystemKind::MuxWise) {
        for (k, g) in &goodputs {
            if *k != SystemKind::MuxWise && *g > 0.0 {
                println!("   MuxWise vs {}: {:.2}x", k.name(), mux / g);
            }
        }
    }
    // A quick latency snapshot at the middle rate for the record.
    let mid = rates[rates.len() / 2];
    let jobs: Vec<SweepJob<'_>> = SystemKind::headline()
        .map(|kind| SweepJob {
            tb,
            kind,
            workload,
            n,
            rate: mid,
            seed: 0xF17,
            faults: Faults::Healthy,
        })
        .to_vec();
    for (job, run) in jobs.iter().zip(run_sweep(&jobs)) {
        if let Some(Run { report: rep, .. }) = run {
            save_record(
                "fig17_snapshot",
                &serde_json::json!({
                    "workload": workload.name(), "system": job.kind.name(), "rate": mid,
                    "p99_ttft_s": rep.ttft.p99(), "p99_tbt_ms": rep.tbt.p99() * 1e3,
                }),
            );
        }
    }
}

fn main() {
    let tb = Testbed::llama70b_a100();
    panel(
        &tb,
        WorkloadKind::ShareGpt,
        600,
        &[2.0, 4.0, 7.0, 10.0, 14.0, 19.0, 25.0, 33.0, 43.0, 55.0],
    );
    panel(
        &tb,
        WorkloadKind::Loogle,
        80,
        &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35],
    );
    panel(
        &tb,
        WorkloadKind::OpenThoughts,
        150,
        &[0.45, 0.7, 1.0, 1.4, 1.9],
    );
    println!(
        "\nExpected shape (paper): MuxWise goodput 1.9x/1.73x/9.5x/1.46x over \
         chunked/NanoFlow/LoongServe/SGLang-PD on ShareGPT; 1.71x/2x/1.33x/2x on \
         LooGLE; 2x/2x/(LoongServe never meets)/2x on OpenThoughts. SGLang-PD \
         struggles on OpenThoughts (pool exhaustion) and LooGLE (prefill-half \
         queueing); LoongServe struggles on OpenThoughts."
    );
}
