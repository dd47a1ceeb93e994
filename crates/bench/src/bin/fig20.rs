//! Figure 20: CDF of TTFT-per-input-token with and without preemptive
//! scheduling, on a 50/50 mix of ShareGPT (short) and LooGLE (ultra-long)
//! requests at 0.5 req/s (Llama-70B).
//!
//! The two variants run concurrently on the sweep pool over a shared
//! trace; output is printed afterwards in variant order.

use bench::sweep::parallel_map;
use bench::systems::Testbed;
use bench::{banner, save_record};
use gpusim::GpuSim;
use muxwise::{MuxWise, MuxWiseConfig, Preemption};
use serving::Driver;
use simcore::SimRng;
use workload::{generate_mixed, RequestSpec, WorkloadKind};

fn mixed_trace(n: usize, rate: f64, seed: u64) -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(seed);
    generate_mixed(
        &[
            (WorkloadKind::ShareGpt, n / 2),
            (WorkloadKind::Loogle, n - n / 2),
        ],
        rate,
        &mut rng,
    )
}

fn main() {
    banner("Figure 20: TTFT per token CDF, with vs without preemption");
    let tb = Testbed::llama70b_a100();
    let trace = mixed_trace(120, 0.5, 0xF20);

    let variants = [
        (
            "no preemption",
            MuxWiseConfig::with_preemption(Preemption::Off),
        ),
        (
            "with preemption",
            MuxWiseConfig::with_preemption(Preemption::ShortestFirst),
        ),
    ];
    let runs = parallel_map(&variants, |(_, cfg)| {
        let mut engine = MuxWise::new(
            &tb.model,
            &tb.cluster,
            tb.tp,
            tb.slo,
            tb.est.clone(),
            cfg.clone(),
        );
        let rep =
            Driver::new(GpuSim::from_cluster(&tb.cluster), trace.clone(), tb.slo).run(&mut engine);
        (engine.preemptions(), rep)
    });

    let mut results = Vec::new();
    for ((name, _), (preemptions, rep)) in variants.iter().zip(&runs) {
        let mut per_token = rep.ttft_per_token.clone();
        println!(
            "\n{name}: preemptions={} p50={:.3} ms/tok p99={:.3} ms/tok",
            preemptions,
            per_token.p50() * 1e3,
            per_token.p99() * 1e3
        );
        print!("  CDF:");
        for (v, q) in per_token.cdf(10) {
            print!(" ({:.2}ms/tok,{:.0}%)", v * 1e3, q * 100.0);
            save_record(
                "fig20",
                &serde_json::json!({"variant": *name, "ms_per_token": v * 1e3, "quantile": q}),
            );
        }
        println!();
        results.push(per_token.p99());
    }
    if results.len() == 2 && results[1] > 0.0 {
        println!(
            "\nP99 TTFT/token speedup from preemption: {:.2}x (paper: 1.96x)",
            results[0] / results[1]
        );
    }
}
