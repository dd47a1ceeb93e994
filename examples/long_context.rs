//! Long-context serving with preemptive scheduling.
//!
//! Mixes short chat turns with 30K-token document-understanding requests
//! (LooGLE) and compares MuxWise's three preemption modes: none, the
//! default TTFT rescue (a short prompt preempts a long prefill only when
//! that prefill misses TTFT anyway and can still make its own
//! length-scaled deadline), and Fig. 20's shortest-first scheduling,
//! which also reorders every new batch by prompt length.
//!
//! ```sh
//! cargo run --release -p muxwise --example long_context
//! ```

use gpusim::{ClusterSpec, GpuSim};
use modelspec::ModelSpec;
use muxwise::{Estimators, MuxWise, MuxWiseConfig, Preemption};
use serving::{Driver, SloSpec};
use simcore::SimRng;
use workload::{generate_mixed, RequestSpec, WorkloadKind};

fn mixed(n: usize, rate: f64, seed: u64) -> Vec<RequestSpec> {
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
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama70b();
    let slo = SloSpec::llama70b();
    println!("50% ShareGPT + 50% LooGLE on Llama-70B / 8xA100 at 0.5 req/s\n");
    let est = Estimators::profile(&model, &cluster, cluster.num_gpus);
    let trace = mixed(100, 0.5, 0xC0DE);

    for (label, cfg) in [
        (
            "FCFS, no preemption",
            MuxWiseConfig::with_preemption(Preemption::Off),
        ),
        (
            "FCFS, TTFT-rescue preemption (default)",
            MuxWiseConfig::default(),
        ),
        (
            "shortest first, with preemption",
            MuxWiseConfig::with_preemption(Preemption::ShortestFirst),
        ),
    ] {
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est.clone(), cfg);
        let report =
            Driver::new(GpuSim::from_cluster(&cluster), trace.clone(), slo).run(&mut engine);
        let per_token = &report.ttft_per_token;
        let raw = &report.ttft;
        println!("{label}:");
        println!("  preemptions performed: {}", engine.preemptions());
        println!(
            "  TTFT            p50 {:>7.2}s   p99 {:>7.2}s",
            raw.p50(),
            raw.p99()
        );
        println!(
            "  TTFT per token  p50 {:>7.2}ms  p99 {:>7.2}ms\n",
            per_token.p50() * 1e3,
            per_token.p99() * 1e3
        );
    }
    println!("Preemption lets short requests past long prefills that miss TTFT\nanyway; long requests keep meeting their own (length-scaled) deadlines.");
}
