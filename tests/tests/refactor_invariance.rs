//! Golden determinism check: the lifecycle/lease refactor moves state
//! around but must not change a single scheduling decision. These values
//! were captured from the pre-refactor tree (full `{:?}` precision) and
//! every engine must keep reproducing them bit-for-bit.

use baselines::{ChunkedPrefill, HybridPd, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::{ContentionGuard, SoloPredictor};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use serving::{Driver, FaultPlan, Scheduler, SloSpec, WatchdogConfig};
use simcore::SimRng;
use workload::{generate, WorkloadKind};

/// Runs one engine on the fixed golden workload and renders the report
/// fields that any scheduling change would perturb. When `hardened` is
/// set, the empty fault plan and the (never-triggering) watchdog are
/// installed — both must be strict no-ops.
fn golden_line(name: &str, engine: &mut dyn Scheduler, hardened: bool) -> String {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut rng = SimRng::seed_from(0xC0FFEE);
    let reqs = generate(WorkloadKind::Conversation, 60, 2.5, &mut rng);
    let mut driver = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo);
    if hardened {
        driver = driver
            .with_faults(FaultPlan::none())
            .with_watchdog(WatchdogConfig::default());
    }
    let rep = driver.run(engine);
    format!(
        "{name}: ttft_p99={:?} tbt_p99={:?} tokens={} makespan={:?} util={:?}",
        rep.ttft.p99(),
        rep.tbt.p99(),
        rep.total_tokens,
        rep.makespan.as_secs(),
        rep.utilization,
    )
}

fn engines() -> Vec<(&'static str, Box<dyn Scheduler>)> {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    let est = Estimators::profile(&model, &cluster, 8);
    let par = Parallelism::tp(8, cluster.nvlink_gbs);
    vec![
        (
            "muxwise",
            Box::new(MuxWise::new(
                &model,
                &cluster,
                8,
                slo,
                est,
                MuxWiseConfig::default(),
            )) as Box<dyn Scheduler>,
        ),
        (
            "chunked",
            Box::new(ChunkedPrefill::tuned(&model, &cluster, 8, slo)),
        ),
        (
            "nanoflow",
            Box::new(ChunkedPrefill::nanoflow(&model, &cluster, 8, slo)),
        ),
        (
            "loongserve",
            Box::new(LoongServe::new(&model, &cluster, 2, slo)),
        ),
        ("sglang-pd", Box::new(SglangPd::new(&model, &cluster, slo))),
        (
            "windserve",
            Box::new(WindServe::new(&model, &cluster, 8, slo)),
        ),
        (
            "temporal",
            Box::new(TemporalMux::new(
                &model,
                &cluster,
                8,
                slo,
                SoloPredictor::profile(&model, &cluster, &par, &[cluster.gpu.sm_count]),
            )),
        ),
        (
            "hybrid",
            Box::new(HybridPd::new(
                &model,
                &cluster,
                slo,
                SoloPredictor::profile(
                    &model,
                    &cluster,
                    &Parallelism::tp(4, cluster.nvlink_gbs),
                    &[16, 48, 92, 108],
                ),
                ContentionGuard::flat(1.2),
            )),
        ),
    ]
}

/// Full-precision report fields captured from the pre-refactor tree;
/// any divergence means a scheduling decision changed.
const GOLDEN: &[&str] = &[
    "muxwise: ttft_p99=0.23977876463999992 tbt_p99=0.005813066 tokens=15616 makespan=32.550847917 util=0.11848762625955347",
    "chunked: ttft_p99=0.2555585823199998 tbt_p99=0.022274649650000214 tokens=15616 makespan=31.314197026 util=0.21627650801216422",
    "nanoflow: ttft_p99=0.23797139535999978 tbt_p99=0.027621853 tokens=15616 makespan=32.440384047 util=0.2516616262893691",
    "loongserve: ttft_p99=2.806596235829997 tbt_p99=0.008979286 tokens=15616 makespan=35.016969398 util=0.2283429108563694",
    "sglang-pd: ttft_p99=0.3930977472999998 tbt_p99=0.00546196945 tokens=15616 makespan=32.390819329 util=0.17761426136401165",
    "windserve: ttft_p99=0.4091972680799998 tbt_p99=0.003540976 tokens=15616 makespan=31.448288315 util=0.16105087367082083",
    "temporal: ttft_p99=0.20154921411999993 tbt_p99=0.003089815 tokens=15616 makespan=31.299917777 util=0.20825647721596074",
    "hybrid: ttft_p99=0.9679042870099976 tbt_p99=0.01135034 tokens=15616 makespan=35.123226081 util=0.1253693088737943",
];

#[test]
fn every_engine_matches_pre_refactor_golden_values() {
    let engines = engines();
    assert_eq!(engines.len(), GOLDEN.len(), "one golden line per engine");
    for ((name, mut engine), want) in engines.into_iter().zip(GOLDEN) {
        let got = golden_line(name, engine.as_mut(), false);
        assert_eq!(&got, want, "{name} diverged from the pre-refactor run");
    }
}

#[test]
fn empty_fault_plan_and_idle_watchdog_are_strict_noops() {
    // Installing `FaultPlan::none()` and the default watchdog (whose
    // thresholds this light workload never reaches) must not perturb a
    // single scheduling decision: the same goldens hold bit-for-bit.
    for ((name, mut engine), want) in engines().into_iter().zip(GOLDEN) {
        let got = golden_line(name, engine.as_mut(), true);
        assert_eq!(&got, want, "{name} diverged under FaultPlan::none()");
    }
}
