//! Fail-stop recovery: every engine must survive a GPU crash at any
//! instant — no panic, no leaked KV lease, every request either finished
//! or shed — and crash runs must replay bit-identically across threads.

use baselines::{ChunkedPrefill, HybridPd, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::{ContentionGuard, SoloPredictor};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use proptest::prelude::*;
use serving::{Driver, FaultKind, FaultPlan, Report, Scheduler, SloSpec, WatchdogConfig};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, WorkloadKind};

/// Engine constructors (not instances) so one scenario can build the
/// same engine several times for replay comparisons.
fn engine_names() -> Vec<&'static str> {
    vec![
        "muxwise",
        "chunked",
        "nanoflow",
        "loongserve",
        "sglang-pd",
        "windserve",
        "temporal",
        "hybrid",
    ]
}

fn build(name: &str) -> Box<dyn Scheduler> {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    match name {
        "muxwise" => {
            let est = Estimators::profile(&model, &cluster, 8);
            Box::new(MuxWise::new(
                &model,
                &cluster,
                8,
                slo,
                est,
                MuxWiseConfig::default(),
            ))
        }
        "chunked" => Box::new(ChunkedPrefill::tuned(&model, &cluster, 8, slo)),
        "nanoflow" => Box::new(ChunkedPrefill::nanoflow(&model, &cluster, 8, slo)),
        "loongserve" => Box::new(LoongServe::new(&model, &cluster, 2, slo)),
        "sglang-pd" => Box::new(SglangPd::new(&model, &cluster, slo)),
        "windserve" => Box::new(WindServe::new(&model, &cluster, 8, slo)),
        "temporal" => {
            let par = Parallelism::tp(8, cluster.nvlink_gbs);
            Box::new(TemporalMux::new(
                &model,
                &cluster,
                8,
                slo,
                SoloPredictor::profile(&model, &cluster, &par, &[cluster.gpu.sm_count]),
            ))
        }
        "hybrid" => {
            let par = Parallelism::tp(4, cluster.nvlink_gbs);
            Box::new(HybridPd::new(
                &model,
                &cluster,
                slo,
                SoloPredictor::profile(&model, &cluster, &par, &[16, 48, 92, 108]),
                ContentionGuard::flat(1.2),
            ))
        }
        other => panic!("unknown engine {other}"),
    }
}

fn run_one(engine: &mut dyn Scheduler, plan: FaultPlan, seed: u64, n: usize) -> Report {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut rng = SimRng::seed_from(seed);
    let reqs = generate(WorkloadKind::ShareGpt, n, 2.0, &mut rng);
    Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
        .with_max_sim_time(SimTime::from_secs(600.0))
        .with_faults(plan)
        .with_watchdog(WatchdogConfig::default())
        .run(engine)
}

/// Shared post-conditions of a transient (crash-then-recover) run.
fn assert_recovered(name: &str, rep: &Report) {
    assert_eq!(rep.counters.leaked_leases, 0, "{name} leaked leases");
    assert_eq!(
        rep.finished + rep.shed,
        rep.total,
        "{name}: unaccounted requests after a transient crash"
    );
    assert_eq!(
        rep.recovery.crash_victims,
        rep.recovery.recovered + rep.recovery.shed_on_crash,
        "{name}: victim accounting does not balance"
    );
}

#[test]
fn every_engine_survives_crash_then_recover_on_both_halves() {
    // GPU 0 hits the single-group engines, LoongServe's decode group and
    // the prefill instance of SGLang-PD and HybridPd; GPU 7 hits
    // LoongServe's elastic pool and their decode instances.
    for gpu in [0u32, 7] {
        let plan = FaultPlan::crash(gpu, SimTime::from_secs(2.0), SimDuration::from_secs(6.0));
        for name in engine_names() {
            let mut engine = build(name);
            let rep = run_one(engine.as_mut(), plan.clone(), 0xC4A5, 30);
            assert_recovered(&format!("{name}/gpu{gpu}"), &rep);
        }
    }
}

#[test]
fn permanent_crash_is_survivable_and_leak_free() {
    // A fell-off-the-bus device never returns: victims parked behind the
    // dead instance may stay unserved (the run drains), but nothing may
    // panic and no lease may leak.
    for gpu in [0u32, 7] {
        let plan = FaultPlan::single(
            FaultKind::GpuFailStopPermanent { gpu },
            SimTime::from_secs(2.0),
            SimTime::from_secs(1e9),
        );
        for name in engine_names() {
            let mut engine = build(name);
            let rep = run_one(engine.as_mut(), plan.clone(), 0xDEAD, 30);
            assert_eq!(
                rep.counters.leaked_leases, 0,
                "{name}/gpu{gpu} leaked leases under a permanent crash"
            );
        }
    }
}

#[test]
fn crash_free_plans_report_zero_recovery_stats() {
    // The recovery machinery must stay inert without a fail-stop window.
    let plan = FaultPlan::generate(0x0FF, 0.5, 15.0, 8);
    assert!(!plan.has_fail_stop());
    let mut engine = build("muxwise");
    let rep = run_one(engine.as_mut(), plan, 0x0FF, 20);
    assert_eq!(rep.recovery, serving::RecoveryStats::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash-at-every-phase: a fail-stop at a random instant, on a random
    /// GPU, for a random outage, against every engine. The run must stay
    /// leak-free with full request accounting, and replay bit-identically
    /// when re-executed on other threads.
    #[test]
    fn crash_at_any_instant_is_survivable_and_deterministic(
        seed in 0u64..1_000,
        gpu in 0u32..8,
        start_ms in 100u64..20_000,
        down_ms in 500u64..8_000,
    ) {
        let plan = FaultPlan::crash(
            gpu,
            SimTime::from_secs(start_ms as f64 / 1e3),
            SimDuration::from_secs(down_ms as f64 / 1e3),
        );
        for name in engine_names() {
            let run = {
                let plan = plan.clone();
                move || {
                    let mut engine = build(name);
                    run_one(engine.as_mut(), plan.clone(), seed, 12)
                }
            };
            let here = run();
            let threaded = std::thread::spawn(run.clone()).join().expect("no panic");
            prop_assert_eq!(&here, &threaded, "{} diverged across threads", name);
            assert_recovered(name, &here);
        }
    }
}
