//! Fault-injection robustness: every engine must survive every
//! [`FaultKind`] at full severity — no panic, no leaked KV lease — and
//! faulty runs must replay bit-identically from their seeds.

use baselines::{ChunkedPrefill, HybridPd, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::{ContentionGuard, SoloPredictor};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use proptest::prelude::*;
use serving::{Driver, FaultKind, FaultPlan, Report, Scheduler, SloSpec, WatchdogConfig};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, WorkloadKind};

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

/// Every fault kind at the worst severity [`FaultPlan::generate`] can
/// draw at intensity 1.0 (and a harder-than-generated KV shrink).
fn full_severity_kinds() -> Vec<(&'static str, FaultKind)> {
    vec![
        (
            "sm-brownout",
            FaultKind::SmBrownout {
                gpu: 0,
                fraction: 0.95,
            },
        ),
        (
            "hbm-degrade",
            FaultKind::HbmDegrade {
                gpu: 0,
                bw_fraction: 0.05,
            },
        ),
        (
            "nvlink-degrade",
            FaultKind::NvlinkDegrade {
                link: 0,
                bw_fraction: 0.05,
            },
        ),
        ("kv-shrink", FaultKind::KvShrink { fraction: 0.9 }),
        (
            "latency-spike",
            FaultKind::KernelLatencySpike {
                mult: 3.85,
                duration: SimDuration::from_secs(6.0),
            },
        ),
    ]
}

fn run_one(engine: &mut dyn Scheduler, plan: FaultPlan, seed: u64) -> Report {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut rng = SimRng::seed_from(seed);
    let reqs = generate(WorkloadKind::ShareGpt, 30, 2.0, &mut rng);
    Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
        .with_max_sim_time(SimTime::from_secs(600.0))
        .with_faults(plan)
        .with_watchdog(WatchdogConfig::default())
        .run(engine)
}

#[test]
fn every_engine_survives_every_fault_kind_at_full_severity() {
    for (fault_name, kind) in full_severity_kinds() {
        let plan = FaultPlan::single(kind, SimTime::from_secs(2.0), SimTime::from_secs(8.0));
        for (name, mut engine) in engines() {
            let rep = run_one(engine.as_mut(), plan.clone(), 0xFA17);
            assert_eq!(
                rep.counters.leaked_leases, 0,
                "{name} leaked leases under {fault_name}"
            );
            // Every request is accounted for: engine drop paths mark the
            // request finished, shed paths mark it shed, so a drained
            // run covers the whole trace.
            assert_eq!(
                rep.finished + rep.shed,
                rep.total,
                "{name}/{fault_name}: unaccounted requests"
            );
            assert!(
                rep.recovery_secs.is_some(),
                "{name}/{fault_name}: faulty run must report recovery time"
            );
        }
    }
}

#[test]
fn generated_plan_at_full_intensity_is_survivable() {
    // The acceptance sweep in miniature: a generated intensity-1.0
    // schedule (several overlapping windows, mixed kinds) against every
    // engine.
    let plan = FaultPlan::generate(0xBAD, 1.0, 15.0, 8);
    assert!(!plan.is_empty());
    for (name, mut engine) in engines() {
        let rep = run_one(engine.as_mut(), plan.clone(), 0xBAD);
        assert_eq!(rep.counters.leaked_leases, 0, "{name} leaked leases");
    }
}

#[test]
fn muxwise_recovers_from_moderate_faults() {
    // Intensity <= 0.5 must leave MuxWise with a finite, small recovery
    // time: the TBT tail re-enters SLO soon after the hardware heals.
    let plan = FaultPlan::generate(0x5EED, 0.5, 15.0, 8);
    let (_, mut engine) = engines().remove(0);
    let rep = run_one(engine.as_mut(), plan, 0x5EED);
    let rec = rep.recovery_secs.expect("recovery reported");
    assert!(
        rec.is_finite() && rec < 120.0,
        "recovery {rec}s is not finite/small"
    );
}

/// Prefill admission sizes a request's private reservation from an
/// unlocked prefix peek; the reservation's own LRU eviction can then take
/// part of that prefix before the lease locks it. In a pool shrunk to
/// 0.5 % that happens at once, and each engine listed here used to lease
/// more private tokens than it reserved (a `private underflow` panic in
/// debug builds, a silently overcommitted pool in release). Each request
/// count is the smallest that failed.
#[test]
fn admission_reserves_what_its_lease_holds_when_the_peeked_prefix_is_evicted() {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let plan = FaultPlan::single(
        FaultKind::KvShrink { fraction: 0.995 },
        SimTime::from_secs(1e-3),
        SimTime::MAX,
    );
    for (name, mut engine) in engines() {
        let n = match name {
            "muxwise" => 4,
            "windserve" | "temporal" => 33,
            _ => continue,
        };
        let reqs = generate(WorkloadKind::ToolAgent, n, 2.0, &mut SimRng::seed_from(1));
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
            .with_faults(plan.clone())
            .run(engine.as_mut());
        assert_eq!(rep.finished, rep.total, "{name}");
        assert_eq!(rep.counters.leaked_leases, 0, "{name}");
        for table in engine.lease_tables() {
            assert_eq!(table.pool().private_tokens(), 0, "{name}");
            table.pool().check_invariants();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Faulty runs are pure functions of (seed, intensity): the plan and
    /// the full report (raw latency samples included) replay
    /// bit-identically.
    #[test]
    fn faulty_runs_replay_bit_identically(seed in 0u64..1_000, intensity in 0.0f64..1.0) {
        let plan = FaultPlan::generate(seed, intensity, 15.0, 8);
        prop_assert_eq!(&plan, &FaultPlan::generate(seed, intensity, 15.0, 8));

        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let run = || {
            let mut engine = ChunkedPrefill::tuned(&model, &cluster, 8, slo);
            let mut rng = SimRng::seed_from(seed);
            let reqs = generate(WorkloadKind::ShareGpt, 12, 2.0, &mut rng);
            Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
                .with_max_sim_time(SimTime::from_secs(300.0))
                .with_faults(plan.clone())
                .with_watchdog(WatchdogConfig::default())
                .run(&mut engine)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.counters.leaked_leases, 0);
    }
}
