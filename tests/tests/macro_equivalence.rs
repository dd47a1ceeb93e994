//! Macro-stepped decode is a pure launch-path optimization: every
//! engine must produce a bit-identical [`Report`] with the fast path
//! enabled or disabled, under clean runs, degradation windows, and
//! crash schedules. Also guards scratch-buffer hygiene: back-to-back
//! runs in one process must equal a fresh run (no state leaks through
//! reused or process-level scratch).

use baselines::{ChunkedPrefill, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::SoloPredictor;
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use proptest::prelude::*;
use serving::{Driver, FaultPlan, Report, Scheduler, SloSpec, WatchdogConfig};
use simcore::{SimRng, SimTime};
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
    ]
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

/// Runs the named engine twice — macro-stepping on, then off — and
/// returns both reports plus the on-run's `(iters, coalesced)` stats.
fn run_both_ways(
    idx: usize,
    plan: &FaultPlan,
    seed: u64,
    n: usize,
) -> (Report, Report, (u64, u64)) {
    let (_, mut fast) = engines().remove(idx);
    fast.set_macro_steps(true);
    let rep_fast = run_one(fast.as_mut(), plan.clone(), seed, n);
    let stats = fast.decode_iter_stats();

    let (_, mut slow) = engines().remove(idx);
    slow.set_macro_steps(false);
    let rep_slow = run_one(slow.as_mut(), plan.clone(), seed, n);
    (rep_fast, rep_slow, stats)
}

/// Clean run + a crash-bearing schedule: macro on == macro off for all
/// seven engines, and the engines that implement the fast path actually
/// coalesce (the equivalence would be vacuous otherwise).
#[test]
fn macro_stepping_is_bit_identical_for_every_engine() {
    let plans = [
        ("clean", FaultPlan::default()),
        // Intensity 0.8 draws degradation windows AND fail-stop crashes
        // (crash draws activate above ~0.25), so the macro disarm paths
        // for on_gpu_lost/on_gpu_recovered are exercised.
        (
            "crashy",
            FaultPlan::generate_with_crashes(0xC4A5, 0.8, 15.0, 8),
        ),
    ];
    for (plan_name, plan) in &plans {
        for (idx, (name, _)) in engines().iter().enumerate() {
            let (fast, slow, (iters, coalesced)) = run_both_ways(idx, plan, 0x3AC0, 30);
            assert_eq!(
                &fast, &slow,
                "{name}/{plan_name}: macro-stepped report diverged from single-step"
            );
            if matches!(*name, "muxwise" | "chunked" | "nanoflow") {
                assert!(
                    iters > 0 && coalesced > 0,
                    "{name}/{plan_name}: fast path never armed \
                     ({coalesced}/{iters} coalesced) — equivalence is vacuous"
                );
            }
        }
    }
}

/// Llama-70B MuxWise widens decode during pure-decode stretches and then
/// hands the SMs back to prefill one side at a time, a path the Llama-8B
/// engines above never reach: macro on == macro off there too, clean
/// and under crashes.
#[test]
fn macro_stepping_is_bit_identical_for_muxwise_on_llama70b() {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama70b();
    let slo = SloSpec::llama70b();
    let est = Estimators::profile(&model, &cluster, 8);
    let plans = [
        FaultPlan::default(),
        FaultPlan::generate_with_crashes(0xC4A5, 0.8, 15.0, 8),
    ];
    for plan in &plans {
        let run = |macro_steps: bool| {
            let cfg = MuxWiseConfig::default();
            let mut engine = MuxWise::new(&model, &cluster, 8, slo, est.clone(), cfg);
            engine.set_macro_steps(macro_steps);
            let mut rng = SimRng::seed_from(0x70B);
            let reqs = generate(WorkloadKind::Conversation, 40, 1.0, &mut rng);
            let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
                .with_max_sim_time(SimTime::from_secs(600.0))
                .with_faults(plan.clone())
                .with_watchdog(WatchdogConfig::default())
                .run(&mut engine);
            (
                rep,
                engine.partition_log().to_vec(),
                engine.decode_iter_stats(),
            )
        };
        let (fast, fast_log, (iters, coalesced)) = run(true);
        let (slow, slow_log, _) = run(false);
        assert_eq!(fast, slow, "macro-stepped report diverged from single-step");
        assert_eq!(fast_log, slow_log, "partition logs diverged");
        assert!(iters > 0 && coalesced > 0, "fast path never armed");
        assert!(
            fast_log.iter().any(|&(_, sms)| sms > 16),
            "decode never widened: {fast_log:?}"
        );
    }
}

/// Back-to-back runs in one process equal each other exactly: no state
/// (scratch buffers, slab generations, estimator caches) leaks between
/// runs through anything process-global.
#[test]
fn back_to_back_runs_match_fresh_runs() {
    let plan = FaultPlan::generate_with_crashes(0x5C_0DE, 0.6, 15.0, 8);
    for (idx, (name, _)) in engines().iter().enumerate() {
        let run = || {
            let (_, mut engine) = engines().remove(idx);
            run_one(engine.as_mut(), plan.clone(), 0x5C_0DE, 30)
        };
        let first = run();
        let second = run();
        let third = run();
        assert_eq!(&first, &second, "{name}: second run diverged from fresh");
        assert_eq!(&first, &third, "{name}: third run diverged from fresh");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized fault schedules (degradation + crashes): macro on ==
    /// macro off across every engine, for any (seed, intensity).
    #[test]
    fn macro_stepping_equivalence_holds_under_random_faults(
        seed in 0u64..1_000,
        intensity in 0.0f64..1.0,
    ) {
        let plan = FaultPlan::generate_with_crashes(seed, intensity, 15.0, 8);
        for (idx, (name, _)) in engines().iter().enumerate() {
            let (fast, slow, _) = run_both_ways(idx, &plan, seed, 12);
            prop_assert_eq!(
                &fast, &slow,
                "{}: macro-stepped report diverged (seed {}, intensity {})",
                name, seed, intensity
            );
        }
    }
}
