//! Robustness tests: configuration corners, horizon cutoffs, and
//! resource-exhaustion behaviour across the serving systems.

use gpusim::{ClusterSpec, GpuSim};
use modelspec::ModelSpec;
use muxwise::{Estimators, MuxWise, MuxWiseConfig, PartitionBackend, Preemption};
use serving::{Driver, SloSpec};
use simcore::{SimRng, SimTime};
use workload::{generate, WorkloadKind};

fn testbed() -> (ModelSpec, ClusterSpec, SloSpec, Estimators) {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    let est = Estimators::profile(&model, &cluster, 8);
    (model, cluster, slo, est)
}

#[test]
fn horizon_cutoff_leaves_unfinished_requests() {
    let (model, cluster, slo, est) = testbed();
    let mut engine = MuxWise::new(
        &model,
        &cluster,
        8,
        slo,
        est.clone(),
        MuxWiseConfig::default(),
    );
    let mut rng = SimRng::seed_from(1);
    let reqs = generate(WorkloadKind::OpenThoughts, 20, 2.0, &mut rng);
    // Cut the run long before the long outputs can finish.
    let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
        .with_max_sim_time(SimTime::from_secs(5.0))
        .run(&mut engine);
    assert!(rep.finished < rep.total, "horizon should truncate the run");
    assert!(!rep.is_stable());
    assert!(rep.makespan.as_secs() <= 5.0 + 1e-6);
    // Regression: the in-flight requests cut off by the horizon still
    // hold their KV leases by design — the leak detector must not count
    // (or panic on) a truncated run.
    assert_eq!(
        rep.counters.leaked_leases, 0,
        "horizon-held leases are not leaks"
    );
}

#[test]
fn every_backend_completes() {
    let (model, cluster, slo, est) = testbed();
    for backend in [
        PartitionBackend::GreenContext,
        PartitionBackend::Mps,
        PartitionBackend::Static,
    ] {
        let mut engine = MuxWise::new(
            &model,
            &cluster,
            8,
            slo,
            est.clone(),
            MuxWiseConfig::with_backend(backend),
        );
        let mut rng = SimRng::seed_from(3);
        let reqs = generate(WorkloadKind::Conversation, 40, 2.0, &mut rng);
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total, "{backend:?} left requests behind");
    }
}

#[test]
fn static_backend_never_reconfigures() {
    let (model, cluster, slo, est) = testbed();
    let mut engine = MuxWise::new(
        &model,
        &cluster,
        8,
        slo,
        est,
        MuxWiseConfig::with_backend(PartitionBackend::Static),
    );
    let mut rng = SimRng::seed_from(5);
    let reqs = generate(WorkloadKind::ShareGpt, 80, 8.0, &mut rng);
    Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
    assert_eq!(
        engine.partition_log().len(),
        1,
        "static slicing must keep the initial partition"
    );
}

#[test]
fn guardless_config_still_serves() {
    let (model, cluster, slo, est) = testbed();
    let mut engine = MuxWise::new(
        &model,
        &cluster,
        8,
        slo,
        est,
        MuxWiseConfig::without_guard(),
    );
    let mut rng = SimRng::seed_from(7);
    let reqs = generate(WorkloadKind::ToolAgent, 60, 2.0, &mut rng);
    let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
    assert_eq!(rep.finished, rep.total);
}

#[test]
fn tiny_pool_forces_drops_not_hangs() {
    // Llama-70B barely fits next to Qwen-scale contexts: use a single
    // A100 where the pool is small; ultra-long LooGLE inputs can exceed
    // it. The engine must drop what can never fit instead of hanging.
    let cluster = ClusterSpec::single_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    let est = Estimators::profile(&model, &cluster, 1);
    let mut engine = MuxWise::new(&model, &cluster, 1, slo, est, MuxWiseConfig::default());
    let mut rng = SimRng::seed_from(9);
    let reqs = generate(WorkloadKind::Loogle, 10, 0.5, &mut rng);
    let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
    // The run terminates: every request either served or dropped.
    assert_eq!(
        rep.finished, rep.total,
        "run must terminate accounting all requests"
    );
}

#[test]
fn preemption_never_double_finishes() {
    let (model, cluster, slo, est) = testbed();
    let mut engine = MuxWise::new(
        &model,
        &cluster,
        8,
        slo,
        est,
        MuxWiseConfig::with_preemption(Preemption::ShortestFirst),
    );
    let mut rng = SimRng::seed_from(11);
    let mut reqs = generate(WorkloadKind::Loogle, 10, 0.4, &mut rng);
    let mut short = generate(WorkloadKind::ShareGpt, 30, 1.2, &mut rng);
    reqs.append(&mut short);
    reqs.sort_by_key(|r| r.arrival);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = i as u64;
    }
    let expected_tokens: u64 = reqs.iter().map(|r| r.output_tokens).sum();
    let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
    assert_eq!(rep.finished, rep.total);
    assert_eq!(
        rep.total_tokens, expected_tokens,
        "preemption must not duplicate or lose tokens"
    );
    let pool = engine.pool().expect("pool");
    assert_eq!(pool.private_tokens(), 0);
    pool.check_invariants();
}

#[test]
fn single_request_round_trip() {
    let (model, cluster, slo, est) = testbed();
    let mut engine = MuxWise::new(&model, &cluster, 8, slo, est, MuxWiseConfig::default());
    let mut rng = SimRng::seed_from(13);
    let reqs = generate(WorkloadKind::ShareGpt, 1, 1.0, &mut rng);
    let out = reqs[0].output_tokens;
    let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
    assert_eq!(rep.finished, 1);
    assert_eq!(rep.total_tokens, out);
    // TTFT of an unloaded prefill: a few tens of milliseconds at most.
    assert!(rep.ttft.max() < 0.25, "unloaded TTFT {}", rep.ttft.max());
}
