//! Crash goldens: full-precision report values of fail-stop runs.
//!
//! `recovery`, `faults` and `fleet` compare crash runs only with each
//! other (replay, thread count, barrier interleaving), so a change to
//! the crash path that moves every run the same way passes them all.
//! These lines pin the values themselves. They were captured before the
//! engines' crash bookkeeping (prefix protection, victim packaging,
//! watchdog shedding, retry backoff) was consolidated, and every engine
//! and fleet must keep reproducing them bit for bit. The `crash-shrink`
//! lines of LoongServe, SGLang-PD, WindServe and HybridPd were re-pinned
//! when those engines began retrying their admissions as a KV-shrink
//! window closes, instead of at their next arrival or completion.

use baselines::{ChunkedPrefill, HybridPd, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::{ContentionGuard, SoloPredictor};
use fleet::{Fleet, FleetReport, HedgeConfig, PathClass, PrefixAffinity, ReplicationConfig};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use serving::{
    Driver, FaultKind, FaultPlan, FaultWindow, Report, Scheduler, SloSpec, WatchdogConfig,
};
use simcore::stats::Summary;
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, generate_fleet_stream, WorkloadKind};

const ENGINES: [&str; 8] = [
    "muxwise",
    "chunked",
    "nanoflow",
    "loongserve",
    "sglang-pd",
    "windserve",
    "temporal",
    "hybrid",
];

fn build(name: &str, est: &Estimators) -> Box<dyn Scheduler> {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    match name {
        "muxwise" => Box::new(MuxWise::new(
            &model,
            &cluster,
            8,
            slo,
            est.clone(),
            MuxWiseConfig::default(),
        )),
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

fn permanent(gpu: u32, at_secs: f64) -> FaultPlan {
    FaultPlan::single(
        FaultKind::GpuFailStopPermanent { gpu },
        SimTime::from_secs(at_secs),
        SimTime::from_secs(1e9),
    )
}

/// The single-instance fault plans: a transient and a permanent crash
/// on each half of the disaggregated engines, a transient crash under a
/// deep KV shrink, and seeded intensity-1.0 schedules that layer crashes
/// over degradation windows.
fn plans() -> Vec<(String, FaultPlan)> {
    let mut plans = Vec::new();
    for gpu in [0u32, 7] {
        plans.push((
            format!("crash-gpu{gpu}"),
            FaultPlan::crash(gpu, SimTime::from_secs(2.0), SimDuration::from_secs(6.0)),
        ));
        plans.push((format!("perm-gpu{gpu}"), permanent(gpu, 2.0)));
    }
    // The victims wait out a shrink to 0.5 % of the pool: prefix
    // protection decides which cached prefixes survive it. Disabling
    // protection moves most of these lines.
    for gpu in [0u32, 7] {
        let mut plan = FaultPlan::crash(gpu, SimTime::from_secs(2.0), SimDuration::from_secs(6.0));
        plan.windows.push(FaultWindow {
            start: SimTime::from_secs(3.0),
            end: SimTime::from_secs(9.0),
            kind: FaultKind::KvShrink { fraction: 0.995 },
        });
        plans.push((format!("crash-shrink-gpu{gpu}"), plan));
    }
    for seed in 1..=3u64 {
        let plan = FaultPlan::generate_with_crashes(seed, 1.0, 15.0, 8);
        assert!(plan.has_fail_stop());
        plans.push((format!("gen{seed}"), plan));
    }
    plans
}

fn summary(s: &Summary) -> String {
    format!("(n={} mean={:?} max={:?})", s.len(), s.mean(), s.max())
}

fn recovery(rep: &Report) -> String {
    let r = &rep.recovery;
    format!(
        "victims={} recovered={} shed_on_crash={} reprefill={} failover={} migrated_out={}",
        r.crash_victims,
        r.recovered,
        r.shed_on_crash,
        r.reprefill_tokens,
        summary(&r.failover),
        r.migrated_out,
    )
}

/// `refactor_invariance`'s golden fields plus the request outcome
/// classes and the recovery statistics.
fn report_line(label: &str, rep: &Report) -> String {
    format!(
        "{label}: ttft_p99={:?} tbt_p99={:?} tokens={} makespan={:?} util={:?} \
         finished={} shed={} cancelled={} {}",
        rep.ttft.p99(),
        rep.tbt.p99(),
        rep.total_tokens,
        rep.makespan.as_secs(),
        rep.utilization,
        rep.finished,
        rep.shed,
        rep.cancelled,
        recovery(rep),
    )
}

fn single_instance_lines() -> Vec<String> {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let est = Estimators::profile(&ModelSpec::llama8b(), &cluster, 8);
    let workloads = [
        ("sharegpt", WorkloadKind::ShareGpt),
        ("conversation", WorkloadKind::Conversation),
    ];
    let mut lines = Vec::new();
    for (plan_name, plan) in plans() {
        for (wl_name, kind) in workloads {
            for name in ENGINES {
                let reqs = generate(kind, 48, 4.0, &mut SimRng::seed_from(0xC4A5));
                let mut engine = build(name, &est);
                let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
                    .with_max_sim_time(SimTime::from_secs(600.0))
                    .with_faults(plan.clone())
                    .with_watchdog(WatchdogConfig::default())
                    .run(engine.as_mut());
                lines.push(report_line(&format!("{name}/{plan_name}/{wl_name}"), &rep));
            }
        }
    }
    lines
}

const FLEET_ENGINES: [(&str, PathClass); 4] = [
    ("muxwise", PathClass::SingleNode),
    ("sglang-pd", PathClass::Split),
    ("chunked", PathClass::SingleNode),
    ("windserve", PathClass::Split),
];

fn spike(start: f64, secs: f64) -> FaultPlan {
    FaultPlan::single(
        FaultKind::KernelLatencySpike {
            mult: 20.0,
            duration: SimDuration::from_secs(secs),
        },
        SimTime::from_secs(start),
        SimTime::from_secs(start + secs),
    )
}

/// Member `i`'s fault plan in the fleet scenario `scenario`.
fn member_plan(scenario: &str, i: usize) -> FaultPlan {
    match (scenario, i) {
        ("crashes", 0) => permanent(0, 2.0),
        ("crashes", 1) => FaultPlan::crash(5, SimTime::from_secs(3.0), SimDuration::from_secs(4.0)),
        ("crashes", 6) => permanent(7, 4.0),
        ("crashes", 7) => FaultPlan::crash(1, SimTime::from_secs(2.5), SimDuration::from_secs(8.0)),
        ("gray", 1) => spike(1.0, 30.0),
        ("gray", 4) => spike(2.0, 20.0),
        ("gray", 2) => permanent(3, 3.0),
        _ => FaultPlan::none(),
    }
}

/// A 12-member mixed fleet (three of each engine) with hot-prefix
/// replication, routed by prefix affinity.
fn fleet_run(scenario: &str, hedging: bool, est: &Estimators) -> FleetReport {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut fleet = Fleet::new().with_replication(ReplicationConfig {
        factor: 2,
        top_k: 16,
        sweep_every: 4,
        ..ReplicationConfig::default()
    });
    if hedging {
        fleet = fleet.with_hedging(HedgeConfig::default());
    }
    for i in 0..12 {
        let (name, class) = FLEET_ENGINES[i % FLEET_ENGINES.len()];
        let driver = Driver::new(GpuSim::from_cluster(&cluster), Vec::new(), slo)
            .with_faults(member_plan(scenario, i))
            .with_watchdog(WatchdogConfig::default());
        fleet.push(driver, build(name, est), class, format!("{name}#{i}"));
    }
    let trace = generate_fleet_stream(
        WorkloadKind::Conversation,
        12,
        6,
        2.0,
        5.0,
        &mut SimRng::seed_from(0xF1EE7),
    );
    fleet.run(&trace, &mut PrefixAffinity::default())
}

fn fleet_lines() -> Vec<String> {
    let est = Estimators::profile(&ModelSpec::llama8b(), &ClusterSpec::dgx_a100(), 8);
    let mut lines = Vec::new();
    for scenario in ["crashes", "gray"] {
        for hedging in [false, true] {
            let run = format!("{scenario}/hedge-{}", if hedging { "on" } else { "off" });
            let r = fleet_run(scenario, hedging, &est);
            let f = &r.failover;
            lines.push(format!(
                "{run}: routing={:?} failover=(drained={} migrated={} gave_up={} \
                 replica_hit={} reprefill={} migrated_finished={} migrated_shed={} \
                 delay={} stranded={}) replication={:?} health={:?} hedge={:?} overload={:?}",
                r.routing,
                f.drained,
                f.migrated,
                f.gave_up,
                f.replica_hit,
                f.reprefill,
                f.migrated_finished,
                f.migrated_shed,
                summary(&f.migration_delay),
                f.stranded,
                r.replication,
                r.health,
                r.hedge,
                r.overload,
            ));
            for ((label, rep), routed) in r.labels.iter().zip(&r.reports).zip(&r.routed) {
                lines.push(format!(
                    "{} routed={routed}",
                    report_line(&format!("{run}/{label}"), rep)
                ));
            }
        }
    }
    lines
}

/// Every check of one golden set: same number of lines, each equal.
fn assert_matches(got: &[String], want: &[&str]) {
    assert_eq!(got.len(), want.len(), "golden line count");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want, "a crash run diverged from its golden");
    }
}

#[test]
fn every_engine_reproduces_its_crash_goldens() {
    assert_matches(&single_instance_lines(), SINGLE_INSTANCE);
}

#[test]
fn mixed_fleet_reproduces_its_crash_goldens() {
    assert_matches(&fleet_lines(), FLEET);
}

/// `engine/plan/workload` lines, in `single_instance_lines` order.
const SINGLE_INSTANCE: &[&str] = &[
    "muxwise/crash-gpu0/sharegpt: ttft_p99=5.42431543264 tbt_p99=0.004570767929999962 tokens=9578 makespan=13.640970282 util=0.031245147552612443 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-gpu0/sharegpt: ttft_p99=5.404201540640001 tbt_p99=0.0075945211099999865 tokens=9578 makespan=12.847780573 util=0.10608429973211995 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-gpu0/sharegpt: ttft_p99=5.40195415464 tbt_p99=0.009122711 tokens=9578 makespan=13.589453983 util=0.1296307067860094 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-gpu0/sharegpt: ttft_p99=1.5290575020800001 tbt_p99=0.005722434 tokens=9578 makespan=14.962000604 util=0.14689480828820675 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=2591 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/crash-gpu0/sharegpt: ttft_p99=5.459102337639999 tbt_p99=0.003251038 tokens=9578 makespan=13.527345016 util=0.07366572811408764 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "windserve/crash-gpu0/sharegpt: ttft_p99=5.3887053504899995 tbt_p99=0.002384696 tokens=9578 makespan=12.970148241 util=0.0651054599904804 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=816 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-gpu0/sharegpt: ttft_p99=5.387546498360001 tbt_p99=0.009788644 tokens=9578 makespan=12.846826773 util=0.10316445802361393 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-gpu0/sharegpt: ttft_p99=5.459102337639999 tbt_p99=0.006021633 tokens=9578 makespan=15.294976422 util=0.023245222783450935 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "muxwise/crash-gpu0/conversation: ttft_p99=6.49290773621 tbt_p99=0.007200627 tokens=17234 makespan=16.390736339 util=0.16809759554232023 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13522 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-gpu0/conversation: ttft_p99=6.44152916208 tbt_p99=0.039720640100000655 tokens=17234 makespan=16.276948453 util=0.314332240392424 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13816 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-gpu0/conversation: ttft_p99=6.364300984120001 tbt_p99=0.03635613595000064 tokens=17234 makespan=18.005899011 util=0.2938157130757735 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-gpu0/conversation: ttft_p99=2.90404145708 tbt_p99=0.013745873000000002 tokens=17234 makespan=21.945861865 util=0.18370944692839525 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=32770 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/crash-gpu0/conversation: ttft_p99=6.426880443650001 tbt_p99=0.005080854 tokens=17234 makespan=16.239076784 util=0.258483092785009 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "windserve/crash-gpu0/conversation: ttft_p99=6.310601613899999 tbt_p99=0.003304598 tokens=17234 makespan=15.079688508 util=0.2159146760832741 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13907 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-gpu0/conversation: ttft_p99=6.09278949237 tbt_p99=0.04613609 tokens=17234 makespan=14.86098333 util=0.2379965411388386 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13930 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-gpu0/conversation: ttft_p99=3.8761511314600003 tbt_p99=0.012576031 tokens=17234 makespan=19.351280286 util=0.22642169870070872 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "muxwise/perm-gpu0/sharegpt: ttft_p99=0.01134149722 tbt_p99=0.005690202 tokens=1493 makespan=13.619729445 util=0.0073721465416180494 finished=7 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/perm-gpu0/sharegpt: ttft_p99=0.01425795216 tbt_p99=0.0019915262 tokens=1577 makespan=13.619729445 util=0.02572346771183778 finished=9 shed=0 cancelled=0 victims=1 recovered=0 shed_on_crash=1 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/perm-gpu0/sharegpt: ttft_p99=0.01779830985 tbt_p99=0.00890739494 tokens=1493 makespan=13.619729445 util=0.031879304050688104 finished=7 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/perm-gpu0/sharegpt: ttft_p99=1.5365304328800002 tbt_p99=0.005535021 tokens=1241 makespan=13.646010096 util=0.03257658079693311 finished=5 shed=0 cancelled=0 victims=5 recovered=0 shed_on_crash=5 reprefill=2591 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/perm-gpu0/sharegpt: ttft_p99=0.021707353869999998 tbt_p99=0.00316432412 tokens=1659 makespan=13.619729445 util=0.02043189465904133 finished=10 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "windserve/perm-gpu0/sharegpt: ttft_p99=0.02193449414 tbt_p99=0.0022656032499999996 tokens=1562 makespan=13.619729445 util=0.015553510292635664 finished=9 shed=0 cancelled=0 victims=1 recovered=0 shed_on_crash=1 reprefill=816 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/perm-gpu0/sharegpt: ttft_p99=0.01375492366 tbt_p99=0.0019915362 tokens=1577 makespan=13.619729445 util=0.02544787529794218 finished=9 shed=0 cancelled=0 victims=1 recovered=0 shed_on_crash=1 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/perm-gpu0/sharegpt: ttft_p99=10.22215581519 tbt_p99=0.005890271 tokens=3952 makespan=20.552758358 util=0.012898276970787912 finished=18 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "muxwise/perm-gpu0/conversation: ttft_p99=0.1185206747 tbt_p99=0.004410082 tokens=1178 makespan=14.494506203 util=0.02984295729754903 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13522 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/perm-gpu0/conversation: ttft_p99=0.22123318405999995 tbt_p99=0.03001586603999997 tokens=1472 makespan=14.494506203 util=0.05023096822635204 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13816 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/perm-gpu0/conversation: ttft_p99=0.19893067025999997 tbt_p99=0.029016187 tokens=1110 makespan=14.494506203 util=0.049521648672333045 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/perm-gpu0/conversation: ttft_p99=2.90404145708 tbt_p99=0.006744867 tokens=596 makespan=14.577089225 util=0.024244826986066722 finished=1 shed=0 cancelled=0 victims=5 recovered=0 shed_on_crash=5 reprefill=32770 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/perm-gpu0/conversation: ttft_p99=0.20885825573999997 tbt_p99=0.004004173 tokens=4136 makespan=14.494506203 util=0.07900343323913421 finished=7 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "windserve/perm-gpu0/conversation: ttft_p99=0.21403731414000002 tbt_p99=0.002755063 tokens=1563 makespan=14.494506203 util=0.036878322845848736 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13907 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/perm-gpu0/conversation: ttft_p99=0.10616430139999998 tbt_p99=0.024216422580000226 tokens=1586 makespan=14.494506203 util=0.04437180473765298 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13930 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/perm-gpu0/conversation: ttft_p99=3.8770941011 tbt_p99=0.010666475 tokens=15515 makespan=19.890769473 util=0.2456239439728395 finished=46 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "muxwise/crash-gpu7/sharegpt: ttft_p99=5.42431543264 tbt_p99=0.004570767929999962 tokens=9578 makespan=13.640970282 util=0.031245147552612443 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-gpu7/sharegpt: ttft_p99=5.404201540640001 tbt_p99=0.0075945211099999865 tokens=9578 makespan=12.847780573 util=0.10608429973211995 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-gpu7/sharegpt: ttft_p99=5.40195415464 tbt_p99=0.009122711 tokens=9578 makespan=13.589453983 util=0.1296307067860094 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-gpu7/sharegpt: ttft_p99=1.5290575020800001 tbt_p99=0.005597485 tokens=9578 makespan=14.940192349 util=0.2199741515068442 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/crash-gpu7/sharegpt: ttft_p99=5.45910539864 tbt_p99=0.003272522 tokens=9578 makespan=13.529598432 util=0.0706481535700685 finished=48 shed=0 cancelled=0 victims=2 recovered=2 shed_on_crash=0 reprefill=1121 failover=(n=2 mean=0.25 max=0.25) migrated_out=0",
    "windserve/crash-gpu7/sharegpt: ttft_p99=5.3887053504899995 tbt_p99=0.002384696 tokens=9578 makespan=12.970148241 util=0.0651054599904804 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=816 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-gpu7/sharegpt: ttft_p99=5.387546498360001 tbt_p99=0.009788644 tokens=9578 makespan=12.846826773 util=0.10316445802361393 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-gpu7/sharegpt: ttft_p99=1.5178901908899998 tbt_p99=0.0061077860000000005 tokens=9578 makespan=15.301467938 util=0.022472882057015586 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=2546 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/crash-gpu7/conversation: ttft_p99=6.49290773621 tbt_p99=0.007200627 tokens=17234 makespan=16.390736339 util=0.16809759554232023 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13522 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-gpu7/conversation: ttft_p99=6.44152916208 tbt_p99=0.039720640100000655 tokens=17234 makespan=16.276948453 util=0.314332240392424 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13816 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-gpu7/conversation: ttft_p99=6.364300984120001 tbt_p99=0.03635613595000064 tokens=17234 makespan=18.005899011 util=0.2938157130757735 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-gpu7/conversation: ttft_p99=3.389789319580001 tbt_p99=0.010467657000000002 tokens=17234 makespan=18.835633677 util=0.24886078158933905 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/crash-gpu7/conversation: ttft_p99=6.426885035650001 tbt_p99=0.005420602 tokens=17234 makespan=16.304794012 util=0.2231470265404244 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13542 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "windserve/crash-gpu7/conversation: ttft_p99=6.310601613899999 tbt_p99=0.003304598 tokens=17234 makespan=15.079688508 util=0.2159146760832741 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13907 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-gpu7/conversation: ttft_p99=6.09278949237 tbt_p99=0.04613609 tokens=17234 makespan=14.86098333 util=0.2379965411388386 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13930 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-gpu7/conversation: ttft_p99=1.8243083494 tbt_p99=0.014814875 tokens=17234 makespan=22.8956767 util=0.1494600972388615 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=37089 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/perm-gpu7/sharegpt: ttft_p99=0.01134149722 tbt_p99=0.005690202 tokens=1493 makespan=13.619729445 util=0.0073721465416180494 finished=7 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/perm-gpu7/sharegpt: ttft_p99=0.01425795216 tbt_p99=0.0019915262 tokens=1577 makespan=13.619729445 util=0.02572346771183778 finished=9 shed=0 cancelled=0 victims=1 recovered=0 shed_on_crash=1 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/perm-gpu7/sharegpt: ttft_p99=0.01779830985 tbt_p99=0.00890739494 tokens=1493 makespan=13.619729445 util=0.031879304050688104 finished=7 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/perm-gpu7/sharegpt: ttft_p99=1.5365304328800002 tbt_p99=0.005555832 tokens=9578 makespan=16.436305122 util=0.2206082390078306 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/perm-gpu7/sharegpt: ttft_p99=0.021707353869999998 tbt_p99=0.003164363 tokens=1512 makespan=13.619729445 util=0.01737109406026905 finished=8 shed=0 cancelled=0 victims=2 recovered=0 shed_on_crash=2 reprefill=1121 failover=(n=2 mean=0.25 max=0.25) migrated_out=0",
    "windserve/perm-gpu7/sharegpt: ttft_p99=0.02193449414 tbt_p99=0.0022656032499999996 tokens=1562 makespan=13.619729445 util=0.015553510292635664 finished=9 shed=0 cancelled=0 victims=1 recovered=0 shed_on_crash=1 reprefill=816 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/perm-gpu7/sharegpt: ttft_p99=0.01375492366 tbt_p99=0.0019915362 tokens=1577 makespan=13.619729445 util=0.02544787529794218 finished=9 shed=0 cancelled=0 victims=1 recovered=0 shed_on_crash=1 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/perm-gpu7/sharegpt: ttft_p99=1.52557157754 tbt_p99=0.005889889799999999 tokens=1196 makespan=13.635488401 util=0.013017277840358396 finished=5 shed=0 cancelled=0 victims=5 recovered=0 shed_on_crash=5 reprefill=2546 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/perm-gpu7/conversation: ttft_p99=0.1185206747 tbt_p99=0.004410082 tokens=1178 makespan=14.494506203 util=0.02984295729754903 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13522 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/perm-gpu7/conversation: ttft_p99=0.22123318405999995 tbt_p99=0.03001586603999997 tokens=1472 makespan=14.494506203 util=0.05023096822635204 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13816 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/perm-gpu7/conversation: ttft_p99=0.19893067025999997 tbt_p99=0.029016187 tokens=1110 makespan=14.494506203 util=0.049521648672333045 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/perm-gpu7/conversation: ttft_p99=3.389789319580001 tbt_p99=0.009449412 tokens=17234 makespan=20.158284106 util=0.24742250390997886 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/perm-gpu7/conversation: ttft_p99=0.20885825573999997 tbt_p99=0.004004744 tokens=1198 makespan=14.494506203 util=0.03698468840456813 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13542 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "windserve/perm-gpu7/conversation: ttft_p99=0.21403731414000002 tbt_p99=0.002755063 tokens=1563 makespan=14.494506203 util=0.036878322845848736 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13907 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/perm-gpu7/conversation: ttft_p99=0.10616430139999998 tbt_p99=0.024216422580000226 tokens=1586 makespan=14.494506203 util=0.04437180473765298 finished=4 shed=0 cancelled=0 victims=3 recovered=0 shed_on_crash=3 reprefill=13930 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/perm-gpu7/conversation: ttft_p99=1.84996065001 tbt_p99=0.007411664 tokens=687 makespan=14.539548807 util=0.1801519220267077 finished=2 shed=0 cancelled=0 victims=5 recovered=0 shed_on_crash=5 reprefill=37089 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/crash-shrink-gpu0/sharegpt: ttft_p99=5.42431543264 tbt_p99=0.004184167 tokens=9578 makespan=13.640966138 util=0.04071619630066342 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-shrink-gpu0/sharegpt: ttft_p99=5.404201540640001 tbt_p99=0.002050131 tokens=9578 makespan=12.848313366 util=0.10828510994700385 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-shrink-gpu0/sharegpt: ttft_p99=5.40195415464 tbt_p99=0.009011332 tokens=9578 makespan=13.591515336 util=0.12962949945570154 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-shrink-gpu0/sharegpt: ttft_p99=1.5290575020800001 tbt_p99=0.005668025 tokens=9578 makespan=15.623160899 util=0.15028056153188638 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=2591 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/crash-shrink-gpu0/sharegpt: ttft_p99=5.459102337639999 tbt_p99=0.003228248 tokens=9578 makespan=13.533585715 util=0.07368311905000287 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "windserve/crash-shrink-gpu0/sharegpt: ttft_p99=5.3887053504899995 tbt_p99=0.00243476 tokens=9578 makespan=12.970595886 util=0.06515568984684268 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=816 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-shrink-gpu0/sharegpt: ttft_p99=5.387546498360001 tbt_p99=0.008256508 tokens=9578 makespan=12.845185674 util=0.10540851906897919 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-shrink-gpu0/sharegpt: ttft_p99=5.459102337639999 tbt_p99=0.005972108 tokens=9578 makespan=16.038758266 util=0.02295404804617111 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "muxwise/crash-shrink-gpu0/conversation: ttft_p99=7.25960349374 tbt_p99=0.007384002 tokens=17234 makespan=16.587595922 util=0.18329284826308567 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13522 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-shrink-gpu0/conversation: ttft_p99=7.1858581314 tbt_p99=0.03835345 tokens=17234 makespan=16.771703357 util=0.3106479121219837 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13816 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-shrink-gpu0/conversation: ttft_p99=7.26056529223 tbt_p99=0.035704105 tokens=17234 makespan=18.297152839 util=0.30190831796395085 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-shrink-gpu0/conversation: ttft_p99=2.90404145708 tbt_p99=0.014372627 tokens=17234 makespan=22.946004424 util=0.1757046765895449 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=32770 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/crash-shrink-gpu0/conversation: ttft_p99=7.426880443650001 tbt_p99=0.005277644 tokens=17234 makespan=16.847746628 util=0.23981766903982016 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "windserve/crash-shrink-gpu0/conversation: ttft_p99=7.3727281301300005 tbt_p99=0.003362888 tokens=17234 makespan=15.467165773 util=0.21937447404250623 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13907 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-shrink-gpu0/conversation: ttft_p99=7.085802607530001 tbt_p99=0.046443943 tokens=17234 makespan=14.995747568 util=0.2429312161436885 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13930 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-shrink-gpu0/conversation: ttft_p99=8.156180290610001 tbt_p99=0.013217289 tokens=17234 makespan=21.511843523 util=0.2265539604414094 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "muxwise/crash-shrink-gpu7/sharegpt: ttft_p99=5.42431543264 tbt_p99=0.004184167 tokens=9578 makespan=13.640966138 util=0.04071619630066342 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-shrink-gpu7/sharegpt: ttft_p99=5.404201540640001 tbt_p99=0.002050131 tokens=9578 makespan=12.848313366 util=0.10828510994700385 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-shrink-gpu7/sharegpt: ttft_p99=5.40195415464 tbt_p99=0.009011332 tokens=9578 makespan=13.591515336 util=0.12962949945570154 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1524 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-shrink-gpu7/sharegpt: ttft_p99=1.5290575020800001 tbt_p99=0.00559182 tokens=9578 makespan=15.601517559 util=0.22026943371633473 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/crash-shrink-gpu7/sharegpt: ttft_p99=5.45910539864 tbt_p99=0.003249692 tokens=9578 makespan=13.532718777 util=0.07065902326009399 finished=48 shed=0 cancelled=0 victims=2 recovered=2 shed_on_crash=0 reprefill=1121 failover=(n=2 mean=0.25 max=0.25) migrated_out=0",
    "windserve/crash-shrink-gpu7/sharegpt: ttft_p99=5.3887053504899995 tbt_p99=0.00243476 tokens=9578 makespan=12.970595886 util=0.06515568984684268 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=816 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-shrink-gpu7/sharegpt: ttft_p99=5.387546498360001 tbt_p99=0.008256508 tokens=9578 makespan=12.845185674 util=0.10540851906897919 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=831 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-shrink-gpu7/sharegpt: ttft_p99=1.5177869993599997 tbt_p99=0.006061629 tokens=9578 makespan=16.03371829 util=0.02221894782501846 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=2546 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/crash-shrink-gpu7/conversation: ttft_p99=7.25960349374 tbt_p99=0.007384002 tokens=17234 makespan=16.587595922 util=0.18329284826308567 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13522 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/crash-shrink-gpu7/conversation: ttft_p99=7.1858581314 tbt_p99=0.03835345 tokens=17234 makespan=16.771703357 util=0.3106479121219837 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13816 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/crash-shrink-gpu7/conversation: ttft_p99=7.26056529223 tbt_p99=0.035704105 tokens=17234 makespan=18.297152839 util=0.30190831796395085 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/crash-shrink-gpu7/conversation: ttft_p99=3.680999902810001 tbt_p99=0.013234466 tokens=17234 makespan=19.72034002 util=0.24627608836385864 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/crash-shrink-gpu7/conversation: ttft_p99=7.509841943650001 tbt_p99=0.005372631 tokens=17234 makespan=16.985139704 util=0.22358057909336754 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13542 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "windserve/crash-shrink-gpu7/conversation: ttft_p99=7.3727281301300005 tbt_p99=0.003362888 tokens=17234 makespan=15.467165773 util=0.21937447404250623 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13907 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/crash-shrink-gpu7/conversation: ttft_p99=7.085802607530001 tbt_p99=0.046443943 tokens=17234 makespan=14.995747568 util=0.2429312161436885 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13930 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/crash-shrink-gpu7/conversation: ttft_p99=1.9955166053600004 tbt_p99=0.0136327703899998 tokens=16613 makespan=23.156074471 util=0.1310321237859837 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=37089 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/gen1/sharegpt: ttft_p99=1.8598264856400002 tbt_p99=0.020971601 tokens=9578 makespan=13.588869959 util=0.14917376807209132 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1431 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "chunked/gen1/sharegpt: ttft_p99=1.8638076016400003 tbt_p99=0.017753503 tokens=9578 makespan=13.157851131 util=0.20419047727838405 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=779 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/gen1/sharegpt: ttft_p99=1.8652060646400002 tbt_p99=0.035787486 tokens=9578 makespan=14.67462251 util=0.22296637964356666 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1428 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/gen1/sharegpt: ttft_p99=1.52480011808 tbt_p99=0.019913179 tokens=9578 makespan=16.529994355 util=0.23545716283816032 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/gen1/sharegpt: ttft_p99=1.8699554096400002 tbt_p99=0.035124194 tokens=9578 makespan=14.539924662 util=0.12109734864436644 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=1454 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "windserve/gen1/sharegpt: ttft_p99=1.8647673357300003 tbt_p99=0.021289293 tokens=9578 makespan=13.328291733 util=0.12367299291538904 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=770 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "temporal/gen1/sharegpt: ttft_p99=1.8636082495500004 tbt_p99=0.01775819 tokens=9578 makespan=13.159977031 util=0.19567509809459768 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=779 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/gen1/sharegpt: ttft_p99=1.8699508176400002 tbt_p99=0.035391679 tokens=9578 makespan=17.380375657 util=0.038244012991556824 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=2461 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/gen1/conversation: ttft_p99=4.200077849700001 tbt_p99=0.029807939 tokens=17234 makespan=15.215575471 util=0.3656170658975625 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=37519 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "chunked/gen1/conversation: ttft_p99=4.60801802906 tbt_p99=0.112883616 tokens=17234 makespan=17.082320791 util=0.5225074726270197 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13669 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/gen1/conversation: ttft_p99=4.088253868240001 tbt_p99=0.10516625100000002 tokens=17234 makespan=18.799177631 util=0.48076752317944516 finished=48 shed=0 cancelled=0 victims=4 recovered=4 shed_on_crash=0 reprefill=31961 failover=(n=4 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/gen1/conversation: ttft_p99=5.499996402680001 tbt_p99=0.034767296 tokens=17234 makespan=20.70658429 util=0.25724549154544013 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=36842 failover=(n=2 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/gen1/conversation: ttft_p99=4.57516824386 tbt_p99=0.067645717 tokens=17234 makespan=17.142881217 util=0.3704312982392498 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=37521 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "windserve/gen1/conversation: ttft_p99=3.91860967306 tbt_p99=0.034319514 tokens=17234 makespan=15.301414657 util=0.3875027225129981 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13775 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "temporal/gen1/conversation: ttft_p99=2.5688446233800004 tbt_p99=0.188513136 tokens=17234 makespan=15.522397851 util=0.43068352079614713 finished=48 shed=0 cancelled=0 victims=3 recovered=3 shed_on_crash=0 reprefill=13783 failover=(n=3 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/gen1/conversation: ttft_p99=5.074071700980001 tbt_p99=0.080272064 tokens=17234 makespan=23.610597592 util=0.36481074340241104 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=37019 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/gen2/sharegpt: ttft_p99=2.12417042548 tbt_p99=0.062659985 tokens=9578 makespan=12.870194159 util=0.18655362736351389 finished=48 shed=0 cancelled=0 victims=6 recovered=6 shed_on_crash=0 reprefill=2919 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "chunked/gen2/sharegpt: ttft_p99=2.12722333848 tbt_p99=0.071125296 tokens=9578 makespan=12.858849243 util=0.23994484913984485 finished=48 shed=0 cancelled=0 victims=6 recovered=6 shed_on_crash=0 reprefill=2950 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/gen2/sharegpt: ttft_p99=2.12891731448 tbt_p99=0.138977589 tokens=9578 makespan=14.020791701 util=0.26787776104364186 finished=48 shed=0 cancelled=0 victims=8 recovered=8 shed_on_crash=0 reprefill=3586 failover=(n=11 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/gen2/sharegpt: ttft_p99=1.52714267328 tbt_p99=0.176268832 tokens=9578 makespan=16.592841248 util=0.2498830507880886 finished=48 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0",
    "sglang-pd/gen2/sharegpt: ttft_p99=2.13561399348 tbt_p99=0.007520897 tokens=9578 makespan=13.621964098 util=0.15542290227531183 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=1870 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "windserve/gen2/sharegpt: ttft_p99=2.19264215233 tbt_p99=0.073033385 tokens=9578 makespan=12.981885654 util=0.15922187103816168 finished=48 shed=0 cancelled=0 victims=6 recovered=6 shed_on_crash=0 reprefill=2970 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "temporal/gen2/sharegpt: ttft_p99=2.18856608762 tbt_p99=0.07106797274999986 tokens=9578 makespan=12.856431911 util=0.2195383786049295 finished=48 shed=0 cancelled=0 victims=6 recovered=6 shed_on_crash=0 reprefill=2942 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/gen2/sharegpt: ttft_p99=2.13561399348 tbt_p99=0.007566086 tokens=9578 makespan=16.104186685 util=0.061855995483844746 finished=48 shed=0 cancelled=0 victims=6 recovered=6 shed_on_crash=0 reprefill=2771 failover=(n=6 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/gen2/conversation: ttft_p99=9.62932235885 tbt_p99=0.075849699 tokens=17234 makespan=20.366681371 util=0.2914850479244168 finished=48 shed=0 cancelled=0 victims=7 recovered=7 shed_on_crash=0 reprefill=24020 failover=(n=7 mean=0.25 max=0.25) migrated_out=0",
    "chunked/gen2/conversation: ttft_p99=3.58888378326 tbt_p99=0.080682516 tokens=17234 makespan=15.515077195 util=0.47345838248094974 finished=48 shed=0 cancelled=0 victims=11 recovered=11 shed_on_crash=0 reprefill=166104 failover=(n=20 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/gen2/conversation: ttft_p99=4.01522793561 tbt_p99=0.07018082625000249 tokens=17234 makespan=17.62284471 util=0.4380505901296585 finished=48 shed=0 cancelled=0 victims=13 recovered=13 shed_on_crash=0 reprefill=223098 failover=(n=23 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/gen2/conversation: ttft_p99=2.7824339949 tbt_p99=0.027625975 tokens=17234 makespan=19.729336667 util=0.258684393240784 finished=48 shed=0 cancelled=0 victims=2 recovered=2 shed_on_crash=0 reprefill=26557 failover=(n=2 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/gen2/conversation: ttft_p99=2.89198863989 tbt_p99=0.013966239 tokens=17234 makespan=16.14155228 util=0.32343898546530914 finished=48 shed=0 cancelled=0 victims=9 recovered=9 shed_on_crash=0 reprefill=94679 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "windserve/gen2/conversation: ttft_p99=2.76049561505 tbt_p99=0.101642548 tokens=17234 makespan=15.122668709 util=0.33051048280344936 finished=48 shed=0 cancelled=0 victims=10 recovered=10 shed_on_crash=0 reprefill=150465 failover=(n=18 mean=0.25 max=0.25) migrated_out=0",
    "temporal/gen2/conversation: ttft_p99=2.66729855724 tbt_p99=0.111069396 tokens=17234 makespan=14.925054482 util=0.3650650420627565 finished=48 shed=0 cancelled=0 victims=11 recovered=11 shed_on_crash=0 reprefill=164591 failover=(n=20 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/gen2/conversation: ttft_p99=2.59223012091 tbt_p99=0.013721847 tokens=17234 makespan=19.617341777 util=0.24920431223393574 finished=48 shed=0 cancelled=0 victims=9 recovered=9 shed_on_crash=0 reprefill=94464 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/gen3/sharegpt: ttft_p99=4.184851050720001 tbt_p99=0.032067123 tokens=9578 makespan=13.871115076 util=0.13932091746298655 finished=48 shed=0 cancelled=0 victims=14 recovered=14 shed_on_crash=0 reprefill=2645 failover=(n=15 mean=0.25 max=0.25) migrated_out=0",
    "chunked/gen3/sharegpt: ttft_p99=3.8830093101400003 tbt_p99=0.066571232 tokens=9578 makespan=13.508598127 util=0.17310185216329513 finished=48 shed=0 cancelled=0 victims=15 recovered=15 shed_on_crash=0 reprefill=3184 failover=(n=16 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/gen3/sharegpt: ttft_p99=3.89668398365 tbt_p99=0.090917572 tokens=9578 makespan=15.005319518 util=0.21218183744466035 finished=48 shed=0 cancelled=0 victims=15 recovered=15 shed_on_crash=0 reprefill=3184 failover=(n=16 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/gen3/sharegpt: ttft_p99=1.7388774735600003 tbt_p99=0.034428694 tokens=9578 makespan=16.140508359 util=0.25198400543336547 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=335 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/gen3/sharegpt: ttft_p99=6.154816627700001 tbt_p99=0.055795513000000005 tokens=9578 makespan=14.848111699 util=0.11935630854517063 finished=48 shed=0 cancelled=0 victims=9 recovered=9 shed_on_crash=0 reprefill=2424 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "windserve/gen3/sharegpt: ttft_p99=5.033890325590001 tbt_p99=0.041229352 tokens=9578 makespan=13.756531501 util=0.12458351132978658 finished=48 shed=0 cancelled=0 victims=8 recovered=8 shed_on_crash=0 reprefill=2529 failover=(n=9 mean=0.25 max=0.25) migrated_out=0",
    "temporal/gen3/sharegpt: ttft_p99=4.1932735907800005 tbt_p99=0.063306327 tokens=9578 makespan=13.580603522 util=0.1523508528453552 finished=48 shed=0 cancelled=0 victims=9 recovered=9 shed_on_crash=0 reprefill=2538 failover=(n=10 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/gen3/sharegpt: ttft_p99=3.3286989039000012 tbt_p99=0.10812142800000002 tokens=9578 makespan=17.914944221 util=0.04317516303810963 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=335 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "muxwise/gen3/conversation: ttft_p99=9.90987501148 tbt_p99=0.012372207 tokens=17234 makespan=17.488295856 util=0.3337435705858608 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=14104 failover=(n=8 mean=0.25 max=0.25) migrated_out=0",
    "chunked/gen3/conversation: ttft_p99=9.449501944009999 tbt_p99=0.03796759699999999 tokens=17234 makespan=18.686517024 util=0.42875631005821346 finished=48 shed=0 cancelled=0 victims=15 recovered=15 shed_on_crash=0 reprefill=13014 failover=(n=19 mean=0.25 max=0.25) migrated_out=0",
    "nanoflow/gen3/conversation: ttft_p99=9.38834602423 tbt_p99=0.03561525 tokens=17234 makespan=20.480470096 util=0.39929476194112506 finished=48 shed=0 cancelled=0 victims=17 recovered=17 shed_on_crash=0 reprefill=25822 failover=(n=23 mean=0.25 max=0.25) migrated_out=0",
    "loongserve/gen3/conversation: ttft_p99=9.4048918676 tbt_p99=0.026630522 tokens=17234 makespan=21.21497839 util=0.25646787728992854 finished=48 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=20506 failover=(n=1 mean=0.25 max=0.25) migrated_out=0",
    "sglang-pd/gen3/conversation: ttft_p99=8.44081295808 tbt_p99=0.024467715 tokens=17234 makespan=17.043178929 util=0.3092829799531235 finished=48 shed=0 cancelled=0 victims=6 recovered=6 shed_on_crash=0 reprefill=23009 failover=(n=8 mean=0.25 max=0.25) migrated_out=0",
    "windserve/gen3/conversation: ttft_p99=9.94216272468 tbt_p99=0.014032823 tokens=17234 makespan=17.300873758 util=0.280982782835517 finished=48 shed=0 cancelled=0 victims=5 recovered=5 shed_on_crash=0 reprefill=43991 failover=(n=5 mean=0.25 max=0.25) migrated_out=0",
    "temporal/gen3/conversation: ttft_p99=9.28041091483 tbt_p99=0.046529157 tokens=17234 makespan=17.005764737 util=0.3833303007986563 finished=48 shed=0 cancelled=0 victims=4 recovered=4 shed_on_crash=0 reprefill=11069 failover=(n=4 mean=0.25 max=0.25) migrated_out=0",
    "hybrid/gen3/conversation: ttft_p99=8.058094653360001 tbt_p99=0.061997537 tokens=17234 makespan=24.196985953 util=0.3040939193233354 finished=48 shed=0 cancelled=0 victims=8 recovered=8 shed_on_crash=0 reprefill=52810 failover=(n=12 mean=0.25 max=0.25) migrated_out=0",
];

/// One fleet-wide line, then one line per member, for each
/// `scenario/hedging` run in `fleet_lines` order.
const FLEET: &[&str] = &[
    "crashes/hedge-off: routing=RoutingStats { requests: 159, prefix_hit_tokens: 408768, probed_input_tokens: 1078279, rerouted_on_crash: 36, split_routed: 7, single_routed: 152 } failover=(drained=7 migrated=7 gave_up=0 replica_hit=0 reprefill=7 migrated_finished=7 migrated_shed=0 delay=(n=7 mean=0.04277068357142858 max=0.071438942) stranded=0) replication=ReplicationStats { hot_prefixes: 45, replicas_pushed: 62, tokens_pushed: 558679 } health=HealthStats { ejections: 17, probes: 13, gray_trips: 11, gray_ejections: 6 } hedge=HedgeStats { launched: 0, primary_wins: 0, hedge_wins: 0, no_winner: 0, cancelled_dropped: 0, cancelled_detached: 0, suppressed_budget: 0, suppressed_no_target: 0 } overload=OverloadStats { ingress_shed: 0, budget_spent_hedge: 0, budget_spent_failover: 0, failover_deferred: 0 }",
    "crashes/hedge-off/muxwise#0: ttft_p99=0.0857723675 tbt_p99=0.0038866968800000006 tokens=1315 makespan=2.25 util=0.2056977369103685 finished=7 shed=4 cancelled=0 victims=4 recovered=0 shed_on_crash=0 reprefill=9277 failover=(n=0 mean=0.0 max=0.0) migrated_out=4 routed=11",
    "crashes/hedge-off/sglang-pd#1: ttft_p99=0.5184038871000001 tbt_p99=0.0034912374 tokens=1140 makespan=24.621769792 util=0.03385196798965544 finished=6 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=3197 failover=(n=1 mean=0.25 max=0.25) migrated_out=0 routed=6",
    "crashes/hedge-off/chunked#2: ttft_p99=0.14278481939999998 tbt_p99=0.007766087 tokens=12248 makespan=22.399178162 util=0.14413103899690657 finished=29 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=29",
    "crashes/hedge-off/windserve#3: ttft_p99=0.60520934104 tbt_p99=0.0024568964 tokens=3836 makespan=25.531536319 util=0.04082330316762567 finished=5 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=5",
    "crashes/hedge-off/muxwise#4: ttft_p99=0.25157772127 tbt_p99=0.004336969 tokens=9851 makespan=16.755131434 util=0.13902270558846078 finished=28 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=28",
    "crashes/hedge-off/sglang-pd#5: ttft_p99=0.247620689 tbt_p99=0.0033226671999999997 tokens=382 makespan=3.899029961 util=0.06508804276301589 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "crashes/hedge-off/chunked#6: ttft_p99=0.2707374222 tbt_p99=0.029901242 tokens=4857 makespan=4.25 util=0.303508915549478 finished=14 shed=3 cancelled=0 victims=3 recovered=0 shed_on_crash=0 reprefill=9381 failover=(n=0 mean=0.0 max=0.0) migrated_out=3 routed=17",
    "crashes/hedge-off/windserve#7: ttft_p99=0.0 tbt_p99=0.0 tokens=0 makespan=10.5 util=0.0 finished=0 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=0",
    "crashes/hedge-off/muxwise#8: ttft_p99=0.24966266823999994 tbt_p99=0.004239291 tokens=7861 makespan=34.974557722 util=0.06256157394531775 finished=33 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=33",
    "crashes/hedge-off/sglang-pd#9: ttft_p99=0.214621548 tbt_p99=0.0032948116 tokens=149 makespan=3.323791385 util=0.04623483743475798 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "crashes/hedge-off/chunked#10: ttft_p99=0.26183783635000024 tbt_p99=0.019136314 tokens=9780 makespan=24.133915331 util=0.15425554520042078 finished=34 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=34",
    "crashes/hedge-off/windserve#11: ttft_p99=0.734534997 tbt_p99=0.00248767584 tokens=70 makespan=8.436278298 util=0.04378293482888263 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "crashes/hedge-on: routing=RoutingStats { requests: 159, prefix_hit_tokens: 408768, probed_input_tokens: 1078279, rerouted_on_crash: 36, split_routed: 7, single_routed: 152 } failover=(drained=7 migrated=7 gave_up=0 replica_hit=0 reprefill=7 migrated_finished=7 migrated_shed=0 delay=(n=7 mean=0.04277068357142858 max=0.071438942) stranded=0) replication=ReplicationStats { hot_prefixes: 45, replicas_pushed: 62, tokens_pushed: 558679 } health=HealthStats { ejections: 17, probes: 13, gray_trips: 11, gray_ejections: 6 } hedge=HedgeStats { launched: 0, primary_wins: 0, hedge_wins: 0, no_winner: 0, cancelled_dropped: 0, cancelled_detached: 0, suppressed_budget: 0, suppressed_no_target: 0 } overload=OverloadStats { ingress_shed: 0, budget_spent_hedge: 0, budget_spent_failover: 7, failover_deferred: 0 }",
    "crashes/hedge-on/muxwise#0: ttft_p99=0.0857723675 tbt_p99=0.0038866968800000006 tokens=1315 makespan=2.25 util=0.2056977369103685 finished=7 shed=4 cancelled=0 victims=4 recovered=0 shed_on_crash=0 reprefill=9277 failover=(n=0 mean=0.0 max=0.0) migrated_out=4 routed=11",
    "crashes/hedge-on/sglang-pd#1: ttft_p99=0.5184038871000001 tbt_p99=0.0034912374 tokens=1140 makespan=24.621769792 util=0.03385196798965544 finished=6 shed=0 cancelled=0 victims=1 recovered=1 shed_on_crash=0 reprefill=3197 failover=(n=1 mean=0.25 max=0.25) migrated_out=0 routed=6",
    "crashes/hedge-on/chunked#2: ttft_p99=0.14278481939999998 tbt_p99=0.007766087 tokens=12248 makespan=22.399178162 util=0.14413103899690657 finished=29 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=29",
    "crashes/hedge-on/windserve#3: ttft_p99=0.60520934104 tbt_p99=0.0024568964 tokens=3836 makespan=25.531536319 util=0.04082330316762567 finished=5 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=5",
    "crashes/hedge-on/muxwise#4: ttft_p99=0.25157772127 tbt_p99=0.004336969 tokens=9851 makespan=16.755131434 util=0.13902270558846078 finished=28 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=28",
    "crashes/hedge-on/sglang-pd#5: ttft_p99=0.247620689 tbt_p99=0.0033226671999999997 tokens=382 makespan=3.899029961 util=0.06508804276301589 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "crashes/hedge-on/chunked#6: ttft_p99=0.2707374222 tbt_p99=0.029901242 tokens=4857 makespan=4.25 util=0.303508915549478 finished=14 shed=3 cancelled=0 victims=3 recovered=0 shed_on_crash=0 reprefill=9381 failover=(n=0 mean=0.0 max=0.0) migrated_out=3 routed=17",
    "crashes/hedge-on/windserve#7: ttft_p99=0.0 tbt_p99=0.0 tokens=0 makespan=10.5 util=0.0 finished=0 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=0",
    "crashes/hedge-on/muxwise#8: ttft_p99=0.24966266823999994 tbt_p99=0.004239291 tokens=7861 makespan=34.974557722 util=0.06256157394531775 finished=33 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=33",
    "crashes/hedge-on/sglang-pd#9: ttft_p99=0.214621548 tbt_p99=0.0032948116 tokens=149 makespan=3.323791385 util=0.04623483743475798 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "crashes/hedge-on/chunked#10: ttft_p99=0.26183783635000024 tbt_p99=0.019136314 tokens=9780 makespan=24.133915331 util=0.15425554520042078 finished=34 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=34",
    "crashes/hedge-on/windserve#11: ttft_p99=0.734534997 tbt_p99=0.00248767584 tokens=70 makespan=8.436278298 util=0.04378293482888263 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "gray/hedge-off: routing=RoutingStats { requests: 159, prefix_hit_tokens: 424576, probed_input_tokens: 1078279, rerouted_on_crash: 10, split_routed: 7, single_routed: 152 } failover=(drained=3 migrated=3 gave_up=0 replica_hit=0 reprefill=3 migrated_finished=3 migrated_shed=0 delay=(n=3 mean=0.046115038 max=0.046115038) stranded=0) replication=ReplicationStats { hot_prefixes: 45, replicas_pushed: 64, tokens_pushed: 566749 } health=HealthStats { ejections: 17, probes: 14, gray_trips: 12, gray_ejections: 13 } hedge=HedgeStats { launched: 0, primary_wins: 0, hedge_wins: 0, no_winner: 0, cancelled_dropped: 0, cancelled_detached: 0, suppressed_budget: 0, suppressed_no_target: 0 } overload=OverloadStats { ingress_shed: 0, budget_spent_hedge: 0, budget_spent_failover: 0, failover_deferred: 0 }",
    "gray/hedge-off/muxwise#0: ttft_p99=0.10885549449999998 tbt_p99=0.004004745 tokens=11517 makespan=19.193966333 util=0.08483065374915245 finished=31 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=31",
    "gray/hedge-off/sglang-pd#1: ttft_p99=0.360993734 tbt_p99=0.058472597300000005 tokens=437 makespan=31.0 util=0.07581584484138383 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "gray/hedge-off/chunked#2: ttft_p99=0.11395486302999999 tbt_p99=0.029903539 tokens=3494 makespan=3.25 util=0.3049864786117762 finished=11 shed=3 cancelled=0 victims=3 recovered=0 shed_on_crash=0 reprefill=6689 failover=(n=0 mean=0.0 max=0.0) migrated_out=3 routed=14",
    "gray/hedge-off/windserve#3: ttft_p99=0.7139871628000001 tbt_p99=0.00248737468 tokens=2567 makespan=8.436278298 util=0.10065557606632199 finished=5 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=5",
    "gray/hedge-off/muxwise#4: ttft_p99=1.71118498736 tbt_p99=0.076051692 tokens=4721 makespan=22.77049093 util=0.3249518555859704 finished=12 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=12",
    "gray/hedge-off/sglang-pd#5: ttft_p99=0.247620689 tbt_p99=0.0033226671999999997 tokens=382 makespan=3.899029961 util=0.06508804276301589 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "gray/hedge-off/chunked#6: ttft_p99=0.2636889177000001 tbt_p99=0.024312364 tokens=8853 makespan=22.399178162 util=0.15927894648223861 finished=32 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=32",
    "gray/hedge-off/windserve#7: ttft_p99=0.52753398392 tbt_p99=0.00242354028 tokens=284 makespan=24.481740234 util=0.017224082017039843 finished=2 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=2",
    "gray/hedge-off/muxwise#8: ttft_p99=0.26896686689999977 tbt_p99=0.004229448 tokens=9274 makespan=34.974557722 util=0.06755677634166711 finished=35 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=35",
    "gray/hedge-off/sglang-pd#9: ttft_p99=0.616699068 tbt_p99=0.0035476175999999996 tokens=474 makespan=26.042978122 util=0.01843362376438372 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "gray/hedge-off/chunked#10: ttft_p99=0.28051864030000007 tbt_p99=0.002632277 tokens=8999 makespan=24.133915331 util=0.15991151242884194 finished=28 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=28",
    "gray/hedge-off/windserve#11: ttft_p99=0.0 tbt_p99=0.0 tokens=0 makespan=0.0 util=0.0 finished=0 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=0",
    "gray/hedge-on: routing=RoutingStats { requests: 159, prefix_hit_tokens: 420160, probed_input_tokens: 1078279, rerouted_on_crash: 9, split_routed: 7, single_routed: 152 } failover=(drained=3 migrated=3 gave_up=0 replica_hit=0 reprefill=3 migrated_finished=3 migrated_shed=0 delay=(n=3 mean=0.046115038 max=0.046115038) stranded=0) replication=ReplicationStats { hot_prefixes: 45, replicas_pushed: 62, tokens_pushed: 551850 } health=HealthStats { ejections: 14, probes: 11, gray_trips: 14, gray_ejections: 10 } hedge=HedgeStats { launched: 4, primary_wins: 0, hedge_wins: 4, no_winner: 0, cancelled_dropped: 1, cancelled_detached: 3, suppressed_budget: 0, suppressed_no_target: 0 } overload=OverloadStats { ingress_shed: 0, budget_spent_hedge: 4, budget_spent_failover: 3, failover_deferred: 0 }",
    "gray/hedge-on/muxwise#0: ttft_p99=0.10872318645000002 tbt_p99=0.004005889270000002 tokens=11580 makespan=19.193966333 util=0.08758068755289579 finished=32 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=32",
    "gray/hedge-on/sglang-pd#1: ttft_p99=0.360993734 tbt_p99=0.058472597300000005 tokens=437 makespan=31.0 util=0.07581584484138383 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "gray/hedge-on/chunked#2: ttft_p99=0.11395486302999999 tbt_p99=0.029903539 tokens=3494 makespan=3.25 util=0.3049864786117762 finished=11 shed=3 cancelled=0 victims=3 recovered=0 shed_on_crash=0 reprefill=6689 failover=(n=0 mean=0.0 max=0.0) migrated_out=3 routed=14",
    "gray/hedge-on/windserve#3: ttft_p99=0.71044193305 tbt_p99=0.00248734816 tokens=2789 makespan=10.312379678 util=0.09886961325070152 finished=6 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=6",
    "gray/hedge-on/muxwise#4: ttft_p99=1.5658126510400001 tbt_p99=0.076051692 tokens=3654 makespan=22.793196757 util=0.37502610039303563 finished=10 shed=0 cancelled=4 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=14",
    "gray/hedge-on/sglang-pd#5: ttft_p99=0.5183165937099999 tbt_p99=0.0034912420000000003 tokens=1115 makespan=24.621769792 util=0.035736010046079174 finished=4 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=4",
    "gray/hedge-on/chunked#6: ttft_p99=0.26415881799999996 tbt_p99=0.024312364 tokens=8617 makespan=22.399178162 util=0.15930703664982862 finished=31 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=31",
    "gray/hedge-on/windserve#7: ttft_p99=0.6171772018699999 tbt_p99=0.0024572836 tokens=623 makespan=25.531536319 util=0.02161621171617886 finished=2 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=2",
    "gray/hedge-on/muxwise#8: ttft_p99=0.26896686689999977 tbt_p99=0.004229448 tokens=9274 makespan=34.974557722 util=0.06755677634166711 finished=35 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=35",
    "gray/hedge-on/sglang-pd#9: ttft_p99=0.198228158 tbt_p99=0.0032916506000000003 tokens=584 makespan=5.250998871 util=0.05711379963864758 finished=1 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=1",
    "gray/hedge-on/chunked#10: ttft_p99=0.2824819205 tbt_p99=0.002632277 tokens=8835 makespan=24.133915331 util=0.15534463049464972 finished=26 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=26",
    "gray/hedge-on/windserve#11: ttft_p99=0.0 tbt_p99=0.0 tokens=0 makespan=0.0 util=0.0 finished=0 shed=0 cancelled=0 victims=0 recovered=0 shed_on_crash=0 reprefill=0 failover=(n=0 mean=0.0 max=0.0) migrated_out=0 routed=0",
];
