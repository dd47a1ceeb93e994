//! Decode-side goldens: full-precision report values of runs that reach
//! the paths `refactor_invariance` and `crash_golden` leave cold.
//!
//! Those suites' healthy runs never requeue a decode context and never
//! reach HybridPd's overflow prefill. Two loads fix that:
//!
//! * `toolagent`: a Tool&Agent burst that backlogs the prefill instance,
//!   so HybridPd multiplexes overflow prefills onto its decode instance.
//! * `shrink`: OpenThoughts' long outputs under a 90 % KV-pool shrink,
//!   so decode growth runs out of pool and requeues contexts, and
//!   admission waits for space.
//!
//! Each line records `refactor_invariance`'s fields, the request outcome
//! classes and the lifecycle counters (HybridPd also its overflow
//! prefills). Every engine must keep reproducing them bit for bit.

use baselines::{ChunkedPrefill, HybridPd, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::{ContentionGuard, SoloPredictor};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use serving::{Driver, FaultKind, FaultPlan, Report, Scheduler, SloSpec};
use simcore::{SimRng, SimTime};
use workload::{generate, WorkloadKind};

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

fn hybrid() -> HybridPd {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let par = Parallelism::tp(4, cluster.nvlink_gbs);
    HybridPd::new(
        &model,
        &cluster,
        SloSpec::llama8b(),
        SoloPredictor::profile(&model, &cluster, &par, &[16, 48, 92, 108]),
        ContentionGuard::flat(1.2),
    )
}

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
        other => panic!("unknown engine {other}"),
    }
}

/// One load: a workload at a rate, under a fault plan.
struct Load {
    name: &'static str,
    kind: WorkloadKind,
    requests: usize,
    rate: f64,
    plan: FaultPlan,
}

fn loads() -> [Load; 2] {
    [
        Load {
            name: "toolagent",
            kind: WorkloadKind::ToolAgent,
            requests: 240,
            rate: 10.0,
            plan: FaultPlan::none(),
        },
        Load {
            name: "shrink",
            kind: WorkloadKind::OpenThoughts,
            requests: 80,
            rate: 4.0,
            plan: FaultPlan::single(
                FaultKind::KvShrink { fraction: 0.9 },
                SimTime::from_secs(2.0),
                SimTime::from_secs(120.0),
            ),
        },
    ]
}

fn drive(engine: &mut dyn Scheduler, load: &Load) -> Report {
    let cluster = ClusterSpec::dgx_a100();
    let reqs = generate(
        load.kind,
        load.requests,
        load.rate,
        &mut SimRng::seed_from(0xD15A),
    );
    Driver::new(GpuSim::from_cluster(&cluster), reqs, SloSpec::llama8b())
        .with_max_sim_time(SimTime::from_secs(600.0))
        .with_faults(load.plan.clone())
        .run(engine)
}

fn line(name: &str, est: &Estimators, load: &Load) -> String {
    let (rep, extra) = if name == "hybrid" {
        let mut engine = hybrid();
        let rep = drive(&mut engine, load);
        (
            rep,
            format!(" overflow_prefills={}", engine.overflow_prefills()),
        )
    } else {
        (drive(build(name, est).as_mut(), load), String::new())
    };
    format!(
        "{name}/{}: ttft_p99={:?} tbt_p99={:?} tokens={} makespan={:?} util={:?} \
         finished={} shed={} requeues={} drops={}{extra}",
        load.name,
        rep.ttft.p99(),
        rep.tbt.p99(),
        rep.total_tokens,
        rep.makespan.as_secs(),
        rep.utilization,
        rep.finished,
        rep.shed,
        rep.counters.requeues,
        rep.counters.drops,
    )
}

fn lines() -> Vec<String> {
    let est = Estimators::profile(&ModelSpec::llama8b(), &ClusterSpec::dgx_a100(), 8);
    let mut out = Vec::new();
    for load in loads() {
        for name in ENGINES {
            out.push(line(name, &est, &load));
        }
    }
    out
}

#[test]
fn every_engine_reproduces_its_decode_goldens() {
    let got = lines();
    assert_eq!(got.len(), GOLDEN.len(), "golden line count");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want, "a decode-side run diverged from its golden");
    }
}

/// `engine/load` lines, in `lines` order, captured before the
/// disaggregated engines shared one decode side. `loongserve/shrink` was
/// re-pinned when LoongServe began admitting as the shrink window closes
/// rather than at its next decode completion.
const GOLDEN: &[&str] = &[
    "muxwise/toolagent: ttft_p99=1.3539629053199989 tbt_p99=0.011647291 tokens=49596 makespan=30.713381629 util=0.5385277223278309 finished=240 shed=0 requeues=0 drops=0",
    "chunked/toolagent: ttft_p99=24.0447665121 tbt_p99=0.055044925 tokens=49596 makespan=52.24775695 util=0.7428687283216354 finished=240 shed=0 requeues=0 drops=0",
    "nanoflow/toolagent: ttft_p99=20.014514497 tbt_p99=0.049944565 tokens=49596 makespan=50.105949544 util=0.7047180851567914 finished=240 shed=0 requeues=0 drops=0",
    "loongserve/toolagent: ttft_p99=26.02536661835 tbt_p99=0.014706234000000002 tokens=49596 makespan=61.55465369 util=0.2561254009394612 finished=240 shed=0 requeues=0 drops=0",
    "sglang-pd/toolagent: ttft_p99=11.83325143498 tbt_p99=0.007298565 tokens=49596 makespan=41.377668551 util=0.5235121422716545 finished=240 shed=0 requeues=0 drops=0",
    "windserve/toolagent: ttft_p99=7.6390813913499995 tbt_p99=0.004202609 tokens=49596 makespan=35.092224329 util=0.5189917070992317 finished=240 shed=0 requeues=0 drops=0",
    "temporal/toolagent: ttft_p99=0.6237627307499999 tbt_p99=0.047976893 tokens=49596 makespan=28.291815363 util=0.599494463169074 finished=240 shed=0 requeues=0 drops=0",
    "hybrid/toolagent: ttft_p99=10.140015523149996 tbt_p99=0.022509326 tokens=49596 makespan=47.227139713 util=0.6453978218134899 finished=240 shed=0 requeues=0 drops=0 overflow_prefills=74",
    "muxwise/shrink: ttft_p99=0.21012617190999996 tbt_p99=0.004670088 tokens=602991 makespan=120.0 util=0.188972535152299 finished=80 shed=0 requeues=0 drops=0",
    "chunked/shrink: ttft_p99=0.029885800879999994 tbt_p99=0.004586348 tokens=602991 makespan=120.0 util=0.22516801211501283 finished=80 shed=0 requeues=0 drops=0",
    "nanoflow/shrink: ttft_p99=0.026107773789999997 tbt_p99=0.006084467 tokens=602991 makespan=131.493022625 util=0.2769873896397236 finished=80 shed=0 requeues=0 drops=0",
    "loongserve/shrink: ttft_p99=0.09293531854999998 tbt_p99=0.01197271 tokens=602991 makespan=318.186499972 util=0.27992884730988876 finished=80 shed=0 requeues=587 drops=0",
    "sglang-pd/shrink: ttft_p99=0.04514068343999999 tbt_p99=0.007826498 tokens=602991 makespan=157.753747039 util=0.13880905627995108 finished=80 shed=0 requeues=210 drops=0",
    "windserve/shrink: ttft_p99=0.04738328255999998 tbt_p99=0.005379379 tokens=602991 makespan=120.0 util=0.13404741983304003 finished=80 shed=0 requeues=0 drops=0",
    "temporal/shrink: ttft_p99=0.028419521289999996 tbt_p99=0.004588736 tokens=602991 makespan=120.0 util=0.20610090991488209 finished=80 shed=0 requeues=0 drops=0",
    "hybrid/shrink: ttft_p99=0.04514068343999999 tbt_p99=0.015816443 tokens=602991 makespan=294.120516299 util=0.03160689109531232 finished=80 shed=0 requeues=313 drops=0 overflow_prefills=0",
];
