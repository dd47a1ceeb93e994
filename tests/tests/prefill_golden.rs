//! Prefill goldens: hand-built traces that put each batching engine's
//! prefill admission on its edges, pinned as FNV-1a hashes of the
//! reports' `Debug` text.
//!
//! The other goldens run traffic that never reaches these edges, so a
//! batch cap off by one or a drop test missing a condition leaves every
//! one of their values unmoved. The traces here reach each edge on
//! purpose:
//!
//! * `exact-cap`: two 8,192-token prompts queue behind a running phase,
//!   so the next batch holds exactly the 16,384-token cap.
//! * `over-32`: forty short prompts queue behind a running phase, more
//!   than the 32-request cap.
//! * `giant-beside-overflow`: a prompt larger than the prefill pool
//!   arrives while HybridPd's decode instance runs an overflow prefill.
//! * `giant-behind-a-batch`: in pools shrunk to 0.1 %, a prompt that
//!   can never fit queues behind one that can.
//!
//! Captured before the engines' prompt admission, whole-phase launch and
//! KV handoff moved into `serving`; every engine must keep reproducing
//! them bit for bit.

use baselines::{HybridPd, SglangPd};
use estimator::{ContentionGuard, SoloPredictor};
use gpusim::{ClusterSpec, GpuSim};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use serving::{Driver, FaultKind, FaultPlan, Report, Scheduler, SloSpec};
use simcore::SimTime;
use workload::{ContentSpec, RequestSpec};

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Llama-8B on 8×A100, as the crash goldens build each engine.
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
        "sglang-pd" => Box::new(SglangPd::new(&model, &cluster, slo)),
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

/// A single-turn prompt of `tokens` tokens, sharing no prefix with any
/// other, arriving at `at_ms` and generating four tokens.
fn prompt(id: u64, at_ms: f64, tokens: u64) -> RequestSpec {
    RequestSpec {
        id,
        arrival: SimTime::from_secs(at_ms * 1e-3),
        session: id,
        turn: 0,
        content: ContentSpec::single(id, tokens),
        prior_context: 0,
        output_tokens: 4,
    }
}

/// Larger than a half-cluster instance's pool (2,289,196 tokens).
const GIANT: u64 = 2_400_000;

/// A scenario's trace and fault plan.
fn scenario(name: &str) -> (Vec<RequestSpec>, FaultPlan) {
    match name {
        "exact-cap" => (
            vec![
                prompt(0, 0.0, 4_000),
                prompt(1, 1.0, 8_192),
                prompt(2, 1.0, 8_192),
            ],
            FaultPlan::none(),
        ),
        "over-32" => {
            let mut reqs = vec![prompt(0, 0.0, 2_000)];
            reqs.extend((1..=40).map(|i| prompt(i, 1.0, 100)));
            (reqs, FaultPlan::none())
        }
        "giant-beside-overflow" => (
            vec![
                prompt(0, 0.0, 1_000),
                prompt(1, 0.0, 10_000),
                prompt(2, 1.0, GIANT),
            ],
            FaultPlan::none(),
        ),
        "giant-behind-a-batch" => {
            // 2,289 tokens left in each half-cluster pool: the 3,000-token
            // prompt never fits, the others do.
            let shrink = FaultKind::KvShrink { fraction: 0.999 };
            (
                vec![
                    prompt(0, 0.5, 1_000),
                    prompt(1, 1.0, 500),
                    prompt(2, 1.0, 3_000),
                ],
                FaultPlan::single(shrink, SimTime::ZERO, SimTime::MAX),
            )
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn run(engine: &str, name: &str, est: &Estimators) -> Report {
    let cluster = ClusterSpec::dgx_a100();
    let (reqs, faults) = scenario(name);
    let mut scheduler = build(engine, est);
    Driver::new(GpuSim::from_cluster(&cluster), reqs, SloSpec::llama8b())
        .with_faults(faults)
        .run(scheduler.as_mut())
}

/// `(engine, scenario, hash of the report's Debug text)`.
const GOLDENS: [(&str, &str, u64); 10] = [
    ("muxwise", "exact-cap", 0xc6692174ac73b351),
    ("sglang-pd", "exact-cap", 0x04b717c01c072e32),
    ("hybrid", "exact-cap", 0xa71d9f1d1b656922),
    ("muxwise", "over-32", 0xfdb0b6142770b6d3),
    ("sglang-pd", "over-32", 0xc7829eaf4d2b9756),
    ("hybrid", "over-32", 0x24e98d0affd0bfff),
    ("sglang-pd", "giant-beside-overflow", 0x16c8a489aa0408bc),
    ("hybrid", "giant-beside-overflow", 0x9aeba2a3885c577b),
    ("sglang-pd", "giant-behind-a-batch", 0x6beb4bac53159aa1),
    ("hybrid", "giant-behind-a-batch", 0xf5501bf0c52e5103),
];

#[test]
fn prefill_edges_keep_their_reports() {
    let est = Estimators::profile(&ModelSpec::llama8b(), &ClusterSpec::dgx_a100(), 8);
    let mut got = Vec::new();
    for &(engine, name, _) in &GOLDENS {
        let rep = run(engine, name, &est);
        assert_eq!(rep.counters.leaked_leases, 0, "{engine} {name}");
        let drops = if name.starts_with("giant") { 1 } else { 0 };
        assert_eq!(rep.counters.drops, drops, "{engine} {name}");
        assert_eq!(rep.finished, rep.total, "{engine} {name}");
        got.push((engine, name, fnv(format!("{rep:?}").as_bytes())));
    }
    let rows: Vec<String> = got
        .iter()
        .map(|(e, n, h)| format!("    ({e:?}, {n:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(got, GOLDENS, "got [\n{}]", rows.concat());
}
