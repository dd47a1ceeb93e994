//! Golden experiment points: the reports the bench harness produces for
//! one system on one trace (healthy, under generated faults, through one
//! crash) and for the smoke fleets of the `fleet` and `fleet_chaos`
//! binaries. Each value is an FNV-1a hash (a fixed algorithm, unlike
//! `DefaultHasher`) of the report's `Debug` form, member labels cleared,
//! captured before the harness was collapsed into one recipe per kind
//! of point. The harness may change shape; no simulated value may move.

use bench::fleet_harness::{FleetPoint, MemberPlan, Tiers};
use bench::harness::{stability_run, CrashSpec, Faults};
use bench::sweep::SweepJob;
use bench::systems::{SystemKind, Testbed};
use fleet::{
    FleetReport, HedgeConfig, PathClass, PrefixAffinity, ReplicationConfig, RoundRobin, RoutePolicy,
};
use serving::{FaultKind, FaultPlan};
use simcore::{SimDuration, SimTime};
use workload::WorkloadKind;

/// 64-bit FNV-1a of a value's `Debug` form.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// `values` as the Rust literal that pins them.
fn literal(values: &[u64]) -> String {
    let rows: Vec<String> = values
        .iter()
        .map(|h| format!("    0x{h:016x},\n"))
        .collect();
    format!("[\n{}]", rows.concat())
}

/// The chaos binary's seed, request count and rate for its smokes.
const SEED: u64 = 0xC4A05;
const N: usize = 40;
const RATE: f64 = 3.0;
/// A burst past the watchdog's admission cap: at intensity 0 the
/// watchdog sheds part of it, so that point differs from the healthy
/// one.
const BURST_N: usize = 600;
const BURST_RATE: f64 = 10_000.0;

/// The report of `n` ShareGPT requests at `rate` under `faults`.
fn point_hash(tb: &Testbed, kind: SystemKind, n: usize, rate: f64, faults: Faults) -> u64 {
    let job = SweepJob {
        tb,
        kind,
        workload: WorkloadKind::ShareGpt,
        n,
        rate,
        seed: SEED,
        faults,
    };
    debug_hash(&stability_run(&job).expect("buildable").report)
}

#[test]
fn single_instance_points_keep_their_bits() {
    let tb = Testbed::llama8b_a100();
    let mut got = Vec::new();
    for kind in [SystemKind::MuxWise, SystemKind::SglangPd] {
        got.push(point_hash(&tb, kind, N, RATE, Faults::Healthy));
        for intensity in [0.0, 0.5, 1.0] {
            got.push(point_hash(&tb, kind, N, RATE, Faults::Generated(intensity)));
        }
        for gpu in [0, 7] {
            let crash = CrashSpec {
                gpu,
                at_secs: 2.0,
                down_secs: 5.0,
            };
            got.push(point_hash(&tb, kind, N, RATE, Faults::Crash(crash)));
        }
        got.push(point_hash(&tb, kind, BURST_N, BURST_RATE, Faults::Healthy));
        got.push(point_hash(
            &tb,
            kind,
            BURST_N,
            BURST_RATE,
            Faults::Generated(0.0),
        ));
    }
    assert_eq!(got, SINGLE, "got {}", literal(&got));
}

/// Per system (MuxWise, then SGLang-PD): the healthy run, generated
/// faults at intensity 0, 0.5 and 1.0, a crash of GPU 0 and of GPU 7,
/// then the burst healthy and at intensity 0.
const SINGLE: [u64; 16] = [
    0x542ef8b05a228c23,
    0x542ef8b05a228c23,
    0xac4680bdf2eb263e,
    0xfcbab1942bdaeb3f,
    0x9df974766fda1e73,
    0x9df974766fda1e73,
    0xf52e41942d31c158,
    0xc57e97400d5f342a,
    0xdd79d0d42002de8d,
    0xdd79d0d42002de8d,
    0xd59eeb3b9ce62fa0,
    0x3800eb2acfa08b1c,
    0xdaa1aec74d333cf9,
    0x4cc4a7328ca50664,
    0x875731abd130a26a,
    0x51a191f52a738646,
];

/// A point of `size` members, each running `sessions` sessions at 0.5
/// sessions/s from `seed`, on one thread.
fn fleet_point(size: usize, sessions: usize, seed: u64, tiers: Tiers) -> FleetPoint {
    FleetPoint {
        size,
        sessions,
        rate: 0.5,
        seed,
        threads: 1,
        tiers,
    }
}

fn member(kind: SystemKind, class: PathClass, faults: FaultPlan) -> MemberPlan {
    MemberPlan {
        kind,
        class,
        faults,
    }
}

fn fleet_hash(mut report: FleetReport) -> u64 {
    report.labels.clear();
    debug_hash(&report)
}

#[test]
fn smoke_fleets_keep_their_bits() {
    let tb = Testbed::llama8b_a100();
    let mut got = Vec::new();

    // `fleet --smoke`: four members, the first SGLang-PD on the split
    // path, under each policy.
    let policies: [Box<dyn RoutePolicy>; 2] = [
        Box::new(RoundRobin::new()),
        Box::new(PrefixAffinity::default()),
    ];
    for mut policy in policies {
        let point = fleet_point(4, 4, 0xF1EE7, Tiers::default());
        let run = point.run(&tb, policy.as_mut(), |i| match i {
            0 => member(SystemKind::SglangPd, PathClass::Split, FaultPlan::none()),
            _ => member(
                SystemKind::MuxWise,
                PathClass::SingleNode,
                FaultPlan::none(),
            ),
        });
        got.push(fleet_hash(run.report));
    }

    // `fleet_chaos --smoke`: eight MuxWise members, R=2 replication,
    // the first four fail-stop permanently in a staggered wave.
    let tiers = Tiers {
        replication: Some(ReplicationConfig {
            factor: 2,
            top_k: 16,
            sweep_every: 4,
            ..ReplicationConfig::default()
        }),
        ..Tiers::default()
    };
    let run = fleet_point(8, 8, 0xC4405, tiers).run(&tb, &mut PrefixAffinity::default(), |i| {
        let faults = if i < 4 {
            FaultPlan::single(
                FaultKind::GpuFailStopPermanent { gpu: i as u32 },
                SimTime::from_secs(25.0 + i as f64 * 0.75),
                SimTime::from_secs(1e9),
            )
        } else {
            FaultPlan::none()
        };
        member(SystemKind::MuxWise, PathClass::SingleNode, faults)
    });
    got.push(fleet_hash(run.report));

    // `fleet_chaos --gray-smoke`: six MuxWise members with hedging, the
    // first three under a gray window (latency spike, HBM degrade).
    let tiers = Tiers {
        hedging: Some(HedgeConfig::default()),
        ..Tiers::default()
    };
    let run = fleet_point(6, 8, 0xC4405, tiers).run(&tb, &mut PrefixAffinity::default(), |i| {
        let window = (SimTime::from_secs(15.0), SimTime::from_secs(105.0));
        let faults = match i {
            0 | 2 => FaultPlan::single(
                FaultKind::KernelLatencySpike {
                    mult: 20.0,
                    duration: SimDuration::from_secs(90.0),
                },
                window.0,
                window.1,
            ),
            1 => FaultPlan::single(
                FaultKind::HbmDegrade {
                    gpu: 0,
                    bw_fraction: 0.05,
                },
                window.0,
                window.1,
            ),
            _ => FaultPlan::none(),
        };
        member(SystemKind::MuxWise, PathClass::SingleNode, faults)
    });
    got.push(fleet_hash(run.report));

    assert_eq!(got, FLEETS, "got {}", literal(&got));
}

/// `fleet --smoke` under round-robin and prefix affinity, then
/// `fleet_chaos --smoke` and `fleet_chaos --gray-smoke`.
const FLEETS: [u64; 4] = [
    0x3e2c53485f3e3358,
    0x3137df1a96d147db,
    0x313ba394950a4359,
    0xaff5ed6e6d5c989a,
];
