//! The three workloads: how each is set up from a seed and run.
//!
//! Set-up (estimator profiling, trace generation, engine and instance
//! construction including `on_start`) is timed per phase and kept out
//! of the run phase, so work moved between the two shows in `setup_s`.

use std::sync::atomic::AtomicU64;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use bench::systems::{SystemKind, Testbed};
use fleet::{Fleet, FleetReport, HedgeConfig, PathClass, ReplicationConfig, RoutePolicy};
use gpusim::GpuSim;
use serving::{Driver, FaultKind, FaultPlan, Instance, Report, Scheduler, WatchdogConfig};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, generate_fleet_stream, RequestSpec, WorkloadKind};

use crate::books::CopyOutcome;
use crate::clock;
use crate::probe::{Books, EngineCrate, EngineTally, Probe, Stopwatch};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One MuxWise instance on the Tool&Agent rate ladder.
    Solo,
    /// 256 MuxWise members behind the prefix-affinity router.
    Affinity,
    /// 48 mixed members under gray faults and fail-stops.
    Faults,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Solo, Workload::Affinity, Workload::Faults];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo-toolagent-8b",
            Workload::Affinity => "fleet-affinity-70b",
            Workload::Faults => "fleet-faults-8b",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Wall seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Testbed::new`: the estimators' offline profiling.
    pub profile_s: f64,
    /// Workload trace generation.
    pub generate_s: f64,
    /// Engines, simulators, drivers and instances (`on_start`
    /// included), plus the `Fleet` around them.
    pub build_s: f64,
}

impl SetupTimes {
    /// All set-up phases together.
    pub fn total(&self) -> f64 {
        self.profile_s + self.generate_s + self.build_s
    }
}

/// How the engines of one run are wrapped.
#[derive(Clone)]
pub enum Wrap {
    /// Bare engines: the measured run.
    Bare,
    /// Every callback timed (the traced run).
    Timed {
        engine_busy: Arc<AtomicU64>,
        out: Sender<EngineTally>,
    },
    /// Request copies followed to first token and finish.
    Books { out: Sender<Vec<CopyOutcome>> },
}

impl Wrap {
    fn apply(&self, engine: Box<dyn Scheduler>, krate: EngineCrate) -> Box<dyn Scheduler> {
        match self {
            Wrap::Bare => engine,
            Wrap::Timed { engine_busy, out } => Box::new(Probe::new(
                engine,
                Stopwatch::new(krate, engine_busy.clone(), out.clone()),
            )),
            Wrap::Books { out } => Box::new(Probe::new(engine, Books::new(out.clone()))),
        }
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = clock::now();
    let r = f();
    *acc += clock::secs_since(t0);
    r
}

// ---------------------------------------------------------------------
// solo-toolagent-8b

/// Offered rates of the ladder (requests/second).
pub const SOLO_RATES: [f64; 5] = [4.0, 6.0, 8.0, 10.0, 12.0];
/// Requests per rung.
const SOLO_REQUESTS: usize = 12000;
/// The rung whose latencies are reported (8 req/s).
pub const SOLO_LATENCY_RUNG: usize = 2;
/// Requests on the latency rung: its P95 TTFT sits in the queueing
/// tail, which needs many busy periods to repeat closely across seeds.
const SOLO_LATENCY_REQUESTS: usize = 36000;

/// Requests offered on rung `k`.
pub fn solo_requests(k: usize) -> usize {
    if k == SOLO_LATENCY_RUNG {
        SOLO_LATENCY_REQUESTS
    } else {
        SOLO_REQUESTS
    }
}

/// One rung, built and paused at t = 0.
pub struct Rung {
    /// Offered rate (requests/second).
    pub rate: f64,
    /// The driver's time cap: last arrival plus a service-time grace.
    pub horizon: SimTime,
    span: f64,
    engine: Box<dyn Scheduler>,
    instance: Instance,
}

impl Rung {
    /// Requests offered on this rung.
    pub fn requests(&self) -> usize {
        self.instance.num_requests()
    }
}

/// Builds the ladder. Each rung draws its trace from its own stream of
/// `seed`, so rungs are independent and the same seed repeats exactly.
pub fn setup_solo(seed: u64, wrap: &Wrap) -> (Vec<Rung>, SetupTimes) {
    let mut t = SetupTimes::default();
    let tb = timed(&mut t.profile_s, Testbed::llama8b_a100);
    let mut rungs = Vec::with_capacity(SOLO_RATES.len());
    for (k, &rate) in SOLO_RATES.iter().enumerate() {
        let reqs = timed(&mut t.generate_s, || {
            let mut rng =
                SimRng::seed_from(seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            generate(WorkloadKind::ToolAgent, solo_requests(k), rate, &mut rng)
        });
        // The service-time grace of `bench::harness::stability_run`:
        // the longest response can finish after the last arrival, and
        // an overloaded rung is cut off rather than drained.
        let max_out = reqs.iter().map(|r| r.output_tokens).max().unwrap_or(0) as f64;
        let grace = (60.0 + max_out * tb.slo.tbt.as_secs() * 0.35).min(1_800.0);
        let horizon = reqs.last().map_or(SimTime::from_secs(grace), |r| {
            r.arrival + SimDuration::from_secs(grace)
        });
        let (engine, instance) = timed(&mut t.build_s, || {
            let engine = tb
                .build(SystemKind::MuxWise)
                .expect("MuxWise hosts Llama-8B");
            let mut engine = wrap.apply(engine, EngineCrate::Core);
            let driver = Driver::new(GpuSim::from_cluster(&tb.cluster), reqs, tb.slo)
                .with_max_sim_time(horizon);
            let instance = driver.into_instance(engine.as_mut());
            (engine, instance)
        });
        rungs.push(Rung {
            rate,
            horizon,
            span: solo_requests(k) as f64 / rate,
            engine,
            instance,
        });
    }
    (rungs, t)
}

/// What one rung's run produced.
pub struct RungRun {
    /// Offered rate (requests/second).
    pub rate: f64,
    /// The rung's report, `diverged` set as the stability sweep does.
    pub report: Report,
    /// Simulator boundary events.
    pub events: u64,
    /// The driver's time cap.
    pub horizon: SimTime,
    /// Wall seconds in `Instance::step_until`.
    pub step_s: f64,
    /// Wall seconds in `Instance::finish`.
    pub finish_s: f64,
}

/// Runs one rung to completion.
pub fn run_rung(rung: Rung) -> RungRun {
    let Rung {
        rate,
        horizon,
        span,
        mut engine,
        mut instance,
    } = rung;
    let t0 = clock::now();
    instance.step_until(engine.as_mut(), SimTime::MAX);
    let t1 = clock::now();
    let (mut report, events) = instance.finish(engine.as_mut());
    let finish_s = clock::secs_since(t1);
    drop(engine);
    // Queue divergence: P99 TTFT comparable to the trace span means
    // the offered load exceeded capacity even if every request finished.
    if report.ttft.p99() > 0.5 * span {
        report.diverged = true;
    }
    RungRun {
        rate,
        report,
        events,
        horizon,
        step_s: t1.duration_since(t0).as_secs_f64(),
        finish_s,
    }
}

// ---------------------------------------------------------------------
// fleets

/// Mean think time between a session's turns, seconds.
const THINK_SECS: f64 = 8.0;
/// Gray windows: `[GRAY_START, GRAY_END)` seconds.
const GRAY_START_SECS: f64 = 15.0;
const GRAY_END_SECS: f64 = 75.0;
/// First permanent fail-stop, and the stagger between members.
const FIRST_CRASH_SECS: f64 = 25.0;
const CRASH_STAGGER_SECS: f64 = 2.5;
/// Simulated-horizon sanity bound: a fleet whose makespan runs this far
/// past its last arrival did not drain; its run counts as failed.
pub const FLEET_HORIZON_SLACK_SECS: f64 = 3_600.0;

struct FleetShape {
    testbed: fn() -> Testbed,
    members: usize,
    sessions_per_member: usize,
    rate_per_member: f64,
}

fn shape(w: Workload) -> FleetShape {
    match w {
        Workload::Affinity => FleetShape {
            testbed: Testbed::llama70b_a100,
            members: 256,
            sessions_per_member: 16,
            rate_per_member: 0.5,
        },
        Workload::Faults => FleetShape {
            testbed: Testbed::llama8b_a100,
            members: 48,
            sessions_per_member: 96,
            rate_per_member: 1.5,
        },
        Workload::Solo => unreachable!("the solo ladder has no fleet"),
    }
}

/// The faulted fleet's member `i`: every 4th is SGLang-PD on the split
/// path. Two members in each block of eight (one of each engine kind)
/// take a gray window: a 20× kernel-latency spike in even blocks, HBM at
/// 5% in odd ones. One member in sixteen (MuxWise only) loses a GPU for
/// good, staggered from 25 s.
fn faults_member(i: usize, num_gpus: u32) -> (SystemKind, PathClass, FaultPlan) {
    let (kind, class) = if i.is_multiple_of(4) {
        (SystemKind::SglangPd, PathClass::Split)
    } else {
        (SystemKind::MuxWise, PathClass::SingleNode)
    };
    let plan = if i.is_multiple_of(8) || i % 8 == 3 {
        let kind = if (i / 8).is_multiple_of(2) {
            FaultKind::KernelLatencySpike {
                mult: 20.0,
                duration: SimDuration::from_secs(GRAY_END_SECS - GRAY_START_SECS),
            }
        } else {
            FaultKind::HbmDegrade {
                gpu: 0,
                bw_fraction: 0.05,
            }
        };
        FaultPlan::single(
            kind,
            SimTime::from_secs(GRAY_START_SECS),
            SimTime::from_secs(GRAY_END_SECS),
        )
    } else if i % 16 == 5 {
        let j = i / 16;
        FaultPlan::single(
            FaultKind::GpuFailStopPermanent {
                gpu: (i as u32) % num_gpus,
            },
            SimTime::from_secs(FIRST_CRASH_SECS + j as f64 * CRASH_STAGGER_SECS),
            SimTime::from_secs(1e9),
        )
    } else {
        FaultPlan::none()
    };
    (kind, class, plan)
}

/// A fleet built and paused at t = 0, with its global arrival stream.
pub struct FleetSetup {
    /// The members, ready to run.
    pub fleet: Fleet,
    /// The offered requests, in arrival order (ids are trace indices).
    pub trace: Vec<RequestSpec>,
    /// Nominal offered span, seconds: sessions over the aggregate
    /// session rate. The time base of the fleet goodput metrics; unlike
    /// the makespan it does not hinge on the last straggler's drain.
    pub offered_span_s: f64,
}

/// Builds workload `w`'s fleet stepping on `threads` threads.
pub fn setup_fleet(
    w: Workload,
    seed: u64,
    threads: usize,
    wrap: &Wrap,
) -> (FleetSetup, SetupTimes) {
    let mut t = SetupTimes::default();
    let s = shape(w);
    let tb = timed(&mut t.profile_s, s.testbed);
    let trace = timed(&mut t.generate_s, || {
        let mut rng = SimRng::seed_from(seed);
        generate_fleet_stream(
            WorkloadKind::Conversation,
            s.members,
            s.sessions_per_member,
            s.rate_per_member,
            THINK_SECS,
            &mut rng,
        )
    });
    let fleet = timed(&mut t.build_s, || {
        let mut fleet = Fleet::new().with_threads(threads);
        if w == Workload::Faults {
            fleet = fleet
                .with_replication(ReplicationConfig {
                    factor: 2,
                    top_k: 16,
                    sweep_every: 4,
                    ..ReplicationConfig::default()
                })
                .with_hedging(HedgeConfig::default());
        }
        for i in 0..s.members {
            let (kind, class, plan) = match w {
                Workload::Faults => faults_member(i, tb.cluster.num_gpus),
                _ => (
                    SystemKind::MuxWise,
                    PathClass::SingleNode,
                    FaultPlan::none(),
                ),
            };
            let krate = match kind {
                SystemKind::MuxWise => EngineCrate::Core,
                _ => EngineCrate::Baselines,
            };
            let engine = tb.build(kind).expect("fleet engines host the model");
            let driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
                .with_watchdog(WatchdogConfig::default())
                .with_faults(plan);
            fleet.push(
                driver,
                wrap.apply(engine, krate),
                class,
                format!("{}#{i}", kind.name()),
            );
        }
        fleet
    });
    let offered_span_s = s.sessions_per_member as f64 / s.rate_per_member;
    (
        FleetSetup {
            fleet,
            trace,
            offered_span_s,
        },
        t,
    )
}

/// What one fleet run produced.
pub struct FleetRun {
    /// The fleet's report.
    pub report: FleetReport,
    /// The offered requests.
    pub trace: Vec<RequestSpec>,
    /// Nominal offered span, seconds (see [`FleetSetup`]).
    pub offered_span_s: f64,
    /// Wall seconds in `Fleet::run`.
    pub wall_s: f64,
}

impl FleetRun {
    /// Simulated instance-seconds: every member's makespan, summed.
    pub fn sim_s(&self) -> f64 {
        self.report
            .reports
            .iter()
            .map(|r| r.makespan.as_secs())
            .sum()
    }

    /// Whether the fleet drained within the simulated-horizon sanity
    /// bound.
    pub fn within_horizon(&self) -> bool {
        let last = self.trace.last().map_or(0.0, |r| r.arrival.as_secs());
        self.report.makespan_secs() <= last + FLEET_HORIZON_SLACK_SECS
    }
}

/// Runs a built fleet through `policy`.
pub fn run_fleet(setup: FleetSetup, policy: &mut dyn RoutePolicy) -> FleetRun {
    let FleetSetup {
        fleet,
        trace,
        offered_span_s,
    } = setup;
    let t0 = clock::now();
    let report = fleet.run(&trace, policy);
    let wall_s = clock::secs_since(t0);
    FleetRun {
        report,
        trace,
        offered_span_s,
        wall_s,
    }
}
