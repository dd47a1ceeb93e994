//! Fleet-tier equivalence and determinism.
//!
//! The fleet routes requests into instances dynamically
//! ([`serving::Instance::admit`]) instead of pre-loading the trace, and
//! steps instances in bounded slices instead of one unbounded loop.
//! Neither may change a single scheduling decision: a 1-instance fleet
//! must reproduce the bare [`Driver::run`] report bit-for-bit for every
//! engine, healthy and crashing, and fleet reports must be bit-identical
//! across thread counts and merge-barrier interleavings.

use std::collections::BTreeSet;
use std::sync::mpsc;

use baselines::{ChunkedPrefill, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::SoloPredictor;
use fleet::{
    Fleet, FleetReport, HealthConfig, HedgeConfig, HedgeStats, PathClass, PrefixAffinity,
    RoundRobin,
};
use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use proptest::prelude::*;
use serving::{
    CrashVictim, Driver, EngineCounters, FaultKind, FaultPlan, LeaseTable, Report, ReqId,
    Scheduler, ServeCtx, SloSpec, WatchdogConfig,
};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, generate_fleet_stream, ContentSpec, RequestSpec, WorkloadKind};

fn engine_names() -> [&'static str; 7] {
    [
        "muxwise",
        "chunked",
        "nanoflow",
        "loongserve",
        "sglang-pd",
        "windserve",
        "temporal",
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
        other => panic!("unknown engine {other}"),
    }
}

/// The refactor_invariance golden workload: Conversation, 60 requests at
/// 2.5 req/s, seed 0xC0FFEE.
fn golden_trace() -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(0xC0FFEE);
    generate(WorkloadKind::Conversation, 60, 2.5, &mut rng)
}

/// A mid-trace crash: GPU 2 fail-stops at t=5s for 4s, squarely inside
/// the golden trace's arrival span.
fn crash_plan() -> FaultPlan {
    FaultPlan::crash(2, SimTime::from_secs(5.0), SimDuration::from_secs(4.0))
}

fn bare_run(name: &str, plan: FaultPlan) -> Report {
    let mut engine = build(name);
    Driver::new(
        GpuSim::from_cluster(&ClusterSpec::dgx_a100()),
        golden_trace(),
        SloSpec::llama8b(),
    )
    .with_faults(plan)
    .with_watchdog(WatchdogConfig::default())
    .run(engine.as_mut())
}

fn one_instance_fleet_run(name: &str, plan: FaultPlan) -> Report {
    let mut fleet = Fleet::new();
    let driver = Driver::new(
        GpuSim::from_cluster(&ClusterSpec::dgx_a100()),
        Vec::new(),
        SloSpec::llama8b(),
    )
    .with_faults(plan)
    .with_watchdog(WatchdogConfig::default());
    fleet.push(driver, build(name), PathClass::SingleNode, name.to_string());
    let mut report = fleet.run(&golden_trace(), &mut RoundRobin::new());
    assert_eq!(report.reports.len(), 1);
    report.reports.pop().expect("one instance")
}

#[test]
fn one_instance_fleet_is_byte_identical_to_bare_driver_healthy() {
    for name in engine_names() {
        let bare = bare_run(name, FaultPlan::none());
        let routed = one_instance_fleet_run(name, FaultPlan::none());
        assert_eq!(
            bare, routed,
            "{name}: routed admission diverged from the bare driver"
        );
    }
}

#[test]
fn one_instance_fleet_is_byte_identical_to_bare_driver_under_crash() {
    for name in engine_names() {
        let bare = bare_run(name, crash_plan());
        let routed = one_instance_fleet_run(name, crash_plan());
        assert_eq!(
            bare, routed,
            "{name}: crash failover diverged through the fleet path"
        );
    }
}

/// A small mixed-path fleet: one colocated engine, two disaggregated.
/// `plan0` is instance 0's fault plan; an empty plan keeps the fleet's
/// fault-tolerance tier unarmed (no fail-stop horizon).
fn mixed_fleet_with(threads: usize, plan0: FaultPlan) -> Fleet {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut fleet = Fleet::new().with_threads(threads);
    let members: [(&str, PathClass); 3] = [
        ("chunked", PathClass::SingleNode),
        ("sglang-pd", PathClass::Split),
        ("windserve", PathClass::Split),
    ];
    for (i, (name, class)) in members.into_iter().enumerate() {
        let mut driver = Driver::new(GpuSim::from_cluster(&cluster), Vec::new(), slo)
            .with_watchdog(WatchdogConfig::default());
        if i == 0 {
            driver = driver.with_faults(plan0.clone());
        }
        fleet.push(driver, build(name), class, format!("{name}#{i}"));
    }
    fleet
}

fn mixed_fleet(threads: usize, crash_instance_0: bool) -> Fleet {
    let plan = if crash_instance_0 {
        FaultPlan::crash(0, SimTime::from_secs(2.0), SimDuration::from_secs(10.0))
    } else {
        FaultPlan::none()
    };
    mixed_fleet_with(threads, plan)
}

/// Instance 0's GPU 0 fail-stops permanently at t=2s: the member never
/// revives, so its crash victims can only finish via fleet failover.
fn perm_plan() -> FaultPlan {
    FaultPlan::single(
        FaultKind::GpuFailStopPermanent { gpu: 0 },
        SimTime::from_secs(2.0),
        SimTime::from_secs(1e9),
    )
}

fn small_trace(seed: u64) -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(seed);
    generate_fleet_stream(WorkloadKind::Conversation, 3, 2, 0.5, 5.0, &mut rng)
}

#[test]
fn crash_reroutes_are_deterministic_across_threads() {
    let trace = small_trace(0xFA11);
    let one = mixed_fleet(1, true).run(&trace, &mut RoundRobin::new());
    let four = mixed_fleet(4, true).run(&trace, &mut RoundRobin::new());
    assert_eq!(
        one, four,
        "crash-window fleet diverged across thread counts"
    );
    assert!(
        one.routing.rerouted_on_crash > 0,
        "the 10s outage should force at least one reroute"
    );
    assert_eq!(one.finished() + one.shed(), one.total());
    assert_eq!(one.leaked_leases(), 0);
}

#[test]
fn permanent_crash_closes_the_books_through_real_engines() {
    let trace = small_trace(0xDEAD);
    let one = mixed_fleet_with(1, perm_plan()).run(&trace, &mut PrefixAffinity::default());
    let four = mixed_fleet_with(4, perm_plan()).run(&trace, &mut PrefixAffinity::default());
    assert_eq!(one, four, "permanent-crash fleet diverged across threads");
    assert_eq!(
        one.finished() + one.shed(),
        one.total(),
        "a request fell between the crashed member and the fleet"
    );
    assert_eq!(one.leaked_leases(), 0, "crash drain leaked KV leases");
    assert!(
        one.health.ejections >= 1,
        "a permanent fail-stop must eject the member: {:?}",
        one.health
    );
    assert_eq!(
        one.failover.drained,
        one.failover.migrated + one.failover.gave_up,
        "drained victims must all be placed or given up: {:?}",
        one.failover
    );
}

/// A gray window (kernel latency spike, no dead GPU) on instance 0 with
/// hedging enabled, through real engines: the run must stay thread- and
/// interleaving-deterministic and the books must close with the
/// cancelled class included.
#[test]
fn gray_spike_hedging_closes_books_through_real_engines() {
    let spike = || {
        FaultPlan::single(
            FaultKind::KernelLatencySpike {
                mult: 8.0,
                duration: SimDuration::from_secs(30.0),
            },
            SimTime::from_secs(1.0),
            SimTime::from_secs(31.0),
        )
    };
    let trace = small_trace(0x6EA7);
    let run = |threads| {
        mixed_fleet_with(threads, spike())
            .with_hedging(HedgeConfig::default())
            .run(&trace, &mut PrefixAffinity::default())
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "gray-spike hedging diverged across threads");
    assert!(
        one.health.gray_trips >= 1,
        "the spike must trip the gray breaker: {:?}",
        one.health
    );
    assert_eq!(
        one.finished() + one.shed() + one.cancelled(),
        one.total(),
        "a request fell between the winner and the cancelled loser"
    );
    assert_eq!(one.leaked_leases(), 0, "hedge cancel leaked KV leases");
}

/// Forwards every callback to the wrapped engine and, after each one,
/// records which offered requests (trace ids) the member has finished,
/// whichever copy — primary, hedge or migrated victim — it held. The
/// record is sent to `out` when the fleet drops the member at run end.
struct Finishes {
    inner: Box<dyn Scheduler>,
    open: Vec<ReqId>,
    done: Vec<u64>,
    out: mpsc::Sender<Vec<u64>>,
}

impl Finishes {
    fn new(inner: Box<dyn Scheduler>, out: mpsc::Sender<Vec<u64>>) -> Finishes {
        Finishes {
            inner,
            open: Vec::new(),
            done: Vec::new(),
            out,
        }
    }

    fn sweep(&mut self, ctx: &ServeCtx) {
        let done = &mut self.done;
        self.open.retain(|&id| {
            let finished = ctx.is_finished(id);
            if finished {
                done.push(ctx.request(id).id);
            }
            !finished
        });
    }
}

impl Drop for Finishes {
    fn drop(&mut self) {
        let _ = self.out.send(std::mem::take(&mut self.done));
    }
}

impl Scheduler for Finishes {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        self.inner.on_start(ctx);
    }
    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.open.push(id);
        self.inner.on_arrival(id, ctx);
        self.sweep(ctx);
    }
    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.inner.on_kernel_done(tag, ctx);
        self.sweep(ctx);
    }
    fn on_transfer_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.inner.on_transfer_done(tag, ctx);
        self.sweep(ctx);
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.inner.on_timer(tag, ctx);
        self.sweep(ctx);
    }
    fn groups(&self) -> Vec<GroupId> {
        self.inner.groups()
    }
    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        self.inner.streams()
    }
    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }
    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.inner.lease_tables()
    }
    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.inner.lease_tables_mut()
    }
    fn on_fault(&mut self, active: &[FaultKind], ctx: &mut ServeCtx) {
        self.inner.on_fault(active, ctx);
    }
    fn on_shed(&mut self, id: ReqId, ctx: &mut ServeCtx) -> bool {
        self.inner.on_shed(id, ctx)
    }
    fn on_gpu_lost(&mut self, gpu: u32, cancelled: &[u64], ctx: &mut ServeCtx) -> Vec<CrashVictim> {
        self.inner.on_gpu_lost(gpu, cancelled, ctx)
    }
    fn on_gpu_recovered(&mut self, gpu: u32, ctx: &mut ServeCtx) {
        self.inner.on_gpu_recovered(gpu, ctx);
        self.sweep(ctx);
    }
    fn decode_iter_stats(&self) -> (u64, u64) {
        self.inner.decode_iter_stats()
    }
    fn set_macro_steps(&mut self, on: bool) {
        self.inner.set_macro_steps(on);
    }
}

/// Runs `fleet` on a worker thread; a run that has not returned after
/// two minutes of wall time fails the test instead of hanging it (the
/// runaway thread is left behind, it cannot be joined).
fn run_with_deadline(fleet: Fleet, trace: Vec<RequestSpec>) -> FleetReport {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(fleet.run(&trace, &mut RoundRobin::new()));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(report) => {
            run.join().expect("the run sent its report and exited");
            report
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("Fleet::run did not return"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("the run panicked"))
        }
    }
}

/// Requests queued on a MuxWise member when its GPU dies for good must
/// not be stranded there. Member 1 runs a gray window and sheds every
/// arrival, so each request routed to it while it is degraded is hedged
/// onto a runner-up and its own copy shed. Member 0 takes one of those
/// hedges on top of its share of long prompts and crashes permanently
/// with it and others still queued: each must be drained and finish on
/// the survivor, and the hedge pair must retire — a pair whose live
/// copy stays stranded keeps re-arming the hedge check barrier, and
/// `Fleet::run` never returns.
#[test]
fn permanent_crash_strands_no_queued_request() {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let crash = FaultPlan::single(
        FaultKind::GpuFailStopPermanent { gpu: 0 },
        SimTime::from_secs(0.5),
        SimTime::from_secs(1e9),
    );
    let spike = FaultPlan::single(
        FaultKind::KernelLatencySpike {
            mult: 20.0,
            duration: SimDuration::from_secs(100.0),
        },
        SimTime::ZERO,
        SimTime::from_secs(100.0),
    );
    let shed_all = WatchdogConfig {
        queue_depth_cap: 0,
        ..WatchdogConfig::default()
    };
    let (done_tx, done_rx) = mpsc::channel();
    let mut fleet = Fleet::new()
        .with_hedging(HedgeConfig::default())
        .with_health(HealthConfig {
            gray_eject_after: SimDuration::from_secs(0.3),
            ..HealthConfig::default()
        });
    let members = [
        ("muxwise", crash, WatchdogConfig::default()),
        ("chunked", spike, shed_all),
        ("muxwise", FaultPlan::none(), WatchdogConfig::default()),
    ];
    for (i, (name, plan, watchdog)) in members.into_iter().enumerate() {
        let driver = Driver::new(GpuSim::from_cluster(&cluster), Vec::new(), slo)
            .with_faults(plan)
            .with_watchdog(watchdog);
        let engine = Finishes::new(build(name), done_tx.clone());
        fleet.push(
            driver,
            Box::new(engine),
            PathClass::SingleNode,
            format!("{name}#{i}"),
        );
    }
    let trace: Vec<RequestSpec> = (0..24u64)
        .map(|i| RequestSpec {
            id: i,
            arrival: SimTime::from_secs(0.05 * (i + 1) as f64),
            session: 100 + i,
            turn: 0,
            content: ContentSpec::single(100 + i, 30_000),
            prior_context: 0,
            output_tokens: 8,
        })
        .collect();
    let offered: BTreeSet<u64> = trace.iter().map(|r| r.id).collect();
    let report = run_with_deadline(fleet, trace);
    let hedge = report.hedge;
    assert_eq!(
        hedge.launched,
        hedge.primary_wins + hedge.hedge_wins + hedge.no_winner,
        "every hedge pair must retire: {hedge:?}"
    );
    assert!(
        hedge.no_winner >= 1,
        "a hedged copy must have been drained off the crashed member after its twin was shed: {hedge:?}"
    );
    let failover = &report.failover;
    assert!(
        failover.drained > report.reports[0].recovery.crash_victims,
        "queued requests must leave the crashed member with its crash victims: {failover:?}"
    );
    assert_eq!(failover.migrated, failover.drained, "{failover:?}");
    assert_eq!(
        failover.migrated_finished, failover.migrated,
        "{failover:?}"
    );
    assert_eq!(failover.stranded, 0, "{failover:?}");
    assert_eq!(
        report.finished() + report.shed() + report.cancelled(),
        report.total()
    );
    assert_eq!(report.leaked_leases(), 0);
    let done: BTreeSet<u64> = done_rx.try_iter().flatten().collect();
    assert_eq!(done, offered, "every offered request must finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Thread counts and merge-barrier interleavings are pure wall-clock
    /// knobs: the fleet report must not move by a bit.
    #[test]
    fn fleet_reports_are_bit_identical_across_threads_and_interleavings(
        threads in 2usize..6,
        barrier_ms in 200u64..2_000,
        seed in 0u64..1_000,
    ) {
        let trace = small_trace(seed);
        let base = mixed_fleet(1, false).run(&trace, &mut PrefixAffinity::default());
        let threaded = mixed_fleet(threads, false).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(&base, &threaded, "thread count changed the fleet report");
        // Chop the timeline with no-op barriers (some coinciding with
        // arrivals) — instance stepping must be insensitive to how the
        // run is sliced.
        let step = SimDuration::from_secs(barrier_ms as f64 / 1e3);
        let barriers: Vec<SimTime> = (1..=60).map(|k| SimTime::ZERO + step * k as f64).collect();
        let chopped = mixed_fleet(threads, false).run_opts(
            &trace,
            &mut PrefixAffinity::default(),
            &barriers,
        );
        prop_assert_eq!(&base, &chopped, "merge-barrier interleaving changed the fleet report");
    }

    /// Hedging configured but untriggerable (infinite delay threshold,
    /// no degraded trigger) on a fault-free fleet is a strict no-op:
    /// the gray tier never arms, so the report matches the hedging-free
    /// run byte for byte across thread counts and merge-barrier
    /// interleavings.
    #[test]
    fn untriggerable_hedging_replays_identically(
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        barrier_ms in 200u64..2_000,
        seed in 0u64..1_000,
    ) {
        let trace = small_trace(seed);
        let base = mixed_fleet(1, false).run(&trace, &mut PrefixAffinity::default());
        let hedged = mixed_fleet(threads, false)
            .with_hedging(HedgeConfig::untriggerable())
            .run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(&base, &hedged, "dormant hedging changed the fleet report");
        prop_assert_eq!(hedged.hedge, HedgeStats::default());
        let step = SimDuration::from_secs(barrier_ms as f64 / 1e3);
        let barriers: Vec<SimTime> = (1..=60).map(|k| SimTime::ZERO + step * k as f64).collect();
        let chopped = mixed_fleet(threads, false)
            .with_hedging(HedgeConfig::untriggerable())
            .run_opts(&trace, &mut PrefixAffinity::default(), &barriers);
        prop_assert_eq!(&base, &chopped, "dormant hedging changed the interleaved report");
    }

    /// With a mid-run permanent fail-stop the failover tier arms, the
    /// ejected member drains, and victims re-enter elsewhere — yet the
    /// books must still close (`finished + shed == total`), no lease may
    /// leak, and the report must stay bit-identical across 1/2/4
    /// threads and arbitrary merge-barrier interleavings.
    #[test]
    fn permanent_crash_failover_is_deterministic_and_leak_free(
        threads in prop_oneof![Just(2usize), Just(4usize)],
        barrier_ms in 150u64..1_500,
        seed in 0u64..1_000,
    ) {
        let trace = small_trace(seed);
        let base = mixed_fleet_with(1, perm_plan()).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(
            base.finished() + base.shed(),
            base.total(),
            "a request fell between the crashed member and the fleet: {:?}",
            base.failover
        );
        prop_assert_eq!(base.leaked_leases(), 0, "crash drain leaked KV leases");
        let threaded = mixed_fleet_with(threads, perm_plan()).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(&base, &threaded, "thread count changed the failover run");
        let step = SimDuration::from_secs(barrier_ms as f64 / 1e3);
        let barriers: Vec<SimTime> = (1..=60).map(|k| SimTime::ZERO + step * k as f64).collect();
        let chopped = mixed_fleet_with(threads, perm_plan()).run_opts(
            &trace,
            &mut PrefixAffinity::default(),
            &barriers,
        );
        prop_assert_eq!(&base, &chopped, "barrier interleaving changed the failover run");
    }
}
