//! Fleet chaos sweep: fleet size × permanent-fault intensity ×
//! hot-prefix replication × failover on/off.
//!
//! Each grid point runs a fleet of MuxWise instances under a staggered
//! wave of *permanent* GPU fail-stops (the crashed members never
//! revive), replaying one global conversation stream through the
//! prefix-affinity router. The sweep contrasts four fates for a crash
//! victim:
//!
//! - **failover off**: the victim is stranded on the dead member and
//!   shed when the run closes its books (`shed_on_crash`);
//! - **failover on, no replication**: the fleet drains the victim off
//!   the ejected member and re-admits it on a survivor as a full
//!   re-prefill (`reprefill_resumes`);
//! - **failover on, R=2 replication**: hot session prefixes were
//!   mirrored onto a second member ahead of the crash, so the migrated
//!   victim lands on warm KV and resumes as a cheap cached prefill
//!   (`replica_hit_resumes`);
//! - any victim that exhausts its fleet retry budget or TTFT deadline
//!   is given up and shed — never silently dropped.
//!
//! Headline claims checked here: at intensity 0.5 failover-on finishes
//! at least 70% of the victims failover-off sheds, R=2 converts a
//! measurable share of migrations into cached resumes, crash-free
//! points are byte-identical across all fault-tolerance configs, and
//! the chaos headline point replays bit-identically across thread
//! counts.
//!
//! A second, gray-failure grid runs latency/bandwidth-only fault
//! windows (kernel latency spikes, HBM degrades — no GPU ever dies)
//! with hedged dispatch off vs on: the latency-aware health tier trips
//! the breaker on EWMA evidence, hedging races duplicates on healthy
//! members, and the slow copies are cancelled into their own
//! accounting class — the claim is recovered TTFT-weighted goodput at
//! the same offered rate.
//!
//! `--smoke` runs one small crashing fleet and asserts that at least
//! one victim migrates and finishes on a different instance and that
//! no request is left stranded on a member — wired into
//! `scripts/check.sh` as `fleet-chaos-smoke`. `--gray-smoke` does the
//! same for the gray tier (`scripts/check.sh gray-smoke`).

use bench::systems::{SystemKind, Testbed};
use bench::{banner, save_record};
use fleet::{
    Fleet, FleetReport, HedgeConfig, PathClass, PrefixAffinity, ReplicationConfig, RoutePolicy,
};
use gpusim::GpuSim;
use serving::{Driver, FaultKind, FaultPlan, WatchdogConfig};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate_fleet_stream, RequestSpec, WorkloadKind};

const SEED: u64 = 0xC4405;
/// Sessions per instance; multi-turn so later turns carry reusable
/// context worth replicating.
const SESSIONS_PER_INSTANCE: usize = 8;
/// Mean think time between a session's turns, seconds.
const THINK_SECS: f64 = 8.0;
/// First fail-stop instant. Late enough that sessions have come back
/// for second and third turns, so the heat table has had real repeats
/// to count and the replicator has mirrored the hot prefixes — a crash
/// in the first think-time window would strand victims whose sessions
/// nothing had a reason to replicate yet.
const FIRST_CRASH_SECS: f64 = 25.0;
/// Stagger between successive members' fail-stops, seconds. Staggering
/// keeps the survivor set changing mid-drain, which is the interesting
/// regime for health-gated target picking.
const CRASH_STAGGER_SECS: f64 = 0.75;

/// One chaos grid point.
#[derive(Clone, Copy)]
struct ChaosPoint {
    size: usize,
    sessions: usize,
    rate: f64,
    /// Fraction of members struck by a permanent GPU fail-stop.
    intensity: f64,
    /// Mirror hot prefixes onto a second member (R=2) when true.
    replication: bool,
    /// Fleet failover tier armed when true.
    failover: bool,
    threads: usize,
}

impl ChaosPoint {
    fn crashed(&self) -> usize {
        (self.size as f64 * self.intensity).round() as usize
    }

    fn arm(&self) -> &'static str {
        match (self.failover, self.replication) {
            (false, _) => "failover-off",
            (true, false) => "failover",
            (true, true) => "failover+R2",
        }
    }
}

fn build_fleet(tb: &Testbed, p: &ChaosPoint) -> Fleet {
    let mut fleet = Fleet::new().with_threads(p.threads);
    if !p.failover {
        fleet = fleet.without_failover();
    }
    if p.replication {
        fleet = fleet.with_replication(ReplicationConfig {
            factor: 2,
            top_k: 16,
            sweep_every: 4,
            ..ReplicationConfig::default()
        });
    }
    for i in 0..p.size {
        let engine = tb
            .build(SystemKind::MuxWise)
            .expect("muxwise fits the testbed");
        let mut driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
            .with_watchdog(WatchdogConfig::default());
        if i < p.crashed() {
            // Stagger the wave so the survivor set shifts mid-drain,
            // and rotate the failing device across members.
            let start = FIRST_CRASH_SECS + i as f64 * CRASH_STAGGER_SECS;
            driver = driver.with_faults(FaultPlan::single(
                FaultKind::GpuFailStopPermanent {
                    gpu: (i as u32) % tb.cluster.num_gpus,
                },
                SimTime::from_secs(start),
                SimTime::from_secs(1e9),
            ));
        }
        fleet.push(
            driver,
            engine,
            PathClass::SingleNode,
            format!("muxwise#{i}"),
        );
    }
    fleet
}

fn trace_for(p: &ChaosPoint) -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(SEED);
    generate_fleet_stream(
        WorkloadKind::Conversation,
        p.size,
        p.sessions,
        p.rate,
        THINK_SECS,
        &mut rng,
    )
}

fn run_point(tb: &Testbed, p: &ChaosPoint) -> FleetReport {
    let trace = trace_for(p);
    let mut policy: Box<dyn RoutePolicy> = Box::new(PrefixAffinity::default());
    build_fleet(tb, p).run(&trace, policy.as_mut())
}

/// Victims revoked by fail-stops, summed across members.
fn victims(r: &FleetReport) -> u64 {
    r.reports.iter().map(|m| m.recovery.crash_victims).sum()
}

/// Victims shed rather than recovered, summed across members.
fn crash_shed(r: &FleetReport) -> u64 {
    r.reports.iter().map(|m| m.recovery.shed_on_crash).sum()
}

fn assert_invariants(label: &str, report: &FleetReport) {
    assert_eq!(report.leaked_leases(), 0, "{label}: fleet leaked KV leases");
    assert_eq!(
        report.finished() + report.shed() + report.cancelled(),
        report.total(),
        "{label}: fleet lost requests"
    );
}

/// With failover on, no request may end its run stranded on a member
/// — closed as shed at run end because nothing would ever run it. The
/// books close either way, so only this count shows it.
fn assert_nothing_stranded(label: &str, report: &FleetReport) {
    assert_eq!(
        report.failover.stranded, 0,
        "{label}: requests were stranded on a member: {:?}",
        report.failover
    );
}

fn row_json(p: &ChaosPoint, report: &FleetReport) -> serde_json::Value {
    serde_json::json!({
        "size": p.size, "intensity": p.intensity, "arm": p.arm(),
        "crashed_instances": p.crashed(),
        "replication_factor": if p.replication { 2 } else { 0 },
        "failover": p.failover,
        "rate_per_instance": p.rate,
        "requests": report.total(), "finished": report.finished(),
        "shed": report.shed(), "tokens": report.total_tokens(),
        "goodput_tokens_per_s": report.goodput_tokens_per_sec(),
        "ttft_attainment": report.ttft_attainment(),
        "victims": victims(report),
        "crash_shed": crash_shed(report),
        "drained": report.failover.drained,
        "migrated": report.failover.migrated,
        "migrated_finished": report.failover.migrated_finished,
        "migrated_shed": report.failover.migrated_shed,
        "replica_hit_resumes": report.failover.replica_hit,
        "reprefill_resumes": report.failover.reprefill,
        "gave_up": report.failover.gave_up,
        "replicas_pushed": report.replication.replicas_pushed,
        "replica_tokens_pushed": report.replication.tokens_pushed,
        "hot_prefixes": report.replication.hot_prefixes,
        "ejections": report.health.ejections,
        "probes": report.health.probes,
        "makespan_s": report.makespan_secs(),
        "threads": p.threads,
    })
}

fn print_row(p: &ChaosPoint, report: &FleetReport) {
    println!(
        "{:>4} inst  int {:>4.2}  {:<12}  victims {:>4}  shed-on-crash {:>4}  migrated {:>4}  finished {:>4}  cached {:>3}  reprefill {:>3}  gave-up {:>3}  eject {:>3}  goodput {:>9.0} tok/s",
        p.size,
        p.intensity,
        p.arm(),
        victims(report),
        crash_shed(report),
        report.failover.migrated,
        report.failover.migrated_finished,
        report.failover.replica_hit,
        report.failover.reprefill,
        report.failover.gave_up,
        report.health.ejections,
        report.goodput_tokens_per_sec(),
    );
}

/// Sub-minute chaos smoke (`scripts/check.sh fleet-chaos-smoke`): one
/// small fleet with permanent crashes must migrate at least one victim
/// to a different instance and finish it there, with books closed,
/// zero leaks, and thread-count identity.
fn smoke() {
    banner("Fleet chaos smoke");
    let tb = Testbed::llama8b_a100();
    let p = ChaosPoint {
        size: 8,
        sessions: SESSIONS_PER_INSTANCE,
        rate: 0.5,
        intensity: 0.5,
        replication: true,
        failover: true,
        threads: 1,
    };
    let one = run_point(&tb, &p);
    assert_invariants("chaos-smoke", &one);
    assert_nothing_stranded("chaos-smoke", &one);
    assert!(
        one.failover.migrated_finished >= 1,
        "no victim migrated off a dead member and finished elsewhere: {:?}",
        one.failover
    );
    let migrated_out: u64 = one.reports.iter().map(|m| m.recovery.migrated_out).sum();
    assert!(
        migrated_out >= 1,
        "migrations must be drained from a crashed member, not conjured"
    );
    assert!(
        one.health.ejections >= 1,
        "permanent fail-stops must eject members: {:?}",
        one.health
    );
    let two = run_point(&tb, &ChaosPoint { threads: 2, ..p });
    assert_eq!(one, two, "chaos smoke diverged across thread counts");
    println!(
        "{} requests, {} finished, {} shed; {} victims, {} migrated ({} finished, {} cached resumes), {} ejections — ok",
        one.total(),
        one.finished(),
        one.shed(),
        victims(&one),
        one.failover.migrated,
        one.failover.migrated_finished,
        one.failover.replica_hit,
        one.health.ejections,
    );
    println!("fleet chaos smoke passed");
}

/// First gray window opening, seconds. Late enough that the fleet has
/// finished-request latency evidence before the EWMAs start diverging.
const GRAY_START_SECS: f64 = 15.0;
/// Gray window length, seconds — spans the bulk of the arrival stream.
const GRAY_LEN_SECS: f64 = 90.0;

/// One gray-failure grid point: latency/bandwidth-only fault windows
/// (no GPU ever dies, no severe flag fires) on a member subset, with
/// hedged dispatch on or off.
#[derive(Clone, Copy)]
struct GrayPoint {
    size: usize,
    sessions: usize,
    rate: f64,
    /// Fraction of members struck by a gray window.
    gray_fraction: f64,
    hedging: bool,
    threads: usize,
}

impl GrayPoint {
    fn gray_members(&self) -> usize {
        (self.size as f64 * self.gray_fraction).round() as usize
    }

    fn arm(&self) -> &'static str {
        if self.hedging {
            "gray+hedge"
        } else {
            "gray"
        }
    }
}

/// The gray fault mix: even-indexed victims take a kernel latency spike
/// (driver stutter / thermal throttle), odd-indexed ones an HBM
/// bandwidth degrade — both leave every GPU alive, which is exactly
/// what makes them invisible to the fail-stop breaker path.
fn gray_plan(i: usize) -> FaultPlan {
    let kind = if i.is_multiple_of(2) {
        FaultKind::KernelLatencySpike {
            mult: 20.0,
            duration: SimDuration::from_secs(GRAY_LEN_SECS),
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
        SimTime::from_secs(GRAY_START_SECS + GRAY_LEN_SECS),
    )
}

fn build_gray_fleet(tb: &Testbed, p: &GrayPoint) -> Fleet {
    let mut fleet = Fleet::new().with_threads(p.threads);
    if p.hedging {
        fleet = fleet.with_hedging(HedgeConfig::default());
    }
    for i in 0..p.size {
        let engine = tb
            .build(SystemKind::MuxWise)
            .expect("muxwise fits the testbed");
        let mut driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
            .with_watchdog(WatchdogConfig::default());
        if i < p.gray_members() {
            driver = driver.with_faults(gray_plan(i));
        }
        fleet.push(
            driver,
            engine,
            PathClass::SingleNode,
            format!("muxwise#{i}"),
        );
    }
    fleet
}

fn run_gray_point(tb: &Testbed, p: &GrayPoint) -> FleetReport {
    let mut rng = SimRng::seed_from(SEED);
    let trace = generate_fleet_stream(
        WorkloadKind::Conversation,
        p.size,
        p.sessions,
        p.rate,
        THINK_SECS,
        &mut rng,
    );
    let mut policy: Box<dyn RoutePolicy> = Box::new(PrefixAffinity::default());
    build_gray_fleet(tb, p).run(&trace, policy.as_mut())
}

/// TTFT-weighted goodput: tokens weighted by their instance's TTFT
/// attainment over the fleet makespan. This is the number gray windows
/// crater — a 6× kernel stutter rarely breaks a decode TBT budget, but
/// it blows the prefill deadline on everything queued behind it.
fn ttft_goodput(r: &FleetReport) -> f64 {
    let span = r.makespan_secs();
    if span <= 0.0 {
        return 0.0;
    }
    r.reports
        .iter()
        .map(|m| m.total_tokens as f64 * m.ttft_attainment())
        .sum::<f64>()
        / span
}

fn gray_row_json(p: &GrayPoint, report: &FleetReport) -> serde_json::Value {
    serde_json::json!({
        "size": p.size, "gray_fraction": p.gray_fraction, "arm": p.arm(),
        "gray_instances": p.gray_members(),
        "hedging": p.hedging,
        "rate_per_instance": p.rate,
        "requests": report.total(), "finished": report.finished(),
        "shed": report.shed(), "cancelled": report.cancelled(),
        "tokens": report.total_tokens(),
        "ttft_goodput_tokens_per_s": ttft_goodput(report),
        "ttft_attainment": report.ttft_attainment(),
        "goodput_tokens_per_s": report.goodput_tokens_per_sec(),
        "gray_trips": report.health.gray_trips,
        "gray_ejections": report.health.gray_ejections,
        "hedges_launched": report.hedge.launched,
        "hedge_wins": report.hedge.hedge_wins,
        "primary_wins": report.hedge.primary_wins,
        "cancelled_dropped": report.hedge.cancelled_dropped,
        "cancelled_detached": report.hedge.cancelled_detached,
        "suppressed_budget": report.hedge.suppressed_budget,
        "suppressed_no_target": report.hedge.suppressed_no_target,
        "budget_spent_hedge": report.overload.budget_spent_hedge,
        "ingress_shed": report.overload.ingress_shed,
        "makespan_s": report.makespan_secs(),
        "threads": p.threads,
    })
}

fn print_gray_row(p: &GrayPoint, report: &FleetReport) {
    println!(
        "{:>4} inst  gray {:>4.2}  {:<12}  trips {:>3}  hedges {:>4}  wins {:>4}  cancelled {:>4}  ttft-att {:>5.3}  ttft-goodput {:>9.0} tok/s",
        p.size,
        p.gray_fraction,
        p.arm(),
        report.health.gray_trips,
        report.hedge.launched,
        report.hedge.hedge_wins,
        report.cancelled(),
        report.ttft_attainment(),
        ttft_goodput(report),
    );
}

/// Sub-minute gray smoke (`scripts/check.sh gray-smoke`): a small fleet
/// under latency-only faults must trip the gray breaker, launch at
/// least one hedge, close its books with the cancelled class included,
/// and replay identically across thread counts.
fn gray_smoke() {
    banner("Fleet gray-failure smoke");
    let tb = Testbed::llama8b_a100();
    let p = GrayPoint {
        size: 6,
        sessions: SESSIONS_PER_INSTANCE,
        rate: 0.5,
        gray_fraction: 0.5,
        hedging: true,
        threads: 1,
    };
    let one = run_gray_point(&tb, &p);
    assert_invariants("gray-smoke", &one);
    assert_nothing_stranded("gray-smoke", &one);
    assert!(
        one.health.gray_trips >= 1,
        "gray windows must trip the breaker: {:?}",
        one.health
    );
    assert!(
        one.hedge.launched >= 1,
        "a degraded member must draw at least one hedge: {:?}",
        one.hedge
    );
    let two = run_gray_point(&tb, &GrayPoint { threads: 2, ..p });
    assert_eq!(one, two, "gray smoke diverged across thread counts");
    println!(
        "{} requests, {} finished, {} shed, {} cancelled; {} gray trips, {} hedges ({} hedge wins) — ok",
        one.total(),
        one.finished(),
        one.shed(),
        one.cancelled(),
        one.health.gray_trips,
        one.hedge.launched,
        one.hedge.hedge_wins,
    );
    println!("fleet gray smoke passed");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    if std::env::args().any(|a| a == "--gray-smoke") {
        gray_smoke();
        return;
    }
    let tb = Testbed::llama8b_a100();
    let mut rows = Vec::new();
    let base = ChaosPoint {
        size: 0,
        sessions: SESSIONS_PER_INSTANCE,
        rate: 0.5,
        intensity: 0.0,
        replication: false,
        failover: true,
        threads: bench::sweep::num_threads(),
    };
    let arms: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];
    let sizes = [4usize, 8, 16];
    let intensities = [0.0, 0.25, 0.5];

    banner("Fleet chaos — size × intensity × arm (Llama-8B / A100 per instance)");
    for &size in &sizes {
        let mut crash_free: Vec<FleetReport> = Vec::new();
        for &intensity in &intensities {
            for (failover, replication) in arms {
                let p = ChaosPoint {
                    size,
                    intensity,
                    failover,
                    replication,
                    ..base
                };
                let report = run_point(&tb, &p);
                assert_invariants(&format!("{size}/{intensity}/{}", p.arm()), &report);
                print_row(&p, &report);
                let row = row_json(&p, &report);
                save_record("fleet_chaos", &row);
                rows.push(row);
                if intensity == 0.0 {
                    crash_free.push(report);
                }
            }
        }
        // Crash-free runs must not see the fault-tolerance tier at all:
        // every arm replays the exact same barrier sequence and report.
        for r in &crash_free[1..] {
            assert_eq!(
                &crash_free[0], r,
                "{size}: a crash-free fleet run changed with fault-tolerance config"
            );
        }
    }

    // Headline recovery claim: at intensity 0.5, failover-on finishes at
    // least 70% of what failover-off sheds, at every size.
    let field = |row: &serde_json::Value, key: &str| -> f64 {
        row.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    let find = |rows: &[serde_json::Value], size: usize, intensity: f64, arm: &str| {
        rows.iter()
            .find(|r| {
                field(r, "size") == size as f64
                    && field(r, "intensity") == intensity
                    && r.get("arm").and_then(|v| v.as_str()) == Some(arm)
            })
            .cloned()
            .expect("grid point ran")
    };
    banner("Recovery ratio at intensity 0.5 (migrated-finished vs stranded sheds)");
    let mut worst_ratio = f64::INFINITY;
    for &size in &sizes {
        let off = find(&rows, size, 0.5, "failover-off");
        let on = find(&rows, size, 0.5, "failover");
        let stranded = field(&off, "crash_shed");
        let recovered = field(&on, "migrated_finished");
        let ratio = if stranded > 0.0 {
            recovered / stranded
        } else {
            1.0
        };
        worst_ratio = worst_ratio.min(ratio);
        println!(
            "{size:>4} inst: failover-off sheds {stranded:.0}, failover-on finishes {recovered:.0} migrated — ratio {ratio:.2}"
        );
        assert!(
            field(&off, "crash_shed") > 0.0,
            "{size}: intensity 0.5 must strand victims when failover is off"
        );
        assert!(
            ratio >= 0.7,
            "{size}: failover recovered only {ratio:.2} of stranded victims"
        );
    }

    // Replication claim: R=2 converts a measurable share of migrations
    // into cached resumes at the headline size.
    let r2 = find(&rows, 8, 0.5, "failover+R2");
    let cached = field(&r2, "replica_hit_resumes");
    let migrated = field(&r2, "migrated").max(1.0);
    println!(
        "\nR=2 at 8 inst / intensity 0.5: {cached:.0} of {migrated:.0} migrations resumed on replica KV ({:.0}%)",
        100.0 * cached / migrated
    );
    assert!(
        cached >= 1.0,
        "R=2 replication produced no cached resumes: {r2}"
    );

    // Determinism: the headline chaos point replays bit-identically
    // across thread counts.
    banner("Thread-count replay identity (8 instances, intensity 0.5, R=2)");
    let headline = ChaosPoint {
        size: 8,
        intensity: 0.5,
        failover: true,
        replication: true,
        threads: 1,
        ..base
    };
    let sequential = run_point(&tb, &headline);
    let threaded = run_point(
        &tb,
        &ChaosPoint {
            threads: 4,
            ..headline
        },
    );
    let identical = sequential == threaded;
    assert!(identical, "chaos replay diverged across thread counts");
    println!("threads 1 vs 4: identical_results = {identical}");

    // Gray-failure arms: latency/bandwidth-only faults, hedging off vs
    // on at the same rate. The claim is tail-TTFT recovery — hedging
    // must win back a measurable share of the TTFT-weighted goodput the
    // gray windows cost, without losing a request.
    banner("Gray failures — hedging off vs on (8 instances, half gray)");
    let gray_base = GrayPoint {
        size: 8,
        sessions: SESSIONS_PER_INSTANCE,
        rate: 1.5,
        gray_fraction: 0.5,
        hedging: false,
        threads: bench::sweep::num_threads(),
    };
    let mut gray_rows = Vec::new();
    let mut gray_goodputs = [0.0f64; 2];
    for (k, hedging) in [false, true].into_iter().enumerate() {
        let p = GrayPoint {
            hedging,
            ..gray_base
        };
        let report = run_gray_point(&tb, &p);
        assert_invariants(&format!("gray/{}", p.arm()), &report);
        assert!(
            report.health.gray_trips >= 1,
            "{}: gray windows must trip the breaker: {:?}",
            p.arm(),
            report.health
        );
        print_gray_row(&p, &report);
        gray_goodputs[k] = ttft_goodput(&report);
        if hedging {
            assert!(
                report.hedge.launched >= 1,
                "gray+hedge must launch hedges: {:?}",
                report.hedge
            );
        }
        let row = gray_row_json(&p, &report);
        save_record("fleet_chaos", &row);
        gray_rows.push(row);
    }
    let gray_recovery = if gray_goodputs[0] > 0.0 {
        gray_goodputs[1] / gray_goodputs[0]
    } else {
        1.0
    };
    println!(
        "\ngray TTFT-weighted goodput: hedge-off {:.0} tok/s, hedge-on {:.0} tok/s — ratio {gray_recovery:.3}",
        gray_goodputs[0], gray_goodputs[1]
    );
    assert!(
        gray_recovery > 1.01,
        "hedging must recover a measurable share of TTFT-weighted goodput under gray faults, got ratio {gray_recovery:.3}"
    );

    // Gray determinism: the hedged gray point replays bit-identically.
    let gray_seq = run_gray_point(
        &tb,
        &GrayPoint {
            hedging: true,
            threads: 1,
            ..gray_base
        },
    );
    let gray_thr = run_gray_point(
        &tb,
        &GrayPoint {
            hedging: true,
            threads: 4,
            ..gray_base
        },
    );
    let gray_identical = gray_seq == gray_thr;
    assert!(gray_identical, "gray replay diverged across thread counts");
    println!("gray threads 1 vs 4: identical_results = {gray_identical}");

    let _ = std::fs::write(
        "BENCH_fleet_chaos.json",
        serde_json::to_string(&serde_json::json!({
            "experiment": "fleet_chaos",
            "workload": "Conversation sessions",
            "sessions_per_instance": SESSIONS_PER_INSTANCE,
            "think_secs": THINK_SECS,
            "sizes": sizes,
            "intensities": intensities,
            "worst_recovery_ratio_at_0_5": worst_ratio,
            "identical_results": identical && gray_identical,
            "gray_ttft_goodput_recovery": gray_recovery,
            "gray_rows": gray_rows,
            "rows": rows,
        }))
        .unwrap_or_default(),
    );
    println!(
        "\nExpected shape: with failover off, every victim of a permanent fail-stop \
         is stranded and shed; arming failover finishes >=70% of them on surviving \
         members; adding R=2 hot-prefix replication turns part of those migrations \
         into cached-prefill resumes instead of full re-prefills; under gray \
         (latency-only) faults, hedged dispatch wins back TTFT-weighted goodput by \
         racing duplicates on healthy members and cancelling the slow copy; \
         crash-free points are byte-identical across all arms and replay is \
         bit-identical across thread counts."
    );
}
