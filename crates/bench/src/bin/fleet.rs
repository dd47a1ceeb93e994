//! Fleet sweep: fleet size × router policy × arrival rate.
//!
//! Builds fleets of steppable MuxWise instances (optionally mixed with
//! SGLang-PD split-path instances), replays one global session stream
//! through a router policy, and reports fleet goodput plus
//! routing-quality columns: prefix-cache hit rate at the router, request
//! load imbalance, and crash-driven reroutes. Each row also records the
//! wall-clock seconds of its fleet run (`wall_s`, `events_per_wall_s`)
//! and the process's peak resident memory while it ran (`peak_rss_mb`),
//! the only columns that differ between hosts. The headline grid point is
//! re-run at several thread counts to demonstrate bit-identical replay
//! (`identical_results` in `BENCH_fleet.json`).
//!
//! `--smoke` runs a 4-instance fleet and asserts the fleet-wide
//! robustness invariants (zero KV leaks, `finished + shed == total`,
//! thread-count identity) — wired into `scripts/check.sh` as
//! `fleet-smoke`.

use bench::sweep::wall_timed;
use bench::systems::{SystemKind, Testbed};
use bench::{banner, save_record};
use fleet::{Fleet, FleetReport, PathClass, PrefixAffinity, RoundRobin, RoutePolicy};
use gpusim::GpuSim;
use serving::{Driver, FaultPlan, WatchdogConfig};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate_fleet_stream, RequestSpec, WorkloadKind};

const SEED: u64 = 0xF1EE7;
/// Sessions per instance in the global stream (each session is
/// multi-turn, so later turns carry reusable context). High enough that
/// a router which re-prefills session context from scratch pays for it
/// in queueing delay.
const SESSIONS_PER_INSTANCE: usize = 16;
/// Mean think time between a session's turns, seconds.
const THINK_SECS: f64 = 8.0;

/// One fleet configuration to run.
struct FleetPoint {
    size: usize,
    /// Sessions per instance in the generated stream.
    sessions: usize,
    /// Session arrival rate per instance (sessions/second).
    rate: f64,
    policy: &'static str,
    /// Every k-th instance gets a GPU fail-stop mid-trace.
    crash_every: Option<usize>,
    /// Every k-th instance is an SGLang-PD split-path instance.
    split_every: Option<usize>,
    threads: usize,
}

fn make_policy(name: &str) -> Box<dyn RoutePolicy> {
    match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "prefix-affinity" => Box::new(PrefixAffinity::default()),
        other => panic!("unknown policy {other}"),
    }
}

fn build_fleet(tb: &Testbed, p: &FleetPoint) -> Fleet {
    let mut fleet = Fleet::new().with_threads(p.threads);
    for i in 0..p.size {
        let split = p.split_every.is_some_and(|k| i % k == 0);
        let (kind, class) = if split {
            (SystemKind::SglangPd, PathClass::Split)
        } else {
            (SystemKind::MuxWise, PathClass::SingleNode)
        };
        let engine = tb.build(kind).expect("fleet systems fit the testbed");
        let mut driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
            .with_watchdog(WatchdogConfig::default());
        if p.crash_every.is_some_and(|k| i % k == 0) {
            // Stagger the failing device across instances so reroutes are
            // not all identical.
            driver = driver.with_faults(FaultPlan::crash(
                (i as u32) % tb.cluster.num_gpus,
                SimTime::from_secs(5.0),
                SimDuration::from_secs(10.0),
            ));
        }
        fleet.push(driver, engine, class, format!("{}#{i}", kind.name()));
    }
    fleet
}

fn trace_for(size: usize, sessions: usize, rate: f64) -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(SEED);
    generate_fleet_stream(
        WorkloadKind::Conversation,
        size,
        sessions,
        rate,
        THINK_SECS,
        &mut rng,
    )
}

/// Runs one point and returns its report with the wall-clock seconds of
/// the fleet run alone (trace generation and fleet set-up excluded), and
/// the process's peak resident memory while the point ran, set-up
/// included (MB; 0 where `/proc` is missing). Writing `5` to
/// `clear_refs` first resets the kernel's high-water mark (`VmHWM`) to
/// the current RSS, so the figure covers this point only, on top of
/// whatever the process already held.
fn run_point(tb: &Testbed, p: &FleetPoint) -> (FleetReport, f64, f64) {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let trace = trace_for(p.size, p.sessions, p.rate);
    let mut policy = make_policy(p.policy);
    let fleet = build_fleet(tb, p);
    let (report, wall_s) = wall_timed(|| fleet.run(&trace, policy.as_mut()));
    let peak_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    (report, wall_s, peak_kb / 1024.0)
}

fn assert_invariants(label: &str, report: &FleetReport) {
    assert_eq!(report.leaked_leases(), 0, "{label}: fleet leaked KV leases");
    assert_eq!(
        report.finished() + report.shed(),
        report.total(),
        "{label}: fleet lost requests"
    );
}

fn row_json(
    p: &FleetPoint,
    report: &FleetReport,
    wall_s: f64,
    peak_rss_mb: f64,
) -> serde_json::Value {
    serde_json::json!({
        "size": p.size, "policy": p.policy, "rate_per_instance": p.rate,
        "requests": report.total(), "finished": report.finished(),
        "shed": report.shed(), "tokens": report.total_tokens(),
        "goodput_tokens_per_s": report.goodput_tokens_per_sec(),
        "ttft_attainment": report.ttft_attainment(),
        "tbt_attainment": report.tbt_attainment(),
        "prefix_hit_rate": report.prefix_hit_rate(),
        "load_imbalance": report.load_imbalance(),
        "rerouted_on_crash": report.routing.rerouted_on_crash,
        "split_routed": report.routing.split_routed,
        "single_routed": report.routing.single_routed,
        "makespan_s": report.makespan_secs(),
        "events": report.total_events(),
        // Wall-clock cost of the fleet run on the recording host (see
        // `threads`); not replay-stable, unlike every other column.
        "wall_s": wall_s,
        "events_per_wall_s": report.total_events() as f64 / wall_s,
        // The process's peak resident memory while this row ran (rows
        // run one at a time), counting what it still held from earlier
        // rows; like `wall_s`, host-dependent.
        "peak_rss_mb": peak_rss_mb,
        "crashed_instances": p.crash_every.map_or(0, |k| p.size.div_ceil(k)),
        "threads": p.threads,
        // Fleet failover tier: migrated-victim recovery-class split. A
        // migrated victim either re-enters as a full re-prefill
        // (`reprefill_resumes`) or lands on a replica of its session
        // prefix and resumes as a cheap cached prefill
        // (`replica_hit_resumes`). All-zero unless a permanent
        // fail-stop armed the tier (transient-crash sweeps recover
        // locally and never migrate).
        "migrated": report.failover.migrated,
        "migrated_finished": report.failover.migrated_finished,
        "replica_hit_resumes": report.failover.replica_hit,
        "reprefill_resumes": report.failover.reprefill,
        "failover_gave_up": report.failover.gave_up,
        "replicas_pushed": report.replication.replicas_pushed,
        "ejections": report.health.ejections,
    })
}

fn print_row(p: &FleetPoint, report: &FleetReport, wall_s: f64, peak_rss_mb: f64) {
    println!(
        "{:>5} inst  {:<15} rate {:>4.2}/s  goodput {:>9.0} tok/s  ttft-att {:>5.1}%  hit {:>5.1}%  imbal {:>4.2}  reroutes {:>3}  split {:>4}  shed {:>4}  migr {:>3} ({:>2} cached / {:>2} reprefill)  wall {:>6.2} s  peak {:>4.0} MB",
        p.size,
        p.policy,
        p.rate,
        report.goodput_tokens_per_sec(),
        report.ttft_attainment() * 100.0,
        report.prefix_hit_rate() * 100.0,
        report.load_imbalance(),
        report.routing.rerouted_on_crash,
        report.routing.split_routed,
        report.shed(),
        report.failover.migrated,
        report.failover.replica_hit,
        report.failover.reprefill,
        wall_s,
        peak_rss_mb,
    );
}

/// Tiny fleet for CI (`scripts/check.sh fleet-smoke`): asserts zero KV
/// leaks, full fleet-wide request accounting, and thread-count identity.
fn smoke() {
    banner("Fleet smoke");
    let tb = Testbed::llama8b_a100();
    for policy in ["round-robin", "prefix-affinity"] {
        let p = FleetPoint {
            size: 4,
            sessions: 4,
            rate: 0.5,
            policy,
            crash_every: None,
            split_every: Some(4),
            threads: 1,
        };
        let (one, _, _) = run_point(&tb, &p);
        assert_invariants(&format!("smoke/{policy}"), &one);
        let (two, _, _) = run_point(&tb, &FleetPoint { threads: 2, ..p });
        assert_eq!(
            one, two,
            "smoke/{policy}: thread count changed the fleet report"
        );
        println!(
            "{policy:<15}: {} requests, {} finished, {} shed, hit {:.1}% — ok",
            one.total(),
            one.finished(),
            one.shed(),
            one.prefix_hit_rate() * 100.0
        );
    }
    println!("fleet smoke passed");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let tb = Testbed::llama70b_a100();
    let mut rows = Vec::new();

    banner("Fleet sweep — size × policy (Llama-70B / 8xA100 per instance)");
    let sizes = [4usize, 16, 100, 400, 1000];
    for &size in &sizes {
        for policy in ["round-robin", "prefix-affinity"] {
            let p = FleetPoint {
                size,
                sessions: SESSIONS_PER_INSTANCE,
                rate: 0.5,
                policy,
                crash_every: None,
                split_every: None,
                threads: bench::sweep::num_threads(),
            };
            let (report, wall, peak) = run_point(&tb, &p);
            assert_invariants(&format!("{size}/{policy}"), &report);
            print_row(&p, &report, wall, peak);
            let row = row_json(&p, &report, wall, peak);
            save_record("fleet", &row);
            rows.push(row);
        }
    }

    banner("Fleet sweep — arrival rate (16 instances)");
    for rate in [0.25, 1.0] {
        for policy in ["round-robin", "prefix-affinity"] {
            let p = FleetPoint {
                size: 16,
                sessions: SESSIONS_PER_INSTANCE,
                rate,
                policy,
                crash_every: None,
                split_every: None,
                threads: bench::sweep::num_threads(),
            };
            let (report, wall, peak) = run_point(&tb, &p);
            assert_invariants(&format!("rate{rate}/{policy}"), &report);
            print_row(&p, &report, wall, peak);
            let row = row_json(&p, &report, wall, peak);
            save_record("fleet", &row);
            rows.push(row);
        }
    }

    banner("Fleet sweep — crash reroutes (16 instances, every 8th crashes)");
    for policy in ["round-robin", "prefix-affinity"] {
        let p = FleetPoint {
            size: 16,
            sessions: SESSIONS_PER_INSTANCE,
            rate: 0.5,
            policy,
            crash_every: Some(8),
            split_every: None,
            threads: bench::sweep::num_threads(),
        };
        let (report, wall, peak) = run_point(&tb, &p);
        assert_invariants(&format!("crash/{policy}"), &report);
        assert!(
            report.routing.rerouted_on_crash > 0,
            "{policy}: a 10s outage on 2 instances should force reroutes"
        );
        print_row(&p, &report, wall, peak);
        let row = row_json(&p, &report, wall, peak);
        save_record("fleet", &row);
        rows.push(row);
    }

    banner("Fleet sweep — mixed single-node/split paths (16 instances, every 4th split)");
    {
        let p = FleetPoint {
            size: 16,
            sessions: SESSIONS_PER_INSTANCE,
            rate: 0.5,
            policy: "prefix-affinity",
            crash_every: None,
            split_every: Some(4),
            threads: bench::sweep::num_threads(),
        };
        let (report, wall, peak) = run_point(&tb, &p);
        assert_invariants("mixed", &report);
        print_row(&p, &report, wall, peak);
        let row = row_json(&p, &report, wall, peak);
        save_record("fleet", &row);
        rows.push(row);
    }

    // Determinism: the 100-instance headline point must replay
    // bit-identically at any thread count.
    banner("Thread-count replay identity (100 instances)");
    let headline = FleetPoint {
        size: 100,
        sessions: SESSIONS_PER_INSTANCE,
        rate: 0.5,
        policy: "prefix-affinity",
        crash_every: None,
        split_every: None,
        threads: 1,
    };
    let (sequential, _, _) = run_point(&tb, &headline);
    let (threaded, _, _) = run_point(
        &tb,
        &FleetPoint {
            threads: 4,
            ..headline
        },
    );
    let identical = sequential == threaded;
    assert!(identical, "fleet replay diverged across thread counts");
    println!("threads 1 vs 4: identical_results = {identical}");

    // Headline comparison: affinity must beat round-robin on goodput at
    // the largest common grid point.
    let goodput_of = |policy: &str, size: usize| {
        rows.iter()
            .find(|r| {
                r.get("policy").and_then(|v| v.as_str()) == Some(policy)
                    && r.get("size").and_then(|v| v.as_u64()) == Some(size as u64)
                    && r.get("rate_per_instance").and_then(|v| v.as_f64()) == Some(0.5)
            })
            .and_then(|r| r.get("goodput_tokens_per_s"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let rr = goodput_of("round-robin", 100);
    let aff = goodput_of("prefix-affinity", 100);
    println!("\n100-instance goodput: prefix-affinity {aff:.0} tok/s vs round-robin {rr:.0} tok/s");
    assert!(
        aff > rr,
        "prefix-affinity ({aff:.0} tok/s) should beat round-robin ({rr:.0} tok/s)"
    );

    let _ = std::fs::write(
        "BENCH_fleet.json",
        serde_json::to_string(&serde_json::json!({
            "experiment": "fleet",
            "workload": "Conversation sessions",
            "sessions_per_instance": SESSIONS_PER_INSTANCE,
            "think_secs": THINK_SECS,
            "sizes": sizes,
            "identical_results": identical,
            "goodput_100_round_robin": rr,
            "goodput_100_prefix_affinity": aff,
            "rows": rows,
        }))
        .unwrap_or_default(),
    );
    println!(
        "\nExpected shape: prefix-affinity routes session turns back to the instance \
         holding their context, lifting the router hit rate and goodput over \
         round-robin at every fleet size; crash rows show nonzero reroutes with \
         zero lost requests; replay is bit-identical across thread counts."
    );
}
