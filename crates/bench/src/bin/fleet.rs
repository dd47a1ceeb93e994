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
//! robustness invariants (the books of
//! [`bench::fleet_harness::check_books`], thread-count identity) —
//! wired into `scripts/check.sh` as `fleet-smoke`.

use bench::fleet_harness::{check_books, FleetPoint, FleetRun, MemberPlan, Tiers, THINK_SECS};
use bench::sweep::num_threads;
use bench::systems::{SystemKind, Testbed};
use bench::{banner, save_record};
use fleet::{FleetReport, PathClass, PrefixAffinity, RoundRobin, RoutePolicy};
use serving::FaultPlan;
use simcore::{SimDuration, SimTime};

const SEED: u64 = 0xF1EE7;
/// Sessions per instance in the global stream (each session is
/// multi-turn, so later turns carry reusable context). High enough that
/// a router which re-prefills session context from scratch pays for it
/// in queueing delay.
const SESSIONS_PER_INSTANCE: usize = 16;
const POLICIES: [&str; 2] = ["round-robin", "prefix-affinity"];

/// One fleet configuration to run: a point, its router policy and its
/// member mix.
#[derive(Clone, Copy)]
struct Row {
    point: FleetPoint,
    policy: &'static str,
    /// Every k-th instance gets a GPU fail-stop mid-trace.
    crash_every: Option<usize>,
    /// Every k-th instance is an SGLang-PD split-path instance.
    split_every: Option<usize>,
}

impl Row {
    /// A row of `size` members at `rate` under `policy`, on every
    /// thread, with no crashes and no split members.
    fn new(size: usize, rate: f64, policy: &'static str) -> Row {
        Row {
            point: FleetPoint {
                size,
                sessions: SESSIONS_PER_INSTANCE,
                rate,
                seed: SEED,
                threads: num_threads(),
                tiers: Tiers::default(),
            },
            policy,
            crash_every: None,
            split_every: None,
        }
    }

    fn member(&self, tb: &Testbed, i: usize) -> MemberPlan {
        let split = self.split_every.is_some_and(|k| i.is_multiple_of(k));
        let (kind, class) = if split {
            (SystemKind::SglangPd, PathClass::Split)
        } else {
            (SystemKind::MuxWise, PathClass::SingleNode)
        };
        let faults = if self.crash_every.is_some_and(|k| i.is_multiple_of(k)) {
            // Stagger the failing device across instances so reroutes are
            // not all identical.
            FaultPlan::crash(
                (i as u32) % tb.cluster.num_gpus,
                SimTime::from_secs(5.0),
                SimDuration::from_secs(10.0),
            )
        } else {
            FaultPlan::none()
        };
        MemberPlan {
            kind,
            class,
            faults,
        }
    }

    fn run(&self, tb: &Testbed) -> FleetRun {
        let mut policy = make_policy(self.policy);
        self.point.run(tb, policy.as_mut(), |i| self.member(tb, i))
    }
}

fn make_policy(name: &str) -> Box<dyn RoutePolicy> {
    match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "prefix-affinity" => Box::new(PrefixAffinity::default()),
        other => panic!("unknown policy {other}"),
    }
}

fn row_json(row: &Row, run: &FleetRun) -> serde_json::Value {
    let (p, report) = (&row.point, &run.report);
    serde_json::json!({
        "size": p.size, "policy": row.policy, "rate_per_instance": p.rate,
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
        "wall_s": run.wall_s,
        "events_per_wall_s": report.total_events() as f64 / run.wall_s,
        // The process's peak resident memory while this row ran (rows
        // run one at a time), counting what it still held from earlier
        // rows; like `wall_s`, host-dependent.
        "peak_rss_mb": run.peak_rss_mb,
        "crashed_instances": row.crash_every.map_or(0, |k| p.size.div_ceil(k)),
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

fn print_row(row: &Row, run: &FleetRun) {
    let report = &run.report;
    println!(
        "{:>5} inst  {:<15} rate {:>4.2}/s  goodput {:>9.0} tok/s  ttft-att {:>5.1}%  hit {:>5.1}%  imbal {:>4.2}  reroutes {:>3}  split {:>4}  shed {:>4}  migr {:>3} ({:>2} cached / {:>2} reprefill)  wall {:>6.2} s  peak {:>4.0} MB",
        row.point.size,
        row.policy,
        row.point.rate,
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
        run.wall_s,
        run.peak_rss_mb,
    );
}

/// Runs one sweep row, checks its books, prints it, and appends it to
/// `rows` and to `results/fleet.jsonl`.
fn sweep_row(
    tb: &Testbed,
    row: Row,
    label: &str,
    rows: &mut Vec<serde_json::Value>,
) -> FleetReport {
    let run = row.run(tb);
    check_books(label, &run.report);
    print_row(&row, &run);
    let json = row_json(&row, &run);
    save_record("fleet", &json);
    rows.push(json);
    run.report
}

/// Tiny fleet for CI (`scripts/check.sh fleet-smoke`): asserts zero KV
/// leaks, full fleet-wide request accounting, and thread-count identity.
fn smoke() {
    banner("Fleet smoke");
    let tb = Testbed::llama8b_a100();
    for policy in POLICIES {
        let mut p = Row::new(4, 0.5, policy);
        p.point.sessions = 4;
        p.point.threads = 1;
        p.split_every = Some(4);
        let one = p.run(&tb).report;
        check_books(&format!("smoke/{policy}"), &one);
        p.point.threads = 2;
        assert_eq!(
            one,
            p.run(&tb).report,
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
        for policy in POLICIES {
            let row = Row::new(size, 0.5, policy);
            sweep_row(&tb, row, &format!("{size}/{policy}"), &mut rows);
        }
    }

    banner("Fleet sweep — arrival rate (16 instances)");
    for rate in [0.25, 1.0] {
        for policy in POLICIES {
            let row = Row::new(16, rate, policy);
            sweep_row(&tb, row, &format!("rate{rate}/{policy}"), &mut rows);
        }
    }

    banner("Fleet sweep — crash reroutes (16 instances, every 8th crashes)");
    for policy in POLICIES {
        let row = Row {
            crash_every: Some(8),
            ..Row::new(16, 0.5, policy)
        };
        let report = sweep_row(&tb, row, &format!("crash/{policy}"), &mut rows);
        assert!(
            report.routing.rerouted_on_crash > 0,
            "{policy}: a 10s outage on 2 instances should force reroutes"
        );
    }

    banner("Fleet sweep — mixed single-node/split paths (16 instances, every 4th split)");
    let row = Row {
        split_every: Some(4),
        ..Row::new(16, 0.5, "prefix-affinity")
    };
    sweep_row(&tb, row, "mixed", &mut rows);

    // Determinism: the 100-instance headline point must replay
    // bit-identically at any thread count.
    banner("Thread-count replay identity (100 instances)");
    let mut headline = Row::new(100, 0.5, "prefix-affinity");
    headline.point.threads = 1;
    let sequential = headline.run(&tb).report;
    headline.point.threads = 4;
    let identical = sequential == headline.run(&tb).report;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kth_member_is_a_split_path_sglang_pd() {
        let tb = Testbed::llama8b_a100();
        let row = Row {
            split_every: Some(4),
            ..Row::new(8, 0.5, "round-robin")
        };
        for i in 0..8 {
            let member = row.member(&tb, i);
            let split = i.is_multiple_of(4);
            assert_eq!(member.kind == SystemKind::SglangPd, split, "member {i}");
            assert_eq!(member.class == PathClass::Split, split, "member {i}");
            assert_eq!(member.faults, FaultPlan::none(), "member {i}");
        }
    }

    #[test]
    fn crashing_members_rotate_the_failing_gpu() {
        let tb = Testbed::llama8b_a100();
        let row = Row {
            crash_every: Some(3),
            ..Row::new(10, 0.5, "round-robin")
        };
        for i in 0..10usize {
            let want = if i.is_multiple_of(3) {
                FaultPlan::crash(
                    i as u32 % 8,
                    SimTime::from_secs(5.0),
                    SimDuration::from_secs(10.0),
                )
            } else {
                FaultPlan::none()
            };
            assert_eq!(row.member(&tb, i).faults, want, "member {i}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown policy random")]
    fn an_unknown_policy_is_refused() {
        make_policy("random");
    }
}
