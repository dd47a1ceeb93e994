//! The fleet harness: one fleet experiment point, built, fed and run
//! the same way by every fleet binary.
//!
//! A [`FleetPoint`] fixes the fleet's size, its session stream and its
//! fault-tolerance tiers; a per-member [`MemberPlan`] picks each
//! member's system, serving path and fault schedule. [`FleetPoint::run`]
//! builds the fleet, draws the stream and routes it through a policy;
//! [`check_books`] asserts what every fleet run must close.

use fleet::{Fleet, FleetReport, HedgeConfig, PathClass, ReplicationConfig, RoutePolicy};
use gpusim::GpuSim;
use serving::{Driver, FaultPlan, WatchdogConfig};
use simcore::SimRng;
use workload::{generate_fleet_stream, WorkloadKind};

use crate::sweep::wall_timed;
use crate::systems::{SystemKind, Testbed};

/// Mean think time between a session's turns, seconds.
pub const THINK_SECS: f64 = 8.0;

/// The fleet-wide fault-tolerance tiers of a point.
#[derive(Debug, Clone, Copy)]
pub struct Tiers {
    /// Cross-instance failover.
    pub failover: bool,
    /// Hot-prefix replication, when set.
    pub replication: Option<ReplicationConfig>,
    /// Hedged dispatch, when set.
    pub hedging: Option<HedgeConfig>,
}

impl Default for Tiers {
    /// [`Fleet::new`]'s tiers: failover on, replication and hedging off.
    fn default() -> Tiers {
        Tiers {
            failover: true,
            replication: None,
            hedging: None,
        }
    }
}

/// One fleet experiment point.
#[derive(Debug, Clone, Copy)]
pub struct FleetPoint {
    /// Members.
    pub size: usize,
    /// Sessions per member in the generated stream.
    pub sessions: usize,
    /// Session arrival rate per member (sessions/second).
    pub rate: f64,
    /// Seed of the session stream.
    pub seed: u64,
    /// Members stepped concurrently between barriers; reports are
    /// bit-identical at any value.
    pub threads: usize,
    /// Fault-tolerance tiers.
    pub tiers: Tiers,
}

/// What one member runs.
pub struct MemberPlan {
    /// Serving system.
    pub kind: SystemKind,
    /// Serving path the router sees.
    pub class: PathClass,
    /// Fault schedule; [`FaultPlan::none`] is a strict no-op.
    pub faults: FaultPlan,
}

/// What one fleet run produced.
pub struct FleetRun {
    /// The fleet's report.
    pub report: FleetReport,
    /// Wall-clock seconds of the fleet run alone (stream generation and
    /// fleet set-up excluded); host-dependent, unlike the report.
    pub wall_s: f64,
    /// The process's peak resident memory while the point ran, set-up
    /// included (MB; 0 where `/proc` is missing); host-dependent.
    pub peak_rss_mb: f64,
}

impl FleetPoint {
    /// Runs the point: builds the fleet with member `i` from `plan(i)`
    /// (each with the driver watchdog on), draws the point's stream of
    /// Conversation sessions and routes it through `policy`.
    ///
    /// Writing `5` to `clear_refs` first resets the kernel's high-water
    /// mark (`VmHWM`) to the current RSS, so the peak covers this point
    /// only, on top of whatever the process already held.
    pub fn run(
        &self,
        tb: &Testbed,
        policy: &mut dyn RoutePolicy,
        plan: impl Fn(usize) -> MemberPlan,
    ) -> FleetRun {
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let trace = generate_fleet_stream(
            WorkloadKind::Conversation,
            self.size,
            self.sessions,
            self.rate,
            THINK_SECS,
            &mut SimRng::seed_from(self.seed),
        );
        let fleet = self.build(tb, plan);
        let (report, wall_s) = wall_timed(|| fleet.run(&trace, policy));
        let peak_kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        FleetRun {
            report,
            wall_s,
            peak_rss_mb: peak_kb / 1024.0,
        }
    }

    fn build(&self, tb: &Testbed, plan: impl Fn(usize) -> MemberPlan) -> Fleet {
        let mut fleet = Fleet::new().with_threads(self.threads);
        if !self.tiers.failover {
            fleet = fleet.without_failover();
        }
        if let Some(cfg) = self.tiers.replication {
            fleet = fleet.with_replication(cfg);
        }
        if let Some(cfg) = self.tiers.hedging {
            fleet = fleet.with_hedging(cfg);
        }
        for i in 0..self.size {
            let member = plan(i);
            let engine = tb
                .build(member.kind)
                .expect("fleet systems fit the testbed");
            let driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
                .with_watchdog(WatchdogConfig::default())
                .with_faults(member.faults);
            let label = format!("{}#{i}", member.kind.name());
            fleet.push(driver, engine, member.class, label);
        }
        fleet
    }
}

/// Asserts the books every fleet run must close: each request finished,
/// shed or cancelled, and no KV lease leaked.
///
/// # Panics
///
/// Panics, naming `label`, when either fails.
pub fn check_books(label: &str, report: &FleetReport) {
    assert_eq!(report.leaked_leases(), 0, "{label}: fleet leaked KV leases");
    assert_eq!(
        report.finished() + report.shed() + report.cancelled(),
        report.total(),
        "{label}: fleet lost requests"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::PrefixAffinity;
    use serving::FaultKind;
    use simcore::{SimDuration, SimTime};

    /// `size` members of `sessions` sessions each at 0.5 sessions/s,
    /// on one thread.
    fn point(size: usize, sessions: usize, tiers: Tiers) -> FleetPoint {
        FleetPoint {
            size,
            sessions,
            rate: 0.5,
            seed: 0xF1EE7,
            threads: 1,
            tiers,
        }
    }

    fn healthy(kind: SystemKind, class: PathClass) -> MemberPlan {
        MemberPlan {
            kind,
            class,
            faults: FaultPlan::none(),
        }
    }

    fn muxwise(_: usize) -> MemberPlan {
        healthy(SystemKind::MuxWise, PathClass::SingleNode)
    }

    /// Member 0 is SGLang-PD on the split path, the rest MuxWise.
    fn mixed(i: usize) -> MemberPlan {
        match i {
            0 => healthy(SystemKind::SglangPd, PathClass::Split),
            _ => muxwise(i),
        }
    }

    /// Members 0 and 1 lose GPU 0 for good at `at_secs`.
    fn wave(at_secs: f64) -> impl Fn(usize) -> MemberPlan {
        move |i| MemberPlan {
            faults: if i < 2 {
                FaultPlan::single(
                    FaultKind::GpuFailStopPermanent { gpu: 0 },
                    SimTime::from_secs(at_secs),
                    SimTime::from_secs(1e9),
                )
            } else {
                FaultPlan::none()
            },
            ..muxwise(i)
        }
    }

    /// Members 0 and 1 run 20x slow kernels from 15 s to 105 s.
    fn gray(i: usize) -> MemberPlan {
        MemberPlan {
            faults: if i < 2 {
                FaultPlan::single(
                    FaultKind::KernelLatencySpike {
                        mult: 20.0,
                        duration: SimDuration::from_secs(90.0),
                    },
                    SimTime::from_secs(15.0),
                    SimTime::from_secs(105.0),
                )
            } else {
                FaultPlan::none()
            },
            ..muxwise(i)
        }
    }

    fn run(point: &FleetPoint, plan: impl Fn(usize) -> MemberPlan) -> FleetReport {
        let tb = Testbed::llama8b_a100();
        point.run(&tb, &mut PrefixAffinity::default(), plan).report
    }

    fn victims(report: &FleetReport) -> u64 {
        report
            .reports
            .iter()
            .map(|r| r.recovery.crash_victims)
            .sum()
    }

    fn r2() -> ReplicationConfig {
        ReplicationConfig {
            factor: 2,
            top_k: 16,
            sweep_every: 4,
            ..ReplicationConfig::default()
        }
    }

    #[test]
    fn run_is_thread_count_invariant() {
        let one = point(4, 4, Tiers::default());
        let three = FleetPoint { threads: 3, ..one };
        assert_eq!(run(&one, mixed), run(&three, mixed));
    }

    #[test]
    fn the_seed_fixes_the_stream() {
        let p = point(3, 4, Tiers::default());
        let other = FleetPoint { seed: 7, ..p };
        let report = run(&p, muxwise);
        assert_eq!(report, run(&p, muxwise));
        assert_ne!(report, run(&other, muxwise));
    }

    #[test]
    fn every_member_is_offered_the_drawn_stream() {
        let p = point(3, 4, Tiers::default());
        let stream = generate_fleet_stream(
            WorkloadKind::Conversation,
            3,
            4,
            0.5,
            THINK_SECS,
            &mut SimRng::seed_from(p.seed),
        );
        let report = run(&p, muxwise);
        assert_eq!(report.total(), stream.len());
        assert_eq!(report.routed.iter().sum::<u64>(), stream.len() as u64);
        check_books("stream", &report);
    }

    #[test]
    fn default_tiers_build_what_fleet_new_builds() {
        // Default tiers add nothing to a bare `Fleet::new` of the same
        // watchdog-guarded members fed the same stream.
        let tb = Testbed::llama8b_a100();
        let p = point(3, 4, Tiers::default());
        let mut fleet = Fleet::new();
        for i in 0..p.size {
            let member = mixed(i);
            let engine = tb.build(member.kind).expect("fits");
            let driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
                .with_watchdog(WatchdogConfig::default());
            fleet.push(driver, engine, member.class, format!("member {i}"));
        }
        let stream = generate_fleet_stream(
            WorkloadKind::Conversation,
            3,
            4,
            0.5,
            THINK_SECS,
            &mut SimRng::seed_from(p.seed),
        );
        let mut bare = fleet.run(&stream, &mut PrefixAffinity::default());
        let mut harnessed = run(&p, mixed);
        bare.labels.clear();
        harnessed.labels.clear();
        assert_eq!(harnessed, bare);
    }

    #[test]
    fn members_are_labelled_by_system_and_index() {
        let report = run(&point(3, 2, Tiers::default()), mixed);
        assert_eq!(report.labels, ["SGLang-PD#0", "MuxWise#1", "MuxWise#2"]);
        assert_eq!(report.reports.len(), 3);
        assert_eq!(report.events.len(), 3);
    }

    #[test]
    fn split_members_take_the_split_path() {
        let p = point(4, 4, Tiers::default());
        let both = run(&p, mixed).routing;
        assert!(both.split_routed > 0 && both.single_routed > 0);
        let single = run(&p, muxwise).routing;
        assert_eq!(single.split_routed, 0);
        assert_eq!(single.single_routed, single.requests);
    }

    #[test]
    fn healthy_plans_leave_every_fault_tier_idle() {
        let tiers = Tiers {
            failover: true,
            replication: Some(r2()),
            hedging: Some(HedgeConfig::default()),
        };
        let report = run(&point(4, 4, tiers), muxwise);
        assert_eq!(report.failover, Default::default());
        assert_eq!(report.replication, Default::default());
        assert_eq!(report.health, Default::default());
        assert_eq!(report.hedge, Default::default());
        assert_eq!(report.overload, Default::default());
        assert_eq!(report.routing.rerouted_on_crash, 0);
        assert_eq!(report.finished(), report.total());
    }

    #[test]
    fn failover_migrates_the_victims_of_a_permanent_crash() {
        let report = run(&point(4, 8, Tiers::default()), wave(3.0));
        let victims = victims(&report);
        assert!(victims > 0, "the crash at 3 s strikes in-flight requests");
        assert_eq!(report.failover.migrated, victims);
        assert_eq!(report.failover.stranded, 0);
        check_books("failover", &report);
    }

    #[test]
    fn without_failover_the_victims_are_stranded_and_shed() {
        let tiers = Tiers {
            failover: false,
            ..Tiers::default()
        };
        let report = run(&point(4, 8, tiers), wave(3.0));
        let victims = victims(&report);
        assert!(victims > 0, "the crash at 3 s strikes in-flight requests");
        assert_eq!(report.failover.migrated, 0);
        assert_eq!(report.failover.stranded, victims);
        assert_eq!(report.shed() as u64, victims);
        check_books("failover-off", &report);
    }

    #[test]
    fn replication_pushes_replicas_only_when_set() {
        let p = point(4, 8, Tiers::default());
        let on = FleetPoint {
            tiers: Tiers {
                replication: Some(r2()),
                ..p.tiers
            },
            ..p
        };
        assert!(run(&on, wave(25.0)).replication.replicas_pushed > 0);
        assert_eq!(run(&p, wave(25.0)).replication, Default::default());
    }

    #[test]
    fn hedging_races_slow_members_only_when_set() {
        let p = point(4, 8, Tiers::default());
        let on = FleetPoint {
            tiers: Tiers {
                hedging: Some(HedgeConfig::default()),
                ..p.tiers
            },
            ..p
        };
        let hedged = run(&on, gray);
        assert!(hedged.hedge.launched > 0);
        assert!(hedged.cancelled() > 0, "the losing copies are cancelled");
        check_books("hedged", &hedged);
        let plain = run(&p, gray);
        assert_eq!(plain.hedge, Default::default());
        assert_eq!(plain.cancelled(), 0);
    }

    #[test]
    #[should_panic(expected = "lost: fleet lost requests")]
    fn books_name_a_lost_request() {
        let mut report = run(&point(2, 2, Tiers::default()), muxwise);
        report.reports[1].total += 1;
        check_books("lost", &report);
    }

    #[test]
    #[should_panic(expected = "leak: fleet leaked KV leases")]
    fn books_name_a_leaked_lease() {
        let mut report = run(&point(2, 2, Tiers::default()), muxwise);
        report.reports[0].counters.leaked_leases = 1;
        check_books("leak", &report);
    }
}
