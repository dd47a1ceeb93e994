//! Crash failover orchestration.
//!
//! When a [`FaultKind::GpuFailStop`](crate::faults::FaultKind) window
//! opens, the driver kills the device in the [`gpusim`] model and asks
//! the scheduler (via [`Scheduler::on_gpu_lost`](crate::driver::Scheduler))
//! to revoke everything homed on it. The scheduler releases the victims'
//! KV leases, moves them back to `Queued`, and reports each one as a
//! [`CrashVictim`]. The [`RecoveryManager`] then owns the rest of the
//! story: it schedules re-injection with exponential backoff, enforces a
//! retry budget, gives up (sheds) when a victim's TTFT deadline has
//! already passed, and accounts the outcome into [`RecoveryStats`].
//!
//! Two recovery classes exist (DistServe-style re-materialization vs.
//! LoongServe-style elastic migration):
//!
//! - [`RecoveryClass::ReprefillFull`] — the victim's accumulated context
//!   (prompt + generated tokens) must be re-prefilled from scratch on a
//!   survivor. Decode victims always fall in this class; the burned
//!   tokens are charged to [`RecoveryStats::reprefill_tokens`].
//! - [`RecoveryClass::ResumeFromLayer`] — engines with layer-granular
//!   prefill checkpoints (MuxWise) restart a prefill victim from its
//!   last completed layer, so no token work is re-burned.
//!
//! The manager is a strict no-op on crash-free plans: the driver only
//! instantiates it when [`crate::faults::FaultPlan::has_fail_stop`] is
//! true, so healthy runs stay byte-identical to their pre-recovery
//! golden reports.
//!
//! Interplay with hedged dispatch (`fleet::hedge`): a victim may also be
//! a hedged copy that loses its race and gets
//! [`Instance::cancel`](crate::instance::Instance::cancel)led while a
//! requeue is pending. Cancelled victims are treated exactly like shed
//! ones — pending requeues become no-ops, and the finalize pass never
//! counts a cancelled copy's drained completion as `recovered` (the
//! instance passes a cancel-aware finished predicate).

use crate::metrics::RecoveryStats;
use crate::request::ReqId;
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;
use workload::RequestSpec;

/// A crash victim packaged for cross-instance failover: everything the
/// fleet tier needs to re-admit the request on a healthy member via
/// [`Instance::admit`](crate::instance::Instance::admit).
#[derive(Debug, Clone)]
pub struct MigratableVictim {
    /// The request spec as originally admitted (`arrival` is rewritten
    /// to the migration instant by the fleet before re-admission).
    pub spec: RequestSpec,
    /// When the crash that victimized it struck (drain order key, and
    /// the start of the fleet-level failover latency sample).
    pub crash_time: SimTime,
    /// Output tokens the origin instance had already delivered; zero
    /// means the victim's TTFT clock is still running and the fleet's
    /// deadline give-up applies.
    pub tokens_emitted: u64,
}

/// How a crash victim's lost state is re-materialized on a survivor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryClass {
    /// Re-prefill the full accumulated context (prompt + generated
    /// tokens so far) on a surviving device.
    ReprefillFull,
    /// Restart prefill from the last completed layer checkpoint; only
    /// engines with layer-granular prefill (MuxWise, TemporalMux)
    /// produce this class.
    ResumeFromLayer(u32),
}

/// One request revoked by a GPU fail-stop, as reported by
/// [`Scheduler::on_gpu_lost`](crate::driver::Scheduler::on_gpu_lost).
#[derive(Debug, Clone, Copy)]
pub struct CrashVictim {
    /// The revoked request.
    pub id: ReqId,
    /// How its lost KV state will be rebuilt.
    pub class: RecoveryClass,
    /// Tokens of KV state lost with the device (re-prefill cost for
    /// [`RecoveryClass::ReprefillFull`]; zero burned for resumable
    /// victims).
    pub lost_tokens: u64,
}

impl CrashVictim {
    /// A victim whose `lost_tokens` of context must be re-prefilled in
    /// full ([`RecoveryClass::ReprefillFull`]).
    pub fn reprefill(id: ReqId, lost_tokens: u64) -> CrashVictim {
        CrashVictim {
            id,
            class: RecoveryClass::ReprefillFull,
            lost_tokens,
        }
    }
}

/// The give-up rule of crash retries, local re-injection
/// ([`crate::Instance`]) and fleet re-placement alike: a victim is given
/// up once its `attempts` exceed the retry `budget`, or once it has
/// emitted no token and `now` has reached its TTFT `deadline`, counted
/// from its original arrival.
pub fn gives_up(
    attempts: u32,
    budget: u32,
    tokens_emitted: u64,
    deadline: SimTime,
    now: SimTime,
) -> bool {
    attempts > budget || (tokens_emitted == 0 && now >= deadline)
}

/// Per-victim retry bookkeeping.
#[derive(Debug, Clone, Copy)]
struct VictimState {
    /// Wall-clock instant of the crash that first revoked the request.
    crash_time: SimTime,
    /// Re-injection attempts made so far (0 = none yet).
    attempts: u32,
}

/// Driver-side failover orchestrator. Tracks crash victims from
/// revocation to re-admission (or give-up), applying exponential
/// backoff and a retry budget, and accumulates [`RecoveryStats`].
#[derive(Debug, Default)]
pub struct RecoveryManager {
    victims: HashMap<ReqId, VictimState>,
    /// Ids re-injected at least once; a victim in here that finishes
    /// counts as recovered.
    reinjected: HashMap<ReqId, SimTime>,
    /// Aggregate outcomes, folded into the report at end of run.
    pub stats: RecoveryStats,
}

impl RecoveryManager {
    /// Creates an empty manager.
    pub fn new() -> RecoveryManager {
        RecoveryManager::default()
    }

    /// Registers a freshly revoked victim and returns the absolute time
    /// of its first re-injection attempt (`now + backoff`). A request
    /// revoked by a second crash while already tracked keeps its
    /// original crash time (failover latency spans the whole ordeal)
    /// but its attempt counter continues counting against the budget.
    pub fn on_victim(&mut self, v: &CrashVictim, now: SimTime, backoff: SimDuration) -> SimTime {
        let st = self.victims.entry(v.id).or_insert(VictimState {
            crash_time: now,
            attempts: 0,
        });
        if st.attempts == 0 && !self.reinjected.contains_key(&v.id) {
            self.stats.crash_victims += 1;
        }
        if let RecoveryClass::ReprefillFull = v.class {
            self.stats.reprefill_tokens += v.lost_tokens;
        }
        st.attempts += 1;
        now.saturating_add(backoff.doubled(st.attempts.saturating_sub(1).min(16)))
    }

    /// Whether `id` is a tracked crash victim awaiting re-injection.
    pub fn is_pending(&self, id: ReqId) -> bool {
        self.victims.contains_key(&id)
    }

    /// Number of re-injection attempts already charged against `id`.
    pub fn attempts(&self, id: ReqId) -> u32 {
        self.victims.get(&id).map_or(0, |s| s.attempts)
    }

    /// Marks a successful re-injection: records the failover latency
    /// sample (revocation → re-admission) and stops tracking the
    /// victim as pending.
    pub fn on_reinjected(&mut self, id: ReqId, now: SimTime) {
        if let Some(st) = self.victims.remove(&id) {
            self.stats
                .failover
                .record(now.since(st.crash_time).as_secs());
            self.reinjected.insert(id, st.crash_time);
        }
    }

    /// Gives up on a victim (budget exhausted or deadline passed); it
    /// is accounted as shed-on-crash rather than recovered.
    pub fn on_gave_up(&mut self, id: ReqId) {
        self.victims.remove(&id);
        self.reinjected.remove(&id);
        self.stats.shed_on_crash += 1;
    }

    /// Lists victims eligible for cross-instance migration, sorted by
    /// `(crash_time, id)` so the fleet drains them in deterministic
    /// crash-time order. Pending victims (awaiting their local requeue)
    /// are always safe to take — removing them makes the queued requeue
    /// event a no-op. Reinjected-but-unfinished victims sit buffered
    /// inside the engine behind a dead group; they are only safe to
    /// take when that group can never come back, so callers pass
    /// `include_reinjected` only for permanently crashed members.
    pub fn drainable(&self, include_reinjected: bool) -> Vec<(ReqId, SimTime)> {
        let mut out: Vec<(ReqId, SimTime)> =
            // simlint: allow(R1) reason="collected then totally ordered by (crash_time, id) before return; hash order never escapes"
            self.victims.iter().map(|(&id, st)| (id, st.crash_time)).collect();
        if include_reinjected {
            // simlint: allow(R1) reason="feeds the same sort below; hash order never escapes"
            out.extend(self.reinjected.iter().map(|(&id, &ct)| (id, ct)));
        }
        out.sort_by_key(|&(id, ct)| (ct, id));
        out
    }

    /// Forgets a victim handed off to another instance: it no longer
    /// counts toward this instance's recovered/shed split (the fleet
    /// accounts the migrated copy) and any queued requeue event for it
    /// becomes a no-op.
    pub fn on_migrated_out(&mut self, id: ReqId) {
        self.victims.remove(&id);
        self.reinjected.remove(&id);
        self.stats.migrated_out += 1;
    }

    /// Folds terminal outcomes into the stats: every re-injected victim
    /// for which `finished(id)` holds counts as recovered; re-injected
    /// victims that never finished (run ended, later shed by the
    /// watchdog, …) count as shed-on-crash, as do victims still pending
    /// when the run drains.
    pub fn finalize(&mut self, mut finished: impl FnMut(ReqId) -> bool) {
        // simlint: allow(R1) reason="pure integer counter fold; += is commutative so visit order cannot reach the replayed state"
        for (&id, _) in self.reinjected.iter() {
            if finished(id) {
                self.stats.recovered += 1;
            } else {
                self.stats.shed_on_crash += 1;
            }
        }
        // simlint: allow(R1) reason="pure integer counter fold; += is commutative so visit order cannot reach the replayed state"
        for (&id, _) in self.victims.iter() {
            if !self.reinjected.contains_key(&id) && finished(id) {
                // Revoked after its last token was already delivered —
                // nothing was lost; count it recovered.
                self.stats.recovered += 1;
            } else if !self.reinjected.contains_key(&id) {
                self.stats.shed_on_crash += 1;
            }
        }
        self.victims.clear();
        self.reinjected.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn victim(id: ReqId) -> CrashVictim {
        CrashVictim::reprefill(id, 100)
    }

    #[test]
    fn gives_up_past_the_budget_or_a_tokenless_deadline() {
        let (deadline, before) = (t(30.0), t(29.999));
        assert!(!gives_up(3, 3, 0, deadline, before));
        assert!(gives_up(4, 3, 0, deadline, before));
        assert!(gives_up(4, 3, 5, deadline, before));
        // The deadline binds only while no token has been emitted, and
        // from the deadline instant itself on.
        assert!(gives_up(1, 3, 0, deadline, deadline));
        assert!(!gives_up(1, 3, 1, deadline, t(60.0)));
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let mut m = RecoveryManager::new();
        let b = SimDuration::from_secs(0.25);
        assert_eq!(m.on_victim(&victim(1), t(10.0), b), t(10.25));
        // Second crash of the same request: next attempt backs off 2x.
        assert_eq!(m.on_victim(&victim(1), t(11.0), b), t(11.5));
        assert_eq!(m.attempts(1), 2);
        assert_eq!(m.stats.crash_victims, 1, "counted once per request");
        assert_eq!(m.stats.reprefill_tokens, 200);
    }

    #[test]
    fn resume_from_layer_burns_no_tokens() {
        let mut m = RecoveryManager::new();
        let v = CrashVictim {
            id: 2,
            class: RecoveryClass::ResumeFromLayer(17),
            lost_tokens: 512,
        };
        m.on_victim(&v, t(1.0), SimDuration::from_secs(0.25));
        assert_eq!(m.stats.reprefill_tokens, 0);
    }

    #[test]
    fn drainable_sorts_by_crash_time_then_id() {
        let mut m = RecoveryManager::new();
        let b = SimDuration::from_secs(0.25);
        m.on_victim(&victim(7), t(2.0), b);
        m.on_victim(&victim(3), t(1.0), b);
        m.on_victim(&victim(5), t(1.0), b);
        m.on_reinjected(5, t(1.5));
        assert_eq!(m.drainable(false), vec![(3, t(1.0)), (7, t(2.0))]);
        assert_eq!(
            m.drainable(true),
            vec![(3, t(1.0)), (5, t(1.0)), (7, t(2.0))]
        );
        m.on_migrated_out(3);
        m.on_migrated_out(5);
        assert_eq!(m.drainable(true), vec![(7, t(2.0))]);
        assert_eq!(m.stats.migrated_out, 2);
        assert!(!m.is_pending(3));
        // Migrated victims are the fleet's problem now: finalize must
        // not double-account them as locally recovered or shed.
        m.on_gave_up(7);
        m.finalize(|_| false);
        assert_eq!(m.stats.recovered, 0);
        assert_eq!(m.stats.shed_on_crash, 1);
    }

    #[test]
    fn finalize_splits_recovered_and_shed() {
        let mut m = RecoveryManager::new();
        let b = SimDuration::from_secs(0.25);
        m.on_victim(&victim(1), t(1.0), b);
        m.on_victim(&victim(2), t(1.0), b);
        m.on_victim(&victim(3), t(1.0), b);
        m.on_reinjected(1, t(2.0));
        m.on_reinjected(2, t(3.0));
        m.on_gave_up(3);
        m.finalize(|id| id == 1);
        assert_eq!(m.stats.crash_victims, 3);
        assert_eq!(m.stats.recovered, 1);
        assert_eq!(m.stats.shed_on_crash, 2);
        assert_eq!(m.stats.failover.len(), 2);
        assert!((m.stats.failover.max() - 2.0).abs() < 1e-9);
    }
}
