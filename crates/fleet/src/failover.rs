//! Cross-instance failover: migrating crash victims between members.
//!
//! When the health tracker ejects a member, the fleet drains its
//! unresolved [`serving::MigratableVictim`]s (pending ones anywhere;
//! reinjected-but-buffered ones only off permanently crashed members,
//! where the local copy can never run again) and re-admits them on
//! healthy members via [`serving::Instance::admit`]. The
//! [`FailoverEngine`] owns the fleet-level half of that story: a
//! migration queue ordered by `(due, seq)`, a per-request retry budget
//! with exponential backoff when no routable target exists, and a
//! TTFT-deadline give-up measured against the victim's *original*
//! arrival — all accounted in [`FailoverStats`], separately from each
//! member's local [`serving::RecoveryStats`].
//!
//! Determinism: drains happen in `(crash_time, id)` order, the queue is
//! totally ordered by `(due, seq)`, and target picking
//! ([`pick_migration_target`]) orders members over the same
//! [`InstanceSignals`] snapshot the router reads — lowest index wins
//! ties. Nothing here reads wall clocks or unordered maps.

use std::collections::BTreeMap;

use serving::{gives_up, MigratableVictim, ReqId};
use simcore::stats::Summary;
use simcore::{SimDuration, SimTime};

use crate::router::{most_cached_member, InstanceSignals};

/// Fleet-level failover knobs.
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// Migration attempts per victim before the fleet gives up (each
    /// attempt that finds no routable target burns one).
    pub retry_budget: u32,
    /// Base re-placement backoff; doubles per failed attempt.
    pub backoff: SimDuration,
    /// Give-up bound: a victim that has produced no tokens and whose
    /// *original* arrival plus this deadline has passed is not worth
    /// migrating — the client is gone.
    pub ttft_deadline: SimDuration,
    /// Cadence of the failover patrol: the deterministic tick at which
    /// members are observed, ejected members drained, and due
    /// migrations executed, even between arrivals.
    pub patrol: SimDuration,
    /// A migrated victim whose target already holds at least this
    /// fraction of its context counts as a replica-hit cached resume
    /// rather than a `ReprefillFull`.
    pub replica_hit_fraction: f64,
}

impl Default for FailoverConfig {
    fn default() -> FailoverConfig {
        FailoverConfig {
            retry_budget: 3,
            backoff: SimDuration::from_secs(0.5),
            ttft_deadline: SimDuration::from_secs(30.0),
            patrol: SimDuration::from_secs(0.5),
            replica_hit_fraction: 0.5,
        }
    }
}

/// Fleet-level failover outcomes, folded into the fleet report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailoverStats {
    /// Victims drained off ejected members.
    pub drained: u64,
    /// Victims re-admitted on another member.
    pub migrated: u64,
    /// Drained victims the fleet gave up on (deadline passed or retry
    /// budget exhausted with no routable target).
    pub gave_up: u64,
    /// Migrated victims whose target held enough replicated prefix to
    /// resume as a cached prefill.
    pub replica_hit: u64,
    /// Migrated victims that re-entered as a full re-prefill.
    pub reprefill: u64,
    /// Migrated victims that went on to finish on their target.
    pub migrated_finished: u64,
    /// Migrated victims that did not finish on their target (shed there,
    /// or the target crashed too and the retry chain ran out).
    pub migrated_shed: u64,
    /// Crash → re-admission latency samples, seconds.
    pub migration_delay: Summary,
    /// Requests still unresolved on some member when the fleet drained,
    /// closed as shed at run end (`Instance::shed_unresolved`) — work
    /// stranded where nothing would ever run it. Zero whenever failover
    /// drained every permanently crashed member.
    pub stranded: u64,
}

/// One queued migration attempt.
#[derive(Debug)]
struct PendingMigration {
    due: SimTime,
    seq: u64,
    victim: MigratableVictim,
}

/// Picks a migration target: the routable member holding the most of
/// the victim's prefix, queue depth breaking ties, lowest index breaking
/// the rest (`most_cached_member`). Returns `None` when no member is
/// routable.
pub fn pick_migration_target(signals: &[InstanceSignals]) -> Option<usize> {
    most_cached_member(signals, |_, _| true)
}

/// The fleet's migration queue plus patrol schedule. Constructed only
/// when some member schedules a fail-stop — crash-free fleets never
/// instantiate one, keeping their barrier sequence byte-identical to
/// the pre-failover tier.
#[derive(Debug)]
pub struct FailoverEngine {
    cfg: FailoverConfig,
    pending: Vec<PendingMigration>,
    next_patrol: SimTime,
    patrol_end: SimTime,
    seq: u64,
    /// Fleet-level migration attempts per global request id.
    attempts: BTreeMap<u64, u32>,
    /// Original arrival per global request id, captured at first drain
    /// (re-admission rewrites `spec.arrival`, but the give-up deadline
    /// stays anchored to the client's real arrival).
    original_arrival: BTreeMap<u64, SimTime>,
    /// Where each migrated request currently lives:
    /// `global id → (member index, local id)`. Last placement wins.
    placements: BTreeMap<u64, (usize, ReqId)>,
    /// Aggregate outcomes.
    pub stats: FailoverStats,
}

impl FailoverEngine {
    /// A quiescent engine whose patrol runs from the first tick until
    /// `patrol_end` (past the last scheduled fail-stop plus the worst
    /// eject/backoff chain, computed by the fleet).
    pub fn new(cfg: FailoverConfig, patrol_end: SimTime) -> FailoverEngine {
        FailoverEngine {
            cfg,
            pending: Vec::new(),
            next_patrol: SimTime::ZERO + cfg.patrol,
            patrol_end,
            seq: 0,
            attempts: BTreeMap::new(),
            original_arrival: BTreeMap::new(),
            placements: BTreeMap::new(),
            stats: FailoverStats::default(),
        }
    }

    /// The next instant the fleet must wake this engine: the earliest
    /// due migration or the next patrol tick (while the patrol window is
    /// open). `None` once both are exhausted — the fleet may drain.
    pub fn next_wake(&self) -> Option<SimTime> {
        let t_mig = self.pending.first().map(|p| p.due);
        let t_patrol = (self.next_patrol <= self.patrol_end).then_some(self.next_patrol);
        match (t_mig, t_patrol) {
            (Some(m), Some(p)) => Some(m.min(p)),
            (m, p) => m.or(p),
        }
    }

    /// Advances the patrol schedule past `now`.
    pub fn advance_patrol(&mut self, now: SimTime) {
        while self.next_patrol <= now {
            self.next_patrol += self.cfg.patrol;
        }
    }

    /// Accepts victims drained off a member; each is queued for an
    /// immediate placement attempt at `now` (the drain barrier), in
    /// drain order.
    pub fn enqueue_drained(&mut self, victims: Vec<MigratableVictim>, now: SimTime) {
        for v in victims {
            self.stats.drained += 1;
            self.original_arrival
                .entry(v.spec.id)
                .or_insert(v.spec.arrival);
            self.push_pending(now, v);
        }
    }

    /// Pops every migration due at or before `now`, in `(due, seq)`
    /// order.
    pub fn take_due(&mut self, now: SimTime) -> Vec<MigratableVictim> {
        let n = self.pending.partition_point(|p| p.due <= now);
        self.pending.drain(..n).map(|p| p.victim).collect()
    }

    /// Handles a placement attempt that found no routable target:
    /// burns one attempt and either reschedules with exponential
    /// backoff or gives up by [`serving::gives_up`] (budget exhausted,
    /// or the victim is tokenless and past its original TTFT deadline —
    /// the books were already closed at drain time, so giving up is pure
    /// accounting).
    pub fn no_target(&mut self, victim: MigratableVictim, now: SimTime) {
        let attempts = self.attempts.entry(victim.spec.id).or_insert(0);
        *attempts += 1;
        let deadline = self
            .original_arrival
            .get(&victim.spec.id)
            .copied()
            .unwrap_or(victim.spec.arrival)
            + self.cfg.ttft_deadline;
        if gives_up(
            *attempts,
            self.cfg.retry_budget,
            victim.tokens_emitted,
            deadline,
            now,
        ) {
            self.stats.gave_up += 1;
            return;
        }
        let due = now.saturating_add(self.cfg.backoff.doubled(attempts.saturating_sub(1).min(16)));
        self.push_pending(due, victim);
    }

    /// Records a successful re-admission of `global_id` on `target` as
    /// local id `local`, classified as a replica hit when the target
    /// already held `hit_tokens` of the victim's `input_tokens` context
    /// (fraction ≥ [`FailoverConfig::replica_hit_fraction`]).
    pub fn placed(
        &mut self,
        victim: &MigratableVictim,
        target: usize,
        local: ReqId,
        hit_tokens: u64,
        now: SimTime,
    ) {
        self.stats.migrated += 1;
        let input = victim.spec.input_tokens().max(1);
        if hit_tokens as f64 >= self.cfg.replica_hit_fraction * input as f64 {
            self.stats.replica_hit += 1;
        } else {
            self.stats.reprefill += 1;
        }
        self.stats
            .migration_delay
            .record(now.since(victim.crash_time).as_secs());
        self.placements.insert(victim.spec.id, (target, local));
    }

    /// Splits migrated victims into finished vs shed using their final
    /// placement. Call once, after the fleet drains, before building
    /// the report.
    pub fn finalize(&mut self, finished: impl Fn(usize, ReqId) -> bool) {
        for &(target, local) in self.placements.values() {
            if finished(target, local) {
                self.stats.migrated_finished += 1;
            } else {
                self.stats.migrated_shed += 1;
            }
        }
        self.placements.clear();
    }

    fn push_pending(&mut self, due: SimTime, victim: MigratableVictim) {
        let seq = self.seq;
        self.seq += 1;
        let at = self
            .pending
            .partition_point(|p| (p.due, p.seq) <= (due, seq));
        self.pending
            .insert(at, PendingMigration { due, seq, victim });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathClass;
    use workload::{ContentSpec, RequestSpec};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn victim(id: u64, arrival: f64, crash: f64, tokens: u64) -> MigratableVictim {
        MigratableVictim {
            spec: RequestSpec {
                id,
                arrival: t(arrival),
                session: id,
                turn: 0,
                content: ContentSpec::single(id, 1000),
                prior_context: 0,
                output_tokens: 10,
            },
            crash_time: t(crash),
            tokens_emitted: tokens,
        }
    }

    fn sig(hit: u64, depth: usize, routable: bool) -> InstanceSignals {
        InstanceSignals {
            queue_depth: depth,
            prefill_backlog_tokens: 0,
            prefix_hit_tokens: hit,
            input_tokens: 1000,
            healthy: routable,
            health: if routable {
                crate::HealthState::Healthy
            } else {
                crate::HealthState::Ejected
            },
            class: PathClass::SingleNode,
        }
    }

    #[test]
    fn target_prefers_replicas_then_shallow_queues() {
        let signals = [sig(0, 0, true), sig(800, 5, true), sig(800, 2, true)];
        assert_eq!(pick_migration_target(&signals), Some(2));
        let no_replica = [sig(0, 3, true), sig(0, 3, true)];
        assert_eq!(pick_migration_target(&no_replica), Some(0));
        let all_down = [sig(900, 0, false)];
        assert_eq!(pick_migration_target(&all_down), None);
    }

    #[test]
    fn queue_orders_by_due_then_seq_and_backoff_doubles() {
        let mut eng = FailoverEngine::new(FailoverConfig::default(), t(100.0));
        eng.enqueue_drained(vec![victim(1, 0.0, 5.0, 0), victim(2, 0.0, 5.0, 0)], t(6.0));
        assert_eq!(eng.stats.drained, 2);
        assert_eq!(eng.next_wake(), Some(t(0.5)), "patrol tick comes first");
        let due: Vec<u64> = eng.take_due(t(6.0)).iter().map(|v| v.spec.id).collect();
        assert_eq!(due, vec![1, 2], "drain order preserved at equal due");
        // No routable target: attempt 1 reschedules at +0.5s, attempt 2
        // at +1s after that.
        eng.no_target(victim(1, 0.0, 5.0, 0), t(6.0));
        assert!(eng.take_due(t(6.4)).is_empty());
        assert_eq!(eng.take_due(t(6.5)).len(), 1);
        eng.no_target(victim(1, 0.0, 5.0, 0), t(6.5));
        assert_eq!(eng.take_due(t(7.5)).len(), 1);
    }

    #[test]
    fn budget_and_deadline_bound_retries() {
        let cfg = FailoverConfig {
            retry_budget: 2,
            ..FailoverConfig::default()
        };
        let mut eng = FailoverEngine::new(cfg, t(100.0));
        eng.enqueue_drained(vec![victim(1, 0.0, 5.0, 1)], t(6.0));
        eng.take_due(t(6.0));
        eng.no_target(victim(1, 0.0, 5.0, 1), t(6.0));
        eng.no_target(victim(1, 0.0, 5.0, 1), t(7.0));
        eng.take_due(t(50.0));
        // Third failed attempt exceeds the budget of 2.
        eng.no_target(victim(1, 0.0, 5.0, 1), t(8.0));
        assert_eq!(eng.stats.gave_up, 1);
        // A tokenless victim past its original-arrival TTFT deadline is
        // not retried at all.
        eng.enqueue_drained(vec![victim(2, 0.0, 5.0, 0)], t(31.0));
        eng.take_due(t(31.0));
        eng.no_target(victim(2, 0.0, 5.0, 0), t(31.0));
        assert_eq!(eng.stats.gave_up, 2);
        assert_eq!(eng.next_wake(), Some(t(0.5)), "only patrols remain");
    }

    #[test]
    fn placement_classifies_replica_hits_and_finalizes() {
        let mut eng = FailoverEngine::new(FailoverConfig::default(), t(100.0));
        let v1 = victim(1, 0.0, 5.0, 0);
        let v2 = victim(2, 0.0, 5.0, 0);
        eng.placed(&v1, 2, 40, 900, t(6.0));
        eng.placed(&v2, 1, 41, 100, t(6.5));
        assert_eq!((eng.stats.replica_hit, eng.stats.reprefill), (1, 1));
        assert!((eng.stats.migration_delay.max() - 1.5).abs() < 1e-9);
        eng.finalize(|target, _| target == 2);
        assert_eq!(eng.stats.migrated_finished, 1);
        assert_eq!(eng.stats.migrated_shed, 1);
    }
}
