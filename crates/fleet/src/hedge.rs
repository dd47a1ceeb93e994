//! Hedged dispatch and retry-storm-safe overload control.
//!
//! The tail-tolerance tier on top of the breaker/failover substrate:
//! when the router's chosen member is [`HealthState::Degraded`] or its
//! queue-delay estimate exceeds a threshold, the fleet admits a
//! speculative duplicate of the request on the runner-up member. First
//! completion wins; the loser is cancelled deterministically at the next
//! merge barrier via [`serving::Instance::cancel`], which moves it into
//! the `cancelled` accounting class so the fleet books still close
//! (`finished + shed + cancelled == admitted`).
//!
//! Naive hedging amplifies overload exactly when the fleet can least
//! afford it — near the knee, every duplicate steals capacity from
//! first-copy traffic and retries feed back into more retries (the
//! retry-storm regime analyzed by Lin et al. for prefill–decode
//! contention). Three guards keep the tier storm-safe:
//!
//! - a fleet-level token-bucket [`RetryBudget`] *shared* by failover
//!   re-admissions and hedges — hedging disarms first (it needs
//!   [`HedgeConfig::min_budget_for_hedge`] tokens in reserve), so when
//!   the bucket drains, crash recovery still gets the remainder;
//! - a per-target queue watermark ([`HedgeConfig::hedge_queue_watermark`]):
//!   no duplicate is placed on a member that is itself loaded;
//! - ingress watermark shedding ([`HedgeConfig::ingress_watermark`]):
//!   when *every* admitting member is over the watermark the fleet sheds
//!   first-copy traffic at ingress instead of queueing it — and hedges,
//!   being strictly lower priority, are already disarmed well before
//!   that point by the two guards above.
//!
//! Like failover and replication, the whole tier arms only when some
//! member schedules a fault, so fault-free runs replay byte-identical
//! to the pre-hedging goldens. Determinism: hedge launches happen in
//! trace order at arrival barriers, pair resolution happens in launch
//! order at arrival/patrol/hedge barriers, and the hedge check cadence
//! contributes its own barrier source ([`HedgeEngine::next_wake`]) so
//! losers are cancelled at scheduled instants rather than "whenever".

use serving::ReqId;
use simcore::{SimDuration, SimTime};

use crate::router::{most_cached_member, InstanceSignals};

/// Hedged-dispatch and overload-control knobs.
#[derive(Debug, Clone, Copy)]
pub struct HedgeConfig {
    /// Queue-delay estimate (member TTFT EWMA × (queue depth + 1))
    /// above which the chosen member's request is hedged.
    /// [`SimDuration::MAX`] makes the estimate untriggerable.
    pub delay_threshold: SimDuration,
    /// Hedge whenever the chosen member is degraded (the gray-failure
    /// fast path — no latency evidence needed beyond the breaker's).
    pub hedge_on_degraded: bool,
    /// Cadence of the hedge-resolution barrier while pairs are
    /// outstanding (how soon after the winner finishes the loser is
    /// cancelled).
    pub check_every: SimDuration,
    /// Token-bucket capacity of the shared retry budget.
    pub budget_capacity: f64,
    /// Token-bucket refill rate (tokens per simulated second).
    pub budget_refill_per_sec: f64,
    /// Hedging disarms while fewer than this many tokens remain,
    /// reserving the tail of the bucket for failover re-admissions.
    pub min_budget_for_hedge: f64,
    /// No hedge is placed on a runner-up with at least this many
    /// requests in flight (a loaded member is no rescue).
    pub hedge_queue_watermark: usize,
    /// When every routable member has at least this many requests in
    /// flight, first-copy arrivals are shed at ingress.
    /// `usize::MAX` (the default) disables ingress shedding.
    pub ingress_watermark: usize,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            delay_threshold: SimDuration::from_secs(3.0),
            hedge_on_degraded: true,
            check_every: SimDuration::from_secs(0.25),
            budget_capacity: 64.0,
            budget_refill_per_sec: 4.0,
            min_budget_for_hedge: 8.0,
            hedge_queue_watermark: 64,
            ingress_watermark: usize::MAX,
        }
    }
}

impl HedgeConfig {
    /// A configuration that can never fire: infinite delay threshold, no
    /// degraded trigger, no ingress shedding. Used by equivalence tests
    /// to pin that configured-but-idle hedging is a strict no-op.
    pub fn untriggerable() -> HedgeConfig {
        HedgeConfig {
            delay_threshold: SimDuration::MAX,
            hedge_on_degraded: false,
            ingress_watermark: usize::MAX,
            ..HedgeConfig::default()
        }
    }
}

/// Hedged-dispatch counters, folded into the fleet report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgeStats {
    /// Speculative duplicates admitted.
    pub launched: u64,
    /// Pairs won by the original copy.
    pub primary_wins: u64,
    /// Pairs won by the hedge copy — the rescues hedging paid for.
    pub hedge_wins: u64,
    /// Pairs where both copies resolved without either finishing
    /// (e.g. both shed): retired with no winner.
    pub no_winner: u64,
    /// Losers cancelled while still waiting (work saved entirely).
    pub cancelled_dropped: u64,
    /// Losers cancelled mid-run (accounted cancelled; residual work
    /// drained to a discarded completion).
    pub cancelled_detached: u64,
    /// Hedge triggers suppressed because the retry budget was below the
    /// hedge reserve.
    pub suppressed_budget: u64,
    /// Hedge triggers suppressed because no runner-up sat under the
    /// queue watermark.
    pub suppressed_no_target: u64,
}

/// Fleet-level overload-control counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// First-copy arrivals shed at ingress (every routable member over
    /// the watermark); never admitted anywhere.
    pub ingress_shed: u64,
    /// Retry-budget tokens spent on hedges.
    pub budget_spent_hedge: u64,
    /// Retry-budget tokens spent on failover re-admissions.
    pub budget_spent_failover: u64,
    /// Failover re-admissions deferred because the bucket was empty
    /// (the victim re-enters the pending queue with backoff).
    pub failover_deferred: u64,
}

/// A deterministic token bucket over simulated time: the fleet's shared
/// retry budget. Refill is a pure function of elapsed simulated time,
/// so spend decisions replay identically at any thread count.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    capacity: f64,
    refill_per_sec: f64,
    tokens: f64,
    last: SimTime,
}

impl RetryBudget {
    /// A full bucket.
    pub fn new(capacity: f64, refill_per_sec: f64) -> RetryBudget {
        RetryBudget {
            capacity,
            refill_per_sec,
            tokens: capacity,
            last: SimTime::ZERO,
        }
    }

    /// Advances the refill clock to `now`.
    pub fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = now.since(self.last).as_secs();
            self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
        }
        self.last = self.last.max(now);
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Spends one token if available; returns whether it was.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One outstanding hedged pair: the primary (router's choice) and the
/// speculative duplicate, as `(member index, instance-local id)`.
#[derive(Debug, Clone, Copy)]
pub struct HedgePair {
    /// The original copy.
    pub primary: (usize, ReqId),
    /// The duplicate on the runner-up member.
    pub hedge: (usize, ReqId),
}

/// Caller-observed terminal state of one outstanding pair, read from the
/// owning instances before [`HedgeEngine::resolve`] mutates them.
/// `*_finished` is cancel-aware (a cancelled drain does not count);
/// `*_resolved` means the copy reached any terminal class.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairStatus {
    /// The primary copy finished.
    pub primary_finished: bool,
    /// The hedge copy finished.
    pub hedge_finished: bool,
    /// The primary copy finished, shed or was cancelled.
    pub primary_resolved: bool,
    /// The hedge copy finished, shed or was cancelled.
    pub hedge_resolved: bool,
}

/// Book-keeper for outstanding hedged pairs and the resolution barrier,
/// and owner of the fleet's shared [`RetryBudget`]: the budget exists
/// exactly when hedging does, so plain failover keeps only its own
/// per-victim retry counter.
#[derive(Debug)]
pub struct HedgeEngine {
    cfg: HedgeConfig,
    pairs: Vec<HedgePair>,
    next_check: Option<SimTime>,
    budget: RetryBudget,
    /// Hedged-dispatch counters (public: the fleet folds them into its
    /// report).
    pub stats: HedgeStats,
    /// Overload-control counters: ingress sheds and retry-budget spend
    /// (public: the fleet counts ingress sheds and folds them into its
    /// report).
    pub overload: OverloadStats,
}

impl HedgeEngine {
    /// An engine with no outstanding pairs and a full retry budget.
    pub fn new(cfg: HedgeConfig) -> HedgeEngine {
        HedgeEngine {
            cfg,
            pairs: Vec::new(),
            next_check: None,
            budget: RetryBudget::new(cfg.budget_capacity, cfg.budget_refill_per_sec),
            stats: HedgeStats::default(),
            overload: OverloadStats::default(),
        }
    }

    /// Whether the router's choice should be hedged: degraded primary
    /// (when enabled) or a queue-delay estimate over the threshold.
    /// `ewma_ttft` is the primary member's smoothed finished-request
    /// TTFT (`None` = no evidence yet, which never triggers the delay
    /// path).
    pub fn should_hedge(&self, primary: &InstanceSignals, ewma_ttft: Option<f64>) -> bool {
        if self.cfg.hedge_on_degraded && primary.health == crate::HealthState::Degraded {
            return true;
        }
        if self.cfg.delay_threshold == SimDuration::MAX {
            return false;
        }
        match ewma_ttft {
            Some(t) => t * (primary.queue_depth as f64 + 1.0) > self.cfg.delay_threshold.as_secs(),
            None => false,
        }
    }

    /// Picks the runner-up member for a hedge: the best routable member
    /// other than the primary, under the queue watermark, in the
    /// failover target order (`most_cached_member`: prefix hit desc,
    /// queue depth asc, index asc).
    pub fn pick_runner_up(&self, signals: &[InstanceSignals], primary: usize) -> Option<usize> {
        most_cached_member(signals, |i, s| {
            i != primary && s.queue_depth < self.cfg.hedge_queue_watermark
        })
    }

    /// Picks the hedge target for a request routed to `primary` and
    /// spends its retry-budget token at `now`: the runner-up of
    /// [`HedgeEngine::pick_runner_up`]. `None`, counted as suppressed,
    /// while the budget is below the hedge reserve or when no runner-up
    /// sits under the queue watermark.
    pub fn spend_on_hedge(
        &mut self,
        signals: &[InstanceSignals],
        primary: usize,
        now: SimTime,
    ) -> Option<usize> {
        self.budget.refill(now);
        if self.budget.available() < self.cfg.min_budget_for_hedge {
            self.stats.suppressed_budget += 1;
            return None;
        }
        let Some(runner_up) = self.pick_runner_up(signals, primary) else {
            self.stats.suppressed_no_target += 1;
            return None;
        };
        let spent = self.budget.try_spend();
        debug_assert!(spent, "reserve check guarantees a token");
        self.overload.budget_spent_hedge += 1;
        Some(runner_up)
    }

    /// Spends a retry-budget token on a failover re-admission at `now`.
    /// A dry bucket defers the victim to its next backoff slot instead
    /// of piling retries onto an already-stressed fleet: `false`,
    /// counted as deferred.
    pub fn spend_on_failover(&mut self, now: SimTime) -> bool {
        self.budget.refill(now);
        if self.budget.try_spend() {
            self.overload.budget_spent_failover += 1;
            true
        } else {
            self.overload.failover_deferred += 1;
            false
        }
    }

    /// Whether ingress shedding applies: the watermark is finite and
    /// every routable member sits at or above it. (No routable member at
    /// all is the failover tier's problem, not overload.)
    pub fn ingress_overloaded(&self, signals: &[InstanceSignals]) -> bool {
        if self.cfg.ingress_watermark == usize::MAX {
            return false;
        }
        let mut any = false;
        for s in signals.iter().filter(|s| s.routable()) {
            any = true;
            if s.queue_depth < self.cfg.ingress_watermark {
                return false;
            }
        }
        any
    }

    /// Registers a launched pair and schedules the resolution barrier.
    pub fn launched(&mut self, pair: HedgePair, now: SimTime) {
        self.pairs.push(pair);
        self.stats.launched += 1;
        let due = now + self.cfg.check_every;
        self.next_check = Some(match self.next_check {
            Some(t) => t.min(due),
            None => due,
        });
    }

    /// The engine's next barrier instant: the scheduled resolution check
    /// while any pair is outstanding.
    pub fn next_wake(&self) -> Option<SimTime> {
        if self.pairs.is_empty() {
            None
        } else {
            self.next_check
        }
    }

    /// Outstanding pairs (resolution walks them in launch order).
    pub fn pairs(&self) -> &[HedgePair] {
        &self.pairs
    }

    /// Retires resolved pairs in launch order. `status` carries one
    /// entry per outstanding pair (same order as [`HedgeEngine::pairs`]),
    /// precomputed by the caller so reads and cancels never borrow the
    /// members simultaneously. `cancel(m, id)` cancels a copy and
    /// reports whether it was still waiting (`Some(true)`), already
    /// running (`Some(false)`), or already resolved (`None`).
    /// Reschedules the check barrier while pairs remain outstanding.
    pub fn resolve(
        &mut self,
        now: SimTime,
        status: &[PairStatus],
        mut cancel: impl FnMut(usize, ReqId) -> Option<bool>,
    ) {
        assert_eq!(status.len(), self.pairs.len(), "one status per pair");
        let stats = &mut self.stats;
        let mut k = 0;
        self.pairs.retain(|pair| {
            let s = status[k];
            k += 1;
            let loser = if s.primary_finished {
                stats.primary_wins += 1;
                pair.hedge
            } else if s.hedge_finished {
                stats.hedge_wins += 1;
                pair.primary
            } else if s.primary_resolved && s.hedge_resolved {
                // Both copies shed/cancelled without a finish: nothing
                // left to cancel, retire the pair winnerless.
                stats.no_winner += 1;
                return false;
            } else {
                return true; // still racing
            };
            match cancel(loser.0, loser.1) {
                Some(true) => stats.cancelled_dropped += 1,
                Some(false) => stats.cancelled_detached += 1,
                None => {} // loser had already resolved on its own
            }
            false
        });
        self.next_check = if self.pairs.is_empty() {
            None
        } else {
            Some(now + self.cfg.check_every)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthState, PathClass};

    fn sig(depth: usize, hit: u64, health: HealthState) -> InstanceSignals {
        InstanceSignals {
            queue_depth: depth,
            prefill_backlog_tokens: 0,
            prefix_hit_tokens: hit,
            input_tokens: 1000,
            healthy: true,
            health,
            class: PathClass::SingleNode,
        }
    }

    #[test]
    fn budget_refills_deterministically_and_caps() {
        let mut b = RetryBudget::new(4.0, 2.0);
        assert!(b.try_spend() && b.try_spend() && b.try_spend() && b.try_spend());
        assert!(!b.try_spend(), "bucket empty");
        b.refill(SimTime::from_secs(1.0)); // +2 tokens
        assert!((b.available() - 2.0).abs() < 1e-12);
        assert!(b.try_spend());
        b.refill(SimTime::from_secs(100.0));
        assert!((b.available() - 4.0).abs() < 1e-12, "capped at capacity");
        // Refill never runs the clock backwards.
        b.refill(SimTime::from_secs(50.0));
        assert!((b.available() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hedges_stop_at_the_reserve_and_failover_drains_the_rest() {
        let mut eng = HedgeEngine::new(HedgeConfig {
            budget_capacity: 3.0,
            budget_refill_per_sec: 0.0,
            min_budget_for_hedge: 2.0,
            ..HedgeConfig::default()
        });
        let t = SimTime::from_secs(1.0);
        let primary_only = [sig(0, 0, HealthState::Degraded)];
        assert_eq!(eng.spend_on_hedge(&primary_only, 0, t), None);
        let signals = [primary_only[0], sig(0, 0, HealthState::Healthy)];
        assert_eq!(eng.spend_on_hedge(&signals, 0, t), Some(1));
        assert_eq!(eng.spend_on_hedge(&signals, 0, t), Some(1));
        assert_eq!(eng.spend_on_hedge(&signals, 0, t), None, "reserve held");
        assert!(eng.spend_on_failover(t), "failover takes the reserve");
        assert!(!eng.spend_on_failover(t), "bucket dry");
        assert_eq!(
            (eng.stats.suppressed_no_target, eng.stats.suppressed_budget),
            (1, 1)
        );
        assert_eq!(
            eng.overload,
            OverloadStats {
                ingress_shed: 0,
                budget_spent_hedge: 2,
                budget_spent_failover: 1,
                failover_deferred: 1,
            }
        );
    }

    #[test]
    fn hedge_triggers_on_degraded_and_on_delay_estimate() {
        let eng = HedgeEngine::new(HedgeConfig {
            delay_threshold: SimDuration::from_secs(2.0),
            ..HedgeConfig::default()
        });
        assert!(eng.should_hedge(&sig(0, 0, HealthState::Degraded), None));
        // Healthy but slow: EWMA 1 s × depth 3 (+1) = 4 s > 2 s.
        assert!(eng.should_hedge(&sig(3, 0, HealthState::Healthy), Some(1.0)));
        assert!(!eng.should_hedge(&sig(0, 0, HealthState::Healthy), Some(1.0)));
        assert!(!eng.should_hedge(&sig(100, 0, HealthState::Healthy), None));
        let off = HedgeEngine::new(HedgeConfig::untriggerable());
        assert!(!off.should_hedge(&sig(100, 0, HealthState::Degraded), Some(10.0)));
    }

    #[test]
    fn runner_up_prefers_prefix_then_queue_and_respects_watermark() {
        let eng = HedgeEngine::new(HedgeConfig {
            hedge_queue_watermark: 4,
            ..HedgeConfig::default()
        });
        let signals = vec![
            sig(0, 0, HealthState::Degraded), // primary
            sig(2, 500, HealthState::Healthy),
            sig(1, 500, HealthState::Healthy), // same hit, shallower
            sig(0, 0, HealthState::Healthy),
            sig(9, 900, HealthState::Healthy), // best hit but over watermark
        ];
        assert_eq!(eng.pick_runner_up(&signals, 0), Some(2));
        // An ejected runner-up is never picked.
        let mut gated = signals.clone();
        for s in gated.iter_mut().skip(1) {
            s.health = HealthState::Ejected;
        }
        assert_eq!(eng.pick_runner_up(&gated, 0), None);
    }

    #[test]
    fn ingress_watermark_requires_every_routable_member_loaded() {
        let eng = HedgeEngine::new(HedgeConfig {
            ingress_watermark: 2,
            ..HedgeConfig::default()
        });
        let loaded = sig(2, 0, HealthState::Healthy);
        let light = sig(0, 0, HealthState::Healthy);
        let ejected = sig(0, 0, HealthState::Ejected);
        assert!(eng.ingress_overloaded(&[loaded, loaded]));
        assert!(!eng.ingress_overloaded(&[loaded, light]));
        // Ejected members don't count as escape valves.
        assert!(eng.ingress_overloaded(&[loaded, ejected]));
        assert!(!eng.ingress_overloaded(&[ejected, ejected]));
        let off = HedgeEngine::new(HedgeConfig::default());
        assert!(!off.ingress_overloaded(&[loaded, loaded]));
    }

    #[test]
    fn resolve_retires_pairs_in_launch_order_and_cancels_losers() {
        let mut eng = HedgeEngine::new(HedgeConfig::default());
        let t0 = SimTime::from_secs(1.0);
        eng.launched(
            HedgePair {
                primary: (0, 10),
                hedge: (1, 20),
            },
            t0,
        );
        eng.launched(
            HedgePair {
                primary: (0, 11),
                hedge: (1, 21),
            },
            t0,
        );
        assert_eq!(eng.next_wake(), Some(t0 + SimDuration::from_secs(0.25)));
        // Pair 1's hedge finished; pair 2 still racing.
        let mut cancelled = Vec::new();
        eng.resolve(
            SimTime::from_secs(2.0),
            &[
                PairStatus {
                    hedge_finished: true,
                    hedge_resolved: true,
                    ..PairStatus::default()
                },
                PairStatus::default(),
            ],
            |m, id| {
                cancelled.push((m, id));
                Some(false)
            },
        );
        assert_eq!(cancelled, vec![(0, 10)]);
        assert_eq!(eng.stats.hedge_wins, 1);
        assert_eq!(eng.stats.cancelled_detached, 1);
        assert_eq!(eng.pairs().len(), 1);
        assert!(eng.next_wake().is_some(), "a pair is still outstanding");
        // Pair 2: primary wins, loser already resolved by its member.
        eng.resolve(
            SimTime::from_secs(3.0),
            &[PairStatus {
                primary_finished: true,
                primary_resolved: true,
                hedge_resolved: true,
                ..PairStatus::default()
            }],
            |_, _| None,
        );
        assert_eq!(eng.stats.primary_wins, 1);
        assert_eq!(eng.pairs().len(), 0);
        assert_eq!(eng.next_wake(), None);
    }
}
