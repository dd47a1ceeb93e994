//! Admission policies: who serves the next request.
//!
//! Modeled on the llm-d endpoint-picker (EPP): the router scores every
//! instance from cheap, non-mutating signals — radix-prefix hit
//! probability, queue depth, prefill backlog, crash/health — and picks
//! deterministically (strict-`>` comparison, lowest index wins ties).
//! Policies never touch instance state; they only read the
//! [`InstanceSignals`] snapshot taken at the merge barrier.

use std::cmp::Reverse;

use workload::RequestSpec;

use crate::health::HealthState;
use crate::PathClass;

/// The router's per-instance snapshot for one request, read after every
/// instance settled at the merge barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceSignals {
    /// Delivered requests on the instance that are neither finished,
    /// shed nor cancelled.
    pub queue_depth: usize,
    /// Prompt tokens of the instance's delivered requests that have
    /// neither produced a token nor resolved: the prefill queued ahead
    /// of a new arrival.
    pub prefill_backlog_tokens: u64,
    /// Input tokens of *this request* already cached in the instance's
    /// radix tree (longest-prefix probe, no stats recorded).
    pub prefix_hit_tokens: u64,
    /// The request's total input tokens (same for every instance).
    pub input_tokens: u64,
    /// Whether the instance has no fail-stopped GPU right now.
    pub healthy: bool,
    /// The health tracker's breaker state (always
    /// [`HealthState::Healthy`] on crash-free runs, so gating on it is a
    /// strict no-op there).
    pub health: HealthState,
    /// Which serving path the instance implements.
    pub class: PathClass,
}

impl InstanceSignals {
    /// Whether the router may pick this instance: no dead GPU right now
    /// *and* the breaker admits traffic ([`HealthState::Ejected`] is the
    /// only state that refuses).
    pub fn routable(&self) -> bool {
        self.healthy && self.health.admits_traffic()
    }
}

/// The member order for placing a copy of a request the router already
/// placed once — a migrated crash victim or a hedge duplicate: among
/// routable members that pass `eligible`, the most prefix-hit tokens,
/// then the shallowest queue, then the lowest index. Returns `None` when
/// no member qualifies.
pub(crate) fn most_cached_member(
    signals: &[InstanceSignals],
    eligible: impl Fn(usize, &InstanceSignals) -> bool,
) -> Option<usize> {
    signals
        .iter()
        .enumerate()
        .filter(|&(idx, s)| s.routable() && eligible(idx, s))
        .min_by_key(|(_, s)| (Reverse(s.prefix_hit_tokens), s.queue_depth))
        .map(|(idx, _)| idx)
}

/// Where a request goes, and whether health signals overrode the score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index of the chosen instance.
    pub instance: usize,
    /// True when the instance the score alone preferred was skipped
    /// because it had a dead GPU.
    pub rerouted_on_crash: bool,
}

/// An admission policy: maps a request plus per-instance signals to a
/// [`Decision`]. Implementations must be deterministic — same inputs,
/// same pick — or fleet replay identity breaks.
pub trait RoutePolicy: Send {
    /// Short policy name for report rows.
    fn name(&self) -> &'static str;
    /// Picks an instance for `spec`. `signals` is indexed by instance
    /// and never empty.
    fn pick(&mut self, spec: &RequestSpec, signals: &[InstanceSignals]) -> Decision;
}

/// The baseline: rotate through instances, skipping unroutable ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Starts the rotation at instance 0.
    pub fn new() -> RoundRobin {
        RoundRobin::default()
    }
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, _spec: &RequestSpec, signals: &[InstanceSignals]) -> Decision {
        let n = signals.len();
        let start = self.next % n;
        // First routable instance from the rotation point (healthy GPU
        // *and* breaker admits traffic); if every instance is
        // unroutable, keep the rotation pick (degraded service beats
        // dropping on the floor). Skipping k > 0 instances to get there
        // is a crash reroute — count it for both skip causes.
        let mut choice = start;
        let mut rerouted = false;
        for k in 0..n {
            let cand = (start + k) % n;
            if signals[cand].routable() {
                choice = cand;
                rerouted = k > 0;
                break;
            }
        }
        self.next = (choice + 1) % n;
        Decision {
            instance: choice,
            rerouted_on_crash: rerouted,
        }
    }
}

/// EPP-style scoring: prefer the instance already holding the request's
/// context, tempered by its load, with a per-request
/// single-node-vs-split path decision.
///
/// Score: `w_prefix · hit_ratio − w_queue · (queue_depth + backlog_ratio)
/// − w_degraded · [health = Degraded]`, where `hit_ratio =
/// prefix_hit_tokens / input_tokens` and `backlog_ratio =
/// prefill_backlog_tokens / input_tokens`. Load is requests in flight
/// plus the prefill queued ahead in units of this request's prompt:
/// most in-flight requests are already decoding, so a member with few
/// of them can still hold a long prefill queue, and each prompt's worth
/// of it counts as one more queued request. Candidates are restricted
/// to routable instances (healthy GPU, breaker admits traffic) of the
/// preferred [`PathClass`]:
/// [`PathClass::Split`] when even the best cache hit leaves at least
/// `split_threshold_tokens` of fresh prefill (long prefills benefit from
/// disaggregation) and a routable split instance exists; otherwise
/// [`PathClass::SingleNode`]. Falls back to any routable instance, then
/// to the raw argmax, so a pick always exists. A
/// [`HealthState::Degraded`] member stays routable but pays the
/// `w_degraded` score penalty — the breaker's soft half.
#[derive(Debug, Clone, Copy)]
pub struct PrefixAffinity {
    /// Weight of the prefix hit ratio (cache affinity pull).
    pub w_prefix: f64,
    /// Weight of the load (load-balance push, per queued request or
    /// prompt's worth of queued prefill).
    pub w_queue: f64,
    /// Score penalty for [`HealthState::Degraded`] members (brownout
    /// still serving, but steer elsewhere while alternatives exist).
    pub w_degraded: f64,
    /// Fresh-prefill size at which the split path is preferred.
    pub split_threshold_tokens: u64,
}

impl Default for PrefixAffinity {
    fn default() -> PrefixAffinity {
        PrefixAffinity {
            // A full-prefix hit outweighs ~20 queued requests or
            // prompts of queued prefill; beyond that, load balance wins
            // over affinity.
            w_prefix: 1.0,
            w_queue: 0.05,
            // A degradation window costs a quarter of a full prefix hit:
            // strong cache affinity still wins, weak affinity loses.
            w_degraded: 0.25,
            split_threshold_tokens: 8_192,
        }
    }
}

impl RoutePolicy for PrefixAffinity {
    fn name(&self) -> &'static str {
        "prefix-affinity"
    }

    fn pick(&mut self, _spec: &RequestSpec, signals: &[InstanceSignals]) -> Decision {
        let input = signals[0].input_tokens.max(1) as f64;
        let best_hit = signals
            .iter()
            .map(|s| s.prefix_hit_tokens)
            .max()
            .unwrap_or(0);
        let fresh = signals[0].input_tokens.saturating_sub(best_hit);
        let want_split = fresh >= self.split_threshold_tokens
            && signals
                .iter()
                .any(|s| s.routable() && s.class == PathClass::Split);
        let want = if want_split {
            PathClass::Split
        } else {
            PathClass::SingleNode
        };

        // One pass, three argmaxes: preferred class ∩ routable, any
        // routable, and score-only (to detect crash reroutes). Strict `>`
        // keeps the lowest index on ties — replay-stable.
        let mut best_preferred: Option<(usize, f64)> = None;
        let mut best_routable: Option<(usize, f64)> = None;
        let mut best_raw: Option<(usize, f64)> = None;
        for (idx, s) in signals.iter().enumerate() {
            let degraded = u64::from(s.health == HealthState::Degraded);
            let load = s.queue_depth as f64 + s.prefill_backlog_tokens as f64 / input;
            let score = self.w_prefix * (s.prefix_hit_tokens as f64 / input)
                - self.w_queue * load
                - self.w_degraded * degraded as f64;
            if best_raw.is_none_or(|(_, b)| score > b) {
                best_raw = Some((idx, score));
            }
            if !s.routable() {
                continue;
            }
            if best_routable.is_none_or(|(_, b)| score > b) {
                best_routable = Some((idx, score));
            }
            if s.class == want && best_preferred.is_none_or(|(_, b)| score > b) {
                best_preferred = Some((idx, score));
            }
        }
        let (choice, _) = best_preferred
            .or(best_routable)
            .or(best_raw)
            .unwrap_or((0, 0.0));
        // A crash reroute is a pick that diverged from the raw argmax
        // because that instance was unroutable (dead GPU or ejected).
        let rerouted = signals[choice].routable()
            && best_raw.is_some_and(|(idx, _)| idx != choice && !signals[idx].routable());
        Decision {
            instance: choice,
            rerouted_on_crash: rerouted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(hit: u64, depth: usize, healthy: bool, class: PathClass) -> InstanceSignals {
        InstanceSignals {
            queue_depth: depth,
            prefill_backlog_tokens: 0,
            prefix_hit_tokens: hit,
            input_tokens: 1000,
            healthy,
            health: if healthy {
                HealthState::Healthy
            } else {
                HealthState::Ejected
            },
            class,
        }
    }

    fn spec() -> RequestSpec {
        RequestSpec {
            id: 0,
            arrival: simcore::SimTime::ZERO,
            session: 1,
            turn: 0,
            content: workload::ContentSpec::single(1, 1000),
            prior_context: 0,
            output_tokens: 10,
        }
    }

    #[test]
    fn round_robin_rotates_and_skips_dead() {
        let mut rr = RoundRobin::new();
        let s = spec();
        let healthy = [
            sig(0, 0, true, PathClass::SingleNode),
            sig(0, 0, false, PathClass::SingleNode),
            sig(0, 0, true, PathClass::SingleNode),
        ];
        let d0 = rr.pick(&s, &healthy);
        assert_eq!((d0.instance, d0.rerouted_on_crash), (0, false));
        let d1 = rr.pick(&s, &healthy);
        assert_eq!((d1.instance, d1.rerouted_on_crash), (2, true));
        let d2 = rr.pick(&s, &healthy);
        assert_eq!(d2.instance, 0);
    }

    /// Satellite pin: *both* policies count `rerouted_on_crash` on their
    /// crash-skip path — RoundRobin when the rotation pick is skipped,
    /// PrefixAffinity when the raw argmax is overridden — and neither
    /// counts it when the natural pick was routable anyway.
    #[test]
    fn both_policies_count_crash_reroutes() {
        let s = spec();
        let signals = [
            sig(0, 0, false, PathClass::SingleNode),
            sig(900, 0, true, PathClass::SingleNode),
        ];
        let mut rr = RoundRobin::new();
        let d = rr.pick(&s, &signals);
        assert_eq!((d.instance, d.rerouted_on_crash), (1, true));
        // Rotation wrapped back to instance 0; once it recovers, the
        // same rotation pick is not a reroute.
        let recovered = [
            sig(0, 0, true, PathClass::SingleNode),
            sig(900, 0, true, PathClass::SingleNode),
        ];
        let d = rr.pick(&s, &recovered);
        assert_eq!((d.instance, d.rerouted_on_crash), (0, false));
        let mut aff = PrefixAffinity::default();
        let hot_dead = [
            sig(900, 0, false, PathClass::SingleNode),
            sig(0, 0, true, PathClass::SingleNode),
        ];
        let d = aff.pick(&s, &hot_dead);
        assert_eq!((d.instance, d.rerouted_on_crash), (1, true));
        let d = aff.pick(&s, &signals);
        assert_eq!((d.instance, d.rerouted_on_crash), (1, false));
    }

    /// An ejected member is skipped even while its GPUs report alive
    /// (brownout ejection), and a degraded member pays the score
    /// penalty without leaving the routing set.
    #[test]
    fn breaker_states_gate_and_penalize() {
        let s = spec();
        let mut ejected = sig(1000, 0, true, PathClass::SingleNode);
        ejected.health = HealthState::Ejected;
        let signals = [ejected, sig(0, 0, true, PathClass::SingleNode)];
        let mut rr = RoundRobin::new();
        let d = rr.pick(&s, &signals);
        assert_eq!((d.instance, d.rerouted_on_crash), (1, true));
        let mut aff = PrefixAffinity::default();
        let d = aff.pick(&s, &signals);
        assert_eq!((d.instance, d.rerouted_on_crash), (1, true));
        // Degraded: weak affinity (200/1000 < w_degraded) loses the
        // pick, strong affinity keeps it.
        let mut degraded = sig(200, 0, true, PathClass::SingleNode);
        degraded.health = HealthState::Degraded;
        let weak = [degraded, sig(0, 0, true, PathClass::SingleNode)];
        assert_eq!(aff.pick(&s, &weak).instance, 1);
        degraded.prefix_hit_tokens = 900;
        let strong = [degraded, sig(0, 0, true, PathClass::SingleNode)];
        let d = aff.pick(&s, &strong);
        assert_eq!((d.instance, d.rerouted_on_crash), (0, false));
    }

    #[test]
    fn affinity_prefers_cached_context_but_yields_to_load() {
        let mut aff = PrefixAffinity::default();
        let s = spec();
        // Instance 1 holds the whole prefix: affinity wins.
        let cached = [
            sig(0, 0, true, PathClass::SingleNode),
            sig(1000, 3, true, PathClass::SingleNode),
        ];
        assert_eq!(aff.pick(&s, &cached).instance, 1);
        // Same hit but a deep queue: load balance overrides affinity.
        let swamped = [
            sig(0, 0, true, PathClass::SingleNode),
            sig(1000, 30, true, PathClass::SingleNode),
        ];
        assert_eq!(aff.pick(&s, &swamped).instance, 0);
    }

    /// A member with few requests in flight can still hold a long
    /// prefill queue: each prompt's worth of it weighs as one more
    /// queued request, yet a full prefix hit still keeps the turn.
    #[test]
    fn affinity_counts_queued_prefill_as_load() {
        let mut aff = PrefixAffinity::default();
        let s = spec();
        let decoding = sig(0, 4, true, PathClass::SingleNode);
        let mut prefilling = sig(0, 1, true, PathClass::SingleNode);
        prefilling.prefill_backlog_tokens = 4 * 1000;
        assert_eq!(aff.pick(&s, &[decoding, prefilling]).instance, 0);
        prefilling.prefix_hit_tokens = 1000;
        prefilling.prefill_backlog_tokens = 5 * 1000;
        assert_eq!(aff.pick(&s, &[decoding, prefilling]).instance, 1);
    }

    #[test]
    fn affinity_reroutes_off_crashed_instance() {
        let mut aff = PrefixAffinity::default();
        let s = spec();
        let signals = [
            sig(0, 0, true, PathClass::SingleNode),
            sig(1000, 0, false, PathClass::SingleNode),
        ];
        let d = aff.pick(&s, &signals);
        assert_eq!(d.instance, 0);
        assert!(d.rerouted_on_crash);
    }

    #[test]
    fn long_fresh_prefill_takes_the_split_path() {
        let mut aff = PrefixAffinity::default();
        let mut s = spec();
        s.content = workload::ContentSpec::single(1, 20_000);
        let signals = [
            InstanceSignals {
                queue_depth: 0,
                prefill_backlog_tokens: 0,
                prefix_hit_tokens: 0,
                input_tokens: 20_000,
                healthy: true,
                health: HealthState::Healthy,
                class: PathClass::SingleNode,
            },
            InstanceSignals {
                queue_depth: 0,
                prefill_backlog_tokens: 0,
                prefix_hit_tokens: 0,
                input_tokens: 20_000,
                healthy: true,
                health: HealthState::Healthy,
                class: PathClass::Split,
            },
        ];
        assert_eq!(aff.pick(&s, &signals).instance, 1);
        // Mostly cached: fresh work below threshold → single node.
        let cached = [
            InstanceSignals {
                prefix_hit_tokens: 18_000,
                ..signals[0]
            },
            InstanceSignals {
                prefix_hit_tokens: 0,
                ..signals[1]
            },
        ];
        assert_eq!(aff.pick(&s, &cached).instance, 0);
    }
}
