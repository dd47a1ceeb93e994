//! Per-member health state machine: the fleet's circuit breaker.
//!
//! Each fleet member carries a [`HealthTracker`] fed with
//! [`Observation`]s read at deterministic instants (arrival barriers and
//! failover patrol ticks — never at the no-op extra barriers, so
//! interleaving insensitivity survives). The tracker runs the classic
//! half-open breaker: `Healthy → Degraded → Ejected → Probing`, with
//! ejection after a sustained bad window, immediate ejection on a
//! permanent crash, and exponentially backed-off re-probes so a flapping
//! member does not oscillate in and out of the routing set.
//!
//! Routing consumes only [`HealthState::admits_traffic`]; the failover
//! engine (`crate::failover`) additionally drains crash victims off
//! ejected members. Crash-free runs observe nothing but healthy members,
//! so every tracker stays in [`HealthState::Healthy`] forever and the
//! whole layer is a strict no-op — the property the PR 7 goldens pin.
//!
//! # Gray failures
//!
//! Loud failures (dead GPUs, severe fault windows) travel the classic
//! `bad` path above. *Gray* failures — a member that is slow but alive
//! under a kernel latency spike or an HBM/NVLink bandwidth degrade —
//! produce no dead GPU and no severe flag, so PR 8's breaker was blind
//! to them. Two gray signals now feed [`Observation`]:
//!
//! - [`Observation::gray_fault`]: a gray fault window is open on the
//!   member right now (ground truth from the instance's fault memo).
//! - [`Observation::latency_exceed`]: the member's finished-request
//!   TTFT EWMA ([`LatencyEwma`], sampled only at merge barriers)
//!   exceeds [`HealthConfig::gray_exceed_ratio`] × the fleet median —
//!   the observational signal that catches slowness whatever its cause.
//!
//! A gray observation degrades the member (so score-based policies
//! steer new sessions away and hedged dispatch arms) but ejects only
//! after the *longer* [`HealthConfig::gray_eject_after`] window: a slow
//! member still serves, so evicting it is a last resort, not a reflex.

use simcore::{SimDuration, SimTime};

/// Where a member sits in the breaker cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No bad observations outstanding; fully routable.
    Healthy,
    /// A bad window is open (dead GPU or severe degradation) but has not
    /// lasted [`HealthConfig::eject_after`] yet. Routable, but policies
    /// may score-penalize it.
    Degraded,
    /// Out of the routing set; re-enters via a scheduled probe.
    Ejected,
    /// Half-open: the next observation decides between recovery and
    /// re-ejection with doubled probe backoff.
    Probing,
}

impl HealthState {
    /// Whether the router may send new work to a member in this state.
    pub fn admits_traffic(self) -> bool {
        !matches!(self, HealthState::Ejected)
    }
}

/// Breaker timing knobs.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// How long a bad window must last before ejection (a permanent
    /// crash ejects immediately, skipping this grace).
    pub eject_after: SimDuration,
    /// Base delay from ejection to the first half-open probe; doubles on
    /// every consecutive re-ejection.
    pub probe_after: SimDuration,
    /// Cap on the probe-backoff doubling (shift count), so a repeatedly
    /// failing member still gets probed on a bounded cadence.
    pub max_probe_shift: u32,
    /// How long a *gray* window (slow-but-alive: gray fault active or
    /// latency exceeding the fleet median ratio) must last before
    /// ejection. Deliberately longer than [`HealthConfig::eject_after`]:
    /// a gray member still serves traffic, so hedging covers its tail
    /// while the breaker waits for the slowness to prove chronic.
    pub gray_eject_after: SimDuration,
    /// EWMA smoothing factor for the per-member finished-request latency
    /// trackers (weight of the newest barrier's batch mean).
    pub ewma_alpha: f64,
    /// A member whose TTFT EWMA exceeds this multiple of the fleet
    /// median reads as [`Observation::latency_exceed`].
    pub gray_exceed_ratio: f64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            eject_after: SimDuration::from_secs(2.0),
            probe_after: SimDuration::from_secs(2.0),
            max_probe_shift: 6,
            gray_eject_after: SimDuration::from_secs(8.0),
            ewma_alpha: 0.3,
            gray_exceed_ratio: 2.5,
        }
    }
}

/// One deterministic health reading of a member.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observation {
    /// Currently fail-stopped GPUs ([`gpusim::GpuSim::num_dead_gpus`]).
    pub dead_gpus: u32,
    /// Whether a severe fault window (brownout/KV-shrink/fail-stop) is
    /// open right now.
    pub severe_fault: bool,
    /// Whether a permanent fail-stop has struck — the member never fully
    /// recovers, so ejection is immediate and probes are pointless (but
    /// still scheduled; they simply observe bad and re-eject).
    pub permanent_crash: bool,
    /// Whether a gray (non-severe) fault window — kernel latency spike
    /// or HBM/NVLink bandwidth degrade — is open on the member right now
    /// ([`serving::Instance::in_gray_fault`]).
    pub gray_fault: bool,
    /// Whether the member's finished-request TTFT EWMA exceeds
    /// [`HealthConfig::gray_exceed_ratio`] × the fleet median (computed
    /// by the fleet from its [`LatencyEwma`] trackers at the barrier).
    pub latency_exceed: bool,
}

impl Observation {
    fn bad(&self) -> bool {
        self.dead_gpus > 0 || self.severe_fault
    }

    fn gray(&self) -> bool {
        self.gray_fault || self.latency_exceed
    }
}

/// Fleet-wide breaker counters, folded into the fleet report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Ejections (including re-ejections out of probing).
    pub ejections: u64,
    /// Half-open probes opened.
    pub probes: u64,
    /// Healthy→Degraded transitions caused by a purely gray observation
    /// (no dead GPU, no severe window).
    pub gray_trips: u64,
    /// Ejections whose sustaining window was purely gray.
    pub gray_ejections: u64,
}

/// The breaker for one member. All transitions are pure functions of
/// `(state, observation, now)`, so replay determinism reduces to feeding
/// observations at deterministic instants.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: HealthConfig,
    state: HealthState,
    bad_since: Option<SimTime>,
    gray_since: Option<SimTime>,
    probe_at: SimTime,
    consecutive_ejections: u32,
}

impl HealthTracker {
    /// A healthy tracker.
    pub fn new(cfg: HealthConfig) -> HealthTracker {
        HealthTracker {
            cfg,
            state: HealthState::Healthy,
            bad_since: None,
            gray_since: None,
            probe_at: SimTime::ZERO,
            consecutive_ejections: 0,
        }
    }

    /// Current state (between observations).
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Feeds one observation at `now` and returns the new state.
    pub fn observe(
        &mut self,
        now: SimTime,
        obs: Observation,
        stats: &mut HealthStats,
    ) -> HealthState {
        match self.state {
            HealthState::Healthy => {
                if obs.bad() {
                    self.bad_since = Some(now);
                    self.state = HealthState::Degraded;
                    if obs.permanent_crash {
                        self.eject(now, stats);
                    }
                } else if obs.gray() {
                    self.gray_since = Some(now);
                    self.state = HealthState::Degraded;
                    stats.gray_trips += 1;
                }
            }
            HealthState::Degraded => {
                if obs.bad() {
                    // A loud signal supersedes any open gray window: the
                    // short eject_after clock runs from the first bad
                    // reading, not from the gray onset.
                    let since = *self.bad_since.get_or_insert(now);
                    if obs.permanent_crash || now.since(since) >= self.cfg.eject_after {
                        self.eject(now, stats);
                    }
                } else if obs.gray() {
                    self.bad_since = None;
                    let since = *self.gray_since.get_or_insert(now);
                    if now.since(since) >= self.cfg.gray_eject_after {
                        stats.gray_ejections += 1;
                        self.eject(now, stats);
                    }
                } else {
                    self.recover();
                }
            }
            HealthState::Ejected => {
                if now >= self.probe_at {
                    self.state = HealthState::Probing;
                    stats.probes += 1;
                    // The probe observation itself decides immediately:
                    // fall through by re-observing in the new state.
                    return self.observe(now, obs, stats);
                }
            }
            HealthState::Probing => {
                if obs.bad() {
                    self.eject(now, stats);
                } else if obs.gray() {
                    // A probe that still reads gray re-ejects: the
                    // member came back no faster than it left.
                    stats.gray_ejections += 1;
                    self.eject(now, stats);
                } else {
                    self.recover();
                }
            }
        }
        self.state
    }

    fn recover(&mut self) {
        self.state = HealthState::Healthy;
        self.bad_since = None;
        self.gray_since = None;
        self.consecutive_ejections = 0;
    }

    fn eject(&mut self, now: SimTime, stats: &mut HealthStats) {
        self.state = HealthState::Ejected;
        stats.ejections += 1;
        let shift = self.consecutive_ejections.min(self.cfg.max_probe_shift);
        self.probe_at = now.saturating_add(self.cfg.probe_after.doubled(shift));
        self.consecutive_ejections += 1;
    }
}

/// Deterministic per-member EWMA of finished-request TTFT/TBT.
///
/// Fed exclusively at merge barriers from the monotone cumulative totals
/// in [`serving::MetricsRecorder::finished_latency`]: each sample is the
/// *batch mean* of the requests that finished since the previous
/// barrier, folded as `ewma = α·batch + (1−α)·ewma`. Because the totals
/// are accumulated in the instance's own deterministic finish order and
/// read only at barrier instants, the EWMA sequence is a pure function
/// of the trace — bit-identical at any thread count or barrier
/// interleaving (extra no-op barriers are excluded by the fleet loop,
/// which samples only at arrival/patrol/hedge barriers where it also
/// observes health).
#[derive(Debug, Clone)]
pub struct LatencyEwma {
    alpha: f64,
    last_count: u64,
    last_ttft_sum: f64,
    last_tbt_count: u64,
    last_tbt_sum: f64,
    ttft: Option<f64>,
    tbt: Option<f64>,
}

impl LatencyEwma {
    /// An empty tracker with smoothing factor `alpha` (weight of the
    /// newest batch mean).
    pub fn new(alpha: f64) -> LatencyEwma {
        LatencyEwma {
            alpha,
            last_count: 0,
            last_ttft_sum: 0.0,
            last_tbt_count: 0,
            last_tbt_sum: 0.0,
            ttft: None,
            tbt: None,
        }
    }

    /// Folds one barrier reading of the member's cumulative
    /// finished-latency totals `(finished, ttft_sum, tbt_count,
    /// tbt_sum)`. Barriers where nothing finished leave the EWMA
    /// untouched, so injecting extra observation instants with no
    /// completions cannot move it.
    pub fn sample(&mut self, totals: (u64, f64, u64, f64)) {
        let (count, ttft_sum, tbt_count, tbt_sum) = totals;
        if count > self.last_count {
            let batch = (ttft_sum - self.last_ttft_sum) / (count - self.last_count) as f64;
            self.ttft = Some(match self.ttft {
                Some(prev) => self.alpha * batch + (1.0 - self.alpha) * prev,
                None => batch,
            });
        }
        if tbt_count > self.last_tbt_count {
            let batch = (tbt_sum - self.last_tbt_sum) / (tbt_count - self.last_tbt_count) as f64;
            self.tbt = Some(match self.tbt {
                Some(prev) => self.alpha * batch + (1.0 - self.alpha) * prev,
                None => batch,
            });
        }
        self.last_count = count;
        self.last_ttft_sum = ttft_sum;
        self.last_tbt_count = tbt_count;
        self.last_tbt_sum = tbt_sum;
    }

    /// Smoothed TTFT in seconds (`None` until a request has finished).
    pub fn ttft(&self) -> Option<f64> {
        self.ttft
    }

    /// Smoothed TBT in seconds (`None` until a gap has been observed).
    pub fn tbt(&self) -> Option<f64> {
        self.tbt
    }
}

/// Flags members whose TTFT EWMA exceeds `ratio` × the fleet median.
///
/// The median is taken over members with at least one finished request
/// (order statistics via a total-order float sort — deterministic for
/// the finite latencies the simulator produces). With fewer than two
/// observable members there is no peer group and nothing is flagged.
pub fn latency_exceeds(ewmas: &[LatencyEwma], ratio: f64) -> Vec<bool> {
    let mut observed: Vec<f64> = ewmas.iter().filter_map(LatencyEwma::ttft).collect();
    if observed.len() < 2 {
        return vec![false; ewmas.len()];
    }
    observed.sort_by(f64::total_cmp);
    let mid = observed.len() / 2;
    let median = if observed.len() % 2 == 1 {
        observed[mid]
    } else {
        0.5 * (observed[mid - 1] + observed[mid])
    };
    ewmas
        .iter()
        .map(|e| e.ttft().is_some_and(|t| t > ratio * median && median > 0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn bad() -> Observation {
        Observation {
            dead_gpus: 1,
            severe_fault: true,
            ..Observation::default()
        }
    }

    fn gray() -> Observation {
        Observation {
            gray_fault: true,
            ..Observation::default()
        }
    }

    fn good() -> Observation {
        Observation::default()
    }

    #[test]
    fn sustained_badness_ejects_then_probe_recovers() {
        let mut h = HealthTracker::new(HealthConfig::default());
        let mut s = HealthStats::default();
        assert_eq!(h.observe(t(1.0), bad(), &mut s), HealthState::Degraded);
        assert!(h.state().admits_traffic());
        // Still inside the grace window.
        assert_eq!(h.observe(t(2.0), bad(), &mut s), HealthState::Degraded);
        assert_eq!(h.observe(t(3.0), bad(), &mut s), HealthState::Ejected);
        assert!(!h.state().admits_traffic());
        // Probe opens 2s after ejection; a good reading recovers fully.
        assert_eq!(h.observe(t(4.0), good(), &mut s), HealthState::Ejected);
        assert_eq!(h.observe(t(5.0), good(), &mut s), HealthState::Healthy);
        assert_eq!((s.ejections, s.probes), (1, 1));
    }

    #[test]
    fn transient_blip_never_ejects() {
        let mut h = HealthTracker::new(HealthConfig::default());
        let mut s = HealthStats::default();
        assert_eq!(h.observe(t(1.0), bad(), &mut s), HealthState::Degraded);
        assert_eq!(h.observe(t(1.5), good(), &mut s), HealthState::Healthy);
        assert_eq!(s.ejections, 0);
    }

    #[test]
    fn permanent_crash_ejects_immediately_and_probe_backoff_doubles() {
        let mut h = HealthTracker::new(HealthConfig::default());
        let mut s = HealthStats::default();
        let perm = Observation {
            dead_gpus: 1,
            severe_fault: true,
            permanent_crash: true,
            ..Observation::default()
        };
        assert_eq!(h.observe(t(10.0), perm, &mut s), HealthState::Ejected);
        // First probe at +2s: observes bad, re-ejects with doubled delay.
        assert_eq!(h.observe(t(12.0), perm, &mut s), HealthState::Ejected);
        assert_eq!(s.probes, 1);
        // Doubled: next probe not before +4s.
        assert_eq!(h.observe(t(15.0), perm, &mut s), HealthState::Ejected);
        assert_eq!(s.probes, 1, "re-probe must wait the doubled backoff");
        assert_eq!(h.observe(t(16.0), perm, &mut s), HealthState::Ejected);
        assert_eq!(s.probes, 2);
        assert_eq!(s.ejections, 3);
    }

    /// Boundary test for [`HealthConfig::max_probe_shift`]: a member
    /// that fails every probe forever sees its probe backoff double only
    /// up to the cap, then hold there — the breaker keeps probing on a
    /// bounded cadence instead of backing off toward infinity.
    #[test]
    fn probe_backoff_stops_doubling_at_max_probe_shift() {
        let cfg = HealthConfig {
            eject_after: SimDuration::from_secs(0.0),
            probe_after: SimDuration::from_secs(1.0),
            max_probe_shift: 3,
            ..HealthConfig::default()
        };
        let mut h = HealthTracker::new(cfg);
        let mut s = HealthStats::default();
        let perm = Observation {
            dead_gpus: 1,
            severe_fault: true,
            permanent_crash: true,
            ..Observation::default()
        };
        // First observation ejects immediately (permanent crash).
        assert_eq!(h.observe(t(0.0), perm, &mut s), HealthState::Ejected);
        // Walk the probe schedule by observing densely and recording
        // the instants where a probe actually opens.
        let mut probe_times = Vec::new();
        let mut probes_seen = s.probes;
        let mut now = 0.0;
        while probe_times.len() < 8 {
            now += 0.5;
            h.observe(t(now), perm, &mut s);
            if s.probes > probes_seen {
                probes_seen = s.probes;
                probe_times.push(now);
            }
            assert!(now < 200.0, "probe cadence unbounded: {probe_times:?}");
        }
        let gaps: Vec<f64> = probe_times.windows(2).map(|w| w[1] - w[0]).collect();
        // Doubling: 2, 4, 8 … then pinned at 2^3 = 8 s forever.
        let cap = 8.0;
        assert!(
            gaps.iter().rev().take(4).all(|&g| (g - cap).abs() < 0.51),
            "backoff must hold at the cap: {gaps:?}"
        );
        assert!(
            gaps.iter().all(|&g| g <= cap + 0.51),
            "no gap may exceed probe_after << max_probe_shift: {gaps:?}"
        );
        // And the early gaps really did double up to the cap.
        assert!(gaps[0] < gaps[1] && gaps[1] < gaps[2], "{gaps:?}");
    }

    #[test]
    fn gray_window_degrades_then_ejects_after_the_longer_window() {
        let cfg = HealthConfig {
            eject_after: SimDuration::from_secs(2.0),
            gray_eject_after: SimDuration::from_secs(8.0),
            ..HealthConfig::default()
        };
        let mut h = HealthTracker::new(cfg);
        let mut s = HealthStats::default();
        assert_eq!(h.observe(t(1.0), gray(), &mut s), HealthState::Degraded);
        assert_eq!(s.gray_trips, 1);
        assert!(h.state().admits_traffic(), "gray members keep serving");
        // Past the loud eject window but inside the gray one: still
        // only degraded.
        assert_eq!(h.observe(t(5.0), gray(), &mut s), HealthState::Degraded);
        assert_eq!(s.ejections, 0);
        // The gray window finally proves chronic.
        assert_eq!(h.observe(t(9.0), gray(), &mut s), HealthState::Ejected);
        assert_eq!((s.ejections, s.gray_ejections), (1, 1));
        // Probe opens later; a still-gray probe re-ejects, a clean one
        // recovers fully.
        assert_eq!(h.observe(t(11.0), gray(), &mut s), HealthState::Ejected);
        assert_eq!(s.gray_ejections, 2);
        assert_eq!(h.observe(t(20.0), good(), &mut s), HealthState::Healthy);
    }

    #[test]
    fn gray_blip_recovers_without_ejecting() {
        let mut h = HealthTracker::new(HealthConfig::default());
        let mut s = HealthStats::default();
        assert_eq!(h.observe(t(1.0), gray(), &mut s), HealthState::Degraded);
        assert_eq!(h.observe(t(2.0), good(), &mut s), HealthState::Healthy);
        assert_eq!(s.ejections, 0);
        assert_eq!(s.gray_trips, 1);
    }

    #[test]
    fn bad_supersedes_gray_with_the_short_window() {
        let mut h = HealthTracker::new(HealthConfig::default());
        let mut s = HealthStats::default();
        // Gray opens at t=1; a loud fault lands at t=2. The short
        // eject_after (2 s) runs from the bad reading, not the gray one.
        h.observe(t(1.0), gray(), &mut s);
        assert_eq!(h.observe(t(2.0), bad(), &mut s), HealthState::Degraded);
        assert_eq!(h.observe(t(3.0), bad(), &mut s), HealthState::Degraded);
        assert_eq!(h.observe(t(4.0), bad(), &mut s), HealthState::Ejected);
        assert_eq!(s.gray_ejections, 0, "a loud ejection is not gray");
    }

    #[test]
    fn ewma_folds_batch_means_and_ignores_empty_barriers() {
        let mut e = LatencyEwma::new(0.5);
        assert_eq!(e.ttft(), None);
        // Two requests finished with TTFT 1.0 and 3.0 → batch mean 2.0.
        e.sample((2, 4.0, 0, 0.0));
        assert!((e.ttft().unwrap() - 2.0).abs() < 1e-12);
        // An empty barrier moves nothing.
        e.sample((2, 4.0, 0, 0.0));
        assert!((e.ttft().unwrap() - 2.0).abs() < 1e-12);
        // One more finish at TTFT 6.0 → 0.5·6 + 0.5·2 = 4.0.
        e.sample((3, 10.0, 2, 0.1));
        assert!((e.ttft().unwrap() - 4.0).abs() < 1e-12);
        assert!((e.tbt().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn latency_exceeds_flags_only_true_outliers() {
        let mk = |ttft: Option<f64>| {
            let mut e = LatencyEwma::new(0.3);
            if let Some(t) = ttft {
                e.sample((1, t, 0, 0.0));
            }
            e
        };
        let ewmas = vec![mk(Some(1.0)), mk(Some(1.2)), mk(Some(5.0)), mk(None)];
        let flags = latency_exceeds(&ewmas, 2.5);
        assert_eq!(flags, vec![false, false, true, false]);
        // A lone member has no peer group.
        assert_eq!(latency_exceeds(&ewmas[2..3], 2.5), vec![false]);
    }
}
