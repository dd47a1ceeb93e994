//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] is a scripted schedule of [`FaultWindow`]s, each
//! carrying one [`FaultKind`]: an SM brownout, an HBM or NVLink
//! bandwidth degradation, a KV-pool shrink (ECC page retirement), or a
//! kernel-launch latency spike. Plans are pure functions of
//! `(seed, intensity)` drawn through [`simcore::SimRng`] — no wall
//! clock, no global state — so a parallel sweep over faulty runs stays
//! bit-identical at any thread count.
//!
//! The driver applies the active windows to the GPU simulator at each
//! window boundary; engines observe faults only as slowdown (the same
//! no-side-channel rule the contention estimator lives under).
//!
//! # Examples
//!
//! ```
//! use serving::faults::FaultPlan;
//!
//! let plan = FaultPlan::generate(7, 0.5, 60.0, 8);
//! assert_eq!(plan, FaultPlan::generate(7, 0.5, 60.0, 8));
//! assert!(FaultPlan::none().is_empty());
//! ```

use simcore::{SimDuration, SimRng, SimTime};

/// One kind of injected hardware fault.
///
/// Bandwidth fractions are the *remaining* fraction of nominal
/// (`bw_fraction = 0.3` means the resource runs at 30 % speed);
/// `SmBrownout::fraction` and `KvShrink::fraction` are the fraction
/// *lost*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A slice of one GPU's SMs goes offline (or clock-throttles).
    SmBrownout {
        /// The affected GPU index.
        gpu: u32,
        /// Fraction of SMs lost, in `[0, 1)`.
        fraction: f64,
    },
    /// One GPU's HBM runs at a fraction of nominal bandwidth.
    HbmDegrade {
        /// The affected GPU index.
        gpu: u32,
        /// Remaining bandwidth fraction, in `(0, 1]`.
        bw_fraction: f64,
    },
    /// One NVLink link runs at a fraction of nominal bandwidth.
    NvlinkDegrade {
        /// The affected link index (taken modulo the number of links).
        link: usize,
        /// Remaining bandwidth fraction, in `(0, 1]`.
        bw_fraction: f64,
    },
    /// ECC page retirement shrinks every KV pool; in-flight leases must
    /// be evicted or migrated through the
    /// [`LeaseTable`](crate::lease::LeaseTable).
    KvShrink {
        /// Fraction of pool capacity lost, in `[0, 1)`.
        fraction: f64,
    },
    /// Every kernel runs `mult`× slower for `duration` (driver-level
    /// stutter, thermal throttle).
    KernelLatencySpike {
        /// Slowdown multiplier, `>= 1`.
        mult: f64,
        /// How long the spike lasts (also the window length).
        duration: SimDuration,
    },
    /// A GPU dies outright (fail-stop): all its queued and running work
    /// is cancelled, its KV state is lost, and the device comes back
    /// only when the window closes. Unlike the degradations above this
    /// is not recoverable-in-place — victims must be re-materialized on
    /// a survivor (see `serving::recovery`).
    GpuFailStop {
        /// The GPU that dies.
        gpu: u32,
        /// How long the device stays down (also the window length).
        down_for: SimDuration,
    },
    /// A GPU dies and never comes back (XID-79-style fell-off-the-bus).
    /// The window end is a formality — schedule it past the horizon.
    GpuFailStopPermanent {
        /// The GPU that dies.
        gpu: u32,
    },
}

impl FaultKind {
    /// Whether this fault kills a device outright (either fail-stop
    /// variant), returning the victim GPU.
    pub fn fail_stop_gpu(&self) -> Option<u32> {
        match *self {
            FaultKind::GpuFailStop { gpu, .. } | FaultKind::GpuFailStopPermanent { gpu } => {
                Some(gpu)
            }
            _ => None,
        }
    }
}

/// A fault active over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// When the fault begins.
    pub start: SimTime,
    /// When the fault clears.
    pub end: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// A scripted schedule of fault windows, sorted by start time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled windows (sorted by `start`, then `end`).
    pub windows: Vec<FaultWindow>,
}

/// Domain-separation constant mixed into the seed so fault draws never
/// correlate with workload generation from the same seed.
const FAULT_SEED_SALT: u64 = 0xFA17_AB1E_0BAD_CAFE;

/// Separate salt for the fail-stop crash draws: [`FaultPlan::generate`]'s
/// degradation sequence must stay byte-identical whether or not crashes
/// are layered on top, so crashes come from an independent stream.
const CRASH_SEED_SALT: u64 = 0xDEAD_0FA1_7C4A_5555;

impl FaultPlan {
    /// The empty plan: no faults, strict no-op in the driver.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single window (handy for tests).
    pub fn single(kind: FaultKind, start: SimTime, end: SimTime) -> FaultPlan {
        assert!(start < end, "empty fault window");
        FaultPlan {
            windows: vec![FaultWindow { start, end, kind }],
        }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Draws a plan from `(seed, intensity)` over the first `span_secs`
    /// of simulated time on a `num_gpus` server.
    ///
    /// `intensity` in `[0, 1]` scales both the number of windows and
    /// their severity; `0.0` yields the empty plan. The draw is a pure
    /// function of the arguments (via [`SimRng`]), so two calls with
    /// the same inputs produce identical plans on any thread.
    pub fn generate(seed: u64, intensity: f64, span_secs: f64, num_gpus: u32) -> FaultPlan {
        let intensity = intensity.clamp(0.0, 1.0);
        if intensity == 0.0 || span_secs <= 0.0 {
            return FaultPlan::none();
        }
        let mut rng = SimRng::seed_from(seed ^ FAULT_SEED_SALT);
        let count = 1 + (intensity * 4.0).round() as usize;
        let gpus = num_gpus.max(1);
        let mut windows = Vec::with_capacity(count);
        for _ in 0..count {
            let start_s = rng.uniform(0.05, 0.60) * span_secs;
            let len_s = rng.uniform(0.05, 0.10 + 0.20 * intensity) * span_secs;
            // Severity: how much of the resource the window takes away.
            let severity = (intensity * rng.uniform(0.6, 1.0)).clamp(0.0, 0.95);
            let kind = match rng.next_range(5) {
                0 => FaultKind::SmBrownout {
                    gpu: rng.next_range(u64::from(gpus)) as u32,
                    fraction: severity,
                },
                1 => FaultKind::HbmDegrade {
                    gpu: rng.next_range(u64::from(gpus)) as u32,
                    bw_fraction: (1.0 - severity).max(0.05),
                },
                2 => FaultKind::NvlinkDegrade {
                    link: rng.next_range(u64::from(gpus)) as usize,
                    bw_fraction: (1.0 - severity).max(0.05),
                },
                3 => FaultKind::KvShrink {
                    fraction: severity * 0.5,
                },
                _ => FaultKind::KernelLatencySpike {
                    mult: 1.0 + 3.0 * severity,
                    duration: SimDuration::from_secs(len_s),
                },
            };
            let start = SimTime::from_secs(start_s);
            let end = start + SimDuration::from_secs(len_s);
            windows.push(FaultWindow { start, end, kind });
        }
        windows.sort_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
        FaultPlan { windows }
    }

    /// A single fail-stop crash window: `gpu` dies at `start` and
    /// recovers at `start + down_for` (handy for tests and smoke grids).
    pub fn crash(gpu: u32, start: SimTime, down_for: SimDuration) -> FaultPlan {
        FaultPlan::single(
            FaultKind::GpuFailStop { gpu, down_for },
            start,
            start + down_for,
        )
    }

    /// Like [`FaultPlan::generate`] but layers seeded fail-stop crash
    /// windows on top of the degradation schedule. The degradation
    /// windows are **byte-identical** to `generate`'s (the crash draws
    /// come from an independently salted stream), so existing sweeps
    /// keep their schedules and only gain crashes.
    ///
    /// The crash count scales with `intensity` (0 below ~0.25, up to two
    /// crashes at 1.0); each crash takes a uniformly drawn GPU down for
    /// 5–15 % of the span.
    pub fn generate_with_crashes(
        seed: u64,
        intensity: f64,
        span_secs: f64,
        num_gpus: u32,
    ) -> FaultPlan {
        let mut plan = FaultPlan::generate(seed, intensity, span_secs, num_gpus);
        let intensity = intensity.clamp(0.0, 1.0);
        if intensity == 0.0 || span_secs <= 0.0 {
            return plan;
        }
        let mut rng = SimRng::seed_from(seed ^ CRASH_SEED_SALT);
        let crashes = (intensity * 2.0 + 0.5).floor() as usize;
        for _ in 0..crashes {
            let gpu = rng.next_range(u64::from(num_gpus.max(1))) as u32;
            let start_s = rng.uniform(0.10, 0.55) * span_secs;
            let down_s = rng.uniform(0.05, 0.15) * span_secs;
            let down_for = SimDuration::from_secs(down_s);
            let start = SimTime::from_secs(start_s);
            plan.windows.push(FaultWindow {
                start,
                end: start + down_for,
                kind: FaultKind::GpuFailStop { gpu, down_for },
            });
        }
        plan.windows
            .sort_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
        plan
    }

    /// Whether the plan schedules any fail-stop crash.
    pub fn has_fail_stop(&self) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind.fail_stop_gpu().is_some())
    }

    /// The GPUs dead at instant `t` (fail-stop windows covering `t`;
    /// permanent crashes never end within their window by construction).
    pub fn dead_gpus_at(&self, t: SimTime, num_gpus: u32) -> Vec<bool> {
        let mut dead = vec![false; num_gpus as usize];
        for w in &self.windows {
            if w.start <= t && t < w.end {
                if let Some(g) = w.kind.fail_stop_gpu() {
                    if let Some(d) = dead.get_mut(g as usize) {
                        *d = true;
                    }
                }
            }
        }
        dead
    }

    /// All window boundary instants (starts and ends), sorted and
    /// deduplicated — the times at which the driver must re-evaluate
    /// which faults are active.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut ts: Vec<SimTime> = self.windows.iter().flat_map(|w| [w.start, w.end]).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// The faults active at instant `t` (windows are half-open:
    /// `start <= t < end`).
    pub fn active_at(&self, t: SimTime) -> Vec<FaultKind> {
        self.windows
            .iter()
            .filter(|w| w.start <= t && t < w.end)
            .map(|w| w.kind)
            .collect()
    }

    /// The latest window end, if any — after this instant the hardware
    /// is healthy again.
    pub fn last_end(&self) -> Option<SimTime> {
        self.windows.iter().map(|w| w.end).max()
    }

    /// The latest fail-stop window *start*, if any. Unlike
    /// [`FaultPlan::last_end`] this is finite even for permanent crashes
    /// (whose window ends sit past the horizon by construction), so the
    /// fleet uses it to bound how long its failover patrol must keep
    /// observing members after the trace drains.
    pub fn last_fail_stop_start(&self) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| w.kind.fail_stop_gpu().is_some())
            .map(|w| w.start)
            .max()
    }

    /// Whether a [`FaultKind::GpuFailStopPermanent`] window has opened at
    /// or before `t` — the device it names never comes back, so work
    /// buffered behind it can safely be drained elsewhere.
    pub fn permanent_dead_at(&self, t: SimTime) -> bool {
        self.first_permanent_start().is_some_and(|s| s <= t)
    }

    /// When the earliest [`FaultKind::GpuFailStopPermanent`] window
    /// opens, if the plan has one.
    pub fn first_permanent_start(&self) -> Option<SimTime> {
        self.windows
            .iter()
            .filter(|w| matches!(w.kind, FaultKind::GpuFailStopPermanent { .. }))
            .map(|w| w.start)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = FaultPlan::generate(42, 0.7, 120.0, 8);
        let b = FaultPlan::generate(42, 0.7, 120.0, 8);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn zero_intensity_is_empty() {
        assert!(FaultPlan::generate(42, 0.0, 120.0, 8).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn windows_sorted_and_within_span() {
        let plan = FaultPlan::generate(7, 1.0, 100.0, 8);
        let span = SimTime::from_secs(100.0);
        for pair in plan.windows.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        for w in &plan.windows {
            assert!(w.start < w.end);
            assert!(w.start < span, "window starts within the span");
        }
    }

    #[test]
    fn severity_scales_with_intensity() {
        // Higher intensity must never schedule *fewer* windows.
        let low = FaultPlan::generate(3, 0.25, 100.0, 8);
        let high = FaultPlan::generate(3, 1.0, 100.0, 8);
        assert!(high.windows.len() >= low.windows.len());
    }

    #[test]
    fn active_at_respects_half_open_windows() {
        let k = FaultKind::KvShrink { fraction: 0.3 };
        let plan = FaultPlan::single(k, SimTime::from_secs(1.0), SimTime::from_secs(2.0));
        assert!(plan.active_at(SimTime::from_secs(0.5)).is_empty());
        assert_eq!(plan.active_at(SimTime::from_secs(1.0)), vec![k]);
        assert_eq!(plan.active_at(SimTime::from_secs(1.5)), vec![k]);
        assert!(plan.active_at(SimTime::from_secs(2.0)).is_empty());
        assert_eq!(plan.boundaries().len(), 2);
        assert_eq!(plan.last_end(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, 0.8, 100.0, 8);
        let b = FaultPlan::generate(2, 0.8, 100.0, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn crash_generation_leaves_degradation_schedule_untouched() {
        // The crash draws come from a separate salt: stripping the
        // fail-stop windows must recover `generate`'s plan exactly.
        let base = FaultPlan::generate(42, 0.9, 120.0, 8);
        let with = FaultPlan::generate_with_crashes(42, 0.9, 120.0, 8);
        assert!(with.has_fail_stop());
        assert!(!base.has_fail_stop());
        let stripped: Vec<FaultWindow> = with
            .windows
            .iter()
            .filter(|w| w.kind.fail_stop_gpu().is_none())
            .copied()
            .collect();
        let mut want = base.windows.clone();
        want.sort_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
        assert_eq!(stripped, want);
        // And the whole thing is deterministic.
        assert_eq!(with, FaultPlan::generate_with_crashes(42, 0.9, 120.0, 8));
    }

    #[test]
    fn zero_intensity_schedules_no_crashes() {
        assert!(FaultPlan::generate_with_crashes(7, 0.0, 100.0, 8).is_empty());
    }

    #[test]
    fn crash_plan_and_dead_gpu_query() {
        let plan = FaultPlan::crash(3, SimTime::from_secs(2.0), SimDuration::from_secs(4.0));
        assert!(plan.has_fail_stop());
        assert_eq!(plan.last_end(), Some(SimTime::from_secs(6.0)));
        let dead = plan.dead_gpus_at(SimTime::from_secs(3.0), 8);
        assert_eq!(dead.iter().filter(|&&d| d).count(), 1);
        assert!(dead[3]);
        assert!(!plan.dead_gpus_at(SimTime::from_secs(6.0), 8)[3]);
        assert_eq!(
            plan.windows[0].kind.fail_stop_gpu(),
            Some(3),
            "fail_stop_gpu extracts the victim"
        );
        let perm = FaultPlan::single(
            FaultKind::GpuFailStopPermanent { gpu: 1 },
            SimTime::from_secs(1.0),
            SimTime::from_secs(1e6),
        );
        assert!(perm.dead_gpus_at(SimTime::from_secs(500.0), 8)[1]);
    }
}
