//! Simulated time as integer nanoseconds.
//!
//! All scheduling decisions in the simulator compare and order timestamps,
//! so time is stored as a `u64` nanosecond count: total ordering is exact
//! and the event queue is deterministic. Rate arithmetic (FLOPs / FLOPs-per
//! -second, bytes / bandwidth) happens in `f64` seconds and converts at the
//! boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second, as `f64` for conversions.
const NANOS_PER_SEC: f64 = 1e9;

/// An absolute instant in simulated time (nanoseconds since simulation
/// start).
///
/// # Examples
///
/// ```
/// use simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(1.5);
/// assert_eq!(t.as_secs(), 0.0015);
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
///
/// # Examples
///
/// ```
/// use simcore::SimDuration;
/// let d = SimDuration::from_micros(500.0);
/// assert_eq!(d.as_millis(), 0.5);
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far"
    /// sentinel for idle schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a floating-point number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(secs.is_finite() && secs >= 0.0, "invalid sim time: {secs}");
        SimTime((secs * NANOS_PER_SEC).round() as u64)
    }

    /// Creates an instant from an integer nanosecond count.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// This instant as floating-point seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// This instant as milliseconds since simulation start.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "time went backwards: {earlier} > {self}");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from floating-point seconds.
    ///
    /// Non-finite or negative inputs are clamped: negatives and NaN become
    /// zero, `+inf` becomes [`SimDuration::MAX`]. Rate arithmetic routinely
    /// produces tiny negative values or infinities at boundary conditions
    /// (e.g. zero remaining work, zero rate) and the clamp keeps the
    /// simulator total.
    pub fn from_secs(secs: f64) -> SimDuration {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        if secs.is_infinite() || secs * NANOS_PER_SEC >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        SimDuration((secs * NANOS_PER_SEC).round() as u64)
    }

    /// Creates a duration from floating-point milliseconds.
    pub fn from_millis(ms: f64) -> SimDuration {
        SimDuration::from_secs(ms / 1e3)
    }

    /// Creates a duration from floating-point microseconds.
    pub fn from_micros(us: f64) -> SimDuration {
        SimDuration::from_secs(us / 1e6)
    }

    /// Creates a duration from an integer nanosecond count.
    pub const fn from_nanos(nanos: u64) -> SimDuration {
        SimDuration(nanos)
    }

    /// This duration as floating-point seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// This duration as floating-point milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Step `k` of an exponential backoff from this base: `self × 2^k`,
    /// saturating at [`SimDuration::MAX`]. Callers cap `k` themselves.
    pub fn doubled(self, k: u32) -> SimDuration {
        // Past 2^63 the factor itself saturates; the product follows.
        let factor = 1u64.checked_shl(k).unwrap_or(u64::MAX);
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.as_secs() * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.as_secs() / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs(1.234567891);
        assert!((t.as_secs() - 1.234567891).abs() < 1e-9);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(1.0 + 1e-9);
        assert!(a < b);
        assert_eq!(a, SimTime::from_nanos(1_000_000_000));
    }

    #[test]
    fn duration_clamps_negative_and_nan() {
        assert_eq!(SimDuration::from_secs(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(2.0);
        let d = SimDuration::from_millis(250.0);
        assert_eq!((t + d).as_secs(), 2.25);
        assert_eq!((t - d).as_secs(), 1.75);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(SimTime::ZERO).as_secs(), 2.0);
    }

    #[test]
    fn backoff_steps_double_and_saturate_at_max() {
        let base = SimDuration::from_millis(250.0);
        assert_eq!(base.doubled(0), base);
        assert_eq!(base.doubled(3), SimDuration::from_secs(2.0));
        let ns = SimDuration::from_nanos(1);
        assert_eq!(ns.doubled(63), SimDuration::from_nanos(1 << 63));
        assert_eq!(ns.doubled(64), SimDuration::MAX);
        assert_eq!(base.doubled(40), SimDuration::MAX);
        assert_eq!(base.doubled(u32::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::MAX.doubled(1), SimDuration::MAX);
        assert_eq!(SimDuration::ZERO.doubled(u32::MAX), SimDuration::ZERO);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1.0), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1.0), SimTime::ZERO);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_secs(1.0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(1.5)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(1.5)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
    }

    #[test]
    fn scalar_mul_div() {
        let d = SimDuration::from_millis(100.0);
        assert_eq!((d * 2.0).as_millis(), 200.0);
        assert_eq!((d / 4.0).as_millis(), 25.0);
    }
}
