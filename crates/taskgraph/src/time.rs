//! Simulation time primitives.
//!
//! The simulator uses continuous time measured in seconds, backed by `f64`.
//! Two newtypes keep absolute instants and durations from being confused
//! ([`SimTime`] vs [`SimSpan`]); both are validated to be finite, which lets
//! them carry a total order.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute instant on the simulation clock, in seconds since start.
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::time::{SimTime, SimSpan};
///
/// let t = SimTime::from_secs(2.0) + SimSpan::from_millis(500.0);
/// assert_eq!(t.as_secs(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimTime(f64);

/// A span of simulation time, in seconds. May be negative (a signed delta).
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::time::SimSpan;
///
/// let d = SimSpan::from_millis(20.0);
/// assert!(d < SimSpan::from_millis(40.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSpan(f64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds since the simulation epoch.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not finite.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimTime must be finite, got {secs}");
        SimTime(secs)
    }

    /// Creates an instant from milliseconds since the simulation epoch.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is not finite.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1e3)
    }

    /// Returns the instant as seconds since the epoch.
    #[must_use]
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the instant as milliseconds since the epoch.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimSpan {
    /// The zero-length span.
    pub const ZERO: SimSpan = SimSpan(0.0);

    /// Creates a span from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not finite.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimSpan must be finite, got {secs}");
        SimSpan(secs)
    }

    /// [`from_secs`](Self::from_secs) for constants: a non-finite `secs`
    /// fails the build instead of panicking at run time.
    #[must_use]
    pub const fn from_secs_const(secs: f64) -> Self {
        assert!(secs.is_finite(), "SimSpan must be finite");
        SimSpan(secs)
    }

    /// Creates a span from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is not finite.
    #[must_use]
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1e3)
    }

    /// Creates a span from a rate in Hertz: the period `1/hz`.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    #[must_use]
    pub fn from_hz(hz: f64) -> Self {
        assert!(
            hz.is_finite() && hz > 0.0,
            "rate must be positive and finite, got {hz}"
        );
        SimSpan(1.0 / hz)
    }

    /// Returns the span in seconds.
    #[must_use]
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the span in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Returns `true` if the span is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns the span clamped to be non-negative.
    #[must_use]
    pub fn clamp_non_negative(self) -> SimSpan {
        if self.0 < 0.0 {
            SimSpan::ZERO
        } else {
            self
        }
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: SimSpan) -> SimSpan {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    #[must_use]
    pub fn min(self, other: SimSpan) -> SimSpan {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the absolute value of the span.
    #[must_use]
    pub fn abs(self) -> SimSpan {
        SimSpan(self.0.abs())
    }
}

// Both types are validated finite at construction, so `partial_cmp` never
// fails and a total order is sound.
impl Eq for SimTime {}
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Eq for SimSpan {}
impl Ord for SimSpan {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for SimSpan {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}
impl Default for SimSpan {
    fn default() -> Self {
        SimSpan::ZERO
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}
impl AddAssign<SimSpan> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}
impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime::from_secs(self.0 - rhs.0)
    }
}
impl SubAssign<SimSpan> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimSpan {
        SimSpan::from_secs(self.0 - rhs.0)
    }
}
impl Add for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan::from_secs(self.0 + rhs.0)
    }
}
impl AddAssign for SimSpan {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}
impl Sub for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan::from_secs(self.0 - rhs.0)
    }
}
impl SubAssign for SimSpan {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}
impl Mul<f64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn mul(self, rhs: f64) -> SimSpan {
        SimSpan::from_secs(self.0 * rhs)
    }
}
impl Div<f64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn div(self, rhs: f64) -> SimSpan {
        SimSpan::from_secs(self.0 / rhs)
    }
}
impl Div for SimSpan {
    /// Ratio of two spans.
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimSpan) -> f64 {
        self.0 / rhs.0
    }
}
impl Neg for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn neg(self) -> SimSpan {
        SimSpan::from_secs(-self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}
impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 1.0 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.6}s", self.0)
        }
    }
}

impl std::hash::Hash for SimTime {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl std::hash::Hash for SimSpan {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(1.5);
        let d = SimSpan::from_millis(250.0);
        assert_eq!((t + d).as_secs(), 1.75);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn span_from_hz_is_period() {
        assert!((SimSpan::from_hz(20.0).as_secs() - 0.05).abs() < 1e-12);
        assert!((SimSpan::from_hz(100.0).as_millis() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn span_from_zero_hz_panics() {
        let _ = SimSpan::from_hz(0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(-1.0),
            SimTime::ZERO,
        ];
        v.sort();
        assert_eq!(v[0], SimTime::from_secs(-1.0));
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }

    #[test]
    fn negative_span_detection_and_clamp() {
        let d = SimTime::from_secs(1.0) - SimTime::from_secs(2.0);
        assert!(d.is_negative());
        assert_eq!(d.clamp_non_negative(), SimSpan::ZERO);
        assert_eq!(d.abs(), SimSpan::from_secs(1.0));
    }

    #[test]
    fn min_max_pick_correct_endpoints() {
        let a = SimSpan::from_millis(10.0);
        let b = SimSpan::from_millis(20.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_secs(1.0);
        let tb = SimTime::from_secs(2.0);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimSpan::from_millis(20.0)), "20.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.000000s");
    }

    #[test]
    fn span_scaling() {
        let d = SimSpan::from_secs(2.0);
        assert_eq!((d * 2.0).as_secs(), 4.0);
        assert_eq!((d / 2.0).as_secs(), 1.0);
        assert_eq!(d / SimSpan::from_secs(0.5), 4.0);
        assert_eq!((-d).as_secs(), -2.0);
    }
}
