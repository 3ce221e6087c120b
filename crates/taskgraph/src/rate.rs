//! Release rates for source tasks.
//!
//! The paper's external coordinator tunes the release rate `r_i` of each
//! source task within an allowable range `[r_i^min, r_i^max]` (Eq. 1c), e.g.
//! `[10 Hz, 100 Hz]` for GPS/IMU.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimSpan;

/// A release rate in Hertz.
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::Rate;
///
/// let r = Rate::from_hz(20.0);
/// assert_eq!(r.period().as_millis(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rate(f64);

impl Rate {
    /// Creates a rate from Hertz.
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
        Rate(hz)
    }

    /// Returns the rate in Hertz.
    #[must_use]
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// Returns the release period `1/r`.
    #[must_use]
    pub fn period(self) -> SimSpan {
        SimSpan::from_hz(self.0)
    }

    /// Returns this rate scaled by `factor`, which must yield a positive rate.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Rate {
        Rate::from_hz(self.0 * factor)
    }
}

impl Eq for Rate {}
impl Ord for Rate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for Rate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Hz", self.0)
    }
}

/// Inclusive allowable rate range `[min, max]` for a source task.
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::{Rate, RateRange};
///
/// let range = RateRange::new(Rate::from_hz(10.0), Rate::from_hz(100.0)).unwrap();
/// assert_eq!(range.clamp(Rate::from_hz(500.0)), Rate::from_hz(100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateRange {
    min: Rate,
    max: Rate,
}

/// Error returned by [`RateRange::new`] when `min > max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRateRange {
    /// Requested lower bound.
    pub min: Rate,
    /// Requested upper bound.
    pub max: Rate,
}

impl fmt::Display for InvalidRateRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rate range: min {} > max {}", self.min, self.max)
    }
}

impl std::error::Error for InvalidRateRange {}

impl RateRange {
    /// Creates a range, validating `min <= max`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateRange`] if `min > max`.
    pub fn new(min: Rate, max: Rate) -> Result<Self, InvalidRateRange> {
        if min > max {
            return Err(InvalidRateRange { min, max });
        }
        Ok(RateRange { min, max })
    }

    /// Convenience constructor from raw Hertz values.
    ///
    /// # Panics
    ///
    /// Panics if the values are non-positive, non-finite, or `min > max`.
    #[must_use]
    pub fn from_hz(min_hz: f64, max_hz: f64) -> Self {
        Self::new(Rate::from_hz(min_hz), Rate::from_hz(max_hz))
            .expect("rate range bounds must satisfy min <= max")
    }

    /// Returns the lower bound.
    #[must_use]
    pub fn min(self) -> Rate {
        self.min
    }

    /// Returns the upper bound.
    #[must_use]
    pub fn max(self) -> Rate {
        self.max
    }

    /// Clamps a rate into the range.
    #[must_use]
    pub fn clamp(self, rate: Rate) -> Rate {
        if rate < self.min {
            self.min
        } else if rate > self.max {
            self.max
        } else {
            rate
        }
    }

    /// Returns `true` if the rate lies inside the range (inclusive).
    #[must_use]
    pub fn contains(self, rate: Rate) -> bool {
        rate >= self.min && rate <= self.max
    }

    /// Returns the midpoint of the range.
    #[must_use]
    pub fn midpoint(self) -> Rate {
        Rate::from_hz(0.5 * (self.min.as_hz() + self.max.as_hz()))
    }

    /// Linearly interpolates inside the range; `t = 0` gives `min`,
    /// `t = 1` gives `max`. `t` is clamped to `[0, 1]`.
    #[must_use]
    pub fn lerp(self, t: f64) -> Rate {
        let t = t.clamp(0.0, 1.0);
        Rate::from_hz(self.min.as_hz() + t * (self.max.as_hz() - self.min.as_hz()))
    }
}

impl fmt::Display for RateRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_period_round_trip() {
        let r = Rate::from_hz(50.0);
        assert_eq!(Rate::from_hz(1.0 / r.period().as_secs()), r);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Rate::from_hz(0.0);
    }

    #[test]
    fn range_rejects_inverted_bounds() {
        let err = RateRange::new(Rate::from_hz(100.0), Rate::from_hz(10.0)).unwrap_err();
        assert_eq!(err.min, Rate::from_hz(100.0));
    }

    #[test]
    fn clamp_and_contains() {
        let range = RateRange::from_hz(10.0, 100.0);
        assert_eq!(range.clamp(Rate::from_hz(5.0)), Rate::from_hz(10.0));
        assert_eq!(range.clamp(Rate::from_hz(50.0)), Rate::from_hz(50.0));
        assert_eq!(range.clamp(Rate::from_hz(500.0)), Rate::from_hz(100.0));
        assert!(range.contains(Rate::from_hz(10.0)));
        assert!(range.contains(Rate::from_hz(100.0)));
        assert!(!range.contains(Rate::from_hz(101.0)));
    }

    #[test]
    fn lerp_endpoints_and_clamping() {
        let range = RateRange::from_hz(10.0, 100.0);
        assert_eq!(range.lerp(0.0), Rate::from_hz(10.0));
        assert_eq!(range.lerp(1.0), Rate::from_hz(100.0));
        assert_eq!(range.lerp(-3.0), Rate::from_hz(10.0));
        assert_eq!(range.lerp(9.0), Rate::from_hz(100.0));
        assert_eq!(range.midpoint(), Rate::from_hz(55.0));
    }

    #[test]
    fn scaled_rate() {
        assert_eq!(Rate::from_hz(20.0).scaled(2.0), Rate::from_hz(40.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rate::from_hz(20.0)), "20.000Hz");
        let range = RateRange::from_hz(10.0, 100.0);
        assert_eq!(format!("{range}"), "[10.000Hz, 100.000Hz]");
    }
}
