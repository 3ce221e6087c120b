//! Obstacle-load profiles.
//!
//! The number of detected obstacles is the environmental input that inflates
//! load-dependent execution times (§ II: vehicles and pedestrians waiting at
//! a red light; § VII-C: a traffic jam). A [`LoadProfile`] maps simulation
//! time to an obstacle count the scenario feeds into
//! [`ExecContext::load`](crate::exec::ExecContext): a constant, a linear
//! ramp, or piecewise-constant segments (a pulse is three segments, and
//! [`LoadProfile::bursts`] builds periodic ones).

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A deterministic obstacle count over time.
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::LoadProfile;
/// use hcperf_taskgraph::time::SimTime;
///
/// // 12 obstacles during [10 s, 20 s), 2 before and after.
/// let profile = LoadProfile::piecewise(vec![
///     (SimTime::ZERO, 2.0),
///     (SimTime::from_secs(10.0), 12.0),
///     (SimTime::from_secs(20.0), 2.0),
/// ]);
/// assert_eq!(profile.at(SimTime::from_secs(5.0)), 2.0);
/// assert_eq!(profile.at(SimTime::from_secs(15.0)), 12.0);
/// assert_eq!(profile.at(SimTime::from_secs(25.0)), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadProfile {
    /// Constant obstacle count.
    Constant {
        /// The count.
        value: f64,
    },
    /// Linear ramp from `(t0, v0)` to `(t1, v1)`, clamped outside.
    Ramp {
        /// Ramp start time.
        t0: SimTime,
        /// Value at and before `t0`.
        v0: f64,
        /// Ramp end time.
        t1: SimTime,
        /// Value at and after `t1`.
        v1: f64,
    },
    /// Piecewise-constant segments `(start, value)` sorted by start time.
    /// Before the first start the first value applies.
    Piecewise {
        /// Breakpoints as `(start_time, value)` pairs, ascending in time.
        segments: Vec<(SimTime, f64)>,
    },
}

impl LoadProfile {
    /// A constant load.
    #[must_use]
    pub fn constant(value: f64) -> Self {
        LoadProfile::Constant { value }
    }

    /// A linear ramp between two time/value points.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0`.
    #[must_use]
    pub fn ramp(t0: SimTime, v0: f64, t1: SimTime, v1: f64) -> Self {
        assert!(t1 > t0, "ramp requires t1 > t0");
        LoadProfile::Ramp { t0, v0, t1, v1 }
    }

    /// Periodic rectangular bursts: `peak` for `duration` seconds starting
    /// at `first` and every `every` seconds after, `base` otherwise, until
    /// `until`. Models recurring scene complexity spikes (clusters of
    /// vehicles/pedestrians entering the sensor range).
    ///
    /// # Panics
    ///
    /// Panics unless `every > duration > 0`.
    #[must_use]
    pub fn bursts(
        base: f64,
        peak: f64,
        first: SimTime,
        every: f64,
        duration: f64,
        until: SimTime,
    ) -> Self {
        assert!(
            duration > 0.0 && every > duration,
            "need every > duration > 0"
        );
        let mut segments = vec![(SimTime::from_secs(f64::MIN.max(-1e12)), base)];
        let mut t = first;
        while t < until {
            segments.push((t, peak));
            segments.push((t + crate::time::SimSpan::from_secs(duration), base));
            t += crate::time::SimSpan::from_secs(every);
        }
        LoadProfile::piecewise(segments)
    }

    /// A piecewise-constant profile.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or not sorted by start time.
    #[must_use]
    pub fn piecewise(segments: Vec<(SimTime, f64)>) -> Self {
        assert!(!segments.is_empty(), "piecewise profile needs >= 1 segment");
        assert!(
            segments.windows(2).all(|w| w[0].0 <= w[1].0),
            "piecewise segments must be sorted by start time"
        );
        LoadProfile::Piecewise { segments }
    }

    /// Evaluates the obstacle count at time `t` (always >= 0).
    #[must_use]
    pub fn at(&self, t: SimTime) -> f64 {
        let v = match self {
            LoadProfile::Constant { value } => *value,
            LoadProfile::Ramp { t0, v0, t1, v1 } => {
                if t <= *t0 {
                    *v0
                } else if t >= *t1 {
                    *v1
                } else {
                    let frac = (t - *t0).as_secs() / (*t1 - *t0).as_secs();
                    v0 + frac * (v1 - v0)
                }
            }
            LoadProfile::Piecewise { segments } => {
                let mut current = segments[0].1;
                for (start, value) in segments {
                    if t >= *start {
                        current = *value;
                    } else {
                        break;
                    }
                }
                current
            }
        };
        v.max(0.0)
    }
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile::constant(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = LoadProfile::constant(4.0);
        assert_eq!(p.at(SimTime::ZERO), 4.0);
        assert_eq!(p.at(SimTime::from_secs(100.0)), 4.0);
    }

    #[test]
    fn ramp_interpolates_and_clamps() {
        let p = LoadProfile::ramp(SimTime::from_secs(5.0), 0.0, SimTime::from_secs(15.0), 10.0);
        assert_eq!(p.at(SimTime::ZERO), 0.0);
        assert_eq!(p.at(SimTime::from_secs(10.0)), 5.0);
        assert_eq!(p.at(SimTime::from_secs(20.0)), 10.0);
    }

    #[test]
    fn pulse_window_boundaries() {
        // A pulse: 9 during [10 s, 20 s), 1 before and after.
        let p = LoadProfile::piecewise(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(10.0), 9.0),
            (SimTime::from_secs(20.0), 1.0),
        ]);
        assert_eq!(p.at(SimTime::from_secs(-1.0)), 1.0);
        assert_eq!(p.at(SimTime::from_secs(9.999)), 1.0);
        assert_eq!(p.at(SimTime::from_secs(10.0)), 9.0);
        assert_eq!(p.at(SimTime::from_secs(19.999)), 9.0);
        assert_eq!(p.at(SimTime::from_secs(20.0)), 1.0);
    }

    #[test]
    fn piecewise_steps() {
        let p = LoadProfile::piecewise(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(10.0), 8.0),
            (SimTime::from_secs(30.0), 3.0),
        ]);
        assert_eq!(p.at(SimTime::from_secs(-1.0)), 2.0);
        assert_eq!(p.at(SimTime::from_secs(5.0)), 2.0);
        assert_eq!(p.at(SimTime::from_secs(10.0)), 8.0);
        assert_eq!(p.at(SimTime::from_secs(29.0)), 8.0);
        assert_eq!(p.at(SimTime::from_secs(31.0)), 3.0);
    }

    #[test]
    fn never_negative() {
        let p = LoadProfile::constant(-5.0);
        assert_eq!(p.at(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn piecewise_rejects_unsorted() {
        let _ = LoadProfile::piecewise(vec![(SimTime::from_secs(10.0), 1.0), (SimTime::ZERO, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "t1 > t0")]
    fn ramp_rejects_inverted_times() {
        let _ = LoadProfile::ramp(SimTime::from_secs(5.0), 0.0, SimTime::from_secs(5.0), 1.0);
    }
}
