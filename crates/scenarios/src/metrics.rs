//! Time-series recording and driving-performance metrics.
//!
//! The evaluation reports RMS tracking errors (Tables II–VI), per-second
//! deadline-miss ratios (Fig. 13d/15d), control response times and a
//! jerk-based passenger-discomfort index (Fig. 17).

use serde::{Deserialize, Serialize};

/// A uniformly or non-uniformly sampled scalar time series.
///
/// # Examples
///
/// ```
/// use hcperf_scenarios::metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new("speed_error");
/// ts.push(0.0, 1.0);
/// ts.push(0.1, -1.0);
/// assert_eq!(ts.rms(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Series name (used as CSV column header).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not monotonically non-decreasing or the value is
    /// not finite.
    pub fn push(&mut self, t: f64, value: f64) {
        assert!(value.is_finite(), "series {}: non-finite value", self.name);
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "series {}: time went backwards", self.name);
        }
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample timestamps.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(t, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Root mean square of all values (0 for an empty series).
    #[must_use]
    pub fn rms(&self) -> f64 {
        rms(&self.values)
    }

    /// RMS restricted to samples with `from <= t < until`.
    #[must_use]
    pub fn rms_between(&self, from: f64, until: f64) -> f64 {
        let vals: Vec<f64> = self
            .iter()
            .filter(|(t, _)| *t >= from && *t < until)
            .map(|(_, v)| v)
            .collect();
        rms(&vals)
    }

    /// Mean of all values (0 for an empty series).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Maximum absolute value (0 for an empty series).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |a, v| a.max(v.abs()))
    }

    /// Last value, if any.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Value at the sample nearest to `t` (`None` for an empty series).
    #[must_use]
    pub fn nearest(&self, t: f64) -> Option<f64> {
        if self.times.is_empty() {
            return None;
        }
        let idx = self
            .times
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - t).abs().total_cmp(&(*b - t).abs()))
            .map(|(i, _)| i)
            .expect("non-empty");
        Some(self.values[idx])
    }

    /// Down-samples into per-`bucket`-second means (e.g. per-second
    /// deadline miss ratios), returning `(bucket_start, mean)` pairs.
    #[must_use]
    pub fn bucket_mean(&self, bucket: f64) -> Vec<(f64, f64)> {
        assert!(bucket > 0.0, "bucket width must be positive");
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut acc = 0.0;
        let mut n = 0usize;
        let mut current = match self.times.first() {
            Some(&t) => (t / bucket).floor() * bucket,
            None => return out,
        };
        for (t, v) in self.iter() {
            let b = (t / bucket).floor() * bucket;
            if (b - current).abs() > 1e-9 {
                if n > 0 {
                    out.push((current, acc / n as f64));
                }
                current = b;
                acc = 0.0;
                n = 0;
            }
            acc += v;
            n += 1;
        }
        if n > 0 {
            out.push((current, acc / n as f64));
        }
        out
    }
}

/// Root mean square of a slice (0 for empty input).
#[must_use]
pub fn rms(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt()
}

/// Passenger-discomfort index over an acceleration series: the RMS *jerk*
/// (derivative of acceleration), following the comfort standards the paper
/// cites (de Winkel et al. — acceleration and jerk drive perceived
/// comfort).
///
/// Returns per-window `(window_start, rms_jerk)` pairs.
#[must_use]
pub fn discomfort_index(accel: &TimeSeries, window: f64) -> Vec<(f64, f64)> {
    assert!(window > 0.0, "window must be positive");
    if accel.len() < 2 {
        return Vec::new();
    }
    let mut jerk = TimeSeries::new("jerk");
    let times = accel.times();
    let values = accel.values();
    for i in 1..accel.len() {
        let dt = times[i] - times[i - 1];
        if dt > 0.0 {
            jerk.push(times[i], (values[i] - values[i - 1]) / dt);
        }
    }
    jerk.bucket_mean(window)
        .iter()
        .map(|&(t, _)| {
            let r = jerk.rms_between(t, t + window);
            (t, r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_of_known_values() {
        let mut ts = TimeSeries::new("x");
        for (i, v) in [3.0, -4.0].iter().enumerate() {
            ts.push(i as f64, *v);
        }
        assert!((ts.rms() - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn empty_series_behaviour() {
        let ts = TimeSeries::new("e");
        assert!(ts.is_empty());
        assert_eq!(ts.rms(), 0.0);
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.last(), None);
        assert_eq!(ts.nearest(1.0), None);
        assert!(ts.bucket_mean(1.0).is_empty());
    }

    #[test]
    fn rms_from_filters_prefix() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 100.0);
        ts.push(10.0, 1.0);
        ts.push(11.0, -1.0);
        assert_eq!(ts.rms_between(10.0, f64::INFINITY), 1.0);
        assert_eq!(ts.rms_between(10.0, 10.5), 1.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn rejects_non_monotone_time() {
        let mut ts = TimeSeries::new("x");
        ts.push(1.0, 0.0);
        ts.push(0.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_values() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, f64::NAN);
    }

    #[test]
    fn bucket_mean_groups_by_window() {
        let mut ts = TimeSeries::new("x");
        for i in 0..10 {
            ts.push(i as f64 * 0.25, (i % 2) as f64);
        }
        let buckets = ts.bucket_mean(1.0);
        assert_eq!(buckets.len(), 3);
        assert!((buckets[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_picks_closest_sample() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 10.0);
        ts.push(1.0, 20.0);
        ts.push(2.0, 30.0);
        assert_eq!(ts.nearest(0.9), Some(20.0));
        assert_eq!(ts.nearest(-5.0), Some(10.0));
        assert_eq!(ts.nearest(100.0), Some(30.0));
    }

    #[test]
    fn discomfort_grows_with_oscillation() {
        // Smooth constant acceleration → near-zero jerk; alternating
        // acceleration → large jerk.
        let mut smooth = TimeSeries::new("a");
        let mut harsh = TimeSeries::new("a");
        for i in 0..100 {
            let t = i as f64 * 0.1;
            smooth.push(t, 1.0);
            harsh.push(t, if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let smooth_d = discomfort_index(&smooth, 1.0);
        let harsh_d = discomfort_index(&harsh, 1.0);
        let s_max = smooth_d.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        let h_max = harsh_d.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(s_max < 1e-9);
        assert!(h_max > 10.0);
    }

    #[test]
    fn max_abs_tracks_extremes() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, -7.0);
        ts.push(1.0, 3.0);
        assert_eq!(ts.max_abs(), 7.0);
    }
}
