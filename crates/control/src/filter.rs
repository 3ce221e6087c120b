//! Signal conditioning: low-pass filtering and windowed statistics.
//!
//! Used by the vehicle substrate (sensor smoothing, actuator lag) and by the
//! scenario metrics (RMS error, discomfort/jerk windows).

use std::collections::VecDeque;

/// Discrete first-order low-pass filter
/// `y[k] = y[k-1] + β·(x[k] − y[k-1])` with `β = dt / (τ + dt)`.
///
/// Also serves as a first-order actuator-lag model (e.g. the scaled car's
/// throttle lag in the hardware testbed).
///
/// # Examples
///
/// ```
/// use hcperf_control::LowPass;
///
/// let mut lp = LowPass::new(0.1);
/// let mut y = 0.0;
/// for _ in 0..200 {
///     y = lp.step(1.0, 0.01);
/// }
/// assert!((y - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowPass {
    time_constant: f64,
    state: f64,
    initialized: bool,
}

impl LowPass {
    /// Creates a filter with time constant `tau` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is negative or non-finite.
    #[must_use]
    pub fn new(tau: f64) -> Self {
        assert!(tau.is_finite() && tau >= 0.0, "tau must be >= 0 and finite");
        LowPass {
            time_constant: tau,
            state: 0.0,
            initialized: false,
        }
    }

    /// Creates a filter pre-seeded at `initial` so the first output does not
    /// jump from zero.
    #[must_use]
    pub fn with_initial(tau: f64, initial: f64) -> Self {
        let mut lp = Self::new(tau);
        lp.state = initial;
        lp.initialized = true;
        lp
    }

    /// Filters one sample over a step of `dt` seconds.
    pub fn step(&mut self, input: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        if !self.initialized {
            self.state = input;
            self.initialized = true;
            return self.state;
        }
        // hcperf-lint: allow(float-eq): τ = 0 is a configured pass-through sentinel, never a computed value
        if self.time_constant == 0.0 {
            self.state = input;
        } else {
            let beta = dt / (self.time_constant + dt);
            self.state += beta * (input - self.state);
        }
        self.state
    }

    /// Returns the current filter state.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Resets to the uninitialized state.
    pub fn reset(&mut self) {
        self.state = 0.0;
        self.initialized = false;
    }
}

/// Sliding-window statistics over the last `capacity` samples.
///
/// Used for RMS tracking errors (Tables II–VI), jerk-based discomfort
/// (Fig. 17) and the adapter's execution-time variance watchdog.
///
/// # Examples
///
/// ```
/// use hcperf_control::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// w.push(3.0);
/// w.push(4.0);
/// assert_eq!(w.mean(), 3.5);
/// assert!((w.rms() - (12.5f64).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    capacity: usize,
    buf: VecDeque<f64>,
}

impl SlidingWindow {
    /// Creates a window holding up to `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Pushes a sample, evicting the oldest if full.
    pub fn push(&mut self, value: f64) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    /// Number of stored samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if no samples are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Returns `true` once the window is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Mean of the stored samples (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.buf.iter().sum::<f64>() / self.buf.len() as f64
    }

    /// Population variance of the stored samples (0 if empty).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.buf.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.buf.len() as f64
    }

    /// Standard deviation of the stored samples.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Root-mean-square of the stored samples (0 if empty).
    #[must_use]
    pub fn rms(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        (self.buf.iter().map(|x| x * x).sum::<f64>() / self.buf.len() as f64).sqrt()
    }

    /// Most recent sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.buf.back().copied()
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Iterates oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_first_sample_passthrough() {
        let mut lp = LowPass::new(1.0);
        assert_eq!(lp.step(5.0, 0.1), 5.0);
    }

    #[test]
    fn lowpass_zero_tau_is_identity() {
        let mut lp = LowPass::new(0.0);
        lp.step(1.0, 0.1);
        assert_eq!(lp.step(7.0, 0.1), 7.0);
    }

    #[test]
    fn lowpass_converges_to_step_input() {
        let mut lp = LowPass::with_initial(0.2, 0.0);
        let mut y = 0.0;
        for _ in 0..1000 {
            y = lp.step(2.0, 0.01);
        }
        assert!((y - 2.0).abs() < 1e-6);
    }

    #[test]
    fn lowpass_time_constant_meaning() {
        // After tau seconds a first-order filter reaches ~63.2 % of a step.
        let tau = 0.5;
        let dt = 0.001;
        let mut lp = LowPass::with_initial(tau, 0.0);
        let steps = (tau / dt) as usize;
        let mut y = 0.0;
        for _ in 0..steps {
            y = lp.step(1.0, dt);
        }
        assert!((y - 0.632).abs() < 0.01, "got {y}");
    }

    #[test]
    fn lowpass_reset() {
        let mut lp = LowPass::new(1.0);
        lp.step(9.0, 0.1);
        lp.reset();
        assert_eq!(lp.value(), 0.0);
        assert_eq!(lp.step(3.0, 0.1), 3.0);
    }

    #[test]
    fn window_eviction_and_stats() {
        let mut w = SlidingWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.last(), Some(4.0));
        assert!(w.is_full());
        let collected: Vec<f64> = w.iter().collect();
        assert_eq!(collected, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn window_variance_and_rms() {
        let mut w = SlidingWindow::new(10);
        for v in [1.0, -1.0, 1.0, -1.0] {
            w.push(v);
        }
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 1.0);
        assert_eq!(w.std_dev(), 1.0);
        assert_eq!(w.rms(), 1.0);
    }

    #[test]
    fn empty_window_stats_are_zero() {
        let w = SlidingWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.rms(), 0.0);
        assert_eq!(w.last(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_window_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn window_clear() {
        let mut w = SlidingWindow::new(2);
        w.push(1.0);
        w.clear();
        assert!(w.is_empty());
    }
}
