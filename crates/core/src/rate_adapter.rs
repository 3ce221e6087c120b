//! The Task Rate Adapter (§ VI) — the external coordinator.
//!
//! A proportional feedback controller on the system deadline-miss ratio.
//! Each control period `k`:
//!
//! ```text
//! e(k)   = m_t − m(k)            (target minus measured miss ratio;
//!                                 a small positive value when m(k) = 0)
//! r_out  = K_p·e(k) + r(k)       (paper Eq. 13, applied jointly to all
//!                                 source rates)
//! ```
//!
//! * `e(k) < 0` → overloaded → reduce rates;
//! * `e(k) > 0` → headroom → raise rates to improve command throughput.
//!
//! `K_p` starts at its offline-profiled value (1.0) and decays
//! geometrically as the system stabilizes, down to a floor of 10⁻³, so the
//! rates settle; it resets to the profiled value when an execution-time
//! signal departs from the mean of the last 10 by more than the reset
//! threshold (the paper's regime-change watchdog).
//! Each source's rate stays inside its allowable range (Eq. 1c). The gain
//! is normalized per-source by the width of its range so sources with wide
//! and narrow ranges move proportionally.

use hcperf_control::SlidingWindow;
use hcperf_taskgraph::{Rate, RateRange, TaskId};

/// Offline-profiled `K_p`: its value at start-up and after every reset.
const INITIAL_GAIN: f64 = 1.0;

/// Floor of `K_p`'s decay; the gain counts as settled there.
const MIN_GAIN: f64 = 1e-3;

/// Periods in the execution-time watchdog's window.
const WATCHDOG_WINDOW: usize = 10;

/// Configuration of the Task Rate Adapter.
///
/// The rest of the Eq. 13 gain schedule is fixed: `K_p` is 1.0 at start-up
/// and after every reset, its decay stops at 10⁻³, and the watchdog window
/// is 10 periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateAdapterConfig {
    /// Target deadline-miss ratio `m_t`.
    pub target_miss_ratio: f64,
    /// Value used for `e(k)` when the measured miss ratio is exactly zero
    /// (the paper's "pre-defined small positive value") — this is what keeps
    /// rates climbing while the system has headroom.
    pub zero_miss_bonus: f64,
    /// Multiplicative decay of `K_p` per period while the system is stable.
    pub gain_decay: f64,
    /// Relative change in the execution-time signal that triggers a `K_p`
    /// reset (regime-change watchdog).
    pub reset_threshold: f64,
    /// Miss ratio at or above which the adapter enters degraded mode
    /// for the period. The default (`f64::INFINITY`) never degrades, so
    /// existing configurations behave exactly as before.
    pub degraded_miss_threshold: f64,
    /// Fraction of each source's allowable span kept as a minimum
    /// service rate while degraded: the adapted rate is floored at
    /// `min + frac·(max − min)` instead of collapsing to `min`. `0.0`
    /// (the default) keeps the historical clamp.
    pub rate_floor_frac: f64,
}

impl RateAdapterConfig {
    /// The default configuration as a constant.
    pub const DEFAULT: RateAdapterConfig = RateAdapterConfig {
        target_miss_ratio: 0.005,
        zero_miss_bonus: 0.02,
        gain_decay: 0.97,
        reset_threshold: 0.25,
        degraded_miss_threshold: f64::INFINITY,
        rate_floor_frac: 0.0,
    };
}

impl Default for RateAdapterConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// One adjustable source task: its identity and allowable range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceSlot {
    /// The source task.
    pub task: TaskId,
    /// Its allowable rate range.
    pub range: RateRange,
}

/// The Task Rate Adapter.
///
/// # Examples
///
/// ```
/// use hcperf::rate_adapter::{RateAdapterConfig, SourceSlot, TaskRateAdapter};
/// use hcperf_taskgraph::{Rate, RateRange, TaskId};
///
/// let sources = vec![SourceSlot {
///     task: TaskId::new(0),
///     range: RateRange::from_hz(10.0, 100.0),
/// }];
/// let mut tra = TaskRateAdapter::new(RateAdapterConfig::default(), sources);
/// // Zero misses: rates climb.
/// let rates = tra.step(0.0, 1.0, &[(TaskId::new(0), Rate::from_hz(10.0))]);
/// assert!(rates[0].1 > Rate::from_hz(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct TaskRateAdapter {
    config: RateAdapterConfig,
    sources: Vec<SourceSlot>,
    gain: f64,
    exec_watchdog: SlidingWindow,
    resets: u64,
    degraded: bool,
}

impl TaskRateAdapter {
    /// Creates an adapter over the given source tasks.
    #[must_use]
    pub fn new(config: RateAdapterConfig, sources: Vec<SourceSlot>) -> Self {
        TaskRateAdapter {
            gain: INITIAL_GAIN,
            exec_watchdog: SlidingWindow::new(WATCHDOG_WINDOW),
            resets: 0,
            degraded: false,
            config,
            sources,
        }
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> RateAdapterConfig {
        self.config
    }

    /// The current proportional gain `K_p`.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// How many times the watchdog reset `K_p`.
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// The managed source slots.
    #[must_use]
    pub fn sources(&self) -> &[SourceSlot] {
        &self.sources
    }

    /// `true` while the adapter is in degraded mode: the last observed
    /// miss ratio was at or above
    /// [`RateAdapterConfig::degraded_miss_threshold`], so adapted rates
    /// are being floored rather than driven to their range minimum.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Advances one external-coordinator period.
    ///
    /// * `miss_ratio` — measured `m(k)` over the last window;
    /// * `exec_signal` — a scalar summarizing current task execution times
    ///   (e.g. the observed sensor-fusion time, or mean observed execution
    ///   time); feeds the regime-change watchdog;
    /// * `current` — current `(task, rate)` pairs for the managed sources.
    ///
    /// Returns the adapted rates `r_out`, clamped into each allowable range.
    ///
    /// # Panics
    ///
    /// Panics if `current` does not cover every managed source.
    pub fn step(
        &mut self,
        miss_ratio: f64,
        exec_signal: f64,
        current: &[(TaskId, Rate)],
    ) -> Vec<(TaskId, Rate)> {
        self.watchdog(exec_signal);
        self.degraded = miss_ratio >= self.config.degraded_miss_threshold;
        // e(k) = m_t − m(k), with the zero-miss bonus.
        // hcperf-lint: allow(float-eq): the zero-miss bonus applies only to an exact 0/n window count
        let error = if miss_ratio == 0.0 {
            self.config.zero_miss_bonus
        } else {
            self.config.target_miss_ratio - miss_ratio
        };
        let out = self
            .sources
            .iter()
            .map(|slot| {
                let (_, rate) = current
                    .iter()
                    .find(|(t, _)| *t == slot.task)
                    .unwrap_or_else(|| panic!("no current rate supplied for {}", slot.task));
                // Per-source normalization: K_p·e(k) moves the rate by a
                // fraction of the allowable span.
                let span = slot.range.max().as_hz() - slot.range.min().as_hz();
                let next = rate.as_hz() + self.gain * error * span;
                let next = next.clamp(slot.range.min().as_hz(), slot.range.max().as_hz());
                // Graceful degradation: under an extreme miss ratio the
                // proportional loop would starve the pipeline at the
                // range minimum; keep a configured minimum service rate
                // instead so the vehicle retains sensing while faulted.
                let next = if self.degraded {
                    let floor = slot.range.min().as_hz()
                        + self.config.rate_floor_frac.clamp(0.0, 1.0) * span;
                    next.max(floor)
                } else {
                    next
                };
                (slot.task, Rate::from_hz(next))
            })
            .collect();
        // K_p decays while stable so the rates settle (paper § VI step 2).
        self.gain = (self.gain * self.config.gain_decay).max(MIN_GAIN);
        out
    }

    /// Resets `K_p` to its offline-profiled value (also invoked internally
    /// by the watchdog).
    pub fn reset_gain(&mut self) {
        self.gain = INITIAL_GAIN;
        self.resets += 1;
    }

    fn watchdog(&mut self, exec_signal: f64) {
        let mean_before = self.exec_watchdog.mean();
        let warm = self.exec_watchdog.is_full();
        self.exec_watchdog.push(exec_signal);
        if !warm || mean_before.abs() < 1e-12 {
            return;
        }
        let relative = (exec_signal - mean_before).abs() / mean_before.abs();
        if relative > self.config.reset_threshold {
            self.reset_gain();
            self.exec_watchdog.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapter() -> TaskRateAdapter {
        TaskRateAdapter::new(
            RateAdapterConfig::default(),
            vec![
                SourceSlot {
                    task: TaskId::new(0),
                    range: RateRange::from_hz(10.0, 100.0),
                },
                SourceSlot {
                    task: TaskId::new(1),
                    range: RateRange::from_hz(20.0, 40.0),
                },
            ],
        )
    }

    fn rates(a: f64, b: f64) -> Vec<(TaskId, Rate)> {
        vec![
            (TaskId::new(0), Rate::from_hz(a)),
            (TaskId::new(1), Rate::from_hz(b)),
        ]
    }

    #[test]
    fn zero_misses_raise_rates() {
        let mut tra = adapter();
        let out = tra.step(0.0, 1.0, &rates(10.0, 20.0));
        assert!(out[0].1 > Rate::from_hz(10.0));
        assert!(out[1].1 > Rate::from_hz(20.0));
        // Wider range moves further in absolute Hz.
        let d0 = out[0].1.as_hz() - 10.0;
        let d1 = out[1].1.as_hz() - 20.0;
        assert!(d0 > d1);
    }

    #[test]
    fn overload_reduces_rates() {
        let mut tra = adapter();
        let out = tra.step(0.5, 1.0, &rates(50.0, 30.0));
        assert!(out[0].1 < Rate::from_hz(50.0));
        assert!(out[1].1 < Rate::from_hz(30.0));
    }

    #[test]
    fn rates_stay_in_range() {
        let mut tra = adapter();
        // Massive overload: rates clamp at the minimum.
        let out = tra.step(1.0, 1.0, &rates(10.0, 20.0));
        assert_eq!(out[0].1, Rate::from_hz(10.0));
        assert_eq!(out[1].1, Rate::from_hz(20.0));
        // Perfect behaviour: rates clamp at the maximum eventually.
        let mut cur = rates(90.0, 39.0);
        for _ in 0..50 {
            cur = tra.step(0.0, 1.0, &cur);
        }
        assert_eq!(cur[0].1, Rate::from_hz(100.0));
        assert_eq!(cur[1].1, Rate::from_hz(40.0));
    }

    #[test]
    fn gain_decays_and_rates_settle() {
        let mut tra = adapter();
        let g0 = tra.gain();
        for _ in 0..300 {
            let _ = tra.step(0.0, 1.0, &rates(50.0, 30.0));
        }
        assert!(tra.gain() < g0 * 0.01, "gain should decay, {}", tra.gain());
        // 0.97^300 ≈ 1e-4: the decay has reached the floor.
        assert_eq!(tra.gain(), MIN_GAIN);
        // With tiny gain the step barely moves the rates.
        let out = tra.step(0.0, 1.0, &rates(50.0, 30.0));
        assert!((out[0].1.as_hz() - 50.0).abs() < 0.01);
    }

    #[test]
    fn watchdog_resets_gain_on_regime_change() {
        let mut tra = adapter();
        // Stabilize on a 20 ms execution signal.
        for _ in 0..50 {
            let _ = tra.step(0.0, 0.020, &rates(50.0, 30.0));
        }
        let decayed = tra.gain();
        assert!(decayed < 0.5);
        assert_eq!(tra.resets(), 0);
        // Execution time doubles (the paper's 20 ms → 40 ms step): reset.
        let _ = tra.step(0.0, 0.040, &rates(50.0, 30.0));
        assert_eq!(tra.resets(), 1);
        assert_eq!(tra.gain(), INITIAL_GAIN * tra.config().gain_decay);

        // The watchdog judges a sample only against a full window of
        // WATCHDOG_WINDOW earlier samples: a doubled signal as the 10th
        // sample is not checked, the same signal as the 11th resets K_p.
        for (steady, resets) in [(WATCHDOG_WINDOW - 1, 0), (WATCHDOG_WINDOW, 1)] {
            let mut tra = adapter();
            for _ in 0..steady {
                let _ = tra.step(0.0, 0.020, &rates(50.0, 30.0));
            }
            let _ = tra.step(0.0, 0.040, &rates(50.0, 30.0));
            assert_eq!(tra.resets(), resets, "doubled sample #{}", steady + 1);
        }
    }

    #[test]
    fn watchdog_ignores_small_fluctuations() {
        let mut tra = adapter();
        for k in 0..100 {
            let jitter = 0.020 + 0.001 * ((k % 5) as f64 - 2.0) / 2.0;
            let _ = tra.step(0.0, jitter, &rates(50.0, 30.0));
        }
        assert_eq!(tra.resets(), 0);
    }

    /// Degraded mode floors rates at `min + frac·span` instead of the
    /// range minimum, flags itself, and clears once misses recover.
    #[test]
    fn degraded_mode_floors_rates_and_clears_on_recovery() {
        let config = RateAdapterConfig {
            degraded_miss_threshold: 0.5,
            rate_floor_frac: 0.2,
            ..RateAdapterConfig::default()
        };
        let mut tra = TaskRateAdapter::new(
            config,
            vec![SourceSlot {
                task: TaskId::new(0),
                range: RateRange::from_hz(10.0, 100.0),
            }],
        );
        assert!(!tra.is_degraded());
        // Catastrophic miss ratio: the plain loop would clamp to 10 Hz,
        // degraded mode holds the 20% service floor (10 + 0.2·90 = 28).
        let out = tra.step(1.0, 1.0, &[(TaskId::new(0), Rate::from_hz(50.0))]);
        assert!(tra.is_degraded());
        assert_eq!(out[0].1, Rate::from_hz(28.0));
        // Recovery: the flag clears and normal adaptation resumes.
        let out = tra.step(0.0, 1.0, &[out[0]]);
        assert!(!tra.is_degraded());
        assert!(out[0].1 > Rate::from_hz(28.0));
    }

    /// The defaults never enter degraded mode, so pre-existing
    /// configurations keep their exact behavior.
    #[test]
    fn default_config_never_degrades() {
        let mut tra = adapter();
        let _ = tra.step(1.0, 1.0, &rates(10.0, 20.0));
        assert!(!tra.is_degraded());
    }

    #[test]
    fn near_target_miss_ratio_is_stationary() {
        let mut tra = adapter();
        let out = tra.step(tra.config().target_miss_ratio, 1.0, &rates(50.0, 30.0));
        assert!((out[0].1.as_hz() - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no current rate supplied")]
    fn missing_source_rate_panics() {
        let mut tra = adapter();
        let _ = tra.step(0.0, 1.0, &[(TaskId::new(0), Rate::from_hz(10.0))]);
    }

    #[test]
    fn convergence_of_closed_loop_miss_model() {
        // Stability analysis (Eq. 14): model m(k+1) = g·(util(r) − capacity)
        // clipped at 0; the adapter should settle the miss ratio near zero
        // while pushing rates as high as the capacity allows.
        let mut tra = TaskRateAdapter::new(
            RateAdapterConfig::default(),
            vec![SourceSlot {
                task: TaskId::new(0),
                range: RateRange::from_hz(10.0, 100.0),
            }],
        );
        let mut rate = 10.0;
        let mut miss = 0.0;
        for _ in 0..300 {
            let out = tra.step(miss, 1.0, &[(TaskId::new(0), Rate::from_hz(rate))]);
            rate = out[0].1.as_hz();
            // Toy plant: capacity 60 Hz; misses grow with overload.
            miss = ((rate - 60.0) / 60.0).max(0.0);
        }
        assert!(
            miss < 0.1,
            "steady-state miss ratio should be small, got {miss}"
        );
        assert!(
            rate > 40.0,
            "rates should climb toward capacity, got {rate}"
        );
    }
}
