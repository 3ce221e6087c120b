//! The Performance Directed Controller (§ IV).
//!
//! Each control period the coordinator measures the vehicle-level tracking
//! error `E(k)` (speed error for car following, lateral offset for lane
//! keeping) and the PDC regulates the **nominal priority-adjustment
//! parameter** `u(t)` via Model-Free Control:
//!
//! * rising `|E|` → `u` increases → the Dynamic Priority Scheduler weights
//!   static priorities more, advancing control tasks (responsiveness);
//! * small `E` → `u` stays near zero → scheduling stays deadline-driven
//!   (throughput).
//!
//! The MFC is sign-sensitive, but the driving error can be of either sign
//! (behind/ahead of the lead speed; left/right of the lane center) while the
//! *urgency* is symmetric — so the PDC feeds the error **magnitude** into
//! the loop, matching the paper's narrative ("when the tracking error
//! becomes large … u will increase").

use hcperf_control::{MfcConfig, MfcConfigError, ModelFreeControl};

/// Multiplicative decay of `u` per period inside the deadband.
const DEADBAND_DECAY: f64 = 0.8;

/// Configuration of the Performance Directed Controller.
///
/// Inside the deadband `u` decays by a fixed factor of 0.8 per period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdcConfig {
    /// Model-free control parameters (`α`, `K`, sampling period `Tₛ`, ADE
    /// window).
    pub mfc: MfcConfig,
    /// Scale from tracking-error units (m/s or m) to the γ domain
    /// (seconds of laxity per priority level). `u = error_scale · u_mfc`.
    pub error_scale: f64,
    /// Tracking error magnitude below which the PDC treats the vehicle as
    /// on-target and decays `u` toward zero (throughput mode).
    pub deadband: f64,
}

impl PdcConfig {
    /// The default configuration as a constant.
    pub const DEFAULT: PdcConfig = PdcConfig {
        mfc: MfcConfig {
            alpha: -1.0,
            feedback_gain: -1.0,
            sample_period: 0.1,
            ade_window: 5,
        },
        error_scale: 0.02,
        deadband: 0.05,
    };
}

impl Default for PdcConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Maps the driving-performance tracking error to the nominal priority
/// adjustment parameter `u(t)`.
///
/// # Examples
///
/// ```
/// use hcperf::pdc::{PdcConfig, PerformanceDirectedController};
///
/// let mut pdc = PerformanceDirectedController::new(PdcConfig::default())?;
/// let mut u = 0.0;
/// for _ in 0..20 {
///     u = pdc.step(2.0); // sustained 2 m/s tracking error
/// }
/// assert!(u > 0.0);
/// # Ok::<(), hcperf_control::MfcConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PerformanceDirectedController {
    config: PdcConfig,
    mfc: ModelFreeControl,
    u: f64,
    /// Whether the previous step was inside the deadband; the MFC is reset
    /// once on *entry*, not on every in-band step.
    in_deadband: bool,
}

impl PerformanceDirectedController {
    /// Creates the controller.
    ///
    /// # Errors
    ///
    /// Returns [`MfcConfigError`] if the inner MFC configuration is invalid.
    pub fn new(config: PdcConfig) -> Result<Self, MfcConfigError> {
        let mfc = ModelFreeControl::new(config.mfc)?;
        Ok(PerformanceDirectedController {
            config,
            mfc,
            u: 0.0,
            in_deadband: false,
        })
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> PdcConfig {
        self.config
    }

    /// Advances one control period with the measured tracking error and
    /// returns the nominal priority-adjustment parameter `u(t)`.
    ///
    /// The error may be signed; its magnitude drives the loop. Inside the
    /// deadband `u` decays geometrically toward zero so that the scheduler
    /// reverts to deadline-driven dispatch when the vehicle is on target.
    // hcperf-lint: hot-path-root
    pub fn step(&mut self, tracking_error: f64) -> f64 {
        let magnitude = tracking_error.abs();
        if magnitude < self.config.deadband {
            // Reset the MFC once, on the transition into the deadband. The
            // loop then restarts cleanly when the error next leaves the band
            // without being re-zeroed on every in-band period.
            if !self.in_deadband {
                self.mfc.reset();
                self.in_deadband = true;
            }
            self.u *= DEADBAND_DECAY;
            if self.u.abs() < 1e-6 {
                self.u = 0.0;
            }
            return self.u;
        }
        self.in_deadband = false;
        let raw = self.mfc.step(magnitude);
        self.u = self.config.error_scale * raw;
        self.u
    }

    /// The current nominal parameter `u` without stepping.
    #[must_use]
    pub fn nominal_u(&self) -> f64 {
        self.u
    }

    /// Last error-derivative estimate `Ė̂` from the inner ADE (diagnostics;
    /// the § IV remark checks `|Ė| ≪ |E|`).
    #[must_use]
    pub fn error_derivative(&self) -> f64 {
        self.mfc.last_error_derivative()
    }

    /// Resets the loop (used when the external coordinator detects a regime
    /// change).
    pub fn reset(&mut self) {
        self.mfc.reset();
        self.u = 0.0;
        self.in_deadband = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pdc() -> PerformanceDirectedController {
        PerformanceDirectedController::new(PdcConfig::default()).unwrap()
    }

    #[test]
    fn sustained_error_raises_u() {
        let mut c = pdc();
        let mut u = 0.0;
        for _ in 0..30 {
            u = c.step(3.0);
        }
        assert!(u > 0.0, "u should rise under sustained error, got {u}");
    }

    #[test]
    fn error_sign_is_ignored() {
        let mut pos = pdc();
        let mut neg = pdc();
        let mut u_pos = 0.0;
        let mut u_neg = 0.0;
        for _ in 0..30 {
            u_pos = pos.step(2.0);
            u_neg = neg.step(-2.0);
        }
        assert_eq!(u_pos, u_neg);
        assert!(u_pos > 0.0);
    }

    #[test]
    fn deadband_decays_u_toward_zero() {
        let mut c = pdc();
        for _ in 0..30 {
            c.step(3.0);
        }
        let high = c.nominal_u();
        assert!(high > 0.0);
        for _ in 0..100 {
            c.step(0.0);
        }
        assert_eq!(c.nominal_u(), 0.0);
        // And a single in-deadband step only decays partially.
        let mut c2 = pdc();
        for _ in 0..30 {
            c2.step(3.0);
        }
        let before = c2.nominal_u();
        c2.step(0.01);
        let after = c2.nominal_u();
        assert!(after < before && after > 0.0);
    }

    #[test]
    fn deadband_transitions_reset_mfc_on_entry_only() {
        // Drive the loop up, enter the deadband, linger, then leave. The
        // entry must have reset the MFC exactly once: after re-exit the
        // trajectory is identical to a fresh controller fed the same
        // out-of-band errors.
        let mut c = pdc();
        for _ in 0..30 {
            c.step(3.0);
        }
        assert!(c.nominal_u() > 0.0);
        c.step(0.0); // entry: MFC reset happens here
        assert_eq!(c.error_derivative(), 0.0, "entry must clear the ADE");
        for _ in 0..5 {
            c.step(0.01); // linger in-band; u keeps decaying
        }
        let mut fresh = pdc();
        let mut u_resumed = 0.0;
        let mut u_fresh = 0.0;
        for _ in 0..10 {
            u_resumed = c.step(2.0);
            u_fresh = fresh.step(2.0);
        }
        assert_eq!(u_resumed, u_fresh, "post-deadband loop must restart fresh");
        assert!(u_resumed > 0.0);
    }

    #[test]
    fn growing_error_grows_u_monotonically_in_trend() {
        let mut c = pdc();
        let mut last_u = 0.0;
        let mut increases = 0;
        for k in 1..=50 {
            let u = c.step(0.1 * k as f64);
            if u > last_u {
                increases += 1;
            }
            last_u = u;
        }
        assert!(increases > 40, "u should trend upward, {increases}/50");
    }

    #[test]
    fn reset_zeroes_state() {
        let mut c = pdc();
        for _ in 0..20 {
            c.step(5.0);
        }
        c.reset();
        assert_eq!(c.nominal_u(), 0.0);
        assert_eq!(c.error_derivative(), 0.0);
    }

    #[test]
    fn error_scale_controls_magnitude() {
        let small = PdcConfig {
            error_scale: 0.01,
            ..Default::default()
        };
        let large = PdcConfig {
            error_scale: 0.1,
            ..Default::default()
        };
        let mut a = PerformanceDirectedController::new(small).unwrap();
        let mut b = PerformanceDirectedController::new(large).unwrap();
        let mut ua = 0.0;
        let mut ub = 0.0;
        for _ in 0..30 {
            ua = a.step(2.0);
            ub = b.step(2.0);
        }
        assert!((ub / ua - 10.0).abs() < 1e-6, "scaling should be linear");
    }

    #[test]
    fn invalid_mfc_config_is_rejected() {
        let bad = PdcConfig {
            mfc: MfcConfig {
                alpha: 1.0,
                ..PdcConfig::DEFAULT.mfc
            },
            ..Default::default()
        };
        assert!(PerformanceDirectedController::new(bad).is_err());
    }
}
