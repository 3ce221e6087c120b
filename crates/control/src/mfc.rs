//! Model-Free Control (MFC).
//!
//! MFC (Fliess & Join, 2013) is a data-driven, learning-free control law.
//! It approximates the unknown relationship between the tracked error
//! `E(t)` and the command `u(t)` by a first-order *ultra-local model*
//!
//! ```text
//! Ė(t) = F(t) + α·u(t),     α < 0                       (paper Eq. 2)
//! ```
//!
//! where `F(t)` absorbs unmodeled dynamics and disturbances and is
//! re-estimated each step:
//!
//! ```text
//! F̂(t) = Ė̂(t) − α·u(t − Tₛ)                             (paper Eq. 5)
//! u(t) = (−F̂(t) + K·E(t)) / α,   K < 0                  (paper Eq. 3)
//! ```
//!
//! `Ė̂(t)` comes from the [`AlgebraicDifferentiator`]. With `F̂ ≈ F` the
//! closed loop behaves as `Ė = K·E`, an exponentially stable error decay.

use std::fmt;

use crate::ade::{AdeConfigError, AlgebraicDifferentiator};

/// Configuration of a [`ModelFreeControl`] loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfcConfig {
    /// Constant control gain `α` of the ultra-local model. Must be negative
    /// (the paper's convention: increasing `u` decreases `Ė`).
    pub alpha: f64,
    /// Feedback gain `K`. Must be negative for a stable loop.
    pub feedback_gain: f64,
    /// Control sampling period `Tₛ` in seconds.
    pub sample_period: f64,
    /// ADE window length in samples.
    pub ade_window: usize,
}

/// Error returned by [`ModelFreeControl::new`] for invalid configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MfcConfigError {
    /// `α` must be strictly negative and finite.
    InvalidAlpha,
    /// `K` must be strictly negative and finite.
    InvalidFeedbackGain,
    /// Underlying differentiator configuration error.
    Ade(AdeConfigError),
}

impl fmt::Display for MfcConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MfcConfigError::InvalidAlpha => f.write_str("alpha must be strictly negative"),
            MfcConfigError::InvalidFeedbackGain => {
                f.write_str("feedback gain K must be strictly negative")
            }
            MfcConfigError::Ade(e) => write!(f, "differentiator config: {e}"),
        }
    }
}

impl std::error::Error for MfcConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MfcConfigError::Ade(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdeConfigError> for MfcConfigError {
    fn from(e: AdeConfigError) -> Self {
        MfcConfigError::Ade(e)
    }
}

/// A model-free controller producing the nominal priority-adjustment
/// parameter `u(t)` from the measured driving-performance error `E(t)`.
///
/// # Examples
///
/// ```
/// use hcperf_control::{MfcConfig, ModelFreeControl};
///
/// let config = MfcConfig {
///     alpha: -1.0,
///     feedback_gain: -1.0,
///     sample_period: 0.1,
///     ade_window: 5,
/// };
/// let mut mfc = ModelFreeControl::new(config)?;
/// // A persistent positive tracking error drives u upward (α < 0).
/// let mut u = 0.0;
/// for _ in 0..50 {
///     u = mfc.step(2.0);
/// }
/// assert!(u > 0.0);
/// # Ok::<(), hcperf_control::MfcConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelFreeControl {
    config: MfcConfig,
    ade: AlgebraicDifferentiator,
    last_u: f64,
    last_f_hat: f64,
}

impl ModelFreeControl {
    /// Creates a controller.
    ///
    /// # Errors
    ///
    /// Returns [`MfcConfigError`] if `α ≥ 0`, `K ≥ 0`, or the ADE window is
    /// invalid.
    pub fn new(config: MfcConfig) -> Result<Self, MfcConfigError> {
        if !(config.alpha.is_finite() && config.alpha < 0.0) {
            return Err(MfcConfigError::InvalidAlpha);
        }
        if !(config.feedback_gain.is_finite() && config.feedback_gain < 0.0) {
            return Err(MfcConfigError::InvalidFeedbackGain);
        }
        let ade = AlgebraicDifferentiator::new(config.sample_period, config.ade_window)?;
        Ok(ModelFreeControl {
            config,
            ade,
            last_u: 0.0,
            last_f_hat: 0.0,
        })
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> MfcConfig {
        self.config
    }

    /// Advances one control period with the newly measured error `E(t)` and
    /// returns the command `u(t)`.
    ///
    /// Implements Eq. 5 then Eq. 3 of the paper. With `F̂ ≈ F` the closed
    /// loop behaves as `Ė = K·E` (Eq. 4), and the discrete per-period
    /// command update it induces is `u̇ ≈ K·E/(α·Ts)` (Eq. 8).
    pub fn step(&mut self, error: f64) -> f64 {
        let e_dot = self.ade.push(error);
        // Eq. 5: F̂(t) = Ė̂(t) − α·u(t − Ts)
        let f_hat = e_dot - self.config.alpha * self.last_u;
        // Eq. 3: u(t) = (−F̂(t) + K·E(t)) / α
        let u = (-f_hat + self.config.feedback_gain * error) / self.config.alpha;
        self.last_f_hat = f_hat;
        self.last_u = u;
        u
    }

    /// Returns the last command `u(t − Tₛ)`.
    #[must_use]
    pub fn last_command(&self) -> f64 {
        self.last_u
    }

    /// Returns the last offset estimate `F̂(t)`.
    #[must_use]
    pub fn last_offset_estimate(&self) -> f64 {
        self.last_f_hat
    }

    /// Returns the last derivative estimate `Ė̂(t)`.
    #[must_use]
    pub fn last_error_derivative(&self) -> f64 {
        self.ade.last()
    }

    /// Resets the controller to its initial state (e.g. after a scenario
    /// regime change detected by the external coordinator).
    pub fn reset(&mut self) {
        self.ade.reset();
        self.last_u = 0.0;
        self.last_f_hat = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIG: MfcConfig = MfcConfig {
        alpha: -1.0,
        feedback_gain: -1.0,
        sample_period: 0.05,
        ade_window: 10,
    };

    fn mfc() -> ModelFreeControl {
        ModelFreeControl::new(CONFIG).unwrap()
    }

    #[test]
    fn validates_gains() {
        let bad_alpha = MfcConfig {
            alpha: 1.0,
            ..CONFIG
        };
        assert_eq!(
            ModelFreeControl::new(bad_alpha).unwrap_err(),
            MfcConfigError::InvalidAlpha
        );
        let bad_k = MfcConfig {
            feedback_gain: 0.0,
            ..CONFIG
        };
        assert_eq!(
            ModelFreeControl::new(bad_k).unwrap_err(),
            MfcConfigError::InvalidFeedbackGain
        );
        let bad_ade = MfcConfig {
            ade_window: 0,
            ..CONFIG
        };
        assert!(matches!(
            ModelFreeControl::new(bad_ade).unwrap_err(),
            MfcConfigError::Ade(_)
        ));
    }

    #[test]
    fn zero_error_keeps_u_stable() {
        // Eq. 2 / Eq. 5: with E ≡ 0 the ultra-local model gives F̂ = 0 and
        // the command stays at the origin.
        let mut c = mfc();
        let mut u = 0.0;
        for _ in 0..100 {
            u = c.step(0.0);
        }
        assert!(u.abs() < 1e-9, "u should remain ~0 with no error, got {u}");
    }

    #[test]
    fn positive_error_raises_u() {
        // Eq. 3 / Eq. 4: with α < 0, a large positive tracking error should
        // push u(t) upward (the closed loop contracts as Ė = K·E), which
        // prioritizes control tasks.
        let mut c = mfc();
        let mut u = 0.0;
        for _ in 0..50 {
            u = c.step(3.0);
        }
        assert!(
            u > 0.0,
            "u should grow under sustained positive error, got {u}"
        );
        // And u keeps growing while the error persists (integral-like action).
        let u2 = (0..20).map(|_| c.step(3.0)).last().unwrap();
        assert!(u2 > u);
    }

    #[test]
    fn negative_error_lowers_u() {
        let mut c = mfc();
        let mut u = 0.0;
        for _ in 0..50 {
            u = c.step(-3.0);
        }
        assert!(
            u < 0.0,
            "u should fall under sustained negative error, got {u}"
        );
    }

    #[test]
    fn du_sign_follows_error_sign() {
        // Eq. 8: u̇ ≈ K·E/(α·Ts) once Ė̂ is small; with K, α < 0 the sign of
        // u̇ matches the sign of E.
        let mut c = mfc();
        for _ in 0..30 {
            c.step(1.0);
        }
        let u_before = c.last_command();
        c.step(1.0);
        assert!(c.last_command() > u_before);
        // Flip the error: u should start decreasing after the ADE window
        // re-converges.
        for _ in 0..60 {
            c.step(-1.0);
        }
        let u_mid = c.last_command();
        c.step(-1.0);
        assert!(c.last_command() < u_mid);
    }

    #[test]
    fn closed_loop_drives_simulated_plant_to_zero() {
        // Plant: Ė = f + α·u with unknown constant disturbance f.
        //
        // The MFC law applies integral-like action, so for a plant whose
        // input acts directly on Ė the derivative-estimate lag (≈ half the
        // ADE window) must stay below ~π/2 sampling periods for stability —
        // hence the short window here.
        let cfg = MfcConfig {
            alpha: -0.8,
            feedback_gain: -0.8,
            sample_period: 0.05,
            ade_window: 2,
        };
        let mut c = ModelFreeControl::new(cfg).unwrap();
        let f_true = 0.7;
        let mut e: f64 = 4.0;
        for _ in 0..3000 {
            let u = c.step(e);
            let e_dot = f_true + cfg.alpha * u;
            e += e_dot * cfg.sample_period;
        }
        assert!(
            e.abs() < 0.1,
            "closed loop should regulate error near zero, got {e}"
        );
    }

    #[test]
    fn reset_returns_to_initial_state() {
        let mut c = mfc();
        for _ in 0..20 {
            c.step(2.0);
        }
        assert!(c.last_command() != 0.0);
        c.reset();
        assert_eq!(c.last_command(), 0.0);
        assert_eq!(c.last_offset_estimate(), 0.0);
        assert_eq!(c.last_error_derivative(), 0.0);
    }

    #[test]
    fn offset_estimate_tracks_disturbance() {
        // With u feedback active, F̂ should converge near the true constant
        // disturbance of the simulated plant.
        let cfg = MfcConfig {
            alpha: -1.0,
            feedback_gain: -0.5,
            sample_period: 0.05,
            ade_window: 2,
        };
        let mut c = ModelFreeControl::new(cfg).unwrap();
        let f_true = -0.9;
        let mut e: f64 = 1.0;
        for _ in 0..5000 {
            let u = c.step(e);
            e += (f_true + cfg.alpha * u) * cfg.sample_period;
        }
        let f_hat = c.last_offset_estimate();
        assert!(
            (f_hat - f_true).abs() < 0.15,
            "F̂ {f_hat} should approximate F {f_true}"
        );
    }
}
