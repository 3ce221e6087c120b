//! Classical feedback controllers.
//!
//! The paper's Task Rate Adapter is a proportional controller (Eq. 13) and
//! the vehicle substrate uses PI/PID speed and steering loops; this module
//! provides the PID loop, with output clamping and anti-windup (the Task
//! Rate Adapter applies its gain inline).

use std::fmt;

/// Configuration for a [`Pid`] controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Output saturation `[min, max]`.
    pub output_limits: (f64, f64),
    /// Integral term clamp (anti-windup), as absolute bound on `ki·∫e`.
    pub integral_limit: f64,
}

impl Default for PidConfig {
    fn default() -> Self {
        PidConfig {
            kp: 1.0,
            ki: 0.0,
            kd: 0.0,
            output_limits: (f64::NEG_INFINITY, f64::INFINITY),
            integral_limit: f64::INFINITY,
        }
    }
}

/// Discrete PID controller with output saturation and integral anti-windup.
///
/// # Examples
///
/// ```
/// use hcperf_control::{Pid, PidConfig};
///
/// let mut pid = Pid::new(PidConfig { kp: 0.5, ki: 0.1, ..Default::default() });
/// let out = pid.step(2.0, 0.01);
/// assert!(out > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    prev_error: Option<f64>,
}

impl Pid {
    /// Creates a PID controller.
    ///
    /// # Panics
    ///
    /// Panics if any gain is non-finite or `output_limits.0 > output_limits.1`.
    #[must_use]
    pub fn new(config: PidConfig) -> Self {
        assert!(
            config.kp.is_finite() && config.ki.is_finite() && config.kd.is_finite(),
            "PID gains must be finite"
        );
        assert!(
            config.output_limits.0 <= config.output_limits.1,
            "output limits must satisfy min <= max"
        );
        Pid {
            config,
            integral: 0.0,
            prev_error: None,
        }
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> PidConfig {
        self.config
    }

    /// Advances one step of duration `dt` seconds with the measured `error`
    /// and returns the saturated control output.
    pub fn step(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        self.integral += self.config.ki * error * dt;
        let lim = self.config.integral_limit.abs();
        self.integral = self.integral.clamp(-lim, lim);
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        let raw = self.config.kp * error + self.integral + self.config.kd * derivative;
        raw.clamp(self.config.output_limits.0, self.config.output_limits.1)
    }

    /// Resets integral and derivative history.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }

    /// Returns the current integral term contribution.
    #[must_use]
    pub fn integral_term(&self) -> f64 {
        self.integral
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PID(kp={}, ki={}, kd={})",
            self.config.kp, self.config.ki, self.config.kd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_p_matches_proportional() {
        let mut pid = Pid::new(PidConfig {
            kp: 2.0,
            ..Default::default()
        });
        assert_eq!(pid.step(3.0, 0.1), 6.0);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 1.0,
            ..Default::default()
        });
        let o1 = pid.step(1.0, 0.5);
        let o2 = pid.step(1.0, 0.5);
        assert!((o1 - 0.5).abs() < 1e-12);
        assert!((o2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            kd: 1.0,
            ..Default::default()
        });
        let o1 = pid.step(0.0, 0.1);
        assert_eq!(o1, 0.0);
        let o2 = pid.step(1.0, 0.1);
        assert!((o2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn output_saturates() {
        let mut pid = Pid::new(PidConfig {
            kp: 100.0,
            output_limits: (-1.0, 1.0),
            ..Default::default()
        });
        assert_eq!(pid.step(5.0, 0.1), 1.0);
        assert_eq!(pid.step(-5.0, 0.1), -1.0);
    }

    #[test]
    fn anti_windup_bounds_integral() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 10.0,
            integral_limit: 2.0,
            ..Default::default()
        });
        for _ in 0..100 {
            pid.step(10.0, 1.0);
        }
        assert!(pid.integral_term() <= 2.0);
        // Recovery from windup is fast because the integral was clamped.
        let mut out = 0.0;
        for _ in 0..5 {
            out = pid.step(-10.0, 1.0);
        }
        assert!(out < 0.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut pid = Pid::new(PidConfig {
            kp: 1.0,
            ki: 1.0,
            kd: 1.0,
            ..Default::default()
        });
        pid.step(1.0, 0.1);
        pid.reset();
        assert_eq!(pid.integral_term(), 0.0);
        // After reset the derivative term is zero again on the first step.
        let out = pid.step(1.0, 0.1);
        assert!((out - 1.1).abs() < 1e-9, "kp*1 + ki*1*0.1, got {out}");
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_non_positive_dt() {
        let mut pid = Pid::new(PidConfig::default());
        let _ = pid.step(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn rejects_inverted_limits() {
        let _ = Pid::new(PidConfig {
            output_limits: (1.0, -1.0),
            ..Default::default()
        });
    }

    #[test]
    fn closed_loop_first_order_plant_converges() {
        // Plant: ẋ = -x + u, target 1.0, PI control.
        let mut pid = Pid::new(PidConfig {
            kp: 4.0,
            ki: 2.0,
            ..Default::default()
        });
        let mut x: f64 = 0.0;
        let dt = 0.01;
        for _ in 0..5000 {
            let u = pid.step(1.0 - x, dt);
            x += (-x + u) * dt;
        }
        assert!((x - 1.0).abs() < 0.01, "steady state {x}");
    }
}
