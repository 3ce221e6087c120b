//! Noisy measurement channels.
//!
//! The hardware testbed differs from simulation chiefly in measurement
//! noise ("the speed record of the lead car is affected by the presence of
//! noise", § VII-B3). [`NoisySensor`] adds seeded Gaussian noise to a true
//! value; a standard deviation of zero is the noise-free simulation
//! testbed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Gaussian-noise measurement channel.
///
/// # Examples
///
/// ```
/// use hcperf_vehicle::NoisySensor;
///
/// let mut sensor = NoisySensor::new(0.05, 42);
/// let reading = sensor.measure(10.0);
/// assert!((reading - 10.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct NoisySensor {
    std_dev: f64,
    rng: StdRng,
}

impl NoisySensor {
    /// Creates a sensor with noise standard deviation `std_dev`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    #[must_use]
    pub fn new(std_dev: f64, seed: u64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be non-negative"
        );
        NoisySensor {
            std_dev,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns the noise standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Measures `truth` with additive Gaussian noise.
    pub fn measure(&mut self, truth: f64) -> f64 {
        // hcperf-lint: allow(float-eq): σ = 0 is the configured noise-free mode, never a computed value
        if self.std_dev == 0.0 {
            return truth;
        }
        truth + self.std_dev * standard_normal(&mut self.rng)
    }
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_is_exact() {
        let mut s = NoisySensor::new(0.0, 0);
        assert_eq!(s.measure(3.25), 3.25);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn noise_statistics_match_configuration() {
        let mut s = NoisySensor::new(0.2, 7);
        let n = 20_000;
        let readings: Vec<f64> = (0..n).map(|_| s.measure(5.0)).collect();
        let mean = readings.iter().sum::<f64>() / n as f64;
        let var = readings.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.2).abs() < 0.01, "std {}", var.sqrt());
    }

    #[test]
    fn same_seed_same_readings() {
        let mut a = NoisySensor::new(0.1, 99);
        let mut b = NoisySensor::new(0.1, 99);
        for _ in 0..10 {
            assert_eq!(a.measure(1.0), b.measure(1.0));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_std() {
        let _ = NoisySensor::new(-1.0, 0);
    }
}
