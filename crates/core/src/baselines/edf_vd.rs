//! EDF with Virtual Deadlines (EDF-VD) baseline.
//!
//! Mixed-criticality EDF (Baruah et al.; the paper cites the degraded-
//! quality variant of Liu et al., RTSS 2016): high-criticality tasks have
//! their deadlines shortened by a scaling factor `x ∈ (0, 1]` — the
//! *virtual deadline* — and all jobs are then scheduled EDF on the
//! (virtual or actual) deadlines. This gives safety-relevant tasks earlier
//! effective deadlines without abandoning deadline ordering.

use hcperf_rtsim::{order_image, Job, Scheduler};
use hcperf_taskgraph::{Criticality, TaskGraph};

/// The EDF-VD baseline scheduler.
///
/// # Examples
///
/// ```
/// use hcperf::baselines::EdfVd;
/// use hcperf_rtsim::Scheduler;
///
/// let s = EdfVd::new(0.7);
/// assert_eq!(s.name(), "EDF-VD");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EdfVd {
    scale: f64,
}

impl EdfVd {
    /// Creates the scheduler with virtual-deadline scaling factor `scale`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    #[must_use]
    pub fn new(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "virtual deadline scale must be in (0, 1], got {scale}"
        );
        EdfVd { scale }
    }

    /// The virtual-deadline scaling factor.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Default for EdfVd {
    fn default() -> Self {
        EdfVd::new(0.5)
    }
}

impl Scheduler for EdfVd {
    fn release_key(&self, job: &Job, graph: &TaskGraph) -> Option<u128> {
        // Virtual deadline for high-criticality tasks, actual for the rest.
        let release = job.release().as_secs();
        let relative = job.relative_deadline().as_secs();
        let deadline = match graph.spec(job.task()).criticality() {
            Criticality::High => release + self.scale * relative,
            Criticality::Low => release + relative,
        };
        Some(order_image(deadline).into())
    }

    fn name(&self) -> &str {
        "EDF-VD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{fixture, job};

    // In the fixture graph, task 0 is High criticality, tasks 1..=3 Low.

    #[test]
    fn high_criticality_deadline_is_scaled() {
        // Both jobs released at 0 with D = 100 ms. The high-criticality job
        // gets virtual deadline 70 ms and wins despite the same actual one.
        let fx = fixture(vec![job(0, 1, 0.0, 100.0), job(1, 0, 0.0, 100.0)]);
        let mut s = EdfVd::new(0.7);
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }

    #[test]
    fn low_criticality_can_still_win_with_tight_deadline() {
        // Low-criticality job with D = 30 ms beats the high-criticality one
        // with virtual deadline 0.7 × 100 = 70 ms.
        let fx = fixture(vec![job(0, 1, 0.0, 30.0), job(1, 0, 0.0, 100.0)]);
        let mut s = EdfVd::new(0.7);
        assert_eq!(s.select(&fx.ctx()), Some(0));
    }

    #[test]
    fn scale_one_degenerates_to_edf() {
        let fx = fixture(vec![job(0, 1, 0.0, 50.0), job(1, 0, 0.0, 60.0)]);
        let mut vd = EdfVd::new(1.0);
        assert_eq!(vd.select(&fx.ctx()), Some(0));
    }

    #[test]
    #[should_panic(expected = "virtual deadline scale")]
    fn rejects_zero_scale() {
        let _ = EdfVd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "virtual deadline scale")]
    fn rejects_scale_above_one() {
        let _ = EdfVd::new(1.5);
    }
}
