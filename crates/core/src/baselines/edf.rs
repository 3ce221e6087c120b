//! Earliest Deadline First (EDF) baseline.
//!
//! Jobs dispatch in order of absolute deadline (Liu & Layland), ignoring
//! static priorities and driving performance. Non-preemptive.

use hcperf_rtsim::{order_image, Job, Scheduler};
use hcperf_taskgraph::TaskGraph;

/// The EDF baseline scheduler.
///
/// # Examples
///
/// ```
/// use hcperf::baselines::Edf;
/// use hcperf_rtsim::Scheduler;
///
/// assert_eq!(Edf::new().name(), "EDF");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Edf(());

impl Edf {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Edf(())
    }
}

impl Scheduler for Edf {
    fn release_key(&self, job: &Job, _graph: &TaskGraph) -> Option<u128> {
        Some(order_image(job.absolute_deadline().as_secs()).into())
    }

    fn name(&self) -> &str {
        "EDF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{fixture, job};

    #[test]
    fn picks_earliest_absolute_deadline() {
        // job 0: release 0, D = 50 ms → deadline 50 ms.
        // job 1: release 0.02, D = 20 ms → deadline 40 ms (earlier).
        let fx = fixture(vec![job(0, 0, 0.0, 50.0), job(1, 1, 0.02, 20.0)]);
        let mut s = Edf::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }

    #[test]
    fn ignores_static_priority() {
        // Task 3 (lowest priority) has the earlier deadline and wins.
        let fx = fixture(vec![job(0, 0, 0.0, 100.0), job(1, 3, 0.0, 10.0)]);
        let mut s = Edf::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }

    #[test]
    fn deadline_ties_break_by_job_id() {
        let fx = fixture(vec![job(9, 0, 0.0, 50.0), job(2, 1, 0.0, 50.0)]);
        let mut s = Edf::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }
}
