//! High Priority First (HPF) baseline.
//!
//! Each task carries a statically assigned priority; the ready job whose
//! task has the numerically smallest (most important) priority dispatches
//! first, non-preemptively. Ties break by release time then job id.

use hcperf_rtsim::{order_image, Job, Scheduler};
use hcperf_taskgraph::TaskGraph;

/// The HPF baseline scheduler.
///
/// # Examples
///
/// ```
/// use hcperf::baselines::Hpf;
/// use hcperf_rtsim::Scheduler;
///
/// assert_eq!(Hpf::new().name(), "HPF");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Hpf(());

impl Hpf {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        Hpf(())
    }
}

impl Scheduler for Hpf {
    fn release_key(&self, job: &Job, graph: &TaskGraph) -> Option<u128> {
        Some(priority_release_key(job, graph))
    }

    fn name(&self) -> &str {
        "HPF"
    }
}

/// The fixed-priority key HPF and Apollo share: the task's static priority
/// above the release instant.
pub(crate) fn priority_release_key(job: &Job, graph: &TaskGraph) -> u128 {
    let priority = graph.spec(job.task()).priority().value();
    (u128::from(priority) << 64) | u128::from(order_image(job.release().as_secs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{fixture, job};

    #[test]
    fn picks_highest_static_priority() {
        // Priorities in the fixture graph: task i has priority i.
        let fx = fixture(vec![job(0, 2, 0.0, 50.0), job(1, 0, 0.0, 10.0)]);
        let mut s = Hpf::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }

    #[test]
    fn ties_break_by_release_then_id() {
        let fx = fixture(vec![job(7, 1, 2.0, 50.0), job(3, 1, 1.0, 50.0)]);
        let mut s = Hpf::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
        let fx = fixture(vec![job(7, 1, 1.0, 50.0), job(3, 1, 1.0, 50.0)]);
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }

    #[test]
    fn ignores_deadlines_entirely() {
        // High-priority task with a loose deadline still beats an urgent
        // low-priority task — HPF's defining weakness (§ VII-B1).
        let fx = fixture(vec![job(0, 3, 0.0, 5.0), job(1, 0, 0.0, 10_000.0)]);
        let mut s = Hpf::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }
}
