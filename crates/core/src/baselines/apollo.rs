//! Apollo Cyber RT baseline (state-of-the-practice).
//!
//! Apollo binds task groups to processors and dispatches by statically
//! assigned priority within each processor. In this reproduction the
//! binding lives in the task graph (each [`TaskSpec`](hcperf_taskgraph::TaskSpec)
//! carries an `affinity`, which the engine enforces at dispatch), so the
//! scheduling policy itself is HPF's fixed-priority key, combined with the
//! per-processor binding the evaluation graph provides via
//! [`GraphOptions::with_affinity`](hcperf_taskgraph::graphs::GraphOptions).

use hcperf_rtsim::{Job, Scheduler};
use hcperf_taskgraph::TaskGraph;

use super::hpf::priority_release_key;

/// The Apollo baseline scheduler (fixed priority over processor-bound
/// tasks).
///
/// # Examples
///
/// ```
/// use hcperf::baselines::ApolloStatic;
/// use hcperf_rtsim::Scheduler;
///
/// assert_eq!(ApolloStatic::new().name(), "Apollo");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ApolloStatic(());

impl ApolloStatic {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        ApolloStatic(())
    }
}

impl Scheduler for ApolloStatic {
    fn release_key(&self, job: &Job, graph: &TaskGraph) -> Option<u128> {
        // The engine applies the static binding; within a processor Apollo
        // dispatches by HPF's key.
        Some(priority_release_key(job, graph))
    }

    fn name(&self) -> &str {
        "Apollo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{fixture, job};

    #[test]
    fn fixed_priority_within_candidates() {
        let fx = fixture(vec![job(0, 2, 0.0, 50.0), job(1, 1, 0.0, 50.0)]);
        let mut s = ApolloStatic::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }

    #[test]
    fn respects_candidate_filter() {
        // Candidate filtering (the binding) is the engine's job; Apollo only
        // sees what is allowed on this processor.
        let mut fx = fixture(vec![job(0, 0, 0.0, 50.0), job(1, 3, 0.0, 50.0)]);
        fx.candidates = vec![1];
        let mut s = ApolloStatic::new();
        assert_eq!(s.select(&fx.ctx()), Some(1));
    }
}
