//! Job instances and control commands.
//!
//! A [`Job`] is one release of a task: it carries the release instant, the
//! absolute deadline `release + D_i`, the pipeline cycle it belongs to and
//! the instant the *source* release that started its chain occurred (for
//! end-to-end latency accounting).

use std::fmt;

use hcperf_taskgraph::{SimSpan, SimTime, TaskId};
use serde::{Deserialize, Serialize};

/// Unique identifier of a job within one simulation run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id from its raw counter value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// Returns the raw counter value.
    #[must_use]
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// One released instance of a task, waiting in or dispatched from the ready
/// queue.
///
/// # Examples
///
/// ```
/// use hcperf_rtsim::{Job, JobId};
/// use hcperf_taskgraph::{SimSpan, SimTime, TaskId};
///
/// let job = Job::new(
///     JobId::new(0),
///     TaskId::new(2),
///     7,
///     SimTime::from_secs(1.0),
///     SimSpan::from_millis(50.0),
///     SimTime::from_secs(0.98),
/// );
/// assert_eq!(job.absolute_deadline(), SimTime::from_secs(1.05));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Job {
    id: JobId,
    task: TaskId,
    cycle: u64,
    release: SimTime,
    relative_deadline: SimSpan,
    chain_release: SimTime,
}

impl Job {
    /// Creates a job.
    ///
    /// `cycle` is the pipeline cycle index, inherited from the cycle's
    /// source release; `chain_release` is the instant that source release
    /// occurred (equals `release` for source jobs).
    #[must_use]
    pub fn new(
        id: JobId,
        task: TaskId,
        cycle: u64,
        release: SimTime,
        relative_deadline: SimSpan,
        chain_release: SimTime,
    ) -> Self {
        Job {
            id,
            task,
            cycle,
            release,
            relative_deadline,
            chain_release,
        }
    }

    /// Unique id of this job.
    #[must_use]
    #[inline]
    pub fn id(self) -> JobId {
        self.id
    }

    /// The task this job instantiates.
    #[must_use]
    #[inline]
    pub fn task(self) -> TaskId {
        self.task
    }

    /// The pipeline cycle index this job belongs to.
    #[must_use]
    #[inline]
    pub fn cycle(self) -> u64 {
        self.cycle
    }

    /// Release instant.
    #[must_use]
    #[inline]
    pub fn release(self) -> SimTime {
        self.release
    }

    /// Relative deadline `D_i` at release.
    #[must_use]
    #[inline]
    pub fn relative_deadline(self) -> SimSpan {
        self.relative_deadline
    }

    /// Absolute deadline `release + D_i`.
    #[must_use]
    #[inline]
    pub fn absolute_deadline(self) -> SimTime {
        self.release + self.relative_deadline
    }

    /// Instant of the source release that started this job's chain.
    #[must_use]
    #[inline]
    pub fn chain_release(self) -> SimTime {
        self.chain_release
    }

    /// Laxity with respect to an observed execution time: time remaining
    /// until the latest start that still meets the deadline.
    #[must_use]
    #[inline]
    pub fn laxity(self, now: SimTime, exec_time: SimSpan) -> SimSpan {
        self.absolute_deadline() - now - exec_time
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}, cycle {}, rel {}, dl {})",
            self.id,
            self.task,
            self.cycle,
            self.release,
            self.absolute_deadline()
        )
    }
}

/// The outcome of a completed (or abandoned) job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobOutcome {
    /// Completed at or before its absolute deadline; output propagated.
    Met,
    /// Completed after its absolute deadline; output discarded.
    MissedLate,
    /// Expired in the ready queue without ever starting.
    Expired,
}

impl JobOutcome {
    /// Returns `true` if the job met its deadline.
    #[must_use]
    pub fn is_met(self) -> bool {
        matches!(self, JobOutcome::Met)
    }
}

/// A control command produced by a sink (control) task completing in time.
///
/// The scenario harness drains these from the simulator and applies them to
/// the vehicle model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlCommand {
    /// Sink task that produced the command.
    pub task: TaskId,
    /// Pipeline cycle the command belongs to.
    pub cycle: u64,
    /// When the sink job was released.
    pub released_at: SimTime,
    /// When the command was emitted (sink job completion).
    pub emitted_at: SimTime,
    /// When the originating source released (start of the chain).
    pub chain_released_at: SimTime,
}

impl ControlCommand {
    /// Response time of the control task: release → completion (§ VII-C).
    #[must_use]
    pub fn response_time(&self) -> SimSpan {
        self.emitted_at - self.released_at
    }

    /// End-to-end latency from the source release to command emission.
    #[must_use]
    pub fn end_to_end_latency(&self) -> SimSpan {
        self.emitted_at - self.chain_released_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job::new(
            JobId::new(3),
            TaskId::new(1),
            5,
            SimTime::from_secs(2.0),
            SimSpan::from_millis(100.0),
            SimTime::from_secs(1.9),
        )
    }

    #[test]
    fn absolute_deadline_adds_relative() {
        assert_eq!(job().absolute_deadline(), SimTime::from_secs(2.1));
    }

    #[test]
    fn laxity_accounts_for_exec_time() {
        let j = job();
        let lax = j.laxity(SimTime::from_secs(2.0), SimSpan::from_millis(30.0));
        assert!((lax.as_millis() - 70.0).abs() < 1e-9);
        let late = j.laxity(SimTime::from_secs(2.09), SimSpan::from_millis(30.0));
        assert!(late.is_negative());
    }

    #[test]
    fn outcome_classification() {
        assert!(JobOutcome::Met.is_met());
        assert!(!JobOutcome::MissedLate.is_met());
        assert!(!JobOutcome::Expired.is_met());
    }

    #[test]
    fn command_latencies() {
        let cmd = ControlCommand {
            task: TaskId::new(9),
            cycle: 1,
            released_at: SimTime::from_secs(1.0),
            emitted_at: SimTime::from_secs(1.02),
            chain_released_at: SimTime::from_secs(0.9),
        };
        assert!((cmd.response_time().as_millis() - 20.0).abs() < 1e-9);
        assert!((cmd.end_to_end_latency().as_millis() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_ids() {
        let s = format!("{}", job());
        assert!(s.contains("j3"));
        assert!(s.contains("τ1"));
    }
}
