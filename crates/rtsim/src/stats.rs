//! Simulation statistics: deadline accounting and command latencies.
//!
//! The engine updates [`SimStats`] as jobs are released, dispatched and
//! resolved, and as sink tasks emit commands. The external coordinator
//! samples *windowed* deadline-miss ratios `m(k)` via
//! [`SimStats::take_window`], which drains the counters accumulated since
//! the previous call — one call per control period.

use hcperf_taskgraph::SimSpan;
use serde::{Deserialize, Serialize};

use crate::job::JobOutcome;

/// Counters over one observation window (one external-coordinator period).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WindowStats {
    /// Jobs completed at or before their deadline in the window.
    pub met: u64,
    /// Jobs completed after their deadline in the window.
    pub missed_late: u64,
    /// Jobs expired in the ready queue in the window.
    pub expired: u64,
}

impl WindowStats {
    /// Total jobs resolved in the window.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.met + self.missed_late + self.expired
    }

    /// Deadline-miss ratio `m(k)` in the window; `0` for an empty window.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.missed_late + self.expired) as f64 / total as f64
        }
    }
}

/// Per-task cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TaskStats {
    /// Jobs released.
    pub released: u64,
    /// Jobs dispatched to a processor.
    pub dispatched: u64,
    /// Jobs that met their deadline.
    pub met: u64,
    /// Jobs that completed late.
    pub missed_late: u64,
    /// Jobs that expired queued.
    pub expired: u64,
}

impl TaskStats {
    /// Cumulative miss ratio for this task.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let resolved = self.met + self.missed_late + self.expired;
        if resolved == 0 {
            0.0
        } else {
            (self.missed_late + self.expired) as f64 / resolved as f64
        }
    }
}

/// Whole-run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    per_task: Vec<TaskStats>,
    window: WindowStats,
    total: WindowStats,
    released: u64,
    dispatched: u64,
    commands_emitted: u64,
    response_time_sum: f64,
    e2e_sum: f64,
    response_samples: Vec<f64>,
    e2e_samples: Vec<f64>,
}

impl SimStats {
    /// Creates statistics for `tasks` tasks.
    #[must_use]
    pub fn new(tasks: usize) -> Self {
        SimStats {
            per_task: vec![TaskStats::default(); tasks],
            window: WindowStats::default(),
            total: WindowStats::default(),
            released: 0,
            dispatched: 0,
            commands_emitted: 0,
            response_time_sum: 0.0,
            e2e_sum: 0.0,
            response_samples: Vec::new(),
            e2e_samples: Vec::new(),
        }
    }

    /// Records a job release.
    pub fn on_release(&mut self, task: usize) {
        self.released += 1;
        self.per_task[task].released += 1;
    }

    /// Records a dispatch.
    pub fn on_dispatch(&mut self, task: usize) {
        self.dispatched += 1;
        self.per_task[task].dispatched += 1;
    }

    /// Records a job resolution (completion or expiry).
    pub fn on_outcome(&mut self, task: usize, outcome: JobOutcome) {
        let (w, t, pt) = (&mut self.window, &mut self.total, &mut self.per_task[task]);
        match outcome {
            JobOutcome::Met => {
                w.met += 1;
                t.met += 1;
                pt.met += 1;
            }
            JobOutcome::MissedLate => {
                w.missed_late += 1;
                t.missed_late += 1;
                pt.missed_late += 1;
            }
            JobOutcome::Expired => {
                w.expired += 1;
                t.expired += 1;
                pt.expired += 1;
            }
        }
    }

    /// Upper bound on retained latency samples (percentile reservoir).
    const MAX_SAMPLES: usize = 200_000;

    /// Records a control command with its response time and end-to-end
    /// latency.
    pub fn on_command(&mut self, response: SimSpan, end_to_end: SimSpan) {
        self.commands_emitted += 1;
        self.response_time_sum += response.as_secs();
        self.e2e_sum += end_to_end.as_secs();
        if self.response_samples.len() < Self::MAX_SAMPLES {
            self.response_samples.push(response.as_secs());
            self.e2e_samples.push(end_to_end.as_secs());
        }
    }

    /// Drains and returns the counters accumulated since the last call —
    /// the external coordinator's `m(k)` sample.
    pub fn take_window(&mut self) -> WindowStats {
        std::mem::take(&mut self.window)
    }

    /// Cumulative counters over the whole run.
    #[must_use]
    pub fn totals(&self) -> WindowStats {
        self.total
    }

    /// Cumulative per-task counters.
    #[must_use]
    pub fn task(&self, task: usize) -> TaskStats {
        self.per_task[task]
    }

    /// All per-task counters.
    #[must_use]
    pub fn per_task(&self) -> &[TaskStats] {
        &self.per_task
    }

    /// Total jobs released.
    #[must_use]
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Total jobs dispatched.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of control commands emitted.
    #[must_use]
    pub fn commands_emitted(&self) -> u64 {
        self.commands_emitted
    }

    /// Mean control-task response time over the run, if any commands were
    /// emitted.
    #[must_use]
    pub fn mean_response_time(&self) -> Option<SimSpan> {
        (self.commands_emitted > 0)
            .then(|| SimSpan::from_secs(self.response_time_sum / self.commands_emitted as f64))
    }

    /// Mean end-to-end (source→command) latency, if any.
    #[must_use]
    pub fn mean_end_to_end(&self) -> Option<SimSpan> {
        (self.commands_emitted > 0)
            .then(|| SimSpan::from_secs(self.e2e_sum / self.commands_emitted as f64))
    }

    /// Percentile of the control-task response times (nearest-rank), e.g.
    /// `p = 0.99` for the tail the paper's responsiveness study cares
    /// about. `None` when no command has been emitted or `p` is outside
    /// `(0, 1]`.
    #[must_use]
    pub fn response_time_percentile(&self, p: f64) -> Option<SimSpan> {
        percentile(&self.response_samples, p).map(SimSpan::from_secs)
    }

    /// Percentile of the end-to-end latencies (nearest-rank). `None` when
    /// no latency was recorded or `p` is outside `(0, 1]`.
    #[must_use]
    pub fn end_to_end_percentile(&self, p: f64) -> Option<SimSpan> {
        percentile(&self.e2e_samples, p).map(SimSpan::from_secs)
    }
}

/// Nearest-rank percentile of unsorted samples.
///
/// Total by construction — the degenerate inputs a long-running service
/// will eventually produce (an empty sample set from a vehicle that never
/// emitted a command, a `NaN` percentile from a bad config) all map to
/// `None` instead of a panic. Public so fleet-level aggregation can reuse
/// the exact same nearest-rank definition the per-run stats report.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    // `!(p > 0.0)` (rather than `p <= 0.0`) also rejects NaN.
    if samples.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize)
        .max(1)
        .min(sorted.len());
    sorted.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_miss_ratio() {
        let w = WindowStats {
            met: 6,
            missed_late: 2,
            expired: 2,
        };
        assert_eq!(w.total(), 10);
        assert!((w.miss_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(WindowStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn take_window_drains_but_keeps_totals() {
        let mut s = SimStats::new(2);
        s.on_outcome(0, JobOutcome::Met);
        s.on_outcome(1, JobOutcome::MissedLate);
        let w = s.take_window();
        assert_eq!(w.met, 1);
        assert_eq!(w.missed_late, 1);
        assert_eq!(s.totals().total(), 2);
        s.on_outcome(0, JobOutcome::Expired);
        // The earlier take drained the window: only the new outcome is in it.
        let w = s.take_window();
        assert_eq!((w.total(), w.expired), (1, 1));
        assert_eq!(s.totals().expired, 1);
    }

    #[test]
    fn per_task_counters_track_outcomes() {
        let mut s = SimStats::new(3);
        s.on_release(1);
        s.on_dispatch(1);
        s.on_outcome(1, JobOutcome::Met);
        s.on_release(1);
        s.on_outcome(1, JobOutcome::Expired);
        let t = s.task(1);
        assert_eq!(t.released, 2);
        assert_eq!(t.dispatched, 1);
        assert_eq!(t.met, 1);
        assert_eq!(t.expired, 1);
        assert!((t.miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.task(0).released, 0);
    }

    #[test]
    fn command_means() {
        let mut s = SimStats::new(1);
        assert!(s.mean_response_time().is_none());
        s.on_command(SimSpan::from_millis(10.0), SimSpan::from_millis(100.0));
        s.on_command(SimSpan::from_millis(30.0), SimSpan::from_millis(200.0));
        assert_eq!(s.commands_emitted(), 2);
        assert!((s.mean_response_time().unwrap().as_millis() - 20.0).abs() < 1e-9);
        assert!((s.mean_end_to_end().unwrap().as_millis() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_follow_nearest_rank() {
        let mut s = SimStats::new(1);
        assert!(s.response_time_percentile(0.5).is_none());
        for ms in [10.0, 20.0, 30.0, 40.0] {
            s.on_command(SimSpan::from_millis(ms), SimSpan::from_millis(ms * 10.0));
        }
        assert_eq!(
            s.response_time_percentile(0.5).unwrap(),
            SimSpan::from_millis(20.0)
        );
        assert_eq!(
            s.response_time_percentile(1.0).unwrap(),
            SimSpan::from_millis(40.0)
        );
        assert_eq!(
            s.end_to_end_percentile(0.25).unwrap(),
            SimSpan::from_millis(100.0)
        );
    }

    #[test]
    fn percentile_is_none_for_invalid_p() {
        // Regression: these used to assert/panic, which is fatal for a
        // long-running fleet service fed degenerate per-vehicle results.
        let mut s = SimStats::new(1);
        s.on_command(SimSpan::from_millis(10.0), SimSpan::from_millis(100.0));
        assert!(s.response_time_percentile(0.0).is_none());
        assert!(s.response_time_percentile(-0.5).is_none());
        assert!(s.response_time_percentile(1.5).is_none());
        assert!(s.response_time_percentile(f64::NAN).is_none());
        assert!(s.response_time_percentile(0.99).is_some());
    }

    #[test]
    fn percentile_is_none_for_empty_samples() {
        // Regression: the nearest-rank clamp asserted `min <= max` on an
        // empty sample set; it must report "no data" instead.
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(percentile(&[], 1.0), None);
        let s = SimStats::new(1);
        assert!(s.response_time_percentile(0.99).is_none());
        assert!(s.end_to_end_percentile(0.5).is_none());
    }

    #[test]
    fn percentile_handles_single_sample_and_extremes() {
        assert_eq!(percentile(&[7.0], 0.01), Some(7.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }
}
