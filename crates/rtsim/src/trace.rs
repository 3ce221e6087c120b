//! Execution tracing.
//!
//! A bounded trace of scheduling decisions, used by the Fig. 5 schedule
//! reproduction and for debugging engine behaviour in tests.

use hcperf_taskgraph::{SimTime, TaskId};
use serde::{Deserialize, Serialize};

use crate::job::JobId;

/// One traced scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job entered the ready queue.
    Released {
        /// Time of release.
        time: SimTime,
        /// The job.
        job: JobId,
        /// Its task.
        task: TaskId,
        /// Its pipeline cycle.
        cycle: u64,
    },
    /// A job started executing.
    Dispatched {
        /// Dispatch time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// Its task.
        task: TaskId,
        /// Processor it runs on.
        processor: usize,
    },
    /// A job finished executing.
    Completed {
        /// Completion time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// Its task.
        task: TaskId,
        /// Whether the deadline was met.
        met_deadline: bool,
    },
    /// A queued job expired before starting.
    Expired {
        /// Expiry time (the job's absolute deadline).
        time: SimTime,
        /// The job.
        job: JobId,
        /// Its task.
        task: TaskId,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    #[must_use]
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::Released { time, .. }
            | TraceEvent::Dispatched { time, .. }
            | TraceEvent::Completed { time, .. }
            | TraceEvent::Expired { time, .. } => *time,
        }
    }

    /// The task the event concerns.
    #[must_use]
    pub fn task(&self) -> TaskId {
        match self {
            TraceEvent::Released { task, .. }
            | TraceEvent::Dispatched { task, .. }
            | TraceEvent::Completed { task, .. }
            | TraceEvent::Expired { task, .. } => *task,
        }
    }
}

/// A bounded in-memory trace. Disabled (capacity 0) by default; enabling it
/// costs one `Vec` push per scheduling event.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// Creates a disabled trace.
    #[must_use]
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Creates a trace retaining up to `capacity` events; further events are
    /// counted but dropped.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Records an event (no-op when disabled; counts drops when full).
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events that did not fit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn released(t: f64, job: u64, task: usize) -> TraceEvent {
        TraceEvent::Released {
            time: SimTime::from_secs(t),
            job: JobId::new(job),
            task: TaskId::new(task),
            cycle: 0,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.record(released(1.0, 0, 0));
        assert!(tr.events().is_empty());
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn bounded_trace_counts_drops() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.record(released(i as f64, i, 0));
        }
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.dropped(), 3);
    }

    #[test]
    fn filter_by_task() {
        let mut tr = Trace::with_capacity(10);
        tr.record(released(1.0, 0, 0));
        tr.record(released(2.0, 1, 1));
        tr.record(released(3.0, 2, 0));
        let count = |task| tr.events().iter().filter(|e| e.task() == task).count();
        assert_eq!(count(TaskId::new(0)), 2);
        assert_eq!(count(TaskId::new(1)), 1);
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::Completed {
            time: SimTime::from_secs(2.0),
            job: JobId::new(4),
            task: TaskId::new(3),
            met_deadline: true,
        };
        assert_eq!(e.time(), SimTime::from_secs(2.0));
        assert_eq!(e.task(), TaskId::new(3));
    }
}
