//! The discrete-event queue.
//!
//! Events are delivered in non-decreasing time order; ties are broken by
//! insertion sequence so the simulation is fully deterministic.
//!
//! Time comparison goes through [`SimTime`]'s `Ord`, which is implemented
//! with [`f64::total_cmp`] — a *total* order, so no
//! `partial_cmp().unwrap()` appears anywhere on this path and two times
//! that differ only in their last ulp still order reproducibly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hcperf_taskgraph::SimTime;

use crate::job::JobId;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Every source releases its job of the next pipeline cycle (and the
    /// next cycle release is armed).
    CycleRelease,
    /// The job running on `processor` finishes.
    JobCompleted {
        /// Processor index that becomes idle.
        processor: usize,
    },
    /// Check whether a queued job has expired (its deadline passed without
    /// the job being started).
    ExpiryCheck {
        /// Job to check.
        job: JobId,
    },
    /// A job's GPU post-processing finished: its output becomes visible to
    /// successors (and to the command stream) now.
    OutputReady {
        /// The job whose output is ready.
        job: JobId,
    },
    /// An injected fault window opens (`active`) or closes (`!active`).
    /// Carries an index into the engine's injected fault list (see
    /// `Sim::inject_fault`); fault-free runs never schedule this kind.
    FaultTransition {
        /// Index into the engine's fault list.
        fault: usize,
        /// `true` when the window opens, `false` when it closes.
        active: bool,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Firing time.
    pub time: SimTime,
    /// Insertion sequence number (tie-break).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use hcperf_rtsim::event::{EventKind, EventQueue};
/// use hcperf_taskgraph::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), EventKind::CycleRelease);
/// q.push(SimTime::from_secs(1.0), EventKind::JobCompleted { processor: 0 });
/// let first = q.pop().unwrap();
/// assert_eq!(first.time, SimTime::from_secs(1.0));
/// assert_eq!(first.kind, EventKind::JobCompleted { processor: 0 });
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `t_end`; leaves the queue untouched otherwise. This is the
    /// horizon-bounded drain the simulation loop runs on — one call sites
    /// both the emptiness and the cutoff check, so the loop needs no
    /// peek-then-unwrap pair.
    pub fn pop_due(&mut self, t_end: SimTime) -> Option<Event> {
        if self.heap.peek().is_some_and(|e| e.time <= t_end) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event tagged with `n`, to tell same-kind events apart.
    fn tagged(n: u64) -> EventKind {
        EventKind::ExpiryCheck { job: JobId::new(n) }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), tagged(0));
        q.push(SimTime::from_secs(1.0), tagged(1));
        q.push(SimTime::from_secs(2.0), tagged(2));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_secs())
            .collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(t, tagged(10));
        q.push(t, tagged(11));
        q.push(t, tagged(12));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(kinds, vec![tagged(10), tagged(11), tagged(12)]);
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), tagged(0));
        q.push(SimTime::from_secs(3.0), tagged(1));
        let horizon = SimTime::from_secs(2.0);
        assert_eq!(
            q.pop_due(horizon).map(|e| e.time),
            Some(SimTime::from_secs(1.0))
        );
        assert_eq!(q.pop_due(horizon), None, "3.0 s event is past the horizon");
        assert_eq!(q.len(), 1, "the late event stays queued");
        // An event exactly at the horizon is due.
        q.push(horizon, tagged(2));
        assert_eq!(q.pop_due(horizon).map(|e| e.time), Some(horizon));
        assert_eq!(
            q.pop_due(SimTime::from_secs(10.0)).map(|e| e.time),
            Some(SimTime::from_secs(3.0))
        );
        assert_eq!(q.pop_due(SimTime::from_secs(10.0)), None, "empty queue");
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), tagged(0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop().map(|e| e.time), Some(SimTime::from_secs(5.0)));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Pins the queue's tie-break contract: same-time events of *different*
    /// kinds pop in exact insertion order, and times separated by one ulp
    /// (`0.1 + 0.2` vs the `0.3` literal) order by `f64::total_cmp`, never
    /// by an epsilon comparison.
    #[test]
    fn tie_break_order_is_pinned() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        q.push(t, EventKind::ExpiryCheck { job: JobId::new(7) });
        q.push(t, EventKind::JobCompleted { processor: 0 });
        q.push(t, EventKind::CycleRelease);
        q.push(t, EventKind::OutputReady { job: JobId::new(8) });
        q.push(t, EventKind::JobCompleted { processor: 1 });
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::ExpiryCheck { job: JobId::new(7) },
                EventKind::JobCompleted { processor: 0 },
                EventKind::CycleRelease,
                EventKind::OutputReady { job: JobId::new(8) },
                EventKind::JobCompleted { processor: 1 },
            ],
        );

        // One-ulp separation: 0.1 + 0.2 > 0.3 in f64. total_cmp must order
        // them, not collapse them into a tie.
        let lo = SimTime::from_secs(0.3);
        let hi = SimTime::from_secs(0.1 + 0.2);
        assert_ne!(lo, hi);
        q.push(hi, tagged(99));
        q.push(lo, tagged(42));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![6, 5], "0.3 pops before 0.1 + 0.2");
    }

    #[test]
    fn mixed_event_kinds_order_correctly() {
        let mut q = EventQueue::new();
        q.push(
            SimTime::from_secs(2.0),
            EventKind::JobCompleted { processor: 1 },
        );
        q.push(
            SimTime::from_secs(2.0),
            EventKind::ExpiryCheck { job: JobId::new(4) },
        );
        q.push(SimTime::from_secs(1.5), EventKind::CycleRelease);
        assert_eq!(q.pop().unwrap().kind, EventKind::CycleRelease);
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::JobCompleted { processor: 1 }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::ExpiryCheck { .. }
        ));
    }
}
