//! The pluggable scheduler interface.
//!
//! A scheduler ranks ready jobs in one of two ways:
//!
//! * **A key fixed at release.** [`Scheduler::release_key`] returns each
//!   job's dispatch key when the job enters the ready queue. The engine
//!   keeps the key beside the job and fills every idle processor with the
//!   affinity-eligible job of least `(key, JobId)`: lower keys dispatch
//!   first, and equal keys go to the lower [`JobId`]. The scheduler is
//!   not consulted again. FIFO and the paper's four baselines (HPF, EDF,
//!   EDF-VD, Apollo) work this way; [`order_image`] turns a time into a
//!   key.
//! * **A choice at every dispatch.** A scheduler whose ranking moves with
//!   time or state returns `None` from `release_key`, and the engine asks
//!   [`Scheduler::select`] whenever a processor is idle and work is
//!   eligible for it. `select` sees the full ready queue, the candidate
//!   indices permitted on the idle processor (affinity-filtered by the
//!   engine), per-task observed execution times (the paper's `c_i`: "the
//!   execution time from the last run of the task"), and the remaining
//!   processing time on every processor (the paper's `T_p`). HCPerf's
//!   Dynamic Priority Scheduler (Eq. 10) is the one such scheduler.
//!
//! Scheduling is non-preemptive: once dispatched, a job runs to completion.

use hcperf_taskgraph::{SimSpan, SimTime, TaskGraph};

use crate::job::{Job, JobId};

/// Read-only view the engine hands to the scheduler at each dispatch point.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The task graph being executed.
    pub graph: &'a TaskGraph,
    /// The full ready queue (release order).
    pub queue: &'a [Job],
    /// Indices into `queue` that may run on `processor` (affinity-filtered).
    pub candidates: &'a [usize],
    /// The processor being filled.
    pub processor: usize,
    /// Per-task observed execution time `c_i` (last run; nominal before any
    /// observation). Indexed by `TaskId::index()`.
    pub observed_exec: &'a [SimSpan],
    /// Remaining processing time `T_p` of the job currently running on each
    /// processor ([`SimSpan::ZERO`] for idle processors).
    pub processor_remaining: &'a [SimSpan],
}

impl SchedContext<'_> {
    /// Observed execution time of a job's task.
    #[must_use]
    pub fn exec_of(&self, job: &Job) -> SimSpan {
        self.observed_exec[job.task().index()]
    }

    /// Total remaining processing time over all processors (`Σ T_p`).
    #[must_use]
    pub fn total_remaining(&self) -> SimSpan {
        self.processor_remaining
            .iter()
            .fold(SimSpan::ZERO, |a, &b| a + b)
    }

    /// Number of processors (`n_p`).
    #[must_use]
    pub fn processor_count(&self) -> usize {
        self.processor_remaining.len()
    }
}

/// The unsigned image of `x` under the IEEE 754 total order: for every
/// pair of `f64` values, including signed zeros, infinities, NaNs and
/// subnormals, `order_image(a).cmp(&order_image(b))` equals
/// `a.total_cmp(&b)`. Dispatch keys are built from it, so a key compares
/// times exactly as [`SimTime`]'s `Ord` does.
#[must_use]
#[inline]
pub fn order_image(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative floats flip every bit, the others only the sign bit; the
    // unsigned order of the result is then the `total_cmp` order.
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// A non-preemptive multiprocessor scheduling policy.
///
/// A scheduler either keys every job at release ([`release_key`]) or
/// chooses at every dispatch ([`select`]); see the [module docs](self).
///
/// The key contract: a job's key is fixed when the job is released (and
/// when a failed processor requeues it); lower keys dispatch first; equal
/// keys go to the lower [`JobId`]; `None` means "ask `select`". The
/// engine reads no key once any job has returned `None`, so a scheduler
/// returns `Some` for every job or for none.
///
/// `select` must return either `None` (leave the processor idle) or
/// `Some(i)` with `i` taken from [`SchedContext::candidates`].
///
/// [`release_key`]: Scheduler::release_key
/// [`select`]: Scheduler::select
pub trait Scheduler {
    /// Picks the next job for `ctx.processor`, returning an index into
    /// `ctx.queue` drawn from `ctx.candidates`.
    ///
    /// The default picks the candidate with the least
    /// `(release_key, JobId)`: the order the engine's keyed dispatch uses,
    /// so a keyed scheduler gives the same schedule through either path.
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        let mut best: Option<((Option<u128>, JobId), usize)> = None;
        for &i in ctx.candidates {
            let Some(job) = ctx.queue.get(i) else {
                continue;
            };
            let rank = (self.release_key(job, ctx.graph), job.id());
            if best.is_none_or(|(least, _)| rank < least) {
                best = Some((rank, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// The job's dispatch key, fixed at release, or `None` to have the
    /// engine ask [`select`](Scheduler::select) at every dispatch (the
    /// default).
    fn release_key(&self, job: &Job, graph: &TaskGraph) -> Option<u128> {
        let _ = (job, graph);
        None
    }

    /// Human-readable scheme name for reports.
    fn name(&self) -> &str;
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        (**self).select(ctx)
    }

    fn release_key(&self, job: &Job, graph: &TaskGraph) -> Option<u128> {
        (**self).release_key(job, graph)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// First-in-first-out reference scheduler: dispatches the earliest-released
/// candidate. Useful as a baseline sanity check and in engine tests.
///
/// # Examples
///
/// ```
/// use hcperf_rtsim::FifoScheduler;
/// use hcperf_rtsim::Scheduler;
///
/// let s = FifoScheduler::new();
/// assert_eq!(s.name(), "FIFO");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler(());

impl FifoScheduler {
    /// Creates a FIFO scheduler.
    #[must_use]
    pub fn new() -> Self {
        FifoScheduler(())
    }
}

impl Scheduler for FifoScheduler {
    fn release_key(&self, job: &Job, _graph: &TaskGraph) -> Option<u128> {
        Some(order_image(job.release().as_secs()).into())
    }

    fn name(&self) -> &str {
        "FIFO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_taskgraph::{TaskId, TaskSpec};
    use proptest::prelude::*;

    /// Values a uniform bit pattern almost never hits.
    const SPECIAL: [f64; 12] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
    ];

    /// `SPECIAL[pick]` when `pick` indexes it, else the float with `bits`
    /// (signaling NaNs and subnormals included).
    fn value(bits: u64, pick: usize) -> f64 {
        SPECIAL
            .get(pick)
            .copied()
            .unwrap_or_else(|| f64::from_bits(bits))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn order_image_is_the_total_order(
            a in any::<u64>(),
            b in any::<u64>(),
            pick_a in 0usize..24,
            pick_b in 0usize..24,
        ) {
            let (x, y) = (value(a, pick_a), value(b, pick_b));
            prop_assert_eq!(order_image(x).cmp(&order_image(y)), x.total_cmp(&y));
            // `a` with its lowest bit flipped: adjacent floats, the
            // hardest pairs to order.
            let z = f64::from_bits(a ^ 1);
            prop_assert_eq!(order_image(x).cmp(&order_image(z)), x.total_cmp(&z));
        }
    }

    fn tiny_graph() -> TaskGraph {
        let mut b = TaskGraph::builder();
        b.add_task(TaskSpec::builder("a").build().unwrap());
        b.add_task(TaskSpec::builder("b").build().unwrap());
        b.build().unwrap()
    }

    fn job(id: u64, task: usize, release: f64) -> Job {
        Job::new(
            JobId::new(id),
            TaskId::new(task),
            0,
            SimTime::from_secs(release),
            SimSpan::from_millis(100.0),
            SimTime::from_secs(release),
        )
    }

    #[test]
    fn fifo_picks_earliest_release_among_candidates() {
        let graph = tiny_graph();
        let queue = vec![job(0, 0, 3.0), job(1, 1, 1.0), job(2, 0, 2.0)];
        let observed = vec![SimSpan::from_millis(5.0); 2];
        let remaining = vec![SimSpan::ZERO; 2];
        let mut fifo = FifoScheduler::new();

        let all = vec![0, 1, 2];
        let ctx = SchedContext {
            now: SimTime::from_secs(4.0),
            graph: &graph,
            queue: &queue,
            candidates: &all,
            processor: 0,
            observed_exec: &observed,
            processor_remaining: &remaining,
        };
        assert_eq!(fifo.select(&ctx), Some(1));

        // Restricted candidates: pick the earliest among them only.
        let restricted = vec![0, 2];
        let ctx = SchedContext {
            candidates: &restricted,
            ..ctx
        };
        assert_eq!(fifo.select(&ctx), Some(2));

        // No candidates: leave idle.
        let none: Vec<usize> = vec![];
        let ctx = SchedContext {
            candidates: &none,
            ..ctx
        };
        assert_eq!(fifo.select(&ctx), None);
    }

    #[test]
    fn context_helpers() {
        let graph = tiny_graph();
        let queue = vec![job(0, 1, 0.0)];
        let observed = vec![SimSpan::from_millis(5.0), SimSpan::from_millis(8.0)];
        let remaining = vec![SimSpan::from_millis(3.0), SimSpan::from_millis(7.0)];
        let cands = vec![0];
        let ctx = SchedContext {
            now: SimTime::ZERO,
            graph: &graph,
            queue: &queue,
            candidates: &cands,
            processor: 0,
            observed_exec: &observed,
            processor_remaining: &remaining,
        };
        assert_eq!(ctx.exec_of(&queue[0]), SimSpan::from_millis(8.0));
        assert!((ctx.total_remaining().as_millis() - 10.0).abs() < 1e-9);
        assert_eq!(ctx.processor_count(), 2);
    }

    #[test]
    fn boxed_scheduler_delegates() {
        let mut boxed: Box<dyn Scheduler> = Box::new(FifoScheduler::new());
        assert_eq!(boxed.name(), "FIFO");
        let graph = tiny_graph();
        let queue = vec![job(0, 0, 0.0)];
        let observed = vec![SimSpan::ZERO; 2];
        let remaining = vec![SimSpan::ZERO];
        let cands = vec![0];
        let ctx = SchedContext {
            now: SimTime::ZERO,
            graph: &graph,
            queue: &queue,
            candidates: &cands,
            processor: 0,
            observed_exec: &observed,
            processor_remaining: &remaining,
        };
        assert_eq!(boxed.select(&ctx), Some(0));
    }
}
