//! Response-time analysis (RTA) for non-preemptive global fixed-priority
//! scheduling.
//!
//! A *sufficient* (conservative) offline test in the Bertogna–Cirinei
//! style, simplified for the pipeline workload model this crate uses
//! (every task releases once per pipeline period `T = 1/rate`):
//!
//! ```text
//! R_i = C_i + B_i + ⌈ Σ_{j ∈ hp(i)} W_j(R_i) / m ⌉
//! ```
//!
//! * `B_i` — non-preemptive blocking: the longest lower-priority execution
//!   that may occupy a processor when `τ_i` arrives;
//! * `W_j(t) = (⌊t/T⌋ + 1)·C_j` — a workload bound for each
//!   equal-or-higher-priority task including one carry-in job;
//! * interference is divided across the `m` processors (global
//!   scheduling).
//!
//! The iteration starts at `C_i + B_i` and stops at a fixed point or once
//! the bound exceeds the deadline (deemed unschedulable). All
//! simplifications are *pessimistic*, so a "schedulable" verdict is safe:
//! the simulated response times never exceed these bounds (covered by
//! integration tests against the engine).
//!
//! Being a sufficient test, it can reject systems that work fine in
//! practice: the Fig. 11 evaluation graph's tightest sensing deadlines
//! (radar/ultrasonic, 40 ms against ~41 ms of one-round carry-in
//! interference) fail the test at every rate even though the simulator
//! meets them comfortably at low rates — which is precisely why the paper
//! pairs offline analysis with *online* rate adaptation.

use hcperf_taskgraph::{ExecContext, Rate, SimSpan, TaskGraph, TaskId};

/// Per-task outcome of the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtaResult {
    /// The task analyzed.
    pub task: TaskId,
    /// The converged response-time bound; `None` if the iteration exceeded
    /// the deadline before converging.
    pub response_bound: Option<SimSpan>,
    /// Whether the bound fits within the task's relative deadline.
    pub schedulable: bool,
}

/// Runs the analysis for every task of `graph` released at pipeline
/// `rate` on `m` processors, using worst-case execution times under `ctx`.
///
/// # Examples
///
/// ```
/// use hcperf::rta::rta_fixed_priority;
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::{ExecContext, Rate};
///
/// let graph = apollo_graph(&GraphOptions { jitter_frac: 0.0, ..Default::default() })?;
/// let results = rta_fixed_priority(&graph, Rate::from_hz(10.0), ExecContext::idle(), 4);
/// // The chassis command (highest priority) is guaranteed even though the
/// // conservative test cannot vouch for every tight sensing deadline.
/// let chassis = graph.find("chassis_command").unwrap();
/// assert!(results[chassis.index()].schedulable);
/// # Ok::<(), hcperf_taskgraph::GraphError>(())
/// ```
#[must_use]
pub fn rta_fixed_priority(
    graph: &TaskGraph,
    rate: Rate,
    ctx: ExecContext,
    m: usize,
) -> Vec<RtaResult> {
    let m = m.max(1) as f64;
    let period = rate.period().as_secs();
    let wcet: Vec<f64> = graph
        .task_ids()
        .map(|id| graph.spec(id).exec_model().worst_case(ctx).as_secs())
        .collect();
    // Precondition for the busy-period argument: long-run demand must fit
    // the platform, or backlog grows without bound and the per-job fixed
    // point is meaningless.
    let total_utilization = wcet.iter().sum::<f64>() / period / m;
    if total_utilization >= 1.0 {
        return graph
            .task_ids()
            .map(|task| RtaResult {
                task,
                response_bound: None,
                schedulable: false,
            })
            .collect();
    }
    graph
        .task_ids()
        .map(|task| {
            let i = task.index();
            let p_i = graph.spec(task).priority();
            let deadline = graph.spec(task).relative_deadline().as_secs();
            let c_i = wcet[i];
            // Blocking: the longest strictly-lower-priority execution.
            let blocking = graph
                .iter()
                .filter(|(id, spec)| *id != task && p_i.is_higher_than(spec.priority()))
                .map(|(id, _)| wcet[id.index()])
                .fold(0.0f64, f64::max);
            // Interfering set: equal-or-higher priority, excluding self
            // (equal priorities interfere both ways; counting them is the
            // conservative choice for a deterministic tie-break).
            let interferers: Vec<usize> = graph
                .iter()
                .filter(|(id, spec)| *id != task && !p_i.is_higher_than(spec.priority()))
                .map(|(id, _)| id.index())
                .collect();

            let mut r = c_i + blocking;
            let mut response_bound = None;
            for _ in 0..1000 {
                let interference: f64 = interferers
                    .iter()
                    .map(|&j| ((r / period).floor() + 1.0) * wcet[j])
                    .sum();
                let next = c_i + blocking + interference / m;
                if next > deadline {
                    break;
                }
                if (next - r).abs() < 1e-9 {
                    response_bound = Some(next);
                    break;
                }
                r = next;
            }
            RtaResult {
                task,
                response_bound: response_bound.map(SimSpan::from_secs),
                schedulable: response_bound.is_some(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
    use hcperf_taskgraph::{ExecModel, Priority, RateRange, Stage, TaskGraph, TaskSpec};

    fn apollo() -> TaskGraph {
        apollo_graph(&GraphOptions {
            jitter_frac: 0.0,
            with_affinity: false,
            processors: 4,
        })
        .unwrap()
    }

    /// Six independent tasks with headroom in their deadlines, so the
    /// conservative analysis has room to say yes at low rates.
    fn loose_graph() -> TaskGraph {
        let mut b = TaskGraph::builder();
        for (i, ms) in [5.0, 8.0, 10.0, 6.0, 4.0, 7.0].into_iter().enumerate() {
            b.add_task(
                TaskSpec::builder(format!("t{i}"))
                    .stage(Stage::Sensing)
                    .priority(Priority::new(i as u32))
                    .exec_model(ExecModel::constant(SimSpan::from_millis(ms)))
                    .relative_deadline(SimSpan::from_millis(80.0))
                    .rate_range(RateRange::from_hz(1.0, 200.0))
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    fn all_schedulable(g: &TaskGraph, rate: Rate, m: usize) -> bool {
        rta_fixed_priority(g, rate, ExecContext::idle(), m)
            .iter()
            .all(|r| r.schedulable)
    }

    #[test]
    fn low_rate_is_schedulable_high_rate_is_not() {
        let g = loose_graph();
        assert!(all_schedulable(&g, Rate::from_hz(10.0), 2));
        assert!(!all_schedulable(&g, Rate::from_hz(150.0), 2));
    }

    #[test]
    fn bounds_are_at_least_the_wcet_plus_blocking() {
        let g = loose_graph();
        let ctx = ExecContext::idle();
        for r in rta_fixed_priority(&g, Rate::from_hz(10.0), ctx, 2) {
            let bound = r.response_bound.unwrap();
            let c = g.spec(r.task).exec_model().worst_case(ctx);
            assert!(bound >= c, "{}: bound {bound} < wcet {c}", r.task);
        }
    }

    #[test]
    fn apollo_chassis_is_guaranteed_but_tight_sensing_is_not() {
        // The sufficient test vouches for the high-priority control chain
        // but (pessimistically) rejects the 40 ms sensing deadlines — the
        // documented reason the paper needs online adaptation on top of
        // offline analysis.
        let g = apollo();
        let ctx = ExecContext::idle();
        let results = rta_fixed_priority(&g, Rate::from_hz(10.0), ctx, 4);
        let chassis = g.find("chassis_command").unwrap();
        assert!(results[chassis.index()].schedulable);
        let ultrasonic = g.find("ultrasonic_preproc").unwrap();
        assert!(!results[ultrasonic.index()].schedulable);
    }

    #[test]
    fn more_processors_never_hurt() {
        let g = apollo();
        let ctx = ExecContext::idle();
        let r4 = rta_fixed_priority(&g, Rate::from_hz(10.0), ctx, 4);
        let r8 = rta_fixed_priority(&g, Rate::from_hz(10.0), ctx, 8);
        for (a, b) in r4.iter().zip(&r8) {
            match (a.response_bound, b.response_bound) {
                (Some(x), Some(y)) => assert!(y <= x + SimSpan::from_millis(1e-6)),
                (None, Some(_)) | (None, None) => {}
                (Some(_), None) => panic!("more processors made {} unschedulable", a.task),
            }
        }
    }

    #[test]
    fn highest_priority_task_sees_only_blocking() {
        // A 2-task system: hi (p0, 5 ms) and lo (p9, 20 ms) on 1 processor.
        // hi's bound is exactly C_hi + C_lo (blocking, no interference).
        let mut b = TaskGraph::builder();
        b.add_task(
            TaskSpec::builder("hi")
                .stage(Stage::Sensing)
                .priority(Priority::new(0))
                .exec_model(ExecModel::constant(SimSpan::from_millis(5.0)))
                .relative_deadline(SimSpan::from_millis(100.0))
                .rate_range(RateRange::from_hz(5.0, 5.0))
                .build()
                .unwrap(),
        );
        b.add_task(
            TaskSpec::builder("lo")
                .stage(Stage::Sensing)
                .priority(Priority::new(9))
                .exec_model(ExecModel::constant(SimSpan::from_millis(20.0)))
                .relative_deadline(SimSpan::from_millis(100.0))
                .rate_range(RateRange::from_hz(5.0, 5.0))
                .build()
                .unwrap(),
        );
        let g = b.build().unwrap();
        let results = rta_fixed_priority(&g, Rate::from_hz(5.0), ExecContext::idle(), 1);
        let hi = results[0].response_bound.unwrap();
        assert!((hi.as_millis() - 25.0).abs() < 1e-6, "{hi}");
    }

    #[test]
    fn guaranteed_rate_is_below_the_utilization_knee() {
        let g = loose_graph();
        // The analysis is conservative: it vouches for every task at 10 Hz
        // but not at the unity-utilization rate of this graph.
        let unity = crate::analysis::max_rate_within_bound(&g, ExecContext::idle(), 2, 1.0);
        assert!(unity.as_hz() > 10.0, "unity {unity}");
        assert!(all_schedulable(&g, Rate::from_hz(10.0), 2));
        assert!(!all_schedulable(&g, unity, 2));
    }
}
