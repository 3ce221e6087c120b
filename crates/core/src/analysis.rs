//! Offline schedulability analysis and profiling.
//!
//! The external coordinator is initialized from *offline profiled data*
//! (§ VI step 2) and "helps to guarantee the schedulability of the system
//! through maintaining the utilization of the processors below the
//! specified utilization bound according to [Liu & Layland]". This module
//! provides those offline pieces:
//!
//! * [`pipeline_utilization`] — utilization of a task graph at a pipeline
//!   rate;
//! * [`liu_layland_bound`] — the classic fixed-priority utilization bound;
//! * [`max_rate_within_bound`] — the highest pipeline rate whose utilization
//!   stays below a bound (a principled initial rate for the adapter);
//! * [`analyze`] — a one-call schedulability report;
//! * [`profile_rate_sensitivity`] — empirical estimation of the paper's
//!   Eq. 14 sensitivity `g` (∂miss-ratio/∂rate) by simulation, from which
//!   [`suggested_gain`] derives an initial `K_p`.

use hcperf_rtsim::{Sim, SimConfig, SimError};
use hcperf_taskgraph::{ExecContext, LoadProfile, Rate, SimTime, TaskGraph};

use crate::dps::DpsConfig;
use crate::scheme::Scheme;

/// Utilization of one pipeline cycle: total nominal work per second divided
/// by processing capacity.
///
/// Under the same-cycle pipeline model every task runs once per cycle, so
/// at pipeline rate `r` the demanded work is `r · Σ cᵢ` against `n_p`
/// processor-seconds per second.
///
/// # Examples
///
/// ```
/// use hcperf::analysis::pipeline_utilization;
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::{ExecContext, Rate};
///
/// let graph = apollo_graph(&GraphOptions::default())?;
/// let u = pipeline_utilization(&graph, Rate::from_hz(20.0), ExecContext::idle(), 4);
/// assert!(u > 0.5 && u < 1.1);
/// # Ok::<(), hcperf_taskgraph::GraphError>(())
/// ```
#[must_use]
pub fn pipeline_utilization(
    graph: &TaskGraph,
    rate: Rate,
    ctx: ExecContext,
    processors: usize,
) -> f64 {
    let work = graph.total_work(ctx).as_secs();
    work * rate.as_hz() / processors.max(1) as f64
}

/// The Liu & Layland fixed-priority utilization bound for `n` tasks:
/// `n·(2^{1/n} − 1)`, approaching `ln 2 ≈ 0.693` as `n → ∞`.
///
/// # Examples
///
/// ```
/// let b1 = hcperf::analysis::liu_layland_bound(1);
/// assert!((b1 - 1.0).abs() < 1e-12);
/// let b = hcperf::analysis::liu_layland_bound(100);
/// assert!((b - std::f64::consts::LN_2).abs() < 0.01);
/// ```
#[must_use]
pub fn liu_layland_bound(n: usize) -> f64 {
    let n = n.max(1) as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// The highest pipeline rate whose utilization stays at or below `bound`.
///
/// # Panics
///
/// Panics if the graph has zero total work (impossible for validated
/// graphs, whose execution times are floored at 1 µs) or `bound <= 0`.
#[must_use]
pub fn max_rate_within_bound(
    graph: &TaskGraph,
    ctx: ExecContext,
    processors: usize,
    bound: f64,
) -> Rate {
    assert!(bound > 0.0, "utilization bound must be positive");
    let work = graph.total_work(ctx).as_secs();
    assert!(work > 0.0, "graph has no work");
    Rate::from_hz(bound * processors.max(1) as f64 / work)
}

/// Outcome of a schedulability check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulabilityReport {
    /// Utilization at the probed rate.
    pub utilization: f64,
    /// The Liu & Layland bound for the graph's task count.
    pub bound: f64,
    /// Whether utilization is within the bound (sufficient condition).
    pub within_bound: bool,
    /// Whether utilization is below 1 (necessary condition).
    pub feasible: bool,
    /// Critical-path latency of one cycle — a lower bound on the shortest
    /// achievable end-to-end latency.
    pub critical_path_secs: f64,
}

/// Checks a graph/rate/platform combination offline.
///
/// # Examples
///
/// ```
/// use hcperf::analysis::analyze;
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::{ExecContext, Rate};
///
/// let graph = apollo_graph(&GraphOptions::default())?;
/// let report = analyze(&graph, Rate::from_hz(100.0), ExecContext::idle(), 4);
/// assert!(!report.feasible, "100 Hz overloads 4 processors");
/// # Ok::<(), hcperf_taskgraph::GraphError>(())
/// ```
#[must_use]
pub fn analyze(
    graph: &TaskGraph,
    rate: Rate,
    ctx: ExecContext,
    processors: usize,
) -> SchedulabilityReport {
    let utilization = pipeline_utilization(graph, rate, ctx, processors);
    let bound = liu_layland_bound(graph.len());
    SchedulabilityReport {
        utilization,
        bound,
        within_bound: utilization <= bound,
        feasible: utilization < 1.0,
        critical_path_secs: graph.critical_path(ctx).as_secs(),
    }
}

/// Empirically estimates the Eq. 14 sensitivity `g = Δm/Δr` (change of
/// deadline-miss ratio per Hz of pipeline rate) by running two short
/// simulations under `scheme` at `low` and `high` rates.
///
/// This is the "offline profiled data" the Task Rate Adapter's initial
/// `K_p` comes from: a plant with high sensitivity needs a gentler gain.
///
/// # Errors
///
/// Propagates [`SimError`] from simulator construction.
#[allow(clippy::too_many_arguments)] // a profiling entry point: every knob is load-bearing
pub fn profile_rate_sensitivity(
    graph: &TaskGraph,
    scheme: Scheme,
    processors: usize,
    load: LoadProfile,
    low: Rate,
    high: Rate,
    duration_secs: f64,
    seed: u64,
) -> Result<f64, SimError> {
    let run = |rate: Rate| -> Result<f64, SimError> {
        let mut sim = Sim::new(
            graph.clone(),
            SimConfig {
                processors,
                seed,
                load: load.clone(),
                expire_queued_jobs: false,
                ..Default::default()
            },
            scheme.build(DpsConfig::default()),
        )?;
        let sources: Vec<_> = sim.source_rates().iter().map(|&(t, _)| t).collect();
        for s in sources {
            sim.set_source_rate(s, rate)?;
        }
        sim.run_until(SimTime::from_secs(duration_secs));
        Ok(sim.stats().totals().miss_ratio())
    };
    let m_low = run(low)?;
    let m_high = run(high)?;
    let dr = high.as_hz() - low.as_hz();
    if dr.abs() < 1e-12 {
        return Ok(0.0);
    }
    Ok((m_high - m_low) / dr)
}

/// Distributes an end-to-end latency budget across the tasks of a graph as
/// per-task relative deadlines, proportionally to each task's share of the
/// worst-case work along its *deepest* path (the classic proportional
/// deadline-assignment heuristic for end-to-end real-time pipelines).
///
/// Every task gets `D_i = budget · C_i · depth_path / cp` scaled so the
/// deepest chain's deadlines sum to exactly `budget`; a floor of
/// `2 × C_i` keeps every deadline individually meetable with slack.
/// Returns `(TaskId, suggested deadline)` pairs in id order.
///
/// # Panics
///
/// Panics if `budget` is not strictly positive.
///
/// # Examples
///
/// ```
/// use hcperf::analysis::proportional_deadlines;
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::{ExecContext, SimSpan};
///
/// let graph = apollo_graph(&GraphOptions::default())?;
/// let deadlines = proportional_deadlines(&graph, SimSpan::from_millis(400.0), ExecContext::idle());
/// assert_eq!(deadlines.len(), graph.len());
/// # Ok::<(), hcperf_taskgraph::GraphError>(())
/// ```
#[must_use]
pub fn proportional_deadlines(
    graph: &TaskGraph,
    budget: hcperf_taskgraph::SimSpan,
    ctx: ExecContext,
) -> Vec<(hcperf_taskgraph::TaskId, hcperf_taskgraph::SimSpan)> {
    assert!(
        budget > hcperf_taskgraph::SimSpan::ZERO,
        "budget must be strictly positive"
    );
    let cp = graph.critical_path(ctx).as_secs().max(1e-9);
    let scale = budget.as_secs() / cp;
    graph
        .task_ids()
        .map(|id| {
            let c = graph.spec(id).exec_model().worst_case(ctx).as_secs();
            let d = (c * scale).max(2.0 * c);
            (id, hcperf_taskgraph::SimSpan::from_secs(d))
        })
        .collect()
}

/// Derives an initial proportional gain from a measured rate sensitivity:
/// roughly the inverse sensitivity, clamped to a sane band, so one period's
/// correction cancels one period's observed error.
#[must_use]
pub fn suggested_gain(sensitivity: f64) -> f64 {
    if sensitivity.abs() < 1e-9 {
        return 1.0;
    }
    (1.0 / (sensitivity.abs() * 100.0)).clamp(0.05, 5.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};

    fn graph() -> TaskGraph {
        apollo_graph(&GraphOptions {
            jitter_frac: 0.0,
            with_affinity: false,
            processors: 4,
        })
        .unwrap()
    }

    #[test]
    fn utilization_scales_linearly_with_rate() {
        let g = graph();
        let ctx = ExecContext::idle();
        let u20 = pipeline_utilization(&g, Rate::from_hz(20.0), ctx, 4);
        let u40 = pipeline_utilization(&g, Rate::from_hz(40.0), ctx, 4);
        assert!((u40 / u20 - 2.0).abs() < 1e-9);
        // Halving the processors doubles utilization.
        let u20_2p = pipeline_utilization(&g, Rate::from_hz(20.0), ctx, 2);
        assert!((u20_2p / u20 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn liu_layland_known_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
        assert!(liu_layland_bound(23) > std::f64::consts::LN_2);
        assert!(liu_layland_bound(23) < 0.71);
    }

    #[test]
    fn max_rate_respects_bound() {
        let g = graph();
        let ctx = ExecContext::idle();
        let rate = max_rate_within_bound(&g, ctx, 4, 0.693);
        let u = pipeline_utilization(&g, rate, ctx, 4);
        assert!((u - 0.693).abs() < 1e-9);
    }

    #[test]
    fn analyze_reports_consistent_fields() {
        let g = graph();
        let ctx = ExecContext::idle();
        let ok = analyze(&g, Rate::from_hz(10.0), ctx, 4);
        assert!(ok.feasible);
        assert!(ok.utilization < ok.bound || !ok.within_bound);
        assert!(ok.critical_path_secs > 0.05, "{}", ok.critical_path_secs);
        let over = analyze(&g, Rate::from_hz(100.0), ctx, 4);
        assert!(!over.feasible);
        assert!(!over.within_bound);
    }

    #[test]
    fn sensitivity_is_positive_across_the_knee() {
        let g = graph();
        let sens = profile_rate_sensitivity(
            &g,
            Scheme::Edf,
            4,
            LoadProfile::constant(0.0),
            Rate::from_hz(15.0),
            Rate::from_hz(40.0),
            5.0,
            42,
        )
        .unwrap();
        assert!(sens > 0.0, "miss ratio must grow with rate, got {sens}");
    }

    #[test]
    fn proportional_deadlines_cover_the_critical_path() {
        let g = graph();
        let ctx = ExecContext::idle();
        let budget = hcperf_taskgraph::SimSpan::from_millis(400.0);
        let deadlines = proportional_deadlines(&g, budget, ctx);
        assert_eq!(deadlines.len(), g.len());
        // Walking the first-listed predecessors from the chassis back to a
        // source, the per-stage deadlines sum to at most the budget (the
        // chain is the critical path or shorter).
        let mut cur = g.find("chassis_command").unwrap();
        let mut sum = hcperf_taskgraph::SimSpan::ZERO;
        loop {
            sum += deadlines[cur.index()].1;
            match g.ipred(cur).first() {
                Some(&p) => cur = p,
                None => break,
            }
        }
        assert!(
            sum <= budget + hcperf_taskgraph::SimSpan::from_millis(1.0),
            "{sum}"
        );
        // Every deadline leaves at least 2x execution slack.
        for (id, d) in &deadlines {
            let c = g.spec(*id).exec_model().worst_case(ctx);
            assert!(*d >= c * 2.0 - hcperf_taskgraph::SimSpan::from_millis(1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "budget must be strictly positive")]
    fn proportional_deadlines_reject_zero_budget() {
        let g = graph();
        let _ = proportional_deadlines(&g, hcperf_taskgraph::SimSpan::ZERO, ExecContext::idle());
    }

    #[test]
    fn suggested_gain_is_bounded() {
        assert_eq!(suggested_gain(0.0), 1.0);
        assert!((0.05..=5.0).contains(&suggested_gain(0.001)));
        assert!((0.05..=5.0).contains(&suggested_gain(10.0)));
        // Higher sensitivity → gentler gain.
        assert!(suggested_gain(0.1) < suggested_gain(0.001));
    }
}
