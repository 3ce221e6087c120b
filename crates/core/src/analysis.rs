//! Offline schedulability analysis.
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
//! * [`analyze`] — a one-call schedulability report.
//!
//! The response-time analysis itself is in [`crate::rta`].

use hcperf_taskgraph::{ExecContext, Rate, TaskGraph};

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
}
