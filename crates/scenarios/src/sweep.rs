//! Parameter sweeps: rate → deadline-miss/throughput curves.
//!
//! The Task Rate Adapter's whole premise is that the miss-ratio-vs-rate
//! curve has a knee: flat near zero below the system's capacity, rising
//! past it. This module sweeps pipeline rates for any scheme and reports
//! the curve — useful both for validating that premise and for choosing
//! baseline rates in experiments.
//!
//! Each probed rate is an independent deterministic simulation, so the
//! sweep fans its rates out through [`crate::runner::run_cells`]: the
//! curve is bit-identical for any worker count, and an optional result
//! cache serves already-swept points instead of re-simulating them.

use hcperf::{DpsConfig, Scheme};
use hcperf_harness::{Job, ResultCache};
use hcperf_rtsim::{Sim, SimConfig};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{LoadProfile, Rate, SimTime, TaskGraph};

use crate::car_following::ScenarioError;
use crate::runner::run_cells;

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepPoint {
    /// Pipeline rate probed (Hz).
    pub rate_hz: f64,
    /// Whole-run deadline-miss ratio at that rate.
    pub miss_ratio: f64,
    /// Control commands emitted per simulated second.
    pub commands_per_sec: f64,
    /// Mean end-to-end latency in milliseconds; `None` when the run
    /// emitted no command at all (serialized as JSON `null`), so "no
    /// commands" is distinguishable from "zero latency".
    pub mean_e2e_ms: Option<f64>,
}

/// Configuration of a rate sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scheduling scheme under test.
    pub scheme: Scheme,
    /// Rates to probe (Hz).
    pub rates_hz: Vec<f64>,
    /// Seconds to simulate per point.
    pub duration: f64,
    /// Number of processors.
    pub processors: usize,
    /// Obstacle load during the sweep.
    pub load: LoadProfile,
    /// Execution-time jitter fraction.
    pub jitter_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scheme: Scheme::Edf,
            rates_hz: (1..=9).map(|k| k as f64 * 5.0).collect(),
            duration: 5.0,
            processors: 4,
            load: LoadProfile::constant(0.0),
            jitter_frac: 0.1,
            seed: 42,
        }
    }
}

/// Simulates one probed rate. Every point runs with the same
/// `config.seed`, so a point's bytes depend only on its rate.
fn sweep_point(
    graph: &TaskGraph,
    config: &SweepConfig,
    rate_hz: f64,
) -> Result<SweepPoint, ScenarioError> {
    let mut sim = Sim::new(
        graph.clone(),
        SimConfig {
            processors: config.processors,
            seed: config.seed,
            load: config.load.clone(),
            expire_queued_jobs: false,
            ..Default::default()
        },
        config.scheme.build(DpsConfig::default()),
    )?;
    let sources: Vec<_> = sim.source_rates().iter().map(|&(t, _)| t).collect();
    for s in sources {
        sim.set_source_rate(s, Rate::from_hz(rate_hz))?;
    }
    sim.run_until(SimTime::from_secs(config.duration));
    Ok(SweepPoint {
        rate_hz,
        miss_ratio: sim.stats().totals().miss_ratio(),
        commands_per_sec: sim.stats().commands_emitted() as f64 / config.duration,
        mean_e2e_ms: sim.stats().mean_end_to_end().map(|d| d.as_millis()),
    })
}

fn sweep_graph(config: &SweepConfig) -> Result<TaskGraph, ScenarioError> {
    Ok(apollo_graph(&GraphOptions {
        jitter_frac: config.jitter_frac,
        with_affinity: config.scheme.uses_affinity(),
        processors: config.processors,
    })?)
}

/// Sweeps pipeline rates over the Fig. 11 graph and returns the
/// miss/throughput curve, probing the rates over `workers` pool threads
/// (`0` = host parallelism). `cache` (`hcperf-store`'s `CellCache` in
/// production) serves already-swept points bit-identically.
///
/// # Errors
///
/// Returns [`ScenarioError`] on graph or simulator construction
/// failure, or [`ScenarioError::Job`] if a point's simulation panicked.
pub fn rate_sweep(
    config: &SweepConfig,
    workers: usize,
    cache: Option<&mut dyn ResultCache<Result<SweepPoint, ScenarioError>>>,
) -> Result<Vec<SweepPoint>, ScenarioError> {
    let graph = sweep_graph(config)?;
    let jobs: Vec<Job<f64>> = config
        .rates_hz
        .iter()
        .enumerate()
        .map(|(i, &rate_hz)| Job::with_seed(format!("rate[{i}]={rate_hz}"), rate_hz, config.seed))
        .collect();
    run_cells(&jobs, workers, cache, |&rate_hz| {
        sweep_point(&graph, config, rate_hz)
    })
}

/// Locates the capacity knee: the lowest probed rate whose miss ratio
/// exceeds `threshold`. `None` if the system never saturates in the sweep.
#[must_use]
pub fn knee(points: &[SweepPoint], threshold: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| p.miss_ratio > threshold)
        .map(|p| p.rate_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(scheme: Scheme) -> Vec<SweepPoint> {
        let config = SweepConfig {
            scheme,
            rates_hz: vec![10.0, 20.0, 30.0, 40.0],
            duration: 4.0,
            ..Default::default()
        };
        rate_sweep(&config, 1, None).unwrap()
    }

    #[test]
    fn miss_ratio_curve_has_a_knee() {
        let points = sweep(Scheme::Edf);
        assert!(points[0].miss_ratio < 0.01, "10 Hz is easy: {points:?}");
        let last = points.last().unwrap();
        assert!(last.miss_ratio > 0.05, "40 Hz overloads: {points:?}");
        let k = knee(&points, 0.02).expect("knee inside the sweep");
        assert!((20.0..=40.0).contains(&k), "knee at {k} Hz");
    }

    #[test]
    fn throughput_saturates_past_the_knee() {
        let points = sweep(Scheme::Edf);
        // Below the knee, command throughput tracks the rate.
        assert!(points[1].commands_per_sec > points[0].commands_per_sec * 1.5);
        // Past the knee it stops scaling (cycles die instead).
        let gain_past_knee = points[3].commands_per_sec / points[2].commands_per_sec;
        assert!(gain_past_knee < 1.33, "gain {gain_past_knee}");
    }

    #[test]
    fn e2e_latency_grows_with_congestion() {
        let points = sweep(Scheme::Edf);
        assert!(
            points[2].mean_e2e_ms.unwrap() > points[0].mean_e2e_ms.unwrap(),
            "{points:?}"
        );
    }

    #[test]
    fn knee_returns_none_for_easy_sweeps() {
        let config = SweepConfig {
            rates_hz: vec![5.0, 10.0],
            duration: 3.0,
            ..Default::default()
        };
        let points = rate_sweep(&config, 1, None).unwrap();
        assert_eq!(knee(&points, 0.5), None);
    }

    #[test]
    fn missing_e2e_serializes_as_null() {
        let p = SweepPoint {
            rate_hz: 10.0,
            miss_ratio: 0.0,
            commands_per_sec: 0.0,
            mean_e2e_ms: None,
        };
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"mean_e2e_ms\":null"), "{json}");
    }
}
