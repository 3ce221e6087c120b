//! Multi-scheme experiment runner.
//!
//! Every evaluation figure compares the same scenario across all five
//! schemes; this module runs them and collects the per-scheme results.
//! Each `(scheme, seed)` cell is an independent deterministic
//! simulation, so the comparisons also come in parallel flavours built
//! on [`hcperf_harness`] — bit-identical to the sequential paths for
//! any worker count, because every cell replays the exact seed the
//! sequential loop would have used.

use hcperf::Scheme;
use hcperf_harness::{run_batch, BatchOptions, Job};

use crate::car_following::{
    run_car_following, CarFollowingConfig, CarFollowingResult, ScenarioError,
};
use crate::lane_keeping::{run_lane_keeping, LaneKeepingConfig, LaneKeepingResult};

/// One `(job key, scheme, seed)` cell of a comparison.
type Cell = (String, Scheme, u64);

/// Every scheme at `seed`.
fn per_scheme(seed: u64) -> Vec<Cell> {
    let key = |scheme| format!("scheme={scheme}");
    Scheme::all()
        .into_iter()
        .map(|s| (key(s), s, seed))
        .collect()
}

/// Every `(scheme, seed)` pair, scheme-major.
fn per_scheme_and_seed(seeds: &[u64]) -> Vec<Cell> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let key = |scheme, seed| format!("scheme={scheme}/seed={seed}");
    Scheme::all()
        .into_iter()
        .flat_map(|s| seeds.iter().map(move |&seed| (key(s, seed), s, seed)))
        .collect()
}

/// Runs every cell in order: in this thread when `workers` is `None`,
/// else over a [`hcperf_harness`] pool (`Some(0)` = host parallelism),
/// where a panicked cell surfaces as [`ScenarioError::Job`]. Results
/// come back in cell order either way.
fn run_cells<O: Send>(
    cells: Vec<Cell>,
    workers: Option<usize>,
    run: impl Fn(Scheme, u64) -> Result<O, ScenarioError> + Sync,
) -> Result<Vec<O>, ScenarioError> {
    let Some(workers) = workers else {
        return cells.into_iter().map(|(_, s, seed)| run(s, seed)).collect();
    };
    let jobs: Vec<Job<(Scheme, u64)>> = cells
        .into_iter()
        .map(|(key, s, seed)| Job::with_seed(key, (s, seed), seed))
        .collect();
    run_batch(
        &jobs,
        BatchOptions::with_workers(workers),
        |&(s, seed), _| run(s, seed),
    )
    .map_err(|e| ScenarioError::Job(e.to_string()))?
    .into_iter()
    .map(|r| r.into_ok().map_err(ScenarioError::Job)?)
    .collect()
}

fn car_following(
    base: &CarFollowingConfig,
) -> impl Fn(Scheme, u64) -> Result<CarFollowingResult, ScenarioError> + Sync + '_ {
    move |scheme, seed| {
        run_car_following(&CarFollowingConfig {
            scheme,
            seed,
            ..base.clone()
        })
    }
}

fn lane_keeping(
    base: &LaneKeepingConfig,
) -> impl Fn(Scheme, u64) -> Result<LaneKeepingResult, ScenarioError> + Sync + '_ {
    move |scheme, seed| {
        run_lane_keeping(&LaneKeepingConfig {
            scheme,
            seed,
            ..base.clone()
        })
    }
}

/// Runs the car-following scenario for every scheme, keeping all other
/// configuration identical.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`].
pub fn compare_car_following(
    base: &CarFollowingConfig,
) -> Result<Vec<CarFollowingResult>, ScenarioError> {
    run_cells(per_scheme(base.seed), None, car_following(base))
}

/// Runs the lane-keeping scenario for every scheme.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`].
pub fn compare_lane_keeping(
    base: &LaneKeepingConfig,
) -> Result<Vec<LaneKeepingResult>, ScenarioError> {
    run_cells(per_scheme(base.seed), None, lane_keeping(base))
}

/// Mean and population standard deviation of per-seed samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStats {
    /// Mean across seeds.
    pub mean: f64,
    /// Population standard deviation across seeds.
    pub std_dev: f64,
}

impl SeedStats {
    /// Aggregates per-seed samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a `{mean: 0, std_dev: 0}` row for zero
    /// seeds would be indistinguishable from a perfectly stable scheme,
    /// so silently defaulting is a correctness hazard for the paper
    /// tables built from these stats.
    fn from_samples(samples: &[f64]) -> SeedStats {
        assert!(
            !samples.is_empty(),
            "SeedStats::from_samples needs at least one sample"
        );
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        SeedStats {
            mean,
            std_dev: var.sqrt(),
        }
    }
}

/// Per-scheme aggregates of a multi-seed car-following comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SeededComparison {
    /// Scheme evaluated.
    pub scheme: Scheme,
    /// RMS speed tracking error across seeds.
    pub rms_speed_error: SeedStats,
    /// RMS distance tracking error across seeds.
    pub rms_distance_error: SeedStats,
    /// Whole-run miss ratio across seeds.
    pub overall_miss_ratio: SeedStats,
}

/// Aggregates scheme-major `(scheme, seed)` cells, `seeds` per scheme.
fn aggregate_seeds(cells: &[CarFollowingResult], seeds: usize) -> Vec<SeededComparison> {
    let stats = |runs: &[CarFollowingResult], metric: fn(&CarFollowingResult) -> f64| {
        SeedStats::from_samples(&runs.iter().map(metric).collect::<Vec<f64>>())
    };
    cells
        .chunks(seeds)
        .zip(Scheme::all())
        .map(|(runs, scheme)| SeededComparison {
            scheme,
            rms_speed_error: stats(runs, |r| r.rms_speed_error),
            rms_distance_error: stats(runs, |r| r.rms_distance_error),
            overall_miss_ratio: stats(runs, |r| r.overall_miss_ratio),
        })
        .collect()
}

/// Runs the car-following scenario for every scheme over several seeds and
/// aggregates the headline metrics — how the hardware tables (V/VI) are
/// produced, since the scaled-car runs are noisy.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`].
pub fn compare_car_following_seeded(
    base: &CarFollowingConfig,
    seeds: &[u64],
) -> Result<Vec<SeededComparison>, ScenarioError> {
    let cells = run_cells(per_scheme_and_seed(seeds), None, car_following(base))?;
    Ok(aggregate_seeds(&cells, seeds.len()))
}

/// [`compare_car_following`] with the five scheme cells fanned out over
/// a [`hcperf_harness`] worker pool (`workers = 0` = host parallelism).
/// Bit-identical to the sequential path for any worker count.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`]; a panicked cell surfaces as
/// [`ScenarioError::Job`].
pub fn compare_car_following_parallel(
    base: &CarFollowingConfig,
    workers: usize,
) -> Result<Vec<CarFollowingResult>, ScenarioError> {
    run_cells(per_scheme(base.seed), Some(workers), car_following(base))
}

/// [`compare_lane_keeping`] with the five scheme cells fanned out over
/// a [`hcperf_harness`] worker pool (`workers = 0` = host parallelism).
/// Bit-identical to the sequential path for any worker count.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`]; a panicked cell surfaces as
/// [`ScenarioError::Job`].
pub fn compare_lane_keeping_parallel(
    base: &LaneKeepingConfig,
    workers: usize,
) -> Result<Vec<LaneKeepingResult>, ScenarioError> {
    run_cells(per_scheme(base.seed), Some(workers), lane_keeping(base))
}

/// [`compare_car_following_seeded`] with every `(scheme, seed)` cell —
/// `5 × seeds.len()` independent simulations — fanned out over a
/// [`hcperf_harness`] worker pool (`workers = 0` = host parallelism).
///
/// Each cell pins the exact seed the sequential loop would have used,
/// and aggregation walks the cells in the sequential order, so the
/// result is bit-identical to [`compare_car_following_seeded`] for any
/// worker count.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`]; a panicked cell surfaces as
/// [`ScenarioError::Job`].
///
/// # Panics
///
/// Panics when `seeds` is empty, like the sequential path.
pub fn compare_car_following_seeded_parallel(
    base: &CarFollowingConfig,
    seeds: &[u64],
    workers: usize,
) -> Result<Vec<SeededComparison>, ScenarioError> {
    let cells = run_cells(
        per_scheme_and_seed(seeds),
        Some(workers),
        car_following(base),
    )?;
    Ok(aggregate_seeds(&cells, seeds.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_comparison_aggregates() {
        let mut base = CarFollowingConfig::paper_simulation(Scheme::Hpf);
        base.duration = 5.0;
        base.fusion_step = None;
        base.record_series = false;
        let results = compare_car_following_seeded(&base, &[1, 2]).unwrap();
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.rms_speed_error.mean.is_finite());
            assert!(r.rms_speed_error.std_dev >= 0.0);
            assert!((0.0..=1.0).contains(&r.overall_miss_ratio.mean));
        }
    }

    #[test]
    fn seed_stats_math() {
        let s = SeedStats::from_samples(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn seed_stats_reject_empty_input() {
        let _ = SeedStats::from_samples(&[]);
    }

    #[test]
    fn comparison_covers_all_schemes_in_order() {
        let mut base = CarFollowingConfig::paper_simulation(Scheme::Hpf);
        base.duration = 6.0;
        base.fusion_step = None;
        base.record_series = false;
        let results = compare_car_following(&base).unwrap();
        let schemes: Vec<Scheme> = results.iter().map(|r| r.scheme).collect();
        assert_eq!(schemes, Scheme::all().to_vec());
        assert!(results.iter().all(|r| r.commands > 0));
    }
}
