//! Multi-scheme experiment runner and the one cell fan-out.
//!
//! Every evaluation figure compares the same scenario across all five
//! schemes; this module runs them and collects the per-scheme results.
//! Each `(scheme, seed)` cell is an independent deterministic
//! simulation, so every experiment surface (these comparisons, the rate
//! sweep, the figure pipeline) runs its cells through [`run_cells`]:
//! one [`hcperf_harness`] batch whose results come back in submission
//! order, bit-identical for any worker count.

use hcperf::Scheme;
use hcperf_harness::{run_batch, BatchOptions, Job, ResultCache};

use crate::car_following::{
    run_car_following, CarFollowingConfig, CarFollowingResult, ScenarioError,
};
use crate::lane_keeping::{run_lane_keeping, LaneKeepingConfig, LaneKeepingResult};

/// Runs `jobs` over a [`hcperf_harness`] pool of `workers` threads
/// (`0` = host parallelism), serving cells from `cache` where it can,
/// and returns the payloads in submission order.
///
/// # Errors
///
/// Returns the first cell's [`ScenarioError`] in submission order; a
/// panicked cell or a pool failure surfaces as [`ScenarioError::Job`].
pub fn run_cells<I: Sync, O: Send>(
    jobs: &[Job<I>],
    workers: usize,
    cache: Option<&mut dyn ResultCache<Result<O, ScenarioError>>>,
    run: impl Fn(&I) -> Result<O, ScenarioError> + Sync,
) -> Result<Vec<O>, ScenarioError> {
    let mut opts = BatchOptions::with_workers(workers);
    opts.cache = cache;
    run_batch(jobs, opts, |input, _| run(input))
        .map_err(|e| ScenarioError::Job(e.to_string()))?
        .into_iter()
        .map(|r| r.into_ok().map_err(ScenarioError::Job)?)
        .collect()
}

/// One job per `(scheme, seed)` pair, scheme-major, each pinned to its
/// seed.
fn jobs(seeds: &[u64]) -> Vec<Job<(Scheme, u64)>> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let key = |scheme, seed| format!("scheme={scheme}/seed={seed}");
    Scheme::all()
        .into_iter()
        .flat_map(|s| seeds.iter().map(move |&seed| (s, seed)))
        .map(|(s, seed)| Job::with_seed(key(s, seed), (s, seed), seed))
        .collect()
}

fn car_following(
    base: &CarFollowingConfig,
) -> impl Fn(&(Scheme, u64)) -> Result<CarFollowingResult, ScenarioError> + Sync + '_ {
    move |&(scheme, seed)| {
        run_car_following(&CarFollowingConfig {
            scheme,
            seed,
            ..base.clone()
        })
    }
}

fn lane_keeping(
    base: &LaneKeepingConfig,
) -> impl Fn(&(Scheme, u64)) -> Result<LaneKeepingResult, ScenarioError> + Sync + '_ {
    move |&(scheme, seed)| {
        run_lane_keeping(&LaneKeepingConfig {
            scheme,
            seed,
            ..base.clone()
        })
    }
}

/// Runs the car-following scenario for every scheme, keeping all other
/// configuration identical, over `workers` pool threads (`0` = host
/// parallelism).
///
/// # Errors
///
/// Same contract as [`run_cells`].
pub fn compare_car_following(
    base: &CarFollowingConfig,
    workers: usize,
) -> Result<Vec<CarFollowingResult>, ScenarioError> {
    run_cells(&jobs(&[base.seed]), workers, None, car_following(base))
}

/// Runs the lane-keeping scenario for every scheme over `workers` pool
/// threads (`0` = host parallelism).
///
/// # Errors
///
/// Same contract as [`run_cells`].
pub fn compare_lane_keeping(
    base: &LaneKeepingConfig,
    workers: usize,
) -> Result<Vec<LaneKeepingResult>, ScenarioError> {
    run_cells(&jobs(&[base.seed]), workers, None, lane_keeping(base))
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

/// Runs the car-following scenario for every scheme over several seeds
/// and aggregates the headline metrics — how the hardware tables (V/VI)
/// are produced, since the scaled-car runs are noisy. The `5 ×
/// seeds.len()` cells run over `workers` pool threads (`0` = host
/// parallelism) and are aggregated in scheme-major, seed order.
///
/// # Errors
///
/// Same contract as [`run_cells`].
///
/// # Panics
///
/// Panics when `seeds` is empty.
pub fn compare_car_following_seeded(
    base: &CarFollowingConfig,
    seeds: &[u64],
    workers: usize,
) -> Result<Vec<SeededComparison>, ScenarioError> {
    let runs = run_cells(&jobs(seeds), workers, None, car_following(base))?;
    Ok(aggregate_seeds(&runs, seeds.len()))
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
        let results = compare_car_following_seeded(&base, &[1, 2], 1).unwrap();
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
        let results = compare_car_following(&base, 1).unwrap();
        let schemes: Vec<Scheme> = results.iter().map(|r| r.scheme).collect();
        assert_eq!(schemes, Scheme::all().to_vec());
        assert!(results.iter().all(|r| r.commands > 0));
    }
}
