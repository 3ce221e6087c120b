//! The harness determinism matrix: every evaluation surface, run with
//! 1, 2 and 8 workers, must be **bit-identical** to an independent
//! oracle — a plain in-test loop over the same cells, outside the
//! harness. This is the contract that makes `--jobs N` a pure
//! wall-clock knob — CI runs this file explicitly.
//!
//! The matrix also covers resumption: a fleet run interrupted halfway
//! and resumed through an `hcperf-store` log must reproduce the
//! straight-through byte stream exactly, recomputing none of the cells
//! the interrupted run finished.

use std::io::{self, Write};

use hcperf_suite::core::Scheme;
use hcperf_suite::scenarios::car_following::{
    run_car_following, CarFollowingConfig, CarFollowingResult,
};
use hcperf_suite::scenarios::fleet::{run_fleet, FleetConfig, FleetPreset, VehicleRecord};
use hcperf_suite::scenarios::runner::{
    compare_car_following, compare_car_following_seeded, compare_lane_keeping, SeedStats,
    SeededComparison,
};
use hcperf_suite::scenarios::sweep::{rate_sweep, SweepConfig};
use hcperf_suite::scenarios::{run_lane_keeping, LaneKeepingConfig, ScenarioError};
use hcperf_suite::store::{fingerprint, CellCache, Store};

const WORKER_MATRIX: [usize; 3] = [1, 2, 8];

fn short_car_following() -> CarFollowingConfig {
    let mut base = CarFollowingConfig::paper_simulation(Scheme::Hpf);
    base.duration = 5.0;
    base.fusion_step = None;
    base.record_series = false;
    base
}

/// The oracle for one scheme: `base` re-run in a plain loop with only
/// the scheme and seed changed.
fn car_following_at(base: &CarFollowingConfig, scheme: Scheme, seed: u64) -> CarFollowingResult {
    run_car_following(&CarFollowingConfig {
        scheme,
        seed,
        ..base.clone()
    })
    .unwrap()
}

/// Mean and population standard deviation, summed in sample order.
fn seed_stats(samples: &[f64]) -> SeedStats {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    SeedStats {
        mean,
        std_dev: var.sqrt(),
    }
}

#[test]
fn rate_sweep_is_bit_identical_across_worker_counts() {
    let config = SweepConfig {
        rates_hz: vec![10.0, 20.0, 30.0, 40.0],
        duration: 2.0,
        ..Default::default()
    };
    // Oracle: one single-rate sweep per rate, concatenated.
    let oracle: Vec<_> = config
        .rates_hz
        .iter()
        .flat_map(|&rate| {
            let single = SweepConfig {
                rates_hz: vec![rate],
                ..config.clone()
            };
            rate_sweep(&single, 1, None).unwrap()
        })
        .collect();
    for workers in WORKER_MATRIX {
        let parallel = rate_sweep(&config, workers, None).unwrap();
        assert_eq!(parallel, oracle, "workers={workers}");
    }
}

#[test]
fn seeded_comparison_is_bit_identical_across_worker_counts() {
    let base = short_car_following();
    let seeds = [1u64, 2, 3];
    // Oracle: every (scheme, seed) cell in a plain loop, aggregated
    // scheme-major in seed order.
    let oracle: Vec<SeededComparison> = Scheme::all()
        .into_iter()
        .map(|scheme| {
            let runs: Vec<CarFollowingResult> = seeds
                .iter()
                .map(|&seed| car_following_at(&base, scheme, seed))
                .collect();
            let stats = |metric: fn(&CarFollowingResult) -> f64| {
                seed_stats(&runs.iter().map(metric).collect::<Vec<f64>>())
            };
            SeededComparison {
                scheme,
                rms_speed_error: stats(|r| r.rms_speed_error),
                rms_distance_error: stats(|r| r.rms_distance_error),
                overall_miss_ratio: stats(|r| r.overall_miss_ratio),
            }
        })
        .collect();
    for workers in WORKER_MATRIX {
        let parallel = compare_car_following_seeded(&base, &seeds, workers).unwrap();
        assert_eq!(parallel, oracle, "workers={workers}");
    }
}

#[test]
fn scheme_comparison_is_bit_identical_across_worker_counts() {
    let base = short_car_following();
    let oracle: Vec<CarFollowingResult> = Scheme::all()
        .into_iter()
        .map(|scheme| car_following_at(&base, scheme, base.seed))
        .collect();
    for workers in WORKER_MATRIX {
        let parallel = compare_car_following(&base, workers).unwrap();
        assert_eq!(parallel.len(), oracle.len(), "workers={workers}");
        for (s, p) in oracle.iter().zip(&parallel) {
            assert_eq!(s.scheme, p.scheme);
            assert_eq!(s.commands, p.commands, "workers={workers} {}", s.scheme);
            assert_eq!(s.rms_speed_error, p.rms_speed_error);
            assert_eq!(s.rms_distance_error, p.rms_distance_error);
            assert_eq!(s.overall_miss_ratio, p.overall_miss_ratio);
            assert_eq!(s.mean_e2e_ms, p.mean_e2e_ms);
        }
    }
}

/// The fleet-service contract at scale: a 1000-vehicle run — every
/// vehicle its own simulation + coordinator stack with a key-derived
/// seed — streams **byte-identical** per-vehicle and aggregate JSONL for
/// 1, 2 and 8 workers, including through a bounded (backpressured)
/// result queue.
#[test]
fn fleet_jsonl_stream_is_bit_identical_across_worker_counts() {
    let mut config = FleetConfig::new(FleetPreset::CarFollowing, 1000);
    config.duration = 0.5; // short per-vehicle horizon keeps 3×1000 sims fast
    config.aggregate_every = 250;
    config.queue_capacity = 64;

    let mut reference: Option<(String, usize)> = None;
    for workers in WORKER_MATRIX {
        config.workers = workers;
        let mut buf = Vec::new();
        let summary = run_fleet(&config, &mut buf, None).unwrap();
        assert_eq!(summary.vehicles, 1000, "workers={workers}");
        assert_eq!(summary.ok, 1000, "workers={workers}");
        assert_eq!(summary.panicked, 0, "workers={workers}");
        let text = String::from_utf8(buf).unwrap();
        // 1000 vehicle lines + aggregates at 250/500/750/1000.
        assert_eq!(text.lines().count(), 1004, "workers={workers}");
        match &reference {
            None => reference = Some((text, workers)),
            Some((reference, ref_workers)) => {
                assert_eq!(
                    &text, reference,
                    "fleet stream differs between {ref_workers} and {workers} workers"
                );
            }
        }
    }
}

/// Writer that fails after a byte budget — the fleet's output pipe
/// dying halfway through a run.
struct TruncatingWriter {
    written: usize,
    budget: usize,
}

impl Write for TruncatingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written >= self.budget {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        self.written += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn encode_vehicle(result: &Result<VehicleRecord, String>) -> Option<String> {
    match result {
        Ok(record) => Some(format!("ok:{}", serde_json::to_string(record).ok()?)),
        Err(msg) => Some(format!("err:{msg}")),
    }
}

fn decode_vehicle(payload: &str) -> Option<Result<VehicleRecord, String>> {
    if let Some(msg) = payload.strip_prefix("err:") {
        return Some(Err(msg.to_owned()));
    }
    let json = payload.strip_prefix("ok:")?;
    Some(Ok(serde_json::from_str::<VehicleRecord>(json).ok()?))
}

/// The resumability contract at scale: a 1000-vehicle fleet run whose
/// output pipe dies at ~50%, resumed through the store, streams the
/// exact bytes of a straight-through run — for 1, 2 and 8 workers —
/// and recomputes **zero** of the cells the interrupted run completed.
#[test]
fn resumed_fleet_is_bit_identical_and_recomputes_no_done_cells() {
    let mut config = FleetConfig::new(FleetPreset::CarFollowing, 1000);
    config.duration = 0.5;
    config.aggregate_every = 250;
    config.queue_capacity = 64;

    // Straight-through reference, no store.
    let mut reference = Vec::new();
    run_fleet(&config, &mut reference, None).unwrap();

    for workers in WORKER_MATRIX {
        config.workers = workers;
        let path = std::env::temp_dir().join(format!(
            "hcperf_matrix_resume_{}_{workers}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // Interrupted run: the pipe dies after half the reference bytes.
        let mut store = Store::open(&path).unwrap();
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut dying = TruncatingWriter {
            written: 0,
            budget: reference.len() / 2,
        };
        let err = run_fleet(&config, &mut dying, Some(&mut cache)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Sink(_)),
            "workers={workers}: {err:?}"
        );
        cache.finish().unwrap();
        drop(store);

        // Reopen (exercising log replay) and count what survived.
        let store_reopened = Store::open(&path).unwrap();
        let done_before = store_reopened.status().done;
        assert!(
            done_before > 0 && done_before < 1000,
            "workers={workers}: interruption should leave a partial store, got {done_before} done"
        );
        drop(store_reopened);

        // Resume: finished cells replay from disk, the rest simulate.
        let mut store = Store::open(&path).unwrap();
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut resumed = Vec::new();
        let summary = run_fleet(&config, &mut resumed, Some(&mut cache)).unwrap();
        let run = cache.finish().unwrap();
        assert_eq!(summary.cached, done_before, "workers={workers}");
        assert_eq!(
            (run.hits, run.misses),
            (done_before, 1000 - done_before),
            "workers={workers}: every done cell must hit, nothing done may recompute"
        );
        assert_eq!(
            String::from_utf8(resumed).unwrap(),
            String::from_utf8(reference.clone()).unwrap(),
            "workers={workers}: resumed stream differs from straight-through"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// The supervised-fleet contract at scale: a 256-vehicle chaos fleet —
/// per-vehicle faults drawn from the root seed, crashed vehicles
/// retried with attempt-derived seeds and quarantined when retries run
/// out — streams **byte-identical** JSONL for 1, 2 and 8 workers, and a
/// run killed at ~50% of its output resumes through the store into the
/// exact straight-through bytes, retry outcomes and quarantine
/// aggregates included.
#[test]
fn faulted_fleet_is_bit_identical_across_workers_and_kill_resume() {
    use hcperf_suite::faults::FaultPlan;

    // The chaos plan injects deliberate vehicle crashes; silence the
    // default panic hook so the expected unwinds don't spam the log.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut config = FleetConfig::new(FleetPreset::CarFollowing, 256);
    config.duration = 0.5;
    config.aggregate_every = 64;
    config.queue_capacity = 32;
    config.faults = FaultPlan::chaos();
    config.max_retries = 2;

    // Straight-through reference (1 worker, no store).
    let mut reference = Vec::new();
    let ref_summary = run_fleet(&config, &mut reference, None).unwrap();
    assert!(
        ref_summary.retried > 0,
        "chaos over 256 vehicles should crash and retry some"
    );
    let reference = String::from_utf8(reference).unwrap();
    assert!(
        reference.contains("\"attempts\":"),
        "retries must be visible"
    );
    assert!(
        reference.contains("\"failed_vehicles\":"),
        "supervised aggregates must carry the quarantine count"
    );

    for workers in WORKER_MATRIX {
        config.workers = workers;
        let mut buf = Vec::new();
        let summary = run_fleet(&config, &mut buf, None).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            reference,
            "workers={workers}: faulted stream differs"
        );
        assert_eq!(summary.retried, ref_summary.retried, "workers={workers}");
        assert_eq!(summary.failed, ref_summary.failed, "workers={workers}");

        // Kill at ~50% of the byte stream, then resume through the store.
        let path = std::env::temp_dir().join(format!(
            "hcperf_matrix_chaos_{}_{workers}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut store = Store::open(&path).unwrap();
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-chaos-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut dying = TruncatingWriter {
            written: 0,
            budget: reference.len() / 2,
        };
        let err = run_fleet(&config, &mut dying, Some(&mut cache)).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Sink(_)),
            "workers={workers}: {err:?}"
        );
        cache.finish().unwrap();
        drop(store);

        let mut store = Store::open(&path).unwrap();
        let done_before = store.status().done;
        assert!(
            done_before > 0 && done_before < 256,
            "workers={workers}: expected a partial store, got {done_before} done"
        );
        let mut cache = CellCache::new(
            &mut store,
            fingerprint(&["matrix-chaos-fleet"]),
            encode_vehicle,
            decode_vehicle,
        );
        let mut resumed = Vec::new();
        let summary = run_fleet(&config, &mut resumed, Some(&mut cache)).unwrap();
        cache.finish().unwrap();
        assert_eq!(summary.cached, done_before, "workers={workers}");
        assert_eq!(summary.retried, ref_summary.retried, "workers={workers}");
        assert_eq!(
            String::from_utf8(resumed).unwrap(),
            reference,
            "workers={workers}: resumed chaos stream differs from straight-through"
        );
        let _ = std::fs::remove_file(&path);
    }

    std::panic::set_hook(prev);
}

#[test]
fn lane_keeping_comparison_is_bit_identical_across_worker_counts() {
    let mut base = LaneKeepingConfig::paper_loop(Scheme::Hpf);
    base.duration = 5.0;
    let oracle: Vec<_> = Scheme::all()
        .into_iter()
        .map(|scheme| {
            run_lane_keeping(&LaneKeepingConfig {
                scheme,
                ..base.clone()
            })
            .unwrap()
        })
        .collect();
    for workers in WORKER_MATRIX {
        let parallel = compare_lane_keeping(&base, workers).unwrap();
        assert_eq!(parallel.len(), oracle.len(), "workers={workers}");
        for (s, p) in oracle.iter().zip(&parallel) {
            assert_eq!(s.scheme, p.scheme);
            assert_eq!(s.commands, p.commands, "workers={workers} {}", s.scheme);
            assert_eq!(s.rms_lateral_offset, p.rms_lateral_offset);
            assert_eq!(s.max_lateral_offset, p.max_lateral_offset);
            assert_eq!(s.overall_miss_ratio, p.overall_miss_ratio);
        }
    }
}
