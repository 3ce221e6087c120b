//! Closed-loop lane keeping on the oval track (§ VII-B2, Fig. 14).
//!
//! The vehicle drives the clockwise oval at a fixed 5 m/s; the control task
//! computes a steering angle from the (delayed) Frenet state and the
//! scheduler decides when fresh steering reaches the wheels. Performance
//! metric: lateral offset from the lane centerline.

use hcperf::{CoordinatorConfig, DpsConfig, Scheme};
use hcperf_faults::VehicleFaults;
use hcperf_rtsim::ControlCommand;
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{GraphError, LoadProfile, SimTime, TaskGraph};
use hcperf_vehicle::{BicycleCar, BicycleConfig, LaneKeepController, OvalTrack, Track};

use crate::car_following::ScenarioError;
use crate::closed_loop::{lookup, ClosedLoop, Plant};
use crate::metrics::TimeSeries;

/// Configuration of a lane-keeping run.
#[derive(Debug, Clone)]
pub struct LaneKeepingConfig {
    /// Scheduling scheme under test.
    pub scheme: Scheme,
    /// Total simulated time in seconds (one lap at 5 m/s ≈ 65 s).
    pub duration: f64,
    /// Vehicle physics step in seconds.
    pub physics_dt: f64,
    /// Coordinator control period in seconds.
    pub control_period: f64,
    /// Fixed longitudinal speed (the paper uses 5 m/s).
    pub speed: f64,
    /// Track geometry.
    pub track: OvalTrack,
    /// Bicycle-model parameters.
    pub bicycle: BicycleConfig,
    /// Steering law.
    pub steer: LaneKeepController,
    /// RNG seed.
    pub seed: u64,
    /// Number of processors.
    pub processors: usize,
    /// Fixed source rate for baselines (Hz).
    pub baseline_rate_hz: f64,
    /// HCPerf initial rate position in `[0, 1]` of each range.
    pub hcperf_initial_rate_fraction: f64,
    /// Obstacle-count profile (inflates fusion cost in turns if desired).
    pub load: LoadProfile,
    /// Execution-time jitter fraction.
    pub jitter_frac: f64,
    /// Dynamic Priority Scheduler configuration.
    pub dps: DpsConfig,
    /// Coordinator configuration.
    pub coordinator: CoordinatorConfig,
    /// Steering command timeout in seconds: with no fresh command, the
    /// low-level controller eases the wheel back to center.
    pub command_timeout: f64,
    /// Samples before this time are excluded from the RMS.
    pub warmup: f64,
}

impl LaneKeepingConfig {
    /// The § VII-B2 setup: 5 m/s on the oval loop, two laps. Scene
    /// complexity (and hence fusion cost) rises inside the turns — more of
    /// the world sweeps through the sensor field of view — which is exactly
    /// when steering freshness matters.
    #[must_use]
    pub fn paper_loop(scheme: Scheme) -> Self {
        let track = OvalTrack::paper_loop();
        let speed = 5.0;
        // Obstacle load: 3 on the straights, 10 inside each 180° turn.
        let lap = track.total_length() / speed;
        let straight = track.straight_length() / speed;
        let turn = track.turn_length() / speed;
        let mut segments = vec![(SimTime::ZERO, 3.0)];
        for lap_idx in 0..2 {
            let base = lap_idx as f64 * lap;
            segments.push((SimTime::from_secs(base + straight), 10.0));
            segments.push((SimTime::from_secs(base + straight + turn), 3.0));
            segments.push((SimTime::from_secs(base + 2.0 * straight + turn), 10.0));
            segments.push((SimTime::from_secs(base + 2.0 * straight + 2.0 * turn), 3.0));
        }
        let mut coordinator = CoordinatorConfig::default();
        // Lane-keeping errors are tens of centimeters, not m/s: rescale the
        // PDC so a 0.1 m offset drives u as strongly as ~1 m/s did, and
        // shrink the deadband accordingly.
        coordinator.pdc.error_scale *= 10.0;
        coordinator.pdc.deadband = 0.01;
        coordinator.rate.zero_miss_bonus = 0.01;
        coordinator.rate.target_miss_ratio = 0.0;
        coordinator.rate.reset_threshold = 0.6;
        coordinator.rate.gain_decay = 0.9;
        LaneKeepingConfig {
            scheme,
            duration: 130.0,
            physics_dt: 0.005,
            control_period: 0.1,
            speed,
            track,
            bicycle: BicycleConfig::default(),
            steer: LaneKeepController::default(),
            seed: 42,
            processors: 4,
            baseline_rate_hz: 24.0,
            hcperf_initial_rate_fraction: 0.2,
            load: LoadProfile::piecewise(segments),
            jitter_frac: 0.1,
            dps: DpsConfig::default(),
            coordinator,
            command_timeout: 0.5,
            warmup: 5.0,
        }
    }

    /// The Fig. 11 task graph this run schedules; errors come from graph construction.
    pub fn graph(&self) -> Result<TaskGraph, GraphError> {
        apollo_graph(&GraphOptions {
            jitter_frac: self.jitter_frac,
            with_affinity: self.scheme.uses_affinity(),
            processors: self.processors,
        })
    }
}

/// Aggregates and series of a lane-keeping run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LaneKeepingResult {
    /// Scheme that produced this result.
    pub scheme: Scheme,
    /// RMS of the lateral offset after warm-up (Table IV).
    pub rms_lateral_offset: f64,
    /// Maximum |lateral offset| after warm-up.
    pub max_lateral_offset: f64,
    /// Control commands delivered.
    pub commands: u64,
    /// Whole-run deadline miss ratio.
    pub overall_miss_ratio: f64,
    /// Mean end-to-end (source release → command) latency in
    /// milliseconds — comparable across scenarios in fleet aggregates.
    pub mean_e2e_ms: f64,
    /// 99th-percentile end-to-end latency in milliseconds.
    pub e2e_p99_ms: f64,
    /// Lateral offset over time (Fig. 14b).
    pub lateral_offset: TimeSeries,
    /// Arc position over time (locating the turns).
    pub arc_position: TimeSeries,
    /// Per-period miss ratio.
    pub miss_ratio: TimeSeries,
    /// HCPerf γ over time.
    pub gamma: TimeSeries,
}

/// The lane-keeping [`Plant`]: the bicycle model on the oval at a fixed
/// speed, and the Table IV / Fig. 14 metrics.
struct LaneKeeping<'a> {
    config: &'a LaneKeepingConfig,
    car: BicycleCar,
    held_steer: f64,
    sq: f64,
    count: u64,
    result: LaneKeepingResult,
}

impl Plant for LaneKeeping<'_> {
    /// Sensed Frenet state: lateral offset, heading error, curvature.
    type Row = (f64, f64, f64);

    fn sense(&mut self, _t: f64) -> Self::Row {
        let car = &self.car;
        let curvature = self.config.track.curvature(car.arc_position());
        (car.lateral_offset(), car.heading_error(), curvature)
    }

    fn command(&mut self, cmd: &ControlCommand, history: &[(f64, Self::Row)], _dt_cmd: f64) {
        let (_, (offset, heading, curvature)) = lookup(history, cmd.chain_released_at.as_secs());
        self.held_steer = self.config.steer.steer(offset, heading, curvature);
    }

    fn step(&mut self, t: f64, overdue: Option<f64>, sample: bool) -> f64 {
        // Stale steering eases back toward center (chassis watchdog).
        let steer = match overdue {
            None => self.held_steer,
            Some(overdue) => self.held_steer * (0.2f64).powf(overdue.min(5.0)),
        };
        let c = self.config;
        self.car.step(c.speed, steer, c.physics_dt, &c.track);
        let offset = self.car.lateral_offset();
        if t >= c.warmup {
            self.sq += offset.powi(2);
            self.count += 1;
            self.result.max_lateral_offset = self.result.max_lateral_offset.max(offset.abs());
        }
        if sample {
            self.result.lateral_offset.push(t, offset);
            self.result.arc_position.push(t, self.car.arc_position());
        }
        offset
    }
}

/// Runs a lane-keeping scenario to completion.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the graph, simulator or coordinator cannot
/// be constructed.
///
/// # Examples
///
/// ```no_run
/// use hcperf::Scheme;
/// use hcperf_scenarios::lane_keeping::{run_lane_keeping, LaneKeepingConfig};
///
/// let mut config = LaneKeepingConfig::paper_loop(Scheme::HcPerf);
/// config.duration = 20.0;
/// let result = run_lane_keeping(&config)?;
/// println!("RMS lateral offset: {:.3} m", result.rms_lateral_offset);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_lane_keeping(config: &LaneKeepingConfig) -> Result<LaneKeepingResult, ScenarioError> {
    let plant = LaneKeeping {
        config,
        car: BicycleCar::new(config.bicycle),
        held_steer: 0.0,
        sq: 0.0,
        count: 0,
        result: LaneKeepingResult {
            scheme: config.scheme,
            rms_lateral_offset: 0.0,
            max_lateral_offset: 0.0,
            commands: 0,
            overall_miss_ratio: 0.0,
            mean_e2e_ms: 0.0,
            e2e_p99_ms: 0.0,
            lateral_offset: TimeSeries::new("lateral_offset"),
            arc_position: TimeSeries::new("arc_position"),
            miss_ratio: TimeSeries::new("miss_ratio"),
            gamma: TimeSeries::new("gamma"),
        },
    };
    let done = ClosedLoop {
        plant,
        scheme: config.scheme,
        graph: config.graph()?,
        dps: config.dps,
        coordinator: config.coordinator,
        processors: config.processors,
        seed: config.seed,
        load: config.load.clone(),
        staleness_ms: 60.0,
        release_jitter_frac: 0.15,
        expire_queued_jobs: false,
        baseline_rate_hz: config.baseline_rate_hz,
        hcperf_initial_rate_fraction: Some(config.hcperf_initial_rate_fraction),
        duration: config.duration,
        physics_dt: config.physics_dt,
        control_period: config.control_period,
        command_timeout: config.command_timeout,
        record_series: true,
        faults: &VehicleFaults::default(),
    }
    .run()?;
    let p = done.plant;
    Ok(LaneKeepingResult {
        rms_lateral_offset: (p.sq / p.count.max(1) as f64).sqrt(),
        commands: done.commands,
        overall_miss_ratio: done.overall_miss_ratio,
        mean_e2e_ms: done.mean_e2e_ms,
        e2e_p99_ms: done.e2e_p99_ms,
        miss_ratio: done.miss_ratio,
        gamma: done.gamma,
        ..p.result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(scheme: Scheme) -> LaneKeepingConfig {
        let mut c = LaneKeepingConfig::paper_loop(scheme);
        c.duration = 40.0; // into the first turn
        c
    }

    #[test]
    fn drives_and_steers() {
        let r = run_lane_keeping(&short(Scheme::Edf)).unwrap();
        assert!(r.commands > 100);
        // 40 s at 5 m/s ≈ 200 m of arc progress.
        let final_arc = r.arc_position.last().unwrap();
        assert!((150.0..250.0).contains(&final_arc), "arc {final_arc}");
    }

    #[test]
    fn offsets_stay_bounded_with_scheduling() {
        let r = run_lane_keeping(&short(Scheme::Edf)).unwrap();
        assert!(
            r.max_lateral_offset < 1.5,
            "car should stay near the lane: {}",
            r.max_lateral_offset
        );
        assert!(r.rms_lateral_offset > 0.0);
    }

    #[test]
    fn straights_have_near_zero_offset() {
        let r = run_lane_keeping(&short(Scheme::EdfVd)).unwrap();
        // While on the initial straight (first ~19 s at 5 m/s < 100 m), the
        // offset stays essentially zero (Fig. 14b).
        let early_rms = r.lateral_offset.rms_between(1.0, 15.0);
        assert!(early_rms < 0.02, "straight-line RMS {early_rms}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_lane_keeping(&short(Scheme::HcPerf)).unwrap();
        let b = run_lane_keeping(&short(Scheme::HcPerf)).unwrap();
        assert_eq!(a.rms_lateral_offset, b.rms_lateral_offset);
    }
}
