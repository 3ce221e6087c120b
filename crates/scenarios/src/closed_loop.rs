//! The closed loop every driving scenario runs (§ VII-B, Fig. 9): sense,
//! compute commands from the data sensed at each chain's release, actuate
//! under a chassis watchdog, and once per control period run the PDC/TRA
//! coordinators (Eq. 2–8, 13). [`ClosedLoop`] owns all of it but the
//! vehicle, which is its [`Plant`].

use hcperf::{CoordinatorConfig, DpsConfig, HcPerf, PeriodInput, Scheme};
use hcperf_faults::VehicleFaults;
use hcperf_rtsim::{ControlCommand, FaultCounters, Sim, SimConfig, WindowStats};
use hcperf_taskgraph::{LoadProfile, Rate, SimSpan, SimTime, TaskGraph};

use crate::car_following::{DegradedTelemetry, ScenarioError};
use crate::metrics::TimeSeries;

/// The vehicle: used only as [`ClosedLoop`]'s type parameter.
pub(crate) trait Plant {
    /// What the pipeline sees of the vehicle at one instant.
    type Row: Copy;

    /// Measures the vehicle (not during a sensor dropout).
    fn sense(&mut self, t: f64) -> Self::Row;

    /// Turns a command into the held actuation, from the `(t, row)`
    /// history as of its chain's release.
    fn command(&mut self, cmd: &ControlCommand, history: &[(f64, Self::Row)], dt_cmd: f64);

    /// Integrates one step under the held actuation, or its own stale
    /// policy once `overdue` (s past the watchdog timeout); samples its
    /// series if asked. Returns the tracking error `E(k)`.
    fn step(&mut self, t: f64, overdue: Option<f64>, sample: bool) -> f64;
}

/// The latest `(t, row)` at or before `t` (the first if `t` precedes them
/// all) in a history sorted by time. Panics on an empty history.
pub(crate) fn lookup<R: Copy>(history: &[(f64, R)], t: f64) -> (f64, R) {
    match history.binary_search_by(|(s, _)| s.total_cmp(&t)) {
        Ok(i) => history[i],
        Err(i) => history[i.saturating_sub(1)],
    }
}

/// One vehicle's closed loop: the plant and everything else.
pub(crate) struct ClosedLoop<'a, P: Plant> {
    pub plant: P,
    pub scheme: Scheme,
    pub graph: TaskGraph,
    pub dps: DpsConfig,
    /// Coordinator tuning; `period` is taken from `control_period`.
    pub coordinator: CoordinatorConfig,
    pub processors: usize,
    pub seed: u64,
    pub load: LoadProfile,
    pub release_jitter_frac: f64,
    pub expire_queued_jobs: bool,
    /// Every source starts here, or under HCPerf at this fraction of its
    /// range if set.
    pub baseline_rate_hz: f64,
    pub hcperf_initial_rate_fraction: Option<f64>,
    pub duration: f64,
    pub physics_dt: f64,
    pub control_period: f64,
    /// The chassis watchdog: a command older than this is stale.
    pub command_timeout: f64,
    pub record_series: bool,
    pub faults: &'a VehicleFaults,
}

/// A finished run: the plant and the loop's figures.
pub(crate) struct Finished<P> {
    pub plant: P,
    pub commands: u64,
    pub overall_miss_ratio: f64,
    /// Over the control periods in the final 10 % of the run.
    pub final_miss_ratio: f64,
    pub mean_response_time_ms: f64,
    pub mean_e2e_ms: f64,
    pub response_p99_ms: f64,
    pub e2e_p99_ms: f64,
    /// Per control period if recording series: `m(k)` as the TRA saw it,
    /// γ (zero for baselines), the mean source rate and the job window.
    pub miss_ratio: TimeSeries,
    pub gamma: TimeSeries,
    pub mean_source_rate: TimeSeries,
    pub windows: Vec<(f64, WindowStats)>,
    /// `Some` exactly when faults were injected.
    pub telemetry: Option<DegradedTelemetry>,
}

impl<P: Plant> ClosedLoop<'_, P> {
    /// Builds the simulator and coordinator and runs to the horizon.
    /// Panics at an injected vehicle crash, which the harness isolates.
    pub(crate) fn run(self) -> Result<Finished<P>, ScenarioError> {
        let Some(fusion) = self.graph.find("sensor_fusion") else {
            return Err(ScenarioError::MissingTask("sensor_fusion"));
        };
        let mut coordinator = if self.scheme.uses_coordinators() {
            let mut cc = self.coordinator;
            cc.period = SimSpan::from_secs(self.control_period);
            Some(HcPerf::new(cc, &self.graph)?)
        } else {
            None
        };
        let sim_config = SimConfig {
            processors: self.processors,
            seed: self.seed,
            load: self.load,
            release_jitter_frac: self.release_jitter_frac,
            expire_queued_jobs: self.expire_queued_jobs,
            ..Default::default()
        };
        let mut sim = Sim::new(self.graph, sim_config, self.scheme.build(self.dps))?;
        for window in &self.faults.sim {
            sim.inject_fault(*window)?;
        }
        let fraction = self
            .hcperf_initial_rate_fraction
            .filter(|_| coordinator.is_some());
        for (task, _) in sim.source_rates() {
            let Some(range) = sim.graph().spec(task).rate_range() else {
                continue;
            };
            let rate = fraction.map_or(Rate::from_hz(self.baseline_rate_hz), |f| range.lerp(f));
            sim.set_source_rate(task, rate)?;
        }

        let dt = self.physics_dt;
        let steps = (self.duration / dt).round() as usize;
        let control_every = (self.control_period / dt).round().max(1.0) as usize;
        let final_from = self.duration * 0.9;
        let faults = self.faults;
        let mut plant = self.plant;
        let mut history = Vec::with_capacity((self.duration / dt) as usize + 2);
        let (mut last_cmd_t, mut commands) = (0.0f64, 0u64);
        let mut final_window = (0u64, 0u64); // (missed, total)
        let mut miss_ratios = TimeSeries::new("miss_ratio");
        let mut gammas = TimeSeries::new("gamma");
        let mut mean_rates = TimeSeries::new("mean_rate_hz");
        let mut windows = Vec::new();
        let mut degraded = DegradedTelemetry {
            pdc_hold_ticks: 0,
            tra_floor_ticks: 0,
            corrupted_feedback_ticks: 0,
            fault: FaultCounters::default(),
            mode: TimeSeries::new("degraded_mode"),
        };

        for step in 0..steps {
            let t = step as f64 * dt;
            if faults.crash_at.is_some_and(|tc| t >= tc) {
                panic!("injected vehicle crash at t={t:.3}s");
            }
            // Under an injected sensor dropout the last row is re-stamped,
            // not re-measured (a bounded-staleness hold): every command
            // computed from this window actuates on stale data.
            let held = faults
                .sensor_dropped_at(t)
                .then(|| history.last().map(|&(_, row)| row))
                .flatten();
            degraded.pdc_hold_ticks += u64::from(held.is_some());
            history.push((t, held.unwrap_or_else(|| plant.sense(t))));

            sim.run_until(SimTime::from_secs(t));
            for cmd in sim.drain_commands() {
                let dt_cmd = (cmd.emitted_at.as_secs() - last_cmd_t).max(dt);
                plant.command(&cmd, &history, dt_cmd);
                last_cmd_t = cmd.emitted_at.as_secs();
                commands += 1;
            }
            let since_cmd = t - last_cmd_t;
            let overdue =
                (since_cmd > self.command_timeout).then_some(since_cmd - self.command_timeout);
            let control = step % control_every == 0;
            let tracking_error = plant.step(t, overdue, control && self.record_series);
            if !control {
                continue;
            }

            let window = sim.stats_mut().take_window();
            let mut miss_ratio = window.miss_ratio();
            if t >= final_from {
                final_window.0 += window.missed_late + window.expired;
                final_window.1 += window.total();
            }
            // Injected telemetry corruption: the TRA sees the forced miss
            // ratio instead of the measured one.
            if let Some(forced) = faults.corrupted_feedback_at(t) {
                miss_ratio = forced;
                degraded.corrupted_feedback_ticks += 1;
            }
            let mut tra_floor = false;
            if let Some(coord) = coordinator.as_mut() {
                let rates = sim.source_rates();
                let decision = coord.on_period(PeriodInput {
                    tracking_error,
                    miss_ratio,
                    exec_signal: sim.observed_exec(fusion).as_secs(),
                    current_rates: &rates,
                });
                sim.scheduler_mut().set_nominal_u(decision.nominal_u);
                for (task, rate) in decision.new_rates {
                    sim.set_source_rate(task, rate)?;
                }
                tra_floor = decision.tra_degraded;
                degraded.tra_floor_ticks += u64::from(tra_floor);
            }
            if !self.record_series {
                continue;
            }
            if !faults.is_empty() {
                let mode = u8::from(held.is_some()) | (u8::from(tra_floor) << 1);
                degraded.mode.push(t, f64::from(mode));
            }
            let rates = sim.source_rates();
            let mean_rate =
                rates.iter().map(|(_, r)| r.as_hz()).sum::<f64>() / rates.len().max(1) as f64;
            miss_ratios.push(t, miss_ratio);
            gammas.push(t, sim.scheduler().gamma().unwrap_or(0.0));
            mean_rates.push(t, mean_rate);
            windows.push((t, window));
        }

        let stats = sim.stats();
        let millis = |span: Option<SimSpan>| span.map_or(0.0, SimSpan::as_millis);
        degraded.fault = sim.fault_counters();
        Ok(Finished {
            plant,
            commands,
            overall_miss_ratio: stats.totals().miss_ratio(),
            final_miss_ratio: final_window.0 as f64 / final_window.1.max(1) as f64,
            mean_response_time_ms: millis(stats.mean_response_time()),
            mean_e2e_ms: millis(stats.mean_end_to_end()),
            response_p99_ms: millis(stats.response_time_percentile(0.99)),
            e2e_p99_ms: millis(stats.end_to_end_percentile(0.99)),
            miss_ratio: miss_ratios,
            gamma: gammas,
            mean_source_rate: mean_rates,
            windows,
            telemetry: (!faults.is_empty()).then_some(degraded),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The motivation study's former lookup, kept as the oracle.
    fn partition_lookup(history: &[(f64, usize)], q: f64) -> (f64, usize) {
        let idx = history.partition_point(|&(t, _)| t <= q);
        history[idx.saturating_sub(1)]
    }

    #[test]
    fn lookup_finds_latest_at_or_before() {
        let hist = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)];
        assert_eq!(lookup(&hist, 1.5).1, 2.0);
        assert_eq!(lookup(&hist, 2.5).1, 3.0);
        assert_eq!(lookup(&hist, -1.0).1, 1.0);
        assert_eq!(lookup(&hist, 1.0).1, 2.0);
    }

    proptest! {
        #[test]
        fn lookup_matches_the_partition_point_formulation(
            start in -5.0f64..5.0,
            gaps in proptest::collection::vec(1e-3f64..1.0, 1..200),
            probes in proptest::collection::vec(-10.0f64..210.0, 0..50),
        ) {
            let times: Vec<f64> = gaps
                .iter()
                .scan(start, |t, gap| {
                    let now = *t;
                    *t += gap;
                    Some(now)
                })
                .collect();
            let hist: Vec<(f64, usize)> = times.iter().copied().zip(0..).collect();
            let (first, last) = (times[0], times[times.len() - 1]);
            // Before the first row, on it, after the last, on every row and
            // between every pair, then anywhere.
            let mut queries = vec![first - 1.0, first - 1e-9, first, last, last + 1e-9, last + 1.0];
            for pair in times.windows(2) {
                queries.push(pair[0]);
                queries.push(0.5 * (pair[0] + pair[1]));
            }
            queries.extend(probes);
            for q in queries {
                prop_assert_eq!(lookup(&hist, q), partition_lookup(&hist, q));
            }
        }
    }
}
