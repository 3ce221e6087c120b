//! The per-layer trace, timed from outside with `Instant` around public
//! calls; nothing inside the program is instrumented.
//!
//! * A mirror of the car-following loop runs the rep's vehicles with a
//!   lap clock: each lap charges the time since the previous lap to the
//!   layer whose call just returned, so the layers' self times partition
//!   the traced wall time.
//! * [`Timed`] wraps the scheduler: it times every `select` (nested inside
//!   `run_until`, whose self time excludes it) and clones every 32nd
//!   context for an offline replay through
//!   `DynamicPriorityScheduler::recompute_gamma`.
//! * The rep's records are replayed through serde_json, the store and a
//!   no-op harness batch.
//!
//! A pass runs on one rep's inputs (the reference output), separately
//! from the timed reps; the traced run is compared with an untraced run of
//! the same inputs to report the tracing overhead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hcperf::{DynamicPriorityScheduler, HcPerf, PeriodInput, Scheme};
use hcperf_harness::{run_batch_streaming, BatchOptions};
use hcperf_rtsim::{percentile, Job, JoinPolicy, SchedContext, Scheduler, Sim, SimConfig};
use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig};
use hcperf_scenarios::fleet::{FleetConfig, FleetPreset, VehicleRecord};
use hcperf_store::{cell_id, Store};
use hcperf_taskgraph::graphs::{apollo_graph, with_fusion_step, GraphOptions};
use hcperf_taskgraph::{Rate, SimSpan, SimTime, TaskGraph, TaskId};
use hcperf_vehicle::{CarFollowController, LongitudinalCar, NoisySensor};

use crate::workload::{
    overload_dps, overload_line, overload_scheduler, overload_sim, Bench, Workload,
    OVERLOAD_RATES_HZ, OVERLOAD_U,
};

/// Every per-layer metric a pass reports, with its unit.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("core.select_ns_per_sim_s", "ns/sim-s"),
    ("core.select_ns_per_call", "ns"),
    ("core.select_queue_len_mean", "count"),
    ("core.select_queue_len_p99", "count"),
    ("core.dps.gamma_ns_p50", "ns"),
    ("core.dps.gamma_ns_p99", "ns"),
    ("core.coordinator_ns_per_sim_s", "ns/sim-s"),
    ("core.coordination_ms_per_sim_s", "ms/sim-s"),
    ("rtsim.run_until_self_ns_per_sim_s", "ns/sim-s"),
    ("rtsim.drain_ns_per_sim_s", "ns/sim-s"),
    ("rtsim.select_calls_per_sim_s", "count/sim-s"),
    ("rtsim.jobs_per_sim_s", "count/sim-s"),
    ("vehicle.physics_ns_per_sim_s", "ns/sim-s"),
    ("vehicle.controller_ns_per_sim_s", "ns/sim-s"),
    ("scenarios.loop_self_ns_per_sim_s", "ns/sim-s"),
    ("scenarios.setup_us_per_vehicle", "us"),
    ("harness.job_overhead_ns", "ns"),
    ("fleet.record_encode_ns", "ns"),
    ("store.append_ns_per_cell", "ns"),
    ("store.sync_ms", "ms"),
    ("store.open_ns_per_cell", "ns"),
    ("store.record_decode_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Every this-many `select` calls one context is cloned for the γ replay,
/// up to [`MAX_GAMMA_SAMPLES`] per pass.
const SAMPLE_EVERY: u64 = 32;
const MAX_GAMMA_SAMPLES: usize = 2048;

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The layers a lap is charged to.
#[derive(Debug, Clone, Copy)]
enum Lap {
    /// Graph, simulator, coordinator and plant construction.
    Setup,
    /// The scenario loop's own code: sensing history, command lookup,
    /// metrics, the final aggregates.
    Loop,
    /// `Sim::run_until`, `select` included.
    RunUntil,
    /// `Sim::drain_commands`.
    Drain,
    /// `CarFollowController::command`.
    Controller,
    /// `LongitudinalCar::step` and the lead-car integration.
    Physics,
    /// The coordinator block: stats window, `on_period`, `set_nominal_u`,
    /// `set_source_rate`.
    Coordinator,
}

const LAPS: usize = 7;

/// Charges the time since the previous lap to the named layer.
#[derive(Debug)]
struct LapClock {
    last: Instant,
    ns: [u64; LAPS],
}

impl LapClock {
    fn new() -> LapClock {
        LapClock {
            last: Instant::now(),
            ns: [0; LAPS],
        }
    }

    fn restart(&mut self) {
        self.last = Instant::now();
    }

    fn lap(&mut self, lap: Lap) {
        let now = Instant::now();
        self.ns[lap as usize] += nanos(now - self.last);
        self.last = now;
    }

    fn get(&self, lap: Lap) -> u64 {
        self.ns[lap as usize]
    }
}

/// An owned copy of one `SchedContext` (the graph is the sim's own).
#[derive(Debug)]
struct ContextSample {
    now: SimTime,
    queue: Vec<Job>,
    candidates: Vec<usize>,
    processor: usize,
    observed: Vec<SimSpan>,
    remaining: Vec<SimSpan>,
}

/// What [`Timed`] counts.
#[derive(Debug, Default)]
struct SelectStats {
    ns: u64,
    calls: u64,
    queue_len_sum: u64,
    /// `queue_hist[n]` = calls that saw a ready queue of `n` jobs.
    queue_hist: Vec<u64>,
    /// Time spent cloning contexts: inside `run_until`, but charged to no
    /// layer.
    sample_ns: u64,
}

impl SelectStats {
    fn merge(&mut self, other: SelectStats) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.queue_len_sum += other.queue_len_sum;
        self.sample_ns += other.sample_ns;
        if self.queue_hist.len() < other.queue_hist.len() {
            self.queue_hist.resize(other.queue_hist.len(), 0);
        }
        for (mine, theirs) in self.queue_hist.iter_mut().zip(other.queue_hist) {
            *mine += theirs;
        }
    }

    fn queue_len_p99(&self) -> f64 {
        let target = self.calls as f64 * 0.99;
        let mut seen = 0;
        for (len, &count) in self.queue_hist.iter().enumerate() {
            seen += count;
            if seen as f64 >= target {
                return len as f64;
            }
        }
        0.0
    }
}

/// A scheduler wrapper that times every `select` and samples contexts for
/// the γ replay. Results are unchanged: it only observes.
#[derive(Debug)]
struct Timed<S> {
    inner: S,
    stats: SelectStats,
    samples: Vec<ContextSample>,
    sample_budget: usize,
}

impl<S> Timed<S> {
    fn new(inner: S, sample_budget: usize) -> Timed<S> {
        Timed {
            inner,
            stats: SelectStats::default(),
            samples: Vec::new(),
            sample_budget,
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        let n = ctx.queue.len();
        self.stats.calls += 1;
        self.stats.queue_len_sum += n as u64;
        if self.stats.queue_hist.len() <= n {
            self.stats.queue_hist.resize(n + 1, 0);
        }
        self.stats.queue_hist[n] += 1;
        if self.stats.calls.is_multiple_of(SAMPLE_EVERY) && self.samples.len() < self.sample_budget
        {
            let start = Instant::now();
            self.samples.push(ContextSample {
                now: ctx.now,
                queue: ctx.queue.to_vec(),
                candidates: ctx.candidates.to_vec(),
                processor: ctx.processor,
                observed: ctx.observed_exec.to_vec(),
                remaining: ctx.processor_remaining.to_vec(),
            });
            self.stats.sample_ns += nanos(start.elapsed());
        }
        let start = Instant::now();
        let pick = self.inner.select(ctx);
        self.stats.ns += nanos(start.elapsed());
        pick
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Raw totals of one pass, turned into [`PER_LAYER`] values by
/// [`Totals::metrics`].
#[derive(Debug)]
struct Totals {
    /// Simulated seconds the pass traced.
    sim_seconds: f64,
    /// Vehicles (or overload rate points) the pass simulated.
    instances: usize,
    clock: LapClock,
    select: SelectStats,
    jobs: u64,
    gamma_ns: Vec<f64>,
    /// Wall time of the traced run, lap clock included.
    traced_ns: u64,
    /// Wall time of the same inputs run without the trace.
    untraced_ns: u64,
    /// Time inside `traced_ns` charged to a layer.
    attributed_ns: u64,
    replay: Option<Replay>,
}

impl Totals {
    fn new() -> Totals {
        Totals {
            sim_seconds: 0.0,
            instances: 0,
            clock: LapClock::new(),
            select: SelectStats::default(),
            jobs: 0,
            gamma_ns: Vec::new(),
            traced_ns: 0,
            untraced_ns: 0,
            attributed_ns: 0,
            replay: None,
        }
    }

    /// Folds in one traced sim: its select counters, jobs, and the γ
    /// replay of its sampled contexts.
    fn absorb<S: Scheduler>(
        &mut self,
        sim: &mut Sim<Timed<S>>,
        gamma: &mut Option<DynamicPriorityScheduler>,
    ) {
        self.jobs += sim.stats().released();
        let timed = sim.scheduler_mut();
        let stats = std::mem::take(&mut timed.stats);
        let samples = std::mem::take(&mut timed.samples);
        self.select.merge(stats);
        if let Some(dps) = gamma.as_mut() {
            for s in &samples {
                let ctx = SchedContext {
                    now: s.now,
                    graph: sim.graph(),
                    queue: &s.queue,
                    candidates: &s.candidates,
                    processor: s.processor,
                    observed_exec: &s.observed,
                    processor_remaining: &s.remaining,
                };
                let start = Instant::now();
                dps.recompute_gamma(black_box(&ctx));
                self.gamma_ns.push(nanos(start.elapsed()) as f64);
                black_box(dps.gamma());
            }
        }
    }

    fn samples_left(&self) -> usize {
        MAX_GAMMA_SAMPLES.saturating_sub(self.gamma_ns.len())
    }

    fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let per_sim_s = |ns: f64| {
            if self.sim_seconds > 0.0 {
                ns / self.sim_seconds
            } else {
                0.0
            }
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let select_ns = self.select.ns as f64;
        let coordinator_ns = self.clock.get(Lap::Coordinator) as f64;
        let run_until_self = self
            .clock
            .get(Lap::RunUntil)
            .saturating_sub(self.select.ns + self.select.sample_ns);
        let gamma = |p| percentile(&self.gamma_ns, p).unwrap_or(0.0);
        let replay = self.replay.unwrap_or_default();
        let values = [
            per_sim_s(select_ns),
            ratio(select_ns, self.select.calls as f64),
            ratio(self.select.queue_len_sum as f64, self.select.calls as f64),
            self.select.queue_len_p99(),
            gamma(0.5),
            gamma(0.99),
            per_sim_s(coordinator_ns),
            per_sim_s(select_ns + coordinator_ns) / 1e6,
            per_sim_s(run_until_self as f64),
            per_sim_s(self.clock.get(Lap::Drain) as f64),
            per_sim_s(self.select.calls as f64),
            per_sim_s(self.jobs as f64),
            per_sim_s(self.clock.get(Lap::Physics) as f64),
            per_sim_s(self.clock.get(Lap::Controller) as f64),
            per_sim_s(self.clock.get(Lap::Loop) as f64),
            ratio(self.clock.get(Lap::Setup) as f64, self.instances as f64) / 1e3,
            replay.harness_ns_per_job,
            replay.encode_ns,
            replay.append_ns_per_cell,
            replay.sync_ms,
            replay.open_ns_per_cell,
            replay.decode_ns,
            ratio(self.traced_ns as f64, self.untraced_ns as f64),
            ratio(
                self.traced_ns.saturating_sub(self.attributed_ns) as f64,
                self.traced_ns as f64,
            ),
        ];
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, _), value)| (name, value))
            .collect()
    }
}

/// One `"type":"vehicle"` line of the fleet JSONL, sliced without
/// re-encoding (the vendored JSON parser reads numbers as `f64`, which
/// would round 64-bit seeds).
#[derive(Debug)]
struct VehicleLine<'a> {
    key: &'a str,
    seed: u64,
    /// The record's JSON exactly as the fleet wrote it.
    record: &'a str,
}

fn vehicle_lines(jsonl: &str) -> Result<Vec<VehicleLine<'_>>, String> {
    fn field<'a>(line: &'a str, name: &str, end: char) -> Option<&'a str> {
        let start = line.find(name)? + name.len();
        let len = line[start..].find(end)?;
        Some(&line[start..start + len])
    }
    jsonl
        .lines()
        .filter(|line| line.starts_with("{\"type\":\"vehicle\""))
        .map(|line| {
            let parsed = (|| {
                let key = field(line, "\"key\":\"", '"')?;
                let seed = field(line, "\"seed\":", ',')?.parse().ok()?;
                const RECORD: &str = "\"ok\":true,\"record\":";
                let start = line.find(RECORD)? + RECORD.len();
                let record = line.get(start..line.len() - 1)?;
                Some(VehicleLine { key, seed, record })
            })();
            parsed.ok_or_else(|| format!("unexpected vehicle line {line:?}"))
        })
        .collect()
}

/// The car-following config `hcperf fleet` gives one vehicle (the same
/// derivation as `scenarios::fleet::run_vehicle`).
fn vehicle_config(scheme: Scheme, duration: f64, seed: u64) -> CarFollowingConfig {
    let mut c = CarFollowingConfig::paper_simulation(scheme);
    c.duration = duration;
    c.warmup = c.warmup.min(duration * 0.25);
    c.seed = seed;
    c.record_series = false;
    c
}

/// One row of the sensing history.
#[derive(Debug, Clone, Copy)]
struct Sensed {
    t: f64,
    lead_speed: f64,
    own_speed: f64,
    gap: f64,
}

fn lookup(history: &[Sensed], t: f64) -> Sensed {
    match history.binary_search_by(|s| s.t.total_cmp(&t)) {
        Ok(i) => history[i],
        Err(0) => history[0],
        Err(i) => history[i - 1],
    }
}

/// A mirror of `run_car_following` for the fault-free, no-series
/// configuration every fleet vehicle runs, with a lap after each call into
/// a layer. It must produce the fleet's record bit for bit; the pass
/// checks that.
fn mirror_vehicle(
    config: &CarFollowingConfig,
    clock: &mut LapClock,
    sample_budget: usize,
) -> Result<(VehicleRecord, Sim<Timed<hcperf::SchedulerKind>>), String> {
    let graph_opts = GraphOptions {
        jitter_frac: config.jitter_frac,
        with_affinity: config.scheme.uses_affinity(),
        processors: config.processors,
    };
    let mut graph: TaskGraph = apollo_graph(&graph_opts).map_err(|e| e.to_string())?;
    if let Some((extra_ms, from, until)) = config.fusion_step {
        graph = with_fusion_step(
            &graph,
            "sensor_fusion",
            extra_ms,
            SimTime::from_secs(from),
            SimTime::from_secs(until),
        );
    }
    let fusion = graph.find("sensor_fusion").ok_or("no sensor_fusion task")?;
    let scheduler = Timed::new(config.scheme.build(config.dps), sample_budget);
    let sim_config = SimConfig {
        processors: config.processors,
        seed: config.seed,
        load: config.load.clone(),
        staleness_bound: Some(SimSpan::from_millis(config.staleness_ms)),
        release_jitter_frac: config.release_jitter_frac,
        join_policy: JoinPolicy::SameCycle,
        expire_queued_jobs: config.expire_queued_jobs,
        ..SimConfig::default()
    };
    let mut coordinator = if config.scheme.uses_coordinators() {
        let mut cc = config.coordinator;
        cc.period = SimSpan::from_secs(config.control_period);
        Some(HcPerf::new(cc, &graph).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut sim = Sim::new(graph, sim_config, scheduler).map_err(|e| e.to_string())?;
    let initial: Vec<(TaskId, Rate)> = sim
        .source_rates()
        .iter()
        .map(|&(task, rate)| {
            let spec = sim.graph().spec(task);
            let applied = match (config.scheme.uses_coordinators(), spec.rate_range()) {
                (true, Some(range)) => range.lerp(config.hcperf_initial_rate_fraction),
                (false, Some(range)) => range.clamp(Rate::from_hz(config.baseline_rate_hz)),
                _ => rate,
            };
            (task, applied)
        })
        .collect();
    for (task, rate) in initial {
        sim.set_source_rate(task, rate).map_err(|e| e.to_string())?;
    }
    let mut follower =
        LongitudinalCar::with_state(config.vehicle, -config.initial_gap, config.initial_speed);
    let mut lead_position = 0.0f64;
    let mut controller = CarFollowController::new(config.follow);
    let mut lead_sensor = NoisySensor::new(config.speed_noise_std, config.seed ^ 0x1ead);
    let mut own_sensor = NoisySensor::new(config.speed_noise_std, config.seed ^ 0x0e1f);
    let mut history: Vec<Sensed> =
        Vec::with_capacity((config.duration / config.physics_dt) as usize + 2);
    let mut held_accel = 0.0f64;
    let mut last_cmd_t = 0.0f64;
    let (mut sq_speed, mut sq_dist, mut rms_count) = (0.0f64, 0.0f64, 0u64);
    let mut final_window = (0u64, 0u64);
    let mut commands = 0u64;
    let mut collided = false;
    let steps = (config.duration / config.physics_dt).round() as usize;
    let control_every = (config.control_period / config.physics_dt).round().max(1.0) as usize;
    let final_from = config.duration * 0.9;
    clock.lap(Lap::Setup);

    for step in 0..steps {
        let t = step as f64 * config.physics_dt;
        let lead_speed_true = config.lead.speed_at(t);
        let gap_true = lead_position - follower.position();
        history.push(Sensed {
            t,
            lead_speed: lead_sensor.measure(lead_speed_true),
            own_speed: own_sensor.measure(follower.speed()),
            gap: gap_true,
        });
        clock.lap(Lap::Loop);
        sim.run_until(SimTime::from_secs(t));
        clock.lap(Lap::RunUntil);
        let drained = sim.drain_commands();
        clock.lap(Lap::Drain);
        for cmd in drained {
            let sensed_t = cmd.chain_released_at.as_secs();
            let sensed = lookup(&history, sensed_t);
            let earlier = lookup(&history, sensed_t - 0.1);
            let dt_est = (sensed.t - earlier.t).max(config.physics_dt);
            let lead_accel = (sensed.lead_speed - earlier.lead_speed) / dt_est;
            let dt_cmd = (cmd.emitted_at.as_secs() - last_cmd_t).max(config.physics_dt);
            clock.lap(Lap::Loop);
            held_accel = controller.command(
                sensed.lead_speed,
                lead_accel,
                sensed.own_speed,
                sensed.gap,
                dt_cmd,
            );
            clock.lap(Lap::Controller);
            last_cmd_t = cmd.emitted_at.as_secs();
            commands += 1;
        }
        let effective_accel = if t - last_cmd_t <= config.command_timeout {
            held_accel
        } else {
            0.0
        };
        follower.step(effective_accel, config.physics_dt);
        lead_position += 0.5
            * (lead_speed_true + config.lead.speed_at(t + config.physics_dt))
            * config.physics_dt;
        clock.lap(Lap::Physics);
        let speed_err = lead_speed_true - follower.speed();
        let target_gap = config.follow.headway * follower.speed() + config.follow.standstill_gap;
        let dist_err = gap_true - target_gap;
        if t >= config.warmup {
            sq_speed += speed_err * speed_err;
            sq_dist += dist_err * dist_err;
            rms_count += 1;
        }
        collided |= gap_true <= 0.0;
        clock.lap(Lap::Loop);
        if step % control_every == 0 {
            let window = sim.stats_mut().take_window();
            if t >= final_from {
                final_window.0 += window.missed_late + window.expired;
                final_window.1 += window.total();
            }
            if let Some(coord) = coordinator.as_mut() {
                let rates = sim.source_rates();
                let decision = coord.on_period(PeriodInput {
                    tracking_error: speed_err,
                    miss_ratio: window.miss_ratio(),
                    exec_signal: sim.observed_exec(fusion).as_secs(),
                    current_rates: &rates,
                });
                sim.scheduler_mut().inner.set_nominal_u(decision.nominal_u);
                for (task, rate) in decision.new_rates {
                    sim.set_source_rate(task, rate).map_err(|e| e.to_string())?;
                }
            }
            clock.lap(Lap::Coordinator);
        }
    }

    let rms = |sq: f64| {
        if rms_count > 0 {
            (sq / rms_count as f64).sqrt()
        } else {
            0.0
        }
    };
    // Not in the record, but computed by the real loop: keep the work.
    black_box((rms(sq_dist), final_window));
    let stats = sim.stats();
    let record = VehicleRecord {
        scheme: config.scheme,
        tracking_rms: rms(sq_speed),
        miss_ratio: stats.totals().miss_ratio(),
        mean_e2e_ms: stats.mean_end_to_end().map_or(0.0, |d| d.as_millis()),
        e2e_p99_ms: stats
            .end_to_end_percentile(0.99)
            .map_or(0.0, |d| d.as_millis()),
        commands,
        collided,
    };
    clock.lap(Lap::Loop);
    Ok((record, sim))
}

/// The γ replay scheduler for a workload, if its scheduler searches γ.
fn gamma_replay(workload: Workload) -> Option<DynamicPriorityScheduler> {
    let config = match workload {
        Workload::OverloadCritical => overload_dps(),
        w if w.scheme() == Scheme::HcPerf => CarFollowingConfig::paper_simulation(w.scheme()).dps,
        _ => return None,
    };
    let mut dps = DynamicPriorityScheduler::new(config);
    // u only sets the final Eq. 12 clamp, not what the search costs.
    dps.set_nominal_u(OVERLOAD_U);
    Some(dps)
}

/// Mirrors every vehicle of the rep, checks each record against the
/// fleet's, and times each vehicle again through the untraced
/// `run_car_following`.
fn fleet_pass(
    bench: &mut Bench,
    totals: &mut Totals,
    lines: &[VehicleLine<'_>],
) -> Result<(), String> {
    let mut gamma = gamma_replay(bench.workload);
    let scheme = bench.workload.scheme();
    let duration = bench.shape.duration;
    for line in lines {
        let start = Instant::now();
        let config = vehicle_config(scheme, duration, line.seed);
        totals.clock.restart();
        let before: u64 = totals.clock.ns.iter().sum();
        let budget = totals.samples_left();
        let (record, mut sim) = mirror_vehicle(&config, &mut totals.clock, budget)?;
        totals.attributed_ns += totals.clock.ns.iter().sum::<u64>() - before;
        let json = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        let key = line.key;
        bench.check(json == line.record, || {
            format!("mirror record for {key} differs: {json} vs {}", line.record)
        });
        totals.traced_ns += nanos(start.elapsed());
        totals.absorb(&mut sim, &mut gamma);
        totals.sim_seconds += duration;
        totals.instances += 1;
        // Untraced right after traced, so both see the same host phase.
        let start = Instant::now();
        let result = run_car_following(&config).map_err(|e| e.to_string())?;
        totals.untraced_ns += nanos(start.elapsed());
        black_box(result);
    }
    Ok(())
}

/// Runs the overload rate points under [`Timed`], each again untraced, and
/// checks the traced output is the reference.
fn overload_pass(bench: &mut Bench, totals: &mut Totals) -> Result<(), String> {
    let mut gamma = gamma_replay(bench.workload);
    let horizon = SimTime::from_secs(bench.shape.duration);
    let mut text = String::new();
    for rate_hz in OVERLOAD_RATES_HZ {
        let start = Instant::now();
        totals.clock.restart();
        let before: u64 = totals.clock.ns.iter().sum();
        let budget = totals.samples_left();
        let mut sim = overload_sim(
            rate_hz,
            bench.seed,
            Timed::new(overload_scheduler(), budget),
        )?;
        totals.clock.lap(Lap::Setup);
        sim.run_until(horizon);
        totals.clock.lap(Lap::RunUntil);
        text.push_str(&overload_line(rate_hz, sim.stats()));
        totals.clock.lap(Lap::Loop);
        totals.attributed_ns += totals.clock.ns.iter().sum::<u64>() - before;
        totals.traced_ns += nanos(start.elapsed());
        totals.absorb(&mut sim, &mut gamma);
        totals.sim_seconds += bench.shape.duration;
        totals.instances += 1;
        let start = Instant::now();
        let mut sim = overload_sim(rate_hz, bench.seed, overload_scheduler())?;
        sim.run_until(horizon);
        totals.untraced_ns += nanos(start.elapsed());
        black_box(sim.stats().released());
    }
    let same = bench.reference().is_some_and(|r| r.text == text);
    bench.check(same, || {
        "traced overload output differs from the reference".into()
    });
    Ok(())
}

/// Per-record costs of the layers around the simulation, measured by
/// replaying a rep's records.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    decode_ns: f64,
    encode_ns: f64,
    append_ns_per_cell: f64,
    sync_ms: f64,
    open_ns_per_cell: f64,
    harness_ns_per_job: f64,
    /// Sum of the phase timers.
    phases_ns: u64,
    /// Wall time of the whole replay.
    wall_ns: u64,
}

/// Times `f` into `ns` when `on`; runs it untimed otherwise.
fn phase<T>(on: bool, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *ns += nanos(start.elapsed());
    out
}

/// Replays the records through serde_json (decode, encode), a fresh store
/// (`register`, `mark_running`, `complete`, `sync`, `open`) and a no-op
/// `run_batch_streaming` over the fleet's job keys. With `timers` off the
/// phases run under the outer wall timer only.
fn replay(bench: &mut Bench, lines: &[VehicleLine<'_>], timers: bool) -> Result<Replay, String> {
    let n = lines.len().max(1) as f64;
    let wall = Instant::now();
    let (mut decode, mut encode, mut append, mut sync, mut open, mut harness) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let records = phase(timers, &mut decode, || {
        lines
            .iter()
            .map(|l| serde_json::from_str::<VehicleRecord>(l.record))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("decode record: {e}"))?;
    let encoded = phase(timers, &mut encode, || {
        records
            .iter()
            .map(serde_json::to_string)
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("encode record: {e}"))?;
    let round_trips = encoded.iter().zip(lines).all(|(e, l)| e == l.record);
    bench.check(round_trips, || {
        "records do not re-encode byte for byte".into()
    });

    let mut fleet = FleetConfig::new(FleetPreset::CarFollowing, lines.len());
    fleet.scheme = bench.workload.scheme();
    fleet.duration = bench.shape.duration;
    fleet.root_seed = bench.seed;
    let fingerprint = hcperf_cli::store_util::fleet_fingerprint(&fleet);
    let ids: Vec<String> = lines.iter().map(|l| cell_id(&fingerprint, l.key)).collect();
    let payloads: Vec<String> = encoded.iter().map(|e| format!("ok:{e}")).collect();
    let path = bench.dir().join("replay.log");
    let _ = std::fs::remove_file(&path);
    let store_err = |e: hcperf_store::StoreError| e.to_string();
    let mut store = Store::open(&path).map_err(store_err)?;
    phase(timers, &mut append, || -> Result<(), String> {
        for ((line, id), payload) in lines.iter().zip(&ids).zip(&payloads) {
            store.register(id, line.key).map_err(store_err)?;
            store.mark_running(id).map_err(store_err)?;
            store.complete(id, 0.0, payload).map_err(store_err)?;
        }
        Ok(())
    })?;
    phase(timers, &mut sync, || store.sync()).map_err(store_err)?;
    drop(store);
    let reopened = phase(timers, &mut open, || Store::open(&path)).map_err(store_err)?;
    let done = reopened.status().done;
    bench.check(done == lines.len(), || {
        format!(
            "replayed store holds {done} done cells, not {}",
            lines.len()
        )
    });
    drop(reopened);
    let _ = std::fs::remove_file(&path);

    let jobs: Vec<hcperf_harness::Job<usize>> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| hcperf_harness::Job::new(l.key.to_owned(), i))
        .collect();
    let batch = phase(timers, &mut harness, || {
        let opts = BatchOptions::with_workers(1)
            .root_seed(bench.seed)
            .queue_capacity(1024);
        run_batch_streaming(&jobs, opts, |&i, seed| black_box(i as u64 ^ seed))
    })
    .map_err(|e| e.to_string())?;
    bench.check(batch.ok == lines.len(), || "no-op batch lost jobs".into());

    Ok(Replay {
        decode_ns: decode as f64 / n,
        encode_ns: encode as f64 / n,
        append_ns_per_cell: append as f64 / n,
        sync_ms: sync as f64 / 1e6,
        open_ns_per_cell: open as f64 / n,
        harness_ns_per_job: harness as f64 / n,
        phases_ns: decode + encode + append + sync + open + harness,
        wall_ns: nanos(wall.elapsed()),
    })
}

/// One trace pass over the workload's reference output: every
/// [`PER_LAYER`] metric, and the traced wall time they partition (the
/// runner keeps the fastest pass, as the timed reps keep the fastest
/// rep). Failed checks land in `bench.failures`.
///
/// # Errors
///
/// I/O and construction failures, or a pass before setup.
pub fn pass(bench: &mut Bench) -> Result<(u64, BTreeMap<&'static str, f64>), String> {
    let reference = bench
        .reference()
        .ok_or("trace pass before setup")?
        .text
        .clone();
    let mut totals = Totals::new();
    match bench.workload {
        Workload::OverloadCritical => overload_pass(bench, &mut totals)?,
        Workload::FleetStoreWarm => {
            // A fully cached rep simulates nothing: only the layers around
            // the simulation do work, so only they are traced.
            let lines = vehicle_lines(&reference)?;
            let traced = replay(bench, &lines, true)?;
            let untraced = replay(bench, &lines, false)?;
            totals.traced_ns = traced.wall_ns;
            totals.attributed_ns = traced.phases_ns;
            totals.untraced_ns = untraced.wall_ns;
            totals.replay = Some(traced);
        }
        _ => {
            let lines = vehicle_lines(&reference)?;
            fleet_pass(bench, &mut totals, &lines)?;
            totals.replay = Some(replay(bench, &lines, true)?);
        }
    }
    Ok((totals.traced_ns, totals.metrics()))
}
