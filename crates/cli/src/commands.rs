//! CLI subcommands. Each returns its report as a `String` so the commands
//! are unit-testable without capturing stdout.

use std::fmt::Write as _;

use hcperf::analysis::{analyze, liu_layland_bound, max_rate_within_bound};
use hcperf::rta::rta_fixed_priority;
use hcperf::Scheme;
use hcperf_faults::FaultPlan;
use hcperf_harness::ResultCache;
use hcperf_rtsim::{gantt, trace_json, Sim, SimConfig};
use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig};
use hcperf_scenarios::fleet::{run_fleet, FleetConfig, FleetPreset};
use hcperf_scenarios::lane_keeping::{run_lane_keeping, LaneKeepingConfig};
use hcperf_scenarios::motivation::{run_motivation, MotivationConfig};
use hcperf_scenarios::robustness::{traction_loss_comparison, TractionLossConfig};
use hcperf_scenarios::sweep::{knee, rate_sweep, SweepConfig};
use hcperf_store::{RunSummary, Store};
use hcperf_taskgraph::graphs::{apollo_graph, motivation_graph, GraphOptions};
use hcperf_taskgraph::{ExecContext, Rate, SimTime};

use crate::args::{Args, ParseError};
use crate::store_util::{fleet_cache, sweep_cache};

/// Error type for command execution.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing / validation failure.
    Args(ParseError),
    /// Scenario execution failure.
    Scenario(hcperf_scenarios::ScenarioError),
    /// Graph construction failure.
    Graph(hcperf_taskgraph::GraphError),
    /// Output file I/O failure.
    Io(String),
    /// Unknown subcommand.
    UnknownCommand(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Scenario(e) => write!(f, "scenario failed: {e}"),
            CliError::Graph(e) => write!(f, "graph failed: {e}"),
            CliError::Io(msg) => write!(f, "i/o failed: {msg}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try `hcperf help`")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Args(e)
    }
}
impl From<hcperf_scenarios::ScenarioError> for CliError {
    fn from(e: hcperf_scenarios::ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}
impl From<hcperf_taskgraph::GraphError> for CliError {
    fn from(e: hcperf_taskgraph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

/// The help text.
#[must_use]
pub fn help() -> String {
    "\
hcperf — performance-directed hierarchical coordination (ICDCS 2023 reproduction)

USAGE: hcperf <command> [--key value]...

COMMANDS
  run         Closed-loop car following (default) or lane keeping
                --scenario  car-following | lane-keeping   (car-following)
                --scheme    hpf|edf|edf-vd|apollo|hcperf   (hcperf)
                --duration  seconds                        (30)
                --seed      integer                        (42)
  sweep       Pipeline-rate sweep to locate the capacity knee
                --scheme, --seed as above
                --from, --to, --step   Hz                  (10, 50, 5)
                --duration  seconds per point              (5)
                --jobs      worker threads; each probed rate is an
                            independent simulation, results are
                            bit-identical for any value
                                                           (available parallelism)
                --store     cell-store path: finished points are
                            served from disk bit-identically and
                            fresh ones persisted (--resume is an
                            alias)                         (off)
  analyze     Offline schedulability of the Fig. 11 graph
                --rate      Hz                             (20)
                --processors                               (4)
  motivation  The § II red-light study
                --scheme as above                          (apollo)
  graph       Emit the task graph
                --which     apollo | motivation            (apollo)
                --format    dot | json                     (dot)
  fleet       Fleet-scale simulation service: N vehicles sharded over a
              worker pool, streaming one JSONL record per vehicle plus
              running fleet aggregates; bit-identical for any --jobs
                --preset    car-following | car-following-hw |
                            lane-keeping                       (car-following)
                --scheme    hpf|edf|edf-vd|apollo|hcperf       (hcperf)
                --vehicles  fleet size                         (100)
                --duration  seconds per vehicle                (20)
                --seed      root seed (per-vehicle seeds are
                            derived from stable keys)          (990951)
                --jobs      worker threads                     (available parallelism)
                --queue     result-queue bound; workers block
                            when a slow sink falls this far
                            behind (0 = unbounded)             (1024)
                --aggregate-every
                            vehicles between running
                            aggregate records (0 = final only) (100)
                --timing    true|false include per-vehicle
                            wall times (breaks reproducibility)(false)
                --out       JSONL path, or - for stdout        (-)
                --store     cell-store path: finished vehicles
                            are served from disk and fresh ones
                            persisted, so an interrupted run
                            restarts where it stopped (--resume
                            is an alias)                       (off)
                --faults    fault-plan preset (traction-loss |
                            chaos) or JSON file; faults are
                            materialized per vehicle from the
                            root seed, so runs stay
                            bit-identical for any --jobs        (off)
                --retries   crashed vehicles are retried up to N
                            times with attempt-derived seeds,
                            then quarantined in the aggregates   (0)
  faults      Inspect fault plans and run the robustness experiment
                --plan      preset name or JSON file: print the
                            canonical plan JSON                (list presets)
                --vehicle   with --plan: preview the faults
                            materialized for this vehicle       (off)
                --seed      root seed for --vehicle             (990951)
                --compare   true: run the traction-loss recovery
                            experiment (HPF vs EDF vs HCPerf)
                            and print the per-scheme table     (false)
                --duration  horizon for --compare               (60)
  store       Inspect a cell store written by sweep/fleet --store
                --path      store path                         (required)
                --status    true|false counts per state and
                            cache-hit ratio                    (true)
                --bottlenecks
                            also list the N slowest done cells
                            and every stuck/failed shard (0 =
                            status only)                       (0)
                --failed    true: list every failed cell with
                            its attempt count and error        (false)
  trace       Run the pipeline briefly and emit the schedule
                --scheme, --seed as above                  (edf)
                --duration  seconds                        (0.5)
                --rate      Hz                             (20)
                --format    gantt | chrome                 (gantt)
  help        This message
"
    .to_owned()
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns [`CliError`] on bad arguments, unknown commands, or scenario
/// failures.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command() {
        "run" => cmd_run(args),
        "sweep" => cmd_sweep(args),
        "analyze" => cmd_analyze(args),
        "fleet" => cmd_fleet(args),
        "faults" => cmd_faults(args),
        "store" => cmd_store(args),
        "motivation" => cmd_motivation(args),
        "graph" => cmd_graph(args),
        "trace" => cmd_trace(args),
        "help" | "--help" | "-h" => Ok(help()),
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let scheme = args.get_scheme("scheme", Scheme::HcPerf)?;
    let duration = args.get_f64("duration", 30.0)?;
    if duration <= 0.0 {
        return Err(CliError::Args(ParseError(
            "--duration must be positive".into(),
        )));
    }
    let seed = args.get_u64("seed", 42)?;
    let scenario = args.get("scenario").unwrap_or("car-following");
    let mut out = String::new();
    match scenario {
        "car-following" => {
            let mut config = CarFollowingConfig::paper_simulation(scheme);
            config.duration = duration;
            config.seed = seed;
            let r = run_car_following(&config)?;
            let _ = writeln!(out, "car following under {scheme} for {duration:.0} s:");
            let _ = writeln!(out, "  RMS speed error:    {:.3} m/s", r.rms_speed_error);
            let _ = writeln!(out, "  RMS distance error: {:.3} m", r.rms_distance_error);
            let _ = writeln!(out, "  commands:           {}", r.commands);
            let _ = writeln!(
                out,
                "  miss ratio:         {:.2}% (final {:.2}%)",
                r.overall_miss_ratio * 100.0,
                r.final_miss_ratio * 100.0
            );
            let _ = writeln!(out, "  mean e2e latency:   {:.0} ms", r.mean_e2e_ms);
            if let Some(t) = r.collision_time {
                let _ = writeln!(out, "  COLLISION at t = {t:.1} s");
            }
        }
        "lane-keeping" => {
            let mut config = LaneKeepingConfig::paper_loop(scheme);
            config.duration = duration;
            config.seed = seed;
            let r = run_lane_keeping(&config)?;
            let _ = writeln!(out, "lane keeping under {scheme} for {duration:.0} s:");
            let _ = writeln!(out, "  RMS lateral offset: {:.4} m", r.rms_lateral_offset);
            let _ = writeln!(out, "  max |offset|:       {:.3} m", r.max_lateral_offset);
            let _ = writeln!(out, "  commands:           {}", r.commands);
            let _ = writeln!(
                out,
                "  miss ratio:         {:.2}%",
                r.overall_miss_ratio * 100.0
            );
        }
        other => {
            return Err(CliError::Args(ParseError(format!(
                "unknown scenario {other:?} (car-following | lane-keeping)"
            ))))
        }
    }
    Ok(out)
}

fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    let scheme = args.get_scheme("scheme", Scheme::Edf)?;
    let from = args.get_f64("from", 10.0)?;
    let to = args.get_f64("to", 50.0)?;
    let step = args.get_f64("step", 5.0)?;
    let duration = args.get_f64("duration", 5.0)?;
    let seed = args.get_u64("seed", 42)?;
    // 0 = the host's available parallelism (the harness default).
    let jobs = args.get_usize("jobs", 0)?;
    if !(from > 0.0 && to >= from && step > 0.0 && duration > 0.0) {
        return Err(CliError::Args(ParseError(
            "sweep needs 0 < --from <= --to, --step > 0 and --duration > 0".into(),
        )));
    }
    let mut rates = Vec::new();
    let mut hz = from;
    while hz <= to + 1e-9 {
        rates.push(hz);
        hz += step;
    }
    let config = SweepConfig {
        scheme,
        rates_hz: rates,
        duration,
        seed,
        ..Default::default()
    };
    let (points, store_report) = match store_path(args) {
        None => (rate_sweep(&config, jobs, None)?, None),
        Some(path) => {
            let mut store = open_store(path)?;
            let mut cache = sweep_cache(&mut store, &config);
            let points = rate_sweep(&config, jobs, Some(&mut cache))?;
            let summary = cache
                .finish()
                .map_err(|e| CliError::Io(format!("store {path}: {e}")))?;
            (points, Some(summary))
        }
    };
    let mut out = format!("rate sweep under {scheme}:\n");
    let _ = writeln!(
        out,
        "{:>7} {:>9} {:>12} {:>10}",
        "rate", "miss", "commands/s", "e2e(ms)"
    );
    for p in &points {
        // "-" = no command was emitted at that rate, which is not the
        // same thing as a zero-latency pipeline.
        let e2e = p
            .mean_e2e_ms
            .map_or_else(|| format!("{:>10}", "-"), |ms| format!("{ms:10.1}"));
        let _ = writeln!(
            out,
            "{:5.0}Hz {:8.2}% {:12.1} {e2e}",
            p.rate_hz,
            p.miss_ratio * 100.0,
            p.commands_per_sec,
        );
    }
    match knee(&points, 0.02) {
        Some(k) => {
            let _ = writeln!(
                out,
                "capacity knee: ~{k:.0} Hz (first rate above 2% misses)"
            );
        }
        None => {
            let _ = writeln!(out, "no knee inside the sweep");
        }
    }
    if let Some(summary) = store_report {
        let _ = writeln!(out, "store: {}", render_run_summary(summary));
    }
    Ok(out)
}

/// `--store PATH`, with `--resume PATH` accepted as an alias.
fn store_path(args: &Args) -> Option<&str> {
    args.get("store").or_else(|| args.get("resume"))
}

fn open_store(path: &str) -> Result<Store, CliError> {
    Store::open(path).map_err(|e| CliError::Io(format!("store {path}: {e}")))
}

fn render_run_summary(summary: RunSummary) -> String {
    let ratio = summary
        .hit_ratio()
        .map_or_else(|| "-".to_owned(), |r| format!("{:.1}%", r * 100.0));
    format!(
        "{} hits / {} misses ({ratio} cached)",
        summary.hits, summary.misses
    )
}

fn cmd_analyze(args: &Args) -> Result<String, CliError> {
    let rate = args.get_f64("rate", 20.0)?;
    let processors = args.get_usize("processors", 4)?;
    if rate <= 0.0 || processors == 0 {
        return Err(CliError::Args(ParseError(
            "--rate must be positive and --processors at least 1".into(),
        )));
    }
    let graph = apollo_graph(&GraphOptions {
        jitter_frac: 0.0,
        with_affinity: false,
        processors,
    })?;
    let ctx = ExecContext::idle();
    let report = analyze(&graph, Rate::from_hz(rate), ctx, processors);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "offline analysis of the {}-task graph at {rate:.0} Hz on {processors} processors:",
        graph.len()
    );
    let _ = writeln!(out, "  utilization:      {:.2}", report.utilization);
    let _ = writeln!(
        out,
        "  Liu-Layland bound: {:.3} ({} tasks)",
        liu_layland_bound(graph.len()),
        graph.len()
    );
    let _ = writeln!(out, "  within bound:     {}", report.within_bound);
    let _ = writeln!(out, "  feasible (u < 1): {}", report.feasible);
    let _ = writeln!(
        out,
        "  critical path:    {:.1} ms",
        report.critical_path_secs * 1e3
    );
    let _ = writeln!(
        out,
        "  rate at u = 1:    {:.1} Hz",
        max_rate_within_bound(&graph, ctx, processors, 1.0).as_hz()
    );
    let _ = writeln!(out, "  response-time analysis (sufficient test):");
    for r in rta_fixed_priority(&graph, Rate::from_hz(rate), ctx, processors) {
        let name = graph.spec(r.task).name();
        match r.response_bound {
            Some(b) => {
                let _ = writeln!(out, "    {name:24} bound {:.1} ms", b.as_millis());
            }
            None => {
                let _ = writeln!(out, "    {name:24} not guaranteed");
            }
        }
    }
    Ok(out)
}

fn cmd_fleet(args: &Args) -> Result<String, CliError> {
    let preset_name = args.get("preset").unwrap_or("car-following");
    let preset = FleetPreset::parse(preset_name).ok_or_else(|| {
        CliError::Args(ParseError(format!(
            "unknown preset {preset_name:?} (car-following | car-following-hw | lane-keeping)"
        )))
    })?;
    let vehicles = args.get_usize("vehicles", 100)?;
    let duration = args.get_f64("duration", 20.0)?;
    if vehicles == 0 || duration <= 0.0 {
        return Err(CliError::Args(ParseError(
            "--vehicles and --duration must be positive".into(),
        )));
    }
    let mut config = FleetConfig::new(preset, vehicles);
    config.scheme = args.get_scheme("scheme", config.scheme)?;
    config.duration = duration;
    config.root_seed = args.get_u64("seed", config.root_seed)?;
    config.workers = args.get_usize("jobs", 0)?;
    config.queue_capacity = args.get_usize("queue", config.queue_capacity)?;
    config.aggregate_every = args.get_usize("aggregate-every", config.aggregate_every)?;
    config.timing = args.get_bool("timing", false)?;
    if let Some(plan) = args.get("faults") {
        config.faults = FaultPlan::resolve(plan)
            .map_err(|e| CliError::Args(ParseError(format!("--faults {plan}: {e}"))))?;
    }
    let retries = args.get_u64("retries", 0)?;
    config.max_retries = u32::try_from(retries)
        .map_err(|_| CliError::Args(ParseError(format!("--retries {retries} is out of range"))))?;

    // The store (if any) outlives the cache view borrowing it.
    let mut store = match store_path(args) {
        Some(path) => Some(open_store(path)?),
        None => None,
    };
    let mut cache = store.as_mut().map(|s| fleet_cache(s, &config));

    let out_path = args.get("out").unwrap_or("-");
    let run_result = if out_path == "-" {
        // Service mode: records go straight to stdout as they complete;
        // only the human summary is returned through dispatch.
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        run_fleet(
            &config,
            &mut lock,
            cache.as_mut().map(|c| c as &mut dyn ResultCache<_>),
        )
    } else {
        let mut file = std::fs::File::create(out_path)
            .map(std::io::BufWriter::new)
            .map_err(|e| CliError::Io(format!("create {out_path}: {e}")))?;
        let result = run_fleet(
            &config,
            &mut file,
            cache.as_mut().map(|c| c as &mut dyn ResultCache<_>),
        );
        // Flush + fsync on success AND error paths: an interrupted run
        // must leave its replayable JSONL prefix durably on disk. Only a
        // regular file is fsynced: a device or pipe (`/dev/null`) has
        // nothing to make durable and rejects the call with EINVAL.
        use std::io::Write as _;
        let sync = file.flush().and_then(|()| {
            let f = file.get_ref();
            if f.metadata()?.is_file() {
                f.sync_all()
            } else {
                Ok(())
            }
        });
        match (result, sync) {
            (Err(e), _) => Err(e), // the run error is primary
            (Ok(_), Err(e)) => {
                return Err(CliError::Io(format!("sync {out_path}: {e}")));
            }
            (Ok(summary), Ok(())) => Ok(summary),
        }
    };
    // Seal the store on both paths: even an aborted run keeps the done
    // cells it persisted (that is what --resume picks up from). The
    // run's own error stays primary.
    let store_report = match (cache, &run_result) {
        (Some(c), Ok(_)) => Some(
            c.finish()
                .map_err(|e| CliError::Io(format!("store: {e}")))?,
        ),
        (Some(c), Err(_)) => {
            let _ = c.finish();
            None
        }
        (None, _) => None,
    };
    let summary = run_result?;

    let mut out = format!(
        "fleet: {} vehicles ({}, {}), {:.1} s horizon each\n",
        summary.vehicles,
        preset.name(),
        config.scheme,
        config.duration
    );
    let _ = writeln!(
        out,
        "  ok / failed / panicked: {} / {} / {}",
        summary.ok, summary.failed, summary.panicked
    );
    if config.supervised() {
        let _ = writeln!(
            out,
            "  faults / retried:       {} / {}",
            if config.faults.is_empty() {
                "(none)".to_owned()
            } else {
                config.faults.name.clone()
            },
            summary.retried
        );
    }
    let _ = writeln!(out, "  collisions:             {}", summary.collisions);
    if let Some(agg) = &summary.aggregate {
        let _ = writeln!(
            out,
            "  fleet e2e p50 / p99:    {:.1} / {:.1} ms (worst vehicle p99 {:.1} ms)",
            agg.e2e_p50_ms, agg.e2e_p99_ms, agg.worst_e2e_p99_ms
        );
        let _ = writeln!(
            out,
            "  mean miss ratio:        {:.2}%",
            agg.mean_miss_ratio * 100.0
        );
        let _ = writeln!(out, "  tracking RMSE:          {:.4}", agg.tracking_rmse);
    }
    if let Some(report) = store_report {
        let _ = writeln!(
            out,
            "  store:                  {}",
            render_run_summary(report)
        );
    }
    if out_path != "-" {
        let _ = writeln!(out, "  records: {out_path}");
    }
    Ok(out)
}

/// `hcperf faults`: list fault-plan presets, print a resolved plan,
/// preview a vehicle's materialized faults, or run the traction-loss
/// recovery experiment (`--compare true`).
fn cmd_faults(args: &Args) -> Result<String, CliError> {
    let mut out = String::new();
    if args.get_bool("compare", false)? {
        let config = TractionLossConfig {
            duration: args.get_f64("duration", 60.0)?,
            seed: args.get_u64("seed", 42)?,
            ..Default::default()
        };
        if config.duration <= 38.0 {
            return Err(CliError::Args(ParseError(
                "--duration must exceed 38 (the fault clears at t = 38 s)".into(),
            )));
        }
        let rows = traction_loss_comparison(&config)?;
        let _ = writeln!(
            out,
            "traction-loss recovery, {:.0} s horizon (fault active 30-38 s):",
            config.duration
        );
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>11} {:>10} {:>10} {:>9} {:>9}",
            "scheme", "rms(fault)", "rms(after)", "miss-rec", "track-rec", "miss%", "collided"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:>8} {:12.3} {:11.3} {:9.1}s {:9.1}s {:8.2}% {:>9}",
                r.scheme.to_string(),
                r.rms_error_during_fault,
                r.rms_error_after_fault,
                r.miss_recovery_s,
                r.tracking_recovery_s,
                r.overall_miss_ratio * 100.0,
                if r.collided { "YES" } else { "no" }
            );
        }
        return Ok(out);
    }
    let Some(arg) = args.get("plan") else {
        let _ = writeln!(out, "fault-plan presets (use with fleet --faults <name>):");
        for name in FaultPlan::preset_names() {
            let plan = FaultPlan::preset(name).expect("listed preset resolves");
            let _ = writeln!(out, "  {name}: {} fault spec(s)", plan.faults.len());
        }
        let _ = writeln!(
            out,
            "a JSON file path is also accepted; `faults --plan <name>` prints the canonical JSON"
        );
        return Ok(out);
    };
    let plan = FaultPlan::resolve(arg)
        .map_err(|e| CliError::Args(ParseError(format!("--plan {arg}: {e}"))))?;
    let _ = writeln!(out, "{}", plan.to_json());
    if let Some(vehicle) = args.get("vehicle") {
        let vehicle: usize = vehicle
            .parse()
            .map_err(|_| CliError::Args(ParseError(format!("bad --vehicle {vehicle:?}"))))?;
        let seed = args.get_u64("seed", 990_951)?;
        let graph = apollo_graph(&GraphOptions::default())?;
        let faults = plan
            .materialize(&graph, vehicle, seed)
            .map_err(|e| CliError::Args(ParseError(format!("materialize: {e}"))))?;
        let _ = writeln!(
            out,
            "vehicle {vehicle} (root seed {seed:#x}) draws {} fault(s):",
            faults.sim.len()
                + faults.sensor_dropouts.len()
                + faults.feedback.len()
                + usize::from(faults.crash_at.is_some())
        );
        for w in &faults.sim {
            let _ = writeln!(
                out,
                "  sim   [{:.2} s, {:.2} s): {:?}",
                w.start.as_secs(),
                w.end.as_secs(),
                w.effect
            );
        }
        for &(start, end) in &faults.sensor_dropouts {
            let _ = writeln!(out, "  hold  [{start:.2} s, {end:.2} s): sensor dropout");
        }
        for &(start, end, miss) in &faults.feedback {
            let _ = writeln!(
                out,
                "  tra   [{start:.2} s, {end:.2} s): feedback corrupt (miss ratio {miss})"
            );
        }
        if let Some(t) = faults.crash_at {
            let _ = writeln!(out, "  crash at {t:.2} s");
        }
    }
    Ok(out)
}

/// `hcperf store --path P [--status true] [--bottlenecks N]`: inspect an
/// existing cell store. A missing `P` is an error, not a new empty store.
/// As on every open, a torn tail is moved to `P.quarantine` and the log is
/// truncated to its last complete record.
fn cmd_store(args: &Args) -> Result<String, CliError> {
    let path = args
        .get("path")
        .ok_or_else(|| CliError::Args(ParseError("store needs --path <store file>".into())))?;
    let show_status = args.get_bool("status", true)?;
    let top = args.get_usize("bottlenecks", 0)?;
    std::fs::metadata(path).map_err(|e| CliError::Io(format!("store {path}: {e}")))?;
    let store = open_store(path)?;
    let mut out = String::new();
    if show_status {
        let s = store.status();
        let _ = writeln!(
            out,
            "store {path}: {} cells ({} pending / {} running / {} done / {} failed)",
            s.total(),
            s.pending,
            s.running,
            s.done,
            s.failed
        );
        match s.last_run {
            Some(run) => {
                let _ = writeln!(
                    out,
                    "  runs recorded: {}; last run: {}",
                    s.runs,
                    render_run_summary(run)
                );
            }
            None => {
                let _ = writeln!(out, "  runs recorded: 0");
            }
        }
        if s.quarantined_bytes > 0 {
            let _ = writeln!(
                out,
                "  recovered: {} torn-tail byte(s) quarantined to {path}.quarantine",
                s.quarantined_bytes
            );
        }
    }
    if top > 0 {
        let b = store.bottlenecks(top);
        let _ = writeln!(out, "  slowest done cells:");
        if b.slowest_done.is_empty() {
            let _ = writeln!(out, "    (none)");
        }
        for (wall_ms, key) in &b.slowest_done {
            let _ = writeln!(out, "    {wall_ms:10.3} ms  {key}");
        }
        if !b.stuck.is_empty() {
            let _ = writeln!(out, "  stuck shards (pending/running): {}", b.stuck.len());
            for key in &b.stuck {
                let _ = writeln!(out, "    {key}");
            }
        }
        if !b.failed.is_empty() {
            let _ = writeln!(
                out,
                "  failed shards (retried next run): {}",
                b.failed.len()
            );
            for key in &b.failed {
                let _ = writeln!(out, "    {key}");
            }
        }
    }
    if args.get_bool("failed", false)? {
        let failed = store.failed_cells();
        let _ = writeln!(out, "  failed cells: {}", failed.len());
        for (key, attempts, error) in &failed {
            let _ = writeln!(out, "    {key} ({attempts} attempt(s)): {error}");
        }
    }
    Ok(out)
}

fn cmd_motivation(args: &Args) -> Result<String, CliError> {
    let scheme = args.get_scheme("scheme", Scheme::Apollo)?;
    let config = MotivationConfig {
        scheme,
        ..Default::default()
    };
    let r = run_motivation(&config)?;
    let mut out = format!("motivation study under {scheme}:\n");
    let _ = writeln!(
        out,
        "  miss ratio before/after braking: {:.1}% / {:.1}%",
        r.miss_ratio_before_event * 100.0,
        r.miss_ratio_after_event * 100.0
    );
    match r.collision_time {
        Some(t) => {
            let _ = writeln!(out, "  COLLISION at t = {t:.1} s");
        }
        None => {
            let _ = writeln!(out, "  no collision");
        }
    }
    Ok(out)
}

fn cmd_graph(args: &Args) -> Result<String, CliError> {
    let which = args.get("which").unwrap_or("apollo");
    let format = args.get("format").unwrap_or("dot");
    let opts = GraphOptions::default();
    let graph = match which {
        "apollo" => apollo_graph(&opts)?,
        "motivation" => motivation_graph(&opts)?,
        other => {
            return Err(CliError::Args(ParseError(format!(
                "unknown graph {other:?} (apollo | motivation)"
            ))))
        }
    };
    match format {
        "dot" => Ok(graph.to_dot()),
        "json" => serde_json::to_string_pretty(&graph)
            .map_err(|e| CliError::Args(ParseError(format!("serialization failed: {e}")))),
        other => Err(CliError::Args(ParseError(format!(
            "unknown format {other:?} (dot | json)"
        )))),
    }
}

fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let scheme = args.get_scheme("scheme", Scheme::Edf)?;
    let duration = args.get_f64("duration", 0.5)?;
    let rate = args.get_f64("rate", 20.0)?;
    let seed = args.get_u64("seed", 42)?;
    let format = args.get("format").unwrap_or("gantt");
    if duration <= 0.0 || rate <= 0.0 {
        return Err(CliError::Args(ParseError(
            "--duration and --rate must be positive".into(),
        )));
    }
    let graph = apollo_graph(&GraphOptions {
        with_affinity: scheme.uses_affinity(),
        ..Default::default()
    })?;
    let mut sim = Sim::new(
        graph,
        SimConfig {
            seed,
            trace_capacity: 1_000_000,
            ..Default::default()
        },
        scheme.build(hcperf::DpsConfig::default()),
    )
    .map_err(|e| CliError::Args(ParseError(format!("simulator: {e}"))))?;
    let sources: Vec<_> = sim.source_rates().iter().map(|&(t, _)| t).collect();
    for s in sources {
        sim.set_source_rate(s, Rate::from_hz(rate))
            .map_err(|e| CliError::Args(ParseError(format!("rates: {e}"))))?;
    }
    sim.run_until(SimTime::from_secs(duration));
    let graph = sim.graph().clone();
    match format {
        "gantt" => gantt::render(
            sim.trace(),
            &graph,
            SimTime::from_secs(duration),
            duration / 100.0,
        )
        .map_err(|e| CliError::Args(ParseError(format!("gantt render: {e}")))),
        "chrome" => trace_json::to_chrome_trace(sim.trace(), &graph)
            .map_err(|e| CliError::Args(ParseError(format!("serialization failed: {e}")))),
        other => Err(CliError::Args(ParseError(format!(
            "unknown format {other:?} (gantt | chrome)"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(argv.iter().copied()).unwrap();
        dispatch(&args)
    }

    #[test]
    fn help_lists_every_command() {
        let h = help();
        for cmd in ["run", "sweep", "analyze", "motivation", "graph"] {
            assert!(h.contains(cmd), "help must mention {cmd}");
        }
        assert_eq!(run(&["help"]).unwrap(), h);
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
    }

    #[test]
    fn graph_dot_and_json() {
        let dot = run(&["graph", "--which", "motivation"]).unwrap();
        assert!(dot.starts_with("digraph"));
        let json = run(&["graph", "--which", "apollo", "--format", "json"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["tasks"].as_array().unwrap().len() == 23);
        assert!(run(&["graph", "--which", "zzz"]).is_err());
        assert!(run(&["graph", "--format", "yaml"]).is_err());
    }

    #[test]
    fn analyze_prints_utilization_and_bounds() {
        let out = run(&["analyze", "--rate", "10", "--processors", "4"]).unwrap();
        assert!(out.contains("utilization"));
        assert!(out.contains("chassis_command"));
        assert!(run(&["analyze", "--rate", "0"]).is_err());
    }

    #[test]
    fn run_car_following_short() {
        let out = run(&["run", "--scheme", "edf", "--duration", "5"]).unwrap();
        assert!(out.contains("RMS speed error"));
        assert!(out.contains("commands"));
        assert!(run(&["run", "--scenario", "flying"]).is_err());
    }

    #[test]
    fn trace_renders_gantt_and_chrome() {
        let g = run(&["trace", "--duration", "0.3"]).unwrap();
        assert!(g.contains("p0 |"));
        assert!(g.contains("p3 |"));
        let c = run(&["trace", "--duration", "0.3", "--format", "chrome"]).unwrap();
        let v: serde_json::Value = serde_json::from_str(&c).unwrap();
        assert!(v.as_array().unwrap().len() > 10);
        assert!(run(&["trace", "--format", "svg"]).is_err());
        assert!(run(&["trace", "--duration", "0"]).is_err());
    }

    #[test]
    fn fleet_streams_jsonl_and_summarizes() {
        let path = std::env::temp_dir().join("hcperf_cli_fleet_test.jsonl");
        let path = path.to_str().unwrap();
        let out = run(&[
            "fleet",
            "--vehicles",
            "3",
            "--duration",
            "0.5",
            "--aggregate-every",
            "2",
            "--out",
            path,
        ])
        .unwrap();
        assert!(out.contains("fleet: 3 vehicles"), "{out}");
        assert!(out.contains("ok / failed / panicked: 3 / 0 / 0"), "{out}");
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        let vehicles = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"vehicle\""))
            .count();
        let aggregates = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"aggregate\""))
            .count();
        assert_eq!(vehicles, 3);
        // One at the cadence boundary (2) and one final (3).
        assert_eq!(aggregates, 2);
        // Timing is off by default: no wall times in the stream.
        assert!(!text.contains("wall_ms"), "{text}");
    }

    #[test]
    fn run_and_sweep_reject_a_non_positive_duration() {
        for argv in [
            &["run", "--duration", "0"][..],
            &["run", "--duration", "-1"],
            &["sweep", "--duration", "-1", "--jobs", "1"],
        ] {
            match run(argv) {
                Err(CliError::Args(ParseError(msg))) => {
                    assert!(msg.contains("--duration"), "{argv:?}: {msg}");
                }
                other => panic!("{argv:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn fleet_validates_arguments() {
        assert!(run(&["fleet", "--vehicles", "0"]).is_err());
        assert!(run(&["fleet", "--duration", "0"]).is_err());
        assert!(run(&["fleet", "--preset", "submarine"]).is_err());
        assert!(run(&["fleet", "--timing", "maybe"]).is_err());
    }

    /// Asserts that `argv` is refused as a non-finite number.
    fn rejects_non_finite(argv: &[&str]) {
        match run(argv) {
            Err(CliError::Args(ParseError(msg))) => {
                assert!(msg.contains("expects a finite number"), "{argv:?}: {msg}");
            }
            other => panic!("{argv:?}: {other:?}"),
        }
    }

    #[test]
    fn analyze_rejects_non_finite_rate() {
        rejects_non_finite(&["analyze", "--rate", "nan"]);
        rejects_non_finite(&["analyze", "--rate", "inf"]);
    }

    #[test]
    fn trace_rejects_non_finite_rate_and_duration() {
        rejects_non_finite(&["trace", "--rate", "nan"]);
        rejects_non_finite(&["trace", "--duration", "inf"]);
    }

    #[test]
    fn sweep_rejects_non_finite_bounds_and_duration() {
        rejects_non_finite(&["sweep", "--duration", "inf", "--jobs", "1"]);
        rejects_non_finite(&["sweep", "--to", "inf", "--jobs", "1"]);
    }

    #[test]
    fn run_rejects_non_finite_duration() {
        rejects_non_finite(&["run", "--duration", "inf"]);
        rejects_non_finite(&["run", "--duration", "nan"]);
        rejects_non_finite(&["run", "--duration", "1e999"]);
    }

    #[test]
    fn fleet_rejects_non_finite_duration() {
        rejects_non_finite(&[
            "fleet",
            "--duration",
            "inf",
            "--vehicles",
            "2",
            "--jobs",
            "1",
        ]);
    }

    /// A character device takes the records but cannot be fsynced; the
    /// run must still succeed.
    #[cfg(unix)]
    #[test]
    fn fleet_writes_to_a_character_device() {
        let out = run(&[
            "fleet",
            "--vehicles",
            "2",
            "--duration",
            "0.05",
            "--jobs",
            "1",
            "--out",
            "/dev/null",
        ])
        .unwrap();
        assert!(out.contains("ok / failed / panicked: 2 / 0 / 0"), "{out}");
        assert!(out.contains("records: /dev/null"), "{out}");
    }

    #[test]
    fn sweep_validates_bounds() {
        assert!(run(&["sweep", "--from", "30", "--to", "10"]).is_err());
        let out = run(&[
            "sweep",
            "--from",
            "10",
            "--to",
            "20",
            "--step",
            "10",
            "--duration",
            "2",
        ])
        .unwrap();
        assert!(out.contains("rate sweep"));
        assert!(out.contains("10Hz"));
        assert!(out.contains("20Hz"));
    }

    fn temp_path(name: &str) -> String {
        let p = std::env::temp_dir().join(format!("hcperf_cli_{name}_{}", std::process::id()));
        let p = p.to_str().unwrap().to_owned();
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(format!("{p}.quarantine")).ok();
        p
    }

    #[test]
    fn sweep_with_store_is_all_hits_on_the_second_run() {
        let store = temp_path("sweep_store");
        let argv = vec![
            "sweep",
            "--from",
            "10",
            "--to",
            "30",
            "--step",
            "20",
            "--duration",
            "2",
            "--store",
            &store,
        ];
        let first = run(&argv).unwrap();
        assert!(first.contains("store: 0 hits / 2 misses"), "{first}");
        let second = run(&argv).unwrap();
        assert!(
            second.contains("store: 2 hits / 0 misses (100.0% cached)"),
            "{second}"
        );
        // Identical sweep table either way (everything above the store line).
        let table = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("store:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&first), table(&second));

        // `--resume` is an alias for `--store`.
        let resumed = run(&[
            "sweep",
            "--from",
            "10",
            "--to",
            "30",
            "--step",
            "20",
            "--duration",
            "2",
            "--resume",
            &store,
        ])
        .unwrap();
        assert!(resumed.contains("100.0% cached"), "{resumed}");
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn fleet_with_store_resumes_without_recomputing() {
        let store = temp_path("fleet_store");
        let out = temp_path("fleet_store_out.jsonl");
        let argv = |out: &str| {
            vec![
                "fleet".to_owned(),
                "--vehicles".into(),
                "4".into(),
                "--duration".into(),
                "0.5".into(),
                "--store".into(),
                store.clone(),
                "--out".into(),
                out.to_owned(),
            ]
        };
        let run_owned = |argv: Vec<String>| {
            let args = Args::parse(argv.iter().map(String::as_str)).unwrap();
            dispatch(&args)
        };
        let first = run_owned(argv(&out)).unwrap();
        assert!(
            first.contains("store:                  0 hits / 4 misses"),
            "{first}"
        );
        let straight = std::fs::read_to_string(&out).unwrap();

        let second = run_owned(argv(&out)).unwrap();
        assert!(
            second.contains("store:                  4 hits / 0 misses (100.0% cached)"),
            "{second}"
        );
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            straight,
            "cached replay must be byte-identical"
        );

        // Introspection over the same store file.
        let status = run(&["store", "--path", &store]).unwrap();
        assert!(
            status.contains("4 cells (0 pending / 0 running / 4 done / 0 failed)"),
            "{status}"
        );
        assert!(status.contains("last run: 4 hits / 0 misses"), "{status}");
        let bn = run(&["store", "--path", &store, "--bottlenecks", "2"]).unwrap();
        assert!(bn.contains("slowest done cells:"), "{bn}");
        assert!(bn.contains("fleet/car-following/vehicle="), "{bn}");

        std::fs::remove_file(&store).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn store_command_validates_arguments() {
        assert!(run(&["store"]).is_err(), "--path is required");
    }

    #[test]
    fn store_refuses_a_missing_path_and_creates_nothing() {
        let path = temp_path("store_absent");
        match run(&["store", "--path", &path]) {
            Err(CliError::Io(msg)) => assert!(msg.contains(&path), "{msg}"),
            other => panic!("{other:?}"),
        }
        assert!(!std::path::Path::new(&path).exists(), "{path} was created");
    }

    #[test]
    fn faults_lists_presets_and_prints_plans() {
        let listing = run(&["faults"]).unwrap();
        assert!(listing.contains("traction-loss"), "{listing}");
        assert!(listing.contains("chaos"), "{listing}");
        let plan = run(&["faults", "--plan", "traction-loss"]).unwrap();
        assert!(plan.contains("\"name\":\"traction-loss\""), "{plan}");
        assert!(run(&["faults", "--plan", "no-such-plan"]).is_err());
    }

    #[test]
    fn faults_previews_a_vehicle_materialization() {
        let out = run(&[
            "faults",
            "--plan",
            "traction-loss",
            "--vehicle",
            "0",
            "--seed",
            "42",
        ])
        .unwrap();
        // Probability-1 specs always draw: the spike and the dropout.
        assert!(out.contains("draws"), "{out}");
        assert!(out.contains("sensor dropout"), "{out}");
        assert!(out.contains("ExecSpike"), "{out}");
        assert!(run(&["faults", "--plan", "chaos", "--vehicle", "x"]).is_err());
    }

    #[test]
    fn fleet_with_faults_is_supervised_and_reproducible() {
        // Serialize with other panic-hook-sensitive tests in this crate.
        let argv = |jobs: &'static str| {
            vec![
                "fleet",
                "--vehicles",
                "4",
                "--duration",
                "0.5",
                "--faults",
                "traction-loss",
                "--retries",
                "1",
                "--jobs",
                jobs,
                "--out",
            ]
        };
        let out1 = temp_path("fleet_faults_1.jsonl");
        let out2 = temp_path("fleet_faults_2.jsonl");
        fn run_to<'a>(mut argv: Vec<&'a str>, out: &'a str) -> Result<String, CliError> {
            argv.push(out);
            let args = Args::parse(argv.iter().copied()).unwrap();
            dispatch(&args)
        }
        let s1 = run_to(argv("1"), &out1).unwrap();
        assert!(
            s1.contains("faults / retried:       traction-loss / 0"),
            "{s1}"
        );
        let s2 = run_to(argv("2"), &out2).unwrap();
        let t1 = std::fs::read_to_string(&out1).unwrap();
        let t2 = std::fs::read_to_string(&out2).unwrap();
        assert_eq!(t1, t2, "faulted fleet must not depend on --jobs");
        // The supervised aggregate carries the quarantine fields.
        assert!(t1.contains("\"failed_vehicles\":"), "{t1}");
        assert!(s2.contains("ok / failed / panicked: 4 / 0 / 0"), "{s2}");
        std::fs::remove_file(&out1).ok();
        std::fs::remove_file(&out2).ok();

        assert!(run(&["fleet", "--faults", "bogus"]).is_err());
        assert!(run(&["fleet", "--preset", "lane-keeping", "--faults", "chaos"]).is_err());
    }

    #[test]
    fn faults_compare_prints_the_recovery_table() {
        assert!(run(&["faults", "--compare", "true", "--duration", "10"]).is_err());
        // The full experiment takes ~60 simulated seconds per scheme; it
        // runs in the scenarios suite. Here only argument plumbing is
        // exercised via the duration guard above and the help text.
        assert!(help().contains("--compare"));
    }

    #[test]
    fn store_failed_listing_is_wired() {
        let store = temp_path("failed_listing");
        // An empty store reports zero failed cells.
        {
            let s = open_store(&store).unwrap();
            drop(s);
        }
        let out = run(&["store", "--path", &store, "--failed", "true"]).unwrap();
        assert!(out.contains("failed cells: 0"), "{out}");
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn sweep_output_does_not_depend_on_jobs() {
        let argv = |jobs: &'static str| {
            vec![
                "sweep",
                "--from",
                "10",
                "--to",
                "30",
                "--step",
                "20",
                "--duration",
                "2",
                "--jobs",
                jobs,
            ]
        };
        let one = run(&argv("1")).unwrap();
        assert_eq!(run(&argv("2")).unwrap(), one);
        assert!(run(&["sweep", "--jobs", "x"]).is_err());
    }
}
