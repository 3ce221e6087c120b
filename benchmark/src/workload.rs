//! The five workloads: what one rep runs, how a workload is set up, and
//! the output checks every rep must pass.
//!
//! Fleet workloads go through the real CLI path in-process
//! (`hcperf_cli::dispatch` running `fleet ... --jobs 1 --out <file>`), so
//! argument parsing, the harness pool, JSONL encoding, the store and the
//! output fsync are all inside the timed region. The overload workload
//! drives `Sim` directly: it has no vehicle, no coordinator and no I/O.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hcperf::{DpsConfig, GammaSearch, SchedulerKind, Scheme};
use hcperf_rtsim::{JoinPolicy, Scheduler, Sim, SimConfig, SimStats};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{LoadProfile, Rate, SimTime};

/// The root seed `hcperf fleet` uses when none is given.
pub const DEFAULT_SEED: u64 = 0xF1EE7;

/// Pipeline rates of `overload-critical` (Hz): the first sits at the
/// capacity knee, the others past it, where the ready queue is deep.
pub const OVERLOAD_RATES_HZ: [f64; 4] = [30.0, 40.0, 50.0, 60.0];

/// Output digests at [`DEFAULT_SEED`] and full size, with the baselines.
const BASELINE_JSON: &str = include_str!("../baseline.json");

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper configuration: 25 HCPerf vehicles x 20 s.
    FleetCfHcperf,
    /// Same engine and plant under EDF: no γ search, no coordinators.
    FleetCfEdf,
    /// The O(n³) critical-point γ search on deep overload queues.
    OverloadCritical,
    /// Many short vehicles written to a fresh store: per-vehicle fixed costs.
    FleetShortStore,
    /// A fully cached fleet replayed from a warm store: the read side.
    FleetStoreWarm,
}

/// How big one rep is: `vehicles` instances of `duration` simulated
/// seconds each (for `overload-critical`, one instance per rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Vehicles (or overload rate points) per rep.
    pub vehicles: usize,
    /// Simulated seconds per vehicle.
    pub duration: f64,
}

impl Shape {
    /// Simulated seconds one rep covers.
    pub fn sim_seconds(self) -> f64 {
        self.vehicles as f64 * self.duration
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::FleetCfHcperf,
        Workload::FleetCfEdf,
        Workload::OverloadCritical,
        Workload::FleetShortStore,
        Workload::FleetStoreWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCfHcperf => "fleet-cf-hcperf",
            Workload::FleetCfEdf => "fleet-cf-edf",
            Workload::OverloadCritical => "overload-critical",
            Workload::FleetShortStore => "fleet-short-store",
            Workload::FleetStoreWarm => "fleet-store-warm",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scheduling scheme the workload's vehicles (or sims) run.
    pub fn scheme(self) -> Scheme {
        match self {
            Workload::FleetCfEdf => Scheme::Edf,
            _ => Scheme::HcPerf,
        }
    }

    /// The rep size at `scale` (1 = the measured size). Workloads made of
    /// many short vehicles shrink in vehicles, the others in duration.
    pub fn shape(self, scale: f64) -> Shape {
        let (vehicles, duration, many_short) = match self {
            Workload::FleetCfHcperf => (25, 20.0, false),
            Workload::FleetCfEdf => (40, 20.0, false),
            Workload::OverloadCritical => (OVERLOAD_RATES_HZ.len(), 16.0, false),
            Workload::FleetShortStore => (400, 0.5, true),
            Workload::FleetStoreWarm => (8000, 0.1, true),
        };
        if many_short {
            Shape {
                vehicles: ((vehicles as f64 * scale).round() as usize).max(1),
                duration,
            }
        } else {
            Shape {
                vehicles,
                duration: duration * scale,
            }
        }
    }

    /// The pinned FNV-1a digest of this workload's output at
    /// [`DEFAULT_SEED`] and full size.
    fn pinned_digest(self) -> Result<u64, String> {
        let baseline: serde_json::Value = serde_json::from_str(BASELINE_JSON)
            .map_err(|e| format!("baseline.json does not parse: {e}"))?;
        let text = baseline["digests"][self.name()]
            .as_str()
            .ok_or_else(|| format!("baseline.json pins no digest for {}", self.name()))?;
        u64::from_str_radix(text.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad pinned digest {text:?}: {e}"))
    }
}

/// 64-bit FNV-1a, the digest every output check compares.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A rep's output: the fleet JSONL, or one summary line per overload rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The output bytes.
    pub text: String,
    /// [`fnv1a`] of `text`.
    pub digest: u64,
}

impl Output {
    fn new(text: String) -> Output {
        let digest = fnv1a(text.as_bytes());
        Output { text, digest }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// This process's peak RSS in KiB (`VmHWM`), where `/proc/self` reports
/// it.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The deterministic outputs a user reads off a rep (diagnostics; the
/// digest check already pins them bit for bit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Fleet tracking RMSE (`None` for the overload workload: no vehicle).
    pub tracking_rmse: Option<f64>,
    /// Mean deadline-miss ratio.
    pub miss_ratio: f64,
    /// 99th-percentile end-to-end latency in ms.
    pub e2e_p99_ms: f64,
}

/// The fixed nominal u of `overload-critical` (no PDC runs there).
pub const OVERLOAD_U: f64 = 0.05;

/// The overload γ search: the exact critical-point sweep (the
/// `ablation_dps` variant).
pub fn overload_dps() -> DpsConfig {
    DpsConfig {
        search: GammaSearch::CriticalPoints,
        ..DpsConfig::default()
    }
}

/// The overload scheduler: HCPerf with [`overload_dps`] at [`OVERLOAD_U`].
pub fn overload_scheduler() -> SchedulerKind {
    let mut scheduler = Scheme::HcPerf.build(overload_dps());
    scheduler.set_nominal_u(OVERLOAD_U);
    scheduler
}

/// One overload instance: the Fig. 11 graph on 4 processors with 10%
/// execution jitter, a constant 4-obstacle load, same-cycle joins, every
/// source at `rate_hz`.
pub fn overload_sim<S: Scheduler>(rate_hz: f64, seed: u64, scheduler: S) -> Result<Sim<S>, String> {
    let graph = apollo_graph(&GraphOptions {
        jitter_frac: 0.1,
        with_affinity: false,
        processors: 4,
    })
    .map_err(|e| e.to_string())?;
    let config = SimConfig {
        processors: 4,
        seed,
        load: LoadProfile::constant(4.0),
        join_policy: JoinPolicy::SameCycle,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(graph, config, scheduler).map_err(|e| e.to_string())?;
    let sources: Vec<_> = sim.source_rates().iter().map(|&(task, _)| task).collect();
    for task in sources {
        sim.set_source_rate(task, Rate::from_hz(rate_hz))
            .map_err(|e| e.to_string())?;
    }
    Ok(sim)
}

/// The output line of one overload rate point.
pub fn overload_line(rate_hz: f64, stats: &SimStats) -> String {
    let totals = stats.totals();
    let e2e_p99 = stats
        .end_to_end_percentile(0.99)
        .map_or(0.0, |d| d.as_millis());
    format!(
        "rate_hz={rate_hz} released={} dispatched={} commands={} missed={} total={} e2e_p99_ms={e2e_p99}\n",
        stats.released(),
        stats.dispatched(),
        stats.commands_emitted(),
        totals.missed_late + totals.expired,
        totals.total(),
    )
}

/// The state a fleet run expects its `--store` log in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    /// A fresh log: every vehicle is a miss and gets written.
    Cold,
    /// A populated log: every vehicle is a hit.
    Warm,
}

/// One workload's state across setup, timed reps and trace passes.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Rep size.
    pub shape: Shape,
    /// The fleet `--seed` and the overload `SimConfig::seed`.
    pub seed: u64,
    dir: PathBuf,
    pinned: Option<u64>,
    reference: Option<Output>,
    /// Every failed check so far, as a message.
    pub failures: Vec<String>,
}

impl Bench {
    /// A workload at `scale` of its measured size, writing its files in
    /// `dir`. The pinned-digest check applies only at the default seed and
    /// full size.
    pub fn new(workload: Workload, scale: f64, seed: u64, dir: &Path) -> Result<Bench, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let pinned = if seed == DEFAULT_SEED && scale == 1.0 {
            Some(workload.pinned_digest()?)
        } else {
            None
        };
        Ok(Bench {
            workload,
            shape: workload.shape(scale),
            seed,
            dir: dir.to_path_buf(),
            pinned,
            reference: None,
            failures: Vec::new(),
        })
    }

    /// The output every rep must reproduce (set by the first
    /// [`Bench::setup`]).
    pub fn reference(&self) -> Option<&Output> {
        self.reference.as_ref()
    }

    /// The directory the workload writes its files in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records a failed check (and reports it on stderr) unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = format!("{}: {}", self.workload.name(), what());
            eprintln!("check failed: {message}");
            self.failures.push(message);
        }
    }

    fn out_path(&self) -> PathBuf {
        self.dir.join("out.jsonl")
    }

    fn store_path(&self) -> PathBuf {
        self.dir.join("store.log")
    }

    fn remove_store(&self) -> Result<(), String> {
        for path in [self.store_path(), self.dir.join("store.log.quarantine")] {
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("remove {}: {e}", path.display())),
            }
        }
        Ok(())
    }

    /// Runs `hcperf fleet` through the CLI's own dispatch; only the
    /// dispatch call is timed. Returns its wall time and the JSONL it
    /// wrote.
    fn fleet(&mut self, jobs: usize, store: Option<Store>) -> Result<(Duration, Output), String> {
        let out = self.out_path();
        let scheme = match self.workload.scheme() {
            Scheme::Edf => "edf",
            _ => "hcperf",
        };
        let mut argv: Vec<String> = vec![
            "fleet".into(),
            "--preset".into(),
            "car-following".into(),
            "--scheme".into(),
            scheme.into(),
            "--vehicles".into(),
            self.shape.vehicles.to_string(),
            "--duration".into(),
            self.shape.duration.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--jobs".into(),
            jobs.to_string(),
            "--out".into(),
            out.display().to_string(),
        ];
        if store.is_some() {
            argv.push("--store".into());
            argv.push(self.store_path().display().to_string());
        }
        let args = hcperf_cli::Args::parse(argv).map_err(|e| e.to_string())?;
        let (summary, elapsed) = timed(|| hcperf_cli::dispatch(&args));
        let summary = summary.map_err(|e| format!("fleet: {e}"))?;
        let n = self.shape.vehicles;
        self.check(
            summary.contains(&format!("ok / failed / panicked: {n} / 0 / 0")),
            || format!("not every vehicle completed:\n{summary}"),
        );
        if let Some(store) = store {
            let expected = match store {
                Store::Warm => format!("{n} hits / 0 misses (100.0% cached)"),
                Store::Cold => format!("0 hits / {n} misses"),
            };
            self.check(summary.contains(&expected), || {
                format!("store summary lacks {expected:?}:\n{summary}")
            });
        }
        let text =
            std::fs::read_to_string(&out).map_err(|e| format!("read {}: {e}", out.display()))?;
        Ok((elapsed, Output::new(text)))
    }

    /// Runs the four overload rate points.
    fn overload(&self) -> Result<(Duration, Output), String> {
        let horizon = SimTime::from_secs(self.shape.duration);
        let (text, elapsed) = timed(|| -> Result<String, String> {
            let mut text = String::new();
            for rate_hz in OVERLOAD_RATES_HZ {
                let mut sim = overload_sim(rate_hz, self.seed, overload_scheduler())?;
                sim.run_until(horizon);
                text.push_str(&overload_line(rate_hz, sim.stats()));
            }
            Ok(text)
        });
        Ok((elapsed, Output::new(text?)))
    }

    /// One rep as the timed loop runs it, without the reference check
    /// (for `fleet-short-store` the log is deleted first, untimed;
    /// `fleet-store-warm` reads the log set-up populated).
    ///
    /// # Errors
    ///
    /// I/O or CLI failures.
    pub fn run_rep(&mut self) -> Result<(Duration, Output), String> {
        match self.workload {
            Workload::FleetCfHcperf | Workload::FleetCfEdf => self.fleet(1, None),
            Workload::OverloadCritical => self.overload(),
            Workload::FleetShortStore => {
                self.remove_store()?;
                self.fleet(1, Some(Store::Cold))
            }
            Workload::FleetStoreWarm => self.fleet(1, Some(Store::Warm)),
        }
    }

    /// Sets the workload up from scratch: populates the store where there
    /// is one, runs the untimed warm-up rep and the one-off checks, and
    /// fixes (or, on a later call, re-checks) the reference output.
    ///
    /// # Errors
    ///
    /// I/O or CLI failures; failed checks are recorded, not returned.
    pub fn setup(&mut self) -> Result<(), String> {
        let output = match self.workload {
            Workload::FleetStoreWarm => {
                // The store must serve exactly what a straight run writes.
                let (_, straight) = self.fleet(1, None)?;
                self.remove_store()?;
                let (_, populated) = self.fleet(1, Some(Store::Cold))?;
                self.check(populated == straight, || {
                    "populating run differs from a straight run".into()
                });
                let (_, warm) = self.run_rep()?;
                self.check(warm == straight, || {
                    "warm-store replay differs from a straight run with no store".into()
                });
                straight
            }
            Workload::FleetCfHcperf => {
                let (_, one) = self.run_rep()?;
                let (_, two) = self.fleet(2, None)?;
                self.check(two == one, || {
                    "--jobs 2 output differs from --jobs 1".into()
                });
                one
            }
            _ => self.run_rep()?.1,
        };
        if let Some(pinned) = self.pinned {
            let digest = output.digest;
            self.check(digest == pinned, || {
                format!("output digest {digest:#018x} differs from the pinned {pinned:#018x}")
            });
        }
        match &self.reference {
            None => self.reference = Some(output),
            Some(reference) => {
                let same = *reference == output;
                self.check(same, || "setups disagree on the output".into());
            }
        }
        Ok(())
    }

    /// One timed rep; its output must equal the reference byte for
    /// byte (a mismatch lands in [`Bench::failures`]).
    ///
    /// # Errors
    ///
    /// I/O or CLI failures, or a rep before any setup.
    pub fn rep(&mut self) -> Result<Duration, String> {
        let (elapsed, output) = self.run_rep()?;
        let reference = self.reference.as_ref().ok_or("rep before setup")?.digest;
        let digest = output.digest;
        self.check(digest == reference, || {
            format!("rep digest {digest:#018x} differs from the reference {reference:#018x}")
        });
        Ok(elapsed)
    }

    /// The reference output's deterministic user-facing numbers.
    pub fn quality(&self) -> Option<Quality> {
        let text = &self.reference.as_ref()?.text;
        if self.workload == Workload::OverloadCritical {
            let (mut missed, mut total, mut p99) = (0.0, 0.0, 0.0f64);
            for line in text.lines() {
                for field in line.split(' ') {
                    match field.split_once('=')? {
                        ("missed", v) => missed += v.parse::<f64>().ok()?,
                        ("total", v) => total += v.parse::<f64>().ok()?,
                        ("e2e_p99_ms", v) => p99 = p99.max(v.parse().ok()?),
                        _ => {}
                    }
                }
            }
            return Some(Quality {
                tracking_rmse: None,
                miss_ratio: missed / total,
                e2e_p99_ms: p99,
            });
        }
        let line = text
            .lines()
            .rfind(|l| l.starts_with("{\"type\":\"aggregate\""))?;
        let value: serde_json::Value = serde_json::from_str(line).ok()?;
        let aggregate = &value["aggregate"];
        Some(Quality {
            tracking_rmse: aggregate["tracking_rmse"].as_f64(),
            miss_ratio: aggregate["mean_miss_ratio"].as_f64()?,
            e2e_p99_ms: aggregate["e2e_p99_ms"].as_f64()?,
        })
    }
}
