//! `hcperf-benchmark`: end-to-end and per-layer performance of the HCPerf
//! reproduction, with output checks.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! Without `--workload` all five workloads run, their reps interleaved
//! round-robin so host phases hit every workload alike. Each workload is
//! set up [`SETUPS`] times (the median is `setup_s`), then timed reps run
//! for `--seconds` per workload; `sim_s_per_s` comes from the fastest rep.
//! `--trace 1` instead runs trace passes for `--seconds` and reports the
//! per-layer metrics of the fastest pass. Every metric is printed by name
//! with its unit; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed output check exits 1.
//!
//! `--peak-rss-probe DIR` (with one `--workload`) is the internal mode
//! `peak_rss_mib` uses: run one rep in `DIR`, print this process's peak
//! RSS in KiB, exit.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use workload::{peak_rss_kib, Bench, Workload, DEFAULT_SEED};

/// Set-ups per workload; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fresh processes per workload whose one-rep peak RSS `peak_rss_mib`
/// takes the median of.
const RSS_PROBES: usize = 3;

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// Every end-to-end metric, with its unit.
const END_TO_END: [(&str, &str); 3] = [
    ("sim_s_per_s", "sim-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    peak_rss_probe: Option<PathBuf>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|_| format!("--seed expects an integer, got {text:?}"))
}

fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        peak_rss_probe: None,
    };
    let mut args = args.into_iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                options.workloads = vec![workload];
            }
            "--seed" => options.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let text = value()?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got {text:?}"))?;
            }
            "--trace" => {
                options.trace = match args.peek().map(String::as_str) {
                    Some("0") | Some("1") => args.next().as_deref() == Some("1"),
                    _ => true,
                };
            }
            "--peak-rss-probe" => options.peak_rss_probe = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// One reported metric; `None` where the host cannot measure it.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
}

#[derive(Debug, Default)]
struct Report {
    rows: Vec<(Workload, Vec<Metric>)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Counts one attempt, failed when `bench` gained a failure since
    /// `failures_before`.
    fn attempt(&mut self, bench: &Bench, failures_before: usize) {
        self.attempted += 1;
        if bench.failures.len() > failures_before {
            self.failed += 1;
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Peak RSS in MiB of one rep of `bench`'s workload in a fresh process:
/// this binary re-run with `--peak-rss-probe`, so the heap this process
/// kept from set-up and earlier reps does not count. Median of
/// [`RSS_PROBES`] probes; `None` where `/proc/self` reports no peak.
fn probe_peak_rss(bench: &Bench) -> Result<Option<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args(["--workload", bench.workload.name(), "--seed"])
            .arg(bench.seed.to_string())
            .arg("--peak-rss-probe")
            .arg(bench.dir())
            .output()
            .map_err(|e| format!("peak-RSS probe: {e}"))?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            return Err(format!("peak-RSS probe failed: {stderr}"));
        }
        match String::from_utf8_lossy(&out.stdout).trim().parse::<f64>() {
            Ok(kib) => peaks.push(kib / 1024.0),
            Err(_) => return Ok(None),
        }
    }
    Ok(Some(median(&mut peaks)))
}

/// The `--peak-rss-probe` mode: one rep in `dir`, then this process's
/// peak RSS in KiB (or `null`) on stdout.
fn peak_rss_probe(options: &Options, dir: &Path) -> Result<(), String> {
    let [workload] = options.workloads[..] else {
        return Err("--peak-rss-probe needs one --workload".into());
    };
    Bench::new(workload, 1.0, options.seed, dir)?.run_rep()?;
    println!("{}", json_number(peak_rss_kib().map(|kib| kib as f64)));
    Ok(())
}

/// Sets every workload up, then runs timed reps round-robin until each
/// workload has had `seconds` of measuring on average, then probes each
/// workload's peak RSS.
///
/// `sim_s_per_s` comes from the fastest rep: on a shared host, medians of
/// identical runs drift with the neighbours' load far more than the
/// fastest rep does.
fn measure(benches: &mut [Bench], seconds: f64, report: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    for bench in benches.iter_mut() {
        let mut times = Vec::new();
        for _ in 0..SETUPS {
            let before = bench.failures.len();
            let start = Instant::now();
            bench.setup()?;
            times.push(start.elapsed().as_secs_f64());
            report.attempt(bench, before);
        }
        setup_s.push(median(&mut times));
    }
    let mut reps: Vec<Vec<Duration>> = vec![Vec::new(); benches.len()];
    let budget = Duration::from_secs_f64(seconds * benches.len() as f64);
    let start = Instant::now();
    while start.elapsed() < budget {
        for (i, bench) in benches.iter_mut().enumerate() {
            let before = bench.failures.len();
            reps[i].push(bench.rep()?);
            report.attempt(bench, before);
        }
    }
    for (i, bench) in benches.iter().enumerate() {
        let sim_s = bench.shape.sim_seconds();
        let mut rates: Vec<f64> = reps[i].iter().map(|d| sim_s / d.as_secs_f64()).collect();
        let mid = median(&mut rates);
        let best = rates.last().copied().unwrap_or(0.0);
        let name = bench.workload.name();
        println!(
            "{name}: {} reps of {sim_s} sim-s; sim-s/s best {best:.1}, median {mid:.1}, 10th percentile {:.1}",
            rates.len(),
            rates[rates.len() / 10],
        );
        if let Some(q) = bench.quality() {
            let rmse = q.tracking_rmse.map_or("-".into(), |v| v.to_string());
            println!(
                "{name}: output digest {:#018x}; tracking RMSE {rmse}, miss ratio {}, e2e p99 {} ms",
                bench.reference().map_or(0, |r| r.digest),
                q.miss_ratio,
                q.e2e_p99_ms,
            );
        }
        let values = [Some(best), Some(setup_s[i]), probe_peak_rss(bench)?];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect();
        report.rows.push((bench.workload, metrics));
    }
    Ok(())
}

/// Sets every workload up once, then runs trace passes round-robin for
/// `seconds` per workload and reports the per-layer metrics of each
/// workload's fastest pass (one pass, so its layers still sum to its wall
/// time).
fn trace_all(benches: &mut [Bench], seconds: f64, report: &mut Report) -> Result<(), String> {
    for bench in benches.iter_mut() {
        let before = bench.failures.len();
        bench.setup()?;
        report.attempt(bench, before);
    }
    let mut fastest: Vec<(u64, BTreeMap<&str, f64>)> =
        vec![(u64::MAX, BTreeMap::new()); benches.len()];
    let budget = Duration::from_secs_f64(seconds * benches.len() as f64);
    let start = Instant::now();
    while start.elapsed() < budget {
        for (i, bench) in benches.iter_mut().enumerate() {
            let before = bench.failures.len();
            let pass = trace::pass(bench)?;
            if pass.0 < fastest[i].0 {
                fastest[i] = pass;
            }
            report.attempt(bench, before);
        }
    }
    for (i, bench) in benches.iter().enumerate() {
        let metrics = trace::PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: fastest[i].1.get(name).copied(),
            })
            .collect();
        report.rows.push((bench.workload, metrics));
    }
    Ok(())
}

/// Renders a metric value as JSON: the full `f64` digits, or `null`.
fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

fn print_report(report: &Report) {
    let single = report.rows.len() == 1;
    let mut entries = Vec::new();
    for (workload, metrics) in &report.rows {
        for m in metrics {
            let value = json_number(m.value);
            println!("{} {} = {value} {}", workload.name(), m.name, m.unit);
            let key = if single {
                m.name.to_owned()
            } else {
                format!("{}/{}", workload.name(), m.name)
            };
            entries.push(format!(
                "\"{key}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        entries.join(",")
    );
}

fn run(options: &Options, dir: &std::path::Path) -> Result<Report, String> {
    let mut benches = options
        .workloads
        .iter()
        .map(|&w| Bench::new(w, 1.0, options.seed, &dir.join(w.name())))
        .collect::<Result<Vec<_>, _>>()?;
    let mut report = Report::default();
    if options.trace {
        trace_all(&mut benches, options.seconds, &mut report)?;
    } else {
        measure(&mut benches, options.seconds, &mut report)?;
    }
    Ok(report)
}

fn main() {
    let options = match parse_options(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &options.peak_rss_probe {
        if let Err(e) = peak_rss_probe(&options, dir) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    // Scratch files stay inside the working directory and are removed on
    // exit, success or not.
    let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
    let result = run(&options, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(report) => {
            print_report(&report);
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Runs `workload` at 1/50 of its measured size through setup (with
    /// its one-off checks), two timed reps and one trace pass; every check
    /// must pass and the pass must report exactly [`trace::PER_LAYER`].
    fn passes_its_checks_at_one_fiftieth(workload: Workload) {
        let dir = PathBuf::from(".bench_work").join(format!(
            "test-{}-{}",
            std::process::id(),
            workload.name()
        ));
        let mut bench = Bench::new(workload, 1.0 / 50.0, DEFAULT_SEED, &dir).unwrap();
        bench.setup().unwrap();
        for _ in 0..2 {
            assert!(bench.rep().unwrap() > Duration::ZERO);
        }
        let (_, metrics) = trace::pass(&mut bench).unwrap();
        let reported: BTreeSet<&str> = metrics.keys().copied().collect();
        let declared: BTreeSet<&str> = trace::PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(reported, declared);
        assert!(metrics.values().all(|v| v.is_finite() && *v >= 0.0));
        std::fs::remove_dir_all(&dir).ok();
        // Fails while another test still has its directory there.
        std::fs::remove_dir(".bench_work").ok();
        assert!(bench.failures.is_empty(), "{:?}", bench.failures);
    }

    #[test]
    fn fleet_cf_hcperf_passes_its_checks() {
        passes_its_checks_at_one_fiftieth(Workload::FleetCfHcperf);
    }

    #[test]
    fn fleet_cf_edf_passes_its_checks() {
        passes_its_checks_at_one_fiftieth(Workload::FleetCfEdf);
    }

    #[test]
    fn overload_critical_passes_its_checks() {
        passes_its_checks_at_one_fiftieth(Workload::OverloadCritical);
    }

    #[test]
    fn fleet_short_store_passes_its_checks() {
        passes_its_checks_at_one_fiftieth(Workload::FleetShortStore);
    }

    #[test]
    fn fleet_store_warm_passes_its_checks() {
        passes_its_checks_at_one_fiftieth(Workload::FleetStoreWarm);
    }

    /// The workloads and metrics the binary knows are exactly the ones
    /// `BENCHMARK.json` declares, with the same units, and every name is
    /// made of `[A-Za-z0-9_.-]`.
    #[test]
    fn names_match_benchmark_json() {
        let declared: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        // (name, unit) of each entry; workloads have no unit.
        let listed = |key: &str| -> BTreeSet<(String, String)> {
            let entries = declared[key].as_array().unwrap();
            entries
                .iter()
                .map(|e| {
                    let field = |f: &str| e[f].as_str().unwrap_or_default().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let known = |items: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            items
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), known(&END_TO_END));
        assert_eq!(listed("per_layer"), known(&trace::PER_LAYER));
        let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), "")).collect();
        assert_eq!(listed("workloads"), known(&workloads));
        for (name, _) in END_TO_END.iter().chain(&trace::PER_LAYER) {
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
        }
    }

    #[test]
    fn parses_the_driver_command_line() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_options(argv(
            "--workload overload-critical --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec![Workload::OverloadCritical]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let o = parse_options(argv("--trace 0 --seed 0xF1EE7")).unwrap();
        assert_eq!(o.workloads.len(), 5);
        assert_eq!((o.seed, o.trace), (DEFAULT_SEED, false));
        assert!(parse_options(argv("--trace")).unwrap().trace);
        assert!(parse_options(argv("--workload nope")).is_err());
        assert!(parse_options(argv("--seconds 0")).is_err());
    }
}
