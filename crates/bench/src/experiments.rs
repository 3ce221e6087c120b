//! One function per paper table/figure, shared by the experiment binaries.
//!
//! Each function runs the corresponding scenario(s) and returns a markdown
//! report comparing measured values against the paper's (where the paper
//! reports numbers). Time-series CSVs are written to
//! `target/experiments/` for plotting.
//!
//! Figures whose cells are independent simulations (`fig04`, `fig13`,
//! `fig14`, `fig15`, `fig18`) take a `jobs` argument and fan their
//! cells out through [`hcperf_scenarios::runner::run_cells`]; `jobs = 0`
//! uses the host's available parallelism. Reports and CSVs are
//! bit-identical for any worker count: every cell pins its seed and
//! results are collected in submission order before anything is written.
//!
//! The same figures also take an optional [`hcperf_store::Store`]:
//! cells finished by an earlier run are then served from disk instead
//! of re-simulated. Cache activity is reported on stderr so the stdout
//! report stays byte-identical with and without a store.

use std::fmt::Write as _;
use std::path::PathBuf;

use hcperf::Scheme;
use hcperf_harness::Job;
use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig};
use hcperf_scenarios::lane_keeping::{run_lane_keeping, LaneKeepingConfig};
use hcperf_scenarios::motivation::{run_motivation, MotivationConfig};
use hcperf_scenarios::report::{improvement_over_best_baseline, pairs_to_csv, series_to_csv};
use hcperf_scenarios::runner::run_cells;
use hcperf_scenarios::traffic_jam::{analyze_responsiveness, traffic_jam_config};
use hcperf_scenarios::ScenarioError;
use hcperf_store::{fingerprint, CellCache, Store};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{ExecContext, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fig05;
use crate::paper;

/// Directory where experiment CSVs are dumped.
#[must_use]
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn dump(name: &str, content: &str) {
    let path = output_dir().join(name);
    if std::fs::write(&path, content).is_ok() {
        println!("wrote {}", path.display());
    }
}

/// Code-version tag baked into every figure fingerprint. Bump it
/// whenever a figure's simulation changes results — stale cells from
/// the old code then miss instead of contaminating the new run.
pub const FIG_CODE_VERSION: &str = "figs-v1";

/// Runs a figure's cells through [`run_cells`], optionally behind a
/// [`Store`]: cells already `done` under this figure's fingerprint are
/// replayed from disk bit-identically; fresh results are appended for
/// the next run. Panicked cells are recorded as `failed` and retried on
/// resume. Cache activity goes to stderr, so the stdout report is
/// byte-identical whether cells were simulated or replayed.
fn fan_out_cached<I, O>(
    figure: &str,
    cells: &[Job<I>],
    workers: usize,
    store: Option<&mut Store>,
    run: impl Fn(&I) -> Result<O, ScenarioError> + Sync,
) -> Result<Vec<O>, ScenarioError>
where
    I: Sync,
    O: Send + serde::Serialize + serde::Deserialize,
{
    let Some(store) = store else {
        return run_cells(cells, workers, None, run);
    };
    // Only Ok payloads are cached; a cell whose scenario errored is
    // recorded as `failed` (by the cache's `put`) and retried next run.
    let mut cache = CellCache::new(
        store,
        fingerprint(&[figure, FIG_CODE_VERSION]),
        |o: &Result<O, ScenarioError>| serde_json::to_string(o.as_ref().ok()?).ok(),
        |payload: &str| Some(Ok(serde_json::from_str::<O>(payload).ok()?)),
    );
    let outputs = run_cells(cells, workers, Some(&mut cache), run);
    let summary = cache
        .finish()
        .map_err(|e| ScenarioError::Job(format!("store: {e}")))?;
    let outputs = outputs?;
    let (hits, total) = (summary.hits, summary.hits + summary.misses);
    eprintln!("{figure}: store served {hits} of {total} cells");
    Ok(outputs)
}

/// Fig. 4 — the § II motivation study under fixed-priority scheduling, and
/// the same scenario under HCPerf for contrast. The two scheme cells run
/// through the harness pool (`jobs = 0` = host parallelism).
///
/// # Errors
///
/// Propagates [`ScenarioError`] from the scenario runs.
pub fn fig04_motivation(jobs: usize, store: Option<&mut Store>) -> Result<String, ScenarioError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 4 — motivation: fixed priority under a red-light scene\n"
    );
    let schemes = [Scheme::Apollo, Scheme::HcPerf];
    let cells: Vec<Job<Scheme>> = schemes
        .iter()
        .map(|&scheme| Job::new(format!("fig04/scheme={scheme}"), scheme))
        .collect();
    let runs = fan_out_cached("fig04", &cells, jobs, store, |&scheme| {
        run_motivation(&MotivationConfig {
            scheme,
            ..Default::default()
        })
    })?;
    for (scheme, r) in schemes.into_iter().zip(runs) {
        let _ = writeln!(
            out,
            "**{scheme}**: miss ratio before braking event {:.1}%, after {:.1}%; collision: {}",
            r.miss_ratio_before_event * 100.0,
            r.miss_ratio_after_event * 100.0,
            r.collision_time.map_or("none".to_string(), |t| format!(
                "t = {t:.1} s (paper: t ≈ {:.1} s)",
                paper::MOTIVATION_COLLISION_TIME_S
            )),
        );
        let _ = writeln!(out, "\nPer-second deadline-miss ratio (Fig. 4a):");
        let _ = writeln!(out, "```");
        for (t, m) in r.miss_ratio_per_sec.iter() {
            let bar = "#".repeat((m * 40.0).round() as usize);
            let _ = writeln!(out, "{t:5.0}s {:5.1}% {bar}", m * 100.0);
        }
        let _ = writeln!(out, "```");
        dump(
            &format!("fig04_{scheme}_miss_ratio.csv"),
            &pairs_to_csv("miss_ratio", &r.miss_ratio_per_sec),
        );
        dump(
            &format!("fig04_{scheme}_speed_diff.csv"),
            &series_to_csv(&[&r.speed_difference, &r.gap]),
        );
    }
    Ok(out)
}

/// Fig. 5 — adaptive vs preferred schedule on the nine-job toy example.
#[must_use]
pub fn fig05_schedules() -> String {
    let adaptive = fig05::adaptive_schedule();
    let preferred = fig05::preferred_schedule();
    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 5 — adaptive vs preferred schedule\n");
    let _ = writeln!(
        out,
        "Adaptive  (deadline order): {}",
        fig05::render(&adaptive)
    );
    let _ = writeln!(
        out,
        "Preferred (cycle order)   : {}",
        fig05::render(&preferred)
    );
    let _ = writeln!(
        out,
        "\nBoth schedules meet every deadline; the preferred one emits the first\n\
         control command {:.0} s earlier (t = {:.0} s vs t = {:.0} s), matching the paper.",
        adaptive.commands[0].1 - preferred.commands[0].1,
        preferred.commands[0].1,
        adaptive.commands[0].1,
    );
    out
}

/// Fig. 12 — execution-time samples of four representative tasks across
/// obstacle loads.
///
/// # Errors
///
/// Propagates graph construction failures.
pub fn fig12_exec_times() -> Result<String, hcperf_taskgraph::GraphError> {
    let graph = apollo_graph(&GraphOptions::default())?;
    let tasks = [
        "sensor_fusion",
        "object_detection_3d",
        "motion_planning",
        "gps_imu",
    ];
    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 12 — execution-time distributions\n");
    let _ = writeln!(out, "| Task | load | min (ms) | mean (ms) | max (ms) |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    let mut csv = String::from("task,load,sample_ms\n");
    let mut rng = StdRng::seed_from_u64(7);
    for name in tasks {
        let id = graph.find(name).expect("task exists");
        for load in [0.0, 5.0, 10.0] {
            let ctx = ExecContext::new(SimTime::ZERO, load);
            let samples: Vec<f64> = (0..200)
                .map(|_| {
                    graph
                        .spec(id)
                        .exec_model()
                        .sample(ctx, &mut rng)
                        .as_millis()
                })
                .collect();
            let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = samples.iter().cloned().fold(0.0, f64::max);
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let _ = writeln!(
                out,
                "| {name} | {load:.0} | {min:.2} | {mean:.2} | {max:.2} |"
            );
            for s in &samples {
                let _ = writeln!(csv, "{name},{load},{s:.4}");
            }
        }
    }
    dump("fig12_exec_times.csv", &csv);
    let _ = writeln!(
        out,
        "\nThe configurable sensor fusion grows cubically with the obstacle count\n\
         (Hungarian matching, § II); the other tasks stay load-independent."
    );
    Ok(out)
}

/// Fig. 13 + Tables II/III — simulation car following across all schemes.
/// The five scheme cells run through the harness pool (`jobs = 0` = host
/// parallelism).
///
/// # Errors
///
/// Propagates [`ScenarioError`].
pub fn fig13_car_following(
    jobs: usize,
    store: Option<&mut Store>,
) -> Result<String, ScenarioError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 13 + Tables II/III — simulation car following\n"
    );
    let mut speed_rows = Vec::new();
    let mut dist_rows = Vec::new();
    let cells: Vec<Job<Scheme>> = Scheme::all()
        .into_iter()
        .map(|scheme| Job::new(format!("fig13/scheme={scheme}"), scheme))
        .collect();
    let runs = fan_out_cached("fig13", &cells, jobs, store, |&scheme| {
        run_car_following(&CarFollowingConfig::paper_simulation(scheme))
    })?;
    for (scheme, r) in Scheme::all().into_iter().zip(runs) {
        speed_rows.push((scheme.to_string(), r.rms_speed_error));
        dist_rows.push((scheme.to_string(), r.rms_distance_error));
        let _ = writeln!(
            out,
            "* **{scheme}**: {} commands, overall miss {:.1}%, final miss {:.1}%, \
             mean response {:.1} ms (p99 {:.1} ms), mean e2e {:.0} ms (p99 {:.0} ms)",
            r.commands,
            r.overall_miss_ratio * 100.0,
            r.final_miss_ratio * 100.0,
            r.mean_response_time_ms,
            r.response_p99_ms,
            r.mean_e2e_ms,
            r.e2e_p99_ms,
        );
        dump(
            &format!("fig13_{scheme}_series.csv"),
            &series_to_csv(&[
                &r.lead_speed,
                &r.follow_speed,
                &r.speed_error,
                &r.distance_error,
                &r.miss_ratio,
                &r.gamma,
                &r.mean_source_rate,
            ]),
        );
        dump(
            &format!("fig13_{scheme}_miss_per_sec.csv"),
            &pairs_to_csv("miss_ratio", &r.miss_ratio.bucket_mean(1.0)),
        );
    }
    let _ = writeln!(out);
    out.push_str(&paper::comparison_table(
        "Table II — RMS speed tracking error",
        "m/s",
        &paper::TABLE_II_SPEED_RMS,
        &speed_rows,
    ));
    if let Some(imp) = improvement_over_best_baseline(&speed_rows) {
        let _ = writeln!(out, "Measured HCPerf vs best baseline: {imp:+.1}%\n");
    }
    out.push_str(&paper::comparison_table(
        "Table III — RMS distance tracking error",
        "m",
        &paper::TABLE_III_DISTANCE_RMS,
        &dist_rows,
    ));
    if let Some(imp) = improvement_over_best_baseline(&dist_rows) {
        let _ = writeln!(out, "Measured HCPerf vs best baseline: {imp:+.1}%\n");
    }
    Ok(out)
}

/// Fig. 14 + Table IV — lane keeping on the oval loop. The five scheme
/// cells run through the harness pool (`jobs = 0` = host parallelism).
///
/// # Errors
///
/// Propagates [`ScenarioError`].
pub fn fig14_lane_keeping(jobs: usize, store: Option<&mut Store>) -> Result<String, ScenarioError> {
    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 14 + Table IV — lane keeping\n");
    let mut rows = Vec::new();
    let cells: Vec<Job<Scheme>> = Scheme::all()
        .into_iter()
        .map(|scheme| Job::new(format!("fig14/scheme={scheme}"), scheme))
        .collect();
    let runs = fan_out_cached("fig14", &cells, jobs, store, |&scheme| {
        run_lane_keeping(&LaneKeepingConfig::paper_loop(scheme))
    })?;
    for (scheme, r) in Scheme::all().into_iter().zip(runs) {
        rows.push((scheme.to_string(), r.rms_lateral_offset));
        let _ = writeln!(
            out,
            "* **{scheme}**: {} commands, max |offset| {:.3} m, overall miss {:.1}%",
            r.commands,
            r.max_lateral_offset,
            r.overall_miss_ratio * 100.0,
        );
        dump(
            &format!("fig14_{scheme}_offsets.csv"),
            &series_to_csv(&[&r.lateral_offset, &r.arc_position, &r.miss_ratio]),
        );
    }
    let _ = writeln!(out);
    out.push_str(&paper::comparison_table(
        "Table IV — RMS lateral offset",
        "m",
        &paper::TABLE_IV_LATERAL_RMS,
        &rows,
    ));
    if let Some(imp) = improvement_over_best_baseline(&rows) {
        let _ = writeln!(out, "Measured HCPerf vs best baseline: {imp:+.1}%\n");
    }
    Ok(out)
}

/// Fig. 15 + Tables V/VI — hardware-testbed car following (averaged over
/// three seeds, since the scaled cars are noisy). All fifteen
/// `(scheme, seed)` cells run through the harness pool (`jobs = 0` =
/// host parallelism); the largest fan-out in the figure pipeline.
///
/// # Errors
///
/// Propagates [`ScenarioError`].
pub fn fig15_hardware(jobs: usize, store: Option<&mut Store>) -> Result<String, ScenarioError> {
    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 15 + Tables V/VI — hardware car following\n");
    let mut speed_rows = Vec::new();
    let mut dist_rows = Vec::new();
    let seeds = [42u64, 7, 1234];
    let cells: Vec<Job<(Scheme, u64)>> = Scheme::all()
        .into_iter()
        .flat_map(|scheme| seeds.iter().map(move |&seed| (scheme, seed)))
        .map(|(scheme, seed)| {
            Job::with_seed(
                format!("fig15/scheme={scheme}/seed={seed}"),
                (scheme, seed),
                seed,
            )
        })
        .collect();
    let runs = fan_out_cached("fig15", &cells, jobs, store, |&(scheme, seed)| {
        let mut config = CarFollowingConfig::hardware(scheme);
        config.seed = seed;
        run_car_following(&config)
    })?;
    for (per_seed, scheme) in runs.chunks(seeds.len()).zip(Scheme::all()) {
        let mut v = 0.0;
        let mut d = 0.0;
        let mut miss = 0.0;
        for (i, r) in per_seed.iter().enumerate() {
            v += r.rms_speed_error;
            d += r.rms_distance_error;
            miss += r.final_miss_ratio;
            if i == 0 {
                dump(
                    &format!("fig15_{scheme}_series.csv"),
                    &series_to_csv(&[
                        &r.lead_speed,
                        &r.follow_speed,
                        &r.speed_error,
                        &r.distance_error,
                        &r.miss_ratio,
                    ]),
                );
            }
        }
        let n = seeds.len() as f64;
        speed_rows.push((scheme.to_string(), v / n));
        dist_rows.push((scheme.to_string(), d / n));
        let _ = writeln!(
            out,
            "* **{scheme}**: final miss ratio {:.1}% (mean of {} seeds)",
            miss / n * 100.0,
            seeds.len()
        );
    }
    let _ = writeln!(out);
    out.push_str(&paper::comparison_table(
        "Table V — RMS speed tracking error (hardware)",
        "m/s",
        &paper::TABLE_V_SPEED_RMS,
        &speed_rows,
    ));
    out.push_str(&paper::comparison_table(
        "Table VI — RMS distance tracking error (hardware)",
        "m",
        &paper::TABLE_VI_DISTANCE_RMS,
        &dist_rows,
    ));
    if let Some(imp) = improvement_over_best_baseline(&dist_rows) {
        let _ = writeln!(
            out,
            "Measured HCPerf distance error vs best baseline: {imp:+.1}%\n"
        );
    }
    Ok(out)
}

/// Mean of the per-second samples in `[from, to)`, `0.0` for an empty
/// window.
fn window_mean(samples: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = samples
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Fig. 16/17 — the § VII-C responsiveness/throughput trade under a traffic
/// jam.
///
/// # Errors
///
/// Propagates [`ScenarioError`].
pub fn fig17_responsiveness() -> Result<String, ScenarioError> {
    let config = traffic_jam_config(Scheme::HcPerf);
    let result = run_car_following(&config)?;
    let report = analyze_responsiveness(&result);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Fig. 16/17 — responsiveness vs throughput (traffic jam)\n"
    );
    let pre_err = report.tracking_error_m.rms_between(5.0, 10.0);
    let jam_max = report
        .tracking_error_m
        .iter()
        .filter(|(t, _)| (10.0..20.0).contains(t))
        .map(|(_, v)| v)
        .fold(0.0f64, f64::max);
    let post_err = report.tracking_error_m.rms_between(32.0, 40.0);
    let _ = writeln!(
        out,
        "Gap-deficit tracking error: {pre_err:.2} m RMS before the jam, peak {jam_max:.2} m \
         during onset, {post_err:.2} m RMS after recovery (paper: ~5 m spike mitigated to ~2 m)."
    );
    let resp = |from, to| window_mean(&report.response_ms_per_sec, from, to);
    let _ = writeln!(
        out,
        "Mean control response time: {:.1} ms pre-jam, {:.1} ms during the jam, {:.1} ms after \
         (the jam phase prioritizes the control task).",
        resp(2.0, 10.0),
        resp(10.0, 20.0),
        resp(30.0, 40.0),
    );
    let disc = |from, to| window_mean(&report.discomfort, from, to);
    let _ = writeln!(
        out,
        "Passenger discomfort (RMS jerk): {:.2} pre-jam, {:.2} during, {:.2} after — discomfort \
         rises while responsiveness is prioritized, then recovers (Fig. 17b).",
        disc(2.0, 10.0),
        disc(10.0, 20.0),
        disc(30.0, 40.0),
    );
    dump(
        "fig17_tracking_error.csv",
        &series_to_csv(&[&report.tracking_error_m]),
    );
    dump(
        "fig17_response_ms.csv",
        &pairs_to_csv("response_ms", &report.response_ms_per_sec),
    );
    dump(
        "fig17_discomfort.csv",
        &pairs_to_csv("rms_jerk", &report.discomfort),
    );
    dump(
        "fig17_commands_per_sec.csv",
        &pairs_to_csv("commands", &report.commands_per_sec),
    );
    Ok(out)
}

/// Fig. 18 — ablation: full HCPerf vs internal coordinator only. The two
/// ablation cells run through the harness pool (`jobs = 0` = host
/// parallelism).
///
/// # Errors
///
/// Propagates [`ScenarioError`].
pub fn fig18_ablation(jobs: usize, store: Option<&mut Store>) -> Result<String, ScenarioError> {
    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 18 — ablation: external coordinator\n");
    let mut rows = Vec::new();
    let variants = [("full HCPerf", true), ("internal only", false)];
    let cells: Vec<Job<bool>> = variants
        .iter()
        .map(|&(label, external)| Job::new(format!("fig18/{label}"), external))
        .collect();
    let runs = fan_out_cached("fig18", &cells, jobs, store, |&external| {
        let mut config = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
        config.coordinator.external_enabled = external;
        run_car_following(&config)
    })?;
    for ((label, external), r) in variants.into_iter().zip(runs) {
        let _ = writeln!(
            out,
            "* **{label}**: RMS speed error {:.3} m/s, RMS distance error {:.3} m, \
             overall miss {:.1}%, final miss {:.1}%",
            r.rms_speed_error,
            r.rms_distance_error,
            r.overall_miss_ratio * 100.0,
            r.final_miss_ratio * 100.0,
        );
        rows.push((label, r.rms_distance_error, r.final_miss_ratio));
        dump(
            &format!(
                "fig18_{}_series.csv",
                if external { "full" } else { "internal_only" }
            ),
            &series_to_csv(&[&r.speed_error, &r.distance_error, &r.miss_ratio]),
        );
    }
    let _ = writeln!(
        out,
        "\nThe paper reports the full version ends ~0.5 m better on distance error and\n\
         drives the miss ratio to ~0 while the internal-only version cannot (Fig. 18b).\n\
         Measured distance-error gap: {:.2} m; final miss ratios {:.1}% (full) vs {:.1}% \
         (internal only).",
        rows[1].1 - rows[0].1,
        rows[0].2 * 100.0,
        rows[1].2 * 100.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig05_report_mentions_both_schedules() {
        let r = fig05_schedules();
        assert!(r.contains("Adaptive"));
        assert!(r.contains("Preferred"));
        assert!(r.contains("4 s earlier"));
    }

    #[test]
    fn fan_out_cached_replays_cells_bit_identically() {
        #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Payload {
            x: u64,
            y: f64,
        }
        let pinned = Payload { x: 3, y: 1.0 / 7.0 };
        assert_eq!(
            serde_json::to_string(&pinned).unwrap(),
            r#"{"x":3,"y":0.14285714285714285}"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&pinned).unwrap(),
            "{\n  \"x\": 3,\n  \"y\": 0.14285714285714285\n}"
        );
        let run = |&i: &u64| -> Result<Payload, ScenarioError> {
            Ok(Payload {
                x: i * 3,
                y: i as f64 / 7.0,
            })
        };
        let cells: Vec<Job<u64>> = (0..4)
            .map(|i| Job::with_seed(format!("test/cell={i}"), i, i))
            .collect();
        let path =
            std::env::temp_dir().join(format!("hcperf_bench_fanout_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let uncached = fan_out_cached("test", &cells, 2, None, run).unwrap();

        let mut store = Store::open(&path).unwrap();
        let cold = fan_out_cached("test", &cells, 2, Some(&mut store), run).unwrap();
        let s = store.status().last_run.unwrap();
        assert_eq!((s.hits, s.misses), (0, 4));
        assert_eq!(cold, uncached);

        // Reopen (exercises replay) and run warm: everything is a hit
        // and the payloads are bit-identical.
        drop(store);
        let mut store = Store::open(&path).unwrap();
        let warm = fan_out_cached("test", &cells, 2, Some(&mut store), run).unwrap();
        let s = store.status().last_run.unwrap();
        assert_eq!((s.hits, s.misses), (4, 0));
        assert_eq!(warm, uncached);
        // A different figure tag is a different fingerprint — no hits.
        fan_out_cached("other", &cells, 2, Some(&mut store), run).unwrap();
        assert_eq!(store.status().last_run.unwrap().hits, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fig12_report_has_four_tasks() {
        let r = fig12_exec_times().unwrap();
        for t in [
            "sensor_fusion",
            "object_detection_3d",
            "motion_planning",
            "gps_imu",
        ] {
            assert!(r.contains(t));
        }
    }
}
