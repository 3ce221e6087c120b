//! Benchmark harness regenerating every table and figure of the HCPerf
//! paper's evaluation (§ II motivation and § VII).
//!
//! One binary per experiment:
//!
//! | Binary | Paper result |
//! |---|---|
//! | `fig04_motivation` | Fig. 4 — fixed priority vs red-light scene |
//! | `fig05_schedules` | Fig. 5 — adaptive vs preferred toy schedule |
//! | `fig12_exec_times` | Fig. 12 — execution-time distributions |
//! | `fig13_car_following` | Fig. 13 + Tables II/III |
//! | `fig14_lane_keeping` | Fig. 14 + Table IV |
//! | `fig15_hardware` | Fig. 15 + Tables V/VI |
//! | `fig17_responsiveness` | Fig. 16/17 — responsiveness vs throughput |
//! | `fig18_ablation` | Fig. 18 — external-coordinator ablation |
//! | `all_experiments` | everything above, in order |
//! | `ablation_dps` | Dynamic Priority Scheduler design ablation (DESIGN.md § 5) |
//!
//! Criterion benches (`cargo bench -p hcperf-bench`) cover the § VII-E
//! overhead analysis plus the γ-search, scheduler-decision, ADE-window and
//! engine-throughput micro-benchmarks. End-to-end throughput of the fleet
//! service and the result store is measured by `benchmark/`.
//!
//! Time-series CSVs land in `target/experiments/`.

pub mod experiments;
pub mod fig05;
pub mod paper;

/// Worker-pool size and store path of an experiment binary, parsed from
/// `argv` (program name excluded) and the values of the `HCPERF_JOBS`
/// and `HCPERF_STORE` environment variables.
///
/// `--jobs N` wins over `HCPERF_JOBS`; neither means `0` (the host's
/// available parallelism). Results are bit-identical for any value;
/// only wall-clock time changes. `--store PATH` (alias `--resume PATH`)
/// wins over `HCPERF_STORE`; neither means no store. The last
/// occurrence of a flag wins; other arguments are ignored.
///
/// # Errors
///
/// Returns a message for a `--jobs` or `HCPERF_JOBS` value that is not
/// a non-negative integer, and for a `--jobs`, `--store` or `--resume`
/// flag with no value.
fn parse_cli<S: AsRef<str>>(
    argv: &[S],
    env_jobs: Option<String>,
    env_store: Option<String>,
) -> Result<(usize, Option<String>), String> {
    let (mut jobs, mut store) = (None, None);
    let mut argv = argv.iter().map(AsRef::as_ref);
    while let Some(arg) = argv.next() {
        let slot = match arg {
            "--jobs" => &mut jobs,
            "--store" | "--resume" => &mut store,
            _ => continue,
        };
        match argv.next() {
            Some(value) if !value.starts_with("--") => *slot = Some(value.to_owned()),
            _ => return Err(format!("{arg} needs a value")),
        }
    }
    let jobs = match jobs.or(env_jobs) {
        None => 0,
        Some(n) => n
            .parse()
            .map_err(|_| format!("--jobs/HCPERF_JOBS must be a worker count, got {n:?}"))?,
    };
    Ok((jobs, store.or(env_store)))
}

/// `parse_cli` over this process's arguments and environment, with
/// the store opened. With a store, figure cells already computed by an
/// earlier (possibly interrupted) run are served from disk
/// bit-identically instead of re-simulated. A malformed argument or an
/// unreadable store prints an `error: …` line and exits with status 1.
#[must_use]
pub fn jobs_and_store_or_exit() -> (usize, Option<hcperf_store::Store>) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // hcperf-lint: allow(det-flow): worker count changes wall time only; results are bit-identical for any value
    let env_jobs = std::env::var("HCPERF_JOBS").ok();
    // hcperf-lint: allow(det-flow): store location selects where bytes land, never what they are
    let env_store = std::env::var("HCPERF_STORE").ok();
    let opened = parse_cli(&argv, env_jobs, env_store).and_then(|(jobs, path)| match path {
        None => Ok((jobs, None)),
        Some(p) => hcperf_store::Store::open(&p)
            .map(|store| (jobs, Some(store)))
            .map_err(|e| e.to_string()),
    });
    opened.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_cli;

    fn parse(argv: &[&str], env: &[(&str, &str)]) -> Result<(usize, Option<String>), String> {
        let var = |name: &str| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        };
        parse_cli(argv, var("HCPERF_JOBS"), var("HCPERF_STORE"))
    }

    #[test]
    fn defaults_to_host_parallelism_and_no_store() {
        assert_eq!(parse(&[], &[]), Ok((0, None)));
        assert_eq!(parse(&["--other", "x"], &[]), Ok((0, None)));
    }

    #[test]
    fn flags_win_over_the_environment() {
        let env = [("HCPERF_JOBS", "3"), ("HCPERF_STORE", "env.jsonl")];
        assert_eq!(parse(&[], &env), Ok((3, Some("env.jsonl".into()))));
        let argv = ["--jobs", "2", "--store", "s.jsonl"];
        assert_eq!(parse(&argv, &env), Ok((2, Some("s.jsonl".into()))));
        let argv = ["--resume", "r.jsonl"];
        assert_eq!(parse(&argv, &[]), Ok((0, Some("r.jsonl".into()))));
    }

    #[test]
    fn rejects_a_non_integer_jobs_flag() {
        let err = parse(&["--jobs", "abc"], &[]).unwrap_err();
        assert!(err.contains("\"abc\""), "{err}");
        assert!(parse(&["--jobs", "-1"], &[]).is_err());
    }

    #[test]
    fn rejects_a_non_integer_jobs_variable() {
        let err = parse(&[], &[("HCPERF_JOBS", "zz")]).unwrap_err();
        assert!(err.contains("\"zz\""), "{err}");
    }

    #[test]
    fn rejects_valueless_flags() {
        for flag in ["--store", "--resume", "--jobs"] {
            assert_eq!(parse(&[flag], &[]), Err(format!("{flag} needs a value")));
        }
        assert!(parse(&["--store", "--jobs", "2"], &[]).is_err());
    }
}
