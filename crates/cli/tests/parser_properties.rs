//! Property tests for the CLI argument parser.

use hcperf_cli::Args;
use proptest::prelude::*;

proptest! {
    #[test]
    fn any_key_value_pairs_parse_and_round_trip(
        command in "[a-z]{1,12}",
        pairs in proptest::collection::vec(("[a-z]{1,10}", "[a-zA-Z0-9._-]{1,12}"), 0..8),
    ) {
        let mut argv = vec![command.clone()];
        for (k, v) in &pairs {
            argv.push(format!("--{k}"));
            argv.push(v.clone());
        }
        let args = Args::parse(argv).unwrap();
        prop_assert_eq!(args.command(), command.as_str());
        // Later duplicates win; every final value is retrievable.
        for (k, _) in &pairs {
            let stored = args.get(k).unwrap();
            let last = pairs.iter().rev().find(|(kk, _)| kk == k).unwrap();
            prop_assert_eq!(stored, last.1.as_str());
        }
    }

    #[test]
    fn numeric_getters_accept_what_rust_parses(
        value in -1e6f64..1e6,
    ) {
        let args = Args::parse(["run".to_string(), "--x".into(), value.to_string()]).unwrap();
        let parsed = args.get_f64("x", 0.0).unwrap();
        prop_assert!((parsed - value).abs() < 1e-9 * (1.0 + value.abs()));
    }

    #[test]
    fn dangling_option_is_always_an_error(
        command in "[a-z]{1,8}",
        key in "[a-z]{1,8}",
    ) {
        let err = Args::parse([command, format!("--{key}")]).unwrap_err();
        prop_assert!(err.0.contains("needs a value"));
    }

    #[test]
    fn non_option_tokens_are_rejected(
        command in "[a-z]{1,8}",
        stray in "[a-z][a-z0-9]{0,8}",
    ) {
        let err = Args::parse([command, stray]).unwrap_err();
        prop_assert!(err.0.contains("--key"));
    }
}

/// Malformed option values: non-finite and overflowing floats, negative
/// and zero counts, the empty string and a non-number.
const MALFORMED: [&str; 7] = ["nan", "-inf", "1e999", "-1", "0", "", "abc"];

/// Options that size the work (or, for `--out`, keep records off stdout):
/// never dropped, so a case never falls back to a long default horizon,
/// a large fleet or more than two workers.
const PINNED: [&str; 7] = ["duration", "vehicles", "jobs", "from", "to", "step", "out"];

/// Options whose value is a path: a malformed token becomes a file name
/// inside the scratch directory, so no case writes outside it.
const PATHS: [&str; 3] = ["out", "store", "path"];

/// The `help` examples with small values, one per command form.
fn examples(dir: &str) -> Vec<Vec<(&'static str, String)>> {
    let o = |k: &'static str, v: &str| (k, v.to_owned());
    vec![
        vec![
            o("", "run"),
            o("scenario", "car-following"),
            o("scheme", "hcperf"),
            o("duration", "0.05"),
            o("seed", "42"),
        ],
        vec![
            o("", "run"),
            o("scenario", "lane-keeping"),
            o("scheme", "edf"),
            o("duration", "0.05"),
            o("seed", "7"),
        ],
        vec![
            o("", "sweep"),
            o("scheme", "edf"),
            o("from", "20"),
            o("to", "30"),
            o("step", "10"),
            o("duration", "0.05"),
            o("seed", "42"),
            o("jobs", "1"),
            o("store", &format!("{dir}/sweep.store")),
        ],
        vec![o("", "analyze"), o("rate", "20"), o("processors", "4")],
        vec![o("", "motivation"), o("scheme", "apollo")],
        vec![
            o("", "graph"),
            o("which", "motivation"),
            o("format", "json"),
        ],
        vec![
            o("", "fleet"),
            o("preset", "car-following"),
            o("scheme", "hcperf"),
            o("vehicles", "2"),
            o("duration", "0.05"),
            o("seed", "990951"),
            o("jobs", "1"),
            o("queue", "4"),
            o("aggregate-every", "1"),
            o("timing", "false"),
            o("out", &format!("{dir}/fleet.jsonl")),
            o("store", &format!("{dir}/fleet.store")),
            o("faults", "chaos"),
            o("retries", "1"),
        ],
        vec![
            o("", "fleet"),
            o("preset", "lane-keeping"),
            o("vehicles", "2"),
            o("duration", "0.05"),
            o("jobs", "2"),
            o("out", &format!("{dir}/lane.jsonl")),
        ],
        vec![
            o("", "faults"),
            o("plan", "chaos"),
            o("vehicle", "1"),
            o("seed", "990951"),
        ],
        vec![
            o("", "faults"),
            o("compare", "true"),
            o("duration", "0.05"),
            o("seed", "42"),
        ],
        vec![
            o("", "store"),
            o("path", &format!("{dir}/fleet.store")),
            o("status", "true"),
            o("bottlenecks", "2"),
            o("failed", "true"),
        ],
        vec![
            o("", "trace"),
            o("scheme", "hcperf"),
            o("duration", "0.05"),
            o("rate", "20"),
            o("seed", "42"),
            o("format", "chrome"),
        ],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replacing one option value of a `help` example with a malformed
    /// token, and dropping or duplicating the others, makes `dispatch`
    /// return `Ok` or `Err`; it never panics.
    #[test]
    fn malformed_option_values_never_panic(
        example in 0usize..12,
        slot in 0usize..64,
        token in 0usize..MALFORMED.len(),
        drop_mask in any::<u64>(),
        dup_mask in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!("hcperf_cli_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir = dir.to_str().unwrap().to_owned();
        let mut options = examples(&dir).swap_remove(example);
        let command = options.remove(0).1;
        if !options.is_empty() {
            let n = options.len();
            let (key, value) = &mut options[slot % n];
            let bad = MALFORMED[token];
            *value = if PATHS.contains(&*key) {
                format!("{dir}/{bad}")
            } else {
                bad.to_owned()
            };
        }
        let mut argv = vec![command];
        for (i, (key, value)) in options.iter().enumerate() {
            if drop_mask >> i & 1 == 1 && !PINNED.contains(key) {
                continue;
            }
            let copies = 1 + (dup_mask >> i & 1);
            for _ in 0..copies {
                argv.push(format!("--{key}"));
                argv.push(value.clone());
            }
        }
        let args = Args::parse(argv.clone()).unwrap();
        let outcome = std::panic::catch_unwind(|| hcperf_cli::dispatch(&args).is_ok());
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(outcome.is_ok(), "{argv:?} panicked");
    }
}
