//! Property-based tests for the scenario metrics and report formatting.

use hcperf_scenarios::metrics::{discomfort_index, rms, TimeSeries};
use hcperf_scenarios::report::{improvement_over_best_baseline, pairs_to_csv, series_to_csv};
use proptest::prelude::*;

fn series(values: &[f64], dt: f64) -> TimeSeries {
    let mut ts = TimeSeries::new("s");
    for (k, v) in values.iter().enumerate() {
        ts.push(k as f64 * dt, *v);
    }
    ts
}

proptest! {
    #[test]
    fn rms_matches_reference_formula(
        values in proptest::collection::vec(-1e3f64..1e3, 1..200),
    ) {
        let ts = series(&values, 0.1);
        let expected =
            (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt();
        prop_assert!((ts.rms() - expected).abs() < 1e-9 * (1.0 + expected));
        prop_assert!((rms(&values) - expected).abs() < 1e-9 * (1.0 + expected));
    }

    #[test]
    fn rms_between_never_exceeds_max_abs(
        values in proptest::collection::vec(-1e2f64..1e2, 2..100),
        lo in 0.0f64..5.0,
        span in 0.0f64..5.0,
    ) {
        let ts = series(&values, 0.1);
        let r = ts.rms_between(lo, lo + span);
        prop_assert!(r <= ts.max_abs() + 1e-9);
        prop_assert!(r >= 0.0);
    }

    #[test]
    fn bucket_means_stay_within_value_range(
        values in proptest::collection::vec(-50.0f64..50.0, 1..150),
        bucket in 0.05f64..2.0,
    ) {
        let ts = series(&values, 0.1);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (_, mean) in ts.bucket_mean(bucket) {
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
        // Buckets jointly cover every sample exactly once.
        let n: usize = ts
            .bucket_mean(bucket)
            .iter()
            .map(|&(start, _)| {
                ts.iter()
                    .filter(|(t, _)| *t >= start && *t < start + bucket)
                    .count()
            })
            .sum();
        prop_assert_eq!(n, values.len());
    }

    #[test]
    fn nearest_returns_an_existing_value(
        values in proptest::collection::vec(-10.0f64..10.0, 1..50),
        probe in -5.0f64..20.0,
    ) {
        let ts = series(&values, 0.1);
        let v = ts.nearest(probe).unwrap();
        prop_assert!(values.contains(&v));
    }

    #[test]
    fn discomfort_is_zero_for_linear_acceleration(
        slope in -5.0f64..5.0,
        intercept in -5.0f64..5.0,
        n in 10usize..100,
    ) {
        // Constant jerk == `slope` everywhere; the index reports |slope|.
        let values: Vec<f64> =
            (0..n).map(|k| intercept + slope * k as f64 * 0.1).collect();
        let ts = series(&values, 0.1);
        for (_, d) in discomfort_index(&ts, 1.0) {
            prop_assert!((d - slope.abs()).abs() < 1e-6 * (1.0 + slope.abs()));
        }
    }

    #[test]
    fn improvement_sign_matches_ordering(
        baseline in 0.1f64..100.0,
        candidate in 0.1f64..100.0,
    ) {
        let rows = vec![("base".to_string(), baseline), ("HCPerf".to_string(), candidate)];
        let imp = improvement_over_best_baseline(&rows).unwrap();
        if candidate < baseline {
            prop_assert!(imp > 0.0);
        } else if candidate > baseline {
            prop_assert!(imp < 0.0);
        }
        prop_assert!(imp <= 100.0);
    }

    #[test]
    fn csv_has_one_line_per_sample_plus_header(
        values in proptest::collection::vec(-5.0f64..5.0, 0..50),
    ) {
        let ts = series(&values, 0.1);
        let csv = series_to_csv(&[&ts]);
        prop_assert_eq!(csv.lines().count(), values.len() + 1);
        let pairs: Vec<(f64, f64)> = values
            .iter()
            .enumerate()
            .map(|(k, v)| (k as f64, *v))
            .collect();
        let pcsv = pairs_to_csv("x", &pairs);
        prop_assert_eq!(pcsv.lines().count(), values.len() + 1);
    }
}
