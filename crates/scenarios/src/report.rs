//! Result formatting: paper-style tables and CSV time-series dumps.

use std::fmt::Write as _;

use crate::metrics::TimeSeries;

/// Formats a paper-style one-row RMS table, e.g.
///
/// ```text
/// | Table II: RMS speed tracking error | HPF | EDF | ... |
/// | RMS (m/s) | 1.02 | 0.99 | ... |
/// ```
///
/// # Examples
///
/// ```
/// use hcperf_scenarios::report::rms_table;
///
/// let table = rms_table(
///     "Table II: speed tracking error",
///     "RMS (m/s)",
///     &[("HPF".into(), 1.02), ("HCPerf".into(), 0.55)],
/// );
/// assert!(table.contains("HCPerf"));
/// assert!(table.contains("0.550"));
/// ```
#[must_use]
pub fn rms_table(title: &str, unit: &str, rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let mut header = String::from("|  |");
    let mut sep = String::from("|---|");
    let mut values = format!("| {unit} |");
    for (name, value) in rows {
        let _ = write!(header, " {name} |");
        sep.push_str("---|");
        let _ = write!(values, " {value:.3} |");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{sep}");
    let _ = writeln!(out, "{values}");
    out
}

/// Relative improvement of the last row (conventionally HCPerf) over the
/// best baseline, in percent. Returns `None` for fewer than two rows or a
/// zero denominator.
#[must_use]
pub fn improvement_over_best_baseline(rows: &[(String, f64)]) -> Option<f64> {
    if rows.len() < 2 {
        return None;
    }
    let (candidate, baselines) = rows.split_last().expect("len >= 2");
    let best = baselines
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::INFINITY, f64::min);
    if best <= 0.0 {
        return None;
    }
    Some((best - candidate.1) / best * 100.0)
}

/// Serializes time series into long-format CSV: `series,t,value`.
#[must_use]
pub fn series_to_csv(series: &[&TimeSeries]) -> String {
    let mut out = String::from("series,t,value\n");
    for s in series {
        for (t, v) in s.iter() {
            let _ = writeln!(out, "{},{t:.6},{v:.9}", s.name());
        }
    }
    out
}

/// Serializes any scenario result to pretty JSON for machine consumption.
///
/// # Errors
///
/// Propagates [`serde_json::Error`] (cannot occur for this crate's result
/// types; the `Result` is kept for API honesty).
///
/// # Examples
///
/// ```no_run
/// use hcperf::Scheme;
/// use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig};
/// use hcperf_scenarios::report::to_json;
///
/// let result = run_car_following(&CarFollowingConfig::paper_simulation(Scheme::Edf))?;
/// let json = to_json(&result)?;
/// assert!(json.contains("rms_speed_error"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_json<T: serde::Serialize>(value: &T) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(value)
}

/// Formats `(t, value)` pairs (e.g. per-second miss ratios) as CSV.
#[must_use]
pub fn pairs_to_csv(name: &str, pairs: &[(f64, f64)]) -> String {
    let mut out = format!("{name}_t,{name}\n");
    for (t, v) in pairs {
        let _ = writeln!(out, "{t:.6},{v:.9}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_all_schemes_and_values() {
        let rows = vec![
            ("HPF".to_string(), 1.02),
            ("EDF".to_string(), 0.99),
            ("HCPerf".to_string(), 0.55),
        ];
        let t = rms_table("Table II", "RMS (m/s)", &rows);
        for (name, _) in &rows {
            assert!(t.contains(name));
        }
        assert!(t.contains("1.020"));
        assert!(t.contains("0.550"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn improvement_math() {
        let rows = vec![
            ("A".to_string(), 1.0),
            ("B".to_string(), 0.8),
            ("HCPerf".to_string(), 0.4),
        ];
        let imp = improvement_over_best_baseline(&rows).unwrap();
        assert!((imp - 50.0).abs() < 1e-9);
        assert!(improvement_over_best_baseline(&rows[..1]).is_none());
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut a = TimeSeries::new("alpha");
        a.push(0.0, 1.0);
        a.push(1.0, 2.0);
        let mut b = TimeSeries::new("beta");
        b.push(0.5, -1.0);
        let csv = series_to_csv(&[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "series,t,value");
        assert!(lines[1].starts_with("alpha,"));
        assert!(lines[3].starts_with("beta,"));
    }

    #[test]
    fn pairs_csv() {
        let csv = pairs_to_csv("miss", &[(1.0, 0.5)]);
        assert!(csv.starts_with("miss_t,miss\n"));
        assert!(csv.contains("1.000000,0.500000000"));
    }

    #[test]
    fn results_serialize_to_json() {
        use crate::car_following::{run_car_following, CarFollowingConfig};
        use hcperf::Scheme;
        let mut config = CarFollowingConfig::paper_simulation(Scheme::Edf);
        config.duration = 3.0;
        config.record_series = false;
        let result = run_car_following(&config).unwrap();
        let json = to_json(&result).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["rms_speed_error"].as_f64().unwrap().is_finite());
        assert_eq!(v["scheme"], "Edf");
        assert!(v["commands"].as_u64().unwrap() > 0);
    }
}
