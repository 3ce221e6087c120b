//! Capacity probe: sweep the pipeline rate to find the platform's
//! throughput knee — the operating point the Task Rate Adapter converges to
//! at runtime — and compare it against the offline utilization analysis.
//!
//! ```sh
//! cargo run --release --example capacity_probe
//! ```

use hcperf::analysis::{analyze, liu_layland_bound, max_rate_within_bound};
use hcperf::Scheme;
use hcperf_scenarios::sweep::{knee, rate_sweep, SweepConfig};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{ExecContext, Rate};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = apollo_graph(&GraphOptions {
        with_affinity: false,
        ..Default::default()
    })?;
    let ctx = ExecContext::idle();

    println!("== offline analysis (4 processors, nominal load) ==");
    let bound = liu_layland_bound(graph.len());
    let rate_at_bound = max_rate_within_bound(&graph, ctx, 4, bound);
    let rate_at_unity = max_rate_within_bound(&graph, ctx, 4, 1.0);
    println!("Liu & Layland bound for {} tasks: {bound:.3}", graph.len());
    println!("rate at the bound: {rate_at_bound}");
    println!("rate at utilization 1.0: {rate_at_unity}");
    for hz in [10.0, 20.0, 30.0] {
        let r = analyze(&graph, Rate::from_hz(hz), ctx, 4);
        println!(
            "{hz:5.0} Hz -> utilization {:.2}, within bound: {}, feasible: {}",
            r.utilization, r.within_bound, r.feasible
        );
    }

    println!("\n== empirical sweep (EDF, 5 s per point, one worker per core) ==");
    let config = SweepConfig {
        scheme: Scheme::Edf,
        rates_hz: (2..=10).map(|k| k as f64 * 5.0).collect(),
        ..Default::default()
    };
    let points = rate_sweep(&config, 0, None)?;
    println!(
        "{:>7} {:>10} {:>12} {:>10}",
        "rate", "miss", "commands/s", "e2e (ms)"
    );
    for p in &points {
        let bar = "#".repeat((p.miss_ratio * 40.0).round() as usize);
        let e2e = p
            .mean_e2e_ms
            .map_or_else(|| format!("{:>10}", "-"), |ms| format!("{ms:10.1}"));
        println!(
            "{:5.0}Hz {:9.2}% {:12.1} {e2e} {bar}",
            p.rate_hz,
            p.miss_ratio * 100.0,
            p.commands_per_sec,
        );
    }
    match knee(&points, 0.02) {
        Some(k) => println!(
            "\nEmpirical knee at ~{k:.0} Hz; the offline unity-utilization estimate was {:.1} Hz.",
            rate_at_unity.as_hz()
        ),
        None => println!("\nNo knee found inside the sweep."),
    }
    println!("This knee is the operating point HCPerf's Task Rate Adapter hunts online.");
    Ok(())
}
