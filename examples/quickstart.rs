//! Quickstart: run the 23-task autonomous-driving pipeline under HCPerf and
//! under plain EDF, and compare deadline behaviour.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hcperf::{CoordinatorConfig, DpsConfig, HcPerf, PeriodInput, Scheme};
use hcperf_rtsim::{Sim, SimConfig};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{Rate, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== HCPerf quickstart: 23-task pipeline on 4 processors ==\n");
    for scheme in [Scheme::Edf, Scheme::HcPerf] {
        // 1. Build the paper's Fig. 11 task graph.
        let graph = apollo_graph(&GraphOptions {
            with_affinity: scheme.uses_affinity(),
            ..Default::default()
        })?;

        // 2. Construct the coordinator (HCPerf only) and the simulator.
        let mut coordinator = scheme
            .uses_coordinators()
            .then(|| HcPerf::new(CoordinatorConfig::default(), &graph))
            .transpose()?;
        let mut sim = Sim::new(
            graph,
            SimConfig::default(),
            scheme.build(DpsConfig::default()),
        )?;
        let sources: Vec<_> = sim.source_rates().iter().map(|&(t, _)| t).collect();
        for s in sources {
            sim.set_source_rate(s, Rate::from_hz(25.0))?;
        }

        // 3. Run 10 simulated seconds in 100 ms control periods. A real
        //    deployment would feed the measured driving error here; the
        //    quickstart fakes a decaying disturbance.
        let period = 0.1;
        for k in 0..100 {
            let t = k as f64 * period;
            sim.run_until(SimTime::from_secs(t));
            let window = sim.stats_mut().take_window();
            if let Some(coord) = coordinator.as_mut() {
                let rates = sim.source_rates();
                let tracking_error = 2.0 * (-t / 3.0f64).exp();
                let decision = coord.on_period(PeriodInput {
                    tracking_error,
                    miss_ratio: window.miss_ratio(),
                    exec_signal: 0.02,
                    current_rates: &rates,
                });
                sim.scheduler_mut().set_nominal_u(decision.nominal_u);
                for (task, rate) in decision.new_rates {
                    sim.set_source_rate(task, rate)?;
                }
            }
        }

        // 4. Report.
        let totals = sim.stats().totals();
        let commands = sim.drain_commands();
        println!(
            "{scheme:>7}: {} jobs released, {} control commands",
            sim.stats().released(),
            commands.len()
        );
        println!(
            "         deadline misses: {:.2}% | mean response {:.2} ms | mean e2e {:.1} ms",
            totals.miss_ratio() * 100.0,
            sim.stats()
                .mean_response_time()
                .map_or(0.0, |d| d.as_millis()),
            sim.stats().mean_end_to_end().map_or(0.0, |d| d.as_millis()),
        );
        if let Some(gamma) = sim.scheduler().gamma() {
            println!("         final priority-adjustment coefficient γ = {gamma:.4}");
        }
        println!();
    }
    println!("HCPerf adapts its source rates and priority weighting online;");
    println!("see `cargo run -p hcperf-bench --bin all_experiments` for the full paper suite.");
    Ok(())
}
