//! GPU offload: the paper (§ VI) notes that detection tasks also use the
//! GPU; HCPerf does not schedule the accelerator but records its time
//! toward the end-to-end deadline. This example attaches GPU phases to the
//! 2D/3D detectors and shows the effect on latency and deadline behaviour.
//!
//! ```sh
//! cargo run --release --example gpu_pipeline
//! ```

use hcperf::{DpsConfig, Scheme};
use hcperf_rtsim::{Sim, SimConfig};
use hcperf_taskgraph::graphs::{apollo_graph, with_gpu_offload, GraphOptions};
use hcperf_taskgraph::{Rate, SimTime};

fn run(gpu: bool, rate_hz: f64) -> Result<(u64, f64, f64), Box<dyn std::error::Error>> {
    let mut graph = apollo_graph(&GraphOptions {
        with_affinity: false,
        ..Default::default()
    })?;
    if gpu {
        graph = with_gpu_offload(
            &graph,
            &[("object_detection_2d", 12.0), ("object_detection_3d", 15.0)],
        );
    }
    let mut sim = Sim::new(
        graph,
        SimConfig::default(),
        Scheme::HcPerf.build(DpsConfig::default()),
    )?;
    let sources: Vec<_> = sim.source_rates().iter().map(|&(t, _)| t).collect();
    for s in sources {
        sim.set_source_rate(s, Rate::from_hz(rate_hz))?;
    }
    sim.run_until(SimTime::from_secs(5.0));
    Ok((
        sim.stats().commands_emitted(),
        sim.stats().totals().miss_ratio() * 100.0,
        sim.stats().mean_end_to_end().map_or(0.0, |d| d.as_millis()),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== GPU offload on the detectors (12/15 ms accelerator phases) ==\n");
    println!(
        "{:>6} {:>6} {:>10} {:>8} {:>10}",
        "rate", "GPU", "commands", "miss", "e2e (ms)"
    );
    for rate in [15.0, 20.0, 25.0] {
        for gpu in [false, true] {
            let (commands, miss, e2e) = run(gpu, rate)?;
            println!(
                "{rate:5.0}Hz {:>6} {commands:10} {miss:7.1}% {e2e:10.1}",
                if gpu { "yes" } else { "no" }
            );
        }
    }
    println!("\nThe GPU phases do not occupy CPU processors, but they stretch the");
    println!("end-to-end latency and eat into each detector's deadline slack —");
    println!("exactly the effect § VI says HCPerf records and absorbs.");
    Ok(())
}
