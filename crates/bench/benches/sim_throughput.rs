//! Engine throughput: wall-clock cost of simulating one second of the
//! 23-task pipeline at 30 Hz under each scheme (the headline cost of the
//! whole reproduction's experiments).
#![allow(missing_docs)] // criterion_group!/criterion_main! expand to undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcperf::{DpsConfig, Scheme};
use hcperf_rtsim::{Sim, SimConfig};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{Rate, SimTime};
use std::hint::black_box;

fn bench_sim_second(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_one_second");
    group.sample_size(20);
    for scheme in [Scheme::Edf, Scheme::HcPerf] {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.to_string()),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    let graph = apollo_graph(&GraphOptions {
                        with_affinity: scheme.uses_affinity(),
                        ..Default::default()
                    })
                    .unwrap();
                    let mut sim = Sim::new(
                        graph,
                        SimConfig::default(),
                        scheme.build(DpsConfig::default()),
                    )
                    .unwrap();
                    let sources: Vec<_> = sim.source_rates().iter().map(|&(t, _)| t).collect();
                    for s in sources {
                        sim.set_source_rate(s, Rate::from_hz(30.0)).unwrap();
                    }
                    sim.run_until(SimTime::from_secs(1.0));
                    black_box(sim.stats().released())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim_second);
criterion_main!(benches);
