//! Property-based tests for the real-time simulator engine.

use hcperf_rtsim::{FifoScheduler, Sim, SimConfig, TraceEvent};
use hcperf_taskgraph::{
    ExecModel, Priority, Rate, RateRange, SimSpan, SimTime, Stage, TaskGraph, TaskId, TaskSpec,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Builds a random layered pipeline: one source feeding `mid` middle tasks
/// feeding one sink.
fn pipeline(mid: usize, exec_ms: f64, deadline_ms: f64, rate_hz: f64) -> TaskGraph {
    let mut b = TaskGraph::builder();
    let src = b.add_task(
        TaskSpec::builder("src")
            .stage(Stage::Sensing)
            .priority(Priority::new(5))
            .exec_model(ExecModel::constant(SimSpan::from_millis(exec_ms)))
            .relative_deadline(SimSpan::from_millis(deadline_ms))
            .rate_range(RateRange::from_hz(rate_hz, rate_hz))
            .build()
            .unwrap(),
    );
    let mids: Vec<TaskId> = (0..mid)
        .map(|i| {
            let id = b.add_task(
                TaskSpec::builder(format!("m{i}"))
                    .priority(Priority::new(3))
                    .exec_model(ExecModel::constant(SimSpan::from_millis(exec_ms)))
                    .relative_deadline(SimSpan::from_millis(deadline_ms))
                    .build()
                    .unwrap(),
            );
            b.add_edge(src, id).unwrap();
            id
        })
        .collect();
    let sink = b.add_task(
        TaskSpec::builder("sink")
            .stage(Stage::Control)
            .priority(Priority::new(0))
            .exec_model(ExecModel::constant(SimSpan::from_millis(exec_ms)))
            .relative_deadline(SimSpan::from_millis(deadline_ms))
            .build()
            .unwrap(),
    );
    for &m in &mids {
        b.add_edge(m, sink).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn jobs_never_dispatch_before_release(
        mid in 1usize..5,
        exec_ms in 1.0f64..10.0,
        rate_hz in 5.0f64..40.0,
        seed in any::<u64>(),
        processors in 1usize..5,
    ) {
        let g = pipeline(mid, exec_ms, 200.0, rate_hz);
        let mut sim = Sim::new(
            g,
            SimConfig {
                processors,
                seed,
                trace_capacity: 100_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(2.0));
        let mut released: HashMap<_, SimTime> = HashMap::new();
        for e in sim.trace().events() {
            match *e {
                TraceEvent::Released { time, job, .. } => {
                    released.insert(job, time);
                }
                TraceEvent::Dispatched { time, job, .. } => {
                    let rel = released.get(&job).expect("dispatch implies release");
                    prop_assert!(time >= *rel);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn trace_times_are_monotone(
        mid in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = pipeline(mid, 3.0, 100.0, 20.0);
        let mut sim = Sim::new(
            g,
            SimConfig {
                seed,
                trace_capacity: 100_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(1.0));
        let times: Vec<SimTime> = sim.trace().events().iter().map(|e| e.time()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn outcome_counts_are_consistent(
        mid in 1usize..6,
        exec_ms in 1.0f64..30.0,
        deadline_ms in 10.0f64..80.0,
        rate_hz in 5.0f64..50.0,
        seed in any::<u64>(),
    ) {
        let g = pipeline(mid, exec_ms, deadline_ms, rate_hz);
        let mut sim = Sim::new(
            g,
            SimConfig {
                seed,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(3.0));
        let totals = sim.stats().totals();
        // Every resolved job was released, and resolved ≤ released.
        prop_assert!(totals.total() <= sim.stats().released());
        // Dispatched jobs either finished or are still running.
        prop_assert!(sim.stats().dispatched() >= totals.met + totals.missed_late);
        // Miss ratio is a valid probability.
        let m = totals.miss_ratio();
        prop_assert!((0.0..=1.0).contains(&m));
    }

    #[test]
    fn deterministic_under_same_seed(
        mid in 1usize..4,
        seed in any::<u64>(),
    ) {
        let run = || {
            let g = pipeline(mid, 4.0, 60.0, 20.0);
            let mut sim = Sim::new(
                g,
                SimConfig {
                    seed,
                    release_jitter_frac: 0.2,
                    ..Default::default()
                },
                FifoScheduler::new(),
            )
            .unwrap();
            sim.run_until(SimTime::from_secs(2.0));
            (
                sim.stats().released(),
                sim.stats().totals(),
                sim.drain_commands().len(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn same_cycle_join_never_duplicates_cycles(
        mid in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = pipeline(mid, 2.0, 150.0, 20.0);
        let mut sim = Sim::new(
            g,
            SimConfig {
                seed,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(2.0));
        let commands = sim.drain_commands();
        let mut seen = std::collections::HashSet::new();
        for cmd in &commands {
            prop_assert!(seen.insert(cmd.cycle), "cycle {} emitted twice", cmd.cycle);
        }
    }

    #[test]
    fn command_latencies_are_non_negative(
        mid in 1usize..5,
        seed in any::<u64>(),
        rate_hz in 5.0f64..40.0,
    ) {
        let g = pipeline(mid, 3.0, 120.0, rate_hz);
        let mut sim = Sim::new(
            g,
            SimConfig {
                seed,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(2.0));
        for cmd in sim.drain_commands() {
            prop_assert!(cmd.response_time() >= SimSpan::ZERO);
            prop_assert!(cmd.end_to_end_latency() >= cmd.response_time());
        }
    }

    #[test]
    fn rate_clamping_respects_ranges(
        rate_hz in 0.5f64..200.0,
        seed in any::<u64>(),
    ) {
        let g = pipeline(1, 2.0, 100.0, 20.0);
        let src = g.find("src").unwrap();
        let mut sim = Sim::new(
            g,
            SimConfig {
                seed,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        let applied = sim.set_source_rate(src, Rate::from_hz(rate_hz)).unwrap();
        // The fixture range is [20, 20] Hz.
        prop_assert_eq!(applied, Rate::from_hz(20.0));
    }
}
