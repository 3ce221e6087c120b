//! Property-based tests for the task-graph substrate.

use hcperf_taskgraph::{
    ExecContext, ExecModel, LoadProfile, Priority, Rate, RateRange, SimSpan, SimTime, TaskGraph,
    TaskId, TaskSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spec(i: usize) -> TaskSpec {
    TaskSpec::builder(format!("t{i}"))
        .priority(Priority::new((i % 13) as u32))
        .relative_deadline(SimSpan::from_millis(20.0 + i as f64))
        .exec_model(ExecModel::constant(SimSpan::from_millis(
            1.0 + (i % 7) as f64,
        )))
        .build()
        .expect("valid spec")
}

/// Builds a random DAG by only adding forward edges `i -> j` with `i < j`
/// (guaranteed acyclic), returning the graph.
fn forward_dag(n: usize, edges: &[(usize, usize)]) -> TaskGraph {
    let mut b = TaskGraph::builder();
    let ids: Vec<TaskId> = (0..n).map(|i| b.add_task(spec(i))).collect();
    for &(i, j) in edges {
        let (i, j) = (i % n, j % n);
        if i < j {
            // Duplicate edges are rejected; ignore those errors.
            let _ = b.add_edge(ids[i], ids[j]);
        }
    }
    b.build().expect("forward edges cannot form a cycle")
}

proptest! {
    #[test]
    fn topological_order_respects_every_edge(
        n in 2usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let g = forward_dag(n, &edges);
        let order = g.topological_order();
        prop_assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = g
            .task_ids()
            .map(|id| order.iter().position(|&x| x == id).unwrap())
            .collect();
        for e in g.edges() {
            prop_assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn sources_and_sinks_partition_correctly(
        n in 2usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..40),
    ) {
        let g = forward_dag(n, &edges);
        for id in g.task_ids() {
            prop_assert_eq!(g.sources().contains(&id), g.ipred(id).is_empty());
            prop_assert_eq!(g.sinks().contains(&id), g.isucc(id).is_empty());
        }
        prop_assert!(!g.sources().is_empty());
        prop_assert!(!g.sinks().is_empty());
    }

    #[test]
    fn back_edge_creates_cycle_and_is_rejected(
        n in 2usize..10,
        chain_len in 2usize..10,
    ) {
        let len = chain_len.min(n);
        let mut b = TaskGraph::builder();
        let ids: Vec<TaskId> = (0..n).map(|i| b.add_task(spec(i))).collect();
        for w in ids[..len].windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        b.add_edge(ids[len - 1], ids[0]).unwrap();
        prop_assert!(matches!(
            b.build(),
            Err(hcperf_taskgraph::GraphError::Cycle(_))
        ));
    }

    #[test]
    fn critical_path_bounded_by_total_work(
        n in 1usize..15,
        edges in proptest::collection::vec((0usize..15, 0usize..15), 0..30),
    ) {
        let g = forward_dag(n, &edges);
        let ctx = ExecContext::idle();
        let cp = g.critical_path(ctx);
        let total = g.total_work(ctx);
        prop_assert!(cp <= total + SimSpan::from_millis(1e-9));
        let longest_single = g
            .iter()
            .map(|(_, s)| s.exec_model().nominal(ctx))
            .max()
            .unwrap();
        prop_assert!(cp >= longest_single);
    }

    #[test]
    fn reachability_is_transitive_over_edges(
        n in 2usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..25),
    ) {
        let g = forward_dag(n, &edges);
        for e in g.edges() {
            prop_assert!(g.reaches(e.from, e.to));
            // Forward DAG: no edge target reaches its own source.
            prop_assert!(!g.reaches(e.to, e.from));
        }
    }

    #[test]
    fn exec_model_samples_within_uniform_bounds(
        lo_ms in 0.1f64..50.0,
        extra_ms in 0.0f64..50.0,
        seed in any::<u64>(),
    ) {
        let lo = SimSpan::from_millis(lo_ms);
        let hi = SimSpan::from_millis(lo_ms + extra_ms);
        let model = ExecModel::uniform(lo, hi);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let s = model.sample(ExecContext::idle(), &mut rng);
            prop_assert!(s >= lo && s <= hi);
        }
    }

    #[test]
    fn exec_model_samples_are_always_positive(
        base_ms in -10.0f64..10.0,
        load in 0.0f64..20.0,
        seed in any::<u64>(),
    ) {
        // Even a degenerate model (negative base) never produces a
        // non-positive execution time.
        let model = ExecModel::load_dependent(
            SimSpan::from_millis(base_ms.max(0.0)),
            SimSpan::from_millis(0.01),
            3.0,
        )
        .plus(ExecModel::uniform(
            SimSpan::from_millis(-6.0),
            SimSpan::from_millis(6.0),
        ));
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = ExecContext::new(SimTime::ZERO, load);
        for _ in 0..20 {
            prop_assert!(model.sample(ctx, &mut rng) > SimSpan::ZERO);
        }
    }

    #[test]
    fn load_dependent_nominal_is_monotone_in_load(
        base_ms in 0.1f64..20.0,
        coeff_us in 1.0f64..100.0,
        l1 in 0.0f64..15.0,
        dl in 0.0f64..15.0,
    ) {
        let model = ExecModel::hungarian(
            SimSpan::from_millis(base_ms),
            SimSpan::from_millis(coeff_us / 1000.0),
        );
        let a = model.nominal(ExecContext::new(SimTime::ZERO, l1));
        let b = model.nominal(ExecContext::new(SimTime::ZERO, l1 + dl));
        prop_assert!(b >= a);
    }

    #[test]
    fn rate_range_clamp_is_idempotent_and_contained(
        min_hz in 1.0f64..50.0,
        span_hz in 0.0f64..100.0,
        probe_hz in 0.5f64..200.0,
    ) {
        let range = RateRange::from_hz(min_hz, min_hz + span_hz);
        let clamped = range.clamp(Rate::from_hz(probe_hz));
        prop_assert!(range.contains(clamped));
        prop_assert_eq!(range.clamp(clamped), clamped);
    }

    #[test]
    fn load_profiles_never_negative(
        base in -5.0f64..15.0,
        elevated in -5.0f64..25.0,
        t in -10.0f64..120.0,
    ) {
        let pulse = LoadProfile::piecewise(vec![
            (SimTime::ZERO, base),
            (SimTime::from_secs(10.0), elevated),
            (SimTime::from_secs(20.0), base),
        ]);
        prop_assert!(pulse.at(SimTime::from_secs(t)) >= 0.0);
    }

    #[test]
    fn sim_time_arithmetic_round_trips(
        a in -1e6f64..1e6,
        d in -1e5f64..1e5,
    ) {
        let t = SimTime::from_secs(a);
        let span = SimSpan::from_secs(d);
        let back = (t + span) - span;
        prop_assert!((back.as_secs() - a).abs() < 1e-6);
        prop_assert!(((t + span) - t).as_secs() - d < 1e-6);
    }
}
