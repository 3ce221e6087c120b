//! Property-based tests for the HCPerf coordinators and schedulers.

use hcperf::baselines::{Edf, EdfVd, Hpf};
use hcperf::dps::{DpsConfig, DynamicPriorityScheduler, GammaSearch};
use hcperf::pdc::{PdcConfig, PerformanceDirectedController};
use hcperf::rate_adapter::{RateAdapterConfig, SourceSlot, TaskRateAdapter};
use hcperf_rtsim::{Job, JobId, SchedContext, Scheduler};
use hcperf_taskgraph::{Priority, Rate, RateRange, SimSpan, SimTime, TaskGraph, TaskId, TaskSpec};
use proptest::prelude::*;

fn graph(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder();
    for i in 0..n {
        b.add_task(
            TaskSpec::builder(format!("t{i}"))
                .priority(Priority::new((i % 8) as u32))
                .relative_deadline(SimSpan::from_millis(100.0))
                .build()
                .unwrap(),
        );
    }
    b.build().unwrap()
}

#[derive(Debug)]
struct Fixture {
    graph: TaskGraph,
    queue: Vec<Job>,
    observed: Vec<SimSpan>,
    remaining: Vec<SimSpan>,
    candidates: Vec<usize>,
}

impl Fixture {
    fn random(
        n_tasks: usize,
        jobs: &[(usize, f64, f64)],
        exec_ms: &[f64],
        processors: usize,
    ) -> Fixture {
        let graph = graph(n_tasks);
        let queue: Vec<Job> = jobs
            .iter()
            .enumerate()
            .map(|(k, &(task, release, deadline_ms))| {
                Job::new(
                    JobId::new(k as u64),
                    TaskId::new(task % n_tasks),
                    0,
                    SimTime::from_secs(release),
                    SimSpan::from_millis(deadline_ms),
                    SimTime::from_secs(release),
                )
            })
            .collect();
        let observed: Vec<SimSpan> = (0..n_tasks)
            .map(|i| SimSpan::from_millis(exec_ms[i % exec_ms.len()]))
            .collect();
        let candidates: Vec<usize> = (0..queue.len()).collect();
        Fixture {
            graph,
            queue,
            observed,
            remaining: vec![SimSpan::ZERO; processors],
            candidates,
        }
    }

    fn ctx(&self) -> SchedContext<'_> {
        SchedContext {
            now: SimTime::from_secs(10.0),
            graph: &self.graph,
            queue: &self.queue,
            candidates: &self.candidates,
            processor: 0,
            observed_exec: &self.observed,
            processor_remaining: &self.remaining,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gamma_always_within_bounds(
        jobs in proptest::collection::vec((0usize..6, 9.0f64..10.0, 5.0f64..200.0), 1..12),
        exec in proptest::collection::vec(1.0f64..30.0, 1..6),
        u in -1.0f64..1.0,
        processors in 1usize..5,
    ) {
        let fx = Fixture::random(6, &jobs, &exec, processors);
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(u);
        dps.recompute_gamma(&fx.ctx());
        prop_assert!(dps.gamma() >= 0.0);
        prop_assert!(dps.gamma() <= dps.gamma_max() + 1e-12);
        prop_assert!(dps.gamma_max() <= dps.config().gamma_ceiling + 1e-12);
        // Eq. 12: inside the feasible band u is applied unchanged.
        if u >= 0.0 && u <= dps.gamma_max() {
            prop_assert!((dps.gamma() - u).abs() < 1e-12);
        }
    }

    #[test]
    fn schedulers_always_pick_a_candidate(
        jobs in proptest::collection::vec((0usize..6, 9.0f64..10.0, 5.0f64..200.0), 1..12),
        exec in proptest::collection::vec(1.0f64..30.0, 1..6),
        u in 0.0f64..0.5,
    ) {
        let fx = Fixture::random(6, &jobs, &exec, 2);
        let ctx = fx.ctx();
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(u);
        for pick in [
            dps.select(&ctx),
            Hpf::new().select(&ctx),
            Edf::new().select(&ctx),
            EdfVd::default().select(&ctx),
        ] {
            let i = pick.expect("non-empty candidates must yield a pick");
            prop_assert!(fx.candidates.contains(&i));
        }
    }

    #[test]
    fn select_respects_restricted_candidate_sets(
        jobs in proptest::collection::vec((0usize..6, 9.0f64..10.0, 5.0f64..200.0), 2..12),
        exec in proptest::collection::vec(1.0f64..30.0, 1..6),
        u in 0.0f64..0.5,
        mask in 0u32..4096,
    ) {
        // Affinity filtering hands schedulers an arbitrary strict subset of
        // queue indices; the pick must come from that subset, never from the
        // wider queue.
        let mut fx = Fixture::random(6, &jobs, &exec, 2);
        fx.candidates = (0..fx.queue.len())
            .filter(|&i| mask & (1 << (i % 12)) != 0)
            .collect();
        if fx.candidates.is_empty() {
            fx.candidates.push(fx.queue.len() - 1);
        }
        let ctx = fx.ctx();
        let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
        dps.set_nominal_u(u);
        dps.recompute_gamma(&ctx);
        for pick in [
            dps.select(&ctx),
            Hpf::new().select(&ctx),
            Edf::new().select(&ctx),
            EdfVd::default().select(&ctx),
        ] {
            let i = pick.expect("non-empty candidates must yield a pick");
            prop_assert!(fx.candidates.contains(&i),
                "pick {i} outside candidate set {:?}", fx.candidates);
        }
    }

    #[test]
    fn bisection_gamma_max_is_feasible_point_of_critical_sweep(
        jobs in proptest::collection::vec((0usize..5, 9.0f64..10.0, 20.0f64..120.0), 1..8),
        exec in proptest::collection::vec(1.0f64..15.0, 1..5),
    ) {
        // The bisection's γ_max never exceeds the exact supremum found by
        // the critical-point sweep (up to numeric tolerance).
        let fx = Fixture::random(5, &jobs, &exec, 2);
        let mut bis = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::Bisection,
            ..Default::default()
        });
        let mut crit = DynamicPriorityScheduler::new(DpsConfig {
            search: GammaSearch::CriticalPoints,
            ..Default::default()
        });
        bis.set_nominal_u(10.0);
        crit.set_nominal_u(10.0);
        bis.recompute_gamma(&fx.ctx());
        crit.recompute_gamma(&fx.ctx());
        prop_assert!(bis.gamma_max() <= crit.gamma_max() + 1e-6,
            "bisection {} vs critical sweep {}", bis.gamma_max(), crit.gamma_max());
    }

    #[test]
    fn rate_adapter_outputs_always_in_range(
        miss in 0.0f64..1.0,
        exec_signal in 0.001f64..0.2,
        start_hz in 10.0f64..100.0,
        steps in 1usize..50,
    ) {
        let range = RateRange::from_hz(10.0, 100.0);
        let mut tra = TaskRateAdapter::new(
            RateAdapterConfig::default(),
            vec![SourceSlot { task: TaskId::new(0), range }],
        );
        let mut current = vec![(TaskId::new(0), Rate::from_hz(start_hz))];
        for _ in 0..steps {
            current = tra.step(miss, exec_signal, &current);
            prop_assert!(range.contains(current[0].1));
        }
    }

    #[test]
    fn rate_adapter_direction_matches_error_sign(
        start_hz in 20.0f64..90.0,
        overload_miss in 0.2f64..1.0,
    ) {
        let range = RateRange::from_hz(10.0, 100.0);
        let slots = vec![SourceSlot { task: TaskId::new(0), range }];
        let current = vec![(TaskId::new(0), Rate::from_hz(start_hz))];
        let mut up = TaskRateAdapter::new(RateAdapterConfig::default(), slots.clone());
        let raised = up.step(0.0, 0.02, &current);
        prop_assert!(raised[0].1 >= current[0].1);
        let mut down = TaskRateAdapter::new(RateAdapterConfig::default(), slots);
        let lowered = down.step(overload_miss, 0.02, &current);
        prop_assert!(lowered[0].1 <= current[0].1);
    }

    #[test]
    fn pdc_output_is_finite_and_sign_insensitive(
        errors in proptest::collection::vec(-10.0f64..10.0, 1..100),
    ) {
        let mut a = PerformanceDirectedController::new(PdcConfig::default()).unwrap();
        let mut b = PerformanceDirectedController::new(PdcConfig::default()).unwrap();
        for e in errors {
            let ua = a.step(e);
            let ub = b.step(-e);
            prop_assert!(ua.is_finite());
            prop_assert_eq!(ua, ub);
        }
    }
}
