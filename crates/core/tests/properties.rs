//! Property-based tests for the HCPerf coordinators and schedulers.

use hcperf::baselines::{Edf, EdfVd, Hpf};
use hcperf::dps::{DpsConfig, DynamicPriorityScheduler, GammaSearch};
use hcperf::pdc::{PdcConfig, PerformanceDirectedController};
use hcperf::rate_adapter::{RateAdapterConfig, SourceSlot, TaskRateAdapter};
use hcperf_rtsim::{Job, JobId, SchedContext, Scheduler};
use hcperf_taskgraph::{Priority, Rate, RateRange, SimSpan, SimTime, TaskGraph, TaskId, TaskSpec};
use proptest::prelude::*;

/// `n` independent tasks over `levels` static priorities.
fn graph(n: usize, levels: usize) -> TaskGraph {
    let mut b = TaskGraph::builder();
    for i in 0..n {
        b.add_task(
            TaskSpec::builder(format!("t{i}"))
                .priority(Priority::new((i % levels) as u32))
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
        let graph = graph(n_tasks, 8);
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

/// A queue on coarse binary grids, so float sums are exact and `P_i`
/// ties are common, also between jobs released at different times: six
/// tasks over three priority levels, releases up to 5/256 s before `now`
/// and relative deadlines on a 1/256 s grid, execution times on a 1/512 s
/// grid. Job `k` gets id `ids[k]`; `candidates` keeps the jobs whose
/// `mask` bit is set (the last job if none is).
fn grid_fixture(
    jobs: &[(usize, u32, u32)],
    exec: &[u32],
    ids: &[u64],
    processors: usize,
    mask: u64,
) -> Fixture {
    let n_tasks = 6;
    let now = 10.0;
    let queue: Vec<Job> = jobs
        .iter()
        .zip(ids)
        .map(|(&(task, released, deadline), &id)| {
            let release = SimTime::from_secs(now - f64::from(released) / 256.0);
            Job::new(
                JobId::new(id),
                TaskId::new(task % n_tasks),
                0,
                release,
                SimSpan::from_secs(f64::from(deadline) / 256.0),
                release,
            )
        })
        .collect();
    let mut candidates: Vec<usize> = (0..queue.len())
        .filter(|&i| mask & (1 << (i % 64)) != 0)
        .collect();
    if candidates.is_empty() {
        candidates.push(queue.len() - 1);
    }
    Fixture {
        graph: graph(n_tasks, 3),
        observed: (0..n_tasks)
            .map(|t| SimSpan::from_secs(f64::from(exec[t % exec.len()]) / 512.0))
            .collect(),
        remaining: vec![SimSpan::ZERO; processors],
        candidates,
        queue,
    }
}

/// `P_i = γ·p_i + d_i` of queue entry `i` (Eq. 10), as a brute-force
/// check computes it.
fn dynamic_priority(ctx: &SchedContext<'_>, i: usize, gamma: f64) -> f64 {
    let job = &ctx.queue[i];
    let p = f64::from(ctx.graph.spec(job.task()).priority().value());
    gamma * p + job.laxity(ctx.now, ctx.exec_of(job)).as_secs()
}

/// A DPS scheduler's pick on `fx` at nominal `u`, and the γ it used.
fn dps_pick(fx: &Fixture, u: f64) -> (Option<usize>, f64) {
    let mut dps = DynamicPriorityScheduler::new(DpsConfig::default());
    dps.set_nominal_u(u);
    let pick = dps.select(&fx.ctx());
    (pick, dps.gamma())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 10: `select` returns the candidate of least `P_i`, exact ties
    /// to the lower job id, whatever order the queue holds the ids in.
    #[test]
    fn select_is_the_eq10_argmin_with_ties_to_the_lower_id(
        jobs in proptest::collection::vec((0usize..6, 0u32..6, 2u32..12), 1..24),
        exec in proptest::collection::vec(1u32..6, 1..6),
        ids in proptest::collection::vec(0u64..1000, 24..25),
        processors in 1usize..5,
        u in 0u32..5,
        mask in any::<u64>(),
    ) {
        // Distinct ids in an arbitrary order.
        let ids: Vec<u64> = ids.iter().enumerate().map(|(k, &id)| id * 64 + k as u64).collect();
        let fx = grid_fixture(&jobs, &exec, &ids, processors, mask);
        let (pick, gamma) = dps_pick(&fx, f64::from(u) * 0.05);
        let ctx = fx.ctx();
        let argmin = fx.candidates.iter().copied().min_by(|&a, &b| {
            dynamic_priority(&ctx, a, gamma)
                .total_cmp(&dynamic_priority(&ctx, b, gamma))
                .then_with(|| fx.queue[a].id().cmp(&fx.queue[b].id()))
        });
        prop_assert_eq!(pick, argmin);
    }

    /// When ids follow release order, as `Sim` issues them, the lower-id
    /// tie-break is the (release, id) one: `select` is also the argmin of
    /// `(P_i, release, id)`.
    #[test]
    fn select_ties_follow_release_order_when_ids_do(
        jobs in proptest::collection::vec((0usize..6, 0u32..6, 2u32..12), 1..24),
        exec in proptest::collection::vec(1u32..6, 1..6),
        order in proptest::collection::vec(0u64..4, 24..25),
        processors in 1usize..5,
        u in 0u32..5,
        mask in any::<u64>(),
    ) {
        // Ids rise with release time (earlier `released` counts are later
        // releases); `order` breaks ties between equal releases.
        let mut by_release: Vec<usize> = (0..jobs.len()).collect();
        by_release.sort_by_key(|&k| (std::cmp::Reverse(jobs[k].1), order[k], k));
        let mut ids = vec![0; jobs.len()];
        for (id, &k) in by_release.iter().enumerate() {
            ids[k] = id as u64;
        }
        let fx = grid_fixture(&jobs, &exec, &ids, processors, mask);
        let (pick, gamma) = dps_pick(&fx, f64::from(u) * 0.05);
        let ctx = fx.ctx();
        let argmin = fx.candidates.iter().copied().min_by(|&a, &b| {
            let (ja, jb) = (&fx.queue[a], &fx.queue[b]);
            dynamic_priority(&ctx, a, gamma)
                .total_cmp(&dynamic_priority(&ctx, b, gamma))
                .then_with(|| (ja.release(), ja.id()).cmp(&(jb.release(), jb.id())))
        });
        prop_assert_eq!(pick, argmin);
    }

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
