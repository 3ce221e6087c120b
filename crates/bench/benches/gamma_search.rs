//! Ablation bench: the two γ_max search strategies of the Dynamic Priority
//! Scheduler (DESIGN.md § 5.1), each in two configurations:
//!
//! * `*` (after) — the shipping incremental search: γ-independent job data
//!   cached once per recompute, one full sort, O(n + inversions) re-rank
//!   per probe, scratch buffers reused across recomputes.
//! * `*_sort_per_probe` (before) — the retained pre-optimization
//!   [`hcperf::dps::reference`] search that rebuilds and re-sorts the
//!   ranking on every feasibility probe.
//!
//! Three fixtures. In the `late` one (ids `<search>/<n>`) every job is
//! already past its deadline, so relaxed Eq. 11 has no constraint left and
//! both searches stop at their first probe above γ = 0. In the `feasible` one (ids
//! `<search>_feasible/<n>`) every job meets its deadline in laxity order
//! but not in static-priority order, so `γ_max` lies strictly inside the
//! search range: the bisection runs every step and the sweep walks below
//! its top interval. The `overloaded` one (ids `<search>_overloaded/64`)
//! is the `dps` unit tests' deep queue: 64 jobs of 19 tasks on 4 busy
//! processors, with `γ_max` far below the top interval, so the sweep
//! certifies hundreds of intervals and probes some below its first jump.
//!
//! Bisection vs critical-points crossover as the ready queue grows
//! motivates the bisection default; cached vs sort-per-probe is the hot
//! path optimization headline.
#![allow(missing_docs)] // criterion_group!/criterion_main! expand to undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hcperf::dps::{reference, DpsConfig, DynamicPriorityScheduler, GammaSearch};
use hcperf_rtsim::{Job, JobId, SchedContext};
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::{Priority, SimSpan, SimTime, TaskGraph, TaskId, TaskSpec};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A ready queue over a task graph with observed execution times, every
/// processor busy for 4 ms, at `now` = 10 s.
struct Fixture {
    /// Bench id suffix.
    label: &'static str,
    graph: TaskGraph,
    observed: Vec<SimSpan>,
    queue: Vec<Job>,
}

fn bench_search(c: &mut Criterion) {
    let graph = apollo_graph(&GraphOptions::default()).unwrap();
    let observed: Vec<SimSpan> = (0..graph.len())
        .map(|i| SimSpan::from_millis(2.0 + (i % 9) as f64 * 3.0))
        .collect();
    let remaining = vec![SimSpan::from_millis(4.0); 4];
    let apollo = |label, queue| Fixture {
        label,
        graph: graph.clone(),
        observed: observed.clone(),
        queue,
    };

    let mut group = c.benchmark_group("gamma_search");
    let fixtures = [4usize, 16, 64]
        .map(|n| apollo("", late_queue(n, graph.len())))
        .into_iter()
        .chain([16usize, 64].map(|n| apollo("_feasible", feasible_queue(n, &graph, &observed))))
        .chain([overloaded()]);
    for fixture in fixtures {
        let queue_len = fixture.queue.len();
        let candidates: Vec<usize> = (0..queue_len).collect();
        let ctx = || SchedContext {
            now: SimTime::from_secs(10.0),
            graph: &fixture.graph,
            queue: &fixture.queue,
            candidates: &candidates,
            processor: 0,
            observed_exec: &fixture.observed,
            processor_remaining: &remaining,
        };
        for (search_label, search) in [
            ("bisection", GammaSearch::Bisection),
            ("critical_points", GammaSearch::CriticalPoints),
        ] {
            let label = format!("{search_label}{}", fixture.label);
            let config = DpsConfig {
                search,
                ..Default::default()
            };
            if !fixture.label.is_empty() {
                let gamma_max = reference::gamma_max(&ctx(), &config);
                assert!(
                    gamma_max.is_some_and(|g| g > 0.0 && g < config.gamma_ceiling),
                    "{label}/{queue_len}: γ_max {gamma_max:?} should lie inside the range"
                );
            }
            // After: one full recompute per iteration, warm scratch.
            group.bench_with_input(BenchmarkId::new(&label, queue_len), &queue_len, |b, _| {
                let mut dps = DynamicPriorityScheduler::new(config);
                dps.set_nominal_u(0.1);
                b.iter(|| {
                    let ctx = ctx();
                    dps.recompute_gamma(&ctx);
                    black_box(dps.gamma_max())
                });
            });
            // Before: the sort-per-probe reference on the same fixture.
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_sort_per_probe"), queue_len),
                &queue_len,
                |b, _| {
                    b.iter(|| black_box(reference::gamma_max(&ctx(), &config)));
                },
            );
        }
    }
    group.finish();
}

/// `n` jobs released at 9.9 s with 35–83 ms deadlines: at `now` = 10 s
/// every one is late.
fn late_queue(n: usize, tasks: usize) -> Vec<Job> {
    (0..n)
        .map(|k| {
            Job::new(
                JobId::new(k as u64),
                TaskId::new(k % tasks),
                0,
                SimTime::from_secs(9.9),
                SimSpan::from_millis(35.0 + (k % 7) as f64 * 8.0),
                SimTime::from_secs(9.9),
            )
        })
        .collect()
}

/// `n` jobs released at `now` = 10 s whose deadlines grow with the work
/// queued ahead of them in job order: job `k` is due 1 ms after it could
/// finish with jobs `0..k` ahead of it on the 4 processors (busy 4 ms
/// each). Its laxity therefore grows with `k` too, so the γ = 0 order is
/// job order and meets every deadline. Static priorities follow the task,
/// not `k`, so ranking by priority puts late-due jobs first and misses.
fn feasible_queue(n: usize, graph: &TaskGraph, observed: &[SimSpan]) -> Vec<Job> {
    let mut ahead = 0.0;
    (0..n)
        .map(|k| {
            let task = TaskId::new(k * 5 % graph.len());
            let c = observed[task.index()].as_secs();
            let deadline = 4e-3 + ahead / 4.0 + c + 1e-3;
            ahead += c;
            Job::new(
                JobId::new(k as u64),
                task,
                0,
                SimTime::from_secs(10.0),
                SimSpan::from_secs(deadline),
                SimTime::from_secs(10.0),
            )
        })
        .collect()
}

/// The `dps` unit tests' overloaded queue: 64 jobs over 19 tasks of mixed
/// priorities, released up to 5 ms before `now` with 35–200 ms deadlines,
/// and 1–10 ms execution times, all drawn from one seeded RNG.
fn overloaded() -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    let mut builder = TaskGraph::builder();
    for t in 0..19u32 {
        builder.add_task(
            TaskSpec::builder(format!("t{t}"))
                .priority(Priority::new(t * 7 % 11))
                .relative_deadline(SimSpan::from_millis(100.0))
                .build()
                .unwrap(),
        );
    }
    let observed = (0..19)
        .map(|_| SimSpan::from_secs(rng.gen_range(1e-3..10e-3)))
        .collect();
    let queue = (0..64u64)
        .map(|k| {
            let release = SimTime::from_secs(10.0 - rng.gen_range(0.0..5e-3));
            let deadline = SimSpan::from_secs(rng.gen_range(35e-3..0.2));
            Job::new(
                JobId::new(k),
                TaskId::new(k as usize % 19),
                0,
                release,
                deadline,
                release,
            )
        })
        .collect();
    Fixture {
        label: "_overloaded",
        graph: builder.build().unwrap(),
        observed,
        queue,
    }
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
