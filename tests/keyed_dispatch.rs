//! Keyed dispatch against the `select` bodies it replaced.
//!
//! FIFO and the paper's four baselines rank ready jobs by a key fixed at
//! release, and the engine dispatches them itself without calling
//! `select`. Each case runs one scheduler three ways through a real `Sim`
//! on a random graph:
//!
//! * keyed: the engine's own pass over the release keys;
//! * [`Forward`]: a wrapper that forwards only `select`, as the
//!   benchmark's timing wrapper does, so the engine asks the trait's
//!   default `select`;
//! * [`SelectOnly`]: `select` is the tuple comparator the scheduler had
//!   before it had a key.
//!
//! The three traces must be equal event for event after every step. The
//! graphs tie on priority, deadline and release, pin tasks to processors
//! (one of them to a processor that does not exist), expire queued jobs
//! and requeue jobs killed by processor failures.

use hcperf_suite::core::baselines::{ApolloStatic, Edf, EdfVd, Hpf};
use hcperf_suite::rtsim::{
    FaultEffect, FaultWindow, FifoScheduler, KillPolicy, SchedContext, Scheduler, Sim, SimConfig,
};
use hcperf_suite::taskgraph::{
    Criticality, ExecModel, Priority, RateRange, SimSpan, SimTime, Stage, TaskGraph, TaskId,
    TaskSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `select` body a fixed-key scheduler had before `release_key`.
trait OldSelect: Scheduler {
    fn old_select(&self, ctx: &SchedContext<'_>) -> Option<usize>;
}

impl OldSelect for FifoScheduler {
    fn old_select(&self, ctx: &SchedContext<'_>) -> Option<usize> {
        ctx.candidates
            .iter()
            .copied()
            .min_by_key(|&i| (ctx.queue[i].release(), ctx.queue[i].id()))
    }
}

/// HPF's and Apollo's body: static priority, then release, then id.
fn fixed_priority(ctx: &SchedContext<'_>) -> Option<usize> {
    ctx.candidates.iter().copied().min_by_key(|&i| {
        let job = &ctx.queue[i];
        (
            ctx.graph.spec(job.task()).priority(),
            job.release(),
            job.id(),
        )
    })
}

impl OldSelect for Hpf {
    fn old_select(&self, ctx: &SchedContext<'_>) -> Option<usize> {
        fixed_priority(ctx)
    }
}

impl OldSelect for ApolloStatic {
    fn old_select(&self, ctx: &SchedContext<'_>) -> Option<usize> {
        fixed_priority(ctx)
    }
}

impl OldSelect for Edf {
    fn old_select(&self, ctx: &SchedContext<'_>) -> Option<usize> {
        ctx.candidates
            .iter()
            .copied()
            .min_by_key(|&i| (ctx.queue[i].absolute_deadline(), ctx.queue[i].id()))
    }
}

impl OldSelect for EdfVd {
    fn old_select(&self, ctx: &SchedContext<'_>) -> Option<usize> {
        let effective_deadline = |index: usize| {
            let job = &ctx.queue[index];
            let release = job.release().as_secs();
            let relative = job.relative_deadline().as_secs();
            match ctx.graph.spec(job.task()).criticality() {
                Criticality::High => release + self.scale() * relative,
                Criticality::Low => release + relative,
            }
        };
        ctx.candidates.iter().copied().min_by(|&a, &b| {
            effective_deadline(a)
                .total_cmp(&effective_deadline(b))
                .then_with(|| ctx.queue[a].id().cmp(&ctx.queue[b].id()))
        })
    }
}

/// Dispatches through `select` only, answering with the old body.
struct SelectOnly<S>(S);

impl<S: OldSelect> Scheduler for SelectOnly<S> {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        self.0.old_select(ctx)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Forwards `select` and nothing else, so the engine sees no keys and the
/// inner scheduler answers with the trait's default `select`.
struct Forward<S>(S);

impl<S: Scheduler> Scheduler for Forward<S> {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        self.0.select(ctx)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// One random case: the graph and engine knobs all three runs share.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    processors: usize,
    affinity: bool,
    expire: bool,
    faults: bool,
}

/// A random DAG of 2–4 sources and up to five downstream tasks. Values
/// come from small sets so priorities, deadlines and releases tie, and
/// execution times are long enough to queue work on few processors.
fn random_graph(rng: &mut StdRng, case: Case) -> TaskGraph {
    let mut b = TaskGraph::builder();
    let sources = rng.gen_range(2..5usize);
    let downstream = rng.gen_range(0..6usize);
    let mut ids: Vec<TaskId> = Vec::new();
    for k in 0..sources + downstream {
        let mut spec = TaskSpec::builder(format!("t{k}"))
            .priority(Priority::new(rng.gen_range(0..3u32)))
            .criticality(if rng.gen_bool(0.5) {
                Criticality::High
            } else {
                Criticality::Low
            })
            .relative_deadline(SimSpan::from_millis(
                [20.0, 40.0, 40.0, 80.0][rng.gen_range(0..4usize)],
            ))
            .exec_model(if rng.gen_bool(0.5) {
                ExecModel::constant(SimSpan::from_millis(
                    [5.0, 10.0, 10.0][rng.gen_range(0..3usize)],
                ))
            } else {
                ExecModel::uniform(SimSpan::from_millis(2.0), SimSpan::from_millis(20.0))
            });
        if k < sources {
            let hz = [20.0, 20.0, 40.0][rng.gen_range(0..3usize)];
            spec = spec
                .stage(Stage::Sensing)
                .rate_range(RateRange::from_hz(hz, hz));
        }
        if case.affinity && rng.gen_bool(0.5) {
            // Up to one past the last processor: a job pinned there never
            // dispatches, under either path.
            spec = spec.affinity(rng.gen_range(0..=case.processors));
        }
        let id = b.add_task(spec.build().unwrap());
        if k >= sources {
            // The first edge names the trigger predecessor.
            let trigger = ids[rng.gen_range(0..ids.len())];
            b.add_edge(trigger, id).unwrap();
            let other = ids[rng.gen_range(0..ids.len())];
            if other != trigger && rng.gen_bool(0.3) {
                b.add_edge(other, id).unwrap();
            }
        }
        ids.push(id);
    }
    b.build().unwrap()
}

/// Processor failures whose killed jobs go back to the ready queue, plus
/// one stall.
fn random_faults(rng: &mut StdRng, processors: usize) -> Vec<FaultWindow> {
    let mut windows: Vec<FaultWindow> = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let start = rng.gen_range(0.05..1.5);
            FaultWindow {
                start: SimTime::from_secs(start),
                end: SimTime::from_secs(start + rng.gen_range(0.01..0.4)),
                effect: FaultEffect::ProcessorFail {
                    processor: rng.gen_range(0..processors),
                    policy: KillPolicy::Requeue,
                },
            }
        })
        .collect();
    let start = rng.gen_range(0.05..1.5);
    windows.push(FaultWindow {
        start: SimTime::from_secs(start),
        end: SimTime::from_secs(start + 0.1),
        effect: FaultEffect::ProcessorStall {
            processor: rng.gen_range(0..processors),
        },
    });
    windows
}

fn sim<S: Scheduler>(case: Case, scheduler: S) -> Sim<S> {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let graph = random_graph(&mut rng, case);
    let faults = random_faults(&mut rng, case.processors);
    let mut sim = Sim::new(
        graph,
        SimConfig {
            processors: case.processors,
            seed: case.seed,
            expire_queued_jobs: case.expire,
            trace_capacity: 1 << 20,
            ..SimConfig::default()
        },
        scheduler,
    )
    .unwrap();
    if case.faults {
        for window in faults {
            sim.inject_fault(window).unwrap();
        }
    }
    sim
}

/// Steps the keyed, forwarded and old-body runs side by side and compares
/// their traces after every step.
fn check<S: OldSelect + Copy>(case: Case, scheduler: S) {
    let mut keyed = sim(case, scheduler);
    let mut forward = sim(case, Forward(scheduler));
    let mut oracle = sim(case, SelectOnly(scheduler));
    for step in 1..=200 {
        let t = SimTime::from_millis(10.0 * f64::from(step));
        keyed.run_until(t);
        forward.run_until(t);
        oracle.run_until(t);
        assert_eq!(
            keyed.trace().events(),
            oracle.trace().events(),
            "keyed, {case:?}"
        );
        assert_eq!(
            forward.trace().events(),
            oracle.trace().events(),
            "select, {case:?}"
        );
    }
    assert_eq!(keyed.stats().totals(), oracle.stats().totals());
    assert_eq!(keyed.drain_commands(), oracle.drain_commands());
    assert_eq!(keyed.fault_counters(), oracle.fault_counters());
}

impl Case {
    /// Bits of `flags`: affinity, expiry, faults.
    fn new(seed: u64, processors: usize, flags: u8) -> Case {
        Case {
            seed,
            processors,
            affinity: flags & 1 != 0,
            expire: flags & 2 != 0,
            faults: flags & 4 != 0,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fifo_keys_match_the_old_select(seed in any::<u64>(), processors in 1usize..4, flags in 0u8..8) {
        check(Case::new(seed, processors, flags), FifoScheduler::new());
    }

    #[test]
    fn hpf_keys_match_the_old_select(seed in any::<u64>(), processors in 1usize..4, flags in 0u8..8) {
        check(Case::new(seed, processors, flags), Hpf::new());
    }

    #[test]
    fn edf_keys_match_the_old_select(seed in any::<u64>(), processors in 1usize..4, flags in 0u8..8) {
        check(Case::new(seed, processors, flags), Edf::new());
    }

    #[test]
    fn edf_vd_keys_match_the_old_select(seed in any::<u64>(), processors in 1usize..4, flags in 0u8..8) {
        check(Case::new(seed, processors, flags), EdfVd::new(0.6));
    }

    #[test]
    fn apollo_keys_match_the_old_select(seed in any::<u64>(), processors in 1usize..4, flags in 0u8..8) {
        check(Case::new(seed, processors, flags), ApolloStatic::new());
    }
}

/// Counts the dispatch decisions where two candidates share the least
/// key, so the `JobId` tie-break decides.
struct TieCounter<S> {
    inner: S,
    ties: usize,
}

impl<S: Scheduler> Scheduler for TieCounter<S> {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        let keys: Vec<Option<u128>> = ctx
            .candidates
            .iter()
            .map(|&i| self.inner.release_key(&ctx.queue[i], ctx.graph))
            .collect();
        if let Some(least) = keys.iter().min() {
            if keys.iter().filter(|&k| k == least).count() > 1 {
                self.ties += 1;
            }
        }
        self.inner.select(ctx)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The random cases exercise what they claim: key ties, expiries and
/// requeued kills all occur.
#[test]
fn random_cases_reach_ties_expiry_and_requeues() {
    let (mut hpf_ties, mut edf_ties, mut expired, mut requeued) = (0, 0, 0, 0);
    for seed in 0..32 {
        let c = Case::new(seed, 2, 7);
        let mut hpf = sim(
            c,
            TieCounter {
                inner: Hpf::new(),
                ties: 0,
            },
        );
        let mut edf = sim(
            c,
            TieCounter {
                inner: Edf::new(),
                ties: 0,
            },
        );
        hpf.run_until(SimTime::from_secs(2.0));
        edf.run_until(SimTime::from_secs(2.0));
        hpf_ties += hpf.scheduler().ties;
        edf_ties += edf.scheduler().ties;
        expired += edf.stats().totals().expired;
        requeued += edf.fault_counters().requeued_jobs;
    }
    assert!(hpf_ties > 0, "no HPF key ties");
    assert!(edf_ties > 0, "no EDF key ties");
    assert!(expired > 0, "no expiries");
    assert!(requeued > 0, "no requeued kills");
}
