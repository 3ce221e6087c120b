//! Baseline schedulers the paper evaluates against (§ VII-A4).
//!
//! * [`Hpf`] — High Priority First: static priorities only.
//! * [`Edf`] — Earliest Deadline First (Liu & Layland).
//! * [`EdfVd`] — EDF with Virtual Deadlines for high-criticality tasks.
//! * [`ApolloStatic`] — Apollo Cyber RT: per-processor binding + fixed
//!   priority (the state-of-the-practice).
//!
//! Each ranks jobs by a key fixed at release
//! ([`Scheduler::release_key`](hcperf_rtsim::Scheduler::release_key)), so
//! the engine dispatches them without calling `select`.

mod apollo;
mod edf;
mod edf_vd;
mod hpf;

pub use apollo::ApolloStatic;
pub use edf::Edf;
pub use edf_vd::EdfVd;
pub use hpf::Hpf;

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for baseline scheduler tests.

    use hcperf_rtsim::{Job, JobId, SchedContext};
    use hcperf_taskgraph::{Criticality, Priority, SimSpan, SimTime, TaskGraph, TaskId, TaskSpec};

    /// Graph with 4 independent tasks: task `i` has priority `i`; task 0 is
    /// High criticality, the rest Low.
    pub fn graph() -> TaskGraph {
        let mut b = TaskGraph::builder();
        for i in 0..4u32 {
            let crit = if i == 0 {
                Criticality::High
            } else {
                Criticality::Low
            };
            b.add_task(
                TaskSpec::builder(format!("t{i}"))
                    .priority(Priority::new(i))
                    .criticality(crit)
                    .relative_deadline(SimSpan::from_millis(100.0))
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    pub fn job(id: u64, task: usize, release: f64, deadline_ms: f64) -> Job {
        Job::new(
            JobId::new(id),
            TaskId::new(task),
            0,
            SimTime::from_secs(release),
            SimSpan::from_millis(deadline_ms),
            SimTime::from_secs(release),
        )
    }

    pub struct Fixture {
        pub graph: TaskGraph,
        pub queue: Vec<Job>,
        pub observed: Vec<SimSpan>,
        pub remaining: Vec<SimSpan>,
        pub candidates: Vec<usize>,
    }

    impl Fixture {
        pub fn ctx(&self) -> SchedContext<'_> {
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

    pub fn fixture(queue: Vec<Job>) -> Fixture {
        let n = queue.len();
        Fixture {
            graph: graph(),
            observed: vec![SimSpan::from_millis(5.0); 4],
            remaining: vec![SimSpan::ZERO; 2],
            candidates: (0..n).collect(),
            queue,
        }
    }
}
