//! The discrete-event simulation engine.
//!
//! [`Sim`] executes a [`TaskGraph`] on `M` identical processors under a
//! pluggable non-preemptive [`Scheduler`]:
//!
//! * **Source tasks** release together, one job each per *pipeline
//!   cycle*. The cycle period is that of the slowest source rate, so the
//!   rates are the external coordinator's knob (Eq. 1c / Eq. 13) and the
//!   slowest one paces the pipeline.
//! * **Downstream tasks** release when **every** immediate predecessor's
//!   job of the same cycle has completed within its deadline: the paper's
//!   § II same-cycle AND-join.
//! * A job that completes after its absolute deadline counts as a miss and
//!   its output is **discarded**: the joins waiting on it never complete,
//!   so nothing downstream of it runs in that cycle (§ II: "the fusion
//!   results of this control cycle are discarded").
//! * Optionally, queued jobs whose deadline passes before they start are
//!   expired and removed (they could no longer produce valid output), which
//!   bounds queue growth under overload.
//! * Completions of **sink tasks** within their deadlines emit
//!   [`ControlCommand`]s that a closed-loop harness applies to the vehicle.
//!
//! # Observed execution times
//!
//! The paper's `c_i` is "the execution time from the last run of the task":
//! a measurement, only available once a run *finishes*. The engine therefore
//! updates the per-task observation when the job **completes**, not when it
//! is dispatched — updating at dispatch would leak the sampled duration of
//! the in-flight job to the scheduler before any real system could know it
//! (clairvoyance). While a job runs, schedulers see the previous run's
//! duration (or the nominal estimate before any run).
//!
//! # Dispatch hot path
//!
//! `Sim::try_dispatch` is entered after every event and returns at once
//! when nothing is ready. Otherwise it takes one of two paths, chosen by
//! the scheduler's [`Scheduler::release_key`]:
//!
//! * **Keyed.** When every released job came with a key, the engine keeps
//!   the keys beside the ready queue and fills each idle processor, in
//!   index order, with the affinity-eligible job of least `(key, JobId)`:
//!   one scan of the queue per processor, no candidate list and no
//!   `select` call. FIFO and the four baselines dispatch this way.
//! * **`select`.** Otherwise the engine builds each idle processor's
//!   affinity-filtered candidate list and asks [`Scheduler::select`],
//!   repeating until a pass places nothing. HCPerf's DPS dispatches this
//!   way. The candidate indices and per-processor remaining times live in
//!   scratch buffers owned by the engine, so steady-state dispatch
//!   allocates nothing.
//!
//! Both paths read an affinity-partitioned ready index — per-processor
//! counts of pinned ready jobs plus a count of unpinned ones — so
//! processors with no eligible work are skipped without scanning the
//! queue.
//!
//! # Same-cycle joins
//!
//! A task with several predecessors counts its predecessors' same-cycle
//! outputs in a per-task list of open joins, sorted by cycle and searched
//! from the back (arrivals are for recent cycles). A task with one
//! predecessor releases on every arrival and never touches the table.
//! Joins of cycles that died stay open until the prune that runs while the
//! pipeline cycle is a multiple of 256, which drops every join older than
//! 128 cycles.

use std::collections::BTreeMap;
use std::fmt;

use hcperf_taskgraph::{ExecContext, LoadProfile, Rate, SimSpan, SimTime, TaskGraph, TaskId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultCounters, FaultEffect, FaultWindow, KillPolicy};
use crate::job::{ControlCommand, Job, JobId, JobOutcome};
use crate::join::SameCycleJoins;
use crate::scheduler::{SchedContext, Scheduler};
use crate::stats::SimStats;
use crate::trace::{Trace, TraceEvent};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of identical processors `M`.
    pub processors: usize,
    /// RNG seed for execution-time sampling (runs are deterministic given a
    /// seed).
    pub seed: u64,
    /// Remove queued jobs whose deadline passes before they start. Keeps the
    /// ready queue bounded under overload; the removal counts as a miss.
    pub expire_queued_jobs: bool,
    /// Trace capacity in events (0 disables tracing).
    pub trace_capacity: usize,
    /// Rate for sources that declare no allowable range.
    pub default_rate: Rate,
    /// Selects nothing: the engine never reads it. It remains only so that
    /// existing struct literals keep compiling; the same-cycle join
    /// discards a late predecessor's output, so no output can go stale.
    pub staleness_bound: Option<SimSpan>,
    /// Uniform jitter applied to each cycle release period as a fraction
    /// of the period (sensors are not metronomes; 0 disables).
    pub release_jitter_frac: f64,
    /// Selects nothing: [`JoinPolicy`] has a single variant. It remains
    /// only so that existing struct literals keep compiling.
    pub join_policy: JoinPolicy,
    /// Obstacle-count profile feeding load-dependent execution times.
    pub load: LoadProfile,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 4,
            seed: 0,
            expire_queued_jobs: true,
            trace_capacity: 0,
            default_rate: Rate::from_hz(20.0),
            staleness_bound: None,
            release_jitter_frac: 0.0,
            join_policy: JoinPolicy::SameCycle,
            load: LoadProfile::constant(0.0),
        }
    }
}

/// How a task with multiple predecessors is released. The engine has one
/// release model (see the module docs), so this selects nothing; it
/// remains only for the [`SimConfig::join_policy`] field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinPolicy {
    /// The paper's § II model: all sources of a pipeline cycle release
    /// together (at the minimum source rate), and a downstream task fires
    /// only when **every** predecessor's job of the *same cycle* completed
    /// within its deadline — one late task discards the whole cycle.
    #[default]
    SameCycle,
}

/// Error raised by engine construction or rate adjustment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `processors` must be at least 1.
    NoProcessors,
    /// [`Sim::set_source_rate`] was called for a non-source task.
    NotASource(TaskId),
    /// [`Sim::inject_fault`] was handed a window it cannot apply safely
    /// (non-finite spike parameters, out-of-range task or processor).
    InvalidFault(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoProcessors => f.write_str("simulation needs at least one processor"),
            SimError::NotASource(id) => write!(f, "task {id} is not a source task"),
            SimError::InvalidFault(why) => write!(f, "invalid fault window: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy)]
struct Running {
    job: Job,
    finish: SimTime,
    /// CPU execution time of this run; becomes the task's observed `c_i`
    /// when the run completes (never earlier — see the module docs).
    exec: SimSpan,
}

/// A point-in-time view of the engine (see [`Sim::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Current simulation clock.
    pub now: SimTime,
    /// Jobs waiting in the ready queue.
    pub ready_jobs: usize,
    /// Jobs currently executing.
    pub running_jobs: usize,
    /// Jobs whose GPU phase is still in flight.
    pub pending_gpu_outputs: usize,
    /// Events scheduled but not yet delivered.
    pub pending_events: usize,
    /// Current rate of each source task, in graph-source order (Hz).
    pub source_rates_hz: Vec<f64>,
}

/// The discrete-event real-time simulator.
///
/// # Examples
///
/// ```
/// use hcperf_rtsim::{FifoScheduler, Sim, SimConfig};
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::SimTime;
///
/// let graph = apollo_graph(&GraphOptions::default())?;
/// let mut sim = Sim::new(graph, SimConfig::default(), FifoScheduler::new())?;
/// sim.run_until(SimTime::from_secs(1.0));
/// assert!(sim.stats().released() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Sim<S> {
    graph: TaskGraph,
    config: SimConfig,
    scheduler: S,
    now: SimTime,
    events: EventQueue,
    ready: Vec<Job>,
    /// Dispatch key of each ready job ([`Scheduler::release_key`]),
    /// parallel to `ready` (pushed and swap-removed with it) while
    /// `keyed`; empty otherwise.
    ready_keys: Vec<u128>,
    /// Whether every job released so far came with a key. The first
    /// `None` sends every later dispatch through [`Scheduler::select`],
    /// and no key is asked for after it.
    keyed: bool,
    running: Vec<Option<Running>>,
    observed: Vec<SimSpan>,
    rates: Vec<Option<Rate>>,
    /// Cached `TaskSpec::affinity` per task, avoiding a spec lookup per
    /// ready job per dispatch attempt.
    affinity: Vec<Option<usize>>,
    /// Ready jobs pinned to each processor (affinity-partitioned index;
    /// jobs pinned to a processor outside `0..processors` are counted
    /// nowhere — they can never dispatch, matching candidate filtering).
    ready_pinned: Vec<usize>,
    /// Ready jobs with no affinity (eligible everywhere).
    ready_free: usize,
    /// Scratch: candidate queue indices for the processor being filled.
    /// Reused across dispatches so steady-state dispatch never allocates.
    scratch_candidates: Vec<usize>,
    /// Scratch: remaining processing time per processor (`T_p`), likewise
    /// reused; patched in place as jobs are placed within one dispatch pass.
    scratch_remaining: Vec<SimSpan>,
    /// Open same-cycle joins, one cycle-sorted list per successor task.
    joins: SameCycleJoins,
    pending_outputs: BTreeMap<JobId, Job>,
    /// Next pipeline cycle: the number of cycles released so far.
    pipeline_cycle: u64,
    next_job: u64,
    stats: SimStats,
    trace: Trace,
    commands: Vec<ControlCommand>,
    /// Injected fault windows, in injection order ([`Sim::inject_fault`]).
    faults: Vec<FaultWindow>,
    /// Whether each injected window is currently active.
    fault_active: Vec<bool>,
    /// Combined active execution-time spike per task (`scale`, `extra`);
    /// `None` on the fault-free fast path.
    fault_spike: Vec<Option<(f64, SimSpan)>>,
    /// Whether releases of each task are currently dropped.
    fault_drop: Vec<bool>,
    /// Whether each processor currently accepts new work.
    fault_available: Vec<bool>,
    fault_counters: FaultCounters,
    rng: StdRng,
}

impl<S: Scheduler> Sim<S> {
    /// Creates a simulator over `graph` with the given `scheduler`.
    ///
    /// Source rates start at the **minimum** of each source's allowable
    /// range (or [`SimConfig::default_rate`] if none), matching the paper's
    /// behaviour of the Task Rate Adapter ramping rates up from a safe
    /// starting load. First releases are scheduled at `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoProcessors`] if `config.processors == 0`.
    pub fn new(graph: TaskGraph, config: SimConfig, scheduler: S) -> Result<Self, SimError> {
        if config.processors == 0 {
            return Err(SimError::NoProcessors);
        }
        let n = graph.len();
        let observed: Vec<SimSpan> = graph
            .task_ids()
            .map(|id| graph.spec(id).exec_model().nominal(ExecContext::idle()))
            .collect();
        let affinity: Vec<Option<usize>> = graph
            .task_ids()
            .map(|id| graph.spec(id).affinity())
            .collect();
        let mut rates: Vec<Option<Rate>> = vec![None; n];
        for &s in graph.sources() {
            let rate = graph
                .spec(s)
                .rate_range()
                .map_or(config.default_rate, |r| r.min());
            rates[s.index()] = Some(rate);
        }
        let mut events = EventQueue::new();
        events.push(SimTime::ZERO, EventKind::CycleRelease);
        let stats = SimStats::new(n, config.processors);
        let trace = if config.trace_capacity > 0 {
            Trace::with_capacity(config.trace_capacity)
        } else {
            Trace::disabled()
        };
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(Sim {
            running: vec![None; config.processors],
            affinity,
            ready_pinned: vec![0; config.processors],
            ready_free: 0,
            scratch_candidates: Vec::new(),
            scratch_remaining: Vec::with_capacity(config.processors),
            joins: SameCycleJoins::new(n),
            pending_outputs: BTreeMap::new(),
            pipeline_cycle: 0,
            next_job: 0,
            ready: Vec::new(),
            ready_keys: Vec::new(),
            keyed: true,
            commands: Vec::new(),
            faults: Vec::new(),
            fault_active: Vec::new(),
            fault_spike: vec![None; n],
            fault_drop: vec![false; n],
            fault_available: vec![true; config.processors],
            fault_counters: FaultCounters::default(),
            graph,
            config,
            scheduler,
            now: SimTime::ZERO,
            events,
            observed,
            rates,
            stats,
            trace,
            rng,
        })
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The task graph being executed.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The scheduler (e.g. to read scheme state).
    #[must_use]
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the scheduler — how the internal coordinator feeds
    /// the nominal priority-adjustment parameter into the Dynamic Priority
    /// Scheduler between control periods.
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Mutable statistics access (for window draining).
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// The bounded execution trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of jobs currently in the ready queue.
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Observed execution time `c_i` of a task (last run, nominal before
    /// any observation).
    #[must_use]
    pub fn observed_exec(&self, task: TaskId) -> SimSpan {
        self.observed[task.index()]
    }

    /// Current rate of each source task.
    #[must_use]
    pub fn source_rates(&self) -> Vec<(TaskId, Rate)> {
        self.graph
            .sources()
            .iter()
            .filter_map(|&s| self.rates[s.index()].map(|r| (s, r)))
            .collect()
    }

    /// Sets a source task's release rate, clamped into its allowable range.
    /// Takes effect from the next release onward. Returns the applied rate.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotASource`] if `task` has predecessors.
    pub fn set_source_rate(&mut self, task: TaskId, rate: Rate) -> Result<Rate, SimError> {
        if !self.graph.sources().contains(&task) {
            return Err(SimError::NotASource(task));
        }
        let applied = self
            .graph
            .spec(task)
            .rate_range()
            .map_or(rate, |range| range.clamp(rate));
        self.rates[task.index()] = Some(applied);
        Ok(applied)
    }

    /// Drains the control commands emitted since the last call.
    pub fn drain_commands(&mut self) -> Vec<ControlCommand> {
        std::mem::take(&mut self.commands)
    }

    /// Injects a timed fault window (see [`crate::fault`]).
    ///
    /// The window's open/close transitions are scheduled as ordinary
    /// events on the deterministic queue, so the injected fault sequence
    /// is part of the run's reproducible timeline. A window whose `end`
    /// is at or before its `start` never closes (a permanent failure).
    /// Windows may be injected before the run or mid-run; a start time in
    /// the past is clamped to the current clock.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for non-finite or negative
    /// spike parameters and for task/processor indices outside the graph
    /// or processor count — validated here so the dispatch hot path can
    /// apply fault effects without re-checking.
    pub fn inject_fault(&mut self, window: FaultWindow) -> Result<(), SimError> {
        match window.effect {
            FaultEffect::ExecSpike { task, scale, extra } => {
                if task.index() >= self.graph.len() {
                    return Err(SimError::InvalidFault("spike task outside the graph"));
                }
                if !scale.is_finite() || scale < 0.0 {
                    return Err(SimError::InvalidFault(
                        "spike scale must be finite and >= 0",
                    ));
                }
                if extra.is_negative() {
                    return Err(SimError::InvalidFault("spike extra must be non-negative"));
                }
            }
            FaultEffect::JobDrop { task } => {
                if task.index() >= self.graph.len() {
                    return Err(SimError::InvalidFault("drop task outside the graph"));
                }
            }
            FaultEffect::ProcessorStall { processor }
            | FaultEffect::ProcessorFail { processor, .. } => {
                if processor >= self.config.processors {
                    return Err(SimError::InvalidFault("processor index out of range"));
                }
            }
        }
        let index = self.faults.len();
        self.faults.push(window);
        self.fault_active.push(false);
        let start = window.start.max(self.now);
        self.events.push(
            start,
            EventKind::FaultTransition {
                fault: index,
                active: true,
            },
        );
        if window.end > window.start {
            self.events.push(
                window.end.max(start),
                EventKind::FaultTransition {
                    fault: index,
                    active: false,
                },
            );
        }
        Ok(())
    }

    /// Fault-induced event counters (all zero on fault-free runs).
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// A point-in-time view of the engine for observability dashboards and
    /// debugging: clock, queue depth, per-processor occupancy and the
    /// current source rates.
    #[must_use]
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            now: self.now,
            ready_jobs: self.ready.len(),
            running_jobs: self.running.iter().flatten().count(),
            pending_gpu_outputs: self.pending_outputs.len(),
            pending_events: self.events.len(),
            source_rates_hz: self
                .graph
                .sources()
                .iter()
                .filter_map(|&s| self.rates[s.index()].map(Rate::as_hz))
                .collect(),
        }
    }

    /// Advances the simulation, processing every event up to and including
    /// `t_end`, then sets the clock to `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        while let Some(event) = self.events.pop_due(t_end) {
            debug_assert!(event.time >= self.now, "event time went backwards");
            self.now = event.time;
            match event.kind {
                EventKind::CycleRelease => self.on_cycle_release(),
                EventKind::JobCompleted { processor } => self.on_completion(processor),
                EventKind::ExpiryCheck { job } => self.on_expiry_check(job),
                EventKind::OutputReady { job } => self.on_output_ready(job),
                EventKind::FaultTransition { fault, active } => {
                    self.on_fault_transition(fault, active);
                }
            }
            self.try_dispatch();
        }
        self.now = self.now.max(t_end);
    }

    fn release_job(&mut self, task: TaskId, cycle: u64, chain_release: SimTime) {
        if self.fault_drop.get(task.index()).copied().unwrap_or(false) {
            // An active job-drop window: the frame never reaches the ready
            // queue. It still counts as a release and a miss — the TRA's
            // m(k) feedback must see the dropped frame — plus a separate
            // fault-attributed count.
            self.stats.on_release(task.index());
            self.stats.on_outcome(task.index(), JobOutcome::Expired);
            self.fault_counters.dropped_jobs += 1;
            self.fault_counters.fault_misses += 1;
            return;
        }
        let spec = self.graph.spec(task);
        let job = Job::new(
            JobId::new(self.next_job),
            task,
            cycle,
            self.now,
            spec.relative_deadline(),
            chain_release,
        );
        self.next_job += 1;
        self.stats.on_release(task.index());
        self.trace.record(TraceEvent::Released {
            time: self.now,
            job: job.id(),
            task,
            cycle,
        });
        if self.config.expire_queued_jobs {
            self.events.push(
                job.absolute_deadline(),
                EventKind::ExpiryCheck { job: job.id() },
            );
        }
        self.enqueue(job);
    }

    /// Adds `job` to the ready queue with its dispatch key, maintaining the
    /// affinity-partitioned ready index.
    fn enqueue(&mut self, job: Job) {
        if self.keyed {
            match self.scheduler.release_key(&job, &self.graph) {
                Some(key) => self.ready_keys.push(key),
                None => {
                    self.keyed = false;
                    self.ready_keys.clear();
                }
            }
        }
        self.ready.push(job);
        if let Some(n) = self.ready_count(job.task()) {
            *n += 1;
        }
    }

    /// Removes the ready job at `pos` (by `swap_remove`, with its key),
    /// maintaining the affinity-partitioned ready index.
    #[inline]
    fn dequeue(&mut self, pos: usize) -> Job {
        if self.keyed {
            self.ready_keys.swap_remove(pos);
        }
        let job = self.ready.swap_remove(pos);
        if let Some(n) = self.ready_count(job.task()) {
            *n -= 1;
        }
        job
    }

    /// The affinity-partitioned ready index entry `task`'s jobs count in:
    /// `ready_free`, their processor's `ready_pinned`, or none for a
    /// processor outside `0..processors`.
    #[inline]
    fn ready_count(&mut self, task: TaskId) -> Option<&mut usize> {
        match self.affinity.get(task.index()).copied().flatten() {
            None => Some(&mut self.ready_free),
            Some(p) => self.ready_pinned.get_mut(p),
        }
    }

    /// Releases every source of the next pipeline cycle together and
    /// re-arms the cycle release.
    fn on_cycle_release(&mut self) {
        let cycle = self.pipeline_cycle;
        self.pipeline_cycle += 1;
        for k in 0..self.graph.sources().len() {
            let s = self.graph.sources()[k];
            self.release_job(s, cycle, self.now);
        }
        // The pipeline advances at the *slowest* source rate.
        let slowest = self
            .graph
            .sources()
            .iter()
            .filter_map(|s| self.rates[s.index()])
            .min();
        if let Some(rate) = slowest {
            self.rearm(rate);
        }
    }

    /// Re-arms the next cycle release at the *current* rate (so rate
    /// changes from the external coordinator take effect at the next period
    /// boundary), with optional release jitter.
    fn rearm(&mut self, rate: Rate) {
        let mut period = rate.period();
        let j = self.config.release_jitter_frac;
        if j > 0.0 {
            use rand::Rng;
            let factor = 1.0 + self.rng.gen_range(-j..=j);
            period = period * factor.max(0.05);
        }
        self.events.push(self.now + period, EventKind::CycleRelease);
    }

    fn on_completion(&mut self, processor: usize) {
        // A processor failure that killed a mid-flight job leaves that
        // job's completion event queued; it arrives here with the slot
        // empty (or refilled with a later dispatch whose finish time
        // differs) and must be ignored, not asserted on.
        let Some(running) = self.running.get(processor).copied().flatten() else {
            return;
        };
        if running.finish != self.now {
            return; // stale completion from a killed dispatch
        }
        self.running[processor] = None;
        let job = running.job;
        let task = job.task();
        // The run just finished: its CPU time becomes the task's observed
        // `c_i` ("the execution time from the last run"). This happens here
        // and not at dispatch so schedulers never see the duration of a job
        // that is still executing. The outcome is irrelevant — a late run
        // was still a measured run.
        self.observed[task.index()] = running.exec;
        // GPU post-processing: the processor is free, but the output only
        // becomes visible after the accelerator finishes. The delay counts
        // toward the deadline (paper § VI: HCPerf records GPU time and
        // tries to guarantee the end-to-end deadline).
        let gpu_delay = match self.graph.spec(task).gpu_model() {
            Some(model) => {
                let ctx = ExecContext::new(self.now, self.config.load.at(self.now));
                model.sample(ctx, &mut self.rng)
            }
            None => SimSpan::ZERO,
        };
        let output_at = self.now + gpu_delay;
        self.stats
            .on_response(task.index(), output_at - job.release());
        let met = output_at <= job.absolute_deadline();
        self.trace.record(TraceEvent::Completed {
            time: self.now,
            job: job.id(),
            task,
            met_deadline: met,
        });
        if !met {
            // Late output is discarded; successors are not triggered.
            self.stats.on_outcome(task.index(), JobOutcome::MissedLate);
            return;
        }
        self.stats.on_outcome(task.index(), JobOutcome::Met);
        if gpu_delay > SimSpan::ZERO {
            // Defer propagation until the accelerator finishes.
            self.pending_outputs.insert(job.id(), job);
            self.events
                .push(output_at, EventKind::OutputReady { job: job.id() });
            return;
        }
        self.propagate_output(job);
    }

    fn on_output_ready(&mut self, job_id: JobId) {
        let Some(job) = self.pending_outputs.remove(&job_id) else {
            debug_assert!(false, "output-ready event for an unknown job");
            return;
        };
        self.propagate_output(job);
    }

    /// Makes a successfully produced output visible: emits the control
    /// command for sinks and joins successors.
    fn propagate_output(&mut self, job: Job) {
        let task = job.task();
        if self.graph.isucc(task).is_empty() {
            // A sink (control) task: emit the control command.
            let cmd = ControlCommand {
                task,
                cycle: job.cycle(),
                released_at: job.release(),
                emitted_at: self.now,
                chain_released_at: job.chain_release(),
            };
            self.stats
                .on_command(cmd.response_time(), cmd.end_to_end_latency());
            self.commands.push(cmd);
            return;
        }
        // AND-join on the cycle index: the successor releases when the last
        // of its predecessors' same-cycle jobs completes in time. A missed
        // predecessor leaves the join incomplete and the cycle dies (§ II:
        // results are discarded).
        let cycle = job.cycle();
        for k in 0..self.graph.isucc(task).len() {
            let succ = self.graph.isucc(task)[k];
            let needed = self.graph.ipred(succ).len();
            if self.joins.arrive(succ.index(), cycle, needed) {
                self.release_job(succ, cycle, job.chain_release());
            }
        }
        // Prune joins from long-dead cycles so memory stays bounded.
        if self.pipeline_cycle.is_multiple_of(256) {
            self.joins.prune(self.pipeline_cycle.saturating_sub(128));
        }
    }

    fn on_expiry_check(&mut self, job_id: JobId) {
        let Some(pos) = self.ready.iter().position(|j| j.id() == job_id) else {
            return; // already dispatched (running or done)
        };
        if self.now >= self.ready[pos].absolute_deadline() {
            let job = self.dequeue(pos);
            self.stats
                .on_outcome(job.task().index(), JobOutcome::Expired);
            self.trace.record(TraceEvent::Expired {
                time: self.now,
                job: job.id(),
                task: job.task(),
            });
        }
    }

    // hcperf-lint: hot-path-root
    fn try_dispatch(&mut self) {
        if self.ready.is_empty() {
            return;
        }
        if !self.keyed {
            // Remaining processing time per processor (`T_p`) for `select`,
            // computed once per entry and patched in place as jobs are
            // placed below. The scratch buffers only ever grow to
            // queue-depth/processor-count capacity, so steady-state
            // dispatch performs no heap allocation.
            self.scratch_remaining.clear();
            for r in &self.running {
                self.scratch_remaining.push(r.map_or(SimSpan::ZERO, |run| {
                    (run.finish - self.now).clamp_non_negative()
                }));
            }
        }
        // hcperf-lint: allow(wcet-unbounded): each pass either places a ready job on an idle core or exits; bounded by min(queue depth, processors) passes
        loop {
            let mut made_progress = false;
            for processor in 0..self.config.processors {
                if self.ready.is_empty() || !self.wants_work(processor) {
                    continue;
                }
                let chosen = if self.keyed {
                    self.least_key(processor)
                } else {
                    self.ask_select(processor)
                };
                let Some(chosen) = chosen else {
                    continue;
                };
                // `swap_remove` is safe: every scheduler ranks by a total
                // order on job attributes, never by queue position.
                let job = self.dequeue(chosen);
                let exec = self.sample_exec(job.task());
                let finish = self.now + exec;
                self.stats.on_dispatch(job.task().index(), processor, exec);
                self.trace.record(TraceEvent::Dispatched {
                    time: self.now,
                    job: job.id(),
                    task: job.task(),
                    processor,
                });
                if let Some(slot) = self.running.get_mut(processor) {
                    *slot = Some(Running { job, finish, exec });
                }
                if let Some(slot) = self.scratch_remaining.get_mut(processor) {
                    *slot = exec;
                }
                self.events
                    .push(finish, EventKind::JobCompleted { processor });
                made_progress = true;
            }
            // A keyed pass leaves no processor idle beside eligible work,
            // and placing a job only removes candidates, so a second pass
            // would place nothing. `select` may leave a processor idle and
            // is asked again after a placement elsewhere.
            if self.keyed || !made_progress {
                break;
            }
        }
    }

    /// Whether `processor` is idle, accepts work and has an eligible ready
    /// job. The affinity-partitioned ready index answers the last part
    /// without scanning the queue: nothing unpinned and nothing pinned
    /// here means no candidates.
    #[inline]
    fn wants_work(&self, processor: usize) -> bool {
        // A stalled or failed processor accepts no new work. The flag
        // vector is maintained by fault transitions only, so fault-free
        // runs pay one always-true branch here.
        self.running.get(processor).is_some_and(Option::is_none)
            && self.fault_available.get(processor).copied().unwrap_or(true)
            && (self.ready_free > 0 || self.ready_pinned.get(processor).is_some_and(|&n| n > 0))
    }

    /// The ready job eligible on `processor` with the least `(key, JobId)`.
    fn least_key(&self, processor: usize) -> Option<usize> {
        // With no pinned job ready, every job is eligible here.
        let pinned = self.ready_free < self.ready.len();
        let mut best: Option<(u128, JobId, usize)> = None;
        for (i, (job, &key)) in self.ready.iter().zip(&self.ready_keys).enumerate() {
            if pinned && !eligible(&self.affinity, job, processor) {
                continue;
            }
            if best.is_none_or(|(k, id, _)| (key, job.id()) < (k, id)) {
                best = Some((key, job.id(), i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Builds `processor`'s candidate list and asks the scheduler.
    fn ask_select(&mut self, processor: usize) -> Option<usize> {
        self.scratch_candidates.clear();
        for (i, j) in self.ready.iter().enumerate() {
            if eligible(&self.affinity, j, processor) {
                self.scratch_candidates.push(i);
            }
        }
        debug_assert!(
            !self.scratch_candidates.is_empty(),
            "ready index promised a candidate for processor {processor}"
        );
        let ctx = SchedContext {
            now: self.now,
            graph: &self.graph,
            queue: &self.ready,
            candidates: &self.scratch_candidates,
            processor,
            observed_exec: &self.observed,
            processor_remaining: &self.scratch_remaining,
        };
        let chosen = self.scheduler.select(&ctx)?;
        // Candidates are built in ascending queue order.
        assert!(
            self.scratch_candidates.binary_search(&chosen).is_ok(),
            "scheduler {} selected index {chosen} outside the candidate set",
            self.scheduler.name()
        );
        Some(chosen)
    }

    fn sample_exec(&mut self, task: TaskId) -> SimSpan {
        let ctx = ExecContext::new(self.now, self.config.load.at(self.now));
        let exec = self
            .graph
            .spec(task)
            .exec_model()
            .sample(ctx, &mut self.rng);
        // Execution-time spikes post-process the sampled value so the
        // RNG stream is identical with and without faults; parameters are
        // validated finite/non-negative at injection.
        match self.fault_spike.get(task.index()).copied().flatten() {
            None => exec,
            Some((scale, extra)) => exec * scale + extra,
        }
    }

    /// Applies an injected fault window opening or closing. Effects are
    /// *recomputed* from the set of currently-active windows (rather than
    /// toggled) so overlapping windows on the same task or processor
    /// compose correctly.
    fn on_fault_transition(&mut self, fault: usize, active: bool) {
        let Some(&window) = self.faults.get(fault) else {
            return;
        };
        if let Some(flag) = self.fault_active.get_mut(fault) {
            *flag = active;
        }
        match window.effect {
            FaultEffect::ExecSpike { task, .. } => self.recompute_spike(task),
            FaultEffect::JobDrop { task } => self.recompute_drop(task),
            FaultEffect::ProcessorStall { processor } => self.recompute_availability(processor),
            FaultEffect::ProcessorFail { processor, policy } => {
                if active {
                    self.kill_running(processor, policy);
                }
                self.recompute_availability(processor);
            }
        }
    }

    /// Folds every active spike window on `task` into one `(scale, extra)`
    /// pair read by [`Sim::sample_exec`] — scales multiply, extras add.
    fn recompute_spike(&mut self, task: TaskId) {
        let mut scale = 1.0;
        let mut extra = SimSpan::ZERO;
        let mut any = false;
        for (window, active) in self.faults.iter().zip(self.fault_active.iter()) {
            if !active {
                continue;
            }
            if let FaultEffect::ExecSpike {
                task: t,
                scale: s,
                extra: e,
            } = window.effect
            {
                if t == task {
                    any = true;
                    scale *= s;
                    extra += e;
                }
            }
        }
        if let Some(slot) = self.fault_spike.get_mut(task.index()) {
            *slot = any.then_some((scale, extra));
        }
    }

    fn recompute_drop(&mut self, task: TaskId) {
        let dropping = self
            .faults
            .iter()
            .zip(self.fault_active.iter())
            .any(|(w, &active)| {
                active && matches!(w.effect, FaultEffect::JobDrop { task: t } if t == task)
            });
        if let Some(slot) = self.fault_drop.get_mut(task.index()) {
            *slot = dropping;
        }
    }

    fn recompute_availability(&mut self, processor: usize) {
        let unavailable = self
            .faults
            .iter()
            .zip(self.fault_active.iter())
            .any(|(w, &active)| {
                active
                    && matches!(
                        w.effect,
                        FaultEffect::ProcessorStall { processor: p }
                        | FaultEffect::ProcessorFail { processor: p, .. } if p == processor
                    )
            });
        if let Some(slot) = self.fault_available.get_mut(processor) {
            *slot = !unavailable;
        }
    }

    /// Kills the job running on a failing processor per the window's
    /// [`KillPolicy`]. Requeued jobs keep their original release and
    /// deadline (and get a fresh expiry check, since the original one may
    /// already have fired while the job was running); jobs requeued past
    /// their deadline, and discarded jobs, count as fault-induced misses.
    fn kill_running(&mut self, processor: usize, policy: KillPolicy) {
        let Some(slot) = self.running.get_mut(processor) else {
            return;
        };
        let Some(run) = slot.take() else {
            return;
        };
        self.fault_counters.killed_jobs += 1;
        let job = run.job;
        match policy {
            KillPolicy::Requeue if self.now < job.absolute_deadline() => {
                self.fault_counters.requeued_jobs += 1;
                if self.config.expire_queued_jobs {
                    self.events.push(
                        job.absolute_deadline(),
                        EventKind::ExpiryCheck { job: job.id() },
                    );
                }
                self.enqueue(job);
            }
            KillPolicy::Requeue | KillPolicy::Discard => {
                self.stats
                    .on_outcome(job.task().index(), JobOutcome::Expired);
                self.fault_counters.fault_misses += 1;
                self.trace.record(TraceEvent::Expired {
                    time: self.now,
                    job: job.id(),
                    task: job.task(),
                });
            }
        }
    }
}

/// Whether `job` may run on `processor` under the per-task `affinity`.
#[inline]
fn eligible(affinity: &[Option<usize>], job: &Job, processor: usize) -> bool {
    affinity
        .get(job.task().index())
        .copied()
        .flatten()
        .is_none_or(|a| a == processor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FifoScheduler;
    use hcperf_taskgraph::{ExecModel, Priority, RateRange, Stage, TaskSpec};

    /// Linear 3-task chain: src -> mid -> sink, constant exec times.
    fn chain_graph(src_ms: f64, mid_ms: f64, sink_ms: f64, deadline_ms: f64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let src = b.add_task(
            TaskSpec::builder("src")
                .priority(Priority::new(2))
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(src_ms)))
                .relative_deadline(SimSpan::from_millis(deadline_ms))
                .rate_range(RateRange::from_hz(10.0, 10.0))
                .build()
                .unwrap(),
        );
        let mid = b.add_task(
            TaskSpec::builder("mid")
                .priority(Priority::new(1))
                .exec_model(ExecModel::constant(SimSpan::from_millis(mid_ms)))
                .relative_deadline(SimSpan::from_millis(deadline_ms))
                .build()
                .unwrap(),
        );
        let sink = b.add_task(
            TaskSpec::builder("sink")
                .priority(Priority::new(0))
                .stage(Stage::Control)
                .exec_model(ExecModel::constant(SimSpan::from_millis(sink_ms)))
                .relative_deadline(SimSpan::from_millis(deadline_ms))
                .build()
                .unwrap(),
        );
        b.add_edge(src, mid).unwrap();
        b.add_edge(mid, sink).unwrap();
        b.build().unwrap()
    }

    fn sim(graph: TaskGraph) -> Sim<FifoScheduler> {
        Sim::new(
            graph,
            SimConfig {
                processors: 2,
                trace_capacity: 10_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_processors() {
        let g = chain_graph(1.0, 1.0, 1.0, 50.0);
        let err = Sim::new(
            g,
            SimConfig {
                processors: 0,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NoProcessors);
    }

    #[test]
    fn chain_executes_end_to_end_and_emits_commands() {
        let mut s = sim(chain_graph(5.0, 5.0, 5.0, 50.0));
        s.run_until(SimTime::from_secs(1.0));
        // 10 Hz source over 1 s: releases at t = 0, 0.1, ..., 0.9 → at least
        // 9 complete chains (the t=0.9+ chain may straddle the horizon).
        let commands = s.drain_commands();
        assert!(commands.len() >= 9, "got {} commands", commands.len());
        // Each command's end-to-end latency = 15 ms (3 × 5 ms, no queueing).
        for cmd in &commands {
            assert!((cmd.end_to_end_latency().as_millis() - 15.0).abs() < 1e-6);
            assert!((cmd.response_time().as_millis() - 5.0).abs() < 1e-6);
        }
        // No deadline misses in this light load.
        assert_eq!(s.stats().totals().missed_late, 0);
        assert_eq!(s.stats().totals().expired, 0);
    }

    /// Keys the source's jobs only, and counts `select` calls.
    struct KeysSourceOnly {
        selects: usize,
    }

    impl Scheduler for KeysSourceOnly {
        fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
            self.selects += 1;
            ctx.candidates.first().copied()
        }

        fn release_key(&self, job: &Job, _graph: &TaskGraph) -> Option<u128> {
            (job.task().index() == 0).then_some(0)
        }

        fn name(&self) -> &str {
            "keys-source-only"
        }
    }

    #[test]
    fn first_unkeyed_job_sends_dispatch_through_select() {
        let mut s = Sim::new(
            chain_graph(5.0, 5.0, 5.0, 50.0),
            SimConfig {
                processors: 2,
                ..Default::default()
            },
            KeysSourceOnly { selects: 0 },
        )
        .unwrap();
        // Only the keyed source job has been released and dispatched.
        s.run_until(SimTime::from_millis(4.0));
        assert_eq!(s.stats().dispatched(), 1);
        assert_eq!(s.scheduler().selects, 0);
        // Its successor has no key: from then on `select` decides, for
        // the keyed source jobs as well.
        s.run_until(SimTime::from_secs(1.0));
        assert_eq!(s.scheduler().selects, s.stats().dispatched() as usize - 1);
        assert_eq!(s.drain_commands().len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let g = chain_graph(5.0, 5.0, 5.0, 50.0);
            let mut s = Sim::new(
                g,
                SimConfig {
                    seed,
                    ..Default::default()
                },
                FifoScheduler::new(),
            )
            .unwrap();
            s.run_until(SimTime::from_secs(2.0));
            (
                s.stats().released(),
                s.stats().totals(),
                s.drain_commands().len(),
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn missed_trigger_job_does_not_trigger_successor() {
        // src takes 30 ms but the deadline is 20 ms → every src job misses;
        // mid and sink are never released.
        let mut s = sim(chain_graph(30.0, 1.0, 1.0, 20.0));
        s.run_until(SimTime::from_secs(1.0));
        let mid = s.graph().find("mid").unwrap();
        assert_eq!(s.stats().task(mid.index()).released, 0);
        assert!(s.stats().totals().missed_late > 0);
        assert_eq!(s.drain_commands().len(), 0);
    }

    #[test]
    fn expired_jobs_are_removed_from_queue() {
        // One processor, src exec 150 ms at 10 Hz, deadline 50 ms: each job
        // monopolizes the processor past the next jobs' deadlines, so queued
        // jobs expire rather than accumulate.
        let g = chain_graph(150.0, 1.0, 1.0, 50.0);
        let mut s = Sim::new(
            g,
            SimConfig {
                processors: 1,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(2.0));
        assert!(s.stats().totals().expired > 0, "{:?}", s.stats().totals());
        assert!(
            s.ready_len() < 5,
            "queue stays bounded, got {}",
            s.ready_len()
        );
    }

    #[test]
    fn rate_change_takes_effect() {
        let g = chain_graph(1.0, 1.0, 1.0, 50.0);
        let src = g.find("src").unwrap();
        let mut s = sim(g);
        // Range is [10, 10] Hz; clamped rate change keeps 10 Hz.
        let applied = s.set_source_rate(src, Rate::from_hz(100.0)).unwrap();
        assert_eq!(applied, Rate::from_hz(10.0));
        // Non-source rejection.
        let mid = s.graph().find("mid").unwrap();
        assert_eq!(
            s.set_source_rate(mid, Rate::from_hz(10.0)).unwrap_err(),
            SimError::NotASource(mid)
        );
    }

    #[test]
    fn rate_increase_raises_release_count() {
        // Give the source a wide range and compare release counts.
        let mut b = TaskGraph::builder();
        let src = b.add_task(
            TaskSpec::builder("src")
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(1.0)))
                .relative_deadline(SimSpan::from_millis(50.0))
                .rate_range(RateRange::from_hz(10.0, 100.0))
                .build()
                .unwrap(),
        );
        let g = b.build().unwrap();
        let mut s = sim(g.clone());
        s.run_until(SimTime::from_secs(1.0));
        let low_rate_released = s.stats().released();

        let mut s2 = sim(g);
        s2.set_source_rate(src, Rate::from_hz(100.0)).unwrap();
        s2.run_until(SimTime::from_secs(1.0));
        let high_rate_released = s2.stats().released();
        assert!(
            high_rate_released > low_rate_released * 5,
            "{high_rate_released} vs {low_rate_released}"
        );
    }

    #[test]
    fn affinity_restricts_processor() {
        // Task bound to processor 1 never runs on processor 0.
        let mut b = TaskGraph::builder();
        b.add_task(
            TaskSpec::builder("bound")
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(5.0)))
                .relative_deadline(SimSpan::from_millis(100.0))
                .rate_range(RateRange::from_hz(20.0, 20.0))
                .affinity(1)
                .build()
                .unwrap(),
        );
        let g = b.build().unwrap();
        let mut s = sim(g);
        s.run_until(SimTime::from_secs(1.0));
        for e in s.trace().events() {
            if let TraceEvent::Dispatched { processor, .. } = e {
                assert_eq!(*processor, 1);
            }
        }
        assert!(s.stats().totals().met > 10);
    }

    #[test]
    fn observed_exec_updates_after_run() {
        let g = chain_graph(5.0, 7.0, 3.0, 50.0);
        let mid = g.find("mid").unwrap();
        let mut s = sim(g);
        // Before any run, the observation equals the nominal.
        assert!((s.observed_exec(mid).as_millis() - 7.0).abs() < 1e-9);
        s.run_until(SimTime::from_secs(0.5));
        assert!((s.observed_exec(mid).as_millis() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut s = sim(chain_graph(5.0, 5.0, 5.0, 50.0));
        s.run_until(SimTime::from_secs(0.2));
        let kinds: Vec<&str> = s
            .trace()
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Released { .. } => "rel",
                TraceEvent::Dispatched { .. } => "disp",
                TraceEvent::Completed { .. } => "done",
                TraceEvent::Expired { .. } => "exp",
            })
            .collect();
        assert!(kinds.contains(&"rel"));
        assert!(kinds.contains(&"disp"));
        assert!(kinds.contains(&"done"));
    }

    #[test]
    fn snapshot_reflects_engine_state() {
        let mut s = sim(chain_graph(5.0, 5.0, 5.0, 50.0));
        let before = s.snapshot();
        assert_eq!(before.now, SimTime::ZERO);
        assert_eq!(before.running_jobs, 0);
        assert_eq!(before.source_rates_hz, vec![10.0]);
        s.run_until(SimTime::from_millis(2.0));
        let during = s.snapshot();
        assert_eq!(during.now, SimTime::from_millis(2.0));
        // The first source job (5 ms) is still running.
        assert_eq!(during.running_jobs, 1);
        assert!(during.pending_events > 0);
        assert_eq!(during.pending_gpu_outputs, 0);
    }

    #[test]
    fn clock_advances_to_horizon_without_events() {
        let mut s = sim(chain_graph(1.0, 1.0, 1.0, 50.0));
        s.run_until(SimTime::from_secs(0.05));
        assert_eq!(s.now(), SimTime::from_secs(0.05));
        s.run_until(SimTime::from_secs(0.06));
        assert_eq!(s.now(), SimTime::from_secs(0.06));
    }

    /// Diamond with two sources for join-policy tests:
    /// `src_a -> mid`, `src_b -> mid`, `mid -> sink`.
    fn join_graph(b_exec_ms: f64, b_deadline_ms: f64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let a = b.add_task(
            TaskSpec::builder("src_a")
                .stage(Stage::Sensing)
                .priority(Priority::new(1))
                .exec_model(ExecModel::constant(SimSpan::from_millis(2.0)))
                .relative_deadline(SimSpan::from_millis(50.0))
                .rate_range(RateRange::from_hz(10.0, 10.0))
                .build()
                .unwrap(),
        );
        let bb = b.add_task(
            TaskSpec::builder("src_b")
                .stage(Stage::Sensing)
                .priority(Priority::new(2))
                .exec_model(ExecModel::constant(SimSpan::from_millis(b_exec_ms)))
                .relative_deadline(SimSpan::from_millis(b_deadline_ms))
                .rate_range(RateRange::from_hz(10.0, 10.0))
                .build()
                .unwrap(),
        );
        let mid = b.add_task(
            TaskSpec::builder("mid")
                .priority(Priority::new(0))
                .exec_model(ExecModel::constant(SimSpan::from_millis(2.0)))
                .relative_deadline(SimSpan::from_millis(50.0))
                .build()
                .unwrap(),
        );
        let sink = b.add_task(
            TaskSpec::builder("sink")
                .stage(Stage::Control)
                .priority(Priority::new(0))
                .exec_model(ExecModel::constant(SimSpan::from_millis(1.0)))
                .relative_deadline(SimSpan::from_millis(50.0))
                .build()
                .unwrap(),
        );
        b.add_edge(a, mid).unwrap();
        b.add_edge(bb, mid).unwrap();
        b.add_edge(mid, sink).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn same_cycle_join_waits_for_both_predecessors() {
        // src_b takes 30 ms: mid must not release before both are done.
        let g = join_graph(30.0, 50.0);
        let mut s = Sim::new(
            g,
            SimConfig {
                processors: 2,
                trace_capacity: 10_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(0.5));
        let mid = s.graph().find("mid").unwrap();
        let src_b = s.graph().find("src_b").unwrap();
        // Every mid release happens at/after the matching src_b completion
        // (30 ms into the cycle).
        let mut completions = vec![];
        for e in s.trace().events() {
            match e {
                TraceEvent::Completed { time, task, .. } if *task == src_b => {
                    completions.push(*time)
                }
                TraceEvent::Released { time, task, .. } if *task == mid => {
                    assert!(
                        completions.iter().any(|c| *c <= *time),
                        "mid released before src_b completed"
                    );
                }
                _ => {}
            }
        }
        assert!(s.stats().task(mid.index()).released >= 4);
        assert!(s.stats().commands_emitted() >= 4);
    }

    #[test]
    fn same_cycle_kills_cycle_when_one_predecessor_misses() {
        // src_b takes 30 ms but its deadline is 20 ms: every cycle's join
        // stays incomplete and no command is ever emitted.
        let g = join_graph(30.0, 20.0);
        let mut s = Sim::new(
            g,
            SimConfig {
                processors: 2,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(1.0));
        let mid = s.graph().find("mid").unwrap();
        assert_eq!(s.stats().task(mid.index()).released, 0);
        assert_eq!(s.stats().commands_emitted(), 0);
        assert!(s.stats().totals().missed_late > 0);
    }

    #[test]
    fn same_cycle_dead_joins_are_pruned() {
        // Every cycle's join on `mid` dies (src_b always misses), leaving
        // one open entry per cycle; the 256-cycle prune keeps at most the
        // 128 cycles before the latest prune point plus the 256 since.
        let g = join_graph(30.0, 20.0);
        let mut s = Sim::new(
            g,
            SimConfig {
                processors: 2,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        let mut most = 0;
        for step in 1..=100 {
            s.run_until(SimTime::from_secs(f64::from(step)));
            let open = s.joins.entries().len();
            most = most.max(open);
            assert!(open <= 128 + 256, "{open}");
            assert!(s.joins.lists_sorted());
        }
        assert!(
            s.pipeline_cycle >= 3 * 256,
            "the run crosses several prunes"
        );
        assert!(most > 256, "dead joins did accumulate between prunes");
        let oldest = s.joins.entries().first().map_or(u64::MAX, |&(c, _, _)| c);
        assert!(oldest >= (s.pipeline_cycle / 256 * 256).saturating_sub(128));
    }

    #[test]
    fn pipeline_advances_at_the_slowest_source_rate() {
        // Two sources at 10 Hz and 20 Hz joined by one sink: every cycle
        // releases each source once, 100 ms apart (the slower period).
        let mut b = TaskGraph::builder();
        let mut source = |name: &str, min_hz: f64| {
            b.add_task(
                TaskSpec::builder(name)
                    .stage(Stage::Sensing)
                    .exec_model(ExecModel::constant(SimSpan::from_millis(1.0)))
                    .relative_deadline(SimSpan::from_millis(50.0))
                    .rate_range(RateRange::from_hz(min_hz, 80.0))
                    .build()
                    .unwrap(),
            )
        };
        let slow = source("slow", 10.0);
        let fast = source("fast", 20.0);
        let sink = b.add_task(
            TaskSpec::builder("sink")
                .stage(Stage::Control)
                .exec_model(ExecModel::constant(SimSpan::from_millis(1.0)))
                .relative_deadline(SimSpan::from_millis(50.0))
                .build()
                .unwrap(),
        );
        b.add_edge(slow, sink).unwrap();
        b.add_edge(fast, sink).unwrap();
        let g = b.build().unwrap();
        let run = |rates: &[(TaskId, f64)]| {
            let mut s = Sim::new(
                g.clone(),
                SimConfig {
                    trace_capacity: 10_000,
                    ..Default::default()
                },
                FifoScheduler::new(),
            )
            .unwrap();
            for &(task, hz) in rates {
                s.set_source_rate(task, Rate::from_hz(hz)).unwrap();
            }
            s.run_until(SimTime::from_secs(0.95));
            let mut releases: Vec<(TaskId, u64, f64)> = s
                .trace()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Released {
                        time, task, cycle, ..
                    } if *task != sink => Some((*task, *cycle, time.as_secs())),
                    _ => None,
                })
                .collect();
            releases.sort_by_key(|&(task, cycle, _)| (cycle, task));
            releases
        };
        let base = run(&[]);
        assert_eq!(base.len(), 2 * 10, "{base:?}");
        for (k, pair) in base.chunks(2).enumerate() {
            let k = k as u64;
            assert_eq!(pair[0].0, slow);
            assert_eq!(pair[1].0, fast);
            for &(_, cycle, time) in pair {
                assert_eq!(cycle, k);
                assert!((time - k as f64 * 0.1).abs() < 1e-9, "cycle {k} at {time}");
            }
        }
        // Raising only the faster source leaves the pipeline at 10 Hz …
        assert_eq!(run(&[(fast, 40.0)]), base);
        // … while raising the slower one to 20 Hz doubles the cycles.
        assert_eq!(run(&[(slow, 20.0)]).len(), 2 * 19);
    }

    #[test]
    fn release_jitter_perturbs_periods_deterministically() {
        let g = chain_graph(1.0, 1.0, 1.0, 50.0);
        let run = |jitter: f64, seed: u64| {
            let mut s = Sim::new(
                g.clone(),
                SimConfig {
                    seed,
                    release_jitter_frac: jitter,
                    trace_capacity: 10_000,
                    ..Default::default()
                },
                FifoScheduler::new(),
            )
            .unwrap();
            s.run_until(SimTime::from_secs(2.0));
            let src = s.graph().find("src").unwrap();
            let times: Vec<f64> = s
                .trace()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Released { time, task, .. } if *task == src => Some(time.as_secs()),
                    _ => None,
                })
                .collect();
            times
        };
        let clean = run(0.0, 1);
        // Without jitter, releases are exactly periodic at 100 ms.
        for (k, t) in clean.iter().enumerate() {
            assert!((t - k as f64 * 0.1).abs() < 1e-9);
        }
        let jittered = run(0.2, 1);
        // With jitter the periods deviate but stay within ±20 %.
        let mut deviated = false;
        for w in jittered.windows(2) {
            let period = w[1] - w[0];
            assert!((0.079..=0.121).contains(&period), "period {period}");
            if (period - 0.1).abs() > 1e-6 {
                deviated = true;
            }
        }
        assert!(deviated, "jitter must actually perturb the periods");
        // And it is deterministic per seed.
        assert_eq!(jittered, run(0.2, 1));
    }

    /// src (with optional GPU phase) -> sink, one processor.
    fn gpu_graph(gpu_ms: Option<f64>, deadline_ms: f64) -> TaskGraph {
        let mut b = TaskGraph::builder();
        let mut src = TaskSpec::builder("src")
            .stage(Stage::Sensing)
            .exec_model(ExecModel::constant(SimSpan::from_millis(5.0)))
            .relative_deadline(SimSpan::from_millis(deadline_ms))
            .rate_range(RateRange::from_hz(10.0, 10.0));
        if let Some(ms) = gpu_ms {
            src = src.gpu_model(ExecModel::constant(SimSpan::from_millis(ms)));
        }
        let src = b.add_task(src.build().unwrap());
        let sink = b.add_task(
            TaskSpec::builder("sink")
                .stage(Stage::Control)
                .exec_model(ExecModel::constant(SimSpan::from_millis(1.0)))
                .relative_deadline(SimSpan::from_millis(deadline_ms))
                .build()
                .unwrap(),
        );
        b.add_edge(src, sink).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn gpu_delay_postpones_successor_release() {
        // Without GPU, the sink releases 5 ms into each cycle; with a 20 ms
        // GPU phase it releases at 25 ms. The processor is free in between.
        let run = |gpu: Option<f64>| {
            let mut s = Sim::new(
                gpu_graph(gpu, 80.0),
                SimConfig {
                    processors: 1,
                    trace_capacity: 10_000,
                    ..Default::default()
                },
                FifoScheduler::new(),
            )
            .unwrap();
            s.run_until(SimTime::from_secs(0.5));
            let sink = s.graph().find("sink").unwrap();
            let first_release = s
                .trace()
                .events()
                .iter()
                .find_map(|e| match e {
                    TraceEvent::Released { time, task, .. } if *task == sink => Some(*time),
                    _ => None,
                })
                .expect("sink released");
            (first_release, s.stats().commands_emitted())
        };
        let (plain_release, plain_cmds) = run(None);
        let (gpu_release, gpu_cmds) = run(Some(20.0));
        assert!((plain_release.as_millis() - 5.0).abs() < 1e-6);
        assert!((gpu_release.as_millis() - 25.0).abs() < 1e-6);
        // Commands still flow in both cases.
        assert!(plain_cmds >= 4);
        assert!(gpu_cmds >= 4);
    }

    #[test]
    fn gpu_delay_counts_toward_the_deadline() {
        // 5 ms CPU + 30 ms GPU against a 20 ms deadline: every job misses
        // even though the CPU phase finished well in time.
        let mut s = Sim::new(
            gpu_graph(Some(30.0), 20.0),
            SimConfig {
                processors: 1,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(1.0));
        let src = s.graph().find("src").unwrap();
        let st = s.stats().task(src.index());
        assert!(st.missed_late >= 8, "{st:?}");
        assert_eq!(st.met, 0);
        assert_eq!(s.stats().commands_emitted(), 0);
    }

    #[test]
    fn gpu_delay_does_not_occupy_the_processor() {
        // Two independent GPU-heavy sources on ONE processor: CPU phases are
        // 5 ms each, GPU 50 ms. If the GPU wrongly occupied the processor,
        // one source would starve; both must meet all deadlines.
        let mut b = TaskGraph::builder();
        for name in ["a", "b"] {
            b.add_task(
                TaskSpec::builder(name)
                    .stage(Stage::Sensing)
                    .exec_model(ExecModel::constant(SimSpan::from_millis(5.0)))
                    .gpu_model(ExecModel::constant(SimSpan::from_millis(50.0)))
                    .relative_deadline(SimSpan::from_millis(90.0))
                    .rate_range(RateRange::from_hz(10.0, 10.0))
                    .build()
                    .unwrap(),
            );
        }
        let mut s = Sim::new(
            b.build().unwrap(),
            SimConfig {
                processors: 1,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(1.0));
        let totals = s.stats().totals();
        assert_eq!(totals.missed_late + totals.expired, 0, "{totals:?}");
        assert!(totals.met >= 18);
    }

    #[test]
    fn observed_exec_is_unchanged_while_a_job_is_running() {
        // One source with a genuinely variable execution time: the sampled
        // duration of the in-flight job must stay invisible until the run
        // completes (no clairvoyant c_i).
        let mut b = TaskGraph::builder();
        b.add_task(
            TaskSpec::builder("src")
                .stage(Stage::Sensing)
                .exec_model(ExecModel::uniform(
                    SimSpan::from_millis(10.0),
                    SimSpan::from_millis(20.0),
                ))
                .relative_deadline(SimSpan::from_millis(50.0))
                .rate_range(RateRange::from_hz(10.0, 10.0))
                .build()
                .unwrap(),
        );
        let g = b.build().unwrap();
        let src = g.find("src").unwrap();
        let nominal_ms = 15.0; // uniform nominal = midpoint
        let mut s = Sim::new(
            g,
            SimConfig {
                processors: 1,
                trace_capacity: 1_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        // t = 5 ms: the first job (exec ≥ 10 ms) was dispatched at t = 0 and
        // is still running; the observation must still be the nominal.
        s.run_until(SimTime::from_millis(5.0));
        assert_eq!(s.snapshot().running_jobs, 1);
        assert!((s.observed_exec(src).as_millis() - nominal_ms).abs() < 1e-9);
        // t = 30 ms: the job completed; the observation now equals the
        // measured duration dispatch → completion from the trace.
        s.run_until(SimTime::from_millis(30.0));
        let dispatched = s
            .trace()
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Dispatched { time, .. } => Some(*time),
                _ => None,
            })
            .expect("job dispatched");
        let completed = s
            .trace()
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Completed { time, .. } => Some(*time),
                _ => None,
            })
            .expect("job completed");
        let measured = completed - dispatched;
        assert!((s.observed_exec(src).as_secs() - measured.as_secs()).abs() < 1e-12);
        assert!((10.0..=20.0).contains(&measured.as_millis()));
    }

    #[test]
    fn cycle_bookkeeping_matches_released_jobs() {
        // One global counter stamps every source identically: each
        // source's releases carry cycles 0, 1, 2, … and their count is
        // the pipeline cycle counter.
        let collect = |s: &Sim<FifoScheduler>, task: TaskId| -> Vec<u64> {
            s.trace()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Released { task: t, cycle, .. } if *t == task => Some(*cycle),
                    _ => None,
                })
                .collect()
        };
        let g = join_graph(2.0, 50.0);
        let mut s = Sim::new(
            g,
            SimConfig {
                processors: 2,
                trace_capacity: 10_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(0.55));
        for name in ["src_a", "src_b"] {
            let t = s.graph().find(name).unwrap();
            let seen = collect(&s, t);
            assert!(!seen.is_empty());
            assert_eq!(seen, (0..seen.len() as u64).collect::<Vec<_>>());
            assert_eq!(seen.len() as u64, s.pipeline_cycle, "{name}");
        }
    }

    #[test]
    fn ready_index_survives_expiry_and_affinity_churn() {
        // Overloaded single-processor run with an affinity-pinned task and
        // queued-job expiry: the affinity-partitioned ready index must stay
        // consistent with the queue through swap_remove-based removal.
        let mut b = TaskGraph::builder();
        b.add_task(
            TaskSpec::builder("pinned")
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(40.0)))
                .relative_deadline(SimSpan::from_millis(60.0))
                .rate_range(RateRange::from_hz(20.0, 20.0))
                .affinity(0)
                .build()
                .unwrap(),
        );
        b.add_task(
            TaskSpec::builder("floating")
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(30.0)))
                .relative_deadline(SimSpan::from_millis(60.0))
                .rate_range(RateRange::from_hz(20.0, 20.0))
                .build()
                .unwrap(),
        );
        let mut s = Sim::new(
            b.build().unwrap(),
            SimConfig {
                processors: 1,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        s.run_until(SimTime::from_secs(2.0));
        let pinned_count = s.ready_pinned[0];
        let free_count = s.ready_free;
        assert_eq!(pinned_count + free_count, s.ready.len());
        assert!(s.stats().totals().expired > 0, "{:?}", s.stats().totals());
        assert!(s.stats().totals().met > 0, "{:?}", s.stats().totals());
    }

    /// A processor failure kills the job running on it, keeps the
    /// processor out of dispatch for the window, and leaves the killed
    /// run's completion event queued; that stale completion must change
    /// nothing.
    #[test]
    fn processor_fail_window_requeues_or_discards_the_killed_job() {
        let run = |policy: KillPolicy| {
            // One processor; the source job runs 0-40 ms, the failure
            // window is [10, 30) ms, and the deadline (90 ms) outlives it.
            let mut s = Sim::new(
                chain_graph(40.0, 1.0, 1.0, 90.0),
                SimConfig {
                    processors: 1,
                    trace_capacity: 10_000,
                    ..Default::default()
                },
                FifoScheduler::new(),
            )
            .unwrap();
            s.inject_fault(FaultWindow {
                start: SimTime::from_millis(10.0),
                end: SimTime::from_millis(30.0),
                effect: FaultEffect::ProcessorFail {
                    processor: 0,
                    policy,
                },
            })
            .unwrap();
            let mut seen = Vec::new();
            for ms in [5.0, 20.0, 35.0, 45.0, 190.0] {
                s.run_until(SimTime::from_millis(ms));
                let busy = s.running.iter().filter(|r| r.is_some()).count();
                seen.push((busy, s.ready_len()));
            }
            let src = s.graph().find("src").unwrap();
            let dispatched_at: Vec<f64> = s
                .trace()
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Dispatched { time, task, .. } if *task == src => {
                        Some(time.as_millis())
                    }
                    _ => None,
                })
                .collect();
            (s, seen, dispatched_at)
        };

        // Requeue: the killed job waits out the window, runs 30-70 ms and
        // meets its deadline; the stale 40 ms completion finds a run that
        // finishes at 70 ms and is ignored.
        let (s, seen, dispatched_at) = run(KillPolicy::Requeue);
        assert_eq!(seen, vec![(1, 0), (0, 1), (1, 0), (1, 0), (0, 0)]);
        assert_eq!(dispatched_at, vec![0.0, 30.0, 100.0]);
        let faults = s.fault_counters();
        assert_eq!((faults.killed_jobs, faults.requeued_jobs), (1, 1));
        assert_eq!(faults.fault_misses, 0);
        assert_eq!(s.stats().commands_emitted(), 2);

        // Discard: the killed job is a fault miss; the stale 40 ms
        // completion finds the slot empty and is ignored, and the next
        // release dispatches as usual.
        let (s, seen, dispatched_at) = run(KillPolicy::Discard);
        assert_eq!(seen, vec![(1, 0), (0, 0), (0, 0), (0, 0), (0, 0)]);
        assert_eq!(dispatched_at, vec![0.0, 100.0]);
        let faults = s.fault_counters();
        assert_eq!((faults.killed_jobs, faults.requeued_jobs), (1, 0));
        assert_eq!(faults.fault_misses, 1);
        assert_eq!(s.stats().totals().expired, 1);
        assert_eq!(s.stats().commands_emitted(), 1);
    }

    #[test]
    fn utilization_reflects_load() {
        let g = chain_graph(30.0, 30.0, 30.0, 200.0);
        let mut s = sim(g);
        s.run_until(SimTime::from_secs(2.0));
        let util = s.stats().mean_utilization(s.now());
        // 3 × 30 ms per 100 ms cycle on 2 processors ≈ 45 % mean utilization.
        assert!((0.3..0.6).contains(&util), "utilization {util}");
    }
}
