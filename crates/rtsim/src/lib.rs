//! Discrete-event multiprocessor real-time simulator.
//!
//! This crate is the runtime substrate of the HCPerf reproduction: it plays
//! the role the Apollo-based "Auto-Driving Simulator" plays in the paper's
//! simulation testbed (Fig. 9). It executes a
//! [`TaskGraph`](hcperf_taskgraph::TaskGraph) on `M` identical processors
//! under a pluggable non-preemptive [`Scheduler`], with:
//!
//! * periodic source releases at adjustable rates,
//! * trigger-predecessor DAG propagation (latest-value fusion),
//! * per-job deadline accounting with output discard on miss,
//! * control-command emission at sink completions,
//! * windowed deadline-miss statistics for the external coordinator, and
//! * deterministic seeded execution-time sampling.
//!
//! # Examples
//!
//! ```
//! use hcperf_rtsim::{FifoScheduler, Sim, SimConfig};
//! use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
//! use hcperf_taskgraph::SimTime;
//!
//! let graph = apollo_graph(&GraphOptions::default())?;
//! let mut sim = Sim::new(graph, SimConfig::default(), FifoScheduler::new())?;
//! sim.run_until(SimTime::from_secs(2.0));
//! let window = sim.stats_mut().take_window();
//! assert!(window.total() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod event;
pub mod fault;
pub mod gantt;
pub mod job;
mod join;
pub mod scheduler;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod trace_json;

pub use fault::{FaultCounters, FaultEffect, FaultWindow, KillPolicy};
pub use gantt::RenderError;
pub use job::{ControlCommand, Job, JobId, JobOutcome};
pub use scheduler::{order_image, FifoScheduler, SchedContext, Scheduler};
pub use sim::{JoinPolicy, Sim, SimConfig, SimError, SimSnapshot};
pub use stats::{percentile, SimStats, TaskStats, WindowStats};
pub use trace::{Trace, TraceEvent};
