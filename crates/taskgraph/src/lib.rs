//! DAG task model for autonomous-driving workloads.
//!
//! This crate is the workload substrate of the HCPerf reproduction
//! (ICDCS 2023): it models the periodic, precedence-constrained tasks an
//! autonomous-driving runtime executes, together with their execution-time
//! behaviour.
//!
//! # Overview
//!
//! * [`TaskSpec`] / [`TaskId`] — one node of the pipeline with its static
//!   priority `p_i`, relative deadline `D_i`, execution-time model and,
//!   for source tasks, an allowable release-rate range (Eq. 1c).
//! * [`TaskGraph`] — a validated DAG with topological order and
//!   source/sink discovery; a task joins all of its predecessors.
//! * [`ExecModel`] — execution-time families including the Hungarian
//!   `O(n³)` obstacle-dependent model of configurable sensor fusion and the
//!   evaluation's step regime change.
//! * [`LoadProfile`] — obstacle count over time (red lights, traffic jams).
//! * [`graphs`] — the paper's Fig. 2 motivation graph and Fig. 11 23-task
//!   evaluation graph.
//!
//! # Examples
//!
//! ```
//! use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
//!
//! let graph = apollo_graph(&GraphOptions::default())?;
//! assert_eq!(graph.len(), 23);
//! let fusion = graph.find("sensor_fusion").expect("fusion exists");
//! assert!(!graph.ipred(fusion).is_empty());
//! # Ok::<(), hcperf_taskgraph::GraphError>(())
//! ```

pub mod exec;
pub mod graph;
pub mod graphs;
pub mod load;
pub mod rate;
pub mod task;
pub mod time;

pub use exec::{ExecContext, ExecModel};
pub use graph::{Edge, GraphError, TaskGraph, TaskGraphBuilder};
pub use load::LoadProfile;
pub use rate::{InvalidRateRange, Rate, RateRange};
pub use task::{BuildTaskError, Criticality, Priority, Stage, TaskId, TaskSpec, TaskSpecBuilder};
pub use time::{SimSpan, SimTime};
