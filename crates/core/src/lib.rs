//! # HCPerf — performance-directed hierarchical coordination
//!
//! Reproduction of *"HCPerf: Driving Performance-Directed Hierarchical
//! Coordination for Autonomous Vehicles"* (ICDCS 2023). Autonomous-driving
//! task pipelines have heavy execution-time variation (sensor fusion is
//! `O(n³)` in the obstacle count) and end-to-end deadlines from sensing to
//! control; HCPerf schedules them *directed by the vehicle's own driving
//! performance*:
//!
//! * **Internal coordinator** — the
//!   [`pdc::PerformanceDirectedController`]
//!   (Model-Free Control, § IV) maps the driving tracking error to a
//!   nominal parameter `u(t)`; the
//!   [`dps::DynamicPriorityScheduler`] (§ V)
//!   clamps it into the deadline-feasible range `[0, γ_max]` (Eq. 11–12)
//!   and dispatches by the dynamic priority `P_i = γ·p_i + d_i` (Eq. 10).
//! * **External coordinator** — the
//!   [`rate_adapter::TaskRateAdapter`] (§ VI) tunes the
//!   source-task rates by proportional feedback on the deadline-miss ratio
//!   (Eq. 13).
//! * **Baselines** — [`baselines::Hpf`], [`baselines::Edf`],
//!   [`baselines::EdfVd`] and [`baselines::ApolloStatic`], unified with the
//!   HCPerf scheduler under [`Scheme`]/[`SchedulerKind`].
//!
//! The schedulers plug into the [`hcperf_rtsim`] discrete-event simulator;
//! the closed driving loop lives in the `hcperf-scenarios` crate.
//!
//! # Examples
//!
//! ```
//! use hcperf::{CoordinatorConfig, DpsConfig, HcPerf, PeriodInput, Scheme};
//! use hcperf_rtsim::{Sim, SimConfig};
//! use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
//! use hcperf_taskgraph::SimTime;
//!
//! // Build the 23-task evaluation graph and run it under HCPerf.
//! let graph = apollo_graph(&GraphOptions { with_affinity: false, ..Default::default() })?;
//! let mut coordinator = HcPerf::new(CoordinatorConfig::default(), &graph)?;
//! let scheduler = Scheme::HcPerf.build(DpsConfig::default());
//! let mut sim = Sim::new(graph, SimConfig::default(), scheduler)?;
//!
//! // One control period of the closed loop.
//! sim.run_until(SimTime::from_millis(100.0));
//! let window = sim.stats_mut().take_window();
//! let rates = sim.source_rates();
//! let decision = coordinator.on_period(PeriodInput {
//!     tracking_error: 0.8,        // from the vehicle model
//!     miss_ratio: window.miss_ratio(),
//!     exec_signal: 0.02,
//!     current_rates: &rates,
//! });
//! sim.scheduler_mut().set_nominal_u(decision.nominal_u);
//! for (task, rate) in decision.new_rates {
//!     sim.set_source_rate(task, rate)?;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod baselines;
pub mod coordinator;
pub mod dps;
pub mod pdc;
pub mod rate_adapter;
pub mod rta;
pub mod scheme;

pub use analysis::{analyze, SchedulabilityReport};
pub use coordinator::{CoordinatorConfig, HcPerf, PeriodDecision, PeriodInput};
pub use dps::{DpsConfig, DynamicPriorityScheduler, GammaCounters, GammaSearch};
pub use pdc::{PdcConfig, PerformanceDirectedController};
pub use rate_adapter::{RateAdapterConfig, SourceSlot, TaskRateAdapter};
pub use rta::{rta_fixed_priority, RtaResult};
pub use scheme::{SchedulerKind, Scheme};
