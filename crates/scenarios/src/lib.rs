//! Closed-loop driving experiment harness.
//!
//! This crate reproduces the paper's evaluation scenarios by coupling the
//! [`hcperf_rtsim`] task simulator with the [`hcperf_vehicle`] dynamics
//! models and the [`hcperf`] coordinators:
//!
//! * [`car_following`] — § VII-B1 simulation and § VII-B3 hardware
//!   (Fig. 13/15, Tables II/III/V/VI);
//! * [`lane_keeping`] — § VII-B2 oval loop (Fig. 14, Table IV);
//! * [`fleet`] — the fleet-scale streaming simulation service behind
//!   `hcperf fleet`: N vehicles sharded over the harness pool with
//!   bit-reproducible JSONL output and running aggregates;
//! * [`motivation`] — the § II red-light study (Fig. 4);
//! * [`traffic_jam`] — the § VII-C responsiveness/throughput study
//!   (Fig. 16/17);
//! * [`runner`] — run one scenario across all five schemes;
//! * `closed_loop` (crate-private) — the one sense/compute/actuate/
//!   coordinate loop the scenarios run, generic over their vehicle `Plant`;
//! * [`metrics`] / [`report`] — RMS/series recording and paper-style
//!   tables / CSV output.
//!
//! The physical coupling is faithful to how scheduling hurts driving: a
//! control command only reaches the vehicle when the pipeline's sink task
//! completes within its deadlines, and the command was computed from the
//! measurements captured when its chain's *source* released — so deadline
//! misses translate into stale, sparse actuation.
//!
//! # Examples
//!
//! ```no_run
//! use hcperf::Scheme;
//! use hcperf_scenarios::car_following::{run_car_following, CarFollowingConfig};
//!
//! let config = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
//! let result = run_car_following(&config)?;
//! println!("Table II row: {:.2} m/s RMS", result.rms_speed_error);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod car_following;
mod closed_loop;
pub mod fleet;
pub mod lane_keeping;
pub mod metrics;
pub mod motivation;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod sweep;
pub mod traffic_jam;

pub use car_following::{
    run_car_following, run_car_following_with_telemetry, CarFollowingConfig, CarFollowingResult,
    DegradedTelemetry, ScenarioError,
};
pub use fleet::{run_fleet, FleetAggregate, FleetConfig, FleetPreset, FleetSummary, VehicleRecord};
pub use lane_keeping::{run_lane_keeping, LaneKeepingConfig, LaneKeepingResult};
pub use metrics::TimeSeries;
pub use motivation::{run_motivation, MotivationConfig, MotivationResult};
pub use robustness::{traction_loss_comparison, RecoveryRow, TractionLossConfig};
pub use runner::{
    compare_car_following, compare_car_following_parallel, compare_car_following_seeded,
    compare_car_following_seeded_parallel, compare_lane_keeping, compare_lane_keeping_parallel,
    SeedStats, SeededComparison,
};
pub use sweep::{knee, rate_sweep, rate_sweep_parallel, SweepConfig, SweepPoint};
pub use traffic_jam::{analyze_responsiveness, traffic_jam_config, ResponsivenessReport};
