//! Vehicle dynamics substrate for the HCPerf reproduction.
//!
//! Plays the role of the paper's "Vehicle Control Simulator" (Fig. 9) and
//! of the 1:10 scaled-car hardware testbed (Fig. 10):
//!
//! * [`LongitudinalCar`] — point-mass speed dynamics with actuator lag
//!   (throttle lag is what makes the hardware testbed § VII-B3 harder).
//! * [`BicycleCar`] + [`OvalTrack`] — Frenet-frame kinematic bicycle for
//!   lane keeping on the § VII-B2 oval loop.
//! * [`LeadProfile`] — the evaluation's lead-car speed profiles (sine,
//!   trapezoid, red-light stop, traffic jam).
//! * [`CarFollowController`] / [`LaneKeepController`] — the control laws
//!   the *control task* computes; the scheduler decides when their output
//!   reaches the vehicle.
//! * [`NoisySensor`] — the measurement noise of the hardware testbed.
//!
//! # Examples
//!
//! ```
//! use hcperf_vehicle::{CarFollowController, FollowConfig, LeadProfile,
//!                      LongitudinalCar, LongitudinalConfig};
//!
//! let lead = LeadProfile::paper_sine();
//! let mut ctrl = CarFollowController::new(FollowConfig::default());
//! let mut car = LongitudinalCar::with_state(LongitudinalConfig::default(), -30.0, 15.0);
//! let accel = ctrl.command(lead.speed_at(0.0), 0.0, car.speed(), 30.0, 0.05);
//! car.step(accel, 0.05);
//! ```

pub mod follow;
pub mod lateral;
pub mod lead;
pub mod longitudinal;
pub mod sensor;
pub mod track;

pub use follow::{CarFollowController, FollowConfig};
pub use lateral::{BicycleCar, BicycleConfig, LaneKeepController};
pub use lead::LeadProfile;
pub use longitudinal::{LongitudinalCar, LongitudinalConfig};
pub use sensor::NoisySensor;
pub use track::{OvalTrack, Track};
