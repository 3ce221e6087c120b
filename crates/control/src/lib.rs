//! Control-theory substrate for the HCPerf reproduction.
//!
//! The paper's Performance Directed Controller is built on **Model-Free
//! Control** (MFC, Fliess & Join 2013) with **Algebraic Differentiation
//! Estimation** (ADE) of the error derivative; the Task Rate Adapter and the
//! vehicle models use classical PID loops and first-order filters. This crate implements those pieces as a small, dependency-free
//! control library:
//!
//! * [`AlgebraicDifferentiator`] — Eq. 6: noise-attenuating derivative
//!   estimation over a sliding window.
//! * [`ModelFreeControl`] — Eq. 2–5: ultra-local model + feedback law.
//! * [`Pid`] — the classical loop for vehicle actuation.
//! * [`LowPass`], [`SlidingWindow`] — signal conditioning and windowed
//!   statistics (RMS errors, discomfort/jerk).
//!
//! # Examples
//!
//! ```
//! use hcperf_control::{MfcConfig, ModelFreeControl};
//!
//! let mut mfc = ModelFreeControl::new(MfcConfig::default())?;
//! let u = mfc.step(1.2); // measured tracking error -> nominal command
//! assert!(u.is_finite());
//! # Ok::<(), hcperf_control::MfcConfigError>(())
//! ```

pub mod ade;
pub mod filter;
pub mod mfc;
pub mod pid;

pub use ade::{AdeConfigError, AlgebraicDifferentiator};
pub use filter::{LowPass, SlidingWindow};
pub use mfc::{MfcConfig, MfcConfigError, ModelFreeControl};
pub use pid::{Pid, PidConfig};
