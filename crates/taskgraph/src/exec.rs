//! Execution-time models.
//!
//! The central premise of the paper is that autonomous-driving task execution
//! times vary heavily with the runtime input — most notably *configurable
//! sensor fusion*, whose Hungarian-algorithm matching is `O(n³)` in the number
//! of detected obstacles. [`ExecModel`] has the four model families of the
//! evaluation, plus a sum that adds a jitter term to a base:
//!
//! * constant execution times,
//! * uniform jitter between two bounds (Fig. 12),
//! * load-dependent cubic growth in obstacle count (§ II),
//! * time-based step profiles (20 ms → 40 ms at `t = 10 s`, § VII-B1).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::time::{SimSpan, SimTime};

/// Runtime context an execution-time sample may depend on.
///
/// `load` is the scenario's instantaneous obstacle count (the paper's `n`);
/// `now` is the simulation clock at job dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecContext {
    /// Simulation time at which the job starts executing.
    pub now: SimTime,
    /// Number of detected obstacles (drives load-dependent models).
    pub load: f64,
}

impl ExecContext {
    /// Creates a context at time `now` with the given obstacle load.
    #[must_use]
    pub fn new(now: SimTime, load: f64) -> Self {
        ExecContext { now, load }
    }

    /// Context with zero load at `t = 0`, useful for tests and profiling.
    #[must_use]
    pub fn idle() -> Self {
        ExecContext {
            now: SimTime::ZERO,
            load: 0.0,
        }
    }
}

/// A model of a task's execution time.
///
/// Models are closed under two combinators: [`ExecModel::Sum`] adds a jitter
/// component to a base, and [`ExecModel::Step`] switches between two models
/// on a time window. All sampled values are clamped to a small positive
/// minimum so a job never has zero or negative execution time.
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::{ExecContext, ExecModel};
/// use hcperf_taskgraph::time::{SimSpan, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let model = ExecModel::uniform(
///     SimSpan::from_millis(5.0),
///     SimSpan::from_millis(10.0),
/// );
/// let c = model.sample(ExecContext::idle(), &mut rng);
/// assert!(c >= SimSpan::from_millis(5.0) && c <= SimSpan::from_millis(10.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecModel {
    /// Always the same execution time.
    Constant {
        /// The fixed execution time.
        value: SimSpan,
    },
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Lower bound (inclusive).
        min: SimSpan,
        /// Upper bound (inclusive).
        max: SimSpan,
    },
    /// Hungarian-style load dependence: `base + coeff · load^exponent`.
    ///
    /// With `exponent = 3` this reproduces the paper's `O(n³)` configurable
    /// sensor fusion cost in the obstacle count `n`.
    LoadDependent {
        /// Cost at zero load.
        base: SimSpan,
        /// Cost added per unit of `load^exponent`.
        coeff: SimSpan,
        /// Polynomial degree of the matching cost (3 for Hungarian).
        exponent: f64,
    },
    /// Uses `elevated` while `from <= now < until`, `base` otherwise.
    ///
    /// Reproduces the evaluation's injected regime change (20 ms → 40 ms at
    /// `t = 10 s`, restored at `t = 80 s`).
    Step {
        /// Model outside the window.
        base: Box<ExecModel>,
        /// Model inside the window.
        elevated: Box<ExecModel>,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Sum of two models (e.g. a deterministic base plus a jitter term).
    Sum {
        /// First addend.
        a: Box<ExecModel>,
        /// Second addend.
        b: Box<ExecModel>,
    },
}

/// Smallest execution time any model will ever produce (1 µs); guards the
/// simulator against zero-length jobs that would stall event-time progress.
pub const MIN_EXEC_TIME: SimSpan = SimSpan::from_secs_const(1e-6);

/// [`MIN_EXEC_TIME`] in seconds, the floor every model's raw value is
/// clamped to.
const FLOOR_SECS: f64 = MIN_EXEC_TIME.as_secs();

impl ExecModel {
    /// A constant execution time.
    #[must_use]
    pub fn constant(value: SimSpan) -> Self {
        ExecModel::Constant { value }
    }

    /// A uniform execution time in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    #[must_use]
    pub fn uniform(min: SimSpan, max: SimSpan) -> Self {
        assert!(min <= max, "uniform exec model requires min <= max");
        ExecModel::Uniform { min, max }
    }

    /// A Hungarian-style cubic load-dependent execution time.
    #[must_use]
    pub fn hungarian(base: SimSpan, coeff: SimSpan) -> Self {
        ExecModel::LoadDependent {
            base,
            coeff,
            exponent: 3.0,
        }
    }

    /// A general polynomial load-dependent execution time.
    #[must_use]
    pub fn load_dependent(base: SimSpan, coeff: SimSpan, exponent: f64) -> Self {
        ExecModel::LoadDependent {
            base,
            coeff,
            exponent,
        }
    }

    /// Wraps `self` so that `elevated` applies during `[from, until)`.
    #[must_use]
    pub fn with_step(self, elevated: ExecModel, from: SimTime, until: SimTime) -> Self {
        ExecModel::Step {
            base: Box::new(self),
            elevated: Box::new(elevated),
            from,
            until,
        }
    }

    /// Adds a jitter model on top of `self`.
    #[must_use]
    pub fn plus(self, jitter: ExecModel) -> Self {
        ExecModel::Sum {
            a: Box::new(self),
            b: Box::new(jitter),
        }
    }

    /// Samples an execution time for a job dispatched under `ctx`.
    ///
    /// The result is always at least 1 µs.
    pub fn sample<R: Rng + ?Sized>(&self, ctx: ExecContext, rng: &mut R) -> SimSpan {
        let raw = self.sample_raw(ctx, rng);
        SimSpan::from_secs(raw.max(FLOOR_SECS))
    }

    fn sample_raw<R: Rng + ?Sized>(&self, ctx: ExecContext, rng: &mut R) -> f64 {
        match self {
            ExecModel::Constant { value } => value.as_secs(),
            ExecModel::Uniform { min, max } => {
                let (a, b) = (min.as_secs(), max.as_secs());
                if a == b {
                    a
                } else {
                    rng.gen_range(a..=b)
                }
            }
            ExecModel::LoadDependent {
                base,
                coeff,
                exponent,
            } => base.as_secs() + coeff.as_secs() * ctx.load.max(0.0).powf(*exponent),
            ExecModel::Step {
                base,
                elevated,
                from,
                until,
            } => {
                if ctx.now >= *from && ctx.now < *until {
                    elevated.sample_raw(ctx, rng)
                } else {
                    base.sample_raw(ctx, rng)
                }
            }
            ExecModel::Sum { a, b } => a.sample_raw(ctx, rng) + b.sample_raw(ctx, rng),
        }
    }

    /// Returns the model's nominal (expected) execution time under `ctx`,
    /// without sampling noise. Used for offline profiling and for the γ-max
    /// feasibility analysis before any observation exists.
    #[must_use]
    pub fn nominal(&self, ctx: ExecContext) -> SimSpan {
        let raw = self.nominal_raw(ctx);
        SimSpan::from_secs(raw.max(FLOOR_SECS))
    }

    fn nominal_raw(&self, ctx: ExecContext) -> f64 {
        match self {
            ExecModel::Constant { value } => value.as_secs(),
            ExecModel::Uniform { min, max } => 0.5 * (min.as_secs() + max.as_secs()),
            ExecModel::LoadDependent {
                base,
                coeff,
                exponent,
            } => base.as_secs() + coeff.as_secs() * ctx.load.max(0.0).powf(*exponent),
            ExecModel::Step {
                base,
                elevated,
                from,
                until,
            } => {
                if ctx.now >= *from && ctx.now < *until {
                    elevated.nominal_raw(ctx)
                } else {
                    base.nominal_raw(ctx)
                }
            }
            ExecModel::Sum { a, b } => a.nominal_raw(ctx) + b.nominal_raw(ctx),
        }
    }

    /// Returns an upper bound of the model under `ctx` (worst case for the
    /// distribution families used here).
    #[must_use]
    pub fn worst_case(&self, ctx: ExecContext) -> SimSpan {
        let raw = self.worst_case_raw(ctx);
        SimSpan::from_secs(raw.max(FLOOR_SECS))
    }

    fn worst_case_raw(&self, ctx: ExecContext) -> f64 {
        match self {
            ExecModel::Constant { value } => value.as_secs(),
            ExecModel::Uniform { max, .. } => max.as_secs(),
            ExecModel::LoadDependent { .. } => self.nominal_raw(ctx),
            ExecModel::Step { base, elevated, .. } => {
                base.worst_case_raw(ctx).max(elevated.worst_case_raw(ctx))
            }
            ExecModel::Sum { a, b } => a.worst_case_raw(ctx) + b.worst_case_raw(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn no_model_goes_below_min_exec_time() {
        let ms = SimSpan::from_millis;
        let at = |t: f64| SimTime::from_secs(t);
        let models = [
            ExecModel::constant(SimSpan::ZERO),
            ExecModel::constant(ms(-5.0)),
            ExecModel::constant(SimSpan::from_secs(1e-9)),
            ExecModel::uniform(ms(-2.0), ms(0.0005)),
            ExecModel::load_dependent(ms(-10.0), ms(1.0), 2.0),
            ExecModel::constant(ms(-1.0)).with_step(
                ExecModel::constant(ms(-2.0)),
                at(1.0),
                at(2.0),
            ),
            ExecModel::constant(ms(1.0)).plus(ExecModel::constant(ms(-4.0))),
        ];
        let mut r = rng();
        for m in &models {
            for ctx in [
                ExecContext::idle(),
                ExecContext::new(at(1.5), 3.0),
                ExecContext::new(at(2.5), -1.0),
            ] {
                for _ in 0..50 {
                    assert!(m.sample(ctx, &mut r) >= MIN_EXEC_TIME, "{m:?}");
                }
                assert!(m.nominal(ctx) >= MIN_EXEC_TIME, "{m:?}");
                assert!(m.worst_case(ctx) >= MIN_EXEC_TIME, "{m:?}");
            }
        }
        // The floor is the 1 µs the constant documents, and it is reached.
        assert_eq!(MIN_EXEC_TIME, SimSpan::from_secs(1e-6));
        let zero = ExecModel::constant(SimSpan::ZERO);
        assert_eq!(zero.nominal(ExecContext::idle()), MIN_EXEC_TIME);
        assert_eq!(zero.worst_case(ExecContext::idle()), MIN_EXEC_TIME);
        assert_eq!(zero.sample(ExecContext::idle(), &mut r), MIN_EXEC_TIME);
    }

    #[test]
    fn constant_is_constant() {
        let m = ExecModel::constant(SimSpan::from_millis(20.0));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                m.sample(ExecContext::idle(), &mut r),
                SimSpan::from_millis(20.0)
            );
        }
        assert_eq!(m.nominal(ExecContext::idle()), SimSpan::from_millis(20.0));
        assert_eq!(
            m.worst_case(ExecContext::idle()),
            SimSpan::from_millis(20.0)
        );
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let lo = SimSpan::from_millis(5.0);
        let hi = SimSpan::from_millis(10.0);
        let m = ExecModel::uniform(lo, hi);
        let mut r = rng();
        for _ in 0..1000 {
            let c = m.sample(ExecContext::idle(), &mut r);
            assert!(c >= lo && c <= hi);
        }
        assert_eq!(m.nominal(ExecContext::idle()), SimSpan::from_millis(7.5));
        assert_eq!(m.worst_case(ExecContext::idle()), hi);
    }

    #[test]
    fn hungarian_grows_cubically() {
        let m = ExecModel::hungarian(SimSpan::from_millis(5.0), SimSpan::from_millis(0.01));
        let mut r = rng();
        let c0 = m.sample(ExecContext::new(SimTime::ZERO, 0.0), &mut r);
        let c10 = m.sample(ExecContext::new(SimTime::ZERO, 10.0), &mut r);
        let c20 = m.sample(ExecContext::new(SimTime::ZERO, 20.0), &mut r);
        assert_eq!(c0, SimSpan::from_millis(5.0));
        assert_eq!(c10, SimSpan::from_millis(5.0 + 0.01 * 1000.0));
        // Doubling the load multiplies the load term by 8.
        let load_term_10 = (c10 - c0).as_millis();
        let load_term_20 = (c20 - c0).as_millis();
        assert!((load_term_20 / load_term_10 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn step_switches_inside_window_only() {
        let m = ExecModel::constant(SimSpan::from_millis(20.0)).with_step(
            ExecModel::constant(SimSpan::from_millis(40.0)),
            SimTime::from_secs(10.0),
            SimTime::from_secs(80.0),
        );
        let mut r = rng();
        let before = m.sample(ExecContext::new(SimTime::from_secs(9.9), 0.0), &mut r);
        let inside = m.sample(ExecContext::new(SimTime::from_secs(10.0), 0.0), &mut r);
        let late = m.sample(ExecContext::new(SimTime::from_secs(79.9), 0.0), &mut r);
        let after = m.sample(ExecContext::new(SimTime::from_secs(80.0), 0.0), &mut r);
        assert_eq!(before, SimSpan::from_millis(20.0));
        assert_eq!(inside, SimSpan::from_millis(40.0));
        assert_eq!(late, SimSpan::from_millis(40.0));
        assert_eq!(after, SimSpan::from_millis(20.0));
        // Worst case covers both regimes.
        assert_eq!(
            m.worst_case(ExecContext::idle()),
            SimSpan::from_millis(40.0)
        );
    }

    #[test]
    fn sum_adds_components() {
        let m = ExecModel::constant(SimSpan::from_millis(10.0))
            .plus(ExecModel::constant(SimSpan::from_millis(5.0)));
        let mut r = rng();
        assert_eq!(
            m.sample(ExecContext::idle(), &mut r),
            SimSpan::from_millis(15.0)
        );
        assert_eq!(m.nominal(ExecContext::idle()), SimSpan::from_millis(15.0));
    }

    #[test]
    fn samples_never_below_floor() {
        let m = ExecModel::constant(SimSpan::ZERO);
        let mut r = rng();
        assert!(m.sample(ExecContext::idle(), &mut r) > SimSpan::ZERO);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = ExecModel::uniform(SimSpan::from_millis(10.0), SimSpan::from_millis(5.0));
    }
}
