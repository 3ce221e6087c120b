//! The hierarchical coordinator: internal (PDC → DPS) + external (TRA).
//!
//! [`HcPerf`] is the per-control-period brain of the framework (Fig. 6).
//! A closed-loop harness calls [`HcPerf::on_period`] once per control
//! period with the measured driving performance and scheduling statistics;
//! the returned [`PeriodDecision`] carries
//!
//! * the nominal priority-adjustment parameter `u(t)` to feed into the
//!   [`DynamicPriorityScheduler`](crate::dps::DynamicPriorityScheduler)
//!   (internal coordinator), and
//! * the adapted source-task rates (external coordinator), unchanged when
//!   the external coordinator is disabled (the Fig. 18 ablation).

use hcperf_control::MfcConfigError;
use hcperf_taskgraph::{Rate, SimSpan, TaskGraph, TaskId};

use crate::pdc::{PdcConfig, PerformanceDirectedController};
use crate::rate_adapter::{RateAdapterConfig, SourceSlot, TaskRateAdapter};

/// Configuration of the full coordinator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordinatorConfig {
    /// Performance Directed Controller parameters.
    pub pdc: PdcConfig,
    /// Task Rate Adapter parameters.
    pub rate: RateAdapterConfig,
    /// Enables the external coordinator (disable for the Fig. 18 ablation).
    pub external_enabled: bool,
    /// Coordinator control period (how often `on_period` is called).
    pub period: SimSpan,
}

impl CoordinatorConfig {
    /// The default configuration as a constant, so scenario presets can be
    /// constants too: default PDC and TRA, external coordinator on, 100 ms
    /// control period.
    pub const DEFAULT: CoordinatorConfig = CoordinatorConfig {
        pdc: PdcConfig::DEFAULT,
        rate: RateAdapterConfig::DEFAULT,
        external_enabled: true,
        period: SimSpan::from_secs_const(0.1),
    };
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Measurements supplied to the coordinator each control period.
#[derive(Debug, Clone)]
pub struct PeriodInput<'a> {
    /// Driving-performance tracking error `E(k)` (signed; e.g. speed error
    /// in m/s or lateral offset in m).
    pub tracking_error: f64,
    /// Deadline-miss ratio `m(k)` measured over the last window.
    pub miss_ratio: f64,
    /// Scalar execution-time signal for the regime-change watchdog (e.g.
    /// observed sensor-fusion execution time in seconds).
    pub exec_signal: f64,
    /// Current `(task, rate)` of every adjustable source.
    pub current_rates: &'a [(TaskId, Rate)],
}

/// The coordinator's decision for the upcoming period.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodDecision {
    /// Nominal priority-adjustment parameter `u(t)` for the scheduler.
    pub nominal_u: f64,
    /// Adapted source rates (equal to the inputs when the external
    /// coordinator is disabled).
    pub new_rates: Vec<(TaskId, Rate)>,
    /// `true` when the Task Rate Adapter spent this period in degraded
    /// mode (miss ratio at or above its configured threshold, rates
    /// floored instead of minimized). Always `false` when the external
    /// coordinator is disabled or the threshold is unset.
    pub tra_degraded: bool,
}

/// The HCPerf hierarchical coordinator.
///
/// # Examples
///
/// ```
/// use hcperf::coordinator::{CoordinatorConfig, HcPerf, PeriodInput};
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::Rate;
///
/// let graph = apollo_graph(&GraphOptions::default())?;
/// let mut coord = HcPerf::new(CoordinatorConfig::default(), &graph)?;
/// let rates: Vec<_> = graph
///     .sources()
///     .iter()
///     .map(|&s| (s, Rate::from_hz(10.0)))
///     .collect();
/// let decision = coord.on_period(PeriodInput {
///     tracking_error: 1.5,
///     miss_ratio: 0.0,
///     exec_signal: 0.02,
///     current_rates: &rates,
/// });
/// assert_eq!(decision.new_rates.len(), rates.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HcPerf {
    config: CoordinatorConfig,
    pdc: PerformanceDirectedController,
    tra: TaskRateAdapter,
    periods: u64,
}

impl HcPerf {
    /// Creates a coordinator for `graph`, managing every source task that
    /// declares a rate range.
    ///
    /// # Errors
    ///
    /// Returns [`MfcConfigError`] if the PDC configuration is invalid.
    pub fn new(config: CoordinatorConfig, graph: &TaskGraph) -> Result<Self, MfcConfigError> {
        let pdc = PerformanceDirectedController::new(config.pdc)?;
        let sources: Vec<SourceSlot> = graph
            .sources()
            .iter()
            .filter_map(|&task| {
                graph
                    .spec(task)
                    .rate_range()
                    .map(|range| SourceSlot { task, range })
            })
            .collect();
        let tra = TaskRateAdapter::new(config.rate, sources);
        Ok(HcPerf {
            config,
            pdc,
            tra,
            periods: 0,
        })
    }

    /// Returns the configuration.
    #[must_use]
    pub fn config(&self) -> CoordinatorConfig {
        self.config
    }

    /// The coordinator control period.
    #[must_use]
    pub fn period(&self) -> SimSpan {
        self.config.period
    }

    /// Number of periods processed so far.
    #[must_use]
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Read access to the inner Performance Directed Controller.
    #[must_use]
    pub fn pdc(&self) -> &PerformanceDirectedController {
        &self.pdc
    }

    /// Read access to the inner Task Rate Adapter.
    #[must_use]
    pub fn rate_adapter(&self) -> &TaskRateAdapter {
        &self.tra
    }

    /// Processes one control period (Fig. 6 workflow): the internal
    /// coordinator turns the tracking error into `u(t)`, the external
    /// coordinator turns the miss ratio into adapted source rates.
    pub fn on_period(&mut self, input: PeriodInput<'_>) -> PeriodDecision {
        self.periods += 1;
        let nominal_u = self.pdc.step(input.tracking_error);
        let (new_rates, tra_degraded) = if self.config.external_enabled {
            let adapted = self.tra.step(
                input.miss_ratio,
                input.exec_signal,
                filter_managed(self.tra.sources(), input.current_rates).as_slice(),
            );
            (
                merge_rates(input.current_rates, &adapted),
                self.tra.is_degraded(),
            )
        } else {
            (input.current_rates.to_vec(), false)
        };
        PeriodDecision {
            nominal_u,
            new_rates,
            tra_degraded,
        }
    }

    /// Resets both coordinators (scenario restart).
    pub fn reset(&mut self) {
        self.pdc.reset();
        self.tra.reset_gain();
        self.periods = 0;
    }
}

/// Restricts the supplied rates to the sources the adapter manages.
fn filter_managed(slots: &[SourceSlot], current: &[(TaskId, Rate)]) -> Vec<(TaskId, Rate)> {
    current
        .iter()
        .filter(|(t, _)| slots.iter().any(|s| s.task == *t))
        .copied()
        .collect()
}

/// Overlays adapted rates onto the full current-rate list (unmanaged
/// sources keep their rates).
fn merge_rates(current: &[(TaskId, Rate)], adapted: &[(TaskId, Rate)]) -> Vec<(TaskId, Rate)> {
    current
        .iter()
        .map(|&(task, rate)| {
            adapted
                .iter()
                .find(|(t, _)| *t == task)
                .copied()
                .unwrap_or((task, rate))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};

    fn coord(external: bool) -> (HcPerf, Vec<(TaskId, Rate)>) {
        let graph = apollo_graph(&GraphOptions::default()).unwrap();
        let config = CoordinatorConfig {
            external_enabled: external,
            ..Default::default()
        };
        let rates: Vec<_> = graph
            .sources()
            .iter()
            .map(|&s| (s, Rate::from_hz(10.0)))
            .collect();
        (HcPerf::new(config, &graph).unwrap(), rates)
    }

    #[test]
    fn default_constant_is_the_100ms_default() {
        let config = CoordinatorConfig::DEFAULT;
        assert_eq!(config.period, SimSpan::from_millis(100.0));
        assert_eq!(config.period.as_secs().to_bits(), 0.1f64.to_bits());
        assert!(config.external_enabled);
    }

    /// Every knob set through `CoordinatorConfig` reaches the coordinator.
    #[test]
    fn builder_configures_all_knobs() {
        let graph = apollo_graph(&GraphOptions::default()).unwrap();
        let mut config = CoordinatorConfig {
            period: hcperf_taskgraph::SimSpan::from_millis(50.0),
            external_enabled: false,
            ..Default::default()
        };
        config.pdc.error_scale = 0.3;
        config.rate.target_miss_ratio = 0.01;
        let coord = HcPerf::new(config, &graph).unwrap();
        let cfg = coord.config();
        assert_eq!(cfg.period, hcperf_taskgraph::SimSpan::from_millis(50.0));
        assert!(!cfg.external_enabled);
        assert_eq!(cfg.pdc.error_scale, 0.3);
        assert_eq!(cfg.rate.target_miss_ratio, 0.01);
    }

    #[test]
    fn builder_rejects_invalid_pdc() {
        let graph = apollo_graph(&GraphOptions::default()).unwrap();
        let mut pdc = crate::pdc::PdcConfig::default();
        pdc.mfc.alpha = 1.0; // must be negative
        let config = CoordinatorConfig {
            pdc,
            ..Default::default()
        };
        assert!(HcPerf::new(config, &graph).is_err());
    }

    #[test]
    fn manages_all_rate_adjustable_sources() {
        let (c, rates) = coord(true);
        assert_eq!(c.rate_adapter().sources().len(), rates.len());
    }

    #[test]
    fn zero_misses_ramp_rates_up() {
        let (mut c, mut rates) = coord(true);
        for _ in 0..5 {
            let d = c.on_period(PeriodInput {
                tracking_error: 0.0,
                miss_ratio: 0.0,
                exec_signal: 0.02,
                current_rates: &rates,
            });
            rates = d.new_rates;
        }
        assert!(rates.iter().all(|(_, r)| *r > Rate::from_hz(10.0)));
        assert_eq!(c.periods(), 5);
    }

    #[test]
    fn overload_ramps_rates_down() {
        let (mut c, _) = coord(true);
        let high: Vec<_> = c
            .rate_adapter()
            .sources()
            .iter()
            .map(|s| (s.task, Rate::from_hz(80.0)))
            .collect();
        let d = c.on_period(PeriodInput {
            tracking_error: 0.0,
            miss_ratio: 0.6,
            exec_signal: 0.02,
            current_rates: &high,
        });
        assert!(d.new_rates.iter().all(|(_, r)| *r < Rate::from_hz(80.0)));
    }

    #[test]
    fn external_disabled_keeps_rates() {
        let (mut c, rates) = coord(false);
        let d = c.on_period(PeriodInput {
            tracking_error: 0.0,
            miss_ratio: 0.0,
            exec_signal: 0.02,
            current_rates: &rates,
        });
        assert_eq!(d.new_rates, rates);
        assert!(!d.tra_degraded);
    }

    /// The degraded flag surfaces through the period decision when the
    /// rate adapter's threshold is armed and crossed.
    #[test]
    fn degraded_flag_surfaces_in_period_decision() {
        let graph = apollo_graph(&GraphOptions::default()).unwrap();
        let mut config = CoordinatorConfig::default();
        config.rate.degraded_miss_threshold = 0.5;
        config.rate.rate_floor_frac = 0.25;
        let mut c = HcPerf::new(config, &graph).unwrap();
        let rates: Vec<_> = graph
            .sources()
            .iter()
            .map(|&s| (s, Rate::from_hz(10.0)))
            .collect();
        let d = c.on_period(PeriodInput {
            tracking_error: 0.0,
            miss_ratio: 0.9,
            exec_signal: 0.02,
            current_rates: &rates,
        });
        assert!(d.tra_degraded);
        let d = c.on_period(PeriodInput {
            tracking_error: 0.0,
            miss_ratio: 0.0,
            exec_signal: 0.02,
            current_rates: &d.new_rates,
        });
        assert!(!d.tra_degraded, "flag clears on recovery");
    }

    #[test]
    fn tracking_error_raises_u() {
        let (mut c, rates) = coord(true);
        let mut u = 0.0;
        for _ in 0..30 {
            let d = c.on_period(PeriodInput {
                tracking_error: 3.0,
                miss_ratio: 0.0,
                exec_signal: 0.02,
                current_rates: &rates,
            });
            u = d.nominal_u;
        }
        assert!(u > 0.0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let (mut c, rates) = coord(true);
        for _ in 0..20 {
            let _ = c.on_period(PeriodInput {
                tracking_error: 3.0,
                miss_ratio: 0.0,
                exec_signal: 0.02,
                current_rates: &rates,
            });
        }
        c.reset();
        assert_eq!(c.periods(), 0);
        assert_eq!(c.pdc().nominal_u(), 0.0);
    }
}
