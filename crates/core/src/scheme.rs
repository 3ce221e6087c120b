//! Scheme enumeration: the four baselines plus HCPerf under one type.
//!
//! The scenario harness runs every experiment across all schemes; this
//! module provides the closed set of schedulers as a single
//! [`Scheduler`]-implementing enum so simulations stay monomorphic.

use std::fmt;

use hcperf_rtsim::{Job, SchedContext, Scheduler};
use hcperf_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};

use crate::baselines::{ApolloStatic, Edf, EdfVd, Hpf};
use crate::dps::{DpsConfig, DynamicPriorityScheduler};

/// The evaluated scheduling schemes (§ VII-A4 plus HCPerf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// High Priority First.
    Hpf,
    /// Earliest Deadline First.
    Edf,
    /// EDF with Virtual Deadlines.
    EdfVd,
    /// Apollo Cyber RT (static binding + fixed priority).
    Apollo,
    /// This paper's coordinator-driven scheduler.
    HcPerf,
}

impl Scheme {
    /// All schemes in the paper's table order.
    #[must_use]
    pub fn all() -> [Scheme; 5] {
        [
            Scheme::Hpf,
            Scheme::Edf,
            Scheme::EdfVd,
            Scheme::Apollo,
            Scheme::HcPerf,
        ]
    }

    /// Whether the scheme statically binds tasks to processors (only
    /// Apollo does; the scenario builds the task graph accordingly).
    #[must_use]
    pub fn uses_affinity(self) -> bool {
        matches!(self, Scheme::Apollo)
    }

    /// Whether the scheme is driven by the HCPerf coordinators.
    #[must_use]
    pub fn uses_coordinators(self) -> bool {
        matches!(self, Scheme::HcPerf)
    }

    /// Instantiates the scheduler for this scheme.
    #[must_use]
    pub fn build(self, dps: DpsConfig) -> SchedulerKind {
        match self {
            Scheme::Hpf => SchedulerKind::Hpf(Hpf::new()),
            Scheme::Edf => SchedulerKind::Edf(Edf::new()),
            Scheme::EdfVd => SchedulerKind::EdfVd(EdfVd::default()),
            Scheme::Apollo => SchedulerKind::Apollo(ApolloStatic::new()),
            Scheme::HcPerf => SchedulerKind::HcPerf(Box::new(DynamicPriorityScheduler::new(dps))),
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Hpf => "HPF",
            Scheme::Edf => "EDF",
            Scheme::EdfVd => "EDF-VD",
            Scheme::Apollo => "Apollo",
            Scheme::HcPerf => "HCPerf",
        };
        f.write_str(s)
    }
}

/// A closed sum of the five schedulers, implementing [`Scheduler`] by
/// delegation.
#[derive(Debug, Clone)]
pub enum SchedulerKind {
    /// High Priority First.
    Hpf(Hpf),
    /// Earliest Deadline First.
    Edf(Edf),
    /// EDF with Virtual Deadlines.
    EdfVd(EdfVd),
    /// Apollo static scheduler.
    Apollo(ApolloStatic),
    /// HCPerf Dynamic Priority Scheduler. Boxed: the DPS carries reusable
    /// γ-search scratch buffers, so inline it would dwarf the stateless
    /// baseline variants.
    HcPerf(Box<DynamicPriorityScheduler>),
}

impl SchedulerKind {
    /// Feeds the nominal priority-adjustment parameter into the HCPerf
    /// scheduler; a no-op for the performance-oblivious baselines.
    pub fn set_nominal_u(&mut self, u: f64) {
        if let SchedulerKind::HcPerf(dps) = self {
            dps.set_nominal_u(u);
        }
    }

    /// The current γ of the HCPerf scheduler, if this is one.
    #[must_use]
    pub fn gamma(&self) -> Option<f64> {
        match self {
            SchedulerKind::HcPerf(dps) => Some(dps.gamma()),
            _ => None,
        }
    }
}

impl Scheduler for SchedulerKind {
    fn select(&mut self, ctx: &SchedContext<'_>) -> Option<usize> {
        match self {
            SchedulerKind::Hpf(s) => s.select(ctx),
            SchedulerKind::Edf(s) => s.select(ctx),
            SchedulerKind::EdfVd(s) => s.select(ctx),
            SchedulerKind::Apollo(s) => s.select(ctx),
            SchedulerKind::HcPerf(s) => s.select(ctx),
        }
    }

    fn release_key(&self, job: &Job, graph: &TaskGraph) -> Option<u128> {
        match self {
            SchedulerKind::Hpf(s) => s.release_key(job, graph),
            SchedulerKind::Edf(s) => s.release_key(job, graph),
            SchedulerKind::EdfVd(s) => s.release_key(job, graph),
            SchedulerKind::Apollo(s) => s.release_key(job, graph),
            SchedulerKind::HcPerf(s) => s.release_key(job, graph),
        }
    }

    fn name(&self) -> &str {
        match self {
            SchedulerKind::Hpf(s) => s.name(),
            SchedulerKind::Edf(s) => s.name(),
            SchedulerKind::EdfVd(s) => s.name(),
            SchedulerKind::Apollo(s) => s.name(),
            SchedulerKind::HcPerf(s) => s.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_five_schemes_in_table_order() {
        let all = Scheme::all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], Scheme::Hpf);
        assert_eq!(all[4], Scheme::HcPerf);
    }

    #[test]
    fn display_matches_paper_names() {
        let names: Vec<String> = Scheme::all().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, vec!["HPF", "EDF", "EDF-VD", "Apollo", "HCPerf"]);
    }

    #[test]
    fn build_produces_matching_kind() {
        for scheme in Scheme::all() {
            let kind = scheme.build(DpsConfig::default());
            assert_eq!(kind.name(), scheme.to_string());
        }
    }

    #[test]
    fn only_apollo_uses_affinity() {
        assert!(Scheme::Apollo.uses_affinity());
        for s in [Scheme::Hpf, Scheme::Edf, Scheme::EdfVd, Scheme::HcPerf] {
            assert!(!s.uses_affinity());
        }
    }

    #[test]
    fn set_nominal_u_only_affects_hcperf() {
        let mut hc = Scheme::HcPerf.build(DpsConfig::default());
        hc.set_nominal_u(0.07);
        assert_eq!(hc.gamma(), Some(0.0)); // γ derived lazily at dispatch
        if let SchedulerKind::HcPerf(dps) = &hc {
            assert_eq!(dps.nominal_u(), 0.07);
        } else {
            panic!("expected HCPerf kind");
        }
        let mut edf = Scheme::Edf.build(DpsConfig::default());
        edf.set_nominal_u(0.07); // must be a harmless no-op
        assert_eq!(edf.gamma(), None);
    }
}
