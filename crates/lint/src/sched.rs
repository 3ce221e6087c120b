//! The `--schedulability` audit: a build-time gate over every registered
//! task graph and scenario preset.
//!
//! Two static checks per target, both at the target's *reference operating
//! point* — `t = 0` with the scenario's initial obstacle load (idle load
//! for bare graphs). Every run starts there, so a target that fails is
//! misconfigured no matter what the schedulers do:
//!
//! * **Eq. 9** — every task's scheduling deadline must be positive:
//!   `Dᵢ > cᵢᵐᵃˣ`, with `cᵢᵐᵃˣ` the execution model's worst case at the
//!   reference context. A non-positive deadline makes `dᵢ = Dᵢ − cᵢ`
//!   meaningless and the task unschedulable even alone on a core.
//! * **Eq. 11** — a critical-instant queue (one job of every task released
//!   simultaneously) must admit a non-empty feasible γ range on the
//!   configured core count. Eq. 11's `cᵢ` is the *observed* execution
//!   time, which the scheduler initializes to the model's nominal value
//!   before any observation — so the audit uses `nominal` at the reference
//!   context, reproducing exactly the constraint system the DPS solves on
//!   its first dispatch. Feasibility is decided by the paper-literal
//!   `dps::reference::gamma_max` oracle with `strict_eq11 = true`; the
//!   relaxed production default drops doomed jobs and so can never report
//!   overload.
//!
//! Transient overload *inside* a scenario (obstacle spikes, fusion regime
//! steps) is the experiment itself — HCPerf's coordinators exist to ride
//! it out — so the audit samples the whole horizon and reports the worst
//! transient margin as information, not as a gate.
//!
//! A third check ties the audit to the WCET pass: each target's Eq. 9
//! budget is only meaningful if the scheduler kernels that spend it have
//! *bounded* certified cost, so [`wcet_cross_check`] requires every
//! kernel in [`kernel_roots`] to carry a bounded row in
//! `crates/lint/wcet_certificates.txt` (`sched-wcet` error otherwise).

use hcperf::dps::reference;
use hcperf::{DpsConfig, Scheme};
use hcperf_rtsim::{Job, JobId, SchedContext};
use hcperf_scenarios::{
    traffic_jam_config, CarFollowingConfig, LaneKeepingConfig, MotivationConfig,
};
use hcperf_taskgraph::graphs::{apollo_graph, motivation_graph, GraphOptions};
use hcperf_taskgraph::{ExecContext, LoadProfile, SimSpan, SimTime, TaskGraph};

use crate::report::{exit, json_escape, json_opt_f64, tagged_finding_json};
use crate::wcet::Cost;

/// One graph/preset to audit.
#[derive(Debug)]
pub struct AuditTarget {
    /// Display name (`graphs::…` or `scenario::…`).
    pub name: String,
    /// The task graph, with any scenario regime steps applied.
    pub graph: TaskGraph,
    /// Core count the γ feasibility is checked on.
    pub processors: usize,
    /// Obstacle-count profile over the horizon.
    pub load: LoadProfile,
    /// Scenario horizon in seconds (0 for bare graphs).
    pub duration: f64,
    /// DPS configuration the preset runs with (γ ceiling, search).
    pub dps: DpsConfig,
}

/// Worst Eq. 9 margin over a target's tasks at one context.
#[derive(Debug, Clone)]
pub struct Eq9Worst {
    /// Task name.
    pub task: String,
    /// Relative deadline `Dᵢ` in ms.
    pub deadline_ms: f64,
    /// Worst-case execution `cᵢᵐᵃˣ` in ms.
    pub cmax_ms: f64,
}

impl Eq9Worst {
    /// `Dᵢ − cᵢᵐᵃˣ` in ms; must be positive.
    #[must_use]
    pub fn margin_ms(&self) -> f64 {
        self.deadline_ms - self.cmax_ms
    }
}

/// Audit outcome for one target.
#[derive(Debug)]
pub struct AuditResult {
    /// Target name.
    pub name: String,
    /// Core count audited on.
    pub processors: usize,
    /// Number of tasks in the graph.
    pub tasks: usize,
    /// Tightest Eq. 9 task at the reference context.
    pub eq9_worst: Eq9Worst,
    /// `γ_max` from the strict Eq. 11 oracle at the reference context
    /// (`None` = even γ = 0 infeasible → gate failure).
    pub gamma_max: Option<f64>,
    /// Tightest Eq. 9 margin (ms) seen anywhere on the sampled horizon.
    pub transient_min_margin_ms: f64,
    /// Time (s) of that tightest transient margin.
    pub transient_at_s: f64,
}

impl AuditResult {
    /// The gate: Eq. 9 positive and Eq. 11 non-empty at the reference
    /// operating point.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.eq9_worst.margin_ms() > 0.0 && self.gamma_max.is_some()
    }

    /// True when some sampled transient drives a task past Eq. 9 —
    /// expected for deliberately overloaded scenarios, reported as info.
    #[must_use]
    pub fn transient_overload(&self) -> bool {
        self.transient_min_margin_ms <= 0.0
    }
}

fn car_following_target(name: &str, config: &CarFollowingConfig) -> AuditTarget {
    AuditTarget {
        name: format!("scenario::{name}"),
        graph: config.graph().expect("apollo graph is statically valid"),
        processors: config.processors,
        load: config.load.clone(),
        duration: config.duration,
        dps: config.dps,
    }
}

/// Every graph registered in `taskgraph::graphs` plus every scenario
/// preset, exactly as the scenarios construct them.
#[must_use]
pub fn builtin_targets() -> Vec<AuditTarget> {
    let mut targets = vec![
        AuditTarget {
            name: "graphs::motivation".to_owned(),
            graph: motivation_graph(&GraphOptions::default()).expect("static graph"),
            processors: GraphOptions::default().processors,
            load: LoadProfile::constant(0.0),
            duration: 0.0,
            dps: DpsConfig::default(),
        },
        AuditTarget {
            name: "graphs::apollo".to_owned(),
            graph: apollo_graph(&GraphOptions::default()).expect("static graph"),
            processors: GraphOptions::default().processors,
            load: LoadProfile::constant(0.0),
            duration: 0.0,
            dps: DpsConfig::default(),
        },
    ];

    targets.push(car_following_target(
        "car_following/paper_simulation",
        &CarFollowingConfig::paper_simulation(Scheme::HcPerf),
    ));
    targets.push(car_following_target(
        "car_following/hardware",
        &CarFollowingConfig::hardware(Scheme::HcPerf),
    ));
    targets.push(car_following_target(
        "traffic_jam",
        &traffic_jam_config(Scheme::HcPerf),
    ));

    let lk = LaneKeepingConfig::paper_loop(Scheme::HcPerf);
    targets.push(AuditTarget {
        name: "scenario::lane_keeping/paper_loop".to_owned(),
        graph: lk.graph().expect("apollo graph is statically valid"),
        processors: lk.processors,
        load: lk.load.clone(),
        duration: lk.duration,
        dps: lk.dps,
    });

    let mv = MotivationConfig::default();
    targets.push(AuditTarget {
        name: "scenario::motivation".to_owned(),
        graph: mv.graph().expect("static graph"),
        processors: mv.processors,
        load: mv.load.clone(),
        duration: mv.duration,
        dps: DpsConfig::default(),
    });

    targets
}

/// Tightest Eq. 9 task of `graph` at context `ctx`.
fn eq9_worst(graph: &TaskGraph, ctx: ExecContext) -> Eq9Worst {
    let mut worst: Option<Eq9Worst> = None;
    for (_, spec) in graph.iter() {
        let mut cmax = spec.exec_model().worst_case(ctx);
        if let Some(gpu) = spec.gpu_model() {
            // GPU post-processing extends the task's occupancy of its
            // deadline window even though it frees the CPU.
            cmax += gpu.worst_case(ctx);
        }
        let row = Eq9Worst {
            task: spec.name().to_owned(),
            deadline_ms: spec.relative_deadline().as_millis(),
            cmax_ms: cmax.as_millis(),
        };
        if worst
            .as_ref()
            .is_none_or(|w| row.margin_ms() < w.margin_ms())
        {
            worst = Some(row);
        }
    }
    worst.expect("graphs are non-empty by construction")
}

/// Strict Eq. 11 γ_max for a critical-instant queue of `graph` at `ctx`.
fn critical_instant_gamma(
    graph: &TaskGraph,
    processors: usize,
    ctx: ExecContext,
    dps: &DpsConfig,
) -> Option<f64> {
    let now = SimTime::ZERO;
    let mut queue = Vec::with_capacity(graph.len());
    let mut observed = vec![SimSpan::ZERO; graph.len()];
    for (id, spec) in graph.iter() {
        queue.push(Job::new(
            JobId::new(queue.len() as u64),
            id,
            0,
            now,
            spec.relative_deadline(),
            now,
        ));
        let mut c = spec.exec_model().nominal(ctx);
        if let Some(gpu) = spec.gpu_model() {
            c += gpu.nominal(ctx);
        }
        observed[id.index()] = c;
    }
    let candidates: Vec<usize> = (0..queue.len()).collect();
    let remaining = vec![SimSpan::ZERO; processors];
    let sched_ctx = SchedContext {
        now,
        graph,
        queue: &queue,
        candidates: &candidates,
        processor: 0,
        observed_exec: &observed,
        processor_remaining: &remaining,
    };
    let strict = DpsConfig {
        strict_eq11: true,
        ..*dps
    };
    reference::gamma_max(&sched_ctx, &strict)
}

/// Audits one target.
#[must_use]
pub fn audit(target: &AuditTarget) -> AuditResult {
    let ctx0 = ExecContext::new(SimTime::ZERO, target.load.at(SimTime::ZERO));
    let worst0 = eq9_worst(&target.graph, ctx0);
    let gamma = critical_instant_gamma(&target.graph, target.processors, ctx0, &target.dps);

    // Sample the horizon for the worst transient Eq. 9 margin (info only).
    let mut min_margin = worst0.margin_ms();
    let mut min_at = 0.0;
    let steps = (target.duration / 0.1).ceil() as usize;
    for k in 0..=steps {
        let t = SimTime::from_secs(0.1 * k as f64);
        let ctx = ExecContext::new(t, target.load.at(t));
        let w = eq9_worst(&target.graph, ctx);
        if w.margin_ms() < min_margin {
            min_margin = w.margin_ms();
            min_at = t.as_secs();
        }
    }

    AuditResult {
        name: target.name.clone(),
        processors: target.processors,
        tasks: target.graph.len(),
        eq9_worst: worst0,
        gamma_max: gamma,
        transient_min_margin_ms: min_margin,
        transient_at_s: min_at,
    }
}

/// Audits every builtin target.
#[must_use]
pub fn audit_all() -> Vec<AuditResult> {
    builtin_targets().iter().map(audit).collect()
}

/// The scheduler kernels whose certified WCET backs a target's Eq. 9
/// budget. Every target dispatches through the simulator and is decided
/// by the reference γ oracle; `scenario::*` presets additionally run the
/// production DPS path (incremental γ search) and the
/// performance-directed coordination step each period.
#[must_use]
pub fn kernel_roots(target_name: &str) -> Vec<&'static str> {
    let mut roots = vec!["gamma_max", "Sim::try_dispatch"];
    if target_name.starts_with("scenario::") {
        roots.extend([
            "GammaScratch::rank",
            "GammaScratch::feasible",
            "DynamicPriorityScheduler::gamma_max_cached",
            "PerformanceDirectedController::step",
        ]);
    }
    roots
}

/// One Eq. 9 → kernel coverage gap: a kernel a target depends on whose
/// WCET certificate is missing or unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelGap {
    /// Audit target name.
    pub target: String,
    /// Kernel root name from [`kernel_roots`].
    pub kernel: String,
    /// The certified cost; `None` when the kernel has no certificate row.
    pub cost: Option<Cost>,
}

/// Pure coverage check of audit targets against parsed certificates
/// (keyed `[root, path]` as [`crate::ratchet::WCET`] parses them).
#[must_use]
pub fn kernel_gaps(
    results: &[AuditResult],
    certs: &std::collections::BTreeMap<crate::ratchet::Key, Cost>,
) -> Vec<KernelGap> {
    let by_name: std::collections::BTreeMap<&str, Cost> = certs
        .iter()
        .map(|(key, &cost)| (key[0].as_str(), cost))
        .collect();
    let mut gaps = Vec::new();
    for r in results {
        for kernel in kernel_roots(&r.name) {
            let cost = by_name.get(kernel).copied();
            if cost.is_none() || cost == Some(Cost::Unbounded) {
                gaps.push(KernelGap {
                    target: r.name.clone(),
                    kernel: kernel.to_owned(),
                    cost,
                });
            }
        }
    }
    gaps
}

/// Reads `crates/lint/wcet_certificates.txt` under `root` and checks that
/// every audit target's kernels carry bounded certificates.
///
/// # Errors
///
/// A missing or malformed certificate file is an error — the audit must
/// not silently pass without the WCET artifact it leans on.
pub fn wcet_cross_check(
    results: &[AuditResult],
    root: &std::path::Path,
) -> std::io::Result<Vec<KernelGap>> {
    Ok(kernel_gaps(results, &crate::ratchet::WCET.load(root)?))
}

/// `sched-wcet` error findings for coverage gaps, in the shared schema.
#[must_use]
pub fn gap_findings_json(gaps: &[KernelGap]) -> Vec<String> {
    gaps.iter()
        .map(|g| tagged_finding_json("sched-wcet", "error", &g.target, &gap_message(g)))
        .collect()
}

fn gap_message(g: &KernelGap) -> String {
    match g.cost {
        None => format!(
            "Eq. 9 budget relies on kernel `{}` which has no WCET certificate in {}; \
             regenerate with --update-baselines",
            g.kernel,
            crate::wcet::CERT_PATH
        ),
        Some(c) => format!(
            "Eq. 9 budget relies on kernel `{}` whose certified cost is {}; \
             every budget-backing kernel must have a bounded certificate",
            g.kernel,
            c.render()
        ),
    }
}

/// Human rendering of kernel coverage gaps.
#[must_use]
pub fn render_gaps_human(gaps: &[KernelGap]) -> String {
    let mut out = String::new();
    for g in gaps {
        out.push_str(&format!(
            "FAIL {} — [sched-wcet] {}\n",
            g.target,
            gap_message(g)
        ));
    }
    out
}

/// Exit code for a set of audit results and their kernel coverage gaps.
#[must_use]
pub fn exit_code(results: &[AuditResult], gaps: &[KernelGap]) -> i32 {
    if gaps.is_empty() && results.iter().all(AuditResult::ok) {
        exit::CLEAN
    } else {
        exit::SCHEDULABILITY
    }
}

/// Human rendering of the audit.
#[must_use]
pub fn render_human(results: &[AuditResult]) -> String {
    let mut out = String::new();
    for r in results {
        let verdict = if r.ok() { "ok" } else { "FAIL" };
        out.push_str(&format!(
            "{verdict:4} {} — {} tasks on {} cores: Eq.9 min margin {:.2} ms ({}), γ_max {}\n",
            r.name,
            r.tasks,
            r.processors,
            r.eq9_worst.margin_ms(),
            r.eq9_worst.task,
            r.gamma_max
                .map_or_else(|| "∅ (overloaded)".to_owned(), |g| format!("{g:.4}")),
        ));
        if r.transient_overload() {
            out.push_str(&format!(
                "     note: designed transient overload — Eq.9 margin dips to {:.2} ms at t = {:.1} s\n",
                r.transient_min_margin_ms, r.transient_at_s
            ));
        }
    }
    let failed = results.iter().filter(|r| !r.ok()).count();
    out.push_str(&format!(
        "hcperf-lint --schedulability: {}/{} targets feasible{}\n",
        results.len() - failed,
        results.len(),
        if failed == 0 {
            " — clean"
        } else {
            " — FAILED"
        }
    ));
    out
}

/// Machine-readable findings for the audit, in the same
/// `rule`/`severity`/`target` schema as source findings: `sched-eq9`
/// (non-positive deadline margin) and `sched-eq11` (empty feasible γ
/// range) are errors that fail the gate; `sched-eq9-transient` (designed
/// overload somewhere on the horizon) is informational.
#[must_use]
pub fn findings_json(results: &[AuditResult]) -> Vec<String> {
    let mut out = Vec::new();
    for r in results {
        if r.eq9_worst.margin_ms() <= 0.0 {
            out.push(tagged_finding_json(
                "sched-eq9",
                "error",
                &r.name,
                &format!(
                    "Eq. 9 margin is {:.2} ms for task `{}` at the reference operating point; \
                     deadlines must exceed worst-case execution",
                    r.eq9_worst.margin_ms(),
                    r.eq9_worst.task
                ),
            ));
        }
        if r.gamma_max.is_none() {
            out.push(tagged_finding_json(
                "sched-eq11",
                "error",
                &r.name,
                &format!(
                    "Eq. 11 admits no feasible γ on {} cores at the reference operating point",
                    r.processors
                ),
            ));
        }
        if r.transient_overload() {
            out.push(tagged_finding_json(
                "sched-eq9-transient",
                "info",
                &r.name,
                &format!(
                    "designed transient overload: Eq. 9 margin dips to {:.2} ms at t = {:.1} s",
                    r.transient_min_margin_ms, r.transient_at_s
                ),
            ));
        }
    }
    out
}

/// JSON rendering of the audit, including kernel coverage gaps.
#[must_use]
pub fn render_json(results: &[AuditResult], gaps: &[KernelGap]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"processors\":{},\"tasks\":{},\"eq9_worst_task\":\"{}\",\"eq9_margin_ms\":{:.4},\"gamma_max\":{},\"transient_min_margin_ms\":{:.4},\"transient_at_s\":{:.1},\"ok\":{}}}",
                json_escape(&r.name),
                r.processors,
                r.tasks,
                json_escape(&r.eq9_worst.task),
                r.eq9_worst.margin_ms(),
                json_opt_f64(r.gamma_max),
                r.transient_min_margin_ms,
                r.transient_at_s,
                r.ok()
            )
        })
        .collect();
    let mut findings = findings_json(results);
    findings.extend(gap_findings_json(gaps));
    let exit_code = exit_code(results, gaps);
    format!(
        "{{\"schema_version\":{},\"mode\":\"schedulability\",\"targets\":[{}],\"findings\":[{}],\"exit_code\":{exit_code}}}",
        crate::report::SCHEMA_VERSION,
        rows.join(","),
        findings.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_targets_are_feasible() {
        let results = audit_all();
        assert_eq!(results.len(), 7);
        for r in &results {
            assert!(
                r.ok(),
                "{} infeasible: margin {:.3} ms, γ {:?}",
                r.name,
                r.eq9_worst.margin_ms(),
                r.gamma_max
            );
        }
        assert_eq!(exit_code(&results, &[]), exit::CLEAN);
    }

    #[test]
    fn traffic_jam_spike_is_reported_as_transient() {
        let results = audit_all();
        let jam = results
            .iter()
            .find(|r| r.name == "scenario::traffic_jam")
            .expect("traffic jam audited");
        // The § VII-C spike is a designed overload: fusion's worst case
        // exceeds its deadline while 14 obstacles are in view, but the
        // reference operating point stays feasible.
        assert!(jam.transient_overload());
        assert!(jam.ok());
    }

    #[test]
    fn an_impossible_deadline_fails_the_gate() {
        use hcperf_taskgraph::{ExecModel, Priority, Stage, TaskGraph, TaskSpec};
        let mut b = TaskGraph::builder();
        b.add_task(
            TaskSpec::builder("doomed")
                .priority(Priority::new(1))
                .stage(Stage::Sensing)
                .exec_model(ExecModel::constant(SimSpan::from_millis(10.0)))
                .relative_deadline(SimSpan::from_millis(5.0))
                .build()
                .expect("valid spec"),
        );
        let target = AuditTarget {
            name: "synthetic::doomed".to_owned(),
            graph: b.build().expect("valid graph"),
            processors: 1,
            load: LoadProfile::constant(0.0),
            duration: 0.0,
            dps: DpsConfig::default(),
        };
        let r = audit(&target);
        assert!(!r.ok());
        assert!(r.eq9_worst.margin_ms() < 0.0);
        assert!(r.gamma_max.is_none());
        let findings = findings_json(std::slice::from_ref(&r));
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].contains("\"rule\":\"sched-eq9\""));
        assert!(findings[0].contains("\"severity\":\"error\""));
        assert!(findings[0].contains("\"target\":\"synthetic::doomed\""));
        assert!(findings[1].contains("\"rule\":\"sched-eq11\""));
        assert!(findings[2].contains("\"rule\":\"sched-eq9-transient\""));
        assert!(findings[2].contains("\"severity\":\"info\""));
        assert_eq!(exit_code(&[r], &[]), exit::SCHEDULABILITY);
    }

    #[test]
    fn kernel_gaps_flag_missing_and_unbounded_certificates() {
        let results = audit_all();
        // A full bounded certificate set covers everything.
        let mut certs = std::collections::BTreeMap::new();
        for name in [
            "gamma_max",
            "Sim::try_dispatch",
            "GammaScratch::rank",
            "GammaScratch::feasible",
            "DynamicPriorityScheduler::gamma_max_cached",
            "PerformanceDirectedController::step",
        ] {
            certs.insert(vec![name.to_owned(), "x.rs".to_owned()], Cost::N_LOG_N);
        }
        assert!(kernel_gaps(&results, &certs).is_empty());

        // Removing the DPS kernel breaks every scenario::* target but not
        // the bare graphs (they only use the reference oracle + dispatch).
        certs.remove(&vec!["GammaScratch::rank".to_owned(), "x.rs".to_owned()]);
        let gaps = kernel_gaps(&results, &certs);
        assert_eq!(gaps.len(), 5, "{gaps:?}");
        assert!(gaps.iter().all(|g| g.kernel == "GammaScratch::rank"));
        assert!(gaps.iter().all(|g| g.target.starts_with("scenario::")));

        // An unbounded certificate is as bad as a missing one.
        certs.insert(
            vec!["GammaScratch::rank".to_owned(), "x.rs".to_owned()],
            Cost::Unbounded,
        );
        let gaps = kernel_gaps(&results, &certs);
        assert_eq!(gaps.len(), 5);
        assert_eq!(gaps[0].cost, Some(Cost::Unbounded));
        let findings = gap_findings_json(&gaps);
        assert!(findings[0].contains("\"rule\":\"sched-wcet\""));
        assert!(findings[0].contains("\"severity\":\"error\""));
    }

    #[test]
    fn feasible_targets_emit_only_transient_info_findings() {
        let results = audit_all();
        for f in findings_json(&results) {
            assert!(
                f.contains("\"rule\":\"sched-eq9-transient\"")
                    && f.contains("\"severity\":\"info\""),
                "unexpected error finding on a builtin target: {f}"
            );
        }
    }
}
