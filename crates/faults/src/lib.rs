//! `hcperf-faults` — declarative, seed-deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative list of timed fault specifications —
//! execution-time spikes, stuck-slow tasks, job drops, processor
//! stall/fail/recover, sensor dropout, TRA feedback corruption and whole
//! vehicle crashes. Plans are JSON-loadable ([`FaultPlan::from_json`])
//! and preset-registrable ([`FaultPlan::preset`]), and are *materialized*
//! per vehicle into concrete fault windows
//! ([`FaultPlan::materialize`] → [`VehicleFaults`]).
//!
//! # Determinism contract
//!
//! Each fault event is scheduled from a SplitMix64 stream derived from
//! the stable key `faults/<plan>/vehicle=<i>/event=<j>` over the
//! vehicle's own seed, via the same
//! [`derive_seed`] the fleet harness
//! uses for vehicle seeds. A fleet shard therefore sees the byte-identical
//! fault sequence at any worker count, and a *retried* vehicle (whose
//! seed is attempt-derived) re-draws its faults — a crash fault is a
//! transient the supervisor may recover from, not a fixed property of the
//! vehicle index.
//!
//! Simulator-level faults convert to [`hcperf_rtsim::fault::FaultWindow`]s
//! and ride the engine's deterministic event queue; control-level faults
//! (sensor dropout, feedback corruption) and vehicle crashes are exposed
//! as plain time windows for the scenario loop to apply.

use std::fmt;
use std::fs;
use std::path::Path;

use hcperf_harness::json_escape;
use hcperf_harness::seed::{derive_seed, splitmix64};
use hcperf_rtsim::fault::{FaultEffect, FaultWindow, KillPolicy};
use hcperf_taskgraph::{SimSpan, SimTime, TaskGraph};
use serde_json::Value;

/// One category of injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Sampled execution times of `task` are multiplied by `scale` and
    /// extended by `extra_ms` for the spec's duration.
    ExecSpike {
        /// Task name in the scenario's graph.
        task: String,
        /// Execution-time multiplier (finite, `>= 0`).
        scale: f64,
        /// Additive execution-time penalty in milliseconds.
        extra_ms: f64,
    },
    /// Like [`FaultKind::ExecSpike`] but permanent once it lands: the
    /// task stays slow until the end of the run (the spec's duration is
    /// ignored).
    StuckSlow {
        /// Task name in the scenario's graph.
        task: String,
        /// Execution-time multiplier (finite, `>= 1` in sensible plans).
        scale: f64,
    },
    /// Released jobs of `task` are dropped before queueing for the
    /// spec's duration.
    JobDrop {
        /// Task name in the scenario's graph.
        task: String,
    },
    /// The processor accepts no new work for the spec's duration; its
    /// running job completes normally.
    ProcessorStall {
        /// Processor index.
        processor: usize,
    },
    /// The processor fails: its running job is killed (requeued or
    /// discarded) and it recovers after the spec's duration (a duration
    /// of `0` never recovers).
    ProcessorFail {
        /// Processor index.
        processor: usize,
        /// Requeue (`true`) or discard (`false`) the killed job.
        requeue: bool,
    },
    /// The scenario's sensor readings go stale for the spec's duration:
    /// the PDC is fed last-known-good input (bounded-staleness hold).
    SensorDropout,
    /// The miss-ratio feedback fed to the TRA is overridden with
    /// `miss_ratio` for the spec's duration (corrupted telemetry).
    FeedbackCorrupt {
        /// The forced miss-ratio value, in `[0, 1]`.
        miss_ratio: f64,
    },
    /// The whole vehicle process crashes (a deterministic panic) at the
    /// drawn onset — exercises harness retry + fleet quarantine.
    VehicleCrash,
}

impl FaultKind {
    fn tag(&self) -> &'static str {
        match self {
            FaultKind::ExecSpike { .. } => "exec-spike",
            FaultKind::StuckSlow { .. } => "stuck-slow",
            FaultKind::JobDrop { .. } => "job-drop",
            FaultKind::ProcessorStall { .. } => "processor-stall",
            FaultKind::ProcessorFail { .. } => "processor-fail",
            FaultKind::SensorDropout => "sensor-dropout",
            FaultKind::FeedbackCorrupt { .. } => "feedback-corrupt",
            FaultKind::VehicleCrash => "vehicle-crash",
        }
    }
}

/// One timed fault specification inside a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What the fault does.
    pub kind: FaultKind,
    /// Per-vehicle probability the fault occurs at all, in `[0, 1]`.
    pub probability: f64,
    /// Onset window `[lo, hi]` in seconds; the onset is drawn uniformly
    /// from it (equal endpoints pin the onset).
    pub window: (f64, f64),
    /// Active duration in seconds; `<= 0` means until the end of the run.
    pub duration: f64,
}

/// A named, declarative list of fault specifications.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Plan name; part of every event's seed-derivation key.
    pub name: String,
    /// The fault specifications, in authored order.
    pub faults: Vec<FaultSpec>,
}

/// Error raised when loading, resolving or materializing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// `--faults <arg>` named neither a registered preset nor a readable
    /// JSON file.
    UnknownPlan(String),
    /// The JSON text did not parse or did not have the plan shape.
    Parse(String),
    /// A spec names a task absent from the scenario's graph.
    UnknownTask(String),
    /// A spec carries an out-of-domain parameter.
    Invalid(&'static str),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownPlan(name) => write!(
                f,
                "unknown fault plan '{name}' (not a registered preset or readable JSON file; \
                 presets: {})",
                FaultPlan::preset_names().join(", ")
            ),
            FaultPlanError::Parse(msg) => write!(f, "fault plan parse error: {msg}"),
            FaultPlanError::UnknownTask(task) => {
                write!(f, "fault plan names task '{task}' absent from the graph")
            }
            FaultPlanError::Invalid(why) => write!(f, "invalid fault spec: {why}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The faults one concrete vehicle experiences, materialized from a plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VehicleFaults {
    /// Simulator-level windows, ready for `Sim::inject_fault`.
    pub sim: Vec<FaultWindow>,
    /// Sensor-dropout windows `(start, end)` in seconds, for the
    /// scenario loop's stale-input hold.
    pub sensor_dropouts: Vec<(f64, f64)>,
    /// Feedback-corruption windows `(start, end, forced_miss_ratio)`.
    pub feedback: Vec<(f64, f64, f64)>,
    /// Earliest injected whole-vehicle crash time, if any.
    pub crash_at: Option<f64>,
}

impl VehicleFaults {
    /// `true` when no fault landed on this vehicle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
            && self.sensor_dropouts.is_empty()
            && self.feedback.is_empty()
            && self.crash_at.is_none()
    }

    /// `true` when `t` falls inside any sensor-dropout window.
    #[must_use]
    pub fn sensor_dropped_at(&self, t: f64) -> bool {
        self.sensor_dropouts.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// The forced miss ratio at `t`, if a corruption window covers it.
    #[must_use]
    pub fn corrupted_feedback_at(&self, t: f64) -> Option<f64> {
        self.feedback
            .iter()
            .find(|&&(s, e, _)| t >= s && t < e)
            .map(|&(_, _, m)| m)
    }
}

/// Uniform `[0, 1)` from one SplitMix64 output word.
fn u01(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty plan (injects nothing; runs are byte-identical to
    /// fault-free runs).
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Names of the registered presets.
    #[must_use]
    pub fn preset_names() -> Vec<&'static str> {
        vec!["traction-loss", "chaos"]
    }

    /// Looks up a registered preset plan by name.
    #[must_use]
    pub fn preset(name: &str) -> Option<FaultPlan> {
        match name {
            "traction-loss" => Some(Self::traction_loss()),
            "chaos" => Some(Self::chaos()),
            _ => None,
        }
    }

    /// The paper-shape robustness scenario (ROADMAP item 3a): a sudden
    /// tire–road friction drop mid-run. Perception work (`sensor_fusion`)
    /// spikes hard while the sensors briefly drop out, stressing the PDC
    /// (stale input) and the TRA (miss-ratio surge) simultaneously. All
    /// probabilities are 1 with pinned onsets so scheme comparisons see
    /// the identical disturbance.
    #[must_use]
    pub fn traction_loss() -> FaultPlan {
        FaultPlan {
            name: "traction-loss".to_string(),
            faults: vec![
                FaultSpec {
                    kind: FaultKind::ExecSpike {
                        task: "sensor_fusion".to_string(),
                        scale: 3.0,
                        extra_ms: 12.0,
                    },
                    probability: 1.0,
                    window: (30.0, 30.0),
                    duration: 8.0,
                },
                FaultSpec {
                    kind: FaultKind::SensorDropout,
                    probability: 1.0,
                    window: (30.0, 30.0),
                    duration: 1.2,
                },
            ],
        }
    }

    /// A dense probabilistic plan for chaos testing the whole stack:
    /// spikes, drops, processor stall/fail, sensor dropout, corrupted
    /// feedback and vehicle crashes. Onset windows sit inside the first
    /// half-second so the plan bites even at smoke-test horizons.
    #[must_use]
    pub fn chaos() -> FaultPlan {
        FaultPlan {
            name: "chaos".to_string(),
            faults: vec![
                FaultSpec {
                    kind: FaultKind::ExecSpike {
                        task: "sensor_fusion".to_string(),
                        scale: 2.5,
                        extra_ms: 6.0,
                    },
                    probability: 0.5,
                    window: (0.05, 0.25),
                    duration: 0.15,
                },
                FaultSpec {
                    kind: FaultKind::JobDrop {
                        task: "sensor_fusion".to_string(),
                    },
                    probability: 0.3,
                    window: (0.05, 0.3),
                    duration: 0.1,
                },
                FaultSpec {
                    kind: FaultKind::ProcessorFail {
                        processor: 0,
                        requeue: true,
                    },
                    probability: 0.4,
                    window: (0.05, 0.3),
                    duration: 0.12,
                },
                FaultSpec {
                    kind: FaultKind::ProcessorStall { processor: 1 },
                    probability: 0.4,
                    window: (0.05, 0.3),
                    duration: 0.1,
                },
                FaultSpec {
                    kind: FaultKind::SensorDropout,
                    probability: 0.5,
                    window: (0.05, 0.3),
                    duration: 0.1,
                },
                FaultSpec {
                    kind: FaultKind::FeedbackCorrupt { miss_ratio: 0.8 },
                    probability: 0.3,
                    window: (0.05, 0.3),
                    duration: 0.1,
                },
                FaultSpec {
                    kind: FaultKind::VehicleCrash,
                    probability: 0.25,
                    window: (0.0, 0.4),
                    duration: 0.0,
                },
            ],
        }
    }

    /// Resolves a `--faults` argument: a registered preset name first,
    /// else a path to a JSON plan file.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::UnknownPlan`] when the argument is neither, and
    /// any [`FaultPlanError::Parse`] from the file contents.
    pub fn resolve(arg: &str) -> Result<FaultPlan, FaultPlanError> {
        if let Some(plan) = Self::preset(arg) {
            return Ok(plan);
        }
        let path = Path::new(arg);
        if path.is_file() {
            let text = fs::read_to_string(path)
                .map_err(|e| FaultPlanError::Parse(format!("{}: {e}", path.display())))?;
            return Self::from_json(&text);
        }
        Err(FaultPlanError::UnknownPlan(arg.to_string()))
    }

    /// Parses a plan from its JSON form (see [`FaultPlan::to_json`]).
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::Parse`] describing the first malformed field.
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| FaultPlanError::Parse(format!("{e:?}")))?;
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| FaultPlanError::Parse("missing string field 'name'".to_string()))?
            .to_string();
        let faults_value = value
            .get("faults")
            .and_then(Value::as_array)
            .ok_or_else(|| FaultPlanError::Parse("missing array field 'faults'".to_string()))?;
        let mut faults = Vec::with_capacity(faults_value.len());
        for (j, spec) in faults_value.iter().enumerate() {
            faults.push(
                parse_spec(spec)
                    .map_err(|msg| FaultPlanError::Parse(format!("faults[{j}]: {msg}")))?,
            );
        }
        Ok(FaultPlan { name, faults })
    }

    /// Serializes the plan to its canonical single-line JSON form —
    /// stable field order, so the string doubles as the plan's identity
    /// for cache fingerprints.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.faults.len() * 96);
        out.push_str("{\"name\":\"");
        out.push_str(&json_escape(&self.name));
        out.push_str("\",\"faults\":[");
        for (j, spec) in self.faults.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_spec(&mut out, spec);
        }
        out.push_str("]}");
        out
    }

    /// Materializes the plan for one vehicle: draws each spec's
    /// occurrence and onset from the SplitMix64 stream keyed
    /// `faults/<plan>/vehicle=<vehicle>/event=<j>` over `vehicle_seed`,
    /// and resolves task names against `graph`.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::UnknownTask`] for a task name absent from
    /// `graph`; [`FaultPlanError::Invalid`] for out-of-domain parameters.
    pub fn materialize(
        &self,
        graph: &TaskGraph,
        vehicle: usize,
        vehicle_seed: u64,
    ) -> Result<VehicleFaults, FaultPlanError> {
        let mut out = VehicleFaults::default();
        for (j, spec) in self.faults.iter().enumerate() {
            if !(0.0..=1.0).contains(&spec.probability) {
                return Err(FaultPlanError::Invalid("probability outside [0, 1]"));
            }
            let (lo, hi) = spec.window;
            if !lo.is_finite() || !hi.is_finite() || hi < lo || lo < 0.0 {
                return Err(FaultPlanError::Invalid(
                    "onset window must be finite, non-negative and ordered",
                ));
            }
            if !spec.duration.is_finite() {
                return Err(FaultPlanError::Invalid("duration must be finite"));
            }
            let finite = match &spec.kind {
                FaultKind::ExecSpike {
                    scale, extra_ms, ..
                } => scale.is_finite() && extra_ms.is_finite(),
                FaultKind::StuckSlow { scale, .. } => scale.is_finite(),
                _ => true,
            };
            if !finite {
                return Err(FaultPlanError::Invalid(
                    "execution scale and extra time must be finite",
                ));
            }
            let key = format!("faults/{}/vehicle={vehicle}/event={j}", self.name);
            let mut state = derive_seed(vehicle_seed, &key);
            let occurs = u01(splitmix64(&mut state)) < spec.probability;
            let onset_u = u01(splitmix64(&mut state));
            let start = lo + onset_u * (hi - lo);
            // `duration <= 0` encodes "until end of run", which the
            // engine reads as `end <= start`.
            let end = start + spec.duration.max(0.0);
            if !end.is_finite() {
                return Err(FaultPlanError::Invalid(
                    "onset window plus duration must be finite",
                ));
            }
            if !occurs {
                continue;
            }
            match &spec.kind {
                FaultKind::ExecSpike {
                    task,
                    scale,
                    extra_ms,
                } => out.sim.push(FaultWindow {
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(end),
                    effect: FaultEffect::ExecSpike {
                        task: find_task(graph, task)?,
                        scale: *scale,
                        extra: SimSpan::from_millis(*extra_ms),
                    },
                }),
                FaultKind::StuckSlow { task, scale } => out.sim.push(FaultWindow {
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(start),
                    effect: FaultEffect::ExecSpike {
                        task: find_task(graph, task)?,
                        scale: *scale,
                        extra: SimSpan::ZERO,
                    },
                }),
                FaultKind::JobDrop { task } => out.sim.push(FaultWindow {
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(end),
                    effect: FaultEffect::JobDrop {
                        task: find_task(graph, task)?,
                    },
                }),
                FaultKind::ProcessorStall { processor } => out.sim.push(FaultWindow {
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(end),
                    effect: FaultEffect::ProcessorStall {
                        processor: *processor,
                    },
                }),
                FaultKind::ProcessorFail { processor, requeue } => out.sim.push(FaultWindow {
                    start: SimTime::from_secs(start),
                    end: SimTime::from_secs(if spec.duration > 0.0 { end } else { start }),
                    effect: FaultEffect::ProcessorFail {
                        processor: *processor,
                        policy: if *requeue {
                            KillPolicy::Requeue
                        } else {
                            KillPolicy::Discard
                        },
                    },
                }),
                FaultKind::SensorDropout => out.sensor_dropouts.push((start, end)),
                FaultKind::FeedbackCorrupt { miss_ratio } => {
                    if !(0.0..=1.0).contains(miss_ratio) {
                        return Err(FaultPlanError::Invalid("forced miss ratio outside [0, 1]"));
                    }
                    out.feedback.push((start, end, *miss_ratio));
                }
                FaultKind::VehicleCrash => {
                    out.crash_at = Some(out.crash_at.map_or(start, |t: f64| t.min(start)));
                }
            }
        }
        Ok(out)
    }
}

fn find_task(graph: &TaskGraph, name: &str) -> Result<hcperf_taskgraph::TaskId, FaultPlanError> {
    graph
        .find(name)
        .ok_or_else(|| FaultPlanError::UnknownTask(name.to_string()))
}

/// Writes one `f64` the way the canonical plan JSON spells numbers:
/// shortest round-trip via Rust's `{}` formatting.
fn push_f64(out: &mut String, v: f64) {
    use fmt::Write;
    let _ = write!(out, "{v}");
}

fn write_spec(out: &mut String, spec: &FaultSpec) {
    use fmt::Write;
    out.push_str("{\"kind\":\"");
    out.push_str(spec.kind.tag());
    out.push('"');
    match &spec.kind {
        FaultKind::ExecSpike {
            task,
            scale,
            extra_ms,
        } => {
            let _ = write!(out, ",\"task\":\"{}\"", json_escape(task));
            out.push_str(",\"scale\":");
            push_f64(out, *scale);
            out.push_str(",\"extra_ms\":");
            push_f64(out, *extra_ms);
        }
        FaultKind::StuckSlow { task, scale } => {
            let _ = write!(out, ",\"task\":\"{}\"", json_escape(task));
            out.push_str(",\"scale\":");
            push_f64(out, *scale);
        }
        FaultKind::JobDrop { task } => {
            let _ = write!(out, ",\"task\":\"{}\"", json_escape(task));
        }
        FaultKind::ProcessorStall { processor } => {
            let _ = write!(out, ",\"processor\":{processor}");
        }
        FaultKind::ProcessorFail { processor, requeue } => {
            let _ = write!(out, ",\"processor\":{processor},\"requeue\":{requeue}");
        }
        FaultKind::SensorDropout | FaultKind::VehicleCrash => {}
        FaultKind::FeedbackCorrupt { miss_ratio } => {
            out.push_str(",\"miss_ratio\":");
            push_f64(out, *miss_ratio);
        }
    }
    out.push_str(",\"probability\":");
    push_f64(out, spec.probability);
    out.push_str(",\"window\":[");
    push_f64(out, spec.window.0);
    out.push(',');
    push_f64(out, spec.window.1);
    out.push_str("],\"duration\":");
    push_f64(out, spec.duration);
    out.push('}');
}

fn parse_spec(value: &Value) -> Result<FaultSpec, String> {
    let kind_tag = value
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field 'kind'".to_string())?;
    let task = |v: &Value| -> Result<String, String> {
        v.get("task")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("kind '{kind_tag}' needs string field 'task'"))
    };
    let num = |v: &Value, field: &str| -> Result<f64, String> {
        v.get(field)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("kind '{kind_tag}' needs number field '{field}'"))
    };
    let kind = match kind_tag {
        "exec-spike" => FaultKind::ExecSpike {
            task: task(value)?,
            scale: num(value, "scale")?,
            extra_ms: num(value, "extra_ms")?,
        },
        "stuck-slow" => FaultKind::StuckSlow {
            task: task(value)?,
            scale: num(value, "scale")?,
        },
        "job-drop" => FaultKind::JobDrop { task: task(value)? },
        "processor-stall" => FaultKind::ProcessorStall {
            processor: value
                .get("processor")
                .and_then(Value::as_u64)
                .ok_or("processor-stall needs integer field 'processor'")?
                as usize,
        },
        "processor-fail" => FaultKind::ProcessorFail {
            processor: value
                .get("processor")
                .and_then(Value::as_u64)
                .ok_or("processor-fail needs integer field 'processor'")?
                as usize,
            requeue: value
                .get("requeue")
                .and_then(Value::as_bool)
                .unwrap_or(true),
        },
        "sensor-dropout" => FaultKind::SensorDropout,
        "feedback-corrupt" => FaultKind::FeedbackCorrupt {
            miss_ratio: num(value, "miss_ratio")?,
        },
        "vehicle-crash" => FaultKind::VehicleCrash,
        other => return Err(format!("unknown fault kind '{other}'")),
    };
    let window = value
        .get("window")
        .and_then(Value::as_array)
        .filter(|a| a.len() == 2)
        .and_then(|a| Some((a[0].as_f64()?, a[1].as_f64()?)))
        .ok_or("missing two-element number array 'window'")?;
    Ok(FaultSpec {
        kind,
        probability: num(value, "probability")?,
        window,
        duration: num(value, "duration")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};

    fn graph() -> TaskGraph {
        apollo_graph(&GraphOptions::default()).expect("apollo graph builds")
    }

    #[test]
    fn presets_resolve_and_round_trip() {
        for name in FaultPlan::preset_names() {
            let plan = FaultPlan::preset(name).expect("registered preset");
            assert_eq!(plan.name, name);
            assert!(!plan.is_empty());
            let round = FaultPlan::from_json(&plan.to_json()).expect("round trip");
            assert_eq!(round, plan, "canonical JSON round-trips {name}");
        }
        assert!(FaultPlan::preset("nope").is_none());
    }

    #[test]
    fn resolve_prefers_presets_then_files() {
        assert_eq!(
            FaultPlan::resolve("chaos").expect("preset"),
            FaultPlan::chaos()
        );
        let err = FaultPlan::resolve("/definitely/not/a/file.json").unwrap_err();
        assert!(matches!(err, FaultPlanError::UnknownPlan(_)));
    }

    #[test]
    fn materialization_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::chaos();
        let g = graph();
        let a = plan.materialize(&g, 7, 0xABCD).expect("materialize");
        let b = plan.materialize(&g, 7, 0xABCD).expect("materialize");
        assert_eq!(a, b, "same (vehicle, seed) => identical faults");
        let c = plan.materialize(&g, 8, 0xABCD).expect("materialize");
        let d = plan.materialize(&g, 7, 0xABCE).expect("materialize");
        assert!(
            a != c || a != d,
            "different vehicle or seed should perturb at least one draw"
        );
    }

    #[test]
    fn empty_plan_materializes_empty() {
        let faults = FaultPlan::empty()
            .materialize(&graph(), 0, 42)
            .expect("empty");
        assert!(faults.is_empty());
    }

    #[test]
    fn traction_loss_is_pinned_and_certain() {
        let plan = FaultPlan::traction_loss();
        let g = graph();
        // Probability 1 with a pinned window: every vehicle/seed sees the
        // same disturbance (scheme comparisons need identical inputs).
        let a = plan.materialize(&g, 0, 1).expect("materialize");
        let b = plan.materialize(&g, 99, 12345).expect("materialize");
        assert_eq!(a.sim.len(), 1);
        assert_eq!(a.sensor_dropouts.len(), 1);
        assert_eq!(a.sim, b.sim);
        assert_eq!(a.sensor_dropouts, b.sensor_dropouts);
        assert!((a.sensor_dropouts[0].0 - 30.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_task_is_an_error() {
        let plan = FaultPlan {
            name: "bad".to_string(),
            faults: vec![FaultSpec {
                kind: FaultKind::JobDrop {
                    task: "not_a_task".to_string(),
                },
                probability: 1.0,
                window: (0.0, 0.0),
                duration: 1.0,
            }],
        };
        let err = plan.materialize(&graph(), 0, 0).unwrap_err();
        assert_eq!(err, FaultPlanError::UnknownTask("not_a_task".to_string()));
    }

    #[test]
    fn window_helpers_cover_membership() {
        let v = VehicleFaults {
            sensor_dropouts: vec![(1.0, 2.0)],
            feedback: vec![(3.0, 4.0, 0.9)],
            ..VehicleFaults::default()
        };
        assert!(v.sensor_dropped_at(1.5));
        assert!(!v.sensor_dropped_at(2.0), "end-exclusive");
        assert_eq!(v.corrupted_feedback_at(3.5), Some(0.9));
        assert_eq!(v.corrupted_feedback_at(4.5), None);
    }

    #[test]
    fn malformed_json_reports_the_field() {
        let err = FaultPlan::from_json("{\"name\":\"x\",\"faults\":[{\"kind\":\"exec-spike\"}]}")
            .unwrap_err();
        match err {
            FaultPlanError::Parse(msg) => assert!(msg.contains("task"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
