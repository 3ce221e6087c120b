//! Ready-made task graphs from the paper.
//!
//! * [`motivation_graph`] — the small pipeline of Fig. 2 used in the § II
//!   motivation study (image pre-processing, traffic-light detection,
//!   configurable sensor fusion, …, control).
//! * [`apollo_graph`] — the 23-task sensing→control DAG of Fig. 11 used in
//!   the evaluation, with per-task `[priority, execution-time]` pairs and the
//!   20 ms nominal configurable-sensor-fusion cost from § VII-B1.
//!
//! The paper prints only four execution-time distributions (Fig. 12) and the
//! fusion task's 20 ms nominal; the remaining values here are chosen to match
//! the reported ranges (milliseconds on a Jetson-TX2-class platform) and to
//! land total utilization near the capacity of a 4-processor system at the
//! default 20 Hz pipeline rate, which is what makes the evaluation's regime
//! change (20 ms → 40 ms fusion) push the baselines into overload.

use crate::exec::ExecModel;
use crate::graph::{GraphError, TaskGraph};
use crate::rate::RateRange;
use crate::task::{Criticality, Priority, Stage, TaskSpec};
use crate::time::SimSpan;

/// Options controlling graph construction.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    /// Add a uniform ±`jitter_frac` execution-time jitter to every task.
    pub jitter_frac: f64,
    /// Bind tasks to processors by stage (used by the Apollo baseline).
    pub with_affinity: bool,
    /// Number of processors used for the static stage binding.
    pub processors: usize,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            jitter_frac: 0.1,
            with_affinity: true,
            processors: 4,
        }
    }
}

fn exec(nominal_ms: f64, jitter_frac: f64) -> ExecModel {
    if jitter_frac <= 0.0 {
        return ExecModel::constant(SimSpan::from_millis(nominal_ms));
    }
    let spread = nominal_ms * jitter_frac;
    ExecModel::uniform(
        SimSpan::from_millis((nominal_ms - spread).max(0.05)),
        SimSpan::from_millis(nominal_ms + spread),
    )
}

/// Builds the Fig. 2 motivation pipeline.
///
/// Seven tasks: two sensing sources, traffic-light detection, object
/// tracking, configurable sensor fusion (Hungarian, load-dependent),
/// obstacle prediction, planning and control. Control carries the highest
/// static priority, as in the figure.
///
/// # Errors
///
/// Never fails for the fixed topology; the `Result` surfaces
/// [`GraphError`] for uniformity with user-built graphs.
///
/// # Examples
///
/// ```
/// let g = hcperf_taskgraph::graphs::motivation_graph(&Default::default())?;
/// assert_eq!(g.len(), 8);
/// assert!(g.find("sensor_fusion").is_some());
/// # Ok::<(), hcperf_taskgraph::GraphError>(())
/// ```
pub fn motivation_graph(opts: &GraphOptions) -> Result<TaskGraph, GraphError> {
    let j = opts.jitter_frac;
    let mut b = TaskGraph::builder();

    let image = b.add_task(
        TaskSpec::builder("image_preproc")
            .priority(Priority::new(6))
            .stage(Stage::Sensing)
            .exec_model(exec(8.0, j))
            .relative_deadline(SimSpan::from_millis(40.0))
            .rate_range(RateRange::from_hz(10.0, 100.0))
            .build()
            .expect("static spec"),
    );
    let lidar = b.add_task(
        TaskSpec::builder("lidar_preproc")
            .priority(Priority::new(5))
            .stage(Stage::Sensing)
            .exec_model(exec(10.0, j))
            .relative_deadline(SimSpan::from_millis(40.0))
            .rate_range(RateRange::from_hz(10.0, 100.0))
            .build()
            .expect("static spec"),
    );
    let tl_detect = b.add_task(
        TaskSpec::builder("traffic_light_detection")
            .priority(Priority::new(7))
            .stage(Stage::Perception)
            .exec_model(exec(7.0, j))
            .relative_deadline(SimSpan::from_millis(45.0))
            .build()
            .expect("static spec"),
    );
    // The configurable sensor fusion: 5 ms base plus a Hungarian O(n^3)
    // matching term in the obstacle count. Its relative deadline is sized
    // for the worst-case matching cost, so overload manifests as *system*
    // congestion (queueing and starvation), not as a structurally
    // impossible task.
    let fusion = b.add_task(
        TaskSpec::builder("sensor_fusion")
            .priority(Priority::new(4))
            .stage(Stage::Perception)
            .criticality(Criticality::High)
            .exec_model(
                ExecModel::hungarian(SimSpan::from_millis(5.0), SimSpan::from_millis(0.012))
                    .plus(exec(1.0, j)),
            )
            .relative_deadline(SimSpan::from_millis(100.0))
            .build()
            .expect("static spec"),
    );
    let tracking = b.add_task(
        TaskSpec::builder("object_tracking")
            .priority(Priority::new(3))
            .stage(Stage::Perception)
            .exec_model(exec(8.0, j))
            .relative_deadline(SimSpan::from_millis(45.0))
            .build()
            .expect("static spec"),
    );
    let prediction = b.add_task(
        TaskSpec::builder("obstacle_prediction")
            .priority(Priority::new(2))
            .stage(Stage::Prediction)
            .exec_model(exec(9.0, j))
            .relative_deadline(SimSpan::from_millis(45.0))
            .build()
            .expect("static spec"),
    );
    let planning = b.add_task(
        TaskSpec::builder("planning")
            .priority(Priority::new(1))
            .stage(Stage::Planning)
            .criticality(Criticality::High)
            .exec_model(exec(10.0, j))
            .relative_deadline(SimSpan::from_millis(45.0))
            .build()
            .expect("static spec"),
    );
    let control = b.add_task(
        TaskSpec::builder("control")
            .priority(Priority::new(0))
            .stage(Stage::Control)
            .criticality(Criticality::High)
            .exec_model(exec(4.0, j))
            .relative_deadline(SimSpan::from_millis(30.0))
            .build()
            .expect("static spec"),
    );

    // Fusion joins lidar and camera.
    b.add_edge(lidar, fusion)?;
    b.add_edge(image, fusion)?;
    b.add_edge(image, tl_detect)?;
    b.add_edge(fusion, tracking)?;
    b.add_edge(tracking, prediction)?;
    b.add_edge(prediction, planning)?;
    b.add_edge(tl_detect, planning)?;
    b.add_edge(planning, control)?;
    b.build()
}

/// Description of one Fig. 11 task row: `(name, stage, priority,
/// nominal execution ms, deadline ms)`.
type Row = (&'static str, Stage, u32, f64, f64);

const APOLLO_ROWS: [Row; 23] = [
    // Sensing sources.
    ("camera_front_preproc", Stage::Sensing, 7, 8.0, 45.0),
    ("camera_tl_preproc", Stage::Sensing, 8, 6.0, 45.0),
    ("lidar_preproc", Stage::Sensing, 6, 10.0, 45.0),
    ("radar_preproc", Stage::Sensing, 9, 3.0, 40.0),
    // GPS/IMU is cheap and feeds localization — high priority in Apollo.
    ("gps_imu", Stage::Sensing, 5, 1.0, 35.0),
    ("ultrasonic_preproc", Stage::Sensing, 11, 2.0, 40.0),
    // Perception.
    ("lane_detection", Stage::Perception, 6, 8.0, 50.0),
    ("traffic_light_detection", Stage::Perception, 7, 7.0, 55.0),
    ("object_detection_2d", Stage::Perception, 5, 12.0, 50.0),
    ("object_detection_3d", Stage::Perception, 5, 14.0, 50.0),
    ("radar_tracking", Stage::Perception, 7, 4.0, 45.0),
    ("segmentation", Stage::Perception, 8, 9.0, 60.0),
    ("sensor_fusion", Stage::Perception, 4, 20.0, 60.0),
    ("object_tracking", Stage::Perception, 5, 8.0, 50.0),
    // Localization.
    ("pose_fusion", Stage::Localization, 5, 5.0, 40.0),
    ("map_matching", Stage::Localization, 6, 4.0, 45.0),
    // Prediction.
    ("obstacle_prediction", Stage::Prediction, 3, 10.0, 50.0),
    ("intent_prediction", Stage::Prediction, 4, 6.0, 55.0),
    // Planning.
    ("routing", Stage::Planning, 6, 3.0, 60.0),
    ("behavior_planning", Stage::Planning, 3, 8.0, 50.0),
    ("motion_planning", Stage::Planning, 2, 12.0, 50.0),
    // Control.
    ("lat_lon_control", Stage::Control, 1, 5.0, 35.0),
    ("chassis_command", Stage::Control, 0, 2.0, 25.0),
];

/// Edges of the Fig. 11 graph as `(from, to)` task names. A task joins all
/// of its inbound edges; their order only fixes the iteration order of
/// `ipred`/`isucc`.
const APOLLO_EDGES: [(&str, &str); 26] = [
    ("camera_front_preproc", "lane_detection"),
    ("camera_front_preproc", "object_detection_2d"),
    ("camera_tl_preproc", "traffic_light_detection"),
    ("lidar_preproc", "object_detection_3d"),
    ("lidar_preproc", "segmentation"),
    ("lidar_preproc", "pose_fusion"),
    ("radar_preproc", "radar_tracking"),
    ("gps_imu", "pose_fusion"),
    // Fusion joins the 3D detector (lidar channel), the 2D detector, the
    // radar tracker and the ultrasonic channel.
    ("object_detection_3d", "sensor_fusion"),
    ("object_detection_2d", "sensor_fusion"),
    ("radar_tracking", "sensor_fusion"),
    ("ultrasonic_preproc", "sensor_fusion"),
    ("sensor_fusion", "object_tracking"),
    ("segmentation", "object_tracking"),
    ("pose_fusion", "map_matching"),
    ("object_tracking", "obstacle_prediction"),
    ("map_matching", "obstacle_prediction"),
    ("object_tracking", "intent_prediction"),
    ("map_matching", "routing"),
    ("obstacle_prediction", "behavior_planning"),
    ("traffic_light_detection", "behavior_planning"),
    ("lane_detection", "behavior_planning"),
    ("routing", "behavior_planning"),
    ("behavior_planning", "motion_planning"),
    ("intent_prediction", "motion_planning"),
    ("motion_planning", "lat_lon_control"),
];

/// Final edge closing the control chain; kept separate so the row/edge
/// tables above stay within fixed-size arrays.
const APOLLO_FINAL_EDGE: (&str, &str) = ("lat_lon_control", "chassis_command");

/// Builds the 23-task Fig. 11 evaluation graph.
///
/// The configurable sensor fusion task carries a Hungarian load-dependent
/// model on top of its 20 ms nominal cost; scenario code can additionally
/// wrap it in a [`ExecModel::Step`] for the § VII-B1 regime change via
/// [`with_fusion_step`].
///
/// Source tasks get the paper's `[10 Hz, 100 Hz]` allowable rate range.
/// High-criticality marking (for EDF-VD) covers the fusion/planning/control
/// chain.
///
/// # Errors
///
/// Never fails for the fixed topology; the `Result` surfaces
/// [`GraphError`] for uniformity.
///
/// # Examples
///
/// ```
/// let g = hcperf_taskgraph::graphs::apollo_graph(&Default::default())?;
/// assert_eq!(g.len(), 23);
/// assert_eq!(g.sources().len(), 6);
/// # Ok::<(), hcperf_taskgraph::GraphError>(())
/// ```
pub fn apollo_graph(opts: &GraphOptions) -> Result<TaskGraph, GraphError> {
    let mut b = TaskGraph::builder();
    let high_crit = [
        "sensor_fusion",
        "obstacle_prediction",
        "behavior_planning",
        "motion_planning",
        "lat_lon_control",
        "chassis_command",
    ];
    let affinities = if opts.with_affinity {
        Some(balanced_affinities(
            &APOLLO_ROWS.map(|(_, _, _, ms, _)| ms),
            opts.processors.max(1),
        ))
    } else {
        None
    };
    for (idx, (name, stage, prio, ms, deadline_ms)) in APOLLO_ROWS.into_iter().enumerate() {
        let model = if name == "sensor_fusion" {
            // 20 ms nominal at zero load; the Hungarian term adds the
            // obstacle-count dependence of § II.
            ExecModel::hungarian(SimSpan::from_millis(ms), SimSpan::from_millis(0.02))
                .plus(exec(0.5, opts.jitter_frac))
        } else {
            exec(ms, opts.jitter_frac)
        };
        let mut spec = TaskSpec::builder(name)
            .priority(Priority::new(prio))
            .stage(stage)
            .exec_model(model)
            .relative_deadline(SimSpan::from_millis(deadline_ms));
        if stage == Stage::Sensing {
            spec = spec.rate_range(RateRange::from_hz(10.0, 100.0));
        }
        if high_crit.contains(&name) {
            spec = spec.criticality(Criticality::High);
        }
        if let Some(aff) = &affinities {
            spec = spec.affinity(aff[idx]);
        }
        b.add_task(spec.build().expect("static spec"));
    }

    let mut graph_edges: Vec<(&str, &str)> = APOLLO_EDGES.to_vec();
    graph_edges.push(APOLLO_FINAL_EDGE);
    // `add_edge` needs ids; build a name lookup over the builder's rows.
    let find = |name: &str| -> crate::task::TaskId {
        let idx = APOLLO_ROWS
            .iter()
            .position(|(n, ..)| *n == name)
            .expect("edge references a known row");
        crate::task::TaskId::new(idx)
    };
    for (from, to) in graph_edges {
        b.add_edge(find(from), find(to))?;
    }
    b.build()
}

/// Greedy load-balanced static binding, as a practitioner deploying Apollo
/// would configure it: tasks in descending nominal cost, each onto the
/// currently least-loaded processor. The binding is *balanced at nominal
/// load* — the Apollo baseline's weakness is that it cannot rebalance when
/// a task's execution time later inflates (§ VII-B1).
fn balanced_affinities(costs_ms: &[f64], processors: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs_ms.len()).collect();
    order.sort_by(|&a, &b| costs_ms[b].total_cmp(&costs_ms[a]));
    let mut load = vec![0.0f64; processors];
    let mut assignment = vec![0usize; costs_ms.len()];
    for idx in order {
        let target = (0..processors)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("at least one processor");
        assignment[idx] = target;
        load[target] += costs_ms[idx];
    }
    assignment
}

/// Wraps the named task's execution model in a step profile: `elevated_ms`
/// nominal during `[from, until)`, the original model elsewhere.
///
/// Used for the § VII-B1 regime change (sensor fusion 20 ms → 40 ms during
/// `t ∈ [10 s, 80 s)`).
///
/// # Panics
///
/// Panics if `task` does not exist in `graph`.
#[must_use]
pub fn with_fusion_step(
    graph: &TaskGraph,
    task: &str,
    elevated_ms: f64,
    from: crate::time::SimTime,
    until: crate::time::SimTime,
) -> TaskGraph {
    let id = graph
        .find(task)
        .unwrap_or_else(|| panic!("task {task:?} not found in graph"));
    let mut b = TaskGraph::builder();
    for (tid, spec) in graph.iter() {
        let spec = if tid == id {
            let base = spec.exec_model().clone();
            let elevated = base
                .clone()
                .plus(ExecModel::constant(SimSpan::from_millis(elevated_ms)));
            let mut nb = TaskSpec::builder(spec.name())
                .priority(spec.priority())
                .stage(spec.stage())
                .criticality(spec.criticality())
                .relative_deadline(spec.relative_deadline())
                .exec_model(base.with_step(elevated, from, until));
            if let Some(r) = spec.rate_range() {
                nb = nb.rate_range(r);
            }
            if let Some(a) = spec.affinity() {
                nb = nb.affinity(a);
            }
            nb.build().expect("spec copied from a valid graph")
        } else {
            spec.clone()
        };
        b.add_task(spec);
    }
    for e in graph.edges() {
        b.add_edge(e.from, e.to)
            .expect("edges copied from a valid graph");
    }
    b.build().expect("topology copied from a valid graph")
}

/// Returns a copy of `graph` where each named task gains a GPU
/// post-processing phase of the given nominal duration (±10 % uniform).
///
/// Models the paper's § VI note: detection-style tasks also use the GPU;
/// HCPerf records that time toward the end-to-end deadline without
/// scheduling the accelerator.
///
/// # Panics
///
/// Panics if any named task does not exist in `graph`.
#[must_use]
pub fn with_gpu_offload(graph: &TaskGraph, offloads: &[(&str, f64)]) -> TaskGraph {
    let mut b = TaskGraph::builder();
    for (tid, spec) in graph.iter() {
        let gpu_ms = offloads.iter().find(|(name, _)| {
            graph
                .find(name)
                .unwrap_or_else(|| panic!("task {name:?} not found in graph"))
                == tid
        });
        let spec = match gpu_ms {
            Some(&(_, ms)) => {
                let mut nb = TaskSpec::builder(spec.name())
                    .priority(spec.priority())
                    .stage(spec.stage())
                    .criticality(spec.criticality())
                    .relative_deadline(spec.relative_deadline())
                    .exec_model(spec.exec_model().clone())
                    .gpu_model(exec(ms, 0.1));
                if let Some(r) = spec.rate_range() {
                    nb = nb.rate_range(r);
                }
                if let Some(a) = spec.affinity() {
                    nb = nb.affinity(a);
                }
                nb.build().expect("spec copied from a valid graph")
            }
            None => spec.clone(),
        };
        b.add_task(spec);
    }
    for e in graph.edges() {
        b.add_edge(e.from, e.to)
            .expect("edges copied from a valid graph");
    }
    b.build().expect("topology copied from a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use crate::time::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn motivation_graph_shape() {
        let g = motivation_graph(&GraphOptions::default()).unwrap();
        assert_eq!(g.len(), 8);
        assert_eq!(g.sources().len(), 2);
        let control = g.find("control").unwrap();
        assert_eq!(g.sinks(), &[control]);
        // Control has the highest priority (lowest value) as in Fig. 2.
        let min_prio = g.iter().map(|(_, s)| s.priority()).min().unwrap();
        assert_eq!(g.spec(control).priority(), min_prio);
    }

    #[test]
    fn apollo_graph_has_23_tasks_and_expected_endpoints() {
        let g = apollo_graph(&GraphOptions::default()).unwrap();
        assert_eq!(g.len(), 23);
        assert_eq!(g.sources().len(), 6);
        let chassis = g.find("chassis_command").unwrap();
        assert!(g.sinks().contains(&chassis));
        // Every source is rate-adjustable in [10, 100] Hz.
        for &s in g.sources() {
            let range = g.spec(s).rate_range().expect("sources have rate ranges");
            assert_eq!(range.min().as_hz(), 10.0);
            assert_eq!(range.max().as_hz(), 100.0);
        }
        // Non-sources are not rate adjustable.
        for (id, spec) in g.iter() {
            if !g.sources().contains(&id) {
                assert!(spec.rate_range().is_none(), "{}", spec.name());
            }
        }
    }

    #[test]
    fn apollo_trigger_chain_reaches_chassis() {
        let g = apollo_graph(&GraphOptions::default()).unwrap();
        // Walk the first-listed predecessors back from the chassis command
        // to a source.
        let mut cur = g.find("chassis_command").unwrap();
        let mut hops = 0;
        while let Some(&prev) = g.ipred(cur).first() {
            cur = prev;
            hops += 1;
            assert!(hops < 30, "predecessor chain must terminate");
        }
        assert_eq!(g.spec(cur).name(), "lidar_preproc");
        assert!(hops >= 6, "chain spans the pipeline, got {hops} hops");
    }

    #[test]
    fn apollo_fusion_cost_matches_paper_nominal() {
        let g = apollo_graph(&GraphOptions {
            jitter_frac: 0.0,
            ..Default::default()
        })
        .unwrap();
        let fusion = g.find("sensor_fusion").unwrap();
        let nominal = g
            .spec(fusion)
            .exec_model()
            .nominal(ExecContext::new(SimTime::ZERO, 0.0));
        // 20 ms base + 0.5 ms fixed overhead at zero obstacles.
        assert!((nominal.as_millis() - 20.5).abs() < 1e-9);
        // At 10 obstacles the Hungarian term adds 0.02 * 1000 = 20 ms.
        let loaded = g
            .spec(fusion)
            .exec_model()
            .nominal(ExecContext::new(SimTime::ZERO, 10.0));
        assert!((loaded.as_millis() - 40.5).abs() < 1e-9);
    }

    #[test]
    fn apollo_utilization_near_four_cores_at_20hz() {
        let g = apollo_graph(&GraphOptions {
            jitter_frac: 0.0,
            ..Default::default()
        })
        .unwrap();
        let work = g.total_work(ExecContext::idle()).as_secs();
        let util_at_20hz = work * 20.0;
        assert!(
            (2.0..4.0).contains(&util_at_20hz),
            "20 Hz utilization should be heavy but schedulable on 4 cores, got {util_at_20hz}"
        );
        let util_at_100hz = work * 100.0;
        assert!(util_at_100hz > 4.0, "100 Hz must overload 4 cores");
    }

    #[test]
    fn affinity_is_balanced_across_processors() {
        let g = apollo_graph(&GraphOptions {
            jitter_frac: 0.0,
            ..Default::default()
        })
        .unwrap();
        let mut load = [0.0f64; 4];
        for (_, spec) in g.iter() {
            let a = spec.affinity().expect("affinity requested");
            assert!(a < 4);
            load[a] += spec.exec_model().nominal(ExecContext::idle()).as_millis();
        }
        let max = load.iter().cloned().fold(0.0, f64::max);
        let min = load.iter().cloned().fold(f64::INFINITY, f64::min);
        // Greedy balancing keeps per-processor nominal load within ~40 %.
        assert!(
            max / min < 1.4,
            "binding should be balanced at nominal load: {load:?}"
        );
        let g2 = apollo_graph(&GraphOptions {
            with_affinity: false,
            ..Default::default()
        })
        .unwrap();
        assert!(g2.iter().all(|(_, s)| s.affinity().is_none()));
    }

    #[test]
    fn fusion_step_elevates_inside_window_only() {
        let g = apollo_graph(&GraphOptions {
            jitter_frac: 0.0,
            ..Default::default()
        })
        .unwrap();
        let stepped = with_fusion_step(
            &g,
            "sensor_fusion",
            20.0,
            SimTime::from_secs(10.0),
            SimTime::from_secs(80.0),
        );
        let fusion = stepped.find("sensor_fusion").unwrap();
        let model = stepped.spec(fusion).exec_model();
        let mut rng = StdRng::seed_from_u64(1);
        let before = model.sample(ExecContext::new(SimTime::from_secs(5.0), 0.0), &mut rng);
        let during = model.sample(ExecContext::new(SimTime::from_secs(20.0), 0.0), &mut rng);
        let after = model.sample(ExecContext::new(SimTime::from_secs(85.0), 0.0), &mut rng);
        assert!((during.as_millis() - before.as_millis() - 20.0).abs() < 1e-6);
        assert!((after.as_millis() - before.as_millis()).abs() < 1e-6);
        // Topology is preserved.
        assert_eq!(stepped.edges(), g.edges());
        assert_eq!(stepped.len(), g.len());
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn fusion_step_panics_on_unknown_task() {
        let g = apollo_graph(&GraphOptions::default()).unwrap();
        let _ = with_fusion_step(&g, "nope", 1.0, SimTime::ZERO, SimTime::from_secs(1.0));
    }

    #[test]
    fn gpu_offload_attaches_models_and_preserves_topology() {
        let g = apollo_graph(&GraphOptions::default()).unwrap();
        let offloaded = with_gpu_offload(
            &g,
            &[("object_detection_2d", 15.0), ("object_detection_3d", 18.0)],
        );
        assert_eq!(offloaded.edges(), g.edges());
        let od3d = offloaded.find("object_detection_3d").unwrap();
        let gpu = offloaded.spec(od3d).gpu_model().expect("gpu attached");
        let nominal = gpu.nominal(ExecContext::idle());
        assert!((nominal.as_millis() - 18.0).abs() < 1e-9);
        // Untouched tasks stay GPU-free.
        let fusion = offloaded.find("sensor_fusion").unwrap();
        assert!(offloaded.spec(fusion).gpu_model().is_none());
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn gpu_offload_panics_on_unknown_task() {
        let g = apollo_graph(&GraphOptions::default()).unwrap();
        let _ = with_gpu_offload(&g, &[("nope", 1.0)]);
    }

    #[test]
    fn priorities_follow_stage_importance() {
        let g = apollo_graph(&GraphOptions::default()).unwrap();
        let control = g.find("chassis_command").unwrap();
        let min = g.iter().map(|(_, s)| s.priority()).min().unwrap();
        assert_eq!(g.spec(control).priority(), min);
    }
}
