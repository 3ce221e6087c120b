//! Serde round-trips: task graphs and their components survive JSON
//! serialization unchanged — the basis for file-based pipeline configs.

use hcperf_taskgraph::graphs::{apollo_graph, motivation_graph, with_gpu_offload, GraphOptions};
use hcperf_taskgraph::{ExecModel, LoadProfile, SimSpan, SimTime, TaskGraph};

#[test]
fn apollo_graph_round_trips_through_json() {
    let graph = apollo_graph(&GraphOptions::default()).unwrap();
    let json = serde_json::to_string(&graph).unwrap();
    let back: TaskGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(back, graph);
    // Derived structure survives too.
    assert_eq!(back.sources(), graph.sources());
    assert_eq!(back.sinks(), graph.sinks());
    assert_eq!(back.topological_order(), graph.topological_order());
}

#[test]
fn motivation_graph_round_trips() {
    let graph = motivation_graph(&GraphOptions::default()).unwrap();
    let json = serde_json::to_string_pretty(&graph).unwrap();
    let back: TaskGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(back, graph);
}

#[test]
fn gpu_models_survive_serialization() {
    let graph = apollo_graph(&GraphOptions::default()).unwrap();
    let offloaded = with_gpu_offload(&graph, &[("object_detection_3d", 15.0)]);
    let json = serde_json::to_string(&offloaded).unwrap();
    let back: TaskGraph = serde_json::from_str(&json).unwrap();
    let od3d = back.find("object_detection_3d").unwrap();
    assert!(back.spec(od3d).gpu_model().is_some());
    assert_eq!(back, offloaded);
}

#[test]
fn exec_models_round_trip() {
    let model = ExecModel::hungarian(SimSpan::from_millis(20.0), SimSpan::from_millis(0.02))
        .plus(ExecModel::uniform(
            SimSpan::from_millis(0.4),
            SimSpan::from_millis(0.6),
        ))
        .with_step(
            ExecModel::constant(SimSpan::from_millis(40.0)),
            SimTime::from_secs(10.0),
            SimTime::from_secs(80.0),
        );
    let json = serde_json::to_string(&model).unwrap();
    let back: ExecModel = serde_json::from_str(&json).unwrap();
    assert_eq!(back, model);
}

#[test]
fn load_profiles_round_trip() {
    let profiles = vec![
        LoadProfile::constant(3.0),
        LoadProfile::piecewise(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(10.0), 11.0),
            (SimTime::from_secs(20.0), 2.0),
        ]),
        LoadProfile::ramp(SimTime::from_secs(5.0), 2.0, SimTime::from_secs(12.0), 16.0),
        LoadProfile::bursts(
            2.0,
            8.0,
            SimTime::from_secs(12.0),
            7.0,
            1.5,
            SimTime::from_secs(78.0),
        ),
    ];
    for profile in profiles {
        let json = serde_json::to_string(&profile).unwrap();
        let back: LoadProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
        // Behaviour preserved, not just structure.
        for t in [0.0, 11.0, 15.0, 50.0, 100.0] {
            assert_eq!(
                back.at(SimTime::from_secs(t)),
                profile.at(SimTime::from_secs(t))
            );
        }
    }
}
