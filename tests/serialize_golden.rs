//! Serializer byte identity: a value of every `#[derive(Serialize)]` type
//! in the workspace, rendered compact and pretty, pinned to the exact
//! strings the previous `Value`-tree serializer produced.
//!
//! Values are built by deserializing JSON input, which reaches private
//! fields and odd numbers alike: `null` in an `f64` slot is NaN, `1e999`
//! is +∞, `-0` is −0.0. The inputs cover non-finite floats, −0.0,
//! integral floats at and above 9e15, control characters, empty vectors
//! and every enum variant shape the workspace derives on. Two types have
//! no `Deserialize` and are built directly; the private Chrome-trace
//! event types are pinned in `hcperf_rtsim::trace_json`'s own tests.

use hcperf::Scheme;
use hcperf_rtsim::{
    ControlCommand, FaultCounters, Job, JobId, JobOutcome, KillPolicy, TaskStats, Trace,
    TraceEvent, WindowStats,
};
use hcperf_scenarios::car_following::DegradedTelemetry;
use hcperf_scenarios::{
    CarFollowingResult, FleetAggregate, LaneKeepingResult, MotivationResult, SweepPoint,
    TimeSeries, VehicleRecord,
};
use hcperf_taskgraph::{
    Criticality, Edge, ExecModel, LoadProfile, Priority, Rate, RateRange, SimSpan, SimTime, Stage,
    TaskGraph, TaskId, TaskSpec,
};
use hcperf_vehicle::{
    BicycleCar, BicycleConfig, FollowConfig, LaneKeepController, LeadProfile, LongitudinalConfig,
    OvalTrack,
};

/// `(name, compact, pretty)` for one value.
type Rendered = (&'static str, String, String);

fn render<T: serde::Serialize>(name: &'static str, value: &T) -> Rendered {
    (
        name,
        serde_json::to_string(value).unwrap(),
        serde_json::to_string_pretty(value).unwrap(),
    )
}

fn case<T: serde::Serialize + serde::Deserialize>(name: &'static str, input: &str) -> Rendered {
    let value: T = serde_json::from_str(input).unwrap_or_else(|e| panic!("{name}: {e}"));
    render(name, &value)
}

const SERIES: &str = r#"{"name":"s\u0001\"q\"","times":[0,0.5],"values":[null,-0]}"#;
const EMPTY_SERIES: &str = r#"{"name":"","times":[],"values":[]}"#;

fn cases() -> Vec<Rendered> {
    let exec_models = r#"[
        {"Constant":{"value":0.001}},
        {"Uniform":{"min":-0,"max":9e15}},
        {"Normal":{"mean":1e21,"std":null}},
        {"LoadDependent":{"base":0.002,"coeff":1e-7,"exponent":1e999}},
        {"Step":{"base":{"Constant":{"value":1}},"elevated":{"Sum":{"a":{"Constant":{"value":2}},"b":{"Constant":{"value":-1e999}}}},"from":10,"until":20.5}}
    ]"#;
    let task_spec = r#"{"name":"ctl\u0000\u001f\t\n\r\\\"/é","priority":7,
        "relative_deadline":0.1,"exec_model":{"Constant":{"value":0.004}},
        "gpu_model":{"Uniform":{"min":0.001,"max":0.002}},"criticality":"High",
        "stage":"Control","rate_range":{"min":5,"max":30},"affinity":null}"#;
    let bare_spec = r#"{"name":"s","priority":0,"relative_deadline":8999999999999999,
        "exec_model":{"Constant":{"value":0}},"gpu_model":null,"criticality":"Low",
        "stage":"Sensing","rate_range":null,"affinity":3}"#;
    let graph = format!(
        r#"{{"tasks":[{bare_spec},{task_spec}],"edges":[{{"from":0,"to":1}}],
        "ipred":[[],[0]],"isucc":[[1],[]],"sources":[0],"sinks":[1],"topo":[0,1]}}"#
    );
    let series = |fields: &[&str]| {
        fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("\"{f}\":{}", if i == 0 { SERIES } else { EMPTY_SERIES }))
            .collect::<Vec<_>>()
            .join(",")
    };
    let car_following = format!(
        r#"{{"scheme":"HcPerf","rms_speed_error":0.123456789,"rms_distance_error":null,
        "commands":12345,"mean_response_time_ms":1e999,"mean_e2e_ms":-1e999,
        "response_p99_ms":9e15,"e2e_p99_ms":9.5e15,"overall_miss_ratio":-0,
        "final_miss_ratio":1e-300,"collision_time":12.5,{}}}"#,
        series(&[
            "lead_speed",
            "follow_speed",
            "speed_error",
            "gap",
            "distance_error",
            "miss_ratio",
            "gamma",
            "acceleration",
            "response_times",
            "mean_source_rate",
        ])
    );
    let lane_keeping = format!(
        r#"{{"scheme":"Apollo","rms_lateral_offset":0.01,"max_lateral_offset":2,
        "commands":0,"overall_miss_ratio":1,"mean_e2e_ms":null,"e2e_p99_ms":3.25,{}}}"#,
        series(&["lateral_offset", "arc_position", "miss_ratio", "gamma"])
    );
    let motivation = format!(
        r#"{{"scheme":"Edf","miss_ratio_per_sec":[[0,0.25],[1,null]],
        "speed_difference":{SERIES},"gap":{EMPTY_SERIES},"collision_time":null,
        "overall_miss_ratio":0.5,"miss_ratio_before_event":0,"miss_ratio_after_event":1e999}}"#
    );
    let degraded = format!(
        r#"{{"pdc_hold_ticks":1,"tra_floor_ticks":0,"corrupted_feedback_ticks":9007199254740993,
        "fault":{{"dropped_jobs":1,"killed_jobs":2,"requeued_jobs":3,"fault_misses":4}},
        "mode":{SERIES}}}"#
    );
    let events = r#"[
        {"Released":{"time":0,"job":1,"task":0,"cycle":0}},
        {"Dispatched":{"time":0.001,"job":1,"task":0,"processor":2}},
        {"Completed":{"time":0.005,"job":1,"task":0,"met_deadline":true}},
        {"Expired":{"time":1e999,"job":2,"task":1}}
    ]"#;
    let trace = format!(r#"{{"capacity":4,"events":{events},"dropped":0}}"#);
    let lead_profiles = r#"[
        {"Sine":{"mean":20,"amplitude":2.5,"period":10}},
        {"Trapezoid":{"peak":25,"accel_for":3,"hold_for":-0,"decel_for":null}},
        {"RedLightStop":{"cruise":15,"brake_at":8,"decel":3}},
        {"JamSlowdown":{"cruise":20,"jam_speed":5,"slow_at":10,"recover_at":30,"ramp":1e999}}
    ]"#;
    let load_profiles = r#"[
        {"Constant":{"value":4}},
        {"Ramp":{"t0":0,"v0":1,"t1":10,"v1":12}},
        {"Pulse":{"base":2,"elevated":12,"from":10,"until":20}},
        {"Piecewise":{"segments":[[0,1.5],[2.5,-0]]}},
        {"Piecewise":{"segments":[]}}
    ]"#;
    let aggregate = FleetAggregate {
        vehicles: 8000,
        failures: 0,
        e2e_p50_ms: 41.25,
        e2e_p99_ms: f64::NAN,
        worst_e2e_p99_ms: f64::INFINITY,
        mean_miss_ratio: -0.0,
        tracking_rmse: 1.0e16,
        collisions: usize::MAX,
    };
    let empty_aggregate = FleetAggregate {
        vehicles: 0,
        failures: 0,
        e2e_p50_ms: 0.0,
        e2e_p99_ms: 0.0,
        worst_e2e_p99_ms: 0.0,
        mean_miss_ratio: 0.0,
        tracking_rmse: 0.0,
        collisions: 0,
    };
    vec![
        // taskgraph
        case::<TaskId>("TaskId", "3"),
        case::<Priority>("Priority", "4294967295"),
        case::<Vec<Criticality>>("Criticality", r#"["Low","High"]"#),
        case::<Vec<Stage>>(
            "Stage",
            r#"["Sensing","Perception","Prediction","Localization","Planning","Control"]"#,
        ),
        case::<Vec<SimTime>>("SimTime", "[-0,0.1,9e15,8999999999999999.5,1e999]"),
        case::<Vec<SimSpan>>("SimSpan", "[null,-1e999,123456789012,1e-7]"),
        case::<Vec<Rate>>("Rate", "[30,0.1,1e300]"),
        case::<RateRange>("RateRange", r#"{"min":1.5,"max":1e999}"#),
        case::<Vec<ExecModel>>("ExecModel", exec_models),
        case::<Edge>("Edge", r#"{"from":0,"to":1}"#),
        case::<TaskSpec>("TaskSpec", task_spec),
        case::<TaskGraph>("TaskGraph", &graph),
        case::<Vec<LoadProfile>>("LoadProfile", load_profiles),
        // rtsim
        case::<JobId>("JobId", "18446744073709551615"),
        case::<Job>(
            "Job",
            r#"{"id":7,"task":2,"cycle":40,"release":0.2,"relative_deadline":0.1,"chain_release":0.19999999999999998}"#,
        ),
        case::<Vec<JobOutcome>>("JobOutcome", r#"["Met","MissedLate","Expired"]"#),
        case::<ControlCommand>(
            "ControlCommand",
            r#"{"task":5,"cycle":1,"released_at":0.1,"emitted_at":0.15,"chain_released_at":-0}"#,
        ),
        case::<WindowStats>("WindowStats", r#"{"met":1,"missed_late":2,"expired":3}"#),
        case::<TaskStats>(
            "TaskStats",
            r#"{"released":0,"dispatched":0,"met":0,"missed_late":0,"expired":0}"#,
        ),
        case::<Vec<TraceEvent>>("TraceEvent", events),
        case::<Trace>("Trace", &trace),
        case::<Trace>("Trace/empty", r#"{"capacity":0,"events":[],"dropped":0}"#),
        case::<Vec<KillPolicy>>("KillPolicy", r#"["Requeue","Discard"]"#),
        case::<FaultCounters>(
            "FaultCounters",
            r#"{"dropped_jobs":0,"killed_jobs":1,"requeued_jobs":2,"fault_misses":3}"#,
        ),
        // core
        case::<Vec<Scheme>>("Scheme", r#"["Hpf","Edf","EdfVd","Apollo","HcPerf"]"#),
        // scenarios
        case::<Vec<SweepPoint>>(
            "SweepPoint",
            r#"[{"rate_hz":20,"miss_ratio":0.05,"commands_per_sec":19.5,"mean_e2e_ms":null},
                {"rate_hz":60,"miss_ratio":1,"commands_per_sec":0,"mean_e2e_ms":41.123456789}]"#,
        ),
        case::<LaneKeepingResult>("LaneKeepingResult", &lane_keeping),
        case::<VehicleRecord>(
            "VehicleRecord",
            r#"{"scheme":"HcPerf","tracking_rms":0.4178301933548749,"miss_ratio":0.0123,
                "mean_e2e_ms":55.5,"e2e_p99_ms":null,"commands":2000,"collided":false}"#,
        ),
        render("FleetAggregate", &aggregate),
        render("FleetAggregate/empty", &empty_aggregate),
        case::<MotivationResult>("MotivationResult", &motivation),
        case::<CarFollowingResult>("CarFollowingResult", &car_following),
        case::<DegradedTelemetry>("DegradedTelemetry", &degraded),
        case::<TimeSeries>("TimeSeries", SERIES),
        // vehicle
        case::<FollowConfig>(
            "FollowConfig",
            r#"{"speed_gain":0.5,"speed_integral_gain":0,"gap_gain":0.2,"headway":1.5,
                "standstill_gap":5,"accel_limits":[-6,3],"lead_accel_feedforward":-0}"#,
        ),
        case::<OvalTrack>("OvalTrack", r#"{"straight":100,"radius":1e999}"#),
        case::<Vec<LeadProfile>>("LeadProfile", lead_profiles),
        case::<BicycleConfig>("BicycleConfig", r#"{"wheelbase":2.7,"max_steer":0.5}"#),
        case::<BicycleCar>(
            "BicycleCar",
            r#"{"config":{"wheelbase":2.7,"max_steer":0.5},"s":1e16,"lateral_offset":-0.25,"heading_error":null}"#,
        ),
        case::<LaneKeepController>(
            "LaneKeepController",
            r#"{"offset_gain":0.15,"heading_gain":0.8,"wheelbase":2.7}"#,
        ),
        case::<LongitudinalConfig>(
            "LongitudinalConfig",
            r#"{"max_accel":3,"max_brake":8,"actuator_tau":0.3,"max_speed":40}"#,
        ),
    ]
}

#[test]
fn every_derived_type_renders_the_pinned_bytes() {
    let rendered = cases();
    assert_eq!(rendered.len(), GOLDEN.len());
    for ((name, compact, pretty), (want_name, want_compact, want_pretty)) in
        rendered.iter().zip(GOLDEN)
    {
        assert_eq!(name, want_name);
        assert_eq!(compact, want_compact, "{name}: compact bytes changed");
        assert_eq!(pretty, want_pretty, "{name}: pretty bytes changed");
    }
}

/// Generated by the `Value`-tree serializer this crate's writer replaced.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("TaskId", r#"3"#, r#"3"#),
    ("Priority", r#"4294967295"#, r#"4294967295"#),
    (
        "Criticality",
        r#"["Low","High"]"#,
        r#"[
  "Low",
  "High"
]"#,
    ),
    (
        "Stage",
        r#"["Sensing","Perception","Prediction","Localization","Planning","Control"]"#,
        r#"[
  "Sensing",
  "Perception",
  "Prediction",
  "Localization",
  "Planning",
  "Control"
]"#,
    ),
    (
        "SimTime",
        r#"[0,0.1,9000000000000000,9000000000000000,null]"#,
        r#"[
  0,
  0.1,
  9000000000000000,
  9000000000000000,
  null
]"#,
    ),
    (
        "SimSpan",
        r#"[null,null,123456789012,0.0000001]"#,
        r#"[
  null,
  null,
  123456789012,
  0.0000001
]"#,
    ),
    (
        "Rate",
        r#"[30,0.1,1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000]"#,
        r#"[
  30,
  0.1,
  1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
]"#,
    ),
    (
        "RateRange",
        r#"{"min":1.5,"max":null}"#,
        r#"{
  "min": 1.5,
  "max": null
}"#,
    ),
    (
        "ExecModel",
        r#"[{"Constant":{"value":0.001}},{"Uniform":{"min":0,"max":9000000000000000}},{"Normal":{"mean":1000000000000000000000,"std":null}},{"LoadDependent":{"base":0.002,"coeff":0.0000001,"exponent":null}},{"Step":{"base":{"Constant":{"value":1}},"elevated":{"Sum":{"a":{"Constant":{"value":2}},"b":{"Constant":{"value":null}}}},"from":10,"until":20.5}}]"#,
        r#"[
  {
    "Constant": {
      "value": 0.001
    }
  },
  {
    "Uniform": {
      "min": 0,
      "max": 9000000000000000
    }
  },
  {
    "Normal": {
      "mean": 1000000000000000000000,
      "std": null
    }
  },
  {
    "LoadDependent": {
      "base": 0.002,
      "coeff": 0.0000001,
      "exponent": null
    }
  },
  {
    "Step": {
      "base": {
        "Constant": {
          "value": 1
        }
      },
      "elevated": {
        "Sum": {
          "a": {
            "Constant": {
              "value": 2
            }
          },
          "b": {
            "Constant": {
              "value": null
            }
          }
        }
      },
      "from": 10,
      "until": 20.5
    }
  }
]"#,
    ),
    (
        "Edge",
        r#"{"from":0,"to":1}"#,
        r#"{
  "from": 0,
  "to": 1
}"#,
    ),
    (
        "TaskSpec",
        r#"{"name":"ctl\u0000\u001f\t\n\r\\\"/é","priority":7,"relative_deadline":0.1,"exec_model":{"Constant":{"value":0.004}},"gpu_model":{"Uniform":{"min":0.001,"max":0.002}},"criticality":"High","stage":"Control","rate_range":{"min":5,"max":30},"affinity":null}"#,
        r#"{
  "name": "ctl\u0000\u001f\t\n\r\\\"/é",
  "priority": 7,
  "relative_deadline": 0.1,
  "exec_model": {
    "Constant": {
      "value": 0.004
    }
  },
  "gpu_model": {
    "Uniform": {
      "min": 0.001,
      "max": 0.002
    }
  },
  "criticality": "High",
  "stage": "Control",
  "rate_range": {
    "min": 5,
    "max": 30
  },
  "affinity": null
}"#,
    ),
    (
        "TaskGraph",
        r#"{"tasks":[{"name":"s","priority":0,"relative_deadline":8999999999999999,"exec_model":{"Constant":{"value":0}},"gpu_model":null,"criticality":"Low","stage":"Sensing","rate_range":null,"affinity":3},{"name":"ctl\u0000\u001f\t\n\r\\\"/é","priority":7,"relative_deadline":0.1,"exec_model":{"Constant":{"value":0.004}},"gpu_model":{"Uniform":{"min":0.001,"max":0.002}},"criticality":"High","stage":"Control","rate_range":{"min":5,"max":30},"affinity":null}],"edges":[{"from":0,"to":1}],"ipred":[[],[0]],"isucc":[[1],[]],"sources":[0],"sinks":[1],"topo":[0,1]}"#,
        r#"{
  "tasks": [
    {
      "name": "s",
      "priority": 0,
      "relative_deadline": 8999999999999999,
      "exec_model": {
        "Constant": {
          "value": 0
        }
      },
      "gpu_model": null,
      "criticality": "Low",
      "stage": "Sensing",
      "rate_range": null,
      "affinity": 3
    },
    {
      "name": "ctl\u0000\u001f\t\n\r\\\"/é",
      "priority": 7,
      "relative_deadline": 0.1,
      "exec_model": {
        "Constant": {
          "value": 0.004
        }
      },
      "gpu_model": {
        "Uniform": {
          "min": 0.001,
          "max": 0.002
        }
      },
      "criticality": "High",
      "stage": "Control",
      "rate_range": {
        "min": 5,
        "max": 30
      },
      "affinity": null
    }
  ],
  "edges": [
    {
      "from": 0,
      "to": 1
    }
  ],
  "ipred": [
    [],
    [
      0
    ]
  ],
  "isucc": [
    [
      1
    ],
    []
  ],
  "sources": [
    0
  ],
  "sinks": [
    1
  ],
  "topo": [
    0,
    1
  ]
}"#,
    ),
    (
        "LoadProfile",
        r#"[{"Constant":{"value":4}},{"Ramp":{"t0":0,"v0":1,"t1":10,"v1":12}},{"Pulse":{"base":2,"elevated":12,"from":10,"until":20}},{"Piecewise":{"segments":[[0,1.5],[2.5,0]]}},{"Piecewise":{"segments":[]}}]"#,
        r#"[
  {
    "Constant": {
      "value": 4
    }
  },
  {
    "Ramp": {
      "t0": 0,
      "v0": 1,
      "t1": 10,
      "v1": 12
    }
  },
  {
    "Pulse": {
      "base": 2,
      "elevated": 12,
      "from": 10,
      "until": 20
    }
  },
  {
    "Piecewise": {
      "segments": [
        [
          0,
          1.5
        ],
        [
          2.5,
          0
        ]
      ]
    }
  },
  {
    "Piecewise": {
      "segments": []
    }
  }
]"#,
    ),
    (
        "JobId",
        r#"18446744073709552000"#,
        r#"18446744073709552000"#,
    ),
    (
        "Job",
        r#"{"id":7,"task":2,"cycle":40,"release":0.2,"relative_deadline":0.1,"chain_release":0.19999999999999998}"#,
        r#"{
  "id": 7,
  "task": 2,
  "cycle": 40,
  "release": 0.2,
  "relative_deadline": 0.1,
  "chain_release": 0.19999999999999998
}"#,
    ),
    (
        "JobOutcome",
        r#"["Met","MissedLate","Expired"]"#,
        r#"[
  "Met",
  "MissedLate",
  "Expired"
]"#,
    ),
    (
        "ControlCommand",
        r#"{"task":5,"cycle":1,"released_at":0.1,"emitted_at":0.15,"chain_released_at":0}"#,
        r#"{
  "task": 5,
  "cycle": 1,
  "released_at": 0.1,
  "emitted_at": 0.15,
  "chain_released_at": 0
}"#,
    ),
    (
        "WindowStats",
        r#"{"met":1,"missed_late":2,"expired":3}"#,
        r#"{
  "met": 1,
  "missed_late": 2,
  "expired": 3
}"#,
    ),
    (
        "TaskStats",
        r#"{"released":0,"dispatched":0,"met":0,"missed_late":0,"expired":0}"#,
        r#"{
  "released": 0,
  "dispatched": 0,
  "met": 0,
  "missed_late": 0,
  "expired": 0
}"#,
    ),
    (
        "TraceEvent",
        r#"[{"Released":{"time":0,"job":1,"task":0,"cycle":0}},{"Dispatched":{"time":0.001,"job":1,"task":0,"processor":2}},{"Completed":{"time":0.005,"job":1,"task":0,"met_deadline":true}},{"Expired":{"time":null,"job":2,"task":1}}]"#,
        r#"[
  {
    "Released": {
      "time": 0,
      "job": 1,
      "task": 0,
      "cycle": 0
    }
  },
  {
    "Dispatched": {
      "time": 0.001,
      "job": 1,
      "task": 0,
      "processor": 2
    }
  },
  {
    "Completed": {
      "time": 0.005,
      "job": 1,
      "task": 0,
      "met_deadline": true
    }
  },
  {
    "Expired": {
      "time": null,
      "job": 2,
      "task": 1
    }
  }
]"#,
    ),
    (
        "Trace",
        r#"{"capacity":4,"events":[{"Released":{"time":0,"job":1,"task":0,"cycle":0}},{"Dispatched":{"time":0.001,"job":1,"task":0,"processor":2}},{"Completed":{"time":0.005,"job":1,"task":0,"met_deadline":true}},{"Expired":{"time":null,"job":2,"task":1}}],"dropped":0}"#,
        r#"{
  "capacity": 4,
  "events": [
    {
      "Released": {
        "time": 0,
        "job": 1,
        "task": 0,
        "cycle": 0
      }
    },
    {
      "Dispatched": {
        "time": 0.001,
        "job": 1,
        "task": 0,
        "processor": 2
      }
    },
    {
      "Completed": {
        "time": 0.005,
        "job": 1,
        "task": 0,
        "met_deadline": true
      }
    },
    {
      "Expired": {
        "time": null,
        "job": 2,
        "task": 1
      }
    }
  ],
  "dropped": 0
}"#,
    ),
    (
        "Trace/empty",
        r#"{"capacity":0,"events":[],"dropped":0}"#,
        r#"{
  "capacity": 0,
  "events": [],
  "dropped": 0
}"#,
    ),
    (
        "KillPolicy",
        r#"["Requeue","Discard"]"#,
        r#"[
  "Requeue",
  "Discard"
]"#,
    ),
    (
        "FaultCounters",
        r#"{"dropped_jobs":0,"killed_jobs":1,"requeued_jobs":2,"fault_misses":3}"#,
        r#"{
  "dropped_jobs": 0,
  "killed_jobs": 1,
  "requeued_jobs": 2,
  "fault_misses": 3
}"#,
    ),
    (
        "Scheme",
        r#"["Hpf","Edf","EdfVd","Apollo","HcPerf"]"#,
        r#"[
  "Hpf",
  "Edf",
  "EdfVd",
  "Apollo",
  "HcPerf"
]"#,
    ),
    (
        "SweepPoint",
        r#"[{"rate_hz":20,"miss_ratio":0.05,"commands_per_sec":19.5,"mean_e2e_ms":null},{"rate_hz":60,"miss_ratio":1,"commands_per_sec":0,"mean_e2e_ms":41.123456789}]"#,
        r#"[
  {
    "rate_hz": 20,
    "miss_ratio": 0.05,
    "commands_per_sec": 19.5,
    "mean_e2e_ms": null
  },
  {
    "rate_hz": 60,
    "miss_ratio": 1,
    "commands_per_sec": 0,
    "mean_e2e_ms": 41.123456789
  }
]"#,
    ),
    (
        "LaneKeepingResult",
        r#"{"scheme":"Apollo","rms_lateral_offset":0.01,"max_lateral_offset":2,"commands":0,"overall_miss_ratio":1,"mean_e2e_ms":null,"e2e_p99_ms":3.25,"lateral_offset":{"name":"s\u0001\"q\"","times":[0,0.5],"values":[null,0]},"arc_position":{"name":"","times":[],"values":[]},"miss_ratio":{"name":"","times":[],"values":[]},"gamma":{"name":"","times":[],"values":[]}}"#,
        r#"{
  "scheme": "Apollo",
  "rms_lateral_offset": 0.01,
  "max_lateral_offset": 2,
  "commands": 0,
  "overall_miss_ratio": 1,
  "mean_e2e_ms": null,
  "e2e_p99_ms": 3.25,
  "lateral_offset": {
    "name": "s\u0001\"q\"",
    "times": [
      0,
      0.5
    ],
    "values": [
      null,
      0
    ]
  },
  "arc_position": {
    "name": "",
    "times": [],
    "values": []
  },
  "miss_ratio": {
    "name": "",
    "times": [],
    "values": []
  },
  "gamma": {
    "name": "",
    "times": [],
    "values": []
  }
}"#,
    ),
    (
        "VehicleRecord",
        r#"{"scheme":"HcPerf","tracking_rms":0.4178301933548749,"miss_ratio":0.0123,"mean_e2e_ms":55.5,"e2e_p99_ms":null,"commands":2000,"collided":false}"#,
        r#"{
  "scheme": "HcPerf",
  "tracking_rms": 0.4178301933548749,
  "miss_ratio": 0.0123,
  "mean_e2e_ms": 55.5,
  "e2e_p99_ms": null,
  "commands": 2000,
  "collided": false
}"#,
    ),
    (
        "FleetAggregate",
        r#"{"vehicles":8000,"failures":0,"e2e_p50_ms":41.25,"e2e_p99_ms":null,"worst_e2e_p99_ms":null,"mean_miss_ratio":0,"tracking_rmse":10000000000000000,"collisions":18446744073709552000}"#,
        r#"{
  "vehicles": 8000,
  "failures": 0,
  "e2e_p50_ms": 41.25,
  "e2e_p99_ms": null,
  "worst_e2e_p99_ms": null,
  "mean_miss_ratio": 0,
  "tracking_rmse": 10000000000000000,
  "collisions": 18446744073709552000
}"#,
    ),
    (
        "FleetAggregate/empty",
        r#"{"vehicles":0,"failures":0,"e2e_p50_ms":0,"e2e_p99_ms":0,"worst_e2e_p99_ms":0,"mean_miss_ratio":0,"tracking_rmse":0,"collisions":0}"#,
        r#"{
  "vehicles": 0,
  "failures": 0,
  "e2e_p50_ms": 0,
  "e2e_p99_ms": 0,
  "worst_e2e_p99_ms": 0,
  "mean_miss_ratio": 0,
  "tracking_rmse": 0,
  "collisions": 0
}"#,
    ),
    (
        "MotivationResult",
        r#"{"scheme":"Edf","miss_ratio_per_sec":[[0,0.25],[1,null]],"speed_difference":{"name":"s\u0001\"q\"","times":[0,0.5],"values":[null,0]},"gap":{"name":"","times":[],"values":[]},"collision_time":null,"overall_miss_ratio":0.5,"miss_ratio_before_event":0,"miss_ratio_after_event":null}"#,
        r#"{
  "scheme": "Edf",
  "miss_ratio_per_sec": [
    [
      0,
      0.25
    ],
    [
      1,
      null
    ]
  ],
  "speed_difference": {
    "name": "s\u0001\"q\"",
    "times": [
      0,
      0.5
    ],
    "values": [
      null,
      0
    ]
  },
  "gap": {
    "name": "",
    "times": [],
    "values": []
  },
  "collision_time": null,
  "overall_miss_ratio": 0.5,
  "miss_ratio_before_event": 0,
  "miss_ratio_after_event": null
}"#,
    ),
    (
        "CarFollowingResult",
        r#"{"scheme":"HcPerf","rms_speed_error":0.123456789,"rms_distance_error":null,"commands":12345,"mean_response_time_ms":null,"mean_e2e_ms":null,"response_p99_ms":9000000000000000,"e2e_p99_ms":9500000000000000,"overall_miss_ratio":0,"final_miss_ratio":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001,"collision_time":12.5,"lead_speed":{"name":"s\u0001\"q\"","times":[0,0.5],"values":[null,0]},"follow_speed":{"name":"","times":[],"values":[]},"speed_error":{"name":"","times":[],"values":[]},"gap":{"name":"","times":[],"values":[]},"distance_error":{"name":"","times":[],"values":[]},"miss_ratio":{"name":"","times":[],"values":[]},"gamma":{"name":"","times":[],"values":[]},"acceleration":{"name":"","times":[],"values":[]},"response_times":{"name":"","times":[],"values":[]},"mean_source_rate":{"name":"","times":[],"values":[]}}"#,
        r#"{
  "scheme": "HcPerf",
  "rms_speed_error": 0.123456789,
  "rms_distance_error": null,
  "commands": 12345,
  "mean_response_time_ms": null,
  "mean_e2e_ms": null,
  "response_p99_ms": 9000000000000000,
  "e2e_p99_ms": 9500000000000000,
  "overall_miss_ratio": 0,
  "final_miss_ratio": 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001,
  "collision_time": 12.5,
  "lead_speed": {
    "name": "s\u0001\"q\"",
    "times": [
      0,
      0.5
    ],
    "values": [
      null,
      0
    ]
  },
  "follow_speed": {
    "name": "",
    "times": [],
    "values": []
  },
  "speed_error": {
    "name": "",
    "times": [],
    "values": []
  },
  "gap": {
    "name": "",
    "times": [],
    "values": []
  },
  "distance_error": {
    "name": "",
    "times": [],
    "values": []
  },
  "miss_ratio": {
    "name": "",
    "times": [],
    "values": []
  },
  "gamma": {
    "name": "",
    "times": [],
    "values": []
  },
  "acceleration": {
    "name": "",
    "times": [],
    "values": []
  },
  "response_times": {
    "name": "",
    "times": [],
    "values": []
  },
  "mean_source_rate": {
    "name": "",
    "times": [],
    "values": []
  }
}"#,
    ),
    (
        "DegradedTelemetry",
        r#"{"pdc_hold_ticks":1,"tra_floor_ticks":0,"corrupted_feedback_ticks":9007199254740992,"fault":{"dropped_jobs":1,"killed_jobs":2,"requeued_jobs":3,"fault_misses":4},"mode":{"name":"s\u0001\"q\"","times":[0,0.5],"values":[null,0]}}"#,
        r#"{
  "pdc_hold_ticks": 1,
  "tra_floor_ticks": 0,
  "corrupted_feedback_ticks": 9007199254740992,
  "fault": {
    "dropped_jobs": 1,
    "killed_jobs": 2,
    "requeued_jobs": 3,
    "fault_misses": 4
  },
  "mode": {
    "name": "s\u0001\"q\"",
    "times": [
      0,
      0.5
    ],
    "values": [
      null,
      0
    ]
  }
}"#,
    ),
    (
        "TimeSeries",
        r#"{"name":"s\u0001\"q\"","times":[0,0.5],"values":[null,0]}"#,
        r#"{
  "name": "s\u0001\"q\"",
  "times": [
    0,
    0.5
  ],
  "values": [
    null,
    0
  ]
}"#,
    ),
    (
        "FollowConfig",
        r#"{"speed_gain":0.5,"speed_integral_gain":0,"gap_gain":0.2,"headway":1.5,"standstill_gap":5,"accel_limits":[-6,3],"lead_accel_feedforward":0}"#,
        r#"{
  "speed_gain": 0.5,
  "speed_integral_gain": 0,
  "gap_gain": 0.2,
  "headway": 1.5,
  "standstill_gap": 5,
  "accel_limits": [
    -6,
    3
  ],
  "lead_accel_feedforward": 0
}"#,
    ),
    (
        "OvalTrack",
        r#"{"straight":100,"radius":null}"#,
        r#"{
  "straight": 100,
  "radius": null
}"#,
    ),
    (
        "LeadProfile",
        r#"[{"Sine":{"mean":20,"amplitude":2.5,"period":10}},{"Trapezoid":{"peak":25,"accel_for":3,"hold_for":0,"decel_for":null}},{"RedLightStop":{"cruise":15,"brake_at":8,"decel":3}},{"JamSlowdown":{"cruise":20,"jam_speed":5,"slow_at":10,"recover_at":30,"ramp":null}}]"#,
        r#"[
  {
    "Sine": {
      "mean": 20,
      "amplitude": 2.5,
      "period": 10
    }
  },
  {
    "Trapezoid": {
      "peak": 25,
      "accel_for": 3,
      "hold_for": 0,
      "decel_for": null
    }
  },
  {
    "RedLightStop": {
      "cruise": 15,
      "brake_at": 8,
      "decel": 3
    }
  },
  {
    "JamSlowdown": {
      "cruise": 20,
      "jam_speed": 5,
      "slow_at": 10,
      "recover_at": 30,
      "ramp": null
    }
  }
]"#,
    ),
    (
        "BicycleConfig",
        r#"{"wheelbase":2.7,"max_steer":0.5}"#,
        r#"{
  "wheelbase": 2.7,
  "max_steer": 0.5
}"#,
    ),
    (
        "BicycleCar",
        r#"{"config":{"wheelbase":2.7,"max_steer":0.5},"s":10000000000000000,"lateral_offset":-0.25,"heading_error":null}"#,
        r#"{
  "config": {
    "wheelbase": 2.7,
    "max_steer": 0.5
  },
  "s": 10000000000000000,
  "lateral_offset": -0.25,
  "heading_error": null
}"#,
    ),
    (
        "LaneKeepController",
        r#"{"offset_gain":0.15,"heading_gain":0.8,"wheelbase":2.7}"#,
        r#"{
  "offset_gain": 0.15,
  "heading_gain": 0.8,
  "wheelbase": 2.7
}"#,
    ),
    (
        "LongitudinalConfig",
        r#"{"max_accel":3,"max_brake":8,"actuator_tau":0.3,"max_speed":40}"#,
        r#"{
  "max_accel": 3,
  "max_brake": 8,
  "actuator_tau": 0.3,
  "max_speed": 40
}"#,
    ),
];
