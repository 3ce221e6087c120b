//! Scenario byte identity: the serialized result of every closed-loop
//! scenario path, pinned to an FNV-1a digest of its compact JSON.
//!
//! The determinism matrix only compares worker counts against each other
//! and the benchmark digests cover only fault-free, series-off car
//! following; these digests pin the absolute bytes of the series-on,
//! noisy-sensor, faulted, lane-keeping and motivation paths, so a
//! refactor of the shared loop (or of the floating-point operation order
//! inside a step) cannot drift any of them silently.

use hcperf_suite::core::Scheme;
use hcperf_suite::faults::{FaultKind, FaultPlan, FaultSpec};
use hcperf_suite::harness::seed::fnv1a64;
use hcperf_suite::scenarios::car_following::{
    run_car_following, run_car_following_with_telemetry, CarFollowingConfig,
};
use hcperf_suite::scenarios::lane_keeping::{run_lane_keeping, LaneKeepingConfig};
use hcperf_suite::scenarios::motivation::{run_motivation, MotivationConfig};
use hcperf_suite::taskgraph::graphs::{apollo_graph, GraphOptions};

fn digest<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a64(serde_json::to_string(value).unwrap().as_bytes())
}

fn assert_digest<T: serde::Serialize>(name: &str, value: &T, expected: u64) {
    let got = digest(value);
    assert_eq!(
        got, expected,
        "{name}: digest {got:#018x}, pinned {expected:#018x}"
    );
}

fn car_following_12s(scheme: Scheme) -> CarFollowingConfig {
    let mut c = CarFollowingConfig::paper_simulation(scheme);
    c.duration = 12.0;
    c.record_series = true;
    c
}

#[test]
fn car_following_hcperf_bytes_are_pinned() {
    let r = run_car_following(&car_following_12s(Scheme::HcPerf)).unwrap();
    assert_digest("car_following/hcperf", &r, 0xa70d_4f9f_82c3_24cf);
}

#[test]
fn car_following_edf_bytes_are_pinned() {
    let r = run_car_following(&car_following_12s(Scheme::Edf)).unwrap();
    assert_digest("car_following/edf", &r, 0xefee_2b53_c041_6d72);
}

#[test]
fn car_following_hpf_bytes_are_pinned() {
    // HPF's dispatch key packs the static priority above the release
    // instant; this pins the order that key produces.
    let r = run_car_following(&car_following_12s(Scheme::Hpf)).unwrap();
    assert_digest("car_following/hpf", &r, 0x33d9_9fc6_9c38_1736);
}

#[test]
fn car_following_apollo_bytes_are_pinned() {
    let r = run_car_following(&car_following_12s(Scheme::Apollo)).unwrap();
    assert_digest("car_following/apollo", &r, 0xa378_8b15_08b7_5a27);
}

#[test]
fn hardware_noisy_sensor_bytes_are_pinned() {
    let mut c = CarFollowingConfig::hardware(Scheme::HcPerf);
    c.duration = 8.0;
    let r = run_car_following(&c).unwrap();
    assert_digest("hardware/hcperf", &r, 0xd61f_b740_e6a9_666f);
}

#[test]
fn faulted_run_and_telemetry_bytes_are_pinned() {
    // The plan of `car_following::tests::injected_faults_surface_degraded_telemetry`:
    // a fusion spike, a sensor dropout and a corrupted-feedback window.
    let plan = FaultPlan {
        name: "test-degrade".to_string(),
        faults: vec![
            FaultSpec {
                kind: FaultKind::ExecSpike {
                    task: "sensor_fusion".to_string(),
                    scale: 4.0,
                    extra_ms: 15.0,
                },
                probability: 1.0,
                window: (2.0, 2.0),
                duration: 4.0,
            },
            FaultSpec {
                kind: FaultKind::SensorDropout,
                probability: 1.0,
                window: (2.0, 2.0),
                duration: 1.0,
            },
            FaultSpec {
                kind: FaultKind::FeedbackCorrupt { miss_ratio: 0.9 },
                probability: 1.0,
                window: (6.0, 6.0),
                duration: 2.0,
            },
        ],
    };
    let graph = apollo_graph(&GraphOptions::default()).unwrap();
    let mut c = CarFollowingConfig::paper_simulation(Scheme::HcPerf);
    c.duration = 12.0;
    c.fusion_step = None;
    c.coordinator.rate.degraded_miss_threshold = 0.5;
    c.coordinator.rate.rate_floor_frac = 0.25;
    c.faults = plan.materialize(&graph, 0, c.seed).unwrap();
    let (r, telemetry) = run_car_following_with_telemetry(&c).unwrap();
    let telemetry = telemetry.expect("faulted run reports telemetry");
    assert_digest("faulted/result", &r, 0xda02_68ce_adbf_8a6e);
    assert_digest("faulted/telemetry", &telemetry, 0x1e61_ee9e_21c4_21e5);
}

#[test]
fn lane_keeping_bytes_are_pinned() {
    for (scheme, expected) in [
        (Scheme::HcPerf, 0x6852_c028_2c8e_9045),
        (Scheme::EdfVd, 0x54a3_2c4d_113e_a8a9),
    ] {
        let mut c = LaneKeepingConfig::paper_loop(scheme);
        c.duration = 40.0;
        let r = run_lane_keeping(&c).unwrap();
        assert_digest(&format!("lane_keeping/{scheme:?}"), &r, expected);
    }
}

#[test]
fn motivation_bytes_are_pinned() {
    for (scheme, expected) in [
        (Scheme::Apollo, 0x6ffa_2d7a_b529_755c),
        (Scheme::HcPerf, 0x56c8_4176_fa5d_c34f),
    ] {
        let c = MotivationConfig {
            scheme,
            ..MotivationConfig::default()
        };
        let r = run_motivation(&c).unwrap();
        // Apollo's pinned run is the collision path (Fig. 4b).
        assert_eq!(r.collision_time.is_some(), scheme == Scheme::Apollo);
        assert_digest(&format!("motivation/{scheme:?}"), &r, expected);
    }
}
