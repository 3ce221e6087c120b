//! Property-based tests for the vehicle dynamics substrate.

use hcperf_vehicle::{
    BicycleCar, BicycleConfig, CarFollowController, FollowConfig, LeadProfile, LongitudinalCar,
    LongitudinalConfig, NoisySensor, OvalTrack, Track,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn speed_stays_within_physical_envelope(
        commands in proptest::collection::vec(-20.0f64..20.0, 1..300),
        initial in 0.0f64..50.0,
    ) {
        let cfg = LongitudinalConfig::default();
        let mut car = LongitudinalCar::with_state(cfg, 0.0, initial);
        for a in commands {
            car.step(a, 0.01);
            prop_assert!(car.speed() >= 0.0);
            prop_assert!(car.speed() <= cfg.max_speed);
            prop_assert!(car.acceleration() >= -cfg.max_brake - 1e-9);
            prop_assert!(car.acceleration() <= cfg.max_accel + 1e-9);
        }
    }

    #[test]
    fn position_is_monotone_when_moving_forward(
        commands in proptest::collection::vec(-5.0f64..5.0, 1..200),
    ) {
        let mut car = LongitudinalCar::with_state(LongitudinalConfig::default(), 0.0, 10.0);
        let mut prev = car.position();
        for a in commands {
            car.step(a, 0.01);
            // Speed is clamped at >= 0, so position never decreases.
            prop_assert!(car.position() >= prev - 1e-12);
            prev = car.position();
        }
    }

    #[test]
    fn lead_profiles_never_go_negative(
        t in -10.0f64..200.0,
    ) {
        for profile in [
            LeadProfile::paper_sine(),
            LeadProfile::hardware_trapezoid(),
            LeadProfile::motivation_red_light(),
            LeadProfile::traffic_jam(),
        ] {
            prop_assert!(profile.speed_at(t) >= 0.0);
        }
    }

    #[test]
    fn lead_position_is_monotone_in_time(
        t1 in 0.0f64..100.0,
        dt in 0.0f64..20.0,
    ) {
        let lead = LeadProfile::paper_sine();
        let p1 = lead.position_at(t1, 0.05);
        let p2 = lead.position_at(t1 + dt, 0.05);
        prop_assert!(p2 >= p1 - 1e-6);
    }

    #[test]
    fn follow_command_is_always_within_limits(
        lead_speed in 0.0f64..40.0,
        lead_accel in -10.0f64..10.0,
        own_speed in 0.0f64..40.0,
        gap in -10.0f64..200.0,
    ) {
        let cfg = FollowConfig::default();
        let mut ctrl = CarFollowController::new(cfg);
        let a = ctrl.command(lead_speed, lead_accel, own_speed, gap, 0.05);
        prop_assert!(a >= cfg.accel_limits.0 - 1e-12);
        prop_assert!(a <= cfg.accel_limits.1 + 1e-12);
    }

    #[test]
    fn bicycle_heading_error_stays_wrapped(
        steers in proptest::collection::vec(-1.0f64..1.0, 1..200),
        speed in 0.5f64..20.0,
    ) {
        let track = OvalTrack::paper_loop();
        let mut car = BicycleCar::new(BicycleConfig::default());
        for s in steers {
            car.step(speed, s, 0.02, &track);
            prop_assert!(car.heading_error().abs() <= std::f64::consts::PI + 1e-9);
            prop_assert!(car.arc_position().is_finite());
            prop_assert!(car.lateral_offset().is_finite());
        }
    }

    #[test]
    fn oval_curvature_is_periodic_and_two_valued(
        s in -500.0f64..1000.0,
    ) {
        let track = OvalTrack::paper_loop();
        let kappa = track.curvature(s);
        let expected_turn = -1.0 / track.turn_radius();
        prop_assert!(kappa == 0.0 || (kappa - expected_turn).abs() < 1e-12);
        prop_assert_eq!(kappa, track.curvature(s + track.total_length()));
    }

    #[test]
    fn noiseless_sensor_is_identity(
        truth in -1e6f64..1e6,
        seed in any::<u64>(),
    ) {
        let mut s = NoisySensor::new(0.0, seed);
        prop_assert_eq!(s.measure(truth), truth);
    }
}
