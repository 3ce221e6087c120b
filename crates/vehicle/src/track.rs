//! Track geometry for lane keeping.
//!
//! The § VII-B2 evaluation drives an oval-shaped closed loop clockwise
//! (Fig. 14a): two straights joined by two 180° turns. In the Frenet frame
//! the only geometric input the lateral dynamics need is the centerline
//! curvature `κ(s)` as a function of arc position.

use serde::{Deserialize, Serialize};

/// A closed-loop track described by its centerline curvature.
pub trait Track {
    /// Curvature `κ` (1/m) of the centerline at arc position `s` meters.
    /// Positive curvature bends toward positive lateral offset.
    fn curvature(&self, s: f64) -> f64;

    /// Total lap length in meters.
    fn total_length(&self) -> f64;
}

/// An oval: two straights of length `straight` joined by two semicircular
/// turns of radius `radius`.
///
/// # Examples
///
/// ```
/// use hcperf_vehicle::{OvalTrack, Track};
///
/// let track = OvalTrack::paper_loop();
/// assert_eq!(track.curvature(1.0), 0.0); // on the first straight
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OvalTrack {
    straight: f64,
    radius: f64,
}

impl OvalTrack {
    /// Creates an oval with the given straight length and turn radius.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive and finite.
    #[must_use]
    pub fn new(straight: f64, radius: f64) -> Self {
        assert!(
            straight.is_finite() && straight > 0.0,
            "straight length must be positive"
        );
        assert!(
            radius.is_finite() && radius > 0.0,
            "radius must be positive"
        );
        OvalTrack { straight, radius }
    }

    /// The loop used in the paper's lane-keeping experiment: 100 m
    /// straights with 20 m-radius turns (a lap of ~325 m, ~65 s at 5 m/s).
    #[must_use]
    pub fn paper_loop() -> Self {
        OvalTrack::new(100.0, 20.0)
    }

    /// Length of each straight segment.
    #[must_use]
    pub fn straight_length(&self) -> f64 {
        self.straight
    }

    /// Radius of each turn.
    #[must_use]
    pub fn turn_radius(&self) -> f64 {
        self.radius
    }

    /// Arc length of each 180° turn.
    #[must_use]
    pub fn turn_length(&self) -> f64 {
        std::f64::consts::PI * self.radius
    }
}

impl Track for OvalTrack {
    fn curvature(&self, s: f64) -> f64 {
        let lap = self.total_length();
        let s = s.rem_euclid(lap);
        let turn = self.turn_length();
        // Layout: straight, turn, straight, turn. Clockwise → negative κ.
        if s < self.straight {
            0.0
        } else if s < self.straight + turn {
            -1.0 / self.radius
        } else if s < 2.0 * self.straight + turn {
            0.0
        } else {
            -1.0 / self.radius
        }
    }

    fn total_length(&self) -> f64 {
        2.0 * self.straight + 2.0 * self.turn_length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_segments() {
        let t = OvalTrack::new(100.0, 20.0);
        let turn = t.turn_length();
        assert!((t.total_length() - (200.0 + 2.0 * turn)).abs() < 1e-9);
        assert_eq!(t.curvature(0.0), 0.0);
        assert_eq!(t.curvature(99.9), 0.0);
        assert!((t.curvature(100.1) + 0.05).abs() < 1e-12);
        assert_eq!(t.curvature(100.0 + turn + 1.0), 0.0);
        assert!((t.curvature(200.0 + turn + 1.0) + 0.05).abs() < 1e-12);
    }

    #[test]
    fn wraps_around_laps() {
        let t = OvalTrack::new(100.0, 20.0);
        let lap = t.total_length();
        assert_eq!(t.curvature(5.0), t.curvature(5.0 + lap));
        assert_eq!(t.curvature(5.0), t.curvature(5.0 + 3.0 * lap));
        assert_eq!(t.curvature(-5.0), t.curvature(lap - 5.0));
    }

    #[test]
    fn in_turn_detection() {
        // Curvature is exactly zero on the straights and non-zero in turns.
        let t = OvalTrack::paper_loop();
        assert_eq!(t.curvature(50.0), 0.0);
        assert_ne!(t.curvature(t.straight_length() + 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_dimensions() {
        let _ = OvalTrack::new(0.0, 20.0);
    }

    #[test]
    fn paper_loop_lap_time_at_5ms() {
        let t = OvalTrack::paper_loop();
        let lap_secs = t.total_length() / 5.0;
        assert!((60.0..70.0).contains(&lap_secs), "lap {lap_secs}s");
    }
}
