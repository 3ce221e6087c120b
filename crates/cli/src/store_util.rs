//! CLI ↔ `hcperf-store` glue: run fingerprints and payload codecs.
//!
//! A store cell's identity is `(fingerprint, job key)`; this module
//! decides what goes into each surface's fingerprint — i.e. which
//! config changes invalidate cached cells. The rule: include everything
//! that changes a *cell's bytes*, exclude everything that only changes
//! which cells a run asks for. A fleet's vehicle count is excluded (so
//! a 500-vehicle run's cells seed a 1000-vehicle run), as are worker
//! counts, queue bounds, and aggregate cadence (determinism guarantees
//! they cannot change per-vehicle records). Each fingerprint carries a
//! code-version tag (`FLEET_CODE_VERSION` / `SWEEP_CODE_VERSION`) —
//! bump it when the underlying simulation changes behaviour.

use hcperf_scenarios::fleet::{FleetConfig, VehicleRecord};
use hcperf_scenarios::runner::{decode_ok, encode_ok};
use hcperf_scenarios::sweep::{SweepConfig, SweepPoint};
use hcperf_scenarios::ScenarioError;
use hcperf_store::{fingerprint, CellCache, Store};

/// Bump when `run_vehicle` / the per-vehicle scenarios change results.
pub const FLEET_CODE_VERSION: &str = "fleet-v1";
/// Bump when `sweep_point` / the sweep pipeline change results.
pub const SWEEP_CODE_VERSION: &str = "sweep-v1";

/// Cell-identity fingerprint of a fleet run. Deliberately excludes the
/// vehicle count: per-vehicle cells are keyed `fleet/<preset>/vehicle=<i>`,
/// so an interrupted or smaller run's cells resume into a larger one.
#[must_use]
pub fn fleet_fingerprint(config: &FleetConfig) -> String {
    let mut parts = vec![
        "fleet".to_owned(),
        FLEET_CODE_VERSION.to_owned(),
        config.preset.name().to_owned(),
        config.scheme.to_string(),
        format!("duration={}", config.duration),
        format!("root_seed={:#x}", config.root_seed),
    ];
    // Supervised runs (fault plans and/or retries) produce different
    // cell bytes, so they get their own identity — appended only when
    // engaged, keeping every pre-supervision cell valid as-is.
    if config.supervised() {
        parts.push(format!("faults={}", config.faults.to_json()));
        parts.push(format!("retries={}", config.max_retries));
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    fingerprint(&refs)
}

/// Cell-identity fingerprint of a rate sweep. Excludes the rate grid
/// itself: each probed rate is keyed `rate[<i>]=<hz>`, so extending a
/// sweep reuses the overlapping points.
#[must_use]
pub fn sweep_fingerprint(config: &SweepConfig) -> String {
    fingerprint(&[
        "sweep",
        SWEEP_CODE_VERSION,
        &config.scheme.to_string(),
        &format!("duration={}", config.duration),
        &format!("processors={}", config.processors),
        &format!("jitter_frac={}", config.jitter_frac),
        &format!("seed={}", config.seed),
    ])
}

/// Encodes a per-vehicle result. Both outcomes are cached — a vehicle
/// whose scenario deterministically fails will deterministically fail
/// again, so replaying the failure is as sound as replaying a record.
/// The payload is `ok:<record json>` or `err:<message>` (the store
/// escapes payloads, so they need not themselves be JSON).
fn encode_vehicle(result: &Result<VehicleRecord, String>) -> Option<String> {
    match result {
        Ok(record) => Some(format!("ok:{}", serde_json::to_string(record).ok()?)),
        Err(msg) => Some(format!("err:{msg}")),
    }
}

fn decode_vehicle(payload: &str) -> Option<Result<VehicleRecord, String>> {
    if let Some(msg) = payload.strip_prefix("err:") {
        return Some(Err(msg.to_owned()));
    }
    let json = payload.strip_prefix("ok:")?;
    Some(Ok(serde_json::from_str::<VehicleRecord>(json).ok()?))
}

/// A fleet-run cache over `store`.
#[must_use]
pub fn fleet_cache<'s>(
    store: &'s mut Store,
    config: &FleetConfig,
) -> CellCache<'s, Result<VehicleRecord, String>> {
    CellCache::new(
        store,
        fleet_fingerprint(config),
        encode_vehicle,
        decode_vehicle,
    )
}

/// A sweep cache over `store`. Only `Ok` points are cached
/// ([`encode_ok`]).
#[must_use]
pub fn sweep_cache<'s>(
    store: &'s mut Store,
    config: &SweepConfig,
) -> CellCache<'s, Result<SweepPoint, ScenarioError>> {
    CellCache::new(store, sweep_fingerprint(config), encode_ok, decode_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcperf::Scheme;
    use hcperf_scenarios::fleet::FleetPreset;

    #[test]
    fn fleet_fingerprint_ignores_scale_knobs_but_not_physics() {
        let mut a = FleetConfig::new(FleetPreset::CarFollowing, 100);
        let mut b = FleetConfig::new(FleetPreset::CarFollowing, 1000);
        b.workers = 8;
        b.queue_capacity = 7;
        b.aggregate_every = 3;
        assert_eq!(fleet_fingerprint(&a), fleet_fingerprint(&b));
        b.duration = a.duration + 1.0;
        assert_ne!(fleet_fingerprint(&a), fleet_fingerprint(&b));
        a.scheme = Scheme::Edf;
        assert_ne!(
            fleet_fingerprint(&a),
            fleet_fingerprint(&FleetConfig::new(FleetPreset::CarFollowing, 100))
        );
    }

    #[test]
    fn vehicle_codec_round_trips_both_outcomes() {
        let record = VehicleRecord {
            scheme: Scheme::HcPerf,
            tracking_rms: 0.25,
            miss_ratio: 0.01,
            mean_e2e_ms: 12.5,
            e2e_p99_ms: 30.0,
            commands: 400,
            collided: false,
        };
        let ok = Ok(record.clone());
        let encoded = encode_vehicle(&ok).unwrap();
        assert_eq!(decode_vehicle(&encoded), Some(Ok(record)));
        // Byte-stability: encode(decode(s)) == s.
        let decoded = decode_vehicle(&encoded).unwrap();
        assert_eq!(encode_vehicle(&decoded).unwrap(), encoded);

        let err: Result<VehicleRecord, String> = Err("sim exploded: \"why\"".into());
        let encoded = encode_vehicle(&err).unwrap();
        assert_eq!(decode_vehicle(&encoded), Some(err));
    }

    #[test]
    fn sweep_codec_round_trips_and_skips_errors() {
        let p = SweepPoint {
            rate_hz: 25.0,
            miss_ratio: 0.125,
            commands_per_sec: 49.5,
            mean_e2e_ms: None,
        };
        let encoded = encode_ok(&Ok(p)).unwrap();
        match decode_ok::<SweepPoint>(&encoded) {
            Some(Ok(q)) => assert_eq!(q, p),
            other => panic!("bad decode: {other:?}"),
        }
        assert!(encode_ok::<SweepPoint>(&Err(ScenarioError::Job("x".into()))).is_none());
    }
}
