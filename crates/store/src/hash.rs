//! Content-addressed cell identity.
//!
//! A cell's identity must change whenever anything that could change
//! its bytes changes — the scenario config, the root seed, the
//! code-relevant version — and must *not* change across runs, worker
//! counts, or interruption points. Both halves are FNV-1a over the same
//! input with distinct offset bases, giving a 128-bit id that is cheap,
//! dependency-free, and stable across platforms. Collision resistance
//! is adequate for a job cache (ids are additionally verified against
//! the stored key on lookup, so a collision degrades to a cache miss,
//! never to wrong data).

use hcperf_harness::seed::{fnv1a64, fnv1a64_with};

/// A 128-bit content hash rendered as 32 lowercase hex digits.
pub type CellId = String;

/// Second, independent offset basis for the high half: FNV-1a of the
/// ASCII bytes `"hcperf-store"` folded into the standard basis.
const FNV_OFFSET_HI: u64 = 0x9ae1_6a3b_2f90_404f;

/// Hashes the parts of a run configuration that define cell identity
/// into a 16-hex-digit fingerprint.
///
/// Callers list every config field whose change must invalidate cached
/// results, plus a code-version tag for the simulation code path (bump
/// it when the cell computation changes), plus the root seed. Parts are
/// joined with `\x1f` (unit separator) so `["ab", "c"]` and `["a",
/// "bc"]` fingerprint differently.
#[must_use]
// hcperf-lint: det-sink(store-fingerprint): cache identity must not depend on ambient state
pub fn fingerprint(parts: &[&str]) -> String {
    let mut bytes = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            bytes.push(0x1f);
        }
        bytes.extend_from_slice(p.as_bytes());
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// Content-addressed identity of one experiment cell: 128 bits over
/// `(fingerprint, stable job key)` as 32 lowercase hex digits.
#[must_use]
// hcperf-lint: det-sink(store-cell-id): cell addresses must be a pure function of (fingerprint, key)
pub fn cell_id(fingerprint: &str, key: &str) -> CellId {
    let mut bytes = Vec::with_capacity(fingerprint.len() + 1 + key.len());
    bytes.extend_from_slice(fingerprint.as_bytes());
    bytes.push(0x1f);
    bytes.extend_from_slice(key.as_bytes());
    format!(
        "{:016x}{:016x}",
        fnv1a64(&bytes),
        fnv1a64_with(FNV_OFFSET_HI, &bytes)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_separator_sensitive() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&[]).len(), 16);
    }

    #[test]
    fn cell_ids_are_32_hex_and_key_sensitive() {
        let fp = fingerprint(&["fleet", "seed=0xF1EE7", "v1"]);
        let a = cell_id(&fp, "fleet/car-following/vehicle=0");
        let b = cell_id(&fp, "fleet/car-following/vehicle=1");
        assert_eq!(a.len(), 32);
        assert_ne!(a, b);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        // The two halves are independent hashes, not copies.
        assert_ne!(&a[..16], &a[16..]);
        // Identity is fingerprint-sensitive too.
        let fp2 = fingerprint(&["fleet", "seed=0xF1EE7", "v2"]);
        assert_ne!(a, cell_id(&fp2, "fleet/car-following/vehicle=0"));
    }

    /// Every warm store is addressed by these exact strings: a change
    /// here turns every stored cell into a miss.
    #[test]
    fn fingerprint_and_cell_id_are_pinned() {
        assert_eq!(fingerprint(&[]), "cbf29ce484222325");
        assert_eq!(fingerprint(&["a", "b"]), "e5eaa319043b0991");
        let fleet = fingerprint(&[
            "fleet",
            "fleet-v1",
            "car-following",
            "hcperf",
            "duration=20",
            "root_seed=0xf1ee7",
        ]);
        assert_eq!(fleet, "f4a870d2da4653dc");
        assert_eq!(
            cell_id(&fleet, "fleet/car-following/vehicle=0"),
            "a297bd608800acf9cd52a84c9b627c1b"
        );
        assert_eq!(cell_id("", ""), "af63d24c8601db8ebd47d291d21d47f0");
        assert_eq!(
            cell_id(&fingerprint(&["fig13", "fig-v1"]), "fig13/scheme=edf"),
            "84670b9bacdddcce46cb4e6374668b18"
        );
    }
}
