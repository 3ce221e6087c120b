//! Deterministic per-job seed derivation.
//!
//! Every job in a batch gets its own RNG seed derived from the batch's
//! root seed and the job's *stable key* — never from the worker that
//! happens to pick the job up or from the order jobs complete in. That
//! is the foundation of the harness's determinism contract: the same
//! `(root_seed, key)` pair always yields the same seed, so a batch is
//! bit-identical whether it runs on one worker or sixteen.

/// FNV-1a 64-bit hash from the standard offset basis — folds a stable
/// job key into a single word.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a 64-bit hash from an explicit offset basis (`hcperf-store`
/// hashes the high half of its 128-bit cell ids from a second basis).
#[must_use]
pub fn fnv1a64_with(offset: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = offset;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Advances a SplitMix64 state and returns the next output word.
///
/// SplitMix64 (Steele, Lea & Flood 2014) is the de-facto standard seed
/// expander: one add and three xor-shift-multiply rounds, full 64-bit
/// avalanche, no registry dependency required.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the seed for one job: SplitMix64 over `root ^ fnv1a(key)`.
///
/// Two SplitMix64 steps decorrelate root seeds and keys that differ in
/// only a few bits (sequential root seeds, keys sharing a long prefix).
#[must_use]
// hcperf-lint: det-sink(seed-derivation): job seeds must be a pure function of (root, key)
pub fn derive_seed(root: u64, key: &str) -> u64 {
    let mut state = root ^ fnv1a64(key.as_bytes());
    let _ = splitmix64(&mut state);
    splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure() {
        assert_eq!(derive_seed(42, "a/b"), derive_seed(42, "a/b"));
        assert_ne!(derive_seed(42, "a/b"), derive_seed(43, "a/b"));
        assert_ne!(derive_seed(42, "a/b"), derive_seed(42, "a/c"));
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference output of SplitMix64 seeded with 1234567.
        let mut s = 1_234_567;
        assert_eq!(splitmix64(&mut s), 0x599e_d017_fb08_fc85);
    }

    /// Every warm store and every derived job seed depends on these
    /// exact words: a change here silently invalidates stored cells.
    #[test]
    fn hash_identities_are_pinned() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(derive_seed(0, ""), 0x100c_daac_c0bc_9316);
        assert_eq!(
            derive_seed(0x4843_5045_5246, "fig13/scheme=edf"),
            0xbaec_6548_2fb2_aa45
        );
        assert_eq!(
            derive_seed(42, "fleet/car-following/vehicle=0"),
            0xdf4b_bd81_9346_9268
        );
        assert_eq!(
            derive_seed(u64::MAX, "cell/7#attempt=1"),
            0xf6b0_2a17_3d80_b68a
        );
    }

    #[test]
    fn near_keys_get_distant_seeds() {
        let a = derive_seed(0, "scheme=edf/seed=1");
        let b = derive_seed(0, "scheme=edf/seed=2");
        assert!((a ^ b).count_ones() > 8, "{a:x} vs {b:x}");
    }
}
