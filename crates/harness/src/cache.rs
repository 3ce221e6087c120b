//! The result-cache hook: serve finished cells from disk instead of
//! recomputing them.
//!
//! Every job in this workspace is a pure function of `(input, seed)`,
//! and its seed is a pure function of `(root_seed, key)` — so a job's
//! result is a pure function of its *stable key* within a fixed
//! configuration. A [`ResultCache`] exploits that: before the pool runs
//! a job it probes the cache with the job's key, and a hit is delivered
//! as if the job had run (same key, same derived seed, zero wall time)
//! without touching a worker. Fresh results are offered back to the
//! cache in submission order, so a cache backed by an append-only log
//! is itself deterministic.
//!
//! The harness defines only the hook; the durable implementation lives
//! in `hcperf-store` (a crash-safe JSONL cell store keyed by content
//! hashes), keeping this crate std-only and storage-agnostic.

use crate::job::JobResult;

/// A pluggable result cache consulted by the worker pool.
///
/// Both methods are called on the submitting thread, never from a
/// worker: `get` for every job before any job runs (in submission
/// order), `put` for every *freshly computed* result as it is delivered
/// (also in submission order). Cached results are never offered back
/// through `put`, so an implementation can count `put` calls as
/// recomputations.
pub trait ResultCache<O> {
    /// Returns the cached payload for `key` with the number of attempts
    /// it originally took (so a replayed batch reproduces its retry
    /// accounting byte for byte), or `None` to run the job.
    ///
    /// A `None` may register the key as pending work; the pool will call
    /// [`ResultCache::put`] for it once the job completes (unless the
    /// batch is aborted first).
    fn get(&mut self, key: &str) -> Option<(O, u32)>;

    /// Offers a freshly computed result for caching. Implementations
    /// decide what to persist — e.g. store successes as `done` cells and
    /// panics as `failed` cells (retried on the next run).
    fn put(&mut self, result: &JobResult<O>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// A map is a perfectly good cache for a closure-shaped test.
    struct MapCache(BTreeMap<String, u32>);
    impl ResultCache<u32> for MapCache {
        fn get(&mut self, key: &str) -> Option<(u32, u32)> {
            self.0.get(key).map(|&o| (o, 1))
        }
        fn put(&mut self, result: &JobResult<u32>) {
            if let JobStatus::Ok(o) = &result.status {
                self.0.insert(result.key.clone(), *o);
            }
        }
    }

    #[test]
    fn object_safety_and_basic_round_trip() {
        let mut cache = MapCache(BTreeMap::new());
        let dyn_cache: &mut dyn ResultCache<u32> = &mut cache;
        assert_eq!(dyn_cache.get("a"), None);
        dyn_cache.put(&JobResult {
            index: 0,
            key: "a".into(),
            seed: 1,
            wall: Duration::ZERO,
            attempts: 1,
            status: JobStatus::Ok(7),
        });
        assert_eq!(dyn_cache.get("a"), Some((7, 1)));
    }
}
