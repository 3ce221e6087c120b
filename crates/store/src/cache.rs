//! The harness bridge: a [`CellCache`] implements
//! `hcperf_harness::ResultCache` over a [`Store`].
//!
//! The harness probes the cache with stable job keys in submission
//! order before any job runs and offers fresh results back, also in
//! submission order. The cache maps keys to content-addressed cell ids
//! under one run fingerprint, serves `done` cells by decoding their
//! stored payload (byte-exact, so re-serialization reproduces the
//! original output), and persists fresh results as `done`/`failed`
//! cells. Because `ResultCache` methods cannot return errors, I/O
//! failures are parked and surfaced by [`CellCache::finish`] — until
//! then the cache degrades to a pass-through (every probe misses), so
//! a sick disk slows a run down but never corrupts it.

use hcperf_harness::{JobResult, JobStatus, ResultCache};

use crate::hash::cell_id;
use crate::store::{CellState, RunSummary, Store, StoreError};

/// A run-scoped cache view over a [`Store`].
///
/// `encode` serializes a payload to the exact JSON fragment the run's
/// sink would write (return `None` for unencodable payloads, which are
/// then simply not cached); `decode` parses it back. Both must satisfy
/// `decode(encode(x)) == x` for caching to be sound; byte-identical
/// replay additionally relies on `encode(decode(s)) == s`, which holds
/// for this workspace's serde derives: they write text directly through
/// `serde::Writer` in fixed field order, print integral numbers as
/// integers and other floats in shortest round-trip form, and every
/// derived type's bytes are pinned in `tests/serialize_golden.rs`.
/// The codecs are plain `fn` pointers: a codec is a pure function of
/// the payload, so it never needs to capture anything.
pub struct CellCache<'s, O> {
    store: &'s mut Store,
    fingerprint: String,
    encode: fn(&O) -> Option<String>,
    decode: fn(&str) -> Option<O>,
    hits: usize,
    misses: usize,
    error: Option<StoreError>,
}

impl<O> std::fmt::Debug for CellCache<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellCache")
            .field("fingerprint", &self.fingerprint)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("errored", &self.error.is_some())
            .finish_non_exhaustive()
    }
}

impl<'s, O> CellCache<'s, O> {
    /// A cache over `store` scoped to one run `fingerprint`
    /// (see [`crate::fingerprint`]).
    pub fn new(
        store: &'s mut Store,
        fingerprint: String,
        encode: fn(&O) -> Option<String>,
        decode: fn(&str) -> Option<O>,
    ) -> Self {
        CellCache {
            store,
            fingerprint,
            encode,
            decode,
            hits: 0,
            misses: 0,
            error: None,
        }
    }

    fn park(&mut self, result: Result<(), StoreError>) {
        if let (None, Err(e)) = (&self.error, result) {
            self.error = Some(e);
        }
    }

    /// Records the run summary, fsyncs the log, and surfaces the first
    /// parked store error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O or lifecycle error hit while probing or
    /// persisting, or while writing the summary.
    pub fn finish(mut self) -> Result<RunSummary, StoreError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let summary = RunSummary {
            hits: self.hits,
            misses: self.misses,
        };
        self.store.record_run(&self.fingerprint, summary)?;
        self.store.sync()?;
        Ok(summary)
    }
}

impl<O> ResultCache<O> for CellCache<'_, O> {
    fn get(&mut self, key: &str) -> Option<(O, u32)> {
        if self.error.is_some() {
            return None; // degraded: pass everything through
        }
        let id = cell_id(&self.fingerprint, key);
        if let Some(cell) = self.store.lookup(&id) {
            if cell.key != key {
                // A 128-bit collision: recompute rather than serve
                // another cell's bytes. Registering would error on the
                // key mismatch, so just run the job uncached.
                self.misses += 1;
                return None;
            }
            if let CellState::Done {
                payload, attempts, ..
            } = &cell.state
            {
                let attempts = *attempts;
                if let Some(output) = (self.decode)(payload) {
                    self.hits += 1;
                    return Some((output, attempts));
                }
                // Undecodable payload: fall through and recompute.
            }
        }
        self.misses += 1;
        let claimed = self
            .store
            .register(&id, key)
            .and_then(|_| self.store.mark_running(&id));
        self.park(claimed);
        None
    }

    fn put(&mut self, result: &JobResult<O>) {
        if self.error.is_some() {
            return;
        }
        let id = cell_id(&self.fingerprint, &result.key);
        match &result.status {
            JobStatus::Ok(output) => match (self.encode)(output) {
                Some(payload) => {
                    let wall_ms = result.wall.as_secs_f64() * 1e3;
                    let res =
                        self.store
                            .complete_with_attempts(&id, wall_ms, &payload, result.attempts);
                    self.park(res);
                }
                None => {
                    let res = self.store.fail_with_attempts(
                        &id,
                        "payload not encodable",
                        result.attempts,
                    );
                    self.park(res);
                }
            },
            JobStatus::Panicked(msg) => {
                let res = self.store.fail_with_attempts(
                    &id,
                    &format!("panicked: {msg}"),
                    result.attempts,
                );
                self.park(res);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fingerprint;
    use crate::store::quarantine_path;
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hcperf-store-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(quarantine_path(&p));
        p
    }

    fn result(index: usize, key: &str, status: JobStatus<u32>) -> JobResult<u32> {
        JobResult {
            index,
            key: key.to_owned(),
            seed: 7,
            wall: Duration::from_millis(3),
            attempts: 1,
            status,
        }
    }

    fn cache<'s>(store: &'s mut Store, fp: &str) -> CellCache<'s, u32> {
        CellCache::new(
            store,
            fp.to_owned(),
            |o: &u32| Some(o.to_string()),
            |s: &str| s.parse().ok(),
        )
    }

    #[test]
    fn second_run_is_all_hits() {
        let path = tmp("all-hits");
        let fp = fingerprint(&["unit", "v1"]);
        {
            let mut store = Store::open(&path).unwrap();
            let mut c = cache(&mut store, &fp);
            assert_eq!(c.get("cell/0"), None);
            assert_eq!(c.get("cell/1"), None);
            c.put(&result(0, "cell/0", JobStatus::Ok(10)));
            c.put(&result(1, "cell/1", JobStatus::Ok(11)));
            let summary = c.finish().unwrap();
            assert_eq!((summary.hits, summary.misses), (0, 2));
        }
        let mut store = Store::open(&path).unwrap();
        let mut c = cache(&mut store, &fp);
        assert_eq!(c.get("cell/0"), Some((10, 1)));
        assert_eq!(c.get("cell/1"), Some((11, 1)));
        let summary = c.finish().unwrap();
        assert_eq!((summary.hits, summary.misses), (2, 0));
        assert_eq!(summary.hit_ratio(), Some(1.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_fingerprint_misses() {
        let path = tmp("fp-miss");
        let mut store = Store::open(&path).unwrap();
        let fp1 = fingerprint(&["unit", "v1"]);
        let fp2 = fingerprint(&["unit", "v2"]);
        {
            let mut c = cache(&mut store, &fp1);
            assert_eq!(c.get("cell/0"), None);
            c.put(&result(0, "cell/0", JobStatus::Ok(10)));
            c.finish().unwrap();
        }
        let mut c = cache(&mut store, &fp2);
        assert_eq!(c.get("cell/0"), None, "new code version invalidates");
        let _ = std::fs::remove_file(&path);
    }

    /// A retried job's attempt count survives persist → reopen → probe,
    /// so a resumed run reproduces the original retry accounting.
    #[test]
    fn attempt_counts_round_trip_through_the_cache() {
        let path = tmp("attempts");
        let fp = fingerprint(&["unit", "v1"]);
        {
            let mut store = Store::open(&path).unwrap();
            let mut c = cache(&mut store, &fp);
            assert_eq!(c.get("cell/0"), None);
            let mut r = result(0, "cell/0", JobStatus::Ok(10));
            r.attempts = 3;
            c.put(&r);
            c.finish().unwrap();
        }
        let mut store = Store::open(&path).unwrap();
        let mut c = cache(&mut store, &fp);
        assert_eq!(c.get("cell/0"), Some((10, 3)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panicked_results_become_failed_cells_and_retry() {
        let path = tmp("panic-retry");
        let fp = fingerprint(&["unit", "v1"]);
        let mut store = Store::open(&path).unwrap();
        {
            let mut c = cache(&mut store, &fp);
            assert_eq!(c.get("cell/0"), None);
            c.put(&result(0, "cell/0", JobStatus::Panicked("boom".into())));
            c.finish().unwrap();
        }
        let status = store.status();
        assert_eq!(status.failed, 1);
        let mut c = cache(&mut store, &fp);
        assert_eq!(c.get("cell/0"), None, "failed cell is retried, not served");
        c.put(&result(0, "cell/0", JobStatus::Ok(10)));
        c.finish().unwrap();
        assert_eq!(store.status().done, 1);
        let _ = std::fs::remove_file(&path);
    }
}
