//! `hcperf-harness` — deterministic parallel experiment execution.
//!
//! Every evaluation surface in this workspace fans out over independent
//! `(scheme, seed, rate)` simulation cells. This crate runs such
//! batches on a fixed-size pool of `std::thread` workers while keeping
//! the one property the evaluation depends on: **results are
//! bit-identical for any worker count**.
//!
//! The pieces:
//!
//! * [`Job`]/[`JobResult`] — a typed job model keyed by *stable* string
//!   keys (`"fig13/scheme=edf"`), reported in submission order;
//! * [`seed::derive_seed`] — SplitMix64 over `root_seed ^ fnv1a(key)`,
//!   so a job's randomness follows its identity, not its scheduling;
//! * [`run_batch`] — the pool: shared atomic work cursor, mpsc result
//!   collection, per-job `catch_unwind` panic isolation (a crashed
//!   simulation becomes a [`JobStatus::Panicked`] record instead of
//!   killing the batch);
//! * [`run_batch_streaming`] — the same pool without result retention:
//!   each record goes to the sink in submission order and is dropped,
//!   and [`BatchOptions::queue_capacity`] bounds the result queue so a
//!   slow sink back-pressures the workers — the fleet-scale mode;
//! * [`JsonlSink`]/[`RecordSink`] — streaming JSON-Lines output fed in
//!   submission order, plus a [`Progress`] callback fed in completion
//!   order;
//! * [`ResultCache`] — an optional cache probed per job key before
//!   anything runs ([`BatchOptions::cached`]): because every job is a
//!   pure function of `(input, seed)` and its seed a pure function of
//!   `(root_seed, key)`, a finished cell can be served from disk
//!   bit-identically instead of recomputed. The durable implementation
//!   is `hcperf-store`.
//!
//! The crate is std-only by design (see the workspace's vendored-only
//! dependency policy): payload serialization is delegated to callers.
//!
//! # Examples
//!
//! ```
//! use hcperf_harness::{run_batch, BatchOptions, Job};
//!
//! let jobs: Vec<Job<u64>> = (0..16).map(|i| Job::new(format!("cell/{i}"), i)).collect();
//! let opts = BatchOptions::with_workers(4);
//! let results = run_batch(&jobs, opts, |&input, seed| input.wrapping_mul(seed)).unwrap();
//! assert_eq!(results.len(), 16);
//! assert!(results.iter().enumerate().all(|(i, r)| r.index == i));
//! ```

pub mod cache;
pub mod job;
pub mod pool;
pub mod seed;
pub mod sink;

pub use cache::ResultCache;
pub use job::{Job, JobResult, JobStatus, Progress};
pub use pool::{
    available_workers, run_batch, run_batch_streaming, BatchOptions, HarnessError, StreamSummary,
};
pub use sink::{json_escape, JsonlSink, RecordSink};
