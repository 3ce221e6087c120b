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
//! * [`run_batch_streaming`] — the pool and its one entry point: shared
//!   atomic work cursor, mpsc result collection, per-job `catch_unwind`
//!   panic isolation (a crashed simulation becomes a
//!   [`JobStatus::Panicked`] record instead of killing the batch). Each
//!   result goes *by value* to the sink in submission order and is not
//!   kept, and [`BatchOptions::queue_capacity`] bounds the result queue
//!   so a slow sink back-pressures the workers;
//! * [`RecordSink`] — the ordered result consumer: the fleet's JSONL
//!   writer, or any `FnMut(JobResult<O>)` closure (which is how a sweep
//!   collects its results into a vector);
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
//! use hcperf_harness::{run_batch_streaming, BatchOptions, Job, JobResult};
//!
//! let jobs: Vec<Job<u64>> = (0..16).map(|i| Job::new(format!("cell/{i}"), i)).collect();
//! let mut results = Vec::new();
//! let mut sink = |r: JobResult<u64>| results.push(r);
//! let opts = BatchOptions::with_workers(4).stream_to(&mut sink);
//! let summary = run_batch_streaming(&jobs, opts, |&input, seed| input.wrapping_mul(seed)).unwrap();
//! assert_eq!(summary.ok, 16);
//! assert!(results.iter().enumerate().all(|(i, r)| r.index == i));
//! ```

pub mod cache;
pub mod job;
pub mod pool;
pub mod seed;
pub mod sink;

pub use cache::ResultCache;
pub use job::{Job, JobResult, JobStatus};
pub use pool::{available_workers, run_batch_streaming, BatchOptions, HarnessError, StreamSummary};
pub use sink::{json_escape, RecordSink};
