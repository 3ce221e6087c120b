//! The fixed-size worker pool and batch executor.
//!
//! Workers are scoped `std::thread`s pulling job indices from a shared
//! atomic cursor and sending [`JobResult`]s back over an mpsc channel;
//! the submitting thread collects, reorders and streams them. Nothing a
//! job computes may depend on which worker ran it or when it finished —
//! seeds come from [`crate::seed::derive_seed`] (or an explicit pin)
//! and results are reported in submission order, which is what makes a
//! batch bit-identical for any worker count.
//!
//! [`run_batch_streaming`] is the one batch entry point: it hands each
//! result *by value* to the sink in submission order and keeps nothing,
//! so a fleet of a million vehicles holds only the out-of-order reorder
//! window in memory, while a caller that wants every result collects
//! them with a closure sink. Combined with
//! [`BatchOptions::queue_capacity`] (a bounded result channel), a slow
//! sink back-pressures the workers instead of ballooning the queue.
//!
//! Collection failures are structured: a worker that dies without
//! reporting its job yields [`HarnessError::LostJobs`] instead of
//! killing the run with a panic.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::cache::ResultCache;
use crate::job::{Job, JobResult, JobStatus};
use crate::seed::derive_seed;
use crate::sink::RecordSink;

/// Batch validation or collection failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// Two jobs share a key; keys feed seed derivation and result
    /// labelling, so they must be unique within a batch.
    DuplicateKey(String),
    /// The result channel closed before every job reported: one or more
    /// workers died without producing even a panic record. The batch's
    /// delivered prefix is still valid; `missing` lists the submission
    /// indices that never arrived.
    LostJobs {
        /// Submission indices that never reported.
        missing: Vec<usize>,
        /// Total jobs in the batch.
        total: usize,
    },
    /// A job index was reported twice or out of range — a bug in the
    /// pool itself, surfaced as an error so a long-running service can
    /// log-and-continue instead of aborting.
    CorruptCollection {
        /// The offending submission index.
        index: usize,
    },
    /// The sink asked the pool to stop ([`RecordSink::keep_going`]
    /// returned `false`) — typically because its writer died. The
    /// submission-order prefix of `delivered` results reached the sink
    /// (and any attached cache) before the stop; nothing after it did.
    /// This is how an interrupted streaming run leaves a clean,
    /// resumable prefix instead of a corrupt tail.
    Aborted {
        /// Results delivered to the sink before the abort.
        delivered: usize,
        /// Total jobs in the batch.
        total: usize,
    },
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::DuplicateKey(k) => write!(f, "duplicate job key {k:?} in batch"),
            HarnessError::LostJobs { missing, total } => write!(
                f,
                "worker pool lost {} of {total} jobs (first missing index {})",
                missing.len(),
                missing.first().copied().unwrap_or(0)
            ),
            HarnessError::CorruptCollection { index } => {
                write!(f, "job {index} reported twice or out of range")
            }
            HarnessError::Aborted { delivered, total } => {
                write!(
                    f,
                    "batch aborted by its sink after {delivered} of {total} results"
                )
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Worker threads the host can usefully run (`available_parallelism`,
/// falling back to 1 when the platform cannot say).
#[must_use]
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Execution options for one batch; `sink` receives every result in
/// submission order, buffered as needed.
pub struct BatchOptions<'a, O> {
    /// Worker threads; `0` means [`available_workers`]. Capped at the
    /// job count.
    pub workers: usize,
    /// Root seed that [`crate::seed::derive_seed`] folds each job key
    /// into.
    pub root_seed: u64,
    /// Bound on the worker→collector result channel. `0` (the default)
    /// keeps the channel unbounded; a positive value makes workers
    /// block once that many results are queued unconsumed, so a slow
    /// sink back-pressures the whole pool instead of buffering without
    /// limit. Does not affect results, only memory and pacing.
    pub queue_capacity: usize,
    /// Extra attempts granted to a panicking job before its failure is
    /// final. `0` (the default) reports the first panic as the job's
    /// result — exactly the pre-retry behavior. With `n > 0`, attempt
    /// `k > 0` reruns the job with the seed derived from
    /// `"<key>#attempt=<k>"`, so retries are deterministic, distinct
    /// from the first try, and independent of worker scheduling; the
    /// first success (or the `n`-th retry's failure) is the result, with
    /// [`JobResult::attempts`] recording how many attempts were made.
    pub max_retries: u32,
    /// Ordered streaming result sink.
    pub sink: Option<&'a mut dyn RecordSink<O>>,
    /// Optional result cache. Probed once per job (in submission order)
    /// before anything runs: hits are delivered without touching a
    /// worker — same key, same derived seed, zero wall time — and fresh
    /// results are offered back via [`ResultCache::put`] in submission
    /// order. Cached payloads for jobs that cannot be delivered yet wait
    /// in the reorder window, so a batch served mostly from cache trades
    /// memory for the recompute it skips.
    pub cache: Option<&'a mut dyn ResultCache<O>>,
}

impl<O> std::fmt::Debug for BatchOptions<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchOptions")
            .field("workers", &self.workers)
            .field("root_seed", &self.root_seed)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_retries", &self.max_retries)
            .field("sink", &self.sink.is_some())
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl<O> Default for BatchOptions<'_, O> {
    fn default() -> Self {
        BatchOptions {
            workers: 0,
            root_seed: 0x4843_5045_5246, // "HCPERF"
            queue_capacity: 0,
            max_retries: 0,
            sink: None,
            cache: None,
        }
    }
}

impl<'a, O> BatchOptions<'a, O> {
    /// Options with an explicit worker count (`0` = auto).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        BatchOptions {
            workers,
            ..BatchOptions::default()
        }
    }

    /// Sets the root seed.
    #[must_use]
    pub fn root_seed(mut self, root_seed: u64) -> Self {
        self.root_seed = root_seed;
        self
    }

    /// Bounds the worker→collector result queue (`0` = unbounded).
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Grants panicking jobs up to `max_retries` deterministic reruns
    /// (see [`BatchOptions::max_retries`]).
    #[must_use]
    pub fn max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Attaches an ordered streaming sink.
    #[must_use]
    pub fn stream_to(mut self, sink: &'a mut dyn RecordSink<O>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a result cache (see [`BatchOptions::cache`]).
    #[must_use]
    pub fn cached(mut self, cache: &'a mut dyn ResultCache<O>) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// What a streaming run reports once the last record has been sunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Jobs submitted.
    pub total: usize,
    /// Jobs that returned normally.
    pub ok: usize,
    /// Jobs that panicked on every permitted attempt (isolated into
    /// failure records).
    pub panicked: usize,
    /// Jobs that needed more than one attempt, whatever the final
    /// outcome. Zero when [`BatchOptions::max_retries`] is `0`.
    pub retried: usize,
    /// Jobs served from the attached [`ResultCache`] instead of being
    /// recomputed (a subset of `ok`). Zero when no cache is attached.
    pub cached: usize,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Either flavour of result sender; `send` blocks on the bounded one
/// when the queue is full (the backpressure mechanism).
enum ResultSender<T> {
    Unbounded(mpsc::Sender<T>),
    Bounded(mpsc::SyncSender<T>),
}

impl<T> Clone for ResultSender<T> {
    fn clone(&self) -> Self {
        match self {
            ResultSender::Unbounded(tx) => ResultSender::Unbounded(tx.clone()),
            ResultSender::Bounded(tx) => ResultSender::Bounded(tx.clone()),
        }
    }
}

impl<T> ResultSender<T> {
    fn send(&self, value: T) -> Result<(), mpsc::SendError<T>> {
        match self {
            ResultSender::Unbounded(tx) => tx.send(value),
            ResultSender::Bounded(tx) => tx.send(value),
        }
    }
}

/// Drains `rx`, firing `on_ready` in strict submission order
/// (out-of-order completions wait in a reorder window, pre-seeded with
/// the cache hits in `prehits`). Fresh results are offered to `cache`
/// at delivery time — submission order — so an append-only cache log is
/// itself deterministic. Returns a structured error — never panics —
/// when the channel closes early, an index arrives twice, or `on_ready`
/// asks to stop.
// hcperf-lint: det-sanitizer(index-tagged-merge): reorder window re-serializes by submission index
fn collect_ordered<O>(
    rx: &mpsc::Receiver<JobResult<O>>,
    total: usize,
    prehits: BTreeMap<usize, JobResult<O>>,
    mut cache: Option<&mut dyn ResultCache<O>>,
    on_ready: &mut dyn FnMut(JobResult<O>) -> ControlFlow<()>,
) -> Result<(), HarnessError> {
    let cached_ix: BTreeSet<usize> = prehits.keys().copied().collect();
    let mut pending = prehits;
    let mut next_ready = 0usize;
    let mut deliver_ready = |pending: &mut BTreeMap<usize, JobResult<O>>,
                             next_ready: &mut usize,
                             cache: &mut Option<&mut dyn ResultCache<O>>|
     -> Result<(), HarnessError> {
        while let Some(ready) = pending.remove(&*next_ready) {
            if !cached_ix.contains(next_ready) {
                if let Some(cache) = cache.as_deref_mut() {
                    cache.put(&ready);
                }
            }
            *next_ready += 1;
            if on_ready(ready).is_break() {
                return Err(HarnessError::Aborted {
                    delivered: *next_ready,
                    total,
                });
            }
        }
        Ok(())
    };
    // A fully-cached prefix (or batch) is deliverable immediately.
    deliver_ready(&mut pending, &mut next_ready, &mut cache)?;
    while let Ok(result) = rx.recv() {
        let index = result.index;
        if index >= total || index < next_ready || pending.contains_key(&index) {
            return Err(HarnessError::CorruptCollection { index });
        }
        pending.insert(index, result);
        deliver_ready(&mut pending, &mut next_ready, &mut cache)?;
    }
    if next_ready != total {
        // The channel closed with gaps: every undelivered index that is
        // not parked in the reorder window was lost with its worker.
        let missing: Vec<usize> = (next_ready..total)
            .filter(|i| !pending.contains_key(i))
            .collect();
        return Err(HarnessError::LostJobs { missing, total });
    }
    Ok(())
}

/// Seed for attempt `attempt` (0-based) of `job`: attempt 0 keeps the
/// historical derivation (or the job's explicit pin), each retry folds
/// the attempt index into the key so reruns are deterministic but
/// distinct — a flaky-seed job is not doomed to replay the same crash.
fn attempt_seed<I>(root_seed: u64, job: &Job<I>, attempt: u32) -> u64 {
    if attempt == 0 {
        job.seed.unwrap_or_else(|| derive_seed(root_seed, &job.key))
    } else {
        derive_seed(root_seed, &format!("{}#attempt={attempt}", job.key))
    }
}

/// Work assignment for the pool: either every submission index, or the
/// subset the cache could not serve. The all-indices case avoids
/// materializing a `0..total` vector for plain (uncached) batches.
enum WorkList {
    All(usize),
    Subset(Vec<usize>),
}

impl WorkList {
    fn get(&self, slot: usize) -> Option<usize> {
        match self {
            WorkList::All(total) => (slot < *total).then_some(slot),
            WorkList::Subset(indices) => indices.get(slot).copied(),
        }
    }

    fn len(&self) -> usize {
        match self {
            WorkList::All(total) => *total,
            WorkList::Subset(indices) => indices.len(),
        }
    }
}

/// Runs every job in `jobs` through `run` on a fixed pool of workers
/// and hands each [`JobResult`] by value to the sink in submission
/// order, keeping none of them: memory stays bounded by the
/// out-of-order reorder window rather than the batch size. A caller
/// that wants the results collects them with a closure sink; pair a
/// fleet-scale run with [`BatchOptions::queue_capacity`] so a slow sink
/// throttles the workers too.
///
/// `run` receives the job's input and its seed. A panicking job becomes
/// a [`JobStatus::Panicked`] record — its worker and all sibling jobs
/// carry on, and the pool still shuts down cleanly.
///
/// Determinism contract: everything delivered to the sink is
/// bit-identical for any `workers` value, provided `run` itself is a
/// pure function of `(input, seed)`.
///
/// # Errors
///
/// Returns [`HarnessError::DuplicateKey`] before running anything if
/// two jobs share a key, [`HarnessError::Aborted`] when the sink asks
/// to stop, [`HarnessError::LostJobs`] if a worker dies without
/// reporting, and [`HarnessError::CorruptCollection`] if the pool
/// itself misbehaves — collection never panics.
pub fn run_batch_streaming<I, O, F>(
    jobs: &[Job<I>],
    opts: BatchOptions<'_, O>,
    run: F,
) -> Result<StreamSummary, HarnessError>
where
    I: Sync,
    O: Send,
    F: Fn(&I, u64) -> O + Sync,
{
    let BatchOptions {
        workers,
        root_seed,
        queue_capacity,
        max_retries,
        mut sink,
        mut cache,
    } = opts;
    let total = jobs.len();
    {
        // hcperf-lint: allow(det-flow): membership-only duplicate check; iteration order never observed
        let mut seen = std::collections::HashSet::with_capacity(total);
        for job in jobs {
            if !seen.insert(job.key.as_str()) {
                return Err(HarnessError::DuplicateKey(job.key.clone()));
            }
        }
    }
    // Cache probe, in submission order on the submitting thread: hits
    // become ready-made results (same derived seed a run would get,
    // zero wall time); misses form the pool's work list.
    let (prehits, work) = match cache.as_deref_mut() {
        None => (BTreeMap::new(), WorkList::All(total)),
        Some(cache) => {
            let mut prehits: BTreeMap<usize, JobResult<O>> = BTreeMap::new();
            let mut misses = Vec::new();
            for (index, job) in jobs.iter().enumerate() {
                match cache.get(&job.key) {
                    Some((output, attempts)) => {
                        // A hit replays the attempt count the original
                        // run recorded, so its seed is the one the final
                        // (successful) attempt actually used.
                        let seed = attempt_seed(root_seed, job, attempts.saturating_sub(1));
                        prehits.insert(
                            index,
                            JobResult {
                                index,
                                key: job.key.clone(),
                                seed,
                                wall: Duration::ZERO,
                                attempts: attempts.max(1),
                                status: JobStatus::Ok(output),
                            },
                        );
                    }
                    None => misses.push(index),
                }
            }
            (prehits, WorkList::Subset(misses))
        }
    };
    let mut summary = StreamSummary {
        total,
        ok: 0,
        panicked: 0,
        retried: 0,
        cached: prehits.len(),
    };
    let mut on_ready = |result: JobResult<O>| {
        match result.status {
            JobStatus::Ok(_) => summary.ok += 1,
            JobStatus::Panicked(_) => summary.panicked += 1,
        }
        if result.attempts > 1 {
            summary.retried += 1;
        }
        if let Some(sink) = sink.as_deref_mut() {
            sink.record(result);
            if !sink.keep_going() {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    };
    let workers = if workers == 0 {
        available_workers()
    } else {
        workers
    }
    .min(work.len())
    .max(1);

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = if queue_capacity == 0 {
        let (tx, rx) = mpsc::channel::<JobResult<O>>();
        (ResultSender::Unbounded(tx), rx)
    } else {
        let (tx, rx) = mpsc::sync_channel::<JobResult<O>>(queue_capacity);
        (ResultSender::Bounded(tx), rx)
    };

    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let run = &run;
            let work = &work;
            scope.spawn(move || loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(index) = work.get(slot) else { break };
                let Some(job) = jobs.get(index) else { break };
                // hcperf-lint: allow(det-flow): wall time feeds only the documented-nondeterministic wall_ms field
                let start = Instant::now();
                // Retry loop: runs on the worker, so only the final
                // outcome crosses the channel — collection's one-result-
                // per-index bookkeeping never sees intermediate panics.
                let mut attempt = 0u32;
                let (seed, status) = loop {
                    let seed = attempt_seed(root_seed, job, attempt);
                    let status = match catch_unwind(AssertUnwindSafe(|| run(&job.input, seed))) {
                        Ok(output) => JobStatus::Ok(output),
                        Err(payload) => JobStatus::Panicked(panic_message(payload.as_ref())),
                    };
                    if status.is_ok() || attempt >= max_retries {
                        break (seed, status);
                    }
                    attempt += 1;
                };
                let result = JobResult {
                    index,
                    key: job.key.clone(),
                    seed,
                    // hcperf-lint: allow(det-flow): wall_ms is the one documented-nondeterministic output field
                    wall: start.elapsed(),
                    attempts: attempt + 1,
                    status,
                };
                if tx.send(result).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collection can end early (abort, corrupt index). `rx` must die
        // *before* the scope's implicit join: a worker parked on a full
        // bounded queue only unblocks when the receiver drops, sees the
        // send failure, and exits — so drop it here, inside the scope.
        let collected = collect_ordered(&rx, total, prehits, cache, &mut on_ready);
        drop(rx);
        collected
    })?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn result(index: usize) -> JobResult<u32> {
        JobResult {
            index,
            key: format!("job/{index}"),
            seed: 1,
            wall: Duration::ZERO,
            attempts: 1,
            status: JobStatus::Ok(index as u32),
        }
    }

    fn collect(
        rx: &mpsc::Receiver<JobResult<u32>>,
        total: usize,
        prehits: BTreeMap<usize, JobResult<u32>>,
        delivered: &mut Vec<usize>,
    ) -> Result<(), HarnessError> {
        collect_ordered(rx, total, prehits, None, &mut |r| {
            delivered.push(r.index);
            ControlFlow::Continue(())
        })
    }

    /// Regression for the old `slot.expect("all collected")` panic: a
    /// channel that closes before every job reports must produce a
    /// structured [`HarnessError::LostJobs`], naming exactly the indices
    /// that never arrived.
    #[test]
    fn early_channel_close_is_a_structured_error() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        tx.send(result(0)).unwrap();
        tx.send(result(3)).unwrap();
        drop(tx);
        let mut delivered = Vec::new();
        let err = collect(&rx, 5, BTreeMap::new(), &mut delivered).unwrap_err();
        assert_eq!(
            err,
            HarnessError::LostJobs {
                missing: vec![1, 2, 4],
                total: 5
            }
        );
        // The ordered prefix was still delivered before the error.
        assert_eq!(delivered, vec![0]);
        assert!(err.to_string().contains("lost 3 of 5"));
    }

    #[test]
    fn duplicate_index_is_a_structured_error() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        tx.send(result(1)).unwrap();
        tx.send(result(1)).unwrap();
        drop(tx);
        let err = collect(&rx, 3, BTreeMap::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(err, HarnessError::CorruptCollection { index: 1 });
    }

    #[test]
    fn out_of_range_index_is_a_structured_error() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        tx.send(result(9)).unwrap();
        drop(tx);
        let err = collect(&rx, 2, BTreeMap::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(err, HarnessError::CorruptCollection { index: 9 });
    }

    #[test]
    fn complete_stream_delivers_in_submission_order() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        for i in [2, 0, 1] {
            tx.send(result(i)).unwrap();
        }
        drop(tx);
        let mut delivered = Vec::new();
        collect(&rx, 3, BTreeMap::new(), &mut delivered).unwrap();
        assert_eq!(delivered, vec![0, 1, 2]);
    }

    /// Cache hits wait in the same reorder window as worker results:
    /// delivery interleaves them back into strict submission order.
    #[test]
    fn prehits_interleave_with_fresh_results_in_order() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        tx.send(result(1)).unwrap();
        tx.send(result(3)).unwrap();
        drop(tx);
        let prehits: BTreeMap<usize, JobResult<u32>> =
            [(0, result(0)), (2, result(2))].into_iter().collect();
        let mut delivered = Vec::new();
        collect(&rx, 4, prehits, &mut delivered).unwrap();
        assert_eq!(delivered, vec![0, 1, 2, 3]);
    }

    /// A fresh result for an index the cache already served is a pool
    /// bug and must surface as corruption, not a silent double delivery.
    #[test]
    fn fresh_result_for_cached_index_is_corruption() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        tx.send(result(0)).unwrap();
        drop(tx);
        let prehits: BTreeMap<usize, JobResult<u32>> = [(0, result(0))].into_iter().collect();
        let err = collect(&rx, 2, prehits, &mut Vec::new()).unwrap_err();
        assert_eq!(err, HarnessError::CorruptCollection { index: 0 });
    }

    /// `Break` from the consumer stops delivery with a structured abort
    /// naming the delivered prefix.
    #[test]
    fn consumer_break_aborts_with_delivered_count() {
        let (tx, rx) = mpsc::channel::<JobResult<u32>>();
        for i in 0..4 {
            tx.send(result(i)).unwrap();
        }
        drop(tx);
        let mut delivered = Vec::new();
        let err = collect_ordered(&rx, 4, BTreeMap::new(), None, &mut |r| {
            delivered.push(r.index);
            if r.index == 1 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            HarnessError::Aborted {
                delivered: 2,
                total: 4
            }
        );
        assert_eq!(delivered, vec![0, 1]);
    }
}
