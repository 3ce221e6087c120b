//! Pool-level integration tests: determinism across worker counts,
//! panic isolation, ordered streaming, retries, caching and sink aborts
//! — all through the one entry point, `run_batch_streaming`, with
//! test-local sinks.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use hcperf_harness::seed::{derive_seed, splitmix64};
use hcperf_harness::{
    json_escape, run_batch_streaming, BatchOptions, HarnessError, Job, JobResult, JobStatus,
    RecordSink,
};
use proptest::prelude::*;

/// A deterministic, seed-driven stand-in for a simulation: a short
/// SplitMix64 walk whose length comes from the input.
fn fake_sim(input: &u64, seed: u64) -> u64 {
    let mut state = seed;
    let mut acc = 0u64;
    for _ in 0..(input % 7 + 1) {
        acc = acc.wrapping_add(splitmix64(&mut state));
    }
    acc
}

fn batch(n: u64) -> Vec<Job<u64>> {
    (0..n).map(|i| Job::new(format!("cell/{i}"), i)).collect()
}

/// Runs `jobs` on `workers` threads and collects every result through
/// a closure sink.
fn collect<O: Send>(
    jobs: &[Job<u64>],
    workers: usize,
    run: impl Fn(&u64, u64) -> O + Sync,
) -> Vec<JobResult<O>> {
    let mut results = Vec::new();
    let mut sink = |r| results.push(r);
    run_batch_streaming(
        jobs,
        BatchOptions::with_workers(workers).stream_to(&mut sink),
        run,
    )
    .unwrap();
    results
}

/// A sink that renders each result as a JSON-Lines envelope into `out`:
/// `index`, `key`, `seed`, `attempts` for retried jobs, then `ok` with
/// the payload or the panic message.
fn jsonl(out: &mut String) -> impl FnMut(JobResult<u64>) + '_ {
    move |r| {
        let _ = write!(
            out,
            "{{\"index\":{},\"key\":\"{}\",\"seed\":{}",
            r.index,
            json_escape(&r.key),
            r.seed
        );
        if r.attempts > 1 {
            let _ = write!(out, ",\"attempts\":{}", r.attempts);
        }
        let _ = match r.status {
            JobStatus::Ok(o) => writeln!(out, ",\"ok\":true,\"payload\":{o}}}"),
            JobStatus::Panicked(msg) => {
                writeln!(out, ",\"ok\":false,\"panic\":\"{}\"}}", json_escape(&msg))
            }
        };
    }
}

/// A sink whose writer dies after `budget` records: `keep_going` turns
/// false once it holds that many, so the pool aborts the batch.
struct StopAfter {
    budget: usize,
    indices: Vec<usize>,
}

impl StopAfter {
    fn new(budget: usize) -> StopAfter {
        StopAfter {
            budget,
            indices: Vec::new(),
        }
    }
}

impl RecordSink<u64> for StopAfter {
    fn record(&mut self, result: JobResult<u64>) {
        self.indices.push(result.index);
    }

    fn keep_going(&self) -> bool {
        self.indices.len() < self.budget
    }
}

#[test]
fn results_are_bit_identical_for_any_worker_count() {
    let jobs = batch(33);
    let reference = collect(&jobs, 1, fake_sim);
    for workers in [2, 3, 8, 16] {
        let got = collect(&jobs, workers, fake_sim);
        assert_eq!(got.len(), reference.len());
        for (r, g) in reference.iter().zip(&got) {
            assert_eq!((r.index, &r.key, r.seed), (g.index, &g.key, g.seed));
            assert_eq!(r.status, g.status, "workers={workers} key={}", r.key);
        }
    }
}

#[test]
fn seeds_come_from_root_and_key_not_from_scheduling() {
    let jobs = batch(9);
    let mut results = Vec::new();
    let mut sink = |r| results.push(r);
    let opts = BatchOptions::with_workers(4)
        .root_seed(99)
        .stream_to(&mut sink);
    run_batch_streaming(&jobs, opts, fake_sim).unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i);
        assert_eq!(r.seed, derive_seed(99, &format!("cell/{i}")));
    }
    // A different root seed shifts every derived seed.
    let other = collect(&jobs, 4, fake_sim);
    assert!(results.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
}

#[test]
fn explicit_seeds_override_derivation() {
    let jobs = vec![
        Job::with_seed("a", 1u64, 7),
        Job::with_seed("b", 2u64, 7),
        Job::new("c", 3u64),
    ];
    let results = collect(&jobs, 2, fake_sim);
    assert_eq!(results[0].seed, 7);
    assert_eq!(results[1].seed, 7);
    assert_ne!(results[2].seed, 7);
}

#[test]
fn panicking_job_yields_failure_record_and_siblings_complete() {
    // Silence the default panic hook for the intentional panic below.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let jobs = batch(12);
    let results = collect(&jobs, 3, |&input, seed| {
        assert!(input != 5, "job five exploded");
        fake_sim(&input, seed)
    });
    std::panic::set_hook(prev);

    assert_eq!(results.len(), 12);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.index, i);
        if i == 5 {
            match &r.status {
                JobStatus::Panicked(msg) => assert!(msg.contains("job five exploded"), "{msg}"),
                JobStatus::Ok(_) => panic!("job 5 must be a failure record"),
            }
            assert!(r.clone().into_ok().unwrap_err().contains("cell/5"));
        } else {
            assert!(r.status.is_ok(), "sibling {i} must complete");
        }
    }
}

#[test]
fn duplicate_keys_are_rejected_up_front() {
    let jobs = vec![Job::new("same", 1u64), Job::new("same", 2u64)];
    let err = run_batch_streaming(&jobs, BatchOptions::with_workers(2), fake_sim).unwrap_err();
    assert_eq!(err, HarnessError::DuplicateKey("same".into()));
}

#[test]
fn empty_batch_is_fine() {
    let jobs: Vec<Job<u64>> = Vec::new();
    assert!(collect(&jobs, 4, fake_sim).is_empty());
}

/// The sink sees submission order and the same bytes for any worker
/// count, with or without a bounded result queue.
#[test]
fn sink_receives_submission_order_and_identical_bytes_for_any_worker_count() {
    let jobs = batch(17);
    let stream = |workers: usize, capacity: usize| {
        let mut text = String::new();
        let summary = {
            let mut sink = jsonl(&mut text);
            let opts = BatchOptions::with_workers(workers)
                .queue_capacity(capacity)
                .stream_to(&mut sink);
            run_batch_streaming(&jobs, opts, fake_sim).unwrap()
        };
        assert_eq!((summary.total, summary.ok, summary.panicked), (17, 17, 0));
        text
    };
    let reference = stream(1, 0);
    assert_eq!(reference.lines().count(), 17);
    for (i, line) in reference.lines().enumerate() {
        assert!(line.starts_with(&format!("{{\"index\":{i},")), "{line}");
    }
    for (workers, capacity) in [(2, 0), (8, 0), (2, 1), (8, 3)] {
        assert_eq!(
            stream(workers, capacity),
            reference,
            "workers={workers} capacity={capacity}"
        );
    }
}

#[test]
fn bounded_queue_backpressures_without_losing_results() {
    // Queue capacity 1 with many workers forces senders to block on a
    // deliberately slow sink; everything must still arrive in order.
    let jobs = batch(24);
    let mut seen = Vec::new();
    let mut sink = |r: JobResult<u64>| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        seen.push((r.index, r.into_ok().unwrap()));
    };
    let summary = {
        let opts = BatchOptions::with_workers(8)
            .queue_capacity(1)
            .stream_to(&mut sink);
        run_batch_streaming(&jobs, opts, fake_sim).unwrap()
    };
    assert_eq!(summary.ok, 24);
    assert_eq!(seen.len(), 24);
    let opts = BatchOptions::<u64>::default();
    for (i, (index, value)) in seen.iter().enumerate() {
        assert_eq!(*index, i);
        let seed = derive_seed(opts.root_seed, &format!("cell/{i}"));
        assert_eq!(*value, fake_sim(&(i as u64), seed));
    }
}

#[test]
fn streaming_counts_panicked_jobs() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let jobs = batch(10);
    let summary = run_batch_streaming(&jobs, BatchOptions::with_workers(2), |&input, seed| {
        assert!(input % 4 != 3, "boom");
        fake_sim(&input, seed)
    })
    .unwrap();
    std::panic::set_hook(prev);
    assert_eq!((summary.total, summary.ok, summary.panicked), (10, 8, 2));
}

#[test]
fn zero_workers_means_available_parallelism() {
    let jobs = batch(4);
    let touched = AtomicUsize::new(0);
    let results = collect(&jobs, 0, |&input, seed| {
        touched.fetch_add(1, Ordering::Relaxed);
        fake_sim(&input, seed)
    });
    assert_eq!(results.len(), 4);
    assert_eq!(touched.load(Ordering::Relaxed), 4);
}

/// The pool really runs `workers` jobs at once. Four jobs meet at a
/// four-party rendezvous, so the batch succeeds only if all four are in
/// flight together. `std::sync::Barrier` cannot time out, so the
/// rendezvous is a countdown on a `Condvar` with a bounded wait: a
/// serialized pool fails the test with `Panicked` records instead of
/// hanging it. No wall-clock threshold decides the outcome.
#[test]
fn four_workers_run_four_jobs_at_once() {
    let jobs = batch(4);
    let arrived = (Mutex::new(0usize), Condvar::new());
    let results = collect(&jobs, 4, |&input, seed| {
        let (count, all_here) = &arrived;
        let mut here = count.lock().unwrap();
        *here += 1;
        all_here.notify_all();
        let (here, wait) = all_here
            .wait_timeout_while(here, Duration::from_secs(30), |n| *n < 4)
            .unwrap();
        let seen = *here;
        drop(here);
        assert!(!wait.timed_out(), "only {seen} of 4 jobs ran at once");
        fake_sim(&input, seed)
    });
    for r in &results {
        assert!(r.status.is_ok(), "{}: {:?}", r.key, r.status);
    }
}

/// The retry-policy failure audit: a job that panics on *every*
/// attempt must come back as a structured failure record carrying its
/// attempt count — never a lost job or a deadlock — even with a tiny
/// bounded result queue keeping workers parked on `send`.
#[test]
fn always_panicking_job_surfaces_failure_with_attempt_count() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let jobs = batch(12);
    let mut seen = Vec::new();
    let mut sink = |r: JobResult<u64>| seen.push((r.index, r.attempts));
    let summary = {
        let opts = BatchOptions::with_workers(4)
            .queue_capacity(2)
            .max_retries(2)
            .stream_to(&mut sink);
        run_batch_streaming(&jobs, opts, |&input, seed| {
            assert!(input != 7, "job seven always explodes");
            fake_sim(&input, seed)
        })
        .unwrap()
    };
    std::panic::set_hook(prev);
    assert_eq!((summary.total, summary.ok, summary.panicked), (12, 11, 1));
    assert_eq!(summary.retried, 1, "only the doomed job consumed retries");
    assert_eq!(seen.len(), 12, "no job may be lost to the retry loop");
    for (index, attempts) in &seen {
        let expected = if *index == 7 { 3 } else { 1 };
        assert_eq!(*attempts, expected, "index {index}");
    }
}

/// A job that panics only under its first-attempt seed succeeds on the
/// deterministic retry: the result reports the retry seed and two
/// attempts, identically at any worker count.
#[test]
fn flaky_seed_job_recovers_on_deterministic_retry() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let root = BatchOptions::<u64>::default().root_seed;
    // Each job's input is its own first-attempt seed, so the job can
    // deterministically crash on attempt 0 and succeed on attempt 1.
    let jobs: Vec<Job<u64>> = (0..6)
        .map(|i| {
            let key = format!("cell/{i}");
            let first = derive_seed(root, &key);
            Job::new(key, first)
        })
        .collect();
    let run = |&first: &u64, seed: u64| {
        assert!(seed != first, "first attempt crashes");
        seed
    };
    let retried = |workers: usize| {
        let mut results = Vec::new();
        let mut sink = |r| results.push(r);
        let opts = BatchOptions::with_workers(workers)
            .max_retries(1)
            .stream_to(&mut sink);
        run_batch_streaming(&jobs, opts, run).unwrap();
        results
    };
    let reference = retried(1);
    for (i, r) in reference.iter().enumerate() {
        assert_eq!(r.attempts, 2, "cell/{i} needed its retry");
        let retry_seed = derive_seed(root, &format!("cell/{i}#attempt=1"));
        assert_eq!(r.seed, retry_seed, "result carries the seed that ran");
        assert_eq!(r.status, JobStatus::Ok(retry_seed));
    }
    for workers in [2, 8] {
        let got = retried(workers);
        for (r, g) in reference.iter().zip(&got) {
            assert_eq!(
                (r.index, &r.key, r.seed, r.attempts, &r.status),
                (g.index, &g.key, g.seed, g.attempts, &g.status),
                "workers={workers}"
            );
        }
    }
    std::panic::set_hook(prev);
}

/// A transparent in-memory cache for exercising the pool's cache hook.
struct MemCache {
    map: std::collections::BTreeMap<String, u64>,
    gets: usize,
    puts: Vec<String>,
}

impl MemCache {
    fn new() -> MemCache {
        MemCache {
            map: std::collections::BTreeMap::new(),
            gets: 0,
            puts: Vec::new(),
        }
    }
}

impl hcperf_harness::ResultCache<u64> for MemCache {
    fn get(&mut self, key: &str) -> Option<(u64, u32)> {
        self.gets += 1;
        self.map.get(key).map(|&o| (o, 1))
    }
    fn put(&mut self, result: &JobResult<u64>) {
        if let JobStatus::Ok(o) = &result.status {
            self.map.insert(result.key.clone(), *o);
            self.puts.push(result.key.clone());
        }
    }
}

/// The cache contract end to end: a cold batch computes and populates
/// the cache (puts in submission order), a warm batch is served
/// entirely from it — bit-identical results, zero jobs recomputed.
#[test]
fn warm_cache_serves_batch_without_recomputation() {
    let jobs = batch(12);
    let mut cache = MemCache::new();
    let ran = AtomicUsize::new(0);
    let cached_run = |cache: &mut MemCache| {
        let mut results = Vec::new();
        let mut sink = |r| results.push(r);
        let opts = BatchOptions::with_workers(3)
            .stream_to(&mut sink)
            .cached(cache);
        run_batch_streaming(&jobs, opts, |input, seed| {
            ran.fetch_add(1, Ordering::Relaxed);
            fake_sim(input, seed)
        })
        .unwrap();
        results
    };
    let cold = cached_run(&mut cache);
    assert_eq!(ran.load(Ordering::Relaxed), 12);
    assert_eq!(cache.puts.len(), 12);
    assert_eq!(
        cache.puts,
        (0..12).map(|i| format!("cell/{i}")).collect::<Vec<_>>(),
        "puts must arrive in submission order"
    );

    let warm = cached_run(&mut cache);
    assert_eq!(ran.load(Ordering::Relaxed), 12, "zero cells recomputed");
    assert_eq!(cache.puts.len(), 12, "hits are never offered back");
    // Identical apart from wall time (cached results take zero wall).
    assert_eq!(warm.len(), cold.len());
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!((w.index, &w.key, w.seed), (c.index, &c.key, c.seed));
        assert_eq!(w.status, c.status, "cached replay must be bit-identical");
    }
    // Warm results still carry the derived seed a real run would use.
    for (i, r) in warm.iter().enumerate() {
        let opts = BatchOptions::<u64>::default();
        assert_eq!(r.seed, derive_seed(opts.root_seed, &format!("cell/{i}")));
    }
}

/// A partially warm cache recomputes exactly the misses, and the
/// streamed output interleaves hits and fresh results in submission
/// order — byte-identical to an uncached run.
#[test]
fn partial_cache_recomputes_only_misses_and_streams_in_order() {
    let jobs = batch(10);
    let mut reference = String::new();
    {
        let mut sink = jsonl(&mut reference);
        let opts = BatchOptions::with_workers(2).stream_to(&mut sink);
        run_batch_streaming(&jobs, opts, fake_sim).unwrap();
    }

    let mut cache = MemCache::new();
    // Pre-warm the even cells only.
    for (i, job) in jobs.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
        let opts = BatchOptions::<u64>::default();
        let seed = derive_seed(opts.root_seed, &job.key);
        cache
            .map
            .insert(job.key.clone(), fake_sim(&(i as u64), seed));
    }
    let ran = AtomicUsize::new(0);
    let mut got = String::new();
    let summary = {
        let mut sink = jsonl(&mut got);
        let opts = BatchOptions::with_workers(4)
            .stream_to(&mut sink)
            .cached(&mut cache);
        run_batch_streaming(&jobs, opts, |input, seed| {
            ran.fetch_add(1, Ordering::Relaxed);
            fake_sim(input, seed)
        })
        .unwrap()
    };
    assert_eq!(summary.cached, 5);
    assert_eq!(summary.ok, 10);
    assert_eq!(ran.load(Ordering::Relaxed), 5, "only the odd cells ran");
    assert_eq!(cache.puts.len(), 5, "only fresh results are offered back");
    assert_eq!(got, reference);
}

/// Panicked jobs are not cached, so the next run retries them.
#[test]
fn panicked_jobs_are_retried_on_the_next_run() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let jobs = batch(6);
    let mut cache = MemCache::new();
    let summary = {
        let opts = BatchOptions::with_workers(2).cached(&mut cache);
        run_batch_streaming(&jobs, opts, |&input, seed| {
            assert!(input != 3, "boom");
            fake_sim(&input, seed)
        })
        .unwrap()
    };
    assert_eq!((summary.ok, summary.panicked, summary.cached), (5, 1, 0));
    let summary = {
        let opts = BatchOptions::with_workers(2).cached(&mut cache);
        run_batch_streaming(&jobs, opts, fake_sim).unwrap()
    };
    std::panic::set_hook(prev);
    assert_eq!((summary.ok, summary.panicked, summary.cached), (6, 0, 5));
}

/// A sink whose writer dies aborts the batch with a structured error;
/// the delivered prefix reached the sink and the cache, nothing later
/// did.
#[test]
fn dead_sink_aborts_batch_leaving_resumable_prefix() {
    let jobs = batch(20);
    let mut cache = MemCache::new();
    let mut sink = StopAfter::new(5);
    let err = {
        let opts = BatchOptions::with_workers(2)
            .stream_to(&mut sink)
            .cached(&mut cache);
        run_batch_streaming(&jobs, opts, fake_sim).unwrap_err()
    };
    let HarnessError::Aborted { delivered, total } = err else {
        panic!("expected Aborted, got {err:?}");
    };
    assert_eq!(total, 20);
    assert_eq!(delivered, 5, "the sink stopped after its fifth record");
    assert_eq!(sink.indices, (0..delivered).collect::<Vec<_>>());
    // Exactly the delivered prefix was cached, in order.
    assert_eq!(
        cache.puts,
        (0..delivered)
            .map(|i| format!("cell/{i}"))
            .collect::<Vec<_>>()
    );
}

/// Regression: aborting while the bounded result queue is full must not
/// deadlock. With a tiny queue and far more jobs than capacity, workers
/// are parked on `send` when the sink dies — the pool has to drop the
/// receiver before joining them or the join never completes.
#[test]
fn abort_with_full_bounded_queue_does_not_deadlock() {
    let jobs = batch(200);
    let mut sink = StopAfter::new(4);
    let err = {
        let opts = BatchOptions::with_workers(4)
            .queue_capacity(2)
            .stream_to(&mut sink);
        run_batch_streaming(&jobs, opts, fake_sim).unwrap_err()
    };
    let HarnessError::Aborted { delivered, total } = err else {
        panic!("expected Aborted, got {err:?}");
    };
    assert_eq!(total, 200);
    assert_eq!(delivered, 4, "the sink stopped after its fourth record");
}

/// Whether a run with `seed` panics: a pure function of the seed, so a
/// job's fate under a given pattern is the same on every worker. `odds`
/// is the share of seeds that panic, in quarters.
fn panics_under(salt: u64, odds: u64, seed: u64) -> bool {
    let mut state = seed ^ salt;
    splitmix64(&mut state) % 4 < odds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Supervision under random panic patterns and retry budgets: results
    /// arrive in submission order; each comes from the first attempt whose
    /// seed succeeds (attempt 0 runs the job's own seed, attempt k > 0 the
    /// seed derived from `"<key>#attempt=<k>"`) and reports that seed and
    /// `k + 1` attempts; a job no attempt saves is one failure record after
    /// `max_retries + 1` attempts; and the bytes match at 1 and 2 workers.
    #[test]
    fn random_panic_patterns_keep_order_and_the_attempt_seed_contract(
        pins in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..13),
        root in any::<u64>(),
        salt in any::<u64>(),
        odds in 0u64..5,
        max_retries in 0u32..4,
    ) {
        let jobs: Vec<Job<u64>> = pins
            .iter()
            .enumerate()
            .map(|(i, &(pinned, pin))| {
                let key = format!("cell/{i}");
                if pinned {
                    Job::with_seed(key, i as u64, pin)
                } else {
                    Job::new(key, i as u64)
                }
            })
            .collect();
        let run = |input: &u64, seed: u64| {
            assert!(!panics_under(salt, odds, seed), "seed {seed} panics");
            fake_sim(input, seed)
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let runs: Vec<Vec<JobResult<u64>>> = [1, 2]
            .into_iter()
            .map(|workers| {
                let mut results = Vec::new();
                let mut sink = |r| results.push(r);
                let opts = BatchOptions::with_workers(workers)
                    .root_seed(root)
                    .max_retries(max_retries)
                    .stream_to(&mut sink);
                run_batch_streaming(&jobs, opts, run).unwrap();
                results
            })
            .collect();
        std::panic::set_hook(prev);

        let mut bytes = Vec::new();
        for results in runs {
            prop_assert_eq!(results.len(), jobs.len());
            for (i, (r, job)) in results.iter().zip(&jobs).enumerate() {
                prop_assert_eq!(r.index, i);
                prop_assert_eq!(&r.key, &job.key);
                let seed_of = |k: u32| {
                    if k == 0 {
                        job.seed.unwrap_or_else(|| derive_seed(root, &job.key))
                    } else {
                        derive_seed(root, &format!("{}#attempt={k}", job.key))
                    }
                };
                match (0..=max_retries).find(|&k| !panics_under(salt, odds, seed_of(k))) {
                    Some(k) => {
                        prop_assert_eq!((r.attempts, r.seed), (k + 1, seed_of(k)), "{}", job.key);
                        prop_assert_eq!(&r.status, &JobStatus::Ok(fake_sim(&job.input, seed_of(k))));
                    }
                    None => {
                        let last = seed_of(max_retries);
                        prop_assert_eq!((r.attempts, r.seed), (max_retries + 1, last), "{}", job.key);
                        prop_assert_eq!(&r.status, &JobStatus::Panicked(format!("seed {last} panics")));
                    }
                }
            }
            let mut out = String::new();
            results.into_iter().for_each(jsonl(&mut out));
            bytes.push(out);
        }
        prop_assert_eq!(&bytes[0], &bytes[1], "1 vs 2 workers");
    }
}
