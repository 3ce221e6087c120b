//! A std-only scoped-thread map for the file scan.
//!
//! Lint wall-clock is dominated by embarrassingly parallel per-file work
//! (read + lex, token-tree parse). [`map`] fans that work over
//! `std::thread::scope` workers pulling indices from an atomic cursor and
//! reassembles results **by index**, so output order — and therefore
//! every report, baseline, and certificate file — is byte-identical to
//! the sequential pass regardless of worker interleaving.
//!
//! Worker count comes from `HCPERF_LINT_JOBS` when set (clamped to
//! [1, 64]; `1` forces the sequential fast path, which is also what CI
//! uses to pin benchmark comparisons), else
//! `std::thread::available_parallelism`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Upper bound on worker threads; beyond this the cursor contention
/// outweighs any conceivable file-count win.
const MAX_JOBS: usize = 64;

/// Resolves the worker count: `HCPERF_LINT_JOBS` override, else the
/// machine's available parallelism, clamped to `[1, MAX_JOBS]`.
#[must_use]
pub fn jobs() -> usize {
    if let Ok(v) = std::env::var("HCPERF_LINT_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_JOBS);
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get().min(MAX_JOBS))
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output. Deterministic by construction: workers steal *indices*, not
/// work ranges, and results are reassembled positionally.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                // Re-raise a worker panic on the caller thread rather than
                // silently returning a short result vector.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_for_string_work() {
        let items: Vec<String> = (0..64).map(|i| format!("file-{i}\nline\n")).collect();
        let seq: Vec<usize> = items.iter().map(|s| s.len() * 3).collect();
        assert_eq!(map(&items, |s| s.len() * 3), seq);
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }
}
