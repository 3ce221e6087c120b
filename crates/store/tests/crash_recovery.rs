//! Crash-recovery integration: a store log truncated mid-record must
//! recover every complete record, quarantine the torn tail, and let a
//! resumed run reproduce byte-identical output vs an uninterrupted run.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use hcperf_harness::{run_batch_streaming, BatchOptions, Job, JobResult, JobStatus};
use hcperf_store::{cell_id, fingerprint, CellCache, CellState, Store};

const CELLS: usize = 12;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcperf-crash-{name}-{}", std::process::id()));
    let _ = fs::remove_file(&p);
    let mut q = p.clone().into_os_string();
    q.push(".quarantine");
    let _ = fs::remove_file(PathBuf::from(q));
    p
}

fn quarantine(path: &Path) -> PathBuf {
    let mut q = path.to_path_buf().into_os_string();
    q.push(".quarantine");
    PathBuf::from(q)
}

fn jobs() -> Vec<Job<u64>> {
    (0..CELLS as u64)
        .map(|i| Job::new(format!("crash/cell={i}"), i))
        .collect()
}

/// The simulated experiment: any pure function of (input, seed) works.
fn simulate(input: &u64, seed: u64) -> f64 {
    (input.wrapping_mul(seed) % 1000) as f64 + 0.5
}

/// Runs the batch against `store`, returning (jsonl output, recomputed
/// cell count). Each result is rendered as one JSON line by a closure
/// sink.
fn run_with_store(store: &mut Store, fp: &str) -> (String, usize) {
    let mut cache = CellCache::new(
        store,
        fp.to_owned(),
        |o: &f64| Some(format!("{o}")),
        |s: &str| s.parse::<f64>().ok(),
    );
    let mut out = String::new();
    let mut sink = |r: JobResult<f64>| {
        let JobStatus::Ok(o) = r.status else {
            panic!("cell {} panicked", r.key);
        };
        let _ = writeln!(
            out,
            "{{\"index\":{},\"key\":\"{}\",\"seed\":{},\"ok\":true,\"payload\":{o}}}",
            r.index, r.key, r.seed
        );
    };
    let summary = run_batch_streaming(
        &jobs(),
        BatchOptions::with_workers(2)
            .stream_to(&mut sink)
            .cached(&mut cache),
        simulate,
    )
    .expect("batch");
    assert_eq!(summary.ok, CELLS);
    let run = cache.finish().expect("store healthy");
    (out, run.misses)
}

#[test]
fn torn_tail_is_quarantined_and_resume_is_byte_identical() {
    let path = tmp("torn-tail");
    let fp = fingerprint(&["crash-test", "seed-default", "v1"]);

    // Straight-through run: the reference output, all cells computed.
    let (reference, recomputed) = {
        let mut store = Store::open(&path).expect("open");
        run_with_store(&mut store, &fp)
    };
    assert_eq!(recomputed, CELLS);

    // Simulate a crash mid-append: chop the log mid-way through its
    // final record (the `run` summary and part of the last `done`).
    let log = fs::read(&path).expect("read log");
    let lines: Vec<&[u8]> = log.split_inclusive(|&b| b == b'\n').collect();
    assert!(lines.len() > 4, "log should have many records");
    let keep_lines = lines.len() - 2; // drop the run summary entirely...
    let keep: usize = lines[..keep_lines].iter().map(|l| l.len()).sum();
    let torn = keep + lines[keep_lines].len() / 2; // ...and tear the last done
    fs::write(&path, &log[..torn]).expect("truncate");

    // Recovery: complete records survive, the torn fragment moves to
    // quarantine, and the log is truncated back to the clean prefix.
    let mut store = Store::open(&path).expect("recover");
    assert_eq!(store.quarantined_bytes(), torn - keep);
    let qbytes = fs::read(quarantine(&path)).expect("quarantine exists");
    assert_eq!(&qbytes[..], &log[keep..torn], "torn bytes preserved");
    assert_eq!(fs::read(&path).expect("log"), &log[..keep], "clean prefix");

    let status = store.status();
    assert_eq!(status.done, CELLS - 1, "one done record was torn off");
    // The torn cell is parked in `running` (its pending/running ops
    // survived; its done op did not).
    assert_eq!(status.running, 1);
    let torn_key = format!("crash/cell={}", CELLS - 1);
    let torn_cell = store
        .lookup(&cell_id(&fp, &torn_key))
        .expect("torn cell registered");
    assert_eq!(torn_cell.key, torn_key);
    assert!(matches!(torn_cell.state, CellState::Running));

    // Resume: only the torn cell recomputes; output is byte-identical.
    let (resumed, recomputed) = run_with_store(&mut store, &fp);
    assert_eq!(recomputed, 1, "exactly the torn cell recomputes");
    assert_eq!(resumed, reference, "resumed output is byte-identical");

    // And the store is now fully healed: a third run is 100% hits.
    let (third, recomputed) = run_with_store(&mut store, &fp);
    assert_eq!(recomputed, 0, "zero done cells recomputed");
    assert_eq!(third, reference);
    assert_eq!(
        store.status().last_run.and_then(|r| r.hit_ratio()),
        Some(1.0)
    );

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(quarantine(&path));
}

#[test]
fn corrupt_middle_line_quarantines_everything_after_it() {
    let path = tmp("corrupt-middle");
    let fp = fingerprint(&["crash-test", "seed-default", "v1"]);
    {
        let mut store = Store::open(&path).expect("open");
        run_with_store(&mut store, &fp);
    }
    let log = fs::read(&path).expect("read log");
    let lines: Vec<&[u8]> = log.split_inclusive(|&b| b == b'\n').collect();
    // Corrupt a record in the middle of the log (flip its first byte).
    let corrupt_at: usize = lines[..lines.len() / 2].iter().map(|l| l.len()).sum();
    let mut damaged = log.clone();
    damaged[corrupt_at] = b'#';
    fs::write(&path, &damaged).expect("damage log");

    let store = Store::open(&path).expect("recover");
    // Everything from the corrupt line on is suspect and quarantined.
    assert_eq!(store.quarantined_bytes(), log.len() - corrupt_at);
    assert_eq!(fs::read(&path).expect("log"), &log[..corrupt_at]);
    assert!(store.status().done < CELLS);

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(quarantine(&path));
}

/// A crash can tear the log anywhere: cut it at the start, the middle and
/// the last byte of every record, and the resumed run is still
/// byte-identical to the straight-through one.
#[test]
fn resume_from_a_cut_anywhere_is_byte_identical() {
    let path = tmp("cut-anywhere");
    let fp = fingerprint(&["crash-test", "seed-default", "v1"]);
    let (reference, _) = {
        let mut store = Store::open(&path).expect("open");
        run_with_store(&mut store, &fp)
    };
    let log = fs::read(&path).expect("read log");
    let mut start = 0;
    for line in log.split_inclusive(|&b| b == b'\n') {
        for cut in [start, start + line.len() / 2, start + line.len() - 1] {
            fs::write(&path, &log[..cut]).expect("truncate");
            let _ = fs::remove_file(quarantine(&path));
            let mut store = Store::open(&path).expect("recover");
            assert_eq!(store.quarantined_bytes(), cut - start, "cut at {cut}");
            let done = store.status().done;
            let (resumed, recomputed) = run_with_store(&mut store, &fp);
            assert_eq!(resumed, reference, "cut at {cut}");
            assert_eq!(recomputed, CELLS - done, "cut at {cut}");
        }
        start += line.len();
    }
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(quarantine(&path));
}
