//! The append-only, crash-safe cell store.
//!
//! # Log format
//!
//! One JSON object per line, append-only, replayed on open. Five ops:
//!
//! ```text
//! {"op":"pending","cell":"<32hex>","key":"fleet/.../vehicle=3"}
//! {"op":"running","cell":"<32hex>"}
//! {"op":"done","cell":"<32hex>","wall_ms":1.234,"payload":"<json text>"}
//! {"op":"failed","cell":"<32hex>","error":"panicked: ..."}
//! {"op":"run","fingerprint":"<16hex>","hits":980,"misses":20}
//! ```
//!
//! `done` and `failed` ops may additionally carry `"attempts":N` when
//! the producing job needed more than one attempt (the harness retry
//! policy); its absence means one attempt, so pre-retry logs replay
//! unchanged and first-try runs append the exact bytes they always did.
//!
//! The payload of a `done` op is the *exact* JSON fragment the producer
//! serialized, embedded as an escaped JSON string — so replaying a cell
//! re-emits the producer's bytes, never a re-rendering of them.
//!
//! # Replay
//!
//! [`Store::open`] reads each line with `serde_json::for_each_member`,
//! which validates the whole object without building a `Value` tree. The
//! first occurrence of a key wins, keys compare after unescaping, and
//! unknown members are validated and skipped. A string is copied out of
//! the line only where a cell keeps it (its id, key, payload or error),
//! at exactly its length. A line that is not one valid JSON object, or
//! whose op lacks a member it needs, is corrupt. `"attempts"` that is
//! missing or not a non-negative integer means one attempt.
//!
//! # Crash safety
//!
//! A crash mid-append leaves at most one torn final line (the file is
//! written through a single append handle). [`Store::open`] scans the
//! log; the first unparsable or unterminated line and everything after
//! it is moved to `<path>.quarantine` and the log is truncated back to
//! the last complete record. Every complete record survives, so an
//! interrupted run resumes from exactly the prefix it managed to
//! persist.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use hcperf_harness::json_escape;
use serde_json::RawValue;

use crate::hash::CellId;

#[cfg(test)]
mod reference;

/// Default number of slowest cells reported by [`Store::bottlenecks`].
pub const SLOW_CELLS_DEFAULT: usize = 10;

/// A store operation failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure on the log or quarantine file.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// An op that violates the cell lifecycle (e.g. completing a cell
    /// that was never registered), or a cell-id/key mismatch.
    Lifecycle(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O error on {}: {source}", path.display())
            }
            StoreError::Lifecycle(msg) => write!(f, "store lifecycle error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Lifecycle(_) => None,
        }
    }
}

/// Lifecycle state of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellState {
    /// Registered, not yet picked up by a worker.
    Pending,
    /// Claimed by a run; a crash leaves cells parked here.
    Running,
    /// Finished: wall time and the exact payload bytes.
    Done {
        /// Wall-clock milliseconds the producing job took.
        wall_ms: f64,
        /// The producer's serialized JSON payload, byte-exact.
        payload: String,
        /// Attempts the producing job took (1 = first try), replayed
        /// into resumed results so retry accounting survives a restart.
        attempts: u32,
    },
    /// The job panicked or its payload could not be encoded; retried
    /// (re-registered as pending) on the next run.
    Failed {
        /// The failure message.
        error: String,
        /// Attempts the job made before its failure became final.
        attempts: u32,
    },
}

impl CellState {
    /// The state's log/op name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CellState::Pending => "pending",
            CellState::Running => "running",
            CellState::Done { .. } => "done",
            CellState::Failed { .. } => "failed",
        }
    }
}

/// One cell: its stable job key plus lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The harness job key this cell caches (`"fleet/.../vehicle=3"`).
    pub key: String,
    /// Current lifecycle state.
    pub state: CellState,
}

/// The hit/miss summary appended by one harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Cells served from the store without recomputation.
    pub hits: usize,
    /// Cells that had to run.
    pub misses: usize,
}

impl RunSummary {
    /// Cache-hit ratio in `[0, 1]`; `None` for an empty run.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Counts per state plus run history, as reported by [`Store::status`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStatus {
    /// Cells registered but not yet claimed.
    pub pending: usize,
    /// Cells claimed by a run that has not finished them (after a
    /// crash these are the cells that were in flight).
    pub running: usize,
    /// Finished cells served from disk on the next run.
    pub done: usize,
    /// Cells whose job panicked; retried on the next run.
    pub failed: usize,
    /// Harness runs recorded against this store.
    pub runs: usize,
    /// The most recent run's hit/miss summary, if any run completed.
    pub last_run: Option<RunSummary>,
    /// Bytes quarantined from a torn tail when the store was opened.
    pub quarantined_bytes: usize,
}

impl StoreStatus {
    /// Total cells in the store.
    #[must_use]
    pub fn total(&self) -> usize {
        self.pending + self.running + self.done + self.failed
    }
}

/// Slow/stuck-cell report, as produced by [`Store::bottlenecks`].
#[derive(Debug, Clone, PartialEq)]
pub struct Bottlenecks {
    /// The slowest `done` cells, `(wall_ms, key)`, slowest first.
    pub slowest_done: Vec<(f64, String)>,
    /// Keys of cells still `pending` or `running` — the shards an
    /// interrupted or partial run is blocked on.
    pub stuck: Vec<String>,
    /// Keys of `failed` cells awaiting retry.
    pub failed: Vec<String>,
}

/// The append-only cell store: replayed state plus an append handle.
pub struct Store {
    path: PathBuf,
    writer: BufWriter<File>,
    cells: BTreeMap<CellId, Cell>,
    runs: Vec<RunSummary>,
    quarantined_bytes: usize,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("cells", &self.cells.len())
            .field("runs", &self.runs.len())
            .field("quarantined_bytes", &self.quarantined_bytes)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (or creates) the store at `path`, replaying the log.
    ///
    /// A torn or corrupt tail — the first line that is unterminated or
    /// fails to parse, plus everything after it — is appended to
    /// `<path>.quarantine` and the log is truncated back to the last
    /// complete record.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; log damage is recovered, not fatal.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |source| StoreError::Io {
            path: path.clone(),
            source,
        };

        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };

        let Replayed {
            cells,
            runs,
            clean_end,
        } = replay(&bytes);

        let mut quarantined_bytes = 0;
        if clean_end < bytes.len() {
            quarantined_bytes = bytes.len() - clean_end;
            let qpath = quarantine_path(&path);
            let mut q = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&qpath)
                .map_err(|source| StoreError::Io {
                    path: qpath.clone(),
                    source,
                })?;
            q.write_all(&bytes[clean_end..])
                .and_then(|()| q.sync_all())
                .map_err(|source| StoreError::Io {
                    path: qpath.clone(),
                    source,
                })?;
            let f = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
            f.set_len(clean_end as u64).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Store {
            path,
            writer: BufWriter::new(file),
            cells,
            runs,
            quarantined_bytes,
        })
    }

    // hcperf-lint: det-sink(store-append): every log line is replayed on resume; bytes must be stable
    fn append(&mut self, line: &str) -> Result<(), StoreError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|source| StoreError::Io {
                path: self.path.clone(),
                source,
            })
    }

    /// The log file this store appends to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes moved to the quarantine file when this store was opened
    /// (zero for a clean log).
    #[must_use]
    pub fn quarantined_bytes(&self) -> usize {
        self.quarantined_bytes
    }

    /// Looks up a cell by id.
    #[must_use]
    pub fn lookup(&self, id: &str) -> Option<&Cell> {
        self.cells.get(id)
    }

    /// Registers a cell as `pending`, appending a log record if the
    /// cell is new or is being retried after a failure. Returns `true`
    /// if a record was appended. `done` and already-`pending`/`running`
    /// cells are left untouched.
    ///
    /// # Errors
    ///
    /// Propagates append I/O failures.
    pub fn register(&mut self, id: &str, key: &str) -> Result<bool, StoreError> {
        match self.cells.get(id) {
            Some(cell) if cell.key != key => {
                return Err(StoreError::Lifecycle(format!(
                    "cell {id} registered with key {:?} but already maps to {:?}",
                    key, cell.key
                )));
            }
            Some(cell) if !matches!(cell.state, CellState::Failed { .. }) => return Ok(false),
            _ => {}
        }
        self.append(&format!(
            "{{\"op\":\"pending\",\"cell\":\"{id}\",\"key\":\"{}\"}}",
            json_escape(key)
        ))?;
        self.cells.insert(
            id.to_owned(),
            Cell {
                key: key.to_owned(),
                state: CellState::Pending,
            },
        );
        Ok(true)
    }

    /// Marks a registered cell `running`.
    ///
    /// # Errors
    ///
    /// Fails on unregistered or already-`done` cells, and on append
    /// I/O failures.
    pub fn mark_running(&mut self, id: &str) -> Result<(), StoreError> {
        match self.cells.get(id) {
            None => {
                return Err(StoreError::Lifecycle(format!(
                    "cell {id} marked running but was never registered"
                )))
            }
            Some(cell) if matches!(cell.state, CellState::Done { .. }) => {
                return Err(StoreError::Lifecycle(format!(
                    "cell {id} marked running but is already done"
                )))
            }
            Some(_) => {}
        }
        self.append(&format!("{{\"op\":\"running\",\"cell\":\"{id}\"}}"))?;
        if let Some(cell) = self.cells.get_mut(id) {
            cell.state = CellState::Running;
        }
        Ok(())
    }

    /// Completes a cell with the producer's exact payload bytes.
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells and on append I/O failures.
    pub fn complete(&mut self, id: &str, wall_ms: f64, payload: &str) -> Result<(), StoreError> {
        self.complete_with_attempts(id, wall_ms, payload, 1)
    }

    /// [`Store::complete`] recording how many attempts the producing job
    /// took; `attempts > 1` is persisted so a resumed run replays the
    /// retry accounting byte-identically.
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells and on append I/O failures.
    pub fn complete_with_attempts(
        &mut self,
        id: &str,
        wall_ms: f64,
        payload: &str,
        attempts: u32,
    ) -> Result<(), StoreError> {
        if !self.cells.contains_key(id) {
            return Err(StoreError::Lifecycle(format!(
                "cell {id} completed but was never registered"
            )));
        }
        let attempts = attempts.max(1);
        let extra = if attempts > 1 {
            format!(",\"attempts\":{attempts}")
        } else {
            String::new()
        };
        self.append(&format!(
            "{{\"op\":\"done\",\"cell\":\"{id}\",\"wall_ms\":{wall_ms},\"payload\":\"{}\"{extra}}}",
            json_escape(payload)
        ))?;
        if let Some(cell) = self.cells.get_mut(id) {
            cell.state = CellState::Done {
                wall_ms,
                payload: payload.to_owned(),
                attempts,
            };
        }
        Ok(())
    }

    /// Marks a cell `failed` (retried on the next run via
    /// [`Store::register`]).
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells and on append I/O failures.
    pub fn fail(&mut self, id: &str, error: &str) -> Result<(), StoreError> {
        self.fail_with_attempts(id, error, 1)
    }

    /// [`Store::fail`] recording how many attempts the job made before
    /// its failure became final.
    ///
    /// # Errors
    ///
    /// Fails on unregistered cells and on append I/O failures.
    pub fn fail_with_attempts(
        &mut self,
        id: &str,
        error: &str,
        attempts: u32,
    ) -> Result<(), StoreError> {
        if !self.cells.contains_key(id) {
            return Err(StoreError::Lifecycle(format!(
                "cell {id} failed but was never registered"
            )));
        }
        let attempts = attempts.max(1);
        let extra = if attempts > 1 {
            format!(",\"attempts\":{attempts}")
        } else {
            String::new()
        };
        self.append(&format!(
            "{{\"op\":\"failed\",\"cell\":\"{id}\",\"error\":\"{}\"{extra}}}",
            json_escape(error)
        ))?;
        if let Some(cell) = self.cells.get_mut(id) {
            cell.state = CellState::Failed {
                error: error.to_owned(),
                attempts,
            };
        }
        Ok(())
    }

    /// Appends one harness run's hit/miss summary.
    ///
    /// # Errors
    ///
    /// Propagates append I/O failures.
    pub fn record_run(&mut self, fingerprint: &str, summary: RunSummary) -> Result<(), StoreError> {
        self.append(&format!(
            "{{\"op\":\"run\",\"fingerprint\":\"{}\",\"hits\":{},\"misses\":{}}}",
            json_escape(fingerprint),
            summary.hits,
            summary.misses
        ))?;
        self.runs.push(summary);
        Ok(())
    }

    /// Flushes buffered appends and fsyncs the log to disk.
    ///
    /// # Errors
    ///
    /// Propagates flush/fsync failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer
            .flush()
            .and_then(|()| self.writer.get_ref().sync_all())
            .map_err(|source| StoreError::Io {
                path: self.path.clone(),
                source,
            })
    }

    /// Counts per state, run history, and quarantine info.
    #[must_use]
    pub fn status(&self) -> StoreStatus {
        let mut status = StoreStatus {
            pending: 0,
            running: 0,
            done: 0,
            failed: 0,
            runs: self.runs.len(),
            last_run: self.runs.last().copied(),
            quarantined_bytes: self.quarantined_bytes,
        };
        for cell in self.cells.values() {
            match cell.state {
                CellState::Pending => status.pending += 1,
                CellState::Running => status.running += 1,
                CellState::Done { .. } => status.done += 1,
                CellState::Failed { .. } => status.failed += 1,
            }
        }
        status
    }

    /// Every `failed` cell as `(key, attempts, error)`, sorted by key.
    ///
    /// This is the quarantine listing behind `hcperf store --failed`:
    /// the cells a `--resume` will re-register exactly once each.
    #[must_use]
    pub fn failed_cells(&self) -> Vec<(String, u32, String)> {
        let mut failed: Vec<(String, u32, String)> = self
            .cells
            .values()
            .filter_map(|c| match &c.state {
                CellState::Failed { error, attempts } => {
                    Some((c.key.clone(), *attempts, error.clone()))
                }
                _ => None,
            })
            .collect();
        failed.sort();
        failed
    }

    /// The `top` slowest `done` cells plus every stuck or failed shard.
    #[must_use]
    pub fn bottlenecks(&self, top: usize) -> Bottlenecks {
        let mut slowest_done: Vec<(f64, String)> = self
            .cells
            .values()
            .filter_map(|c| match &c.state {
                CellState::Done { wall_ms, .. } => Some((*wall_ms, c.key.clone())),
                _ => None,
            })
            .collect();
        // Sort slowest-first; ties break on key for determinism.
        slowest_done.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        slowest_done.truncate(top);
        let stuck = self
            .cells
            .values()
            .filter(|c| matches!(c.state, CellState::Pending | CellState::Running))
            .map(|c| c.key.clone())
            .collect();
        let failed = self
            .cells
            .values()
            .filter(|c| matches!(c.state, CellState::Failed { .. }))
            .map(|c| c.key.clone())
            .collect();
        Bottlenecks {
            slowest_done,
            stuck,
            failed,
        }
    }
}

/// The state a log replays to.
#[derive(Debug, PartialEq)]
struct Replayed {
    cells: BTreeMap<CellId, Cell>,
    runs: Vec<RunSummary>,
    /// Offset of the first byte not covered by a valid record.
    clean_end: usize,
}

/// Replays complete, valid lines up to the first unterminated or corrupt
/// one.
fn replay(bytes: &[u8]) -> Replayed {
    let mut cells = BTreeMap::new();
    let mut runs = Vec::new();
    let mut clean_end = 0usize;
    let mut cursor = 0usize;
    while cursor < bytes.len() {
        let Some(nl) = bytes[cursor..].iter().position(|&b| b == b'\n') else {
            break; // unterminated final line: torn tail
        };
        let line = &bytes[cursor..cursor + nl];
        if !replay_line(line, &mut cells, &mut runs) {
            break; // corrupt line: quarantine it and everything after
        }
        cursor += nl + 1;
        clean_end = cursor;
    }
    Replayed {
        cells,
        runs,
        clean_end,
    }
}

/// The members a log op reads, each at its first occurrence in the line.
#[derive(Default)]
struct OpMembers<'a> {
    op: Option<RawValue<'a>>,
    cell: Option<RawValue<'a>>,
    key: Option<RawValue<'a>>,
    wall_ms: Option<RawValue<'a>>,
    payload: Option<RawValue<'a>>,
    error: Option<RawValue<'a>>,
    hits: Option<RawValue<'a>>,
    misses: Option<RawValue<'a>>,
    attempts: Option<RawValue<'a>>,
}

impl<'a> OpMembers<'a> {
    /// Collects the members of one line; `None` if it is not a valid
    /// JSON object.
    fn read(text: &'a str) -> Option<Self> {
        let mut m = OpMembers::default();
        serde_json::for_each_member(text, |key, value| {
            let slot = match key {
                "op" => &mut m.op,
                "cell" => &mut m.cell,
                "key" => &mut m.key,
                "wall_ms" => &mut m.wall_ms,
                "payload" => &mut m.payload,
                "error" => &mut m.error,
                "hits" => &mut m.hits,
                "misses" => &mut m.misses,
                "attempts" => &mut m.attempts,
                _ => return,
            };
            slot.get_or_insert(value);
        })
        .ok()?;
        Some(m)
    }
}

fn as_str<'a>(v: Option<RawValue<'a>>) -> Option<Cow<'a, str>> {
    v?.as_str()
}

/// Applies one complete log line; `false` marks it corrupt. Strings are
/// copied out of the line only where a cell keeps them.
fn replay_line(
    line: &[u8],
    cells: &mut BTreeMap<CellId, Cell>,
    runs: &mut Vec<RunSummary>,
) -> bool {
    let Some(m) = std::str::from_utf8(line).ok().and_then(OpMembers::read) else {
        return false;
    };
    let Some(op) = as_str(m.op) else {
        return false;
    };
    if op == "run" {
        let (Some(hits), Some(misses)) = (
            m.hits.and_then(|v| v.as_u64()),
            m.misses.and_then(|v| v.as_u64()),
        ) else {
            return false;
        };
        runs.push(RunSummary {
            hits: hits as usize,
            misses: misses as usize,
        });
        return true;
    }
    let Some(cell) = as_str(m.cell) else {
        return false;
    };
    // A missing count, or one that is not a non-negative integer, means
    // one attempt.
    let attempts = m.attempts.and_then(|v| v.as_u64()).unwrap_or(1) as u32;
    match &*op {
        "pending" => {
            let Some(key) = as_str(m.key) else {
                return false;
            };
            // Re-registering is a retry: done cells stay done.
            let entry = cells.entry(cell.into_owned()).or_insert_with(|| Cell {
                key: key.into_owned(),
                state: CellState::Pending,
            });
            if !matches!(entry.state, CellState::Done { .. }) {
                entry.state = CellState::Pending;
            }
            true
        }
        "running" => match cells.get_mut(&*cell) {
            Some(c) => {
                if !matches!(c.state, CellState::Done { .. }) {
                    c.state = CellState::Running;
                }
                true
            }
            None => false,
        },
        "done" => {
            let (Some(wall_ms), Some(payload)) =
                (m.wall_ms.and_then(|v| v.as_f64()), as_str(m.payload))
            else {
                return false;
            };
            match cells.get_mut(&*cell) {
                Some(c) => {
                    c.state = CellState::Done {
                        wall_ms,
                        payload: payload.into_owned(),
                        attempts,
                    };
                    true
                }
                None => false,
            }
        }
        "failed" => {
            let Some(error) = as_str(m.error) else {
                return false;
            };
            match cells.get_mut(&*cell) {
                Some(c) => {
                    if !matches!(c.state, CellState::Done { .. }) {
                        c.state = CellState::Failed {
                            error: error.into_owned(),
                            attempts,
                        };
                    }
                    true
                }
                None => false,
            }
        }
        _ => false,
    }
}

impl Drop for Store {
    /// Best-effort flush so an abandoned store (early error return)
    /// still leaves every appended record on disk.
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// The side file torn tails are moved to.
#[must_use]
pub(crate) fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("store"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".quarantine");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{cell_id, fingerprint};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hcperf-store-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(quarantine_path(&p));
        p
    }

    #[test]
    fn lifecycle_round_trips_through_reopen() {
        let path = tmp("lifecycle");
        let fp = fingerprint(&["unit", "seed=1", "v1"]);
        let a = cell_id(&fp, "cell/a");
        let b = cell_id(&fp, "cell/b");
        {
            let mut store = Store::open(&path).unwrap();
            assert!(store.register(&a, "cell/a").unwrap());
            assert!(store.register(&b, "cell/b").unwrap());
            assert!(!store.register(&a, "cell/a").unwrap(), "no duplicate op");
            store.mark_running(&a).unwrap();
            store.complete(&a, 1.5, "{\"x\":1}").unwrap();
            store.mark_running(&b).unwrap();
            store.fail(&b, "panicked: boom").unwrap();
            store
                .record_run(&fp, RunSummary { hits: 0, misses: 2 })
                .unwrap();
            store.sync().unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.quarantined_bytes(), 0);
        let cell = store.lookup(&a).unwrap();
        assert_eq!(cell.key, "cell/a");
        assert_eq!(
            cell.state,
            CellState::Done {
                wall_ms: 1.5,
                payload: "{\"x\":1}".into(),
                attempts: 1,
            }
        );
        assert!(matches!(
            store.lookup(&b).unwrap().state,
            CellState::Failed { .. }
        ));
        let status = store.status();
        assert_eq!((status.done, status.failed), (1, 1));
        assert_eq!(status.last_run, Some(RunSummary { hits: 0, misses: 2 }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_cells_reregister_done_cells_do_not() {
        let path = tmp("retry");
        let fp = fingerprint(&["unit", "seed=1", "v1"]);
        let a = cell_id(&fp, "cell/a");
        let mut store = Store::open(&path).unwrap();
        store.register(&a, "cell/a").unwrap();
        store.fail(&a, "boom").unwrap();
        assert!(store.register(&a, "cell/a").unwrap(), "failed cell retries");
        store.complete(&a, 0.1, "1").unwrap();
        assert!(!store.register(&a, "cell/a").unwrap(), "done cell sticks");
        assert!(store.mark_running(&a).is_err(), "done is terminal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn key_collision_is_a_lifecycle_error() {
        let path = tmp("collision");
        let mut store = Store::open(&path).unwrap();
        store.register("deadbeef", "cell/a").unwrap();
        assert!(matches!(
            store.register("deadbeef", "cell/b"),
            Err(StoreError::Lifecycle(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn payload_with_metacharacters_round_trips_exactly() {
        let path = tmp("escape");
        let payload = "{\"s\":\"a\\\"b\\\\c\\nd\",\"t\":[1.5,null]}";
        let mut store = Store::open(&path).unwrap();
        store.register("00ff", "cell/esc").unwrap();
        store.complete("00ff", 0.0, payload).unwrap();
        store.sync().unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        match &store.lookup("00ff").unwrap().state {
            CellState::Done { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("expected done, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Attempt counts survive the log round trip, first-try ops keep
    /// their historical bytes, and the failed listing reports
    /// `(key, attempts, error)` sorted by key.
    #[test]
    fn attempts_round_trip_and_failed_listing() {
        let path = tmp("attempts");
        let fp = fingerprint(&["unit", "v1"]);
        let a = cell_id(&fp, "cell/a");
        let b = cell_id(&fp, "cell/b");
        let c = cell_id(&fp, "cell/c");
        {
            let mut store = Store::open(&path).unwrap();
            store.register(&a, "cell/a").unwrap();
            store.register(&b, "cell/b").unwrap();
            store.register(&c, "cell/c").unwrap();
            store.complete_with_attempts(&a, 1.0, "1", 3).unwrap();
            store.fail_with_attempts(&b, "panicked: boom", 4).unwrap();
            store.fail(&c, "panicked: pow").unwrap();
            store.sync().unwrap();
        }
        let log = std::fs::read_to_string(&path).unwrap();
        assert!(log.contains("\"payload\":\"1\",\"attempts\":3"));
        assert!(
            log.contains("\"error\":\"panicked: pow\"}"),
            "first-try failure keeps the pre-retry byte layout"
        );
        let store = Store::open(&path).unwrap();
        assert_eq!(
            store.lookup(&a).unwrap().state,
            CellState::Done {
                wall_ms: 1.0,
                payload: "1".into(),
                attempts: 3,
            }
        );
        assert_eq!(
            store.failed_cells(),
            vec![
                ("cell/b".into(), 4, "panicked: boom".into()),
                ("cell/c".into(), 1, "panicked: pow".into()),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bottlenecks_sort_slowest_first() {
        let path = tmp("bottlenecks");
        let mut store = Store::open(&path).unwrap();
        for (i, wall) in [(0, 1.0), (1, 9.0), (2, 4.0)] {
            let id = format!("{i:032x}");
            store.register(&id, &format!("cell/{i}")).unwrap();
            store.complete(&id, wall, "0").unwrap();
        }
        store
            .register("ff".repeat(16).as_str(), "cell/stuck")
            .unwrap();
        let b = store.bottlenecks(2);
        assert_eq!(
            b.slowest_done,
            vec![(9.0, "cell/1".into()), (4.0, "cell/2".into())]
        );
        assert_eq!(b.stuck, vec!["cell/stuck".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    /// A real store log: three `hcperf fleet --faults chaos` runs (failed
    /// cells, a retry run re-registering them, done cells with
    /// `"attempts":2`, three `run` summaries).
    const FLEET_LOG: &[u8] = include_bytes!("../tests/data/fleet-chaos.jsonl");

    fn assert_replays_like_oracle(bytes: &[u8], what: &dyn Fn() -> String) -> Replayed {
        let got = replay(bytes);
        assert_eq!(got, reference::replay(bytes), "{}", what());
        for cell in got.cells.values() {
            assert_eq!(cell.key.capacity(), cell.key.len(), "{}", what());
            if let CellState::Done { payload, .. } = &cell.state {
                assert_eq!(payload.capacity(), payload.len(), "{}", what());
            }
        }
        got
    }

    #[test]
    fn replay_matches_the_value_tree_oracle_at_every_truncation() {
        for end in 0..=FLEET_LOG.len() {
            let bytes = &FLEET_LOG[..end];
            let got = assert_replays_like_oracle(bytes, &|| format!("cut at {end}"));
            let last_newline = bytes.iter().rposition(|&b| b == b'\n');
            assert_eq!(got.clean_end, last_newline.map_or(0, |i| i + 1));
        }
        let whole = replay(FLEET_LOG);
        assert_eq!((whole.cells.len(), whole.runs.len()), (7, 3));
    }

    #[test]
    fn replay_matches_the_value_tree_oracle_under_byte_flips() {
        // The first run's records: pending, running, failed, done, run.
        let first_run = FLEET_LOG.split_inclusive(|&b| b == b'\n').take(13);
        let mut bytes: Vec<u8> = first_run.flatten().copied().collect();
        for i in 0..bytes.len() {
            let original = bytes[i];
            let line_start = bytes[..i]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |j| j + 1);
            for flipped in [
                original ^ 0x01,
                original ^ 0x20,
                original ^ 0x80,
                b'"',
                b'\\',
                b'\n',
            ] {
                if flipped == original {
                    continue;
                }
                bytes[i] = flipped;
                let got = assert_replays_like_oracle(&bytes, &|| {
                    format!("byte {i} {original:#04x} -> {flipped:#04x}")
                });
                assert!(got.clean_end >= line_start, "earlier records survive");
            }
            bytes[i] = original;
        }
    }

    #[test]
    fn adversarial_lines_replay_like_the_oracle() {
        const C: &str = "00000000000000000000000000000001";
        let pending = format!("{{\"op\":\"pending\",\"cell\":\"{C}\",\"key\":\"k\"}}\n");
        // (line, whether it replays)
        let cases: &[(String, bool)] = &[
            (
                format!(
                    r#"{{"op":"done","op":"failed","cell":"{C}","wall_ms":1,"payload":"p","payload":7}}"#
                ),
                true,
            ),
            (
                format!(r#"{{"op":7,"op":"done","cell":"{C}","wall_ms":1,"payload":"p"}}"#),
                false,
            ),
            (
                format!(r#"{{"op":"done","cell":"{C}","wall_ms":1,"payload":"p"}}"#),
                true,
            ),
            (format!(r#"{{"\u006fp":"running","cell":"{C}"}}"#), true),
            (
                format!(r#"{{"op":"d\u006fne","cell":"{C}","wall_ms":1,"payload":"p"}}"#),
                true,
            ),
            (
                format!(r#"{{"\u006fp":"bogus","op":"running","cell":"{C}"}}"#),
                false,
            ),
            (
                format!(r#"{{"op":"done","cell":"{C}","wall_ms":1,"payload":"p","attempts":"x"}}"#),
                true,
            ),
            (
                format!(r#"{{"op":"done","cell":"{C}","wall_ms":1,"payload":"p","attempts":3.5}}"#),
                true,
            ),
            (
                format!(
                    r#"{{"op":"done","cell":"{C}","wall_ms":1,"payload":"p","attempts":4294967298}}"#
                ),
                true,
            ),
            (
                format!(r#"{{"op":"failed","cell":"{C}","error":"\u+041\ud800","attempts":-1}}"#),
                true,
            ),
            (
                format!(r#"{{"op":"done","cell":"{C}","wall_ms":"1","payload":"p"}}"#),
                false,
            ),
            (
                format!(r#"{{"op":"running","cell":"{C}","x":[1,{{"y":tru}}]}}"#),
                false,
            ),
            (
                format!(r#"{{"op":"running","cell":"{C}","x":{{"y":[1e]}}}}"#),
                false,
            ),
            (format!(r#"{{"op":"running","cell":"{C}"}} x"#), false),
            (format!(r#"["op","running","cell","{C}"]"#), false),
            (r#"{"op":"run","hits":2,"misses":1e0}"#.to_owned(), true),
            (r#"{"op":"run","hits":2,"misses":-1}"#.to_owned(), false),
            (format!(r#"{{"op":"running","cell":"{C}x"}}"#), false),
            (
                " \t{\"op\":\"run\",\"hits\":0,\"misses\":0}\r".to_owned(),
                true,
            ),
            (String::new(), false),
        ];
        for (line, replays) in cases {
            let log = format!("{pending}{line}\n");
            let got = assert_replays_like_oracle(log.as_bytes(), &|| line.clone());
            assert_eq!(got.clean_end == log.len(), *replays, "{line}");
        }
        let state_after = |needle: &str| {
            let (line, _) = cases.iter().find(|(l, _)| l.contains(needle)).unwrap();
            replay(format!("{pending}{line}\n").as_bytes()).cells[C]
                .state
                .clone()
        };
        // The first `op` and the first `payload` win.
        let done = CellState::Done {
            wall_ms: 1.0,
            payload: "p".into(),
            attempts: 1,
        };
        assert_eq!(state_after(r#""op":"failed""#), done);
        let failed = CellState::Failed {
            error: "A\u{FFFD}".into(),
            attempts: 1,
        };
        assert_eq!(state_after("u+041"), failed);
    }

    /// `Store::open` on the log cut at every offset: never panics, keeps
    /// the clean prefix on disk and quarantines the rest.
    #[test]
    fn open_recovers_every_truncation_of_a_fleet_log() {
        let path = tmp("every-cut");
        for end in 0..=FLEET_LOG.len() {
            std::fs::write(&path, &FLEET_LOG[..end]).unwrap();
            let _ = std::fs::remove_file(quarantine_path(&path));
            let want = reference::replay(&FLEET_LOG[..end]);
            let store = Store::open(&path).unwrap();
            assert_eq!(store.cells, want.cells, "cut at {end}");
            assert_eq!(store.runs, want.runs, "cut at {end}");
            assert_eq!(store.quarantined_bytes(), end - want.clean_end);
            drop(store);
            assert_eq!(std::fs::read(&path).unwrap(), &FLEET_LOG[..want.clean_end]);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(quarantine_path(&path));
    }
}
