//! The typed job model: what goes into a batch and what comes back out.

use std::time::Duration;

/// One unit of work in a batch: a stable key plus an input payload.
///
/// The key identifies the job *across runs* — it feeds seed derivation
/// and labels results, so it must be unique within a batch and stable
/// between invocations (e.g. `"fig13/scheme=edf"`, not an index that
/// shifts when cells are added).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job<I> {
    /// Stable, batch-unique identity of the job.
    pub key: String,
    /// Input payload handed to the job function.
    pub input: I,
    /// Explicit seed override. `None` derives the seed from the batch
    /// root seed and `key` (the default); `Some` pins it — used when the
    /// cell's scenario already carries its seed, so the cell computes
    /// exactly what a direct scenario call with that seed computes.
    pub seed: Option<u64>,
}

impl<I> Job<I> {
    /// A job whose seed is derived from the batch root seed and `key`.
    pub fn new(key: impl Into<String>, input: I) -> Job<I> {
        Job {
            key: key.into(),
            input,
            seed: None,
        }
    }

    /// A job with an explicitly pinned seed.
    pub fn with_seed(key: impl Into<String>, input: I, seed: u64) -> Job<I> {
        Job {
            key: key.into(),
            input,
            seed: Some(seed),
        }
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus<O> {
    /// The job function returned normally.
    Ok(O),
    /// The job function panicked; the payload is the panic message.
    /// The worker that caught it kept running its remaining jobs.
    Panicked(String),
}

impl<O> JobStatus<O> {
    /// `true` for [`JobStatus::Ok`].
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, JobStatus::Ok(_))
    }

    /// The success payload, if any.
    pub fn ok(self) -> Option<O> {
        match self {
            JobStatus::Ok(o) => Some(o),
            JobStatus::Panicked(_) => None,
        }
    }
}

/// The structured outcome of one job, reported in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult<O> {
    /// Position of the job in the submitted batch.
    pub index: usize,
    /// The job's stable key.
    pub key: String,
    /// Seed the job actually ran with (derived or pinned).
    pub seed: u64,
    /// Wall-clock time the job function took on its worker.
    pub wall: Duration,
    /// Attempts actually made: `1` for a first-try outcome, more when
    /// the batch's retry policy re-ran a panicked job. A panicked status
    /// with `attempts == max_retries + 1` means every attempt failed.
    pub attempts: u32,
    /// Success payload or structured failure.
    pub status: JobStatus<O>,
}

impl<O> JobResult<O> {
    /// Unwraps the success payload, turning a panicked job into an
    /// error message that names the job.
    ///
    /// # Errors
    ///
    /// Returns the panic message prefixed with the job key.
    pub fn into_ok(self) -> Result<O, String> {
        match self.status {
            JobStatus::Ok(o) => Ok(o),
            JobStatus::Panicked(msg) => Err(format!("job {:?} panicked: {msg}", self.key)),
        }
    }
}
