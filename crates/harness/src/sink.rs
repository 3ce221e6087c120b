//! Streaming result sinks.
//!
//! The pool hands each completed [`JobResult`] to a sink by value *in
//! submission order* (out-of-order completions are buffered), so
//! anything a sink writes or collects is bit-identical regardless of
//! worker count. The harness has no serde dependency: each surface
//! renders its own records (the fleet's `FleetSink`, a closure that
//! collects results into a vector).

use crate::job::JobResult;

/// Receives results as they become deliverable in submission order.
pub trait RecordSink<O> {
    /// Called once per job, in index order, with ownership of the
    /// result.
    fn record(&mut self, result: JobResult<O>);

    /// Polled by the pool after each [`RecordSink::record`]: returning
    /// `false` aborts the batch with a structured
    /// `HarnessError::Aborted`. The default keeps going; sinks that
    /// write to fallible I/O override this so a dead writer stops the
    /// run promptly (leaving a clean, resumable prefix) instead of
    /// simulating thousands of results nobody will ever see.
    fn keep_going(&self) -> bool {
        true
    }
}

/// Every `FnMut(JobResult<O>)` is a sink.
impl<O, F: FnMut(JobResult<O>)> RecordSink<O> for F {
    fn record(&mut self, result: JobResult<O>) {
        self(result);
    }
}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
