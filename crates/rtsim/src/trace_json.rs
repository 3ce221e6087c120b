//! Chrome Trace Event export.
//!
//! Converts an execution [`Trace`] into the Chrome Trace Event Format
//! (load the output in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev))
//! with one row per processor — the fastest way to eyeball scheduling
//! decisions at scale.

use serde::Serialize;

use hcperf_taskgraph::TaskGraph;

use crate::gantt;
use crate::trace::Trace;

/// One Chrome "complete" event (`ph = "X"`).
#[derive(Debug, Serialize)]
struct CompleteEvent<'a> {
    name: &'a str,
    cat: &'a str,
    ph: &'a str,
    /// Start, microseconds.
    ts: f64,
    /// Duration, microseconds.
    dur: f64,
    pid: u32,
    tid: usize,
    args: EventArgs,
}

#[derive(Debug, Serialize)]
struct EventArgs {
    job: u64,
    met_deadline: Option<bool>,
}

/// Serializes the trace's execution slots as a Chrome Trace Event JSON
/// array.
///
/// Unfinished slots (jobs still running when the trace ended) are skipped.
///
/// # Errors
///
/// Returns a [`serde_json::Error`] if serialization fails (it cannot for
/// these types; the `Result` is kept for API honesty).
///
/// # Examples
///
/// ```
/// use hcperf_rtsim::{trace_json, FifoScheduler, Sim, SimConfig};
/// use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
/// use hcperf_taskgraph::SimTime;
///
/// let graph = apollo_graph(&GraphOptions::default())?;
/// let mut sim = Sim::new(
///     graph,
///     SimConfig { trace_capacity: 10_000, ..Default::default() },
///     FifoScheduler::new(),
/// )?;
/// sim.run_until(SimTime::from_millis(200.0));
/// let graph = sim.graph().clone();
/// let json = trace_json::to_chrome_trace(sim.trace(), &graph)?;
/// assert!(json.starts_with('['));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_chrome_trace(trace: &Trace, graph: &TaskGraph) -> Result<String, serde_json::Error> {
    let slots = gantt::slots(trace);
    let events: Vec<CompleteEvent<'_>> = slots
        .iter()
        .filter_map(|slot| {
            let end = slot.end?;
            Some(CompleteEvent {
                name: graph.spec(slot.task).name(),
                cat: "task",
                ph: "X",
                ts: slot.start.as_secs() * 1e6,
                dur: (end - slot.start).as_secs() * 1e6,
                pid: 0,
                tid: slot.processor,
                args: EventArgs {
                    job: slot.job.raw(),
                    met_deadline: slot.met_deadline,
                },
            })
        })
        .collect();
    serde_json::to_string(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FifoScheduler;
    use crate::sim::{Sim, SimConfig};
    use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
    use hcperf_taskgraph::SimTime;

    #[test]
    fn exports_valid_json_with_expected_fields() {
        let json = fifo_trace_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        assert!(events.len() > 10);
        let first = &events[0];
        assert_eq!(first["ph"], "X");
        assert!(first["dur"].as_f64().unwrap() > 0.0);
        assert!(first["name"].as_str().unwrap().len() > 2);
        assert!(first["args"]["met_deadline"].as_bool().is_some());
    }

    #[test]
    fn empty_trace_exports_empty_array() {
        let trace = Trace::with_capacity(10);
        let graph = apollo_graph(&GraphOptions::default()).unwrap();
        assert_eq!(to_chrome_trace(&trace, &graph).unwrap(), "[]");
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn pinned_events() -> Vec<CompleteEvent<'static>> {
        vec![
            CompleteEvent {
                name: "fusion \"lidar\"\u{1}",
                cat: "task",
                ph: "X",
                ts: 1500.0,
                dur: 0.1 + 0.2,
                pid: 0,
                tid: 3,
                args: EventArgs {
                    job: 42,
                    met_deadline: Some(false),
                },
            },
            CompleteEvent {
                name: "",
                cat: "task",
                ph: "X",
                ts: -0.0,
                dur: f64::NAN,
                pid: u32::MAX,
                tid: 0,
                args: EventArgs {
                    job: u64::MAX,
                    met_deadline: None,
                },
            },
        ]
    }

    fn fifo_trace_json() -> String {
        let graph = apollo_graph(&GraphOptions::default()).unwrap();
        let mut sim = Sim::new(
            graph,
            SimConfig {
                trace_capacity: 100_000,
                ..Default::default()
            },
            FifoScheduler::new(),
        )
        .unwrap();
        sim.run_until(SimTime::from_millis(300.0));
        let graph = sim.graph().clone();
        to_chrome_trace(sim.trace(), &graph).unwrap()
    }

    /// The private event types render the bytes the `Value`-tree
    /// serializer produced, compact, pretty and on a real trace.
    #[test]
    fn event_bytes_are_pinned() {
        let events = pinned_events();
        assert_eq!(
            serde_json::to_string(&events).unwrap(),
            r#"[{"name":"fusion \"lidar\"\u0001","cat":"task","ph":"X","ts":1500,"dur":0.30000000000000004,"pid":0,"tid":3,"args":{"job":42,"met_deadline":false}},{"name":"","cat":"task","ph":"X","ts":0,"dur":null,"pid":4294967295,"tid":0,"args":{"job":18446744073709552000,"met_deadline":null}}]"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&events).unwrap(),
            r#"[
  {
    "name": "fusion \"lidar\"\u0001",
    "cat": "task",
    "ph": "X",
    "ts": 1500,
    "dur": 0.30000000000000004,
    "pid": 0,
    "tid": 3,
    "args": {
      "job": 42,
      "met_deadline": false
    }
  },
  {
    "name": "",
    "cat": "task",
    "ph": "X",
    "ts": 0,
    "dur": null,
    "pid": 4294967295,
    "tid": 0,
    "args": {
      "job": 18446744073709552000,
      "met_deadline": null
    }
  }
]"#
        );
        let json = fifo_trace_json();
        assert_eq!(
            (json.len(), fnv1a(json.as_bytes())),
            (8633, 0xcbebbedba4a49ee1)
        );
    }
}
