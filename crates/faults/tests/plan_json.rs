//! Property tests of the `FaultPlan` JSON trust boundary. Random text built
//! from JSON tokens and the plan's own field names, and byte-level
//! mutations of the `chaos` and `traction-loss` presets' canonical JSON,
//! go through `FaultPlan::from_json`, `FaultPlan::resolve` (as a preset
//! name or path, and as a file holding the text) and, for every plan that
//! parses, `materialize` and a `to_json` round trip. Each call returns
//! `Ok` or `Err`; none panics.

use std::path::PathBuf;
use std::sync::OnceLock;

use hcperf_faults::FaultPlan;
use hcperf_taskgraph::graphs::{apollo_graph, GraphOptions};
use hcperf_taskgraph::TaskGraph;
use proptest::prelude::*;

/// Fragments random text is built from: JSON punctuation, literals and
/// numbers at the edges of `f64`, and the plan's keys and kind tags, so
/// the generator often builds text that parses as JSON and sometimes text
/// that has the plan's shape.
const FRAGMENTS: [&str; 44] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "null",
    "true",
    "false",
    "0",
    "1",
    "-1",
    "0.5",
    "1e308",
    "1e400",
    "-1e400",
    "4294967296",
    "18446744073709551616",
    "-0",
    "\"name\"",
    "\"faults\"",
    "\"kind\"",
    "\"task\"",
    "\"scale\"",
    "\"extra_ms\"",
    "\"processor\"",
    "\"requeue\"",
    "\"miss_ratio\"",
    "\"window\"",
    "\"probability\"",
    "\"duration\"",
    "\"exec-spike\"",
    "\"stuck-slow\"",
    "\"job-drop\"",
    "\"processor-fail\"",
    "\"sensor-dropout\"",
    "\"vehicle-crash\"",
    "\"sensor_fusion\"",
    "\"chaos\"",
    "γ",
    "\\u0000",
];

/// Bytes a mutation inserts or writes: JSON-significant ones, digits, an
/// exponent, a multi-byte lead and a NUL.
const BYTES: [u8; 16] = [
    b'{', b'}', b'[', b']', b'"', b':', b',', b'\\', b'-', b'.', b'e', b'0', b'9', b'n', 0xce, 0,
];

/// Numbers a mutation puts in place of one in the text: out of every
/// field's domain, past `f64` and `u64`, negative zero.
const NUMBERS: [&str; 10] = [
    "-1",
    "2",
    "1e400",
    "-1e400",
    "1e-400",
    "-0",
    "4294967296",
    "18446744073709551616",
    "0.5e",
    "1.5",
];

/// The graph every plan is materialized against (the presets' tasks).
fn graph() -> &'static TaskGraph {
    static GRAPH: OnceLock<TaskGraph> = OnceLock::new();
    GRAPH.get_or_init(|| apollo_graph(&GraphOptions::default()).expect("apollo graph builds"))
}

/// A file path private to this test process and `tag`.
fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hcperf-faults-plan-json-{}-{tag}.json",
        std::process::id()
    ))
}

/// Runs `text` through every entry point of the trust boundary.
fn check(text: &str, tag: &str) {
    let parsed = FaultPlan::from_json(text);
    let _ = FaultPlan::resolve(text);
    let path = scratch_file(tag);
    std::fs::write(&path, text).expect("write the plan file");
    let resolved = FaultPlan::resolve(&path.to_string_lossy());
    std::fs::remove_file(&path).expect("remove the plan file");
    // A file is read as it is written, so it resolves as the text parses.
    assert_eq!(resolved.is_ok(), parsed.is_ok(), "{text:?}");
    if let Ok(plan) = parsed {
        for vehicle in 0..3 {
            let _ = plan.materialize(graph(), vehicle, 0x5eed ^ vehicle as u64);
        }
        let _ = FaultPlan::from_json(&plan.to_json());
    }
}

/// One edit of `bytes` at position `at`: `op` picks a byte delete,
/// insert or overwrite, a truncation, a duplicated span, or (half the
/// time, so that many plans still parse) the first number from `at` on
/// replaced by one of [`NUMBERS`].
fn mutate(bytes: &mut Vec<u8>, op: u32, at: usize, byte: u8) {
    if bytes.is_empty() {
        bytes.push(byte);
        return;
    }
    let at = at % bytes.len();
    let numeric = |b: &u8| b.is_ascii_digit() || b".-eE".contains(b);
    if op.is_multiple_of(2) {
        let Some(start) = bytes[at..]
            .iter()
            .position(u8::is_ascii_digit)
            .map(|k| at + k)
        else {
            return;
        };
        let end = bytes[start..]
            .iter()
            .position(|b| !numeric(b))
            .map_or(bytes.len(), |k| start + k);
        let number = NUMBERS[usize::from(byte) % NUMBERS.len()].bytes();
        bytes.splice(start..end, number);
        return;
    }
    match (op / 2) % 5 {
        0 => {
            bytes.remove(at);
        }
        1 => bytes.insert(at, byte),
        2 => bytes[at] = byte,
        3 => bytes.truncate(at),
        _ => {
            let end = (at + 1 + usize::from(byte) % 16).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Text assembled from fragments, sometimes with an arbitrary `char`.
    #[test]
    fn random_text_never_panics(picks in proptest::collection::vec(any::<u32>(), 0..48)) {
        let text: String = picks
            .iter()
            .map(|&p| match p % 8 {
                0 => char::from_u32(p >> 3).map_or_else(String::new, String::from),
                _ => FRAGMENTS[(p >> 3) as usize % FRAGMENTS.len()].to_owned(),
            })
            .collect();
        check(&text, "random");
    }

    /// Up to four edits of a preset's canonical JSON, read back as text
    /// with invalid UTF-8 replaced.
    #[test]
    fn mutated_presets_never_panic(
        preset in any::<bool>(),
        edits in proptest::collection::vec((any::<u32>(), any::<usize>(), 0usize..BYTES.len()), 1..5),
    ) {
        let plan = if preset { FaultPlan::chaos() } else { FaultPlan::traction_loss() };
        let mut bytes = plan.to_json().into_bytes();
        for &(op, at, byte) in &edits {
            mutate(&mut bytes, op, at, BYTES[byte]);
        }
        check(&String::from_utf8_lossy(&bytes), "mutated");
    }
}

#[test]
fn presets_pass_every_entry_point() {
    for name in FaultPlan::preset_names() {
        let plan = FaultPlan::preset(name).expect("registered preset");
        check(&plan.to_json(), name);
        assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
    }
}

#[test]
fn numbers_past_f64_are_invalid_not_a_panic() {
    // `1e400` parses to infinity: as an execution spike's extra time it
    // once reached `SimSpan::from_millis`, and as a window end plus a
    // duration it overflowed the onset arithmetic, both of which panic.
    let spike = r#"{"name":"x","faults":[{"kind":"exec-spike","task":"sensor_fusion","scale":1,"extra_ms":1e400,"window":[0,1],"probability":1,"duration":1}]}"#;
    let overflow = r#"{"name":"x","faults":[{"kind":"processor-stall","processor":0,"window":[1e308,1.7e308],"probability":1,"duration":1e308}]}"#;
    for text in [spike, overflow] {
        let plan = FaultPlan::from_json(text).expect("the plan parses");
        assert!(
            matches!(
                plan.materialize(graph(), 0, 1),
                Err(hcperf_faults::FaultPlanError::Invalid(_))
            ),
            "{text}"
        );
    }
}
