//! Integration tests: fixture files for every rule, waiver handling, the
//! `--json` shape, ratchet growth/shrink, exit codes, and a clean run of
//! both modes against the real workspace.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use hcperf_lint::report::{exit, Rule};
use hcperf_lint::rules::{scan_file, FileScan, RuleSet};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scan_fixture(name: &str) -> FileScan {
    scan_file(name, &fixture(name), RuleSet::FULL)
}

fn rules_of(findings: &[hcperf_lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn clean_fixture_has_no_findings() {
    let s = scan_fixture("clean.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert!(s.waived.is_empty());
    assert_eq!(s.unwrap_count, 0);
}

#[test]
fn wall_clock_fixture_positive_and_waived() {
    let s = scan_fixture("wall_clock_hit.rs");
    let r = rules_of(&s.findings);
    assert!(r.len() >= 3, "Instant, thread::sleep, SystemTime: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::WallClock));

    let s = scan_fixture("wall_clock_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 2);
    assert!(s.waived.iter().all(|f| f.waived.is_some()));
}

#[test]
fn unordered_fixture_positive_and_waived() {
    let s = scan_fixture("unordered_hit.rs");
    let r = rules_of(&s.findings);
    assert!(r.len() >= 4, "imports + constructions: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::UnorderedIteration));

    let s = scan_fixture("unordered_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 1);
}

#[test]
fn entropy_fixture_positive_and_waived() {
    let s = scan_fixture("entropy_hit.rs");
    let r = rules_of(&s.findings);
    assert_eq!(r.len(), 3, "thread_rng, from_entropy, RandomState: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::Entropy));

    let s = scan_fixture("entropy_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 1);
}

#[test]
fn float_eq_fixture_positive_and_waived() {
    let s = scan_fixture("float_eq_hit.rs");
    let r = rules_of(&s.findings);
    assert_eq!(r.len(), 3, "literal ==, literal !=, accessor ==: {r:?}");
    assert!(r.iter().all(|&x| x == Rule::FloatEq));

    let s = scan_fixture("float_eq_waived.rs");
    assert!(s.findings.is_empty(), "{:?}", s.findings);
    assert_eq!(s.waived.len(), 1);
}

#[test]
fn unwrap_fixture_counts_library_code_only() {
    let s = scan_fixture("unwraps.rs");
    // Three countable sites; the waived one and the test-module one do not
    // count.
    assert_eq!(s.unwrap_count, 3);
    assert!(s.findings.is_empty(), "{:?}", s.findings);
}

#[test]
fn malformed_waiver_fixture_is_flagged() {
    let s = scan_fixture("waiver_malformed.rs");
    let r = rules_of(&s.findings);
    assert!(r.contains(&Rule::WaiverSyntax), "{r:?}");
    // The float-eq underneath is NOT suppressed by a malformed waiver.
    assert!(r.contains(&Rule::FloatEq), "{r:?}");
}

// ---------------------------------------------------------------------------
// Binary end-to-end: exit codes and --json shape on synthetic workspaces.
// ---------------------------------------------------------------------------

/// Builds a minimal workspace layout the binary can scan, returning its
/// root. `violations` maps workspace-relative paths to file contents.
fn mini_workspace(tag: &str, violations: &[(&str, &str)], baseline: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hcperf-lint-{}-{tag}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean stale fixture root");
    }
    for dir in [
        "crates/taskgraph/src",
        "crates/rtsim/src",
        "crates/control/src",
        "crates/vehicle/src",
        "crates/scenarios/src",
        "crates/core/src",
        "crates/faults/src",
        "crates/cli/src",
        "crates/lint/src",
        "crates/harness/src",
        "crates/store/src",
        "src",
    ] {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
        fs::write(root.join(dir).join("lib.rs"), "// empty\n").expect("seed lib.rs");
    }
    for (rel, text) in violations {
        fs::write(root.join(rel), text).expect("write violation file");
    }
    fs::write(root.join("crates/lint/unwrap_baseline.txt"), baseline).expect("write baseline");
    fs::write(
        root.join("crates/lint/hotpath_baseline.txt"),
        "# empty hot-path baseline\n",
    )
    .expect("write hot-path baseline");
    fs::write(
        root.join("crates/lint/wcet_certificates.txt"),
        "# empty WCET certificates\n",
    )
    .expect("write WCET certificates");
    fs::write(
        root.join("crates/lint/detflow_certificates.txt"),
        "# empty det-flow certificates\n",
    )
    .expect("write det-flow certificates");
    root
}

fn parse_json(out: &Output) -> serde_json::Value {
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    serde_json::from_str(&text).expect("binary emits valid JSON")
}

fn run_lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("spawn hcperf-lint")
}

#[test]
fn binary_clean_workspace_exits_zero() {
    let root = mini_workspace("clean", &[], "# empty baseline\n");
    let out = run_lint(&root, &[]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
}

#[test]
fn binary_findings_exit_one_with_json_shape() {
    let root = mini_workspace(
        "dirty",
        &[(
            "crates/rtsim/src/bad.rs",
            "use std::collections::HashMap;\npub fn t() { std::thread::sleep(d); }\n",
        )],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(exit::FINDINGS), "{out:?}");

    let doc = parse_json(&out);
    assert_eq!(doc["schema_version"].as_f64(), Some(2.0));
    assert_eq!(doc["mode"].as_str(), Some("lint"));
    assert_eq!(doc["exit_code"].as_f64(), Some(f64::from(exit::FINDINGS)));
    let findings = doc["findings"].as_array().expect("findings array");
    assert_eq!(findings.len(), 2);
    for f in findings {
        for key in ["rule", "path", "line", "snippet", "message"] {
            assert!(!f[key].is_null(), "finding missing {key}: {f:?}");
        }
    }
    let rules: Vec<&str> = findings.iter().filter_map(|f| f["rule"].as_str()).collect();
    assert!(rules.contains(&"unordered-iteration"), "{rules:?}");
    assert!(rules.contains(&"wall-clock"), "{rules:?}");
}

#[test]
fn binary_ratchet_growth_exits_two_and_shrink_passes() {
    let unwrapping = "pub fn f(a: Option<u32>) -> u32 { a.unwrap() }\n";
    // Baseline allows zero: one unwrap is growth.
    let root = mini_workspace(
        "ratchet-grow",
        &[("crates/core/src/bad.rs", unwrapping)],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(exit::RATCHET), "{out:?}");
    let doc = parse_json(&out);
    let growth = doc["ratchet"]["growth"].as_array().expect("growth array");
    assert_eq!(growth.len(), 1);
    assert_eq!(growth[0]["path"].as_str(), Some("crates/core/src/bad.rs"));
    assert_eq!(growth[0]["current"].as_f64(), Some(1.0));

    // Baseline allows five: one unwrap is shrink, which passes.
    let root = mini_workspace(
        "ratchet-shrink",
        &[("crates/core/src/bad.rs", unwrapping)],
        "5\tcrates/core/src/bad.rs\n",
    );
    let out = run_lint(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let doc = parse_json(&out);
    let shrink = doc["ratchet"]["shrink"].as_array().expect("shrink array");
    assert_eq!(shrink.len(), 1);
    assert_eq!(shrink[0]["baseline"].as_f64(), Some(5.0));
}

#[test]
fn binary_missing_baseline_is_usage_error() {
    let root = mini_workspace("no-baseline", &[], "");
    fs::remove_file(root.join("crates/lint/unwrap_baseline.txt")).expect("remove baseline");
    let out = run_lint(&root, &[]);
    assert_eq!(out.status.code(), Some(exit::USAGE), "{out:?}");
}

#[test]
fn binary_update_baseline_round_trips() {
    let root = mini_workspace(
        "update",
        &[(
            "crates/vehicle/src/two.rs",
            "pub fn f(a: Option<u32>) -> u32 { a.unwrap() + a.expect(\"x\") }\n",
        )],
        "# stale\n",
    );
    let out = run_lint(&root, &["--update-baseline"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let baseline =
        fs::read_to_string(root.join("crates/lint/unwrap_baseline.txt")).expect("baseline exists");
    assert!(
        baseline.contains("2\tcrates/vehicle/src/two.rs"),
        "{baseline}"
    );
    // And the freshly recorded state now passes.
    let out = run_lint(&root, &[]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
}

#[test]
fn binary_rejects_unknown_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
        .arg("--frobnicate")
        .output()
        .expect("spawn hcperf-lint");
    assert_eq!(out.status.code(), Some(exit::USAGE));
}

// ---------------------------------------------------------------------------
// Binary end-to-end: the call-graph-aware analysis modes.
// ---------------------------------------------------------------------------

#[test]
fn binary_hot_path_alloc_in_reachable_fn_fails_with_exact_line() {
    // The allocation is NOT in the root itself: it must be found through
    // the call-graph edge root_fn -> helper.
    let root = mini_workspace(
        "hotpath-alloc",
        &[(
            "crates/core/src/hot.rs",
            "// hcperf-lint: hot-path-root\n\
             pub fn root_fn(n: usize) -> usize {\n    helper(n)\n}\n\
             fn helper(n: usize) -> usize {\n    let v = vec![0u8; n];\n    v.len()\n}\n",
        )],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--hot-path", "--json"]);
    assert_eq!(out.status.code(), Some(exit::RATCHET), "{out:?}");

    let doc = parse_json(&out);
    assert_eq!(doc["mode"].as_str(), Some("hot-path"));
    let roots = doc["hot_path"]["roots"].as_array().expect("roots array");
    assert_eq!(roots.len(), 1, "{roots:?}");
    assert_eq!(roots[0].as_str(), Some("root_fn"));
    let findings = doc["findings"].as_array().expect("findings array");
    let alloc: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("hot-path-alloc"))
        .collect();
    assert_eq!(alloc.len(), 1, "{findings:?}");
    assert_eq!(alloc[0]["path"].as_str(), Some("crates/core/src/hot.rs"));
    assert_eq!(alloc[0]["line"].as_f64(), Some(6.0), "`vec![0u8; n]` line");
}

#[test]
fn binary_hot_path_alloc_outside_reachable_set_is_ignored() {
    // Same allocation, but no root marker anywhere: nothing is reachable,
    // so the site does not count and the run is clean.
    let root = mini_workspace(
        "hotpath-cold",
        &[(
            "crates/core/src/cold.rs",
            "pub fn cold(n: usize) -> usize {\n    let v = vec![0u8; n];\n    v.len()\n}\n",
        )],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--hot-path", "--json"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let doc = parse_json(&out);
    assert_eq!(doc["hot_path"]["reachable_fns"].as_f64(), Some(0.0));
}

#[test]
fn binary_untested_eq_tag_fails_eq_coverage_with_exact_line() {
    // Eq. 7 gets an impl site but no test anywhere in the mini workspace.
    let root = mini_workspace(
        "eqcov",
        &[(
            "crates/core/src/eq.rs",
            "// plain comment\n// Eq. 7: discrete quadrature lives here.\npub fn q() {}\n",
        )],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--eq-coverage", "--json"]);
    assert_eq!(out.status.code(), Some(exit::FINDINGS), "{out:?}");

    let doc = parse_json(&out);
    assert_eq!(doc["mode"].as_str(), Some("eq-coverage"));
    let findings = doc["findings"].as_array().expect("findings array");
    assert!(
        findings
            .iter()
            .all(|f| f["rule"].as_str() == Some("eq-coverage")),
        "{findings:?}"
    );
    // The Eq. 7 finding anchors at the tag's exact location; the other
    // required equations (no sites at all) are also reported.
    let eq7: Vec<_> = findings
        .iter()
        .filter(|f| f["path"].as_str() == Some("crates/core/src/eq.rs"))
        .collect();
    assert_eq!(eq7.len(), 1, "{findings:?}");
    assert_eq!(eq7[0]["line"].as_f64(), Some(2.0));
    let msg = eq7[0]["message"].as_str().expect("message");
    assert!(msg.contains("test"), "points at the missing test: {msg}");
    assert!(findings.len() > 1, "untagged required equations also fail");
}

// ---------------------------------------------------------------------------
// Binary end-to-end: WCET certificates and the baseline ratchet.
// ---------------------------------------------------------------------------

/// A hot-path root whose dominant construct is the inner loop of an
/// O(n^2) nest on line 5.
const QUADRATIC_KERNEL: &str = "// hcperf-lint: hot-path-root\n\
     pub fn kernel(xs: &[u64]) -> u64 {\n\
    \x20   let mut acc = 0;\n\
    \x20   for a in xs {\n\
    \x20       for b in xs {\n\
    \x20           acc = acc + a + b;\n\
    \x20       }\n\
    \x20   }\n\
    \x20   acc\n\
     }\n";

#[test]
fn binary_wcet_regression_trips_cert_ratchet_with_exact_line() {
    // The certificate on disk promises O(n); the code regressed to an
    // O(n^2) nest. The ratchet must fire and anchor the finding at the
    // inner loop that raised the degree.
    let root = mini_workspace(
        "wcet-regress",
        &[("crates/core/src/hot.rs", QUADRATIC_KERNEL)],
        "# empty baseline\n",
    );
    fs::write(
        root.join("crates/lint/wcet_certificates.txt"),
        "kernel\tO(n)\tcrates/core/src/hot.rs\n",
    )
    .expect("seed stale certificate");

    let out = run_lint(&root, &["--wcet", "--json"]);
    assert_eq!(out.status.code(), Some(exit::RATCHET), "{out:?}");
    let doc = parse_json(&out);
    assert_eq!(doc["mode"].as_str(), Some("wcet"));
    let findings = doc["findings"].as_array().expect("findings array");
    let cert: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("wcet-cert"))
        .collect();
    assert_eq!(cert.len(), 1, "{findings:?}");
    assert_eq!(cert[0]["path"].as_str(), Some("crates/core/src/hot.rs"));
    assert_eq!(cert[0]["line"].as_f64(), Some(5.0), "inner `for b` loop");
    let msg = cert[0]["message"].as_str().expect("message");
    assert!(msg.contains("O(n^2)") && msg.contains("O(n)"), "{msg}");
    let growth = doc["wcet"]["ratchet"]["growth"]
        .as_array()
        .expect("growth array");
    assert_eq!(growth.len(), 1, "{growth:?}");

    // The same findings surface as GitHub annotation lines.
    let out = run_lint(&root, &["--wcet", "--annotations"]);
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    assert!(
        text.contains("::error file=crates/core/src/hot.rs,line=5,title=hcperf-lint wcet-cert::"),
        "{text}"
    );
}

#[test]
fn binary_update_baselines_clears_dirty_certificates_in_one_run() {
    // Dirty baseline -> exit 2; one --update-baselines run rewrites all
    // three artifacts; the follow-up --wcet run is clean again.
    let root = mini_workspace(
        "wcet-refresh",
        &[("crates/core/src/hot.rs", QUADRATIC_KERNEL)],
        "# empty baseline\n",
    );
    fs::write(
        root.join("crates/lint/wcet_certificates.txt"),
        "kernel\tO(n)\tcrates/core/src/hot.rs\n",
    )
    .expect("seed stale certificate");
    let out = run_lint(&root, &["--wcet"]);
    assert_eq!(out.status.code(), Some(exit::RATCHET), "dirty run: {out:?}");

    let out = run_lint(&root, &["--update-baselines"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let certs = fs::read_to_string(root.join("crates/lint/wcet_certificates.txt"))
        .expect("rewritten certificates");
    assert!(
        certs.contains("kernel\tO(n^2)\tcrates/core/src/hot.rs"),
        "{certs}"
    );
    for rewritten in [
        "crates/lint/unwrap_baseline.txt",
        "crates/lint/hotpath_baseline.txt",
        "crates/lint/detflow_certificates.txt",
    ] {
        assert!(root.join(rewritten).exists(), "{rewritten} missing");
    }

    let out = run_lint(&root, &["--wcet", "--json"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let doc = parse_json(&out);
    let growth = doc["wcet"]["ratchet"]["growth"]
        .as_array()
        .expect("growth array");
    assert!(growth.is_empty(), "{growth:?}");
}

// ---------------------------------------------------------------------------
// Binary end-to-end: det-flow certificates and the taint-chain report.
// ---------------------------------------------------------------------------

/// A HashMap source two calls away from a declared det-sink: the taint
/// must travel gather -> shape -> emit and the finding must spell out
/// every hop with exact lines.
const TAINTED_FLOW: &str = "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m = HashMap::new();
    m.values().copied().collect()
}
fn shape() -> Vec<u32> {
    gather()
}
// hcperf-lint: det-sink(test-out): output bytes feed checked-in expectations
fn emit() {
    let v = shape();
    drop(v);
}
";

#[test]
fn binary_det_flow_taint_through_helper_trips_ratchet_with_chain() {
    let root = mini_workspace(
        "detflow-taint",
        &[("crates/core/src/flow.rs", TAINTED_FLOW)],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--det-flow", "--json"]);
    assert_eq!(out.status.code(), Some(exit::RATCHET), "{out:?}");

    let doc = parse_json(&out);
    assert_eq!(doc["schema_version"].as_f64(), Some(2.0));
    assert_eq!(doc["mode"].as_str(), Some("det-flow"));
    let sinks = doc["det_flow"]["sinks"].as_array().expect("sinks array");
    assert_eq!(sinks.len(), 1, "{sinks:?}");
    assert_eq!(sinks[0]["sink"].as_str(), Some("test-out"));
    assert_eq!(sinks[0]["status"].as_str(), Some("tainted:1"));
    let growth = doc["det_flow"]["ratchet"]["growth"]
        .as_array()
        .expect("growth array");
    assert_eq!(growth.len(), 1, "{growth:?}");

    // The finding anchors at the sink declaration and carries the full
    // interprocedural chain: source -> returned-through -> passed-into ->
    // sink, each hop with its exact line.
    let findings = doc["findings"].as_array().expect("findings array");
    let det: Vec<_> = findings
        .iter()
        .filter(|f| f["rule"].as_str() == Some("det-flow"))
        .collect();
    assert_eq!(det.len(), 1, "{findings:?}");
    assert_eq!(det[0]["path"].as_str(), Some("crates/core/src/flow.rs"));
    assert_eq!(det[0]["line"].as_f64(), Some(10.0), "sink `fn emit` line");
    let msg = det[0]["message"].as_str().expect("message");
    assert!(msg.contains("crates/core/src/flow.rs:3"), "{msg}");
    assert!(msg.contains("nothing (new sink)"), "{msg}");
    let chain = det[0]["chain"].as_array().expect("chain array");
    assert_eq!(chain.len(), 4, "{chain:?}");
    assert_eq!(chain[0]["line"].as_f64(), Some(3.0), "HashMap source");
    assert!(chain[0]["what"].as_str().expect("what").contains("HashMap"));
    assert_eq!(chain[1]["line"].as_f64(), Some(7.0), "gather() in shape");
    assert!(chain[1]["what"]
        .as_str()
        .expect("what")
        .contains("returned through `gather`"),);
    assert_eq!(chain[2]["line"].as_f64(), Some(11.0), "shape() in emit");
    assert_eq!(chain[3]["line"].as_f64(), Some(10.0), "sink declaration");
    assert!(chain[3]["what"]
        .as_str()
        .expect("what")
        .contains("det-sink(test-out)"),);

    // The annotation anchors ::error at the sink line and appends the
    // chain to the message so the hops survive into the CI log.
    let out = run_lint(&root, &["--det-flow", "--annotations"]);
    let text = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    assert!(
        text.contains("::error file=crates/core/src/flow.rs,line=10,title=hcperf-lint det-flow::"),
        "{text}"
    );
    assert!(text.contains("flow: crates/core/src/flow.rs:3"), "{text}");
}

#[test]
fn binary_det_flow_sanitized_workspace_is_clean_and_update_writes_certs() {
    // Same flow, but shape() rebuilds through a sort before the sink:
    // the sanitizer kills the taint and the sink certifies clean.
    let sanitized = TAINTED_FLOW.replace(
        "fn shape() -> Vec<u32> {\n    gather()\n}",
        "fn shape() -> Vec<u32> {\n    let mut v = gather();\n    v.sort_unstable();\n    v\n}",
    );
    let root = mini_workspace(
        "detflow-sanitized",
        &[("crates/core/src/flow.rs", &sanitized)],
        "# empty baseline\n",
    );
    let out = run_lint(&root, &["--det-flow", "--update-baseline"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let certs = fs::read_to_string(root.join("crates/lint/detflow_certificates.txt"))
        .expect("rewritten certificates");
    assert!(
        certs.contains("test-out\tclean\tcrates/core/src/flow.rs"),
        "{certs}"
    );
    let out = run_lint(&root, &["--det-flow", "--json"]);
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let doc = parse_json(&out);
    assert_eq!(
        doc["det_flow"]["sinks"][0]["status"].as_str(),
        Some("clean")
    );
    assert_eq!(doc["det_flow"]["flows"].as_f64(), Some(0.0));
}

#[test]
fn binary_update_baselines_rejects_other_modes() {
    let root = mini_workspace("baselines-usage", &[], "# empty baseline\n");
    let out = run_lint(&root, &["--update-baselines", "--wcet"]);
    assert_eq!(out.status.code(), Some(exit::USAGE), "{out:?}");
}

#[test]
fn binary_update_flags_reject_json_and_annotations_without_writing() {
    // An update run prints rewrite notes, never a JSON document, and
    // `--update-baselines` takes no output flags: each combination is a
    // usage error that leaves stdout and every artifact untouched.
    let root = mini_workspace("update-usage", &[], "# stale\n");
    for args in [
        &["--update-baseline", "--json"][..],
        &["--hot-path", "--update-baseline", "--json"],
        &["--wcet", "--det-flow", "--update-baseline", "--json"],
        &["--update-baselines", "--json"],
        &["--update-baselines", "--annotations"],
    ] {
        let out = run_lint(&root, args);
        assert_eq!(out.status.code(), Some(exit::USAGE), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
    let baseline = fs::read_to_string(root.join("crates/lint/unwrap_baseline.txt"))
        .expect("baseline still there");
    assert_eq!(baseline, "# stale\n");
}

// ---------------------------------------------------------------------------
// The real workspace: both modes must be clean (this is the CI gate).
// ---------------------------------------------------------------------------

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn real_workspace_source_lint_is_clean() {
    let out = run_lint(&real_root(), &["--json"]);
    let doc = parse_json(&out);
    assert_eq!(
        out.status.code(),
        Some(exit::CLEAN),
        "workspace must lint clean; findings: {:?}",
        doc["findings"]
    );
    // The four reviewed float sentinels stay waived, not silently dropped.
    let waived = doc["waived"].as_array().expect("waived array");
    assert!(waived.len() >= 4, "{waived:?}");
}

#[test]
fn real_workspace_schedulability_audit_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
        .args(["--schedulability", "--json"])
        .output()
        .expect("spawn hcperf-lint");
    assert_eq!(out.status.code(), Some(exit::CLEAN), "{out:?}");
    let doc = parse_json(&out);
    let targets = doc["targets"].as_array().expect("targets array");
    assert_eq!(targets.len(), 7, "two graphs + five scenario presets");
    for t in targets {
        assert_eq!(t["ok"].as_bool(), Some(true), "{t:?}");
        assert!(t["gamma_max"].as_f64().is_some(), "{t:?}");
    }
    // Schedulability findings share the source-finding shape: rule id,
    // severity, and the audited target as the finding's target key. On a
    // feasible workspace only informational transients may appear.
    let findings = doc["findings"].as_array().expect("findings array");
    let target_names: Vec<&str> = targets.iter().filter_map(|t| t["name"].as_str()).collect();
    for f in findings {
        assert_eq!(f["rule"].as_str(), Some("sched-eq9-transient"), "{f:?}");
        assert_eq!(f["severity"].as_str(), Some("info"), "{f:?}");
        let target = f["target"].as_str().expect("target key");
        assert!(target_names.contains(&target), "{f:?}");
    }
}

#[test]
fn real_workspace_wcet_gives_every_root_a_bounded_certificate() {
    let out = run_lint(&real_root(), &["--wcet", "--json"]);
    let doc = parse_json(&out);
    assert_eq!(
        out.status.code(),
        Some(exit::CLEAN),
        "WCET gate must be clean; findings: {:?}, ratchet: {:?}",
        doc["findings"],
        doc["wcet"]["ratchet"]
    );

    // Every declared hot-path root carries a bounded (non-saturated)
    // polynomial certificate matching crates/lint/wcet_certificates.txt.
    let certs = doc["wcet"]["certificates"]
        .as_array()
        .expect("certificates array");
    for expected in [
        "GammaScratch::rank",
        "GammaScratch::feasible",
        "DynamicPriorityScheduler::gamma_max_cached",
        "gamma_max",
        "FifoScheduler::select",
        "Sim::try_dispatch",
        "PerformanceDirectedController::step",
    ] {
        let row = certs
            .iter()
            .find(|c| c["root"].as_str() == Some(expected))
            .unwrap_or_else(|| panic!("no certificate for {expected}: {certs:?}"));
        let cost = row["cost"].as_str().expect("cost string");
        assert!(cost.starts_with("O("), "{expected} unbounded: {row:?}");
    }
    assert_eq!(certs.len(), 7, "exactly the declared roots: {certs:?}");
    assert_eq!(doc["wcet"]["loops"]["unbounded"].as_f64(), Some(0.0));
}

#[test]
fn real_workspace_hot_path_and_eq_coverage_are_clean() {
    let out = run_lint(&real_root(), &["--hot-path", "--eq-coverage", "--json"]);
    let doc = parse_json(&out);
    assert_eq!(
        out.status.code(),
        Some(exit::CLEAN),
        "analysis gate must be clean; findings: {:?}, ratchet: {:?}",
        doc["findings"],
        doc["hot_path"]["ratchet"]
    );
    assert_eq!(doc["mode"].as_str(), Some("hot-path+eq-coverage"));

    // The declared roots from ISSUE/ARCHITECTURE are all present.
    let roots: Vec<&str> = doc["hot_path"]["roots"]
        .as_array()
        .expect("roots array")
        .iter()
        .filter_map(|r| r.as_str())
        .collect();
    for expected in [
        "GammaScratch::rank",
        "GammaScratch::feasible",
        "DynamicPriorityScheduler::gamma_max_cached",
        "gamma_max",
        "FifoScheduler::select",
        "Sim::try_dispatch",
        "PerformanceDirectedController::step",
    ] {
        assert!(
            roots.contains(&expected),
            "missing root {expected}: {roots:?}"
        );
    }

    // Every required equation (Eq. 2-12) has at least one impl and one test.
    let eqs = doc["eq_coverage"]["equations"]
        .as_array()
        .expect("equations array");
    for eq in 2..=12u32 {
        let row = eqs
            .iter()
            .find(|e| e["eq"].as_f64() == Some(f64::from(eq)))
            .unwrap_or_else(|| panic!("Eq. {eq} absent from report"));
        assert_eq!(row["ok"].as_bool(), Some(true), "Eq. {eq}: {row:?}");
    }
}

#[test]
fn real_workspace_det_flow_certifies_every_sink_clean() {
    let out = run_lint(&real_root(), &["--det-flow", "--json"]);
    let doc = parse_json(&out);
    assert_eq!(
        out.status.code(),
        Some(exit::CLEAN),
        "det-flow gate must be clean; findings: {:?}, ratchet: {:?}",
        doc["findings"],
        doc["det_flow"]["ratchet"]
    );
    assert_eq!(doc["schema_version"].as_f64(), Some(2.0));

    // Every declared output sink is certified clean: no nondeterminism
    // source reaches result bytes, cache identities, or seed derivation.
    let sinks = doc["det_flow"]["sinks"].as_array().expect("sinks array");
    let names: Vec<&str> = sinks.iter().filter_map(|s| s["sink"].as_str()).collect();
    for expected in [
        "fleet-jsonl",
        "seed-derivation",
        "store-fingerprint",
        "store-cell-id",
        "store-append",
        "cli-stdout",
        "fig04-stdout",
        "fig13-stdout",
        "fig14-stdout",
        "fig15-stdout",
        "fig18-stdout",
    ] {
        assert!(
            names.contains(&expected),
            "missing sink {expected}: {names:?}"
        );
    }
    assert_eq!(sinks.len(), 11, "exactly the declared sinks: {names:?}");
    for s in sinks {
        assert_eq!(s["status"].as_str(), Some("clean"), "{s:?}");
    }

    // The reviewed waivers (wall_ms timing, env-selected worker count and
    // store path, membership-only HashSet) stay visible, not dropped.
    let waived = doc["waived"].as_array().expect("waived array");
    assert!(waived.len() >= 5, "{waived:?}");
    for w in waived {
        assert!(
            !w["waived"].is_null(),
            "waiver must carry its reason: {w:?}"
        );
    }
}
