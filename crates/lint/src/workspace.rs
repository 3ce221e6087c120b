//! Workspace loading and the source-lint mode.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::ratchet::{Key, Ratchet, UNWRAP};
use crate::report::{exit, findings_json, render_findings, Artifact, Finding, ModeReport};
use crate::rules::{scan, RuleSet};
use crate::source::SourceFile;

/// Crates whose simulation results must be bit-reproducible: every rule
/// family applies to their `src/` trees.
pub const DETERMINISTIC_CRATES: [&str; 7] = [
    "crates/taskgraph/src",
    "crates/rtsim/src",
    "crates/control/src",
    "crates/vehicle/src",
    "crates/scenarios/src",
    "crates/core/src",
    "crates/faults/src",
];

/// Crates that orchestrate runs but must not read wall clocks themselves.
/// (`crates/harness` and `crates/bench` legitimately time real execution
/// and are exempt by the rule's definition.)
pub const WALL_CLOCK_ONLY_ROOTS: [&str; 3] = ["crates/cli/src", "crates/lint/src", "src"];

/// Crates covered only by the unwrap/expect ratchet: the harness times
/// real execution (wall-clock exempt) yet its library code must stay
/// panic-free, because a panic in collection kills a whole fleet run.
/// The store joins it for the same reason — a panic while appending or
/// replaying the log would forfeit the crash-safety it exists to give.
pub const RATCHET_ONLY_ROOTS: [&str; 2] = ["crates/harness/src", "crates/store/src"];

/// Roots `--det-flow` scans *in addition to* [`DETERMINISTIC_CRATES`]: the
/// sinks live in the harness/store/cli/bench layers. These are optional so
/// fixture workspaces without every crate still analyze.
pub const DET_FLOW_ROOTS: [&str; 5] = [
    "crates/harness/src",
    "crates/store/src",
    "crates/cli/src",
    "crates/bench/src",
    "src",
];

/// Per-crate `tests/` trees and the umbrella integration tests, which
/// `--eq-coverage` scans as test sites alongside `#[cfg(test)]` modules
/// inside `src/`. Optional, like [`DET_FLOW_ROOTS`].
pub const TEST_ROOTS: [&str; 7] = [
    "crates/taskgraph/tests",
    "crates/rtsim/tests",
    "crates/control/tests",
    "crates/vehicle/tests",
    "crates/scenarios/tests",
    "crates/core/tests",
    "tests",
];

/// Workspace-relative path of the checked-in ratchet baseline.
pub const BASELINE_PATH: &str = "crates/lint/unwrap_baseline.txt";

/// The workspace as loaded once per invocation. Each source root is read
/// and lexed at most once, on first request, however many modes and root
/// sets name it; each file's parse is cached on its [`SourceFile`], and
/// the hot-path call graph `--hot-path` and `--wcet` share is built on
/// first use.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Per source root: its files in sorted order, `None` when the
    /// directory does not exist.
    trees: BTreeMap<&'static str, OnceCell<Option<Vec<SourceFile>>>>,
    hot_graph: OnceCell<CallGraph>,
}

impl Workspace {
    /// Opens the workspace under `root` and loads the deterministic
    /// crates, which every mode reads.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a missing crate source tree is an error.
    pub fn load(root: &Path) -> io::Result<Self> {
        let sets = [
            &DETERMINISTIC_CRATES[..],
            &WALL_CLOCK_ONLY_ROOTS,
            &RATCHET_ONLY_ROOTS,
            &DET_FLOW_ROOTS,
            &TEST_ROOTS,
        ];
        let ws = Workspace {
            root: root.to_path_buf(),
            trees: sets
                .concat()
                .into_iter()
                .map(|r| (r, OnceCell::new()))
                .collect(),
            hot_graph: OnceCell::new(),
        };
        ws.files(&DETERMINISTIC_CRATES, true)?;
        Ok(ws)
    }

    /// Every file under the given roots, root by root, each root's files
    /// in sorted order. Roots not loaded yet are read and lexed now, in
    /// one parallel batch. When `required`, every root must exist;
    /// otherwise absent roots are skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a missing required root is an error.
    pub fn files(&self, roots: &[&'static str], required: bool) -> io::Result<Vec<&SourceFile>> {
        let cell = |r: &str| &self.trees[r];
        let missing: Vec<&str> = (roots.iter().copied())
            .filter(|r| cell(r).get().is_none())
            .collect();
        for (r, tree) in missing.iter().zip(load_sources(&self.root, &missing)?) {
            let _ = cell(r).set(tree);
        }
        let mut out = Vec::new();
        for r in roots {
            match cell(r).get().and_then(Option::as_ref) {
                Some(tree) => out.extend(tree),
                None if required => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("expected source tree at {}", self.root.join(r).display()),
                    ));
                }
                None => {}
            }
        }
        Ok(out)
    }

    /// The sources under [`DETERMINISTIC_CRATES`], in load order.
    #[must_use]
    pub fn core(&self) -> Vec<&SourceFile> {
        self.files(&DETERMINISTIC_CRATES, true).unwrap_or_default()
    }

    /// The call graph over [`Workspace::core`] with `hot-path-root`
    /// markers attached.
    pub fn hot_graph(&self) -> &CallGraph {
        self.hot_graph.get_or_init(|| CallGraph::of(&self.core()))
    }
}

/// Reads every `.rs` file under each workspace-relative root (`None` for
/// an absent root) and lexes them all in one parallel batch, each root's
/// files in sorted order.
///
/// # Errors
///
/// Propagates I/O failures.
fn load_sources(root: &Path, rel_roots: &[&str]) -> io::Result<Vec<Option<Vec<SourceFile>>>> {
    let mut files = Vec::new();
    let mut counts = Vec::new();
    for rel_root in rel_roots {
        let dir = root.join(rel_root);
        if !dir.is_dir() {
            counts.push(None);
            continue;
        }
        let paths = rust_files(&dir)?;
        counts.push(Some(paths.len()));
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, fs::read_to_string(&path)?));
        }
    }
    // Lexing is the expensive per-file step; fan it out. `par::map`
    // reassembles by index, so the (sorted) load order is preserved.
    let mut lexed = crate::par::map(&files, |(rel, raw)| SourceFile::new(rel, raw)).into_iter();
    Ok(counts
        .into_iter()
        .map(|n| n.map(|n| lexed.by_ref().take(n).collect()))
        .collect())
}

/// Recursively collects `.rs` files under `dir`, sorted for reproducible
/// report order.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Aggregated result of the source pass over the whole workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Unwaived findings (fail the run).
    pub findings: Vec<Finding>,
    /// Waived findings with their reasons (informational).
    pub waived: Vec<Finding>,
    /// Ratchet comparison; `None` when running with `--update-baseline`.
    pub ratchet: Option<Ratchet<usize>>,
    /// Measured unwrap counts per `[path]`, in path order.
    pub unwrap_counts: Vec<(Key, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl ModeReport for LintReport {
    fn findings(&self) -> &[Finding] {
        &self.findings
    }

    fn waived(&self) -> &[Finding] {
        &self.waived
    }

    fn grew(&self) -> bool {
        self.ratchet.as_ref().is_some_and(Ratchet::grew)
    }

    fn json(&self) -> String {
        format!(
            "\"files_scanned\":{},\"findings\":[{}],\"waived\":[{}],\"ratchet\":{}",
            self.files_scanned,
            findings_json(&self.findings),
            findings_json(&self.waived),
            self.ratchet
                .as_ref()
                .map_or_else(|| "null".to_owned(), Ratchet::json),
        )
    }

    fn human(&self) -> String {
        let (current, baseline) = self
            .ratchet
            .as_ref()
            .and_then(|r| r.totals)
            .unwrap_or((0, 0));
        format!(
            "{}{}hcperf-lint: {} files, {} findings, {} waived, unwrap ratchet {current}/{baseline}{}\n",
            render_findings(&self.findings),
            self.ratchet.as_ref().map_or_else(String::new, Ratchet::human),
            self.files_scanned,
            self.findings.len(),
            self.waived.len(),
            match exit::code(&self.findings, self.grew()) {
                exit::CLEAN => " — clean",
                exit::RATCHET => " — RATCHET GROWTH",
                _ => " — FAILED",
            }
        )
    }

    fn artifact(&self) -> Option<Artifact> {
        let sites: usize = self.unwrap_counts.iter().map(|(_, c)| c).sum();
        let files = self.unwrap_counts.iter().filter(|(_, c)| *c > 0).count();
        Some(Artifact {
            path: BASELINE_PATH,
            text: UNWRAP.render(&self.unwrap_counts),
            rewritten: format!(
                "hcperf-lint: baseline rewritten ({sites} unwrap/expect sites across {files} files)"
            ),
            brief: format!("{sites} unwrap/expect sites"),
        })
    }
}

/// Runs the source pass: every rule family over the deterministic crates,
/// wall-clock only over the orchestration crates, the unwrap ratchet only
/// over the harness and store.
///
/// When `against_baseline` is true the unwrap counts are compared against
/// [`BASELINE_PATH`]; a missing or malformed baseline is an error so CI
/// cannot silently skip the ratchet.
///
/// # Errors
///
/// Propagates I/O failures and baseline-format problems.
pub fn run_source_lint(ws: &Workspace, against_baseline: bool) -> io::Result<LintReport> {
    let core = ws.core();
    let wall_clock = ws.files(&WALL_CLOCK_ONLY_ROOTS, true)?;
    let ratchet_only = ws.files(&RATCHET_ONLY_ROOTS, true)?;
    let mut report = LintReport {
        findings: Vec::new(),
        waived: Vec::new(),
        ratchet: None,
        unwrap_counts: Vec::new(),
        files_scanned: 0,
    };
    let mut counts = BTreeMap::new();
    for (files, rules) in [
        (&core, RuleSet::FULL),
        (&wall_clock, RuleSet::WALL_CLOCK_ONLY),
        (&ratchet_only, RuleSet::RATCHET_ONLY),
    ] {
        for src in files {
            let scan = scan(src, rules);
            report.files_scanned += 1;
            report.findings.extend(scan.findings);
            report.waived.extend(scan.waived);
            if rules.unwrap_ratchet {
                counts.insert(vec![src.rel.clone()], scan.unwrap_count);
            }
        }
    }
    report.unwrap_counts = counts.into_iter().collect();
    if against_baseline {
        let baseline = UNWRAP.load(&ws.root)?;
        report.ratchet = Some(UNWRAP.compare(&report.unwrap_counts, &baseline));
    }
    Ok(report)
}
