//! Workspace loading and the source-lint mode.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::parse::parse_file;
use crate::ratchet::{Key, Ratchet, UNWRAP};
use crate::report::{exit, findings_json, render_findings, Artifact, Finding, ModeReport, Rule};
use crate::rules::{scan, RuleSet};

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

/// Workspace-relative path of the checked-in ratchet baseline.
pub const BASELINE_PATH: &str = "crates/lint/unwrap_baseline.txt";

/// One loaded source file: raw text plus its masking products.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw file contents.
    pub raw: String,
    /// Masked text, waivers, root markers, comment spans, test regions.
    pub masked: crate::source::MaskedFile,
}

impl SourceFile {
    /// Masks `raw` as the file at workspace-relative `rel`.
    #[must_use]
    pub fn new(rel: &str, raw: &str) -> Self {
        SourceFile {
            rel: rel.to_owned(),
            raw: raw.to_owned(),
            masked: crate::source::mask(raw),
        }
    }

    /// The trimmed raw text of 1-based `line` (empty past the end).
    #[must_use]
    pub fn snippet(&self, line: usize) -> String {
        self.raw
            .lines()
            .nth(line - 1)
            .map_or("", str::trim)
            .to_owned()
    }

    /// An unwaived finding anchored at `line` of this file.
    #[must_use]
    pub fn finding(&self, rule: Rule, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel.clone(),
            line,
            snippet: self.snippet(line),
            message,
            waived: None,
            chain: Vec::new(),
        }
    }
}

/// The workspace as loaded once per invocation: the deterministic crates
/// every mode reads, and the hot-path call graph `--hot-path` and
/// `--wcet` share, built on first use.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root.
    pub root: PathBuf,
    /// Sources under [`DETERMINISTIC_CRATES`], in load order.
    pub core: Vec<SourceFile>,
    hot_graph: OnceCell<CallGraph>,
}

impl Workspace {
    /// Loads and masks the deterministic crates under `root`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a missing crate source tree is an error.
    pub fn load(root: &Path) -> io::Result<Self> {
        Ok(Workspace {
            root: root.to_path_buf(),
            core: load_sources(root, &DETERMINISTIC_CRATES, true)?,
            hot_graph: OnceCell::new(),
        })
    }

    /// The call graph over [`Workspace::core`] with `hot-path-root`
    /// markers attached.
    pub fn hot_graph(&self) -> &CallGraph {
        self.hot_graph.get_or_init(|| hot_graph(&self.core))
    }
}

/// Builds the hot-path call graph over `sources`.
#[must_use]
pub(crate) fn hot_graph(sources: &[SourceFile]) -> CallGraph {
    CallGraph::build(&crate::par::map(sources, |s| parse_file(&s.rel, &s.masked)))
}

/// Loads and masks every `.rs` file under the given workspace-relative
/// roots, in sorted order per root. When `required`, every root must
/// exist; otherwise (per-crate `tests/` dirs) absent roots are skipped.
///
/// # Errors
///
/// Propagates I/O failures; a missing required root is an error.
pub fn load_sources(
    root: &Path,
    rel_roots: &[&str],
    required: bool,
) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for rel_root in rel_roots {
        let dir = root.join(rel_root);
        if !dir.is_dir() {
            if required {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("expected source tree at {}", dir.display()),
                ));
            }
            continue;
        }
        for path in rust_files(&dir)? {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    // Masking is the expensive per-file step; fan it out. `par::map`
    // reassembles by index, so the (sorted) load order is preserved.
    Ok(crate::par::map(&out, |(rel, raw)| {
        SourceFile::new(rel, raw)
    }))
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
    let wall_clock = load_sources(&ws.root, &WALL_CLOCK_ONLY_ROOTS, true)?;
    let ratchet_only = load_sources(&ws.root, &RATCHET_ONLY_ROOTS, true)?;
    let mut report = LintReport {
        findings: Vec::new(),
        waived: Vec::new(),
        ratchet: None,
        unwrap_counts: Vec::new(),
        files_scanned: 0,
    };
    let mut counts = BTreeMap::new();
    for (files, rules) in [
        (&ws.core, RuleSet::FULL),
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
