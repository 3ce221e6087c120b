//! Rule identifiers, findings, and the human / JSON renderers.

use std::fmt;

/// Version stamp carried by every `--json` report shape. Bump when a
/// consumer-visible key is added, removed, or retyped. Version 2 added
/// the `det_flow` section and structured `chain` arrays on findings.
pub const SCHEMA_VERSION: u32 = 2;

/// Process exit codes, one per failure class so CI logs are unambiguous.
pub mod exit {
    /// No findings, ratchet within baseline, every audit target feasible.
    pub const CLEAN: i32 = 0;
    /// Unwaived source-rule findings (including malformed waivers).
    pub const FINDINGS: i32 = 1;
    /// `unwrap()`/`expect()` count grew past the checked-in baseline.
    pub const RATCHET: i32 = 2;
    /// A task graph or scenario preset failed the schedulability audit.
    pub const SCHEDULABILITY: i32 = 3;
    /// Bad command line, unreadable workspace, or missing baseline.
    pub const USAGE: i32 = 4;

    /// `FINDINGS` when any finding is structural, `RATCHET` when a ratchet
    /// grew (its own growth findings do not count as structural), else
    /// `CLEAN`.
    #[must_use]
    pub fn code<'a>(findings: impl IntoIterator<Item = &'a super::Finding>, grew: bool) -> i32 {
        if findings.into_iter().any(|f| !f.rule.is_ratchet()) {
            FINDINGS
        } else if grew {
            RATCHET
        } else {
            CLEAN
        }
    }
}

/// What every analysis mode's report gives the driver.
pub trait ModeReport {
    /// Unwaived findings.
    fn findings(&self) -> &[Finding];
    /// Findings suppressed by a waiver, with their reasons.
    fn waived(&self) -> &[Finding] {
        &[]
    }
    /// True when the mode's ratchet grew past its checked-in artifact.
    fn grew(&self) -> bool {
        false
    }
    /// The mode's `--json` section.
    fn json(&self) -> String;
    /// Human text: findings, the mode's listing, ratchet rows, summary.
    fn human(&self) -> String;
    /// The ratchet artifact `--update-baseline` rewrites, if any.
    fn artifact(&self) -> Option<Artifact> {
        None
    }
}

/// A ratchet artifact regenerated from a report.
#[derive(Debug)]
pub struct Artifact {
    /// Workspace-relative path.
    pub path: &'static str,
    /// New file contents.
    pub text: String,
    /// Line printed after a single-mode rewrite.
    pub rewritten: String,
    /// This artifact's part of the `--update-baselines` summary.
    pub brief: String,
}

/// The rule families enforced by the source pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant` / `SystemTime` / `thread::sleep` outside `harness`/`bench`.
    WallClock,
    /// `HashMap` / `HashSet` in deterministic crates (iteration order is
    /// seeded per process; use `BTreeMap` or an indexed `Vec`).
    UnorderedIteration,
    /// `thread_rng` / `from_entropy` / `RandomState`: ambient entropy.
    Entropy,
    /// `==` / `!=` against float operands outside approx helpers.
    FloatEq,
    /// `unwrap()` / `expect()` in library code, ratcheted against a
    /// baseline that may only shrink.
    UnwrapRatchet,
    /// A `hcperf-lint:` comment that does not parse as a waiver.
    WaiverSyntax,
    /// An allocation construct (`vec!`, `Vec::new`, `collect`, …) in a
    /// function reachable from a declared hot-path root, ratcheted against
    /// `crates/lint/hotpath_baseline.txt`.
    HotPathAlloc,
    /// `unwrap`/`expect`/`panic!`/slice-indexing in the hot-path reachable
    /// set — a stricter, separate ratchet from the workspace-wide one.
    HotPathPanic,
    /// A paper equation (Eq. 2–12) missing an implementation or test tag,
    /// or an `Eq. N` tag naming an equation the paper does not define.
    EqCoverage,
    /// A loop in a hot-path-reachable function that the WCET pass cannot
    /// bound (bare `loop`, convergence `while`, …). Waiving asserts a
    /// bound the lexer cannot see; the loop then counts as input-bounded.
    WcetUnbounded,
    /// A blocking construct (file/socket I/O, `Mutex`/`RwLock`, channel
    /// `recv`, `thread::sleep`, `println!`) in hot-path-reachable code —
    /// unbounded *latency* rather than unbounded iteration.
    HotPathBlocking,
    /// A hot-path root's symbolic cost certificate grew past
    /// `crates/lint/wcet_certificates.txt` (higher polynomial degree, new
    /// log factor, or a new/unbounded root). Not waivable: regenerate the
    /// certificate file deliberately via `--update-baselines`.
    WcetCert,
    /// A nondeterminism source (unordered iteration, wall-clock value,
    /// channel arrival order, …) flows — possibly through several calls —
    /// into a declared `det-sink` whose certificate in
    /// `crates/lint/detflow_certificates.txt` says it is clean. Waivable at
    /// the *source* site with a reason; the finding anchors at the sink
    /// and carries the full call chain.
    DetFlow,
    /// A malformed `det-sink(…)` / `det-sanitizer(…)` declaration: the
    /// marker does not attach to a `fn` item, or two sinks share a name.
    DetSink,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 14] = [
        Rule::WallClock,
        Rule::UnorderedIteration,
        Rule::Entropy,
        Rule::FloatEq,
        Rule::UnwrapRatchet,
        Rule::WaiverSyntax,
        Rule::HotPathAlloc,
        Rule::HotPathPanic,
        Rule::EqCoverage,
        Rule::WcetUnbounded,
        Rule::HotPathBlocking,
        Rule::WcetCert,
        Rule::DetFlow,
        Rule::DetSink,
    ];

    /// The kebab-case name used in diagnostics and waiver comments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::Entropy => "entropy",
            Rule::FloatEq => "float-eq",
            Rule::UnwrapRatchet => "unwrap-ratchet",
            Rule::WaiverSyntax => "waiver-syntax",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::EqCoverage => "eq-coverage",
            Rule::WcetUnbounded => "wcet-unbounded",
            Rule::HotPathBlocking => "hot-path-blocking",
            Rule::WcetCert => "wcet-cert",
            Rule::DetFlow => "det-flow",
            Rule::DetSink => "det-sink",
        }
    }

    /// True for rules whose findings only report a ratchet's growth, so
    /// they map to [`exit::RATCHET`] rather than [`exit::FINDINGS`].
    #[must_use]
    pub fn is_ratchet(self) -> bool {
        matches!(
            self,
            Rule::UnwrapRatchet
                | Rule::HotPathAlloc
                | Rule::HotPathPanic
                | Rule::WcetCert
                | Rule::DetFlow
        )
    }

    /// Parses a waiver rule name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One hop of an interprocedural det-flow chain: where taint entered,
/// passed through a call, or reached the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Workspace-relative path of the hop.
    pub path: String,
    /// 1-based line number of the hop.
    pub line: usize,
    /// What happened at this hop (source pattern, call, sink).
    pub what: String,
}

/// One diagnostic: a rule fired at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Waiver reason when the site carries a matching
    /// `// hcperf-lint: allow(<rule>): <reason>` comment.
    pub waived: Option<String>,
    /// For det-flow findings: the source→…→sink call chain, one hop per
    /// entry with exact file/line. Empty for every other rule.
    pub chain: Vec<Hop>,
}

impl Finding {
    /// Renders the `file:line: [rule] message` human diagnostic.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        );
        if let Some(reason) = &self.waived {
            s.push_str(&format!("\n    waived: {reason}"));
        }
        for hop in &self.chain {
            s.push_str(&format!("\n    -> {}:{} {}", hop.path, hop.line, hop.what));
        }
        s
    }
}

/// Escapes a string for inclusion in a JSON document.
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a finding as a JSON object. Every finding — source rule,
/// hot-path, Eq. coverage, and (via [`tagged_finding_json`]) the
/// schedulability audit — carries the same `rule`/`severity`/`target`
/// keys, so downstream tooling parses one schema.
#[must_use]
pub fn finding_json(f: &Finding) -> String {
    let severity = if f.waived.is_some() {
        "waived"
    } else {
        "error"
    };
    let mut s = format!(
        "{{\"rule\":\"{}\",\"severity\":\"{severity}\",\"target\":\"{}\",\"path\":\"{}\",\"line\":{},\"snippet\":\"{}\",\"message\":\"{}\"",
        f.rule,
        json_escape(&f.path),
        json_escape(&f.path),
        f.line,
        json_escape(&f.snippet),
        json_escape(&f.message),
    );
    if let Some(reason) = &f.waived {
        s.push_str(&format!(",\"waived\":\"{}\"", json_escape(reason)));
    }
    if !f.chain.is_empty() {
        let hops: Vec<String> = f
            .chain
            .iter()
            .map(|h| {
                format!(
                    "{{\"path\":\"{}\",\"line\":{},\"what\":\"{}\"}}",
                    json_escape(&h.path),
                    h.line,
                    json_escape(&h.what),
                )
            })
            .collect();
        s.push_str(&format!(",\"chain\":[{}]", hops.join(",")));
    }
    s.push('}');
    s
}

/// Renders findings one per human diagnostic, each newline-terminated.
#[must_use]
pub fn render_findings(findings: &[Finding]) -> String {
    findings.iter().map(|f| f.render() + "\n").collect()
}

/// Serializes findings as the comma-joined body of a JSON array.
#[must_use]
pub fn findings_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(finding_json).collect();
    items.join(",")
}

/// Serializes a non-source finding (no file anchor) in the shared
/// `rule`/`severity`/`target` schema — used by the schedulability audit,
/// whose subjects are graphs and scenario presets rather than lines.
#[must_use]
pub fn tagged_finding_json(rule: &str, severity: &str, target: &str, message: &str) -> String {
    format!(
        "{{\"rule\":\"{}\",\"severity\":\"{}\",\"target\":\"{}\",\"message\":\"{}\"}}",
        json_escape(rule),
        json_escape(severity),
        json_escape(target),
        json_escape(message),
    )
}

/// Formats an `Option<f64>` as JSON (`null` when absent).
#[must_use]
pub fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "null".to_owned(),
    }
}

/// Renders unwaived findings as GitHub Actions workflow commands
/// (`::error file=…,line=…::…`) so lint hits surface inline on PRs.
/// Annotation property values must not contain `,`/`::` ambiguity, so the
/// message is percent-escaped per the workflow-command convention.
#[must_use]
pub fn render_annotations(findings: &[Finding]) -> String {
    let escape = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    };
    let mut out = String::new();
    for f in findings.iter().filter(|f| f.waived.is_none()) {
        let mut message = f.message.clone();
        if !f.chain.is_empty() {
            let rendered: Vec<String> = f
                .chain
                .iter()
                .map(|h| format!("{}:{} {}", h.path, h.line, h.what))
                .collect();
            message.push_str(&format!("; flow: {}", rendered.join(" -> ")));
        }
        out.push_str(&format!(
            "::error file={},line={},title=hcperf-lint {}::{}\n",
            f.path,
            f.line,
            f.rule,
            escape(&message)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::parse(rule.name()), Some(rule));
        }
        assert_eq!(Rule::parse("no-such-rule"), None);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
