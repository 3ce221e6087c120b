//! Paper-equation coverage: every `Eq. N` the reproduction claims to
//! implement must be tagged at ≥ 1 non-test implementation site *and*
//! exercised by ≥ 1 test.
//!
//! Tags are harvested from comments only (doc comments, line comments,
//! block comments — the lexer records their byte spans), so a
//! string literal mentioning an equation in a report renderer does not
//! count as coverage. A tag inside a `#[cfg(test)]` module or under a
//! `tests/` directory is a **test site**; everywhere else in a
//! deterministic crate's `src/` tree it is an **implementation site**.
//! Ranges (`Eq. 2–5`, hyphen or en dash) expand to every equation they
//! span; suffixed tags like `Eq. 1c` count toward the base number.
//!
//! The paper defines Eq. 1–14; the gate requires Eq. 2–12 (the ultra-local
//! model through the γ clamp — the equations the core control and
//! scheduling stack implements). Eq. 13 (TRA) and Eq. 14 (sensitivity)
//! are covered by scenario/analysis code and reported informally. A tag
//! naming an equation outside 1–14 is an orphan and fails the gate.

use std::collections::BTreeMap;
use std::io;

use crate::report::{render_findings, Finding, ModeReport, Rule};
use crate::source::{is_ident_byte, SourceFile};
use crate::workspace::{Workspace, TEST_ROOTS};

/// Equations the paper defines.
pub const KNOWN: std::ops::RangeInclusive<u32> = 1..=14;
/// Equations the coverage gate requires (implementation + test).
pub const REQUIRED: std::ops::RangeInclusive<u32> = 2..=12;

/// One harvested `Eq. N` tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqSite {
    /// Equation number.
    pub eq: u32,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the tag.
    pub line: usize,
    /// True when the tag sits in test code (a `tests/` file or a
    /// `#[cfg(test)]` module).
    pub is_test: bool,
}

/// Coverage of one equation.
#[derive(Debug, Default)]
pub struct EqCoverage {
    /// Non-test tag sites.
    pub impl_sites: Vec<EqSite>,
    /// Test tag sites.
    pub test_sites: Vec<EqSite>,
}

/// Result of the coverage analysis.
#[derive(Debug)]
pub struct EqCovReport {
    /// Coverage per tagged equation number.
    pub per_eq: BTreeMap<u32, EqCoverage>,
    /// Gate failures: required equations missing impl or test coverage,
    /// plus orphaned tags.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl ModeReport for EqCovReport {
    fn findings(&self) -> &[Finding] {
        &self.findings
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .per_eq
            .iter()
            .map(|(eq, cov)| {
                format!(
                    "{{\"eq\":{eq},\"impl_sites\":{},\"test_sites\":{},\"ok\":{}}}",
                    cov.impl_sites.len(),
                    cov.test_sites.len(),
                    cov.covered()
                )
            })
            .collect();
        format!(
            "{{\"files_scanned\":{},\"equations\":[{}]}}",
            self.files_scanned,
            rows.join(",")
        )
    }

    fn human(&self) -> String {
        format!(
            "{}hcperf-lint --eq-coverage: {}/{} tracked equations covered, {} files, {} findings\n",
            render_findings(&self.findings),
            self.per_eq.values().filter(|c| c.covered()).count(),
            self.per_eq.len(),
            self.files_scanned,
            self.findings.len(),
        )
    }
}

impl EqCoverage {
    /// True when the equation has both an implementation and a test tag.
    #[must_use]
    pub fn covered(&self) -> bool {
        !self.impl_sites.is_empty() && !self.test_sites.is_empty()
    }
}

/// Harvests every `Eq. N` tag (ranges expanded) from one file's comments.
#[must_use]
pub fn harvest(src: &SourceFile, file_is_test: bool) -> Vec<EqSite> {
    let bytes = src.raw.as_bytes();
    let mut sites = Vec::new();
    for &(start, end) in &src.comments {
        let span = &src.raw[start..end];
        let mut from = 0;
        while let Some(p) = span[from..].find("Eq.").map(|p| from + p) {
            from = p + 3;
            let at = start + p;
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue;
            }
            let Some((lo, after)) = parse_number(span, from) else {
                continue;
            };
            let mut upto = after;
            // Optional suffix letter (`Eq. 1c`) attaches to the base number.
            if span[upto..].starts_with(|c: char| c.is_ascii_lowercase()) {
                upto += 1;
            }
            let hi = parse_range_end(span, upto).unwrap_or(lo);
            from = upto;
            let line = src.line_of(at);
            let is_test = file_is_test || src.test_regions.iter().any(|&(a, b)| a <= at && at < b);
            if hi >= lo && hi - lo <= 13 {
                for eq in lo..=hi {
                    sites.push(EqSite {
                        eq,
                        path: src.rel.clone(),
                        line,
                        is_test,
                    });
                }
            }
        }
    }
    sites
}

/// Parses the digits after `Eq.` (skipping spaces); returns the number and
/// the offset just past it.
fn parse_number(span: &str, from: usize) -> Option<(u32, usize)> {
    let bytes = span.as_bytes();
    let mut i = from;
    while bytes.get(i) == Some(&b' ') {
        i += 1;
    }
    let start = i;
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    if i == start || i - start > 3 {
        return None;
    }
    span[start..i].parse().ok().map(|n| (n, i))
}

/// Parses an optional `–M` / `-M` range continuation at `from`.
fn parse_range_end(span: &str, from: usize) -> Option<u32> {
    let rest = &span[from..];
    let rest = rest.strip_prefix('–').or_else(|| rest.strip_prefix('-'))?;
    let offset = span.len() - rest.len();
    parse_number(span, offset).map(|(n, _)| n)
}

/// Runs the coverage analysis over the deterministic crates and their
/// `tests/` trees.
///
/// # Errors
///
/// Propagates I/O failures from walking the test trees.
pub fn run_eq_coverage(ws: &Workspace) -> io::Result<EqCovReport> {
    let impl_sources = ws.core();
    let test_sources = ws.files(&TEST_ROOTS, false)?;

    let mut per_eq: BTreeMap<u32, EqCoverage> = BTreeMap::new();
    let mut orphans: Vec<EqSite> = Vec::new();
    let files_scanned = impl_sources.len() + test_sources.len();
    for (src, file_is_test) in
        (impl_sources.iter().map(|s| (s, false))).chain(test_sources.iter().map(|s| (s, true)))
    {
        for site in harvest(src, file_is_test) {
            if !KNOWN.contains(&site.eq) {
                orphans.push(site);
                continue;
            }
            let cov = per_eq.entry(site.eq).or_default();
            if site.is_test {
                cov.test_sites.push(site);
            } else {
                cov.impl_sites.push(site);
            }
        }
    }

    let mut findings = Vec::new();
    for eq in REQUIRED {
        let cov = per_eq.entry(eq).or_default();
        match (cov.impl_sites.first(), cov.test_sites.first()) {
            (Some(_), Some(_)) => {}
            (Some(site), None) => findings.push(eq_finding(
                eq,
                Some(site),
                format!(
                    "Eq. {eq} is implemented ({} tagged site{}) but no test carries an `Eq. {eq}` tag; \
                     tag the test that exercises it",
                    cov.impl_sites.len(),
                    if cov.impl_sites.len() == 1 { "" } else { "s" },
                ),
            )),
            (None, Some(site)) => findings.push(eq_finding(
                eq,
                Some(site),
                format!(
                    "Eq. {eq} is tagged in tests only; tag the non-test implementation site \
                     (or the implementation is missing)"
                ),
            )),
            (None, None) => findings.push(eq_finding(
                eq,
                None,
                format!("Eq. {eq} has no `Eq. {eq}` tag anywhere: implementation coverage unknown"),
            )),
        }
    }
    for site in &orphans {
        findings.push(eq_finding(
            site.eq,
            Some(site),
            format!(
                "`Eq. {}` names an equation the paper does not define (Eq. 1–14); orphaned tag",
                site.eq
            ),
        ));
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    Ok(EqCovReport {
        per_eq,
        findings,
        files_scanned,
    })
}

fn eq_finding(eq: u32, site: Option<&EqSite>, message: String) -> Finding {
    Finding {
        rule: Rule::EqCoverage,
        path: site.map_or_else(|| format!("Eq. {eq}"), |s| s.path.clone()),
        line: site.map_or(0, |s| s.line),
        snippet: String::new(),
        message,
        waived: None,
        chain: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, raw: &str) -> SourceFile {
        SourceFile::new(rel, raw)
    }

    #[test]
    fn harvests_tags_ranges_and_suffixes() {
        let src = file(
            "a.rs",
            "\
//! Implements Eq. 9 and Eq. 10.
// Eq. 2–4 range, plus Eq. 1c suffix and Eq.12 without a space.
fn f() {}
",
        );
        let eqs: Vec<(u32, usize)> = harvest(&src, false)
            .iter()
            .map(|s| (s.eq, s.line))
            .collect();
        assert_eq!(
            eqs,
            vec![(9, 1), (10, 1), (2, 2), (3, 2), (4, 2), (1, 2), (12, 2)]
        );
    }

    #[test]
    fn strings_do_not_count_as_tags() {
        let src = file("a.rs", "fn f() { let s = \"Eq. 9 margin\"; } // Eq. 11\n");
        let eqs: Vec<u32> = harvest(&src, false).iter().map(|s| s.eq).collect();
        assert_eq!(eqs, vec![11]);
    }

    #[test]
    fn cfg_test_tags_classify_as_test_sites() {
        let src = file(
            "a.rs",
            "\
/// Eq. 6 quadrature.
fn f() {}
#[cfg(test)]
mod tests {
    /// Pins Eq. 6 against the closed form.
    fn t() {}
}
",
        );
        let sites = harvest(&src, false);
        assert_eq!(sites.len(), 2);
        assert!(!sites[0].is_test);
        assert!(sites[1].is_test, "{sites:?}");
    }

    #[test]
    fn hyphen_and_en_dash_ranges_both_expand() {
        for dash in ["-", "–"] {
            let src = file("a.rs", &format!("// Eq. 10{dash}12\nfn f() {{}}\n"));
            let eqs: Vec<u32> = harvest(&src, false).iter().map(|s| s.eq).collect();
            assert_eq!(eqs, vec![10, 11, 12], "dash {dash:?}");
        }
    }

    #[test]
    fn orphan_numbers_are_not_known() {
        let src = file("a.rs", "// Eq. 99 does not exist.\nfn f() {}\n");
        let sites = harvest(&src, false);
        assert_eq!(sites[0].eq, 99);
        assert!(!KNOWN.contains(&sites[0].eq));
    }
}
