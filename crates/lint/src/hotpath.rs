//! Hot-path purity and panic-surface analysis.
//!
//! HCPerf's dispatch/γ-search path must stay allocation-free (PR 1 made it
//! so by hand) and keep a minimal panic surface. This pass enforces both
//! *structurally*: functions tagged `// hcperf-lint: hot-path-root` seed a
//! reachability query over the [`crate::callgraph`] call graph, and every
//! function in the reachable set is scanned for
//!
//! * **[`Rule::HotPathAlloc`]** — allocation constructs: `vec!`,
//!   `Vec::new`, `Box::new`, `to_vec`, `collect`, `format!`,
//!   `String::from`, `.clone()`;
//! * **[`Rule::HotPathPanic`]** — `unwrap`/`expect`/`panic!`-family macros
//!   and slice indexing (`x[i]`), each a potential panic.
//!
//! Both rules ratchet against [`BASELINE_PATH`], a `rule<TAB>count<TAB>path`
//! file that may only shrink — exactly like the unwrap ratchet, but
//! per-rule. The call graph over-approximates (see `callgraph` docs), so
//! the baseline also absorbs same-named functions that are not truly on a
//! hot path; individual sites can be excused with the ordinary
//! `// hcperf-lint: allow(hot-path-alloc): <reason>` waiver syntax.

use std::collections::BTreeMap;
use std::io;
use std::sync::LazyLock;

use crate::ratchet::{Key, Ratchet, HOT_PATH};
use crate::report::{json_escape, render_findings, Artifact, Finding, ModeReport, Rule};
use crate::source::{waiver_for, Pattern, SourceFile, TokKind};
use crate::workspace::Workspace;

/// Workspace-relative path of the hot-path ratchet baseline.
pub const BASELINE_PATH: &str = "crates/lint/hotpath_baseline.txt";

const ALLOC_PATTERNS: [&str; 8] = [
    "vec!",
    "Vec::new",
    "Box::new",
    "to_vec",
    "collect",
    "format!",
    "String::from",
    ".clone(",
];

const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Result of the hot-path analysis.
#[derive(Debug)]
pub struct HotPathReport {
    /// Qualified names of the declared roots, in graph order.
    pub roots: Vec<String>,
    /// Qualified names of every reachable function, in graph order.
    pub reachable: Vec<String>,
    /// Violation sites in grown `(rule, path)` rows, with exact lines.
    pub findings: Vec<Finding>,
    /// Sites suppressed by `allow(hot-path-…)` waivers.
    pub waived: Vec<Finding>,
    /// Unwaived site counts per `[rule, path]`, in key order.
    pub counts: Vec<(Key, usize)>,
    /// Ratchet comparison; `None` when regenerating the baseline.
    pub ratchet: Option<Ratchet<usize>>,
    /// Number of `.rs` files parsed into the call graph.
    pub files_scanned: usize,
}

impl ModeReport for HotPathReport {
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
        let roots: Vec<String> = self
            .roots
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect();
        format!(
            "{{\"roots\":[{}],\"reachable_fns\":{},\"files_scanned\":{},\"ratchet\":{}}}",
            roots.join(","),
            self.reachable.len(),
            self.files_scanned,
            self.ratchet
                .as_ref()
                .map_or_else(|| "null".to_owned(), Ratchet::json)
        )
    }

    fn human(&self) -> String {
        format!(
            "{}{}hcperf-lint --hot-path: {} roots, {} reachable fns, {} files, {} findings, {} waived\n",
            render_findings(&self.findings),
            self.ratchet.as_ref().map_or_else(String::new, Ratchet::human),
            self.roots.len(),
            self.reachable.len(),
            self.files_scanned,
            self.findings.len(),
            self.waived.len(),
        )
    }

    fn artifact(&self) -> Option<Artifact> {
        let sites: usize = self.counts.iter().map(|(_, c)| c).sum();
        Some(Artifact {
            path: BASELINE_PATH,
            text: HOT_PATH.render(&self.counts),
            rewritten: format!(
                "hcperf-lint: hot-path baseline rewritten ({sites} sites across {} (rule, file) rows; \
                 {} fns reachable from {} roots)",
                self.counts.iter().filter(|(_, c)| *c > 0).count(),
                self.reachable.len(),
                self.roots.len(),
            ),
            brief: format!("{sites} hot-path sites"),
        })
    }
}

/// One violation site before waiver/baseline classification.
struct Site {
    rule: Rule,
    line: usize,
    construct: String,
    fn_name: String,
}

/// The alloc and panic tables, lexed once.
static PATTERNS: LazyLock<[(Rule, Vec<Pattern>); 2]> = LazyLock::new(|| {
    [
        (Rule::HotPathAlloc, Pattern::all(&ALLOC_PATTERNS)),
        (Rule::HotPathPanic, Pattern::all(&PANIC_PATTERNS)),
    ]
});

/// Scans one function body (a byte range of `src`) for violation sites.
fn scan_body(src: &SourceFile, body: (usize, usize), fn_name: &str) -> Vec<Site> {
    let mut sites = Vec::new();
    let mut site = |rule, at, construct: &str| {
        sites.push(Site {
            rule,
            line: src.line_of(at),
            construct: construct.to_owned(),
            fn_name: fn_name.to_owned(),
        });
    };
    for (rule, pats) in PATTERNS.iter() {
        for pat in pats {
            for at in src.find(pat, body) {
                site(*rule, at, pat.text.trim_end_matches('('));
            }
        }
    }
    // Slice indexing: `[` right after a token that ends an expression
    // (identifier, number, lifetime, `)`, or `]`). `#[attr]`, `vec![…]`,
    // `&[T]` types and array literals all fail that test.
    let toks = &src.tokens;
    for k in src.token_range(body).filter(|&k| k > 0) {
        let ends_expr = matches!(
            toks[k - 1].kind,
            TokKind::Ident | TokKind::Num | TokKind::Lifetime | TokKind::Punct(b')' | b']')
        );
        if toks[k].kind == TokKind::Punct(b'[') && ends_expr {
            site(Rule::HotPathPanic, toks[k].start, "slice-indexing");
        }
    }
    sites
}

/// Runs the hot-path analysis over the workspace's shared call graph.
///
/// When `against_baseline` is true, per-`(rule, path)` counts are compared
/// to [`BASELINE_PATH`] and growth produces findings with exact lines; a
/// missing baseline is an error so CI cannot silently skip the gate.
///
/// # Errors
///
/// Propagates baseline read and format problems.
pub fn run_hot_path(ws: &Workspace, against_baseline: bool) -> io::Result<HotPathReport> {
    let graph = ws.hot_graph();
    let reachable_idx = graph.reachable_from_roots();
    let core = ws.core();
    let by_rel: BTreeMap<&str, &SourceFile> = core.iter().map(|s| (s.rel.as_str(), *s)).collect();

    let mut counts: BTreeMap<Key, usize> = BTreeMap::new();
    let mut all_sites: Vec<(&SourceFile, Site)> = Vec::new();
    let mut waived = Vec::new();
    for &idx in &reachable_idx {
        let node = &graph.nodes[idx];
        let Some(body) = node.body else { continue };
        let src = by_rel[node.path.as_str()];
        for site in scan_body(src, body, &node.qualified()) {
            match waiver_for(&src.waivers, site.rule, site.line) {
                Some(reason) => waived.push(site_finding(&site, src, Some(reason))),
                None => {
                    *counts
                        .entry(vec![site.rule.name().to_owned(), node.path.clone()])
                        .or_insert(0) += 1;
                    all_sites.push((src, site));
                }
            }
        }
    }
    let counts: Vec<(Key, usize)> = counts.into_iter().collect();

    let mut findings = Vec::new();
    let mut ratchet = None;
    if against_baseline {
        let cmp = HOT_PATH.compare(&counts, &HOT_PATH.load(&ws.root)?);
        // Every unwaived site in a grown row becomes a finding: the exact
        // lines point the author at the sites, new and baselined alike.
        for g in &cmp.growth {
            for (src, site) in &all_sites {
                if g.key == [site.rule.name(), src.rel.as_str()] {
                    findings.push(site_finding(site, src, None));
                }
            }
        }
        findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        ratchet = Some(cmp);
    }

    let names = |idx: &[usize]| idx.iter().map(|&i| graph.nodes[i].qualified()).collect();
    Ok(HotPathReport {
        roots: names(&graph.roots()),
        reachable: names(&reachable_idx),
        findings,
        waived,
        counts,
        ratchet,
        files_scanned: core.len(),
    })
}

fn site_finding(site: &Site, src: &SourceFile, waived: Option<String>) -> Finding {
    let what = match site.rule {
        Rule::HotPathAlloc => "allocates",
        _ => "can panic",
    };
    Finding {
        waived,
        ..src.finding(
            site.rule,
            site.line,
            format!(
                "`{}` {} in hot-path-reachable fn `{}`; hot paths must stay pure — \
                 restructure, or waive with `hcperf-lint: allow({})` and a reason",
                site.construct,
                what,
                site.fn_name,
                site.rule.name(),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(src: &str) -> Vec<(Rule, usize, String)> {
        let f = SourceFile::new("t.rs", src);
        let mut out = Vec::new();
        for item in &f.parsed().fns {
            if let Some(body) = item.body {
                for s in scan_body(&f, body, &item.name) {
                    out.push((s.rule, s.line, s.construct));
                }
            }
        }
        out
    }

    #[test]
    fn alloc_patterns_fire_with_exact_lines() {
        let src = "\
fn f() {
    let v = vec![1, 2];
    let b = Vec::new();
    let c = xs.iter().collect::<Vec<_>>();
    let d = buf.to_vec();
}
";
        let got = sites(src);
        let mut allocs: Vec<(usize, &str)> = got
            .iter()
            .filter(|(r, _, _)| *r == Rule::HotPathAlloc)
            .map(|(_, l, c)| (*l, c.as_str()))
            .collect();
        allocs.sort_unstable();
        assert_eq!(
            allocs,
            vec![(2, "vec!"), (3, "Vec::new"), (4, "collect"), (5, "to_vec")]
        );
    }

    #[test]
    fn panic_patterns_and_slice_indexing_fire() {
        let src = "\
fn f(xs: &[u32], i: usize) -> u32 {
    let a = xs[i];
    let b = opt.unwrap();
    panic!(\"boom\");
}
";
        let got = sites(src);
        let panics: Vec<(usize, &str)> = got
            .iter()
            .filter(|(r, _, _)| *r == Rule::HotPathPanic)
            .map(|(_, l, c)| (*l, c.as_str()))
            .collect();
        assert!(panics.contains(&(2, "slice-indexing")), "{panics:?}");
        assert!(panics.contains(&(3, ".unwrap()")), "{panics:?}");
        assert!(panics.contains(&(4, "panic!")), "{panics:?}");
    }

    #[test]
    fn attributes_types_and_macros_are_not_slice_indexing() {
        let src = "\
fn f(xs: &[u32]) -> [u8; 4] {
    #[allow(unused)]
    let v = vec![0u8; 4];
    let arr: [u8; 4] = [0; 4];
    arr
}
";
        let got = sites(src);
        let indexing = got.iter().filter(|(_, _, c)| c == "slice-indexing").count();
        assert_eq!(indexing, 0, "{got:?}");
    }

    #[test]
    fn collect_respects_word_boundaries() {
        let got = sites("fn f() { recollect(); let collected = 1; }");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn ruled_baseline_round_trips_and_compares() {
        use crate::ratchet::tests::{key, round_trip, rows};
        let counts = rows(&[
            (&["hot-path-alloc", "a.rs"], 3),
            (&["hot-path-panic", "a.rs"], 1),
        ]);
        let parsed = round_trip(&HOT_PATH, &counts);

        let mut grown = counts.clone();
        grown[0].1 = 4;
        let cmp = HOT_PATH.compare(&grown, &parsed);
        assert!(cmp.grew());
        assert_eq!(cmp.growth.len(), 1);
        assert_eq!(cmp.growth[0].current, Some(4));

        let cmp = HOT_PATH.compare(&counts[..1], &parsed);
        assert!(!cmp.grew());
        assert_eq!(cmp.shrink.len(), 1);
        assert_eq!(cmp.shrink[0].key, key(&["hot-path-panic", "a.rs"]));
    }

    #[test]
    fn rejects_malformed_baseline() {
        crate::ratchet::tests::rejects(
            &HOT_PATH,
            &["nonsense", "hot-path-alloc\tx\ta.rs"],
            "# c\nhot-path-alloc\t3\ta.rs\n",
        );
    }
}
