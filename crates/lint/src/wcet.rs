//! Static WCET / loop-bound certificates for hot paths (`--wcet`).
//!
//! HCPerf's Eq. 9 budgets (`dᵢ = Dᵢ − cᵢ`) are only trustworthy if the
//! scheduler's own kernels have analyzable cost: a quadratic loop or a
//! hidden blocking call re-enters the 100 ms coordination period without
//! any test noticing until latency plots drift. This pass makes compute
//! cost a *checked artifact*:
//!
//! 1. **Loop lattice** — every loop in a hot-path-reachable function is
//!    classified lexically ([`crate::parse::LoopClass`]): *constant*
//!    (`for _ in 0..4`), *input-bounded* (`for i in 0..n`, counter
//!    `while`s, draining `while let … = q.pop()`), or *unknown*. Unknown
//!    loops are [`Rule::WcetUnbounded`] findings unless waived — a waiver
//!    asserts a bound the lexer cannot see and demotes the loop to
//!    input-bounded.
//! 2. **Interprocedural propagation** — costs live in a single-variable
//!    abstraction `O(n^d log^l n) | unbounded` ([`Cost`]). Sequential
//!    composition takes the max; loop nesting and call-at-depth multiply
//!    (degree saturates at [`MAX_DEGREE`] → unbounded, so the fixpoint
//!    over the over-approximate, possibly cyclic call graph terminates).
//!    Known-cost std calls (`sort*` → n log n, `binary_search*` → log n,
//!    iterator consumers → n) are charged from a table; unknown external
//!    calls are charged O(1).
//! 3. **Certificates** — each hot-path root gets a symbolic cost row in
//!    `crates/lint/wcet_certificates.txt`, ratcheted: a PR cannot raise a
//!    root's polynomial degree, add a log factor, or introduce an
//!    unbounded loop without regenerating the file via
//!    `--update-baselines` (which makes the cost change reviewable).
//! 4. **Blocking surface** — file/socket I/O, `Mutex`/`RwLock`, channel
//!    `recv`, `thread::sleep` and console printing are forbidden in
//!    reachable code outright ([`Rule::HotPathBlocking`], waivable).
//!
//! Known over- and under-approximations are listed in ARCHITECTURE.md;
//! the headline ones: all input bounds collapse onto one symbol `n`
//! (a loop over tasks inside a loop over processors reads as n², not
//! n·m); constant loops multiply cost by 1; macro bodies are invisible
//! (the alloc rule keeps them off hot paths separately); unknown external
//! calls are assumed O(1).

use std::collections::BTreeMap;
use std::io;

use crate::callgraph::CallGraph;
use crate::parse::{LineIndex, LoopClass};
use crate::ratchet::{Key, Ratchet, WCET};
use crate::report::{json_escape, render_findings, Artifact, Finding, ModeReport, Rule};
use crate::source::{waiver_for, word_offsets};
use crate::workspace::{SourceFile, Workspace};

/// Workspace-relative path of the certificate ratchet file.
pub const CERT_PATH: &str = "crates/lint/wcet_certificates.txt";

/// Polynomial degree past which a cost saturates to [`Cost::Unbounded`].
/// Real kernels here are ≤ O(n² log n); degree 7 only arises from cycles
/// in the over-approximate call graph, where saturation is what makes the
/// fixpoint terminate.
pub const MAX_DEGREE: u8 = 6;

/// Log factors saturate here (no further growth is meaningful).
pub const MAX_LOGS: u8 = 3;

/// Symbolic cost in the single-variable abstraction: `O(n^degree log^logs
/// n)` or unbounded. The derived ordering is the lattice order — degree
/// dominates, then log count, and `Unbounded` tops everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// `O(n^degree · log^logs n)`.
    Bounded {
        /// Polynomial degree (0 = constant in `n`).
        degree: u8,
        /// Number of log factors.
        logs: u8,
    },
    /// No static bound.
    Unbounded,
}

impl Cost {
    /// `O(1)`.
    pub const ONE: Cost = Cost::Bounded { degree: 0, logs: 0 };
    /// `O(n)`.
    pub const LINEAR: Cost = Cost::Bounded { degree: 1, logs: 0 };
    /// `O(log n)`.
    pub const LOG: Cost = Cost::Bounded { degree: 0, logs: 1 };
    /// `O(n log n)`.
    pub const N_LOG_N: Cost = Cost::Bounded { degree: 1, logs: 1 };

    /// Multiplicative composition (nesting): degrees and log counts add,
    /// saturating to [`Cost::Unbounded`] past [`MAX_DEGREE`].
    #[must_use]
    pub fn times(self, other: Cost) -> Cost {
        match (self, other) {
            (
                Cost::Bounded {
                    degree: d1,
                    logs: l1,
                },
                Cost::Bounded {
                    degree: d2,
                    logs: l2,
                },
            ) => {
                let degree = d1.saturating_add(d2);
                if degree > MAX_DEGREE {
                    Cost::Unbounded
                } else {
                    Cost::Bounded {
                        degree,
                        logs: l1.saturating_add(l2).min(MAX_LOGS),
                    }
                }
            }
            _ => Cost::Unbounded,
        }
    }

    /// Renders the certificate notation (`O(1)`, `O(n log n)`, `O(n^2)`,
    /// …, `unbounded`).
    #[must_use]
    pub fn render(self) -> String {
        let Cost::Bounded { degree, logs } = self else {
            return "unbounded".to_owned();
        };
        let poly = match degree {
            0 => String::new(),
            1 => "n".to_owned(),
            d => format!("n^{d}"),
        };
        let log = match logs {
            0 => String::new(),
            1 => "log n".to_owned(),
            l => format!("log^{l} n"),
        };
        match (poly.is_empty(), log.is_empty()) {
            (true, true) => "O(1)".to_owned(),
            (true, false) => format!("O({log})"),
            (false, true) => format!("O({poly})"),
            (false, false) => format!("O({poly} {log})"),
        }
    }

    /// Parses the notation [`Cost::render`] produces.
    #[must_use]
    pub fn parse(s: &str) -> Option<Cost> {
        let s = s.trim();
        if s == "unbounded" {
            return Some(Cost::Unbounded);
        }
        let inner = s.strip_prefix("O(")?.strip_suffix(')')?.trim();
        if inner == "1" {
            return Some(Cost::ONE);
        }
        let mut degree = 0u8;
        let mut logs = 0u8;
        let mut toks = inner.split_whitespace().peekable();
        while let Some(t) = toks.next() {
            if t == "n" {
                degree = 1;
            } else if let Some(d) = t.strip_prefix("n^") {
                degree = d.parse().ok()?;
            } else if t == "log" || t.starts_with("log^") {
                logs = t.strip_prefix("log^").map_or(Some(1), |l| l.parse().ok())?;
                // consume the trailing `n` of `log… n`
                if toks.peek() == Some(&"n") {
                    toks.next();
                } else {
                    return None;
                }
            } else {
                return None;
            }
        }
        Some(Cost::Bounded { degree, logs })
    }
}

/// Cost of a call with no workspace definition, by callee name. The table
/// covers std methods whose cost is part of their contract; everything
/// else is charged `O(1)` (documented under-approximation — explicit
/// loops and the alloc rule cover the rest).
#[must_use]
pub fn external_cost(name: &str) -> Cost {
    if name.starts_with("sort") {
        return Cost::N_LOG_N;
    }
    if name.starts_with("binary_search") || name == "partition_point" {
        return Cost::LOG;
    }
    const LINEAR: [&str; 28] = [
        "collect",
        "to_vec",
        "extend",
        "extend_from_slice",
        "resize",
        "fill",
        "dedup",
        "retain",
        "contains",
        "position",
        "rposition",
        "find",
        "find_map",
        "fold",
        "sum",
        "product",
        "count",
        "min",
        "max",
        "min_by",
        "max_by",
        "min_by_key",
        "max_by_key",
        "any",
        "all",
        "for_each",
        "copy_from_slice",
        "clone_from_slice",
    ];
    if LINEAR.contains(&name) {
        return Cost::LINEAR;
    }
    Cost::ONE
}

/// Blocking constructs forbidden in hot-path-reachable code: each one can
/// stall the dispatch loop for an unbounded *wall-clock* time even though
/// its iteration count is trivially bounded.
const BLOCKING_PATTERNS: [&str; 18] = [
    "Mutex",
    "RwLock",
    ".lock(",
    ".recv(",
    ".recv_timeout(",
    "thread::sleep",
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
    "File::open",
    "File::create",
    "OpenOptions",
    "TcpStream",
    "UdpSocket",
    "stdin(",
    "stdout(",
    "read_to_string",
];

/// The concrete source construct a cost bound traces back to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human description (`\`for\` loop over self.key.len()`, `\`sort_unstable_by\` call`).
    pub what: String,
}

/// One hot-path root's certificate.
#[derive(Debug, Clone)]
pub struct CertRow {
    /// Qualified root name (`Type::fn` or `fn`).
    pub name: String,
    /// Workspace-relative path of the root's defining file.
    pub path: String,
    /// Propagated symbolic cost.
    pub cost: Cost,
    /// Dominant construct the cost traces to (`None` for O(1) roots).
    pub witness: Option<Witness>,
}

/// Loop-classification tallies over the reachable set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// `for` over literal ranges.
    pub constant: usize,
    /// Loops with a lexically visible input bound.
    pub input_bounded: usize,
    /// Unknown loops demoted to input-bounded by an inline waiver.
    pub waived: usize,
    /// Unknown loops with no waiver (each one is a finding).
    pub unbounded: usize,
}

/// Result of the WCET analysis.
#[derive(Debug)]
pub struct WcetReport {
    /// Per-root certificates, sorted by (name, path).
    pub certs: Vec<CertRow>,
    /// Unwaived findings: `wcet-unbounded`, `hot-path-blocking`, and
    /// `wcet-cert` growth findings when ratcheting.
    pub findings: Vec<Finding>,
    /// Waived sites with their reasons.
    pub waived: Vec<Finding>,
    /// Certificate comparison; `None` when regenerating.
    pub ratchet: Option<Ratchet<Cost>>,
    /// Loop tallies over the reachable set.
    pub loop_stats: LoopStats,
    /// Reachable function count.
    pub reachable_fns: usize,
    /// `.rs` files parsed.
    pub files_scanned: usize,
}

impl WcetReport {
    fn rows(&self) -> Vec<(Key, Cost)> {
        let rows = self.certs.iter();
        rows.map(|c| (vec![c.name.clone(), c.path.clone()], c.cost))
            .collect()
    }
}

impl ModeReport for WcetReport {
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
        let certs: Vec<String> = self
            .certs
            .iter()
            .map(|c| {
                format!(
                    "{{\"root\":\"{}\",\"cost\":\"{}\",\"path\":\"{}\"}}",
                    json_escape(&c.name),
                    json_escape(&c.cost.render()),
                    json_escape(&c.path)
                )
            })
            .collect();
        let s = &self.loop_stats;
        format!(
            "{{\"certificates\":[{}],\"reachable_fns\":{},\"files_scanned\":{},\"loops\":{{\"constant\":{},\"input_bounded\":{},\"waived\":{},\"unbounded\":{}}},\"ratchet\":{}}}",
            certs.join(","),
            self.reachable_fns,
            self.files_scanned,
            s.constant,
            s.input_bounded,
            s.waived,
            s.unbounded,
            self.ratchet.as_ref().map_or_else(|| "null".to_owned(), Ratchet::json)
        )
    }

    fn human(&self) -> String {
        let certs: String = self
            .certs
            .iter()
            .map(|c| format!("cert {:<50} {}\n", c.name, c.cost.render()))
            .collect();
        let s = &self.loop_stats;
        format!(
            "{}{certs}{}hcperf-lint --wcet: {} certificates, {} reachable fns, {} files, loops {}c/{}i/{}w/{}u, {} findings, {} waived\n",
            render_findings(&self.findings),
            self.ratchet.as_ref().map_or_else(String::new, Ratchet::human),
            self.certs.len(),
            self.reachable_fns,
            self.files_scanned,
            s.constant,
            s.input_bounded,
            s.waived,
            s.unbounded,
            self.findings.len(),
            self.waived.len(),
        )
    }

    fn artifact(&self) -> Option<Artifact> {
        let (roots, fns) = (self.certs.len(), self.reachable_fns);
        Some(Artifact {
            path: CERT_PATH,
            text: WCET.render(&self.rows()),
            rewritten: format!(
                "hcperf-lint: WCET certificates rewritten ({roots} roots, {fns} reachable fns)"
            ),
            brief: format!("{roots} WCET certificates ({fns} reachable fns)"),
        })
    }
}

/// Effective loop class after waiver resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Eff {
    Constant,
    Input,
    Unbounded,
}

impl Eff {
    /// The multiplicative cost of one iteration *count* of this loop.
    fn factor(self) -> Cost {
        match self {
            Eff::Constant => Cost::ONE,
            Eff::Input => Cost::LINEAR,
            Eff::Unbounded => Cost::Unbounded,
        }
    }
}

/// Core analysis over already-loaded sources and their hot-path graph,
/// before any certificate comparison (separated from [`run_wcet`] so
/// tests can drive it with synthetic files).
pub(crate) fn analyze(sources: &[SourceFile], graph: &CallGraph) -> WcetReport {
    let reachable = graph.reachable_from_roots();
    let by_rel: BTreeMap<&str, &SourceFile> = sources.iter().map(|s| (s.rel.as_str(), s)).collect();

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let mut stats = LoopStats::default();

    // 1. Effective class per loop of each reachable node.
    let mut eff: BTreeMap<usize, Vec<Eff>> = BTreeMap::new();
    for &i in &reachable {
        let node = &graph.nodes[i];
        let src = by_rel[node.path.as_str()];
        let mut classes = Vec::with_capacity(graph.loops[i].len());
        for l in &graph.loops[i] {
            let e = match &l.class {
                LoopClass::Constant => {
                    stats.constant += 1;
                    Eff::Constant
                }
                LoopClass::InputBounded(_) => {
                    stats.input_bounded += 1;
                    Eff::Input
                }
                LoopClass::Unknown => {
                    match waiver_for(&src.masked.waivers, Rule::WcetUnbounded, l.line) {
                        Some(reason) => {
                            stats.waived += 1;
                            waived.push(loop_finding(node, l, src, Some(reason)));
                            Eff::Input
                        }
                        None => {
                            stats.unbounded += 1;
                            findings.push(loop_finding(node, l, src, None));
                            Eff::Unbounded
                        }
                    }
                }
            };
            classes.push(e);
        }
        eff.insert(i, classes);
    }

    // Multiplier at a byte offset: product of the factors of every loop
    // whose span contains it.
    let mult_at = |i: usize, at: usize| -> Cost {
        let mut m = Cost::ONE;
        for (l, e) in graph.loops[i].iter().zip(&eff[&i]) {
            if l.span.0 < at && at < l.span.1 {
                m = m.times(e.factor());
            }
        }
        m
    };

    // 2. Intra-procedural seed: loops themselves plus external calls.
    let n = graph.nodes.len();
    let mut cost = vec![Cost::ONE; n];
    let mut wit: Vec<Option<Witness>> = vec![None; n];
    for &i in &reachable {
        let node = &graph.nodes[i];
        for (l, e) in graph.loops[i].iter().zip(&eff[&i]) {
            let total = mult_at(i, l.span.0).times(e.factor());
            if total > cost[i] {
                cost[i] = total;
                let bound = match &l.class {
                    LoopClass::InputBounded(s) => format!("`{}` loop over {s}", l.keyword),
                    _ => format!("`{}` loop", l.keyword),
                };
                wit[i] = Some(Witness {
                    path: node.path.clone(),
                    line: l.line,
                    what: bound,
                });
            }
        }
        for se in &graph.sites[i] {
            if !se.callees.is_empty() {
                continue;
            }
            let ext = external_cost(&se.site.name);
            if ext == Cost::ONE {
                continue;
            }
            let total = mult_at(i, se.site.offset).times(ext);
            if total > cost[i] {
                cost[i] = total;
                wit[i] = Some(Witness {
                    path: node.path.clone(),
                    line: se.site.line,
                    what: format!("`{}` call ({})", se.site.name, ext.render()),
                });
            }
        }
    }

    // 3. Interprocedural fixpoint. Monotone over a finite lattice (degree
    // saturates), so this terminates even on call-graph cycles.
    let mut changed = true;
    while changed {
        changed = false;
        for &i in &reachable {
            for se in &graph.sites[i] {
                if se.callees.is_empty() {
                    continue;
                }
                let mult = mult_at(i, se.site.offset);
                for &c in &se.callees {
                    let cand = mult.times(cost[c]);
                    if cand > cost[i] {
                        cost[i] = cand;
                        wit[i] = wit[c].clone().or_else(|| {
                            Some(Witness {
                                path: graph.nodes[i].path.clone(),
                                line: se.site.line,
                                what: format!("`{}` call", se.site.name),
                            })
                        });
                        changed = true;
                    }
                }
            }
        }
    }

    // 4. Blocking surface over the reachable set.
    for &i in &reachable {
        let node = &graph.nodes[i];
        let Some(body) = node.body else { continue };
        let src = by_rel[node.path.as_str()];
        let lines = LineIndex::new(&src.masked.masked);
        for pat in BLOCKING_PATTERNS {
            for at in word_offsets(&src.masked.masked, body, pat) {
                let line = lines.line_of(at);
                let construct = pat.trim_matches(|c| c == '.' || c == '(');
                let f = src.finding(
                    Rule::HotPathBlocking,
                    line,
                    format!(
                        "`{construct}` can block in hot-path-reachable fn `{}`; the dispatch \
                         path must not wait on I/O, locks, channels or sleeps — move it out, \
                         or waive with `hcperf-lint: allow(hot-path-blocking)` and a reason",
                        node.qualified()
                    ),
                );
                match waiver_for(&src.masked.waivers, Rule::HotPathBlocking, line) {
                    Some(reason) => waived.push(Finding {
                        waived: Some(reason),
                        ..f
                    }),
                    None => findings.push(f),
                }
            }
        }
    }

    // 5. Certificates per root.
    let mut certs: Vec<CertRow> = graph
        .roots()
        .iter()
        .map(|&r| CertRow {
            name: graph.nodes[r].qualified(),
            path: graph.nodes[r].path.clone(),
            cost: cost[r],
            witness: wit[r].clone(),
        })
        .collect();
    certs.sort_by(|a, b| (&a.name, &a.path).cmp(&(&b.name, &b.path)));

    // A root can be unbounded with no loop finding when degree saturates
    // through call-graph cycles; surface that at the root itself.
    let has_unbounded_finding = findings.iter().any(|f| f.rule == Rule::WcetUnbounded);
    for c in &certs {
        if c.cost == Cost::Unbounded && !has_unbounded_finding {
            let src = by_rel[c.path.as_str()];
            let (line, what) = c
                .witness
                .as_ref()
                .map_or((1, "degree saturation".to_owned()), |w| {
                    (w.line, w.what.clone())
                });
            findings.push(src.finding(
                Rule::WcetUnbounded,
                line,
                format!(
                    "hot-path root `{}` has no bounded certificate ({}); every root must \
                     admit a symbolic cost bound",
                    c.name, what
                ),
            ));
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    WcetReport {
        certs,
        findings,
        waived,
        ratchet: None,
        loop_stats: stats,
        reachable_fns: reachable.len(),
        files_scanned: sources.len(),
    }
}

fn loop_finding(
    node: &crate::callgraph::FnNode,
    l: &crate::parse::LoopSite,
    src: &SourceFile,
    waived: Option<String>,
) -> Finding {
    Finding {
        waived,
        ..src.finding(
            Rule::WcetUnbounded,
            l.line,
            format!(
                "`{}` loop in hot-path-reachable fn `{}` has no lexically visible bound; \
                 restructure it as a bounded loop, or assert the bound with \
                 `hcperf-lint: allow(wcet-unbounded)` and a reason",
                l.keyword,
                node.qualified()
            ),
        )
    }
}

/// Runs the WCET analysis over the workspace's shared call graph.
///
/// When `against_baseline` is true, per-root certificates are compared to
/// [`CERT_PATH`] and any cost increase produces [`Rule::WcetCert`]
/// findings anchored at the dominant construct; a missing certificate
/// file is an error so CI cannot silently skip the gate.
///
/// # Errors
///
/// Propagates certificate read and format problems.
pub fn run_wcet(ws: &Workspace, against_baseline: bool) -> io::Result<WcetReport> {
    let mut report = analyze(&ws.core, ws.hot_graph());
    if against_baseline {
        let cmp = WCET.compare(&report.rows(), &WCET.load(&ws.root)?);
        let by_rel: BTreeMap<&str, &SourceFile> =
            ws.core.iter().map(|s| (s.rel.as_str(), s)).collect();
        for g in &cmp.growth {
            let row = (report.certs.iter()).find(|c| g.key == [c.name.as_str(), c.path.as_str()]);
            let (path, line, what) = row.and_then(|c| c.witness.as_ref()).map_or_else(
                || (g.key[1].as_str(), 1, "no dominant construct"),
                |w| (w.path.as_str(), w.line, w.what.as_str()),
            );
            report.findings.push(by_rel[path].finding(
                Rule::WcetCert,
                line,
                format!(
                    "hot-path root `{}` now costs {}, certified {} in {CERT_PATH} \
                     (dominant: {what}); lower the cost, or regenerate certificates \
                     deliberately with --update-baselines",
                    g.key[0],
                    g.current.map_or_else(|| "?".to_owned(), Cost::render),
                    g.baseline
                        .map_or_else(|| "nothing (new root)".to_owned(), Cost::render),
                ),
            ));
        }
        report
            .findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        report.ratchet = Some(cmp);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratchet::tests::{key, rejects, round_trip};
    use crate::workspace::hot_graph;

    fn src_file(rel: &str, raw: &str) -> SourceFile {
        SourceFile::new(rel, raw)
    }

    fn analyze_files(files: &[SourceFile]) -> WcetReport {
        analyze(files, &hot_graph(files))
    }

    #[test]
    fn cost_lattice_orders_and_multiplies() {
        let n = Cost::LINEAR;
        let nlogn = Cost::N_LOG_N;
        let n2 = n.times(n);
        assert!(Cost::ONE < Cost::LOG);
        assert!(Cost::LOG < n);
        assert!(n < nlogn);
        assert!(nlogn < n2);
        assert!(n2 < n2.times(Cost::LOG));
        assert!(n2 < Cost::Unbounded);
        assert_eq!(n.times(Cost::Unbounded), Cost::Unbounded);
        // Degree saturation guarantees fixpoint termination on cycles.
        let mut c = n;
        for _ in 0..MAX_DEGREE + 1 {
            c = c.times(n);
        }
        assert_eq!(c, Cost::Unbounded);
    }

    #[test]
    fn cost_notation_round_trips() {
        let cases = [
            Cost::ONE,
            Cost::LOG,
            Cost::LINEAR,
            Cost::N_LOG_N,
            Cost::Bounded { degree: 2, logs: 0 },
            Cost::Bounded { degree: 2, logs: 1 },
            Cost::Bounded { degree: 3, logs: 2 },
            Cost::Unbounded,
        ];
        for c in cases {
            assert_eq!(Cost::parse(&c.render()), Some(c), "{}", c.render());
        }
        assert_eq!(Cost::parse("O(n log n)"), Some(Cost::N_LOG_N));
        assert_eq!(Cost::parse("garbage"), None);
        assert_eq!(Cost::parse("O(m)"), None);
    }

    #[test]
    fn certificates_round_trip_and_ratchet() {
        let rows = vec![
            (
                key(&["GammaScratch::rank", "crates/core/src/dps.rs"]),
                Cost::N_LOG_N,
            ),
            (
                key(&["Sim::try_dispatch", "crates/rtsim/src/sim.rs"]),
                Cost::Bounded { degree: 2, logs: 0 },
            ),
        ];
        let parsed = round_trip(&WCET, &rows);
        assert_eq!(parsed.len(), 2);
        assert!(!WCET.compare(&rows, &parsed).grew());

        // Raising a degree trips the ratchet; shrinking passes.
        let mut grown = rows.clone();
        grown[0].1 = Cost::Bounded { degree: 2, logs: 1 };
        let cmp = WCET.compare(&grown, &parsed);
        assert!(cmp.grew());
        assert_eq!(cmp.growth[0].key[0], "GammaScratch::rank");

        let mut shrunk = rows.clone();
        shrunk[1].1 = Cost::LINEAR;
        assert!(!WCET.compare(&shrunk, &parsed).grew());

        // A new root must be certified deliberately.
        let mut extended = rows.clone();
        extended.push((key(&["newcomer", "x.rs"]), Cost::ONE));
        assert!(WCET.compare(&extended, &parsed).grew());
    }

    #[test]
    fn rejects_malformed_certificates() {
        rejects(
            &WCET,
            &["nonsense", "root\tO(n!)\tx.rs"],
            "# comment\nroot\tO(n)\tx.rs\n",
        );
    }

    #[test]
    fn sort_call_yields_n_log_n_certificate() {
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn rank(xs: &mut [u32]) {
    xs.sort_unstable();
}
",
        )];
        let a = analyze_files(&files);
        assert_eq!(a.certs.len(), 1);
        assert_eq!(a.certs[0].cost, Cost::N_LOG_N);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let w = a.certs[0].witness.as_ref().unwrap();
        assert_eq!(
            (w.line, w.what.as_str()),
            (3, "`sort_unstable` call (O(n log n))")
        );
    }

    #[test]
    fn nested_loops_multiply_and_propagate_through_calls() {
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn root(n: usize) {
    for _ in 0..n {
        helper(n);
    }
}
fn helper(n: usize) {
    for i in 0..n {
        touch(i);
    }
}
fn touch(_i: usize) {}
",
        )];
        let a = analyze_files(&files);
        let root = a.certs.iter().find(|c| c.name == "root").unwrap();
        assert_eq!(root.cost, Cost::Bounded { degree: 2, logs: 0 });
        // The witness resolves transitively to the concrete inner loop.
        let w = root.witness.as_ref().unwrap();
        assert_eq!((w.path.as_str(), w.line), ("k.rs", 8));
    }

    #[test]
    fn unwaived_unbounded_loop_is_a_finding_and_unbounded_cert() {
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn root() {
    loop {
        if done() { break; }
    }
}
fn done() -> bool { true }
",
        )];
        let a = analyze_files(&files);
        assert_eq!(a.certs[0].cost, Cost::Unbounded);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, Rule::WcetUnbounded);
        assert_eq!(a.findings[0].line, 3);
    }

    #[test]
    fn waiver_demotes_unbounded_loop_to_input_bounded() {
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn root() {
    // hcperf-lint: allow(wcet-unbounded): each pass retires one job
    loop {
        if done() { break; }
    }
}
fn done() -> bool { true }
",
        )];
        let a = analyze_files(&files);
        assert_eq!(a.certs[0].cost, Cost::LINEAR);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.waived.len(), 1);
        assert_eq!(a.loop_stats.waived, 1);
    }

    #[test]
    fn blocking_constructs_in_reachable_code_are_findings() {
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn root() {
    let m = std::sync::Mutex::new(0u32);
    let _ = m.lock();
    println!(\"dispatch\");
}
",
        )];
        let a = analyze_files(&files);
        let rules: Vec<(usize, &str)> =
            a.findings.iter().map(|f| (f.line, f.rule.name())).collect();
        assert!(rules.contains(&(3, "hot-path-blocking")), "{rules:?}"); // Mutex type
        assert!(rules.contains(&(4, "hot-path-blocking")), "{rules:?}"); // .lock(
        assert!(rules.contains(&(5, "hot-path-blocking")), "{rules:?}"); // println!
    }

    #[test]
    fn unreachable_code_is_not_analyzed() {
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn root() {}

// far enough below the marker not to inherit it
fn cold() {
    loop { println!(\"spin\"); }
}
",
        )];
        let a = analyze_files(&files);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.certs[0].cost, Cost::ONE);
        assert_eq!(a.loop_stats, LoopStats::default());
    }

    #[test]
    fn recursion_without_loop_multipliers_stays_bounded() {
        // A depth-0 call cycle (mutual recursion) stabilizes at the max of
        // the intra costs instead of diverging — documented
        // under-approximation; cycles *through loops* saturate instead.
        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn even(n: usize) { odd(n); }

// not a root: outside the marker's 3-line window
fn odd(n: usize) { for i in 0..n { touch(i); } even(n); }
fn touch(_i: usize) {}
",
        )];
        let a = analyze_files(&files);
        assert_eq!(a.certs[0].cost, Cost::LINEAR);

        let files = [src_file(
            "k.rs",
            "\
// hcperf-lint: hot-path-root
fn spin(n: usize) { for _ in 0..n { spin(n); } }
",
        )];
        let a = analyze_files(&files);
        assert_eq!(
            a.certs[0].cost,
            Cost::Unbounded,
            "loop-carried cycle saturates"
        );
    }
}
