//! `--det-flow`: interprocedural determinism-taint dataflow with
//! certified output sinks.
//!
//! The determinism rules in [`crate::rules`] are lexical: they flag a
//! `HashMap` where it is written. This pass answers the stronger question
//! the reproducibility contract actually needs: **can a nondeterminism
//! source reach a serialized output?** Sources (unordered container
//! iteration, wall-clock values, channel arrival order, thread identity,
//! env reads, address-seeded hashing, unordered parallel reduction) are
//! flowed over the v2 call graph to declared sinks — the JSONL writers,
//! the store's content-hash inputs, seed derivation, and the experiment
//! binaries' stdout — each marked in source with
//! `// hcperf-lint: det-sink(<name>)`.
//!
//! # Lattice and propagation
//!
//! A taint element is a *source site* `(path, line, pattern)`; sets of
//! elements form the lattice under union, so the fixpoint is monotone and
//! terminates. Each function body is scanned left to right as an ordered
//! event list (source hits, sanitizer hits, call sites); a running set
//! tracks which source sites are live at each byte offset:
//!
//! - a **source** event inserts its element (unless waived with
//!   `allow(det-flow)` at the site);
//! - a **sanitizer** event (`BTreeMap`/`BTreeSet` rebuild, any of the
//!   `sort*` family, or a call to a `det-sanitizer(<name>)`-marked fn)
//!   clears the entire running set — deliberately coarse, see
//!   *Approximations* below;
//! - a **call** event imports the callee's escape summary `out(g)` into
//!   the running set, and forwards the running set into the callee's
//!   entry summary `in(g)` (param→sink propagation).
//!
//! `out(f)` is the set of elements *originating in `f`'s own transitive
//! computation* that are live at the end of the body; param-inherited
//! taint (`in(f)`) is **not** re-exported through `out(f)`. This cuts the
//! param→return direction (a documented under-approximation, see
//! ARCHITECTURE.md) but keeps param→sink exact, and prevents the
//! over-approximate name resolution from flooding the workspace: without
//! the cut, taint entering any fn named `len`/`get`/`now` via a method
//! call would flow back out to every caller of that name.
//!
//! A sink's exposure is `in(sink) ∪ out(sink)`. Every element carries a
//! representative chain of [`Hop`]s (first discovery wins; node order is
//! deterministic, so the chain is too), reported file:line per hop.
//!
//! # Certificates
//!
//! Each declared sink has a row in [`CERT_PATH`]: `clean` or `tainted:N`
//! (N = distinct source sites reaching it). The ratchet fails on any new
//! sink, any `clean → tainted` transition, and any increase in N —
//! regeneration must be deliberate (`--update-baselines`), exactly like
//! the WCET certificates.
//!
//! # Approximations
//!
//! Over-approximate (false positives possible): call resolution is
//! name/arity-based, so one tainted caller of `.record(…)` taints every
//! workspace `record`; sink exposure inherits that. Under-approximate
//! (documented holes): sanitizer events kill the *whole* running set, not
//! just the sorted value; param→return flow is cut (see above); taint
//! through struct fields, globals, or closures the parser cannot see is
//! invisible. Waivers are load-bearing and require a reason.

use std::collections::BTreeMap;
use std::io;

use crate::callgraph::CallGraph;
use crate::ratchet::{self, status, Ratchet, DET_FLOW};
use crate::report::{json_escape, render_findings, Artifact, Finding, Hop, ModeReport, Rule};
use crate::source::{waiver_for, PatternSet, SourceFile};
use crate::workspace::{Workspace, DET_FLOW_ROOTS};

/// Checked-in per-sink certificate file, ratcheted like the WCET file.
pub const CERT_PATH: &str = "crates/lint/detflow_certificates.txt";

/// The kind of nondeterminism a source pattern introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// `HashMap`/`HashSet`: iteration order is seeded per process.
    UnorderedIter,
    /// `thread::current()` / `ThreadId`: worker identity.
    ThreadId,
    /// Channel `recv` family: arrival order depends on scheduling.
    ChannelRecv,
    /// `Instant`/`SystemTime` *values* flowing into data.
    WallClock,
    /// Environment-variable reads (argv is a deterministic input; env is
    /// ambient machine state).
    EnvRead,
    /// `DefaultHasher`/`RandomState`: address- or entropy-seeded hashing.
    AddrHash,
    /// Rayon-style parallel iteration feeding an order-sensitive
    /// reduction (`sum`/`fold` over par-collected sets).
    UnorderedReduce,
}

impl TaintKind {
    /// Short human description used in messages and chain hops.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            TaintKind::UnorderedIter => "unordered container iteration",
            TaintKind::ThreadId => "thread identity",
            TaintKind::ChannelRecv => "channel arrival order",
            TaintKind::WallClock => "wall-clock value",
            TaintKind::EnvRead => "environment read",
            TaintKind::AddrHash => "address-seeded hashing",
            TaintKind::UnorderedReduce => "unordered parallel reduction",
        }
    }
}

/// Source patterns (token sequences matched in fn bodies).
const SOURCES: &[(&str, TaintKind)] = &[
    ("HashMap", TaintKind::UnorderedIter),
    ("HashSet", TaintKind::UnorderedIter),
    ("thread::current", TaintKind::ThreadId),
    ("ThreadId", TaintKind::ThreadId),
    (".recv(", TaintKind::ChannelRecv),
    (".try_recv(", TaintKind::ChannelRecv),
    (".recv_timeout(", TaintKind::ChannelRecv),
    (".recv_deadline(", TaintKind::ChannelRecv),
    ("Instant::now", TaintKind::WallClock),
    ("SystemTime::now", TaintKind::WallClock),
    (".elapsed(", TaintKind::WallClock),
    (".duration_since(", TaintKind::WallClock),
    ("UNIX_EPOCH", TaintKind::WallClock),
    ("env::var(", TaintKind::EnvRead),
    ("env::var_os(", TaintKind::EnvRead),
    ("env::vars(", TaintKind::EnvRead),
    ("DefaultHasher", TaintKind::AddrHash),
    ("RandomState", TaintKind::AddrHash),
    (".par_iter(", TaintKind::UnorderedReduce),
    (".into_par_iter(", TaintKind::UnorderedReduce),
    (".par_chunks(", TaintKind::UnorderedReduce),
    (".par_bridge(", TaintKind::UnorderedReduce),
];

/// Sanitizer patterns: any hit clears the running set at its offset.
/// A `BTreeMap`/`BTreeSet` rebuild imposes key order; an explicit sort
/// imposes element order. Marked `det-sanitizer` fns are trusted the same
/// way (their call sites clear, their bodies are not scanned).
const SANITIZERS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    ".sort(",
    ".sort_unstable(",
    ".sort_by(",
    ".sort_unstable_by(",
    ".sort_by_key(",
    ".sort_unstable_by_key(",
    ".sort_by_cached_key(",
];

/// `crates/bench` exists to measure wall time (same exemption the lexical
/// wall-clock rule grants it); every *other* taint kind still applies.
fn source_exempt(rel: &str, kind: TaintKind) -> bool {
    kind == TaintKind::WallClock && rel.starts_with("crates/bench/")
}

/// Identity of a taint element: the source site that created it.
type Key = (String, usize, &'static str);

/// One live taint element with its provenance chain.
#[derive(Debug, Clone)]
struct Taint {
    kind: TaintKind,
    /// Source hop (`path`/`line` of the pattern hit).
    source: Hop,
    /// Interprocedural hops after the source, in order (sink hop excluded).
    chain: Vec<Hop>,
}

type Set = BTreeMap<Key, Taint>;

/// One declared sink's measured state.
#[derive(Debug, Clone)]
pub struct SinkRow {
    /// Declared sink name (the `det-sink(<name>)` argument).
    pub name: String,
    /// Qualified fn the marker attached to.
    pub fn_name: String,
    /// Workspace-relative path of the sink fn.
    pub path: String,
    /// 1-based line of the sink `fn` keyword.
    pub line: usize,
    /// Distinct source sites reaching the sink (0 = clean).
    pub taints: usize,
}

/// One complete source→…→sink flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Sink name.
    pub sink: String,
    /// Sink fn path / decl line / qualified name.
    pub sink_path: String,
    /// 1-based line of the sink `fn` keyword.
    pub sink_line: usize,
    /// Qualified sink fn name.
    pub sink_fn: String,
    /// Taint kind of the source.
    pub kind: TaintKind,
    /// Full chain: source hop, intermediate call hops, sink hop.
    pub chain: Vec<Hop>,
}

/// Result of the det-flow analysis.
#[derive(Debug)]
pub struct DetFlowReport {
    /// Declared sinks, sorted by (name, path).
    pub sinks: Vec<SinkRow>,
    /// Every measured source→sink flow (certified ones included).
    pub flows: Vec<FlowRecord>,
    /// Unwaived findings: `det-sink` declaration problems, plus
    /// `det-flow` growth findings when ratcheting.
    pub findings: Vec<Finding>,
    /// Waived source sites with their reasons.
    pub waived: Vec<Finding>,
    /// Certificate comparison; `None` when regenerating.
    pub ratchet: Option<Ratchet<usize>>,
    /// `.rs` files parsed.
    pub files_scanned: usize,
    /// Functions in the call graph.
    pub fns_analyzed: usize,
}

impl DetFlowReport {
    fn rows(&self) -> Vec<(ratchet::Key, usize)> {
        let rows = self.sinks.iter();
        rows.map(|s| (vec![s.name.clone(), s.path.clone()], s.taints))
            .collect()
    }

    fn clean(&self) -> usize {
        self.sinks.iter().filter(|s| s.taints == 0).count()
    }
}

impl ModeReport for DetFlowReport {
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
        let sinks: Vec<String> = self
            .sinks
            .iter()
            .map(|s| {
                format!(
                    "{{\"sink\":\"{}\",\"fn\":\"{}\",\"path\":\"{}\",\"line\":{},\"taints\":{},\"status\":\"{}\"}}",
                    json_escape(&s.name),
                    json_escape(&s.fn_name),
                    json_escape(&s.path),
                    s.line,
                    s.taints,
                    status(s.taints),
                )
            })
            .collect();
        format!(
            "{{\"sinks\":[{}],\"flows\":{},\"fns_analyzed\":{},\"files_scanned\":{},\"ratchet\":{}}}",
            sinks.join(","),
            self.flows.len(),
            self.fns_analyzed,
            self.files_scanned,
            self.ratchet.as_ref().map_or_else(|| "null".to_owned(), Ratchet::json)
        )
    }

    fn human(&self) -> String {
        let sinks: String = self
            .sinks
            .iter()
            .map(|s| {
                let status = status(s.taints);
                format!(
                    "sink {:<24} {status:<12} {} @ {}:{}\n",
                    s.name, s.fn_name, s.path, s.line
                )
            })
            .collect();
        format!(
            "{}{sinks}{}hcperf-lint --det-flow: {} sinks ({} clean), {} flows, {} fns, {} files, {} findings, {} waived\n",
            render_findings(&self.findings),
            self.ratchet.as_ref().map_or_else(String::new, Ratchet::human),
            self.sinks.len(),
            self.clean(),
            self.flows.len(),
            self.fns_analyzed,
            self.files_scanned,
            self.findings.len(),
            self.waived.len(),
        )
    }

    fn artifact(&self) -> Option<Artifact> {
        let (sinks, clean) = (self.sinks.len(), self.clean());
        Some(Artifact {
            path: CERT_PATH,
            text: DET_FLOW.render(&self.rows()),
            rewritten: format!(
                "hcperf-lint: det-flow certificates rewritten ({sinks} sinks, {clean} clean, {} fns analyzed)",
                self.fns_analyzed
            ),
            brief: format!("{sinks} det-flow sinks ({clean} clean)"),
        })
    }
}

/// One body event, ordered by byte offset. At equal offsets sanitizers
/// apply before sources, and both before calls (variant order).
#[derive(Debug)]
enum Ev {
    Clean,
    Source {
        line: usize,
        pat: &'static str,
        kind: TaintKind,
    },
    Call {
        line: usize,
        callees: Vec<usize>,
        name: String,
    },
}

/// Core analysis over already-loaded sources (separated from
/// [`run_detflow`] so tests can drive it with synthetic files).
pub(crate) fn analyze(sources: &[&SourceFile]) -> DetFlowReport {
    let graph = CallGraph::of(sources);
    let by_rel: BTreeMap<&str, &SourceFile> =
        sources.iter().map(|s| (s.rel.as_str(), *s)).collect();
    // One table: the sources in `SOURCES` order, then the sanitizers.
    let texts: Vec<&'static str> = (SOURCES.iter().map(|&(p, _)| p))
        .chain(SANITIZERS.iter().copied())
        .collect();
    let patterns = PatternSet::new(&texts);

    let mut findings = Vec::new();
    let mut waived = Vec::new();

    // 1. Declaration checks: every marker must attach to a fn; sink names
    //    must be globally unique so certificate rows are addressable.
    let mut names_seen: BTreeMap<&str, (&str, usize)> = BTreeMap::new();
    for src in sources {
        let markers = (src.det_sinks.iter())
            .map(|(l, n)| (*l, n, "det-sink"))
            .chain(
                src.det_sanitizers
                    .iter()
                    .map(|(l, n)| (*l, n, "det-sanitizer")),
            );
        for (mline, name, what) in markers {
            let attached = graph
                .nodes
                .iter()
                .any(|n| n.path == src.rel && mline < n.line && n.line <= mline + 3);
            if !attached {
                findings.push(src.finding(
                    Rule::DetSink,
                    mline,
                    format!(
                        "`{what}({name})` marker does not attach to a `fn` item; the next \
                         fn must start within 3 lines below the marker"
                    ),
                ));
            }
            if what == "det-sink" {
                if let Some((first_path, first_line)) =
                    names_seen.insert(name.as_str(), (src.rel.as_str(), mline))
                {
                    findings.push(src.finding(
                        Rule::DetSink,
                        mline,
                        format!(
                            "duplicate det-sink name `{name}` (first declared at \
                             {first_path}:{first_line}); sink names must be unique"
                        ),
                    ));
                }
            }
        }
    }

    // 2. Per-node event lists, offset-ordered. Waived sources are recorded
    //    and excluded before propagation — the waiver is load-bearing.
    let n = graph.nodes.len();
    let mut events: Vec<Vec<(usize, Ev)>> = Vec::with_capacity(n);
    for (i, node) in graph.nodes.iter().enumerate() {
        let mut evs: Vec<(usize, Ev)> = Vec::new();
        let (Some(body), Some(src)) = (node.body, by_rel.get(node.path.as_str())) else {
            events.push(evs);
            continue;
        };
        if node.sanitizer {
            // Trusted fn: body not scanned, summary forced empty.
            events.push(evs);
            continue;
        }
        // One walk over the body's tokens; the hits are then taken
        // pattern by pattern, offsets ascending, as `SOURCES` and
        // `SANITIZERS` list them (the order waivers are reported in).
        let mut hits = src.find_any(&patterns, body);
        hits.sort_unstable();
        for (i, at) in hits {
            let Some(&(pat, kind)) = SOURCES.get(i) else {
                evs.push((at, Ev::Clean));
                continue;
            };
            if source_exempt(&node.path, kind) {
                continue;
            }
            let line = src.line_of(at);
            match waiver_for(&src.waivers, Rule::DetFlow, line) {
                Some(reason) => waived.push(Finding {
                    waived: Some(reason),
                    ..src.finding(
                        Rule::DetFlow,
                        line,
                        format!(
                            "nondeterminism source `{pat}` ({}) waived at the site",
                            kind.describe()
                        ),
                    )
                }),
                None => evs.push((at, Ev::Source { line, pat, kind })),
            }
        }
        for se in &graph.sites[i] {
            evs.push((
                se.site.offset,
                Ev::Call {
                    line: se.site.line,
                    callees: se.callees.clone(),
                    name: se.site.name.clone(),
                },
            ));
        }
        evs.sort_by_key(|(at, ev)| {
            let rank = match ev {
                Ev::Clean => 0u8,
                Ev::Source { .. } => 1,
                Ev::Call { .. } => 2,
            };
            (*at, rank)
        });
        events.push(evs);
    }

    // 3. Fixpoint over `in`/`out` summaries. Sets only grow and the key
    //    space is finite, so chaotic iteration terminates.
    let mut ins: Vec<Set> = vec![Set::new(); n];
    let mut outs: Vec<Set> = vec![Set::new(); n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if graph.nodes[i].sanitizer {
                continue;
            }
            // Running set: key → (taint, inherited-from-params).
            let mut run: BTreeMap<Key, (Taint, bool)> = ins[i]
                .iter()
                .map(|(k, t)| (k.clone(), (t.clone(), true)))
                .collect();
            for (_, ev) in &events[i] {
                match ev {
                    Ev::Clean => run.clear(),
                    Ev::Source { line, pat, kind } => {
                        let key = (graph.nodes[i].path.clone(), *line, *pat);
                        run.entry(key).or_insert_with(|| {
                            (
                                Taint {
                                    kind: *kind,
                                    source: Hop {
                                        path: graph.nodes[i].path.clone(),
                                        line: *line,
                                        what: format!("`{pat}` ({})", kind.describe()),
                                    },
                                    chain: Vec::new(),
                                },
                                false,
                            )
                        });
                    }
                    Ev::Call {
                        line,
                        callees,
                        name,
                    } => {
                        if callees.iter().any(|&g| graph.nodes[g].sanitizer) {
                            run.clear();
                            continue;
                        }
                        for &g in callees {
                            for (k, t) in &outs[g] {
                                if !run.contains_key(k) {
                                    let mut t = t.clone();
                                    t.chain.push(Hop {
                                        path: graph.nodes[i].path.clone(),
                                        line: *line,
                                        what: format!(
                                            "returned through `{name}` into `{}`",
                                            graph.nodes[i].qualified()
                                        ),
                                    });
                                    run.insert(k.clone(), (t, false));
                                }
                            }
                        }
                        for &g in callees {
                            for (k, (t, _)) in &run {
                                if !ins[g].contains_key(k) {
                                    let mut t = t.clone();
                                    t.chain.push(Hop {
                                        path: graph.nodes[i].path.clone(),
                                        line: *line,
                                        what: format!(
                                            "passed into `{}`",
                                            graph.nodes[g].qualified()
                                        ),
                                    });
                                    ins[g].insert(k.clone(), t);
                                    changed = true;
                                }
                            }
                        }
                    }
                }
            }
            for (k, (t, from_param)) in run {
                if !from_param && !outs[i].contains_key(&k) {
                    outs[i].insert(k, t);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 4. Sink exposure = in ∪ out, rendered as rows + full flow chains.
    let mut sinks = Vec::new();
    let mut flows = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(name) = &node.sink else { continue };
        let mut exposure: Set = ins[i].clone();
        for (k, t) in &outs[i] {
            exposure.entry(k.clone()).or_insert_with(|| t.clone());
        }
        sinks.push(SinkRow {
            name: name.clone(),
            fn_name: node.qualified(),
            path: node.path.clone(),
            line: node.line,
            taints: exposure.len(),
        });
        for t in exposure.values() {
            let mut chain = vec![t.source.clone()];
            chain.extend(t.chain.iter().cloned());
            chain.push(Hop {
                path: node.path.clone(),
                line: node.line,
                what: format!("det-sink({name}) `{}`", node.qualified()),
            });
            flows.push(FlowRecord {
                sink: name.clone(),
                sink_path: node.path.clone(),
                sink_line: node.line,
                sink_fn: node.qualified(),
                kind: t.kind,
                chain,
            });
        }
    }
    sinks.sort_by(|a, b| (&a.name, &a.path).cmp(&(&b.name, &b.path)));
    flows.sort_by(|a, b| {
        (&a.sink, &a.sink_path, &a.chain[0].path, a.chain[0].line).cmp(&(
            &b.sink,
            &b.sink_path,
            &b.chain[0].path,
            b.chain[0].line,
        ))
    });
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    waived.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    DetFlowReport {
        sinks,
        flows,
        findings,
        waived,
        ratchet: None,
        files_scanned: sources.len(),
        fns_analyzed: n,
    }
}

/// Runs the det-flow analysis over the deterministic crates plus
/// [`DET_FLOW_ROOTS`], on its own call graph: the wider file set changes
/// name+arity call resolution, so the hot-path graph is not reused.
///
/// When `against_baseline` is true, per-sink exposure is compared to
/// [`CERT_PATH`]; growth produces [`Rule::DetFlow`] findings anchored at
/// the sink's declaration line, each carrying the full interprocedural
/// chain. A missing certificate file is an error so CI cannot silently
/// skip the gate.
///
/// # Errors
///
/// Propagates I/O failures and certificate-format problems.
pub fn run_detflow(ws: &Workspace, against_baseline: bool) -> io::Result<DetFlowReport> {
    let mut sources = ws.core();
    sources.extend(ws.files(&DET_FLOW_ROOTS, false)?);
    sources.sort_by(|a, b| a.rel.cmp(&b.rel));
    let mut report = analyze(&sources);
    if against_baseline {
        let cmp = DET_FLOW.compare(&report.rows(), &DET_FLOW.load(&ws.root)?);
        let by_rel: BTreeMap<&str, &SourceFile> =
            sources.iter().map(|s| (s.rel.as_str(), *s)).collect();
        for g in &cmp.growth {
            let (name, path) = (&g.key[0], &g.key[1]);
            for flow in (report.flows.iter()).filter(|f| &f.sink == name && &f.sink_path == path) {
                let src_hop = &flow.chain[0];
                let message = format!(
                    "{} from {} at {}:{} reaches det-sink({name}) `{}`, certified {} in \
                     {CERT_PATH}; sanitize before emission (BTree rebuild / sort / \
                     index-tagged merge), waive at the source with \
                     `hcperf-lint: allow(det-flow)` and a reason, or regenerate \
                     certificates deliberately with --update-baselines",
                    flow.kind.describe(),
                    src_hop.what,
                    src_hop.path,
                    src_hop.line,
                    flow.sink_fn,
                    g.baseline
                        .map_or_else(|| "nothing (new sink)".to_owned(), status),
                );
                report.findings.push(Finding {
                    chain: flow.chain.clone(),
                    ..by_rel[path.as_str()].finding(Rule::DetFlow, flow.sink_line, message)
                });
            }
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
    use crate::ratchet::tests::{key, round_trip};

    fn src_file(rel: &str, raw: &str) -> SourceFile {
        SourceFile::new(rel, raw)
    }

    #[test]
    fn taint_flows_through_helper_with_three_hop_chain() {
        let src = src_file(
            "crates/core/src/lib.rs",
            "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m = HashMap::new();
    m.values().copied().collect()
}
fn shape() -> Vec<u32> {
    gather()
}
// hcperf-lint: det-sink(out)
fn emit() {
    let v = shape();
    drop(v);
}
",
        );
        let a = analyze(&[&src]);
        assert_eq!(a.sinks.len(), 1);
        assert_eq!(a.sinks[0].taints, 1, "{:?}", a.flows);
        assert_eq!(a.flows.len(), 1);
        let chain = &a.flows[0].chain;
        // source (gather:3) -> shape's call (7) -> emit's call (11) -> sink decl (10)
        assert_eq!(chain[0].line, 3, "{chain:?}");
        assert!(chain[0].what.contains("HashMap"));
        assert_eq!(chain[1].line, 7, "{chain:?}");
        assert_eq!(chain[2].line, 11, "{chain:?}");
        assert_eq!(chain.last().unwrap().line, 10, "{chain:?}");
        assert!(chain.last().unwrap().what.contains("det-sink(out)"));
    }

    #[test]
    fn param_taint_reaches_sink_through_callee() {
        let src = src_file(
            "crates/core/src/lib.rs",
            "\
// hcperf-lint: det-sink(out)
fn write_out(v: &[u32]) {
    drop(v);
}
fn forward(v: Vec<u32>) {
    write_out(&v);
}
fn produce() {
    let m = std::collections::HashMap::<u32, u32>::new();
    let v: Vec<u32> = m.into_values().collect();
    forward(v);
}
",
        );
        let a = analyze(&[&src]);
        assert_eq!(a.sinks[0].taints, 1, "{:?}", a.flows);
        let whats: Vec<&str> = a.flows[0].chain.iter().map(|h| h.what.as_str()).collect();
        assert!(
            whats.iter().any(|w| w.contains("passed into `forward`")),
            "{whats:?}"
        );
        assert!(
            whats.iter().any(|w| w.contains("passed into `write_out`")),
            "{whats:?}"
        );
    }

    #[test]
    fn sort_unstable_kills_taint_before_sink() {
        let src = src_file(
            "crates/core/src/lib.rs",
            "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m: HashMap<u32, u32> = HashMap::new();
    let mut v: Vec<u32> = m.into_values().collect();
    v.sort_unstable();
    v
}
// hcperf-lint: det-sink(out)
fn emit() {
    let v = gather();
    drop(v);
}
",
        );
        let a = analyze(&[&src]);
        assert_eq!(a.sinks[0].taints, 0, "{:?}", a.flows);
        assert!(a.flows.is_empty());
    }

    #[test]
    fn declared_sanitizer_fn_is_trusted_and_clears_callers() {
        let tainted = "\
fn gather(rx: Receiver<u32>) -> Vec<u32> {
    let mut v = Vec::new();
    while let Ok(x) = rx.recv() {
        v.push(x);
    }
    v
}
// hcperf-lint: det-sink(out)
fn emit(rx: Receiver<u32>) {
    let v = gather(rx);
    drop(v);
}
";
        let a = analyze(&[&src_file("crates/core/src/lib.rs", tainted)]);
        assert_eq!(a.sinks[0].taints, 1, "recv order must taint: {:?}", a.flows);

        let merged = "\
// hcperf-lint: det-sanitizer(index-tagged-merge)
fn gather(rx: Receiver<u32>) -> Vec<u32> {
    let mut v = Vec::new();
    while let Ok(x) = rx.recv() {
        v.push(x);
    }
    v
}
// hcperf-lint: det-sink(out)
fn emit(rx: Receiver<u32>) {
    let v = gather(rx);
    drop(v);
}
";
        let a = analyze(&[&src_file("crates/core/src/lib.rs", merged)]);
        assert_eq!(a.sinks[0].taints, 0, "{:?}", a.flows);
    }

    #[test]
    fn waived_source_is_excluded_with_reason() {
        let src = src_file(
            "crates/core/src/lib.rs",
            "\
// hcperf-lint: det-sink(out)
fn emit() {
    let m = std::collections::HashMap::<u32, u32>::new(); // hcperf-lint: allow(det-flow): membership only, never iterated
    drop(m);
}
",
        );
        let a = analyze(&[&src]);
        assert_eq!(a.sinks[0].taints, 0, "{:?}", a.flows);
        assert_eq!(a.waived.len(), 1);
        assert_eq!(
            a.waived[0].waived.as_deref(),
            Some("membership only, never iterated")
        );
    }

    #[test]
    fn unattached_marker_and_duplicate_name_are_findings() {
        let src = src_file(
            "crates/core/src/lib.rs",
            "\
// hcperf-lint: det-sink(orphan)

// (no fn follows within 3 lines)

// hcperf-lint: det-sink(dup)
fn a() {}
// hcperf-lint: det-sink(dup)
fn b() {}
",
        );
        let a = analyze(&[&src]);
        let msgs: Vec<&str> = a.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(a.findings.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("does not attach"), "{msgs:?}");
        assert!(
            msgs[1].contains("duplicate det-sink name `dup`"),
            "{msgs:?}"
        );
    }

    #[test]
    fn certs_round_trip_and_ratchet_on_growth() {
        let rows = vec![(key(&["a", "p.rs"]), 0), (key(&["b", "q.rs"]), 2)];
        let text = DET_FLOW.render(&rows);
        assert!(
            text.ends_with("a\tclean\tp.rs\nb\ttainted:2\tq.rs\n"),
            "{text}"
        );
        let parsed = round_trip(&DET_FLOW, &rows);
        assert!(!DET_FLOW.compare(&rows, &parsed).grew());

        // clean -> tainted trips growth; shrink is reported, not fatal.
        let grown = vec![(key(&["a", "p.rs"]), 1), (key(&["b", "q.rs"]), 1)];
        let r = DET_FLOW.compare(&grown, &parsed);
        assert_eq!(r.growth.len(), 1);
        assert_eq!(r.growth[0].key[0], "a");
        assert_eq!(r.shrink.len(), 1);
        assert!(r.grew());

        // a new sink is growth (must be blessed deliberately).
        let r = DET_FLOW.compare(&rows, &BTreeMap::new());
        assert_eq!(r.growth.len(), 2);
        crate::ratchet::tests::rejects(
            &DET_FLOW,
            &["x\tbogus\tp.rs\n", "x\ttainted:0\tp.rs\n"],
            "x\ttainted:3\tp.rs\n",
        );
    }

    #[test]
    fn wall_clock_sources_are_exempt_in_bench_only() {
        let body = "\
// hcperf-lint: det-sink(out)
fn emit() {
    let t = Instant::now();
    drop(t);
}
";
        let a = analyze(&[&src_file("crates/bench/src/lib.rs", body)]);
        assert_eq!(a.sinks[0].taints, 0, "{:?}", a.flows);
        let a = analyze(&[&src_file("crates/core/src/lib.rs", body)]);
        assert_eq!(a.sinks[0].taints, 1, "{:?}", a.flows);
    }
}
