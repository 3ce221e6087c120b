//! The workspace call graph: heuristic name resolution over
//! [`crate::parse`] items, plus hot-path reachability.
//!
//! Resolution is *over-approximate by construction*. For every call site
//! the resolver starts from all functions sharing the callee's name, then
//! applies narrowing filters — receiver type when inferable, `self`-ness,
//! arity — but **only while a filter keeps at least one candidate**. A
//! filter that would empty the set is dropped, so a failed heuristic adds
//! edges instead of removing them. Reachability from the declared
//! hot-path roots is therefore sound: it can contain functions that are
//! never actually called from a hot path (same-named methods on other
//! types), but it cannot miss one that is. The hot-path ratchet baseline
//! absorbs the false positives.

use std::collections::BTreeMap;

use crate::parse::{CallSite, LoopSite, Receiver};
use crate::source::SourceFile;

/// One function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait subject type, if any.
    pub impl_type: Option<String>,
    /// Parameter count including `self`.
    pub arity: usize,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the body in the file's raw text.
    pub body: Option<(usize, usize)>,
    /// True when declared via `// hcperf-lint: hot-path-root`.
    pub is_root: bool,
    /// Sink name when declared via `// hcperf-lint: det-sink(<name>)`.
    pub sink: Option<String>,
    /// True when declared via `// hcperf-lint: det-sanitizer(<name>)`.
    pub sanitizer: bool,
}

impl FnNode {
    /// `Type::name` for methods, `name` for free functions.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site of a node together with its resolved candidate callees —
/// the per-site view the WCET pass needs (a callee's cost multiplies by
/// the loops enclosing the *site*, so collapsing to `edges` loses it).
#[derive(Debug, Clone)]
pub struct SiteEdge {
    /// The call site as parsed.
    pub site: CallSite,
    /// Candidate callee node indices, sorted, deduped. Empty when the name
    /// has no workspace definition (std / external call).
    pub callees: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes, ordered by (path, line).
    pub nodes: Vec<FnNode>,
    /// `edges[i]` are the candidate callees of `nodes[i]`, sorted, deduped.
    pub edges: Vec<Vec<usize>>,
    /// `sites[i]` are the call sites of `nodes[i]` with per-site resolution.
    pub sites: Vec<Vec<SiteEdge>>,
    /// `loops[i]` are the loops of `nodes[i]`, in source order.
    pub loops: Vec<Vec<LoopSite>>,
}

impl CallGraph {
    /// Builds the graph over `sources`, parsing each unless an earlier
    /// graph already did.
    #[must_use]
    pub fn of(sources: &[&SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut site_lists = Vec::new();
        let mut loops = Vec::new();
        for file in sources.iter().map(|s| s.parsed()) {
            for ((item, sites), fn_loops) in file.fns.iter().zip(&file.calls).zip(&file.loops) {
                nodes.push(FnNode {
                    path: file.path.clone(),
                    name: item.name.clone(),
                    impl_type: item.impl_type.clone(),
                    arity: item.arity,
                    has_self: item.has_self,
                    line: item.line,
                    body: item.body,
                    is_root: item.is_root,
                    sink: item.sink.clone(),
                    sanitizer: item.sanitizer,
                });
                site_lists.push(sites);
                loops.push(fn_loops.clone());
            }
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, node) in nodes.iter().enumerate() {
            by_name.entry(&node.name).or_default().push(idx);
        }
        let mut edges = Vec::with_capacity(nodes.len());
        let mut site_edges = Vec::with_capacity(nodes.len());
        for (caller, sites) in site_lists.iter().enumerate() {
            let mut out = Vec::new();
            let mut resolved = Vec::with_capacity(sites.len());
            for site in sites.iter() {
                let mut callees = resolve(site, &nodes[caller], &by_name, &nodes);
                callees.sort_unstable();
                callees.dedup();
                out.extend(callees.iter().copied());
                resolved.push(SiteEdge {
                    site: site.clone(),
                    callees,
                });
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
            site_edges.push(resolved);
        }
        CallGraph {
            nodes,
            edges,
            sites: site_edges,
            loops,
        }
    }

    /// Indices of declared hot-path roots.
    #[must_use]
    pub fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_root)
            .collect()
    }

    /// Fixed-point reachability from the declared roots (roots included).
    #[must_use]
    pub fn reachable_from_roots(&self) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = self.roots();
        for &r in &stack {
            seen[r] = true;
        }
        while let Some(at) = stack.pop() {
            for &next in &self.edges[at] {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| seen[i]).collect()
    }
}

/// Resolves one call site to candidate node indices; see the module docs
/// for the narrowing policy.
fn resolve(
    site: &crate::parse::CallSite,
    caller: &FnNode,
    by_name: &BTreeMap<&str, Vec<usize>>,
    nodes: &[FnNode],
) -> Vec<usize> {
    let Some(named) = by_name.get(site.name.as_str()) else {
        return Vec::new();
    };
    let mut candidates = named.clone();

    // Receiver-shape filter.
    let narrowed: Vec<usize> = match &site.receiver {
        Receiver::SelfMethod => candidates
            .iter()
            .copied()
            .filter(|&i| nodes[i].impl_type == caller.impl_type && nodes[i].impl_type.is_some())
            .collect(),
        Receiver::Path(seg) => {
            let subject = if seg == "Self" {
                caller.impl_type.clone()
            } else {
                Some(seg.clone())
            };
            candidates
                .iter()
                .copied()
                .filter(|&i| nodes[i].impl_type == subject && subject.is_some())
                .collect()
        }
        Receiver::Method => candidates
            .iter()
            .copied()
            .filter(|&i| nodes[i].has_self)
            .collect(),
        Receiver::Free => candidates
            .iter()
            .copied()
            .filter(|&i| !nodes[i].has_self)
            .collect(),
    };
    if !narrowed.is_empty() {
        candidates = narrowed;
    }

    // Arity filter. Dot-method shapes consume one extra slot for the
    // receiver; path and free calls pass every parameter (including a UFCS
    // receiver) inside the parentheses.
    let expected = match &site.receiver {
        Receiver::SelfMethod | Receiver::Method => site.args + 1,
        Receiver::Path(_) | Receiver::Free => site.args,
    };
    let narrowed: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| nodes[i].arity == expected)
        .collect();
    if !narrowed.is_empty() {
        candidates = narrowed;
    }

    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::new(path, src))
            .collect();
        CallGraph::of(&sources.iter().collect::<Vec<_>>())
    }

    fn idx(g: &CallGraph, qualified: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qualified() == qualified)
            .unwrap_or_else(|| panic!("no node {qualified}"))
    }

    #[test]
    fn method_resolution_prefers_receiver_type() {
        let g = graph(&[(
            "a.rs",
            "\
struct A; struct B;
impl A { fn go(&self) {} }
impl B { fn go(&self) {} }
impl A { fn caller(&self) { self.go(); } }
",
        )]);
        let caller = idx(&g, "A::caller");
        assert_eq!(g.edges[caller], vec![idx(&g, "A::go")]);
    }

    #[test]
    fn ambiguous_method_over_approximates_to_all_receivers() {
        let g = graph(&[(
            "a.rs",
            "\
struct A; struct B;
impl A { fn go(&self) {} }
impl B { fn go(&self) {} }
fn caller(x: &A) { x.go(); }
",
        )]);
        let caller = idx(&g, "caller");
        // `x.go()` cannot infer the receiver type: both impls are edges.
        assert_eq!(g.edges[caller], vec![idx(&g, "A::go"), idx(&g, "B::go")]);
    }

    #[test]
    fn path_call_filters_by_type_and_falls_back() {
        let g = graph(&[(
            "a.rs",
            "\
struct A;
impl A { fn make() -> A { A } }
mod helpers { pub fn make() -> u32 { 0 } }
fn caller() { A::make(); helpers::make(); }
",
        )]);
        let caller = idx(&g, "caller");
        // `A::make` narrows to the impl; `helpers::make` has no type named
        // `helpers`, so the filter would empty the set and is dropped —
        // both `make`s stay candidates for that site.
        assert!(g.edges[caller].contains(&idx(&g, "A::make")));
        assert!(g.edges[caller].contains(&idx(&g, "make")));
    }

    #[test]
    fn reachability_reaches_fixed_point_across_files() {
        let g = graph(&[
            (
                "a.rs",
                "\
// hcperf-lint: hot-path-root
fn root() { middle(1); }
",
            ),
            ("b.rs", "fn middle(x: u32) { leaf(); }"),
            ("c.rs", "fn leaf() {}\nfn unreached() { leaf(); }"),
        ]);
        let reach: Vec<String> = g
            .reachable_from_roots()
            .iter()
            .map(|&i| g.nodes[i].qualified())
            .collect();
        assert_eq!(reach, vec!["root", "middle", "leaf"]);
    }

    #[test]
    fn arity_narrows_same_named_free_fns_across_files() {
        let g = graph(&[
            ("a.rs", "pub fn f(a: u32) {}"),
            ("b.rs", "pub fn f() {}"),
            ("c.rs", "fn caller() { f(1); }"),
        ]);
        let caller = idx(&g, "caller");
        let targets: Vec<&str> = g.edges[caller]
            .iter()
            .map(|&i| g.nodes[i].path.as_str())
            .collect();
        assert_eq!(targets, vec!["a.rs"], "arity 1 picks the a.rs overload");
    }

    #[test]
    fn per_site_resolution_is_retained_for_wcet() {
        let g = graph(&[(
            "a.rs",
            "\
fn leaf() {}
fn caller(n: usize) {
    for _ in 0..n { leaf(); }
    external_name();
}
",
        )]);
        let caller = idx(&g, "caller");
        assert_eq!(g.sites[caller].len(), 2);
        assert_eq!(g.sites[caller][0].callees, vec![idx(&g, "leaf")]);
        assert!(g.sites[caller][1].callees.is_empty(), "external: no edge");
        assert_eq!(g.loops[caller].len(), 1);
    }

    #[test]
    fn self_path_resolves_to_enclosing_impl() {
        let g = graph(&[(
            "a.rs",
            "\
struct A;
impl A {
    fn new() -> A { A }
    fn caller(&self) { Self::new(); }
}
",
        )]);
        let caller = idx(&g, "A::caller");
        assert_eq!(g.edges[caller], vec![idx(&g, "A::new")]);
    }
}
