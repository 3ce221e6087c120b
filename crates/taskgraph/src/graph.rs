//! Validated task DAGs.
//!
//! A [`TaskGraph`] is an immutable directed acyclic graph of [`TaskSpec`]
//! nodes. Edges encode precedence constraints: a job of task `τ_j` may
//! release only after every immediate predecessor's job of the same
//! pipeline cycle completed in time (§ II and § III-A of the paper). Edge
//! order carries no semantics beyond iteration order: it fixes the order
//! of [`TaskGraph::ipred`] and [`TaskGraph::isucc`], and through that the
//! order in which a simulator numbers the jobs of one cycle.
//!
//! Graphs are built with [`TaskGraphBuilder`], which rejects cycles,
//! duplicate edges, dangling endpoints and duplicate task names.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::exec::ExecContext;
use crate::task::{TaskId, TaskSpec};
use crate::time::SimSpan;

/// A directed edge `τ_from → τ_to` (a precedence constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Predecessor task.
    pub from: TaskId,
    /// Successor task.
    pub to: TaskId,
}

/// Error produced while building or validating a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a task id that was never added.
    UnknownTask(TaskId),
    /// The same directed edge was added twice.
    DuplicateEdge(Edge),
    /// A self-loop `τ → τ` was added.
    SelfLoop(TaskId),
    /// The edges contain a directed cycle (not a DAG); carries one task on
    /// the cycle.
    Cycle(TaskId),
    /// Two tasks share the same name.
    DuplicateName(String),
    /// The graph has no tasks.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(id) => write!(f, "edge references unknown task {id}"),
            GraphError::DuplicateEdge(e) => {
                write!(f, "duplicate edge {} -> {}", e.from, e.to)
            }
            GraphError::SelfLoop(id) => write!(f, "self loop on task {id}"),
            GraphError::Cycle(id) => write!(f, "graph contains a cycle through {id}"),
            GraphError::DuplicateName(name) => write!(f, "duplicate task name {name:?}"),
            GraphError::Empty => f.write_str("graph contains no tasks"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable, validated task DAG.
///
/// # Examples
///
/// ```
/// use hcperf_taskgraph::{TaskGraph, TaskSpec};
///
/// let mut b = TaskGraph::builder();
/// let cam = b.add_task(TaskSpec::builder("camera").build()?);
/// let det = b.add_task(TaskSpec::builder("detect").build()?);
/// b.add_edge(cam, det)?;
/// let graph = b.build()?;
/// assert_eq!(graph.sources(), &[cam]);
/// assert_eq!(graph.sinks(), &[det]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
    edges: Vec<Edge>,
    ipred: Vec<Vec<TaskId>>,
    isucc: Vec<Vec<TaskId>>,
    sources: Vec<TaskId>,
    sinks: Vec<TaskId>,
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// Starts building a graph.
    #[must_use]
    pub fn builder() -> TaskGraphBuilder {
        TaskGraphBuilder::default()
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if the graph has no tasks (never true for a built
    /// graph, which requires at least one task).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Returns the spec of task `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn spec(&self, id: TaskId) -> &TaskSpec {
        &self.tasks[id.index()]
    }

    /// Returns the spec of task `id`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.get(id.index())
    }

    /// Iterates over `(TaskId, &TaskSpec)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, spec)| (TaskId::new(i), spec))
    }

    /// All task ids in id order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::new)
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Immediate predecessors of `id` (the paper's `ipred(τ_i)`), in the
    /// order their edges were added.
    #[must_use]
    pub fn ipred(&self, id: TaskId) -> &[TaskId] {
        &self.ipred[id.index()]
    }

    /// Immediate successors of `id`, in the order their edges were added.
    #[must_use]
    pub fn isucc(&self, id: TaskId) -> &[TaskId] {
        &self.isucc[id.index()]
    }

    /// Source tasks (no incoming edges) — the sensing tasks whose rates the
    /// external coordinator adapts.
    #[must_use]
    pub fn sources(&self) -> &[TaskId] {
        &self.sources
    }

    /// Sink tasks (no outgoing edges) — the control tasks that emit commands.
    #[must_use]
    pub fn sinks(&self) -> &[TaskId] {
        &self.sinks
    }

    /// A topological order of the tasks (sources first).
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Looks a task up by name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name() == name)
            .map(TaskId::new)
    }

    /// Returns `true` if `ancestor` can reach `descendant` through directed
    /// edges (`ancestor == descendant` counts as reachable).
    #[must_use]
    pub fn reaches(&self, ancestor: TaskId, descendant: TaskId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut seen = vec![false; self.tasks.len()];
        let mut stack = vec![ancestor];
        while let Some(t) = stack.pop() {
            for &s in self.isucc(t) {
                if s == descendant {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Length of the critical path through the graph in nominal execution
    /// time under `ctx` — a lower bound on the end-to-end latency of one
    /// pipeline cycle.
    #[must_use]
    pub fn critical_path(&self, ctx: ExecContext) -> SimSpan {
        let mut dist = vec![SimSpan::ZERO; self.tasks.len()];
        for &id in &self.topo {
            let own = self.spec(id).exec_model().nominal(ctx);
            let pred_max = self
                .ipred(id)
                .iter()
                .map(|p| dist[p.index()])
                .max()
                .unwrap_or(SimSpan::ZERO);
            dist[id.index()] = pred_max + own;
        }
        dist.into_iter().max().unwrap_or(SimSpan::ZERO)
    }

    /// Sum of nominal execution times of all tasks under `ctx` — the total
    /// work of one pipeline cycle.
    #[must_use]
    pub fn total_work(&self, ctx: ExecContext) -> SimSpan {
        self.tasks
            .iter()
            .map(|t| t.exec_model().nominal(ctx))
            .fold(SimSpan::ZERO, |a, b| a + b)
    }

    /// Renders the graph in Graphviz `dot` syntax, one node per task
    /// annotated with `[priority, nominal execution]` as in the paper's
    /// Fig. 11, colored by pipeline stage.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = hcperf_taskgraph::graphs::motivation_graph(&Default::default())?;
    /// let dot = g.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("sensor_fusion"));
    /// # Ok::<(), hcperf_taskgraph::GraphError>(())
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph pipeline {\n  rankdir=LR;\n  node [shape=box];\n");
        for (id, spec) in self.iter() {
            let color = match spec.stage() {
                crate::task::Stage::Sensing => "lightblue",
                crate::task::Stage::Perception => "lightyellow",
                crate::task::Stage::Localization => "lightcyan",
                crate::task::Stage::Prediction => "lightpink",
                crate::task::Stage::Planning => "lightgreen",
                crate::task::Stage::Control => "orange",
            };
            let nominal = spec
                .exec_model()
                .nominal(crate::exec::ExecContext::idle())
                .as_millis();
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\\n[{}, {:.1}ms]\" style=filled fillcolor={}];",
                id.index(),
                spec.name(),
                spec.priority().value(),
                nominal,
                color
            );
        }
        for e in &self.edges {
            let _ = writeln!(out, "  n{} -> n{};", e.from.index(), e.to.index());
        }
        out.push_str("}\n");
        out
    }

    /// Depth (longest hop count from any source) of each task; sources have
    /// depth 0. Useful for priority assignment heuristics and reporting.
    #[must_use]
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.tasks.len()];
        for &id in &self.topo {
            let d = self
                .ipred(id)
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[id.index()] = d;
        }
        depth
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TaskGraph: {} tasks, {} edges, {} sources, {} sinks",
            self.tasks.len(),
            self.edges.len(),
            self.sources.len(),
            self.sinks.len()
        )?;
        for (id, spec) in self.iter() {
            let preds: Vec<String> = self
                .ipred(id)
                .iter()
                .map(|p| self.spec(*p).name().to_owned())
                .collect();
            writeln!(f, "  {id} {spec} <- [{}]", preds.join(", "))?;
        }
        Ok(())
    }
}

/// Builder for [`TaskGraph`].
#[derive(Debug, Default, Clone)]
pub struct TaskGraphBuilder {
    tasks: Vec<TaskSpec>,
    edges: Vec<Edge>,
}

impl TaskGraphBuilder {
    /// Adds a task and returns its id.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId::new(self.tasks.len());
        self.tasks.push(spec);
        id
    }

    /// Adds a precedence edge `from → to`.
    ///
    /// Edges are kept in insertion order, which is the iteration order of
    /// [`TaskGraph::ipred`] and [`TaskGraph::isucc`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`], [`GraphError::SelfLoop`] or
    /// [`GraphError::DuplicateEdge`] for malformed edges. Cycle detection
    /// happens in [`TaskGraphBuilder::build`].
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        if from.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(from));
        }
        if to.index() >= self.tasks.len() {
            return Err(GraphError::UnknownTask(to));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        let edge = Edge { from, to };
        if self.edges.contains(&edge) {
            return Err(GraphError::DuplicateEdge(edge));
        }
        self.edges.push(edge);
        Ok(())
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`], [`GraphError::DuplicateName`] or
    /// [`GraphError::Cycle`] if validation fails.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut names: BTreeMap<&str, usize> = BTreeMap::new();
        for t in &self.tasks {
            if names.insert(t.name(), 1).is_some() {
                return Err(GraphError::DuplicateName(t.name().to_owned()));
            }
        }

        let n = self.tasks.len();
        let mut ipred: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut isucc: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for e in &self.edges {
            ipred[e.to.index()].push(e.from);
            isucc[e.from.index()].push(e.to);
        }

        // Kahn's algorithm: detects cycles and yields a topological order.
        let mut indeg: Vec<usize> = ipred.iter().map(Vec::len).collect();
        let mut queue: Vec<TaskId> = (0..n).filter(|&i| indeg[i] == 0).map(TaskId::new).collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(t);
            for &s in &isucc[t.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if topo.len() != n {
            let on_cycle = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(TaskId::new)
                .expect("cycle implies a node with positive residual indegree");
            return Err(GraphError::Cycle(on_cycle));
        }

        let sources: Vec<TaskId> = (0..n)
            .filter(|&i| ipred[i].is_empty())
            .map(TaskId::new)
            .collect();
        let sinks: Vec<TaskId> = (0..n)
            .filter(|&i| isucc[i].is_empty())
            .map(TaskId::new)
            .collect();

        Ok(TaskGraph {
            tasks: self.tasks,
            edges: self.edges,
            ipred,
            isucc,
            sources,
            sinks,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Priority;
    use crate::time::SimSpan;

    fn spec(name: &str, ms: f64) -> TaskSpec {
        TaskSpec::builder(name)
            .priority(Priority::new(5))
            .relative_deadline(SimSpan::from_millis(100.0))
            .exec_model(crate::exec::ExecModel::constant(SimSpan::from_millis(ms)))
            .build()
            .unwrap()
    }

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut b = TaskGraph::builder();
        let a = b.add_task(spec("a", 10.0));
        let c = b.add_task(spec("c", 20.0));
        let d = b.add_task(spec("d", 30.0));
        let e = b.add_task(spec("e", 5.0));
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        b.add_edge(c, e).unwrap();
        b.add_edge(d, e).unwrap();
        (b.build().unwrap(), [a, c, d, e])
    }

    #[test]
    fn diamond_structure() {
        let (g, [a, c, d, e]) = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources(), &[a]);
        assert_eq!(g.sinks(), &[e]);
        assert_eq!(g.ipred(e), &[c, d]);
        assert_eq!(g.isucc(a), &[c, d]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = g
            .task_ids()
            .map(|id| order.iter().position(|&x| x == id).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn detects_cycle() {
        let mut b = TaskGraph::builder();
        let a = b.add_task(spec("a", 1.0));
        let c = b.add_task(spec("b", 1.0));
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn rejects_self_loop_and_duplicate_edge() {
        let mut b = TaskGraph::builder();
        let a = b.add_task(spec("a", 1.0));
        let c = b.add_task(spec("b", 1.0));
        assert_eq!(b.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        b.add_edge(a, c).unwrap();
        assert_eq!(
            b.add_edge(a, c),
            Err(GraphError::DuplicateEdge(Edge { from: a, to: c }))
        );
    }

    #[test]
    fn rejects_unknown_task() {
        let mut b = TaskGraph::builder();
        let a = b.add_task(spec("a", 1.0));
        let ghost = TaskId::new(99);
        assert_eq!(b.add_edge(a, ghost), Err(GraphError::UnknownTask(ghost)));
        assert_eq!(b.add_edge(ghost, a), Err(GraphError::UnknownTask(ghost)));
    }

    #[test]
    fn rejects_duplicate_name_and_empty() {
        let mut b = TaskGraph::builder();
        b.add_task(spec("x", 1.0));
        b.add_task(spec("x", 2.0));
        assert!(matches!(b.build(), Err(GraphError::DuplicateName(_))));
        assert!(matches!(
            TaskGraph::builder().build(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn reachability() {
        let (g, [a, c, d, e]) = diamond();
        assert!(g.reaches(a, e));
        assert!(g.reaches(c, e));
        assert!(!g.reaches(c, d));
        assert!(!g.reaches(e, a));
        assert!(g.reaches(a, a));
    }

    #[test]
    fn critical_path_of_diamond() {
        let (g, _) = diamond();
        // a(10) -> d(30) -> e(5) = 45 ms is the longest path.
        let cp = g.critical_path(ExecContext::idle());
        assert!((cp.as_millis() - 45.0).abs() < 1e-9);
        let total = g.total_work(ExecContext::idle());
        assert!((total.as_millis() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn depths_of_diamond() {
        let (g, [a, c, d, e]) = diamond();
        let depth = g.depths();
        assert_eq!(depth[a.index()], 0);
        assert_eq!(depth[c.index()], 1);
        assert_eq!(depth[d.index()], 1);
        assert_eq!(depth[e.index()], 2);
    }

    #[test]
    fn find_by_name() {
        let (g, [_, c, ..]) = diamond();
        assert_eq!(g.find("c"), Some(c));
        assert_eq!(g.find("zz"), None);
    }

    #[test]
    fn dot_export_mentions_every_task_and_edge() {
        let (g, _) = diamond();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        for (_, spec) in g.iter() {
            assert!(dot.contains(spec.name()));
        }
        assert_eq!(dot.matches(" -> ").count(), g.edges().len());
        assert!(dot.contains("fillcolor"));
    }

    #[test]
    fn display_contains_tasks() {
        let (g, _) = diamond();
        let s = format!("{g}");
        assert!(s.contains("4 tasks"));
        assert!(s.contains("a"));
    }
}
