//! `hcperf-lint`: the workspace's determinism and schedulability gate.
//!
//! HCPerf's evaluation rests on bit-reproducible simulation, and PR 1/PR 2
//! assert bit-identity in tests — but nothing *statically* prevented the
//! hazards that silently break it. This crate closes that gap with two
//! analysis modes, both wired into CI ahead of the build:
//!
//! 1. **Source rules** (default mode) — one std-only lexer ([`source`],
//!    no external parser) turns each file into code tokens, leaving out
//!    comments, string/char literals and `#[cfg(test)]` modules, and every
//!    pass reads that one token stream. Rule patterns are token sequences
//!    matched against it, per crate rule family:
//!    [`report::Rule::WallClock`], [`report::Rule::UnorderedIteration`],
//!    [`report::Rule::Entropy`], [`report::Rule::FloatEq`] and the
//!    [`report::Rule::UnwrapRatchet`] baseline that may only shrink.
//!    Intentional sites carry `// hcperf-lint: allow(<rule>): <reason>`
//!    waivers; diagnostics come out as human `file:line` text or `--json`.
//!
//! 2. **Schedulability audit** (`--schedulability`) — every task graph in
//!    `taskgraph::graphs` and every scenario preset is checked at its
//!    reference operating point: Eq. 9 scheduling deadlines must be
//!    positive (`Dᵢ > cᵢᵐᵃˣ`) and the Eq. 11 constraint system must admit
//!    a non-empty feasible γ range on the configured core count, decided
//!    by the paper-literal `dps::reference` oracle in strict mode.
//!
//! 3. **Hot-path purity** (`--hot-path`) — a token-tree pass ([`parse`])
//!    extracts every `fn`, impl block and call site from the token
//!    stream; [`callgraph`] resolves calls with over-approximating
//!    heuristics (receiver type when inferable, else name + arity) and
//!    computes the set reachable from functions annotated
//!    `// hcperf-lint: hot-path-root`. Inside that set, allocation
//!    constructs ([`report::Rule::HotPathAlloc`]) and panic sources
//!    ([`report::Rule::HotPathPanic`]) are ratcheted per rule against
//!    `crates/lint/hotpath_baseline.txt`.
//!
//! 4. **Eq. coverage** (`--eq-coverage`) — `Eq. N` doc tags are harvested
//!    from comments ([`eqcov`]); each of the paper's Eq. 2–12 must have at
//!    least one non-test implementation site *and* one tagged test, and
//!    tags naming undefined equations are orphans
//!    ([`report::Rule::EqCoverage`]).
//!
//! 5. **WCET certificates** (`--wcet`) — every loop in the hot-path
//!    reachable set is classified on a loop lattice
//!    (constant / input-bounded / unknown, [`parse::LoopClass`]); costs
//!    propagate interprocedurally over the call graph in a symbolic
//!    `O(n^d log^l n)` abstraction ([`wcet::Cost`]) and each root's bound
//!    becomes a certificate row in `crates/lint/wcet_certificates.txt`,
//!    ratcheted like the baselines ([`report::Rule::WcetCert`]). Unknown
//!    loops ([`report::Rule::WcetUnbounded`]) and blocking constructs
//!    ([`report::Rule::HotPathBlocking`]) in reachable code are findings
//!    unless waived. `--schedulability` cross-checks that every audit
//!    target's Eq. 9 budget is backed by certificate-covered kernels.
//!
//! 6. **Det-flow certificates** (`--det-flow`) — an interprocedural
//!    determinism-taint dataflow ([`detflow`]) over its own call graph:
//!    nondeterminism sources (unordered iteration, wall-clock values,
//!    channel arrival order, thread identity, env reads, address-seeded
//!    hashing) are flowed to fixpoint through per-function summaries to
//!    declared `// hcperf-lint: det-sink(<name>)` output sinks, with
//!    sanitizers (`BTree*` rebuilds, `sort*`, `det-sanitizer` fns)
//!    killing taint. Per-sink exposure is certified in
//!    `crates/lint/detflow_certificates.txt` and ratcheted
//!    ([`report::Rule::DetFlow`]); findings carry the full
//!    source→…→sink chain with exact lines.
//!
//! All four checked-in artifacts go through one ratchet ([`ratchet`]):
//! a [`ratchet::Format`] per file holds only what differs — header,
//! column order, value codec, and whether an absent row reads as zero
//! or as new — and one parser, renderer, comparison and row renderer
//! serve them all. Each mode's report implements
//! [`report::ModeReport`]; the binary runs the selected modes in one
//! loop over one [`workspace::Workspace`], which reads and lexes each
//! source root at most once and caches each file's parse, and in which
//! `--hot-path` and `--wcet` share one call graph.
//!
//! Exit codes are distinct per failure class — see [`report::exit`].
//!
//! # Examples
//!
//! ```
//! use hcperf_lint::rules::{scan_file, RuleSet};
//!
//! let scan = scan_file("demo.rs", "use std::time::Instant;\n", RuleSet::FULL);
//! assert_eq!(scan.findings.len(), 1);
//! ```

pub mod callgraph;
pub mod detflow;
pub mod eqcov;
pub mod hotpath;
pub mod parse;
pub mod ratchet;
pub mod report;
pub mod rules;
pub mod sched;
pub mod source;
pub mod wcet;
pub mod workspace;

pub use report::{Finding, Rule};
pub use workspace::{run_source_lint, LintReport, Workspace, BASELINE_PATH};
