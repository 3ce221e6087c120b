//! The `hcperf-lint` binary: source rules by default, `--schedulability`
//! for the Eq. 9 / Eq. 11 audit (with WCET kernel cross-check),
//! `--hot-path` for call-graph purity, `--eq-coverage` for the
//! paper-equation gate, `--wcet` for loop-bound certificates, and
//! `--det-flow` for interprocedural determinism-taint certificates. See
//! the library docs.

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use hcperf_lint::report::{exit, findings_json, render_annotations, Finding, ModeReport};
use hcperf_lint::workspace::{run_source_lint, Workspace};
use hcperf_lint::{detflow, eqcov, hotpath, sched, wcet};

const USAGE: &str = "\
hcperf-lint — determinism & schedulability gate for the HCPerf workspace

USAGE:
    hcperf-lint [--json | --update-baseline] [--annotations] [--root <path>]
    hcperf-lint --hot-path [--eq-coverage] [--wcet] [--det-flow] [--json | --update-baseline] [--annotations]
    hcperf-lint --wcet [--hot-path] [--eq-coverage] [--det-flow] [--json | --update-baseline] [--annotations]
    hcperf-lint --det-flow [--hot-path] [--eq-coverage] [--wcet] [--json | --update-baseline] [--annotations]
    hcperf-lint --eq-coverage [--hot-path] [--wcet] [--det-flow] [--json] [--annotations]
    hcperf-lint --schedulability [--json]
    hcperf-lint --update-baselines

MODES:
    (default)          scan deterministic crates for wall-clock access,
                       HashMap/HashSet, ambient entropy, float ==/!=, and
                       check the unwrap()/expect() ratchet baseline
    --hot-path         build the workspace call graph, compute the set
                       reachable from `// hcperf-lint: hot-path-root`
                       markers, and ratchet allocation / panic sites in it
                       against crates/lint/hotpath_baseline.txt
    --eq-coverage      require an implementation tag and a test tag for
                       each of the paper's Eq. 2-12; flag orphaned tags
    --wcet             classify every loop in the hot-path reachable set
                       (constant / input-bounded / unknown), propagate
                       symbolic O(n^d log^l n) costs over the call graph,
                       flag blocking constructs, and ratchet per-root
                       certificates against crates/lint/wcet_certificates.txt
    --det-flow         flow nondeterminism sources (HashMap/HashSet
                       iteration, wall-clock values, channel recv order,
                       thread identity, env reads, address-seeded hashing)
                       over the call graph to `det-sink(<name>)`-marked
                       output fns, with BTree/sort/`det-sanitizer` kills;
                       ratchet per-sink exposure against
                       crates/lint/detflow_certificates.txt
    --schedulability   audit every registered task graph and scenario
                       preset: Eq. 9 deadlines, Eq. 11 feasible γ range,
                       and WCET certificate coverage of the γ kernels

OPTIONS:
    --json             machine-readable output
    --annotations      additionally emit GitHub `::error file=…` workflow
                       commands for unwaived file-anchored findings
    --root <path>      workspace root (default: inferred from cargo)
    --update-baseline  rewrite the active mode's ratchet artifacts
                       (unwrap_baseline.txt; hotpath_baseline.txt with
                       --hot-path; wcet_certificates.txt with --wcet;
                       detflow_certificates.txt with --det-flow)
    --update-baselines regenerate all four ratchet artifacts in one run;
                       takes no other flag but --root

EXIT CODES:
    0 clean   1 findings   2 ratchet growth   3 infeasible target   4 usage
";

/// A ratchet-or-findings mode; declaration order is report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mode {
    Lint,
    HotPath,
    EqCoverage,
    Wcet,
    DetFlow,
}

impl Mode {
    const ANALYSES: [Mode; 4] = [Mode::HotPath, Mode::EqCoverage, Mode::Wcet, Mode::DetFlow];

    /// Name in the JSON `mode` key; also the flag without its dashes.
    fn name(self) -> &'static str {
        match self {
            Mode::Lint => "lint",
            Mode::HotPath => "hot-path",
            Mode::EqCoverage => "eq-coverage",
            Mode::Wcet => "wcet",
            Mode::DetFlow => "det-flow",
        }
    }

    fn run(self, ws: &Workspace, against_baseline: bool) -> io::Result<Box<dyn ModeReport>> {
        Ok(match self {
            Mode::Lint => Box::new(run_source_lint(ws, against_baseline)?),
            Mode::HotPath => Box::new(hotpath::run_hot_path(ws, against_baseline)?),
            Mode::EqCoverage => Box::new(eqcov::run_eq_coverage(ws)?),
            Mode::Wcet => Box::new(wcet::run_wcet(ws, against_baseline)?),
            Mode::DetFlow => Box::new(detflow::run_detflow(ws, against_baseline)?),
        })
    }
}

#[derive(Default)]
struct Args {
    json: bool,
    annotations: bool,
    schedulability: bool,
    analyses: BTreeSet<Mode>,
    update_baseline: bool,
    update_baselines: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--annotations" => args.annotations = true,
            "--schedulability" => args.schedulability = true,
            "--update-baseline" => args.update_baseline = true,
            "--update-baselines" => args.update_baselines = true,
            "--root" => args.root = Some(PathBuf::from(it.next().ok_or("--root requires a path")?)),
            "--help" | "-h" => return Err(String::new()),
            flag => match Mode::ANALYSES
                .iter()
                .find(|m| flag.strip_prefix("--") == Some(m.name()))
            {
                Some(&mode) => {
                    args.analyses.insert(mode);
                }
                None => return Err(format!("unknown argument `{flag}`")),
            },
        }
    }
    let updating = args.update_baseline || args.update_baselines;
    if args.schedulability && (updating || !args.analyses.is_empty() || args.annotations) {
        return Err("--schedulability cannot combine with other modes".to_owned());
    }
    if args.update_baselines
        && (args.update_baseline || !args.analyses.is_empty() || args.json || args.annotations)
    {
        return Err("--update-baselines runs alone; it already covers every artifact".to_owned());
    }
    if updating && args.json {
        return Err("--update-baseline prints rewrite notes, not JSON; drop --json".to_owned());
    }
    if args.update_baseline && args.analyses.iter().eq([&Mode::EqCoverage]) {
        return Err("--eq-coverage has no baseline to update".to_owned());
    }
    Ok(args)
}

/// The workspace root: `--root`, else two levels above this crate's
/// manifest (set by cargo), else the current directory.
fn resolve_root(args: &Args) -> PathBuf {
    if let Some(r) = &args.root {
        return r.clone();
    }
    std::env::var("CARGO_MANIFEST_DIR")
        .ok()
        .and_then(|m| PathBuf::from(m).ancestors().nth(2).map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let code = match parse_args() {
        Ok(args) => run(&args).unwrap_or_else(|e| {
            eprintln!("hcperf-lint: {e}");
            exit::USAGE
        }),
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            exit::CLEAN
        }
        Err(msg) => {
            eprintln!("hcperf-lint: {msg}\n\n{USAGE}");
            exit::USAGE
        }
    };
    ExitCode::from(u8::try_from(code).unwrap_or(u8::MAX))
}

/// Runs the selected modes over one workspace load and prints their
/// combined report. Any structural finding dominates the exit code;
/// otherwise any ratchet growth yields `RATCHET`.
///
/// `--update-baseline` rewrites each selected mode's artifact and
/// `--update-baselines` all four in one run, so a deliberate count or
/// cost change is one reviewable diff. Structural findings still gate
/// both: artifacts absorb counts, not new violations.
fn run(args: &Args) -> io::Result<i32> {
    let root = resolve_root(args);
    if args.schedulability {
        let results = sched::audit_all();
        let gaps = sched::wcet_cross_check(&results, &root)?;
        if args.json {
            println!("{}", sched::render_json(&results, &gaps));
        } else {
            print!("{}", sched::render_human(&results));
            print!("{}", sched::render_gaps_human(&gaps));
        }
        return Ok(sched::exit_code(&results, &gaps));
    }

    let modes: Vec<Mode> = if args.update_baselines {
        vec![Mode::Lint, Mode::HotPath, Mode::Wcet, Mode::DetFlow]
    } else if args.analyses.is_empty() {
        vec![Mode::Lint]
    } else {
        args.analyses.iter().copied().collect()
    };
    let updating = args.update_baseline || args.update_baselines;
    let ws = Workspace::load(&root)?;
    let reports = (modes.iter())
        .map(|m| m.run(&ws, !updating))
        .collect::<io::Result<Vec<_>>>()?;
    let findings: Vec<Finding> = reports.iter().flat_map(|r| r.findings().to_vec()).collect();
    let code = exit::code(&findings, reports.iter().any(|r| r.grew()));
    let lint = modes == [Mode::Lint];

    if updating {
        let artifacts: Vec<_> = reports.iter().filter_map(|r| r.artifact()).collect();
        for a in &artifacts {
            let path = root.join(a.path);
            std::fs::write(&path, &a.text).map_err(|e| {
                io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
            })?;
            if !args.update_baselines {
                println!("{}", a.rewritten);
            }
        }
        if args.update_baselines {
            let briefs: Vec<&str> = artifacts.iter().map(|a| a.brief.as_str()).collect();
            println!("hcperf-lint: baselines rewritten — {}", briefs.join(", "));
            for f in &findings {
                println!("{}", f.render());
            }
            return Ok(code);
        }
        if lint {
            if !findings.is_empty() {
                print!("{}", reports[0].human());
            }
            return Ok(code);
        }
    }

    if args.json {
        let body = if lint {
            reports[0].json()
        } else {
            let mut fields: Vec<String> = Mode::ANALYSES
                .iter()
                .map(|m| {
                    let section = modes
                        .iter()
                        .position(|x| x == m)
                        .map_or_else(|| "null".to_owned(), |i| reports[i].json());
                    format!("\"{}\":{section}", m.name().replace('-', "_"))
                })
                .collect();
            let waived: Vec<Finding> = reports.iter().flat_map(|r| r.waived().to_vec()).collect();
            fields.push(format!("\"findings\":[{}]", findings_json(&findings)));
            fields.push(format!("\"waived\":[{}]", findings_json(&waived)));
            fields.join(",")
        };
        let names: Vec<&str> = modes.iter().map(|m| m.name()).collect();
        println!(
            "{{\"schema_version\":{},\"mode\":\"{}\",{body},\"exit_code\":{code}}}",
            hcperf_lint::report::SCHEMA_VERSION,
            names.join("+"),
        );
    } else if lint {
        print!("{}", reports[0].human());
    } else {
        for r in &reports {
            print!("{}", r.human());
        }
        println!(
            "hcperf-lint: {}",
            match code {
                exit::CLEAN => "analysis clean",
                exit::RATCHET => "RATCHET GROWTH",
                _ => "FAILED",
            }
        );
    }
    if args.annotations {
        print!("{}", render_annotations(&findings));
    }
    Ok(code)
}
