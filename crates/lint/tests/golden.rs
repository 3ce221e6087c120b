//! Byte-level goldens for the `hcperf-lint` binary.
//!
//! A synthetic workspace gives every ratchet a growth row, an in-place
//! shrink, a new row and a removed row, plus waivers, a det-flow chain,
//! an Eq.-coverage orphan and an unbounded hot-path loop. Each pinned
//! invocation records the FNV-1a digest of stdout and the exit code;
//! `--update-baseline(s)` runs also pin the bytes of all four ratchet
//! artifacts. Row order inside growth and shrink is part of the bytes.
//!
//! On a mismatch the test panics with the freshly measured tables,
//! rendered as Rust source: review the diff, then paste them over the
//! constants below to accept a deliberate output change.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Ratchet artifacts, in the order the pinned tables list them.
const ARTIFACTS: [&str; 4] = [
    "crates/lint/unwrap_baseline.txt",
    "crates/lint/hotpath_baseline.txt",
    "crates/lint/wcet_certificates.txt",
    "crates/lint/detflow_certificates.txt",
];

/// Every source root the binary reads; each gets an empty `lib.rs`.
const ROOTS: [&str; 12] = [
    "crates/taskgraph/src",
    "crates/rtsim/src",
    "crates/control/src",
    "crates/vehicle/src",
    "crates/scenarios/src",
    "crates/core/src",
    "crates/faults/src",
    "crates/cli/src",
    "crates/lint/src",
    "crates/harness/src",
    "crates/store/src",
    "src",
];

/// Hot-path roots: `grow_root` went O(1) -> O(n) and gained an
/// allocation, `shrink_root` fell from O(n^2), `new_root` is uncertified
/// and spins in an unbounded loop, `waived_root` waives its loop and
/// its allocation.
const HOT_RS: &str = "\
use crate::helper::helper;

// hcperf-lint: hot-path-root
pub fn grow_root(xs: &[u64]) -> u64 {
    let v: Vec<u64> = xs.to_vec();
    let c = v.clone();
    let mut acc = 0;
    for x in &c {
        acc += helper(*x);
    }
    acc
}

// hcperf-lint: hot-path-root
pub fn shrink_root(xs: &[u64]) -> u64 {
    xs[0]
}

// hcperf-lint: hot-path-root
pub fn new_root(n: usize) -> usize {
    let mut k = 0;
    loop {
        k += 1;
        if k > n { break; }
    }
    println!(\"{k}\");
    k
}

// hcperf-lint: hot-path-root
pub fn waived_root(flag: bool) -> u32 {
    // hcperf-lint: allow(wcet-unbounded): exits on the second pass
    loop {
        if flag { break; }
    }
    let w = vec![1u32]; // hcperf-lint: allow(hot-path-alloc): cold startup buffer
    w.len() as u32
}
";

const HELPER_RS: &str = "\
pub fn helper(x: u64) -> u64 {
    let o: Option<u64> = Some(x);
    o.unwrap() + o.expect(\"set\")
}
";

/// Det-flow: a HashMap source two calls from `grow-sink`, a shared
/// source under `shrink-sink`, a wall-clock value in the uncertified
/// `new-sink`, and a waived membership-only set.
const FLOW_RS: &str = "\
use std::collections::HashMap;
fn gather() -> Vec<u32> {
    let m = HashMap::new();
    m.values().copied().collect()
}
fn shape() -> Vec<u32> {
    gather()
}
// hcperf-lint: det-sink(grow-sink): report bytes
fn emit_grow() {
    let v = shape();
    drop(v);
}
// hcperf-lint: det-sink(shrink-sink)
fn emit_shrink() {
    let v = gather();
    let s = std::collections::HashSet::<u32>::new(); // hcperf-lint: allow(det-flow): membership only
    drop((v, s));
}
// hcperf-lint: det-sink(new-sink)
fn emit_new() {
    let t = std::time::Instant::now();
    drop(t);
}
";

const MISC_RS: &str = "\
pub fn sentinel(x: f64) -> bool {
    // hcperf-lint: allow(float-eq): exact sentinel stored verbatim
    x == 0.0
}
pub fn inexact(x: f64) -> bool {
    x != 1.5
}
// hcperf-lint: allow(entropy)
pub fn seeded() -> u64 { 7 }
";

const EQS_RS: &str = "\
// Eq. 9 scheduling deadline.
pub fn deadline() {}
// Eq. 99 is not in the paper.
pub fn orphan() {}
";

const UNWRAP_BASELINE: &str = "\
# unwrap baseline
1\tcrates/core/src/helper.rs
5\tcrates/rtsim/src/shrinky.rs
2\tcrates/vehicle/src/gone.rs
";

const HOTPATH_BASELINE: &str = "\
# hot-path baseline
hot-path-alloc\t1\tcrates/core/src/hot.rs
hot-path-panic\t4\tcrates/core/src/hot.rs
hot-path-panic\t3\tcrates/core/src/gone.rs
hot-path-alloc\t2\tcrates/core/src/zz_gone.rs
";

const WCET_CERTS: &str = "\
# WCET certificates
grow_root\tO(1)\tcrates/core/src/hot.rs
shrink_root\tO(n^2)\tcrates/core/src/hot.rs
waived_root\tO(n)\tcrates/core/src/hot.rs
a_gone_root\tO(n)\tcrates/core/src/gone.rs
";

const DETFLOW_CERTS: &str = "\
# det-flow certificates
grow-sink\tclean\tcrates/core/src/flow.rs
shrink-sink\ttainted:3\tcrates/core/src/flow.rs
a-gone-sink\ttainted:1\tcrates/core/src/gone.rs
";

/// Which synthetic workspace a case runs against.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ws {
    /// Every ratchet has growth, shrink, new and removed rows.
    Dirty,
    /// Empty sources and empty artifacts: the all-clean paths.
    Clean,
}

fn workspace(kind: Ws, tag: usize) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "hcperf-lint-golden-{}-{kind:?}-{tag}",
        std::process::id()
    ));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clean stale golden root");
    }
    for dir in ROOTS {
        fs::create_dir_all(root.join(dir)).expect("mkdir");
        fs::write(root.join(dir).join("lib.rs"), "// empty\n").expect("seed lib.rs");
    }
    let (files, artifacts): (&[(&str, &str)], [&str; 4]) = match kind {
        Ws::Clean => (&[], ["# empty\n"; 4]),
        Ws::Dirty => (
            &[
                ("crates/core/src/hot.rs", HOT_RS),
                ("crates/core/src/helper.rs", HELPER_RS),
                ("crates/core/src/flow.rs", FLOW_RS),
                ("crates/core/src/eqs.rs", EQS_RS),
                ("crates/control/src/misc.rs", MISC_RS),
                (
                    "crates/rtsim/src/shrinky.rs",
                    "pub fn f(a: Option<u32>) -> u32 { a.unwrap() }\n",
                ),
                (
                    "crates/harness/src/newfile.rs",
                    "pub fn g(a: Option<u32>) -> u32 { a.expect(\"x\") }\n",
                ),
                (
                    "src/clock.rs",
                    "pub fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }\n",
                ),
                ("crates/core/tests/eq.rs", "// Eq. 9 pinned by a test.\n"),
            ],
            [UNWRAP_BASELINE, HOTPATH_BASELINE, WCET_CERTS, DETFLOW_CERTS],
        ),
    };
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, text).expect("write source");
    }
    for (rel, text) in ARTIFACTS.iter().zip(artifacts) {
        fs::write(root.join(rel), text).expect("write artifact");
    }
    root
}

fn read_artifacts(root: &Path) -> Vec<String> {
    ARTIFACTS
        .iter()
        .map(|rel| fs::read_to_string(root.join(rel)).expect("artifact readable"))
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One pinned invocation, run in table order: workspace, space-separated
/// arguments, stdout digest and exit code.
type Pin = (Ws, &'static str, u64, i32);

const PINS: &[Pin] = &[
    (Ws::Dirty, "--wcet --annotations", 0x27b75bb89fd39d74, 1),
    (Ws::Dirty, "--det-flow --annotations", 0x86023782955fd89c, 2),
    (Ws::Dirty, "", 0xfce781cc08428208, 1),
    (Ws::Dirty, "--annotations", 0x91f716ee43b03a8e, 1),
    (
        Ws::Dirty,
        "--hot-path --eq-coverage --annotations",
        0x766c1b2416331934,
        1,
    ),
    (Ws::Dirty, "--wcet --json", 0x99b3ab2412b4c3ea, 1),
    (Ws::Dirty, "--det-flow --json", 0x9fe25a123de3e56d, 2),
    (Ws::Dirty, "--json", 0x5fb5795cb6f86a74, 1),
    (Ws::Dirty, "--json --annotations", 0xbb505e730149ffe2, 1),
    (
        Ws::Dirty,
        "--hot-path --eq-coverage --json",
        0x830a852b484c116d,
        1,
    ),
    (Ws::Dirty, "--hot-path", 0x9ce33b9417dcd247, 2),
    (Ws::Dirty, "--eq-coverage --json", 0x8ed2b94eabcfe358, 1),
    (
        Ws::Dirty,
        "--hot-path --eq-coverage --wcet --det-flow",
        0x512896342c8420e5,
        1,
    ),
    (
        Ws::Dirty,
        "--hot-path --eq-coverage --wcet --det-flow --json --annotations",
        0xab165e84a467abf5,
        1,
    ),
    (Ws::Dirty, "--schedulability", 0xa8bc4d3c434670df, 3),
    (Ws::Dirty, "--schedulability --json", 0xd7a4b328ba672e9d, 3),
    (Ws::Dirty, "--update-baselines", 0x56edd1dc9b3a8871, 1),
    (Ws::Dirty, "--update-baseline", 0xd54c542a04f76611, 1),
    (
        Ws::Dirty,
        "--update-baseline --annotations",
        0xd54c542a04f76611,
        1,
    ),
    (
        Ws::Dirty,
        "--hot-path --update-baseline",
        0x18b1a4955605763c,
        0,
    ),
    (
        Ws::Dirty,
        "--wcet --det-flow --eq-coverage --update-baseline",
        0x60924b93b7836855,
        1,
    ),
    (
        Ws::Dirty,
        "--hot-path --wcet --update-baseline --annotations",
        0x25d73d29b00ef31c,
        1,
    ),
    (Ws::Clean, "", 0x45f78c6a34a9a717, 0),
    (Ws::Clean, "--json", 0x5ce475e532313b35, 0),
    (
        Ws::Clean,
        "--hot-path --eq-coverage --wcet --det-flow",
        0xc039c410e75f58b2,
        1,
    ),
    (
        Ws::Clean,
        "--hot-path --eq-coverage --wcet --det-flow --json",
        0xad2b2d68d035bc61,
        1,
    ),
    (Ws::Clean, "--update-baselines", 0x518749d2e41af197, 0),
];

/// Artifact bytes after each `--update-baseline(s)` run, in
/// [`ARTIFACTS`] order. Invocations not listed here must leave every
/// artifact untouched.
const WRITES: &[(Ws, &str, [&str; 4])] = &[
    (
        Ws::Dirty,
        "--update-baselines",
        [
            "# hcperf-lint unwrap-ratchet baseline: `.unwrap()`/`.expect(` occurrences in\n# library code (tests and waived lines excluded). This file may only shrink;\n# regenerate with `cargo run -p hcperf-lint -- --update-baseline`.\n2\tcrates/core/src/helper.rs\n1\tcrates/harness/src/newfile.rs\n1\tcrates/rtsim/src/shrinky.rs\n",
            "# hcperf-lint hot-path ratchet baseline: allocation and panic-capable\n# sites in functions reachable from `hot-path-root` markers. Rows are\n# `rule<TAB>count<TAB>path` and may only shrink; regenerate with\n# `cargo run -p hcperf-lint -- --hot-path --update-baseline`.\nhot-path-alloc\t2\tcrates/core/src/hot.rs\nhot-path-panic\t2\tcrates/core/src/helper.rs\nhot-path-panic\t1\tcrates/core/src/hot.rs\n",
            "# hcperf-lint WCET certificates: symbolic cost bound per hot-path\n# root, propagated over the call graph from the loop lattice. Rows\n# are `root<TAB>cost<TAB>path` in the single-variable abstraction\n# O(n^d log^l n); the ratchet rejects any cost increase. Regenerate\n# deliberately with `cargo run -p hcperf-lint -- --update-baselines`.\ngrow_root\tO(n)\tcrates/core/src/hot.rs\nnew_root\tunbounded\tcrates/core/src/hot.rs\nshrink_root\tO(1)\tcrates/core/src/hot.rs\nwaived_root\tO(n)\tcrates/core/src/hot.rs\n",
            "# hcperf-lint det-flow certificates: per-sink determinism-taint\n# exposure, measured by the interprocedural source->sink dataflow.\n# Rows are `sink<TAB>status<TAB>path` where status is `clean` or\n# `tainted:<N>` (N distinct source sites). The ratchet rejects any\n# new sink or exposure increase; regenerate deliberately with\n# `cargo run -p hcperf-lint -- --update-baselines`.\ngrow-sink\ttainted:1\tcrates/core/src/flow.rs\nnew-sink\ttainted:1\tcrates/core/src/flow.rs\nshrink-sink\ttainted:1\tcrates/core/src/flow.rs\n",
        ],
    ),
    (
        Ws::Dirty,
        "--update-baseline",
        [
            "# hcperf-lint unwrap-ratchet baseline: `.unwrap()`/`.expect(` occurrences in\n# library code (tests and waived lines excluded). This file may only shrink;\n# regenerate with `cargo run -p hcperf-lint -- --update-baseline`.\n2\tcrates/core/src/helper.rs\n1\tcrates/harness/src/newfile.rs\n1\tcrates/rtsim/src/shrinky.rs\n",
            "# hot-path baseline\nhot-path-alloc\t1\tcrates/core/src/hot.rs\nhot-path-panic\t4\tcrates/core/src/hot.rs\nhot-path-panic\t3\tcrates/core/src/gone.rs\nhot-path-alloc\t2\tcrates/core/src/zz_gone.rs\n",
            "# WCET certificates\ngrow_root\tO(1)\tcrates/core/src/hot.rs\nshrink_root\tO(n^2)\tcrates/core/src/hot.rs\nwaived_root\tO(n)\tcrates/core/src/hot.rs\na_gone_root\tO(n)\tcrates/core/src/gone.rs\n",
            "# det-flow certificates\ngrow-sink\tclean\tcrates/core/src/flow.rs\nshrink-sink\ttainted:3\tcrates/core/src/flow.rs\na-gone-sink\ttainted:1\tcrates/core/src/gone.rs\n",
        ],
    ),
    (
        Ws::Dirty,
        "--update-baseline --annotations",
        [
            "# hcperf-lint unwrap-ratchet baseline: `.unwrap()`/`.expect(` occurrences in\n# library code (tests and waived lines excluded). This file may only shrink;\n# regenerate with `cargo run -p hcperf-lint -- --update-baseline`.\n2\tcrates/core/src/helper.rs\n1\tcrates/harness/src/newfile.rs\n1\tcrates/rtsim/src/shrinky.rs\n",
            "# hot-path baseline\nhot-path-alloc\t1\tcrates/core/src/hot.rs\nhot-path-panic\t4\tcrates/core/src/hot.rs\nhot-path-panic\t3\tcrates/core/src/gone.rs\nhot-path-alloc\t2\tcrates/core/src/zz_gone.rs\n",
            "# WCET certificates\ngrow_root\tO(1)\tcrates/core/src/hot.rs\nshrink_root\tO(n^2)\tcrates/core/src/hot.rs\nwaived_root\tO(n)\tcrates/core/src/hot.rs\na_gone_root\tO(n)\tcrates/core/src/gone.rs\n",
            "# det-flow certificates\ngrow-sink\tclean\tcrates/core/src/flow.rs\nshrink-sink\ttainted:3\tcrates/core/src/flow.rs\na-gone-sink\ttainted:1\tcrates/core/src/gone.rs\n",
        ],
    ),
    (
        Ws::Dirty,
        "--hot-path --update-baseline",
        [
            "# unwrap baseline\n1\tcrates/core/src/helper.rs\n5\tcrates/rtsim/src/shrinky.rs\n2\tcrates/vehicle/src/gone.rs\n",
            "# hcperf-lint hot-path ratchet baseline: allocation and panic-capable\n# sites in functions reachable from `hot-path-root` markers. Rows are\n# `rule<TAB>count<TAB>path` and may only shrink; regenerate with\n# `cargo run -p hcperf-lint -- --hot-path --update-baseline`.\nhot-path-alloc\t2\tcrates/core/src/hot.rs\nhot-path-panic\t2\tcrates/core/src/helper.rs\nhot-path-panic\t1\tcrates/core/src/hot.rs\n",
            "# WCET certificates\ngrow_root\tO(1)\tcrates/core/src/hot.rs\nshrink_root\tO(n^2)\tcrates/core/src/hot.rs\nwaived_root\tO(n)\tcrates/core/src/hot.rs\na_gone_root\tO(n)\tcrates/core/src/gone.rs\n",
            "# det-flow certificates\ngrow-sink\tclean\tcrates/core/src/flow.rs\nshrink-sink\ttainted:3\tcrates/core/src/flow.rs\na-gone-sink\ttainted:1\tcrates/core/src/gone.rs\n",
        ],
    ),
    (
        Ws::Dirty,
        "--wcet --det-flow --eq-coverage --update-baseline",
        [
            "# unwrap baseline\n1\tcrates/core/src/helper.rs\n5\tcrates/rtsim/src/shrinky.rs\n2\tcrates/vehicle/src/gone.rs\n",
            "# hot-path baseline\nhot-path-alloc\t1\tcrates/core/src/hot.rs\nhot-path-panic\t4\tcrates/core/src/hot.rs\nhot-path-panic\t3\tcrates/core/src/gone.rs\nhot-path-alloc\t2\tcrates/core/src/zz_gone.rs\n",
            "# hcperf-lint WCET certificates: symbolic cost bound per hot-path\n# root, propagated over the call graph from the loop lattice. Rows\n# are `root<TAB>cost<TAB>path` in the single-variable abstraction\n# O(n^d log^l n); the ratchet rejects any cost increase. Regenerate\n# deliberately with `cargo run -p hcperf-lint -- --update-baselines`.\ngrow_root\tO(n)\tcrates/core/src/hot.rs\nnew_root\tunbounded\tcrates/core/src/hot.rs\nshrink_root\tO(1)\tcrates/core/src/hot.rs\nwaived_root\tO(n)\tcrates/core/src/hot.rs\n",
            "# hcperf-lint det-flow certificates: per-sink determinism-taint\n# exposure, measured by the interprocedural source->sink dataflow.\n# Rows are `sink<TAB>status<TAB>path` where status is `clean` or\n# `tainted:<N>` (N distinct source sites). The ratchet rejects any\n# new sink or exposure increase; regenerate deliberately with\n# `cargo run -p hcperf-lint -- --update-baselines`.\ngrow-sink\ttainted:1\tcrates/core/src/flow.rs\nnew-sink\ttainted:1\tcrates/core/src/flow.rs\nshrink-sink\ttainted:1\tcrates/core/src/flow.rs\n",
        ],
    ),
    (
        Ws::Dirty,
        "--hot-path --wcet --update-baseline --annotations",
        [
            "# unwrap baseline\n1\tcrates/core/src/helper.rs\n5\tcrates/rtsim/src/shrinky.rs\n2\tcrates/vehicle/src/gone.rs\n",
            "# hcperf-lint hot-path ratchet baseline: allocation and panic-capable\n# sites in functions reachable from `hot-path-root` markers. Rows are\n# `rule<TAB>count<TAB>path` and may only shrink; regenerate with\n# `cargo run -p hcperf-lint -- --hot-path --update-baseline`.\nhot-path-alloc\t2\tcrates/core/src/hot.rs\nhot-path-panic\t2\tcrates/core/src/helper.rs\nhot-path-panic\t1\tcrates/core/src/hot.rs\n",
            "# hcperf-lint WCET certificates: symbolic cost bound per hot-path\n# root, propagated over the call graph from the loop lattice. Rows\n# are `root<TAB>cost<TAB>path` in the single-variable abstraction\n# O(n^d log^l n); the ratchet rejects any cost increase. Regenerate\n# deliberately with `cargo run -p hcperf-lint -- --update-baselines`.\ngrow_root\tO(n)\tcrates/core/src/hot.rs\nnew_root\tunbounded\tcrates/core/src/hot.rs\nshrink_root\tO(1)\tcrates/core/src/hot.rs\nwaived_root\tO(n)\tcrates/core/src/hot.rs\n",
            "# det-flow certificates\ngrow-sink\tclean\tcrates/core/src/flow.rs\nshrink-sink\ttainted:3\tcrates/core/src/flow.rs\na-gone-sink\ttainted:1\tcrates/core/src/gone.rs\n",
        ],
    ),
    (
        Ws::Clean,
        "--update-baselines",
        [
            "# hcperf-lint unwrap-ratchet baseline: `.unwrap()`/`.expect(` occurrences in\n# library code (tests and waived lines excluded). This file may only shrink;\n# regenerate with `cargo run -p hcperf-lint -- --update-baseline`.\n",
            "# hcperf-lint hot-path ratchet baseline: allocation and panic-capable\n# sites in functions reachable from `hot-path-root` markers. Rows are\n# `rule<TAB>count<TAB>path` and may only shrink; regenerate with\n# `cargo run -p hcperf-lint -- --hot-path --update-baseline`.\n",
            "# hcperf-lint WCET certificates: symbolic cost bound per hot-path\n# root, propagated over the call graph from the loop lattice. Rows\n# are `root<TAB>cost<TAB>path` in the single-variable abstraction\n# O(n^d log^l n); the ratchet rejects any cost increase. Regenerate\n# deliberately with `cargo run -p hcperf-lint -- --update-baselines`.\n",
            "# hcperf-lint det-flow certificates: per-sink determinism-taint\n# exposure, measured by the interprocedural source->sink dataflow.\n# Rows are `sink<TAB>status<TAB>path` where status is `clean` or\n# `tainted:<N>` (N distinct source sites). The ratchet rejects any\n# new sink or exposure increase; regenerate deliberately with\n# `cargo run -p hcperf-lint -- --update-baselines`.\n",
        ],
    ),
];

#[test]
fn binary_output_bytes_match_the_pinned_goldens() {
    let mut pins: Vec<Pin> = Vec::new();
    let mut writes: Vec<(Ws, &str, Vec<String>)> = Vec::new();
    for (tag, &(kind, args, _, _)) in PINS.iter().enumerate() {
        let root = workspace(kind, tag);
        let before = read_artifacts(&root);
        let out = Command::new(env!("CARGO_BIN_EXE_hcperf-lint"))
            .arg("--root")
            .arg(&root)
            .args(args.split_whitespace())
            .output()
            .expect("spawn hcperf-lint");
        let code = out.status.code().expect("exit code");
        pins.push((kind, args, fnv1a(&out.stdout), code));
        let after = read_artifacts(&root);
        if after != before {
            writes.push((kind, args, after));
        }
        fs::remove_dir_all(&root).expect("remove golden root");
    }

    let pins_match = pins == PINS;
    let writes_match = writes.len() == WRITES.len()
        && writes
            .iter()
            .zip(WRITES)
            .all(|(a, b)| (a.0, a.1) == (b.0, b.1) && a.2 == b.2);
    if pins_match && writes_match {
        return;
    }
    let mut src = String::from("const PINS: &[Pin] = &[\n");
    for (kind, args, digest, code) in &pins {
        writeln!(
            src,
            "    (Ws::{kind:?}, {args:?}, 0x{digest:016x}, {code}),"
        )
        .expect("fmt");
    }
    src.push_str("];\n\nconst WRITES: &[(Ws, &str, [&str; 4])] = &[\n");
    for (kind, args, files) in &writes {
        writeln!(
            src,
            "    (\n        Ws::{kind:?},\n        {args:?},\n        ["
        )
        .expect("fmt");
        for f in files {
            writeln!(src, "            {f:?},").expect("fmt");
        }
        src.push_str("        ],\n    ),\n");
    }
    src.push_str("];\n");
    panic!("hcperf-lint output differs from the goldens; measured tables:\n{src}");
}
