//! The rule families and the per-file scan.

use crate::report::{Finding, Rule};
use crate::source::{waiver_for, Pattern, SourceFile, TokKind};

/// Which rule families apply to a file (derived from its crate).
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// `Instant` / `SystemTime` / `thread::sleep`.
    pub wall_clock: bool,
    /// `HashMap` / `HashSet`, `thread_rng`-style entropy, and float `==`
    /// — the deterministic-crate rules.
    pub determinism: bool,
    /// The `unwrap()`/`expect()` ratchet (panic-surface accounting).
    pub unwrap_ratchet: bool,
}

impl RuleSet {
    /// Every rule family (the six deterministic crates).
    pub const FULL: RuleSet = RuleSet {
        wall_clock: true,
        determinism: true,
        unwrap_ratchet: true,
    };
    /// Wall-clock only (crates that orchestrate but must not time things
    /// themselves: `cli`, `lint`, the umbrella `src/`).
    pub const WALL_CLOCK_ONLY: RuleSet = RuleSet {
        wall_clock: true,
        determinism: false,
        unwrap_ratchet: false,
    };
    /// Unwrap ratchet only: crates that legitimately read wall clocks
    /// (the harness times real execution) but whose library code must
    /// stay panic-free — a worker pool that panics takes a fleet run
    /// down with it.
    pub const RATCHET_ONLY: RuleSet = RuleSet {
        wall_clock: false,
        determinism: false,
        unwrap_ratchet: true,
    };
}

/// Token patterns per rule, with the message they carry. Matched on code
/// tokens, so `Instant` does not fire inside `InstantLike` and never
/// inside comments, strings, or test modules. The first rule needs
/// [`RuleSet::wall_clock`], the others [`RuleSet::determinism`].
const WORD_RULES: [(Rule, &[&str], &str); 3] = [
    (
        Rule::WallClock,
        &["Instant", "SystemTime", "thread::sleep"],
        "wall-clock access breaks replayability; take times from the simulation clock",
    ),
    (
        Rule::UnorderedIteration,
        &["HashMap", "HashSet"],
        "iteration order is seeded per process; use BTreeMap/BTreeSet or an indexed Vec",
    ),
    (
        Rule::Entropy,
        &["thread_rng", "from_entropy", "RandomState"],
        "ambient entropy is not replayable; derive randomness from the scenario seed",
    ),
];

/// Result of scanning one file.
#[derive(Debug)]
pub struct FileScan {
    /// Findings that no waiver covers (fail the run).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a matching waiver (reported, non-fatal).
    pub waived: Vec<Finding>,
    /// `unwrap()`/`expect()` occurrences in library code after waivers,
    /// fed into the ratchet comparison.
    pub unwrap_count: usize,
}

/// Scans one file's source text under `rules`.
#[must_use]
pub fn scan_file(path: &str, source: &str, rules: RuleSet) -> FileScan {
    scan(&SourceFile::new(path, source), rules)
}

/// Scans one loaded file under `rules`.
#[must_use]
pub fn scan(src: &SourceFile, rules: RuleSet) -> FileScan {
    let mut raw: Vec<Finding> = src
        .waivers
        .iter()
        .filter(|w| w.rule.is_none())
        .map(|w| {
            src.finding(
                Rule::WaiverSyntax,
                w.line,
                format!(
                    "malformed waiver `{}`; expected `hcperf-lint: allow(<rule>): <reason>`",
                    w.reason
                ),
            )
        })
        .collect();

    let enabled = |rule| match rule {
        Rule::WallClock => rules.wall_clock,
        _ => rules.determinism,
    };
    let whole = (0, src.raw.len());
    for (rule, patterns, message) in WORD_RULES.into_iter().filter(|(r, ..)| enabled(*r)) {
        for pat in Pattern::all(patterns) {
            for at in src.find(&pat, whole) {
                let message = format!("`{}`: {message}", pat.text);
                raw.push(src.finding(rule, src.line_of(at), message));
            }
        }
    }
    if rules.wall_clock || rules.determinism {
        // Findings from different patterns interleave; report in line order.
        raw.sort_by_key(|a| (a.line, a.rule));
    }
    if rules.determinism {
        scan_float_eq(&mut raw, src);
    }

    let mut findings = Vec::new();
    let mut waived = Vec::new();
    for mut f in raw {
        match waiver_for(&src.waivers, f.rule, f.line) {
            Some(reason) => {
                f.waived = Some(reason);
                waived.push(f);
            }
            None => findings.push(f),
        }
    }

    // `.unwrap()` / `.expect(` in library code, skipping lines covered by
    // an `allow(unwrap-ratchet)` waiver.
    let unwrap_count = if rules.unwrap_ratchet {
        (Pattern::all(&[".unwrap()", ".expect("]).iter())
            .flat_map(|pat| src.find(pat, whole))
            .filter(|&at| waiver_for(&src.waivers, Rule::UnwrapRatchet, src.line_of(at)).is_none())
            .count()
    } else {
        0
    };

    FileScan {
        findings,
        waived,
        unwrap_count,
    }
}

/// Flags `==`/`!=` where either operand is a float literal (or a known
/// float accessor). Exact float comparison is only sound against a value
/// stored verbatim, never a computed one — use the approx helpers instead.
fn scan_float_eq(out: &mut Vec<Finding>, src: &SourceFile) {
    let toks = &src.tokens;
    let glued = |a: usize, b: usize| toks[a].end == toks[b].start;
    let punct = |at: usize, set: &[u8]| {
        toks.get(at)
            .is_some_and(|t| matches!(t.kind, TokKind::Punct(p) if set.contains(&p)))
    };
    for j in 1..toks.len() {
        let op = j - 1;
        // `==` / `!=` as two glued tokens, not `<=`, `>=`, `!==` or the
        // trailing half of a previous `==`.
        if !(punct(op, b"=!") && punct(j, b"=") && glued(op, j))
            || punct(op, b"=") && op > 0 && glued(op - 1, op) && punct(op - 1, b"=!<>")
            || j + 1 < toks.len() && glued(j, j + 1) && punct(j + 1, b"=")
        {
            continue;
        }
        let left = operand(src, op, false);
        let right = operand(src, j, true);
        if is_float_operand(&left) || is_float_operand(&right) {
            out.push(src.finding(
                Rule::FloatEq,
                src.line_of(toks[op].start),
                format!(
                    "float `{}` comparison (`{left}` vs `{right}`); compare with an epsilon or justify the exact sentinel",
                    if src.text(&toks[op]) == "=" { "==" } else { "!=" },
                ),
            ));
        }
    }
}

/// The operand text beside the comparison operator whose edge token is
/// `toks[edge]`: the run of glued identifier, number, `.`, `(` and `)`
/// tokens on the operator's line (a leading `-` included on the right).
fn operand(src: &SourceFile, edge: usize, right: bool) -> String {
    let toks = &src.tokens;
    let part = |k: usize| match toks[k].kind {
        TokKind::Ident | TokKind::Num => true,
        TokKind::Punct(p) => matches!(p, b'.' | b'(' | b')'),
        TokKind::Lifetime => false,
    };
    let glued = |k: usize| toks[k - 1].end == toks[k].start;
    let line = src.line_of(toks[edge].start);
    let (lo, hi) = if right {
        let first = edge + 1;
        let starts = |k: usize| part(k) || toks[k].kind == TokKind::Punct(b'-');
        if first >= toks.len() || src.line_of(toks[first].start) != line || !starts(first) {
            return String::new();
        }
        let mut hi = first + 1;
        while hi < toks.len() && glued(hi) && part(hi) {
            hi += 1;
        }
        (first, hi)
    } else {
        let on_line = |&k: &usize| src.line_of(toks[k].end) == line && part(k);
        let Some(last) = edge.checked_sub(1).filter(on_line) else {
            return String::new();
        };
        let mut lo = last;
        while lo > 0 && glued(lo) && part(lo - 1) {
            lo -= 1;
        }
        (lo, last + 1)
    };
    src.joined(&toks[lo..hi])
}

/// Accessors that return `f64` on this workspace's newtypes; comparing
/// their results exactly is as fragile as comparing raw floats.
const FLOAT_ACCESSORS: [&str; 4] = [".as_secs()", ".as_millis()", ".as_hz()", ".as_meters()"];

fn is_float_operand(token: &str) -> bool {
    if FLOAT_ACCESSORS.iter().any(|a| token.ends_with(a)) {
        return true;
    }
    is_float_literal(token)
}

fn is_float_literal(token: &str) -> bool {
    let t = token.strip_prefix('-').unwrap_or(token);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    let t = t.strip_suffix('.').unwrap_or(t);
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    // `1.0`, `1.5e-3`, `1e9` are floats; `10`, `0x1f`, `1_000` are not.
    let has_dot = t.contains('.');
    let has_exp = !t.starts_with("0x")
        && t.contains(['e', 'E'])
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, 'e' | 'E' | '+' | '-' | '.' | '_'));
    (has_dot || has_exp)
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-' | '_'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> FileScan {
        scan_file("test.rs", src, RuleSet::FULL)
    }

    #[test]
    fn word_boundaries_respected() {
        let s = scan("struct InstantLike; fn f(x: MyHashMapper) {}\n");
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        let s = scan("use std::time::Instant;\n");
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].rule, Rule::WallClock);
    }

    #[test]
    fn float_eq_detection() {
        let hits = [
            "if x == 0.0 {}",
            "if 1.5e-3 != y {}",
            "if t.as_secs() == u {}",
            "if x == -2.5f64 {}",
        ];
        for h in hits {
            let s = scan(h);
            assert_eq!(s.findings.len(), 1, "{h}");
            assert_eq!(s.findings[0].rule, Rule::FloatEq, "{h}");
        }
        let clean = [
            "if x == 0 {}",
            "if x <= 1.0 {}",
            "if x >= 1.0 {}",
            "let y = x == y;",
            "match x { 0 => 1, _ => 2 }",
        ];
        for c in clean {
            let s = scan(c);
            assert!(s.findings.is_empty(), "{c}: {:?}", s.findings);
        }
    }

    #[test]
    fn waiver_suppresses_only_matching_rule_nearby() {
        let src = "\
// hcperf-lint: allow(float-eq): exact sentinel by construction
if x == 0.0 {}
if y == 0.0 {}
";
        let s = scan(src);
        assert_eq!(s.waived.len(), 1);
        assert_eq!(s.waived[0].line, 2);
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].line, 3);
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "let m = HashMap::new(); // hcperf-lint: allow(unordered-iteration): scratch map, never iterated\n";
        let s = scan(src);
        assert!(s.findings.is_empty(), "{:?}", s.findings);
        assert_eq!(s.waived.len(), 1);
    }

    #[test]
    fn unwrap_count_skips_tests_and_waived_lines() {
        let src = "\
fn lib() {
    a.unwrap();
    b.expect(\"msg\");
    c.unwrap(); // hcperf-lint: allow(unwrap-ratchet): infallible by construction
}
#[cfg(test)]
mod tests {
    fn t() { z.unwrap(); }
}
";
        let s = scan(src);
        assert_eq!(s.unwrap_count, 2);
    }

    /// An out-of-line `#[cfg(test)] mod tests;` has no body to hide: the
    /// item after it is shipping code and keeps both of its findings.
    #[test]
    fn out_of_line_test_module_does_not_hide_the_next_item() {
        let src =
            "#[cfg(test)]\nmod tests;\npub fn hot() { let m: HashMap<u32,u32> = HashMap::new(); }";
        let s = scan(src);
        let rules: Vec<Rule> = s.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![Rule::UnorderedIteration; 2], "{:?}", s.findings);
    }

    #[test]
    fn malformed_waiver_is_a_finding() {
        let s = scan("let x = 1; // hcperf-lint: allow(float-eq)\n");
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].rule, Rule::WaiverSyntax);
    }
}
