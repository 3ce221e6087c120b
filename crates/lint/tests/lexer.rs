//! Property tests of the lexer and parser. On arbitrary text, and on real
//! workspace files cut short or spliced with a quote, a comment opener, a
//! raw string, a test attribute or a brace, lexing (`SourceFile::new`),
//! parsing (`parse_file`) and the rule scan never panic, and the token
//! stream stays well formed: ascending, non-overlapping, in bounds, on
//! char boundaries, and outside every comment, literal and test module.

use std::path::Path;
use std::sync::OnceLock;

use hcperf_lint::parse::parse_file;
use hcperf_lint::rules::{scan, RuleSet};
use hcperf_lint::source::SourceFile;
use hcperf_lint::Workspace;
use proptest::prelude::*;

/// Fragments random text is built from: Rust-significant bytes, keywords,
/// multi-byte characters and the directive marker, so the generator hits
/// literal, comment, lifetime and test-module edges often.
const FRAGMENTS: [&str; 40] = [
    "a",
    "b",
    "r",
    "_x",
    "0",
    "9",
    "e",
    "-",
    ".",
    " ",
    "\n",
    "\t",
    "\"",
    "'",
    "#",
    "/",
    "*",
    "\\",
    "{",
    "}",
    "[",
    "]",
    "(",
    ")",
    "<",
    "=",
    "!",
    ":",
    ";",
    "γ",
    "é",
    "😀",
    "fn f",
    "mod t",
    "while ",
    "for x in ",
    "#[cfg(test)]",
    "r#\"",
    "/*",
    "// hcperf-lint: allow(",
];

/// Splices cut into real files at random points.
const SPLICES: [&str; 6] = ["\"", "'", "/*", "r#\"", "#[cfg(test)]", "{"];

/// Builds text from `picks`: mostly fragments, sometimes any `char`.
fn text(picks: &[u32]) -> String {
    picks
        .iter()
        .map(|&p| match p % 8 {
            0 => char::from_u32(p >> 3).map_or_else(String::new, String::from),
            _ => FRAGMENTS[(p >> 3) as usize % FRAGMENTS.len()].to_owned(),
        })
        .collect()
}

/// Lexes, parses and scans `raw`, then checks the token invariants.
fn check(raw: &str) {
    let f = SourceFile::new("p.rs", raw);
    let _ = parse_file(&f);
    let _ = scan(&f, RuleSet::FULL);
    let mut skipped: Vec<(usize, usize)> = f.comments.iter().chain(&f.literals).copied().collect();
    skipped.extend(&f.test_regions);
    skipped.sort_unstable();
    let mut next_span = 0;
    let mut prev_end = 0;
    for t in &f.tokens {
        assert!(
            prev_end <= t.start && t.start < t.end && t.end <= raw.len(),
            "{t:?} in {raw:?}"
        );
        assert!(
            raw.is_char_boundary(t.start) && raw.is_char_boundary(t.end),
            "{t:?} in {raw:?}"
        );
        while skipped.get(next_span).is_some_and(|s| s.1 <= t.start) {
            next_span += 1;
        }
        // Test regions may start before a comment they contain, so every
        // span that starts before the token's end is checked.
        for s in skipped[next_span..].iter().take_while(|s| s.0 < t.end) {
            assert!(s.1 <= t.start, "{t:?} overlaps {s:?} in {raw:?}");
        }
        prev_end = t.end;
    }
}

/// The deterministic crates' sources, read once per test binary.
fn workspace_files() -> &'static [String] {
    static FILES: OnceLock<Vec<String>> = OnceLock::new();
    FILES.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = Workspace::load(&root).expect("workspace loads");
        let files = ws.core().into_iter().map(|f| f.raw.clone()).collect();
        files
    })
}

/// The largest char boundary of `s` at or below `at`.
fn floor_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len()))
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0)
}

#[test]
fn real_files_lex_cleanly() {
    for raw in workspace_files() {
        check(raw);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_lexes_parses_and_scans(picks in proptest::collection::vec(any::<u32>(), 0..120)) {
        check(&text(&picks));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutated_real_files_lex_parses_and_scans(
        file in any::<usize>(),
        cut in any::<usize>(),
        at in any::<usize>(),
        splice in 0usize..SPLICES.len() + 1,
    ) {
        let files = workspace_files();
        let raw = &files[file % files.len()];
        let cut = floor_boundary(raw, cut % (raw.len() + 1));
        let mutated = match SPLICES.get(splice) {
            // Splice at a random point of the whole file.
            Some(s) => {
                let at = floor_boundary(raw, at % (raw.len() + 1));
                format!("{}{s}{}", &raw[..at], &raw[at..])
            }
            // Truncate.
            None => raw[..cut].to_owned(),
        };
        check(&mutated);
    }
}
