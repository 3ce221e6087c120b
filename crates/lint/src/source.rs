//! Comment/string-aware source masking and waiver-comment parsing.
//!
//! The scanner is deliberately token-light: it does not parse Rust, it only
//! tracks enough lexical state (line/block comments, string/char/raw-string
//! literals, `#[cfg(test)] mod` regions) to blank out every byte that rule
//! patterns must not match. Blanked bytes become spaces so byte offsets —
//! and therefore line numbers — stay exact.
//!
//! Besides waivers, two more outputs feed the semantic pass:
//! comment byte spans (where `Eq. N` tags live, harvested by
//! [`crate::eqcov`]) and `#[cfg(test)]`-module byte regions (so tags inside
//! unit-test modules classify as test coverage, not implementation).

use crate::report::Rule;

/// A parsed `// hcperf-lint: allow(<rule>): <reason>` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule being waived; `None` when the comment carried the marker but
    /// did not parse (reported as [`Rule::WaiverSyntax`]).
    pub rule: Option<Rule>,
    /// 1-based line the comment sits on. A waiver covers its own line and
    /// the line immediately after, so it can trail the site or precede it.
    pub line: usize,
    /// The mandatory justification text.
    pub reason: String,
}

/// Result of masking one source file.
#[derive(Debug)]
pub struct MaskedFile {
    /// Same byte length as the input; comments, string/char literals and
    /// `#[cfg(test)] mod … { … }` regions are spaces (newlines kept).
    pub masked: String,
    /// Every waiver comment found, malformed ones included.
    pub waivers: Vec<Waiver>,
    /// 1-based lines carrying a `// hcperf-lint: hot-path-root` marker;
    /// each declares the next `fn` item a hot-path root (see
    /// [`crate::hotpath`]).
    pub hot_path_roots: Vec<usize>,
    /// Byte spans of every comment (line, block, and doc) in the original
    /// source, in order. `Eq. N` tags are harvested from these.
    pub comment_spans: Vec<(usize, usize)>,
    /// Byte regions blanked as `#[cfg(…test…)] mod … { … }` test modules.
    pub test_regions: Vec<(usize, usize)>,
    /// `(line, name)` pairs for `// hcperf-lint: det-sink(<name>)` markers;
    /// each declares the next `fn` item a determinism output sink (see
    /// [`crate::detflow`]).
    pub det_sinks: Vec<(usize, String)>,
    /// `(line, name)` pairs for `// hcperf-lint: det-sanitizer(<name>)`
    /// markers; each declares the next `fn` item a trusted taint sanitizer.
    pub det_sanitizers: Vec<(usize, String)>,
}

const MARKER: &str = "hcperf-lint:";

/// True for bytes that can continue a Rust identifier.
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The reason of the waiver for `rule` covering `line`, if any. A waiver
/// covers its own line and the next, so it can trail the site or sit on
/// the line above it.
pub(crate) fn waiver_for(waivers: &[Waiver], rule: Rule, line: usize) -> Option<String> {
    waivers
        .iter()
        .find(|w| w.rule == Some(rule) && (w.line == line || w.line + 1 == line))
        .map(|w| w.reason.clone())
}

/// Byte offsets of `pat` inside the `body` byte range of `masked`, where
/// a pattern end that is an identifier byte must not touch another one
/// (`collect` does not match `recollect`; `.lock(` needs no boundary).
pub(crate) fn word_offsets(masked: &str, body: (usize, usize), pat: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let (first, last) = (pat.as_bytes()[0], pat.as_bytes()[pat.len() - 1]);
    masked[body.0..body.1]
        .match_indices(pat)
        .map(|(p, _)| body.0 + p)
        .filter(|&at| {
            let left_ok = !is_ident_byte(first) || at == 0 || !is_ident_byte(bytes[at - 1]);
            let right_ok = !is_ident_byte(last)
                || bytes.get(at + pat.len()).is_none_or(|&b| !is_ident_byte(b));
            left_ok && right_ok
        })
        .collect()
}

/// One recognised `hcperf-lint:` comment directive.
enum Directive {
    /// `allow(<rule>): <reason>` — possibly malformed (`rule: None`).
    Waiver(Waiver),
    /// `hot-path-root` — declares the next `fn` item a hot-path root.
    HotPathRoot,
    /// `det-sink(<name>)` — declares the next `fn` item a determinism
    /// output sink named `<name>`.
    DetSink(String),
    /// `det-sanitizer(<name>)` — declares the next `fn` item a trusted
    /// taint sanitizer (its output is order-stable by construction).
    DetSanitizer(String),
}

/// Masks `source` and collects waiver comments.
#[must_use]
pub fn mask(source: &str) -> MaskedFile {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut waivers = Vec::new();
    let mut hot_path_roots = Vec::new();
    let mut det_sinks = Vec::new();
    let mut det_sanitizers = Vec::new();
    let mut comment_spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = line_end(bytes, i);
                comment_spans.push((i, end));
                // Doc comments (`///`, `//!`) are prose, not directives:
                // they may legitimately *mention* the waiver syntax.
                let doc = matches!(bytes.get(i + 2), Some(&b'/') | Some(&b'!'));
                if !doc {
                    match parse_directive(&source[i..end], line_of(bytes, i)) {
                        Some(Directive::Waiver(w)) => waivers.push(w),
                        Some(Directive::HotPathRoot) => hot_path_roots.push(line_of(bytes, i)),
                        Some(Directive::DetSink(name)) => {
                            det_sinks.push((line_of(bytes, i), name));
                        }
                        Some(Directive::DetSanitizer(name)) => {
                            det_sanitizers.push((line_of(bytes, i), name));
                        }
                        None => {}
                    }
                }
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let end = block_comment_end(bytes, i);
                comment_spans.push((i, end));
                blank(&mut out, i, end);
                i = end;
            }
            b'"' => {
                let end = string_end(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'r' if raw_string_start(bytes, i).is_some() => {
                let end = raw_string_end(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let end = string_end(bytes, i + 1);
                blank(&mut out, i, end);
                i = end;
            }
            b'b' if bytes.get(i + 1) == Some(&b'r') && raw_string_start(bytes, i + 1).is_some() => {
                let end = raw_string_end(bytes, i + 1);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // A lifetime: leave it in place.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    let test_regions = mask_test_modules(&mut out);
    MaskedFile {
        masked: String::from_utf8(out).expect("masking only writes ASCII spaces"),
        waivers,
        hot_path_roots,
        comment_spans,
        test_regions,
        det_sinks,
        det_sanitizers,
    }
}

/// 1-based line number of byte offset `at`.
fn line_of(bytes: &[u8], at: usize) -> usize {
    1 + bytes[..at].iter().filter(|&&b| b == b'\n').count()
}

fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| from + p)
}

fn blank(out: &mut [u8], from: usize, to: usize) {
    for b in &mut out[from..to] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn block_comment_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return i;
            }
        } else {
            i += 1;
        }
    }
    bytes.len()
}

/// End (exclusive) of a `"…"` literal starting at the opening quote.
fn string_end(bytes: &[u8], open: usize) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// If `r"` / `r#"`-style raw string opens at `i`, returns the hash count.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<usize> {
    debug_assert_eq!(bytes[i], b'r');
    let mut hashes = 0;
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

fn raw_string_end(bytes: &[u8], r_at: usize) -> usize {
    let hashes = raw_string_start(bytes, r_at).expect("caller checked");
    let mut i = r_at + 1 + hashes + 1;
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    bytes.len()
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes.
/// Returns the end offset for a literal, `None` for a lifetime.
fn char_literal_end(bytes: &[u8], open: usize) -> Option<usize> {
    match bytes.get(open + 1) {
        Some(b'\\') => {
            // Escaped literal: exactly one payload — a single escaped char
            // (`\n`, `\'`, `\\`) or a `\u{…}` sequence — then the closing
            // quote. The payload byte must not be re-read as an escape
            // intro, or `'\\'` swallows its own closing quote and the
            // string/char parity of everything after it inverts.
            let mut i = open + 2;
            if bytes.get(i) == Some(&b'u') && bytes.get(i + 1) == Some(&b'{') {
                i += 2;
                while i < bytes.len() && bytes[i] != b'}' {
                    i += 1;
                }
                i += 1;
            } else {
                i += 1;
            }
            (bytes.get(i) == Some(&b'\'')).then(|| i + 1)
        }
        Some(_) if bytes.get(open + 2) == Some(&b'\'') => Some(open + 3),
        Some(&b) if b >= 0x80 => {
            // Multi-byte char literal like 'γ': the closing quote sits at
            // most 4 bytes after the opening one.
            (open + 2..(open + 6).min(bytes.len()))
                .find(|&j| bytes[j] == b'\'')
                .map(|j| j + 1)
        }
        _ => None,
    }
}

/// Blanks every test-gated `#[cfg(…)] mod … { … }` region in already-masked
/// bytes (string/comment-free, so brace matching is safe). Library rules
/// apply to shipping code only; unit tests may use wall clocks or `unwrap`
/// freely. The attribute is parsed tolerantly: `#[cfg(test)]`,
/// `#[ cfg ( test ) ]`, and `#[cfg(all(test, feature = "…"))]` all mask,
/// while `#[cfg(not(test))]` and `#[cfg(any(test, …))]` (both compiled
/// outside test builds) do not. Returns the blanked byte regions.
fn mask_test_modules(out: &mut [u8]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_byte(out, b'#', from) {
        from = pos + 1;
        let Some(attr_end) = parse_test_cfg_attr(out, pos) else {
            continue;
        };
        // Skip whitespace, further attributes, and an optional `pub(…)`
        // visibility between the attribute and the `mod` keyword.
        let mut i = attr_end;
        loop {
            while i < out.len() && out[i].is_ascii_whitespace() {
                i += 1;
            }
            if out.get(i) == Some(&b'#') {
                if let Some(end) = attribute_end(out, i) {
                    i = end;
                    continue;
                }
            }
            break;
        }
        if out[i..].starts_with(b"pub") {
            i += 3;
            while i < out.len() && out[i].is_ascii_whitespace() {
                i += 1;
            }
            if out.get(i) == Some(&b'(') {
                if let Some(close) = find_byte(out, b')', i) {
                    i = close + 1;
                }
                while i < out.len() && out[i].is_ascii_whitespace() {
                    i += 1;
                }
            }
        }
        let is_mod =
            out[i..].starts_with(b"mod") && out.get(i + 3).is_some_and(|b| b.is_ascii_whitespace());
        if !is_mod {
            continue;
        }
        let Some(open) = find_byte(out, b'{', i) else {
            // `#[cfg(test)] mod tests;` — out-of-line module, nothing to
            // blank here (the file itself is not under a scanned src root).
            continue;
        };
        let mut depth = 0usize;
        let mut j = open;
        while j < out.len() {
            match out[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = (j + 1).min(out.len());
        blank(out, pos, end);
        regions.push((pos, end));
        from = end;
    }
    regions
}

/// If a `#[cfg(PRED)]` attribute whose predicate is test-gated starts at
/// `pos`, returns the attribute's end offset (past the `]`).
fn parse_test_cfg_attr(bytes: &[u8], pos: usize) -> Option<usize> {
    debug_assert_eq!(bytes[pos], b'#');
    let mut i = pos + 1;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if bytes.get(i) != Some(&b'[') {
        return None;
    }
    let end = attribute_end(bytes, pos)?;
    let inner = &bytes[i + 1..end - 1];
    let toks: Vec<AttrTok<'_>> = attr_tokens(inner).collect();
    if toks.first() != Some(&AttrTok::Ident("cfg")) || toks.get(1) != Some(&AttrTok::Open) {
        return None;
    }
    is_test_predicate(&toks[2..]).then_some(end)
}

/// End offset (past `]`) of the `#[…]` attribute starting at `pos`, if the
/// brackets balance.
fn attribute_end(bytes: &[u8], pos: usize) -> Option<usize> {
    let mut i = pos + 1;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if bytes.get(i) != Some(&b'[') {
        return None;
    }
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Minimal token kinds needed to classify a `cfg` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttrTok<'a> {
    Ident(&'a str),
    Open,
    Close,
    Other,
}

fn attr_tokens(bytes: &[u8]) -> impl Iterator<Item = AttrTok<'_>> {
    let mut i = 0;
    std::iter::from_fn(move || {
        while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        let b = *bytes.get(i)?;
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while bytes.get(i).is_some_and(|&b| is_ident_byte(b)) {
                i += 1;
            }
            let text = std::str::from_utf8(&bytes[start..i]).ok()?;
            Some(AttrTok::Ident(text))
        } else {
            i += 1;
            match b {
                b'(' => Some(AttrTok::Open),
                b')' => Some(AttrTok::Close),
                _ => Some(AttrTok::Other),
            }
        }
    })
}

/// Decides whether a `cfg` predicate (tokens after `cfg(`) is only true in
/// test builds: a bare `test`, or `all(…)` with a test-gated conjunct
/// (recursively, so `all(feature = "x", all(test))` masks too).
/// `not(…)`/`any(…)` predicates can hold outside tests, so they never mask.
fn is_test_predicate(toks: &[AttrTok<'_>]) -> bool {
    fn pred_is_test_gated(toks: &[AttrTok<'_>], at: &mut usize) -> bool {
        let head = toks.get(*at).copied();
        *at += 1;
        let Some(AttrTok::Ident(name)) = head else {
            // A literal or stray punctuation: skip to the conjunct boundary.
            return false;
        };
        if toks.get(*at) != Some(&AttrTok::Open) {
            return name == "test";
        }
        // `name(…)` — walk the nested list, recursing only under `all`.
        *at += 1;
        let mut gated = false;
        while let Some(t) = toks.get(*at) {
            match t {
                AttrTok::Close => {
                    *at += 1;
                    break;
                }
                AttrTok::Ident(_) => {
                    if pred_is_test_gated(toks, at) && name == "all" {
                        gated = true;
                    }
                }
                AttrTok::Open => {
                    // Unreachable in well-formed cfgs; consume to balance.
                    *at += 1;
                    skip_balanced(toks, at);
                }
                AttrTok::Other => *at += 1,
            }
        }
        gated
    }

    fn skip_balanced(toks: &[AttrTok<'_>], at: &mut usize) {
        let mut depth = 1usize;
        while let Some(t) = toks.get(*at) {
            *at += 1;
            match t {
                AttrTok::Open => depth += 1,
                AttrTok::Close => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    let mut at = 0;
    pred_is_test_gated(toks, &mut at)
}

fn find_byte(haystack: &[u8], needle: u8, from: usize) -> Option<usize> {
    haystack[from..]
        .iter()
        .position(|&b| b == needle)
        .map(|p| from + p)
}

/// Parses one line comment into a directive if it carries the marker.
fn parse_directive(comment: &str, line: usize) -> Option<Directive> {
    let at = comment.find(MARKER)?;
    let rest = comment[at + MARKER.len()..].trim_start();
    if let Some(tail) = rest.strip_prefix("hot-path-root") {
        // Optional trailing prose after a colon; anything else glued to the
        // keyword is a typo and reports as malformed.
        if tail.is_empty() || tail.starts_with(':') || tail.starts_with(char::is_whitespace) {
            return Some(Directive::HotPathRoot);
        }
    }
    for (keyword, mk) in [
        ("det-sink(", Directive::DetSink as fn(String) -> Directive),
        ("det-sanitizer(", Directive::DetSanitizer),
    ] {
        if let Some(args) = rest.strip_prefix(keyword) {
            // `det-sink(<name>)` with an optional `: prose` tail; an empty
            // or unterminated name is a typo and reports as malformed.
            if let Some(close) = args.find(')') {
                let name = args[..close].trim();
                let tail = args[close + 1..].trim_start();
                let named = !name.is_empty() && name.chars().all(|c| c != '(' && c != ')');
                if named && (tail.is_empty() || tail.starts_with(':')) {
                    return Some(mk(name.to_owned()));
                }
            }
        }
    }
    let malformed = Waiver {
        rule: None,
        line,
        reason: comment.trim_start_matches('/').trim().to_owned(),
    };
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Directive::Waiver(malformed));
    };
    let Some(close) = args.find(')') else {
        return Some(Directive::Waiver(malformed));
    };
    let Some(rule) = Rule::parse(args[..close].trim()) else {
        return Some(Directive::Waiver(malformed));
    };
    let tail = args[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix(':') else {
        return Some(Directive::Waiver(malformed));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Some(Directive::Waiver(malformed));
    }
    Some(Directive::Waiver(Waiver {
        rule: Some(rule),
        line,
        reason: reason.to_owned(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings_preserving_lines() {
        let src = "let a = \"HashMap\"; // HashMap here\nlet b = 1;\n";
        let m = mask(src);
        assert_eq!(m.masked.len(), src.len());
        assert!(!m.masked.contains("HashMap"));
        assert!(m.masked.contains("let b = 1;"));
        assert_eq!(m.masked.matches('\n').count(), 2);
    }

    #[test]
    fn masks_raw_strings_and_chars_keeps_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let r = r#\"Instant\"#; }";
        let m = mask(src);
        assert!(!m.masked.contains("Instant"));
        assert!(m.masked.contains("fn f<'a>(x: &'a str)"));
        assert!(!m.masked.contains("'x'"));
    }

    /// Escaped char literals must end exactly at their closing quote.
    /// `'\\'` is the regression case: reading its payload backslash as a
    /// fresh escape intro jumps past the closing quote, swallows the next
    /// `'` in the file, and inverts string/code parity from there on.
    #[test]
    fn escaped_char_literals_do_not_invert_parity() {
        let src = "match b {\n    b'\\\\' => 1,\n    b'\"' => 2,\n    '\\'' => 3,\n    '\\u{7f}' => 4,\n    _ => 5,\n}\nlet s = \"Instant\";\nfn after() {}\n";
        let m = mask(src);
        assert!(!m.masked.contains("Instant"), "string must stay masked");
        assert!(m.masked.contains("fn after()"), "code must stay visible");
        assert_eq!(m.masked.len(), src.len());
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask("/* outer /* SystemTime */ still */ let x = 1;");
        assert!(!m.masked.contains("SystemTime"));
        assert!(m.masked.contains("let x = 1;"));
    }

    #[test]
    fn masks_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); }\n}\nfn after() {}\n";
        let m = mask(src);
        assert!(!m.masked.contains("HashMap"));
        assert!(m.masked.contains("fn lib()"));
        assert!(m.masked.contains("fn after()"));
    }

    #[test]
    fn parses_well_formed_waiver() {
        let m = mask("let x = 1; // hcperf-lint: allow(float-eq): exact sentinel\n");
        assert_eq!(
            m.waivers,
            vec![Waiver {
                rule: Some(Rule::FloatEq),
                line: 1,
                reason: "exact sentinel".to_owned(),
            }]
        );
    }

    #[test]
    fn flags_malformed_waivers() {
        for bad in [
            "// hcperf-lint: allow(float-eq)\n",          // missing reason
            "// hcperf-lint: allow(no-such-rule): why\n", // unknown rule
            "// hcperf-lint: disallow(float-eq): why\n",  // wrong verb
        ] {
            let m = mask(bad);
            assert_eq!(m.waivers.len(), 1, "{bad:?}");
            assert_eq!(m.waivers[0].rule, None, "{bad:?}");
        }
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        let m = mask("/// hcperf-lint: allow(float-eq): prose, not a directive\nfn f() {}\n//! hcperf-lint: allow(entropy)\n");
        assert!(m.waivers.is_empty());
    }

    #[test]
    fn masks_cfg_all_test_modules_and_whitespace_variants() {
        // The old scanner matched only the literal bytes `#[cfg(test)]`;
        // all of these escaped it.
        let hits = [
            "#[cfg(all(test, feature = \"slow\"))]\nmod tests { use std::collections::HashMap; }\n",
            "#[ cfg ( test ) ]\nmod tests { use std::collections::HashMap; }\n",
            "#[cfg(all(feature = \"slow\", test))]\nmod tests { use std::collections::HashMap; }\n",
            "#[cfg(test)]\n#[allow(dead_code)]\npub mod tests { use std::collections::HashMap; }\n",
            "#[cfg(all(feature = \"slow\", all(test)))]\nmod tests { use std::collections::HashMap; }\n",
            "#[cfg(test)]\npub(crate) mod tests { use std::collections::HashMap; }\n",
        ];
        for src in hits {
            let m = mask(src);
            assert!(!m.masked.contains("HashMap"), "should mask: {src}");
            assert_eq!(m.test_regions.len(), 1, "{src}");
        }
    }

    #[test]
    fn never_masks_not_test_or_any_test_modules() {
        // These predicates also hold outside test builds: the code ships.
        let misses = [
            "#[cfg(not(test))]\nmod shipping { use std::collections::HashMap; }\n",
            "#[cfg(any(test, feature = \"x\"))]\nmod maybe { use std::collections::HashMap; }\n",
            "#[cfg(feature = \"test\")]\nmod feat { use std::collections::HashMap; }\n",
            "#[cfg(all(not(test), feature = \"x\"))]\nmod shipping { use std::collections::HashMap; }\n",
        ];
        for src in misses {
            let m = mask(src);
            assert!(m.masked.contains("HashMap"), "must NOT mask: {src}");
            assert!(m.test_regions.is_empty(), "{src}");
        }
    }

    #[test]
    fn hot_path_root_marker_is_a_directive_not_a_malformed_waiver() {
        let src = "\
// hcperf-lint: hot-path-root
fn dispatch() {}
// hcperf-lint: hot-path-root: called once per dispatch
fn rank() {}
";
        let m = mask(src);
        assert!(m.waivers.is_empty(), "{:?}", m.waivers);
        assert_eq!(m.hot_path_roots, vec![1, 3]);
    }

    #[test]
    fn det_sink_and_sanitizer_markers_are_directives() {
        let src = "\
// hcperf-lint: det-sink(harness-jsonl)
fn record() {}
// hcperf-lint: det-sanitizer(index-tagged-merge): submission-order merge
fn collect_ordered() {}
";
        let m = mask(src);
        assert!(m.waivers.is_empty(), "{:?}", m.waivers);
        assert_eq!(m.det_sinks, vec![(1, "harness-jsonl".to_owned())]);
        assert_eq!(m.det_sanitizers, vec![(3, "index-tagged-merge".to_owned())]);
    }

    #[test]
    fn malformed_det_sink_markers_report_as_waiver_syntax() {
        for bad in [
            "// hcperf-lint: det-sink()\nfn f() {}\n",   // empty name
            "// hcperf-lint: det-sink(a b\nfn f() {}\n", // unterminated
            "// hcperf-lint: det-sink(a) extra\nfn f() {}\n", // glued tail
            "// hcperf-lint: det-sinks(name)\nfn f() {}\n", // wrong keyword
            "// hcperf-lint: det-sanitizer\nfn f() {}\n", // no name
        ] {
            let m = mask(bad);
            assert_eq!(m.waivers.len(), 1, "{bad:?}");
            assert_eq!(m.waivers[0].rule, None, "{bad:?}");
            assert!(m.det_sinks.is_empty(), "{bad:?}");
            assert!(m.det_sanitizers.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn misspelled_root_marker_is_malformed() {
        let m = mask("// hcperf-lint: hot-path-roots\nfn f() {}\n");
        assert_eq!(m.waivers.len(), 1);
        assert_eq!(m.waivers[0].rule, None);
        assert!(m.hot_path_roots.is_empty());
    }

    #[test]
    fn comment_spans_cover_doc_and_block_comments() {
        let src = "/// Eq. 6 quadrature.\nfn f() { /* Eq. 9 */ }\n// tail\n";
        let m = mask(src);
        assert_eq!(m.comment_spans.len(), 3);
        let texts: Vec<&str> = m.comment_spans.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(texts[0], "/// Eq. 6 quadrature.");
        assert_eq!(texts[1], "/* Eq. 9 */");
    }
}
