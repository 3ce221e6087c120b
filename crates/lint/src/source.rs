//! The lint's one lexer, and the loaded source file every pass reads.
//!
//! [`SourceFile::new`] lexes a file exactly once. The lexer is deliberately
//! token-light: it does not parse Rust, it only tracks enough lexical state
//! (line/block comments, string/char/raw-string literals, lifetimes) to
//! split the text into
//!
//! * **code tokens** ([`Tok`]: identifiers, numbers, punctuation,
//!   lifetimes), with every `#[cfg(test)] mod … { … }` body left out, so
//!   rule patterns never match inside comments, strings or unit tests and
//!   [`crate::parse`] never sees a test-only function;
//! * **comment spans**, where `Eq. N` tags live (harvested by
//!   [`crate::eqcov`]), and the `hcperf-lint:` **directives** parsed from
//!   non-doc line comments (waivers, hot-path roots, det-flow sinks and
//!   sanitizers);
//! * **test-module regions**, found at token level, so tags inside them
//!   classify as test coverage rather than implementation;
//! * one **line index** for every byte-offset → line lookup.
//!
//! Rule patterns ([`Pattern`]) are token sequences lexed by the same lexer,
//! so `collect` cannot match inside `recollect` and `thread::sleep` matches
//! `std::thread::sleep`. A [`PatternSet`] indexes a rule table by each
//! pattern's first token, so one walk over a body matches the whole
//! table. Every offset is a byte offset into the raw text, on a char
//! boundary.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::parse::{parse_file, ParsedFile};
use crate::report::{Finding, Rule};

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

/// Lexical class of one code token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (ASCII `[A-Za-z_][A-Za-z0-9_]*`).
    Ident,
    /// Numeric literal, suffix and signed exponent included (`1.5e-3f64`).
    /// A `.` belongs to it only when a digit follows, so `0..n` and
    /// `self.0.push(x)` keep their dots.
    Num,
    /// One punctuation character, keyed by its first byte (a non-ASCII
    /// character is one token spanning all its bytes).
    Punct(u8),
    /// A lifetime or loop label (`'a`).
    Lifetime,
}

/// One code token: its class and byte span in the raw text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Lexical class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset just past the last byte.
    pub end: usize,
}

/// Fast byte-offset → 1-based line lookup.
#[derive(Debug)]
struct LineIndex {
    newline_offsets: Vec<usize>,
}

impl LineIndex {
    fn new(text: &str) -> Self {
        Self {
            newline_offsets: text
                .bytes()
                .enumerate()
                .filter_map(|(i, b)| (b == b'\n').then_some(i))
                .collect(),
        }
    }

    /// 1-based line containing byte offset `at`.
    fn line_of(&self, at: usize) -> usize {
        1 + self.newline_offsets.partition_point(|&o| o < at)
    }
}

/// A rule pattern: a token sequence lexed from its source text.
#[derive(Debug)]
pub struct Pattern {
    /// The pattern as written (`.clone(`, `thread::sleep`).
    pub text: &'static str,
    toks: Vec<&'static str>,
}

impl Pattern {
    /// Lexes `text` into the token sequence it matches.
    #[must_use]
    pub fn new(text: &'static str) -> Self {
        let toks = tokenize(text).tokens;
        Pattern {
            text,
            toks: toks.iter().map(|t| &text[t.start..t.end]).collect(),
        }
    }

    /// Lexes every pattern of a rule table.
    #[must_use]
    pub fn all(texts: &[&'static str]) -> Vec<Pattern> {
        texts.iter().map(|t| Pattern::new(t)).collect()
    }
}

/// A rule table indexed by each pattern's first token, so one walk over a
/// token range matches every pattern ([`SourceFile::find_any`]).
#[derive(Debug)]
pub struct PatternSet {
    /// The patterns, in table order.
    pats: Vec<Pattern>,
    /// Indices into `pats` by first token, ascending.
    by_first: BTreeMap<&'static str, Vec<usize>>,
}

impl PatternSet {
    /// Lexes and indexes a rule table.
    #[must_use]
    pub fn new(texts: &[&'static str]) -> Self {
        let pats = Pattern::all(texts);
        let mut by_first: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for (i, pat) in pats.iter().enumerate() {
            if let Some(&first) = pat.toks.first() {
                by_first.entry(first).or_default().push(i);
            }
        }
        PatternSet { pats, by_first }
    }
}

/// One loaded source file: raw text plus everything the lexer produced.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw file contents.
    pub raw: String,
    /// Code tokens in source order, test-module bodies excluded.
    pub tokens: Vec<Tok>,
    /// Byte spans of every comment (line, block, and doc), in order.
    pub comments: Vec<(usize, usize)>,
    /// Byte spans of every string, byte-string and char literal, in order.
    pub literals: Vec<(usize, usize)>,
    /// Byte regions of `#[cfg(…test…)] mod … { … }` test modules.
    pub test_regions: Vec<(usize, usize)>,
    /// Every waiver comment found, malformed ones included.
    pub waivers: Vec<Waiver>,
    /// 1-based lines carrying a `// hcperf-lint: hot-path-root` marker;
    /// each declares the next `fn` item a hot-path root (see
    /// [`crate::hotpath`]).
    pub hot_path_roots: Vec<usize>,
    /// `(line, name)` pairs for `// hcperf-lint: det-sink(<name>)` markers;
    /// each declares the next `fn` item a determinism output sink (see
    /// [`crate::detflow`]).
    pub det_sinks: Vec<(usize, String)>,
    /// `(line, name)` pairs for `// hcperf-lint: det-sanitizer(<name>)`
    /// markers; each declares the next `fn` item a trusted taint sanitizer.
    pub det_sanitizers: Vec<(usize, String)>,
    lines: LineIndex,
    parsed: OnceLock<ParsedFile>,
}

impl SourceFile {
    /// Lexes `raw` as the file at workspace-relative `rel`.
    #[must_use]
    pub fn new(rel: &str, raw: &str) -> Self {
        let Lexed {
            tokens,
            comments,
            literals,
        } = tokenize(raw);
        let lines = LineIndex::new(raw);
        let test_regions = test_regions(raw, &tokens);
        let mut regions = test_regions.iter().peekable();
        let tokens = (tokens.into_iter())
            .filter(|t| {
                while regions.next_if(|r| r.1 <= t.start).is_some() {}
                regions.peek().is_none_or(|r| t.start < r.0)
            })
            .collect();
        let mut file = SourceFile {
            rel: rel.to_owned(),
            raw: raw.to_owned(),
            tokens,
            comments,
            literals,
            test_regions,
            waivers: Vec::new(),
            hot_path_roots: Vec::new(),
            det_sinks: Vec::new(),
            det_sanitizers: Vec::new(),
            lines,
            parsed: OnceLock::new(),
        };
        for &(start, end) in &file.comments {
            // Doc comments (`///`, `//!`) are prose, not directives: they
            // may legitimately *mention* the waiver syntax.
            let text = &raw[start..end];
            if !text.starts_with("//") || text[2..].starts_with(['/', '!']) {
                continue;
            }
            let line = file.lines.line_of(start);
            match parse_directive(text, line) {
                Some(Directive::Waiver(w)) => file.waivers.push(w),
                Some(Directive::HotPathRoot) => file.hot_path_roots.push(line),
                Some(Directive::DetSink(name)) => file.det_sinks.push((line, name)),
                Some(Directive::DetSanitizer(name)) => file.det_sanitizers.push((line, name)),
                None => {}
            }
        }
        file
    }

    /// The source text of token `t`.
    #[must_use]
    pub fn text(&self, t: &Tok) -> &str {
        &self.raw[t.start..t.end]
    }

    /// The texts of `toks`, joined by one space wherever the source has a
    /// gap (whitespace, a comment or a literal) between two tokens.
    #[must_use]
    pub fn joined(&self, toks: &[Tok]) -> String {
        let mut out = String::new();
        for (k, t) in toks.iter().enumerate() {
            if k > 0 && toks[k - 1].end < t.start {
                out.push(' ');
            }
            out.push_str(self.text(t));
        }
        out
    }

    /// 1-based line of byte offset `at`.
    #[must_use]
    pub fn line_of(&self, at: usize) -> usize {
        self.lines.line_of(at)
    }

    /// Indices of the tokens lying inside the byte range `within`.
    #[must_use]
    pub fn token_range(&self, within: (usize, usize)) -> std::ops::Range<usize> {
        let from = self.tokens.partition_point(|t| t.start < within.0);
        let to = self.tokens.partition_point(|t| t.end <= within.1);
        from..to.max(from)
    }

    /// Byte offsets of every match of `pat` inside the byte range `within`,
    /// ascending.
    #[must_use]
    pub fn find(&self, pat: &Pattern, within: (usize, usize)) -> Vec<usize> {
        self.tokens[self.token_range(within)]
            .windows(pat.toks.len())
            .filter(|w| self.spells(w, pat))
            .map(|w| w[0].start)
            .collect()
    }

    /// Every match of every pattern of `set` inside the byte range
    /// `within`, as `(pattern index, byte offset)` in offset order: the
    /// matches [`SourceFile::find`] returns for each pattern, from one
    /// walk over the tokens.
    #[must_use]
    pub fn find_any(&self, set: &PatternSet, within: (usize, usize)) -> Vec<(usize, usize)> {
        let toks = &self.tokens[self.token_range(within)];
        let mut hits = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            let Some(ids) = set.by_first.get(&self.raw[t.start..t.end]) else {
                continue;
            };
            for &id in ids {
                let pat = &set.pats[id];
                if toks
                    .get(i..i + pat.toks.len())
                    .is_some_and(|w| self.spells(w, pat))
                {
                    hits.push((id, t.start));
                }
            }
        }
        hits
    }

    /// Whether the tokens `w`, as many as `pat` has, spell `pat`.
    fn spells(&self, w: &[Tok], pat: &Pattern) -> bool {
        w.iter()
            .zip(&pat.toks)
            .all(|(t, p)| self.raw.as_bytes()[t.start..t.end] == *p.as_bytes())
    }

    /// The file's items, call sites and loops, parsed on first use.
    pub fn parsed(&self) -> &ParsedFile {
        self.parsed.get_or_init(|| parse_file(self))
    }

    /// The trimmed raw text of 1-based `line` (empty past the end).
    #[must_use]
    pub fn snippet(&self, line: usize) -> String {
        self.raw
            .lines()
            .nth(line - 1)
            .map_or("", str::trim)
            .to_owned()
    }

    /// An unwaived finding anchored at `line` of this file.
    #[must_use]
    pub fn finding(&self, rule: Rule, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel.clone(),
            line,
            snippet: self.snippet(line),
            message,
            waived: None,
            chain: Vec::new(),
        }
    }
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

/// What one pass of the lexer yields.
struct Lexed {
    tokens: Vec<Tok>,
    comments: Vec<(usize, usize)>,
    literals: Vec<(usize, usize)>,
}

/// The lexer: splits `text` into code tokens, comment spans and literal
/// spans. Total on any input: unterminated comments and literals run to
/// the end of the text.
fn tokenize(text: &str) -> Lexed {
    let bytes = text.as_bytes();
    let mut out = Lexed {
        tokens: Vec::new(),
        comments: Vec::new(),
        literals: Vec::new(),
    };
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        if let Some(end) = matches!(b, b'"' | b'\'' | b'b' | b'r')
            .then(|| literal_end(bytes, i))
            .flatten()
        {
            out.literals.push((start, end));
            i = end;
            continue;
        }
        let kind = match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| i + p);
                out.comments.push((start, i));
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i = block_comment_end(bytes, i);
                out.comments.push((start, i));
                continue;
            }
            _ if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'\''
                if bytes
                    .get(i + 1)
                    .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_') =>
            {
                i = ident_end(bytes, i + 1);
                TokKind::Lifetime
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                i = ident_end(bytes, i);
                TokKind::Ident
            }
            _ if b.is_ascii_digit() => {
                i = number_end(bytes, i);
                TokKind::Num
            }
            _ => {
                i += text[i..].chars().next().map_or(1, char::len_utf8);
                TokKind::Punct(b)
            }
        };
        out.tokens.push(Tok {
            kind,
            start,
            end: i,
        });
    }
    out
}

fn ident_end(bytes: &[u8], from: usize) -> usize {
    (from..bytes.len())
        .find(|&j| !is_ident_byte(bytes[j]))
        .unwrap_or(bytes.len())
}

/// End of a numeric literal starting at a digit: identifier bytes (digits,
/// suffixes, hex), a `.` followed by a digit, and the sign of an exponent
/// (`1.5e-3`: an `e`/`E` after a digit, then `+`/`-` and a digit).
fn number_end(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while let Some(&c) = bytes.get(i) {
        let digit_next = bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
        let exponent_sign = matches!(c, b'+' | b'-')
            && i >= from + 2
            && matches!(bytes[i - 1], b'e' | b'E')
            && bytes[i - 2].is_ascii_digit();
        if is_ident_byte(c) || (c == b'.' || exponent_sign) && digit_next {
            i += 1;
        } else {
            break;
        }
    }
    i
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

/// End (exclusive) of the string, byte-string, raw-string or char literal
/// opening at `i` (`"…"`, `b"…"`, `r#"…"#`, `br"…"`, `'x'`, `b'x'`), or
/// `None` when no literal opens there (a lifetime, an identifier).
fn literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let at = |j: usize| bytes.get(j).copied();
    match (at(i)?, at(i + 1)) {
        (b'"', _) => Some(string_end(bytes, i)),
        (b'\'', _) => char_literal_end(bytes, i),
        (b'b', Some(b'"')) => Some(string_end(bytes, i + 1)),
        (b'b', Some(b'\'')) => char_literal_end(bytes, i + 1),
        (b'b', Some(b'r')) => raw_string_end(bytes, i + 1),
        (b'r', _) => raw_string_end(bytes, i),
        _ => None,
    }
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

/// End (exclusive) of the `r"…"` / `r#"…"#` raw string whose `r` sits at
/// `r_at`, or `None` when the `r` opens no raw string.
fn raw_string_end(bytes: &[u8], r_at: usize) -> Option<usize> {
    let hashes = bytes[r_at + 1..].iter().take_while(|&&b| b == b'#').count();
    if bytes.get(r_at + 1 + hashes) != Some(&b'"') {
        return None;
    }
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
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(bytes.len())
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

/// True when `toks[at]` is the punctuation `p`.
pub(crate) fn is_punct(toks: &[Tok], at: usize, p: u8) -> bool {
    toks.get(at).is_some_and(|t| t.kind == TokKind::Punct(p))
}

/// Index of the token closing the `open`…`close` group that the token at
/// `from` opens, if it is closed before the end.
pub(crate) fn group_end(toks: &[Tok], from: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(from) {
        if t.kind == TokKind::Punct(open) {
            depth += 1;
        } else if t.kind == TokKind::Punct(close) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Byte regions of every test-gated `#[cfg(…)] mod name { … }` module, found
/// on the full token stream. Library rules apply to shipping code only;
/// unit tests may use wall clocks or `unwrap` freely. Further attributes
/// and a `pub(…)` visibility may sit between the attribute and `mod`; an
/// out-of-line `mod tests;` has no body here and hides nothing. The
/// attribute is read at token level, so `#[ cfg ( test ) ]` and
/// `#[cfg(all(test, feature = "…"))]` both count, while
/// `#[cfg(not(test))]` and `#[cfg(any(test, …))]` (both compiled outside
/// test builds) do not.
fn test_regions(raw: &str, toks: &[Tok]) -> Vec<(usize, usize)> {
    let is_word = |at: usize, w: &str| {
        toks.get(at)
            .is_some_and(|t| t.kind == TokKind::Ident && &raw[t.start..t.end] == w)
    };
    let attribute_end = |at: usize| {
        (is_punct(toks, at, b'#') && is_punct(toks, at + 1, b'['))
            .then(|| group_end(toks, at + 1, b'[', b']'))
            .flatten()
    };
    let mut regions = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        let gated = attribute_end(k).filter(|&close| {
            is_word(k + 2, "cfg")
                && is_punct(toks, k + 3, b'(')
                && is_test_predicate(raw, &toks[k + 4..close], &mut 0)
        });
        let Some(close) = gated else {
            k += 1;
            continue;
        };
        let mut i = close + 1;
        while let Some(end) = attribute_end(i) {
            i = end + 1;
        }
        if is_word(i, "pub") {
            i += 1;
            if is_punct(toks, i, b'(') {
                i = group_end(toks, i, b'(', b')').map_or(toks.len(), |c| c + 1);
            }
        }
        let body = is_word(i, "mod")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && is_punct(toks, i + 2, b'{');
        if !body {
            k += 1;
            continue;
        }
        let end = group_end(toks, i + 2, b'{', b'}');
        regions.push((toks[k].start, end.map_or(raw.len(), |c| toks[c].end)));
        k = end.map_or(toks.len(), |c| c + 1);
    }
    regions
}

/// Decides whether the `cfg` predicate starting at `toks[*at]` (the tokens
/// after `cfg(`) is only true in test builds: a bare `test`, or `all(…)`
/// with a test-gated conjunct (recursively, so `all(feature = "x",
/// all(test))` counts too). `not(…)`/`any(…)` predicates can hold outside
/// tests, so they never count.
fn is_test_predicate(raw: &str, toks: &[Tok], at: &mut usize) -> bool {
    let head = toks.get(*at).copied();
    *at += 1;
    let Some(head) = head.filter(|t| t.kind == TokKind::Ident) else {
        // A literal or stray punctuation: skip to the conjunct boundary.
        return false;
    };
    let name = &raw[head.start..head.end];
    if !is_punct(toks, *at, b'(') {
        return name == "test";
    }
    // `name(…)` — walk the nested list, recursing only under `all`.
    *at += 1;
    let mut gated = false;
    while let Some(t) = toks.get(*at) {
        match t.kind {
            TokKind::Punct(b')') => {
                *at += 1;
                break;
            }
            TokKind::Ident => {
                if is_test_predicate(raw, toks, at) && name == "all" {
                    gated = true;
                }
            }
            // Unreachable in well-formed cfgs; consume to balance.
            TokKind::Punct(b'(') => {
                *at = group_end(toks, *at, b'(', b')').map_or(toks.len(), |c| c + 1);
            }
            _ => *at += 1,
        }
    }
    gated
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

    fn lexed(src: &str) -> SourceFile {
        SourceFile::new("t.rs", src)
    }

    /// The code tokens' texts, one space apart.
    fn code(f: &SourceFile) -> String {
        let texts: Vec<&str> = f.tokens.iter().map(|t| f.text(t)).collect();
        texts.join(" ")
    }

    #[test]
    fn masks_comments_and_strings_preserving_lines() {
        let src = "let a = \"HashMap\"; // HashMap here\nlet b = 1;\n";
        let m = lexed(src);
        assert!(!code(&m).contains("HashMap"));
        assert_eq!(code(&m), "let a = ; let b = 1 ;");
        assert_eq!((m.comments.len(), m.literals.len()), (1, 1));
        let b = m.tokens.iter().find(|t| m.text(t) == "b").unwrap();
        assert_eq!(m.line_of(b.start), 2);
    }

    #[test]
    fn masks_raw_strings_and_chars_keeps_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let r = r#\"Instant\"#; }";
        let m = lexed(src);
        assert!(!code(&m).contains("Instant"));
        assert!(code(&m).starts_with("fn f < 'a > ( x : & 'a str )"));
        assert!(!code(&m).contains("'x'"));
        assert_eq!(m.literals.len(), 2);
        let lifetimes = m.tokens.iter().filter(|t| t.kind == TokKind::Lifetime);
        assert_eq!(lifetimes.count(), 2);
    }

    /// Escaped char literals must end exactly at their closing quote.
    /// `'\\'` is the regression case: reading its payload backslash as a
    /// fresh escape intro jumps past the closing quote, swallows the next
    /// `'` in the file, and inverts string/code parity from there on.
    #[test]
    fn escaped_char_literals_do_not_invert_parity() {
        let src = "match b {\n    b'\\\\' => 1,\n    b'\"' => 2,\n    '\\'' => 3,\n    '\\u{7f}' => 4,\n    _ => 5,\n}\nlet s = \"Instant\";\nfn after() {}\n";
        let m = lexed(src);
        assert!(!code(&m).contains("Instant"), "string must stay masked");
        assert!(code(&m).contains("fn after ( )"), "code must stay visible");
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = lexed("/* outer /* SystemTime */ still */ let x = 1;");
        assert!(!code(&m).contains("SystemTime"));
        assert_eq!(code(&m), "let x = 1 ;");
    }

    #[test]
    fn masks_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); }\n}\nfn after() {}\n";
        let m = lexed(src);
        assert!(!code(&m).contains("HashMap"));
        assert!(code(&m).contains("fn lib ( )"));
        assert!(code(&m).contains("fn after ( )"));
    }

    #[test]
    fn out_of_line_test_module_hides_nothing() {
        let src = "#[cfg(test)]\nmod tests;\npub fn hot() { let m = HashMap::new(); }\n";
        let m = lexed(src);
        assert!(m.test_regions.is_empty(), "{:?}", m.test_regions);
        assert!(code(&m).contains("HashMap"));
    }

    #[test]
    fn parses_well_formed_waiver() {
        let m = lexed("let x = 1; // hcperf-lint: allow(float-eq): exact sentinel\n");
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
            let m = lexed(bad);
            assert_eq!(m.waivers.len(), 1, "{bad:?}");
            assert_eq!(m.waivers[0].rule, None, "{bad:?}");
        }
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        let m = lexed("/// hcperf-lint: allow(float-eq): prose, not a directive\nfn f() {}\n//! hcperf-lint: allow(entropy)\n");
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
            let m = lexed(src);
            assert!(!code(&m).contains("HashMap"), "should mask: {src}");
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
            let m = lexed(src);
            assert!(code(&m).contains("HashMap"), "must NOT mask: {src}");
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
        let m = lexed(src);
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
        let m = lexed(src);
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
            let m = lexed(bad);
            assert_eq!(m.waivers.len(), 1, "{bad:?}");
            assert_eq!(m.waivers[0].rule, None, "{bad:?}");
            assert!(m.det_sinks.is_empty(), "{bad:?}");
            assert!(m.det_sanitizers.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn misspelled_root_marker_is_malformed() {
        let m = lexed("// hcperf-lint: hot-path-roots\nfn f() {}\n");
        assert_eq!(m.waivers.len(), 1);
        assert_eq!(m.waivers[0].rule, None);
        assert!(m.hot_path_roots.is_empty());
    }

    #[test]
    fn comment_spans_cover_doc_and_block_comments() {
        let src = "/// Eq. 6 quadrature.\nfn f() { /* Eq. 9 */ }\n// tail\n";
        let m = lexed(src);
        assert_eq!(m.comments.len(), 3);
        let texts: Vec<&str> = m.comments.iter().map(|&(a, b)| &src[a..b]).collect();
        assert_eq!(texts[0], "/// Eq. 6 quadrature.");
        assert_eq!(texts[1], "/* Eq. 9 */");
    }

    #[test]
    fn numbers_keep_suffixes_exponents_and_range_dots() {
        let m = lexed("a(1.5e-3f64, 0x1f, 1_000); for i in 0..n {} x.0.1");
        assert_eq!(
            code(&m),
            "a ( 1.5e-3f64 , 0x1f , 1_000 ) ; for i in 0 . . n { } x . 0.1"
        );
    }

    #[test]
    fn patterns_match_token_sequences_only() {
        let m = lexed("std::thread::sleep(d); recollect(); xs.collect(); a.clone ();");
        let at = |p: &'static str| m.find(&Pattern::new(p), (0, m.raw.len()));
        assert_eq!(at("thread::sleep"), vec![5]);
        assert_eq!(at("collect").len(), 1, "not inside `recollect`");
        assert_eq!(at(".clone(").len(), 1, "whitespace between tokens is free");
    }

    #[test]
    fn pattern_sets_match_what_find_matches() {
        let texts = [
            ".recv(",
            ".try_recv(",
            "HashMap",
            ".sort(",
            "env::var(",
            "env::vars(",
        ];
        let m = lexed(
            "fn f(){ let h: HashMap<u8,u8>; rx.try_recv(); rx.recv(); v.sort(); \
             env::var(\"A\"); env::vars(); rx . recv ( ) } // .recv(",
        );
        let set = PatternSet::new(&texts);
        let whole = (0, m.raw.len());
        let mut expect: Vec<(usize, usize)> = set
            .pats
            .iter()
            .enumerate()
            .flat_map(|(i, p)| m.find(p, whole).into_iter().map(move |at| (i, at)))
            .collect();
        expect.sort_by_key(|&(i, at)| (at, i));
        assert_eq!(expect.len(), 7);
        assert_eq!(m.find_any(&set, whole), expect);
        // A match must fit inside the range: `.recv(` cut before its `(`.
        let cut = m.raw.find("rx.recv").unwrap() + "rx.recv".len();
        assert!(m.find_any(&set, (0, cut)).iter().all(|&(i, _)| i != 0));
    }
}
