//! Token-tree extraction of `fn` items, `impl`/`trait` blocks, call sites
//! and loops from a file's code tokens (see [`crate::source`]).
//!
//! This is not a Rust parser. It recognises exactly enough structure —
//! `impl`/`trait` headers, `fn` signatures, brace nesting, and the three
//! call shapes `name(…)` / `recv.name(…)` / `Seg::name(…)` — for
//! [`crate::callgraph`] to build an **over-approximate** call graph.
//! Anything it cannot classify it drops on the *precision* side, never the
//! *soundness* side: the resolver compensates by adding more candidate
//! edges, so hot-path reachability can gain false positives but not lose
//! true ones.
//!
//! The token stream already leaves out comments, literals and
//! `#[cfg(test)]` module bodies, so brace matching and keyword scans are
//! safe, and test-only functions simply do not exist here.

use crate::source::{group_end, is_punct, SourceFile, Tok, TokKind};

/// One `fn` item found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`GammaScratch` for
    /// `impl GammaScratch { fn rank … }`; the *type*, not the trait, for
    /// `impl Scheduler for FifoScheduler`).
    pub impl_type: Option<String>,
    /// Parameter count, including a `self` receiver.
    pub arity: usize,
    /// True when the first parameter is a `self` receiver.
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte range of the `{ … }` body in the raw text (`None` for
    /// trait-method declarations without a default body).
    pub body: Option<(usize, usize)>,
    /// True when a `// hcperf-lint: hot-path-root` marker precedes the item.
    pub is_root: bool,
    /// Sink name when a `// hcperf-lint: det-sink(<name>)` marker precedes
    /// the item.
    pub sink: Option<String>,
    /// True when a `// hcperf-lint: det-sanitizer(<name>)` marker precedes
    /// the item.
    pub sanitizer: bool,
}

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `name(…)` — a free function (or tuple-struct constructor).
    Free,
    /// `Seg::name(…)` — path call; the segment immediately before `::`.
    Path(String),
    /// `self.name(…)` — method on the enclosing impl type.
    SelfMethod,
    /// `expr.name(…)` — method on a receiver whose type is not inferable.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called name (the identifier before the parentheses).
    pub name: String,
    /// Argument count at the call site, excluding any method receiver.
    pub args: usize,
    /// Call shape.
    pub receiver: Receiver,
    /// 1-based line of the call.
    pub line: usize,
    /// Byte offset of the callee identifier in the raw text — lets the
    /// WCET pass locate the call inside enclosing loop spans.
    pub offset: usize,
}

/// Lexical classification of one loop's bound (the WCET pass's lattice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopClass {
    /// `for _ in <lit>..<lit>` — both bounds numeric literals.
    Constant,
    /// Iteration count tied to an input: `for x in xs`, `for i in 0..n`,
    /// a counter `while` whose condition variable is mutated in the body,
    /// or `while let … = q.pop()/it.next()` draining a collection. The
    /// symbol is the bounding expression, for diagnostics.
    InputBounded(String),
    /// Nothing lexically bounds it: bare `loop`, convergence `while`, …
    /// Becomes a `wcet-unbounded` finding unless waived (a waiver demotes
    /// it to input-bounded: the author asserts a bound the lexer cannot).
    Unknown,
}

/// One loop inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSite {
    /// Bound classification.
    pub class: LoopClass,
    /// 1-based line of the loop keyword.
    pub line: usize,
    /// Loop keyword (`for` / `while` / `while let` / `loop`).
    pub keyword: &'static str,
    /// Byte range of the whole loop (keyword through closing `}`) in the
    /// raw text; containment over these spans gives loop nesting.
    pub span: (usize, usize),
}

/// Parse result for one file: items plus, per item, its call sites.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Call sites of `fns[i]` live in `calls[i]`.
    pub calls: Vec<Vec<CallSite>>,
    /// Loops of `fns[i]` live in `loops[i]`, in source order.
    pub loops: Vec<Vec<LoopSite>>,
}

const KEYWORDS: [&str; 20] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "fn", "let",
    "ref", "mut", "unsafe", "where", "dyn", "impl", "box", "await",
];

/// True when the `>` at `at` ends a `->` arrow (an `Fn(…) -> R` bound or
/// return type), which never closes a generic list.
fn is_arrow(toks: &[Tok], at: usize) -> bool {
    at > 0 && toks[at - 1].kind == TokKind::Punct(b'-')
}

/// Skips a balanced `<…>` generic list starting at the `<` token; returns
/// the index just past the closing `>`.
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'<') => depth += 1,
            TokKind::Punct(b'>') if !is_arrow(toks, i) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skips a balanced `(…)` list starting at the `(` token; returns the index
/// just past the closing `)` plus the top-level comma count and whether a
/// top-level `self` identifier appears before the first comma.
fn scan_parens(toks: &[Tok], open: usize, src: &SourceFile) -> (usize, usize, bool) {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut self_in_first = false;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, commas, self_in_first);
                }
            }
            TokKind::Punct(b',') if depth == 1 => commas += 1,
            TokKind::Ident if depth == 1 && commas == 0 && src.text(&toks[i]) == "self" => {
                self_in_first = true;
            }
            _ => {}
        }
        i += 1;
    }
    (i, commas, self_in_first)
}

/// True when the parenthesised list `(…)` starting at `open` is empty.
fn parens_empty(toks: &[Tok], open: usize) -> bool {
    is_punct(toks, open + 1, b')')
}

/// Extracts the `impl`/`trait` header's subject type name and returns the
/// token index of the block's `{` (or past a terminating `;`).
fn parse_impl_header(toks: &[Tok], at: usize, src: &SourceFile) -> (Option<String>, usize) {
    let mut i = at + 1;
    let mut angle = 0usize;
    let mut paren = 0usize;
    let mut last_top_ident: Option<String> = None;
    let mut collecting = true;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(b'{') if angle == 0 && paren == 0 => {
                return (last_top_ident, i);
            }
            TokKind::Punct(b';') if angle == 0 && paren == 0 => {
                return (last_top_ident, i + 1);
            }
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') if !is_arrow(toks, i) => angle = angle.saturating_sub(1),
            TokKind::Punct(b'(') => paren += 1,
            TokKind::Punct(b')') => paren = paren.saturating_sub(1),
            TokKind::Ident if angle == 0 && paren == 0 => {
                let t = src.text(&toks[i]);
                if t == "for" {
                    // `impl Trait for Type`: the subject restarts here.
                    last_top_ident = None;
                    collecting = true;
                } else if t == "where" {
                    collecting = false;
                } else if collecting {
                    last_top_ident = Some(t.to_owned());
                }
            }
            TokKind::Punct(b':')
                if angle == 0
                    && paren == 0
                    && !is_punct(toks, i + 1, b':')
                    && !(i > 0 && toks[i - 1].kind == TokKind::Punct(b':')) =>
            {
                // A lone `:` opens a supertrait/bound list (`trait Foo: Bar`);
                // whatever follows is not the subject. `::` path separators
                // (two colons) pass through untouched.
                collecting = false;
            }
            _ => {}
        }
        i += 1;
    }
    (last_top_ident, i)
}

/// Finds the matching `}` for the `{` at token index `open` (the last
/// token when it is never closed).
fn match_braces(toks: &[Tok], open: usize) -> usize {
    group_end(toks, open, b'{', b'}').unwrap_or(toks.len().saturating_sub(1))
}

/// Extracts call sites from the body token slice `toks[from..to]`.
fn scan_calls(toks: &[Tok], from: usize, to: usize, src: &SourceFile) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for k in from..to {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        // `foo(`, or `foo::<T>(` with a turbofish between name and parens.
        let mut open = k + 1;
        if is_punct(toks, k + 1, b':') && is_punct(toks, k + 2, b':') && is_punct(toks, k + 3, b'<')
        {
            open = skip_generics(toks, k + 3);
        }
        if !is_punct(toks, open, b'(') {
            continue;
        }
        let name = src.text(&toks[k]);
        if KEYWORDS.contains(&name) {
            continue;
        }
        // `fn helper(` nested inside a body: a definition, not a call.
        if k > 0 && toks[k - 1].kind == TokKind::Ident && src.text(&toks[k - 1]) == "fn" {
            continue;
        }
        let receiver = if k > 0 && toks[k - 1].kind == TokKind::Punct(b'.') {
            let self_recv = k >= 2
                && toks[k - 2].kind == TokKind::Ident
                && src.text(&toks[k - 2]) == "self"
                && !(k >= 3 && toks[k - 3].kind == TokKind::Punct(b'.'));
            if self_recv {
                Receiver::SelfMethod
            } else {
                Receiver::Method
            }
        } else if k >= 2
            && toks[k - 1].kind == TokKind::Punct(b':')
            && toks[k - 2].kind == TokKind::Punct(b':')
        {
            match toks.get(k.wrapping_sub(3)) {
                Some(t) if k >= 3 && t.kind == TokKind::Ident => {
                    Receiver::Path(src.text(t).to_owned())
                }
                _ => Receiver::Free,
            }
        } else {
            Receiver::Free
        };
        let args = if parens_empty(toks, open) {
            0
        } else {
            let (_, commas, _) = scan_parens(toks, open, src);
            commas + 1
        };
        calls.push(CallSite {
            name: name.to_owned(),
            args,
            receiver,
            line: src.line_of(toks[k].start),
            offset: toks[k].start,
        });
    }
    calls
}

/// Finds the first token at or after `from` (before `to`) that is a `{` at
/// zero paren/bracket nesting depth — the loop body opener after a `for`
/// iterable or `while` condition. Struct literals cannot appear unbracketed
/// in those positions, so the first top-level `{` is the body.
fn find_body_open(toks: &[Tok], from: usize, to: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().take(to).skip(from) {
        match t.kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth = depth.saturating_sub(1),
            TokKind::Punct(b'{') if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// True when `toks[at]` is the identifier `word`.
fn is_word(toks: &[Tok], at: usize, src: &SourceFile, word: &str) -> bool {
    toks.get(at)
        .is_some_and(|t| t.kind == TokKind::Ident && src.text(t) == word)
}

/// Classifies a `for` iterable token range (`in` … body `{`).
fn classify_iterable(toks: &[Tok], from: usize, to: usize, src: &SourceFile) -> LoopClass {
    if from >= to {
        return LoopClass::Unknown;
    }
    // `<lit> .. <lit>` (or `..=`): a constant-bounded counted loop.
    let all_range_lits = {
        let slice = &toks[from..to];
        let nums = slice.iter().filter(|t| t.kind == TokKind::Num).count();
        let dots = slice
            .iter()
            .filter(|t| t.kind == TokKind::Punct(b'.'))
            .count();
        let eqs = slice
            .iter()
            .filter(|t| t.kind == TokKind::Punct(b'='))
            .count();
        nums == 2 && dots == 2 && slice.len() == nums + dots + eqs
    };
    if all_range_lits {
        return LoopClass::Constant;
    }
    let expr = src.joined(&toks[from..to]);
    // `lo..hi`: the upper bound names the input; otherwise the whole
    // iterable expression is the bound (a slice/Vec/iterator adapter).
    let symbol = match expr.split_once("..") {
        Some((_, hi)) if !hi.trim_start_matches('=').trim().is_empty() => {
            hi.trim_start_matches('=').trim().to_owned()
        }
        _ => expr.clone(),
    };
    LoopClass::InputBounded(compact_symbol(&symbol))
}

/// Trims a bounding expression for diagnostics.
fn compact_symbol(s: &str) -> String {
    let s: String = s.split_whitespace().collect::<Vec<_>>().join(" ");
    if s.len() > 48 {
        let mut end = 48;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    } else {
        s
    }
}

/// The name of the last method called in `toks[from..to]` (the ident after
/// the final top-level `.`), if any.
fn last_method_name<'a>(
    toks: &[Tok],
    from: usize,
    to: usize,
    src: &'a SourceFile,
) -> Option<&'a str> {
    let mut last = None;
    for k in from..to {
        if toks[k].kind == TokKind::Punct(b'.')
            && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            last = Some(src.text(&toks[k + 1]));
        }
    }
    last
}

/// True when the identifier `var` receives an assignment inside the body
/// token range: `var += …`, `var -= …`, or a plain `var = …` (not `==`).
fn body_mutates(toks: &[Tok], from: usize, to: usize, src: &SourceFile, var: &str) -> bool {
    for k in from..to {
        if !(toks[k].kind == TokKind::Ident && src.text(&toks[k]) == var) {
            continue;
        }
        // `x.var = …` is a field store on another binding, not the counter.
        if k > 0 && toks[k - 1].kind == TokKind::Punct(b'.') {
            continue;
        }
        match (
            toks.get(k + 1).map(|t| t.kind),
            toks.get(k + 2).map(|t| t.kind),
        ) {
            (Some(TokKind::Punct(b'+')), Some(TokKind::Punct(b'=')))
            | (Some(TokKind::Punct(b'-')), Some(TokKind::Punct(b'='))) => return true,
            (Some(TokKind::Punct(b'=')), next) if next != Some(TokKind::Punct(b'=')) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Extracts every loop in the body token slice `toks[from..to]`, classified
/// by the lexical bound heuristics described on [`LoopClass`].
fn scan_loops(toks: &[Tok], from: usize, to: usize, src: &SourceFile) -> Vec<LoopSite> {
    let mut loops = Vec::new();
    for k in from..to {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        let word = src.text(&toks[k]);
        let site = match word {
            // `for<'a>` higher-ranked bounds are types, not loops.
            "for" if !is_punct(toks, k + 1, b'<') => {
                let in_kw = (k + 1..to).find(|&j| {
                    is_word(toks, j, src, "in") && find_body_open(toks, k + 1, j).is_none()
                });
                let Some(in_kw) = in_kw else { continue };
                let Some(open) = find_body_open(toks, in_kw + 1, to) else {
                    continue;
                };
                let class = classify_iterable(toks, in_kw + 1, open, src);
                Some((class, open, "for"))
            }
            "while" if is_word(toks, k + 1, src, "let") => {
                let Some(open) = find_body_open(toks, k + 2, to) else {
                    continue;
                };
                // `while let … = q.pop()/it.next()`: each iteration drains
                // the source, so the source's length bounds the loop.
                let eq = (k + 2..open).find(|&j| {
                    toks[j].kind == TokKind::Punct(b'=')
                        && !is_punct(toks, j + 1, b'=')
                        && toks.get(j.wrapping_sub(1)).is_none_or(|t| {
                            !matches!(t.kind, TokKind::Punct(b'=' | b'!' | b'<' | b'>'))
                        })
                });
                let class = match eq.and_then(|j| last_method_name(toks, j + 1, open, src)) {
                    Some(m) if m.starts_with("pop") || m == "next" => {
                        let rhs = eq.map_or_else(String::new, |j| src.joined(&toks[j + 1..open]));
                        LoopClass::InputBounded(compact_symbol(&rhs))
                    }
                    _ => LoopClass::Unknown,
                };
                Some((class, open, "while let"))
            }
            "while" => {
                let Some(open) = find_body_open(toks, k + 1, to) else {
                    continue;
                };
                let close = match_braces(toks, open);
                // A counter loop: some condition variable is stepped in the
                // body (`while j > 0 { … j -= 1 }`, `while head < q.len()
                // { … head += 1 }`). The step direction is not checked —
                // that is the author's side of the bargain.
                let counter = (k + 1..open).find_map(|j| {
                    (toks[j].kind == TokKind::Ident)
                        .then(|| src.text(&toks[j]))
                        .filter(|v| {
                            !KEYWORDS.contains(v) && body_mutates(toks, open, close, src, v)
                        })
                });
                let class = match counter {
                    Some(v) => LoopClass::InputBounded(v.to_owned()),
                    None => {
                        // `while xs.len() > k { xs.pop…() }`: shrinking
                        // collection, bounded by its starting length.
                        let cond = src.joined(&toks[k + 1..open]);
                        let pops = (open..close).any(|j| {
                            toks[j].kind == TokKind::Ident
                                && src.text(&toks[j]).starts_with("pop")
                                && j > 0
                                && toks[j - 1].kind == TokKind::Punct(b'.')
                        });
                        if cond.contains(".len") && pops {
                            LoopClass::InputBounded(compact_symbol(&cond))
                        } else {
                            LoopClass::Unknown
                        }
                    }
                };
                Some((class, open, "while"))
            }
            "loop" if is_punct(toks, k + 1, b'{') => Some((LoopClass::Unknown, k + 1, "loop")),
            _ => None,
        };
        if let Some((class, open, keyword)) = site {
            let close = match_braces(toks, open);
            loops.push(LoopSite {
                class,
                line: src.line_of(toks[k].start),
                keyword,
                span: (toks[k].start, toks[close].end),
            });
        }
    }
    loops
}

/// Parses one file's code tokens into items, call sites and loops. Each
/// `hot-path-root`, `det-sink(<name>)` or `det-sanitizer(<name>)` marker
/// of the [`SourceFile`] declares the next `fn` item within 3 lines below
/// it a root, sink or sanitizer (attributes may sit between, doc comments
/// should go above the marker). [`SourceFile::parsed`] caches the result.
#[must_use]
pub fn parse_file(src: &SourceFile) -> ParsedFile {
    let attaches = |m: usize, line: usize| m < line && line <= m + 3;
    let toks = &src.tokens;
    let mut fns = Vec::new();
    let mut calls = Vec::new();
    let mut loops = Vec::new();
    // Innermost pending impl/trait subject per open brace.
    let mut scopes: Vec<Option<String>> = Vec::new();
    let mut pending: Option<Option<String>> = None;
    let mut i = 0;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Ident => {
                let word = src.text(&toks[i]);
                if word == "impl" || word == "trait" {
                    let (subject, next) = parse_impl_header(toks, i, src);
                    pending = Some(subject);
                    i = next;
                    continue;
                }
                if word == "fn" {
                    let (item, body_range, next) = parse_fn(toks, i, src, &scopes);
                    if let Some(mut item) = item {
                        item.is_root = src.hot_path_roots.iter().any(|&l| attaches(l, item.line));
                        item.sink = (src.det_sinks.iter())
                            .find(|(l, _)| attaches(*l, item.line))
                            .map(|(_, name)| name.clone());
                        item.sanitizer =
                            (src.det_sanitizers.iter()).any(|(l, _)| attaches(*l, item.line));
                        let sites = body_range
                            .map(|(from, to)| scan_calls(toks, from, to, src))
                            .unwrap_or_default();
                        let loop_sites = body_range
                            .map(|(from, to)| scan_loops(toks, from, to, src))
                            .unwrap_or_default();
                        fns.push(item);
                        calls.push(sites);
                        loops.push(loop_sites);
                    }
                    i = next;
                    continue;
                }
                i += 1;
            }
            TokKind::Punct(b'{') => {
                scopes.push(pending.take().flatten());
                i += 1;
            }
            TokKind::Punct(b'}') => {
                scopes.pop();
                i += 1;
            }
            _ => i += 1,
        }
    }
    ParsedFile {
        path: src.rel.clone(),
        fns,
        calls,
        loops,
    }
}

/// Parses a `fn` item starting at the `fn` keyword token. Returns the item,
/// the body's *token* range for call scanning, and the next token index.
fn parse_fn(
    toks: &[Tok],
    at: usize,
    src: &SourceFile,
    scopes: &[Option<String>],
) -> (Option<FnItem>, Option<(usize, usize)>, usize) {
    let Some(name_tok) = toks.get(at + 1) else {
        return (None, None, at + 1);
    };
    if name_tok.kind != TokKind::Ident {
        return (None, None, at + 1);
    }
    let name = src.text(name_tok).to_owned();
    let mut j = at + 2;
    if is_punct(toks, j, b'<') {
        j = skip_generics(toks, j);
    }
    if !is_punct(toks, j, b'(') {
        return (None, None, at + 1);
    }
    let (past_params, commas, has_self) = scan_parens(toks, j, src);
    let arity = if parens_empty(toks, j) { 0 } else { commas + 1 };
    // Scan past `-> Type` / `where …` for the body `{` or a trailing `;`.
    let mut k = past_params;
    let mut angle = 0usize;
    let mut body_open = None;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct(b'<') => angle += 1,
            TokKind::Punct(b'>') if !is_arrow(toks, k) => angle = angle.saturating_sub(1),
            TokKind::Punct(b'{') if angle == 0 => {
                body_open = Some(k);
                break;
            }
            TokKind::Punct(b';') if angle == 0 => break,
            _ => {}
        }
        k += 1;
    }
    let body = body_open.map(|open| (open, match_braces(toks, open)));
    let item = FnItem {
        name,
        impl_type: scopes.iter().rev().find_map(Clone::clone),
        arity,
        has_self,
        line: src.line_of(toks[at].start),
        body: body.map(|(open, close)| (toks[open].start, toks[close].end)),
        is_root: false,
        sink: None,
        sanitizer: false,
    };
    match body {
        Some((open, close)) => (Some(item), Some((open + 1, close)), close + 1),
        None => (Some(item), None, k + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::new("t.rs", src))
    }

    #[test]
    fn extracts_free_and_impl_fns_with_arity() {
        let src = "\
pub fn free(a: u32, b: u32) -> u32 { a + b }
struct S;
impl S {
    pub fn method(&self, x: u32) -> u32 { x }
    fn no_body_here() {}
}
impl Scheduler for S {
    fn select(&mut self, ctx: &Ctx) -> Option<usize> { None }
}
";
        let p = parse(src);
        let names: Vec<(&str, Option<&str>, usize, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.arity, f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, 2, false),
                ("method", Some("S"), 2, true),
                ("no_body_here", Some("S"), 0, false),
                ("select", Some("S"), 2, true),
            ]
        );
        assert_eq!(p.fns[0].line, 1);
        assert_eq!(p.fns[3].line, 8);
    }

    #[test]
    fn classifies_call_shapes() {
        let src = "\
impl S {
    fn caller(&self) {
        helper(1, 2);
        self.rank();
        other.feasible(x);
        GammaScratch::load(s, ctx);
        free_generic::<u32>(v);
    }
}
";
        let p = parse(src);
        let calls = &p.calls[0];
        let shapes: Vec<(&str, usize, &Receiver)> = calls
            .iter()
            .map(|c| (c.name.as_str(), c.args, &c.receiver))
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("helper", 2, &Receiver::Free),
                ("rank", 0, &Receiver::SelfMethod),
                ("feasible", 1, &Receiver::Method),
                ("load", 2, &Receiver::Path("GammaScratch".to_owned())),
                ("free_generic", 1, &Receiver::Free),
            ]
        );
        assert_eq!(calls[0].line, 3);
        assert_eq!(calls[3].line, 6);
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "fn f(x: u32) { if cond(x) { vec![1]; assert!(x > 0); } match x { _ => () } }";
        let p = parse(src);
        let names: Vec<&str> = p.calls[0].iter().map(|c| c.name.as_str()).collect();
        // `cond` is a real call; `vec!`/`assert!` are macros (`!` breaks the
        // ident-then-paren shape), `if`/`match` are keywords.
        assert_eq!(names, vec!["cond"]);
    }

    #[test]
    fn root_marker_attaches_to_next_fn() {
        let src = "\
// hcperf-lint: hot-path-root
#[inline]
pub fn hot() {}

pub fn cold() {}
";
        let p = parse(src);
        assert!(p.fns[0].is_root, "{:?}", p.fns);
        assert!(!p.fns[1].is_root);
    }

    #[test]
    fn test_modules_are_invisible() {
        let src = "\
fn shipping() {}
#[cfg(test)]
mod tests {
    fn test_only() { shipping(); }
}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "shipping");
    }

    #[test]
    fn chained_self_field_method_is_unknown_receiver() {
        let src = "impl P { fn step(&mut self) { self.mfc.step(e); self.reset(); } }";
        let p = parse(src);
        assert_eq!(p.calls[0][0].receiver, Receiver::Method);
        assert_eq!(p.calls[0][1].receiver, Receiver::SelfMethod);
    }

    fn loop_shapes(src: &str) -> Vec<(LoopClass, usize, &'static str)> {
        let p = parse(src);
        p.loops
            .iter()
            .flatten()
            .map(|l| (l.class.clone(), l.line, l.keyword))
            .collect()
    }

    #[test]
    fn constant_range_loop_is_constant() {
        let got = loop_shapes("fn f() { for _ in 0..4 { work(); } for _ in 0..=7 { work(); } }");
        assert_eq!(got[0].0, LoopClass::Constant, "{got:?}");
        assert_eq!(got[1].0, LoopClass::Constant, "{got:?}");
    }

    #[test]
    fn input_ranges_and_iterators_are_input_bounded() {
        let src = "\
fn f(xs: &[u32], n: usize) {
    for i in 0..n { touch(i); }
    for i in 1..xs.len() { touch(i); }
    for x in xs.iter().enumerate() { touch(x); }
}
";
        let got = loop_shapes(src);
        assert_eq!(got[0].0, LoopClass::InputBounded("n".to_owned()));
        assert_eq!(got[1].0, LoopClass::InputBounded("xs.len()".to_owned()));
        assert_eq!(
            got[2].0,
            LoopClass::InputBounded("xs.iter().enumerate()".to_owned())
        );
    }

    #[test]
    fn counter_while_loops_are_input_bounded() {
        let src = "\
fn f(n: usize, q: &[u32]) {
    let mut j = n;
    while j > 0 && ahead(j) { j -= 1; }
    let mut head = 0;
    while head < q.len() { head += 1; }
    let mut t = 0;
    while t < until { t = t + step; }
}
";
        let got = loop_shapes(src);
        assert_eq!(got[0].0, LoopClass::InputBounded("j".to_owned()));
        assert_eq!(got[1].0, LoopClass::InputBounded("head".to_owned()));
        assert_eq!(got[2].0, LoopClass::InputBounded("t".to_owned()));
    }

    #[test]
    fn draining_loops_are_input_bounded() {
        let src = "\
fn f(stack: &mut Vec<u32>, it: I) {
    while let Some(t) = stack.pop() { touch(t); }
    while let Some(x) = it.next() { touch(x); }
    while buf.len() > cap + 1 { buf.pop_back(); }
}
";
        let got = loop_shapes(src);
        assert_eq!(got[0].0, LoopClass::InputBounded("stack.pop()".to_owned()));
        assert_eq!(got[1].0, LoopClass::InputBounded("it.next()".to_owned()));
        assert!(
            matches!(&got[2].0, LoopClass::InputBounded(s) if s.contains("buf.len")),
            "{got:?}"
        );
    }

    #[test]
    fn structurally_unbounded_loops_are_unknown() {
        let src = "\
fn f(rx: R) {
    loop { if done() { break; } }
    while !converged() { iterate(); }
    while let Some(m) = rx.recv_msg() { touch(m); }
    while { spin(); }
}
";
        let got = loop_shapes(src);
        assert_eq!(got[0], (LoopClass::Unknown, 2, "loop"));
        assert_eq!(got[1], (LoopClass::Unknown, 3, "while"));
        assert_eq!(got[2], (LoopClass::Unknown, 4, "while let"));
        // No condition at all (malformed input) must not panic.
        assert_eq!(got[3], (LoopClass::Unknown, 5, "while"));
    }

    #[test]
    fn nested_loops_all_surface_with_containing_spans() {
        let src = "\
fn f(n: usize) {
    for a in 0..n {
        for b in 0..n {
            work(a, b);
        }
    }
}
";
        let got = loop_shapes(src);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, 2);
        assert_eq!(got[1].1, 3);
        let p = parse(src);
        let (outer, inner) = (&p.loops[0][0], &p.loops[0][1]);
        assert!(outer.span.0 < inner.span.0 && inner.span.1 < outer.span.1);
        // The call site sits inside both loop spans.
        let call = &p.calls[0][0];
        assert!(outer.span.0 < call.offset && call.offset < inner.span.1);
    }

    #[test]
    fn hrtb_for_and_loop_labels_are_not_loops() {
        let src = "\
fn f(g: impl for<'a> Fn(&'a u32)) {
    'outer: for i in 0..3 { if i > 1 { break 'outer; } }
}
";
        let got = loop_shapes(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, LoopClass::Constant);
    }
}
