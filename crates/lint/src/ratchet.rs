//! The one ratchet behind all four checked-in artifacts.
//!
//! The unwrap baseline, the hot-path baseline, the WCET certificates and
//! the det-flow certificates are the same thing: tab-separated rows,
//! keyed by every column but one value column, that may only shrink.
//! Only data differs between them, and that data is a [`Format`]: the
//! header text, the column order, the value codec (a count,
//! `clean|tainted:N`, or a [`Cost`]) and whether an absent row reads as
//! zero or as new. Growth fails the run; shrink passes with a note.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use crate::report::json_escape;
use crate::wcet::Cost;

/// A row key: the artifact's non-value columns, in file order.
pub type Key = Vec<String>;

/// One artifact format.
#[derive(Debug)]
pub struct Format<V: 'static> {
    /// Workspace-relative path of the checked-in file.
    pub path: &'static str,
    /// What the file is called in errors (`hot-path baseline line 3: …`).
    pub title: &'static str,
    /// The flag that regenerates the file, for the bootstrap hint.
    pub bootstrap: &'static str,
    /// Comment block every rendered file starts with.
    pub header: &'static str,
    /// Column names in file order; non-value names double as JSON keys.
    pub columns: &'static [&'static str],
    /// Index of the value column in `columns`.
    pub value_col: usize,
    /// Reads a value cell.
    pub parse: fn(&str) -> Option<V>,
    /// Writes a value cell.
    pub write: fn(V) -> String,
    /// Shows a value in reports (human and JSON).
    pub show: fn(V) -> String,
    /// Whether JSON quotes what `show` returns.
    pub quoted: bool,
    /// Weight of a value in the `baseline_total`/`current_total` sums;
    /// `None` when the format reports no totals.
    pub total: Option<fn(V) -> usize>,
    /// What an absent row reads as: `Some(0)` for counts, whose zero rows
    /// are omitted from the file and whose shrink rows list by path;
    /// `None` for certificates, where an unlisted row is new (growth).
    pub absent: Option<V>,
    /// Human line per growth row; `None` when findings already cover it.
    /// `{current}`, `{baseline}` and key column names are placeholders.
    pub growth_line: Option<&'static str>,
    /// Human line per shrink row, with the same placeholders.
    pub shrink_line: &'static str,
}

fn parse_count(s: &str) -> Option<usize> {
    s.trim().parse().ok()
}

fn parse_status(s: &str) -> Option<usize> {
    match s.trim() {
        "clean" => Some(0),
        s => s
            .strip_prefix("tainted:")
            .and_then(|n| n.parse().ok())
            .filter(|&n| n > 0),
    }
}

/// `clean` or `tainted:<N>`.
#[must_use]
pub fn status(taints: usize) -> String {
    if taints == 0 {
        "clean".to_owned()
    } else {
        format!("tainted:{taints}")
    }
}

/// `count<TAB>path` unwrap/expect counts in library code.
pub static UNWRAP: Format<usize> = Format {
    path: crate::workspace::BASELINE_PATH,
    title: "ratchet baseline",
    bootstrap: "--update-baseline",
    header: "# hcperf-lint unwrap-ratchet baseline: `.unwrap()`/`.expect(` occurrences in\n\
             # library code (tests and waived lines excluded). This file may only shrink;\n\
             # regenerate with `cargo run -p hcperf-lint -- --update-baseline`.\n",
    columns: &["count", "path"],
    value_col: 0,
    parse: parse_count,
    write: |n| n.to_string(),
    show: |n| n.to_string(),
    quoted: false,
    total: Some(std::convert::identity),
    absent: Some(0),
    growth_line: Some(
        "{path}: [unwrap-ratchet] {current} unwrap/expect sites, baseline allows {baseline}",
    ),
    shrink_line: "note: {path} shrank to {current} unwrap/expect sites (baseline {baseline}); \
                  refresh with --update-baseline",
};

/// `rule<TAB>count<TAB>path` hot-path allocation and panic sites.
pub static HOT_PATH: Format<usize> = Format {
    path: crate::hotpath::BASELINE_PATH,
    title: "hot-path baseline",
    bootstrap: "--hot-path --update-baseline",
    header: "# hcperf-lint hot-path ratchet baseline: allocation and panic-capable\n\
             # sites in functions reachable from `hot-path-root` markers. Rows are\n\
             # `rule<TAB>count<TAB>path` and may only shrink; regenerate with\n\
             # `cargo run -p hcperf-lint -- --hot-path --update-baseline`.\n",
    columns: &["rule", "count", "path"],
    value_col: 1,
    growth_line: Some("{path}: [{rule}] {current} sites, baseline allows {baseline}"),
    shrink_line: "note: {path} shrank to {current} {rule} sites (baseline {baseline}); \
                  refresh with --hot-path --update-baseline",
    ..UNWRAP
};

/// `root<TAB>cost<TAB>path` symbolic cost per hot-path root.
pub static WCET: Format<Cost> = Format {
    path: crate::wcet::CERT_PATH,
    title: "WCET certificates",
    bootstrap: "--update-baselines",
    header: "# hcperf-lint WCET certificates: symbolic cost bound per hot-path\n\
             # root, propagated over the call graph from the loop lattice. Rows\n\
             # are `root<TAB>cost<TAB>path` in the single-variable abstraction\n\
             # O(n^d log^l n); the ratchet rejects any cost increase. Regenerate\n\
             # deliberately with `cargo run -p hcperf-lint -- --update-baselines`.\n",
    columns: &["root", "cost", "path"],
    value_col: 1,
    parse: Cost::parse,
    write: Cost::render,
    show: Cost::render,
    quoted: true,
    total: None,
    absent: None,
    growth_line: None,
    shrink_line: "note: `{root}` certificate shrank to {current} (was {baseline}); \
                  refresh with --wcet --update-baseline",
};

/// `sink<TAB>status<TAB>path` determinism-taint exposure per sink.
pub static DET_FLOW: Format<usize> = Format {
    path: crate::detflow::CERT_PATH,
    title: "det-flow certificates",
    bootstrap: "--update-baselines",
    header: "# hcperf-lint det-flow certificates: per-sink determinism-taint\n\
             # exposure, measured by the interprocedural source->sink dataflow.\n\
             # Rows are `sink<TAB>status<TAB>path` where status is `clean` or\n\
             # `tainted:<N>` (N distinct source sites). The ratchet rejects any\n\
             # new sink or exposure increase; regenerate deliberately with\n\
             # `cargo run -p hcperf-lint -- --update-baselines`.\n",
    columns: &["sink", "status", "path"],
    value_col: 1,
    parse: parse_status,
    write: status,
    show: |n| n.to_string(),
    quoted: false,
    total: None,
    absent: None,
    growth_line: None,
    shrink_line: "note: det-sink `{sink}` shrank to {current} (was {baseline}); \
                  refresh with --det-flow --update-baseline",
};

/// One row's comparison against the checked-in file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta<V> {
    /// The row key.
    pub key: Key,
    /// Checked-in value (`None` = the row is new).
    pub baseline: Option<V>,
    /// Measured value (`None` = the row was removed).
    pub current: Option<V>,
}

/// Outcome of one ratchet comparison.
#[derive(Debug)]
pub struct Ratchet<V: 'static> {
    /// The artifact compared against.
    pub format: &'static Format<V>,
    /// Rows that grew or are new (fail the run).
    pub growth: Vec<Delta<V>>,
    /// Rows that shrank or were removed (refresh the file).
    pub shrink: Vec<Delta<V>>,
    /// Measured and checked-in sums, for count formats.
    pub totals: Option<(usize, usize)>,
}

impl<V: Copy + Ord> Format<V> {
    /// The key column names, which are also the JSON row keys.
    fn key_names(&self) -> Vec<&'static str> {
        let mut names = self.columns.to_vec();
        names.remove(self.value_col);
        names
    }

    /// Parses an artifact. A malformed row or a repeated key is an error
    /// naming its line (a repeated key names both lines).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first bad row.
    pub fn parse(&self, text: &str) -> Result<BTreeMap<Key, V>, String> {
        let mut rows: BTreeMap<Key, (usize, V)> = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let (line, at) = (line.trim(), idx + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut cells: Vec<&str> = line.splitn(self.columns.len(), '\t').collect();
            if cells.len() != self.columns.len() {
                let layout = self.columns.join("<TAB>");
                return Err(format!("{} line {at}: expected `{layout}`", self.title));
            }
            let cell = cells.remove(self.value_col);
            let value = (self.parse)(cell).ok_or_else(|| {
                let what = self.columns[self.value_col];
                format!("{} line {at}: bad {what} `{cell}`", self.title)
            })?;
            let key: Key = cells.iter().map(|c| c.trim().to_owned()).collect();
            if let Some((first, _)) = rows.get(&key) {
                return Err(format!(
                    "{} line {at}: duplicate row `{}` (first at line {first})",
                    self.title,
                    key.join("\t")
                ));
            }
            rows.insert(key, (at, value));
        }
        Ok(rows.into_iter().map(|(k, (_, v))| (k, v)).collect())
    }

    /// Reads and parses the checked-in artifact under `root`; a missing
    /// file is an error with a bootstrap hint, so CI cannot skip the gate.
    ///
    /// # Errors
    ///
    /// Propagates read failures and malformed rows.
    pub fn load(&self, root: &Path) -> io::Result<BTreeMap<Key, V>> {
        let path = root.join(self.path);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "cannot read {} {}: {e}; bootstrap with {}",
                    self.title,
                    path.display(),
                    self.bootstrap
                ),
            )
        })?;
        self.parse(&text)
            .map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    /// Renders the artifact from measured rows, in the given order.
    #[must_use]
    pub fn render(&self, rows: &[(Key, V)]) -> String {
        let mut out = self.header.to_owned();
        for (key, value) in rows.iter().filter(|(_, v)| Some(*v) != self.absent) {
            let mut cells = key.clone();
            cells.insert(self.value_col, (self.write)(*value));
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Compares measured rows against the checked-in ones. Growth lists
    /// measured rows in their order; shrink lists measured rows, then
    /// removed ones (count formats re-sort shrink by path).
    #[must_use]
    pub fn compare(&'static self, rows: &[(Key, V)], baseline: &BTreeMap<Key, V>) -> Ratchet<V> {
        let measured: BTreeSet<&Key> = rows.iter().map(|(k, _)| k).collect();
        let current = rows.iter().map(|(k, v)| {
            let base = baseline.get(k).copied().or(self.absent);
            (k, base, Some(*v))
        });
        let removed = baseline
            .iter()
            .filter(|(k, _)| !measured.contains(k))
            .map(|(k, &v)| (k, Some(v), self.absent));
        let mut ratchet = Ratchet {
            format: self,
            growth: Vec::new(),
            shrink: Vec::new(),
            totals: self.total.map(|weight| {
                (
                    rows.iter().map(|(_, v)| weight(*v)).sum(),
                    baseline.values().map(|v| weight(*v)).sum(),
                )
            }),
        };
        for (key, baseline, current) in current.chain(removed) {
            let delta = Delta {
                key: key.clone(),
                baseline,
                current,
            };
            match current.cmp(&baseline) {
                Ordering::Greater => ratchet.growth.push(delta),
                Ordering::Less => ratchet.shrink.push(delta),
                Ordering::Equal => {}
            }
        }
        if self.absent.is_some() {
            ratchet
                .shrink
                .sort_by(|a, b| a.key.iter().rev().cmp(b.key.iter().rev()));
        }
        ratchet
    }
}

impl<V: Copy + Ord> Ratchet<V> {
    /// True when some row grew.
    #[must_use]
    pub fn grew(&self) -> bool {
        !self.growth.is_empty()
    }

    fn json_value(&self, v: Option<V>) -> String {
        match v {
            None => "null".to_owned(),
            Some(v) if self.format.quoted => format!("\"{}\"", json_escape(&(self.format.show)(v))),
            Some(v) => (self.format.show)(v),
        }
    }

    /// The `ratchet` JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let rows = |deltas: &[Delta<V>]| {
            let rows: Vec<String> = deltas
                .iter()
                .map(|d| {
                    let mut s = String::from("{");
                    for (name, cell) in self.format.key_names().iter().zip(&d.key) {
                        s.push_str(&format!("\"{name}\":\"{}\",", json_escape(cell)));
                    }
                    let (b, c) = (self.json_value(d.baseline), self.json_value(d.current));
                    s.push_str(&format!("\"baseline\":{b},\"current\":{c}}}"));
                    s
                })
                .collect();
            rows.join(",")
        };
        let totals = self.totals.map_or_else(String::new, |(current, baseline)| {
            format!("\"baseline_total\":{baseline},\"current_total\":{current},")
        });
        format!(
            "{{{totals}\"growth\":[{}],\"shrink\":[{}]}}",
            rows(&self.growth),
            rows(&self.shrink)
        )
    }

    /// Human lines for the growth and shrink rows.
    #[must_use]
    pub fn human(&self) -> String {
        let (format, names) = (self.format, self.format.key_names());
        let growth = (format.growth_line.into_iter())
            .flat_map(|template| self.growth.iter().map(move |d| (template, d)));
        let mut out = String::new();
        for (template, d) in growth.chain(self.shrink.iter().map(|d| (format.shrink_line, d))) {
            let show = |v: Option<V>, none: &str| v.map_or_else(|| none.to_owned(), format.show);
            let mut rest = template;
            while let Some((text, tail)) = rest.split_once('{') {
                let (name, tail) = tail.split_once('}').unwrap_or((tail, ""));
                out.push_str(text);
                out.push_str(&match name {
                    "current" => show(d.current, "removed"),
                    "baseline" => show(d.baseline, "absent"),
                    _ => (names.iter().position(|n| *n == name))
                        .map_or_else(String::new, |i| d.key[i].clone()),
                });
                rest = tail;
            }
            out.push_str(rest);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn key(cells: &[&str]) -> Key {
        cells.iter().map(|c| (*c).to_owned()).collect()
    }

    pub(crate) fn rows<V: Copy>(pairs: &[(&[&str], V)]) -> Vec<(Key, V)> {
        pairs.iter().map(|(k, v)| (key(k), *v)).collect()
    }

    /// Table case: `rows` render and parse back to the same non-absent rows.
    pub(crate) fn round_trip<V: Copy + Ord + std::fmt::Debug>(
        format: &'static Format<V>,
        rows: &[(Key, V)],
    ) -> BTreeMap<Key, V> {
        let parsed = format.parse(&format.render(rows)).unwrap();
        let kept: BTreeMap<Key, V> = rows
            .iter()
            .filter(|(_, v)| Some(*v) != format.absent)
            .cloned()
            .collect();
        assert_eq!(parsed, kept);
        parsed
    }

    /// Table case: every `bad` text is rejected, `good` parses.
    pub(crate) fn rejects<V: Copy + Ord>(format: &'static Format<V>, bad: &[&str], good: &str) {
        for text in bad {
            assert!(format.parse(text).is_err(), "{text:?}");
        }
        assert!(format.parse(good).is_ok(), "{good:?}");
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let c = rows(&[(&["a.rs"], 3), (&["b.rs"], 0), (&["c.rs"], 7)]);
        let parsed = round_trip(&UNWRAP, &c);
        assert_eq!(parsed.len(), 2, "zero-count rows are omitted");
    }

    #[test]
    fn growth_fails_shrink_passes() {
        let baseline: BTreeMap<Key, usize> = rows(&[(&["a.rs"], 5), (&["gone.rs"], 2)])
            .into_iter()
            .collect();
        let grown = UNWRAP.compare(&rows(&[(&["a.rs"], 6)]), &baseline);
        assert!(grown.grew());
        assert_eq!(grown.growth[0].current, Some(6));

        let shrunk = UNWRAP.compare(&rows(&[(&["a.rs"], 4)]), &baseline);
        assert!(!shrunk.grew());
        // Both the reduced file and the deleted one register as shrink.
        assert_eq!(shrunk.shrink.len(), 2);
        assert_eq!(shrunk.totals, Some((4, 7)));
    }

    #[test]
    fn new_file_with_unwraps_is_growth() {
        let r = UNWRAP.compare(&rows(&[(&["new.rs"], 1)]), &BTreeMap::new());
        assert!(r.grew());
        assert_eq!(r.growth[0].baseline, Some(0), "absent reads as zero");
    }

    #[test]
    fn rejects_malformed_baseline() {
        rejects(&UNWRAP, &["nonsense", "x\ta.rs"], "# comment\n3\ta.rs\n");
    }

    #[test]
    fn rejects_duplicate_rows_in_every_format() {
        fn dup<V: Copy + Ord + std::fmt::Debug>(format: &'static Format<V>, row: &str) {
            let text = format!("# header\n{row}\n\n{row}\n");
            let err = format.parse(&text).unwrap_err();
            assert!(err.contains("line 4: duplicate row"), "{err}");
            assert!(err.contains("first at line 2"), "{err}");
        }
        dup(&UNWRAP, "3\ta.rs");
        dup(&HOT_PATH, "hot-path-alloc\t3\ta.rs");
        dup(&WCET, "root\tO(n)\tx.rs");
        dup(&DET_FLOW, "sink\tclean\tp.rs");
        // The same first column under another path is a different row.
        assert!(WCET.parse("r\tO(n)\tx.rs\nr\tO(1)\ty.rs\n").is_ok());
    }

    #[test]
    fn human_and_json_rows_follow_the_format() {
        let baseline: BTreeMap<Key, usize> = rows(&[(&["hot-path-panic", "a.rs"], 2)])
            .into_iter()
            .collect();
        let r = HOT_PATH.compare(&rows(&[(&["hot-path-alloc", "a.rs"], 1)]), &baseline);
        assert_eq!(
            r.human(),
            "a.rs: [hot-path-alloc] 1 sites, baseline allows 0\n\
             note: a.rs shrank to 0 hot-path-panic sites (baseline 2); \
             refresh with --hot-path --update-baseline\n"
        );
        assert_eq!(
            r.json(),
            "{\"baseline_total\":2,\"current_total\":1,\"growth\":[{\"rule\":\"hot-path-alloc\",\
             \"path\":\"a.rs\",\"baseline\":0,\"current\":1}],\"shrink\":[{\"rule\":\
             \"hot-path-panic\",\"path\":\"a.rs\",\"baseline\":2,\"current\":0}]}"
        );
        let r = WCET.compare(&[], &[(key(&["r", "x.rs"]), Cost::LINEAR)].into());
        assert_eq!(
            r.human(),
            "note: `r` certificate shrank to removed (was O(n)); refresh with --wcet --update-baseline\n"
        );
        assert!(r.json().contains("\"baseline\":\"O(n)\",\"current\":null"));
    }
}
