#![forbid(unsafe_code)]
//! Static analysis for the FractOS source tree (`fractos-analyze`).
//!
//! The simulation's headline invariant is bit-identical replay, and its
//! concurrency story rests on a small set of conventions that rustc does
//! not check: no thread holding two [`Shared`] guards at once, and
//! allocation-free hot paths in the engine core. This crate checks
//! them from source text, with no dependency on rustc internals or
//! external crates (the build environment is offline). The wire codec
//! needs no pass: each layout is declared once and `fractos_core::wire`
//! generates both directions from it, so drift does not compile.
//!
//! Three passes:
//!
//! * **hazards** — the original determinism lint: wall-clock reads,
//!   `thread_local!`, ambient randomness, hash-order iteration and
//!   `unwrap()`/`expect(` in product paths (see [`passes::hazards`]).
//! * **lock-order** — denies every `Shared<T>` borrow/lock made while a
//!   guard is held, directly or through a call (inter-procedural
//!   may-acquire summaries; see [`passes::lockorder`]). The runtime
//!   complement is `fractos-sim`'s witness, in every debug build.
//! * **hot-path** — denies allocation/copy idioms inside functions
//!   marked `// analyze: hot-path` (see [`passes::hotpath`]).
//!
//! `#[cfg(test)]` modules are exempt everywhere. Justified exceptions
//! live in `crates/lint/allowlist.txt`, one per line with a reason;
//! entries that no longer match any finding are *stale* and fail the
//! full run, so the allowlist cannot rot. All diagnostics are emitted in
//! a deterministic order (sorted by file, line, rule, text), so running
//! the tool twice produces byte-identical output.
//!
//! One binary drives this library: `fractos-analyze` (all passes plus
//! allowlist hygiene; `--pass` narrows the run).
//!
//! [`Shared`]: ../fractos_sim/shared/index.html

use std::fmt;
use std::path::{Path, PathBuf};

pub mod passes;

/// Product crates scanned (shims and this tool are excluded: the shims
/// intentionally wrap wall-clock APIs behind a stable interface, and the
/// analyzer's own sources spell the hazard patterns out).
pub const PRODUCT_CRATES: &[&str] = &[
    "cap",
    "core",
    "net",
    "sim",
    "devices",
    "services",
    "baselines",
    "obs",
    "bench",
];

/// A diagnostic rule identifier. `as_str` names are what the allowlist
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Wallclock,
    ThreadLocal,
    AmbientRand,
    HashIter,
    Unwrap,
    LockOrder,
    HotPath,
}

impl Rule {
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Wallclock => "wallclock",
            Rule::ThreadLocal => "thread-local",
            Rule::AmbientRand => "ambient-rand",
            Rule::HashIter => "hash-iter",
            Rule::Unwrap => "unwrap",
            Rule::LockOrder => "lock-order",
            Rule::HotPath => "hot-path",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "wallclock" => Some(Rule::Wallclock),
            "thread-local" => Some(Rule::ThreadLocal),
            "ambient-rand" => Some(Rule::AmbientRand),
            "hash-iter" => Some(Rule::HashIter),
            "unwrap" => Some(Rule::Unwrap),
            "lock-order" => Some(Rule::LockOrder),
            "hot-path" => Some(Rule::HotPath),
            _ => None,
        }
    }
}

/// One diagnostic, anchored to one line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: PathBuf,
    pub line: usize,
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.as_str(),
            self.text.trim()
        )
    }
}

/// One allowlist entry: `rule|path-suffix|substring-or-*|reason`.
pub struct AllowEntry {
    pub rule: Rule,
    pub path_suffix: String,
    pub needle: String,
    /// The reason is for humans reading the file; parsing enforces that
    /// it is present.
    pub reason: String,
    /// 1-based line in allowlist.txt, for stale-entry diagnostics.
    pub line: usize,
}

impl AllowEntry {
    pub fn matches(&self, finding: &Finding) -> bool {
        self.rule == finding.rule
            && finding.file.to_string_lossy().ends_with(&self.path_suffix)
            && (self.needle == "*" || finding.text.contains(&self.needle))
    }
}

pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').collect();
        let [rule, path, needle, reason] = parts[..] else {
            return Err(format!(
                "allowlist line {}: expected `rule|path-suffix|substring-or-*|reason`",
                i + 1
            ));
        };
        let Some(rule) = Rule::parse(rule.trim()) else {
            return Err(format!("allowlist line {}: unknown rule `{rule}`", i + 1));
        };
        if reason.trim().is_empty() {
            return Err(format!(
                "allowlist line {}: every exception needs a reason",
                i + 1
            ));
        }
        entries.push(AllowEntry {
            rule,
            path_suffix: path.trim().to_string(),
            needle: needle.trim().to_string(),
            reason: reason.trim().to_string(),
            line: i + 1,
        });
    }
    Ok(entries)
}

/// Blanks comments, string literals and char literals from `src`,
/// preserving line structure and byte offsets, so rules never fire on
/// prose or messages and masked positions map 1:1 onto raw positions.
pub fn mask_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = |k: usize| bytes.get(i + k).copied().unwrap_or(0);
        match st {
            St::Code => match b {
                b'/' if next(1) == b'/' => {
                    st = St::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                b'/' if next(1) == b'*' => {
                    st = St::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                }
                b'"' => {
                    st = St::Str;
                    out.push(b' ');
                    i += 1;
                }
                b'r' if next(1) == b'"' || (next(1) == b'#') => {
                    // Possible raw string r"..." / r#"..."#; count hashes.
                    let mut hashes = 0;
                    while next(1 + hashes) == b'#' {
                        hashes += 1;
                    }
                    if next(1 + hashes) == b'"' {
                        st = St::RawStr(hashes);
                        out.resize(out.len() + 2 + hashes, b' ');
                        i += 2 + hashes;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                }
                b'\'' => {
                    // Char literal or lifetime. A lifetime ('a, 'static) has
                    // no closing quote within a couple of chars.
                    let is_char = next(1) == b'\\'
                        || next(2) == b'\''
                        || (next(1) != 0 && next(2) != 0 && next(3) == b'\'' && next(1) == b'\\');
                    if is_char {
                        st = St::Char;
                        out.push(b' ');
                        i += 1;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                }
                _ => {
                    out.push(b);
                    i += 1;
                }
            },
            St::LineComment => {
                if b == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => {
                if b == b'/' && next(1) == b'*' {
                    st = St::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'*' && next(1) == b'/' {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            St::Str => {
                if b == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    st = St::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if b == b'"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if next(1 + k) != b'#' {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        st = St::Code;
                        out.resize(out.len() + 1 + hashes, b' ');
                        i += 1 + hashes;
                        continue;
                    }
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            St::Char => {
                if b == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'\'' {
                    st = St::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Marks, per line, whether it sits inside a `#[cfg(test)]`-gated item
/// (the standard in-file unit-test module). Operates on masked source so
/// braces in strings/comments don't skew the depth tracking.
pub fn test_region_lines(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // The gated item starts at the next `{` and ends when its
            // brace closes.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                in_test[j] = true;
                for b in lines[j].bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// The identifier ending just before byte `pos` of `line`, if any.
pub fn ident_before(line: &str, pos: usize) -> Option<String> {
    let head = &line.as_bytes()[..pos];
    let end = head
        .iter()
        .rposition(|b| b.is_ascii_alphanumeric() || *b == b'_')?
        + 1;
    let start = head[..end]
        .iter()
        .rposition(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
        .map_or(0, |p| p + 1);
    if start == end {
        return None;
    }
    Some(String::from_utf8_lossy(&head[start..end]).into_owned())
}

/// A product source file with the derived views every pass needs.
pub struct SourceFile {
    pub path: PathBuf,
    pub raw: String,
    /// [`mask_source`] of `raw`: byte-offset-compatible, prose blanked.
    pub masked: String,
    /// Per-line `#[cfg(test)]` membership, from [`test_region_lines`].
    pub in_test: Vec<bool>,
    /// Byte offset of the start of each (0-based) line in `masked`.
    line_starts: Vec<usize>,
}

impl SourceFile {
    pub fn from_source(path: impl Into<PathBuf>, raw: &str) -> SourceFile {
        let masked = mask_source(raw);
        let in_test = test_region_lines(&masked);
        let mut line_starts = vec![0];
        for (i, b) in masked.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            path: path.into(),
            raw: raw.to_string(),
            masked,
            in_test,
            line_starts,
        }
    }

    pub fn load(path: &Path) -> Result<SourceFile, String> {
        let raw =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(SourceFile::from_source(path, &raw))
    }

    /// 1-based line number containing byte offset `pos` of `masked`.
    pub fn line_of(&self, pos: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= pos)
    }

    /// Whether the (1-based) line sits in a `#[cfg(test)]` region.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Whether an `// analyze: <marker>` comment sits in the attribute /
    /// doc-comment block immediately above the (1-based) `sig_line`.
    pub fn marker_above(&self, sig_line: usize, marker: &str) -> bool {
        let lines: Vec<&str> = self.raw.lines().collect();
        let mut i = sig_line.saturating_sub(1); // index of the fn line
        while i > 0 {
            i -= 1;
            let t = lines.get(i).map(|l| l.trim()).unwrap_or("");
            if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") {
                if t.contains(marker) {
                    return true;
                }
            } else {
                return false;
            }
        }
        false
    }
}

/// One `fn` item found in masked source: its name, the line of the `fn`
/// keyword, and the byte span of its `{ .. }` body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    pub sig_line: usize,
    pub body_start: usize,
    pub body_end: usize,
}

/// Extracts every `fn` item (including nested and trait-default fns;
/// bodiless trait declarations are skipped) from masked source. Works on
/// token shape only: the `fn` keyword, the following identifier, then
/// the first top-level `{` (a `;` first means no body).
pub fn fn_spans(file: &SourceFile) -> Vec<FnSpan> {
    let b = file.masked.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 2 < b.len() {
        if b[i] == b'f'
            && b[i + 1] == b'n'
            && (i == 0 || !is_ident(b[i - 1]))
            && b[i + 2].is_ascii_whitespace()
        {
            let mut j = i + 2;
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < b.len() && is_ident(b[j]) {
                j += 1;
            }
            if j == name_start {
                i += 2;
                continue;
            }
            let name = file.masked[name_start..j].to_string();
            // Find the body `{` or a `;` (no body), skipping the
            // signature. Parens/brackets in the signature can't contain
            // braces (no default arguments in Rust), but an array type's
            // `[T; N]` holds a `;` that does not end the item.
            let mut k = j;
            let mut body_start = None;
            let mut brackets = 0u32;
            while k < b.len() {
                match b[k] {
                    b'{' => {
                        body_start = Some(k);
                        break;
                    }
                    b'[' => brackets += 1,
                    b']' => brackets = brackets.saturating_sub(1),
                    b';' if brackets == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if let Some(start) = body_start {
                let mut depth = 0i32;
                let mut end = start;
                while end < b.len() {
                    match b[end] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    end += 1;
                }
                spans.push(FnSpan {
                    name,
                    sig_line: file.line_of(i),
                    body_start: start,
                    body_end: (end + 1).min(b.len()),
                });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

pub fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

pub fn workspace_root() -> PathBuf {
    // crates/lint/ -> workspace root. CARGO_MANIFEST_DIR is compiled in,
    // so `cargo run -p fractos-lint` works from any cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Loads every product-crate source file under `root`, sorted by path.
pub fn load_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for krate in PRODUCT_CRATES {
        walk_rs_files(&root.join("crates").join(krate).join("src"), &mut paths);
    }
    if paths.is_empty() {
        return Err(format!(
            "no sources found under {} — wrong root?",
            root.display()
        ));
    }
    paths.iter().map(|p| SourceFile::load(p)).collect()
}

/// An analysis pass identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Hazards,
    LockOrder,
    HotPath,
}

impl Pass {
    pub const ALL: &[Pass] = &[Pass::Hazards, Pass::LockOrder, Pass::HotPath];

    pub fn as_str(self) -> &'static str {
        match self {
            Pass::Hazards => "hazards",
            Pass::LockOrder => "lock-order",
            Pass::HotPath => "hot-path",
        }
    }

    pub fn parse(s: &str) -> Option<Pass> {
        match s {
            "hazards" => Some(Pass::Hazards),
            "lock-order" => Some(Pass::LockOrder),
            "hot-path" => Some(Pass::HotPath),
            _ => None,
        }
    }

    pub fn run(self, files: &[SourceFile]) -> Vec<Finding> {
        match self {
            Pass::Hazards => passes::hazards::run(files),
            Pass::LockOrder => passes::lockorder::run(files),
            Pass::HotPath => passes::hotpath::run(files),
        }
    }
}

/// The result of one analysis run.
pub struct Analysis {
    /// Number of source files scanned.
    pub files: usize,
    /// Unsuppressed findings, sorted by (file, line, rule, text).
    pub reported: Vec<Finding>,
    /// Count of findings suppressed by the allowlist.
    pub suppressed: usize,
    /// Stale-allowlist diagnostics (entries that matched nothing), one
    /// formatted line each. Populated only when `check_stale` was set.
    pub stale: Vec<String>,
}

/// Runs `passes` over the product sources under `root`, applying the
/// allowlist at `crates/lint/allowlist.txt`.
///
/// With `check_stale` set (only meaningful when *all* passes run, since
/// an entry for a skipped pass trivially matches nothing), allowlist
/// entries that suppressed no finding are reported in
/// [`Analysis::stale`] so the exception list cannot outlive the code it
/// excuses.
pub fn analyze(root: &Path, passes: &[Pass], check_stale: bool) -> Result<Analysis, String> {
    let allow_path = root.join("crates/lint/allowlist.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allowlist = parse_allowlist(&allow_text)?;
    let files = load_sources(root)?;

    let mut findings = Vec::new();
    for pass in passes {
        findings.extend(pass.run(&files));
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule.as_str(), &a.text).cmp(&(
            &b.file,
            b.line,
            b.rule.as_str(),
            &b.text,
        ))
    });

    let mut hits = vec![0usize; allowlist.len()];
    let mut reported = Vec::new();
    let mut suppressed = 0;
    for finding in findings {
        match allowlist.iter().position(|a| a.matches(&finding)) {
            Some(i) => {
                hits[i] += 1;
                suppressed += 1;
            }
            None => reported.push(finding),
        }
    }

    let mut stale = Vec::new();
    if check_stale {
        for (entry, &n) in allowlist.iter().zip(&hits) {
            if n == 0 {
                stale.push(format!(
                    "crates/lint/allowlist.txt:{}: stale allowlist entry `{}|{}|{}` suppresses nothing — remove it",
                    entry.line,
                    entry.rule.as_str(),
                    entry.path_suffix,
                    entry.needle
                ));
            }
        }
    }

    Ok(Analysis {
        files: files.len(),
        reported,
        suppressed,
        stale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked() {
        let src = "// Instant::now()\nfn f() -> &'static str { \"thread_rng()\" }\n";
        let masked = mask_source(src);
        assert!(!masked.contains("Instant"));
        assert!(!masked.contains("thread_rng"));
        assert_eq!(masked.len(), src.len(), "masking must preserve offsets");
    }

    #[test]
    fn raw_strings_are_masked() {
        let src = "fn f() -> &'static str { r#\"SystemTime::now()\"# }\n";
        assert!(!mask_source(src).contains("SystemTime"));
    }

    #[test]
    fn allowlist_suppresses_with_reason_only() {
        assert!(parse_allowlist("unwrap|net/src/fabric.rs|checked_add|overflow guard").is_ok());
        assert!(parse_allowlist("unwrap|net/src/fabric.rs|checked_add|").is_err());
        assert!(parse_allowlist("nosuch|a.rs|*|why").is_err());
        assert!(parse_allowlist("# comment\n\n").unwrap().is_empty());
        let new_rules = "lock-order|sim/src/x.rs|*|why\nhot-path|b.rs|*|why";
        assert_eq!(parse_allowlist(new_rules).unwrap().len(), 2);
    }

    #[test]
    fn allowlist_matches_by_rule_path_and_needle() {
        let entries =
            parse_allowlist("unwrap|fabric.rs|checked_add|overflow guard").expect("parses");
        let hit = Finding {
            rule: Rule::Unwrap,
            file: PathBuf::from("/w/crates/net/src/fabric.rs"),
            line: 71,
            text: ".checked_add(occ).expect(..)".into(),
        };
        let miss_rule = Finding {
            rule: Rule::Wallclock,
            file: hit.file.clone(),
            line: 71,
            text: hit.text.clone(),
        };
        let miss_text = Finding {
            rule: Rule::Unwrap,
            file: hit.file.clone(),
            line: 90,
            text: "other.unwrap()".into(),
        };
        assert!(entries[0].matches(&hit));
        assert!(!entries[0].matches(&miss_rule));
        assert!(!entries[0].matches(&miss_text));
    }

    #[test]
    fn fn_spans_find_bodies_and_skip_declarations() {
        let src = "trait T {\n    fn decl(&self) -> [u8; 2];\n    fn with_default(&self) -> u32 { 1 }\n}\nfn top(x: fn(u32) -> u32) -> u32 {\n    fn nested() -> u32 { 2 }\n    x(nested())\n}\nfn array(a: [u8; 2]) -> [u8; 2] { a }\n";
        let file = SourceFile::from_source("x.rs", src);
        let spans = fn_spans(&file);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["with_default", "top", "nested", "array"]);
        let top = spans.iter().find(|s| s.name == "top").unwrap();
        let nested = spans.iter().find(|s| s.name == "nested").unwrap();
        assert!(top.body_start < nested.body_start && nested.body_end < top.body_end);
    }

    #[test]
    fn markers_attach_through_doc_comments_and_attributes() {
        let src = "// analyze: hot-path\n/// Docs.\n#[inline]\nfn hot() {}\n\nfn cold() {}\n";
        let file = SourceFile::from_source("x.rs", src);
        let spans = fn_spans(&file);
        let hot = spans.iter().find(|s| s.name == "hot").unwrap();
        let cold = spans.iter().find(|s| s.name == "cold").unwrap();
        assert!(file.marker_above(hot.sig_line, "analyze: hot-path"));
        assert!(!file.marker_above(cold.sig_line, "analyze: hot-path"));
    }

    #[test]
    fn line_of_maps_offsets_to_lines() {
        let file = SourceFile::from_source("x.rs", "a\nbb\nccc\n");
        assert_eq!(file.line_of(0), 1);
        assert_eq!(file.line_of(2), 2);
        assert_eq!(file.line_of(5), 3);
    }

    #[test]
    fn analysis_runs_clean_over_this_repository() {
        // The repo-level guarantee CI enforces: all three passes, zero
        // unallowlisted findings, zero stale allowlist entries.
        let root = workspace_root();
        let analysis = analyze(&root, Pass::ALL, true).expect("analysis runs");
        assert!(
            analysis.reported.is_empty(),
            "unallowlisted findings:\n{}",
            analysis
                .reported
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            analysis.stale.is_empty(),
            "stale allowlist entries:\n{}",
            analysis.stale.join("\n")
        );
    }

    #[test]
    fn analysis_is_deterministic_across_runs() {
        let root = workspace_root();
        let render = |a: &Analysis| {
            let mut s = String::new();
            for f in &a.reported {
                s.push_str(&f.to_string());
                s.push('\n');
            }
            for l in &a.stale {
                s.push_str(l);
                s.push('\n');
            }
            s
        };
        let a = analyze(&root, Pass::ALL, true).expect("first run");
        let b = analyze(&root, Pass::ALL, true).expect("second run");
        assert_eq!(render(&a), render(&b), "output must be byte-identical");
        assert_eq!(a.suppressed, b.suppressed);
        assert_eq!(a.files, b.files);
    }
}
