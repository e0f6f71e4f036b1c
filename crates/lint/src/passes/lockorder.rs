//! One-lock analysis over `Shared<T>` acquisition sites.
//!
//! The simulator's shared substrate state is guarded by `Shared<T>`
//! (`Arc<Mutex<T>>` with `borrow`/`borrow_mut` vocabulary), under one rule:
//! no thread ever holds two guards, so a thread waiting on a lock holds
//! none and no interleaving can deadlock. The pass reports every place a
//! guard may be held while another lock is taken:
//!
//! 1. **Acquisitions.** Every `.borrow()`, `.borrow_mut()` and `.lock()`
//!    call site is an acquisition of the lock *class* named by its
//!    receiver identifier (`self.fabric.borrow_mut()` acquires `fabric`;
//!    `state().lock()` acquires `state`). These three methods are the
//!    locking primitives: they are never traversed as ordinary calls.
//! 2. **Hold scopes.** A guard bound by a plain `let` (`let g =
//!    x.borrow();`, including `?` and unwrap-family adapters that
//!    forward the guard, as in `slot.lock().unwrap_or_else(..)`) is held
//!    to the end of its enclosing block. Any other use is a temporary:
//!    projections (`x.borrow().field`) and consumed chains
//!    (`x.borrow_mut().send(..)`) hold to the end of their statement —
//!    a `;` or `,` at nesting depth zero; a plain `if`/`while`
//!    condition ends at its `{`; a `match`/`if let` scrutinee spans the
//!    whole construct, mirroring Rust temporary-lifetime rules.
//! 3. **Calls.** A call made while holding a guard is checked against
//!    everything the callee *may* acquire, transitively (a name-keyed
//!    summary fixpoint over all product functions; same-named functions
//!    are merged, a safe over-approximation). Only calls whose callee
//!    is nameable are resolved — `self.method(..)`, `Path::func(..)` and
//!    bare `helper(..)` — and ubiquitous std method names (`new`,
//!    `push`, `get`, ...) are excluded, so `Vec::new()` does not smear
//!    every product constructor's summary into its caller. Method calls
//!    on arbitrary expression receivers are left to the runtime witness.
//! 4. **Verdicts.** Every held → acquired pair is a finding, whatever the
//!    two classes: an acquisition while a guard is held, and a call made
//!    while a guard is held to a callee that may acquire.
//!
//! Functions annotated `// analyze: lock-primitive` (the `Shared`
//! internals and the witness, which manipulate raw mutexes *to
//! implement* the discipline) are skipped entirely. `#[cfg(test)]` code
//! is exempt. The runtime complement of this pass is `fractos-sim`'s
//! witness, compiled into every debug build, which panics when a thread
//! holding a guard takes another.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::{fn_spans, Finding, Rule, SourceFile};

/// The locking primitives: a call to one of these is an acquisition.
const PRIMITIVES: &[&str] = &["borrow", "borrow_mut", "lock"];

/// Callee names ignored by the call graph: std-prelude methods so common
/// that a product function sharing the name (every `fn new`) would smear
/// unrelated summaries together. Product functions with these names are
/// still *scanned* (their own bodies are analyzed); they are just never
/// resolved as callees.
const STD_NOISE: &[&str] = &[
    "new",
    "default",
    "clone",
    "from",
    "into",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "entry",
    "contains",
    "contains_key",
    "drain",
    "take",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "filter",
    "collect",
    "extend",
    "min",
    "max",
    "cmp",
    "eq",
    "fmt",
    "drop",
    "expect",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "to_vec",
    "to_string",
    "clamp",
    "abs",
    "ok",
    "err",
    "as_ref",
    "as_mut",
];

/// Control-flow keywords that can precede a `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move",
];

/// Marker exempting a function from this pass.
pub const PRIMITIVE_MARKER: &str = "analyze: lock-primitive";

#[derive(Debug)]
enum Event {
    /// `.borrow()` / `.borrow_mut()` / `.lock()` of class `class`.
    Acquire { pos: usize, class: String },
    /// A potential product-fn call observed at `pos`.
    Call { pos: usize, name: String },
}

/// Lock classes held at a call site, each with the line it was taken on.
type HeldSet = Vec<(String, usize)>;

#[derive(Default)]
struct FnFacts {
    /// Classes this fn acquires directly.
    direct: BTreeSet<String>,
    /// Callee names (deduped) for summary propagation.
    callees: BTreeSet<String>,
    /// Calls made while holding locks: (held classes, callee, line).
    held_calls: Vec<(HeldSet, String, usize)>,
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The receiver class of a primitive call whose `.` sits at `dot`:
/// the identifier just before it (skipping whitespace, so multiline
/// builder chains resolve), or the callee identifier of a trailing
/// `ident(...)` receiver (`state().lock()` -> `state`).
fn receiver_class(masked: &[u8], dot: usize) -> Option<String> {
    let mut i = dot;
    while i > 0 && masked[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 {
        return None;
    }
    if masked[i - 1] == b')' {
        // Balance back over the call's parens, then take its name.
        let mut depth = 0i32;
        let mut j = i;
        while j > 0 {
            j -= 1;
            match masked[j] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        if j == 0 || !is_ident(masked[j - 1]) {
            return None;
        }
        i = j;
    }
    let end = i;
    let mut start = end;
    while start > 0 && is_ident(masked[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let id = std::str::from_utf8(&masked[start..end]).ok()?.to_string();
    id.bytes().any(|b| b.is_ascii_alphabetic()).then_some(id)
}

/// Extracts acquisition and call events from one fn body, in order.
fn body_events(masked: &str, start: usize, end: usize) -> Vec<Event> {
    let b = masked.as_bytes();
    let mut events = Vec::new();
    let mut i = start;
    while i < end {
        if b[i] == b'(' && i > start && is_ident(b[i - 1]) {
            let mut s = i;
            while s > start && is_ident(b[s - 1]) {
                s -= 1;
            }
            let name = &masked[s..i];
            // `fn name(` is a nested definition, not a call.
            let decl = s >= 3 && &masked[s.saturating_sub(3)..s] == "fn ";
            if !decl && !KEYWORDS.contains(&name) && !name.is_empty() {
                let mut d = s;
                while d > start && b[d - 1].is_ascii_whitespace() {
                    d -= 1;
                }
                let after_dot = d > start && b[d - 1] == b'.';
                if PRIMITIVES.contains(&name) && after_dot {
                    // d-1 is the `.` of the method call.
                    if let Some(class) = receiver_class(b, d - 1) {
                        events.push(Event::Acquire { pos: i, class });
                    }
                } else if !PRIMITIVES.contains(&name) {
                    // Resolve only nameable callees: `self.m(..)`,
                    // `Path::f(..)`, bare `f(..)`. Method calls on other
                    // receivers dispatch on types this text-level pass
                    // cannot see; resolving them by bare name would smear
                    // unrelated summaries together.
                    let resolvable = if after_dot {
                        let recv_end = d - 1;
                        let mut r = recv_end;
                        while r > start && is_ident(b[r - 1]) {
                            r -= 1;
                        }
                        &masked[r..recv_end] == "self"
                    } else {
                        true // bare call or `::` path call
                    };
                    if resolvable {
                        events.push(Event::Call {
                            pos: i,
                            name: name.to_string(),
                        });
                    }
                }
            }
        }
        i += 1;
    }
    events
}

/// The byte offset just past the matching `)` of the `(` at `open`.
fn after_balanced(b: &[u8], open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < limit {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    limit
}

/// Adapters that *forward* the guard instead of consuming it: `.lock()`
/// returns `Result<Guard, _>`, so only the unwrap family yields a guard
/// from a chain. Everything else (`.send(..)`, `.params()`) consumes the
/// guard as a temporary.
const FORWARDERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "unwrap_or_default"];

/// Start offset of the statement containing `pos`: just past the nearest
/// `;`, `{` or `}` at relative nesting depth 0 scanning backwards.
fn stmt_start(b: &[u8], body_start: usize, pos: usize) -> usize {
    let mut depth = 0i32;
    let mut i = pos;
    while i > body_start {
        i -= 1;
        match b[i] {
            b')' | b']' => depth += 1,
            b'(' | b'[' => depth -= 1,
            b'}' => {
                if depth == 0 {
                    return i + 1;
                }
                depth += 1;
            }
            b'{' => {
                if depth == 0 {
                    return i + 1;
                }
                depth -= 1;
            }
            b';' | b',' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    body_start
}

/// First word of the statement starting at `stmt` (for keyword
/// classification), skipping a leading `else`.
fn stmt_keyword(b: &[u8], stmt: usize, limit: usize) -> &[u8] {
    let mut j = stmt;
    loop {
        while j < limit && b[j].is_ascii_whitespace() {
            j += 1;
        }
        let w = j;
        while j < limit && is_ident(b[j]) {
            j += 1;
        }
        if &b[w..j] == b"else" {
            continue;
        }
        return &b[w..j];
    }
}

/// Whether the statement containing the acquisition at `paren` (its call
/// `(`) is a plain `let` binding of the guard: starts with `let` and the
/// expression tail after the primitive call is only `?` and unwrap-family
/// adapter calls up to `;`. `let x = g.borrow().field;` (projection) and
/// `let n = g.borrow().len();` (consumed chain) are temporaries.
fn is_guard_binding(b: &[u8], body_start: usize, paren: usize, body_end: usize) -> bool {
    let stmt = stmt_start(b, body_start, paren);
    if stmt_keyword(b, stmt, paren) != b"let" {
        return false;
    }
    // Walk the tail after the primitive call's balanced parens.
    let mut k = after_balanced(b, paren, body_end);
    loop {
        while k < body_end && b[k].is_ascii_whitespace() {
            k += 1;
        }
        if k >= body_end {
            return false;
        }
        match b[k] {
            b';' => return true,
            b'?' => k += 1,
            b'.' => {
                k += 1;
                let m = k;
                while k < body_end && is_ident(b[k]) {
                    k += 1;
                }
                let method = std::str::from_utf8(&b[m..k]).unwrap_or("");
                if !FORWARDERS.contains(&method) {
                    return false;
                }
                while k < body_end && b[k].is_ascii_whitespace() {
                    k += 1;
                }
                if k < body_end && b[k] == b'(' {
                    k = after_balanced(b, k, body_end);
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

/// Release offset for a statement-temporary guard acquired at `pos`,
/// mirroring Rust temporary-lifetime rules at token level:
///
/// * plain `if`/`while` head — the condition's temporaries drop at the
///   `{` opening the body;
/// * `match`/`for` head (which desugar to a `match` on the scrutinee)
///   and `if let`/`while let` — scrutinee temporaries live to the `}`
///   closing the construct's first block;
/// * anything else — the next `;` or `,` at relative depth 0 (the `,`
///   covers match-arm bodies), or the `}` closing the enclosing scope.
fn statement_release(b: &[u8], body_start: usize, pos: usize, body_end: usize) -> usize {
    let stmt = stmt_start(b, body_start, pos);
    let kw = stmt_keyword(b, stmt, pos);
    let plain_cond = kw == b"if" || kw == b"while";
    let spans_block = kw == b"match" || kw == b"for";
    // `if let` / `while let`: the head text contains ` let` before the
    // acquisition — those scrutinee temporaries also span the construct.
    let let_cond = plain_cond && b[stmt..pos].windows(4).any(|w| w == b" let");
    let mut depth = 0i32;
    let mut i = pos;
    while i < body_end {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' => {
                if depth == 0 && (plain_cond || spans_block) {
                    if plain_cond && !let_cond {
                        // Condition temporaries die at the body `{`.
                        return i;
                    }
                    // Scrutinee temporaries live to the matching `}`.
                    let mut d = 0i32;
                    let mut j = i;
                    while j < body_end {
                        match b[j] {
                            b'{' => d += 1,
                            b'}' => {
                                d -= 1;
                                if d == 0 {
                                    return j;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return body_end;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            b';' | b',' if depth <= 0 => return i,
            _ => {}
        }
        i += 1;
    }
    body_end
}

/// Analyzes one fn body: records direct acquisitions and held-call
/// observations, and reports every acquisition made while a guard is held.
fn analyze_body(
    file: &SourceFile,
    body_start: usize,
    body_end: usize,
    facts: &mut FnFacts,
    findings: &mut Vec<Finding>,
) {
    let b = file.masked.as_bytes();
    let events = body_events(&file.masked, body_start, body_end);

    // Scope stack of `{` positions with their matching `}` offsets.
    let mut scope_close: Vec<usize> = Vec::new();
    let mut holds: Vec<(String, usize, usize)> = Vec::new(); // (class, release, line)
    let mut ev = events.iter().peekable();
    let mut i = body_start;
    while i < body_end {
        holds.retain(|&(_, release, _)| release > i);
        match b[i] {
            b'{' => {
                let mut depth = 0i32;
                let mut j = i;
                let mut close = body_end;
                while j < body_end {
                    match b[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                close = j;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                scope_close.push(close);
            }
            b'}' => {
                scope_close.pop();
            }
            _ => {}
        }
        while let Some(event) = ev.peek() {
            let pos = match event {
                Event::Acquire { pos, .. } | Event::Call { pos, .. } => *pos,
            };
            if pos != i {
                break;
            }
            match ev.next().unwrap() {
                Event::Acquire { pos, class } => {
                    let line = file.line_of(*pos);
                    for (held, _, held_line) in &holds {
                        findings.push(nested(
                            file.path.clone(),
                            line,
                            held,
                            *held_line,
                            format!("acquires `{class}`"),
                        ));
                    }
                    facts.direct.insert(class.clone());
                    let release = if is_guard_binding(b, body_start, *pos, body_end) {
                        scope_close.last().copied().unwrap_or(body_end)
                    } else {
                        statement_release(b, body_start, *pos, body_end)
                    };
                    holds.push((class.clone(), release, line));
                }
                Event::Call { pos, name } => {
                    facts.callees.insert(name.clone());
                    if !holds.is_empty() {
                        facts.held_calls.push((
                            holds.iter().map(|(c, _, l)| (c.clone(), *l)).collect(),
                            name.clone(),
                            file.line_of(*pos),
                        ));
                    }
                }
            }
        }
        i += 1;
    }
}

/// The finding for one `held -> acquired` pair.
fn nested(file: PathBuf, line: usize, held: &str, held_line: usize, what: String) -> Finding {
    Finding {
        rule: Rule::LockOrder,
        file,
        line,
        text: format!(
            "{what} while `{held}` is held (since line {held_line}); \
             no thread holds two Shared guards"
        ),
    }
}

pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Name-keyed facts; same-named fns merge (safe over-approximation).
    let mut facts: BTreeMap<String, FnFacts> = BTreeMap::new();
    let mut held_calls: Vec<(PathBuf, HeldSet, String, usize)> = Vec::new();

    for file in files {
        for span in fn_spans(file) {
            if file.line_in_test(span.sig_line)
                || file.marker_above(span.sig_line, PRIMITIVE_MARKER)
            {
                continue;
            }
            let mut f = FnFacts::default();
            analyze_body(file, span.body_start, span.body_end, &mut f, &mut findings);
            for (held, callee, line) in std::mem::take(&mut f.held_calls) {
                held_calls.push((file.path.clone(), held, callee, line));
            }
            let entry = facts.entry(span.name.clone()).or_default();
            entry.direct.extend(f.direct);
            entry.callees.extend(f.callees);
        }
    }

    // Summary fixpoint: may-acquire(f) = direct(f) ∪ may-acquire(callees).
    let mut summaries: BTreeMap<&str, BTreeSet<String>> = facts
        .iter()
        .map(|(name, f)| (name.as_str(), f.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, f) in &facts {
            let mut add = BTreeSet::new();
            for callee in &f.callees {
                if STD_NOISE.contains(&callee.as_str()) {
                    continue;
                }
                if let Some(s) = summaries.get(callee.as_str()) {
                    add.extend(s.iter().cloned());
                }
            }
            let mine = summaries.get_mut(name.as_str()).expect("seeded above");
            for class in add {
                changed |= mine.insert(class);
            }
        }
        if !changed {
            break;
        }
    }

    // Calls made while holding a guard, to callees that may acquire.
    for (path, held, callee, line) in held_calls {
        if STD_NOISE.contains(&callee.as_str()) {
            continue;
        }
        let Some(may) = summaries.get(callee.as_str()).filter(|m| !m.is_empty()) else {
            continue;
        };
        let classes: Vec<String> = may.iter().map(|c| format!("`{c}`")).collect();
        let what = format!("call to `{callee}` may acquire {}", classes.join(", "));
        for (h, h_line) in &held {
            findings.push(nested(path.clone(), line, h, *h_line, what.clone()));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn corpus(name: &str) -> SourceFile {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join(name);
        SourceFile::load(&path).expect("corpus file readable")
    }

    fn texts(findings: &[Finding]) -> Vec<(usize, &str)> {
        findings.iter().map(|f| (f.line, f.text.as_str())).collect()
    }

    #[test]
    fn corpus_direct_nesting_detected() {
        let findings = run(&[corpus("bad_lock_nesting.rs")]);
        let got = texts(&findings);
        for (line, what) in [
            (14, "acquires `beta` while `alpha` is held (since line 13)"),
            (20, "acquires `beta` while `alpha` is held (since line 19)"),
            (26, "acquires `alpha` while `alpha` is held (since line 25)"),
            (
                31,
                "acquires `fabric` while `inner` is held (since line 31)",
            ),
        ] {
            assert!(
                got.iter().any(|&(l, t)| l == line && t.contains(what)),
                "line {line}: {what}: {got:?}"
            );
        }
        assert_eq!(findings.len(), 4, "{got:?}");
    }

    #[test]
    fn corpus_nesting_through_call_detected() {
        let findings = run(&[corpus("bad_lock_nesting_calls.rs")]);
        let got = texts(&findings);
        assert_eq!(
            got,
            [(
                19,
                "call to `helper_acquires_delta` may acquire `delta` while `gamma` is held \
                 (since line 18); no thread holds two Shared guards"
            )],
        );
    }

    #[test]
    fn consistent_order_is_reported() {
        let src = "
struct S;
impl S {
    fn a_then_b(&self) {
        let _ga = self.alpha.borrow();
        let _gb = self.beta.borrow_mut();
    }
    fn sequential_not_nested(&self) {
        {
            let mut g = self.alpha.borrow_mut();
            *g += 1;
        }
        let _x = self.beta.borrow().field;
        let _g2 = self.alpha.borrow();
    }
}
";
        let findings = run(&[SourceFile::from_source("x.rs", src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .text
            .contains("acquires `beta` while `alpha` is held"));
    }

    #[test]
    fn projection_temporaries_release_at_statement_end() {
        // `let x = a.borrow().field;` drops the guard at the `;`, so the
        // later `beta` acquisition must not see `alpha` held.
        let src = "
impl S {
    fn projections(&self) {
        let x = self.alpha.borrow().field;
        let _y = x;
        let _gb = self.beta.borrow();
    }
}
";
        let findings = run(&[SourceFile::from_source("x.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_primitive_marker_exempts_fn() {
        let src = "
impl S {
    // analyze: lock-primitive
    fn acquire(&self) {
        let _g = self.alpha.borrow();
        let _h = self.beta.borrow();
    }
}
";
        let findings = run(&[SourceFile::from_source("x.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn chained_receiver_and_adapter_guards_are_tracked() {
        // `slot.lock().unwrap_or_else(..)` binds the guard (adapter
        // chain), so the class stays held across the call below it.
        let src = "
fn run_round(slot: &M) {
    let mut shard = slot.lock().unwrap_or_else(recover);
    helper(&mut shard);
}
fn helper(s: &mut S) {
    let _g = s.state.borrow_mut();
}
";
        let findings = run(&[SourceFile::from_source("x.rs", src)]);
        assert!(
            findings.iter().any(|f| f
                .text
                .contains("call to `helper` may acquire `state` while `slot` is held")),
            "{findings:?}"
        );
    }
}
