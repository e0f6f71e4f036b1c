//! Determinism & hazard lint (the original `fractos-lint` rules).
//!
//! Rules:
//!
//! * `wallclock` — `Instant::now` / `SystemTime` read the host clock; all
//!   simulation time must flow from the virtual clock.
//! * `thread-local` — `thread_local!` state outlives one `Sim` and
//!   diverges between runs in one process.
//! * `ambient-rand` — `thread_rng` / `rand::random` / `from_entropy` /
//!   `OsRng` seed from the environment; randomness must come from the
//!   seeded deterministic RNG.
//! * `hash-iter` — iterating a `HashMap`/`HashSet` observes hasher order,
//!   which differs per process; iterated maps must be `BTreeMap`s.
//! * `unwrap` — `.unwrap()` / `.expect(` outside tests panics instead of
//!   returning a typed `FosError`/`CapError`.

use crate::{ident_before, Finding, Rule, SourceFile};

/// Collects identifiers declared with a `HashMap`/`HashSet` type or
/// initializer anywhere in the (masked) file: struct fields and bindings
/// (`name: HashMap<..>`), plus `let name = HashMap::new()` forms.
pub fn hashed_idents(masked: &str) -> Vec<String> {
    let mut idents = Vec::new();
    for line in masked.lines() {
        for pat in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(off) = line[from..].find(pat) {
                let pos = from + off;
                let before = line[..pos].trim_end();
                if let Some(head) = before.strip_suffix(':') {
                    // `name: HashMap<..>` (field, binding or signature).
                    if let Some(id) = ident_before(head, head.len()) {
                        push_unique(&mut idents, id);
                    }
                } else if let Some(head) = before.strip_suffix('=') {
                    // `let name = HashMap::new()` / `name = HashSet::new()`.
                    if let Some(id) = ident_before(head, head.len()) {
                        push_unique(&mut idents, id);
                    }
                }
                from = pos + pat.len();
            }
        }
    }
    idents
}

fn push_unique(v: &mut Vec<String>, s: String) {
    if s != "let" && s != "mut" && !v.contains(&s) {
        v.push(s);
    }
}

/// Iteration methods whose order observes hasher state.
const ORDER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// Scans one file for the five hazard rules.
pub fn scan(file: &SourceFile) -> Vec<Finding> {
    let hashed = hashed_idents(&file.masked);
    let mut findings = Vec::new();
    let mut push = |rule: Rule, lineno: usize, text: &str| {
        findings.push(Finding {
            rule,
            file: file.path.clone(),
            line: lineno + 1,
            text: text.to_string(),
        });
    };
    for (n, line) in file.masked.lines().enumerate() {
        if file.in_test.get(n).copied().unwrap_or(false) {
            continue;
        }
        if line.contains("Instant::now") || line.contains("SystemTime") {
            push(Rule::Wallclock, n, line);
        }
        if line.contains("thread_local!") {
            push(Rule::ThreadLocal, n, line);
        }
        if ["thread_rng", "rand::random", "from_entropy", "OsRng"]
            .iter()
            .any(|p| line.contains(p))
        {
            push(Rule::AmbientRand, n, line);
        }
        if line.contains(".unwrap()") || line.contains(".expect(") {
            push(Rule::Unwrap, n, line);
        }
        // hash-iter: method calls on known hashed idents, and `for .. in`
        // over them.
        for m in ORDER_METHODS {
            let mut from = 0;
            while let Some(off) = line[from..].find(m) {
                let pos = from + off;
                if let Some(id) = ident_before(line, pos) {
                    if hashed.contains(&id) {
                        push(Rule::HashIter, n, line);
                    }
                }
                from = pos + m.len();
            }
        }
        if let Some(pos) = line.find(" in ") {
            let tail = line[pos + 4..].trim_start().trim_start_matches(['&', '*']);
            let id: String = tail
                .bytes()
                .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                .map(|b| b as char)
                .collect();
            if !id.is_empty()
                && hashed.contains(&id)
                && line.trim_start().starts_with("for ")
                && !ORDER_METHODS.iter().any(|m| line.contains(m))
            {
                push(Rule::HashIter, n, line);
            }
        }
    }
    // A line matching several rules is reported once per rule; dedup exact
    // repeats from overlapping method hits.
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.file == b.file);
    findings
}

pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    files.iter().flat_map(scan).collect()
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

    fn rules_fired(name: &str) -> Vec<Rule> {
        scan(&corpus(name)).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn corpus_wallclock_detected() {
        assert!(rules_fired("bad_wallclock.rs").contains(&Rule::Wallclock));
    }

    #[test]
    fn corpus_wallclock_sampler_detected() {
        let fired = rules_fired("bad_wallclock_sampler.rs");
        assert!(
            fired.iter().filter(|r| **r == Rule::Wallclock).count() >= 2,
            "both the SystemTime stamp and the Instant cadence must fire: {fired:?}"
        );
    }

    #[test]
    fn corpus_thread_local_detected() {
        assert!(rules_fired("bad_thread_local.rs").contains(&Rule::ThreadLocal));
    }

    #[test]
    fn corpus_ambient_rand_detected() {
        assert!(rules_fired("bad_rand.rs").contains(&Rule::AmbientRand));
    }

    #[test]
    fn corpus_hash_iter_detected() {
        let fired = rules_fired("bad_hash_iter.rs");
        assert!(
            fired.iter().filter(|r| **r == Rule::HashIter).count() >= 2,
            "both the method-call and for-loop forms must fire: {fired:?}"
        );
    }

    #[test]
    fn corpus_unwrap_detected() {
        assert!(rules_fired("bad_unwrap.rs").contains(&Rule::Unwrap));
    }

    #[test]
    fn corpus_clean_file_passes() {
        assert!(rules_fired("ok_clean.rs").is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = r#"
// Instant::now() in a comment is fine.
/* SystemTime in a block comment too. */
fn f() -> &'static str {
    "thread_rng() inside a string literal"
}
"#;
        assert!(scan(&SourceFile::from_source("x.rs", src)).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = r#"
fn product() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u32> = Some(1);
        x.unwrap();
    }
}
"#;
        assert!(scan(&SourceFile::from_source("x.rs", src)).is_empty());
    }

    #[test]
    fn unwrap_outside_test_module_fires() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let fired: Vec<Rule> = scan(&SourceFile::from_source("x.rs", src))
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(fired, vec![Rule::Unwrap]);
    }

    #[test]
    fn hashed_ident_collection_sees_fields_and_lets() {
        let masked =
            "struct S { procs: HashMap<u32, u32> }\nfn f() { let seen = HashSet::new(); }\n";
        let ids = hashed_idents(masked);
        assert!(ids.contains(&"procs".to_string()));
        assert!(ids.contains(&"seen".to_string()));
    }
}
