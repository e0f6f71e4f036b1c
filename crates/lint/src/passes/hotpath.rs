//! Hot-path hazard lint: no allocation or copying in marked functions.
//!
//! The engine's per-event cost budget is tens of nanoseconds; a single
//! `clone()` or fresh `Vec` in the event loop dominates it. Functions on
//! the per-event path carry an `// analyze: hot-path` marker above their
//! signature (the engine step, the sharded window runner, fabric
//! routing/sends, the event queue's push and pops), and this pass denies
//! allocation and copy idioms inside their bodies:
//!
//! `.clone()`, `.to_vec()`, `.to_owned()`, `.to_string()`, `Vec::new()`,
//! `vec![`, `String::new()`, `String::from(`, `Box::new(`, `format!(`,
//! `with_capacity(`, `.collect()`.
//!
//! The check is direct-body only (callees are not traversed): the marker
//! states a *local* obligation, and pushing it transitively would forbid
//! legitimately-amortized structures (map nodes, pre-reserved buffers)
//! behind helper calls. Panic/assert messages are fine — they are string
//! literals, which masking blanks, and the allocation happens only on
//! the failure path... but `format!` in the success path is not.
//! `#[cfg(test)]` code is exempt.

use crate::{fn_spans, Finding, Rule, SourceFile};

/// Marker placing a function on the allocation-free hot path.
pub const HOT_PATH_MARKER: &str = "analyze: hot-path";

/// Denied allocation/copy idioms (searched in masked body text).
const BANNED: &[&str] = &[
    ".clone()",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    "Vec::new()",
    "vec![",
    "String::new()",
    "String::from(",
    "Box::new(",
    "format!(",
    "with_capacity(",
    ".collect()",
];

pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for span in fn_spans(file) {
            if file.line_in_test(span.sig_line)
                || !file.marker_above(span.sig_line, HOT_PATH_MARKER)
            {
                continue;
            }
            let body = &file.masked[span.body_start..span.body_end];
            for pat in BANNED {
                let mut from = 0;
                while let Some(off) = body[from..].find(pat) {
                    let pos = span.body_start + from + off;
                    findings.push(Finding {
                        rule: Rule::HotPath,
                        file: file.path.clone(),
                        line: file.line_of(pos),
                        text: format!(
                            "allocation/copy in hot-path fn `{}`: `{}`",
                            span.name,
                            pat.trim_end_matches('(')
                        ),
                    });
                    from += off + pat.len();
                }
            }
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

    #[test]
    fn corpus_hotpath_allocations_detected() {
        let findings = run(&[corpus("bad_hotpath_clone.rs")]);
        let texts: Vec<&str> = findings.iter().map(|f| f.text.as_str()).collect();
        assert!(
            texts.iter().filter(|t| t.contains("`step`")).count() >= 3,
            "clone, Vec::new and format! in the marked fn must all fire: {texts:?}"
        );
        assert!(
            !texts.iter().any(|t| t.contains("`cold`")),
            "unmarked fns are not hot-path: {texts:?}"
        );
    }

    #[test]
    fn unmarked_fns_are_exempt() {
        let src = "fn busy() { let v = vec![1, 2]; let _ = v.clone(); }\n";
        assert!(run(&[SourceFile::from_source("x.rs", src)]).is_empty());
    }

    #[test]
    fn marked_fn_without_allocations_is_clean() {
        let src = "// analyze: hot-path\nfn lean(&mut self) { self.n += 1; }\n";
        assert!(run(&[SourceFile::from_source("x.rs", src)]).is_empty());
    }
}
