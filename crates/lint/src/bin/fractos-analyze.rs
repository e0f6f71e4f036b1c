#![forbid(unsafe_code)]
//! `fractos-analyze` — the full static-analysis suite.
//!
//! Runs all three passes (hazards, lock-order, hot-path) over
//! the product crates, applies `crates/lint/allowlist.txt`, and — when
//! the full pass set runs — reports *stale* allowlist entries (entries
//! that suppressed nothing) as failures, so the exception list cannot
//! outlive the code it excuses.
//!
//! Output is deterministic: findings sorted by (file, line, rule, text),
//! no timestamps — running the tool twice produces byte-identical
//! output, which CI asserts.
//!
//! Usage: `fractos-analyze [--deny] [--root PATH] [--pass NAME]...`
//! (`--pass` may repeat to run a subset; stale checking only happens
//! with the full set).

use std::path::PathBuf;
use std::process::ExitCode;

use fractos_lint::{analyze, workspace_root, Pass};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut deny = false;
    let mut root = workspace_root();
    let mut passes: Vec<Pass> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--pass" => match it.next().and_then(|s| Pass::parse(s)) {
                Some(p) => {
                    if !passes.contains(&p) {
                        passes.push(p);
                    }
                }
                None => {
                    eprintln!("--pass needs one of: hazards, lock-order, hot-path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown flag `{other}` \
                     (usage: fractos-analyze [--deny] [--root PATH] [--pass NAME]...)"
                );
                return ExitCode::from(2);
            }
        }
    }
    if passes.is_empty() {
        passes = Pass::ALL.to_vec();
    }
    let full = Pass::ALL.iter().all(|p| passes.contains(p));

    let analysis = match analyze(&root, &passes, full) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fractos-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    for finding in &analysis.reported {
        println!("{finding}");
    }
    for stale in &analysis.stale {
        println!("{stale}");
    }
    let pass_names: Vec<&str> = passes.iter().map(|p| p.as_str()).collect();
    println!(
        "fractos-analyze: {} file(s), {} finding(s), {} allowlisted, {} stale allowlist \
         entr{} [passes: {}]{}",
        analysis.files,
        analysis.reported.len(),
        analysis.suppressed,
        analysis.stale.len(),
        if analysis.stale.len() == 1 {
            "y"
        } else {
            "ies"
        },
        pass_names.join(" "),
        if deny { " [--deny]" } else { "" }
    );
    if deny && (!analysis.reported.is_empty() || !analysis.stale.is_empty()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
