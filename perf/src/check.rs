//! The check stage: what must hold before any timing is worth reading.
//!
//! * every workload, at 1/20 of its size, twice with one seed: identical
//!   simulated facts and digest, and no failed operation;
//! * once more with the next seed: a different digest, so the seed reaches
//!   the workload;
//! * `ring4` against `ring4_sharded` and `mesh64` against `mesh64_sharded`
//!   at a common size: identical digest, so the two engines simulate the
//!   same cluster;
//! * Table 3's four anchors re-derived within ±0.1 µs. The repository
//!   holds no other reference data, so this is the only error figure.

use crate::measure::{repeat, Mode};
use crate::micro;
use crate::workloads::{Backend, Kind, Spec, SPECS};

/// Table 3 of the paper, in µs, and the tolerance of the check.
const TABLE3: [(&str, f64); 4] = [
    ("raw loopback, host CPU", 2.42),
    ("raw loopback, SmartNIC", 3.68),
    ("null syscall, host CPU", 3.00),
    ("null syscall, SmartNIC", 4.50),
];
const TABLE3_TOLERANCE_US: f64 = 0.1;

/// A twentieth of the workload, kept a multiple of its node count.
fn reduced_ops(spec: Spec) -> u64 {
    let unit = match spec.kind {
        Kind::Ring { nodes } | Kind::Mesh { nodes } => u64::from(nodes),
        Kind::FsMixed | Kind::FvRing => 1,
    };
    (spec.ops / 20 / unit).max(1) * unit
}

/// Runs the stage, printing one line per check; `true` when all hold.
pub fn run(seed: u64) -> bool {
    let mut ok = true;
    let mut check = |what: String, holds: bool| {
        println!("  {} {what}", if holds { "ok  " } else { "FAIL" });
        ok &= holds;
    };

    println!("check: same seed twice, next seed once, at 1/20 size");
    for spec in SPECS {
        let ops = reduced_ops(spec);
        let a = repeat(spec, ops, seed, Mode::Plain).sim;
        let b = repeat(spec, ops, seed, Mode::Plain).sim;
        let c = repeat(spec, ops, seed + 1, Mode::Plain).sim;
        check(
            format!(
                "{}: {ops} ops, sim_digest {:016x} repeats",
                spec.name, a.digest
            ),
            a == b,
        );
        check(
            format!(
                "{}: seed {} gives sim_digest {:016x}",
                spec.name,
                seed + 1,
                c.digest
            ),
            a.digest != c.digest,
        );
        check(
            format!(
                "{}: {} of {} ops failed",
                spec.name,
                a.failed + c.failed,
                2 * ops
            ),
            a.failed == 0 && c.failed == 0 && a.attempted == ops,
        );
    }

    println!("check: both engines simulate the same cluster");
    for sharded in SPECS.iter().filter(|s| s.backend == Backend::Sharded) {
        let single = SPECS
            .iter()
            .find(|s| s.kind == sharded.kind && s.backend == Backend::Single)
            .expect("every sharded workload has a single-threaded twin");
        let ops = reduced_ops(*sharded);
        let a = repeat(*single, ops, seed, Mode::Plain).sim;
        let b = repeat(*sharded, ops, seed, Mode::Plain).sim;
        check(
            format!(
                "{} = {} at {ops} ops: sim_digest {:016x}",
                single.name, sharded.name, a.digest
            ),
            a == b,
        );
        if a != b {
            println!(
                "       {}: {a:?}\n       {}: {b:?}",
                single.name, sharded.name
            );
        }
    }

    println!("check: Table 3 anchors (model accuracy; tolerance ±{TABLE3_TOLERANCE_US} µs)");
    let measured = [
        micro::raw_loopback_rtt_us(100, false),
        micro::raw_loopback_rtt_us(100, true),
        micro::null_syscall(100, false).sim_us,
        micro::null_syscall(100, true).sim_us,
    ];
    for ((what, paper), got) in TABLE3.into_iter().zip(measured) {
        let err = got - paper;
        check(
            format!("{what}: {got:.3} µs, paper {paper:.2} µs, error {err:+.3} µs"),
            err.abs() <= TABLE3_TOLERANCE_US,
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_sizes_divide_over_the_nodes() {
        for spec in SPECS {
            let ops = reduced_ops(spec);
            assert!(ops > 0 && ops <= spec.ops / 20);
            if let Kind::Ring { nodes } | Kind::Mesh { nodes } = spec.kind {
                assert_eq!(ops % u64::from(nodes), 0);
            }
        }
    }

    #[test]
    fn the_check_stage_passes() {
        assert!(run(61));
    }
}
