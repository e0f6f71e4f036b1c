//! Metric definitions, `BENCHMARK.json`, and the result line.
//!
//! The tables here are the single source of the metric names, units,
//! directions and regression bounds: `perf manifest` renders them as
//! `BENCHMARK.json`, and a test keeps the committed file equal to that.

use fractos_obs::Json;

use crate::ladder::RUNGS;
use crate::workloads::SPECS;

/// An end-to-end metric: reported for every workload with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bound on the host-time metrics: what the 2-vCPU reference host can
/// resolve. Runs of one commit, minutes apart, differ by 4–9 % in quartile
/// spread on the single-threaded workloads and by up to 19 % on the
/// sharded ones (three threads on two shared vCPUs, spawned every round).
pub const HOST_BOUND: f64 = 0.25;

/// Simulated metrics repeat exactly for a seed (the check stage enforces
/// that); the bound only has to absorb the difference between the seed
/// sets two drivers draw, which reaches 2.4 % on the p99 of
/// `mesh64_sharded` (96 samples beyond it).
const SIM_BOUND: f64 = 0.08;

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: HOST_BOUND,
    },
    EndToEnd {
        name: "host_events_per_s",
        unit: "events/s",
        better: "higher",
        bound: HOST_BOUND,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: HOST_BOUND,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: HOST_BOUND,
    },
    EndToEnd {
        name: "sim_lat_p50_us",
        unit: "us_virtual",
        better: "lower",
        bound: SIM_BOUND,
    },
    EndToEnd {
        name: "sim_lat_p99_us",
        unit: "us_virtual",
        better: "lower",
        bound: SIM_BOUND,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "ops/s_virtual",
        better: "higher",
        bound: SIM_BOUND,
    },
    EndToEnd {
        name: "sim_net_bytes_per_op",
        unit: "bytes",
        better: "lower",
        bound: SIM_BOUND,
    },
    EndToEnd {
        name: "sim_net_msgs_per_op",
        unit: "msgs",
        better: "lower",
        bound: SIM_BOUND,
    },
    EndToEnd {
        name: "ok_share",
        unit: "fraction",
        better: "higher",
        bound: 0.001,
    },
];

/// A per-layer metric of the traced run or of the exact counters
/// (`--trace 1`); the ladder rungs ([`RUNGS`]) follow these.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    // A. Host time per layer, from the traced run.
    ("sim.engine.self_ns_per_event", "ns", "lower"),
    ("sim.q4_over_q1", "ratio", "lower"),
    ("core.controller.busy_ns_per_op", "ns", "lower"),
    ("core.controller.events_per_op", "count", "lower"),
    ("core.controller.q4_over_q1", "ratio", "lower"),
    ("devices.nvme.busy_ns_per_op", "ns", "lower"),
    ("devices.gpu.busy_ns_per_op", "ns", "lower"),
    ("devices.q4_over_q1", "ratio", "lower"),
    ("services.fs.busy_ns_per_op", "ns", "lower"),
    ("services.faceverify.busy_ns_per_op", "ns", "lower"),
    ("services.q4_over_q1", "ratio", "lower"),
    ("baselines.raw.busy_ns_per_event", "ns", "lower"),
    ("app.client.busy_ns_per_op", "ns", "lower"),
    ("app.server.busy_ns_per_op", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    // B. Exact counters of the untraced run.
    ("sim.events_per_op", "count", "lower"),
    ("sim.sharded.rounds", "count", "lower"),
    ("sim.sharded.events_per_round", "count", "higher"),
    ("sim.sharded.host_us_per_round", "us", "lower"),
    ("sim.sharded.stalled_share", "fraction", "lower"),
    ("sim.sharded.cross_msgs_per_round", "count", "lower"),
    ("sim.queue.pending_peak", "count", "lower"),
    ("net.control_msgs_per_op", "msgs", "lower"),
    ("net.data_msgs_per_op", "msgs", "lower"),
    ("net.data_bytes_per_op", "bytes", "lower"),
    ("core.syscalls_per_op", "count", "lower"),
    ("core.verify_checks_per_op", "count", "lower"),
    ("core.table_objects_end", "count", "lower"),
    ("core.capspace_len_end", "count", "lower"),
    ("core.ctrl_footprint_bytes_end", "bytes", "lower"),
    ("core.pending_ops_end", "count", "lower"),
    ("devices.nvme.ops", "count", "lower"),
    ("devices.nvme.cache_hit_share", "fraction", "higher"),
    ("devices.gpu.kernels", "count", "lower"),
];

/// Why each workload exists, one line each, in [`SPECS`] order.
const WHY: [&str; 6] = [
    "engine, queue and fabric do all the work and core/devices/services none: the floor under every other rung",
    "smallest possible work per round, so the sharded engine's per-round cost is nearly all of the wall: its worst case",
    "Controller, capabilities, wire and fabric at 16x the paper cluster with no device or service code, 64 clients pending",
    "many events per round, so it is the sharded engine's best case and the rung its exit criterion is stated on",
    "file system, NVMe and the memory_copy data plane without a GPU; writes beside reads, so a read gain that costs writes shows",
    "the paper's face-verification application: every layer at once, the number a user of the reproduction feels",
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`: fixed keys, one workload or metric
/// per line.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let command = strs(&[
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ]);
    let named = |name: &str, rest: Vec<(&str, Json)>| {
        let mut fields = vec![("name", Json::Str(name.into()))];
        fields.extend(rest);
        format!("    {}", Json::obj(fields))
    };
    let text = |s: &str| Json::Str(s.into());
    let workloads: Vec<String> = SPECS
        .iter()
        .zip(WHY)
        .map(|(s, why)| named(s.name, vec![("why", text(why))]))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            let rest = vec![
                ("unit", text(m.unit)),
                ("better", text(m.better)),
                ("bound", Json::Num(m.bound)),
            ];
            named(m.name, rest)
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .copied()
        .chain(RUNGS.iter().map(|&(name, unit)| (name, unit, "lower")))
        .map(|(name, unit, better)| {
            named(name, vec![("unit", text(unit)), ("better", text(better))])
        })
        .collect();
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": {paths},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        paths = strs(&["perf"]),
        workloads = workloads.join(",\n"),
        end_to_end = end_to_end.join(",\n"),
        per_layer = per_layer.join(",\n"),
    )
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            assert!(value.is_finite(), "metric {name} is not a number");
            (
                name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        let layer = PER_LAYER.iter().map(|&(n, u, _)| (n, u));
        let rungs = RUNGS.iter().copied();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        let specs = SPECS.iter().map(|s| (s.name, "count"));
        for (name, unit) in layer.chain(rungs).chain(e2e).chain(specs) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() + RUNGS.len() <= 128);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for why in WHY {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(manifest().len() <= 64 << 10);
    }
}
