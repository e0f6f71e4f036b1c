//! Fig 2 / §2.1: message complexity of the centralized vs distributed
//! application models, measured on the inference (face-verification)
//! pipeline and checked against the analytic model.
//!
//! Paper claims for the Fig 2 scenario: the distributed design has 2.5×
//! fewer data transfers and 1.6× fewer messages overall; §6.5 counts eight
//! baseline control messages vs five for FractOS; §2.1 derives 2N vs N+1
//! messages for N services and a 2·N/L bound for service trees.
//!
//! The FractOS run records causal spans, so this bench additionally prints
//! the per-phase latency attribution (network / device / control plane) and
//! writes machine-readable telemetry to `BENCH_fig2.json` at the repository
//! root. Set `FRACTOS_TRACE=chrome:<path>` to also export the span tree as
//! Chrome Trace Event JSON (loadable in Perfetto / `chrome://tracing`);
//! relative paths are resolved against the repository root.

use fractos_bench::apps::{baseline_faceverify_opts, fractos_faceverify_traced, FvDeploy};
use fractos_bench::report::Table;
use fractos_core::msgmodel;
use fractos_obs::{aggregate, analyze, chrome_trace, chrome_trace_path, Json, TelemetryReport};

const IMG: u64 = 4096;
const BATCH: u64 = 8;
const REQS: u64 = 16;

/// Resolves an output path against the repository root (bench binaries run
/// with the package directory as CWD, which is rarely where artifacts are
/// wanted).
fn out_path(p: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(p);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

fn main() {
    // The full Fig 2 scenario: read → GPU → write output via the FS. The
    // FractOS side runs with span recording on; the trace-context header is
    // out of band, so the traffic counts match an untraced run exactly
    // (asserted by `tests/span_invariants.rs`).
    let run = fractos_faceverify_traced(FvDeploy::Cpu, IMG, BATCH, REQS, 1, true);
    let fos = run.result;
    let base = baseline_faceverify_opts(IMG, BATCH, REQS, 1, true);
    assert!(fos.ok && base.ok);

    // Note: these are *transport-level* counts (every fabric message,
    // including RDMA chunk transfers and acks); the paper's Fig 2 counts
    // application-level interactions, reported by the analytic model below.
    let mut t = Table::new(
        "Fig 2: measured transport-level network traffic per request",
        &["model", "msgs/req", "data msgs/req", "bytes/req"],
    );
    t.row(&[
        "distributed (FractOS)".into(),
        format!("{:.1}", fos.net_msgs as f64 / REQS as f64),
        format!("{:.1}", fos.data_msgs as f64 / REQS as f64),
        format!("{:.0}", fos.net_bytes as f64 / REQS as f64),
    ]);
    t.row(&[
        "centralized (baseline)".into(),
        format!("{:.1}", base.net_msgs as f64 / REQS as f64),
        format!("{:.1}", base.data_msgs as f64 / REQS as f64),
        format!("{:.0}", base.net_bytes as f64 / REQS as f64),
    ]);
    t.row(&[
        "reduction".into(),
        format!("{:.2}x", base.net_msgs as f64 / fos.net_msgs as f64),
        format!("{:.2}x", base.data_msgs as f64 / fos.data_msgs as f64),
        format!("{:.2}x", base.net_bytes as f64 / fos.net_bytes as f64),
    ]);
    t.print();
    println!("  (paper, Fig 2: 2.5x fewer data transfers, 1.6x fewer messages)");

    // Per-phase latency attribution from the span trees. All the underlying
    // arithmetic is integer nanoseconds, so the component rows sum exactly
    // to the end-to-end row.
    let breakdowns = analyze(&run.spans);
    let totals = aggregate(&breakdowns);
    assert_eq!(totals.requests, REQS, "one span tree per request");
    assert_eq!(
        totals.network_ns + totals.device_ns + totals.control_ns + totals.other_ns,
        totals.total_ns,
        "attribution components must sum to the end-to-end latency"
    );
    let per_req_us = |ns: u64| format!("{:.3}", ns as f64 / REQS as f64 / 1000.0);
    let share = |ns: u64| format!("{:.1}%", 100.0 * ns as f64 / totals.total_ns.max(1) as f64);
    let mut t = Table::new(
        "Fig 2: FractOS per-phase latency attribution (per request)",
        &["phase", "mean µs/req", "share"],
    );
    t.row(&[
        "network (ser + prop + data + retx)".into(),
        per_req_us(totals.network_ns),
        share(totals.network_ns),
    ]);
    t.row(&[
        "device (GPU + NVMe service)".into(),
        per_req_us(totals.device_ns),
        share(totals.device_ns),
    ]);
    t.row(&[
        "control plane (ctrl + syscall + deliver)".into(),
        per_req_us(totals.control_ns),
        share(totals.control_ns),
    ]);
    t.row(&[
        "other (queueing)".into(),
        per_req_us(totals.other_ns),
        share(totals.other_ns),
    ]);
    t.row(&[
        "end-to-end".into(),
        per_req_us(totals.total_ns),
        share(totals.total_ns),
    ]);
    t.print();

    // Machine-readable telemetry for this workload.
    let doc = Json::obj(vec![
        ("workload", Json::Str("fig2".into())),
        ("requests", Json::UInt(REQS)),
        (
            "traffic",
            Json::obj(vec![
                ("net_msgs", Json::UInt(fos.net_msgs)),
                ("data_msgs", Json::UInt(fos.data_msgs)),
                ("net_bytes", Json::UInt(fos.net_bytes)),
            ]),
        ),
        (
            "phases_ns",
            Json::obj(vec![
                ("total", Json::UInt(totals.total_ns)),
                ("network", Json::UInt(totals.network_ns)),
                ("device", Json::UInt(totals.device_ns)),
                ("control", Json::UInt(totals.control_ns)),
                ("other", Json::UInt(totals.other_ns)),
            ]),
        ),
        ("metrics", run.snapshot.to_json()),
    ]);
    let bench_json = out_path("BENCH_fig2.json");
    std::fs::write(&bench_json, format!("{doc}\n")).expect("write BENCH_fig2.json");
    println!("\n  wrote {}", bench_json.display());

    // Continuous-telemetry exports (only when `FRACTOS_TELEMETRY` armed the
    // plane for the run). The stream holds only actor and fabric points,
    // so the files are byte-identical across backends.
    if let Some(period) = run.telemetry_period {
        let report = TelemetryReport::derive(&run.telemetry, period);
        println!("\nLive telemetry (period {} ns):", period.as_nanos());
        print!("{}", report.summary_table());
        let tele_json = out_path("BENCH_telemetry.json");
        std::fs::write(&tele_json, format!("{}\n", report.to_json()))
            .expect("write BENCH_telemetry.json");
        println!("  wrote {}", tele_json.display());
        let tele_jsonl = out_path("BENCH_telemetry.jsonl");
        std::fs::write(&tele_jsonl, report.jsonl()).expect("write BENCH_telemetry.jsonl");
        println!("  wrote {}", tele_jsonl.display());
        let tele_prom = out_path("BENCH_telemetry.prom");
        std::fs::write(&tele_prom, report.prometheus()).expect("write BENCH_telemetry.prom");
        println!("  wrote {}", tele_prom.display());
    }

    if let Some(path) = chrome_trace_path() {
        let names = &run.actor_names;
        let doc = chrome_trace(&run.spans, |i| {
            names.get(i).cloned().unwrap_or_else(|| format!("actor{i}"))
        });
        let path = out_path(&path);
        std::fs::write(&path, format!("{doc}\n")).expect("write chrome trace");
        println!("  wrote {}", path.display());
    }

    let mut t = Table::new(
        "§2.1 analytic model: steady-state messages for N services",
        &["N", "star (2N)", "chain (N+1)", "reduction"],
    );
    for &n in &[2u64, 3, 4, 8, 16] {
        t.row(&[
            n.to_string(),
            msgmodel::star_messages(n).to_string(),
            msgmodel::chain_messages(n).to_string(),
            format!("{:.2}x", msgmodel::flat_reduction(n)),
        ]);
    }
    t.print();

    println!(
        "\n  service-tree bound (§2.1): app→FS→SSD (N=3, L=1) allows up to {:.1}x;",
        msgmodel::tree_reduction_bound(3, 1)
    );
    println!(
        "  control messages per request (§6.5): {} baseline vs {} FractOS",
        msgmodel::FACEVERIF_BASELINE_CONTROL_MSGS,
        msgmodel::FACEVERIF_FRACTOS_CONTROL_MSGS
    );
}
