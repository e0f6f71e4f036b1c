//! Golden pin of the traffic accounting and the telemetry exports.
//!
//! One seeded Fig 2 run under a fault plan that drops, degrades and
//! corrupts messages and fails, tears, corrupts and stretches NVMe and GPU
//! operations. The digest covers every per-flow, per-link and per-device
//! counter, the verification counters, the five network totals and the
//! JSON, JSONL and Prometheus telemetry exports. A change to how the
//! fabric or the Controllers keep their books must leave it unchanged.
//! Re-capture only in a change that means to alter what is counted, and
//! say so.

use fractos_core::prelude::*;
use fractos_net::{FaultPlan, NetParams, NodeId, Topology};
use fractos_obs::TelemetryReport;
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::FvClient;
use fractos_services::FvConfig;
use fractos_sim::{RuntimeKind, SimDuration, SimTime};

/// Captured by running this test at commit e565ea9, before the fabric
/// stopped keeping per-medium counters beside its per-flow ones.
const ACCOUNTING_GOLDEN: u64 = 0x5167_37e9_0a22_d19c;

const SEED: u64 = 61;
const REQUESTS: u64 = 10;

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

/// Every fault class the fabric counts, all transient, so the retry
/// layers carry every request to completion.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .drop_prob_between(NodeId(2), NodeId(0), 0.05)
        .drop_prob_between(NodeId(2), NodeId(1), 0.05)
        .one_shot(NodeId(2), NodeId(2), us(20))
        .degrade(NodeId(2), NodeId(0), us(10), us(10_000), 4.0)
        .degrade(NodeId(0), NodeId(2), us(10), us(10_000), 4.0)
        .corrupt_data(NodeId(1), NodeId(2), 0.2)
        .gpu_launch_errors(gpu(1), 0.15)
        .gpu_output_corruption(gpu(1), 0.05)
        .device_latency_spikes(gpu(1), 0.1, 4.0)
        .nvme_read_errors(nvme(0), 0.2)
        .nvme_torn_writes(nvme(0), 0.1)
}

#[test]
fn faulted_fig2_accounting_matches_the_golden_digest() {
    let period = SimDuration::from_micros(50);
    let mut tb = Testbed::new_on(
        Topology::paper_testbed(),
        NetParams::paper(),
        SEED,
        RuntimeKind::SingleThreaded,
    );
    let ctrls = tb.controllers_per_node(false);
    deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    tb.reset_traffic();
    tb.install_fault_plan(plan(), SEED);
    tb.enable_telemetry(period);
    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        FvClient::new(4096, 8, REQUESTS, 2),
    );
    tb.start_process(client);
    tb.run();
    tb.with_service::<FvClient, _>(client, |c| {
        assert_eq!(c.samples.len() as u64, REQUESTS, "requests lost");
        assert!(c.samples.iter().all(|s| s.all_matched), "a verdict failed");
    });

    let t = tb.traffic();
    let flows: Vec<_> = t.flows().collect();
    let links: Vec<_> = t.fault_links().collect();
    let devices: Vec<_> = t.device_fault_devices().collect();
    assert!(links.iter().any(|(_, c)| c.dropped > 0), "nothing dropped");
    assert!(
        links.iter().any(|(_, c)| c.degraded > 0),
        "nothing degraded"
    );
    assert!(
        links.iter().any(|(_, c)| c.corrupted > 0),
        "nothing corrupted"
    );
    assert_eq!(devices.len(), 2, "a device plan never fired: {devices:?}");
    let report = TelemetryReport::derive(&tb.take_telemetry(), period);
    let text = format!(
        "flows={flows:?}\nlinks={links:?}\ndevices={devices:?}\nverify={:?}\n\
         network={:?}\n{}\n{}\n{}",
        t.verify_counter(),
        [
            t.network_msgs(),
            t.network_bytes(),
            t.network_control_msgs(),
            t.network_data_msgs(),
            t.network_data_bytes(),
        ],
        report.to_json(),
        report.jsonl(),
        report.prometheus(),
    );
    assert_eq!(
        fractos_core::fnv1a(text.as_bytes()),
        ACCOUNTING_GOLDEN,
        "accounting changed ({} flows, {} bytes of exports)",
        flows.len(),
        text.len()
    );
}
