//! Cross-backend equivalence harness.
//!
//! The sharded engine is allowed to interleave same-timestamp events
//! differently from the single-threaded engine, but the *workload-visible*
//! outcome must be identical: every per-link `(src, dst, class)`
//! message/byte counter and every end-to-end payload (match verdicts) must
//! agree bit-for-bit on the Fig 2 workloads — both the FractOS deployment
//! and the centralized baseline. A separate test pins the single-threaded
//! backend's full event trace across repeated runs.

use fractos_baselines::faceverify::{deploy_baseline, BaselineClient, Start};
use fractos_core::prelude::*;
use fractos_net::stats::{FlowCounter, TrafficClass};
use fractos_net::{Fabric, NetParams, NodeId, Topology};
use fractos_obs::TelemetryReport;
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::FvClient;
use fractos_services::FvConfig;
use fractos_sim::{build_runtime, RuntimeKind, Shared, SimDuration};

const IMG: u64 = 4096;
const BATCH: u64 = 8;
const REQUESTS: u64 = 10;

type Flows = Vec<((NodeId, NodeId, TrafficClass), FlowCounter)>;

/// Runs the FractOS Fig 2 deployment on `kind`; returns the per-link
/// traffic counters and the per-request match verdicts (the payload-derived
/// outcome of each verification).
fn run_fractos(kind: RuntimeKind) -> (Flows, Vec<bool>) {
    let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), 61, kind);
    let ctrls = tb.controllers_per_node(false);
    deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    tb.reset_traffic();
    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        FvClient::new(IMG, BATCH, REQUESTS, 2),
    );
    tb.start_process(client);
    tb.run();
    let verdicts = tb.with_service::<FvClient, _>(client, |c| {
        assert_eq!(c.samples.len() as u64, REQUESTS);
        c.samples.iter().map(|s| s.all_matched).collect::<Vec<_>>()
    });
    let flows = tb.traffic().flows().map(|(k, v)| (*k, *v)).collect();
    (flows, verdicts)
}

/// Runs the centralized baseline on `kind`; same return shape.
fn run_baseline(kind: RuntimeKind) -> (Flows, Vec<bool>) {
    let topology = Topology::paper_testbed();
    let params = NetParams::paper();
    let config = Testbed::runtime_config(&topology, &params, 61);
    let mut sim = build_runtime(kind, &config);
    let fabric = Shared::new(Fabric::new(topology, params));
    let dep = deploy_baseline(sim.as_mut(), &fabric, IMG, 256);
    let client = sim.add_actor_on(
        2,
        "client",
        Box::new(BaselineClient::new(
            fractos_net::Endpoint::cpu(NodeId(2)),
            dep.frontend_peer,
            fabric.clone(),
            IMG,
            BATCH,
            REQUESTS,
            2,
        )),
    );
    sim.post(SimDuration::ZERO, client, Start);
    sim.run();
    let verdicts = sim.with_actor::<BaselineClient, _>(client, |c| {
        assert_eq!(c.samples.len() as u64, REQUESTS);
        c.samples.iter().map(|s| s.all_matched).collect::<Vec<_>>()
    });
    let flows = fabric
        .borrow()
        .stats()
        .flows()
        .map(|(k, v)| (*k, *v))
        .collect();
    (flows, verdicts)
}

#[test]
fn fig2_fractos_matches_across_backends() {
    let (single_flows, single_verdicts) = run_fractos(RuntimeKind::SingleThreaded);
    let (sharded_flows, sharded_verdicts) = run_fractos(RuntimeKind::Sharded);
    assert!(!single_flows.is_empty(), "workload produced no traffic");
    assert!(
        single_verdicts.iter().all(|&m| m),
        "payloads must verify on the reference backend"
    );
    assert_eq!(
        single_flows, sharded_flows,
        "per-link message/byte counters diverged across backends"
    );
    assert_eq!(
        single_verdicts, sharded_verdicts,
        "end-to-end payload verdicts diverged across backends"
    );
}

#[test]
fn fig2_baseline_matches_across_backends() {
    let (single_flows, single_verdicts) = run_baseline(RuntimeKind::SingleThreaded);
    let (sharded_flows, sharded_verdicts) = run_baseline(RuntimeKind::Sharded);
    assert!(!single_flows.is_empty(), "workload produced no traffic");
    assert!(
        single_verdicts.iter().all(|&m| m),
        "payloads must verify on the reference backend"
    );
    assert_eq!(
        single_flows, sharded_flows,
        "per-link message/byte counters diverged across backends"
    );
    assert_eq!(
        single_verdicts, sharded_verdicts,
        "end-to-end payload verdicts diverged across backends"
    );
}

/// End-to-end payload *bytes* must be identical across backends — not just
/// the derived verdicts. Payloads travel as cheap-clone [`Payload`] handles
/// (shared `Arc` buffers, zero-copy slicing), so this also pins that the
/// sharded engine's cross-shard buffering never hands an actor a stale or
/// partially-written view of a payload.
#[test]
fn fig2_reply_payloads_are_byte_identical_across_backends() {
    let run = |kind: RuntimeKind| {
        let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), 61, kind);
        let ctrls = tb.controllers_per_node(false);
        deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
        let client = tb.add_process(
            "client",
            cpu(2),
            ctrls[2],
            FvClient::new(IMG, BATCH, REQUESTS, 2),
        );
        tb.start_process(client);
        tb.run();
        tb.with_service::<FvClient, _>(client, |c| {
            c.replies.iter().map(|p| p.to_vec()).collect::<Vec<_>>()
        })
    };
    let single = run(RuntimeKind::SingleThreaded);
    let sharded = run(RuntimeKind::Sharded);
    assert_eq!(single.len() as u64, REQUESTS);
    assert!(
        single.iter().all(|p| p.len() == BATCH as usize),
        "each reply carries one distance byte per image in the batch"
    );
    assert_eq!(
        single, sharded,
        "reply payload bytes diverged across backends"
    );
}

/// The continuous telemetry plane must be part of the cross-backend
/// contract: with sampling armed for the measured phase, every exporter
/// (JSON, JSONL, Prometheus) must produce byte-identical text on both
/// engines — and arming the plane must not perturb the workload itself
/// (same per-link traffic counters as an uninstrumented run).
#[test]
fn fig2_telemetry_exports_match_across_backends_without_perturbing_traffic() {
    let period = SimDuration::from_nanos(50_000);
    let run = |kind: RuntimeKind, telemetry: bool| {
        let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), 61, kind);
        let ctrls = tb.controllers_per_node(false);
        deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
        tb.reset_traffic();
        if telemetry {
            tb.enable_telemetry(period);
        }
        let client = tb.add_process(
            "client",
            cpu(2),
            ctrls[2],
            FvClient::new(IMG, BATCH, REQUESTS, 2),
        );
        tb.start_process(client);
        tb.run();
        let flows: Flows = tb.traffic().flows().map(|(k, v)| (*k, *v)).collect();
        let report = TelemetryReport::derive(&tb.take_telemetry(), period);
        (
            flows,
            report.to_json(false).to_string(),
            report.jsonl(false),
            report.prometheus(false),
        )
    };
    let (flows_off, ..) = run(RuntimeKind::SingleThreaded, false);
    let (flows_single, json_single, jsonl_single, prom_single) =
        run(RuntimeKind::SingleThreaded, true);
    let (flows_sharded, json_sharded, jsonl_sharded, prom_sharded) =
        run(RuntimeKind::Sharded, true);
    assert_eq!(
        flows_off, flows_single,
        "arming telemetry perturbed the workload's traffic"
    );
    assert_eq!(flows_single, flows_sharded);
    assert!(
        json_single.contains("app.fv.latency_ns"),
        "latency series missing from telemetry export"
    );
    assert!(
        json_single.contains("link.") && json_single.contains("dev."),
        "fabric/device series missing from telemetry export"
    );
    assert!(
        !json_single.contains("runtime."),
        "backend self-profiling leaked into a byte-compared export"
    );
    assert_eq!(json_single, json_sharded, "telemetry JSON diverged");
    assert_eq!(jsonl_single, jsonl_sharded, "telemetry JSONL diverged");
    assert_eq!(prom_single, prom_sharded, "Prometheus export diverged");
}

#[test]
fn fig2_single_threaded_trace_is_reproducible() {
    let run = || {
        let mut tb = Testbed::new_on(
            Topology::paper_testbed(),
            NetParams::paper(),
            61,
            RuntimeKind::SingleThreaded,
        );
        tb.sim.enable_trace();
        let ctrls = tb.controllers_per_node(false);
        deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
        let client = tb.add_process(
            "client",
            cpu(2),
            ctrls[2],
            FvClient::new(IMG, BATCH, REQUESTS, 1),
        );
        tb.start_process(client);
        tb.run();
        (tb.sim.take_trace(), tb.sim.steps(), tb.now())
    };
    let (trace_a, steps_a, end_a) = run();
    let (trace_b, steps_b, end_b) = run();
    assert!(!trace_a.is_empty(), "tracing recorded nothing");
    assert_eq!(steps_a, steps_b, "step counts diverged between equal seeds");
    assert_eq!(end_a, end_b, "end times diverged between equal seeds");
    assert_eq!(trace_a, trace_b, "traces diverged between equal seeds");
}

/// `take_trace` returns entries in the canonical `(time, actor, label)`
/// order on every backend: a Fig 2 run yields the identical entry sequence
/// (and identical `Display` renderings) on both engines.
#[test]
fn fig2_trace_order_matches_across_backends() {
    let run = |kind: RuntimeKind| {
        let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), 61, kind);
        let ctrls = tb.controllers_per_node(false);
        deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
        tb.sim.enable_trace();
        let client = tb.add_process(
            "client",
            cpu(2),
            ctrls[2],
            FvClient::new(IMG, BATCH, REQUESTS, 1),
        );
        tb.start_process(client);
        tb.run();
        (tb.sim.take_trace(), tb.sim.steps(), tb.now())
    };
    let (single, single_steps, single_end) = run(RuntimeKind::SingleThreaded);
    let (sharded, sharded_steps, sharded_end) = run(RuntimeKind::Sharded);
    assert!(!single.is_empty(), "tracing recorded nothing");
    assert_eq!(single, sharded, "trace order diverged across backends");
    assert_eq!(
        (single_steps, single_end),
        (sharded_steps, sharded_end),
        "event count or virtual end time diverged across backends"
    );
    let rendered: Vec<String> = single.iter().map(|e| e.to_string()).collect();
    let rendered_sharded: Vec<String> = sharded.iter().map(|e| e.to_string()).collect();
    assert_eq!(rendered, rendered_sharded);
}
