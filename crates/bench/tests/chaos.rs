//! Chaos suite: the Fig 2 workload under an armed fault plan.
//!
//! Every test here is replayable from `(seed, plan)`: the fault decisions
//! are hashed from the plan seed and per-link message indices, never drawn
//! from the caller's RNG, so the same seed and plan reproduce the same
//! drops, the same retransmissions and the same end state — on both
//! runtime backends, which every test that runs a plan covers in-process.
//! CI runs this suite across a seed matrix (`FRACTOS_CHAOS_SEED`).
//!
//! The plan used for the completion tests is *recoverable*: probabilistic
//! drops and transient degradation, but no unhealed partition, so the
//! retransmit layer (bounded retries, §3.6 failure translation only on
//! exhaustion) must carry every request to completion.

use fractos_core::prelude::*;
use fractos_core::WatchdogActor;
use fractos_net::stats::{FaultCounter, FlowCounter, TrafficClass};
use fractos_net::{DeviceFaultCounter, Endpoint, FaultPlan, NetParams, NodeId, Topology};
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::FvClient;
use fractos_services::{FaceVerifyFrontend, FvConfig};
use fractos_sim::{RuntimeKind, SimTime};

const IMG: u64 = 4096;
const BATCH: u64 = 8;
const REQUESTS: u64 = 10;

const BACKENDS: [RuntimeKind; 2] = [RuntimeKind::SingleThreaded, RuntimeKind::Sharded];

type Flows = Vec<((NodeId, NodeId, TrafficClass), FlowCounter)>;
type Faults = Vec<((NodeId, NodeId), FaultCounter)>;

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

/// Seed for the chaos matrix; CI sweeps it, local runs default to the
/// seed the deterministic suites pin.
fn chaos_seed() -> u64 {
    std::env::var("FRACTOS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(61)
}

/// A recoverable plan for the Fig 2 deployment: lossy client links, one
/// guaranteed early drop, and a transient slowdown of the GPU ↔ storage
/// link. No partitions — every control message must eventually get
/// through within the retry budget.
fn recoverable_plan() -> FaultPlan {
    FaultPlan::new()
        .drop_prob_between(NodeId(2), NodeId(0), 0.05)
        .drop_prob_between(NodeId(2), NodeId(1), 0.05)
        .one_shot(NodeId(2), NodeId(2), us(20))
        .degrade(NodeId(2), NodeId(0), us(10), us(10_000), 4.0)
        .degrade(NodeId(0), NodeId(2), us(10), us(10_000), 4.0)
}

/// Everything a chaos run produces, for completion and replay checks.
#[derive(Debug, PartialEq)]
struct RunOut {
    flows: Flows,
    faults: Faults,
    dev_faults: Vec<(Endpoint, DeviceFaultCounter)>,
    verdicts: Vec<bool>,
    fv_retried: u64,
}

/// Runs the FractOS Fig 2 deployment on `kind` with `plan` armed from the
/// workload start and `params` on the wire; returns per-link traffic and
/// fault counters, per-device fault counters, the per-request match
/// verdicts, and the frontend's retry count.
fn run_fv(kind: RuntimeKind, seed: u64, plan: Option<FaultPlan>, params: NetParams) -> RunOut {
    let mut tb = Testbed::new_on(Topology::paper_testbed(), params, seed, kind);
    let ctrls = tb.controllers_per_node(false);
    let dep = deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    tb.reset_traffic();
    if let Some(plan) = plan {
        tb.install_fault_plan(plan, seed);
    }
    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        FvClient::new(IMG, BATCH, REQUESTS, 2),
    );
    tb.start_process(client);
    tb.run();
    let verdicts = tb.with_service::<FvClient, _>(client, |c| {
        assert_eq!(
            c.samples.len() as u64,
            REQUESTS,
            "requests lost under a recoverable plan"
        );
        c.samples.iter().map(|s| s.all_matched).collect::<Vec<_>>()
    });
    let fv_retried = tb.with_service::<FaceVerifyFrontend, _>(dep.frontend, |f| f.retried);
    let traffic = tb.traffic();
    RunOut {
        flows: traffic.flows().collect(),
        faults: traffic.fault_links().map(|(k, v)| (*k, *v)).collect(),
        dev_faults: traffic
            .device_fault_devices()
            .map(|(k, v)| (*k, *v))
            .collect(),
        verdicts,
        fv_retried,
    }
}

/// [`run_fv`] with the paper's wire parameters (integrity checking on).
fn run_faulty(kind: RuntimeKind, seed: u64, plan: Option<FaultPlan>) -> (Flows, Faults, Vec<bool>) {
    let out = run_fv(kind, seed, plan, NetParams::paper());
    (out.flows, out.faults, out.verdicts)
}

/// Under the recoverable plan, every request completes and verifies on
/// both backends, and the plan demonstrably fired.
#[test]
fn chaos_fig2_completes_under_faults() {
    let seed = chaos_seed();
    for kind in BACKENDS {
        let (flows, faults, verdicts) = run_faulty(kind, seed, Some(recoverable_plan()));
        assert!(
            !flows.is_empty(),
            "workload produced no traffic on {kind:?}"
        );
        assert!(
            verdicts.iter().all(|&m| m),
            "a request failed verification under seed {seed} on {kind:?}"
        );
        let dropped: u64 = faults.iter().map(|(_, c)| c.dropped).sum();
        let degraded: u64 = faults.iter().map(|(_, c)| c.degraded).sum();
        assert!(
            dropped > 0,
            "plan armed but nothing was dropped on {kind:?}"
        );
        assert!(
            degraded > 0,
            "plan armed but nothing was degraded on {kind:?}"
        );
    }
}

/// Acceptance gate: an armed-but-empty plan is bit-identical to no plan —
/// same flows, same verdicts, zero fault counters.
#[test]
fn chaos_default_plan_is_counter_neutral() {
    let (base_flows, base_faults, base_verdicts) =
        run_faulty(RuntimeKind::SingleThreaded, 61, None);
    let (plan_flows, plan_faults, plan_verdicts) =
        run_faulty(RuntimeKind::SingleThreaded, 61, Some(FaultPlan::default()));
    assert!(base_faults.is_empty(), "fault counters without a plan");
    assert!(plan_faults.is_empty(), "empty plan produced fault counters");
    assert_eq!(base_flows, plan_flows, "empty plan perturbed traffic");
    assert_eq!(base_verdicts, plan_verdicts, "empty plan perturbed results");
}

/// The same `(seed, plan)` must replay bit-identically across the
/// single-threaded and sharded engines: drops and partitions resolve at
/// the fabric layer, below the shard barrier.
#[test]
fn chaos_same_seed_and_plan_bit_identical_across_backends() {
    let seed = chaos_seed();
    let (single_flows, single_faults, single_verdicts) =
        run_faulty(RuntimeKind::SingleThreaded, seed, Some(recoverable_plan()));
    let (sharded_flows, sharded_faults, sharded_verdicts) =
        run_faulty(RuntimeKind::Sharded, seed, Some(recoverable_plan()));
    assert_eq!(
        single_faults, sharded_faults,
        "per-link fault counters diverged across backends"
    );
    assert_eq!(
        single_flows, sharded_flows,
        "per-link traffic counters diverged across backends"
    );
    assert_eq!(
        single_verdicts, sharded_verdicts,
        "verdicts diverged across backends"
    );
}

/// The telemetry plane rides through chaos runs deterministically: with
/// the recoverable plan armed and sampling on, every exporter replays
/// byte-identically across repeats and backends, and the injected-fault
/// rate shows up as `link.*.drops` / `link.*.degraded` series.
#[test]
fn chaos_telemetry_exports_replay_byte_identically() {
    let seed = chaos_seed();
    let period = fractos_sim::SimDuration::from_nanos(50_000);
    let run = |kind: RuntimeKind| {
        let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), seed, kind);
        let ctrls = tb.controllers_per_node(false);
        deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
        tb.reset_traffic();
        tb.install_fault_plan(recoverable_plan(), seed);
        tb.enable_telemetry(period);
        let client = tb.add_process(
            "client",
            cpu(2),
            ctrls[2],
            FvClient::new(IMG, BATCH, REQUESTS, 2),
        );
        tb.start_process(client);
        tb.run();
        tb.with_service::<FvClient, _>(client, |c| {
            assert_eq!(c.samples.len() as u64, REQUESTS);
        });
        let report = fractos_obs::TelemetryReport::derive(&tb.take_telemetry(), period);
        (
            report.to_json().to_string(),
            report.jsonl(),
            report.prometheus(),
        )
    };
    let (json_a, jsonl_a, prom_a) = run(RuntimeKind::SingleThreaded);
    let (json_b, jsonl_b, prom_b) = run(RuntimeKind::SingleThreaded);
    let (json_s, jsonl_s, prom_s) = run(RuntimeKind::Sharded);
    assert!(
        json_a.contains(".drops") || json_a.contains(".degraded"),
        "plan armed but no injected-fault series recorded (seed {seed})"
    );
    assert_eq!(json_a, json_b, "telemetry JSON diverged between repeats");
    assert_eq!(jsonl_a, jsonl_b, "telemetry JSONL diverged between repeats");
    assert_eq!(prom_a, prom_b, "Prometheus diverged between repeats");
    assert_eq!(json_a, json_s, "telemetry JSON diverged across backends");
    assert_eq!(jsonl_a, jsonl_s, "telemetry JSONL diverged across backends");
    assert_eq!(prom_a, prom_s, "Prometheus diverged across backends");
}

/// A recoverable *device*-fault plan for the Fig 2 deployment: the GPU
/// occasionally fails launches and corrupts outputs, the NVMe behind the
/// FS fails media reads and tears writes. Every fault is transient, so
/// the per-stage retry budgets (`RetryPolicy::fv_retries`, `fs_io_retries`) must carry
/// every request to completion with verified payloads.
fn recoverable_device_plan() -> FaultPlan {
    FaultPlan::new()
        .gpu_launch_errors(gpu(1), 0.15)
        .gpu_output_corruption(gpu(1), 0.05)
        .device_latency_spikes(gpu(1), 0.1, 4.0)
        .nvme_read_errors(nvme(0), 0.2)
        .nvme_torn_writes(nvme(0), 0.1)
}

/// Under the recoverable device plan, every Fig 2 request completes with
/// a verified payload on both backends, and the injected device faults
/// demonstrably fired and were recovered.
#[test]
fn chaos_fig2_completes_under_device_faults() {
    let seed = chaos_seed();
    for kind in BACKENDS {
        let out = run_fv(
            kind,
            seed,
            Some(recoverable_device_plan()),
            NetParams::paper(),
        );
        assert!(
            out.verdicts.iter().all(|&m| m),
            "a request failed verification under device faults, seed {seed} on {kind:?}"
        );
        let total: u64 = out
            .dev_faults
            .iter()
            .map(|(_, c)| c.failed + c.torn + c.corrupted + c.spiked)
            .sum();
        assert!(
            total > 0,
            "device plan armed but nothing fired (seed {seed}, {kind:?})"
        );
        let gpu_errors: u64 = out
            .dev_faults
            .iter()
            .filter(|(e, _)| *e == gpu(1))
            .map(|(_, c)| c.failed + c.corrupted)
            .sum();
        if gpu_errors > 0 {
            assert!(
                out.fv_retried > 0,
                "GPU faults fired but the frontend never retried (seed {seed}, {kind:?})"
            );
        }
    }
}

/// The same `(seed, device plan)` replays bit-identically: twice on one
/// backend, and the device-fault counters and verdicts also agree across
/// backends (draws are keyed by per-device op index, not wall clock).
#[test]
fn chaos_device_faults_replay_bit_identically() {
    let seed = chaos_seed();
    let a = run_fv(
        RuntimeKind::SingleThreaded,
        seed,
        Some(recoverable_device_plan()),
        NetParams::paper(),
    );
    let b = run_fv(
        RuntimeKind::SingleThreaded,
        seed,
        Some(recoverable_device_plan()),
        NetParams::paper(),
    );
    assert_eq!(a, b, "same (seed, plan, backend) diverged");
    let c = run_fv(
        RuntimeKind::Sharded,
        seed,
        Some(recoverable_device_plan()),
        NetParams::paper(),
    );
    assert_eq!(
        a.dev_faults, c.dev_faults,
        "device-fault counters diverged across backends"
    );
    assert_eq!(a.verdicts, c.verdicts, "verdicts diverged across backends");
    assert_eq!(
        a.fv_retried, c.fv_retried,
        "recovery retries diverged across backends"
    );
}

/// Tentpole acceptance: payload corruption injected on the GPU → frontend
/// data link is *observable* without integrity envelopes (wrong bytes
/// reach the application) and *detected and recovered* with them.
#[test]
fn chaos_payload_corruption_detected_and_recovered() {
    // Pinned seed: the unchecked half asserts that a bit flip actually
    // lands in a result byte, which is a property of the specific draws.
    let seed = 61;
    let plan = || Some(FaultPlan::new().corrupt_data(NodeId(1), NodeId(2), 0.35));

    // Checked (the paper's wire, end-to-end integrity on): every
    // corrupted copy is caught by the envelope and retried; all verdicts
    // hold.
    let checked = run_fv(
        RuntimeKind::SingleThreaded,
        seed,
        plan(),
        NetParams::paper(),
    );
    let corrupted: u64 = checked.faults.iter().map(|(_, c)| c.corrupted).sum();
    assert!(corrupted > 0, "corruption plan armed but never fired");
    assert!(
        checked.verdicts.iter().all(|&m| m),
        "corruption leaked past the integrity envelope"
    );
    assert!(
        checked.fv_retried > 0,
        "corruption detected but never recovered"
    );

    // Unchecked (integrity verification off): the same plan delivers
    // wrong bytes all the way to the application.
    let mut params = NetParams::paper();
    params.end_to_end_integrity = false;
    let unchecked = run_fv(RuntimeKind::SingleThreaded, seed, plan(), params);
    assert!(
        unchecked.verdicts.iter().any(|&m| !m),
        "unchecked run did not observe the injected corruption"
    );
}

/// CI determinism gate: Fig 2 run twice under the same active plan and
/// seed must produce the same full event trace and the same counters.
#[test]
fn chaos_fig2_trace_is_reproducible_under_faults() {
    let seed = chaos_seed();
    let run = || {
        let mut tb = Testbed::new_on(
            Topology::paper_testbed(),
            NetParams::paper(),
            seed,
            RuntimeKind::SingleThreaded,
        );
        tb.sim.enable_trace();
        let ctrls = tb.controllers_per_node(false);
        deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
        tb.install_fault_plan(recoverable_plan(), seed);
        let client = tb.add_process(
            "client",
            cpu(2),
            ctrls[2],
            FvClient::new(IMG, BATCH, REQUESTS, 1),
        );
        tb.start_process(client);
        tb.run();
        let faults: Faults = tb.traffic().fault_links().map(|(k, v)| (*k, *v)).collect();
        (tb.sim.take_trace(), tb.sim.steps(), faults)
    };
    let (trace_a, steps_a, faults_a) = run();
    let (trace_b, steps_b, faults_b) = run();
    assert!(!trace_a.is_empty(), "tracing recorded nothing");
    assert!(
        faults_a.iter().any(|(_, c)| c.dropped > 0),
        "plan never fired during the determinism run"
    );
    assert_eq!(steps_a, steps_b, "step counts diverged between equal seeds");
    assert_eq!(faults_a, faults_b, "fault counters diverged");
    assert_eq!(trace_a, trace_b, "traces diverged between equal seeds");
}

/// Service used to confirm a Controller serves syscalls again post-heal.
struct Probe {
    pub ok: bool,
}

impl Service for Probe {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.request_create_new(0x9999, vec![], vec![], |s: &mut Self, res, _| {
            s.ok = res.is_ok();
        });
    }
    fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {}
}

/// Partition-then-heal: the watchdog must declare the partitioned
/// Controller dead (it is unreachable — §3.6 treats that as failure), then
/// notice the heal via its recovery probes and broadcast `PeerRecovered`,
/// after which the Controller serves syscalls again and peers drop their
/// dead verdict.
#[test]
fn chaos_partition_is_detected_and_heals() {
    let mut tb = Testbed::paper(chaos_seed());
    let ctrls = tb.controllers_per_node(false);
    let wd = tb.start_watchdog(NodeId(1));

    // Node 0 loses droppable connectivity to the rest of the cluster from
    // 100 µs until the partition heals at 1.5 ms.
    let heal = Some(us(1_500));
    let plan = FaultPlan::new()
        .partition(NodeId(0), NodeId(1), us(100), heal)
        .partition(NodeId(0), NodeId(2), us(100), heal);
    tb.install_fault_plan(plan, 7);

    // Three consecutive 200 µs pings go unanswered: detection by ~800 µs.
    tb.run_until(us(1_200));
    let detected = tb
        .sim
        .with_actor::<WatchdogActor, _>(wd, |w| w.detected.clone());
    assert_eq!(detected, vec![ctrls[0]], "partition not detected");
    assert!(
        tb.with_controller(ctrls[1], |c| c.peer_dead(ctrls[0])),
        "peer verdict not propagated"
    );

    // Past the heal time the recovery probes get through again.
    tb.run_until(us(3_000));
    let recovered = tb
        .sim
        .with_actor::<WatchdogActor, _>(wd, |w| w.recovered.clone());
    assert_eq!(recovered, vec![ctrls[0]], "healed partition not noticed");
    assert!(
        !tb.with_controller(ctrls[1], |c| c.peer_dead(ctrls[0])),
        "peer verdict not cleared after recovery"
    );

    // The once-partitioned Controller serves new Processes again.
    let probe = tb.add_process("probe", cpu(0), ctrls[0], Probe { ok: false });
    tb.start_process(probe);
    tb.run_until(us(4_000));
    tb.with_service::<Probe, _>(probe, |p| assert!(p.ok, "post-heal syscall failed"));
}
