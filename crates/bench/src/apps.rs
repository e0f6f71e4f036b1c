//! Runners for the application-level experiments (Figs 8–13, Fig 2, and
//! the headline claims).

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench script: measurement harness must abort loudly on protocol breaks"
)]

use fractos_baselines::faceverify::{deploy_baseline, BaselineClient, BaselineFrontend, Start};
use fractos_baselines::pipeline::{CentralDriver, DataPath};
use fractos_baselines::raw::Peer;
use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_devices::{BlockAdaptor, GpuAdaptor, GpuParams, NvmeParams};
use fractos_net::{Fabric, NetParams, Topology, TrafficStats};
use fractos_obs::{HistSummary, MetricsSnapshot};
use fractos_services::closed_loop::ClosedLoop;
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::{FvClient, FvSample};
use fractos_services::fs::{FsMode, FsService};
use fractos_services::pipeline::{ChainDriver, PipelineStage};
use fractos_services::{FvConfig, FACE_VERIFY_KERNEL};
use fractos_sim::{
    Actor, ActorId, Ctx, IdMap, Msg, Shared, Sim, SimDuration, SpanRecord, TelemetryEvent,
};

/// Result of one application run.
#[derive(Debug, Clone, Copy)]
pub struct AppResult {
    /// Mean per-request latency in µs.
    pub lat_mean: f64,
    /// Median per-request latency in µs (nearest rank).
    pub lat_p50: f64,
    /// 95th-percentile per-request latency in µs (nearest rank).
    pub lat_p95: f64,
    /// 99th-percentile per-request latency in µs (nearest rank).
    pub lat_p99: f64,
    /// Wall-clock (virtual) time of the measured phase in µs.
    pub wall_us: f64,
    /// Requests completed.
    pub completed: u64,
    /// Network bytes during the measured phase.
    pub net_bytes: u64,
    /// Network messages during the measured phase.
    pub net_msgs: u64,
    /// Network data-plane messages.
    pub data_msgs: u64,
    /// All results verified correct.
    pub ok: bool,
}

impl AppResult {
    /// Summarizes a face-verification run from its per-request latencies
    /// (µs, completion order), the time it took and the traffic it caused.
    fn new(lat: &[f64], ok: bool, wall_us: f64, traffic: &TrafficStats) -> Self {
        let pct = HistSummary::from_samples(lat);
        AppResult {
            lat_mean: mean(lat),
            lat_p50: pct.p50,
            lat_p95: pct.p95,
            lat_p99: pct.p99,
            wall_us,
            completed: pct.count,
            net_bytes: traffic.network_bytes(),
            net_msgs: traffic.network_msgs(),
            data_msgs: traffic.network_data_msgs(),
            ok,
        }
    }

    /// Requests per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / (self.wall_us / 1e6)
    }
}

/// Mean of `values`, summed in the order given — completion order for
/// latencies, which the printed figures depend on — or 0 when empty.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Latencies (µs, completion order) of a face-verification client's
/// samples, and whether every one of them verified.
fn fv_outcome(samples: &[FvSample]) -> (Vec<f64>, bool) {
    let lat = samples
        .iter()
        .map(|s| s.latency().as_micros_f64())
        .collect();
    let ok = !samples.is_empty() && samples.iter().all(|s| s.all_matched);
    (lat, ok)
}

/// `(mean latency µs, units per second)` of a finished closed-loop run.
/// Throughput is steady-state: it skips the ramp-up burst of the first
/// `skip` completions and counts `per_op` units for each later one, over
/// the time from completion `skip` to the last.
fn summarize(run: &ClosedLoop, skip: usize, per_op: f64) -> (f64, f64) {
    let done_at: Vec<_> = run.done.iter().map(|(_, completed)| *completed).collect();
    assert_eq!(done_at.len() as u64, run.total(), "every request completed");
    let skip = skip.min(done_at.len() - 1);
    let span = done_at
        .last()
        .unwrap()
        .duration_since(done_at[skip])
        .as_micros_f64()
        .max(1.0);
    let tput = ((done_at.len() - 1 - skip) as f64 * per_op) / (span / 1e6);
    (mean(&run.latencies_us()), tput)
}

/// Deployment flavour for the FractOS face-verification app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FvDeploy {
    /// One Controller per node on host CPUs.
    Cpu,
    /// One Controller per node on the SmartNICs.
    Snic,
    /// A single shared Controller on the frontend node ("Shared HAL").
    SharedHal,
}

/// Runs the FractOS face-verification app (Figs 12–13).
pub fn fractos_faceverify(
    deploy: FvDeploy,
    img: u64,
    batch: u64,
    requests: u64,
    in_flight: u64,
) -> AppResult {
    fractos_faceverify_with(deploy, img, batch, requests, in_flight, |_| {})
}

/// As [`fractos_faceverify`] with a fabric-parameter tweak applied before
/// the run (ablation studies).
pub fn fractos_faceverify_with(
    deploy: FvDeploy,
    img: u64,
    batch: u64,
    requests: u64,
    in_flight: u64,
    tweak: impl FnOnce(&mut NetParams),
) -> AppResult {
    let run = FvRun {
        deploy,
        img,
        batch,
        requests,
        in_flight,
        store_results: false,
        trace: false,
    };
    faceverify_run(run, tweak).result
}

/// Observability capture from a traced FractOS face-verification run.
pub struct TracedRun {
    /// The application-level result.
    pub result: AppResult,
    /// Span records in the canonical `(start, end, actor, ord)` order.
    pub spans: Vec<SpanRecord>,
    /// Registered actor names, indexed by actor index (for trace export).
    pub actor_names: Vec<String>,
    /// Deterministic snapshot of the run's counters and request latencies.
    pub snapshot: MetricsSnapshot,
    /// Telemetry events in canonical order (empty unless the telemetry
    /// plane was enabled via `FRACTOS_TELEMETRY`).
    pub telemetry: Vec<TelemetryEvent>,
    /// The telemetry sampling period, when the plane was on.
    pub telemetry_period: Option<SimDuration>,
}

/// As [`fractos_faceverify`] with causal span recording enabled for the
/// measured phase, optionally running the full Fig 2 ring (results stored
/// on the output SSD through the composed FS). Spans are switched on after
/// deployment and boot, so the capture covers exactly the top-level
/// verification requests.
pub fn fractos_faceverify_traced(
    deploy: FvDeploy,
    img: u64,
    batch: u64,
    requests: u64,
    in_flight: u64,
    store_results: bool,
) -> TracedRun {
    let run = FvRun {
        deploy,
        img,
        batch,
        requests,
        in_flight,
        store_results,
        trace: true,
    };
    faceverify_run(run, |_| {})
}

/// What one FractOS face-verification run does.
struct FvRun {
    deploy: FvDeploy,
    img: u64,
    batch: u64,
    requests: u64,
    in_flight: u64,
    store_results: bool,
    trace: bool,
}

fn faceverify_run(run: FvRun, tweak: impl FnOnce(&mut NetParams)) -> TracedRun {
    let mut tb = Testbed::paper(61);
    tweak(tb.fabric.borrow_mut().params_mut());
    let ctrls = match run.deploy {
        FvDeploy::Cpu => tb.controllers_per_node(false),
        FvDeploy::Snic => tb.controllers_per_node(true),
        FvDeploy::SharedHal => tb.shared_controller(NodeId(2)),
    };
    let cfg = FvConfig {
        img_bytes: run.img,
        max_batch: run.batch.max(64),
        store_results: run.store_results,
    };
    deploy_faceverify(&mut tb, &ctrls, cfg, 256);
    tb.reset_traffic();
    // The continuous telemetry plane is armed after deployment, like span
    // recording, so the time series cover exactly the measured phase. Off
    // unless `FRACTOS_TELEMETRY` asks for it — disabled runs take no
    // telemetry branches at all and stay byte-identical.
    let telemetry_period = tb.enable_telemetry_from_env().map(|cfg| cfg.period);
    if run.trace {
        tb.sim.enable_spans();
    }
    let mut client_svc = FvClient::new(run.img, run.batch, run.requests, run.in_flight);
    client_svc.expect_stored = run.store_results;
    let client = tb.add_process("client", cpu(2), ctrls[2], client_svc);
    tb.start_process(client);
    let t0 = tb.now();
    tb.run();
    let wall_us = tb.now().duration_since(t0).as_micros_f64();
    let (lat, ok) = tb.with_service::<FvClient, _>(client, |c| fv_outcome(&c.samples));
    let result = AppResult::new(&lat, ok, wall_us, &tb.traffic());
    let telemetry = if telemetry_period.is_some() {
        tb.take_telemetry()
    } else {
        Vec::new()
    };
    let (spans, actor_names, snapshot) = if run.trace {
        let actor_names = (0..tb.sim.actor_count())
            .map(|i| tb.sim.actor_name(ActorId::from_raw(i as u32)).to_string())
            .collect();
        // Traced runs export the latency distribution beside the counters.
        let snapshot = MetricsSnapshot::capture(tb.sim.metrics())
            .with_histogram("app.request_latency_us", &lat);
        (tb.sim.take_spans(), actor_names, snapshot)
    } else {
        Default::default()
    };
    TracedRun {
        result,
        spans,
        actor_names,
        snapshot,
        telemetry,
        telemetry_period,
    }
}

/// Runs the §6.5 baseline face-verification stack.
pub fn baseline_faceverify(img: u64, batch: u64, requests: u64, in_flight: u64) -> AppResult {
    baseline_faceverify_opts(img, batch, requests, in_flight, false)
}

/// As [`baseline_faceverify`], optionally writing results back through NFS
/// (the full Fig 2 star).
pub fn baseline_faceverify_opts(
    img: u64,
    batch: u64,
    requests: u64,
    in_flight: u64,
    store_results: bool,
) -> AppResult {
    let mut sim = Sim::new(61);
    let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
    let dep = deploy_baseline(&mut sim, &fabric, img, 256);
    if store_results {
        sim.with_actor::<BaselineFrontend, _>(dep.frontend, |f| f.store_results = true);
    }
    let client = sim.add_actor_on(
        2,
        "client",
        Box::new(BaselineClient::new(
            fractos_net::Endpoint::cpu(NodeId(2)),
            dep.frontend_peer,
            fabric.clone(),
            img,
            batch,
            requests,
            in_flight,
        )),
    );
    sim.post(SimDuration::ZERO, client, Start);
    let t0 = sim.now();
    sim.run();
    let wall_us = sim.now().duration_since(t0).as_micros_f64();
    let (lat, ok) = sim.with_actor::<BaselineClient, _>(client, |c| fv_outcome(&c.samples));
    let traffic = fabric.borrow().stats().clone();
    AppResult::new(&lat, ok, wall_us, &traffic)
}

/// Pipeline driver kind (Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// Centralized app & data.
    Star,
    /// Centralized control, direct data.
    FastStar,
    /// Fully distributed.
    Chain,
}

/// Mean per-iteration latency of an N-stage pipeline streaming `size`
/// bytes (Fig 8), in µs.
pub fn pipeline_latency(kind: PipelineKind, stages: usize, size: u64) -> f64 {
    let iterations = 8u64;
    let mut tb = Testbed::paper(71);
    let ctrls = tb.controllers_per_node(false);
    for i in 0..stages {
        // Consecutive stages on different nodes (§6.2).
        let node = (i % 3) as u32;
        let p = tb.add_process(
            &format!("stage{i}"),
            cpu(node),
            ctrls[node as usize],
            PipelineStage::new(i, size),
        );
        tb.start_process(p);
        tb.run();
    }
    let mean_us = |lat: &[SimDuration]| {
        let us: Vec<f64> = lat.iter().map(|l| l.as_micros_f64()).collect();
        mean(&us)
    };
    match kind {
        PipelineKind::Star | PipelineKind::FastStar => {
            let (name, data) = if kind == PipelineKind::Star {
                ("star", DataPath::ViaClient)
            } else {
                ("faststar", DataPath::Direct)
            };
            let driver = CentralDriver::new(data, stages, size, iterations);
            let d = tb.add_process(name, cpu(0), ctrls[0], driver);
            tb.start_process(d);
            tb.run();
            tb.with_service::<CentralDriver, _>(d, |s| mean_us(&s.latencies))
        }
        PipelineKind::Chain => {
            let d = tb.add_process(
                "chain",
                cpu(0),
                ctrls[0],
                ChainDriver::new(stages, size, iterations),
            );
            tb.start_process(d);
            tb.run();
            tb.with_service::<ChainDriver, _>(d, |s| mean_us(&s.latencies))
        }
    }
}

// ---------------------------------------------------------------------
// Fig 9: the GPU service in isolation
// ---------------------------------------------------------------------

/// A client of the bare GPU service: upload batch images, run the kernel,
/// download results. Mirrors §6.3 (face-verification kernel on a remote
/// GPU).
struct GpuBenchClient {
    img: u64,
    batch: u64,
    run: ClosedLoop,
    // Bootstrap handles.
    alloc_req: Option<Cid>,
    load_req: Option<Cid>,
    // Per-slot artifacts, one slot per request in flight.
    slots: Vec<GpuSlot>,
    building: usize,
}

struct GpuSlot {
    in_mem: Cid,
    out_mem: Cid,
    kernel_req: Cid,
    local_mem: Cid,
    /// The request running on this slot.
    running: Option<u64>,
}

const TAG_GB: u64 = 0x7100;

impl GpuBenchClient {
    fn new(img: u64, batch: u64, requests: u64, in_flight: u64) -> Self {
        GpuBenchClient {
            img,
            batch,
            run: ClosedLoop::new(requests, in_flight),
            alloc_req: None,
            load_req: None,
            slots: Vec::new(),
            building: 0,
        }
    }

    fn issue(&mut self, fos: &Fos<Self>) {
        let Some(slot) = self.slots.iter().position(|s| s.running.is_none()) else {
            return;
        };
        let Some(token) = self.run.next(fos.now()) else {
            return;
        };
        let s = &mut self.slots[slot];
        s.running = Some(token);
        let (local_mem, in_mem, kernel_req) = (s.local_mem, s.in_mem, s.kernel_req);
        // Upload (third-party copy local → GPU), then invoke the kernel.
        fos.memory_copy(local_mem, in_mem, move |_s: &mut Self, res, fos| {
            debug_assert_eq!(res, SyscallResult::Ok);
            fos.request_invoke(kernel_req, |_, res, _| debug_assert!(res.is_ok()));
        });
    }

    fn build_slot(&mut self, fos: &Fos<Self>) {
        let alloc = self.alloc_req.unwrap();
        let size = imm(2 * self.batch * self.img);
        fos.invoke_with(alloc, vec![size], vec![], vec![(TAG_GB, vec![imm(1)])]);
    }
}

impl Service for GpuBenchClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        // gpu.init → per-context alloc/load → per-slot buffers + kernel.
        fos.kv_get("gpu.init", |_s, res, fos| {
            fos.invoke_with(res.cid(), vec![], vec![], vec![(TAG_GB, vec![imm(0)])]);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap_or(u64::MAX);
        match phase {
            // init reply: [alloc, load]; start building slot 0.
            0 => {
                self.alloc_req = Some(req.caps[0]);
                self.load_req = Some(req.caps[1]);
                self.build_slot(fos);
            }
            // alloc input reply.
            1 => {
                let in_mem = req.caps[0];
                self.slots.push(GpuSlot {
                    in_mem,
                    out_mem: Cid(u32::MAX),
                    kernel_req: Cid(u32::MAX),
                    local_mem: Cid(u32::MAX),
                    running: None,
                });
                let alloc = self.alloc_req.unwrap();
                let size = imm(self.batch);
                fos.invoke_with(alloc, vec![size], vec![], vec![(TAG_GB, vec![imm(2)])]);
            }
            // alloc output reply.
            2 => {
                let slot = self.slots.len() - 1;
                self.slots[slot].out_mem = req.caps[0];
                let load = self.load_req.unwrap();
                let kernel = imm(FACE_VERIFY_KERNEL);
                fos.invoke_with(load, vec![kernel], vec![], vec![(TAG_GB, vec![imm(3)])]);
            }
            // kernel-load reply: derive the per-slot invoke Request.
            3 => {
                let slot = self.slots.len() - 1;
                let invoke_base = req.caps[0];
                let (batch, img) = (self.batch, self.img);
                let in_mem = self.slots[slot].in_mem;
                let out_mem = self.slots[slot].out_mem;
                // Local source buffer with the batch images (query+ref
                // halves both from the client here — the storage side is
                // measured separately in Figs 10–12).
                let local_addr = fos.mem_alloc(2 * batch * img);
                let mut data = vec![0; (2 * batch * img) as usize];
                let (queries, refs) = data.split_at_mut((batch * img) as usize);
                fractos_services::matcher::synth_faces_into(0, img as usize, 1, queries);
                fractos_services::matcher::synth_faces_into(0, img as usize, 0, refs);
                fos.mem_write(local_addr, 0, &data).unwrap();
                let size = 2 * batch * img;
                fos.memory_create(local_addr, size, Perms::RW, move |s, res, fos| {
                    let SyscallResult::NewCid(local_mem) = res else {
                        return;
                    };
                    s.slots[slot].local_mem = local_mem;
                    // Success/error continuations + kernel Request.
                    let cont = |phase| (TAG_GB, vec![imm(phase)]);
                    let conts = vec![cont(10 + slot as u64), cont(99)];
                    let (params, caps) = (vec![imm(batch), imm(img)], vec![in_mem, out_mem]);
                    fos.derive_with(invoke_base, params, caps, conts, move |s, res, fos| {
                        let Ok(&[_done, _err, kernel_req]) = res.as_deref() else {
                            return;
                        };
                        s.slots[slot].kernel_req = kernel_req;
                        s.building += 1;
                        if (s.building as u64) < s.run.window() {
                            s.build_slot(fos);
                        } else {
                            // All slots ready; go.
                            for _ in 0..s.run.prime() {
                                s.issue(fos);
                            }
                        }
                    });
                });
            }
            99 => panic!("GPU kernel error"),
            // Kernel completion for slot (phase - 10).
            p if p >= 10 => {
                let slot = (p - 10) as usize;
                if let Some(token) = self.slots[slot].running.take() {
                    self.run.complete(token, fos.now());
                }
                self.issue(fos);
            }
            _ => {}
        }
    }
}

/// FractOS GPU-service result for Fig 9: `(mean latency µs, req/s)`, the
/// rate taken from the first completion to the last.
pub fn gpu_service_fractos(
    img: u64,
    batch: u64,
    requests: u64,
    in_flight: u64,
    snic: bool,
) -> (f64, f64) {
    let mut tb = Testbed::paper(31);
    let ctrls = tb.controllers_per_node(snic);
    let gpu_proc = tb.add_process(
        "gpu-adaptor",
        cpu(1),
        ctrls[1],
        GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu")
            .with_kernel(FACE_VERIFY_KERNEL, fractos_services::FaceVerifyKernel),
    );
    tb.start_process(gpu_proc);
    tb.run();

    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        GpuBenchClient::new(img, batch, requests, in_flight),
    );
    tb.start_process(client);
    tb.run();
    tb.with_service::<GpuBenchClient, _>(client, |c| summarize(&c.run, 0, 1.0))
}

/// rCUDA GPU-service result for Fig 9: `(mean latency µs, req/s)`.
pub fn gpu_service_rcuda(img: u64, batch: u64, requests: u64, in_flight: u64) -> (f64, f64) {
    use fractos_baselines::rcuda::{DriverReply, RcudaClient, RcudaServer, KERNEL_CALLS};

    /// Minimal rCUDA driver running the interposed kernel-execution
    /// sequence once per request, like the §6.5 baseline frontend.
    struct Driver {
        client: RcudaClient,
        img: u64,
        batch: u64,
        run: ClosedLoop,
        /// Driver-call token → (request, call number in its sequence).
        calls: IdMap<u64, (u64, u64)>,
    }
    struct Go;
    impl Driver {
        fn call(&mut self, ctx: &mut Ctx<'_>, req: u64, step: u64) {
            let (batch, img) = (self.batch, self.img);
            let token = self.client.kernel_call(ctx, step, batch, img, || {
                vec![0x55u8; (2 * batch * img) as usize]
            });
            self.calls.insert(token, (req, step));
        }
        fn issue(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(req) = self.run.next(ctx.now()) {
                self.call(ctx, req, 0);
            }
        }
    }
    impl Actor for Driver {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            if msg.downcast_ref::<Go>().is_some() {
                for _ in 0..self.run.prime() {
                    self.issue(ctx);
                }
                return;
            }
            let Ok(reply) = msg.downcast::<DriverReply>() else {
                return;
            };
            let Some((req, step)) = self.calls.remove(&reply.token) else {
                return;
            };
            if step + 1 < KERNEL_CALLS {
                self.call(ctx, req, step + 1);
            } else {
                self.run.complete(req, ctx.now());
                self.issue(ctx);
            }
        }
    }

    let mut sim = Sim::new(32);
    let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
    let server_ep = fractos_net::Endpoint::cpu(NodeId(1));
    let server = sim.add_actor_on(
        1,
        "rcuda",
        Box::new(
            RcudaServer::new(server_ep, fabric.clone(), GpuParams::default(), 64 << 20)
                .with_kernel(FACE_VERIFY_KERNEL, fractos_services::FaceVerifyKernel),
        ),
    );
    let driver = sim.add_actor_on(
        2,
        "driver",
        Box::new(Driver {
            client: RcudaClient::new(
                fractos_net::Endpoint::cpu(NodeId(2)),
                Peer {
                    actor: server,
                    endpoint: server_ep,
                },
                fabric.clone(),
            ),
            img,
            batch,
            run: ClosedLoop::new(requests, in_flight),
            calls: IdMap::default(),
        }),
    );
    sim.post(SimDuration::ZERO, driver, Go);
    sim.run();
    sim.with_actor::<Driver, _>(driver, |d| summarize(&d.run, 0, 1.0))
}

// ---------------------------------------------------------------------
// Figs 10–11: the storage stack
// ---------------------------------------------------------------------

/// FractOS storage client: create a file, then issue timed I/Os.
///
/// Works against both the mediated/composed FS handles (two Requests for
/// the whole file) and DAX handles (one read + one write Request per
/// extent): with DAX it selects the extent's Requests and uses
/// extent-local offsets, exactly like a DAX-aware application.
struct StorageClient {
    io: u64,
    write: bool,
    seq: bool,
    run: ClosedLoop,
    /// Mediated: `[read, write]`. DAX: `[r0, w0, r1, w1, ...]`.
    handles: Vec<Cid>,
    extent_size: u64,
    /// Free registered buffers, one per request in flight (taken LIFO).
    bufs: Vec<(u64, Cid)>,
    rng_state: u64,
}

const TAG_SB: u64 = 0x7200;
/// File size used by the storage benchmarks (many extents, so that random
/// access defeats caches like the paper's 500 GB device does).
pub const STORAGE_FILE: u64 = 128 << 20;

impl StorageClient {
    fn new(io: u64, count: u64, in_flight: u64, write: bool, seq: bool) -> Self {
        StorageClient {
            io,
            write,
            seq,
            run: ClosedLoop::new(count, in_flight),
            handles: Vec::new(),
            extent_size: 0,
            bufs: Vec::new(),
            rng_state: 0xDEAD_BEEF,
        }
    }

    fn next_offset(&mut self, seq_no: u64) -> u64 {
        let slots = STORAGE_FILE / self.io;
        if self.seq {
            (seq_no % slots) * self.io
        } else {
            self.rng_state = self
                .rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.rng_state >> 16) % slots * self.io
        }
    }

    fn issue(&mut self, fos: &Fos<Self>) {
        let Some(seq_no) = self.run.next(fos.now()) else {
            return;
        };
        let (addr, buf) = self.bufs.pop().expect("a buffer per request in flight");
        let offset = self.next_offset(seq_no);
        if self.write {
            fos.mem_write(addr, 0, &vec![(seq_no % 256) as u8; self.io as usize])
                .unwrap();
        }
        // Mediated handles take file offsets; DAX handles are per extent.
        let dax = self.handles.len() > 2;
        let (req, op_offset) = if dax {
            let ext = (offset / self.extent_size) as usize;
            let idx = 2 * ext + usize::from(self.write);
            (self.handles[idx], offset % self.extent_size)
        } else {
            (self.handles[usize::from(self.write)], offset)
        };
        let done = vec![imm(1), imm(seq_no), imm(addr), imm(buf.0 as u64)];
        fos.invoke_with(
            req,
            vec![imm(op_offset), imm(self.io)],
            vec![buf],
            vec![(TAG_SB, done), (TAG_SB, vec![imm(9)])],
        );
    }
}

impl Service for StorageClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("fs.create", |_s, res, fos| {
            let created = (TAG_SB, vec![imm(0)]);
            fos.invoke_with(res.cid(), vec![imm(STORAGE_FILE)], vec![], vec![created]);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match imm_at(&req.imms, 0).unwrap_or(u64::MAX) {
            0 => {
                self.handles = req.caps.clone();
                self.extent_size = imm_at(&req.imms, 2).unwrap_or(u64::MAX);
                // Register one buffer per in-flight slot, then go.
                fn mk(s: &mut StorageClient, left: u64, io: u64, fos: &Fos<StorageClient>) {
                    if left == 0 {
                        for _ in 0..s.run.prime() {
                            s.issue(fos);
                        }
                        return;
                    }
                    let addr = fos.mem_alloc(io);
                    fos.memory_create(
                        addr,
                        io,
                        Perms::RW,
                        move |s: &mut StorageClient, res, fos| {
                            let SyscallResult::NewCid(cid) = res else {
                                return;
                            };
                            s.bufs.push((addr, cid));
                            mk(s, left - 1, io, fos);
                        },
                    );
                }
                mk(self, self.run.window(), self.io, fos);
            }
            1 => {
                // I/O complete.
                let seq_no = imm_at(&req.imms, 1).unwrap();
                let addr = imm_at(&req.imms, 2).unwrap();
                let buf_cid = imm_at(&req.imms, 3).unwrap();
                self.run.complete(seq_no, fos.now());
                self.bufs.push((addr, Cid(buf_cid as u32)));
                self.issue(fos);
            }
            9 => panic!("storage benchmark I/O error"),
            _ => {}
        }
    }
}

/// FractOS storage run (Figs 10–11): returns `(mean µs, MB/s)`.
pub fn storage_fractos(
    mode: FsMode,
    io: u64,
    count: u64,
    in_flight: u64,
    write: bool,
    seq: bool,
    snic: bool,
) -> (f64, f64) {
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let client = StorageClient::new(io, count, in_flight, write, seq);
    storage_run(blk, mode, snic, client)
}

/// §6.4 "Disaggregated Baseline": the same FractOS FS service over an
/// in-kernel NVMe-oF block tier whose page cache absorbs writes and
/// read-ahead accelerates sequential reads. Returns `(mean µs, MB/s)`.
pub fn storage_disagg_baseline(
    io: u64,
    count: u64,
    in_flight: u64,
    write: bool,
    seq: bool,
) -> (f64, f64) {
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk").with_kernel_cache();
    let client = StorageClient::new(io, count, in_flight, write, seq);
    storage_run(blk, FsMode::Mediated, false, client)
}

fn storage_run(blk: BlockAdaptor, mode: FsMode, snic: bool, client: StorageClient) -> (f64, f64) {
    let mut tb = Testbed::paper(41);
    let ctrls = tb.controllers_per_node(snic);
    // SSD + adaptor on node 0, FS service on node 1, client on node 2
    // (two-tiered remote storage, §6.4–§6.5).
    let blk = tb.add_process("blk", cpu(0), ctrls[0], blk);
    tb.start_process(blk);
    tb.run();
    let fs = tb.add_process("fs", cpu(1), ctrls[1], FsService::new(mode, "fs", "blk"));
    tb.start_process(fs);
    tb.run();
    let client = tb.add_process("client", cpu(2), ctrls[2], client);
    tb.start_process(client);
    tb.run();
    tb.with_service::<StorageClient, _>(client, |c| {
        // Bytes per second past the first window of completions, in MB/s.
        let (mean, bytes_per_s) = summarize(&c.run, c.run.window() as usize, c.io as f64);
        (mean, bytes_per_s / 1e6)
    })
}
