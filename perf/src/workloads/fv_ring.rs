//! `fv_ring`: the paper's face-verification application, every layer at once.
//!
//! `deploy_faceverify` (block adaptor, DAX file system, 256-identity
//! database, GPU adaptor, frontend) plus the stock `FvClient`. An
//! operation is one verify request: a batch of eight 4 KiB images, four
//! requests in flight.

use fractos_cap::ControllerAddr;
use fractos_core::prelude::*;
use fractos_devices::{BlockAdaptor, GpuAdaptor};
use fractos_net::{NetParams, Topology, TrafficStats};
use fractos_services::deploy::{deploy_faceverify, FvDeployment};
use fractos_services::faceverify::FvClient;
use fractos_services::FvConfig;

use super::{
    ctrl_counters, make_runtime, settle, start_stagger_ns, Backend, LayerCounters, Outcome,
    SplitMix64, World,
};
use crate::traced::TraceHandle;

const IMG_BYTES: u64 = 4096;
const BATCH: u64 = 8;
const IN_FLIGHT: u64 = 4;
const DB_IDENTITIES: u64 = 256;

struct FvWorld {
    tb: Testbed,
    ctrls: Vec<ControllerAddr>,
    dep: FvDeployment,
    client: ProcId,
    requests: u64,
    seed: u64,
}

pub fn build(
    requests: u64,
    backend: Backend,
    seed: u64,
    traced: bool,
) -> (Box<dyn World>, Option<TraceHandle>) {
    let topology = Topology::paper_testbed();
    let params = NetParams::paper();
    let (rt, handle) = make_runtime(backend, &topology, &params, seed, traced);
    let mut tb = Testbed::with_runtime(topology, params, rt);
    let ctrls = tb.controllers_per_node(false);
    let dep = deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), DB_IDENTITIES);

    let mut fv = FvClient::new(IMG_BYTES, BATCH, requests, IN_FLIGHT);
    // The stock client walks identity windows by request number alone; the
    // seed picks how much of the database those windows range over.
    fv.id_range = DB_IDENTITIES - SplitMix64(seed).below(DB_IDENTITIES / 4);
    let client = tb.add_process("client", cpu(2), ctrls[2], fv);
    settle(&mut tb, dep.frontend);
    tb.reset_traffic();

    let world = FvWorld {
        tb,
        ctrls,
        dep,
        client,
        requests,
        seed,
    };
    (Box::new(world), handle)
}

impl World for FvWorld {
    fn rt(&mut self) -> &mut dyn Runtime {
        self.tb.sim.as_mut()
    }

    fn traffic(&self) -> TrafficStats {
        self.tb.traffic()
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.tb.enable_telemetry(period);
    }

    /// The stock client looks its frontend up and issues in `on_start`, so
    /// the timed region begins with that one registry lookup.
    fn start(&mut self) {
        let delay = SimDuration::from_nanos(start_stagger_ns(&mut SplitMix64(self.seed)));
        let actor = self.tb.proc_actor(self.client);
        self.tb
            .sim
            .post(delay, actor, fractos_core::messages::ProcMsg::Start);
    }

    fn finish(&mut self) -> Outcome {
        let requests = self.requests;
        self.tb.with_service::<FvClient, _>(self.client, |c| {
            let matched = c.samples.iter().filter(|s| s.all_matched).count() as u64;
            let mut digest = 0u64;
            for (i, reply) in c.replies.iter().enumerate() {
                digest ^= fractos_core::fnv1a(reply.as_slice()).rotate_left(i as u32);
            }
            Outcome {
                attempted: requests,
                // One sample per request, each with every pair matched.
                failed: requests
                    .abs_diff(c.samples.len() as u64)
                    .max(requests - matched.min(requests)),
                lat_ns: c.samples.iter().map(|s| s.latency().as_nanos()).collect(),
                output_digest: digest,
            }
        })
    }

    fn counters(&mut self) -> LayerCounters {
        let d = self.dep;
        let procs = [d.blk, d.fs, d.loader, d.gpu, d.frontend, self.client];
        let mut c = ctrl_counters(&mut self.tb, &self.ctrls, &procs);
        (c.nvme_ops, c.nvme_cache) = self
            .tb
            .with_service::<BlockAdaptor, _>(d.blk, |b| (b.device().ops, b.cache_stats()));
        c.gpu_kernels = self
            .tb
            .with_service::<GpuAdaptor, _>(d.gpu, |g| g.device().kernels_executed());
        c
    }
}
