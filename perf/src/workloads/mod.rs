//! The six workloads and the interface the measurement loop drives them by.
//!
//! Every workload is closed-loop with fixed work: a *world* is built from a
//! seed (set-up), started (the first timed event), run to completion on its
//! runtime, and then verifies its own outputs. Sizes are the constants in
//! [`SPECS`]; `perf/README.md` records why each workload exists.

use fractos_core::Testbed;
use fractos_net::{NetParams, Topology, TrafficStats};
use fractos_sim::{build_runtime, Runtime, RuntimeKind, SimDuration};

use crate::traced::{TraceHandle, TracedRuntime};

mod fs_mixed;
mod fv_ring;
mod mesh;
mod ring;

/// Which engine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `fractos_sim::Sim`.
    Single,
    /// `fractos_sim::ShardedSim`, pinned to [`SHARDED_WORKERS`] workers.
    Sharded,
}

/// Worker threads of every sharded run: fixed so the numbers do not depend
/// on `FRACTOS_WORKERS` or on how many cores the host reports, and never
/// above the two cores of the reference host.
pub const SHARDED_WORKERS: usize = 2;

/// What a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `nodes` ping-pong pairs in a ring over a bare fabric.
    Ring { nodes: u32 },
    /// `nodes` Controllers, each with one echo Process and one client.
    Mesh { nodes: u32 },
    /// Mixed 16 KiB reads and writes through the mediated FS.
    FsMixed,
    /// The paper's face-verification application.
    FvRing,
}

/// One workload at its full size.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    pub kind: Kind,
    pub backend: Backend,
    /// Operations per repeat at full size (see [`World`] for what an
    /// operation is per kind).
    pub ops: u64,
}

/// The workloads, in report order. Sizes were calibrated once on the
/// 2-core reference host to 1–2 s of wall per repeat.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "ring4",
        kind: Kind::Ring { nodes: 4 },
        backend: Backend::Single,
        ops: 4 * 1_000_000,
    },
    Spec {
        name: "ring4_sharded",
        kind: Kind::Ring { nodes: 4 },
        backend: Backend::Sharded,
        ops: 4 * 12_500,
    },
    Spec {
        name: "mesh64",
        kind: Kind::Mesh { nodes: 64 },
        backend: Backend::Single,
        ops: 64 * 750,
    },
    Spec {
        name: "mesh64_sharded",
        kind: Kind::Mesh { nodes: 64 },
        backend: Backend::Sharded,
        ops: 64 * 150,
    },
    Spec {
        name: "fs_mixed",
        kind: Kind::FsMixed,
        backend: Backend::Single,
        ops: 2_000,
    },
    Spec {
        name: "fv_ring",
        kind: Kind::FvRing,
        backend: Backend::Single,
        ops: 2_000,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// What a finished world reports about its own outputs.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload set out to do.
    pub attempted: u64,
    /// Operations that failed verification, got a typed error, or never
    /// completed.
    pub failed: u64,
    /// Simulated latency of every completed operation, in virtual ns.
    pub lat_ns: Vec<u64>,
    /// FNV-1a over the bytes the operations returned, where the workload
    /// has any; part of the `sim_digest`.
    pub output_digest: u64,
}

/// Exact per-layer counters read through public accessors after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounters {
    pub ctrl_table_objects: u64,
    pub ctrl_capspace_len: u64,
    pub ctrl_footprint_bytes: u64,
    pub ctrl_pending_ops: u64,
    pub nvme_ops: u64,
    /// `(hits, misses)` of the block adaptor's kernel cache, when it has one.
    pub nvme_cache: Option<(u64, u64)>,
    pub gpu_kernels: u64,
}

/// A built workload instance.
pub trait World {
    /// The runtime to drive.
    fn rt(&mut self) -> &mut dyn Runtime;
    /// The fabric's traffic counters so far.
    fn traffic(&self) -> TrafficStats;
    /// Switches the telemetry plane on, on the runtime and on the fabric.
    fn enable_telemetry(&mut self, period: SimDuration);
    /// Posts the first timed events; everything before this call is set-up.
    fn start(&mut self);
    /// Verifies the outputs of a completed run.
    fn finish(&mut self) -> Outcome;
    /// Reads the per-layer counters of a completed run.
    fn counters(&mut self) -> LayerCounters;
}

/// Builds the engine for a cluster of this shape; `traced` wraps it in a
/// [`TracedRuntime`] and returns the handle that reads its counters.
fn make_runtime(
    backend: Backend,
    topology: &Topology,
    params: &NetParams,
    seed: u64,
    traced: bool,
) -> (Box<dyn Runtime>, Option<TraceHandle>) {
    let mut config = Testbed::runtime_config(topology, params, seed);
    let kind = match backend {
        Backend::Single => RuntimeKind::SingleThreaded,
        Backend::Sharded => {
            config.workers = Some(SHARDED_WORKERS);
            RuntimeKind::Sharded
        }
    };
    let rt = build_runtime(kind, &config);
    if traced {
        let (rt, handle) = TracedRuntime::boxed(rt);
        (rt, Some(handle))
    } else {
        (rt, None)
    }
}

/// Builds `spec` with `ops` operations (the full size or a reduced one).
///
/// # Panics
///
/// Panics when `ops` is not a positive multiple of the node count of a ring
/// or mesh workload, or when the deployment itself fails — both are defects
/// of the benchmark, not outcomes of a run.
pub fn build(
    spec: Spec,
    ops: u64,
    seed: u64,
    traced: bool,
) -> (Box<dyn World>, Option<TraceHandle>) {
    assert!(ops > 0, "a workload needs at least one operation");
    match spec.kind {
        Kind::Ring { nodes } => {
            ring::build(nodes, per_node(ops, nodes), spec.backend, seed, traced)
        }
        Kind::Mesh { nodes } => {
            mesh::build(nodes, per_node(ops, nodes), spec.backend, seed, traced)
        }
        Kind::FsMixed => fs_mixed::build(ops, spec.backend, seed, traced),
        Kind::FvRing => fv_ring::build(ops, spec.backend, seed, traced),
    }
}

fn per_node(ops: u64, nodes: u32) -> u64 {
    assert!(
        ops.is_multiple_of(u64::from(nodes)),
        "{ops} operations do not divide over {nodes} nodes"
    );
    ops / u64::from(nodes)
}

/// SplitMix64: the benchmark's own generator, so workload inputs depend on
/// `--seed` alone and never on the simulator's RNG stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Start offsets of the closed-loop clients, in virtual nanoseconds: a
/// seeded stagger below one microsecond, so even a workload whose
/// operations are all alike has a seed-dependent schedule.
fn start_stagger_ns(rng: &mut SplitMix64) -> u64 {
    rng.below(1_000)
}

/// Sums the Controllers' public counters; `procs` are the Processes whose
/// capability spaces count.
fn ctrl_counters(
    tb: &mut Testbed,
    ctrls: &[fractos_cap::ControllerAddr],
    procs: &[fractos_core::ProcId],
) -> LayerCounters {
    let mut c = LayerCounters::default();
    for &addr in ctrls {
        tb.with_controller(addr, |ctrl| {
            c.ctrl_table_objects += ctrl.table().len() as u64;
            c.ctrl_capspace_len += procs
                .iter()
                .map(|&p| ctrl.capspace_len(p) as u64)
                .sum::<u64>();
            c.ctrl_footprint_bytes += ctrl.memory_footprint();
            c.ctrl_pending_ops += ctrl.pending_ops() as u64;
        });
    }
    c
}

/// Lets `SETTLE` of virtual time pass on an idle cluster before the timed
/// region. Controllers book processor time for set-up work (registry
/// look-ups above all) beyond the instant they answer it, so a region that
/// starts right behind set-up would queue behind that booking; a real
/// benchmark starts on a quiet cluster too.
fn settle(tb: &mut Testbed, any_proc: fractos_core::ProcId) {
    const SETTLE: SimDuration = SimDuration::from_millis(100);
    let actor = tb.proc_actor(any_proc);
    // The no-op timer `Testbed::poke` posts, only later.
    let wake = fractos_core::messages::ProcMsg::Timer { token: u64::MAX };
    tb.sim.post_boxed(SETTLE, actor, Box::new(wake));
    tb.run();
}
