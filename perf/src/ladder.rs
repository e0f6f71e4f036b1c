//! The ladder: direct calls into one layer's public functions, in host
//! nanoseconds per operation, ordered wheel → engine → +fabric →
//! +Controller → +device → full application.
//!
//! Each rung is the median of `reps` timings of `work` of its own work, so
//! a rung moves only when its layer does. `perf/README.md` lists which
//! end-to-end metric each rung is expected to move.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fractos_cap::{
    CapRef, CapSpace, Cid, ControllerAddr, Epoch, ObjectId, ObjectTable, ProcessToken,
};
use fractos_core::messages::{DeriveOp, PeerOp};
use fractos_core::prelude::*;
use fractos_core::wire::Wire;
use fractos_net::{Fabric, FaultPlan, NetParams, Topology, TrafficClass};
use fractos_services::deploy::deploy_faceverify;
use fractos_services::FvConfig;
use fractos_sim::{
    Actor, ActorId, Ctx, EventQueue, Metrics, Msg, RuntimeConfig, ShardedSim, Sim, SimRng,
    StreamHist,
};

use crate::measure::{median, repeat, Mode};
use crate::micro;
use crate::workloads::{build, spec, SplitMix64};

/// How much work a ladder run does.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Timings per rung; the median is reported.
    pub reps: usize,
    /// Work per timing of a function-call rung.
    pub work: Duration,
    /// Operations per timing of a Testbed loop rung.
    pub loop_ops: u64,
    /// `fv_ring` requests per timing of the observation-cost rungs.
    pub fv_requests: u64,
}

impl Effort {
    /// The ladder as the README defines it.
    pub const FULL: Effort = Effort {
        reps: 5,
        work: Duration::from_millis(200),
        loop_ops: 16_000,
        fv_requests: 500,
    };
    /// A shortened ladder that fits beside a traced workload run.
    pub const QUICK: Effort = Effort {
        reps: 3,
        work: Duration::from_millis(25),
        loop_ops: 2_000,
        fv_requests: 150,
    };
}

/// One measured rung.
#[derive(Debug, Clone)]
pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Rung names and units, bottom rung first.
pub const RUNGS: [(&str, &str); 29] = [
    ("sim.queue.near_push_pop_ns", "ns"),
    ("sim.queue.far_push_pop_ns", "ns"),
    ("sim.metrics.incr_ns", "ns"),
    ("sim.streamhist.record_ns", "ns"),
    ("sim.payload.slice_clone_ns", "ns"),
    ("sim.engine.bare_ns_per_event", "ns"),
    ("sim.sharded.bare_ns_per_event_w1", "ns"),
    ("net.fabric.send_64b_ns", "ns"),
    ("net.fabric.rdma_write_4k_ns", "ns"),
    ("net.fabric.send_with_faultplan_ns", "ns"),
    ("cap.table.create_ns", "ns"),
    ("cap.table.derive_ns", "ns"),
    ("cap.table.resolve_ns", "ns"),
    ("cap.table.revoke_ns_per_node", "ns"),
    ("cap.space.insert_remove_ns", "ns"),
    ("core.wire.syscall_roundtrip_ns", "ns"),
    ("core.wire_peer.roundtrip_ns", "ns"),
    ("core.verify.plan_ns", "ns"),
    ("core.integrity.fnv1a_ns_per_kib", "ns"),
    ("core.null_syscall_host_ns", "ns"),
    ("core.rpc_host_ns", "ns"),
    ("core.memcopy_4k_host_ns", "ns"),
    ("core.memcopy_64k_host_ns", "ns"),
    ("devices.nvme.io_16k_host_ns", "ns"),
    ("devices.gpu.launch_host_ns", "ns"),
    ("obs.critical_path_ns_per_span", "ns"),
    ("obs.chrome_export_ns_per_span", "ns"),
    ("obs.spans_on_overhead_pct", "%"),
    ("obs.telemetry_on_overhead_pct", "%"),
];

/// Median over `effort.reps` timings of nanoseconds per operation; `batch`
/// does some operations and returns how many, and is called until
/// `effort.work` has passed.
fn per_op(effort: Effort, mut batch: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..effort.reps)
        .map(|_| {
            let (mut ops, t) = (0, Instant::now());
            while t.elapsed() < effort.work {
                ops += batch();
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut samples)
}

/// Median over `effort.reps` calls of `once`, which times itself.
fn median_of(effort: Effort, mut once: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..effort.reps).map(|_| once()).collect();
    median(&mut samples)
}

const BATCH: u64 = 1024;

/// Steady-state push+pop on a queue holding 64 events `gap_ns` apart: each
/// push lands `64 × gap_ns` past the cursor.
fn queue_push_pop(effort: Effort, gap_ns: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut seq = 0u64;
    for i in 0..64 {
        q.push(SimTime::from_nanos(i * gap_ns), seq, seq);
        seq += 1;
    }
    per_op(effort, || {
        for _ in 0..BATCH {
            let (t, _, item) = q.pop().expect("the queue never drains");
            black_box(item);
            q.push(t + SimDuration::from_nanos(64 * gap_ns), seq, seq);
            seq += 1;
        }
        BATCH
    })
}

/// Forwards every message to its peer after a fixed delay, forever.
struct Bouncer {
    peer: ActorId,
    delay: SimDuration,
}

impl Actor for Bouncer {
    fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
        ctx.send_after(self.delay, self.peer, ());
    }
}

const BOUNCE_DELAY: SimDuration = SimDuration::from_micros(2);

fn engine_bare(effort: Effort) -> f64 {
    let mut sim = Sim::new(1);
    let a = sim.add_actor(
        "a",
        Box::new(Bouncer {
            peer: ActorId::from_raw(1),
            delay: BOUNCE_DELAY,
        }),
    );
    let _b = sim.add_actor(
        "b",
        Box::new(Bouncer {
            peer: a,
            delay: BOUNCE_DELAY,
        }),
    );
    sim.post(SimDuration::ZERO, a, ());
    per_op(effort, || {
        sim.run_with_limit(BATCH);
        BATCH
    })
}

/// The same two actors on two shards of the sharded engine, forced to one
/// worker thread: what the sharded machinery costs with no parallelism.
fn sharded_bare_one_worker(effort: Effort) -> f64 {
    let mut config = RuntimeConfig::new(1, 2, SimDuration::from_micros(1));
    config.workers = Some(1);
    let mut sim = ShardedSim::new(&config);
    let a = sim.add_actor_on(
        0,
        "a",
        Box::new(Bouncer {
            peer: ActorId::from_raw(1),
            delay: BOUNCE_DELAY,
        }),
    );
    let _b = sim.add_actor_on(
        1,
        "b",
        Box::new(Bouncer {
            peer: a,
            delay: BOUNCE_DELAY,
        }),
    );
    sim.post(SimDuration::ZERO, a, ());
    per_op(effort, || {
        let before = sim.steps();
        sim.run_with_limit(BATCH);
        sim.steps() - before
    })
}

/// One fabric call per operation, 10 µs of virtual time apart so that no
/// link queue builds up.
fn fabric_rung(
    effort: Effort,
    mut fabric: Fabric,
    mut call: impl FnMut(&mut Fabric, SimTime, &mut SimRng),
) -> f64 {
    let mut rng = SimRng::new(3);
    let mut now = SimTime::ZERO;
    per_op(effort, || {
        for _ in 0..BATCH {
            call(&mut fabric, now, &mut rng);
            now += SimDuration::from_micros(10);
        }
        BATCH
    })
}

fn paper_fabric() -> Fabric {
    Fabric::new(Topology::paper_testbed(), NetParams::paper())
}

fn capref(n: u64) -> CapRef {
    CapRef {
        ctrl: ControllerAddr(0),
        epoch: Epoch(0),
        object: ObjectId(n),
    }
}

const TABLE_OBJECTS: u64 = 100_000;
const SUBTREE_NODES: u64 = 1_000;

fn big_table() -> (ObjectTable<u64>, Vec<CapRef>) {
    let mut table = ObjectTable::new(ControllerAddr(0));
    let caps = (0..TABLE_OBJECTS)
        .map(|i| table.create(ProcessToken(i % 64), i))
        .collect();
    (table, caps)
}

fn table_rungs(effort: Effort) -> [f64; 4] {
    let create = {
        let mut table: ObjectTable<u64> = ObjectTable::new(ControllerAddr(0));
        let mut n = 0;
        per_op(effort, || {
            for _ in 0..BATCH {
                n += 1;
                black_box(table.create(ProcessToken(n % 64), n));
            }
            BATCH
        })
    };
    let (mut table, caps) = big_table();
    let mut rng = SplitMix64(7);
    let resolve = per_op(effort, || {
        for _ in 0..BATCH {
            let cap = caps[rng.below(TABLE_OBJECTS) as usize];
            black_box(table.resolve(cap).expect("live object"));
        }
        BATCH
    });
    let derive = per_op(effort, || {
        for _ in 0..BATCH {
            let parent = caps[rng.below(TABLE_OBJECTS) as usize];
            black_box(
                table
                    .derive(parent.object, ProcessToken(1), 0)
                    .expect("live parent"),
            );
        }
        BATCH
    });
    // A fresh table: the derive rung left this one much larger.
    let (mut table, _) = big_table();
    let revoke = median_of(effort, || {
        let root = table.create(ProcessToken(0), 0);
        for i in 0..SUBTREE_NODES {
            table
                .derive(root.object, ProcessToken(i % 64), i)
                .expect("live root");
        }
        let t = Instant::now();
        let outcome = table.revoke(root.object).expect("live root");
        let ns = t.elapsed().as_nanos() as f64;
        let nodes = outcome.nodes_visited();
        table.cleanup_revoked();
        ns / nodes as f64
    });
    [create, derive, resolve, revoke]
}

fn capspace_rung(effort: Effort) -> f64 {
    let mut space = CapSpace::new();
    let held: Vec<Cid> = (0..1024)
        .map(|i| space.insert(capref(i)).expect("unbounded space"))
        .collect();
    black_box(&held);
    let mut n = 1024;
    per_op(effort, || {
        for _ in 0..BATCH {
            n += 1;
            let cid = space.insert(capref(n)).expect("unbounded space");
            black_box(space.get(cid).expect("just inserted"));
            space.remove(cid).expect("just inserted");
        }
        BATCH
    })
}

fn wire_rungs(effort: Effort) -> [f64; 2] {
    let sc = Syscall::RequestCreate {
        base: Some(Cid(3)),
        tag: 7,
        imms: vec![vec![0xAB; 256].into(), vec![1, 2, 3].into()],
        caps: vec![Cid(1), Cid(2)],
    };
    let syscall = per_op(effort, || {
        for _ in 0..64 {
            let bytes = black_box(&sc).to_bytes();
            black_box(Syscall::from_bytes(&bytes).expect("own encoding"));
        }
        64
    });
    let op = PeerOp::Derive {
        obj: capref(9),
        op: DeriveOp::Refine {
            imms: vec![vec![0xCD; 256].into()],
            caps: vec![],
        },
        creator: ProcId(4),
        reply_to: ControllerAddr(1),
        token: 77,
    };
    let peer = per_op(effort, || {
        for _ in 0..64 {
            let bytes = black_box(&op).to_bytes();
            black_box(PeerOp::from_bytes(&bytes).expect("own encoding"));
        }
        64
    });
    [syscall, peer]
}

/// Static verification of every Request plan the deployed face-verify
/// stack holds, per plan.
fn verify_plan_rung(effort: Effort) -> f64 {
    let mut tb = Testbed::paper(61);
    let ctrls = tb.controllers_per_node(false);
    deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    per_op(effort, || {
        black_box(tb.verify_all_plans().expect("the deployed plans verify")) as u64
    })
}

/// Spans of a short `fv_ring` run and the names of its actors.
fn fv_spans(effort: Effort) -> (Vec<fractos_sim::SpanRecord>, Vec<String>) {
    let fv = spec("fv_ring").expect("fv_ring is a workload");
    let (mut world, _) = build(fv, effort.fv_requests, 61, false);
    world.rt().enable_spans();
    world.start();
    world.rt().run();
    let rt = world.rt();
    let names = (0..rt.actor_count())
        .map(|i| rt.actor_name(ActorId::from_raw(i as u32)).to_string())
        .collect();
    (rt.take_spans(), names)
}

/// Wall of `fv_ring` under `mode` over its plain wall, minus one, in %.
fn observation_overhead_pct(effort: Effort, mode: Mode) -> f64 {
    let fv = spec("fv_ring").expect("fv_ring is a workload");
    let wall = |mode| median_of(effort, || repeat(fv, effort.fv_requests, 61, mode).wall_s);
    let plain = wall(Mode::Plain);
    (wall(mode) / plain - 1.0) * 100.0
}

/// Runs every rung, bottom first.
pub fn run(effort: Effort) -> Vec<Rung> {
    let mut rungs: Vec<Rung> = Vec::with_capacity(RUNGS.len());
    // Values are reported under the name they were measured for, and in
    // the ladder's order.
    let mut rung = |name: &str, value: f64| {
        let (expected, unit) = RUNGS[rungs.len()];
        assert_eq!(name, expected, "rungs run in RUNGS order");
        rungs.push(Rung {
            name: expected,
            unit,
            value,
        });
    };

    rung("sim.queue.near_push_pop_ns", queue_push_pop(effort, 100));
    // 64 × 100 µs puts every push beyond the wheel's 256 × 4,096 ns.
    rung("sim.queue.far_push_pop_ns", queue_push_pop(effort, 100_000));
    let mut metrics = Metrics::new();
    rung(
        "sim.metrics.incr_ns",
        per_op(effort, || {
            for _ in 0..BATCH {
                metrics.incr(black_box("ctrl.ops.request_invoke"));
            }
            BATCH
        }),
    );
    let (mut hist, mut rng) = (StreamHist::new(), SplitMix64(5));
    rung(
        "sim.streamhist.record_ns",
        per_op(effort, || {
            for _ in 0..BATCH {
                hist.record(rng.below(1 << 20));
            }
            BATCH
        }),
    );
    let payload = Payload::from(vec![7u8; 4096]);
    rung(
        "sim.payload.slice_clone_ns",
        per_op(effort, || {
            for _ in 0..BATCH {
                black_box(black_box(&payload).slice(64..4096));
                black_box(black_box(&payload).clone());
            }
            BATCH
        }),
    );
    rung("sim.engine.bare_ns_per_event", engine_bare(effort));
    rung(
        "sim.sharded.bare_ns_per_event_w1",
        sharded_bare_one_worker(effort),
    );

    let (a, b, c) = (
        Endpoint::cpu(NodeId(0)),
        Endpoint::cpu(NodeId(1)),
        Endpoint::cpu(NodeId(2)),
    );
    rung(
        "net.fabric.send_64b_ns",
        fabric_rung(effort, paper_fabric(), |f, now, rng| {
            black_box(f.send(now, rng, a, b, 64, TrafficClass::Control));
        }),
    );
    rung(
        "net.fabric.rdma_write_4k_ns",
        fabric_rung(effort, paper_fabric(), |f, now, rng| {
            black_box(f.rdma_write(now, rng, a, c, 4096));
        }),
    );
    let mut faulty = paper_fabric();
    faulty.install_fault_plan(FaultPlan::new().drop_prob(NodeId(0), NodeId(1), 0.01), 9);
    rung(
        "net.fabric.send_with_faultplan_ns",
        fabric_rung(effort, faulty, |f, now, rng| {
            black_box(f.try_send(now, rng, a, b, 64, TrafficClass::Control));
        }),
    );

    let [create, derive, resolve, revoke] = table_rungs(effort);
    rung("cap.table.create_ns", create);
    rung("cap.table.derive_ns", derive);
    rung("cap.table.resolve_ns", resolve);
    rung("cap.table.revoke_ns_per_node", revoke);
    rung("cap.space.insert_remove_ns", capspace_rung(effort));
    let [syscall, peer] = wire_rungs(effort);
    rung("core.wire.syscall_roundtrip_ns", syscall);
    rung("core.wire_peer.roundtrip_ns", peer);
    rung("core.verify.plan_ns", verify_plan_rung(effort));
    let data = vec![0x5Au8; 16 << 10];
    rung(
        "core.integrity.fnv1a_ns_per_kib",
        per_op(effort, || {
            black_box(fractos_core::fnv1a(black_box(&data)));
            16
        }),
    );

    let ops = effort.loop_ops;
    rung(
        "core.null_syscall_host_ns",
        median_of(effort, || micro::null_syscall(ops, false).host_ns),
    );
    rung(
        "core.rpc_host_ns",
        median_of(effort, || micro::rpc(ops).host_ns),
    );
    rung(
        "core.memcopy_4k_host_ns",
        median_of(effort, || micro::memcopy(ops, 4 << 10).host_ns),
    );
    rung(
        "core.memcopy_64k_host_ns",
        median_of(effort, || micro::memcopy(ops, 64 << 10).host_ns),
    );
    rung(
        "devices.nvme.io_16k_host_ns",
        median_of(effort, || micro::nvme_read_16k(ops / 4).host_ns),
    );
    rung(
        "devices.gpu.launch_host_ns",
        median_of(effort, || micro::gpu_launch(ops / 4).host_ns),
    );

    let (spans, names) = fv_spans(effort);
    rung(
        "obs.critical_path_ns_per_span",
        per_op(effort, || {
            black_box(fractos_obs::analyze(black_box(&spans)));
            spans.len() as u64
        }),
    );
    rung(
        "obs.chrome_export_ns_per_span",
        per_op(effort, || {
            black_box(fractos_obs::chrome_trace(black_box(&spans), |i| {
                names[i].clone()
            }));
            spans.len() as u64
        }),
    );
    rung(
        "obs.spans_on_overhead_pct",
        observation_overhead_pct(effort, Mode::Spans),
    );
    rung(
        "obs.telemetry_on_overhead_pct",
        observation_overhead_pct(effort, Mode::Telemetry),
    );
    rungs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_runs_and_reports_under_its_own_name() {
        let tiny = Effort {
            reps: 1,
            work: Duration::from_millis(1),
            loop_ops: 40,
            fv_requests: 10,
        };
        let rungs = run(tiny);
        assert_eq!(rungs.len(), RUNGS.len());
        for (r, (name, unit)) in rungs.iter().zip(RUNGS) {
            assert_eq!((r.name, r.unit), (name, unit));
            assert!(r.value.is_finite(), "{name}");
            // Everything but the two overhead percentages is a time.
            assert!(unit == "%" || r.value > 0.0, "{name}: {}", r.value);
        }
    }
}
