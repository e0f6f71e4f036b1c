//! Per-layer host-time attribution from outside the product crates.
//!
//! [`TracedRuntime`] delegates every [`Runtime`] call to a real engine and
//! wraps each registered actor in a [`Shim`] that times `Actor::handle`
//! with the host clock. Busy time is grouped by actor name into layers named
//! after the crate and module that own the actor ([`layer_of`]); whatever
//! wall time is left over is the engine's own (`sim.engine` self time), so
//! Σ layer busy + engine self == wall by construction.
//!
//! What this cannot split: a Process actor's busy time includes
//! `core::process` dispatch, and fabric time spent inside a Controller
//! handler counts as the Controller's. Both need spans inside the product
//! crates, which is a later change.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fractos_sim::{
    Actor, ActorId, Ctx, Metrics, Msg, NodeOutage, RunOutcome, Runtime, SimDuration, SimTime,
    SpanRecord, TelemetryEvent, TraceEntry,
};

/// Deliveries timed in full before an actor may switch to sampling.
const PROBE_DELIVERIES: u64 = 64;

/// An actor whose first [`PROBE_DELIVERIES`] deliveries average less than
/// this is sampled from then on; every other actor is timed on every
/// delivery. Two clock reads cost ~50 ns: next to a Controller or Process
/// handler (0.5–30 µs) that is noise, next to a `ring4` ping-pong handler
/// (~90 ns) it would be half the run.
const CHEAP_HANDLER_NS: u64 = 250;

/// One delivery in this many is timed for a sampled actor. Such handlers
/// cost about the same on every delivery, which is what makes a stride a
/// fair estimate.
const SAMPLE_EVERY: u64 = 8;

/// Host-time counters of one actor, on a cache line of their own: on the
/// sharded engine neighbouring actors are written by different workers.
#[derive(Default)]
#[repr(align(64))]
struct Cell {
    events: AtomicU64,
    /// Estimated nanoseconds inside `handle`: each timed delivery stands
    /// for itself and the untimed ones up to the next timed one.
    busy_ns: AtomicU64,
}

impl Cell {
    /// Adds to a counter with a plain load and store.
    ///
    /// An actor is handled by one thread at a time (the engines hand out
    /// `&mut` actors), so each cell has a single writer and needs no
    /// read-modify-write instruction; `Relaxed` is enough because the
    /// counters are statistics read after the run has joined its workers.
    fn bump(counter: &AtomicU64, by: u64) {
        counter.store(counter.load(Relaxed) + by, Relaxed);
    }
}

/// What one `Instant::now()` … `elapsed()` pair reads with nothing in
/// between; subtracted from every timed delivery.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..2001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        *pairs.select_nth_unstable(1000).1
    })
}

struct Shim {
    inner: Box<dyn Actor>,
    cell: Arc<Cell>,
    clock_overhead_ns: u64,
    /// 1 while every delivery is timed, [`SAMPLE_EVERY`] once sampling.
    stride: u64,
    /// Untimed deliveries left before the next timed one.
    skip: u64,
    probed: u64,
    probe_ns: u64,
}

impl Actor for Shim {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        Cell::bump(&self.cell.events, 1);
        if self.skip > 0 {
            self.skip -= 1;
            return self.inner.handle(msg, ctx);
        }
        let t = Instant::now();
        self.inner.handle(msg, ctx);
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(self.clock_overhead_ns);
        Cell::bump(&self.cell.busy_ns, ns * self.stride);
        if self.probed < PROBE_DELIVERIES {
            self.probed += 1;
            self.probe_ns += ns;
            if self.probed == PROBE_DELIVERIES
                && self.probe_ns < CHEAP_HANDLER_NS * PROBE_DELIVERIES
            {
                self.stride = SAMPLE_EVERY;
            }
        }
        self.skip = self.stride - 1;
    }
}

/// Host time and deliveries of one actor so far.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorBusy {
    /// The actor's registered name.
    pub name: String,
    /// Deliveries handled.
    pub events: u64,
    /// Host nanoseconds inside `Actor::handle` (an estimate for actors
    /// cheap enough to be sampled).
    pub busy_ns: f64,
}

/// Reads the counters of a [`TracedRuntime`] after it has been boxed and
/// moved into a `Testbed`.
#[derive(Clone, Default)]
pub struct TraceHandle {
    actors: Arc<Mutex<Vec<NamedCell>>>,
}

type NamedCell = (String, Arc<Cell>);

impl TraceHandle {
    /// Per-actor totals since the runtime was created.
    pub fn snapshot(&self) -> Vec<ActorBusy> {
        let actors = self
            .actors
            .lock()
            .expect("no thread panics while holding the trace registry");
        actors
            .iter()
            .map(|(name, cell)| ActorBusy {
                name: name.clone(),
                events: cell.events.load(Relaxed),
                busy_ns: cell.busy_ns.load(Relaxed) as f64,
            })
            .collect()
    }
}

/// A [`Runtime`] that times every actor it hosts; see the module docs.
pub struct TracedRuntime {
    inner: Box<dyn Runtime>,
    handle: TraceHandle,
}

impl TracedRuntime {
    /// Wraps `inner`; the handle reads the counters later.
    pub fn boxed(inner: Box<dyn Runtime>) -> (Box<dyn Runtime>, TraceHandle) {
        let handle = TraceHandle::default();
        let rt = TracedRuntime {
            inner,
            handle: handle.clone(),
        };
        (Box::new(rt), handle)
    }

    fn wrap(&self, name: &str, actor: Box<dyn Actor>) -> Box<dyn Actor> {
        let cell = Arc::new(Cell::default());
        self.handle
            .actors
            .lock()
            .expect("no thread panics while holding the trace registry")
            .push((name.to_string(), cell.clone()));
        Box::new(Shim {
            inner: actor,
            cell,
            clock_overhead_ns: clock_overhead_ns(),
            stride: 1,
            skip: 0,
            probed: 0,
            probe_ns: 0,
        })
    }
}

impl Runtime for TracedRuntime {
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId {
        let actor = self.wrap(name, actor);
        self.inner.add_actor(name, actor)
    }

    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        let actor = self.wrap(name, actor);
        self.inner.add_actor_on(node, name, actor)
    }

    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        self.inner.post_boxed(delay, dst, msg);
    }

    fn run(&mut self) -> RunOutcome {
        self.inner.run()
    }

    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.inner.run_with_limit(max_steps)
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.inner.run_until(deadline)
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.inner.metrics_mut()
    }

    fn actor_name(&self, id: ActorId) -> &str {
        self.inner.actor_name(id)
    }

    fn actor_count(&self) -> usize {
        self.inner.actor_count()
    }

    fn enable_trace(&mut self) {
        self.inner.enable_trace();
    }

    fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.inner.take_trace()
    }

    fn enable_spans(&mut self) {
        self.inner.enable_spans();
    }

    fn take_spans(&mut self) -> Vec<SpanRecord> {
        self.inner.take_spans()
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.inner.enable_telemetry(period);
    }

    fn telemetry_period(&self) -> Option<SimDuration> {
        self.inner.telemetry_period()
    }

    fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        self.inner.take_telemetry()
    }

    /// Hands `f` the wrapped actor, not the shim, so `Testbed::with_service`
    /// and `with_controller` downcast exactly as on a bare engine.
    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any)) {
        self.inner.with_actor_any(id, &mut |any| {
            let shim = any
                .downcast_mut::<Shim>()
                .expect("every actor of a TracedRuntime is registered through wrap()");
            f(shim.inner.as_mut());
        });
    }

    fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        self.inner.set_node_outages(outages);
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// The layers a workload's actors can belong to, in report order.
pub const LAYERS: [&str; 9] = [
    "core.controller",
    "devices.nvme",
    "devices.gpu",
    "services.fs",
    "services.faceverify",
    "services.deploy",
    "baselines.raw",
    "app.server",
    "app.client",
];

/// Maps an actor name to its layer (`crate.module`), or `None` for a name
/// no workload registers. The benchmark treats `None` as a defect: busy
/// time must never land in an "other" bucket.
pub fn layer_of(actor: &str) -> Option<&'static str> {
    Some(match actor {
        "blk" | "blk-adaptor" | "out-blk-adaptor" => "devices.nvme",
        "gpu-adaptor" => "devices.gpu",
        "fs" | "out-fs" => "services.fs",
        "frontend" => "services.faceverify",
        "db-loader" | "out-creator" => "services.deploy",
        _ if is_numbered(actor, "ctrl") => "core.controller",
        _ if is_numbered(actor, "pp-client") || is_numbered(actor, "pp-server") => "baselines.raw",
        _ if is_numbered(actor, "echo.") => "app.server",
        _ if actor == "client" || is_numbered(actor, "client.") => "app.client",
        _ => return None,
    })
}

/// `name` is `prefix` followed by decimal digits only.
fn is_numbered(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Busy nanoseconds and deliveries per layer, in [`LAYERS`] order.
///
/// # Panics
///
/// Panics on an actor name [`layer_of`] does not know.
pub fn by_layer(actors: &[ActorBusy]) -> Vec<(f64, u64)> {
    let mut out = vec![(0.0, 0u64); LAYERS.len()];
    for a in actors {
        let layer = layer_of(&a.name)
            .unwrap_or_else(|| panic!("actor {:?} belongs to no known layer", a.name));
        let i = LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("layer_of returns members of LAYERS");
        out[i].0 += a.busy_ns;
        out[i].1 += a.events;
    }
    out
}

#[cfg(test)]
mod tests {
    use fractos_core::prelude::*;
    use fractos_net::{NetParams, Topology};
    use fractos_sim::build_runtime;

    use super::*;
    use crate::measure::{repeat, Mode, Traced};
    use crate::workloads::{build, spec, SPECS};

    /// A twentieth of a workload, kept a multiple of its node count.
    fn small(name: &str) -> (crate::workloads::Spec, u64) {
        let s = spec(name).expect("a workload");
        (s, s.ops / 20 / 64 * 64)
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let (fv, ops) = (spec("fv_ring").expect("a workload"), 100);
        let plain = repeat(fv, ops, 61, Mode::Plain);
        let traced = repeat(
            fv,
            ops,
            61,
            Mode::Traced {
                events: plain.sim.events,
            },
        );
        // Steps, virtual end time, traffic totals and every latency.
        assert_eq!(plain.sim, traced.sim);
        assert_eq!(plain.sim.failed, 0);
    }

    #[test]
    fn busy_plus_engine_self_is_wall() {
        let (mesh, ops) = small("mesh64");
        let events = repeat(mesh, ops, 61, Mode::Plain).sim.events;
        let t = Traced(repeat(mesh, ops, 61, Mode::Traced { events }).chunks);
        let busy: f64 = LAYERS.iter().map(|l| t.layer(l).0).sum();
        assert!(busy > 0.0 && t.engine_self_ns() > 0.0);
        let sum = busy + t.engine_self_ns();
        assert!((sum - t.wall_ns()).abs() <= 1e-6 * t.wall_ns());
        assert_eq!(t.events(), events);
    }

    #[test]
    fn testbed_downcasts_through_the_wrapper_on_both_backends() {
        for kind in [RuntimeKind::SingleThreaded, RuntimeKind::Sharded] {
            let (topology, params) = (Topology::paper_testbed(), NetParams::paper());
            let config = Testbed::runtime_config(&topology, &params, 1);
            let (rt, handle) = TracedRuntime::boxed(build_runtime(kind, &config));
            let mut tb = Testbed::with_runtime(topology, params, rt);
            let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
            let p = tb.add_process("client", cpu(0), ctrl, NullService);
            tb.start_process(p);
            tb.run();
            tb.with_service::<NullService, _>(p, |_| ());
            assert_eq!(tb.with_controller(ctrl, |c| c.pending_ops()), 0);
            let names: Vec<String> = handle.snapshot().into_iter().map(|a| a.name).collect();
            assert_eq!(names, ["ctrl0", "client"]);
        }
    }

    #[test]
    fn every_actor_of_every_workload_has_a_layer() {
        for s in SPECS {
            let ops = (s.ops / 20 / 64).max(1) * 64;
            let (_world, handle) = build(s, ops, 61, true);
            for actor in handle.expect("a traced world has a handle").snapshot() {
                let layer = layer_of(&actor.name);
                assert!(
                    layer.is_some(),
                    "{}: actor {:?} has no layer",
                    s.name,
                    actor.name
                );
                assert!(LAYERS.contains(&layer.expect("checked")));
            }
        }
    }

    #[test]
    fn an_unknown_actor_has_no_layer() {
        for name in ["watchdog", "ctrl", "ctrlx", "client.", "echo.1a", ""] {
            assert_eq!(layer_of(name), None, "{name:?}");
        }
    }

    #[test]
    #[should_panic(expected = "belongs to no known layer")]
    fn busy_time_never_lands_in_an_other_bucket() {
        by_layer(&[ActorBusy {
            name: "mystery".into(),
            events: 1,
            busy_ns: 1.0,
        }]);
    }
}
