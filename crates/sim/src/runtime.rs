//! The runtime abstraction: FractOS logic against pluggable drivers.
//!
//! Everything above this crate — the network model, Controllers, Processes,
//! device adaptors, services, baselines, and the bench harness — drives the
//! simulation exclusively through the [`Runtime`] trait: actor registration,
//! message posting, the virtual clock, seeded randomness (via [`crate::Ctx`]),
//! metrics, and tracing. There is one event loop (`Shard::run_window` in
//! `shard.rs`) and two drivers of it implement the trait:
//!
//! * [`Sim`] — one shard with no peers, run on the calling thread. One
//!   queue, FIFO at equal timestamps, bit-exact determinism: the same seed
//!   always yields the identical event trace. This is the default.
//! * [`ShardedSim`](crate::sharded::ShardedSim) — one shard per simulated
//!   node, run in parallel and synchronized by per-link channel lookahead
//!   (Chandy–Misra–Bryant style; see its module docs). Deterministic for a
//!   fixed seed and shard layout; per-link traffic counters and application
//!   payloads match `Sim`, while exact event interleavings (and thus
//!   latency samples) may differ.
//!
//! What happens to one event on one shard — delivery order, outage drops,
//! stop, self-profiling — is the same code under both, so it cannot differ.
//! What the drivers add, and the equivalence suites still have to check, is
//! the barrier merge order, the horizons and the per-shard RNG fork.
//!
//! Backend selection is an environment decision, not a code decision: see
//! [`RuntimeKind::from_env`] and [`build_runtime`].

use std::any::Any;

use crate::engine::{Actor, ActorId, Msg, NodeOutage, RunOutcome, Sim, TraceEntry};
use crate::metrics::Metrics;
use crate::span::SpanRecord;
use crate::telemetry::TelemetryEvent;
use crate::time::{SimDuration, SimTime};

/// Engine-neutral simulation driver.
///
/// Object-safe so harnesses hold a `Box<dyn Runtime>`; the generic
/// conveniences ([`post`](RuntimeExt::post),
/// [`with_actor`](RuntimeExt::with_actor)) live on [`RuntimeExt`].
pub trait Runtime {
    /// Registers an actor on simulated node 0.
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId;

    /// Registers an actor placed on a specific simulated node.
    ///
    /// Placement is the unit of parallelism: the sharded backend runs each
    /// node's actors on one shard, so only cross-node messages pay barrier
    /// synchronization. On every backend it scopes node-outage windows
    /// (see [`set_node_outages`](Runtime::set_node_outages)); on the
    /// one-shard backend that is all it does.
    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId;

    /// Enqueues a pre-boxed message to `dst` at `now + delay` from outside
    /// any actor.
    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg);

    /// Runs until the event queue drains or an actor stops the simulation.
    fn run(&mut self) -> RunOutcome;

    /// Runs for at most `max_steps` events (the parallel backend may
    /// overshoot by up to one synchronization window; see its docs). A
    /// stop requested by the last budgeted event is still
    /// [`RunOutcome::Stopped`].
    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome;

    /// Runs until virtual time exceeds `deadline` or the queue drains.
    fn run_until(&mut self, deadline: SimTime) -> RunOutcome;

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Total events processed so far.
    fn steps(&self) -> u64;

    /// Number of pending events.
    fn pending(&self) -> usize;

    /// The metric registry (counters of the whole run).
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the metric registry (harnesses record
    /// run-level counters between runs).
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// The registered name of an actor.
    fn actor_name(&self, id: ActorId) -> &str;

    /// Number of registered actors.
    fn actor_count(&self) -> usize;

    /// Enables trace recording.
    fn enable_trace(&mut self);

    /// Takes the recorded trace, leaving recording as it was: enabled if
    /// it had been enabled, off (and the result empty) if not. The same
    /// holds for [`take_spans`](Runtime::take_spans) and
    /// [`take_telemetry`](Runtime::take_telemetry).
    ///
    /// Entries are returned in the canonical `(time, actor, label)` order on
    /// every backend, so equal workloads at equal seeds yield equal traces
    /// regardless of engine.
    fn take_trace(&mut self) -> Vec<TraceEntry>;

    /// Enables causal span recording (see [`crate::span`]).
    ///
    /// Off by default; while disabled, recording is a no-op that neither
    /// allocates nor perturbs the RNG stream, so disabled runs behave
    /// bit-identically to builds without the subsystem.
    fn enable_spans(&mut self);

    /// Takes the recorded spans, leaving recording enabled.
    ///
    /// Spans are returned in the canonical `(start, end, actor, ord)` order,
    /// identical across backends for equal `(seed, workload)`.
    fn take_spans(&mut self) -> Vec<SpanRecord>;

    /// Enables telemetry recording with the given virtual-time sampling
    /// period (see [`crate::telemetry`]).
    ///
    /// Off by default; while disabled, recording is a no-op that neither
    /// allocates nor perturbs the RNG stream, so disabled runs behave
    /// bit-identically to builds without the subsystem. The period only
    /// parameterizes the derived window series (and the engine's
    /// self-profiling boundary ticks) — it never schedules events, so it
    /// cannot change what the simulation does.
    fn enable_telemetry(&mut self, period: SimDuration);

    /// The telemetry sampling period, or `None` while the plane is off.
    fn telemetry_period(&self) -> Option<SimDuration>;

    /// Takes the recorded telemetry events, leaving recording enabled.
    ///
    /// Events are returned in the canonical `(time, series, actor, ord)`
    /// order on every backend; window aggregation over them (see
    /// `fractos-obs`) is identical across backends for equal
    /// `(seed, workload)` — engine self-profiling series under the
    /// `runtime.` prefix excepted, as they describe the backend itself.
    fn take_telemetry(&mut self) -> Vec<TelemetryEvent>;

    /// Invokes `f` with the actor's `dyn Any` form between events.
    ///
    /// Object-safe plumbing for [`RuntimeExt::with_actor`]; `f` is called
    /// exactly once.
    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any));

    /// Installs node-down windows (crash-stop / crash-restart faults).
    ///
    /// While a node is down, events addressed to its actors are discarded
    /// at delivery time — a crashed node's actors stop receiving and its
    /// in-flight messages are lost, bit-identically on both backends (the
    /// decision is a pure function of the delivery time and the receiver's
    /// node). The window is the open interval `(down, up)`, so the kill
    /// notification posted at the crash instant and the reboot posted at
    /// the restart instant are still delivered. An empty list (the
    /// default) leaves the engine bit-identical to builds without the
    /// hook.
    fn set_node_outages(&mut self, outages: Vec<NodeOutage>);

    /// Short backend identifier (`"single"`, `"sharded"`) for logs and
    /// metrics.
    fn backend_name(&self) -> &'static str;
}

/// Generic conveniences over any [`Runtime`] (including `dyn Runtime`).
pub trait RuntimeExt: Runtime {
    /// Enqueues a message to `dst` at `now + delay` from outside any actor.
    fn post(&mut self, delay: SimDuration, dst: ActorId, msg: impl Any + Send) {
        self.post_boxed(delay, dst, Box::new(msg));
    }

    /// Gives temporary typed mutable access to a registered actor between
    /// events (tests and harnesses inspecting actor state after a run).
    ///
    /// # Panics
    ///
    /// Panics if the actor is not of type `T`.
    fn with_actor<T: Actor, R>(&mut self, id: ActorId, f: impl FnOnce(&mut T) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.with_actor_any(id, &mut |any| {
            let t = any
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("actor {id} is not the requested type"));
            out = Some((f.take().expect("with_actor_any called twice"))(t));
        });
        out.expect("with_actor_any never invoked the callback")
    }
}

impl<R: Runtime + ?Sized> RuntimeExt for R {}

/// Which engine backs a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// One shard on the calling thread ([`Sim`]): bit-exact determinism.
    SingleThreaded,
    /// One shard per node in parallel
    /// ([`ShardedSim`](crate::sharded::ShardedSim)): conservative lookahead.
    Sharded,
}

impl RuntimeKind {
    /// Reads the backend selection from `FRACTOS_RUNTIME`.
    ///
    /// `"sharded"` (or `"parallel"`) selects the sharded engine; anything
    /// else — including the variable being unset — selects the
    /// single-threaded engine, keeping bit-exact determinism the default.
    pub fn from_env() -> Self {
        match std::env::var("FRACTOS_RUNTIME").as_deref() {
            Ok("sharded") | Ok("parallel") => RuntimeKind::Sharded,
            _ => RuntimeKind::SingleThreaded,
        }
    }
}

/// Everything a backend needs to know about the simulated cluster shape.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// RNG seed (equal seeds ⇒ equal behavior per backend).
    pub seed: u64,
    /// Number of simulated nodes (= shards on the parallel backend).
    pub nodes: usize,
    /// Uniform conservative synchronization bound for the sharded backend:
    /// a strict lower bound on the delay of every cross-node message.
    /// Derived from the fabric's minimum inter-node one-way latency
    /// (including its jitter floor). Used for every link when
    /// [`link_lookahead`](RuntimeConfig::link_lookahead) is absent; ignored
    /// by the single-threaded backend.
    pub lookahead: SimDuration,
    /// Per-link lookahead matrix for the sharded backend: entry `[j][i]`
    /// is a strict lower bound on the delay of any message from node `j`
    /// to node `i` (diagonal entries are unused). Lets shards synchronize
    /// against the channel clocks of their actual links — slow (e.g.
    /// cross-rack) links widen peer windows instead of throttling the
    /// whole cluster. Derived by the harness from the topology and
    /// `NetParams` (see `Testbed::runtime_config` in `fractos-core`).
    /// `None` falls back to the uniform `lookahead` on every link.
    pub link_lookahead: Option<Vec<Vec<SimDuration>>>,
    /// Worker-thread override for the sharded backend; `None` means
    /// `min(available cores, shards)`, clamped to at least 2 so parallelism
    /// is exercised even on single-core hosts. Also settable via
    /// `FRACTOS_WORKERS`.
    pub workers: Option<usize>,
}

impl RuntimeConfig {
    /// A config for `nodes` nodes with the given seed and uniform lookahead.
    pub fn new(seed: u64, nodes: usize, lookahead: SimDuration) -> Self {
        RuntimeConfig {
            seed,
            nodes,
            lookahead,
            link_lookahead: None,
            workers: None,
        }
    }

    /// Installs a per-link lookahead matrix (see
    /// [`link_lookahead`](RuntimeConfig::link_lookahead)).
    pub fn with_link_lookahead(mut self, matrix: Vec<Vec<SimDuration>>) -> Self {
        self.link_lookahead = Some(matrix);
        self
    }
}

/// Builds the requested backend.
pub fn build_runtime(kind: RuntimeKind, config: &RuntimeConfig) -> Box<dyn Runtime> {
    match kind {
        RuntimeKind::SingleThreaded => Box::new(Sim::new(config.seed)),
        RuntimeKind::Sharded => Box::new(crate::sharded::ShardedSim::new(config)),
    }
}

/// Builds the backend selected by `FRACTOS_RUNTIME` (single-threaded when
/// unset).
pub fn runtime_from_env(config: &RuntimeConfig) -> Box<dyn Runtime> {
    build_runtime(RuntimeKind::from_env(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    struct Counter(u64);
    impl Actor for Counter {
        fn handle(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
            self.0 += 1;
        }
    }

    #[test]
    fn sim_behind_trait_object() {
        let mut rt: Box<dyn Runtime> = Box::new(Sim::new(7));
        let id = rt.add_actor_on(0, "c", Box::new(Counter(0)));
        rt.post(SimDuration::from_micros(1), id, ());
        rt.post(SimDuration::from_micros(2), id, ());
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(rt.with_actor::<Counter, _>(id, |c| c.0), 2);
        assert_eq!(rt.backend_name(), "single");
        assert_eq!(rt.steps(), 2);
    }

    #[test]
    fn kind_from_env_defaults_single() {
        // Not set in the test environment unless the sharded CI job sets it;
        // accept either but verify parsing is total.
        let _ = RuntimeKind::from_env();
        assert_eq!(
            match "sharded" {
                "sharded" | "parallel" => RuntimeKind::Sharded,
                _ => RuntimeKind::SingleThreaded,
            },
            RuntimeKind::Sharded
        );
    }
}
