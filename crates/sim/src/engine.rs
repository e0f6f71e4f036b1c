//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns a set of [`Actor`]s and a time-ordered event queue. Each
//! event is a dynamically typed message addressed to one actor; handling an
//! event may enqueue further events through the [`Ctx`] handle. Events at
//! equal timestamps are delivered in insertion order (FIFO), which together
//! with the seeded RNG makes whole runs bit-for-bit deterministic.
//!
//! Messages are `Box<dyn Any>` so that independent crates (network, OS layer,
//! devices) can define their own message types without a shared enum; actors
//! downcast to the types they expect and treat a mismatch as a wiring bug.
//!
//! `Sim` has no event loop of its own: it is the one-shard driver of the
//! crate's single loop (`Shard::run_window` in `shard.rs`) — one shard,
//! every actor local, the window the whole run. It is driven through the
//! [`Runtime`] trait like every backend.

use std::any::Any;
use std::fmt;

use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::runtime::Runtime;
use crate::shard::{self, Shard};
use crate::span::{SpanKind, SpanRecord, SpanStore, TraceCtx};
use crate::telemetry::{TelemetryEvent, TelemetryKind, TelemetryStore};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor registered with a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// Returns the raw index of this actor.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index.
    ///
    /// Only meaningful for ids that came from [`Runtime::add_actor`] (or in
    /// tests that wire ids by hand); posting to a fabricated id panics.
    pub const fn from_raw(index: u32) -> Self {
        ActorId(index)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A dynamically typed simulation message.
///
/// `Send` so the sharded backend can move cross-node messages between
/// worker threads; plain-data payloads satisfy it automatically.
pub type Msg = Box<dyn Any + Send>;

/// An entity that handles timestamped messages.
///
/// The `Any` supertrait allows harnesses to inspect concrete actor state
/// after a run via [`RuntimeExt::with_actor`](crate::RuntimeExt::with_actor).
/// `Send` lets runtime backends host actors on worker threads.
pub trait Actor: Any + Send {
    /// Handles one message delivered at `ctx.now()`.
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>);
}

/// Handle given to actors while they process a message.
///
/// Lets the actor read the clock, send messages, record metrics, and draw
/// deterministic randomness. Sends are buffered and enqueued when the handler
/// returns, preserving FIFO order of same-time messages.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ActorId,
    pub(crate) outbox: &'a mut Vec<(SimTime, ActorId, Msg)>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) trace: &'a mut Option<Vec<TraceEntry>>,
    pub(crate) spans: &'a mut Option<SpanStore>,
    pub(crate) telemetry: &'a mut Option<TelemetryStore>,
    pub(crate) stop: &'a mut bool,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor currently handling the message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Sends `msg` to `dst` after `delay`.
    ///
    /// Saturating arithmetic: a delay that would leave the `u64` nanosecond
    /// timeline pins at the far-future instant (the message never fires)
    /// instead of panicking, matching the checked conventions of the rest
    /// of the stack.
    pub fn send_after(&mut self, delay: SimDuration, dst: ActorId, msg: impl Any + Send) {
        self.outbox
            .push((self.now.saturating_add(delay), dst, Box::new(msg)));
    }

    /// Sends a pre-boxed message to `dst` after `delay` (saturating, like
    /// [`send_after`](Ctx::send_after)).
    pub fn send_boxed_after(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        self.outbox.push((self.now.saturating_add(delay), dst, msg));
    }

    /// Sends `msg` to `dst` at the current instant (delivered after all
    /// already-queued same-time events).
    pub fn send_now(&mut self, dst: ActorId, msg: impl Any + Send) {
        self.send_after(SimDuration::ZERO, dst, msg);
    }

    /// Schedules a message back to the current actor after `delay`.
    pub fn schedule_self(&mut self, delay: SimDuration, msg: impl Any + Send) {
        let id = self.self_id;
        self.send_after(delay, id, msg);
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The simulation's metric registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Whether trace-point recording is enabled.
    ///
    /// Callers that need a formatted label should gate the `format!` behind
    /// this so disabled runs allocate nothing.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Records a trace point if tracing is enabled.
    pub fn trace(&mut self, label: impl Into<String>) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEntry {
                time: self.now,
                actor: self.self_id,
                label: label.into(),
            });
        }
    }

    /// Whether causal span recording is enabled.
    ///
    /// Callers that need a formatted label should gate the `format!` behind
    /// this so disabled runs allocate nothing.
    pub fn spans_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a causal span if span recording is enabled, returning the
    /// context that makes further spans its children.
    ///
    /// Recording consumes no simulation RNG draws and is a no-op returning
    /// [`TraceCtx::NONE`] when disabled. When `parent` is
    /// [`TraceCtx::NONE`] the span roots a new trace.
    pub fn span(
        &mut self,
        kind: SpanKind,
        label: &str,
        parent: TraceCtx,
        start: SimTime,
        end: SimTime,
    ) -> TraceCtx {
        match self.spans.as_mut() {
            Some(store) => store.record(self.self_id, kind, label.to_string(), parent, start, end),
            None => TraceCtx::NONE,
        }
    }

    /// Whether telemetry recording is enabled.
    ///
    /// Callers that need a formatted series name should gate the
    /// `format!` behind this so disabled runs allocate nothing.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Records a telemetry counter delta if telemetry is enabled.
    ///
    /// Like span recording, this consumes no RNG draws and is a complete
    /// no-op while the plane is disabled.
    pub fn telemetry_count(&mut self, series: &str, delta: u64) {
        let (now, actor) = (self.now, self.self_id);
        if let Some(store) = self.telemetry.as_mut() {
            store.record(actor, now, series.to_string(), TelemetryKind::Count(delta));
        }
    }

    /// Records a telemetry gauge level if telemetry is enabled. Gauge
    /// series must be single-writer (one actor per series name) for
    /// cross-backend determinism — see [`crate::telemetry`].
    pub fn telemetry_gauge(&mut self, series: &str, value: u64) {
        let (now, actor) = (self.now, self.self_id);
        if let Some(store) = self.telemetry.as_mut() {
            store.record(actor, now, series.to_string(), TelemetryKind::Gauge(value));
        }
    }

    /// Records one telemetry sample (latency, size) if telemetry is
    /// enabled.
    pub fn telemetry_sample(&mut self, series: &str, value: u64) {
        let (now, actor) = (self.now, self.self_id);
        if let Some(store) = self.telemetry.as_mut() {
            store.record(actor, now, series.to_string(), TelemetryKind::Sample(value));
        }
    }

    /// Requests the simulation to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// One recorded trace point (used by determinism tests and debugging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual time of the trace point.
    pub time: SimTime,
    /// Actor that recorded it.
    pub actor: ActorId,
    /// Free-form label.
    pub label: String,
}

impl fmt::Display for TraceEntry {
    /// Stable `time actor label` rendering, e.g. `12.340us actor#3 deliver`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.time, self.actor, self.label)
    }
}

/// A node-down window for the engine-level crash hook
/// (`Runtime::set_node_outages`): while a node is down, events addressed
/// to its actors are discarded at delivery time — the in-flight messages
/// of a crashed node are lost, identically on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOutage {
    /// The simulated node that crashes.
    pub node: usize,
    /// Crash instant.
    pub down: SimTime,
    /// Restart instant; `None` means the node never comes back.
    pub up: Option<SimTime>,
}

impl NodeOutage {
    /// True when a delivery at `t` must be discarded. The window is the
    /// open interval `(down, up)`: an event at exactly `down` (the kill
    /// notification itself) or exactly `up` (the reboot) is still
    /// delivered, so the crash and restart hooks fire on the node's own
    /// actors deterministically.
    pub fn drops_at(&self, t: SimTime) -> bool {
        t > self.down && self.up.is_none_or(|u| t < u)
    }
}

/// Outcome of driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time or step limit was reached with events still pending.
    LimitReached,
    /// An actor requested a stop via [`Ctx::stop`].
    Stopped,
}

/// The discrete-event simulator: the one-shard driver of the event loop.
///
/// All operations are [`Runtime`] (and [`RuntimeExt`](crate::RuntimeExt))
/// methods; bring the traits into scope to drive it.
pub struct Sim {
    shard: Shard,
    names: Vec<String>,
}

impl Sim {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            shard: Shard::new(seed, SimRng::new(seed)),
            names: Vec::new(),
        }
    }

    /// Runs one window over the only shard: every destination is local, so
    /// `route` is the identity (checked against the registered range).
    fn drive(&mut self, horizon: Option<SimTime>, budget: u64) -> RunOutcome {
        let s = &mut self.shard;
        let actors = s.actor_count();
        s.stop = false;
        s.processed = 0;
        s.run_window(horizon, budget, |dst| {
            assert!(dst.index() < actors, "send to unregistered {dst}");
            Some(dst.0)
        });
        if s.stop {
            RunOutcome::Stopped
        } else if s.pending() == 0 {
            RunOutcome::Drained
        } else {
            RunOutcome::LimitReached
        }
    }

    fn shards(&mut self) -> &mut [Shard] {
        std::slice::from_mut(&mut self.shard)
    }
}

impl Runtime for Sim {
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.add_actor_on(0, name, actor)
    }

    /// Placement has no effect on scheduling (one queue); it scopes
    /// node-outage windows.
    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.names.push(name.to_string());
        ActorId(self.shard.add_actor(node, actor))
    }

    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        assert!(
            dst.index() < self.shard.actor_count(),
            "post to unregistered {dst}"
        );
        let time = self.shard.now.saturating_add(delay);
        self.shard.push(time, dst.0, dst, msg);
    }

    fn run(&mut self) -> RunOutcome {
        self.drive(None, u64::MAX)
    }

    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.drive(None, max_steps)
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.drive(shard::horizon_after(deadline), u64::MAX)
    }

    fn now(&self) -> SimTime {
        self.shard.now
    }

    fn steps(&self) -> u64 {
        self.shard.steps
    }

    fn pending(&self) -> usize {
        self.shard.pending()
    }

    fn metrics(&self) -> &Metrics {
        &self.shard.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.shard.metrics
    }

    fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index()]
    }

    fn actor_count(&self) -> usize {
        self.shard.actor_count()
    }

    fn enable_trace(&mut self) {
        shard::enable_trace(self.shards());
    }

    fn take_trace(&mut self) -> Vec<TraceEntry> {
        shard::take_trace(self.shards())
    }

    fn enable_spans(&mut self) {
        shard::enable_spans(self.shards());
    }

    fn take_spans(&mut self) -> Vec<SpanRecord> {
        shard::take_spans(self.shards())
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        shard::enable_telemetry(self.shards(), period, |_| "runtime.single".to_string());
    }

    fn telemetry_period(&self) -> Option<SimDuration> {
        self.shard.telemetry_period()
    }

    fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        shard::take_telemetry(self.shards())
    }

    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn Any)) {
        f(self.shard.actor_any(id.0, id));
    }

    fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        self.shard.outages = outages;
    }

    fn backend_name(&self) -> &'static str {
        "single"
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("actors", &self.actor_count())
            .field("pending", &self.pending())
            .field("steps", &self.steps())
            .finish()
    }
}
