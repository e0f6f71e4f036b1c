//! The event loop: one [`Shard`] owns a queue, its actors and everything
//! a handler can touch, and [`Shard::run_window`] is the only place in
//! the crate that delivers an event.
//!
//! Both drivers are built on it. [`Sim`](crate::Sim) is one shard with no
//! peers: every actor is local, the window is the whole run.
//! [`ShardedSim`](crate::ShardedSim) is one shard per simulated node:
//! sends to another shard are buffered in [`Shard::cross`] and moved at
//! the driver's barrier. The only thing the loop asks of its driver is
//! `route`, which says whether a destination lives here.
//!
//! The loop writes nothing of its own into the telemetry stream: a shard
//! keeps the store and its sampling period, and only handlers record into
//! it, so the stream does not depend on which driver ran.

use std::any::Any;

use crate::engine::{Actor, ActorId, Ctx, Msg, NodeOutage, TraceEntry};
use crate::metrics::Metrics;
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::span::{sort_canonical, SpanRecord, SpanStore};
use crate::telemetry::{sort_canonical_telemetry, TelemetryEvent, TelemetryStore};
use crate::time::{SimDuration, SimTime};

/// Queued payload: local actor slot, global id (for errors and traces),
/// and the message itself.
type Queued = (u32, ActorId, Msg);

/// One registered actor.
struct Slot {
    /// The simulated node it lives on; scopes node-outage windows and
    /// nothing else.
    node: u32,
    /// `None` only while the actor is on the stack handling an event.
    actor: Option<Box<dyn Actor>>,
}

pub(crate) struct Shard {
    queue: EventQueue<Queued>,
    actors: Vec<Slot>,
    /// Run seed, shared by every shard of a run: span ids derive from
    /// `(seed, actor, per-actor counter)`, so the shard layout does not
    /// influence them.
    seed: u64,
    rng: SimRng,
    pub(crate) metrics: Metrics,
    trace: Option<Vec<TraceEntry>>,
    spans: Option<SpanStore>,
    telemetry: Option<TelemetryStore>,
    /// The telemetry sampling period; `Some` exactly when `telemetry` is.
    telemetry_period: Option<SimDuration>,
    pub(crate) now: SimTime,
    seq: u64,
    /// Lifetime events processed.
    pub(crate) steps: u64,
    /// Events processed since the driver last reset it (per run on one
    /// shard, per round on many); `run_window` stops at its budget.
    pub(crate) processed: u64,
    pub(crate) stop: bool,
    /// Node-down windows (crash faults); empty on fault-free runs.
    pub(crate) outages: Vec<NodeOutage>,
    /// Sends `route` called remote, buffered until the driver's barrier as
    /// `(sent_at, arrival, dst, msg)`; the send instant lets the barrier
    /// check each message against the lookahead.
    pub(crate) cross: Vec<(SimTime, SimTime, ActorId, Msg)>,
    /// Reusable send buffer for [`run_window`](Shard::run_window): drained
    /// back to empty after every event so the per-event cost is a pointer
    /// swap, not a heap allocation.
    scratch_outbox: Vec<(SimTime, ActorId, Msg)>,
}

impl Shard {
    /// An empty shard of the run seeded `seed`, drawing from `rng`.
    pub(crate) fn new(seed: u64, rng: SimRng) -> Self {
        Shard {
            queue: EventQueue::new(),
            actors: Vec::new(),
            seed,
            rng,
            metrics: Metrics::new(),
            trace: None,
            spans: None,
            telemetry: None,
            telemetry_period: None,
            now: SimTime::ZERO,
            seq: 0,
            steps: 0,
            processed: 0,
            stop: false,
            outages: Vec::new(),
            cross: Vec::new(),
            scratch_outbox: Vec::new(),
        }
    }

    /// Registers an actor living on simulated `node`; returns its local
    /// slot.
    pub(crate) fn add_actor(&mut self, node: usize, actor: Box<dyn Actor>) -> u32 {
        let local = u32::try_from(self.actors.len()).expect("too many actors");
        self.actors.push(Slot {
            node: u32::try_from(node).expect("node out of range"),
            actor: Some(actor),
        });
        local
    }

    pub(crate) fn actor_count(&self) -> usize {
        self.actors.len()
    }

    pub(crate) fn pending(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|(t, _)| t)
    }

    pub(crate) fn telemetry_period(&self) -> Option<SimDuration> {
        self.telemetry_period
    }

    /// The `dyn Any` form of the actor in slot `local` (between events).
    pub(crate) fn actor_any(&mut self, local: u32, id: ActorId) -> &mut dyn Any {
        self.actors[local as usize]
            .actor
            .as_mut()
            .unwrap_or_else(|| panic!("missing {id}"))
            .as_mut()
    }

    /// Enqueues `msg` for the actor in slot `local` (whose global id is
    /// `dst`) at `time`.
    pub(crate) fn push(&mut self, time: SimTime, local: u32, dst: ActorId, msg: Msg) {
        self.queue.push(time, self.seq, (local, dst, msg));
        self.seq += 1;
    }

    /// Delivers local events in `(time, seq)` order until none is left
    /// strictly before `horizon` (unbounded when `None`), `budget` events
    /// were processed since `processed` was last reset, or an actor
    /// requested a stop.
    ///
    /// `route` maps a destination to its local slot, or `None` when it
    /// lives on another shard (the send is then buffered in `cross`); it
    /// panics on an id that was never registered.
    ///
    /// # Panics
    ///
    /// Panics if an event re-enters an actor currently on the stack
    /// (actors never send to themselves synchronously by construction).
    // analyze: hot-path
    pub(crate) fn run_window(
        &mut self,
        horizon: Option<SimTime>,
        budget: u64,
        route: impl Fn(ActorId) -> Option<u32>,
    ) {
        while self.processed < budget && !self.stop {
            let Some((time, _seq, (local, dst, msg))) = self.queue.pop_if_before(horizon) else {
                break;
            };
            debug_assert!(
                time >= self.now,
                "event queue went back in time: popped {time} < now {now} (queue {q:?})",
                now = self.now,
                q = self.queue,
            );
            self.now = time;
            self.processed += 1;
            self.steps += 1;

            // A delivery inside a node-down window is lost: the crashed
            // node's actors stop receiving. The event still advances time
            // and counts as a step (progress), it just never reaches a
            // handler.
            if !self.outages.is_empty() {
                let node = self.actors[local as usize].node as usize;
                if self
                    .outages
                    .iter()
                    .any(|o| o.node == node && o.drops_at(time))
                {
                    self.metrics.incr("engine.outage_drops");
                    continue;
                }
            }

            // Temporarily take the actor out of its slot so the context
            // can borrow the rest of the shard mutably.
            let mut actor = self.actors[local as usize]
                .actor
                .take()
                .unwrap_or_else(|| panic!("re-entrant or missing {dst}"));
            let mut outbox = std::mem::take(&mut self.scratch_outbox);
            let mut ctx = Ctx {
                now: time,
                self_id: dst,
                outbox: &mut outbox,
                rng: &mut self.rng,
                metrics: &mut self.metrics,
                trace: &mut self.trace,
                spans: &mut self.spans,
                telemetry: &mut self.telemetry,
                stop: &mut self.stop,
            };
            actor.handle(msg, &mut ctx);
            self.actors[local as usize].actor = Some(actor);
            for (arrival, dst, msg) in outbox.drain(..) {
                match route(dst) {
                    Some(local) => self.push(arrival, local, dst, msg),
                    None => self.cross.push((time, arrival, dst, msg)),
                }
            }
            self.scratch_outbox = outbox;
        }
    }
}

/// The exclusive window bound that admits events up to and including
/// `deadline`; `None` (unbounded) when the deadline is the end of the
/// timeline.
pub(crate) fn horizon_after(deadline: SimTime) -> Option<SimTime> {
    deadline.checked_add(SimDuration::from_nanos(1))
}

// The recording switches and takes of the `Runtime` trait, once for both
// drivers: `Sim` passes its one shard, `ShardedSim` all of them. No global
// total order exists across shards, so every take sorts into the canonical
// order — equal workloads at equal seeds yield equal records whichever
// driver ran them. A take on a store that was never enabled returns empty
// and leaves recording off.

pub(crate) fn enable_trace(shards: &mut [Shard]) {
    for s in shards {
        s.trace.get_or_insert_with(Vec::new);
    }
}

pub(crate) fn take_trace(shards: &mut [Shard]) -> Vec<TraceEntry> {
    let mut all = Vec::new();
    for t in shards.iter_mut().filter_map(|s| s.trace.as_mut()) {
        all.append(t);
    }
    all.sort_by(|a, b| (a.time, a.actor, &a.label).cmp(&(b.time, b.actor, &b.label)));
    all
}

pub(crate) fn enable_spans(shards: &mut [Shard]) {
    for s in shards {
        let seed = s.seed;
        s.spans.get_or_insert_with(|| SpanStore::new(seed));
    }
}

pub(crate) fn take_spans(shards: &mut [Shard]) -> Vec<SpanRecord> {
    let mut all = Vec::new();
    for store in shards.iter_mut().filter_map(|s| s.spans.as_mut()) {
        all.append(&mut store.take());
    }
    sort_canonical(&mut all);
    all
}

/// Switches telemetry on at sampling `period`. The engine records no
/// points of its own: the store holds what actors record through `Ctx`.
pub(crate) fn enable_telemetry(shards: &mut [Shard], period: SimDuration) {
    assert!(period > SimDuration::ZERO, "telemetry period must be > 0");
    for s in shards {
        s.telemetry.get_or_insert_with(TelemetryStore::new);
        s.telemetry_period = Some(period);
    }
}

pub(crate) fn take_telemetry(shards: &mut [Shard]) -> Vec<TelemetryEvent> {
    let mut all = Vec::new();
    for store in shards.iter_mut().filter_map(|s| s.telemetry.as_mut()) {
        all.append(&mut store.take());
    }
    sort_canonical_telemetry(&mut all);
    all
}
