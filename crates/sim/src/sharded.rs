//! The N-shard driver: the sharded simulation engine.
//!
//! Events are delivered by the crate's one loop (`Shard::run_window` in
//! `shard.rs`), which [`Sim`](crate::Sim) drives with a single shard. This
//! module owns only what sharding adds — actor placement, the horizons and
//! the barrier. Every round runs its shards one after another, in index
//! order, on the calling thread: the engine is single-threaded like
//! [`Sim`](crate::Sim), and shared substrate state re-entered during a
//! round panics through [`Shared`](crate::Shared)'s `RefCell` check.
//!
//! One shard per simulated node, synchronized conservatively in the
//! Chandy–Misra–Bryant style by one lookahead `L`
//! ([`RuntimeConfig::lookahead`]): a strict lower bound on the delay of any
//! message an actor on one shard sends to an actor on another. The engine
//! runs rounds:
//!
//! 1. Let `t₁` be the earliest pending event, on shard `k`, and `t₂` the
//!    earliest pending event on any other shard (none when they are all
//!    idle). Every shard except `k` gets the horizon `t₁ + L`; shard `k`
//!    gets `min(t₂, t₁ + L) + L`. A deadline caps every horizon; a lone
//!    shard has no peer to wait for and is bounded by the deadline only.
//! 2. Shards process their events with `time < H_i` in `(time, seq)`
//!    order, shard by shard in index order; intra-shard sends enqueue
//!    locally, cross-shard sends are buffered.
//! 3. At the barrier, buffered messages are exchanged in shard order, each
//!    shard's in production order (deterministic), and the next round
//!    begins.
//!
//! Safety: no event anywhere happens before `t₁`, and a new event is never
//! earlier than its cause, so every message a shard receives — this round
//! or later — arrives at `t₁ + L` or after. Any event shard `j` will ever
//! execute is therefore no earlier than `t₁` for `j = k`, and no earlier
//! than `min(t₂, t₁ + L)` for every other `j` (its own pending events are
//! at `t₂` or later). A message to shard `i` leaves some `j ≠ i` and takes
//! at least `L`: for `i ≠ k` it arrives at `t₁ + L` or later, for `i = k`
//! at `min(t₂, t₁ + L) + L` or later — exactly the horizons, so no shard
//! ever receives a message inside the window it ran. Progress: `k`'s
//! horizon is at least `t₁ + L > t₁`, and a deadline caps it no lower than
//! one nanosecond past `t₁` (the run stops once `t₁` passes the deadline),
//! so every round processes at least one event. The closed form is the
//! channel-clock closure over a uniform lookahead; the test module keeps
//! that closure as its reference model.
//!
//! The lookahead comes from the fabric: every inter-node delay is at least
//! the remote one-way latency minus the jitter floor (see
//! `NetParams::conservative_lookahead` in `fractos-net`). The engine asserts
//! the bound on every cross-shard message at the barrier, so a violating
//! workload fails loudly instead of simulating nonsense.
//!
//! Determinism: for a fixed seed and shard layout the engine is
//! deterministic — each shard owns a forked RNG stream and processes its
//! events in a total order, and the barrier exchange is ordered by shard
//! index. Horizons decide how far a shard runs, never the order inside it,
//! and a round runs its shards in index order, so substrate state they
//! share sees its updates in one fixed order.
//! Event *interleavings across shards* differ from the single-threaded
//! engine, so order-sensitive observables (latency samples, link-schedule
//! reservations) may differ between backends; order-free observables
//! (per-link message/byte counters, end-to-end payloads) match. The
//! cross-backend equivalence suite pins exactly that contract.

use crate::engine::{Actor, ActorId, Msg, NodeOutage, RunOutcome, TraceEntry};
use crate::metrics::Metrics;
use crate::rng::SimRng;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::shard::{self, Shard};
use crate::span::SpanRecord;
use crate::telemetry::TelemetryEvent;
use crate::time::{SimDuration, SimTime};

/// Where a global actor lives.
#[derive(Clone, Copy)]
struct Loc {
    shard: u32,
    local: u32,
}

/// The `route` of shard `me`: local slot for its own actors, `None` for a
/// peer's (the send crosses the barrier).
fn route(locs: &[Loc], me: usize) -> impl Fn(ActorId) -> Option<u32> + '_ {
    move |dst| {
        let loc = locs
            .get(dst.index())
            .unwrap_or_else(|| panic!("send to unregistered {dst}"));
        (loc.shard as usize == me).then_some(loc.local)
    }
}

/// One round's exclusive horizons (`None` is unbounded): shard `first`,
/// which holds the earliest pending event, runs to `own`, every other shard
/// to `rest`.
#[derive(Clone, Copy)]
struct Horizons {
    /// The earliest pending event on any shard.
    earliest: SimTime,
    first: usize,
    own: Option<SimTime>,
    rest: Option<SimTime>,
}

impl Horizons {
    fn of(&self, shard: usize) -> Option<SimTime> {
        if shard == self.first {
            self.own
        } else {
            self.rest
        }
    }
}

/// The closed-form horizons of one round (see the [module docs](self))
/// from each shard's earliest pending event, `None` for an idle shard.
/// Returns `None` when every shard is idle.
fn horizons(
    nexts: impl Iterator<Item = Option<SimTime>>,
    la: SimDuration,
    deadline: Option<SimTime>,
) -> Option<Horizons> {
    let mut shards = 0;
    let mut first: Option<(usize, SimTime)> = None;
    let mut second: Option<SimTime> = None;
    for (i, next) in nexts.enumerate() {
        shards += 1;
        let Some(t) = next else { continue };
        match first {
            Some((_, t1)) if t >= t1 => second = Some(second.map_or(t, |t2| t2.min(t))),
            _ => {
                second = first.map(|(_, t1)| t1);
                first = Some((i, t));
            }
        }
    }
    let (first, earliest) = first?;
    // The horizon is exclusive; an inclusive deadline caps it one
    // nanosecond past.
    let cap = deadline.and_then(shard::horizon_after);
    let capped = |h: SimTime| Some(cap.map_or(h, |c| c.min(h)));
    let rest = earliest.saturating_add(la);
    let own = second.map_or(rest, |t2| t2.min(rest)).saturating_add(la);
    // A lone shard has no peer to wait for.
    let (own, rest) = if shards > 1 {
        (capped(own), capped(rest))
    } else {
        (cap, cap)
    };
    Some(Horizons {
        earliest,
        first,
        own,
        rest,
    })
}

/// The sharded simulation engine.
///
/// See the [module docs](self) for the synchronization scheme. Constructed
/// through [`RuntimeConfig`] (usually via
/// [`build_runtime`](crate::runtime::build_runtime)); actors are placed on
/// shards by the `node` argument of
/// [`Runtime::add_actor_on`].
pub struct ShardedSim {
    shards: Vec<Shard>,
    locs: Vec<Loc>,
    names: Vec<String>,
    /// Lower bound on the delay of any cross-shard message.
    la: SimDuration,
    /// Accumulated metrics: per-shard registries merged after every run,
    /// plus anything the harness records between runs.
    metrics: Metrics,
    now: SimTime,
    steps: u64,
}

impl ShardedSim {
    /// Builds an engine with one shard per node, synchronized by
    /// [`RuntimeConfig::lookahead`].
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero or the lookahead is zero (a
    /// conservative engine cannot make progress without positive
    /// lookahead).
    pub fn new(config: &RuntimeConfig) -> Self {
        assert!(config.nodes > 0, "sharded runtime needs at least one node");
        assert!(
            config.lookahead > SimDuration::ZERO,
            "sharded runtime needs a positive lookahead window"
        );
        let mut root = SimRng::new(config.seed);
        let shards = (0..config.nodes)
            .map(|_| Shard::new(config.seed, root.fork()))
            .collect::<Vec<_>>();
        ShardedSim {
            shards,
            locs: Vec::new(),
            names: Vec::new(),
            la: config.lookahead,
            metrics: Metrics::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "actor count bounded by u32 id space by construction"
    )]
    fn register(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        assert!(
            node < self.shards.len(),
            "node {node} out of range for {} shards",
            self.shards.len()
        );
        let id = ActorId::from_raw(u32::try_from(self.locs.len()).expect("too many actors"));
        let local = self.shards[node].add_actor(node, actor);
        self.locs.push(Loc {
            shard: node as u32,
            local,
        });
        self.names.push(name.to_string());
        id
    }

    /// Drives synchronization rounds until drained, stopped, out of
    /// budget, or past the deadline.
    fn run_rounds(&mut self, max_steps: u64, deadline: Option<SimTime>) -> RunOutcome {
        for s in &mut self.shards {
            s.stop = false;
            s.processed = 0;
        }
        // The round counters (`runtime.sharded.*`, metrics, not telemetry
        // points) are kept only while telemetry is on, so a plain run
        // touches no counter per round.
        let count_rounds = self.telemetry_period().is_some();
        let start_steps = self.steps;
        let outcome = loop {
            let nexts = self.shards.iter().map(Shard::next_event_time);
            let Some(horizons) = horizons(nexts, self.la, deadline) else {
                break RunOutcome::Drained;
            };
            if deadline.is_some_and(|d| horizons.earliest > d) {
                break RunOutcome::LimitReached;
            }
            let done = self.steps.saturating_sub(start_steps);
            if done >= max_steps {
                break RunOutcome::LimitReached;
            }
            let budget = max_steps - done;
            if count_rounds {
                self.metrics.incr("runtime.sharded.rounds");
            }

            for (i, shard) in self.shards.iter_mut().enumerate() {
                shard.run_window(horizons.of(i), budget, route(&self.locs, i));
            }
            self.exchange(count_rounds);
            if self.shards.iter().any(|s| s.stop) {
                break RunOutcome::Stopped;
            }
        };
        let mut merged = Metrics::new();
        for s in &mut self.shards {
            merged.merge_from(&std::mem::take(&mut s.metrics));
        }
        self.metrics.merge_from(&merged);
        outcome
    }

    /// The barrier: folds each shard's round into the engine clock and
    /// step count, then delivers its buffered cross-shard messages —
    /// shards in index order, each shard's sends in production order.
    /// Each message is checked against the lookahead, which together with
    /// the horizons guarantees it lands at or past its receiver's
    /// processed window.
    fn exchange(&mut self, count_rounds: bool) {
        let mut stalled = 0u64;
        let mut crossed = 0u64;
        for j in 0..self.shards.len() {
            let s = &mut self.shards[j];
            self.now = self.now.max(s.now);
            self.steps += s.processed;
            // A shard that processed nothing this round spent the whole
            // window blocked on the barrier.
            if s.processed == 0 {
                stalled += 1;
            }
            s.processed = 0;
            let mut cross = std::mem::take(&mut s.cross);
            crossed += cross.len() as u64;
            for (sent, time, dst, msg) in cross.drain(..) {
                let loc = self.locs[dst.index()];
                assert!(
                    time >= sent.saturating_add(self.la),
                    "lookahead violation: cross-shard message for {dst} at {time} \
                     sent at {sent} undercuts the lookahead ({la}) from shard {j} \
                     to shard {peer} — the configured lookahead is not a lower \
                     bound on cross-node delay",
                    la = self.la,
                    peer = loc.shard,
                );
                self.shards[loc.shard as usize].push(time, loc.local, dst, msg);
            }
            // Hand the emptied buffer back so its capacity is reused.
            self.shards[j].cross = cross;
        }
        if count_rounds {
            self.metrics
                .add("runtime.sharded.stalled_shard_rounds", stalled);
            self.metrics.add("runtime.sharded.cross_msgs", crossed);
        }
    }
}

impl Runtime for ShardedSim {
    fn add_actor(&mut self, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.register(0, name, actor)
    }

    fn add_actor_on(&mut self, node: usize, name: &str, actor: Box<dyn Actor>) -> ActorId {
        self.register(node, name, actor)
    }

    fn post_boxed(&mut self, delay: SimDuration, dst: ActorId, msg: Msg) {
        let loc = *self
            .locs
            .get(dst.index())
            .unwrap_or_else(|| panic!("post to unregistered {dst}"));
        let time = self.now.saturating_add(delay);
        self.shards[loc.shard as usize].push(time, loc.local, dst, msg);
    }

    fn run(&mut self) -> RunOutcome {
        self.run_rounds(u64::MAX, None)
    }

    fn run_with_limit(&mut self, max_steps: u64) -> RunOutcome {
        self.run_rounds(max_steps, None)
    }

    fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_rounds(u64::MAX, Some(deadline))
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn pending(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn actor_name(&self, id: ActorId) -> &str {
        &self.names[id.index()]
    }

    fn actor_count(&self) -> usize {
        self.locs.len()
    }

    fn enable_trace(&mut self) {
        shard::enable_trace(&mut self.shards);
    }

    fn take_trace(&mut self) -> Vec<TraceEntry> {
        shard::take_trace(&mut self.shards)
    }

    fn enable_spans(&mut self) {
        shard::enable_spans(&mut self.shards);
    }

    fn take_spans(&mut self) -> Vec<SpanRecord> {
        shard::take_spans(&mut self.shards)
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        shard::enable_telemetry(&mut self.shards, period);
    }

    fn telemetry_period(&self) -> Option<SimDuration> {
        self.shards[0].telemetry_period()
    }

    fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        shard::take_telemetry(&mut self.shards)
    }

    fn with_actor_any(&mut self, id: ActorId, f: &mut dyn FnMut(&mut dyn std::any::Any)) {
        let loc = self.locs[id.index()];
        f(self.shards[loc.shard as usize].actor_any(loc.local, id));
    }

    fn set_node_outages(&mut self, outages: Vec<NodeOutage>) {
        // Each shard keeps only its own node's windows, so a crash on one
        // node costs the other shards nothing per event.
        for (node, s) in self.shards.iter_mut().enumerate() {
            s.outages = outages.iter().filter(|o| o.node == node).copied().collect();
        }
    }

    fn backend_name(&self) -> &'static str {
        "sharded"
    }
}

impl std::fmt::Debug for ShardedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("shards", &self.shards.len())
            .field("now", &self.now)
            .field("actors", &self.locs.len())
            .field("pending", &self.pending())
            .field("steps", &self.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;
    use crate::runtime::RuntimeExt;

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(2);

    /// Sends `remaining` pings to a peer with at-least-lookahead delay.
    struct Pinger {
        peer: Option<ActorId>,
        received: Vec<(SimTime, u32)>,
    }

    impl Actor for Pinger {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let v = *msg.downcast::<u32>().expect("u32 ping");
            self.received.push((ctx.now(), v));
            if let (Some(peer), true) = (self.peer, v > 0) {
                ctx.send_after(LOOKAHEAD, peer, v - 1);
            }
        }
    }

    fn pinger() -> Box<Pinger> {
        Box::new(Pinger {
            peer: None,
            received: Vec::new(),
        })
    }

    #[test]
    fn same_seed_same_behavior() {
        let run = || {
            let mut rt = ShardedSim::new(&RuntimeConfig::new(99, 3, LOOKAHEAD));
            let ids: Vec<_> = (0..3).map(|n| rt.add_actor_on(n, "p", pinger())).collect();
            for (i, id) in ids.iter().enumerate() {
                let peer = ids[(i + 1) % ids.len()];
                rt.with_actor::<Pinger, _>(*id, |p| p.peer = Some(peer));
            }
            rt.post(SimDuration::ZERO, ids[0], 20u32);
            rt.run();
            let mut log = Vec::new();
            for id in ids {
                rt.with_actor::<Pinger, _>(id, |p| log.push(p.received.clone()));
            }
            (rt.steps(), rt.now(), log)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undelayed_cross_shard_send_is_rejected() {
        struct Rogue {
            peer: ActorId,
        }
        impl Actor for Rogue {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                let peer = self.peer;
                ctx.send_now(peer, 0u32);
            }
        }
        let mut rt = ShardedSim::new(&RuntimeConfig::new(5, 2, LOOKAHEAD));
        let sink = rt.add_actor_on(1, "sink", pinger());
        let rogue = rt.add_actor_on(0, "rogue", Box::new(Rogue { peer: sink }));
        rt.post(SimDuration::ZERO, rogue, 0u32);
        rt.run();
    }

    #[test]
    fn metrics_merge_across_shards() {
        struct Counting;
        impl Actor for Counting {
            fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.metrics().incr("hits");
            }
        }
        let mut rt = ShardedSim::new(&RuntimeConfig::new(5, 2, LOOKAHEAD));
        let a = rt.add_actor_on(0, "a", Box::new(Counting));
        let b = rt.add_actor_on(1, "b", Box::new(Counting));
        rt.post(SimDuration::ZERO, a, 0u32);
        rt.post(SimDuration::ZERO, b, 0u32);
        rt.run();
        assert_eq!(rt.metrics().counter("hits"), 2);
    }

    /// The reference model: the channel-clock closure over the uniform
    /// lookahead graph, `ready_j = min(next_j, min over k ≠ j of
    /// ready_k + la)` by Bellman–Ford relaxation, then
    /// `H_i = min over j ≠ i of ready_j + la`, capped by the deadline.
    fn reference_horizons(
        nexts: &[Option<SimTime>],
        la: SimDuration,
        deadline: Option<SimTime>,
    ) -> Vec<Option<SimTime>> {
        let n = nexts.len();
        let mut ready: Vec<Option<SimTime>> = nexts.to_vec();
        for _ in 1..n {
            let mut changed = false;
            for j in 0..n {
                let Some(rj) = ready[j] else { continue };
                let reach = rj.saturating_add(la);
                for (i, ri) in ready.iter_mut().enumerate() {
                    if i != j && ri.is_none_or(|ri| reach < ri) {
                        *ri = Some(reach);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (0..n)
            .map(|i| {
                let mut bound = deadline.and_then(shard::horizon_after);
                for (j, r) in ready.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if let Some(r) = r {
                        let reach = r.saturating_add(la);
                        bound = Some(bound.map_or(reach, |b| b.min(reach)));
                    }
                }
                bound
            })
            .collect()
    }

    /// Seeded rounds with idle shards, ties at the earliest time, sums that
    /// saturate at the end of the timeline, and no deadline, the end of the
    /// timeline or a random one.
    #[test]
    fn closed_form_horizons_match_the_bellman_ford_closure() {
        let end = SimTime::from_nanos(u64::MAX);
        let mut rng = SimRng::new(24);
        for n in [1, 2, 3, 4, 7, 64] {
            for _ in 0..2_000 {
                let la = SimDuration::from_nanos(1 + rng.gen_range(3_000));
                // Near the end of the timeline the sums saturate.
                let base = if rng.gen_bool(0.1) {
                    u64::MAX - rng.gen_range(10_000)
                } else {
                    rng.gen_range(1 << 40)
                };
                let spread = 1 + rng.gen_range(4 * la.as_nanos());
                let at = |rng: &mut SimRng| {
                    SimTime::from_nanos(base.saturating_add(rng.gen_range(spread)))
                };
                let mut nexts: Vec<Option<SimTime>> = (0..n)
                    .map(|_| (!rng.gen_bool(0.4)).then(|| at(&mut rng)))
                    .collect();
                if n > 1 && rng.gen_bool(0.3) {
                    // Two shards share the earliest pending time.
                    let a = rng.gen_range(n as u64) as usize;
                    let b = (a + 1 + rng.gen_range(n as u64 - 1) as usize) % n;
                    let t = nexts.iter().flatten().min().copied();
                    let t = t.unwrap_or_else(|| at(&mut rng));
                    nexts[a] = Some(t);
                    nexts[b] = Some(t);
                }
                let deadline = match rng.gen_range(4) {
                    0 => None,
                    1 => Some(end),
                    _ => Some(at(&mut rng)),
                };
                let want = reference_horizons(&nexts, la, deadline);
                let Some(got) = horizons(nexts.iter().copied(), la, deadline) else {
                    assert!(nexts.iter().all(Option::is_none), "{nexts:?}");
                    continue;
                };
                assert_eq!(Some(got.earliest), nexts.iter().flatten().min().copied());
                for (i, want) in want.into_iter().enumerate() {
                    assert_eq!(
                        got.of(i),
                        want,
                        "shard {i} of {n}: nexts {nexts:?}, la {la}, deadline {deadline:?}"
                    );
                }
            }
        }
    }
}
