//! The driver contract: what every [`Runtime`] driver must do, stated once
//! and run over all of them through `&mut dyn Runtime`.
//!
//! Both drivers deliver events with the same loop, so per-shard behaviour
//! agrees by construction; this suite pins the behaviour itself (a change
//! to the loop shows here on every driver at once) and the part the
//! drivers do differently: turning one or many windows into a
//! [`RunOutcome`], a clock and a step count.

use fractos_sim::{
    Actor, ActorId, Ctx, Msg, NodeOutage, RunOutcome, Runtime, RuntimeConfig, RuntimeExt,
    ShardedSim, Sim, SimDuration, SimTime, TelemetryKind,
};

/// Strict lower bound on every cross-node delay in these workloads.
const LOOKAHEAD: SimDuration = SimDuration::from_micros(2);

/// Every driver under contract, with the number of nodes a workload may
/// place actors on (`Sim` accepts any node; two keeps the placements of
/// the two-node sharded driver).
fn drivers(seed: u64) -> Vec<(&'static str, usize, Box<dyn Runtime>)> {
    let sharded = |nodes| {
        let config = RuntimeConfig::new(seed, nodes, LOOKAHEAD);
        Box::new(ShardedSim::new(&config)) as Box<dyn Runtime>
    };
    vec![
        ("Sim", 2, Box::new(Sim::new(seed))),
        ("ShardedSim 1 node", 1, sharded(1)),
        ("ShardedSim 2 nodes", 2, sharded(2)),
    ]
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn at_us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

/// Records every `u32` it receives; forwards `v - 1` to `peer` after
/// [`LOOKAHEAD`] while `v > 0`; traces every delivery.
#[derive(Default)]
struct Pinger {
    peer: Option<ActorId>,
    received: Vec<(SimTime, u32)>,
}

impl Actor for Pinger {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let v = *msg.downcast::<u32>().expect("u32 ping");
        self.received.push((ctx.now(), v));
        ctx.trace(format!("got {v}"));
        if let (Some(peer), true) = (self.peer, v > 0) {
            ctx.send_after(LOOKAHEAD, peer, v - 1);
        }
    }
}

struct Stopper;
impl Actor for Stopper {
    fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
        ctx.stop();
    }
}

fn pinger_on(rt: &mut dyn Runtime, node: usize, name: &str) -> ActorId {
    rt.add_actor_on(node, name, Box::<Pinger>::default())
}

fn values(rt: &mut dyn Runtime, id: ActorId) -> Vec<u32> {
    rt.with_actor::<Pinger, _>(id, |p| p.received.iter().map(|&(_, v)| v).collect())
}

/// Two pingers on the first and last node, each other's peer.
fn pair(rt: &mut dyn Runtime, nodes: usize) -> (ActorId, ActorId) {
    let a = pinger_on(rt, 0, "a");
    let b = pinger_on(rt, nodes - 1, "b");
    rt.with_actor::<Pinger, _>(a, |p| p.peer = Some(b));
    rt.with_actor::<Pinger, _>(b, |p| p.peer = Some(a));
    (a, b)
}

/// The rows: one behaviour each, checked on whichever driver it is handed.
mod rows {
    use super::*;

    pub fn fifo_at_equal_time(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("a", Box::<Pinger>::default());
        for v in [1u32, 2, 3] {
            rt.post(SimDuration::ZERO, a, v);
        }
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(values(rt, a), [1, 2, 3]);
    }

    pub fn time_order_and_clock(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("a", Box::<Pinger>::default());
        for t in [5u64, 1, 3] {
            rt.post(us(t), a, t as u32);
        }
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(values(rt, a), [1, 3, 5]);
        assert_eq!(rt.now(), at_us(5));
    }

    pub fn ping_pong_drains(rt: &mut dyn Runtime, nodes: usize) {
        let (a, b) = pair(rt, nodes);
        rt.post(SimDuration::ZERO, a, 10u32);
        assert_eq!(rt.run(), RunOutcome::Drained);
        // 10 decrements → 11 deliveries, one lookahead apart.
        assert_eq!(rt.steps(), 11);
        assert_eq!(rt.now(), at_us(20));
        assert_eq!(rt.pending(), 0);
        assert_eq!(values(rt, a), [10, 8, 6, 4, 2, 0]);
        assert_eq!(values(rt, b), [9, 7, 5, 3, 1]);
    }

    pub fn run_until_respects_deadline(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("a", Box::<Pinger>::default());
        rt.post(us(1), a, 0u32);
        rt.post(us(50), a, 0u32); // exactly the deadline: still delivered
        rt.post(us(100), a, 0u32);
        assert_eq!(rt.run_until(at_us(50)), RunOutcome::LimitReached);
        assert_eq!(rt.pending(), 1);
        assert_eq!(rt.steps(), 2);
        assert_eq!(rt.run_until(at_us(100)), RunOutcome::Drained);
        assert_eq!(rt.steps(), 3);
    }

    pub fn run_with_limit_counts_events(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("a", Box::<Pinger>::default());
        for t in 1..=3 {
            rt.post(us(t), a, 0u32);
        }
        assert_eq!(rt.run_with_limit(2), RunOutcome::LimitReached);
        assert_eq!((rt.steps(), rt.pending()), (2, 1));
        assert_eq!(rt.run_with_limit(1), RunOutcome::Drained);
        assert_eq!(rt.run_with_limit(0), RunOutcome::Drained);
    }

    pub fn stop_halts_after_the_current_event(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("stop", Box::new(Stopper));
        rt.post(SimDuration::ZERO, a, 0u32);
        rt.post(us(1), a, 0u32);
        assert_eq!(rt.run(), RunOutcome::Stopped);
        assert_eq!(rt.pending(), 1);
        // The flag is per run: the next run delivers the next event.
        assert_eq!(rt.run(), RunOutcome::Stopped);
        assert_eq!(rt.pending(), 0);
    }

    /// Drift fixed by the one loop: a stop raised by the last budgeted event
    /// used to be reported as `LimitReached` by `Sim` only.
    pub fn stop_on_the_last_budgeted_event_is_stopped(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("stop", Box::new(Stopper));
        rt.post(SimDuration::ZERO, a, 0u32);
        rt.post(us(1), a, 0u32);
        assert_eq!(rt.run_with_limit(1), RunOutcome::Stopped);
        assert_eq!(rt.pending(), 1);
    }

    pub fn trace_records_labels(rt: &mut dyn Runtime, _nodes: usize) {
        rt.enable_trace();
        let a = rt.add_actor("t", Box::<Pinger>::default());
        rt.post(us(2), a, 0u32);
        rt.run();
        let trace = rt.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].label, "got 0");
        assert_eq!(trace[0].time, at_us(2));
        assert_eq!(trace[0].actor, a);
        // Taking leaves recording on and the buffer empty.
        rt.post(us(1), a, 0u32);
        rt.run();
        assert_eq!(rt.take_trace().len(), 1);
    }

    /// Drift fixed by the shared take: on `Sim`, a take used to switch
    /// recording on.
    pub fn take_trace_without_enable_stays_off(rt: &mut dyn Runtime, _nodes: usize) {
        let a = rt.add_actor("t", Box::<Pinger>::default());
        assert!(rt.take_trace().is_empty());
        rt.post(us(1), a, 0u32);
        rt.run();
        assert!(rt.take_trace().is_empty());
        assert!(rt.take_spans().is_empty());
        assert!(rt.take_telemetry().is_empty());
    }

    /// Engine self-profiling: with telemetry on, every shard reports its
    /// queue depth and event count under its own prefix — `runtime.single`
    /// on `Sim`, `runtime.shard{i}` on `ShardedSim` — and nothing else
    /// lives under `runtime.`.
    pub fn self_profiling_series_carry_the_driver_prefix(rt: &mut dyn Runtime, nodes: usize) {
        rt.enable_telemetry(us(4));
        let (a, _) = pair(rt, nodes);
        rt.post(SimDuration::ZERO, a, 10u32);
        rt.run();
        let prefixes: Vec<String> = match rt.backend_name() {
            "single" => vec!["runtime.single".into()],
            _ => (0..nodes).map(|i| format!("runtime.shard{i}")).collect(),
        };
        let expected: Vec<String> = prefixes
            .iter()
            .flat_map(|p| ["events", "queue.depth"].map(|s| format!("{p}.{s}")))
            .collect();
        let events = rt.take_telemetry();
        let mut seen: Vec<&str> = events.iter().map(|e| e.series.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, expected);
        // A delivery is counted in one window of one shard; the windows
        // still open when the run ends are not flushed.
        let counted: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                TelemetryKind::Count(n) => Some(n),
                _ => None,
            })
            .sum();
        assert!(0 < counted && counted <= rt.steps(), "{counted}");
    }

    pub fn node_outage_window_is_open_at_both_ends(rt: &mut dyn Runtime, nodes: usize) {
        let victim = nodes - 1;
        let b = pinger_on(rt, victim, "b");
        rt.set_node_outages(vec![NodeOutage {
            node: victim,
            down: at_us(10),
            up: Some(at_us(20)),
        }]);
        rt.post(us(5), b, 0u32); // before: delivered
        rt.post(us(10), b, 1u32); // exactly `down`: delivered
        rt.post(us(15), b, 2u32); // interior: dropped
        rt.post(us(20), b, 3u32); // exactly `up`: delivered
        rt.post(us(25), b, 4u32); // after: delivered
        let mut posted = 5;
        // An actor on another node is untouched by the window.
        let bystander = (nodes > 1).then(|| pinger_on(rt, 0, "a"));
        if let Some(a) = bystander {
            rt.post(us(15), a, 9u32);
            posted += 1;
        }
        assert_eq!(rt.run(), RunOutcome::Drained);
        assert_eq!(values(rt, b), [0, 1, 3, 4]);
        if let Some(a) = bystander {
            assert_eq!(values(rt, a), [9]);
        }
        // The dropped event still advanced time and counted as a step.
        assert_eq!(rt.steps(), posted);
        assert_eq!(rt.now(), at_us(25));
        assert_eq!(rt.metrics().counter("engine.outage_drops"), 1);
    }

    pub fn node_outage_scopes_to_the_named_node(rt: &mut dyn Runtime, _nodes: usize) {
        let a = pinger_on(rt, 0, "a");
        rt.set_node_outages(vec![NodeOutage {
            node: 2,
            down: SimTime::ZERO,
            up: None,
        }]);
        rt.post(us(5), a, 7u32);
        rt.run();
        assert_eq!(values(rt, a), [7]);
        assert_eq!(rt.metrics().counter("engine.outage_drops"), 0);
    }

    pub fn crash_stop_outage_never_lifts(rt: &mut dyn Runtime, nodes: usize) {
        let victim = nodes - 1;
        let b = pinger_on(rt, victim, "b");
        rt.set_node_outages(vec![NodeOutage {
            node: victim,
            down: at_us(1),
            up: None,
        }]);
        rt.post(SimDuration::from_secs(10), b, 1u32);
        rt.run();
        assert!(values(rt, b).is_empty());
        assert_eq!(rt.metrics().counter("engine.outage_drops"), 1);
    }
}

/// One `#[test]` per row, run on a fresh instance of every driver.
macro_rules! contract {
    ($($row:ident)*) => {$(
        #[test]
        fn $row() {
            for (driver, nodes, mut rt) in drivers(5) {
                // Shown with the panic when the row fails.
                eprintln!("on {driver}");
                rows::$row(rt.as_mut(), nodes);
            }
        }
    )*};
}

contract! {
    fifo_at_equal_time
    time_order_and_clock
    ping_pong_drains
    run_until_respects_deadline
    run_with_limit_counts_events
    stop_halts_after_the_current_event
    stop_on_the_last_budgeted_event_is_stopped
    trace_records_labels
    take_trace_without_enable_stays_off
    self_profiling_series_carry_the_driver_prefix
    node_outage_window_is_open_at_both_ends
    node_outage_scopes_to_the_named_node
    crash_stop_outage_never_lifts
}

#[test]
fn post_to_an_unregistered_actor_panics_on_every_driver() {
    for (driver, _, mut rt) in drivers(5) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.post(SimDuration::ZERO, ActorId::from_raw(7), 0u32);
        }));
        let payload = caught.expect_err("post to a fabricated id must panic");
        let text = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(text.contains("unregistered"), "{driver}: {text}");
    }
}

/// A `ShardedSim` with one node *is* a `Sim`: given the same RNG-free
/// token ring they agree on the trace, the step count and the clock (the
/// RNG streams differ by the per-shard fork, so the workload draws none).
#[test]
fn one_node_sharded_equals_sim_on_a_token_ring() {
    let observe = |rt: &mut dyn Runtime| {
        rt.enable_trace();
        let ids: Vec<ActorId> = (0..4).map(|i| pinger_on(rt, 0, &format!("p{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % ids.len()];
            rt.with_actor::<Pinger, _>(id, |p| p.peer = Some(next));
        }
        rt.post(SimDuration::ZERO, ids[0], 25u32);
        rt.post(us(1), ids[2], 14u32);
        assert_eq!(rt.run(), RunOutcome::Drained);
        (rt.take_trace(), rt.steps(), rt.now())
    };
    let expected = observe(&mut Sim::new(9));
    assert_eq!(expected.1, 26 + 15);
    let one_node = RuntimeConfig::new(9, 1, LOOKAHEAD);
    assert_eq!(observe(&mut ShardedSim::new(&one_node)), expected);
}
