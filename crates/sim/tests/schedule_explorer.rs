//! Bounded schedule explorer for the sharded barrier (DPOR-lite).
//!
//! The sharded backend's correctness argument is that the conservative
//! closed-form horizons over one lookahead make the shard executions of
//! one round *commute*: cross-shard messages only
//! move at the barrier, so any interleaving of a round's shards yields
//! the same behavior. This harness checks that argument exhaustively on
//! tiny topologies instead of trusting the few schedules the OS happens
//! to produce: it drives [`ShardedSim::run_scheduled`] through **every**
//! permutation of every round's active shards and asserts each schedule's
//! trace is byte-identical to the single-threaded engine's.
//!
//! DPOR-lite pruning: rounds with zero or one active shard have nothing
//! to reorder (an idle shard's window is empty, so it commutes with
//! everything) and contribute no branching; only rounds with ≥ 2 active
//! shards are permuted. The round structure itself is learned from an
//! identity-schedule run and re-asserted on every explored schedule, so
//! a schedule-dependent round structure would fail loudly rather than
//! escape enumeration.

use fractos_sim::{
    build_runtime, Actor, ActorId, Ctx, Msg, Runtime, RuntimeConfig, RuntimeExt, RuntimeKind,
    ShardedSim, SimDuration,
};

/// Strict lower bound on every cross-node delay in these workloads.
const LOOKAHEAD: SimDuration = SimDuration::from_nanos(1_000);
/// Per-hop forwarding delay; must be ≥ [`LOOKAHEAD`] on cross-node hops.
const HOP: SimDuration = SimDuration::from_nanos(2_000);
/// Exhaustiveness guard: a workload whose schedule space outgrows this is
/// a harness bug (too many rounds/active shards), not something to
/// silently sample.
const MAX_SCHEDULES: u64 = 10_000;

/// A token carrying its remaining hop count.
struct Hop(u64);

/// Forwards [`Hop`] tokens to `next` after [`HOP`], tracing every hop.
struct Forwarder {
    tag: &'static str,
    next: Option<ActorId>,
}

impl Forwarder {
    fn new(tag: &'static str) -> Self {
        Forwarder { tag, next: None }
    }
}

impl Actor for Forwarder {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let hop = msg.downcast::<Hop>().expect("forwarders only carry Hop");
        ctx.trace(format!("{} hop {}", self.tag, hop.0));
        if hop.0 > 0 {
            let next = self.next.expect("ring linked before start");
            ctx.send_after(HOP, next, Hop(hop.0 - 1));
        }
    }
}

/// Registers a `tag`-labelled ring of forwarders on `nodes` (one actor
/// per entry, entry `i` forwarding to entry `i + 1`) and starts a token
/// with `hops` hops at the first one.
fn ring(rt: &mut dyn Runtime, tag: &'static str, nodes: &[usize], hops: u64) {
    let ids: Vec<ActorId> = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| rt.add_actor_on(n, &format!("{tag}{i}"), Box::new(Forwarder::new(tag))))
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let next = ids[(i + 1) % ids.len()];
        rt.with_actor::<Forwarder, _>(id, |f| f.next = Some(next));
    }
    rt.post(SimDuration::ZERO, ids[0], Hop(hops));
}

/// Two nodes, two two-actor rings running in opposite directions — both
/// shards are active every round, so every round branches.
fn crossfire(rt: &mut dyn Runtime) {
    ring(rt, "east", &[0, 1], 8);
    ring(rt, "west", &[1, 0], 8);
}

/// Three nodes, three tokens circling the same ring from staggered
/// starts — all three shards are active every round.
fn triple_ring(rt: &mut dyn Runtime) {
    ring(rt, "t0", &[0, 1, 2], 4);
    ring(rt, "t1", &[1, 2, 0], 4);
    ring(rt, "t2", &[2, 0, 1], 4);
}

/// Canonical rendering of a trace: sorted into the cross-backend
/// `(time, actor, label)` order, one line per entry. Byte-equal strings
/// ⇔ identical traces.
fn canon(mut trace: Vec<fractos_sim::TraceEntry>) -> String {
    trace.sort_by(|a, b| (a.time, a.actor, &a.label).cmp(&(b.time, b.actor, &b.label)));
    let mut out = String::new();
    for e in trace {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// The `k`-th permutation of `items` in lexicographic order (Lehmer
/// decode); `k < items.len()!`.
fn nth_permutation(items: &[usize], mut k: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = items.to_vec();
    let mut out = Vec::with_capacity(pool.len());
    for i in (0..pool.len()).rev() {
        let f = factorial(i);
        out.push(pool.remove((k / f) as usize));
        k %= f;
    }
    out
}

/// One sharded run under the schedule that assigns permutation index
/// `digit(round)` to each round; returns the canonical trace and the
/// per-round active-shard log.
fn run_sharded(
    config: &RuntimeConfig,
    build: fn(&mut dyn Runtime),
    digit: &dyn Fn(u64) -> u64,
) -> (String, Vec<Vec<usize>>) {
    let mut sim = ShardedSim::new(config);
    sim.enable_trace();
    build(&mut sim);
    let mut pick = |round: u64, active: &[usize]| {
        nth_permutation(active, digit(round) % factorial(active.len()))
    };
    let (outcome, log) = sim.run_scheduled(&mut pick);
    assert_eq!(outcome, fractos_sim::RunOutcome::Drained);
    (canon(sim.take_trace()), log)
}

/// Exhaustively explores every schedule of `build` on `nodes` nodes and
/// asserts all of them reproduce the single-threaded engine's trace.
fn explore(nodes: usize, build: fn(&mut dyn Runtime)) {
    let config = RuntimeConfig::new(61, nodes, LOOKAHEAD);

    let mut single = build_runtime(RuntimeKind::SingleThreaded, &config);
    single.enable_trace();
    build(single.as_mut());
    assert_eq!(single.run(), fractos_sim::RunOutcome::Drained);
    let want = canon(single.take_trace());
    assert!(!want.is_empty(), "workload must trace something");

    // Identity schedule: learn the round structure.
    let (base_trace, base_log) = run_sharded(&config, build, &|_| 0);
    assert_eq!(
        base_trace, want,
        "identity schedule diverges from the single-threaded engine"
    );

    // Rounds with ≥ 2 active shards are the only branch points.
    let branchy: Vec<(usize, u64)> = base_log
        .iter()
        .enumerate()
        .filter(|(_, active)| active.len() > 1)
        .map(|(r, active)| (r, factorial(active.len())))
        .collect();
    assert!(
        !branchy.is_empty(),
        "workload never has two active shards in a round; nothing explored"
    );
    let total: u64 = branchy.iter().map(|&(_, f)| f).product();
    assert!(
        total <= MAX_SCHEDULES,
        "schedule space too large for exhaustive exploration: {total}"
    );

    // Mixed-radix odometer over the branchy rounds (index 0 was the
    // identity run above).
    for k in 1..total {
        let mut rem = k;
        let mut digits = vec![0u64; base_log.len()];
        for &(r, f) in &branchy {
            digits[r] = rem % f;
            rem /= f;
        }
        let (trace, log) = run_sharded(&config, build, &|round| {
            digits.get(round as usize).copied().unwrap_or(0)
        });
        assert_eq!(
            log, base_log,
            "schedule {k}/{total}: round structure depends on the schedule"
        );
        assert_eq!(
            trace, want,
            "schedule {k}/{total}: trace diverges from the single-threaded engine"
        );
    }
}

#[test]
fn crossfire_two_nodes_all_schedules_match_single_threaded() {
    explore(2, crossfire);
}

#[test]
fn triple_ring_three_nodes_all_schedules_match_single_threaded() {
    explore(3, triple_ring);
}
