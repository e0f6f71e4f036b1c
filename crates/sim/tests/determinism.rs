//! Property tests for the simulation engine: total event order, virtual
//! time monotonicity, and bit-for-bit determinism.

use proptest::prelude::*;

use fractos_sim::{Actor, Ctx, Msg, Runtime, RuntimeExt, Sim, SimDuration, SimTime};

/// An actor that records its deliveries and randomly fans out messages.
struct Chatter {
    id: usize,
    peers: Vec<fractos_sim::ActorId>,
    fanout_left: u32,
    log: Vec<(SimTime, u64)>,
}

struct Tick(u64);

impl Actor for Chatter {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let Tick(v) = *msg.downcast::<Tick>().expect("Tick");
        self.log.push((ctx.now(), v));
        if self.fanout_left > 0 && !self.peers.is_empty() {
            self.fanout_left -= 1;
            let target = self.peers[(ctx.rng().gen_range(self.peers.len() as u64)) as usize];
            let delay = SimDuration::from_nanos(ctx.rng().gen_range(10_000) + 1);
            ctx.send_after(
                delay,
                target,
                Tick(v.wrapping_mul(31).wrapping_add(self.id as u64)),
            );
        }
    }
}

fn run(seed: u64, actors: usize, seeds: &[u64]) -> (u64, SimTime, Vec<Vec<(SimTime, u64)>>) {
    let mut sim = Sim::new(seed);
    let mut ids = Vec::new();
    for i in 0..actors {
        ids.push(sim.add_actor(
            &format!("a{i}"),
            Box::new(Chatter {
                id: i,
                peers: Vec::new(),
                fanout_left: 64,
                log: Vec::new(),
            }),
        ));
    }
    let peer_ids = ids.clone();
    for &id in &ids {
        sim.with_actor::<Chatter, _>(id, |c| c.peers = peer_ids.clone());
    }
    for (i, &s) in seeds.iter().enumerate() {
        sim.post(SimDuration::from_nanos(s % 1_000), ids[i % actors], Tick(s));
    }
    sim.run();
    let steps = sim.steps();
    let end = sim.now();
    let logs = ids
        .iter()
        .map(|&id| sim.with_actor::<Chatter, _>(id, |c| c.log.clone()))
        .collect();
    (steps, end, logs)
}

proptest! {
    /// Same seed + same inputs ⇒ identical step counts, end times and
    /// per-actor delivery logs.
    #[test]
    fn identical_runs_are_bit_identical(
        seed in any::<u64>(),
        actors in 1usize..6,
        seeds in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let a = run(seed, actors, &seeds);
        let b = run(seed, actors, &seeds);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Per-actor delivery timestamps never decrease (virtual time is
    /// monotone from every observer's point of view).
    #[test]
    fn delivery_times_are_monotone(
        seed in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let (_, _, logs) = run(seed, 4, &seeds);
        for log in logs {
            for w in log.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards: {:?}", w);
            }
        }
    }

    /// The RNG stream makes different seeds diverge (sanity against a
    /// constant-stream regression).
    #[test]
    fn different_seeds_usually_diverge(seeds in prop::collection::vec(any::<u64>(), 4..12)) {
        let a = run(1, 3, &seeds);
        let b = run(2, 3, &seeds);
        // Fanout targets are random, so the runs should differ somewhere
        // (equal step counts alone are possible; logs equal is not, except
        // in degenerate tiny cases — allow those).
        if a.0 > 8 {
            prop_assert!(a.2 != b.2 || a.1 != b.1);
        }
    }
}

/// Scale guard: a large event volume must stay roughly linear (no
/// quadratic blow-up in the queue or in downstream consumers).
#[test]
fn engine_handles_large_event_volumes() {
    let t0 = std::time::Instant::now();
    let (steps, _, _) = run(3, 8, &(0..2000u64).collect::<Vec<_>>());
    assert!(steps >= 2000);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "engine too slow: {:?} for {} steps",
        t0.elapsed(),
        steps
    );
}
