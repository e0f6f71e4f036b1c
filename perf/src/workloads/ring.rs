//! `ring4` / `ring4_sharded`: ping-pong pairs in a ring over a bare fabric.
//!
//! Client `i` on node `i` pings a server on node `i + 1`; there is no
//! Controller, Process, device or service, so the engine, its queue and
//! `Fabric::send` do all the work. An operation is one round trip.

use fractos_baselines::raw::{Peer, PingPongClient, PingPongServer, Start};
use fractos_net::{Endpoint, Fabric, NetParams, NodeConfig, NodeId, Topology, TrafficStats};
use fractos_sim::{ActorId, Runtime, RuntimeExt, Shared, SimDuration};

use super::{make_runtime, start_stagger_ns, Backend, LayerCounters, Outcome, SplitMix64, World};
use crate::traced::TraceHandle;

struct RingWorld {
    rt: Box<dyn Runtime>,
    fabric: Shared<Fabric>,
    clients: Vec<ActorId>,
    rounds: u64,
    seed: u64,
}

pub fn build(
    nodes: u32,
    rounds: u64,
    backend: Backend,
    seed: u64,
    traced: bool,
) -> (Box<dyn World>, Option<TraceHandle>) {
    let mut topology = Topology::new();
    for i in 0..nodes {
        topology.add_node(NodeConfig::cpu_only(&format!("n{i}")));
    }
    let params = NetParams::paper();
    let (mut rt, handle) = make_runtime(backend, &topology, &params, seed, traced);
    let fabric = Shared::new(Fabric::new(topology, params));
    let clients = (0..nodes)
        .map(|a| {
            let b = (a + 1) % nodes;
            let server_ep = Endpoint::cpu(NodeId(b));
            let server = rt.add_actor_on(
                b as usize,
                &format!("pp-server{a}"),
                Box::new(PingPongServer::new(server_ep, fabric.clone())),
            );
            rt.add_actor_on(
                a as usize,
                &format!("pp-client{a}"),
                Box::new(PingPongClient::new(
                    Endpoint::cpu(NodeId(a)),
                    Peer {
                        actor: server,
                        endpoint: server_ep,
                    },
                    rounds,
                    fabric.clone(),
                )),
            )
        })
        .collect();
    let world = RingWorld {
        rt,
        fabric,
        clients,
        rounds,
        seed,
    };
    (Box::new(world), handle)
}

impl World for RingWorld {
    fn rt(&mut self) -> &mut dyn Runtime {
        self.rt.as_mut()
    }

    fn traffic(&self) -> TrafficStats {
        self.fabric.borrow().stats().clone()
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.rt.enable_telemetry(period);
        self.fabric.borrow_mut().enable_telemetry();
    }

    fn start(&mut self) {
        let mut rng = SplitMix64(self.seed);
        for &client in &self.clients {
            let delay = SimDuration::from_nanos(start_stagger_ns(&mut rng));
            self.rt.post(delay, client, Start);
        }
    }

    fn finish(&mut self) -> Outcome {
        let rounds = self.rounds;
        let mut out = Outcome {
            attempted: rounds * self.clients.len() as u64,
            ..Outcome::default()
        };
        out.lat_ns.reserve(out.attempted as usize);
        for &client in &self.clients {
            self.rt.with_actor::<PingPongClient, _>(client, |c| {
                // Exactly `rounds` latencies: fewer is a lost round trip,
                // more a duplicated one.
                let done = c.latencies.len() as u64;
                out.failed += rounds.abs_diff(done);
                out.lat_ns.extend(c.latencies.iter().map(|d| d.as_nanos()));
            });
        }
        out
    }

    fn counters(&mut self) -> LayerCounters {
        LayerCounters::default()
    }
}
