//! Infrastructure for non-FractOS baseline actors.
//!
//! The paper's comparators (ibv ping-pong, rCUDA, NFS, NVMe-oF) are not
//! FractOS programs: they speak their own wire protocols. They are modelled
//! as plain simulation actors that exchange messages over the same fabric —
//! paying their own protocol costs and nothing of FractOS's.

use fractos_net::{Endpoint, Fabric, TrafficClass};
use fractos_sim::{Actor, ActorId, Ctx, Msg, Shared, SimDuration, SimTime};

/// A remote party a raw actor can message: its actor and fabric endpoint.
#[derive(Debug, Clone, Copy)]
pub struct Peer {
    /// The simulation actor.
    pub actor: ActorId,
    /// Where it sits on the fabric.
    pub endpoint: Endpoint,
}

/// Sends `msg` from `src` to `peer` with fabric-modelled latency and
/// traffic accounting, plus `extra` processing delay.
#[allow(clippy::too_many_arguments)] // a transport primitive, not an API to shrink
pub fn raw_send<M: 'static>(
    ctx: &mut Ctx<'_>,
    fabric: &Shared<Fabric>,
    src: Endpoint,
    peer: Peer,
    payload: u64,
    class: TrafficClass,
    extra: SimDuration,
    msg: M,
) {
    let delay = fabric
        .borrow_mut()
        .send(ctx.now(), ctx.rng(), src, peer.endpoint, payload, class);
    ctx.send_after(delay + extra, peer.actor, msg);
}

/// The `ibv_rc_pingpong` baseline of Table 3: a server echoing small
/// messages.
pub struct PingPongServer {
    /// Where the server runs (host CPU or SmartNIC).
    pub endpoint: Endpoint,
    fabric: Shared<Fabric>,
}

/// Ping message carrying the reply peer.
pub struct Ping(pub Peer);

/// Pong reply.
pub struct Pong;

impl PingPongServer {
    /// Creates the server.
    pub fn new(endpoint: Endpoint, fabric: Shared<Fabric>) -> Self {
        PingPongServer { endpoint, fabric }
    }
}

impl Actor for PingPongServer {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let Ok(ping) = msg.downcast::<Ping>() else {
            return;
        };
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            ping.0,
            0,
            TrafficClass::Control,
            SimDuration::ZERO,
            Pong,
        );
    }
}

/// The ping-pong client: issues `count` round trips and records latencies.
pub struct PingPongClient {
    /// Where the client runs.
    pub endpoint: Endpoint,
    /// The server.
    pub server: Peer,
    /// Round trips to perform.
    pub count: u64,
    fabric: Shared<Fabric>,
    sent_at: SimTime,
    /// Completed round-trip latencies.
    pub latencies: Vec<SimDuration>,
    self_peer: Option<Peer>,
}

/// Kick-off message for the client.
pub struct Start;

impl PingPongClient {
    /// Creates the client.
    pub fn new(endpoint: Endpoint, server: Peer, count: u64, fabric: Shared<Fabric>) -> Self {
        PingPongClient {
            endpoint,
            server,
            count,
            fabric,
            sent_at: SimTime::ZERO,
            latencies: Vec::new(),
            self_peer: None,
        }
    }

    fn ping(&mut self, ctx: &mut Ctx<'_>) {
        self.sent_at = ctx.now();
        let me = Peer {
            actor: ctx.self_id(),
            endpoint: self.endpoint,
        };
        self.self_peer = Some(me);
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            self.server,
            0,
            TrafficClass::Control,
            SimDuration::ZERO,
            Ping(me),
        );
    }
}

impl Actor for PingPongClient {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if msg.downcast_ref::<Start>().is_some() {
            self.ping(ctx);
            return;
        }
        if msg.downcast::<Pong>().is_ok() {
            self.latencies.push(ctx.now().duration_since(self.sent_at));
            if (self.latencies.len() as u64) < self.count {
                self.ping(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_net::{NetParams, NodeId, Topology};
    use fractos_sim::{Runtime, RuntimeExt, Sim};

    #[test]
    fn raw_loopback_matches_table3() {
        let mut sim = Sim::new(1);
        let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
        let server_ep = Endpoint::cpu(NodeId(0));
        let server = sim.add_actor_on(
            0,
            "pp-server",
            Box::new(PingPongServer::new(server_ep, fabric.clone())),
        );
        let client = sim.add_actor_on(
            0,
            "pp-client",
            Box::new(PingPongClient::new(
                Endpoint::cpu(NodeId(0)),
                Peer {
                    actor: server,
                    endpoint: server_ep,
                },
                100,
                fabric.clone(),
            )),
        );
        sim.post(SimDuration::ZERO, client, Start);
        sim.run();
        sim.with_actor::<PingPongClient, _>(client, |c| {
            assert_eq!(c.latencies.len(), 100);
            let mean = c.latencies.iter().map(|d| d.as_micros_f64()).sum::<f64>() / 100.0;
            assert!((mean - 2.42).abs() < 0.1, "loopback RTT {mean:.3} µs");
        });
    }

    #[test]
    fn raw_loopback_snic_matches_table3() {
        let mut sim = Sim::new(1);
        let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
        let server_ep = Endpoint::snic(NodeId(0));
        let server = sim.add_actor_on(
            0,
            "pp-server",
            Box::new(PingPongServer::new(server_ep, fabric.clone())),
        );
        let client = sim.add_actor_on(
            0,
            "pp-client",
            Box::new(PingPongClient::new(
                Endpoint::cpu(NodeId(0)),
                Peer {
                    actor: server,
                    endpoint: server_ep,
                },
                50,
                fabric.clone(),
            )),
        );
        sim.post(SimDuration::ZERO, client, Start);
        sim.run();
        sim.with_actor::<PingPongClient, _>(client, |c| {
            let mean = c.latencies.iter().map(|d| d.as_micros_f64()).sum::<f64>()
                / c.latencies.len() as f64;
            assert!((mean - 3.68).abs() < 0.1, "sNIC loopback RTT {mean:.3} µs");
        });
    }
}
