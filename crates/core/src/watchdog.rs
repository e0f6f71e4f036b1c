//! The external failure-detection service (§3.6).
//!
//! The paper delegates node/Controller failure detection to "an external
//! monitoring service such as Zookeeper". This actor implements that role
//! inside the simulation: it pings every Controller on a fixed period over
//! the fabric, and after [`MISSED_LIMIT`] consecutive unanswered pings it
//! declares the Controller failed and notifies all surviving peers, which
//! then run the §3.6 failure translation (fail the dead Controller's
//! Processes, fail pending operations, treat its capabilities as revoked).

use std::collections::BTreeMap;

use fractos_cap::ControllerAddr;
use fractos_net::{Endpoint, Fabric, SendOutcome, TrafficClass};
use fractos_sim::{Actor, ActorId, Ctx, Msg, Shared, SimDuration, SimTime, SpanKind, TraceCtx};

use crate::directory::Directory;
use crate::messages::CtrlMsg;

/// Ping period.
pub const PING_PERIOD: SimDuration = SimDuration::from_micros(200);

/// Consecutive missed pings before a Controller is declared dead.
pub const MISSED_LIMIT: u32 = 3;

/// Messages handled by the watchdog.
#[derive(Debug)]
pub enum WatchdogMsg {
    /// Periodic self-timer.
    Tick,
    /// A Controller answered ping `seq`.
    Pong {
        /// The answering Controller.
        from: ControllerAddr,
        /// The ping sequence number.
        seq: u64,
    },
}

/// The watchdog actor.
pub struct WatchdogActor {
    endpoint: Endpoint,
    dir: Shared<Directory>,
    fabric: Shared<Fabric>,
    seq: u64,
    /// Outstanding ping sequence per Controller.
    outstanding: BTreeMap<ControllerAddr, u64>,
    misses: BTreeMap<ControllerAddr, u32>,
    /// When the current run of consecutive misses started (the detection
    /// window for recovery attribution); cleared by a pong.
    first_miss_at: BTreeMap<ControllerAddr, SimTime>,
    declared_dead: BTreeMap<ControllerAddr, bool>,
    /// Failures detected so far (tests).
    pub detected: Vec<ControllerAddr>,
    /// Timestamped death declarations: `(subject, first miss, declared)`.
    /// The interval is the detect phase of the recovery timeline.
    pub declared: Vec<(ControllerAddr, SimTime, SimTime)>,
    /// Declared-dead Controllers later observed answering again (healed
    /// partitions, §3.6 false positives) (tests).
    pub recovered: Vec<ControllerAddr>,
    /// Timestamped verdict withdrawals.
    pub recovered_at: Vec<(ControllerAddr, SimTime)>,
}

impl WatchdogActor {
    /// Creates a watchdog at `endpoint`.
    pub fn new(endpoint: Endpoint, dir: Shared<Directory>, fabric: Shared<Fabric>) -> Self {
        WatchdogActor {
            endpoint,
            dir,
            fabric,
            seq: 0,
            outstanding: BTreeMap::new(),
            misses: BTreeMap::new(),
            first_miss_at: BTreeMap::new(),
            declared_dead: BTreeMap::new(),
            detected: Vec::new(),
            declared: Vec::new(),
            recovered: Vec::new(),
            recovered_at: Vec::new(),
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let ctrls: Vec<(ControllerAddr, ActorId, Endpoint)> = {
            let dir = self.dir.borrow();
            dir.all_ctrls()
                .into_iter()
                .filter_map(|a| dir.ctrl(a).map(|e| (a, e.actor, e.endpoint)))
                .collect()
        };
        self.seq += 1;
        let me = ctx.self_id();
        for (addr, actor, ep) in ctrls {
            let dead = self.declared_dead.get(&addr).copied().unwrap_or(false);
            // Unanswered previous ping counts as a miss (not while declared
            // dead — then we only probe for recovery).
            if !dead && self.outstanding.contains_key(&addr) {
                let m = self.misses.entry(addr).or_insert(0);
                *m += 1;
                self.first_miss_at.entry(addr).or_insert(ctx.now());
                if *m >= MISSED_LIMIT {
                    self.declare_dead(ctx, addr);
                    continue;
                }
            }
            if !dead {
                self.outstanding.insert(addr, self.seq);
            }
            // Pings ride the droppable control plane: a partitioned (or
            // crashed) Controller misses them, which IS the detection
            // signal. Declared-dead Controllers keep being probed so a
            // healed partition is noticed.
            let outcome = self.fabric.borrow_mut().try_send(
                ctx.now(),
                ctx.rng(),
                self.endpoint,
                ep,
                16,
                TrafficClass::Control,
            );
            if let SendOutcome::Delivered(delay) = outcome {
                ctx.send_after(
                    delay,
                    actor,
                    CtrlMsg::Ping {
                        watchdog: me,
                        watchdog_ep: self.endpoint,
                        seq: self.seq,
                    },
                );
            }
        }
        ctx.schedule_self(PING_PERIOD, WatchdogMsg::Tick);
    }

    fn declare_dead(&mut self, ctx: &mut Ctx<'_>, dead: ControllerAddr) {
        self.declared_dead.insert(dead, true);
        self.outstanding.remove(&dead);
        self.misses.remove(&dead);
        let first_miss = self.first_miss_at.remove(&dead).unwrap_or(ctx.now());
        self.detected.push(dead);
        self.declared.push((dead, first_miss, ctx.now()));
        // Escalate to the directory: bump the death epoch and install the
        // standing verdict that drives failover routing. Survivors treat
        // every capability minted before this epoch as revoked (§3.6).
        self.dir.borrow_mut().declare_ctrl_dead(dead);
        if ctx.spans_enabled() {
            let detect = ctx.span(
                SpanKind::Recovery,
                "detect",
                TraceCtx::NONE,
                first_miss,
                ctx.now(),
            );
            ctx.span(SpanKind::Recovery, "declare", detect, ctx.now(), ctx.now());
        }
        self.broadcast(ctx, dead, true);
    }

    fn declare_recovered(&mut self, ctx: &mut Ctx<'_>, peer: ControllerAddr) {
        self.declared_dead.insert(peer, false);
        self.outstanding.remove(&peer);
        self.misses.insert(peer, 0);
        self.first_miss_at.remove(&peer);
        self.recovered.push(peer);
        self.recovered_at.push((peer, ctx.now()));
        self.dir.borrow_mut().declare_ctrl_recovered(peer);
        self.broadcast(ctx, peer, false);
    }

    /// Notifies every other Controller of a verdict about `subject`.
    /// Verdict broadcasts model an out-of-band management network (the
    /// external Zookeeper-like service), so they are not droppable.
    fn broadcast(&mut self, ctx: &mut Ctx<'_>, subject: ControllerAddr, failed: bool) {
        let peers: Vec<(ActorId, Endpoint)> = {
            let dir = self.dir.borrow();
            dir.all_ctrls()
                .into_iter()
                .filter(|&a| a != subject)
                .filter_map(|a| dir.ctrl(a).map(|e| (e.actor, e.endpoint)))
                .collect()
        };
        for (actor, ep) in peers {
            let delay = self.fabric.borrow_mut().send(
                ctx.now(),
                ctx.rng(),
                self.endpoint,
                ep,
                24,
                TrafficClass::Control,
            );
            let msg = if failed {
                CtrlMsg::PeerFailed { peer: subject }
            } else {
                CtrlMsg::PeerRecovered { peer: subject }
            };
            ctx.send_after(delay, actor, msg);
        }
    }
}

impl Actor for WatchdogActor {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        // A message of any other type is a harness wiring bug; dropping it
        // is safer than unwinding mid-event.
        let Ok(msg) = msg.downcast::<WatchdogMsg>() else {
            return;
        };
        let msg = *msg;
        match msg {
            WatchdogMsg::Tick => self.tick(ctx),
            WatchdogMsg::Pong { from, seq } => {
                if self.declared_dead.get(&from).copied().unwrap_or(false) {
                    // A declared-dead Controller answered a recovery probe:
                    // the outage was a partition that healed, not a crash
                    // (a crashed Controller's dead-gate never pongs).
                    self.declare_recovered(ctx, from);
                } else if self.outstanding.get(&from) == Some(&seq) {
                    self.outstanding.remove(&from);
                    self.misses.insert(from, 0);
                    self.first_miss_at.remove(&from);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_net::{ComputeDomain, NetParams, NodeId, Topology};
    use fractos_sim::{ActorId, Runtime, RuntimeExt, Sim, SimTime};

    /// A minimal Controller stand-in: answers pings while `alive` and
    /// records the verdict broadcasts it receives. Exercising the
    /// watchdog against a stub isolates its timing from the real
    /// Controller's dead-gate, which integration tests already cover.
    struct StubCtrl {
        addr: ControllerAddr,
        endpoint: Endpoint,
        fabric: Shared<Fabric>,
        alive: Shared<bool>,
        peer_failed: Vec<ControllerAddr>,
        peer_recovered: Vec<ControllerAddr>,
    }

    impl Actor for StubCtrl {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let Ok(msg) = msg.downcast::<CtrlMsg>() else {
                return;
            };
            match *msg {
                CtrlMsg::Ping {
                    watchdog,
                    watchdog_ep,
                    seq,
                } => {
                    if !*self.alive.borrow() {
                        return;
                    }
                    let outcome = self.fabric.borrow_mut().try_send(
                        ctx.now(),
                        ctx.rng(),
                        self.endpoint,
                        watchdog_ep,
                        16,
                        TrafficClass::Control,
                    );
                    if let SendOutcome::Delivered(delay) = outcome {
                        let from = self.addr;
                        ctx.send_after(delay, watchdog, WatchdogMsg::Pong { from, seq });
                    }
                }
                CtrlMsg::PeerFailed { peer } => self.peer_failed.push(peer),
                CtrlMsg::PeerRecovered { peer } => self.peer_recovered.push(peer),
                _ => {}
            }
        }
    }

    struct Harness {
        sim: Sim,
        dir: Shared<Directory>,
        wd: ActorId,
        ctrls: Vec<(ControllerAddr, ActorId, Shared<bool>)>,
    }

    /// Two stub Controllers on distinct nodes plus a watchdog on node 0.
    fn harness() -> Harness {
        let mut sim = Sim::new(7);
        let dir = Shared::new(Directory::new());
        let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
        let mut ctrls = Vec::new();
        for node in [1usize, 2] {
            let endpoint = Endpoint::cpu(NodeId(node as u32));
            let addr = dir.borrow_mut().register_ctrl(
                ActorId::from_raw(0),
                endpoint,
                ComputeDomain::HostCpu,
            );
            let alive = Shared::new(true);
            let actor = sim.add_actor_on(
                node,
                &format!("stub{node}"),
                Box::new(StubCtrl {
                    addr,
                    endpoint,
                    fabric: fabric.clone(),
                    alive: alive.clone(),
                    peer_failed: Vec::new(),
                    peer_recovered: Vec::new(),
                }),
            );
            dir.borrow_mut().set_ctrl_actor(addr, actor);
            ctrls.push((addr, actor, alive));
        }
        let wd_actor = WatchdogActor::new(Endpoint::cpu(NodeId(0)), dir.clone(), fabric);
        let wd = sim.add_actor_on(0, "watchdog", Box::new(wd_actor));
        sim.post(SimDuration::ZERO, wd, WatchdogMsg::Tick);
        Harness {
            sim,
            dir,
            wd,
            ctrls,
        }
    }

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    #[test]
    fn answered_pings_never_declare() {
        let mut h = harness();
        h.sim.run_until(us(5_000));
        h.sim.with_actor::<WatchdogActor, _>(h.wd, |w| {
            assert!(w.detected.is_empty(), "live Controllers declared dead");
            assert!(w.declared.is_empty());
        });
    }

    #[test]
    fn silence_declares_after_exactly_missed_limit_periods() {
        let mut h = harness();
        let (dead, _, alive) = h.ctrls[0].clone();
        *alive.borrow_mut() = false;
        h.sim.run_until(us(5_000));
        let (subject, first_miss, declared) = h
            .sim
            .with_actor::<WatchdogActor, _>(h.wd, |w| *w.declared.first().expect("never declared"));
        assert_eq!(subject, dead);
        // The first ping (tick 1, t=0) goes unanswered; the miss is
        // charged when tick 2 finds it outstanding, and the run reaches
        // MISSED_LIMIT exactly `MISSED_LIMIT - 1` periods later.
        assert_eq!(first_miss, us(0) + PING_PERIOD);
        assert_eq!(
            declared,
            first_miss + PING_PERIOD * (MISSED_LIMIT - 1) as u64
        );
    }

    #[test]
    fn declare_dead_escalates_to_directory_and_peers() {
        let mut h = harness();
        let (dead, _, alive) = h.ctrls[0].clone();
        let (survivor_addr, survivor, _) = h.ctrls[1].clone();
        *alive.borrow_mut() = false;
        h.sim.run_until(us(5_000));
        // Directory escalation: epoch bump plus the standing verdict that
        // drives failover routing.
        assert!(h.dir.borrow().is_declared_dead(dead));
        assert!(h.dir.borrow().death_epoch(dead) > 0);
        assert_eq!(h.dir.borrow().death_epoch(survivor_addr), 0);
        // Survivors hear the (non-droppable) verdict broadcast.
        h.sim.with_actor::<StubCtrl, _>(survivor, |s| {
            assert_eq!(s.peer_failed, vec![dead]);
            assert!(s.peer_recovered.is_empty());
        });
    }

    #[test]
    fn stale_pong_is_not_liveness() {
        let mut h = harness();
        let (dead, _, alive) = h.ctrls[0].clone();
        *alive.borrow_mut() = false;
        // A pong echoing a sequence the watchdog never sent outstanding
        // must not clear the miss run (e.g. a delayed duplicate).
        h.sim.post(
            SimDuration::from_micros(50),
            h.wd,
            WatchdogMsg::Pong {
                from: dead,
                seq: 999,
            },
        );
        h.sim.run_until(us(5_000));
        h.sim.with_actor::<WatchdogActor, _>(h.wd, |w| {
            assert_eq!(w.detected, vec![dead], "stale pong suppressed detection");
        });
    }

    #[test]
    fn pong_resets_a_partial_miss_run() {
        let mut h = harness();
        let (_, _, alive) = h.ctrls[0].clone();
        // Miss two pings (one short of MISSED_LIMIT = 3: the t=0 ping is
        // charged at the 200 µs tick, the t=200 ping at the 400 µs tick),
        // then answer the t=400 ping: the run resets before the 600 µs
        // tick could charge the third miss, so no declaration happens.
        *alive.borrow_mut() = false;
        h.sim.run_until(us(300));
        *alive.borrow_mut() = true;
        h.sim.run_until(us(5_000));
        h.sim.with_actor::<WatchdogActor, _>(h.wd, |w| {
            assert!(
                w.detected.is_empty(),
                "a recovered miss run still declared: {:?}",
                w.declared
            );
        });
    }

    #[test]
    fn healed_partition_withdraws_the_verdict() {
        let mut h = harness();
        let (dead, _, alive) = h.ctrls[0].clone();
        let (_, survivor, _) = h.ctrls[1].clone();
        *alive.borrow_mut() = false;
        h.sim.run_until(us(2_000));
        assert!(h.dir.borrow().is_declared_dead(dead));
        let epoch = h.dir.borrow().death_epoch(dead);
        // The "outage" was a partition: the Controller answers the next
        // recovery probe and the watchdog withdraws the verdict.
        *alive.borrow_mut() = true;
        h.sim.run_until(us(5_000));
        h.sim.with_actor::<WatchdogActor, _>(h.wd, |w| {
            assert_eq!(w.recovered, vec![dead]);
            let (_, at) = *w.recovered_at.first().expect("no recovery timestamp");
            assert!(at >= us(2_000));
        });
        assert!(!h.dir.borrow().is_declared_dead(dead));
        // The death epoch stays burned: capabilities minted before it
        // remain revoked even though the Controller is routable again.
        assert_eq!(h.dir.borrow().death_epoch(dead), epoch);
        h.sim.with_actor::<StubCtrl, _>(survivor, |s| {
            assert_eq!(s.peer_failed, vec![dead]);
            assert_eq!(s.peer_recovered, vec![dead]);
        });
    }

    #[test]
    fn crashed_node_never_recovers_through_the_dead_gate() {
        let mut h = harness();
        let (dead, _, alive) = h.ctrls[0].clone();
        *alive.borrow_mut() = false;
        h.sim.run_until(us(10_000));
        // A crash-stop Controller (dead-gate: never pongs) stays declared;
        // only a real answer — impossible here — withdraws the verdict.
        h.sim.with_actor::<WatchdogActor, _>(h.wd, |w| {
            assert_eq!(w.detected, vec![dead]);
            assert!(w.recovered.is_empty());
        });
        assert!(h.dir.borrow().is_declared_dead(dead));
    }
}
