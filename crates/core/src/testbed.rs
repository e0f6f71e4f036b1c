//! Cluster assembly and failure injection.
//!
//! A [`Testbed`] bundles the simulator, the fabric, the shared memory store
//! and the cluster directory, and offers the operations an experimenter
//! needs: place Controllers (host CPU, SmartNIC, or remote/shared), attach
//! Processes running [`Service`] logic, start everything, and inject
//! Process/Controller/node failures (§3.6, §6).

use fractos_cap::ControllerAddr;
use fractos_net::{
    ComputeDomain, Endpoint, Fabric, FaultPlan, Location, NetParams, NodeId, Topology, TrafficStats,
};
use fractos_sim::{
    build_runtime, ActorId, NodeOutage, RunOutcome, Runtime, RuntimeConfig, RuntimeExt,
    RuntimeKind, Shared, Sim, SimDuration, SimTime, TelemetryConfig, TelemetryEvent,
};

use crate::controller::ControllerActor;
use crate::directory::Directory;
use crate::memstore::MemoryStore;
use crate::messages::{CtrlMsg, ProcMsg};
use crate::process::{Fos, ProcessActor, Service};
use crate::types::ProcId;

/// Where to deploy a Controller (§6 evaluates all of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlPlacement {
    /// On the node's host CPU.
    HostCpu(NodeId),
    /// On the node's SmartNIC.
    SmartNic(NodeId),
}

impl CtrlPlacement {
    fn endpoint(self) -> Endpoint {
        match self {
            CtrlPlacement::HostCpu(n) => Endpoint::cpu(n),
            CtrlPlacement::SmartNic(n) => Endpoint::snic(n),
        }
    }

    fn domain(self) -> ComputeDomain {
        match self {
            CtrlPlacement::HostCpu(_) => ComputeDomain::HostCpu,
            CtrlPlacement::SmartNic(_) => ComputeDomain::SmartNic,
        }
    }
}

/// A running FractOS cluster in a simulator.
pub struct Testbed {
    /// The simulation runtime (single-threaded unless built with
    /// [`Testbed::new_on`]); drive it with [`Testbed::run`] or directly.
    pub sim: Box<dyn Runtime>,
    /// The shared fabric (latency model + traffic accounting).
    pub fabric: Shared<Fabric>,
    /// All simulated Process memory.
    pub mem: Shared<MemoryStore>,
    /// The cluster directory.
    pub dir: Shared<Directory>,
    ctrls: Vec<(ControllerAddr, ActorId)>,
    procs: Vec<(ProcId, ActorId)>,
}

/// Delay between a Controller dying and the watchdog notifying its peers
/// (ZooKeeper-style external failure detection, §3.6).
pub const WATCHDOG_DETECT: SimDuration = SimDuration::from_micros(500);

impl Testbed {
    /// Creates an empty testbed over `topology` on the single-threaded
    /// engine.
    pub fn new(topology: Topology, params: NetParams, seed: u64) -> Self {
        Self::with_runtime(topology, params, Box::new(Sim::new(seed)))
    }

    /// Creates an empty testbed on an explicitly chosen backend (the
    /// cross-backend equivalence suite builds one of each).
    pub fn new_on(topology: Topology, params: NetParams, seed: u64, kind: RuntimeKind) -> Self {
        let config = Self::runtime_config(&topology, &params, seed);
        Self::with_runtime(topology, params, build_runtime(kind, &config))
    }

    /// The [`RuntimeConfig`] a cluster of this shape needs: one shard per
    /// node, synchronized by [`NetParams::conservative_lookahead`] — the
    /// fabric's minimum inter-node latency less its jitter floor.
    pub fn runtime_config(topology: &Topology, params: &NetParams, seed: u64) -> RuntimeConfig {
        RuntimeConfig::new(seed, topology.len(), params.conservative_lookahead())
    }

    /// Creates an empty testbed over an already-built runtime.
    pub fn with_runtime(topology: Topology, params: NetParams, sim: Box<dyn Runtime>) -> Self {
        let fabric = Shared::new(Fabric::new(topology, params));
        Testbed {
            sim,
            fabric,
            mem: Shared::new(MemoryStore::new()),
            dir: Shared::new(Directory::new()),
            ctrls: Vec::new(),
            procs: Vec::new(),
        }
    }

    /// The paper's 3-node testbed with default parameters.
    pub fn paper(seed: u64) -> Self {
        Testbed::new(Topology::paper_testbed(), NetParams::paper(), seed)
    }

    /// Adds a Controller at the given placement. The first Controller added
    /// hosts the bootstrap registry.
    pub fn add_controller(&mut self, placement: CtrlPlacement) -> ControllerAddr {
        let endpoint = placement.endpoint();
        self.fabric
            .borrow()
            .topology()
            .validate(endpoint)
            .expect("controller placement must exist in the topology");
        let addr = {
            let mut dir = self.dir.borrow_mut();
            dir.register_ctrl(ActorId::from_raw(0), endpoint, placement.domain())
        };
        let registry = self.ctrls.first().map_or(addr, |(a, _)| *a);
        let actor = ControllerActor::new(
            addr,
            endpoint,
            placement.domain(),
            registry,
            self.dir.clone(),
            self.fabric.clone(),
            self.mem.clone(),
        );
        let actor_id = self.sim.add_actor_on(
            endpoint.node.0 as usize,
            &format!("ctrl{}", addr.0),
            Box::new(actor),
        );
        self.dir.borrow_mut().set_ctrl_actor(addr, actor_id);
        self.ctrls.push((addr, actor_id));
        actor_id.index(); // silence unused in release
        addr
    }

    /// Adds a Process running `service` at `endpoint`, managed by `ctrl`.
    pub fn add_process<S: Service>(
        &mut self,
        name: &str,
        endpoint: Endpoint,
        ctrl: ControllerAddr,
        service: S,
    ) -> ProcId {
        self.fabric
            .borrow()
            .topology()
            .validate(endpoint)
            .expect("process placement must exist in the topology");
        let proc = {
            let mut dir = self.dir.borrow_mut();
            dir.register_proc(name, ActorId::from_raw(0), endpoint, ctrl)
        };
        let actor = ProcessActor::new(
            service,
            proc,
            endpoint,
            self.dir.clone(),
            self.fabric.clone(),
            self.mem.clone(),
        );
        let actor_id = self
            .sim
            .add_actor_on(endpoint.node.0 as usize, name, Box::new(actor));
        self.dir.borrow_mut().set_proc_actor(proc, actor_id);
        let ctrl_actor = self.ctrl_actor(ctrl);
        self.sim
            .with_actor::<ControllerActor, _>(ctrl_actor, |c| c.adopt(proc));
        self.procs.push((proc, actor_id));
        proc
    }

    /// Posts the `Start` event to one Process.
    pub fn start_process(&mut self, proc: ProcId) {
        let actor = self.proc_actor(proc);
        self.sim.post(SimDuration::ZERO, actor, ProcMsg::Start);
    }

    /// Posts `Start` to every Process, in registration order.
    pub fn start_all(&mut self) {
        for (proc, actor) in self.procs.clone() {
            let _ = proc;
            self.sim.post(SimDuration::ZERO, actor, ProcMsg::Start);
        }
    }

    /// Runs the simulation until the event queue drains.
    pub fn run(&mut self) -> RunOutcome {
        self.sim.run()
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Snapshot of the fabric's traffic statistics.
    pub fn traffic(&self) -> TrafficStats {
        self.fabric.borrow().stats().clone()
    }

    /// Clears the fabric's traffic statistics (e.g. after a warm-up phase).
    pub fn reset_traffic(&self) {
        self.fabric.borrow_mut().reset_stats();
    }

    /// Enables the continuous telemetry plane on both the runtime (the
    /// points actors record) and the fabric (per-link traffic deltas). Off
    /// by default; enabling never perturbs the simulated execution — see
    /// `fractos_sim::telemetry`.
    pub fn enable_telemetry(&mut self, period: SimDuration) {
        self.sim.enable_telemetry(period);
        self.fabric.borrow_mut().enable_telemetry();
    }

    /// Enables telemetry as configured by `FRACTOS_TELEMETRY` (unset/`0`/
    /// `off` leave the plane disabled). Returns the parsed configuration.
    pub fn enable_telemetry_from_env(&mut self) -> Option<TelemetryConfig> {
        let cfg = TelemetryConfig::from_env()?;
        self.enable_telemetry(cfg.period);
        Some(cfg)
    }

    /// The telemetry sampling period, when the plane is enabled.
    pub fn telemetry_period(&self) -> Option<SimDuration> {
        self.sim.telemetry_period()
    }

    /// Drains every telemetry point recorded so far — the actors' points
    /// plus the fabric's per-link deltas (recorded on the external
    /// sentinel actor) — in the canonical `(time, series, actor, ord)`
    /// order. The engine itself records none.
    pub fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        let mut events = self.sim.take_telemetry();
        events.append(&mut self.fabric.borrow_mut().take_telemetry());
        fractos_sim::sort_canonical_telemetry(&mut events);
        events
    }

    /// Arms a fault plan: link faults on the shared fabric, node crashes
    /// as engine outage windows plus the in-simulation Kill/Reboot
    /// choreography. Every chaos run is replayable from `(seed, plan)`;
    /// an empty plan leaves the run bit-identical to one with no plan
    /// installed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.arm_node_crashes(&plan);
        self.fabric.borrow_mut().install_fault_plan(plan, seed);
    }

    /// Disarms any installed fault plan (e.g. before a measurement phase).
    /// Scheduled crash/restart events already posted keep their place in
    /// the queue; only the delivery-drop windows and link faults lift.
    pub fn clear_fault_plan(&mut self) {
        self.sim.set_node_outages(Vec::new());
        self.fabric.borrow_mut().clear_fault_plan();
    }

    /// Translates the plan's node crashes into engine outage windows and
    /// scheduled control messages (§3.6): every Controller and Process on
    /// a crashed node is killed at the crash instant; at the optional
    /// restart its Controllers reboot with a fresh epoch (capabilities
    /// minted before become stale) while Processes stay dead — their
    /// state is gone, so they can only be re-deployed, not revived.
    fn arm_node_crashes(&mut self, plan: &FaultPlan) {
        if plan.node_crashes.is_empty() {
            return;
        }
        let now = self.now();
        let outages = plan
            .node_crashes
            .iter()
            .map(|c| NodeOutage {
                node: c.node.0 as usize,
                down: c.at,
                up: c.restart,
            })
            .collect();
        self.sim.set_node_outages(outages);
        for crash in &plan.node_crashes {
            let down_in = crash.at.saturating_duration_since(now);
            let victims_p: Vec<ActorId> = {
                let dir = self.dir.borrow();
                self.procs
                    .iter()
                    .filter(|(p, _)| dir.proc(*p).is_some_and(|e| e.endpoint.node == crash.node))
                    .map(|(_, a)| *a)
                    .collect()
            };
            for actor in victims_p {
                self.sim.post(down_in, actor, ProcMsg::Kill);
            }
            let victims_c: Vec<ActorId> = {
                let dir = self.dir.borrow();
                self.ctrls
                    .iter()
                    .filter(|(a, _)| dir.ctrl(*a).is_some_and(|e| e.endpoint.node == crash.node))
                    .map(|(_, id)| *id)
                    .collect()
            };
            for actor in &victims_c {
                self.sim.post(down_in, *actor, CtrlMsg::Kill);
            }
            if let Some(up) = crash.restart {
                let up_in = up.saturating_duration_since(now);
                for actor in victims_c {
                    self.sim.post(up_in, actor, CtrlMsg::Reboot);
                }
            }
        }
    }

    /// The simulation actor of a Controller.
    ///
    /// # Panics
    ///
    /// Panics if the Controller was never added.
    pub fn ctrl_actor(&self, addr: ControllerAddr) -> ActorId {
        self.ctrls
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|(_, id)| *id)
            .expect("unknown controller")
    }

    /// The simulation actor of a Process.
    ///
    /// # Panics
    ///
    /// Panics if the Process was never added.
    pub fn proc_actor(&self, proc: ProcId) -> ActorId {
        self.procs
            .iter()
            .find(|(p, _)| *p == proc)
            .map(|(_, id)| *id)
            .expect("unknown process")
    }

    /// Inspects (or mutates) the service state of a Process between events.
    pub fn with_service<S: Service, R>(&mut self, proc: ProcId, f: impl FnOnce(&mut S) -> R) -> R {
        let actor = self.proc_actor(proc);
        self.sim
            .with_actor::<ProcessActor<S>, _>(actor, |p| f(p.service_mut()))
    }

    /// The `Fos` handle of a Process (to seed work from a harness).
    ///
    /// Syscalls issued through the handle are flushed the next time the
    /// Process handles an event; pair this with [`Testbed::poke`].
    pub fn fos_of<S: Service>(&mut self, proc: ProcId) -> Fos<S> {
        let actor = self.proc_actor(proc);
        self.sim
            .with_actor::<ProcessActor<S>, _>(actor, |p| p.fos())
    }

    /// Delivers a no-op event to a Process so it flushes pending syscalls
    /// seeded through [`Testbed::fos_of`].
    pub fn poke(&mut self, proc: ProcId) {
        let actor = self.proc_actor(proc);
        self.sim
            .post(SimDuration::ZERO, actor, ProcMsg::Timer { token: u64::MAX });
    }

    /// Caps a Process's capability space at `quota` live slots; the
    /// capabilities it already holds stay.
    pub fn set_capspace_quota(&mut self, proc: ProcId, quota: usize) {
        let ctrl = self.dir.borrow().proc(proc).expect("registered").ctrl;
        let actor = self.ctrl_actor(ctrl);
        self.sim
            .with_actor::<ControllerActor, _>(actor, |c| c.set_capspace_quota(proc, quota));
    }

    /// Inspects a Controller between events.
    pub fn with_controller<R>(
        &mut self,
        addr: ControllerAddr,
        f: impl FnOnce(&mut ControllerActor) -> R,
    ) -> R {
        let actor = self.ctrl_actor(addr);
        self.sim.with_actor::<ControllerActor, _>(actor, f)
    }

    /// Statically verifies every live Request plan on every Controller.
    ///
    /// Walks each Controller's object table with [`crate::verify::verify_table`]
    /// and returns the total number of plans checked, or the first defect
    /// found. Harnesses call this after building their plans to prove that
    /// everything they are about to invoke passes the same verifier the
    /// Controllers run at submission and admission.
    pub fn verify_all_plans(&mut self) -> Result<usize, crate::verify::VerifyError> {
        let ctrls: Vec<ControllerAddr> = self.ctrls.iter().map(|(addr, _)| *addr).collect();
        let mut total = 0;
        for addr in ctrls {
            total += self.with_controller(addr, |c| crate::verify::verify_table(c.table()))?;
        }
        Ok(total)
    }

    /// Starts the watchdog service (§3.6's ZooKeeper stand-in) on `node`'s
    /// host CPU: it pings every Controller and broadcasts `PeerFailed`
    /// notices on its own, so [`Testbed::kill_controller_silently`] failures
    /// are detected without harness help. Returns the watchdog's actor.
    pub fn start_watchdog(&mut self, node: NodeId) -> ActorId {
        let wd = crate::watchdog::WatchdogActor::new(
            Endpoint::cpu(node),
            self.dir.clone(),
            self.fabric.clone(),
        );
        let actor = self
            .sim
            .add_actor_on(node.0 as usize, "watchdog", Box::new(wd));
        self.sim
            .post(SimDuration::ZERO, actor, crate::watchdog::WatchdogMsg::Tick);
        actor
    }

    // ------------------------------------------------------------------
    // Failure injection (§3.6, §6)
    // ------------------------------------------------------------------

    /// Kills a Process; its Controller notices via the severed channel.
    pub fn kill_process(&mut self, proc: ProcId) {
        let actor = self.proc_actor(proc);
        self.sim.post(SimDuration::ZERO, actor, ProcMsg::Kill);
    }

    /// Kills a Controller *without* telling anyone — pair this with
    /// [`Testbed::start_watchdog`] to exercise real failure detection.
    pub fn kill_controller_silently(&mut self, addr: ControllerAddr) {
        let actor = self.ctrl_actor(addr);
        self.sim.post(SimDuration::ZERO, actor, CtrlMsg::Kill);
    }

    /// Kills a Controller; the watchdog notifies all peers after
    /// [`WATCHDOG_DETECT`].
    pub fn kill_controller(&mut self, addr: ControllerAddr) {
        let actor = self.ctrl_actor(addr);
        self.sim.post(SimDuration::ZERO, actor, CtrlMsg::Kill);
        for (peer, peer_actor) in self.ctrls.clone() {
            if peer != addr {
                self.sim.post(
                    WATCHDOG_DETECT,
                    peer_actor,
                    CtrlMsg::PeerFailed { peer: addr },
                );
            }
        }
    }

    /// Kills a node: its Controllers and Processes all fail (§3.6 "after a
    /// node failure, we inform the corresponding Controller to fail all
    /// Processes running in it").
    pub fn kill_node(&mut self, node: NodeId) {
        let victims_p: Vec<ProcId> = {
            let dir = self.dir.borrow();
            self.procs
                .iter()
                .filter(|(p, _)| dir.proc(*p).is_some_and(|e| e.endpoint.node == node))
                .map(|(p, _)| *p)
                .collect()
        };
        for p in victims_p {
            self.kill_process(p);
        }
        let victims_c: Vec<ControllerAddr> = {
            let dir = self.dir.borrow();
            self.ctrls
                .iter()
                .filter(|(a, _)| dir.ctrl(*a).is_some_and(|e| e.endpoint.node == node))
                .map(|(a, _)| *a)
                .collect()
        };
        for c in victims_c {
            self.kill_controller(c);
        }
    }

    /// Reboots a (dead or live) Controller: its epoch advances and every
    /// capability minted before becomes stale (§3.6).
    pub fn reboot_controller(&mut self, addr: ControllerAddr) {
        let actor = self.ctrl_actor(addr);
        self.sim.post(SimDuration::ZERO, actor, CtrlMsg::Reboot);
    }

    // ------------------------------------------------------------------
    // Common cluster shapes (§6 configurations)
    // ------------------------------------------------------------------

    /// Adds one Controller per node at the given location kind and returns
    /// their addresses, index-aligned with node ids.
    pub fn controllers_per_node(&mut self, on_snic: bool) -> Vec<ControllerAddr> {
        let n = self.fabric.borrow().topology().len();
        (0..n)
            .map(|i| {
                let node = NodeId(i as u32);
                self.add_controller(if on_snic {
                    CtrlPlacement::SmartNic(node)
                } else {
                    CtrlPlacement::HostCpu(node)
                })
            })
            .collect()
    }

    /// Adds a single shared Controller on `node`'s host CPU ("Shared HAL"
    /// configuration of §6.5) and returns it, repeated once per node for
    /// index compatibility with [`Testbed::controllers_per_node`].
    pub fn shared_controller(&mut self, node: NodeId) -> Vec<ControllerAddr> {
        let addr = self.add_controller(CtrlPlacement::HostCpu(node));
        vec![addr; self.fabric.borrow().topology().len()]
    }
}

/// Convenience: location of a Process on its node's host CPU.
pub fn cpu(node: u32) -> Endpoint {
    Endpoint::cpu(NodeId(node))
}

/// Convenience: a GPU endpoint.
pub fn gpu(node: u32) -> Endpoint {
    Endpoint::new(NodeId(node), Location::Gpu(0))
}

/// Convenience: an NVMe endpoint.
pub fn nvme(node: u32) -> Endpoint {
    Endpoint::new(NodeId(node), Location::Nvme(0))
}
