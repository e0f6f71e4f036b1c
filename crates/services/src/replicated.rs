//! Replicated service instances with deterministic failover (§3.6).
//!
//! FractOS translates node failures into typed errors, but an application
//! that wants to *survive* them needs a second instance to talk to. This
//! module provides the minimal replication layer the recovery experiments
//! exercise:
//!
//! * [`ReplicaWorker`] — one service instance; publishes its work Request
//!   under `{name}.{i}.req` and answers invocations after a fixed service
//!   time;
//! * [`deploy_replicated`] — places N instances on given (endpoint,
//!   Controller) pairs and registers each with the cluster directory's
//!   service registry;
//! * [`FailoverClient`] — routes every request through
//!   `Directory::service_route` (first registered instance with no
//!   standing death verdict), and on a typed failure or reply timeout
//!   re-routes and re-dispatches, recording the re-home/re-dispatch
//!   milestones the MTTR attribution consumes.
//!
//! Failover is deterministic: routing is a pure function of registration
//! order and the directory's verdict state, and every timestamp comes from
//! the simulator, so recovery timelines replay bit-identically from
//! `(seed, plan)` on both backends.

use fractos_cap::Cid;
use fractos_core::directory::ServiceInstance;
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_core::Directory;
use fractos_devices::proto::{imm, imm_at};
use fractos_sim::{Shared, SimDuration, SimTime};

/// Worker Request tag. Imms: `[attempt id]`. Caps: `[reply Request]`.
pub const TAG_REPLICA_WORK: u64 = 0x0700;

/// Client reply tag. Imms (baked at creation): `[attempt id]`.
pub const TAG_REPLICA_REPLY: u64 = 0x0701;

/// Client-side reply deadline per attempt. Generous against the retransmit
/// budget (`RetryPolicy::syscall_timeout` = 5 ms) so the typed §3.6 verdict normally
/// arrives first and the timer is only the backstop for replies lost
/// after the invoke was acknowledged.
pub const REPLY_TIMEOUT: SimDuration = SimDuration::from_micros(2_000);

/// Redispatch attempts per logical request before the client gives up and
/// records the request as resolved-by-verdict.
pub const FAILOVER_ATTEMPTS: u32 = 10;

/// One replicated service instance.
pub struct ReplicaWorker {
    /// Service name (registry keys are `{name}.{index}.req`).
    pub name: String,
    /// Instance index in registration order.
    pub index: usize,
    /// Simulated service time per request.
    pub service: SimDuration,
    /// Requests served (tests).
    pub served: u64,
    /// Set once the work Request is published.
    pub ready: bool,
}

impl ReplicaWorker {
    /// Creates instance `index` of `name` with the given service time.
    pub fn new(name: &str, index: usize, service: SimDuration) -> Self {
        ReplicaWorker {
            name: name.to_string(),
            index,
            service,
            served: 0,
            ready: false,
        }
    }
}

impl Service for ReplicaWorker {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let key = format!("{}.{}.req", self.name, self.index);
        fos.publish(&key, TAG_REPLICA_WORK, vec![], |s: &mut Self, res, _| {
            s.ready = res.is_ok();
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_REPLICA_WORK {
            return;
        }
        let [reply] = req.caps[..] else { return };
        self.served += 1;
        let service = self.service;
        fos.sleep(service, move |_s: &mut Self, fos| {
            fos.request_invoke(reply, |_, _, _| {});
        });
    }
}

/// Handles of a deployed replicated service.
pub struct ReplicatedDeployment {
    /// The service name.
    pub name: String,
    /// Worker Processes, in registration (= routing-priority) order.
    pub workers: Vec<ProcId>,
    /// The directory's view of the instances, index-aligned with `workers`.
    pub instances: Vec<ServiceInstance>,
}

/// Deploys one [`ReplicaWorker`] per `(endpoint, controller)` placement,
/// registers each with the directory's service registry (registration
/// order is failover priority), and runs the bootstrap to completion.
pub fn deploy_replicated(
    tb: &mut Testbed,
    name: &str,
    placements: &[(Endpoint, ControllerAddr)],
    service: SimDuration,
) -> ReplicatedDeployment {
    let mut workers = Vec::new();
    for (i, &(ep, ctrl)) in placements.iter().enumerate() {
        let w = tb.add_process(
            &format!("{name}-r{i}"),
            ep,
            ctrl,
            ReplicaWorker::new(name, i, service),
        );
        tb.dir.borrow_mut().register_service_instance(name, w, ctrl);
        tb.start_process(w);
        workers.push(w);
    }
    tb.run();
    for &w in &workers {
        tb.with_service::<ReplicaWorker, _>(w, |s| {
            assert!(s.ready, "replica bootstrap failed");
        });
    }
    let instances = tb.dir.borrow().service_instances(name);
    ReplicatedDeployment {
        name: name.to_string(),
        workers,
        instances,
    }
}

/// How one logical client request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// A reply arrived (possibly after failover).
    Completed,
    /// Every failover attempt resolved with a typed verdict; the request
    /// was abandoned — resolved, not hung (§3.6).
    Verdict,
}

/// A client that survives instance failure by re-routing through the
/// directory's service registry.
///
/// Requests are sequential: route, dispatch, await the reply. A typed
/// failure on any hop (derive, invoke, or the §3.6 translation of a dead
/// Controller) or a reply timeout triggers failover: re-route, and
/// re-dispatch to whatever instance the registry now prefers. Every
/// milestone is timestamped for the recovery attribution.
pub struct FailoverClient {
    name: String,
    replicas: usize,
    dir: Shared<Directory>,
    /// Directory instances in registration order (fetched at start).
    instances: Vec<ServiceInstance>,
    /// Worker Request capabilities, index-aligned with `instances`.
    work_caps: Vec<Cid>,
    /// Routed instance index of the in-flight attempt.
    current: usize,
    /// Monotonic attempt counter (stale replies and timers are ignored).
    attempt: u64,
    /// Attempt id awaited, if any.
    outstanding: Option<u64>,
    /// Failover attempts burned on the current logical request.
    tries: u32,
    issued_at: SimTime,
    remaining: u64,
    /// Whether a failure has been observed with no success since.
    in_outage: bool,
    /// Completed request latencies (issue of the *first* attempt to reply).
    pub latencies: Vec<SimDuration>,
    /// Outcome of every logical request, in issue order.
    pub outcomes: Vec<RequestOutcome>,
    /// Typed failures / timeouts observed: `(when, instance index)`.
    pub failures: Vec<(SimTime, usize)>,
    /// Route changes: `(when, from instance, to instance)`.
    pub rehomes: Vec<(SimTime, usize, usize)>,
    /// Failover re-dispatch timestamps.
    pub redispatches: Vec<SimTime>,
    /// First success after each outage window.
    pub recoveries: Vec<SimTime>,
}

impl FailoverClient {
    /// Creates a client driving `iterations` requests against `name`
    /// (deployed with `replicas` instances).
    pub fn new(name: &str, replicas: usize, iterations: u64, dir: Shared<Directory>) -> Self {
        FailoverClient {
            name: name.to_string(),
            replicas,
            dir,
            instances: Vec::new(),
            work_caps: Vec::new(),
            current: 0,
            attempt: 0,
            outstanding: None,
            tries: 0,
            issued_at: SimTime::ZERO,
            remaining: iterations,
            in_outage: false,
            latencies: Vec::new(),
            outcomes: Vec::new(),
            failures: Vec::new(),
            rehomes: Vec::new(),
            redispatches: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// All logical requests resolved (success or typed verdict)?
    pub fn all_resolved(&self) -> bool {
        self.remaining == 0 && self.outstanding.is_none()
    }

    /// The registry's current pick, as an index into `instances`.
    fn route(&self) -> Option<usize> {
        let inst = self.dir.borrow().service_route(&self.name)?;
        self.instances.iter().position(|i| *i == inst)
    }

    fn next_request(&mut self, fos: &Fos<Self>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.tries = 0;
        self.issued_at = fos.now();
        match self.route() {
            Some(idx) => {
                self.current = idx;
                self.dispatch(fos);
            }
            None => {
                // No live instance at all: resolved by verdict.
                self.outcomes.push(RequestOutcome::Verdict);
                self.next_request(fos);
            }
        }
    }

    fn dispatch(&mut self, fos: &Fos<Self>) {
        self.attempt += 1;
        let attempt = self.attempt;
        self.outstanding = Some(attempt);
        let work = self.work_caps[self.current];
        let imms = vec![imm(attempt)];
        let reply = vec![(TAG_REPLICA_REPLY, vec![imm(attempt)])];
        fos.invoke_with_or(work, imms, vec![], reply, move |s, _err, fos| {
            s.attempt_failed(attempt, fos)
        });
        // Backstop for replies lost after the invoke was acknowledged
        // (e.g. the worker's node died mid-service).
        fos.sleep(REPLY_TIMEOUT, move |s: &mut Self, fos| {
            s.attempt_failed(attempt, fos);
        });
    }

    fn attempt_failed(&mut self, attempt: u64, fos: &Fos<Self>) {
        if self.outstanding != Some(attempt) {
            return; // stale timer or duplicate verdict
        }
        self.outstanding = None;
        let now = fos.now();
        self.failures.push((now, self.current));
        self.in_outage = true;
        self.tries += 1;
        if self.tries >= FAILOVER_ATTEMPTS {
            self.outcomes.push(RequestOutcome::Verdict);
            self.next_request(fos);
            return;
        }
        match self.route() {
            Some(next) => {
                if next != self.current {
                    self.rehomes.push((now, self.current, next));
                    self.current = next;
                    self.redispatches.push(now);
                    self.dispatch(fos);
                } else {
                    // The registry still prefers the instance that just
                    // failed (verdict not yet standing, or the failure
                    // was transient): back off one detection period and
                    // retry the route.
                    let tries = self.tries;
                    fos.sleep(
                        SimDuration::from_micros(100) * u64::from(tries),
                        move |s: &mut Self, fos| {
                            s.redispatches.push(fos.now());
                            s.dispatch(fos);
                        },
                    );
                }
            }
            None => {
                self.outcomes.push(RequestOutcome::Verdict);
                self.next_request(fos);
            }
        }
    }
}

impl Service for FailoverClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        // One lookup per instance, in registration order. If bootstrap
        // fails no request is issued, which `all_resolved` reports.
        let lookups = (0..self.replicas)
            .map(|i| Syscall::KvGet {
                key: format!("{}.{i}.req", self.name),
            })
            .collect();
        fos.chain(lookups, |s: &mut Self, res, fos| {
            let Ok(work_caps) = res else {
                return;
            };
            s.work_caps = work_caps;
            s.instances = s.dir.borrow().service_instances(&s.name);
            debug_assert_eq!(s.instances.len(), s.replicas);
            s.next_request(fos);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_REPLICA_REPLY {
            return;
        }
        let attempt = imm_at(&req.imms, 0).unwrap_or(0);
        if self.outstanding != Some(attempt) {
            return; // late reply for an attempt already failed over
        }
        self.outstanding = None;
        self.latencies
            .push(fos.now().duration_since(self.issued_at));
        self.outcomes.push(RequestOutcome::Completed);
        if self.in_outage {
            self.in_outage = false;
            self.recoveries.push(fos.now());
        }
        self.next_request(fos);
    }
}
