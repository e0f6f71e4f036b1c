//! Crash-chaos suite: crash-stop and crash-restart node failures under a
//! replicated service, exercising the full §3.6 recovery loop — watchdog
//! detection, death declaration with an epoch bump, capability revocation,
//! directory-routed failover, and client re-dispatch.
//!
//! Every run is replayable from `(seed, plan)`: the crash schedule is part
//! of the typed [`FaultPlan`], the engine drops deliveries to a down node
//! as a pure function of (delivery time, receiver node), and all recovery
//! milestones carry simulator timestamps — so the whole timeline is
//! byte-identical run to run and across backends; every crash test runs on
//! both backends in-process. CI sweeps this suite over a seed matrix
//! (`FRACTOS_CHAOS_SEED`).

use fractos_core::prelude::*;
use fractos_core::WatchdogActor;
use fractos_net::stats::{FaultCounter, FlowCounter, TrafficClass};
use fractos_net::{FaultPlan, NetParams, NodeId, Topology};
use fractos_services::replicated::{deploy_replicated, FailoverClient, RequestOutcome};
use fractos_sim::{ActorId, RuntimeKind, SimTime};

const ITERS: u64 = 60;
const SERVICE_US: u64 = 10;
const CRASH_AT_US: u64 = 1_000;
const RESTART_AT_US: u64 = 4_000;
const DEADLINE_US: u64 = 10_000;

/// Bound on the unavailability window (first post-crash failure to first
/// post-crash success): detection is 3 missed 200 µs pings, so recovery
/// must land well inside 2 ms.
const MTTR_BOUND_US: u64 = 2_000;

const BACKENDS: [RuntimeKind; 2] = [RuntimeKind::SingleThreaded, RuntimeKind::Sharded];

type Flows = Vec<((NodeId, NodeId, TrafficClass), FlowCounter)>;
type Faults = Vec<((NodeId, NodeId), FaultCounter)>;

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

fn chaos_seed() -> u64 {
    std::env::var("FRACTOS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(61)
}

/// Everything a crash run produces, for invariant and replay checks.
#[derive(Debug, PartialEq)]
struct CrashOut {
    outcomes: Vec<RequestOutcome>,
    completed: usize,
    latencies_ns: Vec<u64>,
    failures: Vec<(SimTime, usize)>,
    rehomes: Vec<(SimTime, usize, usize)>,
    redispatches: Vec<SimTime>,
    recoveries: Vec<SimTime>,
    declared: Vec<(ControllerAddr, SimTime, SimTime)>,
    wd_recovered: Vec<(ControllerAddr, SimTime)>,
    revocations: Vec<(ControllerAddr, SimTime)>,
    outage_drops: u64,
    steps: u64,
    end_ns: u64,
    flows: Flows,
    faults: Faults,
}

struct Scene {
    tb: Testbed,
    ctrls: Vec<ControllerAddr>,
    wd: ActorId,
    workers: Vec<ProcId>,
    client: ProcId,
}

/// Builds the recovery scene: Controllers on every node, the watchdog on
/// node 0, the "echo" service replicated on nodes 1 and 2 (registration
/// order = failover priority), and the failover client on node 0. The
/// bootstrap runs before the plan is armed, so the crash hits a warm,
/// mid-workload cluster.
fn build_scene(kind: RuntimeKind, seed: u64, plan: Option<FaultPlan>) -> Scene {
    let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), seed, kind);
    let ctrls = tb.controllers_per_node(false);
    let placements = [(cpu(1), ctrls[1]), (cpu(2), ctrls[2])];
    let dep = deploy_replicated(
        &mut tb,
        "echo",
        &placements,
        SimDuration::from_micros(SERVICE_US),
    );
    // The watchdog starts after the bootstrap: it re-arms its tick forever,
    // so the deploy helper's queue-draining runs must happen first.
    let wd = tb.start_watchdog(NodeId(0));
    tb.reset_traffic();
    let dir = tb.dir.clone();
    let client = tb.add_process(
        "client",
        cpu(0),
        ctrls[0],
        FailoverClient::new("echo", 2, ITERS, dir),
    );
    if let Some(plan) = plan {
        tb.install_fault_plan(plan, seed);
    }
    tb.start_process(client);
    Scene {
        tb,
        ctrls,
        wd,
        workers: dep.workers,
        client,
    }
}

fn collect(scene: &mut Scene) -> CrashOut {
    let Scene {
        tb,
        ctrls,
        wd,
        client,
        ..
    } = scene;
    let (outcomes, completed, latencies_ns, failures, rehomes, redispatches, recoveries) =
        tb.with_service::<FailoverClient, _>(*client, |c| {
            assert!(c.all_resolved(), "client left a request unresolved");
            (
                c.outcomes.clone(),
                c.outcomes
                    .iter()
                    .filter(|o| **o == RequestOutcome::Completed)
                    .count(),
                c.latencies.iter().map(|d| d.as_nanos()).collect::<Vec<_>>(),
                c.failures.clone(),
                c.rehomes.clone(),
                c.redispatches.clone(),
                c.recoveries.clone(),
            )
        });
    let (declared, wd_recovered) = tb
        .sim
        .with_actor::<WatchdogActor, _>(*wd, |w| (w.declared.clone(), w.recovered_at.clone()));
    let revocations = tb.with_controller(ctrls[0], |c| c.peer_revocations.clone());
    let traffic = tb.traffic();
    CrashOut {
        outcomes,
        completed,
        latencies_ns,
        failures,
        rehomes,
        redispatches,
        recoveries,
        declared,
        wd_recovered,
        revocations,
        outage_drops: tb.sim.metrics().counter("engine.outage_drops"),
        steps: tb.sim.steps(),
        end_ns: tb.now().as_nanos(),
        flows: traffic.flows().collect(),
        faults: traffic.fault_links().map(|(k, v)| (*k, *v)).collect(),
    }
}

fn run_crash(kind: RuntimeKind, seed: u64, plan: Option<FaultPlan>) -> CrashOut {
    let mut scene = build_scene(kind, seed, plan);
    scene.tb.run_until(us(DEADLINE_US));
    collect(&mut scene)
}

fn crash_stop_plan() -> FaultPlan {
    FaultPlan::new().crash_node(NodeId(1), us(CRASH_AT_US))
}

fn crash_restart_plan() -> FaultPlan {
    FaultPlan::new().crash_restart_node(NodeId(1), us(CRASH_AT_US), us(RESTART_AT_US))
}

/// Tentpole invariants under a crash-stop of the primary's node: every
/// request resolves (success or typed verdict, no hang), the watchdog
/// escalates to a real death declaration, capabilities minted by the dead
/// Controller are revoked everywhere, work re-homes to the survivor, and
/// the unavailability window is bounded.
#[test]
fn crash_stop_recovers_to_survivor() {
    let seed = chaos_seed();
    for kind in BACKENDS {
        let mut scene = build_scene(kind, seed, Some(crash_stop_plan()));
        scene.tb.run_until(us(DEADLINE_US));
        let ctrls = scene.ctrls.clone();
        let client = scene.client;
        let workers = scene.workers.clone();
        let out = collect(&mut scene);

        // Every request resolved; most completed (only the in-flight one may
        // end in a typed verdict after exhausting failover attempts).
        assert_eq!(out.outcomes.len() as u64, ITERS, "requests lost");
        assert!(
            out.completed as u64 >= ITERS - 1,
            "too few completions: {} of {ITERS} (seed {seed}, {kind:?})",
            out.completed
        );

        // The recovery pipeline demonstrably ran end to end.
        assert!(!out.failures.is_empty(), "client never observed the crash");
        assert_eq!(
            out.declared.iter().map(|(a, _, _)| *a).collect::<Vec<_>>(),
            vec![ctrls[1]],
            "watchdog did not declare the crashed Controller dead"
        );
        assert!(
            out.revocations.iter().any(|(a, _)| *a == ctrls[1]),
            "client's Controller never revoked the dead peer's capabilities"
        );
        assert_eq!(out.rehomes.len(), 1, "expected exactly one re-home");
        let (rehome_t, from, to) = out.rehomes[0];
        assert_eq!((from, to), (0, 1), "re-home must move primary -> survivor");
        assert_eq!(out.recoveries.len(), 1, "expected one recovery");

        // Crash-stop: the node never comes back, so no watchdog recovery.
        assert!(out.wd_recovered.is_empty(), "crash-stop node 'recovered'");
        assert!(
            out.outage_drops > 0,
            "no deliveries were dropped by the outage"
        );

        // Milestone ordering: crash <= first miss <= declared <= revoked (at
        // the client's Controller) and failure <= re-home <= re-dispatch <=
        // recovered.
        let crash = us(CRASH_AT_US);
        let (_, first_miss, declared_t) = out.declared[0];
        let revoke_t = out
            .revocations
            .iter()
            .find(|(a, _)| *a == ctrls[1])
            .map(|(_, t)| *t)
            .expect("checked above");
        assert!(crash <= first_miss && first_miss <= declared_t && declared_t <= revoke_t);
        let first_failure = out.failures[0].0;
        let recovered_t = out.recoveries[0];
        assert!(first_failure <= rehome_t && rehome_t <= recovered_t);
        assert!(
            out.redispatches.iter().all(|t| *t >= first_failure),
            "re-dispatch before the failure it answers"
        );

        // Bounded unavailability.
        let window = recovered_t.duration_since(crash);
        assert!(
            window <= SimDuration::from_micros(MTTR_BOUND_US),
            "unavailability window {window:?} exceeds {MTTR_BOUND_US} us (seed {seed}, {kind:?})"
        );

        // No capability leaks through the dead epoch: the client's space holds
        // nothing minted by the dead Controller, and the registry no longer
        // advertises the dead instance.
        scene.tb.with_controller(ctrls[0], |c| {
            assert!(
                !c.holds_cap_of(client, ctrls[1]),
                "client still holds a dead Controller's capability"
            );
            assert!(
                !c.kv_keys().iter().any(|k| k.starts_with("echo.0.")),
                "registry still advertises the dead instance"
            );
        });

        // The dead instance's Process is gone for good; the survivor routes.
        let dir = scene.tb.dir.borrow();
        assert!(dir.is_declared_dead(ctrls[1]), "death verdict not standing");
        assert!(dir.death_epoch(ctrls[1]) > 0, "death epoch not bumped");
        let route = dir.service_route("echo").expect("survivor must route");
        assert_eq!(route.proc, workers[1], "routing did not re-home");
    }
}

/// Crash-restart: the node reboots with a fresh epoch. The watchdog's
/// recovery probes notice the revived Controller and withdraw the verdict,
/// but the Processes that died with the node stay dead (§3.6 — their state
/// is gone), so the service keeps routing to the survivor.
#[test]
fn crash_restart_revives_controller_with_fresh_epoch() {
    let seed = chaos_seed();
    for kind in BACKENDS {
        let mut scene = build_scene(kind, seed, Some(crash_restart_plan()));
        let epoch_before = scene
            .tb
            .with_controller(scene.ctrls[1], |c| c.table().epoch());
        scene.tb.run_until(us(DEADLINE_US));
        let ctrls = scene.ctrls.clone();
        let workers = scene.workers.clone();
        let out = collect(&mut scene);

        // Declared dead during the outage, then observed again after reboot.
        assert_eq!(
            out.declared.iter().map(|(a, _, _)| *a).collect::<Vec<_>>(),
            vec![ctrls[1]]
        );
        assert_eq!(
            out.wd_recovered.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
            vec![ctrls[1]],
            "rebooted Controller not observed by recovery probes"
        );
        let recovered_at = out.wd_recovered[0].1;
        assert!(
            recovered_at >= us(RESTART_AT_US),
            "recovery observed before the restart"
        );

        // Fresh epoch: every pre-crash capability is stale (§3.6).
        let epoch_after = scene.tb.with_controller(ctrls[1], |c| c.table().epoch());
        assert!(
            epoch_after > epoch_before,
            "reboot did not advance the epoch"
        );

        // Verdict withdrawn, but the dead Process stays dead: routing still
        // prefers the survivor.
        {
            let dir = scene.tb.dir.borrow();
            assert!(!dir.is_declared_dead(ctrls[1]), "verdict not withdrawn");
            let route = dir.service_route("echo").expect("route");
            assert_eq!(route.proc, workers[1], "dead Process revived by restart");
            assert!(
                dir.proc(workers[0]).is_some_and(|p| !p.alive),
                "crashed Process marked alive after restart"
            );
        }

        // The revived Controller serves new Processes again.
        struct Probe {
            ok: bool,
        }
        impl Service for Probe {
            fn on_start(&mut self, fos: &Fos<Self>) {
                fos.request_create_new(0x9999, vec![], vec![], |s: &mut Self, res, _| {
                    s.ok = res.is_ok();
                });
            }
            fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {}
        }
        let probe = scene
            .tb
            .add_process("probe", cpu(1), ctrls[1], Probe { ok: false });
        scene.tb.start_process(probe);
        scene.tb.run_until(us(DEADLINE_US + 2_000));
        scene
            .tb
            .with_service::<Probe, _>(probe, |p| assert!(p.ok, "post-reboot syscall failed"));
    }
}

/// Determinism gate: the same `(seed, plan)` replays the whole recovery
/// timeline byte-identically — twice on each backend, and across the
/// single-threaded and sharded engines — for crash-stop and crash-restart.
#[test]
fn crash_recovery_replays_bit_identically() {
    let seed = chaos_seed();
    for (name, plan) in [
        ("crash-stop", crash_stop_plan as fn() -> FaultPlan),
        ("crash-restart", crash_restart_plan),
    ] {
        let [single, sharded] = BACKENDS.map(|kind| {
            let a = run_crash(kind, seed, Some(plan()));
            let b = run_crash(kind, seed, Some(plan()));
            assert_eq!(a, b, "{name} replay diverged on {kind:?}");
            a
        });
        assert_eq!(
            single, sharded,
            "{name} recovery timeline diverged across backends"
        );
    }
}

/// Acceptance gate: an armed-but-empty plan is bit-identical to no plan —
/// no outage drops, no Kill/Reboot posts, same steps, traffic and results.
#[test]
fn crash_empty_plan_is_neutral() {
    let base = run_crash(RuntimeKind::SingleThreaded, 61, None);
    let empty = run_crash(RuntimeKind::SingleThreaded, 61, Some(FaultPlan::default()));
    assert_eq!(base, empty, "empty plan perturbed the run");
    assert_eq!(base.outage_drops, 0, "outage drops without a crash plan");
    assert!(base.failures.is_empty(), "failures without a plan");
    assert_eq!(base.completed as u64, ITERS, "fault-free run lost requests");
}
