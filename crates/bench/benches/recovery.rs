//! Crash-recovery benchmark: MTTR attribution for a crash-stop node
//! failure under a replicated service (§3.6).
//!
//! The scene crashes the node hosting the primary instance mid-workload
//! and measures the recovery timeline milestone by milestone: crash →
//! watchdog detection (first missed ping) → death declaration (epoch
//! bump) → capability revocation at the client's Controller → typed
//! verdict at the client → re-home to the survivor → re-dispatch → first
//! post-crash completion. The components are consecutive deltas of the
//! timestamped milestones, so they sum *exactly* to the measured
//! unavailability window.
//!
//! `BENCH_recovery.json` (written at the repository root) contains only
//! simulation-derived integers — virtual timestamps, event counts,
//! request outcomes — which are deterministic for a fixed seed on both
//! backends, so repeated runs produce byte-identical files (CI diffs two
//! runs). Wall-clock timings are printed to stdout only.

use fractos_bench::report::Table;
use fractos_core::prelude::*;
use fractos_core::WatchdogActor;
use fractos_net::{FaultPlan, NetParams, NodeId, Topology};
use fractos_obs::Json;
use fractos_services::replicated::{deploy_replicated, FailoverClient, RequestOutcome};
use fractos_sim::{RuntimeKind, SimTime, SpanKind};

const SEED: u64 = 61;
const ITERS: u64 = 60;
const SERVICE_US: u64 = 10;
const CRASH_AT_US: u64 = 1_000;
const DEADLINE_US: u64 = 10_000;

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

fn out_path(p: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(p);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(p)
    }
}

/// One backend's deterministic recovery timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Timeline {
    /// `(milestone name, virtual ns)`, in causal order.
    milestones: Vec<(&'static str, u64)>,
    completed: u64,
    verdicts: u64,
    recovery_spans: Vec<(String, u64)>,
    steps: u64,
    end_ns: u64,
}

#[expect(
    clippy::disallowed_methods,
    reason = "host seconds per backend, printed beside the timeline and kept out of it"
)]
fn run(kind: RuntimeKind) -> (Timeline, f64) {
    let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), SEED, kind);
    tb.sim.enable_spans();
    let ctrls = tb.controllers_per_node(false);
    let placements = [(cpu(1), ctrls[1]), (cpu(2), ctrls[2])];
    deploy_replicated(
        &mut tb,
        "echo",
        &placements,
        SimDuration::from_micros(SERVICE_US),
    );
    let wd = tb.start_watchdog(NodeId(0));
    let dir = tb.dir.clone();
    let client = tb.add_process(
        "client",
        cpu(0),
        ctrls[0],
        FailoverClient::new("echo", 2, ITERS, dir),
    );
    tb.install_fault_plan(
        FaultPlan::new().crash_node(NodeId(1), us(CRASH_AT_US)),
        SEED,
    );
    tb.start_process(client);
    let wall = std::time::Instant::now();
    tb.run_until(us(DEADLINE_US));
    let wall_secs = wall.elapsed().as_secs_f64();

    let (first_miss, declared) = tb.sim.with_actor::<WatchdogActor, _>(wd, |w| {
        let (subject, miss, decl) = *w.declared.first().expect("death never declared");
        assert_eq!(subject, ctrls[1], "wrong Controller declared dead");
        (miss, decl)
    });
    let revoked = tb.with_controller(ctrls[0], |c| {
        c.peer_revocations
            .iter()
            .find(|(a, _)| *a == ctrls[1])
            .map(|(_, t)| *t)
            .expect("client's Controller never revoked the dead peer")
    });
    let (verdict, rehomed, redispatched, recovered, completed, verdicts) = tb
        .with_service::<FailoverClient, _>(client, |c| {
            assert!(c.all_resolved(), "client left a request unresolved");
            let completed = c
                .outcomes
                .iter()
                .filter(|o| **o == RequestOutcome::Completed)
                .count() as u64;
            (
                c.failures.first().expect("no failure observed").0,
                c.rehomes.first().expect("never re-homed").0,
                *c.redispatches.first().expect("never re-dispatched"),
                *c.recoveries.first().expect("never recovered"),
                completed,
                c.outcomes.len() as u64 - completed,
            )
        });
    let mut recovery_spans: Vec<(String, u64)> = Vec::new();
    for s in tb.sim.take_spans() {
        if s.kind == SpanKind::Recovery {
            match recovery_spans.iter_mut().find(|(l, _)| *l == s.label) {
                Some((_, n)) => *n += 1,
                None => recovery_spans.push((s.label.clone(), 1)),
            }
        }
    }

    let milestones = vec![
        ("crash", us(CRASH_AT_US).as_nanos()),
        ("detect", first_miss.as_nanos()),
        ("declare", declared.as_nanos()),
        ("revoke", revoked.as_nanos()),
        ("verdict", verdict.as_nanos()),
        ("rehome", rehomed.as_nanos()),
        ("redispatch", redispatched.as_nanos()),
        ("recovered", recovered.as_nanos()),
    ];
    // The timeline must be causal: each milestone at or after the one
    // before it, so consecutive deltas telescope exactly to the window.
    for w in milestones.windows(2) {
        assert!(
            w[0].1 <= w[1].1,
            "milestone {} ({} ns) precedes {} ({} ns)",
            w[1].0,
            w[1].1,
            w[0].0,
            w[0].1
        );
    }
    (
        Timeline {
            milestones,
            completed,
            verdicts,
            recovery_spans,
            steps: tb.sim.steps(),
            end_ns: tb.now().as_nanos(),
        },
        wall_secs,
    )
}

fn main() {
    let (single, wall_single) = run(RuntimeKind::SingleThreaded);
    let (sharded, wall_sharded) = run(RuntimeKind::Sharded);
    assert_eq!(
        single, sharded,
        "recovery timeline diverged across backends"
    );

    let crash = single.milestones[0].1;
    let recovered = single.milestones.last().expect("non-empty").1;
    let window = recovered - crash;
    let deltas: Vec<u64> = single
        .milestones
        .windows(2)
        .map(|w| w[1].1 - w[0].1)
        .collect();
    assert_eq!(
        deltas.iter().sum::<u64>(),
        window,
        "MTTR components do not sum to the unavailability window"
    );

    let mut t = Table::new(
        "Crash recovery: MTTR attribution (crash-stop of the primary's node)",
        &["milestone", "at (us)", "+delta (us)"],
    );
    t.row(&[
        "crash".into(),
        format!("{:.1}", crash as f64 / 1e3),
        String::new(),
    ]);
    for (i, d) in deltas.iter().enumerate() {
        let (name, at) = single.milestones[i + 1];
        t.row(&[
            name.into(),
            format!("{:.1}", at as f64 / 1e3),
            format!("{:.1}", *d as f64 / 1e3),
        ]);
    }
    t.print();
    println!(
        "  unavailability window: {:.1} us ({} requests: {} completed, {} by verdict)",
        window as f64 / 1e3,
        ITERS,
        single.completed,
        single.verdicts
    );
    println!(
        "  wall: single {:.1} ms, sharded {:.1} ms (stdout only; JSON is deterministic)",
        wall_single * 1e3,
        wall_sharded * 1e3
    );

    let components = single
        .milestones
        .windows(2)
        .map(|w| {
            Json::obj(vec![
                ("phase", Json::Str(w[1].0.into())),
                ("at_ns", Json::UInt(w[1].1)),
                ("delta_ns", Json::UInt(w[1].1 - w[0].1)),
            ])
        })
        .collect::<Vec<_>>();
    let spans = single
        .recovery_spans
        .iter()
        .map(|(l, n)| (l.as_str(), Json::UInt(*n)))
        .collect::<Vec<_>>();
    let doc = Json::obj(vec![
        ("workload", Json::Str("crash_recovery".into())),
        ("seed", Json::UInt(SEED)),
        (
            "plan",
            Json::obj(vec![
                ("crash_node", Json::UInt(1)),
                ("crash_at_ns", Json::UInt(crash)),
            ]),
        ),
        ("unavailability_ns", Json::UInt(window)),
        ("components", Json::Arr(components)),
        (
            "requests",
            Json::obj(vec![
                ("total", Json::UInt(ITERS)),
                ("completed", Json::UInt(single.completed)),
                ("verdicts", Json::UInt(single.verdicts)),
            ]),
        ),
        ("recovery_spans", Json::obj(spans)),
        (
            "engine",
            Json::obj(vec![
                ("events", Json::UInt(single.steps)),
                ("virtual_end_ns", Json::UInt(single.end_ns)),
            ]),
        ),
    ]);
    let bench_json = out_path("BENCH_recovery.json");
    std::fs::write(&bench_json, format!("{doc}\n")).expect("write BENCH_recovery.json");
    println!("\n  wrote {}", bench_json.display());
}
