//! End-to-end tests of the baseline systems, plus the headline
//! FractOS-vs-baseline comparisons the paper reports (§6.5).

use fractos_baselines::faceverify::{deploy_baseline, BaselineClient, Start};
use fractos_baselines::paper_runtime;
use fractos_baselines::pipeline::{CentralDriver, DataPath};
use fractos_baselines::Peer;
use fractos_core::prelude::*;
use fractos_net::{Fabric, NetParams, NodeId, Topology};
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::FvClient;
use fractos_services::pipeline::{ChainDriver, PipelineStage};
use fractos_services::FvConfig;
use fractos_sim::{Runtime, RuntimeExt, Shared, SimDuration};

const IMG: u64 = 4096;

/// Runs the baseline app and returns (mean latency µs, network bytes,
/// network msgs, all matched).
fn run_baseline(batch: u64, requests: u64, in_flight: u64) -> (f64, u64, u64, bool) {
    let mut sim = paper_runtime(61);
    let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
    let dep = deploy_baseline(sim.as_mut(), &fabric, IMG, 256);
    let client_ep = fractos_net::Endpoint::cpu(NodeId(2));
    let client = sim.add_actor_on(
        2,
        "client",
        Box::new(BaselineClient::new(
            client_ep,
            dep.frontend_peer,
            fabric.clone(),
            IMG,
            batch,
            requests,
            in_flight,
        )),
    );
    sim.post(SimDuration::ZERO, client, Start);
    sim.run();
    sim.with_actor::<BaselineClient, _>(client, |c| {
        assert_eq!(c.samples.len() as u64, requests);
        let mean = c
            .samples
            .iter()
            .map(|s| s.latency().as_micros_f64())
            .sum::<f64>()
            / c.samples.len() as f64;
        let matched = c.samples.iter().all(|s| s.all_matched);
        let stats = fabric.borrow().stats().clone();
        (mean, stats.network_bytes(), stats.network_msgs(), matched)
    })
}

/// Runs the FractOS app and returns the same tuple (traffic counted from
/// after deployment, like the baseline's steady state).
fn run_fractos(batch: u64, requests: u64, in_flight: u64) -> (f64, u64, u64, bool) {
    let mut tb = Testbed::paper(61);
    let ctrls = tb.controllers_per_node(false);
    let _dep = deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    tb.reset_traffic();
    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        FvClient::new(IMG, batch, requests, in_flight),
    );
    tb.start_process(client);
    tb.run();
    let (mean, matched) = tb.with_service::<FvClient, _>(client, |c| {
        assert_eq!(c.samples.len() as u64, requests);
        let mean = c
            .samples
            .iter()
            .map(|s| s.latency().as_micros_f64())
            .sum::<f64>()
            / c.samples.len() as f64;
        (mean, c.samples.iter().all(|s| s.all_matched))
    });
    let stats = tb.traffic();
    (mean, stats.network_bytes(), stats.network_msgs(), matched)
}

#[test]
fn baseline_app_is_correct_but_slower_than_fractos() {
    let (base_lat, base_bytes, _base_msgs, base_ok) = run_baseline(8, 10, 1);
    let (fos_lat, fos_bytes, _fos_msgs, fos_ok) = run_fractos(8, 10, 1);
    assert!(base_ok, "baseline results must be correct");
    assert!(fos_ok, "FractOS results must be correct");
    assert!(
        fos_lat < base_lat,
        "FractOS must be faster: {fos_lat:.1} vs {base_lat:.1} µs"
    );
    // §6 headline: 47% faster and 3× less traffic. Our calibrated models
    // preserve the *shape* (FractOS wins on both axes at every batch size);
    // the factors land lower because this baseline is idealized relative to
    // real NFS/rCUDA deployments. The headline bench reports the measured
    // factors; here we gate on the ordering with margin.
    assert!(
        base_lat / fos_lat > 1.15,
        "speedup shape: baseline {base_lat:.1} µs vs FractOS {fos_lat:.1} µs"
    );
    assert!(
        base_bytes as f64 / fos_bytes as f64 > 1.8,
        "traffic shape: baseline {base_bytes} B vs FractOS {fos_bytes} B"
    );
}

#[test]
fn star_vs_faststar_vs_chain_ordering() {
    // The Fig 8 ordering: star > fast-star > chain for a data-heavy
    // pipeline.
    let stages = 4usize;
    let size = 64 * 1024u64;
    let iterations = 5u64;

    let run = |which: u8| -> f64 {
        let mut tb = Testbed::paper(71);
        let ctrls = tb.controllers_per_node(false);
        for i in 0..stages {
            let node = (i % 3) as u32;
            let p = tb.add_process(
                &format!("stage{i}"),
                cpu(node),
                ctrls[node as usize],
                PipelineStage::new(i, size),
            );
            tb.start_process(p);
            tb.run();
        }
        match which {
            0 => {
                let d = tb.add_process(
                    "star",
                    cpu(0),
                    ctrls[0],
                    CentralDriver::new(DataPath::ViaClient, stages, size, iterations),
                );
                tb.start_process(d);
                tb.run();
                tb.with_service::<CentralDriver, _>(d, |s| {
                    assert_eq!(s.latencies.len() as u64, iterations);
                    s.latencies.iter().map(|l| l.as_micros_f64()).sum::<f64>() / iterations as f64
                })
            }
            1 => {
                let d = tb.add_process(
                    "faststar",
                    cpu(0),
                    ctrls[0],
                    CentralDriver::new(DataPath::Direct, stages, size, iterations),
                );
                tb.start_process(d);
                tb.run();
                tb.with_service::<CentralDriver, _>(d, |s| {
                    assert_eq!(s.latencies.len() as u64, iterations);
                    s.latencies.iter().map(|l| l.as_micros_f64()).sum::<f64>() / iterations as f64
                })
            }
            _ => {
                let d = tb.add_process(
                    "chain",
                    cpu(0),
                    ctrls[0],
                    ChainDriver::new(stages, size, iterations),
                );
                tb.start_process(d);
                tb.run();
                tb.with_service::<ChainDriver, _>(d, |s| {
                    assert_eq!(s.latencies.len() as u64, iterations);
                    s.latencies.iter().map(|l| l.as_micros_f64()).sum::<f64>() / iterations as f64
                })
            }
        }
    };

    let star = run(0);
    let faststar = run(1);
    let chain = run(2);
    assert!(
        star > faststar && faststar > chain,
        "Fig 8 ordering violated: star {star:.1}, fast-star {faststar:.1}, chain {chain:.1} µs"
    );
}

#[test]
fn baseline_throughput_improves_with_in_flight() {
    let mut sim = paper_runtime(62);
    let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
    let dep = deploy_baseline(sim.as_mut(), &fabric, IMG, 256);
    let client_ep = fractos_net::Endpoint::cpu(NodeId(2));
    let mk = |sim: &mut dyn Runtime, in_flight| {
        sim.add_actor_on(
            2,
            "client",
            Box::new(BaselineClient::new(
                client_ep,
                dep.frontend_peer,
                fabric.clone(),
                IMG,
                8,
                12,
                in_flight,
            )),
        )
    };
    let seq = mk(sim.as_mut(), 1);
    sim.post(SimDuration::ZERO, seq, Start);
    let t0 = sim.now();
    sim.run();
    let span_seq = sim.now().duration_since(t0);

    let pipe = mk(sim.as_mut(), 4);
    sim.post(SimDuration::ZERO, pipe, Start);
    let t1 = sim.now();
    sim.run();
    let span_pipe = sim.now().duration_since(t1);
    assert!(
        span_pipe.as_secs_f64() < span_seq.as_secs_f64(),
        "pipelining helps the baseline too: {span_seq} vs {span_pipe}"
    );
    let _ = Peer {
        actor: dep.frontend,
        endpoint: client_ep,
    };
}
