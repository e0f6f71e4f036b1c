//! The paper's motivating scenario (Fig 2): a cloud inference service on
//! disaggregated storage and GPU, run both ways.
//!
//! The FractOS deployment chains client → frontend → SSD → GPU → frontend
//! → client with a single NVMe→GPU data transfer; the baseline
//! (NFS + NVMe-oF + rCUDA) stars everything through the frontend. The
//! example prints per-request latency and the measured network traffic of
//! both, plus the paper's analytic message-complexity model.
//!
//! Run with: `cargo run --release --example inference_pipeline`

use fractos_baselines::faceverify::{deploy_baseline, BaselineClient, Start};
use fractos_core::msgmodel;
use fractos_core::prelude::*;
use fractos_net::{Fabric, NetParams, NodeId, Topology};
use fractos_services::deploy::deploy_faceverify;
use fractos_services::faceverify::FvClient;
use fractos_services::FvConfig;
use fractos_sim::{Shared, Sim, SimDuration};

const IMG: u64 = 4096;
const BATCH: u64 = 8;
const REQUESTS: u64 = 20;

fn main() {
    // ---- FractOS: fully distributed (green path in Fig 2) -------------
    let mut tb = Testbed::paper(7);
    let ctrls = tb.controllers_per_node(false);
    deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    tb.reset_traffic();
    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        FvClient::new(IMG, BATCH, REQUESTS, 1),
    );
    tb.start_process(client);
    tb.run();
    let (fos_lat, fos_ok) = tb.with_service::<FvClient, _>(client, |c| {
        let mean = c
            .samples
            .iter()
            .map(|s| s.latency().as_micros_f64())
            .sum::<f64>()
            / c.samples.len() as f64;
        (mean, c.samples.iter().all(|s| s.all_matched))
    });
    let fos_traffic = tb.traffic();

    // ---- Baseline: centralized star (red path in Fig 2) ----------------
    let mut sim = Sim::new(7);
    let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
    let dep = deploy_baseline(&mut sim, &fabric, IMG, 256);
    let bc = sim.add_actor_on(
        2,
        "client",
        Box::new(BaselineClient::new(
            fractos_net::Endpoint::cpu(NodeId(2)),
            dep.frontend_peer,
            fabric.clone(),
            IMG,
            BATCH,
            REQUESTS,
            1,
        )),
    );
    sim.post(SimDuration::ZERO, bc, Start);
    sim.run();
    let (base_lat, base_ok) = sim.with_actor::<BaselineClient, _>(bc, |c| {
        let mean = c
            .samples
            .iter()
            .map(|s| s.latency().as_micros_f64())
            .sum::<f64>()
            / c.samples.len() as f64;
        (mean, c.samples.iter().all(|s| s.all_matched))
    });
    let base_traffic = fabric.borrow().stats().clone();

    // ---- Report ---------------------------------------------------------
    assert!(fos_ok && base_ok, "both systems must verify correctly");
    println!("inference pipeline, batch {BATCH} × {IMG} B images, {REQUESTS} requests\n");
    println!("                    latency      net bytes    net msgs   data msgs");
    println!(
        "  FractOS (chain)   {:8.1} µs  {:>10}  {:>9}  {:>9}",
        fos_lat,
        fos_traffic.network_bytes(),
        fos_traffic.network_msgs(),
        fos_traffic.network_data_msgs(),
    );
    println!(
        "  Baseline (star)   {:8.1} µs  {:>10}  {:>9}  {:>9}",
        base_lat,
        base_traffic.network_bytes(),
        base_traffic.network_msgs(),
        base_traffic.network_data_msgs(),
    );
    println!(
        "\n  speedup {:.2}×, traffic reduction {:.2}×",
        base_lat / fos_lat,
        base_traffic.network_bytes() as f64 / fos_traffic.network_bytes() as f64
    );
    println!(
        "\nanalytic model (§2.1): star {} msgs vs chain {} msgs for 3 services (up to {:.1}×);",
        msgmodel::star_messages(3),
        msgmodel::chain_messages(3),
        msgmodel::flat_reduction(3)
    );
    println!(
        "control messages per request (§6.5): {} baseline vs {} FractOS",
        msgmodel::FACEVERIF_BASELINE_CONTROL_MSGS,
        msgmodel::FACEVERIF_FRACTOS_CONTROL_MSGS
    );
}
