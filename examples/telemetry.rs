//! Continuous telemetry: sample a running system in virtual time.
//!
//! Reuses the quickstart echo shape, but arms the telemetry plane before
//! the measured phase. Services record counters, gauges and latency
//! samples through `Fos::telemetry_*`, and the fabric contributes per-link
//! byte/message series on its own; the engine records nothing of its
//! own, so the stream is the same on either engine. After the run the
//! events are derived into windowed time series and exported three ways:
//! a terminal summary table, JSONL rows, and a Prometheus text scrape.
//!
//! The plane is off by default and costs nothing while off — benches can
//! arm it from the environment with `FRACTOS_TELEMETRY=1` (or a period
//! such as `FRACTOS_TELEMETRY=200us`) without touching their results.
//!
//! Run with: `cargo run --example telemetry`

use fractos::obs::TelemetryReport;
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_sim::{SimDuration, SimTime};

/// Tag of the echo service's RPC.
const TAG_ECHO: u64 = 0x1111;
/// Tag of the client's reply continuation.
const TAG_REPLY: u64 = 0x2222;

/// An echo service that counts the requests it serves.
struct EchoService;

impl Service for EchoService {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.request_create_new(TAG_ECHO, vec![], vec![], |_s, res, fos| {
            fos.kv_put("echo", res.cid(), |_, res, _| {
                assert!(res.is_ok(), "publishing the endpoint failed");
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        // A counter delta: folded per sampling window into a rate series.
        fos.telemetry_count("app.echo.served", 1);
        let value = imm_at(&req.imms, 0).expect("value argument");
        fos.reply_via(req.caps[0], vec![imm(value + 1)], vec![]);
    }
}

/// A client that keeps a few calls in flight and records its own latency.
struct MeteredClient {
    target: u64,
    done: u64,
    inflight: u64,
    issued_at: Vec<SimTime>,
    echo: Option<fractos_cap::Cid>,
}

impl MeteredClient {
    fn call(&mut self, fos: &Fos<Self>) {
        let echo = self.echo.expect("discovered");
        self.inflight += 1;
        // A gauge: the level at each change, last value per window wins.
        fos.telemetry_gauge("app.client.inflight", self.inflight);
        self.issued_at.push(fos.now());
        fos.request_create_new(TAG_REPLY, vec![], vec![], move |_s, res, fos| {
            let reply = res.cid();
            fos.request_derive(echo, vec![imm(7)], vec![reply], |_s, res, fos| {
                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
            });
        });
    }
}

impl Service for MeteredClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("echo", |s: &mut Self, res, fos| {
            s.echo = Some(res.cid());
            for _ in 0..4 {
                s.call(fos);
            }
        });
    }

    fn on_request(&mut self, _req: IncomingRequest, fos: &Fos<Self>) {
        self.done += 1;
        self.inflight -= 1;
        fos.telemetry_gauge("app.client.inflight", self.inflight);
        // A sample: folded into a streaming histogram per window.
        if let Some(t0) = self.issued_at.get((self.done - 1) as usize) {
            let lat = fos.now().duration_since(*t0);
            fos.telemetry_sample("app.client.latency_ns", lat.as_nanos());
        }
        if self.done + self.inflight < self.target {
            self.call(fos);
        }
    }
}

fn main() {
    let mut tb = Testbed::paper(42);
    let ctrls = tb.controllers_per_node(false);

    let svc = tb.add_process("echo", cpu(0), ctrls[0], EchoService);
    tb.start_process(svc);
    tb.run();

    // Arm the plane only for the measured phase: boot traffic above is
    // invisible, everything below is sampled in 20 µs virtual-time
    // windows. Disabled runs skip every recording branch, so the
    // simulation itself is bit-identical with the plane on or off.
    let period = SimDuration::from_nanos(20_000);
    tb.enable_telemetry(period);

    let cli = tb.add_process(
        "client",
        cpu(1),
        ctrls[1],
        MeteredClient {
            target: 32,
            done: 0,
            inflight: 0,
            issued_at: Vec::new(),
            echo: None,
        },
    );
    tb.start_process(cli);
    tb.run();

    // Derivation is a pure function of the recorded events: counters sum
    // per window, gauges keep the last level, samples fold into streaming
    // histograms with exact-bucket tail quantiles. Every series is a
    // workload series — recorded by a service or the fabric — so both
    // engines export the same rows.
    let events = tb.take_telemetry();
    let report = TelemetryReport::derive(&events, period);

    println!("summary (workload series):");
    print!("{}", report.summary_table());

    println!("\nJSONL rows (first 8, workload series only):");
    for line in report.jsonl().lines().take(8) {
        println!("  {line}");
    }

    println!("\nPrometheus scrape:");
    for line in report.prometheus().lines() {
        println!("  {line}");
    }
}
