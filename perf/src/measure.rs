//! One repeat of a workload: build, start, run, verify, and what it yields.
//!
//! Host time (`setup_s`, `wall_s`, the traced chunks) is what the simulator
//! costs on this machine. Everything in [`SimFacts`] is simulated: it is a
//! pure function of `(workload, size, seed)` and must repeat exactly.

use std::time::Instant;

use fractos_sim::{StreamHist, TelemetryConfig};

use crate::traced::{by_layer, LAYERS};
use crate::workloads::{build, Backend, LayerCounters, Spec};

/// How a repeat is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing observed: the run the end-to-end metrics time.
    Plain,
    /// Telemetry plane on at its default period. This is also what makes
    /// the sharded engine count its rounds (`runtime.sharded.*`).
    Telemetry,
    /// Causal span recording on.
    Spans,
    /// Under a `TracedRuntime`, in [`CHUNKS`] chunks of `events / CHUNKS`.
    Traced { events: u64 },
}

/// Equal-event chunks of a traced run.
pub const CHUNKS: usize = 4;

/// The simulated side of a repeat.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFacts {
    pub attempted: u64,
    pub failed: u64,
    /// Events of the timed region.
    pub events: u64,
    /// Virtual time at the end of the run.
    pub end_ns: u64,
    /// Virtual duration of the timed region.
    pub virt_ns: u64,
    pub lat_count: u64,
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    pub net_bytes: u64,
    pub net_msgs: u64,
    pub control_msgs: u64,
    pub data_msgs: u64,
    pub data_bytes: u64,
    pub verify_checks: u64,
    pub syscalls: u64,
    /// FNV-1a over events, end time, traffic totals, the latency
    /// histogram's buckets and the workload's output bytes.
    pub digest: u64,
}

/// Round counters of the sharded engine (a [`Mode::Telemetry`] run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardedRounds {
    pub rounds: u64,
    pub stalled_shard_rounds: u64,
    pub cross_msgs: u64,
}

/// Host time of one chunk of a traced run.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub wall_ns: f64,
    pub events: u64,
    /// `(busy ns, deliveries)` per layer, in `LAYERS` order.
    pub layers: Vec<(f64, u64)>,
    /// `Runtime::pending()` when the chunk ended.
    pub pending: usize,
}

/// Everything one repeat produced.
pub struct Repeat {
    pub setup_s: f64,
    pub wall_s: f64,
    pub sim: SimFacts,
    pub counters: LayerCounters,
    pub rounds: Option<ShardedRounds>,
    pub chunks: Vec<Chunk>,
}

/// Nearest-rank quantile; reorders `v`.
fn nearest_rank(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fractos_core::fnv1a(&bytes)
}

/// Runs `spec` once with `ops` operations.
pub fn repeat(spec: Spec, ops: u64, seed: u64, mode: Mode) -> Repeat {
    let t = Instant::now();
    let (mut world, handle) = build(spec, ops, seed, matches!(mode, Mode::Traced { .. }));
    let setup_s = t.elapsed().as_secs_f64();

    match mode {
        Mode::Telemetry => world.enable_telemetry(TelemetryConfig::DEFAULT_PERIOD),
        Mode::Spans => world.rt().enable_spans(),
        Mode::Plain | Mode::Traced { .. } => {}
    }
    let steps0 = world.rt().steps();
    let t0 = world.rt().now();
    let syscalls0 = world.rt().metrics().sum_prefix("ctrl.ops.");
    let busy0 = handle.as_ref().map(|h| by_layer(&h.snapshot()));

    let mut chunks = Vec::new();
    let t = Instant::now();
    world.start();
    match (mode, &handle, busy0) {
        (Mode::Traced { events }, Some(handle), Some(mut before)) => {
            let per_chunk = events.div_ceil(CHUNKS as u64).max(1);
            let mut steps_before = steps0;
            for i in 0..CHUNKS {
                let tc = Instant::now();
                if i + 1 < CHUNKS {
                    world.rt().run_with_limit(per_chunk);
                } else {
                    world.rt().run();
                }
                let wall_ns = tc.elapsed().as_nanos() as f64;
                let after = by_layer(&handle.snapshot());
                let steps = world.rt().steps();
                chunks.push(Chunk {
                    wall_ns,
                    events: steps - steps_before,
                    layers: after
                        .iter()
                        .zip(&before)
                        .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                        .collect(),
                    pending: world.rt().pending(),
                });
                steps_before = steps;
                before = after;
            }
        }
        _ => {
            world.rt().run();
        }
    }
    let wall_s = t.elapsed().as_secs_f64();

    let rt = world.rt();
    let events = rt.steps() - steps0;
    let end = rt.now();
    let syscalls = rt.metrics().sum_prefix("ctrl.ops.") - syscalls0;
    let rounds = (mode == Mode::Telemetry && spec.backend == Backend::Sharded).then(|| {
        let m = rt.metrics();
        ShardedRounds {
            rounds: m.counter("runtime.sharded.rounds"),
            stalled_shard_rounds: m.counter("runtime.sharded.stalled_shard_rounds"),
            cross_msgs: m.counter("runtime.sharded.cross_msgs"),
        }
    });
    let traffic = world.traffic();
    let mut outcome = world.finish();
    let counters = world.counters();
    // Nothing may stay in flight on a Controller after a drained run.
    if counters.ctrl_pending_ops != 0 {
        outcome.failed = outcome.failed.max(1);
    }

    let mut hist = StreamHist::new();
    for &ns in &outcome.lat_ns {
        hist.record(ns);
    }
    let verify = traffic.verify_counter();
    let totals = [
        events,
        end.as_nanos(),
        traffic.network_msgs(),
        traffic.network_bytes(),
        traffic.network_control_msgs(),
        traffic.network_data_msgs(),
        traffic.network_data_bytes(),
        outcome.output_digest,
    ];
    let digest = fnv_words(
        totals
            .into_iter()
            .chain(hist.cumulative_buckets().flat_map(|(hi, n)| [hi, n])),
    );
    let sim = SimFacts {
        attempted: outcome.attempted,
        failed: outcome.failed,
        events,
        end_ns: end.as_nanos(),
        virt_ns: end.duration_since(t0).as_nanos(),
        lat_count: outcome.lat_ns.len() as u64,
        lat_p50_ns: nearest_rank(&mut outcome.lat_ns, 0.50),
        lat_p99_ns: nearest_rank(&mut outcome.lat_ns, 0.99),
        net_bytes: traffic.network_bytes(),
        net_msgs: traffic.network_msgs(),
        control_msgs: traffic.network_control_msgs(),
        data_msgs: traffic.network_data_msgs(),
        data_bytes: traffic.network_data_bytes(),
        verify_checks: verify.submission_checks + verify.admission_checks,
        syscalls,
        digest,
    };
    Repeat {
        setup_s,
        wall_s,
        sim,
        counters,
        rounds,
        chunks,
    }
}

/// Median of `v` (mean of the middle two for an even count); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The chunks of a whole traced run.
pub struct Traced(pub Vec<Chunk>);

impl Traced {
    pub fn wall_ns(&self) -> f64 {
        self.0.iter().map(|c| c.wall_ns).sum()
    }

    pub fn events(&self) -> u64 {
        self.0.iter().map(|c| c.events).sum()
    }

    /// Busy nanoseconds and deliveries of one layer.
    pub fn layer(&self, layer: &str) -> (f64, u64) {
        let i = layer_index(layer);
        self.0.iter().fold((0.0, 0), |(ns, n), c| {
            (ns + c.layers[i].0, n + c.layers[i].1)
        })
    }

    /// Wall minus every layer's busy time: the engine's own.
    pub fn engine_self_ns(&self) -> f64 {
        self.wall_ns() - LAYERS.iter().map(|l| self.layer(l).0).sum::<f64>()
    }

    /// Host time per event in the last chunk over that in the first: 1.0
    /// when cost is linear in run length. Per event, because chunks can
    /// differ in size (the sharded engine overshoots a step limit).
    fn growth(&self, ns_of: impl Fn(&Chunk) -> f64) -> f64 {
        let per_event = |c: &Chunk| {
            if c.events == 0 {
                0.0
            } else {
                ns_of(c) / c.events as f64
            }
        };
        let (first, last) = (per_event(&self.0[0]), per_event(&self.0[self.0.len() - 1]));
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }

    pub fn wall_growth(&self) -> f64 {
        self.growth(|c| c.wall_ns)
    }

    /// Growth of the busy time of `layers` together.
    pub fn layer_growth(&self, layers: &[&str]) -> f64 {
        let idx: Vec<usize> = layers.iter().map(|l| layer_index(l)).collect();
        self.growth(|c| idx.iter().map(|&i| c.layers[i].0).sum())
    }

    pub fn pending_peak(&self) -> usize {
        self.0.iter().map(|c| c.pending).max().unwrap_or(0)
    }
}

fn layer_index(layer: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .unwrap_or_else(|| panic!("{layer} is not a layer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_of_q_n() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&mut v, 0.50), 50);
        assert_eq!(nearest_rank(&mut v, 0.99), 99);
        assert_eq!(nearest_rank(&mut v, 1.0), 100);
        assert_eq!(nearest_rank(&mut [7], 0.99), 7);
        assert_eq!(nearest_rank(&mut [], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        assert_ne!(fnv_words([1, 2]), fnv_words([2, 1]));
        assert_ne!(fnv_words([1, 2]), fnv_words([1, 3]));
        assert_eq!(fnv_words([]), fractos_core::fnv1a(&[]));
    }
}
