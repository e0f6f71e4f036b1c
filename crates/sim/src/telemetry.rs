//! The continuous telemetry plane: virtual-time event sourcing behind
//! `Runtime::enable_telemetry`/`take_telemetry`.
//!
//! # Design
//!
//! Telemetry is *event-sourced*: instrumented components emit timestamped
//! points — counter deltas, gauge values, latency samples — at the instant
//! the underlying quantity changes, through [`crate::Ctx`] (or, for the
//! fabric model, a store of its own). The engine records no points of its
//! own, so the stream is the same whichever engine ran it. The periodic
//! time series the exporters publish (one row per sampling window) is
//! *derived* from those points after the run, by bucketing them at
//! period boundaries in virtual time (see `fractos-obs`). Nothing ever
//! polls live state: on the sharded engine shards advance round by round,
//! each to its own horizon, so a sampler reading peers' state would
//! observe backend-dependent values. Derived windows are instead a pure function
//! of the recorded points:
//!
//! - **counter deltas** and **samples** are summed (resp. folded into a
//!   [`crate::StreamHist`]) per window — order-independent, so the shard
//!   interleaving cannot leak into the output;
//! - **gauges** take the last value in the window, ordered by
//!   `(time, actor, ord)`; gauge series are single-writer by convention
//!   (the series name embeds the owning node/actor), which makes that
//!   order total and backend-independent.
//!
//! # Determinism rules
//!
//! The rules mirror the span subsystem ([`crate::span`]): recording
//! consumes **zero** RNG draws, never reads a wall clock (clippy's
//! `disallowed-methods` host-clock rule covers this module like every
//! other product module), and while disabled the store is `None` — no
//! allocation, no counters, no perturbation, so telemetry-off runs are
//! byte-identical to builds without the subsystem.
//!
//! The sampling *period* only parameterizes the derivation, not the run:
//! two runs with different periods execute identical event sequences.

use crate::engine::ActorId;
use crate::idmap::IdMap;
use crate::time::{SimDuration, SimTime};

/// What a telemetry point carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryKind {
    /// A delta to a monotone counter (bytes sent, faults injected, busy
    /// nanoseconds accumulated). Windows sum deltas, so emission order is
    /// irrelevant.
    Count(u64),
    /// An instantaneous level (inflight requests, queue depth). Windows
    /// keep the last value; the series must be single-writer.
    Gauge(u64),
    /// One latency/size observation, folded into a streaming histogram
    /// per window. Order-irrelevant.
    Sample(u64),
}

/// One telemetry point: a series name, a kind, and its position in
/// virtual time. `(actor, ord)` breaks ties among same-instant points of
/// one series exactly like span records do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Virtual time of the observation.
    pub time: SimTime,
    /// The actor that recorded it (or a harness sentinel for points
    /// sourced outside any actor, e.g. the fabric model).
    pub actor: ActorId,
    /// Per-actor emission index; `(actor, ord)` is unique and identical
    /// across backends, giving the canonical sort its total order.
    pub ord: u64,
    /// Dotted series name, e.g. `link.0-1.bytes` or `app.fv.latency_ns`.
    pub series: String,
    /// The observation.
    pub kind: TelemetryKind,
}

/// Accumulates [`TelemetryEvent`]s for one engine (or one shard of the
/// sharded engine), with per-actor ordinal counters like
/// [`crate::SpanStore`].
#[derive(Debug, Default)]
pub struct TelemetryStore {
    ords: IdMap<u32, u64>,
    events: Vec<TelemetryEvent>,
}

impl TelemetryStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        TelemetryStore::default()
    }

    /// Records one point on `actor` at `time`.
    pub fn record(&mut self, actor: ActorId, time: SimTime, series: String, kind: TelemetryKind) {
        let counter = self.ords.entry(actor.index() as u32).or_insert(0);
        let ord = *counter;
        *counter += 1;
        self.events.push(TelemetryEvent {
            time,
            actor,
            ord,
            series,
            kind,
        });
    }

    /// Drains the recorded events, leaving ordinal counters intact so
    /// later points keep minting fresh `(actor, ord)` keys.
    pub fn take(&mut self) -> Vec<TelemetryEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Sorts events into the canonical cross-backend order:
/// `(time, series, actor, ord)`. `(actor, ord)` is unique per engine
/// store, so engine-sourced events order totally; harness-sourced points
/// (sentinel actor) are order-free counter deltas, for which any stable
/// order yields identical derived windows.
pub fn sort_canonical_telemetry(events: &mut [TelemetryEvent]) {
    events.sort_by(|a, b| {
        (a.time, &a.series, a.actor.index(), a.ord).cmp(&(
            b.time,
            &b.series,
            b.actor.index(),
            b.ord,
        ))
    });
}

/// Sentinel actor id for telemetry sourced outside any actor (the fabric
/// model, harness probes). Not a registered actor; only used as a sort
/// key component.
pub const TELEMETRY_EXTERNAL: ActorId = ActorId::from_raw(u32::MAX);

/// Telemetry plane configuration: the virtual-time sampling period used
/// to derive window series from the recorded points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Window width in virtual time.
    pub period: SimDuration,
}

impl TelemetryConfig {
    /// Default sampling period (50 µs of virtual time — fine enough to
    /// resolve the µs-scale request phases the paper studies, coarse
    /// enough that exports stay compact).
    pub const DEFAULT_PERIOD: SimDuration = SimDuration::from_micros(50);

    /// Parses `FRACTOS_TELEMETRY`. Unset, empty, `0` or `off` disable the
    /// plane (the default). `1` or `on` enable it at
    /// [`DEFAULT_PERIOD`](TelemetryConfig::DEFAULT_PERIOD); otherwise the
    /// value is a period: `<n>ns`, `<n>us`, `<n>ms`, or a bare integer
    /// (microseconds).
    pub fn from_env() -> Option<Self> {
        TelemetryConfig::parse(std::env::var("FRACTOS_TELEMETRY").ok().as_deref())
    }

    /// Pure parser behind [`TelemetryConfig::from_env`] (testable without
    /// touching the process environment).
    pub fn parse(value: Option<&str>) -> Option<Self> {
        let v = value?.trim();
        match v {
            "" | "0" | "off" => None,
            "1" | "on" => Some(TelemetryConfig {
                period: TelemetryConfig::DEFAULT_PERIOD,
            }),
            _ => {
                let (digits, unit) = match v.find(|c: char| !c.is_ascii_digit()) {
                    Some(pos) => v.split_at(pos),
                    None => (v, "us"),
                };
                let n: u64 = digits.parse().ok()?;
                let ns_per_unit = match unit {
                    "ns" => 1,
                    "us" => 1_000,
                    "ms" => 1_000_000,
                    _ => return None,
                };
                let period = SimDuration::from_nanos(n.checked_mul(ns_per_unit)?);
                if period == SimDuration::ZERO {
                    None
                } else {
                    Some(TelemetryConfig { period })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn ords_are_per_actor_and_survive_take() {
        let mut s = TelemetryStore::new();
        s.record(
            ActorId::from_raw(0),
            at(1),
            "a".into(),
            TelemetryKind::Count(1),
        );
        s.record(
            ActorId::from_raw(1),
            at(1),
            "a".into(),
            TelemetryKind::Count(1),
        );
        s.record(
            ActorId::from_raw(0),
            at(2),
            "a".into(),
            TelemetryKind::Count(1),
        );
        let events = s.take();
        assert_eq!(
            events.iter().map(|e| e.ord).collect::<Vec<_>>(),
            vec![0, 0, 1]
        );
        s.record(
            ActorId::from_raw(0),
            at(3),
            "a".into(),
            TelemetryKind::Count(1),
        );
        assert_eq!(s.take()[0].ord, 2);
    }

    #[test]
    fn canonical_sort_orders_time_series_actor_ord() {
        let mut s = TelemetryStore::new();
        s.record(
            ActorId::from_raw(1),
            at(5),
            "b".into(),
            TelemetryKind::Gauge(2),
        );
        s.record(
            ActorId::from_raw(0),
            at(5),
            "b".into(),
            TelemetryKind::Gauge(1),
        );
        s.record(
            ActorId::from_raw(0),
            at(5),
            "a".into(),
            TelemetryKind::Gauge(3),
        );
        s.record(
            ActorId::from_raw(0),
            at(1),
            "z".into(),
            TelemetryKind::Gauge(4),
        );
        let mut events = s.take();
        sort_canonical_telemetry(&mut events);
        let keys: Vec<(u64, &str)> = events
            .iter()
            .map(|e| (e.time.as_nanos(), e.series.as_str()))
            .collect();
        assert_eq!(keys, vec![(1, "z"), (5, "a"), (5, "b"), (5, "b")]);
        assert_eq!(events[2].actor, ActorId::from_raw(0));
        assert_eq!(events[3].actor, ActorId::from_raw(1));
    }

    #[test]
    fn config_parsing() {
        assert_eq!(TelemetryConfig::parse(None), None);
        assert_eq!(TelemetryConfig::parse(Some("")), None);
        assert_eq!(TelemetryConfig::parse(Some("0")), None);
        assert_eq!(TelemetryConfig::parse(Some("off")), None);
        assert_eq!(
            TelemetryConfig::parse(Some("1")).map(|c| c.period),
            Some(TelemetryConfig::DEFAULT_PERIOD)
        );
        assert_eq!(
            TelemetryConfig::parse(Some("on")).map(|c| c.period),
            Some(TelemetryConfig::DEFAULT_PERIOD)
        );
        assert_eq!(
            TelemetryConfig::parse(Some("25")).map(|c| c.period),
            Some(SimDuration::from_micros(25))
        );
        assert_eq!(
            TelemetryConfig::parse(Some("250ns")).map(|c| c.period),
            Some(SimDuration::from_nanos(250))
        );
        assert_eq!(
            TelemetryConfig::parse(Some("2ms")).map(|c| c.period),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(TelemetryConfig::parse(Some("0ns")), None);
        assert_eq!(TelemetryConfig::parse(Some("5s")), None);
        assert_eq!(TelemetryConfig::parse(Some("nonsense")), None);
        // A period past `u64` nanoseconds is rejected, not a panic.
        assert_eq!(TelemetryConfig::parse(Some("18446744073709552")), None);
        assert_eq!(TelemetryConfig::parse(Some("18446744073709552ms")), None);
    }
}
