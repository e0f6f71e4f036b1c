//! Window derivation and export for the continuous telemetry plane.
//!
//! The simulator records telemetry as *events* — timestamped counter
//! deltas, gauge levels and latency samples (see `fractos_sim::telemetry`).
//! This module turns a canonically-sorted event list into periodic time
//! series (one row per virtual-time window) and renders them three ways:
//!
//! * [`TelemetryReport::to_json`] — the `BENCH_telemetry.json` document;
//! * [`TelemetryReport::prometheus`] — Prometheus text exposition
//!   (counters, gauges, and summary quantiles over the whole run);
//! * [`TelemetryReport::jsonl`] — one JSON object per `(series, window)`
//!   row, keys in sorted order, every time/value an integer (nanoseconds).
//!
//! Derivation is a pure function of the events: counter deltas and
//! samples fold order-independently per window, gauges keep the last
//! value in canonical `(time, series, actor, ord)` order. Every point
//! comes from an actor or the fabric, never from the engine, so every
//! export is identical across backends, repeat runs and chaos plans.

use std::collections::BTreeMap;

use fractos_sim::{SimDuration, StreamHist, TelemetryEvent, TelemetryKind};

use crate::json::Json;

/// What one derived series holds per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Summed counter deltas.
    Count,
    /// Last gauge level in the window.
    Gauge,
    /// A streaming histogram of samples.
    Sample,
}

impl SeriesKind {
    fn name(self) -> &'static str {
        match self {
            SeriesKind::Count => "count",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Sample => "sample",
        }
    }
}

/// Per-window value of one series.
#[derive(Debug, Clone)]
pub enum WindowValue {
    /// Sum of counter deltas in the window.
    Count(u64),
    /// Last gauge level observed in the window.
    Gauge(u64),
    /// Streaming histogram of the window's samples.
    Hist(StreamHist),
}

/// One derived series: its kind and the non-empty windows, keyed by
/// window start (nanoseconds of virtual time).
#[derive(Debug, Clone)]
pub struct Series {
    /// The series kind (fixed by the first event seen).
    pub kind: SeriesKind,
    /// Window start (ns) → value. Only windows with events appear.
    pub windows: BTreeMap<u64, WindowValue>,
}

impl Series {
    /// Total over the run: summed deltas for counters, last level for
    /// gauges, merged histogram for samples.
    pub fn total(&self) -> WindowValue {
        match self.kind {
            SeriesKind::Count => WindowValue::Count(
                self.windows
                    .values()
                    .map(|w| match w {
                        WindowValue::Count(c) => *c,
                        _ => 0,
                    })
                    .sum(),
            ),
            SeriesKind::Gauge => {
                WindowValue::Gauge(self.windows.values().next_back().map_or(0, |w| match w {
                    WindowValue::Gauge(g) => *g,
                    _ => 0,
                }))
            }
            SeriesKind::Sample => {
                let mut h = StreamHist::new();
                for w in self.windows.values() {
                    if let WindowValue::Hist(wh) = w {
                        h.merge_from(wh);
                    }
                }
                WindowValue::Hist(h)
            }
        }
    }
}

/// Periodic time series derived from the telemetry plane's event log.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Sampling window width in nanoseconds of virtual time.
    pub period_ns: u64,
    /// Derived series, name-ordered.
    pub series: BTreeMap<String, Series>,
}

impl TelemetryReport {
    /// Buckets `events` (must be canonically sorted; `Runtime::
    /// take_telemetry` and `Testbed::take_telemetry` return them that way)
    /// into windows of `period`.
    pub fn derive(events: &[TelemetryEvent], period: SimDuration) -> Self {
        let period_ns = period.as_nanos().max(1);
        let mut series: BTreeMap<String, Series> = BTreeMap::new();
        for ev in events {
            let window = (ev.time.as_nanos() / period_ns) * period_ns;
            let kind = match ev.kind {
                TelemetryKind::Count(_) => SeriesKind::Count,
                TelemetryKind::Gauge(_) => SeriesKind::Gauge,
                TelemetryKind::Sample(_) => SeriesKind::Sample,
            };
            let entry = series.entry(ev.series.clone()).or_insert_with(|| Series {
                kind,
                windows: BTreeMap::new(),
            });
            // A series name must carry one kind; a mismatch is an
            // instrumentation bug. Skip rather than corrupt the window.
            if entry.kind != kind {
                debug_assert!(false, "telemetry series {} changed kind", ev.series);
                continue;
            }
            match ev.kind {
                TelemetryKind::Count(d) => {
                    let slot = entry.windows.entry(window).or_insert(WindowValue::Count(0));
                    if let WindowValue::Count(c) = slot {
                        *c += d;
                    }
                }
                TelemetryKind::Gauge(v) => {
                    // Events arrive in canonical order, so overwriting
                    // keeps the last value of the window.
                    entry.windows.insert(window, WindowValue::Gauge(v));
                }
                TelemetryKind::Sample(v) => {
                    let slot = entry
                        .windows
                        .entry(window)
                        .or_insert_with(|| WindowValue::Hist(StreamHist::new()));
                    if let WindowValue::Hist(h) = slot {
                        h.record(v);
                    }
                }
            }
        }
        TelemetryReport { period_ns, series }
    }

    /// The `BENCH_telemetry.json` document: period, then every series with
    /// its windows. All values are integers (nanoseconds / raw counts), so
    /// the bytes are identical across backends and repeat runs.
    pub fn to_json(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|(name, s)| {
                let windows = s.windows.iter().map(|(t, w)| window_json(*t, w)).collect();
                (
                    name.clone(),
                    Json::obj(vec![
                        ("kind", Json::Str(s.kind.name().to_string())),
                        ("windows", Json::Arr(windows)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("period_ns", Json::UInt(self.period_ns)),
            ("series", Json::Obj(series)),
        ])
    }

    /// Prometheus text exposition of the run totals: counters as
    /// `fractos_counter_total`, gauges as `fractos_gauge` (final level),
    /// sample series as `fractos_sample` summaries with exact-bucket
    /// p50/p95/p99/p99.9. Deterministic: series iterate name-ordered and
    /// every value is an integer.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP fractos_counter_total Counter total over the run.\n");
        out.push_str("# TYPE fractos_counter_total counter\n");
        for (name, s) in &self.series {
            if let WindowValue::Count(c) = s.total() {
                out.push_str(&format!("fractos_counter_total{{series=\"{name}\"}} {c}\n"));
            }
        }
        out.push_str("# HELP fractos_gauge Final gauge level.\n");
        out.push_str("# TYPE fractos_gauge gauge\n");
        for (name, s) in &self.series {
            if let WindowValue::Gauge(g) = s.total() {
                out.push_str(&format!("fractos_gauge{{series=\"{name}\"}} {g}\n"));
            }
        }
        out.push_str("# HELP fractos_sample Streaming-histogram summary of sampled values.\n");
        out.push_str("# TYPE fractos_sample summary\n");
        for (name, s) in &self.series {
            if let WindowValue::Hist(h) = s.total() {
                for (q, v) in [
                    ("0.5", h.p50()),
                    ("0.95", h.p95()),
                    ("0.99", h.p99()),
                    ("0.999", h.p999()),
                ] {
                    out.push_str(&format!(
                        "fractos_sample{{series=\"{name}\",quantile=\"{q}\"}} {v}\n"
                    ));
                }
                out.push_str(&format!(
                    "fractos_sample_sum{{series=\"{name}\"}} {}\n",
                    h.sum()
                ));
                out.push_str(&format!(
                    "fractos_sample_count{{series=\"{name}\"}} {}\n",
                    h.count()
                ));
            }
        }
        out
    }

    /// Structured JSONL: one object per `(series, window)` row, keys in
    /// sorted order, all values integers. Rows iterate name- then
    /// time-ordered.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.series {
            for (t, w) in &s.windows {
                let mut fields: Vec<(&str, Json)> = vec![
                    ("kind", Json::Str(s.kind.name().to_string())),
                    ("series", Json::Str(name.clone())),
                    ("t_ns", Json::UInt(*t)),
                ];
                match w {
                    WindowValue::Count(c) => fields.push(("value", Json::UInt(*c))),
                    WindowValue::Gauge(g) => fields.push(("value", Json::UInt(*g))),
                    WindowValue::Hist(h) => {
                        // Sorted key order: count < kind < max < p50 <
                        // p95 < p99 < series < t_ns.
                        fields = vec![
                            ("count", Json::UInt(h.count())),
                            ("kind", Json::Str(s.kind.name().to_string())),
                            ("max", Json::UInt(h.max())),
                            ("p50", Json::UInt(h.p50())),
                            ("p95", Json::UInt(h.p95())),
                            ("p99", Json::UInt(h.p99())),
                            ("series", Json::Str(name.clone())),
                            ("t_ns", Json::UInt(*t)),
                        ];
                    }
                }
                out.push_str(&Json::obj(fields).to_string());
                out.push('\n');
            }
        }
        out
    }

    /// A compact fixed-width terminal table of the run totals (the Fig 2
    /// bench prints it when telemetry is enabled).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "series", "kind", "total", "p50", "p99", "max"
        ));
        for (name, s) in &self.series {
            match s.total() {
                WindowValue::Count(c) => out.push_str(&format!(
                    "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    name, "count", c, "-", "-", "-"
                )),
                WindowValue::Gauge(g) => out.push_str(&format!(
                    "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    name, "gauge", g, "-", "-", "-"
                )),
                WindowValue::Hist(h) => out.push_str(&format!(
                    "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    name,
                    "sample",
                    h.count(),
                    h.p50(),
                    h.p99(),
                    h.max()
                )),
            }
        }
        out
    }
}

fn window_json(t: u64, w: &WindowValue) -> Json {
    match w {
        WindowValue::Count(c) => {
            Json::obj(vec![("t_ns", Json::UInt(t)), ("value", Json::UInt(*c))])
        }
        WindowValue::Gauge(g) => {
            Json::obj(vec![("t_ns", Json::UInt(t)), ("value", Json::UInt(*g))])
        }
        WindowValue::Hist(h) => Json::obj(vec![
            ("t_ns", Json::UInt(t)),
            ("count", Json::UInt(h.count())),
            ("p50", Json::UInt(h.p50())),
            ("p95", Json::UInt(h.p95())),
            ("p99", Json::UInt(h.p99())),
            ("max", Json::UInt(h.max())),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_sim::{ActorId, SimTime, TelemetryStore};

    fn events() -> Vec<TelemetryEvent> {
        let mut s = TelemetryStore::new();
        let a = ActorId::from_raw(0);
        s.record(
            a,
            SimTime::from_nanos(10),
            "c".into(),
            TelemetryKind::Count(2),
        );
        s.record(
            a,
            SimTime::from_nanos(20),
            "c".into(),
            TelemetryKind::Count(3),
        );
        s.record(
            a,
            SimTime::from_nanos(120),
            "c".into(),
            TelemetryKind::Count(5),
        );
        s.record(
            a,
            SimTime::from_nanos(30),
            "g".into(),
            TelemetryKind::Gauge(7),
        );
        s.record(
            a,
            SimTime::from_nanos(40),
            "g".into(),
            TelemetryKind::Gauge(4),
        );
        s.record(
            a,
            SimTime::from_nanos(50),
            "lat".into(),
            TelemetryKind::Sample(100),
        );
        s.record(
            a,
            SimTime::from_nanos(60),
            "lat".into(),
            TelemetryKind::Sample(200),
        );
        let mut events = s.take();
        fractos_sim::sort_canonical_telemetry(&mut events);
        events
    }

    #[test]
    fn windows_bucket_by_period() {
        let r = TelemetryReport::derive(&events(), SimDuration::from_nanos(100));
        let c = &r.series["c"];
        assert_eq!(c.windows.len(), 2);
        assert!(matches!(c.windows[&0], WindowValue::Count(5)));
        assert!(matches!(c.windows[&100], WindowValue::Count(5)));
        let g = &r.series["g"];
        assert!(matches!(g.windows[&0], WindowValue::Gauge(4)));
        let lat = &r.series["lat"];
        let WindowValue::Hist(h) = &lat.windows[&0] else {
            panic!("sample series must hold a histogram");
        };
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn totals_fold_over_windows() {
        let r = TelemetryReport::derive(&events(), SimDuration::from_nanos(100));
        assert!(matches!(r.series["c"].total(), WindowValue::Count(10)));
        assert!(matches!(r.series["g"].total(), WindowValue::Gauge(4)));
        let WindowValue::Hist(h) = r.series["lat"].total() else {
            panic!("sample total must be a histogram");
        };
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 200);
    }

    #[test]
    fn prometheus_exposes_run_totals() {
        let r = TelemetryReport::derive(&events(), SimDuration::from_nanos(100));
        let prom = r.prometheus();
        assert!(prom.contains("fractos_counter_total{series=\"c\"} 10"));
        assert!(prom.contains("fractos_gauge{series=\"g\"} 4"));
        assert!(prom.contains("fractos_sample_count{series=\"lat\"} 2"));
    }

    #[test]
    fn jsonl_rows_are_sorted_key_integer_valued() {
        let r = TelemetryReport::derive(&events(), SimDuration::from_nanos(100));
        let jsonl = r.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"kind":"count","series":"c","t_ns":0,"value":5}"#
        );
        assert_eq!(
            lines[1],
            r#"{"kind":"count","series":"c","t_ns":100,"value":5}"#
        );
        assert_eq!(
            lines[2],
            r#"{"kind":"gauge","series":"g","t_ns":0,"value":4}"#
        );
        assert!(lines[3].starts_with(r#"{"count":2,"kind":"sample","max":"#));
        assert!(lines[3].contains(r#""series":"lat","t_ns":0"#));
    }

    #[test]
    fn derivation_is_independent_of_order_free_event_order() {
        // Counter and sample events may arrive in any order (shards race
        // to the shared fabric): the derived report must not change.
        let mut fwd = events();
        let mut rev: Vec<TelemetryEvent> = fwd.clone();
        rev.reverse();
        // Gauges rely on canonical order; restore it for the gauge
        // series only by re-sorting (counters/samples stay reversed
        // within equal keys — the point of the test).
        fractos_sim::sort_canonical_telemetry(&mut fwd);
        fractos_sim::sort_canonical_telemetry(&mut rev);
        let a = TelemetryReport::derive(&fwd, SimDuration::from_nanos(100));
        let b = TelemetryReport::derive(&rev, SimDuration::from_nanos(100));
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn summary_table_lists_each_series() {
        let r = TelemetryReport::derive(&events(), SimDuration::from_nanos(100));
        let table = r.summary_table();
        assert!(table.contains("series"));
        assert!(table.contains("lat"));
    }
}
