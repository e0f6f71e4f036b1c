//! Structured, machine-readable snapshot of a run's counters and latency
//! summaries.
//!
//! The snapshot is deterministic across runtime backends: counters under
//! the `runtime.` prefix are excluded (they describe the engine itself,
//! e.g. sharded worker occupancy, and legitimately differ between
//! backends), and histogram means are computed over *sorted* samples so
//! floating-point summation order does not depend on event interleaving.
//! [`HistSummary`] is the one exact summary of a sample set in the
//! workspace (the streaming counterpart is `fractos_sim::StreamHist`).

use fractos_sim::{quantile_sorted, Metrics};

use crate::json::Json;

/// Exact summary statistics of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (summed in sorted order).
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// 50th percentile (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

impl HistSummary {
    /// Summarizes `samples` (any order; nearest-rank percentiles).
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        HistSummary {
            count: sorted.len() as u64,
            mean,
            min: sorted.first().copied().unwrap_or(0.0),
            p50: quantile_sorted(&sorted, 0.5),
            p95: quantile_sorted(&sorted, 0.95),
            p99: quantile_sorted(&sorted, 0.99),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::UInt(self.count)),
            ("mean", Json::Num(self.mean)),
            ("min", Json::Num(self.min)),
            ("p50", Json::Num(self.p50)),
            ("p95", Json::Num(self.p95)),
            ("p99", Json::Num(self.p99)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// A point-in-time copy of a run's counters plus the summaries of the
/// sample sets handed to [`MetricsSnapshot::with_histogram`], serializable
/// to JSON with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters in name order (minus the backend-specific `runtime.`
    /// namespace).
    pub counters: Vec<(String, u64)>,
    /// Sample-set summaries in name order.
    pub histograms: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// Captures the registry's counters. Counter iteration is already
    /// name-ordered (the registry is a BTree map), so the snapshot is
    /// deterministic.
    pub fn capture(metrics: &Metrics) -> Self {
        let counters = metrics
            .counters()
            .filter(|(name, _)| !name.starts_with("runtime."))
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        MetricsSnapshot {
            counters,
            histograms: Vec::new(),
        }
    }

    /// Adds the summary of `samples` under `name`, keeping name order.
    #[must_use]
    pub fn with_histogram(mut self, name: &str, samples: &[f64]) -> Self {
        let at = self.histograms.partition_point(|(n, _)| n.as_str() < name);
        self.histograms
            .insert(at, (name.to_string(), HistSummary::from_samples(samples)));
        self
    }

    /// Serializes the snapshot (field order fixed: counters, histograms).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_filters_runtime_namespace_and_sorts_means() {
        let mut m = Metrics::new();
        m.add("net.msgs", 3);
        m.add("runtime.sharded.active_workers.peak", 4);
        // Insertion order differs from sorted order; the mean must not
        // depend on it.
        let snap = MetricsSnapshot::capture(&m)
            .with_histogram("lat", &[5.0, 1.0, 3.0, 2.0, 4.0])
            .with_histogram("a", &[]);
        assert_eq!(snap.histograms[0].0, "a", "kept in name order");
        assert_eq!(snap.counters, vec![("net.msgs".to_string(), 3)]);
        let (name, h) = &snap.histograms[1];
        assert_eq!(name, "lat");
        assert_eq!(h.count, 5);
        assert!((h.mean - 3.0).abs() < 1e-12);
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 5.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut m = Metrics::new();
        m.add("a", 1);
        let s = MetricsSnapshot::capture(&m).to_json().to_string();
        assert_eq!(s, r#"{"counters":{"a":1},"histograms":{}}"#);
    }
}
