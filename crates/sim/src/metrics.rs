//! Counters and the streaming histogram for experiments.
//!
//! Experiments record named counters (e.g. per-link message counts). The
//! registry is owned by the simulation and exposed to actors through the
//! [`crate::engine::Ctx`]; benches read it after the run. Latency samples
//! either stream into a [`StreamHist`] (the telemetry plane) or are kept by
//! the client that measured them and summarized exactly by `fractos-obs`.

use std::collections::BTreeMap;

use crate::time::SimDuration;

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted slice by
/// nearest-rank, or 0 when empty.
///
/// This is the single reference implementation of the percentile math:
/// `fractos-obs`'s `HistSummary` and the property test pinning
/// [`StreamHist`] against a sorted reference both route through it, so
/// every exact-quantile consumer agrees byte-for-byte.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Sub-bucket resolution of [`StreamHist`]: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (≈ 1.6 %).
const SUB_BITS: u32 = 6;

/// A deterministic log-linear (HDR-style) streaming histogram over `u64`
/// values (the telemetry plane records integer nanoseconds).
///
/// Values are folded into fixed log-linear buckets at record time —
/// memory is bounded by the number of distinct buckets, not the sample
/// count, so the structure can absorb unbounded event streams. Quantiles
/// are *exact at bucket granularity*: the reported value is the upper
/// bound of the bucket holding the nearest-rank sample (clamped to the
/// observed min/max), within one bucket width of the exact sample. Bucket
/// boundaries are a pure function of the value, so merged histograms and
/// histograms built from differently interleaved streams are identical —
/// the cross-backend byte-identity of telemetry exports rests on this.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamHist {
    /// Occupied buckets only, keyed by bucket index; BTree order is
    /// ascending value order, which quantile walks rely on.
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl StreamHist {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        StreamHist::default()
    }

    /// Index of the bucket holding `v`. Values below `2^SUB_BITS` get
    /// exact singleton buckets; above that, the top `SUB_BITS` bits after
    /// the leading one select a linear sub-bucket within the octave.
    fn bucket_index(v: u64) -> u32 {
        if v < (1 << SUB_BITS) {
            return v as u32;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        ((shift + 1) << SUB_BITS) + ((v >> shift) & ((1 << SUB_BITS) - 1)) as u32
    }

    /// Inclusive upper bound of bucket `idx` (the value quantiles report).
    fn bucket_hi(idx: u32) -> u64 {
        if idx < (1 << SUB_BITS) {
            return u64::from(idx);
        }
        let shift = (idx >> SUB_BITS) - 1;
        let sub = u64::from(idx & ((1 << SUB_BITS) - 1));
        let lo = ((1 << SUB_BITS) + sub) << shift;
        lo + ((1u64 << shift) - 1)
    }

    /// Width of the bucket holding `v` — the error bound the property
    /// suite holds streaming quantiles to.
    #[must_use]
    pub fn bucket_width(v: u64) -> u64 {
        if v < (1 << SUB_BITS) {
            return 1;
        }
        let msb = 63 - v.leading_zeros();
        1u64 << (msb - SUB_BITS)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(StreamHist::bucket_index(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (exact integer arithmetic).
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty. Computed from the exact integer
    /// sum, so it is independent of record order.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Minimum recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum recorded value, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) at bucket granularity: the upper
    /// bound of the bucket holding the nearest-rank value, clamped to the
    /// observed `[min, max]`. Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                return StreamHist::bucket_hi(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// 50th percentile (bucket-exact).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 95th percentile (bucket-exact).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket-exact).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (bucket-exact) — the tail the streaming design
    /// exists for; an exact summary cannot report it without retaining
    /// every sample.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Folds another histogram into this one. Buckets are value-keyed, so
    /// merging is associative and commutative — per-shard histograms merge
    /// into the same bytes in any order.
    pub fn merge_from(&mut self, other: &StreamHist) {
        if other.count == 0 {
            return;
        }
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Cumulative `(inclusive upper bound, cumulative count)` pairs of the
    /// occupied buckets in ascending value order — the shape Prometheus
    /// histogram exposition (`le` buckets) wants.
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut cum = 0u64;
        self.buckets.iter().map(move |(&idx, &n)| {
            cum += n;
            (StreamHist::bucket_hi(idx), cum)
        })
    }
}

/// Named counters for one simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    /// Only the first touch of a name allocates.
    // analyze: hot-path
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => self.first_add(name, delta),
        }
    }

    #[cold]
    fn first_add(&mut self, name: &str, delta: u64) {
        self.counters.insert(name.to_string(), delta);
    }

    /// Increments the named counter by one.
    // analyze: hot-path
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all counter names matching a prefix.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters()
            .filter(move |(name, _)| name.starts_with(prefix))
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters_with_prefix(prefix).map(|(_, v)| v).sum()
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.counters.clear();
    }

    /// Folds another registry into this one: counters add. The sharded
    /// engine merges per-shard registries at the end of each run.
    pub fn merge_from(&mut self, other: &Metrics) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("msgs");
        m.add("msgs", 4);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn prefix_sum() {
        let mut m = Metrics::new();
        m.add("net.msgs.a", 2);
        m.add("net.msgs.b", 3);
        m.add("other", 7);
        assert_eq!(m.sum_prefix("net.msgs."), 5);
        assert_eq!(m.counters_with_prefix("net.").count(), 2);
    }

    #[test]
    fn stream_hist_bucket_bounds_are_monotone_and_cover() {
        // Every value maps to a bucket whose inclusive range contains it,
        // and bucket indices are monotone in the value.
        let mut prev_idx = 0u32;
        for v in (0..4096u64)
            .chain((1u64..40).map(|i| i * 997 * 131))
            .chain([u64::MAX / 2, u64::MAX - 1, u64::MAX])
        {
            let idx = StreamHist::bucket_index(v);
            assert!(idx >= prev_idx || v < 4096, "indices monotone");
            let hi = StreamHist::bucket_hi(idx);
            assert!(v <= hi, "value {v} above its bucket hi {hi}");
            assert!(
                hi - v < StreamHist::bucket_width(v),
                "value {v} further than one width from hi {hi}"
            );
            if v >= 4096 {
                prev_idx = idx;
            }
        }
    }

    #[test]
    fn stream_hist_small_values_are_exact() {
        let mut h = StreamHist::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        // Values below 2^SUB_BITS land in singleton buckets: quantiles
        // are exact, matching the sorted reference bit-for-bit.
        assert_eq!(h.p50(), 3);
        assert_eq!(h.p95(), 5);
        assert_eq!(h.p99(), 5);
        assert_eq!(h.p999(), 5);
    }

    #[test]
    fn stream_hist_quantiles_within_one_bucket_width() {
        let mut h = StreamHist::new();
        let mut exact: Vec<f64> = Vec::new();
        // A deterministic spread over five decades.
        let mut v = 13u64;
        for _ in 0..4000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 10_000_000;
            h.record(v);
            exact.push(v as f64);
        }
        exact.sort_by(|a, b| a.total_cmp(b));
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let want = quantile_sorted(&exact, q) as u64;
            let got = h.quantile(q);
            let width = StreamHist::bucket_width(want.max(1));
            assert!(
                got.abs_diff(want) <= width,
                "q={q}: streaming {got} vs exact {want} off by more than {width}"
            );
        }
    }

    #[test]
    fn stream_hist_merge_is_order_independent() {
        let values: Vec<u64> = (0..500u64).map(|i| i * i % 100_000).collect();
        let mut whole = StreamHist::new();
        let mut a = StreamHist::new();
        let mut b = StreamHist::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = StreamHist::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = StreamHist::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn stream_hist_empty_is_zeroes() {
        let h = StreamHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.cumulative_buckets().count(), 0);
    }

    #[test]
    fn stream_hist_cumulative_buckets_end_at_count() {
        let mut h = StreamHist::new();
        for v in [10u64, 10, 5_000, 120_000, 120_001] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.cumulative_buckets().collect();
        assert_eq!(buckets.last().map(|&(_, c)| c), Some(5));
        assert!(buckets
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn quantile_sorted_is_nearest_rank() {
        let sorted = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.25), 3.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.95), 9.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 9.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("a");
        m.reset();
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.counters().count(), 0);
    }
}
