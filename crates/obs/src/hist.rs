//! Fixed-bucket log2 histograms.
//!
//! A `HistCore` is 64 atomic buckets plus exact `count`, `sum`, and `max`
//! registers. Values land in the bucket indexed by their bit length
//! (`64 - leading_zeros`): bucket 0 holds zero, bucket `i` holds
//! `2^(i-1) ..= 2^i - 1`, and everything with 63 or more significant bits
//! saturates into the last bucket. Recording is wait-free (three or four
//! relaxed atomic RMWs); percentiles are reconstructed from the buckets at
//! snapshot time, so the hot path never sorts or stores samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets per histogram.
pub const BUCKETS: usize = 64;

/// Bucket index for a recorded value: its bit length, saturated so the top
/// bucket is open-ended.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper edge of bucket `i` (`2^i - 1`); the top bucket has no
/// finite edge and reports the exact observed max instead.
#[inline]
fn bucket_upper_edge(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The shared mutable core behind a [`crate::Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    pub(crate) fn new() -> HistCore {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Wait-free; relaxed ordering is enough
    /// because snapshots only need eventual per-instrument consistency.
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram, from which percentiles, the
/// mean, and Prometheus `_bucket`/`_sum`/`_count` series are derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` = values of bit length `i`).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow, like Prometheus
    /// counters; irrelevant at the microsecond magnitudes recorded here).
    pub sum: u64,
    /// Exact maximum observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (used as the merge identity).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Pointwise merge of two snapshots, as if every observation had been
    /// recorded into one histogram.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// Upper bound on the `q`-quantile (`0.0 ..= 1.0`): the upper edge of
    /// the first bucket whose cumulative count reaches rank `ceil(q *
    /// count)`. Within-bucket error is at most 2x (log2 buckets); the top
    /// bucket and `q = 1.0` report the exact max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_edge(i).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Cumulative Prometheus-style `(le, count)` pairs: one per non-empty
    /// prefix boundary actually used, always ending with the `+Inf` total.
    /// Only edges up to the highest occupied bucket are emitted, so idle
    /// histograms stay one line instead of sixty-four.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let top = self.buckets.iter().rposition(|&n| n > 0);
        let mut out = Vec::new();
        let mut cum = 0u64;
        if let Some(top) = top {
            for i in 0..=top.min(62) {
                cum += self.buckets[i];
                out.push((bucket_upper_edge(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket boundaries: zero gets bucket 0, powers of two open a new
    /// bucket, and `2^i - 1` closes bucket `i`.
    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for bits in 1..63 {
            let lo = 1u64 << (bits - 1);
            let hi = (1u64 << bits) - 1;
            assert_eq!(bucket_index(lo), bits, "2^{}", bits - 1);
            assert_eq!(bucket_index(hi), bits, "2^{bits}-1");
        }
    }

    /// Everything with 63+ significant bits saturates into the last bucket
    /// instead of indexing out of range, and the exact max survives.
    #[test]
    fn saturation_into_top_bucket() {
        let h = HistCore::new();
        for v in [1u64 << 62, (1u64 << 63) - 1, 1u64 << 63, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 4);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, u64::MAX);
        // The top bucket reports the observed max, not a fake 2^63 edge.
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    /// Percentiles reconstructed from buckets: exact at bucket edges, at
    /// most one bucket (2x) above the true value inside a bucket.
    #[test]
    fn percentile_extraction() {
        let h = HistCore::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // True p50 = 50; bucket edge answer is 63 (bucket 32..=63).
        assert_eq!(s.p50(), 63);
        // True p95 = 95, p99 = 99; both land in bucket 64..=127, whose
        // edge is clamped to the observed max.
        assert_eq!(s.p95(), 100);
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 100);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    /// Empty histograms answer 0 everywhere instead of NaN or panicking.
    #[test]
    fn empty_histogram_is_all_zero() {
        let s = HistCore::new().snapshot();
        assert_eq!(s, HistogramSnapshot::empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cumulative_buckets().is_empty());
    }

    /// Merge behaves as if both observation streams hit one histogram.
    #[test]
    fn merge_matches_combined_recording() {
        let (a, b, both) = (HistCore::new(), HistCore::new(), HistCore::new());
        for v in [0u64, 1, 5, 900, 17] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 5, 1 << 40, 0] {
            b.record(v);
            both.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.merge(&HistogramSnapshot::empty()), merged);
    }

    /// Cumulative buckets are monotone, end at the total count, and stop
    /// at the highest occupied bucket.
    #[test]
    fn cumulative_buckets_are_monotone_and_trimmed() {
        let h = HistCore::new();
        for v in [0u64, 3, 3, 12] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_buckets();
        assert_eq!(cum.last().unwrap(), &(15, 4));
        assert_eq!(cum.len(), 5); // edges 0,1,3,7,15 — nothing beyond bucket 4
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 <= w[1].1);
        }
    }
}
