//! A base-2 duration histogram with percentile readout.
//!
//! This is the one histogram type the workspace uses for virtual-time
//! latency distributions: [`LayerStats`](crate::LayerStats) aggregates
//! per-layer span durations into it, and `shrimp-svc`'s load engine
//! feeds per-request latencies into it for p50/p95/p99/p999 curves.
//! Bucket *k* counts values with `2^k <= v < 2^(k+1)`; bucket 0 also
//! holds zeros. Everything is integer picoseconds, so merging and
//! percentile readout are bit-identical across replays.

use shrimp_sim::{Fnv1a, SimDur};

/// Number of buckets — one per possible leading-bit position of a
/// `u64` value.
pub const BUCKETS: usize = 64;

/// A log2 histogram over `u64` values (picosecond durations in
/// practice) with exact count/total/min/max sidecars.
///
/// Percentiles are resolved to the histogram's bucket granularity (a
/// factor-of-two resolution band), clamped into the observed
/// `[min, max]` range so degenerate distributions read back exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist::new()
    }
}

/// The bucket index a value falls into.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Log2Hist {
        Log2Hist {
            buckets: [0; BUCKETS],
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.total += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration (picoseconds).
    pub fn record_dur(&mut self, d: SimDur) {
        self.record(d.as_ps());
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean value (integer division; 0 when empty).
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The value at quantile `q` in `[0, 1]`, resolved to the upper
    /// bound of the bucket holding the `ceil(q * count)`-th value and
    /// clamped into `[min, max]`. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket k is 2^(k+1) - 1.
                let upper = if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// FNV-1a digest over the full histogram state (buckets and
    /// sidecars) — replay-stable fingerprint for benchmark gating.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for &b in &self.buckets {
            h.u64(b);
        }
        h.u64(self.count)
            .u64(self.total)
            .u64(self.min())
            .u64(self.max);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_count_and_percentiles_resolve() {
        let mut h = Log2Hist::new();
        assert_eq!(h.percentile(0.99), 0);
        for v in [0u64, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.total(), 1_001_010);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[2], 1); // 4
        assert_eq!(h.buckets()[bucket_of(1000)], 1);
        // p50 lands in bucket 1 (values 2,3): upper bound 3.
        assert_eq!(h.percentile(0.5), 3);
        // High quantiles clamp to the observed max.
        assert_eq!(h.percentile(1.0), 1_000_000);
        // Low quantiles resolve to the first bucket's upper bound.
        assert_eq!(h.percentile(0.0), 1);
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        let vals_a = [5u64, 17, 90, 4096];
        let vals_b = [1u64, 2, 65_535, 7];
        let mut merged = Log2Hist::new();
        let (mut a, mut b) = (Log2Hist::new(), Log2Hist::new());
        for &v in &vals_a {
            a.record(v);
            merged.record(v);
        }
        for &v in &vals_b {
            b.record(v);
            merged.record(v);
        }
        a.merge(&b);
        assert_eq!(a, merged);
        assert_eq!(a.digest(), merged.digest());
    }

    #[test]
    fn degenerate_single_value_reads_back_exactly() {
        let mut h = Log2Hist::new();
        for _ in 0..100 {
            h.record(29_737);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 29_737, "q={q}");
        }
        assert_eq!(h.mean(), 29_737);
    }
}
