//! [`LatencyHistogram`]: a power-of-two histogram of SI latencies, the
//! distribution `MetricsSink`, `WindowSink` and fleet aggregates report.

/// Power-of-two latency histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` cycles (bucket 0 counts zero-cycle samples).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_of(cycles: u64) -> usize {
        (64 - cycles.leading_zeros()) as usize
    }

    /// Records one latency sample. The cycle sum saturates at
    /// [`u64::MAX`] instead of wrapping, so pathological inputs degrade
    /// the mean rather than corrupting it.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[Self::bucket_of(cycles)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(cycles);
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Records `n` samples of `cycles` at once: the same histogram as
    /// `n` calls to [`LatencyHistogram::record`] (none when `n` is 0).
    pub fn record_n(&mut self, cycles: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(cycles)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(cycles.saturating_mul(n));
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded latencies, in cycles.
    #[must_use]
    pub fn sum_cycles(&self) -> u64 {
        self.sum
    }

    /// Mean latency (`None` before any sample).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Smallest recorded sample (`None` before any sample).
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` before any sample).
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The `q`-quantile sample, reported as the inclusive upper bound of
    /// the power-of-two bucket holding the `ceil(q · count)`-th smallest
    /// sample, clamped to the recorded maximum. The result always lies in
    /// the same bucket as the true quantile sample, so the estimate is
    /// never off by more than one bucket width (a factor of two).
    ///
    /// `q` is clamped to `[0, 1]`; returns `None` before any sample.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = match i {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return Some(upper.min(self.max));
            }
        }
        unreachable!("rank is bounded by the recorded total")
    }

    /// Median sample (see [`LatencyHistogram::quantile`]).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th-percentile sample (see [`LatencyHistogram::quantile`]).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one, as if every sample recorded
    /// into `other` had been recorded here instead.
    ///
    /// Bucket counts and the total add exactly; the cycle sum saturates at
    /// [`u64::MAX`] exactly like [`LatencyHistogram::record`]; min and max
    /// are preserved exactly (an empty side contributes nothing, because
    /// its min/max sentinels are the identity of `min`/`max`). The merge
    /// is therefore associative and commutative, which is what lets a
    /// fleet aggregate per-shard histograms in any completion order.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(bucket_upper_bound_exclusive, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let upper = if i >= 64 { u64::MAX } else { 1u64 << i };
                (upper, n)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = LatencyHistogram::default();
        for c in [0, 1, 2, 3, 4, 500, 513] {
            h.record(c);
        }
        assert_eq!(h.count(), 7);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        // 0 → bucket 0; 1 → (1,2); 2,3 → (2,4); 4 → (4,8); 500 → (256,512);
        // 513 → (512,1024).
        assert_eq!(
            buckets,
            vec![(1, 1), (2, 1), (4, 2), (8, 1), (512, 1), (1024, 1)]
        );
        assert!((h.mean().unwrap() - (1023.0 / 7.0)).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Bucket i covers [2^(i-1), 2^i): a power of two opens its own
        // bucket, one below it closes the previous.
        let mut h = LatencyHistogram::default();
        for c in [0u64, 1, 255, 256, 257, (1 << 32) - 1, 1 << 32] {
            h.record(c);
        }
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![
                (1, 1),       // 0 → the zero bucket (upper bound 1)
                (2, 1),       // 1 → [1, 2)
                (256, 1),     // 255 → [128, 256)
                (512, 2),     // 256, 257 → [256, 512)
                (1 << 32, 1), // 2^32 - 1 → [2^31, 2^32)
                (1 << 33, 1), // 2^32 → [2^32, 2^33)
            ]
        );
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1);
        // u64::MAX lands in the open-ended top bucket…
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(2, 1), (u64::MAX, 2)]);
        // …and the cycle sum pins at u64::MAX rather than wrapping to a
        // small number (which would produce a nonsensical mean).
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_cycles(), u64::MAX);
        assert!(h.mean().unwrap() > (u64::MAX / 4) as f64);
        // The extremes and the top-bucket quantiles survive saturation.
        assert_eq!((h.min(), h.max()), (Some(1), Some(u64::MAX)));
        assert_eq!(h.p99(), Some(u64::MAX));
    }

    #[test]
    fn merge_matches_the_single_histogram_oracle() {
        // Recording two sample sets separately and merging must be
        // indistinguishable from one histogram that saw every sample.
        let a_samples = [0u64, 1, 7, 300, 600, 600, 1 << 40];
        let b_samples = [2u64, 7, 8, 255, 256, u64::MAX];
        let (mut a, mut b, mut oracle) = (
            LatencyHistogram::default(),
            LatencyHistogram::default(),
            LatencyHistogram::default(),
        );
        for &s in &a_samples {
            a.record(s);
            oracle.record(s);
        }
        for &s in &b_samples {
            b.record(s);
            oracle.record(s);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, oracle);
        // Commutative: b.merge(a) sees the same samples.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, oracle);
        // Exact extremes and derived statistics survive the merge.
        assert_eq!((ab.min(), ab.max()), (Some(0), Some(u64::MAX)));
        assert_eq!(ab.count(), (a_samples.len() + b_samples.len()) as u64);
        assert_eq!(ab.p99(), oracle.p99());
    }

    #[test]
    fn merge_with_empty_is_identity_and_sum_saturates() {
        let mut h = LatencyHistogram::default();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&LatencyHistogram::default());
        assert_eq!(h, snapshot);
        let mut empty = LatencyHistogram::default();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
        // Saturation carries over: two near-full sums pin at u64::MAX.
        let mut big = LatencyHistogram::default();
        big.record(u64::MAX);
        let mut other = LatencyHistogram::default();
        other.record(u64::MAX - 1);
        big.merge(&other);
        assert_eq!(big.sum_cycles(), u64::MAX);
        assert_eq!(big.count(), 2);
    }

    #[test]
    fn quantiles_report_the_holding_bucket() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.p50(), None);
        // 10 samples: eight in [4, 8), one in [256, 512), one in [512, 1024).
        for c in [4u64, 5, 5, 6, 6, 7, 7, 7, 300, 600] {
            h.record(c);
        }
        // Rank 5 lands in the [4, 8) bucket → upper bound 7.
        assert_eq!(h.p50(), Some(7));
        // Rank 10 is the last sample; the [512, 1024) upper bound clamps
        // to the recorded maximum.
        assert_eq!(h.p99(), Some(600));
        assert_eq!(h.quantile(0.0), Some(7));
        assert_eq!((h.min(), h.max()), (Some(4), Some(600)));
    }

    #[test]
    fn record_n_equals_n_records() {
        for (cycles, n) in [(0u64, 3u64), (7, 1), (300, 5), (u64::MAX / 3, 4), (1, 0)] {
            let mut once = LatencyHistogram::default();
            once.record(9);
            let mut each = once.clone();
            once.record_n(cycles, n);
            for _ in 0..n {
                each.record(cycles);
            }
            assert_eq!(once, each, "{n} × {cycles}");
        }
        // Nothing recorded leaves the empty sentinels alone.
        let mut h = LatencyHistogram::default();
        h.record_n(5, 0);
        assert_eq!(h, LatencyHistogram::default());
    }
}
