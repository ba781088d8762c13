//! The [`CountersSink`]: low-overhead aggregate statistics — per-SI
//! execution counters, latency histograms, forecast monitoring counters
//! and rotation/reselect totals — accumulated from the event stream.

use std::collections::BTreeMap;

use rispp_core::si::SiId;

use crate::event::Event;
use crate::sink::EventSink;

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

/// Per-SI execution counters (the sink-side equivalent of the manager's
/// legacy `SiStats`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SiCounters {
    /// Hardware executions.
    pub hw_executions: u64,
    /// Software executions.
    pub sw_executions: u64,
    /// Total cycles spent in this SI.
    pub cycles: u64,
    /// Cycles spent in hardware Molecules (subset of `cycles`).
    pub hw_cycles: u64,
    /// Latency distribution over all executions.
    pub latency: LatencyHistogram,
}

impl SiCounters {
    /// Cycles spent in the software Molecule.
    #[must_use]
    pub fn sw_cycles(&self) -> u64 {
        self.cycles - self.hw_cycles
    }
}

/// Per-SI forecast monitoring counters (the sink-side equivalent of the
/// manager's legacy `FcStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FcCounters {
    /// Forecasts announced for this SI (over all tasks).
    pub issued: u64,
    /// Negative forecasts (retractions).
    pub retracted: u64,
    /// Monitored outcomes where the SI was actually reached.
    pub hits: u64,
    /// Monitored outcomes where it was not.
    pub misses: u64,
}

/// Aggregating sink: counters and histograms, no per-event storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountersSink {
    per_si: BTreeMap<usize, SiCounters>,
    fc: BTreeMap<usize, FcCounters>,
    rotations_started: u64,
    rotations_completed: u64,
    rotations_failed: u64,
    port_stalls: u64,
    containers_quarantined: u64,
    containers_loaded: u64,
    containers_evicted: u64,
    reselects: u64,
    upgrade_steps: u64,
}

impl CountersSink {
    /// Creates an empty counters sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Execution counters of one SI (zeroed default when never seen).
    #[must_use]
    pub fn si(&self, si: SiId) -> SiCounters {
        self.per_si.get(&si.index()).cloned().unwrap_or_default()
    }

    /// Forecast counters of one SI (zeroed default when never seen).
    #[must_use]
    pub fn fc(&self, si: SiId) -> FcCounters {
        self.fc.get(&si.index()).copied().unwrap_or_default()
    }

    /// Rotations that started.
    #[must_use]
    pub fn rotations_started(&self) -> u64 {
        self.rotations_started
    }

    /// Rotations that completed.
    #[must_use]
    pub fn rotations_completed(&self) -> u64 {
        self.rotations_completed
    }

    /// Rotations that reached completion but failed bitstream
    /// verification ([`Event::RotationFailed`]).
    #[must_use]
    pub fn rotations_failed(&self) -> u64 {
        self.rotations_failed
    }

    /// Reconfiguration-port stalls observed ([`Event::PortStalled`]).
    #[must_use]
    pub fn port_stalls(&self) -> u64 {
        self.port_stalls
    }

    /// Containers taken permanently out of service
    /// ([`Event::ContainerQuarantined`]).
    #[must_use]
    pub fn containers_quarantined(&self) -> u64 {
        self.containers_quarantined
    }

    /// Containers that became usable ([`Event::ContainerLoaded`]).
    #[must_use]
    pub fn containers_loaded(&self) -> u64 {
        self.containers_loaded
    }

    /// Usable Atoms destroyed by overwriting rotations
    /// ([`Event::ContainerEvicted`]).
    #[must_use]
    pub fn containers_evicted(&self) -> u64 {
        self.containers_evicted
    }

    /// Selection re-evaluations observed.
    #[must_use]
    pub fn reselects(&self) -> u64 {
        self.reselects
    }

    /// Upgrade-path stages the scheduler staged.
    #[must_use]
    pub fn upgrade_steps(&self) -> u64 {
        self.upgrade_steps
    }

    /// Folds another sink's counters into this one, as if every event
    /// emitted into `other` had been emitted here instead: all totals
    /// add, per-SI counters add SI-by-SI and their latency histograms
    /// merge via [`LatencyHistogram::merge`]. Associative and
    /// commutative, so fleet shards can be folded in any order.
    pub fn merge(&mut self, other: &Self) {
        for (si, theirs) in &other.per_si {
            let mine = self.per_si.entry(*si).or_default();
            mine.hw_executions += theirs.hw_executions;
            mine.sw_executions += theirs.sw_executions;
            mine.cycles += theirs.cycles;
            mine.hw_cycles += theirs.hw_cycles;
            mine.latency.merge(&theirs.latency);
        }
        for (si, theirs) in &other.fc {
            let mine = self.fc.entry(*si).or_default();
            mine.issued += theirs.issued;
            mine.retracted += theirs.retracted;
            mine.hits += theirs.hits;
            mine.misses += theirs.misses;
        }
        self.rotations_started += other.rotations_started;
        self.rotations_completed += other.rotations_completed;
        self.rotations_failed += other.rotations_failed;
        self.port_stalls += other.port_stalls;
        self.containers_quarantined += other.containers_quarantined;
        self.containers_loaded += other.containers_loaded;
        self.containers_evicted += other.containers_evicted;
        self.reselects += other.reselects;
        self.upgrade_steps += other.upgrade_steps;
    }
}

impl EventSink for CountersSink {
    fn emit(&mut self, _at: u64, event: &Event) {
        match event {
            Event::RotationStarted { .. } => self.rotations_started += 1,
            Event::RotationCompleted { .. } => self.rotations_completed += 1,
            Event::RotationFailed { .. } => self.rotations_failed += 1,
            Event::PortStalled { .. } => self.port_stalls += 1,
            Event::ContainerQuarantined { .. } => self.containers_quarantined += 1,
            Event::ContainerLoaded { .. } => self.containers_loaded += 1,
            Event::ContainerEvicted { .. } => self.containers_evicted += 1,
            Event::SiExecuted { si, hw, cycles, .. } => {
                let c = self.per_si.entry(si.index()).or_default();
                if *hw {
                    c.hw_executions += 1;
                    c.hw_cycles += cycles;
                } else {
                    c.sw_executions += 1;
                }
                c.cycles += cycles;
                c.latency.record(*cycles);
            }
            Event::ForecastUpdated { si, .. } => {
                self.fc.entry(si.index()).or_default().issued += 1;
            }
            Event::ForecastRetracted { si, .. } => {
                self.fc.entry(si.index()).or_default().retracted += 1;
            }
            Event::FcOutcome { si, reached, .. } => {
                let c = self.fc.entry(si.index()).or_default();
                if *reached {
                    c.hits += 1;
                } else {
                    c.misses += 1;
                }
            }
            Event::Reselect { .. } => self.reselects += 1,
            Event::UpgradeStep { .. } => self.upgrade_steps += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReselectTrigger;
    use rispp_core::atom::AtomKind;

    #[test]
    fn counters_aggregate_every_event_kind() {
        let mut sink = CountersSink::new();
        let si = SiId(3);
        sink.emit(
            0,
            &Event::ForecastUpdated {
                task: 0,
                si,
                probability: 1.0,
                expected_executions: 10.0,
            },
        );
        sink.emit(
            1,
            &Event::RotationStarted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            2,
            &Event::SiExecuted {
                task: 0,
                si,
                hw: false,
                cycles: 500,
                molecule: None,
            },
        );
        sink.emit(
            3,
            &Event::RotationCompleted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            4,
            &Event::SiExecuted {
                task: 0,
                si,
                hw: true,
                cycles: 20,
                molecule: None,
            },
        );
        sink.emit(
            5,
            &Event::FcOutcome {
                task: 0,
                si,
                reached: true,
            },
        );
        sink.emit(
            6,
            &Event::FcOutcome {
                task: 0,
                si,
                reached: false,
            },
        );
        sink.emit(7, &Event::ForecastRetracted { task: 0, si });
        sink.emit(
            8,
            &Event::Reselect {
                trigger: ReselectTrigger::Retract,
            },
        );
        sink.emit(
            9,
            &Event::UpgradeStep {
                si,
                task: Some(0),
                step: 0,
                molecule: rispp_core::molecule::Molecule::from_counts([1, 0]),
            },
        );
        sink.emit(
            10,
            &Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            11,
            &Event::ContainerEvicted {
                container: 0,
                kind: AtomKind(1),
            },
        );
        sink.emit(
            12,
            &Event::RotationFailed {
                container: 1,
                kind: AtomKind(0),
            },
        );
        sink.emit(13, &Event::PortStalled { until: 99 });
        sink.emit(14, &Event::ContainerQuarantined { container: 1 });

        let s = sink.si(si);
        assert_eq!(s.hw_executions, 1);
        assert_eq!(s.sw_executions, 1);
        assert_eq!(s.cycles, 520);
        assert_eq!(s.hw_cycles, 20);
        assert_eq!(s.sw_cycles(), 500);
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency.sum_cycles(), 520);

        let fc = sink.fc(si);
        assert_eq!((fc.issued, fc.retracted, fc.hits, fc.misses), (1, 1, 1, 1));
        assert_eq!(sink.rotations_started(), 1);
        assert_eq!(sink.rotations_completed(), 1);
        assert_eq!(sink.containers_loaded(), 1);
        assert_eq!(sink.containers_evicted(), 1);
        assert_eq!(sink.reselects(), 1);
        assert_eq!(sink.upgrade_steps(), 1);
        assert_eq!(sink.rotations_failed(), 1);
        assert_eq!(sink.port_stalls(), 1);
        assert_eq!(sink.containers_quarantined(), 1);
        // Unseen SIs read as zeroed counters.
        assert_eq!(sink.si(SiId(9)).cycles, 0);
    }

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
    fn counters_merge_matches_the_single_sink_oracle() {
        // Splitting an event stream across two sinks and merging must be
        // indistinguishable from one sink that saw every event.
        let stream = [
            Event::SiExecuted {
                task: 0,
                si: SiId(0),
                hw: true,
                cycles: 20,
                molecule: None,
            },
            Event::SiExecuted {
                task: 1,
                si: SiId(1),
                hw: false,
                cycles: 900,
                molecule: None,
            },
            Event::ForecastUpdated {
                task: 0,
                si: SiId(0),
                probability: 0.5,
                expected_executions: 4.0,
            },
            Event::RotationStarted {
                container: 0,
                kind: AtomKind(0),
            },
            Event::RotationCompleted {
                container: 0,
                kind: AtomKind(0),
            },
            Event::Reselect {
                trigger: ReselectTrigger::Retract,
            },
            Event::ForecastRetracted {
                task: 0,
                si: SiId(0),
            },
            Event::SiExecuted {
                task: 0,
                si: SiId(0),
                hw: false,
                cycles: 480,
                molecule: None,
            },
        ];
        let (mut a, mut b, mut oracle) = (
            CountersSink::new(),
            CountersSink::new(),
            CountersSink::new(),
        );
        for (at, e) in stream.iter().enumerate() {
            oracle.emit(at as u64, e);
            if at % 2 == 0 {
                a.emit(at as u64, e);
            } else {
                b.emit(at as u64, e);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, oracle);
        // Commutative: the reverse fold sees the same events.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, oracle);
        // Merging an empty sink is the identity.
        ab.merge(&CountersSink::new());
        assert_eq!(ab, oracle);
        // Spot-check a merged per-SI histogram.
        assert_eq!(ab.si(SiId(0)).latency.count(), 2);
        assert_eq!(ab.si(SiId(0)).latency.sum_cycles(), 500);
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
}
