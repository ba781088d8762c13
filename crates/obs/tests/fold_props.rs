//! Oracle property tests for the two folds every served shard runs:
//! [`MetricsSink`] and [`WindowSink`] must equal, bit for bit and at
//! every prefix of the stream, the plain folds written out below — an
//! open-window `Vec` plus two `BTreeMap`s for the metrics, and a ring
//! that places every event with divisions for the window.
//!
//! The streams repeat and interleave `(task, si)` pairs with ids up to
//! `u32::MAX` and `usize::MAX`, re-forecast open windows, retract
//! windows that are not open, execute SIs before any forecast, carry
//! `FcOutcome`s, restart their clock as stress logs do, and deliver late
//! events. A second pair of sinks folds the same stream through the
//! binary codec in random chunks, as a follower tailing the log would.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rispp_core::atom::AtomKind;
use rispp_core::si::SiId;
use rispp_obs::bin::StreamDecoder;
use rispp_obs::window::{WindowConfig, WindowSink, WindowSnapshot};
use rispp_obs::{
    BinarySink, Event, EventSink, ForecastStats, LatencyHistogram, MetricsSink, MetricsSummary,
    ReselectTrigger, TaskId,
};

/// One container of the plain fold: the loaded Atom and since when, the
/// loaded cycles and the weighted cycles.
type PlainTrack = (Option<(AtomKind, u64)>, u64, f64);

/// The metrics fold written plainly: open windows are a `Vec` searched
/// by key, per-pair stats and software baselines are ordered maps.
#[derive(Clone, Default)]
struct PlainMetrics {
    now: u64,
    containers: Vec<PlainTrack>,
    fixed_containers: Option<usize>,
    weights: Vec<f64>,
    bus_busy_cycles: u64,
    bus_busy_since: Option<u64>,
    rotations_completed: u64,
    open_windows: Vec<(TaskId, SiId, bool)>,
    by_pair: BTreeMap<(TaskId, usize), ForecastStats>,
    windows_total: u64,
    windows_hit: u64,
    executions_forecast: u64,
    hw_executions: u64,
    fc_outcomes: u64,
    fc_outcomes_reached: u64,
    sw_baseline: BTreeMap<usize, u64>,
    cycles_saved: u64,
    events: u64,
    latency: LatencyHistogram,
}

impl PlainMetrics {
    fn new(containers: usize, weights: Vec<f64>) -> Self {
        let mut m = PlainMetrics {
            weights,
            ..PlainMetrics::default()
        };
        if containers > 0 {
            m.fixed_containers = Some(containers);
            m.track(containers - 1);
        }
        m
    }

    fn weight(&self, kind: AtomKind) -> f64 {
        self.weights.get(kind.index()).copied().unwrap_or(1.0)
    }

    fn track(&mut self, index: usize) {
        if self.containers.len() <= index {
            self.containers.resize(index + 1, (None, 0, 0.0));
        }
    }

    fn settle(&mut self, task: TaskId, si: SiId, executed: bool) {
        self.windows_total += 1;
        let stats = self.by_pair.entry((task, si.index())).or_default();
        stats.windows += 1;
        if executed {
            self.windows_hit += 1;
            stats.hits += 1;
        }
    }

    fn close_window(&mut self, task: TaskId, si: SiId) {
        if let Some(i) = self
            .open_windows
            .iter()
            .position(|&(t, s, _)| t == task && s == si)
        {
            let (task, si, executed) = self.open_windows.remove(i);
            self.settle(task, si, executed);
        }
    }

    fn finish(&mut self) {
        for (task, si, executed) in std::mem::take(&mut self.open_windows) {
            self.settle(task, si, executed);
        }
    }

    fn emit(&mut self, at: u64, event: &Event) {
        self.now = self.now.max(at);
        self.events += 1;
        match event {
            Event::RotationStarted { .. } if self.bus_busy_since.is_none() => {
                self.bus_busy_since = Some(at);
            }
            Event::RotationCompleted { .. } | Event::RotationFailed { .. } => {
                if matches!(event, Event::RotationCompleted { .. }) {
                    self.rotations_completed += 1;
                }
                if let Some(since) = self.bus_busy_since.take() {
                    self.bus_busy_cycles = self
                        .bus_busy_cycles
                        .saturating_add(at.saturating_sub(since));
                }
            }
            Event::ContainerLoaded { container, kind } => {
                let c = *container as usize;
                self.track(c);
                if self.containers[c].0.is_none() {
                    self.containers[c].0 = Some((*kind, at));
                }
            }
            Event::ContainerEvicted { container, .. } => {
                let c = *container as usize;
                self.track(c);
                if let Some((kind, since)) = self.containers[c].0.take() {
                    let held = at.saturating_sub(since);
                    let weighted = held as f64 * self.weight(kind);
                    self.containers[c].1 = self.containers[c].1.saturating_add(held);
                    self.containers[c].2 += weighted;
                }
            }
            Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                ..
            } => {
                self.latency.record(*cycles);
                let stats = self.by_pair.entry((*task, si.index())).or_default();
                stats.executions_total += 1;
                if let Some(w) = self
                    .open_windows
                    .iter_mut()
                    .find(|(t, s, _)| t == task && s == si)
                {
                    w.2 = true;
                    self.executions_forecast += 1;
                    stats.executions_in_window += 1;
                }
                if *hw {
                    self.hw_executions += 1;
                    if let Some(&baseline) = self.sw_baseline.get(&si.index()) {
                        self.cycles_saved = self
                            .cycles_saved
                            .saturating_add(baseline.saturating_sub(*cycles));
                    }
                } else {
                    self.sw_baseline.insert(si.index(), *cycles);
                }
            }
            Event::ForecastUpdated { task, si, .. } => {
                self.close_window(*task, *si);
                self.open_windows.push((*task, *si, false));
            }
            Event::ForecastRetracted { task, si } => self.close_window(*task, *si),
            Event::FcOutcome { reached, .. } => {
                self.fc_outcomes += 1;
                if *reached {
                    self.fc_outcomes_reached += 1;
                }
            }
            _ => {}
        }
    }

    fn summary(&self) -> MetricsSummary {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let n = self.fixed_containers.unwrap_or(self.containers.len());
        let (mut loaded, mut weighted) = (0u128, 0.0f64);
        for (open, loaded_cycles, weighted_cycles) in &self.containers {
            let held = open.map_or(0, |(_, since)| self.now.saturating_sub(since));
            loaded += u128::from(loaded_cycles.saturating_add(held));
            weighted += weighted_cycles
                + open.map_or(0.0, |(kind, since)| {
                    self.now.saturating_sub(since) as f64 * self.weight(kind)
                });
        }
        let per_container_cycle = |x: f64| {
            if self.now == 0 || n == 0 {
                0.0
            } else {
                x / (self.now as f64 * n as f64)
            }
        };
        let bus = if self.now == 0 {
            0.0
        } else {
            let open = self
                .bus_busy_since
                .map_or(0, |since| self.now.saturating_sub(since));
            self.bus_busy_cycles.saturating_add(open) as f64 / self.now as f64
        };
        let executions = self.latency.count();
        MetricsSummary {
            elapsed_cycles: self.now,
            fabric_occupancy: per_container_cycle(loaded as f64),
            logic_utilization: per_container_cycle(weighted),
            bus_busy_fraction: bus,
            rotations_completed: self.rotations_completed,
            forecast_windows: self.windows_total,
            forecast_precision: ratio(self.windows_hit, self.windows_total),
            forecast_recall: ratio(self.executions_forecast, executions),
            fc_hit_rate: (self.fc_outcomes > 0)
                .then(|| ratio(self.fc_outcomes_reached, self.fc_outcomes)),
            executions_total: executions,
            hw_fraction: ratio(self.hw_executions, executions),
            cycles_saved_vs_sw: self.cycles_saved,
        }
    }

    fn forecast_stats(&self) -> Vec<((TaskId, SiId), ForecastStats)> {
        self.by_pair
            .iter()
            .map(|(&(task, si), &stats)| ((task, SiId(si)), stats))
            .collect()
    }
}

/// One ring bucket of the plain window.
#[derive(Clone, Default)]
struct PlainBucket {
    index: u64,
    live: bool,
    events: u64,
    executions: u64,
    hw_executions: u64,
    rotations: u64,
    latency: LatencyHistogram,
}

/// The window fold written plainly: every event computes its bucket as
/// `at / bucket_cycles` and its ring slot as `index % buckets`.
struct PlainWindow {
    bucket_cycles: u64,
    ring: Vec<PlainBucket>,
    current: u64,
    started: bool,
    now: u64,
    late_events: u64,
}

impl PlainWindow {
    fn new(config: WindowConfig) -> Self {
        PlainWindow {
            bucket_cycles: config.bucket_cycles,
            ring: vec![PlainBucket::default(); config.buckets],
            current: 0,
            started: false,
            now: 0,
            late_events: 0,
        }
    }

    fn claim(&mut self, index: u64) {
        let slot = (index % self.ring.len() as u64) as usize;
        self.ring[slot] = PlainBucket {
            index,
            live: true,
            ..PlainBucket::default()
        };
    }

    fn oldest(&self) -> u64 {
        self.current.saturating_sub(self.ring.len() as u64 - 1)
    }

    fn emit(&mut self, at: u64, event: &Event) {
        self.now = self.now.max(at);
        let idx = at / self.bucket_cycles;
        if !self.started {
            self.started = true;
            self.current = idx;
            self.claim(idx);
        } else if idx > self.current {
            let first = (self.current + 1).max(idx.saturating_sub(self.ring.len() as u64 - 1));
            for index in first..=idx {
                self.claim(index);
            }
            self.current = idx;
        }
        let mut target = at / self.bucket_cycles;
        if target < self.oldest() {
            self.late_events += 1;
            target = self.current;
        }
        let slot = (target % self.ring.len() as u64) as usize;
        let bucket = &mut self.ring[slot];
        bucket.events += 1;
        match event {
            Event::SiExecuted { hw, cycles, .. } => {
                bucket.executions += 1;
                bucket.hw_executions += u64::from(*hw);
                bucket.latency.record(*cycles);
            }
            Event::RotationCompleted { .. } => bucket.rotations += 1,
            _ => {}
        }
    }

    fn snapshot(&self) -> WindowSnapshot {
        if !self.started {
            return WindowSnapshot::default();
        }
        let oldest = self.oldest();
        let mut snap = WindowSnapshot {
            window_cycles: (self.now - oldest * self.bucket_cycles).saturating_add(1),
            newest: self.now,
            late_events: self.late_events,
            ..WindowSnapshot::default()
        };
        for b in &self.ring {
            if b.live && b.index >= oldest && b.index <= self.current {
                snap.events += b.events;
                snap.executions += b.executions;
                snap.hw_executions += b.hw_executions;
                snap.rotations += b.rotations;
                snap.latency.merge(&b.latency);
            }
        }
        snap
    }
}

/// Every summary field, floats by their bits: equal means bit-identical.
fn bits(s: &MetricsSummary) -> [u64; 13] {
    [
        s.elapsed_cycles,
        s.fabric_occupancy.to_bits(),
        s.logic_utilization.to_bits(),
        s.bus_busy_fraction.to_bits(),
        s.rotations_completed,
        s.forecast_windows,
        s.forecast_precision.to_bits(),
        s.forecast_recall.to_bits(),
        u64::from(s.fc_hit_rate.is_some()),
        s.fc_hit_rate.map_or(0, f64::to_bits),
        s.executions_total,
        s.hw_fraction.to_bits(),
        s.cycles_saved_vs_sw,
    ]
}

/// Task ids: small ones that repeat, and the extremes a log may carry.
fn task_strategy() -> impl Strategy<Value = TaskId> {
    prop_oneof![0u32..3, Just(u32::MAX), Just(u32::MAX - 1), any::<u32>()]
}

/// SI ids: small ones that repeat, and the extremes a log may carry.
fn si_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..4,
        Just(usize::MAX),
        Just(u32::MAX as usize),
        any::<usize>()
    ]
}

/// How the clock moves before an event.
#[derive(Debug, Clone)]
enum Step {
    Forward(u64),
    /// Far ahead: the window slides past every bucket.
    Jump(u64),
    /// Back by up to this much: a late event.
    Back(u64),
    /// To 0, as each platform of a stress log starts.
    Restart,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..40).prop_map(Step::Forward),
        (0u64..40).prop_map(Step::Forward),
        (0u64..40).prop_map(Step::Forward),
        (0u64..100_000).prop_map(Step::Jump),
        (0u64..200).prop_map(Step::Back),
        Just(Step::Restart),
    ]
}

/// The event at one step: `pair` picks from the stream's pair pool.
fn event_at(kind: u8, pair: (TaskId, usize), hw: bool, cycles: u64, small: u32) -> Event {
    let (task, si) = (pair.0, SiId(pair.1));
    let container = small % 4;
    let atom = AtomKind(small as usize % 3);
    match kind {
        0..=5 => Event::SiExecuted {
            task,
            si,
            hw,
            cycles,
            molecule: None,
        },
        6..=8 => Event::ForecastUpdated {
            task,
            si,
            probability: 1.0,
            expected_executions: 2.0,
        },
        9 | 10 => Event::ForecastRetracted { task, si },
        11 => Event::FcOutcome {
            task,
            si,
            reached: hw,
        },
        12 => Event::RotationStarted {
            container,
            kind: atom,
        },
        13 => Event::RotationCompleted {
            container,
            kind: atom,
        },
        14 => Event::RotationFailed {
            container,
            kind: atom,
        },
        15 => Event::ContainerLoaded {
            container,
            kind: atom,
        },
        16 => Event::ContainerEvicted {
            container,
            kind: atom,
        },
        _ => Event::Reselect {
            trigger: ReselectTrigger::Forecast,
        },
    }
}

/// A stream: timestamped events over a pool of up to six pairs, with
/// cycles of any size and start times up to the end of the clock, where
/// both folds' sums saturate at `u64::MAX`.
fn stream_strategy() -> impl Strategy<Value = Vec<(u64, Event)>> {
    (
        proptest::collection::vec((task_strategy(), si_strategy()), 1..7),
        prop_oneof![
            0u64..1_000,
            Just(1 << 40),
            Just(u64::MAX >> 8),
            (u64::MAX - 100_000)..=u64::MAX,
        ],
        proptest::collection::vec(
            (
                (step_strategy(), 0u8..18),
                0usize..6,
                any::<bool>(),
                prop_oneof![0u64..600, 0u64..(1 << 32), any::<u64>()],
                any::<u32>(),
            ),
            0..160,
        ),
    )
        .prop_map(|(pairs, start, steps)| {
            let mut at = start;
            steps
                .into_iter()
                .map(|((step, kind), pick, hw, cycles, small)| {
                    at = match step {
                        Step::Forward(d) | Step::Jump(d) => at.saturating_add(d),
                        Step::Back(d) => at.saturating_sub(d),
                        Step::Restart => 0,
                    };
                    let pair = pairs[pick % pairs.len()];
                    (at, event_at(kind, pair, hw, cycles, small))
                })
                .collect()
        })
}

/// Window shapes from one-cycle buckets and a one-bucket ring up to the
/// serve default.
fn config_strategy() -> impl Strategy<Value = WindowConfig> {
    (
        prop_oneof![Just(1u64), 2u64..8, Just(100), Just(10_000)],
        prop_oneof![1usize..5, Just(16)],
    )
        .prop_map(|(bucket_cycles, buckets)| WindowConfig::new(bucket_cycles, buckets))
}

fn new_metrics(containers: usize, weights: &[f64]) -> MetricsSink {
    let sink = MetricsSink::new().with_utilization_weights(weights.to_vec());
    if containers > 0 {
        sink.with_containers(containers)
    } else {
        sink
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_folds_equal_the_plain_folds_at_every_prefix(
        stream in stream_strategy(),
        config in config_strategy(),
        containers in 0usize..5,
        weights in proptest::collection::vec(prop_oneof![Just(0.25), Just(0.5), Just(1.0)], 0..3),
        chunks in proptest::collection::vec(1usize..24, 1..8),
    ) {
        let mut metrics = new_metrics(containers, &weights);
        let mut window = WindowSink::new(config);
        let mut plain = PlainMetrics::new(containers, weights.clone());
        let mut plain_window = PlainWindow::new(config);
        // Chunk boundaries cycle through `chunks`; at each one, a settled
        // clone is compared too, as a server settles one per scrape.
        let mut boundary = 0;
        let mut sizes = chunks.iter().cycle();
        for (i, (at, event)) in stream.iter().enumerate() {
            metrics.emit(*at, event);
            window.emit(*at, event);
            plain.emit(*at, event);
            plain_window.emit(*at, event);
            prop_assert_eq!(bits(&metrics.summary()), bits(&plain.summary()), "summary after {}", i);
            prop_assert_eq!(metrics.forecast_stats().collect::<Vec<_>>(), plain.forecast_stats());
            prop_assert_eq!(metrics.events(), plain.events);
            prop_assert_eq!(metrics.latency(), &plain.latency);
            prop_assert_eq!(window.snapshot(), plain_window.snapshot(), "window after {}", i);
            if i == boundary {
                boundary += sizes.next().copied().unwrap_or(1);
                let mut settled = metrics.clone();
                settled.finish();
                let mut plain_settled = plain.clone();
                plain_settled.finish();
                prop_assert_eq!(bits(&settled.summary()), bits(&plain_settled.summary()));
                prop_assert_eq!(settled.forecast_stats().collect::<Vec<_>>(), plain_settled.forecast_stats());
            }
        }
        metrics.finish();
        plain.finish();
        prop_assert_eq!(bits(&metrics.summary()), bits(&plain.summary()));
        prop_assert_eq!(metrics.forecast_stats().collect::<Vec<_>>(), plain.forecast_stats());
        // `finish` is idempotent.
        let once = bits(&metrics.summary());
        metrics.finish();
        prop_assert_eq!(bits(&metrics.summary()), once);
    }

    #[test]
    fn a_chunked_binary_tail_folds_to_the_same_sinks(
        stream in stream_strategy(),
        config in config_strategy(),
        chunks in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let mut direct = (MetricsSink::new(), WindowSink::new(config));
        let mut encoder = BinarySink::new(Vec::new());
        for (at, event) in &stream {
            direct.0.emit(*at, event);
            direct.1.emit(*at, event);
            encoder.emit(*at, event);
        }
        let bytes = encoder.into_inner();
        let mut tailed = (MetricsSink::new(), WindowSink::new(config));
        let mut decoder = StreamDecoder::new();
        let mut rest = bytes.as_slice();
        for size in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at((*size).min(rest.len()));
            rest = tail;
            decoder.feed(chunk);
            while let Some(record) = decoder.next_record().expect("own encoding decodes") {
                tailed.0.emit(record.at, &record.event);
                tailed.1.emit(record.at, &record.event);
            }
        }
        prop_assert_eq!(bits(&direct.0.summary()), bits(&tailed.0.summary()));
        prop_assert_eq!(
            direct.0.forecast_stats().collect::<Vec<_>>(),
            tailed.0.forecast_stats().collect::<Vec<_>>()
        );
        prop_assert!(direct.1 == tailed.1, "window sinks differ after a chunked tail");
    }
}
