//! Sliding-window metrics over the event stream, keyed by *simulated*
//! time.
//!
//! The cumulative [`MetricsSink`](crate::MetricsSink) answers "what has
//! this run done since cycle 0" — which is exactly the wrong question
//! for a dashboard watching a long-lived service: a phase change in SI
//! demand (the data-dependent control-flow shifts of Nassar et al.)
//! disappears into a run-to-date average within minutes. The
//! [`WindowSink`] answers "what is happening *now*": a ring of
//! fixed-width buckets over simulated cycles, folded into live rates
//! (events and rotations per kilocycle), the SW-fallback rate and
//! windowed latency quantiles.
//!
//! Windows are keyed by the event timestamps themselves, never by host
//! wall time, so a replay of a log produces byte-identical windowed
//! metrics to the live follow that tailed it — the property the serve
//! layer's tests pin.

use std::fmt::Write as _;

use crate::event::Event;
use crate::latency::LatencyHistogram;
use crate::sink::EventSink;

/// Shape of the sliding window: `buckets` buckets of `bucket_cycles`
/// simulated cycles each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one bucket, in simulated cycles (minimum 1).
    pub bucket_cycles: u64,
    /// Number of buckets the window spans (minimum 1).
    pub buckets: usize,
}

impl Default for WindowConfig {
    /// 16 buckets of 10 000 cycles: a 160 kcycle window, wide enough to
    /// smooth single rotations but narrow enough to show phase changes.
    fn default() -> Self {
        WindowConfig {
            bucket_cycles: 10_000,
            buckets: 16,
        }
    }
}

impl WindowConfig {
    /// A config with both fields clamped to their minimum of 1.
    #[must_use]
    pub fn new(bucket_cycles: u64, buckets: usize) -> Self {
        WindowConfig {
            bucket_cycles: bucket_cycles.max(1),
            buckets: buckets.max(1),
        }
    }
}

/// One bucket of the ring: counts of everything the window reports on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Bucket {
    /// The absolute bucket index (`at / bucket_cycles`) this slot holds.
    index: u64,
    /// Whether the slot has been claimed since the last wrap.
    live: bool,
    events: u64,
    executions: u64,
    hw_executions: u64,
    rotations: u64,
    latency: LatencyHistogram,
}

impl Bucket {
    fn reset(&mut self, index: u64) {
        *self = Bucket {
            index,
            live: true,
            ..Bucket::default()
        };
    }
}

/// A cross-section of the sliding window: totals over the covered span
/// plus the merged latency distribution. Plain data — snapshots merge
/// (for fleet aggregates) and compare (for live-vs-replay pinning).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Simulated cycles the window currently covers (`0` before any
    /// event; at most `buckets × bucket_cycles`).
    pub window_cycles: u64,
    /// Largest timestamp folded so far.
    pub newest: u64,
    /// Events of any kind inside the window.
    pub events: u64,
    /// SI executions inside the window.
    pub executions: u64,
    /// Hardware SI executions inside the window.
    pub hw_executions: u64,
    /// Completed rotations inside the window.
    pub rotations: u64,
    /// Latency distribution of the window's SI executions.
    pub latency: LatencyHistogram,
    /// Events older than the window that arrived after it slid past
    /// them (folded into the newest bucket, counted here).
    pub late_events: u64,
}

fn per_kcycle(count: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        count as f64 * 1_000.0 / cycles as f64
    }
}

impl WindowSnapshot {
    /// Events per kilocycle over the covered span.
    #[must_use]
    pub fn events_per_kcycle(&self) -> f64 {
        per_kcycle(self.events, self.window_cycles)
    }

    /// Completed rotations per kilocycle over the covered span.
    #[must_use]
    pub fn rotations_per_kcycle(&self) -> f64 {
        per_kcycle(self.rotations, self.window_cycles)
    }

    /// Fraction of the window's SI executions that fell back to
    /// software (`0.0` when nothing executed).
    #[must_use]
    pub fn sw_fallback_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            (self.executions - self.hw_executions) as f64 / self.executions as f64
        }
    }

    /// Median SI latency inside the window, in cycles (`0` when empty).
    #[must_use]
    pub fn latency_p50(&self) -> u64 {
        self.latency.p50().unwrap_or(0)
    }

    /// 99th-percentile SI latency inside the window (`0` when empty).
    #[must_use]
    pub fn latency_p99(&self) -> u64 {
        self.latency.p99().unwrap_or(0)
    }

    /// Folds another shard's window into this one: counts add, latency
    /// histograms merge, and the covered span becomes the widest of the
    /// two — fleet shards advance simulated time in parallel, so rates
    /// read as "per kilocycle of the furthest shard".
    pub fn merge(&mut self, other: &Self) {
        self.window_cycles = self.window_cycles.max(other.window_cycles);
        self.newest = self.newest.max(other.newest);
        self.events += other.events;
        self.executions += other.executions;
        self.hw_executions += other.hw_executions;
        self.rotations += other.rotations;
        self.latency.merge(&other.latency);
        self.late_events += other.late_events;
    }

    /// The window's Prometheus series as `(name, help, value)` tuples
    /// (all gauges), in exposition order — the building block for
    /// renderers that interleave several windows and must keep each
    /// metric family contiguous.
    #[must_use]
    pub fn prometheus_series(&self) -> Vec<(&'static str, &'static str, f64)> {
        vec![
            (
                "rispp_window_cycles",
                "Simulated cycles the sliding window covers.",
                self.window_cycles as f64,
            ),
            (
                "rispp_window_events_per_kcycle",
                "Events per kilocycle inside the sliding window.",
                self.events_per_kcycle(),
            ),
            (
                "rispp_window_rotations_per_kcycle",
                "Completed rotations per kilocycle inside the sliding window.",
                self.rotations_per_kcycle(),
            ),
            (
                "rispp_window_sw_fallback_rate",
                "Fraction of windowed SI executions that fell back to software.",
                self.sw_fallback_rate(),
            ),
            (
                "rispp_window_latency_p50_cycles",
                "Median SI latency inside the sliding window.",
                self.latency_p50() as f64,
            ),
            (
                "rispp_window_latency_p99_cycles",
                "99th-percentile SI latency inside the sliding window.",
                self.latency_p99() as f64,
            ),
        ]
    }

    /// Renders the `rispp_window_*` Prometheus series. `labels` is the
    /// brace-less label body (e.g. `shard="3"`), empty for the
    /// aggregate; set `headers` on the first rendering of a block so
    /// `# HELP`/`# TYPE` lines appear exactly once per series.
    #[must_use]
    pub fn render_prometheus(&self, labels: &str, headers: bool) -> String {
        let mut out = String::new();
        let suffix = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        for (name, help, value) in self.prometheus_series() {
            if headers {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
            }
            let _ = writeln!(out, "{name}{suffix} {value}");
        }
        out
    }
}

/// Sink folding the event stream into a ring of time buckets.
///
/// Window position follows the event timestamps: emitting at cycle `t`
/// claims bucket `t / bucket_cycles`, retiring buckets that slid out of
/// the ring. Because nothing here reads host time, feeding the same
/// record sequence — live, tailed in arbitrary chunks, or replayed in
/// one pass — always produces the same [`WindowSnapshot`].
///
/// # Examples
///
/// ```
/// use rispp_obs::window::{WindowConfig, WindowSink};
/// use rispp_obs::{Event, EventSink};
/// use rispp_core::si::SiId;
///
/// let mut w = WindowSink::new(WindowConfig::new(100, 4));
/// w.emit(10, &Event::SiExecuted {
///     task: 0, si: SiId(0), hw: false, cycles: 40, molecule: None,
/// });
/// let snap = w.snapshot();
/// assert_eq!(snap.executions, 1);
/// assert!((snap.sw_fallback_rate() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSink {
    config: WindowConfig,
    ring: Vec<Bucket>,
    /// Absolute index of the newest claimed bucket.
    current: u64,
    /// First cycle of the newest bucket (`current × bucket_cycles`).
    current_start: u64,
    /// Ring slot of the newest bucket (`current % buckets`).
    current_slot: usize,
    /// First cycle of the oldest bucket inside the window: an event
    /// before it is late.
    window_start: u64,
    /// Whether any event has arrived yet.
    started: bool,
    now: u64,
    late_events: u64,
}

impl WindowSink {
    /// An empty window of the given shape.
    #[must_use]
    pub fn new(config: WindowConfig) -> Self {
        let config = WindowConfig::new(config.bucket_cycles, config.buckets);
        WindowSink {
            config,
            ring: vec![Bucket::default(); config.buckets],
            current: 0,
            current_start: 0,
            current_slot: 0,
            window_start: 0,
            started: false,
            now: 0,
            late_events: 0,
        }
    }

    /// The window's shape.
    #[must_use]
    pub fn config(&self) -> &WindowConfig {
        &self.config
    }

    /// Largest timestamp folded so far.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Moves the window forward to cover `at` without recording an
    /// event — a quiet tail still ages the window, so rates decay to
    /// zero instead of freezing at the last burst.
    pub fn advance_to(&mut self, at: u64) {
        self.slide_to(at);
    }

    /// Claims (and clears) every bucket between the current one and the
    /// one holding `at`. Bounded by the ring size however far the jump.
    fn slide_to(&mut self, at: u64) {
        self.now = self.now.max(at);
        let idx = at / self.config.bucket_cycles;
        if !self.started {
            self.started = true;
            self.claim(idx);
            self.ring[self.current_slot].reset(idx);
            return;
        }
        if idx <= self.current {
            return;
        }
        let first_fresh = if idx - self.current >= self.config.buckets as u64 {
            // The jump cleared the whole ring: every slot is fresh.
            idx - (self.config.buckets as u64 - 1)
        } else {
            self.current + 1
        };
        for index in first_fresh..=idx {
            let slot = (index % self.config.buckets as u64) as usize;
            self.ring[slot].reset(index);
        }
        self.claim(idx);
    }

    /// Makes bucket `idx` the newest, with the cycle bounds and ring
    /// slot that let later events skip the division.
    fn claim(&mut self, idx: u64) {
        self.current = idx;
        self.current_start = idx * self.config.bucket_cycles;
        self.current_slot = (idx % self.config.buckets as u64) as usize;
        self.window_start = self.oldest_index() * self.config.bucket_cycles;
    }

    /// The ring slot an event at `at` folds into. An event in the newest
    /// bucket, or older than the whole window (late: it folds into the
    /// newest bucket and is counted), is placed by comparisons alone; only
    /// one that opens a new bucket or lands in an older bucket of the
    /// window divides.
    #[inline]
    fn slot_for(&mut self, at: u64) -> usize {
        if self.started {
            if at >= self.current_start {
                if at - self.current_start < self.config.bucket_cycles {
                    self.now = self.now.max(at);
                    return self.current_slot;
                }
            } else if at < self.window_start {
                self.late_events += 1;
                return self.current_slot;
            }
        }
        self.slide_to(at);
        ((at / self.config.bucket_cycles) % self.config.buckets as u64) as usize
    }

    /// Absolute index of the oldest bucket still inside the window.
    fn oldest_index(&self) -> u64 {
        self.current.saturating_sub(self.config.buckets as u64 - 1)
    }

    /// The current cross-section of the window.
    #[must_use]
    pub fn snapshot(&self) -> WindowSnapshot {
        if !self.started {
            return WindowSnapshot::default();
        }
        let oldest = self.oldest_index();
        let mut snap = WindowSnapshot {
            // Covered span: from the start of the oldest in-window
            // bucket through `now` inclusive. A span of the whole 2^64
            // cycle clock saturates.
            window_cycles: (self.now - oldest * self.config.bucket_cycles).saturating_add(1),
            newest: self.now,
            late_events: self.late_events,
            ..WindowSnapshot::default()
        };
        for bucket in &self.ring {
            if !bucket.live || bucket.index < oldest || bucket.index > self.current {
                continue;
            }
            snap.events += bucket.events;
            snap.executions += bucket.executions;
            snap.hw_executions += bucket.hw_executions;
            snap.rotations += bucket.rotations;
            snap.latency.merge(&bucket.latency);
        }
        snap
    }
}

impl EventSink for WindowSink {
    fn emit(&mut self, at: u64, event: &Event) {
        let slot = self.slot_for(at);
        let bucket = &mut self.ring[slot];
        bucket.events += 1;
        match event {
            Event::SiExecuted { hw, cycles, .. } => {
                bucket.executions += 1;
                if *hw {
                    bucket.hw_executions += 1;
                }
                bucket.latency.record(*cycles);
            }
            Event::RotationCompleted { .. } => bucket.rotations += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::AtomKind;
    use rispp_core::si::SiId;

    fn exec(hw: bool, cycles: u64) -> Event {
        Event::SiExecuted {
            task: 0,
            si: SiId(0),
            hw,
            cycles,
            molecule: None,
        }
    }

    fn done() -> Event {
        Event::RotationCompleted {
            container: 0,
            kind: AtomKind(0),
        }
    }

    #[test]
    fn empty_window_reports_zeroes() {
        let w = WindowSink::new(WindowConfig::default());
        let snap = w.snapshot();
        assert_eq!(snap, WindowSnapshot::default());
        assert_eq!(snap.events_per_kcycle(), 0.0);
        assert_eq!(snap.sw_fallback_rate(), 0.0);
        assert_eq!(snap.latency_p99(), 0);
    }

    #[test]
    fn counts_and_rates_inside_one_window() {
        let mut w = WindowSink::new(WindowConfig::new(100, 4));
        w.emit(0, &exec(false, 400));
        w.emit(150, &exec(true, 20));
        w.emit(199, &done());
        let snap = w.snapshot();
        assert_eq!(snap.events, 3);
        assert_eq!(snap.executions, 2);
        assert_eq!(snap.hw_executions, 1);
        assert_eq!(snap.rotations, 1);
        assert_eq!(snap.window_cycles, 200);
        assert!((snap.sw_fallback_rate() - 0.5).abs() < 1e-12);
        assert!((snap.events_per_kcycle() - 15.0).abs() < 1e-12);
        assert!((snap.rotations_per_kcycle() - 5.0).abs() < 1e-12);
        assert!(snap.latency_p99() >= snap.latency_p50());
    }

    #[test]
    fn old_buckets_slide_out_of_the_window() {
        let mut w = WindowSink::new(WindowConfig::new(100, 2));
        w.emit(0, &exec(false, 10));
        assert_eq!(w.snapshot().executions, 1);
        // Bucket 0 is still in a 2-bucket window at cycle 150…
        w.emit(150, &exec(true, 10));
        assert_eq!(w.snapshot().executions, 2);
        // …but gone by cycle 250, and a far jump clears everything.
        w.advance_to(250);
        assert_eq!(w.snapshot().executions, 1);
        w.advance_to(10_000);
        let snap = w.snapshot();
        assert_eq!(snap.executions, 0);
        assert_eq!(snap.newest, 10_000);
        // Quiet tails decay the rate to zero instead of freezing it.
        assert_eq!(snap.events_per_kcycle(), 0.0);
    }

    #[test]
    fn late_events_fold_into_the_newest_bucket() {
        let mut w = WindowSink::new(WindowConfig::new(10, 2));
        w.emit(100, &exec(true, 5));
        w.emit(3, &exec(false, 7)); // older than the whole window
        let snap = w.snapshot();
        assert_eq!(snap.late_events, 1);
        assert_eq!(snap.executions, 2, "late events still count");
        assert_eq!(snap.newest, 100);
    }

    #[test]
    fn chunked_feed_matches_one_pass() {
        let records: Vec<(u64, Event)> = (0..500u64)
            .map(|i| (i * 37, exec(i % 3 == 0, 10 + i % 50)))
            .collect();
        let mut one_pass = WindowSink::new(WindowConfig::new(1_000, 8));
        for (at, e) in &records {
            one_pass.emit(*at, e);
        }
        // Arbitrary chunking (a live tail) sees the identical stream.
        let mut chunked = WindowSink::new(WindowConfig::new(1_000, 8));
        for chunk in records.chunks(7) {
            for (at, e) in chunk {
                chunked.emit(*at, e);
            }
        }
        assert_eq!(one_pass.snapshot(), chunked.snapshot());
        assert_eq!(one_pass, chunked);
    }

    #[test]
    fn snapshots_merge_for_fleet_aggregates() {
        let mut a = WindowSink::new(WindowConfig::new(100, 4));
        a.emit(50, &exec(true, 10));
        let mut b = WindowSink::new(WindowConfig::new(100, 4));
        b.emit(350, &exec(false, 90));
        b.emit(360, &done());
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.events, 3);
        assert_eq!(merged.executions, 2);
        assert_eq!(merged.rotations, 1);
        assert_eq!(merged.newest, 360);
        assert_eq!(merged.window_cycles, b.snapshot().window_cycles);
        assert!((merged.sw_fallback_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prometheus_rendering_labels_and_headers() {
        let mut w = WindowSink::new(WindowConfig::new(100, 4));
        w.emit(10, &exec(true, 5));
        let head = w.snapshot().render_prometheus("", true);
        assert!(head.contains("# TYPE rispp_window_events_per_kcycle gauge"));
        assert!(head.contains("rispp_window_cycles 11"));
        let labeled = w.snapshot().render_prometheus("shard=\"2\"", false);
        assert!(!labeled.contains("# HELP"));
        assert!(labeled.contains("rispp_window_cycles{shard=\"2\"} 11"));
    }

    #[test]
    fn config_clamps_degenerate_shapes() {
        let w = WindowSink::new(WindowConfig::new(0, 0));
        assert_eq!(w.config().bucket_cycles, 1);
        assert_eq!(w.config().buckets, 1);
    }
}
