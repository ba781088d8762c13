//! Time-weighted gauges and derived series over the event stream.
//!
//! Counters ([`CountersSink`](crate::CountersSink)) answer *how often*;
//! the [`MetricsSink`] answers *how much of the time* — the quantities
//! the paper argues with: Atom-Container occupancy (Table 1's
//! utilisation column, integrated over a run instead of a synthesis
//! report), rotation-bus busyness (one SelectMap port serialises every
//! rotation), forecast accuracy (how well FC instructions predicted the
//! SIs that actually executed), and cycles saved versus pure-software
//! execution.
//!
//! All gauges are integrated lazily up to the largest timestamp seen, so
//! querying is idempotent. Forecast *windows* (one per
//! `ForecastUpdated … ForecastRetracted`/re-forecast interval) settle on
//! close; call [`MetricsSink::finish`] once the stream ends to settle
//! still-open windows before reading the accuracy figures.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rispp_core::atom::AtomKind;
use rispp_core::si::SiId;

use crate::event::{Event, TaskId};
use crate::sink::EventSink;

/// Per-container time accounting.
#[derive(Debug, Clone, Default)]
struct ContainerTrack {
    /// The usable Atom, if any, and since when.
    loaded: Option<(AtomKind, u64)>,
    /// Cycles spent with a usable Atom (closed intervals).
    loaded_cycles: u64,
    /// Same integral, weighted by the Atom's logic utilisation.
    weighted_cycles: f64,
}

impl ContainerTrack {
    fn loaded_until(&self, now: u64) -> u64 {
        let open = self
            .loaded
            .map_or(0, |(_, since)| now.saturating_sub(since));
        self.loaded_cycles + open
    }

    fn weighted_until(&self, now: u64, weights: &[f64]) -> f64 {
        let open = self.loaded.map_or(0.0, |(kind, since)| {
            now.saturating_sub(since) as f64 * weight_of(weights, kind)
        });
        self.weighted_cycles + open
    }
}

/// One open forecast window of a `(task, si)` pair.
#[derive(Debug, Clone)]
struct Window {
    task: TaskId,
    si: SiId,
    executed: bool,
}

/// Forecast-accuracy aggregate of one `(task, si)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForecastStats {
    /// Closed forecast windows.
    pub windows: u64,
    /// Windows in which the SI actually executed at least once.
    pub hits: u64,
    /// Executions that happened inside an open window.
    pub executions_in_window: u64,
    /// All executions of the pair, forecast or not.
    pub executions_total: u64,
}

/// Compact cross-section of every gauge, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSummary {
    /// Largest timestamp seen, in cycles.
    pub elapsed_cycles: u64,
    /// Time-weighted fraction of container-cycles holding a usable Atom.
    pub fabric_occupancy: f64,
    /// Time-weighted logic utilisation (occupancy weighted per Atom).
    pub logic_utilization: f64,
    /// Fraction of cycles the single reconfiguration port was writing.
    pub bus_busy_fraction: f64,
    /// Completed rotations.
    pub rotations_completed: u64,
    /// Closed forecast windows.
    pub forecast_windows: u64,
    /// Fraction of windows whose SI actually executed.
    pub forecast_precision: f64,
    /// Fraction of executions that were forecast when they happened.
    pub forecast_recall: f64,
    /// Fraction of monitored FC outcomes that were reached. `None` when
    /// the run monitored no FC outcomes at all — a workload without FC
    /// instrumentation points has no hit rate, which is different from a
    /// hit rate of zero.
    pub fc_hit_rate: Option<f64>,
    /// SI executions observed.
    pub executions_total: u64,
    /// Fraction of executions that ran in hardware.
    pub hw_fraction: f64,
    /// Cycles saved by hardware executions versus the observed software
    /// baseline.
    pub cycles_saved_vs_sw: u64,
    /// Events a bounded timeline capture in the same pipeline dropped
    /// (see [`TimelineSink::dropped_events`](crate::TimelineSink::dropped_events)
    /// and [`MetricsSink::note_dropped_events`]). Nonzero means any
    /// captured timeline is a truncated tail, not the complete run.
    pub dropped_events: u64,
}

impl MetricsSummary {
    /// Folds another shard's summary into this one, producing the
    /// fleet-level cross-section of the two runs taken together.
    ///
    /// Counter fields add (`cycles_saved_vs_sw` saturating);
    /// `elapsed_cycles` adds too, because fleet shards are independent
    /// simulated machines and the total is aggregate simulated work, not
    /// wall time. Ratio fields recombine as weighted means over their
    /// denominators: the count-based ratios (`forecast_precision` over
    /// `forecast_windows`, `forecast_recall` and `hw_fraction` over
    /// `executions_total`) come out exactly as if one sink had observed
    /// both event streams; the time-weighted gauges
    /// (occupancy/utilisation/bus, over `elapsed_cycles`) pool the two
    /// machines' container-cycles, which is the fleet-level reading of
    /// the same fraction. The one approximation is `fc_hit_rate`, whose
    /// denominator (monitored FC outcomes) is not part of the summary —
    /// it weights by `forecast_windows`, the closest recorded proxy.
    ///
    /// Integer fields merge order-independently; the floating-point
    /// weighted means are order-independent up to rounding.
    pub fn merge(&mut self, other: &Self) {
        fn weighted(a: f64, wa: u64, b: f64, wb: u64) -> f64 {
            let (wa, wb) = (wa as f64, wb as f64);
            if wa + wb == 0.0 {
                0.0
            } else {
                // Plain (not fused) products keep the two-way merge
                // exactly commutative in IEEE arithmetic.
                (a * wa + b * wb) / (wa + wb)
            }
        }
        self.fabric_occupancy = weighted(
            self.fabric_occupancy,
            self.elapsed_cycles,
            other.fabric_occupancy,
            other.elapsed_cycles,
        );
        self.logic_utilization = weighted(
            self.logic_utilization,
            self.elapsed_cycles,
            other.logic_utilization,
            other.elapsed_cycles,
        );
        self.bus_busy_fraction = weighted(
            self.bus_busy_fraction,
            self.elapsed_cycles,
            other.bus_busy_fraction,
            other.elapsed_cycles,
        );
        self.forecast_precision = weighted(
            self.forecast_precision,
            self.forecast_windows,
            other.forecast_precision,
            other.forecast_windows,
        );
        self.fc_hit_rate = match (self.fc_hit_rate, other.fc_hit_rate) {
            (None, rate) | (rate, None) => rate,
            (Some(a), Some(b)) => Some(weighted(
                a,
                self.forecast_windows,
                b,
                other.forecast_windows,
            )),
        };
        self.forecast_recall = weighted(
            self.forecast_recall,
            self.executions_total,
            other.forecast_recall,
            other.executions_total,
        );
        self.hw_fraction = weighted(
            self.hw_fraction,
            self.executions_total,
            other.hw_fraction,
            other.executions_total,
        );
        self.elapsed_cycles += other.elapsed_cycles;
        self.rotations_completed += other.rotations_completed;
        self.forecast_windows += other.forecast_windows;
        self.executions_total += other.executions_total;
        self.cycles_saved_vs_sw = self
            .cycles_saved_vs_sw
            .saturating_add(other.cycles_saved_vs_sw);
        self.dropped_events += other.dropped_events;
    }

    /// [`MetricsSummary::merge`], by value — convenient in folds.
    #[must_use]
    pub fn merged(mut self, other: &Self) -> Self {
        self.merge(other);
        self
    }

    /// The summary's Prometheus series as
    /// `(name, kind, help, value)` tuples, in exposition order — the
    /// building block for renderers that interleave several summaries
    /// (e.g. a fleet aggregate next to `{shard="k"}`-labeled lines,
    /// which must keep each metric family contiguous).
    #[must_use]
    pub fn prometheus_series(&self) -> Vec<(&'static str, &'static str, &'static str, f64)> {
        let mut series = vec![
            (
                "rispp_elapsed_cycles",
                "gauge",
                "Largest simulated timestamp seen.",
                self.elapsed_cycles as f64,
            ),
            (
                "rispp_fabric_occupancy",
                "gauge",
                "Time-weighted fraction of container-cycles holding a usable Atom.",
                self.fabric_occupancy,
            ),
            (
                "rispp_logic_utilization",
                "gauge",
                "Occupancy weighted by per-Atom logic utilisation (Table 1).",
                self.logic_utilization,
            ),
            (
                "rispp_bus_busy_fraction",
                "gauge",
                "Fraction of time the single reconfiguration port was writing.",
                self.bus_busy_fraction,
            ),
            (
                "rispp_forecast_precision",
                "gauge",
                "Fraction of forecast windows whose SI actually executed.",
                self.forecast_precision,
            ),
            (
                "rispp_forecast_recall",
                "gauge",
                "Fraction of executions that were forecast when they happened.",
                self.forecast_recall,
            ),
            (
                "rispp_hw_fraction",
                "gauge",
                "Fraction of SI executions that ran in hardware.",
                self.hw_fraction,
            ),
            (
                "rispp_rotations_completed_total",
                "counter",
                "Completed rotations.",
                self.rotations_completed as f64,
            ),
            (
                "rispp_executions_total",
                "counter",
                "SI executions observed.",
                self.executions_total as f64,
            ),
            (
                "rispp_cycles_saved_vs_sw_total",
                "counter",
                "Cycles saved by hardware executions vs the observed software baseline.",
                self.cycles_saved_vs_sw as f64,
            ),
            (
                "rispp_timeline_dropped_events_total",
                "counter",
                "Events dropped by a bounded timeline capture (nonzero = truncated capture).",
                self.dropped_events as f64,
            ),
        ];
        // Absent (not zero) when the run monitored no FC outcomes.
        if let Some(rate) = self.fc_hit_rate {
            series.insert(
                6,
                (
                    "rispp_fc_hit_rate",
                    "gauge",
                    "Fraction of monitored FC outcomes that were reached.",
                    rate,
                ),
            );
        }
        series
    }
}

fn weight_of(weights: &[f64], kind: AtomKind) -> f64 {
    weights.get(kind.index()).copied().unwrap_or(1.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sink integrating time-weighted gauges from a live or replayed stream.
///
/// Container tracks grow on demand from the indices seen in
/// [`Event::ContainerLoaded`] / [`Event::ContainerEvicted`]; fix the
/// denominator up front with [`MetricsSink::with_containers`] when the
/// fabric size is known (containers that never load would otherwise be
/// invisible and inflate the occupancy fraction).
///
/// # Examples
///
/// ```
/// use rispp_core::atom::AtomKind;
/// use rispp_obs::{Event, EventSink, MetricsSink};
///
/// let mut m = MetricsSink::new().with_containers(2);
/// m.emit(0, &Event::ContainerLoaded { container: 0, kind: AtomKind(0) });
/// m.advance_to(1_000);
/// assert!((m.fabric_occupancy() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    now: u64,
    containers: Vec<ContainerTrack>,
    fixed_containers: Option<usize>,
    /// Per-Atom-kind logic-utilisation weights (1.0 when absent).
    weights: Vec<f64>,
    bus_busy_cycles: u64,
    bus_busy_since: Option<u64>,
    rotations_started: u64,
    rotations_completed: u64,
    rotations_failed: u64,
    open_windows: Vec<Window>,
    by_pair: BTreeMap<(TaskId, usize), ForecastStats>,
    windows_total: u64,
    windows_hit: u64,
    executions_total: u64,
    executions_forecast: u64,
    hw_executions: u64,
    hw_cycles: u64,
    sw_cycles: u64,
    fc_outcomes: u64,
    fc_outcomes_reached: u64,
    /// Most recent software latency observed per SI — the baseline for
    /// cycles-saved. Observational by design: the event stream does not
    /// carry the library's static software latency, so savings only
    /// accrue once the SI has executed in software at least once.
    sw_baseline: BTreeMap<usize, u64>,
    cycles_saved: u64,
    /// Events a bounded capture elsewhere in the pipeline dropped; fed
    /// in via [`MetricsSink::note_dropped_events`], not the event
    /// stream (the sink itself never drops).
    dropped_events: u64,
}

impl MetricsSink {
    /// Creates an empty sink (containers grow on demand, weight 1.0).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the container-count denominator (e.g.
    /// `fabric.num_containers()`).
    #[must_use]
    pub fn with_containers(mut self, n: usize) -> Self {
        self.fixed_containers = Some(n);
        self.track(n.saturating_sub(1));
        self
    }

    /// Installs per-Atom-kind logic-utilisation weights, index-aligned
    /// with the platform atom set — typically
    /// `catalog.iter().map(|(_, p)| p.utilization()).collect()`, turning
    /// [`MetricsSink::logic_utilization`] into Table 1's utilisation
    /// column integrated over the run.
    #[must_use]
    pub fn with_utilization_weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = weights;
        self
    }

    /// Largest timestamp seen, in cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the observation horizon without an event (gauges
    /// integrate up to the largest timestamp seen; a quiet tail would
    /// otherwise not count).
    pub fn advance_to(&mut self, at: u64) {
        self.now = self.now.max(at);
    }

    /// Closes every still-open forecast window. Idempotent; call once
    /// the stream ends, before reading the forecast-accuracy figures.
    pub fn finish(&mut self) {
        for w in std::mem::take(&mut self.open_windows) {
            self.settle_window(&w);
        }
    }

    fn settle_window(&mut self, w: &Window) {
        self.windows_total += 1;
        let stats = self.by_pair.entry((w.task, w.si.index())).or_default();
        stats.windows += 1;
        if w.executed {
            self.windows_hit += 1;
            stats.hits += 1;
        }
    }

    fn track(&mut self, index: usize) -> &mut ContainerTrack {
        if self.containers.len() <= index {
            self.containers
                .resize_with(index + 1, ContainerTrack::default);
        }
        &mut self.containers[index]
    }

    fn container_count(&self) -> usize {
        self.fixed_containers.unwrap_or(self.containers.len())
    }

    /// Time-weighted fraction of `[0, now]` container `index` held a
    /// usable Atom.
    #[must_use]
    pub fn container_occupancy(&self, index: usize) -> f64 {
        if self.now == 0 {
            return 0.0;
        }
        let loaded = self
            .containers
            .get(index)
            .map_or(0, |c| c.loaded_until(self.now));
        loaded as f64 / self.now as f64
    }

    /// Time-weighted fraction of container-cycles holding a usable Atom,
    /// across the whole fabric.
    #[must_use]
    pub fn fabric_occupancy(&self) -> f64 {
        let n = self.container_count();
        if self.now == 0 || n == 0 {
            return 0.0;
        }
        let loaded: u64 = self
            .containers
            .iter()
            .map(|c| c.loaded_until(self.now))
            .sum();
        loaded as f64 / (self.now as f64 * n as f64)
    }

    /// Like [`MetricsSink::fabric_occupancy`], but each loaded interval
    /// is weighted by the Atom's logic utilisation — the run-time analog
    /// of Table 1's utilisation column.
    #[must_use]
    pub fn logic_utilization(&self) -> f64 {
        let n = self.container_count();
        if self.now == 0 || n == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .containers
            .iter()
            .map(|c| c.weighted_until(self.now, &self.weights))
            .sum();
        weighted / (self.now as f64 * n as f64)
    }

    /// Instantaneous logic utilisation of the currently-loaded Atoms
    /// (no time weighting): the exact quantity `fabric::catalog` derives
    /// for a static configuration.
    #[must_use]
    pub fn loaded_logic_utilization(&self) -> f64 {
        let n = self.container_count();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .containers
            .iter()
            .filter_map(|c| c.loaded.map(|(kind, _)| weight_of(&self.weights, kind)))
            .sum();
        sum / n as f64
    }

    /// Fraction of `[0, now]` the single reconfiguration port was busy.
    /// With one SelectMap port this is also the fraction of time *any*
    /// rotation was in flight.
    #[must_use]
    pub fn bus_busy_fraction(&self) -> f64 {
        if self.now == 0 {
            return 0.0;
        }
        let open = self
            .bus_busy_since
            .map_or(0, |since| self.now.saturating_sub(since));
        (self.bus_busy_cycles + open) as f64 / self.now as f64
    }

    /// Rotations started / completed.
    #[must_use]
    pub fn rotations(&self) -> (u64, u64) {
        (self.rotations_started, self.rotations_completed)
    }

    /// Rotations that reached their completion cycle but failed
    /// bitstream verification. The port was busy for the full transfer,
    /// so failed rotations still contribute to
    /// [`MetricsSink::bus_busy_fraction`].
    #[must_use]
    pub fn rotations_failed(&self) -> u64 {
        self.rotations_failed
    }

    /// Closed forecast windows (one per forecast-to-retract/re-forecast
    /// interval).
    #[must_use]
    pub fn forecast_windows(&self) -> u64 {
        self.windows_total
    }

    /// Fraction of closed windows whose SI actually executed — did the
    /// forecasts come true?
    #[must_use]
    pub fn forecast_precision(&self) -> f64 {
        ratio(self.windows_hit, self.windows_total)
    }

    /// Fraction of executions that were forecast when they happened —
    /// did executions come announced?
    #[must_use]
    pub fn forecast_recall(&self) -> f64 {
        ratio(self.executions_forecast, self.executions_total)
    }

    /// Fraction of monitored [`Event::FcOutcome`]s that were reached.
    #[must_use]
    pub fn fc_hit_rate(&self) -> f64 {
        ratio(self.fc_outcomes_reached, self.fc_outcomes)
    }

    /// Per-`(task, si)` forecast-accuracy aggregates, in key order.
    pub fn forecast_stats(&self) -> impl Iterator<Item = ((TaskId, SiId), ForecastStats)> + '_ {
        self.by_pair
            .iter()
            .map(|(&(task, si), &stats)| ((task, SiId(si)), stats))
    }

    /// Cycles saved by hardware executions against the most recent
    /// observed software latency of the same SI.
    #[must_use]
    pub fn cycles_saved_vs_sw(&self) -> u64 {
        self.cycles_saved
    }

    /// Executions observed (total, hardware).
    #[must_use]
    pub fn executions(&self) -> (u64, u64) {
        (self.executions_total, self.hw_executions)
    }

    /// A compact cross-section of every gauge.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            elapsed_cycles: self.now,
            fabric_occupancy: self.fabric_occupancy(),
            logic_utilization: self.logic_utilization(),
            bus_busy_fraction: self.bus_busy_fraction(),
            rotations_completed: self.rotations_completed,
            forecast_windows: self.windows_total,
            forecast_precision: self.forecast_precision(),
            forecast_recall: self.forecast_recall(),
            fc_hit_rate: (self.fc_outcomes > 0).then(|| self.fc_hit_rate()),
            executions_total: self.executions_total,
            hw_fraction: ratio(self.hw_executions, self.executions_total),
            cycles_saved_vs_sw: self.cycles_saved,
            dropped_events: self.dropped_events,
        }
    }

    /// Registers events a bounded capture (e.g. a
    /// [`TimelineSink::with_capacity`](crate::TimelineSink::with_capacity)
    /// tail) dropped, so the summary and the Prometheus exposition flag
    /// the truncation instead of letting a partial capture pass as
    /// complete. Additive across calls.
    pub fn note_dropped_events(&mut self, n: u64) {
        self.dropped_events += n;
    }

    /// Dropped events registered so far.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Does nothing: the selection cache whose flushes this registered
    /// is gone. Kept only because the benchmark's traced mirror of
    /// `ShardSpec::run` still calls it; ROADMAP item 1(a) moves that
    /// mirror onto `ShardSpec` and removes this last caller.
    pub fn note_selection_cache_invalidations(&mut self, _n: u64) {}

    /// Prometheus-style text exposition of every gauge and counter.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "rispp_elapsed_cycles",
            "Largest simulated timestamp seen.",
            self.now as f64,
        );
        gauge(
            "rispp_fabric_occupancy",
            "Time-weighted fraction of container-cycles holding a usable Atom.",
            self.fabric_occupancy(),
        );
        gauge(
            "rispp_logic_utilization",
            "Occupancy weighted by per-Atom logic utilisation (Table 1).",
            self.logic_utilization(),
        );
        gauge(
            "rispp_bus_busy_fraction",
            "Fraction of time the single reconfiguration port was writing.",
            self.bus_busy_fraction(),
        );
        gauge(
            "rispp_forecast_precision",
            "Fraction of forecast windows whose SI actually executed.",
            self.forecast_precision(),
        );
        gauge(
            "rispp_forecast_recall",
            "Fraction of executions that were forecast when they happened.",
            self.forecast_recall(),
        );
        // Absent (not zero) when the run monitored no FC outcomes.
        if self.fc_outcomes > 0 {
            gauge(
                "rispp_fc_hit_rate",
                "Fraction of monitored FC outcomes that were reached.",
                self.fc_hit_rate(),
            );
        }
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "rispp_rotations_completed_total",
            "Completed rotations.",
            self.rotations_completed,
        );
        counter(
            "rispp_executions_total",
            "SI executions observed.",
            self.executions_total,
        );
        counter(
            "rispp_hw_executions_total",
            "SI executions that ran in hardware.",
            self.hw_executions,
        );
        counter(
            "rispp_cycles_saved_vs_sw_total",
            "Cycles saved by hardware executions vs the observed software baseline.",
            self.cycles_saved,
        );
        counter(
            "rispp_timeline_dropped_events_total",
            "Events dropped by a bounded timeline capture (nonzero = truncated capture).",
            self.dropped_events,
        );
        let _ = writeln!(
            out,
            "# HELP rispp_container_occupancy Per-container time-weighted occupancy."
        );
        let _ = writeln!(out, "# TYPE rispp_container_occupancy gauge");
        for i in 0..self.container_count() {
            let _ = writeln!(
                out,
                "rispp_container_occupancy{{container=\"{i}\"}} {}",
                self.container_occupancy(i)
            );
        }
        out
    }
}

impl EventSink for MetricsSink {
    fn emit(&mut self, at: u64, event: &Event) {
        self.now = self.now.max(at);
        match event {
            Event::RotationStarted { .. } => {
                self.rotations_started += 1;
                if self.bus_busy_since.is_none() {
                    self.bus_busy_since = Some(at);
                }
            }
            Event::RotationCompleted { .. } => {
                self.rotations_completed += 1;
                if let Some(since) = self.bus_busy_since.take() {
                    self.bus_busy_cycles += at.saturating_sub(since);
                }
            }
            Event::RotationFailed { .. } => {
                self.rotations_failed += 1;
                if let Some(since) = self.bus_busy_since.take() {
                    self.bus_busy_cycles += at.saturating_sub(since);
                }
            }
            Event::ContainerLoaded { container, kind } => {
                let track = self.track(*container as usize);
                if track.loaded.is_none() {
                    track.loaded = Some((*kind, at));
                }
            }
            Event::ContainerEvicted { container, .. } => {
                let idx = *container as usize;
                self.track(idx);
                if let Some((kind, since)) = self.containers[idx].loaded.take() {
                    let held = at.saturating_sub(since);
                    let weighted = held as f64 * weight_of(&self.weights, kind);
                    self.containers[idx].loaded_cycles += held;
                    self.containers[idx].weighted_cycles += weighted;
                }
            }
            Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                ..
            } => {
                self.executions_total += 1;
                let stats = self.by_pair.entry((*task, si.index())).or_default();
                stats.executions_total += 1;
                let forecast = self
                    .open_windows
                    .iter_mut()
                    .find(|w| w.task == *task && w.si == *si);
                if let Some(w) = forecast {
                    w.executed = true;
                    self.executions_forecast += 1;
                    stats.executions_in_window += 1;
                }
                if *hw {
                    self.hw_executions += 1;
                    self.hw_cycles += cycles;
                    if let Some(&baseline) = self.sw_baseline.get(&si.index()) {
                        self.cycles_saved += baseline.saturating_sub(*cycles);
                    }
                } else {
                    self.sw_cycles += cycles;
                    self.sw_baseline.insert(si.index(), *cycles);
                }
            }
            Event::ForecastUpdated { task, si, .. } => {
                if let Some(i) = self
                    .open_windows
                    .iter()
                    .position(|w| w.task == *task && w.si == *si)
                {
                    let w = self.open_windows.remove(i);
                    self.settle_window(&w);
                }
                self.open_windows.push(Window {
                    task: *task,
                    si: *si,
                    executed: false,
                });
            }
            Event::ForecastRetracted { task, si } => {
                if let Some(i) = self
                    .open_windows
                    .iter()
                    .position(|w| w.task == *task && w.si == *si)
                {
                    let w = self.open_windows.remove(i);
                    self.settle_window(&w);
                }
            }
            Event::FcOutcome { reached, .. } => {
                self.fc_outcomes += 1;
                if *reached {
                    self.fc_outcomes_reached += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_integrates_loaded_intervals() {
        let mut m = MetricsSink::new().with_containers(2);
        m.emit(
            0,
            &Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(0),
            },
        );
        m.emit(
            30,
            &Event::ContainerEvicted {
                container: 0,
                kind: AtomKind(0),
            },
        );
        m.advance_to(60);
        // AC0 loaded 30/60, AC1 never loaded.
        assert!((m.container_occupancy(0) - 0.5).abs() < 1e-12);
        assert_eq!(m.container_occupancy(1), 0.0);
        assert!((m.fabric_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn logic_utilization_applies_weights() {
        let mut m = MetricsSink::new()
            .with_containers(2)
            .with_utilization_weights(vec![0.5, 0.25]);
        m.emit(
            0,
            &Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(0),
            },
        );
        m.emit(
            0,
            &Event::ContainerLoaded {
                container: 1,
                kind: AtomKind(1),
            },
        );
        m.advance_to(100);
        // Instantaneous == time-weighted when nothing changes.
        assert!((m.loaded_logic_utilization() - 0.375).abs() < 1e-12);
        assert!((m.logic_utilization() - 0.375).abs() < 1e-12);
        assert!((m.fabric_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bus_busy_covers_rotation_intervals() {
        let mut m = MetricsSink::new();
        m.emit(
            0,
            &Event::RotationStarted {
                container: 0,
                kind: AtomKind(0),
            },
        );
        m.emit(
            50,
            &Event::RotationCompleted {
                container: 0,
                kind: AtomKind(0),
            },
        );
        m.advance_to(100);
        assert!((m.bus_busy_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(m.rotations(), (1, 1));
        // An open rotation counts up to `now`.
        m.emit(
            100,
            &Event::RotationStarted {
                container: 1,
                kind: AtomKind(1),
            },
        );
        m.advance_to(200);
        assert!((m.bus_busy_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn forecast_precision_and_recall() {
        let si_a = SiId(0);
        let si_b = SiId(1);
        let mut m = MetricsSink::new();
        let forecast = |si| Event::ForecastUpdated {
            task: 0,
            si,
            probability: 1.0,
            expected_executions: 1.0,
        };
        m.emit(0, &forecast(si_a));
        m.emit(0, &forecast(si_b));
        // si_a executes inside its window; si_b never does; an un-forecast
        // SI executes too.
        m.emit(
            10,
            &Event::SiExecuted {
                task: 0,
                si: si_a,
                hw: false,
                cycles: 100,
                molecule: None,
            },
        );
        m.emit(
            20,
            &Event::SiExecuted {
                task: 0,
                si: SiId(7),
                hw: false,
                cycles: 100,
                molecule: None,
            },
        );
        m.emit(30, &Event::ForecastRetracted { task: 0, si: si_a });
        m.finish();
        assert_eq!(m.forecast_windows(), 2);
        assert!((m.forecast_precision() - 0.5).abs() < 1e-12);
        assert!((m.forecast_recall() - 0.5).abs() < 1e-12);
        let stats: Vec<_> = m.forecast_stats().collect();
        assert_eq!(
            stats[0],
            (
                (0, si_a),
                ForecastStats {
                    windows: 1,
                    hits: 1,
                    executions_in_window: 1,
                    executions_total: 1,
                }
            )
        );
        assert_eq!(stats[1].1.hits, 0);
    }

    #[test]
    fn fc_outcomes_feed_hit_rate() {
        let mut m = MetricsSink::new();
        for reached in [true, true, false, true] {
            m.emit(
                0,
                &Event::FcOutcome {
                    task: 0,
                    si: SiId(0),
                    reached,
                },
            );
        }
        assert!((m.fc_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fc_hit_rate_absent_without_outcomes() {
        let mut m = MetricsSink::new();
        assert_eq!(m.summary().fc_hit_rate, None);
        assert!(!m.render_prometheus().contains("rispp_fc_hit_rate"));
        assert!(!m
            .summary()
            .prometheus_series()
            .iter()
            .any(|(name, ..)| *name == "rispp_fc_hit_rate"));
        m.emit(
            0,
            &Event::FcOutcome {
                task: 0,
                si: SiId(0),
                reached: true,
            },
        );
        assert_eq!(m.summary().fc_hit_rate, Some(1.0));
        assert!(m.render_prometheus().contains("rispp_fc_hit_rate 1"));
        // Option-aware merge: a shard without FC points does not dilute
        // one that has them.
        let mut a = MetricsSummary {
            fc_hit_rate: Some(0.5),
            forecast_windows: 2,
            ..MetricsSummary::default()
        };
        a.merge(&MetricsSummary::default());
        assert_eq!(a.fc_hit_rate, Some(0.5));
    }

    #[test]
    fn cycles_saved_uses_observed_sw_baseline() {
        let si = SiId(2);
        let exec = |hw, cycles| Event::SiExecuted {
            task: 0,
            si,
            hw,
            cycles,
            molecule: None,
        };
        let mut m = MetricsSink::new();
        // A hardware execution before any software observation saves an
        // unknown amount — counted as zero by design.
        m.emit(0, &exec(true, 20));
        assert_eq!(m.cycles_saved_vs_sw(), 0);
        m.emit(10, &exec(false, 500));
        m.emit(20, &exec(true, 20));
        m.emit(30, &exec(true, 20));
        assert_eq!(m.cycles_saved_vs_sw(), 960);
        assert_eq!(m.executions(), (4, 3));
    }

    #[test]
    fn prometheus_exposition_lists_gauges() {
        let mut m = MetricsSink::new().with_containers(1);
        m.emit(
            0,
            &Event::ContainerLoaded {
                container: 0,
                kind: AtomKind(0),
            },
        );
        m.advance_to(10);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE rispp_fabric_occupancy gauge"));
        assert!(text.contains("rispp_fabric_occupancy 1"));
        assert!(text.contains("rispp_container_occupancy{container=\"0\"} 1"));
        assert!(text.contains("# TYPE rispp_rotations_completed_total counter"));
    }

    #[test]
    fn summary_merge_matches_the_combined_sink_oracle() {
        // Two disjoint event streams (different tasks, so windows never
        // interact) fed to separate sinks and merged must report the
        // count-based ratios of one sink that observed both streams.
        let exec = |task, si, hw, cycles| Event::SiExecuted {
            task,
            si: SiId(si),
            hw,
            cycles,
            molecule: None,
        };
        let forecast = |task, si| Event::ForecastUpdated {
            task,
            si: SiId(si),
            probability: 1.0,
            expected_executions: 4.0,
        };
        let stream_a = vec![
            (0, forecast(0, 0)),
            (5, exec(0, 0, false, 500)),
            (10, exec(0, 0, true, 20)),
            (
                40,
                Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0),
                },
            ),
            (60, exec(0, 3, true, 9)),
        ];
        let stream_b = vec![
            (0, forecast(1, 1)),
            (0, forecast(1, 2)),
            (7, exec(1, 1, true, 30)),
            (
                90,
                Event::ForecastRetracted {
                    task: 1,
                    si: SiId(1),
                },
            ),
            (
                95,
                Event::ForecastRetracted {
                    task: 1,
                    si: SiId(2),
                },
            ),
        ];
        let mut a = MetricsSink::new().with_containers(2);
        let mut b = MetricsSink::new().with_containers(2);
        let mut both = MetricsSink::new().with_containers(2);
        for (at, e) in &stream_a {
            a.emit(*at, e);
            both.emit(*at, e);
        }
        for (at, e) in &stream_b {
            b.emit(*at, e);
            both.emit(*at, e);
        }
        for sink in [&mut a, &mut b, &mut both] {
            sink.finish();
        }
        let merged = a.summary().merged(&b.summary());
        let oracle = both.summary();
        assert_eq!(merged.executions_total, oracle.executions_total);
        assert_eq!(merged.forecast_windows, oracle.forecast_windows);
        assert_eq!(merged.rotations_completed, oracle.rotations_completed);
        assert!((merged.forecast_precision - oracle.forecast_precision).abs() < 1e-12);
        assert!((merged.forecast_recall - oracle.forecast_recall).abs() < 1e-12);
        assert!((merged.hw_fraction - oracle.hw_fraction).abs() < 1e-12);
        assert_eq!(merged.cycles_saved_vs_sw, oracle.cycles_saved_vs_sw);
        // Independent machines: elapsed is total simulated work, and the
        // merge is commutative.
        assert_eq!(merged.elapsed_cycles, 60 + 95);
        let flipped = b.summary().merged(&a.summary());
        assert_eq!(merged, flipped);
    }

    #[test]
    fn summary_merge_weights_time_gauges_by_elapsed() {
        let mut merged = MetricsSummary {
            elapsed_cycles: 100,
            fabric_occupancy: 1.0,
            bus_busy_fraction: 0.5,
            ..MetricsSummary::default()
        };
        let other = MetricsSummary {
            elapsed_cycles: 300,
            fabric_occupancy: 0.0,
            bus_busy_fraction: 0.1,
            ..MetricsSummary::default()
        };
        merged.merge(&other);
        // 100 container-cycles at 1.0 + 300 at 0.0 → 0.25 of the pool.
        assert!((merged.fabric_occupancy - 0.25).abs() < 1e-12);
        assert!((merged.bus_busy_fraction - 0.2).abs() < 1e-12);
        assert_eq!(merged.elapsed_cycles, 400);
        // Merging an all-zero summary (an idle shard with no elapsed
        // time) is the identity.
        let before = merged;
        merged.merge(&MetricsSummary::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn dropped_events_surface_in_summary_and_prometheus() {
        let mut m = MetricsSink::new();
        assert_eq!(m.dropped_events(), 0);
        m.note_dropped_events(3);
        m.note_dropped_events(4);
        assert_eq!(m.dropped_events(), 7);
        assert_eq!(m.summary().dropped_events, 7);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE rispp_timeline_dropped_events_total counter"));
        assert!(text.contains("rispp_timeline_dropped_events_total 7"));
        // Fleet merges add drop counts like any other counter.
        let mut a = MetricsSummary {
            dropped_events: 7,
            ..MetricsSummary::default()
        };
        a.merge(&MetricsSummary {
            dropped_events: 5,
            ..MetricsSummary::default()
        });
        assert_eq!(a.dropped_events, 12);
    }

    #[test]
    fn summary_is_a_cross_section() {
        let mut m = MetricsSink::new().with_containers(1);
        m.emit(
            0,
            &Event::SiExecuted {
                task: 0,
                si: SiId(0),
                hw: true,
                cycles: 10,
                molecule: None,
            },
        );
        m.advance_to(100);
        let s = m.summary();
        assert_eq!(s.elapsed_cycles, 100);
        assert_eq!(s.executions_total, 1);
        assert!((s.hw_fraction - 1.0).abs() < 1e-12);
        assert_eq!(s.cycles_saved_vs_sw, 0);
    }
}
