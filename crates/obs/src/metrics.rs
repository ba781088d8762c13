//! Time-weighted gauges and derived series over the event stream.
//!
//! The [`MetricsSink`] is the one fold from events to a run's numbers.
//! Beside the event count and the all-SI latency histogram it answers
//! *how much of the time* — the quantities the paper argues with:
//! Atom-Container occupancy (Table 1's utilisation column, integrated
//! over a run instead of a synthesis report), rotation-bus busyness (one
//! SelectMap port serialises every rotation), forecast accuracy (how
//! well FC instructions predicted the SIs that actually executed), and
//! cycles saved versus pure-software execution.
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
use crate::latency::LatencyHistogram;
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
        self.loaded_cycles.saturating_add(open)
    }

    fn weighted_until(&self, now: u64, weights: &[f64]) -> f64 {
        let open = self.loaded.map_or(0.0, |(kind, since)| {
            now.saturating_sub(since) as f64 * weight_of(weights, kind)
        });
        self.weighted_cycles + open
    }
}

/// Everything the fold keeps about one `(task, si)` pair.
#[derive(Debug, Clone)]
struct Slot {
    task: TaskId,
    si: usize,
    stats: ForecastStats,
    /// `Some(executed)` while a forecast window is open: whether the SI
    /// has executed inside it yet.
    window: Option<bool>,
    /// Index of the pair's SI in [`MetricsSink`]'s software baselines.
    baseline: usize,
}

impl Slot {
    /// Closes the pair's forecast window, if one is open.
    fn close_window(&mut self) {
        if let Some(executed) = self.window.take() {
            self.stats.windows += 1;
            self.stats.hits += u64::from(executed);
        }
    }
}

/// Lines of the direct-mapped cache in front of the ordered pair index:
/// a power of two, fixed, so no id read from a log sizes it.
const PAIR_CACHE_LINES: usize = 32;

/// The cache line of a `(task, si)` pair. SI ids are dense library
/// indices and a run has few tasks, so eight lines per task keep the
/// pairs of up to four tasks of eight SIs apart; other ids share lines.
fn pair_line(task: TaskId, si: usize) -> usize {
    ((task as usize) << 3).wrapping_add(si) & (PAIR_CACHE_LINES - 1)
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
        self.elapsed_cycles = self.elapsed_cycles.saturating_add(other.elapsed_cycles);
        self.rotations_completed = self
            .rotations_completed
            .saturating_add(other.rotations_completed);
        self.forecast_windows = self.forecast_windows.saturating_add(other.forecast_windows);
        self.executions_total = self.executions_total.saturating_add(other.executions_total);
        self.cycles_saved_vs_sw = self
            .cycles_saved_vs_sw
            .saturating_add(other.cycles_saved_vs_sw);
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
/// Forecast accounting keeps one slot per `(task, si)` pair, in
/// first-seen order. An event reaches its pair's slot through the slot
/// the previous event touched or one line of a fixed direct-mapped
/// cache; only a new pair, or one whose line another pair holds, looks
/// in the ordered index. No table is indexed by an id's value.
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
    /// One slot per `(task, si)` pair seen, in first-seen order, so a
    /// slot's index never changes.
    slots: Vec<Slot>,
    /// The ordered pair index: consulted when the cursor and the cache
    /// miss, and walked for [`MetricsSink::forecast_stats`]'s key order.
    index: BTreeMap<(TaskId, usize), usize>,
    /// The slot of the pair the last execution or forecast event
    /// touched: a stream that repeats one pair finds it here.
    cursor: usize,
    /// Direct-mapped slot cache for streams that interleave pairs, by
    /// [`pair_line`]; each line is checked against its slot's key.
    lines: [usize; PAIR_CACHE_LINES],
    hw_executions: u64,
    fc_outcomes: u64,
    fc_outcomes_reached: u64,
    /// Most recent software latency observed per SI, in first-seen SI
    /// order — the baseline for cycles-saved. Observational by design:
    /// the event stream does not carry the library's static software
    /// latency, so savings only accrue once the SI has executed in
    /// software at least once.
    baselines: Vec<Option<u64>>,
    /// Each SI's index in `baselines`, consulted when a slot is made.
    baseline_of: BTreeMap<usize, usize>,
    cycles_saved: u64,
    /// Events observed, of every kind.
    events: u64,
    /// Latency of every SI execution, across all SIs; its count is the
    /// number of executions.
    latency: LatencyHistogram,
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
        for slot in &mut self.slots {
            slot.close_window();
        }
    }

    /// Points the cursor at the slot of `(task, si)`, making one when the
    /// pair is new. The cursor, then one cache line, are tried before
    /// the ordered index.
    #[inline]
    fn seek(&mut self, task: TaskId, si: usize) {
        let is = |slot: Option<&Slot>| slot.is_some_and(|s| s.task == task && s.si == si);
        if is(self.slots.get(self.cursor)) {
            return;
        }
        let line = pair_line(task, si);
        if is(self.slots.get(self.lines[line])) {
            self.cursor = self.lines[line];
            return;
        }
        self.seek_index(task, si);
        self.lines[line] = self.cursor;
    }

    /// Points the cursor at the slot of `(task, si)` through the ordered
    /// index, appending a slot for a new pair.
    #[inline(never)]
    fn seek_index(&mut self, task: TaskId, si: usize) {
        if let Some(&slot) = self.index.get(&(task, si)) {
            self.cursor = slot;
            return;
        }
        let baseline = *self.baseline_of.entry(si).or_insert(self.baselines.len());
        if baseline == self.baselines.len() {
            self.baselines.push(None);
        }
        self.index.insert((task, si), self.slots.len());
        self.slots.push(Slot {
            task,
            si,
            stats: ForecastStats::default(),
            window: None,
            baseline,
        });
        self.cursor = self.slots.len() - 1;
    }

    fn track(&mut self, index: usize) -> &mut ContainerTrack {
        if self.containers.len() <= index {
            self.containers
                .resize_with(index + 1, ContainerTrack::default);
        }
        &mut self.containers[index]
    }

    /// Ends the port's busy interval, if one is open, at `at`.
    fn close_bus(&mut self, at: u64) {
        if let Some(since) = self.bus_busy_since.take() {
            self.bus_busy_cycles = self
                .bus_busy_cycles
                .saturating_add(at.saturating_sub(since));
        }
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
        // One container's loaded cycles fit a u64 (they lie within
        // [0, now]); their sum over the fabric may not.
        let loaded: u128 = self
            .containers
            .iter()
            .map(|c| u128::from(c.loaded_until(self.now)))
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
        self.bus_busy_cycles.saturating_add(open) as f64 / self.now as f64
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
        self.pair_totals().windows
    }

    /// Fraction of closed windows whose SI actually executed — did the
    /// forecasts come true?
    #[must_use]
    pub fn forecast_precision(&self) -> f64 {
        let totals = self.pair_totals();
        ratio(totals.hits, totals.windows)
    }

    /// Fraction of executions that were forecast when they happened —
    /// did executions come announced?
    #[must_use]
    pub fn forecast_recall(&self) -> f64 {
        ratio(
            self.pair_totals().executions_in_window,
            self.latency.count(),
        )
    }

    /// Fraction of monitored [`Event::FcOutcome`]s that were reached.
    #[must_use]
    pub fn fc_hit_rate(&self) -> f64 {
        ratio(self.fc_outcomes_reached, self.fc_outcomes)
    }

    /// The window and in-window execution counts of every pair, summed.
    fn pair_totals(&self) -> ForecastStats {
        let mut totals = ForecastStats::default();
        for slot in &self.slots {
            totals.windows += slot.stats.windows;
            totals.hits += slot.stats.hits;
            totals.executions_in_window += slot.stats.executions_in_window;
        }
        totals
    }

    /// Per-`(task, si)` forecast-accuracy aggregates, in key order.
    /// A pair that was only forecast, and whose window is still open, has
    /// no aggregate yet and is not listed.
    pub fn forecast_stats(&self) -> impl Iterator<Item = ((TaskId, SiId), ForecastStats)> + '_ {
        self.index.iter().filter_map(|(&(task, si), &slot)| {
            let stats = self.slots[slot].stats;
            (stats != ForecastStats::default()).then_some(((task, SiId(si)), stats))
        })
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
        (self.latency.count(), self.hw_executions)
    }

    /// A compact cross-section of every gauge.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        let totals = self.pair_totals();
        MetricsSummary {
            elapsed_cycles: self.now,
            fabric_occupancy: self.fabric_occupancy(),
            logic_utilization: self.logic_utilization(),
            bus_busy_fraction: self.bus_busy_fraction(),
            rotations_completed: self.rotations_completed,
            forecast_windows: totals.windows,
            forecast_precision: ratio(totals.hits, totals.windows),
            forecast_recall: ratio(totals.executions_in_window, self.latency.count()),
            fc_hit_rate: (self.fc_outcomes > 0).then(|| self.fc_hit_rate()),
            executions_total: self.latency.count(),
            hw_fraction: ratio(self.hw_executions, self.latency.count()),
            cycles_saved_vs_sw: self.cycles_saved,
        }
    }

    /// Events observed, of every kind.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Latency of every SI execution observed, across all SIs.
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Does nothing: the selection cache whose flushes this registered
    /// is gone. Kept only because the benchmark's traced mirror of
    /// `ShardSpec::run` still calls it; ROADMAP item 1(a) moves that
    /// mirror onto `ShardSpec` and removes this last caller.
    pub fn note_selection_cache_invalidations(&mut self, _n: u64) {}

    /// Prometheus-style text exposition: the summary's series
    /// ([`MetricsSummary::prometheus_series`]), then the per-container
    /// occupancy.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, kind, help, value) in self.summary().prometheus_series() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
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
        self.events += 1;
        match event {
            Event::RotationStarted { .. } => {
                self.rotations_started += 1;
                if self.bus_busy_since.is_none() {
                    self.bus_busy_since = Some(at);
                }
            }
            Event::RotationCompleted { .. } => {
                self.rotations_completed += 1;
                self.close_bus(at);
            }
            Event::RotationFailed { .. } => {
                self.rotations_failed += 1;
                self.close_bus(at);
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
                    let track = &mut self.containers[idx];
                    track.loaded_cycles = track.loaded_cycles.saturating_add(held);
                    track.weighted_cycles += weighted;
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
                self.seek(*task, si.index());
                let slot = &mut self.slots[self.cursor];
                slot.stats.executions_total += 1;
                if let Some(executed) = &mut slot.window {
                    *executed = true;
                    slot.stats.executions_in_window += 1;
                }
                let baseline = &mut self.baselines[slot.baseline];
                if *hw {
                    self.hw_executions += 1;
                    if let Some(baseline) = *baseline {
                        let saved = baseline.saturating_sub(*cycles);
                        self.cycles_saved = self.cycles_saved.saturating_add(saved);
                    }
                } else {
                    *baseline = Some(*cycles);
                }
            }
            Event::ForecastUpdated { task, si, .. } => {
                self.seek(*task, si.index());
                let slot = &mut self.slots[self.cursor];
                slot.close_window();
                slot.window = Some(false);
            }
            Event::ForecastRetracted { task, si } => {
                self.seek(*task, si.index());
                self.slots[self.cursor].close_window();
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

    /// Folds a run of executions in constant time: the `SiExecuted` arm
    /// of [`EventSink::emit`] with every count taken `n` times, through
    /// the same slot lookup. Any other event folds one at a time.
    fn emit_run(&mut self, first_at: u64, stride: u64, n: u64, event: &Event) {
        let Event::SiExecuted {
            task,
            si,
            hw,
            cycles,
            ..
        } = event
        else {
            for i in 0..n {
                self.emit(first_at + i * stride, event);
            }
            return;
        };
        if n == 0 {
            return;
        }
        self.now = self.now.max(first_at + (n - 1) * stride);
        self.events += n;
        self.latency.record_n(*cycles, n);
        self.seek(*task, si.index());
        let slot = &mut self.slots[self.cursor];
        slot.stats.executions_total += n;
        if let Some(executed) = &mut slot.window {
            *executed = true;
            slot.stats.executions_in_window += n;
        }
        let baseline = &mut self.baselines[slot.baseline];
        if *hw {
            self.hw_executions += n;
            if let Some(baseline) = *baseline {
                // Saturating n times is saturating the product once.
                let saved = baseline.saturating_sub(*cycles).saturating_mul(n);
                self.cycles_saved = self.cycles_saved.saturating_add(saved);
            }
        } else {
            *baseline = Some(*cycles);
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

    #[test]
    fn counts_every_event_and_every_execution_latency() {
        let exec = |si, hw, cycles| Event::SiExecuted {
            task: 0,
            si: SiId(si),
            hw,
            cycles,
            molecule: None,
        };
        let stream = [
            (
                0,
                Event::RotationStarted {
                    container: 0,
                    kind: AtomKind(0),
                },
            ),
            (5, exec(0, false, 500)),
            (40, exec(0, true, 20)),
            (45, exec(1, true, 9)),
            (
                50,
                Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0),
                },
            ),
        ];
        let mut m = MetricsSink::new();
        assert_eq!((m.events(), m.latency().count()), (0, 0));
        for (at, e) in &stream {
            m.emit(*at, e);
        }
        // By hand: five events, three of them executions of 500, 20 and
        // 9 cycles, recorded whatever their SI.
        assert_eq!(m.events(), 5);
        let mut hand = LatencyHistogram::default();
        for cycles in [500, 20, 9] {
            hand.record(cycles);
        }
        assert_eq!(*m.latency(), hand);
        assert_eq!(m.latency().sum_cycles(), 529);
        assert_eq!((m.latency().min(), m.latency().max()), (Some(9), Some(500)));
    }

    #[test]
    fn values_near_u64_max_saturate_instead_of_overflowing() {
        let exec = |hw, cycles| Event::SiExecuted {
            task: 0,
            si: SiId(0),
            hw,
            cycles,
            molecule: None,
        };
        // A software baseline of u64::MAX cycles: two hardware executions
        // each save almost that much.
        let mut m = MetricsSink::new();
        for (at, e) in [exec(false, u64::MAX), exec(true, 1), exec(true, 1)]
            .iter()
            .enumerate()
        {
            m.emit(at as u64, e);
        }
        assert_eq!(m.cycles_saved_vs_sw(), u64::MAX);

        // Two containers loaded from 0 to the end of the clock: their
        // loaded cycles sum past u64::MAX, and the u128 sum keeps them.
        let mut m = MetricsSink::new().with_containers(2);
        for container in 0..2 {
            m.emit(
                0,
                &Event::ContainerLoaded {
                    container,
                    kind: AtomKind(0),
                },
            );
        }
        m.advance_to(u64::MAX);
        assert_eq!(m.fabric_occupancy(), 1.0);

        // A summary at the end of the clock, merged with itself.
        let summary = m.summary();
        assert_eq!(summary.elapsed_cycles, u64::MAX);
        assert_eq!(summary.merged(&summary).elapsed_cycles, u64::MAX);

        // One event at the last cycle of the clock into a window.
        let mut w = crate::window::WindowSink::new(crate::window::WindowConfig::new(1, 4));
        w.emit(u64::MAX, &exec(false, 1));
        let snap = w.snapshot();
        assert_eq!((snap.newest, snap.executions), (u64::MAX, 1));
        assert_eq!(snap.window_cycles, 4);
    }
}
