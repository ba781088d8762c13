//! Fleet-scale live observability: tail N event exports, fold each
//! through per-shard metrics + sliding windows, evaluate SLO alert
//! rules, and expose everything over HTTP.
//!
//! This is the layer behind the `rispp_serve` binary. One [`Follower`]
//! per shard tails a growing log file — binary or JSONL, auto-detected
//! from the first bytes — and replays each newly appended record into
//! that shard's [`LiveState`] inside a shared [`FleetState`]. A
//! hand-rolled HTTP/1.1 server (plain [`std::net::TcpListener`], no
//! dependencies) answers:
//!
//! * `GET /metrics` — the Prometheus exposition. With one shard this is
//!   the full per-container exposition of a settled clone of the
//!   folding sink (equal to an offline replay of the same log prefix);
//!   with N shards every summary series appears once unlabeled (the
//!   fleet aggregate) and once per shard as `{shard="k"}`. Sliding
//!   [`window`](rispp::obs::window) series, follower counters and
//!   `rispp_alert_firing` gauges follow in every mode.
//! * `GET /status` (or `/`) — a small JSON doc: records folded, newest
//!   timestamp, detected format, decode error if any, reopen count and
//!   headline summary numbers (fleet-level when following N logs).
//! * `GET /shards` — a JSON array with one entry per followed log.
//! * `GET /alerts` — the alert rules' current values and firing state.
//!
//! The folding sinks are never `finish`ed in place — responders clone
//! and settle them, so serving stays incremental while each response is
//! self-consistent. Everything timed is keyed by *simulated* cycles
//! from the event stream, so a replay of a finished log serves exactly
//! the numbers the live follow served.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rispp::obs::alert::{AlertEngine, AlertRule};
use rispp::obs::bin::{self, StreamDecoder};
use rispp::obs::window::{WindowConfig, WindowSink, WindowSnapshot};
use rispp::obs::{jsonl, EventSink, MetricsSink, MetricsSummary};

/// How the [`Follower`] is decoding its input.
enum FollowState {
    /// Fewer than four bytes seen — format not yet decided.
    Probing(Vec<u8>),
    /// Binary export: incremental record decoding.
    Binary(StreamDecoder),
    /// JSONL export: byte carry split on newlines.
    Jsonl {
        /// Bytes after the last complete line (may split UTF-8).
        carry: Vec<u8>,
        /// Header rule and line numbers, shared with `jsonl::replay`.
        reader: jsonl::LineReader,
    },
}

/// Incrementally tails an event log and replays newly appended records
/// into any [`EventSink`]. The format — binary ([`bin`]) or JSONL —
/// is auto-detected from the first four bytes via [`bin::is_binary`].
///
/// A missing file is not an error: the run may not have created it
/// yet, so [`Follower::poll`] simply reports zero new records. A
/// *shrinking* file means truncation or log rotation: the follower
/// reopens from offset 0, re-probes the format, clears any decode
/// error, and counts the event in [`Follower::reopens`].
pub struct Follower {
    path: PathBuf,
    offset: u64,
    state: FollowState,
    reopens: u64,
    /// A decode error is sticky — the bytes will not get better — until
    /// the file shrinks and the follower starts over.
    poisoned: Option<String>,
}

/// Fills `buf` from `file` at `offset` with positioned reads (one, unless
/// the kernel returns less), stopping early only at end of file.
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    #[cfg(unix)]
    use std::os::unix::fs::FileExt;
    #[cfg(windows)]
    use std::os::windows::fs::FileExt;
    let mut filled = 0;
    while filled < buf.len() {
        let at = offset + filled as u64;
        #[cfg(unix)]
        let read = file.read_at(&mut buf[filled..], at);
        #[cfg(windows)]
        let read = file.seek_read(&mut buf[filled..], at);
        match read {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Follower {
    /// Tails `path` from the beginning.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Follower {
            path: path.into(),
            offset: 0,
            state: FollowState::Probing(Vec::new()),
            reopens: 0,
            poisoned: None,
        }
    }

    /// The path being tailed.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The detected input format, once enough bytes have arrived.
    #[must_use]
    pub fn format(&self) -> Option<&'static str> {
        match self.state {
            FollowState::Probing(_) => None,
            FollowState::Binary(_) => Some("binary"),
            FollowState::Jsonl { .. } => Some("jsonl"),
        }
    }

    /// Bytes consumed from the file so far.
    #[must_use]
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// How many times the follower restarted from offset 0 because the
    /// file shrank (truncation / log rotation).
    #[must_use]
    pub fn reopens(&self) -> u64 {
        self.reopens
    }

    /// Reads everything appended since the last poll and replays the
    /// complete records among it into `sink`. Returns how many records
    /// were emitted.
    ///
    /// On a shrinking file the follower resets — offset 0, format
    /// re-probe, decode error cleared — and returns `Ok(0)` without
    /// emitting; the *next* poll reads the new content. The reset
    /// happens before any new bytes are folded, so a caller that
    /// watches [`Follower::reopens`] can discard state folded from the
    /// previous incarnation first.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file (a missing file is treated as "no
    /// bytes yet") or a decode error from either codec — including a
    /// refused future `schema_version`. Decode errors are sticky: every
    /// later poll re-reports the same error until the file shrinks and
    /// the follower starts over.
    pub fn poll<S: EventSink>(&mut self, sink: &mut S) -> io::Result<u64> {
        let file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            self.offset = 0;
            self.state = FollowState::Probing(Vec::new());
            self.poisoned = None;
            self.reopens += 1;
            return Ok(0);
        }
        if let Some(msg) = &self.poisoned {
            return Err(invalid_data(msg));
        }
        if len == self.offset {
            return Ok(0);
        }
        let mut fresh = vec![0; (len - self.offset) as usize];
        let read = read_at(&file, &mut fresh, self.offset)?;
        // A file truncated since `metadata` yields fewer bytes: fold
        // those; the next poll sees the shrink and reopens.
        fresh.truncate(read);
        self.offset += fresh.len() as u64;
        let result = self.ingest(&fresh, sink);
        if let Err(e) = &result {
            self.poisoned = Some(e.to_string());
        }
        result
    }

    fn ingest<S: EventSink>(&mut self, bytes: &[u8], sink: &mut S) -> io::Result<u64> {
        if let FollowState::Probing(probe) = &mut self.state {
            probe.extend_from_slice(bytes);
            if probe.len() < bin::MAGIC.len() {
                return Ok(0);
            }
            let buffered = std::mem::take(probe);
            self.state = if bin::is_binary(&buffered) {
                FollowState::Binary(StreamDecoder::new())
            } else {
                FollowState::Jsonl {
                    carry: Vec::new(),
                    reader: jsonl::LineReader::new(),
                }
            };
            return self.decode(&buffered, sink);
        }
        self.decode(bytes, sink)
    }

    fn decode<S: EventSink>(&mut self, bytes: &[u8], sink: &mut S) -> io::Result<u64> {
        let mut emitted = 0;
        match &mut self.state {
            FollowState::Probing(_) => unreachable!("decode is only called once decided"),
            FollowState::Binary(decoder) => {
                decoder.feed(bytes);
                while let Some(record) = decoder.next_record().map_err(invalid_data)? {
                    sink.emit(record.at, &record.event);
                    emitted += 1;
                }
            }
            FollowState::Jsonl { carry, reader } => {
                carry.extend_from_slice(bytes);
                // Replay every complete line, walking them by index, then
                // drop them in one drain: the partial tail stays. (Draining
                // line by line would shift the rest of the buffer each
                // time, quadratic in the lines per poll.)
                let mut start = 0;
                while let Some(nl) = carry[start..].iter().position(|&b| b == b'\n') {
                    let line = &carry[start..start + nl];
                    start += nl + 1;
                    let text = std::str::from_utf8(line).map_err(invalid_data)?;
                    if let Some(record) = reader.read_line(text).map_err(invalid_data)? {
                        sink.emit(record.at, &record.event);
                        emitted += 1;
                    }
                }
                carry.drain(..start);
            }
        }
        Ok(emitted)
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One shard's folding state: the cumulative metrics sink, the sliding
/// window, and follower bookkeeping.
#[derive(Debug)]
pub struct LiveState {
    /// The folding sink. Never settled in place — responders clone it
    /// and call `finish` on the clone.
    pub metrics: MetricsSink,
    /// Sliding-window rates over the same stream.
    pub window: WindowSink,
    /// Records folded so far.
    pub records: u64,
    /// Timestamp of the newest folded record.
    pub last_at: u64,
    /// Detected input format, once known.
    pub format: Option<&'static str>,
    /// Current decode error, if any. The server keeps answering so the
    /// failure is observable; the error clears if the log is truncated
    /// and rewritten (see [`Follower::reopens`]).
    pub error: Option<String>,
    /// Times the follower restarted because the file shrank.
    pub reopens: u64,
    /// Container count the metrics sink was configured with (kept so a
    /// reopen can rebuild an identically configured sink).
    containers: usize,
}

impl LiveState {
    /// Fresh state: an empty metrics sink (`containers = 0` grows on
    /// demand) and an empty sliding window of the given shape.
    #[must_use]
    pub fn new(containers: usize, window: WindowConfig) -> Self {
        LiveState {
            metrics: build_metrics(containers),
            window: WindowSink::new(window),
            records: 0,
            last_at: 0,
            format: None,
            error: None,
            reopens: 0,
            containers,
        }
    }

    /// Discards everything folded so far (the log was truncated and is
    /// a new stream), keeping the configuration.
    pub fn reset_fold(&mut self) {
        self.metrics = build_metrics(self.containers);
        self.window = WindowSink::new(*self.window.config());
        self.records = 0;
        self.last_at = 0;
        self.format = None;
    }

    /// A settled snapshot of the folding sink: the same values an
    /// offline replay of the consumed log prefix would report.
    #[must_use]
    pub fn settled_metrics(&self) -> MetricsSink {
        let mut snapshot = self.metrics.clone();
        snapshot.finish();
        snapshot
    }

    /// The per-shard `/status`-style JSON document.
    #[must_use]
    pub fn render_status(&self) -> String {
        let summary = self.settled_metrics().summary();
        let format = self
            .format
            .map_or_else(|| "null".to_string(), |f| format!("\"{f}\""));
        let error = self
            .error
            .as_ref()
            .map_or_else(|| "null".to_string(), |e| json_string(e));
        format!(
            concat!(
                "{{\"records\":{},\"last_at\":{},\"format\":{},\"error\":{},",
                "\"reopens\":{},\"executions_total\":{},\"rotations_completed\":{},",
                "\"hw_fraction\":{},\"fabric_occupancy\":{}}}\n"
            ),
            self.records,
            self.last_at,
            format,
            error,
            self.reopens,
            summary.executions_total,
            summary.rotations_completed,
            summary.hw_fraction,
            summary.fabric_occupancy,
        )
    }
}

fn build_metrics(containers: usize) -> MetricsSink {
    if containers > 0 {
        MetricsSink::new().with_containers(containers)
    } else {
        MetricsSink::new()
    }
}

/// Folds records into a [`LiveState`], keeping the counters in step
/// with the metrics sink and the sliding window.
struct FoldSink<'a> {
    state: &'a mut LiveState,
}

impl EventSink for FoldSink<'_> {
    fn emit(&mut self, at: u64, event: &rispp::obs::Event) {
        self.state.metrics.emit(at, event);
        self.state.window.emit(at, event);
        self.state.records += 1;
        self.state.last_at = at;
    }
}

/// One polling pass for one shard: drains everything the file gained
/// since last time into the shard's state. A decode error is recorded
/// in [`LiveState::error`] (and reported as `Err`); a successful poll
/// clears it. A reopen (shrunk file) discards the state folded from the
/// previous incarnation of the log.
///
/// # Errors
///
/// Propagates [`Follower::poll`] errors after recording them.
pub fn poll_shard(follower: &mut Follower, state: &mut LiveState) -> io::Result<u64> {
    let reopens_before = follower.reopens();
    let result = follower.poll(&mut FoldSink { state });
    if follower.reopens() > reopens_before {
        state.reset_fold();
    }
    state.format = follower.format();
    state.reopens = follower.reopens();
    match &result {
        Ok(_) => state.error = None,
        Err(e) => state.error = Some(e.to_string()),
    }
    result
}

/// The names [`AlertRule::metric`] may use, resolved against the fleet
/// aggregate on every poll. Cumulative summary fields first, then the
/// sliding-window rates, then follower bookkeeping.
#[must_use]
pub fn known_metrics() -> &'static [&'static str] {
    &[
        "elapsed_cycles",
        "fabric_occupancy",
        "logic_utilization",
        "bus_busy_fraction",
        "rotations_completed",
        "forecast_windows",
        "forecast_precision",
        "forecast_recall",
        "fc_hit_rate",
        "executions_total",
        "hw_fraction",
        "sw_fallback_rate",
        "cycles_saved_vs_sw",
        "records",
        "reopens",
        "window_cycles",
        "window_events_per_kcycle",
        "window_rotations_per_kcycle",
        "window_sw_fallback_rate",
        "window_latency_p50_cycles",
        "window_latency_p99_cycles",
        "window_late_events",
    ]
}

/// Resolves one of [`known_metrics`] against a summary + window
/// cross-section. `None` for unknown names.
fn metric_value(
    name: &str,
    summary: &MetricsSummary,
    window: &WindowSnapshot,
    records: u64,
    reopens: u64,
) -> Option<f64> {
    Some(match name {
        "elapsed_cycles" => summary.elapsed_cycles as f64,
        "fabric_occupancy" => summary.fabric_occupancy,
        "logic_utilization" => summary.logic_utilization,
        "bus_busy_fraction" => summary.bus_busy_fraction,
        "rotations_completed" => summary.rotations_completed as f64,
        "forecast_windows" => summary.forecast_windows as f64,
        "forecast_precision" => summary.forecast_precision,
        "forecast_recall" => summary.forecast_recall,
        "fc_hit_rate" => summary.fc_hit_rate?,
        "executions_total" => summary.executions_total as f64,
        "hw_fraction" => summary.hw_fraction,
        "sw_fallback_rate" => 1.0 - summary.hw_fraction,
        "cycles_saved_vs_sw" => summary.cycles_saved_vs_sw as f64,
        "records" => records as f64,
        "reopens" => reopens as f64,
        "window_cycles" => window.window_cycles as f64,
        "window_events_per_kcycle" => window.events_per_kcycle(),
        "window_rotations_per_kcycle" => window.rotations_per_kcycle(),
        "window_sw_fallback_rate" => window.sw_fallback_rate(),
        "window_latency_p50_cycles" => window.latency_p50() as f64,
        "window_latency_p99_cycles" => window.latency_p99() as f64,
        "window_late_events" => window.late_events as f64,
        _ => return None,
    })
}

/// The state shared between the tailing thread and HTTP responders:
/// one [`LiveState`] per followed log, plus the optional alert engine.
#[derive(Debug)]
pub struct FleetState {
    /// Per-shard folding states, indexed like the followed paths.
    pub shards: Vec<LiveState>,
    /// The followed paths (for `/shards`).
    pub paths: Vec<PathBuf>,
    /// The SLO alert engine, when rules were loaded.
    pub alerts: Option<AlertEngine>,
}

impl FleetState {
    /// Fresh state for `paths`, each shard with the same sink
    /// configuration.
    #[must_use]
    pub fn new(
        paths: Vec<PathBuf>,
        containers: usize,
        window: WindowConfig,
        alerts: Option<AlertEngine>,
    ) -> Self {
        FleetState {
            shards: paths
                .iter()
                .map(|_| LiveState::new(containers, window))
                .collect(),
            paths,
            alerts,
        }
    }

    /// Largest simulated timestamp folded by any shard — the fleet's
    /// "now" for alert hold-for clocks.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.shards.iter().map(|s| s.last_at).max().unwrap_or(0)
    }

    /// The fleet aggregate: merged settled summaries, merged window
    /// snapshot, total records and reopens.
    #[must_use]
    pub fn aggregates(&self) -> (MetricsSummary, WindowSnapshot, u64, u64) {
        let mut summary = MetricsSummary::default();
        let mut window = WindowSnapshot::default();
        let mut records = 0;
        let mut reopens = 0;
        for shard in &self.shards {
            summary.merge(&shard.settled_metrics().summary());
            window.merge(&shard.window.snapshot());
            records += shard.records;
            reopens += shard.reopens;
        }
        (summary, window, records, reopens)
    }

    /// Evaluates the alert rules (if any) against the current fleet
    /// aggregate with live hold-for semantics. Called on every poll by
    /// the tail loop; without rules it builds no aggregate, which would
    /// settle a clone of every shard's sink only to discard it.
    pub fn evaluate_alerts(&mut self) {
        if self.alerts.is_none() {
            return;
        }
        let now = self.now();
        let (summary, window, records, reopens) = self.aggregates();
        if let Some(engine) = &mut self.alerts {
            engine.evaluate(now, |name| {
                metric_value(name, &summary, &window, records, reopens)
            });
        }
    }

    /// Final one-shot evaluation for the `--check` gate. Returns `true`
    /// when any rule fires on the end-of-log aggregate (never without
    /// rules, in which case no aggregate is built).
    pub fn check_alerts_final(&mut self) -> bool {
        if self.alerts.is_none() {
            return false;
        }
        let now = self.now();
        let (summary, window, records, reopens) = self.aggregates();
        self.alerts.as_mut().is_some_and(|engine| {
            engine.check_final(now, |name| {
                metric_value(name, &summary, &window, records, reopens)
            })
        })
    }

    /// The `/metrics` Prometheus exposition. One shard keeps the full
    /// legacy exposition (per-container series included) so it stays
    /// equal to an offline replay; N shards render every summary series
    /// once unlabeled (aggregate) and once as `{shard="k"}` for each
    /// shard that has it, each metric family contiguous. Window series,
    /// follower counters and alert gauges follow in every mode.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        let fleet = self.shards.len() > 1;
        if !fleet {
            if let Some(shard) = self.shards.first() {
                out.push_str(&shard.settled_metrics().render_prometheus());
            }
        } else {
            let summaries: Vec<MetricsSummary> = self
                .shards
                .iter()
                .map(|s| s.settled_metrics().summary())
                .collect();
            let aggregate = summaries
                .iter()
                .fold(MetricsSummary::default(), |a, s| a.merged(s));
            let per_shard: Vec<Vec<(&str, &str, &str, f64)>> =
                summaries.iter().map(|s| s.prometheus_series()).collect();
            for (name, kind, help, value) in aggregate.prometheus_series() {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
                out.push_str(&format!("{name} {value}\n"));
                // By name: a shard may lack a series the aggregate has
                // (`rispp_fc_hit_rate` without FC outcomes), and then gets
                // no line for it.
                for (k, series) in per_shard.iter().enumerate() {
                    if let Some(&(.., v)) = series.iter().find(|(n, ..)| *n == name) {
                        out.push_str(&format!("{name}{{shard=\"{k}\"}} {v}\n"));
                    }
                }
            }
        }

        let snapshots: Vec<WindowSnapshot> =
            self.shards.iter().map(|s| s.window.snapshot()).collect();
        let mut aggregate_window = WindowSnapshot::default();
        for snap in &snapshots {
            aggregate_window.merge(snap);
        }
        if !fleet {
            out.push_str(&aggregate_window.render_prometheus("", true));
        } else {
            let per_shard: Vec<Vec<(&str, &str, f64)>> =
                snapshots.iter().map(|s| s.prometheus_series()).collect();
            for (i, (name, help, value)) in
                aggregate_window.prometheus_series().into_iter().enumerate()
            {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {value}\n"));
                for (k, series) in per_shard.iter().enumerate() {
                    let v = series[i].2;
                    out.push_str(&format!("{name}{{shard=\"{k}\"}} {v}\n"));
                }
            }
        }

        out.push_str("# HELP rispp_shards Shard logs being followed.\n");
        out.push_str("# TYPE rispp_shards gauge\n");
        out.push_str(&format!("rispp_shards {}\n", self.shards.len()));
        let mut follower_counter = |name: &str, help: &str, value: fn(&LiveState) -> u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            let total: u64 = self.shards.iter().map(&value).sum();
            out.push_str(&format!("{name} {total}\n"));
            if fleet {
                for (k, shard) in self.shards.iter().enumerate() {
                    out.push_str(&format!("{name}{{shard=\"{k}\"}} {}\n", value(shard)));
                }
            }
        };
        follower_counter(
            "rispp_follower_records_total",
            "Records folded from the followed logs.",
            |s| s.records,
        );
        follower_counter(
            "rispp_follower_reopens_total",
            "Times a follower restarted because its file shrank.",
            |s| s.reopens,
        );
        if let Some(engine) = &self.alerts {
            out.push_str(&engine.render_prometheus());
        }
        out
    }

    /// The `/status` JSON document: the shard's own doc when following
    /// one log, a fleet-level roll-up when following several.
    #[must_use]
    pub fn render_status(&self) -> String {
        if self.shards.len() == 1 {
            return self.shards[0].render_status();
        }
        let (summary, _, records, reopens) = self.aggregates();
        let mut formats = self.shards.iter().map(|s| s.format);
        let first = formats.next().unwrap_or(None);
        let format = if self.shards.iter().any(|s| s.format != first) {
            "\"mixed\"".to_string()
        } else {
            first.map_or_else(|| "null".to_string(), |f| format!("\"{f}\""))
        };
        let error = self
            .shards
            .iter()
            .find_map(|s| s.error.as_ref())
            .map_or_else(|| "null".to_string(), |e| json_string(e));
        format!(
            concat!(
                "{{\"shards\":{},\"records\":{},\"last_at\":{},\"format\":{},",
                "\"error\":{},\"reopens\":{},\"executions_total\":{},",
                "\"rotations_completed\":{},\"hw_fraction\":{},",
                "\"fabric_occupancy\":{}}}\n"
            ),
            self.shards.len(),
            records,
            self.now(),
            format,
            error,
            reopens,
            summary.executions_total,
            summary.rotations_completed,
            summary.hw_fraction,
            summary.fabric_occupancy,
        )
    }

    /// The `/shards` JSON document: one entry per followed log.
    #[must_use]
    pub fn render_shards(&self) -> String {
        let mut out = String::from("[");
        for (k, (shard, path)) in self.shards.iter().zip(&self.paths).enumerate() {
            if k > 0 {
                out.push(',');
            }
            let summary = shard.settled_metrics().summary();
            out.push_str(&format!(
                concat!(
                    "{{\"shard\":{},\"path\":{},\"records\":{},\"last_at\":{},",
                    "\"format\":{},\"error\":{},\"reopens\":{},",
                    "\"executions_total\":{},\"rotations_completed\":{},",
                    "\"hw_fraction\":{},\"fabric_occupancy\":{}}}"
                ),
                k,
                json_string(&path.display().to_string()),
                shard.records,
                shard.last_at,
                shard
                    .format
                    .map_or_else(|| "null".to_string(), |f| format!("\"{f}\"")),
                shard
                    .error
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |e| json_string(e)),
                shard.reopens,
                summary.executions_total,
                summary.rotations_completed,
                summary.hw_fraction,
                summary.fabric_occupancy,
            ));
        }
        out.push_str("]\n");
        out
    }

    /// The `/alerts` JSON document.
    #[must_use]
    pub fn render_alerts(&self) -> String {
        let (any_firing, rules) = match &self.alerts {
            Some(engine) => (engine.any_firing(), engine.render_json()),
            None => (false, "[]".to_string()),
        };
        format!(
            "{{\"now\":{},\"any_firing\":{},\"alerts\":{}}}\n",
            self.now(),
            any_firing,
            rules
        )
    }
}

/// One polling pass over every follower, then an alert evaluation.
/// Returns the number of new records folded across the fleet; per-shard
/// decode errors are recorded in the shard states, not returned.
pub fn poll_fleet(followers: &mut [Follower], state: &Mutex<FleetState>) -> u64 {
    let mut guard = state.lock().expect("fleet state lock");
    let mut fresh = 0;
    for (follower, shard) in followers.iter_mut().zip(guard.shards.iter_mut()) {
        fresh += poll_shard(follower, shard).unwrap_or(0);
    }
    guard.evaluate_alerts();
    fresh
}

/// Runs [`poll_fleet`] every `poll` until `stop` is set. Decode errors
/// do not end the tail: they are visible in `/status` and `/shards`,
/// and a truncated-and-rewritten log recovers.
pub fn tail_loop(
    mut followers: Vec<Follower>,
    state: &Mutex<FleetState>,
    poll: Duration,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::Relaxed) {
        poll_fleet(&mut followers, state);
        std::thread::sleep(poll);
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Longest request line accepted before answering 400 — far above any
/// legitimate `GET /metrics`, far below anything that could balloon
/// memory from a garbage peer.
pub const MAX_REQUEST_LINE: usize = 8192;

/// Longest request head (request line + all headers) accepted before
/// answering 400.
pub const MAX_HEAD_BYTES: usize = 65536;

/// Reads the full request head byte-wise (so requests split across TCP
/// segments assemble correctly) up to the blank line, returning the
/// request line; headers are consumed and ignored. Consuming the whole
/// head before responding means closing after the response cannot
/// reset the connection under the peer's feet. `Ok(Err(_))` means the
/// peer sent garbage that deserves a 400.
fn read_request_head(stream: &mut TcpStream) -> io::Result<Result<String, &'static str>> {
    let mut request_line: Option<Vec<u8>> = None;
    let mut line: Vec<u8> = Vec::new();
    let mut total = 0usize;
    let mut byte = [0u8; 1];
    loop {
        if stream.read(&mut byte)? == 0 {
            break; // peer closed mid-head; work with what arrived
        }
        total += 1;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.is_empty() {
                break; // blank line: end of head
            }
            if request_line.is_none() {
                request_line = Some(std::mem::take(&mut line));
            } else {
                line.clear();
            }
            continue;
        }
        line.push(byte[0]);
        if request_line.is_none() && line.len() > MAX_REQUEST_LINE {
            return Ok(Err("request line too long"));
        }
        if total > MAX_HEAD_BYTES {
            return Ok(Err("request head too large"));
        }
    }
    let bytes = request_line.unwrap_or(line);
    match String::from_utf8(bytes) {
        Ok(text) => Ok(Ok(text)),
        Err(_) => Ok(Err("request line is not UTF-8")),
    }
}

/// Half-closes the write side and drains any bytes the peer is still
/// sending (bounded by the read timeout), so the final close never
/// turns into a TCP reset that could clip the response in flight.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 1024];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Answers one HTTP connection: `GET /metrics`, `/status`, `/`,
/// `/shards` or `/alerts`; everything else is 404, non-GET methods are
/// 405, oversized or non-UTF-8 request lines are 400.
///
/// # Errors
///
/// I/O errors talking to the peer.
pub fn handle_connection(mut stream: TcpStream, state: &Mutex<FleetState>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let text = "text/plain; charset=utf-8";
    let json = "application/json; charset=utf-8";
    let prom = "text/plain; version=0.0.4; charset=utf-8";
    let (status, content_type, body) = match read_request_head(&mut stream)? {
        Err(reason) => ("400 Bad Request", text, format!("{reason}\n")),
        Ok(request_line) => {
            let mut parts = request_line.split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            if method != "GET" {
                (
                    "405 Method Not Allowed",
                    text,
                    "only GET is supported\n".to_string(),
                )
            } else {
                let state = state.lock().expect("fleet state lock");
                match path {
                    "/metrics" => ("200 OK", prom, state.render_metrics()),
                    "/status" | "/" => ("200 OK", json, state.render_status()),
                    "/shards" => ("200 OK", json, state.render_shards()),
                    "/alerts" => ("200 OK", json, state.render_alerts()),
                    _ => (
                        "404 Not Found",
                        text,
                        "try /metrics, /status, /shards or /alerts\n".to_string(),
                    ),
                }
            }
        }
    };
    let written = write_response(&mut stream, status, content_type, &body);
    linger_close(&mut stream);
    written
}

/// Accept-loop over an already-bound listener. With
/// `max_requests = Some(n)` the loop returns after `n` accepted
/// connections (smoke tests); `None` serves forever. *Every* accepted
/// connection counts — including ones answered 400/404/405 and ones
/// that died mid-response — so a noisy scraper cannot keep a
/// `--max-requests` server alive forever.
///
/// # Errors
///
/// Only fatal accept errors; per-connection errors are logged to
/// stderr and skipped.
pub fn serve(
    listener: &TcpListener,
    state: &Mutex<FleetState>,
    max_requests: Option<u64>,
) -> io::Result<()> {
    let mut answered = 0u64;
    while max_requests.is_none_or(|n| answered < n) {
        let (stream, _) = listener.accept()?;
        if let Err(e) = handle_connection(stream, state) {
            eprintln!("rispp_serve: connection error: {e}");
        }
        answered += 1;
    }
    Ok(())
}

/// Matches `name` against a shell-style pattern where `*` matches any
/// run of characters (including none). Iterative two-pointer backtrack,
/// byte-wise.
fn wildcard_match(pattern: &str, name: &str) -> bool {
    let (p, n) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Expands a glob pattern whose *final path component* may contain `*`
/// wildcards (e.g. `logs/shard-*.bin`) into the sorted list of matching
/// files. A pattern without `*` passes through as-is (existing or not —
/// the follower treats a missing file as "no bytes yet").
///
/// # Errors
///
/// Reading the directory, or a wildcard pattern matching no files.
pub fn expand_glob(pattern: &str) -> io::Result<Vec<PathBuf>> {
    let path = Path::new(pattern);
    let Some(file_pattern) = path.file_name().and_then(|f| f.to_str()) else {
        return Err(invalid_data(format!("bad glob pattern {pattern:?}")));
    };
    if !file_pattern.contains('*') {
        return Ok(vec![path.to_path_buf()]);
    }
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let mut matches: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|entry| {
            entry
                .file_name()
                .to_str()
                .is_some_and(|name| wildcard_match(file_pattern, name))
        })
        .map(|entry| entry.path())
        .collect();
    matches.sort();
    if matches.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no files match {pattern:?}"),
        ));
    }
    Ok(matches)
}

/// Loads and validates an alert-rule file: TOML subset parse, then
/// every rule's metric checked against [`known_metrics`].
///
/// # Errors
///
/// Reading the file, a parse error (with line number), or an unknown
/// metric name.
pub fn load_alert_rules(path: &Path) -> io::Result<AlertEngine> {
    let text = std::fs::read_to_string(path)?;
    let rules = AlertRule::parse_toml(&text)
        .map_err(|e| invalid_data(format!("{}: {e}", path.display())))?;
    for rule in &rules {
        if !known_metrics().contains(&rule.metric.as_str()) {
            return Err(invalid_data(format!(
                "{}: rule {:?} watches unknown metric {:?} (known: {})",
                path.display(),
                rule.name,
                rule.metric,
                known_metrics().join(", ")
            )));
        }
    }
    Ok(AlertEngine::new(rules))
}

/// Everything the `rispp_serve` binary needs to run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The event logs to tail (binary or JSONL, auto-detected — one
    /// `Follower` per path).
    pub inputs: Vec<PathBuf>,
    /// A glob pattern (final component wildcards, e.g.
    /// `logs/shard-*.bin`) expanded into further inputs at startup.
    pub glob: Option<String>,
    /// Listen address, e.g. `127.0.0.1:9464`.
    pub addr: String,
    /// Tail-poll interval in milliseconds.
    pub poll_ms: u64,
    /// Exit after this many accepted connections (`None` = serve
    /// forever).
    pub max_requests: Option<u64>,
    /// Container count for the occupancy denominator (0 = grow on
    /// demand, matching `ReportConfig::infer` on a complete log).
    pub containers: usize,
    /// Alert-rule file ([`AlertRule::parse_toml`] grammar).
    pub rules: Option<PathBuf>,
    /// Shape of the sliding windows.
    pub window: WindowConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            inputs: Vec::new(),
            glob: None,
            addr: "127.0.0.1:9464".to_string(),
            poll_ms: 200,
            max_requests: None,
            containers: 0,
            rules: None,
            window: WindowConfig::default(),
        }
    }
}

impl ServeOptions {
    /// The full input list: explicit paths plus the expanded glob.
    ///
    /// # Errors
    ///
    /// Glob expansion failures, or no inputs at all.
    pub fn resolve_inputs(&self) -> io::Result<Vec<PathBuf>> {
        let mut inputs = self.inputs.clone();
        if let Some(pattern) = &self.glob {
            inputs.extend(expand_glob(pattern)?);
        }
        if inputs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no input logs (pass paths or --glob)",
            ));
        }
        Ok(inputs)
    }

    fn build_state(&self, inputs: Vec<PathBuf>) -> io::Result<FleetState> {
        let alerts = self.rules.as_deref().map(load_alert_rules).transpose()?;
        Ok(FleetState::new(
            inputs,
            self.containers,
            self.window,
            alerts,
        ))
    }
}

/// Binds, spawns the tailing thread (one pass over every follower per
/// tick) and serves until `max_requests` is exhausted (or forever).
/// This is `rispp_serve`'s whole main in serve mode.
///
/// # Errors
///
/// Input resolution, alert-rule loading, or binding/accepting on the
/// listen address.
pub fn run_serve(opts: &ServeOptions) -> io::Result<()> {
    let inputs = opts.resolve_inputs()?;
    let followers: Vec<Follower> = inputs.iter().map(Follower::new).collect();
    let state = Arc::new(Mutex::new(opts.build_state(inputs.clone())?));
    let listener = TcpListener::bind(&opts.addr)?;
    eprintln!(
        "rispp_serve: tailing {} log(s) — metrics at http://{}/metrics",
        inputs.len(),
        listener.local_addr()?
    );
    let stop = Arc::new(AtomicBool::new(false));
    let tail = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let poll = Duration::from_millis(opts.poll_ms.max(1));
        std::thread::spawn(move || tail_loop(followers, &state, poll, &stop))
    };
    let result = serve(&listener, &state, opts.max_requests);
    stop.store(true, Ordering::Relaxed);
    let _ = tail.join();
    result
}

/// The `--check` CI gate: drains every input log completely, evaluates
/// the alert rules once against the end-of-log fleet aggregate
/// ([`AlertEngine::check_final`] semantics), prints each rule's verdict
/// and returns whether any rule fired (the binary maps `true` to a
/// nonzero exit).
///
/// # Errors
///
/// Input resolution, alert-rule loading (rules are required in check
/// mode), or a decode error in any input — a gate must not pass on a
/// log it could not read.
pub fn run_check(opts: &ServeOptions) -> io::Result<bool> {
    if opts.rules.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "--check needs --rules <file>",
        ));
    }
    let inputs = opts.resolve_inputs()?;
    let mut followers: Vec<Follower> = inputs.iter().map(Follower::new).collect();
    let state = Mutex::new(opts.build_state(inputs)?);
    while poll_fleet(&mut followers, &state) > 0 {}
    let mut guard = state.lock().expect("fleet state lock");
    for (shard, path) in guard.shards.iter().zip(&guard.paths) {
        if let Some(error) = &shard.error {
            return Err(invalid_data(format!("{}: {error}", path.display())));
        }
    }
    let firing = guard.check_alerts_final();
    if let Some(engine) = &guard.alerts {
        for status in engine.statuses() {
            let value = status
                .value
                .map_or_else(|| "n/a".to_string(), |v| format!("{v}"));
            println!(
                "{} {} ({} {} {}, for {} cycles): value {}",
                if status.firing { "FIRING" } else { "ok    " },
                status.rule.name,
                status.rule.metric,
                status.rule.op,
                status.rule.threshold,
                status.rule.for_cycles,
                value,
            );
        }
    }
    Ok(firing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp::obs::{NullSink, TimelineSink};
    use rispp::sim::{Scenario, ShardSpec, SinkSpec};
    use std::io::BufReader;
    use std::sync::atomic::AtomicU64;

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    /// A scratch file path unique to this process and call site.
    fn scratch(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rispp_serve_test_{}_{tag}_{n}", std::process::id()))
    }

    fn fig6_export(binary: bool) -> Vec<u8> {
        let sink = if binary {
            SinkSpec::Binary
        } else {
            SinkSpec::Jsonl
        };
        let out = ShardSpec::new(Scenario::Fig6, 0).with_sink(sink).run();
        out.binary
            .or(out.jsonl.map(String::into_bytes))
            .expect("export captured")
    }

    fn offline_record_count(bytes: &[u8]) -> u64 {
        let mut t = TimelineSink::new();
        if rispp::obs::bin::is_binary(bytes) {
            rispp::obs::bin::replay(bytes, &mut t).unwrap();
        } else {
            jsonl::replay(std::str::from_utf8(bytes).unwrap(), &mut t).unwrap();
        }
        t.timeline().len() as u64
    }

    #[test]
    fn follower_tails_a_growing_binary_log() {
        let bytes = fig6_export(true);
        let path = scratch("bin");
        let mut follower = Follower::new(&path);
        let mut sink = TimelineSink::new();

        // Nothing there yet: not an error.
        assert_eq!(follower.poll(&mut sink).unwrap(), 0);
        assert_eq!(follower.format(), None);

        // Arrives in three chunks, cut mid-record.
        let cuts = [bytes.len() / 3, 2 * bytes.len() / 3, bytes.len()];
        let mut total = 0;
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            total += follower.poll(&mut sink).unwrap();
        }
        assert_eq!(follower.format(), Some("binary"));
        assert_eq!(total, offline_record_count(&bytes));
        assert_eq!(follower.reopens(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follower_tails_a_growing_jsonl_log() {
        let bytes = fig6_export(false);
        let path = scratch("jsonl");
        let mut follower = Follower::new(&path);
        let mut sink = TimelineSink::new();
        // Cut inside the `{"schema_version":1}` header line, before and
        // after the format probe has its four bytes, then mid-line (and
        // mid-UTF-8 is impossible here, but mid-line carries exercise the
        // carry buffer).
        let cuts = [3, 7, bytes.len() / 2, bytes.len()];
        let mut total = 0;
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            total += follower.poll(&mut sink).unwrap();
        }
        assert_eq!(follower.format(), Some("jsonl"));
        let mut offline = TimelineSink::new();
        jsonl::replay(std::str::from_utf8(&bytes).unwrap(), &mut offline).unwrap();
        assert_eq!(sink.timeline().entries(), offline.timeline().entries());
        assert_eq!(total, offline.timeline().len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    /// A corrupt event and a stray header are refused as `jsonl::replay`
    /// refuses them: the same message, naming the same line.
    #[test]
    fn follower_jsonl_errors_name_the_replay_line() {
        let text = String::from_utf8(fig6_export(false)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let unknown = lines[40].replacen("\"ev\":\"", "\"ev\":\"bogus_", 1);
        for (number, replacement, message) in [
            (41, unknown.as_str(), "unknown event type"),
            (
                11,
                lines[0],
                "schema_version header must be the first record",
            ),
        ] {
            let mut edited = lines.clone();
            edited[number - 1] = replacement;
            let log = edited.join("\n") + "\n";
            let expected = jsonl::replay(&log, &mut NullSink).unwrap_err().to_string();
            assert!(
                expected.starts_with(&format!("jsonl line {number}: {message}")),
                "{expected}"
            );
            let path = scratch("bad_line");
            std::fs::write(&path, &log).unwrap();
            let e = Follower::new(&path).poll(&mut NullSink).unwrap_err();
            assert_eq!(e.to_string(), expected);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn follower_reopens_a_truncated_file() {
        let binary = fig6_export(true);
        let jsonl_bytes = fig6_export(false);
        let path = scratch("shrink");
        std::fs::write(&path, &binary).unwrap();
        let mut follower = Follower::new(&path);
        let first = follower.poll(&mut NullSink).unwrap();
        assert_eq!(first, offline_record_count(&binary));
        assert_eq!(follower.format(), Some("binary"));

        // Truncation is not an error: the follower resets and the next
        // poll reads the new content, re-probing the format. (The
        // truncation must actually shrink the file for a poll to see
        // it — a JSONL log is larger than its binary twin, so truncate
        // to empty first, as log rotation does.)
        std::fs::write(&path, b"").unwrap();
        assert_eq!(follower.poll(&mut NullSink).unwrap(), 0);
        std::fs::write(&path, &jsonl_bytes).unwrap();
        assert_eq!(follower.reopens(), 1);
        assert_eq!(follower.format(), None, "format re-probes after reopen");
        let second = follower.poll(&mut NullSink).unwrap();
        assert_eq!(second, offline_record_count(&jsonl_bytes));
        assert_eq!(follower.format(), Some("jsonl"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn served_metrics_match_an_offline_replay_of_the_same_log() {
        let bytes = fig6_export(true);
        let path = scratch("serve");
        std::fs::write(&path, &bytes).unwrap();

        // Offline truth: replay the log into an identically configured
        // sink and settle it.
        let mut offline = MetricsSink::new().with_containers(6);
        rispp::obs::bin::replay(&bytes, &mut offline).unwrap();
        offline.finish();

        // Live: one poll, then serve two requests on an OS-picked port.
        let state = Arc::new(Mutex::new(FleetState::new(
            vec![path.clone()],
            6,
            WindowConfig::default(),
            None,
        )));
        let mut followers = vec![Follower::new(&path)];
        poll_fleet(&mut followers, &state);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || serve(&listener, &state, Some(2)))
        };

        let get = |p: &str| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(format!("GET {p} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            BufReader::new(conn).read_to_string(&mut response).unwrap();
            let (head, body) = response.split_once("\r\n\r\n").unwrap();
            assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
            body.to_string()
        };

        // Single-shard serving keeps the full legacy exposition as its
        // prefix — byte-equal to the offline replay — then appends the
        // window, follower and (absent here) alert series.
        let metrics_body = get("/metrics");
        assert!(metrics_body.starts_with(&offline.render_prometheus()));
        assert!(metrics_body.contains("rispp_fabric_occupancy"));
        assert!(metrics_body.contains("rispp_window_events_per_kcycle"));
        assert!(metrics_body.contains("rispp_follower_reopens_total 0"));
        assert!(metrics_body.contains("rispp_shards 1"));

        let status_body = get("/status");
        assert!(status_body.contains("\"format\":\"binary\""));
        assert!(status_body.contains("\"reopens\":0"));
        assert!(status_body.contains(&format!(
            "\"executions_total\":{}",
            offline.summary().executions_total
        )));

        server.join().unwrap().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_paths_and_methods_are_refused_and_count_toward_shutdown() {
        let state = Arc::new(Mutex::new(FleetState::new(
            vec![scratch("nofile")],
            0,
            WindowConfig::default(),
            None,
        )));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || serve(&listener, &state, Some(3)))
        };
        let request = |raw: String| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(raw.as_bytes()).unwrap();
            let mut response = String::new();
            BufReader::new(conn).read_to_string(&mut response).unwrap();
            response
        };
        assert!(request("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n".into()).starts_with("HTTP/1.1 404"));
        assert!(
            request("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n".into()).starts_with("HTTP/1.1 405")
        );
        let long = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "x".repeat(MAX_REQUEST_LINE + 10)
        );
        assert!(request(long).starts_with("HTTP/1.1 400"));
        // All three malformed requests counted: the server exits.
        server.join().unwrap().unwrap();
    }

    #[test]
    fn status_reports_decode_errors_and_recovers_after_truncation() {
        let path = scratch("corrupt");
        std::fs::write(&path, b"this is not an event log at all\n").unwrap();
        let mut state = LiveState::new(0, WindowConfig::default());
        let mut follower = Follower::new(&path);
        assert!(poll_shard(&mut follower, &mut state).is_err());
        assert!(state.render_status().contains("\"error\":\""));
        // The error is sticky while the file only grows…
        assert!(poll_shard(&mut follower, &mut state).is_err());

        // …but truncating and rewriting the log recovers: the reopen
        // discards the poisoned state and the rewritten log folds.
        let good = fig6_export(true);
        std::fs::write(&path, b"").unwrap(); // truncate
        assert_eq!(poll_shard(&mut follower, &mut state).unwrap(), 0);
        std::fs::write(&path, &good).unwrap();
        let folded = poll_shard(&mut follower, &mut state).unwrap();
        assert_eq!(folded, offline_record_count(&good));
        assert!(state.error.is_none(), "recovery clears the error");
        assert_eq!(state.reopens, 1);
        assert!(state.render_status().contains("\"error\":null"));
        assert!(state.render_status().contains("\"reopens\":1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wildcard_matching_and_glob_expansion() {
        assert!(wildcard_match("shard-*.bin", "shard-0.bin"));
        assert!(wildcard_match("shard-*.bin", "shard-12.bin"));
        assert!(!wildcard_match("shard-*.bin", "shard-12.jsonl"));
        assert!(wildcard_match("*", "anything"));
        assert!(wildcard_match("a*b*c", "axxbyyc"));
        assert!(!wildcard_match("a*b*c", "axxbyy"));

        let dir = scratch("glob");
        std::fs::create_dir_all(&dir).unwrap();
        for k in [2u32, 0, 1] {
            std::fs::write(dir.join(format!("shard-{k}.bin")), b"x").unwrap();
        }
        std::fs::write(dir.join("other.txt"), b"x").unwrap();
        let pattern = dir.join("shard-*.bin").to_str().unwrap().to_string();
        let found = expand_glob(&pattern).unwrap();
        assert_eq!(found.len(), 3);
        // Sorted, so shard order is stable across runs.
        assert!(found[0].to_str().unwrap().ends_with("shard-0.bin"));
        assert!(found[2].to_str().unwrap().ends_with("shard-2.bin"));
        assert!(expand_glob(dir.join("none-*.bin").to_str().unwrap()).is_err());
        // No wildcard: passes through untouched, existing or not.
        let plain = dir.join("missing.bin");
        assert_eq!(
            expand_glob(plain.to_str().unwrap()).unwrap(),
            vec![plain.clone()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alert_rules_load_and_refuse_unknown_metrics() {
        let path = scratch("rules");
        std::fs::write(
            &path,
            "[[rule]]\nname = \"a\"\nmetric = \"hw_fraction\"\nop = \"<\"\nthreshold = 0.5\n",
        )
        .unwrap();
        assert_eq!(load_alert_rules(&path).unwrap().statuses().len(), 1);
        // The selection-cache counters went with the cache, and the
        // dropped-events count, which nothing fed, went too.
        for metric in [
            "bogus",
            "selection_cache_hits",
            "selection_cache_misses",
            "selection_cache_invalidations",
            "dropped_events",
        ] {
            std::fs::write(
                &path,
                format!(
                    "[[rule]]\nname = \"a\"\nmetric = \"{metric}\"\nop = \"<\"\nthreshold = 0.5\n"
                ),
            )
            .unwrap();
            let err = load_alert_rules(&path).unwrap_err().to_string();
            assert!(err.contains("unknown metric"), "{err}");
            assert!(err.contains(metric), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
