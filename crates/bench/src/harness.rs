//! The benchmark-trajectory harness: standardized host-performance runs
//! of the repository's three reference workloads, exported as versioned
//! `BENCH_<workload>.json` files so the repo's own performance can be
//! tracked — and gated — over its growth history.
//!
//! Three layers live here:
//!
//! * the **workload runners** ([`run_workload`]): fig06 (the paper's
//!   Fig. 6 scenario), stress (random platforms through the full stack)
//!   and live_codec (the real encoder on RISPP), each executed with
//!   warmup + N timed repetitions with observability *disabled* (pure
//!   host throughput), plus one instrumented repetition capturing event
//!   counts, simulated cycles and the [`MetricsSummary`];
//! * the **BENCH file format** ([`WorkloadResult::to_json`] /
//!   [`WorkloadResult::from_json`]): hand-rolled JSON (the workspace is
//!   offline — no serde) with a `schema_version` field, readable by any
//!   future build;
//! * the **comparison gate** ([`compare`]): diffs two BENCH sets by
//!   workload and flags medians that regressed past a threshold — the
//!   logic behind the `bench_compare` binary and the CI perf-smoke job.
//!
//! Timing uses the vendored criterion shim's [`criterion::measure`], so
//! `cargo bench` and the harness share one measurement core. The harness
//! times whole repetitions only; per-layer host time comes from the
//! benchmark's traced run (`perfbench/`), which reconciles with its wall
//! time.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use rispp::obs::Record;
use rispp::prelude::*;

/// Version of the `BENCH_*.json` schema this build writes.
///
/// Bump when a field changes meaning or disappears; readers refuse
/// files from the future and treat missing optional fields as defaults.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// The workloads the suite runs, in execution order.
pub const WORKLOADS: [&str; 3] = ["fig06", "stress", "live_codec"];

/// File name a workload's result is written to (`BENCH_fig06.json` …).
#[must_use]
pub fn bench_file_name(workload: &str) -> String {
    format!("BENCH_{workload}.json")
}

/// The suite's BENCH files present in `dir`, in [`WORKLOADS`] order.
/// Other `BENCH_*.json` files there, such as a `fleet_bench` result, are
/// not the suite's and are left out.
#[must_use]
pub fn suite_files_in(dir: &Path) -> Vec<PathBuf> {
    WORKLOADS
        .iter()
        .map(|workload| dir.join(bench_file_name(workload)))
        .filter(|path| path.is_file())
        .collect()
}

/// Repetition plan for one suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Smaller workload sizes and fewer reps (the CI smoke setting).
    pub quick: bool,
    /// Timed repetitions per workload.
    pub reps: usize,
    /// Untimed warmup repetitions per workload.
    pub warmup: usize,
}

impl HarnessConfig {
    /// The committed-baseline setting: full workload sizes, 5 reps.
    #[must_use]
    pub fn full() -> Self {
        HarnessConfig {
            quick: false,
            reps: 5,
            warmup: 2,
        }
    }

    /// The CI smoke setting: small workloads, 3 reps.
    #[must_use]
    pub fn quick() -> Self {
        HarnessConfig {
            quick: true,
            reps: 3,
            warmup: 1,
        }
    }

    fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// Per-sink host cost of one event emission, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SinkOverhead {
    /// A disabled [`SinkHandle`] — the one-branch path; the event is
    /// never constructed.
    pub null: f64,
    /// [`CountersSink`] — aggregate statistics.
    pub counters: f64,
    /// [`TimelineSink`] — full ordered record.
    pub timeline: f64,
    /// [`JsonlSink`] — streaming text export.
    pub jsonl: f64,
    /// [`BinarySink`] — streaming binary transport.
    pub binary: f64,
}

/// One workload's measured result — the content of a `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name (`fig06`, `stress`, `live_codec`).
    pub workload: String,
    /// `quick` or `full` (comparisons across modes are flagged).
    pub mode: String,
    /// Untimed warmup repetitions that preceded the timed ones.
    pub warmup: u64,
    /// Timed repetitions.
    pub reps: u64,
    /// Wall time of each timed repetition, in nanoseconds.
    pub wall_ns: Vec<u64>,
    /// Median of `wall_ns` — the comparison gate's metric.
    pub wall_ns_median: u64,
    /// Events the instrumented repetition emitted.
    pub events: u64,
    /// Simulated cycles the instrumented repetition covered.
    pub sim_cycles: u64,
    /// Host throughput: events per wall second (median rep).
    pub events_per_sec: f64,
    /// Host throughput: simulated cycles per wall second (median rep).
    pub sim_cycles_per_sec: f64,
    /// Simulated-time summary of the instrumented repetition.
    pub metrics: MetricsSummary,
    /// Per-sink emit cost measured over a canned record set.
    pub sink_overhead_ns_per_event: SinkOverhead,
}

// ---------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------

/// One repetition's observable outcome (instrumented repetitions only).
struct RepOutcome {
    events: u64,
    sim_cycles: u64,
    metrics: MetricsSummary,
}

/// The [`ShardSpec`] a harness workload runs as. Timed repetitions use
/// the disabled sink (pure host throughput); the instrumented one adds
/// the metrics pipeline.
fn workload_spec(workload: &str, config: &HarnessConfig, instrument: bool) -> ShardSpec {
    // Fixed per-workload seeds, unchanged across builds, so BENCH numbers
    // always measure the same work (live_codec keeps its historical seed).
    let (scenario, seed) = match workload {
        "fig06" => (Scenario::Fig6, 0),
        "stress" => (Scenario::stress(config.quick), 0),
        "live_codec" => (Scenario::live_codec(config.quick), 2_026),
        other => panic!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
    };
    let sink = if instrument {
        SinkSpec::Metrics
    } else {
        SinkSpec::Null
    };
    ShardSpec::new(scenario, seed).with_sink(sink)
}

fn run_once(workload: &str, config: &HarnessConfig, instrument: bool) -> RepOutcome {
    let out = workload_spec(workload, config, instrument).run();
    RepOutcome {
        events: out.events,
        sim_cycles: out.sim_cycles,
        metrics: out.summary,
    }
}

/// Repetitions (median taken) and batched iterations per repetition for
/// the sink-overhead measurement. The fig06 record set is only ~1.6k
/// events, so a single pass lasts tens of microseconds — far too short
/// for a one-shot reading on a shared machine. Batching several passes
/// per timing and taking a median across repetitions keeps the
/// committed ns/event numbers reproducible.
const SINK_OVERHEAD_REPS: usize = 5;
const SINK_OVERHEAD_ITERS: u64 = 8;

/// Median ns/event over [`SINK_OVERHEAD_REPS`] timings of
/// [`SINK_OVERHEAD_ITERS`] record-set passes each. Sink state accumulates
/// across passes, which is the steady-state regime the number describes.
fn sink_ns_per_event(events: usize, mut routine: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SINK_OVERHEAD_REPS)
        .map(|_| {
            criterion::measure(SINK_OVERHEAD_ITERS, &mut routine).as_nanos() as f64
                / (SINK_OVERHEAD_ITERS as f64 * events as f64)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SINK_OVERHEAD_REPS / 2]
}

/// Measures per-sink emit cost over a canned fig06 record set.
fn measure_sink_overhead() -> SinkOverhead {
    let (mut engine, _) = ShardSpec::new(Scenario::Fig6, 0).build_fig6();
    engine.run(100_000);
    let records: Vec<Record> = engine.timeline().entries().to_vec();
    assert!(!records.is_empty(), "fig06 produces events");
    let n = records.len();

    // The disabled handle: one branch, event never constructed.
    let null = SinkHandle::null();
    let null_ns = sink_ns_per_event(n, || {
        for r in &records {
            null.emit_with(r.at, || r.event.clone());
        }
    });
    let counters = Rc::new(RefCell::new(CountersSink::new()));
    let h = SinkHandle::shared(counters);
    let counters_ns = sink_ns_per_event(n, || {
        for r in &records {
            h.emit(r.at, &r.event);
        }
    });
    let timeline = Rc::new(RefCell::new(TimelineSink::new()));
    let h = SinkHandle::shared(timeline);
    let timeline_ns = sink_ns_per_event(n, || {
        for r in &records {
            h.emit(r.at, &r.event);
        }
    });
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let h = SinkHandle::shared(jsonl);
    let jsonl_ns = sink_ns_per_event(n, || {
        for r in &records {
            h.emit(r.at, &r.event);
        }
    });
    let binary = Rc::new(RefCell::new(BinarySink::new(Vec::new())));
    let h = SinkHandle::shared(binary);
    let binary_ns = sink_ns_per_event(n, || {
        for r in &records {
            h.emit(r.at, &r.event);
        }
    });
    SinkOverhead {
        null: null_ns,
        counters: counters_ns,
        timeline: timeline_ns,
        jsonl: jsonl_ns,
        binary: binary_ns,
    }
}

/// Median of a non-empty sample (mean of the two middles when even).
#[must_use]
pub fn median_ns(samples: &[u64]) -> u64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Runs one workload under the repetition plan: `config.warmup` untimed
/// runs, `config.reps` timed runs with observability disabled, then one
/// instrumented run capturing events, simulated cycles and metrics.
///
/// # Panics
///
/// Panics on an unknown workload name.
#[must_use]
pub fn run_workload(workload: &str, config: &HarnessConfig) -> WorkloadResult {
    for _ in 0..config.warmup {
        let _ = run_once(workload, config, false);
    }
    let mut wall_ns = Vec::with_capacity(config.reps);
    for _ in 0..config.reps.max(1) {
        let d = criterion::measure(1, || run_once(workload, config, false));
        wall_ns.push(d.as_nanos() as u64);
    }
    let wall_ns_median = median_ns(&wall_ns);
    let outcome = run_once(workload, config, true);
    let secs = wall_ns_median as f64 / 1e9;
    WorkloadResult {
        workload: workload.to_string(),
        mode: config.mode().to_string(),
        warmup: config.warmup as u64,
        reps: wall_ns.len() as u64,
        wall_ns,
        wall_ns_median,
        events: outcome.events,
        sim_cycles: outcome.sim_cycles,
        events_per_sec: if secs > 0.0 {
            outcome.events as f64 / secs
        } else {
            0.0
        },
        sim_cycles_per_sec: if secs > 0.0 {
            outcome.sim_cycles as f64 / secs
        } else {
            0.0
        },
        metrics: outcome.metrics,
        sink_overhead_ns_per_event: measure_sink_overhead(),
    }
}

// ---------------------------------------------------------------------
// BENCH JSON format
// ---------------------------------------------------------------------

pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl WorkloadResult {
    /// Renders the versioned BENCH JSON document (pretty-printed, stable
    /// field order, trailing newline — friendly to committed baselines).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"workload\": \"{}\",\n  \"mode\": \"{}\",\n",
            json_escape(&self.workload),
            json_escape(&self.mode),
        ));
        out.push_str(&format!(
            "  \"warmup\": {},\n  \"reps\": {},\n",
            self.warmup, self.reps
        ));
        let walls: Vec<String> = self.wall_ns.iter().map(u64::to_string).collect();
        out.push_str(&format!("  \"wall_ns\": [{}],\n", walls.join(", ")));
        out.push_str(&format!(
            "  \"wall_ns_median\": {},\n  \"events\": {},\n  \"sim_cycles\": {},\n",
            self.wall_ns_median, self.events, self.sim_cycles
        ));
        out.push_str(&format!(
            "  \"events_per_sec\": {},\n  \"sim_cycles_per_sec\": {},\n",
            json_f64(self.events_per_sec),
            json_f64(self.sim_cycles_per_sec)
        ));
        let m = &self.metrics;
        out.push_str("  \"metrics\": {\n");
        out.push_str(&format!(
            "    \"elapsed_cycles\": {},\n    \"fabric_occupancy\": {},\n    \"logic_utilization\": {},\n    \"bus_busy_fraction\": {},\n",
            m.elapsed_cycles,
            json_f64(m.fabric_occupancy),
            json_f64(m.logic_utilization),
            json_f64(m.bus_busy_fraction)
        ));
        out.push_str(&format!(
            "    \"rotations_completed\": {},\n    \"forecast_windows\": {},\n    \"forecast_precision\": {},\n    \"forecast_recall\": {},\n",
            m.rotations_completed,
            m.forecast_windows,
            json_f64(m.forecast_precision),
            json_f64(m.forecast_recall)
        ));
        // Omitted (not zero) when the workload defines no FC points: a
        // run with no monitored outcomes has no hit rate.
        if let Some(rate) = m.fc_hit_rate {
            out.push_str(&format!("    \"fc_hit_rate\": {},\n", json_f64(rate)));
        }
        out.push_str(&format!(
            "    \"executions_total\": {},\n    \"hw_fraction\": {},\n    \"cycles_saved_vs_sw\": {},\n    \"dropped_events\": {}\n",
            m.executions_total,
            json_f64(m.hw_fraction),
            m.cycles_saved_vs_sw,
            m.dropped_events
        ));
        out.push_str("  },\n");
        let s = &self.sink_overhead_ns_per_event;
        out.push_str(&format!(
            "  \"sink_overhead_ns_per_event\": {{\"null\": {}, \"counters\": {}, \"timeline\": {}, \"jsonl\": {}, \"binary\": {}}}\n",
            json_f64(s.null),
            json_f64(s.counters),
            json_f64(s.timeline),
            json_f64(s.jsonl),
            json_f64(s.binary)
        ));
        out.push_str("}\n");
        out
    }

    /// Parses a BENCH JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: malformed JSON, a
    /// `schema_version` newer than this build, or a missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        let version = v
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        if version > BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads versions up to {BENCH_SCHEMA_VERSION})"
            ));
        }
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing {key}"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let f64_field = |obj: &JsonValue, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing {key}"))
        };
        let wall_ns: Vec<u64> = v
            .get("wall_ns")
            .and_then(JsonValue::as_arr)
            .ok_or("missing wall_ns")?
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect();
        let m = v.get("metrics").ok_or("missing metrics")?;
        let metrics = MetricsSummary {
            elapsed_cycles: m
                .get("elapsed_cycles")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            fabric_occupancy: f64_field(m, "fabric_occupancy")?,
            logic_utilization: f64_field(m, "logic_utilization")?,
            bus_busy_fraction: f64_field(m, "bus_busy_fraction")?,
            rotations_completed: m
                .get("rotations_completed")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            forecast_windows: m
                .get("forecast_windows")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            forecast_precision: f64_field(m, "forecast_precision")?,
            forecast_recall: f64_field(m, "forecast_recall")?,
            // Absent in older baselines and FC-less runs alike; both
            // read back as None.
            fc_hit_rate: m.get("fc_hit_rate").and_then(JsonValue::as_f64),
            executions_total: m
                .get("executions_total")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            hw_fraction: f64_field(m, "hw_fraction")?,
            cycles_saved_vs_sw: m
                .get("cycles_saved_vs_sw")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            dropped_events: m
                .get("dropped_events")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        };
        let so = v
            .get("sink_overhead_ns_per_event")
            .ok_or("missing sink_overhead_ns_per_event")?;
        Ok(WorkloadResult {
            workload: str_field("workload")?,
            mode: str_field("mode")?,
            warmup: u64_field("warmup")?,
            reps: u64_field("reps")?,
            wall_ns,
            wall_ns_median: u64_field("wall_ns_median")?,
            events: u64_field("events")?,
            sim_cycles: u64_field("sim_cycles")?,
            events_per_sec: f64_field(&v, "events_per_sec")?,
            sim_cycles_per_sec: f64_field(&v, "sim_cycles_per_sec")?,
            metrics,
            sink_overhead_ns_per_event: SinkOverhead {
                null: f64_field(so, "null")?,
                counters: f64_field(so, "counters")?,
                timeline: f64_field(so, "timeline")?,
                jsonl: f64_field(so, "jsonl")?,
                // Absent in pre-PR-7 documents; read tolerantly.
                binary: f64_field(so, "binary").unwrap_or(0.0),
            },
        })
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader (offline workspace: no serde)
// ---------------------------------------------------------------------

/// A parsed JSON value — just enough for the BENCH file format.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; `as_u64` round-trips integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated description of the first syntax
    /// error.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float, when it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("invalid number {text:?} at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 character, not byte-by-byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Comparison gate
// ---------------------------------------------------------------------

/// One workload's old-vs-new comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareLine {
    /// Workload name.
    pub workload: String,
    /// Baseline median wall time, ns.
    pub old_median_ns: u64,
    /// Candidate median wall time, ns.
    pub new_median_ns: u64,
    /// Relative change: `new/old - 1` (positive = slower).
    pub ratio: f64,
    /// `true` when `ratio` exceeds the threshold.
    pub regressed: bool,
    /// `true` when the two results ran in different modes (quick vs
    /// full) — the comparison is then apples-to-oranges.
    pub mode_mismatch: bool,
}

/// Outcome of diffing two BENCH sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Per-workload comparisons, in baseline order.
    pub lines: Vec<CompareLine>,
    /// Workloads present in the baseline but absent from the candidate.
    pub missing_in_new: Vec<String>,
    /// Workloads present in the candidate but absent from the baseline.
    pub missing_in_old: Vec<String>,
}

impl CompareReport {
    /// `true` when any workload regressed past the threshold or
    /// disappeared from the candidate set.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        self.lines.iter().any(|l| l.regressed) || !self.missing_in_new.is_empty()
    }

    /// Renders the human-readable comparison table.
    #[must_use]
    pub fn render(&self, threshold: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>8}  verdict",
            "workload", "old median ns", "new median ns", "change"
        );
        for l in &self.lines {
            let verdict = if l.regressed {
                "REGRESSED"
            } else if l.ratio < -threshold {
                "improved"
            } else {
                "ok"
            };
            let note = if l.mode_mismatch {
                " (mode mismatch)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<12} {:>14} {:>14} {:>+7.1}%  {verdict}{note}",
                l.workload,
                l.old_median_ns,
                l.new_median_ns,
                l.ratio * 100.0
            );
        }
        for w in &self.missing_in_new {
            let _ = writeln!(out, "{w:<12} missing from candidate set  REGRESSED");
        }
        for w in &self.missing_in_old {
            let _ = writeln!(out, "{w:<12} new workload (no baseline)  ok");
        }
        out
    }
}

/// Diffs two BENCH sets by workload name. `threshold` is the relative
/// slowdown past which a workload counts as regressed (0.20 = 20%).
#[must_use]
pub fn compare(old: &[WorkloadResult], new: &[WorkloadResult], threshold: f64) -> CompareReport {
    let mut report = CompareReport::default();
    for o in old {
        let Some(n) = new.iter().find(|n| n.workload == o.workload) else {
            report.missing_in_new.push(o.workload.clone());
            continue;
        };
        let ratio = if o.wall_ns_median == 0 {
            0.0
        } else {
            n.wall_ns_median as f64 / o.wall_ns_median as f64 - 1.0
        };
        report.lines.push(CompareLine {
            workload: o.workload.clone(),
            old_median_ns: o.wall_ns_median,
            new_median_ns: n.wall_ns_median,
            ratio,
            regressed: ratio > threshold,
            mode_mismatch: o.mode != n.mode,
        });
    }
    for n in new {
        if !old.iter().any(|o| o.workload == n.workload) {
            report.missing_in_old.push(n.workload.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, median: u64) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            mode: "quick".to_string(),
            warmup: 1,
            reps: 3,
            wall_ns: vec![median - 1, median, median + 1],
            wall_ns_median: median,
            events: 1_000,
            sim_cycles: 5_000_000,
            events_per_sec: 2.5e6,
            sim_cycles_per_sec: 1.25e10,
            metrics: MetricsSummary {
                elapsed_cycles: 5_000_000,
                fabric_occupancy: 0.5,
                hw_fraction: 0.75,
                ..MetricsSummary::default()
            },
            sink_overhead_ns_per_event: SinkOverhead {
                null: 0.5,
                counters: 20.0,
                timeline: 60.0,
                jsonl: 400.0,
                binary: 30.0,
            },
        }
    }

    #[test]
    fn bench_json_roundtrips() {
        let original = sample("fig06", 400_000);
        let text = original.to_json();
        assert!(text.contains("\"schema_version\": 1"));
        let parsed = WorkloadResult::from_json(&text).expect("own output parses");
        assert_eq!(parsed, original);
    }

    #[test]
    fn pre_binary_sink_documents_still_parse() {
        // `binary` joined the sink-overhead object in PR 7; older
        // committed BENCH files must keep parsing (as 0.0).
        let text = sample("fig06", 400_000)
            .to_json()
            .replace(", \"binary\": 30", "");
        assert!(!text.contains("binary"), "field removal failed: {text}");
        let parsed = WorkloadResult::from_json(&text).expect("old document parses");
        assert_eq!(parsed.sink_overhead_ns_per_event.binary, 0.0);
    }

    #[test]
    fn future_bench_schema_is_refused() {
        let text = sample("fig06", 1)
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = WorkloadResult::from_json(&text).unwrap_err();
        assert!(err.contains("unsupported schema_version 99"), "{err}");
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median_ns(&[5]), 5);
        assert_eq!(median_ns(&[3, 1, 2]), 2);
        assert_eq!(median_ns(&[4, 1, 3, 2]), 2);
    }

    #[test]
    fn identical_sets_do_not_regress() {
        let old = vec![sample("fig06", 100), sample("stress", 200)];
        let report = compare(&old, &old.clone(), 0.2);
        assert!(!report.has_regressions());
        assert_eq!(report.lines.len(), 2);
        assert!(report.lines.iter().all(|l| l.ratio == 0.0));
    }

    #[test]
    fn injected_slowdown_regresses() {
        let old = vec![sample("fig06", 100)];
        let new = vec![sample("fig06", 150)];
        let report = compare(&old, &new, 0.2);
        assert!(report.has_regressions());
        assert!((report.lines[0].ratio - 0.5).abs() < 1e-9);
        assert!(report.render(0.2).contains("REGRESSED"));
        // …but a generous threshold lets the same diff pass.
        assert!(!compare(&old, &new, 0.6).has_regressions());
    }

    #[test]
    fn missing_workload_is_a_regression() {
        let old = vec![sample("fig06", 100), sample("stress", 200)];
        let new = vec![sample("fig06", 100)];
        let report = compare(&old, &new, 0.2);
        assert!(report.has_regressions());
        assert_eq!(report.missing_in_new, vec!["stress".to_string()]);
    }

    #[test]
    fn mode_mismatch_is_flagged() {
        let old = vec![sample("fig06", 100)];
        let mut newer = sample("fig06", 100);
        newer.mode = "full".to_string();
        let report = compare(&old, &[newer], 0.2);
        assert!(report.lines[0].mode_mismatch);
        assert!(report.render(0.2).contains("mode mismatch"));
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = JsonValue::parse(
            "{\"a\": [1, 2.5, -3e2], \"s\": \"x\\n\\\"y\\u0041\", \"b\": true, \"n\": null}",
        )
        .unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"yA"));
        assert_eq!(v.get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert!(JsonValue::parse("{\"unterminated\": ").is_err());
        assert!(JsonValue::parse("[1, 2] trailing").is_err());
    }
}
