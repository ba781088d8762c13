//! Offline run analysis: JSONL or binary event export → markdown report.
//!
//! Everything here consumes only the exported event stream (via
//! [`jsonl::replay`] or [`bin::replay`]), never live objects — the same
//! property the Fig. 6 binary demonstrates for the timeline. One replay
//! feeds three derived views at once: the raw [`Timeline`], the causality
//! [`SpanBuilder`] (per-SI time-to-hardware) and the time-weighted
//! [`MetricsSink`] (occupancy, bus busyness, forecast accuracy).
//!
//! [`analyze_bytes`] auto-detects the format by the binary magic prefix,
//! so callers can hand over any export without knowing how it was made.
//!
//! [`jsonl::replay`]: rispp::obs::jsonl::replay
//! [`bin::replay`]: rispp::obs::bin::replay

use std::fmt::Write as _;

use rispp::core::atom::AtomSet;
use rispp::obs::bin::{self, BinError};
use rispp::obs::jsonl::{self, JsonlError};
use rispp::obs::{Event, EventSink, MetricsSink, SpanBuilder, Timeline, TimelineSink};
use rispp::sim::waveform::render_waveform;

/// Platform knowledge the analyzer needs but the stream does not carry:
/// atom names for the waveform, the container-count denominator, and the
/// per-Atom logic-utilisation weights.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// Atom names (waveform letters).
    pub atoms: AtomSet,
    /// Number of Atom Containers (occupancy denominator, waveform rows).
    pub containers: usize,
    /// Per-Atom logic-utilisation weights, index-aligned with `atoms`.
    pub utilization_weights: Vec<f64>,
    /// Waveform width in character columns.
    pub waveform_columns: usize,
}

impl ReportConfig {
    /// The H.264 case-study platform: Table 1 Atoms and utilisations.
    #[must_use]
    pub fn h264(containers: usize) -> Self {
        let fabric = rispp::sim::scenario::h264_fabric(containers);
        let utilization_weights = fabric
            .catalog()
            .iter()
            .map(|(_, p)| p.utilization())
            .collect();
        ReportConfig {
            atoms: fabric.atoms().clone(),
            containers,
            utilization_weights,
            waveform_columns: 96,
        }
    }

    /// Infers a generic configuration from the stream itself: container
    /// count and atom count from the largest indices seen, placeholder
    /// names (`K0`, `K1`, …), weight 1.0 (plain occupancy).
    #[must_use]
    pub fn infer(timeline: &Timeline) -> Self {
        let mut containers = 0usize;
        let mut kinds = 0usize;
        for r in timeline.entries() {
            match r.event {
                Event::RotationStarted { container, kind }
                | Event::RotationCompleted { container, kind }
                | Event::ContainerLoaded { container, kind }
                | Event::ContainerEvicted { container, kind } => {
                    containers = containers.max(container as usize + 1);
                    kinds = kinds.max(kind.index() + 1);
                }
                _ => {}
            }
        }
        let names: Vec<String> = (0..kinds.max(1)).map(|i| format!("K{i}")).collect();
        ReportConfig {
            atoms: AtomSet::from_names(names.iter().map(String::as_str)),
            containers,
            utilization_weights: Vec::new(),
            waveform_columns: 96,
        }
    }
}

/// The three derived views of one replayed stream.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The raw, ordered event record.
    pub timeline: Timeline,
    /// Causality spans (settled — `finish` already called).
    pub spans: SpanBuilder,
    /// Time-weighted gauges (settled — `finish` already called).
    pub metrics: MetricsSink,
}

/// Replays every line into the timeline, span and metrics views at once.
struct FanoutSink {
    timeline: TimelineSink,
    spans: SpanBuilder,
    metrics: MetricsSink,
}

impl EventSink for FanoutSink {
    fn emit(&mut self, at: u64, event: &Event) {
        self.timeline.emit(at, event);
        self.spans.emit(at, event);
        self.metrics.emit(at, event);
    }
}

impl FanoutSink {
    fn fresh(config: &ReportConfig) -> Self {
        FanoutSink {
            timeline: TimelineSink::new(),
            spans: SpanBuilder::new(),
            metrics: MetricsSink::new()
                .with_containers(config.containers)
                .with_utilization_weights(config.utilization_weights.clone()),
        }
    }

    fn settle(mut self) -> Analysis {
        self.spans.finish();
        self.metrics.finish();
        Analysis {
            timeline: self.timeline.into_timeline(),
            spans: self.spans,
            metrics: self.metrics,
        }
    }
}

/// Why an event export failed to decode — either codec, one error type.
#[derive(Debug)]
pub enum ReportError {
    /// The JSONL decoder rejected a line (or refused a future schema).
    Jsonl(JsonlError),
    /// The binary decoder rejected a record (or refused a future schema).
    Binary(BinError),
    /// The input had no binary magic but is not UTF-8 text either.
    NotText(std::str::Utf8Error),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Jsonl(e) => write!(f, "{e}"),
            ReportError::Binary(e) => write!(f, "{e}"),
            ReportError::NotText(e) => {
                write!(f, "input is neither a binary export nor UTF-8 JSONL: {e}")
            }
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonlError> for ReportError {
    fn from(e: JsonlError) -> Self {
        ReportError::Jsonl(e)
    }
}

impl From<BinError> for ReportError {
    fn from(e: BinError) -> Self {
        ReportError::Binary(e)
    }
}

/// Analyzes a JSONL export under a platform configuration.
///
/// # Errors
///
/// Returns the underlying [`JsonlError`] for malformed lines.
pub fn analyze(jsonl_text: &str, config: &ReportConfig) -> Result<Analysis, JsonlError> {
    let mut fanout = FanoutSink::fresh(config);
    jsonl::replay(jsonl_text, &mut fanout)?;
    Ok(fanout.settle())
}

/// Analyzes an event export of either format, auto-detected by the
/// binary magic prefix ([`bin::is_binary`]): binary exports replay
/// through [`bin::replay`], anything else is treated as UTF-8 JSONL.
///
/// # Errors
///
/// Returns a [`ReportError`] when the stream fails to decode, including
/// when either codec refuses a future `schema_version`.
pub fn analyze_bytes(bytes: &[u8], config: &ReportConfig) -> Result<Analysis, ReportError> {
    if bin::is_binary(bytes) {
        let mut fanout = FanoutSink::fresh(config);
        bin::replay(bytes, &mut fanout)?;
        Ok(fanout.settle())
    } else {
        let text = std::str::from_utf8(bytes).map_err(ReportError::NotText)?;
        Ok(analyze(text, config)?)
    }
}

/// Renders the analysis as a Chrome-trace-event JSON document
/// (loadable in Perfetto / `chrome://tracing`): one track per Atom
/// Container with residency and rotation spans, one track per task with
/// SI-execution slices, and occupancy and bus counters. Atom names come
/// from the platform configuration so slices read "DCT 4×4" rather than
/// "atom#2".
#[must_use]
pub fn render_trace(analysis: &Analysis, config: &ReportConfig) -> String {
    let trace_config = rispp::obs::TraceConfig::new(
        config.atoms.names().map(str::to_string).collect(),
        config.containers,
    );
    rispp::obs::render_chrome_trace(&analysis.timeline, &trace_config)
}

fn opt(value: Option<u64>) -> String {
    value.map_or_else(|| "—".to_string(), |v| v.to_string())
}

fn frac(value: f64) -> String {
    format!("{value:.4}")
}

/// Renders the markdown run report.
#[must_use]
pub fn render_markdown(analysis: &Analysis, config: &ReportConfig) -> String {
    let mut out = String::new();
    let end = analysis
        .timeline
        .entries()
        .last()
        .map_or(0, |r| r.at)
        .max(analysis.metrics.now());
    let summary = analysis.metrics.summary();

    let _ = writeln!(out, "# RISPP run report");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{} events over {} cycles.",
        analysis.timeline.len(),
        end
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Metrics summary");
    let _ = writeln!(out);
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(
        out,
        "| fabric occupancy (time-weighted) | {} |",
        frac(summary.fabric_occupancy)
    );
    let _ = writeln!(
        out,
        "| logic utilization (Table 1-weighted) | {} |",
        frac(summary.logic_utilization)
    );
    let _ = writeln!(
        out,
        "| rotation-bus busy fraction | {} |",
        frac(summary.bus_busy_fraction)
    );
    let _ = writeln!(
        out,
        "| rotations completed | {} |",
        summary.rotations_completed
    );
    let _ = writeln!(out, "| SI executions | {} |", summary.executions_total);
    let _ = writeln!(out, "| hardware fraction | {} |", frac(summary.hw_fraction));
    let _ = writeln!(
        out,
        "| cycles saved vs software | {} |",
        summary.cycles_saved_vs_sw
    );
    let _ = writeln!(
        out,
        "| events dropped by capture | {} |",
        summary.dropped_events
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Time-to-hardware spans");
    let _ = writeln!(out);
    if analysis.spans.spans().is_empty() {
        let _ = writeln!(out, "No forecast spans in this stream.");
    } else {
        let _ = writeln!(
            out,
            "| task | si | forecast @ | reselect @ | rotation start | rotation done \
             | first HW exec | time to HW | ladder rungs | SW execs before HW | closed |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
        for s in analysis.spans.spans() {
            let closed = s
                .closed
                .map_or_else(|| "open".to_string(), |(at, why)| format!("{why} @ {at}"));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                s.task,
                s.si,
                s.forecast_at,
                opt(s.reselect_at),
                opt(s.first_rotation_started),
                opt(s.first_rotation_completed),
                opt(s.first_hw_execution),
                opt(s.time_to_hardware()),
                s.ladder.len(),
                s.sw_executions_before_hw,
                closed,
            );
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Container occupancy");
    let _ = writeln!(out);
    if config.containers == 0 {
        let _ = writeln!(out, "No containers in this configuration.");
    } else {
        let _ = writeln!(
            out,
            "Upper case = loaded Atom, lower case = rotation in flight, `.` = empty."
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "```text");
        let _ = write!(
            out,
            "{}",
            render_waveform(
                &analysis.timeline,
                &config.atoms,
                config.containers,
                end.max(1),
                config.waveform_columns,
            )
        );
        let _ = writeln!(out, "```");
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Forecast accuracy");
    let _ = writeln!(out);
    let fc_rate = summary
        .fc_hit_rate
        .map_or_else(|| "n/a (no FC points)".to_string(), frac);
    let _ = writeln!(
        out,
        "Precision {} over {} windows, recall {}, FC hit rate {}.",
        frac(summary.forecast_precision),
        summary.forecast_windows,
        frac(summary.forecast_recall),
        fc_rate,
    );
    let pairs: Vec<_> = analysis.metrics.forecast_stats().collect();
    if !pairs.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| task | si | windows | hits | execs in window | execs total |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for ((task, si), stats) in pairs {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                task,
                si,
                stats.windows,
                stats.hits,
                stats.executions_in_window,
                stats.executions_total,
            );
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Prometheus exposition");
    let _ = writeln!(out);
    let _ = writeln!(out, "```text");
    let _ = write!(out, "{}", analysis.metrics.render_prometheus());
    let _ = writeln!(out, "```");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp::obs::{JsonlSink, SinkHandle};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn fig6_export() -> String {
        let (mut engine, _) = rispp::sim::scenario::fig6_engine();
        let export = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
        engine.attach_sink(SinkHandle::shared(export.clone()));
        engine.run(100_000);
        let bytes = export.borrow().writer().clone();
        String::from_utf8(bytes).expect("JSONL is UTF-8")
    }

    /// One engine run teed into both codecs (event order can differ
    /// between separate runs, so a fair comparison needs one run).
    fn fig6_both_exports() -> (String, Vec<u8>) {
        let (mut engine, _) = rispp::sim::scenario::fig6_engine();
        let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
        let binary = Rc::new(RefCell::new(rispp::obs::BinarySink::new(Vec::new())));
        engine.attach_sink(SinkHandle::shared(jsonl.clone()));
        engine.attach_sink(SinkHandle::shared(binary.clone()));
        engine.run(100_000);
        drop(engine); // release the engine's handles so we can unwrap the Rcs
        let text = String::from_utf8(Rc::try_unwrap(jsonl).unwrap().into_inner().into_inner())
            .expect("JSONL is UTF-8");
        let bytes = Rc::try_unwrap(binary).unwrap().into_inner().into_inner();
        (text, bytes)
    }

    #[test]
    fn analyze_bytes_detects_the_format_and_agrees_across_codecs() {
        let config = ReportConfig::h264(6);
        let (text, bytes) = fig6_both_exports();
        let from_jsonl = analyze(&text, &config).expect("JSONL replays");
        let from_binary = analyze_bytes(&bytes, &config).expect("binary replays");
        assert_eq!(from_binary.timeline, from_jsonl.timeline);
        assert_eq!(from_binary.metrics.summary(), from_jsonl.metrics.summary());
        // The same entry point accepts JSONL text as bytes.
        let via_bytes = analyze_bytes(text.as_bytes(), &config).expect("JSONL as bytes");
        assert_eq!(via_bytes.timeline, from_jsonl.timeline);
        // And garbage that is neither format is an error, not a panic.
        assert!(analyze_bytes(&[0xFF, 0xFE, 0x00], &ReportConfig::h264(1)).is_err());
    }

    #[test]
    fn analyze_builds_all_three_views() {
        let text = fig6_export();
        let config = ReportConfig::h264(6);
        let analysis = analyze(&text, &config).expect("export replays");
        assert!(!analysis.timeline.is_empty());
        assert!(!analysis.spans.spans().is_empty());
        assert!(analysis.metrics.summary().rotations_completed > 0);
    }

    #[test]
    fn markdown_report_has_every_section() {
        let text = fig6_export();
        let config = ReportConfig::h264(6);
        let analysis = analyze(&text, &config).expect("export replays");
        let md = render_markdown(&analysis, &config);
        for section in [
            "# RISPP run report",
            "## Metrics summary",
            "## Time-to-hardware spans",
            "## Container occupancy",
            "## Forecast accuracy",
            "## Prometheus exposition",
            "rispp_fabric_occupancy",
        ] {
            assert!(md.contains(section), "missing: {section}");
        }
        // The waveform renders one row per container.
        assert_eq!(md.matches("\nAC").count(), 6);
    }

    #[test]
    fn infer_reads_platform_shape_from_stream() {
        let text = fig6_export();
        let probe = analyze(&text, &ReportConfig::h264(6)).unwrap();
        let inferred = ReportConfig::infer(&probe.timeline);
        assert_eq!(inferred.containers, 6);
        assert_eq!(inferred.atoms.len(), 4);
        // Weight-less config still renders.
        let analysis = analyze(&text, &inferred).unwrap();
        let md = render_markdown(&analysis, &inferred);
        assert!(md.contains("## Metrics summary"));
    }

    #[test]
    fn trace_export_is_valid_chrome_json_with_named_tracks() {
        let text = fig6_export();
        let config = ReportConfig::h264(6);
        let analysis = analyze(&text, &config).expect("export replays");
        let trace = render_trace(&analysis, &config);
        assert!(trace.starts_with("{\"displayTimeUnit\""));
        assert!(trace.ends_with("]}\n") || trace.ends_with("]}"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"C\""));
        // One named track per Atom Container.
        for k in 0..6 {
            assert!(trace.contains(&format!("\"AC{k}\"")), "missing track AC{k}");
        }
        // Platform atom names, not inferred placeholders.
        assert!(!trace.contains("atom#"));
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(analyze("{\"not\": \"an event\"}", &ReportConfig::h264(1)).is_err());
    }
}
