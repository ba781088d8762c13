//! Streaming JSON Lines export and replay.
//!
//! [`JsonlSink`] writes one self-describing JSON object per event as it
//! happens; [`replay`] feeds an exported stream back into any
//! [`EventSink`], reconstructing — for a [`TimelineSink`] — a timeline
//! identical to the live one. The encoding is hand-rolled (the workspace
//! is offline, no serde) but round-trips every field exactly: integers
//! verbatim, floats through Rust's shortest-round-trip `Display`.
//!
//! The export format is a contract (reports, golden files, the bench
//! suite all consume it), so streams are versioned: the sink prefixes
//! the first event with a `{"schema_version":N}` header record. Replay
//! accepts headerless streams as version 0 — every pre-header export
//! decodes unchanged — but refuses versions newer than
//! [`SCHEMA_VERSION`], failing loudly instead of misreading a future
//! encoding.
//!
//! [`TimelineSink`]: crate::timeline::TimelineSink

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write};

use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;

use crate::event::{Event, Record, ReselectTrigger};
use crate::sink::EventSink;

/// Version of the export schema this build writes (and the newest it
/// replays). Headerless streams replay as version 0.
pub const SCHEMA_VERSION: u64 = 1;

/// Sink serialising every event to a writer, one JSON object per line.
///
/// The first emit is prefixed with a `{"schema_version":N}` header
/// record, so an export that never saw an event stays empty.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
    header_written: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (`Vec<u8>` for in-memory export, a file, …).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
            header_written: false,
        }
    }

    /// Read access to the writer (e.g. the accumulated bytes of a
    /// `Vec<u8>`).
    pub fn writer(&self) -> &W {
        &self.writer
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    /// Serialises the event.
    ///
    /// I/O errors cannot be reported through the sink interface; they
    /// panic, matching the severity of losing telemetry mid-export.
    fn emit(&mut self, at: u64, event: &Event) {
        if !self.header_written {
            self.header_written = true;
            self.writer
                .write_all(format!("{{\"schema_version\":{SCHEMA_VERSION}}}\n").as_bytes())
                .expect("JSONL sink write failed");
        }
        self.line.clear();
        encode_into(&mut self.line, at, event);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .expect("JSONL sink write failed");
    }
}

/// Encodes one record as a single JSON line (no trailing newline).
#[must_use]
pub fn encode(at: u64, event: &Event) -> String {
    let mut s = String::new();
    encode_into(&mut s, at, event);
    s
}

fn write_molecule(out: &mut String, m: &Molecule) {
    out.push('[');
    for (i, c) in m.as_slice().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
}

fn encode_into(out: &mut String, at: u64, event: &Event) {
    let _ = write!(out, "{{\"at\":{at},\"ev\":");
    match event {
        Event::RotationStarted { container, kind } => {
            let _ = write!(
                out,
                "\"rotation_started\",\"container\":{container},\"kind\":{}",
                kind.index()
            );
        }
        Event::RotationCompleted { container, kind } => {
            let _ = write!(
                out,
                "\"rotation_completed\",\"container\":{container},\"kind\":{}",
                kind.index()
            );
        }
        Event::RotationFailed { container, kind } => {
            let _ = write!(
                out,
                "\"rotation_failed\",\"container\":{container},\"kind\":{}",
                kind.index()
            );
        }
        Event::PortStalled { until } => {
            let _ = write!(out, "\"port_stalled\",\"until\":{until}");
        }
        Event::ContainerQuarantined { container } => {
            let _ = write!(out, "\"container_quarantined\",\"container\":{container}");
        }
        Event::ContainerLoaded { container, kind } => {
            let _ = write!(
                out,
                "\"container_loaded\",\"container\":{container},\"kind\":{}",
                kind.index()
            );
        }
        Event::ContainerEvicted { container, kind } => {
            let _ = write!(
                out,
                "\"container_evicted\",\"container\":{container},\"kind\":{}",
                kind.index()
            );
        }
        Event::SiExecuted {
            task,
            si,
            hw,
            cycles,
            molecule,
        } => {
            let _ = write!(
                out,
                "\"si_executed\",\"task\":{task},\"si\":{},\"hw\":{hw},\"cycles\":{cycles}",
                si.index()
            );
            if let Some(m) = molecule {
                out.push_str(",\"molecule\":");
                write_molecule(out, m);
            }
        }
        Event::ForecastUpdated {
            task,
            si,
            probability,
            expected_executions,
        } => {
            let _ = write!(
                out,
                "\"forecast_updated\",\"task\":{task},\"si\":{},\"probability\":{probability},\
                 \"expected_executions\":{expected_executions}",
                si.index()
            );
        }
        Event::ForecastRetracted { task, si } => {
            let _ = write!(
                out,
                "\"forecast_retracted\",\"task\":{task},\"si\":{}",
                si.index()
            );
        }
        Event::FcOutcome { task, si, reached } => {
            let _ = write!(
                out,
                "\"fc_outcome\",\"task\":{task},\"si\":{},\"reached\":{reached}",
                si.index()
            );
        }
        Event::Reselect { trigger } => {
            // `duration_ns` is a retired slot, written as zero: see the
            // decoder.
            let _ = write!(
                out,
                "\"reselect\",\"trigger\":\"{trigger}\",\"duration_ns\":0"
            );
        }
        Event::UpgradeStep {
            si,
            task,
            step,
            molecule,
        } => {
            let _ = write!(out, "\"upgrade_step\",\"si\":{},", si.index());
            if let Some(t) = task {
                let _ = write!(out, "\"task\":{t},");
            }
            let _ = write!(out, "\"step\":{step},\"molecule\":");
            write_molecule(out, molecule);
        }
    }
    out.push('}');
}

/// A malformed JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlError {
    /// 1-based line number within the replayed stream.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.message)
    }
}

impl Error for JsonlError {}

/// Decodes one JSON line into a record.
///
/// # Errors
///
/// Returns [`JsonlError`] (with `line = 1`) for malformed input.
pub fn decode(line: &str) -> Result<Record, JsonlError> {
    decode_at_line(line, 1)
}

fn err(line: usize, message: impl Into<String>) -> JsonlError {
    JsonlError {
        line,
        message: message.into(),
    }
}

/// One parsed JSON scalar/array value (the subset the encoding uses).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Bool(bool),
    Str(String),
    Arr(Vec<u32>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonlError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(
                self.line,
                format!("expected {:?} at byte {}", b as char, self.pos),
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, JsonlError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                return Err(err(self.line, "escapes are not used by this encoding"));
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err(self.line, "invalid utf-8 in string"))?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(err(self.line, "unterminated string"))
    }

    fn parse_number(&mut self) -> Result<f64, JsonlError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err(self.line, format!("malformed number at byte {start}")))
    }

    fn parse_value(&mut self) -> Result<Value, JsonlError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') | Some(b'f') => {
                let (word, v): (&[u8], bool) = if self.bytes[self.pos] == b't' {
                    (b"true", true)
                } else {
                    (b"false", false)
                };
                if self.bytes[self.pos..].starts_with(word) {
                    self.pos += word.len();
                    Ok(Value::Bool(v))
                } else {
                    Err(err(self.line, "malformed boolean"))
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    let n = self.parse_number()?;
                    if n < 0.0 || n.fract() != 0.0 || n > f64::from(u32::MAX) {
                        return Err(err(self.line, "array items must be u32 counts"));
                    }
                    items.push(n as u32);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(err(self.line, "malformed array")),
                    }
                }
            }
            _ => Ok(Value::Num(self.parse_number()?)),
        }
    }

    /// Parses the flat object `{"key":value,...}` into pairs.
    fn parse_object(&mut self) -> Result<Vec<(String, Value)>, JsonlError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.pos != self.bytes.len() {
                        return Err(err(self.line, "trailing bytes after object"));
                    }
                    return Ok(pairs);
                }
                _ => return Err(err(self.line, "malformed object")),
            }
        }
    }
}

struct Fields {
    pairs: Vec<(String, Value)>,
    line: usize,
}

impl Fields {
    fn get(&self, key: &str) -> Result<&Value, JsonlError> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| err(self.line, format!("missing field {key:?}")))
    }

    fn u64(&self, key: &str) -> Result<u64, JsonlError> {
        match self.get(key)? {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(err(self.line, format!("field {key:?} is not a u64"))),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, JsonlError> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| err(self.line, format!("field {key:?} exceeds u32")))
    }

    fn usize(&self, key: &str) -> Result<usize, JsonlError> {
        usize::try_from(self.u64(key)?)
            .map_err(|_| err(self.line, format!("field {key:?} exceeds usize")))
    }

    fn f64(&self, key: &str) -> Result<f64, JsonlError> {
        match self.get(key)? {
            Value::Num(n) => Ok(*n),
            _ => Err(err(self.line, format!("field {key:?} is not a number"))),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, JsonlError> {
        match self.get(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(err(self.line, format!("field {key:?} is not a boolean"))),
        }
    }

    fn str(&self, key: &str) -> Result<&str, JsonlError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            _ => Err(err(self.line, format!("field {key:?} is not a string"))),
        }
    }

    fn molecule(&self, key: &str) -> Result<Molecule, JsonlError> {
        match self.get(key)? {
            Value::Arr(counts) => Ok(counts.iter().copied().collect()),
            _ => Err(err(self.line, format!("field {key:?} is not an array"))),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }
}

fn decode_at_line(line: &str, number: usize) -> Result<Record, JsonlError> {
    let mut parser = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        line: number,
    };
    let fields = Fields {
        pairs: parser.parse_object()?,
        line: number,
    };
    let at = fields.u64("at")?;
    let event = match fields.str("ev")? {
        "rotation_started" => Event::RotationStarted {
            container: fields.u32("container")?,
            kind: AtomKind(fields.usize("kind")?),
        },
        "rotation_completed" => Event::RotationCompleted {
            container: fields.u32("container")?,
            kind: AtomKind(fields.usize("kind")?),
        },
        "rotation_failed" => Event::RotationFailed {
            container: fields.u32("container")?,
            kind: AtomKind(fields.usize("kind")?),
        },
        "port_stalled" => Event::PortStalled {
            until: fields.u64("until")?,
        },
        "container_quarantined" => Event::ContainerQuarantined {
            container: fields.u32("container")?,
        },
        "container_loaded" => Event::ContainerLoaded {
            container: fields.u32("container")?,
            kind: AtomKind(fields.usize("kind")?),
        },
        "container_evicted" => Event::ContainerEvicted {
            container: fields.u32("container")?,
            kind: AtomKind(fields.usize("kind")?),
        },
        "si_executed" => Event::SiExecuted {
            task: fields.u32("task")?,
            si: SiId(fields.usize("si")?),
            hw: fields.bool("hw")?,
            cycles: fields.u64("cycles")?,
            molecule: if fields.has("molecule") {
                Some(fields.molecule("molecule")?)
            } else {
                None
            },
        },
        "forecast_updated" => Event::ForecastUpdated {
            task: fields.u32("task")?,
            si: SiId(fields.usize("si")?),
            probability: fields.f64("probability")?,
            expected_executions: fields.f64("expected_executions")?,
        },
        "forecast_retracted" => Event::ForecastRetracted {
            task: fields.u32("task")?,
            si: SiId(fields.usize("si")?),
        },
        "fc_outcome" => Event::FcOutcome {
            task: fields.u32("task")?,
            si: SiId(fields.usize("si")?),
            reached: fields.bool("reached")?,
        },
        "reselect" => {
            let trigger = match fields.str("trigger")? {
                "forecast" => ReselectTrigger::Forecast,
                "forecast_block" => ReselectTrigger::ForecastBlock,
                "retract" => ReselectTrigger::Retract,
                "observation" => ReselectTrigger::Observation,
                "power_mode" => ReselectTrigger::PowerMode,
                "fault" => ReselectTrigger::Fault,
                other => return Err(err(number, format!("unknown reselect trigger {other:?}"))),
            };
            // The retired host-time slot: exports written while the
            // manager timed re-selections on the host carry nanoseconds
            // here. Encoders still write it, as zero, so schema version 1
            // holds both ways: old exports decode here, and new exports
            // decode in readers that still expect the field. It is
            // required and checked, then dropped.
            fields.u64("duration_ns")?;
            // The retired selection-cache marker: exports written while
            // the manager had a cache carry it; it is checked, then dropped.
            if fields.has("cache_hit") {
                fields.bool("cache_hit")?;
            }
            Event::Reselect { trigger }
        }
        "upgrade_step" => Event::UpgradeStep {
            si: SiId(fields.usize("si")?),
            task: if fields.has("task") {
                Some(fields.u32("task")?)
            } else {
                None
            },
            step: fields.u32("step")?,
            molecule: fields.molecule("molecule")?,
        },
        other => return Err(err(number, format!("unknown event type {other:?}"))),
    };
    Ok(Record { at, event })
}

/// Recognises a `{"schema_version":N}` header line. Returns `None` for
/// event lines and for lines that do not parse as an object (those fall
/// through to the event decoder and its errors).
fn header_version(line: &str, number: usize) -> Option<Result<u64, JsonlError>> {
    let mut parser = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        line: number,
    };
    let pairs = parser.parse_object().ok()?;
    let fields = Fields {
        pairs,
        line: number,
    };
    if !fields.has("schema_version") {
        return None;
    }
    Some(fields.u64("schema_version"))
}

/// Tracks the header state of one replayed stream: the header must be
/// the first non-empty line, appear at most once, and carry a version
/// this build understands.
#[derive(Default)]
struct HeaderState {
    records_seen: bool,
    header_seen: bool,
}

impl HeaderState {
    /// Consumes one line. `Ok(true)` means the line was the header and
    /// is already handled; `Ok(false)` hands it to the event decoder.
    fn observe(&mut self, line: &str, number: usize) -> Result<bool, JsonlError> {
        if !self.records_seen && !self.header_seen {
            // Only the first non-empty line can be the header; it alone
            // pays the extra parse.
            if let Some(version) = header_version(line, number) {
                let version = version?;
                if version > SCHEMA_VERSION {
                    return Err(err(
                        number,
                        format!(
                            "unsupported schema_version {version} \
                             (this build replays versions up to {SCHEMA_VERSION})"
                        ),
                    ));
                }
                self.header_seen = true;
                return Ok(true);
            }
            self.records_seen = true;
            return Ok(false);
        }
        // No event encoding contains this key, so a plain scan suffices
        // to reject stray headers without re-parsing every line.
        if line.contains("\"schema_version\"") {
            return Err(err(
                number,
                "schema_version header must be the first record",
            ));
        }
        self.records_seen = true;
        Ok(false)
    }
}

/// Replays an exported JSONL stream into a sink, line by line. Empty
/// lines are skipped. A leading `{"schema_version":N}` header is
/// validated and consumed; headerless streams replay as version 0.
///
/// # Errors
///
/// Returns [`JsonlError`] for the first malformed line, a misplaced or
/// repeated header, or a schema version newer than [`SCHEMA_VERSION`].
pub fn replay<S: EventSink>(jsonl: &str, sink: &mut S) -> Result<(), JsonlError> {
    let mut header = HeaderState::default();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if header.observe(line, i + 1)? {
            continue;
        }
        let record = decode_at_line(line, i + 1)?;
        sink.emit(record.at, &record.event);
    }
    Ok(())
}

/// Replays an exported JSONL stream from a reader into a sink, with the
/// same header handling as [`replay`].
///
/// # Errors
///
/// Returns the underlying I/O error, or an [`JsonlError`] wrapped in
/// [`io::Error`] for a malformed line or an unsupported schema version.
pub fn replay_reader<R: io::BufRead, S: EventSink>(reader: R, sink: &mut S) -> io::Result<()> {
    let mut header = HeaderState::default();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let is_header = header
            .observe(&line, i + 1)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if is_header {
            continue;
        }
        let record = decode_at_line(&line, i + 1)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        sink.emit(record.at, &record.event);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineSink;

    fn all_events() -> Vec<Record> {
        vec![
            Record {
                at: 0,
                event: Event::ForecastUpdated {
                    task: 0,
                    si: SiId(2),
                    probability: 0.875,
                    expected_executions: 40.5,
                },
            },
            Record {
                at: 1,
                event: Event::Reselect {
                    trigger: ReselectTrigger::Forecast,
                },
            },
            Record {
                at: 1,
                event: Event::UpgradeStep {
                    si: SiId(2),
                    task: Some(0),
                    step: 0,
                    molecule: Molecule::from_counts([1, 0, 2]),
                },
            },
            Record {
                at: 1,
                event: Event::UpgradeStep {
                    si: SiId(2),
                    task: None,
                    step: 1,
                    molecule: Molecule::from_counts([1, 1, 2]),
                },
            },
            Record {
                at: 2,
                event: Event::ContainerEvicted {
                    container: 4,
                    kind: AtomKind(0),
                },
            },
            Record {
                at: 2,
                event: Event::RotationStarted {
                    container: 4,
                    kind: AtomKind(1),
                },
            },
            Record {
                at: 40_000,
                event: Event::PortStalled { until: 55_000 },
            },
            Record {
                at: 90_000,
                event: Event::RotationCompleted {
                    container: 4,
                    kind: AtomKind(1),
                },
            },
            Record {
                at: 90_000,
                event: Event::ContainerLoaded {
                    container: 4,
                    kind: AtomKind(1),
                },
            },
            Record {
                at: 90_001,
                event: Event::SiExecuted {
                    task: 0,
                    si: SiId(2),
                    hw: true,
                    cycles: 24,
                    molecule: Some(Molecule::from_counts([1, 1, 0])),
                },
            },
            Record {
                at: 90_050,
                event: Event::SiExecuted {
                    task: 1,
                    si: SiId(0),
                    hw: false,
                    cycles: 544,
                    molecule: None,
                },
            },
            Record {
                at: 90_100,
                event: Event::FcOutcome {
                    task: 0,
                    si: SiId(2),
                    reached: true,
                },
            },
            Record {
                at: 90_200,
                event: Event::ForecastRetracted {
                    task: 0,
                    si: SiId(2),
                },
            },
            Record {
                at: 91_000,
                event: Event::RotationFailed {
                    container: 3,
                    kind: AtomKind(2),
                },
            },
            Record {
                at: 91_000,
                event: Event::ContainerQuarantined { container: 3 },
            },
            Record {
                at: 91_001,
                event: Event::Reselect {
                    trigger: ReselectTrigger::Fault,
                },
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for r in all_events() {
            let line = encode(r.at, &r.event);
            let back = decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, r, "line {line}");
        }
    }

    #[test]
    fn sink_stream_replays_into_identical_timeline() {
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut live = TimelineSink::new();
        for r in all_events() {
            jsonl.emit(r.at, &r.event);
            live.emit(r.at, &r.event);
        }
        let exported = String::from_utf8(jsonl.into_inner()).unwrap();
        // One header line plus one line per event.
        assert_eq!(exported.lines().count(), all_events().len() + 1);
        assert_eq!(
            exported.lines().next().unwrap(),
            format!("{{\"schema_version\":{SCHEMA_VERSION}}}")
        );

        let mut replayed = TimelineSink::new();
        replay(&exported, &mut replayed).unwrap();
        assert_eq!(replayed.timeline(), live.timeline());

        let mut from_reader = TimelineSink::new();
        replay_reader(exported.as_bytes(), &mut from_reader).unwrap();
        assert_eq!(from_reader.timeline(), live.timeline());
    }

    #[test]
    fn untouched_sink_writes_no_header() {
        let jsonl = JsonlSink::new(Vec::new());
        assert!(jsonl.into_inner().is_empty());
    }

    #[test]
    fn headerless_streams_replay_as_version_zero() {
        let mut live = TimelineSink::new();
        let mut text = String::new();
        for r in all_events() {
            live.emit(r.at, &r.event);
            text.push_str(&encode(r.at, &r.event));
            text.push('\n');
        }
        let mut replayed = TimelineSink::new();
        replay(&text, &mut replayed).unwrap();
        assert_eq!(replayed.timeline(), live.timeline());
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let stream = format!(
            "{{\"schema_version\":{}}}\n{}",
            SCHEMA_VERSION + 1,
            encode(
                1,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0)
                }
            ),
        );
        let mut sink = TimelineSink::new();
        let e = replay(&stream, &mut sink).unwrap_err();
        assert!(e.message.contains("unsupported schema_version"), "{e}");
        assert_eq!(e.line, 1);
        assert!(sink.timeline().is_empty());

        let io_err = replay_reader(stream.as_bytes(), &mut sink).unwrap_err();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_after_events_is_rejected() {
        let stream = format!(
            "{}\n{{\"schema_version\":1}}",
            encode(
                1,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0)
                }
            ),
        );
        let mut sink = TimelineSink::new();
        let e = replay(&stream, &mut sink).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("first record"), "{e}");

        // A repeated header is rejected the same way.
        let doubled = "{\"schema_version\":1}\n{\"schema_version\":1}";
        let e = replay(doubled, &mut TimelineSink::new()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for p in [0.1, 1.0 / 3.0, 5e-324, 1.797e308, 0.0] {
            let line = encode(
                7,
                &Event::ForecastUpdated {
                    task: 0,
                    si: SiId(0),
                    probability: p,
                    expected_executions: p * 0.5,
                },
            );
            match decode(&line).unwrap().event {
                Event::ForecastUpdated {
                    probability,
                    expected_executions,
                    ..
                } => {
                    assert_eq!(probability.to_bits(), p.to_bits());
                    assert_eq!(expected_executions.to_bits(), (p * 0.5).to_bits());
                }
                other => panic!("wrong event {other:?}"),
            }
        }
    }

    #[test]
    fn the_retired_cache_marker_is_checked_then_dropped() {
        let plain = "{\"at\":5,\"ev\":\"reselect\",\"trigger\":\"retract\",\"duration_ns\":0}";
        let marked = plain.replace('}', ",\"cache_hit\":true}");
        let record = decode(plain).unwrap();
        assert_eq!(decode(&marked).unwrap(), record);
        assert_eq!(encode(record.at, &record.event), plain);

        let bad = plain.replace('}', ",\"cache_hit\":3}");
        let e = replay(&format!("{plain}\n{bad}"), &mut TimelineSink::new()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("cache_hit"), "{e}");
    }

    #[test]
    fn a_retired_duration_is_checked_then_re_encoded_as_zero() {
        let timed = "{\"at\":5,\"ev\":\"reselect\",\"trigger\":\"fault\",\"duration_ns\":12345}";
        let record = decode(timed).unwrap();
        assert_eq!(
            record.event,
            Event::Reselect {
                trigger: ReselectTrigger::Fault
            }
        );
        assert_eq!(
            encode(record.at, &record.event),
            timed.replace("12345", "0")
        );

        // The slot is still required, and still a u64.
        let good = "{\"at\":1,\"ev\":\"forecast_retracted\",\"task\":0,\"si\":0}";
        for bad in [
            timed.replace(",\"duration_ns\":12345", ""),
            timed.replace("12345", "1.5"),
            timed.replace("12345", "-1"),
            timed.replace("12345", "\"12345\""),
        ] {
            let e = replay(&format!("{good}\n{bad}"), &mut TimelineSink::new()).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
            assert!(e.message.contains("duration_ns"), "{e}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let cases = [
            "",
            "{",
            "{\"at\":1}",
            "{\"at\":1,\"ev\":\"nope\"}",
            "{\"at\":1,\"ev\":\"reselect\",\"trigger\":\"bogus\",\"duration_ns\":0}",
            "{\"at\":-1,\"ev\":\"forecast_retracted\",\"task\":0,\"si\":0}",
            "{\"at\":1,\"ev\":\"si_executed\",\"task\":0,\"si\":0,\"hw\":1,\"cycles\":2}",
        ];
        for c in cases {
            assert!(decode(c).is_err(), "accepted {c:?}");
        }
        let good = "{\"at\":1,\"ev\":\"forecast_retracted\",\"task\":0,\"si\":0}";
        let mut sink = TimelineSink::new();
        let e = replay(&format!("{good}\n{{bad"), &mut sink).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(sink.timeline().len(), 1);
    }
}
