//! Compact binary event transport: the low-overhead sibling of
//! [`crate::jsonl`].
//!
//! [`BinarySink`] serialises every event into a versioned, length-prefixed
//! binary stream with batched buffered writes; [`replay`] /
//! [`StreamDecoder`] / [`BinaryReader`] turn the stream back into the
//! identical [`Event`] values a [`Timeline`](crate::Timeline) would hold.
//! The format exists because JSONL costs hundreds of nanoseconds per
//! event (shortest-round-trip float formatting, field names, UTF-8) while
//! fleet-scale runs emit millions of events per second per shard — the
//! binary encoding writes a handful of bytes per event and amortises the
//! `write` syscall over a batch.
//!
//! ## Wire format
//!
//! The stream opens with a header: the 4-byte magic [`MAGIC`]
//! (`0x8B 'R' 'S' 'P'` — the lead byte is outside ASCII, so no JSONL
//! stream can ever alias it) followed by the schema version as a varint.
//! Decoders refuse versions newer than [`BIN_SCHEMA_VERSION`], mirroring
//! the JSONL header contract.
//!
//! Each record is length-prefixed: `varint(body_len)` then exactly
//! `body_len` body bytes. The body is `tag byte · zigzag-varint timestamp
//! delta · fields`:
//!
//! * integers are LEB128 varints (decoders accept padded, non-minimal
//!   forms — the encoder's fixed-layout fast path emits two-byte varints
//!   for some values under `0x80`);
//! * the timestamp is delta-encoded against the previous record's cycle
//!   (zigzag, so out-of-order timestamps still round-trip);
//! * `f64` fields are 8 little-endian bytes of [`f64::to_bits`]
//!   (bit-exact round-trip, NaN payloads included);
//! * booleans and `Option` discriminants fold into one flags byte;
//! * [`Molecule`] values are interned: a varint table index, where an
//!   index equal to the current table size introduces a new entry and is
//!   followed by its definition (`varint(len)` then `len` varint counts).
//!   Encoder and decoder grow the table in lockstep, so repeated
//!   Molecules (the overwhelmingly common case) cost one byte.
//!
//! A record body is at most [`MAX_RECORD_BYTES`] long, room for any
//! record carrying a Molecule of up to [`MAX_MOLECULE_KINDS`] Atom kinds.
//! The encoder refuses wider Molecules; decoders refuse a longer length
//! prefix as soon as they have read it, so a hostile prefix can neither
//! overflow the record arithmetic nor make a decoder buffer without
//! bound.
//!
//! Like [`JsonlSink`](crate::JsonlSink), an untouched sink writes
//! nothing — the header is emitted lazily with the first event.
//!
//! ## Decoding
//!
//! [`StreamDecoder`] mirrors the encoder's fast path. Before the general
//! length-prefix parse it recognises exactly the 9- and 10-byte
//! `SiExecuted` records that path writes: a one-byte length of 8 or 9,
//! the tag, a two-byte timestamp delta, flags ≤ `0b11`, one-byte task
//! and SI, a two-byte cycle count and, exactly when flag bit 1 is set, a
//! one-byte index into the intern table. Such a record is read at fixed
//! offsets. Every other record — a differently padded `SiExecuted`, one
//! introducing a new Molecule, any malformed body — takes the general
//! path, so both paths accept the same streams, decode the same records
//! and report the same errors at the same offsets.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;

use crate::event::{Event, Record, ReselectTrigger};
use crate::sink::EventSink;

/// Magic bytes opening every binary event stream. The first byte is
/// deliberately non-ASCII so no JSONL export (which starts with `{` or
/// whitespace) can ever be mistaken for a binary stream, and vice versa.
pub const MAGIC: [u8; 4] = [0x8B, b'R', b'S', b'P'];

/// Version of the binary schema this build writes (and the newest it
/// decodes). Streams carrying a newer version are refused, never
/// misread.
pub const BIN_SCHEMA_VERSION: u64 = 1;

/// Widest [`Molecule`] (in Atom kinds) a stream may carry. The encoder
/// panics on a wider one rather than write a record decoders would
/// refuse; platforms in this repository have at most six kinds.
pub const MAX_MOLECULE_KINDS: usize = 1 << 16;

/// Longest record body decoders accept. A longer length prefix is a
/// [`BinError`] at the record's offset as soon as it has been read.
pub const MAX_RECORD_BYTES: usize = 512 * 1024;

// The longest body the encoder writes: `SiExecuted` introducing a
// Molecule — tag 1, delta 10, flags 1, task 5, si 10, cycles 10 and
// table index 10 bytes, the definition's length (3 bytes up to
// `MAX_MOLECULE_KINDS`) and five bytes per count.
const _: () = assert!(47 + 3 + 5 * MAX_MOLECULE_KINDS <= MAX_RECORD_BYTES);

/// Bytes buffered in a [`BinarySink`] before a batched write.
const FLUSH_THRESHOLD: usize = 8 * 1024;

/// Returns `true` when `prefix` starts with the binary magic — the
/// auto-detection probe `rispp_report` and `rispp_serve` use to pick a
/// decoder. Prefixes shorter than [`MAGIC`] return `false`.
#[must_use]
pub fn is_binary(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// A malformed or unsupported binary stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// Byte offset (within the whole stream) of the record that failed.
    pub offset: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary stream offset {}: {}", self.offset, self.message)
    }
}

impl Error for BinError {}

fn err(offset: u64, message: impl Into<String>) -> BinError {
    BinError {
        offset,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Primitive encoders
// ---------------------------------------------------------------------

#[inline(always)]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

#[inline(always)]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Event tags. The decoder refuses unknown tags, so adding a variant
/// means bumping [`BIN_SCHEMA_VERSION`].
mod tag {
    pub const ROTATION_STARTED: u8 = 0;
    pub const ROTATION_COMPLETED: u8 = 1;
    pub const ROTATION_FAILED: u8 = 2;
    pub const PORT_STALLED: u8 = 3;
    pub const CONTAINER_QUARANTINED: u8 = 4;
    pub const CONTAINER_LOADED: u8 = 5;
    pub const CONTAINER_EVICTED: u8 = 6;
    pub const SI_EXECUTED: u8 = 7;
    pub const FORECAST_UPDATED: u8 = 8;
    pub const FORECAST_RETRACTED: u8 = 9;
    pub const FC_OUTCOME: u8 = 10;
    pub const RESELECT: u8 = 11;
    pub const UPGRADE_STEP: u8 = 12;
}

/// High bit of the reselect trigger byte: the retired selection-cache
/// marker. Streams written while the manager had a selection cache set
/// it on cached decisions; the encoder no longer does, and the decoder
/// masks it, so those schema version 1 streams still decode. Trigger
/// codes stay below 0x80.
const TRIGGER_RETIRED_CACHE_HIT: u8 = 0x80;

/// What the encoder writes in a reselect record's retired duration
/// slot. Streams written while the manager timed re-selections on the
/// host carry a varint of nanoseconds there. The slot stays, written as
/// zero and read then dropped by the decoder, so schema version 1 holds
/// both ways: old streams decode here, and new streams decode in
/// readers that still expect the field. It goes with the next version
/// bump.
const RETIRED_DURATION_NS: u64 = 0;

fn trigger_code(t: ReselectTrigger) -> u8 {
    match t {
        ReselectTrigger::Forecast => 0,
        ReselectTrigger::ForecastBlock => 1,
        ReselectTrigger::Retract => 2,
        ReselectTrigger::Observation => 3,
        ReselectTrigger::PowerMode => 4,
        ReselectTrigger::Fault => 5,
    }
}

fn trigger_from(code: u8) -> Option<ReselectTrigger> {
    Some(match code {
        0 => ReselectTrigger::Forecast,
        1 => ReselectTrigger::ForecastBlock,
        2 => ReselectTrigger::Retract,
        3 => ReselectTrigger::Observation,
        4 => ReselectTrigger::PowerMode,
        5 => ReselectTrigger::Fault,
        _ => return None,
    })
}

/// Fixed-size scratch buffer the hot encode path writes record bodies
/// into: one capacity check when the finished body is appended to the
/// output, instead of one per byte pushed into a `Vec`. The storage is
/// borrowed from the sink so it is zeroed once per stream, not once per
/// record.
///
/// 64 bytes hold the worst case of every body that does **not** inline a
/// new Molecule definition (largest: `SiExecuted` at 1 tag + 10 delta +
/// 1 flags + 5 task + 10 si + 10 cycles + 10 interned index = 47).
struct Cursor<'a> {
    bytes: &'a mut [u8; 64],
    len: usize,
}

impl<'a> Cursor<'a> {
    #[inline(always)]
    fn new(bytes: &'a mut [u8; 64]) -> Self {
        Cursor { bytes, len: 0 }
    }

    #[inline(always)]
    fn push(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }

    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        // One- and two-byte varints cover almost every field (ids,
        // cycle deltas, execution costs); unrolling them skips the
        // loop-carried length dependency.
        if v < 0x80 {
            self.push(v as u8);
            return;
        }
        if v < 0x4000 {
            self.bytes[self.len] = (v & 0x7F) as u8 | 0x80;
            self.bytes[self.len + 1] = (v >> 7) as u8;
            self.len += 2;
            return;
        }
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.push(b);
                return;
            }
            self.push(b | 0x80);
        }
    }

    #[inline(always)]
    fn f64(&mut self, v: f64) {
        self.bytes[self.len..self.len + 8].copy_from_slice(&v.to_bits().to_le_bytes());
        self.len += 8;
    }
}

/// Looks up `molecule` in the intern table without inserting. `last_hit`
/// caches the previous match: consecutive events overwhelmingly repeat
/// one Molecule, so the common case is a single comparison, not a table
/// scan. `None` means this is a first sighting (the slow path interns
/// it).
#[inline]
fn find_molecule(table: &[Molecule], last_hit: &mut usize, molecule: &Molecule) -> Option<usize> {
    if let Some(m) = table.get(*last_hit) {
        if m == molecule {
            return Some(*last_hit);
        }
    }
    let idx = table.iter().position(|m| m == molecule)?;
    *last_hit = idx;
    Some(idx)
}

/// Appends one record (length prefix + body) to `buf`, updating the
/// encoder state (`last_at`, intern table, molecule cache).
///
/// Bodies are encoded into a fixed stack [`Cursor`] and appended with a
/// single-byte length prefix (a 64-byte cursor body always fits one
/// varint byte). The only records that cannot take this path are the
/// ones introducing a new Molecule to the intern table — once per unique
/// Molecule per stream — which divert to [`encode_molecule_record`].
#[inline(always)]
fn encode_record(
    buf: &mut Vec<u8>,
    scratch: &mut [u8; 64],
    table: &mut Vec<Molecule>,
    last_mol: &mut usize,
    last_at: &mut u64,
    at: u64,
    event: &Event,
) {
    let delta = zigzag(at.wrapping_sub(*last_at) as i64);
    *last_at = at;
    let mut c = Cursor::new(scratch);
    match event {
        Event::RotationStarted { container, kind } => {
            c.push(tag::ROTATION_STARTED);
            c.varint(delta);
            c.varint(u64::from(*container));
            c.varint(kind.index() as u64);
        }
        Event::RotationCompleted { container, kind } => {
            c.push(tag::ROTATION_COMPLETED);
            c.varint(delta);
            c.varint(u64::from(*container));
            c.varint(kind.index() as u64);
        }
        Event::RotationFailed { container, kind } => {
            c.push(tag::ROTATION_FAILED);
            c.varint(delta);
            c.varint(u64::from(*container));
            c.varint(kind.index() as u64);
        }
        Event::PortStalled { until } => {
            c.push(tag::PORT_STALLED);
            c.varint(delta);
            c.varint(*until);
        }
        Event::ContainerQuarantined { container } => {
            c.push(tag::CONTAINER_QUARANTINED);
            c.varint(delta);
            c.varint(u64::from(*container));
        }
        Event::ContainerLoaded { container, kind } => {
            c.push(tag::CONTAINER_LOADED);
            c.varint(delta);
            c.varint(u64::from(*container));
            c.varint(kind.index() as u64);
        }
        Event::ContainerEvicted { container, kind } => {
            c.push(tag::CONTAINER_EVICTED);
            c.varint(delta);
            c.varint(u64::from(*container));
            c.varint(kind.index() as u64);
        }
        Event::SiExecuted {
            task,
            si,
            hw,
            cycles,
            molecule,
        } => {
            let idx = match molecule {
                Some(m) => match find_molecule(table, last_mol, m) {
                    Some(idx) => Some(idx),
                    None => return encode_molecule_record(buf, table, last_mol, delta, event),
                },
                None => None,
            };
            let flags = u8::from(*hw) | (u8::from(idx.is_some()) << 1);
            let (t, s) = (u64::from(*task), si.index() as u64);
            let ix = idx.unwrap_or(0) as u64;
            // ~97% of captured executions fit a fixed layout with
            // two-byte varints for delta and cycles (LEB128 reads the
            // padded form back identically), assembled in registers and
            // appended with one constant-size copy. This is the hottest
            // record in every scenario, so it skips the Cursor entirely.
            if delta < 0x4000 && t < 0x80 && s < 0x80 && *cycles < 0x4000 && ix < 0x80 {
                let body_len = 8 + usize::from(idx.is_some());
                let rec = [
                    body_len as u8,
                    tag::SI_EXECUTED,
                    (delta & 0x7F) as u8 | 0x80,
                    (delta >> 7) as u8,
                    flags,
                    t as u8,
                    s as u8,
                    (*cycles & 0x7F) as u8 | 0x80,
                    (*cycles >> 7) as u8,
                    ix as u8,
                ];
                buf.extend_from_slice(&rec);
                buf.truncate(buf.len() + body_len - 9);
                return;
            }
            c.push(tag::SI_EXECUTED);
            c.varint(delta);
            c.push(flags);
            c.varint(t);
            c.varint(s);
            c.varint(*cycles);
            if let Some(idx) = idx {
                c.varint(idx as u64);
            }
        }
        Event::ForecastUpdated {
            task,
            si,
            probability,
            expected_executions,
        } => {
            c.push(tag::FORECAST_UPDATED);
            c.varint(delta);
            c.varint(u64::from(*task));
            c.varint(si.index() as u64);
            c.f64(*probability);
            c.f64(*expected_executions);
        }
        Event::ForecastRetracted { task, si } => {
            c.push(tag::FORECAST_RETRACTED);
            c.varint(delta);
            c.varint(u64::from(*task));
            c.varint(si.index() as u64);
        }
        Event::FcOutcome { task, si, reached } => {
            c.push(tag::FC_OUTCOME);
            c.varint(delta);
            c.push(u8::from(*reached));
            c.varint(u64::from(*task));
            c.varint(si.index() as u64);
        }
        Event::Reselect { trigger } => {
            c.push(tag::RESELECT);
            c.varint(delta);
            c.push(trigger_code(*trigger));
            c.varint(RETIRED_DURATION_NS);
        }
        Event::UpgradeStep {
            si,
            task,
            step,
            molecule,
        } => {
            let Some(idx) = find_molecule(table, last_mol, molecule) else {
                return encode_molecule_record(buf, table, last_mol, delta, event);
            };
            c.push(tag::UPGRADE_STEP);
            c.varint(delta);
            // 0 encodes `None`; `Some(t)` is carried as `t + 1`.
            c.varint(task.map_or(0, |t| u64::from(t) + 1));
            c.varint(si.index() as u64);
            c.varint(u64::from(*step));
            c.varint(idx as u64);
        }
    }
    buf.push(c.len as u8);
    // A fixed-size copy compiles to two register moves instead of a
    // memcpy call; typical bodies are 8–14 bytes, so over-copying 16 and
    // truncating wins. Longer bodies (float-carrying events) take the
    // plain copy.
    if c.len <= 16 {
        buf.extend_from_slice(&c.bytes[..16]);
        buf.truncate(buf.len() - (16 - c.len));
    } else {
        buf.extend_from_slice(&c.bytes[..c.len]);
    }
}

/// Interns `molecule` (known absent from the table) and encodes the
/// table reference with its inline definition.
fn put_new_molecule(body: &mut Vec<u8>, table: &mut Vec<Molecule>, molecule: &Molecule) {
    let counts = molecule.as_slice();
    assert!(
        counts.len() <= MAX_MOLECULE_KINDS,
        "molecule of {} atom kinds exceeds the binary format's {MAX_MOLECULE_KINDS}",
        counts.len()
    );
    put_varint(body, table.len() as u64);
    put_varint(body, counts.len() as u64);
    for &c in counts {
        put_varint(body, u64::from(c));
    }
    table.push(molecule.clone());
}

/// Cold path for the two molecule-carrying records when the Molecule is
/// new to the stream: the inline definition is unbounded, so the body is
/// built in a `Vec` and length-prefixed after the fact.
#[cold]
fn encode_molecule_record(
    buf: &mut Vec<u8>,
    table: &mut Vec<Molecule>,
    last_mol: &mut usize,
    delta: u64,
    event: &Event,
) {
    *last_mol = table.len();
    let mut body = Vec::with_capacity(64);
    match event {
        Event::SiExecuted {
            task,
            si,
            hw,
            cycles,
            molecule: Some(m),
        } => {
            body.push(tag::SI_EXECUTED);
            put_varint(&mut body, delta);
            body.push(u8::from(*hw) | 0b10);
            put_varint(&mut body, u64::from(*task));
            put_varint(&mut body, si.index() as u64);
            put_varint(&mut body, *cycles);
            put_new_molecule(&mut body, table, m);
        }
        Event::UpgradeStep {
            si,
            task,
            step,
            molecule,
        } => {
            body.push(tag::UPGRADE_STEP);
            put_varint(&mut body, delta);
            put_varint(&mut body, task.map_or(0, |t| u64::from(t) + 1));
            put_varint(&mut body, si.index() as u64);
            put_varint(&mut body, u64::from(*step));
            put_new_molecule(&mut body, table, molecule);
        }
        other => unreachable!("only molecule-introducing records divert here, not {other:?}"),
    }
    put_varint(buf, body.len() as u64);
    buf.extend_from_slice(&body);
}

// ---------------------------------------------------------------------
// BinarySink
// ---------------------------------------------------------------------

/// Sink serialising every event into the compact binary format, with
/// batched buffered writes (the underlying writer sees one `write` per
/// ~8 KiB of encoded events, not one per event).
///
/// Dropping the sink flushes best-effort; call [`BinarySink::flush`] or
/// [`BinarySink::into_inner`] to observe write errors.
#[derive(Debug)]
pub struct BinarySink<W: Write> {
    writer: Option<W>,
    buf: Vec<u8>,
    scratch: Box<[u8; 64]>,
    header_written: bool,
    last_at: u64,
    last_mol: usize,
    table: Vec<Molecule>,
}

impl<W: Write> BinarySink<W> {
    /// Wraps a writer (`Vec<u8>` for in-memory export, a file, …).
    pub fn new(writer: W) -> Self {
        BinarySink {
            writer: Some(writer),
            buf: Vec::with_capacity(FLUSH_THRESHOLD + 256),
            scratch: Box::new([0; 64]),
            header_written: false,
            last_at: 0,
            last_mol: 0,
            table: Vec::new(),
        }
    }

    /// Writes any buffered bytes through to the writer and flushes it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        let writer = self
            .writer
            .as_mut()
            .expect("writer present until into_inner");
        if !self.buf.is_empty() {
            writer.write_all(&self.buf)?;
            self.buf.clear();
        }
        writer.flush()
    }

    /// Flushes and consumes the sink, returning the writer.
    ///
    /// # Panics
    ///
    /// Panics when the final flush fails, matching the severity of
    /// losing telemetry mid-export.
    #[must_use]
    pub fn into_inner(mut self) -> W {
        self.flush().expect("binary sink flush failed");
        self.writer.take().expect("writer present until into_inner")
    }
}

impl<W: Write> EventSink for BinarySink<W> {
    /// Serialises the event.
    ///
    /// I/O errors cannot be reported through the sink interface; they
    /// panic, matching [`JsonlSink`](crate::JsonlSink).
    fn emit(&mut self, at: u64, event: &Event) {
        if !self.header_written {
            self.header_written = true;
            self.buf.extend_from_slice(&MAGIC);
            put_varint(&mut self.buf, BIN_SCHEMA_VERSION);
        }
        encode_record(
            &mut self.buf,
            &mut self.scratch,
            &mut self.table,
            &mut self.last_mol,
            &mut self.last_at,
            at,
            event,
        );
        if self.buf.len() >= FLUSH_THRESHOLD {
            let writer = self
                .writer
                .as_mut()
                .expect("writer present until into_inner");
            writer
                .write_all(&self.buf)
                .expect("binary sink write failed");
            self.buf.clear();
        }
    }
}

impl<W: Write> Drop for BinarySink<W> {
    fn drop(&mut self) {
        // Best-effort: errors cannot propagate out of drop. Callers that
        // must observe them go through `flush`/`into_inner`.
        if let Some(writer) = self.writer.as_mut() {
            if !self.buf.is_empty() {
                let _ = writer.write_all(&self.buf);
                self.buf.clear();
            }
            let _ = writer.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Reads primitives off a fully-buffered record body, where running out
/// of bytes is corruption (the length prefix promised them).
struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl Body<'_> {
    fn fail(&self, what: &str) -> BinError {
        err(self.offset, format!("truncated or malformed {what}"))
    }

    fn u8(&mut self, what: &str) -> Result<u8, BinError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.fail(what))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self, what: &str) -> Result<u64, BinError> {
        // Most fields (ids, kinds, small deltas and counts) fit one byte.
        if let Some(&b) = self.bytes.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.long_varint(what)
    }

    fn long_varint(&mut self, what: &str) -> Result<u64, BinError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift == 63 && b > 1 {
                return Err(err(self.offset, format!("varint overflow in {what}")));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(err(self.offset, format!("varint overflow in {what}")));
            }
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, BinError> {
        u32::try_from(self.varint(what)?)
            .map_err(|_| err(self.offset, format!("{what} exceeds u32")))
    }

    fn index(&mut self, what: &str) -> Result<usize, BinError> {
        usize::try_from(self.varint(what)?)
            .map_err(|_| err(self.offset, format!("{what} exceeds usize")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, BinError> {
        if self.bytes.len() - self.pos < 8 {
            return Err(self.fail(what));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn molecule(&mut self, table: &mut Vec<Molecule>) -> Result<Molecule, BinError> {
        let idx = self.index("molecule index")?;
        match idx.cmp(&table.len()) {
            std::cmp::Ordering::Less => Ok(table[idx].clone()),
            std::cmp::Ordering::Equal => {
                let len = self.index("molecule length")?;
                let mut counts = Vec::with_capacity(len.min(64));
                for _ in 0..len {
                    counts.push(self.u32("molecule count")?);
                }
                let m: Molecule = counts.into_iter().collect();
                table.push(m.clone());
                Ok(m)
            }
            std::cmp::Ordering::Greater => Err(err(
                self.offset,
                format!(
                    "molecule index {idx} skips ahead of the intern table (len {})",
                    table.len()
                ),
            )),
        }
    }
}

/// Decodes one complete record body into an event, updating the decoder
/// state exactly as the encoder updated its own.
fn decode_body(
    body: &[u8],
    offset: u64,
    last_at: &mut u64,
    table: &mut Vec<Molecule>,
) -> Result<Record, BinError> {
    let mut b = Body {
        bytes: body,
        pos: 0,
        offset,
    };
    let tag = b.u8("record tag")?;
    let delta = unzigzag(b.varint("timestamp delta")?);
    let at = last_at.wrapping_add(delta as u64);
    *last_at = at;
    let event = match tag {
        tag::ROTATION_STARTED => Event::RotationStarted {
            container: b.u32("container")?,
            kind: AtomKind(b.index("kind")?),
        },
        tag::ROTATION_COMPLETED => Event::RotationCompleted {
            container: b.u32("container")?,
            kind: AtomKind(b.index("kind")?),
        },
        tag::ROTATION_FAILED => Event::RotationFailed {
            container: b.u32("container")?,
            kind: AtomKind(b.index("kind")?),
        },
        tag::PORT_STALLED => Event::PortStalled {
            until: b.varint("until")?,
        },
        tag::CONTAINER_QUARANTINED => Event::ContainerQuarantined {
            container: b.u32("container")?,
        },
        tag::CONTAINER_LOADED => Event::ContainerLoaded {
            container: b.u32("container")?,
            kind: AtomKind(b.index("kind")?),
        },
        tag::CONTAINER_EVICTED => Event::ContainerEvicted {
            container: b.u32("container")?,
            kind: AtomKind(b.index("kind")?),
        },
        tag::SI_EXECUTED => {
            let flags = b.u8("flags")?;
            if flags & !0b11 != 0 {
                return Err(err(offset, format!("unknown si_executed flags {flags:#x}")));
            }
            let task = b.u32("task")?;
            let si = SiId(b.index("si")?);
            let cycles = b.varint("cycles")?;
            let molecule = if flags & 0b10 != 0 {
                Some(b.molecule(table)?)
            } else {
                None
            };
            Event::SiExecuted {
                task,
                si,
                hw: flags & 0b01 != 0,
                cycles,
                molecule,
            }
        }
        tag::FORECAST_UPDATED => Event::ForecastUpdated {
            task: b.u32("task")?,
            si: SiId(b.index("si")?),
            probability: b.f64("probability")?,
            expected_executions: b.f64("expected_executions")?,
        },
        tag::FORECAST_RETRACTED => Event::ForecastRetracted {
            task: b.u32("task")?,
            si: SiId(b.index("si")?),
        },
        tag::FC_OUTCOME => {
            let reached = match b.u8("reached")? {
                0 => false,
                1 => true,
                other => return Err(err(offset, format!("malformed boolean {other:#x}"))),
            };
            Event::FcOutcome {
                task: b.u32("task")?,
                si: SiId(b.index("si")?),
                reached,
            }
        }
        tag::RESELECT => {
            let code = b.u8("trigger")?;
            let trigger = trigger_from(code & !TRIGGER_RETIRED_CACHE_HIT)
                .ok_or_else(|| err(offset, format!("unknown reselect trigger {code}")))?;
            b.varint("duration_ns")?;
            Event::Reselect { trigger }
        }
        tag::UPGRADE_STEP => {
            let task = match b.varint("task")? {
                0 => None,
                t => Some(u32::try_from(t - 1).map_err(|_| err(offset, "task exceeds u32"))?),
            };
            Event::UpgradeStep {
                task,
                si: SiId(b.index("si")?),
                step: b.u32("step")?,
                molecule: b.molecule(table)?,
            }
        }
        other => return Err(err(offset, format!("unknown event tag {other}"))),
    };
    if b.pos != body.len() {
        return Err(err(
            offset,
            format!("{} trailing bytes after record body", body.len() - b.pos),
        ));
    }
    Ok(Record { at, event })
}

/// Tries to read a varint at `bytes[pos..]`. `Ok(None)` means the buffer
/// ends mid-varint (feed more bytes); `Err` means the varint itself is
/// malformed.
#[inline]
fn peek_varint(
    bytes: &[u8],
    mut pos: usize,
    offset: u64,
) -> Result<Option<(u64, usize)>, BinError> {
    // Every record the encoder writes outside the cold Molecule path has
    // a one-byte length prefix.
    if let Some(&b) = bytes.get(pos) {
        if b < 0x80 {
            return Ok(Some((u64::from(b), pos + 1)));
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(pos) else {
            return Ok(None);
        };
        pos += 1;
        if shift == 63 && b > 1 {
            return Err(err(offset, "varint overflow in length prefix"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(Some((v, pos)));
        }
        shift += 7;
        if shift > 63 {
            return Err(err(offset, "varint overflow in length prefix"));
        }
    }
}

/// Decodes the record at the start of `bytes` (length prefix first) if it
/// is one of the fixed-layout `SiExecuted` records the encoder's fast
/// path writes, returning it with its length. `None` declines: the
/// record has another layout, is malformed, or has not fully arrived,
/// and the general path decides which. An accepted record decodes to
/// exactly what [`decode_body`] returns for it, with the same update of
/// `last_at`.
#[inline(always)]
fn decode_fixed_si_executed(
    bytes: &[u8],
    last_at: &mut u64,
    table: &[Molecule],
) -> Option<(Record, usize)> {
    let &[len, tag, d0, d1, flags, task, si, c0, c1] = bytes.get(..9)? else {
        return None;
    };
    // Both two-byte varints continue after their first byte only, every
    // one-byte field has its high bit clear, and the length is 8, or 9
    // exactly when flag bit 1 announces a Molecule index.
    let has_molecule = flags >> 1 == 1;
    if tag != tag::SI_EXECUTED
        || d0 & c0 & 0x80 == 0
        || (d1 | task | si | c1) & 0x80 != 0
        || flags > 0b11
        || usize::from(len) != 8 + usize::from(has_molecule)
    {
        return None;
    }
    let molecule = if has_molecule {
        let ix = *bytes.get(9)?;
        if ix >= 0x80 {
            return None;
        }
        Some(table.get(usize::from(ix))?.clone())
    } else {
        None
    };
    let delta = unzigzag(u64::from(d0 & 0x7F) | u64::from(d1) << 7);
    let at = last_at.wrapping_add(delta as u64);
    *last_at = at;
    let event = Event::SiExecuted {
        task: u32::from(task),
        si: SiId(usize::from(si)),
        hw: flags & 0b01 != 0,
        cycles: u64::from(c0 & 0x7F) | u64::from(c1) << 7,
        molecule,
    };
    Some((Record { at, event }, 1 + usize::from(len)))
}

/// Incremental decoder for a binary event stream: feed byte chunks as
/// they arrive (a growing file tail, a socket), pull complete records
/// out. Partial records stay buffered until the missing bytes arrive —
/// the primitive `rispp_serve` tails live logs with.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted periodically).
    start: usize,
    /// Absolute stream offset of `buf[start]`.
    offset: u64,
    header_done: bool,
    last_at: u64,
    table: Vec<Molecule>,
    /// A decode error is sticky: the stream state is unrecoverable.
    failed: bool,
}

impl StreamDecoder {
    /// Creates a decoder expecting a fresh stream (header first).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly-arrived bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fully consumed so far (header + complete records).
    #[must_use]
    pub fn bytes_consumed(&self) -> u64 {
        self.offset
    }

    /// `true` once the stream header has been seen and validated.
    #[must_use]
    pub fn header_seen(&self) -> bool {
        self.header_done
    }

    /// Unconsumed bytes currently buffered (a partial record tail).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    fn avail(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        self.offset += n as u64;
        // Compact once the dead prefix dominates, keeping feed() cheap.
        if self.start > 64 * 1024 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Decodes the next complete record, if its bytes have arrived.
    /// `Ok(None)` means "feed more bytes"; errors are sticky.
    ///
    /// # Errors
    ///
    /// Returns [`BinError`] for a bad magic, an unsupported schema
    /// version, or a malformed record.
    pub fn next_record(&mut self) -> Result<Option<Record>, BinError> {
        if self.failed {
            return Err(err(self.offset, "stream already failed"));
        }
        // The fixed layout first (see the module docs), inline; the
        // header and every record it declines take the general path.
        if self.header_done {
            let avail = &self.buf[self.start..];
            if let Some((record, n)) =
                decode_fixed_si_executed(avail, &mut self.last_at, &self.table)
            {
                self.consume(n);
                return Ok(Some(record));
            }
        }
        self.try_next().inspect_err(|_| self.failed = true)
    }

    // Kept out of line so the fixed-layout path in `next_record` stays a
    // small function.
    #[inline(never)]
    fn try_next(&mut self) -> Result<Option<Record>, BinError> {
        if !self.header_done {
            let avail = self.avail();
            if avail.len() < MAGIC.len() {
                // Reject on the first wrong byte: callers probing a
                // JSONL stream should fail fast, not buffer forever.
                if !avail.is_empty() && avail != &MAGIC[..avail.len()] {
                    return Err(err(
                        self.offset,
                        "bad magic: not a RISPP binary event stream",
                    ));
                }
                return Ok(None);
            }
            if avail[..MAGIC.len()] != MAGIC {
                return Err(err(
                    self.offset,
                    "bad magic: not a RISPP binary event stream",
                ));
            }
            let Some((version, end)) = peek_varint(avail, MAGIC.len(), self.offset)? else {
                return Ok(None);
            };
            if version > BIN_SCHEMA_VERSION {
                return Err(err(
                    self.offset,
                    format!(
                        "unsupported bin schema_version {version} \
                         (this build decodes versions up to {BIN_SCHEMA_VERSION})"
                    ),
                ));
            }
            self.consume(end);
            self.header_done = true;
        }
        // Direct field borrows keep the body slice (`self.buf`) disjoint
        // from the decoder state (`self.last_at` / `self.table`).
        let avail = &self.buf[self.start..];
        let Some((len, body_start)) = peek_varint(avail, 0, self.offset)? else {
            return Ok(None);
        };
        let len = match usize::try_from(len) {
            Ok(n) if n <= MAX_RECORD_BYTES => n,
            _ => {
                return Err(err(
                    self.offset,
                    format!("record length {len} exceeds the {MAX_RECORD_BYTES}-byte limit"),
                ))
            }
        };
        let Some(body) = body_start
            .checked_add(len)
            .and_then(|end| avail.get(body_start..end))
        else {
            return Ok(None);
        };
        let record = decode_body(body, self.offset, &mut self.last_at, &mut self.table)?;
        self.consume(body_start + len);
        Ok(Some(record))
    }
}

/// Streaming reader over any [`Read`], yielding decoded records in
/// order. A truncated tail (bytes that never complete a record) or a
/// malformed record surfaces as an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`].
#[derive(Debug)]
pub struct BinaryReader<R: Read> {
    reader: R,
    decoder: StreamDecoder,
    chunk: Vec<u8>,
    eof: bool,
    done: bool,
}

impl<R: Read> BinaryReader<R> {
    /// Wraps a reader positioned at the start of a binary stream.
    pub fn new(reader: R) -> Self {
        BinaryReader {
            reader,
            decoder: StreamDecoder::new(),
            chunk: vec![0u8; 64 * 1024],
            eof: false,
            done: false,
        }
    }
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = io::Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.decoder.next_record() {
                Ok(Some(record)) => return Some(Ok(record)),
                Ok(None) => {
                    if self.eof {
                        self.done = true;
                        if self.decoder.pending_bytes() > 0 {
                            let e = err(
                                self.decoder.bytes_consumed(),
                                format!(
                                    "stream truncated mid-record ({} dangling bytes)",
                                    self.decoder.pending_bytes()
                                ),
                            );
                            return Some(Err(io::Error::new(io::ErrorKind::InvalidData, e)));
                        }
                        return None;
                    }
                    match self.reader.read(&mut self.chunk) {
                        Ok(0) => self.eof = true,
                        Ok(n) => self.decoder.feed(&self.chunk[..n]),
                        Err(e) => {
                            if e.kind() == io::ErrorKind::Interrupted {
                                continue;
                            }
                            self.done = true;
                            return Some(Err(e));
                        }
                    }
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(io::Error::new(io::ErrorKind::InvalidData, e)));
                }
            }
        }
    }
}

/// Replays a complete in-memory binary stream into a sink. An empty
/// input replays zero events (the untouched-sink case); anything else
/// must carry a full header and whole records.
///
/// # Errors
///
/// Returns [`BinError`] for a bad magic, an unsupported schema version,
/// a malformed record, or a truncated tail.
pub fn replay<S: EventSink>(bytes: &[u8], sink: &mut S) -> Result<(), BinError> {
    let mut decoder = StreamDecoder::new();
    decoder.feed(bytes);
    while let Some(record) = decoder.next_record()? {
        sink.emit(record.at, &record.event);
    }
    if decoder.pending_bytes() > 0 {
        return Err(err(
            decoder.bytes_consumed(),
            format!(
                "stream truncated mid-record ({} dangling bytes)",
                decoder.pending_bytes()
            ),
        ));
    }
    Ok(())
}

/// Replays a binary stream from a reader into a sink, with the same
/// contract as [`replay`].
///
/// # Errors
///
/// Returns the underlying I/O error, or a [`BinError`] wrapped in
/// [`io::Error`] for a malformed or truncated stream.
pub fn replay_reader<R: Read, S: EventSink>(reader: R, sink: &mut S) -> io::Result<()> {
    for record in BinaryReader::new(reader) {
        let record = record?;
        sink.emit(record.at, &record.event);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl;
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
                at: 90_051,
                event: Event::SiExecuted {
                    task: 0,
                    si: SiId(2),
                    hw: true,
                    cycles: 24,
                    // Interned: second sighting of this Molecule.
                    molecule: Some(Molecule::from_counts([1, 1, 0])),
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
                // Out of order on purpose: deltas are signed.
                at: 90_900,
                event: Event::FcOutcome {
                    task: 1,
                    si: SiId(0),
                    reached: false,
                },
            },
            Record {
                at: 91_001,
                event: Event::Reselect {
                    trigger: ReselectTrigger::Fault,
                },
            },
        ]
    }

    fn encode_all(records: &[Record]) -> Vec<u8> {
        let mut sink = BinarySink::new(Vec::new());
        for r in records {
            sink.emit(r.at, &r.event);
        }
        sink.into_inner()
    }

    #[test]
    fn every_event_round_trips() {
        let bytes = encode_all(&all_events());
        let mut replayed = TimelineSink::new();
        replay(&bytes, &mut replayed).unwrap();
        let expected: Vec<Record> = all_events();
        assert_eq!(replayed.timeline().entries(), expected.as_slice());
    }

    #[test]
    fn reader_round_trips_and_matches_timeline() {
        let bytes = encode_all(&all_events());
        let records: Vec<Record> = BinaryReader::new(&bytes[..])
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(records, all_events());

        let mut sink = TimelineSink::new();
        replay_reader(&bytes[..], &mut sink).unwrap();
        assert_eq!(sink.timeline().entries(), all_events().as_slice());
    }

    #[test]
    fn untouched_sink_writes_no_bytes() {
        let sink = BinarySink::new(Vec::new());
        assert!(sink.into_inner().is_empty());
        // And an empty stream replays zero events.
        let mut out = TimelineSink::new();
        replay(&[], &mut out).unwrap();
        assert!(out.timeline().is_empty());
    }

    #[test]
    fn binary_is_smaller_than_jsonl() {
        let records = all_events();
        let bytes = encode_all(&records);
        let jsonl_len: usize = records
            .iter()
            .map(|r| jsonl::encode(r.at, &r.event).len() + 1)
            .sum();
        assert!(
            bytes.len() * 4 < jsonl_len,
            "binary {} bytes vs jsonl {jsonl_len}",
            bytes.len()
        );
    }

    #[test]
    fn magic_probe_detects_format() {
        let bytes = encode_all(&all_events());
        assert!(is_binary(&bytes));
        assert!(!is_binary(b"{\"schema_version\":1}"));
        assert!(!is_binary(&bytes[..3]));
        assert!(!is_binary(b""));
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION + 1);
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("unsupported bin schema_version"), "{e}");
        let io_err = replay_reader(&bytes[..], &mut TimelineSink::new()).unwrap_err();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_is_rejected_immediately() {
        let e = replay(b"{\"at\":1}", &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("bad magic"), "{e}");
        assert_eq!(e.offset, 0);
        // Even a single wrong byte fails fast (no buffering forever).
        let mut d = StreamDecoder::new();
        d.feed(b"{");
        assert!(d.next_record().is_err());
    }

    #[test]
    fn every_truncation_is_a_prefix_or_an_error() {
        let records = all_events();
        let bytes = encode_all(&records);
        for cut in 0..bytes.len() {
            let mut sink = TimelineSink::new();
            match replay(&bytes[..cut], &mut sink) {
                Ok(()) => {
                    // A clean cut decodes some prefix of the records.
                    let n = sink.timeline().len();
                    assert_eq!(sink.timeline().entries(), &records[..n], "cut {cut}");
                }
                Err(e) => {
                    assert!(
                        e.message.contains("truncated") || e.message.contains("dangling"),
                        "cut {cut}: {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_records_are_rejected_with_offset() {
        // Unknown tag.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        let header_len = bytes.len() as u64;
        bytes.extend_from_slice(&[2, 200, 0]); // len 2, tag 200, delta 0
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("unknown event tag 200"), "{e}");
        assert_eq!(e.offset, header_len);

        // Unknown reselect trigger.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[4, tag::RESELECT, 0, 99, 0]);
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("unknown reselect trigger 99"), "{e}");

        // Molecule index skipping ahead of the intern table.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[7, tag::SI_EXECUTED, 0, 0b10, 0, 0, 5, 3]);
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("intern table"), "{e}");

        // Body shorter than its fields claim.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[2, tag::PORT_STALLED, 0]); // missing `until`
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("until"), "{e}");

        // Body longer than its fields consume.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[4, tag::PORT_STALLED, 0, 9, 9]);
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("trailing bytes"), "{e}");
    }

    /// A stream holding one reselect record whose body after the
    /// timestamp delta is `fields`.
    fn reselect_stream(fields: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.push(2 + fields.len() as u8);
        bytes.extend_from_slice(&[tag::RESELECT, 0]);
        bytes.extend_from_slice(fields);
        bytes
    }

    fn decode_timeline(bytes: &[u8]) -> Result<Vec<Record>, BinError> {
        let mut sink = TimelineSink::new();
        replay(bytes, &mut sink)?;
        Ok(sink.timeline().entries().to_vec())
    }

    #[test]
    fn the_retired_cache_marker_decodes_and_re_encodes_unmarked() {
        let code = trigger_code(ReselectTrigger::Retract);
        let plain = reselect_stream(&[code, 0]);
        let marked = reselect_stream(&[code | TRIGGER_RETIRED_CACHE_HIT, 0]);
        let expected = vec![Record {
            at: 0,
            event: Event::Reselect {
                trigger: ReselectTrigger::Retract,
            },
        }];
        assert_eq!(decode_timeline(&plain).unwrap(), expected);
        assert_eq!(decode_timeline(&marked).unwrap(), expected);
        assert_eq!(encode_all(&expected), plain);
    }

    #[test]
    fn a_retired_duration_decodes_dropped_and_re_encodes_as_zero() {
        let code = trigger_code(ReselectTrigger::Fault);
        // 12_345 ns as a two-byte varint, as a host-timed run wrote it.
        let timed = reselect_stream(&[code, 0xB9, 0x60]);
        let expected = vec![Record {
            at: 0,
            event: Event::Reselect {
                trigger: ReselectTrigger::Fault,
            },
        }];
        assert_eq!(decode_timeline(&timed).unwrap(), expected);
        assert_eq!(encode_all(&expected), reselect_stream(&[code, 0]));

        // The slot is still required, and still a varint.
        for fields in [&[code][..], &[code, 0x80]] {
            let e = decode_timeline(&reselect_stream(fields)).unwrap_err();
            assert!(e.message.contains("duration_ns"), "{e}");
        }
    }

    #[test]
    fn stream_decoder_handles_byte_by_byte_arrival() {
        let records = all_events();
        let bytes = encode_all(&records);
        let mut decoder = StreamDecoder::new();
        let mut out = Vec::new();
        for &b in &bytes {
            decoder.feed(&[b]);
            while let Some(r) = decoder.next_record().unwrap() {
                out.push(r);
            }
        }
        assert_eq!(out, records);
        assert_eq!(decoder.pending_bytes(), 0);
        assert_eq!(decoder.bytes_consumed(), bytes.len() as u64);
        assert!(decoder.header_seen());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for p in [0.1, 1.0 / 3.0, 5e-324, 1.797e308, 0.0, -0.0, f64::NAN] {
            let bytes = encode_all(&[Record {
                at: 7,
                event: Event::ForecastUpdated {
                    task: 0,
                    si: SiId(0),
                    probability: p,
                    expected_executions: p * 0.5,
                },
            }]);
            let mut sink = TimelineSink::new();
            replay(&bytes, &mut sink).unwrap();
            match &sink.timeline().entries()[0].event {
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
    fn extreme_timestamps_and_ids_round_trip() {
        let records = vec![
            Record {
                at: u64::MAX,
                event: Event::PortStalled { until: u64::MAX },
            },
            Record {
                at: 0,
                event: Event::SiExecuted {
                    task: u32::MAX,
                    si: SiId(usize::MAX),
                    hw: false,
                    cycles: u64::MAX,
                    molecule: None,
                },
            },
            Record {
                at: u64::MAX / 2,
                event: Event::UpgradeStep {
                    si: SiId(0),
                    task: Some(u32::MAX),
                    step: u32::MAX,
                    molecule: Molecule::from_counts([u32::MAX, 0]),
                },
            },
        ];
        let bytes = encode_all(&records);
        let mut sink = TimelineSink::new();
        replay(&bytes, &mut sink).unwrap();
        assert_eq!(sink.timeline().entries(), records.as_slice());
    }

    #[test]
    fn flush_batches_writes() {
        // A writer that counts write calls: batched emission must reach
        // it far fewer times than there are events.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = BinarySink::new(Counting {
            writes: 0,
            bytes: Vec::new(),
        });
        let record = Record {
            at: 1,
            event: Event::ForecastRetracted {
                task: 0,
                si: SiId(0),
            },
        };
        let n = 10_000;
        for _ in 0..n {
            sink.emit(record.at, &record.event);
        }
        let counting = sink.into_inner();
        assert!(
            counting.writes < n / 100,
            "{} writes for {n} events",
            counting.writes
        );
        let mut out = TimelineSink::new();
        replay(&counting.bytes, &mut out).unwrap();
        assert_eq!(out.timeline().len(), n);
    }

    #[test]
    fn drop_flushes_buffered_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        {
            let mut sink = BinarySink::new(shared.clone());
            sink.emit(
                3,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(1),
                },
            );
        }
        let bytes = shared.0.borrow().clone();
        let mut out = TimelineSink::new();
        replay(&bytes, &mut out).unwrap();
        assert_eq!(out.timeline().len(), 1);
    }

    /// Walks a valid stream record by record with the general decoder,
    /// offering each record to the fixed-layout path first with the same
    /// state. An accepted record must decode exactly as the general path
    /// decodes it, to the same length, leaving `last_at` and the intern
    /// table as the general path leaves them; a declined one must leave
    /// `last_at` untouched. Returns how many records were accepted.
    fn fixed_path_agreements(bytes: &[u8]) -> usize {
        let (_, mut pos) = peek_varint(bytes, MAGIC.len(), 0).unwrap().unwrap();
        let (mut last_at, mut table) = (0u64, Vec::new());
        let mut accepted = 0;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            let mut fast_at = last_at;
            let fast = decode_fixed_si_executed(rest, &mut fast_at, &table);
            let (at_before, table_before) = (last_at, table.clone());
            let (len, body_start) = peek_varint(rest, 0, pos as u64).unwrap().unwrap();
            let end = body_start + len as usize;
            let record =
                decode_body(&rest[body_start..end], pos as u64, &mut last_at, &mut table).unwrap();
            match fast {
                Some((fast_record, n)) => {
                    assert_eq!(fast_record, record, "record at offset {pos}");
                    assert_eq!(n, end, "length at offset {pos}");
                    assert_eq!(fast_at, last_at, "last_at at offset {pos}");
                    assert_eq!(table, table_before, "intern table at offset {pos}");
                    accepted += 1;
                }
                None => assert_eq!(fast_at, at_before, "declined at offset {pos}"),
            }
            pos += end;
        }
        accepted
    }

    #[test]
    fn fixed_layout_path_agrees_with_the_general_decoder() {
        // Captured by `tests/fleet.rs::decoder_fixtures_equal_fresh_captures`.
        let live_codec: &[u8] = include_bytes!("../tests/data/live_codec.bin");
        let stress: &[u8] = include_bytes!("../tests/data/stress.bin");
        let all = encode_all(&all_events());
        // Both interned executions of `all_events` fit the fixed layout
        // (the first one introduces its Molecule, so it does not).
        assert_eq!(fixed_path_agreements(&all), 2);
        for (name, bytes) in [("live_codec", live_codec), ("stress", stress)] {
            let mut records = TimelineSink::new();
            replay(bytes, &mut records).unwrap();
            let accepted = fixed_path_agreements(bytes);
            assert!(
                accepted > 0 && accepted < records.timeline().len(),
                "{name}: {accepted} of {} records took the fixed layout",
                records.timeline().len()
            );
        }
    }

    /// A stream of `n` executions, each interning a new Molecule.
    fn stream_interning(n: u32) -> Vec<u8> {
        let records: Vec<Record> = (0..n)
            .map(|k| Record {
                at: 5,
                event: Event::SiExecuted {
                    task: 0,
                    si: SiId(0),
                    hw: true,
                    cycles: 3,
                    molecule: Some(Molecule::from_counts([k, 1])),
                },
            })
            .collect();
        encode_all(&records)
    }

    #[test]
    fn malformed_fixed_size_bodies_fail_as_the_general_path_reports() {
        // 9- and 10-byte records shaped like the fixed layout, each with
        // one defect, after a stream that interned `n` Molecules (so
        // index `n` is the table length).
        let cases: [(u32, &[u8], &str); 11] = [
            (
                1,
                &[8, 7, 0x81, 0, 0b100, 0, 0, 0x81, 0],
                "unknown si_executed flags 0x4",
            ),
            (
                1,
                &[9, 7, 0x81, 0, 0b10, 0, 0, 0x81, 0, 1],
                "truncated or malformed molecule length",
            ),
            (
                1,
                &[9, 7, 0x81, 0, 0b10, 0, 0, 0x81, 0, 5],
                "molecule index 5 skips ahead of the intern table (len 1)",
            ),
            (
                1,
                &[9, 7, 0x81, 0, 0b01, 0, 0, 0x81, 0, 0],
                "1 trailing bytes after record body",
            ),
            (
                1,
                &[8, 7, 0x81, 0, 0b11, 0, 0, 0x81, 0],
                "truncated or malformed molecule index",
            ),
            // An index byte that continues, even where the table is long
            // enough to hold its low bits.
            (
                0x81,
                &[9, 7, 0x81, 0, 0b10, 0, 0, 0x81, 0, 0x80],
                "truncated or malformed molecule index",
            ),
            // Varints that end early or run on.
            (
                1,
                &[8, 7, 0x01, 0, 0, 0, 0, 0x81, 0],
                "2 trailing bytes after record body",
            ),
            (
                1,
                &[8, 7, 0x81, 0x81, 0, 0, 0, 0x81, 0],
                "truncated or malformed cycles",
            ),
            (
                1,
                &[8, 7, 0x81, 0, 0, 0x80, 0, 0x81, 0],
                "truncated or malformed cycles",
            ),
            (
                1,
                &[8, 7, 0x81, 0, 0, 0, 0, 0x81, 0x81],
                "truncated or malformed cycles",
            ),
            // Not the execution tag.
            (
                1,
                &[8, 8, 0x81, 0, 0, 0, 0, 0x81, 0],
                "truncated or malformed probability",
            ),
        ];
        for (n, record, message) in cases {
            let mut bytes = stream_interning(n);
            let offset = bytes.len() as u64;
            bytes.extend_from_slice(record);
            let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
            assert_eq!(e, err(offset, message), "record {record:?}");
        }
    }

    /// A header, then `prefix` as a record length, then `tail` zero bytes.
    fn oversized(prefix: u64, tail: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        put_varint(&mut bytes, prefix);
        bytes.resize(bytes.len() + tail, 0);
        bytes
    }

    #[test]
    fn oversized_length_prefixes_fail_at_the_record_offset() {
        let header_len = (MAGIC.len() + 1) as u64;
        for prefix in [u64::MAX, 1 << 40, MAX_RECORD_BYTES as u64 + 1] {
            let bytes = oversized(prefix, 4 << 20);
            let expected = err(
                header_len,
                format!("record length {prefix} exceeds the {MAX_RECORD_BYTES}-byte limit"),
            );

            // Fed as a follower feeds it: the error comes with the first
            // chunk, so nothing past the prefix is ever buffered.
            let mut decoder = StreamDecoder::new();
            let mut chunks = bytes.chunks(8 * 1024);
            decoder.feed(chunks.next().unwrap());
            assert_eq!(decoder.next_record(), Err(expected.clone()));
            assert!(decoder.pending_bytes() <= 8 * 1024);

            assert_eq!(
                replay(&bytes, &mut TimelineSink::new()),
                Err(expected.clone())
            );

            let e = BinaryReader::new(&bytes[..])
                .find_map(Result::err)
                .expect("reader fails");
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            let inner = e.get_ref().and_then(|e| e.downcast_ref::<BinError>());
            assert_eq!(inner, Some(&expected));
        }
        // A prefix at the limit is merely incomplete.
        let mut decoder = StreamDecoder::new();
        decoder.feed(&oversized(MAX_RECORD_BYTES as u64, 64));
        assert_eq!(decoder.next_record(), Ok(None));
    }

    #[test]
    fn the_widest_molecule_fits_the_record_limit() {
        let records = vec![Record {
            at: u64::MAX,
            event: Event::SiExecuted {
                task: u32::MAX,
                si: SiId(usize::MAX),
                hw: true,
                cycles: u64::MAX,
                molecule: Some(Molecule::from_counts(vec![u32::MAX; MAX_MOLECULE_KINDS])),
            },
        }];
        let bytes = encode_all(&records);
        let mut out = TimelineSink::new();
        replay(&bytes, &mut out).unwrap();
        assert_eq!(out.timeline().entries(), records.as_slice());
    }

    #[test]
    #[should_panic(expected = "exceeds the binary format")]
    fn the_encoder_refuses_a_wider_molecule() {
        encode_all(&[Record {
            at: 0,
            event: Event::UpgradeStep {
                si: SiId(0),
                task: None,
                step: 0,
                molecule: Molecule::from_counts(vec![0; MAX_MOLECULE_KINDS + 1]),
            },
        }]);
    }
}
