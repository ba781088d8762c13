//! The `ingest` workload: the read side of `obs` as `rispp_serve` runs
//! it. Set-up captures binary logs of `codec` and `stress` shards; each
//! timed session writes them into files one writer flush at a time,
//! runs `serve::poll_fleet` over one `Follower` per file after every
//! round of appends, and renders `/metrics` once per scrape interval.
//!
//! The session models `rispp_serve` with its default options, scraped
//! every [`SCRAPE_MS`], following logs that each grow by one writer
//! flush between two polls. Which of these values come from the
//! program and which are choices is set out in `README.md`.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rispp::obs::bin::{self, StreamDecoder};
use rispp::obs::window::WindowSink;
use rispp::obs::{EventSink, MetricsSink, MetricsSummary};
use rispp::sim::{ShardSpec, SinkSpec};
use rispp_bench::serve::{poll_fleet, FleetState, Follower, ServeOptions};

use crate::fleet::{ShardFacts, SimWorkload};

/// Codec shards captured (shards `0..CODEC_LOGS` of the codec fleet).
/// A choice: no documented deployment serves codec logs.
pub const CODEC_LOGS: u32 = 2;
/// Stress shards captured (shards `0..STRESS_LOGS` of the stress
/// fleet): the fleet of the repository README's `rispp_serve`
/// quickstart, `fleet_bench --shards 4 --scenario stress`.
pub const STRESS_LOGS: u32 = 4;
/// Bytes appended to each log per round: one writer flush. A
/// `BinarySink` writes its buffer out once it holds 8 KiB
/// (`FLUSH_THRESHOLD` in `rispp-obs`), so a follower never sees a
/// smaller append.
pub const CHUNK_BYTES: usize = 8 * 1024;
/// The scrape interval of the model, 15 s, as in Prometheus's example
/// configuration.
pub const SCRAPE_MS: u64 = 15_000;

/// Polls between two `/metrics` renders: one scrape interval of polls
/// at `rispp_serve`'s default poll interval.
#[must_use]
pub fn render_every() -> u64 {
    SCRAPE_MS / ServeOptions::default().poll_ms.max(1)
}

/// One captured shard log and what the capture saw.
pub struct CapturedLog {
    /// The workload the shard belongs to.
    pub workload: SimWorkload,
    /// The shard's index in that workload's fleet.
    pub shard: u32,
    /// The shard's spec.
    pub spec: ShardSpec,
    /// The binary event log.
    pub bytes: Vec<u8>,
    /// Records the capture emitted.
    pub records: u64,
    /// The capture's live metrics summary.
    pub live: MetricsSummary,
    /// The capture-time fold of the stream, configured as
    /// `rispp_serve` folds it (`containers = 0`).
    pub fold: Result<MetricsSummary, String>,
    /// The shard's decision-identity facts.
    pub facts: ShardFacts,
}

/// Folds a binary log through a fresh metrics sink.
///
/// # Errors
///
/// The decoder's error when the log does not decode.
pub fn fold_log(bytes: &[u8], mut sink: MetricsSink) -> Result<MetricsSummary, String> {
    bin::replay(bytes, &mut sink).map_err(|e| e.to_string())?;
    sink.finish();
    Ok(sink.summary())
}

/// Captures the ingest workload's logs for `seed`.
#[must_use]
pub fn capture(seed: u64) -> Vec<CapturedLog> {
    let shards = [
        (SimWorkload::Codec, CODEC_LOGS),
        (SimWorkload::Stress, STRESS_LOGS),
    ];
    let mut logs = Vec::new();
    for (workload, count) in shards {
        let (specs, _) = workload.fleet(seed, count);
        for (shard, spec) in (0..).zip(specs) {
            let out = spec.clone().with_sink(SinkSpec::Binary).run();
            let bytes = out.binary.clone().unwrap_or_default();
            logs.push(CapturedLog {
                workload,
                shard,
                spec,
                fold: fold_log(&bytes, MetricsSink::new()),
                bytes,
                records: out.events,
                live: out.summary,
                facts: ShardFacts::of(&out),
            });
        }
    }
    logs
}

/// What one session measured and folded.
pub struct Session {
    /// Host time of each `poll_fleet` call, in call order.
    pub polls: Vec<Duration>,
    /// Host time of each `render_metrics` call, in call order.
    pub renders: Vec<Duration>,
    /// Wall time of the whole session, appends included.
    pub wall: Duration,
    /// Records folded per log.
    pub records: Vec<u64>,
    /// Settled summary per log.
    pub summaries: Vec<MetricsSummary>,
    /// Decode error per log, if any.
    pub errors: Vec<Option<String>>,
    /// The fleet aggregate summary.
    pub aggregate: MetricsSummary,
}

impl Session {
    /// Host time inside `poll_fleet`.
    #[must_use]
    pub fn poll(&self) -> Duration {
        self.polls.iter().sum()
    }

    /// Host time inside `render_metrics`.
    #[must_use]
    pub fn render(&self) -> Duration {
        self.renders.iter().sum()
    }

    /// Why log `i` failed its checks against its capture, if it did:
    /// records folded must equal records captured, and the fold must
    /// equal the capture-time fold of the same stream.
    #[must_use]
    pub fn failures(&self, i: usize, log: &CapturedLog) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(e) = &self.errors[i] {
            failures.push(format!("decode error: {e}"));
        }
        if self.records[i] != log.records {
            failures.push(format!(
                "folded {} records, captured {}",
                self.records[i], log.records
            ));
        }
        match &log.fold {
            Ok(fold) if *fold == self.summaries[i] => {}
            Ok(_) => failures.push("fold differs from the capture-time fold".to_string()),
            Err(e) => failures.push(format!("capture does not decode: {e}")),
        }
        failures
    }
}

/// The session files of one benchmark process, removed on drop.
pub struct LogDir(PathBuf);

impl LogDir {
    /// Creates `.bench_ingest/<pid>` under the working directory.
    ///
    /// # Errors
    ///
    /// The error creating the directory.
    pub fn create() -> io::Result<Self> {
        let dir = Path::new(".bench_ingest").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(LogDir(dir))
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// One closed-loop session over `logs`: truncate every file, then
/// append a chunk to each unfinished log, poll the fleet, and render
/// every [`render_every`] polls, until every log is written; then
/// render once more. With `time_calls` off the session reads no clock
/// per call and leaves [`Session::polls`] and [`Session::renders`]
/// empty.
///
/// # Errors
///
/// I/O errors writing the session files.
pub fn run_session(dir: &LogDir, logs: &[CapturedLog], time_calls: bool) -> io::Result<Session> {
    let paths: Vec<PathBuf> = (0..logs.len())
        .map(|i| dir.0.join(format!("shard-{i}.bin")))
        .collect();
    let mut files = paths
        .iter()
        .map(File::create)
        .collect::<io::Result<Vec<_>>>()?;
    let mut followers: Vec<Follower> = paths.iter().map(Follower::new).collect();
    let options = ServeOptions::default();
    let state = Mutex::new(FleetState::new(
        paths,
        options.containers,
        options.window,
        None,
    ));
    let render_every = render_every();
    let mut offsets = vec![0usize; logs.len()];
    let (mut polls, mut renders) = (Vec::new(), Vec::new());
    let render_once = |renders: &mut Vec<Duration>| {
        let text = timed(time_calls, renders, || {
            state.lock().expect("fleet state lock").render_metrics()
        });
        std::hint::black_box(text);
    };
    let mut rounds = 0u64;
    let wall = Instant::now();
    loop {
        let mut appended = false;
        for ((file, log), offset) in files.iter_mut().zip(logs).zip(&mut offsets) {
            if *offset < log.bytes.len() {
                let end = (*offset + CHUNK_BYTES).min(log.bytes.len());
                file.write_all(&log.bytes[*offset..end])?;
                *offset = end;
                appended = true;
            }
        }
        if !appended {
            break;
        }
        let fresh = timed(time_calls, &mut polls, || {
            poll_fleet(&mut followers, &state)
        });
        std::hint::black_box(fresh);
        rounds += 1;
        if rounds.is_multiple_of(render_every) {
            render_once(&mut renders);
        }
    }
    render_once(&mut renders);
    let wall = wall.elapsed();
    let state = state.into_inner().expect("fleet state lock");
    Ok(Session {
        polls,
        renders,
        wall,
        records: state.shards.iter().map(|s| s.records).collect(),
        summaries: state
            .shards
            .iter()
            .map(|s| s.settled_metrics().summary())
            .collect(),
        errors: state.shards.iter().map(|s| s.error.clone()).collect(),
        aggregate: state.aggregates().0,
    })
}

/// Runs `call`, appending its host time to `calls` if `time_calls`.
fn timed<T>(time_calls: bool, calls: &mut Vec<Duration>, call: impl FnOnce() -> T) -> T {
    if !time_calls {
        return call();
    }
    let t = Instant::now();
    let out = call();
    calls.push(t.elapsed());
    out
}

/// Decode and fold costs of `logs`, each replayed on its own in the
/// session's chunks: the decoder into nothing, then the decoded records
/// into the metrics and window sinks a `rispp_serve` shard folds into.
#[must_use]
pub fn decode_and_fold(logs: &[CapturedLog]) -> (Duration, Duration) {
    let (mut decode, mut fold) = (Duration::ZERO, Duration::ZERO);
    for log in logs {
        let mut records = Vec::new();
        let t = Instant::now();
        let mut decoder = StreamDecoder::new();
        for chunk in log.bytes.chunks(CHUNK_BYTES) {
            decoder.feed(chunk);
            while let Ok(Some(record)) = decoder.next_record() {
                records.push(record);
            }
        }
        decode += t.elapsed();
        let mut metrics = MetricsSink::new();
        let mut window = WindowSink::new(ServeOptions::default().window);
        let t = Instant::now();
        for record in &records {
            metrics.emit(record.at, &record.event);
            window.emit(record.at, &record.event);
        }
        fold += t.elapsed();
        std::hint::black_box((metrics, window));
    }
    (decode, fold)
}
