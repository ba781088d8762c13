//! The traced run's instruments: sampled spans around the calls into
//! each layer's public functions, and a loop that re-runs a
//! simulation shard through those functions with spans around them.
//!
//! Spans live in the benchmark, never in the program. One span costs
//! two `Instant::now()` reads (~120 ns together on a 2-core VM), against
//! ~400 ns of host work per SI on `codec`, so the two hottest calls,
//! `execute_si` and `advance_to`, are timed on one call in
//! [`SAMPLE_PERIOD`] and scaled by calls ÷ sampled calls. The measured
//! cost of an empty span is subtracted from every timed span.
//!
//! The live sinks are not timed in place: a sink emit takes 20–50 ns,
//! less than a timer read. The loop instead hands the manager a
//! recorder, then replays the recorded stream through the sinks
//! [`ShardSpec::run`] would have attached, in one timed batch per sink
//! group. Sinks never feed back into decisions, so the shard's outcome
//! is the one `ShardSpec::run` reports; `trace_shard` returns it so the
//! caller can check that.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp::core::forecast::ForecastValue;
use rispp::core::si::SiId;
use rispp::h264::block::Plane;
use rispp::h264::encoder::{
    encode_macroblock_into, EncoderConfig, SiInvocationCounts, HW_DISPATCH_OVERHEAD,
    PLAIN_CYCLES_PER_MB,
};
use rispp::h264::entropy::BitWriter;
use rispp::h264::si_library::build_library;
use rispp::h264::video::SyntheticVideo;
use rispp::obs::{
    BinarySink, CountersSink, Event, EventSink, MetricsSink, MetricsSummary, SinkHandle,
};
use rispp::rt::manager::RisppManager;
use rispp::sim::{h264_fabric, random_platform, Scenario, ShardSpec, SinkSpec, StressTotals};

use crate::fleet::ShardFacts;

/// One call in this many of [`Span::ExecuteSi`] and [`Span::AdvanceTo`]
/// is timed.
pub const SAMPLE_PERIOD: u64 = 8;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `sim`: platform, library, manager and video construction.
    ShardSetup,
    /// `h264`: `encode_macroblock_into`.
    EncodeMb,
    /// `rt`: `RisppManager::execute_si`.
    ExecuteSi,
    /// `rt`: `RisppManager::advance_to`.
    AdvanceTo,
    /// `rt`: `RisppManager::forecast`.
    Forecast,
    /// `rt`: `RisppManager::retract_forecast`.
    RetractForecast,
    /// `rt`: `RisppManager::forecast_block`.
    ForecastBlock,
    /// `obs`: the live sinks (counting, metrics, counters) folding a
    /// shard's stream.
    Emit,
    /// `obs`: `BinarySink` encoding a shard's stream.
    BinEncode,
    /// `obs`: `StreamDecoder` decoding a log.
    BinDecode,
    /// `obs`: metrics and window sinks folding a decoded log.
    Fold,
    /// `serve`: `poll_fleet`.
    Poll,
    /// `serve`: `FleetState::render_metrics`.
    RenderMetrics,
}

impl Span {
    const COUNT: usize = Span::RenderMetrics as usize + 1;

    fn period(self) -> u64 {
        match self {
            Span::ExecuteSi | Span::AdvanceTo => SAMPLE_PERIOD,
            _ => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SpanStat {
    calls: u64,
    sampled: u64,
    timer_pairs: u64,
    ns: u64,
}

/// Per-span call counts and sampled host time.
#[derive(Debug, Clone)]
pub struct Tracer {
    stats: [SpanStat; Span::COUNT],
    /// Median measured duration of an empty span, in ns.
    timer_ns: f64,
    /// The recorder's buffer, kept between shards so recording does not
    /// reallocate inside the timed calls.
    buffer: Vec<(u64, Event)>,
}

impl Tracer {
    /// An empty tracer, with the cost of an empty span measured.
    #[must_use]
    pub fn new() -> Self {
        let mut empty: Vec<f64> = (0..4001)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(());
                t.elapsed().as_nanos() as f64
            })
            .collect();
        empty.sort_by(f64::total_cmp);
        Tracer {
            stats: [SpanStat::default(); Span::COUNT],
            timer_ns: empty[empty.len() / 2],
            buffer: Vec::new(),
        }
    }

    /// Runs `f` as one call of `span`, timing it when the call is
    /// sampled.
    #[inline]
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        let stat = &mut self.stats[span as usize];
        let sampled = stat.calls.is_multiple_of(span.period());
        stat.calls += 1;
        if !sampled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        stat.ns += t.elapsed().as_nanos() as u64;
        stat.sampled += 1;
        stat.timer_pairs += 1;
        out
    }

    /// Records `calls` calls of `span` that one timer pair measured
    /// together as `elapsed`.
    pub fn add(&mut self, span: Span, elapsed: Duration, calls: u64) {
        let stat = &mut self.stats[span as usize];
        stat.calls += calls;
        stat.sampled += calls;
        stat.timer_pairs += 1;
        stat.ns += elapsed.as_nanos() as u64;
    }

    /// Calls of `span` so far.
    #[must_use]
    pub fn calls(&self, span: Span) -> u64 {
        self.stats[span as usize].calls
    }

    /// Estimated host milliseconds spent in `span`: the sampled time,
    /// less the empty-span cost per timer pair, scaled to every call.
    #[must_use]
    pub fn ms(&self, span: Span) -> f64 {
        let s = self.stats[span as usize];
        if s.sampled == 0 {
            return 0.0;
        }
        let measured = s.ns as f64 - s.timer_pairs as f64 * self.timer_ns;
        measured * s.calls as f64 / s.sampled as f64 / 1e6
    }
}

/// What a traced shard produced.
#[derive(Debug, Default)]
pub struct ShardTrace {
    /// Decision-identity facts, comparable with [`ShardFacts::of`].
    pub facts: ShardFacts,
    /// Events emitted.
    pub events: u64,
    /// The live metrics summary.
    pub summary: MetricsSummary,
    /// Bytes of the binary capture (0 without one).
    pub bin_bytes: u64,
    /// Rotations whose bitstream failed to load.
    pub rotations_failed: u64,
    /// Bitstream bytes of all requested rotations.
    pub rotation_bytes: u64,
    /// Selection re-evaluations.
    pub reselects: u64,
    /// Selection-cache hits.
    pub cache_hits: u64,
    /// Selection-cache misses.
    pub cache_misses: u64,
}

/// Keeps every event for the replay through the live sinks.
struct Recorder(Vec<(u64, Event)>);

impl Recorder {
    /// A recorder over the tracer's spare buffer.
    fn over(tracer: &mut Tracer) -> Rc<RefCell<Self>> {
        let mut buffer = std::mem::take(&mut tracer.buffer);
        buffer.clear();
        Rc::new(RefCell::new(Recorder(buffer)))
    }
}

impl EventSink for Recorder {
    fn emit(&mut self, at: u64, event: &Event) {
        self.0.push((at, event.clone()));
    }
}

/// Counts events, as `ShardSpec`'s own counting sink does.
#[derive(Default)]
struct EventCount(u64);

impl EventSink for EventCount {
    fn emit(&mut self, _at: u64, _event: &Event) {
        self.0 += 1;
    }
}

fn shared<S: EventSink + 'static>(sink: &Rc<RefCell<S>>) -> SinkHandle {
    SinkHandle::shared(sink.clone())
}

/// Re-runs `spec` through the layers' public functions with spans
/// around each call.
///
/// # Panics
///
/// Panics for a spec the benchmark's workloads never build: anything
/// but default settings with binary capture on a codec shard and the
/// metrics sinks on a stress shard.
#[must_use]
pub fn trace_shard(spec: &ShardSpec, tracer: &mut Tracer) -> ShardTrace {
    let sink = match spec.scenario {
        Scenario::LiveCodec { .. } => SinkSpec::Binary,
        _ => SinkSpec::Metrics,
    };
    assert!(
        *spec == ShardSpec::new(spec.scenario, spec.seed).with_sink(sink),
        "the traced loop covers the benchmark's shard specs only"
    );
    match spec.scenario {
        Scenario::LiveCodec {
            width,
            height,
            frames,
            containers,
        } => trace_codec(spec.seed, width, height, frames, containers, tracer),
        Scenario::Stress { platforms, steps } => trace_stress(spec.seed, platforms, steps, tracer),
        Scenario::Fig6 => panic!("fig6 is not a benchmark workload"),
    }
}

/// `ShardSpec::run` of a live-codec spec, call for call.
fn trace_codec(
    seed: u64,
    width: usize,
    height: usize,
    frames: usize,
    containers: usize,
    tracer: &mut Tracer,
) -> ShardTrace {
    let recorder = Recorder::over(tracer);
    let (sis, mut mgr, mut video, mut reference) = tracer.time(Span::ShardSetup, || {
        let (lib, sis) = build_library();
        let mgr = RisppManager::builder(lib, h264_fabric(containers))
            .deterministic_timing(true)
            .sink(shared(&recorder))
            .build();
        let mut video = SyntheticVideo::new(width, height, seed);
        let reference = video.next_frame();
        (sis, mgr, video, reference)
    });
    let config = EncoderConfig::default();
    let mbs = (width / 16) * (height / 16);
    let per_mb = SiInvocationCounts::per_macroblock();
    let (mut bits, mut psnr_sum, mut hw, mut total_si) = (0u64, 0.0f64, 0u64, 0u64);
    for _ in 0..frames {
        let current = tracer.time(Span::ShardSetup, || video.next_frame());
        let block: Vec<ForecastValue> = [
            (sis.satd_4x4, per_mb.satd_4x4),
            (sis.dct_4x4, per_mb.dct_4x4),
            (sis.ht_4x4, per_mb.ht_4x4),
            (sis.ht_2x2, per_mb.ht_2x2),
        ]
        .into_iter()
        .map(|(si, n)| ForecastValue::new(si, 1.0, 300_000.0, (n * mbs as u64) as f64))
        .collect();
        tracer.time(Span::ForecastBlock, || mgr.forecast_block(0, block));
        let mut recon = Plane::filled(width, height, 128);
        let mut writer = BitWriter::new();
        let mut sse = 0u64;
        for my in 0..height / 16 {
            for mx in 0..width / 16 {
                let r = tracer.time(Span::EncodeMb, || {
                    encode_macroblock_into(
                        &mut writer,
                        &current,
                        &reference,
                        &mut recon,
                        mx,
                        my,
                        &config,
                    )
                });
                sse += r.luma_sse;
                bits += r.bits as u64;
                for (si, n) in [
                    (sis.satd_4x4, r.counts.satd_4x4),
                    (sis.dct_4x4, r.counts.dct_4x4),
                    (sis.ht_4x4, r.counts.ht_4x4),
                    (sis.ht_2x2, r.counts.ht_2x2),
                    (sis.sad_4x4, r.counts.sad_4x4),
                ] {
                    for _ in 0..n {
                        let rec = tracer.time(Span::ExecuteSi, || mgr.execute_si(0, si));
                        total_si += 1;
                        hw += u64::from(rec.hardware);
                        let overhead = if rec.hardware {
                            HW_DISPATCH_OVERHEAD
                        } else {
                            0
                        };
                        let t = mgr.now() + rec.cycles + overhead;
                        tracer
                            .time(Span::AdvanceTo, || mgr.advance_to(t))
                            .expect("monotone time");
                    }
                }
                let t = mgr.now() + PLAIN_CYCLES_PER_MB;
                tracer
                    .time(Span::AdvanceTo, || mgr.advance_to(t))
                    .expect("monotone time");
            }
        }
        let mse = sse as f64 / (width * height) as f64;
        psnr_sum += if mse > 0.0 {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        } else {
            99.0
        };
        let mut next_ref = current.clone();
        next_ref.y = recon;
        reference = next_ref;
    }
    let total_cycles = mgr.now();
    let (cache_hits, cache_misses, invalidations) = mgr.selection_cache_stats();
    let mut trace = ShardTrace {
        rotation_bytes: mgr.rotation_bytes(),
        reselects: mgr.reselects(),
        cache_hits,
        cache_misses,
        ..ShardTrace::default()
    };
    let rotations_requested = mgr.rotations_requested();
    drop(mgr);
    let events = std::mem::take(&mut recorder.borrow_mut().0);

    let count = Rc::new(RefCell::new(EventCount::default()));
    let metrics = Rc::new(RefCell::new(MetricsSink::new().with_containers(containers)));
    let counters = Rc::new(RefCell::new(CountersSink::new()));
    let live = SinkHandle::tee(
        SinkHandle::tee(shared(&count), shared(&metrics)),
        shared(&counters),
    );
    let t = Instant::now();
    for (at, event) in &events {
        live.emit(*at, event);
    }
    let mut m = metrics.borrow_mut();
    m.advance_to(total_cycles);
    m.finish();
    m.note_selection_cache_invalidations(invalidations);
    trace.summary = m.summary();
    trace.rotations_failed = m.rotations_failed();
    drop(m);
    tracer.add(Span::Emit, t.elapsed(), events.len() as u64);
    trace.bin_bytes = encode_binary(tracer, &events);
    tracer.buffer = events;
    trace.events = count.borrow().0;
    trace.facts = ShardFacts {
        executions: total_si,
        hw_executions: hw,
        rotations_requested,
        rotations_completed: trace.summary.rotations_completed,
        sim_cycles: total_cycles,
        bits,
        psnr_bits: (psnr_sum / frames as f64).to_bits(),
        stress: None,
    };
    trace
}

/// Encodes `events` through a `BinarySink`, timed as one batch; returns
/// the bytes written.
fn encode_binary(tracer: &mut Tracer, events: &[(u64, Event)]) -> u64 {
    let sink = Rc::new(RefCell::new(BinarySink::new(Vec::new())));
    let handle = shared(&sink);
    let t = Instant::now();
    for (at, event) in events {
        handle.emit(*at, event);
    }
    drop(handle);
    let bytes = Rc::try_unwrap(sink)
        .expect("the replay dropped its handle")
        .into_inner()
        .into_inner();
    tracer.add(Span::BinEncode, t.elapsed(), events.len() as u64);
    bytes.len() as u64
}

/// `ShardSpec::run` of a stress spec, call for call: the same RNG draws
/// in the same order, per platform.
fn trace_stress(seed: u64, platforms: u64, steps: u32, tracer: &mut Tracer) -> ShardTrace {
    let recorder = Recorder::over(tracer);
    let count = Rc::new(RefCell::new(EventCount::default()));
    let metrics = Rc::new(RefCell::new(MetricsSink::new()));
    let mut merged: Option<CountersSink> = None;
    let mut totals = StressTotals::default();
    let mut trace = ShardTrace::default();
    let (mut sim_cycles, mut invalidations) = (0u64, 0u64);
    let mut stream = Vec::with_capacity(recorder.borrow().0.capacity());
    for platform in 0..platforms {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(platform));
        let (lib_len, mut mgr) = tracer.time(Span::ShardSetup, || {
            let (lib, fabric) = random_platform(&mut rng);
            let len = lib.len();
            let mgr = RisppManager::builder(lib, fabric)
                .deterministic_timing(true)
                .sink(shared(&recorder))
                .build();
            (len, mgr)
        });
        for _ in 0..steps {
            let si = SiId(rng.gen_range(0..lib_len));
            match rng.gen_range(0..10) {
                0..=2 => {
                    let task = rng.gen_range(0..3);
                    let value = ForecastValue::new(
                        si,
                        rng.gen_range(0.05..1.0),
                        rng.gen_range(1_000.0..1_000_000.0),
                        rng.gen_range(1.0..500.0),
                    );
                    tracer.time(Span::Forecast, || mgr.forecast(task, value));
                    totals.forecasts += 1;
                }
                3 => {
                    let task = rng.gen_range(0..3);
                    tracer.time(Span::RetractForecast, || mgr.retract_forecast(task, si));
                    totals.retractions += 1;
                }
                4..=7 => {
                    let task = rng.gen_range(0..3);
                    let rec = tracer.time(Span::ExecuteSi, || mgr.execute_si(task, si));
                    totals.executions += 1;
                    totals.hw_executions += u64::from(rec.hardware);
                }
                _ => {
                    let t = mgr.now() + rng.gen_range(1..200_000u64);
                    tracer
                        .time(Span::AdvanceTo, || mgr.advance_to(t))
                        .expect("monotone time");
                }
            }
        }
        totals.rotations_requested += mgr.rotations_requested();
        sim_cycles += mgr.now();
        let (hits, misses, inv) = mgr.selection_cache_stats();
        invalidations += inv;
        trace.cache_hits += hits;
        trace.cache_misses += misses;
        trace.reselects += mgr.reselects();
        trace.rotation_bytes += mgr.rotation_bytes();
        drop(mgr);
        std::mem::swap(&mut stream, &mut recorder.borrow_mut().0);

        let counters = Rc::new(RefCell::new(CountersSink::new()));
        let live = SinkHandle::tee(
            SinkHandle::tee(shared(&count), shared(&metrics)),
            shared(&counters),
        );
        let t = Instant::now();
        for (at, event) in &stream {
            live.emit(*at, event);
        }
        drop(live);
        let counters = Rc::try_unwrap(counters)
            .expect("the replay dropped its handle")
            .into_inner();
        match &mut merged {
            Some(m) => m.merge(&counters),
            None => merged = Some(counters),
        }
        tracer.add(Span::Emit, t.elapsed(), stream.len() as u64);
        stream.clear();
    }
    let t = Instant::now();
    let mut m = metrics.borrow_mut();
    m.finish();
    m.note_selection_cache_invalidations(invalidations);
    trace.summary = m.summary();
    trace.rotations_failed = m.rotations_failed();
    drop(m);
    tracer.add(Span::Emit, t.elapsed(), 0);
    tracer.buffer = stream;
    trace.events = count.borrow().0;
    trace.facts = ShardFacts {
        executions: totals.executions,
        hw_executions: totals.hw_executions,
        rotations_requested: totals.rotations_requested,
        rotations_completed: trace.summary.rotations_completed,
        sim_cycles,
        bits: 0,
        psnr_bits: 0,
        stress: Some(totals),
    };
    trace
}
