//! The unified scenario construction API: one [`ShardSpec`] describes a
//! runnable simulation shard — scenario id, seed, power mode, fault plan,
//! sink choice — and [`ShardSpec::run`] turns it into a [`ShardOutcome`]
//! of plain, `Send` data.
//!
//! Before this module existed, every scenario binary (fig06, stress,
//! live_codec, chaos_soak) and the bench harness hand-wired its own
//! fabric + builder + workload block; the fleet layer ([`crate::fleet`])
//! made that untenable — a shard must be constructible from a value so
//! thousands of them can be spawned from derived seeds and replayed
//! bit-exactly standalone. Everything an outcome carries is owned data
//! (summaries, histograms, timelines, JSONL text), so outcomes can cross
//! threads even though the live [`Engine`] cannot.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp_core::atom::{AtomKind, AtomSet};
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::fabric::Fabric;
use rispp_fabric::FaultPlan;
use rispp_h264::encoder::EncoderConfig;
use rispp_h264::si_library::H264Sis;
use rispp_obs::{
    BinarySink, CountersSink, Event, EventSink, JsonlSink, LatencyHistogram, MetricsSink,
    MetricsSummary, SinkHandle, Timeline, TimelineSink,
};
use rispp_rt::manager::RisppManager;
use rispp_rt::policy::LruSurplusPolicy;
use rispp_rt::selection::PowerMode;

use crate::codec_runner::{run_encoder_on_rispp_configured, CodecRunOutcome};
use crate::engine::Engine;
use crate::scenario::fig6_engine_configured;

/// Which reference workload a shard runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// The paper's Fig. 6 two-task scenario (deterministic; the seed only
    /// matters through a seeded fault plan).
    Fig6,
    /// Random platforms hammered through the full manager/fabric stack.
    /// Platform `i` of a shard with seed `s` draws its RNG from `s + i`,
    /// so the stress workloads of the pre-fleet harness (seed 0,
    /// platforms N) reproduce byte-identically.
    Stress {
        /// Independent random platforms to run.
        platforms: u64,
        /// Randomised manager operations per platform.
        steps: u32,
    },
    /// The real H.264 encoder running end-to-end on the RISPP platform.
    LiveCodec {
        /// Frame width in pixels (multiple of 16).
        width: usize,
        /// Frame height in pixels (multiple of 16).
        height: usize,
        /// Frames to encode.
        frames: usize,
        /// Atom Containers on the fabric.
        containers: usize,
    },
}

impl Scenario {
    /// The scenario ids [`Scenario::parse`] accepts.
    pub const IDS: [&'static str; 3] = ["fig6", "stress", "live_codec"];

    /// The stress scenario at harness sizes (`quick` = CI smoke).
    #[must_use]
    pub fn stress(quick: bool) -> Self {
        let (platforms, steps) = if quick { (10, 200) } else { (40, 400) };
        Scenario::Stress { platforms, steps }
    }

    /// The live-codec scenario at harness sizes (`quick` = CI smoke).
    #[must_use]
    pub fn live_codec(quick: bool) -> Self {
        Scenario::LiveCodec {
            width: 64,
            height: 48,
            frames: if quick { 2 } else { 4 },
            containers: 6,
        }
    }

    /// Parses a scenario id (`fig6`, `stress`, `live_codec`) at harness
    /// sizes.
    ///
    /// # Errors
    ///
    /// Returns the unknown id when it is not one of [`Scenario::IDS`].
    pub fn parse(id: &str, quick: bool) -> Result<Self, String> {
        match id {
            "fig06" | "fig6" => Ok(Scenario::Fig6),
            "stress" => Ok(Scenario::stress(quick)),
            "live_codec" => Ok(Scenario::live_codec(quick)),
            other => Err(format!(
                "unknown scenario {other:?} (expected one of {:?})",
                Scenario::IDS
            )),
        }
    }

    /// The scenario's canonical id.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            Scenario::Fig6 => "fig6",
            Scenario::Stress { .. } => "stress",
            Scenario::LiveCodec { .. } => "live_codec",
        }
    }

    /// Container count of the fabric this scenario builds (the stress
    /// scenario draws 0..=8 per platform; this is the upper bound).
    #[must_use]
    pub fn containers(&self) -> usize {
        match self {
            Scenario::Fig6 => 6,
            Scenario::Stress { .. } => 8,
            Scenario::LiveCodec { containers, .. } => *containers,
        }
    }
}

/// Which observability rides along with a shard run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkSpec {
    /// No extra sinks — the fastest setting, for timed benchmark reps.
    /// The outcome carries only event/cycle totals (zero for scenarios
    /// whose events are counted by an attached sink).
    Null,
    /// Counters + metrics (the fleet default): the outcome carries a
    /// [`MetricsSummary`], a [`CountersSink`] and the all-SI latency
    /// histogram.
    #[default]
    Metrics,
    /// [`SinkSpec::Metrics`] plus the full ordered [`Timeline`].
    Timeline,
    /// [`SinkSpec::Metrics`] plus a JSONL export of every event — the
    /// byte-exact replay artifact the fleet determinism check compares.
    Jsonl,
    /// [`SinkSpec::Metrics`] plus the compact binary export
    /// ([`rispp_obs::bin`]) of every event — the same stream as
    /// [`SinkSpec::Jsonl`] at an order of magnitude lower per-event cost,
    /// for fleet-scale capture and live tailing (`rispp_serve`).
    Binary,
}

/// A runnable simulation shard: everything needed to construct — and
/// deterministically reconstruct — one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// The workload.
    pub scenario: Scenario,
    /// Base seed: RNG stream for stress platforms, video seed for the
    /// codec, fault-plan seed when one is installed.
    pub seed: u64,
    /// The manager's power mode.
    pub power_mode: PowerMode,
    /// Deterministic fault plan installed on the fabric
    /// ([`FaultPlan::none`] for a clean run).
    pub faults: FaultPlan,
    /// Observability riding along.
    pub sink: SinkSpec,
    /// Assert the RISPP invariants on every step (stress scenario only;
    /// costs host time, so timed benchmark reps leave it off).
    pub checks: bool,
    /// When set, stream the compact binary export of every event to this
    /// file during the run (independent of [`ShardSpec::sink`], so a
    /// fleet can capture one log per shard while keeping the cheap
    /// metrics sinks).
    pub bin_path: Option<PathBuf>,
}

impl ShardSpec {
    /// A spec with the default trimmings: performance mode, no faults,
    /// metrics sinks, no per-step checks.
    #[must_use]
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        ShardSpec {
            scenario,
            seed,
            power_mode: PowerMode::default(),
            faults: FaultPlan::none(),
            sink: SinkSpec::default(),
            checks: false,
            bin_path: None,
        }
    }

    /// Replaces the power mode.
    #[must_use]
    pub fn with_power_mode(mut self, mode: PowerMode) -> Self {
        self.power_mode = mode;
        self
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the sink choice.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkSpec) -> Self {
        self.sink = sink;
        self
    }

    /// Enables per-step invariant checks (stress scenario).
    #[must_use]
    pub fn with_checks(mut self, checks: bool) -> Self {
        self.checks = checks;
        self
    }

    /// Streams the binary event export to `path` during the run (in
    /// addition to whatever [`SinkSpec`] is selected).
    #[must_use]
    pub fn with_bin_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.bin_path = Some(path.into());
        self
    }

    /// Builds the ready-to-run Fig. 6 engine this spec describes — the
    /// construction half of the API, for callers that need the live
    /// engine (the chaos harness attaches its own bounded-tail sinks, the
    /// fig06 binary renders waveforms from it).
    ///
    /// # Panics
    ///
    /// Panics when the spec's scenario is not [`Scenario::Fig6`].
    #[must_use]
    pub fn build_fig6(&self) -> (Engine<LruSurplusPolicy>, H264Sis) {
        assert_eq!(
            self.scenario,
            Scenario::Fig6,
            "build_fig6 needs a Fig6 spec"
        );
        fig6_engine_configured(&self.faults, self.power_mode)
    }

    /// Runs the shard to completion and distils the outcome.
    #[must_use]
    pub fn run(&self) -> ShardOutcome {
        match self.scenario {
            Scenario::Fig6 => self.run_fig6(),
            Scenario::Stress { platforms, steps } => self.run_stress(platforms, steps),
            Scenario::LiveCodec {
                width,
                height,
                frames,
                containers,
            } => self.run_live_codec(width, height, frames, containers),
        }
    }

    fn run_fig6(&self) -> ShardOutcome {
        let (mut engine, _sis) = self.build_fig6();
        let counters =
            (self.sink != SinkSpec::Null).then(|| Rc::new(RefCell::new(CountersSink::new())));
        let extras = ExtraSinks::for_spec(self);
        let mut attach: Option<SinkHandle> =
            counters.as_ref().map(|c| SinkHandle::shared(c.clone()));
        if let Some(extra) = extras.handle() {
            attach = Some(match attach {
                Some(a) => SinkHandle::tee(a, extra),
                None => extra,
            });
        }
        if let Some(sink) = attach {
            engine.attach_sink(sink);
        }
        let end = engine.run(100_000);
        let events = engine.timeline().len() as u64;
        let summary = engine.finish_metrics();
        let lib_len = engine.manager().library().len();
        drop(engine);
        let counters = counters.map(|c| {
            Rc::try_unwrap(c)
                .expect("engine dropped its sink handles")
                .into_inner()
        });
        let latency = counters
            .as_ref()
            .map(|c| all_si_latency(c, lib_len))
            .unwrap_or_default();
        let (timeline, jsonl, binary) = extras.into_parts();
        ShardOutcome {
            scenario: self.scenario.id(),
            seed: self.seed,
            events,
            sim_cycles: end,
            summary,
            counters,
            latency,
            timeline,
            jsonl,
            binary,
            codec: None,
            stress: None,
        }
    }

    fn run_stress(&self, platforms: u64, steps: u32) -> ShardOutcome {
        let counting = Rc::new(RefCell::new(CountingSink::default()));
        let metrics = Rc::new(RefCell::new(MetricsSink::new()));
        let extras = ExtraSinks::for_spec(self);
        let mut totals = StressTotals::default();
        let mut sim_cycles = 0u64;
        let mut widest_lib = 0usize;
        let mut merged_counters: Option<CountersSink> = None;
        for platform in 0..platforms {
            let seed = self.seed.wrapping_add(platform);
            let mut rng = StdRng::seed_from_u64(seed);
            let (lib, fabric) = random_platform(&mut rng);
            let fabric = if self.faults.is_empty() {
                fabric
            } else {
                fabric.with_faults(self.faults.clone())
            };
            let containers = fabric.num_containers();
            let sink = if self.sink == SinkSpec::Null {
                // Null skips the metrics sinks, but a requested file
                // capture still rides along.
                extras.handle().unwrap_or_else(SinkHandle::null)
            } else {
                let mut sink = SinkHandle::tee(
                    SinkHandle::shared(counting.clone()),
                    SinkHandle::shared(metrics.clone()),
                );
                if let Some(extra) = extras.handle() {
                    sink = SinkHandle::tee(sink, extra);
                }
                sink
            };
            // Per-platform counters, so the cross-check below audits this
            // platform's event stream in isolation.
            let counters =
                (self.sink != SinkSpec::Null).then(|| Rc::new(RefCell::new(CountersSink::new())));
            let sink = match &counters {
                Some(c) => SinkHandle::tee(sink, SinkHandle::shared(c.clone())),
                None => sink,
            };
            let mut mgr = RisppManager::builder(lib.clone(), fabric)
                .power_mode(self.power_mode)
                .sink(sink)
                .build();
            let mut stats = StressTotals::default();
            for _ in 0..steps {
                let si = SiId(rng.gen_range(0..lib.len()));
                match rng.gen_range(0..10) {
                    0..=2 => {
                        mgr.forecast(
                            rng.gen_range(0..3),
                            ForecastValue::new(
                                si,
                                rng.gen_range(0.05..1.0),
                                rng.gen_range(1_000.0..1_000_000.0),
                                rng.gen_range(1.0..500.0),
                            ),
                        );
                        stats.forecasts += 1;
                    }
                    3 => {
                        mgr.retract_forecast(rng.gen_range(0..3), si);
                        stats.retractions += 1;
                    }
                    4..=7 => {
                        let rec = mgr.execute_si(rng.gen_range(0..3), si);
                        if self.checks {
                            assert!(
                                rec.cycles <= lib.get(si).sw_cycles(),
                                "seed {seed}: slower than software"
                            );
                        }
                        stats.executions += 1;
                        if rec.hardware {
                            stats.hw_executions += 1;
                        }
                    }
                    _ => {
                        let t = mgr.now() + rng.gen_range(1..200_000u64);
                        mgr.advance_to(t).expect("monotone time");
                    }
                }
                if self.checks {
                    // Global invariant: never more loaded Atoms than
                    // containers, neither in fact nor in intent.
                    assert!(
                        mgr.loaded().determinant() as usize <= containers,
                        "seed {seed}: capacity violated"
                    );
                    assert!(mgr.target().determinant() as usize <= containers);
                }
            }
            stats.rotations_requested = mgr.rotations_requested();
            sim_cycles += mgr.now();
            drop(mgr);
            if let Some(counters) = counters {
                let counters = Rc::try_unwrap(counters)
                    .expect("manager dropped its sink handles")
                    .into_inner();
                if self.checks {
                    cross_check_counters(&counters, &lib, &stats, seed);
                }
                widest_lib = widest_lib.max(lib.len());
                match &mut merged_counters {
                    Some(m) => m.merge(&counters),
                    None => merged_counters = Some(counters),
                }
            }
            totals.merge(&stats);
        }
        let mut m = metrics.borrow_mut();
        m.finish();
        let summary = m.summary();
        drop(m);
        let events = counting.borrow().events;
        let latency = merged_counters
            .as_ref()
            .map(|c| all_si_latency(c, widest_lib))
            .unwrap_or_default();
        let (timeline, jsonl, binary) = extras.into_parts();
        ShardOutcome {
            scenario: self.scenario.id(),
            seed: self.seed,
            events,
            sim_cycles,
            summary,
            counters: merged_counters,
            latency,
            timeline,
            jsonl,
            binary,
            codec: None,
            stress: Some(totals),
        }
    }

    fn run_live_codec(
        &self,
        width: usize,
        height: usize,
        frames: usize,
        containers: usize,
    ) -> ShardOutcome {
        let counting = Rc::new(RefCell::new(CountingSink::default()));
        let metrics = Rc::new(RefCell::new(MetricsSink::new().with_containers(containers)));
        let counters = Rc::new(RefCell::new(CountersSink::new()));
        let extras = ExtraSinks::for_spec(self);
        let sink = if self.sink == SinkSpec::Null {
            // Null skips the metrics sinks, but a requested file capture
            // still rides along.
            extras.handle()
        } else {
            let mut sink = SinkHandle::tee(
                SinkHandle::shared(counting.clone()),
                SinkHandle::shared(metrics.clone()),
            );
            sink = SinkHandle::tee(sink, SinkHandle::shared(counters.clone()));
            if let Some(extra) = extras.handle() {
                sink = SinkHandle::tee(sink, extra);
            }
            Some(sink)
        };
        let faults = (!self.faults.is_empty()).then_some(&self.faults);
        let out = run_encoder_on_rispp_configured(
            width,
            height,
            frames,
            containers,
            &EncoderConfig::default(),
            self.seed,
            faults,
            sink,
            self.power_mode,
        );
        let mut m = metrics.borrow_mut();
        m.advance_to(out.total_cycles);
        m.finish();
        let summary = m.summary();
        drop(m);
        let events = counting.borrow().events;
        let counters = Rc::try_unwrap(counters)
            .expect("manager dropped its sink handles")
            .into_inner();
        let (lib, _) = rispp_h264::si_library::build_library();
        let (counters, latency) = if self.sink == SinkSpec::Null {
            (None, LatencyHistogram::default())
        } else {
            let latency = all_si_latency(&counters, lib.len());
            (Some(counters), latency)
        };
        let (timeline, jsonl, binary) = extras.into_parts();
        ShardOutcome {
            scenario: self.scenario.id(),
            seed: self.seed,
            events,
            sim_cycles: out.total_cycles,
            summary,
            counters,
            latency,
            timeline,
            jsonl,
            binary,
            codec: Some(out),
            stress: None,
        }
    }
}

/// One shard's distilled result: plain owned data, safe to move across
/// threads (the live engine never leaves its worker).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardOutcome {
    /// The scenario's canonical id.
    pub scenario: &'static str,
    /// The spec's seed (for standalone replay).
    pub seed: u64,
    /// Events emitted (all kinds; zero under [`SinkSpec::Null`] for
    /// scenarios without a built-in timeline).
    pub events: u64,
    /// Simulated cycles covered (summed over stress platforms).
    pub sim_cycles: u64,
    /// Simulated-time gauges cross-section.
    pub summary: MetricsSummary,
    /// Aggregate counters (absent under [`SinkSpec::Null`]; merged over
    /// stress platforms).
    pub counters: Option<CountersSink>,
    /// Latency of every SI execution, across all SIs.
    pub latency: LatencyHistogram,
    /// The full event timeline (under [`SinkSpec::Timeline`] /
    /// [`SinkSpec::Jsonl`] where the scenario records one).
    pub timeline: Option<Timeline>,
    /// JSONL export of the event stream (under [`SinkSpec::Jsonl`]).
    pub jsonl: Option<String>,
    /// Compact binary export of the same event stream (under
    /// [`SinkSpec::Binary`]); decode with [`rispp_obs::bin::replay`].
    pub binary: Option<Vec<u8>>,
    /// The encoder's functional outcome ([`Scenario::LiveCodec`] only).
    pub codec: Option<CodecRunOutcome>,
    /// The stress harness's own tallies ([`Scenario::Stress`] only).
    pub stress: Option<StressTotals>,
}

/// The stress scenario's harness-side tallies, cross-checked against the
/// event stream when checks are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StressTotals {
    /// Forecasts issued.
    pub forecasts: u64,
    /// Forecasts retracted.
    pub retractions: u64,
    /// SI executions dispatched.
    pub executions: u64,
    /// Executions that ran in hardware.
    pub hw_executions: u64,
    /// Rotations the manager requested.
    pub rotations_requested: u64,
}

impl StressTotals {
    /// Adds another tally into this one (fleet aggregation).
    pub fn merge(&mut self, other: &StressTotals) {
        self.forecasts += other.forecasts;
        self.retractions += other.retractions;
        self.executions += other.executions;
        self.hw_executions += other.hw_executions;
        self.rotations_requested += other.rotations_requested;
    }
}

/// Counts events without storing them (the cheapest enabled sink).
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
}

impl EventSink for CountingSink {
    fn emit(&mut self, _at: u64, _event: &Event) {
        self.events += 1;
    }
}

/// The optional timeline/JSONL consumers a [`SinkSpec`] adds on top of
/// the scenario's built-in sinks.
struct ExtraSinks {
    timeline: Option<Rc<RefCell<TimelineSink>>>,
    jsonl: Option<Rc<RefCell<JsonlSink<Vec<u8>>>>>,
    binary: Option<Rc<RefCell<BinarySink<Vec<u8>>>>>,
    /// Streaming binary capture to [`ShardSpec::bin_path`] — file-backed
    /// and written during the run, unlike `binary`, which buffers in
    /// memory for the outcome.
    bin_file: Option<Rc<RefCell<BinarySink<BufWriter<File>>>>>,
}

impl ExtraSinks {
    fn for_spec(spec: &ShardSpec) -> Self {
        ExtraSinks {
            timeline: matches!(spec.sink, SinkSpec::Timeline)
                .then(|| Rc::new(RefCell::new(TimelineSink::new()))),
            jsonl: matches!(spec.sink, SinkSpec::Jsonl)
                .then(|| Rc::new(RefCell::new(JsonlSink::new(Vec::new())))),
            binary: matches!(spec.sink, SinkSpec::Binary)
                .then(|| Rc::new(RefCell::new(BinarySink::new(Vec::new())))),
            bin_file: spec.bin_path.as_ref().map(|path| {
                let file = File::create(path).unwrap_or_else(|e| {
                    panic!("cannot create binary event log {}: {e}", path.display())
                });
                Rc::new(RefCell::new(BinarySink::new(BufWriter::new(file))))
            }),
        }
    }

    /// A handle over whichever extra consumers exist, if any. The
    /// [`SinkSpec`] variants are mutually exclusive, so at most one of
    /// those is live; the file capture can ride alongside any of them.
    fn handle(&self) -> Option<SinkHandle> {
        let mut handle: Option<SinkHandle> = None;
        let mut add = |h: SinkHandle| {
            handle = Some(match handle.take() {
                Some(a) => SinkHandle::tee(a, h),
                None => h,
            });
        };
        if let Some(t) = &self.timeline {
            add(SinkHandle::shared(t.clone()));
        }
        if let Some(j) = &self.jsonl {
            add(SinkHandle::shared(j.clone()));
        }
        if let Some(b) = &self.binary {
            add(SinkHandle::shared(b.clone()));
        }
        if let Some(f) = &self.bin_file {
            add(SinkHandle::shared(f.clone()));
        }
        handle
    }

    /// Unwraps the captured timeline, JSONL text and binary bytes, and
    /// flushes the file capture. The producing engine must have been
    /// dropped first, so this holds the last handles.
    fn into_parts(self) -> (Option<Timeline>, Option<String>, Option<Vec<u8>>) {
        let timeline = self.timeline.map(|t| {
            Rc::try_unwrap(t)
                .expect("engine dropped its sink handles")
                .into_inner()
                .into_timeline()
        });
        let jsonl = self.jsonl.map(|j| {
            let sink = Rc::try_unwrap(j)
                .expect("engine dropped its sink handles")
                .into_inner();
            String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
        });
        let binary = self.binary.map(|b| {
            Rc::try_unwrap(b)
                .expect("engine dropped its sink handles")
                .into_inner()
                .into_inner()
        });
        if let Some(f) = self.bin_file {
            // into_inner flushes the sink's batch buffer; flush the
            // BufWriter explicitly so disk errors surface here instead
            // of being swallowed by its Drop.
            use std::io::Write as _;
            Rc::try_unwrap(f)
                .expect("engine dropped its sink handles")
                .into_inner()
                .into_inner()
                .flush()
                .expect("flush binary event log");
        }
        (timeline, jsonl, binary)
    }
}

/// Folds every SI's latency histogram into the all-SI distribution.
fn all_si_latency(counters: &CountersSink, lib_len: usize) -> LatencyHistogram {
    let mut all = LatencyHistogram::default();
    for i in 0..lib_len {
        all.merge(&counters.si(SiId(i)).latency);
    }
    all
}

/// Asserts the exported event stream agrees with the harness tallies.
fn cross_check_counters(c: &CountersSink, lib: &SiLibrary, stats: &StressTotals, seed: u64) {
    let (mut issued, mut retracted, mut execs, mut hw_execs) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..lib.len() {
        let fc = c.fc(SiId(i));
        issued += fc.issued;
        retracted += fc.retracted;
        let si = c.si(SiId(i));
        execs += si.hw_executions + si.sw_executions;
        hw_execs += si.hw_executions;
    }
    assert_eq!(
        issued, stats.forecasts,
        "seed {seed}: forecast events diverge"
    );
    assert_eq!(
        retracted, stats.retractions,
        "seed {seed}: retract events diverge"
    );
    assert_eq!(
        execs, stats.executions,
        "seed {seed}: execution events diverge"
    );
    assert_eq!(
        hw_execs, stats.hw_executions,
        "seed {seed}: HW split diverges"
    );
    assert!(
        c.rotations_started() <= stats.rotations_requested,
        "seed {seed}: more rotations started than requested"
    );
}

/// Generates a random platform (Atom set, catalog, fabric, SI library)
/// from the shard's RNG stream — the single home of the generator both
/// the stress binary and the bench harness used to copy.
#[must_use]
pub fn random_platform(rng: &mut StdRng) -> (SiLibrary, Fabric) {
    let kinds = rng.gen_range(1..=6usize);
    let names: Vec<String> = (0..kinds).map(|i| format!("K{i}")).collect();
    let atoms = AtomSet::from_names(names.iter().map(String::as_str));
    let catalog = AtomCatalog::new(
        names
            .iter()
            .map(|n| {
                AtomHwProfile::new(
                    n.as_str(),
                    rng.gen_range(100..800),
                    rng.gen_range(200..1600),
                    rng.gen_range(2_000..80_000),
                )
            })
            .collect(),
    );
    let containers = rng.gen_range(0..=8usize);
    let fabric = Fabric::new(atoms, catalog, containers);

    let mut lib = SiLibrary::new(kinds);
    for s in 0..rng.gen_range(1..=6usize) {
        let n_mols = rng.gen_range(1..=4usize);
        let mut mols = Vec::new();
        let mut fastest = u64::MAX;
        for _ in 0..n_mols {
            let counts: Vec<u32> = (0..kinds).map(|_| rng.gen_range(0..4)).collect();
            if counts.iter().all(|&c| c == 0) {
                continue;
            }
            let cycles = rng.gen_range(5..80u64);
            fastest = fastest.min(cycles);
            mols.push(MoleculeImpl::new(Molecule::from_counts(counts), cycles));
        }
        if mols.is_empty() {
            mols.push(MoleculeImpl::new(
                Molecule::from_pairs(kinds, [(AtomKind(0), 1)]),
                20,
            ));
            fastest = 20;
        }
        let sw = fastest + rng.gen_range(50..2_000u64);
        lib.insert(SpecialInstruction::new(format!("si{s}"), sw, mols).expect("valid"))
            .expect("width");
    }
    (lib, fabric)
}
