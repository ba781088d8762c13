//! Lockstep property for `RisppManager::try_execute_si_run`: a run of
//! `n` SIs must do exactly what `n` rounds of `execute_si` + `advance_to`
//! do — the same events, in the same order, at the same cycles, the same
//! clock, loaded Atoms, target and rotation bill, and the same LRU
//! touches.
//!
//! Two managers start from one random platform (`random_platform`) and
//! one seeded fault plan, and receive the same forecasts, retractions
//! and advances. Where one issues a run, the other issues the same SIs
//! one at a time. The sides are compared after every step, by their
//! sinks' timeline, JSONL and binary bytes and metrics at the end, and
//! by the events of one more forecast, whose victim choices read the
//! LRU cycles the runs left behind.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp_core::atom::{AtomKind, AtomSet};
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::{Fabric, FabricEvent};
use rispp_fabric::FaultPlan;
use rispp_obs::{BinarySink, JsonlSink, MetricsSink, SinkHandle, TimelineSink};
use rispp_rt::manager::{ExecutionRecord, RisppManager, RunCounts};
use rispp_sim::spec::random_platform;

/// One side's sinks.
struct Sinks {
    timeline: Rc<RefCell<TimelineSink>>,
    jsonl: Rc<RefCell<JsonlSink<Vec<u8>>>>,
    binary: Rc<RefCell<BinarySink<Vec<u8>>>>,
    metrics: Rc<RefCell<MetricsSink>>,
}

impl Sinks {
    fn new() -> Self {
        Sinks {
            timeline: Rc::new(RefCell::new(TimelineSink::new())),
            jsonl: Rc::new(RefCell::new(JsonlSink::new(Vec::new()))),
            binary: Rc::new(RefCell::new(BinarySink::new(Vec::new()))),
            metrics: Rc::new(RefCell::new(MetricsSink::new())),
        }
    }

    fn handle(&self) -> SinkHandle {
        [
            SinkHandle::shared(self.timeline.clone()),
            SinkHandle::shared(self.jsonl.clone()),
            SinkHandle::shared(self.binary.clone()),
            SinkHandle::shared(self.metrics.clone()),
        ]
        .into_iter()
        .fold(SinkHandle::null(), SinkHandle::tee)
    }
}

/// How a run prices each execution.
#[derive(Debug, Clone, Copy)]
enum Cost {
    /// Every execution takes the same cycles, whatever it ran on.
    Fixed(u64),
    /// The record's latency plus 12 cycles in hardware: the codec's rule.
    Codec,
    /// One cycle in hardware, the record's latency in software.
    HardwareCheap,
}

impl Cost {
    fn of(self, record: &ExecutionRecord) -> u64 {
        match self {
            Cost::Fixed(c) => c,
            Cost::Codec => record.cycles + if record.hardware { 12 } else { 0 },
            Cost::HardwareCheap => {
                if record.hardware {
                    1
                } else {
                    record.cycles
                }
            }
        }
    }
}

/// Situations the property must reach; counted on the per-SI side.
#[derive(Debug, Default)]
struct Coverage {
    /// A rotation completed exactly where the next SI of a run starts.
    completion_at_boundary: u64,
    /// A queued rotation started inside a run.
    queued_start: u64,
    /// A port stall began inside a run.
    stall: u64,
    /// A transient fault hit a loaded container inside a run.
    transient: u64,
    /// A rotation failed verification inside a run.
    crc_failure: u64,
    /// A container was quarantined inside a run.
    quarantine: u64,
    /// A backoff delay expired inside a run.
    backoff_wake: u64,
    /// Runs whose first SI ran in software and a later one in hardware.
    upgrade_inside_run: u64,
}

/// The per-SI oracle: `n` rounds of `execute_si` + `advance_to` for
/// task 1.
fn per_si(mgr: &mut RisppManager, si: SiId, n: u64, cost: Cost, seen: &mut Coverage) -> RunCounts {
    let mut counts = RunCounts::default();
    let mut first_hw = None;
    for i in 0..n {
        let record = mgr.execute_si(1, si);
        if record.hardware {
            counts.hardware += 1;
        } else {
            counts.software += 1;
        }
        if first_hw.is_none() {
            first_hw = Some(record.hardware);
        } else if first_hw == Some(false) && record.hardware {
            seen.upgrade_inside_run += 1;
            first_hw = Some(true);
        }
        let t = mgr.now() + cost.of(&record);
        let blocked = mgr.blocked_kinds();
        let events = mgr.advance_to(t).expect("monotone time");
        // A kind unblocked without completing a rotation: its backoff
        // delay expired.
        let after = mgr.blocked_kinds();
        let completed = |k: &AtomKind| {
            events
                .iter()
                .any(|e| matches!(e, FabricEvent::RotationCompleted { kind, .. } if kind == k))
        };
        if blocked.iter().any(|k| !after.contains(k) && !completed(k)) {
            seen.backoff_wake += 1;
        }
        for event in events {
            match event {
                FabricEvent::RotationCompleted { at, .. } if at == t && i + 1 < n => {
                    seen.completion_at_boundary += 1;
                }
                FabricEvent::RotationStarted { .. } => seen.queued_start += 1,
                FabricEvent::PortStalled { .. } => seen.stall += 1,
                FabricEvent::ContainerFaulted { .. } => seen.transient += 1,
                FabricEvent::RotationFailed { .. } => seen.crc_failure += 1,
                FabricEvent::ContainerQuarantined { .. } => seen.quarantine += 1,
                _ => {}
            }
        }
    }
    counts
}

/// Asserts the two managers' observable state agrees.
fn assert_same(a: &RisppManager, b: &RisppManager, what: &str) {
    assert_eq!(a.now(), b.now(), "{what}: now");
    assert_eq!(a.loaded(), b.loaded(), "{what}: loaded");
    assert_eq!(a.target(), b.target(), "{what}: target");
    assert_eq!(
        a.rotations_requested(),
        b.rotations_requested(),
        "{what}: rotations requested"
    );
    assert_eq!(
        a.blocked_kinds(),
        b.blocked_kinds(),
        "{what}: blocked kinds"
    );
    for i in 0..a.fabric().num_containers() {
        let (ca, cb) = (
            a.fabric().container(ContainerId(i)),
            b.fabric().container(ContainerId(i)),
        );
        assert_eq!(ca.state(), cb.state(), "{what}: AC{i} state");
        assert_eq!(ca.last_used(), cb.last_used(), "{what}: AC{i} LRU cycle");
    }
}

fn forecast(rng: &mut StdRng, si: SiId) -> ForecastValue {
    ForecastValue::new(
        si,
        rng.gen_range(0.05..1.0),
        rng.gen_range(1_000.0..1_000_000.0),
        rng.gen_range(1.0..500.0),
    )
}

/// Runs one case: a platform and fault plan from `seed`, then a random
/// mix of forecasts, retractions, advances and runs on both sides.
fn lockstep(seed: u64, seen: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lib, fabric) = random_platform(&mut rng);
    let containers = fabric.num_containers();
    let mut faults = match seed % 4 {
        0 => FaultPlan::none(),
        _ => FaultPlan::seeded(seed, containers, 1_500_000),
    };
    if seed.is_multiple_of(3) && containers > 1 {
        faults.bad_containers.push(ContainerId(containers - 1));
    }
    let fabric = fabric.with_faults(faults);
    let (run_sinks, loop_sinks) = (Sinks::new(), Sinks::new());
    let mut run_side = RisppManager::builder(lib.clone(), fabric.clone())
        .sink(run_sinks.handle())
        .build();
    let mut loop_side = RisppManager::builder(lib.clone(), fabric)
        .sink(loop_sinks.handle())
        .build();

    for step in 0..24 {
        let si = SiId(rng.gen_range(0..lib.len()));
        let what = format!("seed {seed}, step {step}");
        match rng.gen_range(0..10) {
            0..=2 => {
                let task = rng.gen_range(0..3);
                let value = forecast(&mut rng, si);
                run_side.forecast(task, value.clone());
                loop_side.forecast(task, value);
            }
            3 => {
                let task = rng.gen_range(0..3);
                run_side.retract_forecast(task, si);
                loop_side.retract_forecast(task, si);
            }
            4 => {
                let t = run_side.now() + rng.gen_range(0..200_000u64);
                run_side.advance_to(t).expect("monotone time");
                loop_side.advance_to(t).expect("monotone time");
            }
            kind => {
                let n = rng.gen_range(0..=600u64);
                let cost = match kind {
                    5 => Cost::Fixed(0),
                    6 => Cost::Codec,
                    7 => Cost::HardwareCheap,
                    8 => Cost::Fixed(rng.gen_range(1..3_000)),
                    _ => {
                        // A stride that lands an SI exactly on the
                        // fabric's next change, when one is scheduled.
                        let now = run_side.now();
                        match run_side.fabric().next_self_timed_change() {
                            Some(h) if h > now => {
                                let gap = h - now;
                                let j = (1..=8).rev().find(|&j| gap.is_multiple_of(j)).unwrap_or(1);
                                Cost::Fixed(gap / j)
                            }
                            _ => Cost::Fixed(rng.gen_range(1..3_000)),
                        }
                    }
                };
                let got = run_side
                    .try_execute_si_run(1, si, n, |r| cost.of(r))
                    .expect("a library SI");
                let want = per_si(&mut loop_side, si, n, cost, seen);
                assert_eq!(got, want, "{what}: counts of {n} × {si:?} at {cost:?}");
            }
        }
        assert_same(&run_side, &loop_side, &what);
    }

    // One more forecast: its victims are chosen by the LRU cycles the
    // runs left, so a touch made at the wrong cycle moves its events.
    let si = SiId(rng.gen_range(0..lib.len()));
    let value = ForecastValue::new(si, 1.0, 1_000.0, 1e6);
    run_side.forecast(2, value.clone());
    loop_side.forecast(2, value);
    assert_same(
        &run_side,
        &loop_side,
        &format!("seed {seed}, last forecast"),
    );
    drop((run_side, loop_side));

    let (a, b) = (run_sinks, loop_sinks);
    assert_eq!(
        a.timeline.borrow().timeline().entries(),
        b.timeline.borrow().timeline().entries(),
        "seed {seed}: timelines"
    );
    let bytes = |s: Sinks| {
        let jsonl = Rc::try_unwrap(s.jsonl).ok().unwrap().into_inner();
        let binary = Rc::try_unwrap(s.binary).ok().unwrap().into_inner();
        let metrics = s.metrics.borrow().summary();
        let latency = s.metrics.borrow().latency().clone();
        (jsonl.into_inner(), binary.into_inner(), metrics, latency)
    };
    let (a, b) = (bytes(a), bytes(b));
    assert!(a.0 == b.0, "seed {seed}: JSONL exports differ");
    assert!(a.1 == b.1, "seed {seed}: binary exports differ");
    assert_eq!(a.2, b.2, "seed {seed}: metrics summaries");
    assert_eq!(a.3, b.3, "seed {seed}: latency histograms");
}

#[test]
fn a_run_equals_its_per_si_loop() {
    let mut seen = Coverage::default();
    for seed in 0..160 {
        lockstep(seed, &mut seen);
    }
    // The cases above reach every situation the horizon must stop at.
    for (what, n) in [
        ("completion at an SI boundary", seen.completion_at_boundary),
        ("queued start", seen.queued_start),
        ("port stall", seen.stall),
        ("transient fault", seen.transient),
        ("CRC failure", seen.crc_failure),
        ("quarantine", seen.quarantine),
        ("backoff wake", seen.backoff_wake),
        ("upgrade inside a run", seen.upgrade_inside_run),
    ] {
        assert!(n > 0, "no case reached: {what} ({seen:?})");
    }
}

/// A platform of three one-Atom SIs over three Atom kinds and two
/// containers.
fn three_si_platform() -> (SiLibrary, Fabric) {
    let atoms = AtomSet::from_names(["A", "B", "C"]);
    let catalog = AtomCatalog::new(
        ["A", "B", "C"]
            .iter()
            .map(|&n| AtomHwProfile::new(n, 100, 200, 4_000))
            .collect(),
    );
    let mut lib = SiLibrary::new(3);
    for (name, counts) in [("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1])] {
        let mols = vec![MoleculeImpl::new(Molecule::from_counts(counts), 10)];
        let si = SpecialInstruction::new(name, 500, mols).expect("a valid SI");
        lib.insert(si).expect("the library's width");
    }
    (lib, Fabric::new(atoms, catalog, 2))
}

#[test]
fn a_following_forecast_evicts_by_the_cycle_of_each_stretch_s_last_si() {
    // AC0 holds A (SI x), AC1 holds B (SI y). y runs once with a stride
    // of 0, then x runs five times from that same cycle: x's touch
    // belongs to its fifth execution, 400 cycles later, so AC1 is the
    // least recently used. A forecast of z alone then evicts AC1; a
    // touch at x's first execution would tie the two and evict AC0.
    let script = |mgr: &mut RisppManager, runs: bool| {
        let (x, y, z) = (SiId(0), SiId(1), SiId(2));
        for si in [x, y] {
            mgr.forecast(0, ForecastValue::new(si, 1.0, 1_000.0, 100.0));
        }
        let done = mgr.all_rotations_done_at().expect("two rotations");
        mgr.advance_to(done).expect("monotone time");
        assert_eq!(mgr.loaded(), Molecule::from_counts([1, 1, 0]));
        let kind_of = |mgr: &RisppManager, c| mgr.fabric().container(ContainerId(c)).loaded_kind();
        assert_eq!(kind_of(mgr, 0), Some(AtomKind(0)), "A sits in AC0");
        for (si, n, stride) in [(y, 1, 0), (x, 5, 100)] {
            if runs {
                mgr.try_execute_si_run(1, si, n, |_| stride)
                    .expect("a library SI");
            } else {
                per_si(mgr, si, n, Cost::Fixed(stride), &mut Coverage::default());
            }
        }
        for si in [x, y] {
            mgr.retract_forecast(0, si);
        }
        mgr.forecast(0, ForecastValue::new(z, 1.0, 1_000.0, 100.0));
        assert_eq!(kind_of(mgr, 0), Some(AtomKind(0)), "A stays in AC0");
        assert!(mgr.fabric().container(ContainerId(1)).is_loading());
    };
    let (lib, fabric) = three_si_platform();
    let (run_sinks, loop_sinks) = (Sinks::new(), Sinks::new());
    let mut run_side = RisppManager::builder(lib.clone(), fabric.clone())
        .sink(run_sinks.handle())
        .build();
    let mut loop_side = RisppManager::builder(lib, fabric)
        .sink(loop_sinks.handle())
        .build();
    script(&mut run_side, true);
    script(&mut loop_side, false);
    assert_same(&run_side, &loop_side, "after the forecast of z");
    assert_eq!(
        run_sinks.timeline.borrow().timeline().entries(),
        loop_sinks.timeline.borrow().timeline().entries()
    );
}

#[test]
fn an_unknown_si_runs_nothing() {
    let mut rng = StdRng::seed_from_u64(1);
    let (lib, fabric) = random_platform(&mut rng);
    let sinks = Sinks::new();
    let mut mgr = RisppManager::builder(lib.clone(), fabric)
        .sink(sinks.handle())
        .build();
    for n in [0, 5] {
        let err = mgr.try_execute_si_run(0, SiId(lib.len()), n, |r| r.cycles);
        assert!(err.is_err(), "{n} executions of an unknown SI");
    }
    assert_eq!(mgr.now(), 0);
    assert!(sinks.timeline.borrow().timeline().is_empty());
}
