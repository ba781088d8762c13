//! Sink-run property: `emit_run(first_at, stride, n, event)` must leave
//! every sink exactly as `n` calls to `emit` at `first_at + i·stride`
//! leave it.
//!
//! `MetricsSink` and `BinarySink` fold a run themselves; the streams
//! below open forecast windows before runs and leave some open at the
//! end, switch an SI between software and hardware mid-stream (so its
//! software baseline changes), run thousands of records across the
//! binary sink's 8-KiB write batches, use strides and cycle counts on
//! both sides of the fixed record layout's `0x4000` limit and a stride
//! of 0, and start runs with a Molecule the stream has not interned yet.
//! `CountersSink`, `TimelineSink` and `JsonlSink` keep the default
//! method and are checked the same way. Runs reach the sinks through
//! `SinkHandle::emit_run_with` and through each sink's own `emit_run`;
//! the oracle sends `n` single events through `SinkHandle::emit_with`.
//! Deterministic cases place the binary sink's repeated-record fill at
//! each byte just below a write batch's end, with runs of 2, 3 and more.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use proptest::prelude::*;
use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;
use rispp_obs::{
    BinarySink, CountersSink, Event, EventSink, JsonlSink, MetricsSink, ReselectTrigger,
    SinkHandle, TimelineSink,
};

/// One step of a stream: a single event, or a run of one event.
#[derive(Debug, Clone)]
enum Step {
    One {
        gap: u64,
        event: Event,
    },
    Run {
        gap: u64,
        stride: u64,
        n: u64,
        event: Event,
    },
}

/// Molecule `k` of a stream: distinct for distinct `k`, so a large `k`
/// is new to the binary sink's intern table.
fn molecule(k: u32) -> Molecule {
    Molecule::from_counts([k, 1, 0])
}

fn execution() -> impl Strategy<Value = Event> {
    let cycles = prop_oneof![0u64..64, Just(0x3FFF), Just(0x4000), Just(u64::MAX / 4)];
    let mol = prop_oneof![0u32..3, 3u32..1_000];
    (0u32..3, 0usize..4, any::<bool>(), cycles, mol).prop_map(|(task, si, hw, cycles, k)| {
        Event::SiExecuted {
            task,
            si: SiId(si),
            hw,
            cycles,
            // Software executions carry no Molecule.
            molecule: hw.then(|| molecule(k)),
        }
    })
}

/// Forecast, container, rotation and selection events: they open and
/// close windows around the runs and move the gauges between them.
fn other_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u32..3, 0usize..4).prop_map(|(task, si)| Event::ForecastUpdated {
            task,
            si: SiId(si),
            probability: 0.5,
            expected_executions: 10.0,
        }),
        (0u32..3, 0usize..4).prop_map(|(task, si)| Event::ForecastRetracted { task, si: SiId(si) }),
        (0u32..3, 0usize..4, any::<bool>()).prop_map(|(task, si, reached)| Event::FcOutcome {
            task,
            si: SiId(si),
            reached
        }),
        (0u32..4, 0usize..3).prop_map(|(container, kind)| Event::ContainerLoaded {
            container,
            kind: AtomKind(kind)
        }),
        (0u32..4, 0usize..3).prop_map(|(container, kind)| Event::ContainerEvicted {
            container,
            kind: AtomKind(kind)
        }),
        (0u32..4, 0usize..3).prop_map(|(container, kind)| Event::RotationStarted {
            container,
            kind: AtomKind(kind)
        }),
        (0u32..4, 0usize..3).prop_map(|(container, kind)| Event::RotationCompleted {
            container,
            kind: AtomKind(kind)
        }),
        Just(Event::Reselect {
            trigger: ReselectTrigger::Fault
        }),
        (0usize..4, 0u32..1_000).prop_map(|(si, k)| Event::UpgradeStep {
            si: SiId(si),
            task: Some(0),
            step: 0,
            molecule: molecule(k),
        }),
    ]
}

/// Streams of single events and runs; `long` sets how many records a
/// run may hold (enough to cross several binary write batches).
fn stream(long: u64) -> impl Strategy<Value = Vec<Step>> {
    let gap = || prop_oneof![0u64..100, Just(0x4000), Just(1 << 30)];
    let stride = prop_oneof![
        Just(0u64),
        1u64..64,
        Just(0x3FFF),
        Just(0x4000),
        Just(1 << 20)
    ];
    let n = prop_oneof![Just(0u64), Just(1), Just(2), 3u64..50, 800..long];
    let run_event = prop_oneof![execution(), execution(), execution(), other_event()];
    let step = prop_oneof![
        (gap(), other_event()).prop_map(|(gap, event)| Step::One { gap, event }),
        (gap(), execution()).prop_map(|(gap, event)| Step::One { gap, event }),
        (gap(), stride, n, run_event).prop_map(|(gap, stride, n, event)| Step::Run {
            gap,
            stride,
            n,
            event
        }),
    ];
    proptest::collection::vec(step, 1..24)
}

/// A writer that keeps every `write` call apart, so two sinks compare
/// write for write as well as byte for byte.
#[derive(Debug, Default)]
struct Writes(Vec<Vec<u8>>);

impl Write for Writes {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// How a stream's runs reach the sinks.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// As `n` single events through `SinkHandle::emit_with`.
    Singles,
    /// Through `SinkHandle::emit_run_with`.
    Handle,
    /// Through each sink's own `EventSink::emit_run`, in list order.
    Direct,
}

/// Feeds `steps` to `handle`, whose sinks are `sinks`, with runs sent
/// as `mode` says.
fn feed(handle: &SinkHandle, sinks: &[&RefCell<dyn EventSink>], steps: &[Step], mode: Mode) {
    let mut at = 0u64;
    for step in steps {
        match step {
            Step::One { gap, event } => {
                at += gap;
                handle.emit_with(at, || event.clone());
            }
            Step::Run {
                gap,
                stride,
                n,
                event,
            } => {
                at += gap;
                match mode {
                    Mode::Singles => {
                        for i in 0..*n {
                            handle.emit_with(at + i * stride, || event.clone());
                        }
                    }
                    Mode::Handle => handle.emit_run_with(at, *stride, *n, || event.clone()),
                    Mode::Direct => {
                        for sink in sinks {
                            sink.borrow_mut().emit_run(at, *stride, *n, event);
                        }
                    }
                }
                at += n.saturating_sub(1) * stride;
            }
        }
    }
}

fn shared<S>(sink: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(sink))
}

fn take<S>(sink: Rc<RefCell<S>>) -> S {
    Rc::try_unwrap(sink).ok().expect("one owner").into_inner()
}

/// What the two folding sinks hold after `steps`: the metrics' event
/// count, latency, summary and forecast stats before and after
/// `finish`, and the binary sink's writes.
fn folded(steps: &[Step], mode: Mode) -> (Vec<String>, Vec<Vec<u8>>) {
    let metrics = shared(MetricsSink::new().with_containers(4));
    let binary = shared(BinarySink::new(Writes::default()));
    let handle = SinkHandle::tee(
        SinkHandle::shared(metrics.clone()),
        SinkHandle::shared(binary.clone()),
    );
    feed(&handle, &[&*metrics, &*binary], steps, mode);
    drop(handle);
    let mut m = take(metrics);
    let mut seen = Vec::new();
    for _ in 0..2 {
        seen.push(format!(
            "{} {:?} {:?} {:?}",
            m.events(),
            m.latency(),
            m.summary(),
            m.forecast_stats().collect::<Vec<_>>()
        ));
        m.finish();
    }
    (seen, take(binary).into_inner().0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MetricsSink` and `BinarySink` fold a run as its single events.
    #[test]
    fn folding_sinks_take_a_run_as_its_events(steps in stream(2_500)) {
        let singles = folded(&steps, Mode::Singles);
        for mode in [Mode::Handle, Mode::Direct] {
            let runs = folded(&steps, mode);
            prop_assert_eq!(&runs.0, &singles.0, "{:?}", mode);
            prop_assert!(runs.1 == singles.1, "binary writes differ ({:?})", mode);
        }
    }

    /// The sinks on the default method: each run is its single events.
    #[test]
    fn default_sinks_take_a_run_as_its_events(steps in stream(900)) {
        let side = |mode: Mode| {
            let counters = shared(CountersSink::new());
            let timeline = shared(TimelineSink::new());
            let jsonl = shared(JsonlSink::new(Vec::new()));
            let handle = [
                SinkHandle::shared(counters.clone()),
                SinkHandle::shared(timeline.clone()),
                SinkHandle::shared(jsonl.clone()),
            ]
            .into_iter()
            .fold(SinkHandle::null(), SinkHandle::tee);
            feed(&handle, &[&*counters, &*timeline, &*jsonl], &steps, mode);
            drop(handle);
            let counters = take(counters);
            let counts: Vec<String> = (0..4)
                .map(|si| format!("{:?} {:?}", counters.si(SiId(si)), counters.fc(SiId(si))))
                .collect();
            (
                counts,
                counters.rotations_started(),
                take(timeline).into_timeline(),
                take(jsonl).into_inner(),
            )
        };
        let singles = side(Mode::Singles);
        for mode in [Mode::Handle, Mode::Direct] {
            let runs = side(mode);
            prop_assert_eq!(&runs.0, &singles.0, "{:?}", mode);
            prop_assert_eq!(runs.1, singles.1);
            prop_assert_eq!(runs.2.entries(), singles.2.entries());
            prop_assert!(runs.3 == singles.3, "JSONL exports differ ({:?})", mode);
        }
    }
}

#[test]
fn long_runs_cross_write_batches_as_their_events_do() {
    let execution = |hw: bool, cycles: u64, k: u32| Event::SiExecuted {
        task: 1,
        si: SiId(2),
        hw,
        cycles,
        molecule: hw.then(|| molecule(k)),
    };
    let steps = [
        Step::One {
            gap: 10,
            event: Event::ForecastUpdated {
                task: 1,
                si: SiId(2),
                probability: 1.0,
                expected_executions: 5.0,
            },
        },
        // Software: sets the baseline the hardware runs save against.
        Step::Run {
            gap: 3,
            stride: 700,
            n: 40,
            event: execution(false, 700, 0),
        },
        // Outside the fixed layout, first record interning a Molecule.
        Step::Run {
            gap: 0x4000,
            stride: 0x4000,
            n: 3_000,
            event: execution(true, 0x4000, 77),
        },
        // Inside it, with a stride of 0.
        Step::Run {
            gap: 1,
            stride: 0,
            n: 2_500,
            event: execution(true, 12, 77),
        },
    ];
    let singles = folded(&steps, Mode::Singles);
    assert!(singles.1.len() >= 4, "{} writes", singles.1.len());
    for mode in [Mode::Handle, Mode::Direct] {
        let runs = folded(&steps, mode);
        assert_eq!(runs.0, singles.0, "{mode:?}");
        assert!(runs.1 == singles.1, "binary writes differ ({mode:?})");
    }
}

#[test]
fn an_empty_run_builds_no_event() {
    let sink = shared(TimelineSink::new());
    let handle = SinkHandle::shared(sink.clone());
    handle.emit_run_with(5, 1, 0, || unreachable!("built for an empty run"));
    SinkHandle::null().emit_run_with(5, 1, 3, || unreachable!("built for a null handle"));
    assert!(sink.borrow().timeline().is_empty());
}

/// Bytes the binary sink buffers before it writes them through
/// (`FLUSH_THRESHOLD` in `rispp_obs::bin`).
const BATCH: usize = 8 * 1024;

/// The bytes `steps` encode to, header included.
fn encoded_len(steps: &[Step]) -> usize {
    let sink = shared(BinarySink::new(Vec::new()));
    feed(
        &SinkHandle::shared(sink.clone()),
        &[&*sink],
        steps,
        Mode::Singles,
    );
    take(sink).into_inner().len()
}

#[test]
fn a_fill_starting_just_below_a_batch_writes_as_its_events() {
    // `k` software records, then a hardware run whose repeated records
    // the sink fills in batches. The fill starts after the run's first
    // two records, so the buffer then holds what the stream encodes to
    // with a run of 2. The run's gap sets its first record's length,
    // which reaches every remainder of the software record's length.
    let pad = Event::SiExecuted {
        task: 0,
        si: SiId(0),
        hw: false,
        cycles: 5,
        molecule: None,
    };
    let run_event = Event::SiExecuted {
        task: 1,
        si: SiId(2),
        hw: true,
        cycles: 12,
        molecule: Some(molecule(77)),
    };
    let stream = |k: u64, gap: u64, n: u64| {
        vec![
            Step::Run {
                gap: 1,
                stride: 1,
                n: k,
                event: pad.clone(),
            },
            Step::Run {
                gap,
                stride: 24,
                n,
                event: run_event.clone(),
            },
        ]
    };
    let pad_len = encoded_len(&stream(2, 1, 0)) - encoded_len(&stream(1, 1, 0));
    let record_len = encoded_len(&stream(1, 1, 3)) - encoded_len(&stream(1, 1, 2));
    let mut checked = 0;
    // Fills that start with room for one record or two.
    for fill_start in BATCH - 2 * record_len..BATCH {
        // Gaps whose varints take 1 to 9 bytes.
        let (k, gap) = (0..9)
            .map(|bytes| 1u64 << (7 * bytes))
            .find_map(|gap| {
                let base = encoded_len(&stream(1, gap, 2));
                let short = fill_start.checked_sub(base)?;
                (short % pad_len == 0).then(|| (1 + (short / pad_len) as u64, gap))
            })
            .expect("some gap reaches every remainder");
        assert_eq!(encoded_len(&stream(k, gap, 2)), fill_start);
        for n in [2, 3, 4, 5, 2_500] {
            let steps = stream(k, gap, n);
            let singles = folded(&steps, Mode::Singles);
            if n >= 3 && fill_start + record_len >= BATCH {
                // The third record ends the first batch.
                assert_eq!(singles.1[0].len(), fill_start + record_len, "n {n}");
            }
            for mode in [Mode::Handle, Mode::Direct] {
                let runs = folded(&steps, mode);
                assert_eq!(runs.0, singles.0, "fill at {fill_start}, n {n}, {mode:?}");
                assert!(
                    runs.1 == singles.1,
                    "binary writes differ: fill at {fill_start}, n {n}, {mode:?}"
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 5 * 2 * record_len);
}
