//! Property tests for the binary event transport: any sequence of
//! events — all thirteen variants, fault events included, timestamps in
//! any order — encodes through [`BinarySink`] and decodes back to the
//! identical `Vec<Event>` (and timestamps), both via the one-shot
//! [`bin::replay`] and via the incremental [`StreamDecoder`] fed in
//! arbitrary chunk sizes. Small-field `SiExecuted` streams, whose fields
//! sit on either side of the fixed layout the encoder and the decoder
//! special-case, round-trip through the decoder in random chunkings.

use proptest::prelude::*;
use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;
use rispp_obs::bin::{self, StreamDecoder};
use rispp_obs::{BinarySink, Event, EventSink, Record, ReselectTrigger, TimelineSink};

fn molecule_strategy() -> impl Strategy<Value = Molecule> {
    proptest::collection::vec(0u32..4, 1..5).prop_map(Molecule::from_counts)
}

fn trigger_strategy() -> impl Strategy<Value = ReselectTrigger> {
    prop_oneof![
        Just(ReselectTrigger::Forecast),
        Just(ReselectTrigger::ForecastBlock),
        Just(ReselectTrigger::Retract),
        Just(ReselectTrigger::Observation),
        Just(ReselectTrigger::PowerMode),
        Just(ReselectTrigger::Fault),
    ]
}

/// Finite floats across magnitudes (the codec stores raw bits, so
/// NaN round-trips too, but `Event: PartialEq` would reject NaN here).
fn f64_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite floats only (NaN != NaN under PartialEq)", |f| f
                .is_finite()),
    ]
}

fn kind_strategy() -> impl Strategy<Value = AtomKind> {
    (0usize..8).prop_map(AtomKind)
}

fn si_strategy() -> impl Strategy<Value = SiId> {
    (0usize..64).prop_map(SiId)
}

/// Every `Event` variant, fault events (`RotationFailed`,
/// `ContainerQuarantined`, `Reselect { trigger: Fault }`) included.
fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::RotationStarted { container, kind }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::RotationCompleted { container, kind }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::RotationFailed { container, kind }),
        any::<u64>().prop_map(|until| Event::PortStalled { until }),
        any::<u32>().prop_map(|container| Event::ContainerQuarantined { container }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::ContainerLoaded { container, kind }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::ContainerEvicted { container, kind }),
        (
            any::<u32>(),
            si_strategy(),
            any::<bool>(),
            any::<u64>(),
            proptest::option::of(molecule_strategy()),
        )
            .prop_map(|(task, si, hw, cycles, molecule)| Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                molecule,
            }),
        (any::<u32>(), si_strategy(), f64_strategy(), f64_strategy()).prop_map(
            |(task, si, probability, expected_executions)| Event::ForecastUpdated {
                task,
                si,
                probability,
                expected_executions,
            }
        ),
        (any::<u32>(), si_strategy()).prop_map(|(task, si)| Event::ForecastRetracted { task, si }),
        (any::<u32>(), si_strategy(), any::<bool>())
            .prop_map(|(task, si, reached)| Event::FcOutcome { task, si, reached }),
        trigger_strategy().prop_map(|trigger| Event::Reselect { trigger }),
        (
            si_strategy(),
            proptest::option::of(any::<u32>()),
            any::<u32>(),
            molecule_strategy(),
        )
            .prop_map(|(si, task, step, molecule)| Event::UpgradeStep {
                si,
                task,
                step,
                molecule,
            }),
    ]
}

fn records_strategy() -> impl Strategy<Value = Vec<Record>> {
    // Timestamps deliberately unordered: the delta encoding must not
    // assume monotone time.
    proptest::collection::vec(
        (any::<u64>(), event_strategy()).prop_map(|(at, event)| Record { at, event }),
        0..40,
    )
}

/// The Molecule a small-field execution carries.
#[derive(Debug, Clone)]
enum MoleculeChoice {
    Absent,
    /// One the stream has not seen yet.
    New,
    /// An interned one: this value modulo the intern table's length (a
    /// new one while the table is empty).
    Repeat(usize),
}

/// A Molecule distinct from every other `interned(j)`, `j != k`.
fn interned(k: usize) -> Molecule {
    Molecule::from_counts([k as u32, 1, 2])
}

/// `SiExecuted` streams whose fields straddle the encoder's fixed layout
/// (and so the decoder's): small timestamp steps either way, delta and
/// cycle varints at 0x3FFF / 0x4000, task, SI and intern index at 0x7F /
/// 0x80, and Molecules absent, new or repeated. A stream first interns
/// 0, 3, 128 or 129 Molecules, so indices 0x7F and 0x80 exist.
fn small_field_si_records() -> impl Strategy<Value = Vec<Record>> {
    // Zigzag folds these to deltas 0x3FFE, 0x4000, 0x3FFF and 0x4001.
    let step = prop_oneof![
        -64i64..64,
        Just(8_191),
        Just(8_192),
        Just(-8_192),
        Just(-8_193)
    ];
    let id = || prop_oneof![0usize..4, Just(0x7F), Just(0x80)];
    let cycles = prop_oneof![0u64..64, Just(0x3FFF), Just(0x4000)];
    let molecule = prop_oneof![
        Just(MoleculeChoice::Absent),
        Just(MoleculeChoice::New),
        prop_oneof![Just(0x7F), Just(0x80), any::<usize>()].prop_map(MoleculeChoice::Repeat),
    ];
    (
        prop_oneof![Just(0usize), Just(3), Just(0x80), Just(0x81)],
        prop_oneof![Just(0u64), any::<u64>()],
        proptest::collection::vec(((step, any::<bool>()), id(), id(), cycles, molecule), 1..40),
    )
        .prop_map(|(prelude, start, executions)| {
            let mut table = 0;
            let mut at = start;
            let mut records = Vec::new();
            let mut push = |at: u64, task: usize, si: usize, hw, cycles, molecule| {
                records.push(Record {
                    at,
                    event: Event::SiExecuted {
                        task: task as u32,
                        si: SiId(si),
                        hw,
                        cycles,
                        molecule,
                    },
                });
            };
            for k in 0..prelude {
                at = at.wrapping_add(1);
                push(at, 0, 0, true, 1, Some(interned(k)));
                table += 1;
            }
            for ((step, hw), task, si, cycles, choice) in executions {
                at = at.wrapping_add(step as u64);
                let molecule = match choice {
                    MoleculeChoice::Absent => None,
                    MoleculeChoice::Repeat(r) if table > 0 => Some(interned(r % table)),
                    MoleculeChoice::Repeat(_) | MoleculeChoice::New => {
                        table += 1;
                        Some(interned(table - 1))
                    }
                };
                push(at, task, si, hw, cycles, molecule);
            }
            records
        })
}

fn encode(records: &[Record]) -> Vec<u8> {
    let mut sink = BinarySink::new(Vec::new());
    for r in records {
        sink.emit(r.at, &r.event);
    }
    sink.into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_event_sequence_round_trips(records in records_strategy()) {
        let bytes = encode(&records);
        let mut out = TimelineSink::new();
        bin::replay(&bytes, &mut out).expect("own encoding replays");
        prop_assert_eq!(out.timeline().entries(), records.as_slice());
    }

    #[test]
    fn chunked_streaming_decode_matches(
        records in records_strategy(),
        chunk in 1usize..13,
    ) {
        let bytes = encode(&records);
        let mut decoder = StreamDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            while let Some(record) = decoder.next_record().expect("valid stream") {
                got.push(record);
            }
        }
        prop_assert_eq!(got.as_slice(), records.as_slice());
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn every_strict_prefix_is_incomplete_never_wrong(records in records_strategy()) {
        // Cutting the byte stream anywhere yields a prefix of the
        // record sequence — never a decode of something that was not
        // emitted — plus possibly an incomplete tail.
        let bytes = encode(&records);
        if bytes.len() >= 2 {
            let cut = bytes.len() / 2;
            let mut decoder = StreamDecoder::new();
            decoder.feed(&bytes[..cut]);
            let mut got = Vec::new();
            while let Some(record) = decoder.next_record().expect("prefix decodes cleanly") {
                got.push(record);
            }
            prop_assert!(got.len() <= records.len());
            prop_assert_eq!(got.as_slice(), &records[..got.len()]);
        }
    }

    #[test]
    fn small_field_executions_round_trip_in_any_chunking(
        records in small_field_si_records(),
        sizes in proptest::collection::vec(1usize..24, 1..8),
    ) {
        let bytes = encode(&records);
        let mut decoder = StreamDecoder::new();
        let mut got = Vec::new();
        let mut rest = bytes.as_slice();
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            decoder.feed(piece);
            while let Some(record) = decoder.next_record().expect("valid stream") {
                got.push(record);
            }
        }
        prop_assert_eq!(got.as_slice(), records.as_slice());
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }
}
