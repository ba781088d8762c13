//! Fleet determinism and aggregation invariants, end to end through the
//! facade crate:
//!
//! * a shard of an N-shard fleet, re-run standalone from its derived
//!   seed, reproduces the fleet's result **byte-identically** (JSONL and
//!   binary exports and all) — the contract that makes any fleet member
//!   debuggable in isolation — and so does every other run;
//! * fleet aggregation is invariant under shard permutation (the join
//!   stage folds in canonical order, so float sums cannot depend on
//!   thread finish order);
//! * the fan-out actually uses min(shards, cores) OS threads;
//! * the binary captures `rispp-obs`'s decoder tests read are what a
//!   fresh shard run writes.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rispp::prelude::*;

fn stress_factory(fleet_seed: u64) -> ScenarioFactory {
    ScenarioFactory::new(
        Scenario::Stress {
            platforms: 2,
            steps: 60,
        },
        fleet_seed,
    )
}

#[test]
fn derived_shard_seeds_are_distinct_and_stable() {
    let seeds: Vec<u64> = (0..64).map(|k| derive_shard_seed(42, k)).collect();
    for (i, a) in seeds.iter().enumerate() {
        for b in &seeds[i + 1..] {
            assert_ne!(a, b, "shard seeds collide");
        }
    }
    // Stable across calls — a shard's identity never depends on when it
    // is derived.
    assert_eq!(
        seeds,
        (0..64)
            .map(|k| derive_shard_seed(42, k))
            .collect::<Vec<_>>()
    );
}

#[test]
fn stress_shard_replays_byte_identical_jsonl() {
    let factory = stress_factory(2_026).with_sink(SinkSpec::Jsonl);
    let fleet = run_fleet(&factory, &FleetConfig::new(3));
    assert_eq!(fleet.shards.len(), 3);
    for (k, shard) in fleet.shards.iter().enumerate() {
        let replay = factory.spec_for(k as u32).run();
        let fleet_jsonl = shard.jsonl.as_deref().expect("fleet captured JSONL");
        let replay_jsonl = replay.jsonl.as_deref().expect("replay captured JSONL");
        assert_eq!(
            fleet_jsonl.as_bytes(),
            replay_jsonl.as_bytes(),
            "shard {k} diverged"
        );
        assert_eq!(&replay, shard, "shard {k} outcome diverged");
    }
}

#[test]
fn live_codec_shard_replays_byte_identical_jsonl() {
    let factory = ScenarioFactory::new(
        Scenario::LiveCodec {
            width: 32,
            height: 32,
            frames: 1,
            containers: 4,
        },
        7,
    )
    .with_sink(SinkSpec::Jsonl);
    let fleet = run_fleet(&factory, &FleetConfig::new(2));
    let replay = factory.spec_for(1).run();
    assert_eq!(
        replay
            .jsonl
            .as_deref()
            .expect("replay captured JSONL")
            .as_bytes(),
        fleet.shards[1]
            .jsonl
            .as_deref()
            .expect("fleet captured JSONL")
            .as_bytes(),
    );
    assert_eq!(&replay, &fleet.shards[1]);
    // The functional outcome rides along: same pixels, same bits.
    assert_eq!(replay.codec, fleet.shards[1].codec);
}

/// Every run writes the same bytes. For each scenario, with and without
/// a fault plan, under both codecs, every shard of a fleet and its
/// standalone replay export the same stream; and an engine built
/// without a spec exports the same stream on every run.
#[test]
fn every_run_replays_byte_identical() {
    let live_codec = Scenario::LiveCodec {
        width: 32,
        height: 32,
        frames: 1,
        containers: 4,
    };
    let cases = [
        (Scenario::Fig6, None),
        (Scenario::Fig6, Some(2_000_000)),
        (
            Scenario::Stress {
                platforms: 2,
                steps: 60,
            },
            None,
        ),
        (live_codec, None),
    ];
    for (scenario, fault_horizon) in cases {
        for sink in [SinkSpec::Jsonl, SinkSpec::Binary] {
            let factory = ScenarioFactory::new(scenario, 2_026)
                .with_sink(sink)
                .with_fault_horizon(fault_horizon);
            let export = |out: &ShardOutcome| -> Vec<u8> {
                let bytes = match sink {
                    SinkSpec::Jsonl => out.jsonl.clone().map(String::into_bytes),
                    _ => out.binary.clone(),
                };
                bytes.expect("export captured")
            };
            let fleet = run_fleet(&factory, &FleetConfig::new(2));
            for (k, shard) in fleet.shards.iter().enumerate() {
                let case = format!(
                    "{} {sink:?} faults {fault_horizon:?} shard {k}",
                    scenario.id()
                );
                let replay = factory.spec_for(k as u32).run();
                assert!(!export(shard).is_empty(), "{case}: empty export");
                assert!(export(&replay) == export(shard), "{case}: export diverged");
                assert_eq!(&replay, shard, "{case}: outcome diverged");
            }
        }
    }

    let capture = || {
        let (mut engine, _) = rispp::sim::fig6_engine();
        let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
        let binary = Rc::new(RefCell::new(BinarySink::new(Vec::new())));
        engine.attach_sink(SinkHandle::shared(jsonl.clone()));
        engine.attach_sink(SinkHandle::shared(binary.clone()));
        engine.run(100_000);
        drop(engine);
        let jsonl = Rc::try_unwrap(jsonl).expect("engine released its sinks");
        let binary = Rc::try_unwrap(binary).expect("engine released its sinks");
        (
            jsonl.into_inner().into_inner(),
            binary.into_inner().into_inner(),
        )
    };
    let (jsonl, binary) = capture();
    assert!(!jsonl.is_empty() && !binary.is_empty());
    assert!(capture() == (jsonl, binary), "fig6_engine export diverged");
}

#[test]
fn binary_shard_capture_decodes_to_the_jsonl_event_sequence() {
    // The same shard spec run under each sink: replay determinism means
    // both captures describe one event sequence, in different codecs.
    let factory = stress_factory(2_026);
    let jsonl = factory
        .clone()
        .with_sink(SinkSpec::Jsonl)
        .spec_for(1)
        .run()
        .jsonl
        .expect("JSONL captured");
    let binary = factory
        .clone()
        .with_sink(SinkSpec::Binary)
        .spec_for(1)
        .run()
        .binary
        .expect("binary captured");

    // Decoding the binary capture and re-encoding every record through
    // a fresh JsonlSink must reproduce the JSONL export byte for byte.
    let mut reencoded = JsonlSink::new(Vec::new());
    rispp::obs::bin::replay(&binary, &mut reencoded).expect("binary capture decodes");
    assert_eq!(
        String::from_utf8(reencoded.into_inner()).expect("JSONL is UTF-8"),
        jsonl,
        "binary capture decodes to a different event sequence"
    );
}

/// The binary captures `rispp-obs`'s decoder unit tests read (crates
/// below `sim` cannot run a shard themselves). After a deliberate change
/// to either event stream, re-bless them with
/// `RISPP_BLESS=1 cargo test -p rispp --test fleet decoder_fixtures`.
#[test]
fn decoder_fixtures_equal_fresh_captures() {
    let fixtures = [
        (
            "live_codec.bin",
            Scenario::LiveCodec {
                width: 32,
                height: 32,
                frames: 1,
                containers: 4,
            },
            7,
        ),
        (
            "stress.bin",
            Scenario::Stress {
                platforms: 2,
                steps: 60,
            },
            2_026,
        ),
    ];
    for (name, scenario, seed) in fixtures {
        let capture = ShardSpec::new(scenario, seed)
            .with_sink(SinkSpec::Binary)
            .run()
            .binary
            .expect("binary captured");
        let path = format!("{}/../obs/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("RISPP_BLESS").is_some() {
            std::fs::write(&path, &capture).expect("bless decoder fixture");
            continue;
        }
        let fixture =
            std::fs::read(&path).expect("decoder fixture missing — create it with RISPP_BLESS=1");
        assert!(
            fixture == capture,
            "{path} differs from a fresh capture; if the change is intentional, \
             re-bless with RISPP_BLESS=1"
        );
    }
}

#[test]
fn timeline_capture_is_reproduced_too() {
    let factory = stress_factory(11).with_sink(SinkSpec::Timeline);
    let fleet = run_fleet(&factory, &FleetConfig::new(2));
    let replay = factory.spec_for(0).run();
    assert_eq!(replay.timeline, fleet.shards[0].timeline);
}

#[test]
fn fleet_uses_min_of_shards_and_cores_threads() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let fleet = run_fleet(&stress_factory(3), &FleetConfig::new(4));
    assert!(
        fleet.threads >= 4.min(cores),
        "fleet ran on {} threads, expected at least {}",
        fleet.threads,
        4.min(cores)
    );
    assert_eq!(fleet.shards.len(), 4);
}

#[test]
fn fleet_aggregate_totals_are_shard_sums() {
    let fleet = run_fleet(&stress_factory(5), &FleetConfig::new(3));
    let agg = &fleet.aggregate;
    assert_eq!(agg.shards, 3);
    assert_eq!(
        agg.events,
        fleet.shards.iter().map(|s| s.events).sum::<u64>()
    );
    assert_eq!(
        agg.sim_cycles,
        fleet.shards.iter().map(|s| s.sim_cycles).sum::<u64>()
    );
    assert_eq!(
        agg.latency.count(),
        fleet.shards.iter().map(|s| s.latency.count()).sum::<u64>()
    );
}

/// Fisher–Yates driven by a splitmix stream, so proptest only has to
/// supply one `u64` to explore the permutation space.
fn permuted<T: Clone>(items: &[T], mut state: u64) -> Vec<T> {
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fleet_aggregation_is_permutation_invariant(perm_seed in any::<u64>()) {
        // One fleet, folded in every order proptest proposes: the
        // aggregate (floats included) must be exactly equal.
        let fleet = run_fleet(&stress_factory(9), &FleetConfig::new(4));
        let canonical = FleetAggregate::from_shards(&fleet.shards);
        let shuffled = permuted(&fleet.shards, perm_seed);
        let reordered = FleetAggregate::from_shards(&shuffled);
        prop_assert_eq!(canonical, reordered);
    }
}
