//! Self-tests of the benchmark: the traced loop's fidelity, and that
//! the fidelity checks catch what they are meant to catch.

use rispp::sim::{Scenario, ShardSpec, SinkSpec};

use crate::fleet::{
    any_seed_failures, fleet_failures, molecules_beat_software, ShardFacts, SimWorkload,
    DEFAULT_SEED, FLEET_SHARDS,
};
use crate::ingest::{capture, run_session, LogDir};
use crate::trace::{trace_shard, Tracer};

fn small_codec(seed: u64) -> ShardSpec {
    let scenario = Scenario::LiveCodec {
        width: 48,
        height: 32,
        frames: 3,
        containers: 5,
    };
    ShardSpec::new(scenario, seed).with_sink(SinkSpec::Binary)
}

fn small_stress(seed: u64) -> ShardSpec {
    let scenario = Scenario::Stress {
        platforms: 4,
        steps: 150,
    };
    ShardSpec::new(scenario, seed).with_sink(SinkSpec::Metrics)
}

#[test]
fn traced_loop_reproduces_shard_spec_run() {
    for spec in [small_codec(3), small_stress(3)] {
        let out = spec.run();
        let traced = trace_shard(&spec, &mut Tracer::new());
        assert_eq!(traced.facts, ShardFacts::of(&out), "{:?}", spec.scenario);
        assert_eq!(traced.events, out.events);
        assert_eq!(traced.summary, out.summary);
        let bytes = out.binary.map_or(0, |b| b.len() as u64);
        assert_eq!(traced.bin_bytes, bytes);
    }
}

#[test]
fn a_corrupted_pinned_digest_raises_failed_share() {
    let specs = [small_codec(DEFAULT_SEED), small_stress(DEFAULT_SEED)];
    let facts: Vec<ShardFacts> = specs.iter().map(|s| ShardFacts::of(&s.run())).collect();
    let mut pinned: Vec<u64> = facts.iter().map(ShardFacts::digest).collect();
    let failed = |pinned: &[u64]| {
        fleet_failures(DEFAULT_SEED, &specs, &facts, &[false, false], pinned)
            .iter()
            .filter(|f| !f.is_empty())
            .count()
    };
    assert_eq!(failed(&pinned), 0);
    pinned[1] ^= 1;
    assert_eq!(failed(&pinned), 1);
}

#[test]
fn two_seeds_give_different_digests_and_pass_the_any_seed_checks() {
    for make in [small_codec, small_stress] {
        let (a, b) = (make(11), make(12));
        let (fa, fb) = (ShardFacts::of(&a.run()), ShardFacts::of(&b.run()));
        assert_ne!(fa.digest(), fb.digest());
        assert!(any_seed_failures(&a, &fa).is_empty());
        assert!(any_seed_failures(&b, &fb).is_empty());
    }
}

#[test]
fn shard_zero_of_each_fleet_matches_its_pinned_digest() {
    for workload in [SimWorkload::Codec, SimWorkload::Stress] {
        let facts = ShardFacts::of(&workload.fleet(DEFAULT_SEED, 1).0[0].run());
        assert_eq!(workload.pinned().first(), Some(&facts.digest()));
    }
}

#[test]
fn the_stress_fleet_skips_the_known_defect_which_its_check_still_catches() {
    // Candidate 6 of the default seed has an SI with software latency 64
    // and a 66-cycle hardware Molecule, which the manager runs.
    let spec = SimWorkload::Stress.candidate(DEFAULT_SEED, 6);
    assert!(!molecules_beat_software(&spec));
    let failures = any_seed_failures(&spec, &ShardFacts::of(&spec.run()));
    assert!(
        failures.iter().any(|f| f.contains("slower than software")),
        "{failures:?}"
    );
    let (fleet, skipped) = SimWorkload::Stress.fleet(DEFAULT_SEED, FLEET_SHARDS);
    assert!(skipped > 0 && fleet.iter().all(molecules_beat_software));
    assert!(fleet.iter().all(|s| s.seed != spec.seed));
    let (codec, skipped) = SimWorkload::Codec.fleet(DEFAULT_SEED, 3);
    assert_eq!(skipped, 0);
    assert_eq!(
        codec[2].seed,
        SimWorkload::Codec.candidate(DEFAULT_SEED, 2).seed
    );
}

#[test]
fn an_ingest_session_folds_every_log_as_captured() {
    let logs = capture(5);
    let dir = LogDir::create().expect("session directory");
    let session = run_session(&dir, &logs, true).expect("session");
    for (i, log) in logs.iter().enumerate() {
        assert!(session.failures(i, log).is_empty(), "log {i}");
    }
    assert!(session.polls.len() > 100 && session.renders.len() > 1);
}
