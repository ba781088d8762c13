//! Pins `ShardSpec::run` on live-codec shards: one FNV-1a digest per
//! configuration over the binary export, the JSONL export, the
//! `MetricsSummary`, the latency histogram and the `CodecRunOutcome`.
//!
//! The grid covers 0, 4 and 6 Atom Containers, with and without a
//! seeded fault plan, in both power modes. A change to SI dispatch,
//! event capture or the encoder that must keep every decision and every
//! exported byte identical passes this test unedited.

use rispp_core::energy::EnergyModel;
use rispp_fabric::FaultPlan;
use rispp_rt::selection::PowerMode;
use rispp_sim::spec::{Scenario, ShardOutcome, ShardSpec, SinkSpec};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The synthetic video's seed.
const SEED: u64 = 2007;
/// The fault plan's seed and the cycles over which it scatters its
/// stalls and transient faults: the first third of a run below, where
/// the rotations are. This plan fails two rotations, quarantines a
/// container, stalls the port twice and upsets two containers.
const FAULT_SEED: u64 = 5;
const FAULT_HORIZON: u64 = 500_000;

fn power_mode(name: &str) -> PowerMode {
    match name {
        "performance" => PowerMode::Performance,
        "energy" => PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        },
        other => panic!("unknown power mode {other:?}"),
    }
}

fn spec(containers: usize, faulted: bool, mode: &str, sink: SinkSpec) -> ShardSpec {
    let scenario = Scenario::LiveCodec {
        width: 48,
        height: 32,
        frames: 3,
        containers,
    };
    let mut spec = ShardSpec::new(scenario, SEED)
        .with_power_mode(power_mode(mode))
        .with_sink(sink);
    if faulted {
        spec = spec.with_faults(FaultPlan::seeded(FAULT_SEED, containers, FAULT_HORIZON));
    }
    spec
}

/// Everything but the captures: the outcome's counts, summary,
/// histogram and codec result.
fn hash_outcome(h: &mut Fnv, out: &ShardOutcome) {
    h.u64(out.events);
    h.u64(out.sim_cycles);
    let s = &out.summary;
    h.u64(s.elapsed_cycles);
    h.f64(s.fabric_occupancy);
    h.f64(s.logic_utilization);
    h.f64(s.bus_busy_fraction);
    h.u64(s.rotations_completed);
    h.u64(s.forecast_windows);
    h.f64(s.forecast_precision);
    h.f64(s.forecast_recall);
    h.u64(u64::from(s.fc_hit_rate.is_some()));
    h.f64(s.fc_hit_rate.unwrap_or(0.0));
    h.u64(s.executions_total);
    h.f64(s.hw_fraction);
    h.u64(s.cycles_saved_vs_sw);
    let l = &out.latency;
    h.u64(l.count());
    h.u64(l.sum_cycles());
    h.u64(l.min().unwrap_or(0));
    h.u64(l.max().unwrap_or(0));
    for (bound, n) in l.nonzero_buckets() {
        h.u64(bound);
        h.u64(n);
    }
    let c = out.codec.as_ref().expect("a live-codec outcome");
    h.u64(c.frames as u64);
    h.u64(c.total_cycles);
    h.u64(c.si_invocations);
    h.f64(c.hw_fraction);
    h.f64(c.mean_psnr);
    h.u64(c.total_bits as u64);
    h.u64(c.rotations);
}

fn digest(containers: usize, faulted: bool, mode: &str) -> u64 {
    let binary = spec(containers, faulted, mode, SinkSpec::Binary).run();
    let jsonl = spec(containers, faulted, mode, SinkSpec::Jsonl).run();
    let mut h = Fnv::new();
    let bytes = binary.binary.as_deref().expect("a binary capture");
    h.u64(bytes.len() as u64);
    h.bytes(bytes);
    let text = jsonl.jsonl.as_deref().expect("a JSONL capture");
    h.u64(text.len() as u64);
    h.bytes(text.as_bytes());
    hash_outcome(&mut h, &binary);
    // The two runs differ only in their capture.
    let mut a = Fnv::new();
    hash_outcome(&mut a, &binary);
    let mut b = Fnv::new();
    hash_outcome(&mut b, &jsonl);
    assert_eq!(a.0, b.0, "the capture changed the run");
    h.0
}

/// `(containers, faulted, power mode, digest)`.
const GOLDEN: [(usize, bool, &str, u64); 12] = [
    (0, false, "performance", 0x6018_b037_8f86_74bd),
    (0, false, "energy", 0x6018_b037_8f86_74bd),
    (0, true, "performance", 0x6018_b037_8f86_74bd),
    (0, true, "energy", 0x6018_b037_8f86_74bd),
    (4, false, "performance", 0xf6a5_8ae5_c1a0_6c38),
    (4, false, "energy", 0xf6a5_8ae5_c1a0_6c38),
    (4, true, "performance", 0x2db7_3df0_e77f_3dc7),
    (4, true, "energy", 0x488e_9a14_7533_0585),
    (6, false, "performance", 0x946b_9516_7e3f_24f4),
    (6, false, "energy", 0x946b_9516_7e3f_24f4),
    (6, true, "performance", 0x7b73_babf_6e0c_89d9),
    (6, true, "energy", 0x7b73_babf_6e0c_89d9),
];

#[test]
fn live_codec_shards_are_pinned() {
    let mut mismatches = Vec::new();
    for &(containers, faulted, mode, expected) in &GOLDEN {
        let got = digest(containers, faulted, mode);
        if got != expected {
            mismatches.push(format!("({containers}, {faulted}, {mode:?}, {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "live-codec run moved; digests now:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn the_faulted_grid_meets_its_faults() {
    // The faulted rows pin fault handling only if the plans land inside
    // the runs: every faulted 4- and 6-container run must fail a
    // rotation or stall the port.
    for containers in [4, 6] {
        for mode in ["performance", "energy"] {
            let out = spec(containers, true, mode, SinkSpec::Timeline).run();
            let timeline = out.timeline.expect("a timeline capture");
            let hit = timeline.entries().iter().any(|r| {
                matches!(
                    r.event,
                    rispp_obs::Event::RotationFailed { .. } | rispp_obs::Event::PortStalled { .. }
                )
            });
            assert!(
                hit,
                "{containers} containers, {mode}: no fault reached the run"
            );
        }
    }
}
