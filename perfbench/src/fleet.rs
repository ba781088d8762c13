//! The two simulation workloads, `codec` and `stress`: their shard
//! fleets, the per-shard facts that show decision identity, and the
//! fidelity checks that feed `failed_share`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rispp::sim::{
    derive_shard_seed, random_platform, Scenario, ShardOutcome, ShardSpec, SinkSpec, StressTotals,
};

/// The seed whose per-shard digests are pinned in `expected/`.
pub const DEFAULT_SEED: u64 = 0;

/// Distinct shards in a simulation fleet: the fewest that leave ten
/// per-shard times beyond the p90, so each shard is timed as often as
/// the run allows.
pub const FLEET_SHARDS: u32 = 100;

/// SI invocations per macroblock in the paper's Fig. 7 flow
/// (256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2).
pub const SIS_PER_MACROBLOCK: u64 = 283;

/// Fig. 12's cycles per macroblock for 4, 5 and 6 Atom Containers.
pub const FIG12_CYCLES_PER_MB: [(usize, f64); 3] = [(4, 60_244.0), (5, 59_135.0), (6, 58_287.0)];

const PINNED_CODEC: &str = include_str!("../expected/codec.txt");
const PINNED_STRESS: &str = include_str!("../expected/stress.txt");

/// A simulation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Live H.264 encoder shards with binary capture.
    Codec,
    /// Random-platform stress shards with metrics sinks.
    Stress,
}

impl SimWorkload {
    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Codec => "codec",
            SimWorkload::Stress => "stress",
        }
    }

    /// Candidate shard `candidate` of the fleet seeded `seed`. On `codec`
    /// every candidate is in the fleet; on `stress` see [`Self::fleet`].
    #[must_use]
    pub fn candidate(self, seed: u64, candidate: u32) -> ShardSpec {
        let seed = derive_shard_seed(seed, candidate);
        match self {
            SimWorkload::Codec => ShardSpec::new(
                Scenario::LiveCodec {
                    width: 176,
                    height: 144,
                    frames: 4,
                    containers: 4 + candidate as usize % 3,
                },
                seed,
            )
            .with_sink(SinkSpec::Binary),
            SimWorkload::Stress => ShardSpec::new(
                Scenario::Stress {
                    platforms: 40,
                    steps: 400,
                },
                seed,
            )
            .with_sink(SinkSpec::Metrics),
        }
    }

    /// The fleet of `shards` specs seeded `seed`: the first candidates
    /// whose platforms all satisfy [`molecules_beat_software`], and how
    /// many candidates were skipped before them. Only `stress` skips
    /// any: on a platform with a hardware Molecule slower than software
    /// the program runs that Molecule, which its `with_checks(true)`
    /// twin refuses (README, Known defects), and a workload must not
    /// include an operation that fails.
    #[must_use]
    pub fn fleet(self, seed: u64, shards: u32) -> (Vec<ShardSpec>, u32) {
        let mut specs = Vec::with_capacity(shards as usize);
        let mut skipped = 0;
        let mut candidate = 0;
        while specs.len() < shards as usize {
            let spec = self.candidate(seed, candidate);
            if molecules_beat_software(&spec) {
                specs.push(spec);
            } else {
                skipped += 1;
            }
            candidate += 1;
        }
        (specs, skipped)
    }

    /// The digests pinned for [`DEFAULT_SEED`], indexed by shard.
    #[must_use]
    pub fn pinned(self) -> Vec<u64> {
        let text = match self {
            SimWorkload::Codec => PINNED_CODEC,
            SimWorkload::Stress => PINNED_STRESS,
        };
        parse_pinned(text)
    }
}

/// Whether every platform of a `stress` spec gives each SI only hardware
/// Molecules at most as slow as its software Molecule: the invariant
/// the spec's `with_checks(true)` twin asserts on every execution.
/// Draws the platforms as [`ShardSpec::run`] does, platform `p` from
/// `StdRng::seed_from_u64(seed + p)`. Other scenarios run the fixed
/// H.264 library and are not screened.
#[must_use]
pub fn molecules_beat_software(spec: &ShardSpec) -> bool {
    let Scenario::Stress { platforms, .. } = spec.scenario else {
        return true;
    };
    (0..platforms).all(|platform| {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(platform));
        let (lib, _) = random_platform(&mut rng);
        let beats = lib
            .iter()
            .all(|(_, si)| si.molecules().iter().all(|m| m.cycles <= si.sw_cycles()));
        beats
    })
}

/// Parses `shard digest` lines (hex digest, `#` comments), indexed by
/// shard. A malformed line yields a zero digest, which matches nothing.
#[must_use]
pub fn parse_pinned(text: &str) -> Vec<u64> {
    let mut digests = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let shard = fields.next().and_then(|s| s.parse::<usize>().ok());
        let digest = fields.next().and_then(|s| u64::from_str_radix(s, 16).ok());
        if let Some(shard) = shard {
            if digests.len() <= shard {
                digests.resize(shard + 1, 0);
            }
            digests[shard] = digest.unwrap_or(0);
        }
    }
    digests
}

/// The outputs of one shard that show decision identity. Event counts
/// and summary gauges are left out on purpose: fixing a gauge or adding
/// a record kind must not read as a changed decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardFacts {
    /// SI executions.
    pub executions: u64,
    /// SI executions that ran in hardware.
    pub hw_executions: u64,
    /// Rotations the manager requested.
    pub rotations_requested: u64,
    /// Rotations that completed.
    pub rotations_completed: u64,
    /// Simulated cycles (summed over stress platforms).
    pub sim_cycles: u64,
    /// Entropy-coded bits (codec only).
    pub bits: u64,
    /// Bit pattern of the mean luma PSNR (codec only).
    pub psnr_bits: u64,
    /// The stress harness's tallies (stress only).
    pub stress: Option<StressTotals>,
}

impl ShardFacts {
    /// Distils the facts of a [`ShardSpec::run`] outcome.
    ///
    /// # Panics
    ///
    /// Panics on a Fig. 6 outcome, which no workload runs.
    #[must_use]
    pub fn of(out: &ShardOutcome) -> Self {
        let rotations_completed = out.summary.rotations_completed;
        if let Some(codec) = &out.codec {
            ShardFacts {
                executions: codec.si_invocations,
                hw_executions: (codec.hw_fraction * codec.si_invocations as f64).round() as u64,
                rotations_requested: codec.rotations,
                rotations_completed,
                sim_cycles: codec.total_cycles,
                bits: codec.total_bits as u64,
                psnr_bits: codec.mean_psnr.to_bits(),
                stress: None,
            }
        } else {
            let stress = out.stress.expect("a codec or stress outcome");
            ShardFacts {
                executions: stress.executions,
                hw_executions: stress.hw_executions,
                rotations_requested: stress.rotations_requested,
                rotations_completed,
                sim_cycles: out.sim_cycles,
                bits: 0,
                psnr_bits: 0,
                stress: Some(stress),
            }
        }
    }

    /// FNV-1a over every field.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let s = self.stress.unwrap_or_default();
        let words = [
            self.executions,
            self.hw_executions,
            self.rotations_requested,
            self.rotations_completed,
            self.sim_cycles,
            self.bits,
            self.psnr_bits,
            s.forecasts,
            s.retractions,
            s.executions,
            s.hw_executions,
            s.rotations_requested,
        ];
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// The checks that hold on any seed, for one shard whose outcome has
/// `facts`. Returns the reasons it failed (empty when it passed).
///
/// * codec: every macroblock ran [`SIS_PER_MACROBLOCK`] SIs, and bits
///   and PSNR equal the same video encoded on 0 containers;
/// * stress: the shard equals its `with_checks(true)` twin, whose
///   per-step invariant assertions must also hold.
#[must_use]
pub fn any_seed_failures(spec: &ShardSpec, facts: &ShardFacts) -> Vec<String> {
    let mut failures = Vec::new();
    match spec.scenario {
        Scenario::LiveCodec {
            width,
            height,
            frames,
            containers,
        } => {
            let mbs = (width / 16 * (height / 16) * frames) as u64;
            if facts.executions != SIS_PER_MACROBLOCK * mbs {
                failures.push(format!(
                    "{} SIs over {mbs} macroblocks, expected {} each",
                    facts.executions, SIS_PER_MACROBLOCK
                ));
            }
            let mut software = spec.clone().with_sink(SinkSpec::Null);
            software.scenario = Scenario::LiveCodec {
                width,
                height,
                frames,
                containers: 0,
            };
            let reference = ShardFacts::of(&software.run());
            if (reference.bits, reference.psnr_bits) != (facts.bits, facts.psnr_bits) {
                failures.push(format!(
                    "bits/PSNR {}/{} differ from the 0-container encode {}/{} ({containers} containers)",
                    facts.bits,
                    f64::from_bits(facts.psnr_bits),
                    reference.bits,
                    f64::from_bits(reference.psnr_bits)
                ));
            }
        }
        Scenario::Stress { .. } => match run_quietly(&spec.clone().with_checks(true)) {
            Ok(out) => {
                let checked = ShardFacts::of(&out);
                if checked != *facts {
                    failures.push(format!(
                        "differs from its with_checks twin: {facts:?} vs {checked:?}"
                    ));
                }
            }
            Err(message) => {
                failures.push(format!("with_checks twin violated an invariant: {message}"));
            }
        },
        Scenario::Fig6 => failures.push("fig6 is not a benchmark workload".to_string()),
    }
    failures
}

/// Runs `spec`, turning a panic into its message instead of printing it.
fn run_quietly(spec: &ShardSpec) -> Result<ShardOutcome, String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| spec.run()));
    std::panic::set_hook(hook);
    result.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    })
}

/// Whether shard `shard`'s digest misses its pinned value. Only the
/// default seed is pinned; a shard beyond the table counts as a miss.
#[must_use]
pub fn pinned_mismatch(seed: u64, pinned: &[u64], shard: usize, digest: u64) -> bool {
    seed == DEFAULT_SEED && pinned.get(shard) != Some(&digest)
}

/// Timed passes over a fleet, repeated until the time is up.
pub struct FleetTiming {
    /// Host milliseconds of each repetition, per shard.
    pub shard_ms: Vec<Vec<f64>>,
    /// Facts of each shard's first repetition.
    pub facts: Vec<ShardFacts>,
    /// Events each shard emitted.
    pub events: Vec<u64>,
    /// Shards whose repetitions disagreed on their facts.
    pub unstable: Vec<bool>,
}

/// Runs `specs` round-robin, timing each [`ShardSpec::run`], for at
/// least one full pass and until `seconds` have passed; `between` runs
/// untimed before every shard.
#[must_use]
pub fn time_fleet(specs: &[ShardSpec], seconds: f64, mut between: impl FnMut()) -> FleetTiming {
    let n = specs.len();
    let mut timing = FleetTiming {
        shard_ms: vec![Vec::new(); n],
        facts: Vec::with_capacity(n),
        events: Vec::with_capacity(n),
        unstable: vec![false; n],
    };
    let start = Instant::now();
    let mut i = 0;
    while i < n || start.elapsed().as_secs_f64() < seconds {
        between();
        let k = i % n;
        let t = Instant::now();
        let out = std::hint::black_box(specs[k].run());
        timing.shard_ms[k].push(t.elapsed().as_secs_f64() * 1e3);
        let facts = ShardFacts::of(&out);
        if i < n {
            timing.facts.push(facts);
            timing.events.push(out.events);
        } else if facts != timing.facts[k] {
            timing.unstable[k] = true;
        }
        i += 1;
    }
    timing
}

/// Fig. 12 residual: the largest absolute relative error, in percent,
/// of simulated cycles per macroblock after frame 1 against the paper,
/// over the container counts in `fleet`. Frame 1's cycles come from a
/// one-frame twin of the first shard with each container count, since
/// a run's prefix does not depend on how many frames follow.
#[must_use]
pub fn fig12_err_pct(fleet: &[ShardSpec], facts: &[ShardFacts]) -> Vec<(usize, f64)> {
    let mut errors = Vec::new();
    for (containers, paper) in FIG12_CYCLES_PER_MB {
        let found = fleet.iter().zip(facts).find(|(spec, _)| {
            matches!(spec.scenario, Scenario::LiveCodec { containers: c, .. } if c == containers)
        });
        let Some((spec, facts)) = found else { continue };
        let Scenario::LiveCodec {
            width,
            height,
            frames,
            ..
        } = spec.scenario
        else {
            continue;
        };
        let mut first = spec.clone().with_sink(SinkSpec::Null);
        first.scenario = Scenario::LiveCodec {
            width,
            height,
            frames: 1,
            containers,
        };
        let frame1 = first.run().sim_cycles;
        let mbs = (width / 16 * (height / 16) * (frames - 1)) as f64;
        let per_mb = (facts.sim_cycles - frame1) as f64 / mbs;
        errors.push((containers, (per_mb - paper).abs() / paper * 100.0));
    }
    errors
}

/// Every failed check of a fleet, per shard: the checks that hold on
/// any seed, agreement between repetitions, and — for the default seed
/// — the pinned digests.
#[must_use]
pub fn fleet_failures(
    seed: u64,
    specs: &[ShardSpec],
    facts: &[ShardFacts],
    unstable: &[bool],
    pinned: &[u64],
) -> Vec<Vec<String>> {
    specs
        .iter()
        .zip(facts)
        .zip(unstable)
        .enumerate()
        .map(|(k, ((spec, facts), &unstable))| {
            let mut failures = any_seed_failures(spec, facts);
            if unstable {
                failures.push("repetitions disagree".to_string());
            }
            if pinned_mismatch(seed, pinned, k, facts.digest()) {
                failures.push(format!(
                    "digest {:016x} misses its pinned value",
                    facts.digest()
                ));
            }
            failures
        })
        .collect()
}
