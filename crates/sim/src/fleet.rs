//! The fleet layer: N independent shards — one [`ShardSpec`]-built engine
//! each — running across OS threads, then joined into fleet-level numbers.
//!
//! Three properties carry the design:
//!
//! 1. **Derived seeds.** Shard `k` of a fleet seeded `s` always runs with
//!    [`derive_shard_seed`]`(s, k)` — a SplitMix-style mix computable in
//!    O(1) without enumerating the other shards, so any shard replays
//!    bit-exactly when re-run standalone.
//! 2. **Isolation.** Engines hold `Rc`-shared sinks and are not `Send`;
//!    each worker thread therefore *constructs and runs* its shard
//!    locally and only the plain-data [`ShardOutcome`] crosses threads.
//! 3. **Canonical aggregation.** [`FleetAggregate::from_shards`] folds
//!    outcomes in seed order regardless of the order workers finished
//!    in, so fleet numbers are independent of thread scheduling (the
//!    merge-permutation property the test suite checks).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use rispp_fabric::FaultPlan;
use rispp_obs::{LatencyHistogram, MetricsSummary};
use rispp_rt::selection::PowerMode;

use crate::spec::{Scenario, ShardOutcome, ShardSpec, SinkSpec, StressTotals};

/// SplitMix64 finalizer: the standard 64-bit avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives shard `shard`'s seed from the fleet seed, SplitMix-style:
/// the fleet seed steps by the golden-gamma increment once per shard
/// index and the result is avalanche-mixed. O(1) per shard, so a shard
/// can recompute its own seed standalone — the anchor of the fleet's
/// replay-bit-exactly guarantee.
#[must_use]
pub fn derive_shard_seed(fleet_seed: u64, shard: u32) -> u64 {
    splitmix64(fleet_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(shard) + 1)))
}

/// Builds the [`ShardSpec`] of any shard in a fleet: scenario, power
/// mode and sink choice are fleet-wide; the seed (and the fault plan,
/// when fault injection is on) is derived per shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFactory {
    /// The workload every shard runs.
    pub scenario: Scenario,
    /// The fleet seed shard seeds derive from.
    pub fleet_seed: u64,
    /// Power mode of every shard's manager.
    pub power_mode: PowerMode,
    /// Observability riding along on every shard.
    pub sink: SinkSpec,
    /// When set, each shard gets [`FaultPlan::seeded`] from its derived
    /// seed over this horizon (in cycles).
    pub fault_horizon: Option<u64>,
    /// When set, every shard streams its binary event log to this path
    /// template with `{shard}` replaced by the shard index — the
    /// per-shard capture a multi-log `rispp_serve` tails.
    pub bin_template: Option<String>,
}

impl ScenarioFactory {
    /// A factory with the default trimmings: performance mode, metrics
    /// sinks, no faults.
    #[must_use]
    pub fn new(scenario: Scenario, fleet_seed: u64) -> Self {
        ScenarioFactory {
            scenario,
            fleet_seed,
            power_mode: PowerMode::default(),
            sink: SinkSpec::default(),
            fault_horizon: None,
            bin_template: None,
        }
    }

    /// Replaces the fleet-wide power mode.
    #[must_use]
    pub fn with_power_mode(mut self, mode: PowerMode) -> Self {
        self.power_mode = mode;
        self
    }

    /// Replaces the fleet-wide sink choice.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkSpec) -> Self {
        self.sink = sink;
        self
    }

    /// Enables per-shard seeded fault injection over `horizon_cycles`.
    #[must_use]
    pub fn with_fault_horizon(mut self, horizon_cycles: Option<u64>) -> Self {
        self.fault_horizon = horizon_cycles;
        self
    }

    /// Streams every shard's binary event log to `template`, with
    /// `{shard}` replaced by the shard index (e.g.
    /// `logs/shard-{shard}.bin`). Multi-shard fleets must include the
    /// placeholder or every shard would race on one file.
    #[must_use]
    pub fn with_bin_template(mut self, template: Option<String>) -> Self {
        self.bin_template = template;
        self
    }

    /// The spec shard `shard` runs — identical whether built inside
    /// [`run_fleet`] or standalone for a replay.
    #[must_use]
    pub fn spec_for(&self, shard: u32) -> ShardSpec {
        let seed = derive_shard_seed(self.fleet_seed, shard);
        let mut spec = ShardSpec::new(self.scenario, seed)
            .with_power_mode(self.power_mode)
            .with_sink(self.sink);
        if let Some(horizon) = self.fault_horizon {
            spec = spec.with_faults(FaultPlan::seeded(seed, self.scenario.containers(), horizon));
        }
        if let Some(template) = &self.bin_template {
            spec = spec.with_bin_path(template.replace("{shard}", &shard.to_string()));
        }
        spec
    }
}

/// How many shards to run and on how many OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of independent shards.
    pub shards: u32,
    /// Worker threads; `0` picks `min(shards, available cores)`.
    pub threads: usize,
}

impl FleetConfig {
    /// A fleet of `shards` shards on auto-sized threads.
    #[must_use]
    pub fn new(shards: u32) -> Self {
        FleetConfig { shards, threads: 0 }
    }

    /// Pins the worker-thread count (still capped at the shard count).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker-thread count [`run_fleet`] will actually spawn.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let want = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        want.clamp(1, (self.shards as usize).max(1))
    }
}

/// Fleet-level numbers folded from per-shard outcomes in canonical
/// (seed) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetAggregate {
    /// Shards folded in.
    pub shards: u32,
    /// Total events across the fleet.
    pub events: u64,
    /// Total simulated cycles across the fleet.
    pub sim_cycles: u64,
    /// Merged simulated-time gauges (weighted per
    /// [`MetricsSummary::merge`]).
    pub summary: MetricsSummary,
    /// Fleet-wide SI latency distribution.
    pub latency: LatencyHistogram,
    /// Summed stress tallies (when the scenario was stress).
    pub stress: Option<StressTotals>,
}

impl FleetAggregate {
    /// Folds shard outcomes into fleet totals. The fold happens in
    /// ascending `(seed, scenario)` order whatever order the slice is in,
    /// so the result is exactly independent of worker completion order —
    /// including the floating-point gauge merges, which are only
    /// pairwise-commutative, not reassociation-proof.
    #[must_use]
    pub fn from_shards(shards: &[ShardOutcome]) -> Self {
        let mut order: Vec<&ShardOutcome> = shards.iter().collect();
        order.sort_by_key(|s| (s.seed, s.scenario));
        let mut agg = FleetAggregate {
            shards: shards.len() as u32,
            ..FleetAggregate::default()
        };
        for shard in order {
            agg.events += shard.events;
            agg.sim_cycles += shard.sim_cycles;
            agg.summary.merge(&shard.summary);
            agg.latency.merge(&shard.latency);
            if let Some(stress) = &shard.stress {
                match &mut agg.stress {
                    Some(mine) => mine.merge(stress),
                    None => agg.stress = Some(*stress),
                }
            }
        }
        agg
    }

    /// Total rotations completed across the fleet.
    #[must_use]
    pub fn rotations_completed(&self) -> u64 {
        self.summary.rotations_completed
    }
}

/// Everything a fleet run produced: ordered per-shard outcomes, the
/// canonical aggregate and how the run was executed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Per-shard outcomes, in shard-index order.
    pub shards: Vec<ShardOutcome>,
    /// The canonical fold of `shards`.
    pub aggregate: FleetAggregate,
    /// Worker threads the run actually used.
    pub threads: usize,
    /// Host wall time of the whole fan-out + join, in nanoseconds.
    pub wall_ns: u64,
}

/// Runs `config.shards` independent shards of `factory`'s scenario
/// across OS threads and joins their outcomes.
///
/// Workers pull shard indices from a shared counter, so threads stay
/// busy however unevenly individual shards run; each engine lives and
/// dies on its worker thread.
///
/// # Panics
///
/// Panics if a worker thread panics (a shard violated an invariant).
#[must_use]
pub fn run_fleet(factory: &ScenarioFactory, config: &FleetConfig) -> FleetOutcome {
    let started = std::time::Instant::now();
    let shards = config.shards;
    let threads = config.effective_threads();
    let next = AtomicU32::new(0);
    let results: Mutex<Vec<(u32, ShardOutcome)>> = Mutex::new(Vec::with_capacity(shards as usize));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= shards {
                    break;
                }
                let outcome = factory.spec_for(shard).run();
                results
                    .lock()
                    .expect("a fleet worker panicked")
                    .push((shard, outcome));
            });
        }
    });
    let mut results = results.into_inner().expect("a fleet worker panicked");
    results.sort_by_key(|&(shard, _)| shard);
    let shards: Vec<ShardOutcome> = results.into_iter().map(|(_, outcome)| outcome).collect();
    let aggregate = FleetAggregate::from_shards(&shards);
    FleetOutcome {
        shards,
        aggregate,
        threads,
        wall_ns: started.elapsed().as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_standalone_computable() {
        let mut seen = std::collections::BTreeSet::new();
        for shard in 0..1_000 {
            assert!(seen.insert(derive_shard_seed(42, shard)), "seed collision");
        }
        // Derivation depends only on (fleet_seed, shard), not on any
        // fleet-global enumeration state.
        assert_eq!(derive_shard_seed(42, 7), derive_shard_seed(42, 7));
        assert_ne!(derive_shard_seed(42, 7), derive_shard_seed(43, 7));
    }

    #[test]
    fn fleet_runs_every_shard_and_orders_outcomes() {
        let factory = ScenarioFactory::new(
            Scenario::Stress {
                platforms: 1,
                steps: 40,
            },
            7,
        );
        let out = run_fleet(&factory, &FleetConfig::new(5).with_threads(2));
        assert_eq!(out.shards.len(), 5);
        assert!(out.threads >= 1 && out.threads <= 2);
        for (i, shard) in out.shards.iter().enumerate() {
            assert_eq!(shard.seed, derive_shard_seed(7, i as u32));
        }
        assert_eq!(out.aggregate.shards, 5);
        assert_eq!(
            out.aggregate.events,
            out.shards.iter().map(|s| s.events).sum::<u64>()
        );
        assert!(out.aggregate.events > 0, "stress shards emit events");
    }

    #[test]
    fn shard_outcome_is_reproduced_standalone() {
        let factory = ScenarioFactory::new(
            Scenario::Stress {
                platforms: 2,
                steps: 60,
            },
            99,
        );
        let fleet = run_fleet(&factory, &FleetConfig::new(3).with_threads(3));
        // Re-running shard 1 alone — fresh spec from the same factory —
        // reproduces its outcome exactly.
        let replay = factory.spec_for(1).run();
        assert_eq!(replay, fleet.shards[1]);
    }

    #[test]
    fn aggregation_is_independent_of_outcome_order() {
        let factory = ScenarioFactory::new(
            Scenario::Stress {
                platforms: 1,
                steps: 50,
            },
            3,
        );
        let out = run_fleet(&factory, &FleetConfig::new(4).with_threads(1));
        let forward = FleetAggregate::from_shards(&out.shards);
        let mut reversed = out.shards.clone();
        reversed.reverse();
        assert_eq!(FleetAggregate::from_shards(&reversed), forward);
    }

    #[test]
    fn bin_template_captures_one_replayable_log_per_shard() {
        let dir = std::env::temp_dir().join(format!("rispp-fleet-bin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let template = dir.join("shard-{shard}.bin").to_str().unwrap().to_string();
        let factory = ScenarioFactory::new(
            Scenario::Stress {
                platforms: 1,
                steps: 40,
            },
            11,
        )
        .with_sink(SinkSpec::Binary)
        .with_bin_template(Some(template));
        let out = run_fleet(&factory, &FleetConfig::new(3).with_threads(2));
        for (k, shard) in out.shards.iter().enumerate() {
            let path = dir.join(format!("shard-{k}.bin"));
            let bytes = std::fs::read(&path).unwrap();
            assert!(!bytes.is_empty(), "shard {k} wrote no events");
            // The streamed file is byte-identical to the in-memory
            // binary export of the very same run.
            assert_eq!(Some(&bytes), shard.binary.as_ref(), "shard {k} diverges");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn thread_count_is_clamped_to_shards() {
        assert_eq!(FleetConfig::new(2).with_threads(16).effective_threads(), 2);
        assert!(FleetConfig::new(8).effective_threads() >= 1);
        assert_eq!(FleetConfig::new(0).with_threads(4).effective_threads(), 1);
    }
}
