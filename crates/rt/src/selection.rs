//! Selection stage: demand weighting and Molecule selection as a pure
//! decision step.
//!
//! This module turns the active forecasts into the paper's run-time task
//! (b), "Selecting Molecules considering the demands of all tasks":
//!
//! 1. [`weigh_demands_into`] aggregates a benefit weight per SI over all
//!    demanding tasks, under the current adaptation goal ([`PowerMode`]);
//! 2. a [`SelectionPolicy`] maps `(library, weights, capacity)` to a
//!    [`MoleculeSelection`] — the greedy profit heuristic of the paper by
//!    default, the exhaustive oracle for validation;
//! 3. [`SelectionStage`] holds the policy, the mode and the last
//!    selection, so the shell can ask "what is the current target?"
//!    without re-deriving it.
//!
//! Nothing in this module touches the fabric or emits events: given the
//! same inputs, every function returns the same outputs.

pub use rispp_core::selection::{
    select_molecules, select_molecules_exhaustive, select_molecules_with, MoleculeSelection,
    SelectionContext,
};
use rispp_core::si::{SiId, SiLibrary};
use rispp_fabric::catalog::AtomCatalog;

use crate::forecast::ForecastStore;
use crate::TaskId;

/// Adaptation goal of the run-time system (the paper's §1 motivation
/// "change in design constraints (system runs out of energy, for
/// example)").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PowerMode {
    /// Maximise speed-up: demands are weighted by expected cycle savings.
    #[default]
    Performance,
    /// Save energy: an SI only earns hardware when its expected execution
    /// count amortises the rotation energy under the given
    /// [`EnergyModel`](rispp_core::energy::EnergyModel) with trade-off
    /// factor α; demand weights become expected energy savings.
    EnergySaving {
        /// The energy model used for amortisation checks.
        model: rispp_core::energy::EnergyModel,
        /// The α trade-off factor of §4.1 (α > 1 = stricter).
        alpha: f64,
    },
}

/// How Molecules are selected from the weighted demands.
///
/// A small strategy trait with static dispatch, so swapping the selector
/// changes the manager's type parameter instead of adding a branch to the
/// hot path.
pub trait SelectionPolicy {
    /// Chooses hardware Molecules for the weighted `demands` under the
    /// Atom-Container budget `capacity`.
    fn select(&self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection;

    /// Incremental entry point: like [`select`](Self::select) but with a
    /// reusable [`SelectionContext`] holding the scratch buffers of the
    /// selection kernel. Policies that cannot exploit it fall back to the
    /// from-scratch path — results must be identical either way.
    fn select_with(
        &self,
        _ctx: &mut SelectionContext,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
    ) -> MoleculeSelection {
        self.select(lib, demands, capacity)
    }
}

/// The paper's greedy profit-driven selection
/// ([`select_molecules`]) — the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedySelection;

impl SelectionPolicy for GreedySelection {
    fn select(&self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection {
        select_molecules(lib, demands, capacity)
    }

    fn select_with(
        &self,
        ctx: &mut SelectionContext,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
    ) -> MoleculeSelection {
        select_molecules_with(ctx, lib, demands, capacity)
    }
}

/// The exhaustive oracle ([`select_molecules_exhaustive`]) — exponential
/// in the number of demands; for validation runs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveSelection;

impl SelectionPolicy for ExhaustiveSelection {
    fn select(&self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection {
        select_molecules_exhaustive(lib, demands, capacity)
    }
}

/// Aggregated benefit weight and owning task per demanded SI, in
/// ascending SI order. The `(si, weight)` pairs are the demand list the
/// selection policy reads as is; the owners sit in a list beside them.
/// The hot reselect path refills both in place, without any per-call
/// allocation or copy.
///
/// The owner is the first (lowest-id) task that demanded the SI; rotations
/// requested on its behalf are attributed to that task in the event
/// stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DemandWeights {
    demands: Vec<(SiId, f64)>,
    /// `owners[i]` owns `demands[i]`.
    owners: Vec<TaskId>,
}

impl DemandWeights {
    fn position(&self, si: SiId) -> Option<usize> {
        self.demands
            .binary_search_by_key(&si.index(), |&(s, _)| s.index())
            .ok()
    }

    /// Aggregated weight of `si` (0 when undemanded).
    #[must_use]
    pub fn weight_of(&self, si: SiId) -> f64 {
        self.position(si).map_or(0.0, |at| self.demands[at].1)
    }

    /// Owning task of `si`, `None` when undemanded.
    #[must_use]
    pub fn owner_of(&self, si: SiId) -> Option<TaskId> {
        self.position(si).map(|at| self.owners[at])
    }

    /// All `(si, weight, owner)` triples in ascending SI order.
    pub fn iter(&self) -> impl Iterator<Item = (SiId, f64, TaskId)> + '_ {
        self.demands
            .iter()
            .zip(&self.owners)
            .map(|(&(si, w), &t)| (si, w, t))
    }
}

/// Bitstream bytes needed to load an SI's minimal Molecule — the
/// energy-rotation cost a forecast must amortise before the SI earns
/// hardware in [`PowerMode::EnergySaving`].
#[must_use]
pub fn minimal_rotation_bytes(lib: &SiLibrary, catalog: &AtomCatalog, si: SiId) -> u64 {
    lib.get(si)
        .minimal()
        .molecule
        .iter_nonzero()
        .map(|(kind, count)| u64::from(count) * catalog.profile(kind).bitstream_bytes)
        .sum()
}

/// Aggregates a benefit weight per SI over all demanding tasks, under the
/// adaptation goal `mode`, into caller-owned buffers: `acc` is a dense
/// per-SI accumulator (resized to the library width), `out` is refilled
/// in place. The hot reselect path reuses both across calls, so steady
/// state weighs without allocating.
///
/// In [`PowerMode::Performance`] a demand's weight is its expected cycle
/// saving; in [`PowerMode::EnergySaving`] it becomes the expected energy
/// saving in nanojoules, zeroed when the expected executions do not
/// amortise the rotation transfer (§4.1's offset).
///
/// Benefits accumulate per SI in forecast-store iteration order and the
/// first demanding task owns the SI — bit-identical to summing into a
/// map keyed by SI index.
pub fn weigh_demands_into(
    lib: &SiLibrary,
    catalog: &AtomCatalog,
    mode: PowerMode,
    demands: &ForecastStore,
    acc: &mut Vec<(f64, TaskId, bool)>,
    out: &mut DemandWeights,
) {
    acc.clear();
    acc.resize(lib.len(), (0.0, 0, false));
    for (task, si, fv) in demands.iter() {
        let def = lib.get(si);
        let benefit = match mode {
            PowerMode::Performance => {
                fv.expected_benefit(def.sw_cycles() as f64, def.fastest().cycles as f64)
            }
            PowerMode::EnergySaving { model, alpha } => {
                // Rotation only pays when the expected executions
                // amortise its transfer energy (§4.1's offset).
                let bytes = minimal_rotation_bytes(lib, catalog, si);
                let needed = model.amortisation_executions(def, bytes, alpha);
                let expected = fv.probability * fv.expected_executions;
                if expected < needed {
                    0.0
                } else {
                    expected * model.per_execution_saving_j(def) * 1e9 // nJ
                }
            }
        };
        let slot = &mut acc[si.index()];
        if !slot.2 {
            slot.1 = task;
            slot.2 = true;
        }
        slot.0 += benefit;
    }
    out.demands.clear();
    out.owners.clear();
    for (si, &(w, t, demanded)) in acc.iter().enumerate() {
        if demanded {
            out.demands.push((SiId(si), w));
            out.owners.push(t);
        }
    }
}

/// The selection stage: policy + adaptation goal + the last selection
/// and the weights that drove it.
///
/// The stage owns the weigh accumulator, the weights and the selection
/// kernel's [`SelectionContext`], and refills them in place on every
/// re-selection, so the hot path allocates nothing but the selection it
/// produces.
#[derive(Debug, Clone)]
pub struct SelectionStage<S = GreedySelection> {
    policy: S,
    power_mode: PowerMode,
    selection: MoleculeSelection,
    reselects: u64,
    ctx: SelectionContext,
    /// Dense per-SI accumulator reused by every weigh pass.
    weigh_acc: Vec<(f64, TaskId, bool)>,
    last_weights: DemandWeights,
}

impl<S: SelectionPolicy> SelectionStage<S> {
    /// Creates the stage with an empty selection.
    #[must_use]
    pub fn new(policy: S, power_mode: PowerMode) -> Self {
        SelectionStage {
            policy,
            power_mode,
            selection: MoleculeSelection::default(),
            reselects: 0,
            ctx: SelectionContext::default(),
            weigh_acc: Vec::new(),
            last_weights: DemandWeights::default(),
        }
    }

    /// The selection currently in force.
    #[must_use]
    pub fn selection(&self) -> &MoleculeSelection {
        &self.selection
    }

    /// The adaptation goal currently in force.
    #[must_use]
    pub fn power_mode(&self) -> PowerMode {
        self.power_mode
    }

    /// Switches the adaptation goal. The caller decides whether that
    /// warrants a re-selection (it does, at run time).
    pub fn set_power_mode(&mut self, mode: PowerMode) {
        self.power_mode = mode;
    }

    /// Number of selection re-evaluations so far — every FC event invokes
    /// one, which is exactly why the compile-time pass trims FC
    /// candidates ("every FC invokes the run-time system to
    /// re-evaluate").
    #[must_use]
    pub fn reselects(&self) -> u64 {
        self.reselects
    }

    /// The weights that drove the last re-selection (the rotation planner
    /// orders upgrades by them).
    #[must_use]
    pub fn last_weights(&self) -> &DemandWeights {
        &self.last_weights
    }

    /// Re-evaluates the selection from the active demands under the
    /// Atom-Container budget `capacity`: weighs them under the current
    /// adaptation goal, then runs the selection policy. The result is
    /// read back through [`selection`](Self::selection) and
    /// [`last_weights`](Self::last_weights).
    pub fn reselect(
        &mut self,
        lib: &SiLibrary,
        catalog: &AtomCatalog,
        demands: &ForecastStore,
        capacity: u32,
    ) {
        self.reselects += 1;
        weigh_demands_into(
            lib,
            catalog,
            self.power_mode,
            demands,
            &mut self.weigh_acc,
            &mut self.last_weights,
        );
        self.selection =
            self.policy
                .select_with(&mut self.ctx, lib, &self.last_weights.demands, capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::forecast::ForecastValue;
    use rispp_core::molecule::Molecule;
    use rispp_core::si::{MoleculeImpl, SpecialInstruction};
    use rispp_fabric::catalog::AtomHwProfile;

    fn platform() -> (SiLibrary, AtomCatalog, SiId, SiId) {
        let catalog = AtomCatalog::new(vec![
            AtomHwProfile::new("A", 100, 200, 6_920),
            AtomHwProfile::new("B", 100, 200, 6_920),
        ]);
        let mut lib = SiLibrary::new(2);
        let s0 = lib
            .insert(
                SpecialInstruction::new(
                    "S0",
                    500,
                    vec![
                        MoleculeImpl::new(Molecule::from_counts([1, 1]), 20),
                        MoleculeImpl::new(Molecule::from_counts([2, 1]), 10),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let s1 = lib
            .insert(
                SpecialInstruction::new(
                    "S1",
                    400,
                    vec![MoleculeImpl::new(Molecule::from_counts([0, 2]), 15)],
                )
                .unwrap(),
            )
            .unwrap();
        (lib, catalog, s0, s1)
    }

    fn fv(si: SiId, execs: f64) -> ForecastValue {
        ForecastValue::new(si, 1.0, 50_000.0, execs)
    }

    fn weigh(
        lib: &SiLibrary,
        catalog: &AtomCatalog,
        mode: PowerMode,
        store: &ForecastStore,
    ) -> DemandWeights {
        let mut out = DemandWeights::default();
        weigh_demands_into(lib, catalog, mode, store, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn weights_aggregate_over_tasks_and_keep_first_owner() {
        let (lib, catalog, s0, _) = platform();
        let mut store = ForecastStore::new(0.25);
        store.insert(3, fv(s0, 10.0));
        store.insert(1, fv(s0, 10.0));
        let w = weigh(&lib, &catalog, PowerMode::Performance, &store);
        // 2 tasks × 10 executions × (500 − 10) cycles saved.
        assert!((w.weight_of(s0) - 2.0 * 10.0 * 490.0).abs() < 1e-9);
        // Iteration is (task, si)-ascending, so task 1 owns the SI.
        assert_eq!(w.owner_of(s0), Some(1));
        assert_eq!(w.owner_of(SiId(1)), None);
        assert_eq!(w.weight_of(SiId(1)), 0.0);
    }

    #[test]
    fn energy_mode_zeroes_unamortised_demands() {
        use rispp_core::energy::EnergyModel;
        let (lib, catalog, s0, _) = platform();
        let mode = PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        };
        let mut few = ForecastStore::new(0.25);
        few.insert(0, fv(s0, 3.0));
        assert_eq!(weigh(&lib, &catalog, mode, &few).weight_of(s0), 0.0);
        let mut many = ForecastStore::new(0.25);
        many.insert(0, fv(s0, 100_000.0));
        assert!(weigh(&lib, &catalog, mode, &many).weight_of(s0) > 0.0);
    }

    #[test]
    fn stage_tracks_selection_and_reselects() {
        let (lib, catalog, s0, s1) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default());
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 100.0));
        store.insert(1, fv(s1, 1.0));
        stage.reselect(&lib, &catalog, &store, 3);
        assert_eq!(stage.reselects(), 1);
        let w = stage.last_weights();
        assert!(w.weight_of(s0) > w.weight_of(s1));
        // S0 dominates: the target covers its fast Molecule.
        assert!(Molecule::from_counts([2, 1]).le(&stage.selection().target));
    }

    #[test]
    fn greedy_and_exhaustive_agree_on_the_small_platform() {
        let (lib, catalog, s0, s1) = platform();
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 50.0));
        store.insert(1, fv(s1, 50.0));
        let w = weigh(&lib, &catalog, PowerMode::Performance, &store);
        let greedy = GreedySelection.select(&lib, &w.demands, 3);
        let exhaustive = ExhaustiveSelection.select(&lib, &w.demands, 3);
        assert_eq!(greedy.target, exhaustive.target);
    }

    #[test]
    fn power_mode_switch_reweighs_under_the_new_goal() {
        use rispp_core::energy::EnergyModel;
        let (lib, catalog, s0, _) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default());
        let mut store = ForecastStore::new(0.25);
        store.insert(0, fv(s0, 3.0));
        stage.reselect(&lib, &catalog, &store, 3);
        assert!(stage.last_weights().weight_of(s0) > 0.0);
        assert!(!stage.selection().chosen.is_empty());
        stage.set_power_mode(PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        });
        // Same store, new goal: three executions never amortise a
        // rotation, so the re-weighed demand is zero and nothing is chosen.
        stage.reselect(&lib, &catalog, &store, 3);
        assert!(stage.last_weights().weight_of(s0).abs() < f64::EPSILON);
        assert!(stage.selection().chosen.is_empty());
    }

    #[test]
    fn minimal_rotation_bytes_counts_the_minimal_molecule() {
        let (lib, catalog, s0, s1) = platform();
        // S0 minimal (1,1): two atoms; S1 minimal (0,2): two atoms.
        assert_eq!(minimal_rotation_bytes(&lib, &catalog, s0), 2 * 6_920);
        assert_eq!(minimal_rotation_bytes(&lib, &catalog, s1), 2 * 6_920);
    }
}
