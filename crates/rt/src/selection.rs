//! Selection stage: demand weighting and Molecule selection as a pure
//! decision step.
//!
//! This module turns the active forecasts into the paper's run-time task
//! (b), "Selecting Molecules considering the demands of all tasks":
//!
//! 1. [`SelectionStage::reweigh`] aggregates one SI's benefit weight over
//!    its demanding tasks, under the current adaptation goal
//!    ([`PowerMode`]), into a dense [`DemandWeights`] vector with one
//!    position per library SI; a forecast, retraction or FC outcome
//!    changes one SI's weight, so it re-weighs that SI alone;
//! 2. a [`SelectionPolicy`] maps `(library, weights, capacity)` to a
//!    [`MoleculeSelection`] — the greedy profit heuristic of the paper by
//!    default, resumed from its last run ([`ResumableGreedy`]), and the
//!    exhaustive oracle for validation;
//! 3. [`SelectionStage`] holds the policy, the mode and the last
//!    selection, so the shell can ask "what is the current target?"
//!    without re-deriving it.
//!
//! Nothing in this module touches the fabric or emits events: given the
//! same inputs, every function returns the same outputs.

use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
pub use rispp_core::selection::{
    select_molecules, select_molecules_exhaustive, MoleculeSelection, ResumableGreedy,
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

    /// Re-selection entry point: brings `selection`, the policy's choice
    /// for the previous call, up to date for `demands` and `capacity`.
    /// `greedy` is the stage's record of the greedy's last run. Policies
    /// that cannot resume select from scratch, as this default does; the
    /// result must be identical either way.
    fn reselect(
        &self,
        _greedy: &mut ResumableGreedy,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
        selection: &mut MoleculeSelection,
    ) {
        *selection = self.select(lib, demands, capacity);
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

    /// Resumes the greedy's last run and rebuilds `selection` only when a
    /// round's winner changed.
    fn reselect(
        &self,
        greedy: &mut ResumableGreedy,
        lib: &SiLibrary,
        demands: &[(SiId, f64)],
        capacity: u32,
        selection: &mut MoleculeSelection,
    ) {
        if greedy.select(lib, demands, capacity) {
            *selection = greedy.selection(lib);
        }
    }
}

/// The exhaustive oracle ([`select_molecules_exhaustive`]) — exponential
/// in the number of demands; for validation runs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustiveSelection;

impl SelectionPolicy for ExhaustiveSelection {
    /// Searches over the demands with a non-zero weight only: a zero
    /// weight adds no benefit, so the first best assignment never gives
    /// such an SI hardware, and leaving it out keeps the search within
    /// the oracle's 12-SI limit on large libraries.
    fn select(&self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection {
        let weighted: Vec<(SiId, f64)> =
            demands.iter().copied().filter(|&(_, w)| w != 0.0).collect();
        select_molecules_exhaustive(lib, &weighted, capacity)
    }
}

/// Benefit weight and owning task per library SI: one position per SI,
/// in SI order, which never moves. The `(si, weight)` pairs are the
/// demand list the selection policy reads as is (an undemanded SI weighs
/// 0); the owners sit in a list beside them.
///
/// The owner is the first (lowest-id) task that demands the SI; rotations
/// requested on its behalf are attributed to that task in the event
/// stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DemandWeights {
    demands: Vec<(SiId, f64)>,
    /// `owners[i]` owns `demands[i]`; `None` when no task demands it.
    owners: Vec<Option<TaskId>>,
}

impl DemandWeights {
    /// Zero weights and no owners for a library of `si_count` SIs.
    fn new(si_count: usize) -> Self {
        DemandWeights {
            demands: (0..si_count).map(|si| (SiId(si), 0.0)).collect(),
            owners: vec![None; si_count],
        }
    }

    /// Aggregated weight of `si` (0 when undemanded).
    #[must_use]
    pub fn weight_of(&self, si: SiId) -> f64 {
        self.demands.get(si.index()).map_or(0.0, |&(_, w)| w)
    }

    /// Owning task of `si`, `None` when undemanded.
    #[must_use]
    pub fn owner_of(&self, si: SiId) -> Option<TaskId> {
        self.owners.get(si.index()).copied().flatten()
    }

    /// The `(si, weight, owner)` triples of the demanded SIs, in
    /// ascending SI order.
    pub fn iter(&self) -> impl Iterator<Item = (SiId, f64, TaskId)> + '_ {
        self.demands
            .iter()
            .zip(&self.owners)
            .filter_map(|(&(si, w), &owner)| Some((si, w, owner?)))
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

/// Aggregates `si`'s benefit weight over its demanding tasks (`row`, in
/// ascending task order, as [`ForecastStore::row`] gives it) under the
/// adaptation goal `mode`.
///
/// In [`PowerMode::Performance`] a demand's weight is its expected cycle
/// saving; in [`PowerMode::EnergySaving`] it becomes the expected energy
/// saving in nanojoules, zeroed when the expected executions do not
/// amortise the rotation transfer (§4.1's offset). Benefits add up in
/// ascending task order, from 0.
fn weigh(
    lib: &SiLibrary,
    catalog: &AtomCatalog,
    mode: PowerMode,
    si: SiId,
    row: &[(TaskId, ForecastValue)],
) -> f64 {
    let def = lib.get(si);
    let mut sum = 0.0;
    for (_, fv) in row {
        sum += match mode {
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
    }
    sum
}

/// The selection stage: policy + adaptation goal + the last selection
/// and the weights that drove it.
///
/// The stage owns the weights and the greedy's record, and updates them
/// in place on every re-selection, so the hot path allocates nothing
/// unless the selection changes.
#[derive(Debug, Clone)]
pub struct SelectionStage<S = GreedySelection> {
    policy: S,
    power_mode: PowerMode,
    selection: MoleculeSelection,
    reselects: u64,
    greedy: ResumableGreedy,
    weights: DemandWeights,
}

impl<S: SelectionPolicy> SelectionStage<S> {
    /// Creates the stage for `lib`, with zero weights and an empty
    /// selection: the zero Molecule of the library's width as target,
    /// which every fabric of that width already holds.
    #[must_use]
    pub fn new(policy: S, power_mode: PowerMode, lib: &SiLibrary) -> Self {
        SelectionStage {
            policy,
            power_mode,
            selection: MoleculeSelection {
                target: Molecule::zero(lib.width()),
                chosen: Vec::new(),
            },
            reselects: 0,
            greedy: ResumableGreedy::default(),
            weights: DemandWeights::new(lib.len()),
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
    /// warrants re-weighing and a re-selection (it does, at run time).
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

    /// The current weights, which drive the next re-selection (the
    /// rotation planner orders upgrades by them).
    #[must_use]
    pub fn weights(&self) -> &DemandWeights {
        &self.weights
    }

    /// Re-weighs `si` from its demands in `store` under the current
    /// adaptation goal. A no-op for an SI outside the library, which no
    /// forecast can name.
    pub fn reweigh(
        &mut self,
        lib: &SiLibrary,
        catalog: &AtomCatalog,
        store: &ForecastStore,
        si: SiId,
    ) {
        if si.index() >= self.weights.demands.len() {
            return;
        }
        let row = store.row(si);
        self.weights.demands[si.index()].1 = weigh(lib, catalog, self.power_mode, si, row);
        self.weights.owners[si.index()] = row.first().map(|&(task, _)| task);
    }

    /// Re-weighs every SI, one at a time through
    /// [`reweigh`](Self::reweigh).
    pub fn reweigh_all(&mut self, lib: &SiLibrary, catalog: &AtomCatalog, store: &ForecastStore) {
        for si in 0..self.weights.demands.len() {
            self.reweigh(lib, catalog, store, SiId(si));
        }
    }

    /// Re-evaluates the selection from the current weights under the
    /// Atom-Container budget `capacity`. The result is read back through
    /// [`selection`](Self::selection).
    pub fn reselect(&mut self, lib: &SiLibrary, capacity: u32) {
        self.reselects += 1;
        self.policy.reselect(
            &mut self.greedy,
            lib,
            &self.weights.demands,
            capacity,
            &mut self.selection,
        );
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
        let mut stage = SelectionStage::new(GreedySelection, mode, lib);
        stage.reweigh_all(lib, catalog, store);
        stage.weights().clone()
    }

    #[test]
    fn weights_aggregate_over_tasks_and_keep_first_owner() {
        let (lib, catalog, s0, _) = platform();
        let mut store = ForecastStore::new(0.25, 2);
        store.insert(3, fv(s0, 10.0));
        store.insert(1, fv(s0, 10.0));
        let w = weigh(&lib, &catalog, PowerMode::Performance, &store);
        // 2 tasks × 10 executions × (500 − 10) cycles saved.
        assert!((w.weight_of(s0) - 2.0 * 10.0 * 490.0).abs() < 1e-9);
        // Each SI's tasks are kept in ascending order, so task 1 owns it.
        assert_eq!(w.owner_of(s0), Some(1));
        assert_eq!(w.owner_of(SiId(1)), None);
        assert_eq!(w.weight_of(SiId(1)), 0.0);
        let demanded: Vec<(SiId, TaskId)> = w.iter().map(|(si, _, t)| (si, t)).collect();
        assert_eq!(demanded, vec![(s0, 1)]);
    }

    #[test]
    fn reweighing_one_si_leaves_the_others_and_ignores_unknown_ids() {
        let (lib, catalog, s0, s1) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default(), &lib);
        let mut store = ForecastStore::new(0.25, 2);
        store.insert(0, fv(s0, 10.0));
        store.insert(2, fv(s1, 10.0));
        stage.reweigh(&lib, &catalog, &store, s1);
        assert_eq!(stage.weights().weight_of(s0), 0.0);
        assert!((stage.weights().weight_of(s1) - 10.0 * 385.0).abs() < 1e-9);
        assert_eq!(stage.weights().owner_of(s1), Some(2));
        let before = stage.weights().clone();
        stage.reweigh(&lib, &catalog, &store, SiId(2));
        assert_eq!(stage.weights(), &before);
        // Retracting the last demand clears the weight and the owner.
        store.retract(2, s1);
        stage.reweigh(&lib, &catalog, &store, s1);
        assert_eq!(stage.weights().weight_of(s1), 0.0);
        assert_eq!(stage.weights().owner_of(s1), None);
    }

    #[test]
    fn energy_mode_zeroes_unamortised_demands() {
        use rispp_core::energy::EnergyModel;
        let (lib, catalog, s0, _) = platform();
        let mode = PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        };
        let mut few = ForecastStore::new(0.25, 2);
        few.insert(0, fv(s0, 3.0));
        assert_eq!(weigh(&lib, &catalog, mode, &few).weight_of(s0), 0.0);
        let mut many = ForecastStore::new(0.25, 2);
        many.insert(0, fv(s0, 100_000.0));
        assert!(weigh(&lib, &catalog, mode, &many).weight_of(s0) > 0.0);
    }

    #[test]
    fn stage_tracks_selection_and_reselects() {
        let (lib, catalog, s0, s1) = platform();
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default(), &lib);
        let mut store = ForecastStore::new(0.25, 2);
        store.insert(0, fv(s0, 100.0));
        store.insert(1, fv(s1, 1.0));
        stage.reweigh_all(&lib, &catalog, &store);
        stage.reselect(&lib, 3);
        assert_eq!(stage.reselects(), 1);
        let w = stage.weights();
        assert!(w.weight_of(s0) > w.weight_of(s1));
        // S0 dominates: the target covers its fast Molecule.
        assert!(Molecule::from_counts([2, 1]).le(&stage.selection().target));
    }

    #[test]
    fn greedy_and_exhaustive_agree_on_the_small_platform() {
        let (lib, catalog, s0, s1) = platform();
        let mut store = ForecastStore::new(0.25, 2);
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
        let mut stage = SelectionStage::new(GreedySelection, PowerMode::default(), &lib);
        let mut store = ForecastStore::new(0.25, 2);
        store.insert(0, fv(s0, 3.0));
        stage.reweigh(&lib, &catalog, &store, s0);
        stage.reselect(&lib, 3);
        assert!(stage.weights().weight_of(s0) > 0.0);
        assert!(!stage.selection().chosen.is_empty());
        stage.set_power_mode(PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        });
        // Same store, new goal: three executions never amortise a
        // rotation, so the re-weighed demand is zero and nothing is chosen.
        stage.reweigh_all(&lib, &catalog, &store);
        stage.reselect(&lib, 3);
        assert!(stage.weights().weight_of(s0).abs() < f64::EPSILON);
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
