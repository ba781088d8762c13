//! Selection algorithms: compile-time FC trimming (Fig. 5) and run-time
//! Molecule selection under an Atom-Container budget.
//!
//! The run-time greedy runs on every forecast event, and most events
//! change one SI's weight and leave the selection where it was. A
//! [`ResumableGreedy`] keeps the rounds of its last run and resumes from
//! the first round the new weights move; [`select_molecules`] is the same
//! code run from an empty record.

use crate::error::WidthMismatchError;
use crate::molecule::Molecule;
use crate::si::{SiId, SiLibrary};

/// Result of [`trim_forecast_candidates`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrimOutcome {
    /// Indices (into the input slice) of the retained forecast candidates.
    pub kept: Vec<usize>,
    /// Indices of the removed candidates, in removal order.
    pub removed: Vec<usize>,
    /// Supremum of the representatives of the retained candidates.
    pub final_sup: Molecule,
}

impl TrimOutcome {
    /// Returns `true` when the retained supremum fits into
    /// `available_containers` Atom Containers.
    #[must_use]
    pub fn fits(&self, available_containers: u32) -> bool {
        self.final_sup.determinant() <= available_containers
    }
}

/// The paper's Fig. 5 algorithm: removes forecast candidates with the worst
/// relation of expected speed-up per allocated Atom Container.
///
/// Input is one entry per SI that has a forecast candidate in the basic
/// block: the SI's representative Meta-Molecule `Rep(S)` and its expected
/// speed-up (`ExpectedSpeedup(m)` in the pseudo code — the ratio between
/// software and hardware execution speed).
///
/// While the supremum of the representatives does not fit into the
/// available Atom Containers, the candidate whose removal frees the most
/// containers *per unit of expected speed-up* is removed (the paper prose:
/// "those FCs whose SIs are providing the worst relation of speed-up and
/// additional needed hardware resources are truncated"). When no single
/// removal frees any container — e.g. the Molecules `(1,0)`, `(0,1)`,
/// `(1,1)`, where every `m ≤ sup(M \ {m})` — the algorithm aborts rather
/// than removing a whole cluster of SIs (lines 11–12 of Fig. 5), so the
/// result may still exceed the budget; check [`TrimOutcome::fits`].
///
/// Instead of rebuilding the supremum of "everyone but candidate i" per
/// candidate per round, one pass per round records, per Atom kind, the
/// largest and second-largest kept count plus the multiplicity of the
/// largest; the containers a removal frees fall out of those three
/// numbers exactly: `max − second_max` for each kind where the candidate
/// uniquely attains the maximum, zero elsewhere.
///
/// # Errors
///
/// Returns [`WidthMismatchError`] when representatives have differing
/// widths.
///
/// # Panics
///
/// Panics if `reps` and `speedups` have different lengths or a speed-up is
/// not positive.
///
/// # Examples
///
/// ```
/// use rispp_core::molecule::Molecule;
/// use rispp_core::selection::trim_forecast_candidates;
///
/// let reps = [
///     Molecule::from_counts([2, 0]), // big, slow SI
///     Molecule::from_counts([0, 1]), // small, fast SI
/// ];
/// let out = trim_forecast_candidates(&reps, &[1.5, 8.0], 1)?;
/// assert_eq!(out.kept, vec![1]);
/// assert_eq!(out.removed, vec![0]);
/// # Ok::<(), rispp_core::error::WidthMismatchError>(())
/// ```
pub fn trim_forecast_candidates(
    reps: &[Molecule],
    speedups: &[f64],
    available_containers: u32,
) -> Result<TrimOutcome, WidthMismatchError> {
    assert_eq!(
        reps.len(),
        speedups.len(),
        "one speed-up per representative required"
    );
    assert!(
        speedups.iter().all(|&s| s > 0.0),
        "expected speed-ups must be positive"
    );
    let width = reps.first().map_or(0, Molecule::width);
    for rep in reps {
        if rep.width() != width {
            return Err(WidthMismatchError {
                left: width,
                right: rep.width(),
            });
        }
    }
    let mut kept: Vec<usize> = (0..reps.len()).collect();
    let mut removed = Vec::new();

    // Per-kind maximum count over the kept candidates, the second-largest
    // count, and how many kept candidates attain the maximum.
    let mut max1 = vec![0u32; width];
    let mut max2 = vec![0u32; width];
    let mut max1_multiplicity = vec![0u32; width];

    loop {
        // One pass: per-kind max, second max, and multiplicity of the max
        // over the kept candidates. The supremum is the max1 vector.
        max1.fill(0);
        max2.fill(0);
        max1_multiplicity.fill(0);
        for &i in &kept {
            for (k, &c) in reps[i].as_slice().iter().enumerate() {
                if c > max1[k] {
                    max2[k] = max1[k];
                    max1[k] = c;
                    max1_multiplicity[k] = 1;
                } else if c == max1[k] && c > 0 {
                    max1_multiplicity[k] += 1;
                } else if c > max2[k] {
                    max2[k] = c;
                }
            }
        }
        let sup_det: u32 = max1.iter().sum();
        if sup_det <= available_containers || kept.is_empty() {
            break;
        }
        // Find the member whose removal frees the most containers per unit
        // of expected speed-up ("worst relation").
        let mut best: Option<(usize, f64)> = None;
        for (pos, &idx) in kept.iter().enumerate() {
            let mut freed: u32 = 0;
            for (k, &c) in reps[idx].as_slice().iter().enumerate() {
                if c == max1[k] && max1_multiplicity[k] == 1 {
                    freed += max1[k] - max2[k];
                }
            }
            let relation = f64::from(freed) / speedups[idx];
            if relation > best.map_or(0.0, |(_, r)| r) {
                best = Some((pos, relation));
            }
        }
        match best {
            Some((pos, _)) => {
                removed.push(kept.remove(pos));
            }
            // No single removal reduces the supremum: aborting keeps the
            // search space for the run-time decision system intact.
            None => break,
        }
    }
    let final_sup = Molecule::supremum(width, kept.iter().map(|&i| &reps[i]))?;
    Ok(TrimOutcome {
        kept,
        removed,
        final_sup,
    })
}

/// One chosen implementation in a [`MoleculeSelection`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChosenMolecule {
    /// The SI this choice applies to.
    pub si: SiId,
    /// Index into the SI's `molecules()` slice.
    pub molecule_index: usize,
    /// Latency of the chosen Molecule, in cycles.
    pub cycles: u64,
    /// Atom counts of the chosen implementation — carried in the
    /// selection output so downstream decision layers (e.g. the run-time
    /// rotation planner) can reason about the choice without indexing
    /// back into the library.
    pub molecule: Molecule,
}

/// Result of [`select_molecules`]: a target Meta-Molecule to establish in
/// hardware plus the per-SI implementation choices it enables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MoleculeSelection {
    /// The Atoms that should be present after all rotations complete.
    pub target: Molecule,
    /// Chosen hardware implementations; SIs absent from this list run in
    /// software.
    pub chosen: Vec<ChosenMolecule>,
}

impl MoleculeSelection {
    /// Looks up the choice for one SI.
    #[must_use]
    pub fn choice_for(&self, si: SiId) -> Option<&ChosenMolecule> {
        self.chosen.iter().find(|c| c.si == si)
    }
}

/// Run-time Molecule selection: given the forecasted SIs with their benefit
/// weights, greedily composes a target Meta-Molecule of at most `capacity`
/// Atom instances that maximises the weighted cycle savings.
///
/// `demands` pairs each forecasted SI with a benefit weight (typically
/// [`ForecastValue::expected_benefit`](crate::forecast::ForecastValue::expected_benefit)
/// per cycle, or simply the expected execution count). Each greedy step
/// upgrades the SI implementation with the best ratio of weighted cycle
/// gain per additionally required Atom instance; free upgrades (already
/// covered by the target) are always taken. Equal ratios go to the
/// earlier demand position, then to the lower Molecule index.
///
/// The greedy heuristic matches the paper's run-time constraints: selection
/// runs on every forecast event, so it must be fast rather than optimal.
/// This is a [`ResumableGreedy`] run from an empty record.
///
/// # Panics
///
/// Panics if a demand references an SI not in `lib` (programming error) or
/// if weights are negative.
#[must_use]
pub fn select_molecules(
    lib: &SiLibrary,
    demands: &[(SiId, f64)],
    capacity: u32,
) -> MoleculeSelection {
    let mut greedy = ResumableGreedy::default();
    greedy.select(lib, demands, capacity);
    greedy.selection(lib)
}

/// The greedy of [`select_molecules`] with the record of its last run,
/// from which the next run resumes.
///
/// For every round the record keeps each demand position's best upgrade,
/// as `(ratio, Molecule index)`, and the round's winner. A call with the
/// same demand positions and capacity re-evaluates only the positions
/// whose weight bits changed, replays the recorded rounds and reruns the
/// plain greedy from the first round whose winner differs; any other
/// call runs from round 0. Either way the result equals
/// [`select_molecules`] over the same arguments: up to the first
/// differing winner every round starts from the same target and the
/// same latencies, so an unchanged position's recorded best is the one a
/// fresh run would compute.
///
/// The record depends only on the weights, the capacity and the library,
/// so nothing outside a call can make it stale; every call must pass the
/// library of the first. Its buffers grow to the high-water mark and are
/// then reused.
#[derive(Debug, Clone, Default)]
pub struct ResumableGreedy {
    /// Capacity of the recorded run.
    capacity: u32,
    /// Demand positions and weights of the recorded run.
    demands: Vec<(SiId, f64)>,
    /// Round-major, one entry per demand position and round: the
    /// position's best upgrade `(ratio, Molecule index)`, `None` without
    /// one.
    bests: Vec<Option<(f64, usize)>>,
    /// Each round's winning `(position, Molecule index)`. The last
    /// round's is `None`: the greedy stopped there.
    winners: Vec<Option<(usize, usize)>>,
    /// The target after the rounds replayed so far.
    target: Molecule,
    /// Latency per demand position under `target`.
    current: Vec<u64>,
    /// Chosen Molecule index per demand position (`None` = software).
    chosen: Vec<Option<usize>>,
    /// Positions whose weight the current call changed.
    changed: Vec<usize>,
}

impl ResumableGreedy {
    /// Creates an empty record: the first call runs from round 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects for `demands` under `capacity`, resuming from the recorded
    /// run. Returns `false` when every round's winner is the recorded one,
    /// so [`selection`](Self::selection) is what it was before the call.
    ///
    /// # Panics
    ///
    /// Same contract as [`select_molecules`].
    pub fn select(&mut self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> bool {
        assert!(
            demands.iter().all(|&(_, w)| w >= 0.0),
            "demand weights must be non-negative"
        );
        let same_positions = self.demands.len() == demands.len()
            && self.demands.iter().zip(demands).all(|(a, b)| a.0 == b.0);
        if self.winners.is_empty() || capacity != self.capacity || !same_positions {
            self.capacity = capacity;
            self.demands.clear();
            self.demands.extend_from_slice(demands);
            self.bests.clear();
            self.winners.clear();
            self.restart(lib);
            self.run(lib);
            return true;
        }
        self.changed.clear();
        for (d, (mine, &(_, w))) in self.demands.iter_mut().zip(demands).enumerate() {
            if mine.1.to_bits() != w.to_bits() {
                mine.1 = w;
                self.changed.push(d);
            }
        }
        if self.changed.is_empty() {
            return false;
        }
        self.restart(lib);
        let n = self.demands.len();
        for round in 0..self.winners.len() {
            let row = &mut self.bests[round * n..(round + 1) * n];
            let target_det = self.target.determinant();
            for &d in &self.changed {
                row[d] = best_upgrade(
                    lib,
                    self.demands[d],
                    self.current[d],
                    &self.target,
                    target_det,
                    capacity,
                );
            }
            let winner = round_winner(row);
            if winner != self.winners[round] {
                self.bests.truncate(round * n);
                self.winners.truncate(round);
                self.run(lib);
                return true;
            }
            if let Some(win) = winner {
                self.apply(lib, win);
            }
        }
        false
    }

    /// The selection the last [`select`](Self::select) call made.
    #[must_use]
    pub fn selection(&self, lib: &SiLibrary) -> MoleculeSelection {
        let chosen = self
            .demands
            .iter()
            .zip(&self.chosen)
            .filter_map(|(&(si, _), &mi)| {
                let mi = mi?;
                let m = &lib.get(si).molecules()[mi];
                Some(ChosenMolecule {
                    si,
                    molecule_index: mi,
                    cycles: m.cycles,
                    molecule: m.molecule.clone(),
                })
            })
            .collect();
        MoleculeSelection {
            target: self.target.clone(),
            chosen,
        }
    }

    /// Resets the replay state to round 0: an empty target, every SI in
    /// software.
    fn restart(&mut self, lib: &SiLibrary) {
        self.target = Molecule::zero(lib.width());
        self.current.clear();
        self.current
            .extend(self.demands.iter().map(|&(si, _)| lib.get(si).sw_cycles()));
        self.chosen.clear();
        self.chosen.resize(self.demands.len(), None);
    }

    /// The plain greedy from the replay state on: evaluates every
    /// position each round and records the rounds until one has no
    /// winner.
    fn run(&mut self, lib: &SiLibrary) {
        loop {
            let target_det = self.target.determinant();
            let start = self.bests.len();
            for (&demand, &current) in self.demands.iter().zip(&self.current) {
                self.bests.push(best_upgrade(
                    lib,
                    demand,
                    current,
                    &self.target,
                    target_det,
                    self.capacity,
                ));
            }
            let winner = round_winner(&self.bests[start..]);
            self.winners.push(winner);
            match winner {
                Some(win) => self.apply(lib, win),
                None => return,
            }
        }
    }

    /// Takes a round's winning upgrade into the replay state.
    fn apply(&mut self, lib: &SiLibrary, (d, mi): (usize, usize)) {
        let m = &lib.get(self.demands[d].0).molecules()[mi];
        self.target
            .union_in_place(&m.molecule)
            .expect("library enforces equal widths");
        self.current[d] = m.cycles;
        self.chosen[d] = Some(mi);
    }
}

/// One demand position's best upgrade under `target`: among the Molecules
/// faster than `current` whose union with `target` fits `capacity`, the
/// highest ratio of weighted cycle gain per added Atom, and the lowest
/// Molecule index at that ratio. `None` for a zero weight.
fn best_upgrade(
    lib: &SiLibrary,
    (si, weight): (SiId, f64),
    current: u64,
    target: &Molecule,
    target_det: u32,
    capacity: u32,
) -> Option<(f64, usize)> {
    if weight == 0.0 {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for (mi, m) in lib.get(si).molecules().iter().enumerate() {
        if m.cycles >= current {
            continue; // not an upgrade
        }
        let union_det = target
            .union_determinant(&m.molecule)
            .expect("library enforces equal widths");
        if union_det > capacity {
            continue;
        }
        let cost = u64::from(union_det - target_det);
        let gain = weight * (current - m.cycles) as f64;
        // Free upgrades get an effectively infinite ratio.
        let ratio = if cost == 0 {
            f64::INFINITY
        } else {
            gain / cost as f64
        };
        if best.is_none_or(|(r, _)| ratio > r) {
            best = Some((ratio, mi));
        }
    }
    best
}

/// A round's winner from its positions' best upgrades: the earliest
/// position at the highest ratio, as `(position, Molecule index)`.
/// `None` when no position has an upgrade or the best gains nothing.
fn round_winner(bests: &[Option<(f64, usize)>]) -> Option<(usize, usize)> {
    let mut winner: Option<(usize, usize, f64)> = None;
    for (d, best) in bests.iter().enumerate() {
        if let Some((ratio, mi)) = *best {
            if winner.is_none_or(|(_, _, r)| ratio > r) {
                winner = Some((d, mi, ratio));
            }
        }
    }
    winner
        .filter(|&(_, _, ratio)| ratio > 0.0)
        .map(|(d, mi, _)| (d, mi))
}

/// Exhaustive (optimal) Molecule selection for small instances: tries
/// every combination of "one Molecule or software per demanded SI" and
/// returns the selection maximising the weighted cycle savings within
/// `capacity` Atom instances.
///
/// Exponential in the number of demands — intended as a ground truth for
/// evaluating the greedy [`select_molecules`] heuristic (see the
/// `ablation_selection` harness), not for run-time use.
///
/// # Panics
///
/// Panics if `demands.len() > 12` (the search space would explode) or a
/// weight is negative.
#[must_use]
pub fn select_molecules_exhaustive(
    lib: &SiLibrary,
    demands: &[(SiId, f64)],
    capacity: u32,
) -> MoleculeSelection {
    assert!(demands.len() <= 12, "exhaustive search limited to 12 SIs");
    assert!(
        demands.iter().all(|&(_, w)| w >= 0.0),
        "demand weights must be non-negative"
    );
    let width = lib.width();
    let mut best = MoleculeSelection {
        target: Molecule::zero(width),
        chosen: Vec::new(),
    };
    let mut best_benefit = 0.0f64;
    // Each SI has molecules().len() + 1 options (the +1 is software).
    let radices: Vec<usize> = demands
        .iter()
        .map(|&(si, _)| lib.get(si).molecules().len() + 1)
        .collect();
    let mut counter = vec![0usize; demands.len()];
    loop {
        // Evaluate the current assignment.
        let mut target = Molecule::zero(width);
        let mut chosen = Vec::new();
        let mut benefit = 0.0f64;
        let mut feasible = true;
        for (d, &(si, w)) in demands.iter().enumerate() {
            let pick = counter[d];
            if pick == 0 {
                continue; // software
            }
            let m = &lib.get(si).molecules()[pick - 1];
            target = target
                .try_union(&m.molecule)
                .expect("library enforces one width");
            if target.determinant() > capacity {
                feasible = false;
                break;
            }
            benefit += w * (lib.get(si).sw_cycles().saturating_sub(m.cycles)) as f64;
            chosen.push(ChosenMolecule {
                si,
                molecule_index: pick - 1,
                cycles: m.cycles,
                molecule: m.molecule.clone(),
            });
        }
        if feasible && benefit > best_benefit {
            best_benefit = benefit;
            best = MoleculeSelection { target, chosen };
        }
        // Next assignment (mixed-radix increment).
        let mut i = 0;
        loop {
            if i == counter.len() {
                return best;
            }
            counter[i] += 1;
            if counter[i] < radices[i] {
                break;
            }
            counter[i] = 0;
            i += 1;
        }
    }
}

/// Weighted cycle savings a selection achieves for a demand set — the
/// objective both [`select_molecules`] and
/// [`select_molecules_exhaustive`] optimise.
#[must_use]
pub fn selection_benefit(
    lib: &SiLibrary,
    demands: &[(SiId, f64)],
    selection: &MoleculeSelection,
) -> f64 {
    demands
        .iter()
        .map(|&(si, w)| {
            let def = lib.get(si);
            let cycles = def.exec_cycles(&selection.target);
            w * def.sw_cycles().saturating_sub(cycles) as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si::{MoleculeImpl, SpecialInstruction};

    fn mol(v: impl IntoIterator<Item = u32>) -> Molecule {
        Molecule::from_counts(v)
    }

    #[test]
    fn trim_keeps_everything_when_budget_suffices() {
        let reps = [mol([1, 0]), mol([0, 1])];
        let out = trim_forecast_candidates(&reps, &[2.0, 2.0], 2).unwrap();
        assert_eq!(out.kept, vec![0, 1]);
        assert!(out.removed.is_empty());
        assert!(out.fits(2));
    }

    #[test]
    fn trim_removes_worst_speedup_per_container() {
        // SI 0 occupies 3 containers exclusively but gives little speed-up;
        // SI 1 is small and fast.
        let reps = [mol([3, 0]), mol([0, 1])];
        let out = trim_forecast_candidates(&reps, &[1.2, 10.0], 1).unwrap();
        assert_eq!(out.removed, vec![0]);
        assert_eq!(out.kept, vec![1]);
        assert!(out.fits(1));
    }

    #[test]
    fn trim_aborts_on_cluster() {
        // The paper's own counter-example: (1,0), (0,1), (1,1). Removing any
        // single Molecule does not shrink the supremum, so the algorithm
        // must break instead of cascading removals.
        let reps = [mol([1, 0]), mol([0, 1]), mol([1, 1])];
        let out = trim_forecast_candidates(&reps, &[2.0, 2.0, 2.0], 1).unwrap();
        assert_eq!(out.kept.len(), 3);
        assert!(out.removed.is_empty());
        assert!(!out.fits(1));
    }

    #[test]
    fn trim_empty_input() {
        let out = trim_forecast_candidates(&[], &[], 4).unwrap();
        assert!(out.kept.is_empty());
        assert_eq!(out.final_sup, Molecule::zero(0));
    }

    fn library() -> (SiLibrary, SiId, SiId) {
        let mut lib = SiLibrary::new(3);
        let a = lib
            .insert(
                SpecialInstruction::new(
                    "A",
                    500,
                    vec![
                        MoleculeImpl::new(mol([1, 1, 0]), 24),
                        MoleculeImpl::new(mol([2, 2, 0]), 12),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let b = lib
            .insert(
                SpecialInstruction::new(
                    "B",
                    400,
                    vec![
                        MoleculeImpl::new(mol([0, 1, 1]), 20),
                        MoleculeImpl::new(mol([0, 2, 2]), 10),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        (lib, a, b)
    }

    #[test]
    fn select_prefers_shared_atoms() {
        let (lib, a, b) = library();
        // Capacity 4: minimal A = (1,1,0), minimal B = (0,1,1); they share
        // the middle Atom, so both fit in 3 containers.
        let sel = select_molecules(&lib, &[(a, 1.0), (b, 1.0)], 4);
        assert!(sel.choice_for(a).is_some());
        assert!(sel.choice_for(b).is_some());
        assert!(sel.target.determinant() <= 4);
    }

    #[test]
    fn select_upgrades_with_spare_capacity() {
        let (lib, a, _) = library();
        let sel = select_molecules(&lib, &[(a, 1.0)], 4);
        assert_eq!(sel.choice_for(a).unwrap().cycles, 12);
        // The choice carries its own Atom counts for downstream planners.
        assert_eq!(sel.choice_for(a).unwrap().molecule, mol([2, 2, 0]));
        assert_eq!(sel.target, mol([2, 2, 0]));
    }

    #[test]
    fn select_respects_capacity() {
        let (lib, a, b) = library();
        let sel = select_molecules(&lib, &[(a, 1.0), (b, 1.0)], 2);
        // Only one minimal molecule fits (2 atoms each).
        assert!(sel.target.determinant() <= 2);
        assert_eq!(sel.chosen.len(), 1);
    }

    #[test]
    fn select_weights_break_ties() {
        let (lib, a, b) = library();
        let sel = select_molecules(&lib, &[(a, 0.1), (b, 100.0)], 2);
        assert!(sel.choice_for(b).is_some());
        assert!(sel.choice_for(a).is_none());
    }

    #[test]
    fn select_zero_capacity_selects_nothing() {
        let (lib, a, b) = library();
        let sel = select_molecules(&lib, &[(a, 1.0), (b, 1.0)], 0);
        assert!(sel.chosen.is_empty());
        assert!(sel.target.is_zero());
    }

    #[test]
    fn select_ignores_zero_weight_demands() {
        let (lib, a, b) = library();
        let sel = select_molecules(&lib, &[(a, 0.0), (b, 1.0)], 8);
        assert!(sel.choice_for(a).is_none());
        assert!(sel.choice_for(b).is_some());
    }

    #[test]
    fn exhaustive_matches_greedy_on_easy_instance() {
        let (lib, a, b) = library();
        let demands = [(a, 1.0), (b, 1.0)];
        let greedy = select_molecules(&lib, &demands, 8);
        let optimal = select_molecules_exhaustive(&lib, &demands, 8);
        assert_eq!(
            selection_benefit(&lib, &demands, &greedy),
            selection_benefit(&lib, &demands, &optimal)
        );
    }

    #[test]
    fn exhaustive_never_worse_than_greedy() {
        let (lib, a, b) = library();
        for capacity in 0..=8u32 {
            let demands = [(a, 3.0), (b, 1.0)];
            let greedy = select_molecules(&lib, &demands, capacity);
            let optimal = select_molecules_exhaustive(&lib, &demands, capacity);
            assert!(
                selection_benefit(&lib, &demands, &optimal) + 1e-9
                    >= selection_benefit(&lib, &demands, &greedy),
                "capacity {capacity}"
            );
            assert!(optimal.target.determinant() <= capacity);
        }
    }

    #[test]
    fn exhaustive_zero_capacity_is_software() {
        let (lib, a, b) = library();
        let sel = select_molecules_exhaustive(&lib, &[(a, 1.0), (b, 1.0)], 0);
        assert!(sel.chosen.is_empty());
        assert!(sel.target.is_zero());
    }
}
