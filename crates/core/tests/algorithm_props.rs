//! Property tests on the selection algorithms: the Fig. 5 trimming loop
//! terminates with an invariant-respecting result, run-time Molecule
//! selection never exceeds its Atom-Container budget, never makes an SI
//! slower and never beats the exhaustive oracle, and the resumable greedy
//! equals a fresh greedy after any sequence of demand changes.

use proptest::prelude::*;
use rispp_core::molecule::Molecule;
use rispp_core::selection::{
    select_molecules, select_molecules_exhaustive, selection_benefit, trim_forecast_candidates,
    MoleculeSelection, ResumableGreedy,
};
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};

const WIDTH: usize = 4;

fn molecule() -> impl Strategy<Value = Molecule> {
    proptest::collection::vec(0u32..5, WIDTH).prop_map(Molecule::from_counts)
}

fn nonzero_molecule() -> impl Strategy<Value = Molecule> {
    molecule().prop_filter("must need at least one atom", |m| !m.is_zero())
}

prop_compose! {
    fn si_strategy()(
        mols in proptest::collection::vec((nonzero_molecule(), 1u64..100), 1..5),
        extra_sw in 1u64..1000,
    ) -> SpecialInstruction {
        let max_hw = mols.iter().map(|(_, c)| *c).max().unwrap_or(1);
        let sw = max_hw + extra_sw; // software is always slower than hardware
        SpecialInstruction::new(
            "prop-si",
            sw,
            mols.into_iter()
                .map(|(m, c)| MoleculeImpl::new(m, c))
                .collect(),
        )
        .expect("strategy builds valid SIs")
    }
}

proptest! {
    #[test]
    fn trim_result_partitions_input(
        reps in proptest::collection::vec(nonzero_molecule(), 0..8),
        budget in 0u32..20,
    ) {
        let speedups = vec![2.0; reps.len()];
        let out = trim_forecast_candidates(&reps, &speedups, budget).unwrap();
        let mut all: Vec<usize> = out.kept.iter().chain(&out.removed).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..reps.len()).collect::<Vec<_>>());
    }

    #[test]
    fn trim_final_sup_is_sup_of_kept(
        reps in proptest::collection::vec(nonzero_molecule(), 1..8),
        budget in 0u32..20,
    ) {
        let speedups = vec![2.0; reps.len()];
        let out = trim_forecast_candidates(&reps, &speedups, budget).unwrap();
        let expect = Molecule::supremum(WIDTH, out.kept.iter().map(|&i| &reps[i])).unwrap();
        prop_assert_eq!(out.final_sup, expect);
    }

    #[test]
    fn trim_never_removes_when_budget_generous(
        reps in proptest::collection::vec(nonzero_molecule(), 1..8),
    ) {
        let speedups = vec![2.0; reps.len()];
        // WIDTH * 4 (max count) covers any supremum.
        let out = trim_forecast_candidates(&reps, &speedups, (WIDTH as u32) * 4).unwrap();
        prop_assert!(out.removed.is_empty());
    }

    #[test]
    fn trim_only_stalls_on_clusters(
        reps in proptest::collection::vec(nonzero_molecule(), 1..8),
        budget in 0u32..20,
    ) {
        // If the outcome still exceeds the budget, it must be because no
        // single removal frees any container (the Fig. 5 cluster condition:
        // ∀ m ∈ M: m ≤ sup(M \ {m})).
        let speedups = vec![2.0; reps.len()];
        let out = trim_forecast_candidates(&reps, &speedups, budget).unwrap();
        if !out.fits(budget) && !out.kept.is_empty() {
            for &i in &out.kept {
                let others = Molecule::supremum(
                    WIDTH,
                    out.kept.iter().filter(|&&j| j != i).map(|&j| &reps[j]),
                )
                .unwrap();
                prop_assert!(reps[i].le(&others), "removal of {} would have freed atoms", i);
            }
        }
    }

    #[test]
    fn selection_respects_budget(
        sis in proptest::collection::vec(si_strategy(), 1..5),
        capacity in 0u32..16,
    ) {
        let mut lib = SiLibrary::new(WIDTH);
        let ids: Vec<SiId> = sis
            .into_iter()
            .map(|si| lib.insert(si).unwrap())
            .collect();
        let demands: Vec<(SiId, f64)> = ids.iter().map(|&id| (id, 1.0)).collect();
        let sel = select_molecules(&lib, &demands, capacity);
        prop_assert!(sel.target.determinant() <= capacity);
    }

    #[test]
    fn selection_choices_fit_in_target(
        sis in proptest::collection::vec(si_strategy(), 1..5),
        capacity in 0u32..16,
    ) {
        let mut lib = SiLibrary::new(WIDTH);
        let ids: Vec<SiId> = sis
            .into_iter()
            .map(|si| lib.insert(si).unwrap())
            .collect();
        let demands: Vec<(SiId, f64)> = ids.iter().map(|&id| (id, 1.0)).collect();
        let sel = select_molecules(&lib, &demands, capacity);
        for choice in &sel.chosen {
            let m = &lib.get(choice.si).molecules()[choice.molecule_index];
            prop_assert!(m.molecule.le(&sel.target));
            prop_assert_eq!(m.cycles, choice.cycles);
        }
    }

    #[test]
    fn selection_never_slower_than_software(
        sis in proptest::collection::vec(si_strategy(), 1..5),
        capacity in 0u32..16,
    ) {
        let mut lib = SiLibrary::new(WIDTH);
        let ids: Vec<SiId> = sis
            .into_iter()
            .map(|si| lib.insert(si).unwrap())
            .collect();
        let demands: Vec<(SiId, f64)> = ids.iter().map(|&id| (id, 1.0)).collect();
        let sel = select_molecules(&lib, &demands, capacity);
        for &id in &ids {
            let si = lib.get(id);
            prop_assert!(si.exec_cycles(&sel.target) <= si.sw_cycles());
        }
    }

    #[test]
    fn representative_bounds(si in si_strategy()) {
        // Rep(S) lies between the infimum and supremum of the Molecules.
        let rep = si.representative();
        let mols: Vec<Molecule> =
            si.molecules().iter().map(|m| m.molecule.clone()).collect();
        let sup = Molecule::supremum(WIDTH, &mols).unwrap();
        let inf = Molecule::infimum(&mols).unwrap().unwrap();
        prop_assert!(inf.le(&rep));
        prop_assert!(rep.le(&sup));
    }

    #[test]
    fn representative_dominates_per_atom_average(si in si_strategy()) {
        // Rep(S) is at least the per-kind average over the SI's Molecules
        // (rounded up): a representative that under-reports a kind would
        // bias the trimming loop against SIs that genuinely need it.
        let rep = si.representative();
        let n = si.molecules().len() as u64;
        for k in 0..WIDTH {
            let kind = rispp_core::atom::AtomKind(k);
            let sum: u64 = si
                .molecules()
                .iter()
                .map(|m| u64::from(m.molecule.count(kind)))
                .sum();
            prop_assert!(
                u64::from(rep.count(kind)) * n >= sum,
                "kind {k}: rep {} * {n} < sum {sum}",
                rep.count(kind)
            );
        }
    }
}

fn library(sis: Vec<SpecialInstruction>) -> (SiLibrary, Vec<SiId>) {
    let mut lib = SiLibrary::new(WIDTH);
    let ids = sis.into_iter().map(|si| lib.insert(si).unwrap()).collect();
    (lib, ids)
}

/// Weights drawn from a small table, so equal weights — and with them
/// equal ratios — are common. 0.1 and 0.3 are not exact in binary, so a
/// ratio derived from another weight by scaling differs in its last bits
/// from one computed afresh.
const WEIGHTS: [f64; 8] = [0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 1.0 / 3.0];

/// One change to the demand vector between two re-selections.
#[derive(Debug, Clone)]
enum Change {
    /// One position takes a new weight.
    One { pos: usize, weight: usize },
    /// Several positions take new weights at once.
    Many { weights: Vec<usize> },
    /// The capacity changes.
    Capacity(u32),
    /// A demand is appended.
    Add { si: usize, weight: usize },
    /// A demand is removed.
    Remove { pos: usize },
    /// Two positions take the same weight.
    Tie { a: usize, b: usize, weight: usize },
    /// Nothing changes.
    Same,
}

fn change() -> impl Strategy<Value = Change> {
    let w = 0usize..WEIGHTS.len();
    prop_oneof![
        (0usize..8, w.clone()).prop_map(|(pos, weight)| Change::One { pos, weight }),
        (0usize..8, w.clone()).prop_map(|(pos, weight)| Change::One { pos, weight }),
        proptest::collection::vec(w.clone(), 1..6).prop_map(|weights| Change::Many { weights }),
        (0u32..14).prop_map(Change::Capacity),
        (0usize..8, w.clone()).prop_map(|(si, weight)| Change::Add { si, weight }),
        (0usize..8).prop_map(|pos| Change::Remove { pos }),
        (0usize..8, 0usize..8, w).prop_map(|(a, b, weight)| Change::Tie { a, b, weight }),
        (0u32..1).prop_map(|_| Change::Same),
    ]
}

fn apply(change: &Change, ids: &[SiId], demands: &mut Vec<(SiId, f64)>, capacity: &mut u32) {
    let n = demands.len();
    match *change {
        Change::One { pos, weight } if n > 0 => demands[pos % n].1 = WEIGHTS[weight],
        Change::Many { ref weights } => {
            for (d, &w) in demands.iter_mut().zip(weights) {
                d.1 = WEIGHTS[w];
            }
        }
        Change::Capacity(c) => *capacity = c,
        Change::Add { si, weight } => demands.push((ids[si % ids.len()], WEIGHTS[weight])),
        Change::Remove { pos } if n > 0 => {
            demands.remove(pos % n);
        }
        Change::Tie { a, b, weight } if n > 0 => {
            demands[a % n].1 = WEIGHTS[weight];
            demands[b % n].1 = WEIGHTS[weight];
        }
        _ => {}
    }
}

/// Equal ratios go to the earlier demand position, then to the lower
/// Molecule index — free upgrades (an infinite ratio) included.
#[test]
fn greedy_ties_go_to_the_earlier_position_then_the_lower_index() {
    let mol = |counts: [u32; 2], cycles| MoleculeImpl::new(Molecule::from_counts(counts), cycles);
    let mut lib = SiLibrary::new(2);
    let a = lib
        .insert(SpecialInstruction::new("A", 100, vec![mol([1, 0], 50)]).unwrap())
        .unwrap();
    let b = lib
        .insert(SpecialInstruction::new("B", 100, vec![mol([0, 1], 50)]).unwrap())
        .unwrap();
    // Two Molecules with the same gain and cost.
    let c = lib
        .insert(SpecialInstruction::new("C", 100, vec![mol([0, 1], 40), mol([1, 0], 40)]).unwrap())
        .unwrap();
    // Covers both kinds, so every Molecule above becomes free after it.
    let big = lib
        .insert(SpecialInstruction::new("BIG", 1_000, vec![mol([1, 1], 10)]).unwrap())
        .unwrap();
    let chosen = |sel: &MoleculeSelection| -> Vec<(SiId, usize)> {
        sel.chosen
            .iter()
            .map(|c| (c.si, c.molecule_index))
            .collect()
    };

    // A and B tie at 50 cycles per Atom and one Atom fits: the earlier
    // position wins, whichever SI it holds.
    let sel = select_molecules(&lib, &[(a, 1.0), (b, 1.0)], 1);
    assert_eq!(chosen(&sel), vec![(a, 0)]);
    let sel = select_molecules(&lib, &[(b, 1.0), (a, 1.0)], 1);
    assert_eq!(chosen(&sel), vec![(b, 0)]);

    // C's two Molecules tie: the lower index wins.
    let sel = select_molecules(&lib, &[(c, 1.0)], 1);
    assert_eq!(chosen(&sel), vec![(c, 0)]);

    // Once BIG holds both kinds, C's two Molecules are both free
    // upgrades: the lower index wins again, and A and B (also free)
    // follow in position order.
    let sel = select_molecules(&lib, &[(big, 10.0), (c, 1.0), (b, 1.0), (a, 1.0)], 2);
    assert_eq!(chosen(&sel), vec![(big, 0), (c, 0), (b, 0), (a, 0)]);
    assert_eq!(sel.target, Molecule::from_counts([1, 1]));

    // The resumable greedy keeps the same ties when it replays: swap
    // A's and B's weights, with the capacity for one of them.
    let mut greedy = ResumableGreedy::new();
    greedy.select(&lib, &[(a, 1.0), (b, 2.0)], 1);
    assert_eq!(chosen(&greedy.selection(&lib)), vec![(b, 0)]);
    assert!(greedy.select(&lib, &[(a, 2.0), (b, 2.0)], 1));
    assert_eq!(chosen(&greedy.selection(&lib)), vec![(a, 0)]);
    assert!(!greedy.select(&lib, &[(a, 2.0), (b, 1.0)], 1));
    assert_eq!(chosen(&greedy.selection(&lib)), vec![(a, 0)]);
}

/// A changed weight's ratio is `w·Δ/cost` computed afresh, never the
/// recorded ratio scaled by `w_new / w_old`: the two can differ in the
/// last bit and so break a tie the other way.
#[test]
fn resumed_ratios_are_recomputed_from_the_new_weight() {
    let mol = |counts: [u32; 2], cycles| MoleculeImpl::new(Molecule::from_counts(counts), cycles);
    let mut lib = SiLibrary::new(2);
    // Same 43-cycle gain for one Atom each, on different kinds.
    let x = lib
        .insert(SpecialInstruction::new("X", 53, vec![mol([1, 0], 10)]).unwrap())
        .unwrap();
    let y = lib
        .insert(SpecialInstruction::new("Y", 53, vec![mol([0, 1], 10)]).unwrap())
        .unwrap();
    let winner =
        |sel: MoleculeSelection| -> Vec<SiId> { sel.chosen.iter().map(|c| c.si).collect() };
    let mut greedy = ResumableGreedy::new();
    greedy.select(&lib, &[(x, 0.1), (y, 0.3)], 1);
    assert_eq!(winner(greedy.selection(&lib)), vec![y]);
    // 0.3 · 43 ties Y exactly, so the earlier position wins; 0.1 · 43
    // scaled by 0.3 / 0.1 would read 12.899999999999997 and lose.
    assert_eq!((0.1 * 43.0) / 0.1 * 0.3, 12.899_999_999_999_997);
    let demands = [(x, 0.3), (y, 0.3)];
    assert!(greedy.select(&lib, &demands, 1));
    assert_eq!(winner(greedy.selection(&lib)), vec![x]);
    assert_eq!(greedy.selection(&lib), select_molecules(&lib, &demands, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exhaustive oracle never scores below the greedy, and both stay
    /// within the capacity.
    #[test]
    fn exhaustive_never_scores_below_greedy(
        sis in proptest::collection::vec(si_strategy(), 1..5),
        weights in proptest::collection::vec(0usize..WEIGHTS.len(), 5),
        capacity in 0u32..12,
    ) {
        let (lib, ids) = library(sis);
        let demands: Vec<(SiId, f64)> =
            ids.iter().zip(&weights).map(|(&id, &w)| (id, WEIGHTS[w])).collect();
        let greedy = select_molecules(&lib, &demands, capacity);
        let optimal = select_molecules_exhaustive(&lib, &demands, capacity);
        prop_assert!(greedy.target.determinant() <= capacity);
        prop_assert!(optimal.target.determinant() <= capacity);
        prop_assert!(
            selection_benefit(&lib, &demands, &optimal) + 1e-9
                >= selection_benefit(&lib, &demands, &greedy)
        );
    }

    /// After every change to the demands — one weight, several, zero
    /// weights, added and removed demands, a new capacity, constructed
    /// ties — the resumable greedy equals a fresh `select_molecules`, and
    /// it reports "unchanged" only when its selection did not move.
    #[test]
    fn resumable_greedy_equals_a_fresh_greedy_after_every_change(
        sis in proptest::collection::vec(si_strategy(), 1..6),
        capacity in 0u32..14,
        changes in proptest::collection::vec(change(), 1..40),
    ) {
        let (lib, ids) = library(sis);
        let mut demands: Vec<(SiId, f64)> = ids.iter().map(|&id| (id, 1.0)).collect();
        let mut capacity = capacity;
        let mut greedy = ResumableGreedy::new();
        greedy.select(&lib, &demands, capacity);
        let mut last = greedy.selection(&lib);
        prop_assert_eq!(&last, &select_molecules(&lib, &demands, capacity));
        for change in &changes {
            apply(change, &ids, &mut demands, &mut capacity);
            let moved = greedy.select(&lib, &demands, capacity);
            let now = greedy.selection(&lib);
            prop_assert_eq!(&now, &select_molecules(&lib, &demands, capacity), "after {:?}", change);
            if !moved {
                prop_assert_eq!(&now, &last, "unchanged after {:?}", change);
            }
            last = now;
        }
    }
}
