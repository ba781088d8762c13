//! Atom-Container replacement.
//!
//! When the run-time manager needs to rotate a new Atom in, it must pick a
//! victim container. The paper's scenario (Fig. 6) reallocates containers
//! whose Atoms the current selection no longer needs; among those, the
//! least-recently-used Atom goes first ([`choose_victim`]).

use rispp_core::molecule::Molecule;
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::Fabric;

/// Picks the container a new Atom is rotated into, given the
/// Meta-Molecule `keep` of Atoms that must stay available: an empty
/// container first, then the least-recently-used container whose Atom
/// kind has surplus instances relative to `keep`. Containers with a
/// rotation in flight or queued are never eligible, nor are quarantined
/// ones. Returns `None` when every container is pending or protected.
#[must_use]
pub fn choose_victim(fabric: &Fabric, keep: &Molecule) -> Option<ContainerId> {
    let mut pending = vec![false; fabric.num_containers()];
    for (id, c) in fabric.iter_containers() {
        if c.is_loading() {
            pending[id.index()] = true;
        }
    }
    // Queued-but-unstarted rotations also make a container ineligible:
    // it already has a new Atom on the way.
    for (id, _) in fabric.pending_rotations() {
        pending[id.index()] = true;
    }
    // Empty, non-pending containers are free wins. Quarantined
    // containers also report no loaded Atom, but rotating into them is
    // pointless — they reject every request.
    for (id, c) in fabric.iter_containers() {
        if !pending[id.index()]
            && c.loaded_kind().is_none()
            && !c.is_loading()
            && !c.is_quarantined()
        {
            return Some(id);
        }
    }
    // Count surplus per kind: loaded instances beyond what `keep`
    // requires.
    let loaded = fabric.loaded_molecule();
    let surplus: Vec<i64> = loaded
        .iter()
        .map(|(k, have)| i64::from(have) - i64::from(keep.count(k)))
        .collect();
    // LRU among surplus-kind containers.
    let mut candidates: Vec<(u64, ContainerId)> = fabric
        .iter_containers()
        .filter_map(|(id, c)| {
            let kind = c.loaded_kind()?;
            if pending[id.index()] || surplus[kind.index()] <= 0 {
                None
            } else {
                Some((c.last_used(), id))
            }
        })
        .collect();
    candidates.sort_unstable_by_key(|&(used, id)| (used, id));
    candidates.first().map(|&(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::{AtomKind, AtomSet};
    use rispp_fabric::catalog::{table1_profiles, AtomCatalog};

    fn fabric(containers: usize) -> Fabric {
        let atoms = AtomSet::from_names(["Transform", "SATD", "Pack", "QuadSub"]);
        Fabric::new(
            atoms,
            AtomCatalog::new(table1_profiles().to_vec()),
            containers,
        )
    }

    fn load(fabric: &mut Fabric, id: usize, kind: usize) {
        fabric
            .request_rotation(ContainerId(id), AtomKind(kind))
            .unwrap();
        let t = fabric.next_completion().unwrap();
        fabric.advance_to(t).unwrap();
    }

    #[test]
    fn prefers_empty_containers() {
        let mut f = fabric(3);
        load(&mut f, 0, 0);
        let keep = Molecule::zero(4);
        let victim = choose_victim(&f, &keep).unwrap();
        assert_ne!(victim, ContainerId(0)); // 0 holds an atom; 1/2 empty
    }

    #[test]
    fn protects_kept_atoms() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        load(&mut f, 1, 1);
        // Keep requires one Transform (kind 0): only container 1 (SATD)
        // has surplus.
        let keep = Molecule::from_counts([1, 0, 0, 0]);
        assert_eq!(choose_victim(&f, &keep), Some(ContainerId(1)));
    }

    #[test]
    fn evicts_least_recently_used_surplus() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        load(&mut f, 1, 0);
        let t = f.now();
        f.advance_to(t + 10).unwrap();
        // Touch kind 0 once: the first matching container gets the newer
        // stamp, so container 1 is the LRU victim.
        f.touch_atoms(&Molecule::from_counts([1, 0, 0, 0]));
        let keep = Molecule::from_counts([1, 0, 0, 0]); // one surplus Transform
        assert_eq!(choose_victim(&f, &keep), Some(ContainerId(1)));
    }

    #[test]
    fn returns_none_when_everything_protected() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        load(&mut f, 1, 1);
        let keep = Molecule::from_counts([1, 1, 0, 0]);
        assert_eq!(choose_victim(&f, &keep), None);
    }

    #[test]
    fn never_picks_quarantined_containers() {
        use rispp_fabric::FaultPlan;
        let mut f = fabric(3).with_faults(FaultPlan {
            bad_containers: vec![ContainerId(1)],
            ..FaultPlan::default()
        });
        // The first rotation into the bad container quarantines it.
        f.request_rotation(ContainerId(1), AtomKind(0)).unwrap();
        let t = f.next_completion().unwrap();
        f.advance_to(t).unwrap();
        assert!(f.container(ContainerId(1)).is_quarantined());
        load(&mut f, 0, 0);
        load(&mut f, 2, 1);
        // Only the surplus SATD in AC2 is evictable — never AC1, even
        // though it reports no loaded Atom.
        let keep = Molecule::from_counts([1, 0, 0, 0]);
        assert_eq!(choose_victim(&f, &keep), Some(ContainerId(2)));
        // With every healthy Atom protected there is no victim at all.
        let keep_all = Molecule::from_counts([1, 1, 0, 0]);
        assert_eq!(choose_victim(&f, &keep_all), None);
    }

    #[test]
    fn skips_loading_containers() {
        let mut f = fabric(2);
        load(&mut f, 0, 0);
        f.request_rotation(ContainerId(1), AtomKind(2)).unwrap(); // in flight
        let keep = Molecule::zero(4);
        // Only container 0 is eligible (1 is loading).
        assert_eq!(choose_victim(&f, &keep), Some(ContainerId(0)));
    }
}
