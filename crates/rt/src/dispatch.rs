//! Dispatch stage: each SI's fastest loaded Molecule, cached per fabric
//! revision.
//!
//! An SI runs on the fastest hardware Molecule the loaded Atoms support,
//! else in software (paper §5). That choice, and the containers the LRU
//! touch of the chosen Molecule updates, depend on the container states
//! alone, which change exactly when [`Fabric::loaded_revision`] moves. The
//! [`DispatchTable`] keeps one [`Dispatch`] per SI and recomputes it on
//! the SI's first dispatch after the revision moved, so every other
//! dispatch is an index lookup.

use rispp_core::molecule::Molecule;
use rispp_core::si::{SiId, SpecialInstruction};
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::Fabric;

use crate::stats::ExecutionRecord;

/// One SI's dispatch decision at one fabric revision.
#[derive(Debug, Clone)]
struct Dispatch {
    /// The revision this entry was computed at; `None` until first use.
    revision: Option<u64>,
    /// Index into the SI's Molecules of the fastest loaded hardware
    /// Molecule, or `None` for software.
    best: Option<usize>,
    /// The containers [`Fabric::touch_set`] picks for that Molecule.
    touch: Vec<ContainerId>,
}

/// Per-SI [`Dispatch`] entries, indexed by [`SiId`].
#[derive(Debug, Clone)]
pub(crate) struct DispatchTable {
    entries: Vec<Dispatch>,
}

impl DispatchTable {
    /// A table for a library of `sis` SIs on a fabric of `containers`
    /// Atom Containers, every entry stale. A touch set names each
    /// container at most once, so sizing every list for all containers
    /// up front keeps dispatch free of allocations for the whole run.
    pub(crate) fn new(sis: usize, containers: usize) -> Self {
        let stale = || Dispatch {
            revision: None,
            best: None,
            touch: Vec::with_capacity(containers),
        };
        DispatchTable {
            entries: (0..sis).map(|_| stale()).collect(),
        }
    }

    /// The dispatch of `si` (defined by `def`) on `fabric` as loaded now:
    /// the cached entry while the fabric's revision is the one it was
    /// computed at, else a fresh one — the first Molecule in `def`'s
    /// fastest-first order whose Atoms are all loaded.
    fn lookup(&mut self, si: SiId, def: &SpecialInstruction, fabric: &Fabric) -> &Dispatch {
        let revision = fabric.loaded_revision();
        let entry = &mut self.entries[si.index()];
        if entry.revision != Some(revision) {
            let loaded = fabric.loaded_molecule();
            entry.best = def.molecules().iter().position(|m| m.molecule.le(&loaded));
            entry.touch.clear();
            if let Some(i) = entry.best {
                entry
                    .touch
                    .extend(fabric.touch_set(&def.molecules()[i].molecule));
            }
            entry.revision = Some(revision);
        }
        entry
    }

    /// How `si` (defined by `def`) executes on `fabric` as loaded now:
    /// its record and, in hardware, the Molecule it runs on and the
    /// containers whose LRU cycle it touches. Every execution path of
    /// the manager dispatches through here, so the rule that picks
    /// hardware or software lives in this function and
    /// [`DispatchTable::lookup`].
    pub(crate) fn execution<'a>(
        &'a mut self,
        si: SiId,
        def: &'a SpecialInstruction,
        fabric: &Fabric,
    ) -> (ExecutionRecord, Option<(&'a Molecule, &'a [ContainerId])>) {
        let entry = self.lookup(si, def, fabric);
        match entry.best {
            Some(i) => {
                let m = &def.molecules()[i];
                let record = ExecutionRecord {
                    si,
                    cycles: m.cycles,
                    hardware: true,
                };
                (record, Some((&m.molecule, &entry.touch)))
            }
            None => {
                let record = ExecutionRecord {
                    si,
                    cycles: def.sw_cycles(),
                    hardware: false,
                };
                (record, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::{AtomKind, AtomSet};
    use rispp_core::molecule::Molecule;
    use rispp_core::si::MoleculeImpl;
    use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};

    fn platform() -> (SpecialInstruction, Fabric) {
        let atoms = AtomSet::from_names(["A", "B"]);
        let catalog = AtomCatalog::new(vec![
            AtomHwProfile::new("A", 100, 200, 1_000),
            AtomHwProfile::new("B", 100, 200, 1_000),
        ]);
        let si = SpecialInstruction::new(
            "S",
            100,
            vec![
                MoleculeImpl::new(Molecule::from_counts([1, 0]), 40),
                MoleculeImpl::new(Molecule::from_counts([1, 1]), 10),
            ],
        )
        .unwrap();
        (si, Fabric::new(atoms, catalog, 3))
    }

    #[test]
    fn entry_follows_the_loaded_atoms_revision_by_revision() {
        let (si, mut fabric) = platform();
        let mut table = DispatchTable::new(1, fabric.num_containers());
        assert_eq!(table.lookup(SiId(0), &si, &fabric).best, None);

        // Load B into AC2, then A into AC0: the fast Molecule needs both.
        fabric
            .request_rotation(ContainerId(2), AtomKind(1))
            .unwrap();
        fabric
            .advance_to(fabric.next_completion().unwrap())
            .unwrap();
        assert_eq!(table.lookup(SiId(0), &si, &fabric).best, None);
        fabric
            .request_rotation(ContainerId(0), AtomKind(0))
            .unwrap();
        fabric
            .advance_to(fabric.next_completion().unwrap())
            .unwrap();
        let hit = table.lookup(SiId(0), &si, &fabric).clone();
        assert_eq!(hit.best, Some(0), "molecules sort fastest first");
        assert_eq!(si.molecules()[0].cycles, 10);
        assert_eq!(hit.touch, vec![ContainerId(0), ContainerId(2)]);

        // Overwriting AC2 evicts B the moment the write starts.
        fabric
            .request_rotation(ContainerId(2), AtomKind(0))
            .unwrap();
        let slow = table.lookup(SiId(0), &si, &fabric);
        assert_eq!(slow.best, Some(1));
        assert_eq!(slow.touch, vec![ContainerId(0)]);
    }
}
