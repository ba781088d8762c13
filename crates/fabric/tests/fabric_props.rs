//! Property tests on the fabric: conservation of Atoms, single-port
//! serialisation, time consistency and loaded-Atom revision soundness
//! under arbitrary request/advance interleavings.

use proptest::prelude::*;
use rispp_core::atom::{AtomKind, AtomSet};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::container::{ContainerId, ContainerState};
use rispp_fabric::fabric::{Fabric, FabricError, FabricEvent};
use rispp_fabric::fault::FaultPlan;

const KINDS: usize = 3;

fn make_fabric(containers: usize) -> Fabric {
    let names = ["X", "Y", "Z"];
    let atoms = AtomSet::from_names(names);
    let catalog = AtomCatalog::new(
        names
            .iter()
            .enumerate()
            .map(|(i, n)| AtomHwProfile::new(*n, 100, 200, 3_000 + 1_000 * i as u64))
            .collect(),
    );
    Fabric::new(atoms, catalog, containers)
}

/// One fuzzing action against the fabric.
#[derive(Debug, Clone, Copy)]
enum Action {
    Request { container: usize, kind: usize },
    Advance { delta: u64 },
    Cancel { container: usize },
}

fn action(containers: usize) -> impl Strategy<Value = Action> {
    let c = containers.max(1);
    prop_oneof![
        (0..c, 0..KINDS).prop_map(|(container, kind)| Action::Request { container, kind }),
        (1u64..100_000).prop_map(|delta| Action::Advance { delta }),
        (0..c).prop_map(|container| Action::Cancel { container }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any action sequence: loaded + loading + queued never exceeds
    /// the container count, and loaded atoms never exceed it either.
    #[test]
    fn capacity_is_conserved(
        containers in 1usize..5,
        actions in proptest::collection::vec(action(4), 1..40),
    ) {
        let mut fabric = make_fabric(containers);
        for a in actions {
            match a {
                Action::Request { container, kind } => {
                    if container < containers {
                        let _ = fabric.request_rotation(
                            ContainerId(container),
                            AtomKind(kind),
                        );
                    }
                }
                Action::Advance { delta } => {
                    let t = fabric.now() + delta;
                    fabric.advance_to(t).unwrap();
                }
                Action::Cancel { container } => {
                    let _ = fabric.cancel_pending(ContainerId(container));
                }
            }
            prop_assert!(
                fabric.loaded_molecule().determinant() as usize <= containers
            );
            prop_assert!(
                fabric.committed_molecule().determinant() as usize <= containers
            );
        }
    }

    /// Rotation events alternate start → complete per container, and the
    /// port never runs two rotations concurrently.
    #[test]
    fn port_serialises_rotations(
        containers in 1usize..5,
        actions in proptest::collection::vec(action(4), 1..40),
    ) {
        let mut fabric = make_fabric(containers);
        let mut events: Vec<FabricEvent> = Vec::new();
        for a in actions {
            match a {
                Action::Request { container, kind } => {
                    if container < containers {
                        let _ = fabric.request_rotation(
                            ContainerId(container),
                            AtomKind(kind),
                        );
                    }
                }
                Action::Advance { delta } => {
                    let t = fabric.now() + delta;
                    events.extend(fabric.advance_to(t).unwrap());
                }
                Action::Cancel { container } => {
                    let _ = fabric.cancel_pending(ContainerId(container));
                }
            }
        }
        // Drain the rest.
        while let Some(t) = fabric.next_completion() {
            events.extend(fabric.advance_to(t).unwrap());
        }
        // Starts and completions alternate globally (single port): every
        // start is followed by its completion before the next start.
        let mut in_flight: Option<ContainerId> = None;
        let mut last_time = 0u64;
        for e in &events {
            prop_assert!(e.at() >= last_time, "events out of order");
            last_time = e.at();
            match *e {
                FabricEvent::RotationStarted { container, .. } => {
                    prop_assert!(in_flight.is_none(), "two rotations in flight");
                    in_flight = Some(container);
                }
                FabricEvent::RotationCompleted { container, .. }
                | FabricEvent::RotationFailed { container, .. } => {
                    prop_assert_eq!(in_flight, Some(container));
                    in_flight = None;
                }
                FabricEvent::PortStalled { .. }
                | FabricEvent::ContainerQuarantined { .. }
                | FabricEvent::ContainerFaulted { .. } => {}
            }
        }
    }

    /// `all_rotations_done_at` is a correct upper bound: advancing there
    /// leaves the fabric idle with everything loaded.
    #[test]
    fn all_done_estimate_is_exact(
        containers in 1usize..5,
        kinds in proptest::collection::vec(0usize..KINDS, 1..5),
    ) {
        let mut fabric = make_fabric(containers);
        let mut expected = 0u32;
        for (i, &k) in kinds.iter().enumerate() {
            let c = ContainerId(i % containers);
            if fabric.request_rotation(c, AtomKind(k)).is_ok() {
                expected += 1;
            }
        }
        if let Some(done) = fabric.all_rotations_done_at() {
            fabric.advance_to(done).unwrap();
            prop_assert!(fabric.is_idle());
            prop_assert_eq!(fabric.loaded_molecule().determinant(), expected.min(containers as u32));
        }
    }

    /// Time never goes backwards; advancing to the current time is a
    /// no-op that produces no events.
    #[test]
    fn advance_is_monotone_and_idempotent(delta in 1u64..1_000_000) {
        let mut fabric = make_fabric(2);
        fabric.request_rotation(ContainerId(0), AtomKind(0)).unwrap();
        fabric.advance_to(delta).unwrap();
        let again = fabric.advance_to(delta).unwrap();
        prop_assert!(again.is_empty());
        let earlier = fabric.advance_to(delta.saturating_sub(1));
        let ok = matches!(earlier, Err(FabricError::TimeReversal { .. }) | Ok(_));
        prop_assert!(ok);
    }

    /// Under a seeded fault plan (CRC failures, bad containers, transient
    /// faults, port stalls), the loaded-Atom revision never moves
    /// backwards, and whenever the loaded Meta-Molecule or any container
    /// state differs from the previous step, the revision differs too —
    /// the invariant every cache keyed on it relies on.
    #[test]
    fn revision_moves_whenever_loaded_atoms_change(
        containers in 1usize..5,
        seed in any::<u64>(),
        actions in proptest::collection::vec(action(4), 1..60),
    ) {
        let plan = FaultPlan::seeded(seed, containers, 1_000_000);
        let mut fabric = make_fabric(containers).with_faults(plan);
        let states = |f: &Fabric| -> Vec<ContainerState> {
            f.iter_containers().map(|(_, c)| c.state()).collect()
        };
        let mut revision = fabric.loaded_revision();
        let mut loaded = fabric.loaded_molecule();
        let mut before = states(&fabric);
        for a in actions {
            match a {
                Action::Request { container, kind } => {
                    if container < containers {
                        let _ = fabric.request_rotation(
                            ContainerId(container),
                            AtomKind(kind),
                        );
                    }
                }
                Action::Advance { delta } => {
                    let t = fabric.now() + delta;
                    fabric.advance_to(t).unwrap();
                }
                Action::Cancel { container } => {
                    let _ = fabric.cancel_pending(ContainerId(container));
                }
            }
            let now_loaded = fabric.loaded_molecule();
            let after = states(&fabric);
            prop_assert!(fabric.loaded_revision() >= revision);
            if now_loaded != loaded || after != before {
                prop_assert_ne!(fabric.loaded_revision(), revision);
            }
            revision = fabric.loaded_revision();
            loaded = now_loaded;
            before = after;
        }
    }
}
