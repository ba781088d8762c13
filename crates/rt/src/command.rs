//! Command stage: the single place where decisions become fabric
//! mutations.
//!
//! The decision stages ([`forecast`](crate::forecast),
//! [`selection`](crate::selection), [`rotation`](crate::rotation)) are
//! pure: they read state and return values. Everything they decide is
//! expressed as a [`Command`], and `apply` is the one function that
//! executes commands against the [`Fabric`] — with the matching
//! [`StatsLedger`] accounting, so billing can never drift from what the
//! fabric actually did.

use rispp_core::atom::AtomKind;
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::{Fabric, FabricError};

use crate::stats::StatsLedger;
use crate::TaskId;

/// One fabric mutation decided by the policy kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Command<'a> {
    /// Cancels every queued-but-unstarted rotation (the port cannot abort
    /// an in-flight write) and refunds their billing.
    CancelPending,
    /// Rotates `kind` into `victim` on behalf of `owner`, billing the
    /// transfer.
    Rotate {
        /// Container chosen by the replacement policy.
        victim: ContainerId,
        /// Atom kind to load.
        kind: AtomKind,
        /// Task the rotation is attributed to.
        owner: Option<TaskId>,
    },
    /// Marks containers as used (LRU metadata for the replacement
    /// policy): the [`Fabric::touch_set`] of the dispatched Molecule.
    /// Borrowed: dispatch is the hot path and must not clone the set.
    Touch(&'a [ContainerId]),
}

/// Applies one command to the fabric and mirrors it into the ledger.
///
/// # Errors
///
/// [`Command::Rotate`] forwards the fabric's refusal (unknown container,
/// quarantined container, container already rotating); nothing is billed
/// in that case. The other commands are infallible.
pub(crate) fn apply(
    fabric: &mut Fabric,
    ledger: &mut StatsLedger,
    cmd: &Command<'_>,
) -> Result<(), FabricError> {
    match *cmd {
        Command::CancelPending => {
            // Cancelled queued rotations never transfer a bitstream:
            // deduct them from the accounting before dropping them.
            for (_, kind) in fabric.pending_rotations() {
                ledger.note_rotation_cancelled(fabric.catalog().profile(kind).bitstream_bytes);
            }
            fabric.cancel_all_pending();
            Ok(())
        }
        Command::Rotate {
            victim,
            kind,
            owner,
        } => {
            fabric.request_rotation_for(victim, kind, owner)?;
            ledger.note_rotation_requested(fabric.catalog().profile(kind).bitstream_bytes);
            Ok(())
        }
        Command::Touch(containers) => {
            fabric.touch_containers(containers);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::atom::AtomSet;
    use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};

    fn fabric() -> Fabric {
        let atoms = AtomSet::from_names(["A", "B"]);
        let catalog = AtomCatalog::new(vec![
            AtomHwProfile::new("A", 100, 200, 6_920),
            AtomHwProfile::new("B", 100, 200, 1_000),
        ]);
        Fabric::new(atoms, catalog, 2)
    }

    #[test]
    fn rotate_bills_and_attributes() {
        let mut f = fabric();
        let mut ledger = StatsLedger::new();
        apply(
            &mut f,
            &mut ledger,
            &Command::Rotate {
                victim: ContainerId(0),
                kind: AtomKind(0),
                owner: Some(7),
            },
        )
        .unwrap();
        assert_eq!(ledger.rotations_requested(), 1);
        assert_eq!(ledger.rotation_bytes(), 6_920);
        assert_eq!(f.container(ContainerId(0)).owner(), Some(7));
    }

    #[test]
    fn failed_rotate_bills_nothing() {
        let mut f = fabric();
        let mut ledger = StatsLedger::new();
        let err = apply(
            &mut f,
            &mut ledger,
            &Command::Rotate {
                victim: ContainerId(9),
                kind: AtomKind(0),
                owner: None,
            },
        );
        assert!(err.is_err());
        assert_eq!(ledger.rotations_requested(), 0);
        assert_eq!(ledger.rotation_bytes(), 0);
    }

    #[test]
    fn cancel_refunds_queued_but_not_in_flight() {
        let mut f = fabric();
        let mut ledger = StatsLedger::new();
        // First rotation starts immediately; the second queues behind the
        // single reconfiguration port.
        for (victim, kind, bytes) in [(0, 0, 6_920), (1, 1, 1_000)] {
            apply(
                &mut f,
                &mut ledger,
                &Command::Rotate {
                    victim: ContainerId(victim),
                    kind: AtomKind(kind),
                    owner: None,
                },
            )
            .unwrap();
            let _ = bytes;
        }
        assert_eq!(ledger.rotation_bytes(), 7_920);
        apply(&mut f, &mut ledger, &Command::CancelPending).unwrap();
        // Only the queued B transfer is refunded.
        assert_eq!(ledger.rotations_requested(), 1);
        assert_eq!(ledger.rotation_bytes(), 6_920);
        assert!(f.pending_rotations().is_empty());
    }
}
