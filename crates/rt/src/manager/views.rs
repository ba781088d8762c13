//! Read-only views of a [`RisppManager`]: accessors over the platform
//! state and the accumulated statistics. Nothing here mutates — every
//! state change lives in the parent module's decision loop.

use rispp_core::atom::AtomKind;
use rispp_core::energy::EnergyModel;
use rispp_core::molecule::Molecule;
use rispp_core::si::{SiId, SiLibrary};
use rispp_fabric::clock::Clock;
use rispp_fabric::fabric::Fabric;
use rispp_obs::SinkHandle;

use crate::policy::ReplacementPolicy;
use crate::rotation::{RetryPolicy, RotationSchedulePolicy};
use crate::selection::SelectionPolicy;
use crate::stats::{EnergyReport, FcStats, SiStats};

use super::RisppManager;

impl<P: ReplacementPolicy, S: SelectionPolicy, R: RotationSchedulePolicy> RisppManager<P, S, R> {
    /// The installed structured-event sink (disabled by default).
    #[must_use]
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The SI library.
    #[must_use]
    pub fn library(&self) -> &SiLibrary {
        &self.lib
    }

    /// The underlying fabric.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The platform clock — the same instance the fabric advances, so
    /// manager time and fabric time can never diverge.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        self.fabric.clock()
    }

    /// Current time in cycles (shorthand for `clock().now()`).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.fabric.now()
    }

    /// Currently usable Atoms.
    #[must_use]
    pub fn loaded(&self) -> Molecule {
        self.fabric.loaded_molecule()
    }

    /// The Meta-Molecule the current selection is converging to.
    #[must_use]
    pub fn target(&self) -> &Molecule {
        &self.selector.selection().target
    }

    /// Number of selection re-evaluations so far — every FC event invokes
    /// one, which is exactly why the compile-time pass trims FC
    /// candidates ("every FC invokes the run-time system to
    /// re-evaluate").
    #[must_use]
    pub fn reselects(&self) -> u64 {
        self.selector.reselects()
    }

    /// Always `(0, 0, 0)`: the selection cache whose `(hits, misses,
    /// invalidations)` this reported is gone. Kept only because the
    /// benchmark's traced mirror of `ShardSpec::run` still calls it;
    /// ROADMAP item 1(a) moves that mirror onto `ShardSpec` and removes
    /// this last caller.
    #[must_use]
    pub fn selection_cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Total rotations requested so far.
    #[must_use]
    pub fn rotations_requested(&self) -> u64 {
        self.ledger.rotations_requested()
    }

    /// Per-SI execution statistics.
    #[must_use]
    pub fn stats(&self, si: SiId) -> SiStats {
        self.ledger.si_stats(si)
    }

    /// Per-SI forecast monitoring statistics.
    #[must_use]
    pub fn fc_stats(&self, si: SiId) -> FcStats {
        self.ledger.fc_stats(si)
    }

    /// Total bitstream bytes of all (non-cancelled) requested rotations.
    #[must_use]
    pub fn rotation_bytes(&self) -> u64 {
        self.ledger.rotation_bytes()
    }

    /// Energy totals of the run so far under `model` (paper §4.1's energy
    /// accounting: execution energy split SW/HW plus rotation transfers).
    #[must_use]
    pub fn energy_report(&self, model: &EnergyModel) -> EnergyReport {
        self.ledger.energy_report(model)
    }

    /// Cycle at which all queued rotations will have completed.
    #[must_use]
    pub fn all_rotations_done_at(&self) -> Option<u64> {
        self.fabric.all_rotations_done_at()
    }

    /// Atom kinds currently barred from rotation by failure backoff —
    /// both those waiting out a delay and those parked after
    /// [`RetryPolicy::max_attempts`] failures.
    #[must_use]
    pub fn blocked_kinds(&self) -> Vec<AtomKind> {
        self.backoff.blocked_kinds(self.fabric.now())
    }

    /// The bounded-retry policy in effect.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.backoff.policy()
    }
}
