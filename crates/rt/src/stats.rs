//! Statistics stage: the execution record and the manager's bill of
//! requested rotations.
//!
//! Per-SI execution and forecast counts are not kept here: they are a
//! fold of the event stream (`rispp_obs::CountersSink`). The
//! [`StatsLedger`] keeps the one count no event carries. It never touches
//! the fabric or emits events; [`command`](crate::command) feeds it each
//! rotation the manager requests or cancels.

use rispp_core::si::SiId;

/// Outcome of one SI execution through the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionRecord {
    /// Executed SI.
    pub si: SiId,
    /// Latency in cycles.
    pub cycles: u64,
    /// `true` when a hardware Molecule executed, `false` for software.
    pub hardware: bool,
}

/// What a run of executions through
/// [`RisppManager::try_execute_si_run`](crate::manager::RisppManager::try_execute_si_run)
/// did: how many of its SIs ran in hardware and how many in software.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Executions on a hardware Molecule.
    pub hardware: u64,
    /// Executions in software.
    pub software: u64,
}

/// The manager's bill of requested rotations and their bitstream bytes.
///
/// This count stays out of the event stream's folds because no event
/// marks a request: a rotation is billed when the manager queues it and
/// refunded when a re-selection cancels it, and a queued rotation that is
/// cancelled before it starts never emits `RotationStarted`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsLedger {
    rotations_requested: u64,
    rotation_bytes: u64,
}

impl StatsLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bills one requested rotation of `bitstream_bytes`.
    pub fn note_rotation_requested(&mut self, bitstream_bytes: u64) {
        self.rotations_requested += 1;
        self.rotation_bytes += bitstream_bytes;
    }

    /// Refunds one cancelled (queued, never started) rotation: it will
    /// never transfer a bitstream, so it must not stay billed.
    pub fn note_rotation_cancelled(&mut self, bitstream_bytes: u64) {
        self.rotations_requested -= 1;
        self.rotation_bytes -= bitstream_bytes;
    }

    /// Total rotations requested so far (net of cancellations).
    #[must_use]
    pub fn rotations_requested(&self) -> u64 {
        self.rotations_requested
    }

    /// Total bitstream bytes of all (non-cancelled) requested rotations.
    #[must_use]
    pub fn rotation_bytes(&self) -> u64 {
        self.rotation_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_billing_nets_out_cancellations() {
        let mut ledger = StatsLedger::new();
        ledger.note_rotation_requested(1_000);
        ledger.note_rotation_requested(2_000);
        ledger.note_rotation_cancelled(2_000);
        assert_eq!(ledger.rotations_requested(), 1);
        assert_eq!(ledger.rotation_bytes(), 1_000);
    }
}
