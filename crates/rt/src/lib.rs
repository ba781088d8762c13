//! # rispp-rt — the RISPP run-time architecture
//!
//! The run-time half of the paper (§5), structured as a layered policy
//! kernel: pure decision stages coordinated by a thin imperative shell.
//!
//! * [`forecast`] — the store of active per-task demands and their online
//!   fine-tuning ("monitoring FCs and SIs");
//! * [`selection`] — demand weighting under the adaptation goal and
//!   Molecule selection via a [`selection::SelectionPolicy`];
//! * [`rotation`] — the rotation schedule planned by a
//!   [`rotation::RotationSchedulePolicy`] ("Rotation in Advance") and the
//!   retry-backoff governor for fabric faults;
//! * [`stats`] — the execution record and the bill of requested
//!   rotations (per-SI counts are a fold of the event stream);
//! * [`policy`] — Atom-Container replacement: the rotation victim rule;
//! * `dispatch` (internal) — each SI's fastest loaded Molecule and its
//!   LRU touch set, cached until the fabric's loaded Atoms change;
//! * [`manager`] — the imperative shell: the only layer that mutates the
//!   fabric (through one command-application site), emits events and
//!   reads the clock. It **dispatches** SI executions to the fastest
//!   currently loaded Molecule, falling back to software — the gradual
//!   SW → HW upgrade of the paper's Fig. 6 scenario.
//!
//! Every stage is independently testable without a fabric; the shell's
//! behaviour is pinned end-to-end by `tests/manager_behavior.rs` and the
//! workspace golden fixtures.
//!
//! # Examples
//!
//! See [`manager::RisppManager`] for an end-to-end forecast → rotate →
//! execute walkthrough.

#![warn(missing_docs)]
// The run-time crate must never consume deprecated shims elsewhere in the
// workspace.
#![deny(deprecated)]

pub mod command;
mod dispatch;
pub mod forecast;
pub mod manager;
pub mod policy;
pub mod rotation;
pub mod selection;
pub mod stats;

/// Identifier of a task issuing forecasts and SI executions.
pub type TaskId = u32;

pub use forecast::ForecastStore;
pub use manager::{ManagerBuilder, RisppManager};
pub use rotation::{
    BackoffGovernor, PlannedUpgrade, RetryPolicy, RotationPlan, RotationSchedulePolicy,
    RotationStrategy,
};
pub use selection::{
    DemandWeights, ExhaustiveSelection, GreedySelection, PowerMode, SelectionPolicy, SelectionStage,
};
pub use stats::{ExecutionRecord, RunCounts, StatsLedger};
// The platform's single time base, re-exported so run-time code can name
// the shared clock without depending on `rispp-fabric` directly.
pub use rispp_fabric::clock::Clock;
