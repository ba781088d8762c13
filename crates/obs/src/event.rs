//! The structured event vocabulary of the RISPP run-time system.
//!
//! Events are emitted *at the source* — the fabric emits rotation events,
//! the run-time manager emits execution, forecast, reselect and upgrade
//! events — and carry everything a consumer needs to reconstruct the
//! paper's timelines (Fig. 6) without access to the live objects.

use std::fmt;

use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;

/// Identifier of a task, mirroring `rispp_rt::manager::TaskId` (kept as a
/// raw `u32` here so `rispp-obs` depends only on `rispp-core`).
pub type TaskId = u32;

/// Atom Containers an event log may address: both decoders refuse a
/// container index at or above this, at the record's offset or line.
/// Sinks keep one track per container index, so the cap keeps a log of a
/// few bytes from sizing them. At Table 1's 2,048 LUTs per container it
/// covers a two-million-LUT device; the container sweeps here stop at
/// 18.
pub const MAX_CONTAINERS: u32 = 1 << 10;

/// What caused a Molecule re-selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReselectTrigger {
    /// A forecast was announced or updated.
    Forecast,
    /// A whole FC Block was announced.
    ForecastBlock,
    /// A forecast was retracted (negative FC).
    Retract,
    /// A monitored FC outcome fine-tuned the forecast values.
    Observation,
    /// The adaptation goal (power mode) changed.
    PowerMode,
    /// A fabric fault (failed rotation, transient container fault or
    /// quarantine) invalidated the current rotation schedule.
    Fault,
}

impl fmt::Display for ReselectTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReselectTrigger::Forecast => "forecast",
            ReselectTrigger::ForecastBlock => "forecast_block",
            ReselectTrigger::Retract => "retract",
            ReselectTrigger::Observation => "observation",
            ReselectTrigger::PowerMode => "power_mode",
            ReselectTrigger::Fault => "fault",
        };
        f.write_str(s)
    }
}

/// One structured run-time event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A rotation left the queue and began writing a container.
    RotationStarted {
        /// Target Atom Container index.
        container: u32,
        /// Atom being written.
        kind: AtomKind,
    },
    /// A rotation completed; the Atom is now usable.
    RotationCompleted {
        /// Target Atom Container index.
        container: u32,
        /// Atom now loaded.
        kind: AtomKind,
    },
    /// A rotation reached its completion cycle but the bitstream failed
    /// verification (CRC): the container holds no usable Atom and the
    /// reconfiguration port is free again. No
    /// [`Event::ContainerLoaded`] is emitted for a failed rotation.
    RotationFailed {
        /// Target Atom Container index.
        container: u32,
        /// Atom whose bitstream failed to load.
        kind: AtomKind,
    },
    /// The single reconfiguration port stalled mid-transfer; the
    /// in-flight rotation makes no progress until cycle `until`.
    PortStalled {
        /// Cycle at which the transfer resumes.
        until: u64,
    },
    /// An Atom Container was diagnosed permanently bad and removed from
    /// service; it will never complete a rotation again.
    ContainerQuarantined {
        /// The container taken out of service.
        container: u32,
    },
    /// An Atom Container became usable: the freshly rotated-in Atom is
    /// now available to every task. Emitted by the fabric alongside
    /// [`Event::RotationCompleted`] so container occupancy is observable
    /// from the event stream alone, without polling container state.
    ContainerLoaded {
        /// The container that became usable.
        container: u32,
        /// The Atom it now holds.
        kind: AtomKind,
    },
    /// An Atom Container lost its usable Atom: an overwriting rotation
    /// started, destroying the previous content before the new Atom is
    /// ready. The counterpart of [`Event::ContainerLoaded`]; between the
    /// two, the container contributes nothing to fabric utilization.
    ContainerEvicted {
        /// The container whose Atom was destroyed.
        container: u32,
        /// The Atom that was lost.
        kind: AtomKind,
    },
    /// An SI executed through the run-time manager.
    SiExecuted {
        /// Executing task.
        task: TaskId,
        /// Executed SI.
        si: SiId,
        /// `true` when a hardware Molecule executed.
        hw: bool,
        /// Latency in cycles.
        cycles: u64,
        /// The hardware Molecule that executed (`None` for software).
        molecule: Option<Molecule>,
    },
    /// A forecast was announced or updated for an SI.
    ForecastUpdated {
        /// Issuing task.
        task: TaskId,
        /// Forecasted SI.
        si: SiId,
        /// Forecast probability after the update.
        probability: f64,
        /// Expected executions after the update.
        expected_executions: f64,
    },
    /// A forecast was retracted (the SI is no longer needed).
    ForecastRetracted {
        /// Issuing task.
        task: TaskId,
        /// Retracted SI.
        si: SiId,
    },
    /// A monitored forecast settled with an observed outcome.
    FcOutcome {
        /// Observed task.
        task: TaskId,
        /// Observed SI.
        si: SiId,
        /// Whether the forecasted SI was actually reached.
        reached: bool,
    },
    /// The manager re-evaluated its Molecule selection.
    Reselect {
        /// What caused the re-evaluation.
        trigger: ReselectTrigger,
    },
    /// The rotation scheduler staged one step of an SI's upgrade path
    /// ("Rotation in Advance": smallest fitting Molecule first).
    UpgradeStep {
        /// The SI being upgraded.
        si: SiId,
        /// The task whose demand owns this upgrade ladder (`None` when
        /// the scheduler acted without a demanding task). Carried as a
        /// span-correlation id so consumers can stitch
        /// forecast → rotation → first-hardware-execution causality per
        /// `(task, si)` without guessing.
        task: Option<TaskId>,
        /// Zero-based position of this stage in the upgrade path.
        step: u32,
        /// The stage's target Molecule.
        molecule: Molecule,
    },
}

/// A timestamped event, in simulated cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Cycle of the event.
    pub at: u64,
    /// The event.
    pub event: Event,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.at;
        match &self.event {
            Event::RotationStarted { container, kind } => {
                write!(f, "{at:>12}  rotation start AC{container} <- {kind}")
            }
            Event::RotationCompleted { container, kind } => {
                write!(f, "{at:>12}  rotation done  AC{container} = {kind}")
            }
            Event::RotationFailed { container, kind } => {
                write!(f, "{at:>12}  rotation FAIL  AC{container} <- {kind}")
            }
            Event::PortStalled { until } => {
                write!(f, "{at:>12}  port stall     until {until}")
            }
            Event::ContainerQuarantined { container } => {
                write!(f, "{at:>12}  quarantine     AC{container}")
            }
            Event::ContainerLoaded { container, kind } => {
                write!(f, "{at:>12}  container load AC{container} = {kind}")
            }
            Event::ContainerEvicted { container, kind } => {
                write!(f, "{at:>12}  container evict AC{container} -x {kind}")
            }
            Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                ..
            } => {
                let how = if *hw { "HW" } else { "SW" };
                write!(f, "{at:>12}  task{task} exec {si} [{how} {cycles}cyc]")
            }
            Event::ForecastUpdated { task, si, .. } => {
                write!(f, "{at:>12}  task{task} forecast {si}")
            }
            Event::ForecastRetracted { task, si } => {
                write!(f, "{at:>12}  task{task} retract  {si}")
            }
            Event::FcOutcome { task, si, reached } => {
                let what = if *reached { "hit" } else { "miss" };
                write!(f, "{at:>12}  task{task} fc-{what}  {si}")
            }
            Event::Reselect { trigger } => write!(f, "{at:>12}  reselect ({trigger})"),
            Event::UpgradeStep {
                si,
                task,
                step,
                molecule,
            } => match task {
                Some(t) => write!(
                    f,
                    "{at:>12}  task{t} upgrade {si} step {step} -> {molecule}"
                ),
                None => write!(f, "{at:>12}  upgrade {si} step {step} -> {molecule}"),
            },
        }
    }
}
