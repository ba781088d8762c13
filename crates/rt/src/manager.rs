//! The RISPP run-time manager (paper §5): the imperative shell over the
//! pure decision stages.
//!
//! The manager performs the three run-time tasks of the paper:
//!
//! 1. **Monitoring** — forecast values announced by FC instrumentation are
//!    stored per task and fine-tuned with observed behaviour
//!    ([`crate::forecast::ForecastStore`],
//!    [`RisppManager::record_fc_outcome`]);
//! 2. **Selecting** — on every forecast change the Molecule selection is
//!    recomputed over all active demands under the Atom-Container budget
//!    ([`crate::selection::SelectionStage`]);
//! 3. **Scheduling** — rotations are (re)queued so the fabric converges to
//!    the selected target Meta-Molecule, most-important SI first
//!    ("Rotation in Advance", [`crate::rotation::RotationSchedulePolicy`]),
//!    with victims chosen by a replacement policy.
//!
//! The stages are pure: they map state to decision values. The manager is
//! the only place those values become effects — every fabric mutation
//! flows through one [`Command`] application
//! site, every counter through the [`StatsLedger`], every event through
//! the shared sink. SI execution always uses the fastest Molecule the
//! *currently loaded* Atoms support, falling back to the software
//! Molecule — so execution upgrades gradually while rotations complete,
//! exactly the T4/T5 steps of the paper's Fig. 6 scenario.

use rispp_core::error::CoreError;
use rispp_core::forecast::ForecastValue;
use rispp_core::si::{SiId, SiLibrary};
use rispp_fabric::fabric::{Fabric, FabricError, FabricEvent};
use rispp_obs::{Event, ReselectTrigger, SinkHandle};

use crate::command::{self, Command};
use crate::dispatch::DispatchTable;
use crate::forecast::ForecastStore;
use crate::policy::{LruSurplusPolicy, ReplacementPolicy};
use crate::rotation::{BackoffGovernor, RotationPlan, RotationSchedulePolicy};
use crate::selection::{SelectionPolicy, SelectionStage};
use crate::stats::StatsLedger;

pub use crate::rotation::{RetryPolicy, RotationStrategy};
pub use crate::selection::{ExhaustiveSelection, GreedySelection, PowerMode};
pub use crate::stats::{EnergyReport, ExecutionRecord, FcStats, SiStats};
pub use crate::TaskId;

mod builder;
mod views;

pub use builder::ManagerBuilder;

/// The run-time manager tying the SI library, fabric and decision stages
/// together.
///
/// The type parameters select the three policies with static dispatch:
/// `P` picks rotation victims ([`ReplacementPolicy`]), `S` chooses
/// Molecules ([`SelectionPolicy`]) and `R` orders rotations
/// ([`RotationSchedulePolicy`]). The defaults are the paper's
/// configuration.
///
/// # Examples
///
/// ```
/// use rispp_core::forecast::ForecastValue;
/// use rispp_fabric::{AtomCatalog, Fabric};
/// use rispp_fabric::catalog::AtomHwProfile;
/// use rispp_h264::si_library::{atom_set, build_library};
/// use rispp_rt::manager::RisppManager;
///
/// let (lib, sis) = build_library();
/// let profiles = vec![
///     AtomHwProfile::new("QuadSub", 352, 700, 58_745),
///     AtomHwProfile::new("Pack", 406, 812, 65_713),
///     AtomHwProfile::new("Transform", 517, 1034, 59_353),
///     AtomHwProfile::new("SATD", 407, 808, 58_141),
/// ];
/// let fabric = Fabric::new(atom_set(), AtomCatalog::new(profiles), 4);
/// let mut mgr = RisppManager::builder(lib, fabric).build();
///
/// // A forecast triggers rotations; until they finish, execution is SW.
/// mgr.forecast(0, ForecastValue::new(sis.satd_4x4, 1.0, 200_000.0, 500.0));
/// assert!(!mgr.execute_si(0, sis.satd_4x4).hardware);
///
/// // After all rotations complete, the SI executes in hardware.
/// let done = mgr.all_rotations_done_at().expect("rotations queued");
/// mgr.advance_to(done)?;
/// assert!(mgr.execute_si(0, sis.satd_4x4).hardware);
/// # Ok::<(), rispp_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RisppManager<P = LruSurplusPolicy, S = GreedySelection, R = RotationStrategy> {
    lib: SiLibrary,
    fabric: Fabric,
    policy: P,
    forecasts: ForecastStore,
    selector: SelectionStage<S>,
    scheduler: R,
    ledger: StatsLedger,
    backoff: BackoffGovernor,
    /// Each SI's fastest loaded Molecule and its touch set, refreshed
    /// lazily when the fabric's loaded-Atom revision moves.
    dispatch: DispatchTable,
    /// Structured-event sink (disabled by default); shared with the fabric
    /// so rotation and manager events interleave in one stream.
    sink: SinkHandle,
}

impl<P: ReplacementPolicy, S: SelectionPolicy, R: RotationSchedulePolicy> RisppManager<P, S, R> {
    /// Switches the adaptation goal (see [`PowerMode`]) and immediately
    /// re-selects under it. This is the one configuration knob that
    /// legitimately changes *during* a run (the paper's §1: the system
    /// adapts when it "runs out of energy"); the initial mode is set with
    /// [`ManagerBuilder::power_mode`].
    pub fn adapt_power_mode(&mut self, mode: PowerMode) {
        self.selector.set_power_mode(mode);
        self.reselect(ReselectTrigger::PowerMode);
    }

    /// Tees an additional consumer into the structured-event stream of
    /// both the manager and its fabric, keeping every sink installed so
    /// far. Normally the sink is installed once via
    /// [`ManagerBuilder::sink`]; this exists so a driver (e.g. the
    /// simulation engine) can attach consumers to an already-built
    /// manager.
    pub fn tee_sink(&mut self, extra: SinkHandle) {
        self.fabric
            .set_sink(SinkHandle::tee(self.fabric.sink().clone(), extra.clone()));
        self.sink = SinkHandle::tee(self.sink.clone(), extra);
    }

    /// Advances time, completing rotations and — when a
    /// [`FaultPlan`](rispp_fabric::FaultPlan) is installed — driving the
    /// degradation state machine: a failed rotation is retried after an
    /// exponential backoff (see [`RetryPolicy`]), quarantined or faulted
    /// containers trigger a re-selection that routes around them, and
    /// execution keeps using the best *loaded* Molecule throughout, so
    /// [`RisppManager::execute_si`] never errors because of fabric
    /// faults.
    ///
    /// Time advances in sub-steps: the manager stops at every rotation
    /// completion and every backoff expiry inside `(now, t]` so retries
    /// are issued at the simulated instant they become legal, not at the
    /// end of the caller's step.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::TimeReversal`] when `t` is in the past.
    pub fn advance_to(&mut self, t: u64) -> Result<Vec<FabricEvent>, FabricError> {
        let mut all = Vec::new();
        loop {
            let now = self.fabric.now();
            // Earliest backoff expiry inside (now, t]: the moment a
            // blocked kind becomes requestable again.
            let wake = self.backoff.next_wake_within(now, t);
            let mut step_to = wake.unwrap_or(t);
            if let Some(done) = self.fabric.next_completion() {
                if done > now {
                    step_to = step_to.min(done);
                }
            }
            let events = self.fabric.advance_to(step_to)?;
            let mut need_reselect = wake == Some(step_to);
            for event in &events {
                match *event {
                    FabricEvent::RotationFailed { kind, at, .. } => {
                        self.backoff.note_failure(kind, at, self.fabric.clock());
                        need_reselect = true;
                    }
                    FabricEvent::RotationCompleted { kind, .. } => {
                        // A success wipes the kind's failure history.
                        self.backoff.note_success(kind);
                    }
                    FabricEvent::ContainerQuarantined { .. }
                    | FabricEvent::ContainerFaulted { .. } => need_reselect = true,
                    _ => {}
                }
            }
            all.extend(events);
            if need_reselect {
                self.reselect(ReselectTrigger::Fault);
            }
            if step_to >= t {
                return Ok(all);
            }
        }
    }

    /// Handles an FC event: task `task` announces (or updates) a forecast
    /// for an SI. Triggers re-selection and rotation scheduling.
    pub fn forecast(&mut self, task: TaskId, value: ForecastValue) {
        self.ledger.note_forecast_issued(value.si);
        self.sink
            .emit_with(self.fabric.now(), || Event::ForecastUpdated {
                task,
                si: value.si,
                probability: value.probability,
                expected_executions: value.expected_executions,
            });
        self.forecasts.insert(task, value);
        self.reselect(ReselectTrigger::Forecast);
    }

    /// Handles a whole FC Block: several forecasts announced at once (the
    /// compile-time pass "combines FCs to FC Blocks, which will ease the
    /// run-time computation effort" — selection and rotation scheduling
    /// run once for the batch instead of once per forecast).
    pub fn forecast_block<I>(&mut self, task: TaskId, values: I)
    where
        I: IntoIterator<Item = ForecastValue>,
    {
        let mut any = false;
        for value in values {
            self.ledger.note_forecast_issued(value.si);
            self.sink
                .emit_with(self.fabric.now(), || Event::ForecastUpdated {
                    task,
                    si: value.si,
                    probability: value.probability,
                    expected_executions: value.expected_executions,
                });
            self.forecasts.insert(task, value);
            any = true;
        }
        if any {
            self.reselect(ReselectTrigger::ForecastBlock);
        }
    }

    /// Handles a negative FC: the SI is forecast to be no longer needed by
    /// `task` (the T2 step of Fig. 6). Frees its Atoms for other demands.
    pub fn retract_forecast(&mut self, task: TaskId, si: SiId) {
        self.ledger.note_forecast_retracted(si);
        self.sink
            .emit(self.fabric.now(), &Event::ForecastRetracted { task, si });
        self.forecasts.retract(task, si);
        self.reselect(ReselectTrigger::Retract);
    }

    /// Fine-tunes a stored forecast with run-time observation (the
    /// "monitoring" task: exponential smoothing with factor λ).
    pub fn record_fc_outcome(
        &mut self,
        task: TaskId,
        si: SiId,
        reached: bool,
        observed_distance: f64,
        observed_executions: f64,
    ) {
        self.ledger.note_fc_outcome(si, reached);
        self.sink
            .emit(self.fabric.now(), &Event::FcOutcome { task, si, reached });
        self.forecasts
            .observe(task, si, reached, observed_distance, observed_executions);
        self.reselect(ReselectTrigger::Observation);
    }

    /// Executes one SI for `task` using the fastest loaded Molecule, or
    /// software when none fits. Updates LRU metadata and statistics. The
    /// choice is cached per SI until a container changes state (see
    /// [`Fabric::loaded_revision`]), so a dispatch between two rotation
    /// events costs an index lookup.
    ///
    /// # Panics
    ///
    /// Panics when `si` was not issued by this manager's library; use
    /// [`RisppManager::try_execute_si`] to handle that case gracefully.
    pub fn execute_si(&mut self, task: TaskId, si: SiId) -> ExecutionRecord {
        match self.try_execute_si(task, si) {
            Ok(record) => record,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`RisppManager::execute_si`], for callers
    /// that receive SI ids from untrusted input (a decoded instruction
    /// stream, a replayed event log).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSi`] when `si` was not issued by this
    /// manager's library.
    pub fn try_execute_si(&mut self, task: TaskId, si: SiId) -> Result<ExecutionRecord, CoreError> {
        let def = self.lib.try_get(si).ok_or(CoreError::UnknownSi {
            id: si.index(),
            library_len: self.lib.len(),
        })?;
        let entry = self.dispatch.lookup(si, def, &self.fabric);
        let best = entry.best.map(|i| &def.molecules()[i]);
        let record = match best {
            Some(m) => {
                command::apply(
                    &mut self.fabric,
                    &mut self.ledger,
                    &Command::Touch(&entry.touch),
                )
                .expect("touch is infallible");
                ExecutionRecord {
                    si,
                    cycles: m.cycles,
                    hardware: true,
                }
            }
            None => ExecutionRecord {
                si,
                cycles: def.sw_cycles(),
                hardware: false,
            },
        };
        self.ledger.record_execution(&record);
        self.sink
            .emit_with(self.fabric.now(), || Event::SiExecuted {
                task,
                si,
                hw: record.hardware,
                cycles: record.cycles,
                molecule: best.map(|m| m.molecule.clone()),
            });
        Ok(record)
    }

    /// Recomputes the Molecule selection from all active demands and,
    /// when the fabric does not already hold the new target, re-schedules
    /// rotations towards it.
    fn reselect(&mut self, trigger: ReselectTrigger) {
        // Quarantined containers can never hold an Atom again; selecting
        // under the full container count would chase an unreachable
        // target forever.
        let capacity = self.fabric.usable_containers() as u32;
        self.selector
            .reselect(&self.lib, self.fabric.catalog(), &self.forecasts, capacity);
        // Applying a plan is a no-op when no rotation is queued
        // (cancelling would refund nothing) and the committed fabric
        // already covers the target: every upgrade stage ≤ its SI's wanted
        // Molecule ≤ the target, so no stage has missing Atoms and no
        // Rotate or UpgradeStep would be issued. Planning is pure, so
        // skipping it too changes no decision; most re-selections leave
        // the fabric where it is and never plan.
        let satisfied = self.fabric.pending_rotation_count() == 0
            && self
                .selector
                .selection()
                .target
                .le(&self.fabric.committed_molecule());
        if !satisfied {
            let plan = self.scheduler.plan(
                &self.lib,
                self.selector.selection(),
                self.selector.last_weights(),
            );
            self.apply_plan(&plan);
        }
        self.sink
            .emit(self.fabric.now(), &Event::Reselect { trigger });
    }

    /// Executes a rotation plan: cancels queued-but-unstarted rotations
    /// (the port cannot abort an in-flight write), then walks the planned
    /// upgrade ladders, turning each missing Atom into a
    /// [`Command::Rotate`] against a victim chosen by the replacement
    /// policy. Kinds under failure backoff are skipped, not retried
    /// early: the rest of each stage still loads.
    fn apply_plan(&mut self, plan: &RotationPlan) {
        command::apply(&mut self.fabric, &mut self.ledger, &Command::CancelPending)
            .expect("cancel is infallible");
        let target = self.selector.selection().target.clone();
        for upgrade in &plan.upgrades {
            for (step, stage) in upgrade.stages.iter().enumerate() {
                let mut requested = 0u32;
                let mut exhausted = false;
                loop {
                    let committed = self.fabric.committed_molecule();
                    let missing = committed
                        .additional_atoms(stage)
                        .expect("widths agree by construction");
                    let now = self.fabric.now();
                    let Some((kind, _)) = missing
                        .iter_nonzero()
                        .find(|&(k, _)| !self.backoff.is_blocked(k, now))
                    else {
                        break;
                    };
                    let Some(victim) = self.policy.choose_victim(&self.fabric, &target) else {
                        exhausted = true; // nothing evictable; stop scheduling
                        break;
                    };
                    let rotate = Command::Rotate {
                        victim,
                        kind,
                        owner: upgrade.owner,
                    };
                    match command::apply(&mut self.fabric, &mut self.ledger, &rotate) {
                        Ok(()) => requested += 1,
                        Err(_) => {
                            exhausted = true; // defensive: victim raced a rotation
                            break;
                        }
                    }
                }
                // An upgrade step is only news when it made the fabric
                // move; re-selections that merely confirm the loaded state
                // stay silent.
                if requested > 0 {
                    self.sink
                        .emit_with(self.fabric.now(), || Event::UpgradeStep {
                            si: upgrade.si,
                            task: upgrade.owner,
                            step: step as u32,
                            molecule: stage.clone(),
                        });
                }
                if exhausted {
                    return;
                }
            }
        }
    }
}
