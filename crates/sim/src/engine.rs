//! The multi-task execution engine: quasi-parallel tasks sharing one core
//! and one RISPP fabric (the execution substrate of the paper's Fig. 6).
//!
//! Tasks interleave round-robin at operation granularity on a single core;
//! rotations proceed concurrently on the fabric's reconfiguration port.
//! Every event is emitted at its source (fabric, manager) into the
//! engine's [`TimelineSink`]; additional consumers tee in via
//! [`Engine::attach_sink`].

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rispp_core::si::SiId;
use rispp_obs::{MetricsSink, MetricsSummary, SinkHandle, Timeline, TimelineSink};
use rispp_rt::manager::{RisppManager, TaskId};
use rispp_rt::policy::ReplacementPolicy;
use rispp_rt::rotation::{RotationSchedulePolicy, RotationStrategy};
use rispp_rt::selection::{GreedySelection, SelectionPolicy};

use crate::task::{Op, ProgramCursor, Task};

struct TaskState {
    task: Task,
    cursor: ProgramCursor,
}

/// A forecast being monitored: issued at `at`, waiting for the SI to be
/// reached and counting its executions.
#[derive(Debug, Clone, Copy)]
struct FcWatch {
    at: u64,
    first_execution: Option<u64>,
    executions: u64,
}

/// The engine: a [`RisppManager`] plus a set of tasks.
///
/// The type parameters mirror the manager's: `P` picks rotation victims,
/// `S` selects Molecules and `R` orders rotations; the defaults are the
/// paper's configuration.
pub struct Engine<P: ReplacementPolicy, S = GreedySelection, R = RotationStrategy> {
    manager: RisppManager<P, S, R>,
    tasks: Vec<TaskState>,
    /// The engine's own event consumer, teed into whatever sink the
    /// manager was built with.
    timeline: Rc<RefCell<TimelineSink>>,
    /// Derived time-weighted gauges, fed by the same tee as the timeline
    /// and pre-configured with the fabric's container count and Atom
    /// utilisation weights.
    metrics: Rc<RefCell<MetricsSink>>,
    /// Monitoring enabled: observed FC outcomes feed back into the
    /// manager's forecast values (run-time task (a) of the paper).
    monitoring: bool,
    watches: BTreeMap<(TaskId, usize), FcWatch>,
}

impl<P: ReplacementPolicy, S: SelectionPolicy, R: RotationSchedulePolicy> Engine<P, S, R> {
    /// Creates an engine around a manager (FC monitoring disabled).
    ///
    /// The engine tees its own [`TimelineSink`] into the manager's
    /// installed sink, so a sink configured via
    /// [`ManagerBuilder::sink`](rispp_rt::manager::ManagerBuilder::sink)
    /// keeps receiving every event alongside the engine's timeline.
    #[must_use]
    pub fn new(mut manager: RisppManager<P, S, R>) -> Self {
        let timeline = Rc::new(RefCell::new(TimelineSink::new()));
        let fabric = manager.fabric();
        let metrics = Rc::new(RefCell::new(
            MetricsSink::new()
                .with_containers(fabric.num_containers())
                .with_utilization_weights(
                    fabric
                        .catalog()
                        .iter()
                        .map(|(_, p)| p.utilization())
                        .collect(),
                ),
        ));
        manager.tee_sink(SinkHandle::tee(
            SinkHandle::shared(timeline.clone()),
            SinkHandle::shared(metrics.clone()),
        ));
        Engine {
            manager,
            tasks: Vec::new(),
            timeline,
            metrics,
            monitoring: false,
            watches: BTreeMap::new(),
        }
    }

    /// Tees one more consumer into the event stream (e.g. a
    /// [`JsonlSink`](rispp_obs::JsonlSink) exporting the run, or a
    /// [`CountersSink`](rispp_obs::CountersSink) aggregating statistics).
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.manager.tee_sink(sink);
    }

    /// Enables FC monitoring: each forecast is watched until the SI is
    /// re-forecast or retracted; the observed outcome (reached or not,
    /// measured distance, measured execution count) is then folded back
    /// into the manager's forecast values via
    /// [`RisppManager::record_fc_outcome`] — the paper's "monitoring FCs
    /// and SIs in order to fine-tune the profiling information".
    pub fn enable_monitoring(&mut self) {
        self.monitoring = true;
    }

    /// Closes the watch for `(task, si)`, reporting the observed outcome.
    fn settle_watch(&mut self, task: TaskId, si: SiId) {
        let Some(watch) = self.watches.remove(&(task, si.index())) else {
            return;
        };
        match watch.first_execution {
            Some(first) => self.manager.record_fc_outcome(
                task,
                si,
                true,
                (first - watch.at) as f64,
                watch.executions as f64,
            ),
            None => self.manager.record_fc_outcome(task, si, false, 0.0, 0.0),
        }
    }

    /// Adds a task.
    pub fn add_task(&mut self, task: Task) {
        let cursor = ProgramCursor::new(task.program.clone());
        self.tasks.push(TaskState { task, cursor });
    }

    /// The recorded event timeline.
    ///
    /// Borrows from the engine's shared sink; drop the returned guard
    /// before running the engine again.
    #[must_use]
    pub fn timeline(&self) -> Ref<'_, Timeline> {
        Ref::map(self.timeline.borrow(), TimelineSink::timeline)
    }

    /// The derived time-weighted gauges, live alongside the timeline.
    ///
    /// Borrows from the engine's shared sink; drop the returned guard
    /// before running the engine again. Forecast-accuracy figures only
    /// include settled windows — use [`Engine::finish_metrics`] after the
    /// run for the complete picture.
    #[must_use]
    pub fn metrics(&self) -> Ref<'_, MetricsSink> {
        self.metrics.borrow()
    }

    /// Settles the metrics at the current simulation time — advances the
    /// gauges' horizon to `now` and closes still-open forecast windows —
    /// and returns the summary. Idempotent; call after [`Engine::run`].
    pub fn finish_metrics(&mut self) -> MetricsSummary {
        let mut m = self.metrics.borrow_mut();
        m.advance_to(self.manager.now());
        m.finish();
        m.summary()
    }

    /// The manager (for inspection after a run).
    #[must_use]
    pub fn manager(&self) -> &RisppManager<P, S, R> {
        &self.manager
    }

    /// The platform clock — the same instance the fabric advances and the
    /// manager reads, so all three layers agree on "now" by construction.
    #[must_use]
    pub fn clock(&self) -> &rispp_fabric::clock::Clock {
        self.manager.clock()
    }

    /// Current simulation time in cycles (shorthand for `clock().now()`).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.manager.now()
    }

    /// Runs all tasks to completion, round-robin, and returns the final
    /// time. `max_steps` bounds runaway programs.
    ///
    /// # Panics
    ///
    /// Panics when `max_steps` is exhausted before the tasks finish.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0u64;
        loop {
            let mut progressed = false;
            for i in 0..self.tasks.len() {
                let Some(op) = self.tasks[i].cursor.next_op() else {
                    continue;
                };
                progressed = true;
                steps += 1;
                assert!(steps <= max_steps, "engine exceeded max_steps");
                let task_id = self.tasks[i].task.id;
                match op {
                    Op::Plain(cycles) => {
                        self.advance(cycles);
                    }
                    Op::ExecSi(si) => {
                        let rec = self.manager.execute_si(task_id, si);
                        if self.monitoring {
                            if let Some(w) = self.watches.get_mut(&(task_id, si.index())) {
                                w.first_execution.get_or_insert(self.manager.now());
                                w.executions += 1;
                            }
                        }
                        self.advance(rec.cycles);
                    }
                    Op::Forecast(fv) => {
                        if self.monitoring {
                            self.settle_watch(task_id, fv.si);
                            self.watches.insert(
                                (task_id, fv.si.index()),
                                FcWatch {
                                    at: self.manager.now(),
                                    first_execution: None,
                                    executions: 0,
                                },
                            );
                        }
                        self.manager.forecast(task_id, fv);
                    }
                    Op::ForecastBlock(fvs) => {
                        if self.monitoring {
                            for fv in &fvs {
                                self.settle_watch(task_id, fv.si);
                                self.watches.insert(
                                    (task_id, fv.si.index()),
                                    FcWatch {
                                        at: self.manager.now(),
                                        first_execution: None,
                                        executions: 0,
                                    },
                                );
                            }
                        }
                        self.manager.forecast_block(task_id, fvs);
                    }
                    Op::RetractForecast(si) => {
                        if self.monitoring {
                            self.settle_watch(task_id, si);
                        }
                        self.manager.retract_forecast(task_id, si);
                    }
                    Op::Repeat { .. } => unreachable!("cursor expands repeats"),
                }
            }
            if !progressed {
                break;
            }
        }
        self.manager.now()
    }

    fn advance(&mut self, cycles: u64) {
        // Rotation events reach the timeline straight from the fabric's
        // sink; the legacy per-advance event list is dropped here.
        let t = self.manager.now() + cycles;
        let _ = self.manager.advance_to(t).expect("engine time is monotone");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use rispp_core::atom::AtomSet;
    use rispp_core::forecast::ForecastValue;
    use rispp_core::molecule::Molecule;
    use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
    use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
    use rispp_fabric::fabric::Fabric;

    fn setup() -> (RisppManager, SiId) {
        let atoms = AtomSet::from_names(["A", "B"]);
        let catalog = AtomCatalog::new(vec![
            AtomHwProfile::new("A", 100, 200, 6_920),
            AtomHwProfile::new("B", 100, 200, 6_920),
        ]);
        let fabric = Fabric::new(atoms, catalog, 2);
        let mut lib = SiLibrary::new(2);
        let si = lib
            .insert(
                SpecialInstruction::new(
                    "S",
                    500,
                    vec![MoleculeImpl::new(Molecule::from_counts([1, 1]), 20)],
                )
                .unwrap(),
            )
            .unwrap();
        (RisppManager::builder(lib, fabric).build(), si)
    }

    #[test]
    fn forecast_then_loop_upgrades_to_hardware() {
        let (mgr, si) = setup();
        let mut engine = Engine::new(mgr);
        engine.add_task(Task::new(
            0,
            "worker",
            vec![
                Op::Forecast(ForecastValue::new(si, 1.0, 40_000.0, 100.0)),
                Op::Repeat {
                    body: vec![Op::ExecSi(si), Op::Plain(1_000)],
                    times: 40,
                },
            ],
        ));
        engine.run(1_000);
        let trace = engine.timeline();
        let execs: Vec<(u64, u64, bool)> = trace.executions(0, si).collect();
        assert_eq!(execs.len(), 40);
        // Early executions are software, later ones hardware.
        assert!(!execs.first().unwrap().2, "first exec should be SW");
        assert!(execs.last().unwrap().2, "last exec should be HW");
        // Once hardware, never back to software (no competing demand).
        let first_hw = execs.iter().position(|e| e.2).unwrap();
        assert!(execs[first_hw..].iter().all(|e| e.2));
        assert_eq!(trace.rotations_completed(), 2);
    }

    #[test]
    fn metrics_track_the_run_alongside_the_timeline() {
        let (mgr, si) = setup();
        let mut engine = Engine::new(mgr);
        engine.add_task(Task::new(
            0,
            "worker",
            vec![
                Op::Forecast(ForecastValue::new(si, 1.0, 40_000.0, 100.0)),
                Op::Repeat {
                    body: vec![Op::ExecSi(si), Op::Plain(1_000)],
                    times: 40,
                },
            ],
        ));
        engine.run(1_000);
        let summary = engine.finish_metrics();
        assert_eq!(summary.rotations_completed, 2);
        assert_eq!(summary.executions_total, 40);
        assert!(summary.hw_fraction > 0.0);
        // Both containers end up loaded and stay loaded, so occupancy is
        // strictly positive and below 1 (the rotations took time).
        assert!(summary.fabric_occupancy > 0.0);
        assert!(summary.fabric_occupancy < 1.0);
        // Software executions happened first, so hardware savings accrue.
        assert!(summary.cycles_saved_vs_sw > 0);
        // The one forecast window settles as a hit.
        assert_eq!(summary.forecast_windows, 1);
        assert!((summary.forecast_precision - 1.0).abs() < 1e-12);
        // The gauges saw the same stream as the timeline.
        let (_, completed) = engine.metrics().rotations();
        assert_eq!(completed as usize, engine.timeline().rotations_completed());
    }

    #[test]
    fn tasks_interleave_round_robin() {
        let (mgr, si) = setup();
        let mut engine = Engine::new(mgr);
        for id in 0..2 {
            engine.add_task(Task::new(
                id,
                format!("t{id}"),
                vec![Op::Repeat {
                    body: vec![Op::ExecSi(si)],
                    times: 3,
                }],
            ));
        }
        engine.run(100);
        let a: Vec<u64> = engine.timeline().executions(0, si).map(|e| e.0).collect();
        let b: Vec<u64> = engine.timeline().executions(1, si).map(|e| e.0).collect();
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        // Interleaved: each of task 1's executions falls between task 0's.
        assert!(a[0] < b[0] && b[0] < a[1]);
    }

    #[test]
    fn plain_ops_advance_time() {
        let (mgr, _) = setup();
        let mut engine = Engine::new(mgr);
        engine.add_task(Task::new(0, "t", vec![Op::Plain(123), Op::Plain(77)]));
        let end = engine.run(100);
        assert_eq!(end, 200);
    }

    #[test]
    fn monitoring_records_hits_and_misses() {
        let (mgr, si) = setup();
        let mut engine = Engine::new(mgr);
        engine.enable_monitoring();
        let fv = || ForecastValue::new(si, 0.9, 30_000.0, 5.0);
        engine.add_task(Task::new(
            0,
            "t",
            vec![
                // Watch 1: the SI executes (hit, 3 executions observed).
                Op::Forecast(fv()),
                Op::ExecSi(si),
                Op::ExecSi(si),
                Op::ExecSi(si),
                // Watch 2: re-forecast settles watch 1; never executes.
                Op::Forecast(fv()),
                Op::Plain(5_000),
                // Retraction settles watch 2 as a miss.
                Op::RetractForecast(si),
            ],
        ));
        engine.run(100);
        let fc = engine.manager().fc_stats(si);
        assert_eq!((fc.hits, fc.misses), (1, 1));
        assert_eq!(fc.issued, 2);
        assert_eq!(fc.retracted, 1);
    }

    #[test]
    fn monitoring_misses_drain_a_stale_forecast() {
        // Task 0 keeps forecasting but never executes; task 1 both
        // forecasts and executes. With monitoring, task 0's probability
        // decays until task 1's demand owns the containers.
        let (mgr, si) = setup();
        // A second SI on the same two Atom kinds but needing both atoms
        // differently is unnecessary — contention comes from capacity 2
        // with a (1,1) molecule; both demands want the same atoms, so the
        // adaptation shows up in the manager's forecast bookkeeping.
        let mut engine = Engine::new(mgr);
        engine.enable_monitoring();
        let body = vec![
            Op::Forecast(ForecastValue::new(si, 1.0, 30_000.0, 50.0)),
            Op::Plain(8_000),
        ];
        engine.add_task(Task::new(0, "liar", vec![Op::Repeat { body, times: 12 }]));
        engine.run(1_000);
        let fc = engine.manager().fc_stats(si);
        // Every re-forecast settles the previous watch as a miss.
        assert_eq!(fc.hits, 0);
        assert_eq!(fc.misses, 11);
    }

    #[test]
    #[should_panic(expected = "max_steps")]
    fn runaway_program_is_caught() {
        let (mgr, _) = setup();
        let mut engine = Engine::new(mgr);
        engine.add_task(Task::new(
            0,
            "t",
            vec![Op::Repeat {
                body: vec![Op::Plain(1)],
                times: u32::MAX,
            }],
        ));
        engine.run(10);
    }
}
