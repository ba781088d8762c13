//! End-to-end behaviour of the run-time manager shell.
//!
//! These tests pin the observable contract of [`RisppManager`] — the
//! forecast → select → rotate → execute pipeline, fault degradation,
//! accounting and event emission — independently of how the decision
//! stages are factored internally. They moved here verbatim from the
//! pre-decomposition `manager.rs` unit tests; golden fixtures at the
//! workspace level additionally pin bit-identical event streams.

use rispp_core::atom::{AtomKind, AtomSet};
use rispp_core::error::CoreError;
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::fabric::{Fabric, FabricEvent};
use rispp_obs::{Event, ReselectTrigger, SinkHandle};
use rispp_rt::manager::{PowerMode, RisppManager, RotationStrategy};

/// Two-kind platform with fast, equal rotation times for readability.
fn small_platform() -> (SiLibrary, Fabric, SiId, SiId) {
    let atoms = AtomSet::from_names(["A", "B"]);
    let catalog = AtomCatalog::new(vec![
        AtomHwProfile::new("A", 100, 200, 6_920), // 100 µs → 10 000 cycles
        AtomHwProfile::new("B", 100, 200, 6_920),
    ]);
    let fabric = Fabric::new(atoms, catalog, 3);
    let mut lib = SiLibrary::new(2);
    let s0 = lib
        .insert(
            SpecialInstruction::new(
                "S0",
                500,
                vec![
                    MoleculeImpl::new(Molecule::from_counts([1, 1]), 20),
                    MoleculeImpl::new(Molecule::from_counts([2, 1]), 10),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    let s1 = lib
        .insert(
            SpecialInstruction::new(
                "S1",
                400,
                vec![MoleculeImpl::new(Molecule::from_counts([0, 2]), 15)],
            )
            .unwrap(),
        )
        .unwrap();
    (lib, fabric, s0, s1)
}

fn fv(si: SiId, execs: f64) -> ForecastValue {
    ForecastValue::new(si, 1.0, 50_000.0, execs)
}

/// Advances past every queued and in-flight rotation and returns the
/// cycle at which the last one completed. Panics — with the manager's
/// current clock — when nothing is rotating or time cannot advance.
fn drain_rotations(mgr: &mut RisppManager) -> u64 {
    let done = mgr
        .all_rotations_done_at()
        .unwrap_or_else(|| panic!("nothing to drain: fabric idle at cycle {}", mgr.now()));
    advance_or_panic(mgr, done);
    done
}

/// `advance_to` that reports the manager's current clock on failure.
fn advance_or_panic(mgr: &mut RisppManager, t: u64) {
    if let Err(e) = mgr.advance_to(t) {
        panic!("advance_to({t}) failed at cycle {}: {e}", mgr.now());
    }
}

#[test]
fn forecast_triggers_rotations() {
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 100.0));
    assert!(mgr.rotations_requested() >= 2);
    assert_eq!(mgr.target(), &Molecule::from_counts([2, 1]));
}

#[test]
fn execution_upgrades_gradually() {
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 100.0));
    // Nothing loaded yet → software.
    let r0 = mgr.execute_si(0, s0);
    assert!(!r0.hardware);
    assert_eq!(r0.cycles, 500);
    // Advance until the fabric holds (1, 1) — the minimal Molecule.
    let mut t = mgr.now();
    loop {
        t += 10_000;
        advance_or_panic(&mut mgr, t);
        if mgr.loaded().count(AtomKind(0)) >= 1 && mgr.loaded().count(AtomKind(1)) >= 1 {
            break;
        }
        assert!(t < 1_000_000, "rotation never completed");
    }
    let r1 = mgr.execute_si(0, s0);
    assert!(r1.hardware);
    assert!(r1.cycles == 20 || r1.cycles == 10);
    // After all rotations: the fastest Molecule.
    if mgr.all_rotations_done_at().is_some() {
        drain_rotations(&mut mgr);
    }
    assert_eq!(mgr.execute_si(0, s0).cycles, 10);
}

#[test]
fn retraction_frees_atoms_for_other_task() {
    let (lib, fabric, s0, s1) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 100.0));
    drain_rotations(&mut mgr);
    assert_eq!(mgr.execute_si(0, s0).cycles, 10);
    // Task 1 wants S1 (needs two B atoms); S0's forecast retracts.
    mgr.retract_forecast(0, s0);
    mgr.forecast(1, fv(s1, 100.0));
    drain_rotations(&mut mgr);
    let r = mgr.execute_si(1, s1);
    assert!(r.hardware);
    assert_eq!(r.cycles, 15);
}

#[test]
fn stats_accumulate() {
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.execute_si(0, s0);
    mgr.execute_si(0, s0);
    let s = mgr.stats(s0);
    assert_eq!(s.sw_executions, 2);
    assert_eq!(s.hw_executions, 0);
    assert_eq!(s.cycles, 1000);
}

#[test]
fn observation_reweights_selection() {
    let (lib, fabric, s0, s1) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    // Both tasks forecast; capacity 3 cannot host (2,1) ∪ (0,2) = (2,3).
    mgr.forecast(0, fv(s0, 100.0));
    mgr.forecast(1, fv(s1, 1.0));
    // S0 dominates: target covers S0's fast molecule.
    assert!(Molecule::from_counts([2, 1]).le(mgr.target()));
    // Repeated misses of S0's forecast drain its probability.
    for _ in 0..20 {
        mgr.record_fc_outcome(0, s0, false, 0.0, 0.0);
    }
    // Now S1 should win the containers.
    assert!(Molecule::from_counts([0, 2]).le(mgr.target()));
}

#[test]
fn fc_stats_track_monitoring() {
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 10.0));
    mgr.forecast(1, fv(s0, 10.0));
    mgr.record_fc_outcome(0, s0, true, 1_000.0, 5.0);
    mgr.record_fc_outcome(0, s0, false, 0.0, 0.0);
    mgr.record_fc_outcome(0, s0, true, 1_000.0, 5.0);
    mgr.retract_forecast(1, s0);
    let fc = mgr.fc_stats(s0);
    assert_eq!(fc.issued, 2);
    assert_eq!(fc.retracted, 1);
    assert_eq!((fc.hits, fc.misses), (2, 1));
    assert!((fc.hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn fc_stats_empty_hit_rate_is_none() {
    let (lib, fabric, s0, _) = small_platform();
    let mgr = RisppManager::builder(lib, fabric).build();
    assert_eq!(mgr.fc_stats(s0).hit_rate(), None);
}

#[test]
fn target_only_strategy_delays_first_hw_execution() {
    // The ablation: with TargetOnly, the atom load order follows the
    // final molecule's kind order, so with an equal number of
    // rotations the time to the *first* hardware execution can only
    // be later or equal than with UpgradePath.
    let first_hw_at = |strategy: RotationStrategy| {
        let (lib, fabric, s0, _) = small_platform();
        let mut mgr = RisppManager::builder(lib, fabric)
            .rotation_strategy(strategy)
            .build();
        mgr.forecast(0, fv(s0, 100.0));
        let mut t = 0u64;
        loop {
            t += 1_000;
            advance_or_panic(&mut mgr, t);
            if mgr.execute_si(0, s0).hardware {
                return t;
            }
            assert!(t < 1_000_000, "never reached hardware");
        }
    };
    let upgrade = first_hw_at(RotationStrategy::UpgradePath);
    let target_only = first_hw_at(RotationStrategy::TargetOnly);
    assert!(upgrade <= target_only, "{upgrade} > {target_only}");
}

#[test]
fn energy_saving_mode_refuses_unamortised_rotations() {
    use rispp_core::energy::EnergyModel;
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.adapt_power_mode(PowerMode::EnergySaving {
        model: EnergyModel::default(),
        alpha: 1.0,
    });
    // Few expected executions: rotation energy never amortises.
    mgr.forecast(0, fv(s0, 3.0));
    assert_eq!(mgr.rotations_requested(), 0, "rotated for 3 executions");
    // Many expected executions: rotation pays for itself.
    mgr.forecast(0, fv(s0, 100_000.0));
    assert!(mgr.rotations_requested() > 0);
}

#[test]
fn performance_mode_rotates_for_small_demands_too() {
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 3.0));
    assert!(mgr.rotations_requested() > 0);
}

#[test]
fn reselects_count_every_fc_event() {
    let (lib, fabric, s0, s1) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    let before = mgr.reselects();
    mgr.forecast(0, fv(s0, 10.0));
    mgr.forecast(1, fv(s1, 10.0));
    mgr.retract_forecast(0, s0);
    mgr.record_fc_outcome(1, s1, true, 100.0, 5.0);
    assert_eq!(mgr.reselects() - before, 4);
    // A batched FC Block costs one re-evaluation, not two.
    let b2 = mgr.reselects();
    mgr.forecast_block(0, vec![fv(s0, 10.0), fv(s1, 10.0)]);
    assert_eq!(mgr.reselects() - b2, 1);
}

#[test]
fn energy_report_accounts_all_three_terms() {
    use rispp_core::energy::EnergyModel;
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    let model = EnergyModel::default();
    // Pure software run: only SW execution energy.
    mgr.execute_si(0, s0);
    let r = mgr.energy_report(&model);
    assert!(r.sw_execution_j > 0.0);
    assert_eq!(r.hw_execution_j, 0.0);
    assert_eq!(r.rotation_j, 0.0);
    // Forecast → rotations add transfer energy; HW executions follow.
    mgr.forecast(0, fv(s0, 100.0));
    assert!(mgr.rotation_bytes() > 0);
    drain_rotations(&mut mgr);
    mgr.execute_si(0, s0);
    let r2 = mgr.energy_report(&model);
    assert!(r2.rotation_j > 0.0);
    assert!(r2.hw_execution_j > 0.0);
    assert!(r2.total_j() > r.total_j());
}

#[test]
fn cancelled_rotations_are_not_billed() {
    let (lib, fabric, s0, s1) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 100.0));
    let after_first = mgr.rotation_bytes();
    // Immediate retraction cancels everything still queued; only the
    // in-flight transfer (at most one) stays billed.
    mgr.retract_forecast(0, s0);
    assert!(mgr.rotation_bytes() <= after_first);
    assert!(mgr.rotation_bytes() <= 6_920, "{}", mgr.rotation_bytes());
    let _ = s1;
}

#[test]
#[should_panic(expected = "lambda")]
fn smoothing_out_of_range_rejected() {
    let (lib, fabric, ..) = small_platform();
    let _ = RisppManager::builder(lib, fabric).smoothing(1.5).build();
}

#[test]
fn try_execute_rejects_unknown_si() {
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    let err = mgr.try_execute_si(0, SiId(99)).unwrap_err();
    assert_eq!(
        err,
        CoreError::UnknownSi {
            id: 99,
            library_len: 2
        }
    );
    // The valid path matches the panicking API.
    let rec = mgr.try_execute_si(0, s0).unwrap();
    assert_eq!(rec, mgr.execute_si(0, s0));
}

#[test]
#[should_panic(expected = "unknown special instruction")]
fn execute_panics_on_unknown_si() {
    let (lib, fabric, ..) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    let _ = mgr.execute_si(0, SiId(99));
}

#[test]
fn sink_sees_manager_events_at_source() {
    use rispp_obs::TimelineSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    let timeline = Rc::new(RefCell::new(TimelineSink::new()));
    let (lib, fabric, s0, _) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric)
        .sink(SinkHandle::shared(timeline.clone()))
        .build();

    mgr.forecast(0, fv(s0, 100.0));
    mgr.execute_si(0, s0); // software: nothing loaded yet
    let done = drain_rotations(&mut mgr);
    mgr.execute_si(0, s0); // hardware
    mgr.record_fc_outcome(0, s0, true, 50_000.0, 100.0);
    mgr.retract_forecast(0, s0);

    let tl = timeline.borrow();
    let records = tl.timeline().entries();
    let has = |pred: &dyn Fn(&Event) -> bool| records.iter().any(|r| pred(&r.event));
    assert!(has(&|e| matches!(
        e,
        Event::ForecastUpdated { task: 0, .. }
    )));
    assert!(has(&|e| matches!(
        e,
        Event::Reselect {
            trigger: ReselectTrigger::Forecast,
            ..
        }
    )));
    assert!(has(&|e| matches!(e, Event::UpgradeStep { step: 0, .. })));
    assert!(has(&|e| matches!(
        e,
        Event::SiExecuted {
            hw: false,
            cycles: 500,
            molecule: None,
            ..
        }
    )));
    // Rotations flow through the shared fabric sink.
    assert!(has(&|e| matches!(e, Event::RotationStarted { .. })));
    assert!(has(&|e| matches!(e, Event::RotationCompleted { .. })));
    // The hardware execution carries its Molecule.
    assert!(records.iter().any(|r| matches!(
        &r.event,
        Event::SiExecuted { hw: true, molecule: Some(m), .. }
            if m.determinant() > 0 && r.at == done
    )));
    assert!(has(&|e| matches!(
        e,
        Event::FcOutcome { reached: true, .. }
    )));
    assert!(has(&|e| matches!(
        e,
        Event::ForecastRetracted { task: 0, .. }
    )));
}

#[test]
fn disabled_sink_changes_nothing() {
    let run = |sink: Option<SinkHandle>| {
        let (lib, fabric, s0, s1) = small_platform();
        let mut b = RisppManager::builder(lib, fabric);
        if let Some(s) = sink {
            b = b.sink(s);
        }
        let mut mgr = b.build();
        mgr.forecast(0, fv(s0, 100.0));
        mgr.forecast(1, fv(s1, 10.0));
        drain_rotations(&mut mgr);
        let r = mgr.execute_si(0, s0);
        (r, mgr.rotations_requested(), mgr.target().clone())
    };
    let observed = run(Some(SinkHandle::new(rispp_obs::CountersSink::default())));
    let silent = run(None);
    assert_eq!(observed, silent);
}

#[test]
fn retry_waits_out_the_backoff() {
    use rispp_fabric::FaultPlan;
    // One container, one single-Atom Molecule: exactly one rotation
    // is ever in flight, so the retry timing is fully determined.
    let atoms = AtomSet::from_names(["A", "B"]);
    let catalog = AtomCatalog::new(vec![
        AtomHwProfile::new("A", 100, 200, 6_920), // 10 000-cycle rotation
        AtomHwProfile::new("B", 100, 200, 6_920),
    ]);
    let fabric = Fabric::new(atoms, catalog, 1).with_faults(FaultPlan {
        crc_failures: vec![0],
        ..FaultPlan::default()
    });
    let mut lib = SiLibrary::new(2);
    let si = lib
        .insert(
            SpecialInstruction::new(
                "S",
                500,
                vec![MoleculeImpl::new(Molecule::from_counts([0, 1]), 20)],
            )
            .unwrap(),
        )
        .unwrap();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(si, 100.0));
    let events = mgr.advance_to(100_000).unwrap();
    // Rotation 0 starts at 0 and fails CRC at 10 000; the retry
    // starts exactly when the 50 µs (5 000 cycle) backoff expires.
    let starts: Vec<u64> = events
        .iter()
        .filter_map(|e| match *e {
            FabricEvent::RotationStarted { at, .. } => Some(at),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![0, 15_000]);
    assert!(events
        .iter()
        .any(|e| matches!(e, FabricEvent::RotationFailed { at: 10_000, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, FabricEvent::RotationCompleted { at: 25_000, .. })));
    // The success wiped the failure history; execution is hardware.
    assert!(mgr.blocked_kinds().is_empty());
    assert!(mgr.execute_si(0, si).hardware);
    // Both transfers moved bits: the failed one stays billed.
    assert_eq!(mgr.rotations_requested(), 2);
    assert_eq!(mgr.rotation_bytes(), 2 * 6_920);
}

#[test]
fn kind_parks_after_max_attempts_and_degrades_to_software() {
    use rispp_fabric::FaultPlan;
    // Every rotation fails CRC. After max_attempts per kind the
    // manager parks the kind instead of retrying forever, and the SI
    // keeps executing in software — never an error.
    let (lib, fabric, s0, _) = small_platform();
    let plan = FaultPlan {
        crc_failures: (0..64).collect(),
        ..FaultPlan::default()
    };
    let mut mgr = RisppManager::builder(lib, fabric.with_faults(plan)).build();
    mgr.forecast(0, fv(s0, 100.0));
    let mut failures = 0usize;
    let mut t = 0u64;
    while t < 2_000_000 {
        t += 1_000;
        let events = mgr
            .advance_to(t)
            .expect("advance never errors under faults");
        failures += events
            .iter()
            .filter(|e| matches!(e, FabricEvent::RotationFailed { .. }))
            .count();
        assert!(mgr.execute_si(0, s0).cycles > 0);
    }
    let max = mgr.retry_policy().max_attempts as usize;
    assert!(
        failures >= max,
        "kind parked too early: {failures} failures"
    );
    // Bounded retry: at most max_attempts per kind, plus rotations
    // already queued when their kind parked (one per container).
    assert!(failures <= 2 * max + 3, "retry storm: {failures} failures");
    assert_eq!(mgr.blocked_kinds().len(), 2);
    assert!(!mgr.execute_si(0, s0).hardware);
    assert_eq!(mgr.execute_si(0, s0).cycles, 500);
    // Once parked, the fabric stays quiet: no new rotations, no new
    // failures, however long the run continues.
    let tail = mgr.advance_to(4_000_000).unwrap();
    assert!(tail.is_empty(), "parked kinds still rotating: {tail:?}");
}

#[test]
fn quarantined_container_is_routed_around() {
    use rispp_fabric::{ContainerId, FaultPlan};
    let (lib, fabric, s0, _) = small_platform();
    let plan = FaultPlan {
        bad_containers: vec![ContainerId(0)],
        ..FaultPlan::default()
    };
    let mut mgr = RisppManager::builder(lib, fabric.with_faults(plan)).build();
    mgr.forecast(0, fv(s0, 100.0));
    let events = mgr.advance_to(1_000_000).unwrap();
    let quarantined_at = events
        .iter()
        .find_map(|e| match *e {
            FabricEvent::ContainerQuarantined {
                container: ContainerId(0),
                at,
            } => Some(at),
            _ => None,
        })
        .expect("bad container was never quarantined");
    // No rotation targets the dead container afterwards.
    assert!(events
        .iter()
        .filter_map(|e| match *e {
            FabricEvent::RotationStarted { container, at, .. } if at > quarantined_at =>
                Some(container),
            _ => None,
        })
        .all(|c| c != ContainerId(0)));
    assert_eq!(mgr.fabric().usable_containers(), 2);
    // Selection re-plans under the reduced capacity: the fast (2,1)
    // Molecule no longer fits two containers, the minimal (1,1) does.
    let r = mgr.execute_si(0, s0);
    assert!(r.hardware);
    assert_eq!(r.cycles, 20);
}

#[test]
fn transient_fault_triggers_reloading() {
    use rispp_fabric::{ContainerId, FaultPlan};
    let (lib, fabric, s0, _) = small_platform();
    // Long after everything is loaded, AC0 loses its Atom.
    let plan = FaultPlan {
        transient_faults: vec![(200_000, ContainerId(0))],
        ..FaultPlan::default()
    };
    let mut mgr = RisppManager::builder(lib, fabric.with_faults(plan)).build();
    mgr.forecast(0, fv(s0, 100.0));
    drain_rotations(&mut mgr);
    assert_eq!(mgr.execute_si(0, s0).cycles, 10);
    let events = mgr.advance_to(250_000).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e, FabricEvent::ContainerFaulted { .. })));
    // The fault triggered a re-selection that reloads the lost Atom.
    drain_rotations(&mut mgr);
    assert_eq!(mgr.execute_si(0, s0).cycles, 10);
}

#[test]
fn two_tasks_share_atoms() {
    let (lib, fabric, s0, s1) = small_platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    mgr.forecast(0, fv(s0, 50.0));
    mgr.forecast(1, fv(s1, 50.0));
    drain_rotations(&mut mgr);
    // Capacity 3: selection can satisfy S0 minimal (1,1) and S1 (0,2)
    // by sharing the B atoms: target (1,2).
    let loaded = mgr.loaded();
    assert!(Molecule::from_counts([1, 1]).le(&loaded), "loaded {loaded}");
    let ra = mgr.execute_si(0, s0);
    let rb = mgr.execute_si(1, s1);
    assert!(ra.hardware && rb.hardware);
}

/// Delegates to [`RotationStrategy::UpgradePath`] and counts the plans
/// it was asked for.
struct CountingPlanner(std::rc::Rc<std::cell::Cell<u32>>);

impl rispp_rt::RotationSchedulePolicy for CountingPlanner {
    fn plan(
        &self,
        lib: &SiLibrary,
        selection: &rispp_rt::selection::MoleculeSelection,
        weights: &rispp_rt::DemandWeights,
    ) -> rispp_rt::RotationPlan {
        self.0.set(self.0.get() + 1);
        RotationStrategy::UpgradePath.plan(lib, selection, weights)
    }
}

#[test]
fn rotations_are_planned_only_when_the_fabric_must_move() {
    use rispp_obs::{Record, TimelineSink};
    use rispp_rt::manager::ManagerBuilder;
    use rispp_rt::RotationSchedulePolicy;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Drives one fixed script and returns its event timeline plus the
    /// value of `plans()` after every step.
    fn script<R: RotationSchedulePolicy>(
        builder: ManagerBuilder<rispp_rt::LruSurplusPolicy, rispp_rt::GreedySelection, R>,
        s0: SiId,
        s1: SiId,
        plans: &dyn Fn() -> u32,
    ) -> (Vec<Record>, Vec<u32>) {
        let timeline = Rc::new(RefCell::new(TimelineSink::new()));
        let mut mgr = builder.sink(SinkHandle::shared(timeline.clone())).build();
        let mut seen = Vec::new();
        // Needs Atoms: plans.
        mgr.forecast(0, fv(s0, 100.0));
        seen.push(plans());
        let done = mgr.all_rotations_done_at().expect("rotations queued");
        mgr.advance_to(done).unwrap();
        assert!(mgr.execute_si(0, s0).hardware);
        // Every target below stays within the loaded (2, 1).
        mgr.forecast(0, fv(s0, 50.0));
        seen.push(plans());
        mgr.forecast(1, fv(s0, 20.0));
        seen.push(plans());
        mgr.record_fc_outcome(0, s0, true, 40_000.0, 60.0);
        seen.push(plans());
        mgr.retract_forecast(1, s0);
        seen.push(plans());
        mgr.retract_forecast(0, s0);
        seen.push(plans());
        mgr.forecast_block(0, vec![fv(s0, 100.0)]);
        seen.push(plans());
        assert!(mgr.execute_si(0, s0).hardware);
        // S1 needs a second B Atom: plans once more.
        mgr.forecast(1, fv(s1, 1_000.0));
        seen.push(plans());
        assert!(mgr.all_rotations_done_at().is_some());
        drop(mgr);
        let records = timeline.borrow().timeline().entries().to_vec();
        (records, seen)
    }

    let (lib, fabric, s0, s1) = small_platform();
    let count = Rc::new(Cell::new(0));
    let counting =
        RisppManager::builder(lib, fabric).schedule_policy(CountingPlanner(count.clone()));
    let (counted, plans) = script(counting, s0, s1, &|| count.get());
    assert_eq!(plans, [1, 1, 1, 1, 1, 1, 1, 2]);

    let (lib, fabric, s0, s1) = small_platform();
    let plain = RisppManager::builder(lib, fabric).rotation_strategy(RotationStrategy::UpgradePath);
    let (expected, _) = script(plain, s0, s1, &|| 0);
    assert_eq!(counted, expected);
    assert!(counted
        .iter()
        .any(|r| matches!(r.event, Event::UpgradeStep { si, .. } if si == s1)));
}
