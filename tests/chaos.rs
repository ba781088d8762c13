//! End-to-end chaos tests through the `rispp` facade: seeded fault plans
//! over the paper's scenarios must degrade gracefully — bit-exact
//! functional output, a timeline that keeps every structural invariant,
//! and recovery (retry or software fallback) after every failed rotation.

use std::cell::RefCell;
use std::rc::Rc;

use rispp::core::atom::AtomKind;
use rispp::fabric::FaultPlan;
use rispp::obs::Event;
use rispp::prelude::*;
use rispp::sim::chaos::{
    check_fault_recovery, check_monotone_time, check_occupancy_pairing, check_upgrade_ladder,
    run_codec_chaos, run_fig6_chaos,
};

const HORIZON: u64 = 2_000_000;

#[test]
fn seeded_fault_plans_leave_fig6_functionally_intact() {
    let baseline = run_fig6_chaos(&FaultPlan::none(), None);
    assert!(baseline.report.passed(), "{}", baseline.report);
    assert_eq!(baseline.report.rotation_failures, 0);

    let mut total_failures = 0;
    for seed in 0..4 {
        let plan = FaultPlan::seeded(seed, 6, HORIZON);
        let out = run_fig6_chaos(&plan, None);
        assert!(out.report.passed(), "seed {seed}: {}", out.report);
        // The executed SI stream is the scenario's functional output; it
        // must not depend on the fault schedule.
        assert_eq!(
            out.exec_counts, baseline.exec_counts,
            "seed {seed}: SI stream diverged from the fault-free run"
        );
        total_failures += out.report.rotation_failures;
    }
    assert!(total_failures > 0, "no seeded plan ever failed a rotation");
}

#[test]
fn codec_output_is_bit_exact_under_faults() {
    for seed in [3, 7] {
        let plan = FaultPlan::seeded(seed, 6, HORIZON);
        let out = run_codec_chaos(&plan, 2, 42);
        assert!(out.report.passed(), "seed {seed}: {}", out.report);
        assert_eq!(out.faulty.total_bits, out.baseline.total_bits);
        assert_eq!(out.faulty.mean_psnr, out.baseline.mean_psnr);
        assert_eq!(out.faulty.si_invocations, out.baseline.si_invocations);
    }
}

#[test]
fn every_rotation_failure_is_followed_by_retry_or_software() {
    // Acceptance shape, spelled out on the raw timeline: at least one
    // RotationFailed appears, and each one is answered by a later
    // successful rotation of the same Atom kind or a later software
    // execution of an SI that wanted it.
    let plan = FaultPlan::seeded(1, 6, HORIZON);
    let timeline = ShardSpec::new(Scenario::Fig6, 0)
        .with_faults(plan)
        .with_sink(SinkSpec::Timeline)
        .run()
        .timeline
        .expect("timeline captured");
    let (lib, _) = rispp::h264::si_library::build_library();

    let failures: Vec<(usize, AtomKind)> = timeline
        .entries()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r.event {
            Event::RotationFailed { kind, .. } => Some((i, kind)),
            _ => None,
        })
        .collect();
    assert!(!failures.is_empty(), "seed 1 must fail at least once");

    for (i, kind) in failures {
        let answered = timeline.entries()[i + 1..].iter().any(|r| match &r.event {
            Event::RotationCompleted { kind: k, .. } => *k == kind,
            Event::SiExecuted { hw: false, si, .. } => lib
                .try_get(*si)
                .is_some_and(|def| def.molecules().iter().any(|m| m.molecule.count(kind) > 0)),
            _ => false,
        });
        assert!(answered, "failure of {kind} was never answered");
    }
    // The generic checker agrees.
    assert!(check_fault_recovery(&timeline, &lib).is_empty());
}

#[test]
fn forecast_churn_under_faults_keeps_the_timeline_sound() {
    // Rapid re-forecasting makes the manager cancel queued rotations on
    // every reselect (schedule_rotations starts from a clean queue)
    // while faults fail and stall the in-flight ones. The occupancy
    // stream must stay strictly paired and hardware executions within
    // the loaded Atoms throughout.
    let plan = FaultPlan::seeded(2, 4, HORIZON);
    let (lib, sis) = rispp::h264::si_library::build_library();
    let fabric = rispp::sim::h264_fabric(4).with_faults(plan.clone());
    let timeline = Rc::new(RefCell::new(TimelineSink::new()));
    let mut mgr = RisppManager::builder(lib.clone(), fabric)
        .sink(SinkHandle::shared(timeline.clone()))
        .build();

    let wanted = [sis.satd_4x4, sis.dct_4x4, sis.sad_4x4, sis.ht_4x4];
    let mut t = 0u64;
    for round in 0..40u64 {
        let si = wanted[(round % wanted.len() as u64) as usize];
        mgr.forecast(0, ForecastValue::new(si, 1.0, 60_000.0, 200.0));
        t += 9_000;
        mgr.advance_to(t).expect("monotone time");
        let rec = mgr.execute_si(0, si);
        assert!(
            rec.cycles <= lib.get(si).sw_cycles(),
            "round {round}: degraded below software"
        );
    }
    mgr.advance_to(t + 1_000_000).expect("monotone time");

    let tl = timeline.borrow();
    assert!(check_monotone_time(tl.timeline()).is_empty());
    assert!(
        check_occupancy_pairing(tl.timeline()).is_empty(),
        "occupancy unpaired under churn + faults"
    );
    assert!(
        check_upgrade_ladder(tl.timeline(), lib.width()).is_empty(),
        "hardware execution beyond the loaded atoms"
    );
}
