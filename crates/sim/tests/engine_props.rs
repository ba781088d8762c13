//! Property tests on the multi-task engine: time accounting, trace
//! ordering, determinism, and round-robin fairness under random task
//! programs.

use proptest::prelude::*;
use rispp_core::atom::AtomSet;
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::fabric::Fabric;
use rispp_rt::manager::RisppManager;
use rispp_sim::engine::Engine;
use rispp_sim::task::{Op, Task};

fn platform(containers: usize) -> (RisppManager, SiId) {
    let atoms = AtomSet::from_names(["A", "B"]);
    let catalog = AtomCatalog::new(vec![
        AtomHwProfile::new("A", 100, 200, 6_920),
        AtomHwProfile::new("B", 100, 200, 6_920),
    ]);
    let fabric = Fabric::new(atoms, catalog, containers);
    let mut lib = SiLibrary::new(2);
    let si = lib
        .insert(
            SpecialInstruction::new(
                "S",
                300,
                vec![MoleculeImpl::new(Molecule::from_counts([1, 1]), 25)],
            )
            .unwrap(),
        )
        .unwrap();
    (RisppManager::builder(lib, fabric).build(), si)
}

/// Random primitive op.
fn op(si: SiId) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..5_000).prop_map(Op::Plain),
        Just(Op::ExecSi(si)),
        (1.0f64..200.0).prop_map(move |n| Op::Forecast(ForecastValue::new(si, 1.0, 20_000.0, n))),
        Just(Op::RetractForecast(si)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-task runs: the end time equals the sum of op durations
    /// (plain cycles + the actual SI latencies recorded in the trace).
    #[test]
    fn single_task_time_accounting(
        ops in proptest::collection::vec(op(SiId(0)), 1..40),
        containers in 0usize..3,
    ) {
        let (mgr, si) = platform(containers);
        let mut engine = Engine::new(mgr);
        engine.add_task(Task::new(0, "t", ops.clone()));
        let end = engine.run(10_000);
        let plain: u64 = ops
            .iter()
            .filter_map(|o| match o {
                Op::Plain(c) => Some(*c),
                _ => None,
            })
            .sum();
        let si_cycles: u64 = engine.timeline().executions(0, si).map(|e| e.1).sum();
        prop_assert_eq!(end, plain + si_cycles);
    }

    /// Trace entries never go backwards in time.
    #[test]
    fn trace_is_time_ordered(
        ops in proptest::collection::vec(op(SiId(0)), 1..40),
        containers in 0usize..3,
    ) {
        let (mgr, _) = platform(containers);
        let mut engine = Engine::new(mgr);
        engine.add_task(Task::new(0, "t", ops));
        engine.run(10_000);
        let times: Vec<u64> = engine.timeline().entries().iter().map(|e| e.at).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Engine runs are deterministic: the same ops give the same end
    /// time and the same timeline, event for event.
    #[test]
    fn runs_are_deterministic(
        ops in proptest::collection::vec(op(SiId(0)), 1..30),
        containers in 0usize..3,
    ) {
        let run = || {
            let (mgr, _) = platform(containers);
            let mut engine = Engine::new(mgr);
            engine.add_task(Task::new(0, "t", ops.clone()));
            let end = engine.run(10_000);
            let timeline = engine.timeline().clone();
            (end, timeline)
        };
        let (e1, t1) = run();
        let (e2, t2) = run();
        prop_assert_eq!(e1, e2);
        prop_assert_eq!(t1, t2);
    }

    /// With two identical tasks, round-robin keeps their execution counts
    /// within one of each other at all times.
    #[test]
    fn round_robin_is_fair(n in 1u32..30) {
        let (mgr, si) = platform(2);
        let mut engine = Engine::new(mgr);
        for id in 0..2 {
            engine.add_task(Task::new(
                id,
                format!("t{id}"),
                vec![Op::Repeat {
                    body: vec![Op::ExecSi(si)],
                    times: n,
                }],
            ));
        }
        engine.run(100_000);
        let a = engine.timeline().executions(0, si).count();
        let b = engine.timeline().executions(1, si).count();
        prop_assert_eq!(a, n as usize);
        prop_assert_eq!(b, n as usize);
        // Interleaving: merge-sort the timestamps and check alternation
        // never drifts by more than one.
        let ta: Vec<u64> = engine.timeline().executions(0, si).map(|e| e.0).collect();
        let tb: Vec<u64> = engine.timeline().executions(1, si).map(|e| e.0).collect();
        for i in 0..ta.len().min(tb.len()) {
            prop_assert!(ta[i] <= tb[i]);
            if i + 1 < ta.len() {
                prop_assert!(tb[i] <= ta[i + 1]);
            }
        }
    }
}
