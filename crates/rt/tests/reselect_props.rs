//! Oracle property for re-selection.
//!
//! The manager re-weighs only the SI a forecast, retraction or FC outcome
//! names, and its default greedy resumes its last run from the first
//! round the new weights move. That may only change speed: twin
//! managers, one with the default greedy and one with a policy that
//! selects from scratch, must emit identical event streams and hold
//! identical targets under random forecasts, retractions, FC outcomes,
//! forecast blocks, power-mode switches, executions and time advances,
//! with seeded fault plans and quarantined containers. After every step
//! each target must also equal a fresh greedy over weights summed from a
//! plain `(task, si)` map of the active forecasts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;
use rispp_core::atom::AtomSet;
use rispp_core::energy::EnergyModel;
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::Fabric;
use rispp_fabric::fault::FaultPlan;
use rispp_obs::{Record, SinkHandle, TimelineSink};
use rispp_rt::manager::RisppManager;
use rispp_rt::selection::{minimal_rotation_bytes, select_molecules, MoleculeSelection};
use rispp_rt::{GreedySelection, PowerMode, SelectionPolicy};

const KINDS: usize = 3;

/// Selects from scratch on every call: the trait's default `reselect`.
struct FromScratch;

impl SelectionPolicy for FromScratch {
    fn select(&self, lib: &SiLibrary, demands: &[(SiId, f64)], capacity: u32) -> MoleculeSelection {
        select_molecules(lib, demands, capacity)
    }
}

/// Probabilities drawn from a small table, so equal weights are common.
const PROBABILITIES: [f64; 4] = [0.05, 0.3, 0.5, 1.0];

/// One step of a random op sequence. SI indices are reduced modulo
/// the library size; retractions and outcomes may also name one SI past
/// its end.
#[derive(Debug, Clone)]
enum Op {
    Forecast {
        task: u32,
        si: usize,
        p: usize,
        execs: u32,
    },
    Retract {
        task: u32,
        si: usize,
    },
    Outcome {
        task: u32,
        si: usize,
        reached: bool,
        execs: u32,
    },
    Block {
        task: u32,
        values: Vec<(usize, usize, u32)>,
    },
    Mode {
        energy: bool,
    },
    Execute {
        task: u32,
        si: usize,
    },
    Advance {
        delta: u64,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, 0usize..8, 0usize..4, 1u32..400)
            .prop_map(|(task, si, p, execs)| { Op::Forecast { task, si, p, execs } }),
        (0u32..3, 0usize..8, 0usize..4, 1u32..400)
            .prop_map(|(task, si, p, execs)| { Op::Forecast { task, si, p, execs } }),
        (0u32..3, 0usize..8).prop_map(|(task, si)| Op::Retract { task, si }),
        (0u32..3, 0usize..8, 0u32..2, 0u32..400).prop_map(|(task, si, reached, execs)| {
            Op::Outcome {
                task,
                si,
                reached: reached == 1,
                execs,
            }
        }),
        (
            0u32..3,
            proptest::collection::vec((0usize..8, 0usize..4, 1u32..400), 1..4)
        )
            .prop_map(|(task, values)| Op::Block { task, values }),
        (0u32..2).prop_map(|energy| Op::Mode {
            energy: energy == 1
        }),
        (0u32..3, 0usize..8).prop_map(|(task, si)| Op::Execute { task, si }),
        (1u64..150_000).prop_map(|delta| Op::Advance { delta }),
    ]
}

prop_compose! {
    fn si_strategy()(
        mols in proptest::collection::vec(
            (proptest::collection::vec(0u32..3, KINDS), 5u64..80),
            1..5,
        ),
        extra_sw in 50u64..2_000,
    ) -> SpecialInstruction {
        let mols: Vec<MoleculeImpl> = mols
            .into_iter()
            .filter(|(counts, _)| counts.iter().any(|&c| c > 0))
            .map(|(counts, cycles)| MoleculeImpl::new(Molecule::from_counts(counts), cycles))
            .collect();
        let mols = if mols.is_empty() {
            vec![MoleculeImpl::new(Molecule::from_counts([1, 0, 0]), 20)]
        } else {
            mols
        };
        let fastest = mols.iter().map(|m| m.cycles).min().expect("non-empty");
        SpecialInstruction::new("prop-si", fastest + extra_sw, mols).expect("valid SI")
    }
}

fn platform(
    sis: Vec<SpecialInstruction>,
    containers: usize,
    faults: FaultPlan,
) -> (SiLibrary, Fabric) {
    let atoms = AtomSet::from_names(["A", "B", "C"]);
    let catalog = AtomCatalog::new(vec![
        AtomHwProfile::new("A", 100, 200, 6_920),
        AtomHwProfile::new("B", 150, 300, 12_000),
        AtomHwProfile::new("C", 300, 600, 40_000),
    ]);
    let mut lib = SiLibrary::new(KINDS);
    for si in sis {
        lib.insert(si).expect("one width");
    }
    let fabric = Fabric::new(atoms, catalog, containers).with_faults(faults);
    (lib, fabric)
}

fn forecast(si: usize, p: usize, execs: u32) -> ForecastValue {
    ForecastValue::new(SiId(si), PROBABILITIES[p], 50_000.0, f64::from(execs))
}

fn mode(energy: bool) -> PowerMode {
    if energy {
        PowerMode::EnergySaving {
            model: EnergyModel::default(),
            alpha: 1.0,
        }
    } else {
        PowerMode::Performance
    }
}

/// The active forecasts as a plain `(task, si)` map, kept beside the
/// manager, and the adaptation goal.
#[derive(Default)]
struct Model {
    forecasts: BTreeMap<(u32, usize), ForecastValue>,
    mode: PowerMode,
}

impl Model {
    /// Every SI's weight, summed over the map in `(task, si)` order.
    fn weights(&self, mgr: &RisppManager<impl SelectionPolicy>) -> Vec<(SiId, f64)> {
        let lib = mgr.library();
        let mut weights: Vec<(SiId, f64)> = (0..lib.len()).map(|si| (SiId(si), 0.0)).collect();
        for (&(_, si), fv) in &self.forecasts {
            let def = lib.get(SiId(si));
            weights[si].1 += match self.mode {
                PowerMode::Performance => {
                    fv.expected_benefit(def.sw_cycles() as f64, def.fastest().cycles as f64)
                }
                PowerMode::EnergySaving { model, alpha } => {
                    let bytes = minimal_rotation_bytes(lib, mgr.fabric().catalog(), SiId(si));
                    let expected = fv.probability * fv.expected_executions;
                    if expected < model.amortisation_executions(def, bytes, alpha) {
                        0.0
                    } else {
                        expected * model.per_execution_saving_j(def) * 1e9
                    }
                }
            };
        }
        weights
    }
}

/// Drives `ops` on a manager selecting with `policy`; returns the event
/// stream and the target after every op.
fn run<S: SelectionPolicy>(
    policy: S,
    (lib, fabric): (SiLibrary, Fabric),
    ops: &[Op],
) -> (Vec<Record>, Vec<Molecule>) {
    let n = lib.len();
    let timeline = Rc::new(RefCell::new(TimelineSink::new()));
    let mut mgr = RisppManager::builder(lib, fabric)
        .selection_policy(policy)
        .sink(SinkHandle::shared(timeline.clone()))
        .build();
    let mut model = Model::default();
    let mut targets = Vec::new();
    for op in ops {
        match *op {
            Op::Forecast { task, si, p, execs } => {
                let value = forecast(si % n, p, execs);
                model.forecasts.insert((task, si % n), value.clone());
                mgr.forecast(task, value);
            }
            Op::Retract { task, si } => {
                model.forecasts.remove(&(task, si % (n + 1)));
                mgr.retract_forecast(task, SiId(si % (n + 1)));
            }
            Op::Outcome {
                task,
                si,
                reached,
                execs,
            } => {
                let (distance, execs) = (30_000.0, f64::from(execs));
                if let Some(fv) = model.forecasts.get_mut(&(task, si % (n + 1))) {
                    // The manager's smoothing factor λ.
                    fv.observe(0.25, reached, distance, execs);
                }
                mgr.record_fc_outcome(task, SiId(si % (n + 1)), reached, distance, execs);
            }
            Op::Block { task, ref values } => {
                let values: Vec<ForecastValue> = values
                    .iter()
                    .map(|&(si, p, execs)| forecast(si % n, p, execs))
                    .collect();
                for value in &values {
                    model
                        .forecasts
                        .insert((task, value.si.index()), value.clone());
                }
                mgr.forecast_block(task, values);
            }
            Op::Mode { energy } => {
                model.mode = mode(energy);
                mgr.adapt_power_mode(model.mode);
            }
            Op::Execute { task, si } => {
                mgr.execute_si(task, SiId(si % n));
            }
            Op::Advance { delta } => {
                let t = mgr.now() + delta;
                mgr.advance_to(t).expect("monotone time");
            }
        }
        // Every step that can move the weights or the usable capacity
        // re-selects, so the target reflects both; before the first
        // re-selection every weight is zero and so is the target.
        let capacity = mgr.fabric().usable_containers() as u32;
        let fresh = select_molecules(mgr.library(), &model.weights(&mgr), capacity);
        assert_eq!(mgr.target(), &fresh.target, "after {op:?}");
        targets.push(mgr.target().clone());
    }
    drop(mgr);
    let records = timeline.borrow().timeline().entries().to_vec();
    (records, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The resuming greedy and a from-scratch selection drive the manager
    /// identically, event for event.
    #[test]
    fn resumed_reselection_matches_a_from_scratch_twin(
        sis in proptest::collection::vec(si_strategy(), 1..6),
        containers in 0usize..8,
        fault_seed in 0u64..6,
        bad_container in 0u32..2,
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let mut faults = if fault_seed == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::seeded(fault_seed, containers, 600_000)
        };
        if bad_container == 1 && containers > 1 {
            faults.bad_containers.push(ContainerId(containers - 1));
        }
        let (lib, fabric) = platform(sis, containers, faults);
        let resumed = run(GreedySelection, (lib.clone(), fabric.clone()), &ops);
        let scratch = run(FromScratch, (lib, fabric), &ops);
        prop_assert_eq!(resumed.1, scratch.1);
        prop_assert_eq!(resumed.0, scratch.0);
    }
}
