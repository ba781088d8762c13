//! Oracle properties for SI dispatch.
//!
//! The manager caches each SI's fastest loaded Molecule, and the
//! containers its LRU touch updates, until the fabric's loaded Atoms
//! change. The cache may only change speed: under random
//! forecast/retract/execute/advance sequences and seeded fault plans,
//! every execution must match a from-scratch scan of the loaded Atoms
//! taken just before the call, and must touch exactly the containers
//! the plain rule picks — for each kind, the first `count` containers
//! holding it, in index order.

use proptest::prelude::*;
use rispp_core::atom::AtomSet;
use rispp_core::forecast::ForecastValue;
use rispp_core::molecule::Molecule;
use rispp_core::si::{MoleculeImpl, SiId, SiLibrary, SpecialInstruction};
use rispp_fabric::catalog::{AtomCatalog, AtomHwProfile};
use rispp_fabric::container::ContainerId;
use rispp_fabric::fabric::Fabric;
use rispp_fabric::fault::FaultPlan;
use rispp_rt::manager::{ExecutionRecord, RisppManager};

const SIS: usize = 5;
const CONTAINERS: usize = 4;
/// The SI whose only hardware Molecule is slower than its software one.
const SLOW: SiId = SiId(4);

/// Three-kind platform: four SIs with overlapping upgrade ladders, plus
/// [`SLOW`], whose one hardware Molecule needs a single `A` and takes
/// five times its software latency.
fn platform() -> (SiLibrary, Fabric) {
    let atoms = AtomSet::from_names(["A", "B", "C"]);
    let catalog = AtomCatalog::new(vec![
        AtomHwProfile::new("A", 100, 200, 6_920),
        AtomHwProfile::new("B", 100, 200, 6_920),
        AtomHwProfile::new("C", 100, 200, 6_920),
    ]);
    let fabric = Fabric::new(atoms, catalog, CONTAINERS);
    let mut lib = SiLibrary::new(3);
    let m = |counts: [u32; 3], cycles| MoleculeImpl::new(Molecule::from_counts(counts), cycles);
    let sis = [
        SpecialInstruction::new("S0", 500, vec![m([1, 1, 0], 20), m([2, 1, 0], 10)]),
        SpecialInstruction::new("S1", 400, vec![m([0, 2, 0], 15)]),
        SpecialInstruction::new("S2", 600, vec![m([0, 1, 1], 30), m([0, 1, 2], 12)]),
        SpecialInstruction::new("S3", 300, vec![m([1, 0, 1], 25), m([2, 0, 2], 8)]),
        SpecialInstruction::new("SLOW", 10, vec![m([1, 0, 0], 50)]),
    ];
    for si in sis {
        lib.insert(si.unwrap()).unwrap();
    }
    (lib, fabric)
}

/// One step of the random driver program.
#[derive(Debug, Clone)]
enum Op {
    Forecast { task: u32, si: usize, execs: u32 },
    Retract { task: u32, si: usize },
    Execute { task: u32, si: usize },
    Advance { delta: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..3, 0usize..SIS, 1u32..200).prop_map(|(task, si, execs)| Op::Forecast {
            task,
            si,
            execs
        }),
        (0u32..3, 0usize..SIS).prop_map(|(task, si)| Op::Retract { task, si }),
        (0u32..3, 0usize..SIS).prop_map(|(task, si)| Op::Execute { task, si }),
        (0u32..3, 0usize..SIS).prop_map(|(task, si)| Op::Execute { task, si }),
        (1u64..150_000).prop_map(|delta| Op::Advance { delta }),
    ]
}

/// What a from-scratch dispatch of `si` on `mgr` gives: the record, and
/// the containers whose LRU stamp it must set.
fn oracle(mgr: &RisppManager, si: SiId) -> (ExecutionRecord, Vec<ContainerId>) {
    let def = mgr.library().get(si);
    match def.best_available(&mgr.loaded()) {
        Some(m) => {
            let mut touched = Vec::new();
            for (kind, count) in m.molecule.iter_nonzero() {
                touched.extend(
                    mgr.fabric()
                        .iter_containers()
                        .filter(|(_, c)| c.loaded_kind() == Some(kind))
                        .map(|(id, _)| id)
                        .take(count as usize),
                );
            }
            let record = ExecutionRecord {
                si,
                cycles: m.cycles,
                hardware: true,
            };
            (record, touched)
        }
        None => {
            let record = ExecutionRecord {
                si,
                cycles: def.sw_cycles(),
                hardware: false,
            };
            (record, Vec::new())
        }
    }
}

fn last_used(mgr: &RisppManager) -> Vec<u64> {
    mgr.fabric()
        .iter_containers()
        .map(|(_, c)| c.last_used())
        .collect()
}

/// Applies one op to `mgr`, asserting an execution against [`oracle`].
/// Returns whether the op ran [`SLOW`] in hardware.
fn step(mgr: &mut RisppManager, op: &Op) -> bool {
    match *op {
        Op::Forecast { task, si, execs } => {
            let value = ForecastValue::new(SiId(si), 1.0, 50_000.0, f64::from(execs));
            mgr.forecast(task, value);
            false
        }
        Op::Retract { task, si } => {
            mgr.retract_forecast(task, SiId(si));
            false
        }
        Op::Execute { task, si } => {
            let si = SiId(si);
            let (expected, touched) = oracle(mgr, si);
            let before = last_used(mgr);
            let record = mgr.execute_si(task, si);
            assert_eq!(record, expected);
            let now = mgr.now();
            for (i, (&was, is)) in before.iter().zip(last_used(mgr)).enumerate() {
                let want = if touched.contains(&ContainerId(i)) {
                    now
                } else {
                    was
                };
                assert_eq!(is, want, "AC{i} after executing {si}");
            }
            si == SLOW && record.hardware
        }
        Op::Advance { delta } => {
            let t = mgr.now() + delta;
            mgr.advance_to(t).expect("monotone time");
            false
        }
    }
}

/// Drives `ops` against a fresh platform under `faults`, asserting every
/// execution against [`oracle`]. Returns how many executions ran
/// [`SLOW`] in hardware.
fn run(ops: &[Op], faults: FaultPlan) -> u32 {
    let (lib, fabric) = platform();
    let mut mgr = RisppManager::builder(lib, fabric.with_faults(faults)).build();
    ops.iter().map(|op| u32::from(step(&mut mgr, op))).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cached dispatch equals a from-scratch scan on every execution,
    /// across rotation completions, CRC failures, quarantines, transient
    /// faults and port stalls.
    #[test]
    fn cached_dispatch_matches_a_fresh_scan(
        ops in proptest::collection::vec(op(), 1..80),
        fault_seed in 0u64..8,
    ) {
        let faults = if fault_seed == 0 {
            FaultPlan::none()
        } else {
            FaultPlan::seeded(fault_seed, CONTAINERS, 400_000)
        };
        run(&ops, faults);
    }
}

/// The known defect, kept as it is: a loaded hardware Molecule runs even
/// when it is slower than the software Molecule.
#[test]
fn a_loaded_molecule_slower_than_software_still_runs() {
    let mut ops = vec![
        Op::Execute { task: 0, si: 4 },
        Op::Forecast {
            task: 0,
            si: 0,
            execs: 100,
        },
    ];
    ops.extend((0..8).map(|_| Op::Advance { delta: 100_000 }));
    ops.push(Op::Execute { task: 1, si: 4 });
    assert_eq!(run(&ops, FaultPlan::none()), 1);

    let (lib, _) = platform();
    let slow = lib.get(SLOW);
    assert!(slow.molecules()[0].cycles > slow.sw_cycles());
}

/// A transient fault can evict an Atom while another rotation is in
/// flight. The re-plan then only queues a rotation and no container
/// starts loading, yet dispatch must see the eviction at once.
#[test]
fn an_eviction_behind_an_in_flight_rotation_reaches_dispatch() {
    // Fault-free dry run: stop at the first rotation completion after
    // which S0 runs in hardware while its ladder is still loading, and
    // pick a container its Molecule uses.
    let (lib, fabric) = platform();
    let mut mgr = RisppManager::builder(lib, fabric).build();
    let mut ops = vec![Op::Forecast {
        task: 0,
        si: 0,
        execs: 100,
    }];
    step(&mut mgr, &ops[0]);
    let victim = loop {
        let done = mgr.fabric().next_completion().expect("S0's ladder loads");
        let advance = Op::Advance {
            delta: done - mgr.now(),
        };
        step(&mut mgr, &advance);
        ops.push(advance);
        let best = mgr.library().get(SiId(0)).best_available(&mgr.loaded());
        if let (Some(m), Some(_)) = (best, mgr.fabric().next_completion()) {
            let (kind, _) = m.molecule.iter_nonzero().next().expect("hardware");
            let (id, _) = mgr
                .fabric()
                .iter_containers()
                .find(|(_, c)| c.loaded_kind() == Some(kind))
                .expect("the Molecule's Atoms are loaded");
            break id;
        }
    };
    let before = mgr.execute_si(0, SiId(0));
    ops.push(Op::Execute { task: 0, si: 0 });
    let at = mgr.now() + 1;
    ops.push(Op::Advance { delta: 1 });
    ops.push(Op::Execute { task: 0, si: 0 });

    let (lib, fabric) = platform();
    let faults = FaultPlan {
        transient_faults: vec![(at, victim)],
        ..FaultPlan::default()
    };
    let mut mgr = RisppManager::builder(lib, fabric.with_faults(faults)).build();
    for op in &ops {
        step(&mut mgr, op);
    }
    assert!(mgr.fabric().next_completion().is_some(), "still loading");
    let after = mgr.execute_si(0, SiId(0));
    assert_ne!(after, before, "the eviction changed S0's dispatch");
}
