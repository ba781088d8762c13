//! Criterion benchmarks of the selection algorithms: the run-time
//! Molecule selection (runs on every forecast event), re-selection on a
//! manager driven by the stress scenario's demand changes, and the
//! Fig. 5 trimming loop (compile-time, but also invoked online).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp::core::forecast::ForecastValue;
use rispp::core::selection::{select_molecules, trim_forecast_candidates};
use rispp::core::si::{SiId, SiLibrary};
use rispp::fabric::Fabric;
use rispp::h264::si_library::build_library;
use rispp::prelude::Molecule;
use rispp::rt::RisppManager;
use rispp::sim::random_platform;

/// One recorded step of a stress platform that reaches the manager's
/// selection: a forecast, a retraction, or the time advance that lets
/// queued rotations land between them.
enum Step {
    Forecast(u32, ForecastValue),
    Retract(u32, SiId),
    Advance(u64),
}

/// Platform `seed` of the stress scenario (`Scenario::Stress`, 400
/// steps) with its steps drawn exactly as the scenario draws them;
/// executions are dropped, advances kept as absolute times.
fn stress_platform(seed: u64) -> (SiLibrary, Fabric, Vec<Step>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (lib, fabric) = random_platform(&mut rng);
    let mut steps = Vec::new();
    let mut now = 0u64;
    for _ in 0..400 {
        let si = SiId(rng.gen_range(0..lib.len()));
        match rng.gen_range(0..10) {
            0..=2 => {
                let task = rng.gen_range(0..3);
                let value = ForecastValue::new(
                    si,
                    rng.gen_range(0.05..1.0),
                    rng.gen_range(1_000.0..1_000_000.0),
                    rng.gen_range(1.0..500.0),
                );
                steps.push(Step::Forecast(task, value));
            }
            3 => steps.push(Step::Retract(rng.gen_range(0..3), si)),
            4..=7 => {
                let _task: u32 = rng.gen_range(0..3);
            }
            _ => {
                now += rng.gen_range(1..200_000u64);
                steps.push(Step::Advance(now));
            }
        }
    }
    (lib, fabric, steps)
}

fn bench_selection(c: &mut Criterion) {
    let (lib, sis) = build_library();
    let demands = [
        (sis.satd_4x4, 256.0),
        (sis.dct_4x4, 24.0),
        (sis.ht_4x4, 1.0),
        (sis.ht_2x2, 2.0),
        (sis.sad_4x4, 48.0),
    ];
    let mut group = c.benchmark_group("selection");
    for capacity in [4u32, 6, 12, 18] {
        group.bench_function(format!("select_molecules/cap{capacity}"), |b| {
            b.iter(|| select_molecules(black_box(&lib), black_box(&demands), capacity))
        });
    }

    // Re-selection as the stress workload drives it: the forecast and
    // retract stream of the first 8 stress platforms at seed 0, each
    // replayed on a fresh manager.
    let platforms: Vec<_> = (0..8).map(stress_platform).collect();
    group.bench_function("reselect_stress", |b| {
        b.iter(|| {
            let mut reselects = 0;
            for (lib, fabric, steps) in &platforms {
                let mut mgr = RisppManager::builder(lib.clone(), fabric.clone()).build();
                for step in steps {
                    match step {
                        Step::Forecast(task, value) => mgr.forecast(*task, value.clone()),
                        Step::Retract(task, si) => mgr.retract_forecast(*task, *si),
                        Step::Advance(t) => {
                            mgr.advance_to(*t).expect("recorded times ascend");
                        }
                    }
                }
                reselects += mgr.reselects();
            }
            black_box(reselects)
        })
    });

    // Trimming over the SI representatives (the per-BB compile-time pass).
    let reps: Vec<Molecule> = lib.iter().map(|(_, si)| si.representative()).collect();
    let speedups: Vec<f64> = lib
        .iter()
        .map(|(_, si)| si.sw_cycles() as f64 / si.fastest().cycles as f64)
        .collect();
    for budget in [2u32, 4, 8] {
        group.bench_function(format!("trim_candidates/budget{budget}"), |b| {
            b.iter(|| {
                trim_forecast_candidates(black_box(&reps), black_box(&speedups), budget).unwrap()
            })
        });
    }

    group.bench_function("fdf_eval", |b| {
        use rispp::prelude::FdfParams;
        let fdf = FdfParams::new(85_000.0, 544.0, 24.0, 50_000.0, 1.0);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 1..=64 {
                acc += fdf.eval(black_box(0.7), black_box(1_000.0 * i as f64));
            }
            acc
        })
    });

    group.bench_function("compatibility_matrix", |b| {
        use rispp::core::compat::compatibility_matrix;
        b.iter(|| compatibility_matrix(black_box(&lib)))
    });
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
