//! Quickstart: forecast an SI, watch it rotate into hardware, and see the
//! gradual SW → HW upgrade.
//!
//! Run with: `cargo run -p rispp --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use rispp::prelude::*;

fn main() {
    // The H.264 case-study platform: QuadSub/Pack/Transform/SATD Atoms,
    // six Atom Containers, SelectMap-speed rotations (Table 1).
    let (library, sis) = rispp::h264::build_library();
    let fabric = rispp::sim::h264_fabric(6);
    // Per-SI counts are a fold of the manager's event stream.
    let counters = Rc::new(RefCell::new(CountersSink::new()));
    let mut manager = RisppManager::builder(library, fabric)
        .sink(SinkHandle::shared(counters.clone()))
        .build();

    println!("== RISPP quickstart: rotating SATD_4x4 into hardware ==\n");

    // A forecast point fires: SATD_4x4 will execute ~300 times, starting
    // in roughly 400k cycles, with certainty.
    manager.forecast(0, ForecastValue::new(sis.satd_4x4, 1.0, 400_000.0, 300.0));
    println!(
        "forecast issued; target meta-molecule: {} ({} rotations requested)",
        manager.target(),
        manager.rotations_requested()
    );

    // Execute the SI while rotations are still in flight: the latency
    // improves step by step as Atoms arrive.
    let mut last = 0;
    let step = 30_000; // cycles between executions
    for i in 0..20 {
        let t = manager.now() + step;
        manager.advance_to(t).expect("time is monotone");
        let record = manager.execute_si(0, sis.satd_4x4);
        let how = if record.hardware { "HW" } else { "SW" };
        if record.cycles != last {
            println!(
                "t = {:>9} cycles: SATD_4x4 executes in {:>3} cycles [{how}]  loaded = {}",
                i * step,
                record.cycles,
                manager.loaded()
            );
            last = record.cycles;
        }
    }

    let stats = counters.borrow().si(sis.satd_4x4);
    println!(
        "\n{} software + {} hardware executions, {} cycles total",
        stats.sw_executions, stats.hw_executions, stats.cycles
    );
    println!(
        "speed-up of the final molecule vs software: {:.1}x",
        544.0 / f64::from(u32::try_from(last).unwrap_or(1))
    );
}
