//! Ablation — "Rotation in Advance" scheduling order: staging the
//! upgrade path (smallest Molecule first) versus loading the final target
//! Molecule's Atoms in plain kind order. Measures time-to-first-hardware
//! execution and total cycles for the SATD_4x4 hot spot.

use std::cell::RefCell;
use std::rc::Rc;

use rispp::h264::si_library::build_library;
use rispp::prelude::*;
use rispp::rt::RotationStrategy;
use rispp::sim::h264_fabric;
use rispp_bench::print_table;

struct Run {
    first_hw_at: u64,
    first_hw_cycles: u64,
    total_cycles: u64,
    sw_executions: u64,
}

fn run(strategy: RotationStrategy, containers: usize) -> Run {
    let (lib, sis) = build_library();
    let counters = Rc::new(RefCell::new(CountersSink::new()));
    let mut mgr = RisppManager::builder(lib, h264_fabric(containers))
        .schedule_policy(strategy)
        .sink(SinkHandle::shared(counters.clone()))
        .build();
    mgr.forecast(0, ForecastValue::new(sis.satd_4x4, 1.0, 400_000.0, 400.0));
    let mut first_hw_at = 0;
    let mut first_hw_cycles = 0;
    let mut total = 0u64;
    let step = 2_000u64;
    for i in 0..400u64 {
        mgr.advance_to(i * step).expect("monotone");
        let rec = mgr.execute_si(0, sis.satd_4x4);
        total += rec.cycles;
        if rec.hardware && first_hw_at == 0 {
            first_hw_at = i * step;
            first_hw_cycles = rec.cycles;
        }
    }
    let sw_executions = counters.borrow().si(sis.satd_4x4).sw_executions;
    Run {
        first_hw_at,
        first_hw_cycles,
        total_cycles: total,
        sw_executions,
    }
}

fn main() {
    println!("== Ablation: rotation scheduling order (SATD_4x4, 400 executions) ==\n");
    let mut rows = Vec::new();
    for containers in [4usize, 6, 8] {
        for (name, strategy) in [
            ("upgrade-path", RotationStrategy::UpgradePath),
            ("target-only", RotationStrategy::TargetOnly),
        ] {
            let r = run(strategy, containers);
            rows.push(vec![
                format!("{containers}"),
                name.to_string(),
                format!("{}", r.first_hw_at),
                format!("{}", r.first_hw_cycles),
                format!("{}", r.sw_executions),
                format!("{}", r.total_cycles),
            ]);
        }
    }
    print_table(
        &[
            "ACs",
            "strategy",
            "first HW exec at [cycle]",
            "its latency",
            "SW executions",
            "total SI cycles",
        ],
        &rows,
    );
    println!(
        "\nupgrade-path staging (the paper's \"Rotation in Advance\") reaches the\n\
         first hardware execution as soon as the minimal Molecule is loaded; the\n\
         target-only order waits for whichever Atom kind happens to come last,\n\
         burning more 544-cycle software executions in the meantime."
    );
}
