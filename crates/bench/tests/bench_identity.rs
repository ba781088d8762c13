//! Decision identity against the committed baselines: each quick BENCH
//! workload, run once, must reproduce the `events`, `sim_cycles` and
//! metrics summary of its committed `BENCH_<workload>.json`. Wall times
//! are not compared, and neither are the legacy keys (`dropped_events`,
//! `selection_cache_*`) that `WorkloadResult::from_json` does not read.
//!
//! A change that moves one decision fails here; a deliberate one
//! re-blesses the files with `bench_suite --quick --out-dir .` in the
//! same change.

use std::path::Path;

use rispp_bench::harness::{
    bench_file_name, run_workload, HarnessConfig, WorkloadResult, WORKLOADS,
};

#[test]
fn quick_workloads_reproduce_the_committed_baselines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let once = HarnessConfig {
        quick: true,
        reps: 1,
        warmup: 0,
    };
    for workload in WORKLOADS {
        let path = root.join(bench_file_name(workload));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let committed = WorkloadResult::from_json(&text)
            .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
        assert_eq!(committed.mode, "quick", "{workload}");
        let fresh = run_workload(workload, &once);
        assert_eq!(fresh.events, committed.events, "{workload}: events");
        assert_eq!(
            fresh.sim_cycles, committed.sim_cycles,
            "{workload}: sim_cycles"
        );
        assert_eq!(fresh.metrics, committed.metrics, "{workload}: metrics");
    }
}
