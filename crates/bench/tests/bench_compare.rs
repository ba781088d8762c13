//! `bench_compare` run as a command: in directory mode it loads the
//! suite's `BENCH_<workload>.json` files and nothing else, so a
//! `fleet_bench` result written beside them does not break the gate.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rispp::prelude::{run_fleet, FleetConfig, Scenario, ScenarioFactory};
use rispp_bench::fleet::{fleet_file_name, FleetBenchResult};
use rispp_bench::harness::{bench_file_name, WORKLOADS};

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rispp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Writes what `fleet_bench --json-out DIR/BENCH_fleet_stress.json`
/// leaves in `dir`.
fn write_fleet_result(dir: &Path) {
    let scenario = Scenario::Stress {
        platforms: 1,
        steps: 20,
    };
    let fleet = run_fleet(&ScenarioFactory::new(scenario, 0), &FleetConfig::new(1));
    let result = FleetBenchResult::from_outcome(scenario.id(), "quick", 0, &fleet);
    std::fs::write(dir.join(fleet_file_name(scenario.id())), result.to_json())
        .expect("write fleet result");
}

fn bench_compare(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--soft")
        .arg(dir)
        .arg(dir)
        .output()
        .expect("bench_compare runs")
}

#[test]
fn directory_mode_skips_a_fleet_result() {
    let dir = scratch("bench-compare-suite");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for workload in WORKLOADS {
        let name = bench_file_name(workload);
        std::fs::copy(root.join(&name), dir.join(&name)).expect("copy committed baseline");
    }
    write_fleet_result(&dir);
    let out = bench_compare(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "bench_compare failed: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(3 workloads)"), "{stdout}");
}

#[test]
fn directory_mode_fails_without_a_suite_file() {
    let dir = scratch("bench-compare-fleet-only");
    write_fleet_result(&dir);
    let out = bench_compare(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("BENCH_fig06.json"), "{stderr}");
}
