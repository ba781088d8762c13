//! The perf-regression gate: diffs two BENCH sets written by
//! `bench_suite` and exits non-zero when any workload's median wall time
//! regressed past the threshold (or disappeared from the candidate set).
//!
//! ```text
//! bench_compare [--threshold F] [--soft] OLD NEW
//! ```
//!
//! `OLD` and `NEW` are each either a single `BENCH_*.json` file or a
//! directory holding the suite's `BENCH_<workload>.json` files (the repo
//! root holds the committed baseline); other files there, such as a
//! `fleet_bench` result, are ignored. `--threshold` is the relative
//! slowdown that fails the gate (default 0.20 = 20%). `--soft` still
//! prints the comparison but always exits zero — the CI smoke setting,
//! where shared runners make wall time advisory rather than binding.

use std::path::{Path, PathBuf};

use rispp_bench::harness::{bench_file_name, compare, suite_files_in, WorkloadResult, WORKLOADS};

fn load_set(path: &str) -> Vec<WorkloadResult> {
    let meta =
        std::fs::metadata(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let files = if meta.is_dir() {
        suite_files_in(Path::new(path))
    } else {
        vec![PathBuf::from(path)]
    };
    if files.is_empty() {
        let names: Vec<String> = WORKLOADS.iter().map(|w| bench_file_name(w)).collect();
        fail(&format!("none of {} in {path}", names.join(", ")));
    }
    files
        .iter()
        .map(|file| {
            let shown = file.display();
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|e| fail(&format!("cannot read {shown}: {e}")));
            WorkloadResult::from_json(&text).unwrap_or_else(|e| fail(&format!("{shown}: {e}")))
        })
        .collect()
}

fn main() {
    let mut threshold = 0.20f64;
    let mut soft = false;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--threshold needs a number"));
            }
            "--soft" => soft = true,
            _ => positional.push(arg),
        }
    }
    let [old_path, new_path] = positional.as_slice() else {
        fail("expected exactly two paths: OLD NEW");
    };

    let old = load_set(old_path);
    let new = load_set(new_path);
    let report = compare(&old, &new, threshold);
    println!(
        "baseline: {old_path} ({} workloads)  candidate: {new_path} ({} workloads)  threshold: {:.0}%\n",
        old.len(),
        new.len(),
        threshold * 100.0
    );
    print!("{}", report.render(threshold));
    if report.lines.iter().any(|l| l.mode_mismatch) {
        println!("\nwarning: quick-vs-full comparison — wall times are not commensurate.");
    }
    if report.has_regressions() {
        if soft {
            println!("\nregressions past the threshold (soft mode: exit 0).");
        } else {
            println!("\nregressions past the threshold.");
            std::process::exit(1);
        }
    } else {
        println!("\nno regressions past the threshold.");
    }
}

fn fail(problem: &str) -> ! {
    eprintln!("bench_compare: {problem}");
    eprintln!("usage: bench_compare [--threshold F] [--soft] OLD NEW");
    std::process::exit(2);
}
