//! Golden-file regression test for the offline report renderer: the
//! committed JSONL fixture (a faulted Fig. 6 run, seed 0 of the chaos
//! soak) must render to byte-identical markdown.
//!
//! The JSONL fixture is committed once and must **never be regenerated**:
//! it was exported while the manager still timed re-selections on the
//! host, so its `reselect` records carry nonzero `duration_ns` values in
//! what is now a retired slot, and keeping it unchanged keeps such logs
//! covered as decoder input. Only the *markdown* is re-blessed, after a
//! deliberate renderer or analyzer change:
//!
//! ```text
//! RISPP_BLESS=1 cargo test -p rispp-bench --test golden
//! ```

use rispp_bench::report::{analyze, render_markdown, ReportConfig};

const FIXTURE: &str = include_str!("golden/fig6_faulted.jsonl");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6_faulted.md");

#[test]
fn report_markdown_matches_golden() {
    let probe = analyze(FIXTURE, &ReportConfig::h264(0)).expect("fixture analyzes");
    let config = ReportConfig::infer(&probe.timeline);
    let analysis = analyze(FIXTURE, &config).expect("fixture analyzes");
    let rendered = render_markdown(&analysis, &config);

    if std::env::var_os("RISPP_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("bless golden markdown");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden markdown missing — create it with RISPP_BLESS=1");
    assert_eq!(
        rendered, golden,
        "rendered report drifted from {GOLDEN_PATH}; if the change is \
         intentional, re-bless with RISPP_BLESS=1"
    );
}

#[test]
fn fixture_exercises_the_fault_path() {
    // The fixture must keep covering the fault-event vocabulary; a
    // "clean" fixture would silently stop regression-testing how the
    // report presents failures and stalls.
    assert!(FIXTURE.contains("\"ev\":\"rotation_failed\""));
    assert!(FIXTURE.contains("\"ev\":\"port_stalled\""));
}
