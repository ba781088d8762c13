//! Fig. 6 — The run-time architecture scenario: two tasks sharing six
//! Atom Containers, with forecasts, container re-allocation, rotations,
//! cross-task Atom sharing and the gradual SW→HW upgrade.
//!
//! The waveform and event log below are rendered from a *replayed* JSONL
//! export, not from the live run: every event is streamed through a
//! [`JsonlSink`], parsed back, and accumulated into a fresh timeline —
//! proving the figure is reproducible from the export alone.
//!
//! Optional flags: `--jsonl-out PATH` dumps the raw export,
//! `--bin-out PATH` dumps the same stream in the binary transport
//! (from a run of its own), `--report-out PATH` renders the
//! `rispp_report` markdown analysis of this run, and `--trace-out PATH`
//! writes a Chrome-trace-event JSON file of the same run — one track
//! per Atom Container plus per-task SI slices and counter tracks —
//! loadable in Perfetto or `chrome://tracing`. The events carry
//! simulated time only, so two runs write byte-identical files.

use rispp::h264::si_library::atom_set;
use rispp::obs::jsonl;
use rispp::prelude::*;
use rispp::sim::scenario::run_fig6;
use rispp::sim::waveform::render_waveform;
use rispp_bench::report::{analyze, render_markdown, render_trace, ReportConfig};

fn main() {
    let mut jsonl_out: Option<String> = None;
    let mut bin_out: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--jsonl-out" => jsonl_out = iter.next(),
            "--bin-out" => bin_out = iter.next(),
            "--report-out" => report_out = iter.next(),
            "--trace-out" => trace_out = iter.next(),
            _ => {
                eprintln!("fig06_scenario: unknown option {arg}");
                eprintln!(
                    "usage: fig06_scenario [--jsonl-out PATH] [--bin-out PATH] \
                     [--report-out PATH] [--trace-out PATH]"
                );
                std::process::exit(1);
            }
        }
    }

    println!("== Fig. 6: run-time scenario (Task A = video codec, Task B = SI0/SI1) ==\n");

    let report = run_fig6();
    println!("characteristic points of the timeline:");
    println!(
        "  T1 (more important SI1 forecasted)   cycle {:>9}",
        report.t1
    );
    println!(
        "  T2 (SI1 no longer needed)            cycle {:>9}",
        report.t2
    );
    println!(
        "  T4 (SATD switches SW -> HW)          cycle {:>9}",
        report.t4.map_or(-1, |t| t as i64)
    );
    println!(
        "  T5 (SATD upgrades to faster Molecule) cycle {:>8}",
        report.t5.map_or(-1, |t| t as i64)
    );
    println!(
        "  rotations completed                  {:>9}",
        report.rotations
    );

    // Re-run with a JSONL export, then rebuild the timeline purely from
    // the exported text. Every run emits the same events, so a run that
    // keeps its timeline is the live reference.
    let fig6 = ShardSpec::new(Scenario::Fig6, 0);
    let live = fig6.clone().with_sink(SinkSpec::Timeline).run();
    let export = fig6.clone().with_sink(SinkSpec::Jsonl).run();
    let end = export.sim_cycles;
    let text = export.jsonl.expect("JSONL captured");
    let mut replayed = TimelineSink::new();
    jsonl::replay(&text, &mut replayed).expect("export replays cleanly");
    assert_eq!(
        Some(replayed.timeline()),
        live.timeline.as_ref(),
        "replayed timeline must match the live one"
    );
    let timeline = replayed.into_timeline();
    println!(
        "\nJSONL export: {} events, {} bytes; replay matches the live timeline.",
        timeline.len(),
        text.len()
    );

    if let Some(path) = &jsonl_out {
        std::fs::write(path, &text).expect("write JSONL export");
        println!("JSONL export written to {path}");
    }
    if let Some(path) = &bin_out {
        let bytes = fig6.with_sink(SinkSpec::Binary).run().binary;
        let bytes = bytes.expect("binary captured");
        std::fs::write(path, &bytes).expect("write binary export");
        println!("binary export written to {path} ({} bytes)", bytes.len());
    }
    if report_out.is_some() || trace_out.is_some() {
        let config = ReportConfig::h264(6);
        let analysis = analyze(&text, &config).expect("own export analyzes cleanly");
        if let Some(path) = &report_out {
            std::fs::write(path, render_markdown(&analysis, &config)).expect("write report");
            println!("markdown report written to {path}");
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, render_trace(&analysis, &config)).expect("write trace");
            println!("Chrome trace written to {path} (open in Perfetto or chrome://tracing)");
        }
    }

    // Container-occupancy waveform: the figure's own rendering. Upper
    // case = loaded Atom (Q/P/T/S), lower case = rotation in flight,
    // '.' = empty.
    println!("\ncontainer occupancy over time (Fig. 6 rows; {end} cycles across):");
    print!("{}", render_waveform(&timeline, &atom_set(), 6, end, 96));

    println!("\nevent log (truncated, from the replayed export):");
    for line in timeline.to_string().lines().take(40) {
        println!("  {line}");
    }
    println!("  ...");

    println!("\nTask A SATD latency over time (SW=544, molecules 24/22/20):");
    let mut prev = None;
    for &(at, cycles, hw) in &report.satd_execs {
        if prev != Some((cycles, hw)) {
            println!(
                "  cycle {at:>9}: {cycles:>4} cycles [{}]",
                if hw { "HW" } else { "SW" }
            );
            prev = Some((cycles, hw));
        }
    }
}
