//! Sharded fleet benchmark: runs N independent shards of one scenario
//! across OS threads via the `ShardSpec`/`ScenarioFactory` construction
//! API, prints the aggregate numbers and writes the fleet BENCH JSON.
//!
//! ```text
//! fleet_bench --shards N [--scenario fig6|stress|live_codec]
//!             [--threads T] [--seed S] [--full] [--faults HORIZON]
//!             [--json-out PATH] [--bin-out PATH] [--trace-out PATH]
//!             [--verify-shard K]
//! ```
//!
//! `--verify-shard K` re-runs shard K standalone from its derived seed
//! and checks the JSONL event export is byte-identical to the one the
//! fleet run produced — the shard-replay determinism guarantee, exit
//! code 1 on divergence.
//!
//! `--bin-out PATH` writes binary event exports — the input format
//! `rispp_serve` and `rispp_report` auto-detect. With a `{shard}`
//! placeholder (e.g. `out/shard-{shard}.bin`) every shard streams its
//! own log *during* the fleet run, ready for
//! `rispp_serve --glob 'out/shard-*.bin'`; without one, shard 0 is
//! replayed standalone and exported (the shards-write-one-file case
//! makes no sense for N > 1).
//!
//! `--trace-out PATH` replays shard 0 with timeline capture and writes
//! a Chrome-trace-event JSON file (open in Perfetto or
//! `chrome://tracing`) with per-container, per-task and counter tracks.

use rispp::prelude::{FleetConfig, Scenario, ScenarioFactory, SinkSpec};
use rispp::sim::run_fleet;
use rispp_bench::fleet::{fleet_file_name, FleetBenchResult};
use rispp_bench::print_table;

fn usage(msg: &str) -> ! {
    eprintln!("fleet_bench: {msg}");
    eprintln!(
        "usage: fleet_bench --shards N [--scenario fig6|stress|live_codec] \
         [--threads T] [--seed S] [--full] [--faults HORIZON] \
         [--json-out PATH] [--bin-out PATH] [--trace-out PATH] \
         [--verify-shard K]\n\
         --bin-out with a {{shard}} placeholder captures every shard's \
         log live during the fleet run"
    );
    std::process::exit(2);
}

struct Args {
    shards: u32,
    scenario: String,
    threads: usize,
    seed: u64,
    quick: bool,
    fault_horizon: Option<u64>,
    json_out: Option<String>,
    bin_out: Option<String>,
    trace_out: Option<String>,
    verify_shard: Option<u32>,
}

fn parse_args() -> Args {
    let mut args = Args {
        shards: 0,
        scenario: "stress".to_string(),
        threads: 0,
        seed: 2_026,
        quick: true,
        fault_horizon: None,
        json_out: None,
        bin_out: None,
        trace_out: None,
        verify_shard: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut num = |name: &str| -> u64 {
            iter.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{name} needs a non-negative integer")))
        };
        match arg.as_str() {
            "--shards" => args.shards = num("--shards") as u32,
            "--threads" => args.threads = num("--threads") as usize,
            "--seed" => args.seed = num("--seed"),
            "--faults" => args.fault_horizon = Some(num("--faults")),
            "--verify-shard" => args.verify_shard = Some(num("--verify-shard") as u32),
            "--full" => args.quick = false,
            "--quick" => args.quick = true,
            "--scenario" => {
                args.scenario = iter
                    .next()
                    .unwrap_or_else(|| usage("--scenario needs an id"));
            }
            "--json-out" => {
                args.json_out = Some(
                    iter.next()
                        .unwrap_or_else(|| usage("--json-out needs a path")),
                );
            }
            "--bin-out" => {
                args.bin_out = Some(
                    iter.next()
                        .unwrap_or_else(|| usage("--bin-out needs a path")),
                );
            }
            "--trace-out" => {
                args.trace_out = Some(
                    iter.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            _ => usage(&format!("unknown option {arg}")),
        }
    }
    if args.shards == 0 {
        usage("--shards N (N >= 1) is required");
    }
    args
}

fn main() {
    let args = parse_args();
    let scenario = Scenario::parse(&args.scenario, args.quick).unwrap_or_else(|e| usage(&e));
    // The determinism check compares JSONL exports, so the whole fleet
    // runs with JSONL capture when a verification shard was requested.
    let sink = if args.verify_shard.is_some() {
        SinkSpec::Jsonl
    } else {
        SinkSpec::Metrics
    };
    // A `{shard}` template streams every shard's binary log during the
    // fleet run itself; a plain path falls back to replaying shard 0
    // after the run (below).
    let bin_template = args
        .bin_out
        .as_ref()
        .filter(|path| path.contains("{shard}"))
        .cloned();
    let factory = ScenarioFactory::new(scenario, args.seed)
        .with_sink(sink)
        .with_fault_horizon(args.fault_horizon)
        .with_bin_template(bin_template.clone());
    let config = FleetConfig::new(args.shards).with_threads(args.threads);

    println!(
        "== fleet_bench: scenario={} shards={} threads={} seed={} mode={} ==\n",
        scenario.id(),
        args.shards,
        config.effective_threads(),
        args.seed,
        if args.quick { "quick" } else { "full" },
    );
    let outcome = run_fleet(&factory, &config);
    let mode = if args.quick { "quick" } else { "full" };
    let result = FleetBenchResult::from_outcome(scenario.id(), mode, args.seed, &outcome);

    let rows: Vec<Vec<String>> = result
        .per_shard
        .iter()
        .map(|s| {
            vec![
                s.shard.to_string(),
                format!("{:#018x}", s.seed),
                s.events.to_string(),
                s.sim_cycles.to_string(),
            ]
        })
        .collect();
    print_table(&["shard", "seed", "events", "sim_cycles"], &rows);

    println!(
        "\naggregate: {} events over {} sim-cycles in {:.3} ms on {} thread(s)",
        result.events,
        result.sim_cycles,
        result.wall_ns as f64 / 1e6,
        result.threads,
    );
    println!(
        "throughput: {:>12.0} events/s   {:>12.0} events/s/core",
        result.events_per_sec, result.events_per_sec_per_core,
    );
    println!(
        "rotations:  {:>12}             latency p50 {} / p99 {} cycles",
        result.rotations_completed, result.latency_p50, result.latency_p99,
    );

    if let Some(path) = &args.json_out {
        std::fs::write(path, result.to_json()).expect("write fleet BENCH file");
        println!("wrote {path}");
    } else {
        let path = fleet_file_name(scenario.id());
        std::fs::write(&path, result.to_json()).expect("write fleet BENCH file");
        println!("wrote {path}");
    }

    if let Some(template) = &bin_template {
        println!(
            "per-shard binary exports written to {} (shards 0..{})",
            template, args.shards
        );
    } else if let Some(path) = &args.bin_out {
        // Shard replay is deterministic, so replaying shard 0 with
        // binary capture exports the exact event stream the fleet ran.
        let out = factory.spec_for(0).with_sink(SinkSpec::Binary).run();
        let bytes = out.binary.expect("binary capture was requested");
        std::fs::write(path, &bytes).expect("write binary export");
        println!(
            "shard 0 binary export written to {path} ({} bytes, {} events)",
            bytes.len(),
            out.events
        );
    }

    if let Some(path) = &args.trace_out {
        // Replay shard 0 with timeline capture and render the Chrome
        // trace (per-container residency/rotation tracks, per-task SI
        // slices, occupancy and bus counters).
        let out = factory.spec_for(0).with_sink(SinkSpec::Timeline).run();
        let timeline = out.timeline.expect("timeline capture was requested");
        let config = rispp::obs::TraceConfig::infer(&timeline);
        let trace = rispp::obs::render_chrome_trace(&timeline, &config);
        std::fs::write(path, &trace).expect("write Chrome trace");
        println!(
            "shard 0 Chrome trace written to {path} ({} events; open in Perfetto)",
            timeline.len()
        );
    }

    if let Some(shard) = args.verify_shard {
        if shard >= args.shards {
            usage("--verify-shard must name a shard inside the fleet");
        }
        let fleet_jsonl = outcome.shards[shard as usize]
            .jsonl
            .as_deref()
            .expect("fleet ran with JSONL capture");
        let replay = factory.spec_for(shard).run();
        let replay_jsonl = replay.jsonl.as_deref().expect("replay captures JSONL");
        if fleet_jsonl == replay_jsonl {
            println!(
                "verify: shard {shard} replayed bit-exactly ({} JSONL bytes)",
                fleet_jsonl.len()
            );
        } else {
            eprintln!("verify: shard {shard} DIVERGED on standalone replay");
            std::process::exit(1);
        }
    }
}
