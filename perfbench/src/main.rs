//! The RISPP benchmark: three single-threaded, closed-loop workloads
//! (`codec`, `stress`, `ingest`), their end-to-end metrics with fidelity
//! checks, and a separate traced run that times each layer. See
//! `README.md` beside this crate for what each metric means and which
//! layer moves it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload codec|stress|ingest|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics without
//! tracing, the per-layer metrics with it. `--bless` rewrites the
//! digests pinned for the default seed.

mod fleet;
mod ingest;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rispp::obs::{MetricsSink, MetricsSummary};
use rispp::sim::{Scenario, ShardSpec, SinkSpec};

use fleet::{
    fig12_err_pct, fleet_failures, pinned_mismatch, time_fleet, ShardFacts, SimWorkload,
    DEFAULT_SEED, FLEET_SHARDS,
};
use ingest::{capture, decode_and_fold, fold_log, run_session, CapturedLog, LogDir};
use stats::{peak_rss_mb, quantile, unit_times, SetupClock};
use trace::{trace_shard, ShardTrace, Span, Tracer};

/// Set-ups per run, spaced through it; `setup_s` is their median. A
/// simulation fleet's set-up takes microseconds, a log capture a fifth
/// of a second.
const SIM_SETUP_REPEATS: usize = 101;
const INGEST_SETUP_REPEATS: usize = 9;

/// Shards per traced pass: two of each container count on `codec`.
const TRACED_CODEC_SHARDS: u32 = 6;
const TRACED_STRESS_SHARDS: u32 = 12;

/// The end-to-end metrics, printed without tracing, in order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("si_per_s", "SI/s"),
    ("shard_ms_p50", "ms"),
    ("shard_ms_p90", "ms"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
    ("hw_share", "fraction"),
    ("sim_mcycles", "Mcycles"),
];

/// The per-layer metrics, printed with tracing, in order. A layer a
/// workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("h264.encode_mb.calls", "count"),
    ("h264.encode_mb.ms", "ms"),
    ("h264.fig12_err_pct", "%"),
    ("rt.execute_si.calls", "count"),
    ("rt.execute_si.ms", "ms"),
    ("rt.advance_to.calls", "count"),
    ("rt.advance_to.ms", "ms"),
    ("rt.forecast.calls", "count"),
    ("rt.forecast.ms", "ms"),
    ("rt.retract_forecast.calls", "count"),
    ("rt.retract_forecast.ms", "ms"),
    ("rt.forecast_block.calls", "count"),
    ("rt.forecast_block.ms", "ms"),
    ("rt.reselects", "count"),
    ("rt.selection_cache.hits", "count"),
    ("rt.selection_cache.misses", "count"),
    ("rt.selection_cache.hit_ratio", "fraction"),
    ("rt.sw_fallbacks", "count"),
    ("fabric.rotations_requested", "count"),
    ("fabric.rotations_completed", "count"),
    ("fabric.rotation_yield", "fraction"),
    ("fabric.rotations_failed", "count"),
    ("fabric.rotation_bytes", "B"),
    ("fabric.bus_busy_fraction", "fraction"),
    ("fabric.occupancy", "fraction"),
    ("obs.events", "count"),
    ("obs.emit.ms", "ms"),
    ("obs.bin_encode.ms", "ms"),
    ("obs.bin_bytes_per_event", "B/event"),
    ("obs.bin_decode.ms", "ms"),
    ("obs.fold.ms", "ms"),
    ("obs.replay_mismatch_fields", "count"),
    ("serve.poll.calls", "count"),
    ("serve.poll.ms", "ms"),
    ("serve.render_metrics.calls", "count"),
    ("serve.render_metrics.ms", "ms"),
    ("sim.shard_setup.ms", "ms"),
    ("sim.traced_wall.ms", "ms"),
    ("sim.unattributed.ms", "ms"),
    ("sim.trace_overhead.pct", "%"),
];

const USAGE: &str = "usage: rispp-perfbench --workload codec|stress|ingest|all \
                     [--seed N] [--seconds S] [--trace 0|1] | --bless";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            bless: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--bless" {
                parsed.bless = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                        return Err(bad(&"must be a positive number"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !parsed.bless
            && !["codec", "stress", "ingest", "all"].contains(&parsed.workload.as_str())
        {
            return Err(format!("unknown workload {:?}", parsed.workload));
        }
        Ok(parsed)
    }
}

/// One workload's result: the contract metrics plus lines for people.
struct Report {
    workload: &'static str,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn new(workload: &'static str) -> Self {
        Report {
            workload,
            values: BTreeMap::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// A per-layer report: every layer the workload does not reach
    /// reads 0.
    fn traced(workload: &'static str) -> Self {
        let mut report = Report::new(workload);
        for (name, _) in PER_LAYER {
            report.set(name, 0.0);
        }
        report
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts each unit's failures and keeps their reasons as notes.
    fn count_failures(&mut self, label: &str, failures: &[Vec<String>]) {
        self.attempted += failures.len() as u64;
        for (k, reasons) in failures.iter().enumerate() {
            if !reasons.is_empty() {
                self.failed += 1;
                self.notes
                    .push(format!("FAILED {label} {k}: {}", reasons.join("; ")));
            }
        }
    }

    /// Prints the table, then the JSON line.
    fn print(&self, metrics: &[(&'static str, &'static str)]) {
        println!("== {} ==", self.workload);
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, unit) in metrics {
            println!("  {name:<30} {:>18} {unit}", fmt_value(self.values[name]));
        }
        println!(
            "  {:<30} {:>18} fraction ({} of {} failed a fidelity check)",
            "failed_share",
            fmt_value(share),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("  {note}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit)| {
                let value = self.values[name];
                assert!(value.is_finite(), "{name} is not a finite number");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() < 0.01 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The MetricsSummary fields (by Prometheus series) on which `a` and
/// `b` differ.
fn differing_fields(a: &MetricsSummary, b: &MetricsSummary) -> Vec<&'static str> {
    let (sa, sb) = (a.prometheus_series(), b.prometheus_series());
    let value = |s: &[(&'static str, &str, &str, f64)], name: &str| {
        s.iter().find(|e| e.0 == name).map(|e| e.3.to_bits())
    };
    let mut names: Vec<&'static str> = sa.iter().chain(&sb).map(|e| e.0).collect();
    names.sort_unstable();
    names.dedup();
    names.retain(|n| value(&sa, n) != value(&sb, n));
    names
}

/// A metrics sink configured like the live one `ShardSpec` attaches.
fn live_like_sink(spec: &ShardSpec) -> MetricsSink {
    match spec.scenario {
        Scenario::LiveCodec { containers, .. } => MetricsSink::new().with_containers(containers),
        _ => MetricsSink::new(),
    }
}

/// Fields where a shard's live summary differs from a replay of its
/// own binary log.
fn replay_mismatches(spec: &ShardSpec) -> Vec<&'static str> {
    let out = spec.clone().with_sink(SinkSpec::Binary).run();
    let bytes = out.binary.unwrap_or_default();
    match fold_log(&bytes, live_like_sink(spec)) {
        Ok(replayed) => differing_fields(&out.summary, &replayed),
        Err(_) => vec!["<log does not decode>"],
    }
}

fn mismatch_note(fields: &BTreeSet<&'static str>) -> String {
    let names: Vec<&str> = fields.iter().copied().collect();
    format!(
        "live summary vs replay of its log differ on: {}",
        names.join(", ")
    )
}

fn sim_e2e(workload: SimWorkload, seed: u64, seconds: f64) -> Report {
    let setup = || (workload.fleet(seed, FLEET_SHARDS), workload.pinned());
    let (mut clock, ((specs, skipped), pinned)) =
        SetupClock::first(seconds, SIM_SETUP_REPEATS, setup);
    let timing = time_fleet(&specs, seconds, || clock.tick(setup));
    let rss_mb = peak_rss_mb();
    let mut report = Report::new(workload.name());
    let failures = fleet_failures(seed, &specs, &timing.facts, &timing.unstable, &pinned);
    report.count_failures("shard", &failures);

    let shard_ms = unit_times(&timing.shard_ms);
    let busy_s = shard_ms.iter().sum::<f64>() / 1e3;
    let sum = |f: fn(&ShardFacts) -> u64| timing.facts.iter().map(f).sum::<u64>() as f64;
    let executions = sum(|f| f.executions);
    let (setup_s, setups) = clock.median(&timing.shard_ms);
    report.set("setup_s", setup_s);
    report.set("si_per_s", executions / busy_s);
    report.set("shard_ms_p50", quantile(&shard_ms, 0.5));
    report.set("shard_ms_p90", quantile(&shard_ms, 0.9));
    report.set(
        "records_per_s",
        timing.events.iter().sum::<u64>() as f64 / busy_s,
    );
    report.set("peak_rss_mb", rss_mb);
    report.set("hw_share", sum(|f| f.hw_executions) / executions);
    report.set("sim_mcycles", sum(|f| f.sim_cycles) / 1e6);

    let runs: usize = timing.shard_ms.iter().map(Vec::len).sum();
    report.notes.push(format!(
        "{} shards, {runs} timed shard runs, {setups} set-ups, seed {seed}",
        specs.len(),
    ));
    if skipped > 0 {
        report.notes.push(format!(
            "{skipped} candidate shards skipped: a platform has a hardware Molecule \
             slower than software (README, Known defects)"
        ));
    }
    if workload == SimWorkload::Codec {
        let errors = fig12_err_pct(&specs, &timing.facts);
        let worst = errors.iter().map(|e| e.1).fold(0.0, f64::max);
        let each: Vec<String> = errors
            .iter()
            .map(|(c, e)| format!("{c} containers {e:.2}"))
            .collect();
        report.notes.push(format!(
            "{:<30} {:>18} % ({})",
            "fig12_err_pct",
            fmt_value(worst),
            each.join(", ")
        ));
    }
    report
}

fn ingest_e2e(seed: u64, seconds: f64) -> std::io::Result<Report> {
    let (mut clock, logs) = SetupClock::first(seconds, INGEST_SETUP_REPEATS, || capture(seed));
    let dir = LogDir::create()?;
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); logs.len()];
    let (mut poll_s, mut render_s) = (Vec::new(), Vec::new());
    let mut sessions = 0usize;
    let mut first = None;
    let start = Instant::now();
    while sessions == 0 || start.elapsed().as_secs_f64() < seconds {
        clock.tick(|| {
            for (i, again) in capture(seed).iter().enumerate() {
                if again.bytes != logs[i].bytes {
                    note(&mut failures[i], "captures of one seed differ".to_string());
                }
            }
        });
        let session = run_session(&dir, &logs, true)?;
        add_up(&mut poll_s, &session.polls);
        add_up(&mut render_s, &session.renders);
        for (i, log) in logs.iter().enumerate() {
            session
                .failures(i, log)
                .into_iter()
                .for_each(|reason| note(&mut failures[i], reason));
        }
        sessions += 1;
        first.get_or_insert(session);
    }
    let rss_mb = peak_rss_mb();
    let first = first.expect("at least one session");
    for (i, log) in logs.iter().enumerate() {
        if pinned_mismatch(
            seed,
            &log.workload.pinned(),
            log.shard as usize,
            log.facts.digest(),
        ) {
            failures[i].push("captured shard misses its pinned digest".to_string());
        }
    }
    let mut report = Report::new("ingest");
    report.count_failures("log", &failures);

    let records = logs.iter().map(|l| l.records).sum::<u64>() as f64;
    let poll_ms: Vec<f64> = unit_times(&poll_s).iter().map(|s| s * 1e3).collect();
    let busy_s = (poll_ms.iter().sum::<f64>() / 1e3) + unit_times(&render_s).iter().sum::<f64>();
    let (setup_s, setups) = clock.median(&poll_s);
    report.set("setup_s", setup_s);
    report.set("si_per_s", first.aggregate.executions_total as f64 / busy_s);
    report.set("shard_ms_p50", quantile(&poll_ms, 0.5));
    report.set("shard_ms_p90", quantile(&poll_ms, 0.9));
    report.set("records_per_s", records / busy_s);
    report.set("peak_rss_mb", rss_mb);
    report.set("hw_share", first.aggregate.hw_fraction);
    report.set(
        "sim_mcycles",
        first
            .summaries
            .iter()
            .map(|s| s.elapsed_cycles)
            .sum::<u64>() as f64
            / 1e6,
    );
    report.notes.push(format!(
        "{} logs ({} records, {} bytes), {} polls per session, {sessions} sessions, \
         {setups} set-ups, seed {seed}",
        logs.len(),
        records,
        logs.iter().map(|l| l.bytes.len()).sum::<usize>(),
        poll_s.len(),
    ));
    Ok(report)
}

/// Adds `reason` to a unit's failures unless it is already there.
fn note(failures: &mut Vec<String>, reason: String) {
    if !failures.contains(&reason) {
        failures.push(reason);
    }
}

/// Appends each call's time, in seconds, to the samples of its position.
fn add_up(samples: &mut Vec<Vec<f64>>, times: &[std::time::Duration]) {
    samples.resize(times.len().max(samples.len()), Vec::new());
    for (position, t) in samples.iter_mut().zip(times) {
        position.push(t.as_secs_f64());
    }
}

/// Sets the per-layer metrics every workload shares: span counts and
/// self times per pass, and the accounting against the traced wall.
fn set_span_metrics(
    report: &mut Report,
    tracer: &Tracer,
    passes: f64,
    traced_ms: f64,
    untraced_ms: f64,
) {
    let ms = |span| tracer.ms(span) / passes;
    let calls = |span| tracer.calls(span) as f64 / passes;
    let poll_self = ms(Span::Poll) - ms(Span::BinDecode) - ms(Span::Fold);
    let self_times = [
        ("sim.shard_setup.ms", ms(Span::ShardSetup)),
        ("h264.encode_mb.ms", ms(Span::EncodeMb)),
        ("rt.execute_si.ms", ms(Span::ExecuteSi)),
        ("rt.advance_to.ms", ms(Span::AdvanceTo)),
        ("rt.forecast.ms", ms(Span::Forecast)),
        ("rt.retract_forecast.ms", ms(Span::RetractForecast)),
        ("rt.forecast_block.ms", ms(Span::ForecastBlock)),
        ("obs.emit.ms", ms(Span::Emit)),
        ("obs.bin_encode.ms", ms(Span::BinEncode)),
        ("obs.bin_decode.ms", ms(Span::BinDecode)),
        ("obs.fold.ms", ms(Span::Fold)),
        ("serve.poll.ms", poll_self),
        ("serve.render_metrics.ms", ms(Span::RenderMetrics)),
    ];
    let wall = traced_ms / passes;
    let attributed: f64 = self_times.iter().map(|s| s.1).sum();
    for (name, value) in self_times {
        report.set(name, value);
    }
    for (name, span) in [
        ("h264.encode_mb.calls", Span::EncodeMb),
        ("rt.execute_si.calls", Span::ExecuteSi),
        ("rt.advance_to.calls", Span::AdvanceTo),
        ("rt.forecast.calls", Span::Forecast),
        ("rt.retract_forecast.calls", Span::RetractForecast),
        ("rt.forecast_block.calls", Span::ForecastBlock),
        ("serve.poll.calls", Span::Poll),
        ("serve.render_metrics.calls", Span::RenderMetrics),
    ] {
        report.set(name, calls(span));
    }
    report.set("sim.traced_wall.ms", wall);
    report.set("sim.unattributed.ms", wall - attributed);
    report.set(
        "sim.trace_overhead.pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
    );
    report.notes.push(format!(
        "per pass of {passes} passes: self times {attributed:.3} ms + unattributed {:.3} ms \
         = traced wall {wall:.3} ms; untraced wall {:.3} ms",
        wall - attributed,
        untraced_ms / passes
    ));
}

fn sim_traced(workload: SimWorkload, seed: u64, seconds: f64) -> Report {
    let shards = match workload {
        SimWorkload::Codec => TRACED_CODEC_SHARDS,
        SimWorkload::Stress => TRACED_STRESS_SHARDS,
    };
    let (specs, _) = workload.fleet(seed, shards);
    let pinned = workload.pinned();
    let mut tracer = Tracer::new();
    let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
    let mut first: Vec<(ShardFacts, ShardTrace)> = Vec::new();
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); specs.len()];
    let mut passes = 0u32;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for (k, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let out = std::hint::black_box(spec.run());
            untraced_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let traced = trace_shard(spec, &mut tracer);
            traced_ms += t.elapsed().as_secs_f64() * 1e3;
            let facts = ShardFacts::of(&out);
            let same =
                (traced.facts, traced.events, traced.summary) == (facts, out.events, out.summary);
            if !same {
                note(
                    &mut failures[k],
                    "traced loop diverged from ShardSpec::run".to_string(),
                );
            }
            if passes == 0 {
                first.push((facts, traced));
            } else if first[k].0 != facts {
                note(&mut failures[k], "repetitions disagree".to_string());
            }
        }
        passes += 1;
    }
    let mut report = Report::traced(workload.name());
    let mut mismatched = BTreeSet::new();
    for (k, spec) in specs.iter().enumerate() {
        if pinned_mismatch(seed, &pinned, k, first[k].0.digest()) {
            failures[k].push("digest misses its pinned value".to_string());
        }
        mismatched.extend(replay_mismatches(spec));
    }
    report.count_failures("shard", &failures);
    set_span_metrics(
        &mut report,
        &tracer,
        f64::from(passes),
        traced_ms,
        untraced_ms,
    );

    let traces: Vec<&ShardTrace> = first.iter().map(|f| &f.1).collect();
    let sum = |f: fn(&ShardTrace) -> u64| traces.iter().map(|t| f(t)).sum::<u64>() as f64;
    let hits = sum(|t| t.cache_hits);
    let lookups = hits + sum(|t| t.cache_misses);
    let requested = sum(|t| t.facts.rotations_requested);
    let completed = sum(|t| t.facts.rotations_completed);
    let events = sum(|t| t.events);
    let merged = traces
        .iter()
        .fold(MetricsSummary::default(), |a, t| a.merged(&t.summary));
    report.set("rt.reselects", sum(|t| t.reselects));
    report.set("rt.selection_cache.hits", hits);
    report.set("rt.selection_cache.misses", lookups - hits);
    report.set("rt.selection_cache.hit_ratio", ratio(hits, lookups));
    report.set(
        "rt.sw_fallbacks",
        sum(|t| t.facts.executions - t.facts.hw_executions),
    );
    report.set("fabric.rotations_requested", requested);
    report.set("fabric.rotations_completed", completed);
    report.set("fabric.rotation_yield", ratio(completed, requested));
    report.set("fabric.rotations_failed", sum(|t| t.rotations_failed));
    report.set("fabric.rotation_bytes", sum(|t| t.rotation_bytes));
    report.set("fabric.bus_busy_fraction", merged.bus_busy_fraction);
    report.set("fabric.occupancy", merged.fabric_occupancy);
    report.set("obs.events", events);
    report.set(
        "obs.bin_bytes_per_event",
        ratio(sum(|t| t.bin_bytes), events),
    );
    report.set("obs.replay_mismatch_fields", mismatched.len() as f64);
    report.notes.push(mismatch_note(&mismatched));
    let facts: Vec<ShardFacts> = first.iter().map(|f| f.0).collect();
    let fig12 = if workload == SimWorkload::Codec {
        fig12_err_pct(&specs, &facts)
            .iter()
            .map(|e| e.1)
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    report.set("h264.fig12_err_pct", fig12);
    report.notes.push(format!(
        "{} shards per pass, seed {seed}; .calls and simulated values are per pass",
        specs.len()
    ));
    report
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn ingest_traced(seed: u64, seconds: f64) -> std::io::Result<Report> {
    let logs: Vec<CapturedLog> = capture(seed);
    let dir = LogDir::create()?;
    let mut tracer = Tracer::new();
    let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); logs.len()];
    let mut passes = 0u32;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        untraced_ms += run_session(&dir, &logs, false)?.wall.as_secs_f64() * 1e3;
        let session = run_session(&dir, &logs, true)?;
        traced_ms += session.wall.as_secs_f64() * 1e3;
        tracer.add(Span::Poll, session.poll(), session.polls.len() as u64);
        tracer.add(
            Span::RenderMetrics,
            session.render(),
            session.renders.len() as u64,
        );
        let (decode, fold) = decode_and_fold(&logs);
        let records: u64 = logs.iter().map(|l| l.records).sum();
        tracer.add(Span::BinDecode, decode, records);
        tracer.add(Span::Fold, fold, records);
        for (i, log) in logs.iter().enumerate() {
            session
                .failures(i, log)
                .into_iter()
                .for_each(|reason| note(&mut failures[i], reason));
        }
        passes += 1;
    }
    let mut mismatched = BTreeSet::new();
    for (i, log) in logs.iter().enumerate() {
        match fold_log(&log.bytes, live_like_sink(&log.spec)) {
            Ok(replayed) => mismatched.extend(differing_fields(&log.live, &replayed)),
            Err(e) => failures[i].push(format!("capture does not decode: {e}")),
        }
        if pinned_mismatch(
            seed,
            &log.workload.pinned(),
            log.shard as usize,
            log.facts.digest(),
        ) {
            failures[i].push("captured shard misses its pinned digest".to_string());
        }
    }
    let mut report = Report::traced("ingest");
    report.count_failures("log", &failures);
    set_span_metrics(
        &mut report,
        &tracer,
        f64::from(passes),
        traced_ms,
        untraced_ms,
    );
    let records = logs.iter().map(|l| l.records).sum::<u64>() as f64;
    let bytes = logs.iter().map(|l| l.bytes.len()).sum::<usize>() as f64;
    report.set("obs.events", records);
    report.set("obs.bin_bytes_per_event", bytes / records);
    report.set("obs.replay_mismatch_fields", mismatched.len() as f64);
    report.notes.push(mismatch_note(&mismatched));
    report.notes.push(format!(
        "{} logs per session, seed {seed}; one pass = one traced session",
        logs.len()
    ));
    Ok(report)
}

/// Rewrites the pinned digests of the default seed's fleets.
fn bless() -> std::io::Result<()> {
    for workload in [SimWorkload::Codec, SimWorkload::Stress] {
        let mut text = format!(
            "# {} shard digests for seed {DEFAULT_SEED}: shard, FNV-1a of its decision facts\n",
            workload.name()
        );
        for (k, spec) in workload
            .fleet(DEFAULT_SEED, FLEET_SHARDS)
            .0
            .iter()
            .enumerate()
        {
            let facts = ShardFacts::of(&spec.run());
            text.push_str(&format!("{k} {:016x}\n", facts.digest()));
        }
        let path = format!(
            "{}/expected/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            workload.name()
        );
        std::fs::write(&path, text)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn run(workload: &str, args: &Args) -> std::io::Result<Report> {
    let (seed, seconds) = (args.seed, args.seconds);
    let sim = match workload {
        "codec" => Some(SimWorkload::Codec),
        "stress" => Some(SimWorkload::Stress),
        _ => None,
    };
    Ok(match (sim, args.trace) {
        (Some(w), false) => sim_e2e(w, seed, seconds),
        (Some(w), true) => sim_traced(w, seed, seconds),
        (None, false) => ingest_e2e(seed, seconds)?,
        (None, true) => ingest_traced(seed, seconds)?,
    })
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.bless {
        if let Err(e) = bless() {
            eprintln!("bless failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        vec!["codec", "stress", "ingest"]
    } else {
        vec![args.workload.as_str()]
    };
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for workload in workloads {
        match run(workload, &args) {
            Ok(report) => report.print(metrics),
            Err(e) => {
                eprintln!("{workload}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests;
