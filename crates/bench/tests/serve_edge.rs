//! Edge-case and acceptance tests for the fleet serve layer: HTTP
//! robustness (partial and garbage request lines, concurrent scrapes
//! while the tail thread is folding), per-shard gauge fidelity against
//! offline replays (also when only some logs carry a series),
//! live-vs-replay window determinism, logs whose container indices are
//! past the codecs' cap, and the `--check` alert gate.

use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rispp::core::atom::AtomKind;
use rispp::core::si::SiId;
use rispp::obs::window::{WindowConfig, WindowSink};
use rispp::obs::{bin, BinarySink, Event, EventSink, MetricsSink, MAX_CONTAINERS};
use rispp::prelude::{Scenario, ScenarioFactory, SinkSpec};
use rispp_bench::serve::{
    poll_fleet, run_check, serve, FleetState, Follower, LiveState, ServeOptions,
};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rispp_serve_edge_{}_{tag}_{n}", std::process::id()))
}

/// Deterministic per-shard binary logs from the stress scenario — the
/// same construction `fleet_bench --bin-out 'shard-{shard}.bin'` uses.
fn stress_logs(shards: u32, seed: u64) -> Vec<Vec<u8>> {
    let scenario = Scenario::parse("stress", true).expect("stress parses");
    let factory = ScenarioFactory::new(scenario, seed).with_sink(SinkSpec::Binary);
    (0..shards)
        .map(|k| {
            factory
                .spec_for(k)
                .run()
                .binary
                .expect("binary capture was requested")
        })
        .collect()
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    BufReader::new(conn).read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("has header block");
    (head.to_string(), body.to_string())
}

#[test]
fn partial_request_lines_assemble_across_tcp_segments() {
    let state = Arc::new(Mutex::new(FleetState::new(
        vec![scratch("partial")],
        0,
        WindowConfig::default(),
        None,
    )));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(&listener, &state, Some(1)))
    };

    // The request line arrives in three separate writes with pauses —
    // three TCP segments the byte-wise reader must reassemble.
    let mut conn = TcpStream::connect(addr).unwrap();
    for chunk in ["GET /sta", "tus HTT", "P/1.1\r\nHost: x\r\n\r\n"] {
        conn.write_all(chunk.as_bytes()).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut response = String::new();
    BufReader::new(conn).read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"records\":0"));
    server.join().unwrap().unwrap();
}

#[test]
fn garbage_request_lines_get_400_not_a_hang() {
    let state = Arc::new(Mutex::new(FleetState::new(
        vec![scratch("garbage")],
        0,
        WindowConfig::default(),
        None,
    )));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(&listener, &state, Some(2)))
    };
    let send_raw = |raw: &[u8]| {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw).unwrap();
        // Half-close so the server sees EOF even when the request has
        // no terminating newline.
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        let _ = BufReader::new(conn).read_to_string(&mut response);
        response
    };
    // Not UTF-8.
    assert!(send_raw(b"GET /\xff\xfe HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 400"));
    // A request line with no newline at all: the peer closes, the
    // server answers with what arrived instead of hanging.
    assert!(send_raw(b"GET / HTTP/1.1").starts_with("HTTP/1.1 200"));
    server.join().unwrap().unwrap();
}

#[test]
fn per_shard_gauges_equal_an_offline_replay_of_each_shards_log() {
    let logs = stress_logs(3, 41);
    let paths: Vec<PathBuf> = logs
        .iter()
        .enumerate()
        .map(|(k, bytes)| {
            let path = scratch(&format!("gauge{k}"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let state = Mutex::new(FleetState::new(
        paths.clone(),
        0,
        WindowConfig::default(),
        None,
    ));
    let mut followers: Vec<Follower> = paths.iter().map(Follower::new).collect();
    poll_fleet(&mut followers, &state);
    let exposition = state.lock().unwrap().render_metrics();

    let mut aggregate_executions = 0.0;
    for (k, bytes) in logs.iter().enumerate() {
        // Offline truth for this shard: a fresh replay of its log.
        let mut offline = MetricsSink::new();
        bin::replay(bytes, &mut offline).unwrap();
        offline.finish();
        for (name, _, _, value) in offline.summary().prometheus_series() {
            let line = format!("{name}{{shard=\"{k}\"}} {value}");
            assert!(exposition.contains(&line), "missing per-shard line: {line}");
            if name == "rispp_executions_total" {
                aggregate_executions += value;
            }
        }
    }
    // The unlabeled aggregate counter is the sum over shards.
    assert!(exposition.contains(&format!("rispp_executions_total {aggregate_executions}")));
    // Family contiguity: HELP appears exactly once per family even with
    // one aggregate + three labeled samples.
    assert_eq!(
        exposition.matches("# HELP rispp_executions_total ").count(),
        1
    );
    assert!(exposition.contains("rispp_shards 3"));
    for path in &paths {
        std::fs::remove_file(path).unwrap();
    }
}

/// A binary log of `events`, each at its index in cycles.
fn binary_log(events: &[Event]) -> Vec<u8> {
    let mut sink = BinarySink::new(Vec::new());
    for (at, event) in (0..).zip(events) {
        sink.emit(at, event);
    }
    sink.into_inner()
}

#[test]
fn a_fleet_where_only_one_log_monitors_fc_outcomes_renders_each_shards_own_series() {
    // A stress log has no FC outcomes, so no `rispp_fc_hit_rate`; the
    // second log has one, so the aggregate lists one series more than
    // the first shard does.
    let fc_log = binary_log(&[
        Event::SiExecuted {
            task: 0,
            si: SiId(1),
            hw: false,
            cycles: 40,
            molecule: None,
        },
        Event::FcOutcome {
            task: 0,
            si: SiId(1),
            reached: true,
        },
    ]);
    let logs = [stress_logs(1, 45).remove(0), fc_log];
    let paths: Vec<PathBuf> = logs
        .iter()
        .enumerate()
        .map(|(k, bytes)| {
            let path = scratch(&format!("fc{k}"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let state = Mutex::new(FleetState::new(
        paths.clone(),
        0,
        WindowConfig::default(),
        None,
    ));
    let mut followers: Vec<Follower> = paths.iter().map(Follower::new).collect();
    poll_fleet(&mut followers, &state);
    let exposition = state.lock().unwrap().render_metrics();

    for (k, bytes) in logs.iter().enumerate() {
        let mut offline = MetricsSink::new();
        bin::replay(bytes, &mut offline).unwrap();
        offline.finish();
        for (name, _, _, value) in offline.summary().prometheus_series() {
            let line = format!("{name}{{shard=\"{k}\"}} {value}\n");
            assert!(exposition.contains(&line), "missing per-shard line: {line}");
        }
    }
    assert!(exposition.contains("\nrispp_fc_hit_rate 1\n"));
    assert!(exposition.contains("\nrispp_fc_hit_rate{shard=\"1\"} 1\n"));
    assert!(!exposition.contains("rispp_fc_hit_rate{shard=\"0\"}"));
    for path in &paths {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn a_container_index_past_the_cap_is_refused_before_it_sizes_the_fold() {
    let hostile = binary_log(&[Event::ContainerLoaded {
        container: 1_000_000,
        kind: AtomKind(0),
    }]);
    assert_eq!(hostile.len(), 12);
    let limit = format!("container 1000000 exceeds the {MAX_CONTAINERS}-container limit");

    // Followed, the log is a decode error; the fold stays empty, and a
    // one-log `/metrics`, which starts with the settled fold, stays short.
    let path = scratch("hostile");
    std::fs::write(&path, &hostile).unwrap();
    let state = Mutex::new(FleetState::new(
        vec![path.clone()],
        0,
        WindowConfig::default(),
        None,
    ));
    let mut followers = vec![Follower::new(&path)];
    assert_eq!(poll_fleet(&mut followers, &state), 0);
    let state = state.lock().unwrap();
    let shard = &state.shards[0];
    assert!(shard.error.as_deref().is_some_and(|e| e.contains(&limit)));
    assert_eq!(shard.settled_metrics().events(), 0);
    let lines = state.render_metrics().lines().count();
    assert!(lines < 100, "{lines} lines of /metrics from a 12-byte log");
    std::fs::remove_file(&path).unwrap();
}

/// The series an exposition lists, by name (one `# TYPE` line each).
fn series_names(exposition: &str) -> BTreeSet<&str> {
    exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .collect()
}

#[test]
fn one_log_and_a_fleet_expose_the_same_series() {
    let logs = stress_logs(2, 44);
    let paths: Vec<PathBuf> = logs
        .iter()
        .enumerate()
        .map(|(k, bytes)| {
            let path = scratch(&format!("series{k}"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let exposition = |paths: &[PathBuf]| {
        let state = Mutex::new(FleetState::new(
            paths.to_vec(),
            0,
            WindowConfig::default(),
            None,
        ));
        let mut followers: Vec<Follower> = paths.iter().map(Follower::new).collect();
        poll_fleet(&mut followers, &state);
        let text = state.lock().unwrap().render_metrics();
        text
    };
    let one = exposition(&paths[..1]);
    let fleet = exposition(&paths);
    // Only one log's exposition breaks occupancy down per container.
    let mut one_names = series_names(&one);
    assert!(one_names.remove("rispp_container_occupancy"));
    assert_eq!(one_names, series_names(&fleet));
    for path in &paths {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn windowed_metrics_are_identical_between_live_follow_and_replay() {
    let bytes = stress_logs(1, 42).remove(0);
    let path = scratch("window");
    let config = WindowConfig::new(5_000, 8);

    // Live: the log grows in uneven chunks, a follower tails it.
    let mut live = LiveState::new(0, config);
    let mut follower = Follower::new(&path);
    let cuts = [13, bytes.len() / 4, bytes.len() / 2, bytes.len()];
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        rispp_bench::serve::poll_shard(&mut follower, &mut live).unwrap();
    }

    // Replay: the finished log in one pass.
    let mut replayed = WindowSink::new(config);
    bin::replay(&bytes, &mut replayed).unwrap();

    assert_eq!(live.window.snapshot(), replayed.snapshot());
    assert_eq!(
        live.window.snapshot().render_prometheus("", true),
        replayed.snapshot().render_prometheus("", true),
        "window exposition must be byte-identical live vs replay"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn concurrent_scrapes_during_polling_stay_well_formed() {
    let logs = stress_logs(2, 43);
    let paths: Vec<PathBuf> = logs
        .iter()
        .enumerate()
        .map(|(k, bytes)| {
            let path = scratch(&format!("conc{k}"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let state = Arc::new(Mutex::new(FleetState::new(
        paths.clone(),
        0,
        WindowConfig::default(),
        None,
    )));
    let stop = Arc::new(AtomicBool::new(false));
    let tail = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let followers: Vec<Follower> = paths.iter().map(Follower::new).collect();
        std::thread::spawn(move || {
            rispp_bench::serve::tail_loop(followers, &state, Duration::from_millis(1), &stop)
        })
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const SCRAPES: usize = 12;
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(&listener, &state, Some(SCRAPES as u64)))
    };

    // Several clients scrape every endpoint while the tail thread is
    // polling; every response must be complete and self-consistent.
    let clients: Vec<_> = (0..SCRAPES)
        .map(|i| {
            std::thread::spawn(move || {
                let path = ["/metrics", "/status", "/shards", "/alerts"][i % 4];
                http_get(addr, path)
            })
        })
        .collect();
    for (i, client) in clients.into_iter().enumerate() {
        let (head, body) = client.join().unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "scrape {i}: {head}");
        // Content-Length framing means a complete body; spot-check the
        // shape each endpoint promises.
        match i % 4 {
            0 => {
                assert_eq!(body.matches("# HELP rispp_shards ").count(), 1);
                assert!(body.contains("rispp_shards 2"));
            }
            1 => assert!(body.contains("\"shards\":2")),
            2 => assert!(body.starts_with("[{\"shard\":0,")),
            _ => assert!(body.contains("\"any_firing\":false")),
        }
    }
    server.join().unwrap().unwrap();
    stop.store(true, Ordering::Relaxed);
    tail.join().unwrap();
    for path in &paths {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn alert_check_gate_fires_on_a_violation_and_passes_clean() {
    let bytes = stress_logs(1, 44).remove(0);
    let log = scratch("gate");
    std::fs::write(&log, &bytes).unwrap();

    let firing_rules = scratch("rules_firing");
    std::fs::write(
        &firing_rules,
        "[[rule]]\nname = \"too-much-sw\"\nmetric = \"sw_fallback_rate\"\n\
         op = \">\"\nthreshold = 0.0\n",
    )
    .unwrap();
    let clean_rules = scratch("rules_clean");
    std::fs::write(
        &clean_rules,
        "[[rule]]\nname = \"impossible\"\nmetric = \"hw_fraction\"\n\
         op = \">\"\nthreshold = 2.0\n",
    )
    .unwrap();

    let mut opts = ServeOptions {
        inputs: vec![log.clone()],
        rules: Some(firing_rules.clone()),
        ..ServeOptions::default()
    };
    assert!(run_check(&opts).unwrap(), "seeded violation must fire");
    opts.rules = Some(clean_rules.clone());
    assert!(!run_check(&opts).unwrap(), "clean rules must pass");
    opts.rules = None;
    assert!(
        run_check(&opts).is_err(),
        "--check without rules is an error"
    );

    // A gate must refuse a log it cannot decode rather than pass it.
    std::fs::write(&log, b"garbage that decodes as neither format\n").unwrap();
    opts.rules = Some(clean_rules.clone());
    assert!(run_check(&opts).is_err());

    for path in [&log, &firing_rules, &clean_rules] {
        std::fs::remove_file(path).unwrap();
    }
}
