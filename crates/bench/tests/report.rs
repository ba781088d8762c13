//! Acceptance tests for the offline report analyzer: the derived views
//! reconstructed from a JSONL export must agree with the live run, the
//! metrics gauges must agree with the fabric's own catalog, and a log
//! whose container index is past the codecs' cap is refused.

use std::cell::RefCell;
use std::rc::Rc;

use rispp::core::atom::AtomKind;
use rispp::fabric::catalog::{table1_profiles, AtomCatalog};
use rispp::fabric::ContainerId;
use rispp::obs::{BinarySink, Event, EventSink, MetricsSink, SinkHandle, Timeline};
use rispp::prelude::*;
use rispp_bench::report::{analyze, render_markdown, ReportConfig};

/// Runs the Fig. 6 scenario with a JSONL export attached and returns the
/// export text plus the live timeline.
fn fig6_with_export() -> (String, Timeline) {
    let live = Rc::new(RefCell::new(TimelineSink::new()));
    let export = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let (mut engine, _) = ShardSpec::new(Scenario::Fig6, 0).build_fig6(SinkHandle::tee(
        SinkHandle::shared(live.clone()),
        SinkHandle::shared(export.clone()),
    ));
    engine.run(100_000);
    let text = String::from_utf8(export.borrow().writer().clone()).expect("JSONL is UTF-8");
    let timeline = live.borrow().timeline().clone();
    (text, timeline)
}

#[test]
fn replayed_spans_match_the_live_timeline() {
    let (text, live) = fig6_with_export();
    let config = ReportConfig::h264(6);
    let analysis = analyze(&text, &config).expect("export replays");

    let spans = analysis.spans.spans();
    assert!(!spans.is_empty(), "fig6 must produce forecast spans");
    let mut hw_spans = 0;
    for span in spans {
        // The span's anchor must be a real forecast of the live run …
        assert!(
            live.entries().iter().any(|r| r.at == span.forecast_at
                && matches!(
                    r.event,
                    Event::ForecastUpdated { task, si, .. }
                        if task == span.task && si == span.si
                )),
            "span anchor {}@{} not in the live timeline",
            span.si,
            span.forecast_at,
        );
        // … and its time-to-hardware must be exactly what the live
        // timeline computes for the same (task, si, forecast) triple.
        if let Some(first_hw) = span.first_hw_execution {
            hw_spans += 1;
            let live_first_hw = live
                .first_hw_execution_after(span.task, span.si, span.forecast_at)
                .expect("live timeline has the same HW execution");
            assert_eq!(
                first_hw, live_first_hw,
                "span {} of task {} disagrees with the live timeline",
                span.si, span.task,
            );
            assert_eq!(
                span.time_to_hardware(),
                Some(live_first_hw - span.forecast_at)
            );
        }
    }
    assert!(hw_spans > 0, "fig6 reaches hardware in at least one span");
}

#[test]
fn report_rotations_match_the_live_timeline() {
    let (text, live) = fig6_with_export();
    let config = ReportConfig::h264(6);
    let analysis = analyze(&text, &config).expect("export replays");
    let (_, completed) = analysis.metrics.rotations();
    assert_eq!(completed as usize, live.rotations_completed());
    let md = render_markdown(&analysis, &config);
    assert!(md.contains(&format!("| rotations completed | {completed} |")));
}

#[test]
fn metrics_occupancy_matches_catalog_utilization() {
    // Load each Table 1 Atom into its own container on a real fabric with
    // the MetricsSink attached as the fabric's event sink.
    let atoms = AtomSet::from_names(["Transform", "SATD", "Pack", "QuadSub"]);
    let catalog = AtomCatalog::new(table1_profiles().to_vec());
    let weights: Vec<f64> = catalog.iter().map(|(_, p)| p.utilization()).collect();
    let mut fabric = Fabric::new(atoms, catalog.clone(), 4);
    let metrics = Rc::new(RefCell::new(
        MetricsSink::new()
            .with_containers(4)
            .with_utilization_weights(weights),
    ));
    fabric.set_sink(SinkHandle::shared(metrics.clone()));
    for i in 0..4 {
        fabric
            .request_rotation(ContainerId(i), AtomKind(i))
            .unwrap();
    }
    let done = fabric.all_rotations_done_at().unwrap();
    fabric.advance_to(done).unwrap();

    // The instantaneous gauge equals the catalog's mean utilization for
    // the Table 1 configuration exactly (~42.2 % across the four Atoms).
    let expected: f64 = (0..4)
        .map(|i| catalog.profile(AtomKind(i)).utilization())
        .sum::<f64>()
        / 4.0;
    let m = metrics.borrow();
    assert!(
        (m.loaded_logic_utilization() - expected).abs() < 1e-12,
        "instantaneous: {} vs catalog {expected}",
        m.loaded_logic_utilization(),
    );
    drop(m);

    // Once the load phase is a vanishing fraction of the run, the
    // time-integrated gauge converges to the same value.
    let long = done * 10_000;
    fabric.advance_to(long).unwrap();
    let mut m = metrics.borrow_mut();
    m.advance_to(long);
    assert!(
        (m.logic_utilization() - expected).abs() < 1e-3,
        "integrated: {} vs catalog {expected}",
        m.logic_utilization(),
    );
    // Unweighted occupancy likewise converges to fully-loaded.
    assert!((m.fabric_occupancy() - 1.0).abs() < 1e-3);
}

#[test]
fn metrics_integral_is_exact_over_closed_intervals() {
    // Pure event arithmetic, no fabric: a container loaded with SATD for
    // exactly half the observed window integrates to utilization/2.
    let catalog = AtomCatalog::new(table1_profiles().to_vec());
    let weights: Vec<f64> = catalog.iter().map(|(_, p)| p.utilization()).collect();
    let satd = AtomKind(1);
    let mut m = MetricsSink::new()
        .with_containers(1)
        .with_utilization_weights(weights);
    m.emit(
        0,
        &Event::ContainerLoaded {
            container: 0,
            kind: satd,
        },
    );
    m.emit(
        5_000,
        &Event::ContainerEvicted {
            container: 0,
            kind: satd,
        },
    );
    m.advance_to(10_000);
    let expected = catalog.profile(satd).utilization() / 2.0;
    assert!((m.logic_utilization() - expected).abs() < 1e-12);
    assert!((m.fabric_occupancy() - 0.5).abs() < 1e-12);
}

#[test]
fn report_refuses_a_container_index_past_the_cap_before_tracing_it() {
    let loaded = Event::ContainerLoaded {
        container: 1_000_000,
        kind: AtomKind(0),
    };
    let mut binary = BinarySink::new(Vec::new());
    binary.emit(0, &loaded);
    let mut jsonl = JsonlSink::new(Vec::new());
    jsonl.emit(0, &loaded);
    let dir = std::env::temp_dir();
    let tag = format!("rispp_report_hostile_{}", std::process::id());
    for (ext, bytes) in [
        ("bin", binary.into_inner()),
        ("jsonl", jsonl.writer().clone()),
    ] {
        let input = dir.join(format!("{tag}.{ext}"));
        let trace = dir.join(format!("{tag}.{ext}.trace.json"));
        std::fs::write(&input, &bytes).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rispp_report"))
            .arg(&input)
            .arg("--trace-out")
            .arg(&trace)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{ext}: {stderr}");
        assert!(
            stderr.contains("container 1000000 exceeds the 1024-container limit"),
            "{ext}: {stderr}"
        );
        assert!(!trace.exists(), "{ext}: a trace was written");
        std::fs::remove_file(&input).unwrap();
    }
}
