//! Criterion benchmarks of the binary event codec and of the served fold
//! on real captures: the logs of a quick `live_codec` shard and of a
//! `stress` shard (the harness's seed). The codec benches decode the
//! codec log in the 8 KiB chunks a `BinarySink` flushes and a
//! `rispp_serve` follower reads, and re-encode it record by record. The
//! fold benches feed each decoded log to a `MetricsSink` and a
//! `WindowSink` configured as a served shard's. Divide ns/iter by the
//! record counts printed first to get ns/record.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rispp::obs::window::WindowSink;
use rispp::obs::{BinarySink, EventSink, MetricsSink, Record, StreamDecoder};
use rispp::sim::{Scenario, ShardSpec, SinkSpec};
use rispp_bench::serve::ServeOptions;

/// One `BinarySink` flush.
const CHUNK_BYTES: usize = 8 * 1024;

/// Decodes `bytes` chunk by chunk, handing each record to `each`.
fn decode(bytes: &[u8], mut each: impl FnMut(Record)) {
    let mut decoder = StreamDecoder::new();
    for chunk in bytes.chunks(CHUNK_BYTES) {
        decoder.feed(chunk);
        while let Some(record) = decoder.next_record().expect("capture decodes") {
            each(record);
        }
    }
}

/// The binary log of one shard of `scenario` at the harness's seed, and
/// its records.
fn capture(scenario: Scenario) -> (Vec<u8>, Vec<Record>) {
    let bytes = ShardSpec::new(scenario, 2_026)
        .with_sink(SinkSpec::Binary)
        .run()
        .binary
        .expect("binary captured");
    let mut records = Vec::new();
    decode(&bytes, |record| records.push(record));
    (bytes, records)
}

/// Folds `records` as a served shard does: one metrics sink, sized on
/// demand, and one sliding window of the server's default shape.
fn fold(records: &[Record]) -> (MetricsSink, WindowSink) {
    let mut metrics = MetricsSink::new();
    let mut window = WindowSink::new(ServeOptions::default().window);
    for record in records {
        metrics.emit(record.at, &record.event);
        window.emit(record.at, &record.event);
    }
    (metrics, window)
}

fn bench_obs(c: &mut Criterion) {
    let (bytes, records) = capture(Scenario::live_codec(true));
    let (_, stress) = capture(Scenario::stress(false));
    println!(
        "obs: quick live_codec capture, {} records in {} bytes; stress capture, {} records",
        records.len(),
        bytes.len(),
        stress.len()
    );

    let mut group = c.benchmark_group("obs");
    group.sample_size(200);
    group.bench_function("bin_decode_codec", |b| {
        b.iter(|| {
            decode(black_box(&bytes), |record| {
                black_box(record);
            });
        })
    });
    group.bench_function("bin_encode_codec", |b| {
        b.iter(|| {
            let mut sink = BinarySink::new(Vec::with_capacity(bytes.len()));
            for record in black_box(&records) {
                sink.emit(record.at, &record.event);
            }
            sink.into_inner()
        })
    });
    group.bench_function("fold_codec", |b| b.iter(|| fold(black_box(&records))));
    group.bench_function("fold_stress", |b| b.iter(|| fold(black_box(&stress))));
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
