//! Criterion benchmarks of the binary event codec on a real capture: the
//! log of a quick `live_codec` shard (the harness's seed), decoded in the
//! 8 KiB chunks a `BinarySink` flushes and a `rispp_serve` follower
//! reads, and re-encoded record by record. Divide ns/iter by the record
//! count printed first to get ns/record.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rispp::obs::{BinarySink, EventSink, Record, StreamDecoder};
use rispp::sim::{Scenario, ShardSpec, SinkSpec};

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

fn bench_obs(c: &mut Criterion) {
    let bytes = ShardSpec::new(Scenario::live_codec(true), 2_026)
        .with_sink(SinkSpec::Binary)
        .run()
        .binary
        .expect("binary captured");
    let mut records = Vec::new();
    decode(&bytes, |record| records.push(record));
    println!(
        "obs: quick live_codec capture, {} records in {} bytes",
        records.len(),
        bytes.len()
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
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
