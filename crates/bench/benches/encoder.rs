//! Criterion benchmarks of the end-to-end paths: the Fig. 7 macroblock
//! encoder, the run-time manager's forecast → rotate → execute loop, and
//! the full Fig. 6 scenario.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rispp::h264::block::Plane;
use rispp::h264::encoder::{encode_frame, encode_macroblock, EncoderConfig};
use rispp::h264::si_library::build_library;
use rispp::h264::video::SyntheticVideo;
use rispp::prelude::*;
use rispp::sim::scenario::{h264_fabric, run_fig6};

fn bench_encoder(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoder");
    group.sample_size(20);

    let mut video = SyntheticVideo::new(64, 48, 7);
    let f0 = video.next_frame();
    let f1 = video.next_frame();
    let config = EncoderConfig::default();

    group.bench_function("encode_macroblock", |b| {
        let mut recon = Plane::filled(64, 48, 128);
        b.iter(|| encode_macroblock(black_box(&f1), black_box(&f0), &mut recon, 1, 1, &config))
    });
    group.bench_function("encode_frame/64x48", |b| {
        b.iter(|| encode_frame(black_box(&f1), black_box(&f0), &config))
    });
    // One QCIF frame against the frame before it: a codec shard encodes
    // four of these.
    let mut qcif = SyntheticVideo::new(176, 144, 0);
    let q0 = qcif.next_frame();
    let q1 = qcif.next_frame();
    group.bench_function("encode_frame/qcif", |b| {
        b.iter(|| encode_frame(black_box(&q1), black_box(&q0), &config))
    });

    group.bench_function("manager/forecast_rotate_execute", |b| {
        b.iter(|| {
            let (lib, sis) = build_library();
            let mut mgr = RisppManager::builder(lib, h264_fabric(6)).build();
            mgr.forecast(0, ForecastValue::new(sis.satd_4x4, 1.0, 400_000.0, 300.0));
            if let Some(done) = mgr.all_rotations_done_at() {
                mgr.advance_to(done).unwrap();
            }
            let mut total = 0u64;
            for _ in 0..256 {
                total += mgr.execute_si(0, sis.satd_4x4).cycles;
            }
            total
        })
    });

    group.bench_function("decode_frame/64x48", |b| {
        use rispp::h264::decoder::decode_frame;
        let enc = encode_frame(&f1, &f0, &config);
        b.iter(|| decode_frame(black_box(&enc.stream), black_box(&f0), &config).unwrap())
    });

    group.bench_function("scenario/fig6", |b| b.iter(run_fig6));
    group.finish();
}

criterion_group!(benches, bench_encoder);
criterion_main!(benches);
