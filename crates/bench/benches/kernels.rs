//! Criterion benchmarks of the H.264 pixel kernels — the software
//! Molecules whose latency the SIs are measured against.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rispp::h264::block::{Block4x4, Plane};
use rispp::h264::me::full_search_4x4;
use rispp::h264::quant::{dequantize4x4, quantize4x4};
use rispp::h264::satd::{sad4x4, satd4x4, satd_search_4x4};
use rispp::h264::transform::{forward_dct4x4, hadamard4x4, inverse_dct4x4};
use rispp::h264::video::SyntheticVideo;

fn test_block(seed: i32) -> Block4x4 {
    let mut b = [[0i32; 4]; 4];
    for (r, row) in b.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = ((seed + r as i32 * 31 + c as i32 * 17) % 255) - 128;
        }
    }
    b
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    let a = test_block(3);
    let b2 = test_block(91);

    group.bench_function("forward_dct4x4", |b| {
        b.iter(|| forward_dct4x4(black_box(&a)))
    });
    group.bench_function("inverse_dct4x4", |b| {
        b.iter(|| inverse_dct4x4(black_box(&a)))
    });
    group.bench_function("hadamard4x4", |b| {
        b.iter(|| hadamard4x4(black_box(&a), true))
    });
    group.bench_function("satd4x4", |b| {
        b.iter(|| satd4x4(black_box(&a), black_box(&b2)))
    });
    group.bench_function("sad4x4", |b| {
        b.iter(|| sad4x4(black_box(&a), black_box(&b2)))
    });
    group.bench_function("quant_roundtrip", |b| {
        b.iter(|| {
            let q = quantize4x4(black_box(&a), 28);
            dequantize4x4(&q, 28)
        })
    });

    let mut video = SyntheticVideo::new(64, 64, 5);
    let f0 = video.next_frame();
    let f1 = video.next_frame();
    let cur: &Plane = &f1.y;
    let refp: &Plane = &f0.y;
    group.bench_function("full_search_4x4/range4", |b| {
        b.iter(|| full_search_4x4(black_box(cur), black_box(refp), 24, 24, 4))
    });
    // The encoder's per-sub-block candidate search: one 7×7 reference
    // window read, 16 SATDs scored from it.
    group.bench_function("satd_search_4x4", |b| {
        let orig = cur.block4x4(24, 24);
        b.iter(|| satd_search_4x4(black_box(&orig), &black_box(refp).window7x7(22, 22)))
    });

    group.bench_function("half_sample_hv", |b| {
        use rispp::h264::interp::half_sample_hv;
        b.iter(|| half_sample_hv(black_box(refp), 24, 24))
    });

    group.bench_function("entropy_encode_block", |b| {
        use rispp::h264::entropy::{encode_block, BitWriter};
        use rispp::h264::quant::quantize4x4;
        let levels = quantize4x4(&forward_dct4x4(&a), 28);
        b.iter(|| {
            let mut w = BitWriter::new();
            encode_block(&mut w, black_box(&levels))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
