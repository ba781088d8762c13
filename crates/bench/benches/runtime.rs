//! Criterion benchmarks of the runtime-adjacent tooling: the DLX core
//! interpreter, the LCS Atom synthesis, the waveform reconstruction, and
//! SI dispatch on a settled manager, one SI at a time and as the runs of
//! a macroblock.

use criterion::{black_box, criterion_group, criterion_main, Bencher, Criterion};
use rispp::core::synthesis::{h264_data_paths, propose_atoms};
use rispp::h264::encoder::{SiInvocationCounts, HW_DISPATCH_OVERHEAD};
use rispp::h264::si_library::{atom_set, build_library};
use rispp::prelude::*;
use rispp::rt::ExecutionRecord;
use rispp::sim::cpu::{Cpu, Instr};
use rispp::sim::scenario::h264_fabric;
use rispp::sim::waveform::render_waveform;

fn fib_program(n: i64) -> Vec<Instr> {
    vec![
        Instr::Addi {
            rd: 2,
            rs: 0,
            imm: 0,
        },
        Instr::Addi {
            rd: 3,
            rs: 0,
            imm: 1,
        },
        Instr::Addi {
            rd: 4,
            rs: 0,
            imm: n,
        },
        Instr::Beq {
            rs: 4,
            rt: 0,
            target: 9,
        },
        Instr::Add {
            rd: 5,
            rs: 2,
            rt: 3,
        },
        Instr::Add {
            rd: 2,
            rs: 3,
            rt: 0,
        },
        Instr::Add {
            rd: 3,
            rs: 5,
            rt: 0,
        },
        Instr::Addi {
            rd: 4,
            rs: 4,
            imm: -1,
        },
        Instr::Jmp { target: 3 },
        Instr::Halt,
    ]
}

/// The codec's cost of one SI: its latency, plus the dispatch overhead
/// in hardware.
fn codec_cost(record: &ExecutionRecord) -> u64 {
    record.cycles
        + if record.hardware {
            HW_DISPATCH_OVERHEAD
        } else {
            0
        }
}

/// One macroblock's SI stream on the settled 6-container H.264 platform,
/// with the codec's sinks (a `MetricsSink` and a binary capture, here
/// into `io::sink` so repetitions do not grow a buffer): as four runs
/// through `try_execute_si_run` when `runs` is set, else as the per-SI
/// loop of `execute_si` and `advance_to` the runs replace.
fn macroblock(runs: bool) -> impl FnMut(&mut Bencher) {
    move |b: &mut Bencher| {
        let (lib, sis) = build_library();
        let sink = SinkHandle::tee(
            SinkHandle::new(MetricsSink::new().with_containers(6)),
            SinkHandle::new(BinarySink::new(std::io::sink())),
        );
        let mut mgr = RisppManager::builder(lib, h264_fabric(6))
            .sink(sink)
            .build();
        let per_mb = SiInvocationCounts::per_macroblock();
        let stream = [
            (sis.satd_4x4, per_mb.satd_4x4),
            (sis.dct_4x4, per_mb.dct_4x4),
            (sis.ht_4x4, per_mb.ht_4x4),
            (sis.ht_2x2, per_mb.ht_2x2),
        ];
        let forecasts = stream
            .iter()
            .map(|&(si, n)| ForecastValue::new(si, 1.0, 300_000.0, (n * 99) as f64));
        mgr.forecast_block(0, forecasts);
        let done = mgr.all_rotations_done_at().expect("rotations queued");
        mgr.advance_to(done).expect("time moves forward");
        b.iter(|| {
            for &(si, n) in &stream {
                if runs {
                    let run = mgr.try_execute_si_run(0, si, n, codec_cost);
                    black_box(run.expect("a library SI"));
                } else {
                    for _ in 0..n {
                        let record = mgr.execute_si(0, black_box(si));
                        let t = mgr.now() + codec_cost(&record);
                        mgr.advance_to(t).expect("time moves forward");
                    }
                }
            }
        })
    }
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");

    group.bench_function("cpu/fib_1000", |b| {
        let program = fib_program(1_000);
        b.iter(|| {
            let (lib, _) = build_library();
            let mut mgr = RisppManager::builder(lib, h264_fabric(0)).build();
            let mut cpu = Cpu::new(0);
            cpu.run(black_box(&program), &mut mgr, 0, 100_000)
        })
    });

    group.bench_function("synthesis/h264_paths", |b| {
        let paths = h264_data_paths();
        b.iter(|| propose_atoms(black_box(&paths), 3))
    });

    group.bench_function("waveform/fig6", |b| {
        let out = ShardSpec::new(Scenario::Fig6, 0)
            .with_sink(SinkSpec::Timeline)
            .run();
        let (trace, end) = (out.timeline.expect("timeline captured"), out.sim_cycles);
        let atoms = atom_set();
        b.iter(|| render_waveform(black_box(&trace), &atoms, 6, end, 96))
    });

    group
        .sample_size(2_000)
        .bench_function("execute_si_run_macroblock", macroblock(true))
        .bench_function("execute_si_loop_macroblock", macroblock(false));

    // One dispatch is tens of nanoseconds: time a million of them. Kept
    // last because the sample size sticks to the group.
    group
        .sample_size(1_000_000)
        .bench_function("execute_si_settled", |b| {
            // SATD_4x4 (256 of the 283 SIs per macroblock) on the 4-container
            // H.264 platform after its rotations landed, no sink.
            let (lib, sis) = build_library();
            let mut mgr = RisppManager::builder(lib, h264_fabric(4)).build();
            mgr.forecast(0, ForecastValue::new(sis.satd_4x4, 1.0, 200_000.0, 500.0));
            let done = mgr.all_rotations_done_at().expect("rotations queued");
            mgr.advance_to(done).expect("time moves forward");
            assert!(mgr.execute_si(0, sis.satd_4x4).hardware);
            b.iter(|| mgr.execute_si(0, black_box(sis.satd_4x4)))
        });

    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
