//! The paper's motivating "Multimedia TV" workload (§2): encoding and
//! decoding running quasi-parallel under a tight time budget, sharing one
//! RISPP fabric. The encoder task needs SATD/DCT/HT; the decoder task
//! needs the inverse transforms (same Transform/Pack Atoms) — Atom
//! sharing across tasks is what makes the tight schedule feasible without
//! "time consuming reconfigurations" on every task switch.

use std::cell::RefCell;
use std::rc::Rc;

use rispp::h264::decoder::decode_frame;
use rispp::h264::encoder::{encode_frame, EncoderConfig};
use rispp::h264::si_library::build_library;
use rispp::h264::video::SyntheticVideo;
use rispp::prelude::*;
use rispp::sim::h264_fabric;
use rispp::sim::{Engine, Op, Task};

/// Builds the SI streams of one encoded+decoded frame pair.
fn tv_tasks(sis: &rispp::h264::H264Sis, mbs: u32) -> (Task, Task) {
    // Encoder: per MB, 256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2
    // (batched into a compact op stream: the engine executes counts, the
    // pixel math is validated separately in rispp-h264).
    let encoder_mb = vec![
        Op::Repeat {
            body: vec![Op::ExecSi(sis.satd_4x4)],
            times: 256,
        },
        Op::Repeat {
            body: vec![Op::ExecSi(sis.dct_4x4)],
            times: 24,
        },
        Op::ExecSi(sis.ht_4x4),
        Op::ExecSi(sis.ht_2x2),
        Op::ExecSi(sis.ht_2x2),
        Op::Plain(49_671),
    ];
    let encoder = Task::new(
        0,
        "encoder",
        vec![
            Op::ForecastBlock(vec![
                ForecastValue::new(sis.satd_4x4, 1.0, 300_000.0, 256.0 * f64::from(mbs)),
                ForecastValue::new(sis.dct_4x4, 1.0, 300_000.0, 24.0 * f64::from(mbs)),
            ]),
            Op::Repeat {
                body: encoder_mb,
                times: mbs,
            },
        ],
    );
    // Decoder: per MB, 24 inverse transforms (DCT SI on the same Atoms)
    // plus lighter plain code.
    let decoder_mb = vec![
        Op::Repeat {
            body: vec![Op::ExecSi(sis.dct_4x4)],
            times: 24,
        },
        Op::Plain(9_000),
    ];
    let decoder = Task::new(
        1,
        "decoder",
        vec![
            Op::Forecast(ForecastValue::new(
                sis.dct_4x4,
                1.0,
                300_000.0,
                24.0 * f64::from(mbs),
            )),
            Op::Repeat {
                body: decoder_mb,
                times: mbs,
            },
        ],
    );
    (encoder, decoder)
}

#[test]
fn encoder_and_decoder_share_atoms() {
    let (lib, sis) = build_library();
    let counters = Rc::new(RefCell::new(CountersSink::new()));
    let manager = RisppManager::builder(lib, h264_fabric(6))
        .sink(SinkHandle::shared(counters.clone()))
        .build();
    let mut engine = Engine::new(manager);
    let (enc, dec) = tv_tasks(&sis, 24);
    engine.add_task(enc);
    engine.add_task(dec);
    engine.run(100_000);

    // Both tasks end up mostly in hardware.
    let satd = counters.borrow().si(sis.satd_4x4);
    let dct = counters.borrow().si(sis.dct_4x4);
    assert!(
        satd.hw_executions * 10 >= (satd.hw_executions + satd.sw_executions) * 7,
        "encoder SATD mostly SW: {satd:?}"
    );
    assert!(
        dct.hw_executions * 10 >= (dct.hw_executions + dct.sw_executions) * 7,
        "DCT mostly SW: {dct:?}"
    );
    // The decoder's DCT demand is served by the *same* loaded Atoms the
    // encoder's Molecules use: the fabric never needed more rotations
    // than one initial fill.
    let requested = engine.manager().rotations_requested();
    assert!(requested <= 10, "rotations {requested}");
}

#[test]
fn tight_schedule_feasible_only_with_shared_hardware() {
    let (lib, sis) = build_library();
    // RISPP run.
    let manager = RisppManager::builder(lib.clone(), h264_fabric(6)).build();
    let mut engine = Engine::new(manager);
    let (enc, dec) = tv_tasks(&sis, 24);
    engine.add_task(enc);
    engine.add_task(dec);
    let rispp_cycles = engine.run(100_000);

    // Software-only run (zero containers).
    let manager = RisppManager::builder(lib, h264_fabric(0)).build();
    let mut engine = Engine::new(manager);
    let (enc, dec) = tv_tasks(&sis, 24);
    engine.add_task(enc);
    engine.add_task(dec);
    let sw_cycles = engine.run(100_000);

    let speedup = sw_cycles as f64 / rispp_cycles as f64;
    assert!(speedup > 2.5, "speed-up {speedup:.2}");
}

#[test]
fn real_pixel_pipeline_roundtrips_thirty_frames() {
    // The actual video codec over 30 frames: encode against the previous
    // reconstruction, decode every stream, and require bit-exactness —
    // the functional half of the Multimedia TV workload.
    let mut video = SyntheticVideo::new(48, 48, 2_024);
    let config = EncoderConfig::default();
    let mut reference = video.next_frame();
    let mut total_bits = 0usize;
    for frame_no in 0..30 {
        let current = video.next_frame();
        let enc = encode_frame(&current, &reference, &config);
        let dec = decode_frame(&enc.stream, &reference, &config).expect("stream decodes");
        assert_eq!(dec.luma, enc.recon, "frame {frame_no} mismatch");
        assert!(enc.luma_psnr > 30.0, "frame {frame_no}: {}", enc.luma_psnr);
        total_bits += enc.bits;
        // Closed-loop reference: the *reconstruction* becomes the next
        // frame's reference, as in a real codec.
        let mut next_ref = current.clone();
        next_ref.y = enc.recon.clone();
        reference = next_ref;
    }
    assert!(total_bits > 0);
}
