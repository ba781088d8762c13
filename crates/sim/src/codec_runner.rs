//! The live Fig. 12 pipeline: the *real* H.264 encoder (pixels,
//! transforms, entropy coding) running on the RISPP platform, with every
//! SI invocation dispatched through the run-time manager and every
//! rotation stall paid on the simulated clock.
//!
//! This closes the last gap between the two halves of the reproduction:
//! `rispp-h264` proves the kernels are functionally correct, `rispp-rt`
//! proves the rotation machinery works — this module runs them *as one
//! system* and reports wall-clock cycles, hardware fractions, PSNR and
//! bitrate together.

use rispp_core::forecast::ForecastValue;
use rispp_h264::block::{Frame, Plane};
use rispp_h264::encoder::{
    encode_macroblock_into, EncoderConfig, SiInvocationCounts, HW_DISPATCH_OVERHEAD,
    PLAIN_CYCLES_PER_MB,
};
use rispp_h264::entropy::BitWriter;
use rispp_h264::si_library::{build_library, H264Sis};
use rispp_h264::video::SyntheticVideo;
use rispp_obs::SinkHandle;
use rispp_rt::manager::RisppManager;

use crate::scenario::h264_fabric;
use crate::spec::{Scenario, ShardSpec};

/// Outcome of a live encoder run.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecRunOutcome {
    /// Frames encoded.
    pub frames: usize,
    /// Total simulated cycles, including rotation stalls.
    pub total_cycles: u64,
    /// Total SI invocations.
    pub si_invocations: u64,
    /// Fraction of SI invocations that ran in hardware.
    pub hw_fraction: f64,
    /// Mean luma PSNR over the run, in dB.
    pub mean_psnr: f64,
    /// Total entropy-coded bits.
    pub total_bits: usize,
    /// Rotations requested by the run-time system.
    pub rotations: u64,
}

/// Runs a [`Scenario::LiveCodec`] spec: encodes `frames` synthetic
/// frames of `width`×`height` on a RISPP platform with `containers` Atom
/// Containers and the spec's fault plan and power mode, dispatching
/// every SI through the manager, whose events go to `sink`.
///
/// Per frame, one FC Block announces the four transform SIs with their
/// exact per-frame execution counts (the compile-time pass knows the
/// Fig. 7 flow statically, so its forecasts are precise here).
///
/// The pixel pipeline is pure `rispp-h264` code: whatever the fault plan
/// does to the fabric, the encoded bits and PSNR must be *identical* to
/// the fault-free run — faults cost cycles, never correctness.
///
/// # Panics
///
/// Panics if the spec is not a live-codec one, `frames == 0` or the
/// dimensions are not multiples of 16.
pub(crate) fn run_live_encoder(spec: &ShardSpec, sink: SinkHandle) -> CodecRunOutcome {
    let Scenario::LiveCodec {
        width,
        height,
        frames,
        containers,
    } = spec.scenario
    else {
        panic!("run_live_encoder needs a LiveCodec spec");
    };
    assert!(frames > 0, "need at least one frame");
    let (lib, sis) = build_library();
    let fabric = h264_fabric(containers).with_faults(spec.faults.clone());
    let mut mgr = RisppManager::builder(lib, fabric)
        .power_mode(spec.power_mode)
        .sink(sink)
        .build();
    let config = EncoderConfig::default();
    let mut video = SyntheticVideo::new(width, height, spec.seed);
    let mut reference = video.next_frame();
    let mbs = (width / 16) * (height / 16);

    let mut total_bits = 0usize;
    let mut psnr_sum = 0.0f64;
    let mut hw = 0u64;
    let mut total_si = 0u64;

    for _ in 0..frames {
        let current = video.next_frame();
        // The frame's forecast block: exact per-frame execution counts.
        let per_mb = SiInvocationCounts::per_macroblock();
        mgr.forecast_block(0, forecast_values(&sis, &per_mb, mbs as u64));

        let mut recon = Plane::filled(width, height, 128);
        let mut writer = BitWriter::new();
        let mut sse = 0u64;
        for my in 0..height / 16 {
            for mx in 0..width / 16 {
                let r = encode_macroblock_into(
                    &mut writer,
                    &current,
                    &reference,
                    &mut recon,
                    mx,
                    my,
                    &config,
                );
                sse += r.luma_sse;
                total_bits += r.bits;
                // Dispatch the macroblock's SI stream through the manager,
                // one run per SI: each execution is followed by its own
                // latency (plus the dispatch overhead in hardware).
                for (si, n) in [
                    (sis.satd_4x4, r.counts.satd_4x4),
                    (sis.dct_4x4, r.counts.dct_4x4),
                    (sis.ht_4x4, r.counts.ht_4x4),
                    (sis.ht_2x2, r.counts.ht_2x2),
                    (sis.sad_4x4, r.counts.sad_4x4),
                ] {
                    let run = mgr
                        .try_execute_si_run(0, si, n, |rec| {
                            rec.cycles
                                + if rec.hardware {
                                    HW_DISPATCH_OVERHEAD
                                } else {
                                    0
                                }
                        })
                        .expect("the library issued every H.264 SI");
                    total_si += n;
                    hw += run.hardware;
                }
                // The surrounding plain code of the macroblock.
                let t = mgr.now() + PLAIN_CYCLES_PER_MB;
                mgr.advance_to(t).expect("monotone time");
            }
        }
        let mse = sse as f64 / (width * height) as f64;
        psnr_sum += if mse > 0.0 {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        } else {
            99.0
        };
        // The next reference: this frame's chroma with its reconstructed
        // luma.
        reference = Frame {
            y: recon,
            ..current
        };
    }

    CodecRunOutcome {
        frames,
        total_cycles: mgr.now(),
        si_invocations: total_si,
        hw_fraction: hw as f64 / total_si.max(1) as f64,
        mean_psnr: psnr_sum / frames as f64,
        total_bits,
        rotations: mgr.rotations_requested(),
    }
}

fn forecast_values(sis: &H264Sis, per_mb: &SiInvocationCounts, mbs: u64) -> Vec<ForecastValue> {
    [
        (sis.satd_4x4, per_mb.satd_4x4),
        (sis.dct_4x4, per_mb.dct_4x4),
        (sis.ht_4x4, per_mb.ht_4x4),
        (sis.ht_2x2, per_mb.ht_2x2),
    ]
    .into_iter()
    .map(|(si, n)| ForecastValue::new(si, 1.0, 300_000.0, (n * mbs) as f64))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SinkSpec;
    use rispp_h264::encoder::macroblock_cycles;

    fn encode(frames: usize, containers: usize, seed: u64) -> CodecRunOutcome {
        let scenario = Scenario::LiveCodec {
            width: 32,
            height: 32,
            frames,
            containers,
        };
        ShardSpec::new(scenario, seed)
            .with_sink(SinkSpec::Null)
            .run()
            .codec
            .expect("a live-codec outcome")
    }

    #[test]
    fn live_run_reaches_hardware_quickly() {
        let out = encode(3, 6, 42);
        assert_eq!(out.frames, 3);
        // 4 MBs × 283 SIs × 3 frames.
        assert_eq!(out.si_invocations, 4 * 283 * 3);
        assert!(out.hw_fraction > 0.5, "hw fraction {}", out.hw_fraction);
        assert!(out.mean_psnr > 30.0, "psnr {}", out.mean_psnr);
        assert!(out.total_bits > 0);
        assert!(out.rotations >= 4);
    }

    #[test]
    fn settled_live_run_matches_the_fig12_model() {
        // After the first frame the fabric is settled; the marginal cost
        // of one more frame must match the closed-form Fig. 12 model.
        let short = encode(4, 6, 42);
        let long = encode(5, 6, 42);
        let marginal = (long.total_cycles - short.total_cycles) as f64;
        let (lib, sis) = build_library();
        let demands = [
            (sis.satd_4x4, 256.0),
            (sis.dct_4x4, 24.0),
            (sis.ht_4x4, 1.0),
            (sis.ht_2x2, 2.0),
        ];
        let target = rispp_core::selection::select_molecules(&lib, &demands, 6).target;
        let per_mb =
            macroblock_cycles(&SiInvocationCounts::per_macroblock(), &lib, &sis, &target) as f64;
        let model = 4.0 * per_mb; // 4 macroblocks at 32×32
        let rel = (marginal - model).abs() / model;
        assert!(rel < 0.02, "marginal {marginal} vs model {model}");
    }

    #[test]
    fn fewer_containers_cost_cycles_not_quality() {
        let small = encode(6, 0, 9);
        let large = encode(6, 6, 9);
        // Same pixels → same quality and bits, regardless of hardware.
        assert_eq!(small.total_bits, large.total_bits);
        assert!((small.mean_psnr - large.mean_psnr).abs() < 1e-9);
        // But software-only execution costs ~3× the cycles.
        let speedup = small.total_cycles as f64 / large.total_cycles as f64;
        assert!(speedup > 2.5, "speed-up {speedup}");
        assert_eq!(small.hw_fraction, 0.0);
    }
}
