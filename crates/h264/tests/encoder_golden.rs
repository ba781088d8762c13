//! Pins `encode_frame` bit for bit: one FNV-1a digest per configuration
//! and frame size over the stream, the reconstruction, the SI counts,
//! the intra count, the bit count and the PSNR.
//!
//! A kernel change that must keep every output identical passes this
//! test unedited. 48×32 has no interior macroblock: every macroblock
//! has sub-blocks whose candidate windows reach past a border and clamp.

use rispp_h264::encoder::{encode_frame, EncoderConfig, EntropyCoder};
use rispp_h264::video::SyntheticVideo;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(width: usize, height: usize, config: &EncoderConfig) -> u64 {
    let mut video = SyntheticVideo::new(width, height, 2007);
    let reference = video.next_frame();
    let current = video.next_frame();
    let r = encode_frame(&current, &reference, config);
    let mut h = Fnv::new();
    h.u64(r.stream.len() as u64);
    h.bytes(&r.stream);
    h.bytes(r.recon.data());
    for n in [
        r.counts.satd_4x4,
        r.counts.dct_4x4,
        r.counts.ht_4x4,
        r.counts.ht_2x2,
        r.counts.sad_4x4,
    ] {
        h.u64(n);
    }
    h.u64(r.intra_macroblocks as u64);
    h.u64(r.bits as u64);
    h.u64(r.luma_psnr.to_bits());
    h.0
}

fn configs() -> [(&'static str, EncoderConfig); 5] {
    let base = EncoderConfig::default();
    [
        ("default", base),
        (
            "cavlc",
            EncoderConfig {
                entropy: EntropyCoder::Cavlc,
                ..base
            },
        ),
        (
            "me4",
            EncoderConfig {
                me_search_range: Some(4),
                ..base
            },
        ),
        (
            "intra",
            EncoderConfig {
                intra_threshold: 0,
                ..base
            },
        ),
        (
            "deblock",
            EncoderConfig {
                deblock: true,
                ..base
            },
        ),
    ]
}

/// `(width, height, configuration, digest)`.
const GOLDEN: [(usize, usize, &str, u64); 10] = [
    (176, 144, "default", 0x3c3a_c8ff_da93_b202),
    (176, 144, "cavlc", 0xc268_c227_60b6_465f),
    (176, 144, "me4", 0x5194_f61b_5db9_17af),
    (176, 144, "intra", 0x5520_6500_fe2f_7b35),
    (176, 144, "deblock", 0xdd97_f035_4e1a_0654),
    (48, 32, "default", 0x1fd2_615d_9449_c8cb),
    (48, 32, "cavlc", 0x3dba_abc3_9def_e113),
    (48, 32, "me4", 0x6ddc_a2ad_01bd_b800),
    (48, 32, "intra", 0xe773_e405_16fb_1008),
    (48, 32, "deblock", 0xa879_11c5_fdd2_057b),
];

#[test]
fn encode_frame_output_is_pinned() {
    let mut mismatches = Vec::new();
    for &(width, height, name, expected) in &GOLDEN {
        let (_, config) = configs()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("a named configuration");
        let got = digest(width, height, &config);
        if got != expected {
            mismatches.push(format!("({width}, {height}, {name:?}, {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "encoder output moved; digests now:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn forced_intra_codes_every_macroblock_intra() {
    // The golden's "intra" rows exercise the intra path only if the
    // threshold really forces it on this content.
    let mut video = SyntheticVideo::new(48, 32, 2007);
    let reference = video.next_frame();
    let current = video.next_frame();
    let config = EncoderConfig {
        intra_threshold: 0,
        ..EncoderConfig::default()
    };
    let r = encode_frame(&current, &reference, &config);
    assert_eq!(r.intra_macroblocks, current.macroblocks());
}
