//! The test-application flow of the paper's Fig. 7, on real pixels.
//!
//! Per 16×16 macroblock: for each of the 16 luma 4×4 sub-blocks, the SATD
//! is calculated for **16 candidate** predictions; the candidate with the
//! minimum SATD is chosen and forwarded to the DCT. In the worst case the
//! Quality Manager switches to Intra-MB injection. After the 16 DCTs one
//! 4×4 Hadamard transform processes the 16 DC coefficients. Chroma (Cr and
//! Cb, 8×8 each) needs 2 × 4 DCT calls plus one 2×2 Hadamard transform per
//! component — and no SATD, since ME operates on luma only.
//!
//! That fixes the SI mix per macroblock at **256 SATD_4x4 + 24 DCT_4x4 +
//! 1 HT_4x4 + 2 HT_2x2**, which is what Figs. 11–13 are built on.
//!
//! ## Cycle accounting (Fig. 12 calibration)
//!
//! Whole-encoder cycles per macroblock are
//! `PLAIN_CYCLES_PER_MB + Σ count·latency (+ dispatch overhead per
//! hardware SI)`. Two constants are calibrated once against the paper's
//! "Allover performance" bars (Opt. SW = 201,065 cycles; 4/5/6 Atoms =
//! 60,244 / 59,135 / 58,287):
//!
//! * [`PLAIN_CYCLES_PER_MB`] = 49,671 — the non-SI control/memory code
//!   around the kernels, chosen so the software total matches exactly;
//! * [`HW_DISPATCH_OVERHEAD`] = 12 cycles per hardware SI invocation
//!   (operand marshalling into the AC data path), which brings the 4/5/6
//!   Atom totals within 1 % of the published bars.

use rispp_core::molecule::Molecule;
use rispp_core::si::SiLibrary;

use crate::block::{Block2x2, Block4x4, Frame, Plane};
use crate::cavlc::{encode_cavlc_block, CavlcContext};
use crate::entropy::{encode_block, BitWriter};
use crate::intra::{predict4x4_full, IntraMode4x4, INTRA_MODES_4X4};
use crate::me::full_search_4x4;
use crate::quant::{dequantize4x4, nonzero_count, quantize4x4};
use crate::satd::{residual4x4, satd4x4, satd_search_4x4};
use crate::si_library::H264Sis;
use crate::transform::{forward_dct4x4, hadamard2x2, hadamard4x4, inverse_dct4x4};

/// Non-SI cycles per macroblock (see module docs).
pub const PLAIN_CYCLES_PER_MB: u64 = 49_671;

/// Dispatch overhead per hardware SI invocation, in cycles.
pub const HW_DISPATCH_OVERHEAD: u64 = 12;

/// SATD candidates evaluated per 4×4 sub-block (Fig. 7).
pub const CANDIDATES_PER_SUBBLOCK: usize = 16;

/// SI invocation counts accumulated by the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiInvocationCounts {
    /// SATD_4x4 invocations.
    pub satd_4x4: u64,
    /// DCT_4x4 invocations.
    pub dct_4x4: u64,
    /// HT_4x4 invocations.
    pub ht_4x4: u64,
    /// HT_2x2 invocations.
    pub ht_2x2: u64,
    /// SAD_4x4 invocations (integer-pixel ME; 0 unless
    /// [`EncoderConfig::me_search_range`] is set).
    pub sad_4x4: u64,
}

impl SiInvocationCounts {
    /// The fixed per-macroblock mix of the Fig. 7 flow (without the
    /// optional integer-pixel ME pre-pass).
    #[must_use]
    pub fn per_macroblock() -> Self {
        SiInvocationCounts {
            satd_4x4: 256,
            dct_4x4: 24,
            ht_4x4: 1,
            ht_2x2: 2,
            sad_4x4: 0,
        }
    }

    /// Total SI invocations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.satd_4x4 + self.dct_4x4 + self.ht_4x4 + self.ht_2x2 + self.sad_4x4
    }

    /// Component-wise sum.
    #[must_use]
    pub fn add(&self, other: &SiInvocationCounts) -> SiInvocationCounts {
        SiInvocationCounts {
            satd_4x4: self.satd_4x4 + other.satd_4x4,
            dct_4x4: self.dct_4x4 + other.dct_4x4,
            ht_4x4: self.ht_4x4 + other.ht_4x4,
            ht_2x2: self.ht_2x2 + other.ht_2x2,
            sad_4x4: self.sad_4x4 + other.sad_4x4,
        }
    }
}

/// Residual entropy-coding backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyCoder {
    /// Plain Exp-Golomb run-level coding (simple, robust).
    #[default]
    ExpGolomb,
    /// CAVLC-structured coding (context-adaptive; see [`crate::cavlc`]).
    /// Contexts reset at macroblock boundaries, like slice boundaries in
    /// the standard.
    Cavlc,
}

/// Encoder settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Quantisation parameter (0..=51).
    pub qp: u8,
    /// SATD cost above which the Quality Manager injects an intra MB.
    pub intra_threshold: u32,
    /// Residual entropy-coding backend.
    pub entropy: EntropyCoder,
    /// Optional integer-pixel ME pre-pass (the SAD SI): when set, every
    /// sub-block first runs a full search over `±range` and the SATD
    /// candidate grid centres on the found motion vector. Adds
    /// `(2·range+1)²` SAD invocations per sub-block.
    pub me_search_range: Option<u8>,
    /// Run the in-loop deblocking filter (the LF stage of Fig. 1) over the
    /// reconstructed luma after each frame.
    pub deblock: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            qp: 28,
            intra_threshold: 2_000,
            entropy: EntropyCoder::ExpGolomb,
            me_search_range: None,
            deblock: false,
        }
    }
}

/// Outcome of encoding one macroblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroblockResult {
    /// SI invocations performed.
    pub counts: SiInvocationCounts,
    /// Total best-candidate SATD cost over the 16 sub-blocks.
    pub total_cost: u64,
    /// Non-zero quantised luma levels (coding workload proxy).
    pub coded_levels: usize,
    /// Whether the Quality Manager chose intra injection.
    pub intra: bool,
    /// Sum of squared reconstruction errors over the luma MB.
    pub luma_sse: u64,
    /// Entropy-coded size of the macroblock (header + coefficients), in
    /// bits.
    pub bits: usize,
    /// Header portion of `bits` (mode flag and motion vectors).
    pub header_bits: usize,
}

/// Encodes the macroblock at MB coordinates `(mb_x, mb_y)` of `current`
/// against `reference`, writing the reconstructed luma into `recon`.
///
/// # Panics
///
/// Panics if the macroblock does not lie inside the frame or inside
/// `recon`.
#[must_use]
pub fn encode_macroblock(
    current: &Frame,
    reference: &Frame,
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    config: &EncoderConfig,
) -> MacroblockResult {
    let mut writer = BitWriter::new();
    encode_macroblock_into(&mut writer, current, reference, recon, mb_x, mb_y, config)
}

/// [`encode_macroblock`] variant appending to an existing bitstream —
/// used by [`encode_frame`] so the whole frame forms one decodable stream
/// (see [`crate::decoder`]).
///
/// # Panics
///
/// Panics if the macroblock does not lie inside the frame or inside
/// `recon`.
#[must_use]
pub fn encode_macroblock_into(
    writer: &mut BitWriter,
    current: &Frame,
    reference: &Frame,
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    config: &EncoderConfig,
) -> MacroblockResult {
    let bx = mb_x * 16;
    let by = mb_y * 16;
    assert!(
        bx + 16 <= current.width() && by + 16 <= current.height(),
        "macroblock outside frame"
    );
    assert!(
        bx + 16 <= recon.width && by + 16 <= recon.height,
        "macroblock outside reconstruction plane"
    );
    let mut counts = SiInvocationCounts::default();
    let mut total_cost = 0u64;
    let mut coded_levels = 0usize;
    let mut luma_sse = 0u64;
    let mut dc_coeffs: Block4x4 = [[0i32; 4]; 4];
    let mut luma_totals = [[None::<u8>; 4]; 4];
    let start_bits = writer.bit_len();

    // --- Luma: 16 sub-blocks of 4×4 (Fig. 7 main loop). ---
    // (x, y, original block, best prediction, chosen displacement)
    type SubBlockChoice = (usize, usize, Block4x4, Block4x4, (i32, i32));
    let mut inter_cost_probe = 0u64;
    let mut sub_results = [SubBlockChoice::default(); 16];
    for (sb, choice) in sub_results.iter_mut().enumerate() {
        let sx = bx + (sb % 4) * 4;
        let sy = by + (sb / 4) * 4;
        let orig = current.y.block4x4(sx as isize, sy as isize);

        // Optional integer-pixel ME pre-pass (the SAD SI of the paper):
        // centres the SATD candidate grid on the best integer vector.
        let (cx, cy) = match config.me_search_range {
            Some(range) => {
                let res = full_search_4x4(&current.y, &reference.y, sx, sy, range);
                counts.sad_4x4 += u64::from(res.evaluated);
                (isize::from(res.mv.dx), isize::from(res.mv.dy))
            }
            None => (0, 0),
        };

        // 16 SATD candidates: a 4×4 displacement grid around the search
        // centre (co-located block when ME is disabled), displacements
        // −2..=1 on each axis, all read from one 7×7 reference window.
        let window = reference
            .y
            .window7x7(sx as isize + cx - 2, sy as isize + cy - 2);
        let (best_cost, best) = satd_search_4x4(&orig, &window);
        counts.satd_4x4 += CANDIDATES_PER_SUBBLOCK as u64;
        let (oy, ox) = (best / 4, best % 4);
        let mut best_pred = [[0i32; 4]; 4];
        for (p, w) in best_pred.iter_mut().zip(&window[oy..oy + 4]) {
            for (p, &w) in p.iter_mut().zip(&w[ox..ox + 4]) {
                *p = i32::from(w);
            }
        }
        let best_disp = ((cx + ox as isize - 2) as i32, (cy + oy as isize - 2) as i32);
        inter_cost_probe += u64::from(best_cost);
        total_cost += u64::from(best_cost);
        *choice = (sx, sy, orig, best_pred, best_disp);
    }

    // Quality-Manager decision: worst case → intra MB injection.
    let intra = inter_cost_probe > u64::from(config.intra_threshold) * 16;

    // --- Header: mode flag plus the chosen motion vectors (what makes
    // the stream decodable). Intra mode numbers are signalled per
    // sub-block inline, below, because the mode decision depends on the
    // progressively reconstructed neighbours. ---
    writer.put_bits(u32::from(intra), 1);
    if !intra {
        for &(_, _, _, _, (dx, dy)) in &sub_results {
            writer.put_se(dx);
            writer.put_se(dy);
        }
    }
    let mut header_bits = writer.bit_len() - start_bits;

    for (sx, sy, orig, mut pred, _) in sub_results {
        if intra {
            // Mode decision over all nine intra 4×4 predictors, by SATD
            // against the reconstructed neighbours (9 more SATD SI
            // invocations — honest accounting for intra macroblocks).
            let mut best_mode = IntraMode4x4::Dc;
            let mut best_cost = u32::MAX;
            for mode in INTRA_MODES_4X4 {
                let cand = predict4x4_full(recon, sx, sy, mode);
                let cost = satd4x4(&orig, &cand);
                counts.satd_4x4 += 1;
                if cost < best_cost {
                    best_cost = cost;
                    best_mode = mode;
                    pred = cand;
                }
            }
            writer.put_bits(u32::from(best_mode.number()), 4);
            header_bits += 4;
        }
        let residual = residual4x4(&orig, &pred);
        let coeffs = forward_dct4x4(&residual);
        counts.dct_4x4 += 1;
        let levels = quantize4x4(&coeffs, config.qp);
        let nonzero = nonzero_count(&levels);
        coded_levels += nonzero;
        let (bxr, byr) = ((sx - bx) / 4, (sy - by) / 4);
        match config.entropy {
            EntropyCoder::ExpGolomb => {
                encode_block(writer, &levels);
            }
            EntropyCoder::Cavlc => {
                let ctx = CavlcContext {
                    left_total: if bxr > 0 {
                        luma_totals[byr][bxr - 1]
                    } else {
                        None
                    },
                    top_total: if byr > 0 {
                        luma_totals[byr - 1][bxr]
                    } else {
                        None
                    },
                };
                let (_, total) = encode_cavlc_block(writer, &levels, ctx);
                luma_totals[byr][bxr] = Some(total);
            }
        }
        // Reconstruction: dequantise, inverse transform, add prediction.
        // All-zero levels inverse-transform to `(0 + 32) >> 6 = 0`, so
        // such a block (nearly every one at the default QP) skips both
        // and reconstructs as its prediction. The asserts above keep
        // every row of the sub-block inside `recon`.
        let rec_res = if nonzero == 0 {
            [[0; 4]; 4]
        } else {
            inverse_dct4x4(&dequantize4x4(&levels, config.qp))
        };
        let width = recon.width;
        let samples = recon.data_mut();
        for r in 0..4 {
            let row = &mut samples[(sy + r) * width + sx..][..4];
            for c in 0..4 {
                let value = (pred[r][c] + rec_res[r][c]).clamp(0, 255);
                row[c] = value as u8;
                let err = i64::from(orig[r][c]) - i64::from(value);
                luma_sse += (err * err) as u64;
            }
        }
        // DC coefficient for the luma Hadamard stage.
        let idx = ((sy - by) / 4) * 4 + (sx - bx) / 4;
        dc_coeffs[idx / 4][idx % 4] = coeffs[0][0];
    }

    // One 4×4 Hadamard over the 16 DC coefficients.
    let _dc_transformed = hadamard4x4(&dc_coeffs, true);
    counts.ht_4x4 += 1;

    // --- Chroma: Cr and Cb, 8×8 each → 4 DCT calls + 1 HT_2x2 per
    // component (no SATD: ME is luma-only). ---
    for plane_pair in [(&current.cb, &reference.cb), (&current.cr, &reference.cr)] {
        let (cur, refp) = plane_pair;
        let cx = mb_x * 8;
        let cy = mb_y * 8;
        let mut chroma_dc: Block2x2 = [[0i32; 2]; 2];
        let mut chroma_totals = [[None::<u8>; 2]; 2];
        for blk in 0..4 {
            let sx = cx + (blk % 2) * 4;
            let sy = cy + (blk / 2) * 4;
            let orig = cur.block4x4(sx as isize, sy as isize);
            let pred = refp.block4x4(sx as isize, sy as isize);
            let coeffs = forward_dct4x4(&residual4x4(&orig, &pred));
            counts.dct_4x4 += 1;
            let levels = quantize4x4(&coeffs, config.qp);
            coded_levels += nonzero_count(&levels);
            match config.entropy {
                EntropyCoder::ExpGolomb => {
                    encode_block(writer, &levels);
                }
                EntropyCoder::Cavlc => {
                    let (bxr, byr) = (blk % 2, blk / 2);
                    let ctx = CavlcContext {
                        left_total: if bxr > 0 {
                            chroma_totals[byr][bxr - 1]
                        } else {
                            None
                        },
                        top_total: if byr > 0 {
                            chroma_totals[byr - 1][bxr]
                        } else {
                            None
                        },
                    };
                    let (_, total) = encode_cavlc_block(writer, &levels, ctx);
                    chroma_totals[byr][bxr] = Some(total);
                }
            }
            chroma_dc[blk / 2][blk % 2] = coeffs[0][0];
        }
        let _dc2 = hadamard2x2(&chroma_dc);
        counts.ht_2x2 += 1;
    }

    MacroblockResult {
        counts,
        total_cost,
        coded_levels,
        intra,
        luma_sse,
        bits: writer.bit_len() - start_bits,
        header_bits,
    }
}

/// Outcome of encoding a whole frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// Summed SI invocations.
    pub counts: SiInvocationCounts,
    /// Reconstructed luma plane (after in-loop filtering by the caller,
    /// if desired).
    pub recon: Plane,
    /// Macroblocks that used intra injection.
    pub intra_macroblocks: usize,
    /// Luma PSNR in dB against the source.
    pub luma_psnr: f64,
    /// Entropy-coded size of the frame (headers + coefficients), in bits.
    pub bits: usize,
    /// The decodable frame bitstream (see [`crate::decoder`]).
    pub stream: Vec<u8>,
}

/// Encodes every macroblock of `current` against `reference`.
#[must_use]
pub fn encode_frame(current: &Frame, reference: &Frame, config: &EncoderConfig) -> FrameResult {
    let mbs_x = current.width() / 16;
    let mbs_y = current.height() / 16;
    let mut recon = Plane::filled(current.width(), current.height(), 128);
    let mut counts = SiInvocationCounts::default();
    let mut intra_macroblocks = 0;
    let mut sse = 0u64;
    let mut bits = 0usize;
    let mut writer = BitWriter::new();
    for my in 0..mbs_y {
        for mx in 0..mbs_x {
            let r =
                encode_macroblock_into(&mut writer, current, reference, &mut recon, mx, my, config);
            counts = counts.add(&r.counts);
            if r.intra {
                intra_macroblocks += 1;
            }
            sse += r.luma_sse;
            bits += r.bits;
        }
    }
    if config.deblock {
        crate::deblock::deblock_plane(&mut recon, config.qp);
    }
    let n = (current.width() * current.height()) as f64;
    let mse = sse as f64 / n;
    let luma_psnr = if mse > 0.0 {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    } else {
        f64::INFINITY
    };
    FrameResult {
        counts,
        recon,
        intra_macroblocks,
        luma_psnr,
        bits,
        stream: writer.into_bytes(),
    }
}

/// Whole-encoder cycles for one macroblock's SI mix, given the loaded
/// Atoms (the Fig. 12 model; see module docs for the calibration).
#[must_use]
pub fn macroblock_cycles(
    counts: &SiInvocationCounts,
    lib: &SiLibrary,
    sis: &H264Sis,
    loaded: &Molecule,
) -> u64 {
    let cost = |si, n: u64| {
        let def = lib.get(si);
        let hw = def.best_available(loaded);
        let per = hw.map_or(def.sw_cycles(), |m| m.cycles + HW_DISPATCH_OVERHEAD);
        n * per
    };
    PLAIN_CYCLES_PER_MB
        + cost(sis.satd_4x4, counts.satd_4x4)
        + cost(sis.dct_4x4, counts.dct_4x4)
        + cost(sis.ht_4x4, counts.ht_4x4)
        + cost(sis.ht_2x2, counts.ht_2x2)
        + cost(sis.sad_4x4, counts.sad_4x4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si_library::build_library;
    use crate::video::SyntheticVideo;

    fn two_frames() -> (Frame, Frame) {
        let mut v = SyntheticVideo::new(32, 32, 11);
        let f0 = v.next_frame();
        let f1 = v.next_frame();
        (f0, f1)
    }

    #[test]
    fn per_macroblock_si_mix_matches_fig7() {
        let (f0, f1) = two_frames();
        let mut recon = Plane::filled(32, 32, 128);
        let r = encode_macroblock(&f1, &f0, &mut recon, 0, 0, &EncoderConfig::default());
        assert_eq!(r.counts, SiInvocationCounts::per_macroblock());
        assert_eq!(r.counts.satd_4x4, 256);
        assert_eq!(r.counts.dct_4x4, 24);
        assert_eq!(r.counts.ht_4x4, 1);
        assert_eq!(r.counts.ht_2x2, 2);
    }

    #[test]
    fn frame_counts_scale_with_macroblocks() {
        let (f0, f1) = two_frames();
        let r = encode_frame(&f1, &f0, &EncoderConfig::default());
        let mbs = f1.macroblocks() as u64;
        assert_eq!(r.counts.satd_4x4, 256 * mbs);
        assert_eq!(r.counts.dct_4x4, 24 * mbs);
    }

    #[test]
    fn reconstruction_quality_is_reasonable() {
        let (f0, f1) = two_frames();
        let r = encode_frame(
            &f1,
            &f0,
            &EncoderConfig {
                qp: 20,
                ..Default::default()
            },
        );
        assert!(r.luma_psnr > 30.0, "PSNR {}", r.luma_psnr);
    }

    #[test]
    fn lower_qp_means_higher_quality() {
        let (f0, f1) = two_frames();
        let hi = encode_frame(
            &f1,
            &f0,
            &EncoderConfig {
                qp: 12,
                ..Default::default()
            },
        );
        let lo = encode_frame(
            &f1,
            &f0,
            &EncoderConfig {
                qp: 44,
                ..Default::default()
            },
        );
        assert!(hi.luma_psnr > lo.luma_psnr);
    }

    #[test]
    fn static_scene_never_triggers_intra() {
        let (f0, _) = two_frames();
        let r = encode_frame(&f0, &f0, &EncoderConfig::default());
        assert_eq!(r.intra_macroblocks, 0);
    }

    #[test]
    fn scene_cut_triggers_intra_injection() {
        let mut a = SyntheticVideo::new(32, 32, 1);
        let mut b = SyntheticVideo::new(32, 32, 999);
        let f0 = a.next_frame();
        // A frame from an unrelated sequence with a harsh threshold.
        let f1 = b.next_frame();
        let config = EncoderConfig {
            intra_threshold: 10,
            ..Default::default()
        };
        let r = encode_frame(&f1, &f0, &config);
        assert!(r.intra_macroblocks > 0);
    }

    #[test]
    fn me_prepass_adds_sad_invocations() {
        let (f0, f1) = two_frames();
        let mut recon = Plane::filled(32, 32, 128);
        let config = EncoderConfig {
            me_search_range: Some(2),
            ..Default::default()
        };
        let r = encode_macroblock(&f1, &f0, &mut recon, 0, 0, &config);
        // 16 sub-blocks × (2·2+1)² candidates.
        assert_eq!(r.counts.sad_4x4, 16 * 25);
        // The transform mix is unchanged.
        assert_eq!(r.counts.satd_4x4, 256);
        assert_eq!(r.counts.dct_4x4, 24);
    }

    #[test]
    fn me_prepass_never_worsens_prediction_cost() {
        let mut v = SyntheticVideo::new(64, 64, 5);
        let f0 = v.next_frame();
        let f1 = v.next_frame();
        let coefficient_bits = |config: &EncoderConfig| {
            let mut recon = Plane::filled(64, 64, 128);
            let mut total = 0usize;
            for my in 0..4 {
                for mx in 0..4 {
                    let r = encode_macroblock(&f1, &f0, &mut recon, mx, my, config);
                    total += r.bits - r.header_bits;
                }
            }
            total
        };
        let plain = coefficient_bits(&EncoderConfig::default());
        let with_me = coefficient_bits(&EncoderConfig {
            me_search_range: Some(4),
            ..Default::default()
        });
        // Wider search can only find equal-or-better predictions, which
        // shows up as fewer (or equal) coded coefficient bits (headers
        // excluded: longer vectors legitimately cost more header bits).
        assert!(with_me <= plain, "{with_me} > {plain}");
    }

    #[test]
    fn deblocking_changes_the_reconstruction() {
        let (f0, f1) = two_frames();
        let coarse = EncoderConfig {
            qp: 46,
            ..Default::default()
        };
        let plain = encode_frame(&f1, &f0, &coarse);
        let filtered = encode_frame(
            &f1,
            &f0,
            &EncoderConfig {
                deblock: true,
                ..coarse
            },
        );
        // At a coarse QP the blocky reconstruction has filterable edges.
        assert_ne!(plain.recon, filtered.recon);
        // The coefficient payload is untouched (LF is post-reconstruction).
        assert_eq!(plain.bits, filtered.bits);
    }

    #[test]
    fn higher_qp_reduces_bitrate() {
        let (f0, f1) = two_frames();
        let fine = encode_frame(
            &f1,
            &f0,
            &EncoderConfig {
                qp: 12,
                ..Default::default()
            },
        );
        let coarse = encode_frame(
            &f1,
            &f0,
            &EncoderConfig {
                qp: 44,
                ..Default::default()
            },
        );
        assert!(coarse.bits < fine.bits, "{} !< {}", coarse.bits, fine.bits);
        assert!(fine.bits > 0);
    }

    #[test]
    fn fig12_software_total_reproduced() {
        // Opt. SW: 201,065 cycles per macroblock (exact by calibration).
        let (lib, sis) = build_library();
        let counts = SiInvocationCounts::per_macroblock();
        let nothing = Molecule::zero(4);
        assert_eq!(macroblock_cycles(&counts, &lib, &sis, &nothing), 201_065);
    }

    #[test]
    fn fig12_hw_totals_within_one_percent() {
        let (lib, sis) = build_library();
        let counts = SiInvocationCounts::per_macroblock();
        // The meta-molecules the run-time selector settles on for 4/5/6
        // Atom Containers (QuadSub, Pack, Transform, SATD).
        let cases = [
            (Molecule::from_counts([1, 1, 1, 1]), 60_244.0),
            (Molecule::from_counts([1, 1, 2, 1]), 59_135.0),
            (Molecule::from_counts([1, 2, 2, 1]), 58_287.0),
        ];
        for (loaded, paper) in cases {
            let got = macroblock_cycles(&counts, &lib, &sis, &loaded) as f64;
            let rel = (got - paper).abs() / paper;
            assert!(rel < 0.01, "loaded {loaded}: got {got}, paper {paper}");
        }
    }

    #[test]
    fn fig12_speedup_exceeds_3x() {
        let (lib, sis) = build_library();
        let counts = SiInvocationCounts::per_macroblock();
        let sw = macroblock_cycles(&counts, &lib, &sis, &Molecule::zero(4));
        let hw = macroblock_cycles(&counts, &lib, &sis, &Molecule::from_counts([1, 1, 1, 1]));
        let speedup = sw as f64 / hw as f64;
        assert!(speedup > 3.0, "speedup {speedup}"); // paper: >300 %
    }
}
