//! Property tests on the H.264 kernels: transform linearity, metric
//! axioms of SAD/SATD, the window search against a per-candidate SATD
//! loop (on random planes and on the extreme and tied planes random ones
//! almost never draw), quantiser monotonicity, the quantiser's dead zone
//! and the SAD bound that proves a residual all zero before it is
//! transformed, the macroblock encoder against a per-block reference,
//! the all-zero block at every QP, the synthetic video against a
//! per-sample generator, and entropy-codec round-trips on arbitrary
//! blocks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp_h264::block::{Block2x2, Block4x4, Frame, Plane};
use rispp_h264::cavlc::{encode_cavlc_block, CavlcContext};
use rispp_h264::encoder::{
    encode_macroblock_into, EncoderConfig, EntropyCoder, MacroblockResult, SiInvocationCounts,
};
use rispp_h264::entropy::{decode_block, encode_block, BitReader, BitWriter};
use rispp_h264::intra::{predict4x4_full, IntraMode4x4, INTRA_MODES_4X4};
use rispp_h264::me::full_search_4x4;
use rispp_h264::quant::{dead_zone, dequantize4x4, nonzero_count, proves_zero, quantize4x4};
use rispp_h264::satd::{residual4x4, sad4x4, satd4x4, satd_search_4x4};
use rispp_h264::transform::{forward_dct4x4, hadamard2x2, hadamard4x4, inverse_dct4x4};
use rispp_h264::video::SyntheticVideo;

fn block(range: std::ops::Range<i32>) -> impl Strategy<Value = Block4x4> {
    proptest::array::uniform4(proptest::array::uniform4(range))
}

fn pixel_block() -> impl Strategy<Value = Block4x4> {
    block(0..256)
}

/// Planes from 1×1 to 23×23 samples.
fn plane() -> impl Strategy<Value = Plane> {
    (1usize..24, 1usize..24).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<u8>(), w * h)
            .prop_map(move |data| Plane::from_data(w, h, data))
    })
}

/// The `w`×`h` plane whose sample at `(x, y)` is `sample(x, y)`.
fn plane_of(w: usize, h: usize, sample: impl Fn(usize, usize) -> u8) -> Plane {
    let data = (0..w * h).map(|i| sample(i % w, i / w)).collect();
    Plane::from_data(w, h, data)
}

/// A plane, with a position whose candidates reach windows wholly
/// outside it.
fn placed(p: Plane) -> impl Strategy<Value = (Plane, isize, isize)> {
    let (w, h) = (p.width as isize, p.height as isize);
    (Just(p), -9..w + 9, -9..h + 9)
}

/// The per-candidate oracle of the window search: [`satd4x4`] of every
/// candidate in index order, keeping the first strict minimum, as
/// `(cost, (dx, dy))`. Candidate `i` sits at displacement
/// `(i % 4 − 2, i / 4 − 2)` from `(x, y)`.
fn per_candidate_search(
    reference: &Plane,
    orig: &Block4x4,
    x: isize,
    y: isize,
) -> (u32, (isize, isize)) {
    let mut expected = (u32::MAX, (0, 0));
    for i in 0..16isize {
        let (dx, dy) = (i % 4 - 2, i / 4 - 2);
        let cand = clamped_block(reference, x + dx, y + dy);
        assert_eq!(reference.block4x4(x + dx, y + dy), cand);
        let cost = satd4x4(orig, &cand);
        if cost < expected.0 {
            expected = (cost, (dx, dy));
        }
    }
    expected
}

/// The window search at `(x, y)`, as `(cost, (dx, dy))`.
fn window_search(reference: &Plane, orig: &Block4x4, x: isize, y: isize) -> (u32, (isize, isize)) {
    let (cost, i) = satd_search_4x4(orig, &reference.window7x7(x - 2, y - 2));
    let i = i as isize;
    (cost, (i % 4 - 2, i / 4 - 2))
}

/// The 4×4 block at `(x, y)`, read one clamped sample at a time.
fn clamped_block(p: &Plane, x: isize, y: isize) -> Block4x4 {
    let mut out = [[0i32; 4]; 4];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = i32::from(p.sample(x + c as isize, y + r as isize));
        }
    }
    out
}

/// One `BitWriter` call.
#[derive(Debug, Clone, Copy)]
enum Put {
    Bits(u32, u8),
    Ue(u32),
    Se(i32),
}

/// Every `BitWriter` call but `put_ue(u32::MAX)` and `put_se(i32::MIN)`,
/// which refuse their values: small and whole-range values alike.
fn put() -> impl Strategy<Value = Put> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(v, n)| Put::Bits(v, n)),
        prop_oneof![0u32..300, 0..=u32::MAX - 1].prop_map(Put::Ue),
        prop_oneof![-300i32..300, (i32::MIN + 1)..=i32::MAX].prop_map(Put::Se),
    ]
}

/// A writer that appends one bit at a time, MSB first: the oracle of
/// `BitWriter`.
#[derive(Default)]
struct BitByBit {
    bytes: Vec<u8>,
    len: usize,
}

impl BitByBit {
    /// Appends the `count` low bits of `value`.
    fn bits(&mut self, value: u64, count: u32) {
        for i in (0..count).rev() {
            if self.len.is_multiple_of(8) {
                self.bytes.push(0);
            }
            let bit = ((value >> i) & 1) as u8;
            *self.bytes.last_mut().expect("pushed above") |= bit << (7 - self.len % 8);
            self.len += 1;
        }
    }

    /// `ue(v)`: the bits of `v + 1` after one zero fewer than there are
    /// of them.
    fn ue(&mut self, v: u64) {
        let x = v + 1;
        let n = 64 - x.leading_zeros();
        self.bits(0, n - 1);
        self.bits(x, n);
    }

    fn put(&mut self, call: Put) {
        match call {
            Put::Bits(v, n) => self.bits(u64::from(v), u32::from(n)),
            Put::Ue(v) => self.ue(u64::from(v)),
            Put::Se(v) => {
                let v = i64::from(v);
                self.ue((if v > 0 { 2 * v - 1 } else { -2 * v }) as u64);
            }
        }
    }
}

/// The residual whose absolute values sum to `target`, spread over the
/// 16 samples in proportion to `weights` (each share capped at 255, and
/// what is left filling samples in raster order), negative where
/// `negative` says.
fn residual_with_sad(target: u32, weights: [u32; 16], negative: [bool; 16]) -> Block4x4 {
    assert!(target <= 16 * 255);
    let total = weights.iter().sum::<u32>().max(1);
    let mut magnitudes =
        weights.map(|w| ((u64::from(target) * u64::from(w) / u64::from(total)) as u32).min(255));
    let mut left = target - magnitudes.iter().sum::<u32>();
    for m in &mut magnitudes {
        let add = (255 - *m).min(left);
        *m += add;
        left -= add;
    }
    assert_eq!(left, 0);
    let mut out = [[0i32; 4]; 4];
    for (i, (&m, &neg)) in magnitudes.iter().zip(&negative).enumerate() {
        out[i / 4][i % 4] = if neg { -(m as i32) } else { m as i32 };
    }
    out
}

/// The SADs at which the proof's test for each position class flips
/// (the smallest SAD it refuses), from the dead zone's thresholds and
/// the classes' gains 1, 4 and 2.
fn class_bounds(qp: u8) -> [u32; 3] {
    let zone = dead_zone(qp);
    [zone[0], zone[1].div_ceil(4), zone[2].div_ceil(2)]
}

/// The positions of each of the quantiser's classes: (even, even),
/// (odd, odd), and mixed.
fn class_positions(class: usize) -> Vec<(usize, usize)> {
    (0..16)
        .map(|i| (i / 4, i % 4))
        .filter(|&(r, c)| match class {
            0 => r % 2 == 0 && c % 2 == 0,
            1 => r % 2 == 1 && c % 2 == 1,
            _ => r % 2 != c % 2,
        })
        .collect()
}

/// A current frame of random samples and a reference that differs from
/// it by at most `amplitude` per sample, so that both proved and
/// transformed blocks occur.
fn frame_pair(w: usize, h: usize, seed: u64, amplitude: i32) -> (Frame, Frame) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut planes = |w: usize, h: usize| {
        let cur: Vec<u8> = (0..w * h).map(|_| rng.gen_range(0u8..=255)).collect();
        let refp = cur
            .iter()
            .map(|&v| (i32::from(v) + rng.gen_range(-amplitude..=amplitude)).clamp(0, 255) as u8)
            .collect();
        (Plane::from_data(w, h, cur), Plane::from_data(w, h, refp))
    };
    let (y, ry) = planes(w, h);
    let (cb, rcb) = planes(w / 2, h / 2);
    let (cr, rcr) = planes(w / 2, h / 2);
    (
        Frame { y, cb, cr },
        Frame {
            y: ry,
            cb: rcb,
            cr: rcr,
        },
    )
}

/// The macroblock encoder with every block transformed, quantised and
/// coded from its levels: the per-block path the dead zone short-cuts,
/// written out as the oracle of `encode_macroblock_into`.
fn reference_macroblock(
    writer: &mut BitWriter,
    current: &Frame,
    reference: &Frame,
    recon: &mut Plane,
    mb_x: usize,
    mb_y: usize,
    config: &EncoderConfig,
) -> MacroblockResult {
    let (bx, by) = (mb_x * 16, mb_y * 16);
    let mut counts = SiInvocationCounts::default();
    let (mut total_cost, mut coded_levels, mut luma_sse) = (0u64, 0usize, 0u64);
    let mut dc_coeffs: Block4x4 = [[0; 4]; 4];
    let mut luma_totals = [[None::<u8>; 4]; 4];
    let start_bits = writer.bit_len();
    let mut subs = Vec::new();
    for sb in 0..16 {
        let sx = bx + (sb % 4) * 4;
        let sy = by + (sb / 4) * 4;
        let orig = current.y.block4x4(sx as isize, sy as isize);
        let (cx, cy) = match config.me_search_range {
            Some(range) => {
                let res = full_search_4x4(&current.y, &reference.y, sx, sy, range);
                counts.sad_4x4 += u64::from(res.evaluated);
                (isize::from(res.mv.dx), isize::from(res.mv.dy))
            }
            None => (0, 0),
        };
        let mut best = (u32::MAX, [[0i32; 4]; 4], (0i32, 0i32));
        for i in 0..16isize {
            let (dx, dy) = (cx + i % 4 - 2, cy + i / 4 - 2);
            let cand = reference.y.block4x4(sx as isize + dx, sy as isize + dy);
            let cost = satd4x4(&orig, &cand);
            counts.satd_4x4 += 1;
            if cost < best.0 {
                best = (cost, cand, (dx as i32, dy as i32));
            }
        }
        total_cost += u64::from(best.0);
        subs.push((sx, sy, orig, best.1, best.2));
    }
    let intra = total_cost > u64::from(config.intra_threshold) * 16;
    writer.put_bits(u32::from(intra), 1);
    if !intra {
        for &(_, _, _, _, (dx, dy)) in &subs {
            writer.put_se(dx);
            writer.put_se(dy);
        }
    }
    let mut header_bits = writer.bit_len() - start_bits;
    let context = |totals: &[[Option<u8>; 4]; 4], x: usize, y: usize| CavlcContext {
        left_total: if x > 0 { totals[y][x - 1] } else { None },
        top_total: if y > 0 { totals[y - 1][x] } else { None },
    };
    for (sx, sy, orig, mut pred, _) in subs {
        if intra {
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
        let coeffs = forward_dct4x4(&residual4x4(&orig, &pred));
        counts.dct_4x4 += 1;
        let levels = quantize4x4(&coeffs, config.qp);
        coded_levels += nonzero_count(&levels);
        let (x, y) = ((sx - bx) / 4, (sy - by) / 4);
        match config.entropy {
            EntropyCoder::ExpGolomb => {
                encode_block(writer, &levels);
            }
            EntropyCoder::Cavlc => {
                let (_, total) = encode_cavlc_block(writer, &levels, context(&luma_totals, x, y));
                luma_totals[y][x] = Some(total);
            }
        }
        let rec = inverse_dct4x4(&dequantize4x4(&levels, config.qp));
        for r in 0..4 {
            for c in 0..4 {
                let value = (pred[r][c] + rec[r][c]).clamp(0, 255);
                recon.set_sample(sx + c, sy + r, value as u8);
                let err = i64::from(orig[r][c] - value);
                luma_sse += (err * err) as u64;
            }
        }
        dc_coeffs[y][x] = coeffs[0][0];
    }
    let _ = hadamard4x4(&dc_coeffs, true);
    counts.ht_4x4 += 1;
    for (cur, refp) in [(&current.cb, &reference.cb), (&current.cr, &reference.cr)] {
        let mut chroma_dc: Block2x2 = [[0; 2]; 2];
        let mut totals = [[None::<u8>; 4]; 4];
        for blk in 0..4 {
            let (x, y) = (blk % 2, blk / 2);
            let (sx, sy) = ((mb_x * 8 + x * 4) as isize, (mb_y * 8 + y * 4) as isize);
            let coeffs =
                forward_dct4x4(&residual4x4(&cur.block4x4(sx, sy), &refp.block4x4(sx, sy)));
            counts.dct_4x4 += 1;
            let levels = quantize4x4(&coeffs, config.qp);
            coded_levels += nonzero_count(&levels);
            match config.entropy {
                EntropyCoder::ExpGolomb => {
                    encode_block(writer, &levels);
                }
                EntropyCoder::Cavlc => {
                    let (_, total) = encode_cavlc_block(writer, &levels, context(&totals, x, y));
                    totals[y][x] = Some(total);
                }
            }
            chroma_dc[y][x] = coeffs[0][0];
        }
        let _ = hadamard2x2(&chroma_dc);
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

/// The frame generator before rows were filled in one pass: one sample
/// at a time, `% 160` and a push per sample. The oracle of
/// `SyntheticVideo::next_frame`.
fn per_sample_frame(rng: &mut StdRng, w: usize, h: usize, t: u64) -> Frame {
    let ox = (8 + 2 * t as usize) % (w.saturating_sub(16).max(1));
    let oy = (8 + t as usize) % (h.saturating_sub(16).max(1));
    let mut y = Vec::with_capacity(w * h);
    for yy in 0..h {
        let object_rows = yy >= oy && yy < oy + 16;
        for xx in 0..w {
            let gradient = ((xx + yy + t as usize) % 160) as i32 + 40;
            let object = if object_rows && xx >= ox && xx < ox + 16 {
                60
            } else {
                0
            };
            let noise = rng.gen_range(-2i32..=2);
            y.push((gradient + object + noise).clamp(0, 255) as u8);
        }
    }
    let cb_row: Vec<u8> = (0..w / 2)
        .map(|xx| (120 + ((xx * 2 + t as usize) % 16)) as u8)
        .collect();
    let cr_row: Vec<u8> = cb_row.iter().map(|v| 255 - v).collect();
    Frame {
        y: Plane::from_data(w, h, y),
        cb: Plane::from_data(w / 2, h / 2, cb_row.repeat(h / 2)),
        cr: Plane::from_data(w / 2, h / 2, cr_row.repeat(h / 2)),
    }
}

proptest! {
    // --- transforms ---

    #[test]
    fn dct_is_linear(a in block(-256..256), b in block(-256..256)) {
        let mut sum = [[0i32; 4]; 4];
        for r in 0..4 {
            for c in 0..4 {
                sum[r][c] = a[r][c] + b[r][c];
            }
        }
        let ta = forward_dct4x4(&a);
        let tb = forward_dct4x4(&b);
        let ts = forward_dct4x4(&sum);
        for r in 0..4 {
            for c in 0..4 {
                prop_assert_eq!(ts[r][c], ta[r][c] + tb[r][c]);
            }
        }
    }

    #[test]
    fn dct_dc_is_sixteen_times_mean_sum(a in block(-128..128)) {
        let t = forward_dct4x4(&a);
        let sum: i32 = a.iter().flatten().sum();
        prop_assert_eq!(t[0][0], sum);
    }

    #[test]
    fn hadamard_energy_is_scaled(a in block(-128..128)) {
        // Parseval for the ±1 Hadamard: Σ T² = 16 · Σ x².
        let t = hadamard4x4(&a, false);
        let ein: i64 = a.iter().flatten().map(|&v| i64::from(v) * i64::from(v)).sum();
        let eout: i64 = t.iter().flatten().map(|&v| i64::from(v) * i64::from(v)).sum();
        prop_assert_eq!(eout, 16 * ein);
    }

    #[test]
    fn quant_dequant_inverse_roundtrip_bounded(a in pixel_block()) {
        // Residuals in pixel range survive the full QP-8 pipeline within
        // a small tolerance.
        let mut residual = a;
        for row in &mut residual {
            for v in row {
                *v -= 128;
            }
        }
        let coeffs = forward_dct4x4(&residual);
        let rec = inverse_dct4x4(&dequantize4x4(&quantize4x4(&coeffs, 8), 8));
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!((rec[r][c] - residual[r][c]).abs() <= 4,
                    "({r},{c}): {} vs {}", rec[r][c], residual[r][c]);
            }
        }
    }

    #[test]
    fn higher_qp_never_more_coefficients(a in pixel_block(), qp1 in 0u8..44) {
        let coeffs = forward_dct4x4(&a);
        let low = nonzero_count(&quantize4x4(&coeffs, qp1));
        let high = nonzero_count(&quantize4x4(&coeffs, qp1 + 8));
        prop_assert!(high <= low);
    }

    // --- cost metrics ---

    #[test]
    fn sad_is_a_metric(a in pixel_block(), b in pixel_block(), c in pixel_block()) {
        prop_assert_eq!(sad4x4(&a, &b), sad4x4(&b, &a));
        prop_assert_eq!(sad4x4(&a, &a), 0);
        prop_assert!(sad4x4(&a, &c) <= sad4x4(&a, &b) + sad4x4(&b, &c));
    }

    #[test]
    fn satd_is_symmetric_and_faithful(a in pixel_block(), b in pixel_block()) {
        prop_assert_eq!(satd4x4(&a, &b), satd4x4(&b, &a));
        // Zero iff identical (Hadamard is invertible).
        prop_assert_eq!(satd4x4(&a, &b) == 0, a == b);
    }

    #[test]
    fn window_search_matches_a_per_candidate_satd_loop(
        (reference, x, y) in plane().prop_flat_map(placed),
        orig in pixel_block(),
    ) {
        prop_assert_eq!(
            window_search(&reference, &orig, x, y),
            per_candidate_search(&reference, &orig, x, y)
        );
    }

    #[test]
    fn window_search_matches_the_loop_on_the_largest_residuals(
        (reference, x, y) in (1usize..24, 1usize..24).prop_flat_map(|(w, h)| {
            proptest::collection::vec(any::<bool>(), w * h).prop_map(move |bits| {
                plane_of(w, h, |x, y| if bits[y * w + x] { 255 } else { 0 })
            })
        }).prop_flat_map(placed),
        orig in proptest::array::uniform4(proptest::array::uniform4(any::<bool>())),
    ) {
        // Samples of only 0 and 255: residuals of ±255, the lanes' widest
        // values (row sums ±1,020, coefficients ±4,080).
        let orig = orig.map(|row| row.map(|bright| if bright { 255 } else { 0 }));
        prop_assert_eq!(
            window_search(&reference, &orig, x, y),
            per_candidate_search(&reference, &orig, x, y)
        );
    }

    #[test]
    fn window_search_keeps_candidate_zero_on_a_flat_plane(
        (reference, x, y) in (1usize..24, 1usize..24, any::<u8>())
            .prop_flat_map(|(w, h, v)| placed(Plane::filled(w, h, v))),
        orig in pixel_block(),
    ) {
        // Every candidate is the same block, so all 16 tie.
        let found = window_search(&reference, &orig, x, y);
        prop_assert_eq!(found, per_candidate_search(&reference, &orig, x, y));
        prop_assert_eq!(found.1, (-2, -2));
    }

    #[test]
    fn window_search_keeps_the_first_of_partial_ties(
        (reference, x, y) in (1usize..24, 1usize..24, any::<bool>()).prop_flat_map(|(w, h, rows)| {
            // Constant along one axis: candidates one displacement
            // apart along it are the same block.
            proptest::collection::vec(any::<u8>(), w.max(h)).prop_map(move |line| {
                plane_of(w, h, |x, y| if rows { line[y] } else { line[x] })
            })
        }).prop_flat_map(placed),
        orig in pixel_block(),
    ) {
        prop_assert_eq!(
            window_search(&reference, &orig, x, y),
            per_candidate_search(&reference, &orig, x, y)
        );
    }

    #[test]
    fn residual_plus_prediction_restores(a in pixel_block(), b in pixel_block()) {
        let r = residual4x4(&a, &b);
        for i in 0..4 {
            for j in 0..4 {
                prop_assert_eq!(b[i][j] + r[i][j], a[i][j]);
            }
        }
    }

    // --- entropy coding ---

    #[test]
    fn block_codec_roundtrips(levels in block(-512..512)) {
        let mut w = BitWriter::new();
        encode_block(&mut w, &levels);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        prop_assert_eq!(decode_block(&mut r), Some(levels));
    }

    #[test]
    fn ue_se_roundtrip(
        values in proptest::collection::vec(
            prop_oneof![-5000i32..5000, (i32::MIN + 1)..=i32::MAX],
            1..50,
        ),
        codes in proptest::collection::vec(
            prop_oneof![0u32..5000, 0..=u32::MAX - 1],
            1..50,
        ),
    ) {
        // Every value but i32::MIN and u32::MAX, whose codes need 32
        // leading zeros (`BitWriter::put_se` and `put_ue` refuse them).
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(v);
        }
        for &v in &codes {
            w.put_ue(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.se(), Some(v));
        }
        for &v in &codes {
            prop_assert_eq!(r.ue(), Some(v));
        }
    }

    #[test]
    fn cavlc_roundtrips_arbitrary_blocks(
        levels in block(-2000..2000),
        left in proptest::option::of(0u8..17),
        top in proptest::option::of(0u8..17),
    ) {
        use rispp_h264::cavlc::{decode_cavlc_block, encode_cavlc_block, CavlcContext};
        let ctx = CavlcContext { left_total: left, top_total: top };
        let mut w = BitWriter::new();
        let (_, total) = encode_cavlc_block(&mut w, &levels, ctx);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let (decoded, total2) = decode_cavlc_block(&mut r, ctx).expect("self-consistent");
        prop_assert_eq!(decoded, levels);
        prop_assert_eq!(total, total2);
    }

    #[test]
    fn cavlc_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        nc in 0u8..17,
    ) {
        use rispp_h264::cavlc::{decode_cavlc_block, CavlcContext};
        let ctx = CavlcContext { left_total: Some(nc), top_total: Some(nc) };
        let mut r = BitReader::new(&bytes);
        // Must either decode something or reject; never panic.
        let _ = decode_cavlc_block(&mut r, ctx);
    }

    #[test]
    fn frame_decoder_never_panics_on_corruption(
        flips in proptest::collection::vec((0usize..10_000, 0u8..8), 1..12),
    ) {
        use rispp_h264::decoder::decode_frame;
        use rispp_h264::encoder::{encode_frame, EncoderConfig};
        use rispp_h264::video::SyntheticVideo;
        let mut v = SyntheticVideo::new(32, 32, 3);
        let f0 = v.next_frame();
        let f1 = v.next_frame();
        let config = EncoderConfig::default();
        let enc = encode_frame(&f1, &f0, &config);
        let mut stream = enc.stream.clone();
        for (pos, bit) in flips {
            let i = pos % stream.len();
            stream[i] ^= 1 << bit;
        }
        // Corrupted streams must decode to *something* or be rejected —
        // never panic.
        let _ = decode_frame(&stream, &f0, &config);
    }

    #[test]
    fn bit_length_counts_exactly(calls in proptest::collection::vec(put(), 0..60)) {
        // The accumulator writer against a bit-by-bit one, after every
        // call of a random interleaving of `put_bits`, `put_ue` and
        // `put_se`: same length, same bytes (the partial byte
        // zero-padded), whatever the alignment and the bits above
        // `count`.
        let mut w = BitWriter::new();
        let mut oracle = BitByBit::default();
        for &call in &calls {
            match call {
                Put::Bits(v, n) => w.put_bits(v, n),
                Put::Ue(v) => w.put_ue(v),
                Put::Se(v) => w.put_se(v),
            }
            oracle.put(call);
            prop_assert_eq!(w.bit_len(), oracle.len, "after {:?}", call);
            prop_assert_eq!(w.as_bytes(), &oracle.bytes[..], "after {:?}", call);
        }
        prop_assert_eq!(w.into_bytes(), oracle.bytes);
    }

    // --- the dead zone before the transform ---

    #[test]
    fn a_proved_residual_quantises_to_zero_and_its_sum_is_the_dc(
        qp in 0u8..=51,
        kind in 0usize..4,
        uniform in block(-255..256),
        extremes in proptest::array::uniform4(proptest::array::uniform4(0i32..3)),
        (class, offset) in (0usize..4, 0u32..3),
        weights in proptest::array::uniform4(proptest::array::uniform4(0u32..256)),
        negative in proptest::array::uniform4(proptest::array::uniform4(any::<bool>())),
    ) {
        // Random residuals, residuals of only −255, 0 and 255, and
        // residuals whose SAD sits one below, at or one above the flip
        // of each class's test (class 3: the flip of all three).
        let bounds = class_bounds(qp);
        let residual = match kind {
            0 => uniform,
            1 => extremes.map(|row| row.map(|v| (v - 1) * 255)),
            _ => {
                let flip = match class {
                    3 => bounds.into_iter().min().expect("three classes"),
                    k => bounds[k],
                };
                let target = (flip + offset).saturating_sub(1).min(16 * 255);
                let weights: [u32; 16] = std::array::from_fn(|i| weights[i / 4][i % 4]);
                let negative: [bool; 16] = std::array::from_fn(|i| negative[i / 4][i % 4]);
                residual_with_sad(target, weights, negative)
            }
        };
        let sad: u32 = residual.iter().flatten().map(|v| v.unsigned_abs()).sum();
        let sum: i32 = residual.iter().flatten().sum();
        let coeffs = forward_dct4x4(&residual);
        prop_assert_eq!(coeffs[0][0], sum);
        if proves_zero(sad, &dead_zone(qp)) {
            prop_assert_eq!(quantize4x4(&coeffs, qp), [[0; 4]; 4], "SAD {} at QP {}", sad, qp);
        }
    }

    #[test]
    fn encode_macroblock_into_matches_a_per_block_reference(
        (w, h) in (1usize..4, 1usize..3).prop_map(|(w, h)| (16 * w, 16 * h)),
        seed in any::<u64>(),
        amplitude in prop_oneof![Just(0i32), 1i32..4, 4i32..16, Just(255)],
        qp in 0u8..=51,
        cavlc in any::<bool>(),
        intra in any::<bool>(),
        me_search_range in proptest::option::of(1u8..3),
    ) {
        // Identical bytes, reconstruction, SSE and counts, macroblock by
        // macroblock over a whole frame (CAVLC contexts and intra
        // predictors read what earlier blocks wrote).
        let (current, reference) = frame_pair(w, h, seed, amplitude);
        let config = EncoderConfig {
            qp,
            intra_threshold: if intra { 0 } else { u32::MAX },
            entropy: if cavlc { EntropyCoder::Cavlc } else { EntropyCoder::ExpGolomb },
            me_search_range,
            deblock: false,
        };
        let (mut got_w, mut want_w) = (BitWriter::new(), BitWriter::new());
        let mut got_recon = Plane::filled(w, h, 128);
        let mut want_recon = got_recon.clone();
        for my in 0..h / 16 {
            for mx in 0..w / 16 {
                let (cur, refp) = (&current, &reference);
                let got =
                    encode_macroblock_into(&mut got_w, cur, refp, &mut got_recon, mx, my, &config);
                let want =
                    reference_macroblock(&mut want_w, cur, refp, &mut want_recon, mx, my, &config);
                prop_assert_eq!(&got, &want, "macroblock ({}, {})", mx, my);
                prop_assert_eq!(got_w.as_bytes(), want_w.as_bytes());
                prop_assert_eq!(&got_recon, &want_recon);
            }
        }
    }
}

#[test]
fn the_dead_zone_is_exact_at_every_qp() {
    // At every QP, in every position of each class and for both signs,
    // a coefficient of magnitude T − 1 quantises to 0 and one of T to a
    // level of its sign.
    for qp in 0..=51u8 {
        let zone = dead_zone(qp);
        for (class, &t) in zone.iter().enumerate() {
            let t = i32::try_from(t).expect("thresholds fit i32");
            assert!(t > 0, "QP {qp} class {class}");
            for (r, c) in class_positions(class) {
                for sign in [1, -1] {
                    let mut coeffs = [[0i32; 4]; 4];
                    coeffs[r][c] = sign * (t - 1);
                    assert_eq!(
                        quantize4x4(&coeffs, qp),
                        [[0; 4]; 4],
                        "QP {qp} ({r}, {c}) {}",
                        sign * (t - 1)
                    );
                    coeffs[r][c] = sign * t;
                    let level = quantize4x4(&coeffs, qp)[r][c];
                    assert_eq!(level.signum(), sign, "QP {qp} ({r}, {c}) {}", sign * t);
                }
            }
        }
    }
    // At QP 28 (the encoder's default) the thresholds are 54, 131, 84.
    assert_eq!(dead_zone(28), [54, 131, 84]);
}

#[test]
fn the_proof_is_exact_for_a_single_corner_sample() {
    // A residual whose only non-zero sample `s` sits at row 0, column 0
    // has coefficients s, 4s and 2s at (0, 0), (1, 1) and (0, 1), the
    // largest each class allows for its SAD |s|. So the proof holds for
    // it exactly when it quantises to all zeros: at every QP and every
    // sample value, a looser bound would prove a coded block and a
    // tighter one would miss a zero block.
    for qp in 0..=51u8 {
        let zone = dead_zone(qp);
        let mut proved = 0;
        for s in -255..=255i32 {
            let mut residual = [[0i32; 4]; 4];
            residual[0][0] = s;
            let zero = quantize4x4(&forward_dct4x4(&residual), qp) == [[0; 4]; 4];
            assert_eq!(
                proves_zero(s.unsigned_abs(), &zone),
                zero,
                "QP {qp}, s = {s}"
            );
            proved += u32::from(zero);
        }
        let flip = class_bounds(qp).into_iter().min().expect("three classes");
        assert_eq!(proved, (2 * flip - 1).min(511), "QP {qp}");
    }
}

#[test]
#[should_panic(expected = "H.264 QP range is 0..=51")]
fn a_qp_of_52_still_panics_with_the_quantisers_message() {
    // A static scene proves every block all zero, so the quantiser
    // itself never runs: the dead zone's look-up must refuse the QP.
    let frame = Frame::grey(16, 16);
    let mut recon = Plane::filled(16, 16, 128);
    let config = EncoderConfig {
        qp: 52,
        ..Default::default()
    };
    let _ = encode_macroblock_into(
        &mut BitWriter::new(),
        &frame,
        &frame,
        &mut recon,
        0,
        0,
        &config,
    );
}

#[test]
fn synthetic_video_matches_the_per_sample_generator() {
    // 170 frames take the gradient's row start past its wrap at 160 and
    // the moving object past its wrap on both axes, at every size here.
    let sizes = [
        (0, 16),
        (16, 0),
        (16, 16),
        (32, 16),
        (16, 48),
        (48, 32),
        (176, 144),
    ];
    for (w, h) in sizes {
        for seed in [0, 1, 4242, u64::MAX] {
            let mut video = SyntheticVideo::new(w, h, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for t in 0..170 {
                let want = per_sample_frame(&mut rng, w, h, t);
                assert_eq!(video.next_frame(), want, "{w}x{h}, seed {seed}, frame {t}");
            }
        }
    }
}

#[test]
fn an_all_zero_block_reconstructs_to_zeros_and_codes_in_one_bit() {
    // The encoder skips dequantisation and the inverse transform for
    // such a block at every QP, and `encode_block` (which takes no QP)
    // stops at its count.
    let zeros = [[0i32; 4]; 4];
    for qp in 0..=51 {
        assert_eq!(inverse_dct4x4(&dequantize4x4(&zeros, qp)), zeros, "QP {qp}");
    }
    let mut w = BitWriter::new();
    assert_eq!(encode_block(&mut w, &zeros), 1);
    assert_eq!(w.bit_len(), 1);
    let bytes = w.into_bytes();
    let mut r = BitReader::new(&bytes);
    assert_eq!(decode_block(&mut r), Some(zeros));
}
