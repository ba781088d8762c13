//! Property tests on the H.264 kernels: transform linearity, metric
//! axioms of SAD/SATD, the window search against a per-candidate SATD
//! loop (on random planes and on the extreme and tied planes random ones
//! almost never draw), quantiser monotonicity, the all-zero block at
//! every QP, and entropy-codec round-trips on arbitrary blocks.

use proptest::prelude::*;
use rispp_h264::block::{Block4x4, Plane};
use rispp_h264::entropy::{decode_block, encode_block, BitReader, BitWriter};
use rispp_h264::quant::{dequantize4x4, nonzero_count, quantize4x4};
use rispp_h264::satd::{residual4x4, sad4x4, satd4x4, satd_search_4x4};
use rispp_h264::transform::{forward_dct4x4, hadamard4x4, inverse_dct4x4};

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

/// The bytes and bit length of `chunks` written one bit at a time, MSB
/// first, each value's bits above its count ignored.
fn bit_by_bit(chunks: &[(u32, u8)]) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    let mut len = 0usize;
    for &(value, count) in chunks {
        for i in (0..count).rev() {
            if len.is_multiple_of(8) {
                bytes.push(0);
            }
            let bit = ((value >> i) & 1) as u8;
            *bytes.last_mut().expect("pushed above") |= bit << (7 - len % 8);
            len += 1;
        }
    }
    (bytes, len)
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
    fn bit_length_counts_exactly(
        chunks in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..40),
    ) {
        // The bytewise writer against a bit-by-bit one: same bytes, same
        // length, whatever the alignment and the bits above `count`.
        let mut w = BitWriter::new();
        for &(v, n) in &chunks {
            w.put_bits(v, n);
        }
        let (bytes, len) = bit_by_bit(&chunks);
        prop_assert_eq!(w.bit_len(), len);
        prop_assert_eq!(w.as_bytes(), &bytes[..]);
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
