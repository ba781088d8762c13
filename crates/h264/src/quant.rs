//! H.264 scalar quantisation of 4×4 transform coefficients (the TQ stage
//! of Fig. 1), with the standard's multiplier tables folding the DCT
//! scaling into the quantiser.

use crate::block::Block4x4;

/// Forward quantiser multipliers M(QP%6, pos-class), classes
/// (0,0)-type / (1,1)-type / other.
const M: [[i32; 3]; 6] = [
    [13107, 5243, 8066],
    [11916, 4660, 7490],
    [10082, 4194, 6554],
    [9362, 3647, 5825],
    [8192, 3355, 5243],
    [7282, 2893, 4559],
];

/// Inverse quantiser (rescale) multipliers V(QP%6, pos-class).
const V: [[i32; 3]; 6] = [
    [10, 16, 13],
    [11, 18, 14],
    [13, 20, 16],
    [14, 23, 18],
    [16, 25, 20],
    [18, 29, 23],
];

fn pos_class(r: usize, c: usize) -> usize {
    match (r % 2, c % 2) {
        (0, 0) => 0,
        (1, 1) => 1,
        _ => 2,
    }
}

/// The forward quantiser's shift `qbits`, rounding offset `f` and
/// multipliers at `qp`.
///
/// # Panics
///
/// Panics if `qp > 51`.
fn forward_params(qp: u8) -> (u32, i64, &'static [i32; 3]) {
    assert!(qp <= 51, "H.264 QP range is 0..=51");
    let qbits = 15 + u32::from(qp / 6);
    let f = (1i64 << qbits) / 6; // intra rounding offset
    (qbits, f, &M[usize::from(qp % 6)])
}

/// Quantises forward-transform coefficients at quantisation parameter
/// `qp` (0..=51).
///
/// # Panics
///
/// Panics if `qp > 51`.
#[must_use]
pub fn quantize4x4(coeffs: &Block4x4, qp: u8) -> Block4x4 {
    let (qbits, f, table) = forward_params(qp);
    let mut out = [[0i32; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            let z = i64::from(coeffs[r][c]);
            let m = i64::from(table[pos_class(r, c)]);
            let level = (z.abs() * m + f) >> qbits;
            out[r][c] = (level as i32) * z.signum() as i32;
        }
    }
    out
}

/// The dead zone of [`quantize4x4`] at `qp`: per position class
/// ((even, even), (odd, odd), mixed), the smallest coefficient magnitude
/// that quantises to a non-zero level, `T = ⌈(2^qbits − f) / m⌉`. A
/// coefficient `z` of that class quantises to 0 exactly when `|z| < T`,
/// because its level `(|z|·m + f) >> qbits` is 0 exactly when
/// `|z|·m < 2^qbits − f`.
///
/// # Panics
///
/// Panics if `qp > 51`, with [`quantize4x4`]'s message.
#[must_use]
pub fn dead_zone(qp: u8) -> [u32; 3] {
    let (qbits, f, table) = forward_params(qp);
    let open = (1i64 << qbits) - f;
    table.map(|m| {
        let m = i64::from(m);
        ((open + m - 1) / m) as u32
    })
}

/// Bound on a forward-transform coefficient per unit of the residual's
/// sum of absolute values, per position class: `Cf`'s rows 0 and 2 have
/// entries of magnitude 1, rows 1 and 3 of at most 2, and coefficient
/// `(i, j)` weighs each sample by a product of an entry of row `i` and
/// one of row `j`.
const SAD_GAIN: [u64; 3] = [1, 4, 2];

/// Whether every coefficient of `forward_dct4x4(r)` lies inside `zone`
/// (from [`dead_zone`]) for any residual `r` whose absolute values sum
/// to `sad`, so that the block quantises to all zeros without being
/// transformed. Per class, a coefficient is at most 1, 4 or 2 times
/// `sad`, and the test asks that this bound lie below the class's
/// threshold. The bound is reached: a residual whose only non-zero
/// sample sits at row 0, column 0 has coefficients `s`, `4s` and `2s`
/// at positions (0, 0), (1, 1) and (0, 1).
#[must_use]
pub fn proves_zero(sad: u32, zone: &[u32; 3]) -> bool {
    let sad = u64::from(sad);
    zone.iter()
        .zip(SAD_GAIN)
        .all(|(&threshold, gain)| gain * sad < u64::from(threshold))
}

/// Rescales quantised levels back to transform-domain coefficients
/// (input to [`crate::transform::inverse_dct4x4`]).
///
/// # Panics
///
/// Panics if `qp > 51`.
#[must_use]
pub fn dequantize4x4(levels: &Block4x4, qp: u8) -> Block4x4 {
    assert!(qp <= 51, "H.264 QP range is 0..=51");
    let shift = u32::from(qp / 6);
    let table = &V[usize::from(qp % 6)];
    let mut out = [[0i32; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = (levels[r][c] * table[pos_class(r, c)]) << shift;
        }
    }
    out
}

/// Count of non-zero levels, the encoder's cheap "is this block coded"
/// predicate.
#[must_use]
pub fn nonzero_count(levels: &Block4x4) -> usize {
    levels.iter().flatten().filter(|&&v| v != 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{forward_dct4x4, inverse_dct4x4};

    fn pixels() -> Block4x4 {
        [
            [58, 64, 51, 58],
            [52, 64, 56, 66],
            [62, 63, 61, 64],
            [59, 51, 63, 69],
        ]
    }

    #[test]
    fn zero_block_stays_zero() {
        let z = [[0i32; 4]; 4];
        assert_eq!(quantize4x4(&z, 26), z);
        assert_eq!(dequantize4x4(&z, 26), z);
    }

    #[test]
    fn roundtrip_error_is_bounded_at_low_qp() {
        let x = pixels();
        let coeffs = forward_dct4x4(&x);
        let q = quantize4x4(&coeffs, 4);
        let dq = dequantize4x4(&q, 4);
        let back = inverse_dct4x4(&dq);
        for (br, xr) in back.iter().zip(&x) {
            for (bv, xv) in br.iter().zip(xr) {
                assert!((bv - xv).abs() <= 2, "reconstruction {bv} vs {xv}");
            }
        }
    }

    #[test]
    fn higher_qp_zeroes_more_coefficients() {
        let x = pixels();
        let coeffs = forward_dct4x4(&x);
        let low = nonzero_count(&quantize4x4(&coeffs, 8));
        let high = nonzero_count(&quantize4x4(&coeffs, 40));
        assert!(high <= low, "QP40 kept {high} > QP8 {low}");
        assert!(high < 16);
    }

    #[test]
    fn quantisation_preserves_sign() {
        let mut coeffs = [[0i32; 4]; 4];
        coeffs[0][0] = 4000;
        coeffs[1][1] = -4000;
        let q = quantize4x4(&coeffs, 20);
        assert!(q[0][0] > 0);
        assert!(q[1][1] < 0);
    }

    #[test]
    #[should_panic(expected = "QP range")]
    fn qp_out_of_range_rejected() {
        let _ = quantize4x4(&[[0; 4]; 4], 52);
    }

    #[test]
    fn qp_periodicity_in_shift() {
        // QP and QP+6 differ exactly by one doubling in the rescale.
        let mut levels = [[0i32; 4]; 4];
        levels[2][1] = 5;
        let a = dequantize4x4(&levels, 10);
        let b = dequantize4x4(&levels, 16);
        assert_eq!(b[2][1], 2 * a[2][1]);
    }
}
