//! The three transforms of the H.264 codec that share the Transform Atom
//! (paper Fig. 9): the 4×4 integer DCT approximation, the 4×4 Hadamard
//! transform (luma DC), and the 2×2 Hadamard transform (chroma DC).
//!
//! The Atom's data path implements the common add/subtract butterfly; the
//! `DCT`/`HT` control signals merely switch the shift elements in and out.
//! These software kernels are bit-exact with the H.264 reference
//! formulation, which is what makes every Molecule of a transform SI
//! functionally interchangeable with the software Molecule.

use crate::block::{Block2x2, Block4x4};

/// Forward 4×4 integer transform of H.264 (`Cf · X · Cfᵀ` with
/// `Cf = [[1,1,1,1],[2,1,-1,-2],[1,-1,-1,1],[1,-2,2,-1]]`).
#[must_use]
pub fn forward_dct4x4(block: &Block4x4) -> Block4x4 {
    let mut tmp = [[0i32; 4]; 4];
    // Horizontal butterflies (rows).
    for i in 0..4 {
        let [a, b, c, d] = block[i];
        let s0 = a + d;
        let s1 = b + c;
        let s2 = b - c;
        let s3 = a - d;
        tmp[i] = [s0 + s1, 2 * s3 + s2, s0 - s1, s3 - 2 * s2];
    }
    // Vertical butterflies (columns).
    let mut out = [[0i32; 4]; 4];
    for j in 0..4 {
        let (a, b, c, d) = (tmp[0][j], tmp[1][j], tmp[2][j], tmp[3][j]);
        let s0 = a + d;
        let s1 = b + c;
        let s2 = b - c;
        let s3 = a - d;
        out[0][j] = s0 + s1;
        out[1][j] = 2 * s3 + s2;
        out[2][j] = s0 - s1;
        out[3][j] = s3 - 2 * s2;
    }
    out
}

/// Inverse 4×4 integer transform (`Ci = [[1,1,1,1],[1,½,-½,-1],
/// [1,-1,-1,1],[½,-1,1,-½]]`, with the final `(x + 32) >> 6` rounding of
/// the standard).
///
/// Composed with [`forward_dct4x4`], the round trip satisfies
/// `inverse(forward(x) · 64) / 64 ≈ x`; the standard folds the scaling
/// into quantisation, and [`crate::quant`] does the same here.
#[must_use]
pub fn inverse_dct4x4(coeffs: &Block4x4) -> Block4x4 {
    let mut tmp = [[0i32; 4]; 4];
    for i in 0..4 {
        let [a, b, c, d] = coeffs[i];
        let e0 = a + c;
        let e1 = a - c;
        let e2 = (b >> 1) - d;
        let e3 = b + (d >> 1);
        tmp[i] = [e0 + e3, e1 + e2, e1 - e2, e0 - e3];
    }
    let mut out = [[0i32; 4]; 4];
    for j in 0..4 {
        let (a, b, c, d) = (tmp[0][j], tmp[1][j], tmp[2][j], tmp[3][j]);
        let e0 = a + c;
        let e1 = a - c;
        let e2 = (b >> 1) - d;
        let e3 = b + (d >> 1);
        out[0][j] = (e0 + e3 + 32) >> 6;
        out[1][j] = (e1 + e2 + 32) >> 6;
        out[2][j] = (e1 - e2 + 32) >> 6;
        out[3][j] = (e0 - e3 + 32) >> 6;
    }
    out
}

/// 4×4 Hadamard transform (H · X · Hᵀ, H = ±1 butterfly), as used on the
/// 16 luma DC coefficients and inside SATD. The H.264 luma-DC variant
/// halves the result with rounding; pass `halve = true` for that variant.
#[must_use]
// Inlined so that SATD's calls fold `halve` away and keep the block in
// registers (the candidate search's own lanes live in `crate::satd`).
#[inline]
pub fn hadamard4x4(block: &Block4x4, halve: bool) -> Block4x4 {
    let mut tmp = [[0i32; 4]; 4];
    for i in 0..4 {
        let [a, b, c, d] = block[i];
        let s0 = a + d;
        let s1 = b + c;
        let s2 = b - c;
        let s3 = a - d;
        tmp[i] = [s0 + s1, s3 + s2, s0 - s1, s3 - s2];
    }
    let mut out = [[0i32; 4]; 4];
    for j in 0..4 {
        let (a, b, c, d) = (tmp[0][j], tmp[1][j], tmp[2][j], tmp[3][j]);
        let s0 = a + d;
        let s1 = b + c;
        let s2 = b - c;
        let s3 = a - d;
        let vals = [s0 + s1, s3 + s2, s0 - s1, s3 - s2];
        for (i, &v) in vals.iter().enumerate() {
            out[i][j] = if halve { (v + 1) >> 1 } else { v };
        }
    }
    out
}

/// 2×2 Hadamard transform of the four chroma DC coefficients.
#[must_use]
pub fn hadamard2x2(block: &Block2x2) -> Block2x2 {
    let [[a, b], [c, d]] = *block;
    [
        [a + b + c + d, a - b + c - d],
        [a + b - c - d, a - b - c + d],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Block4x4 {
        let mut b = [[0i32; 4]; 4];
        for (r, row) in b.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 4 + c) as i32 - 8;
            }
        }
        b
    }

    #[test]
    fn dct_of_flat_block_is_pure_dc() {
        let b = [[3i32; 4]; 4];
        let t = forward_dct4x4(&b);
        assert_eq!(t[0][0], 3 * 16); // DC gain is 16
        for (i, row) in t.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if (i, j) != (0, 0) {
                    assert_eq!(v, 0, "AC coefficient ({i},{j}) nonzero");
                }
            }
        }
    }

    #[test]
    fn dct_roundtrip_through_quantiser_reconstructs() {
        // Cf and Ci are not mutually inverse on their own: the standard
        // folds the per-position norm correction into the quantiser's
        // M/V tables. The full forward → quant → dequant → inverse chain
        // at a low QP reconstructs within ±2.
        use crate::quant::{dequantize4x4, quantize4x4};
        let x = ramp();
        let z = inverse_dct4x4(&dequantize4x4(&quantize4x4(&forward_dct4x4(&x), 4), 4));
        for (zr, xr) in z.iter().zip(&x) {
            for (zv, xv) in zr.iter().zip(xr) {
                assert!((zv - xv).abs() <= 2, "round trip {zv} vs {xv}");
            }
        }
    }

    #[test]
    fn inverse_of_scaled_dc_is_flat() {
        // A pure DC coefficient reconstructs to a flat block: the inverse
        // spreads it uniformly, so 1024 → (1024 + 32) >> 6 = 16 everywhere.
        let mut y = [[0i32; 4]; 4];
        y[0][0] = 1024;
        let z = inverse_dct4x4(&y);
        assert_eq!(z, [[16; 4]; 4]);
    }

    #[test]
    fn hadamard_is_self_inverse_up_to_scale() {
        let x = ramp();
        let y = hadamard4x4(&x, false);
        let z = hadamard4x4(&y, false);
        for (zr, xr) in z.iter().zip(&x) {
            for (zv, xv) in zr.iter().zip(xr) {
                assert_eq!(*zv, 16 * xv); // H·H = 4I per axis
            }
        }
    }

    #[test]
    fn hadamard_dc_gain() {
        let b = [[1i32; 4]; 4];
        let t = hadamard4x4(&b, false);
        assert_eq!(t[0][0], 16);
        let th = hadamard4x4(&b, true);
        assert_eq!(th[0][0], 8);
    }

    #[test]
    fn hadamard2x2_matches_matrix_form() {
        let b: Block2x2 = [[1, 2], [3, 4]];
        let t = hadamard2x2(&b);
        assert_eq!(t, [[10, -2], [-4, 0]]);
        // Self-inverse up to factor 4.
        let back = hadamard2x2(&t);
        assert_eq!(back, [[4, 8], [12, 16]]);
    }

    #[test]
    fn transforms_share_butterfly_structure() {
        // The paper's Fig. 9 point: DCT and HT differ only in the shift
        // elements. On inputs where the shifts do not matter (b == c and
        // a == d per row/column), DCT and HT agree.
        let x = [[5, 2, 2, 5]; 4];
        let dct = forward_dct4x4(&x);
        let ht = hadamard4x4(&x, false);
        assert_eq!(dct, ht);
    }
}
