//! Cost metrics of motion estimation: SAD and the 4×4 Sum of Absolute
//! Transformed Differences (the paper's SATD_4x4 SI).
//!
//! SATD_4x4 chains the QuadSub, Pack, Transform and SATD Atoms (paper
//! Fig. 8): the residual is formed (QuadSub), packed two 16-bit values per
//! 32-bit register (Pack — which is why the kernels stay within 16-bit
//! range), Hadamard-transformed (Transform) and absolute-summed (SATD).

use crate::block::{Block4x4, Window7x7};
use crate::transform::hadamard4x4;

/// Element-wise difference of two 4×4 blocks (the QuadSub Atom's job).
#[must_use]
pub fn residual4x4(original: &Block4x4, prediction: &Block4x4) -> Block4x4 {
    let mut out = [[0i32; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            out[r][c] = original[r][c] - prediction[r][c];
        }
    }
    out
}

/// Sum of absolute differences of two 4×4 blocks.
#[must_use]
pub fn sad4x4(original: &Block4x4, prediction: &Block4x4) -> u32 {
    let mut acc = 0u32;
    for r in 0..4 {
        for c in 0..4 {
            acc += original[r][c].abs_diff(prediction[r][c]);
        }
    }
    acc
}

/// 4×4 Sum of Absolute Transformed Differences: Hadamard-transform the
/// residual, sum the magnitudes, halve (the standard normalisation that
/// keeps SATD comparable with SAD).
///
/// Samples are 16-bit values, as the Pack Atom holds them, so the sum of
/// the transformed magnitudes fits in 32 bits.
#[must_use]
pub fn satd4x4(original: &Block4x4, prediction: &Block4x4) -> u32 {
    satd_of_residual(&residual4x4(original, prediction))
}

/// Scores the 16 SATD candidates of one 4×4 sub-block from the
/// reference window they share, and returns the first minimum as
/// `(cost, candidate)`.
///
/// Candidate `i` is the 4×4 block at row `i / 4`, column `i % 4` of
/// `window`, so with the window's top-left corner at the search centre
/// minus `(2, 2)` it is displacement `(i % 4 − 2, i / 4 − 2)`. Each cost
/// equals [`satd4x4`] of `original` against that block: both run the
/// same residual and butterflies, so the search picks the candidate a
/// per-candidate [`satd4x4`] loop in index order would.
#[must_use]
pub fn satd_search_4x4(original: &Block4x4, window: &Window7x7) -> (u32, usize) {
    let mut best = (u32::MAX, 0);
    for candidate in 0..16 {
        let (oy, ox) = (candidate / 4, candidate % 4);
        let mut diff = [[0i32; 4]; 4];
        for ((d, o), w) in diff.iter_mut().zip(original).zip(&window[oy..oy + 4]) {
            for ((d, &o), &w) in d.iter_mut().zip(o).zip(&w[ox..ox + 4]) {
                *d = o - w;
            }
        }
        let cost = satd_of_residual(&diff);
        if cost < best.0 {
            best = (cost, candidate);
        }
    }
    best
}

/// The one SATD: Hadamard butterflies over a residual, magnitudes
/// summed and halved with rounding.
fn satd_of_residual(diff: &Block4x4) -> u32 {
    let t = hadamard4x4(diff, false);
    let sum: u32 = t.iter().flatten().map(|v| v.unsigned_abs()).sum();
    sum.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(f: impl Fn(usize, usize) -> i32) -> Block4x4 {
        let mut b = [[0i32; 4]; 4];
        for (r, row) in b.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = f(r, c);
            }
        }
        b
    }

    #[test]
    fn identical_blocks_have_zero_cost() {
        let b = block(|r, c| (r * 7 + c * 3) as i32);
        assert_eq!(sad4x4(&b, &b), 0);
        assert_eq!(satd4x4(&b, &b), 0);
    }

    #[test]
    fn sad_counts_absolute_differences() {
        let a = block(|_, _| 10);
        let b = block(|_, _| 7);
        assert_eq!(sad4x4(&a, &b), 48);
        assert_eq!(sad4x4(&b, &a), 48);
    }

    #[test]
    fn satd_of_dc_offset() {
        // A uniform difference d transforms to a single DC coefficient
        // 16·d; SATD = 16·d / 2 = 8·d.
        let a = block(|_, _| 9);
        let b = block(|_, _| 4);
        assert_eq!(satd4x4(&a, &b), 40);
    }

    #[test]
    fn satd_penalises_structured_noise_less_than_sad_suggests() {
        // High-frequency noise concentrates into few Hadamard coefficients:
        // SATD and SAD rank candidates differently, which is why ME uses
        // SATD for sub-pel refinement.
        let orig = block(|r, c| if (r + c) % 2 == 0 { 12 } else { -12 });
        let flat = block(|_, _| 0);
        let sad = sad4x4(&orig, &flat);
        let satd = satd4x4(&orig, &flat);
        assert_eq!(sad, 192);
        assert_eq!(satd, 96); // single Hadamard coefficient of 192, halved
    }

    #[test]
    fn residual_is_antisymmetric() {
        let a = block(|r, c| (r + 2 * c) as i32);
        let b = block(|r, c| (3 * r + c) as i32);
        let ab = residual4x4(&a, &b);
        let ba = residual4x4(&b, &a);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(ab[r][c], -ba[r][c]);
            }
        }
    }

    #[test]
    fn satd_triangle_like_bound() {
        // SATD(a, b) ≤ 8 · Σ|a−b| (Hadamard magnifies by at most 16 per
        // axis pair, halved). A loose sanity bound that any correct
        // implementation satisfies.
        let a = block(|r, c| (r * c) as i32);
        let b = block(|r, c| (r + c) as i32);
        assert!(satd4x4(&a, &b) <= 8 * sad4x4(&a, &b));
    }
}
