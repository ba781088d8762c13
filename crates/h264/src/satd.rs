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
    let t = hadamard4x4(&residual4x4(original, prediction), false);
    let sum: u32 = t.iter().flatten().map(|v| v.unsigned_abs()).sum();
    sum.div_ceil(2)
}

/// Scores the 16 SATD candidates of one 4×4 sub-block from the
/// reference window they share, and returns the first minimum as
/// `(cost, candidate)`.
///
/// Candidate `i` is the 4×4 block at row `i / 4`, column `i % 4` of
/// `window`, so with the window's top-left corner at the search centre
/// minus `(2, 2)` it is displacement `(i % 4 − 2, i / 4 − 2)`. Each cost
/// equals [`satd4x4`] of `original` against that block, and the search
/// keeps the first strict minimum in candidate order, so it picks the
/// candidate a per-candidate [`satd4x4`] loop in index order would.
///
/// The candidates are scored together, one 16-bit lane each, as the
/// Pack Atom holds its values (DESIGN.md §15, "Candidates as lanes").
/// The Hadamard's row butterflies are linear, so a residual row's
/// transform is the original row's minus the window segment's: 4 row
/// transforms of `original` and 28 of `window` serve all 16 candidates,
/// where a loop would run 64. The column butterflies, magnitudes and
/// sums then run on `[i16; 16]` and `[u16; 16]` lanes. With 8-bit
/// samples a residual row's value stays within ±1,020, a coefficient
/// within ±4,080 and a candidate's magnitude sum within 16,320, so no
/// lane overflows.
///
/// # Panics
///
/// Panics if a sample of `original` lies outside `0..=255`.
#[must_use]
pub fn satd_search_4x4(original: &Block4x4, window: &Window7x7) -> (u32, usize) {
    assert!(
        original.iter().flatten().all(|v| (0..=255).contains(v)),
        "the SATD search takes 8-bit samples"
    );
    // `rows[r][j]`: coefficient `j` of the original's row `r`.
    let mut rows = [[0i16; 4]; 4];
    for (t, row) in rows.iter_mut().zip(original) {
        *t = butterfly(row.map(|v| v as i16));
    }
    // Row butterflies of every 4-sample segment of the window. Its rows
    // sit 8 lanes apart in `samples`, so lane `8·y + x` transforms the
    // segment at row `y`, column `x`; lanes with `x` of 4 or more run
    // past their row and are dropped below.
    let mut samples = [0i16; 59];
    for (y, row) in window.iter().enumerate() {
        for (s, &w) in samples[8 * y..].iter_mut().zip(row) {
            *s = i16::from(w);
        }
    }
    let mut transformed = [[0i16; 56]; 4];
    for lane in 0..56 {
        let t = butterfly([
            samples[lane],
            samples[lane + 1],
            samples[lane + 2],
            samples[lane + 3],
        ]);
        for (out, t) in transformed.iter_mut().zip(t) {
            out[lane] = t;
        }
    }
    // `segments[j][4·y + x]`: coefficient `j` of the segment at row `y`,
    // column `x`. Candidate `i` reads its row `r` at window row
    // `i / 4 + r`, column `i % 4`, which is index `i + 4·r`: the 16
    // candidates' row `r` is one contiguous run of 16 lanes.
    let mut segments = [[0i16; 28]; 4];
    for (segment, t) in segments.iter_mut().zip(&transformed) {
        for (y, segment) in segment.chunks_exact_mut(4).enumerate() {
            segment.copy_from_slice(&t[8 * y..8 * y + 4]);
        }
    }
    let mut sums = [0u16; 16];
    for (j, segment) in segments.iter().enumerate() {
        // Column `j` of every candidate's residual through the column
        // butterflies, one lane per candidate.
        for (i, sum) in sums.iter_mut().enumerate() {
            let residual: [i16; 4] = std::array::from_fn(|r| rows[r][j] - segment[i + 4 * r]);
            for c in butterfly(residual) {
                *sum += c.unsigned_abs();
            }
        }
    }
    let mut best = (sums[0].div_ceil(2), 0);
    for (i, &sum) in sums.iter().enumerate().skip(1) {
        let cost = sum.div_ceil(2);
        if cost < best.0 {
            best = (cost, i);
        }
    }
    (u32::from(best.0), best.1)
}

/// The 4×4 Hadamard's butterflies on one row or column, as
/// [`hadamard4x4`] runs them.
#[inline]
fn butterfly([a, b, c, d]: [i16; 4]) -> [i16; 4] {
    let (s0, s1, s2, s3) = (a + d, b + c, b - c, a - d);
    [s0 + s1, s3 + s2, s0 - s1, s3 - s2]
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
