//! Synthetic video generation: deterministic, motion-rich test content
//! standing in for the paper's camera sequences (see DESIGN.md §2 —
//! the SI mix per macroblock is what the experiments depend on, and the
//! generator provides content with genuine inter-frame motion so ME, MC,
//! TQ and LF all do real work).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::block::{Frame, Plane};

/// Deterministic synthetic video source.
///
/// Each frame is a diagonal gradient plus a bright moving square plus
/// low-amplitude noise; the square translates by a constant velocity per
/// frame, giving full-search ME a recoverable motion field.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    width: usize,
    height: usize,
    rng: StdRng,
    frame_index: u64,
}

impl SyntheticVideo {
    /// Creates a source with the given luma dimensions (multiples of 16).
    ///
    /// # Panics
    ///
    /// Panics unless width and height are multiples of 16.
    #[must_use]
    pub fn new(width: usize, height: usize, seed: u64) -> Self {
        assert_eq!(width % 16, 0, "width must be a multiple of 16");
        assert_eq!(height % 16, 0, "height must be a multiple of 16");
        SyntheticVideo {
            width,
            height,
            rng: StdRng::seed_from_u64(seed),
            frame_index: 0,
        }
    }

    /// Generates the next frame.
    pub fn next_frame(&mut self) -> Frame {
        let t = self.frame_index;
        self.frame_index += 1;
        let w = self.width;
        let h = self.height;
        // Object position advances 2 px/frame horizontally, 1 px/frame
        // vertically, wrapping inside the frame.
        let ox = (8 + 2 * t as usize) % (w.saturating_sub(16).max(1));
        let oy = (8 + t as usize) % (h.saturating_sub(16).max(1));

        // Each row is a running gradient, `(x + y + t) % 160 + 40`,
        // plus one noise draw per sample in raster order; the object
        // then lifts its span of the row. Gradient and noise stay
        // within 38..=201, so only the lifted samples can clamp.
        let mut y = vec![0u8; w * h];
        for yy in 0..h {
            let row = &mut y[yy * w..(yy + 1) * w];
            let mut gradient = (yy + t as usize) % 160;
            for sample in row.iter_mut() {
                let noise = self.rng.gen_range(-2i32..=2);
                *sample = (gradient as i32 + 40 + noise) as u8;
                gradient += 1;
                if gradient == 160 {
                    gradient = 0;
                }
            }
            if yy >= oy && yy < oy + 16 {
                for sample in row.iter_mut().skip(ox).take(16) {
                    *sample = sample.saturating_add(60);
                }
            }
        }
        let y = Plane::from_data(w, h, y);
        // Chroma varies along x only: every row is the same.
        let cb_row: Vec<u8> = (0..w / 2)
            .map(|xx| (120 + ((xx * 2 + t as usize) % 16)) as u8)
            .collect();
        let cr_row: Vec<u8> = cb_row.iter().map(|v| 255 - v).collect();
        let cb = Plane::from_data(w / 2, h / 2, cb_row.repeat(h / 2));
        let cr = Plane::from_data(w / 2, h / 2, cr_row.repeat(h / 2));
        Frame { y, cb, cr }
    }

    /// Number of frames generated so far.
    #[must_use]
    pub fn frames_generated(&self) -> u64 {
        self.frame_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::me::full_search_4x4;

    #[test]
    fn frames_are_deterministic_per_seed() {
        let mut a = SyntheticVideo::new(32, 32, 7);
        let mut b = SyntheticVideo::new(32, 32, 7);
        assert_eq!(a.next_frame(), b.next_frame());
        assert_eq!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticVideo::new(32, 32, 1);
        let mut b = SyntheticVideo::new(32, 32, 2);
        assert_ne!(a.next_frame(), b.next_frame());
    }

    #[test]
    fn consecutive_frames_have_recoverable_motion() {
        let mut v = SyntheticVideo::new(64, 64, 3);
        let f0 = v.next_frame();
        let f1 = v.next_frame();
        // Global gradient drifts by (−1, −1)-ish; block search should find
        // low-cost matches everywhere.
        let res = full_search_4x4(&f1.y, &f0.y, 24, 24, 4);
        assert!(res.cost < 120, "residual cost {} too high", res.cost);
    }

    #[test]
    fn chroma_is_half_resolution() {
        let mut v = SyntheticVideo::new(48, 32, 0);
        let f = v.next_frame();
        assert_eq!(f.cb.width, 24);
        assert_eq!(f.cr.height, 16);
    }
}
