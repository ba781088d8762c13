//! Pixel and coefficient block types used by the H.264 kernels.

/// A 4×4 block of samples or coefficients, row-major.
pub type Block4x4 = [[i32; 4]; 4];

/// A 2×2 block (chroma DC coefficients).
pub type Block2x2 = [[i32; 2]; 2];

/// The 7×7 reference samples that the 16 SATD candidates of one 4×4
/// sub-block read: 4×4 blocks at displacements −2..=1 on each axis from
/// a search centre. Samples stay 8-bit, as the plane holds them, which
/// bounds every value the candidate search computes (see
/// [`crate::satd::satd_search_4x4`]).
pub type Window7x7 = [[u8; 7]; 7];

/// One 8-bit sample plane (luma or chroma) with explicit dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    /// Width in samples.
    pub width: usize,
    /// Height in samples.
    pub height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane filled with `value`.
    #[must_use]
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        Plane {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates a plane from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    #[must_use]
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "plane size mismatch");
        Plane {
            width,
            height,
            data,
        }
    }

    /// Sample at `(x, y)`; coordinates are clamped to the plane borders
    /// (H.264 unrestricted motion-vector padding).
    #[must_use]
    pub fn sample(&self, x: isize, y: isize) -> u8 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Writes a sample; out-of-range coordinates panic.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the plane.
    pub fn set_sample(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "sample out of plane");
        self.data[y * self.width + x] = value;
    }

    /// Extracts a 4×4 block at `(x, y)` (top-left corner), clamping at the
    /// borders.
    #[must_use]
    pub fn block4x4(&self, x: isize, y: isize) -> Block4x4 {
        self.square(x, y)
    }

    /// Extracts the 7×7 window at `(x, y)` (top-left corner), clamping at
    /// the borders.
    #[must_use]
    pub fn window7x7(&self, x: isize, y: isize) -> Window7x7 {
        self.square(x, y)
    }

    /// The `N`×`N` samples at `(x, y)`: whole row slices when the square
    /// lies inside the plane, [`Plane::sample`]'s clamp otherwise. Both
    /// read the same samples wherever the square is inside.
    fn square<T: From<u8> + Copy + Default, const N: usize>(
        &self,
        x: isize,
        y: isize,
    ) -> [[T; N]; N] {
        let mut out = [[T::default(); N]; N];
        let inside =
            x >= 0 && y >= 0 && x as usize + N <= self.width && y as usize + N <= self.height;
        if inside {
            let (x, y) = (x as usize, y as usize);
            for (r, row) in out.iter_mut().enumerate() {
                let start = (y + r) * self.width + x;
                for (v, &s) in row.iter_mut().zip(&self.data[start..start + N]) {
                    *v = T::from(s);
                }
            }
        } else {
            for (r, row) in out.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = T::from(self.sample(x + c as isize, y + r as isize));
                }
            }
        }
        out
    }

    /// Raw sample storage.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw sample storage.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// A YCbCr 4:2:0 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Luma plane (full resolution).
    pub y: Plane,
    /// Blue-difference chroma plane (half resolution).
    pub cb: Plane,
    /// Red-difference chroma plane (half resolution).
    pub cr: Plane,
}

impl Frame {
    /// Creates a uniform grey frame.
    ///
    /// # Panics
    ///
    /// Panics unless width and height are multiples of 16 (whole
    /// macroblocks, as the encoder requires).
    #[must_use]
    pub fn grey(width: usize, height: usize) -> Self {
        assert_eq!(width % 16, 0, "width must be a multiple of 16");
        assert_eq!(height % 16, 0, "height must be a multiple of 16");
        Frame {
            y: Plane::filled(width, height, 128),
            cb: Plane::filled(width / 2, height / 2, 128),
            cr: Plane::filled(width / 2, height / 2, 128),
        }
    }

    /// Frame width in luma samples.
    #[must_use]
    pub fn width(&self) -> usize {
        self.y.width
    }

    /// Frame height in luma samples.
    #[must_use]
    pub fn height(&self) -> usize {
        self.y.height
    }

    /// Number of 16×16 macroblocks.
    #[must_use]
    pub fn macroblocks(&self) -> usize {
        (self.width() / 16) * (self.height() / 16)
    }
}

/// Sum over all entries of a 4×4 block after applying `f`.
#[must_use]
pub fn block_sum(block: &Block4x4, f: impl Fn(i32) -> i64) -> i64 {
    block.iter().flatten().map(|&v| f(v)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_clamps_at_borders() {
        let mut p = Plane::filled(4, 4, 0);
        p.set_sample(0, 0, 7);
        p.set_sample(3, 3, 9);
        assert_eq!(p.sample(-5, -5), 7);
        assert_eq!(p.sample(10, 10), 9);
    }

    #[test]
    fn block_extraction_reads_row_major() {
        let data: Vec<u8> = (0..16).collect();
        let p = Plane::from_data(4, 4, data);
        let b = p.block4x4(0, 0);
        assert_eq!(b[0], [0, 1, 2, 3]);
        assert_eq!(b[3], [12, 13, 14, 15]);
    }

    #[test]
    fn frame_counts_macroblocks() {
        let f = Frame::grey(64, 32);
        assert_eq!(f.macroblocks(), 8);
        assert_eq!(f.cb.width, 32);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn odd_frame_rejected() {
        let _ = Frame::grey(60, 32);
    }

    #[test]
    fn block_sum_applies_function() {
        let b: Block4x4 = [[1, -2, 3, -4]; 4];
        assert_eq!(block_sum(&b, |v| i64::from(v.abs())), 40);
    }
}
