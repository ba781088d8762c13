//! Entropy coding of quantised coefficients: zig-zag scan, run-level
//! conversion and Exp-Golomb codes into a real bitstream.
//!
//! This closes the TQ stage of the paper's Fig. 1 phase model: after
//! transform and quantisation, coefficients are scanned, run-length
//! converted and written with the (universal) Exp-Golomb codes H.264 uses
//! for most syntax elements. Bit counts from this module drive the
//! bitrate-vs-QP behaviour of the encoder.

use crate::block::Block4x4;

/// The 4×4 zig-zag scan order of H.264 (frame coding).
pub const ZIGZAG_4X4: [(usize, usize); 16] = [
    (0, 0),
    (0, 1),
    (1, 0),
    (2, 0),
    (1, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (2, 1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (2, 3),
    (3, 2),
    (3, 3),
];

/// Scans a block into the 16-coefficient zig-zag sequence.
#[must_use]
pub fn zigzag_scan(block: &Block4x4) -> [i32; 16] {
    let mut out = [0i32; 16];
    for (i, &(r, c)) in ZIGZAG_4X4.iter().enumerate() {
        out[i] = block[r][c];
    }
    out
}

/// Reassembles a block from a zig-zag sequence (inverse of
/// [`zigzag_scan`]).
#[must_use]
pub fn zigzag_unscan(seq: &[i32; 16]) -> Block4x4 {
    let mut out = [[0i32; 4]; 4];
    for (i, &(r, c)) in ZIGZAG_4X4.iter().enumerate() {
        out[r][c] = seq[i];
    }
    out
}

/// A `(run, level)` pair: `run` zeros followed by a non-zero `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLevel {
    /// Number of zero coefficients preceding the level.
    pub run: u8,
    /// The non-zero coefficient value.
    pub level: i32,
}

/// Converts a zig-zag sequence into `(run, level)` pairs (trailing zeros
/// are implicit).
pub fn run_level_encode(seq: &[i32; 16]) -> impl Iterator<Item = RunLevel> + '_ {
    let mut run = 0u8;
    seq.iter().filter_map(move |&level| {
        if level == 0 {
            run += 1;
            None
        } else {
            let pair = RunLevel { run, level };
            run = 0;
            Some(pair)
        }
    })
}

/// Expands `(run, level)` pairs back into a 16-coefficient sequence.
///
/// # Panics
///
/// Panics if the pairs describe more than 16 coefficients.
#[must_use]
pub fn run_level_decode(pairs: &[RunLevel]) -> [i32; 16] {
    let mut out = [0i32; 16];
    let mut pos = 0usize;
    for p in pairs {
        pos += usize::from(p.run);
        assert!(pos < 16, "run/level sequence overflows the block");
        out[pos] = p.level;
        pos += 1;
    }
    out
}

/// A most-significant-bit-first bit writer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the trailing partial byte (0..8).
    partial: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the `count` low bits of `value`, MSB first, filling the
    /// trailing byte before starting the next.
    ///
    /// The trailing partial byte and the new bits meet in one 64-bit
    /// accumulator, MSB-aligned (at most 7 + 32 bits). Its eight bytes
    /// replace the partial byte, and the buffer is then cut back to the
    /// bytes the bits reach: a fixed number of steps whatever `count`
    /// and the alignment. The last byte stays zero-padded.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn put_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "at most 32 bits at a time");
        let used = u32::from(self.partial);
        let keep = self.bytes.len() - usize::from(used > 0);
        let head = self.bytes.get(keep).map_or(0, |&b| u64::from(b) << 56);
        // Shifting `value` to the top drops its bits above `count`; the
        // two steps keep every shift below 64.
        let bits = (u64::from(value) << 32) << (32 - u32::from(count));
        let acc = head | (bits >> used);
        let total = used + u32::from(count);
        self.bytes.truncate(keep);
        self.bytes.extend_from_slice(&acc.to_be_bytes());
        self.bytes.truncate(keep + total.div_ceil(8) as usize);
        self.partial = (total % 8) as u8;
    }

    /// Appends an unsigned Exp-Golomb code `ue(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v == u32::MAX`: its code has 32 leading zeros, one more
    /// than [`BitReader::ue`] reads.
    pub fn put_ue(&mut self, v: u32) {
        let x = u64::from(v) + 1;
        let bits = 64 - x.leading_zeros(); // position of the MSB
        assert!(
            bits <= 32,
            "ue({v}) needs {} leading zeros; at most 31 are readable",
            bits - 1
        );
        // `bits − 1` leading zeros, then `x`: `x` in `2·bits − 1` bits.
        let len = 2 * bits - 1;
        if len <= 32 {
            self.put_bits(x as u32, len as u8);
        } else {
            self.put_bits(0, (bits - 1) as u8);
            self.put_bits(x as u32, bits as u8);
        }
    }

    /// Appends a signed Exp-Golomb code `se(v)` (H.264 mapping:
    /// v>0 → 2v−1, v≤0 → −2v).
    ///
    /// # Panics
    ///
    /// Panics if `v == i32::MIN`: it maps to 2³², past [`BitWriter::put_ue`]'s
    /// range.
    pub fn put_se(&mut self, v: i32) {
        let wide = i64::from(v);
        let mapped = if v > 0 { 2 * wide - 1 } else { -2 * wide };
        let mapped = u32::try_from(mapped)
            .unwrap_or_else(|_| panic!("se({v}) maps to {mapped}, past ue's range"));
        self.put_ue(mapped);
    }

    /// Total bits written.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        if self.partial == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + usize::from(self.partial)
        }
    }

    /// The written bytes (last byte zero-padded).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the writer, returning the byte buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A matching MSB-first bit reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a byte buffer.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at the end of the buffer.
    pub fn bit(&mut self) -> Option<u32> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        Some(u32::from(bit))
    }

    /// Reads `count` bits MSB-first.
    pub fn bits(&mut self, count: u8) -> Option<u32> {
        let mut v = 0u32;
        for _ in 0..count {
            v = (v << 1) | self.bit()?;
        }
        Some(v)
    }

    /// Reads an unsigned Exp-Golomb code.
    pub fn ue(&mut self) -> Option<u32> {
        let mut zeros = 0u8;
        while self.bit()? == 0 {
            zeros += 1;
            if zeros > 31 {
                return None; // malformed
            }
        }
        let rest = self.bits(zeros)?;
        Some((1u32 << zeros) + rest - 1)
    }

    /// Reads a signed Exp-Golomb code.
    pub fn se(&mut self) -> Option<i32> {
        let v = self.ue()?;
        Some(if v % 2 == 1 {
            v.div_ceil(2) as i32
        } else {
            -((v / 2) as i32)
        })
    }
}

/// Encodes one quantised block: coefficient count `ue`, then per pair
/// `ue(run)` + `se(level)`. Returns the bit count written: 1 for an
/// all-zero block, which ends at its count.
pub fn encode_block(writer: &mut BitWriter, levels: &Block4x4) -> usize {
    let before = writer.bit_len();
    let count = levels.iter().flatten().filter(|&&v| v != 0).count();
    writer.put_ue(count as u32);
    if count > 0 {
        for p in run_level_encode(&zigzag_scan(levels)) {
            writer.put_ue(u32::from(p.run));
            writer.put_se(p.level);
        }
    }
    writer.bit_len() - before
}

/// Decodes one block written by [`encode_block`].
pub fn decode_block(reader: &mut BitReader<'_>) -> Option<Block4x4> {
    let n = reader.ue()?;
    let mut pairs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let run = reader.ue()?;
        let level = reader.se()?;
        if level == 0 || run > 15 {
            return None; // malformed stream
        }
        pairs.push(RunLevel {
            run: run as u8,
            level,
        });
    }
    let total: usize = pairs.iter().map(|p| usize::from(p.run) + 1).sum();
    if total > 16 {
        return None;
    }
    Some(zigzag_unscan(&run_level_decode(&pairs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrips() {
        let mut b = [[0i32; 4]; 4];
        for (r, row) in b.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 4 + c) as i32;
            }
        }
        assert_eq!(zigzag_unscan(&zigzag_scan(&b)), b);
    }

    #[test]
    fn zigzag_orders_low_frequencies_first() {
        let mut b = [[0i32; 4]; 4];
        b[0][0] = 9; // DC
        b[3][3] = 7; // highest frequency
        let seq = zigzag_scan(&b);
        assert_eq!(seq[0], 9);
        assert_eq!(seq[15], 7);
    }

    #[test]
    fn run_level_roundtrips() {
        let seq = [0, 5, 0, 0, -3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2];
        let pairs: Vec<RunLevel> = run_level_encode(&seq).collect();
        assert_eq!(
            pairs,
            vec![
                RunLevel { run: 1, level: 5 },
                RunLevel { run: 2, level: -3 },
                RunLevel { run: 3, level: 1 },
                RunLevel { run: 6, level: 2 },
            ]
        );
        assert_eq!(run_level_decode(&pairs), seq);
    }

    #[test]
    fn exp_golomb_roundtrips() {
        // Small values, and the ends of the range whose codes have at
        // most 31 leading zeros.
        let unsigned = || (0..200u32).chain([1 << 31, u32::MAX - 1]);
        let signed = || (-100..100i32).chain([1 << 30, -(1 << 30), i32::MAX, i32::MIN + 1]);
        let mut w = BitWriter::new();
        for v in unsigned() {
            w.put_ue(v);
        }
        for v in signed() {
            w.put_se(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in unsigned() {
            assert_eq!(r.ue(), Some(v));
        }
        for v in signed() {
            assert_eq!(r.se(), Some(v));
        }
    }

    #[test]
    #[should_panic(expected = "se(-2147483648)")]
    fn se_refuses_i32_min() {
        BitWriter::new().put_se(i32::MIN);
    }

    #[test]
    #[should_panic(expected = "ue(4294967295)")]
    fn ue_refuses_u32_max() {
        BitWriter::new().put_ue(u32::MAX);
    }

    #[test]
    fn exp_golomb_code_lengths() {
        // ue(0) = "1" (1 bit); ue(1) = "010" (3); ue(7) = 7 bits.
        let len = |v: u32| {
            let mut w = BitWriter::new();
            w.put_ue(v);
            w.bit_len()
        };
        assert_eq!(len(0), 1);
        assert_eq!(len(1), 3);
        assert_eq!(len(2), 3);
        assert_eq!(len(3), 5);
        assert_eq!(len(7), 7);
    }

    #[test]
    fn block_codec_roundtrips() {
        let block = [[17, -2, 0, 0], [3, 0, 0, 1], [0, 0, 0, 0], [-1, 0, 0, 0]];
        let mut w = BitWriter::new();
        let bits = encode_block(&mut w, &block);
        assert!(bits > 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_block(&mut r), Some(block));
    }

    #[test]
    fn empty_block_is_one_symbol() {
        let mut w = BitWriter::new();
        let bits = encode_block(&mut w, &[[0; 4]; 4]);
        assert_eq!(bits, 1); // ue(0)
    }

    #[test]
    fn sparser_blocks_cost_fewer_bits() {
        let dense = [[3i32; 4]; 4];
        let mut sparse = [[0i32; 4]; 4];
        sparse[0][0] = 3;
        let cost = |b: &Block4x4| {
            let mut w = BitWriter::new();
            encode_block(&mut w, b)
        };
        assert!(cost(&sparse) < cost(&dense));
    }

    #[test]
    fn malformed_stream_is_rejected() {
        // A stream claiming 16 pairs but ending early.
        let mut w = BitWriter::new();
        w.put_ue(16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_block(&mut r), None);
    }

    #[test]
    fn bit_writer_packs_msb_first() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0b1, 1);
        assert_eq!(w.bit_len(), 4);
        assert_eq!(w.as_bytes(), &[0b1011_0000]);
    }
}
