//! # hdsj-sfc — d-dimensional space-filling curves
//!
//! MSJ orders the cells of its grid hierarchy by their **Hilbert value**, and
//! the Hilbert-packed R-tree bulk loader sorts points the same way. This
//! crate provides:
//!
//! * [`BitKey`] — an arbitrary-precision, fixed-width bit string compared
//!   lexicographically MSB-first. A cell key at hierarchy level `l` in `d`
//!   dimensions has `d·l` bits, which for `d = 64, l = 16` is far beyond any
//!   primitive integer.
//! * [`hilbert`] — the d-dimensional Hilbert curve via Skilling's transpose
//!   algorithm ("Programming the Hilbert curve", AIP 2004): coordinate ↔
//!   index in both directions, for any `d ≥ 1` and up to 31 bits per
//!   dimension.
//! * [`zorder`] — plain bit-interleaving (Morton order), the cheap
//!   alternative used by the MSJ curve ablation (experiment E12).
//! * [`grid`] — quantization of unit-domain `f64` coordinates onto the
//!   `2^level` grid.
//! * [`KeyWriter`] — either curve's key written big-endian and zero-padded
//!   straight into a caller's bytes, with no allocation per key.
//!
//! Both curves are **hierarchical**: the first `d·l` bits of a point's key at
//! depth `L` identify (and rank) its enclosing level-`l` cell. MSJ's level
//! files and merge order rely on exactly this property, and the property
//! tests in this crate pin it down.
#![forbid(unsafe_code)]

pub mod bitkey;
pub mod grid;
pub mod hilbert;
pub mod zorder;

pub use bitkey::BitKey;

/// Which space-filling curve orders the grid cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Curve {
    /// The Hilbert curve (default; best clustering / locality).
    Hilbert,
    /// Morton / Z-order (cheaper to compute, worse locality).
    ZOrder,
}

impl Curve {
    /// Encodes grid coordinates (each `< 2^bits`) into a `dims·bits`-bit key
    /// along the chosen curve.
    pub fn key(&self, coords: &[u32], bits: u32) -> BitKey {
        match self {
            Curve::Hilbert => hilbert::index(coords, bits),
            Curve::ZOrder => zorder::index(coords, bits),
        }
    }

    /// Harness label.
    pub fn label(&self) -> &'static str {
        match self {
            Curve::Hilbert => "hilbert",
            Curve::ZOrder => "zorder",
        }
    }
}

/// Writes curve keys as bytes with no allocation per key — what MSJ's level
/// assignment and the R-tree's Hilbert packing run once per point.
#[derive(Debug)]
pub struct KeyWriter {
    curve: Curve,
    /// Skilling's transpose works in place; this is its copy of the cell.
    scratch: Vec<u32>,
}

impl KeyWriter {
    /// A writer for `dims`-dimensional cells along `curve`.
    pub fn new(curve: Curve, dims: usize) -> KeyWriter {
        KeyWriter {
            curve,
            scratch: vec![0; dims],
        }
    }

    /// Fills `out` with the key of `coords` (each `< 2^bits`, `bits ≤ 31`),
    /// big-endian and zero-padded: byte for byte
    /// `curve.key(coords, bits).zero_extended(8 · out.len()).to_be_bytes()`,
    /// and all zeros for `bits == 0` (the root cell). Panics when `out` is
    /// shorter than [`BitKey::byte_len`]`(dims · bits)`.
    pub fn write(&mut self, coords: &[u32], bits: u32, out: &mut [u8]) {
        assert!(
            bits <= hilbert::MAX_BITS,
            "bits per dimension must be at most {}",
            hilbert::MAX_BITS
        );
        match self.curve {
            Curve::Hilbert => {
                self.scratch.copy_from_slice(coords);
                hilbert::axes_to_transpose(&mut self.scratch, bits);
                bitkey::interleave_into(&self.scratch, bits, out);
            }
            Curve::ZOrder => bitkey::interleave_into(coords, bits, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_dispatch_matches_direct_calls() {
        let coords = [3u32, 5u32];
        assert_eq!(Curve::Hilbert.key(&coords, 4), hilbert::index(&coords, 4));
        assert_eq!(Curve::ZOrder.key(&coords, 4), zorder::index(&coords, 4));
        assert_eq!(Curve::Hilbert.label(), "hilbert");
        assert_eq!(Curve::ZOrder.label(), "zorder");
    }

    /// `interleave` as it was before the word-at-a-time core: one asserted
    /// `set` per bit. The reference the writer's bytes are checked against
    /// must not itself run through `interleave_words`.
    fn interleave_bit_by_bit(coords: &[u32], bits: u32) -> BitKey {
        let mut key = BitKey::zero(coords.len() as u32 * bits);
        let mut pos = 0;
        for plane in (0..bits).rev() {
            for &c in coords {
                key.set(pos, (c >> plane) & 1 == 1);
                pos += 1;
            }
        }
        key
    }

    #[test]
    fn writer_bytes_equal_the_padded_key_for_every_shape() {
        // Every (dims, level) a 20-deep hierarchy of up to 70 dimensions can
        // ask for: widths that are no multiple of 8, keys of 1, 2 and 22
        // words, level 0's all-zero key, and level < depth padding — the
        // buffer starts as 0xff so an unwritten byte shows.
        let depth = 20u32;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for dims in 1..=70usize {
            let padded = dims as u32 * depth;
            let mut out = vec![0u8; BitKey::byte_len(padded)];
            let mut writers =
                [Curve::Hilbert, Curve::ZOrder].map(|c| (c, KeyWriter::new(c, dims)));
            for level in 0..=depth {
                let mask = (1u32 << level) - 1;
                let cells = [
                    vec![0u32; dims],
                    vec![mask; dims],
                    (0..dims).map(|_| next() as u32 & mask).collect(),
                    (0..dims).map(|_| next() as u32 & mask).collect(),
                ];
                for cell in &cells {
                    assert_eq!(
                        BitKey::interleave(cell, level.max(1)),
                        interleave_bit_by_bit(cell, level.max(1)),
                        "interleave dims {dims} bits {level}"
                    );
                    for (curve, writer) in writers.iter_mut() {
                        let want = match level {
                            0 => BitKey::zero(padded),
                            _ => curve.key(cell, level).zero_extended(padded),
                        };
                        out.fill(0xff);
                        writer.write(cell, level, &mut out);
                        assert_eq!(
                            out,
                            want.to_be_bytes(),
                            "{curve:?} dims {dims} level {level} cell {cell:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn writer_accepts_buffers_that_are_no_multiple_of_eight() {
        // Any length from the key's own words up is zero-padded.
        let mut writer = KeyWriter::new(Curve::Hilbert, 3);
        let want = Curve::Hilbert.key(&[5, 1, 6], 3).to_be_bytes();
        let mut out = [0xffu8; 13];
        writer.write(&[5, 1, 6], 3, &mut out);
        assert_eq!(out[..8], want[..]);
        assert_eq!(out[8..], [0u8; 5]);
    }

    #[test]
    #[should_panic]
    fn writer_rejects_a_buffer_shorter_than_the_key() {
        KeyWriter::new(Curve::ZOrder, 9).write(&[0; 9], 8, &mut [0u8; 8]);
    }
}
