//! Size-separation level assignment and the level-file record layout.

use hdsj_core::{Error, Result};
use hdsj_sfc::{grid, BitKey, Curve, KeyWriter};

/// Tag byte marking entries of the left input.
pub const TAG_A: u8 = 0;
/// Tag byte marking entries of the right input.
pub const TAG_B: u8 = 1;

/// Fixed layout of one level-file record:
///
/// ```text
/// [ cell key, zero-padded to d·depth bits (big-endian) | level: u8 | tag: u8 | id: u32 LE ]
/// ```
///
/// Big-endian key bytes followed by the level byte mean the external sort's
/// whole-record `memcmp` order *is* the `(padded key, level)` DFS order of
/// the cell hierarchy, with `(tag, id bytes)` as the tiebreak inside a cell.
#[derive(Clone, Copy, Debug)]
pub struct RecordCodec {
    key_bits: u32,
    key_bytes: usize,
}

impl RecordCodec {
    /// Codec for `dims`-dimensional keys at hierarchy depth `depth`.
    pub fn new(dims: usize, depth: u32) -> RecordCodec {
        let key_bits = dims as u32 * depth;
        RecordCodec {
            key_bits,
            key_bytes: BitKey::byte_len(key_bits),
        }
    }

    /// Total record length in bytes.
    pub fn record_len(&self) -> usize {
        self.key_bytes + 1 + 1 + 4
    }

    /// The prefix that decides the sweep's cell order: key bytes + level
    /// byte (the sort compares whole records; the rest breaks ties).
    pub fn sort_key_len(&self) -> usize {
        self.key_bytes + 1
    }

    /// Width of the padded keys in bits.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Serializes one entry into `out` (which must be `record_len` long).
    pub fn encode(&self, key: &BitKey, level: u8, tag: u8, id: u32, out: &mut [u8]) {
        debug_assert_eq!(key.nbits(), self.key_bits);
        out[..self.key_bytes].copy_from_slice(&key.to_be_bytes());
        self.put_meta(level, tag, id, out);
    }

    /// Assigns `p` and serializes its entry into `out` in one step: the key
    /// is written straight into the record's first bytes, no [`BitKey`] is
    /// built. The same bytes as `encode` of `assigner.assign(p)`.
    pub fn encode_point(
        &self,
        assigner: &mut Assigner,
        p: &[f64],
        tag: u8,
        id: u32,
        out: &mut [u8],
    ) {
        debug_assert_eq!(assigner.key_bits, self.key_bits);
        let level = assigner.assign_into(p, &mut out[..self.key_bytes]);
        self.put_meta(level, tag, id, out);
    }

    fn put_meta(&self, level: u8, tag: u8, id: u32, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.record_len());
        out[self.key_bytes] = level;
        out[self.key_bytes + 1] = tag;
        out[self.key_bytes + 2..].copy_from_slice(&id.to_le_bytes());
    }

    /// The key bytes of a record.
    pub fn key_of<'r>(&self, rec: &'r [u8]) -> &'r [u8] {
        &rec[..self.key_bytes]
    }

    /// The `(level, tag, id)` of a record.
    pub fn meta_of(&self, rec: &[u8]) -> (u8, u8, u32) {
        let level = rec[self.key_bytes];
        let tag = rec[self.key_bytes + 1];
        let mut id_bytes = [0u8; 4];
        id_bytes.copy_from_slice(&rec[self.key_bytes + 2..self.key_bytes + 6]);
        (level, tag, u32::from_le_bytes(id_bytes))
    }
}

/// Half the side of an ε-cube, inflated by one part in 10¹² so cubes whose
/// true extent touches a cell boundary are conservatively classified as
/// crossing it (extra candidates are refined away; lost candidates would be
/// wrong answers). The sweep's view test quantises with the same value.
pub fn cube_half(eps: f64) -> f64 {
    eps / 2.0 * (1.0 + 1e-12)
}

/// Assigns ε-cubes to hierarchy levels and cell keys.
pub struct Assigner {
    depth: u32,
    /// Half cube side ([`cube_half`]).
    half: f64,
    key_bits: u32,
    writer: KeyWriter,
    cell: Vec<u32>,
}

impl Assigner {
    /// Creates an assigner for the given geometry.
    pub fn new(dims: usize, depth: u32, eps: f64, curve: Curve) -> Result<Assigner> {
        if !(1..=20).contains(&depth) {
            return Err(Error::InvalidInput(format!("depth {depth} not in 1..=20")));
        }
        Ok(Assigner {
            depth,
            half: cube_half(eps),
            key_bits: dims as u32 * depth,
            writer: KeyWriter::new(curve, dims),
            cell: vec![0; dims],
        })
    }

    /// The level and zero-padded cell key of the cube centred on `p`
    /// ([`Assigner::assign_into`], as a [`BitKey`]).
    pub fn assign(&mut self, p: &[f64]) -> (BitKey, u8) {
        let mut bytes = vec![0u8; BitKey::byte_len(self.key_bits)];
        let level = self.assign_into(p, &mut bytes);
        (BitKey::from_be_bytes(self.key_bits, &bytes), level)
    }

    /// Writes the zero-padded cell key of the cube centred on `p` into
    /// `key` (`BitKey::byte_len(d·depth)` bytes, big-endian) and returns its
    /// level.
    ///
    /// Level = the finest grid at which the cube `[p−ε/2, p+ε/2]` crosses no
    /// cell boundary, i.e. the minimum over dimensions of the common prefix
    /// length of the quantized cube faces. The cell key is the curve index
    /// of the containing cell at that level, zero-extended to full depth;
    /// level 0's is all zeros.
    pub fn assign_into(&mut self, p: &[f64], key: &mut [u8]) -> u8 {
        debug_assert_eq!(p.len(), self.cell.len());
        let mut level = self.depth;
        // Per-dimension loop over one point's coordinates (d entries), bounded
        // by the layout not the dataset.
        for (cell, &x) in self.cell.iter_mut().zip(p) {
            *cell = grid::quantize(x - self.half, self.depth);
            let hi = grid::quantize(x + self.half, self.depth);
            level = level.min(grid::common_prefix_len(*cell, hi, self.depth));
        }
        // d entries of one point, as above.
        for cell in self.cell.iter_mut() {
            *cell >>= self.depth - level;
        }
        self.writer.write(&self.cell, level, key);
        level as u8
    }
}

/// Bit-prefix equality on big-endian key bytes: do `a` and `b` agree on
/// their first `nbits` bits? (The sweep's ancestor test.)
pub fn prefix_bits_equal(a: &[u8], b: &[u8], nbits: u32) -> bool {
    let full = (nbits / 8) as usize;
    if a[..full] != b[..full] {
        return false;
    }
    let rem = nbits % 8;
    if rem == 0 {
        return true;
    }
    let mask = 0xffu8 << (8 - rem);
    (a[full] & mask) == (b[full] & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip() {
        let codec = RecordCodec::new(3, 5);
        let key = BitKey::interleave(&[1, 2, 3], 5);
        let mut rec = vec![0u8; codec.record_len()];
        codec.encode(&key, 4, TAG_B, 123456, &mut rec);
        assert_eq!(codec.key_of(&rec), key.to_be_bytes());
        assert_eq!(codec.meta_of(&rec), (4, TAG_B, 123456));
        assert_eq!(codec.sort_key_len(), codec.record_len() - 5);
    }

    #[test]
    fn record_encoded_in_place_equals_the_one_built_from_a_bitkey() {
        // Keys of one and of several words, both curves, levels 0..=depth.
        for (dims, eps) in [(1usize, 0.3), (3, 0.004), (9, 0.01), (40, 0.05)] {
            for curve in [Curve::Hilbert, Curve::ZOrder] {
                let depth = ((1.0f64 / eps).log2().floor() as u32).min(16);
                let codec = RecordCodec::new(dims, depth);
                let mut a = Assigner::new(dims, depth, eps, curve).unwrap();
                let (mut want, mut got) = (
                    vec![0u8; codec.record_len()],
                    vec![0xffu8; codec.record_len()],
                );
                let mut levels = std::collections::BTreeSet::new();
                for id in 0..400u32 {
                    let p: Vec<f64> = (0..dims as u32)
                        .map(|i| f64::from((id * 40503 + i * 2477) % 9973) / 9973.0)
                        .collect();
                    let (key, level) = a.assign(&p);
                    codec.encode(&key, level, TAG_B, id, &mut want);
                    codec.encode_point(&mut a, &p, TAG_B, id, &mut got);
                    assert_eq!(got, want, "{curve:?} dims {dims} point {id}");
                    levels.insert(level);
                }
                assert!(levels.len() > 1, "{curve:?} dims {dims}: {levels:?}");
            }
        }
    }

    #[test]
    fn central_cube_lands_in_level_zero() {
        // A cube spanning the centre of the space crosses the level-1
        // boundary in dimension 0.
        let mut a = Assigner::new(2, 8, 0.1, Curve::Hilbert).unwrap();
        let (key, level) = a.assign(&[0.5, 0.25]);
        assert_eq!(level, 0);
        assert_eq!(key, BitKey::zero(16));
    }

    #[test]
    fn interior_cube_lands_in_deep_level() {
        // eps = 2^-6: the cube has side 1/64 and sits well inside a cell of
        // side 1/32 ⇒ level 5 at least.
        let mut a = Assigner::new(2, 8, 1.0 / 64.0, Curve::Hilbert).unwrap();
        let (_, level) = a.assign(&[0.2603, 0.7309]);
        assert!(level >= 5, "level {level}");
    }

    #[test]
    fn level_is_min_over_dimensions() {
        let eps = 0.01;
        let mut a = Assigner::new(2, 8, eps, Curve::Hilbert).unwrap();
        // Dimension 1 crosses the 0.5 boundary; dimension 0 is interior.
        let (_, level) = a.assign(&[0.26, 0.5]);
        assert_eq!(level, 0);
        // Crossing the 0.25 boundary (level-2 grid line) allows level 1.
        let (_, level) = a.assign(&[0.26, 0.25]);
        assert_eq!(level, 1);
    }

    #[test]
    fn boundary_touching_cube_is_conservative() {
        // Cube hi face exactly on a cell boundary: must be classified as
        // crossing (coarser level), so touching pairs are never missed.
        let eps = 0.25;
        let mut a = Assigner::new(1, 4, eps, Curve::Hilbert).unwrap();
        // p = 0.375: cube = [0.25, 0.5] — hi touches the level-1 boundary.
        let (_, level) = a.assign(&[0.375]);
        assert_eq!(level, 0);
    }

    #[test]
    fn cube_sticking_out_of_the_domain_is_clamped() {
        let mut a = Assigner::new(2, 8, 0.2, Curve::Hilbert).unwrap();
        let (_, level) = a.assign(&[0.01, 0.99]);
        // Faces clamp to the domain; assignment must not panic and the cube
        // stays in a valid level.
        assert!(level <= 8);
    }

    #[test]
    fn assigned_key_is_prefix_of_any_interior_point_key() {
        // The invariant the sweep relies on: the cell key (padded) agrees
        // with the full-depth key of the cube's centre on d·level bits.
        let depth = 8u32;
        let dims = 3usize;
        let mut a = Assigner::new(dims, depth, 0.03, Curve::Hilbert).unwrap();
        let mut cell = vec![0u32; dims];
        for seed in 0..50u32 {
            let p: Vec<f64> = (0..dims)
                .map(|i| {
                    let v = (seed.wrapping_mul(2654435761).wrapping_add(i as u32 * 97) % 1000)
                        as f64
                        / 1000.0;
                    v.clamp(0.0, 0.999)
                })
                .collect();
            let (key, level) = a.assign(&p);
            if level == 0 {
                continue;
            }
            grid::quantize_point(&p, depth, &mut cell);
            let full_key = Curve::Hilbert.key(&cell, depth);
            assert!(
                prefix_bits_equal(
                    &key.to_be_bytes(),
                    &full_key.to_be_bytes(),
                    dims as u32 * level as u32
                ),
                "point {p:?} level {level}"
            );
        }
    }

    #[test]
    fn prefix_bits_equal_handles_partial_bytes() {
        let a = [0b1010_1100u8, 0xff];
        let b = [0b1010_1111u8, 0x00];
        assert!(prefix_bits_equal(&a, &b, 4));
        assert!(prefix_bits_equal(&a, &b, 6));
        assert!(!prefix_bits_equal(&a, &b, 7));
        assert!(!prefix_bits_equal(&a, &b, 16));
        assert!(prefix_bits_equal(&a, &a, 16));
        assert!(prefix_bits_equal(&a, &b, 0));
    }

    #[test]
    fn depth_bounds_validated() {
        assert!(Assigner::new(2, 0, 0.1, Curve::Hilbert).is_err());
        assert!(Assigner::new(2, 21, 0.1, Curve::Hilbert).is_err());
        assert!(Assigner::new(2, 20, 0.1, Curve::Hilbert).is_ok());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn assignment_invariants(
            dims in 1usize..6,
            depth in 1u32..10,
            eps in 0.001f64..0.9,
            seed in any::<u64>(),
        ) {
            let mut a = Assigner::new(dims, depth, eps, Curve::Hilbert).unwrap();
            // Deterministic pseudo-random point from the seed.
            let p: Vec<f64> = (0..dims)
                .map(|i| {
                    let h = seed.rotate_left(i as u32 * 9).wrapping_mul(0x9e3779b97f4a7c15);
                    ((h >> 11) as f64 / (1u64 << 53) as f64).min(1.0 - 1e-12)
                })
                .collect();
            let (key, level) = a.assign(&p);
            // Level within bounds, key width fixed.
            prop_assert!(u32::from(level) <= depth);
            prop_assert_eq!(key.nbits(), dims as u32 * depth);
            // Cube-containment: the cell identified by the key contains the
            // (clamped) cube faces in every dimension.
            if level > 0 {
                let cell = key.prefix(dims as u32 * u32::from(level))
                    .deinterleave(dims, u32::from(level));
                // Undo the Hilbert transform by recomputing from the point.
                let mut expected_cell = vec![0u32; dims];
                for (i, &x) in p.iter().enumerate() {
                    expected_cell[i] =
                        grid::quantize(x - eps / 2.0 * (1.0 + 1e-12), depth) >> (depth - u32::from(level));
                }
                // The curve permutes cell coordinates into key space; decode
                // via the curve for comparison.
                let expected_key = Curve::Hilbert.key(&expected_cell, u32::from(level));
                prop_assert_eq!(
                    key.prefix(dims as u32 * u32::from(level)),
                    expected_key
                );
                let _ = cell;
            }
            // Determinism.
            let (key2, level2) = a.assign(&p);
            prop_assert_eq!(key, key2);
            prop_assert_eq!(level, level2);
        }

        #[test]
        fn close_points_share_ancestor_cells(
            dims in 1usize..5,
            eps in 0.01f64..0.4,
            seed in any::<u64>(),
        ) {
            // Two points within L_inf eps: their assigned cells must be
            // ancestor-related (the sweep's correctness condition).
            let depth = 8u32;
            let mut a = Assigner::new(dims, depth, eps, Curve::Hilbert).unwrap();
            let p: Vec<f64> = (0..dims)
                .map(|i| {
                    let h = seed.rotate_left(i as u32 * 7).wrapping_mul(0x2545F4914F6CDD1D);
                    0.1 + 0.8 * ((h >> 11) as f64 / (1u64 << 53) as f64)
                })
                .collect();
            let q: Vec<f64> = p
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let h = seed.rotate_right(i as u32 * 5).wrapping_mul(0x9E3779B97F4A7C15);
                    let jitter = ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0 * eps;
                    (x + jitter).clamp(0.0, 1.0 - 1e-12)
                })
                .collect();
            // Only meaningful when they really are within eps.
            let linf = p.iter().zip(&q).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            prop_assume!(linf <= eps);
            let (kp, lp) = a.assign(&p);
            let (kq, lq) = a.assign(&q);
            let (shallow_key, shallow_level, deep_key) =
                if lp <= lq { (&kp, lp, &kq) } else { (&kq, lq, &kp) };
            prop_assert!(
                prefix_bits_equal(
                    &shallow_key.to_be_bytes(),
                    &deep_key.to_be_bytes(),
                    dims as u32 * u32::from(shallow_level)
                ),
                "cells not ancestor-related: {lp} vs {lq}"
            );
        }
    }
}
