//! The d-dimensional Hilbert curve (Skilling's transpose algorithm).
//!
//! John Skilling, *Programming the Hilbert curve*, AIP Conf. Proc. 707
//! (2004). The algorithm works on the "transposed" representation of a
//! Hilbert index: `d` words of `b` bits whose interleaving (MSB plane first,
//! dimension 0 first within a plane) is the `d·b`-bit index. Both directions
//! run in `O(d·b)` with tiny constants and no tables, which is what makes
//! Hilbert ordering affordable at `d = 64`.

use crate::bitkey::BitKey;

/// Maximum supported bits per dimension.
pub const MAX_BITS: u32 = 31;

/// In-place conversion: grid coordinates → transposed Hilbert index.
pub(crate) fn axes_to_transpose(x: &mut [u32], bits: u32) {
    let n = x.len();
    if n <= 1 || bits == 0 {
        return; // 1-D Hilbert curve is the identity.
    }
    let m = 1u32 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            // Bit `q` of x[i] set: invert the low bits of x[0]; clear: swap
            // the low bits of x[0] and x[i]. Written as masks, not a branch —
            // the bit is as good as random and this loop is the key's cost.
            let set = 0u32.wrapping_sub(u32::from(x[i] & q != 0));
            let t = (x[0] ^ x[i]) & p & !set;
            x[0] ^= t | (p & set);
            x[i] ^= t;
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// In-place conversion: transposed Hilbert index → grid coordinates.
fn transpose_to_axes(x: &mut [u32], bits: u32) {
    let n = x.len();
    if n <= 1 || bits == 0 {
        return;
    }
    let top = 2u32 << (bits - 1);
    // Gray decode by H ^ (H/2).
    let t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2;
    while q != top {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Hilbert index of `coords` (each `< 2^bits`) as a `d·bits`-bit key.
pub fn index(coords: &[u32], bits: u32) -> BitKey {
    assert!(
        (1..=MAX_BITS).contains(&bits),
        "bits per dimension must be in 1..={MAX_BITS}"
    );
    let mut x = coords.to_vec();
    axes_to_transpose(&mut x, bits);
    BitKey::interleave(&x, bits)
}

/// Grid coordinates of a Hilbert `key` of width `dims · bits`.
pub fn coords(key: &BitKey, dims: usize, bits: u32) -> Vec<u32> {
    let mut x = key.deinterleave(dims, bits);
    transpose_to_axes(&mut x, bits);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Decoded coordinates for an integer index value (test helper).
    fn coords_of_u64(h: u64, dims: usize, bits: u32) -> Vec<u32> {
        let nbits = dims as u32 * bits;
        assert!(nbits <= 64);
        let mut key = BitKey::zero(nbits);
        for i in 0..nbits {
            key.set(i, (h >> (nbits - 1 - i)) & 1 == 1);
        }
        coords(&key, dims, bits)
    }

    #[test]
    fn one_dim_is_identity() {
        for v in [0u32, 1, 5, 255] {
            let k = index(&[v], 8);
            assert_eq!(coords(&k, 1, 8), vec![v]);
            assert_eq!(k, BitKey::interleave(&[v], 8));
        }
    }

    #[test]
    fn two_dim_order_2_matches_known_curve() {
        // The canonical 2x2 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
        let expected = [(0, 0), (0, 1), (1, 1), (1, 0)];
        for (h, &(x, y)) in expected.iter().enumerate() {
            assert_eq!(coords_of_u64(h as u64, 2, 1), vec![x, y], "h={h}");
        }
    }

    #[test]
    fn walk_is_unit_steps_2d() {
        // Consecutive Hilbert indices differ by 1 in exactly one coordinate.
        let bits = 4;
        let mut prev = coords_of_u64(0, 2, bits);
        for h in 1..(1u64 << (2 * bits)) {
            let cur = coords_of_u64(h, 2, bits);
            let dist: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(dist, 1, "step {h}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn walk_is_unit_steps_3d() {
        let bits = 2;
        let mut prev = coords_of_u64(0, 3, bits);
        for h in 1..(1u64 << (3 * bits)) {
            let cur = coords_of_u64(h, 3, bits);
            let dist: u32 = prev.iter().zip(&cur).map(|(a, b)| a.abs_diff(*b)).sum();
            assert_eq!(dist, 1, "step {h}");
            prev = cur;
        }
    }

    #[test]
    fn bijective_over_small_grids() {
        for (dims, bits) in [(2usize, 3u32), (3, 2), (4, 2)] {
            let total = 1u64 << (dims as u32 * bits);
            let mut seen = std::collections::HashSet::new();
            for h in 0..total {
                let c = coords_of_u64(h, dims, bits);
                assert!(c.iter().all(|&v| v < (1 << bits)));
                assert!(seen.insert(c.clone()), "duplicate coords {c:?}");
                // Round trip.
                assert_eq!(coords(&index(&c, bits), dims, bits), c);
            }
            assert_eq!(seen.len() as u64, total);
        }
    }

    #[test]
    fn hierarchical_prefix_property() {
        // The first d*l bits of a depth-L key equal the depth-l key of the
        // enclosing cell (coords >> (L - l)) — the property MSJ's level
        // files rely on.
        let dims = 3usize;
        let full = 5u32;
        for seed in 0..200u32 {
            let c: Vec<u32> = (0..dims as u32)
                .map(|i| (seed.wrapping_mul(2654435761).wrapping_add(i * 40503) >> 3) & 0x1f)
                .collect();
            let key = index(&c, full);
            for l in 1..=full {
                let cell: Vec<u32> = c.iter().map(|v| v >> (full - l)).collect();
                let cell_key = index(&cell, l);
                assert_eq!(
                    key.prefix(dims as u32 * l),
                    cell_key,
                    "coords {c:?} level {l}"
                );
            }
        }
    }

    #[test]
    fn encoder_matches_free_function() {
        let mut enc = crate::KeyWriter::new(crate::Curve::Hilbert, 4);
        let mut bytes = [0xffu8; 8];
        for seed in 0..50u32 {
            let c: Vec<u32> = (0..4).map(|i| (seed * 31 + i * 17) % 256).collect();
            enc.write(&c, 8, &mut bytes);
            assert_eq!(bytes.to_vec(), index(&c, 8).zero_extended(64).to_be_bytes());
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(dims in 1usize..8, bits in 1u32..10, seed in any::<u64>()) {
            let mask = (1u32 << bits) - 1;
            let c: Vec<u32> = (0..dims)
                .map(|i| ((seed.rotate_left(i as u32 * 7) as u32) ^ (i as u32).wrapping_mul(0x9e3779b9)) & mask)
                .collect();
            let k = index(&c, bits);
            prop_assert_eq!(k.nbits(), dims as u32 * bits);
            prop_assert_eq!(coords(&k, dims, bits), c);
        }

        #[test]
        fn prop_prefix_property(dims in 1usize..6, seed in any::<u64>()) {
            let full = 8u32;
            let mask = (1u32 << full) - 1;
            let c: Vec<u32> = (0..dims)
                .map(|i| ((seed.rotate_right(i as u32 * 11) as u32) ^ (i as u32).wrapping_mul(0x85eb_ca6b)) & mask)
                .collect();
            let key = index(&c, full);
            for l in 1..=full {
                let cell: Vec<u32> = c.iter().map(|v| v >> (full - l)).collect();
                prop_assert_eq!(key.prefix(dims as u32 * l), index(&cell, l));
            }
        }
    }
}
