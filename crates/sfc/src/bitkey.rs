//! Arbitrary-precision fixed-width bit strings.
//!
//! Hilbert/Z-order keys in `d` dimensions at grid depth `L` carry `d·L` bits
//! — up to 2048 bits for `d = 64, L = 32` — so no primitive integer fits.
//! [`BitKey`] stores the bits MSB-first in `u64` words; because unused
//! trailing bits are always zero, deriving `Ord` on `(words)` for keys of the
//! same width gives exactly the lexicographic bit order the sweep algorithms
//! need.

use std::cmp::Ordering;
use std::fmt;

/// A fixed-width bit string, compared lexicographically MSB-first.
///
/// Bit index 0 is the **most significant** bit. Keys of different widths
/// compare by zero-padding the shorter to the longer width (the "padded
/// order" used by MSJ's level-file merge).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitKey {
    /// Number of meaningful bits.
    nbits: u32,
    /// MSB-first words; bits past `nbits` are zero.
    words: Vec<u64>,
}

impl BitKey {
    /// The all-zero key of the given width.
    pub fn zero(nbits: u32) -> BitKey {
        BitKey {
            nbits,
            words: vec![0; Self::words_for(nbits)],
        }
    }

    fn words_for(nbits: u32) -> usize {
        (nbits as usize).div_ceil(64)
    }

    /// Width in bits.
    #[inline]
    pub fn nbits(&self) -> u32 {
        self.nbits
    }

    /// Reads bit `i` (0 = most significant). Panics when out of range.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        assert!(
            i < self.nbits,
            "bit {i} out of range (width {})",
            self.nbits
        );
        let word = (i / 64) as usize;
        let off = 63 - (i % 64);
        (self.words[word] >> off) & 1 == 1
    }

    /// Sets bit `i` (0 = most significant).
    #[inline]
    pub fn set(&mut self, i: u32, v: bool) {
        assert!(
            i < self.nbits,
            "bit {i} out of range (width {})",
            self.nbits
        );
        let word = (i / 64) as usize;
        let off = 63 - (i % 64);
        if v {
            self.words[word] |= 1 << off;
        } else {
            self.words[word] &= !(1 << off);
        }
    }

    /// The first `nbits` bits as a new (narrower) key. Panics when `nbits`
    /// exceeds the width.
    pub fn prefix(&self, nbits: u32) -> BitKey {
        assert!(nbits <= self.nbits);
        let mut out = BitKey::zero(nbits);
        let nwords = Self::words_for(nbits);
        out.words.copy_from_slice(&self.words[..nwords]);
        // Clear bits past the new width in the last word.
        let tail = nbits % 64;
        if tail != 0 {
            let mask = !0u64 << (64 - tail);
            out.words[nwords - 1] &= mask;
        }
        out
    }

    /// Returns a copy zero-extended to `nbits` (≥ current width).
    pub fn zero_extended(&self, nbits: u32) -> BitKey {
        assert!(nbits >= self.nbits);
        let mut out = BitKey::zero(nbits);
        out.words[..self.words.len()].copy_from_slice(&self.words);
        out
    }

    /// True when `self` (of width ≤ `other`) equals the first `self.nbits`
    /// bits of `other` — the cell-ancestry test of MSJ's sweep.
    pub fn is_prefix_of(&self, other: &BitKey) -> bool {
        if self.nbits > other.nbits {
            return false;
        }
        other.prefix(self.nbits) == *self
    }

    /// Compares as if both keys were zero-padded to the wider width.
    pub fn cmp_padded(&self, other: &BitKey) -> Ordering {
        let n = self.words.len().max(other.words.len());
        for i in 0..n {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Builds a key by MSB-first interleaving of grid coordinates:
    /// bit planes from most to least significant, dimension 0 first within a
    /// plane. This is the layout both curve implementations emit.
    pub fn interleave(coords: &[u32], bits: u32) -> BitKey {
        assert!(
            (1..=31).contains(&bits),
            "bits per dimension must be in 1..=31"
        );
        let nbits = coords.len() as u32 * bits;
        let mut words = Vec::with_capacity(Self::words_for(nbits));
        interleave_words(coords, bits, |w| words.push(w));
        BitKey { nbits, words }
    }

    /// Inverse of [`BitKey::interleave`]: recovers `dims` coordinates of
    /// `bits` bits each. The key width must equal `dims * bits`.
    pub fn deinterleave(&self, dims: usize, bits: u32) -> Vec<u32> {
        assert_eq!(self.nbits, dims as u32 * bits);
        let mut coords = vec![0u32; dims];
        let mut pos = 0;
        for plane in (0..bits).rev() {
            for c in coords.iter_mut() {
                if self.get(pos) {
                    *c |= 1 << plane;
                }
                pos += 1;
            }
        }
        coords
    }

    /// Serializes to `8 * ceil(nbits/64)` big-endian bytes (width is not
    /// stored; callers using fixed-width keys, like the MSJ level files,
    /// know it from context).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Deserializes from the [`BitKey::to_be_bytes`] representation.
    pub fn from_be_bytes(nbits: u32, bytes: &[u8]) -> BitKey {
        let nwords = Self::words_for(nbits);
        assert_eq!(
            bytes.len(),
            nwords * 8,
            "byte length mismatch for {nbits} bits"
        );
        let words = bytes
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                u64::from_be_bytes(w)
            })
            .collect();
        BitKey { nbits, words }
    }

    /// Number of bytes [`BitKey::to_be_bytes`] produces for a given width.
    pub fn byte_len(nbits: u32) -> usize {
        Self::words_for(nbits) * 8
    }
}

/// The one producer of the interleaved layout: the bits of `coords`, plane
/// `bits − 1` first and dimension 0 first within a plane, OR-ed into 64-bit
/// words that `emit` receives most significant first. The last word is
/// left-aligned, its unused low bits zero. `bits == 0` emits nothing.
pub(crate) fn interleave_words(coords: &[u32], bits: u32, mut emit: impl FnMut(u64)) {
    let (mut word, mut filled) = (0u64, 0u32);
    for plane in (0..bits).rev() {
        for &c in coords {
            debug_assert!(c < (1 << bits), "coordinate {c} exceeds {bits} bits");
            word = word << 1 | u64::from(c >> plane & 1);
            filled += 1;
            if filled == 64 {
                emit(word);
                (word, filled) = (0, 0);
            }
        }
    }
    if filled > 0 {
        emit(word << (64 - filled));
    }
}

/// [`interleave_words`] written big-endian into `out`, the rest of `out`
/// zeroed: the bytes of `BitKey::interleave(coords, bits)` zero-extended to
/// `8 · out.len()` bits, with no `BitKey` in between. Panics when `out` is
/// shorter than [`BitKey::byte_len`] of the key.
pub(crate) fn interleave_into(coords: &[u32], bits: u32, out: &mut [u8]) {
    let mut at = 0;
    interleave_words(coords, bits, |w| {
        out[at..at + 8].copy_from_slice(&w.to_be_bytes());
        at += 8;
    });
    out[at..].fill(0);
}

impl PartialOrd for BitKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitKey {
    /// Total order: padded bit order first, then width (shorter first).
    /// With this order a cell key sorts immediately *before* all of its
    /// descendants' keys — the DFS order of MSJ's synchronized sweep.
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_padded(other).then(self.nbits.cmp(&other.nbits))
    }
}

impl fmt::Debug for BitKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitKey[{}](", self.nbits)?;
        for i in 0..self.nbits {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_from_str(s: &str) -> BitKey {
        let mut k = BitKey::zero(s.len() as u32);
        for (i, ch) in s.chars().enumerate() {
            k.set(i as u32, ch == '1');
        }
        k
    }

    #[test]
    fn get_set_round_trip_across_word_boundary() {
        let mut k = BitKey::zero(130);
        for i in [0u32, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!k.get(i));
            k.set(i, true);
            assert!(k.get(i));
        }
        k.set(64, false);
        assert!(!k.get(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitKey::zero(8).get(8);
    }

    #[test]
    fn lexicographic_order_matches_strings() {
        let cases = ["0000", "0001", "0110", "1000", "1111"];
        for w in cases.windows(2) {
            assert!(
                key_from_str(w[0]) < key_from_str(w[1]),
                "{} < {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn padded_order_and_prefix_sorts_ancestor_first() {
        // "10" is an ancestor cell of "100..." and "101...": padded order
        // puts the ancestor before or equal; tie broken by width.
        let parent = key_from_str("10");
        let child0 = key_from_str("1000");
        let child1 = key_from_str("1011");
        assert_eq!(parent.cmp_padded(&child0), Ordering::Equal);
        assert!(parent < child0, "ancestor sorts first on equal padding");
        assert!(child0 < child1);
        assert!(parent.is_prefix_of(&child0));
        assert!(parent.is_prefix_of(&child1));
        assert!(!child0.is_prefix_of(&parent));
        assert!(!key_from_str("11").is_prefix_of(&child0));
    }

    #[test]
    fn prefix_masks_trailing_bits() {
        let k = key_from_str("10111111");
        let p = k.prefix(3);
        assert_eq!(p, key_from_str("101"));
        // The word beyond the prefix width must be zeroed.
        assert_eq!(p.to_be_bytes()[0], 0b1010_0000);
    }

    #[test]
    fn zero_extension_preserves_padded_order() {
        let k = key_from_str("101");
        let e = k.zero_extended(8);
        assert_eq!(e.nbits(), 8);
        assert_eq!(k.cmp_padded(&e), Ordering::Equal);
        assert!(k.is_prefix_of(&e));
    }

    #[test]
    fn interleave_two_dims_hand_checked() {
        // x = 0b10, y = 0b01 -> planes MSB first: (1,0) then (0,1) -> "1001"
        let k = BitKey::interleave(&[0b10, 0b01], 2);
        assert_eq!(k, key_from_str("1001"));
        assert_eq!(k.deinterleave(2, 2), vec![0b10, 0b01]);
    }

    #[test]
    fn interleave_round_trips_high_dims() {
        let coords: Vec<u32> = (0..20).map(|i| (i * 2654435761u64 % 256) as u32).collect();
        let k = BitKey::interleave(&coords, 8);
        assert_eq!(k.nbits(), 160);
        assert_eq!(k.deinterleave(20, 8), coords);
    }

    #[test]
    fn byte_serialization_round_trips() {
        let k = BitKey::interleave(&[123456, 7890123], 24);
        let bytes = k.to_be_bytes();
        assert_eq!(bytes.len(), BitKey::byte_len(k.nbits()));
        let back = BitKey::from_be_bytes(k.nbits(), &bytes);
        assert_eq!(k, back);
    }

    #[test]
    fn byte_order_preserves_key_order() {
        // Big-endian byte serialization of equal-width keys must sort the
        // same way as the keys — the external sort compares raw bytes.
        let a = key_from_str("01100000");
        let b = key_from_str("01100001");
        assert!(a < b);
        assert!(a.to_be_bytes() < b.to_be_bytes());
    }
}
