//! Structure-of-arrays candidate blocks for batch refinement.
//!
//! The row-major [`Dataset`] layout is right for per-pair evaluation, but
//! the refinement inner loop is a *batch* shape: one probe against many
//! candidates. Vectorizing **across candidates** wants the transpose —
//! dimension-major tiles where `col(dim)` holds that coordinate for every
//! candidate contiguously, so a kernel can broadcast `probe[dim]` and
//! stream one cache line of candidate coordinates per vector op.
//!
//! [`SoABlock`] is that transpose for a tile of candidates, plus the index
//! map back to dataset row ids. Three producers cover the join shapes:
//!
//! * [`SoABlock::from_range`] — a contiguous id range (block-nested-loop
//!   tiles);
//! * [`SoABlock::partition`] — the whole dataset cut into fixed-width
//!   tiles, built once per join and reused for every probe;
//! * [`SoABlock::gather_into`] — an arbitrary id list (one candidate tile
//!   of an MSJ cell pair), refilling one reusable scratch block.
//!
//! ## Padding and alignment
//!
//! `width` (the lane count per dimension) is `len` rounded up to a
//! multiple of [`LANE_PAD`], and padding lanes replicate the **last real
//! candidate**. That keeps every vector-group load of up to `LANE_PAD`
//! lanes in bounds without per-load masking; padding lanes hold finite
//! coordinates (so no spurious NaN/trap behaviour) and are filtered out at
//! emit time by lane index, never by value. An empty block has
//! `width == 0` and no storage.
//!
//! `LANE_PAD` values are one 64-byte cache line, and the first column
//! starts on one (the buffer carries a line of slack to skip), so every
//! column does, and a vector group that starts at a multiple of its own
//! width never straddles two lines. That is a speed property only: the
//! kernels load unaligned from checked slices, and where the allocator or
//! an interpreter cannot give the alignment the columns start at offset 0.
//!
//! ## The f32 copy
//!
//! Behind the f64 columns every block holds the same coordinates rounded
//! to f32 (`v as f32`), for the block kernels' f32 prefilter: column `dim`
//! is [`SoABlock::width32`] lanes packed two to an `f64` slot (lane `2i`
//! in the low 32 bits of slot `i`, lane `2i + 1` in the high ones), so a
//! vector load of `f64` slots bit-casts to twice as many f32 lanes and no
//! second load form is needed. `width32` is `width` rounded up to
//! `2 · LANE_PAD`, the widest f32 group; lanes past `len` replicate the
//! last real one here too. [`SoABlock::max_abs`] is the largest
//! `|coordinate|` in the block, which the prefilter's error bound needs.

use crate::dataset::Dataset;
use std::ops::Range;

/// Lane padding granularity: 8 × f64 — the widest vector group (AVX-512)
/// and one cache line. Every block's `width` is a multiple of this, so no
/// tier's groups leave a ragged tail and every column keeps the alignment
/// of the first.
pub const LANE_PAD: usize = 8;

/// Cache-line size the columns are aligned to, in bytes.
const LINE_BYTES: usize = LANE_PAD * std::mem::size_of::<f64>();

/// A dimension-major tile of candidate points with row-id back-map.
///
/// Storage is `dims × width` values, laid out column-contiguous:
/// `data()[dim * width + t]` is coordinate `dim` of lane `t`. Lanes
/// `0..len` are real candidates (`ids()[t]` is the dataset row id); lanes
/// `len..width` replicate lane `len - 1`. Behind them sits the f32 copy
/// ([`SoABlock::packed32`]).
#[derive(Clone, Debug)]
pub struct SoABlock {
    dims: usize,
    len: usize,
    width: usize,
    ids: Vec<u32>,
    /// `head` values to skip, then the `dims × width` columns, then the
    /// `dims × width32 / 2` slots of packed f32 columns, nothing after them.
    buf: Vec<f64>,
    /// Where the first column starts in `buf`: on a cache line if the
    /// allocation allows (a clone keeps the offset, not the alignment).
    head: usize,
    /// The largest `|coordinate|` over every lane (`0.0` when empty).
    max_abs: f64,
}

impl SoABlock {
    /// An empty block of the given dimensionality (useful as reusable
    /// scratch for [`SoABlock::gather_into`]).
    pub fn empty(dims: usize) -> SoABlock {
        SoABlock {
            dims,
            len: 0,
            width: 0,
            ids: Vec::new(),
            buf: Vec::new(),
            head: 0,
            max_abs: 0.0,
        }
    }

    /// Transposes the contiguous id range `range` of `ds` into a block.
    pub fn from_range(ds: &Dataset, range: Range<u32>) -> SoABlock {
        let mut b = SoABlock::empty(ds.dims());
        b.fill(
            ds,
            range.start,
            (range.end.max(range.start) - range.start) as usize,
            &[],
        );
        b
    }

    /// Refills this block with the listed rows of `ds` (lane `t` holds
    /// `ds.point(js[t])`), reusing the existing allocations — the MSJ
    /// sweep's one scratch tile.
    pub fn gather_into(&mut self, ds: &Dataset, js: &[u32]) {
        self.fill(ds, 0, js.len(), js);
    }

    /// Cuts the whole dataset into tiles of at most `width` lanes, in
    /// ascending row order. Built once per join; every tile's ids are the
    /// contiguous range it covers.
    pub fn partition(ds: &Dataset, width: usize) -> Vec<SoABlock> {
        let width = width.max(LANE_PAD);
        let n = ds.len();
        let mut tiles = Vec::with_capacity(n.div_ceil(width.max(1)));
        let mut start = 0usize;
        while start < n {
            let end = (start + width).min(n);
            tiles.push(SoABlock::from_range(ds, start as u32..end as u32));
            start = end;
        }
        tiles
    }

    /// Shared fill: `count` lanes taken either from `js` (when non-empty)
    /// or from the contiguous range starting at `base`.
    fn fill(&mut self, ds: &Dataset, base: u32, count: usize, js: &[u32]) {
        self.dims = ds.dims();
        self.len = count;
        self.ids.clear();
        self.max_abs = 0.0;
        if count == 0 {
            self.width = 0;
            self.buf.clear();
            self.head = 0;
            return;
        }
        self.width = count.next_multiple_of(LANE_PAD);
        let cells = self.dims * self.width;
        let slots = self.dims * self.width32() / 2;
        // One line of slack, of which the part in front of the next line
        // boundary is skipped. The boundary moves when `resize` reallocates,
        // so it is looked up on every fill; `usize::MAX` ("cannot say":
        // Miri) means offset 0. Every cell is written below, so only what
        // `resize` appends is zeroed first.
        self.buf.resize(cells + slots + LANE_PAD, 0.0);
        let to_line = self.buf.as_ptr().align_offset(LINE_BYTES);
        self.head = if to_line < LANE_PAD { to_line } else { 0 };
        self.buf.truncate(self.head + cells + slots);
        if js.is_empty() {
            self.ids.extend(base..base + count as u32);
        } else {
            self.ids.extend_from_slice(&js[..count]);
        }
        let width = self.width;
        let (data, packed) = self.buf[self.head..].split_at_mut(cells);
        for (t, &id) in self.ids.iter().enumerate() {
            for (dim, &v) in ds.point(id).iter().enumerate() {
                data[dim * width + t] = v;
            }
        }
        // Padding lanes replicate the last real candidate so vector loads
        // of a full group stay in bounds and finite; the f32 copy is cut
        // from the finished column, so its padding does the same.
        // `max_abs` is kept per lane of a line and folded once at the end:
        // lane-wise compares vectorize where a fold per line does not.
        // A dataset's coordinates are finite, so no NaN can slip past them.
        let mut tops = [0.0f64; 8];
        for (col, col32) in data
            .chunks_exact_mut(width)
            .zip(packed.chunks_exact_mut(slots / self.dims))
        {
            let last = col[count - 1];
            col[count..].fill(last);
            let (pairs, pad) = col32.split_at_mut(width / 2);
            for (slots, line) in pairs.chunks_exact_mut(4).zip(col.chunks_exact(8)) {
                for (top, v) in tops.iter_mut().zip(line) {
                    let a = v.abs();
                    *top = if a > *top { a } else { *top };
                }
                let halves: [u64; 8] =
                    std::array::from_fn(|i| u64::from((line[i] as f32).to_bits()));
                for (i, slot) in slots.iter_mut().enumerate() {
                    *slot = f64::from_bits(halves[2 * i] | halves[2 * i + 1] << 32);
                }
            }
            pad.fill(pack(last, last));
        }
        self.max_abs = tops.into_iter().fold(0.0, f64::max);
    }

    /// Number of real candidate lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of every candidate.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Padded lane count (`len` rounded up to a multiple of
    /// [`LANE_PAD`]; `0` for an empty block).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Dataset row ids of the real lanes, in lane order.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The whole dimension-major buffer: exactly `dims() × width()`
    /// values, coordinate `dim` of lane `t` at index `dim * width + t`.
    ///
    /// The vector kernel cuts it into columns with `chunks_exact` once per
    /// call, so every column is a slice of exactly `width()` values and a
    /// group's loads are bounded by one comparison (DESIGN §17).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.buf[self.head..self.head + self.dims * self.width]
    }

    /// Lanes per f32 column: `width()` rounded up to `2 · LANE_PAD` (`0`
    /// for an empty block).
    #[inline]
    pub fn width32(&self) -> usize {
        self.width.next_multiple_of(2 * LANE_PAD)
    }

    /// The f32 copy: `dims() × width32() / 2` slots, column `dim` from slot
    /// `dim * width32 / 2`, lanes `2i` and `2i + 1` packed into slot `i`
    /// (low and high 32 bits). Cut like [`SoABlock::data`].
    #[inline]
    pub fn packed32(&self) -> &[f64] {
        &self.buf[self.head + self.dims * self.width..]
    }

    /// The largest `|coordinate|` the block holds (`0.0` when empty).
    #[inline]
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Bytes the block holds: its padded columns, their f32 copy and its
    /// id list.
    pub fn bytes(&self) -> u64 {
        (std::mem::size_of_val(&self.buf[self.head..]) + std::mem::size_of_val(self.ids()))
            as u64
    }

    /// Coordinate `dim` of lane `t`.
    #[inline]
    pub fn value(&self, dim: usize, t: usize) -> f64 {
        self.buf[self.head + dim * self.width + t]
    }
}

/// Two coordinates rounded to f32 in one `f64` slot, `lo` in the low half:
/// on a little-endian target the slot's bytes are the two f32s in lane
/// order, which is what a bit-cast vector load reads.
#[inline(always)]
fn pack(lo: f64, hi: f64) -> f64 {
    f64::from_bits(u64::from((hi as f32).to_bits()) << 32 | u64::from((lo as f32).to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize, dims: usize) -> Dataset {
        let flat: Vec<f64> = (0..n * dims).map(|i| (i as f64 * 0.37).sin()).collect();
        Dataset::from_flat(dims, flat).unwrap()
    }

    #[test]
    fn from_range_round_trips_every_coordinate() {
        let d = ds(10, 5);
        let b = SoABlock::from_range(&d, 2..9);
        assert_eq!(b.len(), 7);
        assert_eq!(b.width(), 8);
        assert_eq!(b.ids(), &[2, 3, 4, 5, 6, 7, 8]);
        for (t, &id) in b.ids().iter().enumerate() {
            for dim in 0..5 {
                assert_eq!(b.value(dim, t).to_bits(), d.point(id)[dim].to_bits());
            }
        }
    }

    #[test]
    fn gather_round_trips_arbitrary_id_lists() {
        let d = ds(20, 3);
        let js = [19u32, 0, 7, 7, 3];
        let mut b = SoABlock::empty(3);
        b.gather_into(&d, &js);
        assert_eq!(b.ids(), &js);
        for (t, &id) in js.iter().enumerate() {
            for dim in 0..3 {
                assert_eq!(b.value(dim, t).to_bits(), d.point(id)[dim].to_bits());
            }
        }
    }

    #[test]
    fn padding_replicates_the_last_lane() {
        let d = ds(6, 2);
        let b = SoABlock::from_range(&d, 0..5);
        assert_eq!((b.len(), b.width()), (5, 8));
        for t in 5..8 {
            for dim in 0..2 {
                assert_eq!(b.value(dim, t).to_bits(), b.value(dim, 4).to_bits());
            }
        }
    }

    #[test]
    fn gather_into_reuses_and_resizes() {
        let d = ds(12, 4);
        let mut b = SoABlock::empty(4);
        b.gather_into(&d, &[1, 2, 3, 4, 5]);
        assert_eq!((b.len(), b.width()), (5, 8));
        b.gather_into(&d, &[11]);
        assert_eq!((b.len(), b.width()), (1, 8));
        assert_eq!(b.value(2, 0).to_bits(), d.point(11)[2].to_bits());
        b.gather_into(&d, &[]);
        assert!(b.is_empty());
        assert_eq!(b.width(), 0);
    }

    #[test]
    fn partition_covers_the_dataset_in_order() {
        let d = ds(11, 3);
        let tiles = SoABlock::partition(&d, 4);
        assert_eq!(tiles.len(), 2);
        let all: Vec<u32> = tiles.iter().flat_map(|t| t.ids().iter().copied()).collect();
        assert_eq!(all, (0..11).collect::<Vec<u32>>());
        assert_eq!(tiles[1].len(), 3);
        assert_eq!(tiles[1].width(), 8);
    }

    /// What the kernels lean on for speed (line-aligned columns) and for
    /// bounds (8-lane widths, finite padding), from every producer and
    /// across reuse of one scratch block.
    fn assert_layout(b: &SoABlock, what: &str) {
        assert_eq!(b.width() % 8, 0, "{what}");
        assert_eq!(b.width(), b.len().next_multiple_of(LANE_PAD), "{what}");
        assert_eq!(b.data().len(), b.dims() * b.width(), "{what}");
        // Miri may not promise any alignment past the element's
        // (`align_offset` answers `usize::MAX`): offset 0, still correct.
        #[cfg(not(miri))]
        assert_eq!(b.data().as_ptr() as usize % 64, 0, "{what}");
        for dim in 0..b.dims() {
            for t in b.len()..b.width() {
                let last = b.value(dim, b.len() - 1);
                assert_eq!(b.value(dim, t).to_bits(), last.to_bits(), "{what}");
            }
        }
        assert_eq!(b.width32() % 16, 0, "{what}");
        assert!(
            b.width32() >= b.width() && b.width32() < b.width() + 16,
            "{what}"
        );
        assert_eq!(b.packed32().len(), b.dims() * b.width32() / 2, "{what}");
        #[cfg(not(miri))]
        assert_eq!(b.packed32().as_ptr() as usize % 64, 0, "{what}");
        assert_f32_copy(b, what);
    }

    /// Coordinate `dim` of lane `t` in the f32 copy (`t < width32()`).
    fn value32(b: &SoABlock, dim: usize, t: usize) -> f32 {
        let bits = b.packed32()[dim * b.width32() / 2 + t / 2].to_bits();
        f32::from_bits((bits >> (32 * (t % 2))) as u32)
    }

    /// The f32 copy is `v as f32` of every lane, bit for bit, padding up
    /// to `width32` included, and `max_abs` is the largest `|v|`.
    fn assert_f32_copy(b: &SoABlock, what: &str) {
        let mut max_abs = 0.0f64;
        for dim in 0..b.dims() {
            for t in 0..b.width32() {
                let v = b.value(dim, t.min(b.len() - 1));
                max_abs = max_abs.max(v.abs());
                let got = value32(b, dim, t).to_bits();
                assert_eq!(got, (v as f32).to_bits(), "{what}: dim {dim} lane {t}");
            }
        }
        assert_eq!(b.max_abs().to_bits(), max_abs.to_bits(), "{what}");
    }

    #[test]
    fn the_f32_copy_is_every_coordinate_rounded_and_padded() {
        let vals = [
            0.0,
            -0.0,
            1.0 + f64::EPSILON,
            -3.0e-310,
            5e-324,
            1e-40,
            1e100,
            -1e100,
            f64::from(f32::MAX),
            0.1,
        ];
        let flat: Vec<f64> = (0..13 * 3).map(|i| vals[i % vals.len()]).collect();
        let d = Dataset::from_flat(3, flat).unwrap();
        for n in [1u32, 5, 8, 9, 13] {
            let b = SoABlock::from_range(&d, 0..n);
            assert_f32_copy(&b, &format!("n={n}"));
        }
        let b = SoABlock::from_range(&d, 0..13);
        assert_eq!(b.max_abs(), 1e100);
        // Lane 2 starts at `vals[6]`; lane 0's second coordinate is -0.0.
        assert_eq!(value32(&b, 0, 2), f32::INFINITY);
        assert_eq!(value32(&b, 1, 0).to_bits(), (-0.0f32).to_bits());
        assert!(SoABlock::empty(3).packed32().is_empty());
    }

    #[test]
    fn bytes_charge_the_columns_their_f32_copy_and_the_ids() {
        let d = ds(20, 3);
        let b = SoABlock::from_range(&d, 0..20);
        assert_eq!((b.width(), b.width32()), (24, 32));
        assert_eq!(b.bytes(), (3 * 24 * 8 + 3 * 32 * 4 + 20 * 4) as u64);
        assert_eq!(SoABlock::empty(3).bytes(), 0);
    }

    #[test]
    fn columns_start_on_cache_lines_and_widths_are_8_lane_multiples() {
        let d = ds(300, 5);
        for n in [1u32, 7, 8, 9, 64, 299] {
            assert_layout(&SoABlock::from_range(&d, 0..n), "from_range");
        }
        for tile in SoABlock::partition(&d, 24) {
            assert_layout(&tile, "partition");
        }
        // One scratch block through growth (reallocation moves the line
        // boundary), shrink and regrowth within capacity, and a clone.
        let mut b = SoABlock::empty(5);
        for n in [3usize, 40, 9, 300, 1, 0, 17, 300] {
            let js: Vec<u32> = (0..n as u32).rev().collect();
            b.gather_into(&d, &js);
            assert_eq!(b.ids(), &js[..]);
            if n > 0 {
                assert_layout(&b, "gather_into");
                assert_eq!(b.value(4, n - 1).to_bits(), d.point(0)[4].to_bits());
            }
        }
        let c = b.clone();
        assert_eq!(c.data(), b.data());
        assert_eq!(c.packed32(), b.packed32());
    }

    #[test]
    fn empty_range_yields_empty_block() {
        let d = ds(4, 2);
        let b = SoABlock::from_range(&d, 3..3);
        assert!(b.is_empty());
        assert_eq!(b.width(), 0);
        assert!(b.ids().is_empty());
    }
}
