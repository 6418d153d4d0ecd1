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
//! ## Padding
//!
//! `width` (the lane count per dimension) is `len` rounded up to a
//! multiple of [`LANE_PAD`], and padding lanes replicate the **last real
//! candidate**. That keeps every vector-group load of up to `LANE_PAD`
//! lanes in bounds without per-load masking; padding lanes hold finite
//! coordinates (so no spurious NaN/trap behaviour) and are filtered out at
//! emit time by lane index, never by value. An empty block has
//! `width == 0` and no storage.

use crate::dataset::Dataset;
use std::ops::Range;

/// Lane padding granularity: 4 × f64, the AVX2 vector group. Every
/// block's `width` is a multiple of this; the 8-lane AVX-512 kernel takes
/// full 8-lane groups only and leaves a trailing 4 to the AVX2 one.
pub const LANE_PAD: usize = 4;

/// A dimension-major tile of candidate points with row-id back-map.
///
/// Storage is `dims × width` values, laid out column-contiguous:
/// `data[dim * width + t]` is coordinate `dim` of lane `t`. Lanes
/// `0..len` are real candidates (`ids()[t]` is the dataset row id); lanes
/// `len..width` replicate lane `len - 1`.
#[derive(Clone, Debug)]
pub struct SoABlock {
    dims: usize,
    len: usize,
    width: usize,
    ids: Vec<u32>,
    data: Vec<f64>,
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
            data: Vec::new(),
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
        if count == 0 {
            self.width = 0;
            self.data.clear();
            return;
        }
        self.width = count.next_multiple_of(LANE_PAD);
        self.data.clear();
        self.data.resize(self.dims * self.width, 0.0);
        if js.is_empty() {
            self.ids.extend(base..base + count as u32);
        } else {
            self.ids.extend_from_slice(&js[..count]);
        }
        let (dims, width) = (self.dims, self.width);
        for t in 0..count {
            let row = ds.point(self.ids[t]);
            for (dim, &v) in row.iter().enumerate() {
                self.data[dim * width + t] = v;
            }
        }
        // Padding lanes replicate the last real candidate so vector loads
        // of a full group stay in bounds and finite.
        for dim in 0..dims {
            let last = self.data[dim * width + count - 1];
            for t in count..width {
                self.data[dim * width + t] = last;
            }
        }
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
        &self.data
    }

    /// Coordinate `dim` of lane `t`.
    #[inline]
    pub fn value(&self, dim: usize, t: usize) -> f64 {
        self.data[dim * self.width + t]
    }
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
        assert_eq!((b.len(), b.width()), (1, 4));
        assert_eq!(b.value(2, 0).to_bits(), d.point(11)[2].to_bits());
        b.gather_into(&d, &[]);
        assert!(b.is_empty());
        assert_eq!(b.width(), 0);
    }

    #[test]
    fn partition_covers_the_dataset_in_order() {
        let d = ds(11, 3);
        let tiles = SoABlock::partition(&d, 4);
        assert_eq!(tiles.len(), 3);
        let all: Vec<u32> = tiles.iter().flat_map(|t| t.ids().iter().copied()).collect();
        assert_eq!(all, (0..11).collect::<Vec<u32>>());
        assert_eq!(tiles[2].len(), 3);
        assert_eq!(tiles[2].width(), 4);
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
