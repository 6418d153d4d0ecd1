//! The tile-major plane-sweep join of two sorted projection lists.
//!
//! MSJ cell pairs, ε-KDB leaf pairs and the 1-D sort-merge baseline all end
//! in the same step: two lists of `(x, id)` sorted by one coordinate, of
//! which every pair whose coordinates differ by at most ε is a candidate.
//! [`TileJoin`] is that step, once. The join is **tile-major**: the
//! candidate list is cut into L1-sized tiles, each tile is transposed once
//! into one reusable [`SoABlock`], and the lane windows of every probe
//! whose ε-window touches the tile go to the sink together, a run of up to
//! [`WINDOWS_PER_CALL`] per call — the same (tile, probe windows) shape
//! brute force feeds the across-candidate kernel. A tile whose
//! windows hold too few candidates to repay the transpose is emitted pair
//! by pair instead.
//!
//! A caller that joins the same candidate list many times can transpose it
//! once itself and hand the join those *resident* columns
//! ([`TileJoin::run_resident`]): the same tiles and windows, read in place,
//! with no counting pass and no gather.

use crate::dataset::Dataset;
use crate::error::Result;
use crate::lifecycle::LifecycleCtx;
use crate::refine::Refiner;
use crate::simd::tile::soa_tile_width;
use crate::soa::{SoABlock, LANE_PAD};
use std::ops::Range;

/// Probes walked between lifecycle polls inside one tile (a power of two).
const PROBES_PER_POLL: usize = 1024;

/// Lanes below which a tile is never gathered: a probe's window then
/// spans at most two vector groups, and the block kernel's fixed cost per
/// call outweighs what it saves over that many pair evaluations (measured
/// on ε-KDB leaves of ~3 points at d = 4 and 8: a fifth of the join phase).
/// A measured lane count, not a multiple of the padding granule.
const GATHER_LANES_MIN: usize = 8;

/// Sorts a projection list into the order [`TileJoin::run`] takes:
/// ascending coordinate, ties by id. `total_cmp` gives a total order even
/// on NaN (datasets reject them, but a sweep must not be able to panic on
/// bad data).
pub fn sort_by_coord(list: &mut [(f64, u32)]) {
    list.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
}

/// Windows a [`WindowBatch`] hands over per call: the block kernel's fixed
/// cost (~17 ns at d = 4, ~32 ns at d = 16 on the AVX-512 host, against
/// 46 ns for a whole 20-lane window at d = 16) is paid once per this many.
/// Against the per-window calls, at AVX-512 (the tile join of
/// `uniform_d16` / of `lowdim_d4`, brute force on `uniform_d16`): 16 read
/// 1.13× / 1.06× / 1.09×, 64 read 1.17× / 1.07× / 1.11×, 256 no better
/// than 64. The bound also keeps a call's hits — and `msj_peak_rss_mb`,
/// which an unbounded list raised 3 % on `uniform_d16` — small. It
/// divides the poll stride (1 024 probes), so a tile whose every probe
/// has a window hands all of them over before the next poll.
pub const WINDOWS_PER_CALL: usize = 64;

const _: () = assert!(PROBES_PER_POLL.is_multiple_of(WINDOWS_PER_CALL));

/// Receives the join's candidates, in sweep order. Probe ids index the
/// left input, candidate ids the right input (the same dataset for a
/// self-join). Every candidate pair arrives exactly once.
pub trait CandidateSink {
    /// Candidates `tile.ids()[lanes]` for probe `i`, for each `(i, lanes)`
    /// of `windows` in turn: a run of one tile's windows, at most
    /// [`WINDOWS_PER_CALL`] of them.
    fn windows(&mut self, tile: &SoABlock, windows: &[(u32, Range<usize>)]);
    /// One candidate `(i, j)` of a tile too sparse to gather.
    fn pair(&mut self, i: u32, j: u32);
    /// All events of tile `seq` (its number among the tiles the join has
    /// reached, see [`TileJoin::share`]) have been delivered.
    fn end_tile(&mut self, _seq: u64) -> Result<()> {
        Ok(())
    }
}

/// Candidates go straight into the exact-metric refiner.
impl CandidateSink for Refiner<'_> {
    #[inline]
    fn windows(&mut self, tile: &SoABlock, windows: &[(u32, Range<usize>)]) {
        self.offer_windows(tile, windows);
    }

    #[inline]
    fn pair(&mut self, i: u32, j: u32) {
        self.offer(i, j);
    }
}

/// One tile's windows on their way to a sink, handed over
/// [`WINDOWS_PER_CALL`] at a time: the tile joins and brute force collect
/// into one so that each tile costs one kernel call, not one per probe.
#[derive(Debug, Default)]
pub struct WindowBatch(Vec<(u32, Range<usize>)>);

impl WindowBatch {
    /// Adds probe `i`'s window `lanes` of `tile`, handing the batch to
    /// `sink` once it is full.
    #[inline]
    pub fn push<S: CandidateSink>(
        &mut self,
        sink: &mut S,
        tile: &SoABlock,
        i: u32,
        lanes: Range<usize>,
    ) {
        self.0.push((i, lanes));
        if self.0.len() == WINDOWS_PER_CALL {
            self.flush(sink, tile);
        }
    }

    /// Hands what is left of `tile`'s windows to `sink`.
    #[inline]
    pub fn flush<S: CandidateSink>(&mut self, sink: &mut S, tile: &SoABlock) {
        if !self.0.is_empty() {
            sink.windows(tile, &self.0);
            self.0.clear();
        }
    }
}

/// What the joins run so far did, beyond the candidates they emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileTally {
    /// Tiles transposed into the scratch block, or read from resident
    /// columns, whose windows went to the block kernel.
    pub tiles_gathered: u64,
    /// Lanes transposed (rows copied) over all gathered tiles. Resident
    /// columns were transposed by their owner, who counts their lanes.
    pub lanes_gathered: u64,
    /// Candidates emitted as lane windows of a gathered tile.
    pub block_candidates: u64,
    /// Those windows — not kernel calls: a call takes a tile's run of up
    /// to [`WINDOWS_PER_CALL`] windows. `block_candidates / block_calls`
    /// is the lanes per window, what the f32 stage's gate sees.
    pub block_calls: u64,
    /// Candidates emitted one pair at a time.
    pub pair_candidates: u64,
}

/// Field by field: shares of one join ([`TileJoin::share`]) add up to it.
impl std::ops::AddAssign for TileTally {
    fn add_assign(&mut self, other: TileTally) {
        self.tiles_gathered += other.tiles_gathered;
        self.lanes_gathered += other.lanes_gathered;
        self.block_candidates += other.block_candidates;
        self.block_calls += other.block_calls;
        self.pair_candidates += other.pair_candidates;
    }
}

impl TileTally {
    /// The tally under the names a join run records it by
    /// (`JoinRun::tally`) — one spelling of the five for every algorithm
    /// that ends in a [`TileJoin`]; `obs::names` registers them per algorithm.
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("sweep.tiles_gathered", self.tiles_gathered),
            ("sweep.lanes_gathered", self.lanes_gathered),
            ("sweep.block_candidates", self.block_candidates),
            ("sweep.block_calls", self.block_calls),
            ("sweep.pair_candidates", self.pair_candidates),
        ]
    }
}

/// The tile-major join of two sorted `(x, id)` lists, with its reusable
/// scratch tile.
pub struct TileJoin<'a> {
    /// The dataset candidate ids index (the right input).
    data: &'a Dataset,
    eps: f64,
    /// Lanes per candidate tile.
    tile_w: usize,
    /// A tile is gathered once its windows hold `gather_min` candidates
    /// per lane: the transpose costs `dims` strided writes per lane and
    /// the block kernel saves a roughly constant time per candidate, so
    /// the break-even reuse grows with `dims` (≈ d/4 fitted d = 4…64).
    gather_min: usize,
    /// Narrower tiles are never gathered ([`GATHER_LANES_MIN`]).
    lanes_min: usize,
    lifecycle: Option<&'a LifecycleCtx>,
    tile: SoABlock,
    ids: Vec<u32>,
    batch: WindowBatch,
    /// Lanes of the widest tile gathered so far.
    widest: usize,
    tally: TileTally,
    /// Tiles reached so far over every [`TileJoin::run`], skipped or not.
    seq: u64,
    /// The next tile number the join runs, and how far on the one after is
    /// ([`TileJoin::share`]: `index`, then every `of`-th).
    mine: u64,
    stride: u64,
}

impl<'a> TileJoin<'a> {
    /// A join whose candidate ids index `data`, polling `lifecycle` at
    /// every tile and every 1024 probes within one.
    pub fn new(
        data: &'a Dataset,
        eps: f64,
        lifecycle: Option<&'a LifecycleCtx>,
    ) -> TileJoin<'a> {
        TileJoin {
            data,
            eps,
            tile_w: soa_tile_width(data.dims()),
            gather_min: (data.dims() / 4).max(1),
            lanes_min: GATHER_LANES_MIN,
            lifecycle,
            tile: SoABlock::empty(data.dims()),
            ids: Vec::new(),
            batch: WindowBatch::default(),
            widest: 0,
            tally: TileTally::default(),
            seq: 0,
            mine: 0,
            stride: 1,
        }
    }

    /// Restricts the join to share `index` of `of`: every tile a run reaches
    /// is numbered, in one sequence over all runs, and only those numbered
    /// `index` modulo `of` are counted, gathered and emitted. What a tile
    /// emits depends on `xs`, `ys` and its offset alone, so `of` joins given
    /// the same runs emit, between them and tile for tile, what one emits.
    pub fn share(mut self, index: usize, of: usize) -> TileJoin<'a> {
        (self.mine, self.stride) = (index as u64, of.max(1) as u64);
        self
    }

    /// Tallies over every [`TileJoin::run`] so far.
    pub fn tally(&self) -> TileTally {
        self.tally
    }

    /// Bytes the scratch tile (its columns and their f32 copy) and its
    /// two id lists have grown to.
    pub fn scratch_bytes(&self) -> u64 {
        let dims = self.data.dims();
        let lanes = self.widest.next_multiple_of(LANE_PAD);
        let lanes32 = self.widest.next_multiple_of(2 * LANE_PAD);
        (lanes * (dims * 8 + 8) + lanes32 * dims * 4) as u64
    }

    /// Emits every pair `(x, y)` of `xs × ys` whose coordinates differ by
    /// at most ε — with `within`, `xs` and `ys` are the same list and each
    /// unordered pair is emitted once, from its earlier entry. Both lists
    /// ascend. The float predicates are exactly `y0 < x0 - eps` (left of
    /// the window) and `y0 - x0 > eps` (right of it).
    ///
    /// Pairs arrive tile by tile of `ys`, within a tile probe by probe in
    /// `xs` order, within a probe in `ys` order.
    pub fn run<S: CandidateSink>(
        &mut self,
        xs: &[(f64, u32)],
        ys: &[(f64, u32)],
        within: bool,
        sink: &mut S,
    ) -> Result<()> {
        self.run_from(xs, ys, within, None, sink)
    }

    /// [`TileJoin::run`] with `ys` already transposed: `ys[k]` is lane
    /// `at + k` of `columns`. Every window goes to
    /// [`CandidateSink::windows`] on `columns` — nothing is counted,
    /// gathered or sent pair by pair —
    /// and the tiles, their numbers and the pair order are `run`'s.
    pub fn run_resident<S: CandidateSink>(
        &mut self,
        xs: &[(f64, u32)],
        ys: &[(f64, u32)],
        within: bool,
        columns: &SoABlock,
        at: usize,
        sink: &mut S,
    ) -> Result<()> {
        debug_assert!(at + ys.len() <= columns.len());
        self.run_from(xs, ys, within, Some((columns, at)), sink)
    }

    /// The tile loop of both column sources: the scratch tile, or
    /// `resident` columns with `ys` from the given lane on.
    fn run_from<S: CandidateSink>(
        &mut self,
        xs: &[(f64, u32)],
        ys: &[(f64, u32)],
        within: bool,
        resident: Option<(&SoABlock, usize)>,
        sink: &mut S,
    ) -> Result<()> {
        let (eps, lifecycle) = (self.eps, self.lifecycle);
        // First probe whose window can reach the current tile; both lists
        // ascend, so it only moves forward from tile to tile.
        let mut from = 0usize;
        for lo in (0..ys.len()).step_by(self.tile_w) {
            let hi = (lo + self.tile_w).min(ys.len());
            while from < xs.len() && ys[lo].0 - xs[from].0 > eps {
                from += 1;
            }
            if from == xs.len() {
                break;
            }
            let seq = self.seq;
            self.seq += 1;
            if seq != self.mine {
                continue;
            }
            self.mine += self.stride;
            let tile_ys = &ys[..hi];
            // Enough candidates to repay the transpose? Not when the tile is
            // narrower than `lanes_min`, nor when fewer than
            // `gather_min` probes remain (each holds at most one candidate
            // per lane): such a tile goes pair by pair, uncounted.
            // Otherwise counting stops as soon as the answer is yes.
            // Resident columns cost nothing to reuse: every tile is a block.
            let cutoff = self.gather_min * (hi - lo);
            let mut gather = resident.is_some();
            if !gather && hi - lo >= self.lanes_min && xs.len() - from >= self.gather_min {
                let mut total = 0usize;
                tile_windows(xs, tile_ys, lo, from, within, eps, None, |_, w| {
                    total += w.len();
                    total < cutoff
                })?;
                if total == 0 {
                    continue;
                }
                gather = total >= cutoff;
            }
            if gather && resident.is_none() {
                self.ids.clear();
                self.ids.extend(ys[lo..hi].iter().map(|y| y.1));
                self.tile.gather_into(self.data, &self.ids);
                self.widest = self.widest.max(hi - lo);
                self.tally.tiles_gathered += 1;
                self.tally.lanes_gathered += (hi - lo) as u64;
            }
            // `ys[k]` is lane `k - lo` of the scratch tile, `at + k` of
            // resident columns: lane = `base + k - lo`.
            let (tile, base) = resident.map_or((&self.tile, 0), |(c, at)| (c, at + lo));
            let batch = &mut self.batch;
            let (mut n, mut windows) = (0u64, 0u64);
            tile_windows(xs, tile_ys, lo, from, within, eps, lifecycle, |p, w| {
                n += w.len() as u64;
                windows += 1;
                if gather {
                    let lanes = base + w.start - lo..base + w.end - lo;
                    batch.push(sink, tile, xs[p].1, lanes);
                } else {
                    for y in &ys[w] {
                        sink.pair(xs[p].1, y.1);
                    }
                }
                true
            })
            .inspect_err(|_| batch.0.clear())?;
            batch.flush(sink, tile);
            if gather {
                self.tally.tiles_gathered += u64::from(resident.is_some() && n > 0);
                self.tally.block_candidates += n;
                self.tally.block_calls += windows;
            } else {
                self.tally.pair_candidates += n;
            }
            sink.end_tile(seq)?;
        }
        Ok(())
    }
}

/// Calls `f(p, window)` for each probe `xs[p]`, `p ≥ from`, whose ε-window
/// over the tile `ys[lo..]` (`ys` ends where the tile ends) is non-empty,
/// in probe order; `window` is an index range into `ys`. Stops early when
/// `f` returns `false`. Windows only move forward from probe to probe, so
/// one pass costs `O(probes + lanes)`; the lifecycle context, if given, is
/// polled at the first probe and every [`PROBES_PER_POLL`] after it.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_windows(
    xs: &[(f64, u32)],
    ys: &[(f64, u32)],
    lo: usize,
    from: usize,
    within: bool,
    eps: f64,
    lifecycle: Option<&LifecycleCtx>,
    mut f: impl FnMut(usize, Range<usize>) -> bool,
) -> Result<()> {
    let hi = ys.len();
    let Some(&(y_last, _)) = ys.last() else {
        return Ok(());
    };
    let (mut w0, mut w1) = (lo, lo);
    for (p, &(x0, _)) in xs.iter().enumerate().skip(from) {
        if (p - from) & (PROBES_PER_POLL - 1) == 0 {
            if let Some(lc) = lifecycle {
                lc.poll()?;
            }
        }
        if within {
            // Candidates are the later entries of the same list.
            if p + 1 >= hi {
                break;
            }
            w0 = w0.max(p + 1);
        } else {
            if y_last < x0 - eps {
                break;
            }
            while w0 < hi && ys[w0].0 < x0 - eps {
                w0 += 1;
            }
        }
        w1 = w1.max(w0);
        while w1 < hi {
            if ys[w1].0 - x0 > eps {
                break;
            }
            w1 += 1;
        }
        if w0 < w1 && !f(p, w0..w1) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::join::{CountSink, JoinKind, JoinSpec};
    use proptest::prelude::*;

    /// One cell's `(x0, id)` list.
    type List = Vec<(f64, u32)>;

    /// Reference enumeration (the pre-tile sweep): unordered pairs within
    /// one sorted list whose `x0` differ by at most ε.
    fn sweep_within(xs: &[(f64, u32)], eps: f64, offer: &mut dyn FnMut(u32, u32)) {
        for (idx, &(x0, i)) in xs.iter().enumerate() {
            for &(y0, j) in &xs[idx + 1..] {
                if y0 - x0 > eps {
                    break;
                }
                offer(i, j);
            }
        }
    }

    /// Reference enumeration: cross pairs of two sorted lists whose `x0`
    /// differ by at most ε.
    fn sweep_pair(
        xs: &[(f64, u32)],
        ys: &[(f64, u32)],
        eps: f64,
        offer: &mut dyn FnMut(u32, u32),
    ) {
        let mut start = 0usize;
        for &(x0, i) in xs {
            while start < ys.len() && ys[start].0 < x0 - eps {
                start += 1;
            }
            for &(y0, j) in &ys[start..] {
                if y0 - x0 > eps {
                    break;
                }
                offer(i, j);
            }
        }
    }

    /// Collects every event as pairs, checking each tile against the rows
    /// it claims to hold, and where in `pairs` each numbered tile ended.
    struct Collect<'a> {
        data: &'a Dataset,
        pairs: Vec<(u32, u32)>,
        ends: Vec<(u64, usize)>,
    }

    impl<'a> Collect<'a> {
        fn new(data: &'a Dataset) -> Collect<'a> {
            Collect {
                data,
                pairs: Vec::new(),
                ends: Vec::new(),
            }
        }
    }

    impl CandidateSink for Collect<'_> {
        fn windows(&mut self, tile: &SoABlock, windows: &[(u32, Range<usize>)]) {
            assert!((1..=WINDOWS_PER_CALL).contains(&windows.len()));
            for (i, lanes) in windows {
                assert!(lanes.start < lanes.end && lanes.end <= tile.len());
                for t in lanes.clone() {
                    let j = tile.ids()[t];
                    assert_eq!(tile.value(0, t).to_bits(), self.data.point(j)[0].to_bits());
                    self.pairs.push((*i, j));
                }
            }
        }
        fn pair(&mut self, i: u32, j: u32) {
            self.pairs.push((i, j));
        }
        fn end_tile(&mut self, seq: u64) -> Result<()> {
            self.ends.push((seq, self.pairs.len()));
            Ok(())
        }
    }

    impl Collect<'_> {
        /// The pairs of every numbered tile that emitted any, in order.
        fn tiles(&self) -> Vec<(u64, Vec<(u32, u32)>)> {
            let mut at = 0;
            let mut tiles = Vec::new();
            for &(seq, end) in &self.ends {
                if end > at {
                    tiles.push((seq, self.pairs[at..end].to_vec()));
                }
                at = end;
            }
            tiles
        }
    }

    /// Lanes in front of the candidate list in its resident columns: not a
    /// multiple of 8, so windows start mid-group as brute force's do.
    const AT: usize = 3;

    /// Transposes `ys` once, behind [`AT`] lanes of points no list holds
    /// (the last rows of a dataset from [`lists`]).
    fn resident(data: &Dataset, ys: &[(f64, u32)]) -> SoABlock {
        let pad = (data.len() - AT) as u32;
        let ids: Vec<u32> = (pad..pad + AT as u32)
            .chain(ys.iter().map(|y| y.1))
            .collect();
        let mut columns = SoABlock::empty(1);
        columns.gather_into(data, &ids);
        columns
    }

    /// A 1-d dataset holding `xs`, `ys`, then [`AT`] points no list holds,
    /// and the two sorted lists with ids into it.
    fn lists(xs: &[f64], ys: &[f64]) -> (Dataset, List, List) {
        let flat: Vec<f64> = xs.iter().chain(ys).chain(&[0.75; AT]).copied().collect();
        let data = Dataset::from_flat(1, flat).unwrap();
        let sorted = |vals: &[f64], base: usize| {
            let mut l: List = (base..).zip(vals).map(|(k, &v)| (v, k as u32)).collect();
            sort_by_coord(&mut l);
            l
        };
        (data, sorted(xs, 0), sorted(ys, xs.len()))
    }

    /// Checks `xs × ys` and `xs` within itself against the reference, as
    /// multisets (no pair twice, none missing), on the always-gather
    /// branch, the derived policy, the never-gather branch and resident
    /// columns — that `JoinStats.candidates` through the real refiner is the
    /// reference count on each, that every source emits the same pairs per
    /// numbered tile and leaves the refiner the same counters, and that three
    /// shares of the join (an odd count: uneven ownership), replayed in tile
    /// order, are its emission and its tally.
    fn check(xv: &[f64], yv: &[f64], eps: f64, tile_w: usize) {
        let (data, xs, ys) = lists(xv, yv);
        let spec = JoinSpec::l2(eps.max(1e-9));
        for within in [false, true] {
            let mut want = Vec::new();
            let (ys, kind) = if within {
                sweep_within(&xs, eps, &mut |i, j| want.push((i, j)));
                (&xs, JoinKind::SelfJoin)
            } else {
                sweep_pair(&xs, &ys, eps, &mut |i, j| want.push((i, j)));
                (&ys, JoinKind::TwoSets)
            };
            want.sort_unstable();
            let columns = resident(&data, ys);
            // (gather_min, lanes_min, column source)
            let sources = [
                (0usize, 0usize, None),
                (1, GATHER_LANES_MIN, None),
                (usize::MAX / 4096, 0, None),
                (1, GATHER_LANES_MIN, Some((&columns, AT))),
            ];
            let mut first = None;
            for (gather_min, lanes_min, source) in sources {
                let label = format!(
                    "within={within} w={tile_w} g={gather_min} resident={}",
                    source.is_some()
                );
                let tuned = |index, of| {
                    let mut join = TileJoin::new(&data, eps, None).share(index, of);
                    (join.tile_w, join.gather_min, join.lanes_min) =
                        (tile_w, gather_min, lanes_min);
                    join
                };
                let mut join = tuned(0, 1);
                let mut sink = Collect::new(&data);
                join.run_from(&xs, ys, within, source, &mut sink).unwrap();

                // Two runs each: tile numbers run on across one join's runs.
                let mut twice = tuned(0, 1);
                let mut whole = Collect::new(&data);
                let (mut tiles, mut shared) = (Vec::new(), TileTally::default());
                for _ in 0..2 {
                    twice.run_from(&xs, ys, within, source, &mut whole).unwrap();
                }
                for index in 0..3 {
                    let mut part = tuned(index, 3);
                    let mut out = Collect::new(&data);
                    for _ in 0..2 {
                        part.run_from(&xs, ys, within, source, &mut out).unwrap();
                    }
                    assert!(out.ends.iter().all(|e| e.0 % 3 == index as u64), "{label}");
                    tiles.extend(out.tiles());
                    shared += part.tally;
                }
                tiles.sort_unstable_by_key(|t| t.0);
                let replayed: Vec<_> = tiles.into_iter().flat_map(|t| t.1).collect();
                assert_eq!(replayed, whole.pairs, "{label}");
                assert_eq!(shared, twice.tally, "{label}");

                let emitted = sink.tiles();
                sink.pairs.sort_unstable();
                assert_eq!(sink.pairs, want, "{label}");
                let t = join.tally;
                assert_eq!(t.block_candidates + t.pair_candidates, want.len() as u64);
                assert_eq!(t.block_candidates == 0, t.tiles_gathered == 0, "{label}");
                assert!(gather_min != 0 || t.pair_candidates == 0, "{label}");
                assert!(gather_min <= 1 || t.tiles_gathered == 0, "{label}");
                if source.is_some() {
                    assert_eq!((t.pair_candidates, t.lanes_gathered), (0, 0), "{label}");
                }

                let mut out = CountSink::default();
                let mut refiner = Refiner::new(&data, &data, kind, &spec, &mut out);
                join.run_from(&xs, ys, within, source, &mut refiner)
                    .unwrap();
                let counters = refiner.counters();
                assert_eq!(counters.0, want.len() as u64, "{label}");
                let first = first.get_or_insert((emitted.clone(), counters));
                assert_eq!((&emitted, counters), (&first.0, first.1), "{label}");
            }
        }
    }

    #[test]
    fn empty_and_short_lists() {
        check(&[], &[0.5], 0.1, 16);
        check(&[0.5], &[], 0.1, 16);
        check(&[], &[], 0.1, 16);
        check(&[0.5], &[0.55], 0.1, 16);
        check(&[0.1, 0.15, 0.5, 0.52], &[0.05, 0.18, 0.45, 0.9], 0.1, 16);
    }

    #[test]
    fn duplicates_exact_eps_and_tile_boundaries() {
        // 40 candidates on a 1/64 lattice (exactly representable), tile
        // width 16: windows start and end exactly on lanes 16 and 32, probes
        // sit at distance exactly ε, and several x0 repeat.
        let ys: Vec<f64> = (0..40).map(|k| (k / 2) as f64 / 64.0).collect();
        let eps = 4.0 / 64.0;
        let xs: Vec<f64> = [0.0, 4.0, 8.0, 8.0, 12.0, 15.0, 16.0, 19.0, 19.0, 23.0]
            .iter()
            .map(|k| k / 64.0)
            .collect();
        for tile_w in [16, 4, 1, 64] {
            check(&xs, &ys, eps, tile_w);
            // Within-cell: the probe in the last lane of a tile (index 15,
            // 31) must still meet the first lanes of the next tile.
            check(&ys, &xs, eps, tile_w);
        }
        // All-equal x0: every pair is a candidate.
        check(&[0.25; 35], &[0.25; 33], 0.0625, 16);
    }

    #[test]
    fn cutoff_follows_dims_and_a_canceled_lifecycle_stops_the_join() {
        let d64 = Dataset::from_flat(64, vec![0.0; 64]).unwrap();
        assert_eq!(TileJoin::new(&d64, 0.1, None).gather_min, 16);
        let (data, xs, ys) = lists(&[0.1, 0.2], &[0.1, 0.2]);
        let lc = LifecycleCtx::unbounded();
        lc.cancel_token().cancel();
        let mut join = TileJoin::new(&data, 0.5, Some(&lc));
        assert_eq!(join.gather_min, 1);
        let mut sink = Collect::new(&data);
        let err = join.run(&xs, &ys, false, &mut sink).unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err:?}");
        assert!(sink.pairs.is_empty());
    }

    #[test]
    fn a_canceled_lifecycle_stops_a_resident_run() {
        let (data, xs, ys) = lists(&[0.1, 0.2], &[0.1, 0.2]);
        let columns = resident(&data, &ys);
        let lc = LifecycleCtx::unbounded();
        lc.cancel_token().cancel();
        let mut join = TileJoin::new(&data, 0.5, Some(&lc));
        let mut sink = Collect::new(&data);
        let err = join
            .run_resident(&xs, &ys, false, &columns, AT, &mut sink)
            .unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err:?}");
        assert!(sink.pairs.is_empty() && sink.ends.is_empty());
        assert_eq!(join.tally(), TileTally::default());
    }

    #[test]
    fn narrow_tiles_and_short_probe_lists_go_pair_by_pair() {
        // All-equal coordinates: every pair is a candidate, so only the
        // input's shape decides. (probes, candidates, gather_min, gathered)
        let shapes = [
            (20, GATHER_LANES_MIN - 1, 1, false),
            (20, GATHER_LANES_MIN, 1, true),
            (3, 40, 4, false),
            (4, 40, 4, true),
        ];
        for (probes, lanes, gather_min, gathered) in shapes {
            let (data, xs, ys) = lists(&vec![0.5; probes], &vec![0.5; lanes]);
            let mut join = TileJoin::new(&data, 0.1, None);
            join.gather_min = gather_min;
            let mut sink = Collect::new(&data);
            join.run(&xs, &ys, false, &mut sink).unwrap();
            assert_eq!(sink.pairs.len(), probes * lanes);
            let t = join.tally();
            let all = (probes * lanes) as u64;
            let want = if gathered { (all, 0) } else { (0, all) };
            assert_eq!((t.block_candidates, t.pair_candidates), want);
            // One tile, every probe's window non-empty: a window per probe.
            let calls = if gathered { probes as u64 } else { 0 };
            assert_eq!(t.block_calls, calls);
            // The scratch tile holds the widest gather: its padded 1-d
            // column, the f32 copy padded to 16 lanes, two id lists.
            let (w, w32) = (lanes.next_multiple_of(8), lanes.next_multiple_of(16));
            let bytes = if gathered { w * 8 + w32 * 4 + w * 8 } else { 0 };
            assert_eq!(join.scratch_bytes(), bytes as u64);
            assert!(join.scratch_bytes() >= join.tile.bytes());
        }
    }

    #[test]
    fn a_recorded_tally_uses_registered_names() {
        let tally = TileTally {
            tiles_gathered: 1,
            lanes_gathered: 2,
            block_candidates: 3,
            block_calls: 4,
            pair_candidates: 5,
        };
        assert_eq!(tally.counters().iter().map(|c| c.1).sum::<u64>(), 15);
        for algo in ["msj", "ekdb", "rsj", "grid"] {
            for (name, _) in tally.counters() {
                let name = format!("{algo}.{name}");
                assert!(
                    hdsj_obs::names::ALL.contains(&name.as_str()),
                    "{name} is not in the registry"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn tile_major_join_matches_the_pair_enumeration(
            xs in proptest::collection::vec(0u32..64, 0..70),
            ys in proptest::collection::vec(0u32..64, 0..70),
            eps_steps in 0u32..12,
            tile_w in prop_oneof![Just(16usize), Just(1), Just(5), Just(32)],
        ) {
            // A coarse lattice makes duplicates and exact-ε distances the
            // common case rather than the rare one.
            let to_f = |v: &[u32]| v.iter().map(|&k| k as f64 / 64.0).collect::<Vec<_>>();
            check(&to_f(&xs), &to_f(&ys), eps_steps as f64 / 64.0, tile_w);
        }
    }
}
