//! The synchronized stack sweep over the sorted level-file stream.
//!
//! The sorted stream visits cells in depth-first order of the hierarchy.
//! The sweep maintains a stack of *open* cells — exactly the ancestors of
//! the current cell — and joins each arriving cell against itself and the
//! stack. Correctness rests on the size-separation invariant: a cube
//! assigned to cell `c` lies entirely inside `c`, and grid cells of the
//! hierarchy are either nested or disjoint, so two intersecting cubes must
//! sit in ancestor-related cells.
//!
//! A cell-pair join is three filters before the exact metric (DESIGN §3.1
//! has the safety arguments and the measurements):
//!
//! 1. **Ancestor views.** An ancestor's point can only match a point of
//!    cell `c` if its ε-cube, quantised as level assignment quantises it,
//!    meets `c`. A cell whose join is big enough (`VIEW_MIN_WORK`) caches
//!    its *view*: the `(x0, id)`-sorted merge of all such points, narrowed
//!    from the nearest cached view on the stack plus the own lists from
//!    there down. Any other cell's points wait on each of those sources,
//!    which joins them unnarrowed, one batch per list, when it is popped or
//!    holds `PENDING_CAP` of them. The test is two ANDs on per-entry *reach
//!    masks*; a row is read after a level gap.
//! 2. **Stripes.** A join of two long lists is partitioned by ε-wide
//!    stripes of a second dimension and runs on same and adjacent stripes.
//! 3. **The plane sweep** along dimension 0 (lists kept sorted by the first
//!    coordinate): the shared tile-major [`TileJoin`], which hands the sink
//!    (probe, tile, lanes) windows of gathered candidate tiles.

use crate::assign::{cube_half, prefix_bits_equal, RecordCodec, TAG_A};
use hdsj_core::{
    sort_by_coord, CandidateSink, Dataset, Error, JoinKind, LifecycleCtx, Result, TileJoin,
    TileTally,
};
use hdsj_sfc::grid::quantize;
use hdsj_storage::RecordFile;

/// Dimensions a view tests, one bit each in a reach mask (two `u16`: the
/// four padding bytes of `(f64, u32)`). The rest are not tested, so an
/// entry costs the same at every `d`: testing all 64 on the survivors'
/// rows cost `fourier_d64` 2–3 ms of a 17 ms sweep and no candidate less.
const MASK_DIMS: usize = 16;

/// A cell caches a view once (own points) × (entries of its sources)
/// reaches this: narrowing costs 8–15 ns per source entry and saves each
/// own point its window over the pruned ones. Sweep medians at 2 048–32 768
/// / 65 536 / 131 072: `lowdim_d4` 41–43 / 40 (8 192's work) / 51 ms, E10
/// 18–20 / 15 / 13 ms (no view); DESIGN §3.1 says why 8 192 stays.
const VIEW_MIN_WORK: usize = 8192;

/// Entries at which an open cell joins its pending list early: it never holds
/// more than this plus one view-less cell (< `VIEW_MIN_WORK` points).
pub const PENDING_CAP: usize = 1024;

/// Entries both lists need before a join is striped, and stripes the
/// sampled spread must span. Candidate counts are flat from 128 to 512
/// entries; at 1 024 `lowdim_d4` keeps 5.0 M instead of 2.9 M.
const STRIPE_MIN_ENTRIES: usize = 256;
const STRIPE_MIN_STRIPES: usize = 4;

/// Rows sampled per list to pick the stripe dimension.
const STRIPE_SAMPLE: usize = 64;

/// Most stripes per join (wider ones are as exact): keeps the rounding
/// error of a stripe index far below the 1e-9 a stripe is wider than ε.
const STRIPES_MAX: usize = 1024;

/// Entries walked between lifecycle polls while narrowing or striping.
const POLL_EVERY: usize = 1024;

type Entry = (f64, u32);

/// What one sweep did, beyond the candidates it emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepTally {
    /// Peak bytes of the open-cell stack (views and masks included), the
    /// stripe scratch and the scratch tile: structure memory, experiment E5.
    pub peak_bytes: u64,
    /// The cell-pair joins' gather/block/pair tallies.
    pub tiles: TileTally,
    /// Source entries tested while narrowing views (dim-0 range only).
    pub view_tested: u64,
    /// Of those, entries whose cube met the cell.
    pub view_kept: u64,
    /// Joins partitioned by a second dimension's stripes.
    pub striped_joins: u64,
}

/// The quantised ε-cube arithmetic of level assignment, re-run at sweep
/// time. Float rounding and `quantize` are monotone, so a point within ε
/// of any point assigned to cell `c` has a cube that meets `c`.
#[derive(Clone, Copy)]
struct Cubes {
    depth: u32,
    half: f64,
}

impl Cubes {
    /// First and last cell of the `level` grid the cube of `x` covers.
    fn span(self, x: f64, level: u32) -> (u32, u32) {
        let face = |x| quantize(x, self.depth) >> (self.depth - level);
        (face(x - self.half), face(x + self.half))
    }

    /// Does the cube of `p` meet `cell` of the `level` grid (tested dims)?
    fn meets(self, p: &[f64], level: u32, cell: &[u32]) -> bool {
        p.iter().zip(cell).take(MASK_DIMS).all(|(&x, &c)| {
            let (lo, hi) = self.span(x, level);
            lo <= c && c <= hi
        })
    }

    /// Reach masks of `p` within `cell` of the `level` grid: bit `k` of `.0`
    /// / `.1` says the cube meets the cell's low / high half in dimension `k`.
    fn reach(self, p: &[f64], level: u32, cell: &[u32]) -> (u16, u16) {
        let dims = p.iter().zip(cell).take(MASK_DIMS).enumerate();
        dims.fold((0, 0), |m, (k, (&x, &c))| {
            let (lo, hi) = self.span(x, level + 1);
            let bit = |half: u32| u16::from(lo <= half && half <= hi) << k;
            (m.0 | bit(2 * c), m.1 | bit(2 * c + 1))
        })
    }
}

/// A point list sorted by `(x0, id)` and, once a descendant has narrowed
/// from it, each entry's reach masks within the cell that holds the list.
#[derive(Default)]
struct List {
    pts: Vec<Entry>,
    reach: Vec<(u16, u16)>,
}

/// One open cell on the sweep stack: its identity and the points it holds,
/// kept sorted by dimension 0 for the plane sweep.
struct OpenCell {
    key: Vec<u8>,
    level: u8,
    /// Grid coordinates of the cell at its level.
    cell: Vec<u32>,
    /// The cell's own points: left input, right input (two-set joins only).
    own: [List; 2],
    /// Per input, the ancestors' points whose cube meets the cell.
    view: Option<[List; 2]>,
    /// Own points of view-less descendants, to be joined ([`Joiner::flush`]).
    pending: [List; 2],
}

impl OpenCell {
    fn lists(&self) -> impl Iterator<Item = &List> {
        self.own.iter().chain(self.view.iter().flatten())
    }

    fn bytes(&self) -> u64 {
        let entry = |l: &List| l.pts.len() * 12 + l.reach.len() * 4;
        let held: usize = self.lists().chain(&self.pending).map(entry).sum();
        (self.key.len() + self.cell.len() * 4 + held + 64) as u64
    }
}

/// Width and number of the stripes a `spread` of coordinates is cut into.
fn stripes(eps: f64, spread: f64) -> (f64, usize) {
    let w = (eps * (1.0 + 1e-9)).max(spread / STRIPES_MAX as f64);
    (w, ((spread / w) as usize).min(STRIPES_MAX) + 1)
}

/// The stripe of `v` among `n` of width `w` from `base` on, the outermost
/// open-ended: values the kernel calls within ε land at most one apart.
fn stripe_of(v: f64, base: f64, w: f64, n: usize) -> usize {
    (((v - base) / w) as usize).min(n - 1)
}

/// What a cell-pair join needs besides the stack.
struct Joiner<'a> {
    /// Left and right input (the same dataset for a self-join).
    data: [&'a Dataset; 2],
    kind: JoinKind,
    eps: f64,
    cubes: Cubes,
    lifecycle: Option<&'a LifecycleCtx>,
    join: TileJoin<'a>,
    /// Most bytes one striped join's scratch held (it is freed after).
    stripe_scratch: usize,
    tally: SweepTally,
}

/// Runs share `share.0` of `share.1` of the sweep, delivering its candidates
/// to `sink`: the whole stream is read and every cell opened, narrowed and
/// striped, but of the tiles the cell-pair joins reach only those of the
/// share ([`TileJoin::share`]) are counted, gathered and emitted — so the
/// view and stripe tallies are the whole sweep's in every share and the
/// tile tallies add up over the shares. The lifecycle context is polled at
/// every tile, and every 1 024 entries of narrowing or striping.
#[allow(clippy::too_many_arguments)]
pub fn sweep<S: CandidateSink>(
    sorted: &RecordFile,
    codec: &RecordCodec,
    a: &Dataset,
    b: &Dataset,
    kind: JoinKind,
    eps: f64,
    lifecycle: Option<&LifecycleCtx>,
    share: (usize, usize),
    sink: &mut S,
) -> Result<SweepTally> {
    let dims = a.dims() as u32;
    let (depth, half) = (codec.key_bits() / dims, cube_half(eps));
    let cubes = Cubes { depth, half };
    let mut stack: Vec<OpenCell> = Vec::new();
    let mut current: Option<OpenCell> = None;
    let mut joiner = Joiner {
        data: [a, b],
        kind,
        eps,
        cubes,
        lifecycle,
        join: TileJoin::new(b, eps, lifecycle).share(share.0, share.1),
        stripe_scratch: 0,
        tally: SweepTally::default(),
    };
    let mut cursor = sorted.cursor();

    while let Some(rec) = cursor.next()? {
        let key = codec.key_of(rec);
        let (level, tag, id) = codec.meta_of(rec);
        let side = usize::from(tag != TAG_A);
        let p = joiner.data[side].point(id);
        let same_cell = matches!(&current, Some(c) if c.level == level && c.key[..] == *key);
        if !same_cell {
            // Close out the previous cell: join it and push it.
            if let Some(cell) = current.take() {
                joiner.process_cell(cell, &mut stack, sink)?;
            }
            // Pop stack cells that are not ancestors of the new cell.
            let off_path = |top: &mut OpenCell| {
                top.level >= level || !prefix_bits_equal(&top.key, key, dims * top.level as u32)
            };
            while let Some(mut top) = stack.pop_if(off_path) {
                joiner.flush(&mut top, sink)?;
            }
            current = Some(OpenCell {
                key: key.to_vec(),
                level,
                // The coordinates `Assigner` derived the key from.
                cell: p.iter().map(|&x| cubes.span(x, level as u32).0).collect(),
                own: Default::default(),
                view: None,
                pending: Default::default(),
            });
        }
        let Some(cell) = current.as_mut() else {
            // The branch above opens a cell whenever none matched; an empty
            // slot here is a sweep logic bug, reported as a typed error.
            return Err(Error::Storage("sweep lost its open cell".into()));
        };
        cell.own[side].pts.push((p[0], id));
    }
    if let Some(cell) = current.take() {
        joiner.process_cell(cell, &mut stack, sink)?;
    }
    while let Some(mut top) = stack.pop() {
        joiner.flush(&mut top, sink)?;
    }
    joiner.tally.peak_bytes += joiner.stripe_scratch as u64 + joiner.join.scratch_bytes();
    joiner.tally.tiles = joiner.join.tally();
    Ok(joiner.tally)
}

impl Joiner<'_> {
    fn poll(&self, i: usize) -> Result<()> {
        let due = self.lifecycle.filter(|_| i.is_multiple_of(POLL_EVERY));
        due.map_or(Ok(()), |lc| lc.poll())
    }

    /// Joins a freshly completed cell against itself and against what can
    /// reach it from the open ancestors, then pushes it.
    fn process_cell<S: CandidateSink>(
        &mut self,
        mut cell: OpenCell,
        stack: &mut Vec<OpenCell>,
        sink: &mut S,
    ) -> Result<()> {
        cell.own.iter_mut().for_each(|l| sort_by_coord(&mut l.pts));
        let (a, b) = (&cell.own[0].pts, &cell.own[1].pts);
        let within = self.kind == JoinKind::SelfJoin;
        self.run(a, if within { a } else { b }, within, sink)?;
        // The sources: the nearest cached view, and the own lists from its
        // cell down to the parent.
        let from = stack.iter().rposition(|c| c.view.is_some()).unwrap_or(0);
        let sources = &mut stack[from..];
        let entries = sources.iter().flat_map(|c| c.lists()).map(|l| l.pts.len());
        if (a.len() + b.len()).saturating_mul(entries.sum()) >= VIEW_MIN_WORK {
            let view = self.narrow(sources, &cell)?;
            self.cross(&cell.own, &view, sink)?;
            cell.view = Some(view);
        } else {
            // Too small to narrow: its points wait on each source's batch.
            for anc in sources.iter_mut() {
                for (pending, own) in anc.pending.iter_mut().zip(&cell.own) {
                    pending.pts.extend_from_slice(&own.pts);
                }
            }
        }
        stack.push(cell);
        let held = stack.iter().map(|c| c.bytes()).sum();
        self.tally.peak_bytes = self.tally.peak_bytes.max(held);
        for anc in &mut stack[from..] {
            if anc.pending.iter().map(|l| l.pts.len()).sum::<usize>() >= PENDING_CAP {
                self.flush(anc, sink)?;
            }
        }
        Ok(())
    }

    /// Joins and empties `cell`'s pending list: against its view and own
    /// lists, which have not changed since those points arrived.
    fn flush<S: CandidateSink>(&mut self, cell: &mut OpenCell, sink: &mut S) -> Result<()> {
        for list in &mut cell.pending {
            sort_by_coord(&mut list.pts);
        }
        for lists in cell.view.iter().chain([&cell.own]) {
            self.cross(&cell.pending, lists, sink)?;
        }
        cell.pending.iter_mut().for_each(|l| l.pts.clear());
        Ok(())
    }

    /// A cell's own lists × a view or an ancestor's own lists, as (a-id,
    /// b-id). A self-join's left lists stand in for its empty right ones.
    fn cross<S: CandidateSink>(
        &mut self,
        own: &[List; 2],
        anc: &[List; 2],
        sink: &mut S,
    ) -> Result<()> {
        let right = usize::from(self.kind == JoinKind::TwoSets);
        self.run(&own[0].pts, &anc[right].pts, false, sink)?;
        self.run(&anc[0].pts, &own[1].pts, false, sink)
    }

    /// The view of `cell`: per input, the entries of `sources` whose cube
    /// meets it, sorted by `(x0, id)`.
    fn narrow(&mut self, sources: &mut [OpenCell], cell: &OpenCell) -> Result<[List; 2]> {
        let (cubes, level, c) = (self.cubes, cell.level as u32, &cell.cell[..]);
        let mut view: [List; 2] = Default::default();
        for (side, out) in view.iter_mut().enumerate() {
            let (data, out, mut runs) = (self.data[side], &mut out.pts, 0);
            for anc in sources.iter_mut() {
                // Which half of `anc` the cell lies in, per tested
                // dimension. After a level gap the masks only place the
                // cube in the right child of `anc`: the row decides.
                let gap = level - anc.level as u32 - 1;
                let bits = c.iter().take(MASK_DIMS).enumerate();
                let high = bits.fold(0u16, |m, (k, &c)| m | ((c >> gap & 1) as u16) << k);
                let low = !high & (u16::MAX >> MASK_DIMS.saturating_sub(c.len()));
                let (held_level, held_cell) = (anc.level as u32, &anc.cell[..]);
                let lists = anc.view.iter_mut().map(|v| &mut v[side]);
                for src in lists.chain([&mut anc.own[side]]) {
                    // The cell's dim-0 range, by the same quantised test.
                    let span = |e: &Entry| cubes.span(e.0, level);
                    let lo = src.pts.partition_point(|e| span(e).1 < c[0]);
                    let hi = src.pts.partition_point(|e| span(e).0 <= c[0]);
                    if lo < hi && src.reach.is_empty() {
                        src.reach.reserve_exact(src.pts.len());
                        for (i, e) in src.pts.iter().enumerate() {
                            self.poll(i)?;
                            src.reach
                                .push(cubes.reach(data.point(e.1), held_level, held_cell));
                        }
                    }
                    let before = out.len();
                    for i in lo..hi {
                        self.poll(i)?;
                        let ((reach_low, reach_high), e) = (src.reach[i], src.pts[i]);
                        if (low & !reach_low) | (high & !reach_high) == 0
                            && (gap == 0 || cubes.meets(data.point(e.1), level, c))
                        {
                            out.push(e);
                        }
                    }
                    self.tally.view_tested += (hi - lo) as u64;
                    self.tally.view_kept += (out.len() - before) as u64;
                    runs += usize::from(out.len() > before);
                }
            }
            if runs > 1 {
                sort_by_coord(out);
            }
        }
        Ok(view)
    }

    /// [`TileJoin::run`] on `xs × ys`; when both are long and the
    /// widest-spread other dimension (over a sample of both) spans enough
    /// stripes of width ε·(1 + 1e-9), on same and adjacent stripes only.
    fn run<S: CandidateSink>(
        &mut self,
        xs: &[Entry],
        ys: &[Entry],
        within: bool,
        sink: &mut S,
    ) -> Result<()> {
        if xs.is_empty() || ys.is_empty() {
            return Ok(());
        }
        let [a, b] = self.data;
        let rows = || {
            let xs = xs.iter().step_by(xs.len().div_ceil(STRIPE_SAMPLE));
            let ys = ys.iter().step_by(ys.len().div_ceil(STRIPE_SAMPLE));
            xs.map(|e| a.point(e.1)).chain(ys.map(|e| b.point(e.1)))
        };
        let spreads = (1..a.dims()).map(|k| {
            let ends = (f64::INFINITY, f64::NEG_INFINITY);
            let (lo, hi) = rows().fold(ends, |(lo, hi), p| (lo.min(p[k]), hi.max(p[k])));
            (hi - lo, k, lo)
        });
        let long = xs.len().min(ys.len()) >= STRIPE_MIN_ENTRIES;
        let widest = long.then(|| spreads.max_by(|x, y| x.0.total_cmp(&y.0)));
        let (spread, dim, base) = widest.flatten().unwrap_or((0.0, 0, 0.0));
        let (w, n) = stripes(self.eps, spread);
        if n < STRIPE_MIN_STRIPES {
            return self.join.run(xs, ys, within, sink);
        }
        self.tally.striped_joins += 1;
        let gx = self.group(xs, n, |e| stripe_of(a.point(e.1)[dim], base, w, n))?;
        let of_y = |e: &Entry| stripe_of(b.point(e.1)[dim], base, w, n);
        let gy = (!within).then(|| self.group(ys, n, of_y)).transpose()?;
        let ((ix, sx), (iy, sy)) = (&gx, gy.as_ref().unwrap_or(&gx));
        let fill = |stripe: &mut Vec<Entry>, list: &[Entry], of: &[u32]| {
            stripe.clear();
            stripe.extend(of.iter().map(|&i| list[i as usize]));
        };
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for s in 0..n {
            fill(&mut x, xs, &ix[sx[s]..sx[s + 1]]);
            let first = if within { s } else { s.saturating_sub(1) };
            for t in first..(s + 2).min(n) {
                if within && t == s {
                    self.join.run(&x, &x, true, sink)?;
                } else if !x.is_empty() {
                    fill(&mut y, ys, &iy[sy[t]..sy[t + 1]]);
                    self.join.run(&x, &y, false, sink)?;
                }
            }
        }
        // Per entry an index and, while grouping, its stripe; two stripes.
        let scratch = (ix.len() + gy.as_ref().map_or(0, |g| g.0.len())) * 6
            + (x.capacity() + y.capacity()) * 12;
        self.stripe_scratch = self.stripe_scratch.max(scratch);
        Ok(())
    }

    /// The indices of `list` grouped by stripe — stably, so a stripe keeps
    /// the list's order — and the `n + 1` offsets where each stripe starts.
    fn group(
        &self,
        list: &[Entry],
        n: usize,
        stripe_of: impl Fn(&Entry) -> usize,
    ) -> Result<(Vec<u32>, Vec<usize>)> {
        let mut stripes = Vec::with_capacity(list.len());
        for (i, e) in list.iter().enumerate() {
            self.poll(i)?;
            stripes.push(stripe_of(e) as u16);
        }
        let mut grouped: Vec<u32> = (0..list.len() as u32).collect();
        grouped.sort_by_key(|&i| stripes[i as usize]);
        let before = |s| grouped.partition_point(|&i| (stripes[i as usize] as usize) < s);
        let starts = (0..=n).map(before).collect();
        Ok((grouped, starts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assigner;
    use hdsj_core::SimilarityJoin;
    use hdsj_sfc::Curve;
    use proptest::prelude::*;

    fn joiner<'a>(a: &'a Dataset, b: &'a Dataset, eps: f64, depth: u32) -> Joiner<'a> {
        Joiner {
            data: [a, b],
            kind: JoinKind::TwoSets,
            eps,
            cubes: Cubes {
                depth,
                half: cube_half(eps),
            },
            lifecycle: None,
            join: TileJoin::new(b, eps, None),
            stripe_scratch: 0,
            tally: SweepTally::default(),
        }
    }

    fn open_cell(level: u32, cell: Vec<u32>) -> OpenCell {
        OpenCell {
            key: Vec::new(),
            level: level as u8,
            cell,
            own: Default::default(),
            view: None,
            pending: Default::default(),
        }
    }

    /// The quantised cube of `Assigner::assign`, recomputed from scratch:
    /// does it overlap `cell` of the `level` grid in every dimension a view
    /// tests?
    fn overlaps(p: &[f64], eps: f64, depth: u32, level: u32, cell: &[u32]) -> bool {
        let half = eps / 2.0 * (1.0 + 1e-12);
        p.iter().zip(cell).take(MASK_DIMS).all(|(&x, &c)| {
            let lo = quantize(x - half, depth) >> (depth - level);
            let hi = quantize(x + half, depth) >> (depth - level);
            lo <= c && c <= hi
        })
    }

    /// A deterministic value in [0, 1) from a seed and a position.
    fn unit(seed: u64, at: u64) -> f64 {
        let h =
            (seed ^ at.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0x2545_f491_4f6c_dd1d);
        ((h ^ (h >> 29)) >> 11) as f64 / (1u64 << 53) as f64
    }

    proptest! {
        #[test]
        fn view_test_keeps_exactly_the_cubes_that_overlap_the_cell(
            dims in prop_oneof![1usize..6, 14usize..20],
            depth in 1u32..8,
            eps in 0.001f64..0.6,
            levels in (0u32..8, 0u32..8),
            seed in any::<u64>(),
        ) {
            // A cell at `level`, a holder at a shallower level above it (so
            // both the adjacent-level mask path and the level-gap row path
            // run), and points in and around the domain.
            let level = 1 + levels.0 % depth;
            let held = levels.1 % level;
            let cell: Vec<u32> =
                (0..dims).map(|k| (unit(seed, k as u64) * (1u64 << level) as f64) as u32).collect();
            let holder: Vec<u32> = cell.iter().map(|c| c >> (level - held)).collect();
            let rows: Vec<Vec<f64>> = (0..40u64)
                .map(|i| {
                    (0..dims as u64)
                        .map(|k| {
                            // Half the points near the cell, half anywhere
                            // in [-0.3, 1.3).
                            let u = unit(seed, 100 + i * 64 + k);
                            let side = 1.0 / (1u64 << level) as f64;
                            if i % 2 == 0 {
                                (cell[k as usize] as f64 + 3.0 * u - 1.0) * side
                            } else {
                                1.6 * u - 0.3
                            }
                        })
                        .collect()
                })
                .collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let mut pts: Vec<Entry> = (0..40u32).map(|i| (data.point(i)[0], i)).collect();
            sort_by_coord(&mut pts);
            let mut anc = open_cell(held, holder);
            anc.own[0].pts = pts.clone();
            let mut j = joiner(&data, &data, eps, depth);
            let view = j.narrow(std::slice::from_mut(&mut anc), &open_cell(level, cell.clone())).unwrap();
            let want: Vec<Entry> = pts
                .iter()
                .copied()
                .filter(|e| overlaps(data.point(e.1), eps, depth, level, &cell))
                .collect();
            prop_assert_eq!(&view[0].pts, &want);
            prop_assert!(view[1].pts.is_empty());
            prop_assert!(j.tally.view_kept <= j.tally.view_tested);
            prop_assert_eq!(j.tally.view_kept, want.len() as u64);
        }

        #[test]
        fn a_point_within_eps_of_a_cells_point_passes_the_cells_test(
            dims in 1usize..6,
            eps in 0.004f64..0.4,
            seed in any::<u64>(),
        ) {
            // Exactly as conservative as the level assignment: `q` is
            // assigned to a cell by the real `Assigner`, `p` is within ε of
            // it in every dimension (some exactly ε away), and `p` must pass
            // the test for that cell from every ancestor level.
            let depth = ((1.0 / eps).log2().floor().max(1.0) as u32).min(16);
            let q: Vec<f64> = (0..dims as u64).map(|k| 1.2 * unit(seed, k) - 0.1).collect();
            let p: Vec<f64> = q
                .iter()
                .enumerate()
                .map(|(k, &x)| match unit(seed, 50 + k as u64) {
                    u if u < 0.2 => x + eps,
                    u if u < 0.4 => x - eps,
                    u => x + (2.5 * u - 1.5) * eps,
                })
                .collect();
            prop_assume!(p.iter().zip(&q).all(|(a, b)| (a - b).abs() <= eps));
            let (key, level) = Assigner::new(dims, depth, eps, Curve::Hilbert).unwrap().assign(&q);
            let level = level as u32;
            let data = Dataset::from_rows(&[p.clone(), q.clone()]).unwrap();
            let mut j = joiner(&data, &data, eps, depth);
            let cell: Vec<u32> = q.iter().map(|&x| j.cubes.span(x, level).0).collect();
            if level > 0 {
                // The sweep's coordinates are the cell the key encodes.
                let bits = dims as u32 * level;
                prop_assert_eq!(key.prefix(bits), Curve::Hilbert.key(&cell, level));
            }
            prop_assert!(j.cubes.meets(&p, level, &cell));
            for held in 0..level {
                let holder: Vec<u32> = cell.iter().map(|c| c >> (level - held)).collect();
                let mut anc = open_cell(held, holder);
                anc.own[0].pts = vec![(p[0], 0)];
                let view = j.narrow(std::slice::from_mut(&mut anc), &open_cell(level, cell.clone())).unwrap();
                prop_assert_eq!(&view[0].pts, &vec![(p[0], 0)], "from level {}", held);
            }
        }

        #[test]
        fn values_within_eps_land_at_most_one_stripe_apart(
            eps in 1e-7f64..0.5,
            spread in 0.0f64..40.0,
            base in -20.0f64..20.0,
            at in 0.0f64..1.0,
            gap in prop_oneof![Just(1.0f64), 0.0f64..1.0],
            place in 0u8..3,
        ) {
            // `a` anywhere in the sampled spread, around it (the outermost
            // stripes are open-ended), or a hair below a stripe boundary —
            // where a stripe any narrower than ε would put `b` two stripes
            // on; `b` up to exactly ε above `a` as the kernel measures: the
            // rounded difference is at most ε.
            let (w, n) = stripes(eps, spread);
            let a = match place {
                0 => base + at * spread,
                1 => base + (3.0 * at - 1.0) * spread,
                _ => {
                    let edge = base + (at * n as f64).floor() * w;
                    edge - edge.abs() * 4e-16 - f64::MIN_POSITIVE
                }
            };
            let b = a + gap * eps;
            prop_assume!(b - a <= eps);
            let (sa, sb) = (stripe_of(a, base, w, n), stripe_of(b, base, w, n));
            prop_assert!(sa <= sb && sb - sa <= 1, "{} and {} of {}", sa, sb, n);
            prop_assert!(n <= STRIPES_MAX + 1 && sb < n);
        }
    }

    #[test]
    fn pending_points_count_toward_the_peak_structure_bytes() {
        // ε = 0.01 ⇒ depth 6. Four level-0 points and 1 000 points at the
        // centres of distinct level-6 cells: no cell is big enough for a
        // view, so all 1 000 wait on the root (fewer than the cap) until
        // the stream ends.
        let centre = |c: u32| (c as f64 + 0.5) / 64.0;
        let mut rows: Vec<Vec<f64>> = [[0.5, 0.5], [0.5, 0.2], [0.2, 0.5], [0.5, 0.8]]
            .map(Vec::from)
            .into();
        rows.extend(
            (0..1000u32).map(|i| vec![centre(i * 37 % 64), centre(i * 37 % 4096 / 64)]),
        );
        let data = Dataset::from_rows(&rows).unwrap();
        let mut msj = crate::Msj::default();
        let hist = msj.level_histogram(&data, 0.01).unwrap();
        assert_eq!((hist[0], hist[6]), (4, 1000), "{hist:?}");
        const { assert!(1000 < PENDING_CAP) };
        let spec = hdsj_core::JoinSpec::l2(0.01);
        let mut sink = hdsj_core::VecSink::default();
        let stats = msj.self_join(&data, &spec, &mut sink).unwrap();
        assert!(
            stats.structure_bytes >= 1000 * 12,
            "{}",
            stats.structure_bytes
        );
    }

    #[test]
    fn narrowed_views_equal_the_naive_filter_of_every_ancestor_list() {
        // Real assignments of two inputs; every chain of non-empty ancestor
        // cells above every cell is replayed top-down with every second
        // cell caching its view, so views are narrowed from views, from own
        // lists, across level gaps, and from masks built once and reused.
        for (dims, eps, seed) in [
            (2usize, 0.02, 1u64),
            (3, 0.05, 2),
            (5, 0.11, 3),
            (18, 0.2, 4),
        ] {
            let depth = (1.0f64 / eps).log2().floor() as u32;
            // Uniform in low d; in high d three tight clusters at cell
            // centres, every fourth point spilling over a boundary in a
            // few dimensions (uniform data would all sit in level 0).
            let coord = |seed: u64, i: u64, k: u64| {
                let u = unit(seed, i * 32 + k);
                if dims < 10 {
                    return u;
                }
                let centre = ((unit(seed + i % 3, 9000 + k) * 4.0).floor() + 0.5) / 4.0;
                let spills = i.is_multiple_of(4) && k % 7 == i / 4 % 7;
                centre + (u - 0.5) * if spills { 0.5 } else { 0.04 }
            };
            let rows = |seed: u64| -> Vec<Vec<f64>> {
                (0..700u64)
                    .map(|i| (0..dims as u64).map(|k| coord(seed, i, k)).collect())
                    .collect()
            };
            let data = [
                Dataset::from_rows(&rows(seed)).unwrap(),
                Dataset::from_rows(&rows(seed + 10)).unwrap(),
            ];
            let mut j = joiner(&data[0], &data[1], eps, depth);
            let cubes = j.cubes;
            // (level, cell) → own lists, as the sweep would collect them.
            let mut cells: std::collections::BTreeMap<(u32, Vec<u32>), [Vec<Entry>; 2]> =
                Default::default();
            let mut assigner = Assigner::new(dims, depth, eps, Curve::Hilbert).unwrap();
            for (side, ds) in data.iter().enumerate() {
                for (id, p) in ds.iter() {
                    let level = assigner.assign(p).1 as u32;
                    let cell = p.iter().map(|&x| cubes.span(x, level).0).collect();
                    cells.entry((level, cell)).or_default()[side].push((p[0], id));
                }
            }
            let (mut checked, mut gaps) = (0, 0);
            for (level, cell) in cells.keys() {
                let mut stack: Vec<OpenCell> = Vec::new();
                for l in 0..=*level {
                    let at: Vec<u32> = cell.iter().map(|c| c >> (level - l)).collect();
                    let Some(own) = cells.get(&(l, at.clone())) else {
                        continue;
                    };
                    let mut open = open_cell(l, at);
                    for (list, own) in open.own.iter_mut().zip(own) {
                        list.pts = own.clone();
                        sort_by_coord(&mut list.pts);
                    }
                    gaps +=
                        usize::from(stack.last().is_some_and(|top| top.level as u32 + 1 < l));
                    let from = stack.iter().rposition(|c| c.view.is_some()).unwrap_or(0);
                    let view = j.narrow(&mut stack[from..], &open).unwrap();
                    for side in 0..2 {
                        let mut want: Vec<Entry> = stack
                            .iter()
                            .flat_map(|c| c.own[side].pts.iter().copied())
                            .filter(|e| cubes.meets(data[side].point(e.1), l, &open.cell))
                            .collect();
                        sort_by_coord(&mut want);
                        assert_eq!(view[side].pts, want, "d={dims} level {l} side {side}");
                        checked += want.len();
                    }
                    if stack.len().is_multiple_of(2) {
                        open.view = Some(view);
                    }
                    stack.push(open);
                }
            }
            assert!(
                checked > 500 && gaps > 0,
                "d={dims}: {checked} entries, {gaps} gaps"
            );
            assert!(j.tally.view_kept <= j.tally.view_tested);
        }
    }
}
