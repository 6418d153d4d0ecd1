//! The SSE2/AVX2/AVX-512 block kernel for x86-64.
//!
//! The kernel vectorizes **across candidates** — two (SSE2), four (AVX2)
//! or eight (AVX-512) candidates per vector, one accumulator vector per
//! dimension lane, streaming the contiguous [`SoABlock`] columns — and is
//! one body ([`block_kernel!`]) for all three widths. Each vector lane
//! reproduces the **exact** arithmetic of the 4-lane scalar kernels in
//! [`crate::kernels`] for its candidate: dimensions `≡ k (mod 4)` feed
//! accumulator `k` with plain IEEE sub/mul/add (never FMA), the
//! per-candidate sum is the canonical monotone fold
//! `(acc0 + acc1) + (acc2 + acc3)` plus a separately chained tail, and
//! `abs` clears the sign bit, which matches `f64::abs` bit for bit.
//! Because the fold is monotone in the non-negative terms, the
//! all-lanes-exceed early exit ([`check_due`]) returns the same decisions
//! as the full sum, so block decisions equal [`crate::Metric::within`]'s
//! (and join results are byte-identical) at every dispatch level.
//!
//! One call takes a block and a list of probe windows: its fixed costs —
//! cutting the columns, the f32 budget — are paid once per list, not once
//! per window. In front of the f64 body the same body runs over the
//! block's f32 copy, twice the candidates per vector, against a budget
//! ([`f32_budget`]) widened by a bound on every rounding the f32 copy and
//! f32 arithmetic add: it only drops a lane the f64 body would reject, and
//! the f64 body alone decides every lane it keeps. Two consecutive windows
//! that both reach that stage share its column loads, two probes per pass.
//!
//! This file is the only place in the workspace where `unsafe` is
//! permitted: hdsj-core carries `#![deny(unsafe_code)]` and every other
//! crate keeps `forbid`. The unsafe surface is exactly (a) one unaligned
//! vector load per width, from the start of a slice that safe code cut to
//! `LANES` elements — the bound is the slice's, checked in every build —
//! and (b) one entry wrapper per tier, whose target feature the dispatch
//! probe has verified (rustc rejects any other call into a
//! `#[target_feature]` fn from an ungated one: E0133). DESIGN §17.
#![allow(unsafe_code)]

use crate::dataset::Dataset;
use crate::simd::{portable, Scratch};
use crate::soa::SoABlock;
use std::ops::Range;
use std::slice::ChunksExact;

/// The bits of the lanes of the group `t..t + g` that lie inside `lanes`
/// (bit `k` for lane `t + k`). A group starts at a multiple of `g`, not at
/// the window, so its lanes below `lanes.start` are cleared here exactly
/// as those at and past `lanes.end` are; a group wholly outside `lanes` —
/// one of a two-probe pass's union window — has none. Needs `g < 32`.
#[inline(always)]
fn window(t: usize, lanes: &Range<usize>, g: usize) -> u32 {
    let upto = (1u32 << lanes.end.saturating_sub(t).min(g)) - 1;
    let below = (1u32 << lanes.start.saturating_sub(t).min(g)) - 1;
    upto & !below
}

/// Pushes `(i, id)` for the lane `t + k` of every bit `k` of `hits`.
#[inline(always)]
fn emit(mut hits: u32, t: usize, i: u32, ids: &[u32], out: &mut Vec<(u32, u32)>) {
    while hits != 0 {
        out.push((i, ids[t + hits.trailing_zeros() as usize]));
        hits &= hits - 1;
    }
}

/// The block kernels' early-exit schedule: the all-lanes-rejected check
/// runs after `dim` (a multiple of 4) dimensions when this holds — every
/// 4 dimensions up to 16, every 16 after that. The partial sums (and
/// running maxima) are monotone, so *which* steps carry a check never
/// changes a decision, only how soon a hopeless group is dropped — and
/// at d ≤ 16 a group is usually hopeless well before its last step.
#[inline(always)]
fn check_due(dim: usize) -> bool {
    dim <= 16 || dim.is_multiple_of(16)
}

/// A block's columns, cut once per call: `quads` yields four columns of
/// `stride` values at a time, `singles` the `d mod 4` columns after them.
/// Building the two iterators divides; cloning one copies two slices.
#[derive(Clone)]
struct Cols<'a> {
    quads: ChunksExact<'a, f64>,
    singles: ChunksExact<'a, f64>,
    stride: usize,
}

impl<'a> Cols<'a> {
    /// `None` for a block without columns (`chunks_exact(0)` panics) or
    /// with a `stride` whose quadruple wraps, which cannot be a tile's.
    /// Knowing that `4 * stride` does not wrap is also what lets the
    /// optimizer drop the three `split_at` checks of `groups!`.
    #[inline(always)]
    fn new(data: &'a [f64], stride: usize) -> Option<Cols<'a>> {
        if stride == 0 || stride > usize::MAX / 4 {
            return None;
        }
        let quads = data.chunks_exact(4 * stride);
        let singles = quads.remainder().chunks_exact(stride);
        Some(Cols {
            quads,
            singles,
            stride,
        })
    }
}

/// What every window of one call shares: the block's f64 columns, its ids
/// and the budget.
struct Tile<'a> {
    cols: Cols<'a>,
    ids: &'a [u32],
    budget: f64,
}

/// The f32 stage of one call: the packed f32 copy, `slots` per column, and
/// the budget from [`f32_budget`]. Made at the call's first window that
/// passes the gate, so a call whose windows are all narrow pays for
/// neither. `sieve` and `sieve2` cut the copy into [`Cols`]
/// themselves: columns cut in the function that loops over them let the
/// optimizer hoist the column checks out of the group loop, which it does
/// not do for columns handed in by reference (in-process A/B on
/// `uniform_d16`'s sweep: 0.96× of the parent at AVX2 handed in, 1.02×
/// cut in place).
struct Stage<'a> {
    packed: &'a [f64],
    slots: usize,
    budget: f32,
}

impl<'a> Stage<'a> {
    /// `None` when the block cannot be sieved: no f32 budget (see
    /// [`f32_budget`]), or an f32 copy without columns.
    fn new<const SQ: bool, const MAX: bool>(
        block: &'a SoABlock,
        budget: f64,
    ) -> Option<Stage<'a>> {
        let budget = f32_budget::<SQ, MAX>(block.dims(), block.max_abs(), budget)?;
        let slots = block.width32() / 2;
        (slots != 0 && slots <= usize::MAX / 4).then_some(Stage {
            packed: block.packed32(),
            slots,
            budget,
        })
    }
}

/// `probes` rounded to f32 in `dst`, in the layout `groups!` reads `N`
/// probes from: four dimensions of each in turn (`a0..a3 b0..b3 a4..`),
/// then each one's `d mod 4` tail.
fn interleave32<'s, const N: usize>(dst: &'s mut Vec<f32>, probes: [&[f64]; N]) -> &'s [f32] {
    dst.clear();
    let quad = probes[0].len() / 4 * 4;
    for q in (0..quad).step_by(4) {
        for p in probes {
            dst.extend(p[q..q + 4].iter().map(|&v| v as f32));
        }
    }
    for p in probes {
        dst.extend(p[quad..].iter().map(|&v| v as f32));
    }
    dst
}

/// The f32 prefilter's budget for a call: a `B` such that an f32 sum (or
/// maximum) over the block's f32 copy above `B` proves the f64 kernel's
/// sum above `budget`, so the lane needs no f64 pass. `None` skips the
/// prefilter for the call: coordinates too large for f32 to hold their
/// differences (`M > 2¹²⁶`; NaN, infinities), more dimensions than the
/// linear bounds below allow, or a `B` that is not a finite f32.
///
/// With `u = 2⁻²⁴` and `v = 2⁻⁵³` the unit roundoffs and `k = d + 8`
/// (the sub, the square and the at most `d/4 + 5` additions on any term's
/// path, with room), the f64 kernel accepts a lane only if its exact sum
/// is at most `X = budget·(1 + 2kv) + 2⁻¹⁴⁸` (`1 + 2v` for L∞; the
/// constant covers f64 underflow), so only if every `|pᵢ − cᵢ| ≤ r` —
/// `r = X`, or `(X + 1)/2 ≥ √X` for L2. Then `M = max_abs + r` bounds
/// every coordinate such a lane and its probe hold, without a pass over
/// the probe. Rounding both to f32 and subtracting in f32 moves a
/// difference by at most `e = 3u(1 + u)·M + 2⁻¹⁴⁸` (two input roundings,
/// the subtraction's, and subnormal half-ulps). The f32 sum of an
/// accepted lane is therefore at most
///
/// * L2: `(1 + 2ku)·(X + (X + d)·e + d·e²) + d·2⁻¹⁴⁹` — `(√X + √d·e)²`
///   by Minkowski, with `2√(Xd) ≤ X + d` so no square root per call,
/// * L1: `(1 + 2ku)·(X + d·e)`,
/// * L∞: `(1 + 2u)·(X + e)`,
///
/// where `1 + 2kx` bounds `(1 + x)^k` and `(1 − x)^−k` for `kx ≤ 1/8`.
/// The result is widened by `2⁻²⁰` (relative) and `2⁻¹⁴⁹` (absolute), so
/// neither its own f64 rounding nor the conversion to the nearest f32 can
/// bring it below the bound. DESIGN §16 has the derivation.
fn f32_budget<const SQ: bool, const MAX: bool>(
    d: usize,
    max_abs: f64,
    budget: f64,
) -> Option<f32> {
    const U: f64 = f32::EPSILON as f64 / 2.0;
    const V: f64 = f64::EPSILON / 2.0;
    /// `2⁻¹⁴⁸`, twice the smallest f32 subnormal.
    const TINY: f64 = f32::MIN_POSITIVE as f64 / (1u64 << 22) as f64;
    if d > 1 << 20 {
        return None;
    }
    let (d, k) = (d as f64, (d + 8) as f64);
    let x = budget * (1.0 + 2.0 * if MAX { 1.0 } else { k } * V) + TINY;
    let m = max_abs + if SQ { (x + 1.0) / 2.0 } else { x };
    if m.is_nan() || m > (1u128 << 126) as f64 {
        return None;
    }
    let e = 3.0 * U * (1.0 + U) * m + TINY;
    let b = if MAX {
        (1.0 + 2.0 * U) * (x + e)
    } else if SQ {
        (1.0 + 2.0 * k * U) * (x + (x + d) * e + d * e * e) + d * TINY / 2.0
    } else {
        (1.0 + 2.0 * k * U) * (x + d * e)
    } * (1.0 + 1.0 / (1u64 << 20) as f64)
        + TINY / 2.0;
    (b <= f64::from(f32::MAX)).then_some(b as f32)
}

#[cfg(test)]
thread_local! {
    /// `(f32 groups sieved, f64 groups run behind them)` on this thread,
    /// for the tests that check the prefilter fires.
    static STAGE: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
    /// Window pairs sieved together in one two-probe pass on this thread,
    /// for the test that checks the pass fires.
    static PAIRED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The canonical fold of a group's four accumulators, `(a0 + a1) + (a2 + a3)`
/// (every `+` a `max` under `MAX`), with `acc` the precision's fold.
macro_rules! fold4 {
    ($acc:ident: $a0:ident $a1:ident $a2:ident $a3:ident) => {
        $acc::<MAX>($acc::<MAX>($a0, $a1), $acc::<MAX>($a2, $a3))
    };
}

/// The across-candidate block kernel, written once and instantiated in
/// `sse2` (2 f64 / 4 f32 lanes per vector), `avx2` (4 / 8) and `avx512`
/// (8 / 16). Everything width-specific is a name the instantiating module
/// supplies: `LANES`, `load`, `splat`, `step`, `acc`, `gt_mask`,
/// `le_mask` and their f32 forms `load32`, `splat32`, `step32`, `acc32`,
/// `gt_mask32`, `ngt_mask32`. A macro rather than a generic fn because
/// the body must itself carry the module's `#[target_feature]` for those
/// helpers to inline into it.
macro_rules! block_kernel {
    ($feature:literal) => {
        block_kernel!($feature, $);
    };
    // `$d` is a literal `$`: the body defines macros of its own, whose
    // metavariables this one has to pass through unexpanded.
    ($feature:literal, $d:tt) => {
        // One iteration over the groups `g: (k, lanes => kept: a0 a1 a2
        // a3)…; …` of one precision — its helpers, then its columns (a
        // group's loads from slot `g`, its lanes from `g · per`), the `np`
        // probes interleaved four dimensions at a time (`interleave32`'s
        // layout; one probe is itself), budget and lanes per vector. Each
        // group lists the probes it meets: probe `k`'s window `lanes`, its
        // `kept` mask and its accumulators. The 4-dimension steps load each
        // group's four columns once for all its probes, one exit test
        // covers every (group, probe), then each one's tail and fold.
        // `kept` gets the lanes in `lanes` that `keep` passes, and stays as
        // it was when every lane of every (group, probe) is rejected at a
        // check. The accumulators are locals named by the caller, not an
        // array threaded through a helper: a spilled accumulator array
        // turns the hot loop into stack traffic.
        macro_rules! groups {
            (
                $d load:ident $d splat:ident $d step:ident $d acc:ident $d gt:ident $d keep:ident,
                $d cols:ident * $d per:literal, $d probes:ident / $d np:literal,
                $d vbudget:ident $d vlanes:expr;
                $d($d g:ident: $d(($d k:literal, $d lanes:ident =>
                    $d kept:ident: $d a0:ident $d a1:ident $d a2:ident $d a3:ident))+);+
            ) => {'exit: {
                let full = (1u32 << $d vlanes) - 1;
                $d($d(let (mut $d a0, mut $d a1, mut $d a2, mut $d a3) =
                    ($d splat(0.0), $d splat(0.0), $d splat(0.0), $d splat(0.0));)+)+
                let stride = $d cols.stride;
                let mut dim = 0;
                for (p, q) in $d probes.chunks_exact(4 * $d np).zip($d cols.quads.clone()) {
                    let (c0, q) = q.split_at(stride);
                    let (c1, q) = q.split_at(stride);
                    let (c2, c3) = q.split_at(stride);
                    $d(
                        let c = ($d load(c0, $d g), $d load(c1, $d g), $d load(c2, $d g), $d load(c3, $d g));
                        $d(
                            $d a0 = $d step::<SQ, MAX>($d a0, $d splat(p[4 * $d k]), c.0);
                            $d a1 = $d step::<SQ, MAX>($d a1, $d splat(p[4 * $d k + 1]), c.1);
                            $d a2 = $d step::<SQ, MAX>($d a2, $d splat(p[4 * $d k + 2]), c.2);
                            $d a3 = $d step::<SQ, MAX>($d a3, $d splat(p[4 * $d k + 3]), c.3);
                        )+
                    )+
                    dim += 4;
                    // Every lane's final value is at least its partial
                    // one, so once all of them — in every group, for every
                    // probe — exceed the budget all the decisions are
                    // already `false`.
                    if check_due(dim) {
                        let rejected = full
                            $d($d(& $d gt(fold4!($d acc: $d a0 $d a1 $d a2 $d a3), $d vbudget))+)+;
                        if rejected == full {
                            break 'exit;
                        }
                    }
                }
                let rest = $d probes.chunks_exact(4 * $d np).remainder();
                let r = rest.len() / $d np;
                $d($d(
                    let mut tail = $d splat(0.0);
                    for (&p, col) in rest[$d k * r..][..r].iter().zip($d cols.singles.clone()) {
                        tail = $d step::<SQ, MAX>(tail, $d splat(p), $d load(col, $d g));
                    }
                    let total = $d acc::<MAX>(fold4!($d acc: $d a0 $d a1 $d a2 $d a3), tail);
                    $d kept = $d keep(total, $d vbudget) & window($d g * $d per, &$d lanes, $d vlanes);
                )+)+
            }};
        }

        /// Whether a window of `lanes` at `d` dimensions goes through the
        /// f32 stage. The stage has a fixed cost per window (the probe's
        /// f32 copy, a second pass over any survivor's group), so it runs
        /// only where the f64 work it can save is larger: more than two f64
        /// groups, and more than `32 · LANES` lane-dimensions (at low d a
        /// group is rejected after its first step and a window is mostly
        /// overhead).
        #[inline(always)]
        fn gated(lanes: &Range<usize>, d: usize) -> bool {
            let n = lanes.end.saturating_sub(lanes.start);
            n > 2 * LANES && n * d > 32 * LANES
        }

        /// Block filter over a list of windows: pushes `(i, id)` for every
        /// lane of every window `(i, lanes)` whose candidate is within
        /// `budget` of probe row `i` of `probes` — `Σ term ≤ budget` (L1; L2
        /// with `SQ` and a squared budget) or, with `MAX`,
        /// `max |probeᵢ − cᵢ| ≤ budget` (L∞) — window by window, each in
        /// lane order. The f64 columns are cut and the f32 stage's budget
        /// made once for the list; each window then goes to [`refine`], or through
        /// [`sieve`] when it passes the gate — with the next window, when
        /// that passes too, through [`sieve2`].
        #[target_feature(enable = $feature)]
        pub fn within_windows<const SQ: bool, const MAX: bool>(
            probes: &Dataset,
            block: &SoABlock,
            windows: &[(u32, Range<usize>)],
            budget: f64,
            scratch: &mut Scratch,
            out: &mut Vec<(u32, u32)>,
        ) {
            debug_assert_eq!(probes.dims(), block.dims());
            let Some(cols) = Cols::new(block.data(), block.width()) else {
                return portable::within_windows::<SQ, MAX>(probes, block, windows, budget, out);
            };
            let tile = Tile { cols, ids: block.ids(), budget };
            let d = block.dims();
            // `None` until a window passes the gate; then the stage, or
            // `None` inside when this block cannot be sieved.
            let mut stage = None;
            let mut rest = windows;
            while let [(i, lanes), tail @ ..] = rest {
                rest = tail;
                if lanes.start >= lanes.end {
                    continue;
                }
                debug_assert!(lanes.end <= block.len());
                if gated(lanes, d) {
                    let stage = stage.get_or_insert_with(|| Stage::new::<SQ, MAX>(block, budget));
                    if let Some(stage) = stage {
                        // Two windows share a pass when it covers no lane
                        // neither of them holds.
                        match rest {
                            [(j, next), tail @ ..]
                                if gated(next, d)
                                    && next.end.max(lanes.end) - next.start.min(lanes.start)
                                        <= lanes.len() + next.len() =>
                            {
                                rest = tail;
                                let pair = [probes.point(*i), probes.point(*j)];
                                let ids = [*i, *j];
                                sieve2::<SQ, MAX>(pair, ids, [lanes, next], &tile, stage, scratch, out);
                            }
                            _ => {
                                let probe = probes.point(*i);
                                sieve::<SQ, MAX>(probe, *i, lanes, &tile, stage, scratch, out)
                            }
                        }
                        continue;
                    }
                }
                refine::<SQ, MAX>(probes.point(*i), *i, lanes, &tile, out);
            }
        }

        /// The f64 body for one window: `LANES` candidates per vector
        /// group, streaming the SoA columns.
        ///
        /// Accumulator `a_k` collects dimensions `≡ k (mod 4)`, the
        /// per-lane result is `(a0 + a1) + (a2 + a3)` plus a separately
        /// chained `d mod 4` tail — the scalar kernels' decomposition, one
        /// candidate per vector lane (for `MAX` every `+` is a `max`, which
        /// no grouping can change).
        ///
        /// Groups start at multiples of `LANES` — on the tile's cache
        /// lines ([`crate::soa`] aligns the columns), `lanes.start` rounded
        /// down for the first — and go **two per iteration**: one group's
        /// four add chains leave the loop waiting on add latency and on a
        /// data-dependent exit branch every step, a second group's eight
        /// loads and adds fill those slots (DESIGN §16 has the cycles).
        #[target_feature(enable = $feature)]
        #[inline]
        fn refine<const SQ: bool, const MAX: bool>(
            probe: &[f64],
            i: u32,
            lanes: &Range<usize>,
            tile: &Tile,
            out: &mut Vec<(u32, u32)>,
        ) {
            let (cols, width) = (&tile.cols, tile.cols.stride);
            let vbudget = splat(tile.budget);
            let mut g = lanes.start / LANES * LANES;
            // Every column is a slice of exactly `width` values, so these
            // guards (`g < width` first: `width - g` cannot wrap) are the
            // bound of all of an iteration's loads — `load` checks it again
            // on the slice, and the optimizer folds that check into these.
            // `width` is a multiple of `LANE_PAD`, hence of `LANES`, so no
            // group is ragged and the odd one out is the last.
            while g < width && width - g >= 2 * LANES && g + LANES < lanes.end {
                let h = g + LANES;
                let (mut m, mut n) = (0, 0);
                groups!(
                    load splat step acc gt_mask le_mask,
                    cols * 1, probe / 1, vbudget LANES;
                    g: (0, lanes => m: a0 a1 a2 a3);
                    h: (0, lanes => n: b0 b1 b2 b3)
                );
                emit(m, g, i, tile.ids, out);
                emit(n, h, i, tile.ids, out);
                g += 2 * LANES;
            }
            if g < lanes.end && g < width && width - g >= LANES {
                let mut m = 0;
                groups!(
                    load splat step acc gt_mask le_mask,
                    cols * 1, probe / 1, vbudget LANES;
                    g: (0, lanes => m: a0 a1 a2 a3)
                );
                emit(m, g, i, tile.ids, out);
            }
        }

        /// The f64 groups of the f32 group at slot `s` that hold a
        /// survivor in `kept`, refined as one window of probe `i`.
        #[target_feature(enable = $feature)]
        #[inline]
        fn verify<const SQ: bool, const MAX: bool>(
            s: usize,
            kept: u32,
            probe: &[f64],
            i: u32,
            lanes: &Range<usize>,
            tile: &Tile,
            out: &mut Vec<(u32, u32)>,
        ) {
            let low = kept & ((1 << LANES) - 1) != 0;
            let high = kept >> LANES != 0;
            #[cfg(test)]
            STAGE.with(|c| {
                let (sieved, verified) = c.get();
                c.set((sieved + 1, verified + usize::from(low) + usize::from(high)));
            });
            if low || high {
                let from = 2 * s + if low { 0 } else { LANES };
                let to = 2 * s + if high { 2 * LANES } else { LANES };
                let sub = from.max(lanes.start)..to.min(lanes.end);
                refine::<SQ, MAX>(probe, i, &sub, tile, out);
            }
        }

        /// The f32 stage for one window: the same body as [`refine`] over
        /// the block's f32 copy, `2 · LANES` lanes per vector, against the
        /// stage's budget — a lane whose f32 sum exceeds it is provably
        /// rejected in f64 too. Only the f64 groups holding an f32 survivor
        /// go to [`refine`] ([`verify`]), whose `le_mask` alone decides what
        /// is emitted; a lane the f32 compare cannot order (NaN) survives.
        #[target_feature(enable = $feature)]
        #[inline(never)]
        fn sieve<const SQ: bool, const MAX: bool>(
            probe: &[f64],
            i: u32,
            lanes: &Range<usize>,
            tile: &Tile,
            stage: &Stage,
            scratch: &mut Scratch,
            out: &mut Vec<(u32, u32)>,
        ) {
            let Some(cols) = Cols::new(stage.packed, stage.slots) else {
                return refine::<SQ, MAX>(probe, i, lanes, tile, out);
            };
            let (cols, slots) = (&cols, stage.slots);
            let probe32 = interleave32(&mut scratch.probe32, [probe]);
            let vbudget = splat32(stage.budget);
            // Groups of `2 · LANES` f32 lanes, read as the `LANES` packed
            // slots from `s`: lanes `2s..2s + 2 · LANES`, an f64 group pair.
            let mut s = lanes.start / (2 * LANES) * LANES;
            // As in [`refine`], with `slots` (a multiple of `LANE_PAD`,
            // hence of `LANES`) bounding the loads.
            while s < slots && slots - s >= 2 * LANES && 2 * (s + LANES) < lanes.end {
                let t = s + LANES;
                let (mut m, mut n) = (0, 0);
                groups!(
                    load32 splat32 step32 acc32 gt_mask32 ngt_mask32,
                    cols * 2, probe32 / 1, vbudget 2 * LANES;
                    s: (0, lanes => m: a0 a1 a2 a3);
                    t: (0, lanes => n: b0 b1 b2 b3)
                );
                verify::<SQ, MAX>(s, m, probe, i, lanes, tile, out);
                verify::<SQ, MAX>(t, n, probe, i, lanes, tile, out);
                s += 2 * LANES;
            }
            if 2 * s < lanes.end && s < slots && slots - s >= LANES {
                let mut m = 0;
                groups!(
                    load32 splat32 step32 acc32 gt_mask32 ngt_mask32,
                    cols * 2, probe32 / 1, vbudget 2 * LANES;
                    s: (0, lanes => m: a0 a1 a2 a3)
                );
                verify::<SQ, MAX>(s, m, probe, i, lanes, tile, out);
            }
        }

        /// [`sieve`] for two windows at once, over their union: each
        /// iteration takes two f32 groups for both probes, so every column
        /// load serves four (group, probe) sums, and one exit test covers
        /// all four. Each probe's survivors are cut to its own window.
        /// Probe `a`'s are verified as they come, probe `b`'s masks wait in
        /// the scratch until `a`'s window is done, so hits still arrive
        /// window by window.
        #[target_feature(enable = $feature)]
        #[inline(never)]
        fn sieve2<const SQ: bool, const MAX: bool>(
            probes: [&[f64]; 2],
            [i, j]: [u32; 2],
            [la, lb]: [&Range<usize>; 2],
            tile: &Tile,
            stage: &Stage,
            scratch: &mut Scratch,
            out: &mut Vec<(u32, u32)>,
        ) {
            #[cfg(test)]
            PAIRED.with(|c| c.set(c.get() + 1));
            let Some(cols) = Cols::new(stage.packed, stage.slots) else {
                refine::<SQ, MAX>(probes[0], i, la, tile, out);
                return refine::<SQ, MAX>(probes[1], j, lb, tile, out);
            };
            let (cols, slots) = (&cols, stage.slots);
            let Scratch { probe32, masks } = scratch;
            let probe32 = interleave32(probe32, probes);
            masks.clear();
            let vbudget = splat32(stage.budget);
            let union = la.start.min(lb.start)..la.end.max(lb.end);
            let first = union.start / (2 * LANES) * LANES;
            let mut s = first;
            while s < slots && slots - s >= 2 * LANES && 2 * (s + LANES) < union.end {
                let t = s + LANES;
                let (mut m, mut n, mut mb, mut nb) = (0, 0, 0, 0);
                groups!(
                    load32 splat32 step32 acc32 gt_mask32 ngt_mask32,
                    cols * 2, probe32 / 2, vbudget 2 * LANES;
                    s: (0, la => m: a0 a1 a2 a3) (1, lb => mb: b0 b1 b2 b3);
                    t: (0, la => n: e0 e1 e2 e3) (1, lb => nb: f0 f1 f2 f3)
                );
                verify::<SQ, MAX>(s, m, probes[0], i, la, tile, out);
                verify::<SQ, MAX>(t, n, probes[0], i, la, tile, out);
                masks.extend([mb, nb]);
                s += 2 * LANES;
            }
            if 2 * s < union.end && s < slots && slots - s >= LANES {
                let (mut m, mut mb) = (0, 0);
                groups!(
                    load32 splat32 step32 acc32 gt_mask32 ngt_mask32,
                    cols * 2, probe32 / 2, vbudget 2 * LANES;
                    s: (0, la => m: a0 a1 a2 a3) (1, lb => mb: b0 b1 b2 b3)
                );
                verify::<SQ, MAX>(s, m, probes[0], i, la, tile, out);
                masks.push(mb);
            }
            for (s, &kept) in (first..).step_by(LANES).zip(masks.iter()) {
                verify::<SQ, MAX>(s, kept, probes[1], j, lb, tile, out);
            }
        }
    };
}

fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the host can run the 8-lane tier: `avx512f` and nothing else.
pub fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

// ---------------------------------------------------------------------
// One entry point per tier. The kernels are safe `#[target_feature]` fns;
// only the feature-availability hand-off needs `unsafe`. `budget` is in
// the accumulation domain (see `crate::simd::within_windows`).
// ---------------------------------------------------------------------

/// Block filter via the 2-lane SSE2 kernel.
pub fn sse2_within_windows<const SQ: bool, const MAX: bool>(
    probes: &Dataset,
    block: &SoABlock,
    windows: &[(u32, Range<usize>)],
    budget: f64,
    scratch: &mut Scratch,
    out: &mut Vec<(u32, u32)>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::within_windows::<SQ, MAX>(probes, block, windows, budget, scratch, out) }
}

/// Block filter via the 4-lane AVX2 kernel.
pub fn avx2_within_windows<const SQ: bool, const MAX: bool>(
    probes: &Dataset,
    block: &SoABlock,
    windows: &[(u32, Range<usize>)],
    budget: f64,
    scratch: &mut Scratch,
    out: &mut Vec<(u32, u32)>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernel only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::within_windows::<SQ, MAX>(probes, block, windows, budget, scratch, out) }
}

/// Block filter via the 8-lane AVX-512 kernel.
pub fn avx512_within_windows<const SQ: bool, const MAX: bool>(
    probes: &Dataset,
    block: &SoABlock,
    windows: &[(u32, Range<usize>)],
    budget: f64,
    scratch: &mut Scratch,
    out: &mut Vec<(u32, u32)>,
) {
    debug_assert!(avx512_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX-512 kernel only after `avx512_available()` reports
    // `avx512f`, so the required target feature is present.
    unsafe { avx512::within_windows::<SQ, MAX>(probes, block, windows, budget, scratch, out) }
}

mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Lanes per vector — the block kernels' candidate-group width.
    const LANES: usize = 4;

    /// Loads 4 consecutive f64s from `col[at..]`, or panics.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn load(col: &[f64], at: usize) -> __m256d {
        let s = &col[at..][..LANES];
        // SAFETY: `s` is exactly `LANES` f64s long (the two slicings above
        // panic otherwise) and an unaligned load reads `LANES` from its start.
        unsafe { _mm256_loadu_pd(s.as_ptr()) }
    }

    /// Folds the term `(p−c)²` (`SQ`) or `|p−c|` into the accumulator `a`
    /// with [`acc`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn step<const SQ: bool, const MAX: bool>(a: __m256d, p: __m256d, c: __m256d) -> __m256d {
        let d = _mm256_sub_pd(p, c);
        let term = if SQ {
            _mm256_mul_pd(d, d)
        } else {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), d)
        };
        acc::<MAX>(a, term)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }

    /// Folds a term vector into an accumulator: `max` (`MAX`) or `+`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn acc<const MAX: bool>(a: __m256d, x: __m256d) -> __m256d {
        if MAX {
            _mm256_max_pd(a, x)
        } else {
            _mm256_add_pd(a, x)
        }
    }

    /// Bit `k` set where lane `k` of `a` is `>` lane `k` of `b`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn gt_mask(a: __m256d, b: __m256d) -> u32 {
        _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a, b)) as u32
    }

    /// Bit `k` set where lane `k` of `a` is `<=` lane `k` of `b`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn le_mask(a: __m256d, b: __m256d) -> u32 {
        _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a, b)) as u32
    }

    /// `2 · LANES` f32 lanes of a packed column: the `LANES` slots from
    /// `slot` on, read by [`load`] and bit-cast.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn load32(col: &[f64], slot: usize) -> __m256 {
        _mm256_castpd_ps(load(col, slot))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat32(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }

    /// The f32 [`step`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn step32<const SQ: bool, const MAX: bool>(a: __m256, p: __m256, c: __m256) -> __m256 {
        let d = _mm256_sub_ps(p, c);
        let term = if SQ {
            _mm256_mul_ps(d, d)
        } else {
            _mm256_andnot_ps(_mm256_set1_ps(-0.0), d)
        };
        acc32::<MAX>(a, term)
    }

    /// The f32 [`acc`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn acc32<const MAX: bool>(a: __m256, x: __m256) -> __m256 {
        if MAX {
            _mm256_max_ps(a, x)
        } else {
            _mm256_add_ps(a, x)
        }
    }

    /// The f32 [`gt_mask`]: clear where either lane is NaN.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn gt_mask32(a: __m256, b: __m256) -> u32 {
        _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a, b)) as u32
    }

    /// Bit `k` set where lane `k` of `a` is not `>` lane `k` of `b`: `<=`,
    /// or either is NaN.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn ngt_mask32(a: __m256, b: __m256) -> u32 {
        _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NGT_UQ>(a, b)) as u32
    }

    block_kernel!("avx2");
}

mod sse2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Lanes per vector — the block kernels' candidate-group width.
    const LANES: usize = 2;

    /// Loads 2 consecutive f64s from `col[at..]`, or panics. SSE2 is in
    /// the x86-64 baseline, so no feature gate is needed.
    #[inline(always)]
    pub(super) fn load(col: &[f64], at: usize) -> __m128d {
        let s = &col[at..][..LANES];
        // SAFETY: `s` is exactly `LANES` f64s long (the two slicings above
        // panic otherwise) and an unaligned load reads `LANES` from its start.
        unsafe { _mm_loadu_pd(s.as_ptr()) }
    }

    /// Folds the term `(p−c)²` (`SQ`) or `|p−c|` into the accumulator `a`
    /// with [`acc`].
    #[inline]
    #[target_feature(enable = "sse2")]
    fn step<const SQ: bool, const MAX: bool>(a: __m128d, p: __m128d, c: __m128d) -> __m128d {
        let d = _mm_sub_pd(p, c);
        let term = if SQ {
            _mm_mul_pd(d, d)
        } else {
            _mm_andnot_pd(_mm_set1_pd(-0.0), d)
        };
        acc::<MAX>(a, term)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn splat(x: f64) -> __m128d {
        _mm_set1_pd(x)
    }

    /// Folds a term vector into an accumulator: `max` (`MAX`) or `+`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn acc<const MAX: bool>(a: __m128d, x: __m128d) -> __m128d {
        if MAX {
            _mm_max_pd(a, x)
        } else {
            _mm_add_pd(a, x)
        }
    }

    /// Bit `k` set where lane `k` of `a` is `>` lane `k` of `b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn gt_mask(a: __m128d, b: __m128d) -> u32 {
        _mm_movemask_pd(_mm_cmpgt_pd(a, b)) as u32
    }

    /// Bit `k` set where lane `k` of `a` is `<=` lane `k` of `b`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn le_mask(a: __m128d, b: __m128d) -> u32 {
        _mm_movemask_pd(_mm_cmple_pd(a, b)) as u32
    }

    /// `2 · LANES` f32 lanes of a packed column: the `LANES` slots from
    /// `slot` on, read by [`load`] and bit-cast.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn load32(col: &[f64], slot: usize) -> __m128 {
        _mm_castpd_ps(load(col, slot))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn splat32(x: f32) -> __m128 {
        _mm_set1_ps(x)
    }

    /// The f32 [`step`].
    #[inline]
    #[target_feature(enable = "sse2")]
    fn step32<const SQ: bool, const MAX: bool>(a: __m128, p: __m128, c: __m128) -> __m128 {
        let d = _mm_sub_ps(p, c);
        let term = if SQ {
            _mm_mul_ps(d, d)
        } else {
            _mm_andnot_ps(_mm_set1_ps(-0.0), d)
        };
        acc32::<MAX>(a, term)
    }

    /// The f32 [`acc`].
    #[inline]
    #[target_feature(enable = "sse2")]
    fn acc32<const MAX: bool>(a: __m128, x: __m128) -> __m128 {
        if MAX {
            _mm_max_ps(a, x)
        } else {
            _mm_add_ps(a, x)
        }
    }

    /// The f32 [`gt_mask`]: clear where either lane is NaN.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn gt_mask32(a: __m128, b: __m128) -> u32 {
        _mm_movemask_ps(_mm_cmpgt_ps(a, b)) as u32
    }

    /// Bit `k` set where lane `k` of `a` is not `>` lane `k` of `b`: `<=`,
    /// or either is NaN.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn ngt_mask32(a: __m128, b: __m128) -> u32 {
        _mm_movemask_ps(_mm_cmpngt_ps(a, b)) as u32
    }

    block_kernel!("sse2");
}

/// The 8-lane tier.
mod avx512 {
    use super::*;
    use core::arch::x86_64::*;

    /// Lanes per vector — the block kernels' candidate-group width.
    const LANES: usize = 8;

    /// Loads 8 consecutive f64s from `col[at..]`, or panics.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) fn load(col: &[f64], at: usize) -> __m512d {
        let s = &col[at..][..LANES];
        // SAFETY: `s` is exactly `LANES` f64s long (the two slicings above
        // panic otherwise) and an unaligned load reads `LANES` from its start.
        unsafe { _mm512_loadu_pd(s.as_ptr()) }
    }

    /// Folds the term `(p−c)²` (`SQ`) or `|p−c|` into the accumulator `a`
    /// with [`acc`] (`_mm512_abs_pd` clears the sign bit, as `f64::abs`
    /// does).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn step<const SQ: bool, const MAX: bool>(a: __m512d, p: __m512d, c: __m512d) -> __m512d {
        let d = _mm512_sub_pd(p, c);
        let term = if SQ {
            _mm512_mul_pd(d, d)
        } else {
            _mm512_abs_pd(d)
        };
        acc::<MAX>(a, term)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }

    /// Folds a term vector into an accumulator: `max` (`MAX`) or `+`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn acc<const MAX: bool>(a: __m512d, x: __m512d) -> __m512d {
        if MAX {
            _mm512_max_pd(a, x)
        } else {
            _mm512_add_pd(a, x)
        }
    }

    /// Bit `k` set where lane `k` of `a` is `>` lane `k` of `b`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn gt_mask(a: __m512d, b: __m512d) -> u32 {
        _mm512_cmp_pd_mask::<_CMP_GT_OQ>(a, b) as u32
    }

    /// Bit `k` set where lane `k` of `a` is `<=` lane `k` of `b`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn le_mask(a: __m512d, b: __m512d) -> u32 {
        _mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, b) as u32
    }

    /// `2 · LANES` f32 lanes of a packed column: the `LANES` slots from
    /// `slot` on, read by [`load`] and bit-cast.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) fn load32(col: &[f64], slot: usize) -> __m512 {
        _mm512_castpd_ps(load(col, slot))
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat32(x: f32) -> __m512 {
        _mm512_set1_ps(x)
    }

    /// The f32 [`step`], the square and the add fused into one rounding
    /// (the f32 budget allows for either).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn step32<const SQ: bool, const MAX: bool>(a: __m512, p: __m512, c: __m512) -> __m512 {
        let d = _mm512_sub_ps(p, c);
        match (SQ, MAX) {
            (true, false) => _mm512_fmadd_ps(d, d, a),
            (true, true) => acc32::<MAX>(a, _mm512_mul_ps(d, d)),
            (false, _) => acc32::<MAX>(a, _mm512_abs_ps(d)),
        }
    }

    /// The f32 [`acc`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn acc32<const MAX: bool>(a: __m512, x: __m512) -> __m512 {
        if MAX {
            _mm512_max_ps(a, x)
        } else {
            _mm512_add_ps(a, x)
        }
    }

    /// The f32 [`gt_mask`]: clear where either lane is NaN.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn gt_mask32(a: __m512, b: __m512) -> u32 {
        u32::from(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b))
    }

    /// Bit `k` set where lane `k` of `a` is not `>` lane `k` of `b`: `<=`,
    /// or either is NaN.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn ngt_mask32(a: __m512, b: __m512) -> u32 {
        u32::from(_mm512_cmp_ps_mask::<_CMP_NGT_UQ>(a, b))
    }

    block_kernel!("avx512f");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;

    type BlockFn = fn(
        &Dataset,
        &SoABlock,
        &[(u32, Range<usize>)],
        f64,
        &mut Scratch,
        &mut Vec<(u32, u32)>,
    );

    /// The metric each `[l1, l2, linf]` slot of [`block_tiers`] decides,
    /// and the budget its kernel takes for a given ε.
    const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];

    fn budget(metric: Metric, eps: f64) -> f64 {
        if metric == Metric::L2 {
            eps * eps
        } else {
            eps
        }
    }

    /// `(tier, [l1, l2, linf])` for every block-kernel instantiation the
    /// host can run.
    fn block_tiers() -> Vec<(&'static str, [BlockFn; 3])> {
        let mut tiers: Vec<(&'static str, [BlockFn; 3])> = vec![(
            "sse2",
            [
                sse2_within_windows::<false, false>,
                sse2_within_windows::<true, false>,
                sse2_within_windows::<false, true>,
            ],
        )];
        if avx2_available() {
            tiers.push((
                "avx2",
                [
                    avx2_within_windows::<false, false>,
                    avx2_within_windows::<true, false>,
                    avx2_within_windows::<false, true>,
                ],
            ));
        }
        if avx512_available() {
            tiers.push((
                "avx512",
                [
                    avx512_within_windows::<false, false>,
                    avx512_within_windows::<true, false>,
                    avx512_within_windows::<false, true>,
                ],
            ));
        }
        tiers
    }

    /// What one call of `f` over `windows` emits.
    fn call(
        f: BlockFn,
        probes: &Dataset,
        block: &SoABlock,
        windows: &[(u32, Range<usize>)],
        budget: f64,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        f(
            probes,
            block,
            windows,
            budget,
            &mut Scratch::default(),
            &mut out,
        );
        out
    }

    #[test]
    fn block_kernels_match_per_pair_decisions_exactly() {
        for dims in [1, 3, 4, 5, 8, 12, 16, 17, 20, 64, 65] {
            let flat: Vec<f64> = (0..23 * dims)
                .map(|i| ((i as f64 * 0.41).sin() * 0.5 + 0.5).abs())
                .collect();
            let ds = Dataset::from_flat(dims, flat).unwrap();
            let block = crate::soa::SoABlock::from_range(&ds, 0..23);
            for eps in [0.1, 0.5, 2.0] {
                for (tier, fns) in block_tiers() {
                    for (metric, f) in METRICS.into_iter().zip(fns) {
                        let expect: Vec<(u32, u32)> = (0..23u32)
                            .filter(|&j| metric.within(ds.point(11), ds.point(j), eps))
                            .map(|j| (11, j))
                            .collect();
                        let got = call(f, &ds, &block, &[(11, 0..23)], budget(metric, eps));
                        assert_eq!(got, expect, "{tier} {metric:?} d={dims} eps={eps}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernels_respect_lane_subranges() {
        let flat: Vec<f64> = (0..80).map(|i| i as f64 * 1e-3).collect();
        let ds = Dataset::from_flat(4, flat).unwrap();
        let block = crate::soa::SoABlock::from_range(&ds, 0..20);
        let subranges = [3..8, 1..20, 9..19, 16..20, 19..20];
        for (tier, fns) in block_tiers() {
            for f in fns {
                let mut all = Vec::new();
                for lanes in subranges.clone() {
                    let want: Vec<(u32, u32)> = lanes.clone().map(|t| (0, t as u32)).collect();
                    let got = call(f, &ds, &block, &[(0, lanes.clone())], 1e9);
                    assert_eq!(got, want, "{tier} {lanes:?}");
                    all.extend(want);
                }
                // The same windows as one list emit, window by window, the
                // same lanes.
                let list: Vec<_> = subranges.iter().map(|l| (0, l.clone())).collect();
                assert_eq!(call(f, &ds, &block, &list, 1e9), all, "{tier}");
            }
        }
    }

    /// The bound of a vector load is the slice it reads from, in release
    /// builds too: one element past a column's last full group panics
    /// before anything is read — an f64 column's and a packed f32 one's.
    #[test]
    fn a_load_past_the_last_full_group_panics_at_every_tier() {
        type Load = fn(&[f64], usize);
        let mut loads: Vec<(&str, usize, Load)> = vec![
            ("sse2", 2, |col, at| {
                sse2::load(col, at);
            }),
            ("sse2 f32", 2, |col, slot| {
                // SAFETY: SSE2 is part of the x86-64 baseline.
                unsafe { sse2::load32(col, slot) };
            }),
        ];
        if avx2_available() {
            loads.push(("avx2", 4, |col, at| {
                // SAFETY: `avx2_available()` held just above.
                unsafe { avx2::load(col, at) };
            }));
            loads.push(("avx2 f32", 4, |col, slot| {
                // SAFETY: `avx2_available()` held just above.
                unsafe { avx2::load32(col, slot) };
            }));
        }
        if avx512_available() {
            loads.push(("avx512", 8, |col, at| {
                // SAFETY: `avx512_available()` held just above.
                unsafe { avx512::load(col, at) };
            }));
            loads.push(("avx512 f32", 8, |col, slot| {
                // SAFETY: `avx512_available()` held just above.
                unsafe { avx512::load32(col, slot) };
            }));
        }
        // The column is a window of a longer buffer, so a load that lost
        // its check fails this test instead of leaving the allocation.
        let buf = [0.5f64; 32];
        let col = &buf[..16];
        for (tier, slots, load) in loads {
            load(col, col.len() - slots);
            for at in [col.len() - slots + 1, col.len(), col.len() + 1, usize::MAX] {
                let past = std::panic::catch_unwind(|| load(col, at));
                assert!(past.is_err(), "{tier}: load at {at} of 16 did not panic");
            }
        }
    }

    /// What one call emits, with `(f32 groups sieved, f64 groups verified)`
    /// and the window pairs it sieved together.
    fn staged(
        f: BlockFn,
        probes: &Dataset,
        block: &SoABlock,
        windows: &[(u32, Range<usize>)],
        budget: f64,
    ) -> (Vec<(u32, u32)>, (usize, usize), usize) {
        STAGE.with(|s| s.set((0, 0)));
        PAIRED.with(|p| p.set(0));
        let got = call(f, probes, block, windows, budget);
        (got, STAGE.with(|s| s.get()), PAIRED.with(|p| p.get()))
    }

    /// The f32 stage fires: a block far from the probe loses at least
    /// 99 % of its f64 groups before any f64 work, one lane at distance
    /// exactly ε still reaches the f64 body (which accepts it), and a
    /// coordinate past f32's range skips the stage for the call.
    #[test]
    fn the_f32_stage_drops_far_groups_and_keeps_a_lane_at_eps() {
        const N: usize = 2000;
        const EPS: f64 = 0.5;
        let d = 16;
        let mut state = 0x5eedu64;
        let far: Vec<f64> = (0..N * d)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                2.0 + (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let probe = Dataset::from_flat(d, vec![0.0; d]).unwrap();
        let mut at_eps = far.clone();
        at_eps[777 * d..778 * d].fill(0.0);
        at_eps[777 * d + 5] = EPS;
        let mut huge = far.clone();
        huge[3] = 1e39;
        let blocks = [far, at_eps, huge].map(|flat| {
            SoABlock::from_range(&Dataset::from_flat(d, flat).unwrap(), 0..N as u32)
        });
        let all = [(0, 0..N)];
        for (tier, fns) in block_tiers() {
            for (metric, f) in METRICS.into_iter().zip(fns) {
                let eps = budget(metric, EPS);
                let (got, (sieved, verified), _) = staged(f, &probe, &blocks[0], &all, eps);
                assert!(sieved > 0 && got.is_empty(), "{tier} {metric:?}");
                assert!(
                    verified * 100 <= 2 * sieved,
                    "{tier} {metric:?}: {verified} of {}",
                    2 * sieved
                );
                let (got, (sieved, verified), _) = staged(f, &probe, &blocks[1], &all, eps);
                assert_eq!(got, [(0, 777)], "{tier} {metric:?}");
                assert!(sieved > 0 && verified == 1, "{tier} {metric:?}: {verified}");
                let (got, (sieved, _), _) = staged(f, &probe, &blocks[2], &all, eps);
                assert_eq!((sieved, got.len()), (0, 0), "{tier} {metric:?}");
            }
        }
    }

    /// Two consecutive windows that both pass the gate share a pass exactly
    /// when their union holds no lane neither of them does — overlapping or
    /// adjacent, not apart, and never with a window the gate turns away —
    /// and the pass changes nothing: every list emits what its windows do
    /// one call apiece (a one-window list never pairs).
    #[test]
    fn the_two_probe_pass_fires_on_joint_windows_and_changes_nothing() {
        const N: u32 = 200;
        let d = 16;
        let mut state = 0x7e57u64;
        let flat: Vec<f64> = (0..N as usize * d)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let ds = Dataset::from_flat(d, flat).unwrap();
        let block = SoABlock::from_range(&ds, 0..N);
        // (list, window pairs sieved together)
        type List = &'static [(u32, Range<usize>)];
        let lists: [(List, usize); 6] = [
            (&[(0, 0..150), (1, 5..160)], 1),
            (&[(0, 0..100), (1, 100..200)], 1),
            (&[(0, 0..60), (1, 140..200)], 0),
            (&[(0, 0..150), (1, 3..6)], 0),
            (&[(0, 3..100), (1, 11..117), (2, 20..120)], 1),
            (
                &[
                    (5, 0..200),
                    (6, 0..200),
                    (7, 9..9),
                    (7, 9..190),
                    (8, 9..190),
                ],
                2,
            ),
        ];
        for (tier, fns) in block_tiers() {
            for (metric, f) in METRICS.into_iter().zip(fns) {
                // ε at the distance of a middling lane, so some lanes of
                // every window are hits and most are not, and one that
                // takes every lane.
                let mid = metric.distance(ds.point(0), ds.point(100));
                let far = metric.distance(ds.point(0), ds.point(1)) * 4.0;
                for eps in [mid, far] {
                    for (list, pairs) in &lists {
                        let (got, _, paired) =
                            staged(f, &ds, &block, list, budget(metric, eps));
                        assert_eq!(paired, *pairs, "{tier} {metric:?} {list:?}");
                        let one_at_a_time: Vec<(u32, u32)> = list
                            .iter()
                            .flat_map(|w| {
                                call(
                                    f,
                                    &ds,
                                    &block,
                                    std::slice::from_ref(w),
                                    budget(metric, eps),
                                )
                            })
                            .collect();
                        assert_eq!(got, one_at_a_time, "{tier} {metric:?} {list:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn early_exit_checks_fall_every_4_dims_to_16_then_every_16() {
        let due: Vec<usize> = (4..=70).step_by(4).filter(|&dim| check_due(dim)).collect();
        assert_eq!(due, [4, 8, 12, 16, 32, 48, 64]);
    }
}
