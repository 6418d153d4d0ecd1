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
//! This file is the only place in the workspace where `unsafe` is
//! permitted: hdsj-core carries `#![deny(unsafe_code)]` and every other
//! crate keeps `forbid`. The unsafe surface is exactly (a) one unaligned
//! vector load per width, from the start of a slice that safe code cut to
//! `LANES` elements — the bound is the slice's, checked in every build —
//! and (b) one entry wrapper per tier, whose target feature the dispatch
//! probe has verified (rustc rejects any other call into a
//! `#[target_feature]` fn from an ungated one: E0133). DESIGN §17.
#![allow(unsafe_code)]

use crate::simd::portable;
use crate::soa::SoABlock;
use std::ops::Range;

/// Pushes the ids of the qualifying lanes (bit `k` of `mask` set) of the
/// group `t..t + g` that lie inside `lanes`. A group starts at a multiple
/// of `g`, not at the window, so its lanes below `lanes.start` are dropped
/// here exactly as those at and past `lanes.end` are. Needs `t < lanes.end`.
#[inline(always)]
fn emit(mask: u32, t: usize, lanes: &Range<usize>, g: usize, ids: &[u32], out: &mut Vec<u32>) {
    let upto = (1u32 << (lanes.end - t).min(g)) - 1;
    let below = (1u32 << lanes.start.saturating_sub(t).min(g)) - 1;
    let mut hits = mask & upto & !below;
    while hits != 0 {
        out.push(ids[t + hits.trailing_zeros() as usize]);
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

/// The canonical fold of a group's four accumulators, `(a0 + a1) + (a2 + a3)`
/// (every `+` a `max` under `MAX`), for the instantiation it expands in.
macro_rules! fold4 {
    ($a0:ident $a1:ident $a2:ident $a3:ident) => {
        acc::<MAX>(acc::<MAX>($a0, $a1), acc::<MAX>($a2, $a3))
    };
}

/// The across-candidate block kernel, written once and instantiated in
/// `sse2` (2 lanes), `avx2` (4) and `avx512` (8). Everything
/// width-specific is a name the instantiating module supplies: `LANES`,
/// `load`, `splat`, `term`, `acc`, `gt_mask`, `le_mask`. A macro rather
/// than a generic fn because the body must itself carry the module's
/// `#[target_feature]` for those helpers to inline into it.
macro_rules! block_kernel {
    ($feature:literal) => {
        block_kernel!($feature, $);
    };
    // `$d` is a literal `$`: the body defines a macro of its own, whose
    // metavariables this one has to pass through unexpanded.
    ($feature:literal, $d:tt) => {
        /// Block filter: pushes the id of every lane in `lanes` whose
        /// candidate is within `budget` of `probe` — `Σ term ≤ budget`
        /// (L1; L2 with `SQ` and a squared budget) or, with `MAX`,
        /// `max |probeᵢ − cᵢ| ≤ budget` (L∞) — `LANES` candidates per
        /// vector group, streaming the SoA columns.
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
        pub fn within_block<const SQ: bool, const MAX: bool>(
            probe: &[f64],
            block: &SoABlock,
            lanes: Range<usize>,
            budget: f64,
            out: &mut Vec<u32>,
        ) {
            debug_assert_eq!(probe.len(), block.dims());
            debug_assert!(lanes.end <= block.len());
            let width = block.width();
            let ids = block.ids();
            // The columns come four at a time. An empty block has none
            // (and `chunks_exact(0)` panics), and a `width` whose quadruple
            // wraps cannot be a tile's: both go to the portable loop whole.
            // Knowing that `4 * width` does not wrap is also what lets the
            // optimizer drop the three `split_at` checks below.
            if width == 0 || width > usize::MAX / 4 {
                return portable::within_block::<SQ, MAX>(probe, block, lanes, budget, out);
            }
            // Chunked once per call and cloned per iteration: building
            // these iterators divides, cloning one copies two slices.
            let quads = block.data().chunks_exact(4 * width);
            let singles = quads.remainder().chunks_exact(width);
            let probe4 = probe.chunks_exact(4);
            let vbudget = splat(budget);
            let all = (1u32 << LANES) - 1;

            // One iteration over the groups `(start: a0 a1 a2 a3)…`: the
            // 4-dimension steps with the probe splats shared, one exit test
            // for all of them, then each group's tail, fold and emit. The
            // accumulators are locals named by the caller, not an array
            // threaded through a helper: a spilled accumulator array turns
            // the hot loop into stack traffic.
            macro_rules! groups {
                ($d(($d g:ident: $d a0:ident $d a1:ident $d a2:ident $d a3:ident))+) => {'exit: {
                    $d(let (mut $d a0, mut $d a1, mut $d a2, mut $d a3) =
                        (splat(0.0), splat(0.0), splat(0.0), splat(0.0));)+
                    let mut dim = 0;
                    for (p, cols) in probe4.clone().zip(quads.clone()) {
                        let (c0, cols) = cols.split_at(width);
                        let (c1, cols) = cols.split_at(width);
                        let (c2, c3) = cols.split_at(width);
                        let (p0, p1, p2, p3) =
                            (splat(p[0]), splat(p[1]), splat(p[2]), splat(p[3]));
                        $d(
                            $d a0 = acc::<MAX>($d a0, term::<SQ>(p0, load(c0, $d g)));
                            $d a1 = acc::<MAX>($d a1, term::<SQ>(p1, load(c1, $d g)));
                            $d a2 = acc::<MAX>($d a2, term::<SQ>(p2, load(c2, $d g)));
                            $d a3 = acc::<MAX>($d a3, term::<SQ>(p3, load(c3, $d g)));
                        )+
                        dim += 4;
                        // Every lane's final value is at least its partial
                        // one, so once all of them — in every group — exceed
                        // the budget all the decisions are already `false`.
                        if check_due(dim) {
                            let rejected = all
                                $d(& gt_mask(fold4!($d a0 $d a1 $d a2 $d a3), vbudget))+;
                            if rejected == all {
                                break 'exit;
                            }
                        }
                    }
                    $d(
                        let mut tail = splat(0.0);
                        for (&p, col) in probe4.remainder().iter().zip(singles.clone()) {
                            tail = acc::<MAX>(tail, term::<SQ>(splat(p), load(col, $d g)));
                        }
                        let total = acc::<MAX>(fold4!($d a0 $d a1 $d a2 $d a3), tail);
                        emit(le_mask(total, vbudget), $d g, &lanes, LANES, ids, out);
                    )+
                }};
            }

            let mut g = lanes.start / LANES * LANES;
            // Every column is a slice of exactly `width` values, so these
            // guards (`g < width` first: `width - g` cannot wrap) are the
            // bound of all of an iteration's loads — `load` checks it again
            // on the slice, and the optimizer folds that check into these.
            // `width` is a multiple of `LANE_PAD`, hence of `LANES`, so no
            // group is ragged and the odd one out is the last.
            while g < width && width - g >= 2 * LANES && g + LANES < lanes.end {
                let h = g + LANES;
                groups!((g: a0 a1 a2 a3) (h: b0 b1 b2 b3));
                g += 2 * LANES;
            }
            if g < lanes.end && g < width && width - g >= LANES {
                groups!((g: a0 a1 a2 a3));
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
// the accumulation domain (see `crate::simd::within_block`).
// ---------------------------------------------------------------------

/// Block filter via the 2-lane SSE2 kernel.
pub fn sse2_within_block<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    budget: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::within_block::<SQ, MAX>(probe, block, lanes, budget, out) }
}

/// Block filter via the 4-lane AVX2 kernel.
pub fn avx2_within_block<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    budget: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernel only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::within_block::<SQ, MAX>(probe, block, lanes, budget, out) }
}

/// Block filter via the 8-lane AVX-512 kernel.
pub fn avx512_within_block<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    budget: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx512_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX-512 kernel only after `avx512_available()` reports
    // `avx512f`, so the required target feature is present.
    unsafe { avx512::within_block::<SQ, MAX>(probe, block, lanes, budget, out) }
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

    /// One term vector: `(a−b)²` (`SQ`) or `|a−b|`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn term<const SQ: bool>(a: __m256d, b: __m256d) -> __m256d {
        let d = _mm256_sub_pd(a, b);
        if SQ {
            _mm256_mul_pd(d, d)
        } else {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), d)
        }
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

    /// One term vector: `(a−b)²` (`SQ`) or `|a−b|`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn term<const SQ: bool>(a: __m128d, b: __m128d) -> __m128d {
        let d = _mm_sub_pd(a, b);
        if SQ {
            _mm_mul_pd(d, d)
        } else {
            _mm_andnot_pd(_mm_set1_pd(-0.0), d)
        }
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

    /// One term vector: `(a−b)²` (`SQ`) or `|a−b|` (`_mm512_abs_pd` clears
    /// the sign bit, as `f64::abs` does).
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn term<const SQ: bool>(a: __m512d, b: __m512d) -> __m512d {
        let d = _mm512_sub_pd(a, b);
        if SQ {
            _mm512_mul_pd(d, d)
        } else {
            _mm512_abs_pd(d)
        }
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

    block_kernel!("avx512f");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::metric::Metric;

    type BlockFn = fn(&[f64], &SoABlock, Range<usize>, f64, &mut Vec<u32>);

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
                sse2_within_block::<false, false>,
                sse2_within_block::<true, false>,
                sse2_within_block::<false, true>,
            ],
        )];
        if avx2_available() {
            tiers.push((
                "avx2",
                [
                    avx2_within_block::<false, false>,
                    avx2_within_block::<true, false>,
                    avx2_within_block::<false, true>,
                ],
            ));
        }
        if avx512_available() {
            tiers.push((
                "avx512",
                [
                    avx512_within_block::<false, false>,
                    avx512_within_block::<true, false>,
                    avx512_within_block::<false, true>,
                ],
            ));
        }
        tiers
    }

    #[test]
    fn block_kernels_match_per_pair_decisions_exactly() {
        for dims in [1, 3, 4, 5, 8, 12, 16, 17, 20, 64, 65] {
            let flat: Vec<f64> = (0..23 * dims)
                .map(|i| ((i as f64 * 0.41).sin() * 0.5 + 0.5).abs())
                .collect();
            let ds = Dataset::from_flat(dims, flat).unwrap();
            let block = crate::soa::SoABlock::from_range(&ds, 0..23);
            let probe = ds.point(11).to_vec();
            for eps in [0.1, 0.5, 2.0] {
                for (tier, fns) in block_tiers() {
                    for (metric, f) in METRICS.into_iter().zip(fns) {
                        let expect: Vec<u32> = (0..23u32)
                            .filter(|&j| metric.within(&probe, ds.point(j), eps))
                            .collect();
                        let mut got = Vec::new();
                        f(&probe, &block, 0..23, budget(metric, eps), &mut got);
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
        let probe = ds.point(0).to_vec();
        for (tier, fns) in block_tiers() {
            for lanes in [3..8, 1..20, 9..19, 16..20, 19..20] {
                for f in fns {
                    let mut got = Vec::new();
                    f(&probe, &block, lanes.clone(), 1e9, &mut got);
                    let want: Vec<u32> = lanes.clone().map(|t| t as u32).collect();
                    assert_eq!(got, want, "{tier} {lanes:?}");
                }
            }
        }
    }

    /// The bound of a vector load is the slice it reads from, in release
    /// builds too: one element past a column's last full group panics
    /// before anything is read.
    #[test]
    fn a_load_past_the_last_full_group_panics_at_every_tier() {
        type Load = fn(&[f64], usize);
        let mut loads: Vec<(&str, usize, Load)> = vec![("sse2", 2, |col, at| {
            sse2::load(col, at);
        })];
        if avx2_available() {
            loads.push(("avx2", 4, |col, at| {
                // SAFETY: `avx2_available()` held just above.
                unsafe { avx2::load(col, at) };
            }));
        }
        if avx512_available() {
            loads.push(("avx512", 8, |col, at| {
                // SAFETY: `avx512_available()` held just above.
                unsafe { avx512::load(col, at) };
            }));
        }
        // The column is a window of a longer buffer, so a load that lost
        // its check fails this test instead of leaving the allocation.
        let buf = [0.5f64; 32];
        let col = &buf[..16];
        for (tier, lanes, load) in loads {
            load(col, col.len() - lanes);
            for at in [col.len() - lanes + 1, col.len(), col.len() + 1, usize::MAX] {
                let past = std::panic::catch_unwind(|| load(col, at));
                assert!(past.is_err(), "{tier}: load at {at} of 16 did not panic");
            }
        }
    }

    #[test]
    fn early_exit_checks_fall_every_4_dims_to_16_then_every_16() {
        let due: Vec<usize> = (4..=70).step_by(4).filter(|&dim| check_due(dim)).collect();
        assert_eq!(due, [4, 8, 12, 16, 32, 48, 64]);
    }
}
