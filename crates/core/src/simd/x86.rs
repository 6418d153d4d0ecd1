//! Explicit SSE2/AVX2/AVX-512 distance kernels for x86-64.
//!
//! Every kernel here reproduces the **exact** arithmetic of the 4-lane
//! scalar kernels in [`crate::kernels`]: dimensions `≡ k (mod 4)` feed
//! lane accumulator `k` with plain IEEE sub/mul/add (never FMA), the
//! per-candidate sum is the canonical monotone fold
//! `(acc0 + acc1) + (acc2 + acc3)` plus a separately chained scalar tail,
//! and `abs` clears the sign bit, which matches `f64::abs` bit for bit.
//! Because the fold is monotone in the non-negative terms, *any*
//! early-exit schedule — per super-block in the pair kernels,
//! all-lanes-exceed per [`check_due`] for candidate groups — returns the
//! same decision as the full sum, so `within` decisions (and therefore
//! join results) are byte-identical across dispatch levels.
//!
//! The AVX2 pair kernels hold all four dimension lanes in one `__m256d`;
//! the SSE2 pair kernels split them across two `__m128d`s. The block
//! kernel vectorizes **across candidates** instead — two (SSE2), four
//! (AVX2) or eight (AVX-512) candidates per vector, one accumulator
//! vector per dimension lane, streaming the contiguous [`SoABlock`]
//! columns — and is one body ([`block_kernel!`]) for all three widths.
//!
//! This file (with `neon.rs`) is the only place in the workspace where
//! `unsafe` is permitted: hdsj-core carries `#![deny(unsafe_code)]` and
//! every other crate keeps `forbid`. The unsafe surface is exactly (a)
//! unaligned vector loads/stores on in-bounds slice regions and (b) the
//! AVX2/AVX-512 entry wrappers, whose target features the dispatch probe
//! has verified. Each carries a `SAFETY:` comment per R2.
#![allow(unsafe_code)]

use crate::simd::portable;
use crate::soa::SoABlock;
use std::ops::Range;

/// Scalar tail term of the pair kernels: `(x−y)²` or `|x−y|`.
#[inline(always)]
fn sterm<const SQ: bool>(x: f64, y: f64) -> f64 {
    if SQ {
        (x - y) * (x - y)
    } else {
        (x - y).abs()
    }
}

/// Pushes the ids of qualifying lanes `t..t+g` (bit `k` of `mask` set),
/// capped at the requested lane range end.
#[inline(always)]
fn emit(mask: u32, t: usize, end: usize, g: usize, ids: &[u32], out: &mut Vec<u32>) {
    let mut hits = mask & ((1u32 << (end - t).min(g)) - 1);
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

/// Lanes past the last full vector group of the SSE2/AVX2 block kernels
/// (at most `LANE_PAD − 1` of them): the portable strided kernels are
/// decision-identical.
fn tail_lanes<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    budget: f64,
    out: &mut Vec<u32>,
) {
    for t in lanes {
        let within = if MAX {
            portable::max_within_budget(probe, block, t, budget)
        } else {
            portable::sum_within_budget::<SQ>(probe, block, t, budget)
        };
        if within {
            out.push(block.ids()[t]);
        }
    }
}

/// The across-candidate block kernel, written once and instantiated in
/// `sse2` (2 lanes), `avx2` (4) and `avx512` (8). Everything
/// width-specific is a name the instantiating module supplies: `LANES`,
/// `load`, `splat`, `term`, `acc`, `gt_mask`, `le_mask`, and `tail_lanes`
/// for the lanes past the last full group. A macro rather than a generic
/// fn because the body must itself carry the module's `#[target_feature]`
/// for those helpers to inline into it.
macro_rules! block_kernel {
    ($feature:literal) => {
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
        /// no grouping can change). The four accumulators are named
        /// locals, not an array threaded through a helper: a spilled
        /// accumulator array turns the hot loop into stack traffic.
        #[target_feature(enable = $feature)]
        pub fn within_block<const SQ: bool, const MAX: bool>(
            probe: &[f64],
            block: &SoABlock,
            lanes: Range<usize>,
            budget: f64,
            out: &mut Vec<u32>,
        ) {
            let d = probe.len();
            debug_assert_eq!(d, block.dims());
            debug_assert!(lanes.end <= block.len());
            let width = block.width();
            let ids = block.ids();
            let data = block.data();
            let vbudget = splat(budget);
            let all = (1u32 << LANES) - 1;
            let mut t = lanes.start;
            'group: while t < lanes.end && t + LANES <= width {
                let g = t;
                t += LANES;
                let (mut a0, mut a1, mut a2, mut a3) =
                    (splat(0.0), splat(0.0), splat(0.0), splat(0.0));
                let mut dim = 0;
                while dim + 4 <= d {
                    // Columns are addressed as dimension-major offsets into
                    // `data` (one strength-reduced index chain) rather than
                    // via a per-dimension column slice, whose construction
                    // is an innermost-loop bounds check.
                    // BOUND: dim + 4 <= dims and g + LANES <= width, so every
                    // offset below is < dims * width = data.len(); fits usize.
                    let o = dim * width + g;
                    a0 = acc::<MAX>(a0, term::<SQ>(splat(probe[dim]), load(data, o)));
                    a1 = acc::<MAX>(
                        a1,
                        term::<SQ>(splat(probe[dim + 1]), load(data, o + width)), // BOUND: see `o`
                    );
                    a2 = acc::<MAX>(
                        a2,
                        term::<SQ>(splat(probe[dim + 2]), load(data, o + 2 * width)), // BOUND: see `o`
                    );
                    a3 = acc::<MAX>(
                        a3,
                        term::<SQ>(splat(probe[dim + 3]), load(data, o + 3 * width)), // BOUND: see `o`
                    );
                    dim += 4;
                    // Every lane's final value is at least its partial one,
                    // so once all of them exceed the budget all `LANES`
                    // decisions are already `false`.
                    if check_due(dim) {
                        let partial = acc::<MAX>(acc::<MAX>(a0, a1), acc::<MAX>(a2, a3));
                        if gt_mask(partial, vbudget) == all {
                            continue 'group;
                        }
                    }
                }
                let mut tail = splat(0.0);
                while dim < d {
                    // BOUND: dim < d = dims, g + LANES <= width ⇒ offset < dims * width.
                    let c = load(data, dim * width + g);
                    tail = acc::<MAX>(tail, term::<SQ>(splat(probe[dim]), c));
                    dim += 1;
                }
                let total =
                    acc::<MAX>(acc::<MAX>(acc::<MAX>(a0, a1), acc::<MAX>(a2, a3)), tail);
                emit(le_mask(total, vbudget), g, lanes.end, LANES, ids, out);
            }
            if t < lanes.end {
                tail_lanes::<SQ, MAX>(probe, block, t..lanes.end, budget, out);
            }
        }
    };
}

fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// The 8-lane tier needs `avx512f` for its own body and `avx2` for the
/// pair kernels and the trailing 4-lane group it hands down.
pub fn avx512_available() -> bool {
    avx2_available() && std::arch::is_x86_feature_detected!("avx512f")
}

// ---------------------------------------------------------------------
// AVX2 entry points. The inner kernels are safe `#[target_feature]` fns;
// only the feature-availability hand-off needs `unsafe`.
// ---------------------------------------------------------------------

/// Manhattan distance via the AVX2 kernel.
pub fn avx2_l1_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::sum_distance::<false>(a, b) }
}

/// Euclidean distance via the AVX2 kernel.
pub fn avx2_l2_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::sum_distance::<true>(a, b) }.sqrt()
}

/// Chebyshev distance via the AVX2 kernel.
pub fn avx2_linf_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::linf_distance(a, b) }
}

/// `Σ |aᵢ − bᵢ| ≤ eps` via the AVX2 kernel.
pub fn avx2_l1_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::sum_within::<false>(a, b, eps) }
}

/// `Σ (aᵢ − bᵢ)² ≤ eps²` via the AVX2 kernel (no root taken).
pub fn avx2_l2_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::sum_within::<true>(a, b, eps * eps) }
}

/// `max |aᵢ − bᵢ| ≤ eps` via the AVX2 kernel.
pub fn avx2_linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::linf_within(a, b, eps) }
}

/// L1 block filter via the AVX2 across-candidate kernel.
pub fn avx2_l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::within_block::<false, false>(probe, block, lanes, eps, out) }
}

/// L2 block filter via the AVX2 across-candidate kernel.
pub fn avx2_l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::within_block::<true, false>(probe, block, lanes, eps * eps, out) }
}

/// L∞ block filter via the AVX2 across-candidate kernel.
pub fn avx2_linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx2_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX2 kernels only after `is_x86_feature_detected!("avx2")`
    // reports support, so the required target feature is present.
    unsafe { avx2::within_block::<false, true>(probe, block, lanes, eps, out) }
}

// ---------------------------------------------------------------------
// AVX-512 entry points: block kernels only (see `mod avx512`).
// ---------------------------------------------------------------------

/// L1 block filter via the AVX-512 across-candidate kernel.
pub fn avx512_l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx512_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX-512 kernels only after `avx512_available()` reports
    // `avx512f` and `avx2`, so the required target features are present.
    unsafe { avx512::within_block::<false, false>(probe, block, lanes, eps, out) }
}

/// L2 block filter via the AVX-512 across-candidate kernel.
pub fn avx512_l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx512_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX-512 kernels only after `avx512_available()` reports
    // `avx512f` and `avx2`, so the required target features are present.
    unsafe { avx512::within_block::<true, false>(probe, block, lanes, eps * eps, out) }
}

/// L∞ block filter via the AVX-512 across-candidate kernel.
pub fn avx512_linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(avx512_available());
    // SAFETY: the dispatch probe (`crate::simd::level`) and `set_level`
    // select the AVX-512 kernels only after `avx512_available()` reports
    // `avx512f` and `avx2`, so the required target features are present.
    unsafe { avx512::within_block::<false, true>(probe, block, lanes, eps, out) }
}

// ---------------------------------------------------------------------
// SSE2 entry points. SSE2 is in the x86-64 baseline feature set (this
// crate only builds these on x86_64), so the feature is unconditionally
// present; the `unsafe` below only discharges the lexical
// `#[target_feature]` requirement.
// ---------------------------------------------------------------------

/// Manhattan distance via the SSE2 kernel.
pub fn sse2_l1_distance(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::sum_distance::<false>(a, b) }
}

/// Euclidean distance via the SSE2 kernel.
pub fn sse2_l2_distance(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::sum_distance::<true>(a, b) }.sqrt()
}

/// Chebyshev distance via the SSE2 kernel.
pub fn sse2_linf_distance(a: &[f64], b: &[f64]) -> f64 {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::linf_distance(a, b) }
}

/// `Σ |aᵢ − bᵢ| ≤ eps` via the SSE2 kernel.
pub fn sse2_l1_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::sum_within::<false>(a, b, eps) }
}

/// `Σ (aᵢ − bᵢ)² ≤ eps²` via the SSE2 kernel (no root taken).
pub fn sse2_l2_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::sum_within::<true>(a, b, eps * eps) }
}

/// `max |aᵢ − bᵢ| ≤ eps` via the SSE2 kernel.
pub fn sse2_linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::linf_within(a, b, eps) }
}

/// L1 block filter via the SSE2 across-candidate kernel.
pub fn sse2_l1_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::within_block::<false, false>(probe, block, lanes, eps, out) }
}

/// L2 block filter via the SSE2 across-candidate kernel.
pub fn sse2_l2_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::within_block::<true, false>(probe, block, lanes, eps * eps, out) }
}

/// L∞ block filter via the SSE2 across-candidate kernel.
pub fn sse2_linf_within_block(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    eps: f64,
    out: &mut Vec<u32>,
) {
    // SAFETY: SSE2 is part of the x86-64 baseline ABI; every x86-64 CPU
    // provides it, so the kernel's required target feature is present.
    unsafe { sse2::within_block::<false, true>(probe, block, lanes, eps, out) }
}

mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Loads 4 consecutive f64s starting at `xs[at]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(xs: &[f64], at: usize) -> __m256d {
        debug_assert!(xs.len() >= 4 && at <= xs.len() - 4);
        // SAFETY: callers maintain `at + 4 <= xs.len()` (pair kernels stop
        // at `dim + 4 <= d`; block kernels pass `dim * width + t` with
        // `t + 4 <= width`, `dim < dims`, into the `dims × width` buffer).
        unsafe { _mm256_loadu_pd(xs.as_ptr().add(at)) }
    }

    /// Spills a vector to an array (for the scalar L∞ max fold).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn to_array(v: __m256d) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        // SAFETY: `out` is four f64s of writable local memory; `storeu`
        // has no alignment requirement.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    }

    /// One 4-dimension term vector: `(a−b)²` (`SQ`) or `|a−b|`.
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

    /// The canonical scalar fold `(acc0 + acc1) + (acc2 + acc3)` of the
    /// four dimension-lane partials held in one vector — bit-identical
    /// to [`crate::kernels`]'s `fold4`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc); // [acc0, acc1]
        let hi = _mm256_extractf128_pd::<1>(acc); // [acc2, acc3]
        let h = _mm_hadd_pd(lo, hi); // [acc0+acc1, acc2+acc3]
        _mm_cvtsd_f64(_mm_add_sd(h, _mm_unpackhi_pd(h, h)))
    }

    /// `Σ term(aᵢ, bᵢ)` with the canonical lane decomposition.
    #[target_feature(enable = "avx2")]
    pub fn sum_distance<const SQ: bool>(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut dim = 0;
        while dim + 4 <= d {
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, dim), load(b, dim)));
            dim += 4;
        }
        let mut tail = 0.0;
        while dim < d {
            tail += sterm::<SQ>(a[dim], b[dim]);
            dim += 1;
        }
        fold(acc) + tail
    }

    /// `Σ term(aᵢ, bᵢ) ≤ budget` with the scalar kernels' first-4 /
    /// per-16 early-exit cadence.
    #[target_feature(enable = "avx2")]
    pub fn sum_within<const SQ: bool>(a: &[f64], b: &[f64], budget: f64) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut dim = 0;
        if d >= 4 {
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, 0), load(b, 0)));
            if fold(acc) > budget {
                return false;
            }
            dim = 4;
        }
        while dim + 16 <= d {
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, dim), load(b, dim)));
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, dim + 4), load(b, dim + 4)));
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, dim + 8), load(b, dim + 8)));
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, dim + 12), load(b, dim + 12)));
            if fold(acc) > budget {
                return false;
            }
            dim += 16;
        }
        while dim + 4 <= d {
            acc = _mm256_add_pd(acc, term::<SQ>(load(a, dim), load(b, dim)));
            dim += 4;
        }
        let mut tail = 0.0;
        while dim < d {
            tail += sterm::<SQ>(a[dim], b[dim]);
            dim += 1;
        }
        fold(acc) + tail <= budget
    }

    /// `max |aᵢ − bᵢ|`; max over the non-negative finite terms datasets
    /// hold is order-independent, so the lane split is exact.
    #[target_feature(enable = "avx2")]
    pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut m = _mm256_setzero_pd();
        let mut dim = 0;
        while dim + 4 <= d {
            m = _mm256_max_pd(m, term::<false>(load(a, dim), load(b, dim)));
            dim += 4;
        }
        let mut tail = 0.0f64;
        while dim < d {
            tail = tail.max((a[dim] - b[dim]).abs());
            dim += 1;
        }
        let arr = to_array(m);
        arr[0].max(arr[1]).max(arr[2]).max(arr[3]).max(tail)
    }

    /// `max |aᵢ − bᵢ| ≤ eps` with block-level early exit.
    #[target_feature(enable = "avx2")]
    pub fn linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut m = _mm256_setzero_pd();
        let mut dim = 0;
        if d >= 4 {
            m = _mm256_max_pd(m, term::<false>(load(a, 0), load(b, 0)));
            let arr = to_array(m);
            if arr[0].max(arr[1]).max(arr[2]).max(arr[3]) > eps {
                return false;
            }
            dim = 4;
        }
        while dim + 16 <= d {
            m = _mm256_max_pd(m, term::<false>(load(a, dim), load(b, dim)));
            m = _mm256_max_pd(m, term::<false>(load(a, dim + 4), load(b, dim + 4)));
            m = _mm256_max_pd(m, term::<false>(load(a, dim + 8), load(b, dim + 8)));
            m = _mm256_max_pd(m, term::<false>(load(a, dim + 12), load(b, dim + 12)));
            let arr = to_array(m);
            if arr[0].max(arr[1]).max(arr[2]).max(arr[3]) > eps {
                return false;
            }
            dim += 16;
        }
        while dim + 4 <= d {
            m = _mm256_max_pd(m, term::<false>(load(a, dim), load(b, dim)));
            dim += 4;
        }
        let mut tail = 0.0f64;
        while dim < d {
            tail = tail.max((a[dim] - b[dim]).abs());
            dim += 1;
        }
        let arr = to_array(m);
        arr[0].max(arr[1]).max(arr[2]).max(arr[3]).max(tail) <= eps
    }

    /// Lanes per vector — the block kernels' candidate-group width.
    const LANES: usize = 4;

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

    /// Loads 2 consecutive f64s starting at `xs[at]`. SSE2 is in the
    /// x86-64 baseline, so no feature gate is needed.
    #[inline(always)]
    fn load(xs: &[f64], at: usize) -> __m128d {
        debug_assert!(xs.len() >= 2 && at <= xs.len() - 2);
        // SAFETY: callers maintain `at + 2 <= xs.len()` (pair kernels stop
        // at `dim + 4 <= d`; block kernels pass `dim * width + t` with
        // `t + 2 <= width`, `dim < dims`, into the `dims × width` buffer).
        unsafe { _mm_loadu_pd(xs.as_ptr().add(at)) }
    }

    /// One 2-dimension term vector: `(a−b)²` (`SQ`) or `|a−b|`.
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

    /// The canonical fold `(acc0 + acc1) + (acc2 + acc3)` of the two
    /// accumulator pairs (`acc01` holds lanes 0–1, `acc23` lanes 2–3).
    /// No SSE3 `hadd` here — SSE2 baseline only.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn fold(acc01: __m128d, acc23: __m128d) -> f64 {
        let s01 = _mm_add_sd(acc01, _mm_unpackhi_pd(acc01, acc01));
        let s23 = _mm_add_sd(acc23, _mm_unpackhi_pd(acc23, acc23));
        _mm_cvtsd_f64(_mm_add_sd(s01, s23))
    }

    /// `Σ term(aᵢ, bᵢ)` with the canonical lane decomposition.
    #[target_feature(enable = "sse2")]
    pub fn sum_distance<const SQ: bool>(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        let mut dim = 0;
        while dim + 4 <= d {
            acc01 = _mm_add_pd(acc01, term::<SQ>(load(a, dim), load(b, dim)));
            acc23 = _mm_add_pd(acc23, term::<SQ>(load(a, dim + 2), load(b, dim + 2)));
            dim += 4;
        }
        let mut tail = 0.0;
        while dim < d {
            tail += sterm::<SQ>(a[dim], b[dim]);
            dim += 1;
        }
        fold(acc01, acc23) + tail
    }

    /// `Σ term(aᵢ, bᵢ) ≤ budget` with the scalar kernels' first-4 /
    /// per-16 early-exit cadence.
    #[target_feature(enable = "sse2")]
    pub fn sum_within<const SQ: bool>(a: &[f64], b: &[f64], budget: f64) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        let mut dim = 0;
        if d >= 4 {
            acc01 = _mm_add_pd(acc01, term::<SQ>(load(a, 0), load(b, 0)));
            acc23 = _mm_add_pd(acc23, term::<SQ>(load(a, 2), load(b, 2)));
            if fold(acc01, acc23) > budget {
                return false;
            }
            dim = 4;
        }
        while dim + 16 <= d {
            for c in 0..4 {
                let at = dim + 4 * c;
                acc01 = _mm_add_pd(acc01, term::<SQ>(load(a, at), load(b, at)));
                acc23 = _mm_add_pd(acc23, term::<SQ>(load(a, at + 2), load(b, at + 2)));
            }
            if fold(acc01, acc23) > budget {
                return false;
            }
            dim += 16;
        }
        while dim + 4 <= d {
            acc01 = _mm_add_pd(acc01, term::<SQ>(load(a, dim), load(b, dim)));
            acc23 = _mm_add_pd(acc23, term::<SQ>(load(a, dim + 2), load(b, dim + 2)));
            dim += 4;
        }
        let mut tail = 0.0;
        while dim < d {
            tail += sterm::<SQ>(a[dim], b[dim]);
            dim += 1;
        }
        fold(acc01, acc23) + tail <= budget
    }

    /// `max |aᵢ − bᵢ|` — order-independent max, exact under any split.
    #[target_feature(enable = "sse2")]
    pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut m = _mm_setzero_pd();
        let mut dim = 0;
        while dim + 2 <= d {
            m = _mm_max_pd(m, term::<false>(load(a, dim), load(b, dim)));
            dim += 2;
        }
        let mut tail = 0.0f64;
        while dim < d {
            tail = tail.max((a[dim] - b[dim]).abs());
            dim += 1;
        }
        let hi = _mm_cvtsd_f64(_mm_unpackhi_pd(m, m));
        _mm_cvtsd_f64(m).max(hi).max(tail)
    }

    /// `max |aᵢ − bᵢ| ≤ eps` with block-level early exit.
    #[target_feature(enable = "sse2")]
    pub fn linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let d = a.len();
        let mut m = _mm_setzero_pd();
        let mut dim = 0;
        while dim + 2 <= d {
            let stop = dim + 16;
            while dim + 2 <= stop.min(d) {
                m = _mm_max_pd(m, term::<false>(load(a, dim), load(b, dim)));
                dim += 2;
            }
            let hi = _mm_cvtsd_f64(_mm_unpackhi_pd(m, m));
            if _mm_cvtsd_f64(m).max(hi) > eps {
                return false;
            }
        }
        let mut tail = 0.0f64;
        while dim < d {
            tail = tail.max((a[dim] - b[dim]).abs());
            dim += 1;
        }
        let hi = _mm_cvtsd_f64(_mm_unpackhi_pd(m, m));
        _mm_cvtsd_f64(m).max(hi).max(tail) <= eps
    }

    /// Lanes per vector — the block kernels' candidate-group width.
    const LANES: usize = 2;

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

/// The 8-lane tier. Only the block kernels widen: the canonical fold has
/// four accumulators, so the pair entry points of `Level::Avx512` are the
/// AVX2 pair kernels.
mod avx512 {
    // Lanes past the last full 8-group: at most one 4-lane group for the
    // AVX2 instantiation, which hands what is left to the portable path.
    use super::avx2::within_block as tail_lanes;
    use super::*;
    use core::arch::x86_64::*;

    /// Lanes per vector — the block kernels' candidate-group width.
    const LANES: usize = 8;

    /// Loads 8 consecutive f64s starting at `xs[at]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load(xs: &[f64], at: usize) -> __m512d {
        debug_assert!(xs.len() >= 8 && at <= xs.len() - 8);
        // SAFETY: the block kernels pass `dim * width + t` with
        // `t + 8 <= width`, `dim < dims`, into the `dims × width` buffer,
        // so `at + 8 <= xs.len()`.
        unsafe { _mm512_loadu_pd(xs.as_ptr().add(at)) }
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
    use crate::kernels;

    fn pt(dims: usize, seed: u64) -> Vec<f64> {
        (0..dims)
            .map(|i| {
                let h = seed
                    .rotate_left(i as u32 * 13)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                (h >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn sse2_pair_kernels_are_bit_identical_to_scalar() {
        for dims in [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65] {
            let a = pt(dims, 3);
            let b = pt(dims, 9);
            assert_eq!(
                sse2_l1_distance(&a, &b).to_bits(),
                kernels::l1_distance(&a, &b).to_bits(),
                "l1 d={dims}"
            );
            assert_eq!(
                sse2_l2_distance(&a, &b).to_bits(),
                kernels::l2_distance(&a, &b).to_bits(),
                "l2 d={dims}"
            );
            assert_eq!(
                sse2_linf_distance(&a, &b).to_bits(),
                kernels::linf_distance(&a, &b).to_bits(),
                "linf d={dims}"
            );
            for eps in [0.01, 0.2, 1.0, 10.0] {
                assert_eq!(
                    sse2_l2_within(&a, &b, eps),
                    kernels::l2_within(&a, &b, eps),
                    "l2 within d={dims} eps={eps}"
                );
                assert_eq!(
                    sse2_l1_within(&a, &b, eps),
                    kernels::l1_within(&a, &b, eps),
                    "l1 within d={dims} eps={eps}"
                );
                assert_eq!(
                    sse2_linf_within(&a, &b, eps),
                    kernels::linf_within(&a, &b, eps),
                    "linf within d={dims} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn avx2_pair_kernels_are_bit_identical_to_scalar() {
        if !avx2_available() {
            return;
        }
        for dims in [1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 65] {
            let a = pt(dims, 5);
            let b = pt(dims, 17);
            assert_eq!(
                avx2_l1_distance(&a, &b).to_bits(),
                kernels::l1_distance(&a, &b).to_bits(),
                "l1 d={dims}"
            );
            assert_eq!(
                avx2_l2_distance(&a, &b).to_bits(),
                kernels::l2_distance(&a, &b).to_bits(),
                "l2 d={dims}"
            );
            assert_eq!(
                avx2_linf_distance(&a, &b).to_bits(),
                kernels::linf_distance(&a, &b).to_bits(),
                "linf d={dims}"
            );
            for eps in [0.01, 0.2, 1.0, 10.0] {
                assert_eq!(
                    avx2_l2_within(&a, &b, eps),
                    kernels::l2_within(&a, &b, eps),
                    "l2 within d={dims} eps={eps}"
                );
                assert_eq!(
                    avx2_l1_within(&a, &b, eps),
                    kernels::l1_within(&a, &b, eps),
                    "l1 within d={dims} eps={eps}"
                );
                assert_eq!(
                    avx2_linf_within(&a, &b, eps),
                    kernels::linf_within(&a, &b, eps),
                    "linf within d={dims} eps={eps}"
                );
            }
        }
    }

    type PairFn = fn(&[f64], &[f64], f64) -> bool;
    type BlockFn = fn(&[f64], &SoABlock, Range<usize>, f64, &mut Vec<u32>);

    /// `(tier, [l1, l2, linf])` for every block-kernel instantiation the
    /// host can run.
    fn block_tiers() -> Vec<(&'static str, [BlockFn; 3])> {
        let mut tiers: Vec<(&'static str, [BlockFn; 3])> = vec![(
            "sse2",
            [
                sse2_l1_within_block,
                sse2_l2_within_block,
                sse2_linf_within_block,
            ],
        )];
        if avx2_available() {
            tiers.push((
                "avx2",
                [
                    avx2_l1_within_block,
                    avx2_l2_within_block,
                    avx2_linf_within_block,
                ],
            ));
        }
        if avx512_available() {
            tiers.push((
                "avx512",
                [
                    avx512_l1_within_block,
                    avx512_l2_within_block,
                    avx512_linf_within_block,
                ],
            ));
        }
        tiers
    }

    #[test]
    fn block_kernels_match_per_pair_decisions_exactly() {
        let within: [PairFn; 3] =
            [kernels::l1_within, kernels::l2_within, kernels::linf_within];
        for dims in [1, 3, 4, 5, 8, 12, 16, 17, 20, 64, 65] {
            let flat: Vec<f64> = (0..23 * dims)
                .map(|i| ((i as f64 * 0.41).sin() * 0.5 + 0.5).abs())
                .collect();
            let ds = Dataset::from_flat(dims, flat).unwrap();
            let block = crate::soa::SoABlock::from_range(&ds, 0..23);
            let probe = ds.point(11).to_vec();
            for eps in [0.1, 0.5, 2.0] {
                for (tier, fns) in block_tiers() {
                    for (m, f) in fns.iter().enumerate() {
                        let expect: Vec<u32> = (0..23u32)
                            .filter(|&j| within[m](&probe, ds.point(j), eps))
                            .collect();
                        let mut got = Vec::new();
                        f(&probe, &block, 0..23, eps, &mut got);
                        assert_eq!(got, expect, "{tier} metric#{m} d={dims} eps={eps}");
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

    #[test]
    fn early_exit_checks_fall_every_4_dims_to_16_then_every_16() {
        let due: Vec<usize> = (4..=70).step_by(4).filter(|&dim| check_due(dim)).collect();
        assert_eq!(due, [4, 8, 12, 16, 32, 48, 64]);
    }
}
