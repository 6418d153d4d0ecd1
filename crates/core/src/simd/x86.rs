//! Explicit SSE2/AVX2 distance kernels for x86-64.
//!
//! Every kernel here reproduces the **exact** arithmetic of the 4-lane
//! scalar kernels in [`crate::kernels`]: dimensions `≡ k (mod 4)` feed
//! lane accumulator `k` with plain IEEE sub/mul/add (never FMA), the
//! per-candidate sum is the canonical monotone fold
//! `(acc0 + acc1) + (acc2 + acc3)` plus a separately chained scalar tail,
//! and `abs` is a sign-bit mask (`andnot` with `-0.0`), which matches
//! `f64::abs` bit for bit. Because the fold is monotone in the
//! non-negative terms, *any* early-exit schedule — per super-block here,
//! all-lanes-exceed for candidate groups — returns the same decision as
//! the full sum, so `within` decisions (and therefore join results) are
//! byte-identical across dispatch levels.
//!
//! The AVX2 pair kernels hold all four dimension lanes in one `__m256d`;
//! the SSE2 pair kernels split them across two `__m128d`s. The block
//! kernels vectorize **across candidates** instead: four (AVX2) or two
//! (SSE2) candidates per vector, one accumulator vector per dimension
//! lane, streaming the contiguous [`SoABlock`] columns.
//!
//! This file (with `neon.rs`) is the only place in the workspace where
//! `unsafe` is permitted: hdsj-core carries `#![deny(unsafe_code)]` and
//! every other crate keeps `forbid`. The unsafe surface is exactly (a)
//! unaligned vector loads/stores on in-bounds slice regions and (b) the
//! AVX2 entry wrappers, whose target feature the dispatch probe has
//! verified. Each carries a `SAFETY:` comment per R2.
#![allow(unsafe_code)]

use crate::simd::portable;
use crate::soa::SoABlock;
use std::ops::Range;

/// Scalar tail term, shared by both widths: `(x−y)²` or `|x−y|`.
#[inline(always)]
fn sterm<const SQ: bool>(x: f64, y: f64) -> f64 {
    if SQ {
        (x - y) * (x - y)
    } else {
        (x - y).abs()
    }
}

/// Pushes the ids of qualifying lanes `t..t+G` (bit `k` of `mask` set),
/// capped at the requested lane range end.
#[inline(always)]
fn emit(mask: i32, t: usize, end: usize, g: usize, ids: &[u32], out: &mut Vec<u32>) {
    let lanes = (end - t).min(g);
    for k in 0..lanes {
        if (mask >> k) & 1 == 1 {
            out.push(ids[t + k]);
        }
    }
}

fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
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
    unsafe { avx2::sum_within_block::<false>(probe, block, lanes, eps, out) }
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
    unsafe { avx2::sum_within_block::<true>(probe, block, lanes, eps * eps, out) }
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
    unsafe { avx2::linf_within_block(probe, block, lanes, eps, out) }
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
    unsafe { sse2::sum_within_block::<false>(probe, block, lanes, eps, out) }
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
    unsafe { sse2::sum_within_block::<true>(probe, block, lanes, eps * eps, out) }
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
    unsafe { sse2::linf_within_block(probe, block, lanes, eps, out) }
}

mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Loads 4 consecutive f64s starting at `xs[at]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load4(xs: &[f64], at: usize) -> __m256d {
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
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, dim), load4(b, dim)));
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
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, 0), load4(b, 0)));
            if fold(acc) > budget {
                return false;
            }
            dim = 4;
        }
        while dim + 16 <= d {
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, dim), load4(b, dim)));
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, dim + 4), load4(b, dim + 4)));
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, dim + 8), load4(b, dim + 8)));
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, dim + 12), load4(b, dim + 12)));
            if fold(acc) > budget {
                return false;
            }
            dim += 16;
        }
        while dim + 4 <= d {
            acc = _mm256_add_pd(acc, term::<SQ>(load4(a, dim), load4(b, dim)));
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
            m = _mm256_max_pd(m, term::<false>(load4(a, dim), load4(b, dim)));
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
            m = _mm256_max_pd(m, term::<false>(load4(a, 0), load4(b, 0)));
            let arr = to_array(m);
            if arr[0].max(arr[1]).max(arr[2]).max(arr[3]) > eps {
                return false;
            }
            dim = 4;
        }
        while dim + 16 <= d {
            m = _mm256_max_pd(m, term::<false>(load4(a, dim), load4(b, dim)));
            m = _mm256_max_pd(m, term::<false>(load4(a, dim + 4), load4(b, dim + 4)));
            m = _mm256_max_pd(m, term::<false>(load4(a, dim + 8), load4(b, dim + 8)));
            m = _mm256_max_pd(m, term::<false>(load4(a, dim + 12), load4(b, dim + 12)));
            let arr = to_array(m);
            if arr[0].max(arr[1]).max(arr[2]).max(arr[3]) > eps {
                return false;
            }
            dim += 16;
        }
        while dim + 4 <= d {
            m = _mm256_max_pd(m, term::<false>(load4(a, dim), load4(b, dim)));
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

    /// Block filter: pushes the id of every lane in `lanes` whose
    /// candidate satisfies `Σ term(probeᵢ, cᵢ) ≤ budget`, four candidates
    /// per vector group, streaming the SoA columns.
    ///
    /// The four accumulators are named locals expanded through a lexical
    /// macro rather than an array threaded through a helper fn: a
    /// `#[target_feature]` helper is not reliably inlined, and a spilled
    /// accumulator array turns the hot loop into stack traffic.
    #[target_feature(enable = "avx2")]
    pub fn sum_within_block<const SQ: bool>(
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
        let vbudget = _mm256_set1_pd(budget);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 4 > width {
                // Ragged tail past the last full group (at most
                // LANE_PAD − 1 lanes): the portable strided kernel is
                // decision-identical.
                while t < lanes.end {
                    if portable::sum_within_budget::<SQ>(probe, block, t, budget) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            // One 4-dimension step for the group: dimension `base + k`
            // feeds accumulator `k`, preserving the canonical per-lane
            // decomposition of the scalar kernels. Columns are addressed
            // as dimension-major offsets into `data` (one strength-reduced
            // index chain) rather than via a per-dimension column slice,
            // whose construction is an innermost-loop bounds check.
            macro_rules! step4 {
                ($base:expr) => {{
                    let base = $base;
                    // BOUND: base + 4 <= dims and t + 4 <= width, so every
                    // offset below is < dims * width = data.len(); fits usize.
                    let o = base * width + t;
                    a0 = _mm256_add_pd(
                        a0,
                        term::<SQ>(_mm256_set1_pd(probe[base]), load4(data, o)),
                    );
                    a1 = _mm256_add_pd(
                        a1,
                        term::<SQ>(_mm256_set1_pd(probe[base + 1]), load4(data, o + width)), // BOUND: see `o`
                    );
                    a2 = _mm256_add_pd(
                        a2,
                        term::<SQ>(_mm256_set1_pd(probe[base + 2]), load4(data, o + 2 * width)), // BOUND: see `o`
                    );
                    a3 = _mm256_add_pd(
                        a3,
                        term::<SQ>(_mm256_set1_pd(probe[base + 3]), load4(data, o + 3 * width)), // BOUND: see `o`
                    );
                }};
            }
            // The lane-wise canonical fold `(a0 + a1) + (a2 + a3)`.
            macro_rules! partial {
                () => {
                    _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3))
                };
            }
            // True when every candidate in the group already exceeds the
            // budget — a group-wide monotone early exit (each lane's final
            // sum is at least its partial sum, so all four decisions are
            // already `false`).
            macro_rules! all_rejected {
                () => {
                    _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(partial!(), vbudget)) == 0xF
                };
            }
            let mut dim = 0;
            let mut alive = true;
            if d >= 4 {
                step4!(0);
                alive = !all_rejected!();
                dim = 4;
            }
            while alive && dim + 16 <= d {
                step4!(dim);
                step4!(dim + 4);
                step4!(dim + 8);
                step4!(dim + 12);
                alive = !all_rejected!();
                dim += 16;
            }
            if alive {
                while dim + 4 <= d {
                    step4!(dim);
                    dim += 4;
                }
                // `d mod 4` tail dimensions: a separately chained
                // accumulator added after the fold, as in the scalar
                // kernels.
                let mut tailv = _mm256_setzero_pd();
                while dim < d {
                    let vp = _mm256_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 4 <= width ⇒ offset < dims * width.
                    let vc = load4(data, dim * width + t);
                    tailv = _mm256_add_pd(tailv, term::<SQ>(vp, vc));
                    dim += 1;
                }
                let total = _mm256_add_pd(partial!(), tailv);
                let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(total, vbudget));
                emit(mask, t, lanes.end, 4, ids, out);
            }
            t += 4;
        }
    }

    /// L∞ block filter: running max per candidate, group-wide early exit.
    #[target_feature(enable = "avx2")]
    pub fn linf_within_block(
        probe: &[f64],
        block: &SoABlock,
        lanes: Range<usize>,
        eps: f64,
        out: &mut Vec<u32>,
    ) {
        let d = probe.len();
        debug_assert_eq!(d, block.dims());
        debug_assert!(lanes.end <= block.len());
        let width = block.width();
        let ids = block.ids();
        let data = block.data();
        let veps = _mm256_set1_pd(eps);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 4 > width {
                while t < lanes.end {
                    if portable::max_within_budget(probe, block, t, eps) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut m = _mm256_setzero_pd();
            let mut dim = 0;
            let mut alive = true;
            while alive && dim < d {
                let stop = (dim + 16).min(d);
                while dim < stop {
                    let vp = _mm256_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 4 <= width ⇒ offset < dims * width.
                    let vc = load4(data, dim * width + t);
                    m = _mm256_max_pd(m, term::<false>(vp, vc));
                    dim += 1;
                }
                if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(m, veps)) == 0xF {
                    alive = false;
                }
            }
            if alive {
                let mask = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(m, veps));
                emit(mask, t, lanes.end, 4, ids, out);
            }
            t += 4;
        }
    }
}

mod sse2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Loads 2 consecutive f64s starting at `xs[at]`. SSE2 is in the
    /// x86-64 baseline, so no feature gate is needed.
    #[inline(always)]
    fn load2(xs: &[f64], at: usize) -> __m128d {
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
            acc01 = _mm_add_pd(acc01, term::<SQ>(load2(a, dim), load2(b, dim)));
            acc23 = _mm_add_pd(acc23, term::<SQ>(load2(a, dim + 2), load2(b, dim + 2)));
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
            acc01 = _mm_add_pd(acc01, term::<SQ>(load2(a, 0), load2(b, 0)));
            acc23 = _mm_add_pd(acc23, term::<SQ>(load2(a, 2), load2(b, 2)));
            if fold(acc01, acc23) > budget {
                return false;
            }
            dim = 4;
        }
        while dim + 16 <= d {
            for c in 0..4 {
                let at = dim + 4 * c;
                acc01 = _mm_add_pd(acc01, term::<SQ>(load2(a, at), load2(b, at)));
                acc23 = _mm_add_pd(acc23, term::<SQ>(load2(a, at + 2), load2(b, at + 2)));
            }
            if fold(acc01, acc23) > budget {
                return false;
            }
            dim += 16;
        }
        while dim + 4 <= d {
            acc01 = _mm_add_pd(acc01, term::<SQ>(load2(a, dim), load2(b, dim)));
            acc23 = _mm_add_pd(acc23, term::<SQ>(load2(a, dim + 2), load2(b, dim + 2)));
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
            m = _mm_max_pd(m, term::<false>(load2(a, dim), load2(b, dim)));
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
                m = _mm_max_pd(m, term::<false>(load2(a, dim), load2(b, dim)));
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

    /// Block filter: two candidates per vector group. Named accumulator
    /// locals via a lexical macro, for the same codegen reason as the
    /// AVX2 variant (see `avx2::sum_within_block`).
    #[target_feature(enable = "sse2")]
    pub fn sum_within_block<const SQ: bool>(
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
        let vbudget = _mm_set1_pd(budget);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 2 > width {
                while t < lanes.end {
                    if portable::sum_within_budget::<SQ>(probe, block, t, budget) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut a0 = _mm_setzero_pd();
            let mut a1 = _mm_setzero_pd();
            let mut a2 = _mm_setzero_pd();
            let mut a3 = _mm_setzero_pd();
            macro_rules! step4 {
                ($base:expr) => {{
                    let base = $base;
                    // BOUND: base + 4 <= dims and t + 2 <= width, so every
                    // offset below is < dims * width = data.len(); fits usize.
                    let o = base * width + t;
                    a0 = _mm_add_pd(a0, term::<SQ>(_mm_set1_pd(probe[base]), load2(data, o)));
                    a1 = _mm_add_pd(
                        a1,
                        term::<SQ>(_mm_set1_pd(probe[base + 1]), load2(data, o + width)), // BOUND: see `o`
                    );
                    a2 = _mm_add_pd(
                        a2,
                        term::<SQ>(_mm_set1_pd(probe[base + 2]), load2(data, o + 2 * width)), // BOUND: see `o`
                    );
                    a3 = _mm_add_pd(
                        a3,
                        term::<SQ>(_mm_set1_pd(probe[base + 3]), load2(data, o + 3 * width)), // BOUND: see `o`
                    );
                }};
            }
            macro_rules! partial {
                () => {
                    _mm_add_pd(_mm_add_pd(a0, a1), _mm_add_pd(a2, a3))
                };
            }
            macro_rules! all_rejected {
                () => {
                    _mm_movemask_pd(_mm_cmpgt_pd(partial!(), vbudget)) == 0x3
                };
            }
            let mut dim = 0;
            let mut alive = true;
            if d >= 4 {
                step4!(0);
                alive = !all_rejected!();
                dim = 4;
            }
            while alive && dim + 16 <= d {
                step4!(dim);
                step4!(dim + 4);
                step4!(dim + 8);
                step4!(dim + 12);
                alive = !all_rejected!();
                dim += 16;
            }
            if alive {
                while dim + 4 <= d {
                    step4!(dim);
                    dim += 4;
                }
                let mut tailv = _mm_setzero_pd();
                while dim < d {
                    let vp = _mm_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 2 <= width ⇒ offset < dims * width.
                    let vc = load2(data, dim * width + t);
                    tailv = _mm_add_pd(tailv, term::<SQ>(vp, vc));
                    dim += 1;
                }
                let total = _mm_add_pd(partial!(), tailv);
                let mask = _mm_movemask_pd(_mm_cmple_pd(total, vbudget));
                emit(mask, t, lanes.end, 2, ids, out);
            }
            t += 2;
        }
    }

    /// L∞ block filter: running max per candidate lane.
    #[target_feature(enable = "sse2")]
    pub fn linf_within_block(
        probe: &[f64],
        block: &SoABlock,
        lanes: Range<usize>,
        eps: f64,
        out: &mut Vec<u32>,
    ) {
        let d = probe.len();
        debug_assert_eq!(d, block.dims());
        debug_assert!(lanes.end <= block.len());
        let width = block.width();
        let ids = block.ids();
        let data = block.data();
        let veps = _mm_set1_pd(eps);
        let mut t = lanes.start;
        while t < lanes.end {
            if t + 2 > width {
                while t < lanes.end {
                    if portable::max_within_budget(probe, block, t, eps) {
                        out.push(ids[t]);
                    }
                    t += 1;
                }
                return;
            }
            let mut m = _mm_setzero_pd();
            let mut dim = 0;
            let mut alive = true;
            while alive && dim < d {
                let stop = (dim + 16).min(d);
                while dim < stop {
                    let vp = _mm_set1_pd(probe[dim]);
                    // BOUND: dim < d = dims, t + 2 <= width ⇒ offset < dims * width.
                    let vc = load2(data, dim * width + t);
                    m = _mm_max_pd(m, term::<false>(vp, vc));
                    dim += 1;
                }
                if _mm_movemask_pd(_mm_cmpgt_pd(m, veps)) == 0x3 {
                    alive = false;
                }
            }
            if alive {
                let mask = _mm_movemask_pd(_mm_cmple_pd(m, veps));
                emit(mask, t, lanes.end, 2, ids, out);
            }
            t += 2;
        }
    }
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

    #[test]
    fn block_kernels_match_per_pair_decisions_exactly() {
        for dims in [1, 3, 4, 5, 16, 17, 64, 65] {
            let flat: Vec<f64> = (0..23 * dims)
                .map(|i| ((i as f64 * 0.41).sin() * 0.5 + 0.5).abs())
                .collect();
            let ds = Dataset::from_flat(dims, flat).unwrap();
            let block = crate::soa::SoABlock::from_range(&ds, 0..23);
            let probe = ds.point(11).to_vec();
            for eps in [0.1, 0.5, 2.0] {
                let expect_l2: Vec<u32> = (0..23u32)
                    .filter(|&j| kernels::l2_within(&probe, ds.point(j), eps))
                    .collect();
                let mut got = Vec::new();
                sse2_l2_within_block(&probe, &block, 0..23, eps, &mut got);
                assert_eq!(got, expect_l2, "sse2 l2 d={dims} eps={eps}");
                let expect_l1: Vec<u32> = (0..23u32)
                    .filter(|&j| kernels::l1_within(&probe, ds.point(j), eps))
                    .collect();
                got.clear();
                sse2_l1_within_block(&probe, &block, 0..23, eps, &mut got);
                assert_eq!(got, expect_l1, "sse2 l1 d={dims} eps={eps}");
                let expect_linf: Vec<u32> = (0..23u32)
                    .filter(|&j| kernels::linf_within(&probe, ds.point(j), eps))
                    .collect();
                got.clear();
                sse2_linf_within_block(&probe, &block, 0..23, eps, &mut got);
                assert_eq!(got, expect_linf, "sse2 linf d={dims} eps={eps}");
                if avx2_available() {
                    got.clear();
                    avx2_l2_within_block(&probe, &block, 0..23, eps, &mut got);
                    assert_eq!(got, expect_l2, "avx2 l2 d={dims} eps={eps}");
                    got.clear();
                    avx2_l1_within_block(&probe, &block, 0..23, eps, &mut got);
                    assert_eq!(got, expect_l1, "avx2 l1 d={dims} eps={eps}");
                    got.clear();
                    avx2_linf_within_block(&probe, &block, 0..23, eps, &mut got);
                    assert_eq!(got, expect_linf, "avx2 linf d={dims} eps={eps}");
                }
            }
        }
    }

    #[test]
    fn block_kernels_respect_lane_subranges() {
        let flat: Vec<f64> = (0..40).map(|i| i as f64 * 1e-3).collect();
        let ds = Dataset::from_flat(4, flat).unwrap();
        let block = crate::soa::SoABlock::from_range(&ds, 0..10);
        let probe = ds.point(0).to_vec();
        let mut got = Vec::new();
        sse2_l2_within_block(&probe, &block, 3..8, 1e9, &mut got);
        assert_eq!(got, vec![3, 4, 5, 6, 7]);
        if avx2_available() {
            got.clear();
            avx2_l2_within_block(&probe, &block, 3..8, 1e9, &mut got);
            assert_eq!(got, vec![3, 4, 5, 6, 7]);
        }
    }
}
