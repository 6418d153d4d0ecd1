//! The NEON block kernel for aarch64.
//!
//! Structurally a twin of the SSE2 tier in `x86.rs`: two candidates per
//! `float64x2_t`, one accumulator vector per dimension lane, the canonical
//! `(acc0 + acc1) + (acc2 + acc3)` fold lane-wise, plain sub/mul/add (no
//! fused multiply-add — `vfmaq_f64` would change rounding), and a first-4
//! / per-16 early-exit cadence, so decisions are identical to the scalar
//! kernels'. NEON is in the aarch64 baseline feature set, so the kernel is
//! directly callable without a runtime probe.
//!
//! `unsafe` here is confined to one unaligned vector load from an
//! in-bounds slice region and the intrinsic calls older toolchains still
//! mark `unsafe`, each with a `SAFETY:` comment per R2.
#![allow(unsafe_code)]
// Older toolchains still mark some NEON intrinsics `unsafe`; the blocks
// below are needed there and redundant (but harmless) on newer ones.
#![allow(unused_unsafe)]

use crate::simd::portable;
use crate::soa::SoABlock;
use core::arch::aarch64::*;
use std::ops::Range;

/// Loads 2 consecutive f64s starting at `xs[at]`.
#[inline(always)]
fn load2(xs: &[f64], at: usize) -> float64x2_t {
    debug_assert!(xs.len() >= 2 && at <= xs.len() - 2);
    // SAFETY: the block kernels pass `dim * width + t` with
    // `t + 2 <= width`, `dim < dims`, into the `dims × width` buffer, so
    // `at + 2 <= xs.len()`.
    unsafe { vld1q_f64(xs.as_ptr().add(at)) }
}

/// One term vector: `(a−b)²` (`SQ`) or `|a−b|`.
#[inline(always)]
fn term<const SQ: bool>(a: float64x2_t, b: float64x2_t) -> float64x2_t {
    // SAFETY: NEON is statically enabled on aarch64; these arithmetic
    // intrinsics have no memory or validity preconditions.
    unsafe {
        let d = vsubq_f64(a, b);
        if SQ {
            vmulq_f64(d, d)
        } else {
            vabsq_f64(d)
        }
    }
}

/// Lane-wise vector add (named to keep the kernel bodies readable).
#[inline(always)]
fn vadd(a: float64x2_t, b: float64x2_t) -> float64x2_t {
    // SAFETY: NEON is statically enabled on aarch64; no preconditions.
    unsafe { vaddq_f64(a, b) }
}

/// Lane-wise vector max.
#[inline(always)]
fn vmax(a: float64x2_t, b: float64x2_t) -> float64x2_t {
    // SAFETY: NEON is statically enabled on aarch64; no preconditions.
    unsafe { vmaxq_f64(a, b) }
}

/// Broadcast of one f64 to both lanes.
#[inline(always)]
fn splat(v: f64) -> float64x2_t {
    // SAFETY: NEON is statically enabled on aarch64; no preconditions.
    unsafe { vdupq_n_f64(v) }
}

/// Per-lane `a > b` as two booleans.
#[inline(always)]
fn gt(a: float64x2_t, b: float64x2_t) -> [bool; 2] {
    // SAFETY: NEON is statically enabled on aarch64; no preconditions.
    unsafe {
        let m = vcgtq_f64(a, b);
        [vgetq_lane_u64::<0>(m) != 0, vgetq_lane_u64::<1>(m) != 0]
    }
}

/// Per-lane `a ≤ b` as two booleans.
#[inline(always)]
fn le(a: float64x2_t, b: float64x2_t) -> [bool; 2] {
    // SAFETY: NEON is statically enabled on aarch64; no preconditions.
    unsafe {
        let m = vcleq_f64(a, b);
        [vgetq_lane_u64::<0>(m) != 0, vgetq_lane_u64::<1>(m) != 0]
    }
}

/// Accumulates dimensions `base..base+4` for the candidate pair at lanes
/// `t..t+2`. Columns are addressed as dimension-major offsets into the
/// block's `data` buffer (`dim * width + t`) so the innermost loop does
/// no per-column slice construction.
#[inline(always)]
fn step<const SQ: bool>(
    probe: &[f64],
    data: &[f64],
    width: usize,
    base: usize,
    t: usize,
    acc: &mut [float64x2_t; 4],
) {
    for (k, a) in acc.iter_mut().enumerate() {
        let vp = splat(probe[base + k]);
        // BOUND: base + 4 <= dims, k < 4, t + 2 <= width ⇒ offset < dims * width.
        let vc = load2(data, (base + k) * width + t);
        *a = vadd(*a, term::<SQ>(vp, vc));
    }
}

/// Lane-wise canonical fold: one partial sum per candidate lane.
#[inline(always)]
fn fold_v(acc: &[float64x2_t; 4]) -> float64x2_t {
    vadd(vadd(acc[0], acc[1]), vadd(acc[2], acc[3]))
}

/// Pushes qualifying lane ids for a 2-candidate group.
#[inline(always)]
fn emit(ok: [bool; 2], t: usize, end: usize, ids: &[u32], out: &mut Vec<u32>) {
    let lanes = (end - t).min(2);
    for (k, &ok) in ok.iter().enumerate().take(lanes) {
        if ok {
            out.push(ids[t + k]);
        }
    }
}

/// Sum-metric block filter: two candidates per vector group.
fn sum_within_block<const SQ: bool>(
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
    let mut t = lanes.start;
    while t < lanes.end {
        if t + 2 > width {
            portable::within_block::<SQ, false>(probe, block, t..lanes.end, budget, out);
            return;
        }
        let mut acc = [splat(0.0); 4];
        let mut dim = 0;
        let mut alive = true;
        if d >= 4 {
            step::<SQ>(probe, data, width, 0, t, &mut acc);
            if gt(fold_v(&acc), vbudget) == [true, true] {
                alive = false;
            }
            dim = 4;
        }
        while alive && dim + 16 <= d {
            step::<SQ>(probe, data, width, dim, t, &mut acc);
            step::<SQ>(probe, data, width, dim + 4, t, &mut acc);
            step::<SQ>(probe, data, width, dim + 8, t, &mut acc);
            step::<SQ>(probe, data, width, dim + 12, t, &mut acc);
            if gt(fold_v(&acc), vbudget) == [true, true] {
                alive = false;
            }
            dim += 16;
        }
        if alive {
            while dim + 4 <= d {
                step::<SQ>(probe, data, width, dim, t, &mut acc);
                dim += 4;
            }
            let mut tailv = splat(0.0);
            while dim < d {
                let vp = splat(probe[dim]);
                // BOUND: dim < d = dims, t + 2 <= width ⇒ offset < dims * width.
                let vc = load2(data, dim * width + t);
                tailv = vadd(tailv, term::<SQ>(vp, vc));
                dim += 1;
            }
            let total = vadd(fold_v(&acc), tailv);
            emit(le(total, vbudget), t, lanes.end, ids, out);
        }
        t += 2;
    }
}

/// L∞ block filter: running max per candidate lane.
fn max_within_block(
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
    let veps = splat(eps);
    let mut t = lanes.start;
    while t < lanes.end {
        if t + 2 > width {
            portable::within_block::<false, true>(probe, block, t..lanes.end, eps, out);
            return;
        }
        let mut m = splat(0.0);
        let mut dim = 0;
        let mut alive = true;
        while alive && dim < d {
            let stop = (dim + 16).min(d);
            while dim < stop {
                let vp = splat(probe[dim]);
                // BOUND: dim < d = dims, t + 2 <= width ⇒ offset < dims * width.
                let vc = load2(data, dim * width + t);
                m = vmax(m, term::<false>(vp, vc));
                dim += 1;
            }
            if gt(m, veps) == [true, true] {
                alive = false;
            }
        }
        if alive {
            emit(le(m, veps), t, lanes.end, ids, out);
        }
        t += 2;
    }
}

/// The tier's one entry point: `budget` is in the accumulation domain (see
/// `crate::simd::within_block`).
pub fn within_block<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    budget: f64,
    out: &mut Vec<u32>,
) {
    if MAX {
        max_within_block(probe, block, lanes, budget, out);
    } else {
        sum_within_block::<SQ>(probe, block, lanes, budget, out);
    }
}
