//! Portable strided block kernels — the scalar dispatch level's SoA path,
//! the reference the vector tiers are tested against (they come here
//! themselves only for an empty block), and the only path for the metric
//! without a vector implementation (`Lp`). [`within_block`] is one window
//! alone: the per-window reference the tests compare window lists with.
//!
//! These walk a [`SoABlock`] one candidate lane at a time with **exactly**
//! the accumulation scheme of [`crate::kernels`]: four dimension-lane
//! accumulators (`acc[k]` collects dimensions `≡ k (mod 4)`), the
//! canonical monotone fold `(acc0 + acc1) + (acc2 + acc3)`, a separately
//! chained scalar tail for `d mod 4`, and the first-4 / per-16 early-exit
//! cadence. The per-candidate sum is therefore bit-identical to what
//! `kernels::*_within(probe, row)` computes on the row-major layout, so
//! decisions — and hence join results — cannot depend on which path ran.

use crate::dataset::Dataset;
use crate::kernels::{fold4, SUPER_BLOCK};
use crate::soa::SoABlock;
use std::ops::Range;

/// `Σ term(probe[dim], lane t's dim) ≤ budget` for one candidate lane,
/// with the canonical lane decomposition and early-exit cadence.
#[inline(always)]
fn sum_within_at(
    probe: &[f64],
    block: &SoABlock,
    t: usize,
    budget: f64,
    term: impl Fn(f64, f64) -> f64,
) -> bool {
    let d = probe.len();
    let (cols, width) = (block.data(), block.width());
    let mut acc = [0.0f64; 4];
    let mut dim = 0;
    if d >= 4 {
        for k in 0..4 {
            acc[k] += term(probe[k], cols[k * width + t]);
        }
        if fold4(&acc) > budget {
            return false;
        }
        dim = 4;
    }
    while dim + SUPER_BLOCK <= d {
        for c in 0..SUPER_BLOCK / 4 {
            for (k, a) in acc.iter_mut().enumerate() {
                let at = dim + 4 * c + k;
                *a += term(probe[at], cols[at * width + t]);
            }
        }
        if fold4(&acc) > budget {
            return false;
        }
        dim += SUPER_BLOCK;
    }
    while dim + 4 <= d {
        for k in 0..4 {
            acc[k] += term(probe[dim + k], cols[(dim + k) * width + t]);
        }
        dim += 4;
    }
    let mut tail = 0.0;
    while dim < d {
        tail += term(probe[dim], cols[dim * width + t]);
        dim += 1;
    }
    fold4(&acc) + tail <= budget
}

/// `max term(probe[dim], lane t's dim) ≤ eps` for one candidate lane.
/// `max` over non-negative finite terms is order-independent, so any exit
/// schedule yields the full-max decision.
#[inline(always)]
fn max_within_at(probe: &[f64], block: &SoABlock, t: usize, eps: f64) -> bool {
    let d = probe.len();
    let (cols, width) = (block.data(), block.width());
    let mut m = 0.0f64;
    let mut dim = 0;
    while dim < d {
        let stop = (dim + SUPER_BLOCK).min(d);
        while dim < stop {
            m = m.max((probe[dim] - cols[dim * width + t]).abs());
            dim += 1;
        }
        if m > eps {
            return false;
        }
    }
    true
}

/// Lane loop shared by the entry points below: calls `hit(id)` for
/// `block.ids()[t]` of every qualifying lane `t` in `lanes`, in lane order.
#[inline(always)]
fn filter_lanes(
    block: &SoABlock,
    lanes: Range<usize>,
    within_at: impl Fn(usize) -> bool,
    mut hit: impl FnMut(u32),
) {
    debug_assert!(lanes.is_empty() || lanes.end <= block.len());
    for t in lanes {
        if within_at(t) {
            hit(block.ids()[t]);
        }
    }
}

/// Whether lane `t` is within `budget` of `probe`: `Σ |pᵢ − cᵢ|` (L1),
/// `Σ (pᵢ − cᵢ)²` with `SQ` (L2, `budget = ε²`), or `max |pᵢ − cᵢ|` with
/// `MAX` (L∞).
#[inline(always)]
fn lane_within<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    t: usize,
    budget: f64,
) -> bool {
    if MAX {
        max_within_at(probe, block, t, budget)
    } else if SQ {
        sum_within_at(probe, block, t, budget, |x, y| (x - y) * (x - y))
    } else {
        sum_within_at(probe, block, t, budget, |x, y| (x - y).abs())
    }
}

/// The scalar tier's block filter over a list of windows: `(i, id)` for
/// every lane of every window `(i, lanes)` within `budget` of probe row
/// `i` (the sums of `lane_within`), window by window, each in lane order.
pub fn within_windows<const SQ: bool, const MAX: bool>(
    probes: &Dataset,
    block: &SoABlock,
    windows: &[(u32, Range<usize>)],
    budget: f64,
    out: &mut Vec<(u32, u32)>,
) {
    for (i, lanes) in windows {
        let probe = probes.point(*i);
        filter_lanes(
            block,
            lanes.clone(),
            |t| lane_within::<SQ, MAX>(probe, block, t, budget),
            |j| out.push((*i, j)),
        );
    }
}

/// One window alone: the ids of the lanes in `lanes` within `budget` of
/// `probe`, in lane order — what [`within_windows`] decides for a window,
/// kept as the reference the tiers' window lists are tested against.
pub fn within_block<const SQ: bool, const MAX: bool>(
    probe: &[f64],
    block: &SoABlock,
    lanes: Range<usize>,
    budget: f64,
    out: &mut Vec<u32>,
) {
    filter_lanes(
        block,
        lanes,
        |t| lane_within::<SQ, MAX>(probe, block, t, budget),
        |j| out.push(j),
    );
}

/// Lp block filter over a list of windows in the `ε^p` domain. `powf` has
/// no vector ISA, so every dispatch level routes Lp blocks here.
pub fn lp_within_windows(
    probes: &Dataset,
    block: &SoABlock,
    windows: &[(u32, Range<usize>)],
    eps: f64,
    p: f64,
    out: &mut Vec<(u32, u32)>,
) {
    let budget = eps.powf(p);
    for (i, lanes) in windows {
        let probe = probes.point(*i);
        filter_lanes(
            block,
            lanes.clone(),
            |t| sum_within_at(probe, block, t, budget, |x, y| (x - y).abs().powf(p)),
            |j| out.push((*i, j)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::kernels;

    fn ds(n: usize, dims: usize) -> Dataset {
        let flat: Vec<f64> = (0..n * dims)
            .map(|i| ((i as f64 * 0.61).sin() * 0.5 + 0.5).abs())
            .collect();
        Dataset::from_flat(dims, flat).unwrap()
    }

    #[test]
    fn strided_decisions_match_row_major_kernels() {
        for dims in [1, 3, 4, 5, 16, 17, 64, 65] {
            let d = ds(13, dims);
            let block = crate::soa::SoABlock::from_range(&d, 0..13);
            let probe = d.point(6).to_vec();
            for eps in [0.05, 0.3, 1.0, 3.0] {
                let expect = |within: &dyn Fn(&[f64], &[f64]) -> bool| -> Vec<u32> {
                    (0..13u32).filter(|&j| within(&probe, d.point(j))).collect()
                };
                let mut got = Vec::new();
                within_block::<true, false>(&probe, &block, 0..13, eps * eps, &mut got);
                assert_eq!(
                    got,
                    expect(&|a, b| kernels::l2_within(a, b, eps)),
                    "l2 d={dims} eps={eps}"
                );
                got.clear();
                within_block::<false, false>(&probe, &block, 0..13, eps, &mut got);
                assert_eq!(
                    got,
                    expect(&|a, b| kernels::l1_within(a, b, eps)),
                    "l1 d={dims} eps={eps}"
                );
                got.clear();
                within_block::<false, true>(&probe, &block, 0..13, eps, &mut got);
                assert_eq!(
                    got,
                    expect(&|a, b| kernels::linf_within(a, b, eps)),
                    "linf d={dims} eps={eps}"
                );
                let mut pairs = Vec::new();
                lp_within_windows(&d, &block, &[(6, 0..13)], eps, 3.0, &mut pairs);
                let want = expect(&|a, b| kernels::lp_within(a, b, eps, 3.0));
                let want: Vec<(u32, u32)> = want.into_iter().map(|j| (6, j)).collect();
                assert_eq!(pairs, want, "lp d={dims} eps={eps}");
            }
        }
    }

    #[test]
    fn lane_subranges_restrict_emission() {
        let d = ds(10, 4);
        let block = crate::soa::SoABlock::from_range(&d, 0..10);
        let probe = d.point(0).to_vec();
        let mut all = Vec::new();
        within_block::<true, false>(&probe, &block, 0..10, 100.0, &mut all);
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
        let mut sub = Vec::new();
        within_block::<true, false>(&probe, &block, 3..7, 100.0, &mut sub);
        assert_eq!(sub, vec![3, 4, 5, 6]);
    }
}
