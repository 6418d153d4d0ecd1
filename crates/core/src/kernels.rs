//! Vectorized distance kernels: 4-lane unrolled accumulators with
//! per-block early exit.
//!
//! The scalar loops in [`crate::metric`] accumulate into a single running
//! sum with an early-exit test **per element** — a loop-carried dependency
//! chain (one fused multiply-add per cycle at best) plus a branch per
//! element, which is exactly what keeps refinement from vectorizing. The
//! kernels here restructure the same computation:
//!
//! * four **independent** lane accumulators (`acc[0..4]`) over
//!   `chunks_exact(4)` — no bounds checks, no cross-iteration dependency,
//!   autovectorizable to a 256-bit lane or dual 128-bit pipes;
//! * the early-exit budget test runs on the *folded* partial sum after the
//!   **first 4-element block** (clearly-apart pairs — the overwhelming case
//!   in a tight-ε join — exit after four terms) and then once per
//!   **16-element super-block**, amortizing the fold-and-compare enough
//!   that the branch-free inner blocks still vectorize;
//! * the remainder (`d mod 4` elements) is accumulated separately and
//!   added after the lane fold.
//!
//! ## Exactness
//!
//! Early exit is *consistent*: every term is non-negative, so each lane
//! accumulator is non-decreasing and the monotone fold
//! `(acc0 + acc1) + (acc2 + acc3)` of a partial state never exceeds the
//! final fold. A block-level exit therefore implies the full sum also
//! exceeds the budget — the kernel returns the same decision it would
//! without early exit. The `*_distance` kernels use the **same** lane
//! decomposition and fold order as the `*_within` kernels, so
//! `within(a, b, eps)` agrees with `distance(a, b) <= eps` up to the one
//! rounding of the final root.
//!
//! These functions are the single implementation point: [`crate::metric`]
//! dispatches every `distance`/`within` call here (with the
//! `Lp(2)`/`Lp(1)` exponents normalized to the specialized L2/L1 kernels).

/// Monotone fold of the four lane accumulators. Keeping one fixed
/// association means partial and final sums are comparable and `distance`
/// and `within` round identically.
#[inline(always)]
pub(crate) fn fold4(acc: &[f64; 4]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Shared 4-lane sum: `Σ term(aᵢ, bᵢ)` with the canonical lane fold.
#[inline(always)]
fn sum4(a: &[f64], b: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut acc = [0.0f64; 4];
    for (xs, ys) in ca.zip(cb) {
        for k in 0..4 {
            acc[k] += term(xs[k], ys[k]);
        }
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += term(*x, *y);
    }
    fold4(&acc) + tail
}

/// Size of the steady-state early-exit super-block: after the first
/// 4-element check, the budget test runs once per this many elements.
/// Small enough that high-d rejections still short-circuit most of the
/// work, large enough that the branch-free inner blocks autovectorize
/// instead of stalling on a fold-and-compare every 4 lanes.
pub(crate) const SUPER_BLOCK: usize = 16;

/// Shared 4-lane threshold test: `Σ term(aᵢ, bᵢ) ≤ budget`, exiting after
/// the first 4-element block or any later super-block whose partial fold
/// already exceeds the budget.
///
/// The lane accumulation sequence is identical to [`sum4`]'s (indices
/// `≡ k (mod 4)` into `acc[k]`, in order), so when no exit fires the final
/// sum is bit-identical to the one `*_distance` computes — only the check
/// positions differ, and by monotonicity that never changes the decision.
#[inline(always)]
fn within4(a: &[f64], b: &[f64], budget: f64, term: impl Fn(f64, f64) -> f64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let (mut rest_a, mut rest_b) = (a, b);
    // First block + check: in a tight-ε join almost every candidate pair is
    // far apart, and four terms are usually enough to prove it.
    if a.len() >= 4 {
        for k in 0..4 {
            acc[k] += term(a[k], b[k]);
        }
        if fold4(&acc) > budget {
            return false;
        }
        rest_a = &a[4..];
        rest_b = &b[4..];
    }
    let ca = rest_a.chunks_exact(SUPER_BLOCK);
    let cb = rest_b.chunks_exact(SUPER_BLOCK);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xs, ys) in ca.zip(cb) {
        for (x4, y4) in xs.chunks_exact(4).zip(ys.chunks_exact(4)) {
            for k in 0..4 {
                acc[k] += term(x4[k], y4[k]);
            }
        }
        if fold4(&acc) > budget {
            return false;
        }
    }
    // Remainder (< SUPER_BLOCK elements): full 4-blocks into the lanes,
    // then the scalar tail — the same order `sum4` uses.
    let ra4 = ra.chunks_exact(4);
    let rb4 = rb.chunks_exact(4);
    let (ta, tb) = (ra4.remainder(), rb4.remainder());
    for (x4, y4) in ra4.zip(rb4) {
        for k in 0..4 {
            acc[k] += term(x4[k], y4[k]);
        }
    }
    let mut tail = 0.0;
    for (x, y) in ta.iter().zip(tb) {
        tail += term(*x, *y);
    }
    fold4(&acc) + tail <= budget
}

/// Manhattan distance `Σ |aᵢ − bᵢ|`.
#[inline]
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    sum4(a, b, |x, y| (x - y).abs())
}

/// `Σ |aᵢ − bᵢ| ≤ eps`.
#[inline]
pub fn l1_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    within4(a, b, eps, |x, y| (x - y).abs())
}

/// Euclidean distance `sqrt(Σ (aᵢ − bᵢ)²)`.
#[inline]
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    sum4(a, b, |x, y| (x - y) * (x - y)).sqrt()
}

/// `Σ (aᵢ − bᵢ)² ≤ eps²` — no root is ever taken.
#[inline]
pub fn l2_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    within4(a, b, eps * eps, |x, y| (x - y) * (x - y))
}

/// Chebyshev distance `max |aᵢ − bᵢ|`. `max` is order-independent for the
/// finite inputs datasets hold, so the lane split is exact.
#[inline]
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut m = [0.0f64; 4];
    for (xs, ys) in ca.zip(cb) {
        for k in 0..4 {
            m[k] = m[k].max((xs[k] - ys[k]).abs());
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in ra.iter().zip(rb) {
        tail = tail.max((x - y).abs());
    }
    m[0].max(m[1]).max(m[2]).max(m[3]).max(tail)
}

/// `max |aᵢ − bᵢ| ≤ eps`, exiting on the first offending block (the same
/// first-4-then-super-block schedule as the sum kernels).
#[inline]
pub fn linf_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let (mut rest_a, mut rest_b) = (a, b);
    if a.len() >= 4 {
        let mut first = 0.0f64;
        for k in 0..4 {
            first = first.max((a[k] - b[k]).abs());
        }
        if first > eps {
            return false;
        }
        rest_a = &a[4..];
        rest_b = &b[4..];
    }
    let ca = rest_a.chunks_exact(SUPER_BLOCK);
    let cb = rest_b.chunks_exact(SUPER_BLOCK);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xs, ys) in ca.zip(cb) {
        let mut m = [0.0f64; 4];
        for (x4, y4) in xs.chunks_exact(4).zip(ys.chunks_exact(4)) {
            for k in 0..4 {
                m[k] = m[k].max((x4[k] - y4[k]).abs());
            }
        }
        if m[0].max(m[1]).max(m[2]).max(m[3]) > eps {
            return false;
        }
    }
    ra.iter().zip(rb).all(|(x, y)| (x - y).abs() <= eps)
}

/// Minkowski distance `(Σ |aᵢ − bᵢ|^p)^(1/p)` for general `p ≥ 1`. Callers
/// should normalize `p == 2`/`p == 1` to the specialized kernels first
/// (see [`crate::Metric::normalized`]).
#[inline]
pub fn lp_distance(a: &[f64], b: &[f64], p: f64) -> f64 {
    sum4(a, b, |x, y| (x - y).abs().powf(p)).powf(1.0 / p)
}

/// `Σ |aᵢ − bᵢ|^p ≤ eps^p`, the root-free Lp threshold test.
#[inline]
pub fn lp_within(a: &[f64], b: &[f64], eps: f64, p: f64) -> bool {
    within4(a, b, eps.powf(p), |x, y| (x - y).abs().powf(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference scalar implementations (the pre-kernel loops).
    fn scalar_l2_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn pseudo_point(dims: usize, seed: u64) -> Vec<f64> {
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
    fn kernels_match_scalar_sums_closely() {
        for dims in [1, 3, 4, 5, 8, 16, 17, 64] {
            let a = pseudo_point(dims, 7);
            let b = pseudo_point(dims, 11);
            let lanes = l2_distance(&a, &b);
            let scalar = scalar_l2_sq(&a, &b).sqrt();
            assert!(
                (lanes - scalar).abs() <= 1e-12 * scalar.max(1.0),
                "d={dims}: {lanes} vs {scalar}"
            );
        }
    }

    #[test]
    fn within_matches_distance_for_every_lane_shape() {
        // Threshold set exactly at / just off the computed distance, across
        // dimensions that exercise full blocks, remainders, and both.
        for dims in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 64] {
            let a = pseudo_point(dims, 3);
            let b = pseudo_point(dims, 5);
            for (d, within, name) in [
                (
                    l1_distance(&a, &b),
                    l1_within as fn(&[f64], &[f64], f64) -> bool,
                    "l1",
                ),
                (l2_distance(&a, &b), l2_within, "l2"),
                (linf_distance(&a, &b), linf_within, "linf"),
            ] {
                assert!(within(&a, &b, d * (1.0 + 1e-9)), "{name} d={dims} above");
                assert!(!within(&a, &b, d * (1.0 - 1e-9)), "{name} d={dims} below");
            }
            let dp = lp_distance(&a, &b, 3.0);
            assert!(lp_within(&a, &b, dp * (1.0 + 1e-9), 3.0), "lp d={dims}");
            assert!(!lp_within(&a, &b, dp * (1.0 - 1e-9), 3.0), "lp d={dims}");
        }
    }

    #[test]
    fn early_exit_never_changes_the_decision() {
        // Pairs far outside the threshold exit early; the decision must
        // match the no-exit evaluation (distance comparison) exactly.
        for seed in 0..50u64 {
            let a = pseudo_point(16, seed);
            let b = pseudo_point(16, seed.wrapping_mul(31).wrapping_add(1));
            for eps in [0.01, 0.1, 0.5, 1.0, 2.0] {
                assert_eq!(
                    l2_within(&a, &b, eps),
                    l2_distance(&a, &b) <= eps,
                    "seed={seed} eps={eps}"
                );
                assert_eq!(
                    l1_within(&a, &b, eps),
                    l1_distance(&a, &b) <= eps,
                    "seed={seed} eps={eps}"
                );
                assert_eq!(
                    linf_within(&a, &b, eps),
                    linf_distance(&a, &b) <= eps,
                    "seed={seed} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn symmetry_is_bitwise() {
        // |x−y| and (x−y)² are exactly symmetric in IEEE arithmetic, so
        // kernel distances are bit-identical under argument swap — the
        // property the Refiner's self-join canonicalization relies on.
        let a = pseudo_point(13, 21);
        let b = pseudo_point(13, 22);
        assert_eq!(l1_distance(&a, &b).to_bits(), l1_distance(&b, &a).to_bits());
        assert_eq!(l2_distance(&a, &b).to_bits(), l2_distance(&b, &a).to_bits());
        assert_eq!(
            linf_distance(&a, &b).to_bits(),
            linf_distance(&b, &a).to_bits()
        );
        assert_eq!(
            lp_distance(&a, &b, 2.5).to_bits(),
            lp_distance(&b, &a, 2.5).to_bits()
        );
    }

    #[test]
    fn zero_distance_on_identical_points() {
        let a = pseudo_point(9, 77);
        assert_eq!(l2_distance(&a, &a), 0.0);
        assert!(l2_within(&a, &a, 0.0));
        assert!(l1_within(&a, &a, 0.0));
        assert!(linf_within(&a, &a, 0.0));
        assert!(lp_within(&a, &a, 0.0, 3.0));
    }
}
