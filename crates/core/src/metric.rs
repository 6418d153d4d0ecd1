//! Distance metrics with early-exit threshold tests.
//!
//! All filter structures in the workspace prune with the L∞ ε-cube; the
//! final refinement step evaluates the exact metric through
//! [`Metric::within`], which short-circuits as soon as the running distance
//! can no longer stay under the threshold — the classic "partial distance"
//! optimization that matters in high dimensions.
//!
//! There are two evaluation paths. One pair goes straight to the 4-lane
//! scalar kernels in [`crate::kernels`]; a candidate *tile* goes through
//! [`Metric::within_windows`] to the block kernel of the best tier the host
//! supports ([`crate::simd`]: AVX-512/AVX2/SSE2, falling back to a
//! portable strided loop). Either way the `Lp(2)`/`Lp(1)` exponents are
//! normalized to the specialized L2/L1 kernels first. Every block tier
//! decides each candidate exactly as the pair kernel would (see
//! [`crate::simd`]), so routing here changes speed, never results.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::kernels;
use crate::simd::{self, Scratch};
use crate::soa::SoABlock;
use std::ops::Range;

/// The distance function of an ε-similarity join.
///
/// ```
/// use hdsj_core::Metric;
/// let (a, b) = ([0.0, 0.0], [0.3, 0.4]);
/// assert_eq!(Metric::L2.distance(&a, &b), 0.5);
/// assert!(Metric::L2.within(&a, &b, 0.5));
/// assert!(!Metric::Linf.within(&a, &b, 0.3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// Manhattan distance, `Σ |aᵢ − bᵢ|`.
    L1,
    /// Euclidean distance, `sqrt(Σ (aᵢ − bᵢ)²)`.
    L2,
    /// Chebyshev distance, `max |aᵢ − bᵢ|`.
    Linf,
    /// General Minkowski distance with exponent `p ≥ 1`.
    Lp(f64),
}

impl Metric {
    /// Validates the metric parameters (only `Lp` can be invalid).
    pub fn validate(&self) -> Result<()> {
        match self {
            Metric::Lp(p) if !(p.is_finite() && *p >= 1.0) => Err(Error::InvalidInput(
                format!("Lp exponent must be finite and >= 1, got {p}"),
            )),
            _ => Ok(()),
        }
    }

    /// The same metric with `Lp` exponents that have a specialized kernel
    /// rewritten to it: `Lp(2)` → `L2`, `Lp(1)` → `L1`. Evaluation methods
    /// normalize internally; callers that dispatch once per tile can
    /// normalize up front.
    #[inline]
    pub fn normalized(&self) -> Metric {
        match self {
            Metric::Lp(p) if *p == 2.0 => Metric::L2,
            Metric::Lp(p) if *p == 1.0 => Metric::L1,
            m => *m,
        }
    }

    /// Full distance between two equal-length coordinate slices.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self.normalized() {
            Metric::L1 => kernels::l1_distance(a, b),
            Metric::L2 => kernels::l2_distance(a, b),
            Metric::Linf => kernels::linf_distance(a, b),
            Metric::Lp(p) => kernels::lp_distance(a, b, p),
        }
    }

    /// Early-exit test: is `distance(a, b) ≤ eps`?
    ///
    /// Comparisons are done in the metric's natural accumulation domain
    /// (squared for L2, `ε^p` for Lp) so no root is ever taken, and the
    /// kernel exits as soon as a partial sum exceeds the budget (checked
    /// per 4-lane block; see [`crate::kernels`] for the exactness
    /// argument).
    #[inline]
    pub fn within(&self, a: &[f64], b: &[f64], eps: f64) -> bool {
        debug_assert_eq!(a.len(), b.len());
        match self.normalized() {
            Metric::L1 => kernels::l1_within(a, b, eps),
            Metric::L2 => kernels::l2_within(a, b, eps),
            Metric::Linf => kernels::linf_within(a, b, eps),
            Metric::Lp(p) => kernels::lp_within(a, b, eps, p),
        }
    }

    /// Block threshold test over a structure-of-arrays candidate tile: for
    /// each window `(i, lanes)`, appends `(i, id)` for every lane in
    /// `lanes` whose candidate is within `eps` of probe row `i` of
    /// `probes`, window by window and within one in lane order. This is the
    /// across-candidate vector path — the kernels broadcast one probe
    /// coordinate and stream the tile's contiguous dimension columns — and
    /// the only one that depends on the dispatch tier. ε is converted to
    /// the kernel's accumulation domain (ε² for L2) here, once per call; a
    /// vector tier then widens that budget, also once per call and only if
    /// a window needs it, into the bound of its f32 prefilter, which only
    /// drops candidates the f64 sum rejects (DESIGN §16). Decisions are
    /// exactly those of [`Metric::within`] (see [`crate::simd`]), so
    /// swapping per-pair tests for a block never changes join results.
    pub fn within_windows(
        &self,
        probes: &Dataset,
        block: &SoABlock,
        windows: &[(u32, Range<usize>)],
        eps: f64,
        scratch: &mut Scratch,
        out: &mut Vec<(u32, u32)>,
    ) {
        match self.normalized() {
            Metric::L1 => {
                simd::within_windows::<false, false>(probes, block, windows, eps, scratch, out)
            }
            Metric::L2 => simd::within_windows::<true, false>(
                probes,
                block,
                windows,
                eps * eps,
                scratch,
                out,
            ),
            Metric::Linf => {
                simd::within_windows::<false, true>(probes, block, windows, eps, scratch, out)
            }
            Metric::Lp(p) => {
                simd::portable::lp_within_windows(probes, block, windows, eps, p, out)
            }
        }
    }

    /// Human-readable label used by the experiment harness.
    pub fn label(&self) -> String {
        match self {
            Metric::L1 => "L1".into(),
            Metric::L2 => "L2".into(),
            Metric::Linf => "Linf".into(),
            Metric::Lp(p) => format!("L{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 3] = [0.0, 0.0, 0.0];
    const B: [f64; 3] = [0.3, 0.4, 0.0];

    #[test]
    fn distances_match_hand_computed_values() {
        assert!((Metric::L1.distance(&A, &B) - 0.7).abs() < 1e-12);
        assert!((Metric::L2.distance(&A, &B) - 0.5).abs() < 1e-12);
        assert!((Metric::Linf.distance(&A, &B) - 0.4).abs() < 1e-12);
        // L2 via the generic Lp path.
        assert!((Metric::Lp(2.0).distance(&A, &B) - 0.5).abs() < 1e-12);
        // L3 hand-computed: (0.027 + 0.064)^(1/3)
        let l3 = (0.3f64.powi(3) + 0.4f64.powi(3)).powf(1.0 / 3.0);
        assert!((Metric::Lp(3.0).distance(&A, &B) - l3).abs() < 1e-12);
    }

    #[test]
    fn within_agrees_with_distance_on_both_sides_of_threshold() {
        for m in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
            let d = m.distance(&A, &B);
            assert!(m.within(&A, &B, d + 1e-9), "{m:?} just above");
            assert!(!m.within(&A, &B, d - 1e-9), "{m:?} just below");
            assert!(m.within(&A, &A, 0.0), "{m:?} zero self distance");
        }
    }

    #[test]
    fn within_boundary_is_inclusive() {
        // Exactly on the threshold counts as within (<=), for values that
        // are exactly representable.
        let a = [0.0];
        let b = [0.25];
        for m in [Metric::L1, Metric::L2, Metric::Linf] {
            assert!(m.within(&a, &b, 0.25), "{m:?}");
        }
    }

    #[test]
    fn lp_validation() {
        assert!(Metric::Lp(0.5).validate().is_err());
        assert!(Metric::Lp(f64::NAN).validate().is_err());
        assert!(Metric::Lp(1.0).validate().is_ok());
        assert!(Metric::L2.validate().is_ok());
    }

    #[test]
    fn metric_ball_nesting_in_linf_cube() {
        // For every metric, dist <= eps implies Linf dist <= eps: the
        // property all filter structures rely on.
        let pts = [[0.1, 0.9, 0.4], [0.15, 0.85, 0.35]];
        for m in [Metric::L1, Metric::L2, Metric::Lp(4.0)] {
            let d = m.distance(&pts[0], &pts[1]);
            assert!(
                Metric::Linf.distance(&pts[0], &pts[1]) <= d + 1e-12,
                "{m:?}"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Metric::L1.label(), "L1");
        assert_eq!(Metric::Lp(3.0).label(), "L3");
    }

    #[test]
    fn lp_two_equals_l2_to_one_ulp() {
        // Lp(2.0) normalizes to the L2 kernel, so the two must agree to at
        // most 1 ulp (and in fact bit-exactly, since they share the code
        // path) on every lane shape.
        for dims in [1, 2, 3, 4, 5, 7, 8, 13, 16, 33, 64] {
            let a: Vec<f64> = (0..dims).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..dims).map(|i| (i as f64 * 0.61).cos()).collect();
            let d2 = Metric::L2.distance(&a, &b);
            let dp = Metric::Lp(2.0).distance(&a, &b);
            let ulps = (d2.to_bits() as i64 - dp.to_bits() as i64).abs();
            assert!(ulps <= 1, "d={dims}: {d2} vs {dp} ({ulps} ulps apart)");
            // Lp(1.0) likewise rides the L1 kernel.
            let d1 = Metric::L1.distance(&a, &b);
            let dq = Metric::Lp(1.0).distance(&a, &b);
            assert_eq!(d1.to_bits(), dq.to_bits(), "d={dims}: L1 vs Lp(1)");
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    fn point(dims: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-10.0f64..10.0, dims)
    }

    fn metrics() -> impl Strategy<Value = Metric> {
        prop_oneof![
            Just(Metric::L1),
            Just(Metric::L2),
            Just(Metric::Linf),
            (1.0f64..5.0).prop_map(Metric::Lp),
        ]
    }

    proptest! {
        #[test]
        fn metric_axioms(m in metrics(), a in point(5), b in point(5), c in point(5)) {
            let dab = m.distance(&a, &b);
            // Non-negativity and identity.
            prop_assert!(dab >= 0.0);
            prop_assert!(m.distance(&a, &a) < 1e-12);
            // Symmetry.
            prop_assert!((dab - m.distance(&b, &a)).abs() < 1e-12);
            // Triangle inequality (holds for all p >= 1).
            let dac = m.distance(&a, &c);
            let dcb = m.distance(&c, &b);
            prop_assert!(dab <= dac + dcb + 1e-9, "{dab} > {dac} + {dcb}");
        }

        #[test]
        fn within_is_consistent_with_distance(
            m in metrics(),
            a in point(4),
            b in point(4),
            eps in 0.001f64..20.0,
        ) {
            let d = m.distance(&a, &b);
            // Allow a hair of slack exactly at the threshold.
            if d < eps * (1.0 - 1e-12) {
                prop_assert!(m.within(&a, &b, eps));
            }
            if d > eps * (1.0 + 1e-12) {
                prop_assert!(!m.within(&a, &b, eps));
            }
        }

        #[test]
        fn lp_norms_decrease_in_p(a in point(6), b in point(6)) {
            // ||x||_p is non-increasing in p: d_1 >= d_2 >= d_4 >= d_inf.
            let d1 = Metric::L1.distance(&a, &b);
            let d2 = Metric::L2.distance(&a, &b);
            let d4 = Metric::Lp(4.0).distance(&a, &b);
            let dinf = Metric::Linf.distance(&a, &b);
            prop_assert!(d1 >= d2 - 1e-9);
            prop_assert!(d2 >= d4 - 1e-9);
            prop_assert!(d4 >= dinf - 1e-9);
        }

        #[test]
        fn every_ball_nests_in_the_linf_cube(m in metrics(), a in point(8), b in point(8)) {
            // The filter-correctness property every algorithm relies on.
            let d = m.distance(&a, &b);
            prop_assert!(Metric::Linf.distance(&a, &b) <= d + 1e-12);
        }
    }
}
