//! Differential property tests for the SIMD kernel tiers.
//!
//! The dispatch contract (see `hdsj_core::simd`) promises that every tier
//! computes the *bit-identical* distance of the 4-lane scalar kernels and
//! the *exactly identical* `within` decision. This suite drives randomized
//! NaN-free inputs — spanning subnormals, mixed magnitudes, and both signs
//! — through every tier the host supports and pins both promises against
//! the scalar oracle, for the pair kernels and the SoA block kernels
//! alike. It also pins the SoA transpose itself as bit-lossless.
//!
//! Dimension choices deliberately straddle the kernels' structural
//! boundaries: below/at/above the 4-lane width (1..8), the 16-dimension
//! early-exit super-block (15, 16, 17), and a multi-super-block span
//! (63, 64, 65).
// Panicking is idiomatic in test code; see clippy.toml / analyzer policy.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj_core::soa::SoABlock;
use hdsj_core::{kernels, simd, Dataset};
use proptest::prelude::*;

const DIMS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 63, 64, 65];

/// NaN-free coordinates with wildly mixed magnitudes: unit-scale values,
/// exact zeros of both signs, subnormals, and huge/tiny extremes. Large
/// enough to stress cancellation and absorption, small enough that no
/// L1/L2 sum over 65 dimensions overflows to infinity.
fn coord() -> impl Strategy<Value = f64> {
    // The unit-scale arm repeats to weight it (the vendored proptest's
    // unions choose uniformly between arms).
    prop_oneof![
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1e6f64..1e6,
        Just(0.0),
        Just(-0.0),
        Just(5e-324),    // smallest positive subnormal
        Just(-7.4e-310), // negative subnormal
        Just(1e100),
        Just(-3.5e-150),
    ]
}

/// A pair of equal-length coordinate vectors at a boundary-straddling
/// dimensionality.
fn dims() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    dims().prop_flat_map(|d| {
        (
            proptest::collection::vec(coord(), d),
            proptest::collection::vec(coord(), d),
        )
    })
}

/// A small dataset (unit-scale coordinates so ε thresholds land near real
/// distances) at a boundary-straddling dimensionality.
fn small_dataset() -> impl Strategy<Value = Dataset> {
    dims().prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, d), 1..40)
            .prop_map(|rows| Dataset::from_rows(&rows).unwrap())
    })
}

/// ε values that stress the inclusive boundary: the exact distance must be
/// accepted, its predecessor/successor must flip consistently everywhere.
fn boundary_eps(dist: f64) -> [f64; 4] {
    [
        dist,
        f64::from_bits(dist.to_bits().saturating_sub(1)),
        f64::from_bits(dist.to_bits().saturating_add(1)),
        dist * 0.5,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn distances_are_bit_identical_at_every_tier(pair in vec_pair()) {
        let (a, b) = pair;
        let saved = simd::level();
        for tier in simd::supported() {
            prop_assert_eq!(simd::set_level(tier), tier);
            prop_assert_eq!(
                simd::l1_distance(&a, &b).to_bits(),
                kernels::l1_distance(&a, &b).to_bits(),
                "l1 at {:?}", tier
            );
            prop_assert_eq!(
                simd::l2_distance(&a, &b).to_bits(),
                kernels::l2_distance(&a, &b).to_bits(),
                "l2 at {:?}", tier
            );
            prop_assert_eq!(
                simd::linf_distance(&a, &b).to_bits(),
                kernels::linf_distance(&a, &b).to_bits(),
                "linf at {:?}", tier
            );
            prop_assert_eq!(
                simd::lp_distance(&a, &b, 2.5).to_bits(),
                kernels::lp_distance(&a, &b, 2.5).to_bits(),
                "lp at {:?}", tier
            );
        }
        simd::set_level(saved);
    }

    #[test]
    fn within_decisions_are_exact_at_every_tier(pair in vec_pair()) {
        let (a, b) = pair;
        // ε pinned to the true distance and its bit-neighbours: the early
        // exits must agree with the full sum even exactly on the boundary.
        let d1 = kernels::l1_distance(&a, &b);
        let d2 = kernels::l2_distance(&a, &b);
        let di = kernels::linf_distance(&a, &b);
        let saved = simd::level();
        for tier in simd::supported() {
            simd::set_level(tier);
            for eps in boundary_eps(d1) {
                prop_assert_eq!(
                    simd::l1_within(&a, &b, eps),
                    kernels::l1_within(&a, &b, eps),
                    "l1 at {:?} eps {}", tier, eps
                );
            }
            for eps in boundary_eps(d2) {
                prop_assert_eq!(
                    simd::l2_within(&a, &b, eps),
                    kernels::l2_within(&a, &b, eps),
                    "l2 at {:?} eps {}", tier, eps
                );
            }
            for eps in boundary_eps(di) {
                prop_assert_eq!(
                    simd::linf_within(&a, &b, eps),
                    kernels::linf_within(&a, &b, eps),
                    "linf at {:?} eps {}", tier, eps
                );
            }
            prop_assert_eq!(
                simd::lp_within(&a, &b, d1.max(0.1), 2.5),
                kernels::lp_within(&a, &b, d1.max(0.1), 2.5),
                "lp at {:?}", tier
            );
        }
        simd::set_level(saved);
    }

    #[test]
    fn block_filters_match_pair_kernels_at_every_tier(
        ds in small_dataset(),
        eps in 0.0f64..2.5,
    ) {
        let n = ds.len() as u32;
        let block = SoABlock::from_range(&ds, 0..n);
        let probe = ds.point(0).to_vec();
        // Lane subranges exercise the ragged head/tail paths of the
        // across-candidate kernels, not just full tiles.
        let full = 0..block.len();
        let tail = block.len() / 3..block.len();
        let saved = simd::level();
        for tier in simd::supported() {
            simd::set_level(tier);
            for lanes in [full.clone(), tail.clone()] {
                let want_l1: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::l1_within(&probe, ds.point(j), eps))
                    .collect();
                let want_l2: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::l2_within(&probe, ds.point(j), eps))
                    .collect();
                let want_li: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::linf_within(&probe, ds.point(j), eps))
                    .collect();
                let want_lp: Vec<u32> = block.ids()[lanes.clone()]
                    .iter()
                    .copied()
                    .filter(|&j| kernels::lp_within(&probe, ds.point(j), eps, 2.5))
                    .collect();
                let mut got = Vec::new();
                simd::l1_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                prop_assert_eq!(&got, &want_l1, "l1 at {:?} lanes {:?}", tier, &lanes);
                got.clear();
                simd::l2_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                prop_assert_eq!(&got, &want_l2, "l2 at {:?} lanes {:?}", tier, &lanes);
                got.clear();
                simd::linf_within_block(&probe, &block, lanes.clone(), eps, &mut got);
                prop_assert_eq!(&got, &want_li, "linf at {:?} lanes {:?}", tier, &lanes);
                got.clear();
                simd::lp_within_block(&probe, &block, lanes.clone(), eps, 2.5, &mut got);
                prop_assert_eq!(&got, &want_lp, "lp at {:?} lanes {:?}", tier, &lanes);
            }
        }
        simd::set_level(saved);
    }

    #[test]
    fn soa_transpose_round_trips_bit_exactly(ds in small_dataset()) {
        let n = ds.len() as u32;
        // Contiguous transpose: every (lane, dim) cell is the source
        // coordinate, bit for bit.
        let block = SoABlock::from_range(&ds, 0..n);
        prop_assert_eq!(block.len(), ds.len());
        for t in 0..block.len() {
            let j = block.ids()[t];
            prop_assert_eq!(j, t as u32);
            for dim in 0..ds.dims() {
                prop_assert_eq!(
                    block.value(dim, t).to_bits(),
                    ds.point(j)[dim].to_bits(),
                    "lane {} dim {}", t, dim
                );
            }
        }
        // Padding lanes replicate a real candidate, so padded kernels can
        // never fault or produce non-finite terms.
        let last = ds.point(n - 1);
        for t in block.len()..block.width() {
            for (dim, &want) in last.iter().enumerate() {
                prop_assert_eq!(block.value(dim, t).to_bits(), want.to_bits());
            }
        }
        // Arbitrary-order gather (here: reversed ids) round-trips too.
        let js: Vec<u32> = (0..n).rev().collect();
        let mut gathered = SoABlock::empty(ds.dims());
        gathered.gather_into(&ds, &js);
        prop_assert_eq!(gathered.ids(), &js[..]);
        for (t, &j) in js.iter().enumerate() {
            for dim in 0..ds.dims() {
                prop_assert_eq!(
                    gathered.value(dim, t).to_bits(),
                    ds.point(j)[dim].to_bits(),
                    "gathered lane {} dim {}", t, dim
                );
            }
        }
    }
}
