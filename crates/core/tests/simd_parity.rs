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
//! (63, 64, 65). The enumerated (non-proptest) cases at the end walk the
//! block kernels' own seams: every window offset inside an 8-lane group,
//! tile widths with and without a trailing 4-lane group, every branch of
//! the 4/8/12/16/32/… early-exit schedule, and ε exactly at a candidate
//! in the first and last lane of a group.
// Panicking is idiomatic in test code; see clippy.toml / analyzer policy.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj_core::soa::SoABlock;
use hdsj_core::{kernels, simd, Dataset};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

/// `simd::set_level` is process-global and the test harness runs tests on
/// parallel threads: every test that sweeps tiers holds this, so a sweep
/// runs at the tier it names.
static TIER_SWEEP: Mutex<()> = Mutex::new(());

fn tier_sweep() -> MutexGuard<'static, ()> {
    TIER_SWEEP.lock().unwrap_or_else(|e| e.into_inner())
}

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
        let _sweep = tier_sweep();
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
        let _sweep = tier_sweep();
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
        let _sweep = tier_sweep();
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

// ---------------------------------------------------------------------
// Enumerated block-kernel seams (2-, 4- and 8-lane instantiations).
// ---------------------------------------------------------------------

/// Every branch of the block kernels' early-exit schedule: no full
/// 4-step (1, 3), one (4, 5), the per-4 checks (8, 12, 16), a tail past
/// them (17, 20), and the per-16 checks (64).
const SEAM_DIMS: &[usize] = &[1, 3, 4, 5, 8, 12, 16, 17, 20, 64];

type PairWithin = fn(&[f64], &[f64], f64) -> bool;
type PairDistance = fn(&[f64], &[f64]) -> f64;
type BlockWithin = fn(&[f64], &SoABlock, Range<usize>, f64, &mut Vec<u32>);

/// `(name, scalar distance, scalar decision, dispatched block filter)`.
const METRICS: [(&str, PairDistance, PairWithin, BlockWithin); 3] = [
    (
        "l1",
        kernels::l1_distance,
        kernels::l1_within,
        simd::l1_within_block,
    ),
    (
        "l2",
        kernels::l2_distance,
        kernels::l2_within,
        simd::l2_within_block,
    ),
    (
        "linf",
        kernels::linf_distance,
        kernels::linf_within,
        simd::linf_within_block,
    ),
];

/// A deterministic unit-interval stream: these cases are enumerated, not
/// sampled.
fn unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Asserts the dispatched block filter over `lanes` lists exactly the ids
/// the scalar pair kernel accepts, at every supported tier.
fn assert_block_matches_pairs(ds: &Dataset, block: &SoABlock, lanes: Range<usize>, eps: f64) {
    let probe = ds.point(0);
    for (name, _, within, filter) in METRICS {
        let want: Vec<u32> = block.ids()[lanes.clone()]
            .iter()
            .copied()
            .filter(|&j| within(probe, ds.point(j), eps))
            .collect();
        for tier in simd::supported() {
            simd::set_level(tier);
            let mut got = Vec::new();
            filter(probe, block, lanes.clone(), eps, &mut got);
            assert_eq!(
                got,
                want,
                "{name} at {tier:?}: d={} lanes {lanes:?} of {} (width {}), eps {eps}",
                ds.dims(),
                block.len(),
                block.width()
            );
        }
    }
}

#[test]
fn block_windows_hold_at_every_group_seam() {
    let _sweep = tier_sweep();
    let saved = simd::level();
    let mut state = 0x5eed;
    for &d in SEAM_DIMS {
        // Row 0 is the probe; the block holds rows 1..=len. Widths 4, 8,
        // 12 and 20 are exact; 19 and 23 pad up to 20 and 24. 12 and 20
        // leave the 8-lane kernel one trailing 4-lane group.
        for len in [4usize, 8, 12, 19, 20, 23] {
            let rows: Vec<Vec<f64>> = (0..=len)
                .map(|_| (0..d).map(|_| unit(&mut state)).collect())
                .collect();
            let ds = Dataset::from_rows(&rows).unwrap();
            let block = SoABlock::from_range(&ds, 1..len as u32 + 1);
            assert_eq!(block.width(), len.next_multiple_of(4));
            // ε exactly at the candidate in the first and the last lane
            // of a group (lanes 0 / 7 of the first 8-group, lane 8, and
            // the block's last real lane), and one ulp either side.
            for lane in [0, 7, 8, len - 1] {
                if lane >= len {
                    continue;
                }
                for (_, distance, _, _) in METRICS {
                    let exact = distance(ds.point(0), ds.point(block.ids()[lane]));
                    for eps in boundary_eps(exact) {
                        // Windows starting at every offset of an 8-group,
                        // ending at the block's end and inside its last
                        // group.
                        for start in 0..len.min(8) {
                            assert_block_matches_pairs(&ds, &block, start..len, eps);
                            let short = start.max(len - 3);
                            assert_block_matches_pairs(&ds, &block, start..short, eps);
                        }
                    }
                }
            }
        }
    }
    simd::set_level(saved);
}

#[test]
fn groups_rejected_at_each_check_are_dropped_exactly() {
    let _sweep = tier_sweep();
    let saved = simd::level();
    const LEN: usize = 20;
    for &d in SEAM_DIMS {
        // After `check` dimensions every candidate's partial sum (and
        // running max) first exceeds ε: the coordinates agree with the
        // probe everywhere but dimension `check − 1`. `check = d + 4`
        // never fires: nothing differs, everything is accepted.
        for check in [4usize, 8, 12, 16, 32, 48, 64, d + 4] {
            if check > d && check != d + 4 {
                continue;
            }
            // `spared` lanes stay equal to the probe, so their 8-, 4- and
            // 2-lane groups cannot take the group-wide exit while the
            // groups around them do.
            for spared in [&[][..], &[3, 12], &[0, 7, 8, 19]] {
                let probe: Vec<f64> = (0..d).map(|k| 0.25 + k as f64 * 1e-3).collect();
                let mut rows = vec![probe.clone()];
                for lane in 0..LEN {
                    let mut row = probe.clone();
                    if check <= d && !spared.contains(&lane) {
                        row[check - 1] += 1.0 + lane as f64 * 0.125;
                    }
                    rows.push(row);
                }
                let ds = Dataset::from_rows(&rows).unwrap();
                let block = SoABlock::from_range(&ds, 1..LEN as u32 + 1);
                for lanes in [0..LEN, 1..LEN, 5..LEN - 1] {
                    assert_block_matches_pairs(&ds, &block, lanes, 0.5);
                }
            }
        }
    }
    simd::set_level(saved);
}

#[test]
fn caps_never_lift_and_tier_names_are_distinct() {
    let _sweep = tier_sweep();
    let saved = simd::level();
    let supported = simd::supported();
    // Shown with `--nocapture`; CI's kernel-parity job logs it.
    eprintln!("simd::supported() = {supported:?}");
    for &tier in &supported {
        assert_eq!(simd::set_level(tier), tier);
        assert_eq!(simd::level(), tier);
    }
    let names: std::collections::BTreeSet<&str> = supported.iter().map(|l| l.name()).collect();
    assert_eq!(names.len(), supported.len(), "{names:?}");
    #[cfg(target_arch = "x86_64")]
    if supported.contains(&simd::Level::Avx2) {
        // `avx512` asked of a host without it runs `avx2`; `avx2` asked of
        // a host with it still runs `avx2`.
        let widest = *supported.last().unwrap();
        assert!(widest == simd::Level::Avx2 || widest == simd::Level::Avx512);
        assert_eq!(simd::set_level(simd::Level::Avx512), widest);
        assert_eq!(simd::set_level(simd::Level::Avx2), simd::Level::Avx2);
        assert_eq!(simd::set_level(simd::Level::Neon), widest, "foreign tier");
    }
    simd::set_level(saved);
}
