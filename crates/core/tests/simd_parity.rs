//! Differential property tests for the block-kernel tiers.
//!
//! The dispatch contract (see `hdsj_core::simd`) promises that every tier's
//! block kernel decides each candidate *exactly* as the one per-pair kernel
//! — `Metric::within`, the 4-lane scalar kernels in `hdsj_core::kernels` —
//! would. This suite drives randomized NaN-free inputs — spanning
//! subnormals, mixed magnitudes, and both signs — through every tier the
//! host supports and pins that promise, with `Metric::within` as the
//! reference throughout. It also pins `Metric::{distance, within}` to the
//! scalar kernels bit for bit (including the `Lp(1)`/`Lp(2)`
//! normalisation), and the SoA transpose itself as bit-lossless.
//!
//! Dimension choices deliberately straddle the kernels' structural
//! boundaries: below/at/above the 4-lane width (1..8), the 16-dimension
//! early-exit super-block (15, 16, 17), and a multi-super-block span
//! (63, 64, 65). The enumerated (non-proptest) cases at the end walk the
//! block kernels' own seams: every window offset inside a pair of 8-lane
//! groups, tiles that end in a two-group iteration and in the one-group
//! epilogue, every branch of the 4/8/12/16/32/… early-exit schedule with
//! either group of a pair rejected alone, and ε exactly at a candidate in
//! the first and last lane of a group. The f32 prefilter in front of the
//! vector kernels gets its own cases: mixed magnitudes, a lattice f32
//! cannot resolve, and coordinates past f32's range. A kernel call takes a
//! list of probe windows, and two consecutive windows can share the
//! prefilter's passes: `window_lists_match_metric_within_pair_by_pair`
//! checks whole lists, pair by pair and in order.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj_core::simd::Scratch;
use hdsj_core::soa::SoABlock;
use hdsj_core::{kernels, simd, Dataset, Metric};
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
    fn metric_pair_evaluation_is_the_scalar_kernels(pair in vec_pair()) {
        let (a, b) = pair;
        type Distance = fn(&[f64], &[f64]) -> f64;
        type Within = fn(&[f64], &[f64], f64) -> bool;
        // `Lp(1)`/`Lp(2)` must land on the specialized kernels, not `powf`.
        let cases: [(Metric, Distance, Within); 5] = [
            (Metric::L1, kernels::l1_distance, kernels::l1_within),
            (Metric::Lp(1.0), kernels::l1_distance, kernels::l1_within),
            (Metric::L2, kernels::l2_distance, kernels::l2_within),
            (Metric::Lp(2.0), kernels::l2_distance, kernels::l2_within),
            (Metric::Linf, kernels::linf_distance, kernels::linf_within),
        ];
        for (metric, distance, within) in cases {
            let dist = distance(&a, &b);
            prop_assert_eq!(metric.distance(&a, &b).to_bits(), dist.to_bits(), "{:?}", metric);
            for eps in boundary_eps(dist) {
                prop_assert_eq!(
                    metric.within(&a, &b, eps),
                    within(&a, &b, eps),
                    "{:?} eps {}", metric, eps
                );
            }
        }
        let lp = Metric::Lp(2.5);
        let dist = kernels::lp_distance(&a, &b, 2.5);
        prop_assert_eq!(lp.distance(&a, &b).to_bits(), dist.to_bits());
        for eps in boundary_eps(dist) {
            prop_assert_eq!(lp.within(&a, &b, eps), kernels::lp_within(&a, &b, eps, 2.5));
        }
    }

    #[test]
    fn block_filters_match_metric_within_at_every_tier(
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
                for metric in BLOCK_METRICS {
                    let want: Vec<(u32, u32)> = block.ids()[lanes.clone()]
                        .iter()
                        .copied()
                        .filter(|&j| metric.within(&probe, ds.point(j), eps))
                        .map(|j| (0, j))
                        .collect();
                    let mut got = Vec::new();
                    let window = [(0, lanes.clone())];
                    metric.within_windows(&ds, &block, &window, eps, &mut Scratch::default(), &mut got);
                    prop_assert_eq!(
                        &got, &want,
                        "{:?} at {:?} lanes {:?}", metric, tier, &lanes
                    );
                }
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

/// The metrics with a vector block kernel.
const METRICS: [Metric; 3] = [Metric::L1, Metric::L2, Metric::Linf];

/// Those plus the portable-only `Lp` and the two exponents that normalise
/// onto a vector kernel.
const BLOCK_METRICS: [Metric; 6] = [
    Metric::L1,
    Metric::L2,
    Metric::Linf,
    Metric::Lp(2.5),
    Metric::Lp(1.0),
    Metric::Lp(2.0),
];

/// A deterministic unit-interval stream: these cases are enumerated, not
/// sampled.
fn unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Asserts `Metric::within_windows` over the one window `lanes` of probe
/// row 0 lists exactly the ids `Metric::within` accepts, at every
/// supported tier.
fn assert_block_matches_pairs(ds: &Dataset, block: &SoABlock, lanes: Range<usize>, eps: f64) {
    let probe = ds.point(0);
    for metric in METRICS {
        let want: Vec<(u32, u32)> = block.ids()[lanes.clone()]
            .iter()
            .copied()
            .filter(|&j| metric.within(probe, ds.point(j), eps))
            .map(|j| (0, j))
            .collect();
        for tier in simd::supported() {
            simd::set_level(tier);
            let mut got = Vec::new();
            let window = [(0, lanes.clone())];
            metric.within_windows(ds, block, &window, eps, &mut Scratch::default(), &mut got);
            assert_eq!(
                got,
                want,
                "{metric:?} at {tier:?}: d={} lanes {lanes:?} of {} (width {}), eps {eps}",
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
        // Row 0 is the probe; the block holds rows 1..=len, padded up to
        // a multiple of 8. The kernels take groups two at a time and an
        // odd last one alone: 16 and 32 lanes are whole 8-lane pairs, 24
        // and 40 leave the epilogue a full group, 12, 19, 20, 23, 31 and
        // 33 end inside the first or the second group of a pair or inside
        // the epilogue's (at 2 and 4 lanes the same lengths fall on other
        // seams).
        for len in [4usize, 8, 12, 16, 19, 20, 23, 24, 31, 32, 33, 40] {
            let rows: Vec<Vec<f64>> = (0..=len)
                .map(|_| (0..d).map(|_| unit(&mut state)).collect())
                .collect();
            let ds = Dataset::from_rows(&rows).unwrap();
            let block = SoABlock::from_range(&ds, 1..len as u32 + 1);
            assert_eq!(block.width(), len.next_multiple_of(8));
            // ε exactly at the candidate in the first and the last lane
            // of a group (lanes 0 / 7 of the first 8-group, lane 8, and
            // the block's last real lane), and one ulp either side.
            for lane in [0, 7, 8, len - 1] {
                if lane >= len {
                    continue;
                }
                for metric in METRICS {
                    let exact = metric.distance(ds.point(0), ds.point(block.ids()[lane]));
                    for eps in boundary_eps(exact) {
                        // Windows starting at every offset of a pair of
                        // 8-groups — the kernels round the start down to
                        // a group and mask the lanes below it — ending at
                        // the block's end and inside its last group.
                        for start in 0..len.min(16) {
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
            // groups around them do. The exit is taken by two groups
            // together: a lone spared lane leaves the other group of its
            // pair wholly rejected at this step — at 8 and 4 lanes lane 3
            // sits in a first group, 12 and 14 in a second; at 2 lanes 12
            // in a first, 3 and 14 in a second.
            let spared_sets: [&[usize]; 6] =
                [&[], &[3, 12], &[0, 7, 8, 19], &[3], &[12], &[14]];
            for spared in spared_sets {
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

// ---------------------------------------------------------------------
// The f32 prefilter: whatever it drops, the f64 kernel rejects.
// ---------------------------------------------------------------------

/// `coord()`'s mixed magnitudes — both zeros, f64 subnormals (which f32
/// rounds to zero), an f32 subnormal, unit and 1e6 scale side by side —
/// with its `1e100` arm only when `huge`: a block holding one skips the
/// prefilter, a block without runs it.
fn stage_coord(huge: bool) -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1.0f64..1.0,
        -1e6f64..1e6,
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(-7.4e-310),
        Just(1e-40),
        Just(-3.5e-150),
        Just(if huge { 1e100 } else { 1e30 }),
    ]
}

/// `1 + k·2⁻⁴⁰` in even dimensions, which f32 collapses to one value, and
/// `1 + 2⁻²⁴ + k·2⁻⁴⁰` in odd ones, which straddles the midpoint of two
/// f32 values and so rounds a whole f32 ulp apart or together: every f32
/// difference is off by far more than the f64 distances it must not
/// misjudge.
fn lattice(dim: usize, k: i32) -> f64 {
    let mid = if dim % 2 == 1 { 2f64.powi(-24) } else { 0.0 };
    1.0 + mid + f64::from(k) * 2f64.powi(-40)
}

/// The fewest lanes a window of `d` dimensions needs for the f32 stage to
/// run at every tier: more than two 8-lane groups and more than 256
/// lane-dimensions (the AVX-512 tier's bar; narrower tiers' are lower).
/// Smaller windows go straight to f64, which the other tests cover.
fn sieved(d: usize) -> usize {
    (256 / d).max(16) + 1
}

/// Rows of one `SEAM_DIMS` dimensionality, row 0 the probe: enough that a
/// window starting at any of the first 16 lanes is [`sieved`], and up to
/// 40 more. A quarter are [`lattice`] rows, a quarter hold `1e100`.
fn stage_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (0usize..SEAM_DIMS.len(), 0u32..4).prop_flat_map(|(i, kind)| {
        let (d, least) = (SEAM_DIMS[i], sieved(SEAM_DIMS[i]) + 16);
        let row = if kind == 3 {
            proptest::collection::vec(-8i32..9, d)
                .prop_map(|ks| {
                    ks.iter()
                        .enumerate()
                        .map(|(dim, &k)| lattice(dim, k))
                        .collect()
                })
                .boxed()
        } else {
            proptest::collection::vec(stage_coord(kind == 0), d).boxed()
        };
        proptest::collection::vec(row, least..least + 40)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The f32 stage never rejects an f64 hit: ε at the exact f64 distance
    /// of one lane and one ulp either side, windows starting inside a
    /// group, at every tier (`assert_block_matches_pairs`).
    #[test]
    fn the_f32_stage_never_rejects_an_f64_hit(
        rows in stage_rows(),
        pick in 0usize..64,
        start in 0usize..16,
    ) {
        let _sweep = tier_sweep();
        let saved = simd::level();
        let ds = Dataset::from_rows(&rows).unwrap();
        let len = rows.len() - 1;
        let block = SoABlock::from_range(&ds, 1..len as u32 + 1);
        let lane = pick % len;
        for metric in METRICS {
            let exact = metric.distance(ds.point(0), ds.point(block.ids()[lane]));
            for eps in boundary_eps(exact) {
                assert_block_matches_pairs(&ds, &block, start.min(len - 1)..len, eps);
            }
        }
        simd::set_level(saved);
    }

    /// A list of windows — the shape the tile joins hand the kernel, one
    /// call per tile — decides every (probe, lane) as `Metric::within`
    /// does and emits the hits window by window, each in lane order, at
    /// every tier. The lists ([`window_list`]) hold overlapping, nested,
    /// disjoint and empty windows, equal starts and starts inside a group,
    /// so consecutive windows that reach the f32 stage share its passes
    /// two probes at a time; ε sits at one lane's exact distance, one ulp
    /// either side, and at a distance that takes every lane, where any
    /// lane a pass loses is a lost hit.
    #[test]
    fn window_lists_match_metric_within_pair_by_pair(
        rows in stage_rows(),
        moves in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0u32..6), 1..7),
        pick in 0usize..64,
    ) {
        let _sweep = tier_sweep();
        let saved = simd::level();
        let ds = Dataset::from_rows(&rows).unwrap();
        let len = rows.len() - 1;
        let block = SoABlock::from_range(&ds, 1..len as u32 + 1);
        let windows = window_list(len, pick % 16, &moves);
        let lane = (pick % 16).max(pick % len);
        let mut scratch = Scratch::default();
        for metric in METRICS {
            let exact = metric.distance(ds.point(0), ds.point(block.ids()[lane]));
            let every = windows
                .iter()
                .flat_map(|(i, lanes)| block.ids()[lanes.clone()].iter().map(move |&j| (*i, j)))
                .map(|(i, j)| metric.distance(ds.point(i), ds.point(j)))
                .fold(0.0, f64::max);
            for eps in boundary_eps(exact).into_iter().chain([every]) {
                let want: Vec<(u32, u32)> = windows
                    .iter()
                    .flat_map(|(i, lanes)| block.ids()[lanes.clone()].iter().map(move |&j| (*i, j)))
                    .filter(|&(i, j)| metric.within(ds.point(i), ds.point(j), eps))
                    .collect();
                for tier in simd::supported() {
                    simd::set_level(tier);
                    let mut got = Vec::new();
                    metric.within_windows(&ds, &block, &windows, eps, &mut scratch, &mut got);
                    prop_assert_eq!(
                        &got, &want,
                        "{:?} at {:?}: d={} windows {:?}, eps {}", metric, tier, ds.dims(), &windows, eps
                    );
                }
            }
        }
        simd::set_level(saved);
    }
}

/// Windows over a `len`-lane block for probe rows 0..6: first probe 0's
/// from `start` (inside the first group or two) to the end, then one per
/// move `(kind, a, b, probe)`, each placed against the last non-empty one —
/// shifted right a few lanes (overlapping), inside it (nested), past its
/// end (disjoint, or the block's last lanes), empty, from the same start,
/// or from inside the first groups to the end.
fn window_list(
    len: usize,
    start: usize,
    moves: &[(u8, usize, usize, u32)],
) -> Vec<(u32, Range<usize>)> {
    let mut list = vec![(0, start.min(len - 1)..len)];
    let mut last = list[0].1.clone();
    for &(kind, a, b, probe) in moves {
        let half = last.len() / 2 + 1;
        let w = match kind {
            0 => {
                let e = (last.end + b % 8).min(len);
                (last.start + a % 8).min(e)..e
            }
            1 => {
                let s = last.start + a % half;
                s..(s + b % half).min(last.end)
            }
            2 => {
                let s = (last.end + a % 8).min(len - 1);
                s..(s + 1 + b).min(len)
            }
            3 => a % len..a % len,
            4 => last.start..(last.start + 1 + b * 4).min(len),
            _ => a % 16 % len..len,
        };
        if !w.is_empty() {
            last = w.clone();
        }
        list.push((probe, w));
    }
    list
}

/// Asserts the block kernels at every tier on `rows` (row 0 the probe),
/// with ε at the exact f64 distance of the first, middle and last lane and
/// one ulp either side, over windows from lanes 0, 5 and 9 (each one
/// [`sieved`] when `rows` has `sieved(d) + 10` or more).
fn assert_exact_eps_windows(rows: &[Vec<f64>]) {
    let ds = Dataset::from_rows(rows).unwrap();
    let len = rows.len() - 1;
    let block = SoABlock::from_range(&ds, 1..len as u32 + 1);
    for lane in [0, len / 2, len - 1] {
        for metric in METRICS {
            let exact = metric.distance(ds.point(0), ds.point(block.ids()[lane]));
            for eps in boundary_eps(exact) {
                for start in [0, 5, 9].into_iter().filter(|&s| s < len) {
                    assert_block_matches_pairs(&ds, &block, start..len, eps);
                }
            }
        }
    }
}

/// Every row on the [`lattice`], at every `SEAM_DIMS` dimensionality.
#[test]
fn the_f32_stage_keeps_hits_on_a_lattice_f32_cannot_resolve() {
    let _sweep = tier_sweep();
    let saved = simd::level();
    let mut state = 0x1a77;
    for &d in SEAM_DIMS {
        for len in [9, 16, 40].map(|more| sieved(d) + more) {
            let rows: Vec<Vec<f64>> = (0..=len)
                .map(|_| {
                    (0..d)
                        .map(|dim| lattice(dim, (unit(&mut state) * 17.0) as i32 - 8))
                        .collect()
                })
                .collect();
            assert_exact_eps_windows(&rows);
        }
    }
    simd::set_level(saved);
}

/// Coordinates at and past f32's range, whose f32 copies are `f32::MAX`
/// and infinities: the stage steps aside for the call and f64 decides.
#[test]
fn coordinates_past_f32_range_leave_f64_deciding() {
    let _sweep = tier_sweep();
    let saved = simd::level();
    let mut state = 0xb16;
    let far = [f64::from(f32::MAX), 3.5e38, -3.5e38, 1e39, -1e39];
    for &d in SEAM_DIMS {
        let rows: Vec<Vec<f64>> = (0..=sieved(d) + 9)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        let v = far[(unit(&mut state) * 5.0) as usize];
                        v + unit(&mut state) * 1e24
                    })
                    .collect()
            })
            .collect();
        assert_exact_eps_windows(&rows);
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
    }
    simd::set_level(saved);
}
