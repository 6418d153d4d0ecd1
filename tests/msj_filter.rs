//! MSJ's sweep-time filters — ancestor views and the ε-striped second
//! dimension — against the nested-loop truth, on inputs built to break
//! them: cube faces exactly on cell boundaries and midplanes, distances
//! exactly ε, neighbours exactly one stripe apart, duplicates, a stack with
//! level gaps, d = 1 (no stripe dimension), d wider than a reach mask,
//! a one-level hierarchy, points on and beyond the domain's edges, and a
//! stripe that holds almost everything. Every scenario asserts that the
//! filter it targets really ran.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hdsj::core::obs::Tracer;
use hdsj::core::{
    verify, CandidateSink, Dataset, JoinKind, JoinSpec, Metric, SimilarityJoin, SoABlock,
    VecSink,
};
use hdsj::msj::assign::{prefix_bits_equal, Assigner, RecordCodec, TAG_A, TAG_B};
use hdsj::msj::Msj;
use std::collections::BTreeSet;
use std::ops::Range;

const METRICS: [Metric; 4] = [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)];

/// xorshift64*: the scenarios' only source of randomness.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.unit() * n as f64) as u32
    }
}

fn dataset(n: usize, dims: usize, mut coord: impl FnMut(usize, usize) -> f64) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..dims).map(|k| coord(i, k)).collect())
        .collect();
    Dataset::from_rows(&rows).unwrap()
}

/// The nested loop over the scalar metric: `i < j` for a self-join, every
/// `(a, b)` for a two-set join.
fn truth(a: &Dataset, b: Option<&Dataset>, spec: &JoinSpec) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (i, p) in a.iter() {
        for (j, q) in b.unwrap_or(a).iter() {
            if (b.is_some() || i < j) && spec.metric.within(p, q, spec.eps) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// What the filters did during one scenario, summed over its joins.
#[derive(Default, Debug)]
struct Funnel {
    view_tested: u64,
    view_kept: u64,
    striped_joins: u64,
}

/// MSJ (as `configure` builds it for a thread count) against the truth:
/// every metric, `--threads` 1, 2 and 3 (an odd count: the sweep's tiles
/// are owned unevenly), pair lists and filter tallies identical across
/// thread counts.
fn check(
    label: &str,
    a: &Dataset,
    b: Option<&Dataset>,
    eps: f64,
    configure: &dyn Fn(usize) -> Msj,
) -> Funnel {
    let mut funnel = Funnel::default();
    for metric in METRICS {
        let spec = JoinSpec::new(eps, metric);
        let want = truth(a, b, &spec);
        let mut serial = None;
        for threads in [1usize, 2, 3] {
            let label = format!("{label} {metric:?} threads={threads}");
            let (tracer, events) = Tracer::memory();
            let mut msj = configure(threads);
            msj.set_tracer(tracer.clone());
            let mut got = VecSink::default();
            let stats = match b {
                None => msj.self_join(a, &spec, &mut got),
                Some(b) => msj.join(a, b, &spec, &mut got),
            }
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            tracer.flush();
            verify::assert_same_results(&label, &want, &got.pairs);
            assert!(stats.candidates >= stats.results, "{label}");
            let count = |name| events.counter_value(name).unwrap_or(0);
            let (tested, kept) = (count("msj.sweep.view_tested"), count("msj.sweep.view_kept"));
            assert!(kept <= tested, "{label}: kept {kept} of {tested}");
            assert_eq!(
                count("msj.sweep.block_candidates") + count("msj.sweep.pair_candidates"),
                stats.candidates,
                "{label}"
            );
            funnel.view_tested += tested;
            funnel.view_kept += kept;
            let striped = count("msj.sweep.striped_joins");
            funnel.striped_joins += striped;
            let run = (got.pairs, stats.candidates, [tested, kept, striped]);
            match &serial {
                None => serial = Some(run),
                Some(first) => assert_eq!(first, &run, "{label}: pair order and tallies"),
            }
        }
    }
    funnel
}

fn default_msj(threads: usize) -> Msj {
    Msj::with_threads(threads)
}

#[test]
fn lattice_points_with_faces_on_boundaries_and_distances_exactly_eps() {
    // Coordinates k/64: with ε = 1/16 and 1/8 every cube face lies exactly
    // on a grid line of some level (ε = 3/64: on a lattice midpoint),
    // neighbours sit at distance exactly ε and exactly one stripe apart,
    // and thousands of points on 4 096 sites repeat often.
    for (steps, n, seed) in [(4u32, 2200, 11u64), (8, 1300, 12), (3, 4000, 13)] {
        let eps = steps as f64 / 64.0;
        let mut rng = Rng(seed);
        let a = dataset(n, 2, |_, _| rng.below(64) as f64 / 64.0);
        let funnel = check(
            &format!("lattice eps={steps}/64"),
            &a,
            None,
            eps,
            &default_msj,
        );
        assert!(
            funnel.view_kept > 0 && funnel.striped_joins > 0,
            "{steps}/64: {funnel:?}"
        );
    }
    // Two sets, three dimensions.
    let mut rng = Rng(14);
    let a = dataset(1300, 3, |_, _| rng.below(64) as f64 / 64.0);
    let b = dataset(1200, 3, |_, _| rng.below(64) as f64 / 64.0);
    let funnel = check("lattice two-set", &a, Some(&b), 1.0 / 16.0, &default_msj);
    assert!(
        funnel.view_kept > 0 && funnel.striped_joins > 0,
        "{funnel:?}"
    );
}

#[test]
fn a_stack_with_gaps_narrows_across_empty_levels() {
    // ε = 0.01 ⇒ depth 6. Sixty level-0 points hug the x0 = 0.5 midplane;
    // three clusters of 300 sit deep inside level-6 cells right beside it,
    // with levels 1–5 empty on the way down.
    let eps = 0.01;
    let centres = [0.5 + 0.5 / 64.0, 0.5 - 0.5 / 64.0, 0.5 + 1.5 / 64.0];
    let mut rng = Rng(21);
    let a = dataset(960, 3, |i, k| {
        let near = centres[i % 3] + (rng.unit() - 0.5) * 0.005;
        match (i < 900, k) {
            (true, 0) => near,
            (false, 0) => 0.5 + (rng.unit() - 0.5) * 0.008,
            // The other coordinates: cell centres at 20.5/64 and 41.5/64.
            (deep, k) => {
                let centre = (20.5 + 21.0 * (k - 1) as f64) / 64.0;
                centre + (rng.unit() - 0.5) * if deep { 0.005 } else { 0.02 }
            }
        }
    });
    let hist = Msj::default().level_histogram(&a, eps).unwrap();
    assert!(hist[0] >= 20 && hist[6] >= 600, "{hist:?}");
    assert!(hist[1..5].iter().sum::<u64>() < 20, "{hist:?}");
    let funnel = check("gaps", &a, None, eps, &default_msj);
    assert!(funnel.view_kept > 0, "{funnel:?}");
    // And two sets over the same shape.
    let b = dataset(960, 3, |i, k| {
        a.point(i as u32)[k] + 0.001 * (k as f64 - 1.0)
    });
    let funnel = check("gaps two-set", &a, Some(&b), eps, &default_msj);
    assert!(funnel.view_kept > 0, "{funnel:?}");
}

#[test]
fn one_dimension_has_no_stripe_dimension() {
    // ε = 0.004 ⇒ depth 7. In one dimension few cubes straddle a boundary,
    // so a view needs help: 100 points around the midpoint (level 0) over
    // 300 inside the level-7 cell just right of it.
    let mut rng = Rng(31);
    let a = dataset(2400, 1, |i, _| match i {
        0..=99 => 0.5 + (rng.unit() - 0.5) * 0.002,
        100..=399 => 0.503 + rng.unit() * 0.002,
        _ => rng.unit(),
    });
    let funnel = check("d=1", &a, None, 0.004, &default_msj);
    assert!(funnel.view_kept > 0, "{funnel:?}");
    assert_eq!(funnel.striped_joins, 0, "{funnel:?}");
}

#[test]
fn dimensions_beyond_the_reach_masks() {
    // d = 20 and d = 70, ε = 0.1 ⇒ depth 3: three tight clusters at level-3
    // cell centres; every other point strays across a boundary in a few
    // dimensions — some of them beyond the sixteen a mask covers — and lands
    // in a coarser level next to its cluster.
    for (dims, seed) in [(20usize, 41u64), (70, 42)] {
        let mut rng = Rng(seed);
        let centres = [1.5, 3.5, 4.5, 6.5];
        let sites: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                (0..dims)
                    .map(|_| centres[rng.below(4) as usize] / 8.0)
                    .collect()
            })
            .collect();
        let a = dataset(1500, dims, |i, k| {
            let strays = i % 9 < 5 && (k + i / 9) % 9 == 0;
            sites[i % 3][k] + (rng.unit() - 0.5) * if strays { 0.3 } else { 0.02 }
        });
        let hist = Msj::default().level_histogram(&a, 0.1).unwrap();
        assert!(hist[3] >= 600 && hist[0] >= 256, "{hist:?}");
        let funnel = check(&format!("d={dims}"), &a, None, 0.1, &default_msj);
        assert!(
            funnel.view_kept > 0 && funnel.striped_joins > 0,
            "d={dims}: {funnel:?}"
        );
    }
}

#[test]
fn a_one_level_hierarchy() {
    let mut rng = Rng(51);
    let a = dataset(2200, 3, |_, _| rng.unit());
    let shallow = |threads| {
        let mut msj = Msj::with_threads(threads);
        msj.max_depth = 1;
        msj
    };
    let funnel = check("max_depth=1", &a, None, 0.05, &shallow);
    assert!(
        funnel.view_kept > 0 && funnel.striped_joins > 0,
        "{funnel:?}"
    );
}

#[test]
fn points_on_and_beyond_the_edges_of_the_domain() {
    // `quantize` clamps, so edge cells are open-ended: points at 0.0, just
    // below 1.0, and outside [0, 1) altogether share them.
    let mut rng = Rng(61);
    let a = dataset(2400, 2, |i, k| match (i % 6, k) {
        (0, 0) => 0.0,
        (1, 0) => 1.0 - f64::EPSILON / 2.0,
        (2, _) => -0.3 * rng.unit(),
        (3, _) => 1.0 + 0.4 * rng.unit(),
        (4, 1) => 1.2 * rng.unit() - 0.1,
        _ => rng.unit(),
    });
    let funnel = check("edges", &a, None, 0.03, &default_msj);
    assert!(
        funnel.view_kept > 0 && funnel.striped_joins > 0,
        "{funnel:?}"
    );
    let b = dataset(1200, 2, |i, k| a.point(2 * i as u32)[k] + 0.01);
    let funnel = check("edges two-set", &a, Some(&b), 0.03, &default_msj);
    assert!(
        funnel.view_kept > 0 && funnel.striped_joins > 0,
        "{funnel:?}"
    );
}

#[test]
fn one_stripe_holds_almost_everything() {
    // Five points in six lie in a band 0.03 wide around the midplane of
    // every dimension but the first, so they all sit in level 0; the sixth
    // is anywhere, so the sampled spread asks for stripes and all but one
    // of them are nearly empty.
    let mut rng = Rng(71);
    let a = dataset(2400, 3, |i, k| match (i % 6, k) {
        (0, _) | (_, 0) => rng.unit(),
        _ => 0.485 + 0.03 * rng.unit(),
    });
    let hist = Msj::default().level_histogram(&a, 0.05).unwrap();
    assert!(hist[0] >= 2000, "{hist:?}");
    let funnel = check("one stripe", &a, None, 0.05, &default_msj);
    assert!(funnel.striped_joins > 0, "{funnel:?}");
}

#[test]
fn a_source_joins_its_pending_points_early_once_they_reach_the_cap() {
    // ε = 0.01 ⇒ depth 6. Forty level-0 points straddle the x1 = 0.5
    // midplane at any x0; the rest sit within 0.002 of level-6 cell centres
    // (their cubes fit), a few per cell, with levels 1–5 empty. No cell is
    // big enough for a view, so every deep point waits on the root, whose
    // list reaches the cap before the stream ends.
    let deep = |seed: u64, n: usize| {
        let mut rng = Rng(seed);
        dataset(n, 2, move |i, k| match (i < 40, k) {
            (true, 0) => rng.unit(),
            (true, _) => 0.5 + (rng.unit() - 0.5) * 0.006,
            (false, _) => (rng.below(64) as f64 + 0.5) / 64.0 + (rng.unit() - 0.5) * 0.004,
        })
    };
    let cap = hdsj::msj::sweep::PENDING_CAP as u64;
    let (a, b) = (deep(91, 1100), deep(92, 700));
    let (ha, hb) = (
        Msj::default().level_histogram(&a, 0.01).unwrap(),
        Msj::default().level_histogram(&b, 0.01).unwrap(),
    );
    for hist in [&ha, &hb] {
        assert!(
            hist[0] == 40 && hist[1..6].iter().all(|&n| n == 0),
            "{hist:?}"
        );
    }
    assert!(ha[6] > cap && ha[6] + hb[6] > cap * 3 / 2, "{ha:?} {hb:?}");
    // The two-set root list was joined before it held every deep point.
    let stats = Msj::default()
        .join(&a, &b, &JoinSpec::l2(0.01), &mut VecSink::default())
        .unwrap();
    let all = 12 * (ha[6] + hb[6]);
    assert!(
        stats.structure_bytes < all,
        "{} of {all}",
        stats.structure_bytes
    );
    check("pending cap", &a, None, 0.01, &default_msj);
    check("pending cap two-set", &a, Some(&b), 0.01, &default_msj);
    check_candidates(&a, None, 0.01);
    check_candidates(&a, Some(&b), 0.01);
}

/// Collects every candidate the sweep emits.
#[derive(Default)]
struct Collect(Vec<(u32, u32)>);

impl CandidateSink for Collect {
    fn windows(&mut self, tile: &SoABlock, windows: &[(u32, Range<usize>)]) {
        for (i, lanes) in windows {
            self.0
                .extend(tile.ids()[lanes.clone()].iter().map(|&j| (*i, j)));
        }
    }

    fn pair(&mut self, i: u32, j: u32) {
        self.0.push((i, j));
    }
}

/// Runs assignment, sort and the sweep by hand and checks the candidate
/// set: no pair twice, every pair one the unfiltered sweep would have
/// emitted — ancestor-related cells, first coordinates within ε by
/// `TileJoin`'s own float predicates — and every result pair among them.
/// Returns `(candidates, unfiltered candidates)`.
fn check_candidates(a: &Dataset, b: Option<&Dataset>, eps: f64) -> (usize, usize) {
    use hdsj::storage::sort::{external_sort, SortConfig};
    use hdsj::storage::{RecordFile, StorageEngine};

    let dims = a.dims();
    let depth = Msj::default().effective_depth(eps);
    let codec = RecordCodec::new(dims, depth);
    let engine = StorageEngine::in_memory(1024);
    let mut assigner = Assigner::new(dims, depth, eps, hdsj::sfc::Curve::Hilbert).unwrap();
    let mut file = RecordFile::create(&engine, codec.record_len()).unwrap();
    let mut rec = vec![0u8; codec.record_len()];
    // Per input, per point: (level, padded key bytes).
    let mut cells: [Vec<(u32, Vec<u8>)>; 2] = Default::default();
    for (side, (ds, tag)) in [(Some(a), TAG_A), (b, TAG_B)].into_iter().enumerate() {
        for (id, p) in ds.into_iter().flat_map(|ds| ds.iter()) {
            let (key, level) = assigner.assign(p);
            codec.encode(&key, level, tag, id, &mut rec);
            file.push(&rec).unwrap();
            cells[side].push((level as u32, key.to_be_bytes()));
        }
    }
    file.release_tail();
    let sorted =
        external_sort(&engine, &file, codec.sort_key_len(), SortConfig::default()).unwrap();
    let kind = match b {
        None => JoinKind::SelfJoin,
        Some(_) => JoinKind::TwoSets,
    };
    let right = b.unwrap_or(a);
    let mut sink = Collect::default();
    hdsj::msj::sweep::sweep(
        &sorted,
        &codec,
        a,
        right,
        kind,
        eps,
        None,
        (0, 1),
        &mut sink,
    )
    .unwrap();

    // The unfiltered sweep's set. The probe `x` of a pair is the left
    // input's point (two sets), the deeper cell's point, or within one cell
    // the earlier entry in (x0, id) order; `TileJoin` keeps `(x, y)` unless
    // `y0 < x0 - eps` or `y0 - x0 > eps`.
    let right_cells = &cells[usize::from(b.is_some())];
    let mut unfiltered = BTreeSet::new();
    for (i, p) in a.iter() {
        for (j, q) in right.iter() {
            if b.is_none() && i >= j {
                continue;
            }
            let ((li, ki), (lj, kj)) = (&cells[0][i as usize], &right_cells[j as usize]);
            let bits = dims as u32 * li.min(lj);
            if !prefix_bits_equal(ki, kj, bits) {
                continue;
            }
            let j_probes = b.is_none() && (lj > li || (lj == li && (q[0], j) < (p[0], i)));
            let (x0, y0) = if j_probes { (q[0], p[0]) } else { (p[0], q[0]) };
            if !(y0 < x0 - eps || y0 - x0 > eps) {
                unfiltered.insert((i, j));
            }
        }
    }
    let canonical = |&(i, j): &(u32, u32)| if b.is_none() && i > j { (j, i) } else { (i, j) };
    let candidates: BTreeSet<(u32, u32)> = sink.0.iter().map(canonical).collect();
    assert_eq!(
        candidates.len(),
        sink.0.len(),
        "a candidate was emitted twice"
    );
    assert!(
        candidates.is_subset(&unfiltered),
        "candidates outside the unfiltered sweep's set: {:?}",
        candidates
            .difference(&unfiltered)
            .take(5)
            .collect::<Vec<_>>()
    );
    for metric in METRICS {
        let results: BTreeSet<_> = truth(a, b, &JoinSpec::new(eps, metric))
            .into_iter()
            .collect();
        assert!(
            results.is_subset(&candidates),
            "{metric:?}: results the filters lost: {:?}",
            results.difference(&candidates).take(5).collect::<Vec<_>>()
        );
    }
    (candidates.len(), unfiltered.len())
}

#[test]
fn candidates_are_a_subset_of_the_unfiltered_sweeps_and_a_superset_of_the_result() {
    let mut rng = Rng(81);
    let uniform = dataset(2000, 3, |_, _| rng.unit());
    let (kept, all) = check_candidates(&uniform, None, 0.04);
    assert!(kept * 4 < all * 3, "uniform: {kept} of {all}");

    let lattice = dataset(2000, 2, |_, _| rng.below(64) as f64 / 64.0);
    let (kept, all) = check_candidates(&lattice, None, 1.0 / 16.0);
    assert!(kept < all, "lattice: {kept} of {all}");

    let other = dataset(1500, 3, |_, _| rng.unit());
    let (kept, all) = check_candidates(&uniform, Some(&other), 0.05);
    assert!(kept * 4 < all * 3, "two-set: {kept} of {all}");

    // Nothing to filter with: the set is exactly the unfiltered one.
    let small = dataset(150, 4, |_, _| rng.unit());
    let (kept, all) = check_candidates(&small, None, 0.3);
    assert_eq!(kept, all);
}
