//! Cross-algorithm equivalence: every algorithm must produce exactly the
//! brute-force result set on every workload × metric × join-kind
//! combination. This is the central correctness contract of the library.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hdsj::all_algorithms;
use hdsj::bruteforce::BruteForce;
use hdsj::core::{verify, Dataset, JoinSpec, Metric, SimilarityJoin, VecSink};
use hdsj::data::{correlated, gaussian_clusters, timeseries, uniform, ClusterSpec};
use hdsj::ekdb::EkdbJoin;

/// Every algorithm, plus ε-KDB at a leaf capacity of 4: these inputs fit
/// in one or a few leaves of the default, so this keeps its inner × inner
/// and leaf × inner traversal under the oracle.
fn oracle_algorithms() -> Vec<Box<dyn SimilarityJoin>> {
    let mut algos = all_algorithms();
    algos.push(Box::new(EkdbJoin {
        leaf_capacity: 4,
        ..Default::default()
    }));
    algos
}

fn ground_truth_self(ds: &Dataset, spec: &JoinSpec) -> Vec<(u32, u32)> {
    let mut sink = VecSink::default();
    BruteForce::default()
        .self_join(ds, spec, &mut sink)
        .unwrap();
    sink.pairs
}

fn ground_truth_two(a: &Dataset, b: &Dataset, spec: &JoinSpec) -> Vec<(u32, u32)> {
    let mut sink = VecSink::default();
    BruteForce::default().join(a, b, spec, &mut sink).unwrap();
    sink.pairs
}

/// Runs every algorithm on a self-join and checks against brute force.
/// Algorithms that decline (grid in high d) are skipped.
fn check_all_self(ds: &Dataset, spec: &JoinSpec, label: &str) {
    let want = ground_truth_self(ds, spec);
    for mut algo in oracle_algorithms() {
        let mut sink = VecSink::default();
        match algo.self_join(ds, spec, &mut sink) {
            Ok(stats) => {
                assert_eq!(
                    stats.results as usize,
                    sink.pairs.len(),
                    "{label}/{}",
                    algo.name()
                );
                verify::assert_same_results(
                    &format!("{label}/{}", algo.name()),
                    &want,
                    &sink.pairs,
                );
            }
            Err(hdsj::core::Error::Unsupported(_)) => continue,
            Err(e) => panic!("{label}/{}: {e}", algo.name()),
        }
    }
}

fn check_all_two(a: &Dataset, b: &Dataset, spec: &JoinSpec, label: &str) {
    let want = ground_truth_two(a, b, spec);
    for mut algo in oracle_algorithms() {
        let mut sink = VecSink::default();
        match algo.join(a, b, spec, &mut sink) {
            Ok(_) => verify::assert_same_results(
                &format!("{label}/{}", algo.name()),
                &want,
                &sink.pairs,
            ),
            Err(hdsj::core::Error::Unsupported(_)) => continue,
            Err(e) => panic!("{label}/{}: {e}", algo.name()),
        }
    }
}

/// Self-joins `ds` with `algo` under a memory tracer, checks the pairs
/// against `want` and the tile tally under `prefix` against the stats
/// (every candidate went through the shared tile join, as a lane window or
/// as a pair), and returns the counter reader.
fn check_tallied_self(
    mut algo: Box<dyn SimilarityJoin>,
    prefix: &str,
    ds: &Dataset,
    spec: &JoinSpec,
    want: &[(u32, u32)],
    label: &str,
) -> impl Fn(&str) -> u64 {
    let label = format!("{label}/{}", algo.name());
    let (tracer, mem) = hdsj::obs::Tracer::memory();
    algo.set_tracer(tracer.clone());
    let mut sink = VecSink::default();
    let stats = algo.self_join(ds, spec, &mut sink).unwrap();
    tracer.flush();
    verify::assert_same_results(&label, want, &sink.pairs);
    let tally = move |name: &str| mem.counter_value(name).unwrap_or(0);
    let sweep = |field: &str| tally(&format!("{prefix}.sweep.{field}"));
    let (block, calls) = (sweep("block_candidates"), sweep("block_calls"));
    assert_eq!(
        block + sweep("pair_candidates"),
        stats.candidates,
        "{label}"
    );
    // Every block call carries at least one candidate.
    assert!(calls <= block && (calls == 0) == (block == 0), "{label}");
    assert_eq!(block == 0, sweep("tiles_gathered") == 0, "{label}");
    tally
}

/// EKDB, SM1D and MSJ by name — no roster skip can hide them — on inputs
/// whose leaves, projection and cells span several candidate tiles:
/// brute-force results through the shared tile join's block path. Returns
/// MSJ's `(view_tested, striped_joins)`.
fn check_tiled_self(ds: &Dataset, spec: &JoinSpec, label: &str) -> (u64, u64) {
    let want = ground_truth_self(ds, spec);
    let msj = Box::new(hdsj::msj::Msj::default());
    let tally = check_tallied_self(msj, "msj", ds, spec, &want, label);
    // The funnel of the sweep's view filter: tested → kept.
    let tested = tally("msj.sweep.view_tested");
    assert!(tally("msj.sweep.view_kept") <= tested, "{label}");
    let msj_funnel = (tested, tally("msj.sweep.striped_joins"));

    let ekdb = Box::new(hdsj::ekdb::EkdbJoin::default());
    let tally = check_tallied_self(ekdb, "ekdb", ds, spec, &want, label);
    // Every point transposed once, every leaf pair read from those columns
    // in windows of the block kernel — none pair by pair.
    assert!(
        tally("ekdb.sweep.tiles_gathered") > 0,
        "{label}: EKDB gathered no tile"
    );
    assert_eq!(
        tally("ekdb.sweep.lanes_gathered"),
        ds.len() as u64,
        "{label}"
    );
    assert_eq!(tally("ekdb.sweep.pair_candidates"), 0, "{label}");

    let mut sink = VecSink::default();
    hdsj::sortmerge::SortMergeJoin::default()
        .self_join(ds, spec, &mut sink)
        .unwrap();
    verify::assert_same_results(&format!("{label}/SM1D"), &want, &sink.pairs);
    msj_funnel
}

/// RSJ and GRID end in the same tile join: the tally identity holds for
/// them, and the stage really runs — or, for the R-tree at d = 64, where a
/// leaf holds 7 points, visibly cannot.
#[test]
fn rsj_and_grid_candidates_go_through_the_tile_join() {
    let rsj = || Box::new(hdsj::rtree::RsjJoin::default());
    let ds = uniform(4, 4000, 17).unwrap();
    let spec = JoinSpec::l2(0.1);
    let want = ground_truth_self(&ds, &spec);
    let tally = check_tallied_self(rsj(), "rsj", &ds, &spec, &want, "uniform d=4");
    assert!(
        tally("rsj.sweep.tiles_gathered") > 0,
        "RSJ gathered no tile"
    );
    let (nodes, leaves) = (tally("rsj.node_pairs"), tally("rsj.leaf_pairs"));
    assert!(0 < leaves && leaves < nodes, "{leaves} of {nodes}");

    let ds = uniform(64, 300, 18).unwrap();
    let spec = JoinSpec::l2(2.0);
    let want = ground_truth_self(&ds, &spec);
    let tally = check_tallied_self(rsj(), "rsj", &ds, &spec, &want, "uniform d=64");
    assert_eq!(tally("rsj.sweep.tiles_gathered"), 0);
    assert!(tally("rsj.sweep.pair_candidates") > 0);

    let ds = uniform(2, 3000, 19).unwrap();
    let spec = JoinSpec::l2(0.1);
    let want = ground_truth_self(&ds, &spec);
    let grid = Box::new(hdsj::grid::GridJoin::default());
    let tally = check_tallied_self(grid, "grid", &ds, &spec, &want, "dense d=2");
    assert!(
        tally("grid.sweep.tiles_gathered") > 0,
        "GRID gathered no tile"
    );
    assert!(tally("grid.cell_pairs") >= 100);
}

#[test]
fn uniform_self_join_across_dims_and_eps() {
    // d = 16 at ε = 0.8 leaves every point in MSJ's level 0: one cell whose
    // sweep spans several candidate tiles.
    for (d, eps) in [(2usize, 0.03), (3, 0.1), (6, 0.3), (12, 0.5), (16, 0.8)] {
        let ds = uniform(d, 500, d as u64 * 31 + 1).unwrap();
        let spec = JoinSpec::new(eps, Metric::L2);
        check_all_self(&ds, &spec, &format!("uniform d={d}"));
        if d == 16 {
            // One cell, ε·(1 + 1e-9) stripes wider than a third of the
            // domain: no view to narrow, nothing to stripe.
            assert_eq!(check_tiled_self(&ds, &spec, "uniform d=16"), (0, 0));
        }
    }
    // A deep hierarchy with a big level 0: both MSJ filters run.
    let ds = uniform(3, 3000, 94).unwrap();
    let (tested, striped) = check_tiled_self(&ds, &JoinSpec::l2(0.04), "uniform d=3");
    assert!(
        tested > 0 && striped > 0,
        "views {tested}, stripes {striped}"
    );
}

#[test]
fn all_metrics_agree_with_ground_truth() {
    let ds = uniform(5, 400, 99).unwrap();
    for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(2.5)] {
        check_all_self(&ds, &JoinSpec::new(0.25, metric), &format!("{metric:?}"));
    }
}

#[test]
fn two_set_joins_match() {
    let a = uniform(4, 450, 11).unwrap();
    let b = uniform(4, 380, 12).unwrap();
    check_all_two(&a, &b, &JoinSpec::new(0.2, Metric::L2), "two-set uniform");
    // Asymmetric sizes exercise tree-height mismatches.
    let tiny = uniform(4, 7, 13).unwrap();
    check_all_two(
        &tiny,
        &b,
        &JoinSpec::new(0.2, Metric::L2),
        "two-set tiny-left",
    );
    check_all_two(
        &b,
        &tiny,
        &JoinSpec::new(0.2, Metric::L2),
        "two-set tiny-right",
    );
}

#[test]
fn clustered_and_skewed_workloads_match() {
    let tight = gaussian_clusters(
        4,
        600,
        ClusterSpec {
            clusters: 5,
            sigma: 0.01,
            zipf_theta: 1.5,
            noise_fraction: 0.2,
        },
        7,
    )
    .unwrap();
    check_all_self(&tight, &JoinSpec::new(0.03, Metric::L2), "zipf clusters");

    let corr = correlated(8, 500, 0.03, 21).unwrap();
    check_all_self(
        &corr,
        &JoinSpec::new(0.07, Metric::L2),
        "correlated diagonal",
    );
}

#[test]
fn fourier_feature_workload_matches() {
    let ds = timeseries::fourier_dataset(6, 400, 64, 2025).unwrap();
    check_all_self(&ds, &JoinSpec::new(0.04, Metric::L2), "fourier features");
    // The paper's regime: d = 64 rows, a few dozen lanes per candidate tile.
    let ds = timeseries::fourier_dataset(64, 600, 128, 2026).unwrap();
    check_all_self(&ds, &JoinSpec::new(0.1, Metric::L2), "fourier d=64");
    check_tiled_self(&ds, &JoinSpec::new(0.1, Metric::L2), "fourier d=64");
}

#[test]
fn degenerate_datasets_match() {
    // All-duplicate points.
    let dupes = Dataset::from_rows(&vec![vec![0.25, 0.75, 0.5]; 60]).unwrap();
    check_all_self(&dupes, &JoinSpec::new(0.01, Metric::L2), "duplicates");

    // Single point, empty set.
    let single = Dataset::from_rows(&[vec![0.5, 0.5, 0.5]]).unwrap();
    check_all_self(&single, &JoinSpec::new(0.1, Metric::L2), "single point");
    let empty = Dataset::new(3).unwrap();
    check_all_self(&empty, &JoinSpec::new(0.1, Metric::L2), "empty");

    // Points packed along grid boundaries.
    let mut rows = Vec::new();
    for i in 0..8 {
        for j in 0..8 {
            rows.push(vec![i as f64 / 8.0, j as f64 / 8.0, 0.5]);
        }
    }
    let grid_pts = Dataset::from_rows(&rows).unwrap();
    check_all_self(
        &grid_pts,
        &JoinSpec::new(0.125, Metric::Linf),
        "boundary lattice",
    );
}

#[test]
fn result_sets_nest_as_eps_grows() {
    // For every algorithm: results(eps1) ⊆ results(eps2) when eps1 < eps2.
    let ds = uniform(5, 400, 3).unwrap();
    for mut algo in oracle_algorithms() {
        let mut small = VecSink::default();
        let mut large = VecSink::default();
        if algo.self_join(&ds, &JoinSpec::l2(0.1), &mut small).is_err() {
            continue;
        }
        algo.self_join(&ds, &JoinSpec::l2(0.2), &mut large).unwrap();
        let large_set: std::collections::HashSet<_> = large.pairs.iter().collect();
        for pair in &small.pairs {
            assert!(
                large_set.contains(pair),
                "{}: {pair:?} lost at larger eps",
                algo.name()
            );
        }
    }
}

#[test]
fn color_histogram_workload_matches() {
    let ds = hdsj::data::color_histograms(
        12,
        350,
        hdsj::data::HistogramSpec {
            themes: 6,
            themes_per_image: 2,
            noise: 0.01,
        },
        31,
    )
    .unwrap();
    let eps = hdsj::data::eps_for_target_pairs(&ds, Metric::L2, 800.0, 50_000, 32);
    check_all_self(&ds, &JoinSpec::new(eps, Metric::L2), "color histograms");
}

#[test]
fn high_dimensional_correlated_workload_matches() {
    // d = 24: grid declines, everything else must agree.
    let ds = correlated(24, 300, 0.02, 41).unwrap();
    check_all_self(&ds, &JoinSpec::new(0.05, Metric::L2), "correlated d=24");
}
