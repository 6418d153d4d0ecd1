//! # hdsj-grid — the ε-grid hash join
//!
//! The textbook low-dimensional filter: overlay a grid of cell side `ε`;
//! two points within L∞ distance ε necessarily fall in the same or in
//! adjacent cells, so each occupied cell only joins with its `3^d`
//! neighbourhood.
//!
//! That `3^d` is the point. At `d = 4` a cell has 80 neighbours; at `d = 16`
//! it has 43 million — the curse-of-dimensionality blow-up that motivates
//! the paper's MSJ. The implementation therefore **refuses** to run above a
//! configurable dimensionality cap ([`GridJoin::max_dims`]) instead of
//! silently burning hours; the dimensionality experiment (E1) reports it as
//! infeasible beyond the cap, just as the paper's grid-style baselines drop
//! out of the high-`d` plots.
//!
//! Cells are kept in a hash directory (occupied cells only), so space is
//! `O(N)` regardless of how fine the grid is. A cell is a `(x0, id)` run
//! sorted once at build, and a cell pair is one call of the tile join every
//! other structured method ends in: the grid differs from them only in its
//! filter.
#![forbid(unsafe_code)]

use hdsj_core::obs::PhaseClass;
use hdsj_core::{
    sort_by_coord, Dataset, Error, JoinEnv, JoinKind, JoinRun, JoinSpec, PairSink, Refiner,
    Result, SimilarityJoin, TileJoin,
};
use std::collections::HashMap;

/// Occupied cells probed between lifecycle polls. Each cell visits up to
/// `3^d` neighbours, so the stride is lower than the sweep-based joins'.
const POLL_STRIDE: usize = 256;

/// ε-grid hash join.
///
/// ```
/// use hdsj_core::{JoinSpec, SimilarityJoin, CountSink};
/// use hdsj_grid::GridJoin;
/// let points = hdsj_data::uniform(3, 200, 7).unwrap();
/// let mut sink = CountSink::default();
/// let stats = GridJoin::default().self_join(&points, &JoinSpec::l2(0.1), &mut sink)?;
/// assert_eq!(stats.results, sink.count);
/// # Ok::<(), hdsj_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct GridJoin {
    /// Refuse dimensionalities above this (3^d neighbour enumeration).
    pub max_dims: usize,
    /// Tracer and lifecycle context (polled every `POLL_STRIDE` probed
    /// cells); the thread count is ignored.
    pub env: JoinEnv,
}

impl Default for GridJoin {
    fn default() -> GridJoin {
        GridJoin {
            max_dims: 10,
            env: JoinEnv::default(),
        }
    }
}

/// A point's cell coordinates at grid resolution `1/eps`.
fn cell_of(p: &[f64], eps: f64) -> Vec<i64> {
    p.iter().map(|&x| (x / eps).floor() as i64).collect()
}

/// One cell's points as the tile join takes them: `(x0, id)`, ascending.
type Run = Vec<(f64, u32)>;

/// Hash directory: occupied cell → its run.
struct Directory {
    cells: HashMap<Vec<i64>, Run>,
}

impl Directory {
    /// Every cell's run is sorted once here, for every probe of it.
    fn build(ds: &Dataset, eps: f64, run: &JoinRun<'_>) -> Result<Directory> {
        let mut cells: HashMap<Vec<i64>, Run> = HashMap::new();
        for (i, p) in ds.iter() {
            // Most cells of a fine grid hold one point: no room for four.
            cells
                .entry(cell_of(p, eps))
                .or_insert_with(|| Vec::with_capacity(1))
                .push((p[0], i));
        }
        for (idx, cell) in cells.values_mut().enumerate() {
            if idx % POLL_STRIDE == 0 {
                run.poll()?;
            }
            sort_by_coord(cell);
        }
        Ok(Directory { cells })
    }

    /// Occupied cells in key order: the probe's deterministic iteration.
    fn sorted_cells(&self) -> Vec<(&Vec<i64>, &Run)> {
        let mut cells: Vec<_> = self.cells.iter().collect();
        cells.sort_unstable_by_key(|&(key, _)| key);
        cells
    }

    fn bytes(&self) -> u64 {
        self.cells
            .iter()
            .map(|(k, v)| (k.len() * 8 + std::mem::size_of_val(&v[..]) + 48) as u64)
            .sum()
    }
}

/// Calls `f` for the offsets of `{-1,0,1}^d` from `[first; d]` on, in
/// odometer order (dimension 0 fastest), until it fails. From `first = -1`
/// that is all `3^d`. From `first = 0` it is the zero offset and then the
/// half whose last non-zero entry is `+1` — one of every `±offset` — which
/// is what a self-join visits, so each cell pair is seen once.
fn for_each_offset(
    d: usize,
    first: i64,
    f: &mut impl FnMut(&[i64]) -> Result<()>,
) -> Result<()> {
    let mut offset = vec![first; d];
    // 3^d odometer over the neighbourhood — bounded by dimensionality, not by
    // the dataset.
    loop {
        f(&offset)?;
        // Odometer increment over {-1,0,1}: the first entry below 1 steps
        // up, the entries before it wrap around.
        let Some(i) = offset.iter().position(|&o| o < 1) else {
            return Ok(());
        };
        offset[i] += 1;
        offset[..i].fill(-1);
    }
}

impl SimilarityJoin for GridJoin {
    fn name(&self) -> &'static str {
        "GRID"
    }

    fn env(&mut self) -> &mut JoinEnv {
        &mut self.env
    }

    fn run(
        &self,
        run: &mut JoinRun<'_>,
        a: &Dataset,
        b: &Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<()> {
        let dims = a.dims();
        if dims > self.max_dims {
            return Err(Error::Unsupported(format!(
                "epsilon-grid join at d={dims} would enumerate 3^{dims} neighbour cells; \
                 cap is {} (raise GridJoin::max_dims to force it)",
                self.max_dims
            )));
        }

        let (dir_a, dir_b) = run.phase("build", PhaseClass::Cpu, |run| {
            let dir_a = Directory::build(a, spec.eps, run)?;
            let dir_b = match kind {
                JoinKind::SelfJoin => None,
                JoinKind::TwoSets => Some(Directory::build(b, spec.eps, run)?),
            };
            run.structure_bytes(dir_a.bytes() + dir_b.as_ref().map_or(0, Directory::bytes));
            Ok((dir_a, dir_b))
        })?;

        run.phase("probe", PhaseClass::Cpu, |run| {
            let mut refiner = Refiner::new(a, b, kind, spec, sink);
            let mut join = TileJoin::new(b, spec.eps, run.lifecycle());
            let mut cell_pairs = 0u64;
            let mut neighbour = vec![0i64; dims];
            // A self-join probes its own directory: each cell with itself,
            // then with the positive half of its neighbourhood.
            let probed = dir_b.as_ref().unwrap_or(&dir_a);
            let first = if dir_b.is_some() { -1 } else { 0 };
            let mut probe = || -> Result<()> {
                for (idx, (key, xs)) in dir_a.sorted_cells().into_iter().enumerate() {
                    if idx % POLL_STRIDE == 0 {
                        run.poll()?;
                    }
                    // From 0 the first offset is the zero offset: the cell itself.
                    let mut within = first == 0;
                    for_each_offset(dims, first, &mut |off| {
                        for ((n, &k), &o) in neighbour.iter_mut().zip(key.iter()).zip(off) {
                            *n = k + o;
                        }
                        let ys = if within {
                            Some(xs)
                        } else {
                            probed.cells.get(&neighbour)
                        };
                        if let Some(ys) = ys {
                            cell_pairs += 1;
                            join.run(xs, ys, within, &mut refiner)?;
                        }
                        within = false;
                        Ok(())
                    })?;
                }
                Ok(())
            };
            let probed_all = probe();
            run.refined(refiner.counters());
            run.count("cell_pairs", cell_pairs);
            run.tally(join.tally());
            run.structure_bytes(join.scratch_bytes());
            probed_all
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_bruteforce::BruteForce;
    use hdsj_core::{verify, CountSink, LifecycleCtx, Metric, VecSink};

    fn compare_with_bf(a: &Dataset, b: Option<&Dataset>, spec: &JoinSpec) {
        let mut want = VecSink::default();
        let mut got = VecSink::default();
        let mut bf = BruteForce::default();
        let mut grid = GridJoin::default();
        match b {
            None => {
                bf.self_join(a, spec, &mut want).unwrap();
                grid.self_join(a, spec, &mut got).unwrap();
            }
            Some(b) => {
                bf.join(a, b, spec, &mut want).unwrap();
                grid.join(a, b, spec, &mut got).unwrap();
            }
        }
        verify::assert_same_results("GRID", &want.pairs, &got.pairs);
    }

    #[test]
    fn matches_brute_force_on_uniform_self_join() {
        for (dims, eps) in [(2usize, 0.05), (3, 0.15), (6, 0.4)] {
            let ds = hdsj_data::uniform(dims, 400, dims as u64).unwrap();
            compare_with_bf(&ds, None, &JoinSpec::new(eps, Metric::L2));
        }
    }

    #[test]
    fn matches_brute_force_on_two_set_join() {
        let a = hdsj_data::uniform(4, 300, 1).unwrap();
        let b = hdsj_data::uniform(4, 250, 2).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
            compare_with_bf(&a, Some(&b), &JoinSpec::new(0.25, metric));
        }
    }

    #[test]
    fn matches_brute_force_on_clustered_data() {
        let ds = hdsj_data::gaussian_clusters(
            3,
            500,
            hdsj_data::ClusterSpec {
                clusters: 5,
                sigma: 0.03,
                ..Default::default()
            },
            9,
        )
        .unwrap();
        compare_with_bf(&ds, None, &JoinSpec::new(0.05, Metric::L2));
    }

    #[test]
    fn points_on_cell_boundaries_are_not_lost() {
        // Exact multiples of eps sit on cell edges; the neighbour sweep must
        // still find cross-boundary pairs.
        let eps = 0.125;
        let ds = Dataset::from_rows(&[
            vec![0.25, 0.25],  // corner of 4 cells
            vec![0.249, 0.25], // just left
            vec![0.375, 0.25], // exactly eps to the right
            vec![0.25, 0.375],
        ])
        .unwrap();
        compare_with_bf(&ds, None, &JoinSpec::new(eps, Metric::Linf));
    }

    /// The boundary input joined at ε = 8/64 (see the generator).
    fn striped(dims: usize, sizes: &[usize], seed: u64) -> Dataset {
        hdsj_data::lattice_stripes(dims, sizes, seed).unwrap()
    }

    #[test]
    fn lattice_inputs_match_brute_force_under_every_metric() {
        let a = striped(3, &[40, 0, 25, 60, 1, 30, 0, 50], 1);
        let b = striped(3, &[30, 20, 0, 45, 0, 0, 35, 10], 2);
        // Two dimensions: ~19 points a cell, enough lanes to gather.
        let dense = striped(2, &[150; 8], 3);
        for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
            let spec = JoinSpec::new(8.0 / 64.0, metric);
            compare_with_bf(&a, None, &spec);
            compare_with_bf(&a, Some(&b), &spec);
            compare_with_bf(&b, Some(&a), &spec);
            compare_with_bf(&dense, None, &spec);
        }
    }

    /// Cancels a query at its first result pair.
    struct CancelAtFirstPair(hdsj_core::CancelToken, u64);

    impl PairSink for CancelAtFirstPair {
        fn push(&mut self, _: u32, _: u32) {
            self.0.cancel();
            self.1 += 1;
        }
    }

    #[test]
    fn a_canceled_lifecycle_stops_the_join_inside_a_cell_pair() {
        // 64 cells, fewer than one `POLL_STRIDE`: past the first cell only
        // the tile join polls.
        let ds = striped(2, &[150; 8], 4);
        let spec = JoinSpec::l2(8.0 / 64.0);
        let mut all = CountSink::default();
        GridJoin::default().self_join(&ds, &spec, &mut all).unwrap();

        let lc = LifecycleCtx::unbounded();
        let mut sink = CancelAtFirstPair(lc.cancel_token(), 0);
        let mut grid = GridJoin::default();
        grid.set_lifecycle(lc);
        let err = grid.self_join(&ds, &spec, &mut sink).unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err:?}");
        assert!(
            0 < sink.1 && sink.1 < all.count,
            "{} of {}",
            sink.1,
            all.count
        );
    }

    #[test]
    fn large_eps_degenerates_to_single_cell() {
        let ds = hdsj_data::uniform(2, 100, 5).unwrap();
        compare_with_bf(&ds, None, &JoinSpec::new(0.9, Metric::L2));
    }

    #[test]
    fn refuses_high_dimensionality() {
        let ds = hdsj_data::uniform(16, 10, 1).unwrap();
        let mut sink = VecSink::default();
        let err = GridJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.1), &mut sink)
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
        // Raising the cap overrides the refusal.
        let ds_small = hdsj_data::uniform(11, 50, 1).unwrap();
        GridJoin {
            max_dims: 16,
            ..GridJoin::default()
        }
        .self_join(&ds_small, &JoinSpec::l2(0.5), &mut sink)
        .unwrap();
    }

    #[test]
    fn reports_phases_and_structure_bytes() {
        let ds = hdsj_data::uniform(3, 200, 2).unwrap();
        let mut sink = VecSink::default();
        let stats = GridJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.1), &mut sink)
            .unwrap();
        assert!(stats.phase("build").is_some());
        assert!(stats.phase("probe").is_some());
        assert!(stats.structure_bytes > 0);
        assert!(stats.candidates >= stats.results);
    }

    #[test]
    fn offsets_enumerate_exactly_3_pow_d() {
        for d in 1..=5usize {
            let mut all = std::collections::BTreeSet::new();
            for_each_offset(d, -1, &mut |off| {
                assert!(all.insert(off.to_vec()));
                Ok(())
            })
            .unwrap();
            assert_eq!(all.len(), 3usize.pow(d as u32));
            // From zero: the zero offset first, then one of every ±offset.
            let mut half = Vec::new();
            for_each_offset(d, 0, &mut |off| {
                half.push(off.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(half[0], vec![0; d]);
            assert_eq!(half.len(), all.len().div_ceil(2));
            for off in &half[1..] {
                let negated: Vec<i64> = off.iter().map(|o| -o).collect();
                assert!(all.contains(off) && !half.contains(&negated), "{off:?}");
            }
        }
    }
}
