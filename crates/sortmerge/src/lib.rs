//! # hdsj-sortmerge — the 1-D projection sort-merge join
//!
//! The simplest non-quadratic baseline in the similarity-join literature:
//! project all points onto one dimension, sort, and sweep a window of width
//! ε — every result pair must project within ε of each other, so the window
//! contains all candidates. The remaining `d − 1` dimensions are only
//! checked by the exact refinement step. The window sweep is the shared
//! tile-major [`TileJoin`] over the two sorted projections.
//!
//! The method is excellent when one dimension is discriminative and
//! collapses toward brute force as dimensionality grows (a window of width
//! ε on one axis of `[0,1)^d` keeps an expected `ε·N` fraction of all
//! pairs no matter how large `d` is) — which is precisely why the paper's
//! generation of work moved to multidimensional filter structures. Included
//! here as the degenerate end of the filter spectrum.
//!
//! The projection dimension is selectable; [`SortMergeJoin::best_dimension`]
//! picks the highest-variance one, the standard heuristic.
#![forbid(unsafe_code)]

use hdsj_core::obs::PhaseClass;
use hdsj_core::{
    sort_by_coord, Dataset, Error, JoinEnv, JoinKind, JoinRun, JoinSpec, PairSink, Refiner,
    Result, SimilarityJoin, TileJoin,
};

/// Sort-merge join over one projected dimension.
///
/// ```
/// use hdsj_core::{JoinSpec, SimilarityJoin, CountSink};
/// use hdsj_sortmerge::SortMergeJoin;
/// let points = hdsj_data::uniform(4, 150, 3).unwrap();
/// let mut sink = CountSink::default();
/// SortMergeJoin::default().self_join(&points, &JoinSpec::l2(0.2), &mut sink)?;
/// # Ok::<(), hdsj_core::Error>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SortMergeJoin {
    /// Projection dimension; `None` selects the highest-variance dimension
    /// of the (left) input at run time.
    pub dimension: Option<usize>,
    /// Tracer and lifecycle context (polled by the sweep's tile join, per
    /// candidate tile and every 1024 probes); the thread count is ignored.
    pub env: JoinEnv,
}

impl SortMergeJoin {
    /// Joins on an explicit dimension.
    pub fn on_dimension(dimension: usize) -> SortMergeJoin {
        SortMergeJoin {
            dimension: Some(dimension),
            ..SortMergeJoin::default()
        }
    }

    /// The highest-variance dimension of `ds` — the standard projection
    /// heuristic (a low-variance axis would put everything in one window).
    pub fn best_dimension(ds: &Dataset) -> usize {
        let dims = ds.dims();
        let n = ds.len().max(1) as f64;
        let mut best = 0;
        let mut best_var = f64::NEG_INFINITY;
        for d in 0..dims {
            let mean: f64 = ds.iter().map(|(_, p)| p[d]).sum::<f64>() / n;
            let var: f64 = ds.iter().map(|(_, p)| (p[d] - mean).powi(2)).sum::<f64>() / n;
            if var > best_var {
                best_var = var;
                best = d;
            }
        }
        best
    }
}

fn sorted_projection(ds: &Dataset, dim: usize) -> Vec<(f64, u32)> {
    let mut proj: Vec<(f64, u32)> = ds.iter().map(|(i, p)| (p[dim], i)).collect();
    sort_by_coord(&mut proj);
    proj
}

impl SimilarityJoin for SortMergeJoin {
    fn name(&self) -> &'static str {
        "SM1D"
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
        let dim = match self.dimension {
            Some(d) if d >= a.dims() => {
                return Err(Error::InvalidInput(format!(
                    "projection dimension {d} out of range for d={}",
                    a.dims()
                )));
            }
            Some(d) => d,
            None => Self::best_dimension(a),
        };
        run.attr_u64("projection_dim", dim as u64);

        let (sorted_a, sorted_b) = run.phase("sort", PhaseClass::Cpu, |run| {
            let sorted_a = sorted_projection(a, dim);
            let sorted_b = match kind {
                JoinKind::SelfJoin => None,
                JoinKind::TwoSets => Some(sorted_projection(b, dim)),
            };
            let entries = sorted_a.len() + sorted_b.as_ref().map_or(0, Vec::len);
            run.structure_bytes(entries as u64 * 12);
            Ok((sorted_a, sorted_b))
        })?;

        run.phase("sweep", PhaseClass::Cpu, |run| {
            let mut refiner = Refiner::new(a, b, kind, spec, sink);
            let mut join = TileJoin::new(b, spec.eps, run.lifecycle());
            let candidates = sorted_b.as_ref().unwrap_or(&sorted_a);
            let swept = join.run(&sorted_a, candidates, sorted_b.is_none(), &mut refiner);
            run.refined(refiner.counters());
            run.structure_bytes(join.scratch_bytes());
            swept
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_bruteforce::BruteForce;
    use hdsj_core::{verify, Metric, VecSink};

    fn compare_with_bf(
        a: &Dataset,
        b: Option<&Dataset>,
        spec: &JoinSpec,
        sm: &mut SortMergeJoin,
    ) {
        let mut want = VecSink::default();
        let mut got = VecSink::default();
        let mut bf = BruteForce::default();
        match b {
            None => {
                bf.self_join(a, spec, &mut want).unwrap();
                sm.self_join(a, spec, &mut got).unwrap();
            }
            Some(b) => {
                bf.join(a, b, spec, &mut want).unwrap();
                sm.join(a, b, spec, &mut got).unwrap();
            }
        }
        verify::assert_same_results("SM1D", &want.pairs, &got.pairs);
    }

    #[test]
    fn matches_brute_force_on_every_dimension_choice() {
        let ds = hdsj_data::uniform(4, 400, 1).unwrap();
        let spec = JoinSpec::new(0.2, Metric::L2);
        for d in 0..4 {
            compare_with_bf(&ds, None, &spec, &mut SortMergeJoin::on_dimension(d));
        }
        compare_with_bf(&ds, None, &spec, &mut SortMergeJoin::default());
    }

    #[test]
    fn matches_brute_force_on_two_set_join() {
        let a = hdsj_data::uniform(5, 300, 2).unwrap();
        let b = hdsj_data::uniform(5, 250, 3).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            compare_with_bf(
                &a,
                Some(&b),
                &JoinSpec::new(0.25, metric),
                &mut SortMergeJoin::default(),
            );
        }
    }

    #[test]
    fn best_dimension_picks_the_spread_axis() {
        // Dimension 1 spans [0,1); dimension 0 is nearly constant.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![0.5 + (i % 2) as f64 * 1e-6, i as f64 / 100.0])
            .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        assert_eq!(SortMergeJoin::best_dimension(&ds), 1);
    }

    #[test]
    fn discriminative_dimension_prunes_candidates() {
        let ds = hdsj_data::uniform(2, 2000, 7).unwrap();
        let spec = JoinSpec::new(0.01, Metric::L2);
        let mut sink = VecSink::default();
        let stats = SortMergeJoin::default()
            .self_join(&ds, &spec, &mut sink)
            .unwrap();
        let quadratic = 2000u64 * 1999 / 2;
        assert!(stats.candidates < quadratic / 20, "{}", stats.candidates);
    }

    #[test]
    fn rejects_out_of_range_dimension() {
        let ds = hdsj_data::uniform(3, 10, 1).unwrap();
        let mut sink = VecSink::default();
        assert!(SortMergeJoin::on_dimension(3)
            .self_join(&ds, &JoinSpec::l2(0.1), &mut sink)
            .is_err());
    }

    #[test]
    fn reports_phases() {
        let ds = hdsj_data::uniform(3, 100, 1).unwrap();
        let mut sink = VecSink::default();
        let stats = SortMergeJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.2), &mut sink)
            .unwrap();
        assert!(stats.phase("sort").is_some() && stats.phase("sweep").is_some());
        assert!(stats.structure_bytes > 0);
    }
}
