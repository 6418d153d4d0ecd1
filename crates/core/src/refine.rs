//! The shared filter-and-refine back end.
//!
//! Every multidimensional filter structure (MSJ level files, R-tree node
//! pairs, ε-KDB neighbouring leaves, grid cells) produces *candidate* pairs
//! that are guaranteed to contain all true results but may contain false
//! positives. [`Refiner`] centralizes the refinement step: it evaluates the
//! exact metric, enforces the self-join reporting conventions, and keeps the
//! candidate/result/distance-evaluation counters consistent across
//! algorithms.

use crate::dataset::Dataset;
use crate::join::{JoinKind, JoinSpec, PairSink};
use crate::simd::Scratch;
use crate::soa::SoABlock;
use crate::stats::JoinStats;
use std::ops::Range;

/// Verifies candidate pairs against the exact metric and forwards survivors
/// to the caller's sink.
///
/// Contract for algorithms: offer each candidate pair **at most once**
/// (`(i, j)` for two-set joins; any orientation of an unordered pair for
/// self-joins). The refiner canonicalizes self-join pairs to
/// `(min, max)` and drops identical indices, so algorithms that naturally
/// discover `(j, i)` need no special casing — but they must not discover a
/// pair twice.
pub struct Refiner<'a> {
    a: &'a Dataset,
    b: &'a Dataset,
    kind: JoinKind,
    eps: f64,
    metric: crate::metric::Metric,
    sink: &'a mut dyn PairSink,
    candidates: u64,
    results: u64,
    dist_evals: u64,
    /// The block kernel's hits of the current call, and what it reuses.
    hits: Vec<(u32, u32)>,
    scratch: Scratch,
}

impl<'a> Refiner<'a> {
    /// Creates a refiner for `a ⋈ b` (two-set) or `a ⋈ a` (self-join, pass
    /// the same dataset twice).
    pub fn new(
        a: &'a Dataset,
        b: &'a Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &'a mut dyn PairSink,
    ) -> Refiner<'a> {
        Refiner {
            a,
            b,
            kind,
            eps: spec.eps,
            metric: spec.metric,
            sink,
            candidates: 0,
            results: 0,
            dist_evals: 0,
            hits: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Offers a candidate pair; evaluates the exact metric and forwards the
    /// pair to the sink when it qualifies.
    #[inline]
    pub fn offer(&mut self, i: u32, j: u32) {
        let (i, j) = match self.kind {
            JoinKind::TwoSets => (i, j),
            JoinKind::SelfJoin => {
                if i == j {
                    return;
                }
                (i.min(j), i.max(j))
            }
        };
        self.candidates += 1;
        self.dist_evals += 1;
        if self
            .metric
            .within(self.a.point(i), self.b.point(j), self.eps)
        {
            self.results += 1;
            self.sink.push(i, j);
        }
    }

    /// Offers, for each window `(i, lanes)`, the candidate lanes `lanes` of
    /// a pre-built SoA `block` against probe row `i`: one call of the
    /// across-candidate [`crate::metric::Metric::within_windows`] kernel
    /// for the whole list.
    ///
    /// Semantics match [`Refiner::offer`] called for every id of
    /// `block.ids()[lanes]`, window by window, each in lane order: same
    /// counters (self-join diagonal lanes dropped before counting), same
    /// canonical `(min, max)` emission — kernel distances are bit-symmetric
    /// under argument swap, so evaluating in the probe's orientation is
    /// exact. An empty or inverted window offers nothing. Brute force tiles
    /// its inner set once per join; the sweeps gather one tile per
    /// cell-pair window run.
    pub fn offer_windows(&mut self, block: &SoABlock, windows: &[(u32, Range<usize>)]) {
        let n: u64 = windows.iter().map(|w| w.1.len() as u64).sum();
        self.hits.clear();
        self.metric.within_windows(
            self.a,
            block,
            windows,
            self.eps,
            &mut self.scratch,
            &mut self.hits,
        );
        match self.kind {
            JoinKind::TwoSets => {
                self.candidates += n;
                self.dist_evals += n;
                for &(i, j) in &self.hits {
                    self.results += 1;
                    self.sink.push(i, j);
                }
            }
            JoinKind::SelfJoin => {
                // A diagonal lane is at distance 0, so the kernel always
                // lists it: counting `j == i` among the hits finds every
                // one without a scan of the windows' ids.
                let mut diag = 0;
                for &(i, j) in &self.hits {
                    if j == i {
                        diag += 1;
                        continue;
                    }
                    self.results += 1;
                    self.sink.push(i.min(j), i.max(j));
                }
                self.candidates += n - diag;
                self.dist_evals += n - diag;
            }
        }
    }

    /// Counters accumulated so far, for merging into a [`JoinStats`].
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.candidates, self.results, self.dist_evals)
    }

    /// Folds the refiner's counters into `stats` and returns it (consuming
    /// the refiner, which releases the sink borrow).
    pub fn finish(self, mut stats: JoinStats) -> JoinStats {
        stats.candidates += self.candidates;
        stats.results += self.results;
        stats.dist_evals += self.dist_evals;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::VecSink;
    use crate::metric::Metric;
    use crate::sweep::{WindowBatch, WINDOWS_PER_CALL};

    fn square() -> Dataset {
        Dataset::from_rows(&[vec![0.0, 0.0], vec![0.1, 0.0], vec![0.9, 0.9]]).unwrap()
    }

    #[test]
    fn two_set_offer_filters_by_metric() {
        let a = square();
        let b = square();
        let spec = JoinSpec::new(0.15, Metric::L2);
        let mut sink = VecSink::default();
        let mut r = Refiner::new(&a, &b, JoinKind::TwoSets, &spec, &mut sink);
        r.offer(0, 1); // dist 0.1 -> pass
        r.offer(0, 2); // far -> fail
        r.offer(1, 0); // two-set joins keep orientation
        let stats = r.finish(JoinStats::default());
        assert_eq!(stats.candidates, 3);
        assert_eq!(stats.results, 2);
        assert_eq!(stats.dist_evals, 3);
        assert_eq!(sink.pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn self_join_canonicalizes_and_drops_diagonal() {
        let a = square();
        let spec = JoinSpec::new(0.15, Metric::L2);
        let mut sink = VecSink::default();
        let mut r = Refiner::new(&a, &a, JoinKind::SelfJoin, &spec, &mut sink);
        r.offer(1, 0); // reversed orientation
        r.offer(2, 2); // diagonal: ignored entirely (not even a candidate)
        let stats = r.finish(JoinStats::default());
        assert_eq!(stats.candidates, 1);
        assert_eq!(sink.pairs, vec![(0, 1)]);
    }

    #[test]
    fn block_offers_match_serial_offers() {
        // 60 points on a smooth curve at d = 16, so neighbours are hits and
        // 30-lane windows reach the f32 stage (and pair up) at every tier.
        const N: u32 = 60;
        let rows: Vec<Vec<f64>> = (0..N)
            .map(|i| {
                let t = f64::from(i) * 0.05;
                (0..16)
                    .map(|k| (t + f64::from(k) * 0.1).sin() * 0.5 + 0.5)
                    .collect()
            })
            .collect();
        let a = Dataset::from_rows(&rows).unwrap();
        let tile = SoABlock::from_range(&a, 0..N);
        // Per probe: split, empty and inverted windows. The diagonal lane
        // falls at both ends of a window as `i` varies (0, 29, 30, 59), and
        // the list — four windows a probe — is longer than a flush.
        let mut windows: Vec<(u32, Range<usize>)> = Vec::new();
        for i in 0..N {
            #[allow(clippy::reversed_empty_ranges)]
            windows.extend([(i, 0..30), (i, 30..30), (i, 40..30), (i, 30..60)]);
        }
        // A window whose only lane is the diagonal: a self-join neither
        // counts nor emits it, a two-set join does both.
        windows.push((7, 7..8));
        assert!(windows.len() > 2 * WINDOWS_PER_CALL);
        for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
            let spec = JoinSpec::new(0.3, metric);
            for kind in [JoinKind::SelfJoin, JoinKind::TwoSets] {
                let mut serial_sink = VecSink::default();
                let mut serial = Refiner::new(&a, &a, kind, &spec, &mut serial_sink);
                for (i, lanes) in &windows {
                    for t in lanes.clone() {
                        serial.offer(*i, tile.ids()[t]);
                    }
                }
                // The whole list in one call, and in flushes as the sweeps
                // and brute force hand it over.
                let mut whole_sink = VecSink::default();
                let mut whole = Refiner::new(&a, &a, kind, &spec, &mut whole_sink);
                whole.offer_windows(&tile, &windows);
                let mut batched_sink = VecSink::default();
                let mut batched = Refiner::new(&a, &a, kind, &spec, &mut batched_sink);
                let mut batch = WindowBatch::default();
                for (i, lanes) in &windows {
                    batch.push(&mut batched, &tile, *i, lanes.clone());
                }
                batch.flush(&mut batched, &tile);
                let want = serial.counters();
                assert!(want.1 > N as u64, "{metric:?} {kind:?}: {want:?}");
                assert_eq!(whole.counters(), want, "{metric:?} {kind:?}");
                assert_eq!(batched.counters(), want, "{metric:?} {kind:?}");
                drop((serial, whole, batched));
                assert_eq!(whole_sink.pairs, serial_sink.pairs, "{metric:?} {kind:?}");
                assert_eq!(batched_sink.pairs, serial_sink.pairs, "{metric:?} {kind:?}");
            }
        }
    }

    #[test]
    fn finish_accumulates_into_existing_stats() {
        let a = square();
        let spec = JoinSpec::new(1.0, Metric::Linf);
        let mut sink = VecSink::default();
        let mut r = Refiner::new(&a, &a, JoinKind::TwoSets, &spec, &mut sink);
        r.offer(0, 0);
        let base = JoinStats {
            candidates: 10,
            results: 5,
            dist_evals: 7,
            ..Default::default()
        };
        let stats = r.finish(base);
        assert_eq!(stats.candidates, 11);
        assert_eq!(stats.results, 6);
        assert_eq!(stats.dist_evals, 8);
    }
}
